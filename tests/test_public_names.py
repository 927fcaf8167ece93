"""Every public module-level name of ``lineagekg`` is used somewhere.

A function, class or constant that the package defines at module level and
that no code in ``src/``, ``tests/`` or ``bench/`` reads, in its own module
or another, is dead surface; this test names each one.  A read is a loaded
name, an attribute or an imported name, matched by name alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = {path: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for folder in ("src", "tests", "bench")
         for path in sorted((ROOT / folder).rglob("*.py"))}


def defined(tree: ast.Module) -> list[str]:
    """The public names a module binds at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n.id for t in node.targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_read():
    package = ROOT / "src" / "lineagekg"
    public = [(path.stem, name) for path, tree in TREES.items()
              if path.parent == package for name in defined(tree)]
    assert len(public) > 50  # the scan found the package
    used = set().union(*map(read, TREES.values()))
    assert [f"{module}.{name}" for module, name in public if name not in used] == []
