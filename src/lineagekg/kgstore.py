"""Typed triple store with pattern lookups and N-Triples I/O.

Nodes are interned to dense integer ids; triples are kept once, with set
semantics in insertion order, so that iteration is deterministic across
runs.  Objects are either node ids or typed literals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Union

LITERAL_KINDS = ("string", "integer", "decimal", "boolean")

RDF_TYPE = "rdf:type"


class KgError(Exception):
    """Base error for graph operations."""


class UnknownNodeError(KgError):
    pass


class ParseError(KgError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def render_decimal(value: float) -> str:
    """Canonical decimal form: 12 significant digits, explicit point."""
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite decimal: {value!r}")
    if value == 0.0:
        return "0.0"
    s = format(value, ".12g")
    if "e" in s:
        mantissa, exponent = s.split("e")
        if "." not in mantissa:
            mantissa += ".0"
        return mantissa + "e" + exponent
    if "." not in s:
        s += ".0"
    return s


def canonical_lexical(lexical: str, kind: str) -> str:
    """Normalize a lexical form for its kind; raises ValueError if unparsable."""
    if kind == "string":
        return lexical
    if kind == "integer":
        return str(int(lexical))
    if kind == "decimal":
        return render_decimal(float(lexical))
    if kind == "boolean":
        low = lexical.strip().lower()
        if low in ("true", "1"):
            return "true"
        if low in ("false", "0"):
            return "false"
        raise ValueError(f"not a boolean lexical: {lexical!r}")
    raise ValueError(f"unknown literal kind: {kind!r}")


@dataclass(frozen=True)
class Literal:
    lexical: str
    kind: str = "string"

    def __post_init__(self):
        if self.kind not in LITERAL_KINDS:
            raise ValueError(f"unknown literal kind: {self.kind!r}")


Object = Union[int, Literal]
Triple = tuple  # (subject id, relation id, Object)


class KnowledgeGraph:
    """Insertion-ordered triple set with dense node and relation registries."""

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._iris: list[str] = []
        self._iri_ids: dict[str, int] = {}
        self._rel_names: list[str] = []
        self._rel_ids: dict[str, int] = {}
        self._triples: dict[Triple, None] = {}  # insertion-ordered set
        self._frozen = False
        self.meta: dict = {}

    # -- registries ---------------------------------------------------------

    def add_node(self, iri: str) -> int:
        existing = self._iri_ids.get(iri)
        if existing is not None:
            return existing
        self._check_mutable()
        node_id = len(self._iris)
        self._iris.append(iri)
        self._iri_ids[iri] = node_id
        return node_id

    def node_id(self, iri: str) -> int:
        try:
            return self._iri_ids[iri]
        except KeyError:
            raise UnknownNodeError(f"unknown node iri: {iri!r}") from None

    def node_iri(self, node_id: int) -> str:
        if not 0 <= node_id < len(self._iris):
            raise UnknownNodeError(f"unknown node id: {node_id}")
        return self._iris[node_id]

    def local_name(self, node_id: int) -> str:
        """The node's IRI after its first ':' (the whole IRI when it has none)."""
        prefix, colon, local = self.node_iri(node_id).partition(":")
        return local if colon else prefix

    @property
    def num_nodes(self) -> int:
        return len(self._iris)

    def add_relation(self, name: str) -> int:
        existing = self._rel_ids.get(name)
        if existing is not None:
            return existing
        self._check_mutable()
        rel_id = len(self._rel_names)
        self._rel_names.append(name)
        self._rel_ids[name] = rel_id
        return rel_id

    def relation_id(self, name: str) -> int:
        try:
            return self._rel_ids[name]
        except KeyError:
            raise KgError(f"unknown relation: {name!r}") from None

    def relation_name(self, rel_id: int) -> str:
        return self._rel_names[rel_id]

    def has_relation(self, name: str) -> bool:
        return name in self._rel_ids

    def relation_names(self) -> list[str]:
        return list(self._rel_names)

    @property
    def num_relations(self) -> int:
        return len(self._rel_names)

    # -- triples ------------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise KgError("graph is frozen")

    def _check_node(self, node_id) -> None:
        if not isinstance(node_id, int) or not 0 <= node_id < len(self._iris):
            raise UnknownNodeError(f"unknown node: {node_id!r}")

    def add_triple(self, s: int, r: int, o: Object) -> bool:
        """Insert (s, r, o); returns True when newly added."""
        self._check_node(s)
        if not isinstance(o, Literal):
            self._check_node(o)
        if not 0 <= r < len(self._rel_names):
            raise KgError(f"unknown relation id: {r}")
        triple = (s, r, o)
        if triple in self._triples:
            return False
        self._check_mutable()
        self._triples[triple] = None
        return True

    def triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def freeze(self) -> "KnowledgeGraph":
        self._frozen = True
        return self

    def lookup(self, s: Optional[int] = None, r: Optional[int] = None,
               o: Optional[Object] = None) -> Iterator[Triple]:
        """Iterate triples matching the bound positions (None = wildcard),
        scanning every triple in insertion order."""
        for triple in self._triples:
            if s is not None and triple[0] != s:
                continue
            if r is not None and triple[1] != r:
                continue
            if o is not None and triple[2] != o:
                continue
            yield triple


# -- N-Triples serialization -------------------------------------------------

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)

# a whole line: <subject> <relation>, then <object> or "literal"^^<xsd:kind>,
# then "."; runs of spaces may separate the terms and follow the dot
_TRIPLE_LINE = re.compile(
    r'<([^>]*)> *<([^>]*)> *(?:<([^>]*)>|"([^"\\]*(?:\\.[^"\\]*)*)"(?:\^\^<xsd:([^>]*)>)?) *\. *'
)
_ESCAPE_SEQUENCE = re.compile(r"\\(.)")


def _unescape(match: re.Match) -> str:
    return _UNESCAPES[match.group(1)]


def _format_object(g: KnowledgeGraph, o: Object) -> str:
    if isinstance(o, Literal):
        body = f'"{o.lexical.translate(_ESCAPE_TABLE)}"'
        if o.kind != "string":
            body += f"^^<xsd:{o.kind}>"
        return body
    return f"<{g.node_iri(o)}>"


def serialize_ntriples(g: KnowledgeGraph) -> str:
    """One sorted line per triple: ``<subj> <rel> <obj> .``"""
    lines = [
        f"<{g.node_iri(s)}> <{g.relation_name(r)}> {_format_object(g, o)} ."
        for (s, r, o) in g.triples()
    ]
    lines.sort()
    return "\n".join(lines) + ("\n" if lines else "")


def parse_ntriples(text: str, relations: tuple[str, ...] = ()) -> KnowledgeGraph:
    """Parse the line format produced by :func:`serialize_ntriples`.

    ``relations`` pre-registers relation names in a fixed order so that
    graphs parsed from different files share one relation registry.
    """
    g = KnowledgeGraph()
    for name in relations:
        g.add_relation(name)
    for number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            continue
        match = _TRIPLE_LINE.fullmatch(line)
        if match is None:
            raise ParseError("malformed triple", number)
        subj, rel, iri, lexical, kind = match.groups()
        if iri is not None:
            obj: Object = g.add_node(iri)
        else:
            if kind is None:
                kind = "string"
            elif kind not in LITERAL_KINDS:
                raise ParseError(f"unknown literal kind: {kind!r}", number)
            try:
                lexical = _ESCAPE_SEQUENCE.sub(_unescape, lexical)
            except KeyError as exc:
                raise ParseError(f"bad escape: \\{exc.args[0]}", number) from None
            obj = Literal(lexical, kind)
        # object node before subject node: node ids fix the path sampler's walk order
        g.add_triple(g.add_node(subj), g.add_relation(rel), obj)
    return g
