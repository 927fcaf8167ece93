"""Transformation-scenario suite: generation, execution, lineage capture.

The suite covers 9 tasks ({selection, join, union} x {projection, linear,
nonlinear}); each scenario chains four transformations over the base
database and records one lineage tuple per (source cell, target cell) pair.
Generated transformations are re-drawn until value-based resolution is
unambiguous (every tuple pins exactly one source row and one provenance per
target value).
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from .kgstore import render_decimal
from .reldb import ColumnDef, Database, Relation, TableDef

ALGEBRAS = ("selection", "join", "union")
FAMILIES = ("projection", "linear", "nonlinear")
NONLINEAR_KINDS = ("bilinear", "power", "log", "exp")
OUTPUT_CLASSES = ("Table", "View", "MaterializedView", "TemporalTable", "ExternalTable")

TRANSFORMATIONS_PER_SCENARIO = 4
_MAX_ATTEMPTS = 100


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class TransformKind:
    algebra: str
    family: str

    @property
    def name(self) -> str:
        return f"{self.algebra}-{self.family}"


TASKS = tuple(TransformKind(a, f) for a in ALGEBRAS for f in FAMILIES)
TASK_NAMES = tuple(t.name for t in TASKS)


def task_by_name(name: str) -> TransformKind:
    for t in TASKS:
        if t.name == name:
            return t
    raise ScenarioError(f"unknown task: {name!r}")


@dataclass(frozen=True)
class FilterSpec:
    column: str
    op: str  # "<" | ">" | "="
    value: str


class LineageTuple(NamedTuple):
    """Source cell (t1, c1, v1) to target cell (t2, c2, v2): a tuple, so that
    building one from a lineage CSV row runs in C."""

    t1: str
    c1: str
    v1: str
    t2: str
    c2: str
    v2: str


@dataclass(frozen=True)
class TransformationSpec:
    scenario_id: str
    step: int
    algebra: str
    math: str  # projection | linear | bilinear | power | log | exp
    sources: tuple[str, ...]
    projected: tuple[tuple[str, ...], ...]  # per-source copied columns
    applied: tuple[tuple[str, ...], ...]  # per-source transformed columns
    a: float
    b: float
    filter: Optional[FilterSpec]
    join_on: Optional[tuple[str, str]]  # (left FK column, right PK column)
    output_name: str
    output_class: str


@dataclass
class Scenario:
    id: str
    task: TransformKind
    transformations: tuple[TransformationSpec, ...]
    lineage: tuple[tuple[LineageTuple, ...], ...]  # per transformation

    def all_tuples(self) -> list[LineageTuple]:
        return [t for group in self.lineage for t in group]


@dataclass
class ScenarioSuite:
    scenarios: dict[str, list[Scenario]] = field(default_factory=dict)
    db: Optional[Database] = None

    def task_names(self) -> list[str]:
        return list(self.scenarios)

    def scenarios_for(self, task_name: str) -> list[Scenario]:
        if task_name not in self.scenarios:
            raise ScenarioError(f"unknown task: {task_name!r}")
        return self.scenarios[task_name]


# -- math maps ------------------------------------------------------------------


def _apply_unary(math_kind: str, a: float, b: float, value: float) -> float:
    if math_kind == "linear":
        return a * value + b
    if math_kind == "power":
        if value <= 0:
            raise ScenarioError(f"power on non-positive value {value}")
        return value ** a
    if math_kind == "log":
        if value <= 0:
            raise ScenarioError(f"log on non-positive value {value}")
        return math.log(value)
    if math_kind == "exp":
        return math.exp(b * value)
    raise ScenarioError(f"not a unary math kind: {math_kind!r}")


def _calc_column_name(spec: TransformationSpec) -> str:
    return f"{spec.output_name}_calc"


def _copied_column_name(spec: TransformationSpec, source: str, column: str) -> str:
    if spec.algebra == "join":
        return f"{spec.output_name}_{source.replace(' ', '_')}_{column}"
    return f"{spec.output_name}_{column}"


# -- execution --------------------------------------------------------------------


def _passes(filter_spec: FilterSpec, dtype: str, value) -> bool:
    """Whether a cell value of the filter column, of type ``dtype``, passes."""
    if value is None:
        return False
    if filter_spec.op == "=":
        return value == filter_spec.value
    if dtype in ("integer", "decimal"):
        left, right = float(value), float(filter_spec.value)
    elif dtype == "boolean":
        raise ScenarioError("ordered comparison on boolean column")
    else:
        left, right = value, filter_spec.value
    return left < right if filter_spec.op == "<" else left > right


def execute_transformation(
    db: Database, spec: TransformationSpec
) -> tuple[Relation, list[LineageTuple]]:
    """Materialize one transformation and capture its lineage tuples."""
    for source in spec.sources:
        if source == spec.output_name:
            raise ScenarioError(f"output {spec.output_name!r} shadows a source")
    sources = [db.relation(name) for name in spec.sources]

    if spec.filter is not None:
        src = sources[0]
        if src.table.find_column(spec.filter.column) is None:
            raise ScenarioError(
                f"filter column {spec.filter.column!r} absent from {src.name!r}"
            )

    # (source index, row) pairs contributing to each output row
    if spec.algebra == "selection":
        rows = sources[0].rows
        if spec.filter is not None:
            at = sources[0].table.column_index(spec.filter.column)
            dtype = sources[0].table.columns[at].dtype
            rows = [row for row in rows if _passes(spec.filter, dtype, row[at])]
        row_sets = [[(0, row)] for row in rows]
    elif spec.algebra == "union":
        row_sets = [[(0, row)] for row in sources[0].rows]
        row_sets += [[(1, row)] for row in sources[1].rows]
    elif spec.algebra == "join":
        left, right = sources
        if spec.join_on is None:
            raise ScenarioError("join spec lacks join_on")
        li = left.table.column_index(spec.join_on[0])
        ri = right.table.column_index(spec.join_on[1])
        by_key: dict = {}
        for row in right.rows:
            by_key.setdefault(row[ri], []).append(row)
        row_sets = []
        for lrow in left.rows:
            for rrow in by_key.get(lrow[li], []):
                row_sets.append([(0, lrow), (1, rrow)])
    else:
        raise ScenarioError(f"unknown algebra: {spec.algebra!r}")

    # output schema: copied columns in source order, then the calc column;
    # out_names[s] names the output column of each of spec.projected[s]
    out_columns: list[ColumnDef] = []
    out_names: list[list[str]] = []
    if spec.algebra == "union":
        names = []
        for pos in range(len(spec.projected[0])):
            c0 = sources[0].table.find_column(spec.projected[0][pos])
            c1 = sources[1].table.find_column(spec.projected[1][pos])
            if c0 is None or c1 is None:
                raise ScenarioError("projected column absent from union source")
            if c0.dtype != c1.dtype:
                raise ScenarioError("union over mismatched dtypes")
            name = _copied_column_name(spec, sources[0].name, c0.name)
            length = None
            if c0.dtype == "varchar":
                length = max(c0.length or 0, c1.length or 0)
            out_columns.append(ColumnDef(
                name, c0.dtype, length=length, nullable=c0.nullable or c1.nullable))
            names.append(name)
        out_names = [names, names]
    else:
        for s_idx, cols in enumerate(spec.projected):
            names = []
            for col_name in cols:
                col = sources[s_idx].table.find_column(col_name)
                if col is None:
                    raise ScenarioError(
                        f"projected column {col_name!r} absent from {sources[s_idx].name!r}"
                    )
                name = _copied_column_name(spec, sources[s_idx].name, col_name)
                out_columns.append(ColumnDef(
                    name, col.dtype, length=col.length, nullable=col.nullable))
                names.append(name)
            out_names.append(names)

    has_calc = spec.math != "projection"
    if has_calc:
        out_columns.append(ColumnDef(_calc_column_name(spec), "decimal"))

    out_def = TableDef(spec.output_name, tuple(out_columns))
    out_rows: list[tuple] = []
    tuples: list[LineageTuple] = []

    # per source, looked up once: each copied column's position in the
    # source's rows and its output name, and (calc only) each applied column's
    copied = [[(col, sources[s_idx].table.column_index(col), out_name)
               for col, out_name in zip(cols, out_names[s_idx])]
              for s_idx, cols in enumerate(spec.projected)]
    applied = [[(col, sources[s_idx].table.column_index(col)) for col in cols]
               for s_idx, cols in enumerate(spec.applied)] if has_calc else []

    # a row's tuples: its copied cells in output column order, then the calc
    # column's applied cells; a copied cell's output value is its source value
    for contributors in row_sets:
        cells: list = []
        args: list[tuple[str, str, str, float]] = []  # (t1, c1, v1, float)
        for s_idx, row in contributors:
            src_name = sources[s_idx].name
            for src_col, at, out_name in copied[s_idx]:
                value = row[at]
                cells.append(value)
                if value is not None:
                    tuples.append(LineageTuple(src_name, src_col, value,
                                               spec.output_name, out_name, value))
            for col_name, at in applied[s_idx] if has_calc else ():
                value = row[at]
                if value is None:
                    raise ScenarioError(f"NULL in applied column {col_name!r}")
                args.append((src_name, col_name, value, float(value)))

        if has_calc:
            if spec.math == "bilinear":
                if len(args) != 2:
                    raise ScenarioError("bilinear needs exactly two applied columns")
                result = spec.a * args[0][3] * args[1][3]
            else:
                if len(args) != 1:
                    raise ScenarioError(f"{spec.math} needs exactly one applied column")
                result = _apply_unary(spec.math, spec.a, spec.b, args[0][3])
            rendered = render_decimal(result)
            cells.append(rendered)
            calc_name = _calc_column_name(spec)
            tuples.extend(LineageTuple(t1, c1, v1, spec.output_name, calc_name, rendered)
                          for t1, c1, v1, _ in args)

        out_rows.append(tuple(cells))

    return Relation(out_def, out_rows, spec.output_class), tuples


def _resolution_unambiguous(db: Database, tuples: list[LineageTuple]) -> bool:
    """Every tuple must pin exactly one source row, and each target value in a
    column must trace back to one source cell (so value matching cannot link
    unrelated rows).

    Each source (table, column) has its values counted once, on its first
    tuple, so the check is linear in the tuples and the source rows read.
    """
    value_counts: dict[tuple[str, str], Counter] = {}
    provenance: dict[tuple[str, str, str], set[tuple[str, str, str]]] = {}
    for t in tuples:
        counts = value_counts.get((t.t1, t.c1))
        if counts is None:
            counts = value_counts[(t.t1, t.c1)] = Counter(
                db.relation(t.t1).column_values(t.c1))
        if counts[t.v1] != 1:
            return False
        provenance.setdefault((t.t2, t.c2, t.v2), set()).add((t.t1, t.c1, t.v1))
    return all(len(origins) == 1 for origins in provenance.values())


# -- generation --------------------------------------------------------------------


def _safe_columns(rel: Relation) -> list[ColumnDef]:
    """Columns usable as lineage anchors: unique, non-null, not FK/boolean."""
    safe = []
    for col in rel.table.columns:
        if col.is_fk or col.dtype == "boolean":
            continue
        values = rel.column_values(col.name)
        if any(v is None for v in values):
            continue
        if len(set(values)) != len(values):
            continue
        safe.append(col)
    return safe


def _numeric_positive(rel: Relation, cols: list[ColumnDef]) -> list[ColumnDef]:
    out = []
    for col in cols:
        if col.dtype not in ("integer", "decimal"):
            continue
        values = rel.column_values(col.name)
        if values and all(float(v) > 0 for v in values):
            out.append(col)
    return out


def _draw_math(rng: random.Random, family: str) -> str:
    if family == "projection":
        return "projection"
    if family == "linear":
        return "linear"
    return NONLINEAR_KINDS[rng.randrange(len(NONLINEAR_KINDS))]


def _draw_params(rng: random.Random, math_kind: str, max_value: float) -> tuple[float, float]:
    if math_kind == "linear":
        a = round(rng.uniform(0.5, 4.0), 3) * rng.choice((-1.0, 1.0))
        b = round(rng.uniform(-50.0, 50.0), 3)
        return a, b
    if math_kind == "power":
        return round(rng.uniform(0.5, 2.5), 3), 0.0
    if math_kind == "bilinear":
        return round(rng.uniform(0.1, 2.0), 3), 0.0
    if math_kind == "exp":
        cap = min(1.0, 40.0 / max(max_value, 1.0))
        b = round(rng.uniform(0.1 * cap, cap), 9) * rng.choice((-1.0, 1.0))
        if b == 0.0:
            raise ScenarioError("degenerate exp coefficient")
        return 1.0, b
    return 1.0, 0.0  # log takes no parameters


def _propose(
    rng: random.Random,
    db: Database,
    task: TransformKind,
    scenario_id: str,
    step: int,
    output_name: str,
    output_class: str,
) -> TransformationSpec:
    math_kind = _draw_math(rng, task.family)

    if task.algebra == "join":
        fk_pairs = []
        for rel in db.tables.values():
            for fk in rel.table.foreign_keys:
                fk_pairs.append((rel.name, fk))
        if not fk_pairs:
            raise ScenarioError("database has no FK pair for a join task")
        left_name, fk = fk_pairs[rng.randrange(len(fk_pairs))]
        left, right = db.relation(left_name), db.relation(fk.ref_table)
        left_safe, right_safe = _safe_columns(left), _safe_columns(right)
        if not left_safe or not right_safe:
            raise ScenarioError("join sides lack safe columns")
        proj_left = [c.name for c in _sample(rng, left_safe, 1, 2)]
        proj_right = [c.name for c in _sample(rng, right_safe, 1, 2)]
        applied: tuple[tuple[str, ...], ...] = ((), ())
        a = b = 0.0
        if math_kind != "projection":
            left_num = _numeric_positive(left, left_safe)
            right_num = _numeric_positive(right, right_safe)
            if math_kind == "bilinear":
                if not left_num or not right_num:
                    raise ScenarioError("no numeric columns for bilinear join")
                u = left_num[rng.randrange(len(left_num))]
                v = right_num[rng.randrange(len(right_num))]
                applied = ((u.name,), (v.name,))
                a, b = _draw_params(rng, math_kind, 0.0)
            else:
                side = rng.randrange(2)
                pool = (left_num, right_num)[side]
                if not pool:
                    pool = (right_num, left_num)[side]
                    side = 1 - side
                if not pool:
                    raise ScenarioError("no numeric columns for join math")
                col = pool[rng.randrange(len(pool))]
                rel = (left, right)[side]
                max_v = max(abs(float(v)) for v in rel.column_values(col.name))
                applied = ((col.name,), ()) if side == 0 else ((), (col.name,))
                a, b = _draw_params(rng, math_kind, max_v)
        return TransformationSpec(
            scenario_id=scenario_id, step=step, algebra="join", math=math_kind,
            sources=(left.name, right.name),
            projected=(tuple(proj_left), tuple(proj_right)),
            applied=applied, a=a, b=b, filter=None,
            join_on=(fk.column, fk.ref_column),
            output_name=output_name, output_class=output_class)

    if task.algebra == "union":
        pairs = _union_pairs(db)
        if not pairs:
            raise ScenarioError("no union-compatible table pair")
        (name_a, name_b), aligned = pairs[rng.randrange(len(pairs))]
        count = rng.randint(1, min(3, len(aligned)))
        chosen = _sample(rng, aligned, count, count)
        proj_a = tuple(pa for pa, _ in chosen)
        proj_b = tuple(pb for _, pb in chosen)
        applied: tuple[tuple[str, ...], ...] = ((), ())
        a = b = 0.0
        if math_kind != "projection":
            rel_a, rel_b = db.relation(name_a), db.relation(name_b)
            num_pairs = [
                (pa, pb) for pa, pb in aligned
                if _is_numeric_positive_pair(rel_a, pa, rel_b, pb)
            ]
            need = 2 if math_kind == "bilinear" else 1
            if len(num_pairs) < need:
                raise ScenarioError("union pair lacks numeric columns for math")
            picked = _sample(rng, num_pairs, need, need)
            applied = (tuple(p[0] for p in picked), tuple(p[1] for p in picked))
            max_v = max(
                max(abs(float(v)) for v in rel_a.column_values(picked[0][0])),
                max(abs(float(v)) for v in rel_b.column_values(picked[0][1])),
            )
            a, b = _draw_params(rng, math_kind, max_v)
        return TransformationSpec(
            scenario_id=scenario_id, step=step, algebra="union", math=math_kind,
            sources=(name_a, name_b), projected=(proj_a, proj_b),
            applied=applied, a=a, b=b, filter=None, join_on=None,
            output_name=output_name, output_class=output_class)

    # selection: single source, may chain from an earlier output
    candidates = list(db.tables)
    if db.views and rng.random() < 0.5:
        candidates = list(db.views)
    src_name = candidates[rng.randrange(len(candidates))]
    src = db.relation(src_name)
    safe = _safe_columns(src)
    if not safe or not src.rows:
        raise ScenarioError(f"source {src_name!r} has no safe columns")
    projected = tuple(c.name for c in _sample(rng, safe, 1, min(3, len(safe))))
    applied: tuple[tuple[str, ...], ...] = ((),)
    a = b = 0.0
    if math_kind != "projection":
        numeric = _numeric_positive(src, safe)
        need = 2 if math_kind == "bilinear" else 1
        if len(numeric) < need:
            raise ScenarioError(f"source {src_name!r} lacks numeric columns")
        chosen = _sample(rng, numeric, need, need)
        applied = (tuple(c.name for c in chosen),)
        max_v = max(abs(float(v)) for v in src.column_values(chosen[0].name))
        a, b = _draw_params(rng, math_kind, max_v)

    # filter over an orderable column, pivot drawn from the data
    orderable = [c for c in src.table.columns if c.dtype != "boolean"]
    fcol = orderable[rng.randrange(len(orderable))]
    fidx = src.table.column_index(fcol.name)
    pivot = src.rows[rng.randrange(len(src.rows))][fidx]
    if pivot is None:
        raise ScenarioError("pivot cell is NULL")
    if rng.random() < 0.1 and fcol.name in {c.name for c in safe}:
        op = "="
    else:
        op = "<" if rng.random() < 0.5 else ">"
    filter_spec = FilterSpec(fcol.name, op, pivot)

    return TransformationSpec(
        scenario_id=scenario_id, step=step, algebra="selection", math=math_kind,
        sources=(src_name,), projected=(projected,), applied=applied,
        a=a, b=b, filter=filter_spec, join_on=None,
        output_name=output_name, output_class=output_class)


def _sample(rng: random.Random, pool: list, lo: int, hi: int) -> list:
    count = rng.randint(lo, hi) if hi > lo else lo
    picked = rng.sample(range(len(pool)), count)
    return [pool[i] for i in sorted(picked)]


def _is_numeric_positive_pair(rel_a: Relation, ca: str, rel_b: Relation, cb: str) -> bool:
    col_a = rel_a.table.find_column(ca)
    col_b = rel_b.table.find_column(cb)
    if col_a.dtype not in ("integer", "decimal") or col_b.dtype not in ("integer", "decimal"):
        return False
    va = rel_a.column_values(ca)
    vb = rel_b.column_values(cb)
    return all(float(v) > 0 for v in va) and all(float(v) > 0 for v in vb)


def _union_pairs(db: Database):
    """Base-table pairs with positionally alignable safe varchar/decimal/date columns."""
    names = list(db.tables)
    pairs = []
    for i, name_a in enumerate(names):
        for name_b in names[i + 1:]:
            rel_a, rel_b = db.tables[name_a], db.tables[name_b]
            safe_a = [c for c in _safe_columns(rel_a)
                      if c.dtype in ("varchar", "decimal", "date")]
            safe_b = [c for c in _safe_columns(rel_b)
                      if c.dtype in ("varchar", "decimal", "date")]
            aligned = []
            used_b: set[str] = set()
            for ca in safe_a:
                for cb in safe_b:
                    if cb.name in used_b or cb.dtype != ca.dtype:
                        continue
                    aligned.append((ca.name, cb.name))
                    used_b.add(cb.name)
                    break
            if aligned:
                pairs.append(((name_a, name_b), aligned))
    return pairs


def view_name(task: TransformKind, index: int, step: int) -> str:
    """Name of the view that step ``step`` (1-based) of scenario ``index``
    creates; ``save_suite`` stores the step's tuples under it."""
    return f"{task.algebra[:3]}_{task.family[:4]}_s{index:02d}_t{step}"


def lineage_file(directory, view: str) -> Path:
    return Path(directory) / "lineage" / f"{view}.csv"


def generate_scenario(
    db: Database, task: TransformKind, seed: int, index: int
) -> Scenario:
    """Generate one 4-transformation scenario, re-drawing ambiguous steps."""
    scenario_id = f"{task.name}-s{index:02d}"
    rng = random.Random(f"{seed}:{task.name}:{index}")
    working = db.copy()
    specs: list[TransformationSpec] = []
    lineage: list[tuple[LineageTuple, ...]] = []
    for step in range(1, TRANSFORMATIONS_PER_SCENARIO + 1):
        output_name = view_name(task, index, step)
        output_class = OUTPUT_CLASSES[
            (index * TRANSFORMATIONS_PER_SCENARIO + step - 1) % len(OUTPUT_CLASSES)
        ]
        last_error: Optional[Exception] = None
        for _ in range(_MAX_ATTEMPTS):
            try:
                spec = _propose(rng, working, task, scenario_id, step,
                                output_name, output_class)
                rel, tuples = execute_transformation(working, spec)
            except ScenarioError as exc:
                last_error = exc
                continue
            if not rel.rows or not tuples:
                last_error = ScenarioError("empty transformation output")
                continue
            if not _resolution_unambiguous(working, tuples):
                last_error = ScenarioError("ambiguous value resolution")
                continue
            working.views[output_name] = rel
            specs.append(spec)
            lineage.append(tuple(tuples))
            break
        else:
            raise ScenarioError(
                f"{scenario_id} step {step}: no valid transformation after"
                f" {_MAX_ATTEMPTS} attempts ({last_error})"
            )
    return Scenario(scenario_id, task, tuple(specs), tuple(lineage))


def execute_scenarios(db: Database, scenarios: list[Scenario]) -> Database:
    """Re-execute scenarios on a copy of db; returns the augmented database."""
    working = db.copy()
    for scenario in scenarios:
        for spec in scenario.transformations:
            rel, _ = execute_transformation(working, spec)
            working.views[spec.output_name] = rel
    return working


# -- suite serialization -----------------------------------------------------------

_MANIFEST_HEADER = [
    "scenario_id", "task", "step", "algebra", "math", "a", "b", "sources",
    "projected", "applied", "filter", "join_on", "output_name", "output_class",
]


_LINEAGE_HEADER = list(LineageTuple._fields)


def _pack_cols(groups: tuple[tuple[str, ...], ...]) -> str:
    return ";".join(",".join(g) for g in groups)


def _unpack_cols(text: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(p for p in part.split(",") if p) for part in text.split(";"))


def save_suite(suite: ScenarioSuite, directory) -> None:
    root = Path(directory)
    (root / "lineage").mkdir(parents=True, exist_ok=True)
    with (root / "manifest.tsv").open("w", encoding="utf-8") as fh:
        fh.write("\t".join(_MANIFEST_HEADER) + "\n")
        for task_name in suite.task_names():
            for scenario in suite.scenarios_for(task_name):
                for spec, tuples in zip(scenario.transformations, scenario.lineage):
                    filt = ("-" if spec.filter is None else
                            f"{spec.filter.column}|{spec.filter.op}|{spec.filter.value}")
                    join = "-" if spec.join_on is None else f"{spec.join_on[0]}|{spec.join_on[1]}"
                    fh.write("\t".join([
                        scenario.id, task_name, str(spec.step), spec.algebra,
                        spec.math, repr(spec.a), repr(spec.b),
                        ";".join(spec.sources), _pack_cols(spec.projected),
                        _pack_cols(spec.applied), filt, join,
                        spec.output_name, spec.output_class,
                    ]) + "\n")
                    with lineage_file(root, spec.output_name).open(
                            "w", newline="", encoding="utf-8") as lf:
                        writer = csv.writer(lf)
                        writer.writerow(_LINEAGE_HEADER)
                        writer.writerows(tuples)


def _load_lineage(path: Path) -> tuple[LineageTuple, ...]:
    tuples = []
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _LINEAGE_HEADER:
            raise ScenarioError(f"{path}: line 1: bad lineage header: {header!r}")
        for row in reader:
            if len(row) != len(_LINEAGE_HEADER):
                raise ScenarioError(f"{path}: line {reader.line_num}: {len(row)} fields,"
                                    f" not {len(_LINEAGE_HEADER)}")
            tuples.append(LineageTuple._make(row))
    return tuple(tuples)


def load_suite(directory, db: Optional[Database] = None) -> ScenarioSuite:
    """Read a suite that ``save_suite`` wrote; a manifest line or lineage row
    with the wrong number of fields, or a bad header, raises ``ScenarioError``
    naming the file and line."""
    root = Path(directory)
    rows_by_scenario: dict[str, list] = {}
    task_of: dict[str, str] = {}
    path = root / "manifest.tsv"
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header != _MANIFEST_HEADER:
            raise ScenarioError(f"bad manifest header: {header!r}")
        for number, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(_MANIFEST_HEADER):
                raise ScenarioError(f"{path}: line {number}: {len(parts)} fields,"
                                    f" not {len(_MANIFEST_HEADER)}")
            record = dict(zip(_MANIFEST_HEADER, parts))
            rows_by_scenario.setdefault(record["scenario_id"], []).append(record)
            task_of[record["scenario_id"]] = record["task"]

    suite = ScenarioSuite(db=db)
    for scenario_id, records in rows_by_scenario.items():
        records.sort(key=lambda r: int(r["step"]))
        task = task_by_name(task_of[scenario_id])
        specs = []
        lineage = []
        for r in records:
            filt = None
            if r["filter"] != "-":
                col, op, value = r["filter"].split("|", 2)
                filt = FilterSpec(col, op, value)
            join = None
            if r["join_on"] != "-":
                lcol, rcol = r["join_on"].split("|", 1)
                join = (lcol, rcol)
            specs.append(TransformationSpec(
                scenario_id=scenario_id, step=int(r["step"]), algebra=r["algebra"],
                math=r["math"], sources=tuple(r["sources"].split(";")),
                projected=_unpack_cols(r["projected"]),
                applied=_unpack_cols(r["applied"]),
                a=float(r["a"]), b=float(r["b"]), filter=filt, join_on=join,
                output_name=r["output_name"], output_class=r["output_class"]))
            lineage.append(_load_lineage(lineage_file(root, r["output_name"])))
        suite.scenarios.setdefault(task.name, []).append(
            Scenario(scenario_id, task, tuple(specs), tuple(lineage)))
    # keep canonical task order
    suite.scenarios = {
        t.name: suite.scenarios[t.name] for t in TASKS if t.name in suite.scenarios
    }
    return suite
