"""Database-to-graph population and row-level lineage resolution.

Population walks views first, then tables.  View columns are named bare and
table columns are prefixed with the table name (the published procedure's
asymmetry, kept verbatim), so views with a column of the same name share one
Column node.  Rows and cells are emitted relation by relation, with what every
cell of a relation shares (relation ids, each column's literal kind, the row
IRI prefix) looked up once per relation, and each relation's row and cell
triples go through one checked ``KnowledgeGraph.add_triples`` call.  The
population report counts the rdf:type objects in one pass and names each
class node once.

Population also records, as it emits them, what resolution reads (each
object's columns and rows, each column's literal kind, and the (row, cell)
pairs of each (column, value)): the graph carries that index, so resolution
never reads its triples.  Resolution resolves the objects and columns of each
distinct (t1, c1, t2, c2) once, canonicalises and matches each distinct
(object, column, value) once, and links every (source row, target row) pair
whose rows belong to the objects the tuple names.  Row pairs come out in
first-match order: tuple by tuple, dst rows × src rows, each side in cell
insertion order.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .kgstore import (
    RDF_TYPE,
    KnowledgeGraph,
    Literal,
    UnknownNodeError,
    canonical_lexical,
)
from .ontology import LINEAGE_PROPERTIES, OntologyProfile, ProfileError, vocabulary
from .reldb import DTYPE_KINDS, Database, Relation
from .scenario import LineageTuple, Scenario, execute_scenarios

# DataType subclass by dtype family
_DATATYPE_CLASS = {
    "integer": "NumericType",
    "decimal": "NumericType",
    "boolean": "BooleanType",
    "date": "TemporalType",
    "varchar": "CharacterType",
}


class ConvertError(Exception):
    pass


@dataclass(frozen=True)
class ExecutionRecord:
    """A query execution to record under the rddl profile."""

    name: str
    sources: tuple[str, ...]
    output: str


def sanitize(name: str) -> str:
    return name.replace(" ", "_")


def _iri(ns: str, local: str) -> str:
    return f"{ns}:{local}"


def resolve_type(
    g: KnowledgeGraph, profile: OntologyProfile, dtype: str, length: Optional[int]
) -> int:
    """Return the node of the interned datatype individual for (dtype, length)."""
    if profile.name != "rddl":
        raise ProfileError("datatypes exist only under the rddl profile")
    ns = g.namespace
    local = f"dt_{dtype}" if length is None else f"dt_{dtype}_{length}"
    node = g.add_node(_iri(ns, local))
    rdf_type = g.relation_id(RDF_TYPE)
    g.add_triple(node, rdf_type, g.add_node(_iri(ns, _DATATYPE_CLASS[dtype])))
    g.add_triple(node, g.relation_id("typeName"), Literal(dtype, "string"))
    if length is not None:
        g.add_triple(node, g.relation_id("typeLength"), Literal(str(length), "integer"))
    return node


def _emit_rows(g: KnowledgeGraph, rel: Relation, obj_node: int,
               column_nodes: list[int], rels: dict,
               row_class: int, cell_class: int, index: _GraphIndex) -> list[int]:
    """Emit the relation's rows and their non-NULL cells, and record them in
    ``index``; returns the row nodes."""
    add_node = g.add_node
    rdf_type, has_row, has_cell, belongs, exact = (
        rels[name] for name in
        (RDF_TYPE, "hasRow", "hasCellValue", "belongsToColumn", "exactValue"))
    columns = [(j, DTYPE_KINDS[col.dtype], column_node) for j, (col, column_node)
               in enumerate(zip(rel.table.columns, column_nodes))]
    prefix = _iri(g.namespace, f"{sanitize(rel.name)}_r")
    kinds, cells = index.kinds, index.cells
    row_nodes = []
    triples: list = []
    for i, row in enumerate(rel.rows):
        row_iri = f"{prefix}{i}"
        row_node = add_node(row_iri)
        row_nodes.append(row_node)
        triples += ((row_node, rdf_type, row_class), (obj_node, has_row, row_node))
        for (j, kind, column_node), value in zip(columns, row):
            if value is None:
                continue  # NULL cells have no value individual
            cell_node = add_node(f"{row_iri}_c{j}")
            literal = Literal(value, kind)
            triples += ((cell_node, rdf_type, cell_class), (row_node, has_cell, cell_node),
                        (cell_node, belongs, column_node), (cell_node, exact, literal))
            kinds.setdefault(column_node, kind)
            cells += (column_node, literal, row_node, cell_node)
    g.add_triples(triples)
    if row_nodes:
        index.rows.setdefault(obj_node, set()).update(row_nodes)
    return row_nodes


def populate_kg(
    g: KnowledgeGraph,
    db: Database,
    profile: str,
    executions: Sequence[ExecutionRecord] = (),
    namespace: str = "",
) -> dict[str, int]:
    """Convert a database, rows included, into the graph under ``profile``.

    ``profile`` is "baseline" or "rddl"; IRIs are prefixed with ``namespace``,
    or with the profile name when it is empty.  Returns a population report
    (node/triple counts by class).
    """
    _populate(g, db, profile, executions, namespace)
    return population_report(g)


def _populate(g: KnowledgeGraph, db: Database, profile: str,
              executions: Sequence[ExecutionRecord], namespace: str) -> None:
    """``populate_kg`` without the report."""
    if len(g) != 0:
        raise ConvertError("populate_kg requires an empty graph")
    # two relations of one IRI would share their row and cell nodes
    named: set[str] = set()
    for rel in [*db.views.values(), *db.tables.values()]:
        if sanitize(rel.name) in named:
            raise ConvertError(f"two relations share the IRI {sanitize(rel.name)!r}")
        named.add(sanitize(rel.name))
    onto = vocabulary(profile)
    ns = namespace or profile
    g.namespace = ns
    g.meta["profile"] = profile
    rels = {name: g.add_relation(name) for name in onto.relation_names()}

    class_nodes: dict[str, int] = {}

    def class_node(name: str) -> int:
        if name not in class_nodes:
            onto.get_class(name)  # existence check
            class_nodes[name] = g.add_node(_iri(ns, name))
        return class_nodes[name]

    is_rddl = profile == "rddl"

    def typed_node(local: str, cls: str) -> int:
        node = g.add_node(_iri(ns, local))
        g.add_triple(node, rels[RDF_TYPE], class_node(cls))
        return node

    index = _GraphIndex()
    object_nodes: dict[str, int] = {}
    row_nodes: dict[str, list[int]] = {}
    row_class = class_node("Row")
    cell_class = class_node("CellValue")

    # views first, with bare column names
    for view_name in sorted(db.views):
        view = db.views[view_name]
        cls = view.object_class if is_rddl else "Table"
        v_node = typed_node(sanitize(view_name), cls)
        object_nodes[view_name] = v_node
        column_nodes = []
        for col in view.table.columns:
            c_node = typed_node(sanitize(col.name), "Column")
            g.add_triple(v_node, rels["hasColumn"], c_node)
            index.add_column(g, v_node, c_node)
            column_nodes.append(c_node)
        row_nodes[view_name] = _emit_rows(
            g, view, v_node, column_nodes, rels, row_class, cell_class, index)

    # tables, with prefixed column names and (rddl) schema metadata
    for table_name in sorted(db.tables):
        table = db.tables[table_name]
        t_node = typed_node(sanitize(table_name), "Table")
        object_nodes[table_name] = t_node
        column_nodes = []
        fk_by_column = {fk.column: fk for fk in table.table.foreign_keys}
        for col in table.table.columns:
            c_node = typed_node(f"{sanitize(table_name)}_{sanitize(col.name)}", "Column")
            g.add_triple(t_node, rels["hasColumn"], c_node)
            index.add_column(g, t_node, c_node)
            column_nodes.append(c_node)
            if not is_rddl:
                continue
            g.add_triple(
                c_node, rels["isNullable"],
                Literal("true" if col.nullable else "false", "boolean"),
            )
            dt_node = resolve_type(g, onto, col.dtype, col.length)
            g.add_triple(c_node, rels["hasDatatype"], dt_node)
            if col.is_pk:
                pk_node = typed_node(f"PK_{sanitize(table_name)}", "PrimaryKey")
                g.add_triple(c_node, rels["hasConstraint"], pk_node)
            if col.is_fk and col.name in fk_by_column:
                fk = fk_by_column[col.name]
                fk_node = typed_node(sanitize(fk.name), "ForeignKey")
                g.add_triple(c_node, rels["hasConstraint"], fk_node)
            if not col.nullable and not col.is_pk:
                nn_node = typed_node(
                    f"NN_{sanitize(table_name)}_{sanitize(col.name)}", "NotNullConstraint"
                )
                g.add_triple(c_node, rels["hasConstraint"], nn_node)
        row_nodes[table_name] = _emit_rows(
            g, table, t_node, column_nodes, rels, row_class, cell_class, index)

    if is_rddl:
        for table_name in sorted(db.tables):
            for fk in db.tables[table_name].table.foreign_keys:
                if fk.ref_table not in object_nodes:
                    raise ConvertError(
                        f"FK {fk.name!r} target table {fk.ref_table!r} absent from graph"
                    )
                fk_node = g.node_id(_iri(ns, sanitize(fk.name)))
                g.add_triple(
                    fk_node, rels["referencesTable"], object_nodes[fk.ref_table]
                )

    if is_rddl and executions:
        for record in sorted(executions, key=lambda r: r.name):
            q_node = typed_node(sanitize(record.name), "Query")
            e_node = typed_node(f"{sanitize(record.name)}_exec", "QueryExecution")
            g.add_triple(e_node, rels["executesQuery"], q_node)
            for source in record.sources:
                if source not in object_nodes:
                    raise ConvertError(f"execution source {source!r} absent from graph")
                g.add_triple(e_node, rels["usesTable"], object_nodes[source])
            if record.output not in object_nodes:
                raise ConvertError(f"execution output {record.output!r} absent from graph")
            g.add_triples([(e_node, rels["generatesRow"], row_node)
                           for row_node in row_nodes[record.output]])
    g.meta["index"] = index


def population_report(g: KnowledgeGraph) -> dict[str, int]:
    """Node and triple counts, and per class name (``class.<local name>``) the
    number of rdf:type triples naming a class node of that name, keyed in
    first-use order.  One pass counts the typed objects per node; each class
    node is then named once."""
    report = {"nodes": g.num_nodes, "triples": len(g)}
    if g.has_relation(RDF_TYPE):
        type_rel = g.relation_id(RDF_TYPE)
        typed = Counter(o for (_, r, o) in g.triples()
                        if r == type_rel and not isinstance(o, Literal))
        for node, count in typed.items():
            key = f"class.{g.local_name(node)}"
            report[key] = report.get(key, 0) + count
    return report


# -- Algorithm 2: lineage resolution -------------------------------------------


@dataclass
class LineageResolution:
    row_pairs: list[tuple[int, int]]  # (dst, src), in first-match order
    added: dict[str, int]  # new edges per lineage family
    tuples_matched: int  # tuples whose source and target both matched rows


class _GraphIndex:
    """What resolution reads of a graph, recorded by ``_populate`` as it emits
    the triples, so resolution never reads the triples themselves.

    ``columns`` maps an object to its columns by local name, each with its
    position in the object's hasColumn order; ``rows`` maps an object to its
    rows; ``kinds`` maps a column to the literal kind of its first cell, in
    belongsToColumn order; ``cells`` lists each cell's column, literal, row
    and cell node, four items a cell, in insertion order.  The graph carries
    the index as ``meta["index"]``; resolution adds no triple of these
    relations, so the index stays true of the graph as long as nothing else
    adds one.  The cells stay a flat list, grouped by value only for the
    length of a resolution call, as a graph's serialization would otherwise
    run beside a dict of every cell.
    """

    def __init__(self):
        self.columns: dict[int, dict[str, tuple[int, int]]] = {}
        self.rows: dict[int, set[int]] = {}
        self.kinds: dict[int, str] = {}
        self.cells: list = []

    def add_column(self, g: KnowledgeGraph, obj_node: int, column_node: int) -> None:
        names = self.columns.setdefault(obj_node, {})
        names.setdefault(g.local_name(column_node), (len(names), column_node))

    def column(self, obj_node: int, table: str, column: str) -> Optional[int]:
        """The object's first column, in hasColumn order, named bare or table-prefixed."""
        names = self.columns.get(obj_node, {})
        found = [names[name] for name in
                 (sanitize(column), f"{sanitize(table)}_{sanitize(column)}")
                 if name in names]
        return min(found)[1] if found else None

    def cells_by_value(self) -> dict[tuple[int, Literal], list[tuple[int, int]]]:
        """The (row, cell) pairs of each (column, literal), in insertion order."""
        by_value: dict[tuple[int, Literal], list[tuple[int, int]]] = {}
        items = iter(self.cells)
        for column, literal, row, cell in zip(items, items, items, items):
            pairs = by_value.get((column, literal))
            if pairs is None:
                by_value[(column, literal)] = [(row, cell)]
            else:
                pairs.append((row, cell))
        return by_value


def _match_rows(index: _GraphIndex, cells: dict, matches: dict, obj_node: int,
                col_node: int, value: str) -> list[tuple[int, int]]:
    """Rows (and their cells) of obj whose cell in col has the exact value.

    ``cells`` is ``index.cells_by_value()`` and ``matches`` caches each
    (object, column, value) for the length of one resolution call."""
    key = (obj_node, col_node, value)
    found = matches.get(key)
    if found is not None:
        return found
    found = matches[key] = []
    kind = index.kinds.get(col_node)
    if kind is None:
        return found
    try:
        literal = Literal(canonical_lexical(value, kind), kind)
    except ValueError:
        return found
    # views share Column nodes, so a cell of col may sit in another object's row
    rows = index.rows.get(obj_node, ())
    found += [(r, x) for (r, x) in cells.get((col_node, literal), ()) if r in rows]
    return found


def resolve_lineage_detailed(
    g: KnowledgeGraph,
    tuples: Iterable[LineageTuple],
    materialize: Sequence[str] = LINEAGE_PROPERTIES,
) -> LineageResolution:
    """Match each tuple against the graph and link the satisfying pairs.

    The graph must come from ``populate_kg``: resolution reads the index that
    population built (see ``_GraphIndex``) and matches each distinct (object,
    column, value) once, so a tuple costs O(its matches).  A tuple's rows are
    the named object's rows whose cell in the named column equals the value,
    read as the kind of the column's first valued cell.  ``row_pairs`` lists
    the matched (dst row, src row) pairs in first-match order, deduplicated;
    within a tuple, dst rows × src rows, each side in cell insertion order.
    Only the edge families listed in ``materialize`` are inserted, in that
    same order, and each lineage edge and each object's rddl role type once
    per call; the row pairs are reported regardless, so a caller can withhold
    rowDerivedFrom edges and keep them as ground truth.
    """
    for family in materialize:
        if family not in LINEAGE_PROPERTIES:
            raise ConvertError(f"unknown lineage family: {family!r}")
    rels = {family: g.relation_id(family) for family in LINEAGE_PROPERTIES}
    rdf_type = g.relation_id(RDF_TYPE)
    profile_name = g.meta.get("profile")
    if profile_name is None:
        raise ConvertError("graph records no ontology profile")
    index = g.meta.get("index")
    if index is None:
        raise ConvertError("graph was not built by populate_kg")
    role_nodes: dict[str, int] = {}
    if profile_name == "rddl":
        for role in ("SourceDataCandidate", "TargetDataCandidate"):
            role_nodes[role] = g.add_node(_iri(g.namespace, role))

    def object_node(name: str) -> Optional[int]:
        try:
            return g.node_id(_iri(g.namespace, sanitize(name)))
        except UnknownNodeError:
            return None

    cells = index.cells_by_value()
    matches: dict[tuple[int, int, str], list[tuple[int, int]]] = {}
    added = {family: 0 for family in LINEAGE_PROPERTIES}
    row_pairs: dict[tuple[int, int], None] = {}  # insertion-ordered set
    linked_columns: set[tuple[int, int]] = set()
    linked_values: set[tuple[int, int]] = set()
    linked_tables: set[tuple[int, int]] = set()
    typed: set[tuple[int, str]] = set()  # (object, rddl role)
    tuples_matched = 0

    def link(family: str, pairs: list[tuple[int, int]]) -> None:
        if pairs and family in materialize:
            rel = rels[family]
            added[family] += g.add_triples([(dst, rel, src) for (dst, src) in pairs])

    # (src object, dst object, c1, c2) per distinct (t1, c1, t2, c2); the loop
    # adds triples but no node, column or row, so a key resolves the same each time
    resolved: dict[tuple[str, str, str, str], tuple[int, int, int, int]] = {}
    for t in tuples:
        t1, column1, v1, t2, column2, v2 = t
        key = (t1, column1, t2, column2)
        nodes = resolved.get(key)
        if nodes is None:
            src_obj = object_node(t1)
            dst_obj = object_node(t2)
            if src_obj is None or dst_obj is None:
                raise ConvertError(f"unresolvable table in tuple {t}")
            c1 = index.column(src_obj, t1, column1)
            c2 = index.column(dst_obj, t2, column2)
            if c1 is None or c2 is None:
                raise ConvertError(f"unresolvable column in tuple {t}")
            nodes = resolved[key] = (src_obj, dst_obj, c1, c2)
        src_obj, dst_obj, c1, c2 = nodes
        src_matches = _match_rows(index, cells, matches, src_obj, c1, v1)
        dst_matches = _match_rows(index, cells, matches, dst_obj, c2, v2)
        if not src_matches or not dst_matches:
            continue
        tuples_matched += 1
        # a pair met before was linked then: another copy would be a no-op
        new_pairs = [(dr, sr) for (dr, _) in dst_matches for (sr, _) in src_matches
                     if (dr, sr) not in row_pairs]
        row_pairs.update(dict.fromkeys(new_pairs))
        link("rowDerivedFrom", new_pairs)
        # later copies of a column or table edge would be no-ops
        if (c2, c1) not in linked_columns:
            linked_columns.add((c2, c1))
            link("columnDerivedFrom", [(c2, c1)])
        new_cells = [(dx, sx) for (_, dx) in dst_matches for (_, sx) in src_matches
                     if (dx, sx) not in linked_values]
        linked_values.update(new_cells)
        link("valueDerivedFrom", new_cells)
        if (dst_obj, src_obj) not in linked_tables:
            linked_tables.add((dst_obj, src_obj))
            link("tableDerivedFrom", [(dst_obj, src_obj)])
            if "tableDerivedFrom" in materialize and role_nodes:
                for role in ((dst_obj, "SourceDataCandidate"),
                             (src_obj, "TargetDataCandidate")):
                    if role not in typed:
                        typed.add(role)
                        g.add_triple(role[0], rdf_type, role_nodes[role[1]])
    return LineageResolution(list(row_pairs), added, tuples_matched)


# -- inductive train/test split ---------------------------------------------------


@dataclass
class SplitResult:
    train: KnowledgeGraph
    test: KnowledgeGraph
    ground_truth: list[tuple[int, int]]  # (dst row, src row) node ids in test graph
    train_report: dict[str, int]
    test_report: dict[str, int]
    resolve_counts: dict[str, int]  # lineage edges added to train, per family
    train_tuples_matched: int  # tuples whose source and target both matched rows
    test_tuples_matched: int


def _executions_for(scenarios: Sequence[Scenario]) -> list[ExecutionRecord]:
    return [ExecutionRecord(f"{spec.output_name}_q", spec.sources, spec.output_name)
            for scenario in scenarios for spec in scenario.transformations]


def split_train_test(suite, task_name: str, profile: str,
                     n_train: int) -> SplitResult:
    """Build node-disjoint, lineage-resolved train/test graphs for one task.

    Each graph is populated with its scenarios' query executions and then
    resolved from those scenarios' tuples.  The train graph gets all four
    lineage families; ``train_report`` counts it before resolution and
    ``resolve_counts`` the edges resolution added.  The test graph gets the
    column, value and table families, and its rowDerivedFrom pairs, the
    prediction target, are returned as ground truth instead of being inserted.
    ``train_tuples_matched`` and ``test_tuples_matched`` count each graph's
    tuples whose source and target both matched rows.
    """
    if suite.db is None:
        raise ConvertError("suite carries no database")
    scenarios = suite.scenarios_for(task_name)
    if not 0 < n_train < len(scenarios):
        raise ConvertError(f"bad train split: {n_train} of {len(scenarios)}")

    # the train graph is reported before resolution, the test graph after
    def build(group: Sequence[Scenario], suffix: str, materialize: Sequence[str],
              populate):
        db = execute_scenarios(suite.db, list(group))
        g = KnowledgeGraph()
        report = populate(g, db, profile, _executions_for(group), f"{profile}.{suffix}")
        tuples = [t for scenario in group for t in scenario.all_tuples()]
        return g, report, resolve_lineage_detailed(g, tuples, materialize)

    train_g, train_report, train_resolution = build(
        scenarios[:n_train], "train", LINEAGE_PROPERTIES, populate_kg)
    test_g, _, test_resolution = build(
        scenarios[n_train:], "test",
        tuple(f for f in LINEAGE_PROPERTIES if f != "rowDerivedFrom"), _populate)
    return SplitResult(
        train=train_g,
        test=test_g,
        ground_truth=list(test_resolution.row_pairs),
        train_report=train_report,
        test_report=population_report(test_g),
        resolve_counts=train_resolution.added,
        train_tuples_matched=train_resolution.tuples_matched,
        test_tuples_matched=test_resolution.tuples_matched,
    )


# -- artifact I/O ------------------------------------------------------------------


def write_ground_truth(path, split: SplitResult) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for dst, src in split.ground_truth:
            writer.writerow([split.test.node_iri(src), split.test.node_iri(dst)])


def read_ground_truth(path, g: KnowledgeGraph) -> list[tuple[int, int]]:
    pairs = []
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["src", "dst"]:
            raise ConvertError(f"bad ground truth header: {header!r}")
        for row in reader:
            if len(row) != 2:
                raise ConvertError(f"{path}: line {reader.line_num}: {len(row)} fields, not 2")
            pairs.append((g.node_id(row[1]), g.node_id(row[0])))
    return pairs


def write_report(path, report: dict[str, int]) -> None:
    lines = [f"{key}={report[key]}" for key in sorted(report)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
