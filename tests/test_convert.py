import random
import re
from pathlib import Path

import pytest

from lineagekg import convert
from lineagekg.convert import (
    ConvertError,
    ExecutionRecord,
    population_report,
    populate_kg,
    read_ground_truth,
    resolve_lineage_detailed,
    resolve_type,
    sanitize,
    split_train_test,
    write_ground_truth,
)
from lineagekg.kgstore import (
    LITERAL_KINDS,
    RDF_TYPE,
    KnowledgeGraph,
    Literal,
    canonical_lexical,
    parse_ntriples,
    serialize_ntriples,
)
from lineagekg.ontology import LINEAGE_PROPERTIES, ProfileError, validate_graph, vocabulary
from lineagekg.reldb import ColumnDef, Database, Relation, TableDef, northwind_fixture
from lineagekg.scenario import LineageTuple, ScenarioSuite, generate_scenario, task_by_name

DATA = Path(__file__).parent / "data"


def toy_db():
    widgets = TableDef("Widgets", (
        ColumnDef("id", "integer", is_pk=True),
        ColumnDef("name", "varchar", length=10, nullable=True),
    ))
    return Database(tables={"Widgets": Relation(widgets, [])})


def two_table_db(src_rows, dst_rows):
    src = TableDef("Src", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("v", "varchar", length=20, nullable=True)))
    dst = TableDef("Dst", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("w", "varchar", length=20, nullable=True)))
    return Database(tables={
        "Src": Relation(src, src_rows),
        "Dst": Relation(dst, dst_rows),
    })


def views_sharing_column_db():
    """Table Src(k, v) and views V1(x), V2(x), all holding the value "a"."""
    src = TableDef("Src", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("v", "varchar", length=20, nullable=True)))
    views = {name: Relation(TableDef(name, (ColumnDef("x", "varchar", length=20),)),
                            [("a",)], "View")
             for name in ("V1", "V2")}
    return Database(tables={"Src": Relation(src, [("1", "a")])}, views=views)


def brute_force_row_edges(db, tuples, namespace):
    """Oracle: join raw database cell values directly, no graph involved."""
    edges = set()
    for t in tuples:
        src = db.relation(t.t1)
        dst = db.relation(t.t2)
        s_idx = src.table.column_index(t.c1)
        d_idx = dst.table.column_index(t.c2)
        src_rows = [i for i, row in enumerate(src.rows)
                    if row[s_idx] is not None and row[s_idx] == t.v1]
        dst_rows = [i for i, row in enumerate(dst.rows)
                    if row[d_idx] is not None and row[d_idx] == t.v2]
        for d in dst_rows:
            for s in src_rows:
                edges.add((
                    f"{namespace}:{sanitize(t.t2)}_r{d}",
                    f"{namespace}:{sanitize(t.t1)}_r{s}",
                ))
    return edges


def resolve_lineage(g, tuples):
    """Insert all four lineage families; returns new rowDerivedFrom edges."""
    return resolve_lineage_detailed(g, tuples).added["rowDerivedFrom"]


def graph_row_edges(g):
    rel = g.relation_id("rowDerivedFrom")
    return {
        (g.node_iri(s), g.node_iri(o))
        for (s, _, o) in g.lookup(r=rel)
    }


def scan_resolve(g, tuples, materialize=LINEAGE_PROPERTIES):
    """Oracle: resolution as a per-tuple scan of the live graph.

    Each tuple walks its objects' hasColumn triples for the column, then filters
    every cell holding an equal literal; the resolver indexes the graph once
    instead and must agree on row pairs (order included), counts and triples.
    """
    rels = {name: g.relation_id(name)
            for name in ("hasColumn", "hasRow", "hasCellValue", "belongsToColumn",
                         "exactValue") + LINEAGE_PROPERTIES}
    rdf_type = g.relation_id("rdf:type")
    locals_index = {g.local_name(node): node for node in range(g.num_nodes)}
    role_nodes = {}
    if g.meta["profile"] == "rddl":
        for role in ("SourceDataCandidate", "TargetDataCandidate"):
            node = locals_index.get(role)
            role_nodes[role] = g.add_node(f"{g.namespace}:{role}") if node is None else node

    def find_column(obj, table, column):
        wanted = {sanitize(column), f"{sanitize(table)}_{sanitize(column)}"}
        for (_, _, candidate) in g.lookup(s=obj, r=rels["hasColumn"]):
            if g.local_name(candidate) in wanted:
                return candidate
        return None

    def match_rows(obj, col, value):
        if not any(g.lookup(obj, rels["hasColumn"], col)):
            return []
        kind = None
        for (cell, _, _) in g.lookup(r=rels["belongsToColumn"], o=col):
            for (_, _, lit) in g.lookup(s=cell, r=rels["exactValue"]):
                if isinstance(lit, Literal):
                    kind = lit.kind
                    break
            if kind:
                break
        if kind is None:
            return []
        try:
            literal = Literal(canonical_lexical(value, kind), kind)
        except ValueError:
            return []
        return [(r, x) for (x, _, _) in g.lookup(r=rels["exactValue"], o=literal)
                if any(g.lookup(x, rels["belongsToColumn"], col))
                for (r, _, _) in g.lookup(r=rels["hasCellValue"], o=x)
                if any(g.lookup(obj, rels["hasRow"], r))]

    added = {family: 0 for family in LINEAGE_PROPERTIES}
    row_pairs = {}

    def link(family, pairs):
        if family in materialize:
            for (dst, src) in pairs:
                added[family] += g.add_triple(dst, rels[family], src)

    for t in tuples:
        src_obj = locals_index[sanitize(t.t1)]
        dst_obj = locals_index[sanitize(t.t2)]
        c1 = find_column(src_obj, t.t1, t.c1)
        c2 = find_column(dst_obj, t.t2, t.c2)
        src_matches = match_rows(src_obj, c1, t.v1)
        dst_matches = match_rows(dst_obj, c2, t.v2)
        if not src_matches or not dst_matches:
            continue
        pairs = [(dr, sr) for (dr, _) in dst_matches for (sr, _) in src_matches]
        row_pairs.update(dict.fromkeys(pairs))
        link("rowDerivedFrom", pairs)
        link("columnDerivedFrom", [(c2, c1)])
        link("valueDerivedFrom",
             [(dx, sx) for (_, dx) in dst_matches for (_, sx) in src_matches])
        link("tableDerivedFrom", [(dst_obj, src_obj)])
        if "tableDerivedFrom" in materialize and role_nodes:
            g.add_triple(dst_obj, rdf_type, role_nodes["SourceDataCandidate"])
            g.add_triple(src_obj, rdf_type, role_nodes["TargetDataCandidate"])
    return list(row_pairs), added


# lexicals per dtype: canonical and non-canonical forms of equal values, and
# forms that do not parse as the column's kind
LEXICALS = {
    "integer": ["1", "007", "7", "0", "-0", "12", "abc"],
    "decimal": ["1.5", "1.50", "2", "2.0", "0.1", "abc"],
    "boolean": ["true", "TRUE", "1", "false", "0", "False", "maybe"],
    "varchar": ["a", "b", "007", "1", "TRUE"],
}


def random_lineage_db(rng):
    """Tables Src and Dst and views V1, V2, W of random dtypes and lexicals.

    Every column may hold NULLs and ``n`` holds only NULLs.  The views share
    the bare ``x`` Column node, possibly with different dtypes, and W has both a
    bare ``x`` and a ``W_x`` column, in random order, so the tuple column ``x``
    names two of W's columns.
    """
    def relation(name, column_names, object_class, keyed):
        columns = [ColumnDef("k", "integer", is_pk=True)] if keyed else []
        for c in column_names:
            dtype = rng.choice(sorted(LEXICALS))
            columns.append(ColumnDef(c, dtype, length=10 if dtype == "varchar" else None,
                                     nullable=True))
        columns.append(ColumnDef("n", "integer", nullable=True))
        rows = []
        for i in range(rng.randrange(1, 7)):
            row = [str(i)] if keyed else []
            row += [None if rng.random() < 0.2 else rng.choice(LEXICALS[c.dtype])
                    for c in columns[len(row):-1]]
            rows.append(tuple(row) + (None,))
        return Relation(TableDef(name, tuple(columns)), rows, object_class)

    w_columns = ["x", "W_x"]
    rng.shuffle(w_columns)
    return Database(
        tables={name: relation(name, ["u", "v"], "Table", True) for name in ("Src", "Dst")},
        views={"V1": relation("V1", ["x", "y"], "View", False),
               "V2": relation("V2", ["x"], "MaterializedView", False),
               "W": relation("W", w_columns, "View", False)},
    )


def random_tuples(rng, db, count):
    def side():
        rel = db.relation(rng.choice(sorted(db.relation_names())))
        col = rng.choice(rel.table.columns)
        values = [v for dtype in LEXICALS for v in LEXICALS[dtype]]
        return rel.name, col.name, rng.choice(values)
    return [LineageTuple(*side(), *side()) for _ in range(count)]


class TestResolveType:
    def test_interned(self):
        g = KnowledgeGraph(namespace="rddl")
        g.add_relation("rdf:type")
        for name in sorted(vocabulary("rddl").property_names()):
            g.add_relation(name)
        profile = vocabulary("rddl")
        a = resolve_type(g, profile, "varchar", 40)
        b = resolve_type(g, profile, "varchar", 40)
        assert a == b

    def test_distinct_lengths(self):
        g = KnowledgeGraph(namespace="rddl")
        g.add_relation("rdf:type")
        for name in sorted(vocabulary("rddl").property_names()):
            g.add_relation(name)
        profile = vocabulary("rddl")
        assert resolve_type(g, profile, "varchar", 40) != \
            resolve_type(g, profile, "varchar", 20)

    def test_integer_is_numeric(self):
        g = KnowledgeGraph(namespace="rddl")
        g.add_relation("rdf:type")
        for name in sorted(vocabulary("rddl").property_names()):
            g.add_relation(name)
        node = resolve_type(g, vocabulary("rddl"), "integer", None)
        type_rel = g.relation_id("rdf:type")
        types = {g.node_iri(o) for (_, _, o) in g.lookup(s=node, r=type_rel)}
        assert "rddl:NumericType" in types

    def test_baseline_rejected(self):
        g = KnowledgeGraph(namespace="baseline")
        with pytest.raises(ProfileError):
            resolve_type(g, vocabulary("baseline"), "integer", None)


class TestPopulateGolden:
    def test_toy_schema_matches_hand_enumerated_golden(self):
        golden = (DATA / "toy_golden.nt").read_text(encoding="utf-8")
        outputs = set()
        for _ in range(3):
            g = KnowledgeGraph()
            populate_kg(g, toy_db(), "rddl")
            outputs.add(serialize_ntriples(g))
        assert outputs == {golden}  # byte-identical across runs, equal to golden

    def test_toy_schema_baseline_structure_only(self):
        g = KnowledgeGraph()
        populate_kg(g, toy_db(), "baseline")
        names = {g.relation_name(r) for (_, r, _) in g.triples()}
        assert names == {"rdf:type", "hasColumn"}
        text = serialize_ntriples(g)
        assert "PrimaryKey" not in text
        assert "isNullable" not in text
        assert "hasDatatype" not in text

    def test_empty_database(self):
        g = KnowledgeGraph()
        report = populate_kg(g, Database(tables={}), "rddl")
        assert len(g) == 0
        assert report["triples"] == 0

    def test_requires_empty_graph(self):
        g = KnowledgeGraph()
        populate_kg(g, toy_db(), "rddl")
        with pytest.raises(ConvertError):
            populate_kg(g, toy_db(), "rddl")


@pytest.fixture(scope="module")
def fixture_graph():
    db = northwind_fixture(rows_per_table=6, seed=2)
    g = KnowledgeGraph()
    report = populate_kg(g, db, "rddl")
    return db, g, report


class TestPopulateData:
    def test_has_row_count(self, fixture_graph):
        db, g, _ = fixture_graph
        total_rows = sum(len(rel.rows) for rel in db.tables.values())
        has_row = g.relation_id("hasRow")
        assert sum(1 for _ in g.lookup(r=has_row)) == total_rows

    def test_has_cell_value_count_excludes_nulls(self, fixture_graph):
        db, g, _ = fixture_graph
        non_null = sum(
            sum(1 for row in rel.rows for v in row if v is not None)
            for rel in db.tables.values()
        )
        hcv = g.relation_id("hasCellValue")
        assert sum(1 for _ in g.lookup(r=hcv)) == non_null

    def test_fk_has_exactly_one_references_table(self, fixture_graph):
        _, g, _ = fixture_graph
        type_rel = g.relation_id("rdf:type")
        ref_rel = g.relation_id("referencesTable")
        fk_class = g.node_id("rddl:ForeignKey")
        for (fk_node, _, _) in g.lookup(r=type_rel, o=fk_class):
            targets = list(g.lookup(s=fk_node, r=ref_rel))
            assert len(targets) == 1

    def test_validates_under_profile(self, fixture_graph):
        _, g, _ = fixture_graph
        assert validate_graph(vocabulary("rddl"), g) == []

    def test_baseline_has_zero_constraint_individuals(self):
        db = northwind_fixture(rows_per_table=4, seed=2)
        g = KnowledgeGraph()
        populate_kg(g, db, "baseline")
        assert "Constraint" not in serialize_ntriples(g)
        assert validate_graph(vocabulary("baseline"), g) == []

    def test_deterministic_output(self):
        db = northwind_fixture(rows_per_table=4, seed=7)
        texts = set()
        for _ in range(3):
            g = KnowledgeGraph()
            populate_kg(g, db, "rddl")
            texts.add(serialize_ntriples(g))
        assert len(texts) == 1

    def test_executions_emitted_under_rddl_only(self):
        db = northwind_fixture(rows_per_table=4, seed=2)
        db2 = db.copy()
        out = TableDef("Out1", (ColumnDef("a", "varchar", length=40),))
        db2.views["Out1"] = Relation(
            out, [(f"Company-{i:04d}",) for i in range(3)], "View")
        record = ExecutionRecord("Out1_q", ("Customers",), "Out1")
        for profile, expected in (("rddl", True), ("baseline", False)):
            g = KnowledgeGraph()
            populate_kg(g, db2, profile, executions=[record])
            text = serialize_ntriples(g)
            assert ("QueryExecution" in text) is expected
            if expected:
                uses = g.relation_id("usesTable")
                gen = g.relation_id("generatesRow")
                assert sum(1 for _ in g.lookup(r=uses)) == 1
                assert sum(1 for _ in g.lookup(r=gen)) == 3


class TestResolveLineage:
    def build(self, db, profile="rddl"):
        g = KnowledgeGraph()
        populate_kg(g, db, profile)
        return g

    def test_unique_value_single_edge(self):
        db = two_table_db([("1", "42x")], [("1", "42x")])
        g = self.build(db)
        added = resolve_lineage(g, [LineageTuple("Src", "v", "42x", "Dst", "w", "42x")])
        assert added == 1
        assert graph_row_edges(g) == {("rddl:Dst_r0", "rddl:Src_r0")}

    def test_ambiguous_full_cartesian(self):
        db = two_table_db(
            [("1", "dup"), ("2", "dup")],
            [("1", "dup"), ("2", "dup")],
        )
        g = self.build(db)
        added = resolve_lineage(g, [LineageTuple("Src", "v", "dup", "Dst", "w", "dup")])
        assert added == 4

    def test_value_in_other_table_excluded(self):
        # v1 appears only in Dst.w; the (t1 hasColumn c1) conjunct excludes it
        db = two_table_db([("1", "other")], [("1", "lonely")])
        g = self.build(db)
        added = resolve_lineage(g, [LineageTuple("Src", "v", "lonely", "Dst", "w", "lonely")])
        assert added == 0

    def test_unresolvable_column_errors(self):
        db = two_table_db([("1", "a")], [("1", "a")])
        g = self.build(db)
        with pytest.raises(ConvertError, match="unresolvable"):
            resolve_lineage(g, [LineageTuple("Src", "nope", "a", "Dst", "w", "a")])

    def test_other_families_materialized(self):
        db = two_table_db([("1", "42x")], [("1", "42x")])
        g = self.build(db)
        resolve_lineage(g, [LineageTuple("Src", "v", "42x", "Dst", "w", "42x")])
        for family in ("columnDerivedFrom", "valueDerivedFrom", "tableDerivedFrom"):
            rel = g.relation_id(family)
            assert sum(1 for _ in g.lookup(r=rel)) == 1
        # role classes asserted on the tableDerivedFrom endpoints
        type_rel = g.relation_id("rdf:type")
        src_types = {g.node_iri(o) for (_, _, o)
                     in g.lookup(s=g.node_id("rddl:Dst"), r=type_rel)}
        assert "rddl:SourceDataCandidate" in src_types

    def test_withholding_reports_without_inserting(self):
        db = two_table_db([("1", "42x")], [("1", "42x")])
        g = self.build(db)
        result = resolve_lineage_detailed(
            g, [LineageTuple("Src", "v", "42x", "Dst", "w", "42x")],
            materialize=("columnDerivedFrom", "valueDerivedFrom", "tableDerivedFrom"),
        )
        assert len(result.row_pairs) == 1
        assert graph_row_edges(g) == set()

    def test_graph_without_profile_rejected(self):
        db = two_table_db([("1", "42x")], [("1", "42x")])
        g = self.build(db, profile="baseline")
        parsed = parse_ntriples(serialize_ntriples(g), relations=tuple(g.relation_names()))
        with pytest.raises(ConvertError, match="profile"):
            resolve_lineage_detailed(
                parsed, [LineageTuple("Src", "v", "42x", "Dst", "w", "42x")])
        assert validate_graph(vocabulary("baseline"), parsed) == []

    def test_matches_brute_force_on_random_dbs(self):
        rng = random.Random(99)
        cases = []
        for trial in range(8):
            values = [f"v{rng.randrange(6)}" for _ in range(12)]
            src_rows = [(str(i + 1), rng.choice(values)) for i in range(8)]
            dst_rows = [(str(i + 1), rng.choice(values)) for i in range(8)]
            tuples = [
                LineageTuple("Src", "v", rng.choice(values),
                             "Dst", "w", rng.choice(values))
                for _ in range(5)
            ]
            cases.append((two_table_db(src_rows, dst_rows), tuples))
        # views share bare column nodes: V2's row must not match a V1 tuple
        cases.append((views_sharing_column_db(),
                      [LineageTuple("Src", "v", "a", "V1", "x", "a")]))
        for db, tuples in cases:
            g = self.build(db)
            resolve_lineage(g, tuples)
            assert graph_row_edges(g) == brute_force_row_edges(db, tuples, "rddl")


    def test_indexed_resolution_matches_graph_scan(self):
        rng = random.Random(10)
        families = (LINEAGE_PROPERTIES,
                    tuple(f for f in LINEAGE_PROPERTIES if f != "rowDerivedFrom"))
        matched = 0
        for trial in range(60):
            db = random_lineage_db(rng)
            tuples = random_tuples(rng, db, rng.randrange(1, 25))
            profile = rng.choice(["baseline", "rddl"])
            materialize = families[trial % 2]
            indexed, scanned = self.build(db, profile), self.build(db, profile)
            result = resolve_lineage_detailed(indexed, tuples, materialize)
            row_pairs, added = scan_resolve(scanned, tuples, materialize)
            assert result.row_pairs == row_pairs
            assert result.added == added
            assert list(indexed.triples()) == list(scanned.triples())
            assert serialize_ntriples(indexed) == serialize_ntriples(scanned)
            matched += result.tuples_matched
        assert matched > 0

    @pytest.mark.parametrize("order", [("W_x", "x"), ("x", "W_x")])
    def test_first_candidate_column_wins(self, order):
        # tuple column "x" names both W.x (bare) and W.W_x (prefixed)
        values = {"W_x": "a", "x": "b"}
        view = Relation(TableDef("W", tuple(ColumnDef(c, "varchar", length=10) for c in order)),
                        [tuple(values[c] for c in order)], "View")
        db = two_table_db([("1", "a")], [])
        db.views["W"] = view
        result = resolve_lineage_detailed(
            self.build(db), [LineageTuple("Src", "v", "a", "W", "x", "a")])
        assert len(result.row_pairs) == (order[0] == "W_x")
        assert result.tuples_matched == (order[0] == "W_x")

    def test_all_null_column_matches_nothing(self):
        db = two_table_db([("1", None)], [("1", None)])
        result = resolve_lineage_detailed(
            self.build(db), [LineageTuple("Src", "v", "", "Dst", "w", ""),
                             LineageTuple("Src", "k", "01", "Dst", "k", "1")])
        assert result.row_pairs and result.tuples_matched == 1

@pytest.fixture(scope="module")
def suite():
    db = northwind_fixture(rows_per_table=8, seed=3)
    suite = ScenarioSuite(db=db)
    name = "selection-projection"
    suite.scenarios[name] = [
        generate_scenario(db, task_by_name(name), 3, i) for i in range(5)
    ]
    return suite


@pytest.fixture(scope="module")
def split(suite):
    return split_train_test(suite, "selection-projection", "rddl", 3)


class TestSplit:
    def test_node_iris_disjoint(self, split):
        def iris(g):
            return {g.node_iri(node) for node in range(g.num_nodes)}
        assert iris(split.train) & iris(split.test) == set()

    def test_test_graph_has_no_row_lineage_but_ground_truth(self, suite, split):
        rel = split.test.relation_id("rowDerivedFrom")
        assert sum(1 for _ in split.test.lookup(r=rel)) == 0
        assert len(split.ground_truth) >= 1
        # at least one ground-truth pair per transformation
        scenarios = suite.scenarios_for("selection-projection")[3:]
        outputs = {t.output_name for s in scenarios for t in s.transformations}
        covered = set()
        for (dst, _) in split.ground_truth:
            local = split.test.node_iri(dst).split(":", 1)[1]
            covered.add(local.rsplit("_r", 1)[0])
        assert {sanitize(o) for o in outputs} <= covered

    def test_relation_registries_equal(self, split):
        assert split.train.relation_names() == split.test.relation_names()

    def test_train_contains_all_lineage_families(self, split):
        for family in ("rowDerivedFrom", "columnDerivedFrom",
                       "valueDerivedFrom", "tableDerivedFrom"):
            rel = split.train.relation_id(family)
            assert sum(1 for _ in split.train.lookup(r=rel)) >= 1

    def test_test_graph_has_evidence_families(self, split):
        for family in ("columnDerivedFrom", "valueDerivedFrom", "tableDerivedFrom"):
            rel = split.test.relation_id(family)
            assert sum(1 for _ in split.test.lookup(r=rel)) >= 1

    def test_train_graph_resolved_once(self, suite, split):
        tuples = [t for s in suite.scenarios_for("selection-projection")[:3]
                  for t in s.all_tuples()]
        for family in LINEAGE_PROPERTIES:
            rel = split.train.relation_id(family)
            edges = sum(1 for _ in split.train.lookup(r=rel))
            assert edges == split.resolve_counts[family] >= 1
        again = split_train_test(suite, "selection-projection", "rddl", 3)
        before = len(again.train)
        assert resolve_lineage_detailed(again.train, tuples).added == {
            family: 0 for family in LINEAGE_PROPERTIES}
        assert len(again.train) == before

    def test_each_graph_reported_once(self, suite, split, monkeypatch):
        reported = []

        def counting(g):
            reported.append(g)
            return population_report(g)

        monkeypatch.setattr(convert, "population_report", counting)
        again = split_train_test(suite, "selection-projection", "rddl", 3)
        assert [id(g) for g in reported] == [id(again.train), id(again.test)]
        assert (again.train_report, again.test_report) == (
            split.train_report, population_report(split.test))

    @pytest.mark.parametrize("n_train", [0, 5])
    def test_bad_split_rejected(self, suite, n_train):
        with pytest.raises(ConvertError, match="bad train split"):
            split_train_test(suite, "selection-projection", "rddl", n_train)

    def test_ground_truth_csv_round_trip(self, split, tmp_path):
        path = tmp_path / "gt.csv"
        write_ground_truth(path, split)
        loaded = read_ground_truth(path, split.test)
        assert loaded == split.ground_truth

    @pytest.mark.parametrize("damage", [
        lambda fields: fields[:1],  # a short row
        lambda fields: fields + ["x"],  # a long row
    ], ids=["short", "long"])
    def test_malformed_ground_truth_row_names_file_and_line(self, split, tmp_path, damage):
        path = tmp_path / "gt.csv"
        write_ground_truth(path, split)
        lines = path.read_text().splitlines()
        lines[2] = ",".join(damage(lines[2].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConvertError, match=rf"^{re.escape(str(path))}: line 3: "):
            read_ground_truth(path, split.test)

    def test_validates_under_profile(self, suite):
        for profile in ("baseline", "rddl"):
            split = split_train_test(suite, "selection-projection", profile, 3)
            assert validate_graph(vocabulary(profile), split.train) == []
            assert validate_graph(vocabulary(profile), split.test) == []


# -- oracles for the one-pass report and the list-reading serializer -------------


def lookup_population_report(g):
    """Oracle: population_report as a lookup of the rdf:type triples that names
    each triple's class node on its own."""
    report = {"nodes": g.num_nodes, "triples": len(g)}
    if g.has_relation(RDF_TYPE):
        for (_, _, o) in g.lookup(r=g.relation_id(RDF_TYPE)):
            if not isinstance(o, Literal):
                key = f"class.{g.local_name(o)}"
                report[key] = report.get(key, 0) + 1
    return report


def node_iri_ntriples(g):
    """Oracle: serialize_ntriples with every id looked up through node_iri and
    relation_name, and the N-Triples escapes applied one by one."""
    def term(o):
        if not isinstance(o, Literal):
            return f"<{g.node_iri(o)}>"
        body = o.lexical
        for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"),
                             ("\r", "\\r"), ("\t", "\\t")):
            body = body.replace(raw, escaped)
        return f'"{body}"' + ("" if o.kind == "string" else f"^^<xsd:{o.kind}>")
    lines = sorted(f"<{g.node_iri(s)}> <{g.relation_name(r)}> {term(o)} ."
                   for (s, r, o) in g.triples())
    return "".join(line + "\n" for line in lines)


# string cells that N-Triples escapes: each escaped character alone and together
ESCAPED_STRINGS = ['say "hi"', "back\\slash", "new\nline", "carriage\rreturn",
                   "tab\there", '\\"\n\r\t', ""]


def oracle_graphs():
    """Converted graphs of both profiles, frozen or not, holding every literal
    kind, NULL cells and escaped strings; then a graph with two class nodes of
    one local name and a literal rdf:type object, and an empty graph."""
    rng = random.Random(23)
    escapes = Relation(TableDef("Esc", (
        ColumnDef("k", "integer", is_pk=True),
        ColumnDef("s", "varchar", length=20, nullable=True),
        ColumnDef("d", "date", nullable=True),
        ColumnDef("b", "boolean"),
    )), [(str(i), text, None if i % 3 else f"2024-01-{i + 1:02d}", str(i % 2 == 1).lower())
         for i, text in enumerate(ESCAPED_STRINGS + [None])])
    for trial in range(8):
        db = random_lineage_db(rng)
        db.tables["Esc"] = escapes
        g = KnowledgeGraph()
        populate_kg(g, db, ("baseline", "rddl")[trial % 2])
        resolve_lineage_detailed(g, random_tuples(rng, db, 12)
                                 + [LineageTuple("Esc", "s", text, "Esc", "s", text)
                                    for text in ESCAPED_STRINGS])
        yield g.freeze() if trial % 4 >= 2 else g
    for profile in ("baseline", "rddl"):
        db = northwind_fixture(rows_per_table=5, seed=4)
        suite = ScenarioSuite(db=db)
        suite.scenarios["join-nonlinear"] = [
            generate_scenario(db, task_by_name("join-nonlinear"), 4, i) for i in range(3)]
        split = split_train_test(suite, "join-nonlinear", profile, 2)
        yield split.train
        yield split.test.freeze()
    g = KnowledgeGraph()
    rdf_type, label = g.add_relation(RDF_TYPE), g.add_relation("label")
    a, b, x, y = (g.add_node(iri) for iri in ("one:C", "two:C", "one:x", "D"))
    for triple in ((x, rdf_type, a), (y, rdf_type, y), (y, rdf_type, b), (x, rdf_type, b),
                   (x, rdf_type, Literal("C")), (x, label, a)):
        g.add_triple(*triple)
    yield g
    yield KnowledgeGraph()


class TestOracles:
    def test_report_and_serialization_match_oracles(self):
        kinds, frozen, texts = set(), 0, []
        for g in oracle_graphs():
            report = population_report(g)
            assert list(report.items()) == list(lookup_population_report(g).items())
            text = serialize_ntriples(g)
            assert text == node_iri_ntriples(g)
            kinds |= {o.kind for (_, _, o) in g.triples() if isinstance(o, Literal)}
            frozen += g._frozen
            texts.append(text)
        assert kinds == set(LITERAL_KINDS)
        assert frozen >= 4
        assert all(escape in "".join(texts) for escape in ('\\"', "\\\\", "\\n", "\\r", "\\t"))
        assert population_report(g) == {"nodes": 0, "triples": 0}
