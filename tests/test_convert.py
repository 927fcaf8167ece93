import random
from pathlib import Path

import pytest

from lineagekg.convert import (
    ConvertError,
    ExecutionRecord,
    populate_kg,
    read_ground_truth,
    resolve_lineage,
    resolve_lineage_detailed,
    resolve_type,
    sanitize,
    split_train_test,
    write_ground_truth,
)
from lineagekg.kgstore import KnowledgeGraph, Literal, parse_ntriples, serialize_ntriples
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


def graph_row_edges(g):
    rel = g.relation_id("rowDerivedFrom")
    return {
        (g.node_iri(s), g.node_iri(o))
        for (s, _, o) in g.lookup(r=rel)
    }


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
        assert set(split.train.iris()) & set(split.test.iris()) == set()

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

    @pytest.mark.parametrize("n_train", [0, 5])
    def test_bad_split_rejected(self, suite, n_train):
        with pytest.raises(ConvertError, match="bad train split"):
            split_train_test(suite, "selection-projection", "rddl", n_train)

    def test_ground_truth_csv_round_trip(self, split, tmp_path):
        path = tmp_path / "gt.csv"
        write_ground_truth(path, split)
        loaded = read_ground_truth(path, split.test)
        assert loaded == split.ground_truth

    def test_validates_under_profile(self, suite):
        for profile in ("baseline", "rddl"):
            split = split_train_test(suite, "selection-projection", profile, 3)
            assert validate_graph(vocabulary(profile), split.train) == []
            assert validate_graph(vocabulary(profile), split.test) == []
