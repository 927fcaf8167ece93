import copy

import pytest

from lineagekg.reldb import ColumnDef, Database, Relation, TableDef, northwind_fixture
from lineagekg.scenario import (
    TASKS,
    FilterSpec,
    ScenarioError,
    ScenarioSuite,
    TransformationSpec,
    execute_transformation,
    generate_scenario,
    load_suite,
    save_suite,
    task_by_name,
)


def generate_suite(db, seed, scenarios_per_task):
    """Scenario suite over all 9 tasks, scenarios 0..scenarios_per_task-1 each."""
    suite = ScenarioSuite(db=db)
    for task in TASKS:
        suite.scenarios[task.name] = [generate_scenario(db, task, seed, idx)
                                      for idx in range(scenarios_per_task)]
    return suite


@pytest.fixture(scope="module")
def db():
    return northwind_fixture(rows_per_table=10, seed=0)


@pytest.fixture(scope="module")
def small_suite(db):
    return generate_suite(db, seed=1, scenarios_per_task=2)


def spec(**overrides):
    base = dict(
        scenario_id="t-s00", step=1, algebra="selection", math="projection",
        sources=("Customers",), projected=(("CompanyName", "CreditLimit"),),
        applied=((),), a=0.0, b=0.0,
        filter=None, join_on=None,
        output_name="out1", output_class="View",
    )
    base.update(overrides)
    return TransformationSpec(**base)


class TestExecuteTransformation:
    def test_linear_arithmetic(self, db):
        simple = Database(tables={"T": Relation(
            TableDef("T", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("v", "integer"))),
            [("1", "3")],
        )})
        s = spec(sources=("T",), projected=(("k",),), applied=(("v",),),
                 math="linear", a=2.0, b=1.0)
        rel, tuples = execute_transformation(simple, s)
        assert rel.rows == [("1", "7.0")]
        calc = [t for t in tuples if t.c2 == "out1_calc"]
        assert len(calc) == 1
        assert (calc[0].t1, calc[0].c1, calc[0].v1, calc[0].v2) == ("T", "v", "3", "7.0")

    def test_union_counts_and_single_source_tuples(self):
        t_a = Relation(TableDef("A", (ColumnDef("x", "varchar", length=5),)),
                       [("a1",), ("a2",), ("a3",)])
        t_b = Relation(TableDef("B", (ColumnDef("y", "varchar", length=5),)),
                       [("b1",), ("b2",)])
        db2 = Database(tables={"A": t_a, "B": t_b})
        s = spec(algebra="union", sources=("A", "B"),
                 projected=(("x",), ("y",)), applied=((), ()))
        rel, tuples = execute_transformation(db2, s)
        assert len(rel.rows) == 5
        assert len(tuples) == 5  # one projected column -> one tuple per row
        for t in tuples:
            assert t.t1 in ("A", "B")

    def test_join_matches_nested_loop_oracle(self, db):
        s = spec(algebra="join", sources=("Orders", "Customers"),
                 projected=(("Freight",), ("CompanyName", "City")),
                 applied=((), ()), join_on=("CustomerID", "CustomerID"),
                 output_name="oj")
        rel, tuples = execute_transformation(db, s)

        # oracle: brute-force nested loop over both tables
        orders, customers = db.tables["Orders"], db.tables["Customers"]
        oc = orders.table.column_index("CustomerID")
        cc = customers.table.column_index("CustomerID")
        matched = [
            (lrow, rrow)
            for lrow in orders.rows for rrow in customers.rows
            if lrow[oc] == rrow[cc]
        ]
        assert len(rel.rows) == len(matched)
        # per output row: one tuple per projected column on each side
        assert len(tuples) == len(matched) * (1 + 2)
        per_row_tables = {}
        for t in tuples:
            per_row_tables.setdefault(t.v2 if t.c2 == "oj_Orders_Freight" else None, set())
        sides = {t.t1 for t in tuples}
        assert sides == {"Orders", "Customers"}

    def test_selection_filter(self, db):
        s = spec(filter=FilterSpec("CompanyName", "=", "Company-0003"))
        rel, tuples = execute_transformation(db, s)
        assert len(rel.rows) == 1
        assert rel.rows[0][0] == "Company-0003"

    def test_selection_count_monotone(self, db):
        s = spec(filter=FilterSpec("CreditLimit", ">", "1000.0"))
        rel, _ = execute_transformation(db, s)
        assert len(rel.rows) <= len(db.tables["Customers"].rows)

    def test_log_on_non_positive_errors(self):
        bad = Database(tables={"T": Relation(
            TableDef("T", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("v", "decimal"))),
            [("1", "-3.0")],
        )})
        s = spec(sources=("T",), projected=(("k",),), applied=(("v",),),
                 math="log", a=1.0, b=0.0)
        with pytest.raises(ScenarioError, match="non-positive"):
            execute_transformation(bad, s)

    def test_filter_column_absent(self, db):
        s = spec(filter=FilterSpec("Nope", ">", "1"))
        with pytest.raises(ScenarioError, match="absent"):
            execute_transformation(db, s)

    def test_bilinear_two_tuples_per_cell(self):
        simple = Database(tables={"T": Relation(
            TableDef("T", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("u", "integer"), ColumnDef("v", "integer"))),
            [("1", "2", "5")],
        )})
        s = spec(sources=("T",), projected=(("k",),), applied=(("u", "v"),),
                 math="bilinear", a=3.0)
        rel, tuples = execute_transformation(simple, s)
        assert rel.rows[0][-1] == "30.0"
        calc = [t for t in tuples if t.c2 == "out1_calc"]
        assert {(t.c1, t.v1) for t in calc} == {("u", "2"), ("v", "5")}

    def test_never_mutates_inputs(self, db):
        snapshot = copy.deepcopy(db.tables["Customers"].rows)
        s = spec(filter=FilterSpec("CreditLimit", ">", "0.0"))
        execute_transformation(db, s)
        assert db.tables["Customers"].rows == snapshot


class TestGenerateSuite:
    def test_task_coverage(self, small_suite):
        assert set(small_suite.task_names()) == {t.name for t in TASKS}
        assert len(small_suite.task_names()) == 9

    def test_deterministic(self, db):
        a = generate_suite(db, seed=4, scenarios_per_task=1)
        b = generate_suite(db, seed=4, scenarios_per_task=1)
        for task in a.task_names():
            for sa, sb in zip(a.scenarios_for(task), b.scenarios_for(task)):
                assert sa.transformations == sb.transformations
                assert sa.lineage == sb.lineage

    def test_four_transformations_each(self, small_suite):
        for task in small_suite.task_names():
            for scenario in small_suite.scenarios_for(task):
                assert len(scenario.transformations) == 4
                assert all(group for group in scenario.lineage)

    def test_join_sources_fk_related(self, db, small_suite):
        fk_pairs = set()
        for rel in db.tables.values():
            for fk in rel.table.foreign_keys:
                fk_pairs.add((rel.name, fk.ref_table))
        for scenario in small_suite.scenarios_for("join-projection"):
            for t in scenario.transformations:
                assert (t.sources[0], t.sources[1]) in fk_pairs

    def test_join_needs_fk(self):
        lonely = Database(tables={"T": Relation(
            TableDef("T", (ColumnDef("k", "integer", is_pk=True),
                           ColumnDef("v", "decimal"))),
            [(str(i + 1), f"{i}.5") for i in range(5)],
        )})
        with pytest.raises(ScenarioError, match="FK"):
            generate_scenario(lonely, task_by_name("join-projection"), 0, 0)

    def test_nonlinear_math_kinds(self, db):
        suite = generate_suite(db, seed=9, scenarios_per_task=3)
        kinds = {
            t.math
            for task in ("selection-nonlinear", "join-nonlinear", "union-nonlinear")
            for s in suite.scenarios_for(task)
            for t in s.transformations
        }
        assert kinds <= {"bilinear", "power", "log", "exp"}
        assert len(kinds) >= 2  # mixing, not a single fixed kind

    def test_family_math_consistency(self, small_suite):
        for task_name in small_suite.task_names():
            family = task_by_name(task_name).family
            for s in small_suite.scenarios_for(task_name):
                for t in s.transformations:
                    if family == "projection":
                        assert t.math == "projection"
                    elif family == "linear":
                        assert t.math == "linear"
                    else:
                        assert t.math in ("bilinear", "power", "log", "exp")


class TestGroundTruthShape:
    def row_sources(self, db, scenario):
        """Resolve every tuple by value lookup and group source rows per
        (output, output row)."""
        working, _ = _executed(db, scenario)
        grouped = {}
        for step_tuples in scenario.lineage:
            for t in step_tuples:
                dst_rel = working.relation(t.t2)
                src_rel = working.relation(t.t1)
                d_idx = dst_rel.table.column_index(t.c2)
                s_idx = src_rel.table.column_index(t.c1)
                dst_rows = [i for i, r in enumerate(dst_rel.rows) if r[d_idx] == t.v2]
                src_rows = [i for i, r in enumerate(src_rel.rows) if r[s_idx] == t.v1]
                assert len(src_rows) == 1
                for d in dst_rows:
                    grouped.setdefault((t.t2, d), set()).add((t.t1, src_rows[0]))
        return grouped

    def test_selection_union_single_source_join_two(self, db, small_suite):
        for task_name in ("selection-linear", "union-projection", "join-nonlinear"):
            algebra = task_by_name(task_name).algebra
            for scenario in small_suite.scenarios_for(task_name):
                grouped = self.row_sources(db, scenario)
                by_output = {}
                for (out, _), sources in grouped.items():
                    by_output.setdefault(out, []).append(sources)
                for out, groups in by_output.items():
                    t = next(t for t in scenario.transformations if t.output_name == out)
                    expected = 2 if t.algebra == "join" else 1
                    for sources in groups:
                        assert len(sources) == expected, (task_name, out)

    def test_distinct_values_map_to_distinct_targets(self, db, small_suite):
        for scenario in small_suite.scenarios_for("selection-linear"):
            for step_tuples in scenario.lineage:
                calc = [(t.v1, t.v2) for t in step_tuples if t.c2.endswith("_calc")]
                if calc:
                    sources = [v1 for v1, _ in calc]
                    targets = [v2 for _, v2 in calc]
                    assert len(set(sources)) == len(set(targets))


def _executed(db, scenario):
    from lineagekg.scenario import execute_scenarios

    return execute_scenarios(db, [scenario])


class TestSuiteSerialization:
    def test_round_trip(self, db, small_suite, tmp_path):
        save_suite(small_suite, tmp_path)
        loaded = load_suite(tmp_path, db=db)
        assert loaded.task_names() == small_suite.task_names()
        for task in small_suite.task_names():
            for a, b in zip(small_suite.scenarios_for(task), loaded.scenarios_for(task)):
                assert a.transformations == b.transformations
                assert a.lineage == b.lineage

    def test_lineage_csv_columns(self, small_suite, tmp_path):
        save_suite(small_suite, tmp_path)
        sample = next((tmp_path / "lineage").iterdir())
        header = sample.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t1,c1,v1,t2,c2,v2"
