import pytest

from lineagekg.reldb import (
    ColumnDef,
    Database,
    ForeignKeyDef,
    Relation,
    SchemaError,
    TableDef,
    northwind_fixture,
)


def tiny_db():
    widgets = TableDef("Widgets", (
        ColumnDef("id", "integer", is_pk=True),
        ColumnDef("name", "varchar", length=10, nullable=True),
    ))
    return Database(tables={"Widgets": Relation(widgets, [("1", "alpha"), ("2", None)])})


class TestColumnDef:
    def test_pk_must_not_be_nullable(self):
        with pytest.raises(SchemaError):
            ColumnDef("id", "integer", is_pk=True, nullable=True)

    def test_length_only_for_varchar(self):
        with pytest.raises(SchemaError):
            ColumnDef("x", "integer", length=4)
        with pytest.raises(SchemaError):
            ColumnDef("x", "varchar")

    def test_fk_column_must_be_flagged(self):
        with pytest.raises(SchemaError):
            TableDef("T", (ColumnDef("a", "integer"),),
                     (ForeignKeyDef("FK_T", "a", "U", "id"),))


class TestDatabaseValidation:
    def test_duplicate_pk(self):
        db = tiny_db()
        db.tables["Widgets"].rows.append(("1", "dup"))
        problems = db.problems()
        assert any("duplicate PK" in p for p in problems)

    def test_null_in_non_nullable(self):
        db = tiny_db()
        db.tables["Widgets"].rows.append((None, "x"))
        assert any("non-nullable" in p for p in db.problems())

    def test_fk_target_checked(self):
        orders = TableDef(
            "Orders",
            (ColumnDef("id", "integer", is_pk=True),
             ColumnDef("cust", "integer", is_fk=True)),
            (ForeignKeyDef("FK_O_C", "cust", "Customers", "id"),),
        )
        db = Database(tables={"Orders": Relation(orders, [("1", "9")])})
        assert any("missing table" in p for p in db.problems())


class TestNorthwindFixture:
    def test_orders_reference_customers(self):
        db = northwind_fixture(10, 0)
        fk_names = {fk.name for fk in db.tables["Orders"].table.foreign_keys}
        assert "FK_Orders_Customers" in fk_names

    def test_deterministic(self):
        a = northwind_fixture(10, 3)
        b = northwind_fixture(10, 3)
        for name in a.tables:
            assert a.tables[name].rows == b.tables[name].rows
            assert a.tables[name].table == b.tables[name].table

    def test_seed_changes_data(self):
        a = northwind_fixture(10, 0)
        b = northwind_fixture(10, 1)
        assert a.tables["Customers"].rows != b.tables["Customers"].rows

    def test_all_fk_values_resolve(self):
        assert northwind_fixture(10, 0).problems() == []

    def test_expected_tables(self):
        db = northwind_fixture(5, 0)
        assert set(db.tables) == {
            "Customers", "Employees", "Products", "Orders", "Order Details"
        }

    def test_row_count_configurable(self):
        db = northwind_fixture(7, 0)
        assert all(len(rel.rows) == 7 for rel in db.tables.values())

    def test_nullable_column_has_nulls(self):
        db = northwind_fixture(10, 0)
        ship = db.tables["Orders"].column_values("ShipCity")
        assert any(v is None for v in ship)
