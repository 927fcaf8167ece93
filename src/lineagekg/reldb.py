"""In-memory relational model and a Northwind-style fixture.

Cell values are canonical lexical strings (see :mod:`lineagekg.kgstore`), so
database-to-graph conversion and lineage matching reduce to exact string
equality.  SQL NULL is None.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Optional

from .kgstore import render_decimal

DTYPES = ("integer", "decimal", "varchar", "boolean", "date")

# dtype -> literal kind used when cells become exactValue literals
DTYPE_KINDS = {
    "integer": "integer",
    "decimal": "decimal",
    "varchar": "string",
    "boolean": "boolean",
    "date": "string",
}


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: str
    length: Optional[int] = None
    nullable: bool = False
    is_pk: bool = False
    is_fk: bool = False

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise SchemaError(f"column {self.name!r}: unknown dtype {self.dtype!r}")
        if self.is_pk and self.nullable:
            raise SchemaError(f"column {self.name!r}: primary key cannot be nullable")
        if (self.dtype == "varchar") != (self.length is not None):
            raise SchemaError(
                f"column {self.name!r}: length must be present iff dtype is varchar"
            )
        if self.length is not None and self.length <= 0:
            raise SchemaError(f"column {self.name!r}: length must be positive")


@dataclass(frozen=True)
class ForeignKeyDef:
    name: str
    column: str
    ref_table: str
    ref_column: str


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]
    foreign_keys: tuple[ForeignKeyDef, ...] = ()

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name!r}: duplicate column names")
        for fk in self.foreign_keys:
            col = self.find_column(fk.column)
            if col is None:
                raise SchemaError(
                    f"table {self.name!r}: FK {fk.name!r} on missing column {fk.column!r}"
                )
            if not col.is_fk:
                raise SchemaError(
                    f"table {self.name!r}: FK {fk.name!r} column {fk.column!r} lacks is_fk"
                )

    def find_column(self, name: str) -> Optional[ColumnDef]:
        for c in self.columns:
            if c.name == name:
                return c
        return None

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise SchemaError(f"table {self.name!r}: no column {name!r}")

    def pk_column(self) -> Optional[ColumnDef]:
        for c in self.columns:
            if c.is_pk:
                return c
        return None


@dataclass
class Relation:
    """A table or derived tabular object instance."""

    table: TableDef
    rows: list[tuple]
    object_class: str = "Table"

    @property
    def name(self) -> str:
        return self.table.name

    def column_values(self, column: str) -> list:
        idx = self.table.column_index(column)
        return [row[idx] for row in self.rows]

    def check_rows(self) -> list[str]:
        problems = []
        width = len(self.table.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                problems.append(
                    f"table {self.name!r} row {i}: arity {len(row)} != {width}"
                )
                continue
            for col, value in zip(self.table.columns, row):
                if value is None and not col.nullable:
                    problems.append(
                        f"table {self.name!r} row {i}: NULL in non-nullable {col.name!r}"
                    )
        pk = self.table.pk_column()
        if pk is not None:
            idx = self.table.column_index(pk.name)
            seen: dict = {}
            for i, row in enumerate(self.rows):
                if len(row) != width:
                    continue
                value = row[idx]
                if value in seen:
                    problems.append(
                        f"table {self.name!r} row {i}: duplicate PK value {value!r}"
                        f" (first at row {seen[value]})"
                    )
                else:
                    seen[value] = i
        return problems


@dataclass
class Database:
    tables: dict[str, Relation]
    views: dict[str, Relation] = field(default_factory=dict)

    def relation(self, name: str) -> Relation:
        if name in self.tables:
            return self.tables[name]
        if name in self.views:
            return self.views[name]
        raise SchemaError(f"unknown relation: {name!r}")

    def copy(self) -> "Database":
        return Database(
            tables={k: Relation(v.table, list(v.rows), v.object_class)
                    for k, v in self.tables.items()},
            views={k: Relation(v.table, list(v.rows), v.object_class)
                   for k, v in self.views.items()},
        )

    def problems(self) -> list[str]:
        found = []
        for rel in list(self.tables.values()) + list(self.views.values()):
            found.extend(rel.check_rows())
        for rel in self.tables.values():
            for fk in rel.table.foreign_keys:
                if fk.ref_table not in self.tables:
                    found.append(
                        f"table {rel.name!r}: FK {fk.name!r} references missing"
                        f" table {fk.ref_table!r}"
                    )
                    continue
                target = self.tables[fk.ref_table]
                try:
                    ref_values = set(target.column_values(fk.ref_column))
                except SchemaError:
                    found.append(
                        f"table {rel.name!r}: FK {fk.name!r} references missing"
                        f" column {fk.ref_table!r}.{fk.ref_column!r}"
                    )
                    continue
                idx = rel.table.column_index(fk.column)
                for i, row in enumerate(rel.rows):
                    value = row[idx]
                    if value is not None and value not in ref_values:
                        found.append(
                            f"table {rel.name!r} row {i}: FK value {value!r} not in"
                            f" {fk.ref_table!r}.{fk.ref_column!r}"
                        )
        return found

    def validate(self) -> None:
        found = self.problems()
        if found:
            raise SchemaError("; ".join(found))


# -- Northwind-style fixture ---------------------------------------------------

def _cents(seed: int, table: str, i: int, column: str) -> float:
    rng = random.Random(f"{seed}:{table}:{i}:{column}")
    return rng.randint(0, 99) / 100.0


def _dec(base: float, step: float, seed: int, table: str, i: int, column: str) -> str:
    return render_decimal(base + step * i + _cents(seed, table, i, column))


def northwind_fixture(rows_per_table: int = 50, seed: int = 0) -> Database:
    """Deterministic synthetic subset of the classic Northwind schema.

    Non-key, non-boolean values are unique within their column (and string
    columns are disjoint across tables), which keeps value-based lineage
    resolution unambiguous.  Row synthesis is a pure function of
    (table name, row index, seed).
    """
    n = rows_per_table

    customers = TableDef("Customers", (
        ColumnDef("CustomerID", "integer", is_pk=True),
        ColumnDef("CompanyName", "varchar", length=40),
        ColumnDef("City", "varchar", length=30),
        ColumnDef("Country", "varchar", length=30),
        ColumnDef("CreditLimit", "decimal"),
    ))
    employees = TableDef("Employees", (
        ColumnDef("EmployeeID", "integer", is_pk=True),
        ColumnDef("LastName", "varchar", length=30),
        ColumnDef("FirstName", "varchar", length=30),
        ColumnDef("City", "varchar", length=30),
        ColumnDef("Salary", "decimal"),
    ))
    products = TableDef("Products", (
        ColumnDef("ProductID", "integer", is_pk=True),
        ColumnDef("ProductName", "varchar", length=40),
        ColumnDef("UnitPrice", "decimal"),
        ColumnDef("UnitsInStock", "integer"),
        ColumnDef("Discontinued", "boolean"),
    ))
    orders = TableDef(
        "Orders",
        (
            ColumnDef("OrderID", "integer", is_pk=True),
            ColumnDef("CustomerID", "integer", is_fk=True),
            ColumnDef("EmployeeID", "integer", is_fk=True),
            ColumnDef("OrderDate", "date"),
            ColumnDef("Freight", "decimal"),
            ColumnDef("ShipCity", "varchar", length=30, nullable=True),
        ),
        (
            ForeignKeyDef("FK_Orders_Customers", "CustomerID", "Customers", "CustomerID"),
            ForeignKeyDef("FK_Orders_Employees", "EmployeeID", "Employees", "EmployeeID"),
        ),
    )
    order_details = TableDef(
        "Order Details",
        (
            ColumnDef("OrderDetailID", "integer", is_pk=True),
            ColumnDef("OrderID", "integer", is_fk=True),
            ColumnDef("ProductID", "integer", is_fk=True),
            ColumnDef("UnitPrice", "decimal"),
            ColumnDef("Quantity", "integer"),
            ColumnDef("Discount", "decimal"),
        ),
        (
            ForeignKeyDef("FK_OrderDetails_Orders", "OrderID", "Orders", "OrderID"),
            ForeignKeyDef("FK_OrderDetails_Products", "ProductID", "Products", "ProductID"),
        ),
    )

    base_date = datetime.date(1996, 7, 4)

    def customers_rows():
        for i in range(n):
            yield (
                str(i + 1),
                f"Company-{i:04d}",
                f"CustCity-{i:04d}",
                f"CustLand-{i:04d}",
                _dec(500.0, 137.25, seed, "Customers", i, "CreditLimit"),
            )

    def employees_rows():
        for i in range(n):
            yield (
                str(i + 1),
                f"Emp-{i:04d}",
                f"EmpFirst-{i:04d}",
                f"EmpCity-{i:04d}",
                _dec(3000.0, 211.5, seed, "Employees", i, "Salary"),
            )

    def products_rows():
        for i in range(n):
            yield (
                str(i + 1),
                f"Product-{i:04d}",
                _dec(5.0, 17.35, seed, "Products", i, "UnitPrice"),
                str(10 + 7 * i),
                "true" if i % 3 == 0 else "false",
            )

    def orders_rows():
        for i in range(n):
            yield (
                str(i + 1),
                str((i * 7) % n + 1),
                str((i * 3) % n + 1),
                (base_date + datetime.timedelta(days=i)).isoformat(),
                _dec(10.0, 23.7, seed, "Orders", i, "Freight"),
                None if i % 7 == 3 else f"ShipCity-{i:04d}",
            )

    def order_details_rows():
        for i in range(n):
            yield (
                str(i + 1),
                str((i * 5) % n + 1),
                str((i * 11) % n + 1),
                _dec(2.0, 13.85, seed, "Order Details", i, "UnitPrice"),
                str(1 + 3 * i),
                _dec(1.05, 1.37, seed, "Order Details", i, "Discount"),
            )

    db = Database(tables={
        "Customers": Relation(customers, list(customers_rows())),
        "Employees": Relation(employees, list(employees_rows())),
        "Products": Relation(products, list(products_rows())),
        "Orders": Relation(orders, list(orders_rows())),
        "Order Details": Relation(order_details, list(order_details_rows())),
    })
    db.validate()
    return db
