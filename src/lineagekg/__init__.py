"""Relational-database lineage knowledge graphs and inductive link prediction."""

__version__ = "0.1.0"

from .kgstore import KnowledgeGraph, Literal, parse_ntriples, serialize_ntriples
from .ontology import vocabulary
from .reldb import Database, load_database, northwind_fixture
from .scenario import generate_suite
from .convert import populate_kg, resolve_lineage, split_train_test

__all__ = [
    "KnowledgeGraph", "Literal", "parse_ntriples", "serialize_ntriples",
    "vocabulary", "Database", "load_database", "northwind_fixture",
    "generate_suite", "populate_kg", "resolve_lineage", "split_train_test",
]
