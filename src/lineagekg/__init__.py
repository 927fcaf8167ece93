"""Relational-database lineage knowledge graphs and inductive link prediction."""

__version__ = "0.1.0"
