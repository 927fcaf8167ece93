"""The two ontology profiles governing knowledge-graph construction.

``baseline`` carries only the structural core (tables, columns, rows, cell
values) plus the four lineage properties; ``rddl`` extends it with the DB
object hierarchy, constraints, datatypes and execution semantics.  Profiles
are fixed, code-defined vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .kgstore import RDF_TYPE, KnowledgeGraph, Literal, serialize_ntriples

# Canonical name for the cell-value class; ColumnValue is accepted as an alias.
CLASS_ALIASES = {"ColumnValue": "CellValue"}

PROV_DERIVED_FROM = "prov:wasDerivedFrom"

LINEAGE_PROPERTIES = (
    "rowDerivedFrom",
    "columnDerivedFrom",
    "valueDerivedFrom",
    "tableDerivedFrom",
)


class ProfileError(Exception):
    pass


@dataclass(frozen=True)
class OntClass:
    name: str
    parent: Optional[str] = None


@dataclass(frozen=True)
class OntProperty:
    name: str
    kind: str  # "object" | "data"
    domain: Optional[str] = None
    range: Optional[str] = None
    prov_aligned: Optional[str] = None


@dataclass(frozen=True)
class OntologyProfile:
    name: str
    classes: tuple[OntClass, ...]
    properties: tuple[OntProperty, ...]

    def class_names(self) -> set[str]:
        return {c.name for c in self.classes}

    def property_names(self) -> set[str]:
        return {p.name for p in self.properties}

    def relation_names(self) -> list[str]:
        """The relation registry order shared by every graph of this profile."""
        return [RDF_TYPE] + sorted(self.property_names())

    def get_class(self, name: str) -> OntClass:
        canonical = CLASS_ALIASES.get(name, name)
        for c in self.classes:
            if c.name == canonical:
                return c
        raise ProfileError(f"unknown class: {name!r} in profile {self.name!r}")

    def get_property(self, name: str) -> OntProperty:
        for p in self.properties:
            if p.name == name:
                return p
        raise ProfileError(f"unknown property: {name!r} in profile {self.name!r}")


_BASELINE_CLASSES = (
    OntClass("Table"),
    OntClass("Column"),
    OntClass("Row"),
    OntClass("CellValue"),
)

_RDDL_CLASSES = (
    OntClass("NamedDBObject"),
    OntClass("TabularDataObject", "NamedDBObject"),
    OntClass("Table", "TabularDataObject"),
    OntClass("View", "TabularDataObject"),
    OntClass("MaterializedView", "TabularDataObject"),
    OntClass("TemporalTable", "TabularDataObject"),
    OntClass("ExternalTable", "TabularDataObject"),
    OntClass("StoredCode", "NamedDBObject"),
    OntClass("Query", "NamedDBObject"),
    OntClass("Column", "NamedDBObject"),
    OntClass("Constraint", "NamedDBObject"),
    OntClass("PrimaryKey", "Constraint"),
    OntClass("ForeignKey", "Constraint"),
    OntClass("NotNullConstraint", "Constraint"),
    OntClass("CheckConstraint", "Constraint"),
    OntClass("DataType"),
    OntClass("NumericType", "DataType"),
    OntClass("BooleanType", "DataType"),
    OntClass("TemporalType", "DataType"),
    OntClass("CharacterType", "DataType"),
    OntClass("Row"),
    OntClass("CellValue"),
    OntClass("QueryExecution"),
    OntClass("ProcExecution"),
    OntClass("FuncExecution"),
    OntClass("SourceDataCandidate"),
    OntClass("TargetDataCandidate"),
)


def _shared_properties(table_like: str) -> tuple[OntProperty, ...]:
    return (
        OntProperty("hasColumn", "object", domain=table_like, range="Column"),
        OntProperty("hasRow", "object"),
        OntProperty("hasCellValue", "object"),
        OntProperty("belongsToColumn", "object", domain="CellValue", range="Column"),
        OntProperty("exactValue", "data"),
        OntProperty("rowDerivedFrom", "object", prov_aligned=PROV_DERIVED_FROM),
        OntProperty("columnDerivedFrom", "object", prov_aligned=PROV_DERIVED_FROM),
        OntProperty("valueDerivedFrom", "object", prov_aligned=PROV_DERIVED_FROM),
    )


_BASELINE_PROPERTIES = _shared_properties("Table") + (
    OntProperty("tableDerivedFrom", "object", prov_aligned=PROV_DERIVED_FROM),
)

_RDDL_PROPERTIES = _shared_properties("TabularDataObject") + (
    OntProperty(
        "tableDerivedFrom",
        "object",
        domain="SourceDataCandidate",
        range="TargetDataCandidate",
        prov_aligned=PROV_DERIVED_FROM,
    ),
    OntProperty("hasDatatype", "object"),
    OntProperty("hasConstraint", "object"),
    OntProperty("referencesTable", "object", domain="ForeignKey", range="Table"),
    OntProperty("usesTable", "object"),
    OntProperty("generatesRow", "object"),
    OntProperty("executesQuery", "object"),
    OntProperty("executesFunction", "object"),
    OntProperty("executesProcedure", "object"),
    OntProperty("isNullable", "data"),
    OntProperty("typeName", "data"),
    OntProperty("typeLength", "data"),
)


def vocabulary(name: str) -> OntologyProfile:
    """Return the fixed vocabulary of the named profile."""
    if name == "baseline":
        return OntologyProfile("baseline", _BASELINE_CLASSES, _BASELINE_PROPERTIES)
    if name == "rddl":
        return OntologyProfile("rddl", _RDDL_CLASSES, _RDDL_PROPERTIES)
    raise ProfileError(f"unknown profile: {name!r}")


def is_subclass_of(profile: OntologyProfile, a: str, b: str) -> bool:
    """True iff b is reachable from a via parent links (reflexive)."""
    target = profile.get_class(b).name
    current: Optional[str] = profile.get_class(a).name
    seen = set()
    while current is not None:
        if current == target:
            return True
        if current in seen:
            raise ProfileError(f"cycle in class hierarchy at {current!r}")
        seen.add(current)
        current = profile.get_class(current).parent
    return False


def validate_graph(profile: OntologyProfile, g: KnowledgeGraph) -> list[str]:
    """Check every triple against the profile; violations are data, not errors."""
    violations: list[str] = []
    class_names = profile.class_names()
    property_names = profile.property_names()

    asserted: dict[int, set[str]] = {}
    if g.has_relation(RDF_TYPE):
        type_rel = g.relation_id(RDF_TYPE)
        for (s, _, o) in g.lookup(r=type_rel):
            if isinstance(o, Literal):
                continue
            asserted.setdefault(s, set()).add(g.local_name(o))

    def satisfies(node: int, required: str) -> bool:
        types = asserted.get(node, set())
        if not types:
            return True  # untyped nodes are not checked
        for t in types:
            canonical = CLASS_ALIASES.get(t, t)
            if canonical in class_names and is_subclass_of(profile, canonical, required):
                return True
        return False

    for (s, r, o) in g.triples():
        name = g.relation_name(r)
        if name == RDF_TYPE:
            if isinstance(o, Literal):
                violations.append(f"rdf:type with literal object on {g.node_iri(s)}")
                continue
            local = CLASS_ALIASES.get(g.local_name(o), g.local_name(o))
            if local not in class_names:
                violations.append(f"unknown class {local!r} asserted on {g.node_iri(s)}")
            continue
        if name not in property_names:
            violations.append(f"unknown property {name!r}")
            continue
        prop = profile.get_property(name)
        if prop.domain and not satisfies(s, prop.domain):
            violations.append(
                f"domain violation: {name!r} subject {g.node_iri(s)} is not a {prop.domain}"
            )
        if prop.range and not isinstance(o, Literal) and not satisfies(o, prop.range):
            violations.append(
                f"range violation: {name!r} object {g.node_iri(o)} is not a {prop.range}"
            )
    return violations


def export_profile(profile: OntologyProfile) -> str:
    """Render the profile as an N-Triples schema document (documentation only)."""
    ns = profile.name
    g = KnowledgeGraph(namespace=ns)
    rdf_type = g.add_relation(RDF_TYPE)
    subclass = g.add_relation("rdfs:subClassOf")
    domain_rel = g.add_relation("rdfs:domain")
    range_rel = g.add_relation("rdfs:range")
    aligned = g.add_relation("alignedWith")

    def node(local: str) -> int:
        return g.add_node(f"{ns}:{local}")

    class_meta = node("owl:Class")
    obj_meta = node("owl:ObjectProperty")
    data_meta = node("owl:DatatypeProperty")
    for c in profile.classes:
        cn = node(c.name)
        g.add_triple(cn, rdf_type, class_meta)
        if c.parent:
            g.add_triple(cn, subclass, node(c.parent))
    for p in profile.properties:
        pn = node(p.name)
        g.add_triple(pn, rdf_type, obj_meta if p.kind == "object" else data_meta)
        if p.domain:
            g.add_triple(pn, domain_rel, node(p.domain))
        if p.range:
            g.add_triple(pn, range_rel, node(p.range))
        if p.prov_aligned:
            g.add_triple(pn, aligned, g.add_node(p.prov_aligned))
    return serialize_ntriples(g)
