import random

import pytest

from lineagekg.kgstore import (
    KnowledgeGraph,
    Literal,
    ParseError,
    UnknownNodeError,
    canonical_lexical,
    parse_ntriples,
    render_decimal,
    serialize_ntriples,
)


def random_graph(rng, num_nodes, num_triples, num_relations=4, literal_share=0.25):
    g = KnowledgeGraph()
    for i in range(num_nodes):
        g.add_node(f"t:n{i}")
    for i in range(num_relations):
        g.add_relation(f"r{i}")
    for _ in range(num_triples):
        s = rng.randrange(num_nodes)
        r = rng.randrange(num_relations)
        if rng.random() < literal_share:
            o = Literal(str(rng.randrange(8)), "integer")
        else:
            o = rng.randrange(num_nodes)
        g.add_triple(s, r, o)
    return g


class TestCanonicalForms:
    def test_integer(self):
        assert canonical_lexical("042", "integer") == "42"
        assert canonical_lexical("-0", "integer") == "0"

    def test_decimal_has_point(self):
        assert canonical_lexical("7", "decimal") == "7.0"
        assert canonical_lexical("3.50", "decimal") == "3.5"

    def test_decimal_round_trips(self):
        for value in ("1234.56", "0.001", "5.18470552859e+21", "-42.0"):
            canon = canonical_lexical(value, "decimal")
            assert canonical_lexical(canon, "decimal") == canon

    def test_boolean(self):
        assert canonical_lexical("True", "boolean") == "true"
        assert canonical_lexical("0", "boolean") == "false"

    def test_render_decimal_significant_digits(self):
        assert render_decimal(1.0 / 3.0) == "0.333333333333"
        assert render_decimal(0.0) == "0.0"


class TestAddTriple:
    def test_insert_into_empty(self):
        g = KnowledgeGraph()
        n0, n1 = g.add_node("t:a"), g.add_node("t:b")
        r = g.add_relation("hasColumn")
        assert g.add_triple(n0, r, n1) is True
        assert len(g) == 1

    def test_idempotent(self):
        g = KnowledgeGraph()
        n0, n1 = g.add_node("t:a"), g.add_node("t:b")
        r = g.add_relation("hasColumn")
        assert g.add_triple(n0, r, n1) is True
        assert g.add_triple(n0, r, n1) is False
        assert len(g) == 1

    def test_unknown_subject(self):
        g = KnowledgeGraph()
        n0 = g.add_node("t:a")
        r = g.add_relation("r")
        with pytest.raises(UnknownNodeError, match="unknown node"):
            g.add_triple(99, r, n0)

    def test_dense_ids(self):
        g = KnowledgeGraph()
        ids = [g.add_node(f"t:n{i}") for i in range(5)]
        assert ids == list(range(5))
        assert g.add_node("t:n2") == 2  # bijective re-lookup

    def test_frozen_graph_rejects_writes(self):
        g = KnowledgeGraph()
        n = g.add_node("t:a")
        r = g.add_relation("r")
        g.add_triple(n, r, Literal("1", "integer"))
        g.freeze()
        with pytest.raises(Exception):
            g.add_triple(n, r, Literal("2", "integer"))


class TestIndexes:
    def test_every_triple_reachable_through_each_index(self):
        rng = random.Random(7)
        g = random_graph(rng, 20, 120)
        for (s, r, o) in g.triples():
            assert (s, r, o) in set(g.lookup(s=s))
            assert (s, r, o) in set(g.lookup(o=o))
            if isinstance(o, Literal):
                assert (s, r, o) in set(g.lookup(r=r, o=o))

    # bound positions of a lookup, and the kind of object it binds
    @pytest.mark.parametrize("bound, kind", [
        ("s", None), ("o", int), ("r", None), ("sr", None),
        ("ro", int), ("ro", Literal), ("o", Literal),
    ])
    def test_lookup_equals_ordered_filter_of_triples(self, bound, kind):
        rng = random.Random(17)
        g = random_graph(rng, 20, 300)
        triples = list(g.triples())
        assert len(triples) < 300  # repeated inserts are part of the test
        probes = [t for t in triples if kind is None or isinstance(t[2], kind)]
        if kind is Literal:
            probes.append((0, 0, Literal("99", "integer")))  # in no triple
        queries = {tuple(t[i] if p in bound else None for i, p in enumerate("sro"))
                   for t in probes}
        for query in queries:
            expected = [t for t in triples
                        if all(q is None or q == v for q, v in zip(query, t))]
            s, r, o = query
            assert list(g.lookup(s=s, r=r, o=o)) == expected


class TestSerialization:
    def test_empty_graph(self):
        assert serialize_ntriples(KnowledgeGraph()) == ""

    def test_single_triple_line(self):
        g = KnowledgeGraph()
        a, b = g.add_node("t:a"), g.add_node("t:b")
        g.add_triple(a, g.add_relation("p"), b)
        text = serialize_ntriples(g)
        assert text == "<t:a> <p> <t:b> .\n"

    def test_round_trip_isomorphic(self):
        rng = random.Random(11)
        g = random_graph(rng, 120, 1000, num_relations=6)
        parsed = parse_ntriples(serialize_ntriples(g))

        def canon(graph):
            out = set()
            for (s, r, o) in graph.triples():
                obj = o if isinstance(o, Literal) else graph.node_iri(o)
                out.add((graph.node_iri(s), graph.relation_name(r), obj))
            return out

        assert canon(parsed) == canon(g)

    def test_serialize_parse_serialize_fixed_point(self):
        rng = random.Random(13)
        g = random_graph(rng, 40, 300)
        once = serialize_ntriples(g)
        twice = serialize_ntriples(parse_ntriples(once))
        assert once == twice

    def test_literal_escaping_round_trip(self):
        g = KnowledgeGraph()
        n = g.add_node("t:a")
        r = g.add_relation("exactValue")
        tricky = Literal('line\nbreak "quote" \\slash\ttab', "string")
        g.add_triple(n, r, tricky)
        parsed = parse_ntriples(serialize_ntriples(g))
        (triple,) = list(parsed.triples())
        assert triple[2] == tricky

    def test_duplicate_lines_collapse(self):
        text = "<t:a> <p> <t:b> .\n<t:a> <p> <t:b> .\n"
        assert len(parse_ntriples(text)) == 1

    def test_missing_terminal_dot(self):
        with pytest.raises(ParseError) as err:
            parse_ntriples("<t:a> <p> <t:b> .\n<t:a> <p> <t:c>\n")
        assert err.value.line_number == 2

    def test_empty_text(self):
        assert len(parse_ntriples("")) == 0

    def test_pre_registered_relations(self):
        g = parse_ntriples("<t:a> <p> <t:b> .\n", relations=("rdf:type", "p"))
        assert g.relation_names()[:2] == ["rdf:type", "p"]


MALFORMED_LINES = [
    ("missing-dot", "<t:a> <p> <t:b>"),
    ("unterminated-iri", "<t:a> <p> <t:b ."),
    ("unterminated-literal", '<t:a> <p> "abc .'),
    ("dangling-escape", '<t:a> <p> "abc\\'),
    ("bad-escape", '<t:a> <p> "a\\qb" .'),
    ("unknown-kind", '<t:a> <p> "1"^^<xsd:float> .'),
    ("unterminated-datatype", '<t:a> <p> "1"^^<xsd:integer .'),
    ("trailing-content", "<t:a> <p> <t:b> . x"),
    ("leading-space", " <t:a> <p> <t:b> ."),
    ("missing-object", "<t:a> <p> ."),
]

ODD_VALID_TEXTS = [
    ("no-spaces", "<a><p><b>.", [("a", "p", "b")]),
    ("space-runs", '<t:a>    <p>   "7"^^<xsd:integer>   .',
     [("t:a", "p", Literal("7", "integer"))]),
    ("spaces-after-dot", "<t:a> <p> <t:b> .   ", [("t:a", "p", "t:b")]),
    ("crlf", '<t:a> <p> <t:b> .\r\n<t:a> <q> "x\\ty" .\r\n',
     [("t:a", "p", "t:b"), ("t:a", "q", Literal("x\ty"))]),
]


class TestParseTable:
    @pytest.mark.parametrize("line", [line for _, line in MALFORMED_LINES],
                             ids=[name for name, _ in MALFORMED_LINES])
    def test_malformed_line_rejected_with_its_number(self, line):
        text = "<t:a> <p> <t:b> .\n\n" + line + "\n<t:c> <p> <t:d> .\n"
        with pytest.raises(ParseError) as err:
            parse_ntriples(text)
        assert err.value.line_number == 3
        assert str(err.value).startswith("line 3: ")

    @pytest.mark.parametrize("text,expected", [case[1:] for case in ODD_VALID_TEXTS],
                             ids=[case[0] for case in ODD_VALID_TEXTS])
    def test_odd_valid_lines_parse(self, text, expected):
        g = parse_ntriples(text)
        got = [(g.node_iri(s), g.relation_name(r),
                o if isinstance(o, Literal) else g.node_iri(o))
               for (s, r, o) in g.triples()]
        assert got == expected

    def test_object_node_interned_before_subject(self):
        g = parse_ntriples("<t:a> <p> <t:b> .\n<t:c> <q> <t:a> .\n")
        assert [g.node_iri(node) for node in range(g.num_nodes)] == ["t:b", "t:a", "t:c"]
        assert g.relation_names() == ["p", "q"]
