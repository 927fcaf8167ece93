import dataclasses
import random

import pytest

from lineagekg.convert import split_train_test
from lineagekg.kgstore import KnowledgeGraph, Literal
from lineagekg.paths import (
    NOPATH,
    PAD,
    EdgeVocabulary,
    PathError,
    PathSample,
    PathSampler,
    SamplerConfig,
    build_eval_set,
    build_training_set,
    load_samples,
    node_to_node_triples,
    row_nodes,
    save_samples,
)
from lineagekg.reldb import northwind_fixture
from lineagekg.scenario import ScenarioSuite, generate_scenario, task_by_name


def replay_reaches(g, vocab, src, tokens, dst):
    """Oracle: breadth-first replay of the token sequence from src."""
    frontier = {src}
    for token in tokens:
        if token == PAD:
            break
        decoded = vocab.decode(token)
        if decoded is None:
            return False  # NOPATH is not walkable
        rel, inverse = decoded
        nxt = set()
        for node in frontier:
            if inverse:
                for (s, _, _) in g.lookup(r=rel, o=node):
                    nxt.add(s)
            else:
                for (_, _, o) in g.lookup(s=node, r=rel):
                    if not isinstance(o, Literal):
                        nxt.add(o)
        frontier = nxt
        if not frontier:
            return False
    return dst in frontier


def chain_graph():
    """src -hasCellValue-> x -belongsToColumn-> c, plus an unrelated island."""
    g = KnowledgeGraph()
    hcv = g.add_relation("hasCellValue")
    btc = g.add_relation("belongsToColumn")
    src = g.add_node("t:src")
    x = g.add_node("t:x")
    c = g.add_node("t:c")
    island = g.add_node("t:island")
    g.add_triple(src, hcv, x)
    g.add_triple(x, btc, c)
    return g, src, c, island


@pytest.fixture(scope="module")
def converted():
    db = northwind_fixture(rows_per_table=6, seed=4)
    suite = ScenarioSuite(db=db)
    name = "selection-projection"
    suite.scenarios[name] = [
        generate_scenario(db, task_by_name(name), 4, i) for i in range(4)
    ]
    return split_train_test(suite, name, "rddl", 3)


class TestEdgeVocabulary:
    def test_tokens_cover_both_directions(self):
        vocab = EdgeVocabulary(["rdf:type", "hasColumn"])
        assert vocab.size == 2 + 4
        assert vocab.token_name(vocab.forward(1)) == "hasColumn"
        assert vocab.token_name(vocab.inverse(1)) == "~hasColumn"
        assert vocab.decode(PAD) is None and vocab.decode(NOPATH) is None
        assert vocab.decode(vocab.inverse(0)) == (0, True)

    def test_sidecar_round_trip(self, tmp_path):
        vocab = EdgeVocabulary(["rdf:type", "hasRow", "exactValue"])
        vocab.save(tmp_path / "vocab.txt")
        loaded = EdgeVocabulary.load(tmp_path / "vocab.txt")
        assert loaded.names == vocab.names

    def test_line_without_tab_rejected(self, tmp_path):
        (tmp_path / "vocab.txt").write_text("0\t<pad>\n1 <nopath>\n", encoding="utf-8")
        with pytest.raises(PathError, match="line 2"):
            EdgeVocabulary.load(tmp_path / "vocab.txt")


class TestSamplePaths:
    def test_unique_path_repeated_to_fill_slots(self):
        g, src, dst, _ = chain_graph()
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=16, seed=0)
        sampler = PathSampler(g, cfg)
        paths = sampler.sample_paths(src, dst, random.Random(0))
        expected = (sampler.vocab.forward(0), sampler.vocab.forward(1),
                    PAD, PAD, PAD, PAD)
        assert paths == (expected,) * 3

    def test_disconnected_gives_nopath(self):
        g, src, _, island = chain_graph()
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=8, seed=0)
        sampler = PathSampler(g, cfg)
        paths = sampler.sample_paths(src, island, random.Random(0))
        assert paths == ((NOPATH, PAD, PAD, PAD, PAD, PAD),) * 3

    def test_exclusion_blocks_direct_edge(self):
        g = KnowledgeGraph()
        rel = g.add_relation("rowDerivedFrom")
        a, b = g.add_node("t:a"), g.add_node("t:b")
        g.add_triple(a, rel, b)
        cfg = SamplerConfig(num_paths=3, max_length=4, walk_budget=8, seed=0)
        sampler = PathSampler(g, cfg)
        paths = sampler.sample_paths(a, b, random.Random(1), excluded=(a, rel, b))
        assert paths[0][0] == NOPATH  # the only connection is the excluded edge

    def test_all_sampled_paths_replay(self, converted):
        g = converted.train
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=12, seed=5)
        sampler = PathSampler(g, cfg)
        rng = random.Random(5)
        triples = node_to_node_triples(g)
        for (s, r, o) in random.Random(0).sample(triples, 60):
            for path in sampler.sample_paths(s, o, rng, excluded=(s, r, o)):
                if path[0] == NOPATH:
                    continue
                assert replay_reaches(g, sampler.vocab, s, path, o)

    def test_deterministic_for_seeded_rng(self, converted):
        g = converted.train
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=12, seed=5)
        triples = node_to_node_triples(g)[:20]
        runs = []
        for _ in range(2):
            sampler = PathSampler(g, cfg)
            runs.append([
                sampler.sample_paths(s, o, random.Random(f"x:{i}"))
                for i, (s, r, o) in enumerate(triples)
            ])
        assert runs[0] == runs[1]


class FilteredListSampler(PathSampler):
    """Reference walk step: rebuild the filtered neighbour list at every step
    and draw from it.  The indexed step must make the same draws."""

    def __init__(self, g, cfg):
        super().__init__(g, cfg)
        self.keyed = [[] for _ in range(g.num_nodes)]
        for (s, r, o) in g.triples():
            if isinstance(o, Literal):
                continue
            key = (s, r, o)
            self.keyed[s].append((self.vocab.forward(r), o, key))
            self.keyed[o].append((self.vocab.inverse(r), s, key))

    def _walk(self, rng, src, dst, excluded):
        position = src
        tokens = []
        visited = {src}
        for _ in range(self.cfg.max_length):
            if tokens and rng.random() < self.cfg.restart_prob:
                position = src
                tokens = []
                visited = {src}
            neighbors = [
                n for n in self.keyed[position]
                if n[1] not in visited and (excluded is None or n[2] != excluded)
            ]
            if not neighbors:
                return None
            token, nxt, _ = neighbors[rng.randrange(len(neighbors))]
            tokens.append(token)
            visited.add(nxt)
            position = nxt
            if position == dst:
                return tuple(tokens)
        return None


def random_multigraph(rng):
    """A small dense graph with parallel edges of different relations between
    one pair, a self-loop and a literal-valued triple."""
    g = KnowledgeGraph()
    rels = [g.add_relation(f"r{i}") for i in range(3)]
    nodes = [g.add_node(f"t:n{i}") for i in range(rng.randint(4, 8))]
    a, b = rng.sample(nodes, 2)
    g.add_triple(a, rels[0], b)
    g.add_triple(a, rels[1], b)
    g.add_triple(b, rels[2], a)
    g.add_triple(rng.choice(nodes), rng.choice(rels), a)
    loop = rng.choice(nodes)
    g.add_triple(loop, rng.choice(rels), loop)
    g.add_triple(rng.choice(nodes), rels[0], Literal("v", "string"))
    for _ in range(rng.randint(len(nodes), 3 * len(nodes))):
        g.add_triple(rng.choice(nodes), rng.choice(rels), rng.choice(nodes))
    return g.freeze()


class TestWalkStepMatchesFilteredList:
    @pytest.mark.parametrize("restart_prob", [0.0, 0.5, 1.0])
    def test_same_paths_and_rng_state(self, restart_prob):
        cases = 0
        for graph_seed in range(25):
            g = random_multigraph(random.Random(graph_seed))
            cfg = SamplerConfig(num_paths=3, max_length=4, walk_budget=5,
                                restart_prob=restart_prob, seed=graph_seed)
            fast, slow = PathSampler(g, cfg), FilteredListSampler(g, cfg)
            triples = node_to_node_triples(g)
            pick = random.Random(f"pairs:{graph_seed}")
            # every triple excluded from its own pair (the training case, which
            # includes the self-loop), then random pairs with a random or no
            # excluded triple, so the walk also reaches excluded endpoints
            # other than its source
            calls = [(s, o, (s, r, o)) for (s, r, o) in triples]
            calls += [(pick.randrange(g.num_nodes), pick.randrange(g.num_nodes),
                       pick.choice(triples + [None])) for _ in range(30)]
            for index, (src, dst, excluded) in enumerate(calls):
                rng_fast = random.Random(f"{graph_seed}:{index}")
                rng_slow = random.Random(f"{graph_seed}:{index}")
                assert (fast.sample_paths(src, dst, rng_fast, excluded)
                        == slow.sample_paths(src, dst, rng_slow, excluded))
                assert rng_fast.getstate() == rng_slow.getstate()
                cases += 1
        assert cases > 25 * 30


class TestTrainingSet:
    def test_sample_count_is_twice_triples(self):
        g, src, dst, island = chain_graph()
        g.add_triple(island, g.relation_id("hasCellValue"), src)
        cfg = SamplerConfig(num_paths=2, max_length=4, walk_budget=4, seed=0)
        samples = list(build_training_set(PathSampler(g, cfg), k_negatives=1))
        assert len(samples) == 2 * len(node_to_node_triples(g))

    def test_negative_relation_differs(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=4, seed=1)
        stream = build_training_set(PathSampler(converted.train, cfg), k_negatives=2)
        for _ in range(60):
            positive = next(stream)
            assert positive.label == 1
            for _ in range(2):
                negative = next(stream)
                assert negative.label == 0
                assert negative.relation != positive.relation
                assert negative.paths == positive.paths

    def test_positive_never_length1_target_relation(self, converted):
        g = converted.train
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=8, seed=2)
        vocab = EdgeVocabulary(g.relation_names())
        stream = build_training_set(PathSampler(g, cfg))
        for sample in list(stream)[:400]:
            if sample.label != 1:
                continue
            forward_token = vocab.forward(sample.relation)
            for path in sample.paths:
                assert not (path[0] == forward_token and path[1] == PAD)

    def test_deterministic_stream(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=6, seed=3)
        a = list(build_training_set(PathSampler(converted.train, cfg)))
        b = list(build_training_set(PathSampler(converted.train, cfg)))
        assert a == b


class TestEvalSet:
    def test_counts_and_exclusions(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=8, seed=0)
        pos, neg = build_eval_set(PathSampler(converted.test, cfg), converted.ground_truth,
                                  num_negatives=100)
        assert len(pos) == len(converted.ground_truth)
        assert len(neg) == 100
        target = converted.test.relation_id("rowDerivedFrom")
        assert all(s.relation == target for s in pos + neg)
        assert all(s.label == 1 for s in pos)
        assert all(s.label == 0 for s in neg)

    def test_negatives_avoid_ground_truth_pairs(self, converted):
        # rebuild the chosen pairs by re-running the seeded selection
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=2, seed=7)
        rows = set(row_nodes(converted.test))
        linked = set(converted.ground_truth) | {
            (s, d) for (d, s) in converted.ground_truth
        }
        pos, neg = build_eval_set(PathSampler(converted.test, cfg), converted.ground_truth,
                                  num_negatives=50)
        assert len({id(s) for s in neg}) == 50
        assert rows  # sanity: row nodes exist
        # ground truth nodes are rows
        for (d, s) in converted.ground_truth:
            assert d in rows and s in rows
        assert linked

    def test_too_many_negatives_requested(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=2, seed=0)
        with pytest.raises(PathError, match="negatives requested"):
            build_eval_set(PathSampler(converted.test, cfg), converted.ground_truth,
                           num_negatives=10 ** 9)

    def test_empty_ground_truth_rejected(self, converted):
        cfg = SamplerConfig(seed=0)
        with pytest.raises(PathError):
            build_eval_set(PathSampler(converted.test, cfg), [], num_negatives=10)


class TestInductiveness:
    def test_samples_carry_only_token_and_relation_ids(self):
        fields = {f.name for f in dataclasses.fields(PathSample)}
        assert fields == {"paths", "relation", "label"}

    def test_token_ids_within_vocabulary(self, converted):
        g = converted.train
        vocab = EdgeVocabulary(g.relation_names())
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=4, seed=0)
        for sample in list(build_training_set(PathSampler(g, cfg)))[:200]:
            for path in sample.paths:
                assert len(path) == cfg.max_length
                assert all(0 <= t < vocab.size for t in path)
            assert 0 <= sample.relation < g.num_relations


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        samples = [
            PathSample(paths=((2, 3, 0), (5, 0, 0)), relation=1, label=1),
            PathSample(paths=((1, 0, 0), (1, 0, 0)), relation=0, label=0),
        ]
        path = tmp_path / "samples.txt"
        save_samples(path, samples)
        assert load_samples(path, num_paths=2, max_length=3) == samples

    def test_bad_token_count(self, tmp_path):
        (tmp_path / "bad.txt").write_text("1 0 2 3\n", encoding="utf-8")
        with pytest.raises(PathError, match="line 1"):
            load_samples(tmp_path / "bad.txt", num_paths=2, max_length=3)

    def test_label_outside_0_1_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text(
            "1 0 2 3 0 5 0 0\n2 0 2 3 0 5 0 0\n", encoding="utf-8")
        with pytest.raises(PathError, match="line 2"):
            load_samples(tmp_path / "bad.txt", num_paths=2, max_length=3)

    def test_non_integer_field_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text("1 0 2 x 0 5 0 0\n", encoding="utf-8")
        with pytest.raises(PathError, match="line 1"):
            load_samples(tmp_path / "bad.txt", num_paths=2, max_length=3)
