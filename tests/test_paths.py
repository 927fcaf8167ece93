import dataclasses
import os
import random
import time

import pytest

from lineagekg import parallel
from lineagekg.convert import split_train_test
from lineagekg.kgstore import RDF_TYPE, KnowledgeGraph, Literal, UnknownNodeError
from lineagekg.paths import (
    NOPATH,
    PAD,
    EdgeVocabulary,
    PairWalk,
    PathError,
    PathSample,
    PathSampler,
    SamplerConfig,
    TrainingPairs,
    build_eval_set,
    build_training_set,
    draw_negatives,
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


def walked(pairs, sample_order=None, test_g=None, ground_truth=(), negatives=()):
    """A PairWalk of pairs, in pair order unless sample_order says otherwise,
    and of the eval pairs over test_g, read to its end: the walk, its training
    set, and its eval positives and negatives."""
    if sample_order is None:
        sample_order = range(len(pairs) * pairs.per_pair)
    walk = PairWalk(pairs, sample_order, pairs.sampler.g if test_g is None else test_g,
                    ground_truth, negatives)
    try:
        train = build_training_set(walk)
        return (walk, train, *build_eval_set(walk))
    finally:
        walk.close()


def training_set(sampler, k_negatives=1):
    """build_training_set over the sampler's pairs, walked in pair order."""
    return walked(TrainingPairs(sampler, k_negatives))[1]


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
        assert vocab.names[vocab.forward(1)] == "hasColumn"
        assert vocab.names[vocab.inverse(1)] == "~hasColumn"
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
    """Reference sampler: one walk per call of its own ``_walk``, which
    rebuilds the filtered neighbour list at every step and draws from it with
    ``randrange``.  ``PathSampler.sample_paths`` must make the same draws and
    count the same walks."""

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

    def sample_paths(self, src, dst, rng, excluded=None):
        found, seen = [], set()
        budget = self.cfg.walk_budget * self.cfg.num_paths
        tried, reached = budget, 0
        for attempt in range(budget):
            walk = self._walk(rng, src, dst, excluded)
            if walk is None:
                continue
            reached += 1
            if walk not in seen:
                seen.add(walk)
                found.append(walk)
                if len(found) >= self.cfg.num_paths:
                    tried = attempt + 1
                    break
        self.walks_tried.append(tried)
        self.walks_reached.append(reached)
        if not found:
            row = (NOPATH,) + (PAD,) * (self.cfg.max_length - 1)
            return tuple(row for _ in range(self.cfg.num_paths))
        padded = [walk + (PAD,) * (self.cfg.max_length - len(walk)) for walk in found]
        return tuple(padded[i % len(padded)] for i in range(self.cfg.num_paths))


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


def dense_multigraph():
    """Five nodes with two parallel edges each way between every pair and
    self-loops on two of them, so that most steps find an earlier visited node
    adjacent, and every excluded triple is one of several parallel edges."""
    g = KnowledgeGraph()
    rels = [g.add_relation(f"r{i}") for i in range(2)]
    nodes = [g.add_node(f"t:n{i}") for i in range(5)]
    for a in nodes:
        for b in nodes:
            if a != b:
                g.add_triple(a, rels[0], b)
                g.add_triple(a, rels[1], b)
    for loop in nodes[:2]:
        g.add_triple(loop, rels[0], loop)
    return g.freeze()


def star_graph(degree):
    """A centre node with ``degree`` leaves, one edge each, alternating the
    relation and the direction, so the centre has ``degree`` adjacency entries."""
    g = KnowledgeGraph()
    rels = [g.add_relation(f"r{i}") for i in range(2)]
    centre = g.add_node("t:centre")
    leaves = [g.add_node(f"t:leaf{index}") for index in range(degree)]
    for index, leaf in enumerate(leaves):
        if index % 2:
            g.add_triple(leaf, rels[index % 4 // 2], centre)
        else:
            g.add_triple(centre, rels[index % 4 // 2], leaf)
    return g.freeze(), centre, leaves


def assert_same_draws(g, cfg, calls, seed_prefix):
    """The indexed sampler and FilteredListSampler return the same paths for
    every (src, dst, excluded) call, count the same walks tried and reached,
    and leave their rngs in the same state."""
    fast, slow = PathSampler(g, cfg), FilteredListSampler(g, cfg)
    for index, (src, dst, excluded) in enumerate(calls):
        rng_fast = random.Random(f"{seed_prefix}:{index}")
        rng_slow = random.Random(f"{seed_prefix}:{index}")
        assert (fast.sample_paths(src, dst, rng_fast, excluded)
                == slow.sample_paths(src, dst, rng_slow, excluded)), (src, dst, excluded)
        assert rng_fast.getstate() == rng_slow.getstate(), (src, dst, excluded)
        assert fast.walks_tried == slow.walks_tried, (src, dst, excluded)
        assert fast.walks_reached == slow.walks_reached, (src, dst, excluded)
    return fast


class TestWalkStepMatchesFilteredList:
    @pytest.mark.parametrize("restart_prob", [0.0, 0.5, 1.0])
    def test_same_paths_and_rng_state(self, restart_prob):
        cases = 0
        graphs = [random_multigraph(random.Random(graph_seed)) for graph_seed in range(25)]
        for graph_seed, g in enumerate(graphs + [dense_multigraph()]):
            cfg = SamplerConfig(num_paths=3, max_length=4, walk_budget=5,
                                restart_prob=restart_prob, seed=graph_seed)
            triples = node_to_node_triples(g)
            pick = random.Random(f"pairs:{graph_seed}")
            # every triple excluded from its own pair (the training case, which
            # includes the self-loop), then random pairs with a random or no
            # excluded triple, so the walk also reaches excluded endpoints
            # other than its source
            calls = [(s, o, (s, r, o)) for (s, r, o) in triples]
            calls += [(pick.randrange(g.num_nodes), pick.randrange(g.num_nodes),
                       pick.choice(triples + [None])) for _ in range(30)]
            assert_same_draws(g, cfg, calls, graph_seed)
            cases += len(calls)
        assert cases > 25 * 30

    @pytest.mark.parametrize("max_length", [1, 2])
    @pytest.mark.parametrize("restart_prob", [0.0, 0.5, 1.0])
    def test_star_draws_at_every_power_of_two(self, max_length, restart_prob):
        # the centre draws among degree or degree - 1 entries, so the draw
        # runs on each side of 2**k for k up to 10; with max_length=2 a walk
        # from a leaf draws among 1 entry, then steps over the entry back
        degrees = [*range(1, 71), 127, 128, 129, 255, 256, 257, 1023, 1024, 1025]
        for degree in degrees:
            g, centre, leaves = star_graph(degree)
            cfg = SamplerConfig(num_paths=3, max_length=max_length, walk_budget=4,
                                restart_prob=restart_prob, seed=degree)
            triples = node_to_node_triples(g)
            pick = random.Random(f"star:{degree}")
            calls = []
            for (s, r, o) in pick.sample(triples, min(3, degree)):
                leaf = o if s == centre else s
                calls += [(centre, leaf, (s, r, o)), (centre, leaf, None),
                          (leaf, pick.choice(leaves), (s, r, o))]
            assert_same_draws(g, cfg, calls, f"star:{degree}")

    @pytest.mark.parametrize("restart_prob", [0.0, 0.5])
    def test_source_without_free_entry(self, restart_prob):
        # a source whose only edge is the excluded triple, and one whose only
        # edge is a self-loop: every walk fails at its first step
        g = KnowledgeGraph()
        rel = g.add_relation("r0")
        a, b, loop = (g.add_node(f"t:{name}") for name in ("a", "b", "loop"))
        g.add_triple(a, rel, b)
        g.add_triple(loop, rel, loop)
        g.freeze()
        cfg = SamplerConfig(num_paths=3, max_length=4, walk_budget=5,
                            restart_prob=restart_prob, seed=0)
        calls = [(a, b, (a, rel, b)), (b, a, (a, rel, b)), (loop, a, None),
                 (loop, loop, (loop, rel, loop)), (loop, b, (a, rel, b))]
        sampler = assert_same_draws(g, cfg, calls, "no-free")
        nopath = ((NOPATH,) + (PAD,) * 3,) * 3
        for src, dst, excluded in calls:
            rng = random.Random(0)
            assert sampler.sample_paths(src, dst, rng, excluded) == nopath
            assert rng.getstate() == random.Random(0).getstate()  # nothing drawn
        assert sampler.walks_tried == [15] * 2 * len(calls)
        assert sampler.walks_reached == [0] * 2 * len(calls)

    def test_real_graph_training_and_eval_pairs(self, converted):
        # an rddl graph with its CellValue and Row class hubs, default sampler
        cfg = SamplerConfig(seed=0)
        assert cfg.max_length == 6 and cfg.restart_prob == 0.2
        triples = node_to_node_triples(converted.train)
        assert_same_draws(converted.train, cfg,
                          [(s, o, (s, r, o)) for (s, r, o) in triples], "train")
        rows = row_nodes(converted.test)
        pick = random.Random("rows")
        pairs = [tuple(pick.sample(rows, 2)) for _ in range(200)]
        assert_same_draws(converted.test, cfg,
                          [(a, b, None) for (a, b) in pairs], "eval")


class TestTrainingSet:
    def test_sample_count_is_twice_triples(self):
        g, src, dst, island = chain_graph()
        g.add_triple(island, g.relation_id("hasCellValue"), src)
        cfg = SamplerConfig(num_paths=2, max_length=4, walk_budget=4, seed=0)
        samples = training_set(PathSampler(g, cfg), k_negatives=1)
        assert len(samples) == 2 * len(node_to_node_triples(g))

    def test_negative_relation_differs(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=4, seed=1)
        stream = iter(training_set(PathSampler(converted.train, cfg), k_negatives=2))
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
        stream = training_set(PathSampler(g, cfg))
        for sample in list(stream)[:400]:
            if sample.label != 1:
                continue
            forward_token = vocab.forward(sample.relation)
            for path in sample.paths:
                assert not (path[0] == forward_token and path[1] == PAD)

    def test_deterministic_stream(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=6, seed=3)
        a = training_set(PathSampler(converted.train, cfg))
        b = training_set(PathSampler(converted.train, cfg))
        assert a == b


class TestEvalSet:
    def test_counts_and_exclusions(self, converted):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=8, seed=0)
        pos, neg = eval_set(PathSampler(converted.test, cfg), converted.ground_truth,
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
        pos, neg = eval_set(PathSampler(converted.test, cfg), converted.ground_truth,
                            num_negatives=50)
        assert len({id(s) for s in neg}) == 50
        assert rows  # sanity: row nodes exist
        # ground truth nodes are rows
        for (d, s) in converted.ground_truth:
            assert d in rows and s in rows
        assert linked

    def test_negatives_exclude_transitively_linked_pairs(self, monkeypatch):
        # a derives from b and b from c, so a and c are linked too; d is free
        g = KnowledgeGraph()
        type_rel = g.add_relation(RDF_TYPE)
        g.add_relation("rowDerivedFrom")
        row_class = g.add_node("t:Row")
        a, b, c, d = (g.add_node(f"t:{name}") for name in "abcd")
        for row in (a, b, c, d):
            g.add_triple(row, type_rel, row_class)
        ground_truth = [(a, b), (b, c)]
        cfg = SamplerConfig(num_paths=1, max_length=2, walk_budget=1, seed=0)
        with pytest.raises(PathError, match="only 6 distinct non-linked row pairs"):
            draw_negatives(g, ground_truth, 7, cfg.seed)
        use_cpus(monkeypatch, 1)
        walked_pairs = record_pairs(monkeypatch)
        eval_set(PathSampler(g, cfg), ground_truth, num_negatives=6)
        assert set(walked_pairs[2:]) == {(a, d), (d, a), (b, d), (d, b), (c, d), (d, c)}

    @pytest.mark.parametrize("task", ["selection-projection", "selection-linear",
                                      "selection-nonlinear"])
    def test_no_transitively_linked_negatives_at_paper_scale(self, task, monkeypatch):
        # paper preset, rddl profile, seed 0: its ground truth chains rows
        db = northwind_fixture(rows_per_table=50, seed=0)
        suite = ScenarioSuite(db=db)
        suite.scenarios[task] = [
            generate_scenario(db, task_by_name(task), 0, i) for i in range(20)]
        split = split_train_test(suite, task, "rddl", 17)
        linked = set(split.ground_truth)
        while True:  # transitive closure by repeated composition
            derived = {(x, z) for (x, y) in linked for (y2, z) in split.ground_truth
                       if y == y2}
            if derived <= linked:
                break
            linked |= derived
        assert len(linked) > len(split.ground_truth)
        use_cpus(monkeypatch, 1)
        walked_pairs = record_pairs(monkeypatch)
        eval_set(PathSampler(split.test, SamplerConfig(num_paths=1, walk_budget=1, seed=0)),
                 split.ground_truth, num_negatives=4000)
        negatives = walked_pairs[len(split.ground_truth):]
        assert len(negatives) == 4000
        assert not [(x, y) for (x, y) in negatives
                    if (x, y) in linked or (y, x) in linked]

    def test_too_many_negatives_requested(self, converted):
        with pytest.raises(PathError, match="negatives requested"):
            draw_negatives(converted.test, converted.ground_truth, 10 ** 9, 0)

    def test_empty_ground_truth_rejected(self, converted):
        with pytest.raises(PathError, match="ground truth is empty"):
            draw_negatives(converted.test, [], 10, 0)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def eval_set(sampler, ground_truth, num_negatives):
    """build_eval_set over the sampler's graph and the negatives the pipeline
    draws for the sampler's seed, with no training pair."""
    negatives = draw_negatives(sampler.g, ground_truth, num_negatives, sampler.cfg.seed)
    return walked(TrainingPairs(sampler, 0), (), sampler.g, ground_truth, negatives)[2:]


def fail_at(monkeypatch, failures):
    """Make sample_paths raise when it walks for one of the given excluded
    triples (training pairs), or, for an int, end the forked child that walks
    it with that exit code."""
    sample_paths = PathSampler.sample_paths
    caller = os.getpid()

    def patched(self, src, dst, rng, excluded=None):
        failure = failures.get(excluded)
        if isinstance(failure, int):
            assert os.getpid() != caller, "that pair runs in this process"
            os._exit(failure)
        if failure is not None:
            raise failure
        return sample_paths(self, src, dst, rng, excluded)

    monkeypatch.setattr(PathSampler, "sample_paths", patched)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def record_pairs(monkeypatch):
    """The (src, dst) pair of every sample_paths call in this process, as
    they are made."""
    sample_paths, pairs = PathSampler.sample_paths, []

    def recording(self, src, dst, rng, excluded=None):
        pairs.append((src, dst))
        return sample_paths(self, src, dst, rng, excluded)

    monkeypatch.setattr(PathSampler, "sample_paths", recording)
    return pairs


class TestProcesses:
    def build_both(self, converted, cpus, monkeypatch):
        use_cpus(monkeypatch, cpus)
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=3, seed=6)
        negatives = draw_negatives(converted.test, converted.ground_truth, 40, cfg.seed)
        walk, train, pos, neg = walked(
            TrainingPairs(PathSampler(converted.train, cfg), k_negatives=2),
            test_g=converted.test, ground_truth=converted.ground_truth, negatives=negatives)
        return {"train": train, "pos": pos, "neg": neg, "walk_counts": walk.walk_counts,
                "walk_stats": walk.walk_stats(), "processes": len(walk.pids)}

    def test_same_samples_and_walk_stats_for_any_process_count(
            self, converted, monkeypatch):
        serial = self.build_both(converted, 1, monkeypatch)
        forked = self.build_both(converted, 3, monkeypatch)
        assert serial.pop("processes") == 1
        assert forked.pop("processes") == 3
        assert forked == serial
        assert_no_child_left()
        # the serial loops the walk replaces: each pair walks with its own rng
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=3, seed=6)
        loop = PathSampler(converted.train, cfg)
        paths = [loop.sample_paths(s, o, random.Random(f"6:train:{i}"), (s, r, o))
                 for i, (s, r, o) in enumerate(node_to_node_triples(converted.train))]
        assert [sample.paths for sample in forked["train"][::3]] == paths
        counts = list(zip(loop.walks_tried, loop.walks_reached))
        assert forked["walk_counts"][:len(paths)] == counts  # walked in pair order
        assert len(set(loop.walks_tried)) > 1 and len(set(loop.walks_reached)) > 1
        loop = PathSampler(converted.test, cfg)
        pos = [loop.sample_paths(d, s, random.Random(f"6:eval:pos:{i}"))
               for i, (d, s) in enumerate(converted.ground_truth)]
        assert [sample.paths for sample in forked["pos"]] == pos
        assert forked["walk_counts"][len(paths):len(paths) + len(pos)] == list(
            zip(loop.walks_tried, loop.walks_reached))
        stats = forked["walk_stats"]
        assert stats["train.pairs"] == len(paths) and stats["eval_neg.pairs"] == 40
        assert stats["train.walks_attempted"] == sum(t for t, _ in counts)

    def test_training_set_walks_each_pair_once_in_first_read_order(
            self, converted, monkeypatch, tmp_path):
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=3, seed=6)
        count = len(node_to_node_triples(converted.train))
        sample_order = list(range(3 * count))
        random.Random(1).shuffle(sample_order)
        order = list(dict.fromkeys(i // 3 for i in sample_order))
        batches, record = [], tmp_path / "walks"
        fork_imap, walk_pair = parallel.fork_imap, TrainingPairs.walk

        def recording(count, fn, batch):
            batches.append(batch)
            return fork_imap(count, fn, batch)

        def noting(pairs, index):
            with record.open("a") as fh:
                fh.write(f"{os.getpid()} {os.getppid()} {index}\n")
            return walk_pair(pairs, index)

        expected = training_set(PathSampler(converted.train, cfg), k_negatives=2)
        monkeypatch.setattr("lineagekg.paths.fork_imap", recording)
        monkeypatch.setattr(TrainingPairs, "walk", noting)
        for cpus in (1, 3):
            use_cpus(monkeypatch, cpus)
            for streamed in (False, True):
                record.write_text("")
                pairs = TrainingPairs(PathSampler(converted.train, cfg), k_negatives=2)
                walk = PairWalk(pairs, sample_order, converted.train, [], [], streamed)
                try:  # read as the trainer reads it, then whole
                    read = [walk[i] for i in sample_order]
                    samples = build_training_set(walk)
                finally:
                    walk.close()
                assert samples == expected  # in pair order, whatever the walk order
                assert read == [expected[i] for i in sample_order]
                by_pid = {}
                for line in record.read_text().splitlines():
                    pid, ppid, index = map(int, line.split())
                    by_pid.setdefault((pid, ppid), []).append(index)
                if cpus == 1:  # this process walks every pair, in the order read
                    assert by_pid == {(os.getpid(), os.getppid()): order}
                    continue
                # each child of this process walks its share in order
                assert {ppid for _, ppid in by_pid} == {os.getpid()}
                assert sorted(by_pid.values()) == sorted(order[share::3] for share in range(3))
        # children send each pair at once only to a reader that reads as they walk
        assert batches == [count, 1, count, 1]
        assert_no_child_left()

    def test_a_child_a_full_pipe_ahead_waits_for_the_next_missed_read(
            self, converted, monkeypatch, tmp_path):
        # ten 16-token paths a pair: each child's records overflow its pipe
        cfg = SamplerConfig(num_paths=10, max_length=16, walk_budget=2, seed=0)
        use_cpus(monkeypatch, 1)
        expected = training_set(PathSampler(converted.train, cfg), k_negatives=2)
        record, walk_pair = tmp_path / "walks", TrainingPairs.walk

        def noting(pairs, index):
            with record.open("a") as fh:
                fh.write(f"{index}\n")
            return walk_pair(pairs, index)

        def walked_once_still():
            """The pairs walked, once half a second passed without a walk."""
            deadline = time.monotonic() + 30
            last, walked = None, record.read_text().split()
            while walked != last:
                assert time.monotonic() < deadline, "the children never stopped"
                time.sleep(0.5)
                last, walked = walked, record.read_text().split()
            return {int(index) for index in walked}

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(TrainingPairs, "walk", noting)
        record.write_text("")
        pairs = TrainingPairs(PathSampler(converted.train, cfg), k_negatives=2)
        walk = PairWalk(pairs, range(3 * len(pairs)), converted.train, [], [], streamed=True)
        try:
            first = walk[0]
            stopped = walked_once_still()
            assert len(stopped) < len(pairs)  # the children wait on full pipes
            missing = walk.missing
            for _ in range(100):  # reads of present samples take nothing in
                assert walk[0] is first
            assert walk.missing == missing
            assert walked_once_still() == stopped
            # a read of a pair not walked yet takes in what the pipes hold
            unwalked = min(set(range(len(pairs))) - stopped)
            assert walk[3 * unwalked] == expected[3 * unwalked]
            assert len(walked_once_still()) > len(stopped)
            assert build_training_set(walk) == expected
        finally:
            walk.close()
        assert_no_child_left()

    def test_fork_missing_or_failing_runs_every_share_here(
            self, converted, monkeypatch):
        serial = self.build_both(converted, 1, monkeypatch)

        def no_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", no_fork)
        assert self.build_both(converted, 3, monkeypatch) == serial
        monkeypatch.delattr(os, "fork")
        assert self.build_both(converted, 3, monkeypatch) == serial

    def test_fewer_pairs_than_processes(self, monkeypatch):
        g, src, dst, island = chain_graph()
        cfg = SamplerConfig(num_paths=2, max_length=4, walk_budget=4, seed=0)
        runs = []
        for cpus in (1, 8):
            use_cpus(monkeypatch, cpus)
            walk, train, _, _ = walked(TrainingPairs(PathSampler(g, cfg)))
            runs.append((train, walk.walk_stats(), len(walk.pids)))
        assert runs[0][2] == 1 and runs[1][2] == 2  # one process per pair
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][1]["train.pairs"] == 2

    def test_graph_without_node_to_node_triples(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        g = KnowledgeGraph()
        rel = g.add_relation("exactValue")
        g.add_relation("hasCellValue")
        g.add_triple(g.add_node("t:a"), rel, Literal("v", "string"))
        walk, train, _, _ = walked(TrainingPairs(PathSampler(g, SamplerConfig(seed=0))))
        assert train == []
        assert walk.walk_stats()["train.pairs"] == 0

    def test_child_exception_reraised(self, converted, monkeypatch):
        triples = node_to_node_triples(converted.train)
        use_cpus(monkeypatch, 3)
        fail_at(monkeypatch, {triples[4]: PathError("walk failed at pair 4")})
        cfg = SamplerConfig(num_paths=1, max_length=4, walk_budget=1, seed=0)
        with pytest.raises(PathError, match="^walk failed at pair 4$"):
            training_set(PathSampler(converted.train, cfg))
        assert_no_child_left()

    def test_first_failing_pair_in_walk_order_is_raised(self, converted, monkeypatch):
        # walked last pair first, pair n - 3 fails in share 2 and pair n - 4
        # in share 0: a serial loop in walk order meets pair
        # n - 3 first, though pair order puts it later
        triples = node_to_node_triples(converted.train)
        use_cpus(monkeypatch, 3)
        fail_at(monkeypatch, {triples[-3]: PathError("first"),
                              triples[-4]: KeyError("later")})
        cfg = SamplerConfig(num_paths=1, max_length=4, walk_budget=1, seed=0)
        pairs = TrainingPairs(PathSampler(converted.train, cfg))
        with pytest.raises(PathError, match="^first$"):
            walked(pairs, range(2 * len(pairs) - 1, -1, -1))
        assert_no_child_left()

    def test_unknown_ground_truth_node_reraised(self, converted, monkeypatch):
        use_cpus(monkeypatch, 3)
        bad = converted.test.num_nodes
        ground_truth = list(converted.ground_truth)
        ground_truth[1] = (ground_truth[1][0], bad)  # pair 1 runs in a child
        cfg = SamplerConfig(num_paths=1, max_length=4, walk_budget=1, seed=0)
        with pytest.raises(UnknownNodeError, match=f"unknown node: {bad}"):
            eval_set(PathSampler(converted.test, cfg), ground_truth, num_negatives=10)
        assert_no_child_left()

    def test_child_that_dies_is_reported(self, converted, monkeypatch):
        # share 1 dies; share 2's child is still unread, so it is killed and reaped
        triples = node_to_node_triples(converted.train)
        use_cpus(monkeypatch, 3)
        fail_at(monkeypatch, {triples[1]: 3})
        cfg = SamplerConfig(num_paths=1, max_length=4, walk_budget=1, seed=0)
        with pytest.raises(PathError, match="exited with code 3"):
            training_set(PathSampler(converted.train, cfg))
        assert_no_child_left()


class TestInductiveness:
    def test_samples_carry_only_token_and_relation_ids(self):
        fields = {f.name for f in dataclasses.fields(PathSample)}
        assert fields == {"paths", "relation", "label"}

    def test_token_ids_within_vocabulary(self, converted):
        g = converted.train
        vocab = EdgeVocabulary(g.relation_names())
        cfg = SamplerConfig(num_paths=3, max_length=6, walk_budget=4, seed=0)
        for sample in training_set(PathSampler(g, cfg))[:200]:
            for path in sample.paths:
                assert len(path) == cfg.max_length
                assert all(0 <= t < vocab.size for t in path)
            assert 0 <= sample.relation < g.num_relations


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        samples = [
            PathSample(paths=((2, 3, 0), (5, 0, 0)), relation=1, label=1),
            PathSample(paths=((1, 0, 0), (1, 0, 0)), relation=0, label=0),
            PathSample(paths=((2, 3, 0), (5, 0, 0)), relation=0, label=0),
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
