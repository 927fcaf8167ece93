"""Edge-type path sampling and dataset assembly for the sequence model.

Paths are sequences of relation-type tokens (forward or inverse traversal),
never node identities, so samples built on one graph transfer to graphs with
entirely new nodes.  Walks are random with restart; if nothing connects a
pair, the degenerate [NOPATH, PAD, ...] encoding is used.

``PathSampler.sample_paths`` runs a pair's whole walk budget in one loop.  It
binds the per-node tables, the rng's methods and the excluded triple's tokens
once per pair.  The source step (each walk's first step, and the one after a
restart) sees only the source visited, so the source's free entries are listed
once per pair and the step indexes that list.  Any other step draws among the
current node's adjacency entries by stepping over the few blocked positions,
those of the entries back to a visited node.  Each node maps every neighbour
to its entry positions, so the positions back to the node the walk came from
take one lookup, and the other visited nodes (the current one included, for
its self-loops) are scanned only when the map's keys view is not disjoint from
them: on the desk preset's union-linear graph, about one step in ten.  The
draw is ``rng.randrange(free)`` inlined as the getrandbits rejection loop that
CPython's ``randrange(n)`` runs for ``n > 0``
(``Random._randbelow_with_getrandbits``), so a step makes the same rng calls
without two Python frames.  That helper is private; the inlined loop was
checked against ``randrange`` (values and final rng state) on CPython
3.9-3.13, and ``TestWalkStepMatchesFilteredList`` in ``tests/test_paths.py``
compares every sample, walk count and rng state with a sampler that walks
once per call, filters the neighbour list at every step and calls
``randrange``: on random multigraphs, on a dense multigraph with parallel
edges and self-loops, on star graphs whose draws straddle each power of two up
to 1024, on sources without a free entry, and on a converted rddl graph.

``PairWalk`` walks every pair of a cell's sample-paths once, in one
``parallel.fork_imap``: on P = min(usable CPUs, pairs) > 1 the j-th pair runs
in share j % P of P forked children, and the caller walks none.  Neither the
process count nor the walk order can change an artifact: every pair walks
with its own rng, seeded by the pair's index alone, on a sampler nobody else
mutates; the samples are returned in pair order; and the walk counts only
ever enter sums.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, KeysView, Optional, Sequence

from .kgstore import RDF_TYPE, KnowledgeGraph, Literal
from .parallel import fork_imap

PAD = 0
NOPATH = 1


class PathError(Exception):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    num_paths: int = 3
    max_length: int = 6
    walk_budget: int = 64  # attempts per path slot
    restart_prob: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1 or self.max_length < 1 or self.walk_budget < 1:
            raise PathError("num_paths, max_length and walk_budget must be >= 1")
        if not 0.0 <= self.restart_prob <= 1.0:
            raise PathError("restart_prob must be in [0, 1]")


class EdgeVocabulary:
    """Token ids over {relation x direction} plus PAD and NOPATH."""

    def __init__(self, relation_names: Sequence[str]):
        self.relation_names = list(relation_names)
        self.names = ["<pad>", "<nopath>"]
        for name in self.relation_names:
            self.names.append(name)  # forward
            self.names.append(f"~{name}")  # inverse
        self.size = len(self.names)

    def forward(self, rel_id: int) -> int:
        return 2 + 2 * rel_id

    def inverse(self, rel_id: int) -> int:
        return 3 + 2 * rel_id

    def decode(self, token: int) -> Optional[tuple[int, bool]]:
        """(relation id, is_inverse) for edge tokens, None for PAD/NOPATH."""
        if token < 2:
            return None
        return (token - 2) // 2, bool((token - 2) % 2)

    def save(self, path) -> None:
        lines = [f"{i}\t{name}" for i, name in enumerate(self.names)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "EdgeVocabulary":
        names = []
        for lineno, line in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            _, tab, name = line.partition("\t")
            if not tab:
                raise PathError(f"line {lineno}: no tab between id and name")
            names.append(name)
        relation_names = [n for n in names[2::2]]
        vocab = cls(relation_names)
        if vocab.names != names:
            raise PathError("inconsistent vocabulary file")
        return vocab


@dataclass(frozen=True)
class PathSample:
    """Model input: edge-token paths, a target relation id and a binary label."""

    paths: tuple[tuple[int, ...], ...]
    relation: int
    label: int


class PathSampler:
    """Seeded random-walk path sampler over one (frozen) graph.

    ``nodes`` holds, per node, one ``(entries, positions, keys, degree)``
    tuple over its node-to-node triples in both directions: the adjacency
    entries ``(token, neighbour)``; ``positions``, a map from each neighbour
    to the ascending tuple of its positions in ``entries`` (more than one for
    parallel edges, and two for each self-loop); that map's keys view; and
    ``len(entries)``.  Each ``sample_paths`` call appends one entry to
    ``walks_tried`` and one to ``walks_reached``: its walks attempted and the
    walks that reached the target, which ``_walker`` pops per pair.
    """

    def __init__(self, g: KnowledgeGraph, cfg: SamplerConfig):
        self.g = g
        self.cfg = cfg
        self.vocab = EdgeVocabulary(g.relation_names())
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
        for (s, r, o) in g.triples():
            if isinstance(o, Literal):
                continue
            adjacency[s].append((self.vocab.forward(r), o))
            adjacency[o].append((self.vocab.inverse(r), s))
        self.nodes: list[tuple[list[tuple[int, int]], dict[int, tuple[int, ...]],
                               KeysView[int], int]] = []
        for entries in adjacency:
            positions: dict[int, tuple[int, ...]] = {}
            for i, (_, neighbour) in enumerate(entries):
                positions[neighbour] = positions.get(neighbour, ()) + (i,)
            self.nodes.append((entries, positions, positions.keys(), len(entries)))
        self.walks_tried: list[int] = []
        self.walks_reached: list[int] = []

    def sample_paths(self, src: int, dst: int, rng: random.Random,
                     excluded: Optional[tuple] = None) -> tuple[tuple[int, ...], ...]:
        """num_paths padded token sequences for actual walks src -> dst.

        Up to ``walk_budget * num_paths`` random simple walks (no node
        revisits) with restart, until ``num_paths`` distinct ones reached
        ``dst``.  A step draws uniformly among the current node's entries that
        lead to an unvisited node and are not the excluded triple, with the
        same rng calls as ``rng.randrange`` over the filtered list would make:
        the draw is the rank among unblocked entries, mapped to a position by
        stepping over the sorted blocked positions (usually one: the entry
        back to the previous node).  The draw is ``randrange(free)`` inlined
        as the getrandbits rejection loop of
        ``Random._randbelow_with_getrandbits``; the module docstring names the
        versions and tests that check it.  The source step, each walk's first
        and the one after a restart, sees only ``src`` visited, so its free
        entries and draw width are computed once per pair, and its draw is
        the index into those entries.
        """
        self.g._check_node(src)
        self.g._check_node(dst)
        cfg = self.cfg
        nodes = self.nodes
        random_, getrandbits = rng.random, rng.getrandbits
        restart_prob = cfg.restart_prob
        max_length, num_paths = cfg.max_length, cfg.num_paths
        steps = range(max_length)
        ex_s = ex_o = -1
        if excluded is not None:
            ex_s, ex_r, ex_o = excluded
            ex_forward = self.vocab.forward(ex_r)
            ex_inverse = self.vocab.inverse(ex_r)
        # the source step draws among src's entries that are neither back to
        # src (self-loops) nor the excluded triple's
        src_entries, src_positions, _, _ = nodes[src]
        src_blocked = set(src_positions.get(src, ()))
        if src == ex_s:
            src_blocked.update(_entries_to(src_entries, src_positions, ex_o, ex_forward))
        if src == ex_o:
            src_blocked.update(_entries_to(src_entries, src_positions, ex_s, ex_inverse))
        src_choices = [entry for i, entry in enumerate(src_entries) if i not in src_blocked]
        src_free = len(src_choices)
        src_bits = src_free.bit_length()
        found: list[tuple[int, ...]] = []
        seen: set = set()
        budget = cfg.walk_budget * num_paths
        tried, reached = budget, 0
        # with no free source entry every walk fails at its first step, which
        # draws nothing
        for attempt in range(budget if src_free else 0):
            tokens: list[int] = []
            for _ in steps:
                if tokens and random_() < restart_prob:
                    tokens = []
                if not tokens:
                    pick = getrandbits(src_bits)
                    while pick >= src_free:
                        pick = getrandbits(src_bits)
                    token, position = src_choices[pick]
                    # the walk came from ``back``; ``earlier`` holds the other
                    # visited nodes, the current one last
                    back, earlier = src, [position]
                else:
                    entries, positions, keys, degree = nodes[position]
                    # positions of the entries to visited nodes: those back to
                    # ``back``, and only if one is adjacent, those to the
                    # ``earlier`` nodes, this one included (self-loops)
                    blocked = positions[back]
                    if not keys.isdisjoint(earlier):
                        blocked = [*blocked]
                        for node in earlier:
                            if node in keys:
                                blocked += positions[node]
                        blocked.sort()
                    # the excluded triple's entry, once: it may lead to a visited node
                    if position == ex_s:
                        blocked = sorted({*blocked, *_entries_to(
                            entries, positions, ex_o, ex_forward)})
                    if position == ex_o:
                        blocked = sorted({*blocked, *_entries_to(
                            entries, positions, ex_s, ex_inverse)})
                    free = degree - len(blocked)
                    if not free:
                        break
                    k = free.bit_length()
                    pick = getrandbits(k)
                    while pick >= free:
                        pick = getrandbits(k)
                    if len(blocked) == 1:
                        if blocked[0] <= pick:
                            pick += 1
                    else:
                        for i in blocked:
                            if i > pick:
                                break
                            pick += 1
                    earlier[-1], back = back, position
                    token, position = entries[pick]
                    earlier.append(position)
                tokens.append(token)
                if position == dst:
                    break
            if position != dst:
                continue  # no free entry, or max_length steps
            reached += 1
            walk = tuple(tokens)
            if walk not in seen:
                seen.add(walk)
                found.append(walk)
                if len(found) >= num_paths:
                    tried = attempt + 1
                    break
        self.walks_tried.append(tried)
        self.walks_reached.append(reached)
        if not found:
            row = (NOPATH,) + (PAD,) * (max_length - 1)
            return tuple(row for _ in range(num_paths))
        padded = [walk + (PAD,) * (max_length - len(walk)) for walk in found]
        return tuple(padded[i % len(padded)] for i in range(num_paths))


def _entries_to(entries: list[tuple[int, int]], positions: dict[int, tuple[int, ...]],
                neighbour: int, token: int) -> list[int]:
    """The positions of the entries to ``neighbour`` with ``token``: the
    excluded triple's entry."""
    return [i for i in positions.get(neighbour, ()) if entries[i][0] == token]


def node_to_node_triples(g: KnowledgeGraph) -> list[tuple]:
    return [t for t in g.triples() if not isinstance(t[2], Literal)]


class TrainingPairs:
    """The training set's pairs: one per node-to-node triple of the sampler's
    graph, in triple order.  Pair i's samples are the training set's samples
    ``i * per_pair`` to ``i * per_pair + k_negatives``: one positive, then
    ``k_negatives`` copies with the relation corrupted and the same paths.
    Each pair walks with its own rng, seeded by its index alone, so the pairs
    may be walked in any order and in any process."""

    def __init__(self, sampler: PathSampler, k_negatives: int = 1):
        if sampler.g.num_relations < 2 and k_negatives > 0:
            raise PathError("relation corruption needs at least two relations")
        self.sampler = sampler
        self.k_negatives = k_negatives
        self.per_pair = 1 + k_negatives
        self.triples = node_to_node_triples(sampler.g)

    def __len__(self) -> int:
        return len(self.triples)

    def walk(self, index: int) -> tuple[int, tuple, list[int]]:
        """Pair ``index``'s record: its triple's relation, its paths and its
        corrupted relations, from which ``PairWalk.take`` makes the pair's
        samples."""
        s, r, o = self.triples[index]
        rng = random.Random(f"{self.sampler.cfg.seed}:train:{index}")
        paths = self.sampler.sample_paths(s, o, rng, excluded=(s, r, o))
        num_relations = self.sampler.g.num_relations
        corrupted = []
        for _ in range(self.k_negatives):  # drawn after the walks, from the same rng
            relation = rng.randrange(num_relations - 1)
            corrupted.append(relation + 1 if relation >= r else relation)
        return r, paths, corrupted


def row_nodes(g: KnowledgeGraph) -> list[int]:
    """Nodes asserted rdf:type Row (by class-node local name)."""
    if not g.has_relation(RDF_TYPE):
        return []
    type_rel = g.relation_id(RDF_TYPE)
    rows: list[int] = []
    for (s, _, o) in g.lookup(r=type_rel):
        if isinstance(o, Literal):
            continue
        if g.local_name(o) == "Row":
            rows.append(s)
    return rows


def _transitive_closure(pairs: Sequence[tuple[int, int]]) -> set[tuple[int, int]]:
    """Every (a, c) joined by a chain of pairs (a, b), (b, ...), ..., (..., c)."""
    successors: dict[int, list[int]] = {}
    for a, b in pairs:
        successors.setdefault(a, []).append(b)
    closure = set()
    for start in successors:
        reached: set[int] = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node not in reached:
                reached.add(node)
                stack.extend(successors.get(node, ()))
        closure.update((start, node) for node in reached)
    return closure


def draw_negatives(g: KnowledgeGraph, ground_truth: Sequence[tuple[int, int]],
                   count: int, seed: int) -> list[tuple[int, int]]:
    """``count`` distinct ordered pairs of ``g``'s row nodes for the eval
    set's negatives, drawn with the rng seeded ``f"{seed}:eval"``.

    A pair never joins a row to itself, nor two rows that a chain of
    ground-truth edges links in either direction.  Small candidate sets are
    drawn from a pool of every candidate, large ones by rejection.  Raises
    ``PathError`` before drawing when fewer than ``count`` candidates exist.
    """
    if not ground_truth:
        raise PathError("ground truth is empty")
    rng = random.Random(f"{seed}:eval")
    rows = row_nodes(g)
    linked = _transitive_closure(ground_truth)
    linked |= {(s, d) for (d, s) in linked}
    n = len(rows)
    if n < 2:
        raise PathError("not enough row nodes for negatives")

    row_set = set(rows)
    candidates_total = n * (n - 1) - sum(
        1 for (a, b) in linked if a in row_set and b in row_set and a != b
    )
    if candidates_total < count:
        raise PathError(
            f"only {candidates_total} distinct non-linked row pairs available,"
            f" {count} negatives requested"
        )

    if n * (n - 1) <= 4 * count or n * (n - 1) <= 20000:
        pool = [
            (a, b) for a in rows for b in rows
            if a != b and (a, b) not in linked
        ]
        return rng.sample(pool, count)
    chosen: list[tuple[int, int]] = []
    chosen_set: set = set()
    while len(chosen) < count:
        a = rows[rng.randrange(n)]
        b = rows[rng.randrange(n)]
        if a == b or (a, b) in linked or (a, b) in chosen_set:
            continue
        chosen_set.add((a, b))
        chosen.append((a, b))
    return chosen


def _walker(pairs: TrainingPairs, order: list[int], test_g: KnowledgeGraph,
            eval_pairs: list[tuple[int, int, str]]) -> Callable[[int], tuple]:
    """``PairWalk``'s j-th pair: the training pair ``order[j]``'s record
    (``TrainingPairs.walk``), or past those an eval pair's paths, with its
    walk counts and the walking process's pid."""
    cfg = pairs.sampler.cfg
    test_sampler: Optional[PathSampler] = None

    def walk(j: int) -> tuple:
        nonlocal pairs, test_sampler
        if j < len(order):
            sampler = pairs.sampler
            value = pairs.walk(order[j])
        else:
            if test_sampler is None:
                pairs = None
                test_sampler = PathSampler(test_g, cfg)
            sampler = test_sampler
            src, dst, seed = eval_pairs[j - len(order)]
            value = sampler.sample_paths(src, dst, random.Random(seed))
        return value, sampler.walks_tried.pop(), sampler.walks_reached.pop(), os.getpid()

    return walk


class PairWalk:
    """The training pairs of ``pairs``, walked in the order in which
    ``sample_order`` (an order of every training sample) first reads one of
    each pair's samples, then a positive per ground-truth pair and a negative
    per row pair of ``negatives`` over ``test_g``, walked in forked children
    where it can (module docstring).  A walking process indexes the test graph
    at its first eval pair, after dropping the train graph's index
    (``_walker``).

    As a sequence, the training set in pair order, which fills while it is
    read: a read of a present sample takes nothing in, and a read of a missing
    one calls ``take`` until its pair is in.  Pairs this process walks (a fork
    failed, or P = 1) come first; a child a full pipe ahead of the reader waits
    until the reader's next miss (``parallel.fork_imap``).  With ``streamed``,
    children send each pair as it is walked, else their whole shares.  Once a
    walk fails, every ``take`` raises its failure; ``close`` kills and reaps
    the children of a walk not read to its end.
    """

    def __init__(self, pairs: TrainingPairs, sample_order: Sequence[int],
                 test_g: KnowledgeGraph, ground_truth: Sequence[tuple[int, int]],
                 negatives: Sequence[tuple[int, int]], streamed: bool = False):
        seed = pairs.sampler.cfg.seed
        # positives then negatives, each walked with the rng of its own index
        eval_pairs = [(dst, src, f"{seed}:eval:pos:{idx}")
                      for idx, (dst, src) in enumerate(ground_truth)]
        eval_pairs += [(a, b, f"{seed}:eval:neg:{idx}") for idx, (a, b) in enumerate(negatives)]
        self.order = list(dict.fromkeys(i // pairs.per_pair for i in sample_order))
        self.per_pair = pairs.per_pair
        count = len(self.order) + len(eval_pairs)
        self.positives = len(ground_truth)
        self.target = test_g.relation_id("rowDerivedFrom") if eval_pairs else -1
        self.vocab = pairs.sampler.vocab
        self.samples: list[Optional[PathSample]] = [None] * len(self.order) * self.per_pair
        self.eval_samples: list[Optional[PathSample]] = [None] * len(eval_pairs)
        # per pair walked, in walk order: (walks attempted, walks that reached)
        self.walk_counts: list[Optional[tuple[int, int]]] = [None] * count
        self.pids: set[int] = set()
        self.missing = len(self.order)  # training pairs not taken in yet
        self.failure: Optional[Exception] = None
        self._results = fork_imap(
            count,
            _walker(pairs, self.order, test_g, eval_pairs),
            1 if streamed else max(1, count))

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> PathSample:
        while self.samples[index] is None:
            self.take()
        return self.samples[index]

    def take(self) -> bool:
        """Takes in the next pair walked, waiting for it; False once every
        pair is in."""
        if self.failure is not None:
            raise self.failure
        try:
            result = next(self._results, None)
        except ChildProcessError as exc:
            self.failure = PathError(f"path sampling failed: {exc}")
            raise self.failure from exc
        except Exception as exc:
            self.failure = exc
            raise
        if result is None:
            return False
        j, (value, tried, reached, pid) = result
        if j < len(self.order):
            # the positive, then one negative per corrupted relation
            relation, paths, corrupted = value
            start = self.order[j] * self.per_pair
            self.samples[start:start + self.per_pair] = [PathSample(paths, relation, 1)] + [
                PathSample(paths, c, 0) for c in corrupted]
            self.missing -= 1
        else:
            e = j - len(self.order)
            self.eval_samples[e] = PathSample(value, self.target, int(e < self.positives))
        self.walk_counts[j] = tried, reached
        self.pids.add(pid)
        return True

    def walk_stats(self) -> dict[str, int]:
        """Once every pair is in: per part (train, eval_pos, eval_neg), its
        pairs, walks attempted, walks that reached the target and NOPATH pairs
        (no walk reached), keyed ``part.count``."""
        bounds = (0, len(self.order), len(self.order) + self.positives, None)
        stats = {}
        for part, start, stop in zip(("train", "eval_pos", "eval_neg"), bounds, bounds[1:]):
            tried = [t for t, _ in self.walk_counts[start:stop]]
            reached = [r for _, r in self.walk_counts[start:stop]]
            stats |= {f"{part}.pairs": len(tried), f"{part}.walks_attempted": sum(tried),
                      f"{part}.walks_reached": sum(reached), f"{part}.nopath": reached.count(0)}
        return stats

    def close(self) -> None:
        self._results.close()


def build_training_set(walk: PairWalk) -> list[PathSample]:
    """The walk's training set, once every training pair is in."""
    while walk.missing:
        walk.take()
    return list(walk.samples)


def build_eval_set(walk: PairWalk) -> tuple[list[PathSample], list[PathSample]]:
    """The walk's eval positives and negatives, once every pair is walked."""
    while walk.take():
        pass
    return walk.eval_samples[:walk.positives], walk.eval_samples[walk.positives:]


# -- flat text serialization -----------------------------------------------------


def save_samples(path, samples) -> None:
    # a pair's positive and its corrupted copies share their paths, so each
    # distinct path set is formatted once
    formatted: dict[tuple, str] = {}
    with Path(path).open("w", encoding="utf-8") as fh:
        for sample in samples:
            tokens = formatted.get(sample.paths)
            if tokens is None:
                tokens = formatted[sample.paths] = " ".join(
                    str(t) for path_tokens in sample.paths for t in path_tokens)
            fh.write(f"{sample.label} {sample.relation} {tokens}\n")


def load_samples(path, num_paths: int, max_length: int) -> list[PathSample]:
    samples = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        parts = line.split()
        if len(parts) != 2 + num_paths * max_length:
            raise PathError(f"line {lineno}: bad token count {len(parts)}")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise PathError(f"line {lineno}: non-integer field") from None
        label, relation, flat = values[0], values[1], values[2:]
        if label not in (0, 1):
            raise PathError(f"line {lineno}: label {label} is not 0 or 1")
        paths = tuple(
            tuple(flat[i * max_length:(i + 1) * max_length])
            for i in range(num_paths)
        )
        samples.append(PathSample(paths=paths, relation=relation, label=label))
    return samples
