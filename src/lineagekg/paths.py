"""Edge-type path sampling and dataset assembly for the sequence model.

Paths are sequences of relation-type tokens (forward or inverse traversal),
never node identities, so samples built on one graph transfer to graphs with
entirely new nodes.  Walks are random with restart; if nothing connects a
pair, the degenerate [NOPATH, PAD, ...] encoding is used.

``PathSampler.sample_paths`` runs a pair's whole walk budget in one loop.  It
binds the per-node tables, the rng's methods and the excluded triple's tokens
once per pair.  The source step (each walk's first step, and the one after a
restart) sees only the source visited, so its blocked positions, free count
and draw width are computed once per pair as well.  Any other step costs
O(visited nodes), not O(degree): it draws among the current node's unblocked
adjacency entries by stepping over the few blocked positions, which a
per-node neighbour index finds.  The draw is ``rng.randrange(free)`` inlined
as the getrandbits rejection loop that CPython's ``randrange(n)`` runs for
``n > 0`` (``Random._randbelow_with_getrandbits``), so a step makes the same
rng calls without two Python frames.  That helper is private; the inlined loop
was checked against ``randrange`` (values and final rng state) on CPython
3.9-3.13, and ``TestWalkStepMatchesFilteredList`` in ``tests/test_paths.py``
compares every sample, walk count and rng state with a sampler that walks
once per call, filters the neighbour list at every step and calls
``randrange``: on random multigraphs, on star graphs whose draws straddle each
power of two up to 1024, on sources without a free entry, and on a converted
rddl graph.

``build_training_set`` and ``build_eval_set`` sample their pairs on every
usable CPU, through ``parallel.fork_imap``: the j-th pair walked runs in
share j % P of P = min(usable CPUs, pairs) processes, this one and forked
children.  The eval set walks its pairs in pair order; the training set in
the order in which a given sample order first reads one of each pair's
samples, and it can hand each pair on as soon as it is walked
(``cli.Pipeline.stage_sample_and_train``).  Neither the process count nor the
walk order can change an artifact: every pair walks with its own rng, seeded
by the pair's index alone, on a sampler nobody else mutates; the samples are
returned in pair order; and the walk counts only ever enter sums.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .kgstore import RDF_TYPE, KnowledgeGraph, Literal
from .parallel import fork_imap

PAD = 0
NOPATH = 1

T = TypeVar("T")


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

    ``nodes`` holds, per node, one ``(entries, last, previous, degree)``
    tuple over its node-to-node triples in both directions: the adjacency
    entries ``(token, neighbour)``; per neighbour, its last position in
    ``entries``; per position, the previous one with the same neighbour (-1:
    none); and ``len(entries)``.  Each ``sample_paths`` call appends its walks
    attempted and walks that reached the target to ``walks_tried`` and
    ``walks_reached``; ``processes`` is the most processes one training or
    eval set ran in (1 + forked children).
    """

    def __init__(self, g: KnowledgeGraph, cfg: SamplerConfig):
        self.g = g
        self.cfg = cfg
        self.vocab = EdgeVocabulary(g.relation_names())
        adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.num_nodes)]
        last_of: list[dict[int, int]] = [{} for _ in range(g.num_nodes)]
        previous_of: list[list[int]] = [[] for _ in range(g.num_nodes)]

        def link(node: int, token: int, neighbour: int) -> None:
            last = last_of[node]
            previous_of[node].append(last.get(neighbour, -1))
            last[neighbour] = len(adjacency[node])
            adjacency[node].append((token, neighbour))

        for (s, r, o) in g.triples():
            if isinstance(o, Literal):
                continue
            link(s, self.vocab.forward(r), o)
            link(o, self.vocab.inverse(r), s)
        self.nodes: list[tuple[list[tuple[int, int]], dict[int, int], list[int], int]] = [
            (entries, last, previous, len(entries))
            for entries, last, previous in zip(adjacency, last_of, previous_of)]
        self.walks_tried: list[int] = []
        self.walks_reached: list[int] = []
        self.processes = 1

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
        and the one after a restart, sees only ``src`` visited, so its blocked
        positions, free count and draw width are computed once per pair.
        """
        self.g._check_node(src)
        self.g._check_node(dst)
        cfg = self.cfg
        nodes = self.nodes
        random_, getrandbits = rng.random, rng.getrandbits
        restart_prob = cfg.restart_prob
        max_length, num_paths = cfg.max_length, cfg.num_paths
        ex_s = ex_o = -1
        if excluded is not None:
            ex_s, ex_r, ex_o = excluded
            ex_forward = self.vocab.forward(ex_r)
            ex_inverse = self.vocab.inverse(ex_r)
        # the source step: its entries back to src (self-loops) and the
        # excluded triple's entry, unless that is a self-loop and blocked already
        src_node = nodes[src]
        src_entries, src_last, src_previous, src_degree = src_node
        src_blocked: list[int] = []
        i = src_last.get(src, -1)
        while i >= 0:
            src_blocked.append(i)
            i = src_previous[i]
        if src == ex_s and ex_o != src:
            _block_excluded(src_blocked, src_node, ex_o, ex_forward)
        if src == ex_o and ex_s != src:
            _block_excluded(src_blocked, src_node, ex_s, ex_inverse)
        src_blocked.sort()
        src_free = src_degree - len(src_blocked)
        src_bits = src_free.bit_length()
        found: list[tuple[int, ...]] = []
        seen: set = set()
        budget = cfg.walk_budget * num_paths
        tried, reached = budget, 0
        # with no free source entry every walk fails at its first step, which
        # draws nothing
        for attempt in range(budget if src_free else 0):
            tokens: list[int] = []
            for _ in range(max_length):
                if tokens and random_() < restart_prob:
                    tokens = []
                if not tokens:
                    pick = getrandbits(src_bits)
                    while pick >= src_free:
                        pick = getrandbits(src_bits)
                    for i in src_blocked:
                        if i > pick:
                            break
                        pick += 1
                    token, position = src_entries[pick]
                    visited = [src]  # distinct, as the walk is simple
                else:
                    node = nodes[position]
                    entries, last, previous, degree = node
                    # positions of the entries to visited nodes
                    blocked: list[int] = []
                    for visited_node in visited:
                        if visited_node in last:
                            i = last[visited_node]
                            while i >= 0:
                                blocked.append(i)
                                i = previous[i]
                    # the excluded triple's entry, unless it leads to a visited
                    # node and is blocked already
                    if position == ex_s and ex_o not in visited:
                        _block_excluded(blocked, node, ex_o, ex_forward)
                    if position == ex_o and ex_s not in visited:
                        _block_excluded(blocked, node, ex_s, ex_inverse)
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
                    elif blocked:
                        for i in sorted(blocked):
                            if i > pick:
                                break
                            pick += 1
                    token, position = entries[pick]
                tokens.append(token)
                if position == dst:
                    break
                visited.append(position)
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

    def walk_stats(self, start: int = 0, stop: Optional[int] = None) -> dict[str, int]:
        """Counts over the ``sample_paths`` calls ``start:stop``: pairs, walks
        attempted, walks that reached the target and NOPATH samples (pairs no
        walk reached)."""
        tried = self.walks_tried[start:stop]
        reached = self.walks_reached[start:stop]
        return {"pairs": len(tried), "walks_attempted": sum(tried),
                "walks_reached": sum(reached), "nopath": reached.count(0)}


def _block_excluded(blocked: list[int], node: tuple, neighbour: int,
                    token: int) -> None:
    """Append to ``blocked`` the positions of ``node``'s entries to
    ``neighbour`` with ``token``: the excluded triple's entry."""
    entries, last, previous, _ = node
    i = last.get(neighbour, -1)
    while i >= 0:
        if entries[i][0] == token:
            blocked.append(i)
        i = previous[i]


def _imap_pairs(sampler: PathSampler, count: int, pair: Callable[[int], T],
                batch: int) -> Iterator[tuple[int, T]]:
    """``parallel.fork_imap`` over pairs that call ``sample_paths`` once each,
    its children sending ``batch`` pairs at a time: ``(index, value)`` as
    each pair is done.  Once every pair is, their walk counts are appended to
    the sampler in index order, and ``processes`` counts the processes they
    ran in."""
    def counted(index: int) -> tuple:
        value = pair(index)
        return (value, sampler.walks_tried.pop(), sampler.walks_reached.pop(),
                os.getpid())

    counts: list = [None] * count
    pids = set()
    try:
        for index, (value, tried, reached, pid) in fork_imap(count, counted, batch):
            counts[index] = tried, reached
            pids.add(pid)
            yield index, value
    except ChildProcessError as exc:
        raise PathError(f"path sampling failed: {exc}") from exc
    for tried, reached in counts:
        sampler.walks_tried.append(tried)
        sampler.walks_reached.append(reached)
    sampler.processes = max(sampler.processes, len(pids))


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
        corrupted relations, for ``pair_samples``."""
        s, r, o = self.triples[index]
        rng = random.Random(f"{self.sampler.cfg.seed}:train:{index}")
        paths = self.sampler.sample_paths(s, o, rng, excluded=(s, r, o))
        num_relations = self.sampler.g.num_relations
        corrupted = []
        for _ in range(self.k_negatives):  # drawn after the walks, from the same rng
            relation = rng.randrange(num_relations - 1)
            corrupted.append(relation + 1 if relation >= r else relation)
        return r, paths, corrupted


def pair_samples(relation: int, paths: tuple,
                 corrupted: Sequence[int]) -> list[PathSample]:
    """A training pair's samples from its record (``TrainingPairs.walk``):
    the positive, then one negative per corrupted relation."""
    return [PathSample(paths=paths, relation=relation, label=1)] + [
        PathSample(paths=paths, relation=c, label=0) for c in corrupted]


def build_training_set(pairs: TrainingPairs, sample_order: Sequence[int],
                       send: Optional[Callable[[tuple], None]] = None
                       ) -> list[PathSample]:
    """The samples of ``pairs``, in pair order: one positive plus
    ``k_negatives`` relation-corrupted negatives per pair (``pair_samples``).

    Each pair is walked once, on every usable CPU, in the order in which
    ``sample_order``, an order of every sample index, first reads one of the
    pair's samples.  Given ``send``, each child hands each pair on as soon
    as it is walked, and ``send`` gets ``(index, *record)``
    (``TrainingPairs.walk``) as each pair comes; without it, each child sends
    its whole share when done."""
    order = list(dict.fromkeys(i // pairs.per_pair for i in sample_order))
    records: list = [None] * len(pairs)
    batch = 1 if send is not None else max(1, len(order))
    for j, record in _imap_pairs(pairs.sampler, len(order),
                                 lambda j: pairs.walk(order[j]), batch):
        records[order[j]] = record
        if send is not None:
            send((order[j], *record))
    return [sample for record in records for sample in pair_samples(*record)]


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


def build_eval_set(
    sampler: PathSampler,
    ground_truth: Sequence[tuple[int, int]],
    negatives: Sequence[tuple[int, int]],
) -> tuple[list[PathSample], list[PathSample]]:
    """Positives for every ground-truth pair plus one negative per row pair
    of ``negatives`` (from ``draw_negatives``), over the sampler's graph."""
    g, cfg = sampler.g, sampler.cfg
    target_rel = g.relation_id("rowDerivedFrom")
    # positives then negatives, each walked with the rng of its own index
    pairs = [(dst, src, f"{cfg.seed}:eval:pos:{idx}")
             for idx, (dst, src) in enumerate(ground_truth)]
    pairs += [(a, b, f"{cfg.seed}:eval:neg:{idx}")
              for idx, (a, b) in enumerate(negatives)]

    def pair(index: int) -> tuple:
        src, dst, seed = pairs[index]
        return sampler.sample_paths(src, dst, random.Random(seed))

    samples: list = [None] * len(pairs)
    for index, paths in _imap_pairs(sampler, len(pairs), pair, max(1, len(pairs))):
        samples[index] = PathSample(paths=paths, relation=target_rel,
                                    label=int(index < len(ground_truth)))
    return samples[:len(ground_truth)], samples[len(ground_truth):]


# -- flat text serialization -----------------------------------------------------


def save_samples(path, samples) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for sample in samples:
            tokens = " ".join(
                str(t) for path_tokens in sample.paths for t in path_tokens
            )
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
