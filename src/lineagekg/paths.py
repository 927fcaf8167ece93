"""Edge-type path sampling and dataset assembly for the sequence model.

Paths are sequences of relation-type tokens (forward or inverse traversal),
never node identities, so samples built on one graph transfer to graphs with
entirely new nodes.  Walks are random with restart; if nothing connects a
pair, the degenerate [NOPATH, PAD, ...] encoding is used.  A walk step costs
O(visited nodes), not O(degree): it draws among the current node's unblocked
adjacency entries by stepping over the few blocked positions, which a
per-node neighbour index finds.  The draw is ``rng.randrange(free)`` inlined
as the getrandbits rejection loop that CPython's ``randrange(n)`` runs for
``n > 0`` (``Random._randbelow_with_getrandbits``), so a step makes the same
rng calls without two Python frames.  That helper is private; the inlined loop
was checked against ``randrange`` (values and final rng state) on CPython
3.9-3.13, and ``TestWalkStepMatchesFilteredList`` in ``tests/test_paths.py``
compares every walk and rng state with a sampler that filters the neighbour
list and calls ``randrange``, on random multigraphs, on star graphs whose
draws straddle each power of two up to 1024, and on a converted rddl graph.

The training and eval sets sample their pairs on every usable CPU.  Pair i
runs in share i % P of P = min(usable CPUs, pairs) processes: this process
runs share 0 and forked children run the others, each sending its results
back over a pipe.  The output cannot depend on P: every pair walks with its
own rng, seeded by the pair's index alone, on a sampler nobody else mutates,
and the results and walk counts are merged back in pair order.
"""

from __future__ import annotations

import os
import pickle
import random
import signal
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .kgstore import RDF_TYPE, KnowledgeGraph, Literal

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

    def token_name(self, token: int) -> str:
        return self.names[token]

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

    Each ``sample_paths`` call appends its walks attempted and walks that
    reached the target to ``walks_tried`` and ``walks_reached``;
    ``processes`` is the most processes one training or eval set ran in
    (1 + forked children).
    """

    def __init__(self, g: KnowledgeGraph, cfg: SamplerConfig):
        self.g = g
        self.cfg = cfg
        self.vocab = EdgeVocabulary(g.relation_names())
        # adjacency over node-to-node triples, both directions: (token, neighbour)
        self.adjacency: list[list[tuple[int, int]]] = [
            [] for _ in range(g.num_nodes)
        ]
        # per node: neighbour -> its last position in the adjacency list, and
        # per position the previous one with the same neighbour (-1: none)
        self.last: list[dict[int, int]] = [{} for _ in range(g.num_nodes)]
        self.previous: list[list[int]] = [[] for _ in range(g.num_nodes)]
        for (s, r, o) in g.triples():
            if isinstance(o, Literal):
                continue
            self._link(s, self.vocab.forward(r), o)
            self._link(o, self.vocab.inverse(r), s)
        self.walks_tried: list[int] = []
        self.walks_reached: list[int] = []
        self.processes = 1

    def _link(self, node: int, token: int, neighbour: int) -> None:
        last = self.last[node]
        self.previous[node].append(last.get(neighbour, -1))
        last[neighbour] = len(self.adjacency[node])
        self.adjacency[node].append((token, neighbour))

    def _walk(self, rng: random.Random, src: int, dst: int,
              excluded: Optional[tuple]) -> Optional[tuple[int, ...]]:
        """One random simple walk (no node revisits) with restart.

        A step draws uniformly among the current node's entries that lead to
        an unvisited node and are not the excluded triple, with the same rng
        calls as ``rng.randrange`` over the filtered list would make: the draw
        is the rank among unblocked entries, mapped to a position by stepping
        over the sorted blocked positions (usually one: the entry back to the
        previous node).  The draw is ``randrange(free)`` inlined as the
        getrandbits rejection loop of ``Random._randbelow_with_getrandbits``;
        the module docstring names the versions and tests that check it.
        ``visited`` is a list: a simple walk's nodes are distinct.
        """
        ex_s = ex_o = -1
        if excluded is not None:
            ex_s, ex_r, ex_o = excluded
            ex_forward = self.vocab.forward(ex_r)
            ex_inverse = self.vocab.inverse(ex_r)
        adjacency, last_of, previous_of = self.adjacency, self.last, self.previous
        restart_prob = self.cfg.restart_prob
        random_, getrandbits = rng.random, rng.getrandbits
        position = src
        tokens: list[int] = []
        visited = [src]  # distinct, as the walk is simple
        for _ in range(self.cfg.max_length):
            if tokens and random_() < restart_prob:
                position = src
                tokens = []
                visited = [src]
            entries = adjacency[position]
            last = last_of[position]
            previous = previous_of[position]
            # positions of the entries to visited nodes
            blocked: list[int] = []
            for node in visited:
                i = last.get(node, -1)
                while i >= 0:
                    blocked.append(i)
                    i = previous[i]
            # the excluded triple's entry, unless it leads to a visited node
            # and is blocked already (always so for a self-loop)
            if position == ex_s and ex_o not in visited:
                i = last.get(ex_o, -1)
                while i >= 0:
                    if entries[i][0] == ex_forward:
                        blocked.append(i)
                    i = previous[i]
            if position == ex_o and ex_s not in visited:
                i = last.get(ex_s, -1)
                while i >= 0:
                    if entries[i][0] == ex_inverse:
                        blocked.append(i)
                    i = previous[i]
            free = len(entries) - len(blocked)
            if not free:
                return None
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
                return tuple(tokens)
            visited.append(position)
        return None

    def sample_paths(self, src: int, dst: int, rng: random.Random,
                     excluded: Optional[tuple] = None) -> tuple[tuple[int, ...], ...]:
        """num_paths padded token sequences for actual walks src -> dst."""
        self.g._check_node(src)
        self.g._check_node(dst)
        found: list[tuple[int, ...]] = []
        seen: set = set()
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
        padded = [
            walk + (PAD,) * (self.cfg.max_length - len(walk)) for walk in found
        ]
        return tuple(padded[i % len(padded)] for i in range(self.cfg.num_paths))

    def walk_stats(self, start: int = 0, stop: Optional[int] = None) -> dict[str, int]:
        """Counts over the ``sample_paths`` calls ``start:stop``: pairs, walks
        attempted, walks that reached the target and NOPATH samples (pairs no
        walk reached)."""
        tried = self.walks_tried[start:stop]
        reached = self.walks_reached[start:stop]
        return {"pairs": len(tried), "walks_attempted": sum(tried),
                "walks_reached": sum(reached), "nopath": reached.count(0)}


def _processes(pairs: int) -> int:
    """One process per usable CPU, at most one per pair, and at least one;
    one where ``os.fork`` or ``os.sched_getaffinity`` (Linux) is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), pairs))


def _run_share(sampler: PathSampler, pair: Callable[[int], T],
               indices: range) -> tuple:
    """``(results, None)`` with one ``(pair(i), walks tried, walks reached)``
    per index, in order, or ``(None, (i, exception))`` for the first pair that
    raised.  The walk counts of each pair are taken off the sampler again."""
    results = []
    for index in indices:
        mark = len(sampler.walks_tried)
        try:
            value = pair(index)
        except Exception as exc:  # re-raised by _map_pairs
            return None, (index, exc)
        results.append((value, sampler.walks_tried[mark:],
                        sampler.walks_reached[mark:]))
        del sampler.walks_tried[mark:], sampler.walks_reached[mark:]
    return results, None


def _map_pairs(sampler: PathSampler, count: int,
               pair: Callable[[int], T]) -> list[T]:
    """``[pair(i) for i in range(count)]``, with pair i run in share i % P.

    This process runs share 0, and forked children run the others; where a
    fork fails, this process runs those shares too.  The walk counts are
    appended to the sampler in pair order, and the exception of the first
    failing pair (in pair order) is raised, as a serial loop would.  Children
    send their share back pickled over a pipe and leave with ``os._exit``, so
    they run none of this process's cleanup; they are always reaped.
    """
    processes = _processes(count)
    shares: list = [None] * processes
    children: dict[int, tuple[int, object]] = {}  # share -> (pid, pipe reader)
    try:
        for share in range(1, processes):
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # the child runs no thread-using library code (3.12+ warns)
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    outcome = _run_share(sampler, pair, range(share, count, processes))
                    with os.fdopen(write_fd, "wb") as fh:
                        pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[share] = (pid, os.fdopen(read_fd, "rb"))
        sampler.processes = max(sampler.processes, 1 + len(children))
        for share in range(processes):
            if share not in children:
                shares[share] = _run_share(sampler, pair, range(share, count, processes))
        for share, (pid, reader) in list(children.items()):
            with reader:
                data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[share]
            if code != 0:
                raise PathError(f"path-sampling process {pid} exited with code {code}")
            shares[share] = pickle.loads(data)
    finally:
        for pid, reader in children.values():
            reader.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    failures = [failure for _, failure in shares if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    values = []
    for index in range(count):
        value, tried, reached = shares[index % processes][0][index // processes]
        sampler.walks_tried.extend(tried)
        sampler.walks_reached.extend(reached)
        values.append(value)
    return values


def node_to_node_triples(g: KnowledgeGraph) -> list[tuple]:
    return [t for t in g.triples() if not isinstance(t[2], Literal)]


def build_training_set(sampler: PathSampler,
                       k_negatives: int = 1) -> Iterator[PathSample]:
    """One positive plus k relation-corrupted negatives per node-to-node triple
    of the sampler's graph."""
    g, cfg = sampler.g, sampler.cfg
    num_relations = g.num_relations
    if num_relations < 2 and k_negatives > 0:
        raise PathError("relation corruption needs at least two relations")
    triples = node_to_node_triples(g)

    def pair(index: int) -> tuple:
        s, r, o = triples[index]
        rng = random.Random(f"{cfg.seed}:train:{index}")
        paths = sampler.sample_paths(s, o, rng, excluded=(s, r, o))
        corrupted = []
        for _ in range(k_negatives):  # drawn after the walks, from the same rng
            relation = rng.randrange(num_relations - 1)
            corrupted.append(relation + 1 if relation >= r else relation)
        return paths, corrupted

    for (_, r, _), (paths, corrupted) in zip(
            triples, _map_pairs(sampler, len(triples), pair)):
        yield PathSample(paths=paths, relation=r, label=1)
        for relation in corrupted:
            yield PathSample(paths=paths, relation=relation, label=0)


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


def build_eval_set(
    sampler: PathSampler,
    ground_truth: Sequence[tuple[int, int]],
    num_negatives: int = 4000,
) -> tuple[list[PathSample], list[PathSample]]:
    """Positives for every ground-truth pair plus sampled row-pair negatives
    over the sampler's graph.

    Negative pairs are distinct, exclude self-pairs and any pair linked by a
    chain of ground-truth edges in either direction.
    """
    if not ground_truth:
        raise PathError("ground truth is empty")
    g, cfg = sampler.g, sampler.cfg
    target_rel = g.relation_id("rowDerivedFrom")
    rng = random.Random(f"{cfg.seed}:eval")

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
    if candidates_total < num_negatives:
        raise PathError(
            f"only {candidates_total} distinct non-linked row pairs available,"
            f" {num_negatives} negatives requested"
        )

    chosen: list[tuple[int, int]] = []
    chosen_set: set = set()
    if n * (n - 1) <= 4 * num_negatives or n * (n - 1) <= 20000:
        pool = [
            (a, b) for a in rows for b in rows
            if a != b and (a, b) not in linked
        ]
        chosen = rng.sample(pool, num_negatives)
    else:
        while len(chosen) < num_negatives:
            a = rows[rng.randrange(n)]
            b = rows[rng.randrange(n)]
            if a == b or (a, b) in linked or (a, b) in chosen_set:
                continue
            chosen_set.add((a, b))
            chosen.append((a, b))

    # positives then negatives, each walked with the rng of its own index
    pairs = [(dst, src, f"{cfg.seed}:eval:pos:{idx}")
             for idx, (dst, src) in enumerate(ground_truth)]
    pairs += [(a, b, f"{cfg.seed}:eval:neg:{idx}") for idx, (a, b) in enumerate(chosen)]

    def pair(index: int) -> tuple:
        src, dst, seed = pairs[index]
        return sampler.sample_paths(src, dst, random.Random(seed))

    samples = [PathSample(paths=paths, relation=target_rel,
                          label=int(index < len(ground_truth)))
               for index, paths in enumerate(_map_pairs(sampler, len(pairs), pair))]
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
