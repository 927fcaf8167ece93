"""Edge-type path sampling and dataset assembly for the sequence model.

Paths are sequences of relation-type tokens (forward or inverse traversal),
never node identities, so samples built on one graph transfer to graphs with
entirely new nodes.  Walks are random with restart; if nothing connects a
pair, the degenerate [NOPATH, PAD, ...] encoding is used.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .kgstore import RDF_TYPE, KnowledgeGraph, Literal

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
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            _, name = line.split("\t", 1)
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
    """Seeded random-walk path sampler over one (frozen) graph."""

    def __init__(self, g: KnowledgeGraph, cfg: SamplerConfig):
        self.g = g
        self.cfg = cfg
        self.vocab = EdgeVocabulary(g.relation_names())
        # adjacency over node-to-node triples, both directions
        self.adjacency: list[list[tuple[int, int, tuple]]] = [
            [] for _ in range(g.num_nodes)
        ]
        for (s, r, o) in g.triples():
            if isinstance(o, Literal):
                continue
            key = (s, r, o)
            self.adjacency[s].append((self.vocab.forward(r), o, key))
            self.adjacency[o].append((self.vocab.inverse(r), s, key))

    def _walk(self, rng: random.Random, src: int, dst: int,
              excluded: Optional[tuple]) -> Optional[tuple[int, ...]]:
        """One random simple walk (no node revisits) with restart."""
        position = src
        tokens: list[int] = []
        visited = {src}
        for _ in range(self.cfg.max_length):
            if tokens and rng.random() < self.cfg.restart_prob:
                position = src
                tokens = []
                visited = {src}
            neighbors = [
                n for n in self.adjacency[position]
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

    def sample_paths(self, src: int, dst: int, rng: random.Random,
                     excluded: Optional[tuple] = None) -> tuple[tuple[int, ...], ...]:
        """num_paths padded token sequences for actual walks src -> dst."""
        self.g._check_node(src)
        self.g._check_node(dst)
        found: list[tuple[int, ...]] = []
        seen: set = set()
        budget = self.cfg.walk_budget * self.cfg.num_paths
        for _ in range(budget):
            walk = self._walk(rng, src, dst, excluded)
            if walk is not None and walk not in seen:
                seen.add(walk)
                found.append(walk)
                if len(found) >= self.cfg.num_paths:
                    break
        if not found:
            row = (NOPATH,) + (PAD,) * (self.cfg.max_length - 1)
            return tuple(row for _ in range(self.cfg.num_paths))
        padded = [
            walk + (PAD,) * (self.cfg.max_length - len(walk)) for walk in found
        ]
        return tuple(padded[i % len(padded)] for i in range(self.cfg.num_paths))


def node_to_node_triples(g: KnowledgeGraph) -> list[tuple]:
    return [t for t in g.triples() if not isinstance(t[2], Literal)]


def build_training_set(g: KnowledgeGraph, cfg: SamplerConfig,
                       k_negatives: int = 1) -> Iterator[PathSample]:
    """One positive plus k relation-corrupted negatives per node-to-node triple."""
    sampler = PathSampler(g, cfg)
    num_relations = g.num_relations
    if num_relations < 2 and k_negatives > 0:
        raise PathError("relation corruption needs at least two relations")
    for index, (s, r, o) in enumerate(node_to_node_triples(g)):
        rng = random.Random(f"{cfg.seed}:train:{index}")
        paths = sampler.sample_paths(s, o, rng, excluded=(s, r, o))
        yield PathSample(paths=paths, relation=r, label=1)
        for _ in range(k_negatives):
            corrupted = rng.randrange(num_relations - 1)
            if corrupted >= r:
                corrupted += 1
            yield PathSample(paths=paths, relation=corrupted, label=0)


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


def build_eval_set(
    g: KnowledgeGraph,
    ground_truth: Sequence[tuple[int, int]],
    cfg: SamplerConfig,
    num_negatives: int = 4000,
) -> tuple[list[PathSample], list[PathSample]]:
    """Positives for every ground-truth pair plus sampled row-pair negatives.

    Negative pairs are distinct, exclude self-pairs and any pair related by a
    ground-truth edge in either direction.
    """
    if not ground_truth:
        raise PathError("ground truth is empty")
    target_rel = g.relation_id("rowDerivedFrom")
    sampler = PathSampler(g, cfg)
    rng = random.Random(f"{cfg.seed}:eval")

    positives = []
    for idx, (dst, src) in enumerate(ground_truth):
        pair_rng = random.Random(f"{cfg.seed}:eval:pos:{idx}")
        paths = sampler.sample_paths(dst, src, pair_rng)
        positives.append(PathSample(paths=paths, relation=target_rel, label=1))

    rows = row_nodes(g)
    linked = set(ground_truth) | {(s, d) for (d, s) in ground_truth}
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

    negatives = []
    for idx, (a, b) in enumerate(chosen):
        pair_rng = random.Random(f"{cfg.seed}:eval:neg:{idx}")
        paths = sampler.sample_paths(a, b, pair_rng)
        negatives.append(PathSample(paths=paths, relation=target_rel, label=0))
    return positives, negatives


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
        label, relation = int(parts[0]), int(parts[1])
        flat = [int(p) for p in parts[2:]]
        paths = tuple(
            tuple(flat[i * max_length:(i + 1) * max_length])
            for i in range(num_paths)
        )
        samples.append(PathSample(paths=paths, relation=relation, label=label))
    return samples
