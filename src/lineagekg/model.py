"""The model's config, its error and the order in which it reads its samples:
what the pipeline needs of the model in every stage, without numpy.

``siamese``, the model itself, imports numpy; ``cli`` loads it only where a
train or evaluate step runs (``cli`` module docstring), while manifest
validation and sample-paths' walk order read this module alone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator


class ModelError(Exception):
    pass


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_relations: int
    num_paths: int = 3
    embed_dim: int = 32
    hidden_dim: int = 32
    layers: int = 2
    fusion_dim: int = 64
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "num_relations", "num_paths", "embed_dim",
                     "hidden_dim", "layers", "fusion_dim", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ModelError("learning_rate must be finite and >= 0")


def epoch_orders(count: int, seed: int) -> Iterator[list[int]]:
    """The order in which ``siamese.train`` reads its ``count`` samples, epoch
    after epoch: epoch e shuffles epoch e - 1's order (``range(count)`` before
    epoch 0) with the rng seeded ``f"{seed}:epoch:{e}"``.  The pipeline's
    sample-paths walks the training pairs in the first epoch's order
    (``cli.Pipeline.stage_sample``)."""
    indices = list(range(count))
    for epoch in itertools.count():
        random.Random(f"{seed}:epoch:{epoch}").shuffle(indices)
        yield indices
