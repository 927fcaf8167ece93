"""Multi-path Siamese sequence model, implemented from scratch on numpy.

Each of a sample's ``num_paths`` edge-token paths runs through shared
embeddings and stacked bidirectional LSTM layers; per-path global max pooling
feeds a dense fusion layer, and the score is the sigmoid of the cosine
similarity between the fused path representation and the target relation
embedding.  Arithmetic is 64-bit; gradients are analytic and checked against
finite differences in the tests.

A batch of B samples pads its B*P paths to the batch's longest path, and the
LSTM stack runs once per *distinct* padded path: relation-type paths repeat
heavily (every NOPATH path is the same row): at the desk preset a train batch
of 96 paths holds about 37 distinct rows and an eval batch under 10.  The
LSTM then runs over the non-PAD (row, t) positions of those rows only,
packed time-major so that the rows active at step t are one contiguous slice
(``_Packing``); a PAD step costs nothing, and a row's state carries across it
to the row's next non-PAD step.  Per layer, both directions' input
projections are one matrix product over all positions, so a time step adds
only ``h_prev @ U.T``.  The forward pass keeps every position's activated
gates, cell state and hidden state; the backward pass reads them instead of
recomputing any, runs only ``dz @ U`` per step, and computes the weight, bias
and input gradients after the time loop, one product or sum each.  Pooled
vectors are gathered back to one per path before fusion, and the backward
pass sums the pooled gradients of a row's copies before running the LSTM back
once; as that pass is linear in its upstream gradient, this equals running
every copy up to the order of float additions.  Fusion and the cosine are
vectorised over the batch, and a single sample is scored as a batch of one.

PAD positions are skipped by the LSTM and masked out of pooling, so appending
extra padding never changes a score.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, get_type_hints

import numpy as np

from .paths import PAD, PathSample

CHECKPOINT_MAGIC = b"LKGCKPT/1\n"

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


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


class Parameters:
    """All trainable tensors, keyed by name in a fixed declared order.

    The tensors are copied into one flat float64 vector, ``flat``, and
    ``arrays`` holds views into it, so an update of ``flat`` updates every
    tensor and an in-place update of a tensor updates ``flat``.
    """

    def __init__(self, cfg: ModelConfig, arrays: dict[str, np.ndarray]):
        self.cfg = cfg
        self.flat = np.concatenate(
            [np.asarray(a, dtype=np.float64).reshape(-1) for a in arrays.values()])
        self._shapes = {name: np.shape(a) for name, a in arrays.items()}
        self.arrays = self.views(self.flat)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Per-tensor views into a vector laid out like ``flat``."""
        views = {}
        start = 0
        for name, shape in self._shapes.items():
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    def zeros_like(self) -> dict[str, np.ndarray]:
        return self.views(np.zeros_like(self.flat))

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def copy(self) -> "Parameters":
        return Parameters(self.cfg, self.arrays)


def _tensor_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every trainable tensor's shape by name, in the declared order, which
    is the order initialisation draws them and a checkpoint stores them."""
    h = cfg.hidden_dim
    shapes = {"token_emb": (cfg.vocab_size, cfg.embed_dim),
              "rel_emb": (cfg.num_relations, cfg.fusion_dim)}
    for layer in range(cfg.layers):
        in_dim = cfg.embed_dim if layer == 0 else 2 * h
        for direction in ("f", "b"):
            prefix = f"lstm{layer}{direction}"
            shapes[f"{prefix}_W"] = (4 * h, in_dim)
            shapes[f"{prefix}_U"] = (4 * h, h)
            shapes[f"{prefix}_b"] = (4 * h,)
    shapes["fusion_W"] = (cfg.num_paths * 2 * h, cfg.fusion_dim)
    shapes["fusion_b"] = (cfg.fusion_dim,)
    return shapes


def init_parameters(cfg: ModelConfig) -> Parameters:
    """Embeddings ~ N(0, 0.1); recurrent and fusion weights uniform in
    +-1/sqrt(hidden); biases zero except the forget gate at 1.0."""
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_dim
    bound = 1.0 / math.sqrt(h)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _tensor_shapes(cfg).items():
        if name.endswith("_emb"):
            arrays[name] = rng.normal(0.0, 0.1, shape)
        elif name.endswith("_b"):
            arrays[name] = np.zeros(shape)
            if name.startswith("lstm"):
                arrays[name][h:2 * h] = 1.0  # forget gate
        else:
            arrays[name] = rng.uniform(-bound, bound, shape)
    return Parameters(cfg, arrays)


def _safe(norms: np.ndarray) -> np.ndarray:
    """Norms with zeros replaced by 1, to divide by where a norm may be zero."""
    return np.where(norms > 0.0, norms, 1.0)


@dataclass
class _Packing:
    """The non-PAD (row, t) positions of a batch's distinct paths, packed
    time-major: the rows active at step t are positions
    ``offsets[t]:offsets[t + 1]``, in row order.

    ``prev[d][j]`` is the position that direction d (0 forward, 1 backward)
    ran just before position j in the same row, across any PAD steps, or
    ``n`` at a row's first step.  Per-position state arrays have n + 1 rows,
    and row n stays zero: a first step reads zero hidden and cell states.
    """

    n: int
    tokens: np.ndarray  # (n,) the token at each position
    offsets: list[int]  # (T + 1,)
    prev: tuple[np.ndarray, np.ndarray]  # (n,) per direction
    index: np.ndarray  # (rows, T): each (row, t)'s position, n at PAD

    @classmethod
    def of(cls, tokens: np.ndarray) -> "_Packing":
        mask = tokens != PAD
        rows, T = mask.shape
        t_of, row_of = np.nonzero(mask.T)
        n = len(t_of)
        index = np.full((rows, T), n)
        index[row_of, t_of] = np.arange(n)
        # a row's last position at or before t, and its first at or after t
        last = np.maximum.accumulate(np.where(mask, index, -1), axis=1)
        first = np.minimum.accumulate(index[:, ::-1], axis=1)[:, ::-1]
        prev_f = np.hstack([np.full((rows, 1), -1), last[:, :-1]])[row_of, t_of]
        prev_f[prev_f < 0] = n
        prev_b = np.hstack([first[:, 1:], np.full((rows, 1), n)])[row_of, t_of]
        offsets = [0] + np.cumsum(mask.sum(axis=0)).tolist()
        return cls(n, tokens[row_of, t_of], offsets, (prev_f, prev_b), index)

    def steps(self, direction: int, reverse: bool = False) -> list[tuple[int, int]]:
        """The (start, stop) slices of the steps that have an active row, in
        the order the direction runs them, or in reverse."""
        spans = [(a, b) for a, b in zip(self.offsets, self.offsets[1:]) if a < b]
        return spans[::-1] if bool(direction) != reverse else spans


class ForwardCache:
    """Everything required to reproduce the analytic gradients of a batch.

    The LSTM rows are the batch's U distinct padded paths, in ``tokens``.
    ``inverse`` maps the sample-major path rows to them: path ``p`` of sample
    ``b`` is LSTM row ``inverse[b * P + p]``.  ``layers`` holds, per LSTM
    layer, what ``_layer_forward`` returned for the positions of ``packing``:
    the activated gates and cell states per direction, and the hidden states
    as rows.  The backward pass reads all three instead of recomputing them;
    a layer's stored hidden states are also the inputs of the layer above.
    ``pool_index`` is the position each row's pooled feature came from.
    Per-sample arrays have a leading batch axis of length B.
    """

    def __init__(self):
        self.tokens: np.ndarray = None  # (U, T)
        self.inverse: np.ndarray = None  # (B*P,)
        self.packing: _Packing = None
        # per layer: (2, n, 4h) gates, (2, n + 1, h) cells, (n + 1, 2h) hidden
        self.layers: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.pool_index: np.ndarray = None  # (U, 2h)
        self.x_cat: np.ndarray = None  # (B, P*2h)
        self.p: np.ndarray = None  # (B, fusion_dim)
        self.p_norm: np.ndarray = None  # (B,)
        self.p_hat: np.ndarray = None
        self.relations: np.ndarray = None  # (B,)
        self.r_norm: np.ndarray = None
        self.r_hat: np.ndarray = None
        self.scored: np.ndarray = None  # (B,) False where a norm is zero
        self.z: np.ndarray = None
        self.probs: np.ndarray = None


def _sigmoid_(x: np.ndarray) -> None:
    """The logistic sigmoid ``1 / (1 + exp(-x))``, in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


def _layer_forward(params: Parameters, layer: int, packing: _Packing,
                   x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run both directions of one layer over the packed inputs ``x`` (n, in).

    Returns, per direction, every position's activated gates (i, f, g, o)
    (2, n, 4h) and cell states (2, n + 1, h), and its hidden states as rows
    (n + 1, 2h), the forward direction's half first, zero in row n.  Both
    directions' input projections are one product; a step adds
    ``h_prev @ U.T`` and the bias to its rows of it and activates them in
    place.  A direction's arrays are contiguous, and so is a step's slice of
    them: at these sizes numpy runs a strided view several times slower.
    """
    h, n = params.cfg.hidden_dim, packing.n
    W = np.stack([params.arrays[f"lstm{layer}{d}_W"] for d in "fb"])
    gates = np.matmul(x, W.transpose(0, 2, 1))
    cells = np.zeros((2, n + 1, h))
    hidden = np.zeros((2, n + 1, h))
    for d, name in enumerate("fb"):
        U, bias = (params.arrays[f"lstm{layer}{name}_{kind}"] for kind in "Ub")
        z_all, c_all, h_all, prev = gates[d], cells[d], hidden[d], packing.prev[d]
        for start, stop in packing.steps(d):
            before = prev[start:stop]
            z = z_all[start:stop]
            z += h_all[before] @ U.T
            z += bias
            g = np.tanh(z[:, 2 * h:3 * h])
            _sigmoid_(z)  # i, f and o; g's slot is overwritten next
            z[:, 2 * h:3 * h] = g
            c = c_all[start:stop]
            np.multiply(z[:, h:2 * h], c_all[before], out=c)
            c += z[:, :h] * g
            np.multiply(np.tanh(c), z[:, 3 * h:], out=h_all[start:stop])
    return gates, cells, np.concatenate(hidden, axis=1)


def _path_tokens(cfg: ModelConfig, samples: Sequence[PathSample]) -> np.ndarray:
    """(B*P, T) token matrix, PAD-padded to the batch's longest path, with
    every relation id, path count and token id checked against the config."""
    for sample in samples:
        if not 0 <= sample.relation < cfg.num_relations:
            raise ModelError(f"relation id out of range: {sample.relation}")
        if len(sample.paths) != cfg.num_paths:
            raise ModelError(
                f"sample has {len(sample.paths)} paths, model expects {cfg.num_paths}")
    rows = [path for sample in samples for path in sample.paths]
    tokens = np.full((len(rows), max(len(p) for p in rows)), PAD, dtype=np.int64)
    for idx, path in enumerate(rows):
        tokens[idx, :len(path)] = path
    if tokens.max(initial=0) >= cfg.vocab_size or tokens.min(initial=0) < 0:
        raise ModelError("token id out of range")
    return tokens


def forward_batch(params: Parameters, samples: Sequence[PathSample]
                  ) -> tuple[np.ndarray, ForwardCache]:
    """Score a batch of (paths, relation) pairs; returns B probabilities in (0, 1)."""
    cfg = params.cfg
    if not samples:
        raise ModelError("empty batch")
    cache = ForwardCache()
    cache.tokens, inverse = np.unique(_path_tokens(cfg, samples), axis=0,
                                      return_inverse=True)
    cache.inverse = inverse.reshape(-1)  # numpy 2.0.0 returns it in another shape
    cache.relations = np.array([s.relation for s in samples], dtype=np.int64)
    packing = cache.packing = _Packing.of(cache.tokens)

    x = params.arrays["token_emb"][packing.tokens]
    for layer in range(cfg.layers):
        gates, cells, top = _layer_forward(params, layer, packing, x)
        cache.layers.append((gates, cells, top))
        x = top[:packing.n]

    # max-pool over each row's non-PAD steps; a path of PAD only pools the
    # zero row n, and its gradient lands there, where no step reads it
    by_step = top[packing.index]
    by_step[packing.index == packing.n] = -np.inf
    cache.pool_index = packing.index[np.arange(len(cache.tokens))[:, None],
                                     by_step.argmax(axis=1)]
    pooled = top[cache.pool_index, np.arange(top.shape[1])]

    cache.x_cat = pooled[cache.inverse].reshape(len(samples), -1)
    u = cache.x_cat @ params.arrays["fusion_W"] + params.arrays["fusion_b"]
    cache.p = np.tanh(u)
    r_vec = params.arrays["rel_emb"][cache.relations]
    cache.p_norm = np.linalg.norm(cache.p, axis=1)
    cache.r_norm = np.linalg.norm(r_vec, axis=1)
    # a zero-norm side pins the score at 0.5 (z = 0), with zero gradient
    cache.scored = (cache.p_norm > 0.0) & (cache.r_norm > 0.0)
    cache.p_hat = cache.p / _safe(cache.p_norm)[:, None]
    cache.r_hat = r_vec / _safe(cache.r_norm)[:, None]
    cache.z = np.where(cache.scored, (cache.p_hat * cache.r_hat).sum(axis=1), 0.0)
    cache.probs = cache.z.copy()
    _sigmoid_(cache.probs)
    return cache.probs, cache


def bce_loss(prob: float, label: int) -> float:
    eps = 1e-12
    p = min(max(prob, eps), 1.0 - eps)
    return -(label * math.log(p) + (1 - label) * math.log(1.0 - p))


def _layer_backward(params: Parameters, layer: int, packing: _Packing,
                    gates: np.ndarray, cells: np.ndarray, top: np.ndarray,
                    d_hidden: np.ndarray, grads: dict[str, np.ndarray]) -> None:
    """Turn one layer's stored gates into the gradients of its gate
    pre-activations, in place, and add the gradients of its U to ``grads``.

    ``gates``, ``cells`` and ``top`` are what ``_layer_forward`` returned;
    direction d's hidden states are the columns ``d*h:(d+1)*h`` of ``top``.
    ``d_hidden`` (2, n + 1, h) is the gradient reaching the layer's hidden
    states; the time loops add to it what each step passes back to the one
    before.
    """
    h = params.cfg.hidden_dim
    for d, name in enumerate("fb"):
        prev = packing.prev[d]
        i, f, g, o = (gates[d, :, k * h:(k + 1) * h] for k in range(4))
        forget = f.copy()  # the time loop reads it
        tanh_c = np.tanh(cells[d, :-1])
        dc_per_dh = (1.0 - tanh_c * tanh_c) * o  # dc gets dh * o * (1 - tanh(c)^2)
        # for every position at once, the factors that turn the gradients
        # reaching its h and c into those of its gates
        f[...] = ((1.0 - f) * f) * cells[d, prev]  # df = dc * this
        o[...] = ((1.0 - o) * o) * tanh_c  # do = dh * this
        i[...], g[...] = ((1.0 - i) * i) * g, (1.0 - g * g) * i  # di, dg = dc * these

        U = params.arrays[f"lstm{layer}{name}_U"]
        dz_all, dh_all = gates[d], d_hidden[d]
        dc_all = np.zeros_like(dh_all)
        for start, stop in packing.steps(d, reverse=True):
            before = prev[start:stop]
            dh = dh_all[start:stop]
            dc = dc_all[start:stop]
            dc += dh * dc_per_dh[start:stop]
            dz = dz_all[start:stop]
            dz *= np.concatenate([dc, dc, dc, dh], axis=1)
            # the row's step before this one gets its share; a first step's
            # goes to row n, which no step reads
            dh_all[before] += dz @ U
            dc_all[before] = dc * forget[start:stop]
        grads[f"lstm{layer}{name}_U"] += dz_all.T @ top[prev, d * h:(d + 1) * h]


def backward_batch(params: Parameters, cache: ForwardCache, labels: Sequence[int],
                   grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Add the analytic gradients of the batch's summed binary cross-entropy
    to ``grads`` and return it.  Consumes the cache's LSTM activations, so a
    cache is back-propagated once."""
    labels = np.asarray(labels, dtype=np.float64)
    # dL/dz through sigmoid + BCE
    dz = np.where(cache.scored, cache.probs - labels, 0.0)[:, None]
    z = cache.z[:, None]
    dp = dz * (cache.r_hat - z * cache.p_hat) / _safe(cache.p_norm)[:, None]
    # relation and token ids repeat within a batch: add.at sums every update
    np.add.at(grads["rel_emb"], cache.relations,
              dz * (cache.p_hat - z * cache.r_hat) / _safe(cache.r_norm)[:, None])

    du = dp * (1.0 - cache.p ** 2)
    grads["fusion_W"] += cache.x_cat.T @ du
    grads["fusion_b"] += du.sum(axis=0)
    # each copy of a distinct path adds its pooled gradient to that path's row
    d_pooled = np.zeros(cache.pool_index.shape)
    np.add.at(d_pooled, cache.inverse,
              (du @ params.arrays["fusion_W"].T).reshape(len(cache.inverse), -1))
    packing, h = cache.packing, params.cfg.hidden_dim
    d_hidden = np.zeros((2, packing.n + 1, h))
    feature = np.arange(2 * h)
    d_hidden[feature // h, cache.pool_index, feature % h] = d_pooled

    # each array is dropped once done with: a batch's peak is a train run's
    for layer in range(params.cfg.layers - 1, -1, -1):
        gates, cells, top = cache.layers.pop()
        _layer_backward(params, layer, packing, gates, cells, top, d_hidden, grads)
        del cells, top, d_hidden
        # the weights' gradients sum over every position: one product each
        if layer:  # the inputs: the hidden states of the layer below
            x = cache.layers[-1][2][:packing.n]
        else:
            x = params.arrays["token_emb"][packing.tokens]
        d_W = np.matmul(gates.transpose(0, 2, 1), x)
        del x
        d_b = gates.sum(axis=1)
        for d, name in enumerate("fb"):
            grads[f"lstm{layer}{name}_W"] += d_W[d]
            grads[f"lstm{layer}{name}_b"] += d_b[d]
        d_x = gates[0] @ params.arrays[f"lstm{layer}f_W"]
        d_x += gates[1] @ params.arrays[f"lstm{layer}b_W"]
        del gates
        if layer:  # as the hidden states of the layer below: (2, n + 1, h)
            d_hidden = np.zeros((2, packing.n + 1, h))
            d_hidden[:, :-1] = d_x.reshape(-1, 2, h).transpose(1, 0, 2)
            del d_x

    np.add.at(grads["token_emb"], packing.tokens, d_x)
    return grads


@dataclass
class TrainResult:
    epoch_losses: list[float]
    lstm_rows: int  # distinct paths the LSTM ran, summed over all batches
    lstm_positions: int  # their non-PAD (row, t) positions, which it computed


def epoch_orders(count: int, seed: int) -> Iterator[list[int]]:
    """The order in which ``train`` reads its ``count`` samples, epoch after
    epoch: epoch e shuffles epoch e - 1's order (``range(count)`` before epoch
    0) with the rng seeded ``f"{seed}:epoch:{e}"``.  The pipeline's
    sample-paths walks the training pairs in the first epoch's order
    (``cli.Pipeline.stage_sample``)."""
    indices = list(range(count))
    for epoch in itertools.count():
        random.Random(f"{seed}:epoch:{epoch}").shuffle(indices)
        yield indices


def train(params: Parameters, samples: Sequence[PathSample],
          cfg: Optional[ModelConfig] = None) -> TrainResult:
    """Mini-batch Adam over the sample sequence; deterministic under the seed.

    Samples are read in batches in ``epoch_orders``' order, one
    ``samples[i]`` at a time, and gradients are averaged per batch.  Only
    ``len`` and indexing are used, so ``samples`` may be a sequence that
    fills while training runs, as a cell's pair walk does (``paths.PairWalk``).
    Raises ``RuntimeError``, naming the epoch and batch, on a NaN loss, on
    non-finite parameters, and on a float overflow or invalid operation
    anywhere in a batch's forward, backward or Adam step.
    """
    cfg = cfg or params.cfg
    if not samples:
        raise ModelError("empty training stream")
    adam_m = np.zeros_like(params.flat)
    adam_v = np.zeros_like(params.flat)
    grad_flat = np.zeros_like(params.flat)
    work = np.empty_like(params.flat)
    grads = params.views(grad_flat)
    step = 0
    lstm_rows = lstm_positions = 0
    epoch_losses: list[float] = []
    orders = epoch_orders(len(samples), cfg.seed)
    try:
        # an overflow or invalid operation would train on to garbage: with
        # every parameter near 1e300, every score is 0.5 and no value is NaN
        with np.errstate(over="raise", invalid="raise"):
            for epoch, indices in zip(range(cfg.epochs), orders):
                total = 0.0
                count = 0
                for start in range(0, len(indices), cfg.batch_size):
                    batch = [samples[idx]
                             for idx in indices[start:start + cfg.batch_size]]
                    probs, cache = forward_batch(params, batch)
                    lstm_rows += len(cache.tokens)
                    lstm_positions += cache.packing.n
                    batch_loss = 0.0
                    for prob, sample in zip(probs.tolist(), batch):
                        batch_loss += bce_loss(prob, sample.label)
                    batch_loss /= len(batch)
                    if math.isnan(batch_loss):
                        raise RuntimeError(
                            f"NaN loss at epoch {epoch} batch {start // cfg.batch_size}"
                        )
                    grad_flat.fill(0.0)
                    backward_batch(params, cache, [s.label for s in batch], grads)
                    del cache  # keep one batch's activations alive at a time
                    scale = 1.0 / len(batch)
                    step += 1
                    lr = cfg.learning_rate
                    bias1 = 1.0 - _ADAM_BETA1 ** step
                    bias2 = 1.0 - _ADAM_BETA2 ** step
                    # in place over the flat vectors, with the same operations in
                    # the same order per element as one update per tensor; grad_flat
                    # ends as the step and is zeroed before the next batch
                    g = grad_flat
                    g *= scale
                    np.multiply(g, 1 - _ADAM_BETA1, out=work)
                    adam_m *= _ADAM_BETA1
                    adam_m += work
                    np.multiply(g, 1 - _ADAM_BETA2, out=work)
                    work *= g
                    adam_v *= _ADAM_BETA2
                    adam_v += work
                    np.divide(adam_v, bias2, out=work)
                    np.sqrt(work, out=work)
                    work += _ADAM_EPS  # sqrt(v_hat) + eps
                    np.divide(adam_m, bias1, out=g)
                    g *= lr
                    g /= work  # lr * m_hat / (sqrt(v_hat) + eps)
                    params.flat -= g
                    if not params.all_finite():
                        raise RuntimeError(
                            f"non-finite parameters after epoch {epoch}"
                            f" batch {start // cfg.batch_size}"
                        )
                    total += batch_loss * len(batch)
                    count += len(batch)
                epoch_losses.append(total / count)
    except FloatingPointError as exc:
        raise RuntimeError(f"floating-point error at epoch {epoch}"
                           f" batch {start // cfg.batch_size}: {exc}") from None
    return TrainResult(epoch_losses, lstm_rows, lstm_positions)


def predict(params: Parameters, samples: Sequence[PathSample]) -> list[float]:
    """Scores in input order, computed in batches of the config's batch size.

    Each distinct (paths, relation) input is scored once, and within a batch
    ``forward_batch`` runs the LSTM once per distinct path, so eval sets,
    whose negatives are mostly NOPATH, cost a few LSTM rows per batch.  A
    score's rounding can depend on the inputs batched with it, so scoring each
    input once is what makes equal inputs, such as a positive and a negative
    with the same paths, tie exactly, as ranking metrics expect.
    """
    inputs = list(dict.fromkeys((s.paths, s.relation) for s in samples))
    size = params.cfg.batch_size
    scores: dict = {}
    for start in range(0, len(inputs), size):
        chunk = inputs[start:start + size]
        probs, _ = forward_batch(
            params, [PathSample(paths, relation, 0) for paths, relation in chunk])
        scores.update(zip(chunk, probs.tolist()))
    return [scores[(s.paths, s.relation)] for s in samples]


# -- checkpoint I/O -----------------------------------------------------------------


def _tensor_header(name: str, shape: tuple[int, ...]) -> bytes:
    return " ".join(map(str, (name, len(shape), *shape))).encode("utf-8") + b"\n"


def save_checkpoint(params: Parameters, path) -> None:
    """Text header (magic + config) followed by, per tensor, a line
    ``name ndim dims...`` and the tensor as a little-endian float64 block."""
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write((json.dumps(asdict(params.cfg), sort_keys=True) + "\n").encode("utf-8"))
        for name, shape in _tensor_shapes(params.cfg).items():
            fh.write(_tensor_header(name, shape))
            fh.write(np.ascontiguousarray(params.arrays[name], dtype="<f8").tobytes())


def _checkpoint_config(line: bytes) -> ModelConfig:
    """The ``ModelConfig`` a checkpoint's config line spells out as a JSON object."""
    try:
        fields = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelError(f"bad checkpoint config: {exc}") from None
    if not isinstance(fields, dict):
        raise ModelError(f"bad checkpoint config: not a JSON object: {fields!r}")
    # an int field takes an int, a float field an int or a float; bool is an
    # int subclass but never a config value
    for name, kind in get_type_hints(ModelConfig).items():
        value = fields.get(name)
        if name in fields and (isinstance(value, bool)
                               or not isinstance(value, (int, kind))):
            raise ModelError(f"bad checkpoint config: {name} is not {kind.__name__}:"
                             f" {value!r}")
    try:
        return ModelConfig(**fields)
    except TypeError as exc:  # a key ModelConfig lacks, or one it needs
        raise ModelError(f"bad checkpoint config: {exc}") from None


def load_checkpoint(path) -> Parameters:
    """Read a checkpoint, whose every tensor must have the shape its config
    gives it, and which must end after the last tensor."""
    with Path(path).open("rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"bad checkpoint magic: {magic!r}")
        cfg = _checkpoint_config(fh.readline())
        arrays: dict[str, np.ndarray] = {}
        for name, shape in _tensor_shapes(cfg).items():
            header, expected = fh.readline(), _tensor_header(name, shape)
            if header != expected:
                raise ModelError(
                    f"unexpected tensor header: {header!r}, expected {expected!r}")
            count = math.prod(shape)
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ModelError(f"truncated tensor block: {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if fh.read(1):
            raise ModelError("trailing bytes after the last tensor block")
    return Parameters(cfg, arrays)
