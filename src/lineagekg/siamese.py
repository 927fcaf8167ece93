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
of 96 paths holds about 30 distinct rows and an eval batch under 10.  Each LSTM direction
makes one pass over those rows, computing at each step only the rows whose
token there is not PAD.  The forward pass keeps just the carried hidden and
cell states; the backward pass recomputes each step's gates from them, so a
batch's activations stay a few (rows, T, h) arrays.  Pooled vectors are
gathered back to one per path before fusion, and the backward pass sums the
pooled gradients of a row's copies before running the LSTM back once; as that
pass is linear in its upstream gradient, this equals running every copy up to
the order of float additions.  Fusion and the cosine are vectorised over the
batch; ``forward`` and ``backward`` are batches of one.

PAD positions carry hidden and cell state through unchanged and are masked out
of pooling, so appending extra padding never changes a score.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

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

    @staticmethod
    def tensor_names(cfg: ModelConfig) -> list[str]:
        names = ["token_emb", "rel_emb"]
        for layer in range(cfg.layers):
            for direction in ("f", "b"):
                prefix = f"lstm{layer}{direction}"
                names += [f"{prefix}_W", f"{prefix}_U", f"{prefix}_b"]
        names += ["fusion_W", "fusion_b"]
        return names

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


def init_parameters(cfg: ModelConfig) -> Parameters:
    """Embeddings ~ N(0, 0.1); recurrent and fusion weights uniform in
    +-1/sqrt(hidden); biases zero except the forget gate at 1.0."""
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hidden_dim
    bound = 1.0 / math.sqrt(h)
    arrays: dict[str, np.ndarray] = {
        "token_emb": rng.normal(0.0, 0.1, (cfg.vocab_size, cfg.embed_dim)),
        "rel_emb": rng.normal(0.0, 0.1, (cfg.num_relations, cfg.fusion_dim)),
    }
    for layer in range(cfg.layers):
        in_dim = cfg.embed_dim if layer == 0 else 2 * h
        for direction in ("f", "b"):
            prefix = f"lstm{layer}{direction}"
            arrays[f"{prefix}_W"] = rng.uniform(-bound, bound, (4 * h, in_dim))
            arrays[f"{prefix}_U"] = rng.uniform(-bound, bound, (4 * h, h))
            bias = np.zeros(4 * h)
            bias[h:2 * h] = 1.0  # forget gate
            arrays[f"{prefix}_b"] = bias
    arrays["fusion_W"] = rng.uniform(
        -bound, bound, (cfg.num_paths * 2 * h, cfg.fusion_dim))
    arrays["fusion_b"] = np.zeros(cfg.fusion_dim)
    return Parameters(cfg, arrays)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _safe(norms: np.ndarray) -> np.ndarray:
    """Norms with zeros replaced by 1, to divide by where a norm may be zero."""
    return np.where(norms > 0.0, norms, 1.0)


@dataclass
class _DirectionTrace:
    order: list[int]
    inputs: np.ndarray  # (rows, T, in_dim)
    active: list[np.ndarray]  # per position: indices of the rows not PAD there
    # carried states after each step, aligned to absolute positions
    outputs: np.ndarray  # (rows, T, h)
    cells: np.ndarray  # (rows, T, h)


class ForwardCache:
    """Everything required to reproduce the analytic gradients of a batch.

    The LSTM rows are the batch's U distinct padded paths, in ``tokens``.
    ``inverse`` maps the sample-major path rows to them: path ``p`` of sample
    ``b`` is LSTM row ``inverse[b * P + p]``.  Per-sample arrays have a
    leading batch axis of length B.
    """

    def __init__(self):
        self.tokens: np.ndarray = None  # (U, T)
        self.inverse: np.ndarray = None  # (B*P,)
        self.traces: list[tuple[_DirectionTrace, _DirectionTrace]] = []
        self.top_shape: tuple[int, int, int] = (0, 0, 0)  # (U, T, 2h)
        self.pool_argmax: np.ndarray = None  # (U, 2h)
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


def _cell(params: Parameters, layer: int, direction: str, x_t: np.ndarray,
          h: np.ndarray, c: np.ndarray):
    """One LSTM step: gates (i, f, g, o), new cell state and its tanh."""
    h_dim = params.cfg.hidden_dim
    z = (x_t @ params.arrays[f"lstm{layer}{direction}_W"].T
         + h @ params.arrays[f"lstm{layer}{direction}_U"].T
         + params.arrays[f"lstm{layer}{direction}_b"])
    i = _sigmoid(z[:, :h_dim])
    f = _sigmoid(z[:, h_dim:2 * h_dim])
    gg = np.tanh(z[:, 2 * h_dim:3 * h_dim])
    o = _sigmoid(z[:, 3 * h_dim:])
    c_new = f * c + i * gg
    return i, f, gg, o, c_new, np.tanh(c_new)


def _run_direction(params: Parameters, layer: int, direction: str,
                   inputs: np.ndarray, active: list[np.ndarray],
                   outputs: np.ndarray) -> _DirectionTrace:
    """Run one direction over all rows, writing the carried hidden state at
    each position into ``outputs``.

    A step computes only the rows whose token at that position is not PAD;
    the others carry h and c through unchanged.  Only the carried states are
    kept: the backward pass recomputes each step's gates from them.
    """
    h_dim = params.cfg.hidden_dim
    rows, T, _ = inputs.shape
    order = list(range(T)) if direction == "f" else list(range(T - 1, -1, -1))
    h = np.zeros((rows, h_dim))
    c = np.zeros((rows, h_dim))
    cells = np.zeros((rows, T, h_dim))
    for t in order:
        idx = active[t]
        _, _, _, o, c_new, tanh_c = _cell(params, layer, direction, inputs[idx, t],
                                          h[idx], c[idx])
        h[idx] = o * tanh_c
        c[idx] = c_new
        outputs[:, t] = h
        cells[:, t] = c
    return _DirectionTrace(order, inputs, active, outputs, cells)


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
    mask = cache.tokens != PAD
    rows, T = mask.shape
    active = [np.flatnonzero(mask[:, t]) for t in range(T)]

    h = cfg.hidden_dim
    current = params.arrays["token_emb"][cache.tokens]
    for layer in range(cfg.layers):
        outputs = np.zeros((rows, T, 2 * h))  # forward half, then backward half
        cache.traces.append((
            _run_direction(params, layer, "f", current, active, outputs[:, :, :h]),
            _run_direction(params, layer, "b", current, active, outputs[:, :, h:]),
        ))
        current = outputs
    cache.top_shape = current.shape

    # max-pool over the non-PAD steps; a path of PAD only keeps its zero
    # initial state, so it pools to zeros and passes back no gradient
    cache.pool_argmax = np.argmax(
        np.where(mask[:, :, None], current, -np.inf), axis=1)
    pooled = np.take_along_axis(current, cache.pool_argmax[:, None, :], axis=1)[:, 0]

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
    cache.probs = _sigmoid(cache.z)
    return cache.probs, cache


def forward(params: Parameters, sample: PathSample) -> tuple[float, ForwardCache]:
    """Score one (paths, relation) pair as a batch of one."""
    probs, cache = forward_batch(params, [sample])
    return float(probs[0]), cache


def bce_loss(prob: float, label: int) -> float:
    eps = 1e-12
    p = min(max(prob, eps), 1.0 - eps)
    return -(label * math.log(p) + (1 - label) * math.log(1.0 - p))


def _backward_direction(params: Parameters, layer: int, direction: str,
                        trace: _DirectionTrace, d_outputs: np.ndarray,
                        grads: dict[str, np.ndarray], d_inputs: np.ndarray) -> None:
    """Add this direction's parameter gradients to ``grads`` and its input
    gradients to ``d_inputs``."""
    h_dim = params.cfg.hidden_dim
    W = params.arrays[f"lstm{layer}{direction}_W"]
    U = params.arrays[f"lstm{layer}{direction}_U"]
    dW = grads[f"lstm{layer}{direction}_W"]
    dU = grads[f"lstm{layer}{direction}_U"]
    db = grads[f"lstm{layer}{direction}_b"]
    rows = d_outputs.shape[0]
    # gradients reaching the carried h and c; PAD steps pass them on unchanged
    dh = np.zeros((rows, h_dim))
    dc = np.zeros((rows, h_dim))
    for step in range(len(trace.order) - 1, -1, -1):
        t = trace.order[step]
        idx = trace.active[t]
        dh += d_outputs[:, t]
        if step:
            h_prev = trace.outputs[idx, trace.order[step - 1]]
            c_prev = trace.cells[idx, trace.order[step - 1]]
        else:
            h_prev = c_prev = np.zeros((len(idx), h_dim))
        x_t = trace.inputs[idx, t]
        i, f, gg, o, _, tanh_c = _cell(params, layer, direction, x_t, h_prev, c_prev)
        dh_new = dh[idx]
        do = dh_new * tanh_c
        dc_new = dc[idx] + dh_new * o * (1.0 - tanh_c ** 2)
        df = dc_new * c_prev
        di = dc_new * gg
        dgg = dc_new * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dgg * (1.0 - gg ** 2),
            do * o * (1.0 - o),
        ], axis=1)
        dW += dz.T @ x_t
        dU += dz.T @ h_prev
        db += dz.sum(axis=0)
        d_inputs[idx, t] += dz @ W
        dh[idx] = dz @ U
        dc[idx] = dc_new * f


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
    d_pooled = np.zeros(cache.pool_argmax.shape)
    np.add.at(d_pooled, cache.inverse,
              (du @ params.arrays["fusion_W"].T).reshape(len(cache.inverse), -1))
    d_current = np.zeros(cache.top_shape)
    np.put_along_axis(d_current, cache.pool_argmax[:, None, :], d_pooled[:, None, :],
                      axis=1)

    h_dim = params.cfg.hidden_dim
    for layer in range(params.cfg.layers - 1, -1, -1):
        trace_f, trace_b = cache.traces.pop()  # frees each layer once done
        d_inputs = np.zeros(trace_f.inputs.shape)
        _backward_direction(params, layer, "f", trace_f, d_current[:, :, :h_dim],
                            grads, d_inputs)
        _backward_direction(params, layer, "b", trace_b, d_current[:, :, h_dim:],
                            grads, d_inputs)
        d_current = d_inputs

    np.add.at(
        grads["token_emb"],
        cache.tokens.reshape(-1),
        d_current.reshape(-1, params.cfg.embed_dim),
    )
    return grads


def backward(params: Parameters, cache: ForwardCache, label: int) -> dict[str, np.ndarray]:
    """Analytic gradients of the binary cross-entropy loss of one sample."""
    return backward_batch(params, cache, [label], params.zeros_like())


@dataclass
class TrainResult:
    epoch_losses: list[float]
    lstm_rows: int  # distinct paths the LSTM ran, summed over all batches


def train(params: Parameters, samples: Sequence[PathSample],
          cfg: Optional[ModelConfig] = None) -> TrainResult:
    """Mini-batch Adam over the sample sequence; deterministic under the seed.

    Samples are reshuffled each epoch with a seeded generator; gradients are
    averaged per batch.  Raises on NaN loss, reporting the batch index.
    """
    import random as _random

    cfg = cfg or params.cfg
    if not samples:
        raise ModelError("empty training stream")
    adam_m = np.zeros_like(params.flat)
    adam_v = np.zeros_like(params.flat)
    grad_flat = np.zeros_like(params.flat)
    work = np.empty_like(params.flat)
    grads = params.views(grad_flat)
    step = 0
    lstm_rows = 0
    epoch_losses: list[float] = []
    indices = list(range(len(samples)))
    for epoch in range(cfg.epochs):
        rng = _random.Random(f"{cfg.seed}:epoch:{epoch}")
        rng.shuffle(indices)
        total = 0.0
        count = 0
        for start in range(0, len(indices), cfg.batch_size):
            batch = [samples[idx] for idx in indices[start:start + cfg.batch_size]]
            probs, cache = forward_batch(params, batch)
            lstm_rows += len(cache.tokens)
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
            # in place over the flat vectors, with the same operations in the
            # same order per element as one update per tensor; grad_flat ends
            # as the step and is zeroed before the next batch
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
    return TrainResult(epoch_losses, lstm_rows)


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


def save_checkpoint(params: Parameters, path) -> None:
    """Text header (magic + config) followed by little-endian float64 blocks."""
    with Path(path).open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write((json.dumps(asdict(params.cfg), sort_keys=True) + "\n").encode("utf-8"))
        for name in Parameters.tensor_names(params.cfg):
            array = np.ascontiguousarray(params.arrays[name], dtype="<f8")
            dims = " ".join(str(d) for d in array.shape)
            fh.write(f"{name} {len(array.shape)} {dims}\n".encode("utf-8"))
            fh.write(array.tobytes())


def load_checkpoint(path) -> Parameters:
    with Path(path).open("rb") as fh:
        magic = fh.readline()
        if magic != CHECKPOINT_MAGIC:
            raise ModelError(f"bad checkpoint magic: {magic!r}")
        cfg = ModelConfig(**json.loads(fh.readline().decode("utf-8")))
        arrays: dict[str, np.ndarray] = {}
        for name in Parameters.tensor_names(cfg):
            header = fh.readline().decode("utf-8").split()
            if not header or header[0] != name:
                raise ModelError(f"unexpected tensor header: {header!r}")
            ndim = int(header[1])
            shape = tuple(int(d) for d in header[2:2 + ndim])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ModelError(f"truncated tensor block: {name}")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return Parameters(cfg, arrays)
