import itertools
import json
import random

import numpy as np
import pytest

from lineagekg.paths import NOPATH, PAD, PathSample
from lineagekg.siamese import (
    ModelConfig,
    ModelError,
    backward,
    backward_batch,
    bce_loss,
    forward,
    forward_batch,
    init_parameters,
    load_checkpoint,
    predict,
    save_checkpoint,
    train,
)


def tiny_config(seed=0, **overrides):
    base = dict(vocab_size=8, num_relations=4, embed_dim=4, hidden_dim=4,
                layers=1, fusion_dim=6, seed=seed)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_sample(relation=2, label=1):
    return PathSample(paths=((2, 3, 4, 0, 0), (5, 2, 0, 0, 0), (1, 0, 0, 0, 0)),
                      relation=relation, label=label)


def numeric_grads(params, sample, label, eps=1e-4):
    """Oracle: central finite differences over every parameter coordinate."""
    out = {}
    for name, arr in params.arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        grad_flat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = bce_loss(forward(params, sample)[0], label)
            flat[i] = orig - eps
            loss_minus = bce_loss(forward(params, sample)[0], label)
            flat[i] = orig
            grad_flat[i] = (loss_plus - loss_minus) / (2 * eps)
        out[name] = grad
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        a, n = analytic[name], numeric[name]
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        rel = diff / denom
        rel[diff < 1e-9] = 0.0
        worst = max(worst, float(rel.max()))
    return worst


def mean_loss_grad_error(params, batch, eps=1e-4):
    """Largest relative error of the batch's analytic mean-loss gradients
    against central finite differences over every parameter coordinate."""
    labels = [s.label for s in batch]

    def mean_loss():
        probs, _ = forward_batch(params, batch)
        return sum(bce_loss(p, y) for p, y in zip(probs.tolist(), labels)) / len(batch)

    _, cache = forward_batch(params, batch)
    analytic = {name: g / len(batch) for name, g in
                backward_batch(params, cache, labels, params.zeros_like()).items()}
    numeric = {}
    for name, arr in params.arrays.items():
        grad = np.zeros_like(arr)
        flat, grad_flat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            loss_plus = mean_loss()
            flat[i] = orig - eps
            loss_minus = mean_loss()
            flat[i] = orig
            grad_flat[i] = (loss_plus - loss_minus) / (2 * eps)
        numeric[name] = grad
    return max_relative_error(analytic, numeric)


def varied_samples(count):
    """Samples with paths of different tokens and lengths, and both labels."""
    return [PathSample(paths=((2 + i % 6, 3 + i % 5, 0), (5, 2 + i % 3, 4), (1, 0, 0)),
                       relation=i % 4, label=i % 2) for i in range(count)]


def per_tensor_train(params, samples, cfg):
    """Oracle: ``train`` with Adam run tensor by tensor, as separate arrays;
    returns the epoch losses."""
    adam_m, adam_v = params.zeros_like(), params.zeros_like()
    step = 0
    epoch_losses = []
    indices = list(range(len(samples)))
    for epoch in range(cfg.epochs):
        random.Random(f"{cfg.seed}:epoch:{epoch}").shuffle(indices)
        total = 0.0
        for start in range(0, len(indices), cfg.batch_size):
            batch = [samples[idx] for idx in indices[start:start + cfg.batch_size]]
            probs, cache = forward_batch(params, batch)
            batch_loss = 0.0
            for prob, sample in zip(probs.tolist(), batch):
                batch_loss += bce_loss(prob, sample.label)
            batch_loss /= len(batch)
            grads = backward_batch(params, cache, [s.label for s in batch],
                                   params.zeros_like())
            scale = 1.0 / len(batch)
            step += 1
            bias1 = 1.0 - 0.9 ** step
            bias2 = 1.0 - 0.999 ** step
            for name, array in params.arrays.items():
                g = grads[name] * scale
                adam_m[name] = 0.9 * adam_m[name] + (1 - 0.9) * g
                adam_v[name] = 0.999 * adam_v[name] + (1 - 0.999) * g * g
                m_hat = adam_m[name] / bias1
                v_hat = adam_v[name] / bias2
                array -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
            total += batch_loss * len(batch)
        epoch_losses.append(total / len(samples))
    return epoch_losses


class TestForward:
    def test_output_in_open_unit_interval(self):
        params = init_parameters(tiny_config())
        prob, _ = forward(params, tiny_sample())
        assert 0.0 < prob < 1.0

    def test_identical_paths_permutation_invariant(self):
        params = init_parameters(tiny_config())
        path = (2, 3, 0, 0)
        sample = PathSample(paths=(path, path, path), relation=1, label=1)
        base, _ = forward(params, sample)
        for perm in itertools.permutations((path, path, path)):
            prob, _ = forward(params, PathSample(paths=perm, relation=1, label=1))
            assert prob == base

    def test_zero_fusion_scores_exactly_half(self):
        params = init_parameters(tiny_config())
        params.arrays["fusion_W"][:] = 0.0
        params.arrays["fusion_b"][:] = 0.0
        prob, cache = forward(params, tiny_sample())
        assert prob == 0.5
        assert cache.p_norm == 0.0

    def test_zero_relation_embedding_scores_exactly_half(self):
        params = init_parameters(tiny_config())
        params.arrays["rel_emb"][2][:] = 0.0
        prob, _ = forward(params, tiny_sample(relation=2))
        assert prob == 0.5

    def test_token_out_of_range(self):
        params = init_parameters(tiny_config())
        bad = PathSample(paths=((99, 0), (1, 0), (1, 0)), relation=0, label=1)
        with pytest.raises(ModelError, match="token id"):
            forward(params, bad)

    def test_relation_out_of_range(self):
        params = init_parameters(tiny_config())
        with pytest.raises(ModelError, match="relation id"):
            forward(params, tiny_sample(relation=17))

    def test_extra_padding_never_changes_score(self):
        params = init_parameters(tiny_config(layers=2))
        short = PathSample(paths=((2, 3), (5,), (1,)), relation=1, label=1)
        long = PathSample(
            paths=((2, 3, 0, 0, 0, 0, 0), (5, 0, 0, 0, 0, 0, 0),
                   (1, 0, 0, 0, 0, 0, 0)),
            relation=1, label=1)
        a, _ = forward(params, short)
        b, _ = forward(params, long)
        assert a == pytest.approx(b, abs=0, rel=0)

    def test_inner_padding_carries_state(self):
        params = init_parameters(tiny_config(layers=2))
        inner = PathSample(paths=((2, PAD, 3), (5,), (1,)), relation=1, label=1)
        packed = PathSample(paths=((2, 3), (5,), (1,)), relation=1, label=1)
        assert forward(params, inner)[0] == forward(params, packed)[0]

    def test_weight_sharing_single_tensor_set(self):
        cfg = tiny_config(layers=2)
        params = init_parameters(cfg)
        lstm_names = [n for n in params.arrays if n.startswith("lstm")]
        # one W/U/b per layer and direction; nothing per-branch
        assert len(lstm_names) == cfg.layers * 2 * 3


class TestBackward:
    def test_unused_vocab_rows_zero_grad(self):
        params = init_parameters(tiny_config())
        sample = tiny_sample()
        _, cache = forward(params, sample)
        grads = backward(params, cache, 1)
        used = {t for path in sample.paths for t in path}
        for row in range(params.cfg.vocab_size):
            if row not in used:
                assert np.all(grads["token_emb"][row] == 0.0)

    def test_pad_embedding_zero_grad(self):
        params = init_parameters(tiny_config())
        _, cache = forward(params, tiny_sample())
        grads = backward(params, cache, 1)
        assert np.all(grads["token_emb"][0] == 0.0)

    def test_unused_relation_rows_zero_grad(self):
        params = init_parameters(tiny_config())
        _, cache = forward(params, tiny_sample(relation=2))
        grads = backward(params, cache, 0)
        for row in range(params.cfg.num_relations):
            if row != 2:
                assert np.all(grads["rel_emb"][row] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_finite_differences(self, seed):
        params = init_parameters(tiny_config(seed=seed))
        sample = tiny_sample(relation=seed % 4, label=seed % 2)
        _, cache = forward(params, sample)
        analytic = backward(params, cache, sample.label)
        numeric = numeric_grads(params, sample, sample.label)
        assert max_relative_error(analytic, numeric) <= 1e-3

    def test_two_layer_gradients(self):
        params = init_parameters(tiny_config(seed=9, layers=2))
        sample = tiny_sample()
        _, cache = forward(params, sample)
        analytic = backward(params, cache, 1)
        numeric = numeric_grads(params, sample, 1)
        assert max_relative_error(analytic, numeric) <= 1e-3


class TestBatch:
    def test_mixed_batch_matches_summed_single_samples(self):
        params = init_parameters(tiny_config(seed=3, layers=2))
        params.arrays["rel_emb"][3][:] = 0.0  # one sample pinned at 0.5
        nopath = (NOPATH, PAD, PAD)
        # paths of different lengths (one of PAD only), a NOPATH-only sample,
        # and relations and tokens that repeat across samples
        batch = [
            PathSample(paths=((2, 3, 4, 5), (5, 2), (1,)), relation=2, label=1),
            PathSample(paths=(nopath, nopath, nopath), relation=1, label=0),
            PathSample(paths=((6, 7, 2, 3, 4, 5, 6), (2,), (PAD,)), relation=2, label=0),
            PathSample(paths=((3, 3, 3), (4, 5), (7, 6, 5, 4)), relation=3, label=1),
            PathSample(paths=((2, 3, 4, 5), (5, 2), (1,)), relation=1, label=1),
        ]
        probs, cache = forward_batch(params, batch)
        grads = backward_batch(params, cache, [s.label for s in batch],
                               params.zeros_like())
        summed = params.zeros_like()
        for i, sample in enumerate(batch):
            prob, single = forward(params, sample)
            assert probs[i] == pytest.approx(prob, rel=1e-12, abs=0)
            for name, g in backward(params, single, sample.label).items():
                summed[name] += g
        assert probs[3] == 0.5
        assert np.all(grads["rel_emb"][3] == 0.0)  # only the pinned sample uses it
        # relative to each tensor's largest entry: an entry whose terms cancel
        # keeps their rounding error
        for name in summed:
            assert np.any(summed[name] != 0.0), name
            np.testing.assert_allclose(grads[name], summed[name], rtol=1e-12,
                                       atol=1e-12 * np.abs(summed[name]).max(),
                                       err_msg=name)

    def test_mean_loss_matches_finite_differences(self):
        params = init_parameters(tiny_config(seed=4))
        batch = [tiny_sample(relation=2, label=1),
                 PathSample(paths=((6, PAD, 7, 2), (3,), (4, 5)), relation=2, label=0),
                 PathSample(paths=((5, 4), (PAD,), (2, 2, 2, 2)), relation=0, label=1)]
        assert mean_loss_grad_error(params, batch) <= 1e-3

    def test_mean_loss_with_repeated_paths_matches_finite_differences(self):
        params = init_parameters(tiny_config(seed=7, layers=2))
        nopath = (NOPATH,)
        # paths repeated within and across samples, NOPATH rows and lengths 1-5
        batch = [PathSample(paths=((2, 3, 4), nopath, nopath), relation=2, label=1),
                 PathSample(paths=(nopath, nopath, nopath), relation=1, label=0),
                 PathSample(paths=((2, 3, 4), (5,), (6, 7, 2, 3, 4)), relation=2, label=0),
                 PathSample(paths=((5,), (2, 3, 4), nopath), relation=3, label=1)]
        _, cache = forward_batch(params, batch)
        assert len(cache.tokens) == 4  # of 12 path rows
        # at eps=1e-4 this two-layer batch's truncation error alone reaches 3e-3
        assert mean_loss_grad_error(params, batch, eps=1e-5) <= 1e-3

    def test_lstm_runs_each_distinct_path_once(self):
        params = init_parameters(tiny_config())
        batch = [PathSample(paths=((2, 3), (4,), (NOPATH,)), relation=1, label=1),
                 PathSample(paths=((4,), (NOPATH,), (NOPATH,)), relation=2, label=0),
                 PathSample(paths=((2, 3), (2, 3, 5), (NOPATH,)), relation=1, label=1)]
        _, cache = forward_batch(params, batch)
        padded = [tuple(path) + (PAD,) * (3 - len(path))
                  for s in batch for path in s.paths]
        assert cache.tokens.shape == (len(set(padded)), 3) == (4, 3)
        assert [tuple(row) for row in cache.tokens[cache.inverse].tolist()] == padded

    def test_equal_inputs_in_one_batch_tie(self):
        params = init_parameters(tiny_config(layers=2))
        other = PathSample(paths=((5, 6), (NOPATH,), (7,)), relation=1, label=0)
        probs, _ = forward_batch(params, [tiny_sample(), other, tiny_sample(), other])
        assert probs[0] == probs[2] and probs[1] == probs[3]

    def test_duplicate_sample_doubles_gradients(self):
        params = init_parameters(tiny_config(seed=5, layers=2))
        _, cache = forward_batch(params, [tiny_sample()])
        once = backward_batch(params, cache, [1], params.zeros_like())
        _, cache = forward_batch(params, [tiny_sample(), tiny_sample()])
        twice = backward_batch(params, cache, [1, 1], params.zeros_like())
        for name in once:
            np.testing.assert_allclose(twice[name], 2 * once[name], rtol=1e-12,
                                       atol=1e-12, err_msg=name)
    def test_path_count_sizes_fusion_and_is_checked(self):
        params = init_parameters(tiny_config(num_paths=2))
        assert params.arrays["fusion_W"].shape == (2 * 2 * 4, 6)
        two = PathSample(paths=((2, 3), (4,)), relation=1, label=1)
        assert 0.0 < forward(params, two)[0] < 1.0
        with pytest.raises(ModelError, match="3 paths, model expects 2"):
            forward_batch(params, [two, tiny_sample()])

    def test_relation_checked_over_whole_batch(self):
        params = init_parameters(tiny_config())
        with pytest.raises(ModelError, match="relation id out of range: 9"):
            forward_batch(params, [tiny_sample(relation=1), tiny_sample(relation=9)])


class TestTrain:
    def test_overfit_single_sample_loss_decreases(self):
        cfg = tiny_config(epochs=10, seed=1)
        params = init_parameters(cfg)
        # one batch per epoch: each epoch loss is the loss of one Adam step
        result = train(params, [tiny_sample()] * cfg.batch_size, cfg)
        losses = result.epoch_losses
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_each_step_uses_only_its_batch(self):
        """Two Adam steps on identical batches, recomputed from the batch
        gradients: a step must not see an earlier batch's gradients."""
        cfg = tiny_config(batch_size=4, epochs=1, seed=6, learning_rate=0.01)
        samples = [tiny_sample(relation=2, label=1)] * 8
        params = init_parameters(cfg)
        expected = params.copy()
        m, v = expected.zeros_like(), expected.zeros_like()
        for step in (1, 2):
            _, cache = forward_batch(expected, samples[:4])
            grads = backward_batch(expected, cache, [1] * 4, expected.zeros_like())
            for name, array in expected.arrays.items():
                g = grads[name] / 4
                m[name] = 0.9 * m[name] + (1 - 0.9) * g
                v[name] = 0.999 * v[name] + (1 - 0.999) * g * g
                array -= cfg.learning_rate * (m[name] / (1 - 0.9 ** step)) / (
                    np.sqrt(v[name] / (1 - 0.999 ** step)) + 1e-8)
        train(params, samples, cfg)
        for name, array in params.arrays.items():
            np.testing.assert_allclose(array, expected.arrays[name], rtol=1e-12,
                                       atol=1e-15, err_msg=name)

    def test_zero_learning_rate_keeps_params(self):
        cfg = tiny_config(learning_rate=0.0, epochs=3)
        params = init_parameters(cfg)
        before = {k: v.copy() for k, v in params.arrays.items()}
        result = train(params, [tiny_sample()] * 40, cfg)
        for name, array in params.arrays.items():
            assert np.array_equal(array, before[name])
        assert len(set(round(x, 12) for x in result.epoch_losses)) == 1

    def test_training_deterministic(self):
        samples = [tiny_sample(relation=i % 4, label=i % 2) for i in range(64)]
        finals = []
        for _ in range(2):
            cfg = tiny_config(epochs=2, seed=5)
            params = init_parameters(cfg)
            train(params, samples, cfg)
            finals.append({k: v.copy() for k, v in params.arrays.items()})
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name])

    def test_flat_adam_matches_per_tensor_loop(self, tmp_path):
        cfg = tiny_config(layers=2, batch_size=8, epochs=2, seed=3)
        samples = varied_samples(40)
        params, expected = init_parameters(cfg), init_parameters(cfg)
        losses = train(params, samples, cfg).epoch_losses
        assert losses == per_tensor_train(expected, samples, cfg)
        save_checkpoint(params, tmp_path / "flat.bin")
        save_checkpoint(expected, tmp_path / "loop.bin")
        assert (tmp_path / "flat.bin").read_bytes() == (tmp_path / "loop.bin").read_bytes()

    def test_copied_and_loaded_params_are_views_of_their_flat_vector(self, tmp_path):
        cfg = tiny_config(layers=2, batch_size=8, epochs=1, seed=4)
        params = init_parameters(cfg)
        save_checkpoint(params, tmp_path / "model.bin")
        copied, loaded = params.copy(), load_checkpoint(tmp_path / "model.bin")
        for other in (copied, loaded):
            assert not np.shares_memory(other.flat, params.flat)
            for name, array in other.arrays.items():
                assert array.base is other.flat and array.flags.writeable
                assert np.array_equal(array, params.arrays[name])
        # each trains in place like the original
        trained = []
        for index, other in enumerate((params, copied, loaded)):
            train(other, varied_samples(24), cfg)
            save_checkpoint(other, tmp_path / f"trained{index}.bin")
            trained.append((tmp_path / f"trained{index}.bin").read_bytes())
        assert trained[0] == trained[1] == trained[2]
        assert trained[0] != (tmp_path / "model.bin").read_bytes()

    def test_params_stay_finite(self):
        cfg = tiny_config(epochs=2, seed=2)
        params = init_parameters(cfg)
        samples = [tiny_sample(relation=i % 4, label=i % 2) for i in range(96)]
        train(params, samples, cfg)
        assert params.all_finite()

    def test_empty_stream_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ModelError):
            train(init_parameters(cfg), [], cfg)


class TestPredict:
    def test_empty_list(self):
        params = init_parameters(tiny_config())
        assert predict(params, []) == []

    def test_reproducible(self):
        params = init_parameters(tiny_config())
        samples = [tiny_sample(relation=i % 4) for i in range(10)]
        assert predict(params, samples) == predict(params, samples)

    def test_order_preserved(self):
        params = init_parameters(tiny_config())
        samples = [tiny_sample(relation=i % 4) for i in range(6)]
        scores = predict(params, samples)
        for i, sample in enumerate(samples):
            assert scores[i] == forward(params, sample)[0]

    def test_order_preserved_across_batches(self):
        params = init_parameters(tiny_config(batch_size=32))
        samples = [PathSample(paths=((2 + i % 6, 3 + i % 5), (5, 2 + i % 3), (1,)),
                              relation=i % 4, label=1) for i in range(70)]
        scores = predict(params, samples)
        assert len(scores) == 70
        assert len(set(scores)) > 32
        for i, sample in enumerate(samples):
            assert scores[i] == pytest.approx(forward(params, sample)[0], rel=1e-12)


    def test_equal_inputs_tie_whatever_their_batch(self):
        # one input at index 3 (a full batch of 32) and 33 (a batch of 2), with
        # either label: computed in each batch, its two scores can differ in
        # the last bit, which breaks the tie that PR-AUC groups
        params = init_parameters(ModelConfig(vocab_size=20, num_relations=4, seed=0))

        def sample(seed, label=0):
            rng = np.random.default_rng(seed)
            return PathSample(
                paths=tuple(tuple(int(t) for t in rng.integers(2, 20, rng.integers(1, 7)))
                            for _ in range(3)),
                relation=1, label=label)

        samples = [sample(1000 + i) for i in range(34)]
        samples[3], samples[33] = sample(0, label=1), sample(0, label=0)
        scores = predict(params, samples)
        assert scores[3] == scores[33]
        assert scores[3] == pytest.approx(forward(params, samples[3])[0], rel=1e-12)


class TestCheckpoint:
    def test_bitwise_round_trip(self, tmp_path):
        params = init_parameters(tiny_config(seed=8, layers=2))
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.cfg == params.cfg
        for name in params.arrays:
            assert loaded.arrays[name].dtype == np.float64
            assert np.array_equal(loaded.arrays[name], params.arrays[name])
        # byte-for-byte stable re-save
        path2 = tmp_path / "model2.bin"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_without_num_paths_loads_as_three(self, tmp_path):
        params = init_parameters(tiny_config(seed=8))
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        magic, header, rest = path.read_bytes().split(b"\n", 2)
        old = json.loads(header)
        del old["num_paths"]
        path.write_bytes(b"\n".join([magic, json.dumps(old).encode(), rest]))
        loaded = load_checkpoint(path)
        assert loaded.cfg == params.cfg and loaded.cfg.num_paths == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ModelError, match="magic"):
            load_checkpoint(path)
