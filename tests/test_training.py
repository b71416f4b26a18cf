import math
import struct

import numpy as np
import pytest

from conftest import toy_batch, toy_model
from meant.errors import ContractError, DatasetFormatError, NumericError
from meant.sealed import seal
from meant.tensor import Tensor
from meant.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, AdamW,
                            TrainConfig, compute_metrics, cosine_lr,
                            cross_entropy, evaluate, load_checkpoint,
                            restore_model, save_checkpoint, train,
                            windows_to_arrays)


def rng_(seed=0):
    return np.random.default_rng(seed)


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        loss = cross_entropy(Tensor(np.zeros((4, 2))), np.array([0, 1, 0, 1]))
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        logits = Tensor(np.array([[30.0, -30.0]]))
        assert cross_entropy(logits, np.array([0])).item() < 1e-12

    def test_matches_direct_formula(self):
        logits = rng_(1).normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 1])
        probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        want = -np.mean(np.log(probs[np.arange(5), labels]))
        got = cross_entropy(Tensor(logits), labels).item()
        assert abs(got - want) < 1e-12

    def test_extreme_logits_stable(self):
        logits = Tensor(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]))
        loss = cross_entropy(logits, np.array([1, 0]))
        assert np.isfinite(loss.item())

    def test_bad_labels(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([0, 2]))
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 2))), np.array([0]))

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(rng_(2).normal(size=(3, 2)), requires_grad=True)
        labels = np.array([1, 0, 1])
        cross_entropy(logits, labels).backward()
        probs = np.exp(logits.data) / np.exp(logits.data).sum(-1, keepdims=True)
        want = (probs - np.eye(2)[labels]) / 3.0
        assert np.max(np.abs(logits.grad - want)) < 1e-12


class TestAdamW:
    def test_first_step_closed_form(self):
        # after one step from zero state: m_hat = g, v_hat = g*g, so the
        # update is lr * sign-ish g / (|g| + eps) on the decayed weight
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        g = np.array([0.3, -0.7])
        p.grad = g.copy()
        lr, wd = 0.01, 0.01
        opt = AdamW({"p": p}, weight_decay=wd)
        opt.step(lr)
        want = np.array([1.0, -2.0]) * (1 - lr * wd) \
            - lr * g / (np.abs(g) + 1e-8)
        assert np.max(np.abs(p.data - want)) < 1e-9

    def test_zero_grad_only_decays(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        opt = AdamW({"p": p})
        opt.step(0.1)
        assert abs(p.data[0] - 2.0 * (1 - 0.1 * 0.01)) < 1e-12

    def test_no_decay_variant(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.zeros(1)
        AdamW({"p": p}, weight_decay=0.0).step(0.1)
        assert p.data[0] == 2.0

    def test_lr_zero_is_noop(self):
        p = Tensor(rng_(3).normal(size=4), requires_grad=True)
        p.grad = rng_(4).normal(size=4)
        before = p.data.copy()
        AdamW({"p": p}).step(0.0)
        assert np.array_equal(p.data, before)

    def test_nonfinite_gradient_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="'p'"):
            AdamW({"p": p}).step(0.01)

    def test_decoupled_decay_order(self):
        # decay applies to the incoming weight, not the updated one
        p = Tensor(np.array([10.0]), requires_grad=True)
        p.grad = np.array([1.0])
        lr, wd = 0.5, 0.1
        opt = AdamW({"p": p}, weight_decay=wd)
        opt.step(lr)
        decayed = 10.0 * (1 - lr * wd)
        assert abs(p.data[0] - (decayed - lr * 1.0 / (1.0 + 1e-8))) < 1e-9


class TestSchedule:
    def test_start_at_eta_max(self):
        assert cosine_lr(5e-5, 0) == 5e-5

    def test_midpoint_is_half(self):
        assert abs(cosine_lr(4e-4, 3.5) - 2e-4) < 1e-18

    def test_restart_resets(self):
        assert abs(cosine_lr(5e-5, 7) - 5e-5) < 1e-18
        assert cosine_lr(5e-5, 6.999) < 1e-6

    def test_periodicity_without_mult(self):
        for t in np.linspace(0, 6.9, 20):
            assert abs(cosine_lr(1.0, t) - cosine_lr(1.0, t + 7.0)) < 1e-12

    def test_invalid_args(self):
        with pytest.raises(ContractError):
            cosine_lr(5e-5, -1.0)


class TestMetrics:
    def test_hand_case(self):
        # true: 0 0 1 1, pred: 0 1 1 1
        report = compute_metrics(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]))
        assert report.accuracy == 0.75
        assert report.confusion == [[1, 1], [0, 2]]
        assert report.per_class[0] == {"precision": 1.0, "recall": 0.5,
                                       "f1": 2 / 3}
        assert abs(report.per_class[1]["f1"] - 0.8) < 1e-12
        assert abs(report.macro_f1 - (2 / 3 + 0.8) / 2) < 1e-12

    def test_degenerate_class_zero_division(self):
        report = compute_metrics(np.array([0, 0]), np.array([1, 1]))
        assert report.per_class[1] == {"precision": 0.0, "recall": 0.0,
                                       "f1": 0.0}
        assert report.accuracy == 0.0

    def test_brute_force_sweep(self):
        # exact agreement with a from-scratch computation on 1000 cases
        rng = rng_(5)
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            preds = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            report = compute_metrics(preds, labels)
            assert report.accuracy == (preds == labels).mean()
            for t in (0, 1):
                for p in (0, 1):
                    want = int(((labels == t) & (preds == p)).sum())
                    assert report.confusion[t][p] == want

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            compute_metrics(np.array([]), np.array([]))

    def test_nonbinary_rejected(self):
        with pytest.raises(ContractError):
            compute_metrics(np.array([0, 2]), np.array([0, 1]))


class TestWindowsToArrays:
    def test_shapes_and_normalization(self, sine_dataset):
        windows, _, _ = sine_dataset
        data = windows_to_arrays(windows)
        n = len(windows)
        assert data["ids"].shape == (n, 5, 16)
        assert data["macd"].shape == (n, 5, 5)
        assert data["images"].shape == (n, 5, 3, 32, 32)
        assert data["labels"].shape == (n,)
        norm = {"mean": data["macd"].mean(axis=(0, 1)).tolist(),
                "std": data["macd"].std(axis=(0, 1)).tolist()}
        z = windows_to_arrays(windows, norm)["macd"]
        assert np.max(np.abs(z.mean(axis=(0, 1)))) < 1e-9
        assert np.max(np.abs(z.std(axis=(0, 1)) - 1.0)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            windows_to_arrays([])


def tiny_problem(n=24, seed=0):
    """Synthetic arrays whose label is the sign of a MACD lane."""
    model = toy_model(seed=seed, use_image=False)
    c = model.config
    rng = rng_(seed)
    macd = rng.normal(size=(n, c.lag, 5))
    labels = (macd[:, -1, 3] > 0).astype(np.int64)
    data = {
        "ids": rng.integers(0, c.vocab_size, size=(n, c.lag, c.seq_len)),
        "macd": macd,
        "images": None,
        "labels": labels,
    }
    return model, data


class TestTrainLoop:
    def test_deterministic_given_seed(self):
        logs = []
        for _ in range(2):
            model, data = tiny_problem()
            cfg = TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=11)
            snapshot, log = train(model, data, data, cfg)
            logs.append((log, {k: v.copy() for k, v in snapshot.items()}))
        (log_a, snap_a), (log_b, snap_b) = logs
        assert log_a == log_b
        assert all(np.array_equal(snap_a[k], snap_b[k]) for k in snap_a)

    def test_loss_decreases_on_learnable_problem(self):
        model, data = tiny_problem()
        cfg = TrainConfig(epochs=6, batch_size=8, lr=3e-3, patience=10, seed=1)
        _, log = train(model, data, data, cfg)
        assert log[-1]["train_loss"] < log[0]["train_loss"]
        assert log[-1]["val"]["accuracy"] >= 0.75

    def test_patience_stops_after_three_stale_epochs(self):
        # constant labels make macro-F1 improve once then plateau, so the
        # loop must run exactly 1 + patience validation epochs
        model, data = tiny_problem()
        data = dict(data)
        data["labels"] = np.zeros_like(data["labels"])
        cfg = TrainConfig(epochs=50, batch_size=8, lr=0.0, patience=3, seed=2)
        _, log = train(model, data, data, cfg)
        assert len(log) == 4

    def test_best_snapshot_restored(self):
        model, data = tiny_problem()
        cfg = TrainConfig(epochs=4, batch_size=8, lr=3e-3, patience=10, seed=3)
        snapshot, log = train(model, data, data, cfg)
        best = max(entry["val"]["macro_f1"] for entry in log)
        report = evaluate(model, data)
        assert abs(report.macro_f1 - best) < 1e-12
        for name, p in model.params().items():
            assert np.array_equal(p.data, snapshot[name])

    def test_empty_split_rejected(self):
        model, data = tiny_problem()
        empty = {k: (v[:0] if v is not None else None) for k, v in data.items()}
        with pytest.raises(ContractError):
            train(model, empty, data, TrainConfig(epochs=1))

    @pytest.mark.parametrize("name,value", [
        ("epochs", 0), ("batch_size", -2), ("patience", 0), ("seed", -1),
        ("epochs", 2.0), ("batch_size", True), ("lr", float("nan")),
        ("weight_decay", float("inf")), ("weight_decay", "0.01")])
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ContractError, match=name):
            TrainConfig(**{name: value})

    def test_disabled_modalities_are_never_batched(self):
        # the model reads no images, so an array that cannot be indexed
        # must not reach batching in train or evaluate
        model, data = tiny_problem(n=16)
        data = {**data, "images": object()}
        cfg = TrainConfig(epochs=1, batch_size=8, lr=1e-3, seed=5)
        _, log = train(model, data, data, cfg)
        assert log[0]["val"] == evaluate(model, data).to_dict()

    def test_eval_batches_are_views(self, monkeypatch):
        from meant import training
        model, data = tiny_problem(n=20)
        seen = []
        batch = training._batch

        def spy(arrays, idx):
            out = batch(arrays, idx)
            seen.append(out["macd"].base is arrays["macd"])
            return out

        monkeypatch.setattr(training, "_batch", spy)
        evaluate(model, data, batch_size=8)
        assert seen == [True, True, True]


# stands for a ``dataset_binding``
BINDING = {"normalization_crc32": 1234, "tokenizer_crc32": 5678}


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = toy_model(seed=5)
        path = tmp_path / "model.ckpt"
        params = {k: p.data for k, p in model.params().items()}
        save_checkpoint(path, model.config, params, BINDING)
        config, loaded, binding = load_checkpoint(path)
        assert config == model.config
        assert binding == BINDING
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name].reshape(-1))

    def test_restore_model_reproduces_outputs(self, tmp_path):
        model = toy_model(seed=6)
        batch = toy_batch(model.config)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.config,
                        {k: p.data for k, p in model.params().items()}, BINDING)
        again, _ = restore_model(path)
        a = model(batch["ids"], batch["macd"], batch["images"]).data
        b = again(batch["ids"], batch["macd"], batch["images"]).data
        assert np.array_equal(a, b)

    def test_corrupted_byte_detected(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.config,
                        {k: p.data for k, p in model.params().items()}, BINDING)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError, match="checksum"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world, definitely not a model")
        with pytest.raises(DatasetFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("record", [b"[]", b"{not json", b"\xff"],
                             ids=["list", "not_json", "not_utf8"])
    def test_malformed_config_record(self, tmp_path, record):
        # a well-sealed file whose config record is not a JSON object
        body = struct.pack("<I", CHECKPOINT_VERSION)
        for rec in (record, b'{"tokenizer_crc32":1}'):
            body += struct.pack("<I", len(rec)) + rec
        body += struct.pack("<I", 0)
        path = tmp_path / "model.ckpt"
        path.write_bytes(seal(CHECKPOINT_MAGIC, body))
        with pytest.raises(DatasetFormatError, match="config"):
            load_checkpoint(path)

    def test_missing_parameter_detected(self, tmp_path):
        model = toy_model()
        params = {k: p.data for k, p in model.params().items()}
        dropped = dict(list(params.items())[:-1])
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.config, dropped, BINDING)
        with pytest.raises(DatasetFormatError, match="mismatch"):
            restore_model(path)

    @pytest.mark.parametrize("overrides,crc", [
        ({}, 0x820fc6d1),
        ({"pooling": "seq_proj", "lang_pos": "rotary"}, 0x07bca937)],
        ids=["default", "seq_proj_rotary"])
    def test_checkpoint_bytes_pinned(self, tmp_path, overrides, crc):
        # the stored CRC footer covers the config, the binding and every
        # parameter's name, order and bytes, so it pins the file format and
        # the parameter walk; zlib.crc32 of a whole file would always be
        # the CRC-32 residue
        model = toy_model(seed=5, **overrides)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model.config,
                        {k: p.data for k, p in model.params().items()}, BINDING)
        assert struct.unpack("<I", path.read_bytes()[-4:])[0] == crc

    def test_save_is_byte_deterministic(self, tmp_path):
        model = toy_model(seed=7)
        params = {k: p.data for k, p in model.params().items()}
        save_checkpoint(tmp_path / "a.ckpt", model.config, params, BINDING)
        save_checkpoint(tmp_path / "b.ckpt", model.config, params, BINDING)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
