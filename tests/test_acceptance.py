"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line on the real stdout (bypassing capture)
so the criterion verdicts are visible in any run log.
"""

import datetime as dt
import itertools
import sys
import time

import numpy as np
import pytest

from conftest import padded_days, target_weights, toy_batch, toy_model
from meant.checks import model_grad_check
from meant.cli import MODEL_GATE, OP_GATE, _op_checks, _padded_day_ids
from meant.dataset import build_lag_windows, load_dataset, save_dataset, stocknet_label
from meant.encoders import VisionPipeline, visible_tokens
from meant.fusion import (ModelConfig, QueryTargetAttention,
                          SequenceProjection, mean_pool)
from meant.indicators import (CrossSignal, IndicatorSeries, PriceSeries,
                              classify_crossover, compute_macd, ema)
from meant.synthetic import make_sine_prices, make_tweets
from meant.tensor import Tensor, gelu, layer_norm
from meant.training import (AdamW, TrainConfig, compute_metrics, cosine_lr,
                            evaluate, train, windows_to_arrays)


_capfd = None


@pytest.fixture(autouse=True)
def _expose_capfd(capfd):
    # fd-level capture also swallows sys.__stdout__, so the verdict line
    # has to be written while capture is suspended
    global _capfd
    _capfd = capfd
    yield
    _capfd = None


def _verdict(num: int, title: str, ok: bool) -> None:
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {title}\n"
    with _capfd.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()
    assert ok, f"criterion {num} failed: {title}"


def ema_closed_form(values: np.ndarray, period: int) -> np.ndarray:
    """Direct-summation expansion of the smoothing recurrence."""
    alpha = 2.0 / (period + 1.0)
    n = len(values)
    exponents = np.subtract.outer(np.arange(n), np.arange(n))
    with np.errstate(invalid="ignore"):
        weights = np.where(exponents >= 0, (1.0 - alpha) ** exponents, 0.0) * alpha
    weights[:, 0] = np.where(exponents[:, 0] >= 0,
                             (1.0 - alpha) ** exponents[:, 0], 0.0)
    return weights @ values


def _series(closes: np.ndarray) -> PriceSeries:
    start = dt.date(2020, 1, 1)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(closes)))
    return PriceSeries("T", dates, tuple(float(c) for c in closes))


def test_criterion_1_indicator_oracle():
    rng = np.random.default_rng(100)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        closes = rng.uniform(20.0, 200.0, size=200)
        ind = compute_macd(_series(closes))
        e12 = ema_closed_form(closes, 12)
        e26 = ema_closed_form(closes, 26)
        sig = ema_closed_form(e12 - e26, 9)
        for got, want in ((ind.ema12, e12), (ind.ema26, e26), (ind.s, sig)):
            scale = np.maximum(np.abs(want), 1e-30)
            worst = max(worst, float(np.max(np.abs(got - want) / scale)))
    elapsed = time.monotonic() - start
    _verdict(1, f"indicator oracle (rel err {worst:.2e}, {elapsed:.1f}s)",
             worst < 1e-9 and elapsed < 5.0)


def test_criterion_2_crossover_truth_table():
    def synth(m_prev, s_prev, m_now, s_now):
        dates = (dt.date(2020, 1, 1), dt.date(2020, 1, 2))
        z = np.zeros(2)
        return IndicatorSeries(dates, z, z, np.array([m_prev, m_now]),
                               np.array([s_prev, s_now]),
                               np.array([m_prev - s_prev, m_now - s_now]))

    ok = True
    for d_prev, d_now in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        for s_prev, s_now in ((0.0, 0.0), (0.4, -0.3), (-1.5, 2.0)):
            got = classify_crossover(
                synth(s_prev + d_prev, s_prev, s_now + d_now, s_now), 1)
            if d_prev < 0 and d_now > 0:
                want = CrossSignal.POSITIVE
            elif d_prev > 0 and d_now < 0:
                want = CrossSignal.NEGATIVE
            else:
                want = CrossSignal.NONE
            ok = ok and got is want
    _verdict(2, "crossover truth table incl. equality -> no signal", ok)


def test_criterion_3_dataset_soundness(tmp_path, sine_prices, sine_dataset,
                                       small_graph_spec):
    windows, _, tok = sine_dataset
    ind = compute_macd(sine_prices)
    ok = len(windows) > 0

    labels = set()
    for w in windows:
        t = sine_prices.dates.index(w.target_date)
        sig = classify_crossover(ind, t)
        ok = ok and w.label == (1 if sig is CrossSignal.POSITIVE else 0)
        labels.add(w.label)
    ok = ok and labels == {0, 1}

    rebuilt, _ = build_lag_windows(
        {sine_prices.ticker: sine_prices}, make_tweets(sine_prices), lag=5,
        tokenizer=tok, graph=small_graph_spec)
    ok = ok and rebuilt == windows

    for name, source in (("a", windows), ("b", rebuilt)):
        save_dataset(source, tmp_path / name, tokenizer=tok)
    for rel in ("manifest.json", "windows.jsonl"):
        ok = ok and ((tmp_path / "a" / rel).read_bytes()
                     == (tmp_path / "b" / rel).read_bytes())
    for blob in (tmp_path / "a" / "graphs").iterdir():
        ok = ok and blob.read_bytes() == (
            tmp_path / "b" / "graphs" / blob.name).read_bytes()

    loaded, _ = load_dataset(tmp_path / "a")
    ok = ok and loaded == windows
    _verdict(3, "dataset soundness: labels, determinism, round trip", ok)


def test_criterion_4_stocknet_label_band():
    ok = (stocknet_label(1000.0, 1004.0) is None          # r = 0.004
          and stocknet_label(1000.0, 995.0) == 0          # r = -0.005 kept
          and stocknet_label(1000.0, 1005.5) is None      # r = 0.0055 dropped
          and stocknet_label(1000.0, 1005.6) == 1
          and stocknet_label(1000.0, 994.9) == 0)
    _verdict(4, "movement-ratio band: -0.5% < r <= 0.55% discarded", ok)


def test_criterion_5_shape_contracts():
    start = time.monotonic()
    ok = ModelConfig(d_l=768).d_t == 773
    paper = ModelConfig(image_height=224, image_width=224, patch_size=16)
    n_p = VisionPipeline(np.random.default_rng(0), paper).n_p
    ok = ok and n_p == 196 and paper.lag * n_p == 980

    model = toy_model()
    c = model.config
    batch = toy_batch(c)
    l_out = model.language(batch["ids"])
    ok = ok and l_out.data.ndim == 4
    ok = ok and l_out.shape == (2, c.lag, c.seq_len, c.d_l)
    i_out = model.vision(batch["images"])
    ok = ok and i_out.data.ndim == 3
    ok = ok and i_out.shape == (2, c.lag * model.vision.n_p, c.d_p)
    pooled = mean_pool(l_out, visible_tokens(batch["ids"], c.pad_id))
    fused = Tensor(np.concatenate([pooled.data, batch["macd"]], axis=-1))
    t_lang = model.temporal(fused)
    ok = ok and t_lang.shape == (2, c.d_t)
    logits = model(batch["ids"], batch["macd"], batch["images"])
    ok = ok and logits.shape == (2, 2)
    elapsed = time.monotonic() - start
    _verdict(5, f"shape contracts incl. 768->773 and 980 patches "
             f"({elapsed:.2f}s)", ok and elapsed < 1.0)


def perturb_params(model, scale: float = 0.3, seed: int = 0) -> None:
    """Re-sample parameters at a larger scale.

    Near the zero-centered init many attention gradients are ~1e-8, small
    enough that finite-difference roundoff noise dominates any relative
    error; checking at a generic, better-conditioned point avoids that
    without weakening the comparison.
    """
    rng = np.random.default_rng(seed)
    for p in model.params().values():
        p.data = rng.normal(0.0, scale, size=p.shape)


def test_criterion_6_gradient_suite():
    start = time.monotonic()
    worst_op = max(err for _, err in _op_checks(np.random.default_rng(7)))

    worst_model = 0.0
    combos = [c for c in itertools.product((True, False), repeat=3)
              if any(c)]
    for pooling in ("mean_pool", "seq_proj"):
        for text, image, price in combos:
            model = toy_model(use_text=text, use_image=image, use_price=price,
                              pooling=pooling)
            perturb_params(model, seed=3)
            full = toy_batch(model.config, b=1)
            batch = {"ids": full["ids"] if text else None,
                     "macd": full["macd"] if price else None,
                     "images": full["images"] if image else None,
                     "labels": full["labels"]}
            errors = model_grad_check(model, batch, step=1e-5, max_coords=20,
                                      seed=1)
            worst_model = max(worst_model, max(errors.values()))
        # the gradcheck command's right-padded days, in 3 length buckets
        model = toy_model(seq_len=24, pooling=pooling)
        perturb_params(model, seed=3)
        batch = toy_batch(model.config)
        batch["ids"] = _padded_day_ids(model.config, np.random.default_rng(4))
        errors = model_grad_check(model, batch, step=1e-5, max_coords=20, seed=1)
        worst_model = max(worst_model, max(errors.values()))
    elapsed = time.monotonic() - start
    _verdict(6, f"gradient suite (ops {worst_op:.1e}, model "
             f"{worst_model:.1e}, {elapsed:.0f}s)",
             worst_op < OP_GATE and worst_model < MODEL_GATE and elapsed < 120.0)


def test_criterion_7_temporal_attention_properties():
    rng = np.random.default_rng(7)
    qta = QueryTargetAttention(rng, 8)
    x = Tensor(rng.normal(size=(2, 1, 8)))
    single = qta(x)
    h = qta.wo(qta.wv(x)) + x
    want = (h + qta.ffn(qta.ffn_norm(h))).data.reshape(2, 8)
    ok = np.max(np.abs(single.data - want)) < 1e-12

    y = rng.normal(size=(1, 5, 8))
    perm = np.array([2, 3, 1, 0, 4])
    ok = ok and np.max(np.abs(qta(Tensor(y)).data
                              - qta(Tensor(y[:, perm, :])).data)) < 1e-10

    weights = target_weights(qta, Tensor(rng.normal(size=(3, 5, 8))))
    ok = ok and np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-12
    _verdict(7, "temporal attention: l=1 exactness, permutation "
             "invariance, weights sum to 1", ok)


def test_criterion_8_pooling_dichotomy():
    # uniform weights over a day's visible tokens make the learned pooling
    # mean pooling: 1/s over unpadded days, and 1/n over days of n real
    # tokens, whatever follows them
    rng = np.random.default_rng(8)
    s, d, n = 6, 8, 4
    proj = SequenceProjection(rng, s, d, "p")
    x = rng.normal(size=(2, 3, s, d))
    ok = True
    for real, weight in ((s, 1.0 / s), (n, 1.0 / n)):
        proj.weight.data[:] = rng.normal(size=s)
        proj.weight.data[:, :real] = weight
        visible = np.broadcast_to(np.arange(s) < real, (2, 3, s))
        via_proj = proj(Tensor(x), visible).data
        via_mean = gelu(layer_norm(mean_pool(Tensor(x), visible),
                                   proj.norm.gain, proj.norm.bias)).data
        ok = ok and np.max(np.abs(via_proj - via_mean)) < 1e-10

    s_toy, d_toy = 4, 8  # conftest toy dims
    delta = (toy_model(pooling="seq_proj").parameter_count()
             - toy_model(pooling="mean_pool").parameter_count())
    ok = ok and delta == s_toy + 2 * d_toy
    _verdict(8, "uniform learned pooling over visible tokens equals mean "
             "pooling; "
             f"parameter delta {delta} = s+2d", ok)


def _overfit_problem(n=64, seed=9, use_image=True, **overrides):
    model = toy_model(seed=seed, use_image=use_image, **overrides)
    c = model.config
    rng = np.random.default_rng(seed)
    macd = rng.normal(size=(n, c.lag, 5))
    # label is the sign of the histogram lane on the final lag day
    labels = (macd[:, -1, 3] > 0).astype(np.int64)
    data = {
        "ids": rng.integers(0, c.vocab_size, size=(n, c.lag, c.seq_len)),
        "macd": macd,
        "images": rng.random((n, c.lag, c.channels, c.image_height,
                              c.image_width)) if use_image else None,
        "labels": labels,
    }
    return model, data


def test_criterion_9_overfit_sanity():
    start = time.monotonic()
    accs = {}
    for name, use_image in (("full", True), ("no-image", False)):
        model, data = _overfit_problem(use_image=use_image)
        cfg = TrainConfig(epochs=200, batch_size=16, lr=3e-3, patience=200,
                          seed=2)
        train(model, data, data, cfg)
        accs[name] = evaluate(model, data).accuracy
        if time.monotonic() - start > 280.0:
            break
    elapsed = time.monotonic() - start
    ok = (elapsed < 300.0 and len(accs) == 2
          and all(a >= 0.95 for a in accs.values()))
    _verdict(9, f"overfit sanity: train acc {accs} in {elapsed:.0f}s", ok)


def test_criterion_10_optimizer_and_schedule():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = np.array([0.3, -0.7])
    p.grad = g.copy()
    lr, wd = 0.01, 0.01
    AdamW({"p": p}, weight_decay=wd).step(lr)
    want = np.array([1.0, -2.0]) * (1 - lr * wd) - lr * g / (np.abs(g) + 1e-8)
    ok = np.max(np.abs(p.data - want)) < 1e-9

    q = Tensor(np.array([3.0]), requires_grad=True)
    q.grad = np.array([0.5])
    AdamW({"q": q}).step(0.0)
    ok = ok and q.data[0] == 3.0

    ok = ok and cosine_lr(5e-5, 0.0) == 5e-5
    ok = ok and abs(cosine_lr(5e-5, 3.5) - 2.5e-5) < 1e-18
    ok = ok and cosine_lr(5e-5, 7.0) == 5e-5
    _verdict(10, "AdamW first-step closed form; cosine warm restarts", ok)


def test_criterion_11_metrics():
    report = compute_metrics(np.array([1, 1, 0, 0]), np.array([1, 0, 0, 1]))
    ok = abs(report.macro_f1 - 0.5) < 1e-12

    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        rep = compute_metrics(preds, labels)
        confusion = [[int(((labels == t) & (preds == p)).sum())
                      for p in (0, 1)] for t in (0, 1)]
        ok = ok and rep.confusion == confusion
        ok = ok and rep.accuracy == (preds == labels).mean()
        for cls in (0, 1):
            tp, fp = confusion[cls][cls], confusion[1 - cls][cls]
            fn = confusion[cls][1 - cls]
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            ok = ok and rep.per_class[cls] == {"precision": prec,
                                               "recall": rec, "f1": f1}
    _verdict(11, "metrics match brute-force counts on 1000 cases "
             "and the hand case", ok)


def _reproducible(problem) -> bool:
    """Two seeded trainings on ``problem()`` log the same, and evaluation
    reports the same twice in a row and across the two runs."""
    runs = []
    for _ in range(2):
        model, data = problem()
        cfg = TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=12)
        _, log = train(model, data, data, cfg)
        report_a = evaluate(model, data).to_dict()
        report_b = evaluate(model, data).to_dict()
        runs.append((log, report_a, report_b))
    (log1, rep1a, rep1b), (log2, rep2a, rep2b) = runs
    return log1 == log2 and rep1a == rep1b and rep1a == rep2a


def test_criterion_12_determinism():
    ok = _reproducible(lambda: _overfit_problem(n=32, seed=12, use_image=False))
    _verdict(12, "seeded training and evaluation are bit-reproducible", ok)


def _padded_problem():
    """The determinism problem over 32-token days of mixed lengths, whose
    rows attend over key groups of several widths."""
    model, data = _overfit_problem(n=32, seed=12, use_image=False, seq_len=32)
    data["ids"] = padded_days(model.config, data["ids"].shape[:2], seed=12)
    return model, data


def test_criterion_12_determinism_padded_days():
    _verdict(12, "bit-reproducible on right-padded 32-token days",
             _reproducible(_padded_problem))
