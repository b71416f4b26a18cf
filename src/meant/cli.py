"""Command-line entry point: dataset building, training, evaluation,
ablations, gradient checking and graph rendering."""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import itertools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checks import model_grad_check
from .config import RunConfig
from .dataset import (DEFAULT_SPLIT, TweetRecord, build_lag_windows,
                      load_dataset, save_dataset, split_cuts,
                      split_windows)
from .errors import ConfigError, ContractError, DatasetFormatError, NumericError
from .fusion import MeantModel, ModelConfig
from .graphs import GraphSpec, encode_graph_blob, render_macd_graph, write_ppm
from .indicators import compute_macd, load_prices_csv
from .tensor import (Tensor, attention, grad_check, gelu, layer_norm, matmul,
                     rotate_pairs)
from .tokenizer import TokenizerSpec, build_vocab
from .training import (cross_entropy, dataset_binding, evaluate,
                       restore_model, save_checkpoint, train, truncate_lag,
                       windows_to_arrays)


def _json_dump(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", "utf-8")


def _load_tweets_jsonl(path) -> list[TweetRecord]:
    records = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
            if not (isinstance(row, dict) and all(isinstance(
                    row.get(k), str) for k in ("ticker", "date", "text"))):
                raise ValueError("ticker, date and text must be strings")
            records.append(TweetRecord(
                ticker=row["ticker"],
                date=dt.date.fromisoformat(row["date"]),
                text=row["text"]))
        except ValueError as exc:
            raise ContractError(f"{path}:{lineno}: bad tweet row: {exc}") from exc
    return records


def _split_arg(text: str) -> dict:
    """``--split``: three fractions or two ISO dates, as a manifest record
    that ``split_cuts`` accepts."""
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 3:
            record = {"fractions": [float(p) for p in parts]}
        elif len(parts) == 2:
            record = {"dates": [dt.date.fromisoformat(p).isoformat() for p in parts]}
        else:
            raise ValueError("expected three fractions or two ISO dates")
        split_cuts([], record)
    except ValueError as exc:      # ContractError included
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return record


def cmd_build_dataset(args) -> int:
    prices = load_prices_csv(args.prices)
    tweets = _load_tweets_jsonl(args.tweets)
    tokenizer = build_vocab((t.text for t in tweets),
                            max_size=args.vocab_size, max_len=args.seq_len)
    graph = GraphSpec(window_days=args.window_days,
                      width=args.graph_size, height=args.graph_size)
    windows, stats = build_lag_windows(
        prices, tweets, lag=args.lag, tokenizer=tokenizer, graph=graph,
        label_mode=args.label_mode, min_tweets_per_day=args.min_tweets,
        fold_nontrading=args.fold_nontrading)
    save_dataset(windows, args.out, tokenizer=tokenizer, split=args.split)
    summary = {
        "windows": len(windows),
        "label_counts": {str(k): v for k, v in stats.label_counts.items()},
        "candidates": stats.candidates,
        "discarded_no_signal": stats.discarded_no_signal,
        "discarded_no_tweets": stats.discarded_no_tweets,
        "skipped_tickers": stats.skipped_tickers,
    }
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


# the ModelConfig fields the dataset fixes; a run config may not set them
DATASET_FIELDS = ("vocab_size", "seq_len", "pad_id", "channels",
                  "image_height", "image_width")


def _dataset_fields(manifest: dict) -> dict:
    """The ``DATASET_FIELDS`` values a dataset's manifest records (the
    image ones only if it holds a window)."""
    tok = TokenizerSpec.from_dict(manifest["tokenizer"])
    fields = {"vocab_size": tok.vocab_size, "seq_len": manifest["seq_len"],
              "pad_id": tok.pad_id}
    if manifest["image_shape"]:
        fields["channels"], fields["image_height"], fields["image_width"] = \
            manifest["image_shape"]
    return fields


def _model_config(run: RunConfig, manifest: dict) -> ModelConfig:
    """The run config's model section over the dataset's lag and fields."""
    named = sorted(set(run.model) & set(DATASET_FIELDS))
    if named:
        raise ConfigError(f"model keys {named} are set by the dataset; "
                          f"remove them from the run config")
    return ModelConfig.from_dict({"lag": manifest["lag"],
                                  **_dataset_fields(manifest), **run.model})


SPLITS = ("train", "val", "test")


def _split_arrays(data_dir, names=SPLITS) -> tuple[dict, list[dict]]:
    """The dataset's manifest and the arrays of the named parts of the
    split it records."""
    windows, manifest = load_dataset(data_dir)
    parts = dict(zip(SPLITS, split_windows(windows, manifest.get("split"))))
    norm = manifest["normalization"]
    return manifest, [windows_to_arrays(parts[n], norm) for n in names]


def _fit_and_score(config: ModelConfig, run: RunConfig, splits):
    """Train a fresh seeded model on the most recent ``config.lag`` days of
    the train/val/test arrays and score it on test."""
    tr, va, te = (truncate_lag(s, config.lag) for s in splits)
    model = MeantModel(config, seed=run.train.seed)
    best, log_records = train(model, tr, va, run.train)
    return model, best, log_records, evaluate(model, te, run.train.batch_size)


def cmd_train(args) -> int:
    run = RunConfig.from_file(args.config)
    manifest, splits = _split_arrays(args.data)
    config = _model_config(run, manifest)
    _, best, log_records, report = _fit_and_score(config, run, splits)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "model.ckpt", config, best, dataset_binding(manifest))
    with open(out / "training_log.jsonl", "w", encoding="utf-8") as fh:
        for rec in log_records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _json_dump(run.effective_dict(), out / "config.json")
    _json_dump(report.to_dict(), out / "test_metrics.json")
    print(f"trained {config.to_dict()['lag']}-lag model; "
          f"test macro-F1 {report.macro_f1:.4f}")
    return 0


def cmd_eval(args) -> int:
    model, binding = restore_model(args.checkpoint)
    manifest, (data,) = _split_arrays(args.data, [args.split])
    trained = {**model.config.to_dict(), **binding}
    expected = {**_dataset_fields(manifest), **dataset_binding(manifest)}
    differ = [f"{k} {trained.get(k)} != {v}"
              for k, v in expected.items() if trained.get(k) != v]
    if differ:
        raise ContractError(f"checkpoint does not fit the dataset "
                            f"(checkpoint != dataset): {', '.join(differ)}")
    report = evaluate(model, truncate_lag(data, model.config.lag))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(report.to_dict(), out / "metrics.json")
    with open(out / "confusion.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred", "0", "1"])
        for cls, row in enumerate(report.confusion):
            writer.writerow([cls, *row])
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


ABLATION_VARIANTS = {
    "full": {},
    "tweet-price": {"use_image": False},
    "vision-price": {"use_text": False},
    "price-only": {"use_text": False, "use_image": False},
    "tweet-only": {"use_image": False, "use_price": False},
    "vision-only": {"use_text": False, "use_price": False},
    "meanpool": {"pooling": "mean_pool"},
    "seqproj": {"pooling": "seq_proj"},
    "lag1": {"lag": 1},
    "lag5": {"lag": 5},
    "lag10": {"lag": 10},
}


def cmd_ablate(args) -> int:
    run = RunConfig.from_file(args.config)
    names = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not names:
        raise ConfigError(f"--variants names no variant; "
                          f"valid: {sorted(ABLATION_VARIANTS)}")
    bad = [n for n in names if n not in ABLATION_VARIANTS]
    if bad:
        raise ConfigError(f"unknown variants {bad}; "
                          f"valid: {sorted(ABLATION_VARIANTS)}")
    manifest, splits = _split_arrays(args.data)
    rows = {}
    for name in names:
        variant = RunConfig(model={**run.model, **ABLATION_VARIANTS[name]})
        config = _model_config(variant, manifest)
        model, _, _, report = _fit_and_score(config, run, splits)
        rows[name] = {
            "parameters": model.parameter_count(),
            "macro_precision": report.macro_precision,
            "macro_recall": report.macro_recall,
            "macro_f1": report.macro_f1,
            "accuracy": report.accuracy,
        }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(rows, out / "ablation.json")
    header = f"{'variant':<14}{'params':>10}{'macro-P':>10}{'macro-R':>10}{'macro-F1':>10}"
    print(header)
    for name in names:
        r = rows[name]
        print(f"{name:<14}{r['parameters']:>10}{r['macro_precision']:>10.4f}"
              f"{r['macro_recall']:>10.4f}{r['macro_f1']:>10.4f}")
    return 0


def _toy_batch(config: ModelConfig, rng) -> dict:
    b = 2
    return {
        "ids": rng.integers(0, config.vocab_size, size=(b, config.lag, config.seq_len)),
        "macd": rng.normal(size=(b, config.lag, 5)),
        "images": rng.random((b, config.lag, config.channels,
                              config.image_height, config.image_width)),
        "labels": np.array([0, 1]),
    }


def _shared_day_ids(config: ModelConfig, rng) -> np.ndarray:
    """Token ids of two windows cut from one run of days, so that they
    share ``lag - 1`` days."""
    days = rng.integers(0, config.vocab_size,
                        size=(config.lag + 1, config.seq_len))
    return np.stack([days[:-1], days[1:]])


def _padded_day_ids(config: ModelConfig, rng) -> np.ndarray:
    """Token ids of two windows whose days are right-padded to 3, 11, 20 and
    0 real tokens, so that they fall in the 8-, 16- and 24-token buckets;
    ``seq_len`` must be at least 20."""
    ids = rng.integers(1, config.vocab_size, size=(2, config.lag, config.seq_len))
    lengths = np.resize([3, 11, 20, 0], (2, config.lag))
    ids[np.arange(config.seq_len) >= lengths[..., None]] = config.pad_id
    return ids


# the largest error each gradcheck line may read: an op or a whole model
OP_GATE, MODEL_GATE = 1e-6, 1e-4


def _op_checks(rng: np.random.Generator):
    """(name, max error) of each op-level gradient check; together they
    cover every op the model runs that is not a shape op."""
    rng_fixed = rng.normal(size=(4, 2))
    probe6 = rng.normal(size=(3, 6))
    probe_att = rng.normal(size=(2, 3, 3))
    keys = np.array([True, True, False, True, False])
    # a key-padding mask whose rows see 5, 13 and all 24 keys
    padded = (np.arange(24) < np.array([[5], [13], [24]]))[:, None, None, :]
    probe_pad = rng.normal(size=(3, 2, 2, 3))
    # unrelated, non-unit tables stand for rotary angles with an xPos scale
    cos, sin = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    yield "matmul", grad_check(
        lambda x: matmul(x, Tensor(rng_fixed)).sum(), Tensor(rng.normal(size=(3, 4))))
    yield "gelu", grad_check(lambda x: gelu(x).sum(),
                             Tensor(rng.normal(size=(8,))))
    yield "layer_norm", grad_check(
        lambda x, gain, bias: (layer_norm(x, gain, bias) * Tensor(probe6)).sum(),
        Tensor(rng.normal(size=(3, 6))), Tensor(rng.normal(1.0, 0.5, size=6)),
        Tensor(rng.normal(size=6)))
    yield "attention", grad_check(
        lambda q, k, v: (attention(q, k, v, 0.5, keys) * Tensor(probe_att)).sum(),
        Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 5, 4))),
        Tensor(rng.normal(size=(2, 5, 3))))
    yield "padded_attn", grad_check(
        lambda q, k, v: (attention(q, k, v, 0.5, padded) * Tensor(probe_pad)).sum(),
        Tensor(rng.normal(size=(3, 2, 2, 4))), Tensor(rng.normal(size=(3, 2, 24, 4))),
        Tensor(rng.normal(size=(3, 2, 24, 3))))
    yield "rotary", grad_check(
        lambda x: (rotate_pairs(x, cos, sin) * Tensor(probe6)).sum(),
        Tensor(rng.normal(size=(3, 6))))
    # rows of an op's output gathered with repeats, as the model
    # gathers each distinct day's encoding back into its windows
    rows = np.array([[2, 0, 2], [1, 2, 2]])
    probe_rows = rng.normal(size=(2, 3, 4))
    yield "gather", grad_check(
        lambda x: (gelu(x)[rows] * Tensor(probe_rows)).sum(),
        Tensor(rng.normal(size=(3, 4))))
    yield "cross_entropy", grad_check(
        lambda x: cross_entropy(x, np.array([0, 1, 1])),
        Tensor(rng.normal(size=(3, 2))))
    # a Linear layer's x @ w + b, with b broadcast over x's rows
    probe_lin = rng.normal(size=(2, 3, 5))
    yield "linear", grad_check(
        lambda x, w, b: ((matmul(x, w) + b) * Tensor(probe_lin)).sum(),
        Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 5))),
        Tensor(rng.normal(size=5)))


def _model_checks():
    """(label, max error) of each whole-model gradient check on a toy model."""
    base = {
        "vocab_size": 12, "seq_len": 4, "lag": 2, "d_l": 8, "d_p": 8,
        "heads": 2, "lang_depth": 1, "vision_depth": 1,
        "image_height": 8, "image_width": 8, "patch_size": 4,
    }
    for pooling in ("mean_pool", "seq_proj"):
        for days in ("", "shared days", "padded days"):
            seq_len = 24 if days == "padded days" else base["seq_len"]
            config = ModelConfig.from_dict({**base, "pooling": pooling,
                                            "seq_len": seq_len})
            model = MeantModel(config, seed=1)
            batch = _toy_batch(config, np.random.default_rng(3))
            if days == "shared days":
                batch["ids"] = _shared_day_ids(config, np.random.default_rng(4))
            elif days == "padded days":
                batch["ids"] = _padded_day_ids(config, np.random.default_rng(4))
            errors = model_grad_check(model, batch, max_coords=10).values()
            yield (f"{pooling}, {days}" if days else pooling), max(errors)


def cmd_gradcheck(args) -> int:
    ops = ((f"op {name:<13}", name, err, OP_GATE)
           for name, err in _op_checks(np.random.default_rng(7)))
    models = ((f"model ({label})", label, err, MODEL_GATE)
              for label, err in _model_checks())
    failures = []
    for line, name, err, gate in itertools.chain(ops, models):
        print(f"{line} max rel err {err:.3e}  {'ok' if err < gate else 'FAIL'}")
        if not err < gate:
            failures.append(name)
    if failures:
        print(f"gradient check FAILED: {failures}")
        return 2
    print("all gradient checks passed")
    return 0


def cmd_render_graphs(args) -> int:
    prices = load_prices_csv(args.prices)
    if args.ticker not in prices:
        raise ContractError(f"ticker {args.ticker!r} not in {args.prices}")
    series = prices[args.ticker]
    ind = compute_macd(series)
    spec = GraphSpec(window_days=args.window_days,
                     width=args.graph_size, height=args.graph_size)
    if args.date:
        dates = [dt.date.fromisoformat(d) for d in args.date]
        days = []
        for d in dates:
            if d not in series.dates:
                raise ContractError(f"{d} is not a trading day for {args.ticker}")
            days.append(series.dates.index(d))
    else:
        days = [len(series) - 1]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for day in days:
        img = render_macd_graph(ind, day, spec)
        stem = f"{args.ticker}_{series.dates[day].isoformat()}"
        (out / f"{stem}.bin").write_bytes(encode_graph_blob(img))
        write_ppm(img, out / f"{stem}.ppm")
        print(f"wrote {stem}.bin / {stem}.ppm")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ``ConfigError`` (exit 1), not argparse's exit 2,
    which the CLI keeps for numeric failures. Subcommand parsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meant",
        description="Multimodal temporal-attention pipeline and model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="build a labeled lag-window dataset")
    p.add_argument("--prices", required=True)
    p.add_argument("--tweets", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lag", type=int, default=5)
    p.add_argument("--label-mode", choices=("crossover", "stocknet"),
                   default="crossover")
    p.add_argument("--seq-len", type=int, default=128)
    p.add_argument("--vocab-size", type=int, default=4096)
    p.add_argument("--graph-size", type=int, default=224)
    p.add_argument("--window-days", type=int, default=26)
    p.add_argument("--min-tweets", type=int, default=1)
    p.add_argument("--fold-nontrading", action="store_true")
    p.add_argument("--split", type=_split_arg, default=DEFAULT_SPLIT,
                   help="TRAIN,VAL,TEST fractions (default 0.8,0.1,0.1) "
                        "or TRAIN_END,VAL_END ISO dates")
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate named model variants")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--variants", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("render-graphs", help="render indicator graphs to disk")
    p.add_argument("--prices", required=True)
    p.add_argument("--ticker", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--date", action="append",
                   help="ISO date to render (repeatable; default: last day)")
    p.add_argument("--graph-size", type=int, default=224)
    p.add_argument("--window-days", type=int, default=26)
    p.set_defaults(func=cmd_render_graphs)
    return parser


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(os.environ.get("MEANT_LOG", "info"),
                                         logging.INFO)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ContractError, DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
