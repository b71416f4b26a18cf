"""Labeled lag-window construction and deterministic persistence.

A window bundles, for the ``lag`` trading days before a target day: the
5-wide MACD vectors M, tokenized per-day tweet concatenations X, and the
rendered indicator graphs G, plus the binary label for the target day.
"""

from __future__ import annotations

import datetime as dt
import json
import logging
import math
import os
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError, DatasetFormatError
from .graphs import GraphSpec, decode_graph_blob, encode_graph_blob, render_macd_graph
from .indicators import (CrossSignal, PriceSeries, classify_crossover,
                         compute_macd, macd_vector)
from .tokenizer import SEP_TOKEN, TokenizerSpec, tokenize

log = logging.getLogger("meant.dataset")

DATASET_VERSION = 2
# the split a dataset records unless ``build-dataset --split`` names another
DEFAULT_SPLIT = {"fractions": [0.8, 0.1, 0.1]}


@dataclass(frozen=True)
class TweetRecord:
    ticker: str
    date: dt.date
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ContractError("tweet text must be non-empty")


@dataclass
class LagWindow:
    ticker: str
    target_date: dt.date
    lag: int
    M: np.ndarray              # lag x 5, oldest day first
    X: list[list[int]]         # lag token-id sequences
    G: list[np.ndarray]        # lag images, channels x H x W
    label: int

    def validate(self) -> None:
        if self.M.shape != (self.lag, 5):
            raise ContractError(f"M shape {self.M.shape} != ({self.lag}, 5)")
        if len(self.X) != self.lag or len(self.G) != self.lag:
            raise ContractError("X and G must have one entry per lag day")
        if len({g.shape for g in self.G}) > 1:
            raise ContractError("all images in a window must share a shape")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LagWindow):
            return NotImplemented
        return (self.ticker == other.ticker
                and self.target_date == other.target_date
                and self.lag == other.lag
                and self.label == other.label
                and np.array_equal(self.M, other.M)
                and self.X == other.X
                and all(np.array_equal(a, b) for a, b in zip(self.G, other.G)))


def concat_day_tweets(tweets: list[TweetRecord]) -> str:
    """Join one day's tweets with the separator token between them."""
    if not tweets:
        return ""
    keys = {(t.ticker, t.date) for t in tweets}
    if len(keys) > 1:
        raise ContractError(f"mixed ticker/date in day concat: {sorted(keys)}")
    return f" {SEP_TOKEN} ".join(t.text for t in tweets)


def stocknet_label(p_prev: float, p_target: float) -> int | None:
    """Movement-ratio label; None means the window is discarded.

    The discard band is -0.5% < r <= 0.55%.
    """
    if p_prev <= 0:
        raise ContractError(f"previous close must be positive, got {p_prev}")
    r = (p_target - p_prev) / p_prev
    if -0.005 < r <= 0.0055:
        return None
    return 1 if p_target > p_prev else 0


@dataclass
class BuildStats:
    candidates: int = 0
    discarded_no_signal: int = 0
    discarded_no_tweets: int = 0
    skipped_tickers: list[str] = field(default_factory=list)
    label_counts: dict[int, int] = field(default_factory=lambda: {0: 0, 1: 0})


def _group_tweets(tweets, price_dates: dict[str, set], fold_nontrading: bool):
    """Index tweets by (ticker, trading date), dropping or folding others."""
    sorted_dates = {t: sorted(ds) for t, ds in price_dates.items()}
    by_day: dict[tuple[str, dt.date], list[TweetRecord]] = {}
    for rec in tweets:
        dates = price_dates.get(rec.ticker)
        if dates is None:
            continue
        date = rec.date
        if date not in dates:
            # fold onto the next trading day, if there is one
            later = sorted_dates[rec.ticker]
            i = bisect_right(later, date)
            if not fold_nontrading or i == len(later):
                continue
            date = later[i]
            rec = TweetRecord(rec.ticker, date, rec.text)
        by_day.setdefault((rec.ticker, date), []).append(rec)
    return by_day


def _windows_for_ticker(ticker: str, prices: PriceSeries, by_day, lag: int,
                        tokenizer: TokenizerSpec, graph: GraphSpec,
                        label_mode: str, min_tweets: int,
                        stats: BuildStats) -> list[LagWindow]:
    """One ticker's windows in target-date order; counts go into ``stats``."""
    ind = compute_macd(prices)
    windows: list[LagWindow] = []
    first_target = max(1, lag + graph.window_days - 1)
    graph_cache: dict[int, np.ndarray] = {}
    for t in range(first_target, len(prices)):
        stats.candidates += 1
        if label_mode == "crossover":
            sig = classify_crossover(ind, t)
            if sig is CrossSignal.NONE:
                stats.discarded_no_signal += 1
                continue
            label = 1 if sig is CrossSignal.POSITIVE else 0
        elif label_mode == "stocknet":
            label = stocknet_label(prices.closes[t - 1], prices.closes[t])
            if label is None:
                stats.discarded_no_signal += 1
                continue
        else:
            raise ContractError(f"unknown label mode {label_mode!r}")

        lag_days = range(t - lag, t)
        day_tweets = [by_day.get((ticker, prices.dates[d]), []) for d in lag_days]
        if any(len(dts) < min_tweets for dts in day_tweets):
            stats.discarded_no_tweets += 1
            continue

        M = np.stack([macd_vector(ind, d) for d in lag_days])
        X = [tokenize(concat_day_tweets(dts), tokenizer) for dts in day_tweets]
        G = []
        for d in lag_days:
            if d not in graph_cache:
                img = render_macd_graph(ind, d, graph)
                # quantize to the on-disk f32 precision so that in-memory
                # windows round-trip bitwise through save/load
                graph_cache[d] = img.astype("<f4").astype(np.float64)
            G.append(graph_cache[d])
        w = LagWindow(ticker=ticker, target_date=prices.dates[t], lag=lag,
                      M=M, X=X, G=G, label=label)
        w.validate()
        windows.append(w)
        stats.label_counts[label] += 1
    return windows


def build_lag_windows(prices: dict[str, PriceSeries], tweets: list[TweetRecord],
                      lag: int = 5, *, tokenizer: TokenizerSpec,
                      graph: GraphSpec | None = None,
                      label_mode: str = "crossover",
                      min_tweets_per_day: int = 1,
                      fold_nontrading: bool = False
                      ) -> tuple[list[LagWindow], BuildStats]:
    """Build the labeled window list for every covered ticker.

    Windows whose target day has no signal (or a filtered movement ratio)
    and windows with a tweetless lag day are discarded. The output order
    is (ticker, target_date).
    """
    if graph is None:
        graph = GraphSpec()
    if lag < 1:
        raise ContractError("lag must be >= 1")

    stats = BuildStats()
    covered = set(prices)
    for ticker in sorted({t.ticker for t in tweets} - covered):
        log.warning("no price coverage for ticker %s; skipping", ticker)
        stats.skipped_tickers.append(ticker)

    price_dates = {t: set(p.dates) for t, p in prices.items()}
    by_day = _group_tweets(tweets, price_dates, fold_nontrading)

    windows: list[LagWindow] = []
    for ticker in sorted(prices):
        windows += _windows_for_ticker(ticker, prices[ticker], by_day, lag,
                                       tokenizer, graph, label_mode,
                                       min_tweets_per_day, stats)
    return windows, stats


def split_windows(windows: list[LagWindow], split: dict):
    """Train/val/test by a manifest's split record, cut from the windows in
    (target_date, ticker) order so that no target date is in two parts.
    ``{"fractions": [f0, f1, f2]}`` (finite, positive, summing to 1) cuts
    before window ``n * f0`` and ``max(1, n * f1)`` windows later, each cut
    moved back to the first window of its date. ``{"dates": [train_end,
    val_end]}`` (ISO dates, train_end < val_end) ends train and val on
    those dates. Any other record, or an empty part, is a ``ContractError``."""
    ordered = sorted(windows, key=lambda w: (w.target_date, w.ticker))
    dates = [w.target_date for w in ordered]
    n, cuts = len(dates), None
    kind = set(split) if isinstance(split, dict) else None
    fr = split["fractions"] if kind == {"fractions"} else None
    ends = split["dates"] if kind == {"dates"} else None
    if (isinstance(fr, (list, tuple)) and len(fr) == 3
            and all(type(f) in (int, float) and math.isfinite(f) and f > 0
                    for f in fr) and abs(sum(fr) - 1.0) <= 1e-9):
        def first_of_date(i):
            return i if not 0 < i < n else bisect_left(dates, dates[i])

        i1 = first_of_date(int(n * fr[0]))
        cuts = i1, first_of_date(i1 + max(1, int(n * fr[1])))
    elif (isinstance(ends, list) and len(ends) == 2
          and all(type(d) is str for d in ends)):
        try:
            train_end, val_end = map(dt.date.fromisoformat, ends)
        except ValueError:
            pass
        else:
            if train_end < val_end:
                cuts = bisect_right(dates, train_end), bisect_right(dates, val_end)
    if cuts is None:
        raise ContractError(f"split record must be {{'fractions': [3 finite "
                            f"positive numbers summing to 1]}} or {{'dates': "
                            f"[train_end, val_end]}}, ISO dates in order; "
                            f"got {split!r}")
    parts = ordered[:cuts[0]], ordered[cuts[0]:cuts[1]], ordered[cuts[1]:]
    if not all(parts):
        raise ContractError(f"cannot populate all splits: sizes "
                            f"{'/'.join(str(len(p)) for p in parts)}")
    return parts


def chronological_split(windows: list[LagWindow],
                        fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)):
    """``split_windows`` by train/val/test fractions."""
    return split_windows(windows, {"fractions": fractions})


# -- persistence -------------------------------------------------------


def _normalization_stats(train: list[LagWindow]) -> dict:
    if not train:
        return {"mean": [0.0] * 5, "std": [1.0] * 5}
    stacked = np.concatenate([w.M for w in train], axis=0)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std[std == 0] = 1.0
    return {"mean": mean.tolist(), "std": std.tolist()}


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _bare_name(name) -> bool:
    """A chart is a file in graphs/, never a path that leaves it."""
    return (type(name) is str and name not in ("", ".", "..")
            and os.path.basename(name) == name)


def save_dataset(windows: list[LagWindow], out_dir, tokenizer: TokenizerSpec,
                 split: dict = DEFAULT_SPLIT) -> None:
    """Write manifest.json, windows.jsonl and per-day graph blobs. The
    manifest records ``split`` and the ``tokenizer`` the windows' ids come
    from; the MACD normalization is fitted on the split's training part,
    which must not be empty unless ``windows`` is."""
    train = split_windows(windows, split)[0] if windows else []
    out = Path(out_dir)
    (out / "graphs").mkdir(parents=True, exist_ok=True)

    manifest = {
        "version": DATASET_VERSION,
        "lag": windows[0].lag if windows else None,
        "seq_len": tokenizer.max_len,
        "image_shape": list(windows[0].G[0].shape) if windows else None,
        "normalization": _normalization_stats(train),
        "split": split,
        "label_counts": {str(k): sum(1 for w in windows if w.label == k)
                         for k in (0, 1)},
        "count": len(windows),
        "tokenizer": tokenizer.to_dict(),
    }
    (out / "manifest.json").write_bytes(_json_bytes(manifest) + b"\n")

    lines = []
    for w in sorted(windows, key=lambda x: (x.ticker, x.target_date)):
        names = []
        for i, img in enumerate(w.G):
            name = f"{w.ticker}_{w.target_date.isoformat()}_{i}.bin"
            if not _bare_name(name):
                raise ContractError(f"ticker {w.ticker!r} cannot name a file")
            (out / "graphs" / name).write_bytes(encode_graph_blob(img))
            names.append(name)
        lines.append(_json_bytes({
            "ticker": w.ticker,
            "target_date": w.target_date.isoformat(),
            "lag": w.lag,
            "label": w.label,
            "M": [list(row) for row in w.M.tolist()],
            "X": w.X,
            "graphs": names,
        }))
    (out / "windows.jsonl").write_bytes(b"\n".join(lines) + (b"\n" if lines else b""))


def _check_manifest(manifest) -> None:
    """The manifest is an object of this version, with an object-valued
    ``split``, a ``normalization`` whose ``mean`` and ``std`` are 5 finite
    numbers each (every ``std`` > 0), an integer ``count`` and ``seq_len``,
    an integer ``lag`` (null when there is no window), ``image_shape`` null
    or three positive integers, and a ``tokenizer`` object whose ``vocab``
    maps words to integer ids. ``load_dataset`` checks each window against
    it; the other values are checked where they are used."""
    if not isinstance(manifest, dict):
        raise DatasetFormatError("manifest.json: not a JSON object")
    if manifest.get("version") != DATASET_VERSION:
        raise DatasetFormatError(
            f"dataset version {manifest.get('version')} != {DATASET_VERSION}")
    for key, kind in (("split", dict), ("normalization", dict), ("count", int),
                      ("seq_len", int), ("lag", (int, type(None))),
                      ("image_shape", (list, type(None))), ("tokenizer", dict)):
        if not isinstance(manifest.get(key), kind):
            raise DatasetFormatError(f"manifest.json: {key!r} missing or "
                                     f"of the wrong type")
    norm = manifest["normalization"]
    if not (all(isinstance(norm.get(k), list) and len(norm[k]) == 5
                and all(type(v) in (int, float) and math.isfinite(v)
                        for v in norm[k]) for k in ("mean", "std"))
            and all(v > 0 for v in norm["std"])):
        raise DatasetFormatError(
            "manifest.json: 'normalization' needs 'mean' and 'std' lists of "
            "5 finite numbers, every 'std' > 0")
    shape = manifest["image_shape"]
    if shape is not None and not (len(shape) == 3 and all(
            type(n) is int and n > 0 for n in shape)):
        raise DatasetFormatError(
            "manifest.json: 'image_shape' must be three positive integers")
    tok = manifest["tokenizer"]
    vocab = tok.get("vocab")
    if not (isinstance(vocab, dict)
            and all(type(tok.get(k)) is int
                    for k in ("pad_id", "unk_id", "sep_id", "max_len"))
            and all(type(i) is int for i in vocab.values())):
        raise DatasetFormatError("manifest.json: 'tokenizer' needs a 'vocab' "
                                 "object and integer ids")


def load_dataset(in_dir) -> tuple[list[LagWindow], dict]:
    """Read a dataset directory back; returns (windows, manifest)."""
    src = Path(in_dir)
    try:
        manifest = json.loads((src / "manifest.json").read_text("utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"cannot read manifest: {exc}") from exc
    _check_manifest(manifest)
    lag, seq_len = manifest["lag"], manifest["seq_len"]
    shape = tuple(manifest["image_shape"] or ())
    windows = []
    text = (src / "windows.jsonl").read_text("utf-8")
    for lineno, line in enumerate(filter(None, text.split("\n")), start=1):
        try:
            row = json.loads(line)
            if row["lag"] != lag:
                raise ValueError(f"lag {row['lag']} != the manifest's {lag}")
            X = row["X"]
            if not (len(X) == lag and all(
                    len(seq) == seq_len and set(map(type, seq)) <= {int}
                    for seq in X)):
                raise ValueError(f"'X' is not {lag} rows of {seq_len} "
                                 f"integer ids")
            M = row["M"]
            if not (len(M) == lag and all(
                    len(day) == 5 and set(map(type, day)) <= {int, float}
                    for day in M)):
                raise ValueError(f"'M' is not {lag} rows of 5 numbers")
            M = np.array(M, dtype=np.float64)
            if not np.isfinite(M).all():
                raise ValueError("'M' has a value that is not finite")
            label = row["label"]
            if type(label) is not int or label not in (0, 1):
                raise ValueError(f"label {label!r} is not the integer 0 or 1")
            names = row["graphs"]
            if not all(map(_bare_name, names)):
                raise ValueError(f"chart names {names} are not bare file names")
            G = [decode_graph_blob((src / "graphs" / name).read_bytes())
                 for name in names]
            if any(g.shape != shape for g in G):
                raise ValueError(f"chart shapes {[g.shape for g in G]} != the "
                                 f"manifest's {shape}")
            w = LagWindow(ticker=row["ticker"],
                          target_date=dt.date.fromisoformat(row["target_date"]),
                          lag=lag, M=M, X=X, G=G, label=label)
            w.validate()
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DatasetFormatError(f"windows.jsonl:{lineno}: bad row: "
                                     f"{type(exc).__name__}: {exc}") from exc
        windows.append(w)
    if len(windows) != manifest.get("count"):
        raise DatasetFormatError(
            f"manifest count {manifest.get('count')} != {len(windows)} windows")
    return windows, manifest
