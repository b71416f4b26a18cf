"""One benchmark workload, run in a fresh process started by ``run.py``.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --work DIR --result FILE [--spans FILE]

Phases, in order:

1. set-up, ``SETUPS`` times: generate inputs from the seed, build the
   dataset (write path: read inputs, vocabulary, windows, save), load it
   back and stack arrays (read path), initialise the model;
2. training: ``WARMUP_STEPS`` untimed steps, then a closed loop of train
   steps for ``--seconds`` (one batch in flight; the next starts when the
   last finishes);
3. evaluation: repeated ``no_grad`` passes over every held-out window.

Every phase checks its outputs; the counts of checked operations and
failed ones go into the result with the metrics.
"""

from __future__ import annotations

import os
import sys

# Must be read before numpy is imported anywhere in this process.
BLAS_PINNED_BEFORE_NUMPY = (os.environ.get("OPENBLAS_NUM_THREADS") == "1"
                            and "numpy" not in sys.modules)

import argparse
import json
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meant import cli, dataset, tokenizer, training
from meant.config import RunConfig
from meant.dataset import chronological_split
from meant.errors import ContractError
from meant.fusion import MeantModel
from meant.graphs import GraphSpec
from meant.indicators import load_prices_csv
from meant.tensor import Tensor

import inputs
import spans

TICKERS = 2
LAG = 5
SEQ_LEN = 128           # CLI default
VOCAB_SIZE = 4096       # CLI default
WINDOW_DAYS = 26        # CLI default
TRAIN = training.TrainConfig()  # CLI defaults: batch 16, lr 5e-5, decay 0.01
TWEETS_PER_DAY = (1.0, 8.0)     # lowest and highest per-ticker daily mean
SETUPS = 6
EVAL_MIN_S = 3.0
EVAL_MIN_PASSES = 3
BWD_REPLAYS = 3
WARMUP_STEPS = 2


@dataclass(frozen=True)
class Workload:
    days: int                       # trading days per ticker
    graph_size: int                 # chart side in pixels
    model: dict                     # ModelConfig overrides


BASE_MODEL = {"d_l": 32, "d_p": 32, "heads": 2, "patch_size": 16,
              "lang_pos": "xpos", "pooling": "mean_pool"}

# Window count per workload is TICKERS * (days - LAG - WINDOW_DAYS + 1);
# the inputs never lose a window to the label filter (see inputs.py).
WORKLOADS = {
    # text+price at the CLI's seq-len and vocabulary; charts are built at
    # the 32 px minimum because this model never reads them
    "text_s128": Workload(days=100, graph_size=32, model={
        **BASE_MODEL, "use_image": False, "lang_depth": 2}),
    # vision+price at the CLI's 224 px charts; no language encoder. Its
    # set-ups are also the 224 px dataset write and read paths.
    "vision_224": Workload(days=56, graph_size=224, model={
        **BASE_MODEL, "use_text": False, "vision_depth": 1}),
}


@dataclass
class Checks:
    """Checked operations and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


# -- set-up: build (write path) and load (read path) --------------------


def build(wl: Workload, input_dir: Path, out_dir: Path, tr):
    """What ``meant build-dataset --label-mode stocknet`` does, in-process."""
    with tr.span("dataset.read_inputs"):
        prices = load_prices_csv(input_dir / "prices.csv")
        tweets = cli._load_tweets_jsonl(input_dir / "tweets.jsonl")
    with tr.span("tokenizer.build_vocab"):
        tok = tokenizer.build_vocab((t.text for t in tweets),
                                    max_size=VOCAB_SIZE, max_len=SEQ_LEN)
    graph = GraphSpec(window_days=WINDOW_DAYS, width=wl.graph_size,
                      height=wl.graph_size)
    with tr.span("dataset.build_windows"):
        windows, stats = dataset.build_lag_windows(
            prices, tweets, lag=LAG, tokenizer=tok, graph=graph,
            label_mode="stocknet")
    with tr.span("dataset.save"):
        dataset.save_dataset(windows, out_dir, tokenizer=tok)
    return windows, stats


def load(data_dir: Path, tr):
    with tr.span("dataset.load"):
        windows, manifest = dataset.load_dataset(data_dir)
    norm = manifest["normalization"]
    train_w, val_w, test_w = chronological_split(windows)
    with tr.span("training.windows_to_arrays"):
        train_data = training.windows_to_arrays(train_w, norm)
        held_data = training.windows_to_arrays(val_w + test_w, norm)
    return windows, manifest, train_data, held_data


def disk_usage(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def check_round_trip(built, stats, loaded, manifest, checks: Checks) -> None:
    same = len(built) == len(loaded) and all(a == b for a, b in zip(built, loaded))
    checks.record(same, "loaded windows differ from built windows")
    counts = Counter(w.label for w in loaded)
    summary = {str(k): v for k, v in stats.label_counts.items()}
    checks.record(summary == {str(k): counts.get(k, 0) for k in (0, 1)}
                  and summary == manifest["label_counts"],
                  f"label counts {dict(counts)} != build summary {summary}")


@dataclass
class Round:
    """One build-then-load round and its timings."""

    build_s: float
    load_s: float
    windows: int
    files: int
    bytes: int


def setup(wl: Workload, seed: int, work: Path, tr, checks: Checks):
    """Inputs, build, load, arrays and model; returns the set-up time, the
    build/load round, the model and the train and held-out arrays."""
    input_dir, out_dir = work / "inputs", work / "dataset"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with tr.span("inputs.generate"):
        inputs.write_inputs(input_dir, seed, TICKERS, wl.days, TWEETS_PER_DAY)
    t1 = time.perf_counter()
    built, stats = build(wl, input_dir, out_dir, tr)
    t2 = time.perf_counter()
    loaded, manifest, train_data, held_data = load(out_dir, tr)
    t3 = time.perf_counter()
    with tr.span("fusion.model_init"):
        config = cli._model_config(RunConfig.from_dict({"model": wl.model}),
                                   manifest)
        model = MeantModel(config, seed=TRAIN.seed)
    t4 = time.perf_counter()
    files, size = disk_usage(out_dir)
    check_round_trip(built, stats, loaded, manifest, checks)
    rnd = Round(t2 - t1, t3 - t2, len(loaded), files, size)
    return t4 - t0, rnd, model, train_data, held_data


# -- training and evaluation ------------------------------------------


def batches(n: int, seed: int):
    """Endless full batches of indices, a fresh permutation per epoch."""
    size = TRAIN.batch_size
    if n < size:
        raise ContractError(f"{n} training windows is less than one batch")
    rng = np.random.default_rng(seed)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - size + 1, size):
            yield order[start:start + size]


def forward_loss(model, data: dict, idx) -> tuple[Tensor, np.ndarray]:
    """Forward one batch, sliced the way ``training.train`` slices it."""
    batch = training._batch(data, idx)
    return model(batch["ids"], batch["macd"], batch["images"]), batch["labels"]


def train_step(model, opt, data, idx, tr):
    opt.zero_grad()
    with tr.span("training.forward"):
        logits, labels = forward_loss(model, data, idx)
    with tr.span("training.loss"):
        loss = training.cross_entropy(logits, labels)
    with tr.span("tensor.backward"):
        loss.backward()
    with tr.span("training.optimizer"):
        opt.step(TRAIN.lr)
    return loss


def graph_census(loss: Tensor) -> tuple[int, int]:
    """Nodes reachable from ``loss`` and the bytes of the distinct buffers
    behind their ``.data`` and ``.grad`` (views count once, at their base)."""
    seen, stack, buffers = set(), [loss], {}
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for arr in (node.data, node.grad):
            if arr is None:
                continue
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            buffers[id(arr)] = arr.nbytes
        stack.extend(node._parents)
    return len(seen), sum(buffers.values())


def replay_block_backward(blocks, reps: int) -> float:
    """Median, over ``reps`` replays, of the summed backward time of every
    block re-run on its captured first-step input against a fixed probe."""
    totals = []
    for _ in range(reps):
        total = 0.0
        for proxy in blocks:
            x, args, kwargs = proxy.captured
            out = proxy.target(Tensor(x, requires_grad=True), *args, **kwargs)
            probe = np.random.default_rng(0).standard_normal(out.shape)
            loss = (out * Tensor(probe)).sum()
            t0 = time.perf_counter()
            loss.backward()
            total += time.perf_counter() - t0
        totals.append(total)
    return statistics.median(totals)


def train_phase(model, data, seed, seconds, tr, checks, census):
    """Warm-up steps, then a closed loop of timed steps; returns (step
    times, first loss bits, first batch, census of the first step's graph).

    The second step is a warm-up too: it is the first with two graphs
    alive at once (the last step's loss is still referenced while the
    next forward runs, as in ``training.train``), so the heap grows there.
    """
    opt = training.AdamW(model.params(), weight_decay=TRAIN.weight_decay)
    order = batches(len(data["labels"]), seed)
    first_idx = next(order)
    with tr.span("op.warmup_step"):
        loss = train_step(model, opt, data, first_idx, tr)
    first_bits = loss.data.tobytes()
    checks.record(bool(np.isfinite(loss.data).all()), "warm-up loss not finite")
    graph = graph_census(loss) if census else None
    for _ in range(WARMUP_STEPS - 1):
        with tr.span("op.warmup_step"):
            loss = train_step(model, opt, data, next(order), tr)
        checks.record(bool(np.isfinite(loss.data).all()), "warm-up loss not finite")

    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        idx = next(order)
        t0 = time.perf_counter()
        with tr.span("op.train_step"):
            loss = train_step(model, opt, data, idx, tr)
        times.append(time.perf_counter() - t0)
        checks.record(bool(np.isfinite(loss.data).all()),
                      f"train loss not finite at step {len(times)}")
    return times, first_bits, first_idx, graph


def replay_first_loss(config, data, idx) -> bytes:
    model = MeantModel(config, seed=TRAIN.seed)
    logits, labels = forward_loss(model, data, idx)
    return training.cross_entropy(logits, labels).data.tobytes()


def eval_phase(model, held, tr, checks) -> list[float]:
    n = len(held["labels"])
    times = []
    start = time.perf_counter()
    while len(times) < EVAL_MIN_PASSES or time.perf_counter() - start < EVAL_MIN_S:
        t0 = time.perf_counter()
        with tr.span("op.eval"), tr.span("training.evaluate"):
            report = training.evaluate(model, held, TRAIN.batch_size)
        times.append(time.perf_counter() - t0)
        scored = sum(map(sum, report.confusion))
        checks.record(scored == n, f"eval scored {scored} of {n} windows")
    return times


# -- metrics ------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile; with fewer than eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    work = Path(args.work)
    tr = spans.Tracer() if args.trace else spans.NullTracer()
    if args.trace:
        spans.instrument_modules(tr)
    checks = Checks()

    setup_times, rounds, state = [], [], None
    for _ in range(SETUPS):
        state = None                       # free the last set-up first
        with tr.span("op.setup"):
            state = setup(wl, args.seed, work, tr, checks)
        setup_times.append(state[0])
        rounds.append(state[1])
    _, _, model, train_data, held_data = state
    del state
    shutil.rmtree(work / "dataset", ignore_errors=True)
    image_array_bytes = train_data["images"].nbytes + held_data["images"].nbytes
    blocks = spans.instrument_model(tr, model) if args.trace else []

    step_times, first_bits, first_idx, graph = train_phase(
        model, train_data, args.seed, args.seconds, tr, checks,
        census=bool(args.trace))
    checks.record(replay_first_loss(model.config, train_data, first_idx) == first_bits,
                  "replayed first step gave a different loss")
    bwd = {}
    if blocks:
        with tr.span("op.bwd_replay"):
            for kind in ("lang", "vision"):
                group = [b for b in blocks if b.kind == kind]
                if group:
                    bwd[kind] = replay_block_backward(group, BWD_REPLAYS)
    eval_times = eval_phase(model, held_data, tr, checks)
    n_held = len(held_data["labels"])
    del model, train_data, held_data

    windows = rounds[0].windows
    step_tail, tail_pct = tail(step_times)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "blas_pinned_before_numpy": BLAS_PINNED_BEFORE_NUMPY,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.messages,
        "samples": {"setups": len(setup_times), "train_steps": len(step_times),
                    "eval_passes": len(eval_times),
                    "train_step_tail_percentile": tail_pct},
        "raw_s": {"setup": setup_times, "train_step": step_times,
                  "eval_pass": eval_times,
                  "build": [r.build_s for r in rounds],
                  "load": [r.load_s for r in rounds]},
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "train_windows_per_s": TRAIN.batch_size * len(step_times) / sum(step_times),
            "train_step_s_p50": statistics.median(step_times),
            "train_step_s_tail": step_tail,
            "eval_windows_per_s": n_held / statistics.median(eval_times),
            "build_windows_per_s": windows / statistics.median(r.build_s for r in rounds),
            "load_windows_per_s": windows / statistics.median(r.load_s for r in rounds),
            "dataset_mib": rounds[0].bytes / 2**20,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "sizes": {"windows": windows, "held_out_windows": n_held},
    }
    if args.trace:
        result["per_layer"] = layer_metrics(tr, graph, bwd, rounds[0],
                                            image_array_bytes)
        result["self_time_s"] = tr.self_times()
        if args.spans:
            tr.write(args.spans)
    return result


# span names under op.train_step (forward, graph recording) and under
# op.setup; a metric is the span name plus "_s" (time) or "_calls" (count)
TRAIN_SPANS = ("tensor.backward", "training.loss", "training.optimizer",
               "embeddings.token_embed", "embeddings.xpos",
               "embeddings.patch_embed", "embeddings.rotary",
               "embeddings.axial_rotary", "encoders.lang_block",
               "encoders.lang_attn", "encoders.lang_ffn",
               "encoders.vision_block", "encoders.vision_attn_t",
               "encoders.vision_attn_s", "encoders.vision_ffn", "fusion.pool",
               "fusion.image_proj", "fusion.temporal", "fusion.head")
SETUP_SPANS = ("training.windows_to_arrays", "dataset.build_windows",
               "dataset.save", "dataset.load", "graphs.render", "graphs.decode",
               "indicators.compute_macd", "tokenizer.build_vocab",
               "tokenizer.tokenize")
SETUP_COUNTS = ("graphs.render", "graphs.encode", "graphs.decode",
                "tokenizer.tokenize")


def layer_metrics(tr, graph, bwd: dict, rnd: Round, image_array_bytes: int) -> dict:
    """Per-layer numbers: times are medians over timed train steps or over
    set-ups, counts are per set-up (one build and one load)."""
    train, setup = ("op.train_step",), ("op.setup",)
    out = {f"{s}_s": tr.median_per_root(train, s) for s in TRAIN_SPANS}
    out.update({f"{s}_s": tr.median_per_root(setup, s) for s in SETUP_SPANS})
    out.update({f"{s}_calls": tr.count_per_root(setup, s) for s in SETUP_COUNTS})
    out["training.evaluate_s"] = tr.median_per_root(("op.eval",), "training.evaluate")
    out["encoders.lang_block_bwd_s"] = bwd.get("lang", 0.0)
    out["encoders.vision_block_bwd_s"] = bwd.get("vision", 0.0)
    nodes, retained = graph
    out["tensor.graph_nodes"] = nodes
    out["tensor.graph_retained_mib"] = retained / 2**20
    encoded = out["graphs.encode_calls"]
    distinct = tr.keys_per_root(setup, "graphs.encode")
    out["graphs.blob_reuse_ratio"] = distinct / encoded if encoded else 0.0
    out["dataset.bytes_written"] = rnd.bytes
    out["dataset.files_written"] = rnd.files
    out["training.image_array_mib"] = image_array_bytes / 2**20
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    result = run(args)
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                 "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
