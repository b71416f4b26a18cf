"""Paired benchmark runs of a base revision against the working tree.

    python scripts/bench_pairs.py --name length_buckets --base HEAD \
        --workload text_s128 --pairs 10 --first-seed 11 --seconds 25

Run from the root of a checkout. The base revision is exported with
``git archive`` into a fresh directory; the working tree is measured as it
is on disk, uncommitted changes included. Each pair runs
``perfbench/run.py --trace 0`` once on each side with the same seed, base
first in even pairs and working tree first in odd ones, so that a drift of
the host over the session falls on both sides. Seeds run from
``--first-seed`` up. With ``--trace-pairs N``, N more pairs run with
``--trace 1`` and their per-layer metrics are reduced the same way.

The runs are reduced into ``BENCH_<name>.json`` under the workload's name
(other workloads already in the file are kept): for every metric of
``BENCHMARK.json``, each side's median and quartiles, the number of pairs
the working tree won, and whether its median lies beyond the base's
interquartile range on the better side. A metric with a ``bound`` also
gets the working tree's interquartile range as a fraction of the base's
median, whether that spread is within the bound, and whether the working
tree's median is worse than the base's by more than the bound: a change
that fails either check cannot show that it did no harm. Every run's
metrics, seed and order are kept too. The exit code is 1 if any run failed
a check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(revision: str, into: Path) -> str:
    """Write ``revision``'s files into ``into``; returns its full hash."""
    full = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    archive = subprocess.run(["git", "archive", full], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return full


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One ``perfbench/run.py`` run; its final JSON line plus the env lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"correct": False, "failed": 1, "metrics": {},
                "stderr_tail": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    result["environment"] = dict(
        line[4:].split(" = ", 1) for line in lines if line.startswith("env "))
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def reduce(pairs: list[dict], specs: list[dict]) -> dict:
    """Per-metric medians, quartiles and wins of the change over the base."""
    out = {}
    for spec in specs:
        name = spec["name"]
        # a crashed run reports no metrics; its pair is left out
        done = [p for p in pairs
                if name in p["base"]["metrics"] and name in p["change"]["metrics"]]
        if len(done) < 2:
            continue
        base = [p["base"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        lower = spec["better"] == "lower"
        b, c = spread(base), spread(change)
        wins = sum((x < y) if lower else (x > y) for x, y in zip(change, base))
        beyond = c["median"] < b["q1"] if lower else c["median"] > b["q3"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": b, "change": c,
            "change_wins": wins, "pairs": len(done),
            "change_median_beyond_base_iqr": beyond,
            "median_change_pct": (100.0 * (c["median"] - b["median"]) / b["median"]
                                  if b["median"] else None),
        }
        if "bound" in spec and b["median"]:
            bound, scale = spec["bound"], abs(b["median"])
            iqr = (c["q3"] - c["q1"]) / scale
            worse = (c["median"] - b["median"]) / scale * (1 if lower else -1)
            out[name].update(change_iqr_of_base_median=iqr,
                             change_iqr_within_bound=iqr <= bound,
                             change_median_worse_beyond_bound=worse > bound)
    return out


def run_pairs(base_dir: Path, args, count: int, first_seed: int,
              trace: int) -> list[dict]:
    pairs = []
    for i in range(count):
        seed = first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            checkout = base_dir if side == "base" else ROOT
            pair[side] = run_once(checkout, args.workload, seed, args.seconds,
                                  trace)
        pairs.append(pair)
        ok = {side: pair[side]["correct"] for side in ("base", "change")}
        print(f"{args.workload} trace {trace} pair {i + 1}/{count} seed {seed} "
              f"done, correct {ok}", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-pairs", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.trace_pairs < 0 or args.trace_pairs == 1:
        parser.error("--pairs must be at least 2 and --trace-pairs 0 or at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        base_rev = export(args.base, scratch / "base")
        pairs = run_pairs(scratch / "base", args, args.pairs, args.first_seed, 0)
        traced = run_pairs(scratch / "base", args, args.trace_pairs,
                           args.first_seed + args.pairs, 1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = [p[side] for p in pairs + traced for side in ("base", "change")]
    entry = {
        "base_revision": base_rev,
        "change": {"head": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain"))},
        "seconds": args.seconds,
        "environment": pairs[0]["change"].get("environment", {}),
        "failed_runs": sum(not r["correct"] for r in runs),
        "end_to_end": reduce(pairs, spec["end_to_end"]),
        "runs": pairs,
    }
    if traced:
        entry["per_layer"] = reduce(traced, spec["per_layer"])
        entry["traced_runs"] = traced
    out = ROOT / f"BENCH_{args.name}.json"
    doc = json.loads(out.read_text("utf-8")) if out.is_file() else {}
    doc.setdefault("workloads", {})[args.workload] = entry
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {out.name}: {args.workload}, {len(pairs)} pairs"
          + (f" and {len(traced)} traced" if traced else ""), file=sys.stderr)
    return 1 if entry["failed_runs"] else 0


if __name__ == "__main__":
    sys.exit(main())
