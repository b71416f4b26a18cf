"""Benchmark for the meant stack: one command, two workloads.

    python3 perfbench/run.py --workload text_s128 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a fresh Python
subprocess (``perfbench/worker.py``) with ``OPENBLAS_NUM_THREADS=1`` set
before numpy loads and ``src/`` on its path, so the program is always the
one in this checkout. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once traced, in two
fresh subprocesses, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced median train step). Workload and
metric names, and the metrics' units, come from ``BENCHMARK.json``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output check passed. A results file
with the environment is written to ``perfbench/_results/`` and, for a
traced run, the spans beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170
# per-layer metrics the worker computes exactly; they repeat run to run
COMPUTED = ("tensor.graph_nodes", "tensor.graph_retained_mib",
            "graphs.render_calls", "graphs.encode_calls", "graphs.decode_calls",
            "graphs.blob_reuse_ratio", "tokenizer.tokenize_calls",
            "training.image_array_mib", "dataset.bytes_written",
            "dataset.files_written")


def checkout_root() -> Path:
    """The checkout this benchmark belongs to; it must hold the program."""
    root = Path.cwd()
    if not (root / "src" / "meant" / "__init__.py").is_file():
        raise SystemExit(f"error: {root} holds no src/meant; run from the "
                         "root of a meant checkout")
    return root


def git_revision(root: Path) -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return "unknown (not a git checkout)"
    return lines[1]


def mem_total_mib() -> float:
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def environment(root: Path) -> dict:
    probe = ("import json, numpy; cfg = numpy.show_config(mode='dicts'); "
             "blas = cfg['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, blas.get('name'), "
             "blas.get('version')]))")
    numpy_version = blas_name = blas_version = "unknown"
    try:
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=60, env=worker_env(root))
        numpy_version, blas_name, blas_version = json.loads(out.stdout)
    except (OSError, subprocess.TimeoutExpired, ValueError):
        pass
    return {
        "git_revision": git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": mem_total_mib(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas_name} {blas_version}",
    }


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(root / "src"), MEANT_LOG="error")
    return env


def run_worker(root: Path, args, traced: int, work: Path) -> dict | None:
    """Run one worker to completion; its result, or None if it failed."""
    tag = f"{args.workload}-seed{args.seed}-trace{traced}"
    wdir = work / tag
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    result = wdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(traced), "--work", str(wdir), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(HERE / "_results" / f"{tag}.spans.jsonl")]
    proc = subprocess.Popen(cmd, env=worker_env(root), cwd=root,
                            stdout=sys.stderr)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
        if code == 0 and result.is_file():
            return json.loads(result.read_text("utf-8"))
        print(f"worker {tag} exited with code {code}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        print(f"worker {tag} timed out after {WORKER_TIMEOUT_S} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(wdir, ignore_errors=True)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = checkout_root()
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    work = HERE / "_work"
    (HERE / "_results").mkdir(exist_ok=True)
    work.mkdir(exist_ok=True)
    env = environment(root)

    results = [run_worker(root, args, 0, work)]
    if args.trace:
        results.append(run_worker(root, args, 1, work))
    crashed = any(r is None for r in results)
    attempted = sum(r["attempted"] for r in results if r) + crashed
    failed = sum(r["failed"] for r in results if r) + crashed
    pinned = all(r["blas_pinned_before_numpy"] for r in results if r)
    correct = not crashed and failed == 0 and pinned

    metrics = {}
    if not crashed:
        if args.trace:
            base, traced = results
            values = dict(traced["per_layer"])
            step = base["end_to_end"]["train_step_s_p50"]
            overhead = traced["end_to_end"]["train_step_s_p50"] - step
            values["trace.overhead_s"] = overhead
            values["trace.overhead_pct"] = 100.0 * overhead / step
        else:
            values = results[0]["end_to_end"]
        listed = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in listed}

    for key, value in env.items():
        print(f"env {key} = {value}")
    print(f"env blas_pinned_before_numpy = {pinned}")
    for r in results:
        if r:
            print(f"samples ({'traced' if r['traced'] else 'untraced'}) = "
                  + json.dumps(r["samples"], sort_keys=True))
            for msg in r["failures"]:
                print(f"CHECK FAILED: {msg}")
    for name, m in metrics.items():
        label = " (computed)" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{label}")
    print(f"error_rate = {failed / max(1, attempted):.6g} ({failed} of {attempted})")
    if results[0]:
        peak = results[0]["end_to_end"]["peak_rss_mib"]
        print(f"peak_rss_mib {peak:.1f} vs half of MemTotal "
              f"{env['mem_total_mib'] / 2:.1f}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "blas_pinned_before_numpy": pinned,
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "computed": [k for k in metrics if k in COMPUTED],
              "workers": results}
    out = HERE / "_results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", "utf-8")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
