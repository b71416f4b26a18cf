"""Check that the working tree computes what a base revision computes, bit
for bit.

    python scripts/same_outputs.py --base HEAD --seed 3

Run from the root of a checkout. The base revision is exported with
``git archive`` into a fresh directory; the working tree is used as it is on
disk, uncommitted changes included. In each, a fresh process builds every
``perfbench`` workload's dataset from the seed, runs the first training
batch forward and backward on the workload's model, and reports a SHA-256 of
the ``tobytes`` of the logits, the loss and every parameter gradient. The
digests are printed side by side; the exit code is 1 if any differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

# run inside a checkout, with its src/ and perfbench/ on the path
DIGESTS = """
import hashlib, json, sys
from pathlib import Path
import spans, worker
from meant import training

seed, work = int(sys.argv[1]), Path(sys.argv[2])
out = {}
for name, wl in sorted(worker.WORKLOADS.items()):
    _, _, model, data, _ = worker.setup(wl, seed, work / name,
                                        spans.NullTracer(), worker.Checks())
    idx = next(worker.batches(len(data["labels"]), seed))
    logits, labels = worker.forward_loss(model, data, idx)
    loss = training.cross_entropy(logits, labels)
    loss.backward()
    arrays = {"logits": logits.data, "loss": loss.data,
              **{f"grad {k}": p.grad for k, p in model.params().items()}}
    for key, a in arrays.items():
        out[f"{name} {key}"] = hashlib.sha256(a.tobytes()).hexdigest()
print(json.dumps(out))
"""


def digests(checkout: Path, seed: int, work: Path) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": f"{checkout / 'src'}{os.pathsep}{checkout / 'perfbench'}"}
    proc = subprocess.run([sys.executable, "-c", DIGESTS, str(seed), str(work)],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp) / "base")
        old = digests(Path(tmp) / "base", args.seed, Path(tmp) / "work")
        new = digests(ROOT, args.seed, Path(tmp) / "work")
    differ = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
    for key in sorted(old.keys() | new.keys()):
        print(f"{'DIFFERS' if key in differ else 'same   '} {key}")
    print(f"{len(differ)} of {len(old.keys() | new.keys())} arrays differ "
          f"from {args.base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
