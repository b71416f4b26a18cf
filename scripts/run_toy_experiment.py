#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize data, build the lag-window
dataset, train a small model, evaluate it, run a few ablations and render
one ticker's last chart.

Everything runs on one CPU core in a couple of minutes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from meant.cli import main as meant_main

TOY_MODEL = {
    "d_l": 16, "d_p": 16, "heads": 2, "lang_depth": 1, "vision_depth": 1,
    "patch_size": 16,
}


def run(argv: list[str]) -> None:
    print(f"$ meant {' '.join(argv)}")
    rc = meant_main(argv)
    if rc != 0:
        raise SystemExit(rc)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy_run")
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--variants", default="full,tweet-price,price-only")
    args = parser.parse_args()

    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)

    subprocess.run([sys.executable,
                    str(Path(__file__).with_name("make_synthetic_data.py")),
                    "--out", str(work / "data")], check=True)

    run(["build-dataset",
         "--prices", str(work / "data" / "prices.csv"),
         "--tweets", str(work / "data" / "tweets.jsonl"),
         "--out", str(work / "dataset"),
         "--lag", "5", "--seq-len", "16", "--vocab-size", "64",
         "--graph-size", "32"])

    config = work / "config.json"
    config.write_text(json.dumps({
        "model": TOY_MODEL,
        "train": {"epochs": args.epochs, "batch_size": 16, "lr": 1e-3,
                  "patience": 3, "seed": 42},
    }, indent=2))

    run(["train", "--config", str(config), "--data", str(work / "dataset"),
         "--out", str(work / "run")])
    run(["eval", "--checkpoint", str(work / "run" / "model.ckpt"),
         "--data", str(work / "dataset"), "--split", "test",
         "--out", str(work / "eval")])
    run(["ablate", "--config", str(config), "--data", str(work / "dataset"),
         "--variants", args.variants, "--out", str(work / "ablation")])
    run(["render-graphs", "--prices", str(work / "data" / "prices.csv"),
         "--ticker", "AAA", "--out", str(work / "charts"),
         "--graph-size", "32"])

    print(f"\nartifacts under {work}/: dataset/, run/, eval/, ablation/, "
          f"charts/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
