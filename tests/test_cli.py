import csv
import dataclasses
import json
import math
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from meant import cli
from meant.cli import ABLATION_VARIANTS, _model_config, build_parser, main
from meant.config import RunConfig
from meant.errors import ConfigError
from meant.fusion import MeantModel
from meant.graphs import encode_graph_blob
from meant.sealed import seal
from meant.training import CHECKPOINT_MAGIC, dataset_binding, save_checkpoint
from meant.synthetic import make_sine_prices, make_tweets

MODEL_OVERRIDES = {"d_l": 8, "d_p": 8, "heads": 2, "lang_depth": 1,
                   "vision_depth": 1, "patch_size": 16}


def write_inputs(root: Path) -> tuple[Path, Path]:
    prices = make_sine_prices(days=160)
    rows = ["ticker,date,close"]
    rows += [f"{prices.ticker},{d.isoformat()},{c:.6f}"
             for d, c in zip(prices.dates, prices.closes)]
    prices_csv = root / "prices.csv"
    prices_csv.write_text("\n".join(rows) + "\n")
    tweets_jsonl = root / "tweets.jsonl"
    with open(tweets_jsonl, "w") as fh:
        for rec in make_tweets(prices):
            fh.write(json.dumps({"ticker": rec.ticker,
                                 "date": rec.date.isoformat(),
                                 "text": rec.text}) + "\n")
    return prices_csv, tweets_jsonl


def build_args(prices_csv, tweets_jsonl, out) -> list[str]:
    """The workspace's build-dataset command line, writing to ``out``."""
    return ["build-dataset", "--prices", str(prices_csv),
            "--tweets", str(tweets_jsonl), "--out", str(out),
            "--lag", "3", "--seq-len", "8", "--vocab-size", "32",
            "--graph-size", "32"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Inputs plus a built dataset and a run config, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    prices_csv, tweets_jsonl = write_inputs(root)
    data_dir = root / "dataset"
    rc = main(["build-dataset", "--prices", str(prices_csv),
               "--tweets", str(tweets_jsonl), "--out", str(data_dir),
               "--lag", "3", "--seq-len", "8", "--vocab-size", "32",
               "--graph-size", "32"])
    assert rc == 0
    config = root / "config.json"
    config.write_text(json.dumps({
        "model": MODEL_OVERRIDES,
        "train": {"epochs": 2, "batch_size": 8, "lr": 1e-3, "patience": 3,
                  "seed": 5},
    }))
    return {"root": root, "prices": prices_csv, "tweets": tweets_jsonl,
            "data": data_dir, "config": config}


class TestBuildDataset:
    def test_artifacts_exist(self, workspace):
        data = workspace["data"]
        assert (data / "manifest.json").exists()
        assert (data / "windows.jsonl").exists()
        assert any((data / "graphs").iterdir())
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["lag"] == 3
        assert manifest["seq_len"] == 8
        assert manifest["image_shape"] == [3, 32, 32]

    def test_summary_printed(self, workspace, capsys):
        out_dir = workspace["root"] / "dataset2"
        rc = main(["build-dataset", "--prices", str(workspace["prices"]),
                   "--tweets", str(workspace["tweets"]), "--out", str(out_dir),
                   "--lag", "3", "--seq-len", "8", "--vocab-size", "32",
                   "--graph-size", "32"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["windows"] > 0
        assert set(summary["label_counts"]) == {"0", "1"}

    def test_rebuild_is_byte_identical(self, workspace):
        a, b = workspace["data"], workspace["root"] / "dataset2"
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
        assert (a / "windows.jsonl").read_bytes() == (b / "windows.jsonl").read_bytes()
        for blob in (a / "graphs").iterdir():
            assert blob.read_bytes() == (b / "graphs" / blob.name).read_bytes()

    def test_missing_input_file(self, workspace, capsys):
        rc = main(["build-dataset", "--prices", "nope.csv",
                   "--tweets", str(workspace["tweets"]), "--out", "x"])
        assert rc == 1

    def test_retired_workers_flag_exits_one(self, workspace, tmp_path, capsys):
        # a usage error is a config error (1); 2 is for numeric failures
        rc = main(["build-dataset", "--prices", str(workspace["prices"]),
                   "--tweets", str(workspace["tweets"]),
                   "--out", str(tmp_path / "ds"), "--workers", "2"])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_bad_split_exits_one(self, workspace, tmp_path, capsys):
        # two fractions; fractions not summing to 1; dates out of order;
        # a split that leaves the training part empty; NaN fractions
        for split in ("0.5,0.5", "0.5,0.3,0.3", "2022-06-14,2022-04-19",
                      "2000-01-03,2000-02-01", "0.8,0.1,nan", "nan,0.5,0.5",
                      "0.8,nan,0.1"):
            out = tmp_path / "ds"
            rc = main(build_args(workspace["prices"], workspace["tweets"], out)
                      + ["--split", split])
            assert rc == 1, split
            assert not out.exists(), split

    @pytest.mark.parametrize("row", [
        "[1, 2]",
        '{"ticker": "SINE", "date": 5, "text": "up"}',
        '{"ticker": "SINE", "date": "2022-01-03", "text": 5}',
    ], ids=["not_an_object", "date_not_a_string", "text_not_a_string"])
    def test_malformed_tweet_row_exits_one(self, workspace, tmp_path, capsys,
                                           row):
        tweets = tmp_path / "tweets.jsonl"
        tweets.write_text(workspace["tweets"].read_text() + row + "\n")
        rc = main(build_args(workspace["prices"], tweets, tmp_path / "ds"))
        assert rc == 1
        assert "bad tweet row" in capsys.readouterr().err

    def test_ticker_that_is_no_file_name_exits_one(self, workspace, tmp_path,
                                                  capsys):
        # chart files are named after the ticker; one with a path separator
        # would write outside the dataset's graphs/
        prices, tweets = tmp_path / "prices.csv", tmp_path / "tweets.jsonl"
        for path, src in ((prices, "prices"), (tweets, "tweets")):
            path.write_text(workspace[src].read_text().replace("SINE", "../SINE"))
        rc = main(build_args(prices, tweets, tmp_path / "ds"))
        assert rc == 1
        assert "cannot name a file" in capsys.readouterr().err
        assert not any(tmp_path.glob("ds/*.bin"))


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace["root"] / "run"
    rc = main(["train", "--config", str(workspace["config"]),
               "--data", str(workspace["data"]), "--out", str(out)])
    assert rc == 0
    return out


class TestTrain:
    def test_artifacts(self, trained):
        assert (trained / "model.ckpt").exists()
        assert (trained / "test_metrics.json").exists()
        assert (trained / "config.json").exists()
        log_lines = (trained / "training_log.jsonl").read_text().splitlines()
        assert 1 <= len(log_lines) <= 2
        first = json.loads(log_lines[0])
        assert {"epoch", "lr", "train_loss", "val"} <= set(first)

    def test_metrics_file_well_formed(self, trained):
        metrics = json.loads((trained / "test_metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert np.array(metrics["confusion"]).shape == (2, 2)

    def test_config_echo_round_trips(self, trained):
        echoed = json.loads((trained / "config.json").read_text())
        again = RunConfig.from_dict(echoed)
        assert again.train.epochs == 2
        assert again.model["d_l"] == 8

    def test_bad_config_exits_one(self, workspace, tmp_path, capsys):
        # an unknown key, keys retired from ModelConfig and TrainConfig,
        # and bad values
        for model, train in (({"wings": 2}, {}), ({"use_pad_mask": 2}, {}),
                             ({"norm_mode": 2}, {}), ({"temporal_heads": 1}, {}),
                             ({"mlp_ratio": 4}, {}), ({"heads": 0}, {}),
                             ({"d_l": "8"}, {}),
                             ({}, {"schedule_unit": "step"}),
                             ({}, {"t0": 7.0})):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"model": {**MODEL_OVERRIDES, **model},
                                       "train": train}))
            rc = main(["train", "--config", str(bad),
                       "--data", str(workspace["data"]), "--out", str(tmp_path)])
            assert rc == 1
            assert "error:" in capsys.readouterr().err

    def test_dataset_field_in_config_exits_one(self, workspace, tmp_path,
                                               capsys):
        # a vocabulary smaller than the dataset's ids; a pad id that is a
        # real word of the dataset's vocabulary
        for key, value in (("vocab_size", 5), ("pad_id", 3)):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"model": {**MODEL_OVERRIDES,
                                                 key: value}}))
            rc = main(["train", "--config", str(bad),
                       "--data", str(workspace["data"]), "--out", str(tmp_path)])
            assert rc == 1
            err = capsys.readouterr().err
            assert "error:" in err and key in err

    def test_token_id_outside_vocabulary_exits_one(self, workspace, tmp_path,
                                                   capsys):
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        lines = (data / "windows.jsonl").read_text().splitlines()
        row = json.loads(lines[0])
        row["X"][0][0] = 999
        lines[0] = json.dumps(row)
        (data / "windows.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--config", str(workspace["config"]),
                   "--data", str(data), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error: token ids" in capsys.readouterr().err

    def test_bad_train_values_exit_one(self, workspace, tmp_path, capsys):
        for train in ({"batch_size": 0}, {"batch_size": -2}, {"epochs": "2"}):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"model": MODEL_OVERRIDES, "train": train}))
            rc = main(["train", "--config", str(bad),
                       "--data", str(workspace["data"]), "--out", str(tmp_path)])
            assert rc == 1
            assert "error:" in capsys.readouterr().err

    def test_config_naming_data_section_exits_one(self, workspace, tmp_path,
                                                  capsys):
        # the split moved from the run config to build-dataset --split
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"data": {"split_fractions": [0.6, 0.2, 0.2]},
                                   "model": MODEL_OVERRIDES}))
        rc = main(["train", "--config", str(old),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "data" in capsys.readouterr().err

    def test_window_row_missing_label_exits_one(self, workspace, tmp_path,
                                                capsys):
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        lines = (data / "windows.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        del row["label"]
        lines[1] = json.dumps(row)
        (data / "windows.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--config", str(workspace["config"]),
                   "--data", str(data), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "windows.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [
        "short_token_row", "long_token_row", "float_token_id", "short_lag_row",
        "one_window_charts_64px", "every_chart_64px", "fractional_label",
        "string_label", "bool_label", "string_macd", "nan_macd",
        "chart_absolute_path", "chart_parent_path"])
    def test_window_row_unlike_manifest_exits_one(self, workspace, tmp_path,
                                                 capsys, case):
        # every edit keeps windows.jsonl valid JSON and every chart blob's
        # CRC valid; the row no longer fits the manifest's lag, seq_len or
        # image_shape, has a label or MACD value of the wrong type, or names
        # a valid chart outside the dataset's graphs/
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        lines = (data / "windows.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        blob = (data / "graphs" / row["graphs"][0]).read_bytes()
        if case == "fractional_label":
            row["label"] = 0.9
        elif case == "string_label":
            row["label"] = "1"
        elif case == "bool_label":
            row["label"] = True
        elif case == "string_macd":
            row["M"] = [[str(v) for v in day] for day in row["M"]]
        elif case == "nan_macd":
            row["M"][0][0] = float("nan")
        elif case == "chart_absolute_path":
            (tmp_path / "outside.bin").write_bytes(blob)
            row["graphs"][0] = str(tmp_path / "outside.bin")
        elif case == "chart_parent_path":
            (data / "outside.bin").write_bytes(blob)
            row["graphs"][0] = "../outside.bin"
        elif case == "short_token_row":
            row["X"][0] = row["X"][0][:5]
        elif case == "long_token_row":
            row["X"][0] += [0, 0]
        elif case == "float_token_id":
            row["X"][0][0] = 2.7
        elif case == "short_lag_row":
            row.update(lag=row["lag"] - 1, M=row["M"][1:], X=row["X"][1:],
                       graphs=row["graphs"][1:])
        else:
            names = (row["graphs"] if case == "one_window_charts_64px"
                     else [p.name for p in (data / "graphs").iterdir()])
            for name in names:
                (data / "graphs" / name).write_bytes(
                    encode_graph_blob(np.ones((3, 64, 64))))
        lines[1] = json.dumps(row)
        (data / "windows.jsonl").write_text("\n".join(lines) + "\n")
        rc = main(["train", "--config", str(workspace["config"]),
                   "--data", str(data), "--out", str(tmp_path / "run")])
        assert rc == 1
        line = 1 if case == "every_chart_64px" else 2
        assert f"error: windows.jsonl:{line}: bad row" in capsys.readouterr().err

    @pytest.mark.parametrize("victim", ["prices", "tweets", "config",
                                        "manifest.json", "windows.jsonl"])
    def test_undecodable_input_exits_one(self, workspace, tmp_path, capsys,
                                         victim):
        # a byte that is not UTF-8 in any file the CLI reads as text
        inputs = {k: tmp_path / workspace[k].name
                  for k in ("prices", "tweets", "config")}
        for key, path in inputs.items():
            shutil.copy(workspace[key], path)
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        path = inputs.get(victim, data / victim)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        if victim in ("prices", "tweets"):
            argv = build_args(inputs["prices"], inputs["tweets"], tmp_path / "new")
        else:
            argv = ["train", "--config", str(inputs["config"]),
                    "--data", str(data), "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "new").exists() and not (tmp_path / "run").exists()

    def test_zero_modality_config_exits_one(self, workspace, tmp_path):
        bad = tmp_path / "nomod.json"
        bad.write_text(json.dumps({"model": {
            **MODEL_OVERRIDES, "use_text": False, "use_image": False,
            "use_price": False}}))
        rc = main(["train", "--config", str(bad),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1


class TestEval:
    def test_eval_matches_training_metrics(self, workspace, trained, tmp_path):
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(workspace["data"]), "--split", "test",
                   "--out", str(tmp_path)])
        assert rc == 0
        got = json.loads((tmp_path / "metrics.json").read_text())
        want = json.loads((trained / "test_metrics.json").read_text())
        assert got == want

    def test_confusion_csv(self, workspace, trained, tmp_path):
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "confusion.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["true\\pred", "0", "1"]
        assert len(rows) == 3

    def test_checkpoint_naming_retired_key_exits_one(self, workspace, trained,
                                                     tmp_path, capsys):
        # rewrite the config record of a valid checkpoint with a key this
        # model no longer has; the file is resealed so only the key fails
        body = (trained / "model.ckpt").read_bytes()[4:-4]   # version onwards
        cfg_len, = struct.unpack_from("<I", body, 4)
        cfg = json.loads(body[8:8 + cfg_len])
        cfg["temporal_ffn"] = True
        cfg_json = json.dumps(cfg).encode()
        body = (body[:4] + struct.pack("<I", len(cfg_json)) + cfg_json
                + body[8 + cfg_len:])
        old = tmp_path / "old.ckpt"
        old.write_bytes(seal(CHECKPOINT_MAGIC, body))
        rc = main(["eval", "--checkpoint", str(old),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "temporal_ffn" in capsys.readouterr().err

    def test_version_2_checkpoint_exits_one(self, workspace, trained,
                                            tmp_path, capsys):
        # version 2 pooled PAD positions too, so its parameters would be
        # read by a model computing another function; resealed, so only the
        # version fails
        body = (trained / "model.ckpt").read_bytes()[4:-4]   # version onwards
        old = tmp_path / "v2.ckpt"
        old.write_bytes(seal(CHECKPOINT_MAGIC, struct.pack("<I", 2) + body[4:]))
        rc = main(["eval", "--checkpoint", str(old),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "error: unsupported checkpoint version 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["header", "name", "parameter", "trailing",
                                     "name_not_utf8"])
    def test_malformed_checkpoint_exits_one(self, workspace, trained, tmp_path,
                                            capsys, cut):
        # cut a valid checkpoint inside the parameter count, the first
        # parameter's name or its values, add a byte after the last
        # parameter, or break the name's UTF-8; the file is resealed so
        # only the records are wrong
        body = (trained / "model.ckpt").read_bytes()[4:-4]   # version onwards
        off = 4
        for _ in range(2):                  # config and dataset binding
            length, = struct.unpack_from("<I", body, off)
            off += 4 + length
        name_len, = struct.unpack_from("<I", body, off + 4)
        name_at = off + 8
        body = {"header": body[:off + 2],
                "name": body[:name_at + name_len // 2],
                "parameter": body[:name_at + name_len + 8 + 12],
                "trailing": body + b"\0",
                "name_not_utf8": body[:name_at] + b"\xff" + body[name_at + 1:]}[cut]
        path = tmp_path / "cut.ckpt"
        path.write_bytes(seal(CHECKPOINT_MAGIC, body))
        rc = main(["eval", "--checkpoint", str(path),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_lag_beyond_dataset_exits_one(self, workspace,
                                                     tmp_path, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        config = _model_config(
            RunConfig.from_dict({"model": {**MODEL_OVERRIDES, "lag": 5}}), manifest)
        params = {k: p.data for k, p in MeantModel(config).params().items()}
        save_checkpoint(tmp_path / "lag5.ckpt", config, params,
                        dataset_binding(manifest))
        rc = main(["eval", "--checkpoint", str(tmp_path / "lag5.ckpt"),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "lag" in capsys.readouterr().err

    def test_checkpoint_vocab_differs_from_dataset_exits_one(
            self, workspace, tmp_path, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        config = _model_config(RunConfig.from_dict({"model": MODEL_OVERRIDES}),
                               manifest)
        config = dataclasses.replace(config, vocab_size=config.vocab_size + 1)
        params = {k: p.data for k, p in MeantModel(config).params().items()}
        save_checkpoint(tmp_path / "vocab.ckpt", config, params,
                        dataset_binding(manifest))
        rc = main(["eval", "--checkpoint", str(tmp_path / "vocab.ckpt"),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "vocab_size" in err

    @pytest.mark.parametrize("rebuild", ["rewritten_words", "other_split"])
    def test_dataset_of_other_tokenizer_or_normalization_exits_one(
            self, workspace, trained, tmp_path, capsys, rebuild):
        # every word rewritten keeps the vocabulary size but not its words;
        # another split keeps the words but refits the normalization
        tweets, extra = workspace["tweets"], []
        if rebuild == "rewritten_words":
            tweets = tmp_path / "tweets.jsonl"
            rows = [json.loads(line) for line in
                    workspace["tweets"].read_text().splitlines()]
            tweets.write_text("".join(
                json.dumps({**r, "text": " ".join(w + "q" for w in r["text"].split())})
                + "\n" for r in rows))
        else:
            extra = ["--split", "0.6,0.2,0.2"]
        data = tmp_path / "dataset"
        assert main(build_args(workspace["prices"], tweets, data) + extra) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        trained_on = json.loads((workspace["data"] / "manifest.json").read_text())
        assert len(manifest["tokenizer"]["vocab"]) == \
            len(trained_on["tokenizer"]["vocab"])
        capsys.readouterr()
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(data), "--out", str(tmp_path)])
        assert rc == 1
        key = "tokenizer" if rebuild == "rewritten_words" else "normalization"
        err = capsys.readouterr().err
        assert "error:" in err and f"{key}_crc32" in err

    def test_missing_checkpoint(self, workspace, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc != 0

    @pytest.mark.parametrize("edit", [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "normalization"},
        lambda m: {**m, "normalization": {"mean": [0.0] * 5}},
        lambda m: {**m, "split": [0.8, 0.1, 0.1]},
        lambda m: {k: v for k, v in m.items() if k != "count"},
        lambda m: {**m, "tokenizer": [1]},
        lambda m: {**m, "tokenizer": {**m["tokenizer"], "vocab": {"up": "3"}}},
        lambda m: {**m, "image_shape": [3, 32]},
        lambda m: {**m, "seq_len": "8"},
        lambda m: {**m, "normalization": {**m["normalization"],
                                          "mean": [0.0] * 3}},
        lambda m: {**m, "normalization": {**m["normalization"],
                                          "std": ["1.0"] * 5}},
        lambda m: {**m, "normalization": {**m["normalization"],
                                          "std": [0.0] * 5}},
    ], ids=["list", "no_normalization", "no_std", "split_not_object",
            "no_count", "tokenizer_not_object", "vocab_id_not_int",
            "image_shape_two_ints", "seq_len_not_int", "mean_of_3",
            "std_strings", "std_zero"])
    def test_malformed_manifest_exits_one(self, workspace, trained, tmp_path,
                                          capsys, edit):
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        path = data / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        rc = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                   "--data", str(data), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "manifest.json" in capsys.readouterr().err


class TestRecordedSplit:
    """``build-dataset --split`` fixes the split; train, eval and ablate
    all read it from the manifest."""

    @pytest.mark.parametrize("split", ["0.6,0.2,0.2", "2022-04-19,2022-06-14"],
                             ids=["fractions", "dates"])
    def test_eval_reproduces_train_metrics(self, workspace, tmp_path, split):
        data, run, ev = tmp_path / "ds", tmp_path / "run", tmp_path / "eval"
        assert main(build_args(workspace["prices"], workspace["tweets"], data)
                    + ["--split", split]) == 0
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["split"] == build_parser().parse_args(
            build_args("p", "t", "o") + ["--split", split]).split
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(data), "--out", str(run)]) == 0
        assert main(["eval", "--checkpoint", str(run / "model.ckpt"),
                     "--data", str(data), "--split", "test",
                     "--out", str(ev)]) == 0
        want = (run / "test_metrics.json").read_bytes()
        assert (ev / "metrics.json").read_bytes() == want
        # both splits hold out the last two of the seven windows
        assert sum(map(sum, json.loads(want)["confusion"])) == 2


    @pytest.mark.parametrize("split", [
        {"fractions": ["a", "b", "c"]}, {"fractions": [0.9, 0.1]},
        {"fractions": [True, 1e-10, 1e-10]}, {"dates": [1, 2]},
        {"dates": ["x", "y"]}],
        ids=["non_numeric_fractions", "two_fractions", "bool_fraction",
             "non_string_dates", "non_iso_dates"])
    def test_malformed_split_record_exits_one(self, workspace, tmp_path,
                                              capsys, split):
        data = tmp_path / "ds"
        shutil.copytree(workspace["data"], data)
        path = data / "manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "split": split}))
        rc = main(["train", "--config", str(workspace["config"]),
                   "--data", str(data), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "error: split record" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestAblate:
    def test_variant_table_and_param_ordering(self, workspace, tmp_path,
                                              capsys):
        rc = main(["ablate", "--config", str(workspace["config"]),
                   "--data", str(workspace["data"]),
                   "--variants", "full,price-only,lag1",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = json.loads((tmp_path / "ablation.json").read_text())
        assert set(rows) == {"full", "price-only", "lag1"}
        # dropping modalities sheds parameters; shortening lag only
        # shrinks the patch-axis reduction weight, by (lag-1) * n_p = 8
        assert rows["price-only"]["parameters"] < rows["full"]["parameters"]
        assert rows["full"]["parameters"] - rows["lag1"]["parameters"] == 8
        table = capsys.readouterr().out
        assert "variant" in table and "macro-F1" in table

    def test_unknown_variant_exits_one(self, workspace, tmp_path, capsys):
        rc = main(["ablate", "--config", str(workspace["config"]),
                   "--data", str(workspace["data"]),
                   "--variants", "full,quantum", "--out", str(tmp_path)])
        assert rc == 1
        assert "quantum" in capsys.readouterr().err

    def test_empty_variant_list_exits_one(self, workspace, tmp_path, capsys):
        # rejected before the dataset is read: --data names no directory
        rc = main(["ablate", "--config", str(workspace["config"]),
                   "--data", str(tmp_path / "missing"),
                   "--variants", " , ", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "no variant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_variant_catalog_complete(self):
        assert {"full", "tweet-price", "vision-price", "price-only",
                "tweet-only", "vision-only", "meanpool", "seqproj",
                "lag1", "lag5", "lag10"} == set(ABLATION_VARIANTS)


class TestGradcheckCommand:
    def test_passes_and_prints_lines(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all gradient checks passed" in out
        assert out.count("ok") >= 11
        assert "op gather" in out
        assert "op padded_attn" in out
        assert "op linear" in out
        assert "model (seq_proj) max rel err" in out
        for pooling in ("mean_pool", "seq_proj"):
            for days in ("shared", "padded"):
                assert f"model ({pooling}, {days} days) max rel err" in out

    def test_nan_reading_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_op_checks", lambda rng: iter([("gelu", math.nan)]))
        monkeypatch.setattr(cli, "_model_checks", lambda: iter([]))
        assert main(["gradcheck"]) == 2
        assert "op gelu          max rel err nan  FAIL" in capsys.readouterr().out


class TestRenderGraphs:
    def test_writes_bin_and_ppm(self, workspace, tmp_path):
        rc = main(["render-graphs", "--prices", str(workspace["prices"]),
                   "--ticker", "SINE", "--out", str(tmp_path),
                   "--graph-size", "64"])
        assert rc == 0
        bins = list(tmp_path.glob("*.bin"))
        ppms = list(tmp_path.glob("*.ppm"))
        assert len(bins) == 1 and len(ppms) == 1
        from meant.graphs import decode_graph_blob
        img = decode_graph_blob(bins[0].read_bytes())
        assert img.shape == (3, 64, 64)

    def test_specific_dates(self, workspace, tmp_path):
        rc = main(["render-graphs", "--prices", str(workspace["prices"]),
                   "--ticker", "SINE", "--out", str(tmp_path),
                   "--graph-size", "32",
                   "--date", "2022-04-01", "--date", "2022-05-02"])
        assert rc == 0
        assert len(list(tmp_path.glob("*.bin"))) == 2

    def test_non_trading_date_exits_one(self, workspace, tmp_path, capsys):
        rc = main(["render-graphs", "--prices", str(workspace["prices"]),
                   "--ticker", "SINE", "--out", str(tmp_path),
                   "--date", "2022-04-02"])  # a Saturday
        assert rc == 1

    def test_unknown_ticker_exits_one(self, workspace, tmp_path):
        rc = main(["render-graphs", "--prices", str(workspace["prices"]),
                   "--ticker", "NOPE", "--out", str(tmp_path)])
        assert rc == 1


class TestRunConfig:
    def test_defaults(self):
        run = RunConfig.from_dict({})
        assert run.train.epochs == 15
        assert run.train.lr == 5e-5
        assert run.train.weight_decay == 0.01
        assert run.model == {}

    # each case list ends with options that were retired, so configs
    # written before that fail loudly instead of being ignored
    def test_unknown_section(self):
        for section in ("optimizer", "output", "data"):
            with pytest.raises(ConfigError, match="sections"):
                RunConfig.from_dict({section: {}})

    def test_unknown_key_in_section(self):
        for key in ("momentum", "eta_min", "t0", "t_mult"):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_dict({"train": {key: 1}})

    def test_unknown_model_key(self):
        for key in ("dropout", "use_pad_mask", "temporal_ffn", "axial_literal",
                    "norm_mode", "temporal_pos", "temporal_heads", "mlp_ratio"):
            with pytest.raises(ConfigError, match=key):
                RunConfig.from_dict({"model": {key: 1}})

    def test_split_dates_parsed(self):
        # split dates and fractions come from build-dataset's --split
        def split(*flag):
            return build_parser().parse_args(build_args("p", "t", "o")
                                             + list(flag)).split
        assert split("--split", "2022-05-01,2022-06-01") == {
            "dates": ["2022-05-01", "2022-06-01"]}
        assert split("--split", "0.6,0.2,0.2") == {"fractions": [0.6, 0.2, 0.2]}
        assert split() == {"fractions": [0.8, 0.1, 0.1]}

    def test_effective_dict_round_trip(self):
        run = RunConfig.from_dict({"train": {"epochs": 3},
                                   "model": {"d_l": 16}})
        again = RunConfig.from_dict(run.effective_dict())
        assert again.effective_dict() == run.effective_dict()

    def test_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            RunConfig.from_file(path)
