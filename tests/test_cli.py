import csv
import json
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from meant.cli import ABLATION_VARIANTS, _model_config, build_parser, main
from meant.config import RunConfig
from meant.errors import ConfigError
from meant.fusion import MeantModel
from meant.training import save_checkpoint
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
        # a split that leaves the training part empty
        for split in ("0.5,0.5", "0.5,0.3,0.3", "2022-06-14,2022-04-19",
                      "2000-01-03,2000-02-01"):
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
        # an unknown key, one retired from ModelConfig, and bad values
        for model in ({"wings": 2}, {"use_pad_mask": 2}, {"norm_mode": 2},
                      {"heads": 0}, {"d_l": "8"}):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps({"model": {**MODEL_OVERRIDES, **model}}))
            rc = main(["train", "--config", str(bad),
                       "--data", str(workspace["data"]), "--out", str(tmp_path)])
            assert rc == 1
            assert "error:" in capsys.readouterr().err

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
        # model no longer has; the CRC is recomputed so only the key fails
        blob = (trained / "model.ckpt").read_bytes()
        cfg_len, = struct.unpack_from("<I", blob, 8)
        cfg = json.loads(blob[12:12 + cfg_len])
        cfg["temporal_ffn"] = True
        cfg_json = json.dumps(cfg).encode()
        body = (blob[:8] + struct.pack("<I", len(cfg_json)) + cfg_json
                + blob[12 + cfg_len:-4])
        old = tmp_path / "old.ckpt"
        old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["eval", "--checkpoint", str(old),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "temporal_ffn" in capsys.readouterr().err

    def test_checkpoint_lag_beyond_dataset_exits_one(self, workspace,
                                                     tmp_path, capsys):
        manifest = json.loads((workspace["data"] / "manifest.json").read_text())
        config = _model_config(
            RunConfig.from_dict({"model": {**MODEL_OVERRIDES, "lag": 5}}), manifest)
        params = {k: p.data for k, p in MeantModel(config).params().items()}
        save_checkpoint(tmp_path / "lag5.ckpt", config, params)
        rc = main(["eval", "--checkpoint", str(tmp_path / "lag5.ckpt"),
                   "--data", str(workspace["data"]), "--out", str(tmp_path)])
        assert rc == 1
        assert "lag" in capsys.readouterr().err

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
    ], ids=["list", "no_normalization", "no_std", "split_not_object",
            "no_count"])
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
        for pooling in ("mean_pool", "seq_proj"):
            assert f"model ({pooling}, shared days) max rel err" in out


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
        assert run.train.t0 == 7.0
        assert run.model == {}

    # each case list ends with options that were retired, so configs
    # written before that fail loudly instead of being ignored
    def test_unknown_section(self):
        for section in ("optimizer", "output", "data"):
            with pytest.raises(ConfigError, match="sections"):
                RunConfig.from_dict({section: {}})

    def test_unknown_key_in_section(self):
        with pytest.raises(ConfigError, match="momentum"):
            RunConfig.from_dict({"train": {"momentum": 1}})

    def test_unknown_model_key(self):
        for key in ("dropout", "use_pad_mask", "temporal_ffn", "axial_literal",
                    "norm_mode", "temporal_pos"):
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
