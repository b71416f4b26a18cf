import datetime as dt
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meant.dataset import (LagWindow, TweetRecord, build_lag_windows,
                           chronological_split, concat_day_tweets,
                           load_dataset, save_dataset, split_windows,
                           stocknet_label)
from meant.errors import ContractError, DatasetFormatError

from meant.indicators import (CrossSignal, classify_crossover, compute_macd,
                              macd_vector)
from meant.synthetic import make_sine_prices, make_tweets
from meant.tokenizer import build_vocab, tokenize
from meant.training import truncate_lag, windows_to_arrays


class TestConcatTweets:
    def test_joined_with_separator(self):
        d = dt.date(2023, 1, 2)
        text = concat_day_tweets([TweetRecord("T", d, "up"),
                                  TweetRecord("T", d, "down")])
        assert text == "up [SEP] down"

    def test_empty_day(self):
        assert concat_day_tweets([]) == ""

    def test_mixed_day_rejected(self):
        d = dt.date(2023, 1, 2)
        with pytest.raises(ContractError):
            concat_day_tweets([TweetRecord("T", d, "a"),
                               TweetRecord("U", d, "b")])

    def test_order_preserved(self):
        d = dt.date(2023, 1, 2)
        tweets = [TweetRecord("T", d, w) for w in ("one", "two", "three")]
        assert concat_day_tweets(tweets) == "one [SEP] two [SEP] three"


class TestStocknetLabel:
    def test_clear_up_down(self):
        assert stocknet_label(100.0, 102.0) == 1
        assert stocknet_label(100.0, 98.0) == 0

    def test_band_boundaries(self):
        # band is -0.5% < r <= 0.55%: both ends checked exactly
        assert stocknet_label(1000.0, 995.0) == 0      # r == -0.005 kept
        assert stocknet_label(1000.0, 1005.5) is None  # r == 0.0055 dropped
        assert stocknet_label(1000.0, 1005.6) == 1
        assert stocknet_label(1000.0, 1000.0) is None
        assert stocknet_label(1000.0, 994.9) == 0

    def test_bad_previous_close(self):
        with pytest.raises(ContractError):
            stocknet_label(0.0, 1.0)


class TestBuild:
    def test_count_matches_crossover_oracle(self, sine_prices, sine_dataset,
                                            small_graph_spec):
        windows, stats, _ = sine_dataset
        ind = compute_macd(sine_prices)
        first = max(1, 5 + small_graph_spec.window_days - 1)
        want = sum(classify_crossover(ind, t) is not CrossSignal.NONE
                   for t in range(first, len(sine_prices)))
        assert len(windows) == want
        assert stats.candidates == len(sine_prices) - first

    def test_window_shapes(self, sine_dataset):
        windows, _, tok = sine_dataset
        w = windows[0]
        assert w.M.shape == (5, 5)
        assert len(w.X) == 5 and all(len(x) == tok.max_len for x in w.X)
        assert len(w.G) == 5 and w.G[0].shape == (3, 32, 32)

    def test_macd_lane_contents(self, sine_prices, sine_dataset):
        # M rows are the indicator vectors of the lag days before target
        windows, _, _ = sine_dataset
        ind = compute_macd(sine_prices)
        w = windows[0]
        t = sine_prices.dates.index(w.target_date)
        for k in range(5):
            assert np.array_equal(w.M[k], macd_vector(ind, t - 5 + k))

    def test_labels_rederivable(self, sine_prices, sine_dataset):
        windows, _, _ = sine_dataset
        ind = compute_macd(sine_prices)
        for w in windows:
            t = sine_prices.dates.index(w.target_date)
            sig = classify_crossover(ind, t)
            assert w.label == (1 if sig is CrossSignal.POSITIVE else 0)

    def test_tokens_rederivable(self, sine_prices, sine_dataset):
        windows, _, tok = sine_dataset
        tweets = make_tweets(sine_prices)
        by_date = {}
        for rec in tweets:
            by_date.setdefault(rec.date, []).append(rec)
        w = windows[3]
        t = sine_prices.dates.index(w.target_date)
        for k in range(5):
            day = sine_prices.dates[t - 5 + k]
            assert w.X[k] == tokenize(concat_day_tweets(by_date[day]), tok)

    def test_tweetless_day_discards_window(self, sine_prices,
                                           small_graph_spec, sine_dataset):
        windows, _, tok = sine_dataset
        victim = windows[0]
        t = sine_prices.dates.index(victim.target_date)
        hole = sine_prices.dates[t - 2]
        tweets = [r for r in make_tweets(sine_prices) if r.date != hole]
        pruned, stats = build_lag_windows(
            {sine_prices.ticker: sine_prices}, tweets, lag=5,
            tokenizer=tok, graph=small_graph_spec)
        assert victim.target_date not in {w.target_date for w in pruned}
        assert stats.discarded_no_tweets >= 1

    def test_min_tweets_threshold(self, sine_prices, small_graph_spec,
                                  sine_dataset):
        windows, _, tok = sine_dataset
        fewer, _ = build_lag_windows(
            {sine_prices.ticker: sine_prices}, make_tweets(sine_prices),
            lag=5, tokenizer=tok, graph=small_graph_spec,
            min_tweets_per_day=3)  # fixture has 2 per day
        assert fewer == []

    def test_nontrading_tweets_dropped_or_folded(self, sine_prices,
                                                 small_graph_spec,
                                                 sine_dataset):
        windows, _, tok = sine_dataset
        ticker, dates = sine_prices.ticker, sine_prices.dates
        # Saturday just before the first window's lag span: folding moves
        # its tweet onto the following Monday, a lag day of that window
        saturday = windows[0].target_date - dt.timedelta(days=3)
        assert saturday.weekday() == 5
        assert saturday not in dates
        # a mid-series Sunday whose Monday is a lag day of the middle window,
        # and a day after the last trading day, which has no next one
        mid = len(windows) // 2
        t = dates.index(windows[mid].target_date)
        monday = next(d for d in dates[t - 5:t] if d.weekday() == 0)
        sunday = monday - dt.timedelta(days=1)
        after_end = dates[-1] + dt.timedelta(days=1)

        def build(extra, fold=False):
            return build_lag_windows(
                {ticker: sine_prices}, make_tweets(sine_prices) + extra,
                lag=5, tokenizer=tok, graph=small_graph_spec,
                fold_nontrading=fold)[0]

        extra = [TweetRecord(ticker, saturday, "weekend chatter"),
                 TweetRecord(ticker, sunday, "sunday chatter"),
                 TweetRecord(ticker, after_end, "after the close")]
        assert build(extra) == windows
        folded = build(extra, fold=True)
        assert folded[0] != windows[0] and folded[mid] != windows[mid]
        # folding re-dates a tweet to the next trading day, and drops one
        # that has none
        assert folded == build([
            TweetRecord(ticker, saturday + dt.timedelta(days=2),
                        "weekend chatter"),
            TweetRecord(ticker, monday, "sunday chatter")])

    def test_uncovered_ticker_skipped(self, sine_prices, small_graph_spec,
                                      sine_dataset):
        _, _, tok = sine_dataset
        alien = [TweetRecord("GHOST", sine_prices.dates[0], "hello")]
        _, stats = build_lag_windows(
            {sine_prices.ticker: sine_prices},
            make_tweets(sine_prices) + alien, lag=5,
            tokenizer=tok, graph=small_graph_spec)
        assert stats.skipped_tickers == ["GHOST"]

    def test_two_tickers_in_ticker_date_order(self, small_graph_spec):
        # price dicts in reverse ticker order, tweets interleaved by date
        prices = {s.ticker: s for s in
                  (make_sine_prices("BBB", days=120, period=25.0),
                   make_sine_prices("AAA", days=120))}
        tweets = sorted((t for s in prices.values() for t in make_tweets(s)),
                        key=lambda t: (t.date, t.ticker))
        tok = build_vocab((t.text for t in tweets), max_size=64, max_len=8)
        windows, stats = build_lag_windows(prices, tweets, lag=3,
                                           tokenizer=tok,
                                           graph=small_graph_spec)
        keys = [(w.ticker, w.target_date) for w in windows]
        assert {k[0] for k in keys} == {"AAA", "BBB"}
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert sum(stats.label_counts.values()) == len(windows)

    def test_stocknet_mode(self, sine_prices, small_graph_spec, sine_dataset):
        _, _, tok = sine_dataset
        windows, _ = build_lag_windows(
            {sine_prices.ticker: sine_prices}, make_tweets(sine_prices),
            lag=5, tokenizer=tok, graph=small_graph_spec,
            label_mode="stocknet")
        assert windows
        for w in windows:
            t = sine_prices.dates.index(w.target_date)
            assert w.label == stocknet_label(sine_prices.closes[t - 1],
                                             sine_prices.closes[t])

    def test_requires_tokenizer_and_valid_lag(self, sine_prices, sine_dataset):
        _, _, tok = sine_dataset
        with pytest.raises(TypeError, match="tokenizer"):
            build_lag_windows({sine_prices.ticker: sine_prices}, [], lag=5)
        with pytest.raises(ContractError):
            build_lag_windows({sine_prices.ticker: sine_prices}, [], lag=0,
                              tokenizer=tok)


class TestSplit:
    def test_fractions_and_ordering(self, sine_dataset):
        windows, _, _ = sine_dataset
        train, val, test = chronological_split(windows)
        n = len(windows)
        assert len(train) + len(val) + len(test) == n
        assert abs(len(train) - 0.8 * n) <= 2
        assert max(w.target_date for w in train) < min(w.target_date for w in val)
        assert max(w.target_date for w in val) < min(w.target_date for w in test)

    def test_boundary_date_not_shared(self, small_graph_spec):
        prices = {s.ticker: s for s in
                  (make_sine_prices("AAA", days=160),
                   make_sine_prices("BBB", days=160, period=30.0))}
        tweets = [t for s in prices.values() for t in make_tweets(s)]
        tok = build_vocab((t.text for t in tweets), max_size=64, max_len=8)
        windows, _ = build_lag_windows(prices, tweets, lag=3, tokenizer=tok,
                                       graph=small_graph_spec)
        train, val, test = chronological_split(windows)
        assert not ({w.target_date for w in train} & {w.target_date for w in val})
        assert not ({w.target_date for w in val} & {w.target_date for w in test})

    def test_bad_fractions(self, sine_dataset):
        windows, _, _ = sine_dataset
        with pytest.raises(ContractError):
            chronological_split(windows, (0.8, 0.3, 0.1))
        with pytest.raises(ContractError):
            chronological_split(windows, (1.0, 0.0, 0.0))

    def test_too_few_windows(self, sine_dataset):
        windows, _, _ = sine_dataset
        with pytest.raises(ContractError):
            chronological_split(windows[:1])

    def test_date_bounds(self, sine_dataset):
        windows, _, _ = sine_dataset
        dates = sorted(w.target_date for w in windows)
        train_end, val_end = dates[len(dates) // 2], dates[-2]
        train, val, test = split_windows(
            windows, {"dates": [train_end.isoformat(), val_end.isoformat()]})
        assert len(train) + len(val) + len(test) == len(windows)
        assert max(w.target_date for w in train) <= train_end
        assert all(train_end < w.target_date <= val_end for w in val)
        assert min(w.target_date for w in test) > val_end

    def test_date_bounds_validation(self, sine_dataset):
        windows, _, _ = sine_dataset
        d = windows[0].target_date.isoformat()
        with pytest.raises(ContractError):
            split_windows(windows, {"dates": [d, d]})
        with pytest.raises(ContractError):
            split_windows(windows, {"dates": ["1990-01-01", "1990-01-02"]})

    @pytest.mark.parametrize("split", [
        None, [0.8, 0.1, 0.1], {}, {"fractions": [0.8, 0.1, 0.1], "dates": []},
        {"fractions": ["a", "b", "c"]}, {"fractions": [0.9, 0.1]},
        {"fractions": [0.5, 0.25, 0.125, 0.125]}, {"fractions": 1.0},
        {"fractions": [True, 1e-10, 1e-10]}, {"fractions": [0.8, 0.1, None]},
        {"fractions": [0.8, -0.1, 0.3]}, {"fractions": [0.8, 0.1, float("inf")]},
        {"dates": [1, 2]}, {"dates": ["x", "y"]}, {"dates": ["2022-09-06"]},
        {"dates": "2022-09-06,2022-11-29"}, {"dates": ["2022-11-29", "2022-09-06"]},
    ])
    def test_malformed_record_refused(self, sine_dataset, split):
        windows, _, _ = sine_dataset
        with pytest.raises(ContractError, match="split record"):
            split_windows(windows, split)

    def test_parts_pinned(self, sine_dataset, small_graph_spec):
        # (train, val, test) sizes as the walk-back cut and the date filter
        # gave them: on one ticker, on two tickers with distinct dates and
        # on two tickers whose windows share every date
        def two_tickers(**bbb):
            prices = {s.ticker: s for s in (make_sine_prices("AAA", days=160),
                                            make_sine_prices("BBB", days=160,
                                                             **bbb))}
            tweets = [t for s in prices.values() for t in make_tweets(s)]
            tok = build_vocab((t.text for t in tweets), max_size=64, max_len=8)
            return build_lag_windows(prices, tweets, lag=3, tokenizer=tok,
                                     graph=small_graph_spec)[0]

        sets = [(sine_dataset[0], (11, 1, 2), (8, 3, 3), (8, 3, 3)),
                (two_tickers(period=30.0), (12, 1, 3), (9, 4, 3), (9, 4, 3)),
                (two_tickers(base=90.0), None, (8, 2, 4), (8, 4, 2))]
        for windows, default, other, by_dates in sets:
            ordered = sorted(w.target_date for w in windows)
            ends = [ordered[len(ordered) // 2].isoformat(),
                    ordered[-4].isoformat()]
            for record, sizes in (({"fractions": [0.8, 0.1, 0.1]}, default),
                                  ({"fractions": [0.6, 0.25, 0.15]}, other),
                                  ({"dates": ends}, by_dates)):
                if sizes is None:
                    with pytest.raises(ContractError, match="sizes 10/0/4"):
                        split_windows(windows, record)
                else:
                    assert tuple(map(len, split_windows(windows, record))) == sizes
        # a val fraction of less than one window still takes one window
        assert tuple(map(len, split_windows(
            sine_dataset[0], {"fractions": [0.9, 0.05, 0.05]}))) == (12, 1, 1)

    @given(st.lists(st.tuples(st.integers(0, 9), st.sampled_from("ABC")),
                    min_size=1, max_size=30, unique=True),
           st.one_of(
               st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
                   lambda f: f[0] + f[1] < 10).map(
                   lambda f: {"fractions": [f[0] / 10, f[1] / 10,
                                            1 - (f[0] + f[1]) / 10]}),
               st.tuples(st.integers(0, 9), st.integers(1, 9)).map(
                   lambda e: {"dates": [dt.date(2022, 1, 3 + e[0]).isoformat(),
                                        dt.date(2022, 1, 4 + e[0] + e[1])
                                        .isoformat()]})))
    @settings(max_examples=300, deadline=None)
    def test_parts_partition_tied_dates(self, keys, split):
        windows = [SimpleNamespace(target_date=dt.date(2022, 1, 3 + day),
                                   ticker=ticker) for day, ticker in keys]
        try:
            parts = split_windows(windows, split)
        except ContractError as exc:
            assert "cannot populate" in str(exc)
            return
        assert sorted(map(id, windows)) == sorted(id(w) for p in parts for w in p)
        for early, late in zip(parts, parts[1:]):
            assert max(w.target_date for w in early) < min(
                w.target_date for w in late)
        if "dates" in split:
            train_end, val_end = map(dt.date.fromisoformat, split["dates"])
            assert all(w.target_date <= train_end for w in parts[0])
            assert all(w.target_date > val_end for w in parts[2])


class TestTruncateLag:
    def test_keeps_most_recent_days(self, sine_dataset):
        windows, _, _ = sine_dataset
        data = windows_to_arrays(windows)
        short = truncate_lag(data, 2)
        assert np.array_equal(short["macd"], data["macd"][:, -2:])
        assert np.array_equal(short["ids"], data["ids"][:, -2:])
        assert np.array_equal(short["images"], data["images"][:, -2:])
        assert np.array_equal(short["labels"], data["labels"])
        assert short["macd"].shape[1] == 2
        assert np.array_equal(short["macd"][0], windows[0].M[-2:])

    def test_invalid_target(self, sine_dataset):
        windows, _, _ = sine_dataset
        data = windows_to_arrays(windows[:3])
        with pytest.raises(ContractError):
            truncate_lag(data, 6)
        with pytest.raises(ContractError):
            truncate_lag(data, 0)
        assert truncate_lag(data, 5)["macd"].shape[1] == 5


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        save_dataset(windows, tmp_path / "ds", tokenizer=tok)
        back, manifest = load_dataset(tmp_path / "ds")
        assert back == windows
        assert manifest["lag"] == 5
        assert manifest["seq_len"] == tok.max_len
        assert manifest["image_shape"] == [3, 32, 32]
        assert manifest["count"] == len(windows)
        assert manifest["tokenizer"]["vocab"] == tok.vocab

    def test_save_is_byte_deterministic(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        for name in ("a", "b"):
            save_dataset(windows, tmp_path / name, tokenizer=tok)
        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        a = files(tmp_path / "a")
        assert a == files(tmp_path / "b")
        assert {"manifest.json", "windows.jsonl"} <= set(map(str, a))
        assert sum(p.parent.name == "graphs" for p in a) == 5 * len(windows)

    def test_corrupt_graph_detected(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        save_dataset(windows, tmp_path / "ds", tokenizer=tok)
        victim = next((tmp_path / "ds" / "graphs").iterdir())
        blob = bytearray(victim.read_bytes())
        blob[50] ^= 0x01
        victim.write_bytes(bytes(blob))
        with pytest.raises(DatasetFormatError):
            load_dataset(tmp_path / "ds")

    def test_bad_jsonl_line_reports_number(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        save_dataset(windows, tmp_path / "ds", tokenizer=tok)
        path = tmp_path / "ds" / "windows.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="windows.jsonl:2"):
            load_dataset(tmp_path / "ds")

    def test_version_mismatch(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        save_dataset(windows[:10], tmp_path / "ds", tokenizer=tok)
        mpath = tmp_path / "ds" / "manifest.json"
        manifest = json.loads(mpath.read_text())
        manifest["version"] = 99
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DatasetFormatError, match="version"):
            load_dataset(tmp_path / "ds")

    def test_count_mismatch(self, tmp_path, sine_dataset):
        windows, _, tok = sine_dataset
        save_dataset(windows[:10], tmp_path / "ds", tokenizer=tok)
        path = tmp_path / "ds" / "windows.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError, match="count"):
            load_dataset(tmp_path / "ds")

    def test_empty_dataset(self, tmp_path, sine_dataset):
        _, _, tok = sine_dataset
        save_dataset([], tmp_path / "ds", tokenizer=tok)
        back, manifest = load_dataset(tmp_path / "ds")
        assert back == [] and manifest["count"] == 0
        assert manifest["lag"] is None and manifest["seq_len"] == tok.max_len

    def test_normalization_from_training_head(self, tmp_path, sine_dataset):
        # fitted on exactly the training part of the recorded split
        windows, _, tok = sine_dataset
        for split in ({"fractions": [0.6, 0.2, 0.2]},
                      {"dates": [windows[6].target_date.isoformat(),
                                 windows[-3].target_date.isoformat()]}):
            save_dataset(windows, tmp_path / "ds", tokenizer=tok, split=split)
            _, manifest = load_dataset(tmp_path / "ds")
            assert manifest["split"] == split
            head = split_windows(windows, split)[0]
            stacked = np.concatenate([w.M for w in head], axis=0)
            assert np.allclose(manifest["normalization"]["mean"],
                               stacked.mean(axis=0), atol=1e-12)
            assert np.allclose(manifest["normalization"]["std"],
                               stacked.std(axis=0), atol=1e-12)
            normed = windows_to_arrays(head, manifest["normalization"])["macd"]
            assert np.max(np.abs(normed.reshape(-1, 5).mean(axis=0))) < 1e-9


class TestLagWindowValidation:
    def test_bad_m_shape(self, sine_dataset):
        windows, _, _ = sine_dataset
        w = windows[0]
        broken = LagWindow(w.ticker, w.target_date, w.lag, w.M[:, :4], w.X,
                           w.G, w.label)
        with pytest.raises(ContractError):
            broken.validate()

    def test_mismatched_lengths(self, sine_dataset):
        windows, _, _ = sine_dataset
        w = windows[0]
        broken = LagWindow(w.ticker, w.target_date, w.lag, w.M, w.X[:-1],
                           w.G, w.label)
        with pytest.raises(ContractError):
            broken.validate()
