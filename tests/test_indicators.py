import datetime as dt
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meant.errors import ContractError
from meant.indicators import (CrossSignal, IndicatorSeries, PriceSeries,
                              classify_crossover, compute_macd, ema,
                              load_prices_csv, macd_vector)


def ema_direct_sum(values, period):
    """Brute-force expansion of the EMA recurrence."""
    alpha = 2.0 / (period + 1.0)
    out = np.empty(len(values))
    for i in range(len(values)):
        acc = (1.0 - alpha) ** i * values[0]
        for j in range(1, i + 1):
            acc += alpha * (1.0 - alpha) ** (i - j) * values[j]
        out[i] = acc
    return out


def make_series(closes, ticker="T"):
    start = dt.date(2023, 1, 2)
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(closes)))
    return PriceSeries(ticker=ticker, dates=dates, closes=tuple(closes))


class TestEma:
    def test_constant_fixed_point(self):
        assert np.array_equal(ema([5.0] * 10, 7), [5.0] * 10)

    def test_hand_expansion(self):
        out = ema([1.0, 2.0, 3.0], 2)
        assert np.allclose(out, [1.0, 5.0 / 3.0, 23.0 / 9.0], atol=1e-15)

    def test_vs_direct_sum_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(50, 150, size=200)
        for period in (2, 9, 12, 26):
            got = ema(values, period)
            want = ema_direct_sum(values, period)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            ema([], 5)

    def test_nonfinite_rejected(self):
        from meant.errors import NumericError
        with pytest.raises(NumericError):
            ema([1.0, np.inf], 5)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.floats(-10, 10), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_shift_equivariance(self, values, c, period):
        base = ema(values, period)
        shifted = ema(np.asarray(values) + c, period)
        assert np.max(np.abs(shifted - (base + c))) < 1e-11

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
           st.floats(-5, 5), st.integers(1, 20))
    @settings(max_examples=50, deadline=None)
    def test_scale_equivariance(self, values, k, period):
        base = ema(values, period)
        scaled = ema(k * np.asarray(values), period)
        assert np.max(np.abs(scaled - k * base)) <= 1e-12 * max(1.0, abs(k)) * 100


class TestComputeMacd:
    def test_constant_prices(self):
        ind = compute_macd(make_series([100.0] * 40))
        assert np.array_equal(ind.m, np.zeros(40))
        assert np.array_equal(ind.s, np.zeros(40))
        assert np.array_equal(ind.h, np.zeros(40))

    def test_linear_ramp_positive_macd(self):
        ind = compute_macd(make_series([float(i) + 1 for i in range(60)]))
        assert np.all(ind.m[30:] > 0)

    def test_two_point_hand_arithmetic(self):
        ind = compute_macd(make_series([100.0, 110.0]))
        assert ind.ema12[1] == pytest.approx(100 + (2 / 13) * 10, abs=1e-12)
        assert ind.ema26[1] == pytest.approx(100 + (2 / 27) * 10, abs=1e-12)
        assert ind.m[1] == pytest.approx(10 * (2 / 13 - 2 / 27), abs=1e-12)

    def test_identities_exact(self, sine_indicators):
        ind = sine_indicators
        assert np.array_equal(ind.m, ind.ema12 - ind.ema26)
        assert np.array_equal(ind.h, ind.m - ind.s)


def synth_indicators(m_prev, s_prev, m_now, s_now):
    dates = (dt.date(2023, 1, 2), dt.date(2023, 1, 3))
    zeros = np.zeros(2)
    return IndicatorSeries(dates=dates, ema12=zeros, ema26=zeros,
                           m=np.array([m_prev, m_now]),
                           s=np.array([s_prev, s_now]),
                           h=np.array([m_prev - s_prev, m_now - s_now]))


class TestClassifyCrossover:
    def test_positive_example(self):
        ind = synth_indicators(-0.5, 0.1, 0.2, 0.1)
        assert classify_crossover(ind, 1) is CrossSignal.POSITIVE

    def test_negative_example(self):
        ind = synth_indicators(0.5, 0.1, 0.0, 0.1)
        assert classify_crossover(ind, 1) is CrossSignal.NEGATIVE

    def test_no_cross(self):
        ind = synth_indicators(0.5, 0.1, 0.6, 0.1)
        assert classify_crossover(ind, 1) is CrossSignal.NONE

    def test_out_of_range(self, sine_indicators):
        with pytest.raises(IndexError):
            classify_crossover(sine_indicators, 0)
        with pytest.raises(IndexError):
            classify_crossover(sine_indicators, len(sine_indicators))

    def test_truth_table_exhaustive(self):
        # every sign pattern of (m - s) at t-1 and t, including equalities
        deltas = (-1.0, 0.0, 1.0)
        for d_prev, d_now in itertools.product(deltas, repeat=2):
            for s_prev, s_now in ((0.0, 0.0), (0.3, -0.2)):
                ind = synth_indicators(s_prev + d_prev, s_prev,
                                       s_now + d_now, s_now)
                got = classify_crossover(ind, 1)
                if d_prev < 0 and d_now > 0:
                    want = CrossSignal.POSITIVE
                elif d_prev > 0 and d_now < 0:
                    want = CrossSignal.NEGATIVE
                else:
                    want = CrossSignal.NONE
                assert got is want, (d_prev, d_now)

    def test_sinusoid_has_both_signals(self, sine_indicators):
        signals = {classify_crossover(sine_indicators, t)
                   for t in range(1, len(sine_indicators))}
        assert CrossSignal.POSITIVE in signals
        assert CrossSignal.NEGATIVE in signals


class TestMacdVector:
    def test_constant_day(self):
        ind = compute_macd(make_series([42.0] * 30))
        assert np.array_equal(macd_vector(ind, 10), [42.0, 42.0, 0.0, 0.0, 0.0])

    def test_matches_compute_macd(self):
        ind = compute_macd(make_series([1.0, 2.0, 3.0]), fast=2, slow=2,
                           signal_period=2)
        vec = macd_vector(ind, 2)
        assert vec[0] == ind.ema12[2]
        assert vec[1] == ind.ema26[2]
        assert vec[2] == ind.s[2]
        assert vec[3] == ind.h[2]
        assert vec[4] == ind.m[2]

    def test_length_is_five(self, sine_indicators):
        assert macd_vector(sine_indicators, 50).shape == (5,)

    def test_out_of_range(self, sine_indicators):
        with pytest.raises(IndexError):
            macd_vector(sine_indicators, len(sine_indicators))


class TestPriceSeries:
    def test_rejects_unsorted_dates(self):
        d = dt.date(2023, 1, 2)
        with pytest.raises(ContractError):
            PriceSeries("T", (d, d), (1.0, 2.0))

    def test_rejects_nonpositive_close(self):
        d = dt.date(2023, 1, 2)
        with pytest.raises(ContractError):
            PriceSeries("T", (d,), (0.0,))


class TestLoadPricesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("ticker,date,close\nAAA,2023-01-03,10.5\n"
                        "AAA,2023-01-02,10.0\nBBB,2023-01-02,5.0\n")
        series = load_prices_csv(path)
        assert set(series) == {"AAA", "BBB"}
        assert series["AAA"].closes == (10.0, 10.5)  # sorted by date

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("ticker,date,close\nAAA,notadate,10.0\n")
        with pytest.raises(ContractError, match=":2"):
            load_prices_csv(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ContractError):
            load_prices_csv(path)


def test_indicator_oracle_bulk_runtime():
    rng = np.random.default_rng(11)
    start = time.monotonic()
    for _ in range(10):
        closes = rng.uniform(50, 150, size=200)
        ind = compute_macd(make_series(closes))
        want_fast = ema_direct_sum(closes, 12)
        assert np.max(np.abs(ind.ema12 - want_fast) / np.abs(want_fast)) < 1e-9
    assert time.monotonic() - start < 5.0
