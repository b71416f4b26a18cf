"""``scripts/bench_pairs.py``'s reduction of paired runs."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "step_s", "unit": "s", "better": "lower"},
         {"name": "rate", "unit": "1/s", "better": "higher"},
         {"name": "rare", "unit": "B", "better": "lower"}]


def pair(base: dict, change: dict) -> dict:
    return {"base": {"metrics": base}, "change": {"metrics": change}}


def test_spread_is_inclusive_quartiles():
    assert bench_pairs.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_wins_follow_the_better_direction():
    pairs = [pair({"step_s": b, "rate": b}, {"step_s": c, "rate": c})
             for b, c in [(1.0, 0.5), (1.0, 0.6), (1.0, 2.0), (1.0, 1.0)]]
    out = bench_pairs.reduce(pairs, SPECS)
    # one tie counts for neither side
    assert out["step_s"]["change_wins"] == 2
    assert out["rate"]["change_wins"] == 1
    assert out["step_s"]["pairs"] == out["rate"]["pairs"] == 4
    assert out["rate"]["better"] == "higher" and out["rate"]["unit"] == "1/s"


@pytest.mark.parametrize("better, change, beyond", [
    ("lower", [1.0, 1.1, 1.2], True),      # median 1.1 < base q1 1.5
    ("lower", [1.5, 1.6, 1.7], False),     # median 1.6 is inside the base IQR
    ("higher", [3.0, 3.1, 3.2], True),     # median 3.1 > base q3 2.5
    ("higher", [2.4, 2.5, 2.6], False),    # median 2.5 is not beyond q3 2.5
])
def test_beyond_iqr_flag(better, change, beyond):
    base = [1.0, 2.0, 3.0]                 # q1 1.5, median 2.0, q3 2.5
    pairs = [pair({"m": b}, {"m": c}) for b, c in zip(base, change)]
    out = bench_pairs.reduce(pairs, [{"name": "m", "unit": "s", "better": better}])
    assert out["m"]["change_median_beyond_base_iqr"] is beyond
    assert out["m"]["base"] == {"median": 2.0, "q1": 1.5, "q3": 2.5}
    assert out["m"]["median_change_pct"] == pytest.approx(
        100.0 * (change[1] - 2.0) / 2.0)


def test_pair_with_a_crashed_run_is_left_out():
    pairs = [pair({"step_s": 1.0}, {"step_s": 0.5}),
             pair({"step_s": 1.0}, {"step_s": 0.6}),
             pair({"step_s": 1.0}, {}),
             pair({}, {"step_s": 9.0})]
    out = bench_pairs.reduce(pairs, SPECS)
    assert out["step_s"]["pairs"] == 2
    assert out["step_s"]["change_wins"] == 2
    assert out["step_s"]["change"]["median"] == pytest.approx(0.55)


def test_metric_with_fewer_than_two_pairs_is_skipped():
    pairs = [pair({"step_s": 1.0, "rare": 5.0}, {"step_s": 0.5, "rare": 4.0}),
             pair({"step_s": 1.0}, {"step_s": 0.6})]
    out = bench_pairs.reduce(pairs, SPECS)
    assert set(out) == {"step_s"}


@pytest.mark.parametrize("better, change, iqr, spread_ok, worse", [
    # base median 2.0, bound 0.25; with three runs the IQR is half the range
    ("lower", [1.9, 2.0, 2.1], 0.05, True, False),
    ("lower", [2.0, 2.6, 3.2], 0.3, False, True),    # slower by 30%
    ("lower", [1.0, 1.5, 2.0], 0.25, True, False),   # faster, spread at the bound
    ("higher", [1.4, 1.45, 1.5], 0.025, True, True), # lower rate by 27.5%
    ("higher", [2.0, 2.5, 3.2], 0.3, False, False),  # higher rate, wide
])
def test_bound_fields(better, change, iqr, spread_ok, worse):
    base = [1.9, 2.0, 2.1]
    pairs = [pair({"m": b}, {"m": c}) for b, c in zip(base, change)]
    spec = {"name": "m", "unit": "s", "better": better, "bound": 0.25}
    row = bench_pairs.reduce(pairs, [spec])["m"]
    assert row["change_iqr_of_base_median"] == pytest.approx(iqr)
    assert row["change_iqr_within_bound"] is spread_ok
    assert row["change_median_worse_beyond_bound"] is worse


def test_no_bound_fields_without_a_bound():
    pairs = [pair({"m": b}, {"m": b}) for b in (1.0, 2.0)]
    row = bench_pairs.reduce(pairs, [{"name": "m", "unit": "s",
                                      "better": "lower"}])["m"]
    assert not any("bound" in key for key in row)
