"""EMA/MACD math and the signal-cross labeling rule.

All series math is plain float64 numpy; these are pure functions used both
by the dataset builder and by test oracles that re-derive labels.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractError, NumericError


class CrossSignal(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"
    NONE = "none"


@dataclass(frozen=True)
class PriceSeries:
    ticker: str
    dates: tuple[dt.date, ...]
    closes: tuple[float, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.closes):
            raise ContractError("dates and closes must have equal length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ContractError(
                f"{self.ticker}: dates must be strictly increasing")
        closes = np.asarray(self.closes, dtype=np.float64)
        if closes.size and (not np.isfinite(closes).all() or (closes <= 0).any()):
            raise ContractError(f"{self.ticker}: closes must be finite and > 0")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class IndicatorSeries:
    """Per-day EMA12/EMA26, MACD line m, signal s and histogram h."""

    dates: tuple[dt.date, ...]
    ema12: np.ndarray
    ema26: np.ndarray
    m: np.ndarray
    s: np.ndarray
    h: np.ndarray

    def __len__(self) -> int:
        return len(self.dates)


def ema(values, period: int) -> np.ndarray:
    """Exponential moving average seeded with the first sample, with the
    conventional fixed alpha = 2 / (period + 1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("ema input must be non-empty")
    if not np.isfinite(values).all():
        raise NumericError("ema input contains non-finite values")
    if period < 1:
        raise ContractError(f"period must be >= 1, got {period}")
    out = np.empty_like(values)
    out[0] = values[0]
    alpha = 2.0 / (period + 1.0)
    for i in range(1, values.size):
        out[i] = (1.0 - alpha) * out[i - 1] + alpha * values[i]
    return out


def compute_macd(prices: PriceSeries, fast: int = 12, slow: int = 26,
                 signal_period: int = 9) -> IndicatorSeries:
    closes = np.asarray(prices.closes, dtype=np.float64)
    ema_fast = ema(closes, fast)
    ema_slow = ema(closes, slow)
    m = ema_fast - ema_slow
    s = ema(m, signal_period)
    return IndicatorSeries(dates=prices.dates, ema12=ema_fast, ema26=ema_slow,
                           m=m, s=s, h=m - s)


def classify_crossover(ind: IndicatorSeries, t: int) -> CrossSignal:
    """Signal-cross rule at day ``t``: compare m vs s on days t-1 and t.

    Equality on either day is a non-event (NONE).
    """
    if t < 1 or t >= len(ind):
        raise IndexError(f"day {t} out of range for series of length {len(ind)}")
    prev_below = ind.m[t - 1] < ind.s[t - 1]
    prev_above = ind.m[t - 1] > ind.s[t - 1]
    now_above = ind.m[t] > ind.s[t]
    now_below = ind.m[t] < ind.s[t]
    if prev_below and now_above:
        return CrossSignal.POSITIVE
    if prev_above and now_below:
        return CrossSignal.NEGATIVE
    return CrossSignal.NONE


def macd_vector(ind: IndicatorSeries, day: int) -> np.ndarray:
    """The 5-vector [EMA12, EMA26, s, h, m] for one day."""
    if day < 0 or day >= len(ind):
        raise IndexError(f"day {day} out of range for series of length {len(ind)}")
    return np.array([ind.ema12[day], ind.ema26[day],
                     ind.s[day], ind.h[day], ind.m[day]], dtype=np.float64)


def load_prices_csv(path) -> dict[str, PriceSeries]:
    """Read a ``ticker,date,close`` CSV into per-ticker series."""
    rows: dict[str, list[tuple[dt.date, float]]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ContractError(f"{path}: {exc}") from exc
    reader = csv.DictReader(lines)
    required = {"ticker", "date", "close"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise ContractError(
            f"{path}: expected header with columns {sorted(required)}")
    for lineno, row in enumerate(reader, start=2):
        try:
            date = dt.date.fromisoformat(row["date"])
            close = float(row["close"])
        except (ValueError, TypeError) as exc:
            raise ContractError(f"{path}:{lineno}: bad row: {exc}") from exc
        rows.setdefault(row["ticker"], []).append((date, close))
    out = {}
    for ticker, entries in rows.items():
        entries.sort(key=lambda e: e[0])
        out[ticker] = PriceSeries(
            ticker=ticker,
            dates=tuple(d for d, _ in entries),
            closes=tuple(c for _, c in entries))
    return out
