"""Seeded benchmark inputs: a ``prices.csv`` and a ``tweets.jsonl``.

Everything is drawn from one ``numpy`` generator seeded by the workload
seed, so one seed always gives byte-identical files.

Prices: per ticker the seed picks a sine period and phase; each day's
return follows the sign of the sine's slope with a magnitude of at least
0.6%, so the stocknet movement filter (which drops -0.5% < r <= 0.55%)
never discards a window and the window count depends only on the number
of days. That keeps dataset size and memory comparable across seeds.

Tweets: the seed deals each ticker one of a fixed ladder of mean daily
tweet counts, so the total tweet volume (and the tokenizer's work) does
not drift with the seed while tickers still differ; words
come from a synthetic lexicon of ``LEXICON_SIZE`` words with a flattened
Zipf law, so a 4096-entry vocabulary fills and rarer words map to UNK.
Day texts run from a few tokens to well past 128, where they are
truncated, so the pad mask sees both short and full rows.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

import numpy as np

LEXICON_SIZE = 6000
ZIPF_OFFSET = 200          # flattens the head of the word distribution
MIN_ABS_RETURN = 0.006     # above the stocknet discard band on both sides
START = dt.date(2021, 1, 4)

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vo", "zi", "pe", "du",
              "sa", "go", "fi", "he", "jo", "bu")


def lexicon(size: int = LEXICON_SIZE) -> list[str]:
    """``size`` distinct lowercase words, three syllables each (4096 max
    from 16 syllables) plus a numbered tail."""
    words = []
    n = len(_SYLLABLES)
    for i in range(size):
        a, b, c = i % n, (i // n) % n, (i // (n * n)) % n
        word = _SYLLABLES[a] + _SYLLABLES[b] + _SYLLABLES[c]
        words.append(word if i < n ** 3 else f"{word}{i // n ** 3}")
    return words


def weekdays(start: dt.date, count: int) -> list[dt.date]:
    out, day = [], start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return out


def ticker_prices(rng: np.random.Generator, days: int) -> np.ndarray:
    period = rng.uniform(20.0, 50.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    t = np.arange(1, days)
    slope = np.cos(2.0 * np.pi * t / period + phase)
    size = MIN_ABS_RETURN + 0.02 * np.abs(slope) * rng.uniform(0.5, 1.0, days - 1)
    returns = np.where(slope >= 0.0, size, -size)
    closes = rng.uniform(50.0, 150.0) * np.cumprod(np.concatenate([[1.0], 1.0 + returns]))
    return closes


def write_inputs(out_dir, seed: int, tickers: int, days: int,
                 tweets_per_day: tuple[float, float]) -> None:
    """Write ``prices.csv`` and ``tweets.jsonl`` under ``out_dir``.

    ``tweets_per_day`` gives the lowest and highest rung of the ladder of
    per-ticker mean daily tweet counts; the count on a day is that mean's
    Poisson draw, never below one.
    """
    rng = np.random.default_rng(seed)
    words = lexicon()
    weights = 1.0 / (np.arange(len(words)) + ZIPF_OFFSET)
    weights /= weights.sum()
    order = rng.permutation(len(words))
    dates = weekdays(START, days)
    names = [f"T{i:02d}" for i in range(tickers)]
    rates = rng.permutation(np.linspace(*tweets_per_day, tickers))

    price_rows = ["ticker,date,close"]
    tweet_rows = []
    for name, mean_tweets in zip(names, rates):
        closes = ticker_prices(rng, days)
        price_rows += [f"{name},{d.isoformat()},{c:.6f}"
                       for d, c in zip(dates, closes)]
        counts = np.maximum(1, rng.poisson(mean_tweets, size=days))
        for d, count in zip(dates, counts):
            for _ in range(count):
                length = int(rng.integers(3, 31))
                picks = order[rng.choice(len(words), size=length, p=weights)]
                text = f"{name.lower()} " + " ".join(words[i] for i in picks)
                tweet_rows.append(json.dumps({"ticker": name,
                                              "date": d.isoformat(),
                                              "text": text}))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "prices.csv").write_text("\n".join(price_rows) + "\n", "utf-8")
    (out / "tweets.jsonl").write_text("\n".join(tweet_rows) + "\n", "utf-8")
