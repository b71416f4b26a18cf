"""Deterministic rasterization of MACD/signal charts into float images.

No plotting library is involved: integer Bresenham lines and filled bars
over a white background, so identical inputs always produce bit-identical
buffers. Images are channels-first float arrays in [0, 1].
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .indicators import IndicatorSeries
from .sealed import Reader, seal

_MAGIC = b"MGPH"

CHANNELS = 3            # RGB
MARGIN_FRACTION = 0.05  # of the value span, left blank above and below
MACD_COLOR = (0.0, 0.0, 1.0)
SIGNAL_COLOR = (1.0, 0.0, 0.0)
HIST_POS_COLOR = (0.0, 0.6, 0.0)
HIST_NEG_COLOR = (0.6, 0.0, 0.6)


@dataclass(frozen=True)
class GraphSpec:
    window_days: int = 26
    width: int = 224
    height: int = 224

    def __post_init__(self):
        if self.width < 32 or self.height < 32:
            raise ContractError("graph width and height must be >= 32")
        if self.window_days < 2:
            raise ContractError("window_days must be >= 2")


def _draw_line(img: np.ndarray, x0: int, y0: int, x1: int, y1: int,
               color) -> None:
    """1-pixel Bresenham segment, clipped to the image."""
    h, w = img.shape[1], img.shape[2]
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            img[:, y, x] = color
        if x == x1 and y == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def render_macd_graph(ind: IndicatorSeries, end_day: int,
                      spec: GraphSpec) -> np.ndarray:
    """Rasterize the last ``window_days`` of m/s/h ending at ``end_day``."""
    n = spec.window_days
    if end_day < n - 1 or end_day >= len(ind):
        raise ContractError(
            f"end_day {end_day} needs {n} days of history within "
            f"series of length {len(ind)}")
    lo = end_day - n + 1
    m = ind.m[lo:end_day + 1]
    s = ind.s[lo:end_day + 1]
    h = ind.h[lo:end_day + 1]

    vmin = float(min(m.min(), s.min(), h.min(), 0.0))
    vmax = float(max(m.max(), s.max(), h.max(), 0.0))
    span = vmax - vmin
    if span <= 0.0:
        vmin, vmax = vmin - 1.0, vmax + 1.0
        span = 2.0
    pad = span * MARGIN_FRACTION
    vmin -= pad
    vmax += pad
    span = vmax - vmin

    img = np.ones((CHANNELS, spec.height, spec.width), dtype=np.float64)

    xpad = max(1, spec.width // 32)
    usable_w = spec.width - 2 * xpad

    def to_x(i: int) -> int:
        return xpad + (i * (usable_w - 1)) // (n - 1)

    def to_y(v: float) -> int:
        frac = (v - vmin) / span
        return int(round((spec.height - 1) * (1.0 - frac)))

    zero_y = to_y(0.0)
    bar_half = max(1, (usable_w // (n - 1)) // 3)

    # Histogram bars first so the polylines draw on top of them.
    for i, hv in enumerate(h):
        y = to_y(float(hv))
        if y == zero_y:
            continue
        color = HIST_POS_COLOR if hv > 0 else HIST_NEG_COLOR
        x = to_x(i)
        y0, y1 = sorted((zero_y, y))
        x0 = max(0, x - bar_half)
        x1 = min(spec.width - 1, x + bar_half)
        img[:, y0:y1 + 1, x0:x1 + 1] = np.asarray(color)[:, None, None]

    for series, color in ((s, SIGNAL_COLOR), (m, MACD_COLOR)):
        pts = [(to_x(i), to_y(float(v))) for i, v in enumerate(series)]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            _draw_line(img, x0, y0, x1, y1, color)

    return img


# -- persistence -------------------------------------------------------


def encode_graph_blob(img: np.ndarray) -> bytes:
    """Sealed MGPH blob: ``<III`` shape, then the f32 little-endian pixels."""
    return seal(_MAGIC, struct.pack("<III", *img.shape)
                + img.astype("<f4").tobytes())


def decode_graph_blob(blob: bytes) -> np.ndarray:
    r = Reader(blob, _MAGIC, "graph blob")
    c, h, w = r.unpack("<III")
    data = np.frombuffer(r.take(4 * c * h * w), dtype="<f4")
    r.done()
    return data.astype(np.float64).reshape(c, h, w)


def write_ppm(img: np.ndarray, path) -> None:
    """Export an RGB chart as a binary P6 PPM."""
    _, h, w = img.shape
    pixels = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    body = pixels.transpose(1, 2, 0).tobytes()
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(body)
