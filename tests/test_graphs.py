import struct

import numpy as np
import pytest

from meant.errors import ContractError, DatasetFormatError
from meant.graphs import (HIST_NEG_COLOR, HIST_POS_COLOR, MACD_COLOR,
                          SIGNAL_COLOR, GraphSpec, decode_graph_blob,
                          encode_graph_blob, render_macd_graph, write_ppm)
from meant.indicators import compute_macd
from meant.synthetic import make_sine_prices


def flat_indicators(days=40):
    return compute_macd(make_sine_prices(days=days, amplitude=0.0))


class TestRender:
    def test_shape_and_range(self, sine_indicators, small_graph_spec):
        img = render_macd_graph(sine_indicators, 60, small_graph_spec)
        assert img.shape == (3, 32, 32)
        assert img.dtype == np.float64
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_flat_series_draws_midline_only(self, small_graph_spec):
        # constant prices: m == s == h == 0, degenerate span maps the
        # zero level to the vertical midline and suppresses every bar
        img = render_macd_graph(flat_indicators(), 39, small_graph_spec)
        mid = small_graph_spec.height // 2
        drawn_rows = np.unique(np.argwhere(img.min(axis=0) < 1.0)[:, 0])
        assert drawn_rows.size == 1
        assert abs(int(drawn_rows[0]) - mid) <= 1

    def test_byte_determinism(self, sine_indicators, small_graph_spec):
        a = render_macd_graph(sine_indicators, 80, small_graph_spec)
        b = render_macd_graph(sine_indicators, 80, small_graph_spec)
        assert encode_graph_blob(a) == encode_graph_blob(b)

    def test_different_windows_differ(self, sine_indicators, small_graph_spec):
        a = render_macd_graph(sine_indicators, 60, small_graph_spec)
        b = render_macd_graph(sine_indicators, 75, small_graph_spec)
        assert not np.array_equal(a, b)

    def test_macd_drawn_over_signal(self, sine_indicators, small_graph_spec):
        img = render_macd_graph(sine_indicators, 60, small_graph_spec)
        macd = np.asarray(MACD_COLOR)
        mask = np.all(img == macd[:, None, None], axis=0)
        assert mask.any()
        sig = np.asarray(SIGNAL_COLOR)
        assert np.all(img == sig[:, None, None], axis=0).any()

    def test_histogram_bars_present(self, sine_indicators, small_graph_spec):
        img = render_macd_graph(sine_indicators, 60, small_graph_spec)
        for color in (HIST_POS_COLOR, HIST_NEG_COLOR):
            c = np.asarray(color)[:, None, None]
            present = np.all(img == c, axis=0).any()
            if present:
                return
        pytest.fail("no histogram bar pixels found")

    def test_insufficient_history_rejected(self, sine_indicators,
                                           small_graph_spec):
        with pytest.raises(ContractError):
            render_macd_graph(sine_indicators, small_graph_spec.window_days - 2,
                              small_graph_spec)
        with pytest.raises(ContractError):
            render_macd_graph(sine_indicators, len(sine_indicators),
                              small_graph_spec)

    @pytest.mark.parametrize("size,crc", [(32, 0x56a68650),
                                          (224, 0x6f4e967f)])
    def test_chart_bytes_pinned(self, sine_indicators, size, crc):
        # the stored CRC footer covers every header and pixel byte, so it
        # pins the palette, margins and rasterization; zlib.crc32 of a whole
        # blob would always be the CRC-32 residue
        spec = GraphSpec(window_days=26, width=size, height=size)
        blob = encode_graph_blob(render_macd_graph(sine_indicators, 60, spec))
        assert struct.unpack("<I", blob[-4:])[0] == crc

    def test_default_spec_is_224(self):
        spec = GraphSpec()
        assert (spec.width, spec.height, spec.window_days) == (224, 224, 26)

    def test_too_small_spec_rejected(self):
        with pytest.raises(ContractError):
            GraphSpec(width=16)
        with pytest.raises(ContractError):
            GraphSpec(window_days=1)


class TestBlob:
    def test_round_trip_after_f32_quantization(self, sine_indicators,
                                               small_graph_spec):
        img = render_macd_graph(sine_indicators, 60, small_graph_spec)
        # quantize once, the way the dataset builder does; after that the
        # trip through the f32 on-disk payload is bitwise lossless
        img = img.astype("<f4").astype(np.float64)
        back = decode_graph_blob(encode_graph_blob(img))
        assert np.array_equal(back, img)

    def test_corrupted_byte_detected(self, sine_indicators, small_graph_spec):
        blob = bytearray(encode_graph_blob(
            render_macd_graph(sine_indicators, 60, small_graph_spec)))
        blob[100] ^= 0xFF
        with pytest.raises(DatasetFormatError, match="checksum"):
            decode_graph_blob(bytes(blob))

    def test_bad_magic(self):
        with pytest.raises(DatasetFormatError, match="magic"):
            decode_graph_blob(b"XXXX" + b"\x00" * 16)

    def test_truncation(self, sine_indicators, small_graph_spec):
        blob = encode_graph_blob(
            render_macd_graph(sine_indicators, 60, small_graph_spec))
        with pytest.raises(DatasetFormatError):
            decode_graph_blob(blob[:-5])
        with pytest.raises(DatasetFormatError):
            decode_graph_blob(blob[:10])


class TestPpm:
    def test_header_and_size(self, tmp_path, sine_indicators,
                             small_graph_spec):
        img = render_macd_graph(sine_indicators, 60, small_graph_spec)
        path = tmp_path / "g.ppm"
        write_ppm(img, path)
        data = path.read_bytes()
        assert data.startswith(b"P6\n32 32\n255\n")
        assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3

    def test_white_background_pixels(self, tmp_path, small_graph_spec):
        img = render_macd_graph(flat_indicators(), 39, small_graph_spec)
        path = tmp_path / "flat.ppm"
        write_ppm(img, path)
        body = path.read_bytes().split(b"\n", 3)[3]
        assert body[:3] == b"\xff\xff\xff"  # top-left corner untouched
