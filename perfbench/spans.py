"""In-memory span tracing for the benchmark worker.

Spans are recorded from the benchmark's own files only: around the calls
the worker makes into each layer, and by interposing on public entry
points (the layer objects a ``MeantModel`` holds, and the module-level
functions the encoders, fusion and dataset modules call). Nothing in
``src/`` is edited; interposition happens in the traced process only.

A span is ``(name, start_ns, end_ns, parent, root)``: ``parent`` is the
index of the enclosing span, ``root`` the index of the outermost one (the
benchmark operation the span belongs to, such as one train step).
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, root]
        self.counts: dict[tuple[str, int], int] = defaultdict(int)
        self._stack: list[int] = []
        self.keys: dict[tuple[str, int], set] = defaultdict(set)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[self._stack[0]][4] if self._stack else len(self.spans)
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), 0, parent, root]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def _root(self) -> int:
        return self.spans[self._stack[0]][4] if self._stack else -1

    def add_key(self, name: str, key) -> None:
        """Record ``key`` in a per-root set (distinct-value counting)."""
        self.keys[(name, self._root())].add(key)

    def wrap(self, name: str, fn):
        """``fn`` with each call spanned and counted under ``name``."""
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self.counts[(name, self._root())] += 1
            return out
        traced.__wrapped__ = fn
        return traced

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds: each span's duration
        minus the time its direct children cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return dict(out)

    def _roots(self, root_names: tuple[str, ...]) -> list[int]:
        return [i for i, s in enumerate(self.spans)
                if s[3] < 0 and s[0] in root_names]

    def median_per_root(self, root_names: tuple[str, ...], name: str) -> float:
        """Median, over root spans named in ``root_names``, of the summed
        inclusive seconds of spans called ``name`` under each (0 if none)."""
        totals = dict.fromkeys(self._roots(root_names), 0.0)
        for span_name, start, end, _, root in self.spans:
            if span_name == name and root in totals:
                totals[root] += (end - start) / 1e9
        return statistics.median(totals.values()) if totals else 0.0

    def count_per_root(self, root_names: tuple[str, ...], name: str) -> int:
        """Median calls of ``name`` per root span."""
        roots = self._roots(root_names)
        return statistics.median_low(self.counts.get((name, r), 0) for r in roots) if roots else 0

    def keys_per_root(self, root_names: tuple[str, ...], name: str) -> int:
        """Median distinct keys recorded for ``name`` per root span."""
        roots = self._roots(root_names)
        return statistics.median_low(len(self.keys.get((name, r), ())) for r in roots) if roots else 0

    def write(self, path) -> None:
        """One JSON object per line: every span, then the self-time table."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, root in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "root": root}) + "\n")
            fh.write(json.dumps({"self_time_s": self.self_times()},
                                sort_keys=True) + "\n")


class _Proxy:
    """Stands in for a layer object: calls are spanned, every other
    attribute is the wrapped object's. A block proxy (``kind`` set) also
    keeps a copy of its first call's input for the backward replay."""

    def __init__(self, tracer: Tracer, name: str, target, kind: str | None = None):
        self.tracer = tracer
        self.name = name
        self.target = target
        self.kind = kind
        self.captured = None

    def __call__(self, x, *args, **kwargs):
        if self.kind is not None and self.captured is None:
            self.captured = (x.data.copy(), args, kwargs)
        with self.tracer.span(self.name):
            return self.target(x, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self.target, attr)


def instrument_model(tracer: Tracer, model) -> list[_Proxy]:
    """Replace the layer objects ``model`` holds with spanning proxies;
    returns the encoder block proxies."""
    if model.language is not None:
        blocks = model.language.blocks
        for i, block in enumerate(blocks):
            block.attn = _Proxy(tracer, "encoders.lang_attn", block.attn)
            block.ffn = _Proxy(tracer, "encoders.lang_ffn", block.ffn)
            blocks[i] = _Proxy(tracer, "encoders.lang_block", block, "lang")
        model.language = _Proxy(tracer, "encoders.language", model.language)
    if model.vision is not None:
        blocks = model.vision.blocks
        for i, block in enumerate(blocks):
            block.attn_t = _Proxy(tracer, "encoders.vision_attn_t", block.attn_t)
            block.attn_s = _Proxy(tracer, "encoders.vision_attn_s", block.attn_s)
            block.ffn = _Proxy(tracer, "encoders.vision_ffn", block.ffn)
            blocks[i] = _Proxy(tracer, "encoders.vision_block", block, "vision")
        model.vision = _Proxy(tracer, "encoders.vision", model.vision)
    if model.pool is not None:
        model.pool = _Proxy(tracer, "fusion.pool", model.pool)
    if model.image_proj is not None:
        model.image_proj = _Proxy(tracer, "fusion.image_proj", model.image_proj)
    if model.temporal is not None:
        model.temporal = _Proxy(tracer, "fusion.temporal", model.temporal)
    model.head = _Proxy(tracer, "fusion.head", model.head)
    blocks = []
    for pipeline in (model.language, model.vision):
        if pipeline is not None:
            blocks += pipeline.blocks
    return blocks


def instrument_modules(tracer: Tracer) -> None:
    """Span the module-level functions the program's layers call.

    Patches the names as the calling modules imported them, so the
    definitions stay untouched.
    """
    from meant import dataset, encoders, fusion

    for name, span in (("token_embed", "embeddings.token_embed"),
                       ("patch_embed", "embeddings.patch_embed"),
                       ("apply_xpos", "embeddings.xpos"),
                       ("apply_rotary", "embeddings.rotary"),
                       ("apply_axial_rotary_2d", "embeddings.axial_rotary")):
        setattr(encoders, name, tracer.wrap(span, getattr(encoders, name)))
    fusion.mean_pool = tracer.wrap("fusion.pool", fusion.mean_pool)

    for name, span in (("compute_macd", "indicators.compute_macd"),
                       ("tokenize", "tokenizer.tokenize"),
                       ("render_macd_graph", "graphs.render"),
                       ("decode_graph_blob", "graphs.decode")):
        setattr(dataset, name, tracer.wrap(span, getattr(dataset, name)))

    encode = tracer.wrap("graphs.encode", dataset.encode_graph_blob)

    def encode_graph_blob(img):
        blob = encode(img)
        # the footer is the blob's CRC32; with the length it keys distinct charts
        tracer.add_key("graphs.encode", (len(blob), blob[-4:]))
        return blob

    dataset.encode_graph_blob = encode_graph_blob
