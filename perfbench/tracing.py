"""In-memory span tracing around the package's layer functions.

The tracer wraps module attributes of the imported ``oomscene`` package for
the duration of a traced round and restores them afterwards.  Every wrapped
call records one span: name, start, end, parent span and operation id, plus
optional counts taken from the call's arguments and result.  A target that no
longer exists is skipped, so its time falls to the enclosing span.

Per-layer metrics are derived from the spans once the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("ingest", "occurrence", "descriptor_hard", "descriptor_soft",
          "topics", "ensemble", "bundle")


def _count_parse(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text),
            "items": sum(len(r.detections) for r in result.records)}


def _count_posterior(args, kwargs, result):
    return {"fallback_cells": int(result.fallback_mask.sum())}


def _count_hard_encode(args, kwargs, result):
    return {"images": result.shape[0], "nnz": int(np.count_nonzero(result)),
            "cells": result.size}


def _count_soft_encode(args, kwargs, result):
    manifest = args[0] if args else kwargs["manifest"]
    return {"images": result.shape[0],
            "patches": sum(len(r.detections) for r in manifest.records)}


def _count_kmeans(args, kwargs, result):
    return {"iterations": result.iterations_run}


def _count_binary(args, kwargs, result):
    positives, negatives, cfg = args[:3]
    return {"fits": 1, "steps": cfg.epochs * (len(positives) + len(negatives))}


def _count_save(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counter).  When the module no longer has the
# attribute, the first oomscene module that does is used instead.
TARGETS = (
    ("oomscene.ingest", "parse_manifest_text", "ingest.parse", _count_parse),
    ("oomscene.occurrence", "build_occurrence_model", "occurrence.build", None),
    ("oomscene.occurrence", "build_posterior_model", "occurrence.posterior",
     _count_posterior),
    ("oomscene.occurrence", "select_objects", "occurrence.select", None),
    ("oomscene.descriptor_hard", "encode_hard_manifest", "descriptor_hard.encode",
     _count_hard_encode),
    ("oomscene.descriptor_soft", "training_patch_samples", "descriptor_soft.samples",
     None),
    ("oomscene.descriptor_soft", "fit_pca", "descriptor_soft.pca", None),
    ("oomscene.descriptor_soft", "fit_codebook", "descriptor_soft.codebook", None),
    ("oomscene.descriptor_soft", "encode_soft_manifest", "descriptor_soft.encode",
     _count_soft_encode),
    ("oomscene.topics", "fit_topics", "topics.fit", _count_kmeans),
    ("oomscene.topics", "assign_topics_batch", "topics.assign", None),
    ("oomscene.ensemble", "train_ensemble", "ensemble.fit", None),
    ("oomscene.ensemble", "cross_validate", "ensemble.cv", None),
    ("oomscene.ensemble", "train_binary", "ensemble.binary", _count_binary),
    ("oomscene.ensemble", "predict_batch", "ensemble.predict", None),
    ("oomscene.bundle", "save_bundle", "bundle.save", _count_save),
    ("oomscene.bundle", "load_bundle", "bundle.load", None),
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: int
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; holds them in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.round_of: dict[int, int] = {}  # operation id -> round id
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def begin_op(self, op_id: int, round_id: int) -> None:
        self._op = op_id
        self.round_of[op_id] = round_id

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self) -> tuple[int, int | None]:
        span_id = len(self.spans) + len(self._stack)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, counts) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self._op, counts))

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = tracer._open()
            start = time.perf_counter()
            counts = {}
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    try:
                        counts = counter(args, kwargs, result)
                    except Exception:  # counts are best effort; never fail the call
                        counts = {}
                return result
            finally:
                tracer._close(span_id, parent, name, start, counts)

        return traced

    def install(self) -> None:
        """Replace every reference to a target function in loaded oomscene modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "oomscene" or n.startswith("oomscene."))]
        for mod_name, attr, span_name, counter in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                fn = next((getattr(m, attr) for m in modules if hasattr(m, attr)), None)
            if fn is None or not callable(fn):
                continue  # gone after a refactor: the outer span keeps the time
            wrapper = self._wrap(fn, span_name, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, value in reversed(self._patches):
            setattr(m, key, value)
        self._patches.clear()

    def to_json(self) -> list:
        return [[s.span_id, s.name, s.start, s.end, s.parent, s.op_id, s.counts]
                for s in self.spans]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.span_id, self.parent = self.tracer._open()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.span_id, self.parent, self.name, self.start, {})
        return False


# ------------------------------------------------------------------ metrics

# name: (unit, span, numerator, denominator, scale).  "time" is the summed
# inclusive span time of the round; other keys are the spans' summed counts.
METRICS = {
    "ingest.parse_s": ("s", "ingest.parse", "time", None, 1.0),
    "ingest.items_per_s": ("1/s", "ingest.parse", "items", "time", 1.0),
    "ingest.bytes": ("bytes", "ingest.parse", "bytes", None, 1.0),
    "occurrence.build_s": ("s", "occurrence.build", "time", None, 1.0),
    "occurrence.posterior_s": ("s", "occurrence.posterior", "time", None, 1.0),
    "occurrence.select_s": ("s", "occurrence.select", "time", None, 1.0),
    "occurrence.fallback_cells": ("count", "occurrence.posterior", "fallback_cells",
                                  None, 1.0),
    "descriptor_hard.encode_s": ("s", "descriptor_hard.encode", "time", None, 1.0),
    "descriptor_hard.us_per_image": ("us", "descriptor_hard.encode", "time", "images",
                                     1e6),
    "descriptor_hard.nnz_frac": ("frac", "descriptor_hard.encode", "nnz", "cells", 1.0),
    "descriptor_soft.samples_s": ("s", "descriptor_soft.samples", "time", None, 1.0),
    "descriptor_soft.pca_s": ("s", "descriptor_soft.pca", "time", None, 1.0),
    "descriptor_soft.codebook_s": ("s", "descriptor_soft.codebook", "time", None, 1.0),
    "descriptor_soft.encode_s": ("s", "descriptor_soft.encode", "time", None, 1.0),
    "descriptor_soft.us_per_image": ("us", "descriptor_soft.encode", "time", "images",
                                     1e6),
    "descriptor_soft.patches": ("count", "descriptor_soft.encode", "patches", None, 1.0),
    "topics.fit_s": ("s", "topics.fit", "time", None, 1.0),
    "topics.iterations": ("count", "topics.fit", "iterations", None, 1.0),
    "topics.assign_s": ("s", "topics.assign", "time", None, 1.0),
    "ensemble.fit_s": ("s", "ensemble.fit", "time", None, 1.0),
    "ensemble.cv_s": ("s", "ensemble.cv", "time", None, 1.0),
    "ensemble.binary_fits": ("count", "ensemble.binary", "fits", None, 1.0),
    "ensemble.sgd_steps": ("count", "ensemble.binary", "steps", None, 1.0),
    "ensemble.sgd_steps_per_s": ("1/s", "ensemble.binary", "steps", "time", 1.0),
    "ensemble.predict_s": ("s", "ensemble.predict", "time", None, 1.0),
    "bundle.save_s": ("s", "bundle.save", "time", None, 1.0),
    "bundle.load_s": ("s", "bundle.load", "time", None, 1.0),
    "bundle.bytes": ("bytes", "bundle.save", "bytes", None, 1.0),
}


def _round_totals(spans, round_of):
    """Per round: {span name: {"time": seconds, count: total}}."""
    out = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
    for s in spans:
        totals = out[round_of[s.op_id]][s.name]
        totals["time"] += s.duration
        for key, value in s.counts.items():
            totals[key] += value
    return list(out.values())


def _round_self_times(spans, round_of):
    """Per round: {layer: seconds}, each span's time minus its direct children's."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    out = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.layer in LAYERS:
            out[round_of[s.op_id]][s.layer] += s.duration - child_time[s.span_id]
    return list(out.values())


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, round_of) -> dict:
    """name -> (value, unit): medians over the traced rounds that call the layer.

    A round's value sums every call it makes; rounds that make no such call do
    not count, and a metric no round produces is 0.
    """
    rounds = _round_totals(spans, round_of)

    def value(r, span, num, den, scale):
        if span not in r:
            return None
        totals = r[span]
        if den is None:
            return scale * totals[num]
        return scale * totals[num] / totals[den] if totals[den] else None

    out = {name: (_median(value(r, span, num, den, scale) for r in rounds), unit)
           for name, (unit, span, num, den, scale) in METRICS.items()}
    selves = _round_self_times(spans, round_of)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (_median(r.get(layer) for r in selves), "s")
    return out
