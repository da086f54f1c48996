"""Span tracer that wraps nhsq layer entry points from outside the package.

`install(tracer)` replaces each target function or method with a wrapper
that records a span (name, start, end, parent, experiment id) and adds to
the layer's counters: calls, total and self seconds, and an optional work
count taken from the arguments or the result.  Self time is the span's
duration minus the time covered by traced calls made inside it.

Targets are looked up by name when `install` runs.  A target that no
longer exists is reported as missing and never stops the run, so the
benchmark keeps working when a later change renames or removes a private
helper.  A function imported by name into another nhsq module is replaced
at every import site, because a call through the old binding would bypass
the span.

A call made while a span of the same layer is already open (recursion, or
one target of a layer calling another) belongs to the outer span and is
not counted again.  Hot targets (`spans=False`) keep counts and times but
no per-call span record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


def _first_len(args, kwargs, result):
    return len(result[0])


def _result_len(args, kwargs, result):
    return len(result)


def _segment_count(args, kwargs, result):
    return len(result[1])  # (breakpoints, midpoints, exponents)


def _pair_count(args, kwargs, result):
    return int(np.size(args[0] if args else kwargs["d"]))


def _bytes_written(args, kwargs, result):
    return sum(p.stat().st_size for p in result)


def _geometry_index(args, kwargs, result):
    return tuple(args)


@dataclass(frozen=True)
class Layer:
    """One per-layer metric family and the functions it wraps.

    targets are "module:qualname" strings; the layer counts as present when
    at least one of them resolves.  work(args, kwargs, result) returns a
    count added to the metric work_metric; distinct(args, kwargs, result)
    returns a key whose distinct values are counted.
    """

    name: str
    targets: tuple[str, ...]
    spans: bool = True
    work_metric: Optional[str] = None
    work: Optional[Callable] = None
    distinct: Optional[Callable] = None


LAYERS = (
    Layer("measures.leaf_table", ("nhsq.measures:CantorMeasure.leaf_table",)),
    Layer("measures.build", ("nhsq.measures:CantorMeasure.__init__",)),
    Layer("measures.interval_mass", ("nhsq.measures:CantorMeasure.interval_mass",
                                     "nhsq.measures:CantorMeasure._mass_rec"), spans=False),
    Layer("measures.growth_constant", ("nhsq.measures:growth_constant",)),
    Layer("measures.split_geometry", ("nhsq.measures:_split_geometry",), spans=False,
          distinct=_geometry_index),
    Layer("kernels.node_atoms", ("nhsq.kernels:node_atoms",),
          work_metric="kernels.node_atoms.atoms", work=_first_len),
    Layer("kernels.cantor_locate", ("nhsq.kernels:CantorKernel.locate",), spans=False),
    Layer("kernels.cantor_evaluate", ("nhsq.kernels:CantorKernel.evaluate",), spans=False),
    Layer("kernels.logproduct_evaluate", ("nhsq.kernels:LogProductKernel.evaluate",), spans=False),
    Layer("kernels.check_size", ("nhsq.kernels:check_size_condition",)),
    Layer("kernels.check_holder", ("nhsq.kernels:check_holder_condition",)),
    Layer("kernels.phi_v_antiderivative", ("nhsq.kernels:phi_v_antiderivative",)),
    Layer("sqfn.band_weight", ("nhsq.sqfn:CantorSquareContext.band_weight",)),
    Layer("sqfn.band_tail_weight", ("nhsq.sqfn:_band_tail_weight",),
          work_metric="sqfn.band_tail_weight.pairs", work=_pair_count),
    Layer("sqfn.g_term", ("nhsq.sqfn:CantorSquareContext.g_term",)),
    Layer("sqfn.conical_norm_series", ("nhsq.sqfn:conical_norm_series",)),
    Layer("sqfn.direct_norm_series", ("nhsq.sqfn:direct_norm_series",)),
    Layer("sqfn.conical_value", ("nhsq.sqfn:conical_value",)),
    Layer("sqfn.leaf_index", ("nhsq.sqfn:LeafFunction.leaf_index",), spans=False),
    Layer("sqfn.weak11_functional", ("nhsq.sqfn:weak11_functional",)),
    Layer("sqfn.testing_functional", ("nhsq.sqfn:testing_functional",)),
    Layer("sqfn.ci_profile", ("nhsq.sqfn:ci_profile",)),
    Layer("sqfn.ci_segment_table", ("nhsq.sqfn:_ci_segment_table",),
          work_metric="sqfn.ci_segment_table.segments", work=_segment_count),
    Layer("sqfn.l2_operator_ratio", ("nhsq.sqfn:l2_operator_ratio",)),
    Layer("logproduct.breakpoints", ("nhsq.logproduct:LogProductFn.breakpoints",),
          work_metric="logproduct.breakpoints.points", work=_result_len),
    Layer("logproduct.segments", ("nhsq.logproduct:_segments",),
          work_metric="logproduct.segments.segments", work=_result_len),
    Layer("logproduct.exponent", ("nhsq.logproduct:LogProductFn.exponent",), spans=False),
    Layer("logproduct.log_moments", ("nhsq.logproduct:log_moments",)),
    Layer("logproduct.carleson_log_bound", ("nhsq.logproduct:carleson_log_bound",)),
    Layer("logproduct.overlap", ("nhsq.logproduct:SpacedSetFamily.overlap",
                                 "nhsq.logproduct:overlap")),
    Layer("logproduct.build", ("nhsq.logproduct:build_logproduct",)),
    Layer("dyadic.classify_good", ("nhsq.dyadic:classify_good",)),
    Layer("dyadic.estimate_pi_good", ("nhsq.dyadic:estimate_pi_good",)),
    Layer("dyadic.build_stopping", ("nhsq.dyadic:build_stopping",)),
    Layer("dyadic.martingale_decompose", ("nhsq.dyadic:martingale_decompose",)),
    Layer("dyadic.cube_units", ("nhsq.dyadic:ShiftedGrid.cube_units",), spans=False),
    Layer("reports.write", ("nhsq.reports:ExperimentReport.write",),
          work_metric="reports.bytes", work=_bytes_written),
)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0
    work_errors: int = 0
    keys: set = field(default_factory=set)
    open: bool = False


class Tracer:
    """In-memory spans and per-layer counters for one experiment process."""

    def __init__(self, experiment: str, layers=LAYERS):
        self.experiment = experiment
        self.layers = {layer.name: layer for layer in layers}
        self.stats = {name: LayerStats() for name in self.layers}
        self.missing: list[str] = []
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._stack: list[list] = []  # per open call: [child seconds, span id for children]
        self._next_id = 0
        self._t0 = time.perf_counter()

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        stat = self.stats[layer.name]
        stack = self._stack
        clock = time.perf_counter
        name, record, work, distinct = layer.name, layer.spans, layer.work, layer.distinct

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stat.open:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else None
            span_id = parent_id
            if record:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            stat.open = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stat.open = False
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    self.spans.append((span_id, name, t0 - self._t0, t1 - self._t0, parent_id))
            if work is not None or distinct is not None:
                try:
                    if work is not None:
                        stat.work += int(work(args, kwargs, result))
                    if distinct is not None:
                        stat.keys.add(distinct(args, kwargs, result))
                except Exception:  # a changed signature must not stop the run
                    stat.work_errors += 1
            return result

        return traced

    def counters(self) -> dict:
        """Flat counters: <layer>.calls, .total_s, .self_s, the work count
        under its metric name, <layer>.distinct and <layer>.work_errors."""
        out = {}
        for name, layer in self.layers.items():
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.work_errors"] = st.work_errors
            if layer.work_metric:
                out[layer.work_metric] = st.work
            if layer.distinct:
                out[f"{name}.distinct"] = len(st.keys)
        return out

    def span_rows(self) -> list[list]:
        return [[sid, name, start, end, parent, self.experiment]
                for sid, name, start, end, parent in self.spans]


def _resolve(target: str):
    """(owner, attribute, raw object) for "module:qualname", or None."""
    modname, qualname = target.split(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, raw) if raw is not None else None


def install(tracer: Tracer) -> None:
    """Wrap every layer target; record layers with no resolvable target."""
    package = [m for name, m in sys.modules.items()
               if m is not None and (name == "nhsq" or name.startswith("nhsq."))]
    for layer in tracer.layers.values():
        found = False
        for target in layer.targets:
            hit = _resolve(target)
            if hit is None:
                continue
            owner, attr, raw = hit
            if isinstance(owner, type):
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(tracer.wrap(layer, raw.__func__)))
                elif callable(raw):
                    setattr(owner, attr, tracer.wrap(layer, raw))
                else:
                    continue
            else:
                if not callable(raw):
                    continue
                wrapped = tracer.wrap(layer, raw)
                for module in package:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
            found = True
        if not found:
            tracer.missing.append(layer.name)
