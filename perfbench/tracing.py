"""Spans around the public functions of each torusquant layer.

The program is not changed: ``Tracer.installed()`` replaces each traced
function at every name its callers look it up by (module globals of every
loaded ``torusquant`` module, class attributes for methods, the
``checks.ALL_CHECKS`` tuple) and puts the originals back on exit.  A span
records its name, parent, start and end; spans are kept in compact arrays
in memory and written once, by ``write``, when the run ends.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Per-layer metrics: name -> unit.  Every traced run reports all of them.
PER_LAYER = {
    "trigpoly.multiply.calls": "count",
    "trigpoly.multiply.self_s": "s",
    "trigpoly.multiply.term_pairs": "count",
    "trigpoly.differentiate.self_s": "s",
    "trigpoly.arith.self_s": "s",
    "trigpoly.construct.calls": "count",
    "starprod.bidifferential.calls": "count",
    "starprod.bidifferential.self_s": "s",
    "starprod.star_truncated.self_s": "s",
    "starprod.star_exact.calls": "count",
    "starprod.star_exact.self_s": "s",
    "starprod.star_exact.term_pairs": "count",
    "starprod.berezin.self_s": "s",
    "starprod.series_evaluate.self_s": "s",
    "funcexpr.project.calls": "count",
    "funcexpr.project.self_s": "s",
    "funcexpr.evaluate.calls": "count",
    "funcexpr.evaluate.self_s": "s",
    "quantize.assemble_toeplitz.calls": "count",
    "quantize.assemble_toeplitz.self_s": "s",
    "quantize.assemble_toeplitz.bytes": "B",
    "quantize.compose.calls": "count",
    "quantize.compose.self_s": "s",
    "quantize.compose.flops": "flop",
    "quantize.operator_arith.self_s": "s",
    "analysis.error_product.self_s": "s",
    "analysis.error_intertwine.self_s": "s",
    "analysis.norm_l1.self_s": "s",
    "analysis.norm_linf.self_s": "s",
    "analysis.norm_l2.calls": "count",
    "analysis.norm_l2.self_s": "s",
    "analysis.certified_l2.self_s": "s",
    "analysis.power_iteration_capped": "count",
    "analysis.fit_slope.self_s": "s",
    "analysis.trace_error.self_s": "s",
    "analysis.riemann_sum_error.self_s": "s",
    "analysis.torus_relations.self_s": "s",
    **{f"checks.criterion{i}.s": "s" for i in range(1, 10)},
    "trace.overhead_s": "s",
}


class Tracer:
    """Span recorder for one benchmark run.

    ``begin_round`` starts a fresh set of per-round totals; spans of all
    rounds stay in the arrays until ``write``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_round = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._child = array("d")
        self._stack: list[int] = []
        self.round = -1
        self.rounds: list[dict[str, float]] = []
        self.t0 = perf_counter()

    def begin_round(self) -> None:
        self.round += 1
        self.rounds.append({})

    def count(self, name: str, amount: float = 1) -> None:
        totals = self.rounds[-1]
        totals[name] = totals.get(name, 0) + amount

    def _enter(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.span_start)
        self.span_name.append(idx)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_round.append(self.round)
        self.span_end.append(0.0)
        self._child.append(0.0)
        self._stack.append(span)
        self.span_start.append(perf_counter())
        return span

    def _exit(self, span: int, label: str, total: bool) -> None:
        end = perf_counter()
        self._stack.pop()
        self.span_end[span] = end
        duration = end - self.span_start[span]
        parent = self.span_parent[span]
        if parent >= 0:
            self._child[parent] += duration
        totals = self.rounds[-1]
        key = f"{label}.self_s"
        totals[key] = totals.get(key, 0.0) + duration - self._child[span]
        key = f"{label}.calls"
        totals[key] = totals.get(key, 0) + 1
        if total:
            key = f"{label}.s"
            totals[key] = totals.get(key, 0.0) + duration

    def span(self, name, fn, total: bool = False):
        """Wrap ``fn`` in a span named ``name`` (or ``name(args, kwargs)``).

        Adds to ``<name>.calls`` and ``<name>.self_s``, and with ``total`` to
        the inclusive ``<name>.s``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = self._enter(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(span, label, total)

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        patches = _patches(self)
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _new in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    def round_metrics(self, index: int) -> dict[str, float]:
        """Per-layer metric values of one traced round."""
        totals = self.rounds[index]
        return {name: float(totals.get(name, 0)) for name in PER_LAYER if name != "trace.overhead_s"}

    def write(self, path) -> None:
        """Write every span of the run as arrays to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            round=np.frombuffer(self.span_round, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64) - self.t0,
            end_s=np.frombuffer(self.span_end, dtype=np.float64) - self.t0,
        )


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced name."""
    from torusquant import analysis, checks, funcexpr, quantize, starprod, trigpoly

    t = tracer
    out: list[tuple[object, str, object]] = []

    def method(cls, attr, wrapper):
        out.append((cls, attr, wrapper(cls.__dict__[attr])))

    def function(module, attr, wrapper):
        # replace the function at every module global that refers to it
        original = getattr(module, attr)
        new = wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "torusquant" or name.startswith("torusquant.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, key, new))

    def counted(fn_counts):
        def wrapper(fn):
            @functools.wraps(fn)
            def inner(*args, **kwargs):
                for key, amount in fn_counts(args):
                    t.count(key, amount)
                return fn(*args, **kwargs)

            return inner

        return wrapper

    TP = trigpoly.TrigPoly
    method(TP, "__init__", counted(lambda a: (("trigpoly.construct.calls", 1),)))
    method(TP, "multiply", lambda fn: counted(lambda a: (("trigpoly.multiply.term_pairs", len(a[0]) * len(a[1])),))(
        t.span("trigpoly.multiply", fn)))
    method(TP, "differentiate", lambda fn: t.span("trigpoly.differentiate", fn))
    for attr in ("__add__", "__sub__", "__neg__", "scale"):
        method(TP, attr, lambda fn: t.span("trigpoly.arith", fn))

    function(starprod, "bidifferential", lambda fn: t.span("starprod.bidifferential", fn))
    function(starprod, "star_truncated", lambda fn: t.span("starprod.star_truncated", fn))
    function(starprod, "star_exact", lambda fn: counted(lambda a: (("starprod.star_exact.term_pairs", len(a[0]) * len(a[1])),))(
        t.span("starprod.star_exact", fn)))
    for attr in ("berezin_exact", "berezin_truncated"):
        function(starprod, attr, lambda fn: t.span("starprod.berezin", fn))
    method(starprod.HbarSeries, "evaluate", lambda fn: t.span("starprod.series_evaluate", fn))

    function(funcexpr, "project", lambda fn: t.span("funcexpr.project", fn))
    function(funcexpr, "evaluate", lambda fn: t.span("funcexpr.evaluate", fn))

    QO = quantize.QuantumOperator

    def assemble_bytes(a):
        return (("quantize.assemble_toeplitz.bytes", 16 * a[1].dim**2),)

    def compose_flops(a):
        return (("quantize.compose.flops", 8 * a[0].spec.dim**3),)

    function(quantize, "assemble_toeplitz", lambda fn: counted(assemble_bytes)(t.span("quantize.assemble_toeplitz", fn)))
    method(QO, "__matmul__", lambda fn: counted(compose_flops)(t.span("quantize.compose", fn)))
    for attr in ("__add__", "__sub__", "scale"):
        method(QO, attr, lambda fn: t.span("quantize.operator_arith", fn))

    def norm_name(args, kwargs):
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        return f"analysis.norm_{analysis.NormKind(kind).value}"

    function(analysis, "operator_norm", lambda fn: t.span(norm_name, fn))
    for attr, label in (
        ("error_product", "analysis.error_product"),
        ("error_intertwine", "analysis.error_intertwine"),
        ("certified_l2_norm", "analysis.certified_l2"),
        ("fit_slope", "analysis.fit_slope"),
        ("trace_error", "analysis.trace_error"),
        ("riemann_sum_error", "analysis.riemann_sum_error"),
        ("torus_relation_defects", "analysis.torus_relations"),
    ):
        function(analysis, attr, lambda fn, label=label: t.span(label, fn))

    class CountedPowerIterationWarning(analysis.PowerIterationWarning):
        """Counts each capped power iteration as spectral_norm raises it."""

        def __init__(self, *args):
            t.count("analysis.power_iteration_capped")
            super().__init__(*args)

    out.append((analysis, "PowerIterationWarning", CountedPowerIterationWarning))

    criteria = tuple(
        t.span(f"checks.criterion{i}", fn, total=True)
        for i, fn in enumerate(checks.ALL_CHECKS, start=1)
    )
    out.append((checks, "ALL_CHECKS", criteria))
    return out

