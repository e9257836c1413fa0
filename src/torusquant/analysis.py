"""Norm estimates, error operators and convergence-rate experiments.

Everything here measures how fast quantization errors shrink as the level k
grows (hbar = 1/k).  Sweeps produce (k, hbar, error) rows per norm kind;
log-log slope fits turn them into empirical convergence orders, with an
error floor below which values count as exact zeros so rounding noise never
produces garbage slopes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from . import funcexpr
from .config import ExperimentConfig
from .quantize import (
    HilbertSpec,
    Polarization,
    QuantumOperator,
    assemble_toeplitz,
    intertwine,
    operator_trace,
    quantum_torus_generators,
)
from .starprod import HbarValue, berezin_exact, berezin_truncated, star_exact, star_truncated
from .trigpoly import TrigPoly

# Measured errors at or below this are double-precision accumulation noise
# and are treated as exact zeros.
ERROR_FLOOR = 1e-13

# Empirical slope for an order-N truncation must land in
# [N + 1 - SLOPE_BELOW, N + 1 + SLOPE_ABOVE].
SLOPE_BELOW = 0.2
SLOPE_ABOVE = 1.2

# O(hbar^infinity) statements are operationalized as "error * k^RATE_EXPONENT
# keeps decreasing over the sweep"; reports flag this as a chosen rendering.
RATE_EXPONENT = 4.0


class NormKind(Enum):
    L1 = "l1"
    LINF = "linf"
    L2 = "l2"


NORM_ORDER = (NormKind.L1, NormKind.L2, NormKind.LINF)  # report row order


class PowerIterationWarning(UserWarning):
    """Former spectral-norm power-iteration cap warning.

    Kept so that code filtering or subclassing it still imports; nothing in
    the package raises it since l2 norms come from the LAPACK SVD.
    """


def spectral_norm(matrix) -> float:
    """Largest singular value, ``np.linalg.norm(a, 2)`` (LAPACK SVD).

    Exact to rounding; empty matrices have norm 0.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _entries(op) -> np.ndarray:
    return op.entries if isinstance(op, QuantumOperator) else np.asarray(op, dtype=complex)


def certified_l2_norm(op, tol: float) -> float:
    """l2 norm for comparisons against a tolerance.

    Returns the interpolation bound sqrt(l1 * linf) when it already sits at
    or below ``tol``: the bound dominates the l2 norm, so it certifies the
    check without an SVD.  Otherwise returns the exact LAPACK 2-norm.
    """
    a = _entries(op)
    if a.size == 0:
        return 0.0
    bound = float(np.sqrt(np.abs(a).sum(axis=0).max() * np.abs(a).sum(axis=1).max()))
    if bound <= tol:
        return bound
    return spectral_norm(a)


def operator_norm(op, kind: NormKind | str) -> float:
    """Operator norm of a QuantumOperator or a plain matrix.

    ``l1`` is the max column absolute sum, ``linf`` the max row absolute sum,
    ``l2`` the largest singular value (LAPACK; see spectral_norm).  All three
    are exact to rounding.
    """
    kind = NormKind(kind) if not isinstance(kind, NormKind) else kind
    a = _entries(op)
    if a.size == 0:
        return 0.0
    if kind is NormKind.L1:
        return float(np.abs(a).sum(axis=0).max())
    if kind is NormKind.LINF:
        return float(np.abs(a).sum(axis=1).max())
    return spectral_norm(a)


# -- error operators ----------------------------------------------------------
#
# Quantization is an exact homomorphism for the convergent products on the
# torus: Q_f Q_g = Q_{star_exact(f, g, 1/k)}, and re-expressing a dual-basis
# matrix in the primary basis gives Q_{berezin_exact(f, 1/k)}.  So each
# truncation error is the Toeplitz operator of a remainder symbol, exact minus
# truncated series at hbar = 1/k: one assembly, no matrix product.  The
# k-independent series is computed once per sweep.


def _product_remainder(f: TrigPoly, g: TrigPoly, order: int) -> Callable[[int], QuantumOperator]:
    series = star_truncated(f, g, order)

    def at(k: int) -> QuantumOperator:
        h = HbarValue(k)
        return assemble_toeplitz(star_exact(f, g, h) - series.evaluate(h.hbar), HilbertSpec(f.n, k))

    return at


def _berezin_remainder(f: TrigPoly, order: int) -> Callable[[int], QuantumOperator]:
    series = berezin_truncated(f, order)

    def at(k: int) -> QuantumOperator:
        h = HbarValue(k)
        return assemble_toeplitz(berezin_exact(f, h) - series.evaluate(h.hbar), HilbertSpec(f.n, k))

    return at


def error_product(f: TrigPoly, g: TrigPoly, order: int, k: int) -> QuantumOperator:
    """Q_f Q_g - Q_{f *_order g at hbar=1/k} in the position basis.

    Built as the Toeplitz operator of the remainder symbol
    star_exact(f, g, 1/k) - star_truncated(f, g, order)(1/k), which equals
    the dense difference to rounding.
    """
    return _product_remainder(f, g, order)(k)


def error_intertwine(f: TrigPoly, order: int | None, k: int) -> QuantumOperator:
    """Dual-basis quantization re-expressed, minus quantization of the
    Berezin-transformed symbol.

    With an integer ``order`` this is the Toeplitz operator of the remainder
    symbol berezin_exact(f, 1/k) - berezin_truncated(f, order)(1/k).
    ``order=None`` compares the exact transform against the basis change
    itself, intertwine(Q^dual_f) - Q_{berezin_exact f}: two independent
    routes, so it checks the identity the remainder route relies on.
    """
    if order is not None:
        return _berezin_remainder(f, order)(k)
    dual = HilbertSpec(f.n, k, Polarization.MOMENTUM)
    primary = HilbertSpec(f.n, k, Polarization.POSITION)
    return intertwine(assemble_toeplitz(f, dual)) - assemble_toeplitz(berezin_exact(f, HbarValue(k)), primary)


def trace_error(f: TrigPoly, k: int, reference: complex | None = None) -> float:
    """|hbar^n tr Q_f - reference|; reference defaults to the mean of f."""
    spec = HilbertSpec(f.n, k, Polarization.POSITION)
    if reference is None:
        reference = f.mean
    scaled = operator_trace(assemble_toeplitz(f, spec)) / float(k) ** f.n
    return abs(scaled - complex(reference))


def riemann_sum_error(
    profile,
    k: int,
    n: int | None = None,
    mean: complex | None = None,
) -> float:
    """|mean - k^{-n} sum over the lattice (m/k)| for a profile in y.

    ``profile`` is either an x-independent TrigPoly (mean defaults to its
    coefficient average) or a callable taking a length-n y-vector, in which
    case ``mean`` must be supplied by the caller.
    """
    if isinstance(profile, TrigPoly):
        if profile.x_bandwidth() != 0:
            raise ValueError("profile must not depend on x")
        n = profile.n
        if mean is None:
            mean = profile.mean
        fn = lambda y: profile.evaluate((0.0,) * n, y)
    else:
        if n is None:
            n = 1
        if mean is None:
            raise ValueError("mean is required for callable profiles")
        fn = profile
    total = 0.0 + 0.0j
    for m in np.ndindex(*((k,) * n)):
        total += fn(tuple(v / k for v in m))
    return abs(total / float(k) ** n - complex(mean))


# -- slope fitting -------------------------------------------------------------


class TooFewPointsError(ValueError):
    """Fewer than three points survive the error floor."""

    def __init__(self, n_points: int, n_usable: int):
        super().__init__(
            f"{n_usable} of {n_points} points above the error floor; need at least 3 to fit"
        )
        self.n_points = n_points
        self.n_usable = n_usable


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float  # rms of log-error residuals about the fit line
    n_used: int
    n_excluded: int


def fit_slope(points: Iterable[tuple[float, float]], floor: float = ERROR_FLOOR) -> SlopeFit:
    """Least-squares slope of log(error) against log(hbar).

    Points with error at or below ``floor`` are excluded (they are exact
    zeros); raises TooFewPointsError when fewer than three remain.
    """
    pts = [(float(h), float(e)) for h, e in points]
    usable = [(h, e) for h, e in pts if e > floor]
    if len(usable) < 3:
        raise TooFewPointsError(len(pts), len(usable))
    xs = np.log([h for h, _ in usable])
    ys = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return SlopeFit(
        slope=float(slope),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_used=len(usable),
        n_excluded=len(pts) - len(usable),
    )


# -- experiment driver ---------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    k: int
    hbar: float
    error: float
    norm_kind: str

    def to_dict(self) -> dict:
        return {"k": self.k, "hbar": self.hbar, "error": self.error, "norm_kind": self.norm_kind}


@dataclass(frozen=True)
class SeriesSummary:
    name: str
    norm_kind: str
    outcome: str  # "fit" | "exact_identity" | "bound" | "insufficient_points"
    passed: bool
    slope: float | None = None
    residual: float | None = None
    expected_slope: float | None = None
    window: tuple[float, float] | None = None
    n_excluded: int = 0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "norm_kind": self.norm_kind,
            "outcome": self.outcome,
            "passed": self.passed,
            "n_excluded": self.n_excluded,
        }
        if self.slope is not None:
            out["slope"] = self.slope
            out["residual"] = self.residual
        if self.expected_slope is not None:
            out["expected_slope"] = self.expected_slope
        if self.window is not None:
            out["window"] = list(self.window)
        return out


@dataclass
class ConvergenceReport:
    experiment: str
    rows: list[SweepPoint]
    series: list[SeriesSummary]
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": [r.to_dict() for r in sorted(self.rows, key=lambda r: (r.k, r.norm_kind))],
            "series": [s.to_dict() for s in self.series],
            "passed": self.passed,
            "details": self.details,
        }


def slope_window(order: int) -> tuple[float, float]:
    expected = order + 1.0
    return (expected - SLOPE_BELOW, expected + SLOPE_ABOVE)


def _fit_series(name: str, kind: str, points: list[tuple[float, float]], order: int) -> SeriesSummary:
    lo, hi = slope_window(order)
    if all(e <= ERROR_FLOOR for _, e in points):
        return SeriesSummary(name=name, norm_kind=kind, outcome="exact_identity", passed=True,
                             n_excluded=len(points))
    try:
        fit = fit_slope(points)
    except TooFewPointsError as exc:
        return SeriesSummary(
            name=name, norm_kind=kind, outcome="insufficient_points", passed=False,
            n_excluded=exc.n_points - exc.n_usable,
        )
    passed = lo <= fit.slope <= hi
    return SeriesSummary(
        name=name,
        norm_kind=kind,
        outcome="fit",
        passed=passed,
        slope=fit.slope,
        residual=fit.residual,
        expected_slope=order + 1.0,
        window=(lo, hi),
        n_excluded=fit.n_excluded,
    )


def superpoly_decay_ok(points: Sequence[tuple[int, float]], exponent: float = RATE_EXPONENT) -> tuple[bool, bool]:
    """(passed, exact_identity) for a faster-than-k^{-exponent} claim.

    Scaled values error * k^exponent must strictly decrease while above the
    error floor; once a value falls to the floor, later ones must stay there.
    All-floor data is an exact identity and passes vacuously.
    """
    scaled = [(k, e * float(k) ** exponent, e) for k, e in points]
    exact = all(e <= ERROR_FLOOR for _, _, e in scaled)
    if exact:
        return True, True
    prev = None
    seen_floor = False
    for _k, value, raw in scaled:
        if raw <= ERROR_FLOOR:
            seen_floor = True
            continue
        if seen_floor:
            return False, False  # error came back up above the floor
        if prev is not None and value >= prev:
            return False, False
        prev = value
    return True, False


def _map_levels(ks: Sequence[int], fn: Callable[[int], object], threads: int) -> list:
    if threads <= 1 or len(ks) <= 1:
        return [fn(k) for k in ks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, ks))


def _all_norms(op: QuantumOperator) -> dict[str, float]:
    return {kind.value: operator_norm(op, kind) for kind in NORM_ORDER}


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> ConvergenceReport:
    """Run one configured experiment and judge its pass rule.

    Dispatches on cfg.experiment; see the package README for the per-kind
    row and series layout.
    """
    handlers = {
        "product": _run_product,
        "intertwine": _run_intertwine,
        "trace": _run_trace,
        "riemann": _run_riemann,
        "norm_bound": _run_norm_bound,
        "torus_relations": _run_torus_relations,
    }
    if cfg.experiment not in handlers:
        raise ValueError(f"experiment {cfg.experiment!r} is not a sweep; use the star subcommand")
    return handlers[cfg.experiment](cfg, threads)


def _run_product(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    g = cfg.g.realize(cfg.n, rng)
    ks = cfg.k_values()
    error_at = _product_remainder(f, g, cfg.order)

    def cell(k: int) -> dict[str, float]:
        return _all_norms(error_at(k))

    cells = _map_levels(ks, cell, threads)
    rows = [
        SweepPoint(k, 1.0 / k, norms[kind.value], kind.value)
        for k, norms in zip(ks, cells)
        for kind in NORM_ORDER
    ]
    series = [
        _fit_series(kind.value, kind.value, [(1.0 / k, norms[kind.value]) for k, norms in zip(ks, cells)], cfg.order)
        for kind in NORM_ORDER
    ]
    return ConvergenceReport(
        experiment="product",
        rows=rows,
        series=series,
        passed=all(s.passed for s in series),
        details={"order": cfg.order, "error_floor": ERROR_FLOOR},
    )


def _run_intertwine(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    ks = cfg.k_values()
    exact_tol = 1e-10
    error_at = _berezin_remainder(f, cfg.order)

    def cell(k: int) -> tuple[dict[str, float], float]:
        truncated = _all_norms(error_at(k))
        exact = certified_l2_norm(error_intertwine(f, None, k), exact_tol)
        return truncated, exact

    cells = _map_levels(ks, cell, threads)
    rows = [
        SweepPoint(k, 1.0 / k, norms[kind.value], kind.value)
        for k, (norms, _exact) in zip(ks, cells)
        for kind in NORM_ORDER
    ]
    series = [
        _fit_series(
            kind.value, kind.value,
            [(1.0 / k, norms[kind.value]) for k, (norms, _e) in zip(ks, cells)],
            cfg.order,
        )
        for kind in NORM_ORDER
    ]
    exact_errors = [[k, exact] for k, (_n, exact) in zip(ks, cells)]
    exact_max = max(e for _k, e in exact_errors)
    series.append(
        SeriesSummary(
            name="exact_transform",
            norm_kind=NormKind.L2.value,
            outcome="exact_identity" if exact_max <= exact_tol else "violation",
            passed=exact_max <= exact_tol,
        )
    )
    return ConvergenceReport(
        experiment="intertwine",
        rows=rows,
        series=series,
        passed=all(s.passed for s in series),
        details={
            "order": cfg.order,
            "transform_phase": "+p.a",  # exact transform multiplies (p,a)-amplitudes by e^{+2 pi i hbar p.a}
            "exact_errors": exact_errors,
            "exact_max_error": exact_max,
            "exact_tolerance": exact_tol,
        },
    )


def _expression_mean(spec_f, n: int, k_max: int) -> complex:
    """Reference mean of an expression on a fine grid.

    Uses at least 4x the finest sweep resolution (and >= 1024 points per axis
    for n = 1), capped so the total grid stays affordable; for analytic
    integrands this trapezoid rule is exact to rounding.
    """
    re_ast, im_ast = spec_f.asts()
    target = max(4 * k_max, 1024 if n == 1 else 64)
    cap = int(2 ** (24 / (2 * n)))
    m = min(target, cap)
    if m % 2:
        m += 1
    mean = complex(funcexpr.sample_grid(re_ast, n, m).mean())
    if im_ast is not None:
        mean += 1j * complex(funcexpr.sample_grid(im_ast, n, m).mean())
    return mean


def _run_trace(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    ks = cfg.k_values()
    from_expr = cfg.f.kind == "expr"
    if from_expr:
        reference = _expression_mean(cfg.f, cfg.n, max(ks))
    else:
        reference = f.mean

    def cell(k: int) -> float:
        return trace_error(f, k, reference=reference)

    errors = _map_levels(ks, cell, threads)
    rows = [SweepPoint(k, 1.0 / k, e, "abs") for k, e in zip(ks, errors)]
    details: dict = {
        "reference_re": reference.real,
        "reference_im": reference.imag,
        "error_floor": ERROR_FLOOR,
    }
    if from_expr:
        ok, exact = superpoly_decay_ok(list(zip(ks, errors)))
        outcome = "exact_identity" if exact else ("fit" if ok else "violation")
        series = [SeriesSummary(name="trace_decay", norm_kind="abs", outcome=outcome, passed=ok)]
        details["rate_exponent"] = RATE_EXPONENT
        details["rate_rule"] = "error*k^4 strictly decreasing above the floor (chosen rendering of faster-than-any-power decay)"
    else:
        bandwidth = f.bandwidth()
        tol = 1e-10 * abs(reference) + 1e-12
        judged = [(k, e) for k, e in zip(ks, errors) if k > bandwidth]
        ok = all(e <= tol for _k, e in judged) and bool(judged)
        series = [
            SeriesSummary(
                name="band_limited_trace",
                norm_kind="abs",
                outcome="exact_identity" if ok else "violation",
                passed=ok,
            )
        ]
        details["bandwidth"] = bandwidth
        details["tolerance"] = tol
        details["levels_judged"] = [k for k, _ in judged]
    return ConvergenceReport(
        experiment="trace",
        rows=rows,
        series=series,
        passed=all(s.passed for s in series),
        details=details,
    )


def _run_riemann(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    rng = np.random.default_rng(cfg.seed)
    ks = cfg.k_values()
    from_expr = cfg.f.kind == "expr"
    details: dict = {"error_floor": ERROR_FLOOR}
    if from_expr:
        re_ast, im_ast = cfg.f.asts()
        if im_ast is not None:
            raise ValueError("riemann profiles must be real expressions")
        mean = _expression_mean(cfg.f, cfg.n, max(ks))

        def profile(y):
            return funcexpr.evaluate(re_ast, (0.0,) * cfg.n, y)

        def cell(k: int) -> float:
            return riemann_sum_error(profile, k, n=cfg.n, mean=mean)

    else:
        poly = cfg.f.realize(cfg.n, rng)
        if poly.x_bandwidth() != 0:
            raise ValueError("riemann profiles must not depend on x")
        mean = poly.mean

        def cell(k: int) -> float:
            return riemann_sum_error(poly, k)

    errors = _map_levels(ks, cell, threads)
    rows = [SweepPoint(k, 1.0 / k, e, "abs") for k, e in zip(ks, errors)]
    details["mean_re"] = complex(mean).real
    details["mean_im"] = complex(mean).imag
    if from_expr:
        ok, exact = superpoly_decay_ok(list(zip(ks, errors)))
        outcome = "exact_identity" if exact else ("fit" if ok else "violation")
        series = [SeriesSummary(name="riemann_decay", norm_kind="abs", outcome=outcome, passed=ok)]
        details["rate_exponent"] = RATE_EXPONENT
    else:
        bandwidth = poly.y_bandwidth()
        judged = [(k, e) for k, e in zip(ks, errors) if k > bandwidth]
        ok = all(e <= 1e-12 for _k, e in judged) and bool(judged)
        series = [
            SeriesSummary(
                name="band_limited_riemann",
                norm_kind="abs",
                outcome="exact_identity" if ok else "violation",
                passed=ok,
            )
        ]
        details["bandwidth"] = bandwidth
        details["levels_judged"] = [k for k, _ in judged]
    return ConvergenceReport(
        experiment="riemann",
        rows=rows,
        series=series,
        passed=all(s.passed for s in series),
        details=details,
    )


def _run_norm_bound(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    bound = f.l1_norm()
    ks = cfg.k_values()

    def cell(k: int) -> float:
        spec = HilbertSpec(cfg.n, k, Polarization.POSITION)
        return operator_norm(assemble_toeplitz(f, spec), NormKind.L2)

    values = _map_levels(ks, cell, threads)
    rows = [SweepPoint(k, 1.0 / k, v, "l2") for k, v in zip(ks, values)]
    tol = bound * 1e-10 + 1e-12
    ok = all(v <= bound + tol for v in values)
    series = [SeriesSummary(name="coefficient_bound", norm_kind="l2", outcome="bound", passed=ok)]
    return ConvergenceReport(
        experiment="norm_bound",
        rows=rows,
        series=series,
        passed=ok,
        details={
            "bound": bound,
            "max_norm": max(values),
            "tolerance": tol,
            "note": "rows carry the measured l2 norm, not an error",
        },
    )


def torus_relation_defects(n: int, k: int, tol: float = 1e-12) -> tuple[float, int | None]:
    """(max relation defect, measured commutation sign) at one level.

    Checks unitarity, k-th powers, same-axis commutation with the measured
    sign, and cross-axis commutation, all in the operator 2-norm (via
    certified_l2_norm against ``tol``).  The sign is None at k = 2 where
    e^{2 pi i hbar} is real and both signs coincide.
    """
    spec = HilbertSpec(n, k, Polarization.POSITION)
    hbar = spec.hbar
    eye = np.eye(spec.dim, dtype=complex)
    gens = [quantum_torus_generators(spec, axis) for axis in range(1, n + 1)]
    defect = 0.0
    sign: int | None = None
    for u, v in gens:
        for w in (u, v):
            defect = max(defect, certified_l2_norm(w.entries.conj().T @ w.entries - eye, tol))
            defect = max(defect, certified_l2_norm(np.linalg.matrix_power(w.entries, k) - eye, tol))
        uv = u.entries @ v.entries
        vu = v.entries @ u.entries
        idx = int(np.argmax(np.abs(vu)))
        ratio = uv.flat[idx] / vu.flat[idx]
        minus = complex(np.exp(-2j * np.pi * hbar))
        plus = complex(np.exp(2j * np.pi * hbar))
        if abs(minus - plus) > 1e-9:
            axis_sign = -1 if abs(ratio - minus) <= abs(ratio - plus) else 1
            if sign is not None and axis_sign != sign:
                # inconsistent within one level; surface as a huge defect
                return float("inf"), None
            sign = axis_sign
        phase = minus if (sign or -1) == -1 else plus
        defect = max(defect, certified_l2_norm(uv - phase * vu, tol))
    for i in range(n):
        for j in range(i + 1, n):
            ui, vi = gens[i]
            uj, vj = gens[j]
            for a, b in ((ui, uj), (vi, vj), (ui, vj), (vi, uj)):
                defect = max(defect, certified_l2_norm(a.entries @ b.entries - b.entries @ a.entries, tol))
    return defect, sign


def _run_torus_relations(cfg: ExperimentConfig, threads: int) -> ConvergenceReport:
    ks = cfg.k_values()
    tol = 1e-12

    cells = _map_levels(ks, lambda k: torus_relation_defects(cfg.n, k, tol), threads)
    rows = [SweepPoint(k, 1.0 / k, d, "l2") for k, (d, _s) in zip(ks, cells)]
    signs = {k: s for k, (_d, s) in zip(ks, cells) if s is not None}
    distinct = sorted(set(signs.values()))
    consistent = len(distinct) <= 1
    max_defect = max(d for d, _s in cells)
    ok = consistent and max_defect <= tol
    series = [
        SeriesSummary(
            name="generator_relations",
            norm_kind="l2",
            outcome="exact_identity" if ok else "violation",
            passed=ok,
        )
    ]
    return ConvergenceReport(
        experiment="torus_relations",
        rows=rows,
        series=series,
        passed=ok,
        details={
            "commutation_sign": distinct[0] if distinct else None,
            "signs_by_level": {str(k): s for k, s in sorted(signs.items())},
            "max_defect": max_defect,
            "tolerance": tol,
            "note": "sign is unobservable at k=2 where the phase is real",
        },
    )
