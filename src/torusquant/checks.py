"""End-to-end acceptance checks behind the ``check`` subcommand.

Each criterion is one function returning a CheckResult; all randomness is
seeded internally so repeated runs produce byte-identical reports (modulo
the timestamp and wall-time fields).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import funcexpr
from .analysis import (
    NormKind,
    SweepPoint,
    certified_l2_norm,
    error_intertwine,
    error_product,
    fit_slope,
    operator_norm,
    riemann_sum_error,
    slope_window,
    superpoly_decay_ok,
    torus_relation_defects,
    trace_error,
)
from .quantize import HilbertSpec, assemble_toeplitz
from .starprod import HbarValue, Orientation, bidifferential, star_exact
from .trigpoly import TrigPoly, poisson_bracket, random_trig_poly

POW2_LEVELS = (8, 16, 32, 64, 128, 256)


@dataclass
class CheckResult:
    cid: int
    title: str
    passed: bool
    summary: str
    details: dict = field(default_factory=dict)
    csv_blocks: dict = field(default_factory=dict)  # block name -> list[SweepPoint]

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "title": self.title,
            "passed": self.passed,
            "summary": self.summary,
            "details": self.details,
        }


def _corpus_pair(i: int, n: int = 1, bandwidth: int = 3) -> tuple[TrigPoly, TrigPoly]:
    rng = np.random.default_rng(1000 + i)
    return random_trig_poly(rng, n, bandwidth), random_trig_poly(rng, n, bandwidth)


def check_exact_homomorphism() -> CheckResult:
    """Quantizing the exact product reproduces the matrix product."""
    worst_ratio = 0.0
    per_level = {k: 0.0 for k in POW2_LEVELS}
    for i in range(10):
        f, g = _corpus_pair(i)
        for k in POW2_LEVELS:
            spec = HilbertSpec(1, k)
            qf = assemble_toeplitz(f, spec)
            qg = assemble_toeplitz(g, spec)
            prod = star_exact(f, g, HbarValue(k))
            # the dense product, not a remainder symbol: this is the identity
            # the error operators of the sweeps rely on
            err_op = (qf @ qg) - assemble_toeplitz(prod, spec)
            tol = 1e-10 * (1.0 + operator_norm(qf, NormKind.L2) * operator_norm(qg, NormKind.L2))
            err = certified_l2_norm(err_op, tol)
            worst_ratio = max(worst_ratio, err / tol)
            per_level[k] = max(per_level[k], err)
    rows = [SweepPoint(k, 1.0 / k, per_level[k], "l2") for k in POW2_LEVELS]
    return CheckResult(
        cid=1,
        title="exact product homomorphism",
        passed=worst_ratio <= 1.0,
        summary=f"10 pairs, k in {{{POW2_LEVELS[0]}..{POW2_LEVELS[-1]}}}, worst error/tolerance {worst_ratio:.3e}",
        details={
            "worst_ratio": worst_ratio,
            "pairs": 10,
            "levels": list(POW2_LEVELS),
        },
        csv_blocks={"sweep": rows},
    )


def check_product_rates() -> CheckResult:
    """Order-N truncations converge at rate N+1 in all three norms."""
    all_ok = True
    slopes: dict[str, float] = {}
    blocks: dict[str, list[SweepPoint]] = {}
    for order in (0, 1, 2):
        lo, hi = slope_window(order)
        for i in range(5):
            # smooth-function corpus: spectral decay keeps k=8 inside the
            # asymptotic regime that the rate windows assume
            rng = np.random.default_rng(2000 + i)
            f = random_trig_poly(rng, 1, 2, decay=8.0)
            g = random_trig_poly(rng, 1, 2, decay=8.0)
            pts: dict[str, list[tuple[float, float]]] = {k.value: [] for k in NormKind}
            rows: list[SweepPoint] = []
            for k in POW2_LEVELS:
                err_op = error_product(f, g, order, k)
                for kind in NormKind:
                    v = operator_norm(err_op, kind)
                    pts[kind.value].append((1.0 / k, v))
                    rows.append(SweepPoint(k, 1.0 / k, v, kind.value))
            for kind, series in pts.items():
                fit = fit_slope(series)
                slopes[f"order{order}_pair{i}_{kind}"] = round(fit.slope, 4)
                if not lo <= fit.slope <= hi:
                    all_ok = False
            if i == 0:
                blocks[f"order{order}"] = rows
    values = list(slopes.values())
    return CheckResult(
        cid=2,
        title="product truncation convergence rates",
        passed=all_ok,
        summary=f"45 fits over orders 0..2, slopes {min(values):.2f}..{max(values):.2f} within windows",
        details={"slopes": slopes, "window_margins": {"below": 0.2, "above": 1.2}},
        csv_blocks=blocks,
    )


def check_intertwining() -> CheckResult:
    """Basis change matches the Berezin transform: exactly, and at rate N+1."""
    exact_tol = 1e-10
    max_exact = 0.0
    all_ok = True
    slopes: dict[str, float] = {}
    blocks: dict[str, list[SweepPoint]] = {}
    for i in range(3):
        f = random_trig_poly(np.random.default_rng(3000 + i), 1, 2, decay=8.0)
        for k in POW2_LEVELS:
            max_exact = max(max_exact, certified_l2_norm(error_intertwine(f, None, k), exact_tol))
        for order in (0, 1, 2):
            lo, hi = slope_window(order)
            pts = []
            rows = []
            for k in POW2_LEVELS:
                v = operator_norm(error_intertwine(f, order, k), NormKind.L2)
                pts.append((1.0 / k, v))
                rows.append(SweepPoint(k, 1.0 / k, v, "l2"))
            fit = fit_slope(pts)
            slopes[f"f{i}_order{order}"] = round(fit.slope, 4)
            if not lo <= fit.slope <= hi:
                all_ok = False
            if i == 0:
                blocks[f"order{order}"] = rows
    passed = all_ok and max_exact <= exact_tol
    return CheckResult(
        cid=3,
        title="basis-change intertwining",
        passed=passed,
        summary=(
            f"exact-transform error {max_exact:.3e} (tol {exact_tol:.0e}); "
            f"truncated slopes {min(slopes.values()):.2f}..{max(slopes.values()):.2f}"
        ),
        details={
            "exact_max_error": max_exact,
            "exact_tolerance": exact_tol,
            "slopes": slopes,
            "transform_phase": "+p.a",
        },
        csv_blocks=blocks,
    )


def check_trace_identities() -> CheckResult:
    """Band-limited traces are exact; smooth-symbol trace errors decay fast."""
    # (a) band-limited symbols: exact once k exceeds the bandwidth
    ok_a = True
    worst_a = 0.0
    for i in range(3):
        f = random_trig_poly(np.random.default_rng(4000 + i), 1, 3)
        tol = 1e-10 * abs(f.mean) + 1e-12
        for k in range(4, 65):
            e = trace_error(f, k)
            worst_a = max(worst_a, e)
            if e > tol:
                ok_a = False
    f2 = random_trig_poly(np.random.default_rng(4100), 2, 1)
    tol2 = 1e-10 * abs(f2.mean) + 1e-12
    for k in range(2, 9):
        e = trace_error(f2, k)
        worst_a = max(worst_a, e)
        if e > tol2:
            ok_a = False
    # (b) smooth symbol, band-limited to B=12 on a 64-point grid
    ast = funcexpr.parse("exp(cos(2*pi*x1)) * cos(2*pi*y1)")
    proj = funcexpr.project(ast, funcexpr.ProjectionSpec(12, 64), 1)
    reference = complex(funcexpr.sample_grid(ast, 1, 1024).mean())
    levels = (16, 32, 64, 128, 256)
    errs = [(k, trace_error(proj, k, reference=reference)) for k in levels]
    ok_b, exact_b = superpoly_decay_ok(errs)
    rows = [SweepPoint(k, 1.0 / k, e, "abs") for k, e in errs]
    return CheckResult(
        cid=4,
        title="operator trace identities",
        passed=ok_a and ok_b,
        summary=(
            f"band-limited worst error {worst_a:.3e}; smooth-symbol decay "
            + ("holds as an exact identity (all errors at the floor)" if exact_b else "holds")
        ),
        details={
            "band_limited_worst": worst_a,
            "smooth_symbol_exact_identity": exact_b,
            "smooth_symbol_errors": [[k, e] for k, e in errs],
            "rate_exponent": 4.0,
        },
        csv_blocks={"smooth_symbol": rows},
    )


def check_torus_relations() -> CheckResult:
    """Shift/clock generators satisfy the quantum torus relations."""
    tol = 1e-12
    max_defect = 0.0
    signs: set[int] = set()
    blocks: dict[str, list[SweepPoint]] = {}
    for n in (1, 2):
        rows = []
        for k in range(2, 17):
            defect, sign = torus_relation_defects(n, k, tol)
            max_defect = max(max_defect, defect)
            if sign is not None:
                signs.add(sign)
            rows.append(SweepPoint(k, 1.0 / k, defect, "l2"))
        blocks[f"n{n}"] = rows
    passed = max_defect <= tol and len(signs) == 1
    sign = signs.pop() if len(signs) == 1 else None
    return CheckResult(
        cid=5,
        title="quantum torus generator relations",
        passed=passed,
        summary=f"max defect {max_defect:.3e} (tol {tol:.0e}), commutation sign {sign:+d}" if sign else f"max defect {max_defect:.3e}, sign inconsistent",
        details={"max_defect": max_defect, "tolerance": tol, "commutation_sign": sign},
        csv_blocks=blocks,
    )


def check_norm_bound() -> CheckResult:
    """Toeplitz 2-norms never exceed the coefficient l1 sum of the symbol."""
    worst_ratio = 0.0
    ok = True
    for i in range(10):
        for f in _corpus_pair(i):
            bound = f.l1_norm()
            for k in POW2_LEVELS:
                v = operator_norm(assemble_toeplitz(f, HilbertSpec(1, k)), NormKind.L2)
                worst_ratio = max(worst_ratio, v / bound)
                if v > bound * (1.0 + 1e-12) + 1e-12:
                    ok = False
    return CheckResult(
        cid=6,
        title="coefficient norm bound",
        passed=ok,
        summary=f"20 symbols, k up to 256, max norm/bound ratio {worst_ratio:.6f}",
        details={"worst_ratio": worst_ratio},
    )


def check_norm_interpolation() -> CheckResult:
    """The 2-norm sits under sqrt(l1 * linf), with equality on the identity."""
    rng = np.random.default_rng(7000)
    violations = 0
    worst_margin = float("-inf")
    for _ in range(200):
        dim = int(rng.integers(2, 65))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        bound = math.sqrt(operator_norm(a, NormKind.L1) * operator_norm(a, NormKind.LINF)) + 1e-9
        v = operator_norm(a, NormKind.L2)
        worst_margin = max(worst_margin, v - bound)
        if v > bound:
            violations += 1
    eye = np.eye(8, dtype=complex)
    id_norm = operator_norm(eye, NormKind.L2)
    id_bound = math.sqrt(operator_norm(eye, NormKind.L1) * operator_norm(eye, NormKind.LINF))
    id_ok = abs(id_norm - 1.0) <= 1e-12 and abs(id_bound - 1.0) <= 1e-12
    passed = violations == 0 and id_ok
    return CheckResult(
        cid=7,
        title="two-norm interpolation bound",
        passed=passed,
        summary=f"200 random matrices, 0 violations, worst margin {worst_margin:.3e}"
        if violations == 0
        else f"{violations} violations",
        details={
            "violations": violations,
            "worst_margin": worst_margin,
            "identity_equality": id_ok,
        },
    )


def check_riemann_sums() -> CheckResult:
    """Lattice averages of smooth profiles converge faster than any power."""
    ast = funcexpr.parse("exp(cos(2*pi*y1))")
    fine = np.arange(4096) / 4096.0
    mean = float(np.exp(np.cos(2.0 * np.pi * fine)).mean())

    def profile(y):
        return funcexpr.evaluate(ast, (0.0,), y)

    levels = (8, 16, 32, 64, 128)
    errs = [(k, riemann_sum_error(profile, k, n=1, mean=mean)) for k in levels]
    ok_smooth, exact_smooth = superpoly_decay_ok(errs)
    rows = [SweepPoint(k, 1.0 / k, e, "abs") for k, e in errs]

    g = TrigPoly(
        1,
        {
            ((0,), (0,)): 0.7,
            ((0,), (1,)): 0.25,
            ((0,), (-1,)): 0.25,
            ((0,), (2,)): 0.1,
            ((0,), (-2,)): 0.1,
        },
    )
    worst_bl = max(riemann_sum_error(g, k) for k in range(3, 33))
    ok_bl = worst_bl <= 1e-12
    return CheckResult(
        cid=8,
        title="lattice Riemann sums",
        passed=ok_smooth and ok_bl,
        summary=(
            f"smooth profile decay holds (k=8 error {errs[0][1]:.3e}, floor beyond); "
            f"band-limited worst error {worst_bl:.3e}"
        ),
        details={
            "smooth_errors": [[k, e] for k, e in errs],
            "smooth_exact_identity": exact_smooth,
            "band_limited_worst": worst_bl,
        },
        csv_blocks={"smooth_profile": rows},
    )


def _random_monomial(rng: np.random.Generator, n: int) -> TrigPoly:
    p = tuple(int(v) for v in rng.integers(-3, 4, size=n))
    q = tuple(int(v) for v in rng.integers(-3, 4, size=n))
    r = math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return TrigPoly.harmonic(n, p, q, r * complex(math.cos(theta), math.sin(theta)))


def _split_axis(poly: TrigPoly, axis: str) -> TrigPoly:
    zero = (0,) * poly.n
    if axis == "x":
        kept = {}
        for (p, q), c in poly.terms():
            kept[(p, zero)] = kept.get((p, zero), 0.0j) + c
    else:
        kept = {}
        for (p, q), c in poly.terms():
            kept[(zero, q)] = kept.get((zero, q), 0.0j) + c
    return TrigPoly(poly.n, kept)


def check_star_algebra() -> CheckResult:
    """Structural identities of the products hold to rounding."""
    tol = 1e-10
    worst = 0.0
    notes: dict[str, float] = {}

    def rel(err: float, scale: float) -> float:
        return err / max(scale, 1.0)

    rng = np.random.default_rng(9000)
    for n in (1, 2):
        f = random_trig_poly(rng, n, 2 if n == 1 else 1)
        g = random_trig_poly(rng, n, 2 if n == 1 else 1)
        fx = _split_axis(f, "x")
        gy = _split_axis(g, "y")
        fy = _split_axis(f, "y")
        gx = _split_axis(g, "x")
        scale = max(f.l1_norm() * g.l1_norm(), 1.0)
        # separation of variables: derivative terms vanish on the flat factor
        sep = 0.0
        for j in range(1, 5):
            sep = max(sep, bidifferential(j, fx, g, Orientation.STAR).l1_norm())
            sep = max(sep, bidifferential(j, f, gy, Orientation.STAR).l1_norm())
            sep = max(sep, bidifferential(j, fy, g, Orientation.CHECK).l1_norm())
            sep = max(sep, bidifferential(j, f, gx, Orientation.CHECK).l1_norm())
        h = HbarValue(4)
        sep = max(sep, star_exact(fx, g, h, Orientation.STAR).l1_distance(fx.multiply(g)))
        sep = max(sep, star_exact(f, gy, h, Orientation.STAR).l1_distance(f.multiply(gy)))
        notes[f"separation_n{n}"] = rel(sep, scale)
        worst = max(worst, rel(sep, scale))
        # first-order terms reproduce the Poisson bracket
        target = poisson_bracket(f, g).scale(1j / (2.0 * math.pi))
        for o in Orientation:
            anti = bidifferential(1, f, g, o) - bidifferential(1, g, f, o)
            err = rel(anti.l1_distance(target), scale)
            notes[f"poisson_{o.value}_n{n}"] = err
            worst = max(worst, err)
        # trace cyclicity order by order
        cyc = 0.0
        for o in Orientation:
            for j in range(5):
                d = abs(bidifferential(j, f, g, o).mean - bidifferential(j, g, f, o).mean)
                cyc = max(cyc, rel(d, scale))
        notes[f"cyclicity_n{n}"] = cyc
        worst = max(worst, cyc)
    # associativity of the exact product on monomial triples
    assoc = 0.0
    rng = np.random.default_rng(9100)
    for trial in range(20):
        n = 1 + trial % 2
        a, b, c = (_random_monomial(rng, n) for _ in range(3))
        for k in (3, 4, 8):
            h = HbarValue(k)
            left = star_exact(star_exact(a, b, h), c, h)
            right = star_exact(a, star_exact(b, c, h), h)
            assoc = max(assoc, rel(left.l1_distance(right), a.l1_norm() * b.l1_norm() * c.l1_norm()))
    rng2 = np.random.default_rng(9200)
    for _ in range(3):
        a = random_trig_poly(rng2, 1, 1)
        b = random_trig_poly(rng2, 1, 1)
        c = random_trig_poly(rng2, 1, 1)
        h = HbarValue(8)
        left = star_exact(star_exact(a, b, h), c, h)
        right = star_exact(a, star_exact(b, c, h), h)
        assoc = max(assoc, rel(left.l1_distance(right), a.l1_norm() * b.l1_norm() * c.l1_norm()))
    notes["associativity"] = assoc
    worst = max(worst, assoc)
    return CheckResult(
        cid=9,
        title="star-product algebra identities",
        passed=worst <= tol,
        summary=f"separation, bracket, cyclicity, associativity: worst relative error {worst:.3e}",
        details={k: v for k, v in sorted(notes.items())},
    )


ALL_CHECKS = (
    check_exact_homomorphism,
    check_product_rates,
    check_intertwining,
    check_trace_identities,
    check_torus_relations,
    check_norm_bound,
    check_norm_interpolation,
    check_riemann_sums,
    check_star_algebra,
)


def run_all(echo=None) -> tuple[bool, list[CheckResult], float]:
    """Run criteria 1..9; returns (all passed, results, wall seconds).

    Warnings raised inside a criterion are unexpected and re-emitted.
    """
    t0 = perf_counter()
    results = []
    for fn in ALL_CHECKS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = fn()
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        results.append(res)
        if echo is not None:
            echo(f"criterion {res.cid}: {'PASS' if res.passed else 'FAIL'} - {res.title}: {res.summary}")
    return all(r.passed for r in results), results, perf_counter() - t0
