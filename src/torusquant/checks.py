"""End-to-end acceptance checks behind the ``check`` subcommand.

Each criterion is one function returning a CheckResult; all randomness is
seeded internally so repeated runs produce byte-identical reports (modulo
the timestamp and wall-time fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from . import funcexpr
from .analysis import (
    RATE_EXPONENT,
    SLOPE_ABOVE,
    SLOPE_BELOW,
    TORUS_RELATION_TOL,
    TRANSFORM_PHASE,
    NormKind,
    SweepPoint,
    certified_l2_norm,
    intertwine_sweep,
    lattice_mean,
    norm_bound_sweep,
    product_sweep,
    torus_relations_sweep,
    trace_sweep,
)
from .quantize import DiagonalOperator, HilbertSpec, toeplitz_diagonals
from .starprod import HbarValue, Orientation, product_map, star_exact, star_truncated
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


def _largest_column_norm(op: DiagonalOperator) -> float:
    """max over columns m' of sqrt(sum_r |values[r, m']|^2): the largest
    column 2-norm, since the diagonals put each column's entries in distinct
    rows.  It is a lower bound on the operator 2-norm."""
    return float(np.sqrt((np.abs(op.values) ** 2).sum(axis=0)).max(initial=0.0))


def check_exact_homomorphism() -> CheckResult:
    """Quantizing the exact product reproduces the matrix product: every
    defect's certified upper value (``L2Reading.upper``) is within its
    tolerance; the summary reports the worst defect over its tolerance."""
    worst_ratio = worst_upper = 0.0
    per_level = {k: 0.0 for k in POW2_LEVELS}
    for i in range(10):
        f, g = _corpus_pair(i)
        product = product_map(f, g)  # the pair's exact product, read at each level
        for k in POW2_LEVELS:
            spec = HilbertSpec(1, k)
            df, dg = toeplitz_diagonals(f, spec), toeplitz_diagonals(g, spec)
            prod = product.at(HbarValue(k))
            # the operator product, not a remainder symbol: this is the
            # identity the error operators of the sweeps rely on
            err_op = (df @ dg) - toeplitz_diagonals(prod, spec)
            tol = 1e-10 * (1.0 + _largest_column_norm(df) * _largest_column_norm(dg))
            err = certified_l2_norm(err_op, tol)
            worst_ratio = max(worst_ratio, err / tol)
            worst_upper = max(worst_upper, err.upper / tol)
            per_level[k] = max(per_level[k], err)
    rows = [SweepPoint(k, 1.0 / k, per_level[k], "l2") for k in POW2_LEVELS]
    return CheckResult(
        cid=1,
        title="exact product homomorphism",
        passed=worst_upper <= 1.0,
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
        for i in range(5):
            # smooth-function corpus: spectral decay keeps k=8 inside the
            # asymptotic regime that the rate windows assume
            rng = np.random.default_rng(2000 + i)
            f = random_trig_poly(rng, 1, 2, decay=8.0)
            g = random_trig_poly(rng, 1, 2, decay=8.0)
            report = product_sweep(f, g, order, POW2_LEVELS)
            for s in report.series:
                slopes[f"order{order}_pair{i}_{s.norm_kind}"] = round(s.slope, 4)
            all_ok = all_ok and report.passed
            if i == 0:
                blocks[f"order{order}"] = report.rows
    values = list(slopes.values())
    return CheckResult(
        cid=2,
        title="product truncation convergence rates",
        passed=all_ok,
        summary=f"45 fits over orders 0..2, slopes {min(values):.2f}..{max(values):.2f} within windows",
        details={"slopes": slopes, "window_margins": {"below": SLOPE_BELOW, "above": SLOPE_ABOVE}},
        csv_blocks=blocks,
    )


def check_intertwining() -> CheckResult:
    """Basis change matches the Berezin transform: exactly, to each sweep's
    EXACT_TRANSFORM_TOL max(1, ||f||_l1), and at rate N+1."""
    max_exact = tolerance = 0.0
    all_ok = True
    slopes: dict[str, float] = {}
    blocks: dict[str, list[SweepPoint]] = {}
    for i in range(3):
        f = random_trig_poly(np.random.default_rng(3000 + i), 1, 2, decay=8.0)
        for order in (0, 1, 2):
            report = intertwine_sweep(f, order, POW2_LEVELS)
            max_exact = max(max_exact, report.details["exact_max_error"])
            tolerance = max(tolerance, report.details["exact_tolerance"])
            exact = next(s for s in report.series if s.name == "exact_transform")
            l2 = next(s for s in report.series if s.name == NormKind.L2.value)
            slopes[f"f{i}_order{order}"] = round(l2.slope, 4)
            all_ok = all_ok and l2.passed and exact.passed
            if i == 0:
                blocks[f"order{order}"] = [r for r in report.rows if r.norm_kind == NormKind.L2.value]
    return CheckResult(
        cid=3,
        title="basis-change intertwining",
        passed=all_ok,
        summary=(
            f"exact-transform error {max_exact:.3e} (tol {tolerance:.0e}); "
            f"truncated slopes {min(slopes.values()):.2f}..{max(slopes.values()):.2f}"
        ),
        details={
            "exact_max_error": max_exact,
            "exact_tolerance": tolerance,
            "slopes": slopes,
            "transform_phase": TRANSFORM_PHASE,
        },
        csv_blocks=blocks,
    )


def check_trace_identities() -> CheckResult:
    """Band-limited traces are exact; smooth-symbol trace errors decay fast."""
    # (a) band-limited symbols: exact once k exceeds the bandwidth
    band_limited = [
        trace_sweep(random_trig_poly(np.random.default_rng(4000 + i), 1, 3), range(4, 65)) for i in range(3)
    ]
    band_limited.append(trace_sweep(random_trig_poly(np.random.default_rng(4100), 2, 1), range(2, 9)))
    ok_a = all(r.passed for r in band_limited)
    worst_a = max(row.error for r in band_limited for row in r.rows)
    # (b) a smooth symbol traced as itself, unprojected: its poles at
    # cos(2 pi y) = 1.1, about 0.07 off the real torus, keep the aliasing
    # error above the floor up to k = 64
    ast = funcexpr.parse("exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))")
    smooth = trace_sweep(ast, (16, 32, 64, 128, 256), lattice_mean(ast, 1024, 1), 1)
    exact_b = smooth.series[0].outcome == "exact_identity"
    return CheckResult(
        cid=4,
        title="operator trace identities",
        passed=ok_a and smooth.passed,
        summary=(
            f"band-limited worst error {worst_a:.3e}; smooth-symbol decay "
            + ("holds as an exact identity (all errors at the floor)" if exact_b else "holds")
        ),
        details={
            "band_limited_worst": worst_a,
            "smooth_symbol_exact_identity": exact_b,
            "smooth_symbol_errors": [[r.k, r.error] for r in smooth.rows],
            "rate_exponent": RATE_EXPONENT,
        },
        csv_blocks={"smooth_symbol": smooth.rows},
    )


def check_torus_relations() -> CheckResult:
    """Shift/clock generators satisfy the quantum torus relations with the
    stated commutation sign at n = 1 and 2."""
    reports = {n: torus_relations_sweep(n, range(2, 17)) for n in (1, 2)}
    max_defect = max(r.details["max_defect"] for r in reports.values())
    sign = reports[1].details["commutation_sign"]
    return CheckResult(
        cid=5,
        title="quantum torus generator relations",
        passed=all(r.passed for r in reports.values()),
        summary=f"max defect {max_defect:.3e} (tol {TORUS_RELATION_TOL:.0e}), commutation sign {sign:+d}",
        details={"max_defect": max_defect, "tolerance": TORUS_RELATION_TOL, "commutation_sign": sign},
        csv_blocks={f"n{n}": r.rows for n, r in reports.items()},
    )


def check_norm_bound() -> CheckResult:
    """Toeplitz 2-norms never exceed the coefficient l1 sum of the symbol."""
    reports = [norm_bound_sweep(f, POW2_LEVELS) for i in range(10) for f in _corpus_pair(i)]
    worst_ratio = max(row.error / r.details["bound"] for r in reports for row in r.rows)
    # judged on the certified upper values, and stricter than the sweep's
    # own 1e-10 relative tolerance
    ok = all(r.details["max_upper"] <= r.details["bound"] * (1.0 + 1e-12) + 1e-12 for r in reports)
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
        bound = math.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)) + 1e-9
        v = float(np.linalg.norm(a, 2))
        worst_margin = max(worst_margin, v - bound)
        if v > bound:
            violations += 1
    eye = np.eye(8, dtype=complex)
    id_norm = float(np.linalg.norm(eye, 2))
    id_bound = math.sqrt(np.linalg.norm(eye, 1) * np.linalg.norm(eye, np.inf))
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
    """Lattice averages of smooth profiles converge faster than any power:
    the traces of x-free symbols."""
    ast = funcexpr.parse("exp(cos(2*pi*y1))")
    mean = funcexpr.lattice_mean(ast, 1, 4096)
    smooth = trace_sweep(ast, (8, 16, 32, 64, 128), mean, 1)
    errs = [[r.k, r.error] for r in smooth.rows]

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
    band_limited = trace_sweep(g, range(3, 33))
    worst_bl = max(r.error for r in band_limited.rows)
    return CheckResult(
        cid=8,
        title="lattice Riemann sums",
        passed=smooth.passed and band_limited.passed,
        summary=(
            f"smooth profile decay holds (k=8 error {errs[0][1]:.3e}, floor beyond); "
            f"band-limited worst error {worst_bl:.3e}"
        ),
        details={
            "smooth_errors": errs,
            "smooth_exact_identity": smooth.series[0].outcome == "exact_identity",
            "band_limited_worst": worst_bl,
        },
        csv_blocks={"smooth_profile": smooth.rows},
    )


def _random_monomial(rng: np.random.Generator, n: int) -> TrigPoly:
    p = tuple(int(v) for v in rng.integers(-3, 4, size=n))
    q = tuple(int(v) for v in rng.integers(-3, 4, size=n))
    r = math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return TrigPoly.harmonic(n, p, q, r * complex(math.cos(theta), math.sin(theta)))


def _split_axis(poly: TrigPoly, axis: str) -> TrigPoly:
    """The terms of poly with their y (axis "x") or x (axis "y") frequencies
    set to zero, equal keys summed in key order."""
    n, zero = poly.n, (0,) * poly.n
    if axis == "x":
        return TrigPoly(n, [((p, zero), c) for (p, _q), c in poly.terms()])
    return TrigPoly(n, [((zero, q), c) for (_p, q), c in poly.terms()])


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
        flat = (
            (fx, g, Orientation.STAR),
            (f, gy, Orientation.STAR),
            (fy, g, Orientation.CHECK),
            (f, gx, Orientation.CHECK),
        )
        sep = max(c.l1_norm() for a, b, o in flat for c in star_truncated(a, b, 4, o).coefficients[1:])
        h = HbarValue(4)
        sep = max(sep, star_exact(fx, g, h, Orientation.STAR).l1_distance(fx.multiply(g)))
        sep = max(sep, star_exact(f, gy, h, Orientation.STAR).l1_distance(f.multiply(gy)))
        notes[f"separation_n{n}"] = rel(sep, scale)
        worst = max(worst, rel(sep, scale))
        # first-order terms reproduce the Poisson bracket, and the trace is
        # cyclic order by order
        target = poisson_bracket(f, g).scale(1j / (2.0 * math.pi))
        cyc = 0.0
        for o in Orientation:
            fg, gf = star_truncated(f, g, 4, o).coefficients, star_truncated(g, f, 4, o).coefficients
            err = rel((fg[1] - gf[1]).l1_distance(target), scale)
            notes[f"poisson_{o.value}_n{n}"] = err
            worst = max(worst, err)
            cyc = max(cyc, *(rel(abs(a.mean - b.mean), scale) for a, b in zip(fg, gf)))
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
    """Run criteria 1..9; returns (all passed, results, wall seconds)."""
    t0 = perf_counter()
    results = []
    for fn in ALL_CHECKS:
        res = fn()
        results.append(res)
        if echo is not None:
            echo(f"criterion {res.cid}: {'PASS' if res.passed else 'FAIL'} - {res.title}: {res.summary}")
    return all(r.passed for r in results), results, perf_counter() - t0
