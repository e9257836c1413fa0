"""Norm estimators, error operators and the sweep driver."""

import cmath
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import iv

from torusquant import analysis, checks, funcexpr
from torusquant.analysis import (
    COMMUTATION_SIGN,
    ERROR_FLOOR,
    ConvergenceReport,
    L2Reading,
    NormKind,
    TooFewPointsError,
    _exact_transform_defect,
    _remainder_at,
    certified_l2_norm,
    error_intertwine,
    error_product,
    fit_slope,
    lattice_mean,
    operator_norm,
    riemann_sum_error,
    run_experiment,
    slope_window,
    superpoly_decay_ok,
    torus_relation_defects,
    trace_error,
    trace_sweep,
)
from torusquant.config import ConfigError, ExperimentConfig, FunctionSpec, parse_config
from torusquant.funcexpr import ProjectionSpec, evaluate, parse, project, variables
from torusquant.quantize import (
    DENSE_DIM_CAP,
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    toeplitz_diagonals,
)
from torusquant.starprod import (
    HbarValue,
    Orientation,
    berezin_map,
    berezin_truncated,
    product_map,
    star_exact,
    star_truncated,
)
from torusquant.trigpoly import TrigPoly, random_trig_poly

X = TrigPoly.harmonic(1, (1,), (0,))
Y = TrigPoly.harmonic(1, (0,), (1,))
XY = TrigPoly.harmonic(1, (1,), (1,))


def _wrapped(a) -> DiagonalOperator:
    """A square matrix as the n = 1 operator of its dim wrapped diagonals:
    entry a[m' + r, m'] sits at values[r, m']."""
    dim = len(a)
    cols = np.arange(dim)
    shifts = np.arange(dim)
    return DiagonalOperator(HilbertSpec(1, dim), shifts[:, None], a[(cols + shifts[:, None]) % dim, cols])


def test_wrapped_matrix_scatters_back():
    a = np.random.default_rng(30).normal(size=(7, 7)) + 0j
    assert np.array_equal(_wrapped(a).dense(), a)


def test_l2_route_is_the_lapack_two_norm_without_warnings():
    # matrices on which the former power iteration hit its cap or stopped
    # early: a near-degenerate top pair and a flat noise spectrum
    rng = np.random.default_rng(37)
    cases = [
        np.diag([1.0, 2.0, 3.0]).astype(complex),
        np.diag([1.0, 1.0 - 1e-9, 0.5]).astype(complex),
        rng.normal(size=(64, 64)) * 1e-16 + 1j * rng.normal(size=(64, 64)) * 1e-16,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in cases:
            reading = operator_norm(_wrapped(a), "l2")
            assert reading.method == "lapack_svd"
            assert reading == np.linalg.norm(a, 2)


def test_certified_norm_certificate_path():
    # near-zero operators (defects of exact identities): the interpolation
    # bound certifies them with no l2 route
    op = _wrapped(np.full((60, 60), 1e-16, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = certified_l2_norm(op, 1e-10)
    assert got.method == "interp_bound"
    assert got <= 60 * 1e-16 * (1.0 + 1e-12)
    assert got >= np.linalg.norm(op.dense(), 2) - 1e-18


def test_certified_norm_falls_back_to_iteration():
    rng = np.random.default_rng(33)
    a = rng.normal(size=(30, 30)) + 0j
    assert certified_l2_norm(_wrapped(a), 1e-10) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)


def test_entrywise_norms():
    op = _wrapped(np.array([[1.0, -2.0], [3j, 4.0]]))
    assert operator_norm(op, NormKind.L1) == 6.0
    assert operator_norm(op, "linf") == 7.0


def test_interpolation_bound_dominates():
    rng = np.random.default_rng(34)
    for _ in range(10):
        a = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        op = _wrapped(a)
        bound = math.sqrt(operator_norm(op, "l1") * operator_norm(op, "linf"))
        assert np.linalg.norm(a, 2) <= bound + 1e-9


def test_error_product_monomial():
    # Q_Y Q_X - Q_{YX}: the defect is (e^{2 pi i hbar} - 1) times a unitary
    for k in (4, 8):
        e = error_product(Y, X, 0, k)
        want = abs(cmath.exp(2j * cmath.pi / k) - 1.0)
        assert operator_norm(e, "l2") == pytest.approx(want, abs=1e-10)
    assert operator_norm(error_product(Y, X, 0, 4), "l2") == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_error_product_higher_order_smaller():
    f = random_trig_poly(np.random.default_rng(35), 1, 2)
    g = random_trig_poly(np.random.default_rng(36), 1, 2)
    k = 32
    norms = [operator_norm(error_product(f, g, order, k), "l2") for order in (0, 1, 2)]
    assert norms[0] > norms[1] > norms[2] > 0.0


def assert_remainder_routes_match_dense(f, g, order, k):
    """The remainder-symbol error operators against the dense routes they
    replace: Q_f Q_g - Q_{f *_N g} and Q^dual_f - Q_{B_N f}, the basis
    change leaving the matrix of Q^dual_f as it is."""
    spec = HilbertSpec(f.n, k)

    def dense(symbol, polarization=Polarization.POSITION):
        return toeplitz_diagonals(symbol, HilbertSpec(f.n, k, polarization)).dense()

    qf, qg = dense(f), dense(g)
    want = qf @ qg - dense(star_truncated(f, g, order).evaluate(1.0 / k))
    scale = np.linalg.norm(qf, 2) * np.linalg.norm(qg, 2)
    got = error_product(f, g, order, k)
    assert isinstance(got, DiagonalOperator) and got.spec == spec
    assert np.linalg.norm(got.dense() - want, 2) <= 1e-12 * scale
    want = dense(f, Polarization.MOMENTUM) - dense(berezin_truncated(f, order).evaluate(1.0 / k))
    got = error_intertwine(f, order, k)
    assert isinstance(got, DiagonalOperator) and got.spec == spec
    assert np.linalg.norm(got.dense() - want, 2) <= 1e-12 * np.linalg.norm(qf, 2)


# k <= 2 * bandwidth aliases frequencies of f (and of the product, whose
# bandwidth doubles); the explicit examples pin the smallest levels
@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from((0.0, 3.0, 8.0)),
    st.integers(0, 2),
    st.integers(2, 64),
)
@example(seed=1, bandwidth=3, decay=0.0, order=2, k=2)
@example(seed=2, bandwidth=3, decay=3.0, order=1, k=6)
def test_remainder_error_operators_match_dense_n1(seed, bandwidth, decay, order, k):
    rng = np.random.default_rng(seed)
    f = random_trig_poly(rng, 1, bandwidth, decay=decay)
    g = random_trig_poly(rng, 1, bandwidth, decay=decay)
    assert_remainder_routes_match_dense(f, g, order, k)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(2, 8))
@example(seed=3, order=2, k=2)
def test_remainder_error_operators_match_dense_n2(seed, order, k):
    rng = np.random.default_rng(seed)
    f = random_trig_poly(rng, 2, 1)
    g = random_trig_poly(rng, 2, 1)
    assert_remainder_routes_match_dense(f, g, order, k)


def test_error_product_vanishes_for_commuting_symbols():
    # x-only symbols quantize to commuting shifts; every truncation is exact
    f = TrigPoly(1, {((1,), (0,)): 0.7, ((2,), (0,)): 0.3j})
    g = TrigPoly(1, {((1,), (0,)): -0.2, ((3,), (0,)): 1.1})
    for order in (0, 1, 2):
        e = error_product(f, g, order, 8)
        assert np.abs(e.values).max(initial=0.0) < 1e-14


def test_error_intertwine_monomial():
    # order-0 truncation misses exactly the (p.a = 1) phase factor
    k = 8
    e = error_intertwine(XY, 0, k)
    want = abs(cmath.exp(2j * cmath.pi / k) - 1.0)
    assert operator_norm(e, "l2") == pytest.approx(want, abs=1e-10)
    # the exact transform leaves no defect at all
    exact = error_intertwine(XY, None, k)
    assert np.abs(exact.values).max(initial=0.0) < 1e-13


def test_error_intertwine_vanishes_on_separated_symbols():
    for f in (X, Y, TrigPoly(1, {((2,), (0,)): 1.0, ((0,), (0,)): 0.5})):
        for order in (None, 0, 2):
            e = error_intertwine(f, order, 6)
            assert np.abs(e.values).max(initial=0.0) < 1e-14


def tails(z: complex, last: int) -> list[complex]:
    """sum_{j > N} z^j / j! for N = 0..last, each summed smallest term
    first; with |z| <= 1/2 the 24 terms past ``last`` leave out less than
    1e-30 of the tail."""
    terms, term = [], 1.0 + 0.0j
    for j in range(1, last + 25):
        term *= z / j
        terms.append(term)
    return [sum(reversed(terms[order:])) for order in range(last + 1)]


def tail_oracles(n: int, terms, k: int, last: int) -> list[TrigPoly]:
    """The order-N remainder symbols, N = 0..last, of phase terms (key,
    amplitude, c angle): each amplitude times the tail of e^z, z = i pi
    (c angle) / k, summed per key with math.fsum, real and imaginary parts
    apart."""
    sums = [{} for _ in range(last + 1)]
    for key, amp, angle in terms:
        z = 1j * math.pi * angle / k
        assert abs(z) <= 0.5
        for per_key, tail in zip(sums, tails(z, last)):
            per_key.setdefault(key, []).append(amp * tail)
    return [
        TrigPoly(n, {key: complex(math.fsum(v.real for v in vs), math.fsum(v.imag for v in vs))
                     for key, vs in per_key.items()})
        for per_key in sums
    ]


def product_phase_terms(f, g, orientation):
    """(key, amplitude, c angle) of every term pair: c a.q, c p.b or
    a.q - p.b with c = 2, -2 and 1, as star_exact's docstring states."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    angle = {
        Orientation.STAR: lambda p, a, q, b: 2 * dot(a, q),
        Orientation.CHECK: lambda p, a, q, b: -2 * dot(p, b),
        Orientation.MOYAL: lambda p, a, q, b: dot(a, q) - dot(p, b),
    }[orientation]
    return [
        ((tuple(map(sum, zip(p, q))), tuple(map(sum, zip(a, b)))), x * y, angle(p, a, q, b))
        for (p, a), x in f.terms()
        for (q, b), y in g.terms()
    ]


@pytest.mark.parametrize("n, bandwidth", [(1, 2), (2, 1)])
@pytest.mark.parametrize("seed", [0, 3])
def test_remainders_are_the_tail_series_to_rounding(n, bandwidth, seed):
    # every |z| <= 1/2 at k = 64 and 256; the bound is relative to the
    # largest amplitude of the oracle's remainder symbol
    rng = np.random.default_rng(seed)
    f, g = (random_trig_poly(rng, n, bandwidth, decay=8.0) for _ in range(2))
    bounds = (1e-13, 1e-13, 2e-11)
    routes = [
        # error_product reads the STAR product
        (product_phase_terms(f, g, o),
         (lambda order, k: error_product(f, g, order, k)) if o is Orientation.STAR
         else (lambda order, k, o=o: _remainder_at(product_map(f, g, o), order)(k)))
        for o in Orientation
    ]
    routes.append(([(key, x, 2 * sum(p * a for p, a in zip(*key))) for key, x in f.terms()],
                   lambda order, k: error_intertwine(f, order, k)))
    for terms, route in routes:
        for k in (64, 256):
            for order, (want, bound) in enumerate(zip(tail_oracles(n, terms, k, 2), bounds)):
                error = route(order, k) - toeplitz_diagonals(want, HilbertSpec(n, k))
                assert np.abs(error.values).max() <= bound * np.abs(want.values).max()


def test_trace_error_band_limited():
    f = random_trig_poly(np.random.default_rng(37), 1, 2)
    for k in (3, 8, 17):
        assert trace_error(f, k) < 1e-13
    assert trace_error(f, 8, reference=f.mean + 0.25) == pytest.approx(0.25, abs=1e-12)
    # below the bandwidth the harmonic aliases onto the constant
    assert trace_error(Y, 1) == pytest.approx(1.0, abs=1e-14)


def test_riemann_error_band_limited():
    f = TrigPoly(1, {((0,), (1,)): 0.5, ((0,), (-1,)): 0.5, ((0,), (0,)): 2.0})
    for k in (2, 3, 9):
        assert riemann_sum_error(f, k) < 1e-14
    # alias: frequency 2 wraps to 0 at k = 2
    g = TrigPoly.harmonic(1, (0,), (2,))
    assert riemann_sum_error(g, 2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        riemann_sum_error(X, 4)
    # an expression profile needs its mean and must not read x
    with pytest.raises(ValueError):
        riemann_sum_error(parse("1"), 4)
    with pytest.raises(ValueError):
        riemann_sum_error(parse("cos(2*pi*x1)"), 4, mean=0.0)


def test_riemann_error_bessel_oracle():
    # profile exp(cos(2 pi y)): Fourier coefficients are modified Bessel
    # values iv(m, 1), so the k-point error is 2 * sum_{j>=1} iv(j*k, 1)
    profile = parse("exp(cos(2*pi*y1))")
    mean = float(iv(0, 1.0))
    for k in (4, 8):
        want = 2.0 * float(iv(k, 1.0) + iv(2 * k, 1.0))
        got = riemann_sum_error(profile, k, n=1, mean=mean)
        assert got == pytest.approx(want, rel=1e-9)


def _riemann_sum_pointwise(symbol, n: int, k: int) -> complex:
    """k^{-2n} sum over the level-k lattice (Z/k)^{2n}, one scalar evaluation
    per point and an exactly rounded sum: hbar^n tr Q_f by Poisson
    summation."""
    values = []
    for m in np.ndindex(*((k,) * (2 * n))):
        point = np.array(m) / k
        if isinstance(symbol, TrigPoly):  # sum_c c e^{2 pi i (p.x + q.y)} over the terms
            values.append(complex(symbol.values @ np.exp(2j * np.pi * (symbol.keys @ point))))
        else:
            values.append(complex(evaluate(symbol, point[:n], point[n:])))
    total = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    return total / float(k) ** (2 * n)


@pytest.mark.parametrize(
    "source, n",
    [
        ("exp(cos(2*pi*y1))", 1),
        ("1/(2 + sin(2*pi*y1)) - y1^3", 1),
        ("exp(sin(2*pi*y1)) * cos(2*pi*y2)^2 + y2", 2),
        ("1/(3 + cos(2*pi*y2))", 2),  # reads y2 only: y1 is never spread
        ("exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))", 1),
        ("x1^2 - sin(2*pi*(x1 + y1))", 1),
        ("exp(sin(2*pi*x2)) / (2 + cos(2*pi*(x1 - y2))) + y1", 2),
    ],
)
def test_riemann_sums_of_expressions_match_the_pointwise_sum(source, n):
    ast = parse(source)
    reads_x = any(v.axis == "x" for v in variables(ast))
    for k in (1, 3, 8, 13):
        want = _riemann_sum_pointwise(ast, n, k)
        assert lattice_mean(ast, k, n) == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert trace_error(ast, k, reference=0.0, n=n) == pytest.approx(abs(want), rel=1e-13, abs=1e-15)
        if not reads_x:
            assert riemann_sum_error(ast, k, n=n, mean=0.0) == trace_error(ast, k, reference=0.0, n=n)


@pytest.mark.parametrize("n", [1, 2])
def test_lattice_mean_is_the_pointwise_riemann_sum(n):
    f = random_trig_poly(np.random.default_rng(50 + n), n, 3)
    profile = TrigPoly(n, {((0,) * n, q): c for (p, q), c in f if not any(p)})
    for k in (1, 2, 3, 5, 7):  # aliasing levels included
        assert abs(lattice_mean(profile, k) - _riemann_sum_pointwise(profile, n, k)) <= 1e-13
        assert abs(lattice_mean(f, k) - _riemann_sum_pointwise(f, n, k)) <= 1e-13


@pytest.mark.parametrize(
    "source, n, bandwidth",
    [
        ("1.5 + cos(2*pi*(3*x1 - y1)) + sin(2*pi*2*y1) * cos(2*pi*x1)^2", 1, 3),
        ("0.5 + cos(2*pi*(2*x1 + y2)) * sin(2*pi*(x2 - 2*y1)) + cos(2*pi*2*x2)^2", 2, 4),
    ],
)
def test_trace_of_a_trig_polynomial_expression_is_the_matrix_trace(source, n, bandwidth):
    # the expression is its own projection, so its lattice mean must be the
    # trace of the assembled Toeplitz matrix, aliasing levels k <= bandwidth
    # included
    ast = parse(source)
    poly = project(ast, ProjectionSpec(bandwidth), n)
    for k in range(2, 2 * bandwidth + 2 if n == 1 else bandwidth + 3):
        a = toeplitz_diagonals(poly, HilbertSpec(n, k)).dense()
        assert abs(lattice_mean(ast, k, n) - np.trace(a) / k**n) <= 1e-13


def test_trace_sweep_of_a_complex_expression():
    re_ast = parse("exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))")
    im_ast = parse("sin(2*pi*y1)^2 * exp(sin(2*pi*x1))")
    for k in (2, 5, 16):
        want = lattice_mean(re_ast, k, 1) + 1j * lattice_mean(im_ast, k, 1)
        assert lattice_mean((re_ast, im_ast), k, 1) == want
    cfg = ExperimentConfig(
        experiment="trace", n=1, k_min=16, k_max=256, seed=0,
        f=FunctionSpec(expr="exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))",
                       expr_im="sin(2*pi*y1)^2 * exp(sin(2*pi*x1))", bandwidth=12),
    )
    report = run_experiment(cfg)
    assert report.passed and report.series[0].outcome == "fit"
    # mean of sin^2 is 1/2 and of exp(sin) is I_0(1)
    assert report.details["reference_im"] == pytest.approx(float(iv(0, 1.0)) / 2, rel=1e-13)
    # the imaginary part's lattice means are exact to rounding from k = 16
    # on (sin^2 from k = 3, exp(sin) aliases at I_k(1) < 1e-20), so the
    # errors are those of the real part alone
    real_only = run_experiment(dataclasses.replace(cfg, f=FunctionSpec(expr=cfg.f.expr, bandwidth=12)))
    assert [r.error for r in report.rows] == pytest.approx([r.error for r in real_only.rows], rel=1e-9, abs=1e-15)


def test_fit_slope_synthetic():
    pts = [(1.0 / k, 3.0 * (1.0 / k) ** 2) for k in (8, 16, 32, 64)]
    fit = fit_slope(pts)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.residual < 1e-12
    assert fit.n_used == 4
    assert fit.n_excluded == 0
    # scaling the errors moves the intercept, never the slope
    scaled = [(h, 17.0 * e) for h, e in pts]
    assert fit_slope(scaled).slope == pytest.approx(fit.slope, abs=1e-12)


def test_fit_slope_floor_exclusion():
    pts = [(0.1, 1e-2), (0.05, 1e-3), (0.02, 1e-4), (0.01, 1e-14)]
    fit = fit_slope(pts)
    assert fit.n_used == 3
    assert fit.n_excluded == 1
    with pytest.raises(TooFewPointsError) as info:
        fit_slope([(0.1, 1e-2), (0.05, 1e-3), (0.01, 1e-14)])
    assert info.value.n_points == 3
    assert info.value.n_usable == 2


def test_slope_window():
    assert slope_window(0) == (0.8, 2.2)
    assert slope_window(1) == (1.8, 3.2)
    assert slope_window(2) == (2.8, 4.2)


def test_superpoly_decay_cases():
    decaying = [(k, float(k) ** -6) for k in (8, 16, 32)]
    assert superpoly_decay_ok(decaying) == (True, False)
    marginal = [(k, float(k) ** -4) for k in (8, 16, 32)]  # scaled constant
    assert superpoly_decay_ok(marginal) == (False, False)
    all_floor = [(8, 0.0), (16, 1e-14), (32, 0.0)]
    assert superpoly_decay_ok(all_floor) == (True, True)
    floor_then_up = [(8, 1e-5), (16, 1e-14), (32, 1e-5)]
    assert superpoly_decay_ok(floor_then_up) == (False, False)
    floor_and_stay = [(8, 1e-5), (16, 1e-14), (32, 5e-14)]
    assert superpoly_decay_ok(floor_and_stay) == (True, False)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_torus_relation_defects_values(n):
    for k in range(2, 17):
        defect = torus_relation_defects(n, k)
        assert isinstance(defect, L2Reading) and defect < 1e-12


def test_the_opposite_commutation_sign_fails(monkeypatch):
    # the relations are checked against the stated sign, not a measured one:
    # with the sign flipped the same-axis relation reads |1 - e^{4 pi i hbar}|
    monkeypatch.setattr(analysis, "COMMUTATION_SIGN", 1)
    for n, k in ((1, 5), (2, 12)):
        assert torus_relation_defects(n, k) == pytest.approx(abs(1 - cmath.exp(4j * math.pi / k)), rel=1e-12)
    config = Path(__file__).resolve().parents[1] / "configs" / "torus_relations.json"
    report = run_experiment(parse_config(config))
    assert not report.passed and report.details["commutation_sign"] == 1
    result = checks.check_torus_relations()
    assert not result.passed and "commutation sign +1" in result.summary


def test_certified_norm_names_its_route():
    rng = np.random.default_rng(35)
    tiny = toeplitz_diagonals(TrigPoly.constant(1, 1e-15), HilbertSpec(1, 8))
    reading = certified_l2_norm(tiny, 1e-10)
    assert isinstance(reading, L2Reading) and reading.describe() == {"method": "interp_bound"}
    assert reading == reading.upper == pytest.approx(1e-15, rel=1e-12)
    op = toeplitz_diagonals(random_trig_poly(rng, 1, 2), HilbertSpec(1, 8))
    reading = certified_l2_norm(op, 1e-10)
    assert reading.method == "lapack_svd"
    assert reading == np.linalg.norm(op.dense(), 2)


def test_checks_run_matrix_free_above_the_dense_cap():
    # n = 2, k = 65: dimension 4225, above the dense cap
    k = 65
    spec = HilbertSpec(2, k)
    assert spec.dim > DENSE_DIM_CAP
    rng = np.random.default_rng(36)
    f, g = random_trig_poly(rng, 2, 1), random_trig_poly(rng, 2, 1)
    tracemalloc.start()
    try:
        # criterion 1: the operator product against the exact star product
        product = toeplitz_diagonals(f, spec) @ toeplitz_diagonals(g, spec)
        tol = 1e-10 * (1.0 + f.l1_norm() * g.l1_norm())  # ||Q_f|| <= ||f||_l1
        defect = certified_l2_norm(product - toeplitz_diagonals(star_exact(f, g, HbarValue(k)), spec), tol)
        assert defect <= tol
        # criterion 3: the basis change against the exact transform
        assert certified_l2_norm(_exact_transform_defect(f, k), 1e-10) <= 1e-10
        # criterion 4: band-limited traces are exact
        assert trace_error(f, k) <= 1e-10 * abs(f.mean) + 1e-12
        # criterion 5: the generator relations
        relations = torus_relation_defects(2, k)
        assert relations <= 1e-12 and relations.method == "interp_bound"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * spec.dim**2 / 2


RANDOM_F = FunctionSpec(random_bandwidth=2, random_decay=8.0)


def test_run_product_experiment():
    cfg = ExperimentConfig(
        experiment="product", n=1, k_min=8, k_max=64, order=1, seed=7,
        f=RANDOM_F, g=RANDOM_F,
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.experiment == "product"
    assert {s.norm_kind for s in report.series} == {"l1", "l2", "linf"}
    l2 = next(s for s in report.series if s.norm_kind == "l2")
    assert l2.outcome == "fit"
    assert l2.window == (1.8, 3.2)
    assert 1.8 <= l2.slope <= 3.2
    ks = sorted({r.k for r in report.rows})
    assert ks == [8, 16, 32, 64]


def test_run_product_exact_identity_outcome():
    cfg = ExperimentConfig(
        experiment="product", n=1, k_min=4, k_max=16, order=0, seed=1,
        f=FunctionSpec(coeffs=({"p": [0], "q": [0], "re": 1.0, "im": 0.0},)),
        g=RANDOM_F,
    )
    report = run_experiment(cfg)
    assert report.passed
    assert all(s.outcome == "exact_identity" for s in report.series)


def test_run_intertwine_experiment():
    cfg = ExperimentConfig(
        experiment="intertwine", n=1, k_min=8, k_max=64, order=1, seed=11, f=RANDOM_F,
    )
    report = run_experiment(cfg)
    assert report.passed
    exact = next(s for s in report.series if s.name == "exact_transform")
    assert exact.outcome == "exact_identity"
    assert report.details["transform_phase"] == "+p.a"
    assert report.details["error_floor"] == ERROR_FLOOR
    assert report.details["exact_max_error"] <= 1e-10


def test_run_trace_band_limited():
    cfg = ExperimentConfig(
        experiment="trace", n=1, k_min=4, k_max=16, k_rule="linear", seed=2,
        f=FunctionSpec(coeffs=(
            {"p": [1], "q": [1], "re": 0.5, "im": 0.0},
            {"p": [0], "q": [0], "re": 2.0, "im": 0.0},
        )),
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.details["bandwidth"] == 1
    assert report.details["levels_judged"] == list(range(2, 17))[2:]


def test_run_trace_expression_decay():
    # traced as itself, not its projection: the projection to bandwidth 10
    # would read one constant at every level above 10
    cfg = ExperimentConfig(
        experiment="trace", n=1, k_min=16, k_max=128, seed=0,
        f=FunctionSpec(expr="exp(cos(2*pi*x1)) * (cos(2*pi*y1) / (1.1 - cos(2*pi*y1)))", bandwidth=10, grid=48),
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.series[0].name == "trace_decay"
    assert report.series[0].outcome == "fit"
    assert sum(r.error > ERROR_FLOOR for r in report.rows) == 3


def test_run_riemann_expression():
    # a Riemann sum is the trace of an x-free symbol
    cfg = ExperimentConfig(
        experiment="trace", n=1, k_min=8, k_max=64, seed=0,
        f=FunctionSpec(expr="exp(cos(2*pi*y1))", bandwidth=8),
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.details["reference_re"] == pytest.approx(float(iv(0, 1.0)), rel=1e-12)
    assert report.details["reference_im"] == 0.0
    for row in report.rows:
        assert row.error == riemann_sum_error(parse(cfg.f.expr), row.k, n=1, mean=report.details["reference_re"])


def test_trace_reference_grid_counts_the_axes_read():
    # an x-free profile at n = 2 reads one axis of four: its reference grid
    # is held to the sample budget along that axis, not spread over all four
    # (64 points, whose aliasing error of 1.7e-3 every level above 64 read)
    cfg = ExperimentConfig(
        experiment="trace", n=2, k_min=64, k_max=512, seed=0,
        f=FunctionSpec(expr="1/(1.01 - cos(2*pi*y1))", bandwidth=2),
    )
    report = run_experiment(cfg)
    assert report.details["reference_re"] == pytest.approx(1 / math.sqrt(1.01**2 - 1), rel=1e-13)
    assert report.passed and report.rows[-1].error <= ERROR_FLOOR


@pytest.mark.parametrize(
    "n, k_max, variables, grid",
    [(3, 27, 5, 27), (5, 5, 10, 5), (8, 3, 15, 3)],  # rounded up to even, 28, 6 and 4
)
def test_trace_reference_grid_stays_within_the_sample_budget(monkeypatch, n, k_max, variables, grid):
    names = [f"{axis}{i}" for axis in "xy" for i in range(1, n + 1)][:variables]
    data = {"experiment": "trace", "n": n, "k_min": 2, "k_max": k_max,
            "f": {"expr": " + ".join(f"cos(2*pi*{v})" for v in names), "bandwidth": 1}}
    cfg = parse_config(data)
    grids = []
    # nothing is evaluated: 4^15 samples would be 2^30
    monkeypatch.setattr(analysis, "expression_mean", lambda spec, n, grid, path: grids.append(grid) or 0j)
    analysis._expression_mean(cfg.f, cfg.n, max(cfg.k_values()))
    assert grids == [grid] and grid ** variables <= funcexpr.SAMPLE_BUDGET < (grid + 1) ** variables


def test_run_norm_bound():
    cfg = ExperimentConfig(
        experiment="norm_bound", n=1, k_min=8, k_max=32, seed=3,
        f=FunctionSpec(random_bandwidth=3),
    )
    report = run_experiment(cfg)
    assert report.passed
    assert report.details["max_norm"] <= report.details["bound"] + report.details["tolerance"]
    assert all(r.norm_kind == "l2" for r in report.rows)


def test_run_torus_relations():
    cfg = ExperimentConfig(experiment="torus_relations", n=1, k_min=2, k_max=8, k_rule="linear")
    report = run_experiment(cfg)
    assert report.passed
    assert report.details["commutation_sign"] == COMMUTATION_SIGN == -1
    assert "signs_by_level" not in report.details and "note" not in report.details


def test_run_experiment_rejects_star_table():
    # a library caller gets the field path that the CLI prints
    cfg = ExperimentConfig(experiment="star_table", n=1, f=RANDOM_F, g=RANDOM_F)
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    assert (info.value.path, str(info.value)) == (
        "experiment", "experiment: star_table configs are handled by the star subcommand"
    )


def test_run_experiment_refuses_a_polarization_it_would_ignore():
    cfg = ExperimentConfig(experiment="trace", n=1, f=RANDOM_F, polarization="momentum")
    with pytest.raises(ConfigError, match="polarization"):
        run_experiment(cfg)


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(
        experiment="product", n=1, k_min=8, k_max=32, order=0, seed=5,
        f=RANDOM_F, g=RANDOM_F,
    )
    a = run_experiment(cfg).to_dict()
    b = run_experiment(cfg).to_dict()
    assert a == b


def test_report_rows_sorted_in_dict():
    cfg = ExperimentConfig(
        experiment="product", n=1, k_min=8, k_max=16, order=0, seed=5,
        f=RANDOM_F, g=RANDOM_F,
    )
    out = run_experiment(cfg).to_dict()
    keys = [(r["k"], r["norm_kind"]) for r in out["rows"]]
    assert keys == sorted(keys)
