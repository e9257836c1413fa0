"""Star product structure: bidifferential terms, exact phases, Berezin transform."""

import cmath
import math

import numpy as np
import pytest

from torusquant.starprod import (
    MAX_ORDER,
    HbarSeries,
    HbarValue,
    Orientation,
    berezin_exact,
    berezin_truncated,
    bidifferential,
    equivalence_map,
    star_exact,
    star_trace,
    star_truncated,
)
from torusquant.trigpoly import TrigPoly, poisson_bracket, random_trig_poly

X = TrigPoly.harmonic(1, (1,), (0,))  # e^{2 pi i x}
Y = TrigPoly.harmonic(1, (0,), (1,))  # e^{2 pi i y}
XY = TrigPoly.harmonic(1, (1,), (1,))


def test_hbar_value():
    h = HbarValue(4)
    assert h.hbar == 0.25
    with pytest.raises(ValueError):
        HbarValue(0)


def test_order_cap():
    with pytest.raises(ValueError):
        bidifferential(MAX_ORDER + 1, X, Y, Orientation.STAR)
    with pytest.raises(ValueError):
        star_truncated(X, Y, -1)


def test_bidifferential_order_zero_is_product():
    f = random_trig_poly(np.random.default_rng(1), 1, 1)
    g = random_trig_poly(np.random.default_rng(2), 1, 1)
    for o in Orientation:
        assert bidifferential(0, f, g, o).l1_distance(f.multiply(g)) < 1e-14


def test_bidifferential_monomial_phase_coefficients():
    # C_m(e^{2 pi i y}, e^{2 pi i x}) = (2 pi i)^m / m! times e^{2 pi i (x+y)}
    for m in range(5):
        term = bidifferential(m, Y, X, Orientation.STAR)
        got = term.coeff((1,), (1,))
        want = (2j * math.pi) ** m / math.factorial(m)
        assert abs(got - want) < 1e-10 * abs(want)


def test_separation_of_variables():
    # x-only f or y-only g kills every derivative term of the primary product
    f = TrigPoly(1, {((1,), (0,)): 1.0, ((2,), (0,)): 0.5})
    g = random_trig_poly(np.random.default_rng(3), 1, 2)
    for j in range(1, 5):
        assert bidifferential(j, f, g, Orientation.STAR).l1_norm() == 0.0
    h = TrigPoly(1, {((0,), (1,)): 2.0})
    for j in range(1, 5):
        assert bidifferential(j, g, h, Orientation.STAR).l1_norm() == 0.0


def test_first_order_antisymmetrization_is_poisson():
    f = random_trig_poly(np.random.default_rng(4), 1, 2)
    g = random_trig_poly(np.random.default_rng(5), 1, 2)
    target = poisson_bracket(f, g).scale(1j / (2 * math.pi))
    for o in Orientation:
        anti = bidifferential(1, f, g, o) - bidifferential(1, g, f, o)
        assert anti.l1_distance(target) < 1e-9


def test_moyal_first_order_is_half_antisymmetric():
    # Moyal C_1 is itself (i/4pi){f,g}; the symmetric part vanishes
    f = random_trig_poly(np.random.default_rng(6), 1, 1)
    g = random_trig_poly(np.random.default_rng(7), 1, 1)
    c1 = bidifferential(1, f, g, Orientation.MOYAL)
    want = poisson_bracket(f, g).scale(1j / (4 * math.pi))
    assert c1.l1_distance(want) < 1e-10


def test_star_truncated_series_layout():
    s = star_truncated(Y, X, 3)
    assert s.order == 3
    assert s.coefficient(0).l1_distance(Y.multiply(X)) < 1e-14
    # beyond the truncation order the series reads as zero
    assert s.coefficient(4).l1_norm() == 0.0


def test_star_exact_monomial_phase():
    # (0,1) * (1,0) picks up e^{2 pi i hbar} on the primary product
    k = 4
    got = star_exact(Y, X, HbarValue(k))
    want = cmath.exp(2j * math.pi / k)
    assert abs(got.coeff((1,), (1,)) - want) < 1e-14
    # and 1j * e^{2 pi i (x+y)} at hbar = 1/4
    assert abs(got.coeff((1,), (1,)) - 1j) < 1e-14


def test_star_exact_orientations_differ_by_phase_direction():
    k = 8
    h = HbarValue(k)
    a = star_exact(Y, X, h, Orientation.STAR).coeff((1,), (1,))
    b = star_exact(Y, X, h, Orientation.CHECK).coeff((1,), (1,))
    c = star_exact(Y, X, h, Orientation.MOYAL).coeff((1,), (1,))
    assert abs(a - cmath.exp(2j * math.pi / k)) < 1e-14
    assert abs(b - 1.0) < 1e-14  # no p.b coupling for this pair
    assert abs(c - cmath.exp(1j * math.pi / k)) < 1e-14
    d = star_exact(X, Y, h, Orientation.CHECK).coeff((1,), (1,))
    assert abs(d - cmath.exp(-2j * math.pi / k)) < 1e-14


def test_star_exact_matches_series_limit():
    # high-order truncation converges to the exact product at fixed hbar
    f = random_trig_poly(np.random.default_rng(8), 1, 1)
    g = random_trig_poly(np.random.default_rng(9), 1, 1)
    k = 64
    exact = star_exact(f, g, HbarValue(k))
    series = star_truncated(f, g, 12).evaluate(1.0 / k)
    assert exact.l1_distance(series) < 1e-12


def test_star_exact_associative():
    rng = np.random.default_rng(10)
    for n, k in ((1, 3), (1, 8), (2, 4)):
        h = HbarValue(k)
        polys = [random_trig_poly(rng, n, 1) for _ in range(3)]
        a, b, c = polys
        left = star_exact(star_exact(a, b, h), c, h)
        right = star_exact(a, star_exact(b, c, h), h)
        scale = a.l1_norm() * b.l1_norm() * c.l1_norm()
        assert left.l1_distance(right) < 1e-10 * max(scale, 1.0)


def test_berezin_exact_phase_sign():
    # the transform multiplies the (p, a) amplitude by e^{+2 pi i hbar p.a}
    k = 8
    got = berezin_exact(XY, HbarValue(k))
    want = cmath.exp(2j * math.pi / k)
    assert abs(got.coeff((1,), (1,)) - want) < 1e-14
    # the opposite sign is a different function; the exact identity pins it
    assert abs(got.coeff((1,), (1,)) - cmath.exp(-2j * math.pi / k)) > 1e-2


def test_berezin_truncated_is_exp_of_minus_laplacian():
    f = random_trig_poly(np.random.default_rng(13), 1, 2)
    series = berezin_truncated(f, 3)

    def minus_laplacian(u):  # -(i/2pi) d^2/dxdy
        return u.differentiate((1,), (1,)).scale(-1j / (2 * math.pi))

    expect0 = f
    expect1 = minus_laplacian(f)
    expect2 = minus_laplacian(minus_laplacian(f)).scale(0.5)
    assert series.coefficient(0).l1_distance(expect0) < 1e-13
    assert series.coefficient(1).l1_distance(expect1) < 1e-12
    assert series.coefficient(2).l1_distance(expect2) < 1e-12


def test_berezin_truncated_converges_to_exact():
    f = random_trig_poly(np.random.default_rng(14), 1, 1)
    k = 64
    exact = berezin_exact(f, HbarValue(k))
    series = berezin_truncated(f, 12).evaluate(1.0 / k)
    assert exact.l1_distance(series) < 1e-12


def test_berezin_intertwines_opposite_products():
    # B(f check_star g) = B(f) star B(g) exactly, monomial phase identity
    # -p.b + (p+q).(a+b) = p.a + a.q + q.b
    f = random_trig_poly(np.random.default_rng(15), 1, 1)
    g = random_trig_poly(np.random.default_rng(16), 1, 1)
    h = HbarValue(8)
    left = berezin_exact(star_exact(f, g, h, Orientation.CHECK), h)
    right = star_exact(berezin_exact(f, h), berezin_exact(g, h), h, Orientation.STAR)
    assert left.l1_distance(right) < 1e-12
    # the reversed pairing is a genuinely different function
    wrong = berezin_exact(star_exact(f, g, h, Orientation.STAR), h)
    assert wrong.l1_distance(right) > 1e-3


def test_equivalence_map_rejects_asymmetric_tensor():
    gamma = np.zeros((2, 2), dtype=complex)
    gamma[0, 1] = 1.0
    with pytest.raises(ValueError):
        equivalence_map(gamma, 1, XY)


def test_star_trace_examples():
    one = TrigPoly.constant(1, 1.0)
    assert abs(star_trace(one, HbarValue(10)) - 10.0) < 1e-12
    f = TrigPoly(1, {((0,), (0,)): 3.0, ((0,), (1,)): 0.5, ((0,), (-1,)): 0.5})
    assert abs(star_trace(f, HbarValue(4)) - 12.0) < 1e-12
    g2 = TrigPoly.constant(2, 2.0)
    assert abs(star_trace(g2, HbarValue(3)) - 18.0) < 1e-12


def test_star_trace_cyclic():
    f = random_trig_poly(np.random.default_rng(19), 1, 1)
    g = random_trig_poly(np.random.default_rng(20), 1, 1)
    h = HbarValue(6)
    tr_fg = star_trace(star_exact(f, g, h), h)
    tr_gf = star_trace(star_exact(g, f, h), h)
    assert abs(tr_fg - tr_gf) < 1e-10 * max(abs(tr_fg), 1.0)


def test_trace_cyclicity_order_by_order():
    f = random_trig_poly(np.random.default_rng(21), 1, 2)
    g = random_trig_poly(np.random.default_rng(22), 1, 2)
    for o in Orientation:
        for j in range(5):
            d = abs(bidifferential(j, f, g, o).mean - bidifferential(j, g, f, o).mean)
            assert d < 1e-10


def test_hbar_series_arithmetic():
    f = random_trig_poly(np.random.default_rng(23), 1, 1)
    g = random_trig_poly(np.random.default_rng(24), 1, 1)
    s = HbarSeries(1, (f, g))
    assert s.order == 1
    assert s.coefficient(1) == g
    assert s.coefficient(2) == TrigPoly.zero(1)
    val = s.evaluate(0.5)
    assert val.l1_distance(f + g.scale(0.5)) < 1e-13
    with pytest.raises(ValueError):
        HbarSeries(1, (f, TrigPoly.zero(2)))
    # a higher order may carry a key that cancels at order 0: f g has no
    # ((1,), (1,)) term, C_1(f, g) does, and evaluate keeps it
    f = TrigPoly(1, {((0,), (0,)): 1, ((0,), (1,)): 1})
    g = TrigPoly(1, {((1,), (1,)): 1, ((1,), (0,)): -1})
    series = star_truncated(f, g, 1)
    assert series.coefficient(0).coeff((1,), (1,)) == 0
    assert series.evaluate(0.25).coeff((1,), (1,)) == -1.5707963267948966j
