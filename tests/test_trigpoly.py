"""Trig polynomial algebra against grid-evaluation and finite-difference oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.trigpoly import (
    DimensionMismatchError,
    FibrewiseCoefficient,
    TrigPoly,
    poisson_bracket,
    random_trig_poly,
)

RNG = np.random.default_rng(101)


def grid_values(poly, m=16):
    """Evaluate on the uniform m^2n grid; the independent oracle for products."""
    pts = [i / m for i in range(m)]
    if poly.n != 1:
        raise ValueError("oracle helper is 1d only")
    return np.array([[poly.evaluate((x,), (y,)) for y in pts] for x in pts])


def test_constructors_and_terms():
    f = TrigPoly(1, {((1,), (0,)): 2.0, ((0,), (1,)): 1j})
    assert f.coeff((1,), (0,)) == 2.0
    assert f.coeff((0,), (1,)) == 1j
    assert f.coeff((5,), (5,)) == 0.0
    # terms come out sorted by frequency key
    keys = [k for k, _ in f.terms()]
    assert keys == sorted(keys)
    assert TrigPoly.zero(2).terms() == []
    c = TrigPoly.constant(1, 3.5)
    assert c.mean == 3.5
    h = TrigPoly.harmonic(1, (1,), (-2,), 0.5j)
    assert h.coeff((1,), (-2,)) == 0.5j


def test_duplicate_keys_accumulate():
    f = TrigPoly(1, [(((1,), (0,)), 1.0), (((1,), (0,)), 2.0)])
    assert f.coeff((1,), (0,)) == 3.0


def test_zero_coefficients_pruned():
    f = TrigPoly(1, {((1,), (0,)): 1.0, ((2,), (0,)): 0.0})
    assert len(f.terms()) == 1
    # only exact zeros go: dust far below the largest coefficient stays ...
    g = TrigPoly(1, {((1,), (0,)): 1.0, ((2,), (0,)): 1e-16})
    assert g.coeff((2,), (0,)) == 1e-16
    # ... until it is truncated explicitly, relative to the largest amplitude
    assert g.truncate(1e-14) == TrigPoly.harmonic(1, (1,), (0,))
    assert g.truncate(1e-16) == g
    assert TrigPoly.zero(1).truncate(1e-14) == TrigPoly.zero(1)


def test_arithmetic_keeps_small_terms_and_associates():
    # (1e-15 e^{2 pi i x} + 1) - 1 is 1e-15 e^{2 pi i x}, not the zero polynomial
    small = TrigPoly.harmonic(1, (1,), (0,), 1e-15)
    one = TrigPoly.constant(1, 1.0)
    assert (small + one) - one == small
    assert small + (one - one) == small
    a = random_trig_poly(np.random.default_rng(3), 1, 1)
    b = random_trig_poly(np.random.default_rng(4), 1, 1).scale(1e-15)
    c = a.scale(-1.0)
    left, right = (a + b) + c, a + (b + c)
    # both keep every term of b, to the rounding of a
    assert len(left) == len(right) == len(b)
    assert left.l1_distance(b) <= 1e-15 * a.l1_norm()
    assert right.l1_distance(b) <= 1e-15 * a.l1_norm()


def test_dimension_mismatch_raises():
    f = TrigPoly(1, {((1,), (0,)): 1.0})
    g = TrigPoly(2, {((1, 0), (0, 0)): 1.0})
    with pytest.raises(DimensionMismatchError):
        f + g
    with pytest.raises(DimensionMismatchError):
        f.multiply(g)


def test_evaluate_periodicity():
    f = random_trig_poly(RNG, 1, 2)
    v0 = f.evaluate((0.3,), (0.7,))
    v1 = f.evaluate((1.3,), (-0.3,))
    assert abs(v0 - v1) < 1e-12


def test_multiply_matches_grid_oracle():
    # convolution of coefficients == pointwise product of values
    f = random_trig_poly(np.random.default_rng(7), 1, 2)
    g = random_trig_poly(np.random.default_rng(8), 1, 2)
    prod = f.multiply(g)
    oracle = grid_values(f, 16) * grid_values(g, 16)
    assert np.max(np.abs(grid_values(prod, 16) - oracle)) < 1e-12


def test_cosine_square_identity():
    # (cos 2pi x)^2 = 1/2 + (1/2) cos 4pi x, frozen from the double-angle rule
    cos = TrigPoly(1, {((1,), (0,)): 0.5, ((-1,), (0,)): 0.5})
    sq = cos.multiply(cos)
    assert abs(sq.coeff((0,), (0,)) - 0.5) < 1e-15
    assert abs(sq.coeff((2,), (0,)) - 0.25) < 1e-15
    assert abs(sq.coeff((-2,), (0,)) - 0.25) < 1e-15
    assert len(sq.terms()) == 3


def test_scalar_operations():
    f = TrigPoly.harmonic(1, (1,), (0,), 2.0)
    assert (f * 0.5).coeff((1,), (0,)) == 1.0
    assert (0.5 * f).coeff((1,), (0,)) == 1.0
    assert (-f).coeff((1,), (0,)) == -2.0
    assert (f - f).terms() == []


def test_conjugate_against_values():
    f = random_trig_poly(np.random.default_rng(9), 1, 2)
    fc = f.conjugate()
    x, y = (0.21,), (0.63,)
    assert abs(fc.evaluate(x, y) - f.evaluate(x, y).conjugate()) < 1e-13


def test_differentiate_matches_finite_differences():
    f = random_trig_poly(np.random.default_rng(10), 1, 2)
    dfx = f.differentiate((1,), ())
    dfy = f.differentiate((), (1,))
    eps = 1e-6
    x, y = 0.37, 0.81
    fd_x = (f.evaluate((x + eps,), (y,)) - f.evaluate((x - eps,), (y,))) / (2 * eps)
    fd_y = (f.evaluate((x,), (y + eps,)) - f.evaluate((x,), (y - eps,))) / (2 * eps)
    assert abs(dfx.evaluate((x,), (y,)) - fd_x) < 1e-5
    assert abs(dfy.evaluate((x,), (y,)) - fd_y) < 1e-5


def test_differentiate_monomial_factor():
    # d/dx e^{2 pi i (3x - y)} pulls down 2 pi i * 3
    f = TrigPoly.harmonic(1, (3,), (-1,))
    d = f.differentiate((1,), ())
    assert abs(d.coeff((3,), (-1,)) - 2j * math.pi * 3) < 1e-12


def test_second_derivative_order():
    f = TrigPoly.harmonic(1, (2,), (1,))
    d = f.differentiate((2,), (1,))
    expected = (2j * math.pi * 2) ** 2 * (2j * math.pi * 1)
    assert abs(d.coeff((2,), (1,)) - expected) < 1e-10


def test_norms_and_distance():
    f = TrigPoly(1, {((1,), (0,)): 3.0, ((0,), (1,)): -4.0})
    assert f.l1_norm() == 7.0
    assert f.max_abs() == 4.0
    g = TrigPoly(1, {((1,), (0,)): 3.0})
    assert f.l1_distance(g) == 4.0
    assert f.isclose(f)
    assert not f.isclose(g)


def test_bandwidths():
    f = TrigPoly(2, {((1, -3), (0, 2)): 1.0})
    assert f.x_bandwidth() == 3
    assert f.y_bandwidth() == 2
    assert f.bandwidth() == 3


def test_mean_is_constant_coefficient():
    f = TrigPoly(1, {((0,), (0,)): 2.5 + 1j, ((1,), (1,)): 9.0})
    assert f.mean == 2.5 + 1j


def test_fibrewise_coefficient():
    # f = e^{2 pi i x} (2 + e^{2 pi i y}) has profile 2 + e^{2 pi i y} at m=1
    f = TrigPoly(1, {((1,), (0,)): 2.0, ((1,), (1,)): 1.0})
    fib = f.fibrewise_coefficient((1,))
    assert isinstance(fib, FibrewiseCoefficient)
    y = (0.3,)
    expected = 2.0 + cmath.exp(2j * math.pi * 0.3)
    assert abs(fib.evaluate(y) - expected) < 1e-13
    assert f.fibrewise_coefficient((5,)).evaluate(y) == 0.0
    assert f.x_frequencies() == [(1,)]


def test_records_round_trip():
    f = random_trig_poly(np.random.default_rng(11), 2, 1)
    back = TrigPoly.from_records(2, f.to_records())
    assert back == f


def test_poisson_bracket_products_leibniz():
    f = random_trig_poly(np.random.default_rng(12), 1, 1)
    g = random_trig_poly(np.random.default_rng(13), 1, 1)
    h = random_trig_poly(np.random.default_rng(14), 1, 1)
    left = poisson_bracket(f, g.multiply(h))
    right = poisson_bracket(f, g).multiply(h) + g.multiply(poisson_bracket(f, h))
    assert left.l1_distance(right) < 1e-9


def test_poisson_bracket_jacobi():
    f = random_trig_poly(np.random.default_rng(15), 1, 1)
    g = random_trig_poly(np.random.default_rng(16), 1, 1)
    h = random_trig_poly(np.random.default_rng(17), 1, 1)
    total = (
        poisson_bracket(f, poisson_bracket(g, h))
        + poisson_bracket(g, poisson_bracket(h, f))
        + poisson_bracket(h, poisson_bracket(f, g))
    )
    scale = f.l1_norm() * g.l1_norm() * h.l1_norm()
    assert total.l1_norm() < 1e-9 * max(scale, 1.0)


def test_poisson_bracket_canonical_pair():
    # {e^{2 pi i x}, e^{2 pi i y}} = -4 pi^2 e^{2 pi i (x+y)}
    f = TrigPoly.harmonic(1, (1,), (0,))
    g = TrigPoly.harmonic(1, (0,), (1,))
    b = poisson_bracket(f, g)
    assert abs(b.coeff((1,), (1,)) + 4 * math.pi**2) < 1e-10


def test_random_poly_support_and_determinism():
    a = random_trig_poly(np.random.default_rng(42), 1, 2)
    b = random_trig_poly(np.random.default_rng(42), 1, 2)
    assert a == b
    assert a.bandwidth() <= 2
    assert len(a.terms()) == 25
    flat = random_trig_poly(np.random.default_rng(42), 1, 2, decay=0.0)
    assert max(abs(c) for _, c in flat.terms()) <= 1.0


def test_random_poly_decay_weights():
    # decay shrinks high-frequency amplitudes against the flat draw
    flat = random_trig_poly(np.random.default_rng(5), 1, 2, decay=0.0)
    damped = random_trig_poly(np.random.default_rng(5), 1, 2, decay=4.0)
    ratio = abs(damped.coeff((2,), (2,))) / abs(flat.coeff((2,), (2,)))
    assert abs(ratio - (1 + 4 + 4) ** -2.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_multiply_commutes_and_distributes(seed_a, seed_b):
    f = random_trig_poly(np.random.default_rng(seed_a), 1, 1)
    g = random_trig_poly(np.random.default_rng(seed_b), 1, 1)
    assert f.multiply(g).l1_distance(g.multiply(f)) < 1e-12
    h = TrigPoly.harmonic(1, (1,), (0,), 0.5)
    left = f.multiply(g + h)
    right = f.multiply(g) + f.multiply(h)
    assert left.l1_distance(right) < 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluate_periodic_property(seed):
    f = random_trig_poly(np.random.default_rng(seed), 1, 1)
    rng = np.random.default_rng(seed + 1)
    x, y = rng.uniform(), rng.uniform()
    assert abs(f.evaluate((x,), (y,)) - f.evaluate((x + 1.0,), (y - 1.0,))) < 1e-10
