"""Trig polynomial algebra against grid-evaluation and finite-difference oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.trigpoly import (
    CODE_CELLS,
    DimensionMismatchError,
    TrigPoly,
    _group_keys,
    _group_pairs,
    box_keys,
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
    g = TrigPoly(1, {((1,), (0,)): 3.0})
    assert f.l1_distance(g) == 4.0


def test_bandwidths():
    f = TrigPoly(2, {((1, -3), (0, 2)): 1.0})
    assert f.x_bandwidth() == 3
    assert f.y_bandwidth() == 2
    assert f.bandwidth() == 3


def test_mean_is_constant_coefficient():
    f = TrigPoly(1, {((0,), (0,)): 2.5 + 1j, ((1,), (1,)): 9.0})
    assert f.mean == 2.5 + 1j


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


# -- key grouping against np.lexsort ------------------------------------------


def lexsort_groups(keys):
    """The row-wise grouping that the integer codes replace, kept as the
    oracle: a stable lexicographic sort, then runs of equal rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    return order, starts, ordered[starts]


def assert_same_groups(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


# Cells of the key boxes drawn: small boxes, the edges of the uint8, uint16
# and uint32 codes (2^bits cells, or one column one wider), and boxes of
# 2^63 cells or more, which take np.lexsort.
BOX_BITS = (None, 8, 16, 32, 62, 63, 64)


def draw_keys(seed: int, n: int, bits, count: int, span_cap: int = 5) -> np.ndarray:
    """``count`` rows of 2n columns, drawn with repeats from a pool of rows
    in a box of about 2^bits cells (small spans for bits None) whose two
    corners are among the rows, so the box is exact."""
    rng = np.random.default_rng(seed)
    width = 2 * n
    if bits is None:
        spans = rng.integers(1, span_cap + 1, size=width)
    else:
        column_bits = np.zeros(width, dtype=np.int64)
        for _ in range(bits):  # at most 40 bits per column keeps keys small
            column_bits[rng.choice(np.flatnonzero(column_bits < 40))] += 1
        spans = 2**column_bits
        spans[rng.integers(width)] += rng.integers(2)
    lows = rng.integers(-(2**20), 2**20, size=width)
    pool = lows + rng.integers(0, spans, size=(max(count // 3, 1), width))
    keys = pool[rng.integers(len(pool), size=count)]
    if count >= 2:
        corners = rng.choice(count, size=2, replace=False)
        keys[corners[0]], keys[corners[1]] = lows, lows + spans - 1
    return np.ascontiguousarray(keys, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.sampled_from(BOX_BITS), st.integers(0, 400))
def test_group_keys_matches_lexsort_bit_for_bit(seed, n, bits, count):
    keys = draw_keys(seed, n, bits, count)
    assert_same_groups(_group_keys(keys), lexsort_groups(keys))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.sampled_from(BOX_BITS),
    st.integers(0, 60),
    st.integers(0, 12),
)
def test_pair_codes_match_lexsort_of_the_pair_sums(seed, n, bits, f_count, g_count):
    # a one-row g leaves the box of f as the box of the pair sums
    f_keys = draw_keys(seed, n, bits, f_count)
    g_keys = draw_keys(seed + 1, n, None, g_count, span_cap=3)
    sums = (f_keys[:, None, :] + g_keys[None, :, :]).reshape(-1, 2 * n)
    assert_same_groups(_group_pairs(f_keys, g_keys), lexsort_groups(sums))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1])
def test_group_keys_of_empty_and_one_row_inputs(n, count):
    keys = np.full((count, 2 * n), -7, dtype=np.int64)
    assert_same_groups(_group_keys(keys), lexsort_groups(keys))
    for other in (np.zeros((0, 2 * n), dtype=np.int64), keys + 3):
        sums = (keys[:, None, :] + other[None, :, :]).reshape(-1, 2 * n)
        assert_same_groups(_group_pairs(keys, other), lexsort_groups(sums))


def test_box_edges_reach_every_code_width_and_the_fallback():
    # the drawn boxes cross each width, and some pass CODE_CELLS
    for bits in (8, 16, 32, 62, 63):
        keys = draw_keys(0, 2, bits, 50)
        cells = math.prod(int(c.max()) - int(c.min()) + 1 for c in keys.T)
        assert 2**bits <= cells <= 2 * 2**bits
    assert math.prod(int(c.max()) - int(c.min()) + 1 for c in draw_keys(0, 2, 64, 50).T) >= CODE_CELLS


@pytest.mark.parametrize("n, bandwidth", [(1, 0), (1, 3), (2, 1), (2, 2), (3, 1)])
def test_box_keys_are_the_box_in_lexicographic_order(n, bandwidth):
    box = list(itertools.product(range(-bandwidth, bandwidth + 1), repeat=2 * n))
    keys = box_keys(n, bandwidth)
    assert keys.dtype == np.int64 and keys.flags.c_contiguous
    assert keys.tolist() == [list(key) for key in box]


def test_box_keys_hold_no_axis_per_entry():
    # 2n entries are past numpy's array rank (32 axes on numpy 1.x, 64 on 2.x)
    assert box_keys(40, 0).tolist() == [[0] * 80]
