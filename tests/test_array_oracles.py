"""Array routes of the symbol algebra against dict-of-tuples references.

``TrigPoly`` keeps sorted key and value arrays and reduces outer sums with one
sort; the star products read each order off the Taylor series of a closed-form
phase.  The references here are the plain loops over ``{(p, q): c}`` dicts
that those routes replaced, and for the truncated products the multi-index
derivative formula of each orientation (see ``torusquant.starprod``), built
from dict derivatives and dict products only.  Every comparison allows 1e-12
relative to the l1 size of the operands: the sum of |c_f c_g| times the size
of the pair's factor, which is what rounding can move.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant.starprod import (
    HbarValue,
    Orientation,
    berezin_exact,
    bidifferential,
    star_exact,
    star_truncated,
)
from torusquant.trigpoly import MAX_FREQ, TrigPoly

REL_TOL = 1e-12
ORIENTATIONS = tuple(Orientation)

# -- dict-of-tuples references ------------------------------------------------


def as_dict(poly: TrigPoly) -> dict:
    return dict(poly.terms())


def _add(acc: dict, key, value) -> None:
    acc[key] = acc.get(key, 0.0j) + value


def _vec_sum(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def ref_multiply(f: dict, g: dict) -> dict:
    acc: dict = {}
    for (p1, q1), c1 in f.items():
        for (p2, q2), c2 in g.items():
            _add(acc, (_vec_sum(p1, p2), _vec_sum(q1, q2)), c1 * c2)
    return acc


def ref_angle(p, a, q, b, orientation: Orientation) -> float:
    """theta with the exact pair phase e^{i theta hbar}."""
    if orientation is Orientation.STAR:
        return 2.0 * math.pi * _dot(a, q)
    if orientation is Orientation.CHECK:
        return -2.0 * math.pi * _dot(p, b)
    return math.pi * (_dot(a, q) - _dot(p, b))


def ref_star_exact(f: dict, g: dict, k: int, orientation: Orientation) -> dict:
    acc: dict = {}
    for (p, a), cf in f.items():
        for (q, b), cg in g.items():
            phase = ref_angle(p, a, q, b, orientation) / k
            _add(acc, (_vec_sum(p, q), _vec_sum(a, b)), cf * cg * cmath.exp(1j * phase))
    return acc


def ref_berezin_exact(f: dict, k: int) -> dict:
    return {(p, a): c * cmath.exp(2j * math.pi * _dot(p, a) / k) for (p, a), c in f.items()}


def ref_differentiate(f: dict, x_orders, y_orders) -> dict:
    out = {}
    for (p, q), c in f.items():
        factor = 1.0 + 0.0j
        for freq, order in zip(p + q, tuple(x_orders) + tuple(y_orders)):
            factor *= (2j * math.pi * freq) ** order
        if factor != 0:
            out[(p, q)] = c * factor
    return out


@lru_cache(maxsize=None)
def multi_indices(total: int, slots: int) -> tuple:
    if slots == 1:
        return ((total,),)
    return tuple((first,) + rest for first in range(total + 1) for rest in multi_indices(total - first, slots - 1))


def _factorial_of(index) -> int:
    return math.prod(math.factorial(v) for v in index)


def ref_bidifferential(order: int, f: dict, g: dict, n: int, orientation: Orientation) -> dict:
    """The multi-index derivative formula of each orientation, on dicts."""
    zero = (0,) * n
    acc: dict = {}

    def add_term(left: dict, right: dict, weight: complex) -> None:
        for key, c in ref_multiply(left, right).items():
            _add(acc, key, c * weight)

    if orientation is Orientation.STAR:
        for I in multi_indices(order, n):
            weight = (1.0 / (2j * math.pi)) ** order / _factorial_of(I)
            add_term(ref_differentiate(f, zero, I), ref_differentiate(g, I, zero), weight)
    elif orientation is Orientation.CHECK:
        for I in multi_indices(order, n):
            weight = (1j / (2.0 * math.pi)) ** order / _factorial_of(I)
            add_term(ref_differentiate(f, I, zero), ref_differentiate(g, zero, I), weight)
    else:
        for j in range(order + 1):
            for I in multi_indices(j, n):
                for J in multi_indices(order - j, n):
                    weight = (1j / (4.0 * math.pi)) ** order * (-1.0) ** (order - j)
                    weight /= _factorial_of(I) * _factorial_of(J)
                    add_term(ref_differentiate(f, I, J), ref_differentiate(g, J, I), weight)
    return acc


def ref_size(f: dict, g: dict, order: int = 0, orientation: Orientation = Orientation.STAR) -> float:
    """Sum over term pairs of |c_f c_g| |theta|^order / order!."""
    total = 0.0
    for (p, a), cf in f.items():
        for (q, b), cg in g.items():
            theta = ref_angle(p, a, q, b, orientation)
            total += abs(cf * cg) * abs(theta) ** order / math.factorial(order)
    return total


def distance(poly: TrigPoly, ref: dict) -> float:
    got = as_dict(poly)
    return sum(abs(got.get(key, 0.0j) - ref.get(key, 0.0j)) for key in set(got) | set(ref))


def assert_matches(poly: TrigPoly, ref: dict, size: float) -> None:
    assert distance(poly, ref) <= REL_TOL * size
    # the arrays hold sorted, unique, nonzero terms
    keys = [key for key, _c in poly.terms()]
    assert keys == sorted(set(keys))
    assert all(c != 0 for _key, c in poly.terms())


# -- inputs -----------------------------------------------------------------------


def make_poly(seed: int, n: int, aliasing_free: bool, base: bool) -> TrigPoly:
    """A random polynomial of 1 to 9 terms.

    With random keys (|p_i|, |q_i| <= 2) many term pairs land on the same
    product key.  With ``aliasing_free`` the keys of the ``base`` factor are
    multiples of 8 and those of the other factor lie in [-3, 3], so every
    pair has its own product key and no reduction sums anything.
    """
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 10))
    if aliasing_free and base:
        keys = 8 * rng.integers(-2, 3, size=(count, 2 * n))
    elif aliasing_free:
        keys = rng.integers(-3, 4, size=(count, 2 * n))
    else:
        keys = rng.integers(-2, 3, size=(count, 2 * n))
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    return TrigPoly(n, [((tuple(k[:n]), tuple(k[n:])), c) for k, c in zip(keys.tolist(), values)])


pairs = st.builds(
    lambda seed, n, aliasing_free: (
        make_poly(seed, n, aliasing_free, True),
        make_poly(seed + 1, n, aliasing_free, False),
    ),
    st.integers(0, 2**32 - 2),
    st.sampled_from((1, 2)),
    st.booleans(),
)


# -- comparisons ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_multiply_matches_the_dict_convolution(pair):
    f, g = pair
    fd, gd = as_dict(f), as_dict(g)
    assert_matches(f.multiply(g), ref_multiply(fd, gd), ref_size(fd, gd))


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_ring_operations_match_the_dict_references(pair):
    f, g = pair
    fd, gd = as_dict(f), as_dict(g)
    size = f.l1_norm() + g.l1_norm()
    added, subtracted = dict(fd), dict(fd)
    for key, c in gd.items():
        _add(added, key, c)
        _add(subtracted, key, -c)
    assert_matches(f + g, added, size)
    assert_matches(f - g, subtracted, size)
    assert_matches(f.scale(0.5 - 2j), {key: c * (0.5 - 2j) for key, c in fd.items()}, 3 * size)
    conj = {(tuple(-v for v in p), tuple(-v for v in q)): c.conjugate() for (p, q), c in fd.items()}
    assert_matches(f.conjugate(), conj, size)
    orders = ((1,) * f.n, (2,) + (0,) * (f.n - 1))
    derivative = ref_differentiate(fd, *orders)
    assert_matches(f.differentiate(*orders), derivative, sum(abs(c) for c in derivative.values()))


@settings(max_examples=40, deadline=None)
@given(pairs, st.sampled_from(ORIENTATIONS), st.integers(1, 64))
def test_star_exact_matches_the_dict_phases(pair, orientation, k):
    f, g = pair
    fd, gd = as_dict(f), as_dict(g)
    got = star_exact(f, g, HbarValue(k), orientation)
    assert_matches(got, ref_star_exact(fd, gd, k, orientation), ref_size(fd, gd))


@settings(max_examples=40, deadline=None)
@given(pairs, st.integers(1, 64))
def test_berezin_exact_matches_the_dict_phases(pair, k):
    f, _g = pair
    got = berezin_exact(f, HbarValue(k))
    assert_matches(got, ref_berezin_exact(as_dict(f), k), f.l1_norm())


@settings(max_examples=30, deadline=None)
@given(pairs, st.sampled_from(ORIENTATIONS))
def test_truncated_orders_match_the_derivative_formula(pair, orientation):
    f, g = pair
    fd, gd = as_dict(f), as_dict(g)
    series = star_truncated(f, g, 4, orientation)
    assert series.order == 4
    for j in range(5):
        ref = ref_bidifferential(j, fd, gd, f.n, orientation)
        size = ref_size(fd, gd, j, orientation)
        assert_matches(series.coefficient(j), ref, size)
        assert_matches(bidifferential(j, f, g, orientation), ref, size)


def test_keys_at_the_frequency_bound_neither_wrap_nor_pass_it():
    # pair sums and the Moyal dot products of the largest allowed keys stay
    # exact in int64; one more is refused where keys come in
    big = MAX_FREQ
    f = TrigPoly(2, {((big, -big), (big, 1)): 1.0, ((-big, big), (1, -big)): 2.0j, ((0, 0), (0, 0)): 0.5})
    g = TrigPoly(2, {((big, big), (-big, -1)): 3.0, ((0, 0), (1, 0)): -1.0, ((-big, big), (1, big)): 0.25})
    fd, gd = as_dict(f), as_dict(g)
    assert [key for key, _c in f.terms()] == sorted(fd)
    assert_matches(f.multiply(g), ref_multiply(fd, gd), ref_size(fd, gd))
    summed = dict(fd)
    for key, c in gd.items():
        _add(summed, key, c)
    assert_matches(f + g, summed, f.l1_norm() + g.l1_norm())
    for orientation in ORIENTATIONS:
        ref = ref_bidifferential(1, fd, gd, 2, orientation)
        assert_matches(bidifferential(1, f, g, orientation), ref, ref_size(fd, gd, 1, orientation))
    for key in (((big + 1, 0), (0, 0)), ((0, 0), (0, -big - 1)), ((2**63, 0), (0, 0))):
        with pytest.raises(ValueError, match="at most"):
            TrigPoly(2, {key: 1.0})


def test_truncated_orders_on_full_boxes():
    # every frequency of the box on both sides: the heaviest aliasing
    rng = np.random.default_rng(77)
    for n, bandwidth in ((1, 3), (2, 1)):
        f, g = (make_box(rng, n, bandwidth) for _ in range(2))
        fd, gd = as_dict(f), as_dict(g)
        for orientation in ORIENTATIONS:
            series = star_truncated(f, g, 4, orientation)
            for j in range(5):
                ref = ref_bidifferential(j, fd, gd, n, orientation)
                assert_matches(series.coefficient(j), ref, ref_size(fd, gd, j, orientation))


def make_box(rng, n: int, bandwidth: int) -> TrigPoly:
    side = range(-bandwidth, bandwidth + 1)
    keys = np.array(np.meshgrid(*[side] * (2 * n), indexing="ij")).reshape(2 * n, -1).T
    values = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return TrigPoly(n, [((tuple(k[:n]), tuple(k[n:])), c) for k, c in zip(keys.tolist(), values)])
