"""Array routes of the symbol algebra against dict-of-tuples references.

``TrigPoly`` keeps sorted key and value arrays and reduces outer sums with one
sort; the star products, the Berezin series and the equivalence maps read
each order off the Taylor series of a per-term phase.  The references here
are the plain loops over ``{(p, q): c}`` dicts that those routes replaced,
and for the series the derivative formulas they stand for (see
``torusquant.starprod``): the multi-index formula of each product, powers of
the mixed Laplacian, and powers of the second-order operator d_gamma, built
from dict derivatives and dict products only (the multi-index sum of each
product is summed in exact integers, so a cancelling sum is exactly zero and
not a rounding remainder).  Every comparison allows 1e-12
relative to the l1 size of the operands: the sum of |c_f c_g| (or |c_f|)
times the size of the term's factor, which is what rounding can move.
"""

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant import starprod, trigpoly
from torusquant.starprod import (
    HbarValue,
    Orientation,
    berezin_exact,
    berezin_truncated,
    bidifferential,
    equivalence_map,
    star_exact,
    star_truncated,
)
from torusquant.trigpoly import MAX_FREQ, TrigPoly, random_trig_poly

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


def _monomial(freqs, orders) -> int:
    """prod_i freqs_i^orders_i: d^orders e^{2 pi i freqs.u} over (2 pi i)^|orders| e^{2 pi i freqs.u}."""
    return math.prod(v**o for v, o in zip(freqs, orders))


def ref_bidifferential(order: int, f: dict, g: dict, n: int, orientation: Orientation) -> dict:
    """The multi-index derivative formula of each orientation, on dicts.

    Each summand pairs orders (x, y) on f with orders (x', y') on g.  On a
    pair of exponentials the derivatives are (2 pi i)^(2 order) times integer
    monomials in the frequencies, so the multi-index sum is taken exactly in
    integers (scaled by order!) and its cancellations leave no rounding; the
    constant and the amplitudes multiply it once per pair.
    """
    zero = (0,) * n
    # summands as (orders on (x, y) of f, orders on (x, y) of g, sign)
    if orientation is Orientation.STAR:
        const = (1.0 / (2j * math.pi)) ** order
        summands = [(zero + I, I + zero, 1) for I in multi_indices(order, n)]
    elif orientation is Orientation.CHECK:
        const = (1j / (2.0 * math.pi)) ** order
        summands = [(I + zero, zero + I, 1) for I in multi_indices(order, n)]
    else:
        const = (1j / (4.0 * math.pi)) ** order
        summands = [
            (I + J, J + I, (-1) ** (order - j))
            for j in range(order + 1)
            for I in multi_indices(j, n)
            for J in multi_indices(order - j, n)
        ]
    const *= (2j * math.pi) ** (2 * order) / math.factorial(order)
    # the weight 1 / (I! J!) of a summand times order! is a multinomial coefficient
    weighted = [(fo, go, sign * math.factorial(order) // _factorial_of(fo)) for fo, go, sign in summands]
    acc: dict = {}
    for (p, a), cf in f.items():
        for (q, b), cg in g.items():
            total = sum(w * _monomial(p + a, fo) * _monomial(q + b, go) for fo, go, w in weighted)
            if total:
                _add(acc, (_vec_sum(p, q), _vec_sum(a, b)), cf * cg * const * total)
    return acc


def ref_mixed_laplacian(f: dict, n: int) -> dict:
    """Delta f = (i / 2 pi) sum_i d^2 f / dx_i dy_i."""
    acc: dict = {}
    for i in range(n):
        e = tuple(int(j == i) for j in range(n))
        for key, c in ref_differentiate(f, e, e).items():
            _add(acc, key, c * (1j / (2.0 * math.pi)))
    return acc


def ref_second_order(gamma: np.ndarray, f: dict, n: int) -> dict:
    """d_gamma f = sum_ij gamma[i, j] d^2 f / du_i du_j, u = (x_1..x_n, y_1..y_n)."""
    acc: dict = {}
    for i in range(2 * n):
        for j in range(2 * n):
            if gamma[i, j] == 0:
                continue
            orders = [0] * (2 * n)
            orders[i] += 1
            orders[j] += 1
            for key, c in ref_differentiate(f, orders[:n], orders[n:]).items():
                _add(acc, key, c * gamma[i, j])
    return acc


def ref_operator_series(step, f: dict, order: int, scale: complex) -> list:
    """[f, step(f) s / 1!, step(step(f)) s^2 / 2!, ...]: the terms of e^{s hbar step} f."""
    terms, current = [f], f
    for j in range(1, order + 1):
        current = step(current)
        terms.append({key: c * scale**j / math.factorial(j) for key, c in current.items()})
    return terms


def orientation_tensor(orientation: Orientation, n: int) -> np.ndarray:
    """2n x 2n matrix T with product = Mult o e^{hbar d_T} on exponentials.

    Coordinates are ordered (x_1..x_n, y_1..y_n); entry T[i, j] weights the
    second-order operator acting as d/du_i on the left factor and d/du_j on
    the right factor.
    """
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    for i in range(n):
        if orientation is Orientation.STAR:
            T[n + i, i] = 1.0 / (2j * math.pi)
        elif orientation is Orientation.CHECK:
            T[i, n + i] = 1j / (2.0 * math.pi)
        else:
            T[i, n + i] = 1j / (4.0 * math.pi)
            T[n + i, i] = -1j / (4.0 * math.pi)
    return T


def ref_map_size(f: dict, weights: np.ndarray, order: int) -> float:
    """Sum over terms u of |c| (2 pi^2 sum_ij |weights_ij u_i u_j|)^order / order!."""
    total = 0.0
    for (p, a), c in f.items():
        u = np.array(p + a, dtype=float)
        total += abs(c) * (2.0 * math.pi**2 * (np.abs(weights) * np.abs(np.outer(u, u))).sum()) ** order
    return total / math.factorial(order)


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
    # exact in int64, and their key box, past 2^63 cells, is grouped by
    # np.lexsort; one more is refused where keys come in
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
        # at k = 1 and 8, hbar is a power of two, so the phases of both
        # routes round to the same double even where they pass 2^49
        for k in (1, 8):
            assert_matches(star_exact(f, g, HbarValue(k), orientation), ref_star_exact(fd, gd, k, orientation),
                           ref_size(fd, gd))
        series, hbar = star_truncated(f, g, 2, orientation), 1 / 8
        summed, size = {}, 0.0
        for j, coefficient in enumerate(series.coefficients):
            for key, c in coefficient.terms():
                _add(summed, key, c * hbar**j)
                size += abs(c) * hbar**j
        assert_matches(series.evaluate(hbar), summed, size)
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


# -- Berezin series and equivalence maps --------------------------------------------

GAMMA_BEREZIN = {n: orientation_tensor(Orientation.STAR, n) - orientation_tensor(Orientation.CHECK, n) for n in (1, 2)}
GAMMA_MOYAL_STAR = {
    n: orientation_tensor(Orientation.MOYAL, n) - orientation_tensor(Orientation.STAR, n) for n in (1, 2)
}


def test_mixed_laplacian_oracle_on_monomials():
    # Delta e^{2 pi i (p.x + a.y)} = -2 pi i (p.a) e^{2 pi i (p.x + a.y)}, and
    # the order-1 Berezin term is -Delta
    for (p, a), want in ((((1,), (1,)), -2j * math.pi), (((1,), (0,)), 0.0), (((2, -1), (3, 5)), -2j * math.pi)):
        got = ref_mixed_laplacian({(p, a): 1.0}, len(p))
        assert abs(got.get((p, a), 0.0) - want) < 1e-12
        series = berezin_truncated(TrigPoly(len(p), {(p, a): 1.0}), 1)
        assert abs(series.coefficient(1).coeff(p, a) + want) < 1e-12


@settings(max_examples=30, deadline=None)
@given(pairs, st.integers(0, 4))
def test_berezin_truncated_matches_the_laplacian_powers(pair, order):
    f, _g = pair
    fd, n = as_dict(f), f.n
    series = berezin_truncated(f, order)
    assert series.order == order
    refs = ref_operator_series(lambda u: ref_mixed_laplacian(u, n), fd, order, -1.0)
    # |2 pi p.a| <= 2 pi^2 sum_ij |gamma_ij u_i u_j| with gamma = T_STAR - T_CHECK
    for j, ref in enumerate(refs):
        assert_matches(series.coefficient(j), ref, ref_map_size(fd, GAMMA_BEREZIN[n], j))


@settings(max_examples=30, deadline=None)
@given(pairs, st.integers(0, 4))
def test_berezin_series_is_the_equivalence_map_of_star_minus_check(pair, order):
    f, _g = pair
    fd = as_dict(f)
    gamma = GAMMA_BEREZIN[f.n]
    mapped = equivalence_map(gamma, order, f)
    series = berezin_truncated(f, order)
    assert mapped.order == order
    for j in range(order + 1):
        assert_matches(mapped.coefficient(j), as_dict(series.coefficient(j)), ref_map_size(fd, gamma, j))


@settings(max_examples=30, deadline=None)
@given(pairs, st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_equivalence_map_matches_the_second_order_powers(pair, order, seed):
    f, _g = pair
    fd, n = as_dict(f), f.n
    # a random symmetric complex tensor, about half of its entries zero
    rng = np.random.default_rng(seed)
    entries = (rng.normal(size=(2 * n, 2 * n)) + 1j * rng.normal(size=(2 * n, 2 * n))) / (2.0 * math.pi)
    entries *= rng.integers(0, 2, size=(2 * n, 2 * n))
    gamma = entries + entries.T
    mapped = equivalence_map(gamma, order, f)
    refs = ref_operator_series(lambda u: ref_second_order(gamma, u, n), fd, order, 0.5)
    for j, ref in enumerate(refs):
        assert_matches(mapped.coefficient(j), ref, ref_map_size(fd, gamma, j))


def test_berezin_and_equivalence_maps_take_the_keys_unsorted(monkeypatch):
    # a polynomial's keys are sorted and unique, so each term is its own run:
    # with the key sort made to fail, both maps still match their oracles,
    # and the Berezin orders equal those of the sorted route bit for bit
    def no_sort(keys):
        raise AssertionError("the keys were sorted again")

    rng = np.random.default_rng(92)
    for n, bandwidth in ((1, 3), (2, 1)):
        f = make_box(rng, n, bandwidth)
        fd, gamma = as_dict(f), GAMMA_MOYAL_STAR[n]
        with monkeypatch.context() as patch:
            patch.setattr(trigpoly, "_group_keys", no_sort)
            patch.setattr(starprod, "_group_keys", no_sort, raising=False)
            berezin = berezin_truncated(f, 4)
            mapped = equivalence_map(gamma, 4, f)
        psi = 2j * math.pi * starprod._mixed_dot(f)
        sorted_route = starprod._phase_series(n, trigpoly._group_keys(f.keys), f.values, psi, 4)
        laplacian = ref_operator_series(lambda u: ref_mixed_laplacian(u, n), fd, 4, -1.0)
        second_order = ref_operator_series(lambda u: ref_second_order(gamma, u, n), fd, 4, 0.5)
        for j in range(5):
            got = berezin.coefficient(j)
            assert np.array_equal(got.keys, sorted_route[j].keys)
            assert np.array_equal(got.values.view(np.uint64), sorted_route[j].values.view(np.uint64))
            assert_matches(got, laplacian[j], ref_map_size(fd, GAMMA_BEREZIN[n], j))
            assert_matches(mapped.coefficient(j), second_order[j], ref_map_size(fd, gamma, j))


def moyal_gauge(f: TrigPoly, k: int) -> TrigPoly:
    """G(f) at hbar = 1/k: the (p, a) amplitude times e^{-i pi hbar p.a}."""
    return TrigPoly(f.n, {(p, a): c * cmath.exp(-1j * math.pi * _dot(p, a) / k) for (p, a), c in f.terms()})


def test_equivalence_map_connects_moyal_to_star_exactly():
    # G = e^{(hbar/2) d_gamma} with gamma = T_MOYAL - T_STAR satisfies
    # G(f) moyal G(g) = G(f star g) at every hbar = 1/k, and its truncations
    # converge to G
    rng = np.random.default_rng(17)
    for n, bandwidth in ((1, 2), (2, 1)):
        f, g = random_trig_poly(rng, n, bandwidth), random_trig_poly(rng, n, bandwidth)
        fd, gd = as_dict(f), as_dict(g)
        for k in (1, 3, 8, 64):
            h = HbarValue(k)
            left = star_exact(moyal_gauge(f, k), moyal_gauge(g, k), h, Orientation.MOYAL)
            right = moyal_gauge(star_exact(f, g, h, Orientation.STAR), k)
            assert distance(left, as_dict(right)) <= REL_TOL * ref_size(fd, gd)
        truncated = equivalence_map(GAMMA_MOYAL_STAR[n], 12, f).evaluate(1.0 / 64)
        assert distance(truncated, as_dict(moyal_gauge(f, 64))) <= REL_TOL * f.l1_norm()


def ref_random_trig_poly(rng: np.random.Generator, n: int, bandwidth: int, decay: float) -> dict:
    """The per-key scalar loop ``random_trig_poly`` replaced: keys in
    lexicographic order, each drawing a radius and then an angle."""
    out = {}
    for key in itertools.product(range(-bandwidth, bandwidth + 1), repeat=2 * n):
        r = math.sqrt(rng.uniform())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        weight = (1.0 + sum(v * v for v in key)) ** (-decay / 2.0)
        out[(key[:n], key[n:])] = r * weight * cmath.exp(1j * theta)
    return out


@pytest.mark.parametrize("n, bandwidths", [(1, (0, 1, 2, 3, 6)), (2, (0, 1, 2)), (3, (1,))])
@pytest.mark.parametrize("decay", [0.0, 3.0, 8.0])
def test_random_trig_poly_is_the_scalar_loop_bit_for_bit(n, bandwidths, decay):
    for seed in range(20):
        for bandwidth in bandwidths:
            poly = random_trig_poly(np.random.default_rng(seed), n, bandwidth, decay)
            ref = ref_random_trig_poly(np.random.default_rng(seed), n, bandwidth, decay)
            assert list(as_dict(poly)) == list(ref)  # same keys, in the same order
            got = np.array(list(as_dict(poly).values()))
            want = np.array(list(ref.values()))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
