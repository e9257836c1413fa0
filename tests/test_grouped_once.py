"""What a sweep builds once, against the per-level route it replaces.

A sweep groups the keys of its exact map, of its series and of their
difference once and reads every level off those groupings; an operator
keeps its l1 and linf once computed.  The oracles here are the per-level
route: the exact map and the series evaluated at each level with their own
key sorts, subtracted as polynomials and assembled, which every reading
must match bit for bit.
"""

import math

import numpy as np
import pytest

from torusquant import analysis
from torusquant.analysis import _lanczos_top, _remainder_at, operator_norm
from torusquant.quantize import DiagonalOperator, HilbertSpec, toeplitz_diagonals
from torusquant.starprod import (
    HbarSeries,
    HbarValue,
    Orientation,
    _mixed_dot,
    _pair_angles,
    _residues,
    _unit_phases,
    berezin_exact,
    berezin_map,
    berezin_truncated,
    product_map,
    star_exact,
    star_truncated,
)
from torusquant.trigpoly import TrigPoly, _collect, _pair_terms, _sum_groups, random_trig_poly


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def assert_same_poly(got: TrigPoly, want: TrigPoly) -> None:
    assert np.array_equal(got.keys, want.keys)
    assert np.array_equal(bits(got.values), bits(want.values))


# -- the per-level route -------------------------------------------------------


def per_level_star_exact(f, g, h, orientation):
    """star_exact with its pair keys sorted at this level."""
    const, m = _pair_angles(f, g, orientation)
    groups, amps = _pair_terms(f, g)
    return _sum_groups(f.n, groups, amps * _unit_phases(const * math.pi * h.hbar, 2 * h.k // abs(const), m))


def per_level_berezin_exact(f, h):
    angles = _residues(_mixed_dot(f), h.k)
    return TrigPoly._from_arrays(f.n, f.keys, f.values * np.exp(1j * (2.0 * math.pi * h.hbar * angles)))


def per_level_evaluate(series, hbar):
    """HbarSeries.evaluate with the keys of every order sorted at this level."""
    keys = [np.zeros((0, 2 * series.n), dtype=np.int64)]
    values = [np.zeros(0, dtype=complex)]
    scale = 1.0
    for c in series.coefficients:
        keys.append(c.keys)
        values.append(c.values * complex(scale))
        scale *= hbar
    return _collect(series.n, np.concatenate(keys), np.concatenate(values))


def per_level_taylor_terms(f, g, orientation, last):
    """The order-j product terms, each pair's amplitude times (i theta)^j / j!,
    summed over the pair groups in pair order."""
    const, m = _pair_angles(f, g, orientation)
    groups, amps = _pair_terms(f, g)
    psi = 1j * (const * math.pi * m)
    terms = [_sum_groups(f.n, groups, amps)]
    for j in range(1, last + 1):
        amps = amps * psi / j
        terms.append(_sum_groups(f.n, groups, amps))
    return terms


def per_level_remainder(exact, series, k):
    """exact(1/k) - series(1/k) as polynomials, then its wrapped diagonals."""
    h = HbarValue(k)
    remainder = exact(h) - per_level_evaluate(series, h.hbar)
    return toeplitz_diagonals(remainder, HilbertSpec(remainder.n, k))


def assert_same_operator(got: DiagonalOperator, want: DiagonalOperator) -> None:
    assert np.array_equal(got.shifts, want.shifts)
    assert np.array_equal(bits(got.values), bits(want.values))


# -- symbols -------------------------------------------------------------------

# at level k = 4 the exact product cancels to exactly 0 at the key (4, 1):
# the pairs (0, 1)(4, 0) and (4, 0)(0, 1) both take the phase 1 there, with
# amplitudes 1 and -1, while the order-1 term of the series keeps the key
CANCEL_F = TrigPoly(1, {((0,), (1,)): 1.0, ((4,), (0,)): 1.0})
CANCEL_G = TrigPoly(1, {((4,), (0,)): 1.0, ((0,), (1,)): -1.0})
# f g has no ((1,), (1,)) term, while the order-1 term of the product does
ORDER0_F = TrigPoly(1, {((0,), (0,)): 1, ((0,), (1,)): 1})
ORDER0_G = TrigPoly(1, {((1,), (1,)): 1, ((1,), (0,)): -1})


def test_the_exact_product_cancels_where_the_series_does_not():
    exact = star_exact(CANCEL_F, CANCEL_G, HbarValue(4))
    assert not (exact.keys == (4, 1)).all(axis=1).any()
    assert star_truncated(CANCEL_F, CANCEL_G, 1).coefficient(1).coeff((4,), (1,)) != 0
    assert star_truncated(ORDER0_F, ORDER0_G, 1).coefficient(0).coeff((1,), (1,)) == 0


@pytest.mark.parametrize(
    "f, g, order, ks",
    [
        (CANCEL_F, CANCEL_G, 1, (2, 4, 8)),
        (ORDER0_F, ORDER0_G, 1, (3, 4, 16)),
        (*(random_trig_poly(np.random.default_rng(5), 1, 3) for _ in range(2)), 2, (8, 16, 64)),
    ],
)
@pytest.mark.parametrize("orientation", list(Orientation))
def test_product_remainders_are_the_per_level_route_bit_for_bit(f, g, order, ks, orientation):
    series = star_truncated(f, g, order, orientation)
    at = _remainder_at(product_map(f, g, orientation), series)
    for k in ks:
        want = per_level_remainder(lambda h: per_level_star_exact(f, g, h, orientation), series, k)
        assert_same_operator(at(k), want)


def test_an_n2_product_past_the_elision_threshold_is_the_per_level_route_bit_for_bit():
    # 625 terms each: 390,625 pairs, whose 6 MiB of phases numpy multiplies
    # into in place, as it does in the per-level route
    rng = np.random.default_rng(22)
    f, g = random_trig_poly(rng, 2, 2), random_trig_poly(rng, 2, 2)
    assert len(f) * len(g) * 16 > 256 * 1024
    for orientation in Orientation:
        series = star_truncated(f, g, 2, orientation)
        at = _remainder_at(product_map(f, g, orientation), series)
        for k in (4, 8):
            want = per_level_remainder(lambda h: per_level_star_exact(f, g, h, orientation), series, k)
            assert_same_operator(at(k), want)


@pytest.mark.parametrize("n, bandwidth, order", [(1, 3, 0), (1, 2, 2), (2, 1, 3), (2, 2, 1)])
def test_berezin_remainders_are_the_per_level_route_bit_for_bit(n, bandwidth, order):
    f = random_trig_poly(np.random.default_rng(10 * n + bandwidth), n, bandwidth, decay=8.0)
    series = berezin_truncated(f, order)
    at = _remainder_at(berezin_map(f), series)
    for k in (4, 8, 16):
        assert_same_operator(at(k), per_level_remainder(lambda h: per_level_berezin_exact(f, h), series, k))


def test_the_sweeps_read_the_per_level_route():
    # product_sweep and intertwine_sweep report the norms of these operators
    f, g = (random_trig_poly(np.random.default_rng(7), 1, 2, decay=8.0) for _ in range(2))
    for k in (8, 64):
        want = per_level_remainder(lambda h: per_level_star_exact(f, g, h, Orientation.STAR),
                                   star_truncated(f, g, 1), k)
        assert_same_operator(analysis.error_product(f, g, 1, k), want)
        want = per_level_remainder(lambda h: per_level_berezin_exact(f, h), berezin_truncated(f, 2), k)
        assert_same_operator(analysis.error_intertwine(f, 2, k), want)


@pytest.mark.parametrize("n, bandwidth", [(1, 3), (2, 1), (2, 2)])
def test_exact_maps_are_the_per_level_route_bit_for_bit(n, bandwidth):
    rng = np.random.default_rng(40 + n)
    f, g = random_trig_poly(rng, n, bandwidth), random_trig_poly(rng, n, bandwidth)
    berezin = berezin_map(f)
    for orientation in Orientation:
        product = product_map(f, g, orientation)
        for k in (1, 3, 8, 64):
            h = HbarValue(k)
            want = per_level_star_exact(f, g, h, orientation)
            assert_same_poly(product.at(h), want)
            assert_same_poly(star_exact(f, g, h, orientation), want)
    for k in (1, 3, 8, 64):
        want = per_level_berezin_exact(f, HbarValue(k))
        assert_same_poly(berezin.at(HbarValue(k)), want)
        assert_same_poly(berezin_exact(f, HbarValue(k)), want)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_truncated_products_are_the_per_pair_taylor_terms_bit_for_bit(orientation):
    for f, g in ((CANCEL_F, CANCEL_G), (ORDER0_F, ORDER0_G),
                 tuple(random_trig_poly(np.random.default_rng(8), 2, 1) for _ in range(2))):
        got = star_truncated(f, g, 4, orientation).coefficients
        want = per_level_taylor_terms(f, g, orientation, 4)
        for a, b in zip(got, want):
            assert_same_poly(a, b)


def test_series_evaluate_is_the_per_level_route_bit_for_bit():
    rng = np.random.default_rng(31)
    f, g = random_trig_poly(rng, 2, 1), random_trig_poly(rng, 2, 1)
    for series in (star_truncated(f, g, 3), star_truncated(ORDER0_F, ORDER0_G, 1), berezin_truncated(f, 4),
                   HbarSeries(1, ()), HbarSeries(1, (TrigPoly.zero(1), TrigPoly.constant(1, 2.0)))):
        for hbar in (1.0, 0.25, 1.0 / 3, 1.0 / 4096):
            assert_same_poly(series.evaluate(hbar), per_level_evaluate(series, hbar))


# -- once per operator, once per dimension --------------------------------------


def fresh_norms(op: DiagonalOperator) -> tuple[float, float]:
    """l1 and linf of an operator rebuilt from copies of its arrays."""
    copy = DiagonalOperator(op.spec, op.shifts.copy(), op.values.copy())
    return copy.l1_norm(), copy.linf_norm()


def test_the_l1_and_linf_memo_never_goes_stale():
    rng = np.random.default_rng(12)
    spec = HilbertSpec(1, 16)
    a = toeplitz_diagonals(random_trig_poly(rng, 1, 2), spec)
    b = toeplitz_diagonals(random_trig_poly(rng, 1, 3), spec)
    assert not a.values.flags.writeable
    l1, linf = operator_norm(a, "l1"), operator_norm(a, "linf")
    dense = a.dense()
    assert l1 == pytest.approx(np.linalg.norm(dense, 1), rel=1e-14)
    assert linf == pytest.approx(np.linalg.norm(dense, np.inf), rel=1e-14)
    for derived in (a.scale(2.5), a.adjoint(), a @ b, b @ a, a + b, a - b, a - a.scale(0.5)):
        assert (operator_norm(derived, "l1"), operator_norm(derived, "linf")) == fresh_norms(derived)
    # the operator they came from still reads its own sums
    assert (operator_norm(a, "l1"), operator_norm(a, "linf")) == (l1, linf) == fresh_norms(a)


def seeded_start(dim: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return start / np.linalg.norm(start)


class RecordingGram:
    """A Gram operator that keeps a copy of every vector Lanczos applies it to."""

    def __init__(self, gram):
        self.spec, self.gram, self.seen = gram.spec, gram, []

    def rmatvec(self, y):
        self.seen.append(np.array(y))
        return self.gram.rmatvec(y)


@pytest.mark.parametrize("n, k", [(1, 128), (1, 256), (2, 16)])
def test_lanczos_starts_from_the_bits_of_default_rng_0_on_every_run(n, k):
    f = random_trig_poly(np.random.default_rng(14), n, 2)
    op = toeplitz_diagonals(f, HilbertSpec(n, k))
    gram = op.adjoint() @ op
    runs = [RecordingGram(gram) for _ in range(2)]
    first, second = (_lanczos_top(run) for run in runs)
    assert first[0] is not None and first == second == _lanczos_top(gram)
    for run in runs:
        assert np.array_equal(bits(run.seen[0]), bits(seeded_start(k**n)))
