"""The key-grouping engine against the always-sorting engine it replaced.

The oracle below is the grouping engine as it was before it learnt to skip
work: a per-column ``_box``, mixed-radix codes built one column at a time
in int64, and a ``_pair_terms`` and ``_group_keys`` that code and sort every
input, a one-term factor or a single row included.  Every array the engine
returns, and every sum, difference, product and product map built on it,
must equal the oracle's bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant import trigpoly
from torusquant.starprod import ExactMap, HbarValue, Orientation, _pair_angles, product_map, star_exact
from torusquant.trigpoly import (
    CODE_CELLS,
    MAX_FREQ,
    TrigPoly,
    _box,
    _code_dtype,
    _codes,
    _group_keys,
    _pair_terms,
    _sum_groups,
    random_trig_poly,
)

# -- the oracle ---------------------------------------------------------------


def oracle_box(keys):
    if not len(keys):
        return [0] * keys.shape[1], [1] * keys.shape[1]
    lows = [int(column.min()) for column in keys.T]
    spans = [int(column.max()) - low + 1 for column, low in zip(keys.T, lows)]
    return lows, spans


def oracle_codes(keys, lows, spans, dtype):
    # int64 partial sums may wrap modulo 2^64; the final codes lie in [0, 2^63)
    codes = np.zeros(len(keys), dtype=np.int64)
    for column, low, span in zip(keys.T, lows, spans):
        codes *= span
        codes += column
        codes -= low
    return codes.astype(dtype)


def oracle_group_pairs(f_keys, g_keys):
    f_lows, f_spans = oracle_box(f_keys)
    g_lows, g_spans = oracle_box(g_keys)
    spans = [a + b - 1 for a, b in zip(f_spans, g_spans)]
    cells = math.prod(spans)
    if cells >= CODE_CELLS:
        keys = (f_keys[:, None, :] + g_keys[None, :, :]).reshape(-1, f_keys.shape[1])
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
        starts = np.flatnonzero(first)
        return order, starts, ordered[starts]
    dtype = _code_dtype(cells)
    codes = np.add.outer(oracle_codes(f_keys, f_lows, spans, dtype), oracle_codes(g_keys, g_lows, spans, dtype))
    codes = codes.reshape(-1)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    i, j = np.divmod(order[starts], len(g_keys))
    return order, starts, f_keys[i] + g_keys[j]


def oracle_group_keys(keys):
    return oracle_group_pairs(keys, np.zeros((1, keys.shape[1]), dtype=np.int64))


def oracle_pair_terms(f, g):
    amps = (f.values[:, None] * g.values[None, :]).reshape(-1)
    return oracle_group_pairs(f.keys, g.keys), amps


def oracle_collect(n, keys, values):
    return _sum_groups(n, oracle_group_keys(keys), values)


def oracle_add(f, g):
    return oracle_collect(f.n, np.concatenate([f.keys, g.keys]), np.concatenate([f.values, g.values]))


def oracle_product_map(f, g, orientation):
    const, m = _pair_angles(f, g, orientation)
    (order, starts, unique), amps = oracle_pair_terms(f, g)
    return unique, starts, amps[order], m[order], const


# -- comparisons and inputs -----------------------------------------------------


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == np.complex128:
        got, want = np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    assert np.array_equal(got, want)


def assert_same_poly(got, want):
    assert got.n == want.n
    assert_same_array(got.keys, want.keys)
    assert_same_array(got.values, want.values)


# Operand kinds: no terms, one term, a few keys in a small box, a few keys
# spread over 2^13 per axis (boxes of 2^52 cells at n = 2 take uint64
# codes, of 2^78 cells at n = 3 np.lexsort), and the full box of a
# bandwidth (49 keys at n = 1, 81 at n = 2, 729 at n = 3).
KINDS = ("empty", "one", "sparse", "wide", "full")
FULL_BANDWIDTH = {1: 3, 2: 1, 3: 1}


def draw_rows(rng, n, count, reach):
    """``count`` key rows around a random centre, within ``reach`` of it
    on each axis, with repeats; the rows are in no particular order."""
    centre = rng.integers(-(2**20), 2**20, size=2 * n)
    pool = centre + rng.integers(-reach, reach + 1, size=(max(count // 2, 1), 2 * n))
    return np.ascontiguousarray(pool[rng.integers(len(pool), size=count)], dtype=np.int64)


def make_poly(n, kind, seed):
    """An operand of the given kind, its terms collected by the oracle."""
    rng = np.random.default_rng(seed)
    if kind == "full":
        return random_trig_poly(rng, n, FULL_BANDWIDTH[n], decay=2.0)
    count = {"empty": 0, "one": 1}.get(kind) or int(rng.integers(2, 25))
    keys = draw_rows(rng, n, count, 2**12 if kind == "wide" else 3)
    values = rng.normal(size=count) + 1j * rng.normal(size=count)
    return oracle_collect(n, keys, values)


# -- the tests ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(0, 40), st.sampled_from((3, 2**12, 2**40)), st.integers(0, 2**32 - 1))
def test_group_keys_of_unsorted_rows_is_the_oracle(n, count, reach, seed):
    # unsorted rows with repeats: _group_keys hands them to _group_pairs with
    # one zero row, so a shortcut for one-row operands there would show here
    keys = draw_rows(np.random.default_rng(seed), n, count, reach)
    for got, want in zip(_group_keys(keys), oracle_group_keys(keys), strict=True):
        assert_same_array(got, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 300), st.integers(0, 62), st.integers(0, 2**32 - 1))
def test_box_and_codes_are_the_per_column_oracle(n, count, bits, seed):
    # boxes from one cell to just under CODE_CELLS: the one-pass codes are
    # the per-column loop's integers, in every code type
    rng = np.random.default_rng(seed)
    column_bits = np.zeros(2 * n, dtype=np.int64)
    for _ in range(bits):
        column_bits[rng.integers(2 * n)] += 1
    lows = rng.integers(-(2**20), 2**20, size=2 * n)
    keys = lows + (rng.integers(0, 2**62, size=(count, 2 * n)) % 2**column_bits)
    keys[0] = lows + 2**column_bits - 1
    keys[-1] = lows
    box = _box(keys)
    assert box == oracle_box(keys)
    cells = math.prod(box[1])
    assert cells < CODE_CELLS
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        if cells <= 1 << (8 * np.dtype(dtype).itemsize):
            assert_same_array(_codes(keys, *box, dtype), oracle_codes(keys, *box, dtype))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3),
    st.sampled_from(KINDS),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**32 - 1),
)
def test_products_sums_and_maps_are_the_oracle_bit_for_bit(n, f_kind, g_kind, f_seed, g_seed):
    f, g = make_poly(n, f_kind, f_seed), make_poly(n, g_kind, g_seed)
    if n == 3 and f_kind == g_kind == "full":
        g = make_poly(n, "sparse", g_seed)  # 729 x 729 pairs is more than the test needs
    (groups, amps), (want_groups, want_amps) = _pair_terms(f, g), oracle_pair_terms(f, g)
    for got, want in zip(groups, want_groups, strict=True):
        assert_same_array(got, want)
    assert_same_array(amps, want_amps)
    assert_same_poly(f.multiply(g), _sum_groups(n, want_groups, want_amps))
    assert_same_poly(f + g, oracle_add(f, g))
    assert_same_poly(f - g, oracle_add(f, -g))
    assert_same_poly(f - f, oracle_add(f, -f))
    for orientation in Orientation:
        got = product_map(f, g, orientation)
        assert got.n == n
        for field, want in zip(("keys", "starts", "amps", "angles", "const"), oracle_product_map(f, g, orientation)):
            if field == "const":
                assert got.const == want
            else:
                assert_same_array(getattr(got, field), want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_term_symbols_and_products_never_reach_the_pair_sort(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    f = make_poly(n, "full", 40 + n)
    p, q = tuple(rng.integers(-MAX_FREQ, MAX_FREQ + 1, size=n)), tuple(rng.integers(-3, 4, size=n))
    mono = oracle_collect(n, np.array([p + q], dtype=np.int64), np.array([0.5 - 2j]))
    want = {
        "harmonic": mono,
        "constant": oracle_collect(n, np.zeros((1, 2 * n), dtype=np.int64), np.array([3.5 + 0j])),
        "zero": oracle_collect(n, np.zeros((0, 2 * n), dtype=np.int64), np.zeros(0, dtype=complex)),
        "f mono": _sum_groups(n, *oracle_pair_terms(f, mono)),
        "mono f": _sum_groups(n, *oracle_pair_terms(mono, f)),
        "mono mono": _sum_groups(n, *oracle_pair_terms(mono, mono)),
    }
    exact = ExactMap(n, *oracle_product_map(f, mono, Orientation.STAR)).at(HbarValue(16))

    def no_sort(f_keys, g_keys):
        raise AssertionError("a one-term product or symbol reached _group_pairs")

    monkeypatch.setattr(trigpoly, "_group_pairs", no_sort)
    got = {
        "harmonic": TrigPoly.harmonic(n, p, q, 0.5 - 2j),
        "constant": TrigPoly.constant(n, 3.5),
        "zero": TrigPoly(n, {}),
        "f mono": f.multiply(mono),
        "mono f": mono * f,
        "mono mono": mono.multiply(mono),
    }
    for name, poly in got.items():
        assert_same_poly(poly, want[name])
    assert_same_poly(star_exact(f, mono, HbarValue(16)), exact)
    with pytest.raises(AssertionError, match="reached _group_pairs"):
        f.multiply(f)
