"""The index bookkeeping of the wrapped diagonals against the routes it replaced.

``DiagonalOperator.rows`` is built on first read from a per-k wrapped
window, residue codes come from Horner's rule, sums are two row-wise
fancy ``+=`` and adjoints one fancy assignment.  The oracles here are the
former routes: a modulo over a meshgrid of residues, ``ravel_multi_index``
and ``unravel_index``, one ``np.add.at`` and ``np.put_along_axis``; every
result must match them bit for bit, signed zeros included.
"""

import numpy as np
import pytest

from torusquant import quantize
from torusquant.quantize import (
    DiagonalOperator,
    HilbertSpec,
    _distinct_residues,
    _shifted_index,
    intertwine,
    toeplitz_diagonals,
)
from torusquant.trigpoly import TrigPoly, random_trig_poly

LEVELS = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3, 16, 64) if k**n <= 4096]


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def shifted_index_by_modulo(n, k, shifts):
    grids = np.meshgrid(*([np.arange(k)] * n), indexing="ij")
    grid = np.stack([g.reshape(-1) for g in grids], axis=1)
    out = np.zeros((len(shifts), k**n), dtype=np.int64)
    for axis in range(n):
        out *= k
        out += (grid[:, axis] + shifts[:, axis, None]) % k
    return out


def distinct_residues_by_ravel(vectors, k):
    shape = (k,) * vectors.shape[1]
    codes = np.ravel_multi_index((vectors % k).T, shape)
    present = np.zeros(k ** vectors.shape[1], dtype=bool)
    present[codes] = True
    rank = np.cumsum(present) - 1
    return np.stack(np.unravel_index(np.flatnonzero(present), shape), axis=-1), rank[codes]


def plus_by_add_at(a, b, values):
    shifts, which = distinct_residues_by_ravel(np.concatenate([a.shifts, b.shifts]), a.spec.k)
    dim = a.spec.dim
    out = np.zeros((len(shifts), dim), dtype=complex)
    flat = which[:, None] * dim + np.arange(dim)
    np.add.at(out.reshape(-1), flat.ravel(), np.concatenate([a.values, values]).ravel())
    return shifts, out


def adjoint_by_put_along_axis(a):
    values = np.zeros_like(a.values)
    np.put_along_axis(values, shifted_index_by_modulo(a.spec.n, a.spec.k, a.shifts), a.values.conj(), axis=1)
    return -a.shifts % a.spec.k, values


def shift_vectors(rng, n, k):
    """Negative, repeated and out-of-range integer vectors, and none."""
    vectors = rng.integers(-3 * k - 2, 3 * k + 3, size=(9, n))
    return [vectors, np.concatenate([vectors, vectors[::-1], -vectors]), vectors[:0]]


@pytest.mark.parametrize("n, k", LEVELS)
def test_shifted_index_and_residues_match_the_modulo_routes(n, k):
    rng = np.random.default_rng(10 * n + k)
    for vectors in shift_vectors(rng, n, k):
        residues, which = _distinct_residues(vectors, k)
        want_residues, want_which = distinct_residues_by_ravel(vectors, k)
        assert residues.dtype == want_residues.dtype and residues.shape == want_residues.shape
        assert np.array_equal(residues, want_residues) and np.array_equal(which, want_which)
        for shifts in (vectors % k, residues):
            rows = _shifted_index(n, k, shifts)
            assert not rows.flags.writeable
            assert rows.shape == (len(shifts), k**n)
            assert np.array_equal(rows, shifted_index_by_modulo(n, k, shifts))


def operators(rng, spec):
    """Random operators, the zero operator (R = 0) and diagonals of signed
    zeros at residues the random ones share."""
    n, k = spec.n, spec.k
    f, g = (random_trig_poly(rng, n, 2) for _ in range(2))
    a, b = toeplitz_diagonals(f, spec), toeplitz_diagonals(g, spec)
    zero = toeplitz_diagonals(TrigPoly(n, {}), spec)
    negative_zero = DiagonalOperator(spec, a.shifts[:2], np.full((len(a.shifts[:2]), spec.dim), -0.0))
    mixed = np.zeros((len(b.shifts), spec.dim), dtype=complex)
    mixed[:, ::2] = complex(-0.0, -0.0)
    mixed[:, 1::3] = complex(0.0, -0.0)
    signed = DiagonalOperator(spec, b.shifts, mixed)
    return [a, b, zero, negative_zero, signed]


@pytest.mark.parametrize("polarization", ["position", "momentum"])
@pytest.mark.parametrize("n, k", LEVELS)
def test_sums_differences_and_adjoints_match_add_at_and_put_along_axis(polarization, n, k):
    spec = HilbertSpec(n, k, polarization)
    ops = operators(np.random.default_rng(20 * n + k), spec)
    assert ops[2].values.shape == (0, spec.dim)
    for a in ops:
        shifts, want = adjoint_by_put_along_axis(a)
        got = a.adjoint()
        assert np.array_equal(got.shifts, shifts)
        assert np.array_equal(bits(got.values), bits(want))
        for b in ops:
            for got, values in ((a + b, b.values), (a - b, -b.values)):
                shifts, want = plus_by_add_at(a, b, values)
                assert np.array_equal(got.shifts, shifts)
                assert np.array_equal(bits(got.values), bits(want))


def counting_shifted_index(monkeypatch):
    calls = []
    real = quantize._shifted_index

    def counted(n, k, shifts):
        calls.append(len(shifts))
        return real(n, k, shifts)

    monkeypatch.setattr(quantize, "_shifted_index", counted)
    return calls


@pytest.mark.parametrize(
    "read",
    [
        lambda d, a: d.linf_norm(),
        lambda d, a: d.rmatvec(np.ones(d.spec.dim)),
        lambda d, a: a @ d,
    ],
    ids=["linf_norm", "rmatvec", "matmul"],
)
@pytest.mark.parametrize("n, k", [(1, 16), (2, 8)])
def test_a_difference_builds_its_rows_only_when_they_are_read(monkeypatch, read, n, k):
    calls = counting_shifted_index(monkeypatch)
    rng = np.random.default_rng(30 + n)
    spec = HilbertSpec(n, k)
    a, b = (toeplitz_diagonals(random_trig_poly(rng, n, 2), spec) for _ in range(2))
    difference = a - b
    assert difference.l1_norm() > 0.0  # l1 reads no rows
    assert calls == []
    read(difference, a)
    assert calls == [len(difference.shifts)]  # the difference's, not its inputs'
    rows = difference.rows
    assert not rows.flags.writeable and difference.rows is rows
    assert calls == [len(difference.shifts)]
    with pytest.raises(ValueError):
        rows[0, 0] = 0


def test_scale_and_intertwine_hand_on_the_rows_they_have(monkeypatch):
    calls = counting_shifted_index(monkeypatch)
    f = random_trig_poly(np.random.default_rng(40), 1, 2)
    position = toeplitz_diagonals(f, HilbertSpec(1, 16))
    momentum = toeplitz_diagonals(f, HilbertSpec(1, 16, "momentum"))
    assert calls == [len(momentum.shifts)]  # a MOMENTUM build reads its diagonals at [m' + r]
    assert position.scale(2.0)._rows is None and intertwine(momentum.scale(2.0))._rows is momentum._rows
    assert intertwine(momentum).rows is momentum.rows
    assert calls == [len(momentum.shifts)]
    rows = position.rows
    assert position.scale(3.0).rows is rows  # a scaled copy shares the rows its input has built
    assert calls == [len(momentum.shifts), len(position.shifts)]
