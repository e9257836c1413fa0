"""Toeplitz assembly against hand-computed small matrices and exact identities."""

import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusquant.analysis import lattice_mean
from torusquant.quantize import (
    DENSE_DIM_CAP,
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    PolarizationError,
    QuantumOperator,
    assemble_toeplitz,
    intertwine,
    operator_to_csv,
    toeplitz_diagonals,
    torus_generator_diagonals,
    _distinct_residues,
)
from torusquant.starprod import HbarValue, star_exact, star_truncated
from torusquant.trigpoly import TrigPoly, random_trig_poly


def _dense(f, spec):
    return toeplitz_diagonals(f, spec).dense()


def _generators(spec, axis):
    """The matrices (U_i, V_i) of the quantized unit harmonics of axis i."""
    return tuple(op.dense() for op in torus_generator_diagonals(spec, axis))


def test_spec_validation():
    with pytest.raises(ValueError):
        HilbertSpec(0, 4)
    with pytest.raises(ValueError):
        HilbertSpec(1, 0)
    spec = HilbertSpec(2, 3)
    assert spec.dim == 9
    assert spec.hbar == pytest.approx(1.0 / 3.0)


def test_spec_polarization_coercion():
    assert HilbertSpec(1, 4, "momentum").polarization is Polarization.MOMENTUM
    assert HilbertSpec(1, 4).polarization is Polarization.POSITION
    with pytest.raises(ValueError):
        HilbertSpec(1, 4, "sideways")
    with pytest.raises(TypeError):
        HilbertSpec(1, 4, 17)


def test_constant_assembles_to_identity():
    spec = HilbertSpec(1, 4)
    op = assemble_toeplitz(TrigPoly.constant(1, 2.5), spec)
    assert np.abs(op.entries - 2.5 * np.eye(4)).max() == 0.0


def test_shift_and_clock_at_k4():
    spec = HilbertSpec(1, 4)
    u, v = _generators(spec, 1)
    shift = np.zeros((4, 4))
    for m in range(4):
        shift[(m + 1) % 4, m] = 1.0
    assert np.abs(u - shift).max() < 1e-15
    clock = np.diag([1.0, 1j, -1.0, -1j])
    assert np.abs(v - clock).max() < 1e-15


def test_generators_at_k2():
    spec = HilbertSpec(1, 2)
    u, v = _generators(spec, 1)
    assert np.abs(u - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-15
    assert np.abs(v - np.diag([1.0, -1.0])).max() < 1e-15


def test_commutation_relation():
    # U V = e^{-2 pi i hbar} V U
    for k in (2, 3, 7):
        spec = HilbertSpec(1, k)
        u, v = _generators(spec, 1)
        lhs = u @ v
        rhs = cmath.exp(-2j * cmath.pi / k) * (v @ u)
        assert np.abs(lhs - rhs).max() < 1e-14


def test_generators_commute_across_axes():
    spec = HilbertSpec(2, 3)
    u1, v1 = _generators(spec, 1)
    u2, v2 = _generators(spec, 2)
    assert np.abs(u1 @ v2 - v2 @ u1).max() < 1e-14
    assert np.abs(u1 @ u2 - u2 @ u1).max() < 1e-14
    with pytest.raises(ValueError):
        torus_generator_diagonals(spec, 3)


def test_polarizations_differ_on_mixed_terms():
    # for a term with p = q = 1 the momentum matrix carries the phase at m/k
    # where the position matrix carries it at m'/k = (m-1)/k
    k = 4
    f = TrigPoly.harmonic(1, (1,), (1,))
    pos = _dense(f, HilbertSpec(1, k, Polarization.POSITION))
    mom = _dense(f, HilbertSpec(1, k, Polarization.MOMENTUM))
    ratio = cmath.exp(2j * cmath.pi / k)
    assert np.abs(mom - ratio * pos).max() < 1e-14
    # pure-x and pure-y symbols agree across polarizations
    for g in (TrigPoly.harmonic(1, (1,), (0,)), TrigPoly.harmonic(1, (0,), (1,))):
        a = _dense(g, HilbertSpec(1, k, Polarization.POSITION))
        b = _dense(g, HilbertSpec(1, k, Polarization.MOMENTUM))
        assert np.abs(a - b).max() < 1e-15


def test_exact_product_identity_small():
    # Q_f Q_g equals the quantization of the convergent star product
    rng = np.random.default_rng(42)
    f = random_trig_poly(rng, 1, 2)
    g = random_trig_poly(rng, 1, 2)
    k = 5
    spec = HilbertSpec(1, k)
    lhs = _dense(f, spec) @ _dense(g, spec)
    rhs = _dense(star_exact(f, g, HbarValue(k)), spec)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_apply_matches_dense():
    # the diagonal form's matvec and rmatvec against the dense matrix and its
    # conjugate transpose
    rng = np.random.default_rng(7)
    cases = (
        (1, 9, Polarization.POSITION, 2),
        (1, 9, Polarization.MOMENTUM, 2),
        (1, 3, Polarization.MOMENTUM, 2),  # k <= 2 * bandwidth: terms alias
        (1, 4, Polarization.POSITION, 2),
        (2, 4, Polarization.POSITION, 2),
        (2, 4, Polarization.MOMENTUM, 2),
        (2, 3, Polarization.POSITION, 1),
        (2, 32, Polarization.MOMENTUM, 4),  # 6561 terms > dim 1024: many blocks
    )
    for n, k, pol, bandwidth in cases:
        spec = HilbertSpec(n, k, pol)
        f = random_trig_poly(rng, n, bandwidth)
        diagonals = toeplitz_diagonals(f, spec)
        assert len(diagonals.shifts) <= min(spec.dim, (2 * bandwidth + 1) ** n)
        dense = diagonals.dense()
        vec = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        assert np.abs(dense @ vec - diagonals.matvec(vec)).max() < 1e-12
        assert np.abs(dense.conj().T @ vec - diagonals.rmatvec(vec)).max() < 1e-12


def _assemble_term_by_term(f, spec):
    """The per-term loop assemble_toeplitz replaced, kept as its oracle."""
    n, k = spec.n, spec.k
    grid = np.indices((k,) * n).reshape(n, -1).T  # row-major residues m'
    cols = np.arange(spec.dim)
    A = np.zeros((spec.dim, spec.dim), dtype=complex)
    for p, q, c in zip(f.keys[:, :n], f.keys[:, n:], f.values):
        rows = np.ravel_multi_index(((grid + p) % k).T, (k,) * n)
        if spec.polarization is Polarization.POSITION:
            phase_arg = grid @ q
        else:
            phase_arg = (grid + p) @ q
        A[rows, cols] += c * np.exp(2j * np.pi * spec.hbar * phase_arg)
    return A


def _diagonals_term_by_term(f, spec):
    """The per-term loop toeplitz_diagonals replaced, kept as its oracle:
    term (p, q, c) adds c e^{2 pi i hbar q.m'} (POSITION) or
    c e^{2 pi i hbar q.(m' + p)} (MOMENTUM) to the diagonal of p mod k, in
    key order, with no matrix.  Returns (shifts, values) in the row order of
    the FFT engine."""
    n, k = spec.n, spec.k
    shifts, which = _distinct_residues(f.keys[:, :n], k)
    values = np.zeros((len(shifts), spec.dim), dtype=complex)
    grid = np.indices((k,) * n).reshape(n, -1).T  # row-major residues m'
    for row, p, q, c in zip(which, f.keys[:, :n], f.keys[:, n:], f.values):
        at = grid if spec.polarization is Polarization.POSITION else grid + p
        values[row] += c * np.exp(2j * np.pi * spec.hbar * (at @ q))
    return shifts, values


# The FFT sums each diagonal in another order than the loop, and its
# twiddle factors are not the loop's exp values: both sit a few ulps of
# ||f||_l1 from the exact sum, so entries are compared to this multiple of
# ||f||_l1, not bit for bit.
FFT_ORACLE_TOL = 1e-14


@pytest.mark.parametrize("polarization", ["position", "momentum"])
@pytest.mark.parametrize(
    "n, bandwidth, ks",
    [
        (1, 3, (1, 2, 3, 6, 7, 16, 512)),
        (2, 1, (1, 2, 3, 5)),
        (2, 2, (1, 2, 4, 16, 32)),
        (3, 1, (1, 2, 3, 4, 8)),
    ],
)
def test_fft_diagonals_match_the_per_term_loop(polarization, n, bandwidth, ks):
    # levels k <= 2 * bandwidth fold several terms onto one diagonal and one
    # grid cell; the remainder symbols are the ones the product sweeps take
    # norms of (6553 terms at n = 2, bandwidth 2, more than k^n).  At n = 3
    # the 729 terms of f alone outnumber k^n up to k = 8.
    rng = np.random.default_rng(23 + n)
    f = random_trig_poly(rng, n, bandwidth)
    g = random_trig_poly(rng, n, bandwidth)
    series = star_truncated(f, g, 1) if n < 3 else None
    for k in ks:
        spec = HilbertSpec(n, k, polarization)
        symbols = [f]
        if series is not None:
            symbols.append(star_exact(f, g, HbarValue(k)) - series.evaluate(1.0 / k))
        for symbol in symbols:
            got = toeplitz_diagonals(symbol, spec)
            shifts, want = _diagonals_term_by_term(symbol, spec)
            assert np.array_equal(got.shifts, shifts)
            assert np.abs(got.values - want).max() <= FFT_ORACLE_TOL * symbol.l1_norm()
            if spec.dim <= 64:
                dense = _assemble_term_by_term(symbol, spec)
                assert np.abs(got.dense() - dense).max() <= FFT_ORACLE_TOL * symbol.l1_norm()


def _aliased_term_by_term(f, spec):
    """The engine's steps with its amplitude sums done by a per-term loop:
    term (p, q, c) adds c to cell (p mod k, q mod k) in key order, the grid
    goes through the same transform, and MOMENTUM diagonal r is read at
    [m' + r] entry by entry."""
    n, k, dim = spec.n, spec.k, spec.dim
    shifts, which = _distinct_residues(f.keys[:, :n], k)
    grid = np.zeros((len(shifts),) + (k,) * n, dtype=complex)
    for row, q, c in zip(which, f.keys[:, n:], f.values):
        grid[(row,) + tuple(q % k)] += c
    values = np.fft.ifftn(grid, axes=tuple(range(1, n + 1)), norm="forward").reshape(-1, dim)
    if spec.polarization is Polarization.MOMENTUM:
        residues = np.indices((k,) * n).reshape(n, -1).T
        values = np.array(
            [v[np.ravel_multi_index(((residues + p) % k).T, (k,) * n)] for v, p in zip(values, shifts)]
        ).reshape(-1, dim)
    return shifts, values


@pytest.mark.parametrize("polarization", ["position", "momentum"])
@pytest.mark.parametrize(
    "n, bandwidth, ks", [(1, 3, (2, 3, 6, 7, 16)), (2, 1, (2, 3, 5)), (2, 2, (16, 32))]
)
def test_assembly_matches_the_per_term_loop_bit_for_bit(polarization, n, bandwidth, ks):
    # the amplitudes are summed into each grid cell in key order, so that
    # two runs, and the one-call np.add.at against a loop over the terms,
    # give the same bits; levels k <= 2 * bandwidth fold several terms onto
    # one cell, and at n = 2, bandwidth 2 the remainder symbols have 6553
    # terms, more than k^n.  The transform itself is held to the exp loop
    # by test_fft_diagonals_match_the_per_term_loop.
    rng = np.random.default_rng(23 + n)
    f = random_trig_poly(rng, n, bandwidth)
    g = random_trig_poly(rng, n, bandwidth)
    series = star_truncated(f, g, 1)
    for k in ks:
        spec = HilbertSpec(n, k, polarization)
        remainder = star_exact(f, g, HbarValue(k)) - series.evaluate(1.0 / k)
        for symbol in (f, remainder):
            got = toeplitz_diagonals(symbol, spec)
            shifts, want = _aliased_term_by_term(symbol, spec)
            assert np.array_equal(got.shifts, shifts)
            # compare bit patterns, so that a signed zero counts too
            assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))
            if spec.dim <= 64:
                dense = np.zeros((spec.dim, spec.dim), dtype=complex)
                for r, values in zip(got.rows, got.values):
                    dense[r, np.arange(spec.dim)] = values
                assembled = assemble_toeplitz(symbol, spec).entries
                assert np.array_equal(assembled.view(np.uint64), dense.view(np.uint64))


@pytest.mark.parametrize("polarization", ["position", "momentum"])
@pytest.mark.parametrize("n, k", [(1, 1), (1, 2), (1, 7), (2, 1), (2, 2), (2, 6), (3, 2), (3, 4)])
def test_single_cell_symbols_stay_exact(polarization, n, k):
    # one term per grid cell: the transform multiplies by exact ones, so a
    # constant is c times the identity and a unit shift is a permutation,
    # bit for bit, signed zeros included
    spec = HilbertSpec(n, k, polarization)
    for c in (2.5, -0.75, complex(0.0, -0.5)):
        got = toeplitz_diagonals(TrigPoly.constant(n, c), spec).dense()
        want = np.zeros((spec.dim, spec.dim), dtype=complex)
        np.fill_diagonal(want, c)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    zero = (0,) * n
    for axis in range(n):
        e = tuple(1 if j == axis else 0 for j in range(n))
        shift = _dense(TrigPoly.harmonic(n, e, zero), spec)
        want = _assemble_term_by_term(TrigPoly.harmonic(n, e, zero), spec)
        assert np.array_equal(shift.view(np.uint64), want.view(np.uint64))
        assert set(np.unique(shift).tolist()) <= {0.0, 1.0}


@pytest.mark.parametrize("polarization", ["position", "momentum"])
def test_assembled_csv_never_prints_a_negative_zero(polarization):
    # parts that cancel exactly on the lattice (k = 4 puts e^{2 pi i q m / k}
    # on the axes), and an amplitude whose real part is -0.0 (the literal
    # -0.5j, which a single-cell transform would pass through), must print
    # as 0.0, as the per-term loop printed them
    rng = np.random.default_rng(19)
    for n, k in ((1, 4), (1, 8), (2, 4), (1, 3)):
        pure = TrigPoly.harmonic(n, (1,) * n, (0,) * n, -0.5j)
        for _ in range(10):
            f = random_trig_poly(rng, n, 2)
            for symbol in (pure, f, f + f.conjugate(), f - f.conjugate(), f.scale(-1j)):
                text = operator_to_csv(toeplitz_diagonals(symbol, HilbertSpec(n, k, polarization)))
                fields = [v for line in text.splitlines()[1:] for v in line.split(",")[2:]]
                assert "-0.0" not in fields


def test_kernel_temporaries_stay_bounded_with_more_terms_than_the_dimension():
    # 6561 terms at dim 1024: building all their diagonals at once would
    # hold about 0.5 GB of temporaries next to a 16 MiB matrix
    f = random_trig_poly(np.random.default_rng(3), 2, 4)
    spec = HilbertSpec(2, 32)
    state = np.ones(spec.dim, dtype=complex)
    dense = 16 * spec.dim**2
    budget = 128 * 2**18  # bytes
    tracemalloc.start()
    try:
        op = assemble_toeplitz(f, spec)
        _, assemble_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        toeplitz_diagonals(f, spec).matvec(state)
        _, apply_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert assemble_peak < 2 * dense + budget  # the matrix and its frozen copy
    assert apply_peak < dense + budget  # op is still alive
    assert op.entries.shape == (spec.dim, spec.dim)


def test_rmatvec_makes_one_array_the_size_of_the_values():
    # a Lanczos step on the Gram of an n = 2, k = 64 symbol: 81 diagonals of
    # 4096 entries, 5 MiB; a product next to the gathered copy would be 10.
    # rmatvec multiplies into the gathered copy, so the bound holds on every
    # numpy and CPython build
    f = random_trig_poly(np.random.default_rng(3), 2, 2)
    a = toeplitz_diagonals(f, HilbertSpec(2, 64))
    gram = a.adjoint() @ a
    rng = np.random.default_rng(0)
    y = rng.standard_normal(gram.spec.dim) + 1j * rng.standard_normal(gram.spec.dim)
    gram.rmatvec(y)  # keeps the conjugated values
    tracemalloc.start()
    try:
        gram.rmatvec(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.values.shape == (81, 4096)
    assert peak <= gram.values.nbytes + 2 * y.nbytes


@pytest.mark.parametrize("n, k", [(1, 256), (2, 64)])  # 36 KiB and 5 MiB of values
def test_rmatvec_writes_the_conjugated_values_first_into_the_gathered_copy(n, k):
    # numpy's complex product is not commutative bit for bit, and past
    # 256 KiB an expression would let its temporary elision pick the order;
    # the oracle is the written form, computed here
    f = random_trig_poly(np.random.default_rng(3), n, 2)
    a = toeplitz_diagonals(f, HilbertSpec(n, k))
    gram = a.adjoint() @ a
    rng = np.random.default_rng(1)
    dim = gram.spec.dim
    for y in (rng.standard_normal(dim) + 1j * rng.standard_normal(dim), rng.standard_normal(dim)):
        gathered = np.asarray(y, dtype=complex)[gram.rows]
        want = np.multiply(gram.values.conj(), gathered, out=gathered).sum(axis=0)
        assert np.array_equal(gram.rmatvec(y).view(np.uint64), want.view(np.uint64))


def _apply_term_by_term(f, spec, x):
    """A x summed over the symbol terms one by one, an oracle that needs no matrix."""
    n, k = spec.n, spec.k
    grid = np.indices((k,) * n).reshape(n, -1).T
    out = np.zeros(spec.dim, dtype=complex)
    for p, q, c in zip(f.keys[:, :n], f.keys[:, n:], f.values):
        rows = np.ravel_multi_index(((grid + p) % k).T, (k,) * n)
        at = grid if spec.polarization is Polarization.POSITION else grid + p
        np.add.at(out, rows, c * np.exp(2j * np.pi * spec.hbar * (at @ q)) * x)
    return out


def test_apply_works_above_dense_cap():
    spec = HilbertSpec(1, DENSE_DIM_CAP + 1)
    shift = toeplitz_diagonals(TrigPoly.harmonic(1, (1,), (0,)), spec)
    state = np.zeros(spec.dim, dtype=complex)
    state[0] = 1.0
    out = shift.matvec(state)
    assert abs(out[1] - 1.0) < 1e-15
    assert np.linalg.norm(out) == pytest.approx(1.0)
    assert np.abs(shift.rmatvec(out) - state).max() < 1e-15
    # n = 2 above the cap, both polarizations, against the per-term sum
    rng = np.random.default_rng(11)
    f = random_trig_poly(rng, 2, 2)
    for pol in Polarization:
        spec = HilbertSpec(2, 65, pol)
        diagonals = toeplitz_diagonals(f, spec)
        x = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        assert np.abs(diagonals.matvec(x) - _apply_term_by_term(f, spec, x)).max() < 1e-12
        # <A x, y> = <x, A* y>
        y = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        assert abs(np.vdot(y, diagonals.matvec(x)) - np.vdot(diagonals.rmatvec(y), x)) < 1e-10
        with pytest.raises(ValueError, match="dense cap"):
            diagonals.dense()


def test_dense_cap_enforced():
    with pytest.raises(ValueError, match="dense cap .*; use toeplitz_diagonals"):
        assemble_toeplitz(TrigPoly.constant(1, 1.0), HilbertSpec(1, DENSE_DIM_CAP + 1))
    with pytest.raises(ValueError, match="dense cap"):
        assemble_toeplitz(TrigPoly.constant(2, 1.0), HilbertSpec(2, 65))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        assemble_toeplitz(TrigPoly.constant(2, 1.0), HilbertSpec(1, 4))


def test_intertwine_tag_flip():
    f = random_trig_poly(np.random.default_rng(5), 1, 2)
    mom = toeplitz_diagonals(f, HilbertSpec(1, 6, Polarization.MOMENTUM))
    out = intertwine(mom)
    assert out.spec.polarization is Polarization.POSITION
    assert np.array_equal(out.dense(), mom.dense())
    with pytest.raises(PolarizationError):
        intertwine(out)


def test_trace_is_scaled_mean_beyond_bandwidth():
    # every non-constant term sums roots of unity to zero once k > bandwidth
    rng = np.random.default_rng(9)
    f = random_trig_poly(rng, 1, 3)
    for k in (4, 7, 16):
        assert abs(np.trace(_dense(f, HilbertSpec(1, k))) - k * f.mean) < 1e-12
    g = random_trig_poly(rng, 2, 1)
    assert abs(np.trace(_dense(g, HilbertSpec(2, 3))) - 9 * g.mean) < 1e-12
    # the clock generator alone: character sum vanishes exactly
    _, v = _generators(HilbertSpec(1, 5), 1)
    assert abs(np.trace(v)) < 1e-14


def test_operator_arithmetic_and_space_checks():
    spec = HilbertSpec(1, 3)
    u, v = (assemble_toeplitz(TrigPoly.harmonic(1, p, q), spec) for p, q in (((1,), (0,)), ((0,), (1,))))
    s = (u + v) - u
    assert np.abs(s.entries - v.entries).max() == 0.0
    assert np.abs(u.scale(2.0).entries - 2.0 * u.entries).max() == 0.0
    other = assemble_toeplitz(TrigPoly.constant(1, 1.0), HilbertSpec(1, 4))
    with pytest.raises(ValueError):
        u @ other


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    bandwidths=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    k=st.integers(1, 9),
    polarization=st.sampled_from(["position", "momentum"]),
)
@example(seed=1, n=1, bandwidths=(3, 2), k=3, polarization="position")  # shift sums collide mod k
@example(seed=2, n=2, bandwidths=(2, 2), k=4, polarization="momentum")  # k <= 2 * bandwidth
@example(seed=3, n=1, bandwidths=(2, 3), k=9, polarization="momentum")
def test_diagonal_algebra_matches_the_dense_algebra(seed, n, bandwidths, k, polarization):
    rng = np.random.default_rng(seed)
    spec = HilbertSpec(n, k, polarization)
    f, g = (random_trig_poly(rng, n, b) for b in bandwidths)
    da, db = toeplitz_diagonals(f, spec), toeplitz_diagonals(g, spec)
    a, b = da.dense(), db.dense()
    c = complex(*rng.standard_normal(2))
    # the bound on every entry of the dense product a b
    entry_bound = np.abs(a).sum(axis=1).max() * np.abs(b).sum(axis=0).max()
    for got, want, scale in (
        (da @ db, a @ b, entry_bound),
        (da + db, a + b, np.abs(a).max() + np.abs(b).max()),
        (da - db, a - b, np.abs(a).max() + np.abs(b).max()),
        (da.scale(c), a * c, np.abs(a).max() * abs(c)),
        (da.adjoint(), a.conj().T, np.abs(a).max()),
        (da.adjoint() @ da, a.conj().T @ a, np.abs(a).sum(axis=0).max() ** 2),
    ):
        assert got.spec == spec
        assert np.abs(got.dense() - want).max() <= 1e-13 * scale
    # hbar^n tr Q_f is the lattice mean of f in either polarization
    assert abs(k**n * lattice_mean(f, k) - np.trace(a)) <= 1e-13 * np.abs(a).max() * spec.dim
    assert type(a) is np.ndarray and a.dtype == complex
    assert np.array_equal(DiagonalOperator.identity(spec).dense(), np.eye(spec.dim))


def test_diagonal_product_merges_colliding_shifts():
    # bandwidth 3 at k = 3: seven x-frequencies alias onto three residues,
    # and the 3 x 3 shift sums of a product onto three again
    spec = HilbertSpec(1, 3)
    rng = np.random.default_rng(4)
    da, db = (toeplitz_diagonals(random_trig_poly(rng, 1, 3), spec) for _ in range(2))
    product = da @ db
    assert len(da.shifts) == len(db.shifts) == len(product.shifts) == 3
    a, b = da.dense(), db.dense()
    entry_bound = np.abs(a).sum(axis=1).max() * np.abs(b).sum(axis=0).max()
    assert np.abs(product.dense() - a @ b).max() <= 1e-13 * entry_bound
    with pytest.raises(ValueError):
        da @ toeplitz_diagonals(TrigPoly.constant(1, 1.0), HilbertSpec(1, 4))
    with pytest.raises(ValueError):
        da + toeplitz_diagonals(TrigPoly.constant(1, 1.0), HilbertSpec(1, 3, "momentum"))


def _blocked_product(a, b, block_entries=1 << 18):
    """a @ b by the former engine, the oracle of the one-diagonal-at-a-time
    product: the diagonals of a in blocks of at most ``block_entries``
    gathered entries, each block's products summed into the output by one
    ``np.add.at`` on flat indices, in the order of a's diagonals."""
    sums = a.shifts[:, None, :] + b.shifts[None, :, :]
    shifts, which = _distinct_residues(sums.reshape(-1, a.spec.n), a.spec.k)
    which = which.reshape(sums.shape[:2])
    out = np.zeros((len(shifts), a.spec.dim), dtype=complex)
    block = max(1, block_entries // max(b.values.size, 1))
    for start in range(0, len(a.shifts), block):
        part = slice(start, start + block)
        gathered = a.values[part][:, b.rows] * b.values
        flat = which[part].ravel()[:, None] * a.spec.dim + np.arange(a.spec.dim)
        np.add.at(out.reshape(-1), flat.ravel(), gathered.ravel())
    return shifts, out


@pytest.mark.parametrize("polarization", ["position", "momentum"])
@pytest.mark.parametrize("n, bandwidths, k", [(1, (3, 2), 3), (1, (2, 2), 64), (2, (1, 2), 5), (2, (2, 2), 16)])
def test_diagonal_product_matches_the_blocked_add_at_product_bit_for_bit(polarization, n, bandwidths, k):
    # the products the sweeps take, A B and the Gram matrix A* A, with shift
    # sums that collide across diagonals of A (k = 3 folds bandwidth 3),
    # against the blocked np.add.at engine with one block and with blocks
    # of one diagonal; equal bits, signed zeros included
    rng = np.random.default_rng(n * 100 + k)
    spec = HilbertSpec(n, k, polarization)
    da, db = (toeplitz_diagonals(random_trig_poly(rng, n, b), spec) for b in bandwidths)
    for left, right in ((da, db), (da.adjoint(), da), (db, da.adjoint() @ da)):
        got = left @ right
        for block_entries in (1 << 18, 1):
            shifts, want = _blocked_product(left, right, block_entries)
            assert np.array_equal(got.shifts, shifts)
            assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))


def test_dense_generators_scatter_the_diagonal_ones():
    spec = HilbertSpec(2, 3)
    zero = (0, 0)
    for axis in (1, 2):
        e = tuple(1 if j == axis - 1 else 0 for j in range(2))
        harmonics = (TrigPoly.harmonic(2, e, zero), TrigPoly.harmonic(2, zero, e))
        for harmonic, diagonal in zip(harmonics, torus_generator_diagonals(spec, axis)):
            assert len(diagonal.shifts) == 1
            assert np.abs(diagonal.dense() - _assemble_term_by_term(harmonic, spec)).max() < 1e-15


def test_state_and_operator_are_frozen():
    # matvec and rmatvec leave the state they act on alone, and neither
    # operator form can be changed through its arrays
    spec = HilbertSpec(1, 3)
    f = random_trig_poly(np.random.default_rng(2), 1, 1)
    diagonals = toeplitz_diagonals(f, spec)
    state = np.array([1.0, 2.0j, -1.0])
    for act in (diagonals.matvec, diagonals.rmatvec):
        out = act(state)
        out[0] = 99.0
        assert np.array_equal(state, [1.0, 2.0j, -1.0])
    for array in (diagonals.shifts, diagonals.values, diagonals.rows):
        with pytest.raises(ValueError):
            array[0] = 0
    src = diagonals.values.copy()
    copy = DiagonalOperator(spec, diagonals.shifts, src)
    src[0, 0] = 5.0
    assert copy.values[0, 0] == diagonals.values[0, 0]
    with pytest.raises(ValueError):
        DiagonalOperator(spec, diagonals.shifts, np.ones((len(diagonals.shifts), 4)))
    with pytest.raises(ValueError, match="distinct"):
        DiagonalOperator(spec, [[0], [3]], np.ones((2, 3)))
    op = assemble_toeplitz(TrigPoly.constant(1, 1.0), spec)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0
    with pytest.raises(ValueError):
        QuantumOperator(spec, np.ones((4, 4)))


def test_csv_golden():
    # amplitudes chosen so every entry is exactly representable
    f = TrigPoly(1, {((0,), (0,)): 0.5, ((1,), (0,)): 0.25})
    op = toeplitz_diagonals(f, HilbertSpec(1, 2))
    want = (
        "row,col,re,im\n"
        "0,0,0.5,0.0\n"
        "0,1,0.25,0.0\n"
        "1,0,0.25,0.0\n"
        "1,1,0.5,0.0\n"
    )
    assert operator_to_csv(op) == want


def test_csv_skips_zero_entries():
    op = DiagonalOperator(HilbertSpec(1, 3), [[0]], [[1.0, 0.0, 2.0]])
    text = operator_to_csv(op)
    assert text == "row,col,re,im\n0,0,1.0,0.0\n2,2,2.0,0.0\n"


def _csv_by_scanning_every_entry(entries):
    """The row-major double loop over a dense matrix that operator_to_csv
    replaced, kept as its oracle."""
    lines = ["row,col,re,im"]
    dim = len(entries)
    for r in range(dim):
        row = entries[r]
        for c in range(dim):
            v = row[c]
            if v != 0:
                lines.append(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("polarization", ["position", "momentum"])
def test_csv_matches_the_entry_scan_byte_for_byte(polarization):
    # the assemble subcommand writes its CSV off the wrapped diagonals; the
    # dense matrix of assemble_toeplitz gives the same bytes
    for seed in range(4):
        rng = np.random.default_rng(seed)
        for n in (1, 2):
            for bandwidth in (0, 1, 2):
                f = random_trig_poly(rng, n, bandwidth)
                for k in (2, 3, 5, 8):
                    spec = HilbertSpec(n, k, polarization)
                    want = _csv_by_scanning_every_entry(assemble_toeplitz(f, spec).entries)
                    assert operator_to_csv(toeplitz_diagonals(f, spec)) == want
    f = random_trig_poly(np.random.default_rng(31), 2, 1)
    op = toeplitz_diagonals(f, HilbertSpec(2, 5, polarization))
    values = op.values.copy()
    values[0, 1] = -0.0 + 0.0j  # a signed zero is still a zero entry
    values[1, 3] = 1e-300 - 0.0j
    op = DiagonalOperator(op.spec, op.shifts, values)
    text = operator_to_csv(op)
    assert text == _csv_by_scanning_every_entry(op.dense())
    assert len(text.splitlines()) == 1 + np.count_nonzero(values)
