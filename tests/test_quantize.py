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
    TERM_BLOCK_ENTRIES,
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    PolarizationError,
    QuantumOperator,
    assemble_toeplitz,
    intertwine,
    operator_to_csv,
    quantum_torus_generators,
    toeplitz_diagonals,
    torus_generator_diagonals,
    write_operator_csv,
    _distinct_residues,
)
from torusquant.starprod import HbarValue, star_exact, star_truncated
from torusquant.trigpoly import TrigPoly, random_trig_poly


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
    u, v = quantum_torus_generators(spec, 1)
    shift = np.zeros((4, 4))
    for m in range(4):
        shift[(m + 1) % 4, m] = 1.0
    assert np.abs(u.entries - shift).max() < 1e-15
    clock = np.diag([1.0, 1j, -1.0, -1j])
    assert np.abs(v.entries - clock).max() < 1e-15


def test_generators_at_k2():
    spec = HilbertSpec(1, 2)
    u, v = quantum_torus_generators(spec, 1)
    assert np.abs(u.entries - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-15
    assert np.abs(v.entries - np.diag([1.0, -1.0])).max() < 1e-15


def test_commutation_relation():
    # U V = e^{-2 pi i hbar} V U
    for k in (2, 3, 7):
        spec = HilbertSpec(1, k)
        u, v = quantum_torus_generators(spec, 1)
        lhs = (u @ v).entries
        rhs = cmath.exp(-2j * cmath.pi / k) * (v @ u).entries
        assert np.abs(lhs - rhs).max() < 1e-14


def test_generators_commute_across_axes():
    spec = HilbertSpec(2, 3)
    u1, v1 = quantum_torus_generators(spec, 1)
    u2, v2 = quantum_torus_generators(spec, 2)
    assert np.abs((u1 @ v2).entries - (v2 @ u1).entries).max() < 1e-14
    assert np.abs((u1 @ u2).entries - (u2 @ u1).entries).max() < 1e-14
    with pytest.raises(ValueError):
        quantum_torus_generators(spec, 3)


def test_polarizations_differ_on_mixed_terms():
    # for a term with p = q = 1 the momentum matrix carries the phase at m/k
    # where the position matrix carries it at m'/k = (m-1)/k
    k = 4
    f = TrigPoly.harmonic(1, (1,), (1,))
    pos = assemble_toeplitz(f, HilbertSpec(1, k, Polarization.POSITION))
    mom = assemble_toeplitz(f, HilbertSpec(1, k, Polarization.MOMENTUM))
    ratio = cmath.exp(2j * cmath.pi / k)
    assert np.abs(mom.entries - ratio * pos.entries).max() < 1e-14
    # pure-x and pure-y symbols agree across polarizations
    for g in (TrigPoly.harmonic(1, (1,), (0,)), TrigPoly.harmonic(1, (0,), (1,))):
        a = assemble_toeplitz(g, HilbertSpec(1, k, Polarization.POSITION))
        b = assemble_toeplitz(g, HilbertSpec(1, k, Polarization.MOMENTUM))
        assert np.abs(a.entries - b.entries).max() < 1e-15


def test_exact_product_identity_small():
    # Q_f Q_g equals the quantization of the convergent star product
    rng = np.random.default_rng(42)
    f = random_trig_poly(rng, 1, 2)
    g = random_trig_poly(rng, 1, 2)
    k = 5
    spec = HilbertSpec(1, k)
    lhs = assemble_toeplitz(f, spec) @ assemble_toeplitz(g, spec)
    rhs = assemble_toeplitz(star_exact(f, g, HbarValue(k)), spec)
    assert np.abs(lhs.entries - rhs.entries).max() < 1e-13


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
        dense = assemble_toeplitz(f, spec).entries
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
                assert np.abs(got.dense().entries - dense).max() <= FFT_ORACLE_TOL * symbol.l1_norm()


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
        got = toeplitz_diagonals(TrigPoly.constant(n, c), spec).dense().entries
        want = np.zeros((spec.dim, spec.dim), dtype=complex)
        np.fill_diagonal(want, c)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    zero = (0,) * n
    for axis in range(n):
        e = tuple(1 if j == axis else 0 for j in range(n))
        shift = toeplitz_diagonals(TrigPoly.harmonic(n, e, zero), spec).dense().entries
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
                text = operator_to_csv(assemble_toeplitz(symbol, HilbertSpec(n, k, polarization)))
                fields = [v for line in text.splitlines()[1:] for v in line.split(",")[2:]]
                assert "-0.0" not in fields


def test_kernel_temporaries_stay_bounded_with_more_terms_than_the_dimension():
    # 6561 terms at dim 1024: building all their diagonals at once would
    # hold about 0.5 GB of temporaries next to a 16 MiB matrix
    f = random_trig_poly(np.random.default_rng(3), 2, 4)
    spec = HilbertSpec(2, 32)
    state = np.ones(spec.dim, dtype=complex)
    dense = 16 * spec.dim**2
    budget = 128 * TERM_BLOCK_ENTRIES  # bytes; a block holds about 72 per entry
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
    mom = assemble_toeplitz(f, HilbertSpec(1, 6, Polarization.MOMENTUM))
    out = intertwine(mom)
    assert out.spec.polarization is Polarization.POSITION
    assert np.abs(out.entries - mom.entries).max() == 0.0
    with pytest.raises(PolarizationError):
        intertwine(out)


def test_trace_is_scaled_mean_beyond_bandwidth():
    # every non-constant term sums roots of unity to zero once k > bandwidth
    rng = np.random.default_rng(9)
    f = random_trig_poly(rng, 1, 3)
    for k in (4, 7, 16):
        op = assemble_toeplitz(f, HilbertSpec(1, k))
        assert abs(np.trace(op.entries) - k * f.mean) < 1e-12
    g = random_trig_poly(rng, 2, 1)
    op2 = assemble_toeplitz(g, HilbertSpec(2, 3))
    assert abs(np.trace(op2.entries) - 9 * g.mean) < 1e-12
    # the clock generator alone: character sum vanishes exactly
    _, v = quantum_torus_generators(HilbertSpec(1, 5), 1)
    assert abs(np.trace(v.entries)) < 1e-14


def test_operator_arithmetic_and_space_checks():
    spec = HilbertSpec(1, 3)
    u, v = quantum_torus_generators(spec, 1)
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
    a, b = da.dense().entries, db.dense().entries
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
        assert np.abs(got.dense().entries - want).max() <= 1e-13 * scale
    # hbar^n tr Q_f is the lattice mean of f in either polarization
    assert abs(k**n * lattice_mean(f, k) - np.trace(a)) <= 1e-13 * np.abs(a).max() * spec.dim
    assert np.array_equal(DiagonalOperator.identity(spec).dense().entries, np.eye(spec.dim))


def test_diagonal_product_merges_colliding_shifts():
    # bandwidth 3 at k = 3: seven x-frequencies alias onto three residues,
    # and the 3 x 3 shift sums of a product onto three again
    spec = HilbertSpec(1, 3)
    rng = np.random.default_rng(4)
    da, db = (toeplitz_diagonals(random_trig_poly(rng, 1, 3), spec) for _ in range(2))
    product = da @ db
    assert len(da.shifts) == len(db.shifts) == len(product.shifts) == 3
    a, b = da.dense().entries, db.dense().entries
    entry_bound = np.abs(a).sum(axis=1).max() * np.abs(b).sum(axis=0).max()
    assert np.abs(product.dense().entries - a @ b).max() <= 1e-13 * entry_bound
    with pytest.raises(ValueError):
        da @ toeplitz_diagonals(TrigPoly.constant(1, 1.0), HilbertSpec(1, 4))
    with pytest.raises(ValueError):
        da + toeplitz_diagonals(TrigPoly.constant(1, 1.0), HilbertSpec(1, 3, "momentum"))


def test_dense_generators_scatter_the_diagonal_ones():
    spec = HilbertSpec(2, 3)
    for axis in (1, 2):
        for dense, diagonal in zip(quantum_torus_generators(spec, axis), torus_generator_diagonals(spec, axis)):
            assert len(diagonal.shifts) == 1
            assert np.array_equal(dense.entries, diagonal.dense().entries)


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


def test_csv_golden(tmp_path):
    # amplitudes chosen so every entry is exactly representable
    f = TrigPoly(1, {((0,), (0,)): 0.5, ((1,), (0,)): 0.25})
    op = assemble_toeplitz(f, HilbertSpec(1, 2))
    want = (
        "row,col,re,im\n"
        "0,0,0.5,0.0\n"
        "0,1,0.25,0.0\n"
        "1,0,0.25,0.0\n"
        "1,1,0.5,0.0\n"
    )
    assert operator_to_csv(op) == want
    path = tmp_path / "op.csv"
    write_operator_csv(op, path)
    assert path.read_text(encoding="utf-8") == want


def test_csv_skips_zero_entries():
    op = QuantumOperator(HilbertSpec(1, 3), np.diag([1.0, 0.0, 2.0]))
    text = operator_to_csv(op)
    assert text == "row,col,re,im\n0,0,1.0,0.0\n2,2,2.0,0.0\n"


def _csv_by_scanning_every_entry(op):
    """The row-major double loop operator_to_csv replaced, kept as its oracle."""
    lines = ["row,col,re,im"]
    dim = op.spec.dim
    for r in range(dim):
        row = op.entries[r]
        for c in range(dim):
            v = row[c]
            if v != 0:
                lines.append(f"{r},{c},{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("polarization", ["position", "momentum"])
def test_csv_matches_the_entry_scan_byte_for_byte(polarization):
    f = random_trig_poly(np.random.default_rng(31), 2, 1)
    op = assemble_toeplitz(f, HilbertSpec(2, 5, polarization))
    entries = op.entries.copy()
    entries[0, 1] = -0.0 + 0.0j  # a signed zero is still a zero entry
    entries[2, 3] = 1e-300 - 0.0j
    op = QuantumOperator(op.spec, entries)
    text = operator_to_csv(op)
    assert text == _csv_by_scanning_every_entry(op)
    assert len(text.splitlines()) == 1 + np.count_nonzero(entries)
