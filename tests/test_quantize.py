"""Toeplitz assembly against hand-computed small matrices and exact identities."""

import cmath

import numpy as np
import pytest

from torusquant.quantize import (
    DENSE_DIM_CAP,
    HilbertSpec,
    Polarization,
    PolarizationError,
    QuantumOperator,
    QuantumState,
    apply_toeplitz,
    assemble_toeplitz,
    basis_index,
    intertwine,
    operator_to_csv,
    quantum_torus_generators,
    write_operator_csv,
)
from torusquant.starprod import HbarValue, star_exact
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


def test_basis_index_row_major_with_wrap():
    spec = HilbertSpec(2, 3)
    assert basis_index(spec, (0, 0)) == 0
    assert basis_index(spec, (1, 2)) == 5
    assert basis_index(spec, (-1, 0)) == 6
    with pytest.raises(ValueError):
        basis_index(spec, (1,))


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
    rng = np.random.default_rng(7)
    for n, k, pol in ((1, 9, Polarization.POSITION), (1, 9, Polarization.MOMENTUM), (2, 4, Polarization.POSITION)):
        spec = HilbertSpec(n, k, pol)
        f = random_trig_poly(rng, n, 2)
        op = assemble_toeplitz(f, spec)
        vec = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
        state = QuantumState(spec, vec)
        direct = op.apply(state).amplitudes
        free = apply_toeplitz(f, state).amplitudes
        assert np.abs(direct - free).max() < 1e-12


def test_apply_works_above_dense_cap():
    spec = HilbertSpec(1, DENSE_DIM_CAP + 1)
    state = QuantumState.basis_state(spec, (0,))
    out = apply_toeplitz(TrigPoly.harmonic(1, (1,), (0,)), state)
    assert abs(out.amplitudes[1] - 1.0) < 1e-15
    assert out.norm() == pytest.approx(1.0)


def test_dense_cap_enforced():
    with pytest.raises(ValueError, match="dense cap"):
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
        assert abs(op.trace() - k * f.mean) < 1e-12
    g = random_trig_poly(rng, 2, 1)
    op2 = assemble_toeplitz(g, HilbertSpec(2, 3))
    assert abs(op2.trace() - 9 * g.mean) < 1e-12
    # the clock generator alone: character sum vanishes exactly
    _, v = quantum_torus_generators(HilbertSpec(1, 5), 1)
    assert abs(v.trace()) < 1e-14


def test_operator_arithmetic_and_space_checks():
    spec = HilbertSpec(1, 3)
    u, v = quantum_torus_generators(spec, 1)
    s = (u + v) - u
    assert np.abs(s.entries - v.entries).max() == 0.0
    assert np.abs(u.scale(2.0).entries - 2.0 * u.entries).max() == 0.0
    other = assemble_toeplitz(TrigPoly.constant(1, 1.0), HilbertSpec(1, 4))
    with pytest.raises(ValueError):
        u @ other
    with pytest.raises(ValueError):
        u.apply(QuantumState.basis_state(HilbertSpec(1, 4), (0,)))


def test_state_and_operator_are_frozen():
    spec = HilbertSpec(1, 3)
    src = np.ones(3, dtype=complex)
    state = QuantumState(spec, src)
    src[0] = 99.0
    assert state.amplitudes[0] == 1.0
    with pytest.raises(ValueError):
        state.amplitudes[1] = 0.0
    op = assemble_toeplitz(TrigPoly.constant(1, 1.0), spec)
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0
    with pytest.raises(ValueError):
        QuantumState(spec, np.ones(4))


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
