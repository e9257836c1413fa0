"""Certified Lanczos l2 norms of wrapped-diagonal operators against LAPACK."""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusquant.analysis import (
    CERT_MIN_ROWS,
    L2_CERT_DELTA,
    LANCZOS_BUDGET,
    LANCZOS_CHECK,
    LAPACK_L2_MAX_DIM,
    LOWER_SOLVE_LEAF,
    TORUS_RELATION_TOL,
    L2Reading,
    L2RouteError,
    NormKind,
    _certify,
    _exact_transform_defect,
    _interleaving,
    _lanczos_top,
    _lower_solve,
    _panel_entries,
    _remainder_at,
    _schur_update,
    _top_ritz,
    _tridiagonal,
    certified_l2_norm,
    intertwine_sweep,
    norm_bound_sweep,
    operator_norm,
    product_sweep,
    torus_relations_sweep,
)
from torusquant.checks import check_exact_homomorphism
from torusquant.config import CERT_BLOCK_CAP, GRAM_ENTRY_CAP, ConfigError, parse_config
from torusquant.quantize import DiagonalOperator, HilbertSpec, toeplitz_diagonals
from torusquant.starprod import (
    HbarValue,
    berezin_exact,
    berezin_map,
    berezin_truncated,
    product_map,
    star_exact,
    star_truncated,
)
from torusquant.trigpoly import TrigPoly, random_trig_poly

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _symbol(seed: int, n: int, bandwidth: int, kind: str, k: int) -> TrigPoly:
    """A random symbol, or the product or Berezin remainder the sweeps take
    norms of, at level k."""
    rng = np.random.default_rng(seed)
    f = random_trig_poly(rng, n, bandwidth)
    if kind == "random":
        return f
    if kind == "product":
        g = random_trig_poly(rng, n, bandwidth)
        return star_exact(f, g, HbarValue(k)) - star_truncated(f, g, 1).evaluate(1.0 / k)
    return berezin_exact(f, HbarValue(k)) - berezin_truncated(f, 1).evaluate(1.0 / k)


def _diagonals(seed, n, bandwidth, kind, k, polarization="position"):
    return toeplitz_diagonals(_symbol(seed, n, bandwidth, kind, k), HilbertSpec(n, k, polarization))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2]),
    bandwidth=st.integers(1, 3),
    kind=st.sampled_from(["random", "product", "berezin"]),
    k=st.integers(2, 96),
    polarization=st.sampled_from(["position", "momentum"]),
)
@example(seed=1, n=1, bandwidth=2, kind="product", k=64, polarization="position")
@example(seed=2, n=1, bandwidth=3, kind="random", k=6, polarization="momentum")  # k <= 2 * bandwidth
@example(seed=3, n=2, bandwidth=1, kind="random", k=16, polarization="momentum")
@example(seed=4, n=2, bandwidth=1, kind="berezin", k=13, polarization="position")
def test_certified_l2_brackets_the_lapack_norm(seed, n, bandwidth, kind, k, polarization):
    if n == 2:
        bandwidth, k = 1, min(k, 20)  # dimension at most 400
    op = _diagonals(seed, n, bandwidth, kind, k, polarization)
    reading = operator_norm(op, NormKind.L2)
    lapack = np.linalg.norm(op.dense(), 2)
    assert isinstance(reading, L2Reading)
    assert lapack * (1.0 - L2_CERT_DELTA) <= reading <= lapack * (1.0 + 1e-14)
    assert reading.upper >= lapack * (1.0 - 1e-14)
    if reading.method == "lanczos_certified":
        assert reading.upper == pytest.approx(float(reading) * np.sqrt(1.0 + L2_CERT_DELTA), rel=1e-15)
    else:
        assert reading.method == "lapack_svd" and reading.upper == float(reading) == lapack


def _no_eigh(*args, **kwargs):
    raise AssertionError("np.linalg.eigh called on the l2 route")


def _check_lanczos_answers(monkeypatch, seed, n, bandwidth, kind, k):
    op = _diagonals(seed, n, bandwidth, kind, k)
    with monkeypatch.context() as patch:  # no eigenvector is formed on the route
        patch.setattr("torusquant.analysis.np.linalg.eigh", _no_eigh)
        reading = operator_norm(op, NormKind.L2)
    assert reading.method == "lanczos_certified" and 0 < reading.steps <= op.spec.dim
    assert reading.describe() == {"method": "lanczos_certified", "steps": reading.steps}
    lapack = np.linalg.norm(op.dense(), 2)
    assert lapack * (1.0 - L2_CERT_DELTA) <= reading <= lapack * (1.0 + 1e-14) <= reading.upper
    # up to dimension 64 LAPACK answers
    small = _diagonals(seed, n, bandwidth, kind, 4)
    assert operator_norm(small, NormKind.L2).describe() == {"method": "lapack_svd"}
    return op


def _block_count(op):
    _perm, block = _interleaving(op)
    return -(-op.spec.dim // block)


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k",
    [(5, 1, 2, "product", 256), (6, 1, 3, "random", 128), (7, 2, 1, "random", 16), (8, 2, 1, "berezin", 12)],
)
def test_lanczos_answers_once_the_band_has_three_blocks(monkeypatch, seed, n, bandwidth, kind, k):
    op = _check_lanczos_answers(monkeypatch, seed, n, bandwidth, kind, k)
    assert _block_count(op) >= 3


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k, blocks",
    [
        (9, 2, 1, "product", 12, 2),  # blocks of 8 slices: two of them
        (10, 2, 2, "product", 16, 1),  # blocks of 16 slices: one, the whole band
    ],
)
def test_lanczos_answers_with_one_or_two_blocks(monkeypatch, seed, n, bandwidth, kind, k, blocks):
    # the block-tridiagonal form holds trivially with fewer than three blocks
    op = _check_lanczos_answers(monkeypatch, seed, n, bandwidth, kind, k)
    assert _block_count(op) == blocks


def test_certificate_blocks_stay_within_the_dense_cap(monkeypatch):
    # a band whose blocks would pass CERT_BLOCK_CAP, the cap parsing holds
    # configs to, gets no certificate: below the dense cap LAPACK answers,
    # above it the error names the blocks
    op = _diagonals(71, 2, 1, "product", 12)  # blocks of 8 x 12 = 96 entries
    monkeypatch.setattr("torusquant.config.CERT_BLOCK_CAP", 95)
    refusal = "l2 certificate blocks of 2 x 4 x 12^1 = 96 entries, above 95"
    assert _interleaving(op) == refusal
    assert operator_norm(op, NormKind.L2).method == "lapack_svd"
    monkeypatch.setattr("torusquant.analysis.DENSE_DIM_CAP", 143)
    with pytest.raises(L2RouteError, match=re.escape(refusal)):
        operator_norm(op, NormKind.L2)
    monkeypatch.setattr("torusquant.config.CERT_BLOCK_CAP", 96)
    assert operator_norm(op, NormKind.L2).method == "lanczos_certified"


def _no_gram(self):
    raise AssertionError("A*A formed")


def test_a_gram_past_its_cap_is_refused_before_it_is_formed(monkeypatch):
    # the same band holds 9^2 diagonals of A*A, 81 x 144 = 11664 entries:
    # one entry past GRAM_ENTRY_CAP, the route takes the path it takes for
    # blocks, and forms no A*A
    op = _diagonals(71, 2, 1, "product", 12)
    monkeypatch.setattr("torusquant.config.GRAM_ENTRY_CAP", 11663)
    refusal = "11664 entries of A*A, above 11663"
    assert _interleaving(op) == refusal
    with monkeypatch.context() as patch:
        patch.setattr(DiagonalOperator, "adjoint", _no_gram)
        assert certified_l2_norm(op, 0.0).method == "lapack_svd"
        patch.setattr("torusquant.analysis.DENSE_DIM_CAP", 143)
        with pytest.raises(L2RouteError, match=re.escape(f"the certificate needs {refusal} after 0 Lanczos steps")):
            certified_l2_norm(op, 0.0)
    monkeypatch.setattr("torusquant.config.GRAM_ENTRY_CAP", 11664)
    assert certified_l2_norm(op, 0.0).method == "lanczos_certified"


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k, polarization",
    [
        (11, 1, 2, "random", 24, "position"),
        (12, 1, 2, "product", 33, "momentum"),  # odd k, remainder of bandwidth 4
        (13, 1, 1, "random", 13, "position"),  # a short last block
        (14, 2, 1, "random", 10, "momentum"),
        (15, 2, 1, "product", 18, "position"),
    ],
)
def test_interleaved_gram_matrix_is_block_tridiagonal(seed, n, bandwidth, kind, k, polarization):
    op = _diagonals(seed, n, bandwidth, kind, k, polarization)
    a = op.dense()
    gram = a.conj().T @ a
    # the band holds every entry of A*A, and nothing else
    band = op.adjoint() @ op
    assert np.abs(band.dense() - gram).max() <= 1e-13 * np.abs(gram).max()
    # in the interleaved order nothing lies outside the tridiagonal blocks
    perm, block = _interleaving(op)
    assert sorted(perm.tolist()) == list(range(op.spec.dim))
    blocks = np.arange(op.spec.dim) // block
    outside = np.abs(blocks[:, None] - blocks[None, :]) > 1
    assert outside.any()
    assert not gram[np.ix_(perm, perm)][outside].any()


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k",
    [(21, 1, 2, "product", 64), (22, 1, 3, "random", 40), (23, 2, 1, "random", 16), (24, 1, 2, "berezin", 50)],
)
def test_certificate_refuses_a_value_below_the_norm(seed, n, bandwidth, kind, k):
    op = _diagonals(seed, n, bandwidth, kind, k)
    gram = op.adjoint() @ op
    sigma2 = np.linalg.norm(op.dense(), 2) ** 2
    assert not _certify(gram, sigma2 * (1.0 - 1e-9), _interleaving(op))
    assert _certify(gram, sigma2 * (1.0 + L2_CERT_DELTA), _interleaving(op))


def _two_slice_band(seed: int, k: int) -> TrigPoly:
    """An n = 2 symbol whose x1-frequencies are 0 and 1 only: the band of
    its Gram matrix reaches one residue on the outer axis, so interleaving
    blocks hold 2 k entries."""
    f = random_trig_poly(np.random.default_rng(seed), 2, 1)
    return TrigPoly._from_arrays(2, f.keys[f.keys[:, 0] >= 0], f.values[f.keys[:, 0] >= 0])


def _certificate_operator(seed, n, bandwidth, kind, k):
    if kind == "two_slice":
        return toeplitz_diagonals(_two_slice_band(seed, k), HilbertSpec(n, k))
    return _diagonals(seed, n, bandwidth, kind, k)


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k, bs, size",
    [
        (25, 1, 2, "random", 100, 8, 32),  # 100 = 3 x 32 + 4
        (26, 1, 3, "random", 40, 12, 36),
        (27, 1, 2, "product", 100, 16, 32),  # a remainder of bandwidth 4
        (28, 2, 0, "two_slice", 10, 20, 40),  # dimension 100 = 2 x 40 + 20
        (29, 2, 0, "two_slice", 12, 24, 48),  # three whole block rows
        (30, 2, 1, "random", 18, 72, 72),  # 324 = 4 x 72 + 36; no merge, panels of b x 2b
    ],
)
def test_merged_block_rows_certify_the_top_eigenvalue(seed, n, bandwidth, kind, k, bs, size):
    op = _certificate_operator(seed, n, bandwidth, kind, k)
    perm, block = interleaving = _interleaving(op)
    assert block == bs and bs * -(-CERT_MIN_ROWS // bs) == size
    gram = op.adjoint() @ op
    dense = gram.dense()
    top = np.linalg.eigvalsh(dense)[-1]
    assert _certify(gram, top * (1.0 + L2_CERT_DELTA), interleaving)
    assert not _certify(gram, top * (1.0 - 1e-9), interleaving)
    # every entry on or below the diagonal of the interleaved Gram matrix
    # lies in its own block row or in the last bs columns before it
    interleaved = dense[np.ix_(perm, perm)]
    rows, cols = np.nonzero(np.tril(interleaved))
    assert (cols >= rows // size * size - bs).all()
    # and each panel holds exactly those columns of mu I - G in its block
    # row, read off a copy padded by bs in front and by mu I to whole block
    # rows behind
    mu = top * (1.0 + L2_CERT_DELTA)
    flat, values, starts = _panel_entries(gram, perm, bs, size, mu)
    dim = op.spec.dim
    padded = np.zeros((bs + len(starts) * size,) * 2, dtype=complex)
    padded[bs : bs + dim, bs : bs + dim] = mu * np.eye(dim) - interleaved
    np.fill_diagonal(padded[bs + dim :, bs + dim :], mu)
    for row, (start, stop) in enumerate(zip(starts[:-1], starts[1:])):
        panel = np.zeros(size * (bs + size), dtype=complex)
        panel[flat[start:stop]] = values[start:stop]
        top_left = row * size
        want = padded[bs + top_left : bs + top_left + size, top_left : top_left + bs + size]
        assert np.array_equal(panel.reshape(size, bs + size), want)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n, k", [(1, 512), (2, 32)])
def test_three_term_lanczos_reads_clustered_tops_within_half_delta(seed, n, k):
    # norm_bound symbols (bandwidth 2 at n = 1, 1 at n = 2, decay 8): the top
    # of the spectrum of Q_f* Q_f clusters as k grows, and the recurrence
    # keeps no basis to reorthogonalize against
    f = random_trig_poly(np.random.default_rng(seed), n, 3 - n, decay=8.0)
    op = toeplitz_diagonals(f, HilbertSpec(n, k))
    gram = op.adjoint() @ op
    theta, steps = _lanczos_top(gram)
    assert theta is not None and steps > 2 * LANCZOS_CHECK
    lapack = np.linalg.norm(op.dense(), 2)
    assert lapack * (1.0 - L2_CERT_DELTA / 2) <= np.sqrt(theta) <= lapack * (1.0 + 1e-14)
    assert _certify(gram, theta * (1.0 + L2_CERT_DELTA), _interleaving(op))
    assert not _certify(gram, theta * (1.0 - 1e-9), _interleaving(op))


@pytest.mark.parametrize("size", [16, 300, 1024])
def test_blocked_lower_solve_agrees_with_lapack(size):
    # the factors _certify solves against: Cholesky factors of Hermitian
    # positive definite blocks; 300 halves into leaves of 150, 1024 into
    # leaves of 256 through two levels of GEMM updates
    assert LOWER_SOLVE_LEAF == 256
    rng = np.random.default_rng(size)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    lower = np.linalg.cholesky(a.conj().T @ a / size + np.eye(size))
    rhs = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    got = _lower_solve(lower, rhs.conj().T)  # a non-contiguous view, as in _certify
    want = np.linalg.solve(lower, rhs.conj().T)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certificate_brackets_the_lanczos_top_at_n2_k64(seed):
    # an order-1 product remainder of two bandwidth-2 symbols, built by the
    # FFT engine: blocks of 2 x 8 x 64 = 1024 entries, so the triangular
    # solves recurse twice down to leaves of 256
    rng = np.random.default_rng(seed)
    f, g = random_trig_poly(rng, 2, 2, decay=8.0), random_trig_poly(rng, 2, 2, decay=8.0)
    k = 64
    remainder = star_exact(f, g, HbarValue(k)) - star_truncated(f, g, 1).evaluate(1.0 / k)
    op = toeplitz_diagonals(remainder, HilbertSpec(2, k))
    interleaving = _interleaving(op)
    assert interleaving[1] == 1024
    gram = op.adjoint() @ op
    theta, _steps = _lanczos_top(gram)
    assert theta is not None
    assert _certify(gram, theta * (1.0 + L2_CERT_DELTA), interleaving)
    assert not _certify(gram, theta * (1.0 - 1e-9), interleaving)


def test_lanczos_memory_does_not_grow_with_the_budget(monkeypatch):
    # an order-1 product remainder at the dense cap that converges in fewer
    # than 96 steps, so both budgets run the same steps; a stored Krylov
    # basis would add (512 - 96) vectors of 64 KiB each
    rng = np.random.default_rng(31)
    f, g = random_trig_poly(rng, 1, 2, decay=8.0), random_trig_poly(rng, 1, 2, decay=8.0)
    k = 4096
    remainder = star_exact(f, g, HbarValue(k)) - star_truncated(f, g, 1).evaluate(1.0 / k)
    op = toeplitz_diagonals(remainder, HilbertSpec(1, k))
    peaks, results = [], []
    for budget in (96, 512):
        monkeypatch.setattr("torusquant.analysis.LANCZOS_BUDGET", budget)
        gram = op.adjoint() @ op  # fresh, so each run makes its own conjugated values
        tracemalloc.start()
        try:
            results.append(_lanczos_top(gram))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1] and results[0][0] is not None and results[0][1] < 96
    assert peaks[1] < peaks[0] + 16 * op.spec.dim  # at most the two coefficient arrays grow


def test_lanczos_l2_needs_no_dense_array():
    rng = np.random.default_rng(31)
    f, g = random_trig_poly(rng, 1, 2, decay=8.0), random_trig_poly(rng, 1, 2, decay=8.0)
    k = 512
    remainder = star_exact(f, g, HbarValue(k)) - star_truncated(f, g, 1).evaluate(1.0 / k)
    op = toeplitz_diagonals(remainder, HilbertSpec(1, k))
    dense = 16 * op.spec.dim**2
    tracemalloc.start()
    try:
        reading = operator_norm(op, NormKind.L2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reading.method == "lanczos_certified"
    assert peak < dense / 2


def test_sweep_details_name_the_l2_route_per_level():
    rng = np.random.default_rng(41)
    f, g = random_trig_poly(rng, 1, 2, decay=8.0), random_trig_poly(rng, 1, 2, decay=8.0)
    ks = (8, 16, 32, 64, 128, 256)
    report = product_sweep(f, g, 1, ks)
    methods = report.details["l2_methods"]
    assert [m["k"] for m in methods] == list(ks)
    # LAPACK answers up to dimension 64; above it the remainder, of bandwidth
    # 4, leaves at least three blocks of 16 residues for Lanczos
    assert [m["method"] for m in methods] == ["lapack_svd"] * 4 + ["lanczos_certified"] * 2
    assert all(m["steps"] > 0 for m in methods[4:])
    assert report.details["l2_cert_delta"] == L2_CERT_DELTA
    assert report.to_dict() == product_sweep(f, g, 1, ks).to_dict()


def test_norm_bound_is_judged_on_the_certified_upper_value():
    # the shift e^{2 pi i x} is unitary: its norm equals its coefficient bound
    f = TrigPoly.harmonic(1, (1,), (0,))
    report = norm_bound_sweep(f, (2, 128))
    assert report.passed
    assert [m["method"] for m in report.details["l2_methods"]] == ["lapack_svd", "lanczos_certified"]
    assert report.details["max_upper"] == pytest.approx(np.sqrt(1.0 + L2_CERT_DELTA), rel=1e-15)
    assert max(row.error for row in report.rows) == pytest.approx(1.0, rel=1e-15)
    assert report.details["max_upper"] > report.details["max_norm"]


@pytest.fixture
def no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense SVD ran")

    monkeypatch.setattr(np.linalg, "svd", refuse)


def test_zero_operator_reads_zero(no_svd):
    op = toeplitz_diagonals(TrigPoly(1, {}), HilbertSpec(1, 16))
    assert op.values.shape == (0, 16)
    assert operator_norm(op, NormKind.L1) == operator_norm(op, NormKind.LINF) == 0.0
    reading = operator_norm(op, NormKind.L2)
    assert reading == 0.0 and reading.upper == 0.0 and reading.method == "interp_bound"


@pytest.mark.parametrize("n, k", [(2, 4), (1, 64), (2, 8), (1, 128), (1, 8192), (2, 16)])
def test_zero_operator_reads_zero_at_every_dimension(no_svd, n, k):
    # the bound sqrt(l1 linf) = 0 is the norm itself, and within a plain l2
    # reading's tolerance 0 at every dimension: no SVD up to dimension 64,
    # and above it no Lanczos on a zero Gram, whose theta = 0 no certificate
    # takes, with no SVD behind it past the dense cap
    spec = HilbertSpec(n, k)
    no_diagonal = toeplitz_diagonals(TrigPoly(n, {}), spec)
    zero_diagonal = DiagonalOperator(spec, np.zeros((1, n), dtype=np.int64), np.zeros((1, spec.dim)))
    assert no_diagonal.values.shape == (0, spec.dim)
    for op in (no_diagonal, zero_diagonal):
        assert operator_norm(op, NormKind.L1) == operator_norm(op, NormKind.LINF) == 0.0
        reading = operator_norm(op, NormKind.L2)
        assert reading == 0.0 and reading.upper == 0.0 and reading.method == "interp_bound"


@pytest.mark.parametrize("k", [8, 128])
def test_a_tiny_operator_reads_nonzero_on_both_entry_points(k):
    # l1 linf = 2.25e-326 underflows to 0; the product of the roots does
    # not, so both entry points read a nonzero value
    op = toeplitz_diagonals(TrigPoly(1, {((1,), (0,)): 1e-163, ((0,), (1,)): 5e-164}), HilbertSpec(1, k))
    norm = float(np.linalg.svd(op.dense(), compute_uv=False)[0])
    assert op.l1_norm() * op.linf_norm() == 0.0 < norm
    plain = operator_norm(op, NormKind.L2)
    assert plain.method == ("lapack_svd" if k == 8 else "lanczos_certified")
    bound = certified_l2_norm(op, 1e-10)
    assert bound.method == "interp_bound" and bound == pytest.approx(1.5e-163, rel=1e-15)
    for reading in (plain, bound, certified_l2_norm(op, 0.0)):
        assert reading > 0.0 and reading.upper >= max(norm, plain)


def test_a_tiny_exact_transform_defect_reads_nonzero():
    f = random_trig_poly(np.random.default_rng(3), 1, 2, decay=8.0).scale(1e-170)
    defect = _exact_transform_defect(f, 16)
    reading = certified_l2_norm(defect, 1e-10)
    assert reading.method == "interp_bound" and reading > 0.0
    assert reading.upper >= operator_norm(defect, NormKind.L2) >= 6.4e-188


@pytest.mark.parametrize("k", [8, 128])
def test_a_huge_operator_bound_does_not_overflow(k):
    # l1 linf = 2.25e320 overflows to inf; the product of the roots does not
    op = toeplitz_diagonals(TrigPoly(1, {((1,), (0,)): 1e160, ((0,), (1,)): 5e159}), HilbertSpec(1, k))
    assert op.l1_norm() * op.linf_norm() == math.inf
    reading = certified_l2_norm(op, 1e300)
    assert reading.method == "interp_bound" and reading == pytest.approx(1.5e160, rel=1e-15)
    assert reading.upper >= operator_norm(op, NormKind.L2).upper


def test_the_bound_keeps_the_root_of_a_normal_product():
    # where l1 linf is a normal float the bound is its correctly rounded
    # root, the bits that reports have always carried; on this operator the
    # product of the roots rounds to another float
    op = _diagonals(0, 1, 2, "random", 8)
    l1, linf = op.l1_norm(), op.linf_norm()
    assert math.sqrt(l1 * linf) != math.sqrt(l1) * math.sqrt(linf)
    reading = certified_l2_norm(op, 1e300)
    assert reading.method == "interp_bound" and reading == math.sqrt(l1 * linf) == float(np.sqrt(l1 * linf))


def test_lapack_answers_up_to_dimension_64_and_lanczos_above():
    assert LAPACK_L2_MAX_DIM == 64
    for n, k, method in ((1, 64, "lapack_svd"), (1, 128, "lanczos_certified")):
        op = _diagonals(51, n, 1, "random", k)
        assert isinstance(_interleaving(op), tuple)  # the band alone would let Lanczos answer
        reading = operator_norm(op, NormKind.L2)
        assert reading.method == method
        assert reading == pytest.approx(np.linalg.norm(op.dense(), 2), rel=L2_CERT_DELTA)


def test_lanczos_out_of_budget_above_the_dense_cap_names_what_failed(monkeypatch):
    monkeypatch.setattr("torusquant.analysis.LANCZOS_BUDGET", 8)
    op = _diagonals(61, 1, 2, "random", 4097)
    with pytest.raises(L2RouteError) as err:
        operator_norm(op, NormKind.L2)
    message = str(err.value)
    assert "dimension 4097" in message
    assert "after 8 Lanczos steps" in message and "LANCZOS_BUDGET = 8" in message
    assert "convergence test" in message
    assert isinstance(err.value, ValueError)


# -- the slice-triangular Schur update and the trimmed certified readings --------


def _schur_update_oracle(factor, coupling):
    """The Schur update as one dense triangular solve and one GEMM, before it
    followed the slice-triangular coupling."""
    x = _lower_solve(factor, coupling.conj().T)
    return x.conj().T @ x


def _random_factor(rng, size):
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return np.linalg.cholesky(a.conj().T @ a / size + np.eye(size))


@pytest.mark.parametrize("leaf", [LOWER_SOLVE_LEAF, 16])
@pytest.mark.parametrize("b, inner", [(64, 16), (96, 12), (80, 16), (512, 64)])
def test_slice_triangular_schur_update_agrees_with_the_dense_one(monkeypatch, leaf, b, inner):
    # a coupling upper block-triangular in slices of `inner` entries, as the
    # interleaved Gram matrix gives; with leaves of 16 the small blocks
    # recurse too, and 80 = 5 slices halves unevenly
    monkeypatch.setattr("torusquant.analysis.LOWER_SOLVE_LEAF", leaf)
    rng = np.random.default_rng(b + inner)
    lower = _random_factor(rng, b)
    coupling = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    slices = np.arange(b) // inner
    coupling[slices[:, None] > slices[None, :]] = 0.0
    want = _schur_update_oracle(lower, coupling)
    got = _schur_update(lower, coupling, inner)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("leaf", [LOWER_SOLVE_LEAF, 8])
@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k",
    [
        (25, 1, 2, "random", 100),  # merged n = 1 rows: b = 8, R = 32
        (27, 1, 2, "product", 100),  # b = 16, R = 32
        (28, 2, 0, "two_slice", 10),  # n = 2: b = 20, two slices of 10
        (29, 2, 0, "two_slice", 12),  # b = 24
        (30, 2, 1, "random", 18),  # b = 72, four slices of 18
        (32, 2, 1, "product", 20),  # b = 160, eight slices of 20
    ],
)
def test_schur_updates_of_real_grams_agree_with_the_dense_one(monkeypatch, leaf, seed, n, bandwidth, kind, k):
    # every update a certificate makes, against the dense one; leaves of 8
    # make the real couplings recurse at their slice boundaries
    op = _certificate_operator(seed, n, bandwidth, kind, k)
    interleaving = _interleaving(op)
    gram = op.adjoint() @ op
    top = np.linalg.eigvalsh(gram.dense())[-1]
    calls = []

    def checked(factor, coupling, inner):
        assert inner == op.spec.dim // k
        got = _schur_update(factor, coupling, inner)
        want = _schur_update_oracle(factor, coupling)
        calls.append(np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want))
        return got

    monkeypatch.setattr("torusquant.analysis._schur_update", checked)
    monkeypatch.setattr("torusquant.analysis.LOWER_SOLVE_LEAF", leaf)
    assert _certify(gram, top * (1.0 + L2_CERT_DELTA), interleaving)
    assert not _certify(gram, top * (1.0 - 1e-9), interleaving)
    assert calls and all(calls)


def test_certificate_decides_every_product_n2_level_up_to_k32():
    # the shipped n = 2 product: blocks of 256 entries at k = 16 (one leaf)
    # and 512 at k = 32 (halved at its slice boundary)
    cfg = parse_config(CONFIGS / "product_n2.json")
    f, g = cfg.symbols()
    remainder = _remainder_at(product_map(f, g), cfg.order)
    for k in [k for k in cfg.k_values() if k <= 32]:
        op = remainder(k)
        interleaving = _interleaving(op)
        assert interleaving[1] == 16 * k
        gram = op.adjoint() @ op
        top = np.linalg.eigvalsh(gram.dense())[-1]
        assert _certify(gram, top * (1.0 + L2_CERT_DELTA), interleaving)
        assert not _certify(gram, top * (1.0 - 1e-9), interleaving)


def test_the_order2_n2_intertwine_fills_the_certificate_budget():
    # configs/intertwine_n2_order2.json reaches k = 256 at n = 2: blocks of
    # 2 x 4 x 256 entries, exactly CERT_BLOCK_CAP, and 81 x 256^2 entries of
    # A*A, under GRAM_ENTRY_CAP; one level more is refused at parse
    cfg = parse_config(CONFIGS / "intertwine_n2_order2.json")
    assert (cfg.n, cfg.order, cfg.k_values()) == (2, 2, [16, 32, 64, 128, 256])
    (f,) = cfg.symbols()
    op = _remainder_at(berezin_map(f), cfg.order)(256)
    assert _interleaving(op)[1] == 2 * 4 * 256 == CERT_BLOCK_CAP
    reach = {tuple(s) for s in (op.shifts[:, None, :] - op.shifts[None, :, :]).reshape(-1, 2) % 256}
    assert len(reach) * 256**2 == 81 * 256**2 <= GRAM_ENTRY_CAP
    with pytest.raises(ConfigError, match="k_max"):
        parse_config({**cfg.normalized(), "k_max": 512})


def _norm_bound(n: int, shifts) -> dict:
    """A norm_bound config of the sum of e^{2 pi i <p, x>} over ``shifts``."""
    coeffs = [{"p": list(p), "q": [0] * n, "re": 1.0} for p in shifts]
    return {"experiment": "norm_bound", "n": n, "k_min": 2, "f": {"coeffs": coeffs}}


def _full_band(width: int) -> dict:
    """An n = 1 norm_bound config of x-bandwidth ``width`` whose frequencies
    differ by every integer in [-2 width, 2 width]: a marked ruler of about
    3 sqrt(2 width) marks, so A*A stores the 4 width + 1 diagonals that
    parsing bounds it by."""
    span = 2 * width
    step = math.isqrt(span) + 1
    marks = set(range(step)) | set(range(0, span + 1, step)) | set(range(span - step + 1, span + 1))
    return _norm_bound(1, [[m - width] for m in sorted(marks)])


def _top_operator(cfg, k: int) -> DiagonalOperator:
    """The operator whose l2 norm the sweep of ``cfg`` reads at level k."""
    symbols = list(cfg.symbols())
    if cfg.experiment == "norm_bound":
        return toeplitz_diagonals(symbols[0], HilbertSpec(cfg.n, k))
    exact = product_map(*symbols) if cfg.experiment == "product" else berezin_map(*symbols)
    return _remainder_at(exact, cfg.order)(k)


@pytest.mark.parametrize(
    "source, k, shape",
    [
        ("product_n2.json", 128, 2 * 8 * 128),
        ("product_n2.json", 256, "l2 certificate blocks of 2 x 8 x 256^1 = 4096 entries, above 2048"),
        ("intertwine_n2_order2.json", 256, CERT_BLOCK_CAP),  # 2 x 4 x 256, exactly the cap
        ("intertwine_n2_order2.json", 512, "l2 certificate blocks of 2 x 4 x 512^1 = 4096 entries, above 2048"),
        (_full_band(255), 8192, 2 * 510),  # 1021 x 8192 = 8364032 entries of A*A
        # blocks of 1024 entries, but 1025 x 8192 entries of A*A
        (_full_band(256), 8192, "8396800 entries of A*A, above 8388608"),
    ],
    ids=["product_n2-128", "product_n2-256", "intertwine_n2_order2-256", "intertwine_n2_order2-512", "n1-255", "n1-256"],
)
def test_parse_and_route_read_one_certificate_shape(monkeypatch, source, k, shape):
    # the parser bounds the reach and the diagonals of A*A by the symbols'
    # x-bandwidth and the l2 route counts them off the operator's shifts; on
    # the top level of these sweeps both read the same shape, so they accept
    # and refuse together, the route before it forms A*A
    data = source if isinstance(source, dict) else json.loads((CONFIGS / source).read_text())
    data = {**data, "k_max": k}
    refused = isinstance(shape, str)
    cfg = parse_config({**data, "k_max": k // 2} if refused else data)
    op = _top_operator(cfg, k)
    if not refused:
        assert _interleaving(op)[1] == shape
        return
    assert _interleaving(op) == shape
    width = cfg.f.x_bandwidth() + (cfg.g.x_bandwidth() if cfg.g is not None else 0)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert err.value.path == "k_max" and str(err.value) == f"k_max: level {k} needs {shape} (x-bandwidth {width})"
    monkeypatch.setattr(DiagonalOperator, "adjoint", _no_gram)
    with pytest.raises(L2RouteError, match=re.escape(f"the certificate needs {shape}")):
        operator_norm(op, NormKind.L2)


def test_the_route_counts_the_diagonals_that_a_star_a_stores(monkeypatch):
    # e^{+-2 pi i 256 x} at k = 8192: parsing bounds A*A by 1025 diagonals
    # and refuses the level, but A*A stores 3, 24576 entries, and the route
    # certifies it in blocks of 1024
    data = {**_norm_bound(1, [[-256], [256]]), "k_max": 8192}
    with pytest.raises(ConfigError, match=re.escape("8396800 entries of A*A, above 8388608")):
        parse_config(data)
    op = _top_operator(parse_config({**data, "k_max": 4096}), 8192)
    assert _interleaving(op)[1] == 1024
    reading = operator_norm(op, NormKind.L2)
    assert reading.method == "lanczos_certified" and reading <= 2.0 + 1e-12 <= reading.upper
    # e^{+-2 pi i 40 x_2} at n = 2, k = 128: the outermost axis reaches 0
    # residues, the inner one 80, and A*A stores 3 diagonals of 128^2
    op = _top_operator(parse_config({**_norm_bound(2, [[0, -40], [0, 40]]), "k_max": 64}), 128)
    assert len((op.adjoint() @ op).shifts) == 3
    monkeypatch.setattr("torusquant.config.GRAM_ENTRY_CAP", 3 * 128**2 - 1)
    refusal = "49152 entries of A*A, above 49151"
    assert _interleaving(op) == refusal
    with monkeypatch.context() as patch:
        patch.setattr(DiagonalOperator, "adjoint", _no_gram)
        with pytest.raises(L2RouteError, match=re.escape(f"the certificate needs {refusal}")):
            operator_norm(op, NormKind.L2)
    monkeypatch.setattr("torusquant.config.GRAM_ENTRY_CAP", 3 * 128**2)
    assert operator_norm(op, NormKind.L2).method == "lanczos_certified"


@pytest.mark.parametrize("n, k", [(1, 2), (1, 3), (1, 7), (1, 16), (1, 33), (1, 64), (2, 5), (2, 8)])
def test_lapack_leaf_reads_the_bits_of_numpy_norm(n, k):
    # every residue a diagonal: a random complex matrix of dimension k^n
    rng = np.random.default_rng(100 * n + k)
    spec = HilbertSpec(n, k)
    shifts = np.stack(np.unravel_index(np.arange(spec.dim), (k,) * n), axis=1)
    values = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
    op = DiagonalOperator(spec, shifts, values)
    reading = operator_norm(op, NormKind.L2)
    assert reading.method == "lapack_svd"
    assert float(reading) == float(np.linalg.norm(op.dense(), 2))


@pytest.mark.parametrize("size", [1, 2, 3, 8, 33, 64])
def test_tridiagonal_has_the_bits_of_the_diag_build(size):
    rng = np.random.default_rng(size)
    alpha, off = rng.standard_normal(size), np.abs(rng.standard_normal(size - 1))
    want = np.diag(alpha) + np.diag(off, 1) + np.diag(off, -1)
    got = _tridiagonal(alpha, off)
    assert got.tobytes() == want.tobytes()
    assert np.linalg.eigvalsh(got).tobytes() == np.linalg.eigvalsh(want).tobytes()


def _lanczos_top_eigh(gram):
    """The oracle of ``_lanczos_top``: the same recurrence and test, with the
    top Ritz pair read off a dense ``np.linalg.eigh`` of the tridiagonal
    matrix; returns (theta, steps, [(test value, theta delta / 4, beta_j) per
    check])."""
    dim = gram.spec.dim
    budget = min(LANCZOS_BUDGET, dim)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v, previous = start / np.linalg.norm(start), None
    alpha, beta, tests = np.zeros(budget), np.zeros(budget), []
    for j in range(budget):
        w = gram.rmatvec(v)
        if previous is not None:
            previous *= beta[j - 1]
            w -= previous
        alpha[j] = np.vdot(v, w).real
        w -= alpha[j] * v
        beta[j] = np.sqrt(np.vdot(w, w).real)
        steps = j + 1
        if steps % LANCZOS_CHECK == 0 or steps == budget or beta[j] == 0:
            ritz, vectors = np.linalg.eigh(_tridiagonal(alpha[:steps], beta[: steps - 1]))
            theta, rho = ritz[-1], beta[j] * abs(vectors[-1, -1])
            gap = theta - ritz[-2] if steps > 1 else np.inf
            test = min(rho, rho * rho / gap if gap > 0 else np.inf)
            tests.append((test, theta * L2_CERT_DELTA / 4, float(beta[j])))
            if tests[-1][0] <= tests[-1][1]:
                return float(theta), steps, tests
            if beta[j] == 0:
                break
        w /= beta[j]
        previous, v = v, w
    return None, steps, tests


def _top_entry_error(diagonal, off):
    """|s| of ``_top_ritz`` against the last entry of the top eigenvector
    from ``eigh``, in units of eps ||T|| / gap on s itself, which both read
    to a few of those units.  (A determinant read s^2 to that, so s near
    convergence only to about its square root.)"""
    theta, gap, s = _top_ritz(diagonal, off)
    ritz, vectors = np.linalg.eigh(_tridiagonal(diagonal, off))
    assert theta == pytest.approx(ritz[-1], rel=4e-15, abs=4e-15 * np.abs(ritz).max())
    assert gap == pytest.approx(ritz[-1] - ritz[-2], abs=8e-15 * np.abs(ritz).max())
    return abs(s - abs(vectors[-1, -1])) / (np.finfo(float).eps * np.abs(ritz).max() / gap)


def test_top_entry_pass_matches_eigh_on_random_tridiagonals():
    # unreduced tridiagonals of 2 to 80 rows; the worst of these 400 is
    # 1.8 eps ||T|| / gap (2.4 over 2000 draws from another seed), against
    # a tolerance of 16
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(400):
        size = int(rng.integers(2, 81))
        diagonal, off = rng.standard_normal(size), np.abs(rng.standard_normal(size - 1)) + 1e-3
        worst = max(worst, _top_entry_error(diagonal, off))
    assert worst <= 16.0


def _corpus_operators(seeds, levels):
    """norm_bound operators and the product and Berezin remainders of
    orders 0 to 2 that the sweeps take l2 norms of, per seed and level."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for n, ks in levels:
            bandwidth = 2 + seed % 3 if n == 1 else 1
            f = random_trig_poly(rng, n, bandwidth, decay=8.0)
            g = random_trig_poly(rng, n, 3 - n, decay=8.0)
            maps = (product_map(f, g), berezin_map(f))
            for k in ks:
                yield toeplitz_diagonals(f, HilbertSpec(n, k))
                for exact in maps:
                    for order in (0, 1, 2):
                        yield _remainder_at(exact, order)(k)


def test_top_entry_pass_matches_eigh_at_every_check_of_real_runs(monkeypatch):
    # every check of the runs to convergence, 666 of them; the worst is
    # 0.74 eps ||T|| / gap
    worst = []

    def compared(diagonal, off):
        worst.append(_top_entry_error(diagonal, off) if len(diagonal) > 1 else 0.0)
        return _top_ritz(diagonal, off)

    monkeypatch.setattr("torusquant.analysis._top_ritz", compared)
    for op in _corpus_operators(range(4), [(1, (128, 512, 2048)), (2, (16, 32))]):
        assert _lanczos_top(op.adjoint() @ op)[0] is not None
    assert len(worst) > 500 and max(worst) <= 16.0


def test_pass_reads_steps_and_theta_of_the_eigh_oracle():
    # a seeded corpus of 490 operators at n = 1, k = 128 to 2048, and
    # n = 2, k = 16 to 32: the same steps, and theta within 4e-15 relative,
    # wherever the oracle's test value stays off its threshold theta delta / 4
    # by more than 1e-3 relative (a value on the threshold may go either way
    # in the last bits of s)
    ran = skipped = 0
    for op in _corpus_operators(range(10), [(1, (128, 256, 512, 1024, 2048)), (2, (16, 32))]):
        gram = op.adjoint() @ op
        want, want_steps, tests = _lanczos_top_eigh(gram)
        ran += 1
        if any(abs(value - threshold) <= 1e-3 * threshold for value, threshold, _beta in tests):
            skipped += 1
            continue
        theta, steps = _lanczos_top(gram)
        assert steps == want_steps and theta == pytest.approx(want, rel=4e-15)
    assert ran == 490 and skipped <= 1


@pytest.mark.parametrize("gap", [1e-4, 1e-5])
def test_a_clustered_top_converges_through_the_twisted_s(monkeypatch, gap):
    # A*A = diag(1, 1 - gap, 1022 values in [0, 0.5]): the top pair sits far
    # from the rest and resolves in 24 steps, but its Ritz gap stays below
    # 3e-3 beta, where a determinant reads s only to about
    # sqrt(eps / gap) and the test min(rho, rho^2 / gap) could pass only on
    # an s of 0 from rounding; the twisted s reads the small true s
    rng = np.random.default_rng(0)
    spectrum = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 0.5, 1022)])
    rng.shuffle(spectrum)
    op = DiagonalOperator(HilbertSpec(1, 1024), [[0]], np.sqrt(spectrum)[None, :])
    gram = op.adjoint() @ op
    checks = []

    def recorded(diagonal, off):
        checks.append(_top_ritz(diagonal, off))
        return checks[-1]

    monkeypatch.setattr("torusquant.analysis._top_ritz", recorded)
    theta, steps = _lanczos_top(gram)
    want, want_steps, tests = _lanczos_top_eigh(gram)
    assert steps == want_steps == 24 and theta == pytest.approx(want, rel=4e-15)
    _theta, ritz_gap, s = checks[-1]
    _value, threshold, beta = tests[-1]
    rho = beta * s
    assert ritz_gap < 3e-3 * beta and 0.0 < s
    assert min(rho, rho * rho / ritz_gap) <= threshold
    assert _certify(gram, theta * (1.0 + L2_CERT_DELTA), _interleaving(op))
    assert not _certify(gram, theta * (1.0 - 1e-9), _interleaving(op))


@pytest.mark.parametrize(
    "diagonal, off, gap, s",
    [
        ([0.5], [], np.inf, 1.0),  # one step: T = (alpha_1), s = 1
        ([1.0, 1.0], [0.0], 0.0, 0.0),  # equal top Ritz values
        ([2.0, 0.0, 1.0], [0.0, 0.5], 1.5 - np.sqrt(0.5), 0.0),  # first pivot theta - alpha_1 = 0
    ],
)
def test_degenerate_top_pairs_read_s_zero_or_one_without_dividing_by_zero(diagonal, off, gap, s):
    # a zero pivot is taken as -eps ||T||, so nothing divides by zero; a
    # reduced T reads the top eigenvector e_1 (at a tie, the first twist),
    # whose s is 0
    theta, got_gap, got = _top_ritz(np.array(diagonal), np.array(off))
    assert theta == max(diagonal) and got_gap == pytest.approx(gap, abs=1e-15) and got == s


@pytest.mark.parametrize(
    "symbol, steps",
    [
        (TrigPoly.zero(1), 1),  # A*A = 0: beta_1 = 0 breaks down at step 1
        (TrigPoly.harmonic(1, (1,), (0,), 0.7), LANCZOS_CHECK),  # A*A = 0.49 I: eight equal Ritz values
    ],
)
def test_lanczos_converges_on_breakdown_and_on_a_multiple_of_the_identity(symbol, steps):
    op = toeplitz_diagonals(symbol, HilbertSpec(1, 128))
    theta, got = _lanczos_top(op.adjoint() @ op)
    assert got == steps and theta == pytest.approx(0.49 if steps > 1 else 0.0, rel=1e-15)


@pytest.mark.parametrize("k, steps", [(128, 24), (256, 40), (512, 48)])
def test_a_double_top_eigenvalue_is_certified(k, steps):
    # f = 2 cos 2 pi x + 2 cos 2 pi y is real, so Q_f is Hermitian with a
    # spectrum symmetric about 0, and the top eigenvalue of A*A is double
    f = TrigPoly(1, {((1,), (0,)): 1.0, ((-1,), (0,)): 1.0, ((0,), (1,)): 1.0, ((0,), (-1,)): 1.0})
    op = toeplitz_diagonals(f, HilbertSpec(1, k))
    reading = operator_norm(op, NormKind.L2)
    assert reading.method == "lanczos_certified" and reading.steps == steps
    assert np.linalg.norm(op.dense(), 2) * (1.0 - L2_CERT_DELTA / 2) <= reading <= reading.upper


def _panel_entries_int64(gram, perm, bs, size):
    """The entries of -G sorted by an int64 stable sort of their block ids."""
    dim = gram.spec.dim
    position = np.empty(dim, dtype=np.int64)
    position[perm] = np.arange(dim)
    rows = position[gram.rows]
    block = rows // size
    column = position - (block * size - bs)
    keep = (column >= 0) & (column < bs + size)
    rows, block, column = rows[keep], block[keep], column[keep]
    order = np.argsort(block, kind="stable")
    flat = ((rows - block * size) * (bs + size) + column)[order]
    starts = np.searchsorted(block[order], np.arange(-(-dim // size) + 1))
    return flat, -gram.values[keep][order], starts


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k",
    [
        (25, 1, 2, "random", 100),
        (28, 2, 0, "two_slice", 10),
        (30, 2, 1, "random", 18),
        (33, 1, 1, "random", 16384),  # 512 block rows: 16-bit keys
    ],
)
def test_narrow_key_panel_entries_have_the_bits_of_the_int64_sort(seed, n, bandwidth, kind, k):
    op = _certificate_operator(seed, n, bandwidth, kind, k)
    perm, bs = _interleaving(op)
    size = bs * -(-CERT_MIN_ROWS // bs)
    gram = op.adjoint() @ op
    mu = 1.5 * float(np.abs(gram.values).sum(axis=0).max())
    flat, values, starts = _panel_entries(gram, perm, bs, size, mu)
    want_flat, want_values, want_starts = _panel_entries_int64(gram, perm, bs, size)
    # the same entries in the same order, then the padding of the last block row
    assert np.array_equal(flat[: len(want_flat)], want_flat)
    assert np.array_equal(starts[:-1], want_starts[:-1])
    assert starts[-1] == len(flat) == len(want_flat) + len(starts[:-1]) * size - op.spec.dim
    # and every panel has the bits of the panel that added mu I per block row
    width = bs + size
    for start, stop, want_start, want_stop in zip(starts[:-1], starts[1:], want_starts[:-1], want_starts[1:]):
        panel, want = np.zeros(size * width, dtype=complex), np.zeros(size * width, dtype=complex)
        panel[flat[start:stop]] = values[start:stop]
        want[want_flat[want_start:want_stop]] = want_values[want_start:want_stop]
        want[np.arange(size) * (width + 1) + bs] += mu
        assert panel.tobytes() == want.tobytes()


@pytest.mark.parametrize("upper_over_tol", [1.0 + 1e-12, 1.0])
def test_identity_checks_are_judged_on_the_certified_upper_value(monkeypatch, upper_over_tol):
    # a Lanczos reading just below each tolerance: the exact-transform
    # identity, the torus relations and criterion 1 fail once its certified
    # upper value passes the tolerance, and pass while it does not; the
    # reported values are the readings themselves either way
    def reading(op, tol):
        return L2Reading(tol * (1.0 - 1e-12), "lanczos_certified", tol * upper_over_tol, 1)

    monkeypatch.setattr("torusquant.analysis.certified_l2_norm", reading)
    monkeypatch.setattr("torusquant.checks.certified_l2_norm", reading)
    passes = upper_over_tol <= 1.0
    f = random_trig_poly(np.random.default_rng(3000), 1, 2, decay=8.0)
    report = intertwine_sweep(f, 1, (8, 16, 32, 64))
    exact = next(s for s in report.series if s.name == "exact_transform")
    assert report.details["exact_max_error"] == report.details["exact_tolerance"] * (1.0 - 1e-12)
    assert exact.passed is passes and exact.outcome == ("exact_identity" if passes else "violation")
    relations = torus_relations_sweep(1, (2, 3, 4))
    assert relations.details["max_defect"] == TORUS_RELATION_TOL * (1.0 - 1e-12)
    assert relations.passed is passes
    criterion = check_exact_homomorphism()
    assert criterion.details["worst_ratio"] < 1.0
    assert criterion.passed is passes


def test_a_failed_coefficient_bound_reads_violation(monkeypatch):
    # a reading below ||f||_l1 whose certified upper value is above it fails
    # the norm bound; the series reads violation, as the exact-transform
    # identity and the torus relations do, and the report fails with it
    f = random_trig_poly(np.random.default_rng(3000), 1, 2, decay=8.0)
    bound = f.l1_norm()
    monkeypatch.setattr(
        "torusquant.analysis.operator_norm", lambda op, kind: L2Reading(0.5 * bound, "lanczos", 1.01 * bound, 1)
    )
    report = norm_bound_sweep(f, (8, 16))
    (series,) = report.series
    assert (series.name, series.outcome, series.passed) == ("coefficient_bound", "violation", False)
    assert report.details["max_upper"] == 1.01 * bound and [r.error for r in report.rows] == [0.5 * bound] * 2
    assert report.passed is False and report.to_dict()["passed"] is False
