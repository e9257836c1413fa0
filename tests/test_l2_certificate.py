"""Certified Lanczos l2 norms of wrapped-diagonal operators against LAPACK."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torusquant.analysis import (
    L2_CERT_DELTA,
    LANCZOS_CHECK,
    LAPACK_L2_MAX_DIM,
    LOWER_SOLVE_LEAF,
    L2Reading,
    L2RouteError,
    NormKind,
    _certify,
    _interleaving,
    _lanczos_top,
    _lower_solve,
    norm_bound_sweep,
    operator_norm,
    product_sweep,
)
from torusquant.quantize import HilbertSpec, toeplitz_diagonals
from torusquant.starprod import HbarValue, berezin_exact, berezin_truncated, star_exact, star_truncated
from torusquant.trigpoly import TrigPoly, random_trig_poly


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


def _check_lanczos_answers(seed, n, bandwidth, kind, k):
    op = _diagonals(seed, n, bandwidth, kind, k)
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
def test_lanczos_answers_once_the_band_has_three_blocks(seed, n, bandwidth, kind, k):
    op = _check_lanczos_answers(seed, n, bandwidth, kind, k)
    assert _block_count(op) >= 3


@pytest.mark.parametrize(
    "seed, n, bandwidth, kind, k, blocks",
    [
        (9, 2, 1, "product", 12, 2),  # blocks of 8 slices: two of them
        (10, 2, 2, "product", 16, 1),  # blocks of 16 slices: one, the whole band
    ],
)
def test_lanczos_answers_with_one_or_two_blocks(seed, n, bandwidth, kind, k, blocks):
    # the block-tridiagonal form holds trivially with fewer than three blocks
    op = _check_lanczos_answers(seed, n, bandwidth, kind, k)
    assert _block_count(op) == blocks


def test_certificate_blocks_stay_within_the_dense_cap(monkeypatch):
    # a band whose blocks would pass CERT_BLOCK_CAP, the cap parsing holds
    # configs to, gets no certificate: below the dense cap LAPACK answers,
    # above it the error names the blocks
    op = _diagonals(71, 2, 1, "product", 12)  # blocks of 8 x 12 = 96 entries
    monkeypatch.setattr("torusquant.analysis.CERT_BLOCK_CAP", 95)
    assert _interleaving(op) is None
    assert operator_norm(op, NormKind.L2).method == "lapack_svd"
    monkeypatch.setattr("torusquant.analysis.DENSE_DIM_CAP", 143)
    with pytest.raises(L2RouteError, match="certificate blocks above 95 entries"):
        operator_norm(op, NormKind.L2)
    monkeypatch.setattr("torusquant.analysis.CERT_BLOCK_CAP", 96)
    assert operator_norm(op, NormKind.L2).method == "lanczos_certified"


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


def test_zero_operator_reads_zero():
    op = toeplitz_diagonals(TrigPoly(1, {}), HilbertSpec(1, 16))
    assert op.values.shape == (0, 16)
    assert operator_norm(op, NormKind.L1) == operator_norm(op, NormKind.LINF) == 0.0
    reading = operator_norm(op, NormKind.L2)
    assert reading == 0.0 and reading.upper == 0.0 and reading.method == "lapack_svd"


def test_lapack_answers_up_to_dimension_64_and_lanczos_above():
    assert LAPACK_L2_MAX_DIM == 64
    for n, k, method in ((1, 64, "lapack_svd"), (1, 128, "lanczos_certified")):
        op = _diagonals(51, n, 1, "random", k)
        assert _interleaving(op) is not None  # the band alone would let Lanczos answer
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
