"""Acceptance criteria that judge a sweep more strictly than the sweep itself."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from torusquant import checks
from torusquant.analysis import norm_bound_sweep
from torusquant.quantize import HilbertSpec, Polarization, toeplitz_diagonals
from torusquant.trigpoly import random_trig_poly


def test_norm_bound_criterion_refuses_what_the_sweep_tolerates(monkeypatch):
    def sweep_just_above_the_bound(f, ks):
        report = norm_bound_sweep(f, ks)
        bound = report.details["bound"]
        high = bound * (1.0 + 1e-11)
        # the sweep's own 1e-10 relative tolerance accepts this value; the
        # criterion judges the certified upper value, so that is where it goes
        assert high <= bound + report.details["tolerance"]
        report.rows[-1] = dataclasses.replace(report.rows[-1], error=high)
        report.details["max_upper"] = high
        return report

    assert checks.check_norm_bound().passed
    monkeypatch.setattr(checks, "norm_bound_sweep", sweep_just_above_the_bound)
    assert not checks.check_norm_bound().passed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from((1, 2)),
    bandwidth=st.integers(0, 3),
    k=st.integers(1, 9),
    polarization=st.sampled_from(tuple(Polarization)),
)
def test_criterion1_tolerance_scale_is_a_lower_bound_on_the_two_norm(seed, n, bandwidth, k, polarization):
    # the largest column 2-norm of the wrapped diagonals can only tighten the
    # tolerance it scales: it never exceeds the LAPACK 2-norm, on a symbol's
    # operator or on a product of two, shifts colliding mod k included
    rng = np.random.default_rng(seed)
    spec = HilbertSpec(n, k, polarization)
    f, g = (toeplitz_diagonals(random_trig_poly(rng, n, bandwidth), spec) for _ in range(2))
    for op in (f, g, f @ g):
        dense = op.dense().entries
        scale = checks._largest_column_norm(op)
        assert np.isclose(scale, np.linalg.norm(dense, axis=0).max(), rtol=1e-13, atol=0.0)
        assert scale <= np.linalg.norm(dense, 2) * (1.0 + 1e-12)
