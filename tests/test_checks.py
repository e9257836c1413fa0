"""Acceptance criteria that judge a sweep more strictly than the sweep itself."""

import dataclasses

from torusquant import checks
from torusquant.analysis import norm_bound_sweep


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
