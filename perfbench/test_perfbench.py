"""Self-tests of the benchmark's own code.

Run from the root of a checkout with ``python3 -m pytest perfbench``.  Each
workload runs once at a tiny size with every check passing, and each oracle
rejects a deliberately perturbed coefficient or norm.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from torusquant import quantize, starprod  # noqa: E402
from torusquant.starprod import HbarValue, Orientation  # noqa: E402
from torusquant.trigpoly import TrigPoly, random_trig_poly  # noqa: E402


def _perturbed(poly: TrigPoly, rel: float = 1e-6) -> TrigPoly:
    terms = dict(poly.terms())
    key = max(terms, key=lambda k: abs(terms[k]))
    terms[key] += rel * sum(abs(c) for c in terms.values())
    return TrigPoly(poly.n, terms)


def _pair(n=1, bandwidth=2, seed=5):
    rng = np.random.default_rng(seed)
    return random_trig_poly(rng, n, bandwidth), random_trig_poly(rng, n, bandwidth)


def _run_round(workload):
    workload.begin_round()
    try:
        outcomes = []
        for op in workload.ops:
            outcomes += op.judge(op.call())
    finally:
        workload.end_round()
    return outcomes


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_tiny_size(name, tmp_path):
    workload = workloads.build(name, 3, ROOT, tmp_path, tiny=True)
    outcomes = _run_round(workload)
    assert outcomes
    assert [o for o in outcomes if o[1]] == []
    assert [p for o in outcomes for p in o[2]] == []


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.build("symbol_algebra", 3, ROOT, tmp_path, tiny=True).ops[0].call()
    b = workloads.build("symbol_algebra", 3, ROOT, tmp_path, tiny=True).ops[0].call()
    c = workloads.build("symbol_algebra", 4, ROOT, tmp_path, tiny=True).ops[0].call()
    assert a.coefficients == b.coefficients
    assert a.coefficients != c.coefficients


@pytest.mark.parametrize("orientation", oracles.ORIENTATIONS)
def test_exact_product_oracle_rejects_a_perturbed_coefficient(orientation):
    f, g = _pair()
    got = starprod.star_exact(f, g, HbarValue(7), Orientation(orientation))
    ref, size = oracles.exact_product(oracles.symbol(f), oracles.symbol(g), 7, orientation)
    assert oracles.check_coefficients("exact", got, ref, size) == []
    assert oracles.check_coefficients("exact", _perturbed(got), ref, size)


@pytest.mark.parametrize("orientation", oracles.ORIENTATIONS)
def test_truncated_product_oracle_rejects_a_perturbed_coefficient(orientation):
    f, g = _pair(n=2, bandwidth=1)
    series = starprod.star_truncated(f, g, 2, Orientation(orientation))
    refs = oracles.truncated_product(oracles.symbol(f), oracles.symbol(g), 2, orientation)
    for j, (ref, size) in enumerate(refs):
        assert oracles.check_coefficients("truncated", series.coefficient(j), ref, size) == []
    ref, size = refs[2]
    assert oracles.check_coefficients("truncated", _perturbed(series.coefficient(2)), ref, size)


def test_berezin_oracles_reject_a_perturbed_coefficient():
    f, _g = _pair()
    fa = oracles.symbol(f)
    size = float(np.abs(fa[1]).sum())
    exact = starprod.berezin_exact(f, HbarValue(5))
    assert oracles.check_coefficients("b", exact, oracles.berezin_exact(fa, 5), size) == []
    assert oracles.check_coefficients("b", _perturbed(exact), oracles.berezin_exact(fa, 5), size)
    series = starprod.berezin_truncated(f, 2)
    ref, ref_size = oracles.berezin_series(fa, 2)[2]
    assert oracles.check_coefficients("b", series.coefficient(2), ref, ref_size) == []
    assert oracles.check_coefficients("b", _perturbed(series.coefficient(2)), ref, ref_size)


@pytest.mark.parametrize("n,k", [(1, 9), (2, 5)])
@pytest.mark.parametrize("polarization", ["position", "momentum"])
def test_toeplitz_oracle_matches_assembly_and_rejects_a_perturbed_entry(n, k, polarization):
    f, _g = _pair(n=n, bandwidth=2 if n == 1 else 1)
    got = quantize.assemble_toeplitz(f, quantize.HilbertSpec(n, k, polarization)).entries
    ref = oracles.toeplitz(oracles.symbol(f), k, momentum=polarization == "momentum")
    assert np.abs(got - ref).max() <= 1e-12
    bad = got.copy()
    bad[1, 0] += 1e-6
    assert np.abs(bad - ref).max() > 1e-12


def test_norm_checks_reject_perturbed_norms():
    f, g = _pair()
    ref = oracles.product_error_norms(oracles.symbol(f), oracles.symbol(g), 1, 16)
    for kind in ("l1", "linf", "l2"):
        assert oracles.check_norm("n", kind, ref[kind], ref[kind]) == []
        assert oracles.check_norm("n", kind, ref[kind] * (1 + 1e-6), ref[kind])
    # power iteration may read low by up to L2_LOW_TOL, not more
    assert oracles.check_norm("n", "l2", ref["l2"] * (1 - 0.5 * oracles.L2_LOW_TOL), ref["l2"]) == []
    assert oracles.check_norm("n", "l2", ref["l2"] * (1 - 2 * oracles.L2_LOW_TOL), ref["l2"])
    assert oracles.check_norm("n", "l1", ref["l1"] * (1 - 1e-6), ref["l1"])


def test_property_checks_reject_bad_sweeps():
    good = [(k, 3.0 * k**-2.0) for k in (8, 16, 32, 64)]
    assert oracles.check_slope("s", good, order=1) == []
    assert oracles.check_slope("s", [(k, 3.0 * k**-1.5) for k in (8, 16, 32, 64)], order=1)
    assert oracles.check_slope("s", [(8, 1e-3), (16, 1e-4), (32, 0.0)], order=1)
    assert oracles.check_interpolation("i", {"l1": 2.0, "linf": 0.5, "l2": 1.0}) == []
    assert oracles.check_interpolation("i", {"l1": 2.0, "linf": 0.5, "l2": 1.0 + 1e-9})


def test_assemble_judge_rejects_a_perturbed_matrix(tmp_path):
    workload = workloads.build("acceptance", 3, ROOT, tmp_path, tiny=True)
    (op,) = [op for op in workload.ops if op.name == "config.assemble_example"]
    workload.begin_round()
    try:
        assert op.judge(op.call()) == [(op.name, False, [])]
        (csv_path,) = (workload.round_dir / "assemble_example").glob("*.csv")
        lines = csv_path.read_text().splitlines()
        row, col, re, im = lines[1].split(",")
        lines[1] = ",".join([row, col, repr(float(re) + 1e-6), im])
        csv_path.write_text("\n".join(lines) + "\n")
        (_name, failed, problems), = op.judge(0)
        assert not failed and problems
    finally:
        workload.end_round()


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    workload = workloads.build("symbol_algebra", 3, ROOT, tmp_path, tiny=True)
    original = starprod.star_exact
    tracer = Tracer()
    tracer.begin_round()
    with tracer.installed():
        assert starprod.star_exact is not original
        _run_round(workload)
    assert starprod.star_exact is original
    metrics = tracer.round_metrics(0)
    assert set(metrics) | {"trace.overhead_s"} == set(PER_LAYER)
    assert metrics["starprod.star_exact.calls"] == 6
    assert metrics["trigpoly.multiply.calls"] > 0
    assert metrics["quantize.assemble_toeplitz.calls"] == 0
    path = tmp_path / "spans.npz"
    tracer.write(path)
    spans = np.load(path)
    assert len(spans["name"]) == len(spans["end_s"]) > 0
    assert (spans["end_s"] >= spans["start_s"]).all()


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_prints_the_result_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbol_algebra", "--seed", "2", "--seconds", "0",
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mib"}


def test_single_thread_calibration_leaves_the_blas_threads_asleep():
    import time

    import run

    dim, products, _reference = run.CALIBRATION_SINGLE
    calibrate = run.calibration(dim, products)
    time.sleep(1.0)  # worker threads woken by earlier tests stop spinning
    cpu0 = time.process_time()
    wall = sum(calibrate() for _ in range(10))
    assert time.process_time() - cpu0 < 1.3 * wall
