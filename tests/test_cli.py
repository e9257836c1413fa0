"""Config parsing, report serialization and the CLI subcommands end to end."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import torusquant
from torusquant import funcexpr
from torusquant.analysis import ConvergenceReport, SweepPoint, run_experiment
from torusquant.cli import main
from torusquant.config import (
    ConfigError,
    ExperimentConfig,
    FunctionSpec,
    canonical_json,
    config_hash,
    parse_config,
)
from torusquant.reporting import (
    CSV_HEADER,
    dump_json,
    normalize_volatile,
    report_dict,
    rows_to_csv,
    write_report,
)

PRODUCT_CFG = {
    "experiment": "product",
    "n": 1,
    "k_min": 8,
    "k_max": 32,
    "order": 0,
    "seed": 7,
    "f": {"random": {"bandwidth": 2, "decay": 8.0}},
    "g": {"random": {"bandwidth": 2, "decay": 8.0}},
}


def _star_table(data, **fields):
    """Turn PRODUCT_CFG into a star_table config, then set ``fields``."""
    del data["k_min"], data["k_max"]
    data.update(experiment="star_table", **fields)


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# -- parsing -------------------------------------------------------------------


def test_parse_defaults():
    cfg = parse_config(PRODUCT_CFG)
    assert cfg.k_rule == "pow2"
    assert cfg.k_step == 1
    assert cfg.out == "reports"
    assert cfg.polarization == "position"
    assert cfg.k_values() == [8, 16, 32]
    assert cfg.f.kind == "random"
    assert cfg.f.random_decay == 8.0


def test_parse_accepts_json_string_and_path(tmp_path):
    text = json.dumps(PRODUCT_CFG)
    a = parse_config(text)
    b = parse_config(write_cfg(tmp_path, PRODUCT_CFG))
    assert a == b


def test_parse_linear_rule():
    data = dict(PRODUCT_CFG, k_rule="linear", k_step=4, k_min=4, k_max=16)
    assert parse_config(data).k_values() == [4, 8, 12, 16]


@pytest.mark.parametrize(
    "mutate,path",
    [
        (lambda d: d.update(k_min=1), "k_min"),
        (lambda d: d.update(k_max=4), "k_max"),
        (lambda d: d.update(order=17), "order"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.update(experiment="fourier"), "experiment"),
        (lambda d: d.update(f={}), "f"),
        (lambda d: d.update(f={"expr": "sin(", "bandwidth": 2}), "f.expr"),
        (lambda d: d.update(f={"random": {"bandwidth": 2, "decay": -1}}), "f.random.decay"),
        (lambda d: d.update(f={"random": {"bandwidth": 2, "shape": 1}}), "f.random.shape"),
        (lambda d: d.update(f={"coeffs": [{"p": [0.5], "q": [0], "re": 1.0}]}), "f.coeffs[0].p"),
        (lambda d: d.update(f={"coeffs": [{"p": [0], "q": [0]}]}), "f.coeffs[0].re"),
        (lambda d: d.update(f={"coeffs": [{"p": [0], "q": [2**24 + 1], "re": 1.0}]}), "f.coeffs[0].q"),
        (lambda d: d.update(f={"expr": "sin(2*pi*x1)", "bandwidth": 2, "grid": 3}), "f.grid"),
        # frequency vectors of another dimension than n = 1
        pytest.param(lambda d: d.update(f={"coeffs": [{"p": [1, 2], "q": [0], "re": 1}]}), "f.coeffs[0].p",
                     id="p-of-another-dimension"),
        pytest.param(lambda d: d.update(g={"coeffs": [{"p": [0], "q": [], "re": 1}]}), "g.coeffs[0].q",
                     id="q-of-another-dimension"),
        # non-finite numbers, which json reads from NaN and Infinity
        *[
            pytest.param(lambda d, record=record: d.update(f={"coeffs": [record]}), f"f.coeffs[0].{label}", id=name)
            for name, label, record in (
                ("nan-re", "re", {"p": [0], "q": [0], "re": math.nan}),
                ("infinite-im", "im", {"p": [0], "q": [0], "re": 1, "im": -math.inf}),
                ("re-past-the-float-range", "re", {"p": [0], "q": [0], "re": 10**400}),
            )
        ],
        pytest.param(lambda d: d.update(f={"random": {"bandwidth": 2, "decay": math.inf}}), "f.random.decay",
                     id="infinite-decay"),
        pytest.param(lambda d: d.update(f={"random": {"bandwidth": 2, "decay": math.nan}}), "f.random.decay",
                     id="nan-decay"),
        pytest.param(lambda d: d.update(f={"coeffs": [{"p": [0], "q": [i], "re": 1e308} for i in range(2)]}),
                     "f.coeffs", id="l1-sum-overflows"),
        # fields the experiment would ignore: refused unless they have their default
        (lambda d: d.update(k_step=3), "k_step"),
        (lambda d: d.update(orientation="moyal"), "orientation"),
        *[
            pytest.param(lambda d, kind=kind: d.update(experiment=kind, order=3), "order", id=f"order-on-{kind}")
            for kind in ("trace", "norm_bound", "torus_relations")
        ],
        # the star subcommand reads neither a basis nor levels
        pytest.param(lambda d: _star_table(d, polarization="momentum"), "polarization", id="star-polarization"),
        pytest.param(lambda d: _star_table(d, k_rule="linear", k_step=3), "k_rule", id="star-k_rule"),
        pytest.param(lambda d: _star_table(d, k_step=3), "k_step", id="star-k_step"),
    ],
)
def test_parse_errors_name_the_field(mutate, path):
    data = json.loads(json.dumps(PRODUCT_CFG))
    mutate(data)
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    assert info.value.path == path


def test_parse_kind_specific_fields():
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "torus_relations", "n": 1, "k_min": 2, "k_max": 4,
                      "f": {"random": {"bandwidth": 1}}})
    assert info.value.path == "f"
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "star_table", "n": 1, "k_min": 2,
                      "f": {"random": {"bandwidth": 1}}, "g": {"random": {"bandwidth": 1}}})
    assert info.value.path == "k_min"
    with pytest.raises(ConfigError) as info:
        parse_config(dict(PRODUCT_CFG, experiment="trace"))
    assert info.value.path == "g"


def test_parse_invalid_json_and_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("{not json")
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.json")


def test_expression_spec_realizes_projection():
    cfg = parse_config({
        "experiment": "trace", "n": 1, "k_min": 4, "k_max": 8,
        "f": {"expr": "2*sin(2*pi*y1)", "bandwidth": 2},
    })
    import numpy as np

    poly = cfg.f.realize(1, np.random.default_rng(0))
    assert abs(poly.coeff((0,), (1,)) - (-1j)) < 1e-12
    assert abs(poly.coeff((0,), (-1,)) - 1j) < 1e-12


def test_normalized_fills_defaults():
    cfg = parse_config({
        "experiment": "trace", "n": 1, "k_min": 4, "k_max": 8,
        "f": {"expr": "cos(2*pi*x1)", "bandwidth": 1},
    })
    norm = cfg.normalized()
    assert norm["f"]["grid"] >= 2 * 1 + 2  # default grid filled in
    assert "k_step" not in norm  # pow2 rule omits it
    assert norm["seed"] == 0


def test_config_hash_properties():
    a = config_hash(parse_config(PRODUCT_CFG))
    assert a.startswith("sha256:") and len(a) == len("sha256:") + 64
    # whitespace and key order in the source do not matter
    shuffled = json.dumps(dict(reversed(list(PRODUCT_CFG.items()))), indent=3)
    assert config_hash(parse_config(shuffled)) == a
    assert config_hash(parse_config(dict(PRODUCT_CFG, seed=8))) != a
    # fields spelled out at their defaults are accepted and hash the same
    explicit = dict(PRODUCT_CFG, k_step=1, orientation="star", polarization="position")
    assert config_hash(parse_config(explicit)) == a
    bound = {"experiment": "norm_bound", "n": 1, "k_min": 8, "k_max": 16, "f": PRODUCT_CFG["f"]}
    assert config_hash(parse_config(dict(bound, order=0))) == config_hash(parse_config(bound))


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# -- reporting -----------------------------------------------------------------


def make_rows():
    return [
        SweepPoint(16, 1.0 / 16.0, 2e-3, "l2"),
        SweepPoint(8, 0.125, 1e-2, "l2"),
        SweepPoint(8, 0.125, 3e-2, "l1"),
    ]


def test_rows_to_csv_sorted_golden():
    got = rows_to_csv(make_rows())
    assert got == (
        "k,hbar,error,norm_kind\n"
        "8,0.125,0.03,l1\n"
        "8,0.125,0.01,l2\n"
        "16,0.0625,0.002,l2\n"
    )


def test_normalize_volatile():
    text = dump_json({"timestamp": "2026-01-01T00:00:00Z", "wall_time_s": 1.25, "passed": True})
    normed = normalize_volatile(text)
    assert '"timestamp": null,' in normed
    assert '"wall_time_s": null' in normed
    assert '"passed": true' in normed
    assert "2026" not in normed


def test_write_report_roundtrip(tmp_path):
    cfg = parse_config(PRODUCT_CFG)
    result = ConvergenceReport(experiment="product", rows=make_rows(), series=[], passed=True)
    report_path, csv_path = write_report(cfg, result, 0.5, tmp_path)
    assert report_path.name == f"product_{config_hash(cfg)[7:15]}.report.json"
    assert csv_path.read_text(encoding="utf-8").startswith(CSV_HEADER)
    body = json.loads(report_path.read_text(encoding="utf-8"))
    assert body["schema"] == "torusquant-report-v1"
    assert body["config_hash"] == config_hash(cfg)
    assert body["config"] == cfg.normalized()
    assert body["passed"] is True
    assert len(body["rows"]) == 3


# -- CLI -----------------------------------------------------------------------


def test_cli_run_product(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, PRODUCT_CFG)
    out_dir = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "product: PASS" in stdout
    reports = list(out_dir.glob("*.report.json"))
    csvs = list(out_dir.glob("*.csv"))
    assert len(reports) == 1 and len(csvs) == 1
    lines = csvs[0].read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 3  # three levels, three norms


def test_cli_run_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, PRODUCT_CFG)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(cfg_path), "--out", str(out_a), "--quiet"]) == 0
    assert main(["run", str(cfg_path), "--out", str(out_b), "--quiet"]) == 0
    report_a = next(out_a.glob("*.report.json")).read_text(encoding="utf-8")
    report_b = next(out_b.glob("*.report.json")).read_text(encoding="utf-8")
    assert normalize_volatile(report_a) == normalize_volatile(report_b)
    assert next(out_a.glob("*.csv")).read_bytes() == next(out_b.glob("*.csv")).read_bytes()


def test_cli_run_seed_override_changes_stem(tmp_path):
    cfg_path = write_cfg(tmp_path, PRODUCT_CFG)
    out_dir = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--quiet"]) == 0
    # the overridden seed reseeds the corpus; pass or fail, the report lands
    # under a different stem because the hash covers the seed
    assert main(["run", str(cfg_path), "--out", str(out_dir), "--seed", "8", "--quiet"]) in (0, 1)
    assert len(list(out_dir.glob("*.report.json"))) == 2


def test_out_directory_does_not_change_hash(tmp_path):
    cfg = parse_config(PRODUCT_CFG)
    moved = parse_config(dict(PRODUCT_CFG, out=str(tmp_path)))
    assert config_hash(moved) == config_hash(cfg)
    assert "out" not in cfg.normalized()


def test_cli_run_reports_failure_exit_code(tmp_path, capsys):
    # a two-point sweep cannot support a slope fit: honest FAIL, exit 1
    data = dict(PRODUCT_CFG, k_min=4, k_max=8)
    cfg_path = write_cfg(tmp_path, data)
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "insufficient_points" in capsys.readouterr().out


def test_cli_run_rejects_star_table(tmp_path, capsys):
    data = {
        "experiment": "star_table", "n": 1, "order": 1,
        "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]},
        "g": {"coeffs": [{"p": [1], "q": [0], "re": 1.0}]},
    }
    code = main(["run", str(write_cfg(tmp_path, data))])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_rejects_level_above_dense_cap(tmp_path, capsys):
    # above the dense cap an operator sweep is held to the certificate
    # budget: an order-1 remainder of two bandwidth-2 symbols has
    # x-bandwidth 4, so A*A reaches 8 residues and its blocks hold
    # 2 x 8 x 256 = 4096 entries at n = 2, k = 256, above 2048; refused
    # before any level runs
    data = {"experiment": "product", "n": 2, "k_min": 16, "k_max": 256, "order": 1,
            "f": {"random": {"bandwidth": 2, "decay": 8.0}}, "g": {"random": {"bandwidth": 2, "decay": 8.0}}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: k_max: level 256 needs l2 certificate blocks of 2 x 8 x 256^1 = 4096 entries" in err
    assert not (tmp_path / "out").exists()
    # one level lower the blocks hold 2048 entries, which fits
    assert parse_config(dict(data, k_max=128)).k_values()[-1] == 128
    # the torus relations have x-bandwidth 1: at n = 3, k = 32 their blocks hold 4 x 32^2
    data = {"experiment": "torus_relations", "n": 3, "k_min": 2, "k_max": 32}
    assert main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")]) == 2
    assert "config error: k_max: level 32 needs l2 certificate blocks of 2 x 2 x 32^2 = 4096" in capsys.readouterr().err
    # trace builds no operators, so only assemble meets the cap
    data = {"experiment": "trace", "n": 1, "k_min": 8192, "k_max": 8192,
            "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]}}
    code = main(["assemble", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: k_min:" in capsys.readouterr().err


def test_cli_run_certifies_a_small_operator_above_the_dense_cap(tmp_path):
    # n = 2, k = 128 is dimension 16384, four times the dense cap; a
    # bandwidth-1 symbol has certificate blocks of 2 x 2 x 128 = 512 entries
    data = {"experiment": "norm_bound", "n": 2, "k_min": 128, "k_max": 128,
            "f": {"random": {"bandwidth": 1}}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    (report,) = (tmp_path / "out").glob("*.report.json")
    methods = json.loads(report.read_text(encoding="utf-8"))["details"]["l2_methods"]
    assert [(m["k"], m["method"]) for m in methods] == [(128, "lanczos_certified")]


def test_cli_run_reads_exactly_zero_remainders_past_the_dense_cap(tmp_path, monkeypatch):
    # f = e^{2 pi i x}, g = e^{2 pi i y}: every STAR phase a.q is 0, so each
    # order-0 remainder is exactly 0, and its l2 norm reads 0 up to k = 8192
    # on its bound, with no dense SVD at any level
    def no_svd(*args, **kwargs):
        raise AssertionError("a dense SVD ran")

    monkeypatch.setattr("numpy.linalg.svd", no_svd)
    data = {"experiment": "product", "n": 1, "k_min": 64, "k_max": 8192, "order": 0,
            "f": {"coeffs": [{"p": [1], "q": [0], "re": 1.0}]},
            "g": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    (report,) = (tmp_path / "out").glob("*.report.json")
    report = json.loads(report.read_text(encoding="utf-8"))
    assert len(report["rows"]) == 3 * 8 and all(row["error"] == 0.0 for row in report["rows"])
    assert [s["outcome"] for s in report["series"]] == ["exact_identity"] * 3
    assert [m["method"] for m in report["details"]["l2_methods"]] == ["interp_bound"] * 8


def test_cli_run_reports_an_uncertified_l2_norm_in_one_line(tmp_path, capsys, monkeypatch):
    # above the dense cap no LAPACK route stands behind Lanczos: a run out of
    # budget fails the check with one line naming the level, no traceback
    monkeypatch.setattr("torusquant.analysis.LANCZOS_BUDGET", 4)
    data = {"experiment": "norm_bound", "n": 2, "k_min": 128, "k_max": 128,
            "f": {"random": {"bandwidth": 1}}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("l2 error: no l2 norm at level k = 128, dimension 16384: ")
    assert "the convergence test of the top Ritz pair failed after 4 Lanczos steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "fields, path",
    [({"polarization": "momentum"}, "polarization"), ({"k_rule": "linear", "k_step": 3}, "k_rule")],
)
def test_cli_star_refuses_fields_it_would_ignore(tmp_path, capsys, fields, path):
    # they used to be ignored: a byte-identical table under a new hash stem
    data = json.loads((Path(__file__).parents[1] / "configs" / "star_table.json").read_text(encoding="utf-8"))
    data.update(fields)
    code = main(["star", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {path}: not used by the star_table experiment" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_star_refuses_frequencies_past_the_bound(tmp_path, capsys):
    # 2^62 would overflow the int64 pair keys; 2^63 does not fit them at all
    for big in (2**62, 2**63):
        data = {
            "experiment": "star_table", "n": 1, "order": 1,
            "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]},
            "g": {"coeffs": [{"p": [1], "q": [0], "re": 1.0}, {"p": [big], "q": [0], "re": 1.0}]},
        }
        code = main(["star", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error: g.coeffs[1].p: frequency components must be at most" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_expression_that_fails_on_its_grid(tmp_path, capsys):
    data = {"experiment": "trace", "n": 1, "k_min": 4, "k_max": 16,
            "f": {"expr": "1/sin(2*pi*x1)", "bandwidth": 2}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "config error: f.expr: division by zero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, path, message",
    [
        # overflows only from x1 = 1010/1024 on, zero only at x1 = 1023/1024:
        # the last of the eight slabs of a 1024^2 lattice, and on no level
        ({"expr": "exp(720*x1) * cos(2*pi*y1)"}, "f.expr", "non-finite value produced by exp"),
        ({"expr": "cos(2*pi*x1)", "expr_im": "y1 / (1024*x1 - 1023)"}, "f.expr_im", "division by zero"),
    ],
)
def test_a_fault_in_the_last_slab_is_a_config_error_on_its_field(spec, path, message):
    assert 1024**2 // funcexpr.SLAB_POINTS > 1
    data = {"experiment": "trace", "n": 1, "k_min": 4, "k_max": 16, "f": dict(spec, bandwidth=2)}
    # parsing checks the projection grid, here 1024 points an axis
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(dict(data, f=dict(data["f"], grid=1024))))
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")
    # a run checks the 1024^2 reference grid before the levels
    cfg = parse_config(json.dumps(data))
    with pytest.raises(ConfigError) as info:
        run_experiment(cfg)
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


def test_cli_run_trace_smooth_memory_is_one_slab(tmp_path):
    # its 1024^2 reference grid held 9.1 MiB in one pass
    config = Path(__file__).resolve().parents[1] / "configs" / "trace_smooth.json"
    tracemalloc.start()
    try:
        assert main(["run", str(config), "--quiet", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 4, "k_max": 16,
             "f": {"expr": "1/(64*x1 - 1)", "bandwidth": 2}},
            "f.expr: division by zero",
            id="trace-expr-singular-on-the-reference-grid",
        ),
        # Riemann sums: traces of x-free profiles
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 3, "k_max": 8, "k_rule": "linear",
             "f": {"expr": "1/(3*y1 - 1)", "bandwidth": 2}},
            "f.expr: division by zero on the level-k lattice",
            id="riemann-expr-singular-at-a-lattice-point",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 3, "k_max": 5, "k_rule": "linear",
             "f": {"expr": "exp(1/((3*y1 - 1)^2*1000000 + 0.0000000001))", "bandwidth": 2}},
            "f.expr: non-finite value produced by exp on the level-k lattice",
            id="riemann-expr-overflowing-at-a-lattice-point",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 3, "k_max": 8, "k_rule": "linear",
             "f": {"expr": "cos(2*pi*x1)", "expr_im": "1/(3*x1 - 2)", "bandwidth": 2}},
            "f.expr_im: division by zero on the level-k lattice",
            id="trace-expr_im-singular-at-a-lattice-point",
        ),
        # refused while parsing: past the sample budget or the level count
        pytest.param(
            # reads three axes: 4096^3 = 2^36 lattice points at the top level
            {"experiment": "trace", "n": 3, "k_min": 8, "k_max": 4096,
             "f": {"expr": "exp(cos(2*pi*y1)) * cos(2*pi*y2) / (2 + sin(2*pi*y3))", "bandwidth": 2}},
            "k_max: level 4096 samples f.expr at 68719476736 points, above 16777216",
            id="expr-past-the-sample-budget",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 8, "k_max": 8192,
             "f": {"expr": "cos(2*pi*y1)", "expr_im": "cos(2*pi*x1) * sin(2*pi*y1)", "bandwidth": 2}},
            "k_max: level 8192 samples f.expr_im at 67108864 points",
            id="expr_im-past-the-sample-budget",
        ),
        pytest.param(
            # the default grid of bandwidth 12 is 52 points per axis: 52^6 at n = 3
            {"experiment": "norm_bound", "n": 3, "k_min": 2, "k_max": 4,
             "f": {"expr": "cos(2*pi*x1) * cos(2*pi*y3)", "bandwidth": 12}},
            "f.grid: projection grid 52^6 points, above 16777216",
            id="projection-grid-past-the-sample-budget",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 2, "k_max": 10**12, "k_rule": "linear",
             "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]}},
            "k_max: the linear rule gives more than 4096 levels",
            id="linear-rule-past-the-level-count",
        ),
        # the levels index int64 arrays
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 2, "k_max": 2**63,
             "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]}},
            "k_max: levels must fit a 64-bit integer, got 9223372036854775808",
            id="coefficient-trace-past-int64",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 2, "k_max": 2**63,
             "f": {"expr": "1.5", "bandwidth": 0}},
            "k_max: levels must fit a 64-bit integer, got 9223372036854775808",
            id="expression-trace-past-int64",
        ),
        # products past the term-pair budget: 25^4 x 25^4 and 9^6 x 9^6 pairs
        pytest.param(
            {"experiment": "star_table", "n": 2, "order": 1,
             "f": {"random": {"bandwidth": 12}}, "g": {"random": {"bandwidth": 12}}},
            "f.random.bandwidth: f has up to 390625 terms and g up to 390625: 152587890625 term pairs, "
            "above 4194304",
            id="star-table-past-the-pair-budget",
        ),
        pytest.param(
            {"experiment": "product", "n": 3, "k_min": 2, "k_max": 4, "order": 1,
             "f": {"random": {"bandwidth": 4}}, "g": {"random": {"bandwidth": 4}}},
            "f.random.bandwidth: f has up to 531441 terms and g up to 531441: 282429536481 term pairs",
            id="product-past-the-pair-budget",
        ),
        # one symbol past the same budget in terms: 121^6 at n = 3
        pytest.param(
            {"experiment": "trace", "n": 3, "k_min": 2, "k_max": 4,
             "f": {"random": {"bandwidth": 60}}},
            "f.random.bandwidth: f has up to 3138428376721 terms, above 4194304",
            id="trace-past-the-term-budget",
        ),
        pytest.param(
            {"experiment": "intertwine", "n": 2, "k_min": 2, "k_max": 4,
             "f": {"random": {"bandwidth": 23}}},
            "f.random.bandwidth: f has up to 4879681 terms, above 4194304",
            id="intertwine-past-the-term-budget",
        ),
        # malformed input: a frequency of another dimension, non-finite amplitudes
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 2, "k_max": 8,
             "f": {"coeffs": [{"p": [1, 2], "q": [0], "re": 1}]}},
            "f.coeffs[0].p: expected 1 components (n = 1), got 2",
            id="coefficient-of-another-dimension",
        ),
        pytest.param(
            {"experiment": "trace", "n": 1, "k_min": 2, "k_max": 8,
             "f": {"coeffs": [{"p": [0], "q": [1], "re": math.nan}]}},
            "f.coeffs[0].re: expected a finite number, got nan",
            id="nan-amplitude",
        ),
        pytest.param(
            {"experiment": "norm_bound", "n": 1, "k_min": 2, "k_max": 8,
             "f": {"coeffs": [{"p": [0], "q": [i], "re": 1e308} for i in range(2)]}},
            "f.coeffs: the sum of the amplitudes' magnitudes overflows",
            id="amplitudes-whose-l1-sum-overflows",
        ),
        # a file that is not UTF-8 text: it starts with a UTF-16 byte order mark
        pytest.param(b"\xff\xfe{}", "{path}: config file is not UTF-8", id="not-utf-8"),
        # parsing accepts it for assemble; run would ignore it
        pytest.param(dict(PRODUCT_CFG, polarization="momentum"), "polarization: ", id="polarization"),
    ],
)
def test_cli_run_refuses_configs_past_parsing(tmp_path, capsys, data, message):
    if isinstance(data, bytes):
        path = tmp_path / "cfg.json"
        path.write_bytes(data)
        message = message.format(path=path)
    else:
        path = write_cfg(tmp_path, data)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_trace_needs_no_dense_cap(tmp_path):
    # traces are lattice sums of coefficients: no operator at any level, so
    # n = 2 runs to k = 1024 (dimension 2^20)
    data = {"experiment": "trace", "n": 2, "k_min": 4, "k_max": 1024,
            "f": {"random": {"bandwidth": 6, "decay": 2.0}}}
    code = main(["run", str(write_cfg(tmp_path, data)), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 0
    (csv,) = (tmp_path / "out").glob("*.csv")
    assert csv.read_text(encoding="utf-8").splitlines()[-1].startswith("1024,")


def test_pair_budget_counts_terms_from_the_spec():
    # 2048 x 2048 coefficient records sit exactly on the budget; one more
    # record on g passes it, and an expression counts its full box
    records = [{"p": [i], "q": [0], "re": 1.0} for i in range(2048)]
    star = {"experiment": "star_table", "n": 1, "f": {"coeffs": records}}
    assert parse_config(dict(star, g={"coeffs": records})).g.max_terms(1) == 2048
    with pytest.raises(ConfigError, match=r"^g\.coeffs: .* 4196352 term pairs, above 4194304"):
        parse_config(dict(star, g={"coeffs": records + records[:1]}))
    with pytest.raises(ConfigError, match=r"^g\.bandwidth: f has up to 2048 terms and g up to 4100625"):
        parse_config(dict(star, n=2, f={"coeffs": [{"p": [0, 0], "q": [0, 0], "re": 1.0}] * 2048},
                          g={"expr": "cos(2*pi*x1)", "bandwidth": 22}))


def test_term_budget_holds_the_lone_symbol_of_each_kind_that_realizes_it(monkeypatch):
    # with the budget at 4 terms: 4 records pass and 5 are refused on the
    # field that sizes f; a trace of an expression samples it and is exempt
    monkeypatch.setattr("torusquant.config.PAIR_BUDGET", 4)
    records = [{"p": [i], "q": [0], "re": 1.0} for i in range(5)]
    for kind in ("trace", "intertwine", "norm_bound"):
        cfg = {"experiment": kind, "n": 1, "k_min": 2, "k_max": 4}
        assert parse_config(dict(cfg, f={"coeffs": records[:4]})).f.max_terms(1) == 4
        with pytest.raises(ConfigError, match=r"^f\.coeffs: f has up to 5 terms, above 4$"):
            parse_config(dict(cfg, f={"coeffs": records}))
        with pytest.raises(ConfigError, match=r"^f\.random\.bandwidth: f has up to 9 terms"):
            parse_config(dict(cfg, f={"random": {"bandwidth": 1}}))
        expr = dict(cfg, f={"expr": "cos(2*pi*x1)", "bandwidth": 1})
        if kind == "trace":
            assert parse_config(expr).f.max_terms(1) == 9
        else:
            with pytest.raises(ConfigError, match=r"^f\.bandwidth: f has up to 9 terms"):
                parse_config(expr)


def test_sample_budget_counts_the_axes_an_expression_reads():
    # one axis: k^1 is far inside the budget wherever the expression is x-free
    parse_config({"experiment": "trace", "n": 3, "k_min": 8, "k_max": 2**20,
                  "f": {"expr": "exp(cos(2*pi*y3))", "bandwidth": 2}})
    # two axes at k = 4096 sit exactly on it
    parse_config({"experiment": "trace", "n": 1, "k_min": 4096, "k_max": 4096,
                  "f": {"expr": "cos(2*pi*x1) * sin(2*pi*y1)", "bandwidth": 1}})
    with pytest.raises(ConfigError) as info:
        parse_config({"experiment": "trace", "n": 1, "k_min": 4098, "k_max": 4098, "k_rule": "linear",
                      "f": {"expr": "cos(2*pi*x1) * sin(2*pi*y1)", "bandwidth": 1}})
    assert info.value.path == "k_max"


@pytest.mark.parametrize("command, config", [("run", "norm_bound"), ("star", "star_table")])
def test_cli_refuses_a_negative_seed_override(tmp_path, capsys, command, config):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"
    code = main([command, str(path), "--seed", "-1", "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert "config error: seed: must be at least 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_shipped_config_runs_in_the_readme_and_both_ci_jobs():
    # CI checks byte identity on exactly the README commands, which both
    # jobs run twice through scripts/readme_outputs.py
    # (tests/test_readme_outputs.py holds its list to the README's); a
    # config missing from the README would ship unchecked, and a name
    # without a config would fail only in CI
    root = Path(__file__).resolve().parents[1]
    shipped = {path.stem for path in (root / "configs").glob("*.json")}
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Ready-made configs live in `configs/`:\n\n```sh\n(.*?)```", readme, re.S).group(1)
    # each names every shipped config once, and nothing else
    assert sorted(re.findall(r"configs/(\w+)\.json", block)) == sorted(shipped)
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    steps = re.findall(r"- name: Run the README commands.*?\n(?=      - name|\n  \S|\Z)", workflow, re.S)
    assert len(steps) == 2
    for step in steps:  # each job runs them twice and compares the two runs
        assert step.count("python scripts/readme_outputs.py run ") == 2
        assert "python scripts/readme_outputs.py compare " in step
        # and a floating-point warning in a real CLI run fails the step
        assert re.search(r"\n        env:\n          PYTHONWARNINGS: error::RuntimeWarning\n", step)


def test_cli_threads_flag_is_a_usage_error(tmp_path):
    cfg_path = write_cfg(tmp_path, PRODUCT_CFG)
    with pytest.raises(SystemExit) as info:
        main(["run", str(cfg_path), "--threads", "2"])
    assert info.value.code == 2


def test_cli_check_refuses_a_seed(tmp_path, capsys):
    # check runs its fixed seeded corpora; a seed it would ignore is refused
    with pytest.raises(SystemExit) as info:
        main(["check", "--seed", "5", "--out", str(tmp_path / "out"), "--quiet"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_byte_identical_across_processes(tmp_path):
    # fresh interpreters: LAPACK 2-norms must not depend on process state
    config = Path(__file__).resolve().parents[1] / "configs" / "product_random.json"
    src = str(Path(torusquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    reports = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "torusquant.cli", "run", str(config), "--out", str(out), "--quiet"],
            env=env, check=True,
        )
        reports.append(next(out.glob("*.report.json")).read_text(encoding="utf-8"))
    assert reports[0] != normalize_volatile(reports[0])  # the volatile fields are there
    assert normalize_volatile(reports[0]) == normalize_volatile(reports[1])


def test_cli_usage_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as info:
        main(["run"])
    assert info.value.code == 2
    cfg_path = write_cfg(tmp_path, PRODUCT_CFG)
    with pytest.raises(SystemExit) as info:
        main(["run", str(cfg_path), "--config", str(cfg_path)])
    assert info.value.code == 2


def test_cli_star_table(tmp_path, capsys):
    data = {
        "experiment": "star_table", "n": 1, "order": 1, "orientation": "star",
        "f": {"coeffs": [{"p": [0], "q": [1], "re": 1.0}]},
        "g": {"coeffs": [{"p": [1], "q": [0], "re": 1.0}]},
        "out": "reports",
    }
    cfg_path = write_cfg(tmp_path, data)
    out_dir = tmp_path / "out"
    code = main(["star", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "orientation=star, order=1" in stdout
    match = re.search(r"p=\[1\] q=\[1\] re=(\S+) im=(\S+)", stdout)
    assert match is not None
    # order-0 term of e^{2 pi i y} * e^{2 pi i x}
    assert float(match.group(1)) == pytest.approx(1.0)
    assert float(match.group(2)) == pytest.approx(0.0, abs=1e-15)
    # the order-1 coefficient is 2 pi i
    order1 = stdout.split("order 1:", 1)[1]
    m1 = re.search(r"p=\[1\] q=\[1\] re=(\S+) im=(\S+)", order1)
    assert float(m1.group(1)) == pytest.approx(0.0, abs=1e-12)
    assert float(m1.group(2)) == pytest.approx(2.0 * math.pi, rel=1e-12)
    csv = next(out_dir.glob("star_*.csv")).read_text(encoding="utf-8")
    assert csv.splitlines()[0] == "order,p,q,re,im"
    code = main(["star", str(write_cfg(tmp_path, PRODUCT_CFG, "p.json"))])
    assert code == 2


def test_cli_assemble_golden(tmp_path, capsys):
    data = {
        "experiment": "norm_bound", "n": 1, "k_min": 2, "k_max": 2,
        "f": {"coeffs": [
            {"p": [0], "q": [0], "re": 0.5},
            {"p": [1], "q": [0], "re": 0.25},
        ]},
    }
    cfg_path = write_cfg(tmp_path, data)
    out_dir = tmp_path / "out"
    code = main(["assemble", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    assert "dim 2" in capsys.readouterr().out
    path = next(out_dir.glob("assemble_*_k2.csv"))
    assert path.read_text(encoding="utf-8") == (
        "row,col,re,im\n"
        "0,0,0.5,0.0\n"
        "0,1,0.25,0.0\n"
        "1,0,0.25,0.0\n"
        "1,1,0.5,0.0\n"
    )


def test_cli_assemble_needs_function_and_level(tmp_path, capsys):
    data = {"experiment": "torus_relations", "n": 1, "k_min": 2, "k_max": 4}
    assert main(["assemble", str(write_cfg(tmp_path, data))]) == 2
    err = capsys.readouterr().err
    assert "f" in err


def test_function_spec_kind_dispatch():
    assert FunctionSpec(coeffs=()).kind == "coeffs"
    assert FunctionSpec(expr="1").kind == "expr"
    assert FunctionSpec(random_bandwidth=1).kind == "random"
    with pytest.raises(ValueError):
        FunctionSpec(random_bandwidth=1).asts()


def test_experiment_config_is_frozen():
    cfg = parse_config(PRODUCT_CFG)
    with pytest.raises(AttributeError):
        cfg.seed = 99
