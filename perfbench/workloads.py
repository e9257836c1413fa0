"""The benchmark's workloads: inputs made from a seed, operations, checks.

A workload is built once per process (its set-up: import, config parsing and
symbol realization) and then runs rounds.  A round calls every ``Op`` in
order; the timed region covers the calls only.  After the round each op's
``judge`` turns its output into one or more operations ``(name, failed,
problems)``: ``failed`` is the program's own verdict (an exception or a
failing pass rule), ``problems`` lists every disagreement with the
benchmark's independent checks in ``oracles``.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
# Layer functions are called through their modules so that the traced run,
# which replaces module attributes, sees these calls too.
from torusquant import analysis, checks, cli, starprod
from torusquant.config import parse_config
from torusquant.starprod import HbarValue, Orientation
from torusquant.trigpoly import random_trig_poly

Outcome = tuple[str, bool, list[str]]


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    judge: Callable[[object], list[Outcome]]


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one input, fixed by the run seed and its position."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


class Workload:
    """Base: subclasses fill ``self.ops`` in their constructor.  ``notes``
    collects measured facts about the outputs for the run's details file.
    ``calls_blas`` says whether the operations call BLAS, which picks the
    run's speed calibration."""

    calls_blas = True

    def __init__(self):
        self.ops: list[Op] = []
        self.notes: dict = {}

    def begin_round(self) -> None:
        pass

    def end_round(self) -> None:
        pass


# -- sweep_dense -------------------------------------------------------------------

# (experiment, n, order, k_min, k_max, bandwidth).  The n = 2 regime runs as
# norm_bound only: product and intertwine sweeps at n = 2 fail their slope
# window at every level range the dense cap allows (see README).
SWEEPS = (
    ("product", 1, 1, 8, 512, 2),
    ("intertwine", 1, 2, 8, 256, 2),
    ("norm_bound", 1, 0, 8, 256, 2),
    ("norm_bound", 2, 0, 4, 16, 1),
)
TINY_SWEEPS = (
    ("product", 1, 1, 16, 128, 2),
    ("intertwine", 1, 2, 16, 128, 2),
    ("norm_bound", 1, 0, 8, 64, 2),
    ("norm_bound", 2, 0, 4, 8, 1),
)
# Independent symbol sets per run.  Power-iteration cost depends on the
# symbol: from k = 512 on one capped intertwine iteration can add seconds,
# and at k = 1024 a few product sets took twice as long as the rest, hence
# the k limits above; the run sums over many sets to keep its total steady
# across seeds.
SWEEP_SETS = 16
# Levels whose dimension k^n is at most this are rebuilt by the oracle.
ORACLE_MAX_DIM = 256
DECAY = 8.0
EXACT_TRANSFORM_TOL = 1e-10


def _levels(report) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = {}
    for row in report.rows:
        out.setdefault(row.k, {})[row.norm_kind] = row.error
    return dict(sorted(out.items()))


def judge_sweep(label: str, experiment: str, order: int, levels: dict[int, dict[str, float]],
                f, reference: dict[int, dict[str, float]], details: dict) -> list[str]:
    """Benchmark checks of one product, intertwine or norm_bound sweep.

    ``levels`` maps k to the reported norms, ``reference`` maps the cheap
    levels to oracle norms of the same operator, ``f`` is the symbol arrays of
    the first input.
    """
    problems: list[str] = []
    for k, ref in reference.items():
        for kind, value in levels[k].items():
            problems += oracles.check_norm(f"{label} k={k}", kind, value, ref[kind])
    if experiment == "norm_bound":
        bound = float(np.abs(f[1]).sum())
        for k, by_kind in levels.items():
            if by_kind["l2"] > bound * (1.0 + 1e-10) + 1e-12:
                problems.append(f"{label} k={k}: l2 {by_kind['l2']!r} above the coefficient bound {bound!r}")
        return problems
    for k, by_kind in levels.items():
        problems += oracles.check_interpolation(f"{label} k={k}", by_kind)
    for kind in ("l1", "l2", "linf"):
        points = [(k, by_kind[kind]) for k, by_kind in levels.items()]
        problems += oracles.check_slope(f"{label} {kind}", points, order)
    if experiment == "intertwine" and not details["exact_max_error"] <= EXACT_TRANSFORM_TOL:
        problems.append(f"{label}: exact-transform error {details['exact_max_error']!r} above {EXACT_TRANSFORM_TOL}")
    return problems


def sweep_reference(experiment: str, order: int, ks, f, g) -> dict[int, dict[str, float]]:
    """Oracle norms at every level of ``ks`` cheap enough to rebuild densely."""
    n = f[0].shape[1] // 2
    out = {}
    for k in ks:
        if k**n > ORACLE_MAX_DIM:
            continue
        if experiment == "product":
            out[k] = oracles.product_error_norms(f, g, order, k)
        elif experiment == "intertwine":
            out[k] = oracles.intertwine_error_norms(f, order, k)
        else:
            out[k] = {"l2": oracles.norms(oracles.toeplitz(f, k))["l2"]}
    return out


class SweepDense(Workload):
    """Dense level-k sweeps through ``run_experiment``."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        for s in range(SWEEP_SETS):
            for i, (experiment, n, order, k_min, k_max, bandwidth) in enumerate(TINY_SWEEPS if tiny else SWEEPS):
                spec = {"random": {"bandwidth": bandwidth, "decay": DECAY}}
                raw = {"experiment": experiment, "n": n, "k_min": k_min, "k_max": k_max,
                       "order": order, "seed": derive_seed(seed, s, i), "f": spec}
                if experiment == "product":
                    raw["g"] = spec
                cfg = parse_config(raw)
                rng = np.random.default_rng(cfg.seed)
                f = oracles.symbol(cfg.f.realize(n, rng))
                g = oracles.symbol(cfg.g.realize(n, rng)) if cfg.g is not None else None
                label = f"{experiment}_n{n}_N{order}_set{s}"
                self.ops.append(Op(label, lambda cfg=cfg: analysis.run_experiment(cfg),
                                   self._judge(label, cfg, f, g, self.notes)))

    @staticmethod
    def _judge(label, cfg, f, g, notes):
        reference: dict = {}

        def judge(report) -> list[Outcome]:
            if not reference:
                reference.update(sweep_reference(cfg.experiment, cfg.order, cfg.k_values(), f, g))
            levels = _levels(report)
            problems = judge_sweep(label, cfg.experiment, cfg.order, levels, f, reference, report.details)
            for k, ref in reference.items():
                shortfall = oracles.l2_shortfall(levels[k]["l2"], ref["l2"])
                if shortfall > notes.get("l2_worst_shortfall", 0.0):
                    notes["l2_worst_shortfall"] = shortfall
                    notes["l2_worst_shortfall_at"] = f"{label} k={k}"
            return [(label, not report.passed, problems)]

        return judge


# -- symbol_algebra ----------------------------------------------------------------

N1_BANDWIDTH = 6  # (2*6+1)^2 = 169 terms per factor
N1_ORDER = 2
N2_BANDWIDTH = 1  # 3^4 = 81 terms per factor
N2_ORDER = 3
EXACT_LEVELS = (("star", 4), ("star", 32), ("star", 256), ("check_star", 32), ("moyal", 32))
BEREZIN_LEVELS = (8, 64)
BEREZIN_ORDER = 3


class SymbolAlgebra(Workload):
    """Products and transforms of large symbols, no operators."""

    calls_blas = False

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__()
        rng = np.random.default_rng(derive_seed(seed, 0))
        b1 = 2 if tiny else N1_BANDWIDTH
        f1, g1 = random_trig_poly(rng, 1, b1), random_trig_poly(rng, 1, b1)
        f2, g2 = random_trig_poly(rng, 2, N2_BANDWIDTH), random_trig_poly(rng, 2, N2_BANDWIDTH)
        for orientation in oracles.ORIENTATIONS:
            self._truncated(f1, g1, N1_ORDER, orientation)
        self._truncated(f2, g2, 1 if tiny else N2_ORDER, "moyal")
        for orientation, k in EXACT_LEVELS:
            self._exact(f1, g1, k, orientation)
        self._exact(f2, g2, 8, "moyal")
        for f in (f1, f2):
            self._berezin(f)

    def _truncated(self, f, g, order, orientation):
        label = f"star_truncated_{orientation}_n{f.n}_N{order}"
        fa, ga = oracles.symbol(f), oracles.symbol(g)

        def judge(series) -> list[Outcome]:
            problems = []
            if series.order != order:
                problems.append(f"{label}: series has order {series.order}")
            for j, (ref, size) in enumerate(oracles.truncated_product(fa, ga, order, orientation)):
                problems += oracles.check_coefficients(f"{label} order {j}", series.coefficient(j), ref, size)
            return [(label, False, problems)]

        self.ops.append(Op(label, lambda: starprod.star_truncated(f, g, order, Orientation(orientation)), judge))

    def _exact(self, f, g, k, orientation):
        label = f"star_exact_{orientation}_n{f.n}_k{k}"
        fa, ga = oracles.symbol(f), oracles.symbol(g)

        def judge(poly) -> list[Outcome]:
            ref, size = oracles.exact_product(fa, ga, k, orientation)
            return [(label, False, oracles.check_coefficients(label, poly, ref, size))]

        self.ops.append(Op(label, lambda: starprod.star_exact(f, g, HbarValue(k), Orientation(orientation)), judge))

    def _berezin(self, f):
        fa = oracles.symbol(f)
        size = float(np.abs(fa[1]).sum())
        label = f"berezin_truncated_n{f.n}_N{BEREZIN_ORDER}"

        def judge_series(series) -> list[Outcome]:
            problems = []
            for j, (ref, ref_size) in enumerate(oracles.berezin_series(fa, BEREZIN_ORDER)):
                problems += oracles.check_coefficients(f"{label} order {j}", series.coefficient(j), ref, ref_size)
            return [(label, False, problems)]

        self.ops.append(Op(label, lambda: starprod.berezin_truncated(f, BEREZIN_ORDER), judge_series))
        for k in BEREZIN_LEVELS:
            exact_label = f"berezin_exact_n{f.n}_k{k}"

            def judge_exact(poly, k=k, exact_label=exact_label) -> list[Outcome]:
                ref = oracles.berezin_exact(fa, k)
                return [(exact_label, False, oracles.check_coefficients(exact_label, poly, ref, size))]

            self.ops.append(Op(exact_label, lambda k=k: starprod.berezin_exact(f, HbarValue(k)), judge_exact))


# -- acceptance --------------------------------------------------------------------

# The shipped configs at the time the benchmark was defined, with the
# subcommand the package README runs each one through.  The list is fixed so
# that adding a config to the repository does not change the workload.
SHIPPED_CONFIGS = (
    ("assemble_example", "assemble"),
    ("intertwine_random", "run"),
    ("norm_bound", "run"),
    ("product_random", "run"),
    ("riemann_smooth", "run"),
    ("star_table", "star"),
    ("torus_relations", "run"),
    ("trace_bandlimited", "run"),
    ("trace_smooth", "run"),
)


class Acceptance(Workload):
    """``checks.run_all()`` and every shipped config through ``cli.main``."""

    def __init__(self, seed: int, root: Path, out_dir: Path, tiny: bool = False):
        super().__init__()
        self.out_dir = out_dir
        self.round_dir: Path | None = None
        if not tiny:
            self.ops.append(Op("checks.run_all", lambda: checks.run_all(), self._judge_checks))
        for i, (stem, command) in enumerate(SHIPPED_CONFIGS):
            path = root / "configs" / f"{stem}.json"
            cfg = parse_config(path)
            run_seed = derive_seed(seed, i)
            rng = np.random.default_rng(run_seed)
            f = oracles.symbol(cfg.f.realize(cfg.n, rng)) if cfg.f is not None else None
            g = oracles.symbol(cfg.g.realize(cfg.n, rng)) if cfg.g is not None else None
            self.ops.append(Op(f"config.{stem}", self._caller(command, path, stem, run_seed),
                               self._config_judge(stem, command, cfg, f, g)))

    @staticmethod
    def _judge_checks(result) -> list[Outcome]:
        _passed, results, _wall = result
        return [(f"criterion{r.cid}", not r.passed, []) for r in results]

    def begin_round(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.round_dir = Path(tempfile.mkdtemp(prefix="acceptance-", dir=self.out_dir))

    def end_round(self) -> None:
        shutil.rmtree(self.round_dir, ignore_errors=True)
        self.round_dir = None

    def _caller(self, command, path, stem, run_seed):
        def call():
            out = self.round_dir / stem
            return cli.main([command, str(path), "--out", str(out), "--seed", str(run_seed), "--quiet"])

        return call

    def _config_judge(self, stem, command, cfg, f, g):
        label = f"config.{stem}"

        def judge(code) -> list[Outcome]:
            out = self.round_dir / stem
            if code != 0:
                return [(label, True, [])]
            if command == "assemble":
                return [(label, False, _judge_assemble(label, out, cfg, f))]
            if command == "star":
                return [(label, False, _judge_star(label, out, cfg, f, g))]
            reports = list(out.glob("*.report.json"))
            if len(reports) != 1:
                return [(label, False, [f"{label}: expected one report, found {len(reports)}"])]
            report = json.loads(reports[0].read_text(encoding="utf-8"))
            problems = []
            if cfg.experiment in ("product", "intertwine", "norm_bound"):
                levels: dict[int, dict[str, float]] = {}
                for row in report["rows"]:
                    levels.setdefault(row["k"], {})[row["norm_kind"]] = row["error"]
                problems = judge_sweep(label, cfg.experiment, cfg.order, dict(sorted(levels.items())),
                                       f, {}, report["details"])
            return [(label, not report["passed"], problems)]

        return judge


def _judge_assemble(label, out: Path, cfg, f) -> list[str]:
    reference = oracles.toeplitz(f, cfg.k_min, momentum=cfg.polarization == "momentum")
    got = np.zeros_like(reference)
    (path,) = out.glob("*.csv")
    with path.open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            got[int(row["row"]), int(row["col"])] = complex(float(row["re"]), float(row["im"]))
    err = float(np.abs(got - reference).max())
    if err > 1e-12 * max(float(np.abs(reference).max()), 1.0):
        return [f"{label}: matrix differs from the shift-and-clock reference by {err:.3e}"]
    return []


def _judge_star(label, out: Path, cfg, f, g) -> list[str]:
    coefficients: dict[int, dict] = {j: {} for j in range(cfg.order + 1)}
    (path,) = out.glob("*.csv")
    with path.open(encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            p = tuple(int(v) for v in row["p"].split())
            q = tuple(int(v) for v in row["q"].split())
            coefficients[int(row["order"])][(p, q)] = complex(float(row["re"]), float(row["im"]))
    problems = []
    for j, (ref, size) in enumerate(oracles.truncated_product(f, g, cfg.order, cfg.orientation)):
        problems += oracles.check_coefficients(f"{label} order {j}", _Terms(cfg.n, coefficients[j]), ref, size)
    return problems


class _Terms:
    """Adapter giving a parsed coefficient table the ``terms()`` interface."""

    def __init__(self, n: int, coeffs: dict):
        self.n = n
        self._coeffs = coeffs

    def terms(self):
        return sorted(self._coeffs.items())


WORKLOADS = ("sweep_dense", "symbol_algebra", "acceptance")


def build(name: str, seed: int, root: Path, out_dir: Path, tiny: bool = False) -> Workload:
    """Set up one workload: parse its configs and realize its symbols."""
    if name == "sweep_dense":
        return SweepDense(seed, tiny)
    if name == "symbol_algebra":
        return SymbolAlgebra(seed, tiny)
    if name == "acceptance":
        return Acceptance(seed, root, out_dir, tiny)
    raise ValueError(f"unknown workload {name!r}")
