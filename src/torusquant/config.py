"""Experiment configuration: strict parsing, defaults, canonical hashing.

Configs are JSON objects.  Parsing is strict: unknown keys are rejected, and
every validation error names the offending field path (``"f.bandwidth"``).
Inputs too large to run (more than MAX_LEVELS levels, levels beyond int64,
lattices of more than ``funcexpr.SAMPLE_BUDGET`` samples, products past
PAIR_BUDGET term pairs, or operators past the certificate budgets below) are
refused the same way.
The normalized form (defaults filled in) is what reports echo and hash, so a
report can always be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import funcexpr
from .quantize import DENSE_DIM_CAP
from .starprod import MAX_ORDER
from .trigpoly import MAX_FREQ, TrigPoly, random_trig_poly

EXPERIMENT_KINDS = (
    "product",
    "intertwine",
    "trace",
    "norm_bound",
    "torus_relations",
    "star_table",
)
K_RULES = ("pow2", "linear")
POLARIZATIONS = ("position", "momentum")
ORIENTATIONS = ("star", "check_star", "moyal")

# kinds that sweep over levels k
SWEEP_KINDS = tuple(k for k in EXPERIMENT_KINDS if k != "star_table")
# kinds that need a second function g
PAIR_KINDS = ("product", "star_table")
# kinds that need any function at all
FUNCTION_KINDS = ("product", "intertwine", "trace", "norm_bound", "star_table")
# kinds that build a k^n-dimensional operator at every level and read its
# l2 norm; above the dense cap only certified Lanczos answers, so the
# largest level is held to the two budgets below
OPERATOR_KINDS = ("product", "intertwine", "norm_bound", "torus_relations")
# Most entries of one block of the l2 certificate (analysis._certify): it
# factors A*A in blocks of 2 (Gram reach) k^(n-1) entries, the Gram reach
# being twice the x-bandwidth of A, and a block costs O(b^3).
CERT_BLOCK_CAP = 2048
# Most stored entries of A*A, its diagonals times k^n, that Lanczos and the
# certificate read: about 24 bytes each, and a few temporaries of that size.
GRAM_ENTRY_CAP = 1 << 23
# Most term pairs |f| |g| of one symbol product (star_exact, star_truncated):
# each pair holds about a hundred bytes of phases, amplitudes and sort codes
# at once, so a product at the budget peaks near 360 MiB.
PAIR_BUDGET = 1 << 22
# kinds that read the truncation order N
ORDER_KINDS = ("product", "intertwine", "star_table")
# most levels in one sweep
MAX_LEVELS = 4096


class ConfigError(ValueError):
    """Invalid configuration; ``path`` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(data: Mapping, path: str, key: str):
    if key not in data:
        raise ConfigError(f"{path}{key}" if path else key, "missing required field")
    return data[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be at least {minimum}, got {value}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(path, f"must be one of {', '.join(choices)}; got {value!r}")
    return value


@dataclass(frozen=True)
class FunctionSpec:
    """One test function: inline coefficients, an expression, or random.
    A trace reads an expression itself (``asts``), not its projection
    (``realize``), so its bandwidth and grid only set the parse-time check."""

    coeffs: tuple | None = None
    expr: str | None = None
    expr_im: str | None = None
    bandwidth: int | None = None
    grid: int | None = None
    random_bandwidth: int | None = None
    random_decay: float = 3.0

    @property
    def kind(self) -> str:
        if self.coeffs is not None:
            return "coeffs"
        if self.expr is not None:
            return "expr"
        return "random"

    def x_bandwidth(self) -> int:
        """The largest |p_i| the realized symbol can have."""
        if self.coeffs is not None:
            return max(abs(v) for rec in self.coeffs for v in rec["p"])
        return self.bandwidth if self.expr is not None else self.random_bandwidth

    def max_terms(self, n: int) -> int:
        """The most terms the realized symbol can have: one per coefficient
        record, or the full box of the bandwidth."""
        if self.coeffs is not None:
            return len(self.coeffs)
        return (2 * self.x_bandwidth() + 1) ** (2 * n)

    def projection_spec(self) -> funcexpr.ProjectionSpec:
        return funcexpr.ProjectionSpec(self.bandwidth, self.grid or 0)

    def asts(self):
        """(real-part AST, imaginary-part AST or None) for expression specs."""
        if self.expr is None:
            raise ValueError("not an expression spec")
        re_ast = funcexpr.parse(self.expr)
        im_ast = funcexpr.parse(self.expr_im) if self.expr_im is not None else None
        return re_ast, im_ast

    def realize(self, n: int, rng: np.random.Generator) -> TrigPoly:
        if self.coeffs is not None:
            return TrigPoly.from_records(n, self.coeffs)
        if self.expr is not None:
            spec = self.projection_spec()
            re_ast, im_ast = self.asts()
            out = funcexpr.project(re_ast, spec, n)
            if im_ast is not None:
                out = out + funcexpr.project(im_ast, spec, n).scale(1j)
            return out
        return random_trig_poly(rng, n, self.random_bandwidth, decay=self.random_decay)

    def normalized(self) -> dict:
        if self.coeffs is not None:
            return {"coeffs": [dict(r) for r in self.coeffs]}
        if self.expr is not None:
            out = {
                "expr": self.expr,
                "bandwidth": self.bandwidth,
                "grid": self.grid or funcexpr.default_grid(self.bandwidth),
            }
            if self.expr_im is not None:
                out["expr_im"] = self.expr_im
            return out
        return {"random": {"bandwidth": self.random_bandwidth, "decay": self.random_decay}}


def _parse_function(data, path: str) -> FunctionSpec:
    if not isinstance(data, Mapping):
        raise ConfigError(path, f"expected an object, got {data!r}")
    modes = [m for m in ("coeffs", "expr", "random") if m in data]
    if len(modes) != 1:
        raise ConfigError(path, "exactly one of 'coeffs', 'expr', 'random' is required")
    mode = modes[0]
    known = {
        "coeffs": {"coeffs"},
        "expr": {"expr", "expr_im", "bandwidth", "grid"},
        "random": {"random"},
    }[mode]
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}", f"unknown field for a {mode} function spec")
    if mode == "coeffs":
        records = data["coeffs"]
        if not isinstance(records, list) or not records:
            raise ConfigError(f"{path}.coeffs", "expected a non-empty list of records")
        cleaned = []
        for i, rec in enumerate(records):
            rpath = f"{path}.coeffs[{i}]"
            if not isinstance(rec, Mapping):
                raise ConfigError(rpath, f"expected an object, got {rec!r}")
            for key in rec:
                if key not in ("p", "q", "re", "im"):
                    raise ConfigError(f"{rpath}.{key}", "unknown field in coefficient record")
            p = _require(rec, f"{rpath}.", "p")
            q = _require(rec, f"{rpath}.", "q")
            if not isinstance(p, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in p):
                raise ConfigError(f"{rpath}.p", "expected a list of integers")
            if not isinstance(q, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in q):
                raise ConfigError(f"{rpath}.q", "expected a list of integers")
            for label, v in (("p", p), ("q", q)):
                if any(abs(c) > MAX_FREQ for c in v):
                    raise ConfigError(f"{rpath}.{label}", f"frequency components must be at most {MAX_FREQ} in size")
            re = _require(rec, f"{rpath}.", "re")
            im = rec.get("im", 0.0)
            for label, v in (("re", re), ("im", im)):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ConfigError(f"{rpath}.{label}", f"expected a number, got {v!r}")
            cleaned.append({"p": list(p), "q": list(q), "re": float(re), "im": float(im)})
        return FunctionSpec(coeffs=tuple(cleaned))
    if mode == "expr":
        expr = _as_str(data["expr"], f"{path}.expr")
        expr_im = data.get("expr_im")
        if expr_im is not None:
            expr_im = _as_str(expr_im, f"{path}.expr_im")
        bandwidth = _as_int(_require(data, f"{path}.", "bandwidth"), f"{path}.bandwidth", minimum=0)
        grid = data.get("grid")
        if grid is not None:
            grid = _as_int(grid, f"{path}.grid", minimum=2)
        for label, src in (("expr", expr), ("expr_im", expr_im)):
            if src is None:
                continue
            try:
                funcexpr.parse(src)
            except funcexpr.ExpressionError as exc:
                raise ConfigError(f"{path}.{label}", str(exc)) from exc
        try:
            funcexpr.ProjectionSpec(bandwidth, grid or 0)
        except ValueError as exc:
            raise ConfigError(f"{path}.grid", str(exc)) from exc
        return FunctionSpec(expr=expr, expr_im=expr_im, bandwidth=bandwidth, grid=grid)
    sub = data["random"]
    if not isinstance(sub, Mapping):
        raise ConfigError(f"{path}.random", f"expected an object, got {sub!r}")
    for key in sub:
        if key not in ("bandwidth", "decay"):
            raise ConfigError(f"{path}.random.{key}", "unknown field")
    bw = _as_int(_require(sub, f"{path}.random.", "bandwidth"), f"{path}.random.bandwidth", minimum=0)
    decay = sub.get("decay", 3.0)
    if isinstance(decay, bool) or not isinstance(decay, (int, float)) or decay < 0:
        raise ConfigError(f"{path}.random.decay", f"expected a non-negative number, got {decay!r}")
    return FunctionSpec(random_bandwidth=bw, random_decay=float(decay))


def expression_mean(spec: FunctionSpec, n: int, grid: int, path: str) -> complex:
    """Mean of the expression, ``expr_im`` as its imaginary part, on the
    uniform grid (``funcexpr.lattice_mean``); a division by zero, an overflow
    or a variable beyond n there is a config error naming ``path.expr`` or
    ``path.expr_im``."""
    try:
        return funcexpr.lattice_mean(spec.asts(), n, grid)
    except funcexpr.EvaluationError as exc:
        raise ConfigError(f"{path}.{exc.part}", str(exc)) from exc


_TOP_LEVEL_KEYS = {
    "experiment",
    "n",
    "k_min",
    "k_max",
    "k_rule",
    "k_step",
    "order",
    "seed",
    "out",
    "polarization",
    "orientation",
    "f",
    "g",
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n: int
    k_min: int = 0
    k_max: int = 0
    k_rule: str = "pow2"
    k_step: int = 1
    order: int = 0
    seed: int = 0
    out: str = "reports"
    polarization: str = "position"
    orientation: str = "star"
    f: FunctionSpec | None = None
    g: FunctionSpec | None = None

    def k_values(self) -> list[int]:
        """Levels in the sweep: doubling from k_min, or linear with k_step."""
        if self.experiment not in SWEEP_KINDS:
            return []
        ks = []
        if self.k_rule == "pow2":
            k = self.k_min
            while k <= self.k_max:
                ks.append(k)
                k *= 2
        else:
            ks = list(range(self.k_min, self.k_max + 1, self.k_step))
        return ks

    def normalized(self) -> dict:
        # `out` is deliberately absent: the hash identifies the experiment,
        # not the destination directory
        out = {
            "experiment": self.experiment,
            "n": self.n,
            "k_rule": self.k_rule,
            "seed": self.seed,
        }
        if self.experiment in SWEEP_KINDS:
            out["k_min"] = self.k_min
            out["k_max"] = self.k_max
            if self.k_rule == "linear":
                out["k_step"] = self.k_step
        if self.experiment in ORDER_KINDS:
            out["order"] = self.order
        if self.experiment == "star_table":
            out["orientation"] = self.orientation
        out["polarization"] = self.polarization
        if self.f is not None:
            out["f"] = self.f.normalized()
        if self.g is not None:
            out["g"] = self.g.normalized()
        return out


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a dict, a JSON string, or a file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            looks_like_file = isinstance(source, Path) or path.suffix == ".json" or path.exists()
        except OSError:
            looks_like_file = False
        if looks_like_file:
            try:
                text = path.read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(str(source), f"cannot read config file: {exc}") from exc
        else:
            text = source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("<config>", f"invalid JSON: {exc}") from exc
    else:
        data = source
    if not isinstance(data, Mapping):
        raise ConfigError("<config>", "top level must be a JSON object")
    for key in data:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(key, "unknown field")

    experiment = _as_str(_require(data, "", "experiment"), "experiment", EXPERIMENT_KINDS)
    n = _as_int(_require(data, "", "n"), "n", minimum=1)
    k_rule = _as_str(data.get("k_rule", "pow2"), "k_rule", K_RULES)
    k_step = _as_int(data.get("k_step", 1), "k_step", minimum=1)
    seed = _as_int(data.get("seed", 0), "seed", minimum=0)
    order = _as_int(data.get("order", 0), "order", minimum=0)
    if order > MAX_ORDER:
        raise ConfigError("order", f"must be at most {MAX_ORDER}, got {order}")
    out = _as_str(data.get("out", "reports"), "out")
    polarization = _as_str(data.get("polarization", "position"), "polarization", POLARIZATIONS)
    orientation = _as_str(data.get("orientation", "star"), "orientation", ORIENTATIONS)
    # a field the experiment would ignore is refused unless it has its default;
    # polarization is read by assemble, so the sweeps refuse it in run_experiment
    if k_rule == "pow2" and k_step != 1:
        raise ConfigError("k_step", "not used by the pow2 rule")
    if experiment not in ORDER_KINDS and order != 0:
        raise ConfigError("order", f"not used by the {experiment} experiment")
    if experiment != "star_table" and orientation != "star":
        raise ConfigError("orientation", f"not used by the {experiment} experiment")
    # the star subcommand reads neither a basis nor levels
    if experiment == "star_table" and polarization != "position":
        raise ConfigError("polarization", "not used by the star_table experiment")
    if experiment == "star_table" and k_rule != "pow2":
        raise ConfigError("k_rule", "not used by the star_table experiment")

    k_min = 0
    k_max = 0
    if experiment in SWEEP_KINDS:
        k_min = _as_int(_require(data, "", "k_min"), "k_min", minimum=2)
        k_max = _as_int(_require(data, "", "k_max"), "k_max", minimum=2)
        if k_max > np.iinfo(np.int64).max:
            raise ConfigError("k_max", f"levels must fit a 64-bit integer, got {k_max}")
        if k_max < k_min:
            raise ConfigError("k_max", f"must be at least k_min={k_min}, got {k_max}")
        if k_rule == "linear" and (k_max - k_min) // k_step + 1 > MAX_LEVELS:
            raise ConfigError("k_max", f"the linear rule gives more than {MAX_LEVELS} levels")
    else:
        for key in ("k_min", "k_max"):
            if key in data:
                raise ConfigError(key, f"not used by the {experiment} experiment")

    f_spec = None
    g_spec = None
    if experiment in FUNCTION_KINDS:
        f_spec = _parse_function(_require(data, "", "f"), "f")
    elif "f" in data:
        raise ConfigError("f", f"not used by the {experiment} experiment")
    if experiment in PAIR_KINDS:
        g_spec = _parse_function(_require(data, "", "g"), "g")
    elif "g" in data:
        raise ConfigError("g", f"not used by the {experiment} experiment")

    cfg = ExperimentConfig(
        experiment=experiment,
        n=n,
        k_min=k_min,
        k_max=k_max,
        k_rule=k_rule,
        k_step=k_step,
        order=order,
        seed=seed,
        out=out,
        polarization=polarization,
        orientation=orientation,
        f=f_spec,
        g=g_spec,
    )
    if experiment in SWEEP_KINDS and not cfg.k_values():
        raise ConfigError("k_min", "sweep is empty; check k_min/k_max/k_rule")
    if experiment in PAIR_KINDS:
        _check_pair_budget(cfg)
    if experiment in OPERATOR_KINDS:
        _check_certificate_budget(cfg)
    for name, spec in (("f", f_spec), ("g", g_spec)):
        if spec is not None and spec.kind == "expr":
            grid = spec.projection_spec().grid
            # project() spreads the samples to the full grid; a trace projects nothing
            if experiment != "trace" and grid ** (2 * n) > funcexpr.SAMPLE_BUDGET:
                raise ConfigError(
                    f"{name}.grid", f"projection grid {grid}^{2 * n} points, above {funcexpr.SAMPLE_BUDGET}"
                )
            expression_mean(spec, n, grid, name)
    if experiment == "trace" and f_spec.kind == "expr":
        top = max(cfg.k_values())
        for label, ast in zip(("expr", "expr_im"), f_spec.asts()):
            points = top ** len(funcexpr.variables(ast)) if ast is not None else 1
            if points > funcexpr.SAMPLE_BUDGET:
                raise ConfigError(
                    "k_max", f"level {top} samples f.{label} at {points} points, above {funcexpr.SAMPLE_BUDGET}"
                )
    return cfg


def _check_pair_budget(cfg: ExperimentConfig) -> None:
    """Refuse a product of more than PAIR_BUDGET term pairs, on the size
    field of the larger symbol."""
    f_terms, g_terms = cfg.f.max_terms(cfg.n), cfg.g.max_terms(cfg.n)
    if f_terms * g_terms > PAIR_BUDGET:
        name, spec = ("f", cfg.f) if f_terms >= g_terms else ("g", cfg.g)
        field = {"coeffs": "coeffs", "expr": "bandwidth", "random": "random.bandwidth"}[spec.kind]
        raise ConfigError(
            f"{name}.{field}",
            f"f has up to {f_terms} terms and g up to {g_terms}: {f_terms * g_terms} term pairs, "
            f"above {PAIR_BUDGET}",
        )


def _check_certificate_budget(cfg: ExperimentConfig) -> None:
    """Refuse, on k_max, a largest level above the dense cap whose l2
    certificate would pass CERT_BLOCK_CAP or GRAM_ENTRY_CAP.  Both grow with
    k, and every level at or below the dense cap has the LAPACK route, so
    the largest level decides.  The bounds take the x-bandwidth W of the
    operator: f's, f's plus g's for a product remainder, 1 for the torus
    relations; A*A then reaches 2W residues on each axis."""
    top, n = max(cfg.k_values()), cfg.n
    if top**n <= DENSE_DIM_CAP:
        return
    if cfg.experiment == "torus_relations":
        width = 1
    else:
        width = cfg.f.x_bandwidth() + (cfg.g.x_bandwidth() if cfg.g is not None else 0)
    reach = min(2 * width, top // 2)
    block = max(2 * reach, 1) * top ** (n - 1)
    if block > CERT_BLOCK_CAP:
        raise ConfigError(
            "k_max",
            f"level {top} needs l2 certificate blocks of 2 x {reach} x {top}^{n - 1} = {block} entries "
            f"(x-bandwidth {width}), above {CERT_BLOCK_CAP}",
        )
    entries = min(4 * width + 1, top) ** n * top**n
    if entries > GRAM_ENTRY_CAP:
        raise ConfigError(
            "k_max", f"level {top} needs {entries} entries of A*A (x-bandwidth {width}), above {GRAM_ENTRY_CAP}"
        )


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and echo format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(canonical_json(cfg.normalized()).encode("ascii")).hexdigest()
    return f"sha256:{digest}"
