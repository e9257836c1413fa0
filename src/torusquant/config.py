"""Experiment configuration: strict parsing, defaults, canonical hashing.

Configs are JSON objects.  Parsing is strict: unknown keys are rejected, and
every validation error names the offending field path (``"f.bandwidth"``).
Inputs too large to run (more than MAX_LEVELS levels, levels beyond int64,
lattices of more than ``funcexpr.SAMPLE_BUDGET`` samples, products past
PAIR_BUDGET term pairs, single symbols past PAIR_BUDGET terms, or operators
past the certificate budgets below) are refused the same way, and so are
non-finite numbers, which ``json`` reads from ``NaN`` and ``Infinity``.
The normalized form (defaults filled in) is what reports echo and hash, so a
report can always be traced back to the exact configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import funcexpr
from .quantize import DENSE_DIM_CAP, Polarization
from .starprod import MAX_ORDER, Orientation
from .trigpoly import MAX_FREQ, TrigPoly, random_trig_poly


@dataclass(frozen=True)
class Kind:
    """What an experiment kind reads.  ``symbols`` is 0, 1 or 2: none, f, or
    f then g.  ``order``: it reads the truncation order N.  ``operator``: it
    builds a k^n-dimensional operator at every level and reads its l2 norm;
    above the dense cap only certified Lanczos answers, so the largest level
    is held to the two budgets below.  ``sweep``: it runs over levels k."""

    symbols: int
    order: bool = False
    operator: bool = False
    sweep: bool = True


KINDS = {
    "product": Kind(symbols=2, order=True, operator=True),
    "intertwine": Kind(symbols=1, order=True, operator=True),
    "trace": Kind(symbols=1),
    "norm_bound": Kind(symbols=1, operator=True),
    "torus_relations": Kind(symbols=0, operator=True),
    "star_table": Kind(symbols=2, order=True, sweep=False),
}
K_RULES = ("pow2", "linear")
# Most entries of one l2 certificate block, which costs O(b^3), and of A*A,
# about 24 bytes each with temporaries of that size; see ``certificate_shape``.
CERT_BLOCK_CAP = 2048
GRAM_ENTRY_CAP = 1 << 23
# Most term pairs |f| |g| of one symbol product (star_exact, star_truncated):
# each pair holds about a hundred bytes of phases, amplitudes and sort codes
# at once, so a product at the budget peaks near 360 MiB.  It also caps the
# terms of the one symbol that the other kinds realize.
PAIR_BUDGET = 1 << 22
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

    def size_field(self) -> str:
        """The field that sets ``max_terms``, relative to the spec."""
        return {"coeffs": "coeffs", "expr": "bandwidth", "random": "random.bandwidth"}[self.kind]

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


def _as_finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _parse_function(data, path: str, n: int) -> FunctionSpec:
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
                if len(v) != n:
                    raise ConfigError(f"{rpath}.{label}", f"expected {n} components (n = {n}), got {len(v)}")
                if any(abs(c) > MAX_FREQ for c in v):
                    raise ConfigError(f"{rpath}.{label}", f"frequency components must be at most {MAX_FREQ} in size")
            re = _as_finite(_require(rec, f"{rpath}.", "re"), f"{rpath}.re")
            im = _as_finite(rec.get("im", 0.0), f"{rpath}.im")
            cleaned.append({"p": list(p), "q": list(q), "re": re, "im": im})
        if not math.isfinite(sum(math.hypot(rec["re"], rec["im"]) for rec in cleaned)):
            raise ConfigError(f"{path}.coeffs", "the sum of the amplitudes' magnitudes overflows")
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
    decay = _as_finite(sub.get("decay", 3.0), f"{path}.random.decay")
    if decay < 0:
        raise ConfigError(f"{path}.random.decay", f"expected a non-negative number, got {decay!r}")
    return FunctionSpec(random_bandwidth=bw, random_decay=decay)


def expression_mean(spec: FunctionSpec, n: int, grid: int, path: str) -> complex:
    """Mean of the expression, ``expr_im`` as its imaginary part, on the
    uniform grid (``funcexpr.lattice_mean``); a division by zero, an overflow
    or a variable beyond n there is a config error naming ``path.expr`` or
    ``path.expr_im``."""
    try:
        return funcexpr.lattice_mean(spec.asts(), n, grid)
    except funcexpr.EvaluationError as exc:
        raise ConfigError(f"{path}.{exc.part}", str(exc)) from exc


def check_pair_product(cfg: ExperimentConfig, f: TrigPoly, g: TrigPoly) -> None:
    """Refuse the realized pair f, g when an amplitude of its products could
    pass the float range, on the ``coeffs`` or ``expr`` field of the factor
    of the larger l1 norm.

    Every order-j amplitude of every product is at most
    ||f||_l1 ||g||_l1 (2 pi W)^j / j!, where W = sum_i (max|a_i| max|q_i| +
    max|p_i| max|b_i|) over f-keys (p, a) and g-keys (q, b) bounds |a.q|
    and |p.b|; the j = 0 bound also holds for the exact product at every
    level.  The pair is refused unless the sum of these bounds up to
    cfg.order, starting with ||f||_l1 ||g||_l1, is finite.
    """
    n = cfg.n
    fw, gw = (np.abs(s.keys).max(axis=0, initial=0).tolist() for s in (f, g))
    width = sum(fw[n + i] * gw[i] + fw[i] * gw[n + i] for i in range(n))
    l1f, l1g = f.l1_norm(), g.l1_norm()
    term = total = l1f * l1g
    for j in range(1, cfg.order + 1):
        term *= 2.0 * math.pi * width / j
        total += term
    if not math.isfinite(total):
        name, spec = ("f", cfg.f) if l1f >= l1g else ("g", cfg.g)
        raise ConfigError(
            f"{name}.{spec.kind}",
            f"the product of f (l1 norm {l1f:.3g}) and g (l1 norm {l1g:.3g}) has amplitudes past the float range "
            f"up to order {cfg.order}",
        )


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

    @property
    def kind(self) -> Kind:
        return KINDS[self.experiment]

    def symbols(self) -> Iterator[TrigPoly]:
        """The realized symbols, f first, then g, each realized when it is
        reached; random ones are drawn in that order from one generator
        seeded with ``seed``."""
        rng = np.random.default_rng(self.seed)
        return (spec.realize(self.n, rng) for spec in (self.f, self.g) if spec is not None)

    def k_values(self) -> list[int]:
        """Levels in the sweep: doubling from k_min, or linear with k_step."""
        if not self.kind.sweep:
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
        if self.kind.sweep:
            out["k_min"] = self.k_min
            out["k_max"] = self.k_max
            if self.k_rule == "linear":
                out["k_step"] = self.k_step
        if self.kind.order:
            out["order"] = self.order
        if not self.kind.sweep:
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
            except UnicodeDecodeError as exc:
                raise ConfigError(str(source), f"config file is not UTF-8: {exc}") from exc
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
    known = {field.name for field in dataclasses.fields(ExperimentConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(key, "unknown field")

    experiment = _as_str(_require(data, "", "experiment"), "experiment", tuple(KINDS))
    kind = KINDS[experiment]
    n = _as_int(_require(data, "", "n"), "n", minimum=1)
    k_rule = _as_str(data.get("k_rule", "pow2"), "k_rule", K_RULES)
    k_step = _as_int(data.get("k_step", 1), "k_step", minimum=1)
    seed = _as_int(data.get("seed", 0), "seed", minimum=0)
    order = _as_int(data.get("order", 0), "order", minimum=0)
    if order > MAX_ORDER:
        raise ConfigError("order", f"must be at most {MAX_ORDER}, got {order}")
    out = _as_str(data.get("out", "reports"), "out")
    polarization = _as_str(data.get("polarization", "position"), "polarization", tuple(p.value for p in Polarization))
    orientation = _as_str(data.get("orientation", "star"), "orientation", tuple(o.value for o in Orientation))
    # a field the experiment would ignore is refused unless it has its default;
    # polarization is read by assemble, so the sweeps refuse it in run_experiment
    if k_rule == "pow2" and k_step != 1:
        raise ConfigError("k_step", "not used by the pow2 rule")
    if not kind.order and order != 0:
        raise ConfigError("order", f"not used by the {experiment} experiment")
    if kind.sweep and orientation != "star":
        raise ConfigError("orientation", f"not used by the {experiment} experiment")
    # the star subcommand reads neither a basis nor levels
    if not kind.sweep and polarization != "position":
        raise ConfigError("polarization", f"not used by the {experiment} experiment")
    if not kind.sweep and k_rule != "pow2":
        raise ConfigError("k_rule", f"not used by the {experiment} experiment")

    k_min = 0
    k_max = 0
    if kind.sweep:
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

    specs = []
    for name in ("f", "g"):
        if len(specs) < kind.symbols:
            specs.append(_parse_function(_require(data, "", name), name, n))
        elif name in data:
            raise ConfigError(name, f"not used by the {experiment} experiment")
    f_spec, g_spec = specs + [None] * (2 - len(specs))

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
    if kind.sweep and not cfg.k_values():
        raise ConfigError("k_min", "sweep is empty; check k_min/k_max/k_rule")
    if kind.symbols == 2:
        _check_pair_budget(cfg)
    if kind.operator:
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
    if kind.symbols == 1:
        _check_term_budget(experiment, f_spec, n)
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
        raise ConfigError(
            f"{name}.{spec.size_field()}",
            f"f has up to {f_terms} terms and g up to {g_terms}: {f_terms * g_terms} term pairs, "
            f"above {PAIR_BUDGET}",
        )


def _check_term_budget(experiment: str, spec: FunctionSpec, n: int) -> None:
    """Refuse, on its size field, a lone symbol f of more than PAIR_BUDGET
    terms.  A trace of an expression is not held to it: it samples the
    expression and never realizes the symbol."""
    if experiment == "trace" and spec.kind == "expr":
        return
    terms = spec.max_terms(n)
    if terms > PAIR_BUDGET:
        raise ConfigError(f"f.{spec.size_field()}", f"f has up to {terms} terms, above {PAIR_BUDGET}")


def certificate_shape(n: int, k: int, reach: int, diagonals: int) -> int | str:
    """Entries of one interleaving block of the l2 certificate at level k,
    max(2 reach, 1) slices of k^(n-1), for an A*A of ``diagonals`` diagonals
    of k^n entries that reaches ``reach`` residues either way on its
    outermost axis; or the refusal that names the cap passed."""
    reach = min(reach, k // 2)
    block = max(2 * reach, 1) * k ** (n - 1)
    if block > CERT_BLOCK_CAP:
        return f"l2 certificate blocks of 2 x {reach} x {k}^{n - 1} = {block} entries, above {CERT_BLOCK_CAP}"
    if diagonals * k**n > GRAM_ENTRY_CAP:
        return f"{diagonals * k**n} entries of A*A, above {GRAM_ENTRY_CAP}"
    return block


def _check_certificate_budget(cfg: ExperimentConfig) -> None:
    """Refuse, on k_max, a largest level (both caps grow with k) above the
    dense cap whose l2 certificate ``certificate_shape`` refuses.  A*A
    reaches 2W residues on each axis, so at most min(4W + 1, k)^n diagonals:
    W is f's x-bandwidth, f's plus g's for a product, 1 for torus relations."""
    top, n = max(cfg.k_values()), cfg.n
    width = 1 if cfg.f is None else cfg.f.x_bandwidth() + (cfg.g.x_bandwidth() if cfg.g is not None else 0)
    refusal = certificate_shape(n, top, 2 * width, min(4 * width + 1, top) ** n)
    if top**n > DENSE_DIM_CAP and isinstance(refusal, str):
        raise ConfigError("k_max", f"level {top} needs {refusal} (x-bandwidth {width})")


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and echo format."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def config_hash(cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256(canonical_json(cfg.normalized()).encode("ascii")).hexdigest()
    return f"sha256:{digest}"
