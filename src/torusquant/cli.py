"""Command line interface: batch experiments in, tables out.

Subcommands:
  run <config>       run a sweep experiment and write report + CSV
  star <config>      print the truncated star product of two functions
  assemble <config>  dump one Toeplitz matrix as CSV
  check              run the full acceptance suite (criteria 1..9)

Exit status: 0 all checks passed, 1 a check failed or an l2 norm could not be
certified (one stderr line names the level), 2 bad config or usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from . import checks, reporting
from .analysis import L2RouteError, run_experiment
from .config import ConfigError, config_hash, parse_config
from .quantize import DENSE_DIM_CAP, HilbertSpec, write_operator_csv, assemble_toeplitz
from .starprod import Orientation, star_truncated


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusquant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p, needs_config=True):
        # check runs fixed seeded corpora: it takes neither a config nor a seed
        if needs_config:
            p.add_argument("config_path", nargs="?", help="path to a JSON config")
            p.add_argument("--config", dest="config_flag", metavar="PATH", help="path to a JSON config")
            p.add_argument("--seed", type=int, metavar="U64", help="seed override")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
        return p

    add_config_args(sub.add_parser("run", help="run a sweep experiment"))
    add_config_args(sub.add_parser("star", help="print a truncated star product table"))
    add_config_args(sub.add_parser("assemble", help="dump a Toeplitz matrix as CSV"))
    add_config_args(sub.add_parser("check", help="run the acceptance suite"), needs_config=False)
    return parser


def _load_config(args, parser):
    path = args.config_path or args.config_flag
    if path is None:
        parser.error("a config is required (positional path or --config)")
    if args.config_path and args.config_flag:
        parser.error("give the config either positionally or via --config, not both")
    cfg = parse_config(Path(path))
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed", f"must be at least 0, got {args.seed}")
        overrides["seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _format_index(vec) -> str:
    return "[" + " ".join(str(v) for v in vec) + "]"


def _cmd_run(args, parser) -> int:
    cfg = _load_config(args, parser)
    if cfg.experiment == "star_table":
        raise ConfigError("experiment", "star_table configs are handled by the star subcommand")
    t0 = perf_counter()
    result = run_experiment(cfg)
    report_path, csv_path = reporting.write_report(cfg, result, perf_counter() - t0, cfg.out)
    if not args.quiet:
        print(f"{cfg.experiment}: {'PASS' if result.passed else 'FAIL'}")
        for s in result.series:
            line = f"  series {s.name} [{s.norm_kind}]: {s.outcome}"
            if s.slope is not None:
                line += f", slope {s.slope:.3f}"
            print(line)
        print(f"report: {report_path}")
        print(f"csv: {csv_path}")
    return 0 if result.passed else 1


def _cmd_star(args, parser) -> int:
    cfg = _load_config(args, parser)
    if cfg.experiment != "star_table":
        raise ConfigError("experiment", "the star subcommand expects a star_table config")
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    g = cfg.g.realize(cfg.n, rng)
    series = star_truncated(f, g, cfg.order, Orientation(cfg.orientation))
    lines = []
    for i in range(cfg.order + 1):
        coeff = series.coefficient(i)
        lines.append(f"order {i}: {len(coeff.terms())} terms")
        for (p, q), c in coeff.terms():
            lines.append(f"  p={_format_index(p)} q={_format_index(q)} re={c.real!r} im={c.imag!r}")
    if not args.quiet:
        print(f"star table: orientation={cfg.orientation}, order={cfg.order}, n={cfg.n}")
        for line in lines:
            print(line)
    if args.out is not None or cfg.out != "reports":
        out = Path(args.out if args.out is not None else cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"star_{config_hash(cfg)[len('sha256:'):][:8]}"
        rows = ["order,p,q,re,im"]
        for i in range(cfg.order + 1):
            for (p, q), c in series.coefficient(i).terms():
                rows.append(f'{i},"{" ".join(map(str, p))}","{" ".join(map(str, q))}",{c.real!r},{c.imag!r}')
        path = out / f"{stem}.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        if not args.quiet:
            print(f"csv: {path}")
    return 0


def _cmd_assemble(args, parser) -> int:
    cfg = _load_config(args, parser)
    if cfg.f is None:
        raise ConfigError("f", "the assemble subcommand needs a function")
    if cfg.k_min < 2:
        raise ConfigError("k_min", "assemble uses k_min as the level; it must be >= 2")
    if cfg.k_min**cfg.n > DENSE_DIM_CAP:
        raise ConfigError("k_min", f"dimension {cfg.k_min**cfg.n} is above the dense cap {DENSE_DIM_CAP}")
    f = cfg.f.realize(cfg.n, np.random.default_rng(cfg.seed))
    spec = HilbertSpec(cfg.n, cfg.k_min, cfg.polarization)
    op = assemble_toeplitz(f, spec)
    out = Path(args.out if args.out is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"assemble_{config_hash(cfg)[len('sha256:'):][:8]}_k{cfg.k_min}"
    path = out / f"{stem}.csv"
    write_operator_csv(op, path)
    if not args.quiet:
        nnz = int(np.count_nonzero(op.entries))
        print(f"wrote {path} (dim {op.spec.dim}, nnz {nnz}, polarization {cfg.polarization})")
    return 0


def _cmd_check(args, parser) -> int:
    echo = None if args.quiet else print
    passed, results, wall = checks.run_all(echo=echo)
    out = Path(args.out) if args.out is not None else Path("reports")
    out.mkdir(parents=True, exist_ok=True)
    report = {
        "schema": "torusquant-check-v1",
        "criteria": [r.to_dict() for r in results],
        "passed": passed,
        "timestamp": reporting._now(),
        "wall_time_s": round(wall, 3),
    }
    report_path = out / "check_report.json"
    report_path.write_text(reporting.dump_json(report), encoding="utf-8")
    for r in results:
        for name, rows in r.csv_blocks.items():
            (out / f"criterion{r.cid}_{name}.csv").write_text(reporting.rows_to_csv(rows), encoding="utf-8")
    if not args.quiet:
        failed = [r.cid for r in results if not r.passed]
        if failed:
            print(f"FAIL: criteria {failed} failed ({wall:.1f}s)")
        else:
            print(f"PASS: all {len(results)} criteria passed ({wall:.1f}s)")
        print(f"report: {report_path}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "star": _cmd_star,
        "assemble": _cmd_assemble,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args, parser)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except L2RouteError as exc:
        print(f"l2 error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
