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
from .config import ConfigError, _as_int, check_pair_product, parse_config
from .quantize import DENSE_DIM_CAP, HilbertSpec, operator_to_csv, toeplitz_diagonals
from .starprod import Orientation, star_truncated


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="torusquant", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p, needs_config=True):
        # check runs fixed seeded corpora: it takes neither a config nor a seed
        if needs_config:
            p.add_argument("config_path", help="path to a JSON config")
            p.add_argument("--seed", type=int, metavar="U64", help="seed override")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
        return p

    add_config_args(sub.add_parser("run", help="run a sweep experiment"))
    add_config_args(sub.add_parser("star", help="print a truncated star product table"))
    add_config_args(sub.add_parser("assemble", help="dump a Toeplitz matrix as CSV"))
    add_config_args(sub.add_parser("check", help="run the acceptance suite"), needs_config=False)
    return parser


def _load_config(args):
    cfg = parse_config(Path(args.config_path))
    overrides = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None:
        overrides["seed"] = _as_int(args.seed, "seed", minimum=0)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _output_dir(out: str | None) -> Path:
    """``out`` as a path, ``reports`` when None, checked before any work and
    created by none: a ConfigError on ``out`` when its first existing part is
    not a directory."""
    path = Path("reports" if out is None else out)
    first = next(part for part in (path, *path.parents) if part.is_symlink() or part.exists())
    if not first.is_dir():
        raise ConfigError("out", f"{first} exists and is not a directory")
    return path


def _format_index(vec) -> str:
    return "[" + " ".join(str(v) for v in vec) + "]"


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _output_dir(cfg.out)
    t0 = perf_counter()
    result = run_experiment(cfg)
    report = reporting.with_volatile(reporting.report_dict(cfg, result), perf_counter() - t0)
    stem = reporting.file_stem(cfg, cfg.experiment)
    texts = {
        f"{stem}.report.json": reporting.dump_json(report),
        f"{stem}.csv": reporting.rows_to_csv(result.rows),
    }
    report_path, csv_path = reporting.write(out, texts)
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


def _cmd_star(args) -> int:
    cfg = _load_config(args)
    if cfg.kind.sweep:
        raise ConfigError("experiment", "the star subcommand expects a star_table config")
    # the CSV is written only when an output directory is asked for, by --out or the config
    out = None if cfg.out is None else _output_dir(cfg.out)
    f, g = cfg.symbols()
    check_pair_product(cfg, f, g)
    series = star_truncated(f, g, cfg.order, Orientation(cfg.orientation))
    lines, rows = [], ["order,p,q,re,im"]
    for i in range(cfg.order + 1):
        terms = series.coefficient(i).terms()
        lines.append(f"order {i}: {len(terms)} terms")
        for (p, q), c in terms:
            lines.append(f"  p={_format_index(p)} q={_format_index(q)} re={c.real!r} im={c.imag!r}")
            rows.append(f'{i},"{" ".join(map(str, p))}","{" ".join(map(str, q))}",{c.real!r},{c.imag!r}')
    if not args.quiet:
        print(f"star table: orientation={cfg.orientation}, order={cfg.order}, n={cfg.n}")
        for line in lines:
            print(line)
    if out is not None:
        name = f"{reporting.file_stem(cfg, 'star')}.csv"
        (path,) = reporting.write(out, {name: "\n".join(rows) + "\n"})
        if not args.quiet:
            print(f"csv: {path}")
    return 0


def _cmd_assemble(args) -> int:
    cfg = _load_config(args)
    if not cfg.kind.sweep:
        raise ConfigError("experiment", "the assemble subcommand expects a sweep config, whose k_min is the level")
    if cfg.f is None:
        raise ConfigError("f", "the assemble subcommand needs a function")
    if cfg.k_min**cfg.n > DENSE_DIM_CAP:
        raise ConfigError("k_min", f"dimension {cfg.k_min**cfg.n} is above the dense cap {DENSE_DIM_CAP}")
    out = _output_dir(cfg.out)
    f = next(cfg.symbols())
    spec = HilbertSpec(cfg.n, cfg.k_min, cfg.polarization)
    op = toeplitz_diagonals(f, spec)
    name = f"{reporting.file_stem(cfg, 'assemble')}_k{cfg.k_min}.csv"
    (path,) = reporting.write(out, {name: operator_to_csv(op)})
    if not args.quiet:
        nnz = int(np.count_nonzero(op.values))
        print(f"wrote {path} (dim {op.spec.dim}, nnz {nnz}, polarization {cfg.polarization})")
    return 0


def _cmd_check(args) -> int:
    out = _output_dir(args.out)
    echo = None if args.quiet else print
    passed, results, wall = checks.run_all(echo=echo)
    criteria = [r.to_dict() for r in results]
    report = {"schema": "torusquant-check-v1", "criteria": criteria, "passed": passed}
    texts = {"check_report.json": reporting.dump_json(reporting.with_volatile(report, wall))}
    for r in results:
        for name, rows in r.csv_blocks.items():
            texts[f"criterion{r.cid}_{name}.csv"] = reporting.rows_to_csv(rows)
    report_path, *_ = reporting.write(out, texts)
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
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except L2RouteError as exc:
        print(f"l2 error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
