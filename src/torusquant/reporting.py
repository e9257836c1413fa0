"""Report serialization: JSON reports and CSV sweep dumps.

Reports are byte-stable across runs of the same configuration on the same
platform, except for exactly two volatile fields: ``timestamp`` and
``wall_time_s``.  Comparisons should normalize those two lines.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .analysis import ConvergenceReport, SweepPoint
from .config import ExperimentConfig, config_hash

CSV_HEADER = "k,hbar,error,norm_kind"

VOLATILE_FIELDS = ("timestamp", "wall_time_s")


def rows_to_csv(rows: Iterable[SweepPoint]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.k, r.norm_kind)):
        lines.append(f"{r.k},{float(r.hbar)!r},{float(r.error)!r},{r.norm_kind}")
    return "\n".join(lines) + "\n"


def report_dict(cfg: ExperimentConfig, result: ConvergenceReport, wall_time_s: float) -> dict:
    return {
        **result.to_dict(),
        "schema": "torusquant-report-v1",
        "experiment": cfg.experiment,
        "config": cfg.normalized(),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "timestamp": _now(),
        "wall_time_s": round(wall_time_s, 3),
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def normalize_volatile(text: str) -> str:
    """Blank the volatile report fields so byte comparisons are meaningful."""
    out = []
    for line in text.splitlines():
        stripped = line.lstrip()
        if any(stripped.startswith(f'"{name}":') for name in VOLATILE_FIELDS):
            indent = line[: len(line) - len(stripped)]
            name = stripped.split(":", 1)[0]
            trailer = "," if stripped.rstrip().endswith(",") else ""
            out.append(f"{indent}{name}: null{trailer}")
        else:
            out.append(line)
    return "\n".join(out)


def file_stem(cfg: ExperimentConfig, prefix: str) -> str:
    """``<prefix>_<hash8>``: the first eight hex digits of the config hash,
    which every file a subcommand writes for a config is named by."""
    return f"{prefix}_{config_hash(cfg)[len('sha256:'):][:8]}"


def write_report(cfg: ExperimentConfig, result: ConvergenceReport, wall_time_s: float, out_dir) -> tuple[Path, Path]:
    """Write <stem>.report.json and <stem>.csv; returns both paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = file_stem(cfg, cfg.experiment)
    report_path = out / f"{stem}.report.json"
    csv_path = out / f"{stem}.csv"
    report_path.write_text(dump_json(report_dict(cfg, result, wall_time_s)), encoding="utf-8")
    csv_path.write_text(rows_to_csv(result.rows), encoding="utf-8")
    return report_path, csv_path


def _now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
