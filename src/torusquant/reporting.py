"""Report serialization, and ``write``, the one writer of every output file.

Reports are byte-stable across runs of the same configuration on the same
platform, except for exactly two volatile fields, ``timestamp`` and
``wall_time_s``, which ``with_volatile`` adds and ``normalize_volatile`` blanks.
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


def report_dict(cfg: ExperimentConfig, result: ConvergenceReport) -> dict:
    return {
        **result.to_dict(),
        "schema": "torusquant-report-v1",
        "config": cfg.normalized(),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
    }


def dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def with_volatile(body: dict, wall_time_s: float) -> dict:
    """``body`` with the volatile fields added: the UTC time now, and ``wall_time_s`` to the ms."""
    timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    return {**body, "timestamp": timestamp, "wall_time_s": round(wall_time_s, 3)}


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


def write(out_dir, texts: dict[str, str]) -> list[Path]:
    """Create ``out_dir`` and write each text of ``texts`` as UTF-8 under its
    file name there; returns the paths in the order of ``texts``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in texts]
    for path, text in zip(paths, texts.values()):
        path.write_text(text, encoding="utf-8")
    return paths
