"""Run every command that README.md lists, or compare the outputs of two runs.

    python scripts/readme_outputs.py run OUT
    python scripts/readme_outputs.py compare FIRST SECOND

``run`` calls the installed ``torusquant`` console script once for each
command of COMMANDS, with ``--quiet --out OUT/<name>``, and stops at the
first one that exits non-zero.

``compare`` checks that the two directories hold the same files and that
every file is byte-identical once ``reporting.normalize_volatile`` has
blanked the timestamp and wall-time fields; it names the files that differ
and exits 1 if any do.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (output directory, command arguments): the README's list, in its order
COMMANDS = (
    *(
        (config, ("run", f"configs/{config}.json"))
        for config in (
            "product_random",
            "product_n2",
            "intertwine_random",
            "intertwine_n2",
            "intertwine_n2_order2",
            "trace_smooth",
            "trace_bandlimited",
            "riemann_smooth",
            "torus_relations",
            "norm_bound",
            "norm_bound_large_k",
        )
    ),
    ("star", ("star", "configs/star_table.json")),
    ("assemble", ("assemble", "configs/assemble_example.json")),
    ("check", ("check",)),
)


def run(out: Path) -> int:
    for name, args in COMMANDS:
        command = ["torusquant", *args, "--quiet", "--out", str(out / name)]
        done = subprocess.run(command, cwd=ROOT)
        if done.returncode != 0:
            print(f"{' '.join(args)} exited {done.returncode}", file=sys.stderr)
            return 1
    return 0


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def compare(first: Path, second: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from torusquant.reporting import normalize_volatile

    names = _files(first)
    if names != _files(second):
        print(f"the two runs wrote different files: {sorted(set(names) ^ set(_files(second)))}", file=sys.stderr)
        return 1
    differ = [
        name
        for name in names
        if normalize_volatile((first / name).read_text()) != normalize_volatile((second / name).read_text())
    ]
    if differ:
        print(f"files differ between two runs: {differ}", file=sys.stderr)
        return 1
    print(f"{len(names)} files byte-identical across two runs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run every README command into OUT")
    run_parser.add_argument("out", type=Path)
    compare_parser = commands.add_parser("compare", help="compare the outputs of two runs")
    compare_parser.add_argument("first", type=Path)
    compare_parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out.resolve())
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
