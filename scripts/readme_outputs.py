"""Run every command that README.md lists, or compare the outputs of two runs.

    python scripts/readme_outputs.py run OUT [--src DIR]
    python scripts/readme_outputs.py compare FIRST SECOND

``run`` calls the installed ``torusquant`` console script once for each
command that README.md lists (``commands``), with ``--quiet --out
OUT/<name>``, and stops at the first one that exits non-zero.  It prints one
line per command with its wall seconds and its peak resident memory
(``ru_maxrss`` of the child as ``os.wait4`` reaps it, KiB on Linux), so a CI
log shows the runtimes and memory that README.md quotes.  With ``--src
DIR`` it calls ``python -m torusquant.cli`` with DIR first on PYTHONPATH
instead, so that the package in another checkout's ``src/`` (a parent
commit, say) writes the outputs, with no install:

    python scripts/readme_outputs.py run /tmp/parent --src ../parent/src
    python scripts/readme_outputs.py run /tmp/change --src src
    python scripts/readme_outputs.py compare /tmp/parent /tmp/change

``compare`` checks that the two directories hold the same files and that
every file is byte-identical once ``reporting.normalize_volatile`` has
blanked the timestamp and wall-time fields; it names the files that differ
and exits 1 if any do.  For each file that differs it also says how far it
moved: the largest relative move among its numbers (JSON floats, in the
CSV files cells that read as numbers on both sides, and decimals inside
strings that agree apart from them, such as a check summary's "worst
relative error 4.847e-16") with where it is, and the first difference that
is not such a number (a key, a string, an integer, a line), if there is
one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a number as reports print it inside a string; a decimal point or an
# exponent makes it a float
NUMBER = re.compile(r"(-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)")

BLOCK = re.compile(r"^Ready-made configs live in `configs/`:\n\n```sh\n(.*?)^```", re.M | re.S)


def commands(readme: Path = ROOT / "README.md") -> list[tuple[str, tuple[str, ...]]]:
    """(output directory, arguments) of each ``torusquant <args>  # comment`` line of BLOCK,
    in order, a ``run`` under its config's stem; a fault exits naming the README line."""
    text = readme.read_text(encoding="utf-8")
    if (block := BLOCK.search(text)) is None:
        sys.exit(f"{readme}: no block matches {BLOCK.pattern!r}")
    first, found = text.count("\n", 0, block.start(1)) + 1, {}
    for number, line in enumerate(block.group(1).splitlines(), start=first):
        words = line.split("#", 1)[0].split()
        if words[:1] != ["torusquant"] or len(words) < 2:
            sys.exit(f"{readme} line {number}: {line!r} is not a command `torusquant <args>`")
        name = Path(words[2]).stem if words[1] == "run" and len(words) > 2 else words[1]
        if name in found:
            sys.exit(f"{readme} line {number}: {line!r} writes under {name}, as line {found[name][0]} does")
        found[name] = number, tuple(words[1:])
    if not found:
        sys.exit(f"{readme} line {first - 1}: the ```sh block lists no command")
    return [(name, args) for name, (_number, args) in found.items()]


def invocation(args, out: Path, src: Path | None) -> tuple[list[str], dict | None]:
    """(command line, environment) that runs the CLI with ``args`` into
    ``out``: the installed console script in this environment, or with
    ``src`` the CLI module with ``src`` first on PYTHONPATH."""
    tail = [*args, "--quiet", "--out", str(out)]
    if src is None:
        return ["torusquant", *tail], None
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return [sys.executable, "-m", "torusquant.cli", *tail], {**os.environ, "PYTHONPATH": path}


def run(out: Path, src: Path | None = None) -> int:
    for name, args in commands():
        command, env = invocation(args, out / name, src)
        label, began = " ".join(args), time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, env=env)
        _pid, status, usage = os.wait4(child.pid, 0)
        # reaped here: the exit code is set so that Popen does not wait for it
        child.returncode = code = os.waitstatus_to_exitcode(status)
        print(f"{label}: {time.perf_counter() - began:.2f} s, {usage.ru_maxrss / 1024:.0f} MiB", flush=True)
        if code != 0:
            print(f"{label} exited {code}", file=sys.stderr)
            return 1
    return 0


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def _float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _string_moves(a: str, b: str, where: str) -> list | None:
    """(relative move, place) for each number that differs between two
    strings, or None unless the strings agree apart from numbers and every
    number that differs is a float."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    moves = []
    for i, (u, v) in enumerate(zip(parts_a[1::2], parts_b[1::2]), start=1):
        if u != v:
            if not any(c in u + v for c in ".eE"):
                return None
            moves.append((_relative(float(u), float(v)), f"{where}, number {i}"))
    return moves


def _walk(a, b, path: str, moves: list, others: list) -> None:
    """Append (relative move, path) for every pair of JSON numbers of which
    one is a float, and a description of every other difference."""
    if any(isinstance(x, float) for x in (a, b)) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)
    ):
        moves.append((_relative(float(a), float(b)), path))
    elif isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key in a and key in b:
                _walk(a[key], b[key], f"{path}.{key}", moves, others)
            else:
                others.append(f"{path}.{key} only in the {'first' if key in a else 'second'}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", moves, others)
    elif isinstance(a, str) and isinstance(b, str) and (inside := _string_moves(a, b, path)) is not None:
        moves.extend(inside)
    elif a != b:
        others.append(f"{path}: {json.dumps(a)} != {json.dumps(b)}")


def _csv_moves(a: str, b: str, moves: list, others: list) -> None:
    """``_walk`` for comma-separated lines, cell by cell."""
    rows_a, rows_b = list(csv.reader(a.splitlines())), list(csv.reader(b.splitlines()))
    for line, (x, y) in enumerate(zip(rows_a, rows_b), start=1):
        if len(x) != len(y):
            others.append(f"line {line}: {','.join(x)!r} != {','.join(y)!r}")
            continue
        for column, (u, v) in enumerate(zip(x, y), start=1):
            fu, fv, where = _float(u), _float(v), f"line {line}, column {column}"
            if fu is not None and fv is not None:
                moves.append((_relative(fu, fv), where))
            elif (inside := _string_moves(u, v, where)) is not None:
                moves.extend(inside)
            else:
                others.append(f"{where}: {u!r} != {v!r}")
    if len(rows_a) != len(rows_b):
        others.append(f"{len(rows_a)} lines against {len(rows_b)}")


def describe_move(name: str, a: str, b: str) -> str:
    """How far the normalized text ``b`` of file ``name`` moved from ``a``:
    the largest relative move among its numbers, and the first other
    difference, if any."""
    moves: list = []
    others: list = []
    if name.endswith(".json"):
        _walk(json.loads(a), json.loads(b), "$", moves, others)
    else:
        _csv_moves(a, b, moves, others)
    move, where = max(moves, default=(0.0, None))
    text = f"{name}: largest relative move {move:.3g}" + (f" at {where}" if move else "")
    if others:
        text += f"; first other difference: {others[0]}"
    return text


def compare(first: Path, second: Path) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from torusquant.reporting import normalize_volatile

    names = _files(first)
    if names != _files(second):
        print(f"the two runs wrote different files: {sorted(set(names) ^ set(_files(second)))}", file=sys.stderr)
        return 1
    texts = {name: (normalize_volatile((first / name).read_text()), normalize_volatile((second / name).read_text()))
             for name in names}
    differ = [name for name in names if texts[name][0] != texts[name][1]]
    if differ:
        print(f"files differ between two runs: {differ}", file=sys.stderr)
        for name in differ:
            print(f"  {describe_move(name, *texts[name])}", file=sys.stderr)
        return 1
    print(f"{len(names)} files byte-identical across two runs")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subcommands = parser.add_subparsers(dest="command", required=True)
    run_parser = subcommands.add_parser("run", help="run every README command into OUT")
    run_parser.add_argument("out", type=Path)
    run_parser.add_argument("--src", type=Path, help="run python -m torusquant.cli with DIR first on PYTHONPATH")
    compare_parser = subcommands.add_parser("compare", help="compare the outputs of two runs")
    compare_parser.add_argument("first", type=Path)
    compare_parser.add_argument("second", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out.resolve(), args.src and args.src.resolve())
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
