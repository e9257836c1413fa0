"""Run one torusquant benchmark workload and print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout.  The run sets up the
workload, runs one warm-up round, then repeats whole rounds of its
operations until ``--seconds`` have passed (at least three), checks every
output, and prints as its last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics (medians over rounds, with round times in
reference seconds: scaled by a fixed calibration timed after every
operation, so that a host that runs slower for a while moves them less);
``--trace 1``
alternates untraced and traced rounds (at least two of each) and reports
the per-layer metrics of the traced ones plus the tracing overhead.  Details, the environment and
the spans go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep_dense", "symbol_algebra", "acceptance")
# Every run starts with a warm-up round (first-touch page faults, lazy caches
# and the BLAS thread pool make it slower); it is checked and counted but not
# timed into the metrics.  Then untraced runs measure at least three rounds,
# traced runs alternate untraced and traced rounds, at least two of each.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
SETUP_PROBES = 7
SETUP_WARMUP = 1  # first probe fills the file cache and is not counted
SETUP_CALIBRATIONS = 5  # per probe, after the set-up; their median scales it
BLAS_THREADS = 2  # capped at the CPUs this process may use
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}
# Round times are reported in reference seconds: measured seconds times a
# reference time over the median time of a calibration run after every
# operation of the round (set-up times likewise, with a calibration run in
# each set-up probe).  On a shared host the speed of the CPUs drifts by
# tens of percent over seconds to minutes; the calibration, a fixed set of
# complex matrix products, slows down with it, and nothing in the program
# changes it.  It runs on the threads the workload's operations run on:
# where they call BLAS, products large enough that OpenBLAS splits them over
# its threads; where they do not, products small enough that OpenBLAS keeps
# them on the calling thread, so that its worker threads stay asleep and do
# not spin into the CPU time of the next operation.  Each reference time is
# the calibration's median on the machine the reference figures in
# README.md come from, so the scale stays close to seconds there.
# (matrix dimension, products per calibration, reference seconds)
CALIBRATION_THREADED = (192, 8, 0.006)
CALIBRATION_SINGLE = (32, 600, 0.0065)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print the seconds it took and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def environment() -> dict:
    """nproc, Python, numpy, BLAS and its thread count, and the source."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        lines = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "torusquant").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(np),
        "blas_threads_requested": int(os.environ[BLAS_VARS[0]]),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _openblas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def probe_setup(args) -> tuple[float, float]:
    """Set-up seconds of the workload in a fresh interpreter, and the median
    single-thread calibration timed there right after it."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT,
    )
    measured, calibration_s = done.stdout.split()[-2:]
    return float(measured), float(calibration_s)


def calibration(dim: int, products: int):
    """A function timing one calibration: ``products`` products of a fixed
    complex ``dim``-square matrix with itself."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    def calibrate() -> float:
        t0 = perf_counter()
        for _ in range(products):
            matrix @ matrix
        return perf_counter() - t0

    return calibrate


class Round:
    """Measured seconds of one round and the calibrations timed in it."""

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.wall = self.cpu = 0.0
        self.calibrations: list[float] = []

    def speed_factor(self) -> float:
        """Reference seconds per measured second in this round."""
        return self.reference_s / median(self.calibrations)


def run_round(ops, op_seconds, calibrate, reference_s):
    """Call every op once, each followed by a calibration; return the
    outputs and the ``Round``.  Only the calls are timed into it."""
    outputs = []
    measured = Round(reference_s)
    for op in ops:
        t0, c0 = perf_counter(), process_time()
        try:
            outputs.append(op.call())
        except Exception as exc:  # the op failed; the run goes on and counts it
            traceback.print_exc()
            outputs.append(exc)
        wall, cpu = perf_counter() - t0, process_time() - c0
        op_seconds[op.name].append(wall)
        measured.wall += wall
        measured.cpu += cpu
        measured.calibrations.append(calibrate())
    return outputs, measured


def judge(op, output):
    if isinstance(output, Exception):
        return [(op.name, True, [])]
    return op.judge(output)


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "torusquant" / "__init__.py").is_file():
        print(f"error: no torusquant package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.setup_probe:
        workloads.build(args.workload, args.seed, ROOT, OUT)
        measured = perf_counter() - start
        calibrate = calibration(*CALIBRATION_SINGLE[:2])
        calibrate()  # the first product pays for lazy BLAS set-up
        print(repr(measured), repr(median(calibrate() for _ in range(SETUP_CALIBRATIONS))))
        return 0

    from tracing import PER_LAYER, Tracer

    probes = [probe_setup(args) for _ in range(SETUP_WARMUP + SETUP_PROBES)][SETUP_WARMUP:]
    setup_samples = [measured * CALIBRATION_SINGLE[2] / calibration_s for measured, calibration_s in probes]
    workload = workloads.build(args.workload, args.seed, ROOT, OUT)
    env = environment()
    tracer = Tracer() if args.trace else None
    dim, products, reference_s = CALIBRATION_THREADED if workload.calls_blas else CALIBRATION_SINGLE
    calibrate = calibration(dim, products)
    op_seconds = {op.name: [] for op in workload.ops}
    untraced: list[Round] = []
    traced_rounds: list[Round] = []
    attempted = failed = 0
    problems: list[str] = []
    rounds = 0  # the warm-up round included
    while True:
        warmup = rounds == 0
        traced = tracer is not None and not warmup and rounds % 2 == 0
        workload.begin_round()
        if traced:
            tracer.begin_round()
        with tracer.installed() if traced else nullcontext():
            outputs, measured = run_round(workload.ops, op_seconds, calibrate, reference_s)
        if traced:
            traced_rounds.append(measured)
        elif not warmup:
            untraced.append(measured)
        for op, output in zip(workload.ops, outputs):
            for name, op_failed, op_problems in judge(op, output):
                attempted += 1
                if not op_failed:
                    problems += op_problems
                    continue
                failed += 1
                if rounds == 0:
                    print(f"operation failed: {name}", file=sys.stderr)
        workload.end_round()
        if warmup:
            began = perf_counter()
        rounds += 1
        enough = MIN_TRACED_ROUNDS if tracer is not None else MIN_ROUNDS
        if rounds - 1 >= enough and perf_counter() - began >= args.seconds:
            break

    walls = [r.wall * r.speed_factor() for r in untraced]
    if tracer is None:
        values = {
            "setup_s": median(setup_samples),
            "wall_s": median(walls),
            "cpu_s": median([r.cpu * r.speed_factor() for r in untraced]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        per_round = [tracer.round_metrics(i) for i in range(len(tracer.rounds))]
        values = {name: median([r[name] for r in per_round]) for name in per_round[0]}
        values["trace.overhead_s"] = median([r.wall * r.speed_factor() for r in traced_rounds]) - median(walls)
        units = PER_LAYER
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": env,
        "rounds": rounds,
        "untraced_walls_s": [r.wall for r in untraced],
        "untraced_cpus_s": [r.cpu for r in untraced],
        "untraced_reference_walls_s": walls,
        "traced_walls_s": [r.wall for r in traced_rounds],
        "calibration_median_s": [median(r.calibrations) for r in untraced + traced_rounds],
        "calibration": {"dim": dim, "products": products, "reference_s": reference_s},
        "setup_samples_s": [measured for measured, _ in probes],
        "setup_calibrations_s": [calibration_s for _, calibration_s in probes],
        "op_median_s": {name: median(times) for name, times in op_seconds.items()},
        "notes": workload.notes,
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.npz")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
