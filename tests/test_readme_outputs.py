"""The script that runs the README's commands and compares two runs."""

import importlib.util
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("readme_outputs", ROOT / "scripts" / "readme_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_children(script, monkeypatch, calls, statuses=None, peaks=None):
    """Replace starting and reaping a child: each Popen records (command,
    cwd, env) in ``calls``, and its os.wait4 returns the next of ``statuses``
    (0 by default) with the next of ``peaks`` as ru_maxrss in KiB."""
    statuses = iter(statuses or [])
    peaks = iter(peaks or [])

    class Child:
        def __init__(self, command, cwd, env):
            calls.append((command, cwd, env))
            self.pid = 1000 + len(calls)
            self.returncode = None

    def wait4(pid, options):
        assert options == 0
        return pid, next(statuses, 0), SimpleNamespace(ru_maxrss=next(peaks, 0))

    monkeypatch.setattr(script.subprocess, "Popen", Child)
    monkeypatch.setattr(script.os, "wait4", wait4)


def test_the_script_runs_the_commands_the_readme_lists_in_its_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("Ready-made configs live in `configs/`:", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = [re.sub(r"\s+#.*", "", line).split()[1:] for line in block.strip().splitlines()]
    assert [list(args) for _name, args in load_script().COMMANDS] == listed


def test_run_with_src_calls_the_cli_module_with_that_source_first(tmp_path, monkeypatch):
    script = load_script()
    calls = []
    fake_children(script, monkeypatch, calls)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    out, src = tmp_path / "out", tmp_path / "parent" / "src"
    assert script.main(["run", str(out), "--src", str(src)]) == 0
    assert len(calls) == len(script.COMMANDS)
    for (name, args), (command, cwd, env) in zip(script.COMMANDS, calls):
        assert command == [sys.executable, "-m", "torusquant.cli", *args, "--quiet", "--out", str(out / name)]
        assert cwd == script.ROOT and env["PYTHONPATH"] == os.pathsep.join([str(src), "elsewhere"])
    # without --src, the installed console script in this environment
    calls.clear()
    assert script.main(["run", str(out)]) == 0
    assert calls[-1] == (["torusquant", "check", "--quiet", "--out", str(out / "check")], script.ROOT, None)


def test_run_prints_the_wall_seconds_and_peak_memory_of_each_command(tmp_path, monkeypatch, capsys):
    script = load_script()
    clock = iter(range(2 * len(script.COMMANDS)))
    # command i peaks at 40 + i MiB, given in KiB as Linux does
    fake_children(script, monkeypatch, [], peaks=[1024 * (40 + i) for i in range(len(script.COMMANDS))])
    monkeypatch.setattr(script.time, "perf_counter", lambda: 0.25 * next(clock) ** 2)
    assert script.main(["run", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # command i starts at 0.25 (2i)^2 and ends at 0.25 (2i + 1)^2 seconds
    assert lines == [
        f"{' '.join(args)}: {i + 0.25:.2f} s, {40 + i} MiB" for i, (_name, args) in enumerate(script.COMMANDS)
    ]


def test_run_stops_at_the_first_command_that_exits_non_zero(tmp_path, monkeypatch, capsys):
    script = load_script()
    calls = []
    # the second child exits 3 (a wait status of 3 << 8)
    fake_children(script, monkeypatch, calls, statuses=[0, 3 << 8])
    assert script.main(["run", str(tmp_path)]) == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == f"{' '.join(script.COMMANDS[1][1])} exited 3\n"


def test_compare_names_the_files_that_differ(tmp_path, capsys):
    script = load_script()
    first, second = tmp_path / "first", tmp_path / "second"
    for root, wall in ((first, "1.5"), (second, "2.5")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "a.report.json").write_text(f'{{\n  "error": 1.0,\n  "wall_time_s": {wall}\n}}\n')
    assert script.main(["compare", str(first), str(second)]) == 0
    assert "1 files byte-identical" in capsys.readouterr().out
    (second / "run" / "a.report.json").write_text('{\n  "error": 2.0,\n  "wall_time_s": 1.5\n}\n')
    assert script.main(["compare", str(first), str(second)]) == 1
    assert "run/a.report.json" in capsys.readouterr().err
    (second / "run" / "extra.csv").write_text("k\n")
    assert script.main(["compare", str(first), str(second)]) == 1
    assert "different files" in capsys.readouterr().err


def test_compare_says_how_far_each_file_moved(tmp_path, capsys):
    script = load_script()
    first, second = tmp_path / "first", tmp_path / "second"
    error = 0.123456789
    for root, moved, outcome in ((first, error, "fit"), (second, error * (1 + 1e-12), "violation")):
        (root / "run").mkdir(parents=True)
        report = {"rows": [{"error": 2.5, "k": 8}, {"error": moved, "k": 16}], "series": [{"outcome": "fit"}]}
        (root / "run" / "floats.report.json").write_text(json.dumps(report, indent=2) + "\n")
        (root / "run" / "floats.csv").write_text(f"k,error,norm_kind\n8,2.5,l2\n16,{moved!r},l2\n")
        report["series"][0]["outcome"] = outcome
        (root / "run" / "string.report.json").write_text(json.dumps(report, indent=2) + "\n")
    assert script.main(["compare", str(first), str(second)]) == 1
    lines = {line.split(":", 1)[0].strip(): line for line in capsys.readouterr().err.splitlines()[1:]}
    for name, where in (("run/floats.report.json", "$.rows[1].error"), ("run/floats.csv", "line 3, column 2")):
        move = float(re.search(r"largest relative move (\S+) at (.*)$", lines[name]).group(1))
        assert 0.9e-12 <= move <= 1.1e-12 and lines[name].endswith(f"at {where}")
        assert "other difference" not in lines[name]
    assert lines["run/string.report.json"].endswith(
        'largest relative move 1e-12 at $.rows[1].error; first other difference: $.series[0].outcome: "fit" != "violation"'
    )


def test_compare_reads_the_numbers_inside_strings(tmp_path, capsys):
    # a float inside a string is a move with its place; a differing integer
    # keeps the string an other difference
    script = load_script()
    first, second = tmp_path / "first", tmp_path / "second"
    for root, error, steps in ((first, "4.847e-16", 8), (second, "4.578e-16", 16)):
        (root / "check").mkdir(parents=True)
        report = {"summary": f"k in {{8..256}}, worst relative error {error}", "note": f"{steps} Lanczos steps"}
        (root / "check" / "check_report.json").write_text(json.dumps(report, indent=2) + "\n")
    assert script.main(["compare", str(first), str(second)]) == 1
    line = capsys.readouterr().err.splitlines()[1]
    assert line.endswith(
        "largest relative move 0.0555 at $.summary, number 3; "
        'first other difference: $.note: "8 Lanczos steps" != "16 Lanczos steps"'
    )
