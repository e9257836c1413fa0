"""The script that runs the README's commands and compares two runs."""

import importlib.util
import json
import os
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def readme_with(tmp_path, block: str) -> Path:
    """A README.md in tmp_path whose line 3 is the heading of the command
    block and whose block (``block``) starts on line 5."""
    readme = tmp_path / "README.md"
    text = f"# title\n\nReady-made configs live in `configs/`:\n\n{block}## Configuration\n"
    readme.write_text(text, encoding="utf-8")
    return readme


def test_the_commands_are_read_off_the_readme_block(tmp_path):
    readme = readme_with(
        tmp_path,
        "```sh\n"
        "torusquant run configs/a.json    # a comment\n"
        "torusquant star configs/b.json\n"
        "torusquant check                 # with # inside\n"
        "```\n",
    )
    assert load_script().commands(readme) == [
        ("a", ("run", "configs/a.json")),
        ("star", ("star", "configs/b.json")),
        ("check", ("check",)),
    ]


@pytest.mark.parametrize(
    "block, message",
    [
        ("Some prose, no block.\n\n", "no block matches"),
        ("```sh\n```\n", "line 5: the ```sh block lists no command"),
        (
            "```sh\ntorusquant check\npython -m torusquant.cli check\n```\n",
            "line 7: 'python -m torusquant.cli check' is not a command `torusquant <args>`",
        ),
        ("```sh\ntorusquant  # no arguments\n```\n", "line 6: 'torusquant  # no arguments' is not a command"),
        (
            "```sh\ntorusquant run configs/a.json\ntorusquant check\ntorusquant run other/a.json  # same stem\n```\n",
            "line 8: 'torusquant run other/a.json  # same stem' writes under a, as line 6 does",
        ),
    ],
    ids=["missing", "empty", "not-torusquant", "no-arguments", "same-name"],
)
def test_run_refuses_a_faulty_readme_block_before_running_anything(tmp_path, monkeypatch, block, message):
    script = load_script()
    readme = readme_with(tmp_path, block)
    monkeypatch.setattr(script.commands, "__defaults__", (readme,))
    calls = []
    fake_children(script, monkeypatch, calls)
    with pytest.raises(SystemExit) as info:
        script.main(["run", str(tmp_path / "out")])
    # a message is a non-zero exit status; it names the README and the line
    assert info.value.code.startswith(f"{readme}") and message in info.value.code
    assert calls == []


def test_run_with_src_calls_the_cli_module_with_that_source_first(tmp_path, monkeypatch):
    script = load_script()
    calls = []
    fake_children(script, monkeypatch, calls)
    monkeypatch.setenv("PYTHONPATH", "elsewhere")
    out, src = tmp_path / "out", tmp_path / "parent" / "src"
    assert script.main(["run", str(out), "--src", str(src)]) == 0
    assert len(calls) == len(script.commands())
    for (name, args), (command, cwd, env) in zip(script.commands(), calls):
        assert command == [sys.executable, "-m", "torusquant.cli", *args, "--quiet", "--out", str(out / name)]
        assert cwd == script.ROOT and env["PYTHONPATH"] == os.pathsep.join([str(src), "elsewhere"])
    # without --src, the installed console script in this environment
    calls.clear()
    assert script.main(["run", str(out)]) == 0
    assert calls[-1] == (["torusquant", "check", "--quiet", "--out", str(out / "check")], script.ROOT, None)


def test_run_prints_the_wall_seconds_and_peak_memory_of_each_command(tmp_path, monkeypatch, capsys):
    script = load_script()
    listed = script.commands()
    clock = iter(range(2 * len(listed)))
    # command i peaks at 40 + i MiB, given in KiB as Linux does
    fake_children(script, monkeypatch, [], peaks=[1024 * (40 + i) for i in range(len(listed))])
    monkeypatch.setattr(script.time, "perf_counter", lambda: 0.25 * next(clock) ** 2)
    assert script.main(["run", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    # command i starts at 0.25 (2i)^2 and ends at 0.25 (2i + 1)^2 seconds
    assert lines == [
        f"{' '.join(args)}: {i + 0.25:.2f} s, {40 + i} MiB" for i, (_name, args) in enumerate(listed)
    ]


def test_run_stops_at_the_first_command_that_exits_non_zero(tmp_path, monkeypatch, capsys):
    script = load_script()
    calls = []
    # the second child exits 3 (a wait status of 3 << 8)
    fake_children(script, monkeypatch, calls, statuses=[0, 3 << 8])
    assert script.main(["run", str(tmp_path)]) == 1
    assert len(calls) == 2
    assert capsys.readouterr().err == f"{' '.join(script.commands()[1][1])} exited 3\n"


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
