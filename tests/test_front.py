"""The command line as a user runs it: ``python -m torsionpoly.cli`` in a
fresh process, answered from a cache in a temporary directory."""

import compileall
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import torsionpoly
from torsionpoly import cli, front

SRC = Path(torsionpoly.__file__).resolve().parents[1]
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
ENGINE = {"mpmath", "torsionpoly.polys", "torsionpoly.pipelines", "torsionpoly.records"}


def run_process(argv, cache, src=SRC, importtime=False):
    """(exit status, stdout, stderr, imported modules) of one CLI process;
    the modules are listed only with importtime."""
    env = dict(os.environ, PYTHONPATH=str(src), TORSIONPOLY_CACHE=str(cache))
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, "-m", "torsionpoly.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    modules, err = set(), []
    for line in proc.stderr.splitlines(keepends=True):
        if importtime and line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "".join(err), modules


def run_in_process(capsys, argv, cache, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(cache))
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stamps(cache):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in cache.iterdir()}


def test_a_hit_imports_no_engine_module(tmp_path):
    # the entry is the printed report itself, so not even a JSON hit reads json
    for fmt in ("text", "json"):
        argv = ("--format", fmt, "eliminate", "--knot", "5_2")
        code, miss, _, loaded = run_process(argv, tmp_path, importtime=True)
        assert code == 0 and ENGINE <= loaded
        code, hit, err, loaded = run_process(argv, tmp_path, importtime=True)
        assert (code, hit, err) == (0, miss, "")
        assert not ENGINE & loaded
        assert not {m for m in loaded if m.split(".")[0] == "json"}
        assert {m for m in loaded if m.startswith("torsionpoly")} \
            == {"torsionpoly", "torsionpoly.front"}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("eliminate", "--knot", "5_2"),
    ("rho0", "--curve", "mu", "--knot", "4_1"),
    ("membership", "--knot", "5_2"),
], ids=["eliminate-5_2", "rho0-mu-4_1", "membership-5_2"])
def test_a_hit_prints_what_the_engine_printed(capsys, monkeypatch, tmp_path, argv, fmt):
    argv = ("--format", fmt, *argv)
    code, fresh, _ = run_in_process(capsys, argv, tmp_path, monkeypatch)
    assert code == 0
    filled = stamps(tmp_path)
    assert run_process(argv, tmp_path)[:3] == (0, fresh, "")
    assert stamps(tmp_path) == filled


def test_a_source_edit_turns_a_hit_into_a_miss(tmp_path):
    src, cache = tmp_path / "src", tmp_path / "cache"
    shutil.copytree(SRC / "torsionpoly", src / "torsionpoly",
                    ignore=shutil.ignore_patterns("__pycache__"))
    argv = ("eliminate", "--knot", "4_1")
    code, fresh, _, _ = run_process(argv, cache, src)
    assert code == 0
    filled = stamps(cache)
    # bytecode beside the sources is not source
    assert compileall.compile_dir(src / "torsionpoly", quiet=1)

    def hit():
        code, out, _, loaded = run_process(argv, cache, src, importtime=True)
        assert (code, out) == (0, fresh)
        return "torsionpoly.pipelines" not in loaded
    assert hit() and stamps(cache) == filled
    with open(src / "torsionpoly" / "polys.py", "a") as fh:
        fh.write("# edited\n")
    assert not hit() and stamps(cache) != filled
    refilled = stamps(cache)
    assert hit() and stamps(cache) == refilled


@pytest.mark.parametrize("argv", [
    ("eliminate", "--knot", "9_9"),
    ("torsion", "--knot", "{dir}", "--trace", "2.05"),
    ("--tolerance", "inf", "rho0", "--knot", "4_1"),
], ids=["unknown-knot", "directory", "tolerance-inf"])
def test_errors_match_the_in_process_cli(capsys, monkeypatch, tmp_path, argv):
    argv = tuple(a.format(dir=tmp_path) for a in argv)
    expected = run_in_process(capsys, argv, tmp_path, monkeypatch)
    assert expected[0] == 2 and expected[1] == "" and expected[2].startswith("error: ")
    assert run_process(argv, tmp_path)[:3] == expected


def test_importing_cli_loads_every_traced_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {f"torsionpoly.{m}" for table in (tracing.SPANNED, tracing.COUNTED)
              for m in table}
    probe = ("import sys, torsionpoly.cli; "
             "print(*sorted(m for m in sys.modules if m.startswith('torsionpoly')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert traced <= set(proc.stdout.split())


def test_one_parser_serves_every_call_in_a_process(capsys):
    """The front builds its parser once per process. Parsing leaves nothing
    in it, so a run after another, or after an argparse error, prints what
    a freshly built parser prints."""
    runs = [("rho0", "--knot", "4_1", "--curve", "mu"),
            ("rho0", "--knot", "4_1"),
            ("rho0", "--knot", "4_1", "--curve", "nu"),
            ("--format", "text", "rho0", "--knot", "4_1")]

    def run(argv):
        try:
            code = front.main(["--no-cache", *argv])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    shared = [run(argv) for argv in runs]
    assert front.build_parser() is front.build_parser()
    fresh = []
    for argv in runs:
        front.build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in shared] == [0, 0, 2, 0]
    assert "invalid choice: 'nu'" in shared[2][2]
    assert shared == fresh


def test_command_lines_that_join_alike_have_their_own_entries(capsys, monkeypatch,
                                                             tmp_path):
    """`--knot "x --curve mu"` and `--knot x --curve mu` join, word by word,
    to the same string; the echo quotes each argument, so the two command
    lines have their own digests and neither is served the other's report."""
    record = front.bundled_record_text("4_1")
    for name in ("x", "x --curve mu"):
        (tmp_path / name).write_text(record)
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "cache"
    code, quoted, _ = run_in_process(capsys, ("rho0", "--knot", "x --curve mu"),
                                     cache, monkeypatch)
    assert code == 0
    assert "command = torsionpoly rho0 --knot 'x --curve mu'\n" in quoted
    assert "curve = lambda\n" in quoted
    code, plain, _ = run_in_process(capsys, ("rho0", "--knot", "x", "--curve", "mu"),
                                    cache, monkeypatch)
    assert code == 0
    assert "command = torsionpoly rho0 --knot x --curve mu\n" in plain
    assert "curve = mu\n" in plain and "value = 0.0 + 0.866025403784i\n" in plain
    assert len(list(cache.iterdir())) == 2
