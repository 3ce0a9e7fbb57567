"""Smoke runs of the sweeps in scripts/ at tiny sizes."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SRC = SCRIPTS.parent / "src"


def load(name):
    spec = importlib.util.spec_from_file_location(f"cbforms_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_moment_gap(capsys):
    load("moment_gap").main(["--samples", "2", "--max-degree", "3", "--max-m", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["d", "m", "C_dm", "mean", "median", "max"]
    cells = [line.split() for line in lines[1:13]]
    assert [(int(c[0]), int(c[1])) for c in cells] == [(d, m) for d in (1, 2, 3)
                                                       for m in (1, 2, 3, 4)]
    # the first moment always saturates the bound
    assert all(float(c[3]) == 1.0 for c in cells if c[1] == "1")
    assert all(0.0 < float(c[5]) <= 1.0 for c in cells)
    assert lines[-1].startswith("24 samples")


def test_witness_sweep(capsys, tmp_path):
    out = tmp_path / "witness.csv"
    module = load("witness_sweep")
    module.main(["--forms", "1", "--schedule", "8", "--trials", "8", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == list(module.COLUMNS)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # three address forms (scalar phase, sign baseline, polar) and one random form
    assert len(rows) == len(lines) - 1 == 3 * 3 + 2
    assert {r["method"] for r in rows} == {"scalar-phase", "sign-baseline", "polar"}


def test_simulate_sweep(capsys, tmp_path):
    out = tmp_path / "simulate.csv"
    module = load("simulate_sweep")
    module.main(["--circuits", "1", "--budgets", "1", "2", "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == list(module.COLUMNS)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    # Forrelation, the address form and one random circuit at two budgets each
    assert len(rows) == len(lines) - 1 == 3 * 2
    assert [r["budget"] for r in rows] == ["1", "2"] * 3


BAD_ARGUMENTS = [
    ("witness_sweep", ["--trials", "0"]),
    ("witness_sweep", ["--schedule", "0"]),
    ("witness_sweep", ["--schedule", "8", "-8"]),
    ("witness_sweep", ["--forms", "-1"]),
    ("simulate_sweep", ["--budgets", "0"]),
    ("simulate_sweep", ["--eps", "nan"]),
    ("simulate_sweep", ["--delta", "inf"]),
    ("simulate_sweep", ["--circuits", "-1"]),
    ("moment_gap", ["--samples", "0"]),
    ("moment_gap", ["--max-degree", "0"]),
    ("moment_gap", ["--max-m", "0"]),
]


@pytest.mark.parametrize("name,argv", BAD_ARGUMENTS,
                         ids=[f"{name} {' '.join(argv)}" for name, argv in BAD_ARGUMENTS])
def test_bad_arguments_exit_with_one_line(capsys, name, argv):
    # a string SystemExit code is printed to stderr and exits with status 1
    with pytest.raises(SystemExit) as exc:
        load(name).main(argv)
    message = exc.value.code
    assert isinstance(message, str) and message.startswith("error: ")
    assert "\n" not in message
    assert capsys.readouterr().out == ""


def test_bad_argument_exit_status_and_stderr():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "moment_gap.py"), "--samples", "0"],
                          capture_output=True, text=True,
                          env=os.environ | {"PYTHONPATH": str(SRC)})
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: --samples must be at least 1, got 0\n"
