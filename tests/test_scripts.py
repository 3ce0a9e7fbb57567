"""Smoke runs of the sweeps in scripts/ at tiny sizes."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
