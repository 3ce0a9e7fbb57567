"""End-to-end CLI runs: every command, both output channels."""

import json

import numpy as np
import pytest

from cbforms import (BlockMultilinearForm, QuantumQueryCircuit, Seed, SimulationPolicy,
                     address_form, error_profile, extract_form, forrelation_circuit,
                     random_circuit)
from cbforms.cli import main


@pytest.fixture(autouse=True)
def clean_outdir(monkeypatch):
    monkeypatch.delenv("CBFORMS_OUTDIR", raising=False)


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def gen_address(capsys, tmp_path, d=2):
    path = tmp_path / f"addr{d}.json"
    rc, _, _ = run(capsys, "gen", "address", "--d", str(d), "--out", str(path))
    assert rc == 0
    return path


# -- gen ---------------------------------------------------------------------


def test_gen_address_writes_form(capsys, tmp_path):
    path = tmp_path / "addr.json"
    rc, out, err = run(capsys, "gen", "address", "--d", "2", "--out", str(path),
                       "--format", "json")
    assert rc == 0 and err == ""
    f = BlockMultilinearForm.from_json(path.read_text())
    assert f == address_form(2)
    payload = json.loads(out)
    assert payload["kind"] == "address"
    assert payload["d"] == 3 and payload["n"] == 4
    assert payload["variance"] == 1.0
    assert payload["max_influence"] == {"block": 1, "index": 1, "value": 0.5}


def test_gen_requires_out(capsys):
    rc, _, err = run(capsys, "gen", "address")
    assert rc == 1
    assert err.startswith("error:")


def test_gen_rejects_unknown_kind(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "mystery"])
    assert exc.value.code == 2


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_gen_random_form_is_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "random-form", "--d", "2", "--n", "3", "--terms", "5",
        "--seed", "7", "--out", str(a))
    run(capsys, "gen", "random-form", "--d", "2", "--n", "3", "--terms", "5",
        "--seed", "7", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    f = BlockMultilinearForm.from_json(a.read_text())
    assert f.is_homogeneous() and f.num_terms() == 5


def test_gen_general_random_form(capsys, tmp_path):
    path = tmp_path / "g.json"
    run(capsys, "gen", "random-form", "--d", "2", "--n", "3", "--terms", "6",
        "--general", "--seed", "3", "--out", str(path))
    f = BlockMultilinearForm.from_json(path.read_text())
    assert not f.is_homogeneous()


def test_gen_random_circuit_round_trips(capsys, tmp_path):
    path = tmp_path / "c.json"
    rc, out, _ = run(capsys, "gen", "random-circuit", "--n", "2", "--s", "2",
                     "--d", "2", "--seed", "5", "--out", str(path),
                     "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["n"] == 2 and payload["s"] == 2 and payload["d"] == 2
    c = QuantumQueryCircuit.from_json(path.read_text())
    # the file holds the circuit the seeded generator builds
    assert c.amplitude(np.ones((2, 2))) == pytest.approx(
        random_circuit(2, 2, 2, Seed(5)).amplitude(np.ones((2, 2))), abs=1e-12)


def test_gen_forrelation_circuit(capsys, tmp_path):
    path = tmp_path / "forr.json"
    rc, out, _ = run(capsys, "gen", "forrelation", "--n", "4", "--out", str(path),
                     "--format", "json")
    assert rc == 0
    c = QuantumQueryCircuit.from_json(path.read_text())
    assert c.n == 4 and c.d == 2
    assert c.amplitude(np.ones((2, 4))) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("flag, value", [("--terms", "-3"), ("--d", "0"), ("--n", "0")])
def test_gen_random_form_rejects_bad_sizes(capsys, tmp_path, flag, value):
    path = tmp_path / "f.json"
    rc, out, err = run(capsys, "gen", "random-form", flag, value, "--out", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: random form needs") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("flag, value", [("--s", "0"), ("--n", "0"), ("--n", "-1")])
def test_gen_random_circuit_rejects_bad_sizes(capsys, tmp_path, flag, value):
    path = tmp_path / "c.json"
    rc, out, err = run(capsys, "gen", "random-circuit", flag, value, "--out", str(path))
    assert rc == 1 and out == ""
    assert err.startswith("error: random circuit needs n, s, d >= 1") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("k", ["1", "0", "-5"])
def test_gen_forrelation_rejects_fewer_than_two_queries(capsys, tmp_path, k):
    path = tmp_path / "forr.json"
    rc, _, err = run(capsys, "gen", "forrelation", "--d", k, "--out", str(path))
    assert rc == 1
    assert err == "error: k must be at least 2\n"
    assert not path.exists()


def test_outdir_env_resolves_relative_paths(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CBFORMS_OUTDIR", str(tmp_path))
    rc, _, _ = run(capsys, "gen", "address", "--d", "1", "--out", "sub/a.json")
    assert rc == 0
    assert (tmp_path / "sub" / "a.json").exists()


# -- influence -----------------------------------------------------------------


def test_influence_payload(capsys, tmp_path):
    path = gen_address(capsys, tmp_path)
    out_path = tmp_path / "inf.json"
    rc, out, _ = run(capsys, "influence", str(path), "--format", "json",
                     "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload == json.loads(out_path.read_text())
    assert payload["block_sums"] == [1.0, 1.0, 1.0]
    entries = {(e["block"], e["index"]): e["influence"]
               for e in payload["influences"]}
    assert entries[(3, 1)] == 0.25
    assert entries[(1, 1)] == 0.5
    assert entries[(1, 3)] == 0.0
    assert payload["max_influence"] == {"block": 1, "index": 1, "value": 0.5}


def test_influence_table_output(capsys, tmp_path):
    path = gen_address(capsys, tmp_path, d=1)
    rc, out, _ = run(capsys, "influence", str(path))
    lines = out.splitlines()
    assert lines[0].split() == ["block", "index", "influence"]
    assert len(lines) == 2 + 4  # header, rule, 2x2 variables


def test_missing_input_file(capsys, tmp_path):
    rc, _, err = run(capsys, "influence", str(tmp_path / "nope.json"))
    assert rc == 1
    assert err.startswith("error:")


def test_term_without_coeff_exits_one(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"d": 1, "n": 2, "constant": 0,
                                "terms": [{"blocks": [1], "indices": [1]}]}))
    rc, _, err = run(capsys, "influence", str(path))
    assert rc == 1
    assert err.startswith("error: malformed form payload")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["influence", "check"])
@pytest.mark.parametrize("payload", [
    '{"d": 1, "n": 2, "constant": NaN, "terms": []}',
    '{"d": 1, "n": 2, "constant": 0, "terms": [{"blocks": [1], "indices": [1], "coeff": Infinity}]}',
    '{"d": 1, "n": 2, "constant": 0, "terms": [{"blocks": [1.7], "indices": [1], "coeff": 1}]}',
    '{"d": 1, "n": 2, "constant": 0, "terms": [{"blocks": [1], "indices": [1.7], "coeff": 1}]}',
])
def test_malformed_form_payload_exits_one(capsys, tmp_path, command, payload):
    path = tmp_path / "f.json"
    path.write_text(payload)
    rc, out, err = run(capsys, command, str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: malformed form payload")
    assert err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ("simulate", "{form}", "--cap", "0"),
    ("simulate", "{form}", "--cap", "-3"),
    ("witness", "{form}", "polar-general", "--dim", "0"),
    ("trace", "{poly}", "1", "--cap", "0"),
    ("pairings", "2", "1", "--cap", "0"),
])
def test_sizes_below_one_exit_one(capsys, tmp_path, args):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"vars": [1], "coeff": 1}]}))
    form = gen_address(capsys, tmp_path, d=1)
    rc, out, err = run(capsys, *(a.format(form=form, poly=poly) for a in args))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: --") and "at least 1" in err
    assert err.count("\n") == 1


# -- witness --------------------------------------------------------------------


def test_witness_scalar_phase(capsys, tmp_path):
    path = gen_address(capsys, tmp_path)
    out_path = tmp_path / "w.json"
    rc, out, _ = run(capsys, "witness", str(path), "scalar-phase",
                     "--out", str(out_path))
    assert rc == 0
    assert "wall_time_s" in out          # terminal table keeps timing
    payload = json.loads(out_path.read_text())
    assert "wall_time_s" not in payload  # files stay byte-stable
    assert payload["method"] == "scalar-phase"
    assert abs(payload["achieved"] - 2.0) < 1e-12
    assert payload["selected_block"] == 3
    assert payload["seed"] is None


def test_witness_scalar_phase_requires_address_form(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "gen", "random-form", "--d", "2", "--n", "2", "--terms", "3",
        "--out", str(path))
    rc, _, err = run(capsys, "witness", str(path), "scalar-phase")
    assert rc == 1
    assert "address" in err


def test_witness_sign_baseline(capsys, tmp_path):
    path = gen_address(capsys, tmp_path)
    out_path = tmp_path / "sb.json"
    rc, _, _ = run(capsys, "witness", str(path), "sign-baseline",
                   "--trials", "32", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["achieved"] == 1.0
    assert payload["target"] == 1.0
    assert payload["selected_block"] == 3
    assert payload["seed"] == {"master": 0, "path": []}


def test_witness_polar_with_single_dim(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "gen", "random-form", "--d", "2", "--n", "3", "--terms", "4",
        "--seed", "2", "--out", str(path))
    out_path = tmp_path / "w.json"
    rc, _, _ = run(capsys, "witness", str(path), "polar-homogeneous",
                   "--dim", "16", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["N"] == 16
    assert payload["achieved"] >= payload["target"]
    assert payload["selected_block"] == 1


def test_witness_polar_general(capsys, tmp_path):
    path = tmp_path / "f.json"
    run(capsys, "gen", "random-form", "--d", "2", "--n", "2", "--terms", "4",
        "--general", "--seed", "4", "--out", str(path))
    out_path = tmp_path / "w.json"
    rc, _, _ = run(capsys, "witness", str(path), "polar-general",
                   "--schedule", "16,32", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["method"] == "polar-general"
    assert payload["N"] in (16, 32)


@pytest.mark.parametrize("method, payload, schedule", [
    # zero variance: the general witness returns before any polar run
    ("polar-general", {"d": 1, "n": 1, "constant": 0.5, "terms": []}, "0"),
    ("polar-homogeneous", {"d": 2, "n": 2, "constant": 0, "terms": []}, "-8"),
    ("polar-homogeneous", {"d": 2, "n": 2, "constant": 0, "terms": []}, "16,0"),
])
def test_witness_schedule_below_one_exits_one(capsys, tmp_path, method, payload, schedule):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "witness", str(path), method, "--schedule", schedule)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: dimension schedule")
    assert err.count("\n") == 1


# -- simulate -------------------------------------------------------------------


def test_simulate_payload(capsys, tmp_path):
    path = gen_address(capsys, tmp_path, d=1)
    out_path = tmp_path / "sim.json"
    rc, out, _ = run(capsys, "simulate", str(path), "--budget", "1,16",
                     "--format", "json", "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload == json.loads(out_path.read_text())
    assert payload["variance_threshold"] == 0.25 ** 2 * 0.25
    assert payload["reference_query_bound"] == 2 ** 5 * 0.25 ** -8 * 0.25 ** -5
    budgets = [r["budget"] for r in payload["rows"]]
    assert budgets == [1, 16]
    fracs = [r["achieved_failing_fraction"] for r in payload["rows"]]
    assert fracs[1] <= fracs[0]
    assert payload["rows"][1]["achieved_failing_fraction"] <= 0.25


@pytest.mark.parametrize("flag, value", [("--eps", "nan"), ("--eps", "inf"),
                                         ("--delta", "nan"), ("--delta", "inf")])
def test_simulate_non_finite_parameters_exit_one(capsys, tmp_path, flag, value):
    path = gen_address(capsys, tmp_path, d=1)
    out_path = tmp_path / "sim.json"
    rc, out, err = run(capsys, "simulate", str(path), flag, value, "--budget", "1,4",
                       "--out", str(out_path))
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {flag[2:]}") and "finite" in err
    assert err.count("\n") == 1
    assert not out_path.exists()


def test_simulate_refuses_supports_wider_than_the_tree_key(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(BlockMultilinearForm(1, 63, 0.0, {((0,), (i,)): 1.0
                                                       for i in range(63)}).to_json())
    rc, out, err = run(capsys, "simulate", str(path), "--cap", "63", "--budget", "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: error profiles take at most 31 support variables")
    assert err.count("\n") == 1


def test_simulate_reads_generated_circuit(capsys, tmp_path):
    # a circuit file is read as the form it computes
    path = tmp_path / "forr.json"
    assert run(capsys, "gen", "forrelation", "--out", str(path))[0] == 0
    rc, out, err = run(capsys, "simulate", str(path), "--budget", "1,4,16",
                       "--format", "json")
    assert rc == 0 and err == ""
    f = extract_form(forrelation_circuit(4, k=2))
    for row in json.loads(out)["rows"]:
        policy = SimulationPolicy(epsilon=0.25, delta=0.25, query_budget=row["budget"])
        profile = error_profile(f, policy)
        assert row["achieved_failing_fraction"] == profile.failing_fraction
        assert row["mean_queries"] == profile.mean_queries


def test_influence_of_circuit_matches_its_form(capsys, tmp_path):
    circuit, form = tmp_path / "c.json", tmp_path / "f.json"
    assert run(capsys, "gen", "random-circuit", "--n", "2", "--seed", "3",
               "--out", str(circuit))[0] == 0
    form.write_text(extract_form(QuantumQueryCircuit.from_json(circuit.read_text())).to_json())
    rc, from_circuit, _ = run(capsys, "influence", str(circuit), "--format", "json")
    assert rc == 0
    assert from_circuit == run(capsys, "influence", str(form), "--format", "json")[1]


@pytest.mark.parametrize("field, value", [("n", None), ("n", 4.5), ("u", [float("nan")] * 4),
                                          ("unitaries", 5)])
def test_malformed_circuit_payload_exits_one(capsys, tmp_path, field, value):
    path = tmp_path / "forr.json"
    assert run(capsys, "gen", "forrelation", "--n", "2", "--out", str(path))[0] == 0
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **{field: value})))
    rc, out, err = run(capsys, "simulate", str(path))
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_simulate_csv_columns(capsys, tmp_path):
    path = gen_address(capsys, tmp_path, d=1)
    rc, out, _ = run(capsys, "simulate", str(path), "--budget", "2",
                     "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "budget,epsilon,achieved_failing_fraction,mean_queries"
    assert len(lines) == 2


# -- trace and pairings ------------------------------------------------------------


def test_trace_command(capsys, tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"vars": [1], "coeff": 1},
                                          {"vars": [2], "coeff": 1}]}))
    out_path = tmp_path / "t.json"
    rc, out, _ = run(capsys, "trace", str(poly), "2", "--format", "json",
                     "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["moment"] == 6
    assert payload["upper_bound"] == 8
    assert payload["exact_integers"] is True
    assert payload["degree"] == 1 and payload["num_terms"] == 2


def test_trace_rejects_duplicate_terms(capsys, tmp_path):
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"vars": [1], "coeff": 1},
                                          {"vars": [1], "coeff": 2}]}))
    rc, _, err = run(capsys, "trace", str(poly), "1")
    assert rc == 1 and "duplicate" in err


@pytest.mark.parametrize("payload", [
    '{"terms": [{"vars": [1, 2]}]}',
    '{"constant": 0}',
    '{"terms": [{"vars": [1.5, 2], "coeff": 1}]}',
    '{"terms": [{"vars": [1, 2], "coeff": NaN}]}',
    '{"terms": [{"vars": [1, 2], "coeff": 1}], "constant": Infinity}',
])
def test_trace_malformed_payload_exits_one(capsys, tmp_path, payload):
    poly = tmp_path / "p.json"
    poly.write_text(payload)
    rc, out, err = run(capsys, "trace", str(poly), "1")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: malformed trace payload")
    assert err.count("\n") == 1


def test_pairings_command(capsys, tmp_path):
    out_path = tmp_path / "pair.json"
    rc, out, _ = run(capsys, "pairings", "2", "2", "--format", "json",
                     "--out", str(out_path))
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 3
    assert payload["formula"] == 3
    assert len(payload["pairings"]) == 3
    flat = [i for p in payload["pairings"] for pair in p for i in pair]
    assert min(flat) == 1 and max(flat) == 8  # 1-based positions


# -- check ---------------------------------------------------------------------------


def test_check_passes_on_address_form(capsys, tmp_path):
    path = gen_address(capsys, tmp_path)
    rc, out, err = run(capsys, "check", str(path), "--format", "json")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["max_influence"]["value"] == 0.5


def test_check_flags_floor_violation(capsys, tmp_path):
    terms = {((0,), (i,)): 1.0 for i in range(10)}
    f = BlockMultilinearForm(1, 10, 0.0, terms)
    path = tmp_path / "bad.json"
    path.write_text(f.to_json())
    rc, out, err = run(capsys, "check", str(path), "--format", "json")
    assert rc == 1
    assert "influence floor violated" in err
    assert json.loads(out)["holds"] is False


# -- rerun stability --------------------------------------------------------------------


def test_every_command_rerun_is_byte_identical(capsys, tmp_path):
    addr = gen_address(capsys, tmp_path)
    poly = tmp_path / "p.json"
    poly.write_text(json.dumps({"terms": [{"vars": [1], "coeff": 2}]}))
    runs = {
        "gen": ("gen", "random-circuit", "--n", "2", "--d", "2", "--seed", "9"),
        "influence": ("influence", str(addr)),
        "witness": ("witness", str(addr), "polar-homogeneous", "--dim", "16"),
        "simulate": ("simulate", str(addr), "--budget", "1,4"),
        "trace": ("trace", str(poly), "2"),
        "pairings": ("pairings", "2", "1"),
        "check": ("check", str(addr)),
    }
    for name, args in runs.items():
        a, b = tmp_path / f"{name}_a.json", tmp_path / f"{name}_b.json"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes(), name
