"""Acceptance suite: one test per headline guarantee.

Each test prints a single [acceptance] line on success, so running
pytest -s (or the acceptance script) yields a ten-line scoreboard.
Budgets and tolerances are asserted, not just documented.
"""

import json
import math
import time

import numpy as np

from cbforms import (NCPolynomial, Seed, SimulationPolicy, address_form,
                     enumerate_star_pairings, error_profile, evaluate_nc,
                     extract_form, forrelation_circuit, fuss_catalan,
                     influence_floor, moment_upper_bound, random_circuit,
                     random_form, root_influence_witness,
                     scalar_phase_address_witness, trace_moment_exact)
from cbforms.cli import main as cli_main
from cbforms.matnum import haar_unitary, operator_norm_svd

from oracles import trace_inner_product


def _report(name):
    print(f"\n[acceptance] {name}: PASS")


def test_scalar_phase_witness_attains_root_n():
    t0 = time.perf_counter()
    for d in range(1, 7):
        rep = scalar_phase_address_witness(d)
        assert abs(rep.achieved - 2.0 ** (d / 2.0)) <= 1e-12
        assert rep.unitarity_residual <= 1e-12
    for d in (1, 2, 3):
        assert address_form(d).sup_norm_bruteforce() == 1.0
    assert time.perf_counter() - t0 < 10.0
    _report("scalar phase witness attains 2^(d/2) on sup-norm-1 forms")


def test_address_influence_profile():
    t0 = time.perf_counter()
    for d in range(1, 7):
        f = address_form(d)
        table = f.influences()
        assert np.all(table[d] == 2.0 ** -d)  # exact dyadic values
        assert abs(np.sqrt(table[d]).sum() - 2.0 ** (d / 2.0)) <= 1e-12
    assert time.perf_counter() - t0 < 5.0
    _report("address-block influences are exactly 2^-d, root-sum 2^(d/2)")


def test_pairing_counts_match_fuss_catalan():
    t0 = time.perf_counter()
    for d in range(1, 4):
        for m in range(1, 5):
            count = len(enumerate_star_pairings(d, m))
            assert count == fuss_catalan(d, m)
            assert count == math.comb(m * (d + 1), m - 1) // m
    assert time.perf_counter() - t0 < 60.0
    _report("non-crossing pairing enumeration matches Fuss-Catalan counts")


def test_exact_moments_on_integer_corpus():
    t0 = time.perf_counter()
    rng = Seed(400).rng()
    checked = 0
    while checked < 100:
        d = int(rng.integers(1, 3))
        num_terms = int(rng.integers(1, 4))
        terms = {}
        while len(terms) < num_terms:
            word = tuple(int(g) for g in rng.integers(1, 4, size=d))
            coeff = int(rng.integers(-3, 4))
            if coeff:
                terms[word] = coeff
        if not terms:
            continue
        p = NCPolynomial({w: float(c) for w, c in terms.items()})
        sq = sum(c * c for c in terms.values())
        first = trace_moment_exact(p, 1)
        assert isinstance(first, int) and first == sq
        assert trace_inner_product(p, p) == sq
        for m in (1, 2, 3):
            moment = trace_moment_exact(p, m)
            bound = moment_upper_bound(p, m)
            assert isinstance(moment, int) and isinstance(bound, int)
            assert 0 <= moment <= bound
        checked += 1
    assert time.perf_counter() - t0 < 120.0
    _report("exact free moments: first moment = |p|^2, all below "
            "Fuss-Catalan bound (100 integer polynomials)")


def test_haar_substitution_concentrates_at_large_dimension():
    t0 = time.perf_counter()
    dim = 1024
    rng = Seed(501).rng()
    haar = {g: haar_unitary(dim, rng) for g in (1, 2, 3, 4)}
    gen = Seed(502).rng()
    for _ in range(20):
        d = int(gen.integers(1, 4))
        num_terms = int(gen.integers(1, 5))
        terms = {}
        while len(terms) < num_terms:
            word = tuple(int(g) for g in gen.integers(1, 5, size=d))
            terms[word] = float(gen.uniform(-1, 1))
        p = NCPolynomial(terms)
        mat = evaluate_nc(p, haar, dim=dim)
        trace = np.linalg.norm(mat, "fro") ** 2 / dim
        assert abs(trace - p.l2_norm() ** 2) <= 0.05
        ceiling = 1.05 * math.sqrt(math.e * (d + 1)) * p.l2_norm()
        assert operator_norm_svd(mat) <= ceiling
    assert time.perf_counter() - t0 < 300.0
    _report("Haar substitution at N=1024: normalized trace within 0.05 of "
            "|p|^2, operator norm below 1.05 sqrt(e(d+1)) |p|")


def test_root_influence_witness_attainment():
    t0 = time.perf_counter()
    for s in range(20):
        pick = Seed(600 + s).rng()
        d = int(pick.integers(1, 4))
        n = int(pick.integers(1, 7))
        num_terms = int(pick.integers(1, min(9, n ** d) + 1))
        f = random_form(d, n, num_terms=num_terms, seed=Seed(610 + s))
        rep = root_influence_witness(f, schedule=(256,), seed=Seed(620 + s))
        assert rep.achieved >= 0.8 * rep.target
        assert rep.unitarity_residual <= 1e-8
    # quantum-extracted forms have completely bounded norm at most 1,
    # so the certified value must stay below 1 up to roundoff
    for s in range(5):
        f = extract_form(random_circuit(3, 1, 2, seed=Seed(700 + s)))
        rep = root_influence_witness(f, schedule=(64,), seed=Seed(710 + s))
        assert rep.achieved <= 1.0 + 1e-6
        assert rep.unitarity_residual <= 1e-8
    assert time.perf_counter() - t0 < 600.0
    _report("root-influence witness reaches 0.8x target at N=256 and "
            "never exceeds the quantum ceiling")


def test_extracted_forms_obey_influence_floor():
    t0 = time.perf_counter()
    rng = Seed(800).rng()
    for s in range(50):
        n = int(rng.integers(2, 9))
        width = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        f = extract_form(random_circuit(n, width, d, seed=Seed(900 + s)))
        assert f.max_influence()[2] >= influence_floor(f) - 1e-12
    assert time.perf_counter() - t0 < 120.0
    _report("50 quantum-extracted forms: max influence clears the "
            "variance-squared floor")


def test_extraction_round_trip_on_full_cubes():
    t0 = time.perf_counter()
    corpus = [(2, 1, 2), (2, 2, 2), (4, 1, 3), (3, 2, 4), (8, 1, 2)]
    for n, s, d in corpus:
        assert n * d <= 16
        c = random_circuit(n, s, d, seed=Seed(10 * n + d))
        f = extract_form(c)
        num_vars = n * d
        for point in range(1 << num_vars):
            bits = (point >> np.arange(num_vars)) & 1
            x = (1.0 - 2.0 * bits).reshape(d, n)
            assert abs(f.evaluate(x) - c.amplitude(x)) <= 1e-12
    assert time.perf_counter() - t0 < 120.0
    _report("amplitude extraction exact on full cubes up to 16 variables")


def test_greedy_simulation_of_forrelation():
    t0 = time.perf_counter()
    f = extract_form(forrelation_circuit(4))
    failing = []
    for budget in (1, 2, 4, 8, 16):
        prof = error_profile(f, SimulationPolicy(0.25, 0.25, budget))
        failing.append(prof.failing_fraction)
    assert failing == [0.8125, 0.8125, 0.5, 0.0, 0.0]  # exact enumeration
    assert failing[-1] <= 0.25
    assert all(a >= b for a, b in zip(failing, failing[1:]))
    assert time.perf_counter() - t0 < 60.0
    _report("greedy simulator solves Forrelation(n=4) to eps=delta=0.25 "
            "within budget 16, monotone in budget")


def test_cli_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CBFORMS_OUTDIR", raising=False)
    addr = tmp_path / "addr.json"
    assert cli_main(["gen", "address", "--d", "2", "--out", str(addr)]) == 0
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(
        {"terms": [{"vars": [1], "coeff": 1}, {"vars": [2], "coeff": 1}]}))
    runs = [
        ("gen", "address", "--d", "2"),
        ("gen", "forrelation", "--n", "4"),
        ("gen", "random-form", "--d", "2", "--n", "3", "--terms", "5",
         "--seed", "3"),
        ("gen", "random-circuit", "--n", "2", "--d", "2", "--seed", "3"),
        ("influence", str(addr)),
        ("witness", str(addr), "sign-baseline", "--trials", "64"),
        ("witness", str(addr), "scalar-phase"),
        ("witness", str(addr), "polar-homogeneous", "--dim", "32"),
        ("witness", str(addr), "polar-general", "--dim", "32"),
        ("simulate", str(addr), "--budget", "1,4,16"),
        ("trace", str(poly), "2"),
        ("pairings", "2", "2"),
        ("check", str(addr)),
    ]
    for k, args in enumerate(runs):
        a, b = tmp_path / f"out_{k}_a.json", tmp_path / f"out_{k}_b.json"
        assert cli_main([*args, "--out", str(a)]) == 0
        assert cli_main([*args, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes(), args
    _report("all CLI commands produce byte-identical files on rerun")
