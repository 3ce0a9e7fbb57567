"""Greedy influence-query simulator and exact error profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbforms import (BlockMultilinearForm, SimulationPolicy, error_profile,
                     extract_form, forrelation_circuit, reference_query_bound,
                     simulate_on_input, zero_form)

from oracles import error_profile_pointwise
from strategies import small_forms


# -- policy ---------------------------------------------------------------------


def test_policy_defaults_and_validation():
    pol = SimulationPolicy(epsilon=0.5, delta=0.1, query_budget=8)
    assert pol.variance_threshold == pytest.approx(0.025, abs=1e-15)
    explicit = SimulationPolicy(0.5, 0.1, 8, variance_threshold=0.3)
    assert explicit.variance_threshold == 0.3
    with pytest.raises(ValueError):
        SimulationPolicy(0.0, 0.1, 8)
    with pytest.raises(ValueError):
        SimulationPolicy(0.5, -0.1, 8)
    with pytest.raises(ValueError):
        SimulationPolicy(0.5, 0.1, 0)
    with pytest.raises(ValueError):
        SimulationPolicy(0.5, 0.1, 8, variance_threshold=-1.0)


# -- single runs ------------------------------------------------------------------


def test_constant_form_needs_no_queries():
    f = BlockMultilinearForm(2, 2, constant=0.75, terms={})
    t = simulate_on_input(f, SimulationPolicy(0.25, 0.25, 4), np.ones((2, 2)))
    assert t.queries_used == 0
    assert t.stop_reason == "variance"
    assert t.output == 0.75


def test_single_variable_resolves_in_one_query():
    f = BlockMultilinearForm(1, 2, 0.0, {((0,), (0,)): 2.0})
    x = np.array([[-1.0, 1.0]])
    t = simulate_on_input(f, SimulationPolicy(0.25, 0.25, 4), x)
    assert t.queries == [(0, 0, -1.0)]
    assert t.output == -2.0
    assert t.stop_reason == "variance"


def test_budget_exhaustion_is_reported():
    f = extract_form(forrelation_circuit(4))
    x = np.ones((2, 4))
    t = simulate_on_input(f, SimulationPolicy(0.1, 0.1, 2), x)
    assert t.stop_reason == "budget"
    assert t.queries_used == 2


def test_greedy_queries_highest_influence_first():
    f = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (0, 0)): 2.0,
                                         ((0, 1), (1, 1)): 1.0})
    x = -np.ones((2, 2))
    t = simulate_on_input(f, SimulationPolicy(0.1, 0.1, 8), x)
    assert t.queries[0][:2] == (0, 0)   # influence 4 beats 1


def test_input_shape_is_validated():
    f = zero_form(2, 2)
    with pytest.raises(ValueError):
        simulate_on_input(f, SimulationPolicy(0.25, 0.25, 1), np.ones((2, 3)))


@given(small_forms())
@settings(max_examples=25)
def test_transcript_replays_to_output(f):
    rng = np.random.default_rng(0)
    x = np.where(rng.random((f.d, f.n)) < 0.5, -1.0, 1.0)
    pol = SimulationPolicy(0.5, 0.5, 3)
    t = simulate_on_input(f, pol, x)
    g = f
    seen = set()
    for b, i, val in t.queries:
        assert val == x[b, i]
        assert (b, i) not in seen
        seen.add((b, i))
        g = g.restrict({(b, i): val})
    assert g.constant == t.output
    if t.stop_reason == "variance":
        assert g.variance() <= pol.variance_threshold
    else:
        assert t.queries_used == pol.query_budget


@given(small_forms())
@settings(max_examples=25)
def test_branch_average_variance_identity_along_path(f):
    # at each tree node the two branch variances average to
    # Var[g] - g_hat(v)^2 where v is the queried variable
    rng = np.random.default_rng(3)
    x = np.where(rng.random((f.d, f.n)) < 0.5, -1.0, 1.0)
    t = simulate_on_input(f, SimulationPolicy(0.3, 0.3, 4), x)
    g = f
    for b, i, val in t.queries:
        coeff = g.terms.get(((b,), (i,)), 0.0)
        plus = g.restrict({(b, i): 1.0}).variance()
        minus = g.restrict({(b, i): -1.0}).variance()
        expected = g.variance() - coeff ** 2
        assert abs(0.5 * (plus + minus) - expected) <= 1e-10
        g = g.restrict({(b, i): val})


@given(small_forms(max_d=2, max_n=2))
@settings(max_examples=20)
def test_unlimited_budget_meets_chebyshev_guarantee(f):
    # every leaf stops on the variance rule, so Chebyshev gives an
    # exact-failure fraction of at most delta
    pol = SimulationPolicy(epsilon=0.5, delta=0.25, query_budget=10 ** 6)
    prof = error_profile(f, pol)
    assert np.all(prof.queries <= len(f.support()))
    assert prof.failing_fraction <= pol.delta + 1e-12


def test_full_resolution_gives_zero_error():
    f = BlockMultilinearForm(2, 1, 0.0, {((0, 1), (0, 0)): 1.0})
    prof = error_profile(f, SimulationPolicy(0.1, 0.1, 2))
    assert prof.max_error == 0.0
    assert prof.failing_fraction == 0.0


# -- error profiles ----------------------------------------------------------------


def test_forrelation_budget_frontier():
    f = extract_form(forrelation_circuit(2))
    failing = []
    for budget in (1, 2, 4):
        prof = error_profile(f, SimulationPolicy(0.25, 0.25, budget))
        failing.append(prof.failing_fraction)
        assert prof.queries.max() <= budget
    assert failing == [1.0, 1.0, 0.0]
    assert failing == sorted(failing, reverse=True)


def test_profile_summaries():
    f = extract_form(forrelation_circuit(2))
    prof = error_profile(f, SimulationPolicy(0.25, 0.25, 2))
    assert prof.errors.size == 16
    assert prof.queries.size == 16
    assert prof.mean_queries == 2.0
    assert prof.max_error == pytest.approx(2.0 ** -0.5, abs=1e-12)
    assert prof.failing_fraction_at(1.0) == 0.0
    assert prof.failing_fraction_at(0.0) == 1.0


def assert_profile_matches_pointwise(f, pol):
    errors, queries = error_profile_pointwise(f, pol)
    prof = error_profile(f, pol)
    assert prof.errors.tobytes() == errors.tobytes()
    assert prof.queries.tobytes() == queries.tobytes()


@given(small_forms(max_terms=8), st.integers(1, 3), st.sampled_from([0.05, 0.3, 1.0]))
@settings(max_examples=60)
def test_tree_profile_matches_pointwise_walks(f, budget, epsilon):
    # budgets this small stop some forms on the budget, others on variance
    assert_profile_matches_pointwise(f, SimulationPolicy(epsilon, 0.5, budget))


@pytest.mark.parametrize("budget", [1, 2, 4, 8, 16])
def test_tree_profile_matches_pointwise_walks_on_forrelation(budget):
    f = extract_form(forrelation_circuit(4))
    assert_profile_matches_pointwise(f, SimulationPolicy(0.25, 0.25, budget))


def test_error_profile_cap():
    terms = {((0,), (i,)): 1.0 for i in range(21)}
    f = BlockMultilinearForm(1, 21, 0.0, terms)
    with pytest.raises(ValueError):
        error_profile(f, SimulationPolicy(0.25, 0.25, 1))


def test_reference_query_bound_value():
    assert reference_query_bound(2, 0.5, 0.5) == 262144.0
