"""Greedy influence-query simulator and exact error profiles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbforms import simulate
from cbforms import (BlockMultilinearForm, Seed, SimulationPolicy, error_profile,
                     extract_form, forrelation_circuit, random_circuit,
                     reference_query_bound, simulate_on_input)

from oracles import error_profile_on_forms, error_profile_pointwise, simulate_on_forms
from strategies import coeffs, small_forms


# -- policy ---------------------------------------------------------------------


def test_policy_defaults_and_validation():
    pol = SimulationPolicy(epsilon=0.5, delta=0.1, query_budget=8)
    assert pol.variance_threshold == pytest.approx(0.025, abs=1e-15)
    with pytest.raises(ValueError):
        SimulationPolicy(0.0, 0.1, 8)
    with pytest.raises(ValueError):
        SimulationPolicy(0.5, -0.1, 8)
    with pytest.raises(ValueError):
        SimulationPolicy(0.5, 0.1, 0)
    # eps^2 * delta underflows to zero
    with pytest.raises(ValueError):
        SimulationPolicy(1e-200, 1e-200, 8)


def test_variance_threshold_is_derived_and_read_only():
    pol = SimulationPolicy(epsilon=0.3, delta=0.7, query_budget=4)
    assert pol.variance_threshold == 0.3 ** 2 * 0.7
    with pytest.raises(AttributeError):
        pol.variance_threshold = 0.5
    with pytest.raises(TypeError):
        SimulationPolicy(0.5, 0.1, 8, variance_threshold=0.3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["epsilon", "delta"])
def test_policy_rejects_non_finite_parameters(field, value):
    params = {"epsilon": 0.25, "delta": 0.25, "query_budget": 4, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SimulationPolicy(**params)


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
    f = BlockMultilinearForm(2, 2)
    with pytest.raises(ValueError):
        simulate_on_input(f, SimulationPolicy(0.25, 0.25, 1), np.ones((2, 3)))


@pytest.mark.parametrize("bad", [0.5, float("nan")])
def test_non_sign_entries_are_rejected_before_the_walk(bad):
    # the walk queries only x_0(0), so x_1(1) is never read
    f = BlockMultilinearForm(2, 2, 0.0, {((0,), (0,)): 1.0})
    x = np.ones((2, 2))
    x[1, 1] = bad
    with pytest.raises(ValueError, match=r"inputs must be \+-1 valued"):
        simulate_on_input(f, SimulationPolicy(0.25, 0.25, 4), x)


def assert_walk_matches_forms(f, pol, x):
    got, want = simulate_on_input(f, pol, x), simulate_on_forms(f, pol, x)
    assert got.queries == want.queries
    assert all(type(b) is int and type(i) is int and type(o) is float
               for b, i, o in got.queries)
    assert type(got.output) is float
    assert got.output.hex() == want.output.hex()
    assert got.stop_reason == want.stop_reason
    return got


@given(st.one_of(small_forms(homogeneous=True), small_forms()), st.integers(1, 8),
       st.sampled_from([0.05, 0.3, 1.0]), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100)
def test_walk_matches_the_walk_on_forms_bit_for_bit(f, budget, epsilon, seed):
    x = 1.0 - 2.0 * np.random.default_rng(seed).integers(0, 2, size=(f.d, f.n))
    assert_walk_matches_forms(f, SimulationPolicy(epsilon, 0.5, budget), x)


@pytest.mark.parametrize("f, x, budget, want", [
    # x_0(0) = -1 turns 2 x_0(0) x_1(0) into -2 x_1(0), which cancels 2 x_1(0)
    (BlockMultilinearForm(2, 1, 0.0, {((0, 1), (0, 0)): 2.0, ((1,), (0,)): 2.0,
                                      ((0,), (0,)): 3.0}),
     [[-1.0], [1.0]], 8, ([(0, 0, -1.0)], -3.0, "variance")),
    (BlockMultilinearForm(2, 3), np.ones((2, 3)), 8, ([], 0.0, "variance")),
    (BlockMultilinearForm(1, 3, 0.5, {((0,), (0,)): 1.0, ((0,), (2,)): -2.0}),
     [[-1.0, 1.0, -1.0]], 8, ([(0, 2, -1.0), (0, 0, -1.0)], 1.5, "variance")),
    (extract_form(forrelation_circuit(4)), np.ones((2, 4)), 2, (None, None, "budget")),
])
def test_walk_matches_the_walk_on_forms_on_edge_cases(f, x, budget, want):
    got = assert_walk_matches_forms(f, SimulationPolicy(0.1, 0.1, budget), np.asarray(x))
    queries, output, reason = want
    assert got.stop_reason == reason
    if queries is not None:
        assert (got.queries, got.output) == (queries, output)
    else:
        assert got.queries_used == budget


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
    assert np.mean(prof.errors > 1.0) == 0.0
    assert np.mean(prof.errors > 0.0) == 1.0


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


@st.composite
def tree_cases(draw):
    """A small form, homogeneous or general.  A general form with two
    blocks or more may also hold a pair x_b(i) x_c(j) and x_c(j) that
    collide in both children of a query on x_b(i); one draw in three
    makes the pair cancel to exactly zero in one of them."""
    f = draw(st.one_of(small_forms(homogeneous=True), small_forms(max_terms=8)))
    if f.d < 2 or f.is_homogeneous() or not draw(st.booleans()):
        return f
    b, c = draw(st.permutations(range(f.d)))[:2]
    i, j = draw(st.integers(0, f.n - 1)), draw(st.integers(0, f.n - 1))
    (lo, i_lo), (hi, i_hi) = sorted([(b, i), (c, j)])
    c_long = draw(coeffs)
    terms = f.terms
    terms[((lo, hi), (i_lo, i_hi))] = c_long
    cancel = draw(st.integers(0, 2)) == 0
    terms[((c,), (j,))] = draw(st.sampled_from([c_long, -c_long])) if cancel else draw(coeffs)
    return BlockMultilinearForm(f.d, f.n, f.constant, terms)


def assert_profile_matches_forms(f, pol):
    want = error_profile_on_forms(f, pol)
    prof = error_profile(f, pol)
    assert prof.errors.tobytes() == want.errors.tobytes()
    assert prof.queries.tobytes() == want.queries.tobytes()


@given(tree_cases(), st.integers(1, 8), st.sampled_from([0.05, 0.3, 1.0]))
@settings(max_examples=200)
def test_level_tree_matches_the_tree_on_forms_bit_for_bit(f, budget, epsilon):
    assert_profile_matches_forms(f, SimulationPolicy(epsilon, 0.5, budget))


TINY = 1e-8  # TINY**2 is below half an ulp of 1.0, two of them are above it


@pytest.mark.parametrize("f, epsilon, budget", [
    (BlockMultilinearForm(2, 3), 0.25, 4),
    (BlockMultilinearForm(2, 3, -0.5), 0.25, 4),
    (BlockMultilinearForm(1, 3, 0.5, {((0,), (0,)): 1.0, ((0,), (2,)): -2.0}), 0.25, 8),
    # x_0(0) = +1 cancels 2 x_1(0) against -2 x_1(0); x_0(0) = -1 doubles it
    (BlockMultilinearForm(2, 1, 0.0, {((0, 1), (0, 0)): 2.0, ((1,), (0,)): -2.0,
                                      ((0,), (0,)): 3.0}), 0.25, 8),
    (extract_form(forrelation_circuit(4, k=3)), 0.25, 16),
    # the variance is exactly the threshold 1.0 only when added in term order
    (BlockMultilinearForm(1, 3, 0.0, {((0,), (0,)): 1.0, ((0,), (1,)): TINY,
                                      ((0,), (2,)): TINY}), 1.0, 8),
    # x_0(0)'s influence 1 + TINY^2 + TINY^2 is 1.0 in term order, so x_1(0)'s
    # 1 + 2^-52 wins; added in any other order they tie and x_0(0) wins
    (BlockMultilinearForm(2, 3, 0.0, {((0,), (0,)): 1.0, ((0, 1), (0, 1)): TINY,
                                      ((0, 1), (0, 2)): TINY, ((1,), (0,)): 1.0,
                                      ((0, 1), (1, 0)): 2.0 ** -26}), 0.25, 1),
    # x_0(0) = +1 merges 0.5 x_1(0) + 0.5 x_1(0) into the first row, ahead of two
    # TINY rows, so that child's variance is exactly the threshold 1.0; x_0(0) = -1
    # cancels the pair
    (BlockMultilinearForm(2, 3, 0.0, {((1,), (0,)): 0.5, ((1,), (1,)): TINY,
                                      ((1,), (2,)): TINY, ((0, 1), (0, 0)): 0.5,
                                      ((0,), (0,)): 1.0}), 1.0, 8),
])
def test_level_tree_matches_the_tree_on_forms_on_edge_cases(f, epsilon, budget):
    assert_profile_matches_forms(f, SimulationPolicy(epsilon, epsilon, budget))


@given(tree_cases(), st.integers(1, 8), st.sampled_from([0.05, 0.3, 1.0]),
       st.integers(1, 4))
@settings(max_examples=100)
def test_split_levels_match_the_tree_on_forms_bit_for_bit(f, budget, epsilon, level_rows):
    # a few rows per level make nearly every level go on as two
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_LEVEL_ROWS", level_rows)
        assert_profile_matches_forms(f, SimulationPolicy(epsilon, 0.5, budget))


def test_split_levels_keep_the_forrelation_profile():
    f = extract_form(forrelation_circuit(4, k=3))
    pol = SimulationPolicy(0.25, 0.25, 16)
    want = error_profile(f, pol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_LEVEL_ROWS", 8)
        prof = error_profile(f, pol)
    assert prof.errors.tobytes() == want.errors.tobytes()
    assert prof.queries.tobytes() == want.queries.tobytes()


@pytest.mark.parametrize("k", [32, 63])
def test_error_profile_refuses_supports_wider_than_the_tree_key(k):
    # refused before the cube is allocated, whatever the cap
    f = BlockMultilinearForm(1, k, 0.0, {((0,), (i,)): 1.0 for i in range(k)})
    with pytest.raises(ValueError, match="at most 31 support variables"):
        error_profile(f, SimulationPolicy(0.25, 0.25, 1), cap=k)


# -- pinned bits ---------------------------------------------------------------------
# Values recorded before restriction skipped key validation; any change in
# term order or in one bit of a restricted form shows up here.

ONLINE_PINS = [
    (0, 0, "-0x1.b8544e32e8a62p-4",
     "ef20096041457987611ac48048b010c325e8fec42c04b05d11580fa1cd5d45d6",
     [(2, 0, 1), (0, 7, -1), (0, 2, -1), (1, 5, -1), (2, 7, 1), (0, 0, 1), (0, 1, 1),
      (1, 1, 1), (1, 4, -1), (1, 2, 1), (2, 5, -1), (1, 7, -1)]),
    (0, 1, "0x1.b8ddce871fd0ep-2",
     "1132c09ad460ed628085f50d308ab7f2c99464163020010a4c73dc8e68f85eac",
     [(2, 0, 1), (0, 7, -1), (0, 2, 1), (1, 3, -1), (2, 5, -1), (1, 7, -1), (1, 1, -1),
      (0, 0, -1), (0, 1, -1), (1, 4, 1), (1, 5, -1)]),
    (1, 0, "-0x1.1f0e2d6213418p-1",
     "d09377be8964b797c90fa9095e9620191100526505de09f4f0cdae0b888af713",
     [(2, 5, 1), (0, 4, -1), (1, 7, -1), (2, 7, -1), (0, 0, -1), (1, 5, 1), (0, 3, -1),
      (0, 5, 1), (1, 1, -1), (1, 3, -1), (2, 1, 1)]),
    (1, 1, "0x1.49bec5c327332p-2",
     "49cef04f802d024bda1f931c96dd9670021df3f445aa0d234b06ee5803b6394b",
     [(2, 5, -1), (0, 4, -1), (1, 7, -1), (2, 7, -1), (1, 4, -1), (0, 5, 1), (1, 2, 1),
      (0, 0, -1), (0, 3, -1), (0, 1, 1), (1, 3, -1), (2, 2, 1), (1, 1, 1)]),
]


def test_online_walks_are_pinned():
    # 512-term forms of 3-query circuits on 8 bits, as in the online benchmark;
    # the leaf digest covers the restricted form's term order and bits
    pol = SimulationPolicy(0.25, 0.25, 32)
    forms = [extract_form(random_circuit(8, 1, 3, Seed(19, (0, j)))) for j in range(2)]
    rngs = [Seed(19, (1, j)).rng() for j in range(2)]
    for j, t, output, leaf_sha, queries in ONLINE_PINS:
        x = 1.0 - 2.0 * rngs[j].integers(0, 2, size=(3, 8))
        tr = simulate_on_input(forms[j], pol, x)
        assert tr.stop_reason == "variance"
        assert tr.output.hex() == output
        assert [(b, i, int(o)) for b, i, o in tr.queries] == queries
        g = forms[j]
        for b, i, o in tr.queries:
            g = g.restrict({(b, i): o})
        leaf = repr((g.constant.hex(), [(key, c.hex()) for key, c in g.terms.items()]))
        assert hashlib.sha256(leaf.encode()).hexdigest() == leaf_sha


@pytest.mark.parametrize("circuit, errors_sha, queries_sha", [
    (forrelation_circuit(4),
     "e5a00aa9991ac8a5ee3109844d84a55583bd20572ad3ffcd42792f3c36b183ad",
     "2d38e375bccba42a88eb41adae5ee2d3055e2832c456a62f42f66eddb0380998"),
    (random_circuit(4, 1, 2, Seed(19, (2, 0))),
     "fec60fb79c57e99389458f9df70fce149bb23de8f2af455d86b8c55cf28a0db4",
     "92a5744e1cf8b2f103e25c65922f2a523c3764937c8775d5462980e9c0618fe2"),
    (random_circuit(4, 1, 2, Seed(19, (2, 1))),
     "465739318bb5d00aea0fb9e38536672432334ee62050cd3d56ed1e0d7d8d2c73",
     "3f44ffcab250d66ec520f7e58fabb618cfd29b0dded78656b42b0d87ac26495a"),
])
def test_error_profiles_are_pinned(circuit, errors_sha, queries_sha):
    prof = error_profile(extract_form(circuit), SimulationPolicy(0.25, 0.25, 16))
    assert hashlib.sha256(prof.errors.astype("<f8").tobytes()).hexdigest() == errors_sha
    assert hashlib.sha256(prof.queries.astype("<i8").tobytes()).hexdigest() == queries_sha


def test_error_profile_cap():
    terms = {((0,), (i,)): 1.0 for i in range(21)}
    f = BlockMultilinearForm(1, 21, 0.0, terms)
    with pytest.raises(ValueError):
        error_profile(f, SimulationPolicy(0.25, 0.25, 1))


def test_reference_query_bound_value():
    assert reference_query_bound(2, 0.5, 0.5) == 262144.0
