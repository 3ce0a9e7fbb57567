"""Forms: construction, Fourier analytics, restriction, serialization."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cbforms import BlockMultilinearForm, Seed, forms, random_form
from strategies import coeffs, small_forms


def sign_point(d, n, point):
    bits = (point >> np.arange(d * n)) & 1
    return 1.0 - 2.0 * bits.astype(float).reshape(d, n)


# -- construction ---------------------------------------------------------


@pytest.mark.parametrize("terms", [
    {((1, 0), (0, 0)): 1.0},      # blocks not increasing
    {((0, 0), (0, 1)): 1.0},      # repeated block
    {((0,), (2,)): 1.0},          # index out of range
    {((2,), (0,)): 1.0},          # block out of range
    {((), ()): 1.0},              # empty monomial
    {((0,), (0, 1)): 1.0},        # length mismatch
    {((-1,), (0,)): 1.0},
    {((0,), (-1,)): 1.0},
])
def test_rejects_invalid_monomial_keys(terms):
    with pytest.raises(ValueError):
        BlockMultilinearForm(2, 2, 0.0, terms)


def test_rejects_empty_shapes():
    with pytest.raises(ValueError):
        BlockMultilinearForm(0, 2)
    with pytest.raises(ValueError):
        BlockMultilinearForm(2, 0)


def test_drops_exact_zero_coefficients():
    f = BlockMultilinearForm(2, 2, 0.5, {((0,), (0,)): 0.0, ((0, 1), (0, 1)): 1.0})
    assert f.num_terms() == 1
    assert f.constant == 0.5
    assert ((0,), (0,)) not in f.terms


def test_terms_property_returns_a_copy():
    f = BlockMultilinearForm(1, 1, 0.0, {((0,), (0,)): 1.0})
    f.terms.clear()
    assert f.num_terms() == 1


def test_equality_and_hash():
    a = BlockMultilinearForm(2, 2, 0.5, {((0,), (1,)): 2.0})
    b = BlockMultilinearForm(2, 2, 0.5, {((0,), (1,)): 2.0})
    c = BlockMultilinearForm(2, 2, 0.25, {((0,), (1,)): 2.0})
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != "not a form"


# -- evaluation -----------------------------------------------------------


def test_evaluate_explicit_mixed_degree_point():
    f = BlockMultilinearForm(2, 2, 0.5, {((0, 1), (0, 1)): 1.0, ((1,), (0,)): -2.0})
    x = np.array([[1.0, 1.0], [-1.0, 1.0]])
    # 0.5 + x_1(1) x_2(2) - 2 x_2(1) = 0.5 + 1 + 2
    assert f.evaluate(x) == pytest.approx(3.5, abs=1e-12)


def test_evaluate_validates_shape_and_signs():
    f = BlockMultilinearForm(2, 2, 0.0, {((0,), (0,)): 1.0})
    with pytest.raises(ValueError):
        f.evaluate(np.ones((2, 3)))
    with pytest.raises(ValueError):
        f.evaluate(np.zeros((2, 2)))


@given(small_forms(), st.integers(0, 2 ** 9 - 1))
def test_evaluate_matches_direct_monomial_sum(f, point):
    x = sign_point(f.d, f.n, point % (1 << (f.d * f.n)))
    expected = oracles.eval_terms(f.constant, f.terms, x)
    assert f.evaluate(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- variance and influence ----------------------------------------------


def test_variance_adds_left_to_right():
    # a compensated sum, such as the builtin sum since Python 3.12, gives
    # 1.0000000000000002
    f = BlockMultilinearForm(1, 3, 0.0, {((0,), (0,)): 1.0, ((0,), (1,)): 1e-8,
                                         ((0,), (2,)): 1e-8})
    assert f.variance() == 1.0


@given(small_forms())
def test_variance_matches_cube_moments(f):
    assert f.variance() == pytest.approx(oracles.variance_bruteforce(f),
                                         rel=1e-9, abs=1e-9)


@given(small_forms())
def test_second_moment_equals_constant_sq_plus_variance(f):
    vals = np.array([oracles.eval_terms(f.constant, f.terms, x)
                     for x in oracles.cube_points(f.d, f.n)])
    assert float(np.mean(vals)) == pytest.approx(f.constant, abs=1e-9)
    assert float(np.mean(vals ** 2)) == pytest.approx(
        f.constant ** 2 + f.variance(), rel=1e-9, abs=1e-9)


@given(small_forms(max_d=3, max_n=2))
def test_influence_matches_derivative_energy(f):
    table = f.influences()
    for b in range(f.d):
        for i in range(f.n):
            assert table[b, i] == pytest.approx(
                oracles.influence_bruteforce(f, b, i), rel=1e-9, abs=1e-9)


def test_influence_explicit_shared_variable():
    f = BlockMultilinearForm(2, 2, 0.0,
                             {((0, 1), (0, 0)): 1.0, ((0, 1), (0, 1)): 1.0})
    table = f.influences()
    assert table[0, 0] == 2.0
    assert table[0, 1] == 0.0
    assert table[1, 0] == 1.0


@given(small_forms())
def test_influence_table_consistency(f):
    table = f.influences()
    assert table.shape == (f.d, f.n)
    for b in range(f.d):
        # each monomial touches block b at most once
        block_sum = sum(c * c for (blocks, _), c in f.terms.items() if b in blocks)
        assert float(table[b].sum()) == pytest.approx(block_sum, rel=1e-12, abs=1e-15)


@given(small_forms(homogeneous=True, with_constant=False))
def test_homogeneous_block_influence_sums_equal_variance(f):
    for block_sum in f.influences().sum(axis=1):
        assert block_sum == pytest.approx(f.variance(), rel=1e-12, abs=1e-12)


@given(small_forms())
def test_block_influence_sum_bracketed_by_variance(f):
    var = f.variance()
    total = float(f.influences().sum())
    for block_sum in f.influences().sum(axis=1):
        assert block_sum <= var + 1e-12
    assert var <= total + 1e-12


@given(small_forms())
def test_max_influence_is_first_maximum(f):
    b, i, val = f.max_influence()
    flat = f.influences().ravel()
    k = b * f.n + i
    assert val == flat[k]
    assert val == flat.max()
    assert np.all(flat[:k] < val) or k == 0
    table_max = max(oracles.influence_bruteforce(f, bb, ii)
                    for bb in range(f.d) for ii in range(f.n))
    assert val == pytest.approx(table_max, rel=1e-9, abs=1e-9)


def test_max_influence_tie_breaks_low_block_then_low_index():
    g = BlockMultilinearForm(2, 2, 0.0,
                             {((0, 1), (0, 0)): 0.5, ((0, 1), (1, 1)): 0.5})
    # all four touched variables have influence 0.25
    assert g.max_influence() == (0, 0, 0.25)
    h = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (1, 0)): 1.0})
    assert h.max_influence() == (0, 1, 1.0)
    assert BlockMultilinearForm(2, 3).max_influence() == (0, 0, 0.0)


# -- restriction ----------------------------------------------------------


def test_restrict_explicit_examples():
    f = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (0, 0)): 1.0})
    g = f.restrict({(0, 0): 1})
    assert g.terms == {((1,), (0,)): 1.0}
    assert g.constant == 0.0
    h = f.restrict({(0, 0): -1, (1, 0): 1})
    assert h.num_terms() == 0
    assert h.constant == -1.0


def test_restrict_sums_colliding_coefficients():
    f = BlockMultilinearForm(2, 2, 0.0,
                             {((0, 1), (0, 0)): 1.0, ((0, 1), (1, 0)): -1.0})
    cancelled = f.restrict({(0, 0): 1, (0, 1): 1})
    assert cancelled.num_terms() == 0
    doubled = f.restrict({(0, 0): 1, (0, 1): -1})
    assert doubled.terms == {((1,), (0,)): 2.0}


def test_restrict_validates_inputs():
    f = BlockMultilinearForm(2, 2, 0.0, {((0,), (0,)): 1.0})
    with pytest.raises(ValueError):
        f.restrict({(0, 0): 0})
    with pytest.raises(ValueError):
        f.restrict({(5, 0): 1})


@st.composite
def restriction_cases(draw):
    """A small form and a nonempty assignment.  When the form has two
    blocks or more, it also holds a pair of monomials that land on one
    key (or both on the constant) under the assignment, and one draw in
    three gives the pair coefficients that cancel exactly."""
    f = draw(small_forms(max_terms=8))
    all_vars = [(b, i) for b in range(f.d) for i in range(f.n)]
    chosen = draw(st.lists(st.sampled_from(all_vars), unique=True, min_size=1, max_size=4))
    assignment = {v: draw(st.sampled_from([1, -1])) for v in chosen}
    terms = f.terms
    (b, i) = chosen[0]
    if f.d >= 2:
        b2 = draw(st.sampled_from([c for c in range(f.d) if c != b]))
        i2 = draw(st.integers(0, f.n - 1))
        (lo, ilo), (hi, ihi) = sorted([(b, i), (b2, i2)])
        c_long = draw(coeffs)
        cancel = draw(st.integers(0, 2)) == 0
        terms[((lo, hi), (ilo, ihi))] = c_long
        terms[((b2,), (i2,))] = -c_long * assignment[(b, i)] if cancel else draw(coeffs)
    return BlockMultilinearForm(f.d, f.n, f.constant, terms), assignment


def _bits(g):
    return g.constant.hex(), [(key, c.hex()) for key, c in g.terms.items()]


@given(restriction_cases())
def test_restrict_matches_the_rebuilt_restriction_bit_for_bit(case):
    f, assignment = case
    g = f.restrict(assignment)
    want = oracles.restrict_rebuilt(f, assignment)
    assert list(g.terms.items()) == list(want.terms.items())
    assert _bits(g) == _bits(want)
    assert g == BlockMultilinearForm(g.d, g.n, g.constant, g.terms)
    for h in (f, g):
        assert h.influences().tobytes() == oracles.influences_itemwise(h).tobytes()


def test_restrict_cancels_and_sums_collisions_in_term_order():
    f = BlockMultilinearForm(2, 2, 0.125, {((0, 1), (0, 0)): 0.5, ((1,), (0,)): 0.25,
                                           ((0, 1), (1, 0)): -0.75, ((1,), (1,)): 1.0,
                                           ((0, 1), (0, 1)): 1.0})
    g = f.restrict({(0, 0): -1, (0, 1): 1})
    want = oracles.restrict_rebuilt(f, {(0, 0): -1, (0, 1): 1})
    # (1,)(0,) collects -0.5 + 0.25 - 0.75; (1,)(1,) cancels to an exact zero
    assert list(g.terms.items()) == [(((1,), (0,)), -1.0)]
    assert _bits(g) == _bits(want)


def _array_bits(view):
    rows = [((tuple(np.flatnonzero(r >= 0).tolist()), tuple(r[r >= 0].tolist())), c.hex())
            for r, c in zip(view.index, view.coeff.tolist())]
    return view.constant.hex(), rows


@given(restriction_cases())
def test_term_arrays_follow_one_variable_restrictions_bit_for_bit(case):
    # the walk's private array view, restricted one variable at a time,
    # holds the terms of the restricted form in order, with the same bits
    f, assignment = case
    g, view = f, forms._TermArrays(f)
    for (b, i), v in assignment.items():
        assert _array_bits(view) == _bits(g)
        assert view.variance().hex() == g.variance().hex()
        assert view.argmax_influence() == g.max_influence()[:2]
        g = g.restrict({(b, i): v})
        view.restrict(b, i, float(v))
    assert _array_bits(view) == _bits(g)
    assert view.variance().hex() == g.variance().hex()


def test_restrict_and_max_influence_skip_key_validation(monkeypatch):
    f = random_form(3, 4, 30, Seed(3), homogeneous=False)

    def refuse(*args):
        raise AssertionError("key validated")

    monkeypatch.setattr(forms, "_validate_key", refuse)
    g = f
    for _ in range(4):
        b, i, _ = g.max_influence()
        g = g.restrict({(b, i): -1.0})
    assert g.num_terms() < f.num_terms()
    assert len(f.leading_block_decomposition()) == 3
    with pytest.raises(AssertionError, match="key validated"):
        BlockMultilinearForm(1, 1, 0.0, {((0,), (0,)): 1.0})


@given(small_forms(), st.data())
def test_restriction_variance_identity(f, data):
    b = data.draw(st.integers(0, f.d - 1))
    i = data.draw(st.integers(0, f.n - 1))
    plus = f.restrict({(b, i): 1})
    minus = f.restrict({(b, i): -1})
    hat = f.terms.get(((b,), (i,)), 0.0)
    lhs = 0.5 * (plus.variance() + minus.variance())
    assert lhs == pytest.approx(f.variance() - hat * hat, rel=1e-9, abs=1e-9)


@given(small_forms(), st.integers(0, 2 ** 9 - 1), st.data())
def test_restrict_commutes_with_evaluate(f, point, data):
    x = sign_point(f.d, f.n, point % (1 << (f.d * f.n)))
    all_vars = [(b, i) for b in range(f.d) for i in range(f.n)]
    chosen = data.draw(st.lists(st.sampled_from(all_vars), unique=True, max_size=4))
    g = f.restrict({v: x[v] for v in chosen})
    assert g.evaluate(x) == pytest.approx(f.evaluate(x), rel=1e-9, abs=1e-9)


@given(small_forms(), st.integers(0, 2 ** 9 - 1))
def test_full_restriction_folds_to_evaluation(f, point):
    x = sign_point(f.d, f.n, point % (1 << (f.d * f.n)))
    g = f.restrict({(b, i): x[b, i] for b in range(f.d) for i in range(f.n)})
    assert g.num_terms() == 0
    assert g.constant == pytest.approx(f.evaluate(x), rel=1e-9, abs=1e-9)


# -- sup norm ---------------------------------------------------------------


@given(small_forms(max_d=2, max_n=2))
def test_sup_norm_matches_full_cube(f):
    assert f.sup_norm_bruteforce() == pytest.approx(
        oracles.sup_norm_bruteforce_naive(f), rel=1e-12, abs=1e-12)


def test_sup_norm_explicit_values():
    f = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (0, 0)): 1.0})
    assert f.sup_norm_bruteforce() == 1.0
    g = BlockMultilinearForm(1, 2, 0.5, {((0,), (0,)): 1.0})
    assert g.sup_norm_bruteforce() == 1.5
    assert BlockMultilinearForm(2, 2).sup_norm_bruteforce() == 0.0


def test_sup_norm_enumerates_support_only():
    # nominal variable count is huge; support has just two variables
    f = BlockMultilinearForm(3, 1000, 0.25, {((0, 2), (7, 900)): 1.5})
    assert f.sup_norm_bruteforce() == 1.75


def test_sup_norm_cap_counts_support_variables():
    n = 25
    f = BlockMultilinearForm(1, n, 0.0, {((0,), (i,)): 1.0 for i in range(n)})
    with pytest.raises(ValueError):
        f.sup_norm_bruteforce()
    assert f.sup_norm_bruteforce(cap=25) == float(n)


# -- structure ---------------------------------------------------------------


def test_leading_block_decomposition_explicit():
    f = BlockMultilinearForm(2, 1, 0.0, {((0,), (0,)): 1.0, ((1,), (0,)): 1.0,
                                         ((0, 1), (0, 0)): 1.0})
    f1, f2 = f.leading_block_decomposition()
    assert set(f1.terms) == {((0,), (0,)), ((0, 1), (0, 0))}
    assert set(f2.terms) == {((1,), (0,))}


@given(small_forms())
def test_leading_block_decomposition_reassembles(f):
    parts = f.leading_block_decomposition()
    assert len(parts) == f.d
    merged = {}
    for b, part in enumerate(parts):
        assert part.constant == 0.0
        for key, c in part.terms.items():
            assert key[0][0] == b
            merged[key] = c
    assert merged == f.terms
    # variance splits exactly across leading blocks
    assert sum(p.variance() for p in parts) == pytest.approx(f.variance(),
                                                             rel=1e-12, abs=1e-12)


def test_degree_homogeneity_support_flags():
    z = BlockMultilinearForm(2, 2)
    assert z.degree() == 0 and z.is_homogeneous() and z.support() == []
    c = BlockMultilinearForm(2, 2, 1.5)
    assert c.degree() == 0 and not c.is_homogeneous()
    f = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (0, 0)): 1.0})
    assert f.degree() == 2 and f.is_homogeneous()
    g = BlockMultilinearForm(2, 2, 0.0, {((1,), (0,)): 1.0})
    assert g.degree() == 1 and not g.is_homogeneous()
    assert g.support() == [(1, 0)]


# -- JSON interchange --------------------------------------------------------


@given(small_forms())
def test_json_round_trip(f):
    assert BlockMultilinearForm.from_json(f.to_json()) == f


def test_json_is_one_based_and_sorted():
    f = BlockMultilinearForm(2, 3, 0.25, {((1,), (2,)): -1.0,
                                          ((0, 1), (0, 1)): 2.0})
    data = json.loads(f.to_json())
    assert data["d"] == 2 and data["n"] == 3 and data["constant"] == 0.25
    assert data["terms"][0] == {"blocks": [1, 2], "indices": [1, 2], "coeff": 2.0}
    assert data["terms"][1] == {"blocks": [2], "indices": [3], "coeff": -1.0}


def test_from_dict_rejects_bad_payloads():
    with pytest.raises(ValueError):
        BlockMultilinearForm.from_dict({"d": 2, "n": 2})
    good = {"d": 1, "n": 1, "constant": 0.0,
            "terms": [{"blocks": [1], "indices": [1], "coeff": 1.0}]}
    dup = dict(good, terms=good["terms"] * 2)
    with pytest.raises(ValueError):
        BlockMultilinearForm.from_dict(dup)


@pytest.mark.parametrize("field", ["blocks", "indices", "coeff"])
def test_from_dict_rejects_term_without_field(field):
    term = {"blocks": [1], "indices": [1], "coeff": 1.0}
    del term[field]
    with pytest.raises(ValueError, match="malformed form payload"):
        BlockMultilinearForm.from_dict({"d": 1, "n": 2, "constant": 0, "terms": [term]})


@pytest.mark.parametrize("bad", [
    {"constant": float("nan")},
    {"constant": float("inf")},
    {"coeff": float("nan")},
    {"coeff": float("-inf")},
    {"blocks": [1.7]},
    {"indices": [1.7]},
    {"indices": ["1"]},
    {"n": 2.5},
])
def test_from_dict_rejects_non_finite_and_fractional_values(bad):
    term = {"blocks": [1], "indices": [1], "coeff": 1.0}
    data = {"d": 1, "n": 2, "constant": 0.0, "terms": [term]}
    for field, value in bad.items():
        (term if field in term else data)[field] = value
    with pytest.raises(ValueError, match="malformed form payload"):
        BlockMultilinearForm.from_dict(data)


def test_from_dict_accepts_integral_floats():
    data = {"d": 1.0, "n": 2, "constant": 0,
            "terms": [{"blocks": [1.0], "indices": [2], "coeff": 3}]}
    assert BlockMultilinearForm.from_dict(data) == BlockMultilinearForm(1, 2, 0.0, {((0,), (1,)): 3.0})


# -- generators ---------------------------------------------------------------


def test_random_form_is_deterministic_and_well_shaped():
    a = random_form(2, 3, 5, Seed(42))
    b = random_form(2, 3, 5, Seed(42))
    assert a == b
    assert a.num_terms() == 5
    assert a.is_homogeneous()
    assert all(0.3 <= abs(c) <= 1.0 for c in a.terms.values())
    c = random_form(2, 3, 5, Seed(43))
    assert a != c


def test_random_form_general_mode_and_infeasible_request():
    g = random_form(3, 2, 6, Seed(7), homogeneous=False)
    assert g.num_terms() == 6
    assert g.degree() <= 3
    with pytest.raises(ValueError):
        random_form(1, 1, 2, Seed(0))


class NoDraws:
    def rng(self):
        raise AssertionError("drew from the rng")


@pytest.mark.parametrize("d, n, homogeneous, cap", [(1, 2, True, 2), (3, 2, True, 8),
                                                     (1, 2, False, 2), (2, 2, False, 8)])
def test_random_form_refuses_more_terms_than_monomials_before_drawing(d, n, homogeneous, cap):
    full = random_form(d, n, cap, Seed(1), homogeneous=homogeneous)
    assert full.num_terms() == cap
    with pytest.raises(ValueError, match=f"cannot place {cap + 1} distinct monomials"):
        random_form(d, n, cap + 1, NoDraws(), homogeneous=homogeneous)
