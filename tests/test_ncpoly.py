"""Noncommutative polynomials and matrix evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from cbforms import (BlockMultilinearForm, NCPolynomial, address_form, evaluate_nc,
                     form_to_ncpoly, operator_norm_svd, scalar_phase_assignment)
from cbforms.witness import _split_outer

from strategies import small_forms


# -- construction ------------------------------------------------------------


def test_rejects_empty_word():
    with pytest.raises(ValueError):
        NCPolynomial({(): 1.0})


def test_drops_zero_coefficients():
    p = NCPolynomial({(1,): 0.0, (2,): 3.0})
    assert (1,) not in p.terms
    assert p.terms[(2,)] == 3.0


def test_degree_and_homogeneity():
    p = NCPolynomial({(1, 2): 1.0, (1,): 2.0})
    assert p.degree() == 2
    assert not p.is_homogeneous()
    q = NCPolynomial({(1, 1): 1.0, (2, 1): -1.0})  # repeated generator is fine
    assert q.degree() == 2
    assert q.is_homogeneous()
    assert NCPolynomial({}, constant=1.5).degree() == 0
    assert NCPolynomial({}).is_zero()
    assert not NCPolynomial({}, constant=0.5).is_zero()


def test_variables_sorted():
    p = NCPolynomial({(3, 1): 1.0, (2,): 1.0})
    assert p.variables() == [1, 2, 3]


def test_l2_norm_includes_constant():
    p = NCPolynomial({(1,): 2.0, (1, 2): -1.0}, constant=0.5)
    assert p.l2_norm() == pytest.approx(np.sqrt(5.25), abs=1e-15)


# -- evaluation ---------------------------------------------------------------


@given(st.dictionaries(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       st.floats(-2, 2, allow_nan=False), max_size=5),
       st.floats(-2, 2, allow_nan=False),
       st.lists(st.floats(-2, 2, allow_nan=False), min_size=3, max_size=3))
def test_scalar_evaluation_matches_direct_sum(raw_terms, constant, vals):
    terms = {w: c for w, c in raw_terms.items() if c != 0.0}
    p = NCPolynomial(terms, constant=constant)
    assignment = {g: np.array([[vals[g - 1]]]) for g in (1, 2, 3)}
    out = evaluate_nc(p, assignment, dim=1)
    expected = constant + sum(c * np.prod([vals[g - 1] for g in w])
                              for w, c in terms.items())
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_word_order_matters():
    up = np.array([[0.0, 1.0], [0.0, 0.0]])
    dn = np.array([[0.0, 0.0], [1.0, 0.0]])
    xy = evaluate_nc(NCPolynomial({(1, 2): 1.0}), {1: up, 2: dn})
    yx = evaluate_nc(NCPolynomial({(2, 1): 1.0}), {1: up, 2: dn})
    assert np.allclose(xy, np.diag([1.0, 0.0]))
    assert np.allclose(yx, np.diag([0.0, 1.0]))


def test_constant_polynomial_needs_explicit_dim():
    p = NCPolynomial({}, constant=2.0)
    assert np.allclose(evaluate_nc(p, {}, dim=3), 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        evaluate_nc(p, {})


def test_evaluation_validates_assignment():
    p = NCPolynomial({(1, 2): 1.0})
    eye = np.eye(2)
    with pytest.raises(ValueError):
        evaluate_nc(p, {1: eye})                      # var 2 missing
    with pytest.raises(ValueError):
        evaluate_nc(p, {1: np.ones((2, 3)), 2: eye})  # non-square
    with pytest.raises(ValueError):
        evaluate_nc(p, {1: eye, 2: np.eye(3)})        # mixed dims
    with pytest.raises(ValueError):
        evaluate_nc(p, {1: eye, 2: eye}, dim=3)       # dim conflict


# -- bridging from forms -------------------------------------------------------


@given(small_forms())
def test_form_to_ncpoly_agrees_on_sign_assignments(f):
    p = form_to_ncpoly(f)
    rng = np.random.default_rng(0)
    x = np.where(rng.random((f.d, f.n)) < 0.5, -1.0, 1.0)
    assignment = {(b, i): np.array([[x[b, i]]]) for b in range(f.d)
                  for i in range(f.n)}
    out = evaluate_nc(p, assignment, dim=1)
    assert out[0, 0] == pytest.approx(f.evaluate(x), rel=1e-12, abs=1e-12)


def test_form_to_ncpoly_word_structure():
    f = BlockMultilinearForm(2, 2, 0.5, {((0, 1), (0, 1)): 2.0})
    p = form_to_ncpoly(f)
    assert p.constant == 0.5
    assert p.terms == {((0, 0), (1, 1)): 2.0}


# -- forms at matrices ------------------------------------------------------------


@given(small_forms(max_d=2, max_n=2, max_terms=4))
def test_evaluate_form_matches_manual_route(f):
    # evaluate_nc on the form's polynomial view against a plain product loop
    rng = np.random.default_rng(3)
    mats = {(b, i): rng.standard_normal((2, 2)) for b in range(f.d)
            for i in range(f.n)}
    out = oracles.evaluate_form(f, mats, 2)
    ref = evaluate_nc(form_to_ncpoly(f), mats, dim=2)
    assert np.allclose(out, ref, atol=1e-12)


def test_evaluate_form_missing_variable():
    f = BlockMultilinearForm(1, 2, 0.0, {((0,), (0,)): 1.0, ((0,), (1,)): 1.0})
    mats = {(0, 0): np.eye(2)}
    with pytest.raises(ValueError):
        evaluate_nc(form_to_ncpoly(f), mats)
    with pytest.raises(ValueError):
        oracles.evaluate_form(f, mats, 2)


def test_scalar_phase_assignment_drives_address_form():
    for d in (1, 2, 3):
        f = address_form(d)
        mats = {v: np.array([[z]]) for v, z in scalar_phase_assignment(d).items()}
        assert max(operator_norm_svd(m) for m in mats.values()) <= 1.0 + 1e-9
        out = evaluate_nc(form_to_ncpoly(f), mats)
        assert abs(out[0, 0]) == pytest.approx(2 ** (d / 2), abs=1e-12)
        assert np.allclose(out, oracles.evaluate_form(f, mats, 1), atol=1e-12)


def test_split_outer_slices_carry_influence():
    # the coefficient polynomial of each first-block variable has
    # squared 2-norm equal to that variable's influence
    f = BlockMultilinearForm(2, 2, 0.0, {
        ((0, 1), (0, 0)): 1.0,
        ((0, 1), (0, 1)): -2.0,
        ((0, 1), (1, 0)): 0.5,
    })
    p = form_to_ncpoly(f)
    outer = [(0, 0), (0, 1)]
    slices, rest = _split_outer(p, outer, "left")
    for i in (0, 1):
        assert slices[(0, i)].l2_norm() ** 2 == pytest.approx(
            f.influences()[0, i], abs=1e-12)
    assert rest.is_zero()
