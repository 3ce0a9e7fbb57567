"""Word reduction, star pairings, exact trace moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cbforms import (NCPolynomial, StarPairing, enumerate_star_pairings, fuss_catalan,
                     moment_upper_bound, reduce_word, trace_moment_exact)
from oracles import (consistent_pairings, make_word, moment_word, trace_inner_product,
                     word_trace)
from strategies import generator_polys, small_words


# -- word reduction ------------------------------------------------------------


def test_reduce_word_examples():
    u, us = (1, False), (1, True)
    v, vs = (2, False), (2, True)
    assert reduce_word((u, us)) == ()
    assert reduce_word((us, u)) == ()
    assert reduce_word((u, v, vs, us)) == ()
    assert reduce_word((u, v, us, vs)) == (u, v, us, vs)
    assert reduce_word((u, u, us)) == (u,)
    assert reduce_word(()) == ()
    # same generator, same star status is not cancellable
    assert reduce_word((u, u)) == (u, u)


@given(small_words())
def test_reduction_is_confluent(word):
    # cancelling adjacent inverse pairs in any order reaches the same
    # normal form the stack reducer produces
    rng = np.random.default_rng(0)
    expected = reduce_word(word)
    for _ in range(5):
        assert oracles.reduce_word_naive(word, rng=rng) == expected


def test_reduction_confluence_corpus():
    # large randomized corpus with randomized cancellation orders
    rng = np.random.default_rng(987)
    gens = rng.integers(1, 5, size=(100_000, 20))
    stars = rng.random((100_000, 20)) < 0.5
    lengths = rng.integers(0, 21, size=100_000)
    mismatches = 0
    for k in range(100_000):
        m = lengths[k]
        word = tuple((int(gens[k, j]), bool(stars[k, j])) for j in range(m))
        if oracles.reduce_word_naive(word, rng=rng) != reduce_word(word):
            mismatches += 1
    assert mismatches == 0


@given(small_words())
def test_reduced_words_are_irreducible(word):
    red = reduce_word(word)
    assert reduce_word(red) == red
    for a, b in zip(red, red[1:]):
        assert not (a[0] == b[0] and a[1] != b[1])


def test_word_trace():
    u, us = (1, False), (1, True)
    assert word_trace(()) == 1
    assert word_trace((u, us)) == 1
    assert word_trace((u,)) == 0
    assert word_trace((u, (2, False))) == 0


def test_moment_word_reverses_starred_copies():
    w = moment_word([(1, 2), (3, 4)])
    assert w == ((1, False), (2, False), (4, True), (3, True))
    w2 = moment_word([(1,), (1,)])
    assert w2 == ((1, False), (1, True))


def test_make_word_coerces_pairs():
    assert make_word([(1, 0), (2, 1)]) == ((1, False), (2, True))


# -- Fuss-Catalan counts ----------------------------------------------------------


FUSS_TABLE = {
    (1, 1): 1, (1, 2): 2, (1, 3): 5, (1, 4): 14,
    (2, 1): 1, (2, 2): 3, (2, 3): 12, (3, 4): 140,
    (3, 1): 1, (3, 2): 4, (3, 3): 22, (4, 2): 5,
}


def test_fuss_catalan_frozen_values():
    for (d, m), val in FUSS_TABLE.items():
        assert fuss_catalan(d, m) == val
    with pytest.raises(ValueError):
        fuss_catalan(0, 1)
    with pytest.raises(ValueError):
        fuss_catalan(1, 0)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                 (2, 2), (2, 3), (3, 1), (3, 2), (4, 1),
                                 (4, 2), (5, 1), (6, 1), (8, 1), (1, 5)])
def test_enumeration_count_matches_formula(d, m):
    assert len(enumerate_star_pairings(d, m)) == fuss_catalan(d, m)


@pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1), (3, 1), (1, 3),
                                 (2, 2), (4, 1), (5, 1), (1, 4), (1, 5)])
def test_enumeration_matches_naive_filter(d, m):
    got = [tuple(sorted(p.pairs)) for p in enumerate_star_pairings(d, m)]
    assert sorted(got) == oracles.star_pairings_naive(d, m)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_star_pairings(3, 5)


# -- StarPairing validation --------------------------------------------------------


def test_unique_pairing_small_case():
    ps = enumerate_star_pairings(2, 1)
    assert len(ps) == 1
    assert tuple(sorted(ps[0].pairs)) == ((0, 3), (1, 2))


def test_pairing_rejects_same_color_pair():
    # positions 0,1 both sit in the plain half when d=2, m=1
    with pytest.raises(ValueError):
        StarPairing(2, 1, ((0, 1), (2, 3)))


def test_pairing_rejects_crossing():
    # colors alternate correctly here but (0,2) crosses (1,3)
    with pytest.raises(ValueError):
        StarPairing(2, 2, ((0, 2), (1, 3), (4, 6), (5, 7)))


def test_pairing_rejects_bad_structure():
    with pytest.raises(ValueError):
        StarPairing(2, 1, ((0, 3), (1, 4)))       # out of range
    with pytest.raises(ValueError):
        StarPairing(2, 1, ((0, 3),))              # incomplete
    with pytest.raises(ValueError):
        StarPairing(2, 1, ((0, 3), (1, 2), (0, 3)))  # repeated


def test_pairing_to_lists():
    p = StarPairing(2, 1, ((1, 2), (0, 3)))
    assert p.to_lists() == [[1, 4], [2, 3]]


# -- consistent pairings -------------------------------------------------------------


def test_consistent_pairings_examples():
    w = moment_word([(1, 2), (1, 2)])         # u1 u2 u2* u1*
    got = consistent_pairings(w, 2, 1)
    assert [p.to_lists() for p in got] == [[[1, 4], [2, 3]]]
    # generators disagree across the unique color-legal matching
    assert consistent_pairings(moment_word([(1, 2), (3, 4)]), 2, 1) == []
    assert len(consistent_pairings(moment_word([(1, 1), (1, 1)]), 2, 1)) == 1


def test_consistent_pairings_validates_word_shape():
    with pytest.raises(ValueError):
        consistent_pairings(((1, False),) * 4, 2, 1)   # no starred half
    with pytest.raises(ValueError):
        consistent_pairings(((1, False), (1, True)), 2, 2)  # wrong length


def test_consistent_pairings_match_direct_filter():
    # exhaustive over all degree-2 moment words on two generators
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                for dgen in (1, 2):
                    w = moment_word([(a, b), (c, dgen)])
                    got = consistent_pairings(w, 2, 1)
                    ref = [p for p in enumerate_star_pairings(2, 1)
                           if all(w[x][0] == w[y][0] for x, y in p.pairs)]
                    assert len(got) == len(ref)


def test_trivial_trace_implies_consistent_pairing():
    # every length-8 moment word over two generators: the word reduces to
    # the identity iff some non-crossing color-respecting pairing matches
    # its generator labels
    import itertools

    monomials = list(itertools.product((1, 2), repeat=2))
    for quad in itertools.product(monomials, repeat=4):
        w = moment_word(list(quad))
        trivial = reduce_word(w) == ()
        found = consistent_pairings(w, 2, 2)
        if trivial:
            assert found, f"phi=1 but no consistent pairing for {w}"
        else:
            assert not found, f"phi=0 yet consistent pairing found for {w}"


# -- exact trace moments ---------------------------------------------------------------


def test_trace_moment_single_generator():
    p = NCPolynomial({(1, 2): 2.0})
    for m in (1, 2, 3):
        val = trace_moment_exact(p, m)
        assert val == 4 ** m
        assert isinstance(val, int)


def test_trace_moment_two_generators_frozen():
    p = NCPolynomial({(1,): 1.0, (2,): 1.0})
    assert trace_moment_exact(p, 1) == 2
    assert trace_moment_exact(p, 2) == 6
    assert trace_moment_exact(p, 3) == 20
    for m in (1, 2, 3):
        assert trace_moment_exact(p, m) == oracles.trace_moment_naive(p, m)


def test_trace_moment_float_coefficients():
    p = NCPolynomial({(1,): 0.5})
    val = trace_moment_exact(p, 1)
    assert val == pytest.approx(0.25, abs=1e-15)
    assert not isinstance(val, int)


def test_trace_moment_saturates_bound_at_degree_one():
    p = NCPolynomial({(1,): 1.0, (2,): 1.0, (3,): 1.0})
    assert trace_moment_exact(p, 1) == 3
    assert moment_upper_bound(p, 1) == 3


@given(generator_polys(), st.integers(1, 2))
@settings(max_examples=25)
def test_trace_moment_matches_naive(p, m):
    got = trace_moment_exact(p, m)
    ref = oracles.trace_moment_naive(p, m)
    assert isinstance(got, int)
    assert got == ref


@given(generator_polys(integers=False), st.integers(1, 2))
@settings(max_examples=25)
def test_trace_moment_matches_naive_floats(p, m):
    got = trace_moment_exact(p, m)
    ref = oracles.trace_moment_naive(p, m)
    assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-12)


@given(st.booleans().flatmap(lambda ints: generator_polys(
    max_deg=3, max_terms=4, integers=ints, first_label=st.integers(-3, 1))),
    st.integers(1, 4))
def test_trace_moment_matches_unpruned_transfer(p, m):
    # pruning dead prefixes must not change a single bit, floats included
    got = trace_moment_exact(p, m)
    ref = oracles.trace_moment_transfer(p, m)
    assert type(got) is type(ref) and got == ref


@given(generator_polys(), st.integers(1, 3))
@settings(max_examples=25)
def test_trace_moment_respects_upper_bound(p, m):
    assert trace_moment_exact(p, m) <= moment_upper_bound(p, m) + 1e-9


@given(generator_polys())
@settings(max_examples=25)
def test_first_moment_is_squared_norm(p):
    sq = sum(c * c for c in p.terms.values())
    assert trace_moment_exact(p, 1) == sq
    assert trace_inner_product(p, p) == sq


def test_trace_moment_validates_input():
    with pytest.raises(ValueError):
        trace_moment_exact(NCPolynomial({(1,): 1.0, (1, 2): 1.0}), 1)
    with pytest.raises(ValueError):
        trace_moment_exact(NCPolynomial({}, constant=1.0), 1)
    with pytest.raises(ValueError):
        trace_moment_exact(NCPolynomial({(True,): 1.0}), 1)
    with pytest.raises(ValueError):
        trace_moment_exact(NCPolynomial({("a",): 1.0}), 1)
    with pytest.raises(ValueError):
        trace_moment_exact(NCPolynomial({(1,): 1.0}), 0)


def test_trace_moment_cap():
    terms = {(i, j, k): 1.0 for i in range(1, 7) for j in range(1, 7)
             for k in range(1, 7)}
    p = NCPolynomial(terms)
    with pytest.raises(ValueError):
        trace_moment_exact(p, 4)  # 216^8 tuples is over the cap


def test_trace_inner_product_examples():
    p = NCPolynomial({(1, 2): 1.0})
    q = NCPolynomial({(2, 1): 1.0})
    assert trace_inner_product(p, p) == 1
    assert trace_inner_product(p, q) == 0
    a = NCPolynomial({(1,): 2.0, (2,): 3.0})
    b = NCPolynomial({(1,): 1.0, (2,): -1.0})
    val = trace_inner_product(a, b)
    assert val == -1
    assert isinstance(val, int)


def test_moment_upper_bound_value():
    p = NCPolynomial({(1,): 1.0, (2,): 1.0})
    val = moment_upper_bound(p, 2)
    assert val == 8  # catalan(2)=2 times (sum of squares)^2 = 4
    assert isinstance(val, int)


def test_exact_moments_match_matrix_traces_at_large_dimension():
    # free-probability moments are the N -> infinity limit of normalized
    # matrix traces; at N=1024 the gap is already far below 0.05
    from cbforms import Seed, evaluate_nc, haar_unitary

    dim = 1024
    rng = Seed(331).rng()
    haar = {g: haar_unitary(dim, rng) for g in (1, 2, 3)}
    gen = Seed(332).rng()
    for _ in range(8):
        d = int(gen.integers(1, 3))
        num_terms = int(gen.integers(1, 4))
        terms = {}
        while len(terms) < num_terms:
            word = tuple(int(g) for g in gen.integers(1, 4, size=d))
            terms[word] = float(gen.uniform(-1, 1))
        p = NCPolynomial(terms)
        mat = evaluate_nc(p, haar, dim=dim)
        gram = mat @ mat.conj().T
        tr1 = np.linalg.norm(mat, "fro") ** 2 / dim
        tr2 = np.linalg.norm(gram, "fro") ** 2 / dim
        assert abs(tr1 - trace_moment_exact(p, 1)) <= 0.05
        assert abs(tr2 - trace_moment_exact(p, 2)) <= 0.05


def test_sum_of_haar_unitaries_closed_forms():
    # u1 + u2 = u1 (1 + w) for a free Haar unitary w, so the moments of
    # p p* equal the arcsine moments of 2 + w + w*: the central binomials
    from math import comb

    p2 = NCPolynomial({(1,): 1.0, (2,): 1.0})
    for m in (1, 2, 3, 4):
        assert trace_moment_exact(p2, m) == comb(2 * m, m)
    # second moment of a sum of t generators: t^2 diagonal words plus
    # t(t-1) cyclic cancellations
    for t in (2, 3, 4):
        p = NCPolynomial({(g,): 1.0 for g in range(1, t + 1)})
        assert trace_moment_exact(p, 2) == 2 * t * t - t
