"""Lower-bound witnesses: sign baseline, scalar phase, Haar-plus-polar."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbforms import (BlockMultilinearForm, NCPolynomial, Seed, WitnessReport,
                     address_form, evaluate_nc, form_to_ncpoly, general_form_witness,
                     influence_floor, polar, polar_witness, random_form,
                     root_influence_witness, scalar_phase_address_witness,
                     scalar_phase_assignment, sign_baseline)
from cbforms.matnum import operator_norm_svd

from oracles import evaluate_form
from strategies import small_forms


# -- influence floor -----------------------------------------------------------


def test_influence_floor_value():
    f = address_form(1)  # variance 1, three blocks total? no: d = 2
    assert influence_floor(f) == pytest.approx(1.0 / (math.e * 81), abs=1e-15)
    assert f.max_influence()[2] >= influence_floor(f)


def test_influence_floor_violated_by_unbounded_form():
    # d = 1 with n orthonormal coefficients has variance n but max
    # influence 1; large n pushes the floor above 1, flagging that the
    # form cannot have completely bounded norm <= 1
    terms = {((0,), (i,)): 1.0 for i in range(10)}
    f = BlockMultilinearForm(1, 10, 0.0, terms)
    assert influence_floor(f) > f.max_influence()[2]


# -- sign baseline ----------------------------------------------------------------


def test_sign_baseline_single_monomial():
    f = BlockMultilinearForm(2, 2, 0.0, {((0, 1), (0, 1)): 1.0})
    rep = sign_baseline(f, trials=64, seed=Seed(1))
    assert rep.method == "sign-baseline"
    assert rep.achieved == 1.0          # |coeff| survives every trial
    assert rep.target == pytest.approx(2.0 ** -0.5, abs=1e-12)
    assert rep.selected_block == 0
    assert rep.N == 1


def test_sign_baseline_on_address_form():
    rep = sign_baseline(address_form(2), trials=32, seed=Seed(2))
    # exactly one selector branch is live per trial, so the block total
    # is exactly 1 for every block on every sample
    assert rep.achieved == 1.0
    assert rep.target == 1.0            # address block: 4 * sqrt(1/4) / 2
    assert rep.selected_block == 2      # mean tie broken by larger target


def test_sign_baseline_validation_and_trivial_cases():
    with pytest.raises(ValueError):
        sign_baseline(BlockMultilinearForm(2, 1, 0.0, {((0,), (0,)): 1.0}),
                      trials=4, seed=Seed(0))
    with pytest.raises(ValueError):
        sign_baseline(address_form(1), trials=0, seed=Seed(0))
    rep = sign_baseline(BlockMultilinearForm(2, 2), trials=4, seed=Seed(0))
    assert rep.achieved == 0.0 and rep.target == 0.0
    assert rep.selected_block is None


def test_sign_baseline_is_deterministic():
    f = random_form(2, 3, num_terms=5, seed=Seed(7))
    a = sign_baseline(f, trials=50, seed=Seed(9))
    b = sign_baseline(f, trials=50, seed=Seed(9))
    assert a.achieved == b.achieved
    assert a.selected_block == b.selected_block


def test_sign_baseline_replays_from_seed():
    # reconstruct the sample stream and recompute the block means with
    # derivative evaluations instead of coefficient slices
    f = random_form(3, 3, num_terms=6, seed=Seed(11))
    trials = 40
    rep = sign_baseline(f, trials=trials, seed=Seed(13))

    rng = Seed(13).rng()
    sums = np.zeros(f.d)
    for _ in range(trials):
        x = 1.0 - 2.0 * rng.integers(0, 2, size=(f.d, f.n)).astype(float)
        for b in range(f.d):
            total = 0.0
            for i in range(f.n):
                hi, lo = x.copy(), x.copy()
                hi[b, i], lo[b, i] = 1.0, -1.0
                total += abs(f.evaluate(hi) - f.evaluate(lo)) / 2.0
            sums[b] += total
    means = sums / trials
    assert means.max() == pytest.approx(rep.achieved, rel=1e-9)


@given(small_forms(homogeneous=True, with_constant=False))
@settings(max_examples=20)
def test_sign_baseline_mean_clears_khintchine_floor(f):
    # exact expectation of the per-trial total is at least the target,
    # for every block; computed by brute-force cube enumeration
    if f.num_terms() == 0:
        return
    d, n = f.d, f.n
    inf = f.influences()
    points = [1.0 - 2.0 * ((p >> np.arange(d * n)) & 1).astype(float)
              for p in range(1 << (d * n))]
    for b in range(d):
        total = 0.0
        for flat in points:
            x = flat.reshape(d, n)
            for i in range(n):
                hi, lo = x.copy(), x.copy()
                hi[b, i], lo[b, i] = 1.0, -1.0
                total += abs(f.evaluate(hi) - f.evaluate(lo)) / 2.0
        mean = total / len(points)
        floor = 0.5 ** ((d - 1) / 2.0) * np.sqrt(inf[b]).sum()
        assert mean >= floor - 1e-9


# -- scalar phase -------------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_scalar_phase_achieves_root_n(d):
    rep = scalar_phase_address_witness(d)
    assert rep.method == "scalar-phase"
    assert abs(rep.achieved - 2.0 ** (d / 2.0)) < 1e-12
    assert rep.target == 2.0 ** (d / 2.0)
    assert rep.unitarity_residual < 1e-12
    assert rep.selected_block == d
    assert rep.N == 1
    assert rep.seed is None


# the parent route multiplied the phases term by term; evaluate_nc on 1x1
# matrices must give the same floats
_SCALAR_PHASE_HEX = {
    1: "0x1.6a09e667f3bccp+0", 2: "0x1.0000000000000p+1", 3: "0x1.6a09e667f3bcap+1",
    4: "0x1.0000000000000p+2", 5: "0x1.6a09e667f3beap+2", 6: "0x1.0000000000000p+3",
    7: "0x1.6a09e667f3ad1p+3",
}


@pytest.mark.parametrize("d", sorted(_SCALAR_PHASE_HEX))
def test_scalar_phase_value_is_pinned(d):
    assert scalar_phase_address_witness(d).achieved.hex() == _SCALAR_PHASE_HEX[d]


def test_scalar_phase_assignment_is_unimodular():
    for d in (1, 2, 3):
        assign = scalar_phase_assignment(d)
        assert all(abs(abs(z) - 1.0) < 1e-14 for z in assign.values())
        # every address variable gets a phase
        assert all((d, a) in assign for a in range(1 << d))


# -- polar witness -------------------------------------------------------------------


def test_polar_witness_single_product():
    p = NCPolynomial({(1, 2): 1.0})
    rep, assignment = polar_witness(p, [1], dim=16, seed=Seed(0))
    assert rep.method == "polar-homogeneous"
    assert rep.achieved == pytest.approx(1.0, abs=1e-10)
    assert rep.N == 16
    assert rep.unitarity_residual < 1e-10
    assert set(assignment) == {1, 2}


def test_polar_witness_two_orthogonal_products():
    p = NCPolynomial({(1, 3): 1.0, (2, 4): 1.0})
    rep, assignment = polar_witness(p, [1, 2], dim=64, seed=Seed(1))
    # both products collapse to the identity, so the sum is exactly 2I
    assert rep.achieved == pytest.approx(2.0, abs=1e-9)
    assert rep.achieved >= 1.8
    val = evaluate_nc(p, assignment, dim=64)
    assert np.allclose(val, 2.0 * np.eye(64), atol=1e-9)


def test_polar_witness_with_constant_term():
    p = NCPolynomial({(1, 2): 1.0}, constant=1.0)
    rep, _ = polar_witness(p, [1], dim=32, seed=Seed(2))
    assert rep.method == "polar-general"
    assert rep.achieved == pytest.approx(2.0, abs=1e-9)
    assert rep.achieved >= 1.0


def test_polar_witness_accepts_block_index_variables():
    p = NCPolynomial({((0, 0), (1, 0)): 1.0, ((0, 1), (1, 1)): 1.0})
    rep, _ = polar_witness(p, [(0, 0), (0, 1)], dim=32, seed=Seed(3))
    assert rep.achieved == pytest.approx(2.0, abs=1e-9)


def test_polar_witness_right_side_mirror():
    p = NCPolynomial({(2, 1): 1.0})
    rep, _ = polar_witness(p, [1], dim=16, seed=Seed(4), side="right")
    assert rep.achieved == pytest.approx(1.0, abs=1e-10)


def test_polar_witness_validation():
    p = NCPolynomial({(1, 2): 1.0})
    with pytest.raises(ValueError):
        polar_witness(NCPolynomial({(1, 2): 1.0, (3, 1): 1.0}), [1], 8, Seed(0))
    with pytest.raises(ValueError):
        polar_witness(p, [1], 8, Seed(0), side="middle")
    with pytest.raises(ValueError):
        polar_witness(p, [1], 0, Seed(0))


def test_polar_witness_idle_outer_variable_gets_identity():
    p = NCPolynomial({(1, 2): 1.0})
    _, assignment = polar_witness(p, [1, 5], dim=8, seed=Seed(5))
    assert np.array_equal(assignment[5], np.eye(8, dtype=complex))


def test_polar_witness_assignment_certifies_report():
    f = random_form(2, 3, num_terms=5, seed=Seed(20))
    p = form_to_ncpoly(f)
    outer = [(0, i) for i in range(3) if f.influences()[0, i] > 0]
    rep, assignment = polar_witness(p, outer, dim=48, seed=Seed(21))
    # the assignment is the witness: contractive and attaining the norm
    assert rep.unitarity_residual < 1e-8
    val = evaluate_nc(p, assignment, dim=48)
    assert operator_norm_svd(val) == pytest.approx(rep.achieved, rel=1e-9)


# constant 0.7 and the degree-1 terms give nonzero q_0 and a constant-only
# q_i on either side; index 2 is idle in both outer blocks
_CONSTANT_ONLY_FORM = BlockMultilinearForm(2, 3, 0.7, {((0,), (0,)): 1.5,
                                                       ((0, 1), (1, 1)): 1.0,
                                                       ((1,), (0,)): -2.0})
_ZERO_Q0_FORM = BlockMultilinearForm(2, 3, 0.0, {((0, 1), (1, 1)): 1.0,
                                                 ((0, 1), (1, 0)): -0.5,
                                                 ((0, 1), (0, 0)): 2.0})


@settings(max_examples=30)
@given(f=st.one_of(small_forms(homogeneous=True, with_constant=False), small_forms()),
       left=st.booleans(), dim=st.integers(1, 12), master=st.integers(0, 2 ** 31 - 1))
@example(f=_CONSTANT_ONLY_FORM, left=True, dim=8, master=0)
@example(f=_CONSTANT_ONLY_FORM, left=False, dim=8, master=1)
@example(f=_ZERO_Q0_FORM, left=True, dim=8, master=2)
@example(f=_ZERO_Q0_FORM, left=False, dim=8, master=3)
def test_polar_witness_value_is_the_form_at_its_assignment(f, left, dim, master):
    # the report assembles m_0 + sum_i V_i M_i from the blocks; both full
    # evaluations of p at the returned assignment must give the same norm
    b = 0 if left else f.d - 1
    outer = [(b, i) for i in range(f.n)]
    p = form_to_ncpoly(f)
    rep, assignment = polar_witness(p, outer, dim, Seed(master),
                                    side="left" if left else "right")
    assert rep.achieved == pytest.approx(
        operator_norm_svd(evaluate_nc(p, assignment, dim=dim)), rel=1e-12)
    assert rep.achieved == pytest.approx(
        operator_norm_svd(evaluate_form(f, assignment, dim)), rel=1e-12)


@settings(max_examples=20)
@given(f=small_forms(homogeneous=True, with_constant=False), left=st.booleans(),
       dim=st.integers(1, 8), master=st.integers(0, 2 ** 31 - 1))
@example(f=_ZERO_Q0_FORM, left=True, dim=8, master=2)
@example(f=_ZERO_Q0_FORM, left=False, dim=8, master=3)
def test_homogeneous_polar_witness_outer_unitaries_are_polar_adjoints(f, left, dim, master):
    # q_0 is zero, so each outer variable is the polar unitary of its
    # block M_i, conjugate-transposed, bit for bit
    side = "left" if left else "right"
    b = 0 if left else f.d - 1
    outer = [(b, i) for i in range(f.n)]
    p = form_to_ncpoly(f)
    _, assignment = polar_witness(p, outer, dim, Seed(master), side=side)
    for y in outer:
        rest = [(w[1:] if left else w[:-1], c) for w, c in p.terms.items()
                if (w[0] if left else w[-1]) == y]
        if not rest:
            continue
        q = NCPolynomial({w: c for w, c in rest if w}, sum(c for w, c in rest if not w))
        m = evaluate_nc(q, assignment, dim=dim)
        assert np.array_equal(assignment[y], polar(m).conj().T)


def test_polar_witness_is_deterministic():
    p = NCPolynomial({(1, 2): 1.0, (3, 2): -0.5})
    a, _ = polar_witness(p, [1, 3], dim=32, seed=Seed(6))
    b, _ = polar_witness(p, [1, 3], dim=32, seed=Seed(6))
    assert a.achieved == b.achieved
    assert a.unitarity_residual == b.unitarity_residual


# -- root influence witness ------------------------------------------------------------


def test_root_influence_single_monomial():
    f = BlockMultilinearForm(2, 1, 0.0, {((0, 1), (0, 0)): 1.0})
    rep = root_influence_witness(f, schedule=(8,), seed=Seed(0))
    assert rep.achieved == pytest.approx(1.0, abs=1e-10)
    assert rep.target == pytest.approx(1.0 / math.sqrt(3 * math.e), abs=1e-12)
    assert rep.selected_block == 0
    rep_last = root_influence_witness(f, side="last", schedule=(8,), seed=Seed(0))
    assert rep_last.achieved == pytest.approx(1.0, abs=1e-10)
    assert rep_last.selected_block == 1


def test_root_influence_on_address_form():
    f = address_form(2)
    rep = root_influence_witness(f, side="last", schedule=(32, 64), seed=Seed(3))
    assert rep.selected_block == 2
    assert rep.target == pytest.approx(2.0 / math.sqrt(4 * math.e), abs=1e-12)
    assert rep.achieved >= rep.target
    assert rep.N in (32, 64)
    assert rep.unitarity_residual < 1e-8


@pytest.mark.parametrize("seed", [5, 6])
def test_root_influence_clears_target_on_random_forms(seed):
    f = random_form(3, 4, num_terms=10, seed=Seed(seed))
    rep = root_influence_witness(f, schedule=(64, 128), seed=Seed(100 + seed))
    assert rep.achieved >= rep.target
    assert rep.method == "polar-homogeneous"


def test_root_influence_validation_and_zero_form():
    with pytest.raises(ValueError):
        root_influence_witness(address_form(1), side="middle")
    inhom = BlockMultilinearForm(2, 1, 0.0, {((0,), (0,)): 1.0})
    with pytest.raises(ValueError):
        root_influence_witness(inhom)
    rep = root_influence_witness(BlockMultilinearForm(2, 2), schedule=(8,))
    assert rep.achieved == 0.0 and rep.target == 0.0


@pytest.mark.parametrize("schedule", [(), (0,), (16, -8)])
def test_schedule_is_validated_before_early_returns(schedule):
    # the zero form and the constant form both take an early return
    with pytest.raises(ValueError, match="schedule"):
        root_influence_witness(BlockMultilinearForm(2, 2), schedule=schedule)
    with pytest.raises(ValueError, match="schedule"):
        general_form_witness(BlockMultilinearForm(1, 1, 0.5), schedule=schedule)
    with pytest.raises(ValueError, match="schedule"):
        general_form_witness(address_form(1), schedule=schedule)


def test_root_influence_is_deterministic():
    f = random_form(2, 3, num_terms=6, seed=Seed(30))
    a = root_influence_witness(f, schedule=(16, 32), seed=Seed(31))
    b = root_influence_witness(f, schedule=(16, 32), seed=Seed(31))
    assert a.achieved == b.achieved
    assert a.N == b.N and a.seed == b.seed


# -- general form witness ----------------------------------------------------------------


def test_general_witness_zero_variance():
    f = BlockMultilinearForm(2, 2, constant=-1.5, terms={})
    rep = general_form_witness(f, schedule=(8,))
    assert rep.achieved == 1.5
    assert rep.target == 0.0
    assert rep.selected_block is None


def test_general_witness_picks_dominant_leading_block():
    f = BlockMultilinearForm(2, 1, 0.0, {((0, 1), (0, 0)): 0.1,
                                         ((1,), (0,)): 5.0})
    rep = general_form_witness(f, schedule=(16,), seed=Seed(1))
    assert rep.selected_block == 1
    assert rep.achieved == pytest.approx(5.0, abs=1e-9)
    assert rep.method == "polar-general"


def test_general_witness_reduces_to_root_witness_when_homogeneous():
    f = random_form(3, 3, num_terms=8, seed=Seed(40))
    a = general_form_witness(f, schedule=(16, 32), seed=Seed(41))
    b = root_influence_witness(f, schedule=(16, 32), seed=Seed(41))
    # identical construction, identical seeds: bit-identical values
    assert a.achieved == b.achieved
    assert a.N == b.N
    assert a.selected_block == b.selected_block == 0
    assert a.achieved >= a.target


def test_general_witness_reports_its_own_method_on_homogeneous_forms():
    # the polar run itself labels a homogeneous polynomial polar-homogeneous;
    # the general construction must still name itself
    f = random_form(2, 3, num_terms=5, seed=Seed(60))
    assert general_form_witness(f, schedule=(8,), seed=Seed(61)).method == "polar-general"
    assert root_influence_witness(f, schedule=(8,), seed=Seed(61)).method == "polar-homogeneous"


def test_general_witness_is_deterministic():
    f = random_form(2, 3, num_terms=5, seed=Seed(50), homogeneous=False)
    a = general_form_witness(f, schedule=(16,), seed=Seed(51))
    b = general_form_witness(f, schedule=(16,), seed=Seed(51))
    assert a.achieved == b.achieved


def test_witness_value_stabilizes_along_dimension_schedule():
    f = random_form(3, 4, num_terms=10, seed=Seed(42))
    medians = []
    for dim in (64, 128, 256):
        vals = [root_influence_witness(f, schedule=(dim,), seed=Seed(s)).achieved
                for s in range(8)]
        medians.append(float(np.median(vals)))
    assert medians[0] <= medians[1] + 1e-9
    assert medians[1] <= medians[2] + 1e-9


# -- reports -------------------------------------------------------------------------------


def test_report_validates_method():
    with pytest.raises(ValueError):
        WitnessReport(method="magic", achieved=1.0, target=0.5, N=1,
                      seed=None, unitarity_residual=0.0)


def test_report_serialization():
    rep = WitnessReport(method="polar-homogeneous", achieved=2.0, target=1.0,
                        N=64, seed=Seed(3, (64,)), unitarity_residual=1e-13,
                        selected_block=0)
    full = rep.to_dict()
    assert list(full) == ["method", "achieved", "target", "N", "seed",
                          "unitarity_residual", "selected_block"]
    assert full["selected_block"] == 1          # 1-based outside
    assert full["seed"] == {"master": 3, "path": [64]}
    rep2 = WitnessReport(method="scalar-phase", achieved=1.0, target=1.0,
                         N=1, seed=None, unitarity_residual=0.0)
    d = rep2.to_dict()
    assert d["seed"] is None and d["selected_block"] is None
