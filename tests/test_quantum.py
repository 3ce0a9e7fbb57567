"""Query circuits, amplitude extraction, structured examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbforms import (BlockMultilinearForm, QuantumQueryCircuit, addr_index, address_form,
                     extract_form, forrelation_circuit, random_circuit)
from cbforms.matnum import Seed, haar_orthogonal

from oracles import extract_form_fourier, identity_circuit


def sign_point(d, n, point):
    bits = (point >> np.arange(d * n)) & 1
    return np.where(bits, -1.0, 1.0).reshape(d, n)


# -- circuit construction -----------------------------------------------------


def _valid_parts(n=2, s=1, d=2, seed=0):
    rng = Seed(seed).rng()
    dim = n * s
    u = np.zeros(dim)
    u[0] = 1.0
    v = np.zeros(dim)
    v[-1] = 1.0
    mats = [haar_orthogonal(dim, rng) for _ in range(d)]
    return n, s, d, u, v, mats


def test_circuit_validates_vectors_and_unitaries():
    n, s, d, u, v, mats = _valid_parts()
    QuantumQueryCircuit(n, s, d, u, v, mats)
    with pytest.raises(ValueError):
        QuantumQueryCircuit(n, s, d, 2.0 * u, v, mats)
    with pytest.raises(ValueError):
        QuantumQueryCircuit(n, s, d, u, v, mats[:1])
    bad = [m.copy() for m in mats]
    bad[0][0, 0] += 0.01
    with pytest.raises(ValueError):
        QuantumQueryCircuit(n, s, d, u, v, bad)
    with pytest.raises(ValueError):
        QuantumQueryCircuit(n, s, d, u[:1], v, mats)
    with pytest.raises(ValueError):
        QuantumQueryCircuit(0, s, d, u, v, mats)


@given(st.integers(0, 2 ** 6 - 1))
def test_identity_circuit_amplitude(point):
    c = identity_circuit(2, 3, s=2)
    x = sign_point(3, 2, point)
    # the identity wiring reads coordinate 0 of every block
    assert c.amplitude(x) == pytest.approx(np.prod(x[:, 0]), abs=1e-12)


def test_amplitude_validates_input_shape():
    c = identity_circuit(2, 2)
    with pytest.raises(ValueError):
        c.amplitude(np.ones((3, 2)))
    with pytest.raises(ValueError):
        c.amplitude(np.ones(4))


def test_amplitudes_are_bounded_and_probability_valid():
    for seed in range(5):
        c = random_circuit(3, 2, 2, seed=Seed(seed))
        rng = Seed(seed + 100).rng()
        x = np.where(rng.random((2, 3)) < 0.5, -1.0, 1.0)
        a = c.amplitude(x)
        assert abs(a) <= 1.0 + 1e-12
        p = a ** 2
        assert 0.0 <= p <= 1.0 + 1e-12


def test_random_circuit_is_deterministic():
    a = random_circuit(2, 2, 3, seed=Seed(4))
    b = random_circuit(2, 2, 3, seed=Seed(4))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    for x, y in zip(a.unitaries, b.unitaries):
        assert np.array_equal(x, y)


# -- serialization -------------------------------------------------------------


def test_circuit_json_round_trip():
    c = random_circuit(2, 2, 2, seed=Seed(8))
    c2 = QuantumQueryCircuit.from_json(c.to_json())
    assert (c2.n, c2.s, c2.d) == (c.n, c.s, c.d)
    assert np.array_equal(c2.u, c.u)
    assert np.array_equal(c2.v, c.v)
    for m1, m2 in zip(c.unitaries, c2.unitaries):
        assert np.array_equal(m1, m2)
    x = np.where(Seed(9).rng().random((2, 2)) < 0.5, -1.0, 1.0)
    assert c2.amplitude(x) == c.amplitude(x)


def test_circuit_from_dict_missing_key():
    payload = random_circuit(2, 1, 2, seed=Seed(0)).to_dict()
    del payload["u"]
    with pytest.raises(ValueError):
        QuantumQueryCircuit.from_dict(payload)


# -- amplitude extraction ---------------------------------------------------------


@pytest.mark.parametrize("n,s,d", [(2, 1, 2), (2, 2, 2), (4, 1, 2),
                                   (2, 1, 3), (3, 2, 2), (4, 2, 2)])
def test_extraction_routes_agree(n, s, d):
    c = random_circuit(n, s, d, seed=Seed(17 * n + 3 * s + d))
    f = extract_form(c)
    ref = extract_form_fourier(c)
    assert f.d == d and f.n == n
    assert f.is_homogeneous()
    # reference route recovers the same coefficients
    assert abs(ref.constant) < 1e-12
    diffs = [abs(f.terms.get(k, 0.0) - v) for k, v in ref.terms.items()
             if len(k[0]) == d]
    partial = [abs(v) for k, v in ref.terms.items() if len(k[0]) < d]
    assert max(diffs, default=0.0) < 1e-12
    assert max(partial, default=0.0) < 1e-12
    assert len(f.terms) == len([k for k in ref.terms if len(k[0]) == d])
    # extracted form reproduces amplitudes
    rng = Seed(1000 + n).rng()
    for _ in range(8):
        x = np.where(rng.random((d, n)) < 0.5, -1.0, 1.0)
        assert f.evaluate(x) == pytest.approx(c.amplitude(x), abs=1e-12)
    assert f.variance() <= 1.0 + 1e-12


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_extracted_terms_pass_the_validating_constructor_bit_for_bit(s, d):
    f = extract_form(random_circuit(3, s, d, seed=Seed(40 + 10 * s + d)))
    rebuilt = BlockMultilinearForm(f.d, f.n, f.constant, f.terms)
    assert ([(key, c.hex()) for key, c in f.terms.items()]
            == [(key, c.hex()) for key, c in rebuilt.terms.items()])
    assert list(f.terms) == sorted(f.terms)  # C order of the coefficient tensor
    assert all(type(i) is int for _, indices in f.terms for i in indices)
    assert type(f.d) is int and type(f.n) is int and f.num_terms() == 3 ** d


def test_extraction_drops_exact_zero_coefficients():
    assert extract_form(identity_circuit(3, 3)).terms == {((0, 1, 2), (0, 0, 0)): 1.0}


def test_fourier_extraction_cap():
    c = random_circuit(8, 1, 3, seed=Seed(2))
    with pytest.raises(ValueError):
        extract_form_fourier(c)


# -- Forrelation ---------------------------------------------------------------------


def test_forrelation_frozen_coefficients():
    c = forrelation_circuit(4)
    f = extract_form(c)
    assert f.d == 2 and f.n == 4
    assert len(f.terms) == 16
    for (blocks, (i, j)), coeff in f.terms.items():
        assert blocks == (0, 1)
        expected = (-1) ** int(bin(i & j).count("1")) / 8.0
        assert coeff == pytest.approx(expected, abs=1e-12)
    assert f.variance() == pytest.approx(0.25, abs=1e-12)
    assert f.evaluate(np.ones((2, 4))) == pytest.approx(0.5, abs=1e-12)


def test_forrelation_two_bit_coefficients():
    f = extract_form(forrelation_circuit(2))
    want = 2.0 ** -1.5
    for (blocks, (i, j)), coeff in f.terms.items():
        assert abs(coeff) == pytest.approx(want, abs=1e-12)
        sign = -1.0 if (i & j) else 1.0
        assert np.sign(coeff) == sign
    assert f.evaluate(np.ones((2, 2))) == pytest.approx(2.0 ** -0.5, abs=1e-12)


def test_forrelation_chain_depth_three():
    c = forrelation_circuit(2, k=3)
    assert c.d == 3
    f = extract_form(c)
    assert f.is_homogeneous()
    ref = extract_form_fourier(c)
    for k, v in ref.terms.items():
        if len(k[0]) == 3:
            assert f.terms.get(k, 0.0) == pytest.approx(v, abs=1e-12)
        else:
            assert abs(v) < 1e-12


def test_forrelation_validates_arguments():
    with pytest.raises(ValueError):
        forrelation_circuit(3)      # needs a power of two
    with pytest.raises(ValueError):
        forrelation_circuit(4, k=1)


# -- address form ------------------------------------------------------------------


def test_addr_index_is_msb_first():
    assert addr_index((1, 0)) == 2
    assert addr_index((0, 1)) == 1
    assert addr_index(()) == 0
    assert addr_index((1, 1, 1)) == 7


def test_address_form_depth_one_terms():
    f = address_form(1)
    assert f.terms == {
        ((0, 1), (0, 0)): 0.5,
        ((0, 1), (0, 1)): 0.5,
        ((0, 1), (1, 0)): 0.5,
        ((0, 1), (1, 1)): -0.5,
    }


def test_address_form_frozen_profile():
    f = address_form(2)
    assert f.d == 3 and f.n == 4
    assert f.constant == 0.0
    assert f.is_homogeneous()
    assert len(f.terms) == 16
    assert all(abs(c) == 0.25 for c in f.terms.values())
    assert f.variance() == 1.0
    table = f.influences()
    assert np.all(table[2] == 0.25)           # address block, exact dyadic
    assert np.all(table[:2, :2] == 0.5)       # selector bits
    assert np.all(table[:2, 2:] == 0.0)
    assert f.max_influence() == (0, 0, 0.5)
    assert f.sup_norm_bruteforce() == 1.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_address_form_selects_one_branch(d):
    f = address_form(d)
    # on inputs whose selector entries are signs the form picks out a
    # single address variable, so |f| = 1 on the support cube
    sup_vars = sorted(f.support())
    for point in range(2 ** len(sup_vars)):
        x = np.ones((f.d, f.n))
        for j, (b, i) in enumerate(sup_vars):
            x[b, i] = 1.0 if (point >> j) & 1 == 0 else -1.0
        assert abs(f.evaluate(x)) == pytest.approx(1.0, abs=1e-12)


def test_address_influence_scaling():
    for d in (1, 2, 3, 4):
        f = address_form(d)
        table = f.influences()
        assert np.all(table[d] == 2.0 ** -d)
        assert np.sqrt(table[d]).sum() == pytest.approx(2 ** (d / 2), abs=1e-12)


def test_forrelation_chain_all_ones_closed_form():
    # at the all-ones input every oracle is the identity, so the amplitude
    # collapses to u H^(k-1) v; the Hadamard is an involution, giving
    # 1/sqrt(n) for even k and 1 for odd k
    assert abs(forrelation_circuit(4, k=3).amplitude(np.ones((3, 4))) - 1.0) <= 1e-12
    assert abs(forrelation_circuit(4, k=4).amplitude(np.ones((4, 4))) - 0.5) <= 1e-12
    assert abs(forrelation_circuit(4, k=5).amplitude(np.ones((5, 4))) - 1.0) <= 1e-12
