"""Seeded Haar sampling, polar factors, operator norms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbforms import (DEFAULT_DIM_SCHEDULE, Seed, haar_orthogonal, haar_unitary,
                     operator_norm_svd, polar, unitarity_residual)
from cbforms.matnum import _as_rng


# -- seeds ------------------------------------------------------------------


def test_seed_replay_is_bit_identical():
    a = Seed(12345, (1, 2)).rng().standard_normal(8)
    b = Seed(12345, (1, 2)).rng().standard_normal(8)
    assert np.array_equal(a, b)


def test_child_paths_are_independent_streams():
    assert Seed(7).child(1, 5) == Seed(7, (1, 5))
    a = Seed(7).child(1).rng().standard_normal(4)
    b = Seed(7).child(2).rng().standard_normal(4)
    assert not np.array_equal(a, b)


def test_seed_dict_round_trip():
    s = Seed(99, (3, 1))
    assert Seed.from_dict(s.to_dict()) == s
    assert Seed.from_dict({"master": 5}) == Seed(5)


def test_rng_coercion_accepts_int_seed_and_generator():
    assert np.array_equal(_as_rng(11).standard_normal(3),
                          Seed(11).rng().standard_normal(3))
    gen = np.random.default_rng(0)
    assert _as_rng(gen) is gen
    with pytest.raises(TypeError):
        _as_rng("not a seed")


def test_default_dim_schedule_is_doubling():
    assert DEFAULT_DIM_SCHEDULE == (64, 128, 256)


# -- Haar sampling ------------------------------------------------------------


@given(st.integers(1, 24), st.integers(0, 2 ** 31 - 1))
def test_haar_unitary_is_unitary(n, master):
    u = haar_unitary(n, Seed(master))
    assert u.shape == (n, n)
    assert unitarity_residual(u) < 1e-12


@given(st.integers(1, 24), st.integers(0, 2 ** 31 - 1))
def test_haar_orthogonal_is_real_orthogonal(n, master):
    q = haar_orthogonal(n, Seed(master))
    assert q.dtype.kind == "f"
    assert np.abs(q @ q.T - np.eye(n)).max() < 1e-12


def test_haar_draws_replay_from_seed():
    assert np.array_equal(haar_unitary(16, Seed(5)), haar_unitary(16, Seed(5)))
    assert np.array_equal(haar_orthogonal(16, Seed(5)), haar_orthogonal(16, Seed(5)))
    assert not np.array_equal(haar_unitary(16, Seed(5)), haar_unitary(16, Seed(6)))


def test_haar_dimension_one_is_a_uniform_phase():
    rng = Seed(3).rng()
    for _ in range(32):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-15


def test_haar_rejects_nonpositive_dimension():
    with pytest.raises(ValueError):
        haar_unitary(0, Seed(0))
    with pytest.raises(ValueError):
        haar_orthogonal(-1, Seed(0))


def test_haar_unitary_entry_statistics():
    # with the diagonal phase correction E[u_00] = 0 and E|u_00|^2 = 1/n;
    # without it the QR output has phase-aligned columns and the mean is
    # visibly biased away from zero
    n, trials = 4, 3000
    rng = Seed(2024).rng()
    entries = np.array([haar_unitary(n, rng)[0, 0] for _ in range(trials)])
    assert abs(entries.mean()) < 0.02            # ~5 standard errors
    assert abs(np.mean(np.abs(entries) ** 2) - 1.0 / n) < 0.02


def test_haar_orthogonal_entry_statistics():
    n, trials = 4, 3000
    rng = Seed(2025).rng()
    entries = np.array([haar_orthogonal(n, rng)[0, 0] for _ in range(trials)])
    assert abs(entries.mean()) < 0.03
    assert abs(np.mean(entries ** 2) - 1.0 / n) < 0.02


def test_haar_trace_mean_vanishes():
    n, trials = 64, 10_000
    rng = Seed(77).rng()
    traces = np.array([np.trace(haar_unitary(n, rng)) / n for _ in range(trials)])
    se = np.std(traces) / np.sqrt(trials)
    assert abs(traces.mean()) <= 3 * se + 1e-4


def test_haar_left_translation_invariance():
    # tr_N(U^k) statistics match those of VU for a fixed unitary V
    n, trials = 8, 10_000
    v = haar_unitary(n, Seed(31))
    rng = Seed(32).rng()
    stats = {k: [] for k in (1, 2, 3)}
    stats_v = {k: [] for k in (1, 2, 3)}
    for _ in range(trials):
        u = haar_unitary(n, rng)
        vu = v @ u
        p, pv = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
        for k in (1, 2, 3):
            p = p @ u
            pv = pv @ vu
            stats[k].append(np.trace(p) / n)
            stats_v[k].append(np.trace(pv) / n)
    for k in (1, 2, 3):
        a, b = np.array(stats[k]), np.array(stats_v[k])
        se = np.sqrt((np.var(a) + np.var(b)) / trials)
        assert abs(a.mean() - b.mean()) <= 4 * se + 1e-4


# -- polar decomposition -------------------------------------------------------


@given(st.integers(1, 6), st.integers(0, 10 ** 6), st.booleans(), st.booleans())
def test_polar_factors_reconstruct(n, master, cplx, left):
    rng = Seed(master).rng()
    m = rng.standard_normal((n, n))
    if cplx:
        m = m + 1j * rng.standard_normal((n, n))
    side = "left" if left else "right"
    pf = polar(m, side=side)
    assert pf.side == side
    recon = pf.unitary @ pf.psd if side == "left" else pf.psd @ pf.unitary
    assert np.allclose(recon, m, atol=1e-10)
    assert unitarity_residual(pf.unitary) < 1e-10
    assert np.allclose(pf.psd, pf.psd.conj().T, atol=1e-10)
    assert np.linalg.eigvalsh(pf.psd).min() > -1e-10


def test_polar_of_unitary_is_the_unitary_itself():
    u = haar_unitary(8, Seed(9))
    pf = polar(u)
    assert np.allclose(pf.unitary, u, atol=1e-12)
    assert np.allclose(pf.psd, np.eye(8), atol=1e-12)


def test_polar_of_rank_deficient_diagonal():
    pf = polar(np.diag([2.0, 0.0]))
    assert np.allclose(pf.unitary, np.eye(2), atol=1e-12)
    assert np.allclose(pf.psd, np.diag([2.0, 0.0]), atol=1e-12)


def test_polar_psd_ignores_left_unitary_factor():
    rng = Seed(13).rng()
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    v = haar_unitary(6, Seed(14))
    assert np.allclose(polar(v @ m).psd, polar(m).psd, atol=1e-9)


def test_polar_validates_inputs():
    with pytest.raises(ValueError):
        polar(np.ones((2, 3)))
    with pytest.raises(ValueError):
        polar(np.eye(2), side="sideways")


# -- operator norm ---------------------------------------------------------------


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 10 ** 6), st.booleans())
def test_operator_norm_matches_gram_spectrum(rows, cols, master, cplx):
    # the top singular value is the root of the top eigenvalue of m* m
    rng = Seed(master).rng()
    m = rng.standard_normal((rows, cols))
    if cplx:
        m = m + 1j * rng.standard_normal((rows, cols))
    ref = np.sqrt(np.linalg.eigvalsh(m.conj().T @ m).max())
    assert operator_norm_svd(m) == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_operator_norm_explicit_values():
    assert operator_norm_svd(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm_svd(np.diag([3.0, -1.0])) == pytest.approx(3.0, abs=1e-9)
    assert operator_norm_svd(np.zeros((3, 3))) == 0.0
    with pytest.raises(ValueError):
        operator_norm_svd(np.ones(4))


def test_operator_norm_is_unitarily_invariant():
    rng = Seed(21).rng()
    m = rng.standard_normal((16, 16))
    v = haar_unitary(16, Seed(22))
    assert operator_norm_svd(v @ m) == pytest.approx(operator_norm_svd(m), abs=1e-10)


def test_operator_norm_is_submultiplicative_on_samples():
    rng = Seed(23).rng()
    for _ in range(8):
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12))
        assert operator_norm_svd(a @ b) <= operator_norm_svd(a) * operator_norm_svd(b) + 1e-9


def test_operator_norm_handles_degenerate_top_space():
    # repeated top singular value
    m = np.diag([2.0, 2.0, 1.0])
    assert operator_norm_svd(m) == pytest.approx(2.0, abs=1e-12)


# -- unitarity residual ---------------------------------------------------------


def test_unitarity_residual_values():
    assert unitarity_residual(np.eye(4)) < 1e-15
    # (2I)(2I)* - I = 3I, whose Frobenius norm is 3 sqrt(4)
    assert unitarity_residual(2.0 * np.eye(4)) == pytest.approx(6.0, abs=1e-12)


@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1),
       st.sampled_from([None, 0.0, 1e-12, 1e-6, 1e-2]))
def test_unitarity_residual_brackets_spectral_distance(n, master, perturbation):
    # ||A||_2 <= ||A||_F <= sqrt(n) ||A||_2 for A = m m* - I; perturbation None
    # draws an arbitrary complex matrix, otherwise a Haar unitary plus noise
    rng = Seed(master).rng()
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = noise if perturbation is None else haar_unitary(n, rng) + perturbation * noise
    spectral = operator_norm_svd(m @ m.conj().T - np.eye(n))
    residual = unitarity_residual(m)
    assert spectral <= residual * (1 + 1e-12)
    assert residual <= np.sqrt(n) * spectral * (1 + 1e-12)
