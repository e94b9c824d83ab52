"""Dense kernel: eigendecomposition, norms, arithmetic, and e^{-itH} as
ExactPropagator.unitary computes it."""

from __future__ import annotations

import numpy as np
import pytest

from chaoticity import linalg
from chaoticity.dynamics import ExactPropagator, MeanFieldSystem, build_hamiltonian
from chaoticity.errors import DimensionMismatch, NotHermitian

import oracles


def rand_herm(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def rand_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        linalg.as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[0, 0] = np.nan
    with pytest.raises(ValueError):
        linalg.as_matrix(m)


def test_herm_eigen_diagonal():
    vals, vecs = linalg.herm_eigen(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(vals, [1.0, 3.0])
    # eigenvectors are the swapped standard basis, up to phase
    assert np.allclose(np.abs(vecs), [[0, 1], [1, 0]])


def test_herm_eigen_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    vals, _ = linalg.herm_eigen(x)
    assert np.allclose(vals, [-1.0, 1.0])


def test_herm_eigen_reconstruction_and_unitarity():
    for seed in range(5):
        m = rand_herm(8, seed)
        vals, vecs = linalg.herm_eigen(m)
        assert np.all(np.diff(vals) >= -1e-14)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * 8
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(8))) <= 1e-10


def test_herm_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        linalg.herm_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


def test_trace_norm_orthogonal_difference():
    m = np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])
    assert abs(linalg.trace_norm(m.astype(complex)) - 2.0) <= 1e-12


def test_trace_norm_zero():
    assert linalg.trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_trace_norm_matches_eigen_oracle():
    for seed in range(6):
        m = rand_herm(4, seed)
        vals, _ = linalg.herm_eigen(m)
        want = float(np.sum(np.abs(vals)))
        got = linalg.trace_norm(m)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_trace_norm_general_matrix():
    # non-Hermitian path: sum of singular values
    for seed in range(4):
        m = rand_complex(5, seed)
        want = float(np.linalg.svd(m, compute_uv=False).sum())
        assert abs(linalg.trace_norm(m) - want) <= 1e-9


def test_trace_norm_triangle_inequality():
    for seed in range(5):
        a = rand_complex(4, 3 * seed)
        b = rand_complex(4, 3 * seed + 1)
        assert linalg.trace_norm(a + b) <= linalg.trace_norm(a) + linalg.trace_norm(b) + 1e-9


def test_trace_norm_unitary_invariance():
    for seed in range(4):
        m = rand_herm(5, seed)
        u = oracles.random_unitary(5, seed + 100)
        assert abs(linalg.trace_norm(u @ m @ u.conj().T) - linalg.trace_norm(m)) <= 1e-9


def test_operator_norm_identity():
    for dim in (1, 2, 7):
        assert abs(linalg.operator_norm(np.eye(dim, dtype=complex)) - 1.0) <= 1e-12


def test_operator_norm_diagonal():
    assert abs(linalg.operator_norm(np.diag([-5.0, 2.0]).astype(complex)) - 5.0) <= 1e-12


def test_operator_norm_matches_power_iteration():
    for seed in range(4):
        m = rand_complex(6, seed)
        want = oracles.power_iteration_norm(m, iters=8000, seed=seed)
        assert abs(linalg.operator_norm(m) - want) <= 1e-9 * max(1.0, want)


# e^{-itH} is ExactPropagator.unitary; on one site with no pair term its H
# is the one-body matrix itself.


def one_site_unitary(h, t):
    d = h.shape[0]
    return ExactPropagator(MeanFieldSystem(d, h, np.zeros((d * d, d * d))), 1).unitary(t)


def test_herm_expm_zero_hamiltonian():
    u = one_site_unitary(np.zeros((3, 3), dtype=complex), 1.7)
    assert np.allclose(u, np.eye(3), atol=1e-14)


def test_herm_expm_diagonal_pi():
    u = one_site_unitary(np.diag([np.pi, 0.0]).astype(complex), 1.0)
    assert np.allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)


def test_herm_expm_matches_taylor_oracle():
    for seed in range(4):
        h = rand_herm(4, seed)
        got = one_site_unitary(h, 0.3)
        want = oracles.taylor_expm(h, 0.3)
        assert np.max(np.abs(got - want)) <= 1e-9
    # with the pair term: H_3 of a d = 2 system, 8 x 8
    sys = MeanFieldSystem(2, rand_herm(2, 10), rand_herm(4, 11))
    prop = ExactPropagator(sys, 3)
    want = oracles.taylor_expm(build_hamiltonian(sys, 3), 0.3)
    assert np.max(np.abs(prop.unitary(0.3) - want)) <= 1e-9


def test_herm_expm_unitary_and_group_laws():
    for seed in range(3):
        h = rand_herm(4, seed)
        u = one_site_unitary(h, 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-9
        # inverse via time reversal
        assert np.max(np.abs(u @ one_site_unitary(h, -0.7) - np.eye(4))) <= 1e-9
        # additivity in t
        lhs = one_site_unitary(h, 1.1)
        rhs = one_site_unitary(h, 0.4) @ one_site_unitary(h, 0.7)
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_trace_of_identity():
    assert abs(np.trace(np.eye(4)) - 4.0) <= 1e-15


def test_trace_product_cyclic():
    for seed in range(5):
        a = rand_complex(5, seed)
        b = rand_complex(5, seed + 50)
        ab = linalg.trace_product(a, b)
        ba = linalg.trace_product(b, a)
        assert abs(ab - ba) <= 1e-12 * max(1.0, abs(ab))
        assert abs(ab - np.trace(a @ b)) <= 1e-12 * max(1.0, abs(ab))


def test_trace_product_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.trace_product(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_hermiticity_defect_and_is_hermitian():
    h = rand_herm(4, 2)
    assert linalg.is_hermitian(h)
    assert linalg.hermiticity_defect(h) <= 1e-14
    skew = h + 1e-6 * 1j * np.eye(4)
    assert not linalg.is_hermitian(skew)
