"""Tensor structure: kron, permutation conjugation, partial trace, and the
_add_on_sites scatter that places every site operator."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from chaoticity import linalg, tensor
from chaoticity.errors import BadSiteIndex, DimensionMismatch, MemoryBudgetExceeded
from chaoticity.states import random_density
from chaoticity.tensor import TensorShape

import oracles


def rand_complex(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def embed(b, sites, shape, scale=1.0):
    """scale * (b on the ordered sites, identity elsewhere), by the production scatter."""
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    tensor._add_on_sites(out, np.asarray(b, dtype=np.complex128), sites, shape, scale)
    return out


def inverse_image(image):
    """Image of p^{-1}: the site whose content p moves to s, for s = 1..N."""
    inv = [0] * len(image)
    for site, target in enumerate(image, start=1):
        inv[target - 1] = site
    return tuple(inv)


def naive_unitaries(image, d):
    """(U_p, U_{p^{-1}}) from the digit-loop oracle."""
    return (oracles.naive_permutation_unitary(image, d),
            oracles.naive_permutation_unitary(inverse_image(image), d))


# ---------------------------------------------------------------- shapes


def test_shape_budget():
    TensorShape(2, 12)  # 4096 exactly, allowed
    with pytest.raises(MemoryBudgetExceeded):
        TensorShape(2, 13)
    with pytest.raises(MemoryBudgetExceeded):
        TensorShape(3, 10)


def test_shape_total_dim_and_reduced():
    s = TensorShape(3, 4)
    assert s.total_dim == 81
    assert s.reduced(2).sites == 2
    assert s.reduced(2).d == 3


# ---------------------------------------------------------------- permutations


def test_permutation_rejects_non_bijection():
    shape = TensorShape(2, 3)
    m = rand_complex(8, 8)
    with pytest.raises(ValueError):
        tensor.conjugate_by_permutation(m, (1, 1, 3), shape)
    with pytest.raises(DimensionMismatch):
        tensor.conjugate_by_permutation(m, (2, 1), shape)


def test_permutation_compose_inverse_identity():
    # conjugating by p and then by p^{-1} is the identity map
    p = (2, 3, 1)
    q = inverse_image(p)
    assert q == (3, 1, 2)
    shape = TensorShape(2, 3)
    m = rand_complex(8, 8)
    there = tensor.conjugate_by_permutation(m, p, shape)
    assert np.array_equal(tensor.conjugate_by_permutation(there, q, shape), m)


# ---------------------------------------------------------------- kron


def test_kron_identities():
    got = tensor.kron(np.eye(2, dtype=complex), np.eye(2, dtype=complex))
    assert np.array_equal(got, np.eye(4))


def test_kron_diagonal():
    got = tensor.kron(np.diag([2.0, 3.0]).astype(complex), np.diag([5.0, 7.0]).astype(complex))
    assert np.allclose(got, np.diag([10.0, 14.0, 15.0, 21.0]))


def test_kron_trace_multiplicative():
    a = rand_complex(3, 0)
    b = rand_complex(3, 1)
    got = np.trace(tensor.kron(a, b))
    assert abs(got - np.trace(a) * np.trace(b)) <= 1e-12 * max(1.0, abs(got))


def test_kron_matches_index_oracle():
    a = rand_complex(2, 2)
    b = rand_complex(3, 3)
    assert np.allclose(tensor.kron(a, b), oracles.naive_kron(a, b), atol=1e-14)
    c = rand_complex(2, 5)
    assert np.allclose(tensor.kron(a, b, c), oracles.naive_kron_chain([a, b, c]), atol=1e-13)


def test_kron_budget():
    with pytest.raises(MemoryBudgetExceeded):
        tensor.kron(np.eye(64, dtype=complex), np.eye(65, dtype=complex))
    with pytest.raises(MemoryBudgetExceeded):
        tensor.kron(np.eye(4), np.eye(4), np.eye(4), max_dim=63)
    with pytest.raises(ValueError):
        tensor.kron()


def test_tensor_power():
    a = rand_complex(2, 4)
    assert np.allclose(
        tensor.tensor_power(a, 3), oracles.naive_kron_chain([a, a, a]), atol=1e-13
    )


# ---------------------------------------------------------------- permutation conjugation
# conjugate_by_permutation(M, p) = U_{p^{-1}} M U_p by re-indexing; U_p itself
# is built only by the digit-loop oracle.


def test_permutation_unitary_identity():
    shape = TensorShape(2, 3)
    m = rand_complex(8, 100)
    assert np.array_equal(tensor.conjugate_by_permutation(m, (1, 2, 3), shape), m)


def test_permutation_unitary_swap_example():
    # the swap on d=2, N=2 exchanges e0 ox e1 (index 1) and e1 ox e0 (index 2)
    shape = TensorShape(2, 2)
    swap = (2, 1)
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0
    m[0, 0] = m[3, 1] = 2.0
    got = tensor.conjugate_by_permutation(m, swap, shape)
    want = np.zeros((4, 4), dtype=complex)
    want[2, 1] = 1.0
    want[0, 0] = want[3, 2] = 2.0
    assert np.array_equal(got, want)


def test_permutation_unitary_three_cycle_order():
    shape = TensorShape(2, 3)
    cycle = (2, 3, 1)
    m = rand_complex(8, 101)
    moved = m
    for turn in range(3):
        moved = tensor.conjugate_by_permutation(moved, cycle, shape)
        assert np.array_equal(moved, m) == (turn == 2)


def test_permutation_unitary_matches_naive():
    shape = TensorShape(3, 3)
    m = rand_complex(27, 102)
    for p in itertools.permutations((1, 2, 3)):
        u, u_inv = naive_unitaries(p, 3)
        got = tensor.conjugate_by_permutation(m, p, shape)
        assert np.allclose(got, u_inv @ m @ u, atol=1e-13)


def test_permutation_unitary_composition_law():
    # conjugating by q and then by p is conjugating by q o p
    shape = TensorShape(2, 4)
    m = rand_complex(16, 103)
    rng = np.random.default_rng(7)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for _ in range(6):
        p = perms[rng.integers(len(perms))]
        q = perms[rng.integers(len(perms))]
        q_after_p = tuple(q[p[s] - 1] for s in range(4))
        two_steps = tensor.conjugate_by_permutation(
            tensor.conjugate_by_permutation(m, q, shape), p, shape
        )
        assert np.array_equal(two_steps, tensor.conjugate_by_permutation(m, q_after_p, shape))


def test_permutation_unitary_is_unitary():
    # a unitary similarity fixes 1 and respects products
    shape = TensorShape(2, 3)
    a, b = rand_complex(8, 104), rand_complex(8, 105)
    for p in itertools.permutations((1, 2, 3)):
        assert np.array_equal(tensor.conjugate_by_permutation(np.eye(8), p, shape), np.eye(8))
        prod = tensor.conjugate_by_permutation(a, p, shape) @ tensor.conjugate_by_permutation(
            b, p, shape
        )
        assert np.allclose(prod, tensor.conjugate_by_permutation(a @ b, p, shape), atol=1e-12)


@pytest.mark.parametrize("d, n", [(2, 3), (3, 3), (2, 4)])
def test_conjugate_by_permutation_matches_explicit(d, n):
    shape = TensorShape(d, n)
    m = rand_complex(shape.total_dim, 9)
    for p in itertools.permutations(range(1, n + 1)):
        u, u_inv = naive_unitaries(p, d)
        got = tensor.conjugate_by_permutation(m, p, shape)
        assert np.allclose(got, u_inv @ m @ u, atol=1e-13)


# ---------------------------------------------------------------- partial trace


def test_partial_trace_product_factorization():
    a = rand_complex(2, 10)
    b = rand_complex(2, 11)
    m = tensor.kron(a, b)
    got = tensor.partial_trace(m, TensorShape(2, 2), (2,))
    assert np.allclose(got, a * np.trace(b), atol=1e-13)
    got1 = tensor.partial_trace(m, TensorShape(2, 2), (1,))
    assert np.allclose(got1, b * np.trace(a), atol=1e-13)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1 / np.sqrt(2)
    proj = np.outer(phi, phi.conj())
    got = tensor.partial_trace(proj, TensorShape(2, 2), (2,))
    assert np.allclose(got, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_duality():
    shape = TensorShape(2, 2)
    for seed in range(5):
        m = rand_complex(4, seed)
        b = rand_complex(2, seed + 40)
        lhs = np.trace(tensor.partial_trace(m, shape, (2,)) @ b)
        rhs = np.trace(m @ tensor.kron(b, np.eye(2, dtype=complex)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_partial_trace_composition():
    shape = TensorShape(2, 3)
    m = rand_complex(8, 21)
    two_step = tensor.partial_trace(
        tensor.partial_trace(m, shape, (3,)), shape.reduced(2), (2,)
    )
    direct = tensor.partial_trace(m, shape, (2, 3))
    assert np.max(np.abs(two_step - direct)) <= 1e-12


def test_partial_trace_preserves_trace_and_linearity():
    shape = TensorShape(2, 3)
    m = rand_complex(8, 22)
    w = rand_complex(8, 23)
    t = tensor.partial_trace(m, shape, (1, 3))
    assert abs(np.trace(t) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))
    lin = tensor.partial_trace(2.0 * m + 3.0 * w, shape, (1, 3))
    assert np.allclose(lin, 2.0 * t + 3.0 * tensor.partial_trace(w, shape, (1, 3)), atol=1e-12)


def test_partial_trace_matches_naive_oracle():
    shape = TensorShape(2, 3)
    m = rand_complex(8, 24)
    for traced in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]:
        got = tensor.partial_trace(m, shape, traced)
        want = oracles.naive_partial_trace(m, 2, 3, traced)
        assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_empty_is_identity():
    shape = TensorShape(2, 2)
    m = rand_complex(4, 25)
    assert np.array_equal(tensor.partial_trace(m, shape, ()), m)


def test_partial_trace_of_density_is_density():
    from chaoticity.states import validate

    rho = random_density(2, 31)
    sigma = random_density(2, 32)
    m = tensor.kron(rho.matrix, sigma.matrix)
    reduced = tensor.partial_trace(m, TensorShape(2, 2), (1,))
    validate(reduced, TensorShape(2, 1))  # raises if not a density


def test_partial_trace_errors():
    shape = TensorShape(2, 2)
    m = rand_complex(4, 26)
    with pytest.raises(BadSiteIndex):
        tensor.partial_trace(m, shape, (3,))
    with pytest.raises(DimensionMismatch):
        tensor.partial_trace(rand_complex(3, 27), shape, (1,))


# ---------------------------------------------------------------- embeddings
# Every site operator is placed by tensor._add_on_sites; embed() above calls it
# on a zero buffer.


def test_embed_one_body_single_site():
    a = rand_complex(2, 30)
    got = embed(a, (1,), TensorShape(2, 1))
    assert np.array_equal(got, a)


def test_embed_one_body_second_site():
    a = np.diag([1.0, 0.0]).astype(complex)
    got = embed(a, (2,), TensorShape(2, 2))
    assert np.allclose(got, np.diag([1.0, 0.0, 1.0, 0.0]))


def test_embed_one_body_norm_preserved():
    for seed in range(4):
        a = rand_complex(2, seed + 60)
        big = embed(a, (2,), TensorShape(2, 3))
        assert abs(linalg.operator_norm(big) - linalg.operator_norm(a)) <= 1e-9


def test_embed_one_body_matches_naive():
    a = rand_complex(2, 61)
    for j in (1, 2, 3):
        got = embed(a, (j,), TensorShape(2, 3))
        assert np.allclose(got, oracles.embed_full(a, j, 2, 3), atol=1e-13)


def test_embed_one_body_matches_digit_loop():
    for d, n in ((2, 6), (3, 3)):
        a = rand_complex(d, 63 + d)
        for j in range(1, n + 1):
            got = embed(a, (j,), TensorShape(d, n))
            assert np.max(np.abs(got - oracles.embed_sites_full(a, (j,), d, n))) <= 1e-12


def test_embed_on_sites_every_ordered_pair_matches_digit_loop():
    for d, n in ((2, 4), (3, 3)):
        b = rand_complex(d * d, 75 + d)
        shape = TensorShape(d, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    got = embed(b, (i, j), shape)
                    want = oracles.embed_sites_full(b, (i, j), d, n)
                    assert np.max(np.abs(got - want)) <= 1e-12


def test_embed_on_sites_three_sites_out_of_order_matches_digit_loop():
    b = rand_complex(8, 76)
    for sites in ((4, 1, 3), (3, 2, 1), (5, 2, 4)):
        got = embed(b, sites, TensorShape(2, 5))
        want = oracles.embed_sites_full(b, sites, 2, 5)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_embed_two_body_adjacent_pair():
    v = rand_complex(4, 70)
    got = embed(v, (1, 2), TensorShape(2, 2))
    assert np.allclose(got, v, atol=1e-14)


def test_embed_two_body_identity_input():
    for (i, j) in [(1, 2), (2, 3), (3, 1)]:
        got = embed(np.eye(4), (i, j), TensorShape(2, 3))
        assert np.allclose(got, np.eye(8), atol=1e-14)


def test_embed_two_body_permutation_independence():
    # two different permutations sending (2,3) to (1,2) must agree
    v = rand_complex(4, 71)
    shape = TensorShape(2, 4)
    got = embed(v, (2, 3), shape)
    base = tensor.kron(v, np.eye(4, dtype=complex), max_dim=shape.total_dim)
    for image in [(3, 1, 2, 4), (4, 1, 2, 3)]:
        u, u_inv = naive_unitaries(image, 2)  # p(2)=1, p(3)=2 both times
        assert np.allclose(got, u_inv @ base @ u, atol=1e-13)


def test_embed_two_body_covariance():
    # U_sigma^-1 V_ij U_sigma = V_{sigma^-1(i) sigma^-1(j)}
    v = rand_complex(4, 72)
    shape = TensorShape(2, 3)
    for sigma in itertools.permutations((1, 2, 3)):
        sinv = inverse_image(sigma)
        for (i, j) in [(1, 2), (1, 3), (2, 3), (3, 1)]:
            got = tensor.conjugate_by_permutation(embed(v, (i, j), shape), sigma, shape)
            want = embed(v, (sinv[i - 1], sinv[j - 1]), shape)
            assert np.allclose(got, want, atol=1e-13)


# ---------------------------------------------------------------- empirical observable
# X_N(A) = (1/N) sum_j A_j, accumulated in one buffer by _add_on_sites' scale.


def site_average(a, shape):
    out = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for j in range(1, shape.sites + 1):
        tensor._add_on_sites(out, np.asarray(a, dtype=np.complex128), (j,), shape,
                             1.0 / shape.sites)
    return out


def test_empirical_observable_identity():
    got = site_average(np.eye(2, dtype=complex), TensorShape(2, 3))
    assert np.allclose(got, np.eye(8), atol=1e-14)


def test_empirical_observable_single_site():
    a = rand_complex(2, 80)
    assert np.array_equal(site_average(a, TensorShape(2, 1)), a)


def test_empirical_observable_bit_count():
    # A = diag(1,0): diagonal entry of X_N at basis index b = (#zero digits)/N
    got = site_average(np.diag([1.0, 0.0]).astype(complex), TensorShape(2, 3))
    want = np.zeros(8)
    for idx in range(8):
        bits = [(idx >> k) & 1 for k in range(3)]
        want[idx] = bits.count(0) / 3
    assert np.allclose(np.diag(got).real, want, atol=1e-14)
    assert np.allclose(got, np.diag(np.diag(got)), atol=1e-14)


def test_empirical_observable_matches_digit_loop():
    for d, n in ((2, 6), (3, 3)):
        a = rand_complex(d, 91 + d)
        got = site_average(a, TensorShape(d, n))
        want = sum(oracles.embed_sites_full(a, (j,), d, n) for j in range(1, n + 1)) / n
        assert np.max(np.abs(got - want)) <= 1e-12


def test_empirical_observable_norm_bound():
    for seed in range(4):
        a = rand_complex(2, seed + 90)
        x = site_average(a, TensorShape(2, 4))
        assert linalg.operator_norm(x) <= linalg.operator_norm(a) + 1e-10


# ---------------------------------------------------------------- symmetry of products


def test_conjugation_fixes_tensor_powers():
    rho = random_density(2, 95)
    m = tensor.tensor_power(rho.matrix, 3)
    shape = TensorShape(2, 3)
    for p in itertools.permutations((1, 2, 3)):
        moved = tensor.conjugate_by_permutation(m, p, shape)
        assert np.max(np.abs(moved - m)) <= 1e-12


def test_gather_embedding_orientation():
    # embedding B on sites (2,1) must transpose the two factors of B
    b = tensor.kron(np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    shape = TensorShape(2, 2)
    direct = embed(b, (1, 2), shape)
    flipped = embed(b, (2, 1), shape)
    assert np.allclose(direct, b, atol=1e-14)
    swap = oracles.naive_permutation_unitary((2, 1), 2)
    assert np.allclose(flipped, swap @ b @ swap, atol=1e-14)
