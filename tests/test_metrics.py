"""Chaoticity metrics: marginals, chaos distance, e_N, C_{k,N}, rate bound."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from chaoticity import linalg, metrics, tensor
from chaoticity.errors import BadSiteIndex, DimensionMismatch, MemoryBudgetExceeded, NotSymmetric
from chaoticity.metrics import (
    chaos_distance,
    chaos_report,
    combinatorial_factor,
    corollary_bound,
    empirical_variance,
    factorization_error,
    weyl_basis,
    weyl_labels,
)
from chaoticity.states import (
    ProductMixture,
    product_state,
    random_density,
    random_hermitian,
    validate,
)
from chaoticity.tensor import TensorShape

import oracles


def mixture(d, n, seeds, weights):
    states = [random_density(d, s) for s in seeds]
    rho_N = oracles.dense_mixture(ProductMixture(weights, states, n))
    rho_bar = sum(w * s.matrix for w, s in zip(weights, states))
    return rho_N, validate(rho_bar, TensorShape(d, 1))


# ---------------------------------------------------------------- marginal


def test_marginal_of_product_factorizes():
    rho = random_density(2, 0)
    big = product_state(rho, 5)
    for k in (1, 2, 3, 4):
        got = big.marginal(k)
        assert np.allclose(got.matrix, tensor.tensor_power(rho.matrix, k), atol=1e-12)


def test_marginal_full_order_is_identity_map():
    rho_N, _ = mixture(2, 3, (1, 2), (0.5, 0.5))
    got = rho_N.marginal(3)
    assert np.allclose(got.matrix, rho_N.matrix, atol=1e-14)


def test_marginal_tower_property():
    rho_N, _ = mixture(2, 4, (3, 4), (0.3, 0.7))
    two_step = rho_N.marginal(3).marginal(2)
    direct = rho_N.marginal(2)
    assert np.max(np.abs(two_step.matrix - direct.matrix)) <= 1e-13


def test_marginal_order_out_of_range():
    rho_N, _ = mixture(2, 3, (5, 6), (0.5, 0.5))
    with pytest.raises(BadSiteIndex):
        rho_N.marginal(4)
    with pytest.raises(BadSiteIndex):
        rho_N.marginal(0)


# ---------------------------------------------------------------- chaos distance


def test_chaos_distance_product_is_zero():
    rho = random_density(2, 7)
    big = product_state(rho, 6)
    for k in (1, 2, 3):
        assert chaos_distance(big, rho, k) <= 1e-12


def test_chaos_distance_wrong_reference_eigen_oracle():
    # sigma^(ox N) against rho at k=1 is exactly tr|sigma - rho|
    rho = random_density(2, 8)
    sigma = random_density(2, 9)
    big = product_state(sigma, 4)
    want = float(np.abs(np.linalg.eigvalsh(sigma.matrix - rho.matrix)).sum())
    assert abs(chaos_distance(big, rho, 1) - want) <= 1e-12


def test_chaos_distance_orthogonal_pure_states():
    up = validate(np.diag([1.0, 0.0]), TensorShape(2, 1))
    down = validate(np.diag([0.0, 1.0]), TensorShape(2, 1))
    big = product_state(up, 3)
    assert abs(chaos_distance(big, down, 1) - 2.0) <= 1e-12


def test_chaos_distance_range_and_monotonicity():
    rho_N, rho_bar = mixture(2, 5, (10, 11, 12), (0.2, 0.3, 0.5))
    prev = 0.0
    for k in (1, 2, 3, 4, 5):
        dist = chaos_distance(rho_N, rho_bar, k)
        assert -1e-12 <= dist <= 2.0 + 1e-12
        assert dist >= prev - 1e-9  # marginal tower makes it nondecreasing
        prev = dist


def test_chaos_distance_rejects_multi_site_reference():
    rho = random_density(2, 13)
    big = product_state(rho, 4)
    with pytest.raises(DimensionMismatch):
        chaos_distance(big, product_state(rho, 2), 1)


# ---------------------------------------------------------------- empirical variance


def test_empirical_variance_identity_observable():
    rho_N, rho_bar = mixture(2, 4, (14, 15), (0.5, 0.5))
    assert abs(empirical_variance(rho_N, rho_bar, np.eye(2))) <= 1e-13


def test_empirical_variance_product_closed_form():
    rng = np.random.default_rng(16)
    for n in (2, 4, 8):
        rho = random_density(2, int(rng.integers(1 << 30)))
        big = product_state(rho, n)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = empirical_variance(big, rho, a)
        want = oracles.product_e_closed_form(rho.matrix, a, n)
        assert abs(got - want) <= 1e-9


def test_empirical_variance_matches_expanded_oracle():
    rho_N, rho_bar = mixture(2, 3, (17, 18), (0.4, 0.6))
    rng = np.random.default_rng(19)
    for _ in range(4):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        got = empirical_variance(rho_N, rho_bar, a)
        want = oracles.empirical_variance_expanded(rho_N.matrix, rho_bar.matrix, a, 2, 3)
        assert abs(got - want) <= 1e-11


def test_empirical_variance_nonnegative_on_states():
    rho_N, rho_bar = mixture(3, 3, (20, 21), (0.5, 0.5))
    rng = np.random.default_rng(22)
    for _ in range(6):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert empirical_variance(rho_N, rho_bar, a) >= -1e-10


def test_empirical_variance_shrinks_with_n():
    rho = random_density(2, 23)
    a = random_hermitian(2, 24)
    values = [empirical_variance(product_state(rho, n), rho, a) for n in (2, 4, 8)]
    assert values[1] <= values[0] / 2 + 1e-12
    assert values[2] <= values[1] / 2 + 1e-12


# ---------------------------------------------------------------- factorization error


def test_factorization_error_product_state():
    rho = random_density(2, 25)
    big = product_state(rho, 5)
    rng = np.random.default_rng(26)
    for k in (1, 2, 3):
        obs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(k)]
        assert factorization_error(big, rho, obs) <= 1e-10


def test_factorization_error_identity_observables():
    rho_N, rho_bar = mixture(2, 4, (27, 28), (0.5, 0.5))
    assert factorization_error(rho_N, rho_bar, [np.eye(2)] * 3) <= 1e-12


def test_factorization_error_matches_full_space_oracle():
    rho_N, rho_bar = mixture(2, 4, (29, 30), (0.25, 0.75))
    rng = np.random.default_rng(31)
    for k in (1, 2):
        obs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(k)]
        joint = oracles.full_space_joint(rho_N.matrix, obs, 2, 4)
        prod = 1.0 + 0.0j
        for a in obs:
            prod *= np.trace(rho_bar.matrix @ a)
        want = abs(joint - prod)
        got = factorization_error(rho_N, rho_bar, obs)
        assert abs(got - want) <= 1e-10


def test_factorization_error_k_bounds():
    rho_N, rho_bar = mixture(2, 3, (32, 33), (0.5, 0.5))
    with pytest.raises(BadSiteIndex):
        factorization_error(rho_N, rho_bar, [np.eye(2)] * 4)
    with pytest.raises(ValueError):
        factorization_error(rho_N, rho_bar, [])


# ---------------------------------------------------------------- rate bound


def test_combinatorial_factor_values():
    assert combinatorial_factor(1, 10) == 1.0
    assert abs(combinatorial_factor(2, 2) - 0.5) <= 1e-15
    assert abs(combinatorial_factor(3, 4) - (1.0 * 0.75 * 0.5)) <= 1e-15
    assert combinatorial_factor(0, 5) == 1.0


def test_corollary_bound_single_observable():
    # k=1 collapses to sqrt(e): no weights, no sampling defect
    rho = random_density(2, 34)
    a = random_hermitian(2, 35)
    e = 0.0123
    got, got_un = corollary_bound(rho, [a], [e], n_sites=7)
    assert abs(got - np.sqrt(e)) <= 1e-15
    assert got_un == got


def test_corollary_bound_two_observables_tail_term():
    rho = random_density(2, 36)
    a1 = random_hermitian(2, 37)
    a2 = random_hermitian(2, 38)
    n1 = linalg.operator_norm(a1)
    n2 = linalg.operator_norm(a2)
    x1 = abs(np.trace(rho.matrix @ a1))
    got, _ = corollary_bound(rho, [a1, a2], [0.0, 0.0], n_sites=2)
    # only the sampling defect survives when both e values vanish
    want = 2.0 * n1 * n2 * (1.0 - combinatorial_factor(2, 2))
    assert abs(got - want) <= 1e-14
    # with e values the weights enter squared in the printed form
    e = (0.01, 0.04)
    got, got_un = corollary_bound(rho, [a1, a2], e, n_sites=2)
    want += np.sqrt(e[0]) * n2**2 + np.sqrt(e[1]) * x1**2
    assert abs(got - want) <= 1e-13
    # the unsquared variant's weights enter linearly
    want_un = (
        2.0 * n1 * n2 * 0.5 + np.sqrt(e[0]) * n2 + np.sqrt(e[1]) * x1
    )
    assert abs(got_un - want_un) <= 1e-13


def test_corollary_inequality_on_mixtures():
    rng = np.random.default_rng(39)
    for trial in range(10):
        seeds = [int(rng.integers(1 << 30)) for _ in range(2)]
        w = rng.random(2) + 1e-9
        w /= w.sum()
        rho_N, rho_bar = mixture(2, 6, seeds, tuple(w))
        for k in (1, 2, 3):
            obs = [
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(k)
            ]
            c = factorization_error(rho_N, rho_bar, obs)
            e_vals = [
                max(empirical_variance(rho_N, rho_bar, a.conj().T), 0.0) for a in obs
            ]
            bound, _ = corollary_bound(rho_bar, obs, e_vals, rho_N.sites)
            assert c <= bound + 1e-9, (trial, k, c, bound)


def test_factorization_error_below_chaos_distance():
    # |tr(B (rho_N^(k) - rho^(ox k)))| <= ||B|| tr|diff|; unit-norm products
    rng = np.random.default_rng(40)
    rho_N, rho_bar = mixture(2, 5, (41, 42), (0.6, 0.4))
    for k in (1, 2, 3):
        dist = chaos_distance(rho_N, rho_bar, k)
        for _ in range(3):
            obs = []
            for _ in range(k):
                a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                obs.append(a / linalg.operator_norm(a))
            c = factorization_error(rho_N, rho_bar, obs)
            # product expectations also differ by at most the distance, and
            # |prod tr(rho a_j)| <= 1 keeps the cross terms controlled
            assert c <= dist + 1e-9 + k * dist


# ---------------------------------------------------------------- weyl basis


def test_weyl_basis_properties():
    for d in (2, 3):
        basis = weyl_basis(d)
        assert len(basis) == d * d
        assert np.allclose(basis[0], np.eye(d), atol=1e-15)
        for u in basis:
            assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
    assert weyl_labels(2) == ["W(0,0)", "W(0,1)", "W(1,0)", "W(1,1)"]


def test_weyl_basis_spans_operators():
    d = 2
    basis = weyl_basis(d)
    flat = np.stack([b.ravel() for b in basis])
    assert np.linalg.matrix_rank(flat) == d * d


# ---------------------------------------------------------------- report


def test_chaos_report_product_inputs():
    rho = random_density(2, 43)
    big = product_state(rho, 5)
    rep = chaos_report(big, rho, k=2)
    assert rep.k == 2 and rep.N == 5
    assert rep.chaos_distance <= 1e-10
    assert rep.bound_satisfied
    assert len(rep.e_values) == 4  # full Weyl basis for d=2
    assert all(v >= -1e-10 for _, v in rep.e_values)
    assert len(rep.c_values) == 8  # truncated tuple list
    assert all(c <= 1e-9 for _, c in rep.c_values)


def test_chaos_report_k_equals_n():
    rho_N, rho_bar = mixture(2, 3, (44, 45), (0.5, 0.5))
    rep = chaos_report(rho_N, rho_bar, k=3, max_tuples=4)
    assert rep.k == 3
    assert len(rep.c_values) == 4
    assert rep.corollary_bound >= 0.0
    assert rep.corollary_bound_unsquared >= 0.0


def test_chaos_report_custom_observables():
    rho_N, rho_bar = mixture(2, 4, (46, 47), (0.5, 0.5))
    obs = [random_hermitian(2, 48), random_hermitian(2, 49)]
    rep = chaos_report(rho_N, rho_bar, k=2, observables=obs, labels=["a", "b"])
    assert {lbl for lbl, _ in rep.e_values} == {"a", "b"}
    assert rep.bound_satisfied


# ---------------------------------------------------------------- product mixtures


def iid_mixture(d, n, seed, count=3):
    """(ProductMixture, the dense state, rho_bar) from seeded components."""
    rng = np.random.default_rng(seed)
    comps = [random_density(d, int(rng.integers(1 << 30))) for _ in range(count)]
    w = rng.random(count) + 1e-9
    w /= w.sum()
    mix = ProductMixture(w, comps, n)
    return mix, oracles.dense_mixture(mix), mix.marginal(1)


ORACLE_SIZES = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 8)]


@pytest.mark.parametrize("d, n", ORACLE_SIZES)
def test_product_mixture_matches_dense_mixture(d, n):
    mix, dense, _ = iid_mixture(d, n, 1000 + 10 * d + n)
    big = dense.matrix
    ref = random_density(d, 2000 + n)  # off the mixture mean, so k = 1 is not trivial
    rng = np.random.default_rng(3000 + 10 * d + n)
    for k in range(1, min(3, n) + 1):
        want_marg = oracles.marginal_full(big, d, n, k)
        assert np.abs(mix.marginal(k).matrix - want_marg).max() <= 1e-12
        assert np.abs(dense.marginal(k).matrix - want_marg).max() <= 1e-12
        want_dist = oracles.trace_norm_svd(want_marg - oracles.naive_kron_chain([ref.matrix] * k))
        assert abs(chaos_distance(mix, ref, k) - want_dist) <= 1e-12
        obs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(k)]
        want_c = abs(oracles.joint_full(big, obs, d, n) - oracles.product_of_means(ref.matrix, obs))
        assert abs(factorization_error(mix, ref, obs) - want_c) <= 1e-12
    for a in (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
              random_hermitian(d, 4000 + n)):
        want_e = oracles.empirical_variance_full(big, ref.matrix, a, d, n)
        assert abs(empirical_variance(mix, ref, a) - want_e) <= 1e-12
        assert abs(empirical_variance(dense, ref, a) - want_e) <= 1e-12


@pytest.mark.parametrize("d, n", [(2, 1), (2, 2), (2, 4), (2, 6), (3, 2), (3, 4)])
def test_empirical_variance_two_marginal_form_matches_expanded_oracle(d, n):
    mix, dense, rho_bar = iid_mixture(d, n, 5000 + 10 * d + n)
    rng = np.random.default_rng(6000 + n)
    for _ in range(3):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        want = oracles.empirical_variance_expanded(dense.matrix, rho_bar.matrix, a, d, n)
        assert abs(empirical_variance(mix, rho_bar, a) - want) <= 1e-12


@pytest.mark.parametrize("d, n", [(2, 2), (2, 5), (2, 8), (3, 3), (3, 5)])
def test_chaos_report_product_mixture_matches_dense(d, n):
    # The bound fields belong to the tuple with the largest C, so a tie decided
    # by roundoff could pick different tuples. Eight generic observables keep
    # the first eight tuples free of mirrored pairs such as (A, B) and (B, A),
    # and a reference off the mixture mean keeps C away from roundoff at k = 1.
    mix, dense, _ = iid_mixture(d, n, 7000 + 10 * d + n)
    ref = random_density(d, 8000 + n)
    rng = np.random.default_rng(9000 + 10 * d + n)
    obs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(8)]
    for k in range(1, min(3, n) + 1):
        want = chaos_report(dense, ref, k, obs)
        top = sorted(c for _, c in want.c_values)
        assert top[-1] - top[-2] > 1e-9
        assert_reports_match(chaos_report(mix, ref, k, obs), want, bounds=True)
        # the default Weyl set: every field but the tie-prone bound pair
        assert_reports_match(chaos_report(mix, ref, k), chaos_report(dense, ref, k), bounds=False)


def assert_reports_match(got, want, bounds):
    assert (got.k, got.N) == (want.k, want.N)
    assert abs(got.chaos_distance - want.chaos_distance) <= 1e-12
    for field in ("e_values", "c_values"):
        g, w = getattr(got, field), getattr(want, field)
        assert [lbl for lbl, _ in g] == [lbl for lbl, _ in w]
        assert max(abs(x - y) for (_, x), (_, y) in zip(g, w)) <= 1e-12
    if bounds:
        assert abs(got.corollary_bound - want.corollary_bound) <= 1e-12
        assert abs(got.corollary_bound_unsquared - want.corollary_bound_unsquared) <= 1e-12
    assert got.bound_satisfied == want.bound_satisfied
    assert got.clamped_labels == want.clamped_labels


def test_empirical_variance_rejects_non_symmetric_dense_state():
    rho, sigma = random_density(2, 80), random_density(2, 81)
    skewed = validate(tensor.kron(rho.matrix, sigma.matrix), TensorShape(2, 2))
    a = random_hermitian(2, 82)
    with pytest.raises(NotSymmetric):
        empirical_variance(skewed, rho, a)
    with pytest.raises(NotSymmetric):
        chaos_report(skewed, rho, 1)


def test_metric_budget_comes_from_the_marginal():
    # a mixture on 20 sites: 2^20 exceeds its budget, its 3-site marginals do not
    mix, _, rho_bar = iid_mixture(2, 3, 83)
    wide = ProductMixture(mix.weights, mix.components, 20, max_total_dim=64)
    assert chaos_distance(wide, rho_bar, 3) == chaos_distance(mix, rho_bar, 3)
    rep = chaos_report(wide, rho_bar, 2)
    assert rep.N == 20 and rep.bound_satisfied
    with pytest.raises(MemoryBudgetExceeded):
        wide.marginal(7)


def test_metrics_read_only_the_state_protocol():
    # an object answering sites, d, marginal and symmetry_defect is measured
    # exactly as the ProductMixture it wraps: no metric asks for the kind
    mix, _, rho_bar = iid_mixture(2, 5, 84)
    ref = random_density(2, 85)
    duck = SimpleNamespace(sites=mix.sites, d=mix.d, marginal=mix.marginal,
                           symmetry_defect=mix.symmetry_defect)
    a = np.array([[0.3, 1.0], [0.2j, -0.5]])
    for k in (1, 2, 3):
        assert chaos_report(duck, ref, k) == chaos_report(mix, ref, k)
    assert empirical_variance(duck, rho_bar, a) == empirical_variance(mix, rho_bar, a)
    skewed = SimpleNamespace(sites=mix.sites, d=mix.d, marginal=mix.marginal,
                             symmetry_defect=lambda full_group=False: 1.0)
    with pytest.raises(NotSymmetric):
        empirical_variance(skewed, rho_bar, a)


# ---------------------------------------------------------------- trend


def test_chaoticity_improves_with_n_under_evolution():
    # mean-field evolution of a product state stays nearly chaotic, and the
    # defect at fixed time shrinks as N grows
    from chaoticity.dynamics import ExactPropagator, MeanFieldSystem
    from chaoticity.metrics import chaos_distance as dist_fn

    a = random_hermitian(2, 50)
    v = random_hermitian(4, 51)
    sys = MeanFieldSystem(2, a, v)
    rho0 = random_density(2, 52)
    t = 0.3
    dists = []
    for n in (2, 4, 6):
        rho_n = ExactPropagator(sys, n).evolve(product_state(rho0, n), t)
        bar = rho_n.marginal(1)
        dists.append(dist_fn(rho_n, bar, min(2, n)))
    assert dists[2] < dists[0]
