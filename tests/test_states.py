"""Density operators: validation, symmetry, product states, mixtures."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from chaoticity import states, tensor
from chaoticity.dynamics import ExactPropagator, MeanFieldSystem
from chaoticity.errors import (
    BadSiteIndex,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    TraceNotOne,
    WeightsInvalid,
)
from chaoticity.states import (
    ProductMixture,
    is_symmetric,
    product_state,
    random_density,
    random_hermitian,
    validate,
)
from chaoticity.tensor import TensorShape

import oracles


# ---------------------------------------------------------------- validation


def test_validate_accepts_maximally_mixed():
    rho = validate(np.eye(2) / 2, TensorShape(2, 1))
    assert rho.d == 2 and rho.sites == 1


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPSD):
        validate(np.diag([1.5, -0.5]), TensorShape(2, 1))


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne) as e:
        validate(np.diag([0.6, 0.6]), TensorShape(2, 1))
    assert abs(e.value.trace - 1.2) < 1e-12


def test_validate_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(NotHermitian):
        validate(m, TensorShape(2, 1))


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate(np.eye(2) / 2, TensorShape(2, 2))


def test_validate_tolerances_are_absolute():
    # tiny negative eigenvalue within tolerance is accepted
    m = np.diag([1.0 + 1e-13, -1e-13])
    validate(m, TensorShape(2, 1))


# ---------------------------------------------------------------- products


def test_product_state_matches_tensor_power():
    rho = random_density(2, 0)
    built = product_state(rho, 3)
    assert np.allclose(built.matrix, tensor.tensor_power(rho.matrix, 3), atol=1e-14)
    assert built.sites == 3


def test_product_state_requires_one_site_input():
    rho = random_density(2, 1)
    two = product_state(rho, 2)
    with pytest.raises(DimensionMismatch):
        product_state(two, 2)


# ---------------------------------------------------------------- symmetry


def test_tensor_powers_are_symmetric():
    rho = random_density(2, 2)
    for n in (2, 3, 4, 5, 6):
        ok, worst = is_symmetric(product_state(rho, n))
        assert ok, f"N={n} worst={worst}"


def test_distinct_factors_not_symmetric():
    rho = random_density(2, 3)
    sigma = random_density(2, 4)
    m = tensor.kron(rho.matrix, sigma.matrix)
    ok, worst = is_symmetric(validate(m, TensorShape(2, 2)))
    assert not ok
    assert worst > 1e-3


def test_group_average_is_symmetric():
    # (1/3!) sum over permutations of B_{p(1)} ox B_{p(2)} ox B_{p(3)}
    bs = [random_density(2, 10 + k).matrix for k in range(3)]
    acc = np.zeros((8, 8), dtype=complex)
    for image in itertools.permutations((1, 2, 3)):
        acc += tensor.kron(*[bs[s - 1] for s in image])
    acc /= 6
    worst = oracles.full_group_defect(validate(acc, TensorShape(2, 3)))
    assert worst <= 1e-10, worst


def _symmetry_cases():
    """(name, state): product, mixture and evolved states at N <= 5, symmetric or not."""
    rho, sigma = random_density(2, 110), random_density(2, 111)
    sys = MeanFieldSystem(2, random_hermitian(2, 112), random_hermitian(4, 113))
    for n in range(2, 6):
        product = product_state(rho, n)
        mixture = oracles.dense_mixture(ProductMixture([0.4, 0.6], [rho, sigma], n))
        skewed = validate(tensor.kron(product_state(rho, n - 1).matrix, sigma.matrix),
                          TensorShape(2, n))
        yield f"product-{n}", product
        yield f"mixture-{n}", mixture
        yield f"skewed-{n}", skewed
        prop = ExactPropagator(sys, n)
        for name, state in (("product", product), ("mixture", mixture), ("skewed", skewed)):
            yield f"evolved-{name}-{n}", prop.evolve(state, 0.7)
    # invariant under the swap (1 2) but not under (2 3)
    yield "swap-12-only", validate(tensor.kron(rho.matrix, rho.matrix, sigma.matrix),
                                   TensorShape(2, 3))


def test_adjacent_swaps_decide_full_group_symmetry():
    verdicts = {}
    for name, state in _symmetry_cases():
        ok, worst = is_symmetric(state, tol=1e-10)
        full = oracles.full_group_defect(state)
        assert ok == (full <= 1e-10), (name, worst, full)
        verdicts[name] = ok
    assert verdicts["product-5"] and verdicts["evolved-mixture-5"]
    assert not verdicts["skewed-5"] and not verdicts["evolved-skewed-5"]
    assert not verdicts["swap-12-only"]


def test_one_site_always_symmetric():
    ok, worst = is_symmetric(random_density(3, 6))
    assert ok and worst == 0.0


# ---------------------------------------------------------------- mixtures


def test_mixture_single_component_is_tensor_power():
    rho = random_density(2, 30)
    mix = ProductMixture([1.0], [rho], 4)
    assert np.allclose(mix.marginal(4).matrix, tensor.tensor_power(rho.matrix, 4), atol=1e-14)


def test_mixture_of_iid_components_is_symmetric():
    rho = random_density(2, 31)
    sigma = random_density(2, 32)
    mix = oracles.dense_mixture(ProductMixture([0.5, 0.5], [rho, sigma], 3))
    worst = oracles.full_group_defect(mix)
    assert worst <= 1e-10, worst


def test_mixture_with_explicit_local_states():
    # rho ox sigma alone is not symmetric; its average with sigma ox rho is
    rho = random_density(2, 33)
    sigma = random_density(2, 34)
    shape = TensorShape(2, 2)
    skewed = validate(tensor.kron(rho.matrix, sigma.matrix), shape)
    assert not is_symmetric(skewed)[0]
    mix = validate(
        (tensor.kron(rho.matrix, sigma.matrix) + tensor.kron(sigma.matrix, rho.matrix)) / 2,
        shape,
    )
    ok, _ = is_symmetric(mix)
    assert ok


def test_mixture_weight_validation():
    rho = random_density(2, 36)
    with pytest.raises(WeightsInvalid):
        ProductMixture([0.4, 0.4], [rho, rho], 2)
    with pytest.raises(WeightsInvalid):
        ProductMixture([1.5, -0.5], [rho, rho], 2)
    with pytest.raises(WeightsInvalid):
        ProductMixture([], [], 2)


def test_mixture_site_count_validation():
    rho = random_density(2, 37)
    with pytest.raises(DimensionMismatch):
        ProductMixture([1.0], [product_state(rho, 2)], 3)  # components live on one site
    with pytest.raises(ValueError):
        ProductMixture([1.0], [rho], 0)


# ---------------------------------------------------------------- product mixtures


def test_product_mixture_holds_its_parts():
    rho, sigma = random_density(2, 90), random_density(2, 91)
    mix = ProductMixture(np.array([0.25, 0.75]), [rho, sigma], 6)
    assert (mix.sites, mix.d) == (6, 2)
    assert mix.weights == (0.25, 0.75) and mix.components == (rho, sigma)
    assert is_symmetric(mix) == (True, 0.0)
    assert oracles.full_group_defect(oracles.dense_mixture(mix)) <= 1e-12
    assert mix.marginal(2).shape == TensorShape(2, 2)
    with pytest.raises(BadSiteIndex):
        mix.marginal(7)
    with pytest.raises(BadSiteIndex):
        mix.marginal(0)
    with pytest.raises(ValueError):
        ProductMixture([1.0], [rho], 0)


def count_validations(monkeypatch) -> list:
    """Shapes of every states.validate call from here on."""
    shapes = []
    original = states.validate

    def counting(matrix, shape, *args, **kwargs):
        shapes.append(shape)
        return original(matrix, shape, *args, **kwargs)

    monkeypatch.setattr(states, "validate", counting)
    return shapes


def test_each_state_kind_validates_a_marginal_once(monkeypatch):
    rho, sigma = random_density(2, 92), random_density(2, 93)
    kinds = (product_state(rho, 4), ProductMixture([0.4, 0.6], [rho, sigma], 4))
    shapes = count_validations(monkeypatch)
    for state in kinds:
        for k in (2, 1, 3, 2, 1, 3):
            assert state.marginal(k) is state.marginal(k)
    assert sorted(s.sites for s in shapes) == [1, 1, 2, 2, 3, 3]


def test_dense_state_is_its_own_full_marginal(monkeypatch):
    rho_n = product_state(random_density(3, 94), 3)
    shapes = count_validations(monkeypatch)
    assert rho_n.marginal(3) is rho_n
    assert shapes == []


BAD_MIXTURES = [
    # (weights, component seeds and site counts, n_sites, error)
    ([0.4, 0.4], [(2, 1), (2, 1)], WeightsInvalid),
    ([1.5, -0.5], [(2, 1), (2, 1)], WeightsInvalid),
    ([], [], WeightsInvalid),
    ([0.5, 0.5], [(2, 1), (3, 1)], DimensionMismatch),
    ([0.5, 0.5], [(2, 1), (2, 2)], DimensionMismatch),
]


@pytest.mark.parametrize("weights, parts, error", BAD_MIXTURES)
def test_product_mixture_rejects_what_mixture_of_products_rejects(weights, parts, error):
    # the weight and component checks the dense mixture builder made
    comps = [product_state(random_density(d, 92 + i), sites) for i, (d, sites) in enumerate(parts)]
    with pytest.raises(error):
        ProductMixture(weights, comps, 3)


def test_product_mixture_weight_count_must_match():
    rho = random_density(2, 95)
    with pytest.raises(DimensionMismatch):
        ProductMixture([0.5, 0.5], [rho], 3)


# ---------------------------------------------------------------- samplers


def test_random_density_valid_and_deterministic():
    a = random_density(3, 40)
    b = random_density(3, 40)
    assert np.array_equal(a.matrix, b.matrix)
    c = random_density(3, 41)
    assert not np.array_equal(a.matrix, c.matrix)


def test_random_density_eigenvalue_spread():
    # Ginibre densities are full rank almost surely; compare the mean
    # eigenvalue gap against an independent unitary-conjugated sampler.
    rng = np.random.default_rng(42)
    n = 2000
    gaps = np.empty(n)
    for i in range(n):
        w = np.linalg.eigvalsh(random_density(2, 10_000 + i).matrix)
        gaps[i] = w[1] - w[0]

    # second route: eigenvalue density of G G† / tr for d=2 can be sampled
    # directly from two chi-squared variables with 4 degrees of freedom
    # (squared row norms of the 2x2 complex Ginibre need the joint law, so
    # sample the matrix itself with an unrelated generator instead)
    gaps2 = np.empty(n)
    for i in range(n):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        m /= np.trace(m).real
        w = np.linalg.eigvalsh(m)
        gaps2[i] = w[1] - w[0]

    # means agree within a few Monte Carlo standard errors
    se = np.hypot(gaps.std() / np.sqrt(n), gaps2.std() / np.sqrt(n))
    assert abs(gaps.mean() - gaps2.mean()) <= 5 * se


def test_random_hermitian_norm_cap():
    from chaoticity.linalg import operator_norm

    for seed in range(8):
        h = random_hermitian(3, seed, norm_cap=0.7)
        assert operator_norm(h) <= 0.7 + 1e-12
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_random_hermitian_below_cap_untouched():
    from chaoticity.linalg import operator_norm

    rng = np.random.default_rng(50)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (g + g.conj().T) / 2
    cap = operator_norm(h) * 2
    got = random_hermitian(2, 50, norm_cap=cap)
    assert np.array_equal(got, h)


# ---------------------------------------------------------------- exchangeability


def test_partial_trace_of_symmetric_is_symmetric():
    rho = random_density(2, 60)
    sigma = random_density(2, 61)
    mix = oracles.dense_mixture(ProductMixture([0.3, 0.7], [rho, sigma], 4))
    reduced = tensor.partial_trace(mix.matrix, mix.shape, (4,))
    worst = oracles.full_group_defect(validate(reduced, TensorShape(2, 3)))
    assert worst <= 1e-10, worst


def test_symmetric_state_has_exchangeable_expectations():
    # tr(rho_N A_1 ox A_2 ox 1...) must not depend on which sites carry A
    rho = random_density(2, 62)
    sigma = random_density(2, 63)
    mix = oracles.dense_mixture(ProductMixture([0.5, 0.5], [rho, sigma], 4))
    a = random_hermitian(2, 64)
    b = random_hermitian(2, 65)
    vals = []
    for (i, j) in [(1, 2), (2, 4), (3, 1), (4, 3)]:
        op = oracles.embed_full(a, i, 2, 4) @ oracles.embed_full(b, j, 2, 4)
        vals.append(np.trace(mix.matrix @ op))
    for v in vals[1:]:
        assert abs(v - vals[0]) <= 1e-10
