"""Density operators on tensor-power spaces: validation, permutation
symmetry, exact symmetrization, product mixtures, and seeded generators.

validate() is the single gate deciding what counts as a density operator
(Hermitian, PSD, unit trace, all at one absolute tolerance); it never
repairs its input. Random generators take explicit seeds so experiment
shards stay reproducible.

Two kinds of N-site state exist. DensityOperator holds the dense d^N x d^N
matrix. ProductMixture holds an exchangeable mixture sum_m w_m sigma_m^(ox N)
by its weights and one-site components and answers marginal(k) without ever
forming d^N; mixture_of_products is its dense counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadSiteIndex,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    PermutationBudgetExceeded,
    TraceNotOne,
    WeightsInvalid,
)
from .tensor import (
    DEFAULT_MAX_TOTAL_DIM,
    Permutation,
    TensorShape,
    conjugate_by_permutation,
    kron_all,
    tensor_power,
)

# Absolute tolerance of every density check; linalg.HERMITICITY_TOL is relative.
DENSITY_TOL = 1e-10
WEIGHT_TOL = 1e-12

# Exact symmetrization enumerates all N! permutations; 6! = 720 is the cap.
SYMMETRIZE_MAX_SITES = 6
# Full-group symmetry checking is exposed only up to 5! = 120 permutations.
FULL_GROUP_MAX_SITES = 5


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density matrix together with its tensor shape."""

    matrix: np.ndarray
    shape: TensorShape

    @property
    def sites(self) -> int:
        return self.shape.sites

    @property
    def d(self) -> int:
        return self.shape.d


def validate(matrix, shape: TensorShape, tol: float = DENSITY_TOL) -> DensityOperator:
    """Check Hermiticity, positivity, and unit trace; never repair.

    All three checks are absolute at the one tolerance tol: max |M - M†|,
    |tr M - 1| and -(min eigenvalue) must each be <= tol. Density matrices
    are unit-trace objects, so their natural entry scale is already O(1).
    The Hermitian preconditions in linalg are relative to max(1, max |M|)
    instead.
    """
    a = linalg.as_matrix(matrix)
    if a.shape[0] != shape.total_dim:
        raise DimensionMismatch(
            f"matrix dimension {a.shape[0]} does not match d^N = {shape.total_dim}"
        )
    defect = linalg.hermiticity_defect(a)
    if defect > tol:
        raise NotHermitian(f"density candidate: max |M - M†| = {defect:.3e} > {tol:.1e}")
    tr = complex(np.trace(a))
    if abs(tr - 1.0) > tol:
        raise TraceNotOne(f"trace = {tr:.12g}, |trace - 1| > {tol:.1e}", trace=tr)
    w = np.linalg.eigvalsh(a)
    if w[0] < -tol:
        raise NotPSD(f"min eigenvalue {w[0]:.3e} < -{tol:.1e}", min_eigenvalue=float(w[0]))
    return DensityOperator(a, shape)


def product_state(rho: DensityOperator, n: int, max_total_dim: int | None = None) -> DensityOperator:
    """Tensor power rho^(ox n) of a one-site density.

    A Kronecker power of PSD factors is PSD exactly (its eigenvalues are
    products of factor eigenvalues), so only hermiticity and trace are
    re-checked; the O(D^3) eigenvalue scan is skipped.
    """
    if rho.sites != 1:
        raise DimensionMismatch("product_state expects a one-site density")
    budget = max_total_dim if max_total_dim is not None else rho.shape.max_total_dim
    shape = TensorShape(rho.d, n, budget)
    m = tensor_power(rho.matrix, n, budget)
    defect = linalg.hermiticity_defect(m)
    if defect > DENSITY_TOL:
        raise NotHermitian(f"tensor power drifted: defect {defect:.3e}")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > DENSITY_TOL:
        raise TraceNotOne(f"tensor power trace = {tr:.12g}", trace=tr)
    return DensityOperator(m, shape)


def is_symmetric(
    rho: DensityOperator | ProductMixture, tol: float = 1e-10, full_group: bool = False
) -> tuple[bool, float]:
    """Commutation test with permutation unitaries; returns (ok, worst).

    Adjacent transpositions generate the full permutation group, and an
    operator commuting with every generator commutes with every product of
    generators, so the default checks the N-1 adjacent swaps only.
    full_group=True enumerates all N! permutations (N <= 5). A
    ProductMixture is symmetric by construction.
    """
    n = rho.sites
    if n == 1 or isinstance(rho, ProductMixture):
        return True, 0.0
    if full_group:
        if n > FULL_GROUP_MAX_SITES:
            raise PermutationBudgetExceeded(
                f"full-group check capped at N <= {FULL_GROUP_MAX_SITES}, got {n}"
            )
        perms = Permutation.all(n)
    else:
        perms = (Permutation.transposition(n, i, i + 1) for i in range(1, n))
    m = rho.matrix
    worst = 0.0
    for p in perms:
        # [U_p, M] = 0 exactly when U_{p^{-1}} M U_p = M
        violation = float(np.abs(conjugate_by_permutation(m, p, rho.shape) - m).max())
        worst = max(worst, violation)
    return worst <= tol, worst


def symmetrize(rho: DensityOperator) -> DensityOperator:
    """Average (1/N!) sum_p U_p rho U_p† over the full permutation group."""
    n = rho.sites
    if n > SYMMETRIZE_MAX_SITES:
        raise PermutationBudgetExceeded(
            f"exact symmetrization capped at N <= {SYMMETRIZE_MAX_SITES}, got {n}"
        )
    acc = np.zeros_like(rho.matrix)
    count = 0
    for p in Permutation.all(n):
        # summing over the whole group makes conjugating by U_p or U_p† immaterial
        acc += conjugate_by_permutation(rho.matrix, p, rho.shape)
        count += 1
    acc /= count
    return validate(acc, rho.shape)


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    local_states: tuple[DensityOperator, ...]


@dataclass(frozen=True)
class DiscreteMixtureSpec:
    """Weighted list of product states: sum_m w_m D_1^m ox ... ox D_N^m."""

    components: tuple[MixtureComponent, ...]

    @classmethod
    def iid(cls, weights, states) -> "DiscreteMixtureSpec":
        """Components whose N local states are all equal; here N is implied
        later by mixture_of_products' n_sites argument, so store one state."""
        return cls(
            tuple(
                MixtureComponent(float(w), (s,)) for w, s in zip(weights, states, strict=True)
            )
        )


def _checked_weights(weights) -> np.ndarray:
    """Mixture weights as floats: at least one, none negative, summing to one."""
    weights = np.array(weights, dtype=float)
    if weights.size == 0:
        raise WeightsInvalid("mixture needs at least one component")
    if (weights < -WEIGHT_TOL).any():
        raise WeightsInvalid(f"negative weight in {weights.tolist()}")
    if abs(weights.sum() - 1.0) > WEIGHT_TOL:
        raise WeightsInvalid(f"weights sum to {weights.sum():.15g}, expected 1")
    return weights


def _check_local_states(local_states, d: int) -> None:
    for s in local_states:
        if s.sites != 1 or s.d != d:
            raise DimensionMismatch("local states must be one-site densities of equal d")


def mixture_of_products(
    spec: DiscreteMixtureSpec,
    n_sites: int | None = None,
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM,
) -> DensityOperator:
    """Build sum_m w_m D_1^m ox ... ox D_N^m as a density operator.

    Components carrying a single local state are broadcast to n_sites
    identical factors (the exchangeable-by-construction case, which
    ProductMixture holds without forming d^N); pass the result to
    symmetrize() for a permutation average (N <= 6).
    """
    _checked_weights([c.weight for c in spec.components])

    lengths = {len(c.local_states) for c in spec.components}
    if n_sites is None:
        if lengths == {1}:
            raise ValueError("n_sites required when components carry one local state")
        if len(lengths) != 1:
            raise DimensionMismatch(f"components disagree on site count: {sorted(lengths)}")
        n_sites = lengths.pop()
    d = spec.components[0].local_states[0].d
    shape = TensorShape(d, n_sites, max_total_dim)

    acc = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for c in spec.components:
        locs = c.local_states
        if len(locs) == 1:
            locs = locs * n_sites
        if len(locs) != n_sites:
            raise DimensionMismatch(
                f"component has {len(c.local_states)} local states, expected {n_sites}"
            )
        _check_local_states(locs, d)
        acc += c.weight * kron_all([s.matrix for s in locs], max_total_dim)
    return validate(acc, shape)


@dataclass(frozen=True, eq=False)
class ProductMixture:
    """The exchangeable N-site state sum_m w_m sigma_m^(ox N), held by its parts.

    Its k-site marginal is sum_m w_m sigma_m^(ox k), so marginal(k) costs
    O(d^2k) and the d^N matrix is never formed; max_total_dim bounds the
    marginals, not d^N. The N-site state is PSD by construction
    (nonnegative weights times tensor powers of validated one-site
    densities, see product_state), and every marginal is still validated.
    Weights and components pass the same checks as in mixture_of_products.
    """

    weights: tuple[float, ...]
    components: tuple[DensityOperator, ...]
    n_sites: int
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM

    def __post_init__(self):
        weights = _checked_weights(self.weights)
        components = tuple(self.components)
        if len(components) != weights.size:
            raise DimensionMismatch(f"{weights.size} weights for {len(components)} components")
        _check_local_states(components, components[0].d)
        if self.n_sites < 1:
            raise ValueError(f"site count must be >= 1, got {self.n_sites}")
        object.__setattr__(self, "weights", tuple(weights.tolist()))
        object.__setattr__(self, "components", components)

    @property
    def sites(self) -> int:
        return self.n_sites

    @property
    def d(self) -> int:
        return self.components[0].d

    def marginal(self, k: int) -> DensityOperator:
        """validate(sum_m w_m sigma_m^(ox k)), the first-k-sites marginal."""
        if not 1 <= k <= self.n_sites:
            raise BadSiteIndex(f"marginal order {k} outside 1..{self.n_sites}")
        shape = TensorShape(self.d, k, self.max_total_dim)
        acc = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
        for w, s in zip(self.weights, self.components):
            acc += w * tensor_power(s.matrix, k, self.max_total_dim)
        return validate(acc, shape)


def random_density(d: int, seed) -> DensityOperator:
    """Ginibre construction G G† / tr(G G†); full rank almost surely."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    return validate(m, TensorShape(d, 1))


def random_hermitian(d: int, seed, norm_cap: float = 1.0) -> np.ndarray:
    """(G + G†)/2 with Ginibre G, rescaled so the operator norm is <= norm_cap."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if norm_cap < 0:
        raise ValueError(f"norm_cap must be >= 0, got {norm_cap}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2.0
    nrm = linalg.operator_norm(h)
    if nrm > norm_cap:
        h = h * (norm_cap / nrm) if nrm > 0 else np.zeros_like(h)
    return h
