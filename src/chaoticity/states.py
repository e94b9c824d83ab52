"""Density operators on tensor-power spaces: validation, permutation
symmetry, exact symmetrization, product mixtures, and seeded generators.

validate() is the single gate deciding what counts as a density operator
(Hermitian, PSD, unit trace, all at one absolute tolerance); it never
repairs its input. Random generators take explicit seeds so experiment
shards stay reproducible.

Every N-site state answers one protocol, State: sites, d, marginal(k) and
symmetry_defect(full_group). The metrics read states only through it, so
they never ask which kind of state they hold. Two kinds exist.
DensityOperator holds the dense d^N x d^N matrix: product_state builds
rho^(ox N), and any other dense state is built by the caller and passed
through validate. ProductMixture holds an exchangeable mixture
sum_m w_m sigma_m^(ox N) by its weights and one-site components and answers
marginal(k) without ever forming d^N. States are immutable, so each kind
forms and validates a given marginal order once per object and keeps it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Protocol

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
    TensorShape,
    conjugate_by_permutation,
    partial_trace,
    tensor_power,
)

# Absolute tolerance of every density check; linalg.HERMITICITY_TOL is relative.
DENSITY_TOL = 1e-10
WEIGHT_TOL = 1e-12

# Exact symmetrization enumerates all N! permutations; 6! = 720 is the cap.
SYMMETRIZE_MAX_SITES = 6
# Full-group symmetry checking is exposed only up to 5! = 120 permutations.
FULL_GROUP_MAX_SITES = 5


class State(Protocol):
    """What every metric reads of an N-site state."""

    @property
    def sites(self) -> int: ...

    @property
    def d(self) -> int: ...

    def marginal(self, k: int) -> DensityOperator:
        """The validated first-k-sites marginal; BadSiteIndex outside 1..N."""

    def symmetry_defect(self, full_group: bool = False) -> float:
        """Largest |U_p rho U_p† - rho| over the checked permutations p."""


def _kept_marginal(state, k: int, form) -> DensityOperator:
    """form(k), computed on the first request for order k and kept on the state."""
    if not 1 <= k <= state.sites:
        raise BadSiteIndex(f"marginal order {k} outside 1..{state.sites}")
    if k not in state._marginals:  # threads racing here only form the same marginal twice
        state._marginals[k] = form(k)
    return state._marginals[k]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated density matrix together with its tensor shape."""

    matrix: np.ndarray
    shape: TensorShape
    _marginals: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def sites(self) -> int:
        return self.shape.sites

    @property
    def d(self) -> int:
        return self.shape.d

    def marginal(self, k: int) -> DensityOperator:
        """Sites k+1..N traced out and validated; at k = N the state itself."""
        if k == self.sites:
            return self  # validated already
        return _kept_marginal(self, k, self._trace_to)

    def _trace_to(self, k: int) -> DensityOperator:
        traced = partial_trace(self.matrix, self.shape, range(k + 1, self.sites + 1))
        return validate(traced, self.shape.reduced(k))

    def symmetry_defect(self, full_group: bool = False) -> float:
        """Largest |U_p rho U_p† - rho| over the adjacent transpositions p.

        Adjacent transpositions generate the full permutation group, and an
        operator commuting with every generator commutes with every product
        of generators, so they decide symmetry. full_group=True enumerates
        all N! permutations instead (N <= 5).
        """
        n = self.sites
        if n == 1:
            return 0.0
        if full_group:
            if n > FULL_GROUP_MAX_SITES:
                raise PermutationBudgetExceeded(
                    f"full-group check capped at N <= {FULL_GROUP_MAX_SITES}, got {n}"
                )
            images = itertools.permutations(range(1, n + 1))
        else:
            images = (tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, n + 1))
                      for i in range(1, n))
        # [U_p, M] = 0 exactly when U_{p^{-1}} M U_p = M
        return max(float(np.abs(conjugate_by_permutation(self.matrix, image, self.shape)
                                - self.matrix).max()) for image in images)


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


def is_symmetric(rho: State, tol: float = 1e-10, full_group: bool = False) -> tuple[bool, float]:
    """Commutation test with permutation unitaries; returns (ok, worst).

    worst is rho.symmetry_defect(full_group): over the N-1 adjacent swaps by
    default, over all N! permutations (N <= 5) with full_group=True.
    """
    worst = rho.symmetry_defect(full_group)
    return worst <= tol, worst


def symmetrize(rho: DensityOperator) -> DensityOperator:
    """Average (1/N!) sum_p U_p rho U_p† over the full permutation group."""
    n = rho.sites
    if n > SYMMETRIZE_MAX_SITES:
        raise PermutationBudgetExceeded(
            f"exact symmetrization capped at N <= {SYMMETRIZE_MAX_SITES}, got {n}"
        )
    acc = np.zeros_like(rho.matrix)
    for image in itertools.permutations(range(1, n + 1)):
        # summing over the whole group makes conjugating by U_p or U_p† immaterial
        acc += conjugate_by_permutation(rho.matrix, image, rho.shape)
    acc /= math.factorial(n)
    return validate(acc, rho.shape)


@dataclass(frozen=True, eq=False)
class ProductMixture:
    """The exchangeable N-site state sum_m w_m sigma_m^(ox N), held by its parts.

    Its k-site marginal is sum_m w_m sigma_m^(ox k), so marginal(k) costs
    O(d^2k) and the d^N matrix is never formed; max_total_dim bounds the
    marginals, not d^N. The N-site state is PSD by construction
    (nonnegative weights times tensor powers of validated one-site
    densities, see product_state), and every marginal is still validated.
    At least one weight is required, none negative, summing to one
    (WeightsInvalid otherwise); there is one component per weight, each a
    one-site density of the same d (DimensionMismatch otherwise). It is
    symmetric by construction: symmetry_defect is 0 for any full_group.
    """

    weights: tuple[float, ...]
    components: tuple[DensityOperator, ...]
    n_sites: int
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM
    _marginals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.size == 0:
            raise WeightsInvalid("mixture needs at least one component")
        if (weights < -WEIGHT_TOL).any():
            raise WeightsInvalid(f"negative weight in {weights.tolist()}")
        if abs(weights.sum() - 1.0) > WEIGHT_TOL:
            raise WeightsInvalid(f"weights sum to {weights.sum():.15g}, expected 1")
        components = tuple(self.components)
        if len(components) != weights.size:
            raise DimensionMismatch(f"{weights.size} weights for {len(components)} components")
        if any(s.sites != 1 or s.d != components[0].d for s in components):
            raise DimensionMismatch("local states must be one-site densities of equal d")
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
        return _kept_marginal(self, k, self._mix)

    def _mix(self, k: int) -> DensityOperator:
        shape = TensorShape(self.d, k, self.max_total_dim)
        acc = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
        for w, s in zip(self.weights, self.components):
            acc += w * tensor_power(s.matrix, k, self.max_total_dim)
        return validate(acc, shape)

    def symmetry_defect(self, full_group: bool = False) -> float:
        return 0.0


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
