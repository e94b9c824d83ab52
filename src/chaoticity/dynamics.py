"""Mean-field dynamics on N sites and its one-site nonlinear limit.

Every kernel uses the symmetrised pair operator W = V + S V S (S the
two-site swap, so W_12 = V_12 + V_21), built once by MeanFieldSystem. The
N-body generator is H_N = sum_j A_j + (1/N) sum_{i < j} W_ij. Two exact
propagators evolve with it and share the evolve_grid(rho, times, order)
contract, returning validated marginals:

- blocks.BlockPropagator (d = 2) evolves a product state rho0^(ox N) from
  the one-site rho0. Both it and H_N are permutation invariant, so they split
  into spin blocks of size <= N + 1 (Schur-Weyl duality); marginals are read
  from bands of those blocks, and nothing of size 2^N is formed.
- ExactPropagator diagonalizes H_N on the whole d^N space. It is the path at
  d >= 3 and the reference the block path is tested against; evolve returns
  whole states for one-shot use.

The N-body checks read the marginals they need from evolve_grid. The
limiting one-site equation

    d rho / dt = -i [A + tr_2(W (1 ox rho)), rho]

(equal to -i([A, rho] + tr_2[W, rho ox rho])) is integrated with classical
fixed-step RK4 under a step cap an order of magnitude below the 1/(4 ||V||)
stability scale of the flow's Lipschitz constant. The residual checkers
quantify how well the evolved marginals satisfy the coupled hierarchy of
equations relating consecutive marginal orders, and epsilon_term measures
from the (n+1)-site marginal the defect between the N-body hierarchy and its
limit, which carries the 5 n^2 ||V|| / N ceiling of the propagation estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import linalg
from .errors import (
    BadSiteIndex,
    BoundViolation,
    DensityDriftExceeded,
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    StepTooLarge,
    TraceNotOne,
)
from .states import DensityOperator, validate
from .tensor import (
    DEFAULT_MAX_TOTAL_DIM,
    TensorShape,
    _add_on_sites,
    partial_trace,
    tensor_power,
)

if TYPE_CHECKING:
    from .blocks import BlockPropagator

# Absolute ceiling on the RK4 step; the dynamic cap below can only lower it.
DEFAULT_STEP_CAP = 0.025
# Stored trajectory states must stay densities at this drift tolerance.
TRAJECTORY_TOL = 1e-7
EPSILON_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class MeanFieldSystem:
    """One-body term a (d x d) and pair interaction v (d^2 x d^2), both Hermitian.

    w = v + S v S is derived here, not passed: the pair term every kernel uses.
    """

    d: int
    a: np.ndarray
    v: np.ndarray
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = linalg.require_hermitian(self.a, what="one-body term")
        v = linalg.require_hermitian(self.v, what="pair interaction")
        if a.shape != (self.d, self.d):
            raise DimensionMismatch(f"one-body term shape {a.shape}, expected ({self.d}, {self.d})")
        if v.shape != (self.d**2, self.d**2):
            raise DimensionMismatch(
                f"pair interaction shape {v.shape}, expected ({self.d**2}, {self.d**2})"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "v", v)
        d = self.d
        swapped = v.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        object.__setattr__(self, "w", v + swapped)

    def interaction_norm(self) -> float:
        return linalg.operator_norm(self.v)


def step_cap(sys: MeanFieldSystem) -> float:
    """Largest admissible RK4 step: 10x margin under the 1/(4||V||) scale."""
    return min(DEFAULT_STEP_CAP, 1.0 / (40.0 * max(sys.interaction_norm(), 1.0)))


def _add_pairs(out: np.ndarray, w: np.ndarray, shape: TensorShape, scale: float) -> None:
    """out += scale * sum over pairs i < j of W_ij, in place.

    W_ij = V_ij + V_ji, so this is the sum of V over ordered pairs i != j.
    """
    for i in range(1, shape.sites + 1):
        for j in range(i + 1, shape.sites + 1):
            _add_on_sites(out, w, (i, j), shape, scale)


def _pair_trace(w: np.ndarray, x: np.ndarray, shape: TensorShape) -> np.ndarray:
    """sum_{j <= n} tr_{n+1}[W_{j,n+1}, X] for X on the n+1 sites of shape.

    The commutator is linear in its first argument, so the n pair operators
    are scattered into one buffer and a single commutator is traced.
    """
    last = shape.sites
    pairs = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for j in range(1, last):
        _add_on_sites(pairs, w, (j, last), shape)
    return partial_trace(pairs @ x - x @ pairs, shape, (last,))


def build_hamiltonian(
    sys: MeanFieldSystem,
    n: int,
    n_sites: int | None = None,
    max_total_dim: int = DEFAULT_MAX_TOTAL_DIM,
) -> np.ndarray:
    """sum_{j <= n} A_j + (1/N) sum over pairs i < j <= n of W_ij, N = n_sites.

    With n_sites = n (the default) this is H_N; with n < n_sites it is the
    first-n-sites generator H_{n,N} of the marginal flow, whose pair coupling
    stays 1/N. Every term is scattered into one D x D buffer.
    """
    n_sites = n if n_sites is None else n_sites
    if not 1 <= n <= n_sites:
        raise ValueError(f"marginal order {n} outside 1..{n_sites}")
    shape = TensorShape(sys.d, n, max_total_dim)
    h = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for j in range(1, n + 1):
        _add_on_sites(h, sys.a, (j,), shape)
    _add_pairs(h, sys.w, shape, 1.0 / n_sites)
    return h


class ExactPropagator:
    """Evolves N-site states under H_N from one cached eigendecomposition.

    rho(t) = e^{-itH} rho(0) e^{itH} with e^{-itH} = U e^{-it Lambda} U†;
    the eigendecomposition is computed once and shared across all times.
    Immutable after construction, so safe to share between threads.
    """

    def __init__(self, sys: MeanFieldSystem, n_sites: int,
                 max_total_dim: int = DEFAULT_MAX_TOTAL_DIM):
        self.sys = sys
        self.n_sites = n_sites
        self.shape = TensorShape(sys.d, n_sites, max_total_dim)
        h = build_hamiltonian(sys, n_sites, max_total_dim=max_total_dim)
        self.eigenvalues, self.eigenvectors = linalg.herm_eigen(h)

    def unitary(self, t: float) -> np.ndarray:
        """e^{-itH}."""
        phases = np.exp(-1j * t * self.eigenvalues)
        u = self.eigenvectors
        return (u * phases) @ u.conj().T

    def evolve_matrix(self, m: np.ndarray, t: float) -> np.ndarray:
        if t == 0.0:
            return np.array(m, copy=True)
        e = self.unitary(t)
        return e @ m @ e.conj().T

    def evolve(self, rho: DensityOperator, t: float) -> DensityOperator:
        if rho.shape.total_dim != self.shape.total_dim or rho.d != self.shape.d:
            raise DimensionMismatch(f"state shape {rho.shape} does not match {self.shape}")
        return validate(self.evolve_matrix(rho.matrix, t), rho.shape)

    def evolve_grid(self, rho: DensityOperator, times, order: int) -> list[DensityOperator]:
        """Validated first-`order`-sites marginals of rho(t) at many times.

        Works in the eigenbasis: rho(t) = U (rho~ o p p†) U† with
        rho~ = U† rho U and p = e^{-it lambda}. With M = U (rho~ o p p†),
        tracing out sites order+1..N of M U† is the contraction
        M.reshape(d^k, -1) @ U.reshape(d^k, -1)†, so each time costs one D^3
        product plus a d^k D^2 contraction and the full evolved state is
        never formed: memory stays O(D^2) whatever the grid length.
        """
        if rho.shape.total_dim != self.shape.total_dim or rho.d != self.shape.d:
            raise DimensionMismatch(f"state shape {rho.shape} does not match {self.shape}")
        if not 1 <= order <= self.shape.sites:
            raise BadSiteIndex(f"marginal order {order} outside 1..{self.shape.sites}")
        dk = self.shape.d**order
        u = self.eigenvectors
        u_conj = u.conj()
        rho_eig = u_conj.T @ rho.matrix @ u
        u_rows = u_conj.reshape(dk, -1).T
        marginal_shape = self.shape.reduced(order)
        # two D x D work buffers reused across times keep the footprint flat
        phased = np.empty_like(rho_eig)
        m = np.empty_like(rho_eig)
        out = []
        for t in times:
            p = np.exp(-1j * t * self.eigenvalues)
            np.multiply(rho_eig, p[:, None], out=phased)
            phased *= p.conj()
            np.matmul(u, phased, out=m)
            out.append(validate(m.reshape(dk, -1) @ u_rows, marginal_shape))
        return out


@dataclass(frozen=True, eq=False)
class HartreeTrajectory:
    """Stored states of one integration run, on the save grid."""

    times: np.ndarray
    states: tuple[DensityOperator, ...]
    step_size: float
    method: str = "rk4"

    def state_at(self, t: float, tol: float = 1e-9) -> DensityOperator:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > tol:
            raise ValueError(
                f"t = {t} not on the stored grid (nearest {self.times[i]}, spacing tol {tol})"
            )
        return self.states[i]


def _hartree_rhs_matrix(m: np.ndarray, sys: MeanFieldSystem) -> np.ndarray:
    d = sys.d
    # tr_2(W (1 ox m))[a, c] = sum_{b, f} W[ab, cf] m[f, b]
    h = sys.a + np.einsum("abcf,fb->ac", sys.w.reshape(d, d, d, d), m)
    return -1j * (h @ m - m @ h)


def hartree_rhs(rho: DensityOperator, sys: MeanFieldSystem) -> np.ndarray:
    """d rho / dt = -i[A + tr_2(W (1 ox rho)), rho], W = V + S V S.

    This equals -i([A, rho] + tr_2[W, rho ox rho]): tr_2[W, rho ox rho] =
    [tr_2(W (1 ox rho)), rho]. Hermitian and traceless by the commutator
    structure.
    """
    if rho.sites != 1:
        raise DimensionMismatch("the nonlinear flow lives on one site")
    if rho.d != sys.d:
        raise DimensionMismatch(f"state d = {rho.d}, system d = {sys.d}")
    return _hartree_rhs_matrix(rho.matrix, sys)


def integrate_hartree(
    rho0: DensityOperator,
    sys: MeanFieldSystem,
    t0: float,
    t1: float,
    step: float,
    save_every: int = 1,
    drift_tol: float = TRAJECTORY_TOL,
) -> HartreeTrajectory:
    """Classical fixed-step RK4 from t0 to t1.

    Every save_every-th state (plus both endpoints) is stored, re-validated
    at drift_tol; validation failure raises DensityDriftExceeded. The final
    partial step is shortened so the endpoint lands on t1 exactly.
    """
    if rho0.sites != 1:
        raise DimensionMismatch("the nonlinear flow lives on one site")
    if rho0.d != sys.d:
        raise DimensionMismatch(f"state d = {rho0.d}, system d = {sys.d}")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if t1 < t0:
        raise ValueError(f"t1 = {t1} precedes t0 = {t0}")
    if save_every < 1:
        raise ValueError(f"save_every must be >= 1, got {save_every}")
    cap = step_cap(sys)
    if step > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds cap {cap:.6g} = min(1/40, 1/(40 max(||V||, 1)))")

    def rk4(m: np.ndarray, dt: float) -> np.ndarray:
        k1 = _hartree_rhs_matrix(m, sys)
        k2 = _hartree_rhs_matrix(m + 0.5 * dt * k1, sys)
        k3 = _hartree_rhs_matrix(m + 0.5 * dt * k2, sys)
        k4 = _hartree_rhs_matrix(m + dt * k3, sys)
        return m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def checked(m: np.ndarray, t: float) -> DensityOperator:
        try:
            return validate(m, rho0.shape, tol=drift_tol)
        except (NotHermitian, NotPSD, TraceNotOne) as exc:
            raise DensityDriftExceeded(f"state at t = {t:.6g} drifted: {exc}") from exc

    times = [t0]
    states = [rho0]
    m = rho0.matrix
    t = t0
    k = 0
    while t < t1 - 1e-15:
        dt = min(step, t1 - t)
        m = rk4(m, dt)
        k += 1
        t = t0 + k * step if dt == step else t1
        if t >= t1 - 1e-15:
            t = t1
        if k % save_every == 0 or t == t1:
            times.append(t)
            states.append(checked(m, t))
    return HartreeTrajectory(np.array(times, dtype=float), tuple(states), float(step))


class EpsilonTerm(NamedTuple):
    matrix: np.ndarray
    norm: float
    bound: float


def _drop_last_site(m: DensityOperator) -> np.ndarray:
    """rho^(n) from rho^(n+1): the partial trace over site n+1."""
    return partial_trace(m.matrix, m.shape, (m.sites,))


def epsilon_term(m_np1: DensityOperator, sys: MeanFieldSystem, n_sites: int) -> EpsilonTerm:
    """Defect between the N-body marginal flow and its limiting form at order n.

    m_np1 is the (n+1)-site marginal rho_N^(n+1) of an N = n_sites state, so
    n = m_np1.sites - 1; rho_N^(n) is its partial trace over site n+1.

    eps_n = (1/N) sum_{i < j <= n} [W_ij, rho_N^(n)]
            - (n/N) sum_{j <= n} tr_{n+1} [W_{j,n+1}, rho_N^(n+1)]

    Its trace norm must stay below 5 n^2 ||V|| / N; a violation signals an
    implementation bug, not bad input.
    """
    n = m_np1.sites - 1
    if not 1 <= n <= n_sites - 1:
        raise ValueError(f"order n = {n} needs 1 <= n <= N-1 = {n_sites - 1}")
    if m_np1.d != sys.d:
        raise DimensionMismatch(f"state d = {m_np1.d}, system d = {sys.d}")

    m_n = _drop_last_site(m_np1)
    pairs = np.zeros_like(m_n)
    _add_pairs(pairs, sys.w, m_np1.shape.reduced(n), 1.0)
    eps = (pairs @ m_n - m_n @ pairs) / n_sites
    eps -= (n / n_sites) * _pair_trace(sys.w, m_np1.matrix, m_np1.shape)

    norm = linalg.trace_norm(eps)
    bound = 5.0 * n * n * sys.interaction_norm() / n_sites
    if norm > bound + EPSILON_SLACK:
        raise BoundViolation(
            f"epsilon norm {norm:.6e} exceeds 5 n^2 ||V|| / N = {bound:.6e} at n = {n}"
        )
    return EpsilonTerm(eps, norm, bound)


@dataclass(frozen=True)
class HierarchyResidual:
    n: int
    t: float
    residual_trace_norm: float
    epsilon_norm: float
    epsilon_bound: float


def _marginal_flow_rhs(sys: MeanFieldSystem, m_np1: DensityOperator, n_sites: int) -> np.ndarray:
    """[H_{n,N}, rho^(n)] + ((N-n)/N) sum_j tr_{n+1}[W_{j,n+1}, rho^(n+1)].

    n = m_np1.sites - 1; rho^(n) is the partial trace of m_np1 over site n+1.
    """
    n = m_np1.sites - 1
    m_n = _drop_last_site(m_np1)
    h_n = build_hamiltonian(sys, n, n_sites, m_np1.shape.max_total_dim)
    rhs = h_n @ m_n - m_n @ h_n
    rhs += ((n_sites - n) / n_sites) * _pair_trace(sys.w, m_np1.matrix, m_np1.shape)
    return rhs


def _window_times(t: float, steps) -> list[float]:
    """t - h for h in steps, then t, then t + h for h in reversed(steps)."""
    return [t - h for h in steps] + [t] + [t + h for h in reversed(steps)]


def _window_residuals(
    window, sys: MeanFieldSystem, n_sites: int, t: float, steps
) -> list[HierarchyResidual]:
    """bbgky_residual at (n, t) for each step h in steps, from one window.

    window holds the (n+1)-site marginals at _window_times(t, steps) of an
    N = n_sites evolution. The midpoint marginal, the right side and the
    epsilon defect at t are computed once for every h.
    """
    mid = window[len(steps)]
    rhs = _marginal_flow_rhs(sys, mid, n_sites)
    eps = epsilon_term(mid, sys, n_sites)
    out = []
    for i, h in enumerate(steps):
        lhs = (_drop_last_site(window[-1 - i]) - _drop_last_site(window[i])) / (2.0 * h)
        out.append(HierarchyResidual(
            n=mid.sites - 1, t=t, residual_trace_norm=linalg.trace_norm(lhs - (-1j) * rhs),
            epsilon_norm=eps.norm, epsilon_bound=eps.bound,
        ))
    return out


def bbgky_residual(
    rho0: DensityOperator,
    sys: MeanFieldSystem,
    n: int,
    t: float,
    h: float,
    propagator: ExactPropagator | BlockPropagator | None = None,
) -> HierarchyResidual:
    """Central-difference check of the coupled marginal-flow equations.

    residual = || (rho^(n)(t+h) - rho^(n)(t-h)) / 2h - (-i) RHS(t) ||_1,
    O(h^2) for the smooth exact flow. The (n+1)-site marginals at t-h, t,
    t+h come from one evolve_grid call. The epsilon defect at (n, t) rides
    along in the result. rho0 is what the propagator's evolve_grid takes:
    the N-site state for an ExactPropagator (built from rho0 when none is
    given), the one-site rho0 for a BlockPropagator.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    n_sites = rho0.sites if propagator is None else propagator.n_sites
    if not 1 <= n <= n_sites - 1:
        raise ValueError(f"order n = {n} needs 1 <= n <= N-1 = {n_sites - 1}")
    prop = propagator if propagator is not None else ExactPropagator(
        sys, n_sites, rho0.shape.max_total_dim
    )
    window = prop.evolve_grid(rho0, _window_times(t, (h,)), n + 1)
    (res,) = _window_residuals(window, sys, n_sites, t, (h,))
    return res


def tensor_hierarchy_residual(
    trajectory: HartreeTrajectory, sys: MeanFieldSystem, n: int, t: float, h: float
) -> float:
    """Central-difference check that rho(t)^(ox n) obeys the limiting hierarchy.

    residual = || (rho(t+h)^n - rho(t-h)^n) / 2h
                 + i (sum_j [A_j, rho^n] + sum_j tr_{n+1}[W_{j,n+1}, rho^(n+1)]) ||_1

    expected O(h^2) + O(step^4). Trajectory states are looked up on the
    stored grid; t-h, t, t+h must all be grid points.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    r_minus = trajectory.state_at(t - h)
    r_mid = trajectory.state_at(t)
    r_plus = trajectory.state_at(t + h)
    # the states' own budget bounds the order-(n+1) products formed below
    budget = r_mid.shape.max_total_dim
    shape_n = r_mid.shape.reduced(n)
    shape_np1 = r_mid.shape.reduced(n + 1)

    pow_mid_n = tensor_power(r_mid.matrix, n, budget)
    lhs = (tensor_power(r_plus.matrix, n, budget) - tensor_power(r_minus.matrix, n, budget)) / (
        2.0 * h
    )
    a_sum = np.zeros_like(pow_mid_n)
    for j in range(1, n + 1):
        _add_on_sites(a_sum, sys.a, (j,), shape_n)
    rhs = a_sum @ pow_mid_n - pow_mid_n @ a_sum
    rhs += _pair_trace(sys.w, tensor_power(r_mid.matrix, n + 1, budget), shape_np1)
    return linalg.trace_norm(lhs + 1j * rhs)


def gronwall_envelope(
    times: np.ndarray,
    e_next_norms: np.ndarray,
    n: int,
    n_sites: int,
    v_norm: float,
    e0: float = 0.0,
) -> np.ndarray:
    """Right side of the one-step marginal-error bound on a time grid.

    envelope(t_i) = e0 + 5 n^2 v (t_i - t_0) / N + 4 n v * integral of the
    order-(n+1) error norms up to t_i, by cumulative trapezoid.
    """
    times = np.asarray(times, dtype=float)
    e_next = np.asarray(e_next_norms, dtype=float)
    if times.shape != e_next.shape:
        raise DimensionMismatch("times and error norms must align")
    if times.size == 0:
        return np.array([])
    dt = np.diff(times)
    chunks = 0.5 * (e_next[1:] + e_next[:-1]) * dt
    integral = np.concatenate([[0.0], np.cumsum(chunks)])
    return e0 + 5.0 * n * n * v_norm * (times - times[0]) / n_sites + 4.0 * n * v_norm * integral
