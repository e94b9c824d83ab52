"""Mean-field dynamics on N sites and its one-site nonlinear limit.

Every kernel uses the symmetrised pair operator W = V + S V S (S the
two-site swap, so W_12 = V_12 + V_21), built once by MeanFieldSystem. The
N-body generator is H_N = sum_j A_j + (1/N) sum_{i < j} W_ij. Two exact
propagators evolve the product state rho0^(ox N) with it and share one
contract: evolve_grid(rho0, times, order) takes the one-site rho0 and
returns validated marginals.

- blocks.BlockPropagator (d = 2) splits H_N and rho0^(ox N) into spin
  blocks of size <= N + 1 (Schur-Weyl duality) and never forms 2^N.
- ExactPropagator diagonalizes H_N on the d^N space: the path at d >= 3 and
  the block path's reference. Its evolve takes any N-site state.

The limiting one-site equation

    d rho / dt = -i [A + tr_2(W (1 ox rho)), rho]

(equal to -i([A, rho] + tr_2[W, rho ox rho])) is [g, rho] with the
generator g = -i(A + tr_2(W (1 ox rho))) linear in x = vec(rho): one
product with a d^2 x d^2 matrix, as large as W, that MeanFieldSystem
derives from W on first use. For Hermitian rho, g is anti-Hermitian, so
[g, rho] = p + p† with p = g rho. _hartree_flow evaluates it for both
hartree_rhs and integrate_hartree: one d^2 x d^2 product and one d x d
product, O(d^4). The flow is integrated on the flat x with classical
fixed-step RK4, written as its Butcher tableau over one array of stages,
under a step cap an order of magnitude below the 1/(4 ||V||) stability
scale of the flow's Lipschitz constant.

The N-body marginal hierarchy is the limiting one plus a defect eps_n with
the 5 n^2 ||V|| / N ceiling of the propagation estimates. _hierarchy_terms
forms both from an (n+1)-site marginal, for epsilon_term and for
_window_residuals, the one central-difference kernel. It checks the N-body
flow on evolved marginals (bbgky_residual) and, at N = inf, the limiting
flow on rho(t)^(ox n) (tensor_hierarchy_residual).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
from .states import DensityOperator, product_state, validate
from .tensor import (
    DEFAULT_MAX_TOTAL_DIM,
    TensorShape,
    _add_on_sites,
    partial_trace,
)

if TYPE_CHECKING:
    from .blocks import BlockPropagator

# Absolute ceiling on the RK4 step; the dynamic cap below can only lower it.
DEFAULT_STEP_CAP = 0.025
# Stored trajectory states must stay densities at this drift tolerance.
TRAJECTORY_TOL = 1e-7
# A time within this of a stored trajectory time is that time.
GRID_TOL = 1e-9
EPSILON_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class MeanFieldSystem:
    """One-body term a (d x d) and pair interaction v (d^2 x d^2), both Hermitian.

    Derived here, not passed: w = v + S v S, the pair term every kernel
    uses, and ||v||, the operator norm in every step cap and epsilon bound
    (interaction_norm). The Hartree generator's matrix is derived on first
    use (_hartree_generator), so a system whose flow is never evaluated holds
    nothing more than w.
    """

    d: int
    a: np.ndarray
    v: np.ndarray
    w: np.ndarray = field(init=False, repr=False)
    _v_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        a = linalg.require_hermitian(self.a, what="one-body term")
        v = linalg.require_hermitian(self.v, what="pair interaction")
        if a.shape != (self.d, self.d):
            raise DimensionMismatch(f"one-body term shape {a.shape}, expected ({self.d}, {self.d})")
        if v.shape != (self.d**2, self.d**2):
            raise DimensionMismatch(
                f"pair interaction shape {v.shape}, expected ({self.d**2}, {self.d**2})"
            )
        d = self.d
        w = v + v.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
        for name, value in (("a", a), ("v", v), ("w", w), ("_v_norm", linalg.operator_norm(v))):
            object.__setattr__(self, name, value)

    def interaction_norm(self) -> float:
        return self._v_norm

    @cached_property
    def _hartree_generator(self) -> tuple[np.ndarray, np.ndarray]:
        """(G, G0): -i(A + tr_2(W (1 ox rho))) = (G @ vec(rho)).reshape(d, d) + G0.

        vec is row-major. tr_2(W (1 ox rho))[a, c] = sum_bf W[ab, cf] rho[f, b],
        so G[(a, c), (f, b)] = -i W[ab, cf]: a d^2 x d^2 matrix, as large as w.
        """
        d = self.d
        # order="C" makes the product contiguous, so the reshape is a view of it
        g = np.multiply(self.w.reshape(d, d, d, d).transpose(0, 2, 3, 1), -1j, order="C")
        return g.reshape(d * d, d * d), -1j * self.a


def step_cap(v_norm: float) -> float:
    """Largest admissible RK4 step for ||V|| = v_norm: 10x margin under the 1/(4||V||) scale."""
    return min(DEFAULT_STEP_CAP, 1.0 / (40.0 * max(v_norm, 1.0)))


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
    sys: MeanFieldSystem, n_sites: int, max_total_dim: int = DEFAULT_MAX_TOTAL_DIM
) -> np.ndarray:
    """H_N = sum_j A_j + (1/N) sum over pairs i < j of W_ij, N = n_sites.

    Every term is scattered into one D x D buffer.
    """
    shape = TensorShape(sys.d, n_sites, max_total_dim)
    h = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    for j in range(1, n_sites + 1):
        _add_on_sites(h, sys.a, (j,), shape)
    _add_pairs(h, sys.w, shape, 1.0 / n_sites)
    return h


class ExactPropagator:
    """Evolves N-site states under H_N from one cached eigendecomposition.

    rho(t) = e^{-itH} rho(0) e^{itH} with e^{-itH} = U e^{-it Lambda} U†;
    the eigendecomposition is computed once and shared across all times.
    evolve_grid evolves rho0^(ox N) from the one-site rho0, as
    blocks.BlockPropagator does; evolve takes any N-site state.
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

    def evolve_grid(self, rho0: DensityOperator, times, order: int) -> list[DensityOperator]:
        """Validated first-`order`-sites marginals of (rho0^(ox N))(t) for a one-site rho0.

        Works in the eigenbasis: rho(t) = U (rho~ o p p†) U† with
        rho~ = U† rho0^(ox N) U and p = e^{-it lambda}. With M = U (rho~ o p p†),
        tracing out sites order+1..N of M U† is the contraction
        M.reshape(d^k, -1) @ U.reshape(d^k, -1)†, so each time costs one D^3
        product plus a d^k D^2 contraction and the full evolved state is
        never formed: memory stays O(D^2) whatever the grid length.
        """
        if rho0.sites != 1 or rho0.d != self.shape.d:
            raise DimensionMismatch(f"expected a one-site d = {self.shape.d} state, got {rho0.shape}")
        if not 1 <= order <= self.shape.sites:
            raise BadSiteIndex(f"marginal order {order} outside 1..{self.shape.sites}")
        rho = product_state(rho0, self.shape.sites, self.shape.max_total_dim)
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

    def index(self, t: float) -> int:
        """Position of the stored time within GRID_TOL of t; ValueError if there is none."""
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > GRID_TOL:
            raise ValueError(
                f"t = {t} not on the stored grid (nearest {self.times[i]}, tol {GRID_TOL})"
            )
        return i

    def state_at(self, t: float) -> DensityOperator:
        return self.states[self.index(t)]


def _hartree_flow(x: np.ndarray, sys: MeanFieldSystem, out: np.ndarray) -> None:
    """Write d rho / dt at x = vec(rho) into d x d out: [g, rho], g = -i(A + tr_2(W (1 ox rho))).

    g is one product with the d^2 x d^2 _hartree_generator. For Hermitian
    rho, g is anti-Hermitian, so [g, rho] = p + p† with p = g rho: one d x d
    product, O(d^4) per evaluation like W itself, and an exactly Hermitian
    result. Off the Hermitian matrices p + p† is not [g, rho]; callers pass
    states. out must not overlap x.
    """
    gen, gen0 = sys._hartree_generator
    d = sys.d
    g = gen.dot(x).reshape(d, d) + gen0
    # ndarray.dot: the same product as @ with less dispatch cost on d x d operands
    p = g.dot(x.reshape(d, d))
    np.add(p, p.conj().T, out=out)


def hartree_rhs(rho: DensityOperator, sys: MeanFieldSystem) -> np.ndarray:
    """d rho / dt = -i[A + tr_2(W (1 ox rho)), rho], W = V + S V S.

    This equals -i([A, rho] + tr_2[W, rho ox rho]): tr_2[W, rho ox rho] =
    [tr_2(W (1 ox rho)), rho]. Evaluated by _hartree_flow: one d^2 x d^2
    product with the generator matrix that MeanFieldSystem derives from W and
    one d x d product. It relies on rho being Hermitian, as every validated
    state is; the result is then traceless and exactly Hermitian.
    """
    if rho.sites != 1:
        raise DimensionMismatch("the nonlinear flow lives on one site")
    if rho.d != sys.d:
        raise DimensionMismatch(f"state d = {rho.d}, system d = {sys.d}")
    out = np.empty((sys.d, sys.d), dtype=np.complex128)
    _hartree_flow(rho.matrix.ravel(), sys, out)
    return out


def _rk4_tableau(dt: float) -> tuple[np.ndarray, ...]:
    """The four rows of classical RK4 on the stages (x, k1, k2, k3, k4).

    Rows 0-2 give the inputs of k2, k3 and k4, row 3 the step's update.
    """
    h, s, t = dt / 2.0, dt / 6.0, dt / 3.0
    return tuple(np.array(
        [[1, h, 0, 0, 0], [1, 0, h, 0, 0], [1, 0, 0, dt, 0], [1, s, t, t, s]],
        dtype=np.complex128,
    ))


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

    x = vec(rho) and the four stage slopes are the rows of one (5, d^2)
    stage array. Each stage input and the step's update is one product of
    an _rk4_tableau row with that array, and each slope is one _hartree_flow
    evaluation written into its row: one d^2 x d^2 and one d x d product.
    The flow's p + p† form needs Hermitian input; every stage input is a
    real combination of Hermitian rows, so it is Hermitian to roundoff.
    Every save_every-th state (plus both endpoints) is reshaped to d x d and
    re-validated at drift_tol; validation failure raises
    DensityDriftExceeded. The final partial step is shortened so the
    endpoint lands on t1 exactly.
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
    cap = step_cap(sys.interaction_norm())
    if step > cap * (1.0 + 1e-12):
        raise StepTooLarge(f"step {step} exceeds cap {cap:.6g} = min(1/40, 1/(40 max(||V||, 1)))")

    def checked(x: np.ndarray, t: float) -> DensityOperator:
        try:
            return validate(x.reshape(sys.d, sys.d), rho0.shape, tol=drift_tol)
        except (NotHermitian, NotPSD, TraceNotOne) as exc:
            raise DensityDriftExceeded(f"state at t = {t:.6g} drifted: {exc}") from exc

    times = [t0]
    states = [rho0]
    # zeros, not empty: a tableau row's zero weights still multiply every row,
    # and 0 * (uninitialised NaN) is NaN before the first step fills k2..k4
    stages = np.zeros((5, sys.d * sys.d), dtype=np.complex128)
    x0 = stages[0]
    x0[:] = rho0.matrix.ravel()
    # the slope rows as d x d views, the shape _hartree_flow writes
    k1, k2, k3, k4 = stages[1:].reshape(4, sys.d, sys.d)
    full_step = _rk4_tableau(step)
    t = t0
    k = 0
    while t < t1 - 1e-15:
        dt = min(step, t1 - t)
        to_k2, to_k3, to_k4, update = full_step if dt == step else _rk4_tableau(dt)
        _hartree_flow(x0, sys, k1)
        _hartree_flow(to_k2.dot(stages), sys, k2)
        _hartree_flow(to_k3.dot(stages), sys, k3)
        _hartree_flow(to_k4.dot(stages), sys, k4)
        # a fresh array, so no stored state shares memory with the stages
        x = update.dot(stages)
        x0[:] = x
        k += 1
        t = t0 + k * step if dt == step else t1
        if t >= t1 - 1e-15:
            t = t1
        if k % save_every == 0 or t == t1:
            times.append(t)
            states.append(checked(x, t))
    return HartreeTrajectory(np.array(times, dtype=float), tuple(states))


class EpsilonTerm(NamedTuple):
    matrix: np.ndarray
    norm: float
    bound: float


def _hierarchy_terms(
    sys: MeanFieldSystem, m_np1: np.ndarray, shape: TensorShape, n_sites: float
) -> tuple[np.ndarray, EpsilonTerm]:
    """(L, eps_n): the limiting right side and the N-body defect at order n.

    m_np1 lives on the n+1 sites of shape; rho^(n) is its partial trace over
    site n+1 and P = sum_{j <= n} tr_{n+1}[W_{j,n+1}, m_np1]. With N = n_sites,

        L     = sum_{j <= n} [A_j, rho^(n)] + P
        eps_n = (1/N) sum_{i < j <= n} [W_ij, rho^(n)] - (n/N) P

    so L + eps_n = [H_{n,N}, rho^(n)] + ((N - n)/N) P, the right side of the
    N-body marginal flow, with H_{n,N} the first-n-sites part of H_N. N = inf
    gives eps_n = 0. A trace norm of eps_n above 5 n^2 ||V|| / N raises
    BoundViolation: it signals an implementation bug, not bad input.
    """
    n = shape.sites - 1
    shape_n = shape.reduced(n)
    m_n = partial_trace(m_np1, shape, (n + 1,))
    ones = np.zeros_like(m_n)
    for j in range(1, n + 1):
        _add_on_sites(ones, sys.a, (j,), shape_n)
    pairs = np.zeros_like(m_n)
    _add_pairs(pairs, sys.w, shape_n, 1.0)
    p = _pair_trace(sys.w, m_np1, shape)
    limit = ones @ m_n - m_n @ ones + p
    eps = (pairs @ m_n - m_n @ pairs) / n_sites
    eps -= (n / n_sites) * p

    norm = linalg.trace_norm(eps)
    bound = 5.0 * n * n * sys.interaction_norm() / n_sites
    if norm > bound + EPSILON_SLACK:
        raise BoundViolation(
            f"epsilon norm {norm:.6e} exceeds 5 n^2 ||V|| / N = {bound:.6e} at n = {n}"
        )
    return limit, EpsilonTerm(eps, norm, bound)


def epsilon_term(m_np1: DensityOperator, sys: MeanFieldSystem, n_sites: int) -> EpsilonTerm:
    """Defect eps_n between the N-body marginal flow and its limit (see _hierarchy_terms).

    m_np1 is the (n+1)-site marginal rho_N^(n+1) of an N = n_sites state, so
    n = m_np1.sites - 1. Raises BoundViolation when ||eps_n||_1 > 5 n^2 ||V|| / N.
    """
    n = m_np1.sites - 1
    if not 1 <= n <= n_sites - 1:
        raise ValueError(f"order n = {n} needs 1 <= n <= N-1 = {n_sites - 1}")
    if m_np1.d != sys.d:
        raise DimensionMismatch(f"state d = {m_np1.d}, system d = {sys.d}")
    return _hierarchy_terms(sys, m_np1.matrix, m_np1.shape, n_sites)[1]


@dataclass(frozen=True)
class HierarchyResidual:
    n: int
    t: float
    residual_trace_norm: float
    epsilon_norm: float
    epsilon_bound: float


def _window_times(t: float, steps) -> list[float]:
    """t - h for h in steps, then t, then t + h for h in reversed(steps)."""
    return [t - h for h in steps] + [t] + [t + h for h in reversed(steps)]


def _window_residuals(
    window, sys: MeanFieldSystem, n_sites: float, t: float, steps
) -> list[HierarchyResidual]:
    """bbgky_residual at (n, t) for each step h in steps, from one window.

    window holds the (n+1)-site states at _window_times(t, steps): marginals
    of an N = n_sites evolution, or at N = inf the products rho(s)^(ox (n+1))
    of the limiting flow. The right side L + eps_n at t and the epsilon
    defect come from one _hierarchy_terms call shared by every h.
    """
    mid = window[len(steps)]
    limit, eps = _hierarchy_terms(sys, mid.matrix, mid.shape, n_sites)
    rhs = limit + eps.matrix
    out = []
    for i, h in enumerate(steps):
        up, down = (partial_trace(window[j].matrix, mid.shape, (mid.sites,)) for j in (-1 - i, i))
        lhs = (up - down) / (2.0 * h)
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
    propagator: ExactPropagator | BlockPropagator,
) -> HierarchyResidual:
    """Central-difference check of the coupled marginal-flow equations.

    residual = || (rho^(n)(t+h) - rho^(n)(t-h)) / 2h - (-i) RHS(t) ||_1,
    O(h^2) for the smooth exact flow. The (n+1)-site marginals of
    rho0^(ox N) at t-h, t, t+h come from one evolve_grid call of the
    propagator, which takes the one-site rho0. The epsilon defect at (n, t)
    rides along in the result.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    n_sites = propagator.n_sites
    if not 1 <= n <= n_sites - 1:
        raise ValueError(f"order n = {n} needs 1 <= n <= N-1 = {n_sites - 1}")
    window = propagator.evolve_grid(rho0, _window_times(t, (h,)), n + 1)
    (res,) = _window_residuals(window, sys, n_sites, t, (h,))
    return res


def tensor_hierarchy_residual(
    trajectory: HartreeTrajectory, sys: MeanFieldSystem, n: int, t: float, h: float
) -> float:
    """Central-difference check that rho(t)^(ox n) obeys the limiting hierarchy.

    residual = || (rho(t+h)^n - rho(t-h)^n) / 2h + i L(rho(t)^(ox (n+1))) ||_1,

    _window_residuals at N = inf on the window rho(s)^(ox (n+1)), expected
    O(h^2) + O(step^4). Trajectory states are looked up on the stored grid;
    t-h, t, t+h must all be grid points.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    # product_state bounds each rho(s)^(ox (n+1)) by the state's own budget
    window = [product_state(trajectory.state_at(s), n + 1) for s in _window_times(t, (h,))]
    (res,) = _window_residuals(window, sys, math.inf, t, (h,))
    return res.residual_trace_norm


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
