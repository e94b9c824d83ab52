"""Mean-field dynamics on N sites and its one-site nonlinear limit.

Every kernel uses the symmetrised pair operator W = V + S V S (S the
two-site swap, so W_12 = V_12 + V_21), built once by MeanFieldSystem. The
N-body generator is H_N = sum_j A_j + (1/N) sum_{i < j} W_ij; one builder,
_add_mean_field, scatters both sums for H_N and the hierarchy operators.
Two exact propagators evolve rho0^(ox N) with it and keep the system as
sys; evolve_grid(rho0, times, order) takes the one-site rho0 and returns
validated marginals, its arguments checked by _check_grid_call.

- blocks.BlockPropagator (d = 2) splits H_N and rho0^(ox N) into spin
  blocks of size <= N + 1 (Schur-Weyl duality) and never forms 2^N.
- ExactPropagator diagonalizes H_N on the d^N space: the path at d >= 3 and
  the block path's reference. Its evolve takes any N-site state.

The limiting flow d rho / dt = -i [A + tr_2(W (1 ox rho)), rho], equal to
-i([A, rho] + tr_2[W, rho ox rho]), is [g, rho] with g = [G | vec(-iA)]
[vec(rho), 1], one product with the d^2 x (d^2 + 1) matrix MeanFieldSystem
derives from W on first use. For Hermitian rho, [g, rho] = p + p† with
p = g rho. The flow reads each state as one padded row [vec(rho), 1, 0, ...]
of length d^2 + d (_hartree_rows). The one RK4 kernel, _rk4_kernel, steps a
stack of them, each with its own step, in one stage-major layout for every
stack height, each row with its slopes, combined by real products of
Butcher tableau rows with their float view, under a step cap an order of
magnitude below the 1/(4 ||V||) stability scale of the flow's Lipschitz
constant. _hartree_flow reads the rows through views it owns; its one fork,
kept for speed, is the product (one trajectory: a gemv; a stack: a matmul).
integrate_hartree steps one run on a save grid, hartree_endpoints several.

The N-body marginal hierarchy is the limiting one plus a defect eps_n with
the 5 n^2 ||V|| / N ceiling of the propagation estimates. _hierarchy_terms
forms both from an (n+1)-site marginal, for epsilon_term and for
_window_residuals, the one central-difference kernel. It checks the N-body
flow on evolved marginals (bbgky_residuals: one evolve_grid call, and the
right side from the same propagator's sys) and, at N = inf, the limiting
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
from .states import DensityOperator, _check_one_site, product_state, validate
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
    (interaction_norm). The Hartree generator's matrix and each order's
    hierarchy operators are derived on first use (_hartree_generator,
    _hierarchy_ops), so a system that evaluates neither holds only w.
    """

    d: int
    a: np.ndarray
    v: np.ndarray
    w: np.ndarray = field(init=False, repr=False)
    _v_norm: float = field(init=False, repr=False)
    _hierarchy_cache: dict = field(init=False, repr=False, default_factory=dict)

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
    def _hartree_generator(self) -> np.ndarray:
        """[G | vec(-iA)], so that -i(A + tr_2(W (1 ox rho))) = [G | vec(-iA)] @ [vec(rho), 1].

        vec is row-major. tr_2(W (1 ox rho))[a, c] = sum_bf W[ab, cf] rho[f, b],
        so G[(a, c), (f, b)] = -i W[ab, cf], a d^2 x d^2 block as large as w.
        """
        d = self.d
        gen = np.empty((d * d, d * d + 1), dtype=np.complex128)
        # splitting the axes of a column slice gives a view: G is written into gen
        np.multiply(self.w.reshape(d, d, d, d).transpose(0, 2, 3, 1), -1j,
                    out=gen[:, :-1].reshape(d, d, d, d))
        gen[:, -1] = -1j * self.a.ravel()
        return gen

    def _hierarchy_ops(self, shape: TensorShape) -> tuple[np.ndarray, ...]:
        """(sum_j A_j, sum_{i<j} W_ij) on n sites, sum_{j<=n} W_{j,n+1} on shape's n+1.

        Cached per n: 1 + 2/d^2 times one (n+1)-site marginal, about as much.
        """
        n = shape.sites - 1
        if n not in self._hierarchy_cache:
            shape_n = shape.reduced(n)
            ones, pairs = np.zeros((2, shape_n.total_dim, shape_n.total_dim), dtype=np.complex128)
            cross = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
            _add_mean_field(ones, pairs, self, shape_n, 1.0)
            for j in range(1, n + 1):
                _add_on_sites(cross, self.w, (j, n + 1), shape)
            self._hierarchy_cache[n] = ones, pairs, cross
        return self._hierarchy_cache[n]


def step_cap(v_norm: float) -> float:
    """Largest admissible RK4 step for ||V|| = v_norm: 10x margin under the 1/(4||V||) scale."""
    return min(DEFAULT_STEP_CAP, 1.0 / (40.0 * max(v_norm, 1.0)))


def _add_mean_field(ones: np.ndarray, pairs: np.ndarray, sys: MeanFieldSystem,
                    shape: TensorShape, pair_scale: float) -> None:
    """ones += sum_j A_j, then pairs += pair_scale * sum over pairs i < j of W_ij, in place.

    W_ij = V_ij + V_ji, so the pair sum is the sum of V over ordered pairs i != j.
    """
    for j in range(1, shape.sites + 1):
        _add_on_sites(ones, sys.a, (j,), shape)
    for i in range(1, shape.sites + 1):
        for j in range(i + 1, shape.sites + 1):
            _add_on_sites(pairs, sys.w, (i, j), shape, pair_scale)


def build_hamiltonian(
    sys: MeanFieldSystem, n_sites: int, max_total_dim: int = DEFAULT_MAX_TOTAL_DIM
) -> np.ndarray:
    """H_N = sum_j A_j + (1/N) sum over pairs i < j of W_ij, N = n_sites.

    Every term is scattered into one D x D buffer.
    """
    shape = TensorShape(sys.d, n_sites, max_total_dim)
    h = np.zeros((shape.total_dim, shape.total_dim), dtype=np.complex128)
    _add_mean_field(h, h, sys, shape, 1.0 / n_sites)
    return h


def _check_grid_call(prop, rho0: DensityOperator, order: int) -> None:
    """Either propagator's evolve_grid contract: rho0 one-site of prop's d, 1 <= order <= N."""
    _check_one_site(rho0, prop.sys.d)
    if not 1 <= order <= prop.n_sites:
        raise BadSiteIndex(f"marginal order {order} outside 1..{prop.n_sites}")


class ExactPropagator:
    """Evolves N-site states under H_N from one cached eigendecomposition.

    rho(t) = e^{-itH} rho(0) e^{itH} with e^{-itH} = U e^{-it Lambda} U†;
    the eigendecomposition is computed once and shared across all times.
    evolve_grid evolves rho0^(ox N) from the one-site rho0, as
    blocks.BlockPropagator does; evolve takes any N-site state.
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
        _check_grid_call(self, rho0, order)
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


def _hartree_rows(rho: DensityOperator, sys: MeanFieldSystem, count: int = 1) -> np.ndarray:
    """count C-ordered padded rows [vec(rho), 1, 0, ...] of length d^2 + d, rho one-site of d."""
    _check_one_site(rho, sys.d)
    rows = np.zeros((count, sys.d**2 + sys.d), dtype=np.complex128)
    rows[:, :sys.d**2 + 1] = np.append(rho.matrix.ravel(), 1.0)
    return rows


def _hartree_flow(sys: MeanFieldSystem, rows: np.ndarray):
    """flow(out): d rho / dt = [g, rho] into out, (L, d, d), for the L states in rows.

    rows is C-ordered (L, d^2 + d), the states' padded rows (_hartree_rows). flow holds
    views of it and its own buffers, so each call reads the rows as they are then.
    g = [G | vec(-iA)] [vec(rho), 1] (_hartree_generator) and, for Hermitian rho,
    [g, rho] = p + p† with p = g rho, O(d^4) per state and exactly Hermitian. Each call is
    one BLAS product or one ufunc. The product is taken as q = p^T = rho^T g^T, so that
    out = q^T + conj(q) conjugates a contiguous q. The one fork is the product, by L:

    - One state: g is one gemv and q one d x d product. The L-state form, a matmul
      (0.93 us at d = 2) for the gemv (0.36 us) plus a diagonal copy (0.40 us), made
      integrate_hartree 20-35% slower at d = 2, and a single run and the lockstep's
      finest level both take this one.
    - L states: g is one matmul, which numpy runs as a gemv per state (a gemm packs the
      whole generator on every call). Each g is copied into a diagonal block of one
      Ld x L(d + 1) matrix. The padded rows, seen as L(d + 1) x d, stack the states'
      [rho; 1, 0, ...] blocks; their transpose times the block matrix's transpose is
      every q side by side.
    """
    gen, d, stack = sys._hartree_generator, sys.d, rows.shape[0]
    g = np.empty((stack, d, d), dtype=np.complex128)
    q, q_c = np.empty((2, d, stack * d), dtype=np.complex128)
    # state i's q is q[:, i d:(i + 1) d]; out by position costs less dispatch
    q_t = q.reshape(d, stack, d).transpose(1, 2, 0)
    q_ci = q_c.reshape(d, stack, d).transpose(1, 0, 2)
    if stack == 1:
        v, rho_t = rows[0, :d * d + 1], rows[0, :d * d].reshape(d, d).T
        g_vec, g_t = g.ravel(), g[0].T

        def flow(out: np.ndarray) -> None:
            gen.dot(v, g_vec)
            rho_t.dot(g_t, q)
            np.conjugate(q, q_c)
            np.add(q_t, q_ci, out)

        return flow
    v, rho_t = rows[:, None, :d * d + 1], rows.reshape(-1, d).T
    gen_t, g_rows = gen.T, g.reshape(stack, 1, -1)
    blocks = np.zeros((stack, d, stack, d + 1), dtype=np.complex128)
    diag, blocks_t = np.einsum("iaib->iab", blocks)[:, :, :d], blocks.reshape(stack * d, -1).T

    def flow(out: np.ndarray) -> None:
        np.matmul(v, gen_t, g_rows)
        np.copyto(diag, g)
        rho_t.dot(blocks_t, q)
        np.conjugate(q, q_c)
        np.add(q_t, q_ci, out)

    return flow


def hartree_rhs(rho: DensityOperator, sys: MeanFieldSystem) -> np.ndarray:
    """d rho / dt = -i[A + tr_2(W (1 ox rho)), rho], W = V + S V S.

    This equals -i([A, rho] + tr_2[W, rho ox rho]). _hartree_flow evaluates it,
    relying on rho being Hermitian as every validated state is: exactly Hermitian and traceless.
    """
    out = np.empty((1, sys.d, sys.d), dtype=np.complex128)
    _hartree_flow(sys, _hartree_rows(rho, sys))(out)
    return out[0]


def _rk4_tableau(dt: float) -> np.ndarray:
    """Classical RK4 on (x, k1, k2, k3, k4): rows 0-2 give k2-k4's inputs, row 3 the update."""
    h, s, t = dt / 2.0, dt / 6.0, dt / 3.0
    return np.array([[1, h, 0, 0, 0], [1, 0, h, 0, 0], [1, 0, 0, dt, 0], [1, s, t, t, s]], float)


def _rk4_rows(steps) -> tuple[np.ndarray, ...]:
    """Four real (L, 5L) blocks: each step's _rk4_tableau rows on the stages seen stage-major."""
    rows = np.zeros((4, len(steps), 5, len(steps)))
    for i, dt in enumerate(steps):
        rows[:, i, :, i] = _rk4_tableau(dt)
    return tuple(rows.reshape(4, len(steps), -1))


def _rk4_kernel(x_rows: np.ndarray, sys: MeanFieldSystem):
    """advance(rows, count): count RK4 steps of the L runs in C-ordered x_rows, in place.

    x_rows is (L, d^2 + d), each run's padded row x = [vec(rho), 1, 0, ...] (_hartree_rows).
    The loop steps one stage-major work array, (5, L, d^2 + d): x, then the slopes in the
    same padded rows, whatever L. x_rows is copied in once, here, and back after each call.
    Each stage input of k2..k4, and the update, is one real (L x 5L) x (5L x 2(d^2 + d))
    product of a block of rows (_rk4_rows) with the work array's float view, keeping x's
    tail at [1, 0, ...]; each slope is one flow evaluation into its rows. Inputs mix
    Hermitian rows by real weights, as p + p† needs. Views and buffers are set up once
    here: a call may be a single step.
    """
    stack, d = x_rows.shape[0], sys.d
    # zeros, not empty: zero tableau weights still multiply every row, and 0 * NaN is NaN
    work = np.zeros((5, *x_rows.shape), dtype=np.complex128)
    x, y = work[0], np.empty_like(work[0])
    x[:] = x_rows
    flat, y_f = work.reshape(5 * stack, -1).view(np.float64), y.view(np.float64)
    flow_x, flow_y = _hartree_flow(sys, x), _hartree_flow(sys, y)
    k1, k2, k3, k4 = (work[s, :, :d * d].reshape(stack, d, d) for s in range(1, 5))

    def advance(rows: tuple[np.ndarray, ...], count: int) -> None:
        to_k2, to_k3, to_k4, update = rows
        for _ in range(count):
            flow_x(k1)
            to_k2.dot(flat, y_f)
            flow_y(k2)
            to_k3.dot(flat, y_f)
            flow_y(k3)
            to_k4.dot(flat, y_f)
            flow_y(k4)
            update.dot(flat, y_f)
            np.copyto(x, y)
        np.copyto(x_rows, x)

    return advance


def _rk4_start(rho0: DensityOperator, sys: MeanFieldSystem, t0: float, t1: float, steps):
    """Checked plans (k, last), one per step, and one padded row of rho0 per step (_hartree_rows).

    A run takes k full steps from t0, to the first t0 + k step within 1e-15 of
    t1 (last None) or less than a step short of it, then one step of last.
    """
    x_rows = _hartree_rows(rho0, sys, len(steps))
    if not -math.inf < t0 <= t1 < math.inf:
        raise ValueError(f"need finite t0 <= t1, got t0 = {t0}, t1 = {t1}")
    cap, plans = step_cap(sys.interaction_norm()), []
    for step in steps:
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        if step > cap * (1.0 + 1e-12):
            raise StepTooLarge(
                f"step {step} exceeds cap {cap:.6g} = min(1/40, 1/(40 max(||V||, 1)))")
        # the end test is monotone in k, so the search starts just below the quotient
        k = max(int((t1 - t0) / step) - 2, 0)
        while t0 + k * step < t1 - 1e-15 and t1 - (t0 + k * step) >= step:
            k += 1
        plans.append((k, None if t0 + k * step >= t1 - 1e-15 else t1 - (t0 + k * step)))
    return plans, x_rows


def _checked(x: np.ndarray, shape: TensorShape, t: float, drift_tol: float) -> DensityOperator:
    """A copy of rho in the padded row x validated at drift_tol, naming t on drift.

    A run that overflowed drifted too: validate's ValueError for NaN or Inf entries.
    """
    try:
        return validate(x[:shape.d**2].reshape(shape.d, shape.d).copy(), shape, tol=drift_tol)
    except (NotHermitian, NotPSD, TraceNotOne, ValueError) as exc:
        raise DensityDriftExceeded(f"state at t = {t:.6g} drifted: {exc}") from exc


def integrate_hartree(rho0: DensityOperator, sys: MeanFieldSystem, t0: float, t1: float,
                      step: float, save_every: int = 1,
                      drift_tol: float = TRAJECTORY_TOL) -> HartreeTrajectory:
    """Classical fixed-step RK4 from t0 to t1: _rk4_kernel on a stack of one.

    Every save_every-th state and both endpoints are copied out and validated
    at drift_tol, or DensityDriftExceeded; a shortened last step lands on t1.
    """
    if save_every < 1:
        raise ValueError(f"save_every must be >= 1, got {save_every}")
    [(full, last)], x_rows = _rk4_start(rho0, sys, t0, t1, [step])
    advance, rows = _rk4_kernel(x_rows, sys), _rk4_rows([step])
    times, states = [t0], [rho0]
    for k in range(0, full, save_every):
        count = min(save_every, full - k)
        advance(rows, count)
        if count == save_every or last is None:
            times.append(t1 if k + count == full and last is None else t0 + (k + count) * step)
            states.append(_checked(x_rows[0], rho0.shape, times[-1], drift_tol))
    if last is not None:
        advance(_rk4_rows([last]), 1)
        times.append(t1)
        states.append(_checked(x_rows[0], rho0.shape, t1, drift_tol))
    return HartreeTrajectory(np.array(times, dtype=float), tuple(states))


def hartree_endpoints(rho0: DensityOperator, sys: MeanFieldSystem, t1: float, steps,
                      drift_tol: float = TRAJECTORY_TOL) -> list[DensityOperator]:
    """integrate_hartree's state at t1 from t0 = 0 for each step, the runs in lockstep.

    Each run takes integrate_hartree's steps, checks and drift guard. Sorted by
    descending full-step count, the runs still stepping are the leading slice
    of the rows, so the loop runs only as often as the longest run. The
    shortened last steps are one step of the stack, of length 0 for a run
    that lands on t1: the update row [1, 0, 0, 0, 0] leaves its x unchanged.
    """
    plans, x_rows = _rk4_start(rho0, sys, 0.0, t1, steps)
    order = sorted(range(len(plans)), key=lambda i: -plans[i][0])
    done = 0
    for m in range(len(order), 0, -1):
        full = plans[order[m - 1]][0]
        if full > done:
            _rk4_kernel(x_rows[:m], sys)(_rk4_rows([steps[i] for i in order[:m]]), full - done)
            done = full
    lasts = [plans[i][1] or 0.0 for i in order]
    if any(lasts):
        _rk4_kernel(x_rows, sys)(_rk4_rows(lasts), 1)
    ends = dict(zip(order, x_rows))
    # a run that takes no step returns rho0 itself, as integrate_hartree does
    return [rho0 if plan == (0, None) else _checked(ends[i], rho0.shape, t1, drift_tol)
            for i, plan in enumerate(plans)]


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
    m_n = partial_trace(m_np1, shape, (n + 1,))
    ones, pairs, cross = sys._hierarchy_ops(shape)
    p = partial_trace(cross @ m_np1 - m_np1 @ cross, shape, (n + 1,))
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


def bbgky_residuals(rho0: DensityOperator, orders, times, steps,
                    propagator: ExactPropagator | BlockPropagator) -> list[list[HierarchyResidual]]:
    """Central-difference checks of the coupled marginal-flow equations.

    residual = || (rho^(n)(t+h) - rho^(n)(t-h)) / 2h - (-i) RHS(t) ||_1,
    O(h^2) for the smooth exact flow. For each n in orders, then each t in
    times, one residual per h in steps, with the epsilon defect at (n, t).
    Every window's marginals come from one evolve_grid call of the
    propagator, which takes the one-site rho0, at order max(orders) + 1;
    the right side is formed from the same propagator's system.
    """
    n_sites = propagator.n_sites
    if min(steps) <= 0:
        raise ValueError(f"h must be positive, got {min(steps)}")
    if not 1 <= min(orders) <= max(orders) <= n_sites - 1:
        raise ValueError(f"orders {list(orders)} need 1 <= n <= N-1 = {n_sites - 1}")
    width = 2 * len(steps) + 1
    top = propagator.evolve_grid(
        rho0, [s for t in times for s in _window_times(t, steps)], max(orders) + 1)
    return [
        _window_residuals([m.marginal(n + 1) for m in top[j * width:(j + 1) * width]],
                          propagator.sys, n_sites, t, steps)
        for n in orders for j, t in enumerate(times)
    ]


def bbgky_residual(
    rho0: DensityOperator,
    n: int,
    t: float,
    h: float,
    propagator: ExactPropagator | BlockPropagator,
) -> HierarchyResidual:
    """bbgky_residuals at the one (n, t, h): the marginals at t-h, t, t+h from one evolve_grid."""
    return bbgky_residuals(rho0, [n], [t], [h], propagator)[0][0]


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
