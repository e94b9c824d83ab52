"""Experiment kinds: seeded, deterministic, and table-producing.

Each kind turns an ExperimentConfig into a ResultTable whose rows depend
only on the config (seed included), never on wall clock, thread timing, or
row completion order. Randomness flows through a counter-based splitter:
every draw gets its own SeedSequence keyed by (namespace, indices...), so
enlarging N_list or trial counts never perturbs rows that already existed.

Numerical-invariant violations raised by the underlying modules are caught
and recorded as a structured error entry in the table metadata; the CLI
maps that entry to a dedicated exit code.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import ExperimentConfig, config_hash, validate_config
from .blocks import BlockPropagator
from .dynamics import (
    TRAJECTORY_TOL,
    ExactPropagator,
    MeanFieldSystem,
    _window_residuals,
    _window_times,
    epsilon_term,
    gronwall_envelope,
    integrate_hartree,
)
from .errors import BoundViolation, ChaoticityError, ConfigInvalid
from .metrics import chaos_report, corollary_bound, empirical_variance, factorization_error
from .states import (
    DensityOperator,
    ProductMixture,
    random_density,
    random_hermitian,
    validate,
)
from .tensor import TensorShape, tensor_power
from .version import __version__

# seed-splitter namespaces; frozen constants, part of the reproducibility contract
NS_SYSTEM = 1
NS_STATE = 2
NS_MIXTURE = 3
NS_WEIGHTS = 4
NS_OBSERVABLE = 5

SCHEMAS = {
    "chaos_sweep": (
        "N", "k", "chaos_distance", "max_C_kN", "corollary_bound",
        "corollary_bound_unsquared", "bound_satisfied", "max_e_N",
    ),
    "propagation": (
        "N", "n", "t", "E_norm", "eps_norm", "eps_bound", "gronwall_bound", "gronwall_ok",
    ),
    "bbgky_verify": (
        "N", "n", "t", "fd_h", "residual_h", "residual_half_h", "ratio",
        "eps_norm", "eps_bound",
    ),
    "hartree_convergence": (
        "level", "step", "delta_to_finer", "ratio", "trace_drift", "min_eig",
    ),
    "bound_audit": (
        "N", "k", "rep", "C_kN", "bound", "bound_unsquared", "satisfied", "margin",
    ),
}


@dataclass
class ResultTable:
    """Schema, rows, and the audit-trail metadata of one experiment run."""

    schema: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)


def subseed(master: int, *key: int) -> np.random.SeedSequence:
    """Independent stream for (namespace, indices...); order-insensitive reuse."""
    return np.random.SeedSequence(entropy=master, spawn_key=tuple(int(x) for x in key))


def _draw_observable(rng: np.random.Generator, d: int, norm_cap: float) -> np.ndarray:
    """Complex (generally non-Hermitian) matrix with operator norm <= cap."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    nrm = linalg.operator_norm(g)
    if nrm > norm_cap:
        g = g * (norm_cap / nrm) if nrm > 0 else np.zeros_like(g)
    return g


def _draw_mixture(config: ExperimentConfig, n_sites: int, *key: int):
    """(rho_bar, mixture): seeded components and simplex weights on n_sites.

    The draws depend on key only, so every N of one key sees the same mixture.
    """
    locals_ = [
        random_density(config.d, subseed(config.seed, NS_MIXTURE, *key, i))
        for i in range(config.components)
    ]
    rng = np.random.default_rng(subseed(config.seed, NS_WEIGHTS, *key))
    w = rng.random(config.components) + 1e-9
    w /= w.sum()
    bar = sum(wi * s.matrix for wi, s in zip(w, locals_))
    rho_bar = validate(bar, TensorShape(config.d, 1))
    return rho_bar, ProductMixture(w, locals_, n_sites, config.max_total_dim)


def _draw_system(config: ExperimentConfig) -> MeanFieldSystem:
    a = random_hermitian(config.d, subseed(config.seed, NS_SYSTEM, 0), config.a_norm_cap)
    v = random_hermitian(config.d**2, subseed(config.seed, NS_SYSTEM, 1), config.v_norm_cap)
    return MeanFieldSystem(config.d, a, v)


def _draw_initial(config: ExperimentConfig) -> DensityOperator:
    return random_density(config.d, subseed(config.seed, NS_STATE, 0))


def _over_N(config: ExperimentConfig, parallel: int, worker):
    """Run worker(N) per N, concurrently when asked, output order fixed."""
    if parallel <= 1 or len(config.N_list) == 1:
        chunks = [worker(n) for n in config.N_list]
    else:
        with ThreadPoolExecutor(max_workers=min(parallel, len(config.N_list))) as pool:
            chunks = list(pool.map(worker, config.N_list))
    return [row for chunk in chunks for row in chunk]


def _propagator(config: ExperimentConfig, sys: MeanFieldSystem, n_sites: int, max_order: int):
    """The propagator of rho0^(ox N) under H_N; its evolve_grid takes the one-site rho0.

    At d = 2 the spin-block propagator; at d >= 3 the dense one, which
    diagonalizes H_N on the d^N space.
    """
    if sys.d == 2:
        return BlockPropagator(sys, n_sites, max_order, config.max_total_dim)
    return ExactPropagator(sys, n_sites, config.max_total_dim)


def _run_chaos_sweep(config: ExperimentConfig, parallel: int):
    def worker(n_sites: int):
        rho_bar, rho_n = _draw_mixture(config, n_sites)
        rows = []
        for k in config.k_list:
            rep = chaos_report(rho_n, rho_bar, k)
            rows.append((
                n_sites,
                k,
                rep.chaos_distance,
                max(c for _, c in rep.c_values),
                rep.corollary_bound,
                rep.corollary_bound_unsquared,
                rep.bound_satisfied,
                max(e for _, e in rep.e_values),
            ))
        return rows

    rows = _over_N(config, parallel, worker)
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def _grid_index(grid: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(grid - t)))
    if abs(grid[i] - t) > 1e-9:
        raise ConfigInvalid(f"time {t} missing from the trajectory grid")
    return i


def _run_propagation(config: ExperimentConfig, parallel: int):
    sys = _draw_system(config)
    rho0 = _draw_initial(config)
    t_end = max(config.times)
    drift_tol = config.tol_value("drift", TRAJECTORY_TOL)
    trajectory = integrate_hartree(
        rho0, sys, 0.0, t_end, config.step, config.save_every, drift_tol
    )
    v_norm = sys.interaction_norm()
    orders = sorted(set(config.k_list))

    # the envelope integrates errors over the whole trajectory grid; rows need only their times
    if config.gronwall:
        grid, states = trajectory.times, trajectory.states
    else:
        grid = np.asarray(config.times, dtype=float)
        states = [trajectory.state_at(t) for t in config.times]

    def worker(n_sites: int):
        # E_n needs order n; epsilon and the envelope need order n + 1 as well
        need = sorted(set(orders) | {n + 1 for n in orders if n + 1 <= n_sites})
        prop = _propagator(config, sys, n_sites, need[-1])
        # one grid pass at the highest order; lower orders are traced from it
        top = prop.evolve_grid(rho0, grid, need[-1])
        marginals = {n: [m.marginal(n) for m in top] for n in need}
        e_grid = {n: np.array([
            linalg.trace_norm(m.matrix - tensor_power(state.matrix, n, config.max_total_dim))
            for m, state in zip(marginals[n], states)
        ]) for n in need}
        envelopes = {n: gronwall_envelope(grid, e_grid[n + 1], n, n_sites, v_norm)
                     for n in orders if config.gronwall and n + 1 <= n_sites}

        rows = []
        for n in orders:
            for t in config.times:
                i = _grid_index(grid, t)
                e_val = float(e_grid[n][i])
                if n <= n_sites - 1:
                    eps = epsilon_term(marginals[n + 1][i], sys, n_sites)
                    eps_norm, eps_bound = eps.norm, eps.bound
                else:
                    eps_norm = eps_bound = None
                if n in envelopes:
                    bound = float(envelopes[n][i])
                    ok = bool(e_val <= 1.05 * bound + 1e-12)
                else:
                    bound = None
                    ok = None
                rows.append((n_sites, n, float(t), e_val, eps_norm, eps_bound, bound, ok))
        return rows

    rows = _over_N(config, parallel, worker)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _run_bbgky_verify(config: ExperimentConfig, parallel: int):
    sys = _draw_system(config)
    rho0 = _draw_initial(config)
    residual_gate = config.tol_value("residual", float("inf"))

    steps = (config.fd_h, config.fd_h / 2.0)
    width = 2 * len(steps) + 1

    def worker(n_sites: int):
        orders = [n for n in config.k_list if n <= n_sites - 1]
        if not orders:
            return []
        prop = _propagator(config, sys, n_sites, max(orders) + 1)
        # one grid pass at the highest order over every t's window; lower orders are traced from it
        times = [s for t in config.times for s in _window_times(t, steps)]
        top = prop.evolve_grid(rho0, times, max(orders) + 1)
        rows = []
        for n in orders:
            for j, t in enumerate(config.times):
                window = [m.marginal(n + 1) for m in top[j * width:(j + 1) * width]]
                r1, r2 = _window_residuals(window, sys, n_sites, t, steps)
                ratio = (
                    r1.residual_trace_norm / r2.residual_trace_norm
                    if r2.residual_trace_norm > 0.0
                    else None
                )
                if r1.residual_trace_norm > residual_gate:
                    raise BoundViolation(
                        f"finite-difference residual {r1.residual_trace_norm:.6e} "
                        f"exceeds tol.residual = {residual_gate:.6e} at N={n_sites}, n={n}, t={t}"
                    )
                rows.append((
                    n_sites, n, float(t), config.fd_h,
                    r1.residual_trace_norm, r2.residual_trace_norm, ratio,
                    r1.epsilon_norm, r1.epsilon_bound,
                ))
        return rows

    rows = _over_N(config, parallel, worker)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def _run_hartree_convergence(config: ExperimentConfig, parallel: int):
    sys = _draw_system(config)
    rho0 = _draw_initial(config)
    t_end = max(config.times)
    drift_tol = config.tol_value("drift", TRAJECTORY_TOL)
    endpoints = []
    steps = [config.step / (2**lvl) for lvl in range(3)]
    for s in steps:
        traj = integrate_hartree(rho0, sys, 0.0, t_end, s, save_every=10**9, drift_tol=drift_tol)
        endpoints.append(traj.states[-1].matrix)
    deltas = [
        linalg.trace_norm(endpoints[0] - endpoints[1]),
        linalg.trace_norm(endpoints[1] - endpoints[2]),
    ]
    ratio = deltas[0] / deltas[1] if deltas[1] > 0 else None
    rows = []
    for lvl, (s, end) in enumerate(zip(steps, endpoints)):
        eigs = np.linalg.eigvalsh(end)
        rows.append((
            lvl,
            s,
            deltas[lvl] if lvl < 2 else None,
            ratio if lvl == 0 else None,
            abs(float(np.trace(end).real) - 1.0),
            float(eigs.min()),
        ))
    return rows


def _run_bound_audit(config: ExperimentConfig, parallel: int):
    combos = len(config.N_list) * len(config.k_list)
    reps = -(-config.trials // combos)

    def worker(n_sites: int):
        rows = []
        for k in config.k_list:
            for rep in range(reps):
                rho_bar, rho_n = _draw_mixture(config, n_sites, n_sites, k, rep)
                rng = np.random.default_rng(
                    subseed(config.seed, NS_OBSERVABLE, n_sites, k, rep)
                )
                obs = [_draw_observable(rng, config.d, config.a_norm_cap) for _ in range(k)]
                c_val = factorization_error(rho_n, rho_bar, obs)
                e_vals = [max(empirical_variance(rho_n, rho_bar, a.conj().T), 0.0) for a in obs]
                b_sq, b_un = corollary_bound(rho_bar, obs, e_vals, n_sites)
                rows.append((
                    n_sites, k, rep, c_val, b_sq, b_un,
                    bool(c_val <= b_sq + 1e-9), b_sq - c_val,
                ))
        return rows

    rows = _over_N(config, parallel, worker)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


_RUNNERS = {
    "chaos_sweep": _run_chaos_sweep,
    "propagation": _run_propagation,
    "bbgky_verify": _run_bbgky_verify,
    "hartree_convergence": _run_hartree_convergence,
    "bound_audit": _run_bound_audit,
}


def run_experiment(config: ExperimentConfig, parallel: int = 1) -> ResultTable:
    """Execute one experiment; never raises for numerical violations.

    ConfigInvalid propagates (caller contract problem). Everything the
    numerical layer raises is recorded under metadata["error"] and the
    table is returned with whatever determinism allows: no rows.
    """
    validate_config(config)
    schema = SCHEMAS[config.kind]
    metadata = {
        "kind": config.kind,
        "config_hash": config_hash(config),
        "seed": config.seed,
        "tool_version": __version__,
    }
    start = time.perf_counter()
    rows: list[tuple] = []
    try:
        rows = _RUNNERS[config.kind](config, max(1, parallel))
    except ConfigInvalid:
        raise
    except ChaoticityError as exc:
        metadata["error"] = {"type": type(exc).__name__, "message": str(exc)}
    metadata["wall_time_s"] = time.perf_counter() - start
    for row in rows:
        if len(row) != len(schema):
            raise AssertionError(f"row arity {len(row)} != schema arity {len(schema)}")
    return ResultTable(schema=schema, rows=rows, metadata=metadata)
