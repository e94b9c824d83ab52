"""End-to-end acceptance gate, one numbered test per criterion.

Run with -v for a checklist (one PASS/FAIL line per criterion); each test
also prints a [criterion NN] summary line visible with -s or on failure.
Tolerances are asserted exactly as stated; trial counts and runtime limits
are part of the assertions.
"""

from __future__ import annotations

import time

import numpy as np

from chaoticity import linalg, tensor
from chaoticity.cli import render_csv
from chaoticity.config import ExperimentConfig
from chaoticity.blocks import BlockPropagator
from chaoticity.dynamics import (
    ExactPropagator,
    MeanFieldSystem,
    bbgky_residual,
    epsilon_term,
    gronwall_envelope,
    integrate_hartree,
)
from chaoticity.experiments import run_experiment
from chaoticity.metrics import (
    chaos_distance,
    corollary_bound,
    empirical_variance,
    factorization_error,
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


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num:02d} {name}{suffix}"


def _unit_observable(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    nrm = linalg.operator_norm(g)
    return g / nrm if nrm > 1.0 else g


def test_criterion_01_product_state_chaoticity():
    # the dense memory budget caps d=3 at N <= 7 (3^8 = 6561 > 4096)
    start = time.perf_counter()
    worst = 0.0
    cases = 0
    for d, n_max in ((2, 10), (3, 7)):
        for seed in (101, 102):
            rho = random_density(d, seed)
            for n in range(2, n_max + 1):
                big = product_state(rho, n)
                for k in range(1, min(3, n) + 1):
                    worst = max(worst, chaos_distance(big, rho, k))
                    cases += 1
    elapsed = time.perf_counter() - start
    _report(
        1,
        "product-state chaoticity",
        worst <= 1e-10 and elapsed < 10.0,
        f"{cases} cases, worst distance {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_empirical_variance_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    cases = 0
    for d, n_values in ((2, range(2, 11)), (3, range(2, 6))):
        for n in n_values:
            rho = random_density(d, int(rng.integers(1 << 30)))
            big = product_state(rho, n)
            for _ in range(3):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                got = empirical_variance(big, rho, a)
                want = oracles.product_e_closed_form(rho.matrix, a, n)
                worst = max(worst, abs(got - want))
                cases += 1
    elapsed = time.perf_counter() - start
    _report(
        2,
        "empirical-variance closed form",
        worst <= 1e-9 and elapsed < 10.0,
        f"{cases} cases, worst deviation {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_03_rate_bound_on_mixtures():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    trials = 0
    worst_margin = np.inf
    for n_sites in (4, 6, 8, 10):
        for k in (1, 2, 3):
            for _ in range(9):
                comps = [random_density(2, int(rng.integers(1 << 30))) for _ in range(3)]
                w = rng.random(3) + 1e-9
                w /= w.sum()
                rho_n = ProductMixture(w, comps, n_sites)
                bar = validate(
                    sum(wi * c.matrix for wi, c in zip(w, comps)), TensorShape(2, 1)
                )
                obs = [_unit_observable(rng, 2) for _ in range(k)]
                c_val = factorization_error(rho_n, bar, obs)
                e_vals = [
                    max(empirical_variance(rho_n, bar, a.conj().T), 0.0) for a in obs
                ]
                bound, _ = corollary_bound(bar, obs, e_vals, n_sites)
                worst_margin = min(worst_margin, bound - c_val)
                assert c_val <= bound + 1e-9, (n_sites, k, c_val, bound)
                trials += 1
    elapsed = time.perf_counter() - start
    _report(
        3,
        "factorization rate bound on mixtures",
        trials >= 100 and worst_margin >= -1e-9 and elapsed < 120.0,
        f"{trials} trials, worst margin {worst_margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_04_epsilon_bound_on_evolved_states():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    states = 0
    worst_ratio = 0.0
    for n_sites, trials in ((4, 35), (6, 30), (8, 25), (10, 10)):
        for _ in range(trials):
            sys = MeanFieldSystem(
                2,
                random_hermitian(2, int(rng.integers(1 << 30)), 1.0),
                random_hermitian(4, int(rng.integers(1 << 30)), 1.0),
            )
            rho0 = random_density(2, int(rng.integers(1 << 30)))
            t = float(rng.uniform(0.2, 1.0))
            (evolved,) = BlockPropagator(sys, n_sites).evolve_grid(rho0, (t,), 4)
            for n in (1, 2, 3):
                term = epsilon_term(evolved.marginal(n + 1), sys, n_sites)  # raises BoundViolation
                assert term.norm <= term.bound + 1e-9
                if term.bound > 0:
                    worst_ratio = max(worst_ratio, term.norm / term.bound)
            states += 1
    elapsed = time.perf_counter() - start
    _report(
        4,
        "epsilon defect bound on evolved states",
        states >= 100 and elapsed < 120.0,
        f"{states} states x n in 1..3, worst norm/bound {worst_ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_free_field_exactness_and_order():
    a = random_hermitian(2, 505, norm_cap=1.0)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    rho0 = random_density(2, 506)
    lam, u = linalg.herm_eigen(a)

    def closed_form(t):
        e = (u * np.exp(-1j * t * lam)) @ u.conj().T
        return e @ rho0.matrix @ e.conj().T

    traj = integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=10**9)
    err_fine = linalg.trace_norm(traj.states[-1].matrix - closed_form(1.0))

    # fourth-order check on coarser steps, where the signal clears roundoff
    errs = []
    for step in (2e-2, 1e-2):
        t = integrate_hartree(rho0, sys, 0.0, 1.0, step, save_every=10**9)
        errs.append(linalg.trace_norm(t.states[-1].matrix - closed_form(1.0)))
    ratio = errs[0] / errs[1]
    _report(
        5,
        "free-field exactness and integrator order",
        err_fine <= 1e-6 and 12.0 <= ratio <= 20.0,
        f"error at step 1e-3: {err_fine:.3e}, halving ratio {ratio:.2f}",
    )


def test_criterion_06_trajectory_stays_physical():
    sys = MeanFieldSystem(
        2, random_hermitian(2, 606, 1.0), random_hermitian(4, 607, 1.0)
    )
    rho0 = random_density(2, 608)
    traj = integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=10)
    drifts = [abs(float(np.trace(s.matrix).real) - 1.0) for s in traj.states]
    eigs = [float(np.linalg.eigvalsh(s.matrix)[0]) for s in traj.states]
    _report(
        6,
        "trajectory trace and positivity",
        max(drifts) <= 1e-8 and min(eigs) >= -1e-7,
        f"{len(traj.states)} states, max |tr-1| {max(drifts):.2e}, min eig {min(eigs):.2e}",
    )


def test_criterion_07_hierarchy_residual():
    # tolerance pinned by the h-refinement oracle: measured residuals at
    # h=1e-3 sit at or below 3.1e-6 across seeds with exact O(h^2) scaling,
    # so 2e-5 is a 6x guard band on the same grid
    tol = 2e-5
    worst = 0.0
    ratios = []
    for seed in (0, 1, 2):
        sys = MeanFieldSystem(
            2, random_hermitian(2, 3 * seed, 1.0), random_hermitian(4, 3 * seed + 1, 1.0)
        )
        rho0 = random_density(2, 3 * seed + 2)
        prop = ExactPropagator(sys, 4)
        for n in (1, 2):
            r1 = bbgky_residual(rho0, n, 0.5, 1e-3, prop)
            r2 = bbgky_residual(rho0, n, 0.5, 5e-4, prop)
            worst = max(worst, r1.residual_trace_norm)
            ratios.append(r1.residual_trace_norm / r2.residual_trace_norm)
    ok = worst <= tol and all(3.0 <= r <= 5.0 for r in ratios)
    _report(
        7,
        "coupled-hierarchy finite-difference residual",
        ok,
        f"worst residual {worst:.3e} <= {tol:.0e}, ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


# frozen regression values for the pinned seed (12345) of criterion 8;
# first failure here means the deterministic pipeline changed behavior
C8_EXPECTED = {
    2: 0.20647843604841803,
    4: 0.11068224960681063,
    6: 0.07536656957516,
    8: 0.057085843581807474,
    10: 0.04592498404412017,
}


def test_criterion_08_chaos_propagates():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kind="propagation",
        N_list=(2, 4, 6, 8, 10),
        k_list=(1,),
        times=(0.5,),
        gronwall=False,
    )
    table = run_experiment(cfg)
    assert table.metadata.get("error") is None, table.metadata
    e1 = {row[0]: row[3] for row in table.rows}
    elapsed = time.perf_counter() - start
    decreasing = all(e1[b] < e1[a] for a, b in zip((2, 4, 6, 8), (4, 6, 8, 10)))
    third = e1[10] <= e1[2] / 3.0
    pinned = all(abs(e1[n] - C8_EXPECTED[n]) <= 1e-8 * C8_EXPECTED[n] for n in e1)
    _report(
        8,
        "chaoticity defect decays with N",
        decreasing and third and pinned and elapsed < 300.0,
        "E_1 = "
        + ", ".join(f"{n}:{e1[n]:.4f}" for n in sorted(e1))
        + f", E(10)/E(2) = {e1[10] / e1[2]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_gronwall_audit():
    n_sites = 8
    sys = MeanFieldSystem(
        2, random_hermitian(2, 909, 1.0), random_hermitian(4, 910, 1.0)
    )
    rho0 = random_density(2, 911)
    traj = integrate_hartree(rho0, sys, 0.0, 0.5, 1e-3, save_every=10)
    prop = ExactPropagator(sys, n_sites)
    evolved = prop.evolve_grid(rho0, traj.times, 2)

    def err(m, state, order):
        marg = tensor.partial_trace(m.matrix, m.shape, range(order + 1, m.sites + 1))
        return linalg.trace_norm(marg - tensor.tensor_power(state.matrix, order))

    e1 = np.array([err(m, s, 1) for m, s in zip(evolved, traj.states)])
    e2 = np.array([err(m, s, 2) for m, s in zip(evolved, traj.states)])
    env = gronwall_envelope(traj.times, e2, 1, n_sites, sys.interaction_norm())
    ok = bool(np.all(e1 <= 1.05 * env + 1e-12))
    worst = float(np.max(np.where(env > 0, e1 / np.maximum(env, 1e-300), 0.0)))
    _report(
        9,
        "integral inequality along the trajectory",
        ok,
        f"{len(traj.times)} grid points, max measured/envelope {worst:.3f} <= 1.05",
    )


def test_criterion_10_symmetry_propagation():
    rng = np.random.default_rng(1010)
    trials = 0
    worst = 0.0
    for n_sites in (2, 3, 4, 5):
        for trial in range(5):
            sys = MeanFieldSystem(
                2,
                random_hermitian(2, int(rng.integers(1 << 30)), 1.0),
                random_hermitian(4, int(rng.integers(1 << 30)), 1.0),
            )
            if trial % 2 == 0:
                rho_n = product_state(
                    random_density(2, int(rng.integers(1 << 30))), n_sites
                )
            else:
                comps = [
                    random_density(2, int(rng.integers(1 << 30))) for _ in range(2)
                ]
                w = rng.random(2) + 1e-9
                w /= w.sum()
                rho_n = oracles.dense_mixture(ProductMixture(w, comps, n_sites))
            evolved = ExactPropagator(sys, n_sites).evolve(rho_n, float(rng.uniform(0.1, 1.0)))
            violation = oracles.full_group_defect(evolved)
            assert violation <= 1e-8, (n_sites, trial, violation)
            worst = max(worst, violation)
            trials += 1
    _report(
        10,
        "symmetry survives evolution",
        trials >= 20 and worst <= 1e-8,
        f"{trials} trials over the full permutation group, worst defect {worst:.2e}",
    )


def test_criterion_11_byte_identical_reruns():
    configs = [
        ExperimentConfig(kind="chaos_sweep", N_list=(2, 3), k_list=(1, 2)),
        ExperimentConfig(kind="propagation", N_list=(2, 4), k_list=(1,), times=(0.5,)),
        ExperimentConfig(kind="bbgky_verify", N_list=(2, 4), k_list=(1,), times=(0.3,)),
        ExperimentConfig(kind="hartree_convergence", step=4e-3, times=(1.0,)),
        ExperimentConfig(kind="bound_audit", N_list=(2, 3), k_list=(1, 2), trials=8),
    ]
    all_equal = True
    checked = []
    for cfg in configs:
        rows = []
        for _ in range(2):
            text = render_csv(run_experiment(cfg))
            rows.append([ln for ln in text.splitlines() if not ln.startswith("#")])
        all_equal = all_equal and rows[0] == rows[1]
        checked.append(cfg.kind)
    _report(
        11,
        "byte-identical rows on rerun",
        all_equal,
        f"kinds: {', '.join(checked)}",
    )
