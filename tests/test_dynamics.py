"""Mean-field Hamiltonians, exact evolution, the nonlinear one-site flow,
and the hierarchy consistency checks."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from chaoticity import linalg, tensor
from chaoticity.blocks import BlockPropagator, block_entries, check_block_budget
from chaoticity.dynamics import (
    DEFAULT_STEP_CAP,
    ExactPropagator,
    HartreeTrajectory,
    MeanFieldSystem,
    _hierarchy_terms,
    _window_residuals,
    _window_times,
    bbgky_residual,
    build_hamiltonian,
    epsilon_term,
    gronwall_envelope,
    hartree_rhs,
    integrate_hartree,
    step_cap,
    tensor_hierarchy_residual,
)
from chaoticity.errors import (
    BadSiteIndex,
    BoundViolation,
    DensityDriftExceeded,
    DimensionMismatch,
    MemoryBudgetExceeded,
    NotHermitian,
    StepTooLarge,
)
from chaoticity.states import (
    is_symmetric,
    product_state,
    random_density,
    random_hermitian,
    validate,
)
from chaoticity.tensor import TensorShape

import oracles


def make_system(d=2, seed_a=0, seed_v=1, a_cap=1.0, v_cap=1.0):
    return MeanFieldSystem(
        d,
        random_hermitian(d, seed_a, norm_cap=a_cap),
        random_hermitian(d * d, seed_v, norm_cap=v_cap),
    )


def pair_generator(sys):
    """V_12 + V_21 on two sites."""
    return oracles.embed_sites_full(sys.v, (1, 2), sys.d, 2) + oracles.embed_sites_full(
        sys.v, (2, 1), sys.d, 2
    )


# ---------------------------------------------------------------- system


def test_system_rejects_non_hermitian():
    good_a = random_hermitian(2, 2)
    with pytest.raises(NotHermitian):
        MeanFieldSystem(2, np.array([[0, 1], [0, 0]], dtype=complex), np.eye(4))
    with pytest.raises(NotHermitian):
        MeanFieldSystem(2, good_a, np.triu(np.ones((4, 4))))


def test_system_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        MeanFieldSystem(2, np.eye(3), np.eye(4))
    with pytest.raises(DimensionMismatch):
        MeanFieldSystem(2, np.eye(2), np.eye(9))


def test_system_w_is_symmetrised_pair():
    for d in (2, 3):
        sys = make_system(d=d, seed_a=70 + d, seed_v=75 + d)
        swap = oracles.naive_permutation_unitary((2, 1), d)
        assert np.max(np.abs(sys.w - (sys.v + swap @ sys.v @ swap))) <= 1e-15
    with pytest.raises(TypeError):
        MeanFieldSystem(2, np.eye(2), np.eye(4), np.eye(4))


def test_interaction_norm():
    sys = MeanFieldSystem(2, np.zeros((2, 2)), 2.0 * np.eye(4))
    assert abs(sys.interaction_norm() - 2.0) <= 1e-12


def test_step_cap_values():
    sys_small = MeanFieldSystem(2, np.zeros((2, 2)), 0.5 * np.eye(4))
    assert step_cap(sys_small.interaction_norm()) == DEFAULT_STEP_CAP  # ||V|| <= 1 leaves the cap
    sys_big = MeanFieldSystem(2, np.zeros((2, 2)), 2.0 * np.eye(4))
    assert abs(step_cap(sys_big.interaction_norm()) - 1.0 / 80.0) <= 1e-15


# ---------------------------------------------------------------- hamiltonians


def test_hamiltonian_free_case():
    a = random_hermitian(2, 3)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    h = build_hamiltonian(sys, 2)
    eye = np.eye(2)
    assert np.allclose(h, np.kron(a, eye) + np.kron(eye, a), atol=1e-14)


def test_hamiltonian_identity_interaction():
    # two ordered pairs, coupling 1/2: (1/2)(I + I) = I
    sys = MeanFieldSystem(2, np.zeros((2, 2)), np.eye(4))
    h = build_hamiltonian(sys, 2)
    assert np.allclose(h, np.eye(4), atol=1e-14)


def test_hamiltonian_pair_structure():
    v = random_hermitian(4, 4)
    sys = MeanFieldSystem(2, np.zeros((2, 2)), v)
    h = build_hamiltonian(sys, 2)
    assert np.allclose(h, pair_generator(sys) / 2.0, atol=1e-14)


def test_hamiltonian_is_symmetric_and_hermitian():
    sys = make_system(seed_a=5, seed_v=6)
    shape = TensorShape(2, 3)
    h = build_hamiltonian(sys, 3)
    assert linalg.hermiticity_defect(h) <= 1e-12
    for image in itertools.permutations((1, 2, 3)):
        moved = tensor.conjugate_by_permutation(h, image, shape)
        assert np.max(np.abs(moved - h)) <= 1e-9


def test_hamiltonian_matches_digit_loop_sum():
    for d, n in ((2, 6), (3, 3)):
        sys = make_system(d=d, seed_a=13, seed_v=14)
        want = sum(oracles.embed_sites_full(sys.a, (j,), d, n) for j in range(1, n + 1))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    want = want + oracles.embed_sites_full(sys.v, (i, j), d, n) / n
        assert np.max(np.abs(build_hamiltonian(sys, n) - want)) <= 1e-12


def test_hamiltonian_budget():
    sys = make_system()
    with pytest.raises(MemoryBudgetExceeded):
        build_hamiltonian(sys, 13)


# ---------------------------------------------------------------- exact evolution


def test_evolve_time_zero():
    sys = make_system(seed_a=13, seed_v=14)
    rho = product_state(random_density(2, 15), 3)
    got = ExactPropagator(sys, rho.sites).evolve(rho, 0.0)
    assert np.array_equal(got.matrix, rho.matrix)


def test_evolve_stationary_state():
    # a Gibbs-like function of H commutes with H, so it does not move
    sys = make_system(seed_a=16, seed_v=17)
    h = build_hamiltonian(sys, 2)
    lam, u = linalg.herm_eigen(h)
    p = np.exp(-lam)
    p /= p.sum()
    rho = validate((u * p) @ u.conj().T, TensorShape(2, 2))
    got = ExactPropagator(sys, rho.sites).evolve(rho, 0.9)
    assert np.max(np.abs(got.matrix - rho.matrix)) <= 1e-12


def test_evolve_round_trip():
    sys = make_system(seed_a=18, seed_v=19)
    rho = product_state(random_density(2, 20), 3)
    fwd = ExactPropagator(sys, rho.sites).evolve(rho, 0.7)
    back = ExactPropagator(sys, fwd.sites).evolve(fwd, -0.7)
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-8


def test_evolve_preserves_spectrum():
    sys = make_system(seed_a=21, seed_v=22)
    rho = product_state(random_density(2, 23), 3)
    evolved = ExactPropagator(sys, rho.sites).evolve(rho, 1.3)
    w0 = np.linalg.eigvalsh(rho.matrix)
    w1 = np.linalg.eigvalsh(evolved.matrix)
    assert np.max(np.abs(w0 - w1)) <= 1e-8


def test_evolve_preserves_symmetry():
    sys = make_system(seed_a=24, seed_v=25)
    rho = product_state(random_density(2, 26), 4)
    evolved = ExactPropagator(sys, rho.sites).evolve(rho, 0.6)
    ok, worst = is_symmetric(evolved, tol=1e-9)
    assert ok, worst


def test_propagator_grid_matches_single_shots():
    sys = make_system(seed_a=27, seed_v=28)
    times = [0.0, 0.1, 0.45, 1.0]
    rho0 = random_density(2, 29)
    for n_sites in (3, 8):
        prop = ExactPropagator(sys, n_sites)
        rho = product_state(rho0, n_sites)
        for k in (1, 2, 3):
            grid = prop.evolve_grid(rho0, times, k)
            assert len(grid) == len(times)
            for t, m in zip(times, grid):
                want = prop.evolve(rho, t).marginal(k)
                assert m.shape == want.shape
                assert np.max(np.abs(m.matrix - want.matrix)) <= 1e-12


def test_propagator_grid_argument_checks():
    prop = ExactPropagator(make_system(), 3)
    for order in (0, 4):
        with pytest.raises(BadSiteIndex):
            prop.evolve_grid(random_density(2, 32), [0.1], order)
    # evolve_grid takes the one-site rho0, as BlockPropagator's does
    with pytest.raises(DimensionMismatch):
        prop.evolve_grid(product_state(random_density(2, 32), 3), [0.1], 1)
    with pytest.raises(DimensionMismatch):
        prop.evolve_grid(random_density(3, 32), [0.1], 1)


def test_propagator_unitary():
    sys = make_system(seed_a=30, seed_v=31)
    prop = ExactPropagator(sys, 2)
    u = prop.unitary(0.37)
    assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12
    assert np.max(np.abs(prop.unitary(-0.37) - u.conj().T)) <= 1e-12


def test_propagator_shape_check():
    sys = make_system(seed_a=32, seed_v=33)
    prop = ExactPropagator(sys, 3)
    with pytest.raises(DimensionMismatch):
        prop.evolve(product_state(random_density(2, 34), 2), 0.1)


# ---------------------------------------------------------------- spin blocks


@pytest.mark.parametrize("n_sites", range(2, 11))
def test_block_grid_matches_dense_grid(n_sites):
    times = (0.0, 0.2, 0.75, 1.6)
    for seed in (40, 41, 42):
        sys = make_system(seed_a=seed, seed_v=seed + 100)
        rho0 = random_density(2, seed + 200)
        top = min(4, n_sites)
        block = BlockPropagator(sys, n_sites, top)
        # one dense grid at the top order; its lower orders are traced from it
        dense = ExactPropagator(sys, n_sites).evolve_grid(rho0, times, top)
        for order in range(1, top + 1):
            got = block.evolve_grid(rho0, times, order)
            assert len(got) == len(times)
            for g, w in zip(got, dense):
                want = w.marginal(order)
                assert g.shape == want.shape
                assert np.max(np.abs(g.matrix - want.matrix)) <= 1e-12


@pytest.mark.parametrize("rho0", [
    np.array([[1.0, 0.0], [0.0, 0.0]]),  # pure: a zero eigenvalue
    np.array([[0.5, 0.5j], [-0.5j, 0.5]]),  # pure, off the basis
    np.eye(2) / 2,  # degenerate spectrum
])
def test_block_grid_on_edge_states(rho0):
    sys = make_system(seed_a=43, seed_v=44)
    rho0 = validate(rho0, TensorShape(2, 1))
    got = BlockPropagator(sys, 5, 3).evolve_grid(rho0, (0.0, 0.6), 3)
    want = ExactPropagator(sys, 5).evolve_grid(rho0, (0.0, 0.6), 3)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.matrix - w.matrix)) <= 1e-12


def test_block_state_at_large_n():
    # 200 sites: multiplicities near 9e58 and weights near 1e-120 meet in logs
    n_sites = 200
    sys = make_system(seed_a=45, seed_v=46)
    rho0 = random_density(2, 47)
    prop = BlockPropagator(sys, n_sites, 3)
    traces = [np.trace(s).real for s in prop._block_states(rho0)]
    assert abs(sum(traces) - 1.0) <= 1e-12
    (m3,) = prop.evolve_grid(rho0, (0.0,), 3)
    for k in (1, 2, 3):
        want = tensor.tensor_power(rho0.matrix, k)
        assert np.max(np.abs(m3.marginal(k).matrix - want)) <= 1e-12


def test_block_budget_counts_held_entries():
    assert block_entries(64, 3) <= 4096**2
    assert block_entries(400, 2) > 4096**2
    BlockPropagator(make_system(), 64, 3)
    with pytest.raises(MemoryBudgetExceeded):
        BlockPropagator(make_system(), 64, 3, max_total_dim=256)
    with pytest.raises(MemoryBudgetExceeded):
        check_block_budget(20, 13, 4096)  # a 2^13-row marginal


def test_block_propagator_argument_checks():
    with pytest.raises(DimensionMismatch):
        BlockPropagator(make_system(d=3), 4, 2)
    for order in (0, 5):
        with pytest.raises(BadSiteIndex):
            BlockPropagator(make_system(), 4, order)
    prop = BlockPropagator(make_system(), 4, 2)
    assert prop.n_sites == 4
    for order in (0, 3):
        with pytest.raises(BadSiteIndex):
            prop.evolve_grid(random_density(2, 48), [0.1], order)
    with pytest.raises(DimensionMismatch):
        prop.evolve_grid(product_state(random_density(2, 48), 2), [0.1], 1)
    with pytest.raises(DimensionMismatch):
        prop.evolve_grid(random_density(3, 48), [0.1], 1)


# ---------------------------------------------------------------- one-site flow


def test_hartree_rhs_free_commuting_state():
    # V=0 and rho a function of A: both brackets vanish
    a = random_hermitian(2, 35)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    lam, u = linalg.herm_eigen(a)
    p = np.exp(-lam)
    p /= p.sum()
    rho = validate((u * p) @ u.conj().T, TensorShape(2, 1))
    assert np.max(np.abs(hartree_rhs(rho, sys))) <= 1e-14


def test_hartree_rhs_traceless_hermitian():
    sys = make_system(seed_a=36, seed_v=37)
    for seed in range(5):
        rho = random_density(2, 100 + seed)
        rhs = hartree_rhs(rho, sys)
        assert abs(np.trace(rhs)) <= 1e-11
        assert linalg.hermiticity_defect(rhs) <= 1e-11


def test_hartree_rhs_is_marginal_flow_limit():
    # the derivative of the 1-site marginal of rho^(ox N) under H_N differs
    # from the one-site flow by exactly (1/N) tr_2[V_12+V_21, rho ox rho]
    sys = make_system(seed_a=38, seed_v=39)
    rho = random_density(2, 40)
    w = pair_generator(sys)
    pair = np.kron(rho.matrix, rho.matrix)
    defect = tensor.partial_trace(
        w @ pair - pair @ w, TensorShape(2, 2), (2,)
    )
    defect_norm = linalg.trace_norm(defect)
    flow = hartree_rhs(rho, sys)
    for n in (4, 8):
        shape = TensorShape(2, n)
        rho_n = tensor.tensor_power(rho.matrix, n)
        h = build_hamiltonian(sys, n)
        deriv = -1j * (h @ rho_n - rho_n @ h)
        marg_deriv = tensor.partial_trace(deriv, shape, range(2, n + 1))
        got = linalg.trace_norm(marg_deriv - flow)
        assert abs(got - defect_norm / n) <= 1e-10


def test_hartree_rhs_matches_kron_oracle():
    for d in (2, 3):
        sys = make_system(d=d, seed_a=80 + d, seed_v=90 + d)
        for seed in range(4):
            rho = random_density(d, 200 + 10 * d + seed)
            want = oracles.hartree_rhs_kron(rho.matrix, sys.a, sys.v, d)
            assert np.max(np.abs(hartree_rhs(rho, sys) - want)) <= 1e-13


def test_integrate_matches_rk4_on_kron_oracle():
    sys = make_system(seed_a=95, seed_v=96)
    rho0 = random_density(2, 97)
    step = 1e-3
    traj = integrate_hartree(rho0, sys, 0.0, 200 * step, step, save_every=10**9)
    assert len(traj.states) == 2

    def f(m):
        return oracles.hartree_rhs_kron(m, sys.a, sys.v, 2)

    m = rho0.matrix
    for _ in range(200):
        k1 = f(m)
        k2 = f(m + 0.5 * step * k1)
        k3 = f(m + 0.5 * step * k2)
        k4 = f(m + step * k3)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    assert np.max(np.abs(traj.states[-1].matrix - m)) <= 1e-12


def test_hartree_rhs_input_checks():
    sys = make_system()
    with pytest.raises(DimensionMismatch):
        hartree_rhs(product_state(random_density(2, 41), 2), sys)
    with pytest.raises(DimensionMismatch):
        hartree_rhs(random_density(3, 42), sys)


# ---------------------------------------------------------------- integration


def test_integrate_free_flow_closed_form():
    a = random_hermitian(2, 43)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    rho0 = random_density(2, 44)
    traj = integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=100)
    lam, u = linalg.herm_eigen(a)
    for t, state in zip(traj.times, traj.states):
        phases = np.exp(-1j * t * lam)
        e = (u * phases) @ u.conj().T
        want = e @ rho0.matrix @ e.conj().T
        assert linalg.trace_norm(state.matrix - want) <= 1e-6, t


def test_integrate_degenerate_interval():
    sys = make_system(seed_a=45, seed_v=46)
    rho0 = random_density(2, 47)
    traj = integrate_hartree(rho0, sys, 0.3, 0.3, 1e-3)
    assert traj.times.tolist() == [0.3]
    assert len(traj.states) == 1
    assert traj.states[0] is rho0


def test_integrate_fourth_order_convergence():
    # endpoint Richardson: halving the step divides the error by about 16
    sys = make_system(seed_a=48, seed_v=49)
    rho0 = random_density(2, 50)
    ends = []
    for step in (2e-2, 1e-2, 5e-3):
        traj = integrate_hartree(rho0, sys, 0.0, 1.0, step, save_every=10**9)
        ends.append(traj.states[-1].matrix)
    d1 = linalg.trace_norm(ends[0] - ends[1])
    d2 = linalg.trace_norm(ends[1] - ends[2])
    assert 12.0 <= d1 / d2 <= 20.0, (d1, d2)


def test_integrate_step_cap_enforced():
    sys = make_system(seed_a=51, seed_v=52)  # ||V|| <= 1, cap = 0.025
    rho0 = random_density(2, 53)
    with pytest.raises(StepTooLarge):
        integrate_hartree(rho0, sys, 0.0, 1.0, 0.026)
    sys_strong = MeanFieldSystem(2, np.zeros((2, 2)), 2.0 * np.eye(4))
    with pytest.raises(StepTooLarge):
        integrate_hartree(rho0, sys_strong, 0.0, 1.0, 0.02)  # cap 1/80


def test_integrate_argument_checks():
    sys = make_system()
    rho0 = random_density(2, 54)
    with pytest.raises(ValueError):
        integrate_hartree(rho0, sys, 0.0, 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate_hartree(rho0, sys, 1.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=0)


def test_integrate_rejects_wrong_local_dimension():
    sys = make_system()
    with pytest.raises(DimensionMismatch):
        integrate_hartree(random_density(3, 54), sys, 0.0, 0.01, 1e-3)


def test_integrate_preserves_density_structure():
    sys = make_system(seed_a=55, seed_v=56)
    rho0 = random_density(2, 57)
    traj = integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=100)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0
    for state in traj.states:
        assert abs(np.trace(state.matrix) - 1.0) <= 1e-8
        assert np.linalg.eigvalsh(state.matrix)[0] >= -1e-7


def test_integrate_save_grid():
    sys = make_system(seed_a=58, seed_v=59)
    rho0 = random_density(2, 60)
    traj = integrate_hartree(rho0, sys, 0.0, 0.1, 1e-2, save_every=2)
    assert np.allclose(traj.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1], atol=1e-12)
    # endpoint not on the thinned grid still gets saved
    traj2 = integrate_hartree(rho0, sys, 0.0, 0.05, 1e-2, save_every=3)
    assert np.allclose(traj2.times, [0.0, 0.03, 0.05], atol=1e-12)


def test_integrate_drift_guard_fires():
    sys = make_system(seed_a=61, seed_v=62)
    rho0 = random_density(2, 63)
    with pytest.raises(DensityDriftExceeded):
        integrate_hartree(rho0, sys, 0.0, 0.2, 1e-3, save_every=50, drift_tol=0.0)


def test_trajectory_state_lookup():
    sys = make_system(seed_a=64, seed_v=65)
    rho0 = random_density(2, 66)
    traj = integrate_hartree(rho0, sys, 0.0, 0.1, 1e-2)
    state = traj.state_at(0.05)
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-8
    with pytest.raises(ValueError):
        traj.state_at(0.055)


# ---------------------------------------------------------------- epsilon defect


def test_epsilon_vanishes_without_interaction():
    a = random_hermitian(2, 67)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    rho_n = product_state(random_density(2, 68), 4)
    term = epsilon_term(rho_n.marginal(3), sys, 4)
    assert term.norm <= 1e-12
    assert term.bound == 0.0


def test_epsilon_order_one_collapses():
    # at n=1 the intra-block sum is empty, leaving only the traced bracket
    sys = make_system(seed_a=69, seed_v=70)
    rho_n = product_state(random_density(2, 71), 4)
    term = epsilon_term(rho_n.marginal(2), sys, 4)
    m2 = rho_n.marginal(2).matrix
    w = pair_generator(sys)
    want = -tensor.partial_trace(w @ m2 - m2 @ w, TensorShape(2, 2), (2,)) / 4.0
    assert np.max(np.abs(term.matrix - want)) <= 1e-13
    assert abs(term.norm - linalg.trace_norm(want)) <= 1e-12


def test_epsilon_bound_formula():
    sys = make_system(seed_a=72, seed_v=73, v_cap=0.8)
    rho_n = product_state(random_density(2, 74), 6)
    term = epsilon_term(rho_n.marginal(3), sys, 6)
    v_norm = sys.interaction_norm()
    assert abs(term.bound - 5.0 * 4.0 * v_norm / 6.0) <= 1e-12
    assert term.norm <= term.bound + 1e-9


def test_epsilon_stays_bounded_on_evolved_states():
    # the 5 n^2 ||V|| / N ceiling holds along the flow, not just at t=0
    rng = np.random.default_rng(75)
    for trial in range(6):
        sys = make_system(
            seed_a=int(rng.integers(1 << 30)), seed_v=int(rng.integers(1 << 30))
        )
        rho0 = product_state(random_density(2, int(rng.integers(1 << 30))), 5)
        evolved = ExactPropagator(sys, rho0.sites).evolve(rho0, float(rng.uniform(0.1, 1.0)))
        for n in (1, 2, 3):
            term = epsilon_term(evolved.marginal(n + 1), sys, 5)  # raises BoundViolation
            assert term.norm <= term.bound + 1e-9


def test_epsilon_order_range():
    sys = make_system()
    rho_n = product_state(random_density(2, 76), 3)
    with pytest.raises(ValueError):
        epsilon_term(rho_n.marginal(1), sys, 3)  # n = 0
    with pytest.raises(ValueError):
        epsilon_term(product_state(random_density(2, 76), 4), sys, 3)  # n = 3 > N - 1


def test_epsilon_rejects_wrong_local_dimension():
    sys = make_system()
    with pytest.raises(DimensionMismatch):
        epsilon_term(product_state(random_density(3, 77), 2), sys, 4)


def test_epsilon_on_marginals_matches_full_state_oracle():
    # the (n+1)-site marginal carries everything eps_n needs: compare with the
    # defect formed from the whole N-site state, at N <= 6
    sys = make_system(seed_a=101, seed_v=102)
    generic = validate(random_density(16, 103).matrix, TensorShape(2, 4))
    prop = ExactPropagator(sys, 6)
    evolved = prop.evolve(product_state(random_density(2, 104), 6), 0.7)
    for state in (generic, evolved):
        for n in range(1, state.sites):
            term = epsilon_term(state.marginal(n + 1), sys, state.sites)
            want = oracles.epsilon_full_state(state.matrix, sys.v, 2, state.sites, n)
            assert np.max(np.abs(term.matrix - want)) <= 1e-12
            assert abs(term.norm - oracles.trace_norm_svd(want)) <= 1e-12


def test_hierarchy_terms_split_the_marginal_flow():
    # on a generic (n+1)-site density, L is the limiting right side and
    # L + eps_n the N-body one, [H_{n,N}, rho^(n)] + ((N-n)/N) P, with the
    # first-n-sites generator H_{n,N} and P built by digit loops
    for d, n, n_sites in ((2, 1, 5), (2, 2, 4), (2, 3, 9), (3, 2, 3)):
        sys = make_system(d=d, seed_a=120 + n, seed_v=130 + n)
        m = random_density(d ** (n + 1), 140 + n).matrix
        m_n = oracles.marginal_full(m, d, n + 1, n)
        ones = sum(oracles.embed_sites_full(sys.a, (j,), d, n) for j in range(1, n + 1))
        pairs = oracles.symmetrised_pairs_full(
            sys.v, d, n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )
        p = oracles._traced_pair_commutator(sys.v, m, d, n)
        h_n = ones + pairs / n_sites
        limit, eps = _hierarchy_terms(sys, m, TensorShape(d, n + 1), n_sites)
        assert np.max(np.abs(limit - (ones @ m_n - m_n @ ones + p))) <= 1e-12
        want = h_n @ m_n - m_n @ h_n + ((n_sites - n) / n_sites) * p
        assert np.max(np.abs(limit + eps.matrix - want)) <= 1e-12


# ---------------------------------------------------------------- hierarchy checks


def test_bbgky_residual_static_system():
    sys = MeanFieldSystem(2, np.zeros((2, 2)), np.zeros((4, 4)))
    rho0 = random_density(2, 77)
    res = bbgky_residual(rho0, sys, 1, 0.5, 1e-3, ExactPropagator(sys, 3))
    assert res.residual_trace_norm <= 1e-12
    assert res.epsilon_norm <= 1e-12


def test_bbgky_residual_second_order_in_h():
    sys = make_system(seed_a=78, seed_v=79)
    rho0 = random_density(2, 80)
    prop = ExactPropagator(sys, 4)
    r1 = bbgky_residual(rho0, sys, 1, 0.4, 1e-2, propagator=prop)
    r2 = bbgky_residual(rho0, sys, 1, 0.4, 5e-3, propagator=prop)
    assert 3.0 <= r1.residual_trace_norm / r2.residual_trace_norm <= 5.0


def test_bbgky_residual_small_at_fine_h():
    sys = make_system(seed_a=81, seed_v=82)
    rho0 = random_density(2, 83)
    res = bbgky_residual(rho0, sys, 1, 0.5, 1e-3, ExactPropagator(sys, 4))
    assert res.residual_trace_norm <= 1e-4
    assert res.epsilon_norm <= res.epsilon_bound + 1e-9


def test_bbgky_residual_shared_propagator_consistent():
    # both propagators take the same one-site rho0 and give the same residual
    sys = make_system(seed_a=84, seed_v=85)
    rho0 = random_density(2, 86)
    a = bbgky_residual(rho0, sys, 2, 0.3, 1e-3, propagator=ExactPropagator(sys, 3))
    b = bbgky_residual(rho0, sys, 2, 0.3, 1e-3, propagator=BlockPropagator(sys, 3, 3))
    assert abs(a.residual_trace_norm - b.residual_trace_norm) <= 1e-12
    assert abs(a.epsilon_norm - b.epsilon_norm) <= 1e-12


@pytest.mark.parametrize("n_sites, n", [(3, 1), (3, 2), (6, 2)])
def test_bbgky_residuals_share_one_grid(n_sites, n):
    # h and h/2 from one evolve_grid call equal two separate one-step calls
    sys = make_system(seed_a=88, seed_v=89)
    rho0 = random_density(2, 90)
    prop = ExactPropagator(sys, n_sites)
    steps = (1e-2, 5e-3)
    window = prop.evolve_grid(rho0, _window_times(0.3, steps), n + 1)
    pair = _window_residuals(window, sys, n_sites, 0.3, steps)
    for h, got in zip(steps, pair):
        want = bbgky_residual(rho0, sys, n, 0.3, h, prop)
        assert abs(got.residual_trace_norm - want.residual_trace_norm) <= 1e-15
        assert (got.n, got.t, got.epsilon_norm, got.epsilon_bound) == (
            want.n, want.t, want.epsilon_norm, want.epsilon_bound
        )
    with pytest.raises(ValueError):
        bbgky_residual(rho0, sys, n, 0.3, 0.0, prop)


def test_bbgky_residual_argument_checks():
    sys = make_system()
    rho0 = random_density(2, 87)
    prop = ExactPropagator(sys, 3)
    with pytest.raises(ValueError):
        bbgky_residual(rho0, sys, 3, 0.1, 1e-3, prop)
    with pytest.raises(ValueError):
        bbgky_residual(rho0, sys, 1, 0.1, 0.0, prop)
    with pytest.raises(DimensionMismatch):  # the propagator forms rho0^(ox N) itself
        bbgky_residual(product_state(rho0, 3), sys, 1, 0.1, 1e-3, prop)


def test_bbgky_residual_matches_full_state_oracle():
    # one evolve_grid call against three full states and their marginals
    sys = make_system(seed_a=105, seed_v=106)
    for n_sites in (3, 6):
        rho0 = random_density(2, 107 + n_sites)
        rho_n0 = product_state(rho0, n_sites)
        prop = ExactPropagator(sys, n_sites)
        for n in (1, 2):
            t, h = 0.4, 1e-2
            got = bbgky_residual(rho0, sys, n, t, h, propagator=prop)
            want = oracles.bbgky_residual_full_state(prop, rho_n0, sys.a, sys.v, n, t, h)
            assert abs(got.residual_trace_norm - want) <= 1e-12
            eps = oracles.epsilon_full_state(prop.evolve(rho_n0, t).matrix, sys.v, 2, n_sites, n)
            assert abs(got.epsilon_norm - oracles.trace_norm_svd(eps)) <= 1e-12


def test_tensor_hierarchy_free_flow():
    # V=0: rho(t)^(ox n) solves the hierarchy exactly; only fd error remains
    a = random_hermitian(2, 88)
    sys = MeanFieldSystem(2, a, np.zeros((4, 4)))
    rho0 = random_density(2, 89)
    lam, u = linalg.herm_eigen(a)
    h = 5e-5
    t = 0.2
    times = [t - h, t, t + h]
    states = []
    for s in times:
        e = (u * np.exp(-1j * s * lam)) @ u.conj().T
        states.append(validate(e @ rho0.matrix @ e.conj().T, rho0.shape))
    traj = HartreeTrajectory(np.array(times), tuple(states))
    assert tensor_hierarchy_residual(traj, sys, 1, t, h) <= 1e-8


def test_tensor_hierarchy_on_integrated_flow():
    sys = make_system(seed_a=90, seed_v=91)
    rho0 = random_density(2, 92)
    traj = integrate_hartree(rho0, sys, 0.0, 4e-3, 1e-4)
    res1 = tensor_hierarchy_residual(traj, sys, 1, 2e-3, 1e-3)
    res2 = tensor_hierarchy_residual(traj, sys, 2, 2e-3, 1e-3)
    assert res1 <= 1e-5
    assert res2 <= 1e-5


def test_tensor_hierarchy_respects_state_budget():
    # order n = 3 needs d^(n+1) = 16 > 8, the budget the states carry
    sys = make_system()
    shape = TensorShape(2, 1, max_total_dim=8)
    rho0 = random_density(2, 94)
    states = tuple(validate(rho0.matrix, shape) for _ in range(3))
    traj = HartreeTrajectory(np.array([0.0, 1e-3, 2e-3]), states)
    assert tensor_hierarchy_residual(traj, sys, 2, 1e-3, 1e-3) >= 0.0
    with pytest.raises(MemoryBudgetExceeded):
        tensor_hierarchy_residual(traj, sys, 3, 1e-3, 1e-3)


def test_tensor_hierarchy_argument_checks():
    sys = make_system()
    rho0 = random_density(2, 93)
    traj = integrate_hartree(rho0, sys, 0.0, 0.01, 1e-3)
    with pytest.raises(ValueError):
        tensor_hierarchy_residual(traj, sys, 1, 0.005, 0.0)
    with pytest.raises(ValueError):
        tensor_hierarchy_residual(traj, sys, 1, 0.0051, 1e-3)  # off grid


# ---------------------------------------------------------------- envelope


def test_gronwall_envelope_constant_errors():
    # constant order-(n+1) error makes the integral exact under trapezoid
    times = np.linspace(0.0, 1.0, 11)
    c = 0.05
    env = gronwall_envelope(times, np.full(11, c), n=2, n_sites=8, v_norm=0.7, e0=0.01)
    want = 0.01 + 5.0 * 4.0 * 0.7 * times / 8.0 + 4.0 * 2.0 * 0.7 * c * times
    assert np.allclose(env, want, atol=1e-14)


def test_gronwall_envelope_shape_checks():
    with pytest.raises(DimensionMismatch):
        gronwall_envelope(np.zeros(3), np.zeros(4), 1, 4, 1.0)
    assert gronwall_envelope(np.array([]), np.array([]), 1, 4, 1.0).size == 0


def test_gronwall_envelope_dominates_marginal_error():
    # miniature end-to-end check at N=6: the order-1 error stays under the
    # envelope fed by the measured order-2 errors
    sys = make_system(seed_a=94, seed_v=95, v_cap=0.8)
    rho0 = random_density(2, 96)
    n_sites = 6
    prop = ExactPropagator(sys, n_sites)
    traj = integrate_hartree(rho0, sys, 0.0, 0.5, 1e-3, save_every=20)
    times = traj.times
    evolved = prop.evolve_grid(rho0, times, 2)

    def error_norm(m, hartree_state, order):
        marg = tensor.partial_trace(m.matrix, m.shape, range(order + 1, m.sites + 1))
        return linalg.trace_norm(marg - tensor.tensor_power(hartree_state.matrix, order))

    e1 = np.array(
        [error_norm(m, s, 1) for m, s in zip(evolved, traj.states)]
    )
    e2 = np.array(
        [error_norm(m, s, 2) for m, s in zip(evolved, traj.states)]
    )
    env = gronwall_envelope(times, e2, n=1, n_sites=n_sites, v_norm=sys.interaction_norm())
    assert np.all(e1 <= 1.05 * env + 1e-12)
