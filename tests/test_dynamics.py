"""Mean-field Hamiltonians, exact evolution, the nonlinear one-site flow,
and the hierarchy consistency checks."""

from __future__ import annotations

import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chaoticity import dynamics, linalg, tensor
from chaoticity.blocks import (
    BlockPropagator,
    _block_sizes,
    _chunk_entries,
    _chunk_length,
    block_entries,
    check_budget,
    propagator,
)
from chaoticity.dynamics import (
    DEFAULT_STEP_CAP,
    GRID_TOL,
    TRAJECTORY_TOL,
    ExactPropagator,
    HartreeTrajectory,
    MeanFieldSystem,
    _hierarchy_terms,
    _rk4_start,
    bbgky_residual,
    bbgky_residuals,
    build_hamiltonian,
    epsilon_term,
    gronwall_envelope,
    hartree_endpoints,
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


@pytest.mark.parametrize("n_sites, orders", [
    # a fresh object asked for order 1 first: its pair term still reads the order-2 sums
    *(pytest.param(n, range(1, min(4, n) + 1), id=str(n)) for n in range(1, 11)),
    # one object answers the orders in any sequence, each built on first use
    pytest.param(5, (3, 1, 2, 5), id="5-orders-3-1-2-5"),
])
def test_block_grid_matches_dense_grid(n_sites, orders):
    times = (0.0, 0.2, 0.75, 1.6)
    for seed in (40, 41, 42):
        sys = make_system(seed_a=seed, seed_v=seed + 100)
        rho0 = random_density(2, seed + 200)
        block = BlockPropagator(sys, n_sites)
        # one dense grid at the top order; its lower orders are traced from it
        dense = ExactPropagator(sys, n_sites).evolve_grid(rho0, times, max(orders))
        for order in orders:
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
    got = BlockPropagator(sys, 5).evolve_grid(rho0, (0.0, 0.6), 3)
    want = ExactPropagator(sys, 5).evolve_grid(rho0, (0.0, 0.6), 3)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.matrix - w.matrix)) <= 1e-12


def test_block_state_at_large_n():
    # 200 sites: multiplicities near 9e58 and weights near 1e-120 meet in logs
    n_sites = 200
    sys = make_system(seed_a=45, seed_v=46)
    rho0 = random_density(2, 47)
    prop = BlockPropagator(sys, n_sites)
    traces = [np.trace(s).real for s in prop._block_states(rho0)]
    assert abs(sum(traces) - 1.0) <= 1e-12
    (m3,) = prop.evolve_grid(rho0, (0.0,), 3)
    for k in (1, 2, 3):
        want = tensor.tensor_power(rho0.matrix, k)
        assert np.max(np.abs(m3.marginal(k).matrix - want)) <= 1e-12


def test_block_grid_is_read_in_chunks_as_per_time_calls():
    # 101 save points at N = 20 span 12 chunks of 9 times
    sys = make_system(seed_a=49, seed_v=50)
    rho0 = random_density(2, 51)
    prop = BlockPropagator(sys, 20)
    assert _chunk_length(20, prop.max_total_dim) == 9
    times = np.linspace(0.0, 2.0, 101)
    got = prop.evolve_grid(rho0, times, 3)
    assert len(got) == 101
    for g, t in zip(got, times):
        (want,) = prop.evolve_grid(rho0, [t], 3)
        assert np.max(np.abs(g.matrix - want.matrix)) <= 1e-15
    assert prop.evolve_grid(rho0, [], 3) == []


@pytest.mark.parametrize("n_sites, chunk", [(20, 9), (64, 1)])
def test_block_grid_work_stays_within_its_budget_rule(n_sites, chunk):
    # only the returned marginals outlive a chunk: what evolve_grid takes on
    # top of them is the rotated initial state and one chunk's work
    prop = BlockPropagator(make_system(seed_a=52, seed_v=53), n_sites)
    assert _chunk_length(n_sites, prop.max_total_dim) == chunk
    sizes = _block_sizes(n_sites)
    allotted = 16 * (int((sizes * sizes).sum())
                     + _chunk_entries(n_sites, 3, prop.max_total_dim))
    rho0, times = random_density(2, 54), np.linspace(0.0, 1.0, 101)
    tracemalloc.start()
    try:
        got = prop.evolve_grid(rho0, times, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 101
    assert peak - held <= allotted


def test_block_budget_counts_held_entries():
    assert block_entries(64, 3) <= 4096**2
    assert block_entries(400, 2) > 4096**2
    # construction holds the sums of order 2, for the pair term
    with pytest.raises(MemoryBudgetExceeded):
        BlockPropagator(make_system(), 64, max_total_dim=256)
    prop, rho0 = BlockPropagator(make_system(), 64), random_density(2, 55)
    assert prop._orders == {}
    prop.evolve_grid(rho0, [0.1], 3)
    # only the order asked for is built
    assert list(prop._orders) == [3]
    # order 13 has 2^13 rows; order 12 has 2^12, but its sums and bands pass the budget
    assert 2**12 <= prop.max_total_dim and block_entries(64, 12) > prop.max_total_dim**2
    for order in (13, 12):
        with pytest.raises(MemoryBudgetExceeded):
            prop.evolve_grid(rho0, [0.1], order)
    # each call checks the largest order held before building any of its own
    assert list(prop._orders) == [3]
    # a marginal of order k has 2^k rows: TensorShape's rule, checked before the entry count
    check_budget(2, 64, 3, 4096)
    with pytest.raises(MemoryBudgetExceeded, match=r"2\*\*13"):
        check_budget(2, 64, 13, 4096)


@pytest.mark.parametrize("d, kind", [(2, BlockPropagator), (3, ExactPropagator)])
def test_propagators_share_one_contract(d, kind):
    assert inspect.signature(kind) == inspect.signature(ExactPropagator)
    sys = make_system(d=d)
    prop = propagator(sys, 3, 4096)
    # the hierarchy checks form their right side from the propagator's own system
    assert type(prop) is kind and prop.sys is sys and prop.n_sites == 3
    rho0 = random_density(d, 48)
    for order in (0, 4):
        with pytest.raises(BadSiteIndex):
            prop.evolve_grid(rho0, [0.1], order)
    # evolve_grid takes the one-site rho0 of the system's d
    for wrong in (product_state(rho0, 2), random_density(5 - d, 48)):
        with pytest.raises(DimensionMismatch):
            prop.evolve_grid(wrong, [0.1], 1)


def test_block_propagator_argument_checks():
    with pytest.raises(DimensionMismatch):
        BlockPropagator(make_system(d=3), 4)


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


def test_hartree_rhs_matches_kron_oracle_at_d4():
    # the d^2 x d^2 generator's index order beyond the d <= 3 cases above
    sys = make_system(d=4, seed_a=84, seed_v=94)
    for seed in range(3):
        rho = random_density(4, 240 + seed)
        want = oracles.hartree_rhs_kron(rho.matrix, sys.a, sys.v, 4)
        assert np.max(np.abs(hartree_rhs(rho, sys) - want)) <= 1e-13


def test_hartree_generator_is_built_on_first_use_at_w_size():
    # at d = 16 the flow must not hold a d^6 form, 256 times the size of w
    sys = make_system(d=16, seed_a=85, seed_v=95)
    assert "_hartree_generator" not in vars(sys)
    rho = random_density(16, 243)
    tracemalloc.start()
    try:
        got = hartree_rhs(rho, sys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * sys.w.nbytes
    gen = sys._hartree_generator
    assert gen.shape == (16**2, 16**2 + 1)
    want = oracles.hartree_rhs_kron(rho.matrix, sys.a, sys.v, 16)
    assert np.max(np.abs(got - want)) <= 1e-13


def test_lockstep_holds_no_generator_per_run():
    # the generator built first: three levels at d = 16 add their stages and
    # the stacked flow's Ld x L(d + 1) block matrix, no per-run, padded or
    # block-diagonal copy of the generator
    sys = make_system(d=16, seed_a=88, seed_v=98)
    rho0 = random_density(16, 246)
    assert sys._hartree_generator.shape == (16**2, 16**2 + 1)
    tracemalloc.start()
    try:
        ends = hartree_endpoints(rho0, sys, 0.004, LOCKSTEP_STEPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ends) == 3
    assert peak <= 0.5 * sys.w.nbytes


def test_integrate_matches_rk4_on_kron_oracle():
    # 203.5 steps: the last is shortened to land on t1; every 7th state is stored
    step = 1e-3
    t1 = 203.5 * step
    for d in (2, 3):
        sys = make_system(d=d, seed_a=95, seed_v=96)
        rho0 = random_density(d, 97)
        traj = integrate_hartree(rho0, sys, 0.0, t1, step, save_every=7)
        assert len(traj.states) == 1 + 29 + 1
        assert traj.times[-1] == t1

        m = rho0.matrix
        want = [m]
        for i in range(204):
            dt = step if i < 203 else t1 - 203 * step
            k1 = oracles.hartree_rhs_kron(m, sys.a, sys.v, d)
            k2 = oracles.hartree_rhs_kron(m + 0.5 * dt * k1, sys.a, sys.v, d)
            k3 = oracles.hartree_rhs_kron(m + 0.5 * dt * k2, sys.a, sys.v, d)
            k4 = oracles.hartree_rhs_kron(m + dt * k3, sys.a, sys.v, d)
            m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (i + 1) % 7 == 0 or i == 203:
                want.append(m)
        assert len(want) == len(traj.states)
        for got, m in zip(traj.states, want):
            assert np.max(np.abs(got.matrix - m)) <= 1e-12
        for a, b in itertools.combinations(traj.states, 2):
            assert not np.shares_memory(a.matrix, b.matrix)


def test_integrate_matches_rk4_on_kron_oracle_on_the_step_grid(monkeypatch):
    # t1 = 128 binary steps lands on the grid: one tableau, no shortened step
    step = 2.0**-10
    t1 = 128 * step
    d = 4
    sys = make_system(d=d, seed_a=98, seed_v=99)
    rho0 = random_density(d, 100)
    built = []
    tableau = dynamics._rk4_tableau

    def counted(dt):
        built.append(dt)
        return tableau(dt)

    monkeypatch.setattr(dynamics, "_rk4_tableau", counted)
    traj = integrate_hartree(rho0, sys, 0.0, t1, step, save_every=8)
    assert built == [step]
    assert traj.times.tolist() == [8 * i * step for i in range(17)]

    m = rho0.matrix
    want = [m]
    for i in range(128):
        k1 = oracles.hartree_rhs_kron(m, sys.a, sys.v, d)
        k2 = oracles.hartree_rhs_kron(m + 0.5 * step * k1, sys.a, sys.v, d)
        k3 = oracles.hartree_rhs_kron(m + 0.5 * step * k2, sys.a, sys.v, d)
        k4 = oracles.hartree_rhs_kron(m + step * k3, sys.a, sys.v, d)
        m = m + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % 8 == 0:
            want.append(m)
    assert len(want) == len(traj.states)
    for got, m in zip(traj.states, want):
        assert np.max(np.abs(got.matrix - m)) <= 1e-12


def test_hartree_flow_keeps_states_hermitian():
    # the flow returns p + p† with p = g rho, exactly Hermitian; RK4 combines
    # its rows with real weights, so no stored state gains an anti-Hermitian
    # part. rho0 is symmetrised to be exactly Hermitian: an ulp-sized
    # anti-Hermitian part of its own may round up by an ulp when added.
    for d in (2, 3):
        sys = make_system(d=d, seed_a=101 + d, seed_v=103 + d)
        m = random_density(d, 105 + d).matrix
        rho0 = validate((m + m.conj().T) / 2, TensorShape(d, 1))
        traj = integrate_hartree(rho0, sys, 0.0, 2000 * 1e-3, 1e-3)
        assert len(traj.states) == 2001
        bound = linalg.hermiticity_defect(rho0.matrix)
        for state in traj.states:
            assert linalg.hermiticity_defect(state.matrix) <= bound
        assert linalg.hermiticity_defect(hartree_rhs(random_density(d, 107 + d), sys)) == 0.0
        # three levels in lockstep take the stacked flow's block-diagonal p + p†
        ends = hartree_endpoints(rho0, sys, 2000 * 1e-3, LOCKSTEP_STEPS, TRAJECTORY_TOL)
        assert len(ends) == 3
        for end in ends:
            assert linalg.hermiticity_defect(end.matrix) <= bound


def test_hartree_rhs_assumes_a_hermitian_state():
    # p + p† equals [g, rho] only for Hermitian rho; a 1e-12 anti-Hermitian
    # part, inside validate's tolerance, moves the result by about as much
    for d in (2, 3):
        sys = make_system(d=d, seed_a=109 + d, seed_v=111 + d)
        rho = random_density(d, 113 + d).matrix
        skew = 1j * random_hermitian(d, 115 + d)
        state = validate(rho + 1e-12 * skew / np.abs(skew).max(), TensorShape(d, 1))
        assert linalg.hermiticity_defect(state.matrix) > 0.0
        want = oracles.hartree_rhs_kron(state.matrix, sys.a, sys.v, d)
        assert np.max(np.abs(hartree_rhs(state, sys) - want)) <= 1e-10


def test_integrate_stays_at_w_size():
    # three steps at d = 16, the generator built inside: no d^6 form and no
    # d^4-sized temporary per stage
    sys = make_system(d=16, seed_a=86, seed_v=96)
    rho0 = random_density(16, 244)
    tracemalloc.start()
    try:
        traj = integrate_hartree(rho0, sys, 0.0, 3e-3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 4
    assert peak <= 2 * sys.w.nbytes


def test_dynamics_public_names(monkeypatch):
    # bench/tracer.py wraps every public function here: a public per-step
    # helper would add a span to every RK4 stage of a traced pass
    public = {
        name
        for name, value in vars(dynamics).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == dynamics.__name__
    }
    assert public == {
        "MeanFieldSystem", "step_cap", "build_hamiltonian", "ExactPropagator",
        "HartreeTrajectory", "hartree_rhs", "integrate_hartree", "EpsilonTerm",
        "epsilon_term", "HierarchyResidual", "bbgky_residual", "bbgky_residuals",
        "tensor_hierarchy_residual", "gronwall_envelope", "hartree_endpoints",
    }

    def refuse(*args, **kwargs):
        raise AssertionError("integrate_hartree called hartree_rhs")

    monkeypatch.setattr(dynamics, "hartree_rhs", refuse)
    traj = integrate_hartree(random_density(2, 117), make_system(), 0.0, 0.01, 1e-3)
    assert traj.times[-1] == 0.01


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


def test_rk4_start_rejects_non_finite_times_and_steps():
    # nan passes every comparison, so each is refused by name, not by int(nan)
    sys = make_system()
    rho0 = random_density(2, 54)
    for t0, t1 in ((0.0, math.nan), (0.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="finite t0 <= t1"):
            _rk4_start(rho0, sys, t0, t1, [1e-3])
    with pytest.raises(ValueError, match="step must be positive"):
        _rk4_start(rho0, sys, 0.0, 1.0, [math.nan])
    with pytest.raises(ValueError, match="step must be positive"):
        hartree_endpoints(rho0, sys, 0.1, (4e-3, math.nan, 1e-3), TRAJECTORY_TOL)
    with pytest.raises(ValueError, match="finite t0 <= t1"):
        integrate_hartree(rho0, sys, 0.0, math.nan, 1e-3)


def test_integrate_rejects_wrong_local_dimension():
    sys = make_system()
    with pytest.raises(DimensionMismatch):
        integrate_hartree(random_density(3, 54), sys, 0.0, 0.01, 1e-3)
    with pytest.raises(DimensionMismatch):
        integrate_hartree(product_state(random_density(2, 54), 2), sys, 0.0, 0.01, 1e-3)


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


def test_overflowing_run_is_drift():
    # the step cap reads ||V|| only, so ||A|| = 1e4 lets the state overflow
    # between save points; a non-finite row is drift, named by its time
    sys = MeanFieldSystem(2, 1e4 * random_hermitian(2, 1), random_hermitian(4, 2))
    rho0 = random_density(2, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DensityDriftExceeded, match="t = 0.05 drifted: matrix has NaN or Inf"):
            integrate_hartree(rho0, sys, 0.0, 1.0, 1e-3, save_every=50)
        with pytest.raises(DensityDriftExceeded, match="t = 1 drifted: matrix has NaN or Inf"):
            hartree_endpoints(rho0, sys, 1.0, [1e-3, 5e-4])


def test_rk4_plan_matches_the_stepping_loop():
    # the closed-form step count against the loop it replaced: full steps
    # while one fits, ending on the first within 1e-15 of t1, else one
    # shortened step; t1 on, just off, and between grid points
    def loop(t0, t1, step):
        t, k = t0, 0
        while t < t1 - 1e-15:
            if min(step, t1 - t) != step:
                return k, t1 - t
            k += 1
            t = t0 + k * step
        return k, None

    sys = make_system()
    rho0 = random_density(2, 134)
    rng = np.random.default_rng(135)
    for _ in range(3000):
        step = float(rng.choice([1e-3, 2.5e-4, 4e-3, 0.01, 0.025, 2.0**-10, 1e-2 / 3]))
        t0 = float(rng.choice([0.0, 0.1, rng.random()]))
        k = int(rng.integers(0, 400))
        t1 = float(rng.choice([t0 + k * step, t0 + (k + rng.random()) * step,
                               t0 + k * step * (1 + 1e-15), t0 + k * step - 1e-16, k * 1e-3]))
        if t1 < t0:
            continue
        ((full, last),), x_rows = _rk4_start(rho0, sys, t0, t1, [step])
        assert (full, last) == loop(t0, t1, step), (t0, t1, step)
        assert x_rows.shape == (1, 6)


# ---------------------------------------------------------------- lockstep levels

LOCKSTEP_STEPS = (4e-3, 2e-3, 1e-3)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("t1", [0.2, 0.2035, 0.202, 0.0])
def test_lockstep_endpoints_match_sequential_runs(d, t1):
    # t1 = 0.2 is on every level's grid; at 0.2035 each level takes its own
    # shortened last step; at 0.202 only the coarsest does, (50, 0.002), so
    # the finer two take a step of length 0; at 0 no level steps
    sys = make_system(d=d, seed_a=121 + d, seed_v=125 + d)
    rho0 = random_density(d, 129 + d)
    ends = hartree_endpoints(rho0, sys, t1, LOCKSTEP_STEPS, TRAJECTORY_TOL)
    assert len(ends) == 3
    for step, end in zip(LOCKSTEP_STEPS, ends):
        want = integrate_hartree(rho0, sys, 0.0, t1, step, save_every=10**9).states[-1]
        assert np.max(np.abs(end.matrix - want.matrix)) <= 1e-15


@pytest.mark.parametrize("t1, calls", [
    (0.2, [(3, 50), (2, 50), (1, 100)]),
    (0.2035, [(3, 50), (2, 51), (1, 102), (3, 1)]),
])
def test_lockstep_loop_runs_as_often_as_the_finest_level(monkeypatch, t1, calls):
    # (stack size, count) per kernel call: the counts sum to the finest
    # level's 200 (or 203 + 1 shortened) steps, not to all levels' 350 (357)
    seen = []
    kernel = dynamics._rk4_kernel

    def counted_kernel(stages, sys):
        advance = kernel(stages, sys)

        def counted(rows, count):
            seen.append((stages.shape[0], count))
            advance(rows, count)

        return counted

    monkeypatch.setattr(dynamics, "_rk4_kernel", counted_kernel)
    hartree_endpoints(random_density(2, 136), make_system(seed_a=137, seed_v=138), t1,
                      LOCKSTEP_STEPS, TRAJECTORY_TOL)
    assert seen == calls
    stepped = sum(count for _, count in seen)  # before integrate_hartree adds its own calls
    finest = integrate_hartree(random_density(2, 136), make_system(seed_a=137, seed_v=138),
                               0.0, t1, LOCKSTEP_STEPS[-1])
    assert stepped == len(finest.states) - 1


def test_lockstep_checks_match_integrate_hartree():
    sys = make_system(seed_a=51, seed_v=52)  # ||V|| <= 1, cap = 0.025
    rho0 = random_density(2, 53)
    with pytest.raises(StepTooLarge):
        hartree_endpoints(rho0, sys, 1.0, (0.026, 0.013, 0.0065), TRAJECTORY_TOL)
    with pytest.raises(StepTooLarge):
        hartree_endpoints(rho0, sys, 1.0, (0.02, 0.04, 0.01), TRAJECTORY_TOL)
    with pytest.raises(DimensionMismatch):
        hartree_endpoints(random_density(3, 54), sys, 0.01, LOCKSTEP_STEPS, TRAJECTORY_TOL)
    with pytest.raises(DimensionMismatch):
        hartree_endpoints(product_state(rho0, 2), sys, 0.01, LOCKSTEP_STEPS, TRAJECTORY_TOL)
    with pytest.raises(ValueError):
        hartree_endpoints(rho0, sys, -0.1, LOCKSTEP_STEPS, TRAJECTORY_TOL)
    with pytest.raises(ValueError):
        hartree_endpoints(rho0, sys, 0.1, (4e-3, 0.0, 1e-3), TRAJECTORY_TOL)
    # the system and state of test_integrate_drift_guard_fires: the guard
    # fires at the endpoint for the lockstep levels as for a single run
    sys = make_system(seed_a=61, seed_v=62)
    rho0 = random_density(2, 63)
    for step in LOCKSTEP_STEPS:
        with pytest.raises(DensityDriftExceeded, match="t = 0.2 "):
            integrate_hartree(rho0, sys, 0.0, 0.2, step, save_every=10**9, drift_tol=0.0)
    with pytest.raises(DensityDriftExceeded, match="t = 0.2 "):
        hartree_endpoints(rho0, sys, 0.2, LOCKSTEP_STEPS, 0.0)


def test_lockstep_stays_at_w_size():
    # three levels at d = 16, the generator built inside: the stacks and the
    # flow's buffers add a few d^2-sized rows, no d^4-sized temporary
    sys = make_system(d=16, seed_a=87, seed_v=97)
    rho0 = random_density(16, 245)
    tracemalloc.start()
    try:
        ends = hartree_endpoints(rho0, sys, 3.5e-3, LOCKSTEP_STEPS[1:] + (5e-4,), TRAJECTORY_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ends) == 3
    assert peak <= 2 * sys.w.nbytes


def test_trajectory_state_lookup():
    sys = make_system(seed_a=64, seed_v=65)
    rho0 = random_density(2, 66)
    traj = integrate_hartree(rho0, sys, 0.0, 0.1, 1e-2)
    state = traj.state_at(0.05)
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-8
    with pytest.raises(ValueError):
        traj.state_at(0.055)
    # index is the one lookup: exact, within GRID_TOL, and off the grid
    assert traj.index(0.05) == 5
    assert traj.states[traj.index(0.05)] is state
    assert traj.index(0.1) == len(traj.times) - 1
    assert traj.index(0.05 + 0.5 * GRID_TOL) == traj.index(0.05 - 0.5 * GRID_TOL) == 5
    for off in (0.055, 0.05 + 2 * GRID_TOL, -1.0, 0.2):
        with pytest.raises(ValueError):
            traj.index(off)


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


def test_hierarchy_operators_are_built_once_per_order(monkeypatch):
    # each order's sum_j A_j, sum_{i<j} W_ij and sum_j W_{j,n+1} are scattered
    # on first use only; later calls at that order, at any N and on any
    # marginal, read them from the system and return the same terms
    sys = make_system(d=2, seed_a=139, seed_v=140)
    scattered = []
    add = dynamics._add_on_sites

    def counted(*args, **kwargs):
        scattered.append(args[2])
        add(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_add_on_sites", counted)
    for n in (1, 2, 3):
        shape = TensorShape(2, n + 1)
        m = random_density(2 ** (n + 1), 150 + n).matrix
        limit, eps = _hierarchy_terms(sys, m, shape, 8)
        assert len(scattered) == n + n * (n - 1) // 2 + n
        scattered.clear()
        for n_sites in (8, 5):
            again, eps_again = _hierarchy_terms(make_system(d=2, seed_a=139, seed_v=140),
                                                m, shape, n_sites)
            cached, eps_cached = _hierarchy_terms(sys, m, shape, n_sites)
            assert np.array_equal(cached, again)
            assert np.array_equal(eps_cached.matrix, eps_again.matrix)
        assert len(scattered) == 2 * (n + n * (n - 1) // 2 + n)  # the fresh systems only
        scattered.clear()
    assert {n: [op.shape[0] for op in ops] for n, ops in sys._hierarchy_cache.items()} == {
        1: [2, 2, 4], 2: [4, 4, 8], 3: [8, 8, 16]}


# ---------------------------------------------------------------- hierarchy checks


def test_bbgky_residual_static_system():
    sys = MeanFieldSystem(2, np.zeros((2, 2)), np.zeros((4, 4)))
    rho0 = random_density(2, 77)
    res = bbgky_residual(rho0, 1, 0.5, 1e-3, ExactPropagator(sys, 3))
    assert res.residual_trace_norm <= 1e-12
    assert res.epsilon_norm <= 1e-12


def test_bbgky_residual_second_order_in_h():
    sys = make_system(seed_a=78, seed_v=79)
    rho0 = random_density(2, 80)
    prop = ExactPropagator(sys, 4)
    r1 = bbgky_residual(rho0, 1, 0.4, 1e-2, propagator=prop)
    r2 = bbgky_residual(rho0, 1, 0.4, 5e-3, propagator=prop)
    assert 3.0 <= r1.residual_trace_norm / r2.residual_trace_norm <= 5.0


def test_bbgky_residual_small_at_fine_h():
    sys = make_system(seed_a=81, seed_v=82)
    rho0 = random_density(2, 83)
    res = bbgky_residual(rho0, 1, 0.5, 1e-3, ExactPropagator(sys, 4))
    assert res.residual_trace_norm <= 1e-4
    assert res.epsilon_norm <= res.epsilon_bound + 1e-9


def test_bbgky_residual_shared_propagator_consistent():
    # both propagators take the same one-site rho0 and give the same residual
    sys = make_system(seed_a=84, seed_v=85)
    rho0 = random_density(2, 86)
    a = bbgky_residual(rho0, 2, 0.3, 1e-3, propagator=ExactPropagator(sys, 3))
    b = bbgky_residual(rho0, 2, 0.3, 1e-3, propagator=BlockPropagator(sys, 3))
    assert abs(a.residual_trace_norm - b.residual_trace_norm) <= 1e-12
    assert abs(a.epsilon_norm - b.epsilon_norm) <= 1e-12


@pytest.mark.parametrize("n_sites, n", [(3, 1), (3, 2), (6, 2)])
def test_bbgky_residuals_share_one_grid(n_sites, n):
    # every (t, h) from one evolve_grid call equals its own bbgky_residual
    # call, on the block path (d = 2) and the dense one (d = 3); lower orders
    # traced from a higher one are checked against the dense rows in
    # test_experiments
    times, steps = (0.3, 0.5), (1e-2, 5e-3)
    for d in (2, 3):
        sys = make_system(d=d, seed_a=88, seed_v=89)
        rho0 = random_density(d, 90)
        prop = propagator(sys, n_sites, 4096)
        assert isinstance(prop, BlockPropagator if d == 2 else ExactPropagator)
        grid, calls = prop.evolve_grid, []
        prop.evolve_grid = lambda *args: calls.append(args) or grid(*args)
        got = bbgky_residuals(rho0, [n], times, steps, prop)
        assert len(calls) == 1
        for t, residuals in zip(times, got, strict=True):
            for h, res in zip(steps, residuals, strict=True):
                want = bbgky_residual(rho0, n, t, h, prop)
                assert abs(res.residual_trace_norm - want.residual_trace_norm) <= 1e-15
                assert (res.n, res.t, res.epsilon_norm, res.epsilon_bound) == (
                    want.n, want.t, want.epsilon_norm, want.epsilon_bound
                )
        with pytest.raises(ValueError):
            bbgky_residuals(rho0, [n], times, (1e-2, 0.0), prop)
        with pytest.raises(ValueError):
            bbgky_residuals(rho0, [n, n_sites], times, steps, prop)


def test_bbgky_residual_argument_checks():
    sys = make_system()
    rho0 = random_density(2, 87)
    prop = ExactPropagator(sys, 3)
    with pytest.raises(ValueError):
        bbgky_residual(rho0, 3, 0.1, 1e-3, prop)
    with pytest.raises(ValueError):
        bbgky_residual(rho0, 1, 0.1, 0.0, prop)
    with pytest.raises(DimensionMismatch):  # the propagator forms rho0^(ox N) itself
        bbgky_residual(product_state(rho0, 3), 1, 0.1, 1e-3, prop)


def test_bbgky_residual_matches_full_state_oracle():
    # one evolve_grid call against three full states and their marginals
    sys = make_system(seed_a=105, seed_v=106)
    for n_sites in (3, 6):
        rho0 = random_density(2, 107 + n_sites)
        rho_n0 = product_state(rho0, n_sites)
        prop = ExactPropagator(sys, n_sites)
        for n in (1, 2):
            t, h = 0.4, 1e-2
            got = bbgky_residual(rho0, n, t, h, propagator=prop)
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


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_tensor_hierarchy_matches_direct_formula(d, n):
    sys = make_system(d=d, seed_a=95, seed_v=96)
    traj = integrate_hartree(random_density(d, 97), sys, 0.0, 0.04, 1e-2)
    for t in (0.01, 0.03):
        got = tensor_hierarchy_residual(traj, sys, n, t, 0.01)
        want = oracles.tensor_hierarchy_residual_direct(traj, sys.a, sys.v, n, t, 0.01)
        assert abs(got - want) <= 1e-13


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
