"""Experiment runners: schemas, determinism, physics sanity of each kind."""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest

from chaoticity import states, tensor
from chaoticity.config import ExperimentConfig, config_hash, parse_config
from chaoticity.blocks import BlockPropagator
from chaoticity.dynamics import ExactPropagator, gronwall_envelope, integrate_hartree
from chaoticity.errors import ConfigInvalid
from chaoticity.experiments import (
    SCHEMAS,
    ResultTable,
    _draw_initial,
    _draw_system,
    run_experiment,
    subseed,
)
from chaoticity.states import product_state
from chaoticity.version import __version__

import oracles


def col(table: ResultTable, name: str):
    i = table.schema.index(name)
    return [row[i] for row in table.rows]


# ---------------------------------------------------------------- plumbing


def test_subseed_is_stable_and_keyed():
    s = subseed(12345, 3, 7)
    assert s.entropy == 12345
    assert s.spawn_key == (3, 7)
    a = np.random.default_rng(subseed(1, 2, 3)).random(4)
    b = np.random.default_rng(subseed(1, 2, 3)).random(4)
    c = np.random.default_rng(subseed(1, 2, 4)).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_metadata_fields():
    cfg = ExperimentConfig(kind="chaos_sweep", N_list=(2,), k_list=(1,), trials=1)
    table = run_experiment(cfg)
    md = table.metadata
    assert md["kind"] == "chaos_sweep"
    assert md["config_hash"] == config_hash(cfg)
    assert md["seed"] == cfg.seed
    assert md["tool_version"] == __version__
    assert md["wall_time_s"] >= 0.0
    assert "error" not in md
    assert table.schema == SCHEMAS["chaos_sweep"]


def test_run_experiment_validates_config():
    bad = ExperimentConfig(kind="chaos_sweep", N_list=(8, 4))
    with pytest.raises(ConfigInvalid):
        run_experiment(bad)


# ---------------------------------------------------------------- chaos sweep


def test_chaos_sweep_single_component():
    # one product component: rho_N = rho^(ox N) is exactly chaotic
    cfg = ExperimentConfig(
        kind="chaos_sweep", N_list=(2, 4, 6), k_list=(1, 2), components=1
    )
    table = run_experiment(cfg)
    assert len(table.rows) == 6
    assert all(d <= 1e-10 for d in col(table, "chaos_distance"))
    assert all(c <= 1e-9 for c in col(table, "max_C_kN"))
    assert all(col(table, "bound_satisfied"))


def test_chaos_sweep_row_order_and_mixture_case():
    cfg = ExperimentConfig(kind="chaos_sweep", N_list=(2, 4), k_list=(1, 2))
    table = run_experiment(cfg)
    assert [(r[0], r[1]) for r in table.rows] == [(2, 1), (2, 2), (4, 1), (4, 2)]
    assert all(0.0 <= d <= 2.0 for d in col(table, "chaos_distance"))
    assert all(col(table, "bound_satisfied"))
    assert all(e >= -1e-10 for e in col(table, "max_e_N"))
    # the k=1 marginal of an iid mixture is rho_bar itself
    d_k1 = {r[0]: r[2] for r in table.rows if r[1] == 1}
    assert all(d <= 1e-12 for d in d_k1.values())
    # higher marginals of an iid mixture do not depend on N at all, and a
    # genuine mixture keeps a fixed correlation defect at k=2
    d_k2 = {r[0]: r[2] for r in table.rows if r[1] == 2}
    assert abs(d_k2[4] - d_k2[2]) <= 1e-12
    assert d_k2[4] > 1e-6


def test_chaos_sweep_prefix_stable_under_longer_n_list():
    short = run_experiment(ExperimentConfig(kind="chaos_sweep", N_list=(2, 4)))
    longer = run_experiment(ExperimentConfig(kind="chaos_sweep", N_list=(2, 4, 6)))
    assert longer.rows[: len(short.rows)] == short.rows


# ---------------------------------------------------------------- propagation


def test_propagation_free_system_tracks_exactly():
    cfg = ExperimentConfig(
        kind="propagation",
        N_list=(2, 4),
        k_list=(1, 2),
        times=(0.25, 0.5),
        v_norm_cap=0.0,
        gronwall=False,
    )
    table = run_experiment(cfg)
    assert len(table.rows) == 8
    assert all(e <= 1e-6 for e in col(table, "E_norm"))
    # no interaction: the defect term is exactly zero
    assert all(x == 0.0 or x is None for x in col(table, "eps_norm"))
    assert all(b is None for b in col(table, "gronwall_bound"))


def test_propagation_rows_bounds_and_blanks():
    cfg = ExperimentConfig(
        kind="propagation", N_list=(2, 4), k_list=(1, 2), times=(0.5,)
    )
    table = run_experiment(cfg)
    assert table.metadata.get("error") is None
    by_key = {(r[0], r[1]): r for r in table.rows}
    assert set(by_key) == {(2, 1), (2, 2), (4, 1), (4, 2)}
    for (n_sites, n), row in by_key.items():
        e_norm, eps_norm, eps_bound, g_bound, g_ok = row[3], row[4], row[5], row[6], row[7]
        assert e_norm >= 0.0
        if n <= n_sites - 1:
            assert eps_norm <= eps_bound + 1e-9
        else:
            assert eps_norm is None and eps_bound is None
        if n + 1 <= n_sites:
            assert g_bound > 0.0
            assert g_ok is True
        else:
            assert g_bound is None and g_ok is None
    # mean-field scaling: the order-1 defect shrinks when N doubles
    assert by_key[(4, 1)][3] < by_key[(2, 1)][3]


def test_propagation_parallel_matches_serial():
    cfg = ExperimentConfig(
        kind="propagation", N_list=(2, 4, 6), k_list=(1, 2), times=(0.5,)
    )
    serial = run_experiment(cfg, parallel=1)
    threaded = run_experiment(cfg, parallel=3)
    assert serial.rows == threaded.rows


def test_propagation_determinism():
    cfg = ExperimentConfig(kind="propagation", N_list=(2, 4), k_list=(1,), times=(0.5,))
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.rows == b.rows
    assert a.metadata["config_hash"] == b.metadata["config_hash"]



@pytest.mark.parametrize("gronwall", [False, True])
def test_propagation_rows_match_full_state_oracle(gronwall):
    # rows read marginals from evolve_grid; rebuild every float from full
    # N-site states prop.evolve(rho_N(0), t) at N <= 6
    cfg = ExperimentConfig(
        kind="propagation", N_list=(2, 4, 6), k_list=(1, 2), times=(0.25, 0.5),
        save_every=50, gronwall=gronwall,
    )
    table = run_experiment(cfg)
    assert table.metadata.get("error") is None and len(table.rows) == 12
    sys, rho0 = _draw_system(cfg), _draw_initial(cfg)
    traj = integrate_hartree(rho0, sys, 0.0, 0.5, cfg.step, cfg.save_every)
    v_norm = sys.interaction_norm()
    for n_sites, n, t, e_norm, eps_norm, eps_bound, g_bound, g_ok in table.rows:
        prop = ExactPropagator(sys, n_sites)
        rho_n0 = product_state(rho0, n_sites)

        def error(s, state, order):
            full = prop.evolve(rho_n0, s).matrix
            return oracles.marginal_error_full_state(full, state.matrix, 2, n_sites, order)

        assert abs(e_norm - error(t, traj.state_at(t), n)) <= 1e-12
        if n < n_sites:
            full = prop.evolve(rho_n0, t).matrix
            eps = oracles.epsilon_full_state(full, sys.v, 2, n_sites, n)
            assert abs(eps_norm - oracles.trace_norm_svd(eps)) <= 1e-12
            assert abs(eps_bound - 5.0 * n * n * v_norm / n_sites) <= 1e-15
        else:
            assert eps_norm is None and eps_bound is None
        if gronwall and n < n_sites:
            e_next = [error(s, state, n + 1) for s, state in zip(traj.times, traj.states)]
            env = gronwall_envelope(traj.times, np.array(e_next), n, n_sites, v_norm)
            want = env[int(np.argmin(np.abs(traj.times - t)))]
            assert abs(g_bound - want) <= 1e-12
            assert g_ok is bool(e_norm <= 1.05 * want + 1e-12)
        else:
            assert g_bound is None and g_ok is None


@pytest.mark.parametrize("gronwall", [False, True])
def test_propagation_rows_match_dense_path(gronwall):
    # d = 2 rows come from the spin blocks; the oracle diagonalizes H_N on 2^N
    cfg = ExperimentConfig(
        kind="propagation", N_list=(3, 5, 8), k_list=(1, 2, 3), times=(0.25, 0.5),
        save_every=50, gronwall=gronwall,
    )
    table = run_experiment(cfg)
    assert "error" not in table.metadata
    assert_rows_close(table.rows, oracles.propagation_rows_dense(cfg))


def test_propagation_rows_stable_under_larger_n_list():
    base = dict(kind="propagation", k_list=(1, 2), times=(0.25, 0.5), save_every=50)
    short = run_experiment(ExperimentConfig(N_list=(6, 8, 10), **base))
    longer = run_experiment(ExperimentConfig(N_list=(6, 8, 10, 32), **base))
    assert json.dumps(longer.rows[: len(short.rows)]) == json.dumps(short.rows)
    assert {r[0] for r in longer.rows[len(short.rows):]} == {32}


def test_propagation_reaches_64_sites():
    start = time.perf_counter()
    cfg = ExperimentConfig(kind="propagation", N_list=(16, 32, 64), k_list=(1, 2))
    table = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    assert "error" not in table.metadata and len(table.rows) == 6
    assert all(ok is True for ok in col(table, "gronwall_ok"))
    # mean-field scaling: the order-1 defect shrinks as N grows
    e1 = [r[3] for r in table.rows if r[1] == 1]
    assert e1[0] > e1[1] > e1[2]
    assert elapsed < 60.0


def test_propagation_d3_keeps_the_dense_path(monkeypatch):
    # rows pinned from the dense path before the spin blocks existed
    monkeypatch.setattr(BlockPropagator, "__init__", refuse_call)
    cfg = ExperimentConfig(
        kind="propagation", d=3, N_list=(2, 3, 4), k_list=(1, 2), times=(0.25, 0.5),
        save_every=50,
    )
    table = run_experiment(cfg)
    assert "error" not in table.metadata and len(table.rows) == 12
    pinned = {
        (3, 2, 0.5): (0.21343982917148785, 0.48017257598711455, 4.067653320984784),
        (4, 1, 0.25): (0.020928270365851827, 0.05715167482833992, 0.3522899028832066),
        (4, 2, 0.5): (0.1654876952299823, 0.33735841206650513, 3.0565761174476718),
    }
    for row in table.rows:
        if row[:3] in pinned:
            got = (row[3], row[4], row[6])
            for x, y in zip(got, pinned[row[:3]]):
                assert abs(x - y) <= 1e-12 * y


# ---------------------------------------------------------------- bbgky


def test_bbgky_rows_match_dense_path():
    # fd_h = 1e-2 keeps the 1/2h-amplified roundoff of the residuals near 1e-13
    cfg = ExperimentConfig(
        kind="bbgky_verify", N_list=(3, 5, 8), k_list=(1, 2, 3), times=(0.1, 0.4), fd_h=1e-2,
    )
    table = run_experiment(cfg)
    assert "error" not in table.metadata
    want = oracles.bbgky_rows_dense(cfg)
    assert_rows_close([r[:6] + r[7:] for r in table.rows], [r[:6] + r[7:] for r in want])
    assert all(r[6] == r[4] / r[5] for r in table.rows)


def test_bbgky_rows_ratios_and_skips():
    cfg = ExperimentConfig(
        kind="bbgky_verify", N_list=(2, 4), k_list=(1, 2), times=(0.3,)
    )
    table = run_experiment(cfg)
    # N=2 has no room for n=2; the combo is skipped, not blank
    assert [(r[0], r[1]) for r in table.rows] == [(2, 1), (4, 1), (4, 2)]
    for row in table.rows:
        res_h, res_half, ratio = row[4], row[5], row[6]
        assert res_h > 0.0 and res_half > 0.0
        assert 3.0 <= ratio <= 5.0
        assert row[7] <= row[8] + 1e-9  # eps_norm <= eps_bound
        assert row[3] == cfg.fd_h


def test_bbgky_residual_gate_records_error():
    cfg = ExperimentConfig(
        kind="bbgky_verify",
        N_list=(2, 4),
        k_list=(1,),
        times=(0.3,),
        tol=(("residual", 1e-12),),
    )
    table = run_experiment(cfg)
    assert table.rows == []
    err = table.metadata["error"]
    assert err["type"] == "BoundViolation"
    assert "tol.residual" in err["message"]


# ---------------------------------------------------------------- hartree


def test_hartree_convergence_levels():
    cfg = ExperimentConfig(kind="hartree_convergence", step=4e-3, times=(1.0,))
    table = run_experiment(cfg)
    assert col(table, "level") == [0, 1, 2]
    assert col(table, "step") == [4e-3, 2e-3, 1e-3]
    deltas = col(table, "delta_to_finer")
    assert deltas[0] > deltas[1] > 0.0
    assert deltas[2] is None
    ratios = col(table, "ratio")
    assert 12.0 <= ratios[0] <= 20.0
    assert ratios[1] is None and ratios[2] is None
    assert all(drift <= 1e-8 for drift in col(table, "trace_drift"))
    assert all(eig >= -1e-7 for eig in col(table, "min_eig"))


# ---------------------------------------------------------------- bound audit


def test_bound_audit_rows_and_margins():
    cfg = ExperimentConfig(
        kind="bound_audit", N_list=(2, 4), k_list=(1, 2), trials=12
    )
    table = run_experiment(cfg)
    assert len(table.rows) == 12  # ceil(12 / 4 combos) = 3 reps per combo
    assert sorted(set(col(table, "rep"))) == [0, 1, 2]
    assert all(col(table, "satisfied"))
    assert all(m >= -1e-9 for m in col(table, "margin"))
    for row in table.rows:
        c_val, b_sq, b_un = row[3], row[4], row[5]
        assert c_val <= b_sq + 1e-9
        assert b_sq <= b_un + 1e-12  # caps <= 1: squaring shrinks each weight


def test_bound_audit_determinism_per_combo():
    a = run_experiment(
        ExperimentConfig(kind="bound_audit", N_list=(2, 4), k_list=(1,), trials=4)
    )
    b = run_experiment(
        ExperimentConfig(kind="bound_audit", N_list=(2, 4), k_list=(1,), trials=4)
    )
    assert a.rows == b.rows


# ---------------------------------------------------------------- mixture kinds


def assert_rows_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w)
        for x, y in zip(g, w):
            if y is None or isinstance(y, (bool, int)):
                assert x == y and type(x) is type(y), (g, w)
            else:
                assert abs(x - y) <= tol, (g, w)


def without_roundoff_bounds(got, want):
    """Drop corollary_bound and its unsquared twin where the largest C is roundoff.

    chaos_report reports the bound of the tuple with the largest C. When every
    tested C is roundoff around 0 (k = 1, where rho_bar is the one-site
    marginal, and d = 3, where the first eight Weyl tuples all start with the
    identity), roundoff picks that tuple.
    """
    keep = [w[3] > 1e-14 for w in want]

    def cut(rows):
        return [r if k else r[:4] + r[6:] for r, k in zip(rows, keep)]

    return cut(got), cut(want), sum(keep)


@pytest.mark.parametrize("d, n_list", [(2, (3, 4, 5, 6)), (3, (3, 4))])
def test_chaos_sweep_rows_match_dense_mixtures(d, n_list):
    cfg = ExperimentConfig(kind="chaos_sweep", d=d, N_list=n_list, k_list=(1, 2, 3), seed=31)
    table = run_experiment(cfg)
    assert "error" not in table.metadata
    got, want, kept = without_roundoff_bounds(table.rows, oracles.chaos_sweep_rows_dense(cfg))
    assert kept == (2 * len(n_list) if d == 2 else 0)
    assert_rows_close(got, want)


@pytest.mark.parametrize("d, n_list", [(2, (3, 4, 5, 6)), (3, (3, 4))])
def test_bound_audit_rows_match_dense_mixtures(d, n_list):
    cfg = ExperimentConfig(kind="bound_audit", d=d, N_list=n_list, k_list=(1, 2, 3), trials=24)
    table = run_experiment(cfg)
    assert "error" not in table.metadata
    assert_rows_close(table.rows, oracles.bound_audit_rows_dense(cfg))


def forbid(monkeypatch, fn) -> int:
    """Make fn raise in every chaoticity namespace that holds it; returns how many."""

    def refuse(*args, **kwargs):
        raise AssertionError(f"{fn.__module__}.{fn.__name__} was called")

    hits = 0
    for name, module in list(sys.modules.items()):
        if name == "chaoticity" or name.startswith("chaoticity."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)
                    hits += 1
    return hits


def refuse_call(*args, **kwargs):
    raise AssertionError("called")


def test_block_kinds_never_form_the_n_site_state(monkeypatch):
    monkeypatch.setattr(ExactPropagator, "__init__", refuse_call)
    assert forbid(monkeypatch, states.product_state) >= 2
    for kind, extra in (("propagation", {}), ("bbgky_verify", {"fd_h": 1e-2})):
        cfg = ExperimentConfig(kind=kind, N_list=(3, 6), k_list=(1, 2), times=(0.3,), **extra)
        table = run_experiment(cfg)
        assert "error" not in table.metadata
        assert len(table.rows) == 4


def test_mixture_kinds_never_form_the_n_site_state(monkeypatch):
    assert forbid(monkeypatch, tensor.partial_trace) >= 2
    for kind, extra in (("chaos_sweep", {}), ("bound_audit", {"trials": 3})):
        cfg = ExperimentConfig(kind=kind, N_list=(10,), k_list=(1, 2, 3), **extra)
        table = run_experiment(cfg)
        assert "error" not in table.metadata
        assert len(table.rows) == 3


# ---------------------------------------------------------------- config text path


def test_run_from_parsed_text():
    cfg = parse_config(
        "kind = chaos_sweep\nN_list = 2, 3\nk_list = 1\ncomponents = 2\nseed = 77\n"
    )
    table = run_experiment(cfg)
    assert len(table.rows) == 2
    assert table.metadata["seed"] == 77
