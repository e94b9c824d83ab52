"""Config parsing, validation, canonical serialization, hashing."""

from __future__ import annotations

import dataclasses
import math

import pytest

from chaoticity.config import (
    KINDS,
    ExperimentConfig,
    config_hash,
    parse_config,
    validate_config,
    write_config,
)
from chaoticity.errors import ConfigInvalid, ParseError
from chaoticity.experiments import run_experiment


def test_minimal_config_gets_defaults():
    c = parse_config("kind = chaos_sweep\n")
    assert c.kind == "chaos_sweep"
    assert c.d == 2
    assert c.N_list == (2, 4, 6, 8)
    assert c.k_list == (1, 2)
    assert c.times == (0.5,)
    assert c.step == 1e-3
    assert c.seed == 12345
    assert c.trials == 100
    assert c.out is None
    assert c.out_format == "csv"
    assert c.tol == ()


def test_default_kind_fills_missing_kind():
    c = parse_config("d = 3\nN_list = 2, 3\nk_list = 1\n", default_kind="chaos_sweep")
    assert c.kind == "chaos_sweep"
    assert c.d == 3
    with pytest.raises(ConfigInvalid):
        parse_config("d = 2\n")  # no kind anywhere


def test_explicit_kind_wins_over_default():
    c = parse_config("kind = bound_audit\n", default_kind="chaos_sweep")
    assert c.kind == "bound_audit"


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nkind = chaos_sweep\n   \n# another\nseed = 7\n"
    c = parse_config(text)
    assert c.seed == 7


def test_tolerance_lines():
    c = parse_config("kind = bbgky_verify\ntol.residual = 1e-4\n")
    assert c.tol == (("residual", 1e-4),)
    assert c.tol_value("residual", 99.0) == 1e-4
    assert c.tol_value("missing", 99.0) == 99.0
    for kind in ("propagation", "hartree_convergence"):
        c = parse_config(f"kind = {kind}\ntimes = 0.5\ntol.drift = 2e-7\n")
        assert c.tol == (("drift", 2e-7),)


def test_tolerance_names_a_kind_does_not_read_are_rejected():
    with pytest.raises(ConfigInvalid, match="tol.drfit"):
        parse_config("kind = propagation\ntol.drfit = 1e-6\n")
    for kind in ("chaos_sweep", "bound_audit"):
        with pytest.raises(ConfigInvalid):
            parse_config(f"kind = {kind}\ntol.residual = 1e-4\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = bbgky_verify\ntol.drift = 1e-6\n")
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(kind="hartree_convergence", tol=(("residual", 1e-4),)))


@pytest.mark.parametrize("kind, name", [("propagation", "drift"), ("bbgky_verify", "residual")])
def test_infinite_tolerances_are_rejected(kind, name):
    # an infinite drift or residual tolerance would switch off the guard it sets
    with pytest.raises(ParseError) as e:
        parse_config(f"kind = {kind}\ntol.{name} = inf\n")
    assert e.value.line == 2
    with pytest.raises(ConfigInvalid, match="finite"):
        validate_config(ExperimentConfig(kind=kind, tol=((name, math.inf),)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nbogus_key = 3\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nseed = 1\nseed = 2\n")
    assert e.value.line == 3

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nno equals sign here\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nseed = notanint\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nstep = fast\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\ngronwall = yes\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\nN_list = \n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\ntol.bad-name = 1e-3\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\ntol.residual = -1e-3\n")
    assert e.value.line == 2

    with pytest.raises(ParseError) as e:
        parse_config("kind = chaos_sweep\n = 3\n")
    assert e.value.line == 2


def test_validation_rejects_bad_shapes():
    with pytest.raises(ConfigInvalid):
        parse_config("kind = mystery\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nd = 1\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nN_list = 8, 6, 4\n")  # descending
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nN_list = 2, 2, 4\n")  # repeated
    with pytest.raises(ConfigInvalid):
        # the parser rejects an empty list first (ParseError), so build the config directly
        validate_config(ExperimentConfig(kind="chaos_sweep", N_list=()))
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nN_list = 1, 2\n")  # N < 2
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nk_list = 0, 1\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nk_list = 2, 1\n")  # descending
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nk_list = 1, 1, 2\n")  # repeated
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(kind="chaos_sweep", k_list=()))
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nN_list = 2, 4\nk_list = 3\n")  # k > min N
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\ntimes = 0.5, 0.25\n")  # descending times
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(kind="chaos_sweep", times=()))
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\ntimes = -0.5, 0.25\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nseed = -1\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\ntrials = 0\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = chaos_sweep\nformat = yaml\n")


@pytest.mark.parametrize("kind, line", [
    ("hartree_convergence", "step = nan"),
    ("hartree_convergence", "times = nan"),
    ("hartree_convergence", "times = inf"),
    ("bbgky_verify", "fd_h = nan"),
    ("hartree_convergence", "a_norm_cap = nan"),
    ("hartree_convergence", "v_norm_cap = nan"),
])
def test_validation_rejects_non_finite_values(kind, line):
    # nan fails no ordered comparison, so each field is checked for finiteness by name
    with pytest.raises(ConfigInvalid, match=line.split(" = ")[0]):
        parse_config(f"kind = {kind}\n{line}\n")


def test_validation_memory_budget():
    # the mixture kinds hold marginals, so the largest one, d^max(k), is bounded
    for kind in ("chaos_sweep", "bound_audit"):
        with pytest.raises(ConfigInvalid):
            parse_config(f"kind = {kind}\nN_list = 13\nk_list = 1, 13\n")  # 2^13 > 4096
        with pytest.raises(ConfigInvalid):
            parse_config(f"kind = {kind}\nd = 3\nN_list = 8\nk_list = 8\n")  # 3^8 > 4096
        c = parse_config(f"kind = {kind}\nd = 3\nN_list = 7\nk_list = 1, 7\n")
        assert c.d == 3  # 3^7 = 2187 fits
        c = parse_config(f"kind = {kind}\nd = 3\nN_list = 2, 1000\nk_list = 1, 2\n")
        assert max(c.N_list) == 1000
    # the one-site flow has no N bound
    c = parse_config("kind = hartree_convergence\nd = 3\nN_list = 2, 1000\n")
    assert max(c.N_list) == 1000


@pytest.mark.parametrize("kind", KINDS)
def test_validation_budget_holds_two_sites(kind):
    # every kind holds two sites, d^2 <= max_total_dim
    for d, budget in ((2, 3), (3, 8)):
        with pytest.raises(ConfigInvalid, match="max_total_dim"):
            validate_config(ExperimentConfig(kind=kind, d=d, N_list=(2,), k_list=(1,),
                                             max_total_dim=budget))


def test_validation_system_arrays():
    # a MeanFieldSystem holds v, w and the Hartree generator, d^4 entries each:
    # 3 d^4 <= max_total_dim^2 admits d <= 48 at the default
    with pytest.raises(ConfigInvalid, match="max_total_dim"):
        validate_config(ExperimentConfig(kind="hartree_convergence", d=64))
    validate_config(ExperimentConfig(kind="hartree_convergence", d=16))
    for kind in ("propagation", "bbgky_verify", "hartree_convergence"):
        validate_config(ExperimentConfig(kind=kind, d=48, N_list=(2,), k_list=(1,)))
        with pytest.raises(ConfigInvalid, match="max_total_dim"):
            validate_config(ExperimentConfig(kind=kind, d=49, N_list=(2,), k_list=(1,)))
    # the mixture kinds draw no system
    validate_config(ExperimentConfig(kind="chaos_sweep", d=64, N_list=(2,), k_list=(1, 2)))


def test_validation_block_budget():
    # at d = 2 the N-body kinds hold spin blocks, not 2^N
    for kind in ("propagation", "bbgky_verify"):
        c = parse_config(f"kind = {kind}\nN_list = 8, 64\nk_list = 1, 2\n")
        assert max(c.N_list) == 64
        with pytest.raises(ConfigInvalid):
            parse_config(f"kind = {kind}\nN_list = 8, 64\nk_list = 1, 2\nmax_total_dim = 256\n")
        with pytest.raises(ConfigInvalid):
            parse_config(f"kind = {kind}\nN_list = 400\nk_list = 1\n")
        with pytest.raises(ConfigInvalid):  # a 2^13-row marginal
            parse_config(f"kind = {kind}\nN_list = 20\nk_list = 12\n")
        with pytest.raises(ConfigInvalid):  # d = 3 keeps the d^N rule: 3^8 > 4096
            parse_config(f"kind = {kind}\nd = 3\nN_list = 2, 8\nk_list = 1\n")
    with pytest.raises(ConfigInvalid):  # d = 3 keeps the d^N rule for them only
        parse_config("kind = propagation\nd = 3\nN_list = 2, 64\n")
    c = parse_config("kind = chaos_sweep\nd = 3\nN_list = 2, 64\n")
    assert max(c.N_list) == 64


def test_validation_step_cap():
    with pytest.raises(ConfigInvalid):
        parse_config("kind = propagation\nstep = 0.05\ntimes = 0.5\n")
    with pytest.raises(ConfigInvalid):
        # v cap 2 shrinks the step ceiling to 1/80
        parse_config("kind = propagation\nv_norm_cap = 2\nstep = 0.02\ntimes = 0.5\n")
    c = parse_config("kind = propagation\nstep = 0.025\nsave_every = 4\ntimes = 0.5\n")
    assert c.step == 0.025
    # kinds that run no RK4 are not held to the cap
    parse_config("kind = chaos_sweep\nstep = 0.05\n")


def test_validation_propagation_save_grid():
    # default step 1e-3 x save_every 10 = grid 0.01
    parse_config("kind = propagation\ntimes = 0.25, 0.5\n")
    with pytest.raises(ConfigInvalid):
        parse_config("kind = propagation\ntimes = 0.255\n")
    # 4e-9 off a grid of 5 is 8e-10 of a spacing, but off the stored time by more than GRID_TOL
    with pytest.raises(ConfigInvalid):
        parse_config("kind = propagation\nstep = 0.001\nsave_every = 5000\n"
                     "times = 5.000000004, 10\n")
    # a time the validator accepts is one the run finds
    for gronwall in (True, False):
        c = parse_config("kind = propagation\nN_list = 2\nk_list = 1\nsave_every = 500\n"
                         f"times = 0.5000000004, 1\ngronwall = {str(gronwall).lower()}\n")
        table = run_experiment(c)
        assert "error" not in table.metadata
        assert [row[2] for row in table.rows] == [0.5000000004, 1.0]
    # other kinds ignore the grid constraint
    parse_config("kind = bbgky_verify\ntimes = 0.255\n")


def test_validation_bbgky_needs_room():
    with pytest.raises(ConfigInvalid):
        parse_config("kind = bbgky_verify\nN_list = 2\nk_list = 2\n")
    c = parse_config("kind = bbgky_verify\nN_list = 2, 4\nk_list = 1, 2\n")
    assert c.k_list == (1, 2)


def test_write_parse_round_trip():
    configs = [
        ExperimentConfig(kind="chaos_sweep"),
        ExperimentConfig(kind="propagation", times=(0.25, 0.5), gronwall=False),
        ExperimentConfig(
            kind="bbgky_verify",
            d=3,
            N_list=(3, 5),
            k_list=(1, 2, 3),
            fd_h=5e-4,
            tol=(("residual", 2e-5),),
        ),
        ExperimentConfig(kind="bound_audit", trials=17, out="results.csv"),
        ExperimentConfig(kind="hartree_convergence", step=2e-3, out_format="json"),
    ]
    for c in configs:
        validate_config(c)
        text = write_config(c)
        back = parse_config(text)
        assert back == c, text


def test_write_config_is_canonical():
    c = parse_config("seed = 9\nkind = chaos_sweep\n# noise\nd = 2\n")
    text = write_config(c)
    assert text.startswith("kind = chaos_sweep\n")  # field order, not input order
    assert "out =" not in text  # unset optional key omitted
    assert text.endswith("\n")
    # tolerance lines trail the scalar fields
    c2 = parse_config("kind = bbgky_verify\ntol.residual = 1e-4\n")
    assert write_config(c2).rstrip().split("\n")[-1] == "tol.residual = 0.0001"


def test_config_hash_tracks_content():
    a = parse_config("kind = chaos_sweep\n")
    b = parse_config("# different text, same content\nkind = chaos_sweep\n")
    assert config_hash(a) == config_hash(b)
    c = parse_config("kind = chaos_sweep\nseed = 6\n")
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


def test_replace_then_validate():
    # the CLI override path: replace a field, re-validate
    c = parse_config("kind = propagation\ntimes = 0.5\n")
    c2 = dataclasses.replace(c, out_format="json", seed=99)
    validate_config(c2)
    bad = dataclasses.replace(c, step=1.0)
    with pytest.raises(ConfigInvalid):
        validate_config(bad)
