"""What the benchmark's own files read of the package.

bench/tracer.py wraps ExactPropagator's methods by name and reads .shape,
and each reference table in bench/reference/ carries the config_hash of its
workload document and the rows it must produce. A change to either side
fails here, not first at ``bench/run.py --self-check``. The bench files are
loaded read-only: no bytecode is written next to them.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from chaoticity.config import config_hash, parse_config
from chaoticity.dynamics import ExactPropagator, MeanFieldSystem
from chaoticity.experiments import run_experiment
from chaoticity.states import random_density, random_hermitian

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = ("linalg", "tensor", "states", "metrics", "dynamics")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _bindings() -> dict:
    """Every package namespace's attributes and ExactPropagator's own, by identity."""
    modules = {name: module for name, module in sys.modules.items()
               if name == "chaoticity" or name.startswith("chaoticity.")}
    out = {(name, attr): value for name, module in modules.items()
           for attr, value in vars(module).items()}
    out.update({("ExactPropagator", attr): value for attr, value in vars(ExactPropagator).items()})
    return out


def test_tracer_wraps_the_propagator_by_name_and_restores_everything():
    assert tracer.PROPAGATOR_METHODS == (
        "__init__", "unitary", "evolve_matrix", "evolve", "evolve_grid")
    assert tracer.LAYERS == LAYERS
    before = _bindings()
    t = tracer.Tracer()
    try:
        t.install()
        for attr in tracer.PROPAGATOR_METHODS:
            wrapped = vars(ExactPropagator)[attr]
            assert wrapped is not before[("ExactPropagator", attr)]
            assert wrapped.__wrapped__ is before[("ExactPropagator", attr)]
        d = 2
        sys_ = MeanFieldSystem(d, random_hermitian(d, 1), random_hermitian(d * d, 2))
        prop = ExactPropagator(sys_, 3)
        times = [0.0, 0.25, 0.5]
        prop.evolve_grid(random_density(d, 3), times, 2)
        # the grid counter is computed from the propagator's .shape
        assert t.counters["dynamics.grid_bytes"] == len(times) * prop.shape.total_dim**2 * 16
        names = {span[0] for span in t.spans}
        assert {"dynamics.ExactPropagator.__init__", "dynamics.ExactPropagator.evolve_grid",
                "dynamics.build_hamiltonian"} <= names
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_documents_hash_to_their_reference(workload, size):
    documents = workloads.config_documents(workload, size, workloads.DEFAULT_SEED)
    tables = workloads.load_reference(workload, size)
    assert len(documents) == len(tables)
    for text, table in zip(documents, tables):
        config = parse_config(text)
        assert config.kind == table["kind"]
        assert config_hash(config) == table["config_hash"]


@pytest.mark.parametrize("size", ["full", "tiny"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_rows_match_their_reference(workload, size):
    # the benchmark's own row and flag checks, so a change that moves rows fails here
    documents = workloads.config_documents(workload, size, workloads.DEFAULT_SEED)
    for text, ref in zip(documents, workloads.load_reference(workload, size)):
        table = run_experiment(parse_config(text))
        assert "error" not in table.metadata
        problems, _ = workloads.compare_to_reference(table, ref)
        assert problems + workloads.check_flags(table) == []
