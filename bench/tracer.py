"""Outside-in tracing of the package's layers, from the benchmark's own files.

Every public function defined in ``linalg``, ``tensor``, ``states``,
``metrics`` and ``dynamics``, plus the ``ExactPropagator`` methods, is
replaced by a wrapper that records a span (name, start, end, parent). The
wrapper is rebound in every ``chaoticity.*`` namespace that holds the
function, so ``from .tensor import partial_trace`` call sites are caught as
well as ``linalg.trace_norm`` ones. Private helpers and closures (``rk4``,
``_hartree_rhs_matrix``) are not wrapped; their time stays inside the
public span that called them. Spans live in memory until the run ends.

A few counters are computed from argument shapes, not measured: they
repeat exactly from run to run and are labelled as computed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("linalg", "tensor", "states", "metrics", "dynamics")
PROPAGATOR_METHODS = ("__init__", "unitary", "evolve_matrix", "evolve", "evolve_grid")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dim3(m) -> int:
    return int(np.shape(m)[0]) ** 3


def _grid_bytes(args, kwargs) -> int:
    prop, times = args[0], _arg(args, kwargs, 2, "times")
    return len(times) * prop.shape.total_dim ** 2 * 16


# span name -> (counter name, value computed from the call's arguments)
COMPUTED = {
    "linalg.herm_eigen": ("linalg.herm_eigen.dim3", lambda a, kw: _dim3(_arg(a, kw, 0, "m"))),
    "states.validate": ("states.validate.dim3", lambda a, kw: _dim3(_arg(a, kw, 0, "matrix"))),
    "dynamics.ExactPropagator.evolve_grid": ("dynamics.grid_bytes", _grid_bytes),
}

# metric -> spans whose outermost calls it sums (inclusive time)
GROUPS = {
    "linalg.herm_eigen_s": ("linalg.herm_eigen",),
    "linalg.trace_norm_s": ("linalg.trace_norm",),
    "tensor.embed_s": ("tensor.embed_one_body", "tensor.embed_two_body", "tensor.embed_on_sites"),
    "tensor.kron_s": ("tensor.kron", "tensor.kron_all", "tensor.tensor_power"),
    "tensor.partial_trace_s": ("tensor.partial_trace",),
    "states.validate_s": ("states.validate",),
    "states.mixture_of_products_s": ("states.mixture_of_products",),
    "metrics.marginal_s": ("metrics.marginal",),
    "metrics.empirical_variance_s": ("metrics.empirical_variance",),
    "metrics.chaos_report_s": ("metrics.chaos_report",),
    "dynamics.build_hamiltonian_s": ("dynamics.build_hamiltonian", "dynamics.build_reduced_hamiltonian"),
    "dynamics.propagator_setup_s": ("dynamics.ExactPropagator.__init__",),
    "dynamics.evolve_s": (
        "dynamics.ExactPropagator.evolve",
        "dynamics.ExactPropagator.evolve_matrix",
        "dynamics.ExactPropagator.unitary",
        "dynamics.evolve_exact",
    ),
    "dynamics.evolve_grid_s": ("dynamics.ExactPropagator.evolve_grid",),
    "dynamics.epsilon_term_s": ("dynamics.epsilon_term",),
    "dynamics.bbgky_residual_s": ("dynamics.bbgky_residual",),
    "dynamics.integrate_hartree_s": ("dynamics.integrate_hartree",),
}

# metric -> span whose calls it counts
CALL_COUNTS = {
    "tensor.partial_trace.calls": "tensor.partial_trace",
    "states.validate.calls": "states.validate",
}

COMPUTED_METRICS = (
    tuple(f"{layer}.calls" for layer in LAYERS)
    + tuple(CALL_COUNTS)
    + tuple(counter for counter, _ in COMPUTED.values())
)


def rebind(fn, replacement) -> list[tuple[object, str, object]]:
    """Replace fn by replacement in every chaoticity namespace; returns what to undo."""
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "chaoticity" or name.startswith("chaoticity."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    undo.append((module, attr, fn))
                    setattr(module, attr, replacement)
    return undo


class Tracer:
    """Wraps the layers' public functions and records one span per call.

    Single-threaded use only (the benchmark runs experiments with
    parallel = 1): the open-span stack is shared by every wrapper.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter
        counter = COMPUTED.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever chaoticity holds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"chaoticity.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                self._undo += rebind(fn, self._wrap(f"{layer}.{attr}", fn))
        propagator = importlib.import_module("chaoticity.dynamics").ExactPropagator
        for attr in PROPAGATOR_METHODS:
            fn = vars(propagator)[attr]
            self._undo.append((propagator, attr, fn))
            setattr(propagator, attr, self._wrap(f"dynamics.ExactPropagator.{attr}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def layer_metrics(spans: list[list], counters: Counter, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took run_s seconds.

    ``<layer>.self_s`` sums span time minus the time of child spans, so the
    layer self times plus ``experiments.self_s`` (pass time outside every
    span) add up to run_s.
    """
    n = len(spans)
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child_time[parents[i]] += durations[i]

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    per_name = Counter(names)
    for i in range(n):
        layer = names[i].split(".", 1)[0]
        out[f"{layer}.self_s"] += durations[i] - child_time[i]
        out[f"{layer}.calls"] += 1

    for metric, members in GROUPS.items():
        members = set(members)
        # inside[i]: some ancestor of span i belongs to the group (parents precede children)
        inside = [False] * n
        total = 0.0
        for i in range(n):
            p = parents[i]
            inside[i] = p >= 0 and (inside[p] or names[p] in members)
            if names[i] in members and not inside[i]:
                total += durations[i]
        out[metric] = total
    for metric, name in CALL_COUNTS.items():
        out[metric] = per_name[name]
    for counter, _ in COMPUTED.values():
        out[counter] = counters[counter]
    out["experiments.self_s"] = run_s - sum(d for d, p in zip(durations, parents) if p < 0)
    return out
