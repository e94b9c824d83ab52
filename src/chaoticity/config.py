"""Declarative experiment configs: flat key-value text, typed, reproducible.

The format is deliberately minimal so that a config diffs cleanly and
normalizes to a canonical byte string (the basis of the config hash):

    kind = propagation
    d = 2
    N_list = 2, 4, 6, 8
    times = 0.5
    tol.drift = 1e-06

One nesting level exists: ``tol.<name>`` lines collect into the tolerance
override table. Unknown top-level keys, duplicates, type mismatches and a
tolerance that is not positive and finite are line-diagnosed ParseErrors; a
nan or inf step, time, fd_h or norm cap, and cross-field consistency
problems (an N_list, k_list or times not strictly ascending, an oversized
step, k beyond the smallest N, a propagation time more than
dynamics.GRID_TOL off the save grid) are ConfigInvalid.

Two tolerance names are read: ``drift`` (trajectory validation, by
propagation and hartree_convergence) and ``residual`` (the
finite-difference pass threshold, by bbgky_verify). A name the kind does
not read is ConfigInvalid, so a typo such as ``tol.drfit`` cannot pass
silently.

``max_total_dim`` bounds what each kind holds, each d^n by tensor.TensorShape:
two sites, d^2, for every kind; for propagation and bbgky_verify, what
blocks.propagator holds at max(N) (blocks.check_budget: d^max(N) at d >= 3,
and at d = 2 the entries of the spin blocks, at most max_total_dim^2; N = 64
fits the default); the largest ProductMixture marginal, d^max(k), for
chaos_sweep and bound_audit whatever N. The kinds
that draw a MeanFieldSystem (propagation, bbgky_verify, hartree_convergence)
also hold its v, w and Hartree generator, d^4 entries each, and 3 d^4 must
not pass the same max_total_dim^2 entries: d <= 48 at the default.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass

from .blocks import check_budget
from .dynamics import GRID_TOL, step_cap
from .errors import ConfigInvalid, MemoryBudgetExceeded, ParseError
from .tensor import TensorShape

KINDS = ("chaos_sweep", "propagation", "bbgky_verify", "hartree_convergence", "bound_audit")
# the tol.<name> overrides each kind reads; any other name is rejected
TOL_NAMES = {"propagation": {"drift"}, "hartree_convergence": {"drift"},
             "bbgky_verify": {"residual"}}
FORMATS = ("csv", "json")
# kinds that evolve rho0^(ox N) with blocks.propagator
N_BODY_KINDS = ("propagation", "bbgky_verify")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; equal configs hash equal and run identically."""

    kind: str
    d: int = 2
    N_list: tuple[int, ...] = (2, 4, 6, 8)
    k_list: tuple[int, ...] = (1, 2)
    times: tuple[float, ...] = (0.5,)
    step: float = 1e-3
    seed: int = 12345
    a_norm_cap: float = 1.0
    v_norm_cap: float = 1.0
    trials: int = 100
    components: int = 3
    fd_h: float = 1e-3
    save_every: int = 10
    gronwall: bool = True
    max_total_dim: int = 4096
    tol: tuple[tuple[str, float], ...] = ()
    out: str | None = None
    out_format: str = "csv"

    def tol_value(self, name: str, default: float) -> float:
        for key, value in self.tol:
            if key == name:
                return value
        return default


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _list_of(item):
    def parse(s: str) -> tuple:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(p) for p in parts)

    return parse


# a field's annotation (a string, as the module defers annotations) -> its parser
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str, "str | None": str,
            "tuple[int, ...]": _list_of(int), "tuple[float, ...]": _list_of(float)}
# config-file key -> (field name, parser), in field order; "format" is the one renamed field
_FIELDS = {("format" if f.name == "out_format" else f.name): (f.name, _PARSERS[f.type])
           for f in dataclasses.fields(ExperimentConfig) if f.name != "tol"}


def parse_config(text: str, default_kind: str | None = None) -> ExperimentConfig:
    """Parse a flat key-value document; see the module docstring for the shape.

    default_kind fills in when the document has no kind line (the CLI passes
    its subcommand here); an explicit kind line always wins, and validate()
    later rejects contradictions at the CLI level.
    """
    values: dict[str, object] = {}
    tol: dict[str, float] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError("expected key = value", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", line=lineno)
        if key in seen:
            raise ParseError(f"duplicate key {key!r}", line=lineno, field=key)
        seen.add(key)
        if key.startswith("tol."):
            name = key[len("tol."):]
            if not name.isidentifier():
                raise ParseError(f"bad tolerance name {name!r}", line=lineno, field=key)
            try:
                parsed = float(value)
            except ValueError as exc:
                raise ParseError(f"bad float for {key}: {value!r}", line=lineno, field=key) from exc
            if not 0 < parsed < math.inf:
                raise ParseError(f"tolerance {name} must be positive and finite", line=lineno, field=key)
            tol[name] = parsed
            continue
        if key not in _FIELDS:
            raise ParseError(f"unknown key {key!r}", line=lineno, field=key)
        field_name, parser = _FIELDS[key]
        try:
            values[field_name] = parser(value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {value!r} ({exc})", line=lineno, field=key) from exc

    if "kind" not in values and default_kind is not None:
        values["kind"] = default_kind
    if "kind" not in values:
        raise ConfigInvalid("kind is required (or supply it via the subcommand)")
    values["tol"] = tuple(sorted(tol.items()))
    config = ExperimentConfig(**values)  # type: ignore[arg-type]
    validate_config(config)
    return config


def _check_list(name: str, values: tuple, low: float) -> None:
    """ConfigInvalid unless values is nonempty, each finite and >= low, and strictly ascending."""
    if not values:
        raise ConfigInvalid(f"{name} must be nonempty")
    if not all(low <= v < math.inf for v in values):
        raise ConfigInvalid(f"{name} values must be finite and >= {low}, got {values}")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigInvalid(f"{name} must be strictly ascending, got {values}")


def validate_config(config: ExperimentConfig) -> None:
    """Cross-field consistency; raises ConfigInvalid on the first problem."""
    c = config
    if c.kind not in KINDS:
        raise ConfigInvalid(f"unknown kind {c.kind!r}; choose one of {', '.join(KINDS)}")
    if c.d < 2:
        raise ConfigInvalid(f"d must be >= 2, got {c.d}")
    _check_list("N_list", c.N_list, 2)
    _check_list("k_list", c.k_list, 1)
    if max(c.k_list) > min(c.N_list):
        raise ConfigInvalid(
            f"max k = {max(c.k_list)} exceeds the smallest N = {min(c.N_list)}"
        )
    if c.kind in N_BODY_KINDS + ("hartree_convergence",) and 3 * c.d**4 > c.max_total_dim**2:
        # a MeanFieldSystem holds v, w and the Hartree generator, d^4 entries each
        raise ConfigInvalid(f"the system's 3 d^4 = {3 * c.d**4} entries at d = {c.d} exceed "
                            f"max_total_dim^2 = {c.max_total_dim**2}")
    try:
        # every kind holds two sites; the N-body kinds the largest N's propagator up to
        # the order n + 1 of the largest n, the mixture kinds their largest marginal
        TensorShape(c.d, 2, c.max_total_dim)
        if c.kind in N_BODY_KINDS:
            check_budget(c.d, max(c.N_list), min(max(c.k_list) + 1, max(c.N_list)),
                         c.max_total_dim)
        elif c.kind != "hartree_convergence":
            TensorShape(c.d, max(c.k_list), c.max_total_dim)
    except MemoryBudgetExceeded as exc:
        raise ConfigInvalid(f"max_total_dim = {c.max_total_dim} is too small: {exc}") from exc
    if c.kind == "bbgky_verify" and min(c.k_list) > max(c.N_list) - 1:
        raise ConfigInvalid(
            "the hierarchy check needs the next marginal up: no (N, n) pair has n <= N - 1"
        )
    _check_list("times", c.times, 0)
    for name in ("step", "fd_h"):
        if not 0 < getattr(c, name) < math.inf:
            raise ConfigInvalid(f"{name} must be positive and finite, got {getattr(c, name)}")
    for name in ("a_norm_cap", "v_norm_cap"):
        if not 0 <= getattr(c, name) < math.inf:
            raise ConfigInvalid(f"{name} must be nonnegative and finite, got {getattr(c, name)}")
    if c.kind in ("propagation", "hartree_convergence"):
        # the cap keeps RK4 stable, so only the kinds that integrate are held to it
        cap = step_cap(c.v_norm_cap)
        if c.step > cap * (1.0 + 1e-12):
            raise ConfigInvalid(
                f"step = {c.step} exceeds the cap {cap:.6g} implied by v_norm_cap = {c.v_norm_cap}"
            )
    if c.kind == "propagation":
        # integrate_hartree stores step k at the float k * step; HartreeTrajectory.index looks there
        grid = c.step * c.save_every
        for t in c.times:
            k = round(t / grid) * c.save_every
            if abs(t - k * c.step) > GRID_TOL:
                raise ConfigInvalid(
                    f"time {t} does not sit on the save grid (step x save_every = {grid:.6g})"
                )
    if not 0 <= c.seed < 2**64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {c.seed}")
    if c.trials < 1:
        raise ConfigInvalid(f"trials must be >= 1, got {c.trials}")
    if c.components < 1:
        raise ConfigInvalid(f"components must be >= 1, got {c.components}")
    if c.save_every < 1:
        raise ConfigInvalid(f"save_every must be >= 1, got {c.save_every}")
    if c.out_format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {', '.join(FORMATS)}, got {c.out_format!r}")
    read = TOL_NAMES.get(c.kind, set())
    for name, value in c.tol:
        if name not in read:
            raise ConfigInvalid(f"tol.{name} is not read by {c.kind}; it reads {sorted(read)}")
        if not 0 < value < math.inf:
            raise ConfigInvalid(f"tol.{name} must be positive and finite, got {value}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(config: ExperimentConfig) -> str:
    """Canonical text form; parse(write_config(c)) == c and hashing is stable."""
    lines = [f"{key} = {_format_value(getattr(config, name))}"
             for key, (name, _) in _FIELDS.items()
             if getattr(config, name) is not None]
    lines += [f"tol.{name} = {repr(value)}" for name, value in config.tol]
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical text; the audit-trail fingerprint."""
    return hashlib.sha256(write_config(config).encode("utf-8")).hexdigest()
