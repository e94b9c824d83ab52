"""Declarative experiment configs: flat key-value text, typed, reproducible.

The format is deliberately minimal so that a config diffs cleanly and
normalizes to a canonical byte string (the basis of the config hash):

    kind = propagation
    d = 2
    N_list = 2, 4, 6, 8
    times = 0.5
    tol.drift = 1e-06

One nesting level exists: ``tol.<name>`` lines collect into the tolerance
override table. Unknown top-level keys, duplicates, and type mismatches are
line-diagnosed ParseErrors; cross-field consistency problems (descending
N_list, oversized step, k beyond the smallest N) are ConfigInvalid.

Two tolerance names are read: ``drift`` (trajectory validation, by
propagation and hartree_convergence) and ``residual`` (the
finite-difference pass threshold, by bbgky_verify). A name the kind does
not read is ConfigInvalid, so a typo such as ``tol.drfit`` cannot pass
silently.

``max_total_dim`` bounds what each kind holds: d^max(N) for propagation
and bbgky_verify at d >= 3, and at d = 2 the entries of their spin blocks,
at most max_total_dim^2 (blocks.check_block_budget; N = 64 fits the
default); the largest ProductMixture marginal, d^max(k), for chaos_sweep
and bound_audit whatever N; nothing for the one-site hartree_convergence.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .blocks import check_block_budget
from .dynamics import step_cap
from .errors import ConfigInvalid, MemoryBudgetExceeded, ParseError

KINDS = ("chaos_sweep", "propagation", "bbgky_verify", "hartree_convergence", "bound_audit")
# the tol.<name> overrides each kind reads; any other name is rejected
TOL_NAMES = {"propagation": {"drift"}, "hartree_convergence": {"drift"},
             "bbgky_verify": {"residual"}}
FORMATS = ("csv", "json")
# kinds that evolve rho0^(ox N): in spin blocks at d = 2, on the d^N space at d >= 3
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


# config-file key -> (field name, parser); "format" is the one renamed field
def _parse_int(s: str) -> int:
    return int(s, 10)


def _parse_float(s: str) -> float:
    return float(s)


def _parse_bool(s: str) -> bool:
    if s == "true":
        return True
    if s == "false":
        return False
    raise ValueError(f"expected true or false, got {s!r}")


def _parse_str(s: str) -> str:
    return s


def _parse_int_list(s: str) -> tuple[int, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p, 10) for p in parts)


def _parse_float_list(s: str) -> tuple[float, ...]:
    parts = [p.strip() for p in s.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


_FIELDS = {
    "kind": ("kind", _parse_str),
    "d": ("d", _parse_int),
    "N_list": ("N_list", _parse_int_list),
    "k_list": ("k_list", _parse_int_list),
    "times": ("times", _parse_float_list),
    "step": ("step", _parse_float),
    "seed": ("seed", _parse_int),
    "a_norm_cap": ("a_norm_cap", _parse_float),
    "v_norm_cap": ("v_norm_cap", _parse_float),
    "trials": ("trials", _parse_int),
    "components": ("components", _parse_int),
    "fd_h": ("fd_h", _parse_float),
    "save_every": ("save_every", _parse_int),
    "gronwall": ("gronwall", _parse_bool),
    "max_total_dim": ("max_total_dim", _parse_int),
    "out": ("out", _parse_str),
    "format": ("out_format", _parse_str),
}


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
            if not parsed > 0:
                raise ParseError(f"tolerance {name} must be positive", line=lineno, field=key)
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


def validate_config(config: ExperimentConfig) -> None:
    """Cross-field consistency; raises ConfigInvalid on the first problem."""
    c = config
    if c.kind not in KINDS:
        raise ConfigInvalid(f"unknown kind {c.kind!r}; choose one of {', '.join(KINDS)}")
    if c.d < 2:
        raise ConfigInvalid(f"d must be >= 2, got {c.d}")
    if not c.N_list:
        raise ConfigInvalid("N_list must be nonempty")
    if any(n < 2 for n in c.N_list):
        raise ConfigInvalid(f"N values must be >= 2, got {c.N_list}")
    if any(b <= a for a, b in zip(c.N_list, c.N_list[1:])):
        raise ConfigInvalid(f"N_list must be strictly ascending, got {c.N_list}")
    if c.max_total_dim < c.d**2:
        raise ConfigInvalid(
            f"max_total_dim = {c.max_total_dim} cannot hold even two sites at d = {c.d}"
        )
    if not c.k_list:
        raise ConfigInvalid("k_list must be nonempty")
    if any(k < 1 for k in c.k_list):
        raise ConfigInvalid(f"k values must be >= 1, got {c.k_list}")
    if max(c.k_list) > min(c.N_list):
        raise ConfigInvalid(
            f"max k = {max(c.k_list)} exceeds the smallest N = {min(c.N_list)}"
        )
    if c.kind in N_BODY_KINDS and c.d == 2:
        # the spin-block propagator's entries, up to the order n + 1 of the largest n
        try:
            check_block_budget(max(c.N_list), min(max(c.k_list) + 1, max(c.N_list)),
                               c.max_total_dim)
        except MemoryBudgetExceeded as exc:
            raise ConfigInvalid(str(exc)) from exc
    elif c.kind != "hartree_convergence":
        # the d^N space, or for the mixture kinds their largest marginal
        name, sites = ("N", max(c.N_list)) if c.kind in N_BODY_KINDS else ("k", max(c.k_list))
        if c.d**sites > c.max_total_dim:
            raise ConfigInvalid(
                f"d^max({name}) = {c.d}^{sites} exceeds the memory budget {c.max_total_dim}"
            )
    if c.kind == "bbgky_verify" and min(c.k_list) > max(c.N_list) - 1:
        raise ConfigInvalid(
            "the hierarchy check needs the next marginal up: no (N, n) pair has n <= N - 1"
        )
    if not c.times:
        raise ConfigInvalid("times must be nonempty")
    if any(t < 0 for t in c.times):
        raise ConfigInvalid(f"times must be nonnegative, got {c.times}")
    if any(b <= a for a, b in zip(c.times, c.times[1:])):
        raise ConfigInvalid(f"times must be strictly ascending, got {c.times}")
    if c.step <= 0:
        raise ConfigInvalid(f"step must be positive, got {c.step}")
    if c.kind in ("propagation", "hartree_convergence"):
        # the cap keeps RK4 stable, so only the kinds that integrate are held to it
        cap = step_cap(c.v_norm_cap)
        if c.step > cap * (1.0 + 1e-12):
            raise ConfigInvalid(
                f"step = {c.step} exceeds the cap {cap:.6g} implied by v_norm_cap = {c.v_norm_cap}"
            )
    if c.kind == "propagation":
        grid = c.step * c.save_every
        for t in c.times:
            if t > 0 and abs(t / grid - round(t / grid)) > 1e-9:
                raise ConfigInvalid(
                    f"time {t} does not sit on the save grid (step x save_every = {grid:.6g})"
                )
    if not 0 <= c.seed < 2**64:
        raise ConfigInvalid(f"seed must fit in 64 bits, got {c.seed}")
    if c.a_norm_cap < 0 or c.v_norm_cap < 0:
        raise ConfigInvalid("norm caps must be nonnegative")
    if c.trials < 1:
        raise ConfigInvalid(f"trials must be >= 1, got {c.trials}")
    if c.components < 1:
        raise ConfigInvalid(f"components must be >= 1, got {c.components}")
    if c.fd_h <= 0:
        raise ConfigInvalid(f"fd_h must be positive, got {c.fd_h}")
    if c.save_every < 1:
        raise ConfigInvalid(f"save_every must be >= 1, got {c.save_every}")
    if c.out_format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {', '.join(FORMATS)}, got {c.out_format!r}")
    read = TOL_NAMES.get(c.kind, set())
    for name, value in c.tol:
        if name not in read:
            raise ConfigInvalid(f"tol.{name} is not read by {c.kind}; it reads {sorted(read)}")
        if not value > 0:
            raise ConfigInvalid(f"tol.{name} must be positive, got {value}")


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
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(config, f.name)
        if f.name == "tol":
            continue
        if f.name == "out":
            if value is None:
                continue
            lines.append(f"out = {value}")
            continue
        key = "format" if f.name == "out_format" else f.name
        lines.append(f"{key} = {_format_value(value)}")
    for name, value in config.tol:
        lines.append(f"tol.{name} = {repr(value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the canonical text; the audit-trail fingerprint."""
    return hashlib.sha256(write_config(config).encode("utf-8")).hexdigest()
