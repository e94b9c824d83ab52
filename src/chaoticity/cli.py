"""Command-line front end: subcommand picks the kind, config fills the rest.

    chaoticity propagate --config run.cfg --out rows.csv
    chaoticity chaos --seed 7 --format json
    chaoticity audit-bounds --config audit.cfg

Exit codes: 0 success, 1 config or I/O problem, 2 a numerical invariant was
violated during the run (the table is still written, with the violation
recorded in its metadata).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from .config import FORMATS, parse_config, ExperimentConfig
from .errors import ConfigInvalid, ParseError
from .experiments import ResultTable, run_experiment

SUBCOMMANDS = {
    "chaos": "chaos_sweep",
    "propagate": "propagation",
    "bbgky": "bbgky_verify",
    "hartree": "hartree_convergence",
    "audit-bounds": "bound_audit",
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def render_csv(table: ResultTable) -> str:
    """Metadata as # comment lines, then an RFC-4180 header + rows."""
    buf = io.StringIO()
    for key, value in table.metadata.items():
        if isinstance(value, dict):
            value = json.dumps(value, sort_keys=True)
        buf.write(f"# {key}: {value}\n")
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(table.schema)
    for row in table.rows:
        writer.writerow([_format_cell(cell) for cell in row])
    return buf.getvalue()


def render_json(table: ResultTable) -> str:
    doc = {
        "metadata": table.metadata,
        "schema": list(table.schema),
        "rows": [list(row) for row in table.rows],
    }
    return json.dumps(doc, indent=2) + "\n"


def write_table(table: ResultTable, path: str | None, out_format: str) -> None:
    """Serialize to path, or stdout when path is None."""
    if out_format not in FORMATS:
        raise ConfigInvalid(f"format must be one of {', '.join(FORMATS)}, got {out_format!r}")
    text = render_csv(table) if out_format == "csv" else render_json(table)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoticity",
        description="chaoticity metrics and mean-field dynamics experiments",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, kind in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {kind} experiment")
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=list(FORMATS), help="output format")
        p.add_argument("--seed", type=int, help="master seed override")
    return parser


def _load_config(args) -> ExperimentConfig:
    kind = SUBCOMMANDS[args.subcommand]
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        config = parse_config(text, default_kind=kind)
        if config.kind != kind:
            raise ConfigInvalid(
                f"config kind {config.kind!r} contradicts subcommand {args.subcommand!r}"
            )
    else:
        config = ExperimentConfig(kind=kind)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.format is not None:
        overrides["out_format"] = args.format
    if args.out is not None:
        overrides["out"] = args.out
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        table = run_experiment(config)
        write_table(table, config.out, config.out_format)
    except (ParseError, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if "error" in table.metadata:
        err = table.metadata["error"]
        print(f"error: {err['type']}: {err['message']}", file=sys.stderr)
        return 2
    return 0


def entry() -> None:
    raise SystemExit(main())
