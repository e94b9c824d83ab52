"""CLI surface: subcommands, output formats, overrides, exit codes."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chaoticity
from chaoticity.cli import SUBCOMMANDS, main, render_csv, render_json
from chaoticity.config import ExperimentConfig
from chaoticity.experiments import ResultTable, run_experiment


def read_csv_table(path):
    comments = {}
    body = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                comments[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(io.StringIO("".join(body))))
    return comments, rows[0], rows[1:]


SMALL = {
    "chaos": "kind = chaos_sweep\nN_list = 2, 3\nk_list = 1, 2\n",
    "propagate": "kind = propagation\nN_list = 2, 4\nk_list = 1\ntimes = 0.5\n",
    "bbgky": "kind = bbgky_verify\nN_list = 2, 4\nk_list = 1\ntimes = 0.3\n",
    "hartree": "kind = hartree_convergence\nstep = 0.004\ntimes = 1.0\n",
    "audit-bounds": "kind = bound_audit\nN_list = 2, 3\nk_list = 1, 2\ntrials = 8\n",
}


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_each_subcommand_runs_clean(sub, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL[sub], encoding="utf-8")
    out = tmp_path / "rows.csv"
    code = main([sub, "--config", str(cfg), "--out", str(out)])
    assert code == 0
    comments, header, rows = read_csv_table(out)
    assert comments["kind"] == SUBCOMMANDS[sub]
    assert "config_hash" in comments and "wall_time_s" in comments
    assert len(rows) >= 1
    assert all(len(r) == len(header) for r in rows)


def test_defaults_without_config_file(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["chaos", "--out", str(out)]) == 0
    _, header, rows = read_csv_table(out)
    assert header[0] == "N"
    assert len(rows) == 8  # default 4 N values x 2 k values


def test_stdout_when_no_out(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["chaos"], encoding="utf-8")
    assert main(["chaos", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert "# kind: chaos_sweep" in captured.out
    assert "N,k,chaos_distance" in captured.out


def test_json_format(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["chaos"], encoding="utf-8")
    out = tmp_path / "rows.json"
    assert main(["chaos", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc) == {"metadata", "schema", "rows"}
    assert doc["metadata"]["kind"] == "chaos_sweep"
    assert doc["schema"][0] == "N"
    assert len(doc["rows"]) == 4
    assert all(len(r) == len(doc["schema"]) for r in doc["rows"])


def test_format_from_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["chaos"] + "format = json\n", encoding="utf-8")
    out = tmp_path / "rows.out"
    assert main(["chaos", "--config", str(cfg), "--out", str(out)]) == 0
    json.loads(out.read_text(encoding="utf-8"))  # parses as json


def test_seed_override_changes_rows(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["audit-bounds"], encoding="utf-8")
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["audit-bounds", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["audit-bounds", "--config", str(cfg), "--out", str(out2), "--seed", "99"]) == 0
    _, _, rows1 = read_csv_table(out1)
    _, _, rows2 = read_csv_table(out2)
    assert rows1 != rows2


def test_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["propagate"], encoding="utf-8")
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["propagate", "--config", str(cfg), "--out", str(out)]) == 0
        # metadata lines vary (wall time, out path in the hash); rows must not
        lines = [
            ln for ln in out.read_text(encoding="utf-8").splitlines()
            if not ln.startswith("#")
        ]
        outs.append(lines)
    assert outs[0] == outs[1]


def test_kind_contradiction_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = bound_audit\n", encoding="utf-8")
    assert main(["chaos", "--config", str(cfg)]) == 1
    assert "contradicts" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["chaos", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_bad_config_key_reports_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = chaos_sweep\nwibble = 3\n", encoding="utf-8")
    assert main(["chaos", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "wibble" in err and "2" in err


def test_invalid_field_combination(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = chaos_sweep\nN_list = 8, 4\n", encoding="utf-8")
    assert main(["chaos", "--config", str(cfg)]) == 1
    assert "ascending" in capsys.readouterr().err


def test_parallel_flag_is_gone(capsys):
    # no subcommand takes --parallel: argparse exits with its usage error
    with pytest.raises(SystemExit) as exc:
        main(["chaos", "--parallel", "2"])
    assert exc.value.code == 2
    assert "--parallel" in capsys.readouterr().err


def test_numerical_violation_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        SMALL["bbgky"] + "tol.residual = 1e-12\n", encoding="utf-8"
    )
    out = tmp_path / "rows.csv"
    code = main(["bbgky", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "BoundViolation" in capsys.readouterr().err
    # the table is still written, carrying the violation record
    comments, _, rows = read_csv_table(out)
    assert rows == []
    assert "BoundViolation" in comments["error"]


def test_render_csv_cell_conventions():
    table = ResultTable(
        schema=("a", "b", "c", "d"),
        rows=[(1, None, True, 0.1), (2, 3.5, False, 1e-17)],
        metadata={"kind": "demo", "note": {"z": 1, "a": 2}},
    )
    text = render_csv(table)
    lines = text.splitlines()
    assert lines[0] == "# kind: demo"
    assert lines[1] == '# note: {"a": 2, "z": 1}'  # dict metadata JSON-normalized
    assert lines[2] == "a,b,c,d"
    assert lines[3] == "1,,true,0.10000000000000001"
    assert lines[4] == "2,3.5,false,1.0000000000000001e-17"


def test_render_json_round_trip():
    table = run_experiment(ExperimentConfig(kind="chaos_sweep", N_list=(2,), k_list=(1,)))
    doc = json.loads(render_json(table))
    assert doc["rows"][0][0] == 2
    assert doc["metadata"]["kind"] == "chaos_sweep"


def test_module_entry_point(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL["chaos"], encoding="utf-8")
    # the child imports the package this suite imports, wherever pytest found it
    src = str(Path(chaoticity.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "chaoticity", "chaos", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "# kind: chaos_sweep" in proc.stdout
