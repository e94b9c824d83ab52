"""The benchmark's workloads: config documents, reference rows, row checks.

Each workload is a list of config documents in the package's own flat
key-value format. The seed is not part of a document: the benchmark
appends ``seed = <n>`` from its ``--seed`` argument, so the program only
ever sees generated inputs. ``full`` is the measured size; ``tiny`` keeps
each workload's layer mix at a size that runs in about a second and is
what ``run.py --self-check`` uses.

Why each workload exists:

- ``propagate-n10``: dense dynamics at the 2^10 wall (Hamiltonian
  assembly, one ``eigh`` per N, the evolved-state grid) does nearly all the
  work; ``metrics`` and ``states`` sit idle. ``save_every = 50`` keeps the
  grid at 11 points (176 MB at N = 10) so that several passes fit in one
  run and the process stays near 350 MB.
- ``mixtures-n10``: ``states`` and ``metrics`` on exchangeable mixtures do
  all the work and ``dynamics`` none, so a dynamics change must leave it
  flat. ``trials = 12`` is one mixture per (N, k).
- ``hierarchy-small``: the same ``tensor``/``dynamics`` kernels on
  D <= 256 and 4x4 matrices, called tens of thousands of times, so a kernel
  that wins at D = 1024 but adds per-call cost shows here as a regression.
"""

from __future__ import annotations

import json
from pathlib import Path

DEFAULT_SEED = 12345
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = {
    "propagate-n10": {
        "full": [
            """kind = propagation
d = 2
N_list = 6, 8, 10
k_list = 1, 2
times = 0.25, 0.5
step = 0.001
save_every = 50
gronwall = true
""",
        ],
        "tiny": [
            """kind = propagation
d = 2
N_list = 2, 3, 4
k_list = 1, 2
times = 0.25, 0.5
step = 0.001
save_every = 50
gronwall = true
""",
        ],
    },
    "mixtures-n10": {
        "full": [
            """kind = bound_audit
d = 2
N_list = 4, 6, 8, 10
k_list = 1, 2, 3
trials = 12
""",
            """kind = chaos_sweep
d = 2
N_list = 4, 6, 8, 10
k_list = 1, 2, 3
""",
        ],
        "tiny": [
            """kind = bound_audit
d = 2
N_list = 3, 4, 5
k_list = 1, 2, 3
trials = 9
""",
            """kind = chaos_sweep
d = 2
N_list = 3, 4, 5
k_list = 1, 2, 3
""",
        ],
    },
    "hierarchy-small": {
        "full": [
            """kind = bbgky_verify
d = 2
N_list = 3, 4, 5, 6, 7, 8
k_list = 1, 2, 3
times = 0.1, 0.2, 0.3, 0.4, 0.5
""",
            """kind = hartree_convergence
d = 2
step = 0.001
times = 2.0
""",
        ],
        "tiny": [
            """kind = bbgky_verify
d = 2
N_list = 3, 4
k_list = 1, 2
times = 0.1, 0.2
""",
            """kind = hartree_convergence
d = 2
step = 0.001
times = 0.2
""",
        ],
    },
}

# Boolean columns that state a bound or envelope held; None means "not applicable".
FLAG_COLUMNS = ("bound_satisfied", "gronwall_ok", "satisfied")
# Float cells must match the reference to this share of max(1, |reference|):
# loose enough for reordered floating-point sums, tight enough for a wrong kernel.
FLOAT_TOL = 1e-10


def config_documents(workload: str, size: str, seed: int) -> list[str]:
    return [text + f"seed = {seed}\n" for text in WORKLOADS[workload][size]]


def reference_path(workload: str, size: str) -> Path:
    suffix = "" if size == "full" else f"-{size}"
    return REFERENCE_DIR / f"{workload}{suffix}.json"


def table_record(table) -> dict:
    return {
        "kind": table.metadata["kind"],
        "config_hash": table.metadata["config_hash"],
        "schema": list(table.schema),
        "rows": [list(row) for row in table.rows],
    }


def rows_bytes(table) -> str:
    """Canonical text of a table's rows; floats keep every digit (repr)."""
    return json.dumps([list(row) for row in table.rows])


def load_reference(workload: str, size: str) -> list[dict]:
    with open(reference_path(workload, size), encoding="utf-8") as fh:
        return json.load(fh)["tables"]


def write_reference(workload: str, size: str, tables) -> Path:
    path = reference_path(workload, size)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"workload": workload, "size": size, "seed": DEFAULT_SEED,
           "tables": [table_record(t) for t in tables]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def check_flags(table) -> list[str]:
    """Every bound/Gronwall flag must hold wherever it applies."""
    problems = []
    for col in FLAG_COLUMNS:
        if col not in table.schema:
            continue
        i = table.schema.index(col)
        bad = [row for row in table.rows if row[i] is False]
        if bad:
            problems.append(f"{table.metadata['kind']}: {len(bad)} row(s) with {col} = false")
    return problems


def expected_ratios(table) -> list[float | None]:
    """The ``ratio`` column recomputed from the row's own operands.

    Both kinds divide two residuals near roundoff (1e-7 down to 1e-14), so
    reordered sums move the quotient far more than FLOAT_TOL; it is checked
    as the exact quotient of operands that are themselves checked.
    """
    col = table.schema.index
    rows = table.rows
    if table.metadata["kind"] == "bbgky_verify":
        num, den = col("residual_h"), col("residual_half_h")
        return [r[num] / r[den] if r[den] > 0.0 else None for r in rows]
    delta = col("delta_to_finer")
    first = rows[0][delta] / rows[1][delta] if rows[1][delta] > 0.0 else None
    return [first] + [None] * (len(rows) - 1)


def compare_to_reference(table, ref: dict) -> tuple[list[str], float]:
    """(problems, max |delta| over float cells) of a table against its reference.

    Integer, boolean and empty cells must match exactly; float cells within
    FLOAT_TOL relative to max(1, |reference|); a ``ratio`` cell must equal
    expected_ratios() exactly.
    """
    kind = table.metadata["kind"]
    if table.metadata["config_hash"] != ref["config_hash"]:
        return [f"{kind}: config differs from the reference's; regenerate it"], 0.0
    if list(table.schema) != ref["schema"] or len(table.rows) != len(ref["rows"]):
        return [f"{kind}: {len(table.rows)} rows against {len(ref['rows'])} in the reference"], 0.0
    ratios = expected_ratios(table) if "ratio" in table.schema else None
    problems = []
    worst = 0.0
    for r, (row, want_row) in enumerate(zip(table.rows, ref["rows"])):
        for col, got, want in zip(table.schema, row, want_row):
            if col == "ratio":
                ok = got == ratios[r] and (got is None) == (want is None)
            elif isinstance(want, float):
                ok = isinstance(got, float)
                if ok:
                    delta = abs(got - want)
                    worst = max(worst, delta)
                    ok = delta <= FLOAT_TOL * max(1.0, abs(want))
            else:
                ok = type(got) is type(want) and got == want
            if not ok:
                problems.append(f"{kind}: row {r} column {col}: {got!r} != reference {want!r}")
    return problems, worst
