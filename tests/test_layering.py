"""The package's import layering: each module imports only from its own
layer or below, in the order the package docstring gives."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import chaoticity

PACKAGE = Path(chaoticity.__file__).resolve().parent

# lowest first; __init__ (the facade) and __main__ (the entry point) sit on top
LAYERS = (
    ("errors", "version"),
    ("linalg",),
    ("tensor",),
    ("states",),
    ("metrics",),
    ("dynamics",),
    ("blocks",),
    ("config",),
    ("experiments",),
    ("cli",),
    ("__init__", "__main__"),
)
LEVEL = {name: level for level, names in enumerate(LAYERS) for name in names}


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imported_modules(tree: ast.AST):
    """Package modules imported anywhere in tree, outside `if TYPE_CHECKING:` blocks."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import linalg
                yield from (alias.name for alias in node.names)
            elif node.level == 1:  # from .states import ...
                yield node.module.split(".")[0]
            elif node.module and node.module.split(".")[0] == "chaoticity":
                parts = node.module.split(".")
                yield from (parts[1:2] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "chaoticity" and len(parts) > 1:
                    yield parts[1]
        stack.extend(ast.iter_child_nodes(node))


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LEVEL)


def test_package_docstring_gives_the_layer_order():
    doc = chaoticity.__doc__
    named = [name for names in LAYERS[:-1] for name in names]
    positions = [doc.index(name, doc.index("Layering")) for name in named]
    assert positions == sorted(positions)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_imports_stay_at_or_below_own_layer(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    upward = {m for m in _imported_modules(tree) if LEVEL[m] > LEVEL[path.stem]}
    assert not upward, f"{path.stem} imports from higher layers: {sorted(upward)}"


@pytest.mark.parametrize("name", ["experiments", "config", "cli"])
def test_harness_imports_no_private_name(name):
    # the harness reaches each module through its public names only, so a
    # sequence it needs lives, once, in the module that owns its parts
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "chaoticity")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private, f"{name} imports private names: {private}"


def test_package_starts_no_threads():
    # every experiment runs serially; no module reaches for a thread pool
    concurrent = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) and node.level == 0
            else []
        )
        if name.split(".")[0] in ("concurrent", "threading")
    ]
    assert not concurrent, f"thread imports at {concurrent}"


def test_only_states_checks_for_one_site():
    # states._check_one_site is the one rule that a state lives on one site,
    # so no other module compares a .sites attribute with 1
    def one_site_test(node) -> bool:
        sides = [node.left, *node.comparators]
        return (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(isinstance(x, ast.Attribute) and x.attr == "sites" for x in sides)
                and any(isinstance(x, ast.Constant) and x.value == 1 for x in sides))

    checks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "states"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Compare) and one_site_test(node)
    ]
    assert not checks, f"one-site checks outside states at {checks}"


def test_package_never_calls_numpy_kron():
    # tensor.kron forms every Kronecker product by broadcasting, one path for
    # matrices and stacks alike
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr == "kron"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "kron" for alias in node.names))
    ]
    assert not calls, f"np.kron at {calls}"
