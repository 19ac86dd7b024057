"""Source guard: tolerances and domain validators live in `core` only.

Every numerical edge of the package is a named constant in core's tolerance
block (module-level UPPER_CASE assignments), and every domain validator is a
`check_*` function in core. This test parses the package source and fails on
a small float literal or a validator defined anywhere else, on a named
tolerance that no code reads, and on an imported name that its module, test
file or demo never reads.
"""

import ast
from pathlib import Path

import tracelaurent

PACKAGE = Path(tracelaurent.__file__).parent
REPO = Path(__file__).resolve().parent.parent
SMALL = 1e-6


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _tolerance_assignments(tree):
    """Core's module-level UPPER_CASE assignments."""
    return [
        stmt
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and stmt.targets[0].id.isupper()
    ]


def _tolerance_block(tree):
    """Nodes of core's module-level UPPER_CASE assignments."""
    return {node for stmt in _tolerance_assignments(tree) for node in ast.walk(stmt)}


def test_sources_found():
    assert {"core.py", "family.py", "roots.py", "trig.py"} <= {p.name for p in _modules()}


def test_small_float_literals_only_in_core_tolerance_block():
    offenders = []
    for path in _modules():
        tree = ast.parse(path.read_text())
        allowed = _tolerance_block(tree) if path.name == "core.py" else set()
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is float
                and 0.0 < abs(node.value) < SMALL
                and node not in allowed
            ):
                offenders.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not offenders, "name these tolerances in core: " + ", ".join(offenders)


def test_validators_defined_only_in_core():
    offenders = []
    for path in _modules():
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                node.name.startswith("_check") or node.name.startswith("check_")
            ):
                offenders.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not offenders, "use core's validators: " + ", ".join(offenders)


def test_every_tolerance_is_read():
    # A named tolerance that nothing reads is a dead edge: its row in the
    # README's table would describe behaviour the package no longer has.
    core = ast.parse((PACKAGE / "core.py").read_text())
    names = {stmt.targets[0].id for stmt in _tolerance_assignments(core)}
    read = {
        node.id
        for path in _modules()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert names, "core's tolerance block is empty"
    assert not names - read, "unread tolerances in core: " + ", ".join(sorted(names - read))


def test_every_import_is_read():
    # An import that its module, test file or demo never reads is left over
    # from deleted code. `__future__` imports, the re-exports of the package's
    # `__init__` and names marked `# noqa: F401` on their line are exempt.
    tests, demos = (sorted((REPO / name).glob("*.py")) for name in ("tests", "demos"))
    assert demos, "demos not found"
    offenders = []
    for path in [*_modules(), *tests, *demos]:
        if path == PACKAGE / "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for stmt in ast.walk(tree):
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    offenders.append(f"{path.name}:{alias.lineno}: {name}")
    assert not offenders, "unused imports: " + ", ".join(offenders)
