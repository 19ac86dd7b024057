"""Source guard: tolerances and domain validators live in `core` only.

Every numerical edge of the package is a named constant in core's tolerance
block (module-level UPPER_CASE assignments), and every domain validator is a
`check_*` function in core. This test parses the package source and fails on
a small float literal or a validator defined anywhere else, on a named
tolerance that no code reads, on an imported name that its module, test
file or demo never reads, on a private function that the package itself
never reads, on a public function, class or method that neither the package
nor a demo reads, on a Chebyshev log form outside `chebyshev`, on a matrix
determinant outside `normal_form`, on a subtraction in the trace route, on
a numpy call in the scalar hot path `trig.comb_map`, and on a read-only array
or an array test for zero evaluation points built outside `core`.
"""

import ast
from pathlib import Path

import tracelaurent

PACKAGE = Path(tracelaurent.__file__).parent
REPO = Path(__file__).resolve().parent.parent
SMALL = 1e-6


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _reads(trees):
    """Every name loaded in the trees, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


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


def test_every_private_function_is_used_in_the_package():
    # A private function that only tests reach is a test helper kept in the
    # package. Importing it does not count; a call or another read in the
    # package source, such as cli's dispatch table, does.
    trees = [ast.parse(path.read_text()) for path in _modules()]
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    assert defined, "no private functions found"
    unused = defined - _reads(trees)
    assert not unused, "private functions the package never uses: " + ", ".join(sorted(unused))


# Public members that no package module or demo reads, kept on purpose.
UNREAD_PUBLIC = {
    # The benchmark's tracer test reads family.cheb_eval; it goes with that test.
    "cheb_eval",
    # Shipped guarantees of the acceptance suite (criteria 10 and 9): the level
    # preimage of T_n, and membership in the interval system.
    "cheb_preimage",
    "contains",
}


def test_every_public_member_is_used_in_the_package():
    # A public function, class or method that only tests reach is a test
    # helper in the public API. Re-exports in `__init__` and `__all__` do not
    # count as reads; a call or another read in the package or a demo does.
    trees = [ast.parse(path.read_text()) for path in _modules()]
    demos = [ast.parse(path.read_text()) for path in sorted((REPO / "demos").glob("*.py"))]
    assert demos, "demos not found"
    defined = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    unread = defined - _reads(trees + demos)
    extra, stale = unread - UNREAD_PUBLIC, UNREAD_PUBLIC - unread
    assert not extra, "public members nothing in the package reads: " + ", ".join(sorted(extra))
    assert not stale, "allowlisted members now read or gone: " + ", ".join(sorted(stale))


def test_chebyshev_kernel_only_in_chebyshev():
    # Every T_n value comes from the one kernel in chebyshev.py; a second log
    # form elsewhere would be a second implementation of the same idea.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in _modules()
        if path.name != "chebyshev.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "arccosh"
    ]
    assert not offenders, "use chebyshev._scaled_cheb: " + ", ".join(offenders)


def _column_products(tree, exempt=()):
    """Determinants of a matrix formed in the tree: a difference of two products, as in
    m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0], or linalg.det; and products of a column with
    a conjugate, such as the projection c @ c.conj().T. Functions named in `exempt` are
    skipped."""
    skipped = {
        node
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in exempt
        for node in ast.walk(fn)
    }
    found = []
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Attribute):
            hit = node.attr == "det"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            hit = all(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Mult) for side in (node.left, node.right))
        else:
            hit = isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult) and "conj" in _reads([node.right])
        if hit:
            found.append(node)
    return found


def test_matrix_determinant_only_in_normal_form():
    # A matrix's columns are read in one place, normal_form._columns, which the normal
    # form, the trace route and matrix_roots' residuals share; a determinant formed
    # anywhere else, or a second one in normal_form.py, is a second reader of the same
    # pencil, and so is an np.vdot of the columns anywhere in the package.
    # brute_force_coeffs forms its own projection products: it is the oracle.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in _modules()
        if path.name != "normal_form.py"
        for node in _column_products(ast.parse(path.read_text()), exempt={"brute_force_coeffs"})
    ]
    assert not offenders, "read the columns through normal_form._columns: " + ", ".join(offenders)
    found = _column_products(ast.parse((PACKAGE / "normal_form.py").read_text()))
    assert len(found) == 1, f"normal_form.py forms {len(found)} determinants, not one"
    assert not [path.name for path in _modules() if "vdot" in path.read_text()], "overlaps come from _columns"
    family = ast.parse((PACKAGE / "family.py").read_text())
    assert _column_products(family), "the guard sees no projection product in the oracle"


def test_trace_route_never_subtracts():
    # Every coefficient of the transfer matrix's powers is a sum of non-negative
    # terms, so each keeps a small relative error; the Cayley-Hamilton step
    # p_k = (a z + b/z) p_{k-1} - d p_{k-2} cancelled where d ~ ab.
    tree = ast.parse((PACKAGE / "family.py").read_text())
    (route,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "trace_power_coeffs"]
    offenders = [node.lineno for node in ast.walk(route) if isinstance(node, (ast.BinOp, ast.AugAssign, ast.UnaryOp))
                 and isinstance(node.op, (ast.Sub, ast.USub))]
    assert not offenders, f"the trace route subtracts at family.py lines {offenders}"
    helpers = [node.name for node in ast.walk(route) if isinstance(node, ast.FunctionDef) and node is not route]
    assert helpers, "the guard sees no product helper in the trace route"


def test_comb_map_stays_off_numpy():
    # The zeros workload calls comb_map once per point; a numpy call on one
    # scalar, such as check_finite, made the comb ops 3-4x slower.
    tree = ast.parse((PACKAGE / "trig.py").read_text())
    (comb_map,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "comb_map"
    ]
    offenders = {node.id for node in ast.walk(comb_map) if isinstance(node, ast.Name)} & {"np", "check_finite"}
    assert not offenders, "comb_map reads " + ", ".join(sorted(offenders))


def test_arrays_frozen_only_in_core():
    # core._frozen is the one constructor of the read-only arrays of LaurentPoly,
    # TrigPoly, RootReport and as_matrix: coerce, check the shape, reject NaN and Inf,
    # freeze. A second `flags.writeable` is a second copy of that constructor.
    found = {
        path.name: [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("writeable", "setflags")
        ]
        for path in _modules()
    }
    offenders = [f"{name}:{line}" for name, lines in found.items() if name != "core.py" for line in lines]
    assert not offenders, "build read-only arrays with core._frozen: " + ", ".join(offenders)
    assert found["core.py"], "the guard sees no frozen array in core"


def _zero_point_tests(tree):
    """Array tests for a zero point, as in np.any(z == 0) or (z == 0).any()."""
    return [
        call
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and "any" in _reads([call.func])
        for node in ast.walk(call)
        if isinstance(node, ast.Compare)
        and isinstance(node.ops[0], ast.Eq)
        and any(isinstance(side, ast.Constant) and side.value == 0 for side in node.comparators)
    ]


def test_evaluation_points_read_only_in_core():
    # core.check_points reads the finite nonzero points of LaurentPoly.eval,
    # closed_form_eval and arc_membership, and holds the one zero-point message.
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in _modules()
        if path.name != "core.py"
        for node in _zero_point_tests(ast.parse(path.read_text()))
    ]
    assert not offenders, "read evaluation points with core.check_points: " + ", ".join(offenders)
    assert _zero_point_tests(ast.parse((PACKAGE / "core.py").read_text())), "the guard sees no zero test in core"
    messages = [path.name for path in _modules() if "z != 0" in path.read_text()]
    assert messages == ["core.py"], "raise the zero-point DomainError only in core.check_points: " + ", ".join(messages)
