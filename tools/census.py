"""Print a census of outcomes, one line per case, so that two checkouts can be diffed.

Usage, from anywhere in a checkout (it reads the checkout it lives in; copy it into
another checkout to take that one's census, then `diff` the two outputs):
    python3 tools/census.py > census.txt

A CLI case runs `tracelaurent.cli.run(argv)` in this process and prints its exit code, the
sha256 of its stdout, the first line of its stderr and its argv: the benchmark's
`perfbench.workloads.cli_ops` of seeds 101-110, every command by --theta and by --matrix,
and trace tables far past double range, in JSON and CSV. A library case prints the sha256 of the bytes it returns, or
the type and text of what it raises, then its name.
"""

import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.workloads import cli_ops  # noqa: E402
from tracelaurent import cli  # noqa: E402
from tracelaurent.family import closed_form_coeffs  # noqa: E402
from tracelaurent.normal_form import canonical_matrix  # noqa: E402
from tracelaurent.roots import canonical_roots, matrix_roots  # noqa: E402

DEGREES = ("1", "2", "3", "16", "255", "1024")
THETAS = ("0", "1e-9", "0.05", "pi/8", "0.3", "pi/6", "pi/4")
MATRICES = ("1+1i,0.5;-0.7,2", "0.5,0.4;0.5,0.6", "3,5;4,12", "1,1;1,1", "0,1;0,2",
            "1e-160,1e140;0.3,1e140", "1e-200,0;0,1e150", "1e160,0;0,1e160",
            "1e-170,0.3e-170;0.2e-170,1e-170")
ROOT_DEGREES = (1, 2, 3, 7, 16, 64, 255, 256, 1024, 4096)
ROOT_ANGLES = (0.0, 1e-12, 1e-3, 0.05, math.pi / 8, 0.3, math.pi / 6, math.pi / 4 - 1e-3, math.pi / 4)
PHASES = (None, 1.0, 1j, complex(math.cos(1.1), math.sin(1.1)), -1.0)
QUARTER_DEGREES = (1, 2, 3, 16, 255, 1024, 1029, 1030, 1335)
# Trace tables far past double range at n = 20000, above it and below it.
PAST_LIMIT = (("--theta", "0.1"), ("--matrix=1e-100,0.3e-100;0.2e-100,1e-100",))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_argvs() -> list[tuple]:
    argvs = [op.argv for seed in range(101, 111) for op in cli_ops(seed)]
    sources = [("--theta", t) for t in THETAS] + [("--matrix=" + m,) for m in MATRICES]
    for n in DEGREES:
        argvs.append(("sweep", "--n", n, "--theta-grid", "5"))
        for source in sources:
            for extra in ((), ("--verify",), ("--method", "closed"), ("--method", "closed", "--verify")):
                argvs.append(("coeffs", "--n", n, *source, *extra))
            argvs.append(("roots", "--n", n, *source))
        for theta in THETAS:
            argvs += [("eval", "--n", n, "--theta", theta, "--z", "0.6+0.8i"), ("trig", "--n", n, "--theta", theta)]
    argvs += [("comb", "--theta", theta, "--samples", "33") for theta in THETAS]
    argvs += [("normal-form", "--matrix=" + m) for m in MATRICES]
    argvs += [("coeffs", "--n", "20000", *source) for source in PAST_LIMIT]
    argvs = [argv + fmt for argv in argvs for fmt in ((), ("--format", "csv"))]
    return list(dict.fromkeys(argvs))


def cli_case(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    first = (err.getvalue().splitlines() or [""])[0]
    return f"{code} {digest(out.getvalue().encode())} {first!r} {' '.join(argv)}"


def outcome(fn, *args) -> str:
    try:
        result = fn(*args)
    except Exception as exc:  # every failure is an outcome to compare
        return f"{type(exc).__name__}: {exc}"
    parts = result if isinstance(result, tuple) else (result,)
    return digest(b"".join(np.asarray(part).tobytes() for part in parts))


def report(fn, n, arg):
    r = fn(n, arg)
    return r.roots, r.residuals, r.min_pairwise_gap, r.angle, r.dilation


def library_cases():
    for n in ROOT_DEGREES:
        for theta in ROOT_ANGLES:
            yield f"canonical_roots({n}, {theta!r})", outcome(report, canonical_roots, n, theta)
        for spec in MATRICES[:7]:
            yield f"matrix_roots({n}, {spec!r})", outcome(report, matrix_roots, n, cli._parse_matrix(spec))
    for theta in [*np.linspace(0.0, math.pi / 4, 101).tolist(), math.pi / 4 + 1e-3]:
        for phase in PHASES:
            yield f"canonical_matrix({theta!r}, {phase!r})", outcome(canonical_matrix, theta, phase)
    for n in QUARTER_DEGREES:
        yield f"closed_form_coeffs({n}, pi/4)", outcome(lambda: closed_form_coeffs(n, math.pi / 4).coeffs)


if __name__ == "__main__":
    argvs = cli_argvs()
    for argv in argvs:
        print(cli_case(argv))
    cases = list(library_cases())
    for name, result in cases:
        print(f"{result} {name}")
    print(f"# {len(argvs)} argvs, {len(cases)} library cases", file=sys.stderr)
