"""Seeded inputs and the fixed round of operations for each workload.

A round is the same list of operations every time; a run repeats whole
rounds. Only numpy is needed here, so set-up probes can import this module
without paying for the reference or the harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Each round runs the high degrees first, so the short low-degree calls never
# follow straight after the set-up probes' processes, with cold caches.
DEGREES = (1024, 256, 64, 16)
LOW_DEGREE = 64  # ops with n <= 64 make up low_deg_ops_per_s
HIGH_DEGREE = 256  # ops with n >= 256 make up high_deg_ops_per_s

# Closed-form route angles. They do not depend on the seed, because whether
# the binomial expansion in closed_form_coeffs survives depends sharply on
# the angle, and the failed share must be the same for every seed. Angles
# between 0.2 and 0.42 are left out: there the scaled error crosses the check
# tolerance (6e-11 at n = 64, angle 0.26; 5e-11 at n = 256, angle 0.36), so a
# pass or fail would hinge on the last bits of the arithmetic.
CLOSED_ANGLES = (0.0, 0.12, 0.2, 0.42, 0.56, 0.7)
# At n = 1024 the true cosine table exceeds double range above ~0.3.
CLOSED_ANGLES_TOP = (0.0, 0.12, 0.2)

WORKLOAD_STREAM = {"tables": 1, "zeros": 2, "cli": 3}


@dataclass(frozen=True)
class Op:
    """One call into the package.

    `kind` names the public function, `n` the degree that sorts the op into
    the low- or high-degree rate, and `args` its inputs. `route_fault` marks
    the closed-form coefficient route, whose failures are counted rather than
    treated as a broken run (its binomial expansion cancels and overflows).
    """

    kind: str
    n: int
    args: tuple
    route_fault: bool = False


def generic_matrix(rng) -> np.ndarray:
    """Unit-scale columns with a random overlap phase and a dilation near 1.

    The columns have norms sqrt(rho) and 1/sqrt(rho), so scale = 1 and
    dilation = rho; the overlap has magnitude sin(2 theta). With these ranges
    every table up to n = 1024 stays below ~1e280.
    """
    theta = rng.uniform(0.05, 0.5)
    rho = rng.uniform(0.98, 1.02)
    beta, gamma = rng.uniform(0.0, 2.0 * math.pi, 2)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    u1 = q[:, 0]
    u2 = q @ np.array([math.sin(2 * theta) * np.exp(1j * beta), math.cos(2 * theta) * np.exp(1j * gamma)])
    return np.column_stack([u1 * math.sqrt(rho), u2 / math.sqrt(rho)])


def rng_for(workload: str, seed: int):
    # Seed sequences take non-negative integers; negative seeds wrap.
    return np.random.default_rng([seed % 2**64, WORKLOAD_STREAM[workload]])


def tables_ops(seed: int) -> list[Op]:
    rng = rng_for("tables", seed)
    mats = [generic_matrix(rng) for _ in range(3)]
    ops = []
    for n in DEGREES:
        ops.extend(Op("trace_power_coeffs", n, (n, m)) for m in mats)
        for theta in CLOSED_ANGLES_TOP if n == 1024 else CLOSED_ANGLES:
            ops.append(Op("closed_form_coeffs", n, (n, theta), route_fault=True))
            ops.append(Op("trig_coeffs", n, (n, theta), route_fault=True))
    return ops


def comb_grid(n: int, rng) -> np.ndarray:
    """n real points on [-pi, pi) (t = 0 among them) and n above the axis."""
    real = -math.pi + 2.0 * math.pi * np.arange(n) / n
    return np.concatenate([real + 0j, real + 1j * rng.uniform(0.01, 3.0, n)])


def zeros_ops(seed: int) -> list[Op]:
    rng = rng_for("zeros", seed)
    # Near 0, in the middle, and near pi/4, where the arcs almost close.
    angles = (
        rng.uniform(1e-3, 1e-2),
        rng.uniform(0.15, 0.6),
        math.pi / 4 - rng.uniform(1e-3, 1e-2),
    )
    mat = generic_matrix(rng)
    ops = []
    for n in DEGREES:
        ops.extend(Op("canonical_roots", n, (n, theta)) for theta in angles)
        ops.append(Op("matrix_roots", n, (n, mat)))
        ops.extend(Op("trig_roots", n, (n, theta)) for theta in angles)
        ops.extend(Op("unit_level_roots", n, (n, theta)) for theta in angles)
        # Not at the angle near pi/4: there comb_map cancels where cos t / cos 2theta < -1
        # and misses cos u(t) = cos t / cos 2theta by up to ~1e-9, varying with the seed.
        ops.extend(Op("comb_map", n, (comb_grid(n, rng), theta)) for theta in angles[:2])
    return ops


def call(tl, op: Op):
    """Run one op against the package module `tl`, looked up at call time."""
    if op.kind == "comb_map":
        ts, theta = op.args
        comb = tl.comb_map
        return [comb(t, theta) for t in ts]
    return getattr(tl, op.kind)(*op.args)


def warmup_ops(ops: list[Op]) -> list[Op]:
    """The lowest-degree op of each kind: one warm-up call per operation kind."""
    seen = {}
    for op in sorted(ops, key=lambda op: op.n):
        seen.setdefault(op.kind, op)
    return list(seen.values())


def _num(x: float) -> str:
    return format(float(x), ".17g")


def matrix_spec(m) -> str:
    """The CLI's "a+bi,c+di;e+fi,g+hi" form, exact to the last bit."""
    return ";".join(
        ",".join(f"{_num(v.real)}{'+' if v.imag >= 0 else '-'}{_num(abs(v.imag))}i" for v in row)
        for row in np.asarray(m, dtype=complex)
    )


@dataclass(frozen=True)
class CliOp:
    """One CLI process: argv after `python -m tracelaurent.cli`.

    `route_fault` marks the two calls that hit the closed-form fault every
    time; they are counted as failed.
    """

    argv: tuple
    n: int
    route_fault: bool = False

    @property
    def fmt(self) -> str:
        return "csv" if "csv" in self.argv else "json"


def cli_ops(seed: int) -> list[CliOp]:
    rng = rng_for("cli", seed)
    theta = _num(rng.uniform(0.15, 0.6))
    mat = matrix_spec(generic_matrix(rng))
    radius, phi = rng.uniform(0.8, 1.25), rng.uniform(-math.pi, math.pi)
    z = complex(radius * math.cos(phi), radius * math.sin(phi))
    zspec = f"{_num(z.real)}{'+' if z.imag >= 0 else '-'}{_num(abs(z.imag))}i"
    csv = ("--format", "csv")

    def both(argv, n):
        return [CliOp(argv, n), CliOp(argv + csv, n)]

    return [
        *both(("coeffs", "--n", "8", "--theta", "pi/6"), 8),
        *both(("coeffs", "--n", "12", "--matrix=" + mat), 12),
        CliOp(("coeffs", "--n", "12", "--matrix=" + mat, "--method", "closed"), 12),
        CliOp(("coeffs", "--n", "10", "--theta", theta, "--method", "closed", "--verify"), 10),
        CliOp(("coeffs", "--n", "48", "--theta", "pi/16", "--verify"), 48, route_fault=True),
        *both(("coeffs", "--n", "256", "--matrix=" + mat), 256),
        *both(("normal-form", "--matrix=" + mat), 0),
        *both(("roots", "--n", "16", "--theta", theta), 16),
        CliOp(("roots", "--n", "16", "--matrix=" + mat), 16),
        *both(("roots", "--n", "256", "--theta", theta), 256),
        *both(("eval", "--n", "16", "--theta", theta, "--z=" + zspec), 16),
        CliOp(("eval", "--n", "256", "--theta", theta, "--z=" + zspec), 256),
        *both(("trig", "--n", "12", "--theta", theta), 12),
        *both(("comb", "--theta", theta, "--samples", "33"), 0),
        *both(("sweep", "--n", "6", "--theta-grid", "5"), 6),
        CliOp(("sweep", "--n", "64", "--theta-grid", "2"), 64, route_fault=True),
    ]


# The CLI workload's warm-up: one small invocation, as a user's first call.
CLI_WARMUP = ("coeffs", "--n", "2", "--theta", "pi/6")
