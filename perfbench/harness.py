"""Timing rounds, child processes and rate figures shared by the workloads."""

from __future__ import annotations

import dataclasses
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def now() -> float:
    """CLOCK_MONOTONIC, which parent and child processes share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv: list[str]) -> tuple[float, int, bytes, bytes]:
    """Run a Python child to completion: (wall seconds, exit code, stdout, stderr)."""
    start = now()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return now() - start, proc.returncode, proc.stdout, proc.stderr


def spawn_ready(argv: list[str]) -> float:
    """Seconds from spawning a child to the CLOCK_MONOTONIC stamp it prints last."""
    start = now()
    _, code, out, err = spawn(argv)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode().strip()}")
    return float(out.split()[-1]) - start


def fingerprint(value) -> bytes:
    """Bytes that differ whenever two outputs differ in any bit."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + repr(value.shape).encode() + value.tobytes()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return b"{" + b";".join(fingerprint(getattr(value, f.name)) for f in dataclasses.fields(value)) + b"}"
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(fingerprint(v) for v in value) + b")"
    return repr(value).encode()


@dataclasses.dataclass
class Pass:
    """What one timed pass saw: per-op durations, first-round outputs, drift."""

    durations: list[list[float]]
    first: list  # (value, error) of each op in round 1
    drifted: list[int]  # ops whose output changed between rounds
    rounds: int


def run_rounds(ops, invoke, seconds: float, timer, min_rounds: int = 1, on_round=None) -> Pass:
    """Repeat the whole list of ops until the rounds have taken `seconds` of wall time.

    Each op is timed alone by `timer`; its output is compared outside the
    timed region with its round-1 output, so a run that is not deterministic
    shows. `on_round(progress)` runs before each round, with the share of
    `seconds` used so far; its own time is not counted.
    """
    durations = [[] for _ in ops]
    first, prints, drifted = [], [], set()
    wall = time.perf_counter
    used = 0.0
    rounds = 0
    while rounds < min_rounds or used < seconds:
        if on_round is not None:
            on_round(used / seconds)
        round_start = wall()
        for i, op in enumerate(ops):
            t0 = timer()
            try:
                value, error = invoke(op), None
            except Exception as exc:  # a failing op is counted, the run goes on
                value, error = None, f"{type(exc).__name__}: {exc}"
            durations[i].append(timer() - t0)
            stamp = fingerprint(value) if error is None else error.encode()
            if rounds == 0:
                first.append((value, error))
                prints.append(stamp)
            elif stamp != prints[i]:
                drifted.add(i)
        used += wall() - round_start
        rounds += 1
    return Pass(durations, first, sorted(drifted), rounds)


def rates(ops, durations, low: int, high: int) -> dict:
    """Ops per second from each op's median time over the rounds."""
    medians = [statistics.median(d) for d in durations]

    def rate(keep):
        picked = [m for op, m in zip(ops, medians) if keep(op.n)]
        return len(picked) / sum(picked)

    return {
        "ops_per_s": rate(lambda n: True),
        "low_deg_ops_per_s": rate(lambda n: n <= low),
        "high_deg_ops_per_s": rate(lambda n: n >= high),
    }
