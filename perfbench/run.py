"""Benchmark of tracelaurent: coefficient tables, zero sets and CLI calls.

Usage, from the repository root:
    python3 perfbench/run.py --workload {tables,zeros,cli} --seed N --seconds S --trace {0,1}

Inputs come from the seed. Whole rounds of the workload's operations repeat
for S seconds; then every output of the first round is checked against the
mpmath reference in perfbench/reference.py, and every later round must
repeat it bit for bit. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
"""

import os

# Before numpy loads: the workloads are single-threaded by design.
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

PROBES = 12  # set-up, import and invocation samples per untraced run
# The CLI call timed as invocation_ms on the in-process workloads.
PROBE_CALLS = {
    "tables": ("coeffs", "--n", "64", "--theta", "pi/6"),
    "zeros": ("roots", "--n", "64", "--theta", "pi/6"),
}
CLI = ["-m", "tracelaurent.cli"]


def _median_ms(samples) -> float:
    return 1e3 * statistics.median(samples)


class Probes:
    """Set-up, import-only and CLI-call samples from fresh processes.

    Samples are taken between rounds, paced so that the PROBES of each kind
    spread evenly over the run rather than fall in one burst.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.setup, self.imports, self.calls = [], [], []

    def pace(self, progress: float):
        while len(self.setup) < max(1, math.ceil(progress * PROBES)):
            self.sample()

    def sample(self):
        if self.workload == "cli":
            wall, code, _, err = harness.spawn([*CLI, *workloads.CLI_WARMUP])
            self.setup.append(wall)
        else:
            probe = str(harness.ROOT / "perfbench" / "probe.py")
            self.setup.append(harness.spawn_ready([probe, self.workload, str(self.seed)]))
            wall, code, _, err = harness.spawn([*CLI, *PROBE_CALLS[self.workload]])
            self.calls.append(wall)
        if code != 0:
            raise RuntimeError(f"probe invocation failed: {err.decode().strip()}")
        self.imports.append(harness.spawn(["-c", "import tracelaurent.cli"])[0])

    def metrics(self) -> dict:
        out = {"setup_s": statistics.median(self.setup), "import_ms": _median_ms(self.imports)}
        if self.calls:
            out["invocation_ms"] = _median_ms(self.calls)
        return out


def _library_pass(workload: str, seed: int, seconds: float, on_round):
    import tracelaurent

    ops = {"tables": workloads.tables_ops, "zeros": workloads.zeros_ops}[workload](seed)
    for op in workloads.warmup_ops(ops):
        with contextlib.suppress(Exception):
            workloads.call(tracelaurent, op)
    # CPU time of this single-threaded process: on a shared machine the wall
    # time of a call also holds the host's preemption of the virtual CPU, which
    # spread the rates by ~20% between runs of one seed, against ~8% here.
    run = harness.run_rounds(ops, lambda op: workloads.call(tracelaurent, op), seconds,
                             time.process_time, on_round=on_round)
    return ops, run, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cli_pass(seed: int, seconds: float, traced: bool, on_round):
    ops = workloads.cli_ops(seed)
    if not traced:
        def invoke(op):
            _, code, out, err = harness.spawn([*CLI, *op.argv])
            return code, out, err
    else:
        # In process: the same argv through cli.run, import excluded.
        from tracelaurent import cli

        def invoke(op):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(op.argv))
            return code, out.getvalue().encode(), err.getvalue().encode()

        invoke(workloads.CliOp(workloads.CLI_WARMUP, 2))
    # Wall time from spawn to exit, as a user of the CLI waits for it; two
    # rounds at least, so every invocation is repeated and compared.
    run = harness.run_rounds(ops, invoke, seconds, time.perf_counter, min_rounds=2, on_round=on_round)
    who = resource.RUSAGE_SELF if traced else resource.RUSAGE_CHILDREN
    return ops, run, resource.getrusage(who).ru_maxrss / 1024


def _failures(workload: str, ops, run) -> dict:
    # Imported only now: mpmath stays out of the peak memory of the timed pass.
    from perfbench import checks

    refs = checks.References()
    if workload == "cli":
        results = [value if error is None else (-1, b"", error.encode()) for value, error in run.first]
        return checks.cli_outputs(ops, results, refs)
    failures = {}
    for i, (op, (value, error)) in enumerate(zip(ops, run.first)):
        problem = error or checks.library_op(op, value, refs)
        if problem:
            failures[i] = problem
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    tracer = Tracer() if trace else None
    probes = None if trace else Probes(workload, seed)
    if tracer:
        tracer.install()
    on_round = (lambda _: tracer.mark_round()) if tracer else probes.pace
    try:
        if workload == "cli":
            ops, run, rss_mb = _cli_pass(seed, seconds, trace, on_round)
        else:
            ops, run, rss_mb = _library_pass(workload, seed, seconds, on_round)
    finally:
        if tracer:
            tracer.restore()
    if probes:
        probes.pace(1.0)
    failures = _failures(workload, ops, run)

    for i, problem in sorted(failures.items()):
        label = " ".join(ops[i].argv) if workload == "cli" else f"{ops[i].kind} n={ops[i].n}"
        print(f"failed: {label}: {problem}", file=sys.stderr)
    for i in run.drifted:
        print(f"output changed between rounds: op {i}", file=sys.stderr)
    unexpected = [i for i in failures if not ops[i].route_fault]
    rates = harness.rates(ops, run.durations, workloads.LOW_DEGREE, workloads.HIGH_DEGREE)
    print(f"rounds: {run.rounds}, ops_per_s: {rates['ops_per_s']:.4g}", file=sys.stderr)

    if trace:
        declared = spec["per_layer"]
        values = tracer.metrics([m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values = {**rates, **probes.metrics(), "peak_rss_mb": rss_mb}
        if workload == "cli":
            values["invocation_ms"] = _median_ms([d for ds in run.durations for d in ds])
    return {
        "correct": not run.drifted and not unexpected,
        "attempted": len(ops) * run.rounds,
        "failed": len(failures) * run.rounds,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("tables", "zeros", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = harness.ROOT / "BENCHMARK.json"
    if not (harness.SRC / "tracelaurent" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout holding src/tracelaurent and BENCHMARK.json ({harness.ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    spec = json.loads(spec_path.read_text())
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
