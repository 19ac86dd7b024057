"""Record the benchmark of BENCHMARK.json as BENCH_<pr>.json at the repository root.

Usage, from anywhere in a checkout:
    python3 tools/record_bench.py PR

For each workload it runs BENCHMARK.json's command, `python3 perfbench/run.py`,
once per seed in SEEDS untraced, for SECONDS each, and keeps the median and
quartiles of every end-to-end metric, then once with `--trace 1` for the
per-layer metrics. Runs go one after another, so they do not compete for the
machine's cores.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (101, 102, 103, 104, 105)
SECONDS = 20
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NOTES = [
    "Timed on a shared machine with no control of its caches, frequency or cgroup; "
    "cores is what os.cpu_count() read.",
    "tables and zeros rates are process time of the single-threaded run; cli rates and "
    "invocation_ms are wall time from spawn to exit of each CLI child.",
    "setup_s, import_ms and invocation_ms are medians over the fresh-process probes "
    "perfbench/run.py takes between rounds.",
]
BLIND_SPOTS = [
    "Residuals go through the private family._family_values, which the tracer does not wrap, "
    "so their time lands in the self time of roots.canonical_roots and roots.matrix_roots.",
    "matrix_roots reaches the normal form through the private normal_form._reduce, which the "
    "tracer does not wrap; its time lands in roots.matrix_roots.",
    "zero_layers lists, per workload, the per-layer metrics that read 0 in the traced run: "
    "no operation of that workload reaches them.",
]


def run(workload: str, seed: int, trace: int) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", str(SECONDS),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    workloads = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run(workload, seed, 0) for seed in SEEDS]
        traced = run(workload, SEEDS[0], 1)
        layers = {name: m["value"] for name, m in traced["metrics"].items()}
        workloads[workload] = {
            "correct": [r["correct"] for r in runs + [traced]],
            "failed": [r["failed"] for r in runs + [traced]],
            "attempted": [r["attempted"] for r in runs + [traced]],
            "end_to_end": {
                name: {"unit": m["unit"], **summary([r["metrics"][name]["value"] for r in runs])}
                for name, m in runs[0]["metrics"].items()
            },
            "per_layer": layers,
            "zero_layers": sorted(name for name, value in layers.items() if value == 0),
        }
    record = {
        "pr": int(sys.argv[1]),
        "commit": commit,
        "src_sha256": src_digest(),
        "command": SPEC["command"],
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "traced_seed": SEEDS[0],
        "machine": {"cores": os.cpu_count(), "python": sys.version.split()[0], "notes": NOTES},
        "blind_spots": BLIND_SPOTS,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{sys.argv[1]}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
