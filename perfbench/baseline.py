"""Run the benchmark over several seeds and summarize each end-to-end metric.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10
    python3 perfbench/baseline.py --runs 5 --workloads walk-search --first-seed 11
    python3 perfbench/baseline.py --runs 10 --write perfbench/BASELINE.json

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json.  --write stores the same figures with the git commit,
Python version and CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _run(cmd: list[str]) -> dict:
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: {' '.join(cmd)} reported incorrect output:\n{out.stdout}")
    return result


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--write", default=None, help="JSON file for the summary")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to give quartiles")

    command = list(bench["command"])
    summary = {}
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            t0 = time.perf_counter()
            result = _run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(bench["run_seconds"]), "--trace", "0"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({time.perf_counter() - t0:.0f}s): " + " ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        rows = {}
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                    "unit": metric["unit"], "values": vals}
            print(f"  {metric['name']:<16} median {median:12.4f} {metric['unit']:<6} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f} bound {metric['bound']}")
        summary[workload] = {"seeds": seeds, "metrics": rows}

    if args.write:
        doc = {
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "workloads": summary,
        }
        Path(args.write).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
