"""Steadiness record: run each workload several times, each with another
seed, and report the median, quartiles and spread of every end-to-end
metric, the spread being (q3 - q1) / median.

    python3 perfbench/steadiness.py --runs 10 --label "first set"

Runs one workload run at a time with the run_seconds of BENCHMARK.json,
and appends one set of results to perfbench/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD = HERE / "steadiness.json"


def machine() -> str:
    model = platform.processor() or "unknown cpu"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} cpus, Python {platform.python_version()}"


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    result = {"label": args.label, "machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            runs.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        rows = {"failed": sum(r["failed"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs)}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": metric["bound"], "values": values,
            }
        result["workloads"][workload] = rows

    record = json.loads(RECORD.read_text()) if RECORD.is_file() else []
    record.append(result)
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    for workload, rows in result["workloads"].items():
        print(f"{workload}: {rows['failed']} failed of {rows['attempted']}")
        for metric in spec["end_to_end"]:
            row = rows[metric["name"]]
            print(f"  {metric['name']:13s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                  f"q3 {row['q3']:.5g}  spread {row['spread']:.3f}  bound {row['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
