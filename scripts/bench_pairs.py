#!/usr/bin/env python3
"""Paired benchmark runs of a base commit against the working tree.

    python3 scripts/bench_pairs.py --out BENCH.json
    python3 scripts/bench_pairs.py --out wlog.json --workload wlog-scan

For every workload of BENCHMARK.json, or only for those named by a
repeated --workload, the script makes PAIRS pairs of runs of
`python3 perfbench/run.py`: one on a checkout of the files of HEAD,
extracted with `git archive` into a temporary directory that is removed
afterwards, and one on the working tree.  Pair i runs both sides with seed
FIRST_SEED + i, at the benchmark's run_seconds and untraced, and the side
that runs first alternates from pair to pair.  The script only runs
perfbench/; it changes nothing there.

The output JSON holds every run (metrics, attempted, failed), and for each
end-to-end metric the median and quartiles of each side, the number of
pairs the working tree won (ties count for neither side), the ratio of
the medians, and past_bound: whether the working tree's median is worse
than the base's by more than the metric's BENCHMARK.json bound, read as a
fraction of the base's median.  Its host block records the Python
version, the machine and whether the runs write bytecode
(PYTHONDONTWRITEBYTECODE unset): without a bytecode cache each run
compiles src/ during set-up, which setup_s takes in.  The JSON is
rewritten after every run, so an interrupted run keeps what it measured.
At the end of each workload one line per end-to-end metric goes to
stderr with the median ratio, the wins and, when past_bound holds, PAST
BOUND.  The exit code does not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
FIRST_SEED = 101


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """Write the files of commit rev into dest."""
    archive = dest / "base.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                       stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(dest / "tree")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list, spec: list) -> dict:
    """Median, quartiles and wins of each end-to-end metric over the pairs
    where both sides produced a result."""
    done = [r for r in runs if "metrics" in r["base"] and "metrics" in r["change"]]
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {}
        for side in ("base", "change"):
            values = [r[side]["metrics"][name] for r in done]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                           "iqr": q3 - q1, "values": values}
        wins = sum(
            (c < b) if lower else (c > b)
            for b, c in zip(sides["base"]["values"], sides["change"]["values"])
        )
        base_med, change_med = sides["base"]["median"], sides["change"]["median"]
        worse = change_med - base_med if lower else base_med - change_med
        out[name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "base": sides["base"],
            "change": sides["change"],
            "pairs": len(done),
            "change_wins": wins,
            "median_ratio": change_med / base_med if base_med else None,
            "median_gap_exceeds_base_iqr": abs(change_med - base_med) > sides["base"]["iqr"],
            "past_bound": worse > metric["bound"] * abs(base_med),
        }
    return out


def report(workload: str, summary: dict) -> None:
    """One stderr line per end-to-end metric of a finished workload."""
    for name, s in summary.items():
        ratio = "n/a" if s["median_ratio"] is None else f"{s['median_ratio']:.3f}"
        flag = f"  PAST BOUND ({s['bound']})" if s["past_bound"] else ""
        print(f"{workload} {name}: median ratio {ratio}, change wins "
              f"{s['change_wins']}/{s['pairs']}{flag}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", choices=names,
                        help="pair-run only this workload (repeatable; default: all)")
    args = parser.parse_args(argv)
    workloads = [name for name in names if name in (args.workload or names)]

    seconds = bench["run_seconds"]
    base = git("rev-parse", "HEAD")
    doc = {
        "base": base,
        "change": "working tree of " + base,
        "command": bench["command"] + ["--workload", "W", "--seed", "S", "--seconds",
                                       str(seconds), "--trace", "0"],
        "pairs": PAIRS,
        "first_seed": FIRST_SEED,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(),
                 "writes_bytecode": not os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        extract(base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for workload in workloads:
            runs = []
            doc["workloads"][workload] = {"runs": runs}
            for i in range(PAIRS):
                seed = FIRST_SEED + i
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                run = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    t0 = time.monotonic()
                    run[side] = run_once(trees[side], workload, seed, seconds)
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{run[side].get('metrics', run[side].get('error'))} "
                          f"({time.monotonic() - t0:.0f} s)", file=sys.stderr, flush=True)
                runs.append(run)
                doc["workloads"][workload]["failed"] = {
                    side: sum(r[side].get("failed", 0) for r in runs) for side in trees
                }
                doc["workloads"][workload]["summary"] = summarize(runs, bench["end_to_end"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
            report(workload, doc["workloads"][workload]["summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
