"""virlog benchmark: run one workload from a seed, check every output and
print the metrics.

    python3 perfbench/run.py --workload numeric-sweep --seed 3 --seconds 35 --trace 0

Each pass runs the workload's whole job list in a fresh worker process
(worker.py), one job at a time, so memos start empty and set-up time and
peak memory belong to that pass.  Passes repeat, one after another, until
the next one would end after --seconds; every run makes at least
MIN_PASSES.  Set-up is also measured alone SETUP_PROBES times.  Each
metric is the median over the passes of the run; a job's latency is its
median over the passes, and job_p50_ms and job_tail_ms are the median and
tail over jobs of those.

Every end-to-end time is stated at the reference speed of pace.py: each
job's latency, each pass's wall time and each set-up are multiplied by
the host speed the worker's probe measured over them, which takes the
shared host's fast and slow spells out of the figures.  The summary
lines give the measured medians too.

With --trace 1 the run alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, as measured, with
trace.overhead_frac the ratio of their measured wall times less one.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics; the lines before it are a readable summary.  The exit code
is 0 whenever that line is printed, and 1 when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from spans import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]
SETUP_PROBES = 10
MIN_PASSES = 2
RUN_LIMIT_S = 170  # a pass still running then is stopped and the run fails
TAIL_BEYOND = 10


class PassFailed(RuntimeError):
    pass


def spawn(started: float, args: list) -> dict:
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")  # every pass hashes strings alike
    budget = RUN_LIMIT_S - (time.monotonic() - started)
    if budget <= 0:
        raise PassFailed("run time limit reached")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=budget,
        )
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass still running after {budget:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def tail(latencies: list):
    """(latency, percentile) at the highest percentile with TAIL_BEYOND
    jobs beyond it; the maximum when a pass has too few jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return ordered[-1], 100.0


def run(workload: str, seed: int, seconds: int, traced: bool):
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(started, common + ["--setup-only"]) for _ in range(SETUP_PROBES)]
    plain, traced_passes, rounds = [], [], []
    while True:
        t = time.monotonic()
        plain.append(spawn(started, common))
        if traced:
            traced_passes.append(spawn(started, common + ["--trace"]))
        rounds.append(time.monotonic() - t)
        enough = len(rounds) >= (1 if traced else MIN_PASSES)
        if enough and time.monotonic() - started + statistics.median(rounds) > seconds:
            break
    passes = plain + traced_passes
    return [(p["setup_s"], p["setup_speed"]) for p in setups + passes], plain, traced_passes


def summarize(workload, seed, setups, plain, traced_passes):
    """(human-readable lines, final JSON object)."""
    med = statistics.median
    jobs = plain[0]["jobs"]
    # a job's latency is its median over the passes, which keeps a stall
    # that hits one job in one pass out of the tail
    latencies = [med(p["latencies_ms"][i] * p["job_speeds"][i] for p in plain)
                 for i in range(jobs)]
    tail_ms, percentile = tail(latencies)
    attempted = sum(p["jobs"] for p in plain + traced_passes)
    failed = sum(p["failed"] for p in plain + traced_passes)
    lines = [
        f"workload {workload}, seed {seed}: {len(plain)} untraced and "
        f"{len(traced_passes)} traced passes of {jobs} jobs, {len(setups)} set-ups",
        f"job_tail_ms is p{percentile:.4g} of {jobs} jobs per pass "
        f"({TAIL_BEYOND if jobs > TAIL_BEYOND else 0} jobs beyond it)",
        f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)",
        f"as measured: wall {med(p['wall_s'] for p in plain):.6g} s, set-up "
        f"{med(s for s, _ in setups):.6g} s; host speed against the reference "
        f"{min(p['speed'] for p in plain):.3g} to {max(p['speed'] for p in plain):.3g} "
        f"over the passes",
    ]
    for i, p in enumerate(plain + traced_passes):
        memo = ", ".join(f"{k} {v}" for k, v in p["memo"].items())
        lines.append(f"pass {i + 1}: wall {p['wall_s']:.3f} s, memo entries: {memo}")
    for p in plain + traced_passes:
        lines += [f"failure: {f}" for f in p["failures"]]
    if traced_passes:
        wall = med(p["wall_s"] for p in traced_passes)
        shares = {}
        for p in traced_passes:
            for layer, s in p["layer_self_s"].items():
                shares.setdefault(layer, []).append(s / p["wall_s"])
        lines.append("share of traced wall time by layer (self time): " + ", ".join(
            f"{k} {med(v):.1%}" for k, v in sorted(shares.items(), key=lambda kv: -med(kv[1]))
        ))
        values = {
            name: med(p["layers"][name] for p in traced_passes)
            for name, _ in PER_LAYER if name != "trace.overhead_frac"
        }
        values["trace.overhead_frac"] = wall / med(p["wall_s"] for p in plain) - 1
        spec = PER_LAYER
    else:
        values = {
            "wall_s": med(p["wall_s"] * p["speed"] for p in plain),
            "job_p50_ms": med(latencies),
            "job_tail_ms": tail_ms,
            "setup_s": med(s * speed for s, speed in setups),
            "peak_rss_mib": med(p["peak_rss_mib"] for p in plain),
        }
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "virlog" / "__init__.py").is_file():
        sys.stderr.write(f"no virlog sources under {ROOT / 'src'}\n")
        return 1
    try:
        setups, plain, traced_passes = run(args.workload, args.seed, args.seconds,
                                           bool(args.trace))
    except PassFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    lines, result = summarize(args.workload, args.seed, setups, plain, traced_passes)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
