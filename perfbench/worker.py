"""One pass of a workload in a fresh process, so every memo starts empty.

The parent (run.py) passes --t0, its monotonic clock just before it
started this process; set-up time runs from there to the first job and
covers interpreter start, `import virlog` and input generation.  The
pass then runs every job in order, one at a time, reads peak memory and
memo sizes, checks the outputs and prints one JSON line.  Times are
printed as measured, with the host speeds (pace.py) that run.py needs to
state them at the reference speed: just after set-up, during each job
and during the whole job loop.  A traced pass has no job speeds.

    python3 perfbench/worker.py --workload wlog-scan --seed 1 --t0 0
    python3 perfbench/worker.py --workload wlog-scan --seed 1 --t0 0 --trace
    python3 perfbench/worker.py --workload wlog-scan --freeze

--freeze writes the digests of the default seed's rendered outputs to
perfbench/digests/<workload>.json; the committed files were made that
way and are not rewritten by runs.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import virlog  # noqa: E402
from pace import SpeedProbe  # noqa: E402
from spans import Tracer, layer_metrics, self_by_layer  # noqa: E402
from workloads import DEFAULT_SEED, DIGEST_DIR, WORKLOADS, digest, load_digests  # noqa: E402

SPAN_DIR = Path(__file__).resolve().parent / "out"
SETUP_SAMPLES = 20


def run_jobs(workload, jobs, tracer=None, probe=None):
    """(outputs, latencies in s, {index: reason} for jobs that raised,
    wall s, speeds).  With a running SpeedProbe its own time is left out of
    the latencies and the wall, and speeds is (the host speed during each
    job, during the whole loop); without one it is None."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())

    def probed():  # (seconds the probe has taken, samples so far)
        return (probe.spent, len(probe.samples)) if probe is not None else (0.0, 0)

    outs = [None] * len(jobs)
    latencies = [0.0] * len(jobs)
    windows = [(0, 0)] * len(jobs)
    raised = {}
    clock = time.perf_counter
    start, (start_spent, _) = clock(), probed()
    for i, job in enumerate(jobs):
        t, (spent, first) = clock(), probed()
        with span("job"):
            try:
                outs[i] = workload.run(job)
            except Exception as exc:  # a job failing is a result, not a crash
                raised[i] = f"raised {exc!r}"
        latencies[i] = clock() - t
        spent_after, stop = probed()
        latencies[i] -= spent_after - spent
        windows[i] = (first, stop)
    wall = clock() - start - (probed()[0] - start_spent)
    speeds = None
    if probe is not None:
        speeds = ([probe.speed(first, stop) for first, stop in windows], probe.speed())
    return outs, latencies, raised, wall, speeds


def find_failures(workload, jobs, outs, raised, seed):
    """{index: reason} over all jobs: raised, failed a check, or rendered
    to bytes other than the frozen digest."""
    failures = dict(raised)
    done = [i for i in range(len(jobs)) if i not in raised]
    try:
        bad = workload.check([jobs[i] for i in done], [outs[i] for i in done], seed)
        for k, reason in bad.items():
            failures[done[k]] = reason
    except Exception as exc:  # a malformed output can break a check
        for i in done:
            failures.setdefault(i, f"check raised {exc!r}")
    frozen = load_digests(workload.name)
    for i in done:
        text = workload.render(jobs[i], outs[i])
        if text is None:
            continue
        want = frozen.get(jobs[i].key)
        if want is None:
            if seed == DEFAULT_SEED:
                failures.setdefault(i, "no frozen digest for a default-seed job")
        elif digest(text) != want:
            failures.setdefault(i, "rendered output differs from the frozen digest")
    return failures


def memo_sizes() -> dict:
    from virlog import modules, virasoro

    return {
        "action": len(modules._ACTION_MEMO),
        "prepend": len(modules._PREPEND_MEMO),
        "straighten": len(virasoro._STRAIGHTEN_MEMO),
        "partitions": modules.partitions.cache_info().currsize,
    }


def freeze(workload) -> None:
    jobs = workload.jobs(DEFAULT_SEED)
    outs, _, raised, _, _ = run_jobs(workload, jobs)
    if raised:
        raise SystemExit(f"cannot freeze digests, jobs raised: {sorted(raised.values())[:3]}")
    digests = {}
    for job, out in zip(jobs, outs):
        text = workload.render(job, out)
        if text is not None:
            digests[job.key] = digest(text)
    DIGEST_DIR.mkdir(exist_ok=True)
    with open(DIGEST_DIR / f"{workload.name}.json", "w", encoding="utf-8") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--t0", type=float, default=_STARTED)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args()

    if Path(virlog.__file__).resolve().parent != SRC / "virlog":
        sys.stderr.write(f"virlog imported from {virlog.__file__}, not from {SRC}\n")
        return 2
    workload = WORKLOADS[args.workload]
    if args.freeze:
        freeze(workload)
        return 0

    jobs = workload.jobs(args.seed)
    setup_s = time.monotonic() - args.t0
    at_setup = SpeedProbe()
    at_setup.sample(SETUP_SAMPLES)  # the host's speed just after set-up
    result = {"setup_s": setup_s, "setup_speed": at_setup.speed(), "jobs": len(jobs)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    # a traced pass runs unprobed: its spans would take in the probe's time
    tracer = Tracer() if args.trace else None
    probe = SpeedProbe() if tracer is None else None
    with tracer if tracer is not None else probe:
        outs, latencies, raised, wall, speeds = run_jobs(workload, jobs, tracer, probe)
    if speeds is not None:
        result.update(job_speeds=speeds[0], speed=speeds[1], probes=len(probe.samples))
    result.update(
        wall_s=wall,
        latencies_ms=[x * 1000 for x in latencies],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        memo=memo_sizes(),
    )
    if tracer is not None:
        summary = tracer.summary()
        result["layers"] = layer_metrics(tracer, summary, result["memo"])
        result["layer_self_s"] = self_by_layer(summary)
        tracer.dump(SPAN_DIR / f"spans-{workload.name}")
    failures = find_failures(workload, jobs, outs, raised, args.seed)
    result["failed"] = len(failures)
    result["failures"] = [f"{jobs[i].key}: {why}" for i, why in sorted(failures.items())[:5]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
