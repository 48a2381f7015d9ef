"""Tests of the benchmark itself: seeded inputs, failure counting and the
span accounting of a traced run.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import pace  # noqa: E402
from pace import REFERENCE_S, SpeedProbe  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

from virlog import WLogElement  # noqa: E402
from virlog.polynomial import MultiPoly  # noqa: E402


def small_jobs(name):
    """A cheap slice of a workload's default-seed job list."""
    jobs = WORKLOADS[name].jobs(DEFAULT_SEED)
    if name == "symbolic-det":
        return [j for j in jobs if j.args[1] <= 3]
    if name == "numeric-sweep":
        kinds = {}  # a few of each verb, on and off the Kac table
        for j in jobs:
            group = kinds.setdefault((j.kind, bool(j.args[1:2] and j.args[1])), [])
            if "--level 6" not in j.key and len(group) < 3:
                group.append(j)
        return [j for group in kinds.values() for j in group]
    return jobs[:40] + [j for j in jobs if j.kind == "wlog-vev"][:20]


def fake_pass(jobs, failed=0, wall=1.0, speed=1.0):
    """A worker's result as run.summarize reads it."""
    return {"jobs": jobs, "failed": failed, "failures": [], "wall_s": wall, "speed": speed,
            "latencies_ms": [1000.0 * wall / jobs] * jobs, "job_speeds": [speed] * jobs,
            "peak_rss_mib": 1.0, "memo": {}}


def failures_of(name, jobs, corrupt=None):
    workload = WORKLOADS[name]
    outs, _, raised, _, _ = worker.run_jobs(workload, jobs)
    if corrupt is not None:
        corrupt(jobs, outs)
    return worker.find_failures(workload, jobs, outs, raised, DEFAULT_SEED)


def test_seed_gives_the_same_job_list():
    for name, workload in WORKLOADS.items():
        first = [(j.key, j.kind) for j in workload.jobs(7)]
        again = [(j.key, j.kind) for j in workload.jobs(7)]
        assert first == again, name
    for name in ("numeric-sweep", "wlog-scan"):
        keys = [j.key for j in WORKLOADS[name].jobs(7)]
        assert keys != [j.key for j in WORKLOADS[name].jobs(8)], name
    fixed = WORKLOADS["symbolic-det"]
    assert [j.key for j in fixed.jobs(7)] == [j.key for j in fixed.jobs(8)]


def test_uncorrupted_outputs_pass():
    for name in WORKLOADS:
        assert failures_of(name, small_jobs(name)) == {}, name


def test_corrupted_output_counts_as_failure():
    def bump_determinant(jobs, outs):
        i = next(k for k, j in enumerate(jobs) if j.key == "det jordan=2 level=2")
        outs[i] = outs[i] + MultiPoly.const(1)

    def alter_cli_output(jobs, outs):
        i = next(k for k, j in enumerate(jobs) if j.kind == "singular" and j.args[1])
        code, text = outs[i]
        doc = json.loads(text)
        doc[0]["terms"][-1]["coeff"] = str(1 + int(doc[0]["terms"][-1]["coeff"].split("/")[0]))
        outs[i] = (code, json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def nonzero_cyclic_sum(jobs, outs):
        outs[0] = WLogElement.generator(0, 1)

    for name, corrupt in (("symbolic-det", bump_determinant),
                          ("numeric-sweep", alter_cli_output),
                          ("wlog-scan", nonzero_cyclic_sum)):
        jobs = small_jobs(name)
        found = failures_of(name, jobs, corrupt)
        assert len(found) == 1, (name, found)
        passes = [fake_pass(len(jobs), failed=len(found))]
        lines, result = run.summarize(name, DEFAULT_SEED, [(0.1, 1.0)], passes, [])
        assert result["failed"] == 1 and not result["correct"]
        assert any(line.startswith(f"error_rate {1 / len(jobs):.6g}") for line in lines)


def test_probe_time_is_left_out_of_job_times(monkeypatch):
    monkeypatch.setattr(pace, "INTERVAL_S", 0.002)
    workload, jobs = WORKLOADS["wlog-scan"], small_jobs("wlog-scan")
    with SpeedProbe() as probe:
        spent_before, start = probe.spent, time.perf_counter()
        _, latencies, raised, wall, speeds = worker.run_jobs(workload, jobs, probe=probe)
        elapsed, spent = time.perf_counter() - start, probe.spent - spent_before
    assert not raised and len(probe.samples) > 10
    assert sum(latencies) <= wall <= elapsed - spent + 1e-6
    assert wall >= elapsed - spent - 0.01
    assert len(speeds[0]) == len(jobs) and all(x > 0 for x in speeds[0]) and speeds[1] > 0


def test_host_speed_is_the_mean_speed_of_the_samples():
    probe = SpeedProbe()
    probe.samples = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, REFERENCE_S]
    assert math.isclose(probe.speed(), (1 + 0.5 + 0.25 + 1) / 4)
    # a stretch between samples 1 and 2 reads the one before and the one after
    assert math.isclose(probe.speed(2, 2), (0.5 + 0.25) / 2)


def test_times_are_stated_at_the_reference_speed():
    # the host ran at half the reference speed in the first pass, at it in the second
    slow = fake_pass(4, wall=4.0, speed=0.5)
    quick = fake_pass(4, wall=2.0, speed=1.0)
    setups = [(0.2, 0.5), (0.1, 1.0), (0.1, 1.0)]
    metrics = run.summarize("wlog-scan", DEFAULT_SEED, setups, [slow, quick], [])[1]["metrics"]
    assert math.isclose(metrics["wall_s"]["value"], 2.0)
    assert math.isclose(metrics["job_p50_ms"]["value"], 500.0)
    assert math.isclose(metrics["setup_s"]["value"], 0.1)


def test_traced_self_times_fit_in_wall_time():
    for name in WORKLOADS:
        workload, jobs = WORKLOADS[name], small_jobs(name)
        plain_outs = worker.run_jobs(workload, jobs)[0]
        tracer = Tracer()
        original_mul = MultiPoly.__mul__
        with tracer:
            assert MultiPoly.__mul__ is not original_mul
            start = time.perf_counter()
            outs, _, raised, _, _ = worker.run_jobs(workload, jobs, tracer)
            wall = time.perf_counter() - start
        assert MultiPoly.__mul__ is original_mul and MultiPoly.__rmul__ is original_mul
        assert not raised
        assert [workload.render(j, o) for j, o in zip(jobs, outs)] == [
            workload.render(j, o) for j, o in zip(jobs, plain_outs)
        ]
        summary = tracer.summary()
        assert summary["job"]["calls"] == len(jobs)
        assert 0 < sum(row["self_s"] for row in summary.values()) <= wall
        assert all(row["self_s"] >= -1e-9 for row in summary.values())


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wlog-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
