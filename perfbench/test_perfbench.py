"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q

They take about a minute: each workload runs once, and words also twice
traced.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from refclock import ScaledClock, kernel_seconds  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
# failed operations per round: the three fixed cyclic_normal_form pairs
FAILED_PER_ROUND = {"census7": 0, "desk": 0, "words": 3}


def _busy(reps: int) -> int:
    # a synthetic operation, unlike the kernel: string and list work
    acc = 0
    for i in range(reps):
        parts = [str(i * k) for k in range(20)]
        acc += len("".join(parts))
    return acc


def test_twice_the_work_reads_twice_in_scaled_units():
    clock = ScaledClock()
    clock.warm()
    ratios = []
    for _ in range(15):
        _, _, one = clock.time(_busy, 2000)
        _, _, two = clock.time(_busy, 4000)
        ratios.append(two / one)
    assert statistics.median(ratios) == pytest.approx(2.0, rel=0.10)


def test_large_heap_does_not_shift_the_kernel():
    def reference() -> float:
        return statistics.median(kernel_seconds() for _ in range(25))

    readings = {"bare": [], "heap": []}
    heap = None
    for _ in range(3):
        readings["bare"].append(reference())
        heap = [(i, [i], {i: str(i)}) for i in range(300_000)]
        readings["heap"].append(reference())
        heap = None
    del heap
    bare = statistics.median(readings["bare"])
    loaded = statistics.median(readings["heap"])
    assert abs(loaded - bare) / bare <= BOUND["cpu_s"]


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result, reference figures) of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stderr
    reference, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(result), json.loads(reference)["reference"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_small_seed_run_finishes_and_passes_its_checks(workload):
    out, ref = _run(workload, 0)
    assert out["correct"] is True
    assert ref["items"] >= 100 * ref["rounds"]
    assert out["failed"] == FAILED_PER_ROUND[workload] * ref["rounds"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    (first, _), (second, _) = _run("words", 1), _run("words", 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts and all(first["metrics"][k] == second["metrics"][k] for k in counts)
    assert first["metrics"]["words.normal_form.calls"]["value"] > 0


def test_layer_names_match_the_spec():
    traced = set(layers.layer_names())
    named = {m["name"].rsplit(".", 1)[0] for m in SPEC["per_layer"]
             if m["name"].endswith(".self_s")}
    assert traced == named
