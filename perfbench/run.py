#!/usr/bin/env python3
"""Run one workload of the raagscope benchmark and print its metrics.

    python3 perfbench/run.py --workload census7 --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; raagscope is imported from ``src``.  The run
repeats whole rounds of the workload until its timed operations have taken
``--seconds`` CPU seconds (at least one round), checks every output, and
prints a reference line of raw figures, then one JSON result line.  With
``--trace 1`` it runs one untraced and one traced round instead and reports
the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
# Write byte code even where the environment says not to, so that the timed
# set-up processes load it as an installed package would, and do not compile
# raagscope from source.
sys.dont_write_bytecode = False

import layers  # noqa: E402
from checks import CheckFailed  # noqa: E402
from refclock import NOMINAL_KERNEL_S, ScaledClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh processes whose set-up is timed; setup_s is their median
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def setup(workload, seed: int):
    """What a user's process pays before its first operation: importing
    raagscope, building the built-in catalogue (with its transcription
    self-test) and decoding the inputs.  Returns the decoded inputs and the
    process's CPU seconds so far, less the benchmark's own input generation."""
    t0 = process_time()
    inputs = workload.make_inputs(seed)
    generation = process_time() - t0
    from raagscope import obstructions

    obstructions.builtin_catalog()
    decoded = workload.decode(inputs)
    return decoded, process_time() - generation


def probe_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """(raw, scaled) set-up seconds of one fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["raw"], out["raw"] * NOMINAL_KERNEL_S / out["reference"]


def _timed_ops(rnd):
    return [op for op in rnd.ops if op.scaled is not None]


def end_to_end(rounds, setups, rss_mb) -> tuple[dict, dict]:
    """(metrics, raw reference figures)."""
    items = [op for r in rounds for op in _timed_ops(r) if op.item]
    scaled = [op.scaled for op in items]
    raw = [op.raw for op in items]
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "cpu_s": (statistics.median(sum(op.scaled for op in _timed_ops(r)) for r in rounds), "s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(scaled, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    reference = {
        "raw_setup_s": statistics.median(r for r, _ in setups),
        "raw_cpu_s": statistics.median(sum(op.raw for op in _timed_ops(r)) for r in rounds),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_p90_ms": 1e3 * statistics.quantiles(raw, n=10)[8],
        "items": len(items),
        "rounds": len(rounds),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, reference


def per_layer(base, traced, tracer, clock, samples_before: int) -> dict:
    reference = statistics.median(clock.samples[samples_before:])
    scale = NOMINAL_KERNEL_S / reference
    out = {}
    for name in layers.layer_names():
        out[name + ".calls"] = (tracer.calls[name], "count")
        out[name + ".self_s"] = (tracer.self_s[name] * scale, "s")
    out[layers.STATES] = (tracer.calls[layers.STATES], "count")
    out[layers.SPLIT_YIELDS] = (tracer.calls[layers.SPLIT_YIELDS], "count")
    for phase in layers.PHASES:
        out["prover.phase.%s_s" % phase] = (clock.scale(base.phases[phase], reference), "s")
    base_cpu = sum(op.scaled for op in _timed_ops(base))
    traced_cpu = sum(op.scaled for op in _timed_ops(traced))
    out["trace.cpu_s"] = (traced_cpu, "s")
    out["trace.overhead_s"] = (traced_cpu - base_cpu, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        decoded, setup_raw = setup(workload, args.seed)
    except ImportError as exc:
        print("perfbench: cannot import raagscope from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    clock = ScaledClock()
    clock.warm()
    if args.setup_probe:
        print(json.dumps({"raw": setup_raw, "reference": clock.reference()}))
        return 0

    if args.trace:
        base = workload.run(clock, decoded)
        tracer = layers.Tracer()
        samples_before = len(clock.samples)
        tracer.install()
        try:
            traced = workload.run(clock, decoded)
        finally:
            tracer.uninstall()
        rounds = [base, traced]
    else:
        setups = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
        rounds = []
        spent = 0.0
        while not rounds or spent < args.seconds:
            rounds.append(workload.run(clock, decoded))
            spent += sum(op.raw for op in rounds[-1].ops)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    correct = True
    info = {}
    try:
        for rnd in rounds:
            info = workload.check(decoded, rnd)
    except CheckFailed as exc:
        print("perfbench: check failed: %s" % exc, file=sys.stderr)
        correct = False

    if args.trace:
        metrics = per_layer(base, traced, tracer, clock, samples_before)
        reference = {"rounds": 2}
    else:
        metrics, reference = end_to_end(rounds, setups, rss_mb)
    reference.update(info, kernel_ms=1e3 * statistics.median(clock.samples),
                     workload=workload.name, seed=args.seed)
    print(json.dumps({"reference": reference}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(r.ops) for r in rounds),
        "failed": sum(op.failed for r in rounds for op in r.ops),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
