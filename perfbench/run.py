"""End-to-end benchmark of the Poseidon reproduction: DES, fluid engine, trainer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload des_bsp --seed 1 --seconds 12 --trace 0

Workloads: des_bsp, des_policy, fluid_scale, train (see README.md).  The
run sets up its workload, then executes whole rounds of the workload's
seeded task list until ``--seconds`` have passed, checks every output of
the first round against closed forms and every later round against the
first, and prints diagnostics followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; ``--trace 1``
runs the traced variant of ``perfbench/tracing.py`` and prints the
per-layer metrics instead.  The process exits with a non-zero code, and
prints no result, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up samples per run; setup_s is their median.
SETUP_SAMPLES = 5

#: Seconds a child may take, after its first line, before it is killed.
CHILD_TIMEOUT = 120.0


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("des_bsp", "des_policy", "fluid_scale", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def spawn(workload: str, seed: int, role: str) -> Tuple[float, List[str]]:
    """Run this file as a ``--child`` in a fresh interpreter; returns the
    seconds from the spawn to its first line of output, and its lines."""
    command = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(seed), "--seconds", "0",
               "--child", role]
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                             text=True)
    try:
        first = child.stdout.readline()
        elapsed = time.perf_counter() - start
        lines = [first] + child.stdout.readlines()
        child.wait(timeout=CHILD_TIMEOUT)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"{role} child failed (exit {child.returncode})")
    return elapsed, [line.strip() for line in lines]


def measure_setup(workload: str, seed: int) -> Dict[str, float]:
    """Median seconds from spawning a fresh interpreter that runs this
    workload's set-up to its report that the set-up is done, calibrated by
    the probes taken around the spawns."""
    from perfbench.measure import REFERENCE_PROBE_S, probe

    raw, probes = [], []
    for _ in range(SETUP_SAMPLES):
        before = probe()
        raw.append(spawn(workload, seed, "setup")[0])
        probes += [before, probe()]
    scale = REFERENCE_PROBE_S / statistics.median(probes)
    return {"setup_s": scale * statistics.median(raw),
            "setup_s_raw": statistics.median(raw)}


def measure_rss(workload: str, seed: int) -> float:
    """Peak resident memory (MiB) of a fresh interpreter that sets the
    workload up and runs one round, without the probe and its arena."""
    return float(spawn(workload, seed, "rss")[1][-1])


def run_rounds(workload, seconds: float, timeline):
    """Execute whole rounds until ``seconds`` have passed.

    Returns the first round's outputs, the number of rounds and the indices
    of tasks whose later-round output differed from the first.
    """
    first: list = []
    unstable = set()
    rounds = 0
    start = time.perf_counter()
    timeline.start()
    while True:
        for index in range(len(workload.tasks)):
            output, raw = workload.run(index)
            timeline.record(raw)
            if rounds == 0:
                first.append(output)
            elif output != first[index]:
                unstable.add(index)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return first, rounds, unstable


def summarize(workload, first, rounds, unstable):
    """Correctness: (correct, attempted, failed, per-fault failed counts,
    unexpected failure messages)."""
    from perfbench.verify import check_round, faults_of

    failures = check_round(workload, first)
    for index in unstable:
        failures[index].append("repeatable: a later round's output differed "
                               "from the first round's")
    by_fault: Dict[str, int] = {}
    unexpected: List[str] = []
    failed = 0
    for task, messages in zip(workload.tasks, failures):
        if not messages:
            continue
        failed += task.ops * rounds
        faults = faults_of(task, messages)
        if faults is None:
            unexpected.extend(f"{task.label}: {m}" for m in messages)
        for fault in faults or ():
            by_fault[fault] = by_fault.get(fault, 0) + task.ops * rounds
    attempted = workload.ops_per_round * rounds
    return not unexpected, attempted, failed, by_fault, unexpected


def untraced(args) -> int:
    from perfbench import measure
    from perfbench.verify import FAULTS
    from perfbench.workloads import set_up

    steal_start = measure.steal_ticks()
    workload = set_up(args.workload, args.seed)
    timeline = measure.Timeline(workload.ops_per_round)
    first, rounds, unstable = run_rounds(workload, args.seconds, timeline)
    correct, attempted, failed, by_fault, unexpected = summarize(
        workload, first, rounds, unstable)
    setup = measure_setup(args.workload, args.seed)
    rss = measure_rss(args.workload, args.seed)
    steal_end = measure.steal_ticks()

    metrics = measure.latency_metrics(timeline.op_seconds)
    raw = measure.latency_metrics(timeline.raw_seconds)
    for name, count in sorted(by_fault.items()):
        print(f"failed under known fault {name}: {count} of {attempted} "
              f"operations -- {FAULTS[name]}")
    for message in unexpected[:20]:
        print(f"UNEXPECTED FAILURE {message}")
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds,
        "ops_per_round": workload.ops_per_round,
        "raw": {**{k: round(v, 6) for k, v in raw.items()},
                "setup_s": round(setup["setup_s_raw"], 6)},
        "probe_ms": {"median": 1e3 * statistics.median(timeline.probes),
                     "min": 1e3 * min(timeline.probes),
                     "max": 1e3 * max(timeline.probes),
                     "count": len(timeline.probes)},
        "steal_ticks": (None if steal_start is None or steal_end is None
                        else steal_end - steal_start),
        "failed_by_fault": by_fault,
    }
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    values = {
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (metrics["ops_per_s"], "1/s"),
        "latency_p50_ms": (metrics["latency_p50_ms"], "ms"),
        "latency_p90_ms": (metrics["latency_p90_ms"], "ms"),
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.child:
        from perfbench.measure import peak_rss_mb
        from perfbench.workloads import set_up

        workload = set_up(args.workload, args.seed)
        print("ready", flush=True)
        if args.child == "rss":
            for index in range(len(workload.tasks)):
                workload.run(index)
            print(peak_rss_mb())
        return 0
    if args.trace:
        from perfbench.tracing import traced

        return traced(args)
    return untraced(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
