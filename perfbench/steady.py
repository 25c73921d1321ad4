"""Steadiness command: repeated runs of every workload, summarized.

    python3 perfbench/steady.py [--runs 10] [--workloads des_bsp,train]

Runs ``perfbench/run.py`` for ``run_seconds`` of BENCHMARK.json, ``--runs``
times in each of two sets on each workload, every run with its own seed
(from 1 up), alternating the sets run by run.  For each
end-to-end metric it prints every set's median and quartiles, the
inter-quartile spread as a share of the median, the metric's bound from
BENCHMARK.json, and the worsening of each later set's median against the
first set's.  It also prints the host-noise diagnostics of the runs (probe
times, steal ticks, raw uncalibrated figures) and the failed share of
each set, which must be identical.  Exits non-zero when a spread (other
than setup_s) exceeds its bound, when a median worsens by more than its
bound, or when the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Sets of runs compared; the second set's medians are checked against the
#: first's.
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("diagnostics "):
            result["diagnostics"] = json.loads(line[len("diagnostics "):])
    return result


def worse(metric: Dict, base: float, value: float) -> float:
    """Share by which ``value`` is worse than ``base`` (negative: better)."""
    if metric["better"] == "lower":
        return (value - base) / base
    return (base - value) / base


def summarize(spec: Dict, runs: Dict[str, List[List[Dict]]]) -> bool:
    ok = True
    for workload, sets in runs.items():
        print(f"\n== {workload}")
        shares = {r["failed"] / r["attempted"] for runs_ in sets for r in runs_}
        print(f"failed share per run: {sorted(shares)}")
        if len(shares) != 1:
            ok = False
            print("  FAIL: the failed share differs between runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            medians = []
            for index, runs_ in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs_]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                flag = ""
                if name != "setup_s" and spread > metric["bound"]:
                    ok, flag = False, "  FAIL spread"
                elif name != "setup_s" and spread > metric["bound"] / 3:
                    flag = "  (spread above a third of the bound)"
                print(f"  {name:15s} set {index}: median {q2:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3%} "
                      f"bound {metric['bound']:.0%}{flag}")
            for index, median in enumerate(medians[1:], start=1):
                change = worse(metric, medians[0], median)
                flag = "  FAIL median" if change > metric["bound"] else ""
                print(f"  {name:15s} set {index} vs set 0: worse by "
                      f"{change:+.3%}{flag}")
                ok = ok and change <= metric["bound"]
        probes = [r["diagnostics"]["probe_ms"]["median"]
                  for runs_ in sets for r in runs_]
        steal = [r["diagnostics"]["steal_ticks"] for runs_ in sets for r in runs_]
        print(f"  noise: probe median ms per run {min(probes):.4f}-"
              f"{max(probes):.4f}; steal ticks per run {min(steal)}-{max(steal)}")
        for name in ("ops_per_s", "latency_p50_ms", "setup_s"):
            raw = [r["diagnostics"]["raw"][name] for runs_ in sets for r in runs_]
            q1, q2, q3 = statistics.quantiles(raw, n=4)
            print(f"  raw {name:15s} median {q2:.6g} spread {(q3 - q1) / q2:.3%}"
                  f" range {min(raw):.6g}-{max(raw):.6g}")
    return ok


def main(argv: List[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    runs: Dict[str, List[List[Dict]]] = {
        w: [[] for _ in range(SETS)] for w in workloads}
    seed = 1
    for _ in range(args.runs):
        for workload in workloads:
            for index in range(SETS):
                result = run_once(workload, seed, spec["run_seconds"])
                runs[workload][index].append(result)
                print(f"{workload} set {index} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.5g}"
                                 for k, v in result["metrics"].items()),
                      flush=True)
                seed += 1
    return 0 if summarize(spec, runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
