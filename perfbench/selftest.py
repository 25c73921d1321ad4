"""Self-test of the benchmark's checks: each must reject a perturbed output.

    python3 perfbench/selftest.py

Takes real outputs of cheap program calls, asserts that every check passes
on them, then perturbs each output just enough to break one property (one
byte off, a speedup of P+1, one ulp of difference, ...) and asserts that
the check named for that property fails.  A check that cannot fail is
caught here.  Exits non-zero if any expectation is not met.
"""

from __future__ import annotations

import copy
import math
import os
import sys
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.simulation import throughput  # noqa: E402

from perfbench import checks, verify  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    POLICIES,
    SWEEP_AXIS,
    TRAIN_ITERATIONS,
    TRAIN_WORKERS,
    SimTask,
    TrainTask,
    point_output,
    set_up,
)

RESULTS: List[str] = []
FAILURES: List[str] = []


def expect(name: str, failures: List[str], should_fail: bool) -> None:
    names = {failure.split(":", 1)[0] for failure in failures}
    ok = (name in names) if should_fail else not failures
    label = f"{name} {'rejects perturbed' if should_fail else 'accepts real'}"
    RESULTS.append(("ok   " if ok else "FAIL ") + label)
    if not ok:
        FAILURES.append(f"{label}: {failures}")


def point(workload, task: SimTask) -> Dict:
    result = throughput.simulate_system(workload.specs[task.model],
                                        task.system(), task.cluster(),
                                        engine=task.engine)
    return point_output(result, keep_nodes=True)


def point_checks(workload) -> None:
    S = checks.gradient_bytes(workload.specs["googlenet"])
    cases = {
        "Caffe+PS": ["iteration_ge_compute", "nic_bound", "speedup_le_p",
                     "traffic_nodes", "dense_traffic"],
        "CNTK-1bit": ["onebit_traffic"],
        "Hierarchical-PS": ["hierps_traffic_floor"],
    }
    for preset, names in cases.items():
        task = SimTask("googlenet", preset, 8, 1, 10.0, "des")
        out = point(workload, task)

        def run(candidate: Dict) -> List[str]:
            return checks.check_point(preset, "bsp", True, 8, S,
                                      task.cluster(), candidate)

        expect(f"check_point[{preset}]", run(out), should_fail=False)
        nic = checks.nic_bytes_per_second(task.cluster())
        perturb: Dict[str, Callable[[Dict], None]] = {
            "iteration_ge_compute": lambda o: o.update(
                iteration_seconds=o["compute_seconds"] * 0.999),
            "nic_bound": lambda o: o.update(
                traffic_max=o["iteration_seconds"] * 2 * nic * 1.001),
            "speedup_le_p": lambda o: o.update(speedup=8 + 1),
            "traffic_nodes": lambda o: o.update(traffic_nodes=7),
            "dense_traffic": lambda o: o.update(
                traffic_total=o["traffic_total"] + 1),
            "onebit_traffic": lambda o: o.update(
                traffic_total=o["traffic_total"] + 1),
            "hierps_traffic_floor": lambda o: o.update(
                traffic_total=4.0 * S * 7 - 8),
        }
        for name in names:
            bad = copy.deepcopy(out)
            perturb[name](bad)
            expect(name, run(bad), should_fail=True)


def family_checks(workload) -> None:
    outputs = {policy: point(workload, SimTask(
        "googlenet", "Caffe+WFBP", 8, 1, 10.0, "des", policy=policy))
        for policy in POLICIES}
    expect("check_family", sum(checks.check_family(outputs).values(), []),
           should_fail=False)
    perturb = {
        "bsp_equivalent": lambda o: o["ssp(0)"].update(
            iteration_seconds=math.nextafter(
                o["ssp(0)"]["iteration_seconds"], math.inf)),
        "staleness_monotone": lambda o: o["async"].update(
            throughput=o["ssp(4)"]["throughput"] * (1 - 1e-9)),
        "local_sgd_traffic": lambda o: o["local_sgd(2)"].update(
            traffic=(o["local_sgd(2)"]["traffic"][0] + 1,)
            + o["local_sgd(2)"]["traffic"][1:]),
    }
    for name, change in perturb.items():
        bad = copy.deepcopy(outputs)
        change(bad)
        expect(name, sum(checks.check_family(bad).values(), []),
               should_fail=True)


def sweep_checks(workload) -> None:
    task = SimTask("googlenet", "Caffe+PS", 10000, 1, 10.0, "fluid",
                   bandwidths=SWEEP_AXIS[:3])
    workload.tasks = [task]
    values, _ = workload.run(0)
    scalars = verify.scalar_sweep(workload, task)
    expect("check_sweep", checks.check_sweep(values, scalars), False)
    rising = list(values)
    rising[2] = rising[1] * 1.001
    expect("sweep_monotone", checks.check_sweep(rising, None), True)
    off = list(values)
    off[1] *= 1 + 1e-6
    expect("sweep_matches_scalar", checks.check_sweep(off, scalars), True)


def train_checks() -> None:
    workload = set_up("train", 1)
    serial = verify.serial_losses(workload, "cnn")
    params = sum(int(a.size) for layer in
                 workload.train_models["cnn"].factory().get_state().values()
                 for a in layer.values())
    outputs = {}
    for index, task in enumerate(workload.tasks):
        if task.model == "cnn":
            outputs[task.mode], _ = workload.run(index)

    def run(mode: str, out: Dict) -> List[str]:
        return checks.check_train(mode, TRAIN_WORKERS, TRAIN_ITERATIONS,
                                  params, out, serial)

    for mode, out in outputs.items():
        expect(f"check_train[{mode}]", run(mode, out), should_fail=False)
    nan = copy.deepcopy(outputs["ps"])
    nan["losses"] = nan["losses"][:3] + (math.nan,) + nan["losses"][4:]
    expect("finite_losses", run("ps", nan), True)
    drift = copy.deepcopy(outputs["hybrid"])
    drift["losses"] = drift["losses"][:5] + (drift["losses"][5] + 1e-3,) \
        + drift["losses"][6:]
    expect("losses_match_serial", run("hybrid", drift), True)
    extra = copy.deepcopy(outputs["ps"])
    extra["bytes_sent"] += 1
    expect("ps_bytes", run("ps", extra), True)
    extra = copy.deepcopy(outputs["ring"])
    extra["bytes_received"] += 1
    expect("ring_bytes", run("ring", extra), True)
    rising = copy.deepcopy(outputs["onebit"])
    rising["losses"] = tuple(reversed(rising["losses"]))
    expect("onebit_falls", run("onebit", rising), True)


def fault_attribution() -> None:
    hierps = SimTask("vgg19", "Hierarchical-PS", 1024, 1, 10.0, "fluid")
    racked = SimTask("vgg19", "Hierarchical-PS", 4096, 16, 10.0, "fluid")
    des = SimTask("vgg19", "Hierarchical-PS", 8, 1, 10.0, "des")
    sweep = SimTask("vgg19", "TF", 10000, 1, 10.0, "fluid",
                    bandwidths=SWEEP_AXIS)
    policy = SimTask("vgg19", "Caffe+WFBP", 8, 2, 1.0, "des",
                     policy="ssp(2)", family=0)
    flat_policy = SimTask("vgg19", "Caffe+WFBP", 8, 1, 1.0, "des",
                          policy="ssp(2)", family=0)
    cases = [
        ("faults_of[fluid hierps]", hierps, ["hierps_traffic_floor: x"],
         [verify.HIERPS_FAULT]),
        ("faults_of[fluid hierps + other check]", hierps,
         ["hierps_traffic_floor: x", "speedup_le_p: x"], None),
        ("faults_of[racked fluid hierps, both]", racked,
         ["hierps_traffic_floor: x", "nic_bound: x"],
         sorted([verify.HIERPS_FAULT, verify.HIERPS_NIC_FAULT])),
        ("faults_of[racked fluid hierps, nic only]", racked,
         ["nic_bound: x"], [verify.HIERPS_NIC_FAULT]),
        ("faults_of[flat fluid hierps, nic only]", hierps,
         ["nic_bound: x"], None),
        ("faults_of[des hierps]", des, ["hierps_traffic_floor: x"], None),
        ("faults_of[sweep]", sweep, ["sweep_matches_scalar: x"],
         [verify.SWEEP_FAULT]),
        ("faults_of[sweep monotone]", sweep, ["sweep_monotone: x"], None),
        ("faults_of[racked policy]", policy, ["staleness_monotone: x"],
         [verify.STALENESS_FAULT]),
        ("faults_of[flat policy]", flat_policy, ["staleness_monotone: x"],
         None),
        ("faults_of[racked policy, traffic]", policy,
         ["local_sgd_traffic: x"], None),
        ("faults_of[train cnn]", TrainTask("cnn", "ps"), ["ps_bytes: x"],
         None),
        ("faults_of[train gpt]", TrainTask("gpt", "ring"),
         ["ring_bytes: x"], [verify.GPT_BYTES_FAULT]),
        ("faults_of[train gpt losses]", TrainTask("gpt", "ps"),
         ["losses_match_serial: x"], None),
    ]
    for label, task, failures, want in cases:
        got = verify.faults_of(task, failures)
        ok = got == want
        RESULTS.append(("ok   " if ok else "FAIL ") + label)
        if not ok:
            FAILURES.append(f"{label}: got {got}, want {want}")


def main() -> int:
    workload = set_up("des_bsp", 1)
    point_checks(workload)
    family_checks(workload)
    sweep_checks(workload)
    train_checks()
    fault_attribution()
    print("\n".join(RESULTS))
    if FAILURES:
        print(f"{len(FAILURES)} expectation(s) not met:\n" + "\n".join(FAILURES))
        return 1
    print(f"all {len(RESULTS)} expectations met")
    return 0


if __name__ == "__main__":
    sys.exit(main())
