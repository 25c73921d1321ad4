"""Check a round's outputs; attribute failures to the known program faults.

The references are computed here, apart from the timed phase: gradient
bytes from the model specs, scalar aggregate-tier points for every sweep,
and ``simulate_synchronous_sgd`` on the trainer's own batches.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.parallel import simulate_synchronous_sgd
from repro.simulation import fluid
from repro.simulation.workload import build_workload

from perfbench import checks
from perfbench.workloads import (
    TRAIN_ITERATIONS,
    TRAIN_WORKERS,
    SimTask,
    TrainTask,
    Workload,
)

#: Known program faults, by name.  An operation whose every failure is
#: explained by known faults counts as failed under each of them.
HIERPS_FAULT = "fluid-hierps-traffic"
HIERPS_NIC_FAULT = "fluid-hierps-racked-nic"
SWEEP_FAULT = "fluid-sweep-phase-order"
STALENESS_FAULT = "des-racked-staleness-order"
GPT_BYTES_FAULT = "gpt-float64-gradients"
FAULTS = {
    HIERPS_FAULT: (
        "the fluid engine's hierarchical-PS per-node traffic is below the "
        "4*S*(P-1)/P floor of any two-level tree"),
    HIERPS_NIC_FAULT: (
        "on racked clusters the fluid engine's hierarchical-PS iteration is "
        "shorter than the time the busiest node's NIC needs for its bytes"),
    SWEEP_FAULT: (
        "sweep_axis orders the phase heap by the first axis element only, "
        "so at other bandwidths it differs from the scalar aggregate-tier "
        "point (src/repro/simulation/fluid.py, FluidSimulator._at)"),
    STALENESS_FAULT: (
        "on racked clusters the DES throughput falls along "
        "ssp(1) -> ssp(2) -> ssp(4) -> async for some bandwidths"),
    GPT_BYTES_FAULT: (
        "MultiHeadAttention.forward scales scores by a NumPy float64 scalar, "
        "so the GPT's gradients after the first attention are float64 and "
        "ps and ring send more than 4 bytes per parameter "
        "(src/repro/nn/layers/attention.py)"),
}


def _fault_explaining(task, check: str) -> Optional[str]:
    """The known fault that makes ``check`` fail on ``task``, if any."""
    if isinstance(task, TrainTask):
        if task.model == "gpt" and check in ("ps_bytes", "ring_bytes"):
            return GPT_BYTES_FAULT
        return None
    if task.engine == "des":
        if not task.flat and task.family >= 0 and check == "staleness_monotone":
            return STALENESS_FAULT
        return None
    if task.is_sweep:
        return SWEEP_FAULT if check == "sweep_matches_scalar" else None
    if task.preset == "Hierarchical-PS":
        if check == "hierps_traffic_floor":
            return HIERPS_FAULT
        if check == "nic_bound" and not task.flat:
            return HIERPS_NIC_FAULT
    return None


def faults_of(task, failures: List[str]) -> Optional[List[str]]:
    """The known faults that explain every failure of ``task``, or None
    when some failure is not explained by a known fault."""
    faults = set()
    for check in {failure.split(":", 1)[0] for failure in failures}:
        fault = _fault_explaining(task, check)
        if fault is None:
            return None
        faults.add(fault)
    return sorted(faults)


def scalar_sweep(workload: Workload, task: SimTask) -> List[float]:
    """The scalar aggregate-tier iteration time at each axis bandwidth."""
    spec = workload.specs[task.model]
    system = task.system()
    work = build_workload(spec, gpu=task.cluster().gpu)
    return [float(fluid.FluidSimulator(work, task.cluster(bw), system,
                                       mode="aggregate").iteration_seconds())
            for bw in task.bandwidths]


def serial_losses(workload: Workload, model: str) -> List[float]:
    train = workload.train_models[model]
    return simulate_synchronous_sgd(train.factory(), train.provider,
                                    TRAIN_WORKERS, TRAIN_ITERATIONS,
                                    train.config)


def check_round(workload: Workload, outputs: list) -> List[List[str]]:
    """Failure messages of each task of one round (empty lists pass)."""
    tasks = workload.tasks
    failures: List[List[str]] = [[] for _ in tasks]
    families: Dict[int, Dict[str, int]] = defaultdict(dict)
    serial: Dict[str, List[float]] = {}
    for index, (task, out) in enumerate(zip(tasks, outputs)):
        if isinstance(task, TrainTask):
            if task.model not in serial:
                serial[task.model] = serial_losses(workload, task.model)
            replica = workload.train_models[task.model].factory()
            params = sum(int(array.size) for layer in replica.get_state().values()
                         for array in layer.values())
            failures[index] = checks.check_train(
                task.mode, TRAIN_WORKERS, TRAIN_ITERATIONS, params, out,
                serial[task.model])
        elif task.is_sweep:
            scalars = scalar_sweep(workload, task) if task.nodes > 128 else None
            failures[index] = checks.check_sweep(out, scalars)
        else:
            S = checks.gradient_bytes(workload.specs[task.model])
            failures[index] = checks.check_point(
                task.preset, task.policy, task.flat, task.nodes, S,
                task.cluster(), out)
            if task.family >= 0:
                families[task.family][task.policy] = index
    for members in families.values():
        family_failures = checks.check_family(
            {policy: outputs[index] for policy, index in members.items()})
        for policy, messages in family_failures.items():
            failures[members[policy]].extend(messages)
    return failures
