"""Output checks: closed forms and properties, never stored outputs.

Every check returns a list of failure messages (empty when it passes).
Each message starts with the check's name.  ``S`` is a model's gradient
bytes, 4 bytes per parameter summed over the layer records of its spec.
Per-node traffic is bytes sent plus bytes received per iteration.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

#: Presets whose per-node traffic on a flat network is a dense gradient
#: exchanged once each way, 4*S*(P-1)/P.
DENSE_PRESETS = ("Caffe+PS", "Caffe+WFBP", "TF", "TF+WFBP", "Ring-AllReduce")

#: 1-bit quantization shrinks the dense payload 32x (float32 -> 1 bit).
ONEBIT_FACTOR = 32.0

#: Absolute slack on a summed traffic figure, in bytes.  Float sums over
#: thousands of nodes stay far below it; one byte off does not.
BYTE_SLACK = 0.5

#: Relative slack of comparisons between two float results of the program.
REL_SLACK = 1e-12


def gradient_bytes(spec) -> int:
    """S: 4 bytes per parameter over the layer records of a ModelSpec."""
    return 4 * sum(layer.param_count for layer in spec.layers)


def nic_bytes_per_second(cluster) -> float:
    """Application goodput of one NIC direction, from the cluster's fields."""
    return cluster.bandwidth_gbps * 1e9 * cluster.network_efficiency / 8.0


def _close(a: float, b: float, rel: float = REL_SLACK) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_point(preset: str, policy: str, flat: bool, nodes: int, S: int,
                cluster, out: Dict) -> List[str]:
    """Checks of one simulated point (DES or fluid)."""
    failures = []
    iteration = out["iteration_seconds"]
    if not iteration >= out["compute_seconds"]:
        failures.append(f"iteration_ge_compute: {iteration} < "
                        f"{out['compute_seconds']}")
    floor = out["traffic_max"] / (2.0 * nic_bytes_per_second(cluster))
    if not iteration >= floor:
        failures.append(f"nic_bound: iteration {iteration} s < busiest node "
                        f"bytes / (2 * NIC) = {floor} s")
    if not out["speedup"] <= nodes:
        failures.append(f"speedup_le_p: speedup {out['speedup']} > P={nodes}")
    if out["traffic_nodes"] != nodes:
        failures.append(f"traffic_nodes: {out['traffic_nodes']} nodes "
                        f"reported for P={nodes}")
    dense_total = 4.0 * S * (nodes - 1)
    total = out["traffic_total"]
    syncs_every_round = not policy.startswith("local_sgd") or policy.endswith("(1)")
    if flat and syncs_every_round and preset in DENSE_PRESETS:
        if abs(total - dense_total) > BYTE_SLACK:
            failures.append(f"dense_traffic: total {total!r} B != "
                            f"4*S*(P-1) = {dense_total!r} B")
    if flat and syncs_every_round and preset == "CNTK-1bit":
        if abs(total - dense_total / ONEBIT_FACTOR) > BYTE_SLACK:
            failures.append(f"onebit_traffic: total {total!r} B != "
                            f"4*S*(P-1)/32 = {dense_total / ONEBIT_FACTOR!r} B")
    if preset == "Hierarchical-PS" and nodes > 1:
        mean = total / nodes
        low, high = dense_total / nodes, 4.0 * S
        if not low - BYTE_SLACK <= mean <= high + BYTE_SLACK:
            failures.append(f"hierps_traffic_floor: mean {mean:.6g} B not in "
                            f"[4*S*(P-1)/P, 4*S] = [{low:.6g}, {high:.6g}] B")
    return failures


def check_family(outputs: Dict[str, Dict]) -> Dict[str, List[str]]:
    """Cross-policy checks of one des_policy family, keyed by policy.

    ``outputs`` maps each policy of the family to its point output; the
    failures are charged to the policy compared against ``bsp``.
    """
    bsp = outputs["bsp"]
    failures: Dict[str, List[str]] = {policy: [] for policy in outputs}
    for policy in ("ssp(0)", "local_sgd(1)"):
        out = outputs[policy]
        if (out["iteration_seconds"] != bsp["iteration_seconds"]
                or out["traffic"] != bsp["traffic"]):
            failures[policy].append(
                f"bsp_equivalent: {policy} differs from bsp "
                f"({out['iteration_seconds']!r} vs {bsp['iteration_seconds']!r} s)")
    chain = ("bsp", "ssp(1)", "ssp(2)", "ssp(4)", "async")
    for before, after in zip(chain, chain[1:]):
        low, high = outputs[before]["throughput"], outputs[after]["throughput"]
        if high < low * (1.0 - REL_SLACK):
            failures[after].append(
                f"staleness_monotone: {after} throughput {high!r} < "
                f"{before} {low!r}")
    for policy, out in outputs.items():
        if not policy.startswith("local_sgd"):
            continue
        period = int(policy[len("local_sgd("):-1])
        for node, (got, base) in enumerate(zip(out["traffic"], bsp["traffic"])):
            if abs(got - base / period) > BYTE_SLACK:
                failures[policy].append(
                    f"local_sgd_traffic: node {node} {got!r} B != "
                    f"bsp/{period} = {base / period!r} B")
                break
    return failures


def check_sweep(values: Sequence[float], scalars: Optional[Sequence[float]]
                ) -> List[str]:
    """A sweep along ascending bandwidths: non-increasing iteration time,
    equal to the scalar aggregate-tier point at each bandwidth (``scalars``
    is None at 128 nodes or fewer, where the scalar engine is the detail
    tier)."""
    failures = []
    for index, (a, b) in enumerate(zip(values, values[1:])):
        if b > a * (1.0 + REL_SLACK):
            failures.append(f"sweep_monotone: {b!r} s at axis index "
                            f"{index + 1} > {a!r} s before it")
            break
    if scalars is not None:
        for index, (got, want) in enumerate(zip(values, scalars)):
            if not _close(got, want, 1e-9):
                failures.append(f"sweep_matches_scalar: axis index {index} "
                                f"{got!r} s != scalar {want!r} s")
                break
    return failures


def check_train(mode: str, workers: int, iterations: int, params: int,
                out: Dict, serial: Sequence[float]) -> List[str]:
    """A trainer run: losses against the serial emulation (exact modes),
    wire bytes against closed forms (ps, ring), a falling 1-bit loss."""
    failures = []
    losses = out["losses"]
    if len(losses) != iterations or not all(map(math.isfinite, losses)):
        return [f"finite_losses: {len(losses)} losses, finite: "
                f"{all(map(math.isfinite, losses))}"]
    if mode in ("hybrid", "ps", "ring"):
        for step, (got, want) in enumerate(zip(losses, serial)):
            if abs(got - want) > 1e-6 + 1e-5 * abs(want):
                failures.append(f"losses_match_serial: iteration {step} "
                                f"loss {got!r} != serial {want!r}")
                break
    total = out["bytes_sent"] + out["bytes_received"]
    dense = 4 * params
    if mode == "ps":
        want = 2 * workers * dense * iterations
        if total != want:
            failures.append(f"ps_bytes: {total} B != 2*P*4*params*T = {want} B")
    if mode == "ring":
        want = 4 * dense * (workers - 1) * iterations
        if total != want:
            failures.append(f"ring_bytes: {total} B != "
                            f"4*P*4*params*(P-1)/P*T = {want} B")
    if mode == "onebit":
        quarter = max(1, iterations // 4)
        first = sum(losses[:quarter]) / quarter
        last = sum(losses[-quarter:]) / quarter
        if not last < first:
            failures.append(f"onebit_falls: last-quarter mean loss {last!r} "
                            f">= first-quarter mean {first!r}")
    return failures
