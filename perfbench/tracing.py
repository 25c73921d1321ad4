"""Traced run: per-layer metrics from spans around calls into each layer.

The spans come from this file only: for the traced phase it replaces the
program's public entry points (module functions, simulator classes,
substrate methods) with wrappers that time each call, and restores them
afterwards.  The program's code is not changed.

One traced run, for the workload named on the command line:

1. sets the workload up, timing ``build_workload`` on the first call per
   model;
2. runs whole rounds for half of ``--seconds`` untraced, then whole rounds
   for the other half traced; the tracing overhead compares the two;
3. runs a fixed slice of each other workload traced (the googlenet tasks
   of a simulator workload, one round of ``train``), so every per-layer
   metric is measured in every traced run;
4. times ``Network.forward``/``backward`` on standalone replicas;
5. runs cProfile over one untraced round of a simulator workload (over the
   googlenet slices of the three simulator workloads when the workload is
   ``train``) and reports self time per operation by package.

Time metrics are calibrated with the run's median reference probe (see
measure.py); ``_ms`` metrics are means per call.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Set

from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.quantization import OneBitQuantizer
from repro.comm.ring import RingAllReducer
from repro.comm.sfb import SufficientFactorBroadcaster
from repro.core.syncer import Syncer
from repro.core.wfbp import WFBPScheduler
from repro.simulation import fluid, throughput
from repro.simulation.fluid import DETAIL_NODE_MAX

from perfbench import measure, workloads
from perfbench.workloads import WORKLOADS, TrainTask, set_up

#: Packages whose cProfile self time is reported.
PROFILED_PACKAGES = ("sim", "cluster", "comm", "simulation", "core")

#: Standalone forward/backward repetitions per trainer model.
NN_REPEATS = 20

#: (owner class, method, metric) of every trainer-side span.
METHOD_SPANS = (
    (ShardedParameterServer, "push", "comm.parameter_server.push_ms"),
    (ShardedParameterServer, "pull", "comm.parameter_server.pull_ms"),
    (SufficientFactorBroadcaster, "publish", "comm.sfb.publish_ms"),
    (SufficientFactorBroadcaster, "collect", "comm.sfb.collect_ms"),
    (RingAllReducer, "allreduce", "comm.ring.allreduce_ms"),
    (OneBitQuantizer, "quantize_dict", "comm.quantization.quantize_ms"),
    (Syncer, "sync", "core.syncer.sync_ms"),
    (WFBPScheduler, "wait_all", "core.wfbp.wait_all_ms"),
)


class Spans:
    """Accumulated seconds and call counts per metric name (each update is
    one dict item increment, atomic under the GIL, so trainer threads may
    record concurrently)."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] += seconds
        self.calls[name] += 1

    def mean_ms(self, name: str) -> float:
        return 1e3 * self.seconds[name] / self.calls[name]


class Recorder:
    """Routes spans to the workload's own store (``main``) or, while the
    other workloads' slices run, to ``side``; a metric is read from
    ``main`` when the workload itself exercised that layer."""

    def __init__(self) -> None:
        self.main = Spans()
        self.side = Spans()
        self.active = self.main

    def add(self, name: str, seconds: float) -> None:
        self.active.add(name, seconds)

    def wrap(self, name: str, function: Callable) -> Callable:
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
        return timed

    def store(self, name: str) -> Spans:
        return self.main if self.main.calls.get(name) else self.side


def policy_kind(system) -> str:
    if system.sync_period > 1:
        return "local_sgd"
    if system.staleness is None:
        return "async"
    return "ssp" if system.staleness > 0 else "bsp"


class Patches:
    """Attributes replaced on modules and classes, and their originals."""

    def __init__(self) -> None:
        self.saved: List[tuple] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self.saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self.saved:
            owner, attribute, original = self.saved.pop()
            setattr(owner, attribute, original)


def install(spans: Recorder, patches: Patches) -> None:
    """Wrap every traced entry point of the timed operations."""
    base_des = throughput.IterationSimulator
    base_fluid = fluid.FluidSimulator

    class TracedIterationSimulator(base_des):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            spans.add("simulation.throughput.construct_ms",
                      time.perf_counter() - start)

        def run(self):
            events = self.env.events_processed
            start = time.perf_counter()
            result = super().run()
            elapsed = time.perf_counter() - start
            spans.add("simulation.throughput.run_ms", elapsed)
            kind = policy_kind(self.system)
            if kind != "bsp":
                spans.add(f"simulation.throughput.run_ms.{kind}", elapsed)
            spans.add(f"comm.{self.system.comm.value}.run_ms", elapsed)
            spans.active.seconds["sim.events"] += (
                self.env.events_processed - events)
            return result

    class TracedFluidSimulator(base_fluid):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            spans.add("simulation.fluid.construct_ms",
                      time.perf_counter() - start)

        def run(self):
            start = time.perf_counter()
            result = super().run()
            tier = ("detail" if self.num_workers <= DETAIL_NODE_MAX
                    else "aggregate")
            spans.add(f"simulation.fluid.{tier}_run_ms",
                      time.perf_counter() - start)
            return result

    patches.patch(throughput, "decide_schemes",
                  spans.wrap("simulation.throughput.decide_schemes_ms",
                             throughput.decide_schemes))
    patches.patch(throughput, "IterationSimulator", TracedIterationSimulator)
    patches.patch(fluid, "FluidSimulator", TracedFluidSimulator)
    patches.patch(fluid, "sweep_axis",
                  spans.wrap("simulation.fluid.sweep_axis_ms",
                             fluid.sweep_axis))
    for owner, method, name in METHOD_SPANS:
        patches.patch(owner, method, spans.wrap(name, getattr(owner, method)))


def install_builder(spans: Recorder, patches: Patches,
                    seen: Set[str]) -> None:
    """Time the set-up's ``build_workload``, on the first call per model
    (``seen`` holds the models already timed)."""
    build = workloads.build_workload

    def timed(spec, *args, **kwargs):
        if spec.name in seen:
            return build(spec, *args, **kwargs)
        seen.add(spec.name)
        start = time.perf_counter()
        try:
            return build(spec, *args, **kwargs)
        finally:
            spans.add("simulation.workload.build_ms",
                      time.perf_counter() - start)

    patches.patch(workloads, "build_workload", timed)


def package_of(filename: str) -> str:
    """``sim`` for .../repro/sim/core.py; ``repro`` for .../repro/units.py;
    empty outside the program."""
    parts = os.path.normpath(filename).split(os.sep)
    if "repro" not in parts:
        return ""
    index = len(parts) - 1 - parts[::-1].index("repro")
    return parts[index + 1] if index + 2 < len(parts) else "repro"


def profile_self_ms(run: Callable[[], int]) -> Dict[str, float]:
    """cProfile self time per operation (ms), by package; ``run`` executes
    the profiled operations and returns how many it ran."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        ops = run()
    finally:
        profiler.disable()
    per_package: Dict[str, float] = defaultdict(float)
    for (filename, _, _), entry in pstats.Stats(profiler).stats.items():
        per_package[package_of(filename)] += entry[2]
    return {f"{package}.self_ms": 1e3 * per_package[package] / ops
            for package in PROFILED_PACKAGES}


def run_tasks(workload, indices: List[int]) -> int:
    """Run the given tasks; returns how many operations they held."""
    for index in indices:
        output, _ = workload.run(index)
        if isinstance(workload.tasks[index], TrainTask):
            workload.wire_bytes += (output["bytes_sent"]
                                    + output["bytes_received"])
    return sum(workload.tasks[index].ops for index in indices)


def companion_slice(workload) -> List[int]:
    """The googlenet tasks of a simulator workload; all of ``train``."""
    return [index for index, task in enumerate(workload.tasks)
            if isinstance(task, TrainTask) or task.model == "googlenet"]


def nn_standalone(spans: Recorder, train) -> None:
    """Forward and backward of a standalone replica on the first batch."""
    for model in train.train_models.values():
        network = model.factory()
        images, labels = model.batches[0][0]
        for _ in range(NN_REPEATS):
            start = time.perf_counter()
            logits = network.forward(images, training=True)
            middle = time.perf_counter()
            _, grad = network.loss.forward(logits, labels)
            before = time.perf_counter()
            network.backward(grad)
            end = time.perf_counter()
            spans.add("nn.forward_ms", middle - start)
            spans.add("nn.backward_ms", end - before)


def traced(args) -> int:
    from perfbench.run import run_rounds, summarize

    spans = Recorder()
    patches = Patches()
    built: Set[str] = set()
    install_builder(spans, patches, built)
    try:
        main = set_up(args.workload, args.seed)
    finally:
        patches.restore()
    untraced_line = measure.Timeline(main.ops_per_round)
    first, rounds_untraced, unstable = run_rounds(main, args.seconds / 2,
                                                  untraced_line)
    traced_line = measure.Timeline(main.ops_per_round)
    try:
        install(spans, patches)
        _, rounds_traced, unstable_traced = run_rounds(
            main, args.seconds / 2, traced_line)
        spans.active = spans.side
        install_builder(spans, patches, built)
        others = {name: set_up(name, args.seed)
                  for name in WORKLOADS if name != args.workload}
        for other in others.values():
            run_tasks(other, companion_slice(other))
        train = main if args.workload == "train" else others["train"]
        nn_standalone(spans, train)
    finally:
        patches.restore()

    if train is main:
        train_wire = sum(out["bytes_sent"] + out["bytes_received"]
                         for out in first)
        train_ops = main.ops_per_round * rounds_traced
        self_ms = profile_self_ms(lambda: sum(
            run_tasks(w, companion_slice(w)) for w in others.values()))
    else:
        train_wire = train.wire_bytes
        train_ops = train.ops_per_round
        self_ms = profile_self_ms(
            lambda: run_tasks(main, list(range(len(main.tasks)))))

    correct, attempted, failed, by_fault, unexpected = summarize(
        main, first, rounds_untraced + rounds_traced,
        unstable | unstable_traced)
    for message in unexpected[:20]:
        print(f"UNEXPECTED FAILURE {message}")

    probes = untraced_line.probes + traced_line.probes
    scale = measure.REFERENCE_PROBE_S / statistics.median(probes)
    untraced_rate = measure.latency_metrics(untraced_line.op_seconds)["ops_per_s"]
    traced_rate = measure.latency_metrics(traced_line.op_seconds)["ops_per_s"]
    values: Dict[str, tuple] = {}
    for name in sorted(set(spans.main.calls) | set(spans.side.calls)):
        values[name] = (spans.store(name).mean_ms(name) * scale, "ms")
    des = spans.store("simulation.throughput.run_ms")
    values["sim.events_per_op"] = (
        des.seconds["sim.events"] / des.calls["simulation.throughput.run_ms"],
        "count")
    values["sim.ns_per_event"] = (
        1e9 * scale * des.seconds["simulation.throughput.run_ms"]
        / des.seconds["sim.events"], "ns")
    for name, ms in self_ms.items():
        values[name] = (ms * scale, "ms")
    syncs = spans.store("core.syncer.sync_ms").calls["core.syncer.sync_ms"]
    values["parallel.trainer.bytes_per_op"] = (
        train_wire / train.ops_per_round, "B")
    values["core.syncer.calls_per_op"] = (syncs / train_ops, "count")
    values["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    values["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    values["trace.overhead_pct"] = (
        100.0 * (untraced_rate / traced_rate - 1.0), "%")
    print("diagnostics " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "rounds_untraced": rounds_untraced, "rounds_traced": rounds_traced,
        "calibration_scale": scale, "calls": dict(spans.main.calls),
        "companion_calls": dict(spans.side.calls),
        "failed_by_fault": by_fault}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(values.items())},
    }))
    return 0
