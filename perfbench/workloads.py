"""The four workloads: seeded task lists, their set-up and their execution.

A *task* is one call into the program.  A simulator task is one operation
(one simulated point or one ``sweep_axis`` call); a trainer task is one
``DistributedTrainer.train`` run of ``TRAIN_ITERATIONS`` synchronous
iterations, each of which is one operation.  A *round* is the workload's
whole task list; every run executes whole rounds, so the share of failed
operations is the same in every run.

The seed chooses the order of every round, and the trainer's data and
initial weights.  It never changes which points (model, preset, node
count, topology, bandwidth) a round holds, so the cost mix of a round is
the same for every seed: an earlier draft drew each point's bandwidth from
the seed, and its per-run figures moved with the draw.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import engines
from repro.config import ClusterConfig, TrainingConfig
from repro.data.datasets import make_cifar10_like
from repro.engines.base import SystemConfig
from repro.nn.model_zoo import (
    build_cifar_quick_small_network,
    build_transformer_network,
    get_model_spec,
)
from repro.parallel import DistributedTrainer
from repro.simulation import fluid, throughput
from repro.simulation.workload import build_workload

WORKLOADS = ("des_bsp", "des_policy", "fluid_scale", "train")

#: Every system preset of ``repro.engines``, by display name.
PRESETS: Dict[str, SystemConfig] = {
    system.name: system for system in (
        engines.CAFFE_PS, engines.CAFFE_WFBP, engines.POSEIDON_CAFFE,
        engines.TF, engines.TF_WFBP, engines.POSEIDON_TF, engines.ADAM_TF,
        engines.CNTK_1BIT, engines.RING_ALLREDUCE, engines.HIERARCHICAL_PS)
}

MODELS = ("vgg19", "googlenet", "inception-v3", "resnet-152", "nanogpt-12l")

#: Per-node bandwidths (GbE), assigned to points in turn.
BANDWIDTHS = (1.0, 10.0, 25.0, 40.0)

#: Bandwidth of the cluster a sweep is constructed on.
SWEEP_BANDWIDTH = 10.0

#: Bandwidth axis of every ``sweep_axis`` task (GbE, ascending).
SWEEP_AXIS = (1.0, 2.0, 5.0, 10.0, 25.0, 40.0, 56.0, 100.0)

#: Oversubscription of every racked cluster.
OVERSUBSCRIPTION = 4.0

#: Policies of one des_policy family; the first is the BSP reference.
POLICIES = ("bsp", "ssp(0)", "local_sgd(1)", "ssp(1)", "ssp(2)", "ssp(4)",
            "async", "local_sgd(2)", "local_sgd(4)")
POLICY_PRESETS = ("Caffe+WFBP", "CNTK-1bit", "Ring-AllReduce")

#: Emulated trainer workers: no more than the 2 cores of the reference host.
TRAIN_WORKERS = 2
TRAIN_ITERATIONS = 16
TRAIN_MODES = ("hybrid", "ps", "ring", "onebit")


@dataclass(frozen=True)
class SimTask:
    """One simulator call: a point (``bandwidths`` empty) or a sweep."""

    model: str
    preset: str
    nodes: int
    racks: int
    bandwidth: float
    engine: str
    policy: str = "bsp"
    bandwidths: Tuple[float, ...] = ()
    family: int = -1

    @property
    def is_sweep(self) -> bool:
        return bool(self.bandwidths)

    @property
    def flat(self) -> bool:
        return self.racks == 1

    @property
    def label(self) -> str:
        kind = "sweep" if self.is_sweep else "point"
        topology = "flat" if self.flat else f"{self.racks}racks"
        return (f"{self.engine}:{kind} {self.model} {self.preset} "
                f"{self.policy} P={self.nodes} {topology} "
                f"{self.bandwidth:g}GbE")

    def cluster(self, bandwidth: Optional[float] = None) -> ClusterConfig:
        return ClusterConfig(
            num_workers=self.nodes,
            bandwidth_gbps=self.bandwidth if bandwidth is None else bandwidth,
            racks=self.racks,
            oversubscription=1.0 if self.flat else OVERSUBSCRIPTION)

    def system(self) -> SystemConfig:
        return PRESETS[self.preset].with_policy(self.policy)

    ops = 1


@dataclass(frozen=True)
class TrainTask:
    """One trainer run of ``TRAIN_ITERATIONS`` iterations."""

    model: str
    mode: str

    @property
    def label(self) -> str:
        return f"train {self.model} {self.mode} P={TRAIN_WORKERS}"

    ops = TRAIN_ITERATIONS


# -- task lists -----------------------------------------------------------------
def _points(models: Sequence[str], nodes: int, racks: int, engine: str,
            presets: Sequence[str] = tuple(PRESETS)) -> List[SimTask]:
    """Every model x preset on one cluster shape, bandwidths in turn."""
    shapes = [(model, preset) for model in models for preset in presets]
    return [SimTask(model, preset, nodes, racks,
                    BANDWIDTHS[index % len(BANDWIDTHS)], engine)
            for index, (model, preset) in enumerate(shapes)]


def des_bsp_tasks(rng: random.Random) -> List[SimTask]:
    """Figure-style BSP points: every model x preset at 8 nodes flat and
    racked, the two light models at 16 racked nodes, googlenet across all
    presets at 32 nodes, and the costliest point of the runner's sweeps,
    resnet-152 under ring all-reduce at 32 nodes."""
    tasks = (_points(MODELS, 8, 1, "des")
             + _points(MODELS, 8, 2, "des")
             + _points(("vgg19", "googlenet"), 16, 4, "des")
             + _points(("googlenet",), 32, 1, "des")
             + _points(("resnet-152",), 32, 1, "des",
                       presets=("Ring-AllReduce",)))
    rng.shuffle(tasks)
    return tasks


def des_policy_tasks(rng: random.Random) -> List[SimTask]:
    """fig_async's axis: each family (model, preset, cluster) runs every
    policy of ``POLICIES``.  Ring families stay at 8 nodes, where one policy
    point costs about as much as a 16-node PS one.  The three racked
    Caffe+WFBP families sit at bandwidths where the staleness order fails
    (vgg19 and googlenet at 1 GbE) and holds (vgg19 at 40 GbE)."""
    flat = ([(model, preset, 8) for model in ("vgg19", "googlenet")
             for preset in POLICY_PRESETS]
            + [(model, preset, 16) for model in ("vgg19", "googlenet")
               for preset in POLICY_PRESETS[:2]]
            + [("inception-v3", preset, 8) for preset in POLICY_PRESETS[:2]])
    shapes = [(model, preset, nodes, 1, BANDWIDTHS[family % len(BANDWIDTHS)])
              for family, (model, preset, nodes) in enumerate(flat)]
    shapes += [("vgg19", "Caffe+WFBP", 8, 2, 1.0),
               ("googlenet", "Caffe+WFBP", 8, 2, 1.0),
               ("vgg19", "Caffe+WFBP", 8, 2, 40.0)]
    tasks: List[SimTask] = []
    for family, (model, preset, nodes, racks, bandwidth) in enumerate(shapes):
        tasks.extend(SimTask(model, preset, nodes, racks, bandwidth, "des",
                             policy=policy, family=family)
                     for policy in POLICIES)
    rng.shuffle(tasks)
    return tasks


def fluid_tasks(rng: random.Random) -> List[SimTask]:
    """Both fluid tiers, flat and racked, plus cold bandwidth sweeps."""
    light = ("vgg19", "googlenet")
    tasks = (_points(MODELS, 64, 1, "fluid")
             + _points(light, 128, 4, "fluid")
             + _points(MODELS, 1024, 1, "fluid")
             + _points(MODELS, 4096, 16, "fluid")
             + _points(light + ("inception-v3",), 10000, 1, "fluid"))
    for models, nodes, racks in ((MODELS, 10000, 1),
                                 (light + ("inception-v3",), 1024, 16)):
        tasks.extend(SimTask(model, preset, nodes, racks, SWEEP_BANDWIDTH,
                             "fluid", bandwidths=SWEEP_AXIS)
                     for model in models for preset in PRESETS)
    rng.shuffle(tasks)
    return tasks


def train_tasks(rng: random.Random) -> List[TrainTask]:
    tasks = [TrainTask(model, mode) for model in ("cnn", "gpt")
             for mode in TRAIN_MODES]
    rng.shuffle(tasks)
    return tasks


TASK_LISTS: Dict[str, Callable[[random.Random], list]] = {
    "des_bsp": des_bsp_tasks,
    "des_policy": des_policy_tasks,
    "fluid_scale": fluid_tasks,
    "train": train_tasks,
}


# -- trainer inputs -------------------------------------------------------------
@dataclass
class TrainModel:
    """One trainer model: replica factory, hyper-parameters, fixed batches.

    ``batches[t][w]`` is worker ``w``'s batch at iteration ``t``; the same
    list feeds the trainer and the serial reference.
    """

    factory: Callable[[], Any]
    config: TrainingConfig
    batches: List[List[Tuple[np.ndarray, np.ndarray]]]

    def provider(self, iteration: int, worker: int):
        return self.batches[iteration][worker]


def cnn_model(seed: int) -> TrainModel:
    """CIFAR-quick-small on 16x16 synthetic CIFAR-10, batch 16 per worker."""
    batch = 16
    data = make_cifar10_like(num_train=256, num_test=0, image_size=16,
                             seed=seed)
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(TRAIN_ITERATIONS):
        row = []
        for _ in range(TRAIN_WORKERS):
            index = rng.choice(data.num_train, size=batch, replace=False)
            row.append((data.train_images[index], data.train_labels[index]))
        batches.append(row)
    init = seed + 1
    return TrainModel(
        factory=lambda: build_cifar_quick_small_network(seed=init),
        config=TrainingConfig(batch_size=batch, learning_rate=0.05, seed=seed),
        batches=batches)


def gpt_model(seed: int) -> TrainModel:
    """A 2-block GPT (vocab 32, context 8, width 16) learning to count:
    every next token is the current one plus one, modulo the vocabulary."""
    batch, context, vocab = 8, 8, 32
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(TRAIN_ITERATIONS):
        row = []
        for _ in range(TRAIN_WORKERS):
            start = rng.integers(0, vocab, size=(batch, 1))
            sequence = (start + np.arange(context + 1)[None, :]) % vocab
            row.append((sequence[:, :context],
                        sequence[:, 1:].reshape(-1)))
        batches.append(row)
    init = seed + 1
    return TrainModel(
        factory=lambda: build_transformer_network(
            vocab_size=vocab, block_size=context, n_embd=16, num_heads=2,
            num_blocks=2, seed=init),
        config=TrainingConfig(batch_size=batch, learning_rate=0.1, seed=seed),
        batches=batches)


# -- execution -------------------------------------------------------------------
@dataclass
class Workload:
    """A workload's round and everything set up to execute it."""

    name: str
    seed: int
    tasks: list
    specs: Dict[str, Any] = field(default_factory=dict)
    train_models: Dict[str, TrainModel] = field(default_factory=dict)
    _prebuilt: Dict[int, Tuple[DistributedTrainer, list]] = field(
        default_factory=dict)
    #: Trainer wire bytes summed over the traced run's companion round.
    wire_bytes: int = 0

    @property
    def ops_per_round(self) -> int:
        return sum(task.ops for task in self.tasks)

    def build_trainer(self, task: TrainTask
                      ) -> Tuple[DistributedTrainer, List[Tuple[int, float]]]:
        """A fresh trainer (``train`` runs once per instance) and the list
        its batch provider stamps ``(iteration, time)`` into on each call."""
        model = self.train_models[task.model]
        stamps: List[Tuple[int, float]] = []

        def provider(iteration: int, worker: int):
            stamps.append((iteration, time.perf_counter()))
            return model.provider(iteration, worker)

        trainer = DistributedTrainer(
            model.factory, TRAIN_WORKERS, None, model.config, mode=task.mode,
            batch_provider=provider, deterministic=True)
        return trainer, stamps

    def run(self, index: int) -> Tuple[Any, List[float]]:
        """Execute task ``index``; returns its output and the raw host
        seconds of each of its operations."""
        task = self.tasks[index]
        if isinstance(task, TrainTask):
            return self._run_train(index, task)
        spec = self.specs[task.model]
        system = task.system()
        cluster = task.cluster()
        if task.is_sweep:
            fluid._AXIS_CACHE.clear()  # a cold sweep, as in bench_fluid
            start = time.perf_counter()
            values = fluid.sweep_axis(spec, system, cluster, task.bandwidths)
            elapsed = time.perf_counter() - start
            return tuple(float(v) for v in values), [elapsed]
        start = time.perf_counter()
        result = throughput.simulate_system(spec, system, cluster,
                                            engine=task.engine)
        elapsed = time.perf_counter() - start
        return point_output(result, keep_nodes=task.nodes <= 32), [elapsed]

    def _run_train(self, index: int, task: TrainTask):
        trainer, stamps = (self._prebuilt.pop(index, None)
                           or self.build_trainer(task))
        history = trainer.train(TRAIN_ITERATIONS)
        end = time.perf_counter()
        starts = [min(t for it, t in stamps if it == i)
                  for i in range(TRAIN_ITERATIONS)]
        seconds = [b - a for a, b in zip(starts, starts[1:] + [end])]
        output = {
            "losses": tuple(float(v) for v in history.losses),
            "bytes_sent": int(history.bytes_sent),
            "bytes_received": int(history.bytes_received),
        }
        return output, seconds


def point_output(result, keep_nodes: bool) -> Dict[str, Any]:
    """The fields of a SimulationResult that the checks read."""
    traffic = result.per_node_traffic_bytes
    return {
        "iteration_seconds": result.iteration_seconds,
        "compute_seconds": result.compute_seconds,
        "speedup": result.speedup,
        "throughput": result.throughput_images_per_sec,
        "traffic_total": float(np.sum(traffic)),
        "traffic_max": max(traffic),
        "traffic_nodes": len(traffic),
        "traffic": tuple(traffic) if keep_nodes else None,
    }


def set_up(name: str, seed: int) -> Workload:
    """Everything a workload needs before its first timed operation."""
    tasks = TASK_LISTS[name](random.Random(f"{name}:{seed}"))
    workload = Workload(name, seed, tasks)
    if name == "train":
        workload.train_models = {"cnn": cnn_model(seed), "gpt": gpt_model(seed)}
        for index, task in enumerate(tasks):
            workload._prebuilt[index] = workload.build_trainer(task)
        return workload
    for model in sorted({task.model for task in tasks}):
        spec = get_model_spec(model)
        build_workload(spec)
        workload.specs[model] = spec
    return workload
