"""Timing, host-speed calibration and host-noise diagnostics.

The host this benchmark was built on alternates between speed phases, some
lasting a whole process, and CPU time slows with wall time, so raw host
seconds of the same work move between runs by more than a useful
regression bound.  The benchmark therefore runs a short reference probe
after every task and reports every host time *calibrated*: multiplied by
``REFERENCE_PROBE_S / median probe of the run``.  A calibrated second is a
second on a host where one probe takes ``REFERENCE_PROBE_S``.

The probe has two parts, because the slow phases hit memory more than
arithmetic: a small heap-and-dict loop that stays in the first-level cache,
and random reads over a 12 MB arena of Python ints.  On eight des_policy
processes the first part alone widened the spread of the per-operation
time (inter-quartile range over median) from 13 % raw to 17 %; the arena
walk alone cut it to 4 %, the sum of both to 3 %.  The median over all of a
run's probes is used, not the probes next to each task: a single probe
jitters by more than the phase it would correct.  The raw figures and the
probe times are printed beside the result as diagnostics.

Every round of a run repeats the same operations, so each operation's time
is taken as its median over the run's rounds; the metrics are computed from
these medians.  That drops the rounds in which another tenant took the
CPUs (steal), which the single-threaded probe cannot see but the two
trainer workers feel at every barrier.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: Iterations of one reference pass (about 0.25 ms on the reference host).
REFERENCE_ITERATIONS = 400

#: Ints in the memory arena (2**18 distinct objects plus a shuffled index:
#: about 12 MB, beyond the second-level cache) and reads per memory pass
#: (about 1.4 ms on the reference host).
ARENA_WORDS = 1 << 18
MEMORY_READS = 3000

#: Passes per probe part; each part is their minimum, which drops passes
#: that a preemption happened to hit.
PROBE_PASSES = 3

#: Probe time that defines a calibrated second (the median probe of the
#: reference host; see README.md).
REFERENCE_PROBE_S = 1.6e-3


def reference_pass(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed pure-Python work shaped like an event loop: a heap, a dict and
    small-int arithmetic.  Its cost depends on nothing but the host."""
    heap: List[int] = []
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i & 63
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 32:
            acc += heapq.heappop(heap)
    return acc + len(table)


@functools.lru_cache(maxsize=1)
def _arena():
    rng = random.Random(7)
    words = [rng.randrange(1 << 40) for _ in range(ARENA_WORDS)]
    order = list(range(ARENA_WORDS))
    rng.shuffle(order)
    return words, order, rng


def memory_pass(reads: int = MEMORY_READS) -> int:
    """Random reads over the arena, from a fresh random offset each pass so
    the reads do not hit what the previous pass left in the caches."""
    words, order, rng = _arena()
    start = rng.randrange(len(order) - reads)
    acc = 0
    for index in order[start:start + reads]:
        acc ^= words[index]
    return acc


def _best(work: Callable[[], int]) -> float:
    best = math.inf
    for _ in range(PROBE_PASSES):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """Seconds of one reference probe at the host's current speed."""
    return _best(reference_pass) + _best(memory_pass)


@dataclass
class Timeline:
    """Raw host seconds per operation of one timed phase of whole rounds of
    ``ops_per_round`` operations, and the probes interleaved with its
    tasks."""

    ops_per_round: int
    raw_seconds: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)

    def start(self) -> None:
        """Take the probe that precedes the first task."""
        self.probes.append(probe())

    def record(self, raw: Sequence[float]) -> None:
        """Record the operations of one task, then probe."""
        self.raw_seconds.extend(raw)
        self.probes.append(probe())

    @property
    def scale(self) -> float:
        """Calibration factor of this phase."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    @property
    def op_seconds(self) -> List[float]:
        """Calibrated seconds per operation: its median over the rounds."""
        n = self.ops_per_round
        return [statistics.median(self.raw_seconds[position::n]) * self.scale
                for position in range(n)]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_metrics(op_seconds: Sequence[float]) -> Dict[str, float]:
    """ops_per_s, latency_p50_ms and latency_p90_ms of a list of op times."""
    return {
        "ops_per_s": len(op_seconds) / sum(op_seconds),
        "latency_p50_ms": 1e3 * percentile(op_seconds, 50),
        "latency_p90_ms": 1e3 * percentile(op_seconds, 90),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process's own program, in MiB.

    ``VmHWM`` is read first: ``ru_maxrss`` of a spawned interpreter also
    holds the peak of the process that spawned it (Linux keeps the larger
    of the two across ``exec``).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_ticks() -> Optional[int]:
    """Cumulative steal ticks of the host's CPUs (None if unreadable)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8])

