"""The machine's speed, read from a fixed reference job.

On a shared host the speed of pure Python code drifts by more than half
over tens of seconds, in CPU time as much as in wall time, so runs of the
same code a few minutes apart differ more than any bound a benchmark could
hold.  ``Speedometer`` times a small fixed job (dict, set, graph and object
work like the library's, none of it from the library) between
operations.  A measured CPU time divided by the local reference
CPU time and multiplied by ``REFERENCE_S`` is the time the call would have
taken on a machine where the reference job takes ``REFERENCE_S``, if the
call's speed followed the reference's.  A call that follows it only partly
gives its elasticity, the power the ratio is raised to first.  Changes to
the library move the scaled time, the machine's drift mostly does not.  Both are CPU
times, so time the host gives to other guests, or the core to other
processes, counts in neither.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter, process_time

REFERENCE_S = 0.010  # about the reference job on one vCPU of a 2-vCPU Xeon VM
EVERY_S = 0.5  # least wall time between two samples
SPIN_S = 0.01  # busy wait before a sample, so a core woken from idle is up to speed
REPEATS = 3  # reference runs per sample; the sample is their median
WINDOW = 2  # samples on each side of a call that give its local speed


def _random_graph(nodes: int, degree: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    ids = list(range(nodes))  # one int object per node, shared by the tuples
    return [tuple(ids[rng.randrange(nodes)] for _ in range(degree)) for _ in range(nodes)]


GRAPH = _random_graph(20000, 6, 0)  # about 3 MB of tuples, spread over the heap


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)


def reference() -> int:
    """The fixed job, in three parts of similar cost, because the library's
    code reacts to the host in more than one way: a small working set (set
    algebra on neighbour sets of 160 points), a working set of megabytes
    (breadth-first search in a random 20000-node graph, as networkx walks
    its dicts) and object code (instances, method calls, tuple keys and a
    keyed sort, as in the library's poset and map classes).  A reference of
    the first part alone tracked CLI calls and small maps worst."""
    succ = {}
    for i in range(160):
        succ[i] = frozenset(j for j in range(i, min(i + 9, 160)) if (i ^ j) & 3)
    seen = set()
    total = 0
    for _ in range(3):
        for i, nbrs in succ.items():
            for j in nbrs:
                key = (i, j) if i < j else (j, i)
                if key not in seen:
                    seen.add(key)
                total += len(nbrs & succ.get(j, frozenset()))
        seen.clear()
    for root in (0, 7):
        reached, frontier = {root}, [root]
        while frontier and len(reached) < 2000:
            nxt = []
            for u in frontier:
                for v in GRAPH[u]:
                    if v not in reached:
                        reached.add(v)
                        nxt.append(v)
            frontier = nxt
        total += len(reached)
    points = [_Point(i % 53, i % 31) for i in range(1600)]
    keys = {p.key() for p in points}
    total += len(sorted(keys, key=lambda t: (t[1], t[0])))
    return total


class Speedometer:
    """Reference-job timings taken through a run, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self, force: bool = False) -> None:
        """Time the reference job, unless one ran less than ``EVERY_S``
        ago.  A process that has just waited for a child reads up to three
        times slow for a few milliseconds, so the sample follows a short
        busy wait and is the median of ``REPEATS`` runs.  Garbage
        collection is off meanwhile, so the size of the library's heap
        does not enter the reading."""
        if not force and perf_counter() - self.last < EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            end = perf_counter() + SPIN_S
            while perf_counter() < end:
                pass
            runs = []
            for _ in range(REPEATS):
                start = process_time()
                reference()
                runs.append(process_time() - start)
            self.samples.append(statistics.median(runs))
        finally:
            if enabled:
                gc.enable()
        self.last = perf_counter()

    def mark(self) -> int:
        """The position of the next sample; store it when a call starts."""
        return len(self.samples)

    def scale(self, seconds: float, mark: int, elasticity: float) -> float:
        """``seconds`` measured at ``mark``, at the reference speed: the
        local reference time is the median of the ``WINDOW`` samples before
        the call and the ``WINDOW`` after it."""
        near = self.samples[max(0, mark - WINDOW): mark + WINDOW]
        return seconds * (REFERENCE_S / statistics.median(near)) ** elasticity

    def median(self) -> float:
        return statistics.median(self.samples)
