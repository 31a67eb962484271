"""A fixed reference task that measures how fast the machine runs right now.

Machines shared with other tenants change speed by tens of percent within
seconds, as neighbours come and go on the same cores and caches.  The
benchmark runs this task between ops and reports every time in seconds of a
*nominal* machine, on which the task takes exactly ``NOMINAL_S``:

    normalised time = measured time * NOMINAL_S / (reference time nearby)

The task is pure-Python work of the kind kantgap does (exact rational
Dijkstra with a heap, then a float loop), so a neighbour that slows the
program slows the task alike.  It never changes, so a change in a normalised
figure is a change in the program.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005
_REPS = 5


def _graph(n: int = 40, degree: int = 6, seed: int = 5):
    rng = random.Random(seed)
    return [
        [(rng.randrange(n), Fraction(rng.randint(1, 12), rng.randint(1, 8)))
         for _ in range(degree)]
        for _ in range(n)
    ]


_GRAPH = _graph()


def _shortest_paths(graph):
    dist = [None] * len(graph)
    dist[0] = Fraction(0)
    done = [False] * len(graph)
    heap = [(Fraction(0), 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v, w in graph[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_seconds() -> float:
    """Wall time of one run of the reference task."""
    t0 = perf_counter()
    for _ in range(_REPS):
        _shortest_paths(_GRAPH)
        x = 0.0
        for i in range(3000):
            x += (i % 17) * 0.5
    return perf_counter() - t0
