"""A fixed kernel, timed between ops, that tracks the machine's speed.

On a shared VM the same work can take anywhere from 1x to 1.7x its fastest
time, depending on what other tenants do, in phases from seconds to
minutes. The kernel mixes the two kinds of work the ops do, a Python loop
over numpy scalars feeding a heap and log-sum-exp passes over a matrix,
and never calls otkit, so no change to otkit can change its time. Dividing an op's wall time by the
kernel's time around it, and multiplying by ``REFERENCE_S``, gives the
op's time on a machine where the kernel takes ``REFERENCE_S``.
"""

import heapq
from time import perf_counter

import numpy as np

# About the kernel's time on a 2-CPU VM (Python 3.11.7, numpy 2.4.6) in
# its fast phases; it only sets the unit of the scaled times.
REFERENCE_S = 5.0e-3

_VECTOR = np.random.default_rng(0).random(1000)
_MATRIX = np.random.default_rng(1).random((256, 256))


def kernel_time():
    """Wall time of one run of the kernel, in seconds."""
    start = perf_counter()
    # A heap fed by element-wise numpy reads in a Python loop, as in the
    # flow engine's Dijkstra and the per-pair dynamics callbacks.
    heap = []
    for i in range(2000):
        heapq.heappush(heap, (_VECTOR[i % 1000] + _VECTOR[(7 * i) % 1000], i))
    while heap:
        heapq.heappop(heap)
    # Array passes, as in a Sinkhorn update.
    for _ in range(2):
        top = _MATRIX.max(axis=1)
        np.log(np.exp(_MATRIX - top[:, None]).sum(axis=1)) + top
    return perf_counter() - start
