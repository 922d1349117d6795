"""A fixed reference computation that measures how fast the machine is now.

Shared machines slow down and speed up by tens of percent from minute to
minute.  The benchmark runs this computation before every pass and every
set-up sample and scales its timings by ``REFERENCE_S`` over the median
time of these runs, so its figures read as seconds on a machine that runs
the reference computation in ``REFERENCE_S``.  On a 2-CPU machine whose
wall times swung by a factor of two, this scaling cut the spread between
runs of the same workload from 0.17-0.27 to 0.05-0.13 (interquartile
range over median, ten seeds per workload).  The computation never calls
the program, so a change to the program cannot move it.  Its mix follows
the program's: Python loops over lists and dicts (surfaces, flows),
element-wise numpy (the functionals) and a sparse LU solve (Newton).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# About the median time of reference() on a quiet 2-CPU Intel Xeon machine
# (Python 3.11, numpy 2.4, scipy 1.17); any fixed value would do, this one
# keeps scaled figures close to the wall times measured there.
REFERENCE_S = 0.07


def _graph(n, rng):
    head = [[] for _ in range(n)]
    for u, v in rng.integers(n, size=(4 * n, 2)).tolist():
        head[u].append(v)
        head[v].append(u)
    return head


_RNG = np.random.default_rng(0)
_HEAD = _graph(20000, _RNG)
_X = _RNG.random(60000)
_GRID = sp.kronsum(sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60)),
                   sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60)), format="csc")
_RHS = _RNG.random(3600)


def reference():
    """Seconds taken by the reference computation."""
    t0 = time.perf_counter()
    seen = {0: 0}
    queue = [0]
    for u in queue:                      # breadth-first search, pure Python
        for v in _HEAD[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    x = _X
    for _ in range(8):                   # element-wise transcendental math
        x = np.arctan2(np.sin(x), 1.0 + np.cos(x) * x)
    spla.spsolve(_GRID, _RHS)            # sparse direct solve
    return time.perf_counter() - t0
