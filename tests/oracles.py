"""Independent oracles for the special functions and the feasible flow.

The Clausen oracle sums the Fourier series sum sin(n x)/n^2 directly and
closes it with the exact first summation-by-parts remainder term; the
neglected rest is bounded rigorously and the bound is enforced.  The
dilogarithm oracle integrates the defining integral with adaptive
quadrature.  The feasible-flow oracle runs the excess-node transformation
on a pure-Python Dinic over float capacities, augmenting each path by its
full bottleneck.  None shares code with the implementation under test.
"""

import numpy as np
from scipy.integrate import quad

TWO_PI = 2.0 * np.pi
_CHUNK = 1_000_000


def clausen_series(x, tol=1e-12, max_terms=200_000_000):
    """Partial Fourier sums with an exact Abel-remainder correction.

    After N direct terms the tail is
        cos((N+1/2)x) / (2 sin(x/2) (N+1)^2)  +  error,
    with |error| <= 1/(sin(x/2)^2 N^3); N is chosen so the bound meets
    ``tol``.  Reduction to [0, pi] uses only the term-by-term identities
    sin(n(x+2*pi)) = sin(nx) and sin(-nx) = -sin(nx).
    """
    y = float(np.remainder(x, TWO_PI))
    if y > np.pi:
        y -= TWO_PI
    sign = 1.0 if y >= 0 else -1.0
    a = abs(y)
    if a == 0.0 or a == np.pi:
        return 0.0
    s = np.sin(0.5 * a)
    n_terms = int((1.0 / (tol * s * s)) ** (1.0 / 3.0)) + 8
    if n_terms > max_terms:
        raise RuntimeError(f"series oracle would need {n_terms} terms")
    total = 0.0
    start = 1
    while start <= n_terms:
        stop = min(start + _CHUNK, n_terms + 1)
        n = np.arange(start, stop, dtype=float)
        total += float(np.sin(n * a) @ (1.0 / (n * n)))
        start = stop
    correction = np.cos((n_terms + 0.5) * a) / (2.0 * s * (n_terms + 1.0) ** 2)
    bound = 1.0 / (s * s * n_terms ** 3)
    assert bound <= tol, "tail bound not met"
    return sign * (total + correction)


def im_li2_quadrature(x, theta, tol=1e-11):
    """Adaptive quadrature of the integral representation

        Im Li2(e^{x + i theta}) = int_{-inf}^{x} arg-term(xi, theta) d xi.
    """
    s, c = np.sin(theta), np.cos(theta)

    def integrand(xi):
        e = np.exp(xi)
        return np.arctan2(e * s, 1.0 - e * c)

    val, err = quad(integrand, -np.inf, x, epsabs=tol, epsrel=1e-13, limit=400)
    if err > 50 * tol:
        raise RuntimeError(f"quadrature error estimate {err} too large")
    return val


# -- feasible flow ---------------------------------------------------------------

class Dinic:
    """Max-flow on float capacities; arcs at or below ``tol`` count as full."""

    def __init__(self, n):
        self.n = n
        self.to = []
        self.cap = []
        self.head = [[] for _ in range(n)]

    def add(self, u, v, c):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0.0)
        return len(self.to) - 2

    def maxflow(self, s, t, tol):
        total = 0.0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for a in self.head[u]:
                    v = self.to[a]
                    if self.cap[a] > tol and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return total
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    a = self.head[u][it[u]]
                    v = self.to[a]
                    if self.cap[a] > tol and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[a]))
                        if got > 0.0:
                            self.cap[a] -= got
                            self.cap[a ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, np.inf)
                if pushed <= 0.0:
                    break
                total += pushed

    def reachable(self, s, tol):
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        for u in queue:
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > tol and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def feasible_flow_dinic(net, shortfall_tol=None):
    """Reference for ``feasibility.solve_feasible_flow`` on the same network.

    Infinite upper bounds are clamped to the sum of all finite bounds plus
    one, which any feasible flow can be rerouted below.  Returns
    (flows, cut, pushed, demand) with the contract of the function under
    test for the first two.
    """
    branches = list(zip(net.tail.tolist(), net.head.tolist(),
                        net.lower.tolist(), net.upper.tolist()))
    finite_total = sum(b[2] for b in branches)
    finite_total += sum(b[3] for b in branches if np.isfinite(b[3]))
    big = finite_total + 1.0
    n = net.n_nodes
    s, t = n, n + 1
    dinic = Dinic(n + 2)
    excess = np.zeros(n)
    arcs = []
    for (u, v, low, high) in branches:
        cap = (high if np.isfinite(high) else big) - low
        if cap < 0:
            return None, set(range(n)), 0.0, np.inf
        arcs.append(dinic.add(u, v, cap))
        excess[v] += low
        excess[u] -= low
    demand = 0.0
    for node in range(n):
        if excess[node] > 0:
            dinic.add(s, node, excess[node])
            demand += excess[node]
        elif excess[node] < 0:
            dinic.add(node, t, -excess[node])
    tol = 1e-13 * max(1.0, demand)
    if shortfall_tol is None:
        shortfall_tol = 1e-10 * max(1.0, demand)
    pushed = dinic.maxflow(s, t, tol)
    if pushed < demand - shortfall_tol:
        reach = dinic.reachable(s, tol)
        return None, {v for v in range(n) if reach[v]}, pushed, demand
    flows = np.array([branches[i][2] + dinic.cap[arcs[i] ^ 1]
                      for i in range(len(branches))])
    return flows, None, pushed, demand
