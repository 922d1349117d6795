"""Independent oracles for the special functions and the feasible flow.

The Clausen oracle sums the Fourier series sum sin(n x)/n^2 directly and
closes it with the exact first summation-by-parts remainder term; the
neglected rest is bounded rigorously and the bound is enforced.  The
dilogarithm oracle integrates the defining integral with adaptive
quadrature, and the functional-value oracle sums those quadratures in
place of the Clausen closed form.  The feasible-flow oracle runs the
excess-node transformation on a pure-Python Dinic over float capacities,
augmenting each path by its full bottleneck.  The existence oracle
enumerates every face subset.  None shares logic with the implementation
under test; the existence oracle only reports in its certificate type and
with its tolerances.
"""

import numpy as np
from scipy.integrate import quad

from circlepatterns.feasibility import EQ_TOL, STRICT_TOL, FeasibilityCertificate

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


def value_im_li2_sum(spec, rho):
    """The pattern functional as a sum of dilogarithms, one quadrature each.

    Per edge with x = rho_k - rho_j and sigma = rho_k + rho_j:
    Im Li2(e^{x + i theta}) + Im Li2(e^{-x + i theta}), plus the same pair
    at sigma (hyperbolic) or minus theta* sigma (Euclidean); then Phi . rho.
    """
    srf = spec.surface
    rho = np.asarray(rho, dtype=float)
    x = rho[srf.edge_right] - rho[srf.edge_left]
    sigma = rho[srf.edge_right] + rho[srf.edge_left]
    total = 0.0
    for e in range(srf.n_edges):
        theta = spec.theta[e]
        total += im_li2_quadrature(x[e], theta) + im_li2_quadrature(-x[e], theta)
        if spec.is_hyperbolic:
            total += (im_li2_quadrature(sigma[e], theta)
                      + im_li2_quadrature(-sigma[e], theta))
        else:
            total -= spec.theta_star[e] * sigma[e]
    return total + float(spec.phi @ rho)


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


# -- existence by enumeration ----------------------------------------------------

def check_conditions_bruteforce(spec):
    """Exact verdict by enumerating all nonempty face subsets.

    Guarded to |F| <= 20.  Does not construct an angle system; ``cas`` is
    None even when feasible.
    """
    srf = spec.surface
    F = srf.n_faces
    if F > 20:
        raise ValueError("brute force enumeration is limited to |F| <= 20")
    theta2 = 2.0 * spec.theta_star
    if not spec.is_hyperbolic:
        phi_sum, theta_sum = float(spec.phi.sum()), float(theta2.sum())
        if abs(phi_sum - theta_sum) > EQ_TOL * max(1.0, abs(theta_sum)):
            return FeasibilityCertificate(
                feasible=False, violating_faces=tuple(range(F)),
                violating_edges=tuple(range(srf.n_edges)),
                phi_sum=phi_sum, theta_sum=theta_sum, kind="equality")
    face_edge_mask = [0] * F
    for h in range(srf.n_oriented_edges):
        face_edge_mask[srf.oe_left[h]] |= 1 << int(srf.oe_edge[h])
    n_sub = 1 << F
    edge_masks = [0] * n_sub
    phi_sums = np.zeros(n_sub)
    theta_sums = np.zeros(n_sub)
    for sub in range(1, n_sub):
        low = sub & -sub
        rest = sub ^ low
        f = low.bit_length() - 1
        mask = edge_masks[rest] | face_edge_mask[f]
        edge_masks[sub] = mask
        phi_sums[sub] = phi_sums[rest] + spec.phi[f]
        new_bits = mask & ~edge_masks[rest]
        extra = 0.0
        while new_bits:
            b = new_bits & -new_bits
            extra += theta2[b.bit_length() - 1]
            new_bits ^= b
        theta_sums[sub] = theta_sums[rest] + extra
        proper = sub != n_sub - 1
        if (proper or spec.is_hyperbolic) and theta_sums[sub] - phi_sums[sub] <= STRICT_TOL:
            return FeasibilityCertificate(
                feasible=False,
                violating_faces=tuple(f for f in range(F) if sub >> f & 1),
                violating_edges=tuple(e for e in range(srf.n_edges) if mask >> e & 1),
                phi_sum=float(phi_sums[sub]), theta_sum=float(theta_sums[sub]),
                kind="subset")
    return FeasibilityCertificate(feasible=True)
