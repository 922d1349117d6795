"""Independent oracles: special functions, flows, existence, layout, export.

The Clausen oracle sums the Fourier series sum sin(n x)/n^2 directly and
closes it with the exact first summation-by-parts remainder term; the
neglected rest is bounded rigorously and the bound is enforced.  The
dilogarithm oracle integrates the defining integral with adaptive
quadrature, and the functional-value oracle sums those quadratures in
place of the Clausen closed form.  The edge-auxiliary oracle writes the
conjugate variables (p, s) out from their tangent formula.  The
coordinate-descent oracle minimises the functional one face at a time,
each step a safeguarded Newton iteration on the kite angle
atan2(e^x sin theta, 1 - e^x cos theta) and its derivative, both written
out here.  The bit-identity references are the first versions of the
Clausen and arctan2 kernels, of the Hessian assembly through scipy's
COO to CSR conversion, and of the grounded solves: the Newton system
ordered anew on every call, and the Euclidean repair through the
face-edge incidence B and B B^T.  The feasible-flow oracle
runs the excess-node transformation on a pure-Python Dinic over float
capacities, augmenting each path by its full bottleneck, and the layout
reference builds the residual network's CSR layout with ``np.unique`` and
``searchsorted``, as the flow first did.  The Euclidean
box network is the reference for the dual form the package builds for
Euclidean data: faces, edges and the box, each half-angle a branch of
its own.  The existence oracle
enumerates every face subset.  Two more characterisations of existence
from the paper decide flat exterior angles theta on closed surfaces:
Rivin's cocycle condition on the sphere enumerates the simple cycles of
the dual 1-skeleton, and the higher-genus condition cuts the dual surface
along every edge subset and checks the disc pieces.  The reduced angle
functional evaluates the Clausen form of S on a coherent angle system, and
rho is recovered from an angle system by integrating over a spanning tree
of the dual graph (Euclidean) or from the per-face closed form
(hyperbolic).  The developing-map oracle builds one kite at
a time and places it by a scalar breadth-first search, one complex number
at a time, and keeps the result as scalar objects: a circle or line per
face, a complex point per vertex.  The JSON oracle is the emitter's first,
isinstance-chain version, and the layout-document oracle builds the nested
dicts and lists it writes, one of each per row; the certificate, solve and
``pack`` report oracles build those documents the same way, with every
array written out as a list of floats.  The surface-table oracle is the
constructor's first, pure-Python version: it follows next and the vertex
rotation one oriented edge at a time, finds connectivity by a depth-first
search and numbers edges in a scalar pass.  The medial and reduction
oracles build the medial decomposition and the sphere's reduction to the
plane from token walks, one face at a time, and the cap oracle projects
one generalized circle at a time with scalar NumPy calls.  None shares
logic with the implementation under test; the medial and reduction
oracles build through the package's ``surface_from_walks``, the existence
oracle only reports in its certificate type and with its tolerances, the
developing-map oracle in its canonical choice of period basis, the angle
checks use the package's vertex angle sums and the reduced functional its
Clausen function.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from circlepatterns import specfun
from circlepatterns.feasibility import (_ROUND_BITS, EQ_TOL, STRICT_TOL, FeasibilityCertificate,
                                       FlowNetwork, _half_demands)
from circlepatterns.functional import PatternSpec, phi_of_rho, radii_from_rho, validate_cas
from circlepatterns.layout import _canonical_basis
from circlepatterns.spherical import Reduction, SphereConditionError
from circlepatterns.surface import (OPEN, DanglingEdgeError, DisconnectedSurfaceError,
                                   NonManifoldError, SurfaceError, TwinError,
                                   euler_characteristic, surface_from_walks,
                                   vertex_angle_sums)
from helpers import dual

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


def edge_auxiliaries(spec, rho):
    """The conjugate variables (p, s) per unoriented edge (canonical reps):
    tan(p/2) = tan(theta*/2) tanh((rho_k - rho_j)/2), and likewise s with
    rho_k + rho_j."""
    srf = spec.surface
    rj = rho[srf.edge_left]
    rk = rho[srf.edge_right]
    half_tan = np.tan(0.5 * spec.theta_star)
    return (2.0 * np.arctan(half_tan * np.tanh(0.5 * (rk - rj))),
            2.0 * np.arctan(half_tan * np.tanh(0.5 * (rk + rj))))


# -- coordinate descent --------------------------------------------------------------
#
# S minimised one face at a time, in the manner of Colin de Verdiere's
# radius adjustment: the reference minimiser that Newton is compared with.

def _kite_angle(x, theta):
    """y = atan2(e^x sin theta, 1 - e^x cos theta) and dy/dx.

    For x > 0 both arguments of atan2 are divided by e^x, which keeps them
    finite; dy/dx = e^x sin theta / (1 - 2 e^x cos theta + e^2x)
    = sin theta / (2 cosh x - 2 cos theta).
    """
    x = np.asarray(x, dtype=float)
    s, c = np.sin(theta), np.cos(theta)
    e = np.exp(-np.abs(x))
    y = np.where(x > 0.0, np.arctan2(s, e - c), np.arctan2(e * s, 1.0 - e * c))
    with np.errstate(over="ignore"):
        dy = s / (2.0 * np.cosh(x) - 2.0 * c)
    return y, dy


def _coordinate_gradient(spec, rho):
    """Phi_f - 2 sum of the kite half-angles over the boundary walk of f."""
    srf = spec.surface
    theta = spec.theta[srf.oe_edge]
    phi, _ = _kite_angle(rho[srf.oe_right] - rho[srf.oe_left], theta)
    if spec.is_hyperbolic:
        phi = phi - _kite_angle(rho[srf.oe_right] + rho[srf.oe_left], theta)[0]
    return spec.phi - 2.0 * np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces)


def coordinate_step(spec, rho, f):
    """The minimiser of S in rho_f with every other rho fixed.

    dS/drho_f = Phi_f - 2 sum phi is strictly increasing in rho_f, so
    its root is bracketed by doubling steps and then found by Newton
    steps that fall back to bisection when they leave the bracket.
    """
    rho = np.asarray(rho, dtype=float)
    srf = spec.surface
    walk = np.array(srf.face_walk(f), dtype=np.intp)
    rights = srf.oe_right[walk]
    own = rights == f    # an edge from f to itself keeps x = 0
    theta = spec.theta[srf.oe_edge[walk]]
    target = spec.phi[f]

    def g_and_slope(t):
        others = np.where(own, t, rho[rights])
        phi, dy = _kite_angle(others - t, theta)
        dphi = np.where(own, 0.0, -dy)
        if spec.is_hyperbolic:
            y, dy = _kite_angle(others + t, theta)
            phi = phi - y
            dphi = dphi - np.where(own, 2.0 * dy, dy)
        return target - 2.0 * phi.sum(), -2.0 * dphi.sum()

    t = float(rho[f])
    lo = hi = t
    glo = ghi = g_and_slope(t)[0]
    step = 1.0
    for _ in range(200):
        if glo <= 0.0 <= ghi:
            break
        if glo > 0.0:
            lo -= step
            glo = g_and_slope(lo)[0]
        if ghi < 0.0:
            hi += step
            ghi = g_and_slope(hi)[0]
        step *= 2.0
    else:
        raise RuntimeError(f"no bracket for the coordinate minimum of face {f}")
    for _ in range(100):
        g, slope = g_and_slope(t)
        if abs(g) <= 1e-14 * max(1.0, abs(target)):
            break
        if g > 0.0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        t_new = t - g / slope if slope > 0.0 else t
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
    return t


def coordinate_descent(spec, grad_tol=1e-10, max_steps=100_000):
    """The minimiser of S by sweeps of coordinate_step over the faces,
    from rho = 0 (Euclidean, normalized to sum(rho) = 0) or rho = -1
    (hyperbolic), until the gradient max-norm is at most ``grad_tol``."""
    n = spec.surface.n_faces
    rho = np.full(n, -1.0) if spec.is_hyperbolic else np.zeros(n)
    steps = 0
    while np.abs(_coordinate_gradient(spec, rho)).max() > grad_tol:
        assert steps < max_steps, f"no convergence in {max_steps} coordinate steps"
        for f in range(n):
            rho[f] = coordinate_step(spec, rho, f)
        steps += n
        if not spec.is_hyperbolic:
            rho -= rho.mean()
    return rho


# -- bit-identity references --------------------------------------------------------
#
# The kernels as they were before their trims: Clausen's series by Horner
# into fresh arrays, both arctan2 branches evaluated, and the Hessian summed
# by scipy's COO to CSR conversion.  The trimmed kernels must agree with
# them bit for bit.

def clausen_reference(x):
    arr = np.asarray(x, dtype=float)
    y = np.remainder(arr, TWO_PI)
    y = np.where(y > np.pi, y - TWO_PI, y)
    a = np.abs(y)
    acc = np.zeros_like(a)
    t = a * a
    for c in specfun._SERIES[::-1]:
        acc = acc * t + c
    with np.errstate(divide="ignore", invalid="ignore"):
        main = np.where(a > 0.0, a * (1.0 - np.log(np.where(a > 0.0, a, 1.0))), 0.0)
    return np.sign(y) * (main + acc * t * a)


def im_li2_dx_reference(x, theta):
    xa = np.asarray(x, dtype=float)
    ta = np.asarray(theta, dtype=float)
    s = np.sin(ta)
    c = np.cos(ta)
    pos = xa > 0.0
    ex = np.exp(np.where(pos, -xa, xa))
    return np.where(pos, np.arctan2(s + 0.0 * ex, ex - c), np.arctan2(ex * s, 1.0 - ex * c))


def hessian_coo_reference(spec, rho):
    srf = spec.surface
    j = srf.edge_left
    k = srf.edge_right
    th = spec.theta

    def weights(x):
        with np.errstate(over="ignore"):
            w = np.sin(th) / (np.cosh(x) - np.cos(th))
        return np.where(np.abs(x) > 700.0, 0.0, w)

    wm = weights(rho[k] - rho[j])
    rows, cols, vals = [j, k, j, k], [j, k, k, j], [wm, wm, -wm, -wm]
    if spec.is_hyperbolic:
        wp = weights(rho[k] + rho[j])
        rows += [j, k, j, k]
        cols += [j, k, k, j]
        vals += [wp, wp, wp, wp]
    n = srf.n_faces
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n)).tocsr()


def solve_grounded_reference(L, rhs):
    """The zero-sum x with L x = rhs for a dual-graph Laplacian L, grounded
    at face 0 and solved in the minimum degree order of the grounded system
    itself, computed anew for every call, by SuperLU in its symmetric mode;
    an exactly singular system gives NaN."""
    x = np.zeros(len(rhs))
    try:
        lu = spla.splu(L.tocsc()[1:, 1:], permc_spec="MMD_AT_PLUS_A",
                       options=dict(SymmetricMode=True))
    except RuntimeError:   # exactly singular
        return np.full(len(rhs), np.nan)
    x[1:] = lu.solve(rhs[1:])
    return x - x.mean()


def repair_angles_reference(spec, phi):
    """Euclidean ``feasibility.repair_angles`` through the face-edge
    incidence B of the dual graph: the pair sums made exact, then a = B^T y
    with B B^T y = r' / 2 added to each representative half-edge and taken
    from its twin, B B^T formed and solved on every call."""
    srf = spec.surface
    phi = np.array(phi, dtype=float)
    demands = _half_demands(spec)
    r = 2.0 * (demands - np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces))
    if not np.abs(r).max() < phi.min():
        return None
    reps, twins = srf.edge_reps, srf.oe_twin[srf.edge_reps]
    phi += 0.5 * (spec.theta_star - phi[reps] - phi[twins])[srf.oe_edge]
    r = 2.0 * (demands - np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces))
    E = srf.n_edges
    B = sp.csr_array((np.repeat([1.0, -1.0], E),
                      (np.concatenate([srf.edge_left, srf.edge_right]),
                       np.tile(np.arange(E), 2))), shape=(srf.n_faces, E))
    a = B.T @ solve_grounded_reference(B @ B.T, 0.5 * r)
    phi[reps] += a
    phi[twins] -= a
    report = validate_cas(spec, phi)
    if not (report.is_valid(1e-8) and report.min_phi > STRICT_TOL):
        return None
    return phi


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
    test for the first two, but the cut as a set of nodes.
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


def residual_layout_reference(tail, head, n_nodes):
    """The CSR layout of ``feasibility._ResidualNetwork`` as it was first
    built: ``np.unique`` numbers the node pairs, a second, stable argsort
    groups the arcs by pair and ``searchsorted`` finds the row starts and
    the first arc of every pair.  Returns the fields by name."""
    tails = np.concatenate([head, tail])
    heads = np.concatenate([tail, head])
    keys, pair = np.unique(tails * n_nodes + heads, return_inverse=True)
    by_pair = np.argsort(pair, kind="stable")
    sorted_pair = pair[by_pair]
    most_arcs = int(np.bincount(pair).max())
    return {
        "keys": keys, "pair": pair,
        "indices": (keys % n_nodes).astype(np.int32),
        "indptr": np.searchsorted(keys, np.arange(n_nodes + 1) * n_nodes).astype(np.int32),
        "by_pair": by_pair,
        "group_first": np.searchsorted(sorted_pair, sorted_pair),
        "round_bits": min(_ROUND_BITS, 31 - (most_arcs - 1).bit_length()),
    }


def euclidean_box_network(spec, eps):
    """The Euclidean systems with floor eps as flows on the box form.

    Reference for the dual form ``feasibility.build_flow_network`` builds
    for Euclidean data.  The box sends face f at least its demand (the
    unbounded upper bound lets the face take more), the face sends at
    least eps to the edge of each half-edge of its boundary walk, and edge
    e sends at most theta*_e to the box, net of what the box-to-edge
    branch returns.  The demands sum to sum(theta*), so a feasible flow
    meets each demand and each pair sum exactly.  At eps = 0 this is
    Picard's maximum-closure network, whose violating face sets lie on
    the source side of its min cuts.
    """
    srf = spec.surface
    F, E = srf.n_faces, srf.n_edges
    box = F + E
    edges = F + np.arange(E)
    return FlowNetwork(
        n_nodes=F + E + 1,
        tail=np.concatenate([np.full(F, box), srf.oe_left, edges, np.full(E, box)]),
        head=np.concatenate([np.arange(F), F + srf.oe_edge, np.full(E, box), edges]),
        lower=np.concatenate([_half_demands(spec), np.full(srf.n_oriented_edges, eps),
                              np.zeros(2 * E)]),
        upper=np.concatenate([np.full(F + srf.n_oriented_edges, np.inf),
                              spec.theta_star, np.full(E, np.inf)]),
        phi_branch=F + np.arange(srf.n_oriented_edges),
    )


# -- existence by enumeration ----------------------------------------------------

def check_conditions_bruteforce(spec):
    """Exact verdict by enumerating all nonempty face subsets.

    Guarded to |F| <= 20.  Does not construct an angle system;
    ``half_angles`` is None even when feasible.
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


# -- Rivin's cocycle condition and the higher-genus cut condition -----------------

@dataclass
class CocycleVerdict:
    satisfied: bool
    violating_edges: tuple = ()
    theta_sum: float = 0.0
    message: str = ""


def _require_flat_vertices(surface, theta, tol=1e-8):
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (surface.n_edges,):
        raise ValueError(f"theta must have {surface.n_edges} entries")
    if np.any(theta <= 0.0) or np.any(theta >= np.pi):
        raise ValueError("theta must lie strictly in (0, pi)")
    sums = vertex_angle_sums(surface, theta)
    bad = np.abs(sums - 2.0 * np.pi) > tol
    if np.any(bad):
        v = int(np.argmax(bad))
        raise ValueError(
            f"theta must sum to 2*pi around every vertex; vertex {v} "
            f"sums to {sums[v]:.12g}")
    return theta


def _simple_dual_cycles(surface):
    """Edge sets of all simple cycles of the dual 1-skeleton."""
    loops = []
    adj = [[] for _ in range(surface.n_faces)]
    for e, (u, v) in enumerate(zip(surface.edge_left.tolist(), surface.edge_right.tolist())):
        if u == v:
            loops.append(frozenset([e]))
        else:
            adj[u].append((e, v))
            adj[v].append((e, u))
    cycles = set(loops)

    def dfs(anchor, node, visited, used, path):
        for e, w in adj[node]:
            if e in used:
                continue
            if w == anchor and path:
                cycles.add(frozenset(path + [e]))
            elif w not in visited and w > anchor:
                visited.add(w)
                used.add(e)
                path.append(e)
                dfs(anchor, w, visited, used, path)
                path.pop()
                used.discard(e)
                visited.discard(w)
    for a in range(surface.n_faces):
        dfs(a, a, {a}, set(), [])
    return cycles


def check_rivin_condition(surface, theta, tol=1e-9):
    """Cocycle condition on a closed genus-0 surface with exterior angles.

    Every simple cocycle must have theta-sum at least 2*pi, with equality
    permitted only for the coboundary of a single vertex.  Enumerates every
    simple cycle of the dual 1-skeleton, so it is exponential in |E|.
    """
    _, genus = euler_characteristic(surface)
    if not surface.is_closed or genus != 0:
        raise ValueError("the cocycle condition applies to closed genus-0 surfaces")
    theta = _require_flat_vertices(surface, theta)
    fan_edges, offsets = surface.oe_edge[surface.fan_edges].tolist(), surface.fan_offsets.tolist()
    coboundaries = {frozenset(fan_edges[a:b]) for a, b in zip(offsets[:-1], offsets[1:])}
    for cycle in sorted(_simple_dual_cycles(surface), key=sorted):
        s = float(theta[list(cycle)].sum())
        if s < TWO_PI - tol:
            return CocycleVerdict(False, tuple(sorted(cycle)), s,
                                  "cocycle sum below 2*pi")
        if s <= TWO_PI + tol and cycle not in coboundaries:
            return CocycleVerdict(False, tuple(sorted(cycle)), s,
                                  "equality on a cocycle that is not a "
                                  "single-vertex coboundary")
    return CocycleVerdict(True)


@dataclass
class RegionPiece:
    faces: tuple
    euler_characteristic: int
    h1: int
    is_disc: bool
    face_count: int
    boundary_theta_sum: float | None = None


def region_decomposition(surface, cut, theta=None):
    """Cut a closed surface along a set of its edges and analyse the pieces.

    Returns a list of RegionPiece.  Each piece's Euler characteristic is
    counted on the cut-open surface (cut edges contribute one boundary
    copy per side, vertices split into one copy per fan sector between
    cut edge-ends).  The first-homology dimension is 1 - chi for pieces
    with boundary and 2 - chi for closed pieces; the generalized Euler
    identity  r - |cut| + |V(cut)| = 2 - 2g + sum(h_j)  is asserted as a
    self-check.
    """
    if not surface.is_closed:
        raise ValueError("region decomposition requires a closed surface")
    cutset = {int(e) for e in cut}
    if not cutset:
        raise ValueError("cut must be a non-empty set of edges")
    if theta is not None:
        theta = np.asarray(theta, dtype=float)

    parent = list(range(surface.n_faces))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    left, right = surface.edge_left.tolist(), surface.edge_right.tolist()
    for e in range(surface.n_edges):
        if e in cutset:
            continue
        ra, rb = find(left[e]), find(right[e])
        if ra != rb:
            parent[ra] = rb

    roots = sorted({find(f) for f in range(surface.n_faces)})
    index = {r: i for i, r in enumerate(roots)}
    n_pieces = len(roots)
    faces_of = [[] for _ in range(n_pieces)]
    for f in range(surface.n_faces):
        faces_of[index[find(f)]].append(f)

    n_vertices = np.zeros(n_pieces, dtype=int)
    n_edges = np.zeros(n_pieces, dtype=int)
    sides = np.zeros(n_pieces, dtype=int)
    theta_sum = np.zeros(n_pieces)

    for e in range(surface.n_edges):
        if e in cutset:
            for side in (left[e], right[e]):
                p = index[find(side)]
                n_edges[p] += 1
                sides[p] += 1
                if theta is not None:
                    theta_sum[p] += theta[e]
        else:
            n_edges[index[find(left[e])]] += 1

    for v in range(surface.n_vertices):
        fan = surface.fan_edges[surface.fan_offsets[v]:surface.fan_offsets[v + 1]]
        fan_faces = surface.oe_left[fan].tolist()
        cut_positions = [i for i, e in enumerate(surface.oe_edge[fan].tolist()) if e in cutset]
        if not cut_positions:
            n_vertices[index[find(fan_faces[0])]] += 1
            continue
        # one vertex copy per fan sector between consecutive cut edge-ends;
        # the sector starting at a cut ray contains the face on its left
        for start in cut_positions:
            p = index[find(fan_faces[start])]
            n_vertices[p] += 1

    pieces = []
    for p in range(n_pieces):
        chi = int(n_vertices[p] - n_edges[p] + len(faces_of[p]))
        has_boundary = sides[p] > 0
        h1 = (1 - chi) if has_boundary else (2 - chi)
        pieces.append(RegionPiece(
            faces=tuple(faces_of[p]),
            euler_characteristic=chi,
            h1=h1,
            is_disc=has_boundary and chi == 1,
            face_count=len(faces_of[p]),
            boundary_theta_sum=float(theta_sum[p]) if theta is not None else None,
        ))

    h = surface.edge_reps[sorted(cutset)]
    cut_vertices = set(surface.oe_origin[np.concatenate((h, surface.oe_twin[h]))].tolist())
    _, genus = euler_characteristic(surface)
    lhs = n_pieces - len(cutset) + len(cut_vertices)
    rhs = 2 - 2 * genus + sum(pc.h1 for pc in pieces)
    if lhs != rhs:
        raise AssertionError(
            f"generalized Euler identity failed: {lhs} != {rhs} "
            f"(cut={sorted(cutset)})")
    return pieces


def check_higher_genus_condition(surface, theta, tol=1e-9):
    """Cut-enumeration condition for positive-genus surfaces.

    Cutting the dual surface along every nonempty edge subset, every disc
    piece must carry a boundary theta-sum of at least 2*pi, with equality
    only for single-face pieces.  Exponential in |E|.
    """
    _, genus = euler_characteristic(surface)
    if genus is None or genus < 1:
        raise ValueError("the cut condition applies to closed surfaces of genus >= 1")
    theta = _require_flat_vertices(surface, theta)
    E = surface.n_edges
    dual_s = dual(surface)
    for mask in range(1, 1 << E):
        cut = [e for e in range(E) if mask >> e & 1]
        for piece in region_decomposition(dual_s, cut, theta):
            if not piece.is_disc:
                continue
            s = piece.boundary_theta_sum
            if piece.face_count == 1:
                if s < TWO_PI - tol:
                    return CocycleVerdict(False, tuple(cut), s,
                                          "single-face disc below 2*pi")
            elif s <= TWO_PI + tol:
                return CocycleVerdict(False, tuple(cut), s,
                                      f"disc piece with {piece.face_count} "
                                      f"faces has boundary sum <= 2*pi")
    return CocycleVerdict(True)


# -- the reduced angle functional and rho from an angle system --------------------

class InvalidCASError(ValueError):
    """A coherent angle system failed its defining (in)equalities."""


def hamiltonian_reduced(spec, phi, tol=1e-8):
    """Value of the constrained angle functional on a coherent angle system,
    its half-angles ``phi`` per oriented edge.

    Euclidean: sum over oriented edges of Cl(2 phi_e) + Cl(2 theta_e)/2.
    Hyperbolic: per unoriented edge,
        Cl(th*+p) + Cl(th*-p) + Cl(th*+s) + Cl(th*-s) - 2 Cl(2 th*)
    with p = phi_e - phi_-e and s = -(phi_e + phi_-e).  Independent of any
    radii; equals S(rho*) at critical points.
    """
    report = validate_cas(spec, phi)
    if not report.is_valid(tol):
        raise InvalidCASError(f"not a coherent angle system: {report}")
    srf = spec.surface
    phi = np.asarray(phi, dtype=float)
    if not spec.is_hyperbolic:
        th_oe = spec.theta[srf.oe_edge]
        return float(np.sum(specfun.clausen(2.0 * phi)
                            + 0.5 * specfun.clausen(2.0 * th_oe)))
    reps = srf.edge_reps
    ts = spec.theta_star
    p = phi[reps] - phi[srf.oe_twin[reps]]
    s = -(phi[reps] + phi[srf.oe_twin[reps]])
    return float(np.sum(specfun.clausen(ts + p) + specfun.clausen(ts - p)
                        + specfun.clausen(ts + s) + specfun.clausen(ts - s)
                        - 2.0 * specfun.clausen(2.0 * ts)))


def rho_from_cas(spec, phi):
    """Recover rho from the half-angles ``phi`` of a coherent angle system;
    returns (rho, residual).

    Euclidean: integrates rho_k - rho_j = log(sin phi_e / sin(phi_e + theta))
    over a spanning tree of the dual graph and reports the largest cycle
    inconsistency; the result is normalized to sum to zero.  Hyperbolic:
    evaluates the per-face closed form from every incident oriented edge
    and reports the largest disagreement.  A large residual means the
    system is not the angle system of any critical point.
    """
    report = validate_cas(spec, phi)
    if report.min_phi <= 0.0:
        raise InvalidCASError("phi must be positive")
    srf = spec.surface
    phi = np.asarray(phi, dtype=float)

    if spec.is_hyperbolic:
        ts = spec.theta_star[srf.oe_edge]
        fe = phi
        fo = phi[srf.oe_twin]
        num = np.sin(0.5 * (ts - fe - fo)) * np.sin(0.5 * (ts - fe + fo))
        den = np.sin(0.5 * (ts + fe + fo)) * np.sin(0.5 * (ts + fe - fo))
        if np.any(num <= 0.0) or np.any(den <= 0.0):
            raise InvalidCASError("angle system leaves the hyperbolic domain")
        est = 0.5 * np.log(num / den)
        rho = np.zeros(srf.n_faces)
        counts = np.zeros(srf.n_faces)
        np.add.at(rho, srf.oe_left, est)
        np.add.at(counts, srf.oe_left, 1.0)
        rho /= counts
        residual = float(np.abs(est - rho[srf.oe_left]).max())
        return rho, residual

    theta_oe = spec.theta[srf.oe_edge]
    delta = np.log(np.sin(phi) / np.sin(phi + theta_oe))  # rho_right - rho_left
    n = srf.n_faces
    rho = np.full(n, np.nan)
    rho[0] = 0.0
    queue = [0]
    adj = [[] for _ in range(n)]
    for h in range(srf.n_oriented_edges):
        adj[srf.oe_left[h]].append(h)
    while queue:
        f = queue.pop()
        for h in adj[f]:
            g = srf.oe_right[h]
            if np.isnan(rho[g]):
                rho[g] = rho[f] + delta[h]
                queue.append(g)
    residual = float(np.abs(delta - (rho[srf.oe_right] - rho[srf.oe_left])).max())
    rho -= rho.mean()
    return rho, residual


# -- surface tables, one oriented edge at a time --------------------------------

def surface_tables_reference(origin, left_face, twin, next_in_face, edge_id=None):
    """prev, the face walks and vertex fans with their boundary flags, the
    edge ids and the edge representatives of an oriented-edge table, each
    as a tuple; raises the constructor's exception on a malformed table."""
    origin, left, twin, next_ = (tuple(map(int, c)) for c in
                                 (origin, left_face, twin, next_in_face))
    n = len(origin)
    if any(len(c) != n for c in (left, twin, next_)):
        raise SurfaceError("oriented-edge table columns have unequal lengths")
    if not n:
        raise SurfaceError("empty surface")
    for h, t in enumerate(twin):
        if not 0 <= t < n:
            raise DanglingEdgeError(f"oriented edge {h} has twin {t} out of range")
        if t == h:
            raise TwinError(f"oriented edge {h} is its own twin")
        if twin[t] != h:
            raise TwinError(f"twin of {h} is {t} but twin of {t} is {twin[t]}")

    prev = [OPEN] * n
    for h, nx in enumerate(next_):
        if nx == OPEN:
            continue
        if not 0 <= nx < n:
            raise SurfaceError(f"next of {h} out of range")
        if left[nx] != left[h]:
            raise SurfaceError(f"next of {h} leaves its face")
        if prev[nx] != OPEN:
            raise SurfaceError(f"oriented edge {nx} is the next of two edges")
        prev[nx] = h
        if origin[nx] != origin[twin[h]]:
            raise SurfaceError(f"walk broken at {h}: next origin differs from terminus")

    def grouped(ids, negative, gap):
        by = {}
        for h, g in enumerate(ids):
            if g < 0:
                raise negative(h)
            by.setdefault(g, []).append(h)
        if set(by) != set(range(max(by) + 1)):
            raise gap
        return [by[g] for g in range(len(by))]

    def walks(groups, back, step, chains_error, single_error):
        out, flags = [], []
        for g, members in enumerate(groups):
            starts = [h for h in members if back(h) == OPEN]
            if len(starts) > 1:
                raise chains_error(g, len(starts))
            walk = []
            h = first = starts[0] if starts else min(members)
            while True:
                walk.append(h)
                h = step(h)
                if h == OPEN or h == first:
                    break
            if len(walk) != len(members):
                raise single_error(g)
            out.append(tuple(walk))
            flags.append(bool(starts))
        return tuple(out), tuple(flags)

    faces = grouped(left, lambda h: DanglingEdgeError(
        f"oriented edge {h} has no face on its left"),
        SurfaceError("face ids are not contiguous"))
    face_walks, face_bd = walks(
        faces, lambda h: prev[h], lambda h: next_[h],
        lambda f, k: SurfaceError(f"face {f} has {k} open walks; only one is supported"),
        lambda f: SurfaceError(f"face {f} boundary is not a single walk"))
    vertices = grouped(origin, lambda h: SurfaceError(
        f"oriented edge {h} has negative origin"),
        SurfaceError("vertex ids are not contiguous (isolated vertex?)"))
    # a fan turns counterclockwise from where the clockwise turn next(twin) ends
    fans, vertex_bd = walks(
        vertices, lambda h: next_[twin[h]],
        lambda h: twin[prev[h]] if prev[h] != OPEN else OPEN,
        lambda v, k: NonManifoldError(f"vertex {v} has {k} fan chains"),
        lambda v: NonManifoldError(f"vertex {v} fan is not a single cycle or chain"))

    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        h = stack.pop()
        for g in (twin[h], next_[h], prev[h]):
            if g != OPEN and not seen[g]:
                seen[g] = True
                stack.append(g)
    if not all(seen):
        raise DisconnectedSurfaceError("oriented-edge structure is disconnected")

    if edge_id is not None:
        eid = [int(e) for e in edge_id]
        if len(eid) != n:
            raise SurfaceError("edge_id length mismatch")
        if any(eid[h] != eid[twin[h]] for h in range(n)):
            raise SurfaceError("edge_id differs between twins")
        if sorted(set(eid)) != list(range(max(eid) + 1)):
            raise SurfaceError("edge ids are not contiguous")
    else:
        eid = [-1] * n
        count = 0
        for h in range(n):
            if eid[h] < 0:
                eid[h] = eid[twin[h]] = count
                count += 1
    reps = [-1] * (max(eid) + 1)
    for h in range(n):
        if reps[eid[h]] < 0:
            reps[eid[h]] = h
    return {"prev": tuple(prev), "face_walks": face_walks, "face_is_boundary": face_bd,
            "vertex_fans": fans, "vertex_is_boundary": vertex_bd,
            "edge_id": tuple(eid), "edge_rep": tuple(reps)}


def medial_reference(s):
    """The medial decomposition from token walks: face f's walk crosses
    the midpoints of its edges, vertex v's walk the corners of its fan."""
    edge, twin = s.oe_edge.tolist(), s.oe_twin.tolist()
    walks = [([(edge[h], h, 1) for h in s.face_walk(f)], True)
             for f in range(s.n_faces)]
    for v in range(s.n_vertices):
        fan = s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]].tolist()
        walks.append(([(edge[g], twin[fan[(i + 1) % len(fan)]], -1)
                       for i, g in enumerate(fan)], True))
    return surface_from_walks(walks)


# -- spherical caps, one circle at a time -------------------------------------

def stereographic_inverse_reference(z):
    """Plane to the unit sphere for one complex number; inf to the north pole."""
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        return np.array([0.0, 0.0, 1.0])
    n2 = z.real * z.real + z.imag * z.imag
    return np.array([2.0 * z.real, 2.0 * z.imag, n2 - 1.0]) / (n2 + 1.0)


def cap_reference(obj):
    """(axis, angular radius) of the cap of one generalized circle, through
    the images of three of its points, oriented towards the image of its
    center or of the point one normal off a line."""
    if isinstance(obj, Circle):
        c, r = obj.center, obj.radius
        p1, p2, p3 = [stereographic_inverse_reference(c + r * np.exp(1j * a))
                      for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)]
        interior = c
    else:
        tangent = complex(-obj.normal.imag, obj.normal.real)
        p1 = stereographic_inverse_reference(obj.point - tangent)
        p2 = stereographic_inverse_reference(obj.point + tangent)
        p3 = np.array([0.0, 0.0, 1.0])
        interior = obj.point + obj.normal
    n = np.cross(p2 - p1, p3 - p1)
    n = n / np.linalg.norm(n)
    d = float(n @ p1)
    if float(n @ stereographic_inverse_reference(interior)) < d:
        n, d = -n, -d
    return n, math.acos(min(1.0, max(-1.0, d)))


def reduce_to_plane_reference(p):
    """The reduction of a spherical problem from token walks, one face at a
    time: the kept edges of a face that loses some form one arc, which
    becomes an open walk from its first edge; Phi subtracts 2 theta* of the
    removed edges in walk order."""
    s = p.surface
    origin, left, edge, reps = (a.tolist() for a in (s.oe_origin, s.oe_left, s.oe_edge,
                                                     s.edge_reps))
    terminus = s.oe_origin[s.oe_twin].tolist()
    v = p.v_infinity
    f_inf = set(s.oe_left[s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]]].tolist())
    removed_edges = {edge[h] for h in range(s.n_oriented_edges) if left[h] in f_inf}
    kept_faces = [f for f in range(s.n_faces) if f not in f_inf]
    if not kept_faces:
        raise SphereConditionError("every face is incident with v_infinity")
    kept_edges = sorted(set(range(s.n_edges)) - removed_edges)
    kept_vertices = sorted({origin[reps[e]] for e in kept_edges}
                           | {terminus[reps[e]] for e in kept_edges})
    disconnected = ("removing the faces around v_infinity disconnects the "
                    "dual 1-skeleton")
    if not kept_edges:
        if len(kept_faces) != 1:
            raise SphereConditionError(disconnected)
        return Reduction(None, kept_faces, kept_edges, kept_vertices)
    edge_index = {e: i for i, e in enumerate(kept_edges)}
    vertex_index = {v: i for i, v in enumerate(kept_vertices)}
    walks, phi = [], []
    for f in kept_faces:
        walk = s.face_walk(f)
        kept = [edge[h] not in removed_edges for h in walk]
        if not any(kept):
            raise SphereConditionError(disconnected)
        k = len(walk)
        start = next((i for i in range(k) if kept[i] and not kept[i - 1]), 0)
        arc = []
        while len(arc) < k and kept[(start + len(arc)) % k]:
            arc.append(walk[(start + len(arc)) % k])
        if len(arc) != sum(kept):
            raise SphereConditionError(
                f"face {f} keeps several disjoint boundary arcs; "
                f"the reduced surface is not representable")
        walks.append(([(vertex_index[origin[h]], edge_index[edge[h]],
                        1 if h == reps[edge[h]] else -1) for h in arc],
                      all(kept)))
        phi.append(TWO_PI - 2.0 * sum(p.theta_star[edge[h]] for h in walk
                                      if edge[h] in removed_edges))
    try:
        reduced = surface_from_walks(walks, edge_order=range(len(kept_edges)))
    except DisconnectedSurfaceError as exc:
        raise SphereConditionError(disconnected) from exc
    phi = np.asarray(phi)
    if np.any(phi <= 0.0):
        f = kept_faces[int(np.argmin(phi))]
        raise SphereConditionError(
            f"boundary face {f} would get nonpositive cone angle "
            f"{phi.min():.12g}; the subset conditions fail")
    return Reduction(PatternSpec(reduced, "euclidean", p.theta_star[kept_edges], phi),
                     kept_faces, kept_edges, kept_vertices)


# -- developing map, one kite at a time ------------------------------------------

@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float


@dataclass(frozen=True)
class Line:
    """A circle of infinite radius; the disk side is the normal side."""
    point: complex
    normal: complex


@dataclass
class ScalarLayout:
    """A layout as scalar objects: face -> Circle | Line, vertex -> complex
    and, for a hyperbolic pattern, face -> (disk center, hyperbolic radius)."""
    geometry: str
    circles: dict
    vertex_points: dict
    kites: np.ndarray
    kite_edges: np.ndarray
    closure_residual: float
    periods: tuple | None = None
    hyperbolic_circles: dict = field(default_factory=dict)


def hyperbolic_circle_to_euclidean(center: complex, radius: float) -> Circle:
    """Render a hyperbolic circle (disk-model center, hyperbolic radius)
    as the Euclidean circle it traces in the Poincare disk."""
    t = math.tanh(0.5 * radius)
    s2 = abs(center) ** 2
    denom = 1.0 - s2 * t * t
    return Circle(center * (1.0 - t * t) / denom, t * (1.0 - s2) / denom)


def scalar_layout(result):
    """The rows of a ``layout.LayoutResult`` as a ``ScalarLayout``."""
    circles, hyp = {}, {}
    for i, (f, c, r, n) in enumerate(zip(result.faces.tolist(), result.centers.tolist(),
                                         result.radii.tolist(), result.normals.tolist())):
        circles[f] = Line(c, n) if math.isinf(r) else Circle(c, r)
        if result.hyperbolic_centers is not None:
            hyp[f] = (complex(result.hyperbolic_centers[i]), float(result.hyperbolic_radii[i]))
    return ScalarLayout(
        result.geometry, circles, dict(zip(result.vertices.tolist(), result.points.tolist())),
        result.kites, result.kite_edges, result.closure_residual,
        result.periods, hyp)


class EuclideanFrame:
    """Orientation-preserving similarities z -> a z + b with |a| = 1."""

    @staticmethod
    def from_sides(q1, q2, z1, z2):
        a = (z2 - z1) / (q2 - q1)
        return a, z1 - a * q1

    @staticmethod
    def apply(t, z):
        a, b = t
        return a * z + b

    @staticmethod
    def dist(z, w):
        return abs(z - w)


class HyperbolicFrame:
    """Disk isometries z -> (a z + b) / (conj(b) z + conj(a))."""

    @staticmethod
    def _translation(w):
        return np.array([[1.0, w], [np.conj(w), 1.0]], dtype=complex)

    @classmethod
    def from_sides(cls, q1, q2, z1, z2):
        to_origin_q = np.array([[1.0, -q1], [-np.conj(q1), 1.0]], dtype=complex)
        to_origin_z = np.array([[1.0, -z1], [-np.conj(z1), 1.0]], dtype=complex)
        q2p = cls.apply(to_origin_q, q2)
        z2p = cls.apply(to_origin_z, z2)
        beta = np.angle(z2p) - np.angle(q2p)
        rot = np.array([[np.exp(0.5j * beta), 0.0], [0.0, np.exp(-0.5j * beta)]])
        m = cls._translation(z1) @ rot @ to_origin_q
        return m / np.sqrt(abs(np.linalg.det(m)))

    @staticmethod
    def apply(t, z):
        return (t[0, 0] * z + t[0, 1]) / (t[1, 0] * z + t[1, 1])

    @staticmethod
    def dist(z, w):
        q = abs((z - w) / (1.0 - np.conj(w) * z))
        return 2.0 * np.arctanh(min(q, 1.0 - 1e-16))


def _scalar_kite(spec, radii, phi, e):
    """Local corners (P_u, C_k, P_w, C_j) of the kite of edge e."""
    srf = spec.surface
    rj, rk = float(radii[srf.edge_left[e]]), float(radii[srf.edge_right[e]])
    theta, pj = float(spec.theta[e]), float(phi[srf.edge_reps[e]])
    if spec.is_hyperbolic:
        cd = math.acosh(math.cosh(rj) * math.cosh(rk)
                        - math.sinh(rj) * math.sinh(rk) * math.cos(theta))
        ck, rad = math.tanh(0.5 * cd), math.tanh(0.5 * rj)
    else:
        ck = math.sqrt(rj * rj + rk * rk - 2.0 * rj * rk * math.cos(theta))
        rad = rj
    return (rad * complex(math.cos(pj), -math.sin(pj)), complex(ck, 0.0),
            rad * complex(math.cos(pj), math.sin(pj)), 0j)


def _side_plus(srf, e, kite, corner):
    """(vertex point, center) of corner's side in the kite of edge(corner)."""
    pu, ck, pw, cj = kite
    return (pw, cj) if corner == srf.edge_reps[e] else (pu, ck)


def _side_minus(srf, e, kite, corner):
    """The same side in the kite of edge(next(corner))."""
    pu, ck, pw, cj = kite
    return (pu, cj) if srf.oe_next[corner] == srf.edge_reps[e] else (pw, ck)


def extract_periods_scalar(diffs, scale):
    """Sorted scan and lattice reduction, one mismatch at a time."""
    tol = 1e-9 * max(scale, 1e-30)
    vs = sorted((d for d in diffs if abs(d) > tol), key=abs)
    if not vs:
        return None, max((abs(d) for d in diffs), default=0.0)
    v1 = vs[0]
    v2 = next((v for v in vs if abs((np.conj(v1) * v).imag) > tol * abs(v1)), None)
    if v2 is None:
        return (v1, v1), max(abs(d - round((np.conj(v1) * d).real / abs(v1) ** 2) * v1)
                             for d in diffs)
    for _ in range(60):
        v2 = v2 - round((np.conj(v1) * v2).real / abs(v1) ** 2) * v1
        if abs(v2) >= abs(v1):
            break
        v1, v2 = v2, v1
    inv = np.linalg.inv(np.array([[v1.real, v2.real], [v1.imag, v2.imag]]))
    residual = 0.0
    for d in diffs:
        k = np.round(inv @ np.array([d.real, d.imag]))
        residual = max(residual, abs(d - (k[0] * v1 + k[1] * v2)))
    return _canonical_basis(v1, v2, tol), residual


def develop_scalar(spec, rho, root_edge=0):
    """Reference for ``layout.layout``: a queue-driven BFS over the kites.

    A kite with representative h looks at edge(next(h)), edge(next(twin h)),
    edge(prev(h)), edge(prev(twin h)) in that order and places each one not
    yet placed from its own frame; every corner, center and closure
    mismatch is computed one complex number at a time.
    """
    srf = spec.surface
    origin, left, twin, nxt, prev, edge, reps = (
        a.tolist() for a in (srf.oe_origin, srf.oe_left, srf.oe_twin, srf.oe_next,
                             srf.oe_prev, srf.oe_edge, srf.edge_reps))
    rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    radii = radii_from_rho(spec.geometry, rho)
    phi = phi_of_rho(spec, rho)
    kites = [_scalar_kite(spec, radii, phi, e) for e in range(srf.n_edges)]
    frame = HyperbolicFrame if spec.is_hyperbolic else EuclideanFrame
    transforms = [None] * srf.n_edges
    if spec.is_hyperbolic:
        transforms[root_edge] = np.eye(2, dtype=complex)
    else:
        pu, _, pw, _ = kites[root_edge]
        mid = 0.5 * (pu + pw)
        a = 1.0 / ((pw - pu) / abs(pw - pu))
        transforms[root_edge] = (a, -a * mid)

    def place(e, other, corner, e_has_corner):
        if e_has_corner:
            q = _side_minus(srf, other, kites[other], corner)
            z = _side_plus(srf, e, kites[e], corner)
        else:
            q = _side_plus(srf, other, kites[other], corner)
            z = _side_minus(srf, e, kites[e], corner)
        z1, z2 = (frame.apply(transforms[e], w) for w in z)
        transforms[other] = frame.from_sides(q[0], q[1], z1, z2)

    order, queue = [root_edge], [root_edge]
    while queue:
        e = queue.pop(0)
        h = reps[e]
        scan = [(c, True) for c in (h, twin[h]) if nxt[c] != OPEN]
        scan += [(c, False) for c in (prev[h], prev[twin[h]]) if c != OPEN]
        for corner, forward in scan:
            other = edge[nxt[corner] if forward else corner]
            if transforms[other] is None:
                place(e, other, corner, forward)
                order.append(other)
                queue.append(other)
    assert all(t is not None for t in transforms), "kite adjacency is disconnected"

    placed = {e: tuple(frame.apply(transforms[e], q) for q in kites[e]) for e in order}
    vertex_points, circles, hyp = {}, {}, {}
    for e in order:
        h = reps[e]
        gu, gk, gw, gj = placed[e]
        vertex_points.setdefault(origin[h], gu)
        vertex_points.setdefault(origin[twin[h]], gw)
        for f, center in ((left[h], gj), (left[twin[h]], gk)):
            if f not in circles:
                r = float(radii[f])
                if spec.is_hyperbolic:
                    hyp[f] = (center, r)
                    circles[f] = hyperbolic_circle_to_euclidean(center, r)
                else:
                    circles[f] = Circle(center, r)
    pairs = []
    for corner in range(srf.n_oriented_edges):
        if nxt[corner] == OPEN:
            continue
        ea, eb = edge[corner], edge[nxt[corner]]
        pa = _side_plus(srf, ea, placed[ea], corner)
        pb = _side_minus(srf, eb, placed[eb], corner)
        pairs += [(pa[0], pb[0]), (pa[1], pb[1])]
    kites_out = np.array([placed[e] for e in range(srf.n_edges)], dtype=complex)
    periods = None
    if spec.is_hyperbolic:
        residual = max((frame.dist(z, w) for z, w in pairs), default=0.0)
    else:
        flat = [z - w for z, w in pairs]
        if srf.is_closed:
            xs = kites_out.ravel()
            diameter = float(abs(xs - xs.mean()).max() * 2.0)
            periods, residual = extract_periods_scalar(flat, diameter)
        else:
            residual = max((abs(d) for d in flat), default=0.0)
    return ScalarLayout(
        geometry=spec.geometry, circles=circles, vertex_points=vertex_points,
        kites=kites_out, kite_edges=np.arange(srf.n_edges),
        closure_residual=float(residual), periods=periods,
        hyperbolic_circles=hyp)


# -- JSON emission ------------------------------------------------------------------

def dumps_reference(obj, indent=0, _level=0):
    """The emitter as an isinstance chain, every string through json.dumps."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    closing = " " * (indent * _level) if indent else ""
    nl = "\n" if indent else ""
    sep = "," + (nl if indent else " ")
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            raise ValueError(f"cannot serialize non-finite float {x}")
        return "%.17g" % x
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps_reference(v, indent, _level + 1) for v in obj]
        return "[" + nl + sep.join(pad + s for s in items) + nl + closing + "]" \
            if indent else "[" + ", ".join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(str(k))}: {dumps_reference(v, indent, _level + 1)}"
                 for k, v in obj.items()]
        return "{" + nl + sep.join(pad + s for s in items) + nl + closing + "}" \
            if indent else "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _circle_entry(face, obj, hyp=None):
    if isinstance(obj, Line):
        return {"face": face,
                "line": {"point": [obj.point.real, obj.point.imag],
                         "normal": [obj.normal.real, obj.normal.imag]}}
    entry = {"face": face, "center": [obj.center.real, obj.center.imag],
             "radius": obj.radius}
    if hyp is not None:
        entry["center_hyperbolic"] = [hyp[0].real, hyp[0].imag]
        entry["radius_hyperbolic"] = hyp[1]
    return entry


def layout_to_dict_reference(result, include_kites=False):
    """Reference for ``layout.export_json``: the document of a
    ``ScalarLayout`` as nested dicts and lists, to be written by
    ``dumps_reference`` at indent 2."""
    out = {
        "geometry": result.geometry,
        "circles": [
            _circle_entry(f, result.circles[f], result.hyperbolic_circles.get(f))
            for f in sorted(result.circles)],
        "vertices": [{"vertex": v, "point": [result.vertex_points[v].real,
                                             result.vertex_points[v].imag]}
                     for v in sorted(result.vertex_points)],
        "periods": None if result.periods is None else
        [[result.periods[0].real, result.periods[0].imag],
         [result.periods[1].real, result.periods[1].imag]],
        "closure_residual": result.closure_residual,
    }
    if include_kites:
        out["kites"] = [{"edge": e, "corners": [[z.real, z.imag] for z in cs]}
                        for e, cs in zip(result.kite_edges.tolist(), result.kites.tolist())]
    return out


def certificate_reference(cert):
    """Reference for the certificate document of ``check``, as plain dicts
    and lists, to be written by ``dumps_reference`` at indent 2."""
    if cert.feasible:
        phi = cert.half_angles
        return {"feasible": True,
                "cas": {"min_phi": float(phi.min()), "max_phi": float(phi.max()),
                        "phi": list(map(float, phi))}}
    return {"feasible": False, "kind": cert.kind, "message": cert.message,
            "violating_faces": list(cert.violating_faces),
            "violating_edges": list(cert.violating_edges),
            "phi_sum": cert.phi_sum, "theta_sum": cert.theta_sum}


def solve_report_reference(spec, result):
    """Reference for the report of ``solve``, as plain dicts and lists."""
    srf = spec.surface
    face_res = np.abs(spec.phi - 2.0 * np.bincount(
        srf.oe_left, weights=result.half_angles, minlength=srf.n_faces))
    report = {
        "geometry": spec.geometry,
        "method": "newton",
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "grad_norm": float(result.grad_norm),
        "functional_value": float(result.functional_value),
        "rho": list(map(float, result.rho)),
        "radii": list(map(float, radii_from_rho(spec.geometry, result.rho)))
        if (spec.geometry == "euclidean" or np.all(result.rho < 0)) else None,
        "phi_half_angles": list(map(float, result.half_angles)),
        "face_residuals": list(map(float, face_res)),
        "cas_valid": bool(result.cas_report.is_valid(1e-8)),
    }
    if result.message:
        report["message"] = result.message
    return report


def pack_report_reference(geometry, radii, n_f, n_v, grad_norm):
    """Reference for the report of ``pack`` on a torus or a surface of
    higher genus: the radii of the medial faces, vertex circles first."""
    return {
        "kind": geometry,
        "vertex_circles": [{"vertex": v, "radius": float(radii[n_f + v])}
                           for v in range(n_v)],
        "face_circles": [{"face": f, "radius": float(radii[f])} for f in range(n_f)],
        "grad_norm": grad_norm,
    }
