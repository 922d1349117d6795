"""Existence checks for circle patterns.

A Euclidean pattern with data (theta*, Phi) exists iff the total equality
sum(Phi) = sum(2 theta*) holds and every nonempty proper face subset F'
satisfies sum(Phi over F') < sum(2 theta* over edges incident with F');
the hyperbolic pattern exists iff the strict inequality holds for every
nonempty subset including the full face set.  Both are equivalent to the
existence of a coherent angle system, which this module finds by reducing
to a feasible-flow problem on a small network and extracting the
half-angles from the face-to-edge branch flows.

The network is held as arrays, one entry per branch.  Its max-flow runs in
scipy's compiled Dinic, which takes int32 capacities only, so the float
problem is solved in a few refinement rounds: each round caps the residual
capacities at a bound on the flow still to be sent, scales them to fewer
than 2**28 units, refuses a summed capacity that would not fit int32, and
adds the integer flow back onto the float network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .functional import (CoherentAngleSystem, PatternSpec, EUCLIDEAN,
                         validate_cas)
from .surface import CellularSurface, dual as dual_surface

EQ_TOL = 1e-9      # tolerance for the global equality condition
STRICT_TOL = 1e-9  # margins at or below this count as violations


# -- feasible flows -----------------------------------------------------------

@dataclass
class FlowNetwork:
    """Nodes are faces, unoriented edges and one collector node ('box').

    Branch i runs from ``tail[i]`` to ``head[i]`` and carries a flow in
    ``[lower[i], upper[i]]``.  Branches 0..F-1 run from the box to the
    faces, branch F + h is the face-to-edge branch of oriented edge h, and
    the last 2E are the edge-to-box and box-to-edge branches, so the
    half-angles of a feasible flow are the slice ``flows[F:F + n_oe]``.
    """
    n_nodes: int
    box: int
    tail: np.ndarray
    head: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def build_flow_network(spec: PatternSpec, eps: float) -> FlowNetwork:
    srf = spec.surface
    F, E = srf.n_faces, srf.n_edges
    box = F + E
    faces = np.arange(F)
    edges = F + np.arange(E)
    boxes_f = np.full(F, box)
    boxes_e = np.full(E, box)
    half_phi = 0.5 * spec.phi
    theta_upper = spec.theta_star - (eps if spec.is_hyperbolic else 0.0)
    return FlowNetwork(
        n_nodes=F + E + 1, box=box,
        tail=np.concatenate([boxes_f, srf.oe_left, edges, boxes_e]),
        head=np.concatenate([faces, F + srf.oe_edge, boxes_e, edges]),
        lower=np.concatenate([half_phi, np.full(srf.n_oriented_edges, eps),
                              np.zeros(2 * E)]),
        # the box-to-edge branches stand for a lower bound of -inf on the
        # edge-to-box branches
        upper=np.concatenate([half_phi if spec.is_hyperbolic else np.full(F, np.inf),
                              np.full(srf.n_oriented_edges, np.inf),
                              theta_upper, np.full(E, np.inf)]),
    )


@dataclass
class FlowStats:
    """What one call of :func:`solve_feasible_flow` did."""
    rounds: int = 0          # integer max-flow rounds run
    pushed: float = 0.0      # flow sent from the excess nodes
    shortfall: float = 0.0   # demand left unmet


# A round scales its capacity cap to fewer than 2**28 units, so a summed CSR
# entry of up to eight parallel residual arcs fits scipy's int32 capacities.
_ROUND_BITS = 28
_INT32_MAX = np.iinfo(np.int32).max


class _ResidualNetwork:
    """Both directions of every arc of a max-flow network.

    Residual arc j < m is the reverse of arc j, whose capacity is the flow
    on arc j; residual arc m + j is arc j itself, whose capacity is the
    part left unused.  Residual arcs between the same ordered node pair
    share one entry of the CSR matrix that scipy's max-flow reads.
    """

    def __init__(self, tail, head, n_nodes):
        self.n = n_nodes
        self.m = len(tail)
        self.tails = np.concatenate([head, tail])
        self.heads = np.concatenate([tail, head])
        self.keys, self.pair = np.unique(self.tails * n_nodes + self.heads,
                                         return_inverse=True)
        self.indices = (self.keys % n_nodes).astype(np.int32)
        self.indptr = np.searchsorted(self.keys, np.arange(n_nodes + 1) * n_nodes
                                      ).astype(np.int32)
        # the arcs of one pair in arc order, so reverse arcs come first and
        # net flow cancels flow already sent before it sends more
        self.by_pair = np.argsort(self.pair, kind="stable")
        sorted_pair = self.pair[self.by_pair]
        self.group_first = np.searchsorted(sorted_pair, sorted_pair)

    def augment(self, residual, s, t, level, unit):
        """Flow change of one integer max-flow round, or None if it sends nothing.

        Capacities are capped at ``level`` and floored to multiples of
        ``unit``.  scipy returns one antisymmetric net flow per node pair;
        the net flow from a to b is handed to the residual arcs from a to b
        in order, each taking at most its own units.
        """
        units = np.floor(np.minimum(residual, level) / unit)
        pair_units = np.bincount(self.pair, units, minlength=len(self.keys))
        if pair_units.max() > _INT32_MAX:
            raise OverflowError("a summed residual capacity does not fit int32")
        graph = sp.csr_array((pair_units.astype(np.int32), self.indices, self.indptr),
                             shape=(self.n, self.n))
        result = maximum_flow(graph, s, t)
        if result.flow_value == 0:
            return None
        net = result.flow
        net.sort_indices()
        net_keys = (np.repeat(np.arange(self.n), np.diff(net.indptr)) * self.n
                    + net.indices)
        pos = np.minimum(np.searchsorted(net_keys, self.keys), len(net_keys) - 1)
        wanted = np.where(net_keys[pos] == self.keys, np.maximum(net.data[pos], 0), 0)
        sorted_units = units[self.by_pair]
        before = np.cumsum(sorted_units) - sorted_units
        before -= before[self.group_first]
        taken = np.empty_like(units)
        taken[self.by_pair] = np.clip(wanted[self.pair[self.by_pair]] - before,
                                      0.0, sorted_units)
        return (taken[self.m:] - taken[:self.m]) * unit

    def reachable(self, residual, s, tol):
        """Nodes reachable from s through residual capacities above tol."""
        open_ = residual > tol
        graph = sp.csr_array((np.ones(int(open_.sum())),
                              (self.tails[open_], self.heads[open_])),
                             shape=(self.n, self.n))
        return breadth_first_order(graph, s, return_predecessors=False)


def solve_feasible_flow(net: FlowNetwork, shortfall_tol=None,
                        stats: FlowStats | None = None):
    """Feasible flow respecting the lower bounds, or None plus a min cut.

    Uses the standard excess-node transformation to a single max-flow:
    the lower bounds become demands from a super source and to a super
    sink.  That max-flow is found in rounds on the float residual network.
    A round caps every residual capacity at a bound on the flow still to
    be sent, at first the unmet demand D, scales it to fewer than 2**28
    units, floors, and runs scipy's compiled integer Dinic; its net flow
    is added back onto the float arcs.  A summed capacity that does not
    fit int32 raises OverflowError instead of overflowing silently.  A
    round leaves less than a unit per residual arc sendable, so the next
    round's bound is the smaller of D and that, and the shortfall shrinks
    geometrically: feasible networks reach rounding level in about three
    rounds.  No unit falls below about 2**-50 of the largest demand of one
    node, so a unit sent from the source is never lost to rounding.  The
    rounds end once the shortfall is at the residual tolerance, or when a
    round with the smallest unit sends nothing.  The flow is accepted when the unmet demand is at
    most ``shortfall_tol`` (rounding-level relative to the demand by
    default).

    Returns (flows, cut): flows is a per-branch array on success and cut
    is the set of network nodes reachable from the source through residual
    capacities above the tolerance when infeasible.  ``stats``, when
    given, receives the rounds run, the flow pushed and the shortfall.
    """
    n = net.n_nodes
    s, t = n, n + 1
    stats = stats if stats is not None else FlowStats()
    stats.rounds, stats.pushed, stats.shortfall = 0, 0.0, 0.0
    cap = net.upper - net.lower
    if np.any(cap < 0):
        stats.shortfall = np.inf
        return None, set(range(n))
    excess = (np.bincount(net.head, net.lower, minlength=n)
              - np.bincount(net.tail, net.lower, minlength=n))
    sources = np.flatnonzero(excess > 0)
    sinks = np.flatnonzero(excess < 0)
    n_branches = len(cap)
    from_source = slice(n_branches, n_branches + len(sources))
    residual_net = _ResidualNetwork(
        np.concatenate([net.tail, np.full(len(sources), s), sinks]),
        np.concatenate([net.head, sources, np.full(len(sinks), t)]), n + 2)
    cap = np.concatenate([cap, excess[sources], -excess[sinks]])
    demand = float(excess[sources].sum())
    tol = 1e-13 * max(1.0, demand)
    if shortfall_tol is None:
        shortfall_tol = 1e-10 * max(1.0, demand)
    # no unit falls below 2**-50 of the largest source capacity, so every
    # round that sends flow lowers the unmet demand in floats too
    floor_level = math.ldexp(max(1.0, float(excess.max(initial=0.0))), _ROUND_BITS - 50)
    flow = np.zeros(len(cap))
    unmet = demand
    level = max(demand, floor_level)
    while unmet > tol:
        # the power of two just above level / 2**28 keeps the scaling exact,
        # so integer capacities give an exact max-flow in the first round
        unit = math.ldexp(1.0, math.frexp(level)[1] - _ROUND_BITS)
        delta = residual_net.augment(np.concatenate([flow, cap - flow]), s, t,
                                     level, unit)
        stats.rounds += 1
        if delta is not None:
            flow += delta
            unmet = float((cap - flow)[from_source].sum())
        elif level == floor_level:
            break
        # no residual path is left with every arc at a unit or more, so the
        # flow still to be sent is below a unit per residual arc
        level = max(floor_level, min(unmet, unit * 2 * len(cap)))
    stats.pushed = demand - unmet
    stats.shortfall = unmet
    if unmet > shortfall_tol:
        reach = residual_net.reachable(np.concatenate([flow, cap - flow]), s, tol)
        return None, {int(v) for v in reach if v < n}
    return net.lower + flow[:n_branches], None


# -- certificates and the theorem-level checks --------------------------------

@dataclass
class FeasibilityCertificate:
    """Outcome of an existence check.

    Either a coherent angle system (feasible) or a violating face subset
    with its incident edge set and the two compared sums.
    """
    feasible: bool
    cas: CoherentAngleSystem | None = None
    violating_faces: tuple = ()
    violating_edges: tuple = ()
    phi_sum: float = 0.0
    theta_sum: float = 0.0
    kind: str = ""
    message: str = ""
    # what the flow search did; not part of the verdict
    flow_solves: int = 0
    flow_rounds: int = 0
    shortfall: float = 0.0   # unmet demand of the last flow solve


def _incident_edges(spec: PatternSpec, faces) -> tuple:
    srf = spec.surface
    fa = set(faces)
    out = {srf.oe_edge[h] for h in range(srf.n_oriented_edges)
           if srf.oe_left[h] in fa}
    return tuple(sorted(out))


def _equality_certificate(spec):
    phi_sum = float(spec.phi.sum())
    theta_sum = float(2.0 * spec.theta_star.sum())
    if abs(phi_sum - theta_sum) <= EQ_TOL * max(1.0, abs(theta_sum)):
        return None
    return FeasibilityCertificate(
        feasible=False,
        violating_faces=tuple(range(spec.surface.n_faces)),
        violating_edges=tuple(range(spec.surface.n_edges)),
        phi_sum=phi_sum, theta_sum=theta_sum, kind="equality",
        message="sum(Phi) != sum(2 theta*)")


def check_conditions_bruteforce(spec: PatternSpec) -> FeasibilityCertificate:
    """Exact verdict by enumerating all nonempty face subsets.

    Guarded to |F| <= 20; larger instances must use the flow-based check.
    Does not construct an angle system; ``cas`` is None even when feasible.
    """
    srf = spec.surface
    F = srf.n_faces
    if F > 20:
        raise ValueError("brute force enumeration is limited to |F| <= 20; "
                         "use find_coherent_angle_system")
    if not spec.is_hyperbolic:
        cert = _equality_certificate(spec)
        if cert is not None:
            return cert
    face_edge_mask = [0] * F
    for h in range(srf.n_oriented_edges):
        face_edge_mask[srf.oe_left[h]] |= 1 << int(srf.oe_edge[h])
    n_sub = 1 << F
    edge_masks = [0] * n_sub
    phi_sums = np.zeros(n_sub)
    theta_sums = np.zeros(n_sub)
    theta2 = 2.0 * spec.theta_star
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
        if proper or spec.is_hyperbolic:
            if theta_sums[sub] - phi_sums[sub] <= STRICT_TOL:
                faces = tuple(f for f in range(F) if sub >> f & 1)
                edges = tuple(e for e in range(srf.n_edges) if mask >> e & 1)
                return FeasibilityCertificate(
                    feasible=False, violating_faces=faces, violating_edges=edges,
                    phi_sum=float(phi_sums[sub]), theta_sum=float(theta_sums[sub]),
                    kind="subset",
                    message=f"subset of {len(faces)} faces violates the "
                            f"strict inequality")
    return FeasibilityCertificate(feasible=True)


def find_coherent_angle_system(spec: PatternSpec,
                               eps_floor: float = 1e-12) -> FeasibilityCertificate:
    """Construct a coherent angle system via the feasible flow theorem.

    The floor for a face-to-edge branch is lowered by bisection from
    min(Phi)/4 per boundary-walk step until a feasible flow appears; the
    searched floor shrinking below ``eps_floor`` is reported as
    (numerically) infeasible.  On success the half-angle of an oriented
    edge is the flow on its face-to-edge branch.
    """
    srf = spec.surface
    if not spec.is_hyperbolic:
        cert = _equality_certificate(spec)
        if cert is not None:
            return cert
    max_deg = max(len(srf.face_walk(f)) for f in range(srf.n_faces))
    eps = min(float(spec.phi.min()) / (4.0 * max_deg),
              float(spec.theta_star.min()) / 4.0)
    half_angles = slice(srf.n_faces, srf.n_faces + srf.n_oriented_edges)
    cut = None
    solves = rounds = 0
    flow_stats = FlowStats()
    while eps >= eps_floor:
        net = build_flow_network(spec, eps)
        # a genuinely infeasible network at this eps is short by at least
        # ~eps, so accepting only below eps/2 cannot mask the deficit
        flows, cut = solve_feasible_flow(net, shortfall_tol=0.5 * eps,
                                         stats=flow_stats)
        solves += 1
        rounds += flow_stats.rounds
        if flows is not None:
            cas = CoherentAngleSystem(phi=flows[half_angles])
            report = validate_cas(spec, cas)
            if report.is_valid(1e-8):
                cert = FeasibilityCertificate(feasible=True, cas=cas)
                break
        eps *= 0.5
    else:
        cert = _certificate_from_cut(spec, cut)
    cert.flow_solves, cert.flow_rounds = solves, rounds
    cert.shortfall = flow_stats.shortfall
    return cert


def _certificate_from_cut(spec: PatternSpec, cut) -> FeasibilityCertificate:
    srf = spec.surface
    candidates = []
    if cut:
        inside = tuple(sorted(f for f in range(srf.n_faces) if f in cut))
        outside = tuple(sorted(f for f in range(srf.n_faces) if f not in cut))
        candidates = [c for c in (inside, outside) if 0 < len(c)]
        if spec.is_hyperbolic:
            candidates.append(tuple(range(srf.n_faces)))
    for faces in candidates:
        if len(faces) == srf.n_faces and not spec.is_hyperbolic:
            continue
        edges = _incident_edges(spec, faces)
        phi_sum = float(spec.phi[list(faces)].sum())
        theta_sum = float(2.0 * spec.theta_star[list(edges)].sum())
        if theta_sum - phi_sum <= STRICT_TOL:
            return FeasibilityCertificate(
                feasible=False, violating_faces=faces, violating_edges=edges,
                phi_sum=phi_sum, theta_sum=theta_sum, kind="subset",
                message="flow cut yields a violating face subset")
    if srf.n_faces <= 20:
        cert = check_conditions_bruteforce(spec)
        if not cert.feasible:
            return cert
    return FeasibilityCertificate(
        feasible=False, kind="numeric",
        message="no feasible flow above the floor and no exact certificate found")


# -- Rivin's cocycle condition ------------------------------------------------

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
    sums = np.zeros(surface.n_vertices)
    np.add.at(sums, surface.oe_origin, theta[surface.oe_edge])
    bad = np.abs(sums - 2.0 * np.pi) > tol
    if np.any(bad):
        v = int(np.argmax(bad))
        raise ValueError(
            f"theta must sum to 2*pi around every vertex; vertex {v} "
            f"sums to {sums[v]:.12g}")
    return theta


def _simple_dual_cycles(surface: CellularSurface):
    """Edge sets of all simple cycles of the dual 1-skeleton."""
    loops = []
    adj = [[] for _ in range(surface.n_faces)]
    for e in range(surface.n_edges):
        h = surface.edge_rep(e)
        u, v = surface.left_face(h), surface.right_face(h)
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


def check_rivin_condition(surface: CellularSurface, theta,
                          max_edges: int = 24, tol: float = 1e-9) -> CocycleVerdict:
    """Cocycle condition on a closed genus-0 surface with exterior angles.

    Every simple cocycle must have theta-sum at least 2*pi, with equality
    permitted only for the coboundary of a single vertex.  Enumerates
    cocycles up to ``max_edges`` edges; larger instances are delegated to
    the flow-based subset conditions of the spherical reduction.
    """
    from .surface import euler_characteristic
    chi, genus = euler_characteristic(surface)
    if not surface.is_closed or genus != 0:
        raise ValueError("the cocycle condition applies to closed genus-0 surfaces")
    theta = _require_flat_vertices(surface, theta)
    if surface.n_edges > max_edges:
        from .spherical import SphericalProblem, check_sphere_conditions
        verdict = check_sphere_conditions(SphericalProblem(surface, theta, 0))
        return CocycleVerdict(satisfied=verdict.ok, message=verdict.message)
    coboundaries = {frozenset(surface.edge_of(h) for h in surface.vertex_fan(v))
                    for v in range(surface.n_vertices)}
    two_pi = 2.0 * np.pi
    for cycle in sorted(_simple_dual_cycles(surface), key=sorted):
        s = float(theta[list(cycle)].sum())
        if s < two_pi - tol:
            return CocycleVerdict(False, tuple(sorted(cycle)), s,
                                  "cocycle sum below 2*pi")
        if s <= two_pi + tol and cycle not in coboundaries:
            return CocycleVerdict(False, tuple(sorted(cycle)), s,
                                  "equality on a cocycle that is not a "
                                  "single-vertex coboundary")
    return CocycleVerdict(True)


# -- cutting along dual edges (higher genus) ----------------------------------

@dataclass
class RegionPiece:
    faces: tuple
    euler_characteristic: int
    h1: int
    is_disc: bool
    boundary_sides: int
    face_count: int
    boundary_theta_sum: float | None = None


def region_decomposition(surface: CellularSurface, cut, theta=None):
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

    for e in range(surface.n_edges):
        if e in cutset:
            continue
        h = surface.edge_rep(e)
        ra, rb = find(surface.left_face(h)), find(surface.right_face(h))
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
        h = surface.edge_rep(e)
        if e in cutset:
            for side in (h, surface.twin(h)):
                p = index[find(surface.left_face(side))]
                n_edges[p] += 1
                sides[p] += 1
                if theta is not None:
                    theta_sum[p] += theta[e]
        else:
            n_edges[index[find(surface.left_face(h))]] += 1

    for v in range(surface.n_vertices):
        fan = surface.vertex_fan(v)
        cut_positions = [i for i, h in enumerate(fan) if surface.edge_of(h) in cutset]
        if not cut_positions:
            n_vertices[index[find(surface.left_face(fan[0]))]] += 1
            continue
        # one vertex copy per fan sector between consecutive cut edge-ends;
        # the sector starting at a cut ray contains the face on its left
        for start in cut_positions:
            p = index[find(surface.left_face(fan[start]))]
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
            boundary_sides=int(sides[p]),
            face_count=len(faces_of[p]),
            boundary_theta_sum=float(theta_sum[p]) if theta is not None else None,
        ))

    cut_vertices = set()
    for e in cutset:
        h = surface.edge_rep(e)
        cut_vertices.add(surface.origin(h))
        cut_vertices.add(surface.terminus(h))
    from .surface import euler_characteristic
    _, genus = euler_characteristic(surface)
    lhs = n_pieces - len(cutset) + len(cut_vertices)
    rhs = 2 - 2 * genus + sum(pc.h1 for pc in pieces)
    if lhs != rhs:
        raise AssertionError(
            f"generalized Euler identity failed: {lhs} != {rhs} "
            f"(cut={sorted(cutset)})")
    return pieces


def check_higher_genus_condition(surface: CellularSurface, theta,
                                 max_edges: int = 20,
                                 tol: float = 1e-9) -> CocycleVerdict:
    """Cut-enumeration condition for positive-genus surfaces.

    Cutting the dual surface along every nonempty edge subset, every disc
    piece must carry a boundary theta-sum of at least 2*pi, with equality
    only for single-face pieces.  Exponential in |E|; guarded by
    ``max_edges``.
    """
    from .surface import euler_characteristic
    chi, genus = euler_characteristic(surface)
    if genus is None or genus < 1:
        raise ValueError("the cut condition applies to closed surfaces of genus >= 1")
    theta = _require_flat_vertices(surface, theta)
    E = surface.n_edges
    if E > max_edges:
        raise ValueError(f"cut enumeration is limited to |E| <= {max_edges}")
    dual_s = dual_surface(surface)
    two_pi = 2.0 * np.pi
    for mask in range(1, 1 << E):
        cut = [e for e in range(E) if mask >> e & 1]
        for piece in region_decomposition(dual_s, cut, theta):
            if not piece.is_disc:
                continue
            s = piece.boundary_theta_sum
            if piece.face_count == 1:
                if s < two_pi - tol:
                    return CocycleVerdict(False, tuple(cut), s,
                                          "single-face disc below 2*pi")
            elif s <= two_pi + tol:
                return CocycleVerdict(False, tuple(cut), s,
                                      f"disc piece with {piece.face_count} "
                                      f"faces has boundary sum <= 2*pi")
    return CocycleVerdict(True)
