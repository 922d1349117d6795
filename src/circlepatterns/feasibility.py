"""Existence checks for circle patterns.

A Euclidean pattern with data (theta*, Phi) exists iff the total equality
sum(Phi) = sum(2 theta*) holds and every nonempty proper face subset F'
satisfies sum(Phi over F') < sum(2 theta* over edges incident with F');
the hyperbolic pattern exists iff the strict inequality holds for every
nonempty subset including the full face set.  Both are equivalent to the
existence of a coherent angle system (CAS).

There are two verdict paths, both in :func:`find_coherent_angle_system`,
and two rules that accept existence: an exact coherent angle system that
:func:`repair_angles` builds from approximate half-angles and validates,
and a floor flow that runs to completion with half-angles valid at 1e-8,
whose margins the floor eps > 0 sets by construction, also below
STRICT_TOL, where the repair refuses them.
The first path certifies given half-angles: the critical points of the
convex functional are exactly the coherent angle systems, so the
half-angles of an approximate minimiser lie near one, and the repair
moves them onto it.  It never proves infeasibility.  The second is the
flow, which decides every input and alone produces the violating face
subsets: it reduces the CAS to a feasible-flow problem on a small network
and reads the half-angles off the face-to-edge branch flows.

The flow's verdict comes from one cut.  A flow at the first floor eps on
the face-to-edge branches settles feasible data; any exact CAS proves
existence, so that flow stops at the first round, usually the first of
all, whose half-angles :func:`repair_angles` moves onto one.  It also
stops once a round proves that it cannot meet its demand, and then one
max flow with eps = 0 solves a maximum-closure problem whose min cuts are
the face sets that break the inequalities most; the strongly connected
components of its residual graph list them, ties included, and one of
them that exact sums confirm is the certificate.  Only when the cut finds
none does the stopped flow resume, and its min cut lowers the floor to
the roots of failing cuts until a flow appears.

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
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_flow)

from .functional import CoherentAngleSystem, PatternSpec, validate_cas
from .solver import solve_grounded

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


def _half_demands(spec: PatternSpec) -> np.ndarray:
    """Phi/2 per face, the flow each face must send to its half-edges.

    Euclidean totals agree to EQ_TOL only; spreading the difference over
    the faces lets a feasible flow meet the demands at rounding level, and
    leaves each face the residual (sum(Phi) - 2 sum(theta*)) / F against Phi.
    """
    if spec.is_hyperbolic:
        return 0.5 * spec.phi
    spread = (0.5 * spec.phi.sum() - spec.theta_star.sum()) / spec.surface.n_faces
    return 0.5 * spec.phi - spread


def build_flow_network(spec: PatternSpec, eps: float) -> FlowNetwork:
    srf = spec.surface
    F, E = srf.n_faces, srf.n_edges
    box = F + E
    faces = np.arange(F)
    edges = F + np.arange(E)
    boxes_f = np.full(F, box)
    boxes_e = np.full(E, box)
    half_phi = _half_demands(spec)
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
class FlowResult:
    """What one call of :func:`solve_feasible_flow` found and did.

    A flow stopped by its ``accept`` hook has ``flows`` and ``cut`` None,
    the hook's value in ``accepted`` and the demand its last round left
    unmet as ``shortfall``.  A flow ``stopped`` once a round proved its
    demand out of reach has ``flows``, ``cut`` and ``accepted`` None, that
    round's unmet demand as ``shortfall``, and the state its next round
    would start from.
    """
    flows: np.ndarray | None  # per branch; None if the unmet demand is above rounding
    cut: set | None           # min cut, if any demand is unmet and no round stopped the flow
    rounds: int = 0           # integer max-flow rounds run
    pushed: float = 0.0       # flow sent from the excess nodes
    shortfall: float = 0.0    # demand left unmet
    accepted: object = None   # what ``accept`` returned for the round that stopped the flow
    # the final residual network as (tails, heads, capacities); nodes
    # n_nodes and n_nodes + 1 are the super source and the super sink
    residual: tuple | None = None
    stopped: bool = False     # the rounds stopped once the demand proved out of reach
    # where a stopped flow resumes: the flow per arc of the max-flow network
    # (branches, then source and sink arcs) and the next round's level
    arc_flow: np.ndarray | None = None
    level: float = 0.0


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
        in order, each taking at most its own units.  Every pair's reverse
        is already in the pattern, so scipy adds no entry, and its flow
        matrix has this pattern: entry k is the net flow of pair k.
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
        if not (np.array_equal(net.indptr, self.indptr)
                and np.array_equal(net.indices, self.indices)):
            raise RuntimeError("maximum_flow returned its flow in another sparsity pattern")
        wanted = np.maximum(net.data, 0)
        sorted_units = units[self.by_pair]
        before = np.cumsum(sorted_units) - sorted_units
        before -= before[self.group_first]
        taken = np.empty_like(units)
        taken[self.by_pair] = np.clip(wanted[self.pair[self.by_pair]] - before,
                                      0.0, sorted_units)
        return (taken[self.m:] - taken[:self.m]) * unit

    def reachable(self, residual, s, tol):
        """Nodes reachable from s through residual capacities above tol."""
        graph = _open_arcs(self.tails, self.heads, residual, tol, self.n)
        return breadth_first_order(graph, s, return_predecessors=False)


def _open_arcs(tails, heads, residual, tol, n):
    """Adjacency matrix of the residual arcs whose capacity exceeds tol."""
    open_ = residual > tol
    return sp.csr_array((np.ones(int(open_.sum())), (tails[open_], heads[open_])),
                        shape=(n, n))


def solve_feasible_flow(net: FlowNetwork, accept=None, *, need_cut=True,
                        resume: FlowResult | None = None) -> FlowResult:
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
    geometrically.  No unit falls below about 2**-50 of the largest demand
    of one node, so a unit sent from the source is never lost to rounding.
    The rounds end once the shortfall is at the residual tolerance, or
    when a round with the smallest unit sends nothing.  The flow is
    accepted when the unmet demand is at rounding level, 1e-10 of the
    demand.

    ``accept``, if given, is called with the flows per branch after every
    round that sends flow; the first value other than None stops the
    rounds there, with the demand of that round still unmet, and is
    returned as ``accepted``.

    A caller that does not read the cut of a failing flow passes
    ``need_cut=False``, and the rounds stop, ``stopped`` with ``flows`` and
    ``cut`` None, once the unmet demand exceeds u 2 len(cap) by more than
    the acceptance tolerance after a round at unit u.  The flow cannot be
    accepted then.  A round runs at a level L that is at least the max flow
    still to be sent, and after it the integer residual network has a cut
    of zero integer residual.  If that cut holds an arc capped at L, the
    round sent at least L - u, so less than u can still be sent; otherwise
    every arc of the cut has a float residual below u.  Either way less
    than u per residual arc, u 2 len(cap), can still be sent: the bound the
    next round's level takes.  A stopped result passed back as ``resume``,
    with the same network and ``accept``, runs the rounds left from its
    flow, level and round count, so the result is bit for bit that of one
    run with ``need_cut`` True.

    The result holds the flows per branch, None if the unmet demand is
    above rounding level; the cut, if any demand is unmet and no round
    stopped the flow, the min cut of the nodes reachable from the source
    through residual capacities above the tolerance; and the rounds run,
    the flow pushed, the shortfall and the final residual network.
    """
    n = net.n_nodes
    s, t = n, n + 1
    cap = net.upper - net.lower
    if np.any(cap < 0):
        return FlowResult(None, set(range(n)), shortfall=np.inf)
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
    # no unit falls below 2**-50 of the largest source capacity, so every
    # round that sends flow lowers the unmet demand in floats too
    floor_level = math.ldexp(max(1.0, float(excess.max(initial=0.0))), _ROUND_BITS - 50)
    accept_tol = 1e-10 * max(1.0, demand)
    flow = np.zeros(len(cap))
    unmet, rounds, accepted, stopped = demand, 0, None, False
    level = max(demand, floor_level)
    if resume is not None:
        flow, unmet, rounds = resume.arc_flow.copy(), resume.shortfall, resume.rounds
        level = resume.level
    while unmet > tol:
        # the power of two just above level / 2**28 keeps the scaling exact,
        # so integer capacities give an exact max-flow in the first round
        unit = math.ldexp(1.0, math.frexp(level)[1] - _ROUND_BITS)
        delta = residual_net.augment(np.concatenate([flow, cap - flow]), s, t,
                                     level, unit)
        rounds += 1
        if delta is not None:
            flow += delta
            unmet = float((cap - flow)[from_source].sum())
            if accept is not None:
                accepted = accept(net.lower + flow[:n_branches])
                if accepted is not None:
                    break
        elif level == floor_level:
            break
        # no residual path is left with every arc at a unit or more, so the
        # flow still to be sent is below a unit per residual arc
        sendable = unit * 2 * len(cap)
        level = max(floor_level, min(unmet, sendable))
        if not need_cut and unmet - sendable > accept_tol:
            stopped = True
            break
    residual = np.concatenate([flow, cap - flow])
    cut = ({int(v) for v in residual_net.reachable(residual, s, tol) if v < n}
           if unmet > tol and accepted is None and not stopped else None)
    feasible = accepted is None and unmet <= accept_tol
    return FlowResult(net.lower + flow[:n_branches] if feasible else None, cut,
                      rounds=rounds, pushed=demand - unmet, shortfall=unmet,
                      residual=(residual_net.tails, residual_net.heads, residual),
                      accepted=accepted, stopped=stopped,
                      arc_flow=flow if stopped else None, level=level)


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
    # unmet demand of the first flow: at the first floor eps, or at eps = 0
    # when that floor is at most STRICT_TOL; for a flow stopped at a round
    # whose half-angles repair into a CAS, or at a round that proved the
    # demand out of reach, the demand that round left unmet
    shortfall: float = 0.0


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


def repair_angles(spec: PatternSpec, phi) -> CoherentAngleSystem | None:
    """The half-angles ``phi`` moved onto an exact coherent angle system, or None.

    Let r_f = 2 (D_f - sum(phi over the boundary walk of f)) with D the
    face demands of :func:`build_flow_network`.  Hyperbolic: add r_f / (2
    deg f) to each half-edge of f.  Euclidean: add d_e / 2 to both halves
    of every edge, d_e = theta*_e - phi_e - phi_-e, which makes the pair
    sums exact; then, with the residuals r' that leaves, add a_e to the
    representative half-edge of e and take it from its twin, where a =
    B^T y, B is the face-edge incidence of the dual graph (+1 at the face
    left of the representative, -1 at the face right of it) and B B^T y =
    r' / 2: the smallest such change that zeroes r'.  B B^T is the
    dual-graph Laplacian, solved grounded as the Newton system is
    (:func:`solver.solve_grounded`).

    Returns the repaired system when it validates at 1e-8 with every
    half-angle, and in the hyperbolic case every pair slack, above
    STRICT_TOL; such a system proves existence, for the rounds of a flow
    and the angles of a Newton minimiser alike.  A complete floor flow is
    accepted without it, by the second rule of the module docstring.
    None says nothing about the data.  The margins are read after the
    repair: half-angles that validate at 1e-8 may leave face residuals
    larger than their smallest margin, as those of a minimiser that
    converged falsely on data failing by equality do
    (:func:`solver.minimize`).  Half-angles whose largest |r_f| is
    not below their smallest angle are refused before any repair, which
    keeps the refusal to one ``bincount`` on a flow that is still far from
    feasible.
    """
    srf = spec.surface
    phi = np.array(phi, dtype=float)
    demands = _half_demands(spec)
    r = 2.0 * (demands - np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces))
    # written so that NaN refuses
    if not np.abs(r).max() < phi.min():
        return None
    if spec.is_hyperbolic:
        phi += (r / (2.0 * np.diff(srf.walk_offsets)))[srf.oe_left]
    else:
        reps, twins = srf.edge_reps, srf.oe_twin[srf.edge_reps]
        phi += 0.5 * (spec.theta_star - phi[reps] - phi[twins])[srf.oe_edge]
        r = 2.0 * (demands - np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces))
        E = srf.n_edges
        B = sp.csr_array((np.repeat([1.0, -1.0], E),
                          (np.concatenate([srf.edge_left, srf.edge_right]),
                           np.tile(np.arange(E), 2))), shape=(srf.n_faces, E))
        # the demands sum to sum(theta*), so r sums to zero up to rounding
        a = B.T @ solve_grounded(B @ B.T, 0.5 * r)
        phi[reps] += a
        phi[twins] -= a
    cas = CoherentAngleSystem(phi=phi)
    report = validate_cas(spec, cas)
    if not (report.is_valid(1e-8) and report.min_phi > STRICT_TOL
            and (not spec.is_hyperbolic or report.min_pair_slack > STRICT_TOL)):
        return None
    return cas


def find_coherent_angle_system(spec: PatternSpec, angles: CoherentAngleSystem | None = None
                               ) -> FeasibilityCertificate:
    """Decide existence by one min cut; construct a coherent angle system.

    Euclidean data whose totals differ by more than EQ_TOL fail at once.
    When :func:`repair_angles` moves the half-angles ``angles``, if given,
    onto a valid system, that system is the verdict and no flow runs.

    The face-to-edge branches get the floor eps = min(Phi)/4 per
    boundary-walk step (at most min(theta*)/4).  A feasible flow there is
    the answer: the half-angle of an oriented edge is the flow on its
    face-to-edge branch.  Any exact coherent angle system proves
    existence, so a flow at a floor eps > 0 stops at the first round whose
    half-angles :func:`repair_angles` moves onto a valid one, and that
    system is the answer; it is one valid system, not a canonical one.
    A floor flow that meets its demand unstopped gives its own half-angles
    if they validate at 1e-8, the second rule of the module docstring.
    That flow also stops once a round proves that it cannot meet its
    demand (``need_cut=False`` of :func:`solve_feasible_flow`), since its
    cut is read only if the next step finds no face set.  Otherwise the
    verdict comes from one max flow on the eps = 0 network: a violating
    face set is read off its residual graph (see
    :func:`_certificate_from_residual`) and reported as ``kind="subset"``.
    When it finds none, the stopped flow resumes from its last round, with
    the rounds, acceptances and min cut of a run that never stopped, and
    counts as one solve; then the floor steps down.  A first floor at or
    below STRICT_TOL proves no margin that the cut counts as strict, so
    there the eps = 0 cut is read first, its face set, if it finds one, is
    the verdict, and the floor flow that may follow runs to its cut.

    A flow exists iff no node set S has a positive deficit d_S (Hoffman;
    :func:`_deficit`), and a failing flow's min cut S has the largest.
    d_S(eps) = d_S(0) + k_S eps, where k_S <= K = n_oriented_edges +
    n_edges counts the face-to-edge branches into S and the hyperbolic
    edge-to-box branches out of it; the next floor is the root eps' = eps
    d0 / (d0 - d_eps), d0 read on the eps = 0 network (Dinkelbach).  d_S(0)
    is at most -margin/2 of the faces in S, or -Phi/2 of those outside if
    S holds the box, and 0 only for no node, all nodes and, Euclidean, all
    but the box, where k_S = 0; so under the strict inequalities a failing
    cut has d0 < 0 < d_eps and 0 < eps' < eps.  If the flow at eps' fails
    with min cut S', d_S'(eps') > 0 = d_S(eps') and d_S(eps) >= d_S'(eps),
    so (k_S - k_S')(eps - eps') > 0: the slope falls from at most K each
    step, a failing cut has k >= 1, and at most K steps end at a feasible
    floor, the largest as a cut's root.  In floats a step needs d0 < 0 <
    d_eps; ending with neither a flow nor a face set raises RuntimeError.
    """
    cert = None if spec.is_hyperbolic else _equality_certificate(spec)
    if cert is not None:
        return cert
    cas = None if angles is None else repair_angles(spec, angles.phi)
    if cas is not None:
        return FeasibilityCertificate(feasible=True, cas=cas)
    srf = spec.surface
    max_deg = int(np.diff(srf.walk_offsets).max())
    eps = min(float(spec.phi.min()) / (4.0 * max_deg),
              float(spec.theta_star.min()) / 4.0)
    half_angles = slice(srf.n_faces, srf.n_faces + srf.n_oriented_edges)
    results = []

    def repair(flows):
        return repair_angles(spec, flows[half_angles])

    def flow(net, eps, **how):
        # the eps = 0 flow runs to its min cut, which the verdict reads
        result = solve_feasible_flow(net, accept=repair if eps > 0.0 else None, **how)
        if how.get("resume") is None:
            results.append(result)
        else:
            # only the first flow stops, and resuming it is the same solve
            results[0] = result
        cas = result.accepted
        if result.flows is not None:
            # a complete floor flow, whose margins the floor sets; one with a
            # face residual over 1e-8 steps from its cut
            cas = CoherentAngleSystem(phi=result.flows[half_angles])
            cas = cas if validate_cas(spec, cas).is_valid(1e-8) else None
        return cas, result.cut

    def zero_cut():
        zero = build_flow_network(spec, 0.0)
        flow(zero, 0.0)
        return zero, _certificate_from_residual(spec, zero, results[-1])

    cas = cut = zero = None
    if eps <= STRICT_TOL:
        # such a floor proves no margin above STRICT_TOL: the cut goes first
        zero, cert = zero_cut()
    if cert is None:
        # until the eps = 0 cut has been read, the first floor flow stops
        # once a round proves it short, and resumes if the cut finds no set
        net = build_flow_network(spec, eps)
        cas, cut = flow(net, eps, need_cut=zero is not None)
        if cas is None and zero is None:
            zero, cert = zero_cut()
            if cert is None and results[0].stopped:
                cas, cut = flow(net, eps, resume=results[0])
    for _ in range(srf.n_oriented_edges + srf.n_edges):
        if cas is not None or cert is not None or cut is None:
            break
        d_zero, d_eps = _deficit(zero, cut), _deficit(net, cut)
        if not d_zero < 0.0 < d_eps:
            break
        eps *= d_zero / (d_zero - d_eps)
        net = build_flow_network(spec, eps)
        cas, cut = flow(net, eps)
    if cas is not None:
        cert = FeasibilityCertificate(feasible=True, cas=cas)
    elif cert is None:
        raise RuntimeError(f"no flow and no violating face set at floor eps = {eps:.6g}")
    cert.flow_solves, cert.flow_rounds = len(results), sum(r.rounds for r in results)
    cert.shortfall = results[0].shortfall
    return cert


def _deficit(net: FlowNetwork, nodes) -> float:
    """Lower bounds of the branches into a node set less uppers out of it."""
    inside = np.isin(np.arange(net.n_nodes), list(nodes))
    return float(net.lower[inside[net.head] & ~inside[net.tail]].sum()
                 - net.upper[inside[net.tail] & ~inside[net.head]].sum())


# Residual arcs at or below this share of the demand count as saturated
# when the min cut of the eps = 0 network is read off.
_CUT_TOL = 1e-10


def _certificate_from_residual(spec: PatternSpec, net: FlowNetwork,
                              zero: FlowResult) -> FeasibilityCertificate | None:
    """Violating face set from the residual of the eps = 0 max flow, or None.

    At eps = 0 the network is Picard's maximum-closure network scaled by
    1/2: face f has profit Phi_f/2, edge e costs theta*_e, and the
    unbounded face-to-edge branches make a face require its edges.  A face
    set F' with its edges, without the box, is a cut of capacity D - w(F'),
    where D = sum(Phi)/2 is the demand and w(F') = sum(Phi over F')/2 -
    sum(theta* over the edges of F'); F' violates its inequality iff
    w(F') >= 0.  So when some F' violates, the min cuts maximise w, and F'
    is one of them if the maximum is 0.  The min cuts are exactly the node
    sets that hold the source, not the sink, and are closed under residual
    arcs (Picard & Queyranne 1980), so they are unions of strongly
    connected components.  For a component K that holds a face and cannot
    reach the sink, the least such set holding K is reach(K) |
    reach(source), and a violating min cut contains the one of each of its
    faces.  The components are taken in the order of their least face, and
    the first set whose face set is nonempty, proper in the Euclidean
    case, and violates by exact sums is the certificate.
    """
    F = spec.surface.n_faces
    n = net.n_nodes + 2
    s, t = n - 2, n - 1
    tails, heads, residual = zero.residual
    tol = _CUT_TOL * max(1.0, zero.pushed + zero.shortfall)
    graph = _open_arcs(tails, heads, residual, tol, n)
    blocked = np.zeros(n, dtype=bool)
    blocked[breadth_first_order(graph.T.tocsr(), t, return_predecessors=False)] = True
    if blocked[s]:
        return None
    from_source = breadth_first_order(graph, s, return_predecessors=False)
    _, labels = connected_components(graph, directed=True, connection="strong")
    free = np.flatnonzero(~blocked[:F])
    _, first = np.unique(labels[free], return_index=True)
    for f in np.sort(free[first]):
        reach = np.union1d(from_source, breadth_first_order(
            graph, f, return_predecessors=False))
        faces = reach[reach < F]
        if spec.is_hyperbolic or len(faces) < F:
            cert = _subset_certificate(spec, faces)
            if cert is not None:
                return cert
    return None


def _subset_certificate(spec: PatternSpec, faces) -> FeasibilityCertificate | None:
    """The certificate of a sorted face set if exact sums show it violates."""
    srf = spec.surface
    edges = np.unique(srf.oe_edge[np.isin(srf.oe_left, faces)])
    phi_sum = float(spec.phi[faces].sum())
    theta_sum = float(2.0 * spec.theta_star[edges].sum())
    if theta_sum - phi_sum > STRICT_TOL:
        return None
    return FeasibilityCertificate(
        feasible=False, violating_faces=tuple(map(int, faces)),
        violating_edges=tuple(map(int, edges)), phi_sum=phi_sum,
        theta_sum=theta_sum, kind="subset",
        message="flow cut yields a violating face subset")
