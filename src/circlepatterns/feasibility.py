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
and reads the half-angles off its branch flows.

The flow network (:class:`FlowNetwork`) has two forms, and the geometry
alone picks one in :func:`build_flow_network`.  A Euclidean system is a
flow on the dual graph (:func:`_dual_network`): the pair sum of an edge is
exact, so its two half-angles are one unknown, the flow across it from one
face to the other, and the faces' demands make the supply-demand problem
of Gale's theorem (D. Gale, Pacific J. Math. 7, 1957).  Hyperbolic pair
sums are only bounded, so hyperbolic data keep the box form
(:func:`_box_network`), with a node per edge.  At eps = 0 the box form is
Picard's maximum-closure network, and the dual form is oriented so that,
as there, the violating faces lie on the source side of the min cuts: one
reading (:func:`_certificate_from_residual`) and one deficit
(:func:`_deficit`) serve both, and each network carries its own readout
of the half-angles.

The flow's verdict comes from one cut.  A flow at the first floor eps on
the half-angles settles feasible data; any exact CAS proves
existence, so that flow stops at the first round, usually the first of
all, whose half-angles :func:`repair_angles` moves onto one.  It also
stops once a round proves that it cannot meet its demand, and then one
max flow with eps = 0 solves a maximum-closure problem whose min cuts are
the face sets that break the inequalities most; the strongly connected
components of its residual graph list them, ties included, and one of
them that exact sums confirm is the certificate.  Only when the cut finds
none does the stopped flow run again, to its own min cut, which lowers the
floor to the roots of failing cuts until a flow appears.

The network is held as arrays, one entry per branch.  Its max-flow runs in
scipy's compiled Dinic, which takes int32 capacities only, so the float
problem is solved in a few refinement rounds: each round caps the residual
capacities at a bound on the flow still to be sent, scales them to so few
units that the residual arcs of any node pair sum within int32, and adds
the integer flow back onto the float network.  One stable sort of the
node-pair keys lays out the residual network of a flow, and its rounds
and cut readings reuse that layout.  A failing flow's min cut is read
off the residual graph only when a verdict uses it: the eps = 0 flow is
read by the face sets it certifies, a floor flow's cut only when the
floor steps down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  maximum_flow)

from .functional import PatternSpec, solve_grounded, validate_cas

EQ_TOL = 1e-9      # tolerance for the global equality condition
STRICT_TOL = 1e-9  # margins at or below this count as violations


# -- feasible flows -----------------------------------------------------------

@dataclass
class FlowNetwork:
    """A network of branches between nodes.

    Branch i runs from ``tail[i]`` to ``head[i]`` and carries a flow in
    ``[lower[i], upper[i]]``.  A network that stands for coherent angle
    systems (:func:`build_flow_network`) reads the half-angle of oriented
    edge h off a flow as ``phi_offset + phi_sign * flows[phi_branch[h]]``,
    offset and sign per oriented edge or one for all; one with no
    ``phi_branch`` stands for none.
    """
    n_nodes: int
    tail: np.ndarray
    head: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    phi_branch: np.ndarray | None = None
    phi_offset: np.ndarray | float = 0.0
    phi_sign: np.ndarray | float = 1.0

    def half_angles(self, flows: np.ndarray) -> np.ndarray:
        """The half-angle per oriented edge of a flow per branch."""
        return self.phi_offset + self.phi_sign * flows[self.phi_branch]


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
    """The flow network whose feasible flows are the systems with floor eps.

    A coherent angle system with floor eps has every half-angle at least
    eps, the half-angles of each face summing to its demand
    (:func:`_half_demands`), and each edge's pair summing to theta*
    (Euclidean) or to at most theta* - eps (hyperbolic).  The geometry
    alone picks the form of :class:`FlowNetwork`, at every eps: Euclidean
    data get the dual form, hyperbolic data the box form.
    """
    if spec.is_hyperbolic:
        return _box_network(spec, eps)
    return _dual_network(spec, eps)


def _box_network(spec: PatternSpec, eps: float) -> FlowNetwork:
    """The hyperbolic network on the faces, the edges and the box.

    The box sends face f exactly Phi_f/2, face f sends at least eps to the
    edge of each half-edge of its boundary walk, the flow on branch F + h
    being the half-angle of oriented edge h, and edge e sends its pair sum
    to the box, at most theta*_e - eps.  Every half-angle is at least eps
    >= 0, so a pair sum is never negative and that upper bound is the
    whole pair constraint: the network has no box-to-edge branches.  Nor
    would they change a cut: the box is the only node with a branch to the
    super sink, unsaturated while demand is unmet, so a failing flow's cut
    never holds it.
    """
    srf = spec.surface
    F, E = srf.n_faces, srf.n_edges
    box = F + E
    half_phi = 0.5 * spec.phi
    return FlowNetwork(
        n_nodes=F + E + 1,
        tail=np.concatenate([np.full(F, box), srf.oe_left, F + np.arange(E)]),
        head=np.concatenate([np.arange(F), F + srf.oe_edge, np.full(E, box)]),
        lower=np.concatenate([half_phi, np.full(srf.n_oriented_edges, eps), np.zeros(E)]),
        upper=np.concatenate([half_phi, np.full(srf.n_oriented_edges, np.inf),
                              spec.theta_star - eps]),
        phi_branch=F + np.arange(srf.n_oriented_edges),
    )


def _dual_network(spec: PatternSpec, eps: float) -> FlowNetwork:
    """The Euclidean network on the dual graph (Gale's supply-demand form).

    The pair sum of edge e is exact, so its two half-angles are one
    unknown: the flow x_e on dual branch e, from j = ``edge_left[e]`` to
    k = ``edge_right[e]`` with bounds [0, theta*_e - 2 eps], gives the
    representative eps + x_e and its twin theta*_e - eps - x_e.  Face j's
    sum is then its demand D_j iff the dual branches take net b_j = D_j -
    eps #reps(j) - sum(theta*_e - eps over the edges with right face j)
    out of it, which its fixed branch, with both bounds |b_j|, brings from
    the box if b_j >= 0 and returns to it otherwise.  The b_j sum to
    sum(D) - sum(theta*) = 0, so at eps = 0 the Hoffman deficit of a node
    set is -1/2 the margin sum(2 theta* over incident edges) - sum(Phi) of
    the faces in it, whether it holds the box or not, as in the box form.
    """
    srf = spec.surface
    F, E = srf.n_faces, srf.n_edges
    left, right = srf.edge_left, srf.edge_right
    b = (_half_demands(spec) - eps * np.bincount(left, minlength=F)
         - np.bincount(right, spec.theta_star - eps, minlength=F))
    faces = np.arange(F)
    takes = b >= 0.0
    is_rep = srf.edge_reps[srf.oe_edge] == np.arange(srf.n_oriented_edges)
    return FlowNetwork(
        n_nodes=F + 1,
        tail=np.concatenate([left, np.where(takes, F, faces)]),
        head=np.concatenate([right, np.where(takes, faces, F)]),
        lower=np.concatenate([np.zeros(E), np.abs(b)]),
        upper=np.concatenate([spec.theta_star - 2.0 * eps, np.abs(b)]),
        phi_branch=srf.oe_edge,
        phi_offset=np.where(is_rep, eps, (spec.theta_star - eps)[srf.oe_edge]),
        phi_sign=np.where(is_rep, 1.0, -1.0),
    )


@dataclass
class FlowResult:
    """What one call of :func:`solve_feasible_flow` found and did.

    A flow stopped by its ``accept`` hook has ``flows`` and ``cut`` None,
    the hook's value in ``accepted`` and the demand its last round left
    unmet as ``shortfall``.  A flow ``stopped`` once a round proved its
    demand out of reach has ``flows``, ``cut`` and ``accepted`` None and
    that round's unmet demand as ``shortfall``.  The min cut is read off
    the final residual network when ``cut`` is first read, so a caller
    that never reads it pays for no graph search.
    """
    flows: np.ndarray | None  # per branch; None if the unmet demand is above rounding
    rounds: int = 0           # integer max-flow rounds run
    pushed: float = 0.0       # flow sent from the excess nodes
    shortfall: float = 0.0    # demand left unmet
    accepted: object = None   # what ``accept`` returned for the round that stopped the flow
    stopped: bool = False     # the rounds stopped once the demand proved out of reach
    # the final residual network: the layout of its arcs, whose nodes
    # n_nodes and n_nodes + 1 are the super source and the super sink, and
    # their capacities; None where an upper bound is below its lower bound
    network: _ResidualNetwork | None = None
    residual: np.ndarray | None = None
    # residual capacities above this are open to the min cut; None if the
    # flow has no cut (its demand met or its rounds stopped)
    cut_tol: float | None = None
    _cut: np.ndarray | None = field(default=None, repr=False)

    @property
    def cut(self) -> np.ndarray | None:
        """The min cut as a node mask, if demand is unmet and no round
        stopped the flow: the nodes reachable from the source through
        residual capacities above ``cut_tol``, searched for on the first
        read; all nodes where bounds cross."""
        if self._cut is None and self.cut_tol is not None:
            s = self.network.n - 2
            self._cut = _reached(self.network.open_graph(self.residual, self.cut_tol), s)[:s]
        return self._cut


# A round scales its capacity cap to fewer than 2**28 units, fewer on a
# node pair of more than eight residual arcs (_ResidualNetwork.round_bits).
_ROUND_BITS = 28
_INT32_MAX = np.iinfo(np.int32).max


class _ResidualNetwork:
    """Both directions of every arc of a max-flow network.

    Residual arc j < m is the reverse of arc j, whose capacity is the flow
    on arc j; residual arc m + j is arc j itself, whose capacity is the
    part left unused.  Residual arcs between the same ordered node pair
    share one entry of the CSR matrix that scipy's max-flow reads: the k
    arcs of the most crowded pair, fewer than 2**round_bits units each,
    with round_bits + bit_length(k - 1) <= 31, sum below 2**31.

    The layout comes from one stable sort of the pair keys tail * n +
    head: ``by_pair`` lists the arcs pair by pair, those of one pair in
    arc order, so reverse arcs come first and net flow cancels flow
    already sent before it sends more.  The runs of equal keys in that
    order are the pairs, ``keys`` their keys in ascending order, which is
    the CSR order, ``pair`` the pair of each arc, ``sorted_pair`` that of
    each arc in sorted order and ``group_first`` the sorted position of
    the first arc of its pair; the longest run bounds ``round_bits``.  A
    bincount of the rows of the keys gives ``indptr``.
    """

    def __init__(self, tail, head, n_nodes):
        self.n = n_nodes
        self.m = len(tail)
        codes = np.concatenate([head * n_nodes + tail, tail * n_nodes + head])
        self.by_pair = np.argsort(codes, kind="stable")
        sorted_codes = codes[self.by_pair]
        starts = np.empty(len(codes), dtype=bool)
        starts[:1] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=starts[1:])
        first = np.flatnonzero(starts)
        self.sorted_pair = np.cumsum(starts, dtype=np.intp) - 1
        self.group_first = first[self.sorted_pair]
        self.pair = np.empty_like(self.sorted_pair)
        self.pair[self.by_pair] = self.sorted_pair
        self.keys = sorted_codes[first]
        rows = self.keys // n_nodes
        self.indices = (self.keys - rows * n_nodes).astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows, minlength=n_nodes))]).astype(np.int32)
        most_arcs = int(np.diff(first, append=len(codes)).max())
        self.round_bits = min(_ROUND_BITS, 31 - (most_arcs - 1).bit_length())

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
        taken[self.by_pair] = np.clip(wanted[self.sorted_pair] - before, 0.0, sorted_units)
        return (taken[self.m:] - taken[:self.m]) * unit

    def open_graph(self, residual, tol, reverse=False):
        """Adjacency matrix of the node pairs with a residual arc whose
        capacity exceeds tol, or, with ``reverse``, of their reverses.

        It keeps the CSR layout of the pairs and drops the closed ones,
        since csgraph follows an explicit zero as an arc.  The reverse of
        residual arc j is arc (j + m) mod 2m.
        """
        pair = np.roll(self.pair, -self.m) if reverse else self.pair
        is_open = np.zeros(len(self.keys), dtype=bool)
        is_open[pair[residual > tol]] = True
        kept = np.flatnonzero(is_open)
        return sp.csr_array((np.ones(len(kept)), self.indices[kept],
                             np.searchsorted(kept, self.indptr).astype(np.int32)),
                            shape=(self.n, self.n))


def _reached(graph, start) -> np.ndarray:
    """The nodes reachable from ``start`` in a csgraph adjacency, as a mask."""
    mask = np.zeros(graph.shape[0], dtype=bool)
    mask[breadth_first_order(graph, start, return_predecessors=False)] = True
    return mask


def solve_feasible_flow(net: FlowNetwork, accept=None, *, need_cut=True) -> FlowResult:
    """Feasible flow respecting the lower bounds, or None plus a min cut.

    Uses the standard excess-node transformation to a single max-flow:
    the lower bounds become demands from a super source and to a super
    sink.  That max-flow is found in rounds on the float residual network.
    A round caps every residual capacity at a level L, scales L to fewer
    than 2**b units, floors, and runs scipy's compiled integer Dinic; its
    net flow is added back onto the float arcs.  b is 28, fewer where one
    node pair has more than eight residual arcs, whose summed capacity
    must fit int32 (:class:`_ResidualNetwork`).  The first round's level
    is the smaller of the demand D and the largest capacity, so that no
    arc is capped below its capacity; a network with an unbounded arc
    keeps L = D.  Each later round's level is a bound on the flow still to
    be sent.  A round leaves less than a unit per residual arc sendable,
    so the next round's bound is the smaller of the unmet demand and that,
    and the shortfall shrinks geometrically.  No unit falls below about
    2**-50 of the largest demand of one node, so a unit sent from the
    source is never lost to rounding.  The rounds end once the shortfall
    is at the residual tolerance, or when a round with the smallest unit
    sends nothing.  The flow is accepted when the unmet demand is at
    rounding level, 1e-10 of the demand.

    ``accept``, if given, is called with the flows per branch after every
    round that sends flow; the first value other than None stops the
    rounds there, with the demand of that round still unmet, and is
    returned as ``accepted``.

    A caller that does not read the cut of a failing flow passes
    ``need_cut=False``, and the rounds stop, ``stopped`` with ``flows`` and
    ``cut`` None, once the unmet demand exceeds u 2 len(cap) by more than
    the acceptance tolerance after a round at unit u.  The flow cannot be
    accepted then.  After a round at level L the integer residual network
    has a cut of zero integer residual.  If that cut holds an arc capped
    at L, the round sent at least L - u through it, and a round whose L is
    at least the max flow still to be sent (every round at L = D, and
    every later round) leaves less than u to send; otherwise every arc of
    the cut has a float residual below u.  A first round at the largest
    capacity caps no arc, so only the second case arises.  Either way
    less than u per residual arc, u 2 len(cap), can still be sent: the
    bound the next round's level takes.  The rounds are deterministic, so
    a run with ``need_cut`` True repeats a stopped run's rounds bit for
    bit before it goes on to the cut.

    The result holds the flows per branch, None if the unmet demand is
    above rounding level; the rounds run, the flow pushed, the shortfall
    and the final residual network.  If any demand is unmet and no round
    stopped the flow, its ``cut`` is the min cut as a boolean mask over
    the nodes, those reachable from the source through residual
    capacities above the tolerance, read when first asked for; bounds that
    cross give no flows and the cut of all nodes.
    """
    n = net.n_nodes
    s, t = n, n + 1
    cap = net.upper - net.lower
    if np.any(cap < 0):
        return FlowResult(None, shortfall=np.inf, _cut=np.ones(n, dtype=bool))
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
    bits = residual_net.round_bits
    # no unit falls below 2**-50 of the largest source capacity, so every
    # round that sends flow lowers the unmet demand in floats too
    floor_level = math.ldexp(max(1.0, float(excess.max(initial=0.0))), bits - 50)
    accept_tol = 1e-10 * max(1.0, demand)
    flow = np.zeros(len(cap))
    unmet, rounds, accepted, stopped = demand, 0, None, False
    # no arc is capped below its capacity in the first round
    level = max(floor_level, min(demand, float(cap.max(initial=0.0))))
    while unmet > tol:
        # the power of two just above level / 2**bits keeps the scaling exact,
        # so integer capacities give an exact max-flow in the first round
        unit = math.ldexp(1.0, math.frexp(level)[1] - bits)
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
    feasible = accepted is None and unmet <= accept_tol
    has_cut = unmet > tol and accepted is None and not stopped
    return FlowResult(net.lower + flow[:n_branches] if feasible else None,
                      rounds=rounds, pushed=demand - unmet, shortfall=unmet,
                      accepted=accepted, stopped=stopped, network=residual_net,
                      residual=np.concatenate([flow, cap - flow]),
                      cut_tol=tol if has_cut else None)


# -- certificates and the theorem-level checks --------------------------------

@dataclass
class FeasibilityCertificate:
    """Outcome of an existence check.

    Either the ``half_angles`` of a coherent angle system or a violating
    face subset with its incident edge set and the two compared sums.
    """
    feasible: bool
    half_angles: np.ndarray | None = None
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
    # whose half-angles repair into a CAS, the demand that round left unmet;
    # for one stopped at a round that proved the demand out of reach, the
    # same, or that of its run to the cut where one followed
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


def repair_angles(spec: PatternSpec, phi) -> np.ndarray | None:
    """The half-angles ``phi`` moved onto an exact coherent angle system, or None.

    Let r_f = 2 (D_f - sum(phi over the boundary walk of f)) with D the
    face demands of :func:`build_flow_network`.  Hyperbolic: add r_f / (2
    deg f) to each half-edge of f.  Euclidean: add d_e / 2 to both halves
    of every edge, d_e = theta*_e - phi_e - phi_-e, which makes the pair
    sums exact; then, with the residuals r' that leaves, add a_e to the
    representative half-edge of e and take it from its twin, where a =
    B^T y, B is the face-edge incidence of the dual graph (+1 at the face
    left of the representative, -1 at the face right of it) and B B^T y =
    r' / 2: the smallest such change that zeroes r'.  So a_e is y at the
    face left of e less y at the face right of it, and B B^T is the
    unit-weight dual-graph Laplacian, which the spec factorises once, with
    the order its Newton systems share (:func:`functional.solve_grounded`).

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
        # the demands sum to sum(theta*), so r sums to zero up to rounding
        y = solve_grounded(spec, 0.5 * r)
        a = y[srf.edge_left] - y[srf.edge_right]
        phi[reps] += a
        phi[twins] -= a
    report = validate_cas(spec, phi)
    if not (report.is_valid(1e-8) and report.min_phi > STRICT_TOL
            and (not spec.is_hyperbolic or report.min_pair_slack > STRICT_TOL)):
        return None
    return phi


def find_coherent_angle_system(spec: PatternSpec, half_angles=None) -> FeasibilityCertificate:
    """Decide existence by one min cut; construct a coherent angle system.

    Euclidean data whose totals differ by more than EQ_TOL fail at once.
    When :func:`repair_angles` moves ``half_angles``, if given, onto a
    valid system, that system is the verdict and no flow runs.

    The half-angles get the floor eps = min(Phi)/4 per boundary-walk step
    (at most min(theta*)/4).  A feasible flow there is the answer, read
    through the network's :meth:`FlowNetwork.half_angles`.  Any exact
    coherent angle system proves existence, so a flow at a floor eps > 0
    stops at the first round whose half-angles :func:`repair_angles` moves
    onto a valid one, and that system is the answer; it is one valid
    system, not a canonical one.  A floor flow that meets its demand
    unstopped gives its own half-angles if they validate at 1e-8, the
    second rule of the module docstring.  That flow also stops once a
    round proves that it cannot meet its demand (``need_cut=False`` of
    :func:`solve_feasible_flow`), since its cut is read only if the next
    step finds no face set.  Otherwise the verdict comes from one max flow
    on the eps = 0 network: a violating face set is read off its residual
    graph (see :func:`_certificate_from_residual`) and reported as
    ``kind="subset"``.  When it finds none and no floor cut exists yet, the
    floor flow runs to its cut; a stopped flow, run again, repeats its
    rounds bit for bit and counts as the same solve.  Then the floor steps
    down.  A first floor at or below STRICT_TOL proves no margin that the
    cut counts as strict, so no flow runs there before the eps = 0 cut.

    A flow exists iff no node set S has a positive deficit d_S (Hoffman;
    :func:`_deficit`), and a failing flow's min cut S has the largest.
    d_S(eps) = d_S(0) + k_S eps with an integer slope k_S; the next floor
    is the root eps' = eps d0 / (d0 - d_eps), d0 the deficit of the cut's
    node set in the eps = 0 network (Dinkelbach).  In the box form, read on
    the eps = 0 network, k_S counts the face-to-edge branches into S and
    the edge-to-box branches out of it, and d_S(0) is at most -margin/2 of
    the faces in S, or -Phi/2 of those outside if S holds the box, so 0
    only for no node and all nodes, where k_S = 0.  In the dual form each
    dual branch out of S, upper bound theta* - 2 eps, adds 2; a dual
    branch into S has lower bound 0 and adds nothing.  The fixed branch of
    face j adds b_j(eps) if S holds j and not the box, and -b_j(eps) if S
    holds the box and not j, whichever way it points, so d_S stays affine
    in eps even where b_j changes sign; its slope is +-(#twins(j) -
    #reps(j)).  So |k_S| <= 2 n_edges + sum_j (#reps(j) + #twins(j)) = K =
    n_oriented_edges + 2 n_edges, which bounds the box form's slope too;
    d_S(0) is -margin/2 of the faces in S (:func:`_dual_network`), so 0
    only when S holds no face or every face, where the fixed branches add
    -+sum(b_j) = 0 and k_S = 0.  So under the strict inequalities a
    failing cut has d0 < 0 < d_eps and 0 < eps' < eps.  If
    the flow at eps' fails with min cut S', d_S'(eps') > 0 = d_S(eps') and
    d_S(eps) >= d_S'(eps), so (k_S - k_S')(eps - eps') > 0: the slope
    falls from at most K each step, a failing cut has k >= 1, and at most
    K steps end at a feasible floor, the largest as a cut's root.  In
    floats a step needs d0 < 0 < d_eps; ending with neither a flow nor a
    face set raises RuntimeError.
    """
    cert = None if spec.is_hyperbolic else _equality_certificate(spec)
    if cert is not None:
        return cert
    cas = None if half_angles is None else repair_angles(spec, half_angles)
    if cas is not None:
        return FeasibilityCertificate(feasible=True, half_angles=cas)
    srf = spec.surface
    max_deg = int(np.diff(srf.walk_offsets).max())
    eps = min(float(spec.phi.min()) / (4.0 * max_deg),
              float(spec.theta_star.min()) / 4.0)
    results = []

    def flow(net, need_cut=True):
        result = solve_feasible_flow(
            net, accept=lambda flows: repair_angles(spec, net.half_angles(flows)),
            need_cut=need_cut)
        results.append(result)
        cas = result.accepted
        if result.flows is not None:
            # a complete floor flow, whose margins the floor sets; one with a
            # face residual over 1e-8 steps from its cut
            cas = net.half_angles(result.flows)
            cas = cas if validate_cas(spec, cas).is_valid(1e-8) else None
        return cas, result

    net = build_flow_network(spec, eps)
    cas = floor = None
    if eps > STRICT_TOL:
        # stops once a round proves it short: its cut is read only if the
        # eps = 0 cut finds no set
        cas, floor = flow(net, need_cut=False)
    if cas is None:
        # the eps = 0 flow runs to its min cut, which the verdict reads off
        # its residual graph
        zero = build_flow_network(spec, 0.0)
        results.append(solve_feasible_flow(zero))
        cert = _certificate_from_residual(spec, results[-1])
        if cert is None and (floor is None or floor.cut is None):
            cas, floor = flow(net)
            if eps > STRICT_TOL:
                # the stopped flow run again to its cut: the same solve
                results[0] = results.pop()
    for _ in range(srf.n_oriented_edges + 2 * srf.n_edges):
        if cas is not None or cert is not None or floor.cut is None:
            break
        d_zero, d_eps = _deficit(zero, floor.cut), _deficit(net, floor.cut)
        if not d_zero < 0.0 < d_eps:
            break
        eps *= d_zero / (d_zero - d_eps)
        net = build_flow_network(spec, eps)
        cas, floor = flow(net)
    if cas is not None:
        cert = FeasibilityCertificate(feasible=True, half_angles=cas)
    elif cert is None:
        raise RuntimeError(f"no flow and no violating face set at floor eps = {eps:.6g}")
    cert.flow_solves, cert.flow_rounds = len(results), sum(r.rounds for r in results)
    cert.shortfall = results[0].shortfall
    return cert


def _deficit(net: FlowNetwork, inside: np.ndarray) -> float:
    """Lower bounds of the branches into a node set, a mask over the
    nodes, less uppers out of it."""
    return float(net.lower[inside[net.head] & ~inside[net.tail]].sum()
                 - net.upper[inside[net.tail] & ~inside[net.head]].sum())


# Residual arcs at or below this share of the demand count as saturated
# when the min cut of the eps = 0 network is read off.
_CUT_TOL = 1e-10


def _certificate_from_residual(spec: PatternSpec,
                              zero: FlowResult) -> FeasibilityCertificate | None:
    """Violating face set from the residual of the eps = 0 max flow, or None.

    In the box form the eps = 0 network is Picard's maximum-closure
    network scaled by 1/2: face f has profit Phi_f/2, edge e costs theta*_e, and the
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
    case, and violates by exact sums is the certificate.  The dual form is
    read the same way: a cut whose source side holds the node set S has
    capacity D - d_S, d_S its deficit (:func:`_deficit`), which at eps = 0
    is -1/2 the margin of the faces in S (:func:`_dual_network`).
    """
    F = spec.surface.n_faces
    network, residual = zero.network, zero.residual
    s, t = network.n - 2, network.n - 1
    tol = _CUT_TOL * max(1.0, zero.pushed + zero.shortfall)
    blocked = _reached(network.open_graph(residual, tol, reverse=True), t)
    if blocked[s]:
        return None
    graph = network.open_graph(residual, tol)
    from_source = _reached(graph, s)[:F]
    _, labels = connected_components(graph, directed=True, connection="strong")
    free = np.flatnonzero(~blocked[:F])
    _, first = np.unique(labels[free], return_index=True)
    for f in np.sort(free[first]):
        faces = from_source | _reached(graph, f)[:F]
        if spec.is_hyperbolic or not faces.all():
            cert = _subset_certificate(spec, faces)
            if cert is not None:
                return cert
    return None


def _subset_certificate(spec: PatternSpec, faces) -> FeasibilityCertificate | None:
    """The certificate of a face set, a mask over the faces, if exact sums
    show it violates."""
    edges = spec.surface.incident_edges(faces)
    phi_sum = float(spec.phi[faces].sum())
    theta_sum = float(2.0 * spec.theta_star[edges].sum())
    if theta_sum - phi_sum > STRICT_TOL:
        return None
    return FeasibilityCertificate(
        feasible=False, violating_faces=tuple(np.flatnonzero(faces).tolist()),
        violating_edges=tuple(np.flatnonzero(edges).tolist()), phi_sum=phi_sum,
        theta_sum=theta_sum, kind="subset",
        message="flow cut yields a violating face subset")
