"""Geometric realization of solved circle patterns.

Each unoriented edge contributes a kite built from the two circle centers
and the edge's two intersection points.  The kites are the rows of one
complex ``(E, 4)`` array of corners ``(P_u, C_k, P_w, C_j)``, built in one
vectorised pass in each kite's own frame (C_j at the origin, C_k on the
positive real axis).  Every corner c of a face walk that has a successor
glues the kite of edge(c) to the kite of edge(next(c)) along the segment
from the point at terminus(c) to the center of face left(c).

The developing map is a breadth-first search of the kite adjacency, whose
row e lists edge(next(h)), edge(next(twin h)), edge(prev(h)) and
edge(prev(twin h)) for the representative h of e, in that order.  The scan
order fixes the spanning tree, and with it the fundamental domain into
which a flat torus is cut open; the two translation periods are reported.
Frames (similarities z -> a z + b in the plane, isometries of the Poincare
disk for hyperbolic patterns) are computed one BFS level at a time from the
frames of the parents, and the first placement of a circle center or an
intersection point in BFS order wins.

A ``LayoutResult`` keeps the developed kites as that array, row e the kite
of edge e, and ``export_json`` and ``export_svg`` write them from it, one
%-template per row.

Only patterns without cone-like singularities are developable: all
interior cone angles (Phi at faces, Theta at vertices) must equal 2*pi.
Patterns with singularities remain valid as metric data but cannot be
drawn in one flat chart; the solver's residual report is the deliverable
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from . import jsonio
from .functional import PatternSpec, phi_of_rho, radii_from_rho
from .surface import OPEN, vertex_angle_sums

TWO_PI = 2.0 * math.pi
_PU, _CK, _PW, _CJ = range(4)     # corner columns of a kite row


class NotDevelopableError(ValueError):
    """The pattern has cone-like singularities or an unsupported topology."""


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
class LayoutResult:
    geometry: str
    circles: dict                 # face -> Circle | Line
    vertex_points: dict           # vertex -> complex
    kites: np.ndarray             # complex (K, 4): global corners (P_u, C_k, P_w, C_j)
    kite_edges: np.ndarray        # int (K,): the edge of each kite row
    closure_residual: float
    diameter: float
    periods: tuple | None = None  # two complex translation periods (torus)
    hyperbolic_circles: dict = field(default_factory=dict)  # face -> (center, R)

    @property
    def flagged(self):
        return self.closure_residual > 1e-7 * max(self.diameter, 1e-30)


def hyperbolic_circle_to_euclidean(center: complex, radius: float) -> Circle:
    """Render a hyperbolic circle (disk-model center, hyperbolic radius)
    as the Euclidean circle it traces in the Poincare disk."""
    t = math.tanh(0.5 * radius)
    s2 = abs(center) ** 2
    denom = 1.0 - s2 * t * t
    return Circle(center * (1.0 - t * t) / denom, t * (1.0 - s2) / denom)


# -- frames: one row per kite ---------------------------------------------------

def _apply_similarity(t, z):
    """z -> a z + b row by row, for rows t = (a, b) with |a| = 1."""
    return t[:, :1] * z + t[:, 1:]


def _similarity_from_sides(q1, q2, z1, z2):
    a = (z2 - z1) / (q2 - q1)
    return np.stack([a, z1 - a * q1], axis=1)


def _apply_isometry(m, z):
    """z -> (a z + b) / (conj(b) z + conj(a)) row by row, for the matrix
    rows m = (a, b, conj(b), conj(a)) of disk isometries."""
    return (m[:, :1] * z + m[:, 1:2]) / (m[:, 2:3] * z + m[:, 3:])


def _isometry_from_sides(q1, q2, z1, z2):
    """The isometry taking q1 to z1 and the geodesic ray towards q2 onto the
    one towards z2: translate q1 to 0, rotate, translate 0 to z1."""
    cq1, cz1 = np.conj(q1), np.conj(z1)
    beta = (np.angle((z2 - z1) / (1.0 - cz1 * z2))
            - np.angle((q2 - q1) / (1.0 - cq1 * q2)))
    u, v = np.exp(0.5j * beta), np.exp(-0.5j * beta)
    m = np.stack([u - z1 * v * cq1, z1 * v - u * q1,
                  cz1 * u - v * cq1, v - cz1 * u * q1], axis=1)
    return m / np.sqrt(np.abs(m[:, :1] * m[:, 3:] - m[:, 1:2] * m[:, 2:3]))


# -- kites, glue records and the spanning tree -------------------------------

def _kite_corners(spec: PatternSpec, radii, phi):
    """Local corners (P_u, C_k, P_w, C_j) of every kite, one row per edge.

    Corner angles are 2*phi_j at C_j, 2*phi_k at C_k and theta at both
    vertex corners; the center distance satisfies the (Euclidean or
    hyperbolic) law of cosines with the two radii and theta.  Hyperbolic
    kites are drawn in the disk, so distances from C_j = 0 become tanh(d/2).
    """
    srf = spec.surface
    rj, rk = radii[srf.edge_left], radii[srf.edge_right]
    pj = phi[srf.edge_reps]
    cos_theta = np.cos(spec.theta)
    if spec.is_hyperbolic:
        ck = np.tanh(0.5 * np.arccosh(np.cosh(rj) * np.cosh(rk)
                                      - np.sinh(rj) * np.sinh(rk) * cos_theta))
        rad = np.tanh(0.5 * rj)
    else:
        ck = np.sqrt(rj * rj + rk * rk - 2.0 * rj * rk * cos_theta)
        rad = rj
    corners = np.zeros((srf.n_edges, 4), dtype=complex)
    corners.real[:, _PU] = corners.real[:, _PW] = rad * np.cos(pj)
    corners.imag[:, _PW] = rad * np.sin(pj)
    corners.imag[:, _PU] = -corners.imag[:, _PW]
    corners.real[:, _CK] = ck
    return corners


def _glue_records(srf):
    """One record per corner c with a successor in its face walk.

    Returns (corner, a, b, cols): kite a = edge(c) and kite b =
    edge(next(c)) share the side (vertex point, circle center) held in
    columns cols[:, 0:2] of kite a and cols[:, 2:4] of kite b.
    """
    n = srf.n_oriented_edges
    nxt = srf.oe_next
    corner = np.flatnonzero(nxt != OPEN)
    is_rep = srf.edge_reps[srf.oe_edge] == np.arange(n)
    a_rep, b_rep = is_rep[corner], is_rep[nxt[corner]]
    cols = np.stack([np.where(a_rep, _PW, _PU), np.where(a_rep, _CJ, _CK),
                     np.where(b_rep, _PU, _PW), np.where(b_rep, _CJ, _CK)], axis=1)
    return corner, srf.oe_edge[corner], srf.oe_edge[nxt[corner]], cols


def _spanning_tree(srf, corner, a, b, root_edge):
    """BFS order of the kites and, for each kite after the root, its parent,
    the glue record that places it and whether the parent is its kite a.

    Row e of the adjacency lists, for h = rep(e), the kite b of the records
    of h and twin(h) and the kite a of the records of prev(h) and
    prev(twin(h)).  breadth_first_order scans each row in its stored order,
    so this order fixes the tree.
    """
    n, n_edges = srf.n_oriented_edges, srf.n_edges
    record = np.full(n + 1, -1)       # the last entry answers for OPEN (-1)
    record[corner] = np.arange(len(corner))
    prv = srf.oe_prev
    h = srf.edge_reps
    tw = srf.oe_twin[h]
    slot = record[np.stack([h, tw, prv[h], prv[tw]], axis=1)]
    valid = slot >= 0
    nbr = np.where(np.arange(4) < 2, b[slot], a[slot])
    graph = sp.csr_matrix(
        (np.ones(int(valid.sum())), nbr[valid],
         np.concatenate([[0], np.cumsum(valid.sum(axis=1))])),
        shape=(n_edges, n_edges))
    order, pred = breadth_first_order(graph, root_edge, directed=True,
                                      return_predecessors=True)
    if len(order) < n_edges:
        raise NotDevelopableError("kite adjacency graph is disconnected")
    child = order[1:]
    parent = pred[child]
    first = np.argmax((nbr[parent] == child[:, None]) & valid[parent], axis=1)
    return order, parent, slot[parent, first], first < 2


def _levels(order, parent):
    """Slices of order[1:] holding one BFS depth each."""
    pos = np.empty_like(order)
    pos[order] = np.arange(len(order))
    parent_pos = pos[parent]          # nondecreasing along a BFS order
    bounds = [0]
    while bounds[-1] < len(parent):
        bounds.append(int(np.searchsorted(parent_pos, bounds[-1] + 1)))
    return [slice(s, t) for s, t in zip(bounds, bounds[1:])]


def _first_placed(order, keys, points):
    """key -> point of its first placement, kites taken in BFS order."""
    keys, points = keys[order].ravel(), points[order].ravel()
    seq = np.arange(len(keys))
    first = np.full(keys.max() + 1, len(keys))
    np.minimum.at(first, keys, seq)
    is_first = first[keys] == seq
    return dict(zip(keys[is_first].tolist(), points[is_first].tolist()))


def _check_developable(spec: PatternSpec):
    srf = spec.surface
    for kind, cone, boundary in (
            ("vertex", vertex_angle_sums(srf, spec.theta), srf.vertex_boundary),
            ("face", np.asarray(spec.phi), srf.face_boundary)):
        bad = np.flatnonzero(~boundary & (np.abs(cone - TWO_PI) > 1e-8))
        if bad.size:
            raise NotDevelopableError(
                f"interior {kind} {bad[0]} has cone angle {cone[bad[0]]:.12g} != 2*pi")
    if spec.is_hyperbolic and srf.is_closed:
        raise NotDevelopableError(
            "closed hyperbolic patterns have no global chart in the disk")
    if not spec.is_hyperbolic and srf.is_closed:
        chi = srf.n_faces - srf.n_edges + srf.n_vertices
        if chi != 0:
            raise NotDevelopableError(
                f"closed Euclidean layout requires a torus (chi = {chi})")


def layout(spec: PatternSpec, rho, root_edge: int = 0) -> LayoutResult:
    """Develop the kites of a solved pattern into the plane or disk.

    ``rho`` is the array of logarithmic radii.  The kites are one array of
    local corners.  A breadth-first search of the kite adjacency, scanned
    in the fixed order of the module docstring, gives the spanning tree
    from ``root_edge``; all frames of one BFS level
    are computed in one step from the frames of their parents, by matching
    the side each kite shares with its parent.  Every glued side is then
    compared with its other placement: the largest discrepancy is the
    closure residual (after reducing by the period lattice on the torus).
    """
    rho = np.asarray(rho, dtype=float)
    srf = spec.surface
    if not 0 <= root_edge < srf.n_edges:
        raise ValueError(f"root edge {root_edge} is not in [0, {srf.n_edges})")
    _check_developable(spec)
    radii = radii_from_rho(spec.geometry, rho)
    phi = phi_of_rho(spec, rho)
    if np.any(phi <= 0.0) or np.any(phi >= np.pi):
        raise NotDevelopableError("half-angles outside (0, pi); solve first")
    corners = _kite_corners(spec, radii, phi)
    corner, a, b, cols = _glue_records(srf)
    order, parent, rec, parent_is_a = _spanning_tree(srf, corner, a, b, root_edge)

    if spec.is_hyperbolic:
        apply, from_sides = _apply_isometry, _isometry_from_sides
        frames = np.zeros((srf.n_edges, 4), dtype=complex)
        frames[root_edge] = (1.0, 0.0, 0.0, 1.0)
    else:
        apply, from_sides = _apply_similarity, _similarity_from_sides
        frames = np.zeros((srf.n_edges, 2), dtype=complex)
        pu, pw = complex(corners[root_edge, _PU]), complex(corners[root_edge, _PW])
        mid = 0.5 * (pu + pw)
        scale = 1.0 / ((pw - pu) / abs(pw - pu))
        frames[root_edge] = (scale, -scale * mid)
    # each kite's side on the shared segment, and its parent's
    child = order[1:]
    rc = cols[rec]
    own = np.where(parent_is_a[:, None], rc[:, 2:], rc[:, :2])
    theirs = np.where(parent_is_a[:, None], rc[:, :2], rc[:, 2:])
    q = np.take_along_axis(corners[child], own, axis=1)
    z_parent = np.take_along_axis(corners[parent], theirs, axis=1)
    for level in _levels(order, parent):
        z = apply(frames[parent[level]], z_parent[level])
        frames[child[level]] = from_sides(q[level, 0], q[level, 1], z[:, 0], z[:, 1])
    placed = apply(frames, corners)

    reps = srf.edge_reps
    vertex_points = _first_placed(
        order, np.stack([srf.oe_origin[reps], srf.oe_origin[srf.oe_twin[reps]]], axis=1),
        placed[:, [_PU, _PW]])
    centers = _first_placed(order, np.stack([srf.edge_left, srf.edge_right], axis=1),
                            placed[:, [_CJ, _CK]])
    radius = radii.tolist()
    hyp_circles = {}
    if spec.is_hyperbolic:
        hyp_circles = {f: (c, radius[f]) for f, c in centers.items()}
        circles = {f: hyperbolic_circle_to_euclidean(c, radius[f])
                   for f, c in centers.items()}
    else:
        circles = {f: Circle(c, radius[f]) for f, c in centers.items()}

    # closure mismatches across every glued side
    side_a = placed[a[:, None], cols[:, :2]]
    side_b = placed[b[:, None], cols[:, 2:]]
    if spec.is_hyperbolic:
        diameter = 2.0
        periods = None
        ratio = np.abs((side_a - side_b) / (1.0 - np.conj(side_b) * side_a))
        residual = 2.0 * np.arctanh(np.minimum(ratio, 1.0 - 1e-16)).max(initial=0.0)
    else:
        diameter = float(np.abs(placed - placed.mean()).max() * 2.0)
        flat = (side_a - side_b).ravel()
        if srf.is_closed:
            periods, residual = _extract_periods(flat, diameter)
        else:
            periods = None
            residual = np.abs(flat).max(initial=0.0)
    return LayoutResult(
        geometry=spec.geometry, circles=circles, vertex_points=vertex_points,
        kites=placed, kite_edges=np.arange(srf.n_edges),
        closure_residual=float(residual), diameter=diameter, periods=periods,
        hyperbolic_circles=hyp_circles)


def _extract_periods(diffs, scale):
    """Two lattice generators explaining the translation mismatches."""
    tol = 1e-9 * max(scale, 1e-30)
    diffs = np.asarray(diffs, dtype=complex).ravel()
    length = np.abs(diffs)
    long = np.flatnonzero(length > tol)
    if not long.size:
        return None, float(length.max(initial=0.0))
    vs = diffs[long[np.argsort(length[long], kind="stable")]]
    v1 = complex(vs[0])
    independent = np.flatnonzero(np.abs((np.conj(v1) * vs).imag) > tol * abs(v1))
    if not independent.size:
        # rank-1 holonomy: reduce along v1 only
        k = np.round((np.conj(v1) * diffs).real / abs(v1) ** 2)
        return (v1, v1), float(np.abs(diffs - k * v1).max())
    v2 = complex(vs[independent[0]])
    for _ in range(60):
        k = round((v1.conjugate() * v2).real / abs(v1) ** 2)
        v2 = v2 - k * v1
        if abs(v2) >= abs(v1):
            break
        v1, v2 = v2, v1
    inv = np.linalg.inv(np.array([[v1.real, v2.real], [v1.imag, v2.imag]]))
    k = np.round(inv @ np.array([diffs.real, diffs.imag]))
    residual = np.abs(diffs - (k[0] * v1 + k[1] * v2)).max()
    return _canonical_basis(v1, v2, tol), float(residual)


def _canonical_basis(v1, v2, tol):
    """The lattice basis fixed by the lattice alone, not by the input order.

    p1 is the shortest lattice vector and p2 the shortest one with
    cross(p1, p2) > 0; lengths within tol tie, and ties go to the larger
    real part, then to the larger imaginary part (again within tol).  Both
    are among the combinations a v1 + b v2, |a|, |b| <= 2, of the reduced
    basis (v1, v2).
    """
    vectors = [a * v1 + b * v2 for a in range(-2, 3) for b in range(-2, 3)
               if (a, b) != (0, 0)]

    def first(vs):
        vs = [v for v in vs if abs(v) <= min(map(abs, vs)) + tol]
        vs = [v for v in vs if v.real >= max(v.real for v in vs) - tol]
        return max(vs, key=lambda v: v.imag)

    p1 = first(vectors)
    return p1, first([v for v in vectors
                      if (np.conj(p1) * v).imag > tol * abs(p1)])


# -- export -------------------------------------------------------------------
#
# export_json writes the document jsonio.dumps would write at indent 2 (the
# tests hold the two byte for byte), filling one %-template per row.

_JSON_FLOAT = jsonio.FLOAT_FORMAT


def _json_list(items, level):
    return jsonio.join("[", items, "]", 2, level)


def _json_object(items, level):
    return jsonio.join("{", items, "}", 2, level)


def _json_point(level):
    return _json_list([_JSON_FLOAT] * 2, level)


# rows of the lists at depth 1 of the document
_CIRCLE_ITEMS = ['"face": %d', '"center": ' + _json_point(3), '"radius": ' + _JSON_FLOAT]
_CIRCLE_JSON = _json_object(_CIRCLE_ITEMS, 2)
_HYPERBOLIC_CIRCLE_JSON = _json_object(
    _CIRCLE_ITEMS + ['"center_hyperbolic": ' + _json_point(3),
                     '"radius_hyperbolic": ' + _JSON_FLOAT], 2)
_LINE_JSON = _json_object(['"face": %d', '"line": ' + _json_object(
    ['"point": ' + _json_point(4), '"normal": ' + _json_point(4)], 3)], 2)
_VERTEX_JSON = _json_object(['"vertex": %d', '"point": ' + _json_point(3)], 2)
_KITE_JSON = _json_object(['"edge": %d', '"corners": ' + _json_list([_json_point(4)] * 4, 3)], 2)
_PERIODS_JSON = _json_list([_json_point(2)] * 2, 1)


def _json_rows(templates, values):
    """A list at depth 1 of the document: its row templates, filled."""
    return jsonio.fill(_json_list(templates, 1), values) if templates else "[]"


def _circle_rows(result: LayoutResult):
    templates, values = [], []
    for f in sorted(result.circles):
        obj = result.circles[f]
        if isinstance(obj, Line):
            templates.append(_LINE_JSON)
            values += [f, obj.point.real, obj.point.imag, obj.normal.real, obj.normal.imag]
        elif f in result.hyperbolic_circles:
            center, radius = result.hyperbolic_circles[f]
            templates.append(_HYPERBOLIC_CIRCLE_JSON)
            values += [f, obj.center.real, obj.center.imag, obj.radius,
                       center.real, center.imag, radius]
        else:
            templates.append(_CIRCLE_JSON)
            values += [f, obj.center.real, obj.center.imag, obj.radius]
    return templates, values


def _vertex_rows(result: LayoutResult):
    """One row per vertex in order: its id, then its point's real and imaginary parts."""
    vertices = sorted(result.vertex_points)
    points = np.array([result.vertex_points[v] for v in vertices], dtype=complex)
    return np.column_stack([vertices, points.real, points.imag])


def _kite_rows(result: LayoutResult):
    """One row per kite: its edge, then the corners' real and imaginary parts."""
    corners = np.ascontiguousarray(result.kites, dtype=complex).view(float)
    return np.column_stack([result.kite_edges, corners])


def export_json(result: LayoutResult, path=None, include_kites=False) -> str:
    """The layout as an indent-2 JSON document: geometry, circles by face,
    vertex points, periods, closure residual and, with ``include_kites``,
    the kite corners by edge.  Non-finite numbers raise ValueError."""
    periods = "null"
    if result.periods is not None:
        periods = jsonio.fill(_PERIODS_JSON, np.array(result.periods, dtype=complex).view(float))
    vertices = _vertex_rows(result)
    items = ['"geometry": ' + jsonio.dumps(result.geometry),
             '"circles": ' + _json_rows(*_circle_rows(result)),
             '"vertices": ' + _json_rows([_VERTEX_JSON] * len(vertices), vertices),
             '"periods": ' + periods,
             '"closure_residual": ' + jsonio.fill(_JSON_FLOAT, result.closure_residual)]
    if include_kites:
        rows = _kite_rows(result)
        items.append('"kites": ' + _json_rows([_KITE_JSON] * len(rows), rows))
    text = _json_object(items, 0) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


# SVG rendering: fixed 9-significant-digit coordinates for reproducibility.
_FMT = "%.9g"


def _f(x):
    return _FMT % float(x)


def _geodesic_path(z1, z2):
    """SVG path for the hyperbolic geodesic between two disk points."""
    cross = (np.conj(z1) * z2).imag
    if abs(cross) < 1e-12:
        return (f"M {_f(z1.real)} {_f(z1.imag)} L {_f(z2.real)} {_f(z2.imag)}")
    # center c with |c|^2 = R^2 + 1, equidistant from z1, z2
    a = np.array([[z1.real, z1.imag], [z2.real, z2.imag]], dtype=float)
    rhs = 0.5 * np.array([abs(z1) ** 2 + 1.0, abs(z2) ** 2 + 1.0])
    cx, cy = np.linalg.solve(a, rhs)
    c = complex(cx, cy)
    r = math.sqrt(abs(c) ** 2 - 1.0)
    sweep = 1 if ((z2 - z1) * np.conj(c - z1)).imag > 0 else 0
    return (f"M {_f(z1.real)} {_f(z1.imag)} A {_f(r)} {_f(r)} 0 0 {sweep} "
            f"{_f(z2.real)} {_f(z2.imag)}")


def _svg_rows(template, values):
    """One line per row of ``values``, all filled into the template at once."""
    if not len(values):
        return []
    return ["\n".join([template] * len(values)) % tuple(values.ravel().tolist())]


def export_svg(result: LayoutResult, path=None, include_kites=False) -> str:
    """Deterministic SVG with circles, intersection points and (optionally)
    kite outlines; hyperbolic layouts are drawn inside the unit circle."""
    hyperbolic = result.geometry == "hyperbolic"
    pts = list(result.vertex_points.values())
    finite = [c for c in result.circles.values() if isinstance(c, Circle)]
    if hyperbolic:
        lo, hi = -1.1, 1.1
        xmin = ymin = lo
        xmax = ymax = hi
    else:
        xs, ys = [], []
        for c in finite:
            xs += [c.center.real - c.radius, c.center.real + c.radius]
            ys += [c.center.imag - c.radius, c.center.imag + c.radius]
        for z in pts:
            xs.append(z.real)
            ys.append(z.imag)
        for obj in result.circles.values():
            if isinstance(obj, Line):
                xs.append(obj.point.real)
                ys.append(obj.point.imag)
        if result.periods is not None:
            p1, p2 = result.periods
            for z in (0, p1, p2, p1 + p2):
                xs.append(complex(z).real)
                ys.append(complex(z).imag)
        if not xs:
            xs = [-1.0, 1.0]
            ys = [-1.0, 1.0]
        margin = 0.05 * max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
        xmin, xmax = min(xs) - margin, max(xs) + margin
        ymin, ymax = min(ys) - margin, max(ys) + margin
    width = xmax - xmin
    height = ymax - ymin
    dot = 0.008 * max(width, height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="720" height="{_f(720 * height / width)}" '
        f'viewBox="{_f(xmin)} {_f(ymin)} {_f(width)} {_f(height)}">',
        f'<g transform="translate(0 {_f(ymin + ymax)}) scale(1 -1)">',
    ]
    if hyperbolic:
        lines.append('<circle cx="0" cy="0" r="1" fill="none" '
                     'stroke="#999999" stroke-width="0.004"/>')
    stroke = 0.003 * max(width, height)
    kite = ('<path class="kite" data-edge="%d" d="{}" fill="none" stroke="#88aacc" '
            'stroke-width="' + _f(stroke) + '"/>')
    if include_kites and hyperbolic:
        for e, (pu, ck, pw, cj) in zip(result.kite_edges.tolist(), result.kites.tolist()):
            d = " ".join([_geodesic_path(pu, ck), _geodesic_path(ck, pw),
                          _geodesic_path(pw, cj), _geodesic_path(cj, pu)])
            lines.append(kite.format(d) % e)
    elif include_kites:
        path_d = "M {0} {0} L {0} {0} L {0} {0} L {0} {0} Z".format(_FMT)
        lines += _svg_rows(kite.format(path_d), _kite_rows(result))
    circle = ('<circle class="face" data-face="%d" cx="{0}" cy="{0}" r="{0}" fill="none" '
              'stroke="#222222" stroke-width="{1}"/>').format(_FMT, _f(stroke))
    for f in sorted(result.circles):
        obj = result.circles[f]
        if isinstance(obj, Circle):
            lines.append(circle % (f, obj.center.real, obj.center.imag, obj.radius))
        else:
            tang = complex(-obj.normal.imag, obj.normal.real)
            extent = 2.0 * max(width, height)
            a = obj.point - extent * tang
            b = obj.point + extent * tang
            lines.append(f'<line class="face" data-face="{f}" '
                         f'x1="{_f(a.real)}" y1="{_f(a.imag)}" '
                         f'x2="{_f(b.real)}" y2="{_f(b.imag)}" '
                         f'stroke="#222222" stroke-width="{_f(stroke)}"/>')
    vertex = ('<circle class="vertex" data-vertex="%d" cx="{0}" cy="{0}" r="{1}" '
              'fill="#cc3333"/>').format(_FMT, _f(dot))
    lines += _svg_rows(vertex, _vertex_rows(result))
    if result.periods is not None:
        p1, p2 = result.periods
        d = (f"M 0 0 L {_f(p1.real)} {_f(p1.imag)} "
             f"L {_f((p1 + p2).real)} {_f((p1 + p2).imag)} "
             f"L {_f(p2.real)} {_f(p2.imag)} Z")
        lines.append(f'<path class="periods" d="{d}" fill="none" '
                     f'stroke="#33aa33" stroke-width="{_f(stroke)}" '
                     f'stroke-dasharray="{_f(4 * stroke)} {_f(2 * stroke)}"/>')
    lines.append("</g>")
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
