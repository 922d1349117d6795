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

A ``LayoutResult`` holds the developed pattern as arrays: the kites as
that array, row e the kite of edge e, and one row per face and per vertex
in ascending id order.  ``export_json`` and ``export_svg`` write every row
from the arrays, through one template per kind of row.

Only patterns without cone-like singularities are developable: all
interior cone angles (Phi at faces, Theta at vertices) must equal 2*pi.
Patterns with singularities remain valid as metric data but cannot be
drawn in one flat chart; the solver's residual report is the deliverable
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order

from . import jsonio
from .functional import PatternSpec, _check_rho, phi_of_rho, radii_from_rho
from .surface import OPEN, euler_characteristic, vertex_angle_sums

TWO_PI = 2.0 * math.pi
_PU, _CK, _PW, _CJ = range(4)     # corner columns of a kite row


class NotDevelopableError(ValueError):
    """The pattern has cone-like singularities or an unsupported topology."""


@dataclass
class LayoutResult:
    """A developed pattern as arrays, face and vertex rows in ascending id
    order.  A line (in the planar picture of a spherical pattern) is a
    circle of infinite radius through its point in ``centers``, with its
    unit normal, which points to the disk side, in ``normals``.  A
    hyperbolic pattern's ``centers`` and ``radii`` are the Euclidean
    circles that its disk-model circles trace."""
    geometry: str
    faces: np.ndarray             # int (F,)
    centers: np.ndarray           # complex (F,): circle centers, or a line's point
    radii: np.ndarray             # float (F,): inf for a line
    normals: np.ndarray           # complex (F,): a line's unit normal, 0 for a circle
    vertices: np.ndarray          # int (V,)
    points: np.ndarray            # complex (V,)
    kites: np.ndarray             # complex (K, 4): global corners (P_u, C_k, P_w, C_j)
    kite_edges: np.ndarray        # int (K,): the edge of each kite row
    closure_residual: float
    periods: tuple | None = None  # two complex translation periods (torus)
    hyperbolic_centers: np.ndarray | None = None   # complex (F,), in the disk
    hyperbolic_radii: np.ndarray | None = None     # float (F,)


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
    """The keys in ascending order and the point of each one's first
    placement, kites taken in BFS order."""
    keys, points = keys[order].ravel(), points[order].ravel()
    first = np.full(keys.max() + 1, len(keys))
    np.minimum.at(first, keys, np.arange(len(keys)))
    ids = np.flatnonzero(first < len(keys))
    return ids, points[first[ids]]


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
        chi, _ = euler_characteristic(srf)
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
    A rho that gives some face no finite positive radius, or some kite no
    finite developed corners, raises ValueError.
    """
    rho = _check_rho(spec, rho)
    srf = spec.surface
    if not 0 <= root_edge < srf.n_edges:
        raise ValueError(f"root edge {root_edge} is not in [0, {srf.n_edges})")
    _check_developable(spec)
    with np.errstate(over="ignore", divide="ignore"):
        radii = radii_from_rho(spec.geometry, rho)
    bad = np.flatnonzero(~(np.isfinite(radii) & (radii > 0.0)))
    if bad.size:
        raise ValueError(f"face {bad[0]} has rho = {rho[bad[0]]:.17g}, whose radius "
                         f"is not finite and positive")
    phi = phi_of_rho(spec, rho)
    if np.any(phi <= 0.0) or np.any(phi >= np.pi):
        raise NotDevelopableError("half-angles outside (0, pi); solve first")
    corner, a, b, cols = _glue_records(srf)
    order, parent, rec, parent_is_a = _spanning_tree(srf, corner, a, b, root_edge)
    # radii far apart overflow a kite or its frame; the first kite that the
    # development loses is reported below, so the warnings are not
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        corners = _kite_corners(spec, radii, phi)
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
    bad = ~np.isfinite(placed).all(axis=1)
    if bad.any():
        e = order[np.argmax(bad[order])]
        j, k = srf.edge_left[e], srf.edge_right[e]
        raise ValueError(f"the kite of edge {e} between faces {j} and {k} (radii "
                         f"{radii[j]:.17g} and {radii[k]:.17g}) develops to non-finite "
                         f"corners")

    reps = srf.edge_reps
    vertices, points = _first_placed(
        order, np.stack([srf.oe_origin[reps], srf.oe_origin[srf.oe_twin[reps]]], axis=1),
        placed[:, [_PU, _PW]])
    faces, centers = _first_placed(order, np.stack([srf.edge_left, srf.edge_right], axis=1),
                                   placed[:, [_CJ, _CK]])
    radii = radii[faces]
    disk = {}
    if spec.is_hyperbolic:
        # the Euclidean circles that the disk-model circles trace
        disk = dict(hyperbolic_centers=centers, hyperbolic_radii=radii)
        t = np.tanh(0.5 * radii)
        s2 = np.abs(centers) ** 2
        denom = 1.0 - s2 * t * t
        centers, radii = centers * ((1.0 - t * t) / denom), t * (1.0 - s2) / denom

    # closure mismatches across every glued side
    side_a = placed[a[:, None], cols[:, :2]]
    side_b = placed[b[:, None], cols[:, 2:]]
    if spec.is_hyperbolic:
        periods = None
        ratio = np.abs((side_a - side_b) / (1.0 - np.conj(side_b) * side_a))
        residual = 2.0 * np.arctanh(np.minimum(ratio, 1.0 - 1e-16)).max(initial=0.0)
    else:
        flat = (side_a - side_b).ravel()
        if srf.is_closed:
            diameter = float(np.abs(placed - placed.mean()).max() * 2.0)
            periods, residual = _extract_periods(flat, diameter)
        else:
            periods = None
            residual = np.abs(flat).max(initial=0.0)
    return LayoutResult(
        geometry=spec.geometry, faces=faces, centers=centers, radii=radii,
        normals=np.zeros(len(faces), dtype=complex), vertices=vertices, points=points,
        kites=placed, kite_edges=np.arange(srf.n_edges),
        closure_residual=float(residual), periods=periods, **disk)


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
# export_json is one jsonio.dumps call; each long list is a jsonio.Rows of the
# row templates below, filled from the columns of the layout's arrays.

_POINT = [jsonio.FLOAT, jsonio.FLOAT]
_CIRCLE = {"face": jsonio.INT, "center": _POINT, "radius": jsonio.FLOAT}
_HYPERBOLIC_CIRCLE = {**_CIRCLE, "center_hyperbolic": _POINT,
                      "radius_hyperbolic": jsonio.FLOAT}
_LINE = {"face": jsonio.INT, "line": {"point": _POINT, "normal": _POINT}}
_VERTEX = {"vertex": jsonio.INT, "point": _POINT}
_KITE = {"edge": jsonio.INT, "corners": [_POINT] * 4}


def _face_rows(result: LayoutResult, circle, circle_columns, line, line_columns):
    """One row template per face in order, ``circle`` or ``line``, and the
    values that fill them: the face id, then the circle's or the line's
    columns."""
    is_line = np.isinf(result.radii)
    table = np.column_stack([result.faces, *circle_columns, *line_columns])
    split = 1 + len(circle_columns)
    used = np.zeros(table.shape, dtype=bool)
    used[:, 0] = True
    used[~is_line, 1:split] = True
    used[is_line, split:] = True
    return [line if x else circle for x in is_line.tolist()], table[used]


def _circle_rows(result: LayoutResult):
    c, n = result.centers, result.normals
    columns = [c.real, c.imag, result.radii]
    template = _CIRCLE
    if result.hyperbolic_centers is not None:
        h = result.hyperbolic_centers
        columns += [h.real, h.imag, result.hyperbolic_radii]
        template = _HYPERBOLIC_CIRCLE
    return _face_rows(result, template, columns, _LINE, [c.real, c.imag, n.real, n.imag])


def _vertex_rows(result: LayoutResult):
    """One row per vertex in order: its id, then its point's real and imaginary parts."""
    return np.column_stack([result.vertices, result.points.real, result.points.imag])


def _kite_rows(result: LayoutResult):
    """One row per kite: its edge, then the corners' real and imaginary parts."""
    corners = np.ascontiguousarray(result.kites, dtype=complex).view(float)
    return np.column_stack([result.kite_edges, corners])


def export_json(result: LayoutResult, include_kites=False) -> str:
    """The layout as an indent-2 JSON document: geometry, circles by face,
    vertex points, periods, closure residual and, with ``include_kites``,
    the kite corners by edge.  Non-finite numbers raise ValueError."""
    vertices = _vertex_rows(result)
    doc = {"geometry": result.geometry,
           "circles": jsonio.Rows(*_circle_rows(result)),
           "vertices": jsonio.Rows([_VERTEX] * len(vertices), vertices),
           "periods": None if result.periods is None else
           [[p.real, p.imag] for p in result.periods],
           "closure_residual": result.closure_residual}
    if include_kites:
        rows = _kite_rows(result)
        doc["kites"] = jsonio.Rows([_KITE] * len(rows), rows)
    return jsonio.dumps(doc, indent=2) + "\n"


# SVG rendering: fixed 9-significant-digit coordinates for reproducibility.
_FMT = "%.9g"


def _f(x):
    return _FMT % float(x)


def _geodesic_paths(z1, z2):
    """SVG paths of the hyperbolic geodesics from z1[i] to z2[i] in the disk.

    Points on one diameter, or so near one that the arc's radius exceeds
    1e6, are joined by a segment.  Otherwise the
    geodesic is an arc of the circle orthogonal to the unit circle, whose
    center c satisfies Re(conj(c) z) = (|z|^2 + 1) / 2 at both points;
    Cramer's rule solves that for every side at once.
    """
    cross = (np.conj(z1) * z2).imag
    straight = np.abs(cross) < 1e-12
    cross = np.where(straight, 1.0, cross)
    b1 = 0.5 * (np.abs(z1) ** 2 + 1.0)
    b2 = 0.5 * (np.abs(z2) ** 2 + 1.0)
    c = ((b1 * z2.imag - b2 * z1.imag) / cross
         + 1j * ((b2 * z1.real - b1 * z2.real) / cross))
    with np.errstate(invalid="ignore"):
        r = np.sqrt(np.abs(c) ** 2 - 1.0)
    # an arc of radius above 1e6 is within 1e-6 of its chord, and the text
    # of so large a radius would depend on the last bits of the center
    straight |= r > 1e6
    sweep = ((z2 - z1) * np.conj(c - z1)).imag > 0
    line = f"M {_FMT} {_FMT} L {_FMT} {_FMT}"
    arc = f"M {_FMT} {_FMT} A {_FMT} {_FMT} 0 0 %d {_FMT} {_FMT}"
    return [line % (x1, y1, x2, y2) if flat else arc % (x1, y1, rad, rad, turn, x2, y2)
            for x1, y1, x2, y2, rad, turn, flat in zip(
                z1.real.tolist(), z1.imag.tolist(), z2.real.tolist(), z2.imag.tolist(),
                r.tolist(), sweep.tolist(), straight.tolist())]


def _svg_rows(templates, values):
    """One line per template, all filled with ``values`` at once by the fill
    of the JSON rows, so a non-finite number raises its ValueError."""
    return [jsonio._fill("\n".join(templates), values)] if templates else []


def export_svg(result: LayoutResult, include_kites=False) -> str:
    """Deterministic SVG with circles, intersection points and (optionally)
    kite outlines; hyperbolic layouts are drawn inside the unit circle."""
    hyperbolic = result.geometry == "hyperbolic"
    if hyperbolic:
        xmin = ymin = -1.1
        xmax = ymax = 1.1
    else:
        finite = np.isfinite(result.radii)
        c, r = result.centers[finite], result.radii[finite]
        z = [result.points, result.centers[~finite]]
        if result.periods is not None:
            p1, p2 = result.periods
            z.append(np.array([0, p1, p2, p1 + p2], dtype=complex))
        z = np.concatenate(z)
        xs = np.concatenate([c.real - r, c.real + r, z.real])
        ys = np.concatenate([c.imag - r, c.imag + r, z.imag])
        if not len(xs):
            xs = ys = np.array([-1.0, 1.0])
        margin = 0.05 * max(xs.max() - xs.min(), ys.max() - ys.min(), 1e-9)
        xmin, xmax = xs.min() - margin, xs.max() + margin
        ymin, ymax = ys.min() - margin, ys.max() + margin
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
        # the sides pu-ck, ck-pw, pw-cj and cj-pu of every kite (pu, ck, pw, cj)
        corners = result.kites.reshape(-1, 4)
        sides = _geodesic_paths(corners.ravel(), np.roll(corners, -1, axis=1).ravel())
        for i, e in enumerate(result.kite_edges.tolist()):
            lines.append(kite.format(" ".join(sides[4 * i:4 * i + 4])) % e)
    elif include_kites:
        path_d = "M {0} {0} L {0} {0} L {0} {0} L {0} {0} Z".format(_FMT)
        rows = _kite_rows(result)
        lines += _svg_rows([kite.format(path_d)] * len(rows), rows)
    circle = ('<circle class="face" data-face="%d" cx="{0}" cy="{0}" r="{0}" fill="none" '
              'stroke="#222222" stroke-width="{1}"/>').format(_FMT, _f(stroke))
    line = ('<line class="face" data-face="%d" x1="{0}" y1="{0}" x2="{0}" y2="{0}" '
            'stroke="#222222" stroke-width="{1}"/>').format(_FMT, _f(stroke))
    c, n = result.centers, result.normals
    tangent = np.empty_like(n)
    tangent.real, tangent.imag = -n.imag, n.real
    extent = 2.0 * max(width, height)
    a, b = c - extent * tangent, c + extent * tangent
    lines += _svg_rows(*_face_rows(result, circle, [c.real, c.imag, result.radii],
                                   line, [a.real, a.imag, b.real, b.imag]))
    vertex = ('<circle class="vertex" data-vertex="%d" cx="{0}" cy="{0}" r="{1}" '
              'fill="#cc3333"/>').format(_FMT, _f(dot))
    rows = _vertex_rows(result)
    lines += _svg_rows([vertex] * len(rows), rows)
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
    return "\n".join(lines) + "\n"
