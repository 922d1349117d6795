"""Spherical circle patterns without cone-like singularities.

The pipeline removes the faces around a chosen vertex v_inf (the center of
the stereographic projection), solves a Euclidean pattern on the remaining
surface with adjusted boundary cone angles, re-inserts the removed faces
as straight lines (circles of infinite radius) and projects the whole
picture to the unit sphere.  Intersection angles are preserved because
stereographic projection is conformal.

Conventions: unit sphere, projection center at the north pole (0, 0, 1),
image plane z = 0; a point (X, Y, Z) maps to (X + iY)/(1 - Z).  Spherical
circles are stored as an oriented cap (unit axis, angular radius in
(0, pi)) whose interior is the face's disk.

A ``SphericalLayout`` holds the caps and the points on the sphere as
arrays, rows in ascending id order, and the planar picture as a
``layout.LayoutResult`` whose re-inserted faces are lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import jsonio, solver
from .feasibility import FeasibilityCertificate, find_coherent_angle_system
from .functional import EUCLIDEAN, PatternSpec
from .layout import LayoutResult, layout
from .surface import (OPEN, CellularSurface, DisconnectedSurfaceError,
                      euler_characteristic, is_integer, vertex_angle_sums)

TWO_PI = 2.0 * math.pi


class SphereConditionError(ValueError):
    """The data do not admit a spherical pattern."""


_DISCONNECTED = ("removing the faces around v_infinity disconnects the "
                 "dual 1-skeleton")


@dataclass
class SphericalProblem:
    """Closed genus-0 surface, exterior angles theta in (0, pi) per edge
    summing to 2*pi around every vertex, and the projection vertex."""
    surface: CellularSurface
    theta: np.ndarray
    v_infinity: int

    def __post_init__(self):
        s = self.surface
        self.theta = np.asarray(self.theta, dtype=float)
        chi, genus = euler_characteristic(s)
        if not s.is_closed or genus != 0:
            raise ValueError("spherical patterns require a closed genus-0 surface")
        if self.theta.shape != (s.n_edges,):
            raise ValueError(f"theta must have {s.n_edges} entries")
        # written so that NaN fails
        if not np.all((self.theta > 0.0) & (self.theta < np.pi)):
            raise ValueError("theta must lie strictly in (0, pi)")
        sums = vertex_angle_sums(s, self.theta)
        bad = np.abs(sums - TWO_PI) > 1e-8
        if np.any(bad):
            v = int(np.argmax(bad))
            raise ValueError(f"theta must sum to 2*pi around every vertex; "
                             f"vertex {v} sums to {sums[v]:.12g}")
        if not is_integer(self.v_infinity) or not 0 <= self.v_infinity < s.n_vertices:
            raise ValueError("v_infinity must be a vertex id")

    @property
    def theta_star(self):
        return np.pi - self.theta


@dataclass
class Reduction:
    """Result of removing the faces around v_inf."""
    elementary: bool
    removed_faces: tuple
    removed_edges: tuple
    dropped_vertices: tuple
    surface: CellularSurface | None = None     # the reduced surface
    spec: PatternSpec | None = None
    face_map: tuple = ()     # reduced face -> original face
    edge_map: tuple = ()     # reduced edge -> original edge
    vertex_map: tuple = ()   # reduced vertex -> original vertex


def reduce_to_plane(p: SphericalProblem) -> Reduction:
    """Remove the faces incident with v_inf and all edges incident with
    them; the remaining faces keep Phi = 2*pi if interior and
    Phi = 2*pi - sum(2 theta*) over their removed edges otherwise.

    A kept face whose edges are all kept stays closed; otherwise its kept
    edges must form one arc of its walk, which becomes the open walk of a
    boundary face starting at the arc's first edge.  The reduced surface
    numbers its oriented edges along those walks in kept-face order, and
    its faces, edges and vertices in the order of the kept ones of p."""
    s = p.surface
    walks, edge_of = s.walk_edges, s.oe_edge
    v = p.v_infinity
    removed_face = np.zeros(s.n_faces, dtype=bool)
    removed_face[s.oe_left[s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]]]] = True
    removed_edge = np.zeros(s.n_edges, dtype=bool)
    removed_edge[edge_of[removed_face[s.oe_left]]] = True
    kept_faces = np.flatnonzero(~removed_face)
    if not len(kept_faces):
        raise SphereConditionError("every face is incident with v_infinity")
    kept_edges = np.flatnonzero(~removed_edge)
    ends = s.oe_origin[np.concatenate((s.edge_reps[kept_edges],
                                       s.oe_twin[s.edge_reps[kept_edges]]))]
    kept_vertex = np.zeros(s.n_vertices, dtype=bool)
    kept_vertex[ends] = True
    kept_vertices = np.flatnonzero(kept_vertex)
    common = dict(removed_faces=tuple(np.flatnonzero(removed_face).tolist()),
                  removed_edges=tuple(np.flatnonzero(removed_edge).tolist()),
                  dropped_vertices=tuple(np.flatnonzero(~kept_vertex).tolist()))

    if not len(kept_edges):
        if len(kept_faces) != 1:
            raise SphereConditionError(_DISCONNECTED)
        return Reduction(elementary=True, face_map=(int(kept_faces[0]),), **common)

    # every position of every face walk: its face, its place in the walk
    # and whether its edge is kept
    sizes = np.diff(s.walk_offsets)
    face = np.repeat(np.arange(s.n_faces), sizes)
    place = np.arange(len(walks)) - s.walk_offsets[face]
    kept = ~removed_edge[edge_of[walks]]
    before = np.where(place == 0, sizes[face] - 1, place - 1) + s.walk_offsets[face]
    arc_start = kept & ~kept[before]
    n_kept = np.bincount(face, weights=kept, minlength=s.n_faces).astype(np.intp)
    n_arcs = np.bincount(face, weights=arc_start, minlength=s.n_faces).astype(np.intp)
    closed = n_kept == sizes
    bad = kept_faces[(n_kept == 0)[kept_faces] | (~closed & (n_arcs > 1))[kept_faces]]
    if len(bad):
        f = int(bad[0])
        if n_kept[f] == 0:
            raise SphereConditionError(_DISCONNECTED)
        raise SphereConditionError(
            f"face {f} keeps several disjoint boundary arcs; "
            f"the reduced surface is not representable")

    new_face = np.full(s.n_faces, OPEN, dtype=np.intp)
    new_face[kept_faces] = np.arange(len(kept_faces))
    first = np.zeros(s.n_faces, dtype=np.intp)
    first[face[arc_start]] = place[arc_start]
    counts = n_kept[kept_faces]
    base = np.cumsum(counts) - counts
    taken = kept & ~removed_face[face]
    at = base[new_face[face[taken]]] + (place[taken] - first[face[taken]]) % sizes[face[taken]]
    h = np.empty(len(at), dtype=np.intp)
    h[at] = walks[taken]
    position = np.full(s.n_oriented_edges, OPEN, dtype=np.intp)
    position[h] = np.arange(len(h))
    nxt = np.arange(1, len(h) + 1)
    last = base + counts - 1
    nxt[last] = np.where(closed[kept_faces], base, OPEN)
    new_edge = np.full(s.n_edges, OPEN, dtype=np.intp)
    new_edge[kept_edges] = np.arange(len(kept_edges))
    new_vertex = np.full(s.n_vertices, OPEN, dtype=np.intp)
    new_vertex[kept_vertices] = np.arange(len(kept_vertices))
    try:
        reduced = CellularSurface(new_vertex[s.oe_origin[h]], new_face[s.oe_left[h]],
                                  position[s.oe_twin[h]], nxt, edge_id=new_edge[edge_of[h]])
    except DisconnectedSurfaceError as exc:
        raise SphereConditionError(_DISCONNECTED) from exc

    # 2 theta* summed over each face's removed edges in walk order
    theta_star = p.theta_star
    lost = ~kept & ~removed_face[face]
    phi = TWO_PI - 2.0 * np.bincount(new_face[face[lost]],
                                     weights=theta_star[edge_of[walks[lost]]],
                                     minlength=len(kept_faces))
    if np.any(phi <= 0.0):
        f = kept_faces[int(np.argmin(phi))]
        raise SphereConditionError(
            f"boundary face {f} would get nonpositive cone angle "
            f"{phi.min():.12g}; the subset conditions fail")
    spec = PatternSpec(reduced, EUCLIDEAN, theta_star[kept_edges], phi)
    return Reduction(elementary=False, surface=reduced, spec=spec,
                     face_map=tuple(kept_faces.tolist()),
                     edge_map=tuple(kept_edges.tolist()),
                     vertex_map=tuple(kept_vertices.tolist()), **common)


@dataclass
class SphereVerdict:
    ok: bool
    message: str = ""
    certificate: FeasibilityCertificate | None = None


def check_sphere_conditions(p: SphericalProblem) -> SphereVerdict:
    """Decide whether the reduction of p admits a Euclidean pattern.

    Runs :func:`reduce_to_plane`, whose failures (every face around
    v_inf, a disconnected dual 1-skeleton, a nonpositive boundary cone
    angle) are failing verdicts; an elementary reduction passes; otherwise
    the flow check of the reduced problem decides the total-angle equality
    and the strict subset inequalities.  A violating subset is reported in
    the faces and edges of p.
    """
    try:
        red = reduce_to_plane(p)
    except SphereConditionError as exc:
        return SphereVerdict(False, str(exc))
    if red.elementary:
        return SphereVerdict(True)
    cert = find_coherent_angle_system(red.spec)
    if cert.feasible:
        return SphereVerdict(True, certificate=cert)
    return SphereVerdict(False, cert.message, _original_certificate(p, red, cert))


def _original_certificate(p, red, cert):
    """A violating subset of the reduced surface, in the numbering of p.

    Each kept face has Phi = 2*pi less 2 theta* over its removed edges, so
    the inequality over the original incident edges has the same margin.
    """
    s = p.surface
    faces = np.sort(np.asarray(red.face_map)[list(cert.violating_faces)])
    edges = np.unique(s.oe_edge[np.isin(s.oe_left, faces)])
    return replace(
        cert, violating_faces=tuple(faces.tolist()), violating_edges=tuple(edges.tolist()),
        phi_sum=TWO_PI * len(faces), theta_sum=float(2.0 * p.theta_star[edges].sum()))


# -- stereographic projection --------------------------------------------------

def _sphere_points(z):
    """Inverse stereographic images of the complex array z as rows of an
    (N, 3) array; a non-finite z maps to the north pole."""
    z = np.asarray(z, dtype=complex)
    finite = np.isfinite(z.real) & np.isfinite(z.imag)
    x, y = np.where(finite, z.real, 0.0), np.where(finite, z.imag, 0.0)
    n2 = x * x + y * y
    out = np.stack((2.0 * x, 2.0 * y, n2 - 1.0), axis=1) / (n2 + 1.0)[:, None]
    out[~finite] = (0.0, 0.0, 1.0)
    return out


# a circle's points at these turns from its center fix its image
_ON_CIRCLE = np.array([np.exp(1j * a) for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)])


def _dots(a, b):
    """Row-wise dot products; matmul of 1 x 3 by 3 x 1 rounds as ``a @ b``."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def sphere_caps(centers, radii, normals):
    """Inverse stereographic images of generalized circles as oriented caps.

    Row i of the complex arrays ``centers`` and ``normals`` and the float
    array ``radii`` is the circle of center ``centers[i]`` and radius
    ``radii[i]`` or, where the radius is inf, the line through
    ``centers[i]`` with unit normal ``normals[i]``.  Each cap passes
    through the images of three points of its circle or line (a line's
    third point is the north pole), and its interior holds the image of
    the circle's center or of the point one normal off the line.  Returns
    the unit axes as an (N, 3) array and the angular radii as an array."""
    n = len(centers)
    line = np.isinf(radii)
    on = np.empty((n, 3), dtype=complex)
    on[~line] = centers[~line, None] + radii[~line, None] * _ON_CIRCLE
    point, normal = centers[line], normals[line]
    tangent = np.empty(len(point), dtype=complex)
    tangent.real, tangent.imag = -normal.imag, normal.real
    on[line] = np.stack((point - tangent, point + tangent, np.full(len(point), np.inf)), axis=1)
    inside = np.where(line, centers + normals, centers)
    points = _sphere_points(on.ravel()).reshape(n, 3, 3)
    p1 = points[:, 0]
    axes = np.cross(points[:, 1] - p1, points[:, 2] - p1)
    norm = np.sqrt(_dots(axes, axes))
    if np.any(norm < 1e-14):
        raise ValueError("degenerate circle through nearly collinear points")
    axes = axes / norm[:, None]
    d = _dots(axes, p1)
    flip = _dots(axes, _sphere_points(inside)) < d
    axes[flip] = -axes[flip]
    d[flip] = -d[flip]
    # clamped as min(1, max(-1, d)) is; acos rounds as math.acos
    d = np.where(d > -1.0, d, -1.0)
    d = np.where(d < 1.0, d, 1.0)
    return axes, np.array([math.acos(x) for x in d.tolist()])


# -- planar generalized-circle intersections -----------------------------------
#
# A generalized circle is a (center, radius, normal) triple of Python scalars:
# a circle, or where the radius is inf the line through center with that
# unit normal.

def _intersections(a, b):
    (ca, ra, na), (cb, rb, nb) = a, b
    if math.isinf(ra) and math.isinf(rb):
        det = (np.conj(na) * nb).imag
        if abs(det) < 1e-13:
            return []
        c1 = (np.conj(na) * ca).real
        c2 = (np.conj(nb) * cb).real
        # solve Re(conj(n) z) = c for both lines
        m = np.array([[na.real, na.imag], [nb.real, nb.imag]])
        xy = np.linalg.solve(m, [c1, c2])
        return [complex(xy[0], xy[1])]
    if math.isinf(ra):
        (ca, ra, na), (cb, rb, nb) = b, a
    if math.isinf(rb):
        off = (np.conj(nb) * (ca - cb)).real
        if abs(off) > ra:
            return []
        foot = ca - off * nb
        half = math.sqrt(max(ra * ra - off * off, 0.0))
        tangent = complex(-nb.imag, nb.real)
        return [foot - half * tangent, foot + half * tangent]
    d = abs(cb - ca)
    if d < 1e-15 or d > ra + rb or d < abs(ra - rb):
        return []
    t = (d * d + ra ** 2 - rb ** 2) / (2.0 * d)
    h2 = ra ** 2 - t * t
    h = math.sqrt(max(h2, 0.0))
    u = (cb - ca) / d
    foot = ca + t * u
    n = complex(-u.imag, u.real)
    return [foot + h * n, foot - h * n]


def _incidence_error(circle, z):
    center, radius, normal = circle
    if math.isinf(radius):
        return abs((np.conj(normal) * (z - center)).real)
    return abs(abs(z - center) - radius)


# -- the full pipeline ----------------------------------------------------------

@dataclass
class SphericalLayout:
    """A spherical pattern as arrays, rows in ascending id order.

    ``faces`` with their caps (unit ``axes`` and ``angular_radii``),
    ``vertices`` with their ``points`` on the unit sphere, v_inf at the
    north pole.  ``planar`` is the picture in the image plane in the
    numbering of p: the reduced pattern's circles and kites, the removed
    faces as lines and every vertex but v_inf."""
    faces: np.ndarray                # (F,) original faces with a cap
    axes: np.ndarray                 # (F, 3) unit cap axes
    angular_radii: np.ndarray        # (F,)
    vertices: np.ndarray             # (V,) original vertices
    points: np.ndarray               # (V, 3) on the unit sphere
    planar: LayoutResult
    line_residual: float = 0.0


# The planar picture is built in arrays over all faces and vertices of p:
# circles = (centers, radii, normals), whose radius is nan until the face's
# circle or line is placed, and points, nan until the vertex is placed.

def _circle(circles, f):
    """Face f's generalized circle as Python scalars."""
    centers, radii, normals = circles
    return complex(centers[f]), float(radii[f]), complex(normals[f])


def _place(circles, f, circle):
    for column, value in zip(circles, circle):
        column[f] = value


def _elementary_planar(p: SphericalProblem, red: Reduction, circles, points):
    """Single remaining face: intersection points on the unit circle with
    arcs 2 theta*, removed faces as the chord lines.  Returns the largest
    incidence error.

    Each removed face borders the remaining one along a single edge: a
    closed curve through both faces across two shared edges would enclose
    vertices, of degree at least 3, on no face through v_inf."""
    s = p.surface
    f0 = red.face_map[0]
    walk = s.walk_edges[s.walk_offsets[f0]:s.walk_offsets[f0 + 1]]
    starts, ends = s.oe_origin[walk].tolist(), s.oe_origin[s.oe_twin[walk]].tolist()
    edges = s.oe_edge[walk]
    beta = 0.0
    for u, arc in zip(starts, (2.0 * p.theta_star[edges]).tolist()):
        points[u] = complex(math.cos(beta), math.sin(beta))
        beta += arc
    _place(circles, f0, (0j, 1.0, 0j))
    residual = 0.0
    for g, theta, u, w in zip(s.oe_right[walk].tolist(), p.theta[edges].tolist(),
                              starts, ends):
        z1 = complex(points[u])
        # ray to the line's center direction: rotate the ray to the circle
        # center (the origin) clockwise by theta at the edge's start point
        line = (z1, math.inf, -z1 * np.exp(-1j * theta))
        _place(circles, g, line)
        residual = max(residual, _incidence_error(line, complex(points[w])))
    return residual


def _chain_directions(p: SphericalProblem, red: Reduction, circles, points):
    """Reconstruct the removed faces' lines from boundary-vertex angles.

    Around a vertex, rotating counterclockwise across an edge advances the
    direction towards the neighboring center by the exterior angle theta.
    Starting from the placed centers of kept faces, this determines the
    normal direction of every removed face's line at every surviving
    vertex on its boundary.  Returns the largest mismatch.
    """
    s = p.surface
    theta = p.theta
    kept = set(red.face_map)
    centers, radii, _ = circles
    residual = 0.0
    for v in np.asarray(red.vertex_map)[red.surface.vertex_boundary].tolist():
        pu = complex(points[v])
        fan = s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]]
        d = len(fan)
        fan_faces = s.oe_left[fan].tolist()
        turns = theta[s.oe_edge[fan]].tolist()
        dirs = [None] * d
        start = next(i for i, f in enumerate(fan_faces) if f in kept)
        dirs[start] = float(np.angle(complex(centers[fan_faces[start]]) - pu))
        for step in range(1, d):
            i = (start + step) % d
            dirs[i] = dirs[i - 1] + turns[i]
        for i, f in enumerate(fan_faces):
            if f in kept:
                measured = float(np.angle(complex(centers[f]) - pu))
                diff = (dirs[i] - measured + math.pi) % TWO_PI - math.pi
                residual = max(residual, abs(diff))
                continue
            n = np.exp(1j * dirs[i])
            if np.isnan(radii[f]):
                _place(circles, f, (pu, math.inf, n))
            else:
                old = _circle(circles, f)
                residual = max(residual, abs(old[2] - n), _incidence_error(old, pu))
    return residual


def _dropped_positions(p: SphericalProblem, red: Reduction, circles, points):
    """Place the vertices whose edges were all removed, v_inf excepted, at
    the common point of their incident generalized circles."""
    s = p.surface
    radii = circles[1]
    for v in red.dropped_vertices:
        if v == p.v_infinity:
            continue
        fan = s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]]
        incident = [_circle(circles, f) for f in dict.fromkeys(s.oe_left[fan].tolist())
                    if not np.isnan(radii[f])]
        best = None
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                for z in _intersections(incident[i], incident[j]):
                    err = max(_incidence_error(c, z) for c in incident)
                    if best is None or err < best[0]:
                        best = (err, z)
        if best is None:
            raise SphereConditionError(
                f"cannot reconstruct the position of removed vertex {v}")
        points[v] = best[1]


def solve_sphere(p: SphericalProblem) -> SphericalLayout:
    """Construct the spherical pattern: reduce to the plane, solve the
    reduced Euclidean problem, lay it out, re-insert the removed faces as
    lines and project everything to the unit sphere.

    Existence is decided by ``find_coherent_angle_system`` on the reduced
    problem with the angles of its solve, which runs the flow only when
    they prove nothing; a failing verdict raises SphereConditionError
    with the flow's message."""
    red = reduce_to_plane(p)
    s = p.surface
    circles = (np.zeros(s.n_faces, dtype=complex), np.full(s.n_faces, np.nan),
               np.zeros(s.n_faces, dtype=complex))
    centers, radii, normals = circles
    points = np.full(s.n_vertices, np.nan, dtype=complex)
    if red.elementary:
        line_residual = _elementary_planar(p, red, circles, points)
        kites, kite_edges = np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=int)
        closure_residual, diameter = line_residual, None
    else:
        solve_result = solver.minimize(red.spec)
        cert = find_coherent_angle_system(red.spec, solve_result.cas)
        if not cert.feasible:
            raise SphereConditionError(cert.message)
        if not solve_result.converged:
            raise SphereConditionError(
                f"reduced solve did not converge: {solve_result.message}")
        reduced = layout(red.spec, solve_result.rho)
        faces = np.asarray(red.face_map)[reduced.faces]
        centers[faces], radii[faces] = reduced.centers, reduced.radii
        points[np.asarray(red.vertex_map)[reduced.vertices]] = reduced.points
        line_residual = _chain_directions(p, red, circles, points)
        kites, kite_edges = reduced.kites, np.asarray(red.edge_map)[reduced.kite_edges]
        closure_residual, diameter = reduced.closure_residual, reduced.diameter
    _dropped_positions(p, red, circles, points)

    faces = np.flatnonzero(~np.isnan(radii))
    vertices = np.flatnonzero(~np.isnan(points))
    if diameter is None:
        diameter = float(np.abs(points[vertices] - points[vertices].mean()).max() * 2.0)
    planar = LayoutResult(
        geometry=EUCLIDEAN, faces=faces, centers=centers[faces], radii=radii[faces],
        normals=normals[faces], vertices=vertices, points=points[vertices],
        kites=kites, kite_edges=kite_edges, closure_residual=closure_residual,
        diameter=diameter)
    axes, angular_radii = sphere_caps(planar.centers, planar.radii, planar.normals)
    # v_inf has no planar point; the nan maps to the north pole
    vertices = np.union1d(vertices, [p.v_infinity])
    return SphericalLayout(
        faces=faces, axes=axes, angular_radii=angular_radii,
        vertices=vertices, points=_sphere_points(points[vertices]),
        planar=planar, line_residual=line_residual)


def spherical_layout_to_dict(p: SphericalProblem, lay: SphericalLayout) -> dict:
    """The document of ``sphere``: caps by face, points by vertex, whose
    long lists are ``jsonio.Rows``."""
    cap = {"face": jsonio.INT, "axis": [jsonio.FLOAT] * 3, "angular_radius": jsonio.FLOAT}
    point = {"vertex": jsonio.INT, "point": [jsonio.FLOAT] * 3}
    return {
        "circles": jsonio.Rows([cap] * len(lay.faces),
                               np.column_stack([lay.faces, lay.axes, lay.angular_radii])),
        "vertices": jsonio.Rows([point] * len(lay.vertices),
                                np.column_stack([lay.vertices, lay.points])),
        "v_infinity": p.v_infinity,
        "line_residual": lay.line_residual,
    }
