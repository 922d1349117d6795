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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .feasibility import (FeasibilityCertificate, certify_angles,
                          find_coherent_angle_system)
from .functional import EUCLIDEAN, PatternSpec
from .layout import Circle, Line, LayoutResult, layout
from .surface import (CellularSurface, DisconnectedSurfaceError,
                      euler_characteristic, surface_from_walks, vertex_angle_sums)

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
        if not 0 <= self.v_infinity < s.n_vertices:
            raise ValueError("v_infinity out of range")

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


def _faces_around(s: CellularSurface, v: int):
    return {s.left_face(g) for g in s.vertex_fan(v)}


def reduce_to_plane(p: SphericalProblem) -> Reduction:
    """Remove the faces incident with v_inf and all edges incident with
    them; the remaining faces keep Phi = 2*pi if interior and
    Phi = 2*pi - sum(2 theta*) over their removed edges otherwise."""
    s = p.surface
    f_inf = _faces_around(s, p.v_infinity)
    removed_edges = {s.edge_of(h) for h in range(s.n_oriented_edges)
                     if s.left_face(h) in f_inf}
    kept_faces = [f for f in range(s.n_faces) if f not in f_inf]
    if not kept_faces:
        raise SphereConditionError("every face is incident with v_infinity")
    kept_edges = sorted(e for e in range(s.n_edges) if e not in removed_edges)
    kept_vertices = sorted({s.origin(s.edge_rep(e)) for e in kept_edges}
                           | {s.terminus(s.edge_rep(e)) for e in kept_edges})
    dropped = tuple(v for v in range(s.n_vertices) if v not in set(kept_vertices))

    if not kept_edges:
        if len(kept_faces) != 1:
            raise SphereConditionError(_DISCONNECTED)
        return Reduction(elementary=True,
                         removed_faces=tuple(sorted(f_inf)),
                         removed_edges=tuple(sorted(removed_edges)),
                         dropped_vertices=dropped,
                         face_map=(kept_faces[0],))

    face_index = {f: i for i, f in enumerate(kept_faces)}
    edge_index = {e: i for i, e in enumerate(kept_edges)}
    vertex_index = {v: i for i, v in enumerate(kept_vertices)}
    walks = []
    phi = []
    for f in kept_faces:
        walk = s.face_walk(f)
        kept_flags = [s.edge_of(h) not in removed_edges for h in walk]
        if not any(kept_flags):
            raise SphereConditionError(_DISCONNECTED)
        k = len(walk)
        if all(kept_flags):
            arc = list(walk)
            closed = True
        else:
            start = next(i for i in range(k)
                         if kept_flags[i] and not kept_flags[(i - 1) % k])
            arc = []
            i = start
            while kept_flags[i % k] and len(arc) < k:
                arc.append(walk[i % k])
                i += 1
            if sum(kept_flags) != len(arc):
                raise SphereConditionError(
                    f"face {f} keeps several disjoint boundary arcs; "
                    f"the reduced surface is not representable")
            closed = False
        tokens = []
        for h in arc:
            e = s.edge_of(h)
            sign = 1 if h == s.edge_rep(e) else -1
            tokens.append((vertex_index[s.origin(h)], edge_index[e], sign))
        walks.append((tokens, closed))
        removed_incidences = [s.edge_of(h) for h in walk
                              if s.edge_of(h) in removed_edges]
        phi.append(TWO_PI - 2.0 * sum(p.theta_star[e] for e in removed_incidences))

    try:
        reduced = surface_from_walks(walks, edge_order=range(len(kept_edges)))
    except DisconnectedSurfaceError as exc:
        raise SphereConditionError(_DISCONNECTED) from exc
    phi = np.asarray(phi)
    if np.any(phi <= 0.0):
        f = kept_faces[int(np.argmin(phi))]
        raise SphereConditionError(
            f"boundary face {f} would get nonpositive cone angle "
            f"{phi.min():.12g}; the subset conditions fail")
    spec = PatternSpec(reduced, EUCLIDEAN, p.theta_star[kept_edges], phi)
    return Reduction(elementary=False,
                     removed_faces=tuple(sorted(f_inf)),
                     removed_edges=tuple(sorted(removed_edges)),
                     dropped_vertices=dropped,
                     surface=reduced, spec=spec,
                     face_map=tuple(kept_faces),
                     edge_map=tuple(kept_edges),
                     vertex_map=tuple(kept_vertices))


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
    faces = tuple(sorted(red.face_map[f] for f in cert.violating_faces))
    edges = tuple(sorted({s.edge_of(h) for f in faces for h in s.face_walk(f)}))
    return replace(
        cert, violating_faces=faces, violating_edges=edges,
        phi_sum=TWO_PI * len(faces),
        theta_sum=float(2.0 * p.theta_star[list(edges)].sum()))


# -- stereographic projection --------------------------------------------------

def stereographic_inverse(z: complex):
    """Plane to the unit sphere; inf maps to the north pole."""
    if not np.isfinite(z.real) or not np.isfinite(z.imag):
        return np.array([0.0, 0.0, 1.0])
    n2 = z.real * z.real + z.imag * z.imag
    return np.array([2.0 * z.real, 2.0 * z.imag, n2 - 1.0]) / (n2 + 1.0)


@dataclass(frozen=True)
class SphericalCircle:
    """Oriented circle on the unit sphere: the cap {X . axis >= cos(r)}
    is the face's disk."""
    axis: np.ndarray
    angular_radius: float


def _cap_through(points3, interior3) -> SphericalCircle:
    p1, p2, p3 = points3
    n = np.cross(p2 - p1, p3 - p1)
    norm = np.linalg.norm(n)
    if norm < 1e-14:
        raise ValueError("degenerate circle through nearly collinear points")
    n = n / norm
    d = float(n @ p1)
    if float(n @ interior3) < d:
        n, d = -n, -d
    d = min(1.0, max(-1.0, d))
    return SphericalCircle(axis=n, angular_radius=math.acos(d))


def circle_to_sphere(obj, interior_point=None) -> SphericalCircle:
    """Inverse stereographic image of a generalized circle as an oriented cap."""
    if isinstance(obj, Circle):
        c, r = obj.center, obj.radius
        pts = [stereographic_inverse(c + r * np.exp(1j * a))
               for a in (0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0)]
        interior = stereographic_inverse(c if interior_point is None else interior_point)
    elif isinstance(obj, Line):
        tangent = complex(-obj.normal.imag, obj.normal.real)
        pts = [stereographic_inverse(obj.point - tangent),
               stereographic_inverse(obj.point + tangent),
               np.array([0.0, 0.0, 1.0])]
        interior = stereographic_inverse(
            obj.point + obj.normal if interior_point is None else interior_point)
    else:
        raise TypeError(f"not a generalized circle: {obj!r}")
    return _cap_through(pts, interior)


# -- planar generalized-circle intersections -----------------------------------

def _intersections(a, b):
    if isinstance(a, Line) and isinstance(b, Line):
        n1, n2 = a.normal, b.normal
        det = (np.conj(n1) * n2).imag
        if abs(det) < 1e-13:
            return []
        c1 = (np.conj(n1) * a.point).real
        c2 = (np.conj(n2) * b.point).real
        # solve Re(conj(n) z) = c for both lines
        m = np.array([[n1.real, n1.imag], [n2.real, n2.imag]])
        xy = np.linalg.solve(m, [c1, c2])
        return [complex(xy[0], xy[1])]
    if isinstance(a, Line):
        a, b = b, a
    if isinstance(b, Line):
        c, r = a.center, a.radius
        off = (np.conj(b.normal) * (c - b.point)).real
        if abs(off) > r:
            return []
        foot = c - off * b.normal
        half = math.sqrt(max(r * r - off * off, 0.0))
        tangent = complex(-b.normal.imag, b.normal.real)
        return [foot - half * tangent, foot + half * tangent]
    d = abs(b.center - a.center)
    if d < 1e-15 or d > a.radius + b.radius or d < abs(a.radius - b.radius):
        return []
    t = (d * d + a.radius ** 2 - b.radius ** 2) / (2.0 * d)
    h2 = a.radius ** 2 - t * t
    h = math.sqrt(max(h2, 0.0))
    u = (b.center - a.center) / d
    foot = a.center + t * u
    n = complex(-u.imag, u.real)
    return [foot + h * n, foot - h * n]


def _incidence_error(obj, z):
    if isinstance(obj, Circle):
        return abs(abs(z - obj.center) - obj.radius)
    return abs((np.conj(obj.normal) * (z - obj.point)).real)


# -- the full pipeline ----------------------------------------------------------

@dataclass
class SphericalLayout:
    circles: dict                    # original face -> SphericalCircle
    vertex_points: dict              # original vertex -> unit 3-vector
    planar_circles: dict             # original face -> Circle | Line
    planar_vertices: dict            # original vertex (except v_inf) -> complex
    reduction: Reduction
    planar: LayoutResult | None = None
    line_residual: float = 0.0


def _elementary_planar(p: SphericalProblem, red: Reduction):
    """Single remaining face: intersection points on the unit circle with
    arcs 2 theta*, removed faces as the chord lines."""
    s = p.surface
    f0 = red.face_map[0]
    walk = s.face_walk(f0)
    beta = 0.0
    points = {}
    positions = []
    for h in walk:
        points[s.origin(h)] = complex(math.cos(beta), math.sin(beta))
        positions.append(beta)
        beta += 2.0 * p.theta_star[s.edge_of(h)]
    circles = {f0: Circle(0.0 + 0.0j, 1.0)}
    theta = p.theta
    residual = 0.0
    for h in walk:
        g = s.right_face(h)
        z1 = points[s.origin(h)]
        z2 = points[s.terminus(h)]
        # ray to the line's center direction: rotate the ray to the circle
        # center (the origin) clockwise by theta at the edge's start point
        n = -z1 * np.exp(-1j * theta[s.edge_of(h)])
        line = Line(point=z1, normal=n)
        if g in circles:
            residual = max(residual, _incidence_error(circles[g], z1))
        else:
            circles[g] = line
        residual = max(residual, _incidence_error(line, z2))
    return circles, points, residual


def _chain_directions(p, red, planar: LayoutResult):
    """Reconstruct the removed faces' lines from boundary-vertex angles.

    Around a vertex, rotating counterclockwise across an edge advances the
    direction towards the neighboring center by the exterior angle theta.
    Starting from the placed centers of kept faces, this determines the
    normal direction of every removed face's line at every surviving
    vertex on its boundary.
    """
    s = p.surface
    theta = p.theta
    kept_face_of = {orig: i for i, orig in enumerate(red.face_map)}
    vertex_of = {orig: i for i, orig in enumerate(red.vertex_map)}
    lines = {}
    residual = 0.0
    for orig_v in red.vertex_map:
        v0 = vertex_of[orig_v]
        if not red.surface.vertex_is_boundary(v0):
            continue
        pu = planar.vertex_points[v0]
        fan = s.vertex_fan(orig_v)
        d = len(fan)
        fan_faces = [s.left_face(g) for g in fan]
        dirs = [None] * d
        start = next(i for i, f in enumerate(fan_faces) if f in kept_face_of)
        center = planar.circles[kept_face_of[fan_faces[start]]].center
        dirs[start] = float(np.angle(center - pu))
        for step in range(1, d):
            i = (start + step) % d
            prev = (start + step - 1) % d
            dirs[i] = dirs[prev] + theta[s.edge_of(fan[i])]
        for i, f in enumerate(fan_faces):
            if f in kept_face_of:
                measured = float(np.angle(
                    planar.circles[kept_face_of[f]].center - pu))
                diff = (dirs[i] - measured + math.pi) % TWO_PI - math.pi
                residual = max(residual, abs(diff))
            else:
                n = np.exp(1j * dirs[i])
                line = Line(point=pu, normal=n)
                if f in lines:
                    old = lines[f]
                    residual = max(residual, abs(old.normal - n),
                                   _incidence_error(old, pu))
                else:
                    lines[f] = line
    return lines, residual


def _dropped_positions(p: SphericalProblem, red, circles, known):
    """Positions of vertices whose edges were all removed, via the common
    point of their incident generalized circles."""
    s = p.surface
    out = {}
    for v in red.dropped_vertices:
        if v == p.v_infinity:
            continue
        incident = []
        seen = set()
        for g in s.vertex_fan(v):
            f = s.left_face(g)
            if f not in seen and f in circles:
                seen.add(f)
                incident.append(circles[f])
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
        out[v] = best[1]
    return out


def solve_sphere(p: SphericalProblem) -> SphericalLayout:
    """Construct the spherical pattern: reduce to the plane, solve the
    reduced Euclidean problem, lay it out, re-insert the removed faces as
    lines and project everything to the unit sphere.

    The angles of the reduced solve prove existence when
    :func:`feasibility.certify_angles` accepts them; only otherwise do
    :func:`check_sphere_conditions` and its flow decide, so that a failing
    verdict keeps its message."""
    red = reduce_to_plane(p)
    planar_result = None
    if red.elementary:
        circles, points, line_residual = _elementary_planar(p, red)
    else:
        solve_result = solver.minimize(red.spec)
        if certify_angles(red.spec, solve_result.cas) is None:
            verdict = check_sphere_conditions(p)
            if not verdict.ok:
                raise SphereConditionError(verdict.message)
        if not solve_result.converged:
            raise SphereConditionError(
                f"reduced solve did not converge: {solve_result.message}")
        planar_result = layout(red.spec, solve_result.rho)
        circles = {red.face_map[i]: planar_result.circles[i]
                   for i in range(len(red.face_map))}
        points = {red.vertex_map[i]: planar_result.vertex_points[i]
                  for i in range(len(red.vertex_map))}
        lines, line_residual = _chain_directions(p, red, planar_result)
        circles.update(lines)
    points.update(_dropped_positions(p, red, circles, points))

    spherical = {}
    for f, obj in circles.items():
        spherical[f] = circle_to_sphere(obj)
    vertex_points = {v: stereographic_inverse(z) for v, z in points.items()}
    vertex_points[p.v_infinity] = np.array([0.0, 0.0, 1.0])
    return SphericalLayout(
        circles=spherical, vertex_points=vertex_points,
        planar_circles=circles, planar_vertices=points,
        reduction=red, planar=planar_result,
        line_residual=line_residual)


def planar_layout(p: SphericalProblem, lay: SphericalLayout) -> LayoutResult:
    """The full planar intermediate (circles, re-inserted lines and all
    finite vertex positions) as a layout result for export."""
    if lay.planar is not None:
        kites = lay.planar.kites
        kite_edges = np.asarray(lay.reduction.edge_map)[lay.planar.kite_edges]
        residual = lay.planar.closure_residual
        diameter = lay.planar.diameter
    else:
        kites, kite_edges = np.zeros((0, 4), dtype=complex), np.zeros(0, dtype=int)
        residual = lay.line_residual
        pts = np.array(list(lay.planar_vertices.values()))
        diameter = float(abs(pts - pts.mean()).max() * 2.0) if len(pts) else 2.0
    return LayoutResult(
        geometry=EUCLIDEAN, circles=dict(lay.planar_circles),
        vertex_points=dict(lay.planar_vertices), kites=kites, kite_edges=kite_edges,
        closure_residual=residual, diameter=diameter, periods=None)


def spherical_layout_to_dict(p: SphericalProblem, lay: SphericalLayout) -> dict:
    return {
        "circles": [{"face": f,
                     "axis": list(lay.circles[f].axis),
                     "angular_radius": lay.circles[f].angular_radius}
                    for f in sorted(lay.circles)],
        "vertices": [{"vertex": v, "point": list(lay.vertex_points[v])}
                     for v in sorted(lay.vertex_points)],
        "v_infinity": p.v_infinity,
        "line_residual": lay.line_residual,
    }
