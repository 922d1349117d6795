"""Geometric realization of solved circle patterns.

Each unoriented edge contributes a kite built from the two circle centers
and the edge's two intersection points.  The kites are assembled by a
breadth-first developing map over shared sides; a flat torus is cut open
and laid out as a fundamental domain with the two translation periods
reported.  Hyperbolic patterns live in the Poincare disk.

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

from . import jsonio
from .functional import PatternSpec, phi_of_rho, radii_from_rho
from .surface import OPEN, vertex_angle_sums

TWO_PI = 2.0 * math.pi


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


@dataclass(frozen=True)
class Kite:
    """Kite of one edge: centers C_j (left), C_k (right), points P_u, P_w.

    Corner angles are 2*phi_j at C_j, 2*phi_k at C_k and theta at both
    vertex corners; the center distance d satisfies the (Euclidean or
    hyperbolic) law of cosines with the two radii and theta.
    """
    edge: int
    rep: int
    face_left: int
    face_right: int
    vertex_from: int
    vertex_to: int
    r_left: float
    r_right: float
    theta: float
    phi_left: float
    phi_right: float
    center_distance: float
    corners_local: tuple  # (P_u, C_k, P_w, C_j) in the kite's own frame


@dataclass
class LayoutResult:
    geometry: str
    circles: dict                 # face -> Circle | Line
    vertex_points: dict           # vertex -> complex
    kites: list                   # (edge id, 4 global corners (P_u, C_k, P_w, C_j))
    closure_residual: float
    diameter: float
    periods: tuple | None = None  # two complex translation periods (torus)
    root_edge: int = 0
    hyperbolic_circles: dict = field(default_factory=dict)  # face -> (center, R)

    @property
    def flagged(self):
        return self.closure_residual > 1e-7 * max(self.diameter, 1e-30)


# -- geometry backends --------------------------------------------------------

class _EuclideanFrame:
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


class _HyperbolicFrame:
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


def hyperbolic_circle_to_euclidean(center: complex, radius: float) -> Circle:
    """Render a hyperbolic circle (disk-model center, hyperbolic radius)
    as the Euclidean circle it traces in the Poincare disk."""
    t = math.tanh(0.5 * radius)
    s2 = abs(center) ** 2
    denom = 1.0 - s2 * t * t
    return Circle(center * (1.0 - t * t) / denom, t * (1.0 - s2) / denom)


# -- kite construction --------------------------------------------------------

def _build_kites(spec: PatternSpec, rho, radii, phi):
    srf = spec.surface
    kites = []
    hyperbolic = spec.is_hyperbolic
    for e in range(srf.n_edges):
        h = srf.edge_rep(e)
        t = srf.twin(h)
        fj, fk = srf.left_face(h), srf.right_face(h)
        rj, rk = float(radii[fj]), float(radii[fk])
        theta = float(spec.theta[e])
        pj, pk = float(phi[h]), float(phi[t])
        if hyperbolic:
            cd = math.acosh(math.cosh(rj) * math.cosh(rk)
                            - math.sinh(rj) * math.sinh(rk) * math.cos(theta))
            ck = math.tanh(0.5 * cd)
            rad = math.tanh(0.5 * rj)
        else:
            cd = math.sqrt(rj * rj + rk * rk - 2.0 * rj * rk * math.cos(theta))
            ck = cd
            rad = rj
        pu = rad * complex(math.cos(pj), -math.sin(pj))
        pw = rad * complex(math.cos(pj), math.sin(pj))
        kites.append(Kite(
            edge=e, rep=h, face_left=fj, face_right=fk,
            vertex_from=srf.origin(h), vertex_to=srf.terminus(h),
            r_left=rj, r_right=rk, theta=theta, phi_left=pj, phi_right=pk,
            center_distance=cd,
            corners_local=(pu, complex(ck, 0.0), pw, complex(0.0, 0.0))))
    return kites


def _side_plus(srf, kite, corner):
    """Local (vertex point, center point) of the side this corner names,
    for the kite of corner's own edge."""
    pu, ck, pw, cj = kite.corners_local
    if corner == kite.rep:
        return pw, cj
    if corner == srf.twin(kite.rep):
        return pu, ck
    raise ValueError("corner does not belong to this kite")


def _side_minus(srf, kite, corner):
    """Local side points in the kite of edge(next(corner))."""
    nxt = srf.next_in_face(corner)
    pu, ck, pw, cj = kite.corners_local
    if nxt == kite.rep:
        return pu, cj
    if nxt == srf.twin(kite.rep):
        return pw, ck
    raise ValueError("corner does not glue into this kite")


def _check_developable(spec: PatternSpec):
    srf = spec.surface
    theta = spec.theta
    sums = vertex_angle_sums(srf, theta)
    for v in range(srf.n_vertices):
        if not srf.vertex_is_boundary(v) and abs(sums[v] - TWO_PI) > 1e-8:
            raise NotDevelopableError(
                f"interior vertex {v} has cone angle {sums[v]:.12g} != 2*pi")
    for f in range(srf.n_faces):
        if not srf.face_is_boundary(f) and abs(spec.phi[f] - TWO_PI) > 1e-8:
            raise NotDevelopableError(
                f"interior face {f} has cone angle {spec.phi[f]:.12g} != 2*pi")
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

    ``rho`` may be a SolveResult or an array of logarithmic radii.  The
    developing map is a breadth-first traversal of the kite adjacency;
    repeated placements of the same center or intersection point are
    compared and the largest discrepancy reported as closure residual
    (after reducing by the period lattice on the torus).
    """
    rho = np.asarray(getattr(rho, "rho", rho), dtype=float)
    _check_developable(spec)
    srf = spec.surface
    radii = radii_from_rho(spec.geometry, rho)
    phi = phi_of_rho(spec, rho)
    if np.any(phi <= 0.0) or np.any(phi >= np.pi):
        raise NotDevelopableError("half-angles outside (0, pi); solve first")
    kites = _build_kites(spec, rho, radii, phi)
    frame = _HyperbolicFrame if spec.is_hyperbolic else _EuclideanFrame

    transforms = [None] * srf.n_edges
    k0 = kites[root_edge]
    pu, ck, pw, cj = k0.corners_local
    if spec.is_hyperbolic:
        transforms[root_edge] = np.eye(2, dtype=complex)
    else:
        mid = 0.5 * (pu + pw)
        direction = (pw - pu) / abs(pw - pu)
        a = 1.0 / direction
        transforms[root_edge] = (a, -a * mid)

    order = [root_edge]
    queue = [root_edge]
    while queue:
        e = queue.pop(0)
        kite = kites[e]
        t_e = transforms[e]
        h, tw = kite.rep, srf.twin(kite.rep)
        for corner in (h, tw):
            if srf.next_in_face(corner) == OPEN:
                continue
            other = srf.edge_of(srf.next_in_face(corner))
            if transforms[other] is None:
                q1, q2 = _side_minus(srf, kites[other], corner)
                z1 = frame.apply(t_e, _side_plus(srf, kite, corner)[0])
                z2 = frame.apply(t_e, _side_plus(srf, kite, corner)[1])
                transforms[other] = frame.from_sides(q1, q2, z1, z2)
                order.append(other)
                queue.append(other)
        for corner in (srf.prev_in_face(h), srf.prev_in_face(tw)):
            if corner == OPEN:
                continue
            other = srf.edge_of(corner)
            if transforms[other] is None:
                q1, q2 = _side_plus(srf, kites[other], corner)
                z1 = frame.apply(t_e, _side_minus(srf, kite, corner)[0])
                z2 = frame.apply(t_e, _side_minus(srf, kite, corner)[1])
                transforms[other] = frame.from_sides(q1, q2, z1, z2)
                order.append(other)
                queue.append(other)
    if any(t is None for t in transforms):
        raise NotDevelopableError("kite adjacency graph is disconnected")

    # first placement wins for every cell position
    vertex_points: dict[int, complex] = {}
    circles: dict[int, Circle | Line] = {}
    hyp_circles: dict[int, tuple] = {}
    placed_kites = []
    for e in order:
        kite = kites[e]
        t_e = transforms[e]
        corners = tuple(frame.apply(t_e, q) for q in kite.corners_local)
        placed_kites.append((e, corners))
        gu, gk, gw, gj = corners
        vertex_points.setdefault(kite.vertex_from, gu)
        vertex_points.setdefault(kite.vertex_to, gw)
        for f, center in ((kite.face_left, gj), (kite.face_right, gk)):
            if f not in circles:
                if spec.is_hyperbolic:
                    hyp_circles[f] = (center, float(radii[f]))
                    circles[f] = hyperbolic_circle_to_euclidean(center, float(radii[f]))
                else:
                    circles[f] = Circle(center, float(radii[f]))
    placed_kites.sort(key=lambda item: item[0])

    # closure mismatches across every glued side
    pairs = []
    for corner in range(srf.n_oriented_edges):
        nxt = srf.next_in_face(corner)
        if nxt == OPEN:
            continue
        ea, eb = srf.edge_of(corner), srf.edge_of(nxt)
        pa = [frame.apply(transforms[ea], q) for q in _side_plus(srf, kites[ea], corner)]
        pb = [frame.apply(transforms[eb], q) for q in _side_minus(srf, kites[eb], corner)]
        pairs.append((pa, pb))

    all_points = [z for _, cs in placed_kites for z in cs]
    if spec.is_hyperbolic:
        diameter = 2.0
        periods = None
        residual = max((frame.dist(pa[i], pb[i])
                        for pa, pb in pairs for i in range(2)), default=0.0)
    else:
        xs = np.array(all_points)
        diameter = float(abs(xs - xs.mean()).max() * 2.0) if len(xs) else 0.0
        flat = [pa[i] - pb[i] for pa, pb in pairs for i in range(2)]
        if srf.is_closed:
            periods, residual = _extract_periods(flat, diameter)
        else:
            periods = None
            residual = max((abs(d) for d in flat), default=0.0)
    return LayoutResult(
        geometry=spec.geometry, circles=circles, vertex_points=vertex_points,
        kites=placed_kites, closure_residual=float(residual),
        diameter=diameter, periods=periods, root_edge=root_edge,
        hyperbolic_circles=hyp_circles)


def _extract_periods(diffs, scale):
    """Two lattice generators explaining the translation mismatches."""
    tol = 1e-9 * max(scale, 1e-30)
    vs = sorted((d for d in diffs if abs(d) > tol), key=abs)
    if not vs:
        return None, max((abs(d) for d in diffs), default=0.0)
    v1 = vs[0]
    v2 = None
    for v in vs:
        if abs((np.conj(v1) * v).imag) > tol * abs(v1):
            v2 = v
            break
    if v2 is None:
        # rank-1 holonomy: reduce along v1 only
        residual = 0.0
        for d in diffs:
            k = round((np.conj(v1) * d).real / abs(v1) ** 2)
            residual = max(residual, abs(d - k * v1))
        return (v1, v1), residual
    for _ in range(60):
        k = round((np.conj(v1) * v2).real / abs(v1) ** 2)
        v2 = v2 - k * v1
        if abs(v2) >= abs(v1):
            break
        v1, v2 = v2, v1
    mat = np.array([[v1.real, v2.real], [v1.imag, v2.imag]])
    inv = np.linalg.inv(mat)
    residual = 0.0
    for d in diffs:
        c = inv @ np.array([d.real, d.imag])
        k = np.round(c)
        r = d - (k[0] * v1 + k[1] * v2)
        residual = max(residual, abs(r))
    return _canonical_basis(v1, v2, tol), residual


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


def layout_to_dict(result: LayoutResult, include_kites=False) -> dict:
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
                        for e, cs in result.kites]
    return out


def export_json(result: LayoutResult, path=None, include_kites=False) -> str:
    text = jsonio.dumps(layout_to_dict(result, include_kites), indent=2) + "\n"
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
    if include_kites:
        for e, cs in result.kites:
            pu, ck, pw, cj = cs
            if hyperbolic:
                d = " ".join([_geodesic_path(pu, ck), _geodesic_path(ck, pw),
                              _geodesic_path(pw, cj), _geodesic_path(cj, pu)])
                lines.append(f'<path class="kite" data-edge="{e}" d="{d}" '
                             f'fill="none" stroke="#88aacc" stroke-width="{_f(stroke)}"/>')
            else:
                d = (f"M {_f(pu.real)} {_f(pu.imag)} L {_f(ck.real)} {_f(ck.imag)} "
                     f"L {_f(pw.real)} {_f(pw.imag)} L {_f(cj.real)} {_f(cj.imag)} Z")
                lines.append(f'<path class="kite" data-edge="{e}" d="{d}" '
                             f'fill="none" stroke="#88aacc" stroke-width="{_f(stroke)}"/>')
    for f in sorted(result.circles):
        obj = result.circles[f]
        if isinstance(obj, Circle):
            lines.append(f'<circle class="face" data-face="{f}" '
                         f'cx="{_f(obj.center.real)}" cy="{_f(obj.center.imag)}" '
                         f'r="{_f(obj.radius)}" fill="none" stroke="#222222" '
                         f'stroke-width="{_f(stroke)}"/>')
        else:
            tang = complex(-obj.normal.imag, obj.normal.real)
            extent = 2.0 * max(width, height)
            a = obj.point - extent * tang
            b = obj.point + extent * tang
            lines.append(f'<line class="face" data-face="{f}" '
                         f'x1="{_f(a.real)}" y1="{_f(a.imag)}" '
                         f'x2="{_f(b.real)}" y2="{_f(b.imag)}" '
                         f'stroke="#222222" stroke-width="{_f(stroke)}"/>')
    for v in sorted(result.vertex_points):
        z = result.vertex_points[v]
        lines.append(f'<circle class="vertex" data-vertex="{v}" '
                     f'cx="{_f(z.real)}" cy="{_f(z.imag)}" r="{_f(dot)}" '
                     f'fill="#cc3333"/>')
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
