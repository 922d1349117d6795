"""Shared builders and surface and sphere aids for the test suite."""

import math
from dataclasses import dataclass

import numpy as np

from circlepatterns import meshes
from circlepatterns.functional import EUCLIDEAN, HYPERBOLIC, PatternSpec
from circlepatterns.spherical import _sphere_points, sphere_caps
from circlepatterns.surface import (OPEN, SurfaceError, UnsupportedSurfaceError,
                                   build_surface, surface_from_walks, vertex_angle_sums)


def double_triangle():
    """Two triangles glued along their three edges (a sphere)."""
    return build_surface(faces=[[0, 1, 2], [2, 1, 0]])


def hexagonal_torus():
    """One hexagon with opposite sides identified: F=1, E=3, V=2, genus 1.

    Both vertices are 3-valent.
    """
    u, w = 0, 1
    tokens = [(u, "a", 1), (w, "b", 1), (u, "c", 1),
              (w, "a", -1), (u, "b", -1), (w, "c", -1)]
    return surface_from_walks([(tokens, True)], edge_order=["a", "b", "c"])


def genus2_octagon():
    """Octagon with the identification a b a' b' c d c' d': genus 2."""
    v = 0
    tokens = [(v, "a", 1), (v, "b", 1), (v, "a", -1), (v, "b", -1),
              (v, "c", 1), (v, "d", 1), (v, "c", -1), (v, "d", -1)]
    return surface_from_walks([(tokens, True)], edge_order=["a", "b", "c", "d"])


def surface_pool(max_faces=None):
    pool = [
        meshes.tetrahedron(),
        meshes.cube(),
        meshes.octahedron(),
        double_triangle(),
        meshes.torus_grid(2, 2),
        meshes.torus_grid(2, 3),
        meshes.torus_grid(2, 4),
        meshes.torus_grid(3, 3),
        meshes.torus_grid(1, 1),
        hexagonal_torus(),
        genus2_octagon(),
    ]
    if max_faces is not None:
        pool = [s for s in pool if s.n_faces <= max_faces]
    return pool


def random_spec(surface, geometry, rng):
    """Arbitrary (usually infeasible) data in the valid domains."""
    theta_star = rng.uniform(0.1, np.pi - 0.1, surface.n_edges)
    phi = rng.uniform(0.5, 7.0, surface.n_faces)
    return PatternSpec(surface, geometry, theta_star, phi)


def random_feasible_spec(surface, geometry, rng):
    """Feasible by construction: the data of a random angle system."""
    n_oe = surface.n_oriented_edges
    if geometry == EUCLIDEAN:
        phi = rng.uniform(0.05, 1.2, n_oe)
        theta_star = phi[surface.edge_reps] + phi[surface.oe_twin[surface.edge_reps]]
    else:
        theta_star = rng.uniform(0.3, np.pi - 0.05, surface.n_edges)
        phi = rng.uniform(0.08, 0.45, n_oe) * theta_star[surface.oe_edge]
    face = np.zeros(surface.n_faces)
    np.add.at(face, surface.oe_left, phi)
    return PatternSpec(surface, geometry, theta_star, 2.0 * face)


def cube_cocycle_theta(vertical):
    """Cube exterior angles: `vertical` on the four edges between the top
    and bottom squares, the rest so that every vertex sums to 2*pi; the
    equatorial cocycle is short when `vertical` is small."""
    s = meshes.cube()
    h = s.edge_reps
    upright = (s.oe_origin[h] < 4) != (s.oe_origin[s.oe_twin[h]] < 4)
    theta = np.where(upright, vertical, 0.5 * (2 * np.pi - vertical))
    assert np.abs(vertex_angle_sums(s, theta) - 2 * np.pi).max() < 1e-12
    return theta


def random_flat_theta(surface, rng, spread=0.3):
    """Exterior angles in (0, pi) with vertex sums exactly 2*pi.

    Starts from the uniform assignment and perturbs within the null space
    of the vertex-edge incidence (loops counted twice).
    """
    E, V = surface.n_edges, surface.n_vertices
    inc = np.zeros((V, E))
    np.add.at(inc, (surface.oe_origin, surface.oe_edge), 1.0)
    base = np.linalg.pinv(inc) @ np.full(V, 2.0 * np.pi)
    _, s, vt = np.linalg.svd(inc)
    null = vt[np.sum(s > 1e-10):]
    theta = base.copy()
    if len(null):
        direction = null.T @ rng.standard_normal(len(null))
        norm = np.abs(direction).max()
        if norm > 1e-12:
            room = np.minimum(theta - 0.05, np.pi - 0.05 - theta)
            scale = spread * rng.random() * room.min() / norm
            theta = theta + scale * direction
    sums = inc @ theta
    assert np.abs(sums - 2.0 * np.pi).max() < 1e-9
    assert theta.min() > 0.0 and theta.max() < np.pi
    return theta


def subdivide_edge(surface, e):
    """Split edge e with a new midpoint vertex (token reconstruction)."""
    mid = surface.n_vertices
    e1, e2 = ("sub", e, 1), ("sub", e, 2)
    origin, edge = surface.oe_origin.tolist(), surface.oe_edge.tolist()
    reps = surface.edge_reps.tolist()
    walks = []
    for f in range(surface.n_faces):
        tokens = []
        for h in surface.face_walk(f):
            ee = edge[h]
            sign = 1 if h == reps[ee] else -1
            if ee != e:
                tokens.append((origin[h], ee, sign))
            elif sign == 1:
                tokens.append((origin[h], e1, 1))
                tokens.append((mid, e2, 1))
            else:
                tokens.append((origin[h], e2, -1))
                tokens.append((mid, e1, -1))
        walks.append((tokens, not surface.face_boundary[f]))
    return surface_from_walks(walks)


def subdivided_faces(faces, levels):
    """Face lists with every triangle split into four at its edge
    midpoints, ``levels`` times; midpoints are numbered in order of first
    use."""
    for _ in range(levels):
        n_v = 1 + max(v for face in faces for v in face)
        mid = {}

        def midpoint(a, b):
            return mid.setdefault((min(a, b), max(a, b)), n_v + len(mid))

        out = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            out += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
        faces = out
    return faces


def face_lists(surface):
    """The vertex cycle of every face, in face order."""
    return [[surface.origin(h) for h in surface.face_walk(f)] for f in range(surface.n_faces)]


def renumbered(surface, rng):
    """The same closed surface from its face lists with the vertex ids
    permuted, the faces shuffled and each face's cycle rotated, as a mesh
    read from a file may number it."""
    faces = face_lists(surface)
    perm = rng.permutation(1 + max(v for face in faces for v in face))
    out = []
    for f in rng.permutation(len(faces)):
        face = [int(perm[v]) for v in faces[f]]
        k = int(rng.integers(len(face)))
        out.append(face[k:] + face[:k])
    return build_surface(faces=out)


def genus2_faces():
    """The connected sum of two triangulated 4x4 tori as face lists: face 0
    of each copy is dropped and the second copy's face 0 is glued onto the
    first's with the orientation reversed (F = 62, chi = -2)."""
    a = face_lists(meshes.triangulated_torus(4, 4))
    n_v = 1 + max(map(max, a))
    b = [[v + n_v for v in face] for face in a]
    glue = {b[0][0]: a[0][0], b[0][1]: a[0][2], b[0][2]: a[0][1]}
    faces = a[1:] + [[glue.get(v, v) for v in face] for face in b[1:]]
    ids = {v: i for i, v in enumerate(sorted({v for face in faces for v in face}))}
    return [[ids[v] for v in face] for face in faces]


def pinched_sphere(isolated=False):
    """A sphere whose faces around vertex 0 separate the other faces.

    Face 0 walks v a b v c d (it meets v = 0 twice); each of the two
    triangles v b a and v d c left over is filled by a fan of faces.  Two
    faces of each fan meet v; the rest form a connected piece that only
    faces at v join to the other piece.  With ``isolated`` the second
    piece is a single face whose every edge touches a face at v.
    """
    def fill(x, y, p, r, split):
        # the triangle v -> y -> x -> v, with an interior vertex p
        xy, vx, yv = x + y, "v" + x, y + "v"
        faces = [[("v", yv, -1), (y, y + p, 1), (p, "v" + p, -1)],
                 [(x, vx, -1), ("v", "v" + p, 1), (p, x + p, -1)]]
        if not split:
            return faces + [[(y, xy, -1), (x, x + p, 1), (p, y + p, -1)]]
        # and the triangle y -> x -> p split around a second vertex r
        return faces + [[(y, xy, -1), (x, x + r, 1), (r, y + r, -1)],
                        [(x, x + p, 1), (p, p + r, 1), (r, x + r, -1)],
                        [(p, y + p, -1), (y, y + r, 1), (r, p + r, -1)]]

    walks = [[("v", "va", 1), ("a", "ab", 1), ("b", "bv", 1),
              ("v", "vc", 1), ("c", "cd", 1), ("d", "dv", 1)]]
    walks += fill("a", "b", "p", "r", True) + fill("c", "d", "q", "s", not isolated)
    ids = {}
    return surface_from_walks([([(ids.setdefault(v, len(ids)), e, sign)
                                 for v, e, sign in w], True) for w in walks])


def fd_gradient(func, x, h=1e-5):
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (func(xp) - func(xm)) / (2.0 * h)
    return g


# -- layouts ---------------------------------------------------------------------

def layout_scale(lay):
    """A layout's diameter: 2 for the Poincare disk, else twice the largest
    distance of a kite corner from their mean, as ``layout`` measures the
    scale of its periods."""
    if lay.geometry == HYPERBOLIC:
        return 2.0
    return float(np.abs(lay.kites - lay.kites.mean()).max() * 2.0)


def flagged(lay):
    """Whether a layout's closure defect is above 1e-7 of its diameter."""
    return lay.closure_residual > 1e-7 * max(layout_scale(lay), 1e-30)


# -- derived decompositions and isomorphism ------------------------------------

def dual(s):
    """Poincare dual: faces <-> vertices, edges <-> edges (same edge ids)."""
    if not s.is_closed:
        raise UnsupportedSurfaceError("dual of a surface with boundary is not supported")
    h = s.fan_edges
    e = s.oe_edge[h]
    sign = np.where(s.oe_twin[h] == s.edge_reps[e], 1, -1)
    tokens = list(zip(s.oe_right[h].tolist(), e.tolist(), sign.tolist()))
    offsets = s.fan_offsets.tolist()
    walks = [(tokens[a:b], True) for a, b in zip(offsets[:-1], offsets[1:])]
    return surface_from_walks(walks, edge_order=range(s.n_edges))


def quad_graph(s):
    """Quad-graph: one quadrilateral face per unoriented edge of s.

    Vertices are bicolored: white ones correspond to faces of s and come
    first, black ones to vertices of s.  For surfaces with boundary, quads
    lose the sides whose corner is missing and become boundary faces;
    cells of s left without any quad side drop out of the decomposition.
    """
    F = s.n_faces
    origin, left, twin, nxt, prev = (a.tolist() for a in (s.oe_origin, s.oe_left, s.oe_twin,
                                                          s.oe_next, s.oe_prev))
    walks = []
    for e, h in enumerate(s.edge_reps.tolist()):
        t = twin[h]
        cycle = [
            (F + origin[h], t, 1) if nxt[t] != OPEN else None,
            (left[t], prev[t], -1) if prev[t] != OPEN else None,
            (F + origin[t], h, 1) if nxt[h] != OPEN else None,
            (left[h], prev[h], -1) if prev[h] != OPEN else None,
        ]
        present = [tok for tok in cycle if tok is not None]
        if not present:
            raise UnsupportedSurfaceError(
                f"edge {e} has no surviving quad sides; quad-graph undefined")
        if len(present) == 4:
            walks.append((present, True))
        else:
            # rotate the cyclic pattern so the present tokens are contiguous
            k = len(cycle)
            start = None
            for i in range(k):
                if cycle[i] is not None and cycle[(i - 1) % k] is None:
                    start = i
                    break
            if start is None:
                raise SurfaceError(f"quad of edge {e} has several open pieces")
            rotated = [cycle[(start + i) % k] for i in range(k)]
            # after rotation all present tokens must be contiguous at the front
            lead = 0
            while lead < k and rotated[lead] is not None:
                lead += 1
            if any(tok is not None for tok in rotated[lead:]):
                raise SurfaceError(f"quad of edge {e} has several open pieces")
            walks.append((rotated[:lead], False))
    used = sorted({v for tokens, _ in walks for v, _, _ in tokens})
    remap = {v: i for i, v in enumerate(used)}
    walks = [([(remap[v], key, sign) for v, key, sign in tokens], closed)
             for tokens, closed in walks]
    return surface_from_walks(walks)


def isomorphic(a, b):
    """Brute-force isomorphism test over root-edge choices."""
    if (a.n_oriented_edges != b.n_oriented_edges or a.n_faces != b.n_faces
            or a.n_vertices != b.n_vertices or a.n_edges != b.n_edges):
        return False
    n = a.n_oriented_edges
    # the twin, next and prev of every oriented edge
    moves_a, moves_b = (np.stack((x.oe_twin, x.oe_next, x.oe_prev), axis=1).tolist()
                        for x in (a, b))
    for root in range(n):
        phi = {0: root}
        stack = [0]
        ok = True
        while stack and ok:
            h = stack.pop()
            g = phi[h]
            for ha, gb in zip(moves_a[h], moves_b[g]):
                if (ha == OPEN) != (gb == OPEN):
                    ok = False
                    break
                if ha == OPEN:
                    continue
                if ha in phi:
                    if phi[ha] != gb:
                        ok = False
                        break
                else:
                    phi[ha] = gb
                    stack.append(ha)
        if not ok or len(phi) != n or len(set(phi.values())) != n:
            continue
        vmap, fmap = {}, {}
        consistent = True
        for h, g in phi.items():
            if vmap.setdefault(a.origin(h), b.origin(g)) != b.origin(g):
                consistent = False
                break
            if fmap.setdefault(a.oe_left[h], b.oe_left[g]) != b.oe_left[g]:
                consistent = False
                break
        if consistent:
            return True
    return False


# -- spherical patterns ----------------------------------------------------------

@dataclass(frozen=True)
class SphericalCircle:
    """Oriented circle on the unit sphere: the cap {X . axis >= cos(r)}
    is the face's disk."""
    axis: np.ndarray
    angular_radius: float


def stereographic_inverse(z):
    """Plane to the unit sphere; inf maps to the north pole."""
    return _sphere_points([z])[0]


def circle_to_sphere(center, radius, normal=0j):
    """Inverse stereographic image of one generalized circle as an oriented
    cap; radius inf is the line through center with unit normal."""
    axes, radii = sphere_caps(np.array([center], dtype=complex), np.array([radius], dtype=float),
                              np.array([normal], dtype=complex))
    return SphericalCircle(axes[0], radii[0])


def sphere_cap(lay, f):
    """Face f's cap in a ``SphericalLayout``."""
    faces = lay.planar.faces
    i = int(np.searchsorted(faces, f))
    assert faces[i] == f
    return SphericalCircle(lay.axes[i], lay.angular_radii[i])


def sphere_point(lay, v):
    """Vertex v's point in a ``SphericalLayout``."""
    i = int(np.searchsorted(lay.vertices, v))
    assert lay.vertices[i] == v
    return lay.points[i]


def stereographic(point):
    """Sphere to plane from the north pole; the pole itself maps to inf."""
    x, y, z = point
    if abs(1.0 - z) < 1e-300:
        return complex(np.inf, np.inf)
    return complex(x / (1.0 - z), y / (1.0 - z))


def cap_contains(circle, point, tol=1e-9):
    """Whether a unit 3-vector lies on the boundary of a spherical cap."""
    return abs(float(circle.axis @ point) - math.cos(circle.angular_radius)) <= tol


def sphere_intersection_angle(c1, c2):
    """Interior intersection angle of two oriented spherical circles
    (the angle of the lens cut out by the two caps)."""
    cg = float(np.clip(c1.axis @ c2.axis, -1.0, 1.0))
    a1, a2 = c1.angular_radius, c2.angular_radius
    denom = math.sin(a1) * math.sin(a2)
    if denom < 1e-15:
        raise ValueError("degenerate circle (zero angular radius)")
    ca = (cg - math.cos(a1) * math.cos(a2)) / denom
    return math.pi - math.acos(min(1.0, max(-1.0, ca)))


def pattern_angles(p, lay):
    """Interior intersection angle on the sphere for every edge."""
    s = p.surface
    out = np.zeros(s.n_edges)
    for e in range(s.n_edges):
        out[e] = sphere_intersection_angle(sphere_cap(lay, s.edge_left[e]),
                                           sphere_cap(lay, s.edge_right[e]))
    return out


def _homogeneous(point3):
    x, y, z = point3
    if abs(1.0 - z) >= abs(1.0 + z):
        return complex(x, y), complex(1.0 - z)
    return complex(1.0 + z), complex(x, -y)


def edge_cross_ratios(p, lay):
    """A Moebius invariant per edge: the cross-ratio of the edge's two
    endpoints with the next vertex around each adjacent face."""
    s = p.surface

    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]

    h = s.edge_reps
    terminus = s.oe_origin[s.oe_twin]
    quads = np.stack((s.oe_origin[h], terminus[h], terminus[s.oe_next[h]],
                      terminus[s.oe_next[s.oe_twin[h]]]), axis=1)
    out = np.zeros(s.n_edges, dtype=complex)
    for e, quad in enumerate(quads.tolist()):
        p1, p2, p3, p4 = (_homogeneous(sphere_point(lay, v)) for v in quad)
        out[e] = (det(p1, p3) * det(p2, p4)) / (det(p1, p4) * det(p2, p3))
    return out
