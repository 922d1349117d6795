"""Shared builders for the test suite."""

import numpy as np

from circlepatterns import meshes
from circlepatterns.functional import EUCLIDEAN, HYPERBOLIC, PatternSpec
from circlepatterns.surface import surface_from_walks


def surface_pool(max_faces=None):
    pool = [
        meshes.tetrahedron(),
        meshes.cube(),
        meshes.octahedron(),
        meshes.double_triangle(),
        meshes.torus_grid(2, 2),
        meshes.torus_grid(2, 3),
        meshes.torus_grid(2, 4),
        meshes.torus_grid(3, 3),
        meshes.torus_grid(1, 1),
        meshes.hexagonal_torus(),
        meshes.genus2_octagon(),
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


def random_flat_theta(surface, rng, spread=0.3):
    """Exterior angles in (0, pi) with vertex sums exactly 2*pi.

    Starts from the uniform assignment and perturbs within the null space
    of the vertex-edge incidence (loops counted twice).
    """
    E, V = surface.n_edges, surface.n_vertices
    inc = np.zeros((V, E))
    for h in range(surface.n_oriented_edges):
        inc[surface.origin(h), surface.edge_of(h)] += 1.0
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
    walks = []
    for f in range(surface.n_faces):
        tokens = []
        for h in surface.face_walk(f):
            ee = surface.edge_of(h)
            sign = 1 if h == surface.edge_rep(ee) else -1
            if ee != e:
                tokens.append((surface.origin(h), ee, sign))
            elif sign == 1:
                tokens.append((surface.origin(h), e1, 1))
                tokens.append((mid, e2, 1))
            else:
                tokens.append((surface.origin(h), e2, -1))
                tokens.append((mid, e1, -1))
        walks.append((tokens, not surface.face_is_boundary(f)))
    return surface_from_walks(walks)


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
