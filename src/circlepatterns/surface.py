"""Oriented cellular surfaces in half-edge form.

A cellular surface is stored as a table of oriented edges, each carrying
its origin vertex, the face on its left, its oppositely oriented twin and
the next oriented edge in the boundary walk of the left face.  Surfaces
with boundary follow the convention that every edge has a face on both
sides; instead there are *boundary faces* whose walk is an open chain
(the last edge has ``next == OPEN``) and *boundary vertices* whose fan of
outgoing edges is an open chain rather than a cycle.

Unoriented edge ids are assigned in first-appearance order over the
oriented-edge table and are stable across all derived outputs.
"""

from __future__ import annotations

import numbers
from functools import cached_property

import numpy as np

OPEN = -1


class SurfaceError(ValueError):
    """Base class for cellular-surface validation failures."""


class TwinError(SurfaceError):
    """twin is not a fixed-point-free involution."""


class DanglingEdgeError(SurfaceError):
    """an oriented edge has no partner or is missing a face side."""


class DisconnectedSurfaceError(SurfaceError):
    """the surface is not connected."""


class NonOrientableError(SurfaceError):
    """the face walks induce an inconsistent (non-orientable) gluing."""


class NonManifoldError(SurfaceError):
    """a vertex fan does not form a single cycle or chain."""


class AmbiguousInputError(SurfaceError):
    """face-vertex lists contain loops or double edges; use the table form."""


class UnsupportedSurfaceError(SurfaceError):
    """the operation is undefined for this surface."""


class CellularSurface:
    """Immutable oriented cellular decomposition of a connected surface.

    Parameters are parallel sequences over oriented edges.  ``next_in_face``
    uses ``OPEN`` (-1) to terminate the walk of a boundary face.  The
    constructor validates the half-edge axioms and precomputes face walks,
    vertex fans (in counterclockwise order), boundary flags and the
    canonical unoriented-edge indexing.
    """

    def __init__(self, origin, left_face, twin, next_in_face, *, edge_id=None,
                 genus_hint=None):
        if genus_hint is not None and (not isinstance(genus_hint, numbers.Integral)
                                       or isinstance(genus_hint, bool)):
            raise SurfaceError(f"genus hint must be an integer, got {genus_hint!r}")
        try:
            self._origin = tuple(int(v) for v in origin)
            self._left = tuple(int(f) for f in left_face)
            self._twin = tuple(int(t) for t in twin)
            self._next = tuple(int(n) for n in next_in_face)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SurfaceError(
                f"oriented-edge table entries must be integers: {exc}") from None
        n = len(self._origin)
        if not (len(self._left) == len(self._twin) == len(self._next) == n):
            raise SurfaceError("oriented-edge table columns have unequal lengths")
        if n == 0:
            raise SurfaceError("empty surface")
        self._validate_twins()
        self._build_prev()
        self._build_faces()
        self._build_vertices()
        self._check_connected()
        self._assign_edge_ids(edge_id)
        if genus_hint is not None and self.is_closed:
            chi = self.n_faces - self.n_edges + self.n_vertices
            if chi != 2 - 2 * genus_hint:
                raise SurfaceError(
                    f"genus hint {genus_hint} inconsistent with Euler characteristic {chi}")

    # -- validation ------------------------------------------------------

    def _validate_twins(self):
        n = len(self._origin)
        for h, t in enumerate(self._twin):
            if not 0 <= t < n:
                raise DanglingEdgeError(f"oriented edge {h} has twin {t} out of range")
            if t == h:
                raise TwinError(f"oriented edge {h} is its own twin")
            if self._twin[t] != h:
                raise TwinError(f"twin of {h} is {t} but twin of {t} is {self._twin[t]}")

    def _build_prev(self):
        n = len(self._origin)
        prev = [OPEN] * n
        for h, nx in enumerate(self._next):
            if nx == OPEN:
                continue
            if not 0 <= nx < n:
                raise SurfaceError(f"next of {h} out of range")
            if self._left[nx] != self._left[h]:
                raise SurfaceError(f"next of {h} leaves its face")
            if prev[nx] != OPEN:
                raise SurfaceError(f"oriented edge {nx} is the next of two edges")
            prev[nx] = h
            # walk continuity: the terminus of h is the origin of next(h)
            if self._origin[nx] != self._origin[self._twin[h]]:
                raise SurfaceError(
                    f"walk broken at {h}: next origin differs from terminus")
        self._prev = tuple(prev)

    def _build_faces(self):
        by_face: dict[int, list[int]] = {}
        for h, f in enumerate(self._left):
            if f < 0:
                raise DanglingEdgeError(f"oriented edge {h} has no face on its left")
            by_face.setdefault(f, []).append(h)
        n_faces = max(by_face) + 1
        if set(by_face) != set(range(n_faces)):
            raise SurfaceError("face ids are not contiguous")
        walks, is_bd = [], []
        for f in range(n_faces):
            members = by_face[f]
            starts = [h for h in members if self._prev[h] == OPEN]
            if len(starts) > 1:
                raise SurfaceError(
                    f"face {f} has {len(starts)} open walks; only one is supported")
            walk = []
            h = starts[0] if starts else min(members)
            first = h
            while True:
                walk.append(h)
                h = self._next[h]
                if h == OPEN or h == first:
                    break
                if len(walk) > len(members):
                    raise SurfaceError(f"face {f} walk does not close properly")
            if len(walk) != len(members):
                raise SurfaceError(f"face {f} boundary is not a single walk")
            walks.append(tuple(walk))
            is_bd.append(bool(starts))
        self._face_walks = tuple(walks)
        self._face_is_boundary = tuple(is_bd)

    def _build_vertices(self):
        by_vertex: dict[int, list[int]] = {}
        for h, v in enumerate(self._origin):
            if v < 0:
                raise SurfaceError(f"oriented edge {h} has negative origin")
            by_vertex.setdefault(v, []).append(h)
        n_vertices = max(by_vertex) + 1
        if set(by_vertex) != set(range(n_vertices)):
            raise SurfaceError("vertex ids are not contiguous (isolated vertex?)")

        def ccw(h):  # rotate counterclockwise around origin(h)
            p = self._prev[h]
            return self._twin[p] if p != OPEN else OPEN

        def cw(h):
            nx = self._next[self._twin[h]]
            return nx

        fans, is_bd = [], []
        for v in range(n_vertices):
            out = by_vertex[v]
            starts = [h for h in out if cw(h) == OPEN]
            if len(starts) > 1:
                raise NonManifoldError(f"vertex {v} has {len(starts)} fan chains")
            fan = []
            h = starts[0] if starts else min(out)
            first = h
            while True:
                fan.append(h)
                h = ccw(h)
                if h == OPEN or h == first:
                    break
                if len(fan) > len(out):
                    raise NonManifoldError(f"vertex {v} fan does not close properly")
            if len(fan) != len(out):
                raise NonManifoldError(f"vertex {v} fan is not a single cycle or chain")
            fans.append(tuple(fan))
            is_bd.append(bool(starts))
        self._vertex_fans = tuple(fans)
        self._vertex_is_boundary = tuple(is_bd)

    def _check_connected(self):
        n = len(self._origin)
        seen = [False] * n
        stack = [0]
        seen[0] = True
        while stack:
            h = stack.pop()
            for g in (self._twin[h], self._next[h], self._prev[h]):
                if g != OPEN and not seen[g]:
                    seen[g] = True
                    stack.append(g)
        if not all(seen):
            raise DisconnectedSurfaceError("oriented-edge structure is disconnected")

    def _assign_edge_ids(self, edge_id):
        n = len(self._origin)
        if edge_id is not None:
            eid = [int(e) for e in edge_id]
            if len(eid) != n:
                raise SurfaceError("edge_id length mismatch")
            for h in range(n):
                if eid[h] != eid[self._twin[h]]:
                    raise SurfaceError("edge_id differs between twins")
            n_edges = max(eid) + 1
            if sorted(set(eid)) != list(range(n_edges)):
                raise SurfaceError("edge ids are not contiguous")
        else:
            eid = [-1] * n
            n_edges = 0
            for h in range(n):
                if eid[h] < 0:
                    eid[h] = eid[self._twin[h]] = n_edges
                    n_edges += 1
        reps = [-1] * n_edges
        for h in range(n):
            if reps[eid[h]] < 0:
                reps[eid[h]] = h
        self._edge_id = tuple(eid)
        self._edge_rep = tuple(reps)

    # -- basic accessors --------------------------------------------------

    @property
    def n_oriented_edges(self):
        return len(self._origin)

    @property
    def n_edges(self):
        return len(self._edge_rep)

    @property
    def n_faces(self):
        return len(self._face_walks)

    @property
    def n_vertices(self):
        return len(self._vertex_fans)

    @property
    def is_closed(self):
        return not any(self._face_is_boundary)

    def origin(self, h):
        return self._origin[h]

    def terminus(self, h):
        return self._origin[self._twin[h]]

    def twin(self, h):
        return self._twin[h]

    def next_in_face(self, h):
        return self._next[h]

    def prev_in_face(self, h):
        return self._prev[h]

    def left_face(self, h):
        return self._left[h]

    def right_face(self, h):
        return self._left[self._twin[h]]

    def edge_of(self, h):
        return self._edge_id[h]

    def edge_rep(self, e):
        """Canonical oriented representative of unoriented edge e."""
        return self._edge_rep[e]

    def face_walk(self, f):
        return self._face_walks[f]

    def face_is_boundary(self, f):
        return self._face_is_boundary[f]

    def vertex_fan(self, v):
        """Outgoing oriented edges around v in counterclockwise order."""
        return self._vertex_fans[v]

    def vertex_is_boundary(self, v):
        return self._vertex_is_boundary[v]

    @property
    def n_boundary_faces(self):
        return sum(self._face_is_boundary)

    @property
    def n_boundary_vertices(self):
        return sum(self._vertex_is_boundary)

    # -- numpy views -------------------------------------------------------

    @cached_property
    def oe_origin(self):
        return np.array(self._origin, dtype=np.intp)

    @cached_property
    def oe_left(self):
        return np.array(self._left, dtype=np.intp)

    @cached_property
    def oe_twin(self):
        return np.array(self._twin, dtype=np.intp)

    @cached_property
    def oe_edge(self):
        return np.array(self._edge_id, dtype=np.intp)

    @cached_property
    def oe_right(self):
        return self.oe_left[self.oe_twin]

    @cached_property
    def edge_reps(self):
        return np.array(self._edge_rep, dtype=np.intp)

    @cached_property
    def edge_left(self):
        return self.oe_left[self.edge_reps]

    @cached_property
    def edge_right(self):
        return self.oe_right[self.edge_reps]

    def __repr__(self):
        kind = "closed" if self.is_closed else "bounded"
        return (f"CellularSurface({kind}, F={self.n_faces}, E={self.n_edges}, "
                f"V={self.n_vertices})")


# -- constructors ----------------------------------------------------------

def surface_from_walks(walks, edge_order=None, genus_hint=None):
    """Build a surface from face walks of (origin, edge_key, sign) tokens.

    Each walk is a pair (tokens, closed).  Every ``(edge_key, +1)`` and
    ``(edge_key, -1)`` must appear exactly once overall; the two tokens of
    a key become twins.  This form encodes loops and multiple edges
    unambiguously.  ``edge_order`` optionally fixes the unoriented edge
    indexing by listing the keys.
    """
    origin, left, next_, pos = [], [], [], {}
    for f, (tokens, closed) in enumerate(walks):
        if not tokens:
            raise SurfaceError(f"face {f} has no edges")
        base = len(origin)
        k = len(tokens)
        for i, (v, key, sign) in enumerate(tokens):
            if sign not in (1, -1):
                raise SurfaceError("token sign must be +1 or -1")
            if (key, sign) in pos:
                raise NonOrientableError(f"oriented edge ({key!r}, {sign}) used twice")
            pos[(key, sign)] = base + i
            origin.append(v)
            left.append(f)
            if i + 1 < k:
                next_.append(base + i + 1)
            else:
                next_.append(base if closed else OPEN)
    twin = [OPEN] * len(origin)
    for (key, sign), h in pos.items():
        partner = pos.get((key, -sign))
        if partner is None:
            raise DanglingEdgeError(f"edge {key!r} has only one side")
        twin[h] = partner
    edge_id = None
    if edge_order is not None:
        index = {key: i for i, key in enumerate(edge_order)}
        edge_id = [index[key] for (key, _sign), h in
                   sorted(pos.items(), key=lambda kv: kv[1])]
    return CellularSurface(origin, left, twin, next_, edge_id=edge_id,
                           genus_hint=genus_hint)


def _vertex_ids(f, cycle):
    try:
        return [int(v) for v in cycle]
    except (TypeError, ValueError, OverflowError):
        raise SurfaceError(f"face {f} is not a list of integer vertex ids") from None


def build_surface(faces=None, oriented_edges=None, genus_hint=None):
    """Build a surface from face-vertex lists or an oriented-edge table.

    The face-vertex form accepts closed faces only and rejects loops and
    double edges (they make the gluing ambiguous); use the table form for
    full generality, including surfaces with boundary faces.
    """
    if (faces is None) == (oriented_edges is None):
        raise SurfaceError("provide exactly one of faces / oriented_edges")
    if faces is not None:
        faces = [_vertex_ids(f, cycle) for f, cycle in enumerate(faces)]
        counts: dict[tuple[int, int], int] = {}
        for cycle in faces:
            if len(cycle) < 2:
                raise AmbiguousInputError("faces need at least two vertices")
            for i, u in enumerate(cycle):
                v = cycle[(i + 1) % len(cycle)]
                if u == v:
                    raise AmbiguousInputError(
                        f"loop edge at vertex {u}; use the oriented-edge table form")
                counts[(min(u, v), max(u, v))] = counts.get((min(u, v), max(u, v)), 0) + 1
        for pair, c in counts.items():
            if c == 1:
                raise DanglingEdgeError(f"edge {pair} appears on one side only")
            if c > 2:
                raise AmbiguousInputError(
                    f"double edge {pair}; use the oriented-edge table form")
        walks = []
        seen_directed = set()
        for cycle in faces:
            tokens = []
            for i, u in enumerate(cycle):
                v = cycle[(i + 1) % len(cycle)]
                if (u, v) in seen_directed:
                    raise NonOrientableError(
                        f"directed edge {(u, v)} induced twice; faces are not "
                        f"consistently oriented")
                seen_directed.add((u, v))
                tokens.append((u, (min(u, v), max(u, v)), 1 if u < v else -1))
            walks.append((tokens, True))
        return surface_from_walks(walks, genus_hint=genus_hint)

    origin, left, twin, next_ = [], [], [], []
    for h, rec in enumerate(oriented_edges):
        try:
            origin.append(rec["origin"])
            left.append(rec["left_face"])
            twin.append(rec["twin"])
            nx = rec.get("next", rec.get("next_in_face"))
        except KeyError as exc:
            raise SurfaceError(f"oriented edge {h} has no {exc}") from None
        except TypeError:
            raise SurfaceError(f"oriented edge {h} is not an object") from None
        next_.append(OPEN if nx is None else nx)
    return CellularSurface(origin, left, twin, next_, genus_hint=genus_hint)


def surface_to_json_dict(s: CellularSurface) -> dict:
    """Mesh schema: oriented-edge table plus the canonical edge indexing."""
    return {
        "oriented_edges": [
            {"origin": s.origin(h), "left_face": s.left_face(h), "twin": s.twin(h),
             "next": None if s.next_in_face(h) == OPEN else s.next_in_face(h)}
            for h in range(s.n_oriented_edges)
        ],
        "edge_ids": [s.edge_of(h) for h in range(s.n_oriented_edges)],
    }


def surface_from_json_dict(d: dict) -> CellularSurface:
    if not isinstance(d, dict):
        raise SurfaceError("mesh must be an object")
    for key in ("faces", "oriented_edges"):
        if key in d and not isinstance(d[key], list):
            raise SurfaceError(f"'{key}' must be a list")
    if "faces" in d:
        return build_surface(faces=d["faces"], genus_hint=d.get("genus_hint"))
    if "oriented_edges" in d:
        return build_surface(oriented_edges=d["oriented_edges"],
                             genus_hint=d.get("genus_hint"))
    raise SurfaceError("mesh must contain 'faces' or 'oriented_edges'")


# -- derived decompositions -------------------------------------------------

def medial(s: CellularSurface) -> CellularSurface:
    """Medial decomposition: one 4-valent vertex per edge of s; faces of the
    result correspond to faces of s (ids 0..F-1) followed by vertices of s
    (ids F..F+V-1)."""
    if not s.is_closed:
        raise UnsupportedSurfaceError("medial of a surface with boundary is not supported")
    walks = []
    for f in range(s.n_faces):
        tokens = [(s.edge_of(h), h, 1) for h in s.face_walk(f)]
        walks.append((tokens, True))
    for v in range(s.n_vertices):
        fan = s.vertex_fan(v)
        tokens = []
        for i, g in enumerate(fan):
            g_next = fan[(i + 1) % len(fan)]
            tokens.append((s.edge_of(g), s.twin(g_next), -1))
        walks.append((tokens, True))
    return surface_from_walks(walks)


# -- topology ----------------------------------------------------------------

def euler_characteristic(s: CellularSurface):
    """Euler characteristic; boundary faces and vertices count one half.

    Returns ``(chi, genus)`` where genus is None for surfaces with boundary.
    """
    chi2 = (2 * s.n_faces - s.n_boundary_faces) - 2 * s.n_edges \
        + (2 * s.n_vertices - s.n_boundary_vertices)
    if chi2 % 2:
        raise SurfaceError("half-integer Euler characteristic; invalid boundary data")
    chi = chi2 // 2
    if s.is_closed:
        if (2 - chi) % 2:
            raise SurfaceError(f"odd Euler characteristic {chi} for a closed surface")
        return chi, (2 - chi) // 2
    return chi, None


def vertex_angle_sums(s: CellularSurface, theta):
    """Sum of theta over the edges around each vertex (loops count twice)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (s.n_edges,):
        raise ValueError(f"theta must have one entry per edge ({s.n_edges})")
    out = np.zeros(s.n_vertices)
    np.add.at(out, s.oe_origin, theta[s.oe_edge])
    return out
