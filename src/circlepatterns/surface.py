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

Storage: the table is held as read-only ``intp`` arrays (``oe_origin``,
``oe_left``, ``oe_twin``, ``oe_next``, ``oe_prev``, ``oe_edge``, with
``edge_reps`` per unoriented edge).  Every derived table is computed from
them with NumPy: the face walks and the vertex fans are ordered by pointer
doubling along ``prev`` and along its rotation ``next[twin]`` and kept
concatenated (``walk_edges`` cut at ``walk_offsets``, ``fan_edges`` at
``fan_offsets``), with the boolean ``face_boundary`` and
``vertex_boundary``; connectivity comes from
``scipy.sparse.csgraph.connected_components``.  These arrays are the
interface: every module reads the surface by indexing them (face f's walk
is ``walk_edges[walk_offsets[f]:walk_offsets[f + 1]]``, the right face of
h is ``oe_right[h]``).  Two scalar accessors remain, ``origin`` and
``face_walk``, because the ``perfbench`` workloads call them.  Every id
must be a ``numbers.Integral`` other than ``bool``.
"""

from __future__ import annotations

import numbers
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

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


def _integer_type(t):
    return issubclass(t, numbers.Integral) and not issubclass(t, bool)


def is_integer(x) -> bool:
    """True for a ``numbers.Integral`` that is not a ``bool``."""
    return _integer_type(type(x))


def _all_integers(values):
    return all(map(_integer_type, set(map(type, values))))


def _int_array(values, what):
    """``values`` as a new one-dimensional intp array of integer ids."""
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        return values.astype(np.intp)
    try:
        values = list(values)
    except TypeError:
        raise SurfaceError(f"{what} must be a list of integers") from None
    if not _all_integers(values):
        bad = next(v for v in values if not is_integer(v))
        raise SurfaceError(f"{what} must be integers, got {bad!r}")
    try:
        return np.array(values, dtype=np.intp)
    except OverflowError:
        raise SurfaceError(f"{what} must fit a machine integer") from None


def _first(mask):
    """Index of the first True entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else None


def _group_sizes(ids, n):
    """Members per id, or None unless the ids are exactly 0..k-1 (ids >= 0)."""
    if ids.max() >= n:
        return None
    sizes = np.bincount(ids)
    return sizes if sizes.all() else None


def _walk_pieces(pred, group, sizes):
    """Split every group's members into maximal walks along ``pred``.

    ``pred`` is an injective partial map (``OPEN`` where undefined) that
    keeps each group, so a group's members form chains, each starting
    where ``pred`` is undefined, and cycles, each started at its smallest
    member.  Pointer doubling finds every member's start and its rank
    after it in ``ceil(log2(largest group + 1))`` rounds.  Returns the
    number of chains and of pieces per group, and the walk order of all
    members grouped by ``group`` (None unless every group is one piece).
    """
    n = len(pred)
    idx = np.arange(n)
    rounds = int(sizes.max()).bit_length()
    chain_start = pred == OPEN
    # p jumps back towards a chain's start; low is the smallest member
    # passed, which on a cycle ends as the cycle's smallest member
    p = np.where(chain_start, idx, pred)
    low = idx
    for _ in range(rounds):
        low = np.minimum(low, low[p])
        p = p[p]
    is_start = np.where(chain_start[p], p, low) == idx
    n_chains = np.bincount(group[chain_start], minlength=len(sizes))
    n_pieces = np.bincount(group[is_start], minlength=len(sizes))
    if np.any(n_pieces != 1):
        return n_chains, n_pieces, None
    q = np.where(is_start, idx, pred)
    rank = (~is_start).astype(np.intp)
    for _ in range(rounds):
        rank = rank + rank[q]
        q = q[q]
    order = np.empty(n, dtype=np.intp)
    order[np.cumsum(sizes)[group] - sizes[group] + rank] = idx
    return n_chains, n_pieces, order


class CellularSurface:
    """Immutable oriented cellular decomposition of a connected surface.

    Parameters are parallel sequences (or integer arrays) over oriented
    edges.  ``next_in_face`` uses ``OPEN`` (-1) to terminate the walk of a
    boundary face.  The constructor validates the half-edge axioms and
    computes the face walks, the vertex fans (in counterclockwise order),
    the boundary flags and the canonical unoriented-edge indexing, all as
    the read-only arrays described in the module docstring; read the
    surface through them.  ``origin(h)`` and ``face_walk(f)`` return
    Python ints and tuples for the ``perfbench`` workloads.
    """

    def __init__(self, origin, left_face, twin, next_in_face, *, edge_id=None,
                 genus_hint=None):
        if genus_hint is not None and not is_integer(genus_hint):
            raise SurfaceError(f"genus hint must be an integer, got {genus_hint!r}")
        what = "oriented-edge table entries"
        origin, left, twin, nxt = (_int_array(c, what) for c in
                                   (origin, left_face, twin, next_in_face))
        n = len(origin)
        if not (len(left) == len(twin) == len(nxt) == n):
            raise SurfaceError("oriented-edge table columns have unequal lengths")
        if n == 0:
            raise SurfaceError("empty surface")
        idx = np.arange(n)
        _check_twins(twin, idx)
        prev = _prev_table(origin, left, twin, nxt, idx)

        h = _first(left < 0)
        if h is not None:
            raise DanglingEdgeError(f"oriented edge {h} has no face on its left")
        face_sizes = _group_sizes(left, n)
        if face_sizes is None:
            raise SurfaceError("face ids are not contiguous")
        n_chains, n_pieces, walks = _walk_pieces(prev, left, face_sizes)
        f = _first((n_chains > 1) | (n_pieces != 1))
        if f is not None:
            if n_chains[f] > 1:
                raise SurfaceError(
                    f"face {f} has {n_chains[f]} open walks; only one is supported")
            raise SurfaceError(f"face {f} boundary is not a single walk")
        face_boundary = n_chains == 1

        h = _first(origin < 0)
        if h is not None:
            raise SurfaceError(f"oriented edge {h} has negative origin")
        fan_sizes = _group_sizes(origin, n)
        if fan_sizes is None:
            raise SurfaceError("vertex ids are not contiguous (isolated vertex?)")
        # clockwise rotation about the origin; a fan is walked counterclockwise
        n_chains, n_pieces, fans = _walk_pieces(nxt[twin], origin, fan_sizes)
        v = _first((n_chains > 1) | (n_pieces != 1))
        if v is not None:
            if n_chains[v] > 1:
                raise NonManifoldError(f"vertex {v} has {n_chains[v]} fan chains")
            raise NonManifoldError(f"vertex {v} fan is not a single cycle or chain")
        vertex_boundary = n_chains == 1

        linked = nxt != OPEN
        rows = np.concatenate((idx, idx[linked]))
        graph = csr_matrix((np.ones(len(rows), dtype=np.int8),
                            (rows, np.concatenate((twin, nxt[linked])))), shape=(n, n))
        if connected_components(graph, directed=False)[0] != 1:
            raise DisconnectedSurfaceError("oriented-edge structure is disconnected")

        edge, reps = _edge_ids(twin, idx, edge_id)

        walk_offsets = np.concatenate(([0], np.cumsum(face_sizes)))
        fan_offsets = np.concatenate(([0], np.cumsum(fan_sizes)))
        tables = (origin, left, twin, nxt, prev, edge, reps, walks, walk_offsets,
                  face_boundary, fans, fan_offsets, vertex_boundary)
        for table in tables:
            table.flags.writeable = False
        (self.oe_origin, self.oe_left, self.oe_twin, self.oe_next, self.oe_prev,
         self.oe_edge, self.edge_reps, self.walk_edges, self.walk_offsets,
         self.face_boundary, self.fan_edges, self.fan_offsets,
         self.vertex_boundary) = tables
        self._counts = (n, len(reps), len(face_sizes), len(fan_sizes),
                        int(face_boundary.sum()), int(vertex_boundary.sum()))
        if genus_hint is not None and self.is_closed:
            chi = self.n_faces - self.n_edges + self.n_vertices
            if chi != 2 - 2 * genus_hint:
                raise SurfaceError(
                    f"genus hint {genus_hint} inconsistent with Euler characteristic {chi}")

    # -- basic accessors --------------------------------------------------

    @property
    def n_oriented_edges(self):
        return self._counts[0]

    @property
    def n_edges(self):
        return self._counts[1]

    @property
    def n_faces(self):
        return self._counts[2]

    @property
    def n_vertices(self):
        return self._counts[3]

    @property
    def n_boundary_faces(self):
        return self._counts[4]

    @property
    def n_boundary_vertices(self):
        return self._counts[5]

    @property
    def is_closed(self):
        return self._counts[4] == 0

    def origin(self, h):
        return int(self.oe_origin[h])

    def face_walk(self, f):
        f = range(self.n_faces)[f]      # a negative or out-of-range id as a list reads it
        return tuple(self.walk_edges[self.walk_offsets[f]:self.walk_offsets[f + 1]].tolist())

    def incident_edges(self, faces):
        """Mask over the edges incident with a face set, itself a mask
        over the faces."""
        edges = np.zeros(self.n_edges, dtype=bool)
        edges[self.oe_edge[faces[self.oe_left]]] = True
        return edges

    # -- derived arrays ------------------------------------------------------

    @cached_property
    def oe_right(self):
        return self.oe_left[self.oe_twin]

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


def _check_twins(twin, idx):
    """Raise at the first oriented edge whose twin is out of range, is
    itself, or has another twin."""
    n = len(twin)
    out_of_range = (twin < 0) | (twin >= n)
    t = np.where(out_of_range, idx, twin)
    own = twin == idx
    h = _first(out_of_range | own | (twin[t] != idx))
    if h is None:
        return
    if out_of_range[h]:
        raise DanglingEdgeError(f"oriented edge {h} has twin {twin[h]} out of range")
    if own[h]:
        raise TwinError(f"oriented edge {h} is its own twin")
    raise TwinError(f"twin of {h} is {t[h]} but twin of {t[h]} is {twin[t[h]]}")


def _prev_table(origin, left, twin, nxt, idx):
    """The inverse of next, after the checks that next stays in its face,
    is injective and continues the walk; the first edge at fault is named."""
    n = len(nxt)
    linked = nxt != OPEN
    out_of_range = linked & ((nxt < 0) | (nxt >= n))
    ok = linked & ~out_of_range
    to = np.where(ok, nxt, idx)
    leaves = ok & (left[to] != left)
    # the second and later edges with the same next
    shared = ok.copy()
    members = np.flatnonzero(ok)
    shared[members[np.unique(nxt[members], return_index=True)[1]]] = False
    broken = ok & (origin[to] != origin[twin])
    h = _first(out_of_range | leaves | shared | broken)
    if h is not None:
        if out_of_range[h]:
            raise SurfaceError(f"next of {h} out of range")
        if leaves[h]:
            raise SurfaceError(f"next of {h} leaves its face")
        if shared[h]:
            raise SurfaceError(f"oriented edge {nxt[h]} is the next of two edges")
        # walk continuity: the terminus of h is the origin of next(h)
        raise SurfaceError(f"walk broken at {h}: next origin differs from terminus")
    prev = np.full(n, OPEN, dtype=np.intp)
    prev[nxt[ok]] = idx[ok]
    return prev


def _edge_ids(twin, idx, edge_id):
    """Unoriented edge of every oriented edge and the first oriented edge
    of every unoriented edge; without ``edge_id``, edges are numbered in
    order of first appearance."""
    if edge_id is None:
        first = idx < twin
        number = np.cumsum(first) - 1
        return np.where(first, number, number[twin]), np.flatnonzero(first)
    eid = _int_array(edge_id, "edge ids")
    if len(eid) != len(idx):
        raise SurfaceError("edge_id length mismatch")
    if np.any(eid != eid[twin]):
        raise SurfaceError("edge_id differs between twins")
    ids, reps = np.unique(eid, return_index=True)
    if ids[0] != 0 or ids[-1] != len(ids) - 1:
        raise SurfaceError("edge ids are not contiguous")
    if 2 * len(ids) != len(eid):
        raise SurfaceError("edge ids are shared between edges")
    return eid, reps


# -- constructors ----------------------------------------------------------

def surface_from_walks(walks, edge_order=None, genus_hint=None):
    """Build a surface from face walks of (origin, edge_key, sign) tokens.

    Each walk is a pair (tokens, closed).  Every ``(edge_key, +1)`` and
    ``(edge_key, -1)`` must appear exactly once overall; the two tokens of
    a key become twins.  This form encodes loops and multiple edges
    unambiguously.  ``edge_order`` optionally fixes the unoriented edge
    indexing by listing the keys.
    """
    tokens, sizes, closed = [], [], []
    for f, (face_tokens, is_closed) in enumerate(walks):
        if not face_tokens:
            raise SurfaceError(f"face {f} has no edges")
        tokens.extend(face_tokens)
        sizes.append(len(face_tokens))
        closed.append(bool(is_closed))
    if not tokens:
        raise SurfaceError("empty surface")
    if set(map(len, tokens)) != {3}:
        raise SurfaceError("a token is a triple (origin, edge_key, sign)")
    origin, keys, signs = zip(*tokens)
    n = len(tokens)
    idx = np.arange(n)
    number = {}
    key_id = np.array([number.setdefault(k, len(number)) for k in keys], dtype=np.intp)
    # the first bad sign, and before it the first token seen twice
    m = next((i for i, sign in enumerate(signs) if sign not in (1, -1)), n)
    slot = 2 * key_id[:m] + (np.array(signs[:m]) == -1)
    by_slot = np.argsort(slot, kind="stable")
    again = by_slot[1:][slot[by_slot[1:]] == slot[by_slot[:-1]]]
    if len(again):
        h = int(again.min())
        raise NonOrientableError(f"oriented edge ({keys[h]!r}, {signs[h]}) used twice")
    if m < n:
        raise SurfaceError("token sign must be +1 or -1")
    at = np.full(2 * len(number), n, dtype=np.intp)
    at[slot] = idx
    twin = at[slot ^ 1]
    h = _first(twin == n)
    if h is not None:
        raise DanglingEdgeError(f"edge {keys[h]!r} has only one side")
    sizes = np.array(sizes, dtype=np.intp)
    ends = np.cumsum(sizes)
    nxt = idx + 1
    nxt[ends - 1] = np.where(closed, ends - sizes, OPEN)
    edge_id = None
    if edge_order is not None:
        index = {key: i for i, key in enumerate(edge_order)}
        edge_id = [index[key] for key in keys]
    return CellularSurface(origin, np.repeat(np.arange(len(sizes)), sizes), twin, nxt,
                           edge_id=edge_id, genus_hint=genus_hint)


def _face_lists(faces):
    """Flat vertex ids and per-face sizes of face-vertex lists."""
    cycles = []
    for f, cycle in enumerate(faces):
        try:
            cycles.append(list(cycle))
        except TypeError:
            raise SurfaceError(f"face {f} is not a list of integer vertex ids") from None
    flat = [v for cycle in cycles for v in cycle]
    if not _all_integers(flat):
        f = next(f for f, cycle in enumerate(cycles) if not _all_integers(cycle))
        raise SurfaceError(f"face {f} is not a list of integer vertex ids")
    try:
        flat = np.array(flat, dtype=np.intp)
    except OverflowError:
        raise SurfaceError("vertex ids must fit a machine integer") from None
    return flat, np.array([len(cycle) for cycle in cycles], dtype=np.intp)


def _faces_to_walks(faces):
    """Walk tokens of closed face-vertex lists, after the checks that
    rule out loops, double edges, dangling and misoriented edges; the
    first face, edge or pair at fault is named."""
    u, sizes = _face_lists(faces)
    n = len(u)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # the vertex after each corner, cyclically within its face
    succ = np.arange(1, n + 1)
    succ[ends[sizes > 0] - 1] = starts[sizes > 0]
    w = u[succ]
    face = np.repeat(np.arange(len(sizes)), sizes)
    short = sizes < 2
    loop = np.zeros(len(sizes), dtype=bool)
    loop[face[u == w]] = True
    f = _first(short | loop)
    if f is not None:
        if short[f]:
            raise AmbiguousInputError("faces need at least two vertices")
        h = starts[f] + _first(u[starts[f]:ends[f]] == w[starts[f]:ends[f]])
        raise AmbiguousInputError(
            f"loop edge at vertex {u[h]}; use the oriented-edge table form")
    if n == 0:
        return []
    lo, hi = np.minimum(u, w), np.maximum(u, w)
    pairs, first, pair_id, count = np.unique(np.stack((lo, hi), axis=1), axis=0,
                                             return_index=True, return_inverse=True,
                                             return_counts=True)
    pair_id = pair_id.reshape(-1)
    bad = np.flatnonzero(count != 2)
    if len(bad):
        p = bad[np.argmin(first[bad])]
        pair = (int(pairs[p, 0]), int(pairs[p, 1]))
        if count[p] == 1:
            raise DanglingEdgeError(f"edge {pair} appears on one side only")
        raise AmbiguousInputError(f"double edge {pair}; use the oriented-edge table form")
    # each pair is used twice; the same direction twice is a misorientation
    forward = u < w
    same = forward == forward[first][pair_id]
    same[first] = False
    h = _first(same)
    if h is not None:
        raise NonOrientableError(
            f"directed edge {(int(u[h]), int(w[h]))} induced twice; faces are not "
            f"consistently oriented")
    tokens = list(zip(u.tolist(), pair_id.tolist(), np.where(forward, 1, -1).tolist()))
    offsets = np.concatenate(([0], ends)).tolist()
    return [(tokens[a:b], True) for a, b in zip(offsets[:-1], offsets[1:])]


def build_surface(faces=None, oriented_edges=None, genus_hint=None, edge_ids=None):
    """Build a surface from face-vertex lists or an oriented-edge table.

    The face-vertex form accepts closed faces only and rejects loops and
    double edges (they make the gluing ambiguous); use the table form for
    full generality, including surfaces with boundary faces.  The table
    form numbers its edges by ``edge_ids``, one per oriented edge, when
    given, and otherwise in order of first appearance.
    """
    if (faces is None) == (oriented_edges is None):
        raise SurfaceError("provide exactly one of faces / oriented_edges")
    if faces is not None:
        if edge_ids is not None:
            raise SurfaceError("edge_ids number the rows of oriented_edges; "
                               "faces take none")
        return surface_from_walks(_faces_to_walks(faces), genus_hint=genus_hint)
    oriented_edges = list(oriented_edges)
    try:
        columns = [[rec[key] for rec in oriented_edges]
                   for key in ("origin", "left_face", "twin")]
        nxt = [rec.get("next", rec.get("next_in_face")) for rec in oriented_edges]
    except (KeyError, TypeError, AttributeError):
        for h, rec in enumerate(oriented_edges):
            if not isinstance(rec, dict):
                raise SurfaceError(f"oriented edge {h} is not an object") from None
            for key in ("origin", "left_face", "twin"):
                if key not in rec:
                    raise SurfaceError(f"oriented edge {h} has no '{key}'") from None
        raise
    nxt = [OPEN if x is None else x for x in nxt]
    return CellularSurface(*columns, nxt, edge_id=edge_ids, genus_hint=genus_hint)


def surface_to_json_dict(s: CellularSurface) -> dict:
    """Mesh schema: oriented-edge table plus the canonical edge indexing."""
    return {
        "oriented_edges": [
            {"origin": o, "left_face": f, "twin": t, "next": None if nx == OPEN else nx}
            for o, f, t, nx in zip(s.oe_origin.tolist(), s.oe_left.tolist(),
                                   s.oe_twin.tolist(), s.oe_next.tolist())
        ],
        "edge_ids": s.oe_edge.tolist(),
    }


def surface_from_json_dict(d: dict) -> CellularSurface:
    if not isinstance(d, dict):
        raise SurfaceError("mesh must be an object")
    for key in ("faces", "oriented_edges"):
        if key in d and not isinstance(d[key], list):
            raise SurfaceError(f"'{key}' must be a list")
    if "faces" not in d and "oriented_edges" not in d:
        raise SurfaceError("mesh must contain 'faces' or 'oriented_edges'")
    return build_surface(faces=d.get("faces"), oriented_edges=d.get("oriented_edges"),
                         genus_hint=d.get("genus_hint"), edge_ids=d.get("edge_ids"))


# -- derived decompositions -------------------------------------------------

def medial(s: CellularSurface) -> CellularSurface:
    """Medial decomposition: one 4-valent vertex per edge of s; faces of the
    result correspond to faces of s (ids 0..F-1) followed by vertices of s
    (ids F..F+V-1).

    The oriented edges of the result are those of the face walks of s in
    order, one per oriented edge h, starting at the midpoint of h's edge,
    followed by those of the vertex fans; the fan edge after g crosses the
    corner between g and the next edge g' of its fan and is the twin of the
    face edge of twin(g').  Face edges are numbered as their edges."""
    if not s.is_closed:
        raise UnsupportedSurfaceError("medial of a surface with boundary is not supported")
    n = s.n_oriented_edges
    walks, fans = s.walk_edges, s.fan_edges
    fan_sizes = np.diff(s.fan_offsets)
    # the next member of every fan, cyclically
    fan_next = np.arange(1, n + 1)
    fan_next[s.fan_offsets[1:] - 1] = s.fan_offsets[:-1]
    at_face = np.empty(n, dtype=np.intp)
    at_face[walks] = np.arange(n)
    crossing = at_face[s.oe_twin[fans[fan_next]]]
    twin = np.empty(2 * n, dtype=np.intp)
    twin[n:] = crossing
    twin[crossing] = np.arange(n, 2 * n)
    walk_next = np.arange(1, n + 1)
    walk_next[s.walk_offsets[1:] - 1] = s.walk_offsets[:-1]
    return CellularSurface(
        s.oe_edge[np.concatenate((walks, fans))],
        np.concatenate((np.repeat(np.arange(s.n_faces), np.diff(s.walk_offsets)),
                        np.repeat(np.arange(s.n_faces, s.n_faces + s.n_vertices),
                                  fan_sizes))),
        twin, np.concatenate((walk_next, fan_next + n)))


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
    return np.bincount(s.oe_origin, weights=theta[s.oe_edge], minlength=s.n_vertices)
