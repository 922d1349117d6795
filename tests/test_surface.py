import numpy as np
import pytest

from circlepatterns import meshes
from circlepatterns.spherical import SphericalProblem, reduce_to_plane
from circlepatterns.surface import (
    OPEN, AmbiguousInputError, CellularSurface, DanglingEdgeError,
    DisconnectedSurfaceError, NonManifoldError, NonOrientableError, SurfaceError,
    TwinError, UnsupportedSurfaceError, build_surface, euler_characteristic, medial,
    surface_from_json_dict, surface_from_walks, surface_to_json_dict, vertex_angle_sums,
)
from helpers import (dual, face_lists, genus2_octagon, hexagonal_torus, isomorphic,
                     pinched_sphere, quad_graph, subdivide_edge, subdivided_faces,
                     surface_pool)
from oracles import medial_reference, surface_tables_reference


def test_tetrahedron_counts():
    s = build_surface(faces=[[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    assert (s.n_faces, s.n_edges, s.n_vertices) == (4, 6, 4)
    assert s.is_closed
    assert euler_characteristic(s) == (2, 0)


def test_torus_grid_counts():
    s = meshes.torus_grid(4, 4)
    assert (s.n_faces, s.n_edges, s.n_vertices) == (16, 32, 16)
    assert euler_characteristic(s) == (0, 1)


def test_torus_grid_from_face_lists():
    def v(i, j):
        return (i % 4) * 4 + (j % 4)
    faces = [[v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)]
             for i in range(4) for j in range(4)]
    s = build_surface(faces=faces)
    assert euler_characteristic(s) == (0, 1)
    assert isomorphic(s, meshes.torus_grid(4, 4))


def test_table_form_with_identified_edges():
    # one-face torus: a single quadrilateral with opposite sides glued
    s = meshes.torus_grid(1, 1)
    assert (s.n_faces, s.n_edges, s.n_vertices) == (1, 2, 1)
    h = np.arange(s.n_oriented_edges)
    assert np.array_equal(s.oe_twin[s.oe_twin], h)
    assert np.all(s.oe_twin != h)
    # round-trip through the oriented-edge table
    s2 = surface_from_json_dict(surface_to_json_dict(s))
    assert isomorphic(s, s2)


def test_face_list_rejects_loops_and_double_edges():
    with pytest.raises(AmbiguousInputError):
        build_surface(faces=[[0, 0, 1], [1, 0, 2], [2, 0, 1]])
    # double triangle has no double edges; a triple gluing does
    with pytest.raises(AmbiguousInputError):
        build_surface(faces=[[0, 1, 2], [2, 1, 0], [0, 1, 3], [3, 1, 0]])


def test_face_list_rejects_dangling_and_nonorientable():
    with pytest.raises(DanglingEdgeError):
        build_surface(faces=[[0, 1, 2]])
    with pytest.raises(NonOrientableError):
        build_surface(faces=[[0, 1, 2], [0, 1, 3], [2, 1, 3], [0, 3, 2]])


def test_twin_validation():
    with pytest.raises(TwinError):
        build_surface(oriented_edges=[
            {"origin": 0, "left_face": 0, "twin": 0, "next": 1},
            {"origin": 1, "left_face": 0, "twin": 1, "next": 0},
        ])


def test_disconnected_rejected():
    t = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    shifted = [[v + 4 for v in f] for f in t]
    with pytest.raises(DisconnectedSurfaceError):
        build_surface(faces=t + shifted)


def test_genus_hint_validated():
    build_surface(faces=[[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]], genus_hint=0)
    with pytest.raises(SurfaceError):
        build_surface(faces=[[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]],
                      genus_hint=1)


def test_dual_tetrahedron_self_dual():
    t = meshes.tetrahedron()
    assert isomorphic(dual(t), t)


def test_dual_cube_octahedron():
    c, o = meshes.cube(), meshes.octahedron()
    assert isomorphic(dual(c), o)
    assert isomorphic(dual(o), c)
    assert isomorphic(dual(dual(c)), c)


def test_dual_torus_self_dual():
    s = meshes.torus_grid(3, 3)
    assert isomorphic(dual(s), s)


def test_dual_preserves_edge_ids():
    s = meshes.cube()
    d = dual(s)
    assert d.n_edges == s.n_edges
    # corresponding edges connect the dual cells of the primal sides
    ends = np.stack((d.oe_origin[d.edge_reps], d.oe_origin[d.oe_twin[d.edge_reps]]))
    sides = np.stack((s.edge_left, s.edge_right))
    assert np.array_equal(np.sort(ends, axis=0), np.sort(sides, axis=0))


def test_dual_requires_closed():
    from circlepatterns.spherical import SphericalProblem, reduce_to_plane
    red = reduce_to_plane(SphericalProblem(meshes.cube(),
                                           np.full(12, 2 * np.pi / 3), 0))
    with pytest.raises(UnsupportedSurfaceError):
        dual(red.spec.surface)
    with pytest.raises(UnsupportedSurfaceError):
        medial(red.spec.surface)


def test_medial_tetrahedron_is_octahedron():
    m = medial(meshes.tetrahedron())
    assert (m.n_faces, m.n_edges, m.n_vertices) == (8, 12, 6)
    assert isomorphic(m, meshes.octahedron())


def test_medial_cube_is_cuboctahedron():
    m = medial(meshes.cube())
    assert (m.n_faces, m.n_edges, m.n_vertices) == (14, 24, 12)


def test_medial_always_four_valent():
    for s in (meshes.tetrahedron(), meshes.cube(), meshes.torus_grid(2, 3),
              hexagonal_torus(), genus2_octagon()):
        m = medial(s)
        assert np.all(np.diff(m.fan_offsets) == 4)
        assert m.n_faces == s.n_faces + s.n_vertices
        assert m.n_vertices == s.n_edges


def test_quad_graph_counts_and_duality():
    t = meshes.tetrahedron()
    q = quad_graph(t)
    assert q.n_faces == t.n_edges == 6
    assert all(len(q.face_walk(f)) == 4 for f in range(q.n_faces))
    assert isomorphic(q, dual(medial(t)))
    s = meshes.torus_grid(4, 4)
    assert quad_graph(s).n_faces == 32


def test_quad_graph_bicolored():
    s = meshes.cube()
    q = quad_graph(s)
    F = s.n_faces
    white = q.oe_origin < F
    assert np.all((q.oe_origin[q.oe_twin] < F) != white)


def test_quad_graph_of_boundary_surface():
    from circlepatterns.spherical import SphericalProblem, reduce_to_plane
    red = reduce_to_plane(SphericalProblem(meshes.octahedron(),
                                           np.full(12, np.pi / 2), 4))
    q = quad_graph(red.spec.surface)
    assert q.n_faces == red.spec.surface.n_edges
    assert not q.is_closed
    # open quads have fewer than four sides
    assert any(len(q.face_walk(f)) < 4 for f in range(q.n_faces))


def test_euler_characteristic_disc():
    from circlepatterns.spherical import SphericalProblem, reduce_to_plane
    red = reduce_to_plane(SphericalProblem(meshes.cube(),
                                           np.full(12, 2 * np.pi / 3), 0))
    assert euler_characteristic(red.spec.surface) == (1, None)


def test_euler_characteristic_invariant_under_subdivision():
    for s in (meshes.tetrahedron(), meshes.torus_grid(2, 2),
              genus2_octagon()):
        chi, genus = euler_characteristic(s)
        s2 = subdivide_edge(s, 0)
        assert euler_characteristic(s2) == (chi, genus)
        s3 = subdivide_edge(s2, s2.n_edges - 1)
        assert euler_characteristic(s3) == (chi, genus)


def test_vertex_angle_sums_grid():
    s = meshes.torus_grid(4, 4)
    sums = vertex_angle_sums(s, np.full(32, np.pi / 2))
    assert np.abs(sums - 2 * np.pi).max() < 1e-12


def test_vertex_angle_sums_cube():
    s = meshes.cube()
    sums = vertex_angle_sums(s, np.full(12, 2 * np.pi / 3))
    assert np.abs(sums - 2 * np.pi).max() < 1e-12


def test_vertex_angle_sums_loop_counts_twice():
    s = meshes.torus_grid(1, 1)  # one vertex, two loop edges
    sums = vertex_angle_sums(s, np.array([1.0, 0.5]))
    assert abs(sums[0] - 3.0) < 1e-15


def test_isomorphic_negative():
    assert not isomorphic(meshes.tetrahedron(), meshes.cube())
    assert not isomorphic(meshes.torus_grid(2, 2), meshes.torus_grid(4, 1))


def test_walk_form_rejects_half_edges():
    with pytest.raises(DanglingEdgeError):
        surface_from_walks([([(0, "a", 1), (1, "b", 1), (0, "b", -1)], True)])


# a one-vertex torus, the walk a b a' b'
_TORUS_WALK = [(0, "a", 1), (0, "b", 1), (0, "a", -1), (0, "b", -1)]


@pytest.mark.parametrize("walks, kind, message", [
    ([(_TORUS_WALK, True), ([], True)], SurfaceError, "face 1 has no edges"),
    ([], SurfaceError, "empty surface"),
    ([(_TORUS_WALK[:3] + [(0, "b")], True)], SurfaceError, "a token is a triple"),
    ([(_TORUS_WALK[:3] + [(0, "b", 2)], True)], SurfaceError, r"sign must be \+1 or -1"),
    ([(_TORUS_WALK + [(0, "a", 1)], True)], NonOrientableError,
     r"oriented edge \('a', 1\) used twice"),
])
def test_walk_form_rejects_malformed_walks(walks, kind, message):
    assert surface_from_walks([(_TORUS_WALK, True)]).n_edges == 2   # the walk itself is valid
    with pytest.raises(kind, match=message):
        surface_from_walks(walks)


def test_json_round_trip():
    s = meshes.octahedron()
    s2 = surface_from_json_dict(surface_to_json_dict(s))
    assert isomorphic(s, s2)
    assert s2.oe_edge.tolist() == s.oe_edge.tolist()


def test_json_round_trip_keeps_the_edge_numbering():
    # the reduction numbers its edges in the order of the cube's, which is
    # not the order of first appearance
    s = reduce_to_plane(SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3),
                                         2)).spec.surface
    first_appearance = CellularSurface(s.oe_origin, s.oe_left, s.oe_twin, s.oe_next)
    assert not np.array_equal(first_appearance.oe_edge, s.oe_edge)
    s2 = surface_from_json_dict(surface_to_json_dict(s))
    assert np.array_equal(s2.oe_edge, s.oe_edge)
    assert np.array_equal(s2.edge_reps, s.edge_reps)


@pytest.mark.parametrize("message", ["differs between twins", "shared between edges",
                                     "not contiguous"])
def test_json_edge_ids_are_checked(message):
    doc = surface_to_json_dict(meshes.torus_grid(2, 2))
    ids = doc["edge_ids"]
    doc["edge_ids"] = {"differs between twins": [5] + ids[1:],
                       "shared between edges": [0] * len(ids),
                       "not contiguous": [i + 1 for i in ids]}[message]
    with pytest.raises(SurfaceError, match=message):
        surface_from_json_dict(doc)


# -- the array tables against the pure-Python reference ------------------------

def _table(s):
    return [s.oe_origin.tolist(), s.oe_left.tolist(), s.oe_twin.tolist(),
            s.oe_next.tolist()]


def _relabelled(table, rng):
    """The same surface with oriented edges, faces and vertices renumbered
    at random, so that no walk or fan is a contiguous run."""
    origin, left, twin, nxt = (np.asarray(c) for c in table)
    n = len(origin)
    perm = rng.permutation(n)
    face_perm = rng.permutation(left.max() + 1)
    vertex_perm = rng.permutation(origin.max() + 1)
    out = [np.empty(n, dtype=int) for _ in range(4)]
    out[0][perm] = vertex_perm[origin]
    out[1][perm] = face_perm[left]
    out[2][perm] = perm[twin]
    out[3][perm] = np.where(nxt == OPEN, OPEN, perm[nxt])
    return [c.tolist() for c in out]


def _table_surfaces():
    octahedron = meshes.octahedron()
    faces = face_lists(octahedron)
    return surface_pool() + [
        meshes.triangulated_torus(3, 4), medial(meshes.triangulated_torus(3, 3)),
        build_surface(faces=subdivided_faces(faces, 2)), pinched_sphere(),
        reduce_to_plane(SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3),
                                         0)).spec.surface,
        reduce_to_plane(SphericalProblem(meshes.octahedron(), np.full(12, np.pi / 2),
                                         4)).spec.surface,
    ]


def _assert_tables_match(s, ref):
    assert tuple(s.oe_prev.tolist()) == ref["prev"]
    assert tuple(s.face_walk(f) for f in range(s.n_faces)) == ref["face_walks"]
    fans, offsets = s.fan_edges.tolist(), s.fan_offsets.tolist()
    assert tuple(tuple(fans[a:b]) for a, b in zip(offsets[:-1], offsets[1:])) == \
        ref["vertex_fans"]
    assert tuple(s.face_boundary.tolist()) == ref["face_is_boundary"]
    assert tuple(s.vertex_boundary.tolist()) == ref["vertex_is_boundary"]
    assert tuple(s.oe_edge.tolist()) == ref["edge_id"]
    assert tuple(s.edge_reps.tolist()) == ref["edge_rep"]
    assert s.n_boundary_faces == sum(ref["face_is_boundary"])
    # the accessors read the arrays as lists would: negative ids from the
    # end, and plain Python values that json can write
    assert s.face_walk(-1) == ref["face_walks"][-1]
    assert {type(s.origin(0)), type(s.face_walk(0)[0])} == {int}


def test_tables_match_the_pure_python_reference():
    rng = np.random.default_rng(11)
    for surface in _table_surfaces():
        for table in (_table(surface), _relabelled(_table(surface), rng),
                      _relabelled(_table(surface), rng)):
            ref = surface_tables_reference(*table)
            _assert_tables_match(CellularSurface(*table), ref)
            # a given numbering: the first-appearance one, permuted
            ids = rng.permutation(surface.n_edges)[list(ref["edge_id"])].tolist()
            _assert_tables_match(CellularSurface(*table, edge_id=ids),
                                 surface_tables_reference(*table, edge_id=ids))


def _face_table(faces):
    """Oriented-edge table of closed face-vertex lists, twins paired by
    their vertex pairs; no validation."""
    origin, left, nxt, at = [], [], [], {}
    for f, cycle in enumerate(faces):
        base = len(origin)
        for i, u in enumerate(cycle):
            at[(u, cycle[(i + 1) % len(cycle)])] = len(origin)
            origin.append(u)
            left.append(f)
            nxt.append(base + (i + 1) % len(cycle))
    twin = [at[(v, u)] for (u, v) in sorted(at, key=at.get)]
    return [origin, left, twin, nxt]


TETRAHEDRON = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]


def _edit(table, column, h, value):
    table = [list(c) for c in table]
    table[column][h] = value
    return table


def _malformed_tables():
    t = _face_table(TETRAHEDRON)
    walk0 = [h for h in range(12) if t[1][h] == 0]
    h0 = walk0[0]
    other = next(h for h in range(12) if t[2][h] not in (t[2][h0], h0) and h != h0)
    swapped = _edit(_edit(t, 2, h0, t[2][other]), 2, other, t[2][h0])
    second_face = [h for h in range(12) if t[1][h] == 1]
    two_chains = _edit(_edit(t, 3, walk0[0], OPEN), 3, walk0[1], OPEN)
    merged = [list(c) for c in t]
    merged[1] = [2 if f == 3 else f for f in t[1]]
    shifted = [[v + 4 for v in face] for face in TETRAHEDRON]
    # a second tetrahedron on vertices 0, 4, 5, 6: vertex 0 has two fans
    pinched = [[0 if v == 3 else v for v in face]
               for face in ([v + 3 for v in face] for face in TETRAHEDRON)]
    return {
        "twin not an involution": (swapped, TwinError),
        "own twin": (_edit(t, 2, h0, h0), TwinError),
        "twin out of range": (_edit(t, 2, h0, 12), DanglingEdgeError),
        "next leaves its face": (_edit(t, 3, h0, second_face[0]), SurfaceError),
        "next out of range": (_edit(t, 3, h0, 40), SurfaceError),
        "next of two edges": (_edit(t, 3, walk0[0], t[3][walk0[1]]), SurfaceError),
        "two open chains in one face": (two_chains, SurfaceError),
        "two cycles in one face": (merged, SurfaceError),
        "non-manifold fan": (_face_table(TETRAHEDRON + pinched), NonManifoldError),
        "disconnected": (_face_table(TETRAHEDRON + shifted), DisconnectedSurfaceError),
        "face ids not contiguous": (
            [t[0], [4 if f == 3 else f for f in t[1]], t[2], t[3]], SurfaceError),
        "vertex ids not contiguous": (
            [[5 if v == 3 else v for v in t[0]], t[1], t[2], t[3]], SurfaceError),
        "face on no side": (
            [t[0], [-1 if f == 0 else f for f in t[1]], t[2], t[3]], DanglingEdgeError),
        "negative origin": (
            [[-1 if v == 0 else v for v in t[0]], t[1], t[2], t[3]], SurfaceError),
        "unequal columns": ([[0, 1], [0, 0], [1, 0], [1]], SurfaceError),
        "empty": ([[], [], [], []], SurfaceError),
    }


@pytest.mark.parametrize("case", sorted(_malformed_tables()))
def test_malformed_tables_raise_as_the_reference(case):
    table, kind = _malformed_tables()[case]
    with pytest.raises(kind) as ours:
        CellularSurface(*table)
    with pytest.raises(kind) as theirs:
        surface_tables_reference(*table)
    assert type(ours.value) is type(theirs.value)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2", None, 2 ** 70])
def test_table_entries_must_be_integers(bad):
    table = _edit(_face_table(TETRAHEDRON), 0, 5, bad)
    with pytest.raises(SurfaceError):
        CellularSurface(*table)
    with pytest.raises(SurfaceError):
        build_surface(faces=[[0, 1, 2], [0, 2, bad], [0, 3, 1], [1, 3, 2]])


def test_integer_arrays_and_numpy_integers_are_ids():
    table = _face_table(TETRAHEDRON)
    a = CellularSurface(*(np.asarray(c, dtype=np.int32) for c in table))
    b = CellularSurface(*([np.int64(x) for x in c] for c in table))
    assert _table(a) == _table(b) == table
    assert not a.oe_origin.flags.writeable


def test_medial_matches_token_walks():
    for s in [x for x in _table_surfaces() if x.is_closed]:
        m, ref = medial(s), medial_reference(s)
        assert _table(m) == _table(ref)
        assert m.oe_edge.tolist() == ref.oe_edge.tolist()


def test_incident_edges_of_face_sets():
    # the edges with a face of the set on either side
    rng = np.random.default_rng(5)
    for s in surface_pool():
        for _ in range(4):
            faces = rng.random(s.n_faces) < 0.4
            edges = s.incident_edges(faces)
            expected = np.unique(s.oe_edge[np.isin(s.oe_left, np.flatnonzero(faces))])
            assert edges.dtype == bool and np.flatnonzero(edges).tolist() == expected.tolist()
        assert s.incident_edges(np.ones(s.n_faces, dtype=bool)).all()
        assert not s.incident_edges(np.zeros(s.n_faces, dtype=bool)).any()
