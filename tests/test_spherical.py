import numpy as np
import pytest

from circlepatterns import meshes
from circlepatterns.feasibility import STRICT_TOL
from circlepatterns import feasibility, spherical
from circlepatterns.layout import export_json, export_svg
from circlepatterns.spherical import (
    SphereConditionError, SphericalProblem, check_sphere_conditions, reduce_to_plane,
    solve_sphere, sphere_caps,
)
from circlepatterns.surface import build_surface, medial, vertex_angle_sums
from helpers import (SphericalCircle, cap_contains, circle_to_sphere, edge_cross_ratios,
                     face_lists, pattern_angles, pinched_sphere, random_flat_theta, sphere_cap,
                     sphere_intersection_angle, sphere_point, stereographic,
                     stereographic_inverse, subdivided_faces)
from oracles import (Circle, Line, cap_reference, check_conditions_bruteforce,
                     reduce_to_plane_reference, stereographic_inverse_reference)


def cube_problem(v_inf=7):
    return SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3), v_inf)


def octa_problem(v_inf=4):
    return SphericalProblem(meshes.octahedron(), np.full(12, np.pi / 2), v_inf)


def tetra_problem(v_inf=0):
    return SphericalProblem(meshes.tetrahedron(), np.full(6, 2 * np.pi / 3), v_inf)


def test_problem_validation():
    with pytest.raises(ValueError, match="vertex"):
        SphericalProblem(meshes.cube(), np.full(12, 0.9 * 2 * np.pi / 3), 0)
    with pytest.raises(ValueError):
        SphericalProblem(meshes.torus_grid(2, 2), np.full(8, np.pi / 2), 0)
    with pytest.raises(ValueError):
        SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3), 99)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_theta(bad):
    theta = np.full(12, 2 * np.pi / 3)
    theta[5] = bad
    with pytest.raises(ValueError, match="strictly in"):
        SphericalProblem(meshes.cube(), theta, 0)


def test_reduce_cube():
    red = reduce_to_plane(cube_problem())
    assert not red.elementary
    assert len(red.face_map) == 3
    assert red.surface.n_edges == 3
    assert np.abs(red.spec.phi - 2 * np.pi / 3).max() < 1e-12
    assert red.surface.face_boundary.tolist() == [True] * 3


def test_reduce_octahedron():
    red = reduce_to_plane(octa_problem())
    assert len(red.face_map) == 4
    assert np.abs(red.spec.phi - np.pi).max() < 1e-12
    # one interior vertex (the antipode), four boundary vertices
    assert np.count_nonzero(~red.surface.vertex_boundary) == 1


def test_reduce_tetrahedron_elementary():
    red = reduce_to_plane(tetra_problem())
    assert red.elementary
    assert len(red.removed_faces) == 3


def test_conditions_cube_and_octa():
    assert check_sphere_conditions(cube_problem()).ok
    assert check_sphere_conditions(octa_problem()).ok
    assert check_sphere_conditions(tetra_problem()).ok


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


def assert_certificate_violates(p, cert):
    """The certificate names faces and edges of p, and the subset
    inequality recomputed from p fails on them."""
    s = p.surface
    faces = cert.violating_faces
    assert faces and set(faces) <= set(range(s.n_faces))
    edge = s.oe_edge.tolist()
    incident = sorted({edge[h] for f in faces for h in s.face_walk(f)})
    assert list(cert.violating_edges) == incident
    phi_sum = 2 * np.pi * len(faces)
    theta_sum = 2.0 * p.theta_star[incident].sum()
    assert abs(cert.phi_sum - phi_sum) < 1e-12
    assert abs(cert.theta_sum - theta_sum) < 1e-12
    assert theta_sum - phi_sum <= STRICT_TOL


def test_conditions_detect_short_cocycle():
    # project from a vertex: the cheap equatorial cocycle violates the
    # subset conditions of the reduction
    p = SphericalProblem(meshes.cube(), cube_cocycle_theta(0.3), 0)
    verdict = check_sphere_conditions(p)
    assert not verdict.ok
    # the top square, in the cube's own numbering, not the reduced one
    assert verdict.certificate.violating_faces == (1,)
    assert verdict.certificate.violating_edges == (4, 5, 6, 7)
    assert_certificate_violates(p, verdict.certificate)
    # the reduced solve proves nothing, and the flow's verdict is reported
    with pytest.raises(SphereConditionError, match=verdict.message):
        solve_sphere(p)


def test_refused_certificate_reuses_the_reduction(monkeypatch):
    # the flow decides a refused certificate on the reduction solve_sphere
    # holds, without a second reduction
    reductions, verdicts = [], []
    decide = spherical.find_coherent_angle_system

    def reduce_spy(p):
        reductions.append(p)
        return reduce_to_plane(p)

    def decide_spy(spec, angles=None):
        verdicts.append(decide(spec, angles))
        return verdicts[-1]

    monkeypatch.setattr(feasibility, "repair_angles", lambda spec, phi: None)
    monkeypatch.setattr(spherical, "reduce_to_plane", reduce_spy)
    monkeypatch.setattr(spherical, "find_coherent_angle_system", decide_spy)
    lay = solve_sphere(cube_problem())
    assert len(reductions) == 1 and len(verdicts) == 1
    # the refused certificate left the verdict to the flow, which, with no
    # round repaired either, ran to its end
    assert verdicts[0].feasible and verdicts[0].flow_solves >= 1
    assert np.abs(pattern_angles(cube_problem(), lay) - np.pi / 3).max() <= 1e-7


def test_conditions_agree_with_bruteforce_on_the_reduction():
    rng = np.random.default_rng(42)
    cases = []
    for surface in (meshes.tetrahedron(), meshes.cube(), meshes.octahedron()):
        for _ in range(6):
            cases.append((surface, random_flat_theta(surface, rng, spread=0.9)))
    for vertical in (0.3, 1.0, np.pi / 2, 1.7, 2.5):
        cases.append((meshes.cube(), cube_cocycle_theta(vertical)))
    outcomes = set()
    for surface, theta in cases:
        for v in range(surface.n_vertices):
            p = SphericalProblem(surface, theta, v)
            verdict = check_sphere_conditions(p)
            red = reduce_to_plane(p)
            expected = red.elementary or check_conditions_bruteforce(red.spec).feasible
            assert verdict.ok == expected
            if not verdict.ok:
                assert_certificate_violates(p, verdict.certificate)
            outcomes.add(verdict.ok)
    assert outcomes == {True, False}


def test_disconnecting_reduction_is_a_failing_verdict():
    for isolated in (False, True):
        s = pinched_sphere(isolated)
        theta = random_flat_theta(s, np.random.default_rng(43), spread=0.0)
        p = SphericalProblem(s, theta, 0)
        verdict = check_sphere_conditions(p)
        assert not verdict.ok
        assert "disconnects the dual 1-skeleton" in verdict.message
        with pytest.raises(SphereConditionError, match="disconnects"):
            reduce_to_plane(p)


def test_cube_pattern_angles():
    p = cube_problem()
    lay = solve_sphere(p)
    angles = pattern_angles(p, lay)
    assert np.abs(angles - np.pi / 3).max() <= 1e-7
    assert lay.line_residual <= 1e-8
    # 3 lines and 3 circles in the plane
    radii = lay.planar.radii
    is_line = np.isinf(radii)
    assert is_line.sum() == 3 and len(radii) == 6
    assert np.abs(np.abs(lay.planar.normals[is_line]) - 1.0).max() <= 1e-12
    assert np.all(lay.planar.normals[~is_line] == 0)
    # the three finite circles have equal radii by symmetry
    assert np.ptp(radii[~is_line]) <= 1e-8


def test_octahedron_orthogonal_pattern():
    p = octa_problem()
    lay = solve_sphere(p)
    angles = pattern_angles(p, lay)
    assert np.abs(angles - np.pi / 2).max() <= 1e-7


def test_tetrahedron_elementary_pattern():
    p = tetra_problem()
    lay = solve_sphere(p)
    angles = pattern_angles(p, lay)
    assert np.abs(angles - np.pi / 3).max() <= 1e-7


def test_a_face_bordering_the_remaining_face_twice_leaves_no_theta():
    # face 1 borders face 0, the one face off v_inf = 4, along the edges 3-2
    # and 0-3, so vertex 3 has degree 2 and no theta in (0, pi) sums to 2*pi
    # there; the elementary layout may place each removed face's line once
    s = build_surface(faces=[[0, 1, 2, 3], [0, 3, 2, 4], [2, 1, 4], [1, 0, 4]])
    assert sorted(s.oe_right[s.oe_left == 0].tolist()) == [1, 1, 2, 3]
    with pytest.raises(ValueError, match="vertex 3 sums to"):
        SphericalProblem(s, np.full(s.n_edges, 2 * np.pi / 3), 4)


# (circle, circle, their common points); a circle is (center, radius, normal)
# and a line (point, inf, unit normal)
UNIT = (0j, 1.0, 0j)
INTERSECTIONS = {
    "two points": (UNIT, (1 + 0j, 1.0, 0j),
                   [complex(0.5, np.sqrt(0.75)), complex(0.5, -np.sqrt(0.75))]),
    "tangent outside": (UNIT, (2 + 0j, 1.0, 0j), [1 + 0j, 1 + 0j]),
    "tangent inside": (UNIT, (0.5 + 0j, 0.5, 0j), [1 + 0j, 1 + 0j]),
    "disjoint": (UNIT, (3 + 0j, 1.0, 0j), []),
    "nested": (UNIT, (0.2 + 0j, 0.5, 0j), []),
    "concentric": (UNIT, (0j, 2.0, 0j), []),
    "equal": (UNIT, UNIT, []),
    "crossing lines": ((1j, np.inf, 1j), (1 + 0j, np.inf, -1 + 0j), [1 + 1j]),
    "parallel lines": ((0j, np.inf, 1 + 0j), (2 + 0j, np.inf, -1 + 0j), []),
    "one line twice": ((0j, np.inf, 1j), (1 + 0j, np.inf, 1j), []),
}


@pytest.mark.parametrize("case", sorted(INTERSECTIONS))
def test_generalized_circle_intersections(case):
    a, b, expected = INTERSECTIONS[case]
    points = spherical._intersections(a, b)
    assert len(points) == len(expected)
    assert np.allclose(points, expected, rtol=0.0, atol=1e-15)
    for z in points:
        assert max(spherical._incidence_error(a, z), spherical._incidence_error(b, z)) <= 1e-15


def test_vertex_incidences_on_sphere():
    for p in (cube_problem(), octa_problem(), tetra_problem()):
        lay = solve_sphere(p)
        s = p.surface
        worst = 0.0
        for v in range(s.n_vertices):
            pt = sphere_point(lay, v)
            assert abs(np.linalg.norm(pt) - 1.0) < 1e-12
            for f in s.oe_left[s.fan_edges[s.fan_offsets[v]:s.fan_offsets[v + 1]]]:
                c = sphere_cap(lay, f)
                worst = max(worst, abs(float(c.axis @ pt) - np.cos(c.angular_radius)))
        assert worst <= 1e-8


def test_v_infinity_independence_cross_ratios():
    p1, p2 = cube_problem(7), cube_problem(0)
    cr1 = edge_cross_ratios(p1, solve_sphere(p1))
    cr2 = edge_cross_ratios(p2, solve_sphere(p2))
    assert np.abs(cr1 - cr2).max() <= 1e-6


def test_stereographic_round_trip():
    rng = np.random.default_rng(40)
    worst = 0.0
    for _ in range(200):
        z = complex(*rng.uniform(-4, 4, 2))
        worst = max(worst, abs(stereographic(stereographic_inverse(z)) - z))
    assert worst <= 1e-12
    assert np.allclose(stereographic_inverse(complex(np.inf, np.inf)),
                       [0.0, 0.0, 1.0])


def _reduction_record(run, p):
    try:
        red = run(p)
    except SphereConditionError as exc:
        return str(exc)
    record = [red.elementary, red.removed_faces, red.removed_edges,
              red.dropped_vertices, red.face_map, red.edge_map, red.vertex_map]
    if red.surface is not None:
        t = red.surface
        record += [getattr(t, name).tolist()
                   for name in ("oe_origin", "oe_left", "oe_twin", "oe_next", "oe_edge")]
        record += [red.spec.phi.tobytes(), red.spec.theta_star.tobytes()]
    return record


def test_reduction_matches_the_token_walk_reference():
    octahedron = meshes.octahedron()
    faces = face_lists(octahedron)
    rng = np.random.default_rng(45)
    outcomes = set()
    for s in (meshes.tetrahedron(), meshes.cube(), octahedron, medial(meshes.cube()),
              medial(meshes.tetrahedron()), build_surface(faces=subdivided_faces(faces, 1)),
              pinched_sphere(), pinched_sphere(isolated=True)):
        for spread in (0.0, 0.6):
            theta = random_flat_theta(s, rng, spread=spread)
            for v in range(s.n_vertices):
                p = SphericalProblem(s, theta, v)
                got = _reduction_record(reduce_to_plane, p)
                assert got == _reduction_record(reduce_to_plane_reference, p)
                outcomes.add(got if isinstance(got, str) else got[0])
    # closed and open reductions, an elementary one and a disconnecting one
    assert {True, False} <= outcomes
    assert any(isinstance(o, str) and "disconnects" in o for o in outcomes)


def _generalized_circles(rng, n):
    out = []
    for _ in range(n):
        point = complex(*rng.normal(0.0, rng.choice([1e-3, 1.0, 5.0]), 2))
        if rng.random() < 0.3:
            out.append(Line(point, np.exp(1j * rng.uniform(0, 2 * np.pi))))
        else:
            out.append(Circle(point, float(rng.choice([0.01, 1.0, 20.0]) * rng.uniform(0.1, 1))))
    return out


def _rows(objs):
    """(center, radius, normal) of each generalized circle, a line's point
    as its center and inf as its radius."""
    return [(obj.point, np.inf, obj.normal) if isinstance(obj, Line)
            else (obj.center, obj.radius, 0j) for obj in objs]


def test_caps_match_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(44)
    objs = _generalized_circles(rng, 2000)
    centers, radii, normals = zip(*_rows(objs))
    axes, radii = sphere_caps(np.array(centers, dtype=complex), np.array(radii),
                              np.array(normals, dtype=complex))
    want = [cap_reference(obj) for obj in objs]
    assert np.array_equal(axes, np.array([axis for axis, _ in want]))
    assert radii.tolist() == [r for _, r in want]
    for row, (axis, r) in zip(_rows(objs[:50]), want):
        single = circle_to_sphere(*row)
        assert np.array_equal(single.axis, axis) and single.angular_radius == r
    points = [complex(*rng.normal(0.0, 10.0, 2)) for _ in range(200)]
    points += [complex(np.inf, 0.0), complex(0.0, np.nan)]
    for z in points:
        assert np.array_equal(stereographic_inverse(z), stereographic_inverse_reference(z))


def test_unit_circle_maps_to_equator():
    c = circle_to_sphere(0j, 1.0)
    assert abs(abs(c.axis[2]) - 1.0) < 1e-12
    assert abs(c.angular_radius - np.pi / 2) < 1e-12


def test_lines_map_to_circles_through_pole():
    rng = np.random.default_rng(41)
    for _ in range(10):
        point = complex(*rng.uniform(-2, 2, 2))
        ang = rng.uniform(0, 2 * np.pi)
        c = circle_to_sphere(point, np.inf, np.exp(1j * ang))
        assert cap_contains(c, np.array([0.0, 0.0, 1.0]), tol=1e-9)


def test_intersection_angle_of_great_circles():
    a = SphericalCircle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    b = SphericalCircle(np.array([np.sin(0.4), 0.0, np.cos(0.4)]), np.pi / 2)
    assert abs(sphere_intersection_angle(a, b) - (np.pi - 0.4)) < 1e-12


def test_planar_layout_export():
    p = cube_problem()
    planar = solve_sphere(p).planar
    assert planar.faces.tolist() == list(range(6))
    assert len(planar.kites) == 3
    svg = export_svg(planar)
    assert svg.count("<line") == 3
    assert export_json(planar)
    # elementary case exports too
    pl = solve_sphere(tetra_problem()).planar
    assert pl.faces.tolist() == list(range(4))
    assert np.isinf(pl.radii).sum() == 3
    assert export_svg(pl)


def test_dropped_vertices_reconstructed():
    p = cube_problem()
    lay = solve_sphere(p)
    # dropped vertices carry finite planar positions except v_infinity
    assert set(lay.planar.vertices.tolist()) == set(range(8)) - {p.v_infinity}
    assert np.all(np.isfinite(lay.planar.points))
    assert lay.vertices.tolist() == list(range(8))
    assert np.array_equal(sphere_point(lay, p.v_infinity), [0.0, 0.0, 1.0])
