import json
import os
import re
import warnings

import numpy as np
import pytest

from circlepatterns import meshes
from circlepatterns.functional import (EUCLIDEAN, HYPERBOLIC, PatternSpec,
                                       phi_of_rho)
from circlepatterns.layout import (LayoutResult, NotDevelopableError, _extract_periods,
                                   _geodesic_paths, export_json, export_svg, layout)
from circlepatterns.solver import minimize
from circlepatterns.spherical import SphericalProblem, reduce_to_plane, solve_sphere
from circlepatterns.surface import medial
from helpers import (flagged, hexagonal_torus, layout_scale, random_feasible_spec,
                     random_flat_theta)
from oracles import (develop_scalar, dumps_reference, extract_periods_scalar,
                     hyperbolic_circle_to_euclidean, layout_to_dict_reference,
                     scalar_layout)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def torus_layout():
    s = meshes.torus_grid(4, 4)
    spec = PatternSpec(s, EUCLIDEAN, np.full(32, np.pi / 2), np.full(16, 2 * np.pi))
    res = minimize(spec)
    return spec, res, layout(spec, res.rho)


def disc_spec():
    """Hyperbolic boundary-face pattern on the reduced cube surface."""
    red = reduce_to_plane(SphericalProblem(meshes.cube(),
                                           np.full(12, 2 * np.pi / 3), 7))
    s0 = red.spec.surface
    rng = np.random.default_rng(30)
    theta_star = red.spec.theta_star
    phi_half = rng.uniform(0.1, 0.45, s0.n_oriented_edges) * theta_star[s0.oe_edge]
    face = np.zeros(s0.n_faces)
    np.add.at(face, s0.oe_left, phi_half)
    return PatternSpec(s0, HYPERBOLIC, theta_star, 2 * face)


def empty_layout():
    return LayoutResult(geometry=EUCLIDEAN, faces=np.zeros(0, dtype=int),
                        centers=np.zeros(0, dtype=complex), radii=np.zeros(0),
                        normals=np.zeros(0, dtype=complex), vertices=np.zeros(0, dtype=int),
                        points=np.zeros(0, dtype=complex),
                        kites=np.zeros((0, 4), dtype=complex),
                        kite_edges=np.zeros(0, dtype=int),
                        closure_residual=0.0)


def test_torus_unit_grid():
    spec, res, lay = torus_layout()
    assert lay.closure_residual <= 1e-9
    assert not flagged(lay)
    p1, p2 = lay.periods
    assert abs(abs(p1) - 4 * np.sqrt(2)) < 1e-9
    assert abs(abs(p2) - 4 * np.sqrt(2)) < 1e-9
    assert abs((np.conj(p1) * p2).real) < 1e-9
    assert lay.faces.tolist() == list(range(16))
    assert lay.vertices.tolist() == list(range(16))
    assert np.abs(lay.radii - 1.0).max() < 1e-12
    # every kite is a unit square
    for e, (pu, ck, pw, cj) in zip(lay.kite_edges, lay.kites):
        sides = [abs(ck - pu), abs(pw - ck), abs(cj - pw), abs(pu - cj)]
        assert np.abs(np.array(sides) - 1.0).max() < 1e-12
        assert abs(abs(pw - pu) - np.sqrt(2)) < 1e-12


def test_kite_diagonal_law():
    spec, res, lay = torus_layout()
    # r_j = r_k = 1, theta = pi/2 gives center distance sqrt(2)
    for e, (pu, ck, pw, cj) in zip(lay.kite_edges[:4], lay.kites[:4]):
        assert abs(abs(ck - cj) - np.sqrt(2)) < 1e-12


def test_vertex_and_face_angle_sums():
    spec, res, lay = torus_layout()
    s = spec.surface
    vertex_sums = {}
    face_sums = {}
    origin, terminus = s.oe_origin[s.edge_reps], s.oe_origin[s.oe_twin[s.edge_reps]]
    for e, (pu, ck, pw, cj) in zip(lay.kite_edges, lay.kites):
        for point, vid in ((pu, origin[e]), (pw, terminus[e])):
            ang = abs(np.angle((cj - point) / (ck - point)))
            vertex_sums[vid] = vertex_sums.get(vid, 0.0) + ang
        face_sums[s.edge_left[e]] = face_sums.get(s.edge_left[e], 0.0) + \
            abs(np.angle((pw - cj) / (pu - cj)))
        face_sums[s.edge_right[e]] = face_sums.get(s.edge_right[e], 0.0) + \
            abs(np.angle((pw - ck) / (pu - ck)))
    assert np.abs(np.array(list(vertex_sums.values())) - 2 * np.pi).max() < 1e-9
    assert np.abs(np.array(list(face_sums.values())) - 2 * np.pi).max() < 1e-9


def test_intersection_points_on_both_circles():
    spec, res, lay = torus_layout()
    s = spec.surface
    worst = 0.0
    for e, (pu, ck, pw, cj) in zip(lay.kite_edges, lay.kites):
        rj = lay.radii[s.edge_left[e]]
        rk = lay.radii[s.edge_right[e]]
        for p in (pu, pw):
            worst = max(worst, abs(abs(p - cj) - rj) / rj,
                        abs(abs(p - ck) - rk) / rk)
    assert worst < 1e-9


def test_period_basis_is_canonical():
    # hexagonal lattices, where six shortest vectors tie: the basis must not
    # depend on the order, the signs or the last bits of the mismatches
    rng = np.random.default_rng(31)
    w = np.exp(1j * np.pi / 3)
    for a, turn in ((92.30, 1.0), (1.0, 1.0), (3.7, np.exp(0.4j))):
        u, v = a * turn, a * w * turn
        diffs = [k * u + m * v for k in range(-3, 4) for m in range(-3, 4)]
        bases = []
        for _ in range(12):
            noise = 1e-13 * a * (rng.standard_normal(len(diffs))
                                 + 1j * rng.standard_normal(len(diffs)))
            flips = rng.choice([-1, 1], len(diffs))
            shuffled = [diffs[i] * flips[i] + noise[i]
                        for i in rng.permutation(len(diffs))]
            (p1, p2), residual = _extract_periods(shuffled, 10 * a)
            assert residual < 1e-11 * a
            bases.append((p1, p2))
        # the shortest vector with the largest real part, then the shortest
        # one to its left with the largest real part
        best = max((u * w ** j for j in range(6)), key=lambda z: (round(z.real, 6), z.imag))
        for p1, p2 in bases:
            assert abs(p1 - best) < 1e-9 * a
            assert abs(p2 - best * w) < 1e-9 * a
    # square lattice: (1, 0), then (0, 1)
    square = [complex(k, m) for k in range(-2, 3) for m in range(-2, 3)]
    for _ in range(5):
        (p1, p2), _ = _extract_periods([square[i] * rng.choice([-1, 1])
                                        for i in rng.permutation(len(square))], 10.0)
        assert (p1, p2) == (1, 1j)


def test_extract_periods_matches_scalar_reduction():
    # rank 2, rank 1 (collinear mismatches) and no period above the tolerance
    rng = np.random.default_rng(36)
    v, w = 3.0 * np.exp(0.3j), 2.0 * np.exp(1.4j)
    noise = 1e-12 * rng.standard_normal(40)
    cases = [[k * v + m * w + e for k, m, e in zip(rng.integers(-3, 4, 40),
                                                    rng.integers(-3, 4, 40), noise)],
             [k * v + e for k, e in zip(rng.integers(-3, 4, 40), noise)],
             list(noise + 0j)]
    for diffs in cases:
        periods, residual = _extract_periods(diffs, 10.0)
        want_periods, want_residual = extract_periods_scalar(diffs, 10.0)
        assert abs(residual - want_residual) <= 1e-14
        if want_periods is None:
            assert periods is None
        else:
            assert np.abs(np.subtract(periods, want_periods)).max() <= 1e-12


def test_path_independence_up_to_isometry():
    spec, res, lay = torus_layout()
    lay2 = layout(spec, res.rho, root_edge=7)
    k1 = dict(zip(lay.kite_edges, lay.kites))[7]
    k2 = dict(zip(lay2.kite_edges, lay2.kites))[7]
    a = (k2[1] - k2[0]) / (k1[1] - k1[0])
    b = k2[0] - a * k1[0]
    assert abs(abs(a) - 1.0) < 1e-12
    p1, p2 = lay2.periods
    mat = np.linalg.inv(np.array([[p1.real, p2.real], [p1.imag, p2.imag]]))
    worst = 0.0
    for (e, ca), (e2, cb) in zip(zip(lay.kite_edges, lay.kites),
                                 zip(lay2.kite_edges, lay2.kites)):
        for za, zb in zip(ca, cb):
            d = a * za + b - zb
            k = np.round(mat @ np.array([d.real, d.imag]))
            worst = max(worst, abs(d - (k[0] * p1 + k[1] * p2)))
    assert worst <= 1e-7


def test_disc_path_independence():
    red = reduce_to_plane(SphericalProblem(meshes.octahedron(),
                                           np.full(12, np.pi / 2), 4))
    res = minimize(red.spec)
    assert res.converged
    lay = layout(red.spec, res.rho)
    lay2 = layout(red.spec, res.rho, root_edge=red.spec.surface.n_edges - 1)
    k1 = lay.kites[0]
    k2 = dict(zip(lay2.kite_edges, lay2.kites))[lay.kite_edges[0]]
    a = (k2[1] - k2[0]) / (k1[1] - k1[0])
    b = k2[0] - a * k1[0]
    worst = max(abs(a * za + b - zb)
                for (e, ca), (e2, cb) in zip(zip(lay.kite_edges, lay.kites),
                                             zip(lay2.kite_edges, lay2.kites))
                for za, zb in zip(ca, cb))
    assert worst <= 1e-7


def test_hyperbolic_disc_layout():
    spec = disc_spec()
    res = minimize(spec)
    assert res.converged and np.all(res.rho < 0)
    lay = layout(spec, res.rho)
    assert lay.closure_residual <= 1e-7
    # all circles strictly inside the unit disk
    assert np.all(np.abs(lay.centers) + lay.radii < 1.0)
    # each one the Euclidean trace of its hyperbolic circle
    for c, r, hc, hr in zip(lay.centers, lay.radii, lay.hyperbolic_centers,
                            lay.hyperbolic_radii):
        want = hyperbolic_circle_to_euclidean(complex(hc), float(hr))
        assert abs(c - want.center) <= 1e-15 and abs(r - want.radius) <= 1e-15
    # kite sides have the correct hyperbolic lengths
    from oracles import HyperbolicFrame as _HyperbolicFrame
    from circlepatterns.functional import radii_from_rho
    radii = radii_from_rho(HYPERBOLIC, res.rho)
    s = spec.surface
    worst = 0.0
    for e, (pu, ck, pw, cj) in zip(lay.kite_edges, lay.kites):
        for p in (pu, pw):
            worst = max(worst,
                        abs(_HyperbolicFrame.dist(p, cj) - radii[s.edge_left[e]]),
                        abs(_HyperbolicFrame.dist(p, ck) - radii[s.edge_right[e]]))
    assert worst <= 1e-7


def _assert_same_layout(lay, ref):
    """Every placement of the array map is the scalar map's, up to rounding:
    the same spanning tree, so the same fundamental domain."""
    tol = 1e-10 * layout_scale(ref)
    assert list(lay.kite_edges) == list(ref.kite_edges)
    assert np.abs(lay.kites - ref.kites).max() <= tol
    assert lay.vertices.tolist() == sorted(ref.vertex_points)
    assert lay.faces.tolist() == sorted(ref.circles)
    want_points = [ref.vertex_points[v] for v in lay.vertices.tolist()]
    assert np.abs(lay.points - want_points).max(initial=0.0) <= tol
    if lay.hyperbolic_centers is None:
        assert not ref.hyperbolic_circles
    else:
        hyp = [ref.hyperbolic_circles[f] for f in lay.faces.tolist()]
        assert np.abs(lay.hyperbolic_centers - [c for c, _ in hyp]).max() <= tol
        assert lay.hyperbolic_radii.tolist() == pytest.approx([r for _, r in hyp], rel=1e-12)
    circles = [ref.circles[f] for f in lay.faces.tolist()]
    assert np.abs(lay.centers - [c.center for c in circles]).max(initial=0.0) <= tol
    assert lay.radii.tolist() == pytest.approx([c.radius for c in circles], rel=1e-12)
    assert np.all(lay.normals == 0)
    assert abs(lay.closure_residual - ref.closure_residual) <= tol
    assert flagged(lay) == flagged(ref)
    if ref.periods is None:
        assert lay.periods is None
    else:
        assert np.abs(np.subtract(lay.periods, ref.periods)).max() <= tol


def test_array_map_matches_scalar_map_on_random_tori():
    rng = np.random.default_rng(34)
    for s in (medial(meshes.triangulated_torus(3, 3)), medial(meshes.triangulated_torus(3, 4)),
              meshes.torus_grid(4, 5), hexagonal_torus()):
        theta = random_flat_theta(s, rng, spread=0.5)
        spec = PatternSpec(s, EUCLIDEAN, np.pi - theta, np.full(s.n_faces, 2 * np.pi))
        res = minimize(spec)
        assert res.converged
        n = s.n_edges
        for root in sorted({0, n // 3, n - 1, int(rng.integers(n))}):
            lay = layout(spec, res.rho, root_edge=root)
            assert not flagged(lay) and lay.periods is not None
            _assert_same_layout(lay, develop_scalar(spec, res, root_edge=root))


def test_array_map_matches_scalar_map_on_disc_and_plane():
    spec = disc_spec()
    res = minimize(spec)
    red = reduce_to_plane(SphericalProblem(meshes.octahedron(),
                                           np.full(12, np.pi / 2), 4))
    res_red = minimize(red.spec)
    for spec, res in ((spec, res), (red.spec, res_red)):
        for root in (0, spec.surface.n_edges - 1):
            _assert_same_layout(layout(spec, res.rho, root_edge=root),
                                develop_scalar(spec, res, root_edge=root))
    # unsolved radii: both maps flag the same closure defect
    s = meshes.torus_grid(4, 4)
    spec = PatternSpec(s, EUCLIDEAN, np.full(32, np.pi / 2), np.full(16, 2 * np.pi))
    rho = np.random.default_rng(35).uniform(-0.3, 0.3, 16)
    lay = layout(spec, rho)
    assert flagged(lay)
    _assert_same_layout(lay, develop_scalar(spec, rho))


def test_cone_singularities_rejected():
    s = meshes.torus_grid(4, 4)
    phi = np.full(16, 2 * np.pi)
    phi[0] += 0.2
    phi[1] -= 0.2
    spec = PatternSpec(s, EUCLIDEAN, np.full(32, np.pi / 2), phi)
    with pytest.raises(NotDevelopableError):
        layout(spec, np.zeros(16))
    # vertex cones are rejected as well
    rng = np.random.default_rng(31)
    spec2 = random_feasible_spec(s, EUCLIDEAN, rng)
    res = minimize(spec2)
    with pytest.raises(NotDevelopableError):
        layout(spec2, res.rho)


def test_root_edge_out_of_range_rejected():
    spec, res, _ = torus_layout()
    for root in (-1, spec.surface.n_edges):
        with pytest.raises(ValueError, match="root edge"):
            layout(spec, res.rho, root_edge=root)


def test_rho_without_finite_positive_radius_rejected():
    # exp overflows, underflows to 0 or is NaN; artanh(exp(rho)) is infinite
    # once exp(rho) rounds to 1
    spec, res, _ = torus_layout()
    disc = disc_spec()
    disc_rho = minimize(disc).rho
    for spec, rho, bad in ((spec, res.rho, (710.0, -800.0, np.nan, np.inf)),
                           (disc, disc_rho, (-1e-300, -800.0, np.nan))):
        for value in bad:
            moved = rho.copy()
            moved[2] = value
            with pytest.raises(ValueError, match="face 2 has rho"):
                layout(spec, moved)


def test_rho_whose_kites_do_not_develop_rejected():
    # radii e^700 and 1 are finite, but the law of cosines overflows; radii
    # e^-740 and 1 give a kite whose sides round to zero.  The first kite
    # that the development loses is named, without a warning
    s = meshes.torus_grid(4, 4)
    spec = PatternSpec(s, EUCLIDEAN, np.full(s.n_edges, np.pi / 2), np.full(16, 2 * np.pi))
    for value in (700.0, -740.0):
        rho = np.zeros(16)
        rho[5] = value
        for root in (0, 14, 31):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="develops to non-finite corners") as info:
                    layout(spec, rho, root_edge=root)
            named = re.match(r"the kite of edge (\d+) between faces (\d+) and (\d+) ",
                             str(info.value))
            e, j, k = map(int, named.groups())
            assert (s.edge_left[e], s.edge_right[e]) == (j, k) and 5 in (j, k)


def test_closed_sphere_rejected():
    s = meshes.cube()
    spec = PatternSpec(s, EUCLIDEAN, np.full(12, np.pi / 3), np.full(6, 2 * np.pi))
    with pytest.raises(NotDevelopableError):
        layout(spec, np.zeros(6))


def test_export_json_schema():
    spec, res, lay = torus_layout()
    doc = json.loads(export_json(lay, include_kites=True))
    assert {"geometry", "circles", "vertices", "periods",
            "closure_residual", "kites"} <= set(doc)
    assert len(doc["circles"]) == 16
    assert all({"face", "center", "radius"} <= set(c) for c in doc["circles"])
    assert len(doc["kites"]) == 32
    text1 = export_json(lay)
    text2 = export_json(layout(spec, res.rho))
    assert text1 == text2  # deterministic


def test_export_svg_golden_torus():
    spec, res, lay = torus_layout()
    svg = export_svg(lay, include_kites=True)
    assert svg.count('class="face"') == 16
    assert svg.count('class="kite"') == 32
    assert svg.count('class="vertex"') == 16
    assert 'class="periods"' in svg
    with open(os.path.join(GOLDEN, "torus4x4.svg")) as fh:
        assert svg == fh.read()


def test_export_svg_golden_disc():
    # a hyperbolic layout: circles in the disk and kites as geodesic arcs
    spec = disc_spec()
    svg = export_svg(layout(spec, minimize(spec).rho), include_kites=True)
    with open(os.path.join(GOLDEN, "disc_hyperbolic_kites.svg")) as fh:
        assert svg == fh.read()


def test_geodesics_near_a_diameter_are_segments():
    # sides 1e-11 to 1e-8 off a diameter lie on arcs of radius about 1e8 to
    # 1e11, whose text would depend on the last bits of the computed center;
    # within 1e-6 of their chords, they are drawn as segments
    rng = np.random.default_rng(5)
    turn = np.exp(2j * np.pi * rng.random(200))
    z1 = turn * rng.uniform(0.05, 0.95, 200)
    z2 = turn * (-rng.uniform(0.05, 0.95, 200) + 1j * 10.0 ** rng.uniform(-11, -8, 200))
    assert _geodesic_paths(z1, z2) == ["M %.9g %.9g L %.9g %.9g" % (a.real, a.imag,
                                                                   b.real, b.imag)
                                       for a, b in zip(z1, z2)]
    # 1e-4 off, the radius is below 1e5 and the side stays an arc
    assert all(" A " in p for p in _geodesic_paths(z1, turn * (-0.5 + 1e-4j)))


def test_export_json_golden_torus():
    spec, res, lay = torus_layout()
    with open(os.path.join(GOLDEN, "torus4x4.json")) as fh:
        assert export_json(lay, include_kites=True) == fh.read()


def _exported_layouts():
    spec, res, _ = torus_layout()
    for root in (0, 7, 31):
        yield layout(spec, res.rho, root_edge=root)
    rng = np.random.default_rng(37)
    s = medial(meshes.triangulated_torus(3, 4))
    theta = random_flat_theta(s, rng, spread=0.5)
    spec = PatternSpec(s, EUCLIDEAN, np.pi - theta, np.full(s.n_faces, 2 * np.pi))
    res = minimize(spec)
    for root in (0, s.n_edges - 1):
        yield layout(spec, res.rho, root_edge=root)
    spec = disc_spec()
    res = minimize(spec)
    yield layout(spec, res.rho)
    yield layout(spec, res.rho, root_edge=spec.surface.n_edges - 1)
    for problem in (SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3), 7),
                    SphericalProblem(meshes.octahedron(), np.full(12, np.pi / 2), 4),
                    SphericalProblem(meshes.tetrahedron(), np.full(6, 2 * np.pi / 3), 0)):
        yield solve_sphere(problem).planar
    yield empty_layout()


def test_export_json_matches_reference():
    # the row templates write the document the nested-dict reference does,
    # byte for byte: periods, hyperbolic circles, lines, remapped edges
    kinds = set()
    for lay in _exported_layouts():
        for include_kites in (False, True):
            want = dumps_reference(layout_to_dict_reference(scalar_layout(lay), include_kites),
                                   indent=2)
            assert export_json(lay, include_kites=include_kites) == want + "\n"
        kinds |= {"line" if np.isinf(r) else "circle" for r in lay.radii}
        kinds |= {"periods"} if lay.periods is not None else set()
        kinds |= {"hyperbolic"} if lay.hyperbolic_centers is not None else set()
        kinds |= {"remapped"} if list(lay.kite_edges) != list(range(len(lay.kites))) else set()
        kinds |= {"renumbered"} if list(lay.vertices) != list(range(len(lay.vertices))) else set()
    assert kinds == {"circle", "line", "periods", "hyperbolic", "remapped", "renumbered"}


def test_export_json_rejects_non_finite_corners():
    spec, res, lay = torus_layout()
    lay.kites[3, 2] = complex(np.nan, 0.0)
    export_json(lay)            # without kites the corners are not written
    with pytest.raises(ValueError, match="non-finite"):
        export_json(lay, include_kites=True)
    # the SVG rows are filled by the same kernel
    export_svg(lay)
    with pytest.raises(ValueError, match="non-finite"):
        export_svg(lay, include_kites=True)


def test_export_line_circle():
    lay = LayoutResult(
        geometry=EUCLIDEAN, faces=np.array([0, 1]), centers=np.array([0j, 1 + 0j]),
        radii=np.array([1.0, np.inf]), normals=np.array([0j, 1 + 0j]),
        vertices=np.array([0, 1]), points=np.array([1j, -1j]),
        kites=np.zeros((0, 4), dtype=complex), kite_edges=np.zeros(0, dtype=int),
        closure_residual=0.0)
    doc = json.loads(export_json(lay))
    assert doc["circles"][0] == {"face": 0, "center": [0.0, 0.0], "radius": 1.0}
    assert doc["circles"][1] == {"face": 1, "line": {"point": [1.0, 0.0],
                                                     "normal": [1.0, 0.0]}}
    svg = export_svg(lay)
    assert svg.count('<circle class="face"') == 1
    # the line x = 1 is drawn far past the picture on both sides
    assert '<line class="face" data-face="1" x1="1" y1="-4.4" x2="1" y2="4.4"' in svg


def test_export_empty_layout():
    lay = empty_layout()
    svg = export_svg(lay)
    assert svg.startswith("<?xml") and "</svg>" in svg
    assert export_json(lay)


def test_flagged_layout():
    # feeding unsolved radii leaves a closure defect that gets flagged
    s = meshes.torus_grid(4, 4)
    rng = np.random.default_rng(32)
    spec = PatternSpec(s, EUCLIDEAN, np.full(32, np.pi / 2), np.full(16, 2 * np.pi))
    rho = rng.uniform(-0.3, 0.3, 16)
    lay = layout(spec, rho)
    assert flagged(lay)
