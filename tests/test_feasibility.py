import numpy as np
import pytest

from circlepatterns import meshes
from circlepatterns.feasibility import (
    EQ_TOL, STRICT_TOL, build_flow_network, find_coherent_angle_system, repair_angles,
    solve_feasible_flow,
)
from circlepatterns.functional import EUCLIDEAN, HYPERBOLIC, PatternSpec, validate_cas
from circlepatterns.solver import SolveOptions, minimize
from circlepatterns.spherical import SphericalProblem, check_sphere_conditions
from circlepatterns.surface import (euler_characteristic, medial, surface_from_walks,
                                   vertex_angle_sums)
from helpers import (cube_cocycle_theta, double_triangle, dual, genus2_octagon,
                     hexagonal_torus, random_feasible_spec, random_flat_theta, random_spec,
                     renumbered, surface_pool)
from oracles import (check_conditions_bruteforce, check_higher_genus_condition,
                     check_rivin_condition, euclidean_box_network, region_decomposition,
                     repair_angles_reference)


def torus_spec(geometry=EUCLIDEAN, phi=2 * np.pi):
    s = meshes.torus_grid(4, 4)
    return PatternSpec(s, geometry, np.full(32, np.pi / 2), np.full(16, phi))


def test_symmetric_torus_euclidean_feasible():
    cert = check_conditions_bruteforce(torus_spec())
    assert cert.feasible
    cert = find_coherent_angle_system(torus_spec())
    assert cert.feasible
    assert validate_cas(torus_spec(), cert.half_angles).is_valid(1e-9)


def test_symmetric_torus_hyperbolic_infeasible_full_set():
    cert = check_conditions_bruteforce(torus_spec(HYPERBOLIC))
    assert not cert.feasible
    assert cert.violating_faces == tuple(range(16))
    assert abs(cert.phi_sum - cert.theta_sum) < 1e-9
    cert = find_coherent_angle_system(torus_spec(HYPERBOLIC))
    assert not cert.feasible


def test_global_equality_violation():
    cert = find_coherent_angle_system(torus_spec(EUCLIDEAN, phi=2 * np.pi + 0.1))
    assert not cert.feasible
    assert cert.kind == "equality"


def test_totals_within_eq_tol_give_a_flow():
    # the Euclidean total equality holds to EQ_TOL only; the network spreads
    # the difference over the faces, so one flow gives a valid CAS
    for surface in (meshes.torus_grid(4, 4), meshes.cube()):
        theta_star = np.full(surface.n_edges, np.pi / 2)
        for rel in (-9e-10, -1e-10, 1e-10, 9e-10):
            phi = np.full(surface.n_faces, 2 * theta_star.sum() / surface.n_faces)
            phi[0] += rel * 2 * theta_star.sum()
            spec = PatternSpec(surface, EUCLIDEAN, theta_star, phi)
            cert = find_coherent_angle_system(spec)
            assert cert.feasible and cert.flow_solves == 1, (surface, rel)
            assert validate_cas(spec, cert.half_angles).is_valid(1e-8)


def _zero_deficit(spec, faces):
    """The demand of a face set less theta* of the edges incident with it,
    -1/2 its margin: the deficit of its nodes in either eps = 0 network."""
    from circlepatterns.feasibility import _half_demands
    srf = spec.surface
    inside = np.isin(np.arange(srf.n_faces), list(faces))
    incident = inside[srf.edge_left] | inside[srf.edge_right]
    return _half_demands(spec)[inside].sum() - spec.theta_star[incident].sum()


def test_network_structure():
    from circlepatterns.feasibility import _deficit
    spec = torus_spec(HYPERBOLIC, phi=2 * np.pi - 0.1)
    eps = 1e-3
    net = build_flow_network(spec, eps)
    F, E = 16, 32
    srf = spec.surface
    assert net.n_nodes == F + E + 1
    # the box form has F + 3E branches: no box-to-edge branch
    assert len(net.tail) == F + 3 * E
    box = net.n_nodes - 1
    assert not np.any((net.tail == box) & (net.head >= F) & (net.head < box))
    box_to_face = (net.tail == box) & (net.head < F)
    assert box_to_face.sum() == F
    assert np.all(net.lower[box_to_face] == 0.5 * spec.phi[net.head[box_to_face]])
    assert np.all(net.upper[box_to_face] == net.lower[box_to_face])
    face_to_edge = net.tail < F
    assert face_to_edge.sum() == 2 * E  # one branch per oriented edge
    assert np.all(net.lower[face_to_edge] == eps)
    assert np.all(np.isinf(net.upper[face_to_edge]))
    # the branch of oriented edge h sits at F + h
    assert np.array_equal(np.flatnonzero(face_to_edge), F + np.arange(2 * E))
    assert np.array_equal(net.tail[F:F + 2 * E], srf.oe_left)
    assert np.array_equal(net.head[F:F + 2 * E], F + srf.oe_edge)
    edge_to_box = (F <= net.tail) & (net.tail < F + E) & (net.head == box)
    assert edge_to_box.sum() == E
    assert np.all(np.abs(net.upper[edge_to_box]
                         - (spec.theta_star[net.tail[edge_to_box] - F] - eps)) < 1e-15)
    assert np.array_equal(net.half_angles(np.arange(len(net.tail), dtype=float)),
                          F + np.arange(2 * E))
    # Euclidean data at a floor eps > 0 get the dual graph: the faces and
    # the box, one branch per edge from its left face to its right face,
    # and one fixed branch per face
    rng = np.random.default_rng(3)
    spec = random_feasible_spec(srf, EUCLIDEAN, rng)
    net = build_flow_network(spec, eps)
    assert (net.n_nodes, len(net.tail)) == (F + 1, E + F)
    assert np.array_equal(net.tail[:E], srf.edge_left)
    assert np.array_equal(net.head[:E], srf.edge_right)
    assert np.all(net.lower[:E] == 0.0)
    assert np.all(net.upper[:E] == spec.theta_star - 2 * eps)
    # b_j: the demand of face j less eps per representative it holds and
    # theta* - eps per edge it lies right of; the fixed branch brings it
    # from the box if b_j >= 0 and returns it otherwise
    D = 0.5 * spec.phi - (0.5 * spec.phi.sum() - spec.theta_star.sum()) / F
    b = np.array([D[j] - eps * np.sum(srf.edge_left == j)
                  - np.sum(spec.theta_star[srf.edge_right == j] - eps) for j in range(F)])
    fixed = slice(E, E + F)
    assert np.allclose(net.lower[fixed], np.abs(b), rtol=0, atol=1e-13)
    assert np.array_equal(net.lower[fixed], net.upper[fixed])
    faces = np.arange(F)
    assert np.any(b >= 0) and np.any(b < 0)
    assert np.array_equal(net.tail[fixed], np.where(b >= 0, F, faces))
    assert np.array_equal(net.head[fixed], np.where(b >= 0, faces, F))
    # the dual flow x_e gives eps + x_e to the representative and
    # theta*_e - eps - x_e to its twin
    x = rng.uniform(0.0, 1.0, len(net.tail))
    phi = net.half_angles(x)
    reps, twins = srf.edge_reps, srf.oe_twin[srf.edge_reps]
    assert np.allclose(phi[reps], eps + x[:E], rtol=0, atol=1e-15)
    assert np.allclose(phi[twins], spec.theta_star - eps - x[:E], rtol=0, atol=1e-15)
    result = solve_feasible_flow(net)
    assert result.flows is not None and result.cut is None
    assert validate_cas(spec, net.half_angles(result.flows)).is_valid(1e-8)
    # the eps = 0 network, whose residual the cut reads from the source, is
    # the dual form for Euclidean data too.  The deficit of a node set,
    # whether it holds the box or not, is the demand of the faces in it
    # less theta* of the edges incident with them: -1/2 their margin, as in
    # the box form, so violating faces lie on the source side of a min cut
    zero = build_flow_network(spec, 0.0)
    assert (zero.n_nodes, len(zero.tail)) == (F + 1, E + F)
    assert np.array_equal(zero.upper[:E], spec.theta_star)
    for _ in range(20):
        inside = rng.random(F + 1) < rng.random()
        assert _deficit(zero, inside) == pytest.approx(
            _zero_deficit(spec, np.flatnonzero(inside[:F])), abs=1e-12)
    # hyperbolic data keep the box form at eps = 0, where a face set with
    # its incident edges has the same deficit
    spec = PatternSpec(srf, HYPERBOLIC, np.full(E, np.pi / 2), rng.uniform(0.5, 6.0, F))
    zero = build_flow_network(spec, 0.0)
    assert (zero.n_nodes, len(zero.tail)) == (F + E + 1, F + 3 * E)
    box_to_face = (zero.tail == zero.n_nodes - 1) & (zero.head < F)
    assert np.all(zero.upper[box_to_face] == zero.lower[box_to_face])
    assert np.all(zero.lower[F:F + 2 * E] == 0.0)
    assert np.all(zero.upper[F + 2 * E:F + 3 * E] == np.pi / 2)
    for _ in range(20):
        faces = np.flatnonzero(rng.random(F) < rng.random())
        edges = np.unique(srf.oe_edge[np.isin(srf.oe_left, faces)])
        inside = np.zeros(zero.n_nodes, dtype=bool)
        inside[faces] = inside[F + edges] = True
        assert _deficit(zero, inside) == pytest.approx(_zero_deficit(spec, faces),
                                                       abs=1e-12)


def _floor_flow_specs():
    """The Euclidean specs of the randomized and near-tight fixtures whose
    totals agree, so that find_coherent_angle_system runs a floor flow."""
    from circlepatterns.feasibility import _equality_certificate
    specs = ([spec for _, _, _, spec in _randomized_fixtures()]
             + [spec for _, _, spec in _near_tight_specs()])
    return [spec for spec in specs
            if not spec.is_hyperbolic and _equality_certificate(spec) is None]


def test_dual_and_box_floor_flows_agree():
    # the dual network and the Euclidean box network describe the same
    # systems: run to completion at the first floor, they agree on
    # feasibility, and a feasible dual flow reads half-angles that validate
    # at 1e-8.  Where the floor flow fails, the eps = 0 cuts of both forms,
    # read the same way from the source side, find the same face set
    from circlepatterns.feasibility import _certificate_from_residual
    feasible = infeasible = subsets = 0
    for spec in _floor_flow_specs():
        eps = _first_floor(spec)
        dual = build_flow_network(spec, eps)
        flows = solve_feasible_flow(dual).flows
        box = solve_feasible_flow(euclidean_box_network(spec, eps)).flows
        assert (flows is None) == (box is None), spec.surface
        if flows is not None:
            assert validate_cas(spec, dual.half_angles(flows)).is_valid(1e-8), spec.surface
            feasible += 1
            continue
        infeasible += 1
        faces = []
        for zero in (build_flow_network(spec, 0.0), euclidean_box_network(spec, 0.0)):
            cert = _certificate_from_residual(spec, solve_feasible_flow(zero))
            faces.append(None if cert is None else cert.violating_faces)
        assert faces[0] == faces[1], spec.surface
        subsets += faces[0] is not None
    assert feasible >= 50 and infeasible >= 50 and subsets >= 50, (feasible, infeasible, subsets)


def one_vertex_surface(genus):
    """One vertex and one face, the walk a0 b0 a0' b0' ... of 2 * genus edges."""
    tokens = []
    for k in range(genus):
        tokens += [(0, f"a{k}", 1), (0, f"b{k}", 1), (0, f"a{k}", -1), (0, f"b{k}", -1)]
    return surface_from_walks([(tokens, True)])


@pytest.mark.parametrize("genus, full_round_bits", [(2, True), (3, False), (5, False)])
@pytest.mark.parametrize("vertex_share", [1 / 12, 11 / 12])
def test_faces_sharing_many_edges(genus, full_round_bits, vertex_share):
    # the medial has two faces, the vertex's and the face's, which share
    # all 4 * genus edges, each a residual arc of the same node pair in the
    # dual form.  Eight fit the max-flow's int32 entry at 28 round bits;
    # genus 3 has twelve and genus 5 twenty, which round with fewer bits
    from circlepatterns.feasibility import _ROUND_BITS, _ResidualNetwork
    surf = medial(one_vertex_surface(genus))
    theta = np.full(surf.n_edges, np.pi / 2)
    phi = 2 * theta.sum() * np.array([vertex_share, 1 - vertex_share])
    spec = PatternSpec(surf, EUCLIDEAN, theta, phi)
    cert = find_coherent_angle_system(spec)
    assert cert.feasible and validate_cas(spec, cert.half_angles).is_valid(1e-8)
    for eps in (_first_floor(spec), 1e-3):
        net = build_flow_network(spec, eps)
        assert net.n_nodes == surf.n_faces + 1
        bits = _ResidualNetwork(net.tail, net.head, net.n_nodes).round_bits
        assert (bits == _ROUND_BITS) == full_round_bits
        assert bits + (4 * genus - 1).bit_length() == 31 or full_round_bits
        result = solve_feasible_flow(net)
        assert validate_cas(spec, net.half_angles(result.flows)).is_valid(1e-8)


def _own_theta_sum(spec, f):
    srf = spec.surface
    return 2.0 * spec.theta_star[np.unique(srf.oe_edge[srf.oe_left == f])].sum()


def _tie_spec(surf, geometry, rng):
    """Data with many subsets failing by equality: theta* on a pi/4 grid,
    Phi on a pi/2 grid, some faces at exactly sum(2 theta*) over their own
    edges, and Euclidean totals rebalanced onto a few faces."""
    theta_star = (np.full(surf.n_edges, np.pi / 2) if rng.random() < 0.5 else
                  rng.choice([np.pi / 4, np.pi / 2, 3 * np.pi / 4], surf.n_edges))
    phi = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0], surf.n_faces) * np.pi
    spec = PatternSpec(surf, geometry, theta_star, phi)
    for f in rng.choice(surf.n_faces, rng.integers(surf.n_faces + 1), replace=False):
        phi[f] = _own_theta_sum(spec, f)
    if geometry == EUCLIDEAN:
        takers = rng.choice(surf.n_faces, rng.integers(1, surf.n_faces + 1), replace=False)
        phi[takers] += (2.0 * theta_star.sum() - phi.sum()) / len(takers)
        if phi.min() <= 0.05:
            return None
    return PatternSpec(surf, geometry, theta_star, phi)


def _randomized_fixtures():
    """80 random or random feasible cases, then 300 with many ties."""
    rng = np.random.default_rng(100)
    small, tie_pool = surface_pool(max_faces=8), surface_pool(max_faces=12)
    for i in range(380):
        pool = small if i < 80 else tie_pool
        surf = pool[rng.integers(len(pool))]
        geometry = EUCLIDEAN if rng.random() < 0.5 else HYPERBOLIC
        if i >= 80:
            spec = _tie_spec(surf, geometry, rng)
            if spec is None:
                continue
        elif rng.random() < 0.5:
            spec = random_feasible_spec(surf, geometry, rng)
        else:
            spec = random_spec(surf, geometry, rng)
        yield i, surf, geometry, spec


def test_flow_agrees_with_bruteforce_randomized():
    outcomes = {"feasible": 0, "subset": 0, "stepped": 0}
    for i, surf, geometry, spec in _randomized_fixtures():
        flow = find_coherent_angle_system(spec)
        brute = check_conditions_bruteforce(spec)
        assert flow.feasible == brute.feasible, (i, surf, geometry)
        if flow.feasible:
            report = validate_cas(spec, flow.half_angles)
            assert report.is_valid(1e-8)
            assert report.min_phi > 0
            outcomes["feasible"] += 1
            # the first floor failed, the cut found nothing, the floor stepped
            outcomes["stepped"] += flow.flow_solves > 2
        elif brute.kind == "equality":
            assert flow.kind == "equality"
        else:
            # every subset violation is certified exactly by the one cut
            assert (flow.kind, flow.flow_solves) == ("subset", 2), (i, surf, geometry)
            faces = list(flow.violating_faces)
            assert faces and faces == sorted(set(faces))
            assert geometry == HYPERBOLIC or len(faces) < surf.n_faces
            edges = np.unique(surf.oe_edge[np.isin(surf.oe_left, faces)])
            assert flow.violating_edges == tuple(edges)
            assert 2.0 * spec.theta_star[edges].sum() - spec.phi[faces].sum() <= STRICT_TOL
            outcomes["subset"] += 1
    assert min(outcomes.values()) >= 1 and outcomes["subset"] >= 100, outcomes


def _near_tight_specs():
    """Random feasible data with one face's Phi moved to within 10**U(-8.7,
    -2) of sum(2 theta*) over its own edges; Euclidean totals are kept by
    spreading the change over the other faces."""
    rng = np.random.default_rng(107)
    pool = surface_pool(max_faces=12)
    for _ in range(400):
        surf = pool[rng.integers(len(pool))]
        geometry = EUCLIDEAN if rng.random() < 0.5 else HYPERBOLIC
        spec = random_feasible_spec(surf, geometry, rng)
        phi = spec.phi.copy()
        f = rng.integers(surf.n_faces)
        tight = _own_theta_sum(spec, f) - 10.0 ** rng.uniform(-8.7, -2)
        if geometry == EUCLIDEAN:
            if surf.n_faces == 1:
                continue
            phi[np.arange(surf.n_faces) != f] -= (tight - phi[f]) / (surf.n_faces - 1)
        phi[f] = tight
        if phi.min() > 0:
            yield surf, geometry, PatternSpec(surf, geometry, spec.theta_star, phi)


def test_near_tight_data_take_at_most_four_flows():
    # a feasible input that misses the first floor pays the eps = 0 cut
    # and one or two steps to the roots of failing cuts
    stepped = infeasible = 0
    for surf, geometry, spec in _near_tight_specs():
        flow = find_coherent_angle_system(spec)
        assert flow.feasible == check_conditions_bruteforce(spec).feasible, (surf, geometry)
        assert flow.flow_solves <= 4 and flow.kind != "numeric", (surf, geometry)
        if flow.feasible:
            report = validate_cas(spec, flow.half_angles)
            assert report.is_valid(1e-8) and report.min_phi > 0
            stepped += flow.flow_solves > 2
        else:
            infeasible += 1
    assert stepped >= 200 and infeasible >= 10, (stepped, infeasible)


@pytest.mark.parametrize("index", [6, 19])
def test_a_complete_floor_flow_is_accepted_on_its_own_angles(monkeypatch, index):
    # the second acceptance rule: the smallest angle is below STRICT_TOL, so
    # the repair refuses every round, yet the floor flow meets its demand
    # and its half-angles, at least eps by construction, validate at 1e-8
    from circlepatterns import feasibility
    _, geometry, spec = list(_near_tight_specs())[index]
    repaired = []

    def spy(spec, phi):
        repaired.append(repair_angles(spec, phi))
        return repaired[-1]
    monkeypatch.setattr(feasibility, "repair_angles", spy)
    cert = find_coherent_angle_system(spec)
    assert cert.feasible and repaired and all(cas is None for cas in repaired)
    report = validate_cas(spec, cert.half_angles)
    assert report.is_valid(1e-8) and 0.0 < report.min_phi <= STRICT_TOL
    if geometry == HYPERBOLIC:
        assert report.min_pair_slack > 0.0


def _first_floor(spec):
    """The floor eps of the first flow of find_coherent_angle_system."""
    max_deg = int(np.diff(spec.surface.walk_offsets).max())
    return min(float(spec.phi.min()) / (4.0 * max_deg), float(spec.theta_star.min()) / 4.0)


def test_stopping_the_first_flow_keeps_every_verdict(monkeypatch):
    # with every flow run to its cut, the decision is the one made before
    # the first floor flow could stop: verdicts, systems and solve counts
    # are unchanged, and infeasible data save the rounds after the stop
    from circlepatterns import feasibility
    solve = feasibility.solve_feasible_flow
    certs = [find_coherent_angle_system(spec) for _, _, spec in _near_tight_specs()]
    monkeypatch.setattr(feasibility, "solve_feasible_flow",
                        lambda net, **how: solve(net, **{**how, "need_cut": True}))
    fewer_rounds = 0
    for cert, (surf, geometry, spec) in zip(certs, _near_tight_specs()):
        whole = find_coherent_angle_system(spec)
        assert _verdict(cert) == _verdict(whole), (surf, geometry)
        assert cert.flow_solves == whole.flow_solves, (surf, geometry)
        if whole.feasible:
            assert np.array_equal(cert.half_angles, whole.half_angles), (surf, geometry)
            assert cert.flow_rounds == whole.flow_rounds, (surf, geometry)
        else:
            assert cert.flow_rounds <= whole.flow_rounds, (surf, geometry)
            fewer_rounds += cert.flow_rounds < whole.flow_rounds
    assert fewer_rounds >= 10, fewer_rounds


def test_first_floor_at_most_strict_tol_reads_the_cut_first():
    # face 0 of a 2x2 torus at Phi = 1e-13 ... 1e-8, the other faces keeping
    # the total: a floor of Phi/16 proves no margin above STRICT_TOL, and a
    # flow there used to be accepted where the brute force finds a face set
    s = meshes.torus_grid(2, 2)
    theta_star = np.full(s.n_edges, np.pi / 2)
    for small in (1e-13, 1e-12, 1e-10, 1e-9, 5e-9, 1e-8):
        phi = np.full(s.n_faces, 2 * np.pi)
        phi[0] = small
        phi[1:] += (2 * np.pi - small) / (s.n_faces - 1)
        spec = PatternSpec(s, EUCLIDEAN, theta_star, phi)
        cert = find_coherent_angle_system(spec)
        want = check_conditions_bruteforce(spec)
        assert cert.feasible == want.feasible, small
        if cert.feasible:
            assert validate_cas(spec, cert.half_angles).is_valid(1e-8)
        else:
            assert cert.kind == "subset" and cert.flow_solves == 1
            assert cert.violating_faces == want.violating_faces == (1, 2, 3)


def test_floor_steps_from_the_cut_of_an_accepted_flow():
    # hyperbolic data with three near-tight faces on a 48-face surface: two
    # of these step to a floor whose flow is accepted at rounding level but
    # leaves a face residual above 1e-8, so the next step needs its cut
    surf = medial(meshes.triangulated_torus(4, 4))
    rng = np.random.default_rng(1)
    for _ in range(60):
        spec = random_feasible_spec(surf, HYPERBOLIC, rng)
        phi = spec.phi.copy()
        for f in rng.choice(surf.n_faces, 3, replace=False):
            phi[f] = _own_theta_sum(spec, f) - 10.0 ** rng.uniform(-9, -2)
        spec = PatternSpec(surf, HYPERBOLIC, spec.theta_star, phi)
        cert = find_coherent_angle_system(spec)
        if cert.feasible:
            assert validate_cas(spec, cert.half_angles).is_valid(1e-8)
        else:
            assert cert.kind == "subset" and cert.flow_solves == 2


def _verdict(cert):
    return cert.feasible, cert.kind, cert.violating_faces, cert.violating_edges


def _assert_certifies(spec, half_angles, where):
    """The CAS validates at 1e-8 with every margin above STRICT_TOL."""
    report = validate_cas(spec, half_angles)
    assert report.is_valid(1e-8) and report.min_phi > STRICT_TOL, where
    if spec.is_hyperbolic:
        assert report.min_pair_slack > STRICT_TOL, where


def test_newton_certificate_never_accepts_infeasible_data():
    # every feasible fixture converges within 7 Newton steps and the
    # infeasible ones that converge take at most 26; the cap keeps the
    # others from running the default 200 steps
    opts = SolveOptions(max_iter=40)
    feasible = certified = refused = 0
    for i, surf, geometry, spec in _randomized_fixtures():
        angles = minimize(spec, opts).half_angles
        flow = find_coherent_angle_system(spec)
        decided = find_coherent_angle_system(spec, angles)
        # a certificate from either path holds a system that validates
        for cert in (flow, decided):
            if cert.feasible:
                _assert_certifies(spec, cert.half_angles, (i, surf, geometry))
        # a certified verdict runs no flow; a refused one leaves it to the flow
        newton = decided.feasible and decided.flow_solves == 0
        if not newton:
            assert _verdict(decided) == _verdict(flow), (i, surf, geometry)
            refused += 1
        if not (flow.feasible and check_conditions_bruteforce(spec).feasible):
            assert not newton, (i, surf, geometry)
            continue
        feasible += 1
        certified += newton
    assert feasible >= 100 and certified >= 0.9 * feasible, (feasible, certified)
    assert refused >= 100, refused


def _full_size_infeasible_specs():
    # one triangle of medial(triangulated_torus(8, 8)) at exactly 3 pi, the
    # sum of 2 theta* over its edges; the others rebalance the total
    med = medial(meshes.triangulated_torus(8, 8))
    n_f = med.n_faces
    triangle = [f for f in range(n_f) if len(med.face_walk(f)) == 3][-1]
    phi = np.full(n_f, 2 * np.pi - np.pi / (n_f - 1))
    phi[triangle] = 3 * np.pi
    yield PatternSpec(med, EUCLIDEAN, np.full(med.n_edges, np.pi / 2), phi)
    # the hyperbolic full set fails by equality
    med = medial(meshes.triangulated_torus(12, 12))
    yield PatternSpec(med, HYPERBOLIC, np.full(med.n_edges, np.pi / 2),
                      np.full(med.n_faces, 2 * np.pi))


def test_stopped_flow_gives_an_exact_cas():
    # any exact CAS proves existence, so the flow stops at the first round
    # whose half-angles repair into one
    rng = np.random.default_rng(61)
    torus = medial(meshes.triangulated_torus(8, 8))
    cases = [(surf, geometry, random_feasible_spec(surf, geometry, rng))
             for surf in surface_pool() + [torus] for geometry in (EUCLIDEAN, HYPERBOLIC)]
    # Euclidean totals 0.5 EQ_TOL apart: zeroing the residuals against Phi
    # would leave 0.5 EQ_TOL sum(Phi), about 5e-7, on one face, so the
    # repair must use the network's demands, which spread the difference
    spec = random_feasible_spec(torus, EUCLIDEAN, rng)
    phi = spec.phi.copy()
    phi[0] += 0.5 * EQ_TOL * phi.sum()
    cases.append((torus, EUCLIDEAN, PatternSpec(torus, EUCLIDEAN, spec.theta_star, phi)))
    for surf, geometry, spec in cases:
        cert = find_coherent_angle_system(spec)
        _assert_certifies(spec, cert.half_angles, (surf, geometry))
        if surf is torus:
            assert (cert.flow_solves, cert.flow_rounds) == (1, 1), geometry


def test_one_round_at_the_top_of_the_ladder():
    # the dual floor flow's first round runs at the largest capacity, about
    # theta*, not at the total demand, so its unit is fine enough that the
    # repair accepts round 1 on 6 912 faces, where the box form took 2
    torus = medial(meshes.triangulated_torus(48, 48))
    spec = random_feasible_spec(torus, EUCLIDEAN, np.random.default_rng(1))
    cert = find_coherent_angle_system(spec)
    _assert_certifies(spec, cert.half_angles, torus)
    assert (cert.flow_solves, cert.flow_rounds) == (1, 1)


def test_repair_never_stops_an_infeasible_flow(monkeypatch):
    from circlepatterns import feasibility
    repair_angles = feasibility.repair_angles
    repaired = []

    def spy(spec, phi):
        repaired.append(repair_angles(spec, phi))
        return repaired[-1]

    monkeypatch.setattr(feasibility, "repair_angles", spy)
    # face 0 of a 2x2 torus 1e-8 inside its inequality: feasible, but the
    # first floor flow fails and the floor steps down
    s = meshes.torus_grid(2, 2)
    phi = np.full(s.n_faces, 2 * np.pi - (2 * np.pi - 1e-8) / (s.n_faces - 1))
    phi[0] = 4 * np.pi - 1e-8
    near_tight = PatternSpec(s, EUCLIDEAN, np.full(s.n_edges, np.pi / 2), phi)
    for spec in (torus_spec(HYPERBOLIC), near_tight):
        repaired.clear()
        cert = find_coherent_angle_system(spec)
        assert _verdict(cert) == _verdict(check_conditions_bruteforce(spec))
        assert repaired
        if cert.feasible:
            # only the round that stopped the last flow was accepted
            assert cert.flow_solves > 2 and cert.half_angles is repaired[-1]
            repaired.pop()
        assert all(cas is None for cas in repaired)
    # the brute force cannot enumerate these 192 faces: the one triangle at
    # exactly sum(2 theta*) is the only face set that fails
    single_face, _ = _full_size_infeasible_specs()
    repaired.clear()
    cert = find_coherent_angle_system(single_face)
    assert (cert.kind, cert.violating_faces) == ("subset", (int(np.argmax(single_face.phi)),))
    assert repaired and all(cas is None for cas in repaired)


def test_newton_certificate_refuses_equality_failures_newton_converges_on():
    # the two full-size inputs of the next test: Newton stops at a finite
    # rho with a gradient below tolerance and angles that validate at 1e-8,
    # but the smallest margin (7.6e-12 and 1.0e-11) is no larger than the
    # face residuals, so no repaired margin stays above STRICT_TOL
    for spec in _full_size_infeasible_specs():
        result = minimize(spec)
        assert result.converged and result.cas_report.is_valid(1e-8)
        assert repair_angles(spec, result.half_angles) is None


def test_certificate_margin_is_compared_with_the_residual():
    spec = torus_spec()
    phi = minimize(spec).half_angles
    repaired = repair_angles(spec, phi)
    assert repaired is not None and np.abs(repaired - phi).max() <= 1e-12
    # the exact angles are pi/4 each; raising one of them by s leaves a
    # face residual of 2 s, which must stay below the smallest angle pi/4
    # before any repair; the repair then keeps every angle near pi/4
    for shift, accepted in ((0.1, True), (0.2, True), (0.39, True), (0.4, False)):
        moved = phi.copy()
        moved[0] += shift
        assert (repair_angles(spec, moved) is not None) == accepted, shift
    # totals 1.6 apart: the repair zeroes the residuals against the
    # network's demands, which spread the difference, so every face keeps
    # a residual of 0.1 against Phi and the system does not validate
    assert repair_angles(torus_spec(phi=2 * np.pi + 0.1), phi) is None
    # hyperbolic: the exact angles are pi/4 - 1/80, with pair slack 1/40;
    # raising one by s leaves its face a residual of 2 s, and the repair
    # takes s/4 from each of the face's four angles, so the slack of the
    # raised angle's edge is 1/40 - 3 s/4, positive below s = 1/30
    spec = torus_spec(HYPERBOLIC, phi=2 * np.pi - 0.1)
    phi = minimize(spec).half_angles
    assert np.allclose(phi, np.pi / 4 - 1 / 80, rtol=0, atol=1e-14)
    for shift, accepted in ((0.005, True), (0.01, True), (0.033, True), (0.034, False)):
        moved = phi.copy()
        moved[0] += shift
        assert (repair_angles(spec, moved) is not None) == accepted, shift
    assert repair_angles(spec, np.full(64, np.nan)) is None


def test_repair_matches_the_incidence_reference_bit_for_bit():
    # the kept unit-weight factor and a = y_left - y_right against B and
    # B B^T built and solved anew, on accepted and refused half-angles
    rng = np.random.default_rng(32)
    surfaces = surface_pool() + [medial(meshes.triangulated_torus(n, n)) for n in (3, 4, 8)]
    # renumbered tori, where SuperLU's default mode would order the columns otherwise
    surfaces += [renumbered(medial(meshes.triangulated_torus(n, n)), rng) for n in (8, 16)]
    assert any(s.n_faces == 1 for s in surfaces)
    outcomes = set()
    for surf in surfaces:
        spec = random_feasible_spec(surf, EUCLIDEAN, rng)
        phi = find_coherent_angle_system(spec).half_angles
        for noise in (1e-12, 1e-6, 1e-3, 0.3):
            moved = phi + rng.normal(0.0, noise, len(phi))
            got, expected = repair_angles(spec, moved), repair_angles_reference(spec, moved)
            assert (got is None) == (expected is None)
            if got is not None:
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_full_size_certificates_from_one_cut(monkeypatch):
    from circlepatterns import feasibility
    solve = feasibility.solve_feasible_flow
    flows = []

    def spy(net, **how):
        flows.append(solve(net, **how))
        return flows[-1]

    monkeypatch.setattr(feasibility, "solve_feasible_flow", spy)
    single_face, equality = _full_size_infeasible_specs()
    certs = []
    # run to their cuts, the first floor flow and the eps = 0 flow take 6
    # integer rounds in all on the one-face data and 8 on the equality data;
    # round 1 of the first flow leaves 0.78 and 226 unmet, against less
    # than 5e-5 and 0.08 that can still be sent, and the flow stops there,
    # so the two flows take 3 rounds (the eps = 0 dual flow 2) and 4
    for spec, rounds_to_cut in ((single_face, 6), (equality, 8)):
        flows.clear()
        certs.append(find_coherent_angle_system(spec))
        cert = certs[-1]
        assert cert.kind == "subset" and cert.flow_solves == len(flows) == 2
        assert flows[0].stopped and flows[0].rounds == 1
        # the verdict reads the eps = 0 residual graph, not a min cut
        assert [flow._cut for flow in flows] == [None, None]
        assert cert.shortfall == flows[0].shortfall
        assert cert.flow_rounds < rounds_to_cut
        if spec is single_face:
            # the triangle fails by equality, a min cut that ties with the
            # empty set, so the eps = 0 dual flow meets its demand (2.3e-13
            # unmet) and the cut is read off its residual graph all the same
            assert flows[1].flows is not None and flows[1].shortfall < 1e-12
            assert cert.flow_rounds == 3
        faces, edges = list(cert.violating_faces), list(cert.violating_edges)
        assert cert.phi_sum == float(spec.phi[faces].sum())
        assert cert.theta_sum == float(2.0 * spec.theta_star[edges].sum())
        assert abs(cert.phi_sum - cert.theta_sum) < 1e-9
    one_face, full_set = certs
    med = single_face.surface
    triangle = int(np.argmax(single_face.phi))
    assert one_face.violating_faces == (triangle,)
    assert one_face.violating_edges == tuple(np.unique(med.oe_edge[med.oe_left == triangle]))
    med = equality.surface
    assert full_set.violating_faces == tuple(range(med.n_faces))
    assert full_set.violating_edges == tuple(range(med.n_edges))


def test_bruteforce_guard():
    s = meshes.torus_grid(5, 5)
    spec = PatternSpec(s, EUCLIDEAN, np.full(50, np.pi / 2),
                       np.full(25, 2 * np.pi))
    with pytest.raises(ValueError):
        check_conditions_bruteforce(spec)


def test_gauss_bonnet_bookkeeping():
    rng = np.random.default_rng(101)
    for surf in surface_pool():
        spec = random_feasible_spec(surf, EUCLIDEAN, rng)
        chi, _ = euler_characteristic(surf)
        theta = np.pi - spec.theta_star
        theta_sums = vertex_angle_sums(surf, theta)
        k_faces = 2 * np.pi - spec.phi  # closed surfaces: all interior
        k_vertices = 2 * np.pi - theta_sums
        assert abs(k_faces.sum() + k_vertices.sum() - 2 * np.pi * chi) < 1e-9


def test_gauss_bonnet_with_boundary():
    from circlepatterns.spherical import SphericalProblem, reduce_to_plane
    red = reduce_to_plane(SphericalProblem(meshes.cube(),
                                           np.full(12, 2 * np.pi / 3), 0))
    s0, spec = red.spec.surface, red.spec
    chi, _ = euler_characteristic(s0)
    theta_sums = vertex_angle_sums(s0, np.pi - spec.theta_star)
    total = (np.sum(np.where(s0.face_boundary, np.pi, 2 * np.pi) - spec.phi)
             + np.sum(np.where(s0.vertex_boundary, np.pi, 2 * np.pi) - theta_sums))
    assert abs(total - 2 * np.pi * chi) < 1e-9


# -- cocycle condition ---------------------------------------------------------

def test_rivin_cube_satisfied():
    verdict = check_rivin_condition(meshes.cube(), np.full(12, 2 * np.pi / 3))
    assert verdict.satisfied


def test_rivin_two_valent_vertex_rejected():
    # a 2-valent vertex cannot carry theta < pi summing to 2*pi
    s = double_triangle()
    with pytest.raises(ValueError, match="vertex"):
        check_rivin_condition(s, np.full(3, 0.9 * np.pi))


def test_rivin_short_cocycle_violation():
    # cube with cheap vertical edges: the equatorial 4-cocycle sums below 2*pi
    s, theta = meshes.cube(), cube_cocycle_theta(0.3)
    assert np.abs(vertex_angle_sums(s, theta) - 2 * np.pi).max() < 1e-12
    verdict = check_rivin_condition(s, theta)
    assert not verdict.satisfied
    assert verdict.theta_sum < 2 * np.pi - 1e-9
    assert len(verdict.violating_edges) == 4


def test_rivin_agrees_with_sphere_conditions_on_cube():
    theta = np.full(12, 2 * np.pi / 3)
    cocycles = check_rivin_condition(meshes.cube(), theta)
    flow = check_sphere_conditions(SphericalProblem(meshes.cube(), theta, 0))
    assert cocycles.satisfied == flow.feasible is True
    # and on the equatorial violation, from every projection vertex
    s, theta = meshes.cube(), cube_cocycle_theta(0.3)
    assert not check_rivin_condition(s, theta).satisfied
    for v in range(s.n_vertices):
        assert not check_sphere_conditions(SphericalProblem(s, theta, v)).feasible


def test_rivin_requires_genus_zero():
    with pytest.raises(ValueError):
        check_rivin_condition(meshes.torus_grid(2, 2), np.full(8, np.pi / 2))


# -- higher genus ---------------------------------------------------------------

def test_higher_genus_torus_grid_satisfied():
    s = meshes.torus_grid(2, 2)
    verdict = check_higher_genus_condition(s, np.full(8, np.pi / 2))
    assert verdict.satisfied


def test_higher_genus_agrees_with_feasibility():
    rng = np.random.default_rng(102)
    for surf in (meshes.torus_grid(1, 1), meshes.torus_grid(1, 2),
                 hexagonal_torus(), meshes.torus_grid(2, 2)):
        for _ in range(6):
            theta = random_flat_theta(surf, rng)
            verdict = check_higher_genus_condition(surf, theta)
            spec = PatternSpec(surf, EUCLIDEAN, np.pi - theta,
                               np.full(surf.n_faces, 2 * np.pi))
            cert = check_conditions_bruteforce(spec)
            assert verdict.satisfied == cert.feasible, (surf, theta)


def test_higher_genus_equality_cut_violated():
    # 2x3 torus with theta = 3pi/4 around one face: cutting out that face's
    # four corners leaves a multi-face disc with boundary sum exactly 2*pi
    s = meshes.torus_grid(2, 3)
    face_edges = np.unique(s.oe_edge[s.oe_left == 0]).tolist()
    theta = np.full(12, np.pi / 2)
    theta[face_edges] = 0.75 * np.pi
    # rebalance the remaining edges so the vertex sums stay at 2*pi
    import scipy.linalg
    free = [e for e in range(12) if e not in face_edges]
    inc = np.zeros((s.n_vertices, len(free)))
    for idx, e in enumerate(free):
        h = s.edge_reps[e]
        inc[s.oe_origin[h], idx] += 1
        inc[s.oe_origin[s.oe_twin[h]], idx] += 1
    rhs = 2 * np.pi - vertex_angle_sums(s, np.where(
        np.isin(np.arange(12), face_edges), theta, 0.0))
    delta, *_ = scipy.linalg.lstsq(inc, rhs)
    theta2 = theta.copy()
    theta2[free] = delta
    assert np.abs(vertex_angle_sums(s, theta2) - 2 * np.pi).max() < 1e-9
    assert theta2.min() > 0 and theta2.max() < np.pi
    verdict = check_higher_genus_condition(s, theta2)
    assert not verdict.satisfied
    spec = PatternSpec(s, EUCLIDEAN, np.pi - theta2, np.full(6, 2 * np.pi))
    assert not check_conditions_bruteforce(spec).feasible


def test_higher_genus_genus_two():
    s = genus2_octagon()
    rng = np.random.default_rng(103)
    for _ in range(5):
        theta = random_flat_theta(s, rng)
        verdict = check_higher_genus_condition(s, theta)
        spec = PatternSpec(s, HYPERBOLIC, np.pi - theta,
                           np.full(1, 2 * np.pi))
        cert = check_conditions_bruteforce(spec)
        assert verdict.satisfied == cert.feasible


def test_higher_genus_requires_flat_vertices():
    s = meshes.torus_grid(2, 2)
    with pytest.raises(ValueError, match="vertex"):
        check_higher_genus_condition(s, np.full(8, 1.0))


# -- region decomposition --------------------------------------------------------

def test_region_decomposition_full_cut():
    s = meshes.torus_grid(2, 2)
    d = dual(s)
    pieces = region_decomposition(d, range(d.n_edges))
    assert all(p.is_disc for p in pieces)
    assert all(p.face_count == 1 for p in pieces)
    assert len(pieces) == d.n_faces


def test_region_decomposition_nonseparating_cycle():
    s = meshes.torus_grid(2, 2)
    d = dual(s)
    # two parallel dual edges between the same pair of dual vertices form a
    # non-separating cycle on the torus
    from collections import defaultdict
    pairs = defaultdict(list)
    h = d.edge_reps
    for e, ends in enumerate(zip(d.oe_origin[h].tolist(), d.oe_origin[d.oe_twin[h]].tolist())):
        pairs[frozenset(ends)].append(e)
    cycle = next(es for k, es in pairs.items() if len(es) == 2 and len(k) == 2)
    pieces = region_decomposition(d, cycle)
    assert len(pieces) == 1
    assert pieces[0].euler_characteristic == 0
    assert pieces[0].h1 == 1
    assert not pieces[0].is_disc


def test_region_decomposition_sphere_cycle_rank():
    rng = np.random.default_rng(104)
    s = meshes.octahedron()
    d = dual(s)
    for _ in range(25):
        k = rng.integers(1, d.n_edges + 1)
        cut = sorted(rng.choice(d.n_edges, size=k, replace=False))
        pieces = region_decomposition(d, cut)
        h = d.edge_reps[cut]
        us, ws = d.oe_origin[h].tolist(), d.oe_origin[d.oe_twin[h]].tolist()
        nodes = set(us) | set(ws)
        # components of the cut graph
        parent = {v: v for v in nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for u, w in zip(us, ws):
            ra, rb = find(u), find(w)
            if ra != rb:
                parent[ra] = rb
        n_comp = len({find(v) for v in nodes})
        cycle_rank = len(cut) - len(nodes) + n_comp
        assert cycle_rank == len(pieces) - 1  # c = r - 1 on the sphere


def test_region_decomposition_identity_random_cuts():
    rng = np.random.default_rng(105)
    for surf in (meshes.torus_grid(2, 2), meshes.torus_grid(2, 3),
                 hexagonal_torus(), genus2_octagon()):
        d = dual(surf)
        for _ in range(25):
            k = int(rng.integers(1, d.n_edges + 1))
            cut = sorted(rng.choice(d.n_edges, size=k, replace=False))
            # the generalized Euler identity is asserted inside
            region_decomposition(d, cut)


def test_region_decomposition_requires_nonempty_cut():
    with pytest.raises(ValueError):
        region_decomposition(dual(meshes.torus_grid(2, 2)), [])


def test_certificate_records_the_flow_search():
    from circlepatterns.cli import _certificate_dict
    spec = torus_spec()
    feasible = find_coherent_angle_system(spec)
    assert feasible.flow_solves == 1
    # the first round's half-angles repair into an exact system, so the
    # flow stops with the demand of that round still unmet
    assert feasible.flow_rounds == 1
    first_floor = min(spec.phi.min() / 16.0, spec.theta_star.min() / 4.0)
    assert 0.0 < feasible.shortfall < first_floor
    # the hyperbolic full-set equality fails at the first floor, and the
    # eps = 0 cut certifies it: two flow solves, no floor step
    spec = torus_spec(HYPERBOLIC)
    infeasible = find_coherent_angle_system(spec)
    assert infeasible.kind == "subset"
    assert infeasible.flow_solves == 2
    assert infeasible.flow_rounds > infeasible.flow_solves
    # the flow at the first floor eps (quad faces: Phi / 16) is short by
    # 4 pi, not by rounding
    first_floor = min(spec.phi.min() / 16.0, spec.theta_star.min() / 4.0)
    assert infeasible.shortfall > 0.5 * first_floor
    equality = find_coherent_angle_system(torus_spec(EUCLIDEAN, phi=2 * np.pi + 0.1))
    assert (equality.flow_solves, equality.flow_rounds) == (0, 0)
    # certified angles are the verdict without a flow
    certified = find_coherent_angle_system(torus_spec(), minimize(torus_spec()).half_angles)
    assert certified.feasible and (certified.flow_solves, certified.flow_rounds) == (0, 0)
    # the stats stay out of the deterministic report
    for cert in (feasible, infeasible):
        assert not {"flow_solves", "flow_rounds", "shortfall"} & set(_certificate_dict(cert))
