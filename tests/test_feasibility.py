import numpy as np
import pytest

from circlepatterns import meshes
from circlepatterns.feasibility import (
    build_flow_network, check_conditions_bruteforce,
    check_higher_genus_condition, check_rivin_condition,
    find_coherent_angle_system, region_decomposition, solve_feasible_flow,
)
from circlepatterns.functional import (EUCLIDEAN, HYPERBOLIC, PatternSpec,
                                       validate_cas)
from circlepatterns.surface import dual, euler_characteristic, vertex_angle_sums
from helpers import (random_feasible_spec, random_flat_theta, random_spec,
                     surface_pool)


def torus_spec(geometry=EUCLIDEAN, phi=2 * np.pi):
    s = meshes.torus_grid(4, 4)
    return PatternSpec(s, geometry, np.full(32, np.pi / 2), np.full(16, phi))


def test_symmetric_torus_euclidean_feasible():
    cert = check_conditions_bruteforce(torus_spec())
    assert cert.feasible
    cert = find_coherent_angle_system(torus_spec())
    assert cert.feasible
    assert validate_cas(torus_spec(), cert.cas).is_valid(1e-9)


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


def test_network_structure():
    spec = torus_spec(HYPERBOLIC, phi=2 * np.pi - 0.1)
    eps = 1e-3
    net = build_flow_network(spec, eps)
    F, E = 16, 32
    srf = spec.surface
    assert net.n_nodes == F + E + 1
    box_to_face = (net.tail == net.box) & (net.head < F)
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
    edge_to_box = (F <= net.tail) & (net.tail < F + E) & (net.head == net.box)
    assert edge_to_box.sum() == E
    assert np.all(np.abs(net.upper[edge_to_box]
                         - (spec.theta_star[net.tail[edge_to_box] - F] - eps)) < 1e-15)
    spec_e = torus_spec()
    net_e = build_flow_network(spec_e, eps)
    box_to_face = (net_e.tail == net_e.box) & (net_e.head < F)
    assert np.all(net_e.lower[box_to_face] == 0.5 * spec_e.phi[net_e.head[box_to_face]])
    assert np.all(np.isinf(net_e.upper[box_to_face]))
    flows, cut = solve_feasible_flow(net_e)
    assert flows is not None and cut is None


def test_flow_agrees_with_bruteforce_randomized():
    rng = np.random.default_rng(100)
    pool = surface_pool(max_faces=8)
    for i in range(80):
        surf = pool[rng.integers(len(pool))]
        geometry = EUCLIDEAN if rng.random() < 0.5 else HYPERBOLIC
        if rng.random() < 0.5:
            spec = random_feasible_spec(surf, geometry, rng)
        else:
            spec = random_spec(surf, geometry, rng)
        flow = find_coherent_angle_system(spec)
        brute = check_conditions_bruteforce(spec)
        assert flow.feasible == brute.feasible, (i, surf, geometry)
        if flow.feasible:
            report = validate_cas(spec, flow.cas)
            assert report.is_valid(1e-8)
            assert report.min_phi > 0
        elif flow.kind == "subset":
            faces = list(flow.violating_faces)
            edges = list(flow.violating_edges)
            lhs = spec.phi[faces].sum()
            rhs = 2.0 * spec.theta_star[edges].sum()
            assert lhs >= rhs - 1e-7


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
    s0, spec = red.surface, red.spec
    chi, _ = euler_characteristic(s0)
    theta_sums = vertex_angle_sums(s0, np.pi - spec.theta_star)
    total = 0.0
    for f in range(s0.n_faces):
        total += (np.pi if s0.face_is_boundary(f) else 2 * np.pi) - spec.phi[f]
    for v in range(s0.n_vertices):
        total += (np.pi if s0.vertex_is_boundary(v) else 2 * np.pi) - theta_sums[v]
    assert abs(total - 2 * np.pi * chi) < 1e-9


# -- cocycle condition ---------------------------------------------------------

def test_rivin_cube_satisfied():
    verdict = check_rivin_condition(meshes.cube(), np.full(12, 2 * np.pi / 3))
    assert verdict.satisfied


def test_rivin_two_valent_vertex_rejected():
    # a 2-valent vertex cannot carry theta < pi summing to 2*pi
    s = meshes.double_triangle()
    with pytest.raises(ValueError, match="vertex"):
        check_rivin_condition(s, np.full(3, 0.9 * np.pi))


def test_rivin_short_cocycle_violation():
    # cube with cheap vertical edges: the equatorial 4-cocycle sums below 2*pi
    s = meshes.cube()
    theta = np.empty(12)
    ring = 0.5 * (2 * np.pi - 0.3)
    for e in range(12):
        h = s.edge_rep(e)
        u, w = s.origin(h), s.terminus(h)
        vertical = (u < 4) != (w < 4)
        theta[e] = 0.3 if vertical else ring
    assert np.abs(vertex_angle_sums(s, theta) - 2 * np.pi).max() < 1e-12
    verdict = check_rivin_condition(s, theta)
    assert not verdict.satisfied
    assert verdict.theta_sum < 2 * np.pi - 1e-9
    assert len(verdict.violating_edges) == 4


def test_rivin_delegates_to_flow_for_large_input():
    theta = np.full(12, 2 * np.pi / 3)
    small = check_rivin_condition(meshes.cube(), theta)
    delegated = check_rivin_condition(meshes.cube(), theta, max_edges=4)
    assert small.satisfied == delegated.satisfied is True


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
                 meshes.hexagonal_torus(), meshes.torus_grid(2, 2)):
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
    face_edges = sorted({s.edge_of(h) for h in s.face_walk(0)})
    theta = np.full(12, np.pi / 2)
    theta[face_edges] = 0.75 * np.pi
    # rebalance the remaining edges so the vertex sums stay at 2*pi
    import scipy.linalg
    free = [e for e in range(12) if e not in face_edges]
    inc = np.zeros((s.n_vertices, len(free)))
    for idx, e in enumerate(free):
        h = s.edge_rep(e)
        inc[s.origin(h), idx] += 1
        inc[s.terminus(h), idx] += 1
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
    s = meshes.genus2_octagon()
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
    for e in range(d.n_edges):
        h = d.edge_rep(e)
        pairs[frozenset((d.origin(h), d.terminus(h)))].append(e)
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
        nodes = set()
        for e in cut:
            h = d.edge_rep(e)
            nodes.add(d.origin(h))
            nodes.add(d.terminus(h))
        # components of the cut graph
        parent = {v: v for v in nodes}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for e in cut:
            h = d.edge_rep(e)
            ra, rb = find(d.origin(h)), find(d.terminus(h))
            if ra != rb:
                parent[ra] = rb
        n_comp = len({find(v) for v in nodes})
        cycle_rank = len(cut) - len(nodes) + n_comp
        assert cycle_rank == len(pieces) - 1  # c = r - 1 on the sphere


def test_region_decomposition_identity_random_cuts():
    rng = np.random.default_rng(105)
    for surf in (meshes.torus_grid(2, 2), meshes.torus_grid(2, 3),
                 meshes.hexagonal_torus(), meshes.genus2_octagon()):
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
    feasible = find_coherent_angle_system(torus_spec())
    assert feasible.flow_solves == 1
    assert feasible.flow_rounds >= 1
    assert 0.0 <= feasible.shortfall <= 1e-10 * torus_spec().phi.sum()
    # the hyperbolic full-set equality fails at every eps down to the floor
    spec = torus_spec(HYPERBOLIC)
    infeasible = find_coherent_angle_system(spec)
    eps = min(spec.phi.min() / 16.0, spec.theta_star.min() / 4.0)
    assert infeasible.flow_solves == int(np.floor(np.log2(eps / 1e-12))) + 1
    assert infeasible.flow_rounds > infeasible.flow_solves
    assert infeasible.shortfall > 0.0
    equality = find_coherent_angle_system(torus_spec(EUCLIDEAN, phi=2 * np.pi + 0.1))
    assert (equality.flow_solves, equality.flow_rounds) == (0, 0)
    # the stats stay out of the deterministic report
    for cert in (feasible, infeasible):
        assert not {"flow_solves", "flow_rounds", "shortfall"} & set(_certificate_dict(cert))
