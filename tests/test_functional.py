import numpy as np
import pytest

from circlepatterns import meshes, specfun
from circlepatterns.functional import (
    EUCLIDEAN, HYPERBOLIC, CoherentAngleSystem, PatternSpec, cas_from_rho,
    face_residuals, gradient, hessian, phi_of_rho, radii_from_rho, value, value_and_phi,
)
from circlepatterns.surface import medial, surface_from_json_dict
from helpers import fd_gradient, random_feasible_spec, random_spec, surface_pool
from oracles import (InvalidCASError, edge_auxiliaries, hamiltonian_reduced,
                     hessian_coo_reference, rho_from_cas, value_im_li2_sum)

CATALAN = 0.915965594177219015


def symmetric_torus_spec(geometry=EUCLIDEAN, phi=2 * np.pi):
    s = meshes.torus_grid(4, 4)
    return PatternSpec(s, geometry, np.full(32, np.pi / 2), np.full(16, phi))


def test_spec_validation():
    s = meshes.tetrahedron()
    with pytest.raises(ValueError):
        PatternSpec(s, EUCLIDEAN, np.full(6, np.pi), np.full(4, 1.0))
    with pytest.raises(ValueError):
        PatternSpec(s, EUCLIDEAN, np.full(6, 1.0), np.full(4, -1.0))
    with pytest.raises(ValueError):
        PatternSpec(s, "spherical", np.full(6, 1.0), np.full(4, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_angles(bad):
    s = meshes.tetrahedron()
    theta_star = np.full(6, 1.0)
    theta_star[2] = bad
    with pytest.raises(ValueError, match="theta_star"):
        PatternSpec(s, EUCLIDEAN, theta_star, np.full(4, 1.0))
    phi = np.full(4, 1.0)
    phi[1] = bad
    with pytest.raises(ValueError, match="phi"):
        PatternSpec(s, HYPERBOLIC, np.full(6, 1.0), phi)


def test_phi_equal_radii_is_half_theta_star():
    spec = symmetric_torus_spec()
    phi = phi_of_rho(spec, np.zeros(16))
    assert np.abs(phi - np.pi / 4).max() < 1e-15


def test_phi_vanishes_for_shrinking_neighbor():
    s = meshes.torus_grid(2, 2)
    spec = PatternSpec(s, EUCLIDEAN, np.full(8, 1.3), np.full(4, 2 * np.pi))
    rho = np.zeros(4)
    rho[s.oe_right[0]] = -40.0
    if s.oe_left[0] != s.oe_right[0]:
        rho[s.oe_left[0]] = 0.0
        assert phi_of_rho(spec, rho)[0] < 1e-15


def test_euclidean_pair_identity():
    rng = np.random.default_rng(0)
    for surf in surface_pool():
        spec = random_spec(surf, EUCLIDEAN, rng)
        rho = rng.uniform(-3, 3, surf.n_faces)
        phi = phi_of_rho(spec, rho)
        pair = phi[surf.edge_reps] + phi[surf.oe_twin[surf.edge_reps]]
        assert np.abs(pair - spec.theta_star).max() <= 1e-12


def test_phi_monotone_in_radius_ratio():
    xs = np.linspace(-8, 8, 400)
    for theta in (0.4, np.pi / 2, 2.8):
        ys = specfun.im_li2_dx(xs, theta)
        assert np.all(np.diff(ys) > 0)


def test_value_forms_agree():
    rng = np.random.default_rng(1)
    for surf in surface_pool():
        for geometry in (EUCLIDEAN, HYPERBOLIC):
            spec = random_spec(surf, geometry, rng)
            rho = rng.uniform(-2, 1, surf.n_faces)
            a = value(spec, rho)
            b = value_im_li2_sum(spec, rho)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_scale_shift_identity():
    rng = np.random.default_rng(2)
    spec = random_spec(meshes.torus_grid(3, 3), EUCLIDEAN, rng)
    rho = rng.uniform(-1, 1, 9)
    for h in (0.3, -1.7):
        lhs = value(spec, rho + h) - value(spec, rho)
        rhs = h * (spec.phi.sum() - 2 * spec.theta_star.sum())
        assert abs(lhs - rhs) < 1e-10


def test_scale_invariance_at_balanced_data():
    spec = symmetric_torus_spec()
    assert abs(value(spec, np.zeros(16)) - value(spec, np.full(16, 0.7))) < 1e-10


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for surf in surface_pool(max_faces=10):
        for geometry in (EUCLIDEAN, HYPERBOLIC):
            spec = random_spec(surf, geometry, rng)
            rho = rng.uniform(-2, 1, surf.n_faces)
            g = gradient(spec, rho)
            gfd = fd_gradient(lambda r: value(spec, r), rho)
            assert np.abs(g - gfd).max() <= 1e-6 * max(1.0, np.abs(g).max())


def test_gradient_sum_is_constant_euclidean():
    rng = np.random.default_rng(4)
    spec = random_spec(meshes.cube(), EUCLIDEAN, rng)
    expected = spec.phi.sum() - 2 * spec.theta_star.sum()
    for _ in range(5):
        rho = rng.uniform(-2, 2, 6)
        assert abs(gradient(spec, rho).sum() - expected) < 1e-10


def test_hyperbolic_gradient_positive_for_nonnegative_rho():
    rng = np.random.default_rng(5)
    for surf in (meshes.cube(), meshes.torus_grid(2, 2)):
        spec = random_spec(surf, HYPERBOLIC, rng)
        rho = rng.uniform(-2, 0, surf.n_faces)
        f = int(rng.integers(surf.n_faces))
        rho[f] = rng.uniform(0.0, 1.0)
        assert gradient(spec, rho)[f] >= spec.phi[f] - 1e-12


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(6)
    for surf in surface_pool(max_faces=10):
        for geometry in (EUCLIDEAN, HYPERBOLIC):
            spec = random_spec(surf, geometry, rng)
            rho = rng.uniform(-2, 1, surf.n_faces)
            H = hessian(spec, rho)
            v = rng.standard_normal(surf.n_faces)
            hv = H @ v
            step = 1e-5
            fd = (gradient(spec, rho + step * v) - gradient(spec, rho - step * v)) / (2 * step)
            assert np.abs(hv - fd).max() <= 1e-5 * max(1.0, np.abs(hv).max())


def test_hessian_data_are_bit_identical_to_the_coo_assembly():
    # the pattern sums duplicates in scipy's order, also in rows longer
    # than its insertion sort threshold of 16 entries: the hyperbolic rows
    # of the medial torus and the Euclidean row of a 12-gon
    n = 12
    pyramid = surface_from_json_dict(
        {"faces": [list(range(n))[::-1]] + [[i, (i + 1) % n, n] for i in range(n)]})
    surfaces = surface_pool() + [medial(meshes.triangulated_torus(8, 8)), pyramid]
    rng = np.random.default_rng(10)
    for surf in surfaces:
        for geometry in (EUCLIDEAN, HYPERBOLIC):
            spec = random_spec(surf, geometry, rng)
            # the wide start flushes some weights to zero
            for scale in (1.0, 400.0):
                rho = scale * rng.uniform(-2.0, 1.0, surf.n_faces)
                H, ref = hessian(spec, rho), hessian_coo_reference(spec, rho)
                assert np.array_equal(H.indptr, ref.indptr)
                assert np.array_equal(H.indices, ref.indices)
                assert np.array_equal(H.data, ref.data), (surf, geometry, scale)


def test_hessian_kernel_and_definiteness():
    rng = np.random.default_rng(7)
    for surf in (meshes.cube(), meshes.torus_grid(2, 3)):
        spec = random_spec(surf, EUCLIDEAN, rng)
        rho = rng.uniform(-1, 1, surf.n_faces)
        H = hessian(spec, rho)
        ones = np.ones(surf.n_faces)
        assert np.abs(H @ ones).max() < 1e-12
        for _ in range(20):
            v = rng.standard_normal(surf.n_faces)
            v -= v.mean()
            assert v @ (H @ v) > 0
        spec_h = random_spec(surf, HYPERBOLIC, rng)
        Hh = hessian(spec_h, rho)
        for _ in range(20):
            v = rng.standard_normal(surf.n_faces)
            assert v @ (Hh @ v) > 0


def test_edge_auxiliaries_signs():
    rng = np.random.default_rng(8)
    surf = meshes.torus_grid(3, 3)
    spec = random_spec(surf, HYPERBOLIC, rng)
    rho = rng.uniform(-2, -0.2, 9)
    p, s = edge_auxiliaries(spec, rho)
    x = rho[surf.edge_right] - rho[surf.edge_left]
    sig = rho[surf.edge_right] + rho[surf.edge_left]
    assert np.all(np.sign(p) == np.sign(np.round(x, 14)))
    assert np.all(np.abs(p) < spec.theta_star)
    assert np.all(np.sign(s) == np.sign(np.round(sig, 14)))


@pytest.mark.parametrize("geometry", [EUCLIDEAN, HYPERBOLIC])
def test_value_and_phi_matches_value_and_phi_of_rho(geometry):
    # one edge pass gives S and the half-angles of phi_of_rho, bit for bit;
    # at scale 300 some edges have |rho_k - rho_j| and, hyperbolic,
    # -(rho_k + rho_j) up to 600, where y saturates
    srf = medial(meshes.triangulated_torus(8, 8))
    rng = np.random.default_rng(12)
    spec = random_spec(srf, geometry, rng)
    for scale in (0.5, 4.0, 40.0, 300.0):
        rho = rng.uniform(-scale, scale, srf.n_faces)
        S, phi = value_and_phi(spec, rho)
        assert S == value(spec, rho)
        assert np.array_equal(phi, phi_of_rho(spec, rho))
        assert np.array_equal(face_residuals(spec, phi), gradient(spec, rho))
    j, k = srf.edge_left, srf.edge_right
    assert np.abs(rho[k] - rho[j]).max() > 450.0
    if geometry == HYPERBOLIC:
        assert (rho[k] + rho[j]).min() < -450.0


def test_cas_at_symmetric_critical_point():
    spec = symmetric_torus_spec()
    cas, report = cas_from_rho(spec, np.zeros(16))
    assert report.is_valid(1e-9)
    assert np.abs(cas.phi - np.pi / 4).max() < 1e-15


def test_cas_reports_violations_off_critical():
    spec = symmetric_torus_spec()
    rng = np.random.default_rng(9)
    cas, report = cas_from_rho(spec, rng.uniform(-1, 1, 16))
    assert not report.is_valid(1e-9)
    assert report.max_face_residual > 1e-3
    # the pair identity holds even off critical points
    assert report.max_pair_residual < 1e-12


def test_hamiltonian_reduced_symmetric_torus():
    # 64 oriented edges, each contributing Cl(pi/2) + Cl(pi)/2 = Catalan
    spec = symmetric_torus_spec()
    cas, _ = cas_from_rho(spec, np.zeros(16))
    ham = hamiltonian_reduced(spec, cas)
    assert abs(ham - 64 * CATALAN) < 1e-10
    assert abs(ham - value(spec, np.zeros(16))) < 1e-10


def test_hamiltonian_rejects_invalid_cas():
    spec = symmetric_torus_spec()
    bad = CoherentAngleSystem(phi=np.full(64, 0.3))
    with pytest.raises(InvalidCASError):
        hamiltonian_reduced(spec, bad)


def test_rho_from_cas_symmetric():
    spec = symmetric_torus_spec()
    cas, _ = cas_from_rho(spec, np.zeros(16))
    rho, residual = rho_from_cas(spec, cas)
    assert np.abs(rho).max() < 1e-12
    assert residual < 1e-12


def test_rho_from_cas_round_trip_euclidean():
    from circlepatterns.solver import minimize
    rng = np.random.default_rng(10)
    spec = random_feasible_spec(meshes.cube(), EUCLIDEAN, rng)
    res = minimize(spec)
    assert res.converged
    cas, report = cas_from_rho(spec, res.rho)
    assert report.is_valid(1e-8)
    rho, residual = rho_from_cas(spec, cas)
    assert residual < 1e-10
    assert np.abs(rho - res.rho).max() < 1e-10
    assert abs(hamiltonian_reduced(spec, cas) - res.functional_value) < 1e-8


def test_rho_from_cas_round_trip_hyperbolic():
    from circlepatterns.solver import minimize
    rng = np.random.default_rng(11)
    spec = random_feasible_spec(meshes.torus_grid(2, 3), HYPERBOLIC, rng)
    res = minimize(spec)
    assert res.converged
    cas, report = cas_from_rho(spec, res.rho)
    assert report.is_valid(1e-8)
    assert report.min_pair_slack > 0
    rho, residual = rho_from_cas(spec, cas)
    assert residual < 1e-9
    assert np.abs(rho - res.rho).max() < 1e-9
    assert abs(hamiltonian_reduced(spec, cas) - res.functional_value) < 1e-8


def test_rho_from_cas_flags_non_critical_system():
    rng = np.random.default_rng(12)
    spec = random_feasible_spec(meshes.torus_grid(3, 3), EUCLIDEAN, rng)
    from circlepatterns.feasibility import find_coherent_angle_system
    cert = find_coherent_angle_system(spec)
    assert cert.feasible
    # a generic flow solution is a valid angle system but not critical
    _, residual = rho_from_cas(spec, cert.cas)
    assert residual > 1e-6


def test_lower_bound_estimate():
    rng = np.random.default_rng(13)
    from circlepatterns.feasibility import find_coherent_angle_system
    for surf in (meshes.torus_grid(2, 2), meshes.cube()):
        spec = random_feasible_spec(surf, EUCLIDEAN, rng)
        cert = find_coherent_angle_system(spec)
        assert cert.feasible
        min_phi = cert.cas.phi.min()
        for _ in range(20):
            rho = rng.uniform(-3, 3, surf.n_faces)
            rho -= rho.mean()
            assert value(spec, rho) > 2.0 * min_phi * np.abs(rho).max()


def test_radii_conversions():
    assert np.allclose(radii_from_rho(EUCLIDEAN, [0.0, 1.0]), [1.0, np.e])
    r = radii_from_rho(HYPERBOLIC, [-1.0])
    assert abs(np.log(np.tanh(r[0] / 2)) + 1.0) < 1e-12
    with pytest.raises(ValueError):
        radii_from_rho(HYPERBOLIC, [0.1])
