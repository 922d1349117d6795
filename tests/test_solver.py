import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from circlepatterns import functional, meshes, solver, specfun
from circlepatterns.feasibility import find_coherent_angle_system
from circlepatterns.functional import (EUCLIDEAN, HYPERBOLIC, PatternSpec,
                                       gradient, hessian, value)
from circlepatterns.solver import _FORCING, SolveOptions, _newton_direction, minimize
from circlepatterns.spherical import SphericalProblem, reduce_to_plane
from circlepatterns.surface import build_surface, medial
from helpers import (face_lists, hexagonal_torus, random_feasible_spec, random_spec,
                     renumbered, subdivided_faces, surface_pool)
from oracles import coordinate_descent, coordinate_step, solve_grounded_reference


def torus_spec(geometry=EUCLIDEAN, phi=2 * np.pi):
    s = meshes.torus_grid(4, 4)
    return PatternSpec(s, geometry, np.full(32, np.pi / 2), np.full(16, phi))


def test_symmetric_torus_newton():
    res = minimize(torus_spec())
    assert res.converged
    assert res.grad_norm <= 1e-10
    assert np.abs(res.rho).max() < 1e-12  # normalized constant solution
    assert res.cas_report.is_valid(1e-9)


def test_hyperbolic_torus():
    spec = torus_spec(HYPERBOLIC, phi=2 * np.pi - 0.1)
    res = minimize(spec)
    assert res.converged
    assert np.all(res.rho < 0)
    assert find_coherent_angle_system(spec, res.half_angles).feasible
    assert "_solve_plan" not in vars(spec)     # CG steps and a direct repair
    srf = spec.surface
    face = np.zeros(srf.n_faces)
    np.add.at(face, srf.oe_left, res.half_angles)
    assert np.abs(spec.phi - 2 * face).max() <= 1e-8


def test_random_feasible_instances_converge():
    rng = np.random.default_rng(20)
    pool = surface_pool(max_faces=8)
    for i in range(12):
        surf = pool[rng.integers(len(pool))]
        geometry = EUCLIDEAN if i % 2 == 0 else HYPERBOLIC
        spec = random_feasible_spec(surf, geometry, rng)
        assert find_coherent_angle_system(spec).feasible
        res = minimize(spec)
        assert res.converged, res.message
        srf = spec.surface
        face = np.zeros(srf.n_faces)
        np.add.at(face, srf.oe_left, res.half_angles)
        assert np.abs(spec.phi - 2 * face).max() <= 1e-8
        if geometry == HYPERBOLIC:
            assert np.all(res.rho < 0)
        else:
            assert abs(res.rho.sum()) < 1e-9


@pytest.mark.parametrize("geometry", [EUCLIDEAN, HYPERBOLIC])
@pytest.mark.parametrize("n", [16, 24])
def test_newton_converges_from_random_starts(n, geometry):
    # uniform Euclidean data and random feasible hyperbolic data; from
    # sigma = 3 the first Newton direction changes rho by thousands
    med = medial(meshes.triangulated_torus(n, n))
    rng = np.random.default_rng(n)
    if geometry == EUCLIDEAN:
        spec = PatternSpec(med, EUCLIDEAN, np.full(med.n_edges, np.pi / 2),
                           np.full(med.n_faces, 2 * np.pi))
    else:
        spec = random_feasible_spec(med, HYPERBOLIC, rng)
    reference = minimize(spec)
    assert reference.converged
    for sigma in (1.0, 3.0):
        start = rng.normal(0.0, sigma, med.n_faces)
        result = minimize(spec, SolveOptions(initial_rho=start))
        assert result.converged, (sigma, result.iterations, result.message)
        assert np.abs(result.rho - reference.rho).max() <= 1e-9


def test_thurston_step_restores_symmetry():
    spec = torus_spec()
    rho = np.zeros(16)
    rho[3] = 0.3
    new = coordinate_step(spec, rho, 3)
    # neighbors are at 0; the one-dimensional optimum pulls back towards 0
    assert abs(new) < 0.05


def test_thurston_step_fixed_point():
    spec = torus_spec()
    assert abs(coordinate_step(spec, np.zeros(16), 5)) < 1e-12


def test_thurston_step_strictly_decreases():
    rng = np.random.default_rng(21)
    spec = random_feasible_spec(meshes.cube(), EUCLIDEAN, rng)
    rho = rng.uniform(-0.5, 0.5, 6)
    for f in range(6):
        before = value(spec, rho)
        g_before = gradient(spec, rho)[f]
        rho2 = rho.copy()
        rho2[f] = coordinate_step(spec, rho, f)
        after = value(spec, rho2)
        if abs(g_before) > 1e-12:
            assert after < before
        rho = rho2


def test_methods_agree():
    rng = np.random.default_rng(22)
    pool = surface_pool(max_faces=8)
    for i in range(6):
        surf = pool[rng.integers(len(pool))]
        geometry = EUCLIDEAN if i % 2 == 0 else HYPERBOLIC
        spec = random_feasible_spec(surf, geometry, rng)
        result = minimize(spec)
        assert result.converged
        assert np.abs(result.rho - coordinate_descent(spec)).max() <= 1e-7


def test_initialization_independence():
    rng = np.random.default_rng(23)
    spec = random_feasible_spec(meshes.torus_grid(2, 3), EUCLIDEAN, rng)
    r1 = minimize(spec, SolveOptions(initial_rho=rng.uniform(-2, 2, 6)))
    r2 = minimize(spec, SolveOptions(initial_rho=rng.uniform(-2, 2, 6)))
    assert r1.converged and r2.converged
    assert np.abs(r1.rho - r2.rho).max() <= 1e-8


def test_infeasible_reports_non_convergence():
    # total equality holds but one face demands more angle than its edges
    # can provide, so the functional has no minimum and the radii drift
    s = meshes.torus_grid(2, 2)
    phi = np.full(4, (4 * np.pi - 1.0) / 3.0)
    phi[0] = 4 * np.pi + 1.0
    spec = PatternSpec(s, EUCLIDEAN, np.full(8, np.pi / 2), phi)
    assert not find_coherent_angle_system(spec).feasible
    res = minimize(spec, SolveOptions(max_iter=60))
    assert not res.converged
    assert res.message
    # a failed total equality leaves a constant gradient, which no step
    # on the zero-sum subspace lowers: the solver stops at once
    res = minimize(torus_spec(phi=2 * np.pi + 0.1))
    assert (res.converged, res.iterations, res.message) == (False, 0, "no descent direction")


def test_solve_options_validation():
    with pytest.raises(ValueError, match="max_iter"):
        SolveOptions(max_iter=None)
    with pytest.raises(ValueError):
        SolveOptions(grad_tol=0.0)
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveOptions(grad_tol=tol)
    with pytest.raises(ValueError, match="max_iter"):
        SolveOptions(max_iter=-3)
    for tol in ("1e-8", None, True, [1e-8]):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveOptions(grad_tol=tol)
    for max_iter in (2.5, 3.0, "3", True, np.float64(2.0)):
        with pytest.raises(ValueError, match="max_iter"):
            SolveOptions(max_iter=max_iter)
    assert SolveOptions(max_iter=0).max_iter == 0
    assert SolveOptions(max_iter=np.int64(4), grad_tol=np.float32(1e-6)).max_iter == 4
    assert SolveOptions(grad_tol=1).grad_tol == 1


def test_newton_monotone_descent():
    rng = np.random.default_rng(24)
    spec = random_feasible_spec(meshes.octahedron(), EUCLIDEAN, rng)
    rho = rng.uniform(-1, 1, 8)
    rho -= rho.mean()
    values = [value(spec, rho)]
    for _ in range(8):
        g = gradient(spec, rho)
        if np.abs(g).max() < 1e-12:
            break
        d = _newton_direction(spec, rho, g)
        step = 1.0
        while value(spec, rho + step * d) > values[-1] + 1e-14 * abs(values[-1]):
            step *= 0.5
        rho = rho + step * d
        rho -= rho.mean()
        values.append(value(spec, rho))
    drops = np.diff(values)
    assert np.all(drops <= 1e-12)


def test_newton_direction_solves_the_newton_system():
    # arbitrary data: the Euclidean gradient need not sum to zero, and the
    # direction must still be the zero-sum solution of H d = -(g - mean g).
    # The hyperbolic direction is inexact: a downhill d with
    # |H d + g| <= _FORCING |g|; on the medial torus CG stops short of exact
    rng = np.random.default_rng(25)
    large = medial(meshes.triangulated_torus(6, 6))
    for surf in surface_pool(max_faces=9) + [large]:
        for geometry in (EUCLIDEAN, HYPERBOLIC):
            spec = random_spec(surf, geometry, rng)
            rho = rng.uniform(-2.0, -0.2, surf.n_faces)
            g = gradient(spec, rho)
            d = _newton_direction(spec, rho, g)
            H = hessian(spec, rho)
            if geometry == EUCLIDEAN:
                residual = np.abs(H @ d + (g - g.mean())).max()
                assert residual <= 1e-10 * max(1.0, np.abs(g).max())
                assert abs(d.sum()) <= 1e-12 * max(1.0, np.abs(d).max()) * surf.n_faces
            else:
                residual = np.linalg.norm(H @ d + g)
                assert residual <= _FORCING * np.linalg.norm(g)
                assert g @ d < 0.0
                if surf is large:
                    assert residual > 1e-3 * _FORCING * np.linalg.norm(g)


def _bits(values):
    # array_equal on the bits also compares the sign of zero
    return np.asarray(values, dtype=float).view(np.int64)


def test_newton_direction_is_the_minimum_degree_solve_bit_for_bit():
    # the order the pattern keeps, laid out on the columns, against the
    # grounded system ordered anew on every call
    rng = np.random.default_rng(31)
    surfaces = surface_pool() + [medial(meshes.triangulated_torus(n, n)) for n in (3, 4, 8)]
    # renumbered tori, where SuperLU's default mode would order the columns otherwise
    surfaces += [renumbered(medial(meshes.triangulated_torus(n, n)), rng) for n in (8, 16)]
    assert any(s.n_faces == 1 for s in surfaces)
    for surf in surfaces:
        spec = random_feasible_spec(surf, EUCLIDEAN, rng)
        for scale in (0.1, 1.0, 5.0):
            rho = rng.normal(0.0, scale, surf.n_faces)
            g = gradient(spec, rho)
            expected = solve_grounded_reference(hessian(spec, rho), -(g - g.mean()))
            assert np.array_equal(_bits(_newton_direction(spec, rho, g)), _bits(expected))


def _one_face_over_bound_spec():
    """Euclidean data on medial(3x3) with face 0 1.3 times over its bound."""
    med = medial(meshes.triangulated_torus(3, 3))
    theta_star = np.full(med.n_edges, np.pi / 2)
    bound = np.bincount(med.oe_left, weights=2 * theta_star[med.oe_edge])
    phi = np.empty(med.n_faces)
    phi[0] = 1.3 * bound[0]
    phi[1:] = (2 * theta_star.sum() - phi[0]) / (med.n_faces - 1)
    return PatternSpec(med, EUCLIDEAN, theta_star, phi)


def test_newton_directions_where_pivots_tie_keep_the_reference_bits(monkeypatch):
    # one face 1.3 times over its bound: rho runs off to infinity, the edge
    # weights of a column drift more than 2**53 apart, and a diagonal that
    # rounds to its largest off-diagonal entry ties with it.  SuperLU then
    # prefers the diagonal of the order it computed, which the laid-out
    # system does not know, so such a step is solved in its own order
    spec = _one_face_over_bound_spec()
    steps, orders = [], []

    def record(spec, rho, grad):
        steps.append((rho, grad))
        return newton_direction(spec, rho, grad)

    def splu(*args, permc_spec=None, **kwargs):
        orders.append(permc_spec)
        return factor(*args, permc_spec=permc_spec, **kwargs)

    # the plan's own minimum degree factor is made before the spy, so an
    # order recorded below is a step's fresh one
    spec._solve_plan
    newton_direction, factor = solver._newton_direction, spla.splu
    monkeypatch.setattr(solver, "_newton_direction", record)
    monkeypatch.setattr(spla, "splu", splu)
    assert not minimize(spec, SolveOptions(max_iter=120)).converged
    monkeypatch.undo()
    assert "MMD_AT_PLUS_A" in orders
    for rho, g in steps:
        expected = solve_grounded_reference(hessian(spec, rho), -(g - g.mean()))
        assert np.array_equal(_bits(_newton_direction(spec, rho, g)), _bits(expected))


def _hyperbolic_random_start_specs():
    """The hyperbolic specs and sigma = 3 starts of
    test_newton_converges_from_random_starts."""
    for n in (16, 24):
        med = medial(meshes.triangulated_torus(n, n))
        rng = np.random.default_rng(n)
        spec = random_feasible_spec(med, HYPERBOLIC, rng)
        rng.normal(0.0, 1.0, med.n_faces)
        yield spec, rng.normal(0.0, 3.0, med.n_faces)


def test_hyperbolic_newton_emits_no_warnings():
    # the full hyperbolic set failing by equality, the sigma = 3 starts, and
    # a one-face torus whose data drive rho to -infinity: its two self-edges
    # add and subtract the same weights on the diagonal of H, which is left
    # at a rounding residue of -1.1e-16 once the weight at 2 rho fades
    med = medial(meshes.triangulated_torus(12, 12))
    equality = PatternSpec(med, HYPERBOLIC, np.full(med.n_edges, np.pi / 2),
                           np.full(med.n_faces, 2 * np.pi))
    one_face = PatternSpec(meshes.torus_grid(1, 1), HYPERBOLIC, np.full(2, np.pi / 4),
                           [1.5 * np.pi])
    runs = ([(equality, SolveOptions())]
            + [(spec, SolveOptions(initial_rho=start))
               for spec, start in _hyperbolic_random_start_specs()]
            + [(one_face, SolveOptions(max_iter=40))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [minimize(spec, opts) for spec, opts in runs]
    assert [(r.converged, r.message) for r in results] == (
        [(True, "")] * 3 + [(False, "no convergence in 40 Newton steps")])


def test_euclidean_newton_where_pivots_tie_emits_no_warnings():
    # the drifted steps of the tie data are factorised anew, and nothing
    # they solve warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = minimize(_one_face_over_bound_spec(), SolveOptions(max_iter=120))
    assert (result.converged, result.message) == (False, "no convergence in 120 Newton steps")


@pytest.mark.parametrize("geometry, terms", [(EUCLIDEAN, 1), (HYPERBOLIC, 2)])
def test_minimize_makes_one_edge_pass_per_iterate(monkeypatch, geometry, terms):
    # every S and every gradient that minimize needs come from one edge
    # pass, which makes one im_li2_dx call with theta per unoriented edge
    med = medial(meshes.triangulated_torus(6, 6))
    spec = random_feasible_spec(med, geometry, np.random.default_rng(4))
    spec._clausen_2theta_star      # the spec's one Cl(2 theta*) call
    counts = dict(passes=0, clausen=0, im_li2_dx=0)
    theta_shapes = set()

    def count(owner, attr, key, amount):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += amount(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    def forbidden(*args, **kwargs):
        raise AssertionError("minimize made a second edge pass")

    count(functional, "value_and_phi", "passes", lambda args: 1)
    count(specfun, "clausen", "clausen", lambda args: np.size(args[0]))
    count(specfun, "im_li2_dx", "im_li2_dx",
          lambda args: theta_shapes.add(np.shape(args[1])) or 1)
    monkeypatch.setattr(functional, "gradient", forbidden)
    monkeypatch.setattr(functional, "cas_from_rho", forbidden)
    result = minimize(spec)
    assert result.converged and result.iterations >= 3
    # the start and at least one line-search trial per Newton step
    assert counts["passes"] >= 1 + result.iterations
    assert counts["clausen"] == counts["passes"] * 2 * terms * med.n_edges
    assert counts["im_li2_dx"] == counts["passes"]
    assert theta_shapes == {(med.n_edges,)}


@pytest.mark.parametrize("geometry", [EUCLIDEAN, HYPERBOLIC])
def test_result_reports_the_loop_s_and_an_exact_residual(geometry):
    # the loop's half-angles are phi_of_rho's, which the result reports, and
    # 3e-15, near the rounding floor, is still reached
    rng = np.random.default_rng(41)
    pool = surface_pool(max_faces=12) + [medial(meshes.triangulated_torus(4, 4))]
    for _ in range(10):
        spec = random_feasible_spec(pool[rng.integers(len(pool))], geometry, rng)
        for opts in (SolveOptions(), SolveOptions(grad_tol=3e-15, max_iter=20),
                     SolveOptions(max_iter=1), SolveOptions(max_iter=0)):
            result = minimize(spec, opts)
            assert not result.converged or result.grad_norm <= opts.grad_tol
            assert result.functional_value == value(spec, result.rho)
            if opts.max_iter >= 20:
                assert result.converged, (opts.grad_tol, result.message)


# -- the full-step test of capped Newton directions ------------------------------

def _traced_minimize(spec, full_steps=True):
    """minimize's result, S of every edge pass it made, and the number of
    full steps it tried with the positions of the refused ones among the
    passes.  With full_steps=False every full step is refused unevaluated,
    so the capped search alone runs, as it did before the full-step test."""
    passes, tried, refused = [], [], []
    value_and_phi, full_step = functional.value_and_phi, solver._full_step

    def count(spec, rho):
        result = value_and_phi(spec, rho)
        passes.append(result[0])
        return result

    def spy(*args):
        tried.append(1)
        accepted = full_step(*args) if full_steps else None
        if full_steps and accepted is None:
            refused.append(len(passes) - 1)
        return accepted
    with pytest.MonkeyPatch.context() as m:
        m.setattr(functional, "value_and_phi", count)
        m.setattr(solver, "_full_step", spy)
        result = minimize(spec)
    return result, passes, len(tried), refused


def test_capped_newton_step_is_taken_in_full_where_the_model_holds():
    # pack's reduced plane problem on the 3 times subdivided octahedron: the
    # first direction is about 3.7 long and its full step earns the ratio
    surface = build_surface(subdivided_faces(face_lists(meshes.octahedron()), 3))
    med = medial(surface)
    spec = reduce_to_plane(SphericalProblem(med, np.full(med.n_edges, np.pi / 2), 0)).spec
    result, passes, tried, refused = _traced_minimize(spec)
    assert result.converged and result.iterations == 5
    assert (len(passes), tried, refused) == (6, 1, [])
    capped, _, _, _ = _traced_minimize(spec, full_steps=False)
    assert capped.converged and capped.iterations == 6


def test_refused_full_step_costs_one_pass_and_changes_no_iterate():
    # every hyperbolic first step raises S, so the search runs as before
    spec = random_feasible_spec(medial(meshes.triangulated_torus(8, 8)), HYPERBOLIC,
                                np.random.default_rng(0))
    result, passes, tried, refused = _traced_minimize(spec)
    assert result.converged and tried == len(refused) >= 1
    assert all(passes[i] > passes[0] for i in refused)
    capped, capped_passes, _, _ = _traced_minimize(spec, full_steps=False)
    assert [v for i, v in enumerate(passes) if i not in refused] == capped_passes
    assert result.iterations == capped.iterations
    assert result.rho.tobytes() == capped.rho.tobytes()
    assert result.functional_value == capped.functional_value


def _one_face_spec(n):
    """The single-face violation of the infeasible benchmark inputs: one
    triangle at 3 pi, the others keep the total equality."""
    med = medial(meshes.triangulated_torus(n, n))
    phi = np.full(med.n_faces, 2 * np.pi - np.pi / (med.n_faces - 1))
    phi[np.flatnonzero(np.diff(med.walk_offsets) == 3)[0]] = 3 * np.pi
    return PatternSpec(med, EUCLIDEAN, np.full(med.n_edges, np.pi / 2), phi)


def _equality_spec(n):
    """Hyperbolic data that fail the full-set inequality by equality."""
    med = medial(meshes.triangulated_torus(n, n))
    return PatternSpec(med, HYPERBOLIC, np.full(med.n_edges, np.pi / 2),
                       np.full(med.n_faces, 2 * np.pi))


@pytest.mark.parametrize("make, steps", [(lambda: _one_face_spec(8), 25),
                                         (lambda: _equality_spec(12), 24)],
                         ids=["one_face", "equality"])
def test_directions_within_the_cap_run_as_before(make, steps):
    # the unit steps of a false convergence on infeasible data keep their
    # contraction rate: no direction is capped, and nothing changes
    spec = make()
    result, passes, tried, _ = _traced_minimize(spec)
    assert (result.converged, result.iterations) == (True, steps)
    assert (len(passes), tried) == (steps + 1, 0)
    capped, capped_passes, _, _ = _traced_minimize(spec, full_steps=False)
    assert capped_passes == passes
    assert result.rho.tobytes() == capped.rho.tobytes()


def test_full_steps_stay_within_the_largest_radius():
    # on infeasible data S falls almost linearly along ever longer Newton
    # directions, whose full steps would pass the ratio test: unbounded,
    # rho reaches 1.5e15 in 40 steps here
    surface = meshes.torus_grid(3, 3)
    spec = random_spec(surface, HYPERBOLIC, np.random.default_rng(2))
    spec = PatternSpec(surface, HYPERBOLIC, spec.theta_star, 1.5 * spec.phi)
    result = minimize(spec, SolveOptions(max_iter=40))
    assert not result.converged
    # no step is longer than 8, and the capped steps go 2 at a time
    assert np.abs(result.rho).max() <= 1.0 + 40 * 8.0


def test_tolerance_below_the_rounding_floor_stops_early():
    # from step 7 the residual stays at 2.7e-15 or 3.6e-15 and never
    # reaches 1e-15 in 20 steps; the stop names the step and the floor
    spec = random_feasible_spec(medial(meshes.triangulated_torus(4, 4)), HYPERBOLIC,
                                np.random.default_rng(41))
    result = minimize(spec, SolveOptions(grad_tol=1e-15, max_iter=20))
    assert not result.converged and result.iterations < 20
    assert result.message == (
        f"stopped at Newton step {result.iterations}: residual {result.grad_norm:.3g}, "
        f"no new low in {solver._FLOOR_PATIENCE} steps inside the rounding floor 4.26e-14")
    # a tolerance the floor allows is still met
    assert minimize(spec, SolveOptions(grad_tol=3e-15, max_iter=20)).converged


def test_constant_residual_inside_the_rounding_floor_is_not_blamed_on_the_data():
    # one face with Phi = 2 sum(theta*): the residual is a rounding constant,
    # which no step on the zero-sum subspace lowers, and the total equality holds
    theta_star = [1.5807564793416093, 0.5070830129288783, 1.2528792685202423]
    spec = PatternSpec(hexagonal_torus(), EUCLIDEAN, theta_star, [2 * sum(theta_star)])
    result = minimize(spec, SolveOptions(grad_tol=1e-16))
    assert (result.converged, result.iterations) == (False, 0)
    assert 0.0 < result.grad_norm < 1e-15
    assert result.message == (
        f"stopped at Newton step 0: residual {result.grad_norm:.3g}, the same on every "
        f"face, inside the rounding floor 4.26e-14")
    assert minimize(spec, SolveOptions(grad_tol=1e-14)).converged
