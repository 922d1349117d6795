"""The command-line contract: exit codes and deterministic stdout."""

import json
import os
import warnings

import numpy as np
import pytest

from circlepatterns import cli, meshes, solver, specfun
from circlepatterns.feasibility import FeasibilityCertificate, find_coherent_angle_system
from circlepatterns.functional import PatternSpec, radii_from_rho
from circlepatterns.spherical import SphericalProblem, reduce_to_plane
from circlepatterns.surface import medial, surface_from_json_dict, surface_to_json_dict
from helpers import (cube_cocycle_theta, face_lists, genus2_faces, genus2_octagon,
                     pinched_sphere, random_feasible_spec, random_flat_theta,
                     subdivided_faces)
from oracles import (certificate_reference, dumps_reference, pack_report_reference,
                     solve_report_reference)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _write_problem(path, surface, geometry, theta_star, phi):
    path.write_text(json.dumps({
        "mesh": surface_to_json_dict(surface), "geometry": geometry,
        "theta_star": [float(x) for x in theta_star],
        "phi": [float(x) for x in phi]}))
    return str(path)


def _run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def torus_problem(tmp_path):
    s = meshes.torus_grid(2, 2)
    return _write_problem(tmp_path / "torus.json", s, "euclidean",
                          np.full(s.n_edges, np.pi / 2), np.full(s.n_faces, 2 * np.pi))


@pytest.fixture
def single_face_problem(tmp_path):
    # one triangle gets 3*pi, the sum of 2 theta* over its three edges; the
    # other faces give up pi/(F-1) each so that the total equality holds
    med = medial(meshes.triangulated_torus(3, 3))
    n_f = med.n_faces
    triangle = next(f for f in range(n_f) if len(med.face_walk(f)) == 3)
    phi = np.full(n_f, 2 * np.pi - np.pi / (n_f - 1))
    phi[triangle] = 3 * np.pi
    return _write_problem(tmp_path / "single_face.json", med, "euclidean",
                          np.full(med.n_edges, np.pi / 2), phi)


def test_check_feasible_torus(capsys, torus_problem):
    code, out = _run(capsys, "check", torus_problem)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert len(doc["cas"]["phi"]) == 16


def test_check_single_face_violation(capsys, single_face_problem):
    code, out = _run(capsys, "check", single_face_problem)
    assert code == cli.EXIT_INFEASIBLE
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["kind"] == "subset"
    assert len(doc["violating_faces"]) == 1
    assert len(doc["violating_edges"]) == 3
    assert _run(capsys, "check", single_face_problem) == (code, out)


def test_solve_reports_the_check_certificate(capsys, single_face_problem):
    _, checked = _run(capsys, "check", single_face_problem)
    code, out = _run(capsys, "solve", single_face_problem)
    assert code == cli.EXIT_INFEASIBLE
    assert out == checked


def test_solve_of_hyperbolic_equality_reports_the_check_certificate(capsys, tmp_path):
    # the full face set fails by equality, where Newton still reports
    # convergence at a finite rho
    med = medial(meshes.triangulated_torus(4, 4))
    problem = _write_problem(tmp_path / "equality.json", med, "hyperbolic",
                             np.full(med.n_edges, np.pi / 2), np.full(med.n_faces, 2 * np.pi))
    _, checked = _run(capsys, "check", problem)
    code, out = _run(capsys, "solve", problem)
    assert code == cli.EXIT_INFEASIBLE
    assert out == checked
    assert json.loads(out)["violating_faces"] == list(range(med.n_faces))


def test_solve_then_layout(capsys, tmp_path, torus_problem):
    report = str(tmp_path / "report.json")
    code, _ = _run(capsys, "solve", torus_problem, "-o", report)
    assert code == cli.EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["converged"] is True
    svg = tmp_path / "layout.svg"
    code, _ = _run(capsys, "layout", torus_problem, report, "--svg", str(svg))
    assert code == cli.EXIT_OK
    assert "<svg" in svg.read_text()


def test_missing_input_file(capsys, tmp_path):
    code = cli.main(["check", str(tmp_path / "absent.json")])
    assert code == cli.EXIT_INPUT
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--tol", "nan"], ["--tol", "inf"],
                                  ["--max-iter", "-3"]])
def test_solve_rejects_invalid_options(capsys, torus_problem, flag):
    code = cli.main(["solve", torus_problem, *flag])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("options", [{"max_iter": 2.5}, {"max_iter": "3"},
                                     {"max_iter": None}, {"tol": "1e-8"}, {"tol": True}])
def test_solve_rejects_invalid_file_options(capsys, tmp_path, options):
    s = meshes.torus_grid(2, 2)
    path = tmp_path / "options.json"
    path.write_text(json.dumps({
        "mesh": surface_to_json_dict(s), "geometry": "euclidean",
        "theta_star": [np.pi / 2] * s.n_edges, "phi": [2 * np.pi] * s.n_faces,
        "options": options}))
    code = cli.main(["solve", str(path)])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_solve_without_iterations_does_not_converge(capsys, tmp_path):
    rng = np.random.default_rng(5)
    spec = random_feasible_spec(meshes.torus_grid(3, 3), "euclidean", rng)
    problem = _write_problem(tmp_path / "random.json", spec.surface, "euclidean",
                             spec.theta_star, spec.phi)
    code, out = _run(capsys, "solve", problem, "--max-iter", "0")
    assert code == cli.EXIT_NO_CONVERGENCE
    doc = json.loads(out)
    assert doc["converged"] is False and doc["iterations"] == 0


def test_solve_below_the_rounding_floor_does_not_converge(capsys, tmp_path):
    spec = random_feasible_spec(medial(meshes.triangulated_torus(4, 4)), "hyperbolic",
                                np.random.default_rng(41))
    problem = _write_problem(tmp_path / "floor.json", spec.surface, "hyperbolic",
                             spec.theta_star, spec.phi)
    code, out = _run(capsys, "solve", problem, "--tol", "1e-15", "--max-iter", "20")
    assert code == cli.EXIT_NO_CONVERGENCE
    doc = json.loads(out)
    assert doc["converged"] is False and doc["iterations"] < 20
    assert doc["message"].startswith(f"stopped at Newton step {doc['iterations']}: ")


def test_solve_names_a_hyperbolic_radius_beyond_float_resolution(capsys, tmp_path):
    # Phi_0 = 1e-15 asks for a rho_0 just below 0, which rounds to >= 0:
    # check finds the data feasible, and solve names the face, not the data
    med = medial(meshes.triangulated_torus(3, 3))
    phi = np.full(med.n_faces, 2 * np.pi)
    phi[0] = 1e-15
    problem = _write_problem(tmp_path / "tiny_phi.json", med, "hyperbolic",
                             np.full(med.n_edges, np.pi / 2), phi)
    code, out = _run(capsys, "check", problem)
    assert code == cli.EXIT_OK and json.loads(out)["feasible"] is True
    code, out = _run(capsys, "solve", problem)
    assert code == cli.EXIT_NO_CONVERGENCE
    doc = json.loads(out)
    assert doc["converged"] is False and doc["radii"] is None
    assert doc["rho"][0] >= 0.0 and doc["grad_norm"] <= 1e-10
    assert doc["message"] == (f"face 0 has rho = {doc['rho'][0]:.3g} >= 0 with Phi = 1e-15: "
                              "its hyperbolic radius is beyond float resolution")


def test_solve_report_flag_prints_the_file_it_writes(capsys, tmp_path, torus_problem):
    report = tmp_path / "report.json"
    code, out = _run(capsys, "solve", torus_problem, "--report", "-o", str(report))
    assert code == cli.EXIT_OK
    assert json.loads(out)["converged"] is True
    assert out.encode() == report.read_bytes()


@pytest.mark.parametrize("argv", [["solve", "x.json", "--tol", "abc"], ["pack"],
                                  ["unfold", "x.json"],
                                  ["solve", "x.json", "--method", "newton"]])
def test_usage_errors_are_input_errors(capsys, argv):
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cannot read" not in err    # refused before the file is opened


def test_one_parser_serves_every_call(capsys, monkeypatch, torus_problem):
    built, tols = [], []
    init, minimize = cli._Parser.__init__, cli.solver.minimize

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_minimize(spec, opts=None):
        tols.append(opts.grad_tol)
        return minimize(spec, opts)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    monkeypatch.setattr(cli.solver, "minimize", recording_minimize)
    cli._build_parser.cache_clear()
    assert _run(capsys, "check", torus_problem)[0] == cli.EXIT_OK
    assert len(built) == 7    # the main parser and one per subcommand
    assert _run(capsys, "solve", torus_problem, "--tol", "1e-3")[0] == cli.EXIT_OK
    assert cli.main(["solve", torus_problem, "--method", "newton"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert _run(capsys, "solve", torus_problem)[0] == cli.EXIT_OK
    assert len(built) == 7
    assert tols == [1e-3, solver.SolveOptions().grad_tol]


@pytest.mark.parametrize("argv, names", [
    (["--help"], ["check", "solve", "layout", "sphere", "pack", "specfun"]),
    (["solve", "--help"], ["--geometry", "--tol", "--max-iter", "--report", "--output"])])
def test_help_exits_zero(capsys, torus_problem, argv, names):
    with pytest.raises(SystemExit) as exited:
        cli.main(argv)
    assert exited.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: circlepatterns") and err == ""
    assert all(name in out for name in names)
    code, out = _run(capsys, "check", torus_problem)
    assert code == cli.EXIT_OK and json.loads(out)["feasible"] is True


def test_solve_geometry_flag_overrides_the_file(capsys, tmp_path):
    spec = random_feasible_spec(medial(meshes.triangulated_torus(4, 4)), "hyperbolic",
                                np.random.default_rng(12))
    euclidean, hyperbolic = (
        _write_problem(tmp_path / f"{geometry}.json", spec.surface, geometry,
                       spec.theta_star, spec.phi) for geometry in ("euclidean", "hyperbolic"))
    code, out = _run(capsys, "solve", euclidean, "--geometry", "hyperbolic")
    assert code == cli.EXIT_OK
    assert json.loads(out)["geometry"] == "hyperbolic"
    assert (code, out) == _run(capsys, "solve", hyperbolic)


def test_solve_keeps_the_mesh_edge_numbering(capsys, tmp_path):
    # the reduction numbers its edges in the order of the cube's, not by
    # first appearance
    s = _open_disc(2)
    rng = np.random.default_rng(30)
    theta_star = rng.uniform(0.3, np.pi - 0.05, s.n_edges)
    phi = rng.uniform(0.1, 0.45, s.n_oriented_edges) * theta_star[s.oe_edge]
    phi = 2 * np.bincount(s.oe_left, weights=phi, minlength=s.n_faces)
    problem = _write_problem(tmp_path / "disc.json", s, "hyperbolic", theta_star, phi)
    code, out = _run(capsys, "solve", problem)
    assert code == cli.EXIT_OK
    spec = PatternSpec(s, "hyperbolic", theta_star, phi)
    assert json.loads(out)["rho"] == solver.minimize(spec).rho.tolist()


def test_layout_of_closed_hyperbolic_problem(capsys, tmp_path):
    s = genus2_octagon()
    problem = _write_problem(tmp_path / "genus2.json", s, "hyperbolic",
                             np.full(s.n_edges, 0.75 * np.pi), np.full(s.n_faces, 2 * np.pi))
    report = str(tmp_path / "report.json")
    assert _run(capsys, "solve", problem, "-o", report)[0] == cli.EXIT_OK
    code = cli.main(["layout", problem, report])
    assert code == cli.EXIT_NOT_DEVELOPABLE
    assert "not developable" in capsys.readouterr().err


def test_layout_svg_is_repeatable(capsys, tmp_path, torus_problem):
    report = str(tmp_path / "report.json")
    _run(capsys, "solve", torus_problem, "-o", report)
    svgs = []
    for name in ("first.svg", "second.svg"):
        path = tmp_path / name
        assert _run(capsys, "layout", torus_problem, report, "--svg", str(path),
                    "--kites")[0] == cli.EXIT_OK
        svgs.append(path.read_bytes())
    assert svgs[0] == svgs[1]


def test_layout_without_output_flags_prints_the_json_file(capsys, tmp_path, torus_problem):
    report = str(tmp_path / "report.json")
    _run(capsys, "solve", torus_problem, "-o", report)
    path = tmp_path / "layout.json"
    assert _run(capsys, "layout", torus_problem, report, "--kites",
                "--json", str(path)) == (cli.EXIT_OK, "")
    assert _run(capsys, "layout", torus_problem, report, "--kites") == \
        (cli.EXIT_OK, path.read_text())


@pytest.mark.parametrize("root_edge", ["-1", "8"])
def test_layout_rejects_a_root_edge_out_of_range(capsys, tmp_path, torus_problem, root_edge):
    report = str(tmp_path / "report.json")
    _run(capsys, "solve", torus_problem, "-o", report)
    code = cli.main(["layout", torus_problem, report, "--root-edge", root_edge])
    out, err = capsys.readouterr()
    assert (code, out) == (cli.EXIT_INPUT, "")
    assert err == f"error: --root-edge {root_edge} is not in [0, 8)\n"


def test_problem_without_phi_on_a_closed_mesh_means_two_pi(capsys, tmp_path):
    doc = _torus_doc(n=4)
    assert doc["phi"] == [2 * np.pi] * 16
    explicit, implicit = tmp_path / "explicit.json", tmp_path / "implicit.json"
    explicit.write_text(json.dumps(doc))
    del doc["phi"]
    implicit.write_text(json.dumps(doc))
    for command in ("check", "solve"):
        code, out = _run(capsys, command, str(explicit))
        assert code == cli.EXIT_OK
        assert _run(capsys, command, str(implicit)) == (code, out)


def test_specfun_prints_fifteen_digits(capsys):
    # Cl(pi/2) is Catalan's constant 0.91596559417721901...
    assert _run(capsys, "specfun", "clausen", repr(np.pi / 2)) == \
        (cli.EXIT_OK, "0.915965594177219\n")
    code, out = _run(capsys, "specfun", "imli2", "0.5", "1.0")
    assert (code, out) == (cli.EXIT_OK, "%.15g\n" % specfun.im_li2(0.5, 1.0))
    # on the unit circle Im Li2 is Clausen's integral
    code, out = _run(capsys, "specfun", "imli2", "0", "1.0")
    assert code == cli.EXIT_OK and abs(float(out) - specfun.clausen(1.0)) < 1e-13


def test_specfun_imli2_without_theta_is_an_input_error(capsys):
    assert cli.main(["specfun", "imli2", "0.5"]) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", "error: imli2 needs both x and theta\n")


def test_specfun_imli2_beyond_the_float_range_is_an_input_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning reaches stderr
        assert cli.main(["specfun", "imli2", "1e308", "1"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "1e+308" in err


def test_negative_float_literals_are_values(capsys, torus_problem):
    # an exponent, -inf and -nan read as numbers, not as option flags
    for literal in ("-1e3", "-1E+3", "-1000.", "-1.0e3"):
        assert _run(capsys, "specfun", "clausen", literal) == \
            _run(capsys, "specfun", "clausen", "-1000"), literal
    assert _run(capsys, "specfun", "imli2", "0.5", "-1e-2") == \
        _run(capsys, "specfun", "imli2", "0.5", "-0.01")
    for argv in (["specfun", "imli2", "-inf", "1"], ["specfun", "clausen", "-NaN"]):
        assert cli.main(argv) == cli.EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: x must be finite") and err.count("\n") == 1
    assert cli.main(["solve", torus_problem, "--tol", "-1e-3"]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: grad_tol ") and err.count("\n") == 1


def _assert_cannot_write(capsys, argv, path):
    assert cli.main(argv) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {path}: ")
    assert err.count("\n") == 1


def test_unwritable_output_paths_are_input_errors(capsys, tmp_path, torus_problem):
    report = str(tmp_path / "report.json")
    assert _run(capsys, "solve", torus_problem, "-o", report)[0] == cli.EXIT_OK
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps(_cube_sphere_doc(2 * np.pi / 3)))
    ok = tmp_path / "ok.svg"
    # a directory, a file in a directory that does not exist, and a file in
    # a file; every output path is checked before the work runs, so a
    # failed command prints nothing and writes no other file
    bad_paths = (str(tmp_path), str(tmp_path / "absent" / "out"), os.path.join(report, "out"))
    for bad in bad_paths:
        for argv in (["solve", torus_problem, "-o", bad],
                     ["solve", torus_problem, "--report", "-o", bad]):
            _assert_cannot_write(capsys, argv, bad)
        for flag in ("--svg", "--json"):
            _assert_cannot_write(capsys, ["layout", torus_problem, report, flag, bad], bad)
        _assert_cannot_write(capsys, ["layout", torus_problem, report, "--svg", str(ok),
                                      "--json", bad], bad)
        assert not ok.exists()
        for flag in ("--planar-svg", "--planar-json"):
            _assert_cannot_write(capsys, ["sphere", str(cube), flag, bad], bad)
            _assert_cannot_write(capsys, ["sphere", str(cube), "--planar-svg", str(ok),
                                          flag, bad], bad)
            assert not ok.exists()
    # the error is the one that writing the path raises
    for bad, error in zip(bad_paths, (IsADirectoryError, FileNotFoundError,
                                      NotADirectoryError)):
        with pytest.raises(error) as raised:
            open(bad, "w")
        assert cli.main(["solve", torus_problem, "-o", bad]) == cli.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: cannot write {bad}: {raised.value}\n")


@pytest.mark.parametrize("name", ["verbose", "10", "", "warning:"])
def test_unknown_log_level_is_an_input_error(capsys, monkeypatch, torus_problem, name):
    monkeypatch.setenv("CIRCLEPATTERNS_LOG", name)
    assert cli.main(["check", torus_problem]) == cli.EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: CIRCLEPATTERNS_LOG") and err.count("\n") == 1


def test_log_level_names_are_read_in_any_case(tmp_path):
    import subprocess
    import sys
    spec = random_feasible_spec(meshes.torus_grid(2, 2), "euclidean", np.random.default_rng(3))
    problem = _write_problem(tmp_path / "p.json", spec.surface, "euclidean",
                             spec.theta_star, spec.phi)
    # a fresh interpreter, whose root logger has no handler before main
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), CIRCLEPATTERNS_LOG="debug")
    run = subprocess.run([sys.executable, "-m", "circlepatterns.cli", "solve", problem],
                         env=env, capture_output=True, text=True)
    assert run.returncode == cli.EXIT_OK
    assert "DEBUG:circlepatterns.solver:newton iter 1:" in run.stderr


def test_layout_of_overflowing_rho_writes_no_svg(capsys, tmp_path, torus_problem):
    # exp(710) overflows: the SVG used to be written, with viewBox="nan nan nan nan"
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"rho": [710.0] * 4}))
    svg = tmp_path / "layout.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning reaches stderr
        code = cli.main(["layout", torus_problem, str(report), "--svg", str(svg)])
    assert code == cli.EXIT_INPUT and not svg.exists()
    assert capsys.readouterr().err == (f"error: {report}: face 0 has rho = 710, whose "
                                       f"radius is not finite and positive\n")


def test_layout_of_a_kite_that_overflows_writes_no_svg(capsys, tmp_path):
    # e^700 is a finite radius, but its kite with a radius 1 neighbour is not
    problem = tmp_path / "torus.json"
    problem.write_text(json.dumps(_torus_doc(n=4)))
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"rho": [0.0] * 5 + [700.0] + [0.0] * 10}))
    svg = tmp_path / "layout.svg"
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning reaches stderr
        code = cli.main(["layout", str(problem), str(report), "--svg", str(svg)])
    assert code == cli.EXIT_INPUT and not svg.exists()
    out, err = capsys.readouterr()
    assert out == "" and err == (
        f"error: {report}: the kite of edge 14 between faces 4 and 5 (radii 1 and "
        f"1.0142320547350045e+304) develops to non-finite corners\n")


def test_pack_octahedron(capsys, tmp_path):
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps({"mesh": surface_to_json_dict(meshes.octahedron())}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "spherical"
    assert len(doc["vertex_circles"]) == 6 and len(doc["face_circles"]) == 8


def _torus_pack_problem(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"mesh": surface_to_json_dict(
        meshes.triangulated_torus(4, 4))}))
    return str(path)


def test_pack_torus_is_repeatable(capsys, tmp_path):
    path = _torus_pack_problem(tmp_path)
    code, out = _run(capsys, "pack", path)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "euclidean" and doc["grad_norm"] <= 1e-10
    assert len(doc["vertex_circles"]) == 16 and len(doc["face_circles"]) == 32
    assert _run(capsys, "pack", path) == (code, out)


def test_feasible_pack_runs_no_flow(capsys, tmp_path, monkeypatch, torus_problem):
    from circlepatterns import feasibility
    flows = []
    solve_feasible_flow = feasibility.solve_feasible_flow

    def spy(net, **kwargs):
        flows.append(net)
        return solve_feasible_flow(net, **kwargs)

    monkeypatch.setattr(feasibility, "solve_feasible_flow", spy)
    for name, surface in (("octahedron", meshes.octahedron()),
                          ("torus", meshes.triangulated_torus(4, 4))):
        path = tmp_path / f"pack_{name}.json"
        path.write_text(json.dumps({"mesh": surface_to_json_dict(surface)}))
        assert _run(capsys, "pack", str(path))[0] == cli.EXIT_OK
    assert flows == []
    # the spy is live: solve still runs the flow before Newton, one flow
    # at the first floor on this torus
    assert _run(capsys, "solve", torus_problem)[0] == cli.EXIT_OK
    assert len(flows) == 1


def test_pack_prints_an_infeasible_certificate(capsys, tmp_path, monkeypatch):
    # pack's own data are always feasible, so the verdict is a stand-in
    cert = FeasibilityCertificate(
        feasible=False, violating_faces=(0,), violating_edges=(0, 1, 2), phi_sum=3 * np.pi,
        theta_sum=3 * np.pi, kind="subset", message="flow cut yields a violating face subset")
    monkeypatch.setattr(cli, "find_coherent_angle_system", lambda spec, half_angles=None: cert)
    code, out = _run(capsys, "pack", _torus_pack_problem(tmp_path))
    assert code == cli.EXIT_INFEASIBLE
    assert out == _reference_text(certificate_reference(cert))


def test_pack_reports_an_unconverged_solve(capsys, tmp_path, monkeypatch):
    minimize = cli.solver.minimize
    monkeypatch.setattr(cli.solver, "minimize",
                        lambda spec: minimize(spec, solver.SolveOptions(max_iter=0)))
    code, out = _run(capsys, "pack", _torus_pack_problem(tmp_path))
    assert code == cli.EXIT_NO_CONVERGENCE
    doc = json.loads(out)
    assert doc["converged"] is False and doc["iterations"] == 0
    assert doc["message"] == "no convergence in 0 Newton steps"


def test_an_unconverged_reduced_solve_exits_as_no_convergence(capsys, tmp_path, monkeypatch):
    # the reduced solves of pack on the octahedron and of sphere on a cube
    # whose vertical edges differ from the rest start off their minimisers
    # and stop at the cap, which exits 3 as a torus pack does, not 2; the
    # cube with cheap vertical edges is still refused by the flow
    minimize = cli.solver.minimize
    monkeypatch.setattr(cli.solver, "minimize",
                        lambda spec: minimize(spec, solver.SolveOptions(max_iter=0)))
    octahedron = tmp_path / "octahedron.json"
    octahedron.write_text(json.dumps({"mesh": surface_to_json_dict(meshes.octahedron())}))
    mesh = surface_to_json_dict(meshes.cube())
    for vertical in (1.7, 0.3):
        (tmp_path / f"cube{vertical}.json").write_text(json.dumps(
            {"mesh": mesh, "theta": cube_cocycle_theta(vertical).tolist()}))
    unconverged = "no convergence: reduced solve: no convergence in 0 Newton steps\n"
    for argv, code, err in (
            (["pack", str(octahedron)], cli.EXIT_NO_CONVERGENCE, unconverged),
            (["sphere", str(tmp_path / "cube1.7.json")], cli.EXIT_NO_CONVERGENCE, unconverged),
            (["sphere", str(tmp_path / "cube0.3.json")], cli.EXIT_INFEASIBLE,
             "infeasible: flow cut yields a violating face subset\n")):
        assert cli.main(argv) == code, argv
        assert capsys.readouterr() == ("", err), argv


def _golden(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return fh.read()


def test_pack_subdivided_octahedron_matches_golden(capsys, tmp_path):
    faces = subdivided_faces(face_lists(meshes.octahedron()), 2)
    path = tmp_path / "octahedron2.json"
    path.write_text(json.dumps({"mesh": {"faces": faces}}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    assert out == _golden("octahedron2_pack.json")


def test_each_pattern_orders_its_laplacian_once(capsys, monkeypatch, tmp_path):
    # one minimum degree order per pattern, computed with the unit-weight
    # factor; every Newton step reuses it, and the certificate's repair
    # solves with that factor
    import scipy.sparse.linalg as spla
    orders = []

    def spy(original):
        def traced(*args, permc_spec=None, **kwargs):
            orders.append(permc_spec)
            return original(*args, permc_spec=permc_spec, **kwargs)
        return traced

    for name in ("splu", "spsolve"):
        monkeypatch.setattr(spla, name, spy(getattr(spla, name)))
    faces = subdivided_faces(face_lists(meshes.octahedron()), 2)
    path = tmp_path / "octahedron2.json"
    path.write_text(json.dumps({"mesh": {"faces": faces}}))
    med = medial(meshes.triangulated_torus(4, 4))
    torus = _write_problem(tmp_path / "torus.json", med, "euclidean",
                           np.full(med.n_edges, np.pi / 2), np.full(med.n_faces, 2 * np.pi))
    for argv in (["pack", str(path)], ["solve", torus]):
        orders.clear()
        assert _run(capsys, *argv)[0] == cli.EXIT_OK
        assert orders.count("MMD_AT_PLUS_A") == 1 and orders[0] == "MMD_AT_PLUS_A", argv
        assert len(orders) > 2 and set(orders[1:]) == {"NATURAL"}, argv


def test_sphere_cube_matches_golden(capsys, tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(_cube_sphere_doc(2 * np.pi / 3)))
    planar = tmp_path / "planar.json"
    planar_svg = tmp_path / "planar.svg"
    code, out = _run(capsys, "sphere", str(path), "--planar-json", str(planar),
                     "--planar-svg", str(planar_svg))
    assert code == cli.EXIT_OK
    assert out == _golden("cube_sphere.json")
    assert planar.read_text() == _golden("cube_sphere_planar.json")
    assert planar_svg.read_text() == _golden("cube_sphere_planar.svg")


def test_solve_torus4x4_matches_golden(capsys, tmp_path):
    med = medial(meshes.triangulated_torus(4, 4))
    problem = _write_problem(tmp_path / "torus.json", med, "euclidean",
                             np.full(med.n_edges, np.pi / 2), np.full(med.n_faces, 2 * np.pi))
    code, out = _run(capsys, "solve", problem)
    assert code == cli.EXIT_OK
    assert out == _golden("torus4x4_solve.json")


def test_pack_torus4x4_matches_golden(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"mesh": {"faces": face_lists(meshes.triangulated_torus(4, 4))}}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    assert out == _golden("torus4x4_pack.json")


# The numbers of the documents below may differ between machines in the
# last bits (the conjugate-gradient solves of hyperbolic Newton, the angles
# the flow constructs), so the text is compared with the reference writer's
# text of the same document, computed here, rather than with a golden.

def _reference_text(doc):
    return dumps_reference(doc, indent=2) + "\n"


def test_hyperbolic_solve_report_matches_reference(capsys, tmp_path):
    spec = random_feasible_spec(medial(meshes.triangulated_torus(4, 4)), "hyperbolic",
                                np.random.default_rng(11))
    problem = _write_problem(tmp_path / "hyperbolic.json", spec.surface, "hyperbolic",
                             spec.theta_star, spec.phi)
    code, out = _run(capsys, "solve", problem)
    assert code == cli.EXIT_OK
    assert out == _reference_text(solve_report_reference(spec, solver.minimize(spec)))


@pytest.mark.parametrize("feasible", [True, False])
def test_check_certificate_matches_reference(capsys, tmp_path, feasible):
    med = medial(meshes.triangulated_torus(3, 3))
    phi = np.full(med.n_faces, 2 * np.pi)
    if not feasible:
        # the single-face violation of the fixture above
        triangle = next(f for f in range(med.n_faces) if len(med.face_walk(f)) == 3)
        phi -= np.pi / (med.n_faces - 1)
        phi[triangle] = 3 * np.pi
    spec = PatternSpec(med, "euclidean", np.full(med.n_edges, np.pi / 2), phi)
    problem = _write_problem(tmp_path / "problem.json", med, "euclidean",
                             spec.theta_star, spec.phi)
    code, out = _run(capsys, "check", problem)
    assert code == (cli.EXIT_OK if feasible else cli.EXIT_INFEASIBLE)
    cert = find_coherent_angle_system(spec)
    assert cert.feasible == feasible and (cert.half_angles is not None) == feasible
    assert out == _reference_text(certificate_reference(cert))


def test_pack_genus2_matches_reference(capsys, tmp_path):
    faces = genus2_faces()
    path = tmp_path / "genus2.json"
    path.write_text(json.dumps({"mesh": {"faces": faces}}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    surface = surface_from_json_dict({"faces": faces})
    med = medial(surface)
    assert (surface.n_faces, surface.n_faces - surface.n_edges + surface.n_vertices) == (62, -2)
    spec = PatternSpec(med, "hyperbolic", np.full(med.n_edges, 0.5 * np.pi),
                       np.full(med.n_faces, 2 * np.pi))
    result = solver.minimize(spec)
    assert out == _reference_text(pack_report_reference(
        "hyperbolic", radii_from_rho("hyperbolic", result.rho), surface.n_faces,
        surface.n_vertices, result.grad_norm))


def test_sphere_with_disconnecting_reduction_is_infeasible(capsys, tmp_path):
    s = pinched_sphere()
    path = tmp_path / "pinched.json"
    theta = random_flat_theta(s, np.random.default_rng(43), spread=0.0)
    path.write_text(json.dumps({"mesh": surface_to_json_dict(s), "v_infinity": 0,
                                "theta": [float(t) for t in theta]}))
    code = cli.main(["sphere", str(path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "disconnects the dual 1-skeleton" in capsys.readouterr().err


def _torus_doc(geometry="euclidean", n=2):
    s = meshes.torus_grid(n, n)
    return {"mesh": surface_to_json_dict(s), "geometry": geometry,
            "theta_star": [np.pi / 2] * s.n_edges, "phi": [2 * np.pi] * s.n_faces}


def _tetrahedron_doc(**mesh):
    return {"mesh": {"faces": [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]], **mesh},
            "theta_star": [np.pi / 2] * 6}


def _without_twin():
    doc = _torus_doc()
    del doc["mesh"]["oriented_edges"][3]["twin"]
    return doc


def _with_entry(doc, key, index, value):
    doc[key][index] = value
    return doc


def _with_table_entry(doc, value):
    doc["mesh"]["oriented_edges"][5]["origin"] = value
    return doc


def _with_edge_id(doc, h, value):
    doc["mesh"]["edge_ids"][h] = value
    return doc


def _open_disc(v_infinity=0):
    return reduce_to_plane(SphericalProblem(meshes.cube(), np.full(12, 2 * np.pi / 3),
                                            v_infinity)).spec.surface


def _cube_sphere_doc(theta_3):
    theta = [2 * np.pi / 3] * 12
    theta[3] = theta_3
    return {"mesh": surface_to_json_dict(meshes.cube()), "theta": theta}


# (command, problem document, solve report document or None, what the
# error names after the file)
MALFORMED = {
    "problem is a list": ("check", [_torus_doc()], None, "top level"),
    "unknown geometry": (
        "check", dict(_torus_doc(), geometry="spherical"), None,
        "unknown geometry 'spherical'"),
    "missing theta_star": (
        "solve", {key: value for key, value in _torus_doc().items() if key != "theta_star"},
        None, "missing 'theta_star'"),
    "boundary faces without phi": (
        "check", {"mesh": surface_to_json_dict(_open_disc()), "theta_star": [np.pi / 2] * 3},
        None, "'phi' is required when the mesh has boundary faces"),
    "solve problem is a list": ("solve", [_torus_doc()], None, "top level"),
    "sphere problem is a list": (
        "sphere", [_cube_sphere_doc(2 * np.pi / 3)], None, "top level"),
    "pack problem is a list": ("pack", [], None, "top level"),
    "report is a list": ("layout", _torus_doc(), [[0.0] * 4], "top level"),
    "options is a list": ("solve", dict(_torus_doc(), options=[1]), None, "'options'"),
    "options is a string": (
        "solve", dict(_torus_doc(), options="fast"), None, "'options'"),
    "null vertex id": ("check", _tetrahedron_doc(faces=[[0, 1, 2], [0, 2, None],
                                                        [0, 3, 1], [1, 3, 2]]),
                       None, "face 1"),
    "string genus_hint": ("check", _tetrahedron_doc(genus_hint="zero"), None,
                          "genus hint"),
    "record without twin": ("check", _without_twin(), None,
                            "oriented edge 3 has no 'twin'"),
    "null theta_star (check)": (
        "check", _with_entry(_torus_doc("hyperbolic", 3), "theta_star", 4, None),
        None, "theta_star"),
    "null theta_star (solve)": (
        "solve", _with_entry(_torus_doc("hyperbolic", 3), "theta_star", 4, None),
        None, "theta_star"),
    "NaN phi": ("check", _with_entry(_torus_doc(), "phi", 1, float("nan")), None, "phi"),
    "infinite phi": (
        "check", _with_entry(_torus_doc(), "phi", 1, float("inf")), None, "phi"),
    "null sphere theta": ("sphere", _cube_sphere_doc(None), None, "theta"),
    "NaN sphere theta": ("sphere", _cube_sphere_doc(float("nan")), None, "theta"),
    "theta_star is an object": (
        "check", dict(_torus_doc(), theta_star={"0": 1.0}), None, "'theta_star'"),
    "sphere theta is an object": (
        "sphere", dict(_cube_sphere_doc(1.0), theta={"0": 1.0}), None, "'theta'"),
    "null v_infinity": (
        "sphere", dict(_cube_sphere_doc(2 * np.pi / 3), v_infinity=None), None,
        "'v_infinity'"),
    "infinite v_infinity": (
        "sphere", dict(_cube_sphere_doc(2 * np.pi / 3), v_infinity=float("inf")), None,
        "'v_infinity'"),
    "infinite vertex id": (
        "check", _tetrahedron_doc(faces=[[0, 1, 2], [0, 2, 3], [0, 3, float("inf")],
                                         [1, 3, 2]]), None, "face 2"),
    "rho is an object": ("layout", _torus_doc(), {"rho": {"0": 0.0}}, "'rho'"),
    # a bool loads as a number, a nested list or a bare number reaches the
    # length checks: each used to pass as numbers or name the length
    "boolean theta_star": (
        "check", dict(_torus_doc(), theta_star=[True] * 8), None,
        "'theta_star' must be a list of numbers"),
    "boolean phi entry": (
        "check", _with_entry(_torus_doc(), "phi", 2, True), None,
        "'phi' must be a list of numbers"),
    "nested theta_star": (
        "check", dict(_torus_doc(), theta_star=[[np.pi / 2]] * 8), None,
        "'theta_star' must be a list of numbers"),
    "bare-number phi": (
        "solve", dict(_torus_doc(), phi=2 * np.pi), None, "'phi' must be a list of numbers"),
    "theta_star beyond the float range": (
        "check", dict(_torus_doc(), theta_star=[np.pi / 2] * 7 + [10 ** 400]), None,
        "'theta_star' must be a list of numbers"),
    "boolean rho": ("layout", _torus_doc(), {"rho": [False] * 4},
                    "'rho' must be a list of numbers"),
    "nested rho": ("layout", _torus_doc(), {"rho": [[0.0]] * 4},
                   "'rho' must be a list of numbers"),
    "bare-number rho": ("layout", _torus_doc(), {"rho": 0.0},
                        "'rho' must be a list of numbers"),
    "boolean sphere theta": (
        "sphere", _cube_sphere_doc(True), None, "'theta' must be a list of numbers"),
    "nested sphere theta": (
        "sphere", dict(_cube_sphere_doc(1.0), theta=[[2 * np.pi / 3]] * 12), None,
        "'theta' must be a list of numbers"),
    "rho whose radius overflows": (
        "layout", _torus_doc(), {"rho": [710.0] * 4}, "face 0 has rho = 710,"),
    "kite whose radii overflow": (
        "layout", _torus_doc(n=4), {"rho": [0.0] * 5 + [700.0] + [0.0] * 10},
        "the kite of edge 14 between faces 4 and 5 "),
    "NaN rho": ("layout", _torus_doc(), {"rho": [0.0, 0.0, float("nan"), 0.0]}, "face 2"),
    "fractional vertex id": (
        "check", _tetrahedron_doc(faces=[[0, 1, 2.5], [0, 2, 3], [0, 3, 1], [1, 3, 2]]),
        None, "face 0"),
    "integral float vertex id": (
        "check", _tetrahedron_doc(faces=[[0, 1, 2], [0, 2.0, 3], [0, 3, 1], [1, 3, 2]]),
        None, "face 1"),
    "digit-string vertex id": (
        "pack", _tetrahedron_doc(faces=[[0, 1, 2], [0, 2, 3], ["0", 3, 1], [1, 3, 2]]),
        None, "face 2"),
    "boolean vertex id": (
        "check", _tetrahedron_doc(faces=[[0, 1, 2], [0, 2, 3], [0, 3, 1], [True, 3, 2]]),
        None, "face 3"),
    "fractional table entry": (
        "check", _with_table_entry(_torus_doc(), 1.5), None, "integers"),
    "string table entry": (
        "solve", _with_table_entry(_torus_doc(), "1"), None, "integers"),
    "fractional v_infinity": (
        "sphere", dict(_cube_sphere_doc(2 * np.pi / 3), v_infinity=2.5), None,
        "'v_infinity'"),
    "boolean v_infinity": (
        "sphere", dict(_cube_sphere_doc(2 * np.pi / 3), v_infinity=True), None,
        "'v_infinity'"),
    "sphere without a mesh": (
        "sphere", {"theta": [2 * np.pi / 3] * 12}, None, "missing 'mesh'"),
    "pack without a mesh": ("pack", {}, None, "missing 'mesh'"),
    "pack of quadrilaterals": (
        "pack", {"mesh": surface_to_json_dict(meshes.cube())}, None,
        "face 0 is not a triangle"),
    "pack of an open surface": (
        "pack", {"mesh": surface_to_json_dict(_open_disc())}, None,
        "closed triangulated surface"),
    "pack with a vertex of degree 2": (
        "pack", {"mesh": {"faces": [[0, 1, 2], [2, 1, 0]]}}, None, "vertex 0 has degree < 3"),
    "negative tol option": ("solve", dict(_torus_doc(), options={"tol": -1}), None,
                            "grad_tol"),
    "unknown method option": ("solve", dict(_torus_doc(), options={"method": "newton"}),
                              None, "unknown option 'method'; the options are tol, max_iter"),
    "unknown option": ("solve", dict(_torus_doc(), options={"max_iters": 5}), None,
                       "unknown option 'max_iters'"),
    "faces beside an oriented-edge table": (
        "check", _tetrahedron_doc(**surface_to_json_dict(meshes.cube())), None,
        "invalid mesh: provide exactly one of faces / oriented_edges"),
    "edge ids beside faces": (
        "check", _tetrahedron_doc(edge_ids="garbage"), None, "invalid mesh: edge_ids"),
    "edge ids differ between twins": (
        "solve", _with_edge_id(_torus_doc(), 0, 5), None, "edge_id differs between twins"),
    "mesh is a list": (
        "check", dict(_torus_doc(), mesh=[]), None, "invalid mesh: mesh must be an object"),
    "faces is an object": (
        "check", _tetrahedron_doc(faces={}), None, "invalid mesh: 'faces' must be a list"),
    "mesh without faces or table": (
        "check", dict(_torus_doc(), mesh={}), None,
        "invalid mesh: mesh must contain 'faces' or 'oriented_edges'"),
    "table row is not an object": (
        "check", dict(_torus_doc(), mesh={"oriented_edges": [0]}), None,
        "invalid mesh: oriented edge 0 is not an object"),
    "one-vertex face": (
        "check", _tetrahedron_doc(faces=[[0]]), None,
        "invalid mesh: faces need at least two vertices"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_an_input_error(capsys, tmp_path, case):
    command, problem, report, fragment = MALFORMED[case]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    argv = [command, str(path)]
    named = str(path)
    if report is not None:
        named = str(tmp_path / "report.json")
        (tmp_path / "report.json").write_text(json.dumps(report))
        argv.append(named)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert out == ""
    assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
    assert fragment in err
