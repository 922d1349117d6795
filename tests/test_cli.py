"""The command-line contract: exit codes and deterministic stdout."""

import json

import numpy as np
import pytest

from circlepatterns import cli, meshes
from circlepatterns.surface import medial, surface_to_json_dict
from helpers import pinched_sphere, random_feasible_spec, random_flat_theta


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
                                     {"tol": "1e-8"}, {"tol": True}])
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


def test_layout_of_closed_hyperbolic_problem(capsys, tmp_path):
    s = meshes.genus2_octagon()
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


def test_pack_octahedron(capsys, tmp_path):
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps({"mesh": surface_to_json_dict(meshes.octahedron())}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "spherical"
    assert len(doc["vertex_circles"]) == 6 and len(doc["face_circles"]) == 8


def test_pack_torus_is_repeatable(capsys, tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({"mesh": surface_to_json_dict(
        meshes.triangulated_torus(4, 4))}))
    code, out = _run(capsys, "pack", str(path))
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["kind"] == "euclidean" and doc["grad_norm"] <= 1e-10
    assert len(doc["vertex_circles"]) == 16 and len(doc["face_circles"]) == 32
    assert _run(capsys, "pack", str(path)) == (code, out)


def test_feasible_pack_runs_no_flow(capsys, tmp_path, monkeypatch, torus_problem):
    from circlepatterns import feasibility, spherical
    calls = []

    def spy(spec):
        calls.append(spec)
        return feasibility.find_coherent_angle_system(spec)

    for module in (cli, spherical):
        monkeypatch.setattr(module, "find_coherent_angle_system", spy)
    for name, surface in (("octahedron", meshes.octahedron()),
                          ("torus", meshes.triangulated_torus(4, 4))):
        path = tmp_path / f"pack_{name}.json"
        path.write_text(json.dumps({"mesh": surface_to_json_dict(surface)}))
        assert _run(capsys, "pack", str(path))[0] == cli.EXIT_OK
    assert calls == []
    # the spy is live: solve still runs the flow before Newton
    assert _run(capsys, "solve", torus_problem)[0] == cli.EXIT_OK
    assert len(calls) == 1


def test_sphere_with_disconnecting_reduction_is_infeasible(capsys, tmp_path):
    s = pinched_sphere()
    path = tmp_path / "pinched.json"
    theta = random_flat_theta(s, np.random.default_rng(43), spread=0.0)
    path.write_text(json.dumps({"mesh": surface_to_json_dict(s), "v_infinity": 0,
                                "theta": [float(t) for t in theta]}))
    code = cli.main(["sphere", str(path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "disconnects the dual 1-skeleton" in capsys.readouterr().err
