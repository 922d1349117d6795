"""The command-line contract: exit codes and deterministic stdout."""

import json

import numpy as np
import pytest

from circlepatterns import cli, meshes
from circlepatterns.surface import medial, surface_to_json_dict


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
    assert _run(capsys, "check", single_face_problem) == (code, out)


def test_solve_reports_the_check_certificate(capsys, single_face_problem):
    _, checked = _run(capsys, "check", single_face_problem)
    code, out = _run(capsys, "solve", single_face_problem)
    assert code == cli.EXIT_INFEASIBLE
    assert out == checked


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
