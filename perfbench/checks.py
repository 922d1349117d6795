"""Independent checks of the CLI outputs.

Nothing here imports the program: every quantity is recomputed with numpy
from the problem JSON the benchmark wrote and the files or stdout the CLI
produced.  Each check returns a :class:`Verdict`; a failed check names what
it found.
"""

from __future__ import annotations

import json
import math
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

SOLVE_TOL = 1e-9       # face residuals and half-angle agreement (grad_tol is 1e-10)
LATTICE_TOL = 1e-9     # rho(vertex circle) - rho(face circle) = ln(3)/2
CLOSURE_TOL = 1e-9     # relative to the layout diameter
SPHERE_TOL = 1e-8      # cosine-level agreement of cap angles
SUBSET_TOL = 1e-9      # relative slack when verifying a violating face set


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    exact_certificate: bool | None = None   # infeasible checks only


def _fail(message):
    return Verdict(False, message)


def _load(workdir, name):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


class Mesh:
    """Oriented-edge table of a problem's mesh, with the CLI's convention
    that unoriented edge ids follow the first appearance of either twin."""

    def __init__(self, mesh_doc):
        table = mesh_doc["oriented_edges"]
        self.left = np.array([r["left_face"] for r in table])
        self.twin = np.array([r["twin"] for r in table])
        self.origin = np.array([r["origin"] for r in table])
        first = np.minimum(np.arange(len(table)), self.twin)
        self.reps, self.edge = np.unique(first, return_inverse=True)
        if "edge_ids" in mesh_doc and not np.array_equal(self.edge, mesh_doc["edge_ids"]):
            raise ValueError("edge_ids in the mesh differ from first-appearance order")
        self.right = self.left[self.twin]
        self.edge_left = self.left[self.reps]
        self.edge_right = self.right[self.reps]
        self.n_faces = int(self.left.max()) + 1
        self.n_edges = len(self.reps)
        self.degree = np.bincount(self.left, minlength=self.n_faces)

    def incident_edges(self, faces):
        return np.unique(self.edge[np.isin(self.left, list(faces))])


class Problem:
    def __init__(self, doc):
        self.mesh = Mesh(doc["mesh"])
        self.geometry = doc["geometry"]
        self.theta_star = np.asarray(doc["theta_star"], dtype=float)
        self.phi = np.asarray(doc["phi"], dtype=float)


def half_angles(problem, rho):
    """phi per oriented edge at rho: d/dx Im Li2(e^(x + i theta)) with
    theta = pi - theta*, written as atan2."""
    m = problem.mesh
    theta = math.pi - problem.theta_star[m.edge]

    def dx(x):
        ex = np.exp(x)
        return np.arctan2(ex * np.sin(theta), 1.0 - ex * np.cos(theta))

    phi = dx(rho[m.right] - rho[m.left])
    if problem.geometry == "hyperbolic":
        phi = phi - dx(rho[m.right] + rho[m.left])
    return phi


def _check_solution(problem, report):
    """The reported rho must be a critical point: recomputed half-angles
    form a coherent angle system with zero face residuals."""
    m = problem.mesh
    rho = np.asarray(report["rho"], dtype=float)
    if rho.shape != (m.n_faces,):
        return _fail(f"rho has {rho.size} entries, expected {m.n_faces}")
    phi = half_angles(problem, rho)
    reported = np.asarray(report["phi_half_angles"], dtype=float)
    if reported.shape != phi.shape or np.abs(reported - phi).max() > SOLVE_TOL:
        return _fail("reported half-angles differ from those recomputed from rho")
    face = np.bincount(m.left, weights=phi, minlength=m.n_faces)
    residual = np.abs(problem.phi - 2.0 * face).max()
    if residual > SOLVE_TOL:
        return _fail(f"face residual |Phi - 2 sum phi| = {residual:.3g}")
    if phi.min() <= 0.0:
        return _fail("a half-angle is not positive")
    pair = np.bincount(m.edge, weights=phi, minlength=m.n_edges)
    if problem.geometry == "euclidean":
        if np.abs(pair - problem.theta_star).max() > SOLVE_TOL:
            return _fail("half-angle pairs do not sum to theta*")
    elif (pair >= problem.theta_star).any() or (rho >= 0.0).any():
        return _fail("hyperbolic pairs reach theta* or rho is not negative")
    return Verdict(True)


def uniform_solve(workdir, files, stdout):
    problem = Problem(_load(workdir, files[0]))
    report = _load(workdir, files[1])
    verdict = _check_solution(problem, report)
    if not verdict.ok:
        return verdict
    rho = np.asarray(report["rho"])
    deg = problem.mesh.degree
    tri, hexa = rho[deg == 3], rho[deg == 6]
    if not len(tri) or len(tri) + len(hexa) != len(rho):
        return _fail("mesh is not the medial of a 6-valent triangulation")
    target = 0.5 * math.log(3.0)
    spread = max(abs(hexa.max() - tri.min() - target), abs(hexa.min() - tri.max() - target))
    if spread > LATTICE_TOL:
        return _fail(f"vertex minus face rho misses ln(3)/2 by {spread:.3g}")
    return Verdict(True)


def _lattice_residual(diffs, periods):
    """Largest |d| after reducing each difference by the period lattice."""
    if not len(diffs):
        return 0.0
    if periods is None:
        return float(np.abs(diffs).max())
    basis = np.array([[periods[0][0], periods[1][0]], [periods[0][1], periods[1][1]]])
    coeff = np.linalg.solve(basis, np.stack([diffs.real, diffs.imag]))
    rest = diffs - (np.round(coeff[0]) * complex(*periods[0])
                    + np.round(coeff[1]) * complex(*periods[1]))
    return float(np.abs(rest).max())


def uniform_layout(workdir, files, stdout):
    """Kites have the solved radii and right angles, and every center and
    intersection point agrees with its other placements up to the periods."""
    problem = Problem(_load(workdir, files[0]))
    report = _load(workdir, files[1])
    lay = _load(workdir, files[2])
    m = problem.mesh
    radius = np.exp(np.asarray(report["rho"]))
    edges = np.array([k["edge"] for k in lay["kites"]])
    if sorted(edges) != list(range(m.n_edges)):
        return _fail("the layout does not have one kite per edge")
    corners = np.array([k["corners"] for k in lay["kites"]], dtype=float)
    z = corners[..., 0] + 1j * corners[..., 1]          # (P_u, C_k, P_w, C_j)
    pu, ck, pw, cj = z.T
    rj, rk = radius[m.edge_left[edges]], radius[m.edge_right[edges]]
    diameter = 2.0 * float(np.abs(z - z.mean()).max())
    tol = CLOSURE_TOL * diameter
    cos_t = np.cos(problem.theta_star[edges])
    geometry = max(np.abs(np.abs(pu - cj) - rj).max(), np.abs(np.abs(pw - cj) - rj).max(),
                   np.abs(np.abs(pu - ck) - rk).max(), np.abs(np.abs(pw - ck) - rk).max(),
                   np.abs(np.abs(ck - cj) - np.sqrt(rj**2 + rk**2 + 2 * rj * rk * cos_t)).max())
    if geometry > tol:
        return _fail(f"kite radii or intersection angles off by {geometry:.3g}")
    circles = {c["face"]: complex(*c["center"]) for c in lay["circles"]}
    points = {v["vertex"]: complex(*v["point"]) for v in lay["vertices"]}
    if set(circles) != set(range(m.n_faces)) or set(points) != set(m.origin.tolist()):
        return _fail("the layout does not have one circle per face and one point per vertex")
    rep_from, rep_to = m.origin[m.reps[edges]], m.origin[m.twin[m.reps[edges]]]
    diffs = np.concatenate([
        cj - np.array([circles[f] for f in m.edge_left[edges].tolist()]),
        ck - np.array([circles[f] for f in m.edge_right[edges].tolist()]),
        pu - np.array([points[v] for v in rep_from.tolist()]),
        pw - np.array([points[v] for v in rep_to.tolist()])])
    closure = _lattice_residual(diffs, lay["periods"])
    if closure > tol:
        return _fail(f"closure residual {closure:.3g} exceeds {tol:.3g}")
    radii = np.array([c["radius"] for c in sorted(lay["circles"], key=lambda c: c["face"])])
    if np.abs(radii / radius - 1.0).max() > 1e-12:
        return _fail("circle radii differ from exp(rho)")
    svg = ET.parse(os.path.join(workdir, files[3])).getroot()
    classes = [el.get("class") for el in svg.iter() if el.get("class")]
    if classes.count("face") != m.n_faces or classes.count("kite") != m.n_edges:
        return _fail("the SVG does not draw every face circle and kite")
    return Verdict(True)


def random_solve(workdir, files, stdout):
    return _check_solution(Problem(_load(workdir, files[0])), _load(workdir, files[1]))


def infeasible_check(workdir, files, stdout):
    """Infeasible verdict; a listed face set must really violate
    sum Phi < sum 2 theta* over its incident edges."""
    problem = Problem(_load(workdir, files[0]))
    cert = json.loads(stdout)
    if cert.get("feasible") is not False:
        return _fail("infeasible input reported feasible")
    faces = cert.get("violating_faces") or []
    if not faces:
        return Verdict(True, f"no face set ({cert.get('kind')})", exact_certificate=False)
    m = problem.mesh
    if problem.geometry == "euclidean" and len(set(faces)) == m.n_faces:
        return _fail("the full face set is not a Euclidean violation")
    phi_sum = problem.phi[faces].sum()
    theta_sum = 2.0 * problem.theta_star[m.incident_edges(faces)].sum()
    if phi_sum < theta_sum - SUBSET_TOL * theta_sum:
        return _fail(f"listed face set does not violate: {phi_sum:.12g} < {theta_sum:.12g}")
    return Verdict(True, exact_certificate=True)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def sphere_pack(workdir, files, stdout):
    """Face caps meet the caps of their vertices at pi/2, and the caps of
    adjacent vertices touch."""
    faces = np.array(_load(workdir, files[0])["mesh"]["faces"])
    out = json.loads(stdout)
    n_v = int(faces.max()) + 1
    vc = sorted(out["vertex_circles"], key=lambda c: c["vertex"])
    fc = sorted(out["face_circles"], key=lambda c: c["face"])
    if [c["vertex"] for c in vc] != list(range(n_v)) or \
            [c["face"] for c in fc] != list(range(len(faces))):
        return _fail("pack output does not have one cap per vertex and face")
    v_axis = np.array([c["axis"] for c in vc])
    v_rad = np.array([c["angular_radius"] for c in vc])
    f_axis = np.array([c["axis"] for c in fc])
    f_rad = np.array([c["angular_radius"] for c in fc])
    if max(np.abs(np.linalg.norm(v_axis, axis=1) - 1).max(),
           np.abs(np.linalg.norm(f_axis, axis=1) - 1).max()) > SPHERE_TOL:
        return _fail("cap axes are not unit vectors")
    fi = np.repeat(np.arange(len(faces)), 3)
    vi = faces.ravel()
    # orthogonal caps: cos(angle between axes) = cos(r1) cos(r2)
    cos_axes = np.einsum("ij,ij->i", _unit(f_axis[fi]), _unit(v_axis[vi]))
    ortho = np.abs(cos_axes - np.cos(f_rad[fi]) * np.cos(v_rad[vi]))
    if ortho.max() > SPHERE_TOL:
        return _fail(f"face and vertex caps miss a right angle by {ortho.max():.3g}")
    a, b = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    gap = np.arccos(np.clip(np.einsum("ij,ij->i", _unit(v_axis[a]), _unit(v_axis[b])), -1, 1))
    touch = np.abs(gap - v_rad[a] - v_rad[b])
    if touch.max() > SPHERE_TOL:
        return _fail(f"adjacent vertex caps miss tangency by {touch.max():.3g}")
    return Verdict(True)


CHECKS = {f.__name__: f for f in (uniform_solve, uniform_layout, random_solve,
                                  infeasible_check, sphere_pack)}
