"""Input generation and command lists for the four benchmark workloads.

Every input is derived from the seed and written as CLI JSON.  The
program's own constructors (``meshes``, ``surface.medial``) build the
surfaces, so their cost is part of set-up; the outputs are checked only by
``checks.py``, which never calls into the program.

A workload is a list of commands, each with the exit code it must give and
the check its outputs must pass.  One pass runs the commands in order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("torus_uniform", "torus_random", "torus_infeasible", "sphere_pack")

# Sizes: n of medial(triangulated_torus(n, n)) and octahedron subdivision
# levels, small enough that a 20 s run holds four passes or more on a
# 2-CPU machine.  TINY keeps the self-test fast; the check logic is the same.
FULL = {"uniform_n": 32, "random_eu_n": 24, "random_hy_n": 32,
        "single_face_n": 8, "equality_n": 12, "sphere_levels": 3}
TINY = {"uniform_n": 4, "random_eu_n": 4, "random_hy_n": 4,
        "single_face_n": 3, "equality_n": 3, "sphere_levels": 1}


@dataclass(frozen=True)
class Command:
    kind: str          # CLI subcommand, also the per-kind timing key
    argv: tuple        # arguments after the subcommand; file names are relative
    expect_exit: int
    check: str         # name of the check in checks.CHECKS
    files: tuple       # (problem, outputs...) handed to the check


def commands(name: str, seed: int, tiny: bool = False) -> list[Command]:
    if name == "torus_uniform":
        # the seed picks the kite the layout starts from
        n = (TINY if tiny else FULL)["uniform_n"]
        root = int(np.random.default_rng([NAMES.index(name), seed]).integers(6 * n * n))
        return [
            Command("solve", ("problem.json", "-o", "report.json"), 0,
                    "uniform_solve", ("problem.json", "report.json")),
            Command("layout", ("problem.json", "report.json", "--svg", "layout.svg",
                               "--json", "layout.json", "--kites", "--root-edge", str(root)),
                    0, "uniform_layout",
                    ("problem.json", "report.json", "layout.json", "layout.svg")),
        ]
    if name == "torus_random":
        return [Command("solve", (f"{g}.json", "-o", f"{g}_report.json"), 0,
                        "random_solve", (f"{g}.json", f"{g}_report.json"))
                for g in ("euclidean", "hyperbolic")]
    if name == "torus_infeasible":
        return [Command("check", (f"{p}.json",), 2, "infeasible_check", (f"{p}.json",))
                for p in ("single_face", "equality")]
    if name == "sphere_pack":
        return [Command("pack", ("octahedron.json",), 0, "sphere_pack",
                        ("octahedron.json",))]
    raise ValueError(f"unknown workload {name!r}")


# -- meshes ------------------------------------------------------------------

def _face_lists(surface):
    return [[surface.origin(h) for h in surface.face_walk(f)]
            for f in range(surface.n_faces)]


def _relabel(faces, rng):
    """Isomorphic copy: permuted vertex ids, shuffled face order and a
    random cyclic rotation of every face.  Used for the sphere only: on the
    tori a relabelling changes flow and factorisation cost several-fold,
    which would make the workloads differ by seed rather than by data."""
    n_v = 1 + max(v for face in faces for v in face)
    perm = rng.permutation(n_v)
    out = []
    for i in rng.permutation(len(faces)):
        face = [int(perm[v]) for v in faces[i]]
        k = int(rng.integers(len(face)))
        out.append(face[k:] + face[:k])
    return out


def _subdivide(faces):
    """Split every triangle into four at its edge midpoints."""
    n_v = 1 + max(v for face in faces for v in face)
    mid = {}

    def midpoint(a, b):
        key = (min(a, b), max(a, b))
        if key not in mid:
            mid[key] = n_v + len(mid)
        return mid[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return out


def _medial_torus(n):
    from circlepatterns import meshes
    from circlepatterns.surface import medial
    return medial(meshes.triangulated_torus(n, n))


def _problem(surface, geometry, theta_star, phi):
    from circlepatterns.surface import surface_to_json_dict
    return {"mesh": surface_to_json_dict(surface), "geometry": geometry,
            "theta_star": [float(x) for x in theta_star],
            "phi": [float(x) for x in phi]}


def _random_feasible(surface, geometry, rng):
    """Data of a random angle system, so feasible by construction."""
    reps = np.asarray(surface.edge_reps)
    twin = np.asarray(surface.oe_twin)
    oe_edge = np.asarray(surface.oe_edge)
    if geometry == "euclidean":
        phi = rng.uniform(0.05, 1.2, surface.n_oriented_edges)
        theta_star = phi[reps] + phi[twin[reps]]
    else:
        theta_star = rng.uniform(0.3, math.pi - 0.05, surface.n_edges)
        phi = rng.uniform(0.08, 0.45, surface.n_oriented_edges) * theta_star[oe_edge]
    face = np.zeros(surface.n_faces)
    np.add.at(face, np.asarray(surface.oe_left), phi)
    return theta_star, 2.0 * face


def build(name: str, seed: int, tiny: bool = False) -> dict:
    """File name -> JSON document for every input of the workload."""
    size = TINY if tiny else FULL
    rng = np.random.default_rng([NAMES.index(name), seed])
    half, full = 0.5 * math.pi, 2.0 * math.pi
    if name == "torus_uniform":
        med = _medial_torus(size["uniform_n"])
        return {"problem.json": _problem(med, "euclidean", [half] * med.n_edges,
                                         [full] * med.n_faces)}
    if name == "torus_random":
        out = {}
        for geometry, key in (("euclidean", "random_eu_n"), ("hyperbolic", "random_hy_n")):
            med = _medial_torus(size[key])
            theta_star, phi = _random_feasible(med, geometry, rng)
            out[f"{geometry}.json"] = _problem(med, geometry, theta_star, phi)
        return out
    if name == "torus_infeasible":
        med = _medial_torus(size["single_face_n"])
        n_f = med.n_faces
        # one triangle face gets 3*pi; the others give up pi/(F-1) each so
        # that the total equality still holds and only a subset fails
        triangles = [f for f in range(n_f) if len(med.face_walk(f)) == 3]
        phi = np.full(n_f, full - math.pi / (n_f - 1))
        phi[triangles[int(rng.integers(len(triangles)))]] = 3.0 * math.pi
        eq = _medial_torus(size["equality_n"])
        return {"single_face.json": _problem(med, "euclidean", [half] * med.n_edges, phi),
                "equality.json": _problem(eq, "hyperbolic", [half] * eq.n_edges,
                                          [full] * eq.n_faces)}
    if name == "sphere_pack":
        from circlepatterns import meshes
        faces = _face_lists(meshes.octahedron())
        for _ in range(size["sphere_levels"]):
            faces = _subdivide(faces)
        return {"octahedron.json": {"mesh": {"faces": _relabel(faces, rng)}}}
    raise ValueError(f"unknown workload {name!r}")


def write(docs: dict, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for fname, doc in docs.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(doc, fh)
