"""The package's public names."""

import dataclasses
import inspect

import circlepatterns
from circlepatterns import feasibility, functional, meshes, solver, spherical
from circlepatterns.feasibility import FeasibilityCertificate
from circlepatterns.layout import LayoutResult
from circlepatterns.solver import SolveResult
from circlepatterns.spherical import Reduction, SphericalLayout

PUBLIC = [
    "CellularSurface", "build_surface", "surface_from_walks", "medial",
    "euler_characteristic", "vertex_angle_sums", "SurfaceError", "OPEN",
    "PatternSpec", "EUCLIDEAN", "HYPERBOLIC",
    "phi_of_rho", "value", "gradient", "hessian", "cas_from_rho", "validate_cas",
    "radii_from_rho",
]


def test_public_names_resolve():
    assert circlepatterns.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(circlepatterns, name) is not None, name


# the surface is read through its arrays; these scalar accessors are gone
REMOVED_ACCESSORS = [
    "terminus", "twin", "next_in_face", "prev_in_face", "left_face", "right_face",
    "edge_of", "edge_rep", "face_is_boundary", "vertex_fan", "vertex_is_boundary",
]


def test_surface_has_no_scalar_accessors_but_origin_and_face_walk():
    surface = circlepatterns.CellularSurface
    assert [name for name in REMOVED_ACCESSORS if hasattr(surface, name)] == []
    assert callable(surface.origin) and callable(surface.face_walk)


# only tests used these; they live in tests/oracles.py and tests/helpers.py
REMOVED_TEST_ONLY = [
    (functional, "edge_auxiliaries"),
    (LayoutResult, "flagged"),
    (meshes, "double_triangle"), (meshes, "hexagonal_torus"), (meshes, "genus2_octagon"),
]


def test_test_only_names_left_the_package():
    assert [name for owner, name in REMOVED_TEST_ONLY if hasattr(owner, name)] == []


# one line pass serves every spherical reduction, elementary or not; the
# sphere's verdict is a FeasibilityCertificate; the cut is a node mask
# that FlowResult reads off its residual network
REMOVED_PATHS = [
    (spherical, "_elementary_planar"),
    (spherical, "SphereVerdict"),
    (feasibility._ResidualNetwork, "reachable"),
]

# record fields that nothing in the package read, or that repeat another:
# an elementary reduction is one with no spec, and a spherical layout's
# caps follow its planar faces.  A field with no default is no class
# attribute, so the fields are looked up, not the attributes
REMOVED_FIELDS = [
    (Reduction, "removed_faces"), (Reduction, "removed_edges"),
    (Reduction, "dropped_vertices"), (Reduction, "surface"),
    (Reduction, "elementary"), (SphericalLayout, "faces"),
    (LayoutResult, "diameter"),
]


def test_removed_paths_and_record_fields_are_gone():
    assert [name for owner, name in REMOVED_PATHS if hasattr(owner, name)] == []
    assert [(owner.__name__, name) for owner, name in REMOVED_FIELDS
            if name in {f.name for f in dataclasses.fields(owner)}] == []
    assert [f.name for f in dataclasses.fields(Reduction)] == [
        "spec", "face_map", "edge_map", "vertex_map"]


def test_half_angles_travel_as_arrays():
    # the one-field wrapper of the half-angles is gone, and the records
    # that held it hold the array
    assert "CoherentAngleSystem" not in PUBLIC
    assert not hasattr(circlepatterns, "CoherentAngleSystem")
    assert not hasattr(functional, "CoherentAngleSystem")
    for record in (SolveResult, FeasibilityCertificate):
        names = {f.name for f in dataclasses.fields(record)}
        assert "cas" not in names and "half_angles" in names, record.__name__


def test_the_existence_check_does_not_import_the_solver():
    # feasibility reaches the grounded solve through functional, beside the
    # plan it reads
    assert [name for name, value in vars(feasibility).items()
            if value is solver or (inspect.isfunction(value)
                                   and value.__module__ == "circlepatterns.solver")] == []
    assert functional.solve_grounded.__module__ == "circlepatterns.functional"
    assert feasibility.solve_grounded is functional.solve_grounded
    assert not hasattr(solver, "solve_grounded")
