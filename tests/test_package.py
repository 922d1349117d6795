"""The package's public names."""

import circlepatterns

PUBLIC = [
    "CellularSurface", "build_surface", "surface_from_walks", "medial",
    "euler_characteristic", "vertex_angle_sums", "SurfaceError", "OPEN",
    "PatternSpec", "CoherentAngleSystem", "EUCLIDEAN", "HYPERBOLIC",
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
