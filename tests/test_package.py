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
