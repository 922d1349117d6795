"""Circle patterns with prescribed intersection and cone angles.

The package is the pipeline of the ``circlepatterns`` command: surface,
medial decomposition, existence check through coherent angle systems and
a feasible flow, minimisation of the convex Euclidean or hyperbolic
functional, layout in the plane, the Poincare disk or on the sphere, and
deterministic JSON and SVG export.
"""

from .surface import (
    CellularSurface, build_surface, surface_from_walks, medial,
    euler_characteristic, vertex_angle_sums, SurfaceError, OPEN,
)
from .functional import (
    PatternSpec, EUCLIDEAN, HYPERBOLIC,
    phi_of_rho, value, gradient, hessian, cas_from_rho, validate_cas,
    radii_from_rho,
)

__all__ = [
    "CellularSurface", "build_surface", "surface_from_walks", "medial",
    "euler_characteristic", "vertex_angle_sums", "SurfaceError", "OPEN",
    "PatternSpec", "EUCLIDEAN", "HYPERBOLIC",
    "phi_of_rho", "value", "gradient", "hessian", "cas_from_rho", "validate_cas",
    "radii_from_rho",
]

__version__ = "0.1.0"
