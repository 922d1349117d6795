"""The Euclidean and hyperbolic circle pattern functionals.

A pattern is specified by a cellular surface, interior intersection angles
theta* in (0, pi) per unoriented edge and target cone (or boundary) angles
Phi > 0 per face.  The unknown is the logarithmic radius rho per face,
rho = log r in the Euclidean case and rho = log tanh(r/2) in the
hyperbolic case.  The kite half-angle at the center of the face left of an
oriented edge is

    phi_e = y(rho_k - rho_j, theta)                      (Euclidean)
    phi_e = y(rho_k - rho_j, theta) - y(rho_k + rho_j, theta)   (hyperbolic)

with theta = pi - theta*, f_j/f_k the faces left/right of e, and
y(x, theta) = atan2(e^x sin theta, 1 - e^x cos theta).  The functionals
are convex with gradient Phi_f - 2 sum phi_e over the boundary of f; their
values are evaluated in closed form with Clausen's integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import specfun
from .surface import CellularSurface

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"


class PatternSpec:
    """Surface + geometry + per-edge theta* + per-face Phi.

    theta* must lie strictly in (0, pi) and Phi must be finite and
    positive.  The exterior angle theta = pi - theta* is computed once, in
    the constructor, and stored as ``theta``.
    """

    def __init__(self, surface: CellularSurface, geometry: str, theta_star, phi):
        if geometry not in (EUCLIDEAN, HYPERBOLIC):
            raise ValueError(f"geometry must be '{EUCLIDEAN}' or '{HYPERBOLIC}'")
        theta_star = np.asarray(theta_star, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if theta_star.shape != (surface.n_edges,):
            raise ValueError(f"theta_star must have {surface.n_edges} entries")
        if phi.shape != (surface.n_faces,):
            raise ValueError(f"phi must have {surface.n_faces} entries")
        # written so that NaN and infinities fail
        if not np.all((theta_star > 0.0) & (theta_star < np.pi)):
            raise ValueError("theta_star must lie strictly in (0, pi)")
        if not np.all((phi > 0.0) & (phi < np.inf)):
            raise ValueError("phi must be finite and positive")
        self.surface = surface
        self.geometry = geometry
        self.theta_star = theta_star
        self.phi = phi
        self.theta = np.pi - theta_star

    @property
    def is_hyperbolic(self):
        return self.geometry == HYPERBOLIC

    @cached_property
    def _clausen_2theta_star(self):
        """Cl(2 theta*) per edge, the constant of every edge term of S."""
        return specfun.clausen(2.0 * self.theta_star)

    @cached_property
    def _edge_trig(self):
        """sin theta and cos theta per edge, the constants of the Hessian
        weights."""
        trig = (np.sin(self.theta), np.cos(self.theta))
        for arr in trig:
            arr.flags.writeable = False
        return trig

    @cached_property
    def _hessian_pattern(self):
        return _build_hessian_pattern(self)

    def __repr__(self):
        return f"PatternSpec({self.geometry}, {self.surface!r})"


def radii_from_rho(geometry: str, rho):
    """r = e^rho (Euclidean) or r = 2 artanh(e^rho) (hyperbolic, rho < 0)."""
    rho = np.asarray(rho, dtype=float)
    if geometry == EUCLIDEAN:
        return np.exp(rho)
    if np.any(rho >= 0.0):
        raise ValueError("hyperbolic radii require rho < 0")
    return 2.0 * np.arctanh(np.exp(rho))


def _check_rho(spec, rho):
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (spec.surface.n_faces,):
        raise ValueError(f"rho must have {spec.surface.n_faces} entries")
    return rho


def _edge_angles(spec, rho):
    """x = rho_k - rho_j and sigma = rho_k + rho_j per edge, the rows y(x),
    y(-x) and (hyperbolic) y(sigma) of one ``specfun.im_li2_dx`` call, and
    the half-angles per oriented edge: y(x) on the edge's representative and
    y(-x) on its twin, less y(sigma) for hyperbolic data."""
    srf = spec.surface
    rj = rho[srf.edge_left]
    rk = rho[srf.edge_right]
    x = rk - rj
    sig = rk + rj
    rows = (x, -x, sig) if spec.is_hyperbolic else (x, -x)
    y = specfun.im_li2_dx(np.stack(rows), spec.theta)
    phi_rep, phi_twin = (y[0] - y[2], y[1] - y[2]) if spec.is_hyperbolic else y
    phi = np.empty(srf.n_oriented_edges)
    phi[srf.edge_reps] = phi_rep
    phi[srf.oe_twin[srf.edge_reps]] = phi_twin
    return x, sig, y, phi


def phi_of_rho(spec: PatternSpec, rho):
    """Half-angles phi per oriented edge."""
    return _edge_angles(spec, _check_rho(spec, rho))[3]


def value_and_phi(spec: PatternSpec, rho):
    """S(rho) and the half-angles phi per oriented edge, in one edge pass.

    Per edge, (y(x) - y(-x)) x + Cl(2 y(x)) + Cl(2 y(-x)) - Cl(2 theta*)
    with x = rho_k - rho_j is Im Li2(e^{x + i theta}) + Im Li2(e^{-x + i theta});
    the Euclidean functional subtracts theta* (rho_k + rho_j), the
    hyperbolic one adds the same term at sigma = rho_k + rho_j, with
    y(-sigma) = theta* - y(sigma).  The half-angles are those of
    ``phi_of_rho``, bit for bit, and all Clausen values come from one call.
    """
    rho = _check_rho(spec, rho)
    ts = spec.theta_star
    x, sig, y, phi = _edge_angles(spec, rho)
    if spec.is_hyperbolic:
        y = np.vstack([y, ts - y[2]])
        linear = (y[0] - y[1]) * x + (y[2] - y[3]) * sig
    else:
        linear = (y[0] - y[1]) * x - ts * sig
    cl = specfun.clausen(2.0 * y)
    edge_terms = linear + cl.sum(axis=0) - (len(y) // 2) * spec._clausen_2theta_star
    return float(edge_terms.sum() + spec.phi @ rho), phi


def value(spec: PatternSpec, rho):
    """Functional value S(rho), in closed form (see ``value_and_phi``)."""
    return value_and_phi(spec, rho)[0]


def face_residuals(spec: PatternSpec, phi):
    """Phi_f - 2 sum of the half-angles phi over the boundary walk of f."""
    srf = spec.surface
    return spec.phi - 2.0 * np.bincount(srf.oe_left, weights=phi, minlength=srf.n_faces)


def gradient(spec: PatternSpec, rho):
    """dS/drho_f = Phi_f - 2 sum of phi over the boundary walk of f."""
    return face_residuals(spec, phi_of_rho(spec, rho))


def _edge_weights(x, sin_theta, cos_theta):
    """sin(theta) / (cosh(x) - cos(theta)), flushed to 0 for huge |x|."""
    with np.errstate(over="ignore"):
        w = sin_theta / (np.cosh(x) - cos_theta)
    return np.where(np.abs(x) > 700.0, 0.0, w)


def _build_hessian_pattern(spec):
    """The CSR pattern of the Hessian and how its contributions sum into it.

    The contributions are the blocks (j, j), (k, k), (j, k), (k, j) of the
    weight at rho_k - rho_j, then (hyperbolic) the same four of the weight
    at rho_k + rho_j.  Returns (indptr, indices, order, slot): the
    contributions listed in ``order`` add up, one after another, into data
    entry ``slot``.  The order is the one in which scipy's COO to CSR
    conversion sums duplicates (a stable grouping by row, then its sort of
    every row by column), so the data are bit for bit those of that
    conversion.
    """
    srf = spec.surface
    n = srf.n_faces
    j, k = srf.edge_left, srf.edge_right
    blocks = 2 if spec.is_hyperbolic else 1
    rows = np.concatenate([j, k, j, k] * blocks)
    cols = np.concatenate([j, k, k, j] * blocks)
    # the conversion's sort moves (column, value) pairs by column alone, so
    # sorting contribution ids as values shows the order it sums them in
    by_row = np.argsort(rows, kind="stable")
    grouped = sp.csr_matrix(
        (by_row.astype(float), cols[by_row],
         np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])), shape=(n, n))
    grouped.sort_indices()
    order = grouped.data.astype(np.intp)
    row, col = rows[order], grouped.indices
    first = np.ones(len(order), dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(row[first], minlength=n))])
    pattern = (indptr.astype(np.intc), col[first].astype(np.intc), order,
               np.cumsum(first) - 1)
    for arr in pattern:
        arr.flags.writeable = False
    return pattern


def hessian(spec: PatternSpec, rho) -> sp.csr_matrix:
    """Sparse Hessian of S at rho.

    Per edge the quadratic form carries sin(theta)/(cosh(drho)-cos(theta))
    on (drho_j - drho_k)^2, plus the same weight at rho_j + rho_k on
    (drho_j + drho_k)^2 in the hyperbolic case.  The Euclidean kernel is
    exactly the constants; the hyperbolic form is positive definite.  The
    sparsity pattern is built once per spec; each call sums the weights
    into it with one ``np.bincount``.
    """
    rho = _check_rho(spec, rho)
    srf = spec.surface
    j = srf.edge_left
    k = srf.edge_right
    sin_t, cos_t = spec._edge_trig
    wm = _edge_weights(rho[k] - rho[j], sin_t, cos_t)
    vals = [wm, wm, -wm, -wm]
    if spec.is_hyperbolic:
        wp = _edge_weights(rho[k] + rho[j], sin_t, cos_t)
        vals += [wp, wp, wp, wp]
    indptr, indices, order, slot = spec._hessian_pattern
    data = np.bincount(slot, weights=np.concatenate(vals)[order], minlength=len(indices))
    n = srf.n_faces
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


# -- coherent angle systems ---------------------------------------------------

@dataclass(frozen=True)
class CoherentAngleSystem:
    """Half-angles phi per oriented edge."""
    phi: np.ndarray


@dataclass(frozen=True)
class CASReport:
    """Validity of the coherent angle system (in)equalities."""
    geometry: str
    min_phi: float
    max_pair_residual: float   # Euclidean: |phi_e + phi_-e - theta*|
    min_pair_slack: float      # hyperbolic: theta* - phi_e - phi_-e
    max_face_residual: float   # |Phi_f - 2 sum phi|

    def is_valid(self, tol=1e-9):
        if self.min_phi <= 0.0 or self.max_face_residual > tol:
            return False
        if self.geometry == EUCLIDEAN:
            return self.max_pair_residual <= tol
        return self.min_pair_slack > 0.0


def validate_cas(spec: PatternSpec, cas: CoherentAngleSystem) -> CASReport:
    srf = spec.surface
    phi = np.asarray(cas.phi, dtype=float)
    if phi.shape != (srf.n_oriented_edges,):
        raise ValueError("phi must have one entry per oriented edge")
    pair = phi[srf.edge_reps] + phi[srf.oe_twin[srf.edge_reps]]
    return CASReport(
        geometry=spec.geometry,
        min_phi=float(phi.min()),
        max_pair_residual=float(np.abs(pair - spec.theta_star).max()),
        min_pair_slack=float((spec.theta_star - pair).min()),
        max_face_residual=float(np.abs(face_residuals(spec, phi)).max()),
    )


def cas_from_rho(spec: PatternSpec, rho):
    """Candidate coherent angle system at rho together with its validity.

    The system satisfies the CAS conditions exactly when rho is a critical
    point of the functional; elsewhere the report records the violations.
    """
    cas = CoherentAngleSystem(phi=phi_of_rho(spec, rho))
    return cas, validate_cas(spec, cas)
