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

import numpy as np
import scipy.sparse as sp

from . import specfun
from .surface import CellularSurface

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"


class InvalidCASError(ValueError):
    """A coherent angle system failed its defining (in)equalities."""


class PatternSpec:
    """Surface + geometry + per-edge theta* + per-face Phi.

    theta* must lie strictly in (0, pi) and Phi must be positive.  The
    exterior angle theta = pi - theta* is derived, never stored.
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
        if np.any(theta_star <= 0.0) or np.any(theta_star >= np.pi):
            raise ValueError("theta_star must lie strictly in (0, pi)")
        if np.any(phi <= 0.0):
            raise ValueError("phi must be positive")
        self.surface = surface
        self.geometry = geometry
        self.theta_star = theta_star
        self.phi = phi
        self.theta = np.pi - theta_star

    @property
    def is_hyperbolic(self):
        return self.geometry == HYPERBOLIC

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


def phi_of_rho(spec: PatternSpec, rho, e=None):
    """Half-angles phi per oriented edge (or for one oriented edge e)."""
    rho = _check_rho(spec, rho)
    s = spec.surface
    theta = spec.theta[s.oe_edge]
    x = rho[s.oe_right] - rho[s.oe_left]
    phi = specfun.im_li2_dx(x, theta)
    if spec.is_hyperbolic:
        phi = phi - specfun.im_li2_dx(rho[s.oe_right] + rho[s.oe_left], theta)
    return phi if e is None else float(phi[e])


def edge_auxiliaries(spec: PatternSpec, rho):
    """The conjugate variables (p, s) per unoriented edge (canonical reps).

    tan(p/2) = tan(theta*/2) tanh((rho_k - rho_j)/2) and likewise s with
    rho_k + rho_j; p is antisymmetric under orientation reversal, s is
    symmetric.
    """
    rho = _check_rho(spec, rho)
    srf = spec.surface
    half_tan = np.tan(0.5 * spec.theta_star)
    x = rho[srf.edge_right] - rho[srf.edge_left]
    sig = rho[srf.edge_right] + rho[srf.edge_left]
    p = 2.0 * np.arctan(half_tan * np.tanh(0.5 * x))
    s = 2.0 * np.arctan(half_tan * np.tanh(0.5 * sig))
    return p, s


def value(spec: PatternSpec, rho):
    """Functional value S(rho), from the closed form in Clausen's integral.

    Per edge, p*x + Cl(theta* + p) + Cl(theta* - p) - Cl(2 theta*) with
    x = rho_k - rho_j is Im Li2(e^{x + i theta}) + Im Li2(e^{-x + i theta});
    the hyperbolic functional adds the same term at rho_k + rho_j.
    """
    rho = _check_rho(spec, rho)
    srf = spec.surface
    ts = spec.theta_star
    rj = rho[srf.edge_left]
    rk = rho[srf.edge_right]
    x = rk - rj
    sig = rk + rj
    p, s = edge_auxiliaries(spec, rho)
    edge_terms = (p * x + specfun.clausen(ts + p) + specfun.clausen(ts - p)
                  - specfun.clausen(2.0 * ts))
    if spec.is_hyperbolic:
        edge_terms = edge_terms + (
            s * sig + specfun.clausen(ts + s) + specfun.clausen(ts - s)
            - specfun.clausen(2.0 * ts))
    else:
        edge_terms = edge_terms - ts * sig
    return float(edge_terms.sum() + spec.phi @ rho)


def gradient(spec: PatternSpec, rho):
    """dS/drho_f = Phi_f - 2 sum of phi over the boundary walk of f."""
    rho = _check_rho(spec, rho)
    srf = spec.surface
    acc = np.zeros(srf.n_faces)
    np.add.at(acc, srf.oe_left, phi_of_rho(spec, rho))
    return spec.phi - 2.0 * acc


def _edge_weights(x, theta):
    """sin(theta) / (cosh(x) - cos(theta)), flushed to 0 for huge |x|."""
    with np.errstate(over="ignore"):
        w = np.sin(theta) / (np.cosh(x) - np.cos(theta))
    return np.where(np.abs(x) > 700.0, 0.0, w)


def hessian(spec: PatternSpec, rho) -> sp.csr_matrix:
    """Sparse Hessian of S at rho.

    Per edge the quadratic form carries sin(theta)/(cosh(drho)-cos(theta))
    on (drho_j - drho_k)^2, plus the same weight at rho_j + rho_k on
    (drho_j + drho_k)^2 in the hyperbolic case.  The Euclidean kernel is
    exactly the constants; the hyperbolic form is positive definite.
    """
    rho = _check_rho(spec, rho)
    srf = spec.surface
    j = srf.edge_left
    k = srf.edge_right
    th = spec.theta
    wm = _edge_weights(rho[k] - rho[j], th)
    rows = [j, k, j, k]
    cols = [j, k, k, j]
    vals = [wm, wm, -wm, -wm]
    if spec.is_hyperbolic:
        wp = _edge_weights(rho[k] + rho[j], th)
        rows += [j, k, j, k]
        cols += [j, k, k, j]
        vals += [wp, wp, wp, wp]
    n = srf.n_faces
    H = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n))
    return H.tocsr()


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
    face = np.zeros(srf.n_faces)
    np.add.at(face, srf.oe_left, phi)
    return CASReport(
        geometry=spec.geometry,
        min_phi=float(phi.min()),
        max_pair_residual=float(np.abs(pair - spec.theta_star).max()),
        min_pair_slack=float((spec.theta_star - pair).min()),
        max_face_residual=float(np.abs(spec.phi - 2.0 * face).max()),
    )


def cas_from_rho(spec: PatternSpec, rho):
    """Candidate coherent angle system at rho together with its validity.

    The system satisfies the CAS conditions exactly when rho is a critical
    point of the functional; elsewhere the report records the violations.
    """
    cas = CoherentAngleSystem(phi=phi_of_rho(spec, rho))
    return cas, validate_cas(spec, cas)


def hamiltonian_reduced(spec: PatternSpec, cas: CoherentAngleSystem, tol=1e-8):
    """Value of the constrained angle functional on a coherent angle system.

    Euclidean: sum over oriented edges of Cl(2 phi_e) + Cl(2 theta_e)/2.
    Hyperbolic: per unoriented edge,
        Cl(th*+p) + Cl(th*-p) + Cl(th*+s) + Cl(th*-s) - 2 Cl(2 th*)
    with p = phi_e - phi_-e and s = -(phi_e + phi_-e).  Independent of any
    radii; equals S(rho*) at critical points.
    """
    report = validate_cas(spec, cas)
    if not report.is_valid(tol):
        raise InvalidCASError(f"not a coherent angle system: {report}")
    srf = spec.surface
    phi = cas.phi
    if not spec.is_hyperbolic:
        th_oe = spec.theta[srf.oe_edge]
        return float(np.sum(specfun.clausen(2.0 * phi)
                            + 0.5 * specfun.clausen(2.0 * th_oe)))
    reps = srf.edge_reps
    ts = spec.theta_star
    p = phi[reps] - phi[srf.oe_twin[reps]]
    s = -(phi[reps] + phi[srf.oe_twin[reps]])
    return float(np.sum(specfun.clausen(ts + p) + specfun.clausen(ts - p)
                        + specfun.clausen(ts + s) + specfun.clausen(ts - s)
                        - 2.0 * specfun.clausen(2.0 * ts)))


def rho_from_cas(spec: PatternSpec, cas: CoherentAngleSystem, tol=1e-8):
    """Recover rho from a coherent angle system; returns (rho, residual).

    Euclidean: integrates rho_k - rho_j = log(sin phi_e / sin(phi_e + theta))
    over a spanning tree of the dual graph and reports the largest cycle
    inconsistency; the result is normalized to sum to zero.  Hyperbolic:
    evaluates the per-face closed form from every incident oriented edge
    and reports the largest disagreement.  A residual above ``tol`` means
    the system is not the angle system of any critical point.
    """
    report = validate_cas(spec, cas)
    if report.min_phi <= 0.0:
        raise InvalidCASError("phi must be positive")
    srf = spec.surface
    phi = cas.phi

    if spec.is_hyperbolic:
        ts = spec.theta_star[srf.oe_edge]
        fe = phi
        fo = phi[srf.oe_twin]
        num = np.sin(0.5 * (ts - fe - fo)) * np.sin(0.5 * (ts - fe + fo))
        den = np.sin(0.5 * (ts + fe + fo)) * np.sin(0.5 * (ts + fe - fo))
        if np.any(num <= 0.0) or np.any(den <= 0.0):
            raise InvalidCASError("angle system leaves the hyperbolic domain")
        est = 0.5 * np.log(num / den)
        rho = np.zeros(srf.n_faces)
        counts = np.zeros(srf.n_faces)
        np.add.at(rho, srf.oe_left, est)
        np.add.at(counts, srf.oe_left, 1.0)
        rho /= counts
        residual = float(np.abs(est - rho[srf.oe_left]).max())
        return rho, residual

    theta_oe = spec.theta[srf.oe_edge]
    delta = np.log(np.sin(phi) / np.sin(phi + theta_oe))  # rho_right - rho_left
    n = srf.n_faces
    rho = np.full(n, np.nan)
    rho[0] = 0.0
    tree_used = np.zeros(srf.n_oriented_edges, dtype=bool)
    queue = [0]
    adj = [[] for _ in range(n)]
    for h in range(srf.n_oriented_edges):
        adj[srf.oe_left[h]].append(h)
    while queue:
        f = queue.pop()
        for h in adj[f]:
            g = srf.oe_right[h]
            if np.isnan(rho[g]):
                rho[g] = rho[f] + delta[h]
                tree_used[h] = True
                tree_used[srf.oe_twin[h]] = True
                queue.append(g)
    residual = float(np.abs(delta - (rho[srf.oe_right] - rho[srf.oe_left])).max())
    rho -= rho.mean()
    return rho, residual
