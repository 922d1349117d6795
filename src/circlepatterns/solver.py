"""Minimization of the circle pattern functionals.

Two independent methods: a damped Newton iteration with backtracking line
search (the Euclidean Newton system is solved on the zero-sum subspace,
where the functional is strictly convex), and coordinate descent in the
style of the classical radius-adjustment iteration, which minimizes the
functional in one radius at a time.  The stopping rule is the gradient
max-norm, i.e. the largest per-face angle defect |Phi_f - 2 sum(phi)|.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import functional as fn
from .functional import PatternSpec, CoherentAngleSystem

log = logging.getLogger(__name__)

NEWTON = "newton"
THURSTON = "thurston"

_ARMIJO = 1e-4


@dataclass
class SolveOptions:
    method: str = NEWTON
    grad_tol: float = 1e-10
    max_iter: int | None = None   # Newton iterations or coordinate steps
    initial_rho: np.ndarray | None = None

    def __post_init__(self):
        if self.method not in (NEWTON, THURSTON):
            raise ValueError(f"unknown method {self.method!r}")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass
class SolveResult:
    rho: np.ndarray
    cas: CoherentAngleSystem
    cas_report: fn.CASReport
    grad_norm: float
    iterations: int
    functional_value: float
    converged: bool
    message: str = ""


def _initial_rho(spec: PatternSpec, opts: SolveOptions):
    n = spec.surface.n_faces
    if opts.initial_rho is not None:
        rho = np.array(opts.initial_rho, dtype=float)
        if rho.shape != (n,):
            raise ValueError(f"initial_rho must have {n} entries")
    else:
        rho = np.zeros(n) if not spec.is_hyperbolic else np.full(n, -1.0)
    if not spec.is_hyperbolic:
        rho = rho - rho.mean()
    return rho


def _newton_direction(spec, rho, grad):
    H = fn.hessian(spec, rho)
    n = len(rho)
    # far-drifted iterates can zero out edge weights and make the system
    # exactly singular; the NaN direction is rejected by the slope check
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        if spec.is_hyperbolic:
            return spla.spsolve(H.tocsc(), -grad)
        # restrict to the zero-sum subspace through a bordered system
        ones = np.ones((n, 1))
        kkt = sp.bmat([[H, ones], [ones.T, None]], format="csc")
        rhs = np.concatenate([-(grad - grad.mean()), [0.0]])
        sol = spla.spsolve(kkt, rhs)
    return sol[:n]


def minimize(spec: PatternSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the pattern functional to its critical point.

    Assumes a feasible specification.  On infeasible data S has no
    minimiser, yet ``converged=True`` does not show feasibility: where a
    face subset fails the conditions only by equality, the gradient decays
    as rho runs off to infinity and falls below ``grad_tol`` at a finite
    rho, whose angle system then also validates at 1e-8.  Decide existence
    with ``feasibility.find_coherent_angle_system``.  Euclidean results are
    normalized to sum(rho) = 0.
    """
    opts = opts or SolveOptions()
    if opts.method == THURSTON:
        return _minimize_thurston(spec, opts)
    max_iter = opts.max_iter if opts.max_iter is not None else 200
    rho = _initial_rho(spec, opts)
    message = ""
    converged = False
    value = fn.value(spec, rho)
    iterations = 0
    for iterations in range(max_iter + 1):
        grad = fn.gradient(spec, rho)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= opts.grad_tol:
            converged = True
            break
        if iterations == max_iter:
            message = f"no convergence in {max_iter} Newton steps"
            break
        direction = _newton_direction(spec, rho, grad)
        slope = float(grad @ direction)
        if not np.isfinite(slope) or slope >= 0.0:
            message = "Newton direction is not a descent direction"
            break
        step = 1.0
        for _ in range(60):
            trial = rho + step * direction
            trial_value = fn.value(spec, trial)
            # the rounding slack keeps the search from stalling once the
            # true decrease drops below float resolution of S
            if trial_value <= value + _ARMIJO * step * slope + 1e-14 * (1.0 + abs(value)):
                break
            step *= 0.5
        else:
            message = "line search failed"
            break
        rho = trial
        if not spec.is_hyperbolic:
            rho = rho - rho.mean()
        value = trial_value
        log.debug("newton iter %d: grad %.3e step %.3g S %.12g",
                  iterations + 1, grad_norm, step, value)
    return _finish(spec, rho, iterations, converged, message)


def _finish(spec, rho, iterations, converged, message):
    if not spec.is_hyperbolic:
        rho = rho - rho.mean()
    grad = fn.gradient(spec, rho)
    cas, report = fn.cas_from_rho(spec, rho)
    if converged and spec.is_hyperbolic and np.any(rho >= 0.0):
        converged = False
        message = "stationary point with nonnegative rho; data are not hyperbolic-feasible"
    return SolveResult(
        rho=rho, cas=cas, cas_report=report,
        grad_norm=float(np.abs(grad).max()),
        iterations=iterations,
        functional_value=fn.value(spec, rho),
        converged=converged, message=message)


# -- coordinate descent --------------------------------------------------------

def thurston_step(spec: PatternSpec, rho, f: int):
    """Replace rho_f by the minimizer of S in the coordinate direction f.

    The partial derivative is strictly increasing in rho_f, so the
    one-dimensional problem is solved by safeguarded Newton iteration on
    dS/drho_f = 0 with an expanding bracket.
    """
    rho = np.asarray(rho, dtype=float)
    srf = spec.surface
    walk = np.array(srf.face_walk(f), dtype=np.intp)
    rights = srf.oe_right[walk]
    thetas = spec.theta[srf.oe_edge[walk]]
    target = spec.phi[f]
    hyperbolic = spec.is_hyperbolic

    def g_and_slope(t):
        others = np.where(rights == f, t, rho[rights])
        x = others - t
        from .specfun import im_li2_dx
        phi = im_li2_dx(x, thetas)
        # d phi/dt: self edges have constant x
        w = fn._edge_weights(x, thetas)
        dphi = np.where(rights == f, 0.0, -0.5 * w)
        if hyperbolic:
            sig = others + t
            phi = phi - im_li2_dx(sig, thetas)
            wp = fn._edge_weights(sig, thetas)
            dphi = dphi - np.where(rights == f, wp, 0.5 * wp)
        return target - 2.0 * phi.sum(), -2.0 * dphi.sum()

    t = float(rho[f])
    g, slope = g_and_slope(t)
    lo, hi = t, t
    glo, ghi = g, g
    step = 1.0
    for _ in range(200):
        if glo <= 0.0 <= ghi:
            break
        if glo > 0.0:
            lo -= step
            glo, _ = g_and_slope(lo)
        if ghi < 0.0:
            hi += step
            ghi, _ = g_and_slope(hi)
        step *= 2.0
    else:
        raise RuntimeError(f"no bracket for the coordinate minimum of face {f}; "
                           f"the data are likely infeasible")
    for _ in range(100):
        g, slope = g_and_slope(t)
        if abs(g) <= 1e-14 * max(1.0, abs(target)):
            break
        if g > 0.0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
        t_new = t - g / slope if slope > 0.0 else t
        if not (lo <= t_new <= hi):
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            break
        t = t_new
    return t


def _minimize_thurston(spec: PatternSpec, opts: SolveOptions) -> SolveResult:
    max_steps = opts.max_iter if opts.max_iter is not None else 100000
    rho = _initial_rho(spec, opts)
    n = spec.surface.n_faces
    steps = 0
    converged = False
    message = ""
    while True:
        grad_norm = float(np.abs(fn.gradient(spec, rho)).max())
        if grad_norm <= opts.grad_tol:
            converged = True
            break
        if steps >= max_steps:
            message = f"no convergence in {max_steps} coordinate steps"
            break
        try:
            for f in range(n):
                rho[f] = thurston_step(spec, rho, f)
                steps += 1
        except RuntimeError as exc:
            message = str(exc)
            break
        if not spec.is_hyperbolic:
            rho = rho - rho.mean()
    return _finish(spec, rho, steps, converged, message)
