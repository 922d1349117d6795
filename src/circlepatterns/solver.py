"""Minimization of the circle pattern functionals.

Both functionals are convex and their critical points are exactly the
patterns, so one minimiser serves both: a damped Newton iteration with a
capped step and backtracking line search.  The stopping rule is the
gradient max-norm, i.e. the largest per-face angle defect
|Phi_f - 2 sum(phi)|.  Inside the rounding floor of the face residuals
the residual only wanders over a few rounding levels, so a tolerance below
that floor is given up once the residual has set no new low there for
_FLOOR_PATIENCE steps.

The cap keeps far starts from overshooting, but near the minimiser S is
almost exactly quadratic over one Newton step, and the cap would cut a long
step the model predicts well.  So a capped Newton direction first tries its
full step, if it is no longer than _MAX_FULL_STEP, and keeps it when S
falls by at least _MODEL_RATIO of the quadratic model's decrease -slope/2:
the ratio test of a trust region whose radius never exceeds
_MAX_FULL_STEP (Nocedal & Wright, Numerical Optimization, Alg. 4.1).  The
model decrease is -slope/2 because d'Hd = -g'd, both for the grounded
direct solve and for a CG iterate from zero.  The largest radius matters
on infeasible data, where rho runs off to infinity and S falls almost
linearly along ever longer directions: their full steps would pass the
test and grow geometrically.  A refused full step costs one edge pass, and
the search then runs from the capped step as if it had not been tried.

Each iterate costs one pass over the edges: ``functional.value_and_phi``
gives S for the line search together with the half-angles of the same rho,
those of ``functional.phi_of_rho`` bit for bit.  Their face residuals are
the next gradient, decide convergence, and the result reports them.

The Euclidean functional does not change when a constant is added to every
rho, so its Hessian is a weighted Laplacian of the dual graph whose kernel
is exactly the constants.  The Newton system is then solved grounded and
directly: face 0 is held fixed, the remaining faces solve the nonsingular
system for the mean-free gradient, and the direction is shifted onto the
zero-sum subspace, where the functional is strictly convex.  Every Newton
system of a pattern has the sparsity pattern of the unit-weight Laplacian,
so its minimum degree order (J. W. H. Liu, ACM TOMS 11, 1985) is computed
once per pattern, together with that Laplacian's factor, which the
Euclidean angle repair of ``feasibility.repair_angles`` solves with
(``functional.solve_grounded``).  Each step factorises its own Hessian.
Every factor is made in SuperLU's symmetric mode, whose postorder of the
elimination tree of the symmetric system keeps a mesh numbered at random
as fast to factorise as a regularly numbered one.

The hyperbolic Hessian is positive definite and well conditioned, so its
Newton system is solved inexactly, by conjugate gradients with the Jacobi
preconditioner from zero to the relative residual _FORCING.  A small fixed
forcing term keeps the Newton step count of the exact solve (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 1982).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import functional as fn
from .functional import PatternSpec

log = logging.getLogger(__name__)

NEWTON = "newton"   # the method the solve report names

_ARMIJO = 1e-4
_MAX_STEP = 2.0   # largest change of any rho in a searched step
# a capped Newton direction no longer than _MAX_FULL_STEP keeps its full
# step when S falls by this share of the quadratic model's decrease
_MODEL_RATIO = 0.75
_MAX_FULL_STEP = 8.0
# steps without a new low of the residual inside the rounding floor
# before a tolerance below that floor is given up
_FLOOR_PATIENCE = 8
# hyperbolic Newton systems: |H d + g| <= _FORCING |g| in at most
# _CG_MAX_ITER CG steps; an iterate cut off by the cap is still downhill
_FORCING = 1e-6
_CG_MAX_ITER = 200


@dataclass
class SolveOptions:
    grad_tol: float = 1e-10
    max_iter: int = 200   # Newton iterations
    initial_rho: np.ndarray | None = None

    def __post_init__(self):
        if (not isinstance(self.grad_tol, numbers.Real) or isinstance(self.grad_tol, bool)
                or not (math.isfinite(self.grad_tol) and self.grad_tol > 0)):
            raise ValueError(f"grad_tol must be a finite positive number, "
                             f"got {self.grad_tol!r}")
        if (not isinstance(self.max_iter, numbers.Integral)
                or isinstance(self.max_iter, bool) or self.max_iter < 0):
            raise ValueError(f"max_iter must be a nonnegative integer, "
                             f"got {self.max_iter!r}")


@dataclass
class SolveResult:
    """The last rho of :func:`minimize`, its half-angles and their report."""
    rho: np.ndarray
    half_angles: np.ndarray
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
    """Hyperbolic: the inexact CG direction.  Euclidean: the direct,
    grounded solve of H d = -(grad - mean grad), shifted to zero sum."""
    H = fn.hessian(spec, rho)
    if spec.is_hyperbolic:
        return _cg_direction(H, grad)
    # far-drifted iterates can zero out edge weights and make the system
    # exactly singular; minimize replaces the NaN direction by the gradient
    return fn.solve_grounded(spec, -(grad - grad.mean()), H)


def _cg_direction(H, grad):
    """Jacobi-preconditioned CG on H d = -grad from d = 0, stopped at the
    relative residual _FORCING or after _CG_MAX_ITER steps.  Every CG
    iterate from zero is downhill.  A diagonal entry that is not positive
    (the weights of a face flushed to zero or cancelled) leaves H singular;
    like a singular direct solve this gives NaN, which minimize replaces by
    the gradient."""
    diag = H.diagonal()
    if not np.all(diag > 0.0):
        return np.full(len(grad), np.nan)
    # subnormal weights can still overflow the scaling or a CG scalar; the
    # non-finite direction falls back to the gradient
    with np.errstate(all="ignore"):
        scale = 1.0 / diag
        precondition = spla.LinearOperator(H.shape, matvec=lambda r: scale * r, dtype=float)
        direction, _ = spla.cg(H, -grad, rtol=_FORCING, maxiter=_CG_MAX_ITER, M=precondition)
    return direction


def _trial(spec, rho, step, direction):
    """rho + step * direction, centred for Euclidean data, with its S and
    half-angles from one edge pass."""
    trial = rho + step * direction
    if not spec.is_hyperbolic:
        trial = trial - trial.mean()
    return (trial, *fn.value_and_phi(spec, trial))


def _full_step(spec, rho, direction, value, slope):
    """The full Newton step as a trial if S falls by at least _MODEL_RATIO
    of the model's decrease -slope/2 there, else None."""
    trial = _trial(spec, rho, 1.0, direction)
    return trial if value - trial[1] >= -0.5 * _MODEL_RATIO * slope else None


def minimize(spec: PatternSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the pattern functional to its critical point by Newton's
    method, in at most ``opts.max_iter`` steps.

    Newton steps are capped at 2 in the max-norm of rho before the Armijo
    backtracking, and a direction that is not finite or not downhill is
    replaced by the negative gradient, so on feasible data the iteration
    converges from any finite start (the functional is convex).  A capped
    Newton direction (never the gradient) at most 8 long first evaluates its
    full step and takes it when S falls there by at least 3/4 of the
    quadratic model's decrease -slope/2; otherwise the search starts from
    the capped step.

    Inside the rounding floor of the face residuals, 16 ulp(pi) times the
    largest face degree, the residual wanders over a few rounding
    levels.  Once it has set no new low there for 8 steps, the iteration
    stops with ``converged=False`` and a message naming the step, the
    residual and the floor; a ``grad_tol`` that the wandering would still
    have met by chance is given up too.

    Each line-search trial is one edge pass, and the accepted trial's
    half-angles give the next gradient.  Euclidean trials are centred before
    their pass, so ``functional_value`` is the S of the returned rho, bit
    for bit, and ``half_angles`` holds ``phi_of_rho`` there.  A Euclidean
    residual the same on every face means a failed total equality, or,
    inside the floor, rounding.  A converged hyperbolic rho >= 0 names its face.

    On infeasible data S has no minimiser, yet ``converged=True`` is still
    no proof of feasibility: where a face subset fails the conditions only
    by equality, the gradient decays as rho runs off to infinity and falls
    below ``grad_tol`` at a finite rho, whose angle system then also
    validates at 1e-8.  Existence is decided by
    ``feasibility.find_coherent_angle_system(spec, result.half_angles)``,
    whose certificate refuses such a result and leaves the verdict to the flow.
    Euclidean results are normalized to sum(rho) = 0.
    """
    opts = opts or SolveOptions()
    rho = _initial_rho(spec, opts)
    message, converged = "", False
    value, phi = fn.value_and_phi(spec, rho)
    # each half-angle is rounded to a few ulp of pi (8 allowed), so a face
    # residual to up to 2 deg(f) times that
    floor = 16.0 * np.spacing(np.pi) * np.bincount(spec.surface.oe_left).max()
    floor_best, floor_stale = math.inf, 0   # residuals inside the floor
    for iterations in range(opts.max_iter + 1):
        grad = fn.face_residuals(spec, phi)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= opts.grad_tol:
            converged = True
            break
        if grad_norm <= floor:
            # inside the floor the residual wanders over a few rounding
            # levels; stop once it has set no new low for a while
            floor_stale = floor_stale + 1 if grad_norm >= floor_best else 0
            floor_best = min(floor_best, grad_norm)
            if floor_stale == _FLOOR_PATIENCE:
                message = (f"stopped at Newton step {iterations}: residual {grad_norm:.3g}, "
                           f"no new low in {_FLOOR_PATIENCE} steps inside the rounding "
                           f"floor {floor:.3g}")
                break
        if iterations == opts.max_iter:
            message = f"no convergence in {opts.max_iter} Newton steps"
            break
        direction = _newton_direction(spec, rho, grad)
        slope = float(grad @ direction)
        newton = math.isfinite(slope) and slope < 0.0
        if not newton:
            direction = -grad if spec.is_hyperbolic else grad.mean() - grad
            slope = float(grad @ direction)
            if slope >= 0.0:
                # a constant Euclidean gradient: the total equality fails,
                # unless the constant is rounding
                message = (f"stopped at Newton step {iterations}: residual {grad_norm:.3g}, "
                           f"the same on every face, inside the rounding floor {floor:.3g}"
                           if grad_norm <= floor else "no descent direction")
                break
        # no searched step changes a rho by more than _MAX_STEP (Nocedal &
        # Wright, ch. 3), so from far starts the search still finds a decrease
        length = float(np.abs(direction).max())
        step = min(1.0, _MAX_STEP / length)
        accepted = None
        if newton and _MAX_STEP < length <= _MAX_FULL_STEP:
            accepted = _full_step(spec, rho, direction, value, slope)
        if accepted is not None:
            step = 1.0
        else:
            for _ in range(60):
                accepted = _trial(spec, rho, step, direction)
                # the rounding slack keeps the search from stalling once the
                # true decrease drops below float resolution of S
                if accepted[1] <= value + _ARMIJO * step * slope + 1e-14 * (1.0 + abs(value)):
                    break
                step *= 0.5
            else:
                message = "line search failed"
                break
        rho, value, phi = accepted
        log.debug("newton iter %d: grad %.3e step %.3g S %.12g",
                  iterations + 1, grad_norm, step, value)
    report = fn.validate_cas(spec, phi)
    if converged and spec.is_hyperbolic and rho.max() >= 0.0:
        # the half-angles of such a face are <= 0: its Phi is within grad_tol
        f, converged = int(rho.argmax()), False
        message = (f"face {f} has rho = {rho[f]:.3g} >= 0 with Phi = {spec.phi[f]:.3g}: "
                   f"its hyperbolic radius is beyond float resolution")
    return SolveResult(rho=rho, half_angles=phi, cas_report=report,
                       grad_norm=report.max_face_residual, iterations=iterations,
                       functional_value=value, converged=converged, message=message)
