"""Minimization of the circle pattern functionals.

Both functionals are convex and their critical points are exactly the
patterns, so one minimiser serves both: a damped Newton iteration with a
capped step and backtracking line search.  The stopping rule is the
gradient max-norm, i.e. the largest per-face angle defect
|Phi_f - 2 sum(phi)|.

Each iterate costs one pass over the edges: ``functional.value_and_phi``
gives S for the line search together with the half-angles of the same rho,
whose face residuals are the next gradient.  The half-angles that the
result reports, and that decide convergence once the loop's gradient is
within rounding of the tolerance, come from ``functional.cas_from_rho``.

The Euclidean functional does not change when a constant is added to every
rho, so its Hessian is a weighted Laplacian of the dual graph whose kernel
is exactly the constants.  The Newton system is then solved grounded and
directly: face 0 is held fixed, the remaining faces solve the nonsingular
system for the mean-free gradient, and the direction is shifted onto the
zero-sum subspace, where the functional is strictly convex.

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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import functional as fn
from .functional import PatternSpec, CoherentAngleSystem

log = logging.getLogger(__name__)

NEWTON = "newton"   # the method the solve report names

_ARMIJO = 1e-4
_MAX_STEP = 2.0   # largest change of any rho in one step
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
    """Hyperbolic: the inexact CG direction.  Euclidean: the direct,
    grounded solve of H d = -(grad - mean grad), shifted to zero sum."""
    H = fn.hessian(spec, rho)
    if spec.is_hyperbolic:
        return _cg_direction(H, grad)
    # far-drifted iterates can zero out edge weights and make the system
    # exactly singular; minimize replaces the NaN direction by the gradient
    return solve_grounded(H, -(grad - grad.mean()))


def solve_grounded(L, rhs):
    """The zero-sum x with L x = rhs, for a weighted Laplacian L of a
    connected dual graph and a zero-sum rhs.

    Grounded at face 0: the remaining faces solve the nonsingular system,
    and the dropped first equation holds because every column of L sums to
    zero.  The system is symmetric positive definite, so the column
    ordering is a minimum degree one on its own pattern.  A singular
    system gives NaN.
    """
    L = L.tocsc()
    x = np.zeros(len(rhs))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x[1:] = spla.spsolve(L[1:, 1:], rhs[1:], permc_spec="MMD_AT_PLUS_A")
    return x - x.mean()


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


def minimize(spec: PatternSpec, opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the pattern functional to its critical point by Newton's
    method, in at most ``opts.max_iter`` steps.

    Newton steps are capped at 2 in the max-norm of rho before the Armijo
    backtracking, and a direction that is not finite or not downhill is
    replaced by the negative gradient, so on feasible data the iteration
    converges from any finite start (the functional is convex).

    Each line-search trial is one edge pass, and the accepted trial's
    half-angles give the next gradient.  Euclidean trials are centred before
    their pass, so ``functional_value`` is the S of the returned rho, bit
    for bit.  Once the loop's gradient is within rounding of ``grad_tol``,
    the exact half-angles of ``cas_from_rho``, which the result reports,
    decide convergence and give the next step.

    On infeasible data S has no minimiser, yet ``converged=True`` is still
    no proof of feasibility: where a face subset fails the conditions only
    by equality, the gradient decays as rho runs off to infinity and falls
    below ``grad_tol`` at a finite rho, whose angle system then also
    validates at 1e-8.  Existence is decided by
    ``feasibility.find_coherent_angle_system(spec, result.cas)``, whose
    certificate refuses such a result and leaves the verdict to the flow.
    Euclidean results are normalized to sum(rho) = 0.
    """
    opts = opts or SolveOptions()
    rho = _initial_rho(spec, opts)
    message = ""
    converged = False
    value, phi = fn.value_and_phi(spec, rho)
    # the pass's half-angles differ from phi_of_rho's by a few ulp of pi
    # (3 seen, 8 allowed), so a face residual by up to 2 deg(f) times that
    slack = 16.0 * np.spacing(np.pi) * np.bincount(spec.surface.oe_left).max()
    cas = None
    iterations = 0
    for iterations in range(opts.max_iter + 1):
        grad = fn.face_residuals(spec, phi)
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= opts.grad_tol + slack:
            # the exact half-angles, which the result reports, decide and steer
            cas, report = fn.cas_from_rho(spec, rho)
            grad, grad_norm = fn.face_residuals(spec, cas.phi), report.max_face_residual
            if grad_norm <= opts.grad_tol:
                converged = True
                break
        if iterations == opts.max_iter:
            message = f"no convergence in {opts.max_iter} Newton steps"
            break
        direction = _newton_direction(spec, rho, grad)
        slope = float(grad @ direction)
        if not np.isfinite(slope) or slope >= 0.0:
            direction = -grad if spec.is_hyperbolic else grad.mean() - grad
            slope = float(grad @ direction)
            if slope >= 0.0:
                # a constant Euclidean gradient: the total equality fails
                message = "no descent direction"
                break
        # no step changes a rho by more than _MAX_STEP (Nocedal & Wright,
        # ch. 3), so from far starts the search still finds a decrease
        step = min(1.0, _MAX_STEP / float(np.abs(direction).max()))
        for _ in range(60):
            trial = rho + step * direction
            if not spec.is_hyperbolic:
                trial = trial - trial.mean()
            trial_value, trial_phi = fn.value_and_phi(spec, trial)
            # the rounding slack keeps the search from stalling once the
            # true decrease drops below float resolution of S
            if trial_value <= value + _ARMIJO * step * slope + 1e-14 * (1.0 + abs(value)):
                break
            step *= 0.5
        else:
            message = "line search failed"
            break
        rho, value, phi, cas = trial, trial_value, trial_phi, None
        log.debug("newton iter %d: grad %.3e step %.3g S %.12g",
                  iterations + 1, grad_norm, step, value)
    if cas is None:
        cas, report = fn.cas_from_rho(spec, rho)
    if converged and spec.is_hyperbolic and np.any(rho >= 0.0):
        converged = False
        message = "stationary point with nonnegative rho; data are not hyperbolic-feasible"
    return SolveResult(
        rho=rho, cas=cas, cas_report=report,
        grad_norm=report.max_face_residual,
        iterations=iterations, functional_value=value,
        converged=converged, message=message)
