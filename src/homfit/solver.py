"""Interior-point solver for the minimum-volume enclosing sublevel set.

Given sample points x_1..x_m spanning R^n and an even degree d, find the
homogeneous g of degree d minimizing Integral exp(-g) subject to
g(x_i) <= 1.  The objective is strictly convex on the positivity cone
(its Hessian is a moment matrix of exp(-g), positive definite whenever
the point set spans), so the minimizer is unique and the sublevel set
{g <= 1} has minimum volume among all degree-d enclosures.

Algorithm: log-barrier path following.  For increasing t, minimize

    Phi_t(g) = t * Integral exp(-g) - sum_i log(1 - g(x_i))

by damped Newton steps (Cholesky with escalating ridge, Armijo
backtracking that rejects steps leaving the positivity cone), then grow
t by a fixed factor until the duality-gap bound m/t is below tolerance.
Barrier multipliers 1/(t*(1-g(x_i))) are then polished by a least-squares
fit of the active monomial columns to the degree-d moment vector.  While
that polished KKT residual is above tolerance the path goes on, but only
as long as each stage at least halves it; a stage that does not ends the
solve with a "stalled" ConvergenceError.

The barrier path (_barrier_path) and the whitening (_whiten) are shared
with the centered fit, whose slacks 1 - g(x_i - a) also depend on a
center a; each caller gives only its slacks and their derivatives.  The
schedule is fixed: t starts at BARRIER_T0 and grows by
BARRIER_MULTIPLIER for at most MAX_STAGES stages, which together take at
most MAX_NEWTON_ITERS Newton steps, and the line search backtracks by
BACKTRACK_RATIO until Phi_t drops by ARMIJO_SLOPE times the predicted
decrease.  Both fits start from initial_guess with FEASIBILITY_MARGIN
headroom; a fixed-center solve may instead resume from a given (g, t).

The line search gives up, and the stage ends, once the predicted decrease
alpha * |grad^T p| falls below PHI_ROUNDING * |Phi_t(x)|, or alpha below
1e-14.  At a feasible x every s_i lies in (0, 1], so Phi_t(x) = t * y0 +
sum_i |log s_i| is a sum of nonnegative terms, each computed to a few
ulps: y0 is a positively weighted sum of positive values, and numpy sums
the logs pairwise.  So Phi_t(x) carries a rounding error of a few ulps of
|Phi_t(x)|, and PHI_ROUNDING = 1e-15 is about 4.5 ulps.  The true change
along the step is, to first order, at most alpha * |grad^T p| (exactly
so where Phi_t is convex), so below that floor the Armijo test compares
values that differ by less than their rounding, and its verdict is noise;
smaller alpha only shrinks the change further.

The inner loop stops on the Newton decrement lambda^2 = -grad^T p, not
the gradient norm: at large t the gradient is dominated by roundoff in
(1 - g(x_i)) at active points, noise that lies in the active span where
the Hessian is O(t^2), so it moves g negligibly while keeping the
gradient norm large.  It stops at lambda^2 / 2 <= 1e-17 * t * y0 where
the point is read: on the joint (g, a) path, whose curved slacks make
Phi_t nonconvex, and at the stages that meet the gap bound and the one
before them.  With linear slacks Phi_t is strictly convex, its central
point unique, and other stages stop at lambda^2 <= LOOSE_DECREMENT (Boyd
& Vandenberghe, Convex Optimization, 11.5), so the yielding stage starts
and ends where it would anyway, up to rounding.  There, steps above
LOOSE_DECREMENT are Newton's damped phase, where the decrement need not
halve, so they do not count toward the stall rule.

The iteration runs in whitened coordinates (sample scatter = identity).
Without this, elongated clouds produce optimal coefficients that cancel
catastrophically when g is evaluated near its sphere minimum, putting a
hard floor under both quadrature accuracy and the measurable KKT
residual.  The optimum maps back exactly, with no second quadrature: for
x = L u the user-frame moments are |det L| P_d(L) times the whitened ones
(power_matrix) and lambda_i = |det L| lambda_w_i.  The solve fails closed
(ConvergenceError) if its final quadrature did not converge, or if the
user-frame g* misses the whitened values at the points by more than
activity_tol, the slack that separates contacts from interior points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, NotInConeError
from .integrals import MomentVector, integral_exp, moment_vector
from .polynomials import (HomogeneousPoly, basis_for, compose_linear,
                          power_matrix)

__all__ = ["SolverConfig", "SolveReport", "initial_guess", "objective_grad_hess",
           "solve_min_volume", "kkt_residual"]

BARRIER_T0 = 1.0             # barrier weight t of the first stage
BARRIER_MULTIPLIER = 10.0    # growth of t from one stage to the next
MAX_STAGES = 60
MAX_NEWTON_ITERS = 400       # damped Newton steps across all stages
ARMIJO_SLOPE = 1e-4
BACKTRACK_RATIO = 0.5
PHI_ROUNDING = 1e-15         # relative rounding of Phi_t (module docstring)
LOOSE_DECREMENT = 0.5        # stop of stages whose point goes unread
FEASIBILITY_MARGIN = 0.01    # initial-guess headroom


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1e-8
    activity_tol: float = 1e-6           # slack threshold for the active set

    def __post_init__(self):
        if not (0 < self.kkt_tolerance < 1):
            raise ValueError("kkt_tolerance must be in (0, 1)")


@dataclass
class SolveReport:
    """Everything a solve produced.

    multipliers holds one nonnegative weight per constraint point, in the
    user's frame, zero off the contact points.  kkt_residual is measured
    in the solver's whitened frame (scatter = identity), where it is free
    of coefficient-cancellation noise; the certificate module re-measures
    residuals in the original frame.  The multipliers and moment_data (y0
    and the degree-d slice) are exact maps of the final whitened ones;
    quadrature_info is that call's.
    """

    g_star: HomogeneousPoly
    objective: float
    volume: float
    iterations: int
    stages: int
    t_final: float
    kkt_residual: float
    multipliers: np.ndarray
    moment_data: MomentVector            # at g_star, exact map


def initial_guess(cs, degree, margin=FEASIBILITY_MARGIN):
    """Strictly feasible start: scale x_1^d + ... + x_n^d so the largest
    sample value is 1/(1+margin).  Always inside the positivity cone.

    `cs` is a ConstraintSet or an (m, n) array of points."""
    points = np.atleast_2d(getattr(cs, "points", cs))
    base = HomogeneousPoly.sum_of_powers(points.shape[1], degree)
    top = float(np.max(base(points)))
    if top <= 0.0:
        # all points at the origin; any positive polynomial is feasible
        return base
    return base * (1.0 / ((1.0 + margin) * top))


def objective_grad_hess(g, hint=None):
    """Objective f(g) = Integral exp(-g), its gradient and Hessian in the
    coefficient basis: grad_a = -I_a, hess_ab = I_{a+b}.

    Returns (f, grad, hess, moment_data).
    """
    mv = moment_vector(g, include_2d=True, hint=hint)
    return mv.y0, -mv.slice_d, mv.hessian_matrix(), mv


def kkt_residual(g, multipliers, cs):
    """Scaled KKT error for a candidate (g, multipliers) pair.

    max of: stationarity |sum_i lambda_i x_i^a - I_a|_inf, complementary
    slackness max_i |lambda_i (1 - g(x_i))|, and primal feasibility
    max_i (g(x_i) - 1)_+, all divided by the total mass y0.
    multipliers is one nonnegative weight per point of cs.
    """
    lam = np.asarray(multipliers, dtype=float).reshape(-1)
    if lam.shape[0] != len(cs):
        raise ValueError(f"expected {len(cs)} multipliers, got {lam.shape[0]}")
    if np.any(lam < -1e-15):
        raise ValueError("multipliers must be nonnegative")
    mv = moment_vector(g)
    V = basis_for(cs.n, g.degree).monomials(cs.points)
    slack = 1.0 - V @ g.coeff_vector
    return _residual_from_parts(V, lam, mv.slice_d, slack, mv.y0)


def _polish_multipliers(V, slack, yd, activity_tol):
    """Least-squares fit of active columns to the moment vector.

    Minimum-norm solution first (symmetric data gets symmetric weights);
    if any weight comes out negative beyond roundoff, refit with a
    nonnegativity constraint.  Returns the dense lambda, zero off the
    active set.
    """
    active = np.flatnonzero(slack <= activity_tol)
    lam = np.zeros(V.shape[0])
    if active.size == 0:
        return lam
    A = V[active].T
    fit, *_ = np.linalg.lstsq(A, yd, rcond=None)
    floor = -1e-10 * max(float(np.max(np.abs(fit))), 1.0)
    if np.any(fit < floor):
        from scipy.optimize import nnls
        fit, _ = nnls(A, yd)
    lam[active] = np.clip(fit, 0.0, None)
    return lam


def _whiten(points, message):
    """Whitening map for (m, n) points: scatter points^T points / m = L L^T.

    Raises DegenerateInputError(message) if the points do not span R^n.
    Returns (L, W = L^{-1}, the points in whitened coordinates W x).
    """
    m, n = points.shape
    scale = max(1.0, float(np.abs(points).max()))
    if np.linalg.matrix_rank(points, tol=1e-12 * scale) < n:
        raise DegenerateInputError(message)
    try:
        L = np.linalg.cholesky(points.T @ points / m)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("sample scatter is numerically singular")
    W = np.linalg.solve(L, np.eye(n))
    return L, W, points @ W.T


def solve_min_volume(cs, degree, config=None, resume=None):
    """Minimum-volume enclosing sublevel set of even degree >= 2 for the
    points of the ConstraintSet cs; returns a SolveReport.

    resume = (g, t) runs the barrier path from g (user frame) at weight t
    (the units of SolveReport.t_final), not from initial_guess at
    BARRIER_T0; g is scaled by the initial-guess margin only if a slack
    is <= 0.  Raises DegenerateInputError if the points do not span R^n
    (the problem is then unbounded), ConvergenceError if the tolerance is
    not reached within the iteration budget, and NotInConeError if a
    resumed g is not positive on the sphere.
    """
    config = config or SolverConfig()
    if degree < 2 or degree % 2:
        raise ValueError(f"degree must be even and >= 2, got {degree}")
    raw_points = cs.points
    n = raw_points.shape[1]

    L, W, points = _whiten(raw_points, "constraint points lie in a proper "
                           "subspace; no finite-volume enclosure exists")
    det_L = float(np.prod(np.diag(L)))
    V = basis_for(n, degree).monomials(points)
    if resume is None:
        gvec, t0 = initial_guess(points, degree).coeff_vector, BARRIER_T0
    else:
        start, t0 = resume
        if (start.n, start.degree) != (n, degree) or not t0 > 0:
            raise ValueError("resume needs g of this n and degree, t > 0")
        gvec = compose_linear(start, L).coeff_vector      # whitened frame
        top = float(np.max(V @ gvec))
        if top >= 1.0:
            gvec = gvec / ((1.0 + FEASIBILITY_MARGIN) * top)

    def slacks(vec, jacobian=False):
        s = 1.0 - V @ vec
        return (s, V, None) if jacobian else s

    res = np.inf
    path = _barrier_path(gvec, n, degree, slacks, config, t0,
                         context=lambda: f" (last residual {res:.3e})")
    for gvec, t, stages, total_newton, state in path:
        y0, slack, mv_full = state[0], state[4], state[-1]
        yd = mv_full.slice_d
        lam = _polish_multipliers(V, slack, yd, config.activity_tol)
        res, last = _residual_from_parts(V, lam, yd, slack, y0), res
        if res <= config.kkt_tolerance:
            info = mv_full.quadrature_info
            if not info["converged"]:
                raise ConvergenceError(
                    f"final quadrature did not converge at {info['points']} "
                    f"points (ladder delta {info['last_delta']:.3e})")
            g_out = compose_linear(HomogeneousPoly(n, degree, gvec), W)
            drift = float(np.max(np.abs(g_out(raw_points) - (1.0 - slack))))
            if drift > config.activity_tol:
                raise ConvergenceError(
                    f"frame change: user-frame and whitened g* disagree by "
                    f"{drift:.3e} at the points (activity_tol "
                    f"{config.activity_tol:.1e})")
            objective = det_L * y0
            yd_user = det_L * (power_matrix(L, degree) @ yd)
            return SolveReport(
                g_star=g_out, objective=objective,
                volume=objective / math.gamma(1.0 + n / degree),
                iterations=total_newton, stages=stages, t_final=t,
                kkt_residual=res, multipliers=det_L * lam,
                moment_data=MomentVector(n, degree, objective, yd_user,
                                         quadrature_info=info),
            )
        # gap bound met but the polished residual is not: push the path
        # on while each stage at least halves the residual
        if res > 0.5 * last:
            raise ConvergenceError(
                f"KKT residual stalled at {res:.3e} (tolerance "
                f"{config.kkt_tolerance:.1e}, t={t:.3e})")


def _barrier_path(x, n, degree, slacks, config, t=BARRIER_T0, label="",
                  context=lambda: ""):
    """Log-barrier path for Phi_t(x) = t * Integral exp(-g) - sum_i log s_i(x),
    g the degree-d form in n variables with coefficients x[:size]; any
    further entries of x are variables only the slacks depend on.

    slacks(x) returns s(x); slacks(x, True) returns (s, D, C): D = -ds/dx,
    and C = -sum_i (d2 s_i / dx2) / s_i, or None when x is g alone and
    the slacks are linear in it.  With C the Hessian may be indefinite:
    its negative eigenvalues are flipped, where the ridge of _newton_step
    would shrink the step in every direction and stall the stages far
    from the path.

    Runs a Newton stage at t, t * BARRIER_MULTIPLIER, ... from the
    strictly feasible x (loose where C is None and the point goes unread,
    see the module docstring) and, after each stage that meets the bound
    m/t <= kkt_tolerance * y0, yields (x, t, stages, Newton steps so far,
    state), state being (y0, Phi_t, gradient, Hessian, s, D, moment
    vector) at x.  Raises ConvergenceError, its message `label` + reason +
    context(), when MAX_NEWTON_ITERS or MAX_STAGES runs out.
    """
    size = len(basis_for(n, degree))
    s0, _, curvature = slacks(x, True)

    def short_of_gap(t, y0):        # the gap bound m/t <= tol * y0 is unmet
        return len(s0) / t > config.kkt_tolerance * y0

    def unread(t, y0):              # neither this stage nor the next yields
        return short_of_gap(BARRIER_MULTIPLIER * t, y0)

    loose = unread if curvature is None else None
    hint = {}
    hint_phi = {}     # separate ladder memory: phi needs only the mass slice

    def derivatives(x, t):
        y0, grad_f, hess_f, mv = objective_grad_hess(
            HomogeneousPoly(n, degree, x[:size]), hint)
        s, D, curvature = slacks(x, True)
        if curvature is None:       # one m x size temporary per step
            grad = t * grad_f + D.T @ (1.0 / s)
            hess = t * hess_f + (D / s[:, None] ** 2).T @ D
        else:
            scaled = D * (1.0 / s)[:, None]
            grad, hess = scaled.sum(axis=0), scaled.T @ scaled + curvature
            grad[:size] += t * grad_f
            hess[:size, :size] += t * hess_f
            lam, vec = np.linalg.eigh(hess)
            if lam[0] < 0.0:
                hess = (vec * np.abs(lam)) @ vec.T
        phi = t * y0 - float(np.sum(np.log(s)))
        return y0, phi, grad, hess, s, D, mv

    def barrier_value(x, t):
        s = slacks(x)
        if np.any(s <= 0.0):
            return np.inf
        try:
            y0 = integral_exp(HomogeneousPoly(n, degree, x[:size]),
                              hint=hint_phi)
        except NotInConeError:
            return np.inf
        return t * y0 - float(np.sum(np.log(s)))

    total = 0
    for stage in range(1, MAX_STAGES + 1):
        x, steps, state = _newton_stage(x, t, derivatives, barrier_value,
                                        MAX_NEWTON_ITERS - total, loose)
        total += steps
        if not short_of_gap(t, state[0]):
            yield x, t, stage, total, state
        if total >= MAX_NEWTON_ITERS:
            raise ConvergenceError(
                f"{label}newton budget {MAX_NEWTON_ITERS} exhausted "
                f"at barrier weight t={t:.3e}{context()}")
        t *= BARRIER_MULTIPLIER
    raise ConvergenceError(
        f"{label}barrier stage cap {MAX_STAGES} reached without meeting "
        f"tolerance{context()}")


def _newton_stage(x, t, derivatives, barrier_value, budget, loose=None):
    """Damped Newton on one barrier function Phi_t, from x.

    derivatives(x, t) returns (y0, Phi_t(x), gradient, Hessian, ...) and
    barrier_value(x, t) returns Phi_t(x), or +inf outside the domain.  An
    indefinite Hessian is made positive definite by the escalating ridge
    of _newton_step, so every step is a descent direction.  Stops on the
    scale-aware decrement test, at decrement LOOSE_DECREMENT where
    loose(t, y0), given on convex paths, holds at the current x (module
    docstring), after six steps that fail to halve the decrement (a
    convex path's damped-phase steps excepted), when the line search finds
    no Armijo point above Phi_t's rounding (module docstring), or after
    `budget` steps: what is left (>= 1) of the barrier path's Newton
    budget.

    Returns (x, steps taken, derivatives(x, t) at the returned x).
    """
    best_dec2, stall, steps = np.inf, 0, 0
    for _ in range(budget):
        state = derivatives(x, t)
        y0, phi0, grad, hess = state[:4]
        step = _newton_step(hess, grad)
        dec2 = float(-grad @ step)
        if dec2 <= 0.0 or dec2 / 2.0 <= 1e-17 * t * max(y0, 1e-8):
            break
        if loose and dec2 <= LOOSE_DECREMENT and loose(t, y0):
            break
        if dec2 < 0.5 * best_dec2:
            best_dec2, stall = dec2, 0
        elif not (loose and dec2 > LOOSE_DECREMENT):
            stall += 1
            if stall >= 6:
                break

        armijo = ARMIJO_SLOPE * (grad @ step)
        floor = PHI_ROUNDING * abs(phi0)
        alpha = 1.0
        accepted = False
        while alpha > 1e-14 and alpha * dec2 > floor:
            trial = x + alpha * step
            phi = barrier_value(trial, t)
            if np.isfinite(phi) and phi <= phi0 + alpha * armijo:
                x = trial
                accepted = True
                break
            alpha *= BACKTRACK_RATIO
        steps += 1
        if not accepted:
            break
    else:       # budget spent on an accepted step: state is for the old x
        state = derivatives(x, t)
    return x, steps, state


def _residual_from_parts(V, lam, yd, slack, y0):
    stat = float(np.max(np.abs(V.T @ lam - yd)))
    comp = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    feas = float(np.max(np.clip(-slack, 0.0, None)))
    return max(stat, comp, feas) / y0


def _newton_step(hess, grad):
    """Solve H s = -grad by Cholesky with an escalating ridge."""
    dim = hess.shape[0]
    ridge = 1e-12 * float(np.trace(hess)) / dim
    for _ in range(12):
        try:
            c = np.linalg.cholesky(hess + ridge * np.eye(dim))
            return -np.linalg.solve(c.T, np.linalg.solve(c, grad))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-300)
    # fall back to least squares on a hopeless factorization
    step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
    return step
