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
fit of the active monomial columns to the degree-d moment vector.

The inner loop stops on the Newton decrement, not the gradient norm: at
large t the gradient is dominated by roundoff in (1 - g(x_i)) at active
points, noise that lies in the active span where the Hessian is O(t^2),
so it moves g negligibly while keeping the gradient norm large.

The iteration runs in whitened coordinates (sample scatter = identity).
Without this, elongated clouds produce optimal coefficients that cancel
catastrophically when g is evaluated near its sphere minimum, putting a
hard floor under both quadrature accuracy and the measurable KKT
residual.  The optimum transforms back exactly, including multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DegenerateInputError, InfeasibleError,
                     NotInConeError)
from .integrals import (DEFAULT_QUADRATURE, QuadratureSpec, integral_exp,
                        moment_vector)
from .polynomials import HomogeneousPoly, basis_for, compose_linear

__all__ = ["SolverConfig", "SolveReport", "initial_guess", "objective_grad_hess",
           "solve_min_volume", "kkt_residual"]


@dataclass(frozen=True)
class SolverConfig:
    kkt_tolerance: float = 1e-8
    max_newton_iters: int = 400          # total damped steps across all stages
    barrier_t0: float = 1.0
    barrier_multiplier: float = 10.0
    max_stages: int = 60
    armijo_slope: float = 1e-4
    backtrack_ratio: float = 0.5
    activity_tol: float = 1e-6           # slack threshold for the active set
    feasibility_margin: float = 0.01     # initial-guess headroom
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not (0 < self.kkt_tolerance < 1):
            raise ValueError("kkt_tolerance must be in (0, 1)")
        if self.max_newton_iters < 1:
            raise ValueError("max_newton_iters must be >= 1")
        if self.barrier_multiplier <= 1:
            raise ValueError("barrier_multiplier must exceed 1")
        if not (0 < self.backtrack_ratio < 1):
            raise ValueError("backtrack_ratio must be in (0, 1)")


@dataclass
class SolveReport:
    """Everything a solve produced.

    dual_weights maps point index -> multiplier for the active
    constraints; multipliers_array() expands to a dense vector.
    kkt_residual is measured in the solver's whitened frame (scatter =
    identity), where it is free of coefficient-cancellation noise; the
    certificate module re-measures residuals in the original frame.
    """

    g_star: HomogeneousPoly
    objective: float
    volume: float
    iterations: int
    stages: int
    t_final: float
    kkt_residual: float
    dual_weights: dict
    active_indices: np.ndarray
    moment_data: object = None           # MomentVector at g_star

    def multipliers_array(self, m=None):
        size = m if m is not None else (max(self.dual_weights) + 1 if self.dual_weights else 0)
        out = np.zeros(size)
        for i, w in self.dual_weights.items():
            out[i] = w
        return out


def initial_guess(cs, degree, margin=0.01):
    """Strictly feasible start: scale x_1^d + ... + x_n^d so the largest
    sample value is 1/(1+margin).  Always inside the positivity cone.

    `cs` is a ConstraintSet or an (m, n) array of points."""
    points = np.atleast_2d(getattr(cs, "points", cs))
    base = HomogeneousPoly.sum_of_powers(points.shape[1], degree)
    vals = base(points)
    top = float(np.max(vals))
    if top <= 0.0:
        # all points at the origin; any positive polynomial is feasible
        return base
    return base * (1.0 / ((1.0 + margin) * top))


def objective_grad_hess(g, spec=None, hint=None):
    """Objective f(g) = Integral exp(-g), its gradient and Hessian in the
    coefficient basis: grad_a = -I_a, hess_ab = I_{a+b}.

    Returns (f, grad, hess, moment_data).
    """
    mv = moment_vector(g, spec or DEFAULT_QUADRATURE, include_2d=True, hint=hint)
    grad = -mv.vector_d()
    hess = mv.hessian_matrix()
    return mv.y0, grad, hess, mv


def kkt_residual(g, multipliers, cs, spec=None):
    """Scaled KKT error for a candidate (g, multipliers) pair.

    max of: stationarity |sum_i lambda_i x_i^a - I_a|_inf, complementary
    slackness max_i |lambda_i (1 - g(x_i))|, and primal feasibility
    max_i (g(x_i) - 1)_+, all divided by the total mass y0.
    Multipliers must be nonnegative (dict over indices or dense array).
    """
    lam = _dense_multipliers(multipliers, len(cs))
    if np.any(lam < -1e-15):
        raise ValueError("multipliers must be nonnegative")
    mv = moment_vector(g, spec or DEFAULT_QUADRATURE, include_2d=False)
    V = basis_for(cs.n, g.degree).monomials(cs.points)
    slack = 1.0 - V @ g.coeff_vector
    return _residual_from_parts(V, lam, mv.vector_d(), slack, mv.y0)


def _dense_multipliers(multipliers, m):
    if isinstance(multipliers, dict):
        out = np.zeros(m)
        for i, w in multipliers.items():
            out[int(i)] = float(w)
        return out
    arr = np.asarray(multipliers, dtype=float).reshape(-1)
    if arr.shape[0] != m:
        raise ValueError(f"expected {m} multipliers, got {arr.shape[0]}")
    return arr


def _polish_multipliers(V, slack, yd, activity_tol):
    """Least-squares fit of active columns to the moment vector.

    Minimum-norm solution first (symmetric data gets symmetric weights);
    if any weight comes out negative beyond roundoff, refit with a
    nonnegativity constraint.  Returns (dense lambda, active index array).
    """
    active = np.flatnonzero(slack <= activity_tol)
    m = V.shape[0]
    lam = np.zeros(m)
    if active.size == 0:
        return lam, active
    A = V[active].T
    fit, *_ = np.linalg.lstsq(A, yd, rcond=None)
    floor = -1e-10 * max(float(np.max(np.abs(fit))), 1.0)
    if np.any(fit < floor):
        from scipy.optimize import nnls
        fit, _ = nnls(A, yd)
    lam[active] = np.clip(fit, 0.0, None)
    return lam, active


def solve_min_volume(cs, degree, config=None, start=None):
    """Minimum-volume enclosing sublevel set for a finite point set.

    Parameters
    ----------
    cs : ConstraintSet
    degree : even int >= 2
    config : SolverConfig, optional
    start : HomogeneousPoly, optional
        Warm start; silently replaced by the default initial guess if it
        is not strictly feasible for these points.

    Returns
    -------
    SolveReport

    Raises
    ------
    DegenerateInputError if the points do not span R^n (the problem is
    then unbounded), ConvergenceError if the tolerance is not reached
    within the iteration budget.
    """
    config = config or SolverConfig()
    if degree < 2 or degree % 2:
        raise ValueError(f"degree must be even and >= 2, got {degree}")
    raw_points = cs.points
    m, n = raw_points.shape
    scale = max(1.0, float(np.abs(raw_points).max()))
    if np.linalg.matrix_rank(raw_points, tol=1e-12 * scale) < n:
        raise DegenerateInputError(
            "constraint points lie in a proper subspace; no finite-volume "
            "enclosure exists"
        )

    # Whiten: solve in coordinates where the sample scatter is the
    # identity.  Anisotropic clouds otherwise produce polynomials with
    # huge cancelling coefficients, which poisons both the angular
    # quadrature and the achievable KKT residual.  The optimum maps back
    # exactly: g*(x) = gw(W x), lambda_i = det(L) * lambda_w_i.
    scatter = raw_points.T @ raw_points / m
    try:
        L = np.linalg.cholesky(scatter)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("sample scatter is numerically singular")
    W = np.linalg.solve(L, np.eye(n))            # W = L^{-1}
    det_L = float(np.prod(np.diag(L)))
    points = raw_points @ W.T

    basis = basis_for(n, degree)
    V = basis.monomials(points)
    spec = config.quadrature

    gvec = None
    if start is not None:
        if (start.n, start.degree) != (n, degree):
            raise ValueError("warm start has wrong dimensions")
        cand = compose_linear(start, L)          # into whitened frame
        s = 1.0 - V @ cand.coeff_vector
        if np.all(s > 1e-12):
            try:
                from .polynomials import check_in_cone
                check_in_cone(cand)
                gvec = cand.coeff_vector.copy()
            except NotInConeError:
                gvec = None
    if gvec is None:
        gvec = initial_guess(points, degree,
                             config.feasibility_margin).coeff_vector.copy()

    hint = {}
    hint_phi = {}     # separate ladder memory: phi needs only the mass slice

    def derivatives(vec, t):
        y0, grad_f, hess_f, mv = objective_grad_hess(
            HomogeneousPoly(n, degree, vec), spec, hint)
        slack = 1.0 - V @ vec
        grad = t * grad_f + V.T @ (1.0 / slack)
        hess = t * hess_f + (V / slack[:, None] ** 2).T @ V
        phi = t * y0 - float(np.sum(np.log(slack)))
        return y0, phi, grad, hess, mv

    def barrier_value(vec, t):
        s = 1.0 - V @ vec
        if np.any(s <= 0.0):
            return np.inf
        try:
            y0 = integral_exp(HomogeneousPoly(n, degree, vec), spec,
                              hint=hint_phi)
        except NotInConeError:
            return np.inf
        return t * y0 - float(np.sum(np.log(s)))

    t = config.barrier_t0
    total_newton = 0
    stages = 0
    extra_stages = 0
    last_res = np.inf

    for stage in range(config.max_stages):
        stages += 1
        gvec, steps, state = _newton_stage(
            gvec, t, derivatives, barrier_value, config,
            config.max_newton_iters - total_newton)
        total_newton += steps
        y0, mv_full = state[0], state[-1]
        slack = 1.0 - V @ gvec

        if m / t <= config.kkt_tolerance * y0:
            yd = mv_full.vector_d()
            lam, active = _polish_multipliers(V, slack, yd, config.activity_tol)
            res = _residual_from_parts(V, lam, yd, slack, y0)
            last_res = res
            if res <= config.kkt_tolerance:
                g_out = compose_linear(HomogeneousPoly(n, degree, gvec), W)
                objective = det_L * y0
                volume = objective / math.gamma(1.0 + n / degree)
                weights = {int(i): float(det_L * lam[i])
                           for i in active if lam[i] > 0.0}
                mv_orig = moment_vector(g_out, spec, include_2d=False)
                return SolveReport(
                    g_star=g_out, objective=objective, volume=volume,
                    iterations=total_newton, stages=stages, t_final=t,
                    kkt_residual=res, dual_weights=weights,
                    active_indices=active, moment_data=mv_orig,
                )
            # gap bound met but the polished residual is not: push the
            # path a little further before giving up
            extra_stages += 1
            if extra_stages >= 8:
                raise ConvergenceError(
                    f"KKT residual stalled at {res:.3e} (tolerance "
                    f"{config.kkt_tolerance:.1e}, t={t:.3e})"
                )
        if total_newton >= config.max_newton_iters:
            raise ConvergenceError(
                f"newton budget {config.max_newton_iters} exhausted at "
                f"barrier weight t={t:.3e} (last residual {last_res:.3e})"
            )
        t *= config.barrier_multiplier

    raise ConvergenceError(
        f"barrier stage cap {config.max_stages} reached without meeting "
        f"tolerance (last residual {last_res:.3e})"
    )


def _newton_stage(x, t, derivatives, barrier_value, config, budget):
    """Damped Newton on one barrier function Phi_t, from x.

    derivatives(x, t) returns (y0, Phi_t(x), gradient, Hessian, ...) and
    barrier_value(x, t) returns Phi_t(x), or +inf outside the domain.  An
    indefinite Hessian is made positive definite by the escalating ridge
    of _newton_step, so every step is a descent direction.  Stops on the
    scale-aware decrement test (see the module docstring), after six
    steps that fail to halve the decrement, when the line search finds no
    Armijo point, or after `budget` (>= 1) steps.

    Returns (x, steps taken, the last derivatives(...) tuple).
    """
    best_dec2 = np.inf
    stall = 0
    steps = 0
    for _ in range(budget):
        state = derivatives(x, t)
        y0, phi0, grad, hess = state[:4]
        step = _newton_step(hess, grad)
        dec2 = float(-grad @ step)
        if dec2 <= 0.0:
            break
        if dec2 / 2.0 <= 1e-17 * t * max(y0, 1e-8):
            break
        if dec2 < 0.5 * best_dec2:
            best_dec2 = dec2
            stall = 0
        else:
            stall += 1
            if stall >= 6:
                break

        armijo = config.armijo_slope * (grad @ step)
        alpha = 1.0
        accepted = False
        while alpha > 1e-14:
            trial = x + alpha * step
            phi = barrier_value(trial, t)
            if np.isfinite(phi) and phi <= phi0 + alpha * armijo:
                x = trial
                accepted = True
                break
            alpha *= config.backtrack_ratio
        steps += 1
        if not accepted:
            break
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
