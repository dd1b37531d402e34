"""Joint fit of polynomial and center: enclose K by {x : g(x - a) <= 1}.

For a fixed center the problem in g is strictly convex (see the solver),
but the value function rho(a) = min_g Integral exp(-g) need not be convex
or even differentiable in a: where the set of contact points changes,
rho has a kink.  The problem stays smooth in (g, a) together, so the
center is found by one log-barrier Newton path in those joint variables,

    Phi_t(g, a) = t * Integral exp(-g) - sum_i log(1 - g(x_i - a)),

with the solver's stage schedule, decrement test and line search; rho is
never formed.  The joint problem is not convex, so the path gives a
local optimum with no uniqueness claim.  The answer is then certified by
ordinary fixed-center solves at the joint center, the centroid and the
origin; the best of the three wins, so the centered volume never exceeds
the origin-centered one (up to solver tolerance) and every answer comes
with the solver's own SolveReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constraints import ConstraintSet
from .errors import ConvergenceError, DegenerateInputError, NotInConeError
from .integrals import integral_exp
from .polynomials import (HomogeneousPoly, basis_for, monomial_hessian,
                          monomial_jacobian)
from .solver import (SolveReport, SolverConfig, _newton_stage, initial_guess,
                     objective_grad_hess, solve_min_volume)

__all__ = ["CenteredSolveReport", "solve_min_volume_centered", "rho_of_center"]


@dataclass
class CenteredSolveReport:
    """Best center and its fixed-center solve.

    outer_iterations counts the Newton steps of the joint path and
    evaluations the fixed-center solves.  meta holds the joint path's
    barrier stages ("joint_stages"), its center stationarity
    ||sum_i lambda_i grad g(x_i - a)||_inf / y0 with lambda_i =
    1/(t s_i), measured in the whitened frame ("center_stationarity"),
    the reason the joint path was abandoned, if it was ("fallback"), and
    which candidate won ("chosen").
    """

    center: np.ndarray
    inner: SolveReport
    volume: float
    outer_iterations: int
    evaluations: int
    meta: dict = field(default_factory=dict)

    @property
    def g_star(self):
        return self.inner.g_star


def _solve_at(cs, a, degree, config):
    """Fixed-center solve for the points shifted by -a.

    Near the optimal center some points sit just inside the boundary
    without being active; when their slack is below config.activity_tol
    the multiplier fit counts them as active, and the KKT residual stalls
    above tolerance.  A solve that raises ConvergenceError is therefore
    repeated once with the activity threshold at the KKT tolerance.

    Returns (objective, report, solves run); (+inf, error, solves run)
    when the shifted problem has no solve.
    """
    shifted = ConstraintSet(cs.points - a, provenance=cs.provenance)
    configs = [config]
    if config.kkt_tolerance < config.activity_tol:
        configs.append(replace(config, activity_tol=config.kkt_tolerance))
    for solves, cfg in enumerate(configs, start=1):
        try:
            report = solve_min_volume(shifted, degree, cfg)
        except ConvergenceError as exc:
            error = exc
            continue
        except (DegenerateInputError, NotInConeError) as exc:
            return np.inf, exc, solves
        return report.objective, report, solves
    return np.inf, error, solves


def rho_of_center(a, cs, degree, config=None):
    """Optimal objective Integral exp(-g*) for the points shifted by -a.

    +inf when the shifted problem is degenerate or the solve fails.
    """
    value, _, _ = _solve_at(cs, np.asarray(a, dtype=float), degree,
                            config or SolverConfig())
    return value


def _joint_path(points, degree, config):
    """Log-barrier Newton path in (g, a) for whitened points whose
    centroid is the origin, starting at a = 0.

    Returns (a, Newton steps, stages, center stationarity).  Raises
    ConvergenceError when the path does not reach the duality-gap bound
    m/t <= tol * y0 within the solver's budgets.
    """
    m, n = points.shape
    basis = basis_for(n, degree)
    size = len(basis)
    spec = config.quadrature
    hint = {}
    hint_phi = {}

    def split(x):
        return HomogeneousPoly(n, degree, x[:size]), x[size:]

    def derivatives(x, t):
        g, a = split(x)
        y0, grad_f, hess_f, _ = objective_grad_hess(g, spec, hint)
        z = points - a
        M = basis.monomials(z)
        dM = monomial_jacobian(z, basis.exponents)          # (m, size, n)
        grad_g = np.einsum("ikj,k->ij", dM, g.coeff_vector)
        hess_g = np.einsum("ikjl,k->ijl",
                           monomial_hessian(z, basis.exponents), g.coeff_vector)
        slack = 1.0 - M @ g.coeff_vector
        inv = 1.0 / slack
        # rows are the gradients of s_i = 1 - g(z_i) in (g, a):
        # ds/dg = -m(z_i), ds/da = grad g(z_i)
        J = np.hstack([-M, grad_g]) * inv[:, None]
        grad = -J.sum(axis=0)
        grad[:size] += t * grad_f
        hess = J.T @ J
        hess[:size, :size] += t * hess_f
        # minus sum_i (second derivative of s_i) / s_i: the g-a block of
        # d2s is +dm/dz, the a-a block is -hess g
        mixed = -np.einsum("ikj,i->kj", dM, inv)
        hess[:size, size:] += mixed
        hess[size:, :size] += mixed.T
        hess[size:, size:] += np.einsum("ijl,i->jl", hess_g, inv)
        # The joint barrier is not convex.  Where its Hessian is
        # indefinite, flip the negative eigenvalues: the solver's
        # escalating ridge would also give a descent step, but one shrunk
        # in every direction, and stages then stall far from the path.
        lam, vec = np.linalg.eigh(hess)
        if lam[0] < 0.0:
            hess = (vec * np.abs(lam)) @ vec.T
        phi = t * y0 - float(np.sum(np.log(slack)))
        return y0, phi, grad, hess, grad_g, slack

    def barrier_value(x, t):
        g, a = split(x)
        s = 1.0 - g(points - a)
        if np.any(s <= 0.0):
            return np.inf
        try:
            y0 = integral_exp(g, spec, hint=hint_phi)
        except NotInConeError:
            return np.inf
        return t * y0 - float(np.sum(np.log(s)))

    g0 = initial_guess(points, degree, config.feasibility_margin)
    x = np.concatenate([g0.coeff_vector, np.zeros(n)])
    t = config.barrier_t0
    total = 0
    for stage in range(1, config.max_stages + 1):
        x, steps, state = _newton_stage(x, t, derivatives, barrier_value,
                                        config, config.max_newton_iters - total)
        total += steps
        y0, grad_g, slack = state[0], state[-2], state[-1]
        if m / t <= config.kkt_tolerance * y0:
            lam = 1.0 / (t * slack)
            stationarity = float(np.max(np.abs(grad_g.T @ lam))) / y0
            return x[size:], total, stage, stationarity
        if total >= config.max_newton_iters:
            raise ConvergenceError(
                f"joint path: newton budget {config.max_newton_iters} "
                f"exhausted at barrier weight t={t:.3e}")
        t *= config.barrier_multiplier
    raise ConvergenceError(
        f"joint path: barrier stage cap {config.max_stages} reached")


def solve_min_volume_centered(cs, degree, config=None):
    """Best center and polynomial for {x : g(x - a) <= 1} containing the
    points.

    Runs the joint (g, a) barrier path in coordinates whitened about the
    centroid, then fixed-center solves at the joint center, the centroid
    and the origin; the smallest objective wins.  If the joint path fails
    (ConvergenceError or NotInConeError) only the centroid and the origin
    are tried, and meta["fallback"] says why.

    Raises DegenerateInputError if the points minus their centroid do
    not span R^n (the volume then tends to 0 and no minimizer exists).
    If no candidate center admits a solve, raises the error of the first
    candidate.
    """
    config = config or SolverConfig()
    points = cs.points
    m, n = points.shape
    centroid = points.mean(axis=0)
    spread = points - centroid
    scale = max(1.0, float(np.abs(spread).max()))
    if np.linalg.matrix_rank(spread, tol=1e-12 * scale) < n:
        raise DegenerateInputError(
            "points minus their centroid lie in a proper subspace; the "
            "centered volume can shrink to zero"
        )
    try:
        L = np.linalg.cholesky(spread.T @ spread / m)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("centered sample scatter is numerically singular")

    meta = {"joint_stages": 0, "center_stationarity": None, "fallback": None}
    candidates = []
    steps = 0
    try:
        a_w, steps, meta["joint_stages"], meta["center_stationarity"] = \
            _joint_path(np.linalg.solve(L, spread.T).T, degree, config)
        candidates.append(("joint", centroid + L @ a_w))
    except (ConvergenceError, NotInConeError) as exc:
        meta["fallback"] = str(exc)
    candidates += [("centroid", centroid), ("origin", np.zeros(n))]

    results = []
    evaluations = 0
    for name, center in candidates:
        value, report, solves = _solve_at(cs, center, degree, config)
        evaluations += solves
        results.append((value, report, center, name))
    value, report, center, meta["chosen"] = min(results, key=lambda r: r[0])
    if not np.isfinite(value):
        raise report
    return CenteredSolveReport(
        center=center, inner=report,
        volume=value / math.gamma(1.0 + n / degree),
        outer_iterations=steps, evaluations=evaluations, meta=meta,
    )
