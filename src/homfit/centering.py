"""Joint fit of polynomial and center: enclose K by {x : g(x - a) <= 1}.

For a fixed center the problem in g is strictly convex (see the solver),
but the value function rho(a) = min_g Integral exp(-g) need not be convex
or even differentiable in a: where the set of contact points changes,
rho has a kink.  The problem stays smooth in (g, a) together, so the
center is found by one log-barrier Newton path in those joint variables,

    Phi_t(g, a) = t * Integral exp(-g) - sum_i log(1 - g(x_i - a)),

on the solver's barrier path; this module adds the curved slacks
1 - g(x_i - a) with their first and second derivatives, and rho is never
formed.  The joint problem is not convex, so the path gives a local
optimum with no uniqueness claim.  The answer is then certified by
ordinary fixed-center solves at the joint center, the centroid and the
origin; the best of the three wins, so the centered volume never exceeds
the origin-centered one (up to solver tolerance) and every answer comes
with the solver's own SolveReport.  The solve at the joint center
resumes where the joint path ended (_resume_point), so it yields at the
cold solve's t_final with the cold answer; it falls back to a cold one.

The centroid and origin solves run after it, each with a bar: the best
objective so far.  At every Newton step such a solve takes a
weak-duality lower bound on its own optimum from the moments the step
already has (solver._duality_probe), and stops once the bound exceeds
the bar by more than the bound's own quadrature and residual error and a
relative 1e-9.  A stopped candidate's optimum is then provably above the
bar, so its full solve would have lost: the winner and its report are
those of solving all three.  A candidate that can win is never stopped,
and one that is not stopped runs the unbarred path bit for bit.  Its
bound and step count go to meta["pruned"]; it still counts as a solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, NotInConeError
from .polynomials import (HomogeneousPoly, basis_for, compose_linear,
                          monomial_partials)
from .solver import (BARRIER_MULTIPLIER, BARRIER_T0, SolveReport, _Pruned,
                     _barrier_path, _check_tolerance, _solve_min_volume,
                     _whiten, initial_guess)

__all__ = ["CenteredSolveReport", "solve_min_volume_centered"]


@dataclass
class CenteredSolveReport:
    """Best center and its fixed-center solve.

    outer_iterations counts the Newton steps of the joint path and
    evaluations the fixed-center solves.  meta holds the joint path's
    barrier stages ("joint_stages"), its center stationarity
    ||sum_i lambda_i grad g(x_i - a)||_inf / y0 with lambda_i =
    1/(t s_i), measured in the whitened frame ("center_stationarity"),
    the reason the joint path was abandoned, if it was ("fallback"),
    the candidates stopped by their bar ("pruned": name -> {"bound":
    lower bound on its objective, "steps": derivative evaluations}), and
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


def _solve_at(cs, a, degree, tol, resume=None, bar=np.inf):
    """Fixed-center solve for the points shifted by -a: resumed from
    resume = (g, t) if given, then cold if that fails.  The solver picks
    the contacts itself, points just inside the boundary included, so a
    cold failure is final.  A finite bar lets the solve stop once it
    proves its optimum above bar; an infinite one runs solve_min_volume's
    path bit for bit (solver._solve_min_volume).

    Returns (objective, report, solves run), (+inf, error, solves run)
    when the shifted problem has no solve, or (lower bound, _Pruned,
    solves run) when it was pruned.
    """
    shifted = cs.shifted(a)
    starts = [resume, None] if resume is not None else [None]
    for solves, start in enumerate(starts, start=1):
        try:
            report = _solve_min_volume(shifted, degree, tol, start, bar)
            return report.objective, report, solves
        except _Pruned as cut:
            return cut.bound, cut, solves
        except (ConvergenceError, DegenerateInputError, NotInConeError) as exc:
            error = exc
    return np.inf, error, solves


def _resume_point(g_w, t, W, L, z):
    """Start (g_w(W z), t') of the fixed solve for z = x - a from the joint
    path's last g_w and t, in its frame W (x - centroid), L = W^-1.  t * y0
    is frame-invariant, so t' = t |det L_z| / |det L| (L_z L_z^T = z^T z /
    m), rounded down to BARRIER_T0 * BARRIER_MULTIPLIER^k, one stage lower.
    """
    t *= math.sqrt(np.linalg.det(z.T @ z / len(z))) / np.prod(np.diag(L))
    k = math.floor(math.log(t / BARRIER_T0, BARRIER_MULTIPLIER)) - 1
    return compose_linear(g_w, W), BARRIER_T0 * BARRIER_MULTIPLIER ** max(k, 0)


def _joint_path(points, degree, tol=1e-8):
    """Log-barrier Newton path in (g, a) for whitened points whose
    centroid is the origin, starting at a = 0.

    Returns (a, g, t, Newton steps, stages, center stationarity) at the
    first stage that meets the duality-gap bound m/t <= tol * y0; raises
    ConvergenceError when none does within the solver's budgets.
    """
    n = points.shape[1]
    basis = basis_for(n, degree)
    size = len(basis)
    J, L = np.triu_indices(n)
    jet = [()] + [(j,) for j in range(n)] + list(zip(J, L))

    def slacks(x, jacobian=False):
        g, z = HomogeneousPoly(n, degree, x[:size]), points - x[size:]
        if not jacobian:
            return 1.0 - g(z)
        # m(z), dm/dz_j and d2m/dz_j dz_l (j <= l) from one set of power tables
        partials = monomial_partials(z, basis.exponents, jet)
        M, dM = partials[:, 0], partials[:, 1:n + 1]
        s = 1.0 - M @ g.coeff_vector
        inv = 1.0 / s
        # minus sum_i (second derivative of s_i) / s_i: the g-a block of
        # d2s is +dm/dz, the a-a block is -hess g
        curvature = np.zeros((size + n, size + n))
        curvature[:size, size:] = -np.tensordot(inv, dM, 1).T
        curvature[size:, :size] = curvature[:size, size:].T
        hess_g = inv @ (partials[:, n + 1:] @ g.coeff_vector)
        curvature[size + J, size + L] = curvature[size + L, size + J] = hess_g
        # -ds/d(g, a): row i is (m(z_i), -grad g(z_i))
        return s, np.hstack([M, -(dM @ g.coeff_vector)]), curvature

    x = np.concatenate([initial_guess(points, degree).coeff_vector,
                        np.zeros(n)])
    path = _barrier_path(x, n, degree, slacks, tol, label="joint path: ")
    x, t, stages, steps, state = next(path)
    y0, slack, jac = state[0], state[4], state[5]
    lam = 1.0 / (t * slack)
    stationarity = float(np.max(np.abs(jac[:, size:].T @ lam))) / y0
    return (x[size:], HomogeneousPoly(n, degree, x[:size]), t, steps, stages,
            stationarity)


def solve_min_volume_centered(cs, degree, tol=1e-8):
    """Best center and polynomial for {x : g(x - a) <= 1} containing the
    points.

    Runs the joint (g, a) barrier path in coordinates whitened about the
    centroid, then fixed-center solves at the joint center (resumed), the
    centroid and the origin, each after the first stopped once it provably
    loses (module docstring); the smallest objective wins.  If the joint
    path fails (ConvergenceError or NotInConeError) only the centroid and
    the origin are tried, and meta["fallback"] says why.

    Raises DegenerateInputError if the points minus their centroid do
    not span R^n (the volume then tends to 0 and no minimizer exists).
    If no candidate center admits a solve, raises the error of the first
    candidate.  tol is the KKT tolerance of the joint path and of every
    fixed-center solve (solver.solve_min_volume).
    """
    _check_tolerance(tol)
    points = cs.points
    n = points.shape[1]
    centroid = points.mean(axis=0)
    L, W, whitened = _whiten(points - centroid, "points minus their "
                             "centroid lie in a proper subspace; the "
                             "centered volume can shrink to zero")

    meta = {"joint_stages": 0, "center_stationarity": None, "fallback": None}
    candidates, steps = [], 0
    try:
        a_w, g_w, t, steps, meta["joint_stages"], \
            meta["center_stationarity"] = _joint_path(whitened, degree, tol)
        center = centroid + L @ a_w
        candidates.append(("joint", center, _resume_point(
            g_w, t, W, L, points - center)))
    except (ConvergenceError, NotInConeError) as exc:
        meta["fallback"] = str(exc)
    candidates += [("centroid", centroid, None), ("origin", np.zeros(n), None)]

    results, best = [], np.inf
    evaluations = 0
    meta["pruned"] = {}
    for name, center, resume in candidates:
        value, report, solves = _solve_at(cs, center, degree, tol, resume, best)
        evaluations += solves
        if isinstance(report, _Pruned):
            meta["pruned"][name] = {"bound": value, "steps": report.steps}
        else:
            best = min(best, value)
        results.append((value, report, center, name))
    value, report, center, meta["chosen"] = min(results, key=lambda r: r[0])
    if not np.isfinite(value):
        raise report
    return CenteredSolveReport(
        center=center, inner=report,
        volume=value / math.gamma(1.0 + n / degree),
        outer_iterations=steps, evaluations=evaluations, meta=meta,
    )
