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
optimum with no uniqueness claim.  Its gradient in g is the fixed-center
barrier gradient at its current center, and each stage is centered to
rounding, so the stage where it yields is a central point of the
fixed-center problem at its own center: the solver's certify step
(solver._certify) polishes its multipliers there, one row per point, into
a SolveReport.  That answer competes with fixed-center solves at the
centroid and the origin; the best of the three wins, so the centered
volume never exceeds the origin-centered one (up to solver tolerance).

The centroid and origin solves run after it, each with a bar: the best
objective so far.  At every Newton step such a solve takes a
weak-duality lower bound on its own optimum from the moments the step
already has (solver._duality_probe), and stops once the bound exceeds
the bar by more than the bound's own quadrature and residual error and a
relative 1e-9.  A stopped candidate's optimum is then provably above the
bar, so its full solve would have lost: the winner and its report are
those of solving all three.  A candidate that can win is never stopped,
and one that is not stopped runs the unbarred path bit for bit.  Its
bound and step count go to meta["pruned"]; it still counts as a
certified candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateInputError, NotInConeError
from .polynomials import HomogeneousPoly, basis_for, monomial_partials
from .solver import (SolveReport, _Pruned, _barrier_path, _certify,
                     _check_tolerance, _solve_min_volume, _whiten,
                     initial_guess)

__all__ = ["CenteredSolveReport", "solve_min_volume_centered"]


@dataclass
class CenteredSolveReport:
    """Best center and its certified answer.

    outer_iterations counts the Newton steps of the joint path and
    evaluations the certified candidates, pruned or not: the joint center
    (whose report is the joint path's own), the centroid and the origin.
    meta holds the joint path's barrier stages ("joint_stages"), its
    center stationarity ||sum_i lambda_i grad g(x_i - a)||_inf / y0 with
    lambda_i = 1/(t s_i), measured in the whitened frame
    ("center_stationarity"), the reason the joint path was abandoned, if
    it was ("fallback"), the candidates stopped by their bar ("pruned":
    name -> {"bound": lower bound on its objective, "steps": derivative
    evaluations}), and which candidate won ("chosen").
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


def _solve_at(cs, a, degree, tol, bar=np.inf):
    """Fixed-center solve for the points shifted by -a, stopped once it
    proves its optimum above a finite bar (solver._solve_min_volume).
    Returns (objective, report), (+inf, error) when the shifted problem
    has no solve, or (lower bound, _Pruned) when it was pruned.
    """
    try:
        report = _solve_min_volume(cs.shifted(a), degree, tol, bar)
        return report.objective, report
    except _Pruned as cut:
        return cut.bound, cut
    except (ConvergenceError, DegenerateInputError, NotInConeError) as exc:
        return np.inf, exc


def _joint_path(points, degree, tol=1e-8):
    """Log-barrier Newton path in (g, a) for the (m, n) points, whitened
    about their centroid and started there.

    Returns (center, report, center stationarity) at the first stage that
    meets the gap bound m/t <= tol * y0 and whose multipliers, polished at
    its center, meet tol (solver._certify).  Raises DegenerateInputError
    where solver._whiten does for the points minus their centroid,
    ConvergenceError when the path or its polish fails within budget.
    """
    n = points.shape[1]
    centroid = points.mean(axis=0)
    L, W, whitened = _whiten(points - centroid, "points minus their "
                             "centroid lie in a proper subspace; the "
                             "centered volume can shrink to zero", degree)
    basis = basis_for(n, degree)
    size = len(basis)
    J, K = np.triu_indices(n)
    jet = [()] + [(j,) for j in range(n)] + list(zip(J, K))

    def slacks(x, jacobian=False):
        g, z = HomogeneousPoly(n, degree, x[:size]), whitened - x[size:]
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
        curvature[size + J, size + K] = curvature[size + K, size + J] = hess_g
        # -ds/d(g, a): row i is (m(z_i), -grad g(z_i))
        return s, np.hstack([M, -(dM @ g.coeff_vector)]), curvature

    x = np.concatenate([initial_guess(whitened, degree).coeff_vector,
                        np.zeros(n)])
    path = _barrier_path(x, n, degree, slacks, tol, label="joint path: ")
    every = slice(None)     # the center moves: each point is a row of its own
    report, x, state = _certify(
        path, lambda x: (points - (centroid + L @ x[size:]), every, every),
        L, W, n, degree, tol)
    y0, slack, jac = state[0], state[4], state[5]
    lam = 1.0 / (report.t_final * slack)
    stationarity = float(np.max(np.abs(jac[:, size:].T @ lam))) / y0
    return centroid + L @ x[size:], report, stationarity


def solve_min_volume_centered(cs, degree, tol=1e-8):
    """Best center and polynomial for {x : g(x - a) <= 1} containing the
    points.

    Runs the joint (g, a) barrier path in coordinates whitened about the
    centroid and certifies its answer at the joint center, then runs
    fixed-center solves at the centroid and the origin, each stopped once
    it provably loses (module docstring); the smallest objective wins.  If
    the joint path or its certificate fails (ConvergenceError or
    NotInConeError) only the centroid and the origin are tried, and
    meta["fallback"] says why.

    Raises DegenerateInputError if the points minus their centroid do
    not span R^n, or a nonzero form of degree d/2 vanishes at all of them
    (the volume then tends to 0 and no minimizer exists).
    If no candidate center admits a solve, raises the error of the first
    candidate.  tol is the KKT tolerance of the joint path and of every
    fixed-center solve (solver.solve_min_volume).
    """
    _check_tolerance(tol)
    points = cs.points
    n = points.shape[1]
    meta = {"joint_stages": 0, "center_stationarity": None, "fallback": None,
            "pruned": {}}
    results, steps = [], 0
    try:
        center, report, meta["center_stationarity"] = _joint_path(
            points, degree, tol)
        steps, meta["joint_stages"] = report.iterations, report.stages
        results.append((report.objective, report, center, "joint"))
    except (ConvergenceError, NotInConeError) as exc:
        meta["fallback"] = str(exc)

    best = results[0][0] if results else np.inf
    for name, center in (("centroid", points.mean(axis=0)),
                         ("origin", np.zeros(n))):
        value, report = _solve_at(cs, center, degree, tol, best)
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
        outer_iterations=steps, evaluations=len(results), meta=meta,
    )
