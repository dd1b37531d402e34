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
a SolveReport, and that answer is the fit.  When the path or its
certificate fails, the fit raises that error rather than answer at a
center the path did not reach, which would be a quiet non-optimal fit.
The objective at any other center a is
solve_min_volume(cs.shifted(a), d).objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polynomials import HomogeneousPoly, basis_for, monomial_partials
from .solver import (SolveReport, _barrier_path, _certify, _check_arguments,
                     _whiten, initial_guess)

__all__ = ["CenteredSolveReport", "solve_min_volume_centered"]


@dataclass
class CenteredSolveReport:
    """The joint center and its certified answer.

    outer_iterations counts the Newton steps of the joint path, and
    evaluations the certified solves: one, the joint path's own.  meta
    holds the path's barrier stages ("joint_stages") and its center
    stationarity ||sum_i lambda_i grad g(x_i - a)||_inf / y0 with
    lambda_i = 1/(t s_i), measured in the whitened frame
    ("center_stationarity").
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
    """Center and polynomial for {x : g(x - a) <= 1} containing the
    points: the certified answer of the joint (g, a) barrier path, run in
    coordinates whitened about the centroid (module docstring).  The path
    gives a local optimum; no other center is tried.

    Raises DegenerateInputError if the points minus their centroid do
    not span R^n, or a nonzero form of degree d/2 vanishes at all of them
    (the volume then tends to 0 and no minimizer exists);
    ConvergenceError or NotInConeError, unchanged, when the joint path or
    its certificate fails; ValueError for a degree that is not even and
    >= 2.  tol is the KKT tolerance, as for solver.solve_min_volume.
    """
    _check_arguments(degree, tol)
    center, report, stationarity = _joint_path(cs.points, degree, tol)
    return CenteredSolveReport(
        center=center, inner=report, volume=report.volume,
        outer_iterations=report.iterations, evaluations=1,
        meta={"joint_stages": report.stages,
              "center_stationarity": stationarity},
    )
