"""Checks that are independent of the solver.

Everything here is computed from a polynomial, atoms and the library's
quadrature or plain sampling, never from the solver, the certificate
module or the center search, so it can check their answers:

* mc_volume: Monte-Carlo volume of {g <= y}.
* crosscheck_levelset_moment: the level-set identity
  I_a = Gamma(1 + (n+|a|)/d) * Integral_{g<=1} x^a dx, its left side by
  quadrature, its right side by Monte-Carlo.
* contact_moment_matrix and gaussian_moment_matrix: the moment matrix of
  the certificate atoms and of exp(-g), equal at the optimum.
* sphere_surface_area: the measure the sphere rules must sum to.

Both Monte-Carlo checks use one estimator (_box_estimate): uniform
samples over the box of radius (y / min_S g)^(1/d), which holds {g <= y}.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .integrals import moment, moment_vector
from .polynomials import (_hessian_alias, _parse_key, basis_for,
                          check_in_cone, monomial_matrix)

__all__ = ["McVolume", "mc_volume", "CrosscheckResult",
           "crosscheck_levelset_moment", "contact_moment_matrix",
           "gaussian_moment_matrix", "sphere_surface_area"]


class McVolume(NamedTuple):
    estimate: float
    std_error: float


def _box_estimate(g, y, alpha, budget, seed):
    """Monte-Carlo Integral_{g <= y} x^alpha dx with its standard error.

    Samples the box of radius (y / min_S g)^(1/d) uniformly, in batches
    of 2^16 from a Philox stream, so a (budget, seed) pair always
    reproduces.  For alpha = 0 the sample variance is the binomial
    p(1 - p) of the acceptance fraction p.
    """
    if not isinstance(budget, (int, np.integer)) or budget < 1:
        raise ValueError(f"budget must be an integer >= 1, got {budget!r}")
    n, d = g.n, g.degree
    radius = (y / check_in_cone(g)) ** (1.0 / d)
    exps = np.array([alpha], dtype=np.int64)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    total = total_sq = 0.0
    remaining = int(budget)
    while remaining > 0:
        batch = min(remaining, 1 << 16)
        pts = rng.uniform(-radius, radius, size=(batch, n))
        vals = np.where(g(pts) <= y, monomial_matrix(pts, exps)[:, 0], 0.0)
        total += float(vals.sum())
        total_sq += float(vals @ vals)
        remaining -= batch
    box_vol = (2.0 * radius) ** n
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    return McVolume(estimate=box_vol * mean,
                    std_error=box_vol * math.sqrt(var / budget))


def mc_volume(g, y=1.0, budget=1_000_000, seed=0):
    """Monte-Carlo volume of {x : g(x) <= y}, which a translation of the
    set does not change.  Zero at y = 0; ValueError unless y >= 0 and
    budget is an integer >= 1; NotInConeError unless g > 0 on the sphere.
    """
    if not y >= 0:
        raise ValueError("level y must be nonnegative")
    return _box_estimate(g, y, (0,) * g.n, budget, seed)


class CrosscheckResult(NamedTuple):
    lhs: float
    rhs: float
    agree: bool
    std_error: float


def crosscheck_levelset_moment(g, alpha, mc_budget=200_000, seed=0):
    """Check I_alpha = Gamma(1 + (n+|a|)/d) * Integral_{g<=1} x^a dx.

    The left side comes from the angular quadrature, the right from a
    Monte-Carlo estimate over the bounding box of {g <= 1}; 'agree' means
    the two differ by at most four Monte-Carlo standard errors.  ValueError
    unless mc_budget is an integer >= 1.
    """
    alpha = _parse_key(alpha)
    lhs = moment(g, alpha)
    est = _box_estimate(g, 1.0, alpha, mc_budget, seed)
    factor = math.gamma(1.0 + (g.n + sum(alpha)) / g.degree)
    rhs, std_error = factor * est.estimate, factor * est.std_error
    agree = abs(lhs - rhs) <= 4.0 * max(std_error, 1e-300)
    return CrosscheckResult(lhs=lhs, rhs=rhs, agree=bool(agree), std_error=std_error)


def contact_moment_matrix(points, weights, n, half_degree):
    """sum_j lambda_j v(x_j) v(x_j)^T over the degree-(d/2) monomial map."""
    Vh = basis_for(n, half_degree).monomials(points)       # (k, lh)
    return Vh.T @ (np.asarray(weights)[:, None] * Vh)


def gaussian_moment_matrix(g):
    """Integral v(x) v(x)^T exp(-g) dx over the degree-(d/2) monomial map.

    Entries are degree-d moments of exp(-g), read off by exponent
    addition; at the optimum this matrix equals contact_moment_matrix of
    the certificate atoms.
    """
    return moment_vector(g).slice_d[_hessian_alias(g.n, g.degree // 2)]


def sphere_surface_area(n):
    """Surface measure of the unit sphere in R^n (2, 2*pi, 4*pi, 2*pi^2, ...)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
