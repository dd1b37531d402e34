"""Deterministic unit-sphere grids shared by the minimizer and quadrature.

Each grid is (points, weights) with points of shape (M, n) on the unit
sphere and weights summing to the sphere's surface measure, so that
sum(w_i f(u_i)) approximates the surface integral of f.

* n = 1: the two-point sphere {-1, +1}, weight 1 each (counting measure).
* n >= 2: one product rule.  S^1 gets r uniform angles (trapezoid rule,
  spectrally accurate for smooth periodic integrands).  Each further
  dimension k = 3..n writes u = (sqrt(1 - t^2) v, t) with v on S^(k-2),
  so that dS = (1 - t^2)^((k-3)/2) dt dS(v), and crosses r // 2 Gauss
  nodes for that weight with the rule one dimension down.  The grid has
  r * (r // 2)^(n-2) points and integrates every monomial of degree at
  most 2 * (r // 2) - 1 exactly.

For even r the grid is closed under u -> -u with equal weights (the
circle index moves by r/2, the Gauss nodes are symmetric), so an even
integrand needs only half_sphere_grid: circle indices j < r/2, weights
doubled.  resolution_for_budget returns even r for this reason.  The half
grid is the last axis's r // 2 Gauss nodes times the half grid one
dimension down (half_grid_factors), so sums over it go one axis at a time.
"""

from functools import lru_cache

import math
import numpy as np

__all__ = ["half_sphere_grid", "sphere_grid"]


def _circle(m):
    theta = 2.0 * math.pi * np.arange(m) / m
    points = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(m, 2.0 * math.pi / m)
    return points, weights


@lru_cache(maxsize=128)
def _gauss(k, r):
    # r // 2-node Gauss rule of the last axis of S^(k-1),
    # u = (sqrt(1 - t^2) v, t), for its weight (1 - t^2)^a on (-1, 1),
    # a = (k - 3) / 2.  The nodes are the roots of the orthonormal p_m,
    # m = r // 2, where t p_j = b_(j+1) p_(j+1) + b_j p_(j-1).  Newton runs
    # on the nonnegative ones (the rule is symmetric), all at once, with
    # (1 - t^2) p_m' = (2m + 2a + 1) b_m p_(m-1) - m t p_m, from the
    # Gatteschi-Pittaluga guesses cos(phi + (1/4 - a^2) cot(phi) / (2 rho^2)),
    # phi = (i + a/2 - 1/4) pi / rho, rho = m + a + 1/2.  The weights are the
    # Christoffel numbers 1 / sum_(j<m) p_j(t)^2.  A dense eigensolver on
    # the Jacobi matrix costs O(m^3) and, threaded, stalls under CPU
    # contention.
    m, a = r // 2, (k - 3) / 2.0
    j = np.arange(1.0, m + 1.0)
    b = np.sqrt(j * (j + 2.0 * a) / ((2.0 * j + 2.0 * a) ** 2 - 1.0))
    mass = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    rho = m + a + 0.5
    phi = (np.arange((m + 1) // 2, 0, -1.0) + a / 2.0 - 0.25) * math.pi / rho
    t = np.cos(phi + (0.25 - a * a) / (2.0 * rho * rho * np.tan(phi)))
    terms = list(zip([0.0, *b[:-1].tolist()], (1.0 / b).tolist()))
    for _ in range(100):
        prev, cur = np.zeros_like(t), np.full_like(t, 1.0 / math.sqrt(mass))
        christoffel = np.zeros_like(t)
        for back, inv in terms:
            christoffel += cur * cur
            prev, cur = cur, (t * cur - back * prev) * inv
        slope = (2 * m + 2 * a + 1) * b[-1] * prev - m * t * cur
        step = cur * (1.0 - t * t) / slope
        t = t - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 1.0 / christoffel
    odd = m % 2
    return np.concatenate([-t[odd:][::-1], t]), np.concatenate([w[odd:][::-1], w])


def _product(n, r):
    points, weights = _circle(r)
    for k in range(3, n + 1):
        t, tw = _gauss(k, r)
        scaled = np.sqrt(1.0 - t * t)[:, None, None] * points[None]
        points = np.column_stack([scaled.reshape(-1, k - 1),
                                  np.repeat(t, len(weights))])
        weights = np.outer(tw, weights).ravel()
    return points, weights


# The benchmark tracer in perfbench/spans.py counts grid builds under the
# names of the former per-dimension builders; these aliases exist only
# for it.
_fibonacci = _product_s3 = _product


def grid_size(n, resolution):
    """Point count of sphere_grid(n, resolution) for n >= 2."""
    r = max(int(resolution), 4)
    return r * (r // 2) ** (n - 2)


def resolution_for_budget(n, budget):
    """Even resolution whose grid has roughly `budget` points, for n >= 2:
    solves r * (r/2)^(n-2) = budget."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    return 2 * max(2, round((budget * 2.0 ** (n - 2)) ** (1.0 / (n - 1)) / 2))


@lru_cache(maxsize=128)
def sphere_grid(n, resolution):
    """Deterministic grid on the unit sphere in R^n.

    `resolution` r is the number of circle angles (raised to 4 if
    smaller); see the module docstring for the rule.  Returns
    (points, weights), both read-only.
    """
    n = int(n)
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if n < 1:
        raise ValueError(f"no sphere grid for n={n}")
    if n == 1:
        points = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
    else:
        points, weights = _product(n, max(resolution, 4))
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@lru_cache(maxsize=128)
def half_sphere_grid(n, resolution):
    """sphere_grid(n, resolution) with one node of each antipodal pair, its
    weight doubled; ValueError for odd resolution (no antipodal closure)."""
    if int(resolution) % 2:
        raise ValueError("the half rule needs an even resolution")
    points, weights = sphere_grid(n, resolution)
    r = 2 if n == 1 else max(int(resolution), 4)
    points = points.reshape(-1, r, n)[:, : r // 2].reshape(-1, n)
    weights = 2.0 * weights.reshape(-1, r)[:, : r // 2].ravel()
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


@lru_cache(maxsize=128)
def half_grid_factors(n, resolution):
    """half_sphere_grid(n, r) as (t, tw, points, weights): for n >= 3 its
    nodes are (sqrt(1 - t_j^2) p_i, t_j), weights tw_j w_i, j major, with
    (t, tw) the last axis's Gauss rule and (p, w) half_sphere_grid(n - 1, r);
    for n <= 2, t = [0], tw = [1] and (p, w) is the half grid itself."""
    lower = n - 1 if n >= 3 else n
    t, tw = _gauss(n, max(int(resolution), 4)) if n >= 3 else (np.zeros(1), np.ones(1))
    t.setflags(write=False)
    tw.setflags(write=False)
    return t, tw, *half_sphere_grid(lower, resolution)
