"""Moments of exp(-g) for homogeneous g, by radial-angular reduction.

For g homogeneous of even degree d with g > 0 away from the origin,
substituting x = r*u (r > 0, |u| = 1) and integrating the radial part in
closed form gives, for any multi-index a,

    I_a(g) = Integral_{R^n} x^a exp(-g(x)) dx
           = Gamma((n+|a|)/d) / d * Integral_{S^{n-1}} u^a g(u)^{-(n+|a|)/d} dS(u),

so every moment is a smooth integral over the unit sphere.  The sphere
integral is evaluated on the Gauss product grid of `spheres`, whose
resolution doubles from about START_POINTS nodes until two consecutive
levels agree to TOLERANCE (relative) or the next level would exceed
MAX_POINTS; both sizes count the full sphere grid, although only half of
its nodes are evaluated.  Gauss levels are not nested, so the self-check
compares the accuracy of two rules rather than refining one.

A caller that integrates a sequence of similar integrands (the Newton
iterates of one barrier path) passes a hint: a dict holding the
resolution at which the last call converged.  A hinted call climbs from
half that resolution, so it returns at the hint or above when the
integrand has not eased.  To follow an integrand that has eased, a call
first tries the pair one level lower, and returns there, lowering the
hint, if that pair agrees.  A try that fails costs one coarse level, so
after each failure the next try waits 1, 2, 4, ... calls, and the wait
resets after a success; a hint that is already right then costs
O(log calls) extra levels per sequence.  A call that stops unconverged at
MAX_POINTS backs off in the same way.  Every returned value still passed
the self-check, or is reported unconverged.

g has even degree, so for even |a| the integrand is even and is summed on
half_sphere_grid (one node per antipodal pair) at half the cost; point
counts still count the full grid.  Odd moments are exactly zero.

Each level is summed one axis at a time: the half grid's nodes are
u = (s_j p_i, t_j), s_j = sqrt(1 - t_j^2), over the last axis's Gauss nodes
t_j and the (n-1)-dimensional half grid p_i, so u^a = s_j^|a'| t_j^(a_n) p_i^a'
is summed over i by matrix products with tables cached on the lower grid,
then over j (for n <= 2 there is one node, t = 0).

Two identities tie the moments together and are used as cross-checks
elsewhere:

* Euler:  sum_a g_a I_a = (n/d) I_0  (integrate g*exp(-g) by parts).
* Level set:  I_a = Gamma(1 + (n+|a|)/d) * Integral_{G_1} x^a dx where
  G_1 = {g <= 1}; homfit.verify checks it against a Monte-Carlo
  estimate of the right side.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NotInConeError
from .polynomials import (_parse_key, basis_for, monomial_matrix,
                          positivity_floor)
from .spheres import grid_size, half_grid_factors, resolution_for_budget

__all__ = [
    "MomentVector",
    "integral_exp",
    "volume_sublevel",
    "moment",
    "moment_vector",
]

# The ladder's settings, read at call time.
START_POINTS = 64            # grid size of the first level
TOLERANCE = 1e-10            # relative agreement of consecutive levels
MAX_POINTS = 1 << 20         # cap on the grid size of any level


@dataclass
class MomentVector:
    """Moments of exp(-g): total mass y0, the degree-d slice, and
    optionally the degree-2d slice (Hessian data).

    slice_d[k] is I_a for a the k-th member of basis_for(n, d); slice_2d,
    when present, is aligned with basis_for(n, 2d) in the same way.
    """

    n: int
    degree: int
    y0: float
    slice_d: np.ndarray
    slice_2d: np.ndarray | None = None
    quadrature_info: dict = field(default_factory=dict)

    def hessian_matrix(self):
        """Matrix H[a, b] = I_{a+b} over the degree-d basis (needs 2d slice)."""
        if self.slice_2d is None:
            raise ValueError("2d moments were not computed; pass include_2d=True")
        return self.slice_2d[_hessian_alias(self.n, self.degree)]


@lru_cache(maxsize=64)
def _hessian_alias(n, degree):
    # position of a+b in the 2d basis, for a, b in the d basis
    small = basis_for(n, degree)
    big = basis_for(n, 2 * degree)
    size = len(small)
    alias = np.empty((size, size), dtype=np.int64)
    for i, a in enumerate(small):
        for j, b in enumerate(small):
            alias[i, j] = big.index_of(tuple(x + y for x, y in zip(a, b)))
    return alias


def _power_tables(n, resolution, exps):
    """u^a = outer[j, a] * inner[i, a] on the half grid (module docstring)."""
    t, _, points, _ = half_grid_factors(n, resolution)
    head, last = exps[:, :points.shape[1]], exps[:, points.shape[1]:].sum(axis=1)
    outer = np.sqrt(1.0 - t * t)[:, None] ** head.sum(axis=1) * t[:, None] ** last
    return outer, monomial_matrix(points, head)


@lru_cache(maxsize=10)
def _basis_tables(n, resolution, k):
    """_power_tables of the full degree-k basis, cached: the ladder revisits
    the same grids on every optimizer iteration, and the tables depend only
    on the grid and the slice degree, never on g."""
    tables = _power_tables(n, resolution, basis_for(n, k).exponents)
    for table in tables:
        table.setflags(write=False)
    return tables


_workspace = threading.local()


def _work_arrays(count, rows, cols):
    """`count` (rows, cols) arrays on one buffer per thread that only grows.
    Level-sized arrays freed after every call go back to the OS whenever
    they end on top of the heap, and fault in again on the next call."""
    size = count * rows * cols
    if getattr(_workspace, "buf", np.empty(0)).size < size:
        _workspace.buf = np.empty(size)
    return _workspace.buf[:size].reshape(count, rows, cols)


def _angular_integrals(g, slices, hint=None):
    """Sphere integrals of u^a * g(u)^(-(n+k)/d) for each (exponents, k) slice,
    k even (the half rule integrates even integrands only).

    Returns (list of per-slice arrays, info dict).  Doubles the grid from
    about START_POINTS nodes until two consecutive levels agree within
    TOLERANCE (each slice scaled by its own largest component) or the next
    level would exceed MAX_POINTS.

    `hint` is an optional mutable dict, the ladder's memory between calls
    on similar integrands: "res", the resolution of the last returned
    level, and the back-off state "wait" and "backoff" of the downward
    try (module docstring).  A hinted call starts at res / 2, or at res / 4
    when a try is due, instead of at the bottom; the doubling self-check
    runs either way.
    """
    n, d = g.n, g.degree
    floor = positivity_floor(g)
    coeffs = g.coeff_vector

    def level(resolution):
        _, tw, _, weights = half_grid_factors(n, resolution)
        outer, inner = _basis_tables(n, resolution, d)
        gv, radial, weighted = _work_arrays(3, tw.size, weights.size)
        np.matmul(outer * coeffs, inner.T, out=gv)
        worst = float(gv.min())
        if worst <= floor:
            raise NotInConeError(
                f"g is not strictly positive on the sphere "
                f"(sampled value {worst:.3e}); moments diverge"
            )
        totals = []
        last_k = None
        for exps, k in slices:
            # a slice d above the last differs by a factor g^{-1}; one real
            # pow, then divisions
            if last_k == k - d:
                np.divide(radial, gv, out=radial)
            else:
                np.power(gv, -(n + k) / d, out=radial)
            last_k = k
            if exps.shape[0] == 1 and not exps.any():
                totals.append(np.array([float(tw @ (radial @ weights))]))
                continue
            full = basis_for(n, k).exponents
            if exps.shape == full.shape and np.array_equal(exps, full):
                outer, inner = _basis_tables(n, resolution, k)
            else:
                outer, inner = _power_tables(n, resolution, exps)
            totals.append(tw @ (np.multiply(radial, weights, out=weighted) @ inner * outer))
        return totals, 2 * tw.size * weights.size

    if n == 1:
        totals, count = level(2)
        return totals, {"points": count, "converged": True, "last_delta": 0.0}

    def slicewise_ok(cur, prev):
        worst = 0.0
        for a, b in zip(cur, prev):
            gap = float(np.max(np.abs(a - b))) if a.size else 0.0
            scale = max(float(np.max(np.abs(a))) if a.size else 0.0, 1e-300)
            worst = max(worst, gap / scale)
        return worst <= TOLERANCE, worst

    base = resolution_for_budget(n, START_POINTS)
    res = base
    probe = False
    if hint and hint.get("res"):
        res = max(base, int(hint["res"]) // 2)
        if hint.get("wait", 0):
            hint["wait"] -= 1
        elif res // 2 >= base:
            res //= 2
            probe = True
    prev = None
    delta = np.inf
    while True:
        totals, count = level(res)
        if prev is not None:
            ok, delta = slicewise_ok(totals, prev)
            if probe:       # the first pair decides the back-off
                probe = False
                hint["backoff"] = 0 if ok else max(1, 2 * hint.get("backoff", 0))
                hint["wait"] = hint["backoff"]
            if ok:
                if hint is not None:
                    hint["res"] = res
                return totals, {"points": count, "converged": True,
                                "last_delta": delta}
        prev = totals
        if grid_size(n, res * 2) > MAX_POINTS:
            if hint is not None:
                hint["res"] = res
            return totals, {"points": count, "converged": False,
                            "last_delta": delta}
        res *= 2


def _radial_factor(n, d, k):
    return math.gamma((n + k) / d) / d


def integral_exp(g, hint=None):
    """Total mass Integral exp(-g(x)) dx over R^n."""
    zero = np.zeros((1, g.n), dtype=np.int64)
    totals, _ = _angular_integrals(g, [(zero, 0)], hint=hint)
    return _radial_factor(g.n, g.degree, 0) * float(totals[0][0])


def volume_sublevel(g, y):
    """Lebesgue volume of {x : g(x) <= y}.

    vol = y^(n/d) / Gamma(1 + n/d) * Integral exp(-g); zero at y = 0,
    ValueError for y < 0.
    """
    if y < 0:
        raise ValueError("level y must be nonnegative")
    if y == 0:
        return 0.0
    n, d = g.n, g.degree
    return y ** (n / d) / math.gamma(1.0 + n / d) * integral_exp(g)


def moment(g, alpha):
    """Single moment Integral x^alpha exp(-g) dx for any multi-index."""
    alpha = _parse_key(alpha)
    if len(alpha) != g.n:
        raise ValueError("multi-index dimension mismatch")
    k = sum(alpha)
    if k % 2:
        return 0.0      # odd integrand on a symmetric domain
    totals, _ = _angular_integrals(g, [(np.array([alpha], dtype=np.int64), k)])
    return _radial_factor(g.n, g.degree, k) * float(totals[0][0])


def moment_vector(g, include_2d=False, hint=None):
    """All moments needed by the optimizer, in one angular pass.

    Computes y0 and the full degree-d slice; with include_2d also the
    degree-2d slice (from which the objective Hessian is assembled by
    exponent addition).  `hint` as in the angular integrator: a mutable
    dict, the ladder's memory between calls on similar integrands.
    """
    n, d = g.n, g.degree
    slices = [(np.zeros((1, n), dtype=np.int64), 0),
              (basis_for(n, d).exponents, d)]
    if include_2d:
        slices.append((basis_for(n, 2 * d).exponents, 2 * d))
    totals, info = _angular_integrals(g, slices, hint=hint)

    y0 = _radial_factor(n, d, 0) * float(totals[0][0])
    slice_2d = _radial_factor(n, d, 2 * d) * totals[2] if include_2d else None
    return MomentVector(n=n, degree=d, y0=y0,
                        slice_d=_radial_factor(n, d, d) * totals[1],
                        slice_2d=slice_2d, quadrature_info=info)
