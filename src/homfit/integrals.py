"""Moments of exp(-g) for homogeneous g, by radial-angular reduction.

For g homogeneous of even degree d with g > 0 away from the origin,
substituting x = r*u (r > 0, |u| = 1) and integrating the radial part in
closed form gives, for any multi-index a,

    I_a(g) = Integral_{R^n} x^a exp(-g(x)) dx
           = Gamma((n+|a|)/d) / d * Integral_{S^{n-1}} u^a g(u)^{-(n+|a|)/d} dS(u),

so every moment is a smooth integral over the unit sphere.

At d = 2, g(x) = x^T Q x and exp(-g) is a Gaussian, so the slices are
closed-form: y0 = pi^(n/2) det(Q)^(-1/2) and, with Sigma = Q^-1 / 2, each
slice follows from the one two below by Isserlis' theorem,
I_a = sum_j Sigma_ij (a - e_i)_j I_(a - e_i - e_j) for i the first nonzero
axis of a.  One eigh of Q gives det Q, Sigma and the cone test, since its
least eigenvalue is the minimum of g on the sphere.

Every other degree runs the sphere ladder: the sphere integral is
evaluated on the Gauss product grid of `spheres`, whose resolution
doubles from about START_POINTS nodes until two consecutive levels agree
to TOLERANCE (relative) or the next level would exceed MAX_POINTS; both
sizes count the full sphere grid, although only half of its nodes are
evaluated.  Gauss levels are not nested, so the self-check compares the
accuracy of two rules rather than refining one.  The exception is n = 2,
whose rule is the trapezoid rule on the circle: the half grid of
resolution r / 2 is every other node of resolution r, bit for bit, so a
call's first pair costs one level evaluation, the coarse sums being the
even nodes' sums with doubled weights (_level).

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

The integrator answers one request: whole slices {|a| = k} by even degree
k (0 is the mass), returned with the factor Gamma((n+k)/d)/d applied.
The optimizer asks for the mass, the degree-d slice (gradient) and the
2d slice (Hessian); a single moment is read from its slice, so the
self-check never scales by a moment that vanishes by symmetry.

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
from .polynomials import (_degree_step, _hessian_alias, _parse_key, _positions,
                          _q_matrix_from_coeffs, basis_for, monomial_matrix,
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


@lru_cache(maxsize=10)
def _basis_tables(n, resolution, k):
    """u^a = outer[j, a] * inner[i, a] on the half grid (module docstring)
    for every a in basis_for(n, k), cached: the ladder revisits the same
    grids on every optimizer iteration, and the tables depend only on the
    grid and the slice degree, never on g."""
    exps = basis_for(n, k).exponents
    t, _, points, _ = half_grid_factors(n, resolution)
    head, last = exps[:, :points.shape[1]], exps[:, points.shape[1]:].sum(axis=1)
    outer = np.sqrt(1.0 - t * t)[:, None] ** head.sum(axis=1) * t[:, None] ** last
    inner = monomial_matrix(points, head)
    for table in (outer, inner):
        table.setflags(write=False)
    return outer, inner


_workspace = threading.local()


def _work_arrays(count, rows, cols):
    """`count` (rows, cols) arrays on one buffer per thread that only grows.
    Level-sized arrays freed after every call go back to the OS whenever
    they end on top of the heap, and fault in again on the next call."""
    size = count * rows * cols
    if getattr(_workspace, "buf", np.empty(0)).size < size:
        _workspace.buf = np.empty(size)
    return _workspace.buf[:size].reshape(count, rows, cols)


def _level(g, degrees, resolution, floor, nested=False):
    """One level of the ladder: the unscaled slice totals of the degrees in
    `degrees` on the half grid of `resolution`, and its full point count.
    NotInConeError if g falls to `floor` at a node.  At n <= 2 the outer
    factor is one node, t = 0, so the sums skip its products.

    With nested (n = 2 only) it also returns the totals of the half grid
    of resolution / 2: its nodes are this grid's even ones, bit for bit
    (angles 2 pi (2j) / r = 2 pi j / (r / 2) in floating point), with
    doubled weights, so they are the even nodes' sums, doubled.
    """
    n, d = g.n, g.degree
    flat = n <= 2       # outer is ones and tw is [1]: one row, no products
    coeffs = g.coeff_vector
    _, tw, _, weights = half_grid_factors(n, resolution)
    outer, inner = _basis_tables(n, resolution, d)
    gv, radial, weighted = _work_arrays(3, tw.size, weights.size)
    if flat:
        gv, radial, weighted = gv[0], radial[0], weighted[0]
    np.matmul(coeffs if flat else outer * coeffs, inner.T, out=gv)
    worst = float(gv.min())
    if worst <= floor:
        raise NotInConeError(
            f"g is not strictly positive on the sphere "
            f"(sampled value {worst:.3e}); moments diverge"
        )
    totals, halves = [], []
    last_k = None
    for k in degrees:
        # a slice d above the last differs by a factor g^{-1}; one real
        # pow, then divisions
        if last_k == k - d:
            np.divide(radial, gv, out=radial)
        else:
            np.power(gv, -(n + k) / d, out=radial)
        last_k = k
        if k == 0:
            mass = radial @ weights
            totals.append(np.array([float(mass if flat else tw @ mass)]))
            if nested:
                halves.append(np.array([2.0 * float(radial[::2] @ weights[::2])]))
            continue
        outer, inner = _basis_tables(n, resolution, k)
        sums = np.multiply(radial, weights, out=weighted) @ inner
        totals.append(sums if flat else tw @ (sums * outer))
        if nested:
            halves.append(2.0 * (weighted[::2] @ inner[::2]))
    count = 2 * tw.size * weights.size
    return (totals, count, halves) if nested else (totals, count)


@lru_cache(maxsize=64)
def _isserlis_step(n, k):
    """For a in basis_for(n, k): i, its first nonzero axis; b = a - e_i; and
    the position of each b - e_j in basis_for(n, k - 2) (0 where b_j = 0)."""
    lead, parent, _ = _degree_step(n, k)
    b = basis_for(n, k - 1).exponents[parent]
    below = b[:, None, :] - np.eye(n, dtype=np.int64)
    below[b == 0] = basis_for(n, k - 2).exponents[0]
    return lead, b, _positions(basis_for(n, k - 2), below.reshape(-1, n)).reshape(-1, n)


def _angular_integrals(g, degrees, hint=None):
    """The moment slices of exp(-g) of the even total degrees in `degrees`,
    ascending (0 is the mass), and an info dict; the k-slice holds I_a for
    every a in basis_for(n, k), in that order.  d = 2 takes the closed form
    (module docstring): info 0 points, converged, delta 0, `hint` untouched.
    Other degrees run _sphere_ladder."""
    if g.degree != 2:
        return _sphere_ladder(g, degrees, hint)
    lam, vec = np.linalg.eigh(_q_matrix_from_coeffs(g))
    if lam[0] <= positivity_floor(g):
        raise NotInConeError(f"g is not strictly positive on the sphere "
                             f"(minimum {lam[0]:.3e}); moments diverge")
    sigma = (vec / (2.0 * lam)) @ vec.T
    slices = [np.array([math.pi ** (g.n / 2) / math.sqrt(float(np.prod(lam)))])]
    for k in range(2, max(degrees) + 1, 2):
        lead, b, below = _isserlis_step(g.n, k)
        slices.append(np.sum(sigma[lead] * b * slices[-1][below], axis=1))
    return ([slices[k // 2] for k in degrees],
            {"points": 0, "converged": True, "last_delta": 0.0})


def _sphere_ladder(g, degrees, hint=None):
    """The slices of _angular_integrals on the sphere ladder: the k-slice
    is Gamma((n+k)/d)/d times the sphere integral of u^a * g(u)^(-(n+k)/d)
    for every a in basis_for(n, k).  Doubles the grid from about
    START_POINTS nodes until two consecutive levels agree within TOLERANCE
    (each slice scaled by its own largest component) or the next level
    would exceed MAX_POINTS.  At n = 2 the first pair takes one
    level evaluation (_level's nested sums).

    `hint` is an optional mutable dict, the ladder's memory between calls
    on similar integrands: "res", the resolution of the last returned
    level, and the back-off state "wait" and "backoff" of the downward
    try (module docstring).  A hinted call starts at res / 2, or at res / 4
    when a try is due, instead of at the bottom; the doubling self-check
    runs either way.
    """
    n, d = g.n, g.degree
    floor = positivity_floor(g)

    def slicewise_ok(cur, prev):
        worst = max(float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(a))), 1e-300)
                    for a, b in zip(cur, prev))
        return worst <= TOLERANCE, worst

    def result(totals, count, converged, delta):
        scaled = [math.gamma((n + k) / d) / d * total for k, total in zip(degrees, totals)]
        return scaled, {"points": count, "converged": converged, "last_delta": delta}

    if n == 1:
        return result(*_level(g, degrees, 2, floor), True, 0.0)

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
    if n == 2 and grid_size(n, res * 2) <= MAX_POINTS:
        # the grid of res is every other node of 2 res: one evaluation
        # gives the first pair
        res *= 2
        totals, count, prev = _level(g, degrees, res, floor, nested=True)
    else:
        totals, count = _level(g, degrees, res, floor)
    while True:
        if prev is not None:
            ok, delta = slicewise_ok(totals, prev)
            if probe:       # the first pair decides the back-off
                probe = False
                hint["backoff"] = 0 if ok else max(1, 2 * hint.get("backoff", 0))
                hint["wait"] = hint["backoff"]
            if ok:
                if hint is not None:
                    hint["res"] = res
                return result(totals, count, True, delta)
        prev = totals
        if grid_size(n, res * 2) > MAX_POINTS:
            if hint is not None:
                hint["res"] = res
            return result(totals, count, False, delta)
        res *= 2
        totals, count = _level(g, degrees, res, floor)


def integral_exp(g):
    """Total mass Integral exp(-g(x)) dx over R^n."""
    totals, _ = _angular_integrals(g, [0])
    return float(totals[0][0])


def volume_sublevel(g, y):
    """Lebesgue volume of {x : g(x) <= y}.

    vol = y^(n/d) / Gamma(1 + n/d) * Integral exp(-g); zero at y = 0,
    ValueError unless y >= 0 (so for nan too).
    """
    if not y >= 0:
        raise ValueError("level y must be nonnegative")
    if y == 0:
        return 0.0
    n, d = g.n, g.degree
    return y ** (n / d) / math.gamma(1.0 + n / d) * integral_exp(g)


def moment(g, alpha):
    """Single moment Integral x^alpha exp(-g) dx for any multi-index, read
    from the whole slice of degree |alpha|."""
    alpha = _parse_key(alpha)
    if len(alpha) != g.n:
        raise ValueError("multi-index dimension mismatch")
    k = sum(alpha)
    if k % 2:
        return 0.0      # odd integrand on a symmetric domain
    totals, _ = _angular_integrals(g, [k])
    return float(totals[0][basis_for(g.n, k).index_of(alpha)])


def moment_vector(g, include_2d=False, hint=None):
    """All moments needed by the optimizer, in one angular pass.

    Computes y0 and the full degree-d slice; with include_2d also the
    degree-2d slice (from which the objective Hessian is assembled by
    exponent addition).  `hint` as in the angular integrator: a mutable
    dict, the ladder's memory between calls on similar integrands.
    """
    d = g.degree
    totals, info = _angular_integrals(g, [0, d, 2 * d] if include_2d else [0, d],
                                      hint=hint)
    return MomentVector(n=g.n, degree=d, y0=float(totals[0][0]), slice_d=totals[1],
                        slice_2d=totals[2] if include_2d else None,
                        quadrature_info=info)
