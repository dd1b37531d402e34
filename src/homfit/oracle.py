"""Independent references: symmetric minimum-volume ellipsoid (log-det
barrier Newton with a certified duality gap) and Monte-Carlo volume.

These never touch the polynomial solver or its quadrature; they exist so
its d = 2 answers and volumes can be checked against another algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateInputError

__all__ = ["EllipsoidOracleResult", "mvee_symmetric", "mc_volume", "McVolume"]


@dataclass
class EllipsoidOracleResult:
    """Shape matrix Q of {x : x'Qx <= 1}, its volume, the input points on
    the boundary, Newton steps used, and the certified log-det gap."""

    Q: np.ndarray
    volume: float
    support_points: np.ndarray
    iterations: int
    gap: float


def _unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


# Barrier path: t grows by _MU once a stage is centred (squared Newton
# decrement <= _CENTRED), up to 2m/tol, where the centred gap is about tol/2
# (past 2m/1e-12 the Newton system is singular in double precision).  Below
# _FULL_STEP the feasible full step skips Armijo, which could backtrack
# without end at the rounding floor of the decrease.
_MU = 30.0
_CENTRED = 1e-2
_FULL_STEP = 0.05 ** 2


def mvee_symmetric(points, tol=1e-9, max_iters=500):
    """Minimum-volume origin-centered ellipsoid containing the points.

    Damped Newton on the log-barrier problem

        minimise  -t log det Q - sum_i log(1 - x_i'Q x_i)

    over the n(n+1)/2 entries of Q, raising t along the central path.  The
    points are whitened by the Cholesky factor C of X'X/m and the answer
    mapped back as Q = C^-T Q_w C^-1, exact as the problem is affine
    equivariant.  The slacks s_i = 1 - x_i'Q x_i are carried from step to
    step and the line search sums log1p terms, so both keep their relative
    accuracy as contact points reach the boundary and t grows.

    The dual point lambda_i = 1/(t s_i), scaled optimally, certifies the
    answer: with Lambda = sum_i lambda_i x_i x_i', the returned `gap`
    -log det(Q Lambda) - n log(n / sum_i lambda_i) >= 0 bounds the excess
    of -log det Q over its minimum, so the volume is within a factor
    exp(gap / 2) of the least one.  Stops once the gap is at most `tol`.

    Raises DegenerateInputError if the points do not span R^n, and
    ConvergenceError, giving the gap, if it is still above `tol` after
    `max_iters` Newton steps.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, n = pts.shape
    if np.linalg.matrix_rank(pts, tol=1e-12 * max(1.0, float(np.abs(pts).max()))) < n:
        raise DegenerateInputError("points do not span the space; ellipsoid is unbounded")

    C = np.linalg.cholesky(pts.T @ pts / m)
    Y = np.linalg.solve(C, pts.T).T
    r, c = np.triu_indices(n)
    w = np.where(r == c, 1.0, 2.0)
    A = Y[:, r] * Y[:, c] * w              # y'Qy = A @ Q[r, c]
    U = np.empty((n, n), dtype=int)        # v[U] unpacks v into a symmetric matrix
    U[r, c] = U[c, r] = np.arange(len(r))
    # flat indices into P = Q^-1: grad of -log det Q is -w * P[r, c], and
    # its Hessian is Hw * (P[r, r'] P[c, c'] + P[r, c'] P[c, r'])
    rc = n * r + c
    rr_, cc_, rc_, cr_ = (n * i[:, None] + j for i, j in ((r, r), (c, c), (r, c), (c, r)))
    Hw = 0.5 * np.outer(w, w)

    norms = np.einsum("ij,ij->i", Y, Y)
    Q = np.eye(n) / (2.0 * norms.max())
    s = 1.0 - norms * Q[0, 0]
    t, t_end = float(m), 2.0 * m / max(tol, 1e-12)
    steps = 0
    while True:
        inv_s = 1.0 / s
        b = inv_s @ A                      # = t * w * Lambda[r, c]
        if t >= t_end or steps == max_iters:
            gap = n * math.log(inv_s.sum() / n) - np.linalg.slogdet(Q @ (b / w)[U])[1]
            if gap <= tol:
                break
            if steps == max_iters:
                raise ConvergenceError(f"ellipsoid gap {gap:.3e} still above {tol:.1e} "
                                       f"after {max_iters} Newton steps")
        P = np.linalg.inv(Q).ravel()
        As = A * inv_s[:, None]
        grad = b - t * w * P[rc]
        hess = t * Hw * (P[rr_] * P[cc_] + P[rc_] * P[cr_]) + As.T @ As
        dq = np.linalg.solve(hess, -grad)
        dec2 = -grad @ dq
        if dec2 <= _CENTRED and t < t_end:
            t = min(_MU * t, t_end)
            continue
        steps += 1
        dQ = dq[U]
        # along the step, det Q scales by prod(1 + a ev) and s by (1 - a cs)
        ev = np.linalg.eigvals(P.reshape(n, n) @ dQ).real
        cs = (A @ dq) * inv_s
        reach = max(cs.max(), -ev.min())
        a = 1.0
        while a * reach >= 1.0 or (dec2 >= _FULL_STEP and -0.25 * a * dec2 <
                                    -t * np.log1p(a * ev).sum() - np.log1p(-a * cs).sum()):
            a *= 0.5
        Q = Q + a * dQ
        s = s * (1.0 - a * cs)

    Ci = np.linalg.inv(C)
    Q = Ci.T @ Q @ Ci
    Q = 0.5 * (Q + Q.T)
    volume = _unit_ball_volume(n) / math.sqrt(np.linalg.det(Q))
    norms = np.einsum("ij,jk,ik->i", pts, Q, pts)
    on_boundary = norms >= 1.0 - 1e-6
    return EllipsoidOracleResult(Q=Q, volume=volume,
                                 support_points=pts[on_boundary].copy(),
                                 iterations=steps, gap=float(gap))


class McVolume(NamedTuple):
    estimate: float
    std_error: float


def mc_volume(g, center=None, y=1.0, budget=1_000_000, seed=0):
    """Monte-Carlo volume of {x : g(x - center) <= y}.

    Rejection sampling in the bounding box implied by the sphere minimum
    of g; the standard error is the binomial one for the acceptance
    fraction.  Uses a counter-based generator so a (budget, seed) pair
    always reproduces.
    """
    from .polynomials import check_in_cone

    if y < 0:
        raise ValueError("level y must be nonnegative")
    smin = check_in_cone(g)
    if y == 0.0:
        # the level set {g <= 0} of an in-cone g has measure zero
        return McVolume(estimate=0.0, std_error=0.0)
    n, d = g.n, g.degree
    radius = (y / smin) ** (1.0 / d)
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    hits = 0
    remaining = int(budget)
    while remaining > 0:
        batch = min(remaining, 1 << 16)
        pts = center + rng.uniform(-radius, radius, size=(batch, n))
        hits += int(np.count_nonzero(g(pts - center) <= y))
        remaining -= batch
    box_vol = (2.0 * radius) ** n
    p = hits / budget
    estimate = box_vol * p
    std_error = box_vol * math.sqrt(max(p * (1.0 - p), 0.0) / budget)
    return McVolume(estimate=estimate, std_error=std_error)
