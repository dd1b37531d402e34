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
Barrier multipliers 1/(t*(1-g(x_i))) are then polished by a nonnegative
least-squares fit (_nnls) of the contact columns to the degree-d moment
vector; its answer is basic, so at most C(n+d-1, d) weights are positive,
the paper's contact bound.  The solver picks the contacts itself, in at
most two cuts: the points with slack <= ACTIVITY_TOL, and, only if that
fit misses the tolerance tol, the points with slack <= tol (one more fit,
not one more solve).  A tol below ACTIVITY_TOL drops points just inside
the boundary; a tol above it takes in the contacts of a loose solve, whose
yielding t is so small that their slacks, about 1/(t lambda_i), exceed
ACTIVITY_TOL.  The first fit that meets tol is taken.  While neither does
the path goes on, but only as long as each stage at least halves the
smaller residual of the two; a stage that does not ends the solve with a
"stalled" ConvergenceError.

The barrier path (_barrier_path), the whitening (_whiten) and the polish
with its map to the user's frame (_certify) are shared with the centered
fit, whose slacks 1 - g(x_i - a) also depend on a center a; each caller
gives its slacks, their derivatives and each iterate's frame.  The
centered fit's losing candidates run with a bar (_solve_min_volume): a
weak-duality bound taken at every step (_duality_probe) stops the solve
once it proves the optimum above the bar.  The schedule is fixed: t
starts at BARRIER_T0 and grows by BARRIER_MULTIPLIER for at most
MAX_STAGES stages, which together take at most MAX_NEWTON_ITERS Newton
steps, and the line search backtracks by BACKTRACK_RATIO until Phi_t
drops by ARMIJO_SLOPE times the predicted decrease.  Both fits start
from initial_guess with FEASIBILITY_MARGIN headroom.

The line search gives up, and the stage ends, once the predicted decrease
alpha * |grad^T p| falls below PHI_ROUNDING * |Phi_t(x)|, or alpha below
1e-14.  At a feasible x every s_i lies in (0, 1], so Phi_t(x) = t * y0 +
sum_i |log s_i| is a sum of nonnegative terms, each computed to a few
ulps: y0 is a positively weighted sum of positive values, and numpy sums
the logs pairwise.  So Phi_t(x) carries a rounding error of a few ulps of
|Phi_t(x)|, and PHI_ROUNDING = 1e-15 is about 4.5 ulps.  The true change
along the step is, to first order, at most alpha * |grad^T p| (exactly
so where Phi_t is convex), so below that floor the Armijo test compares
values that differ by less than their rounding, and its verdict is noise;
smaller alpha only shrinks the change further.

The inner loop stops on the Newton decrement lambda^2 = -grad^T p, not
the gradient norm: at large t the gradient is dominated by roundoff in
(1 - g(x_i)) at active points, noise that lies in the active span where
the Hessian is O(t^2), so it moves g negligibly while keeping the
gradient norm large.  It stops at lambda^2 / 2 <= 1e-17 * t * y0 where
the point is read: on the joint (g, a) path, whose curved slacks make
Phi_t nonconvex, and at the stages that meet the gap bound and the one
before them.  With linear slacks Phi_t is strictly convex, its central
point unique, and other stages stop at lambda^2 <= LOOSE_DECREMENT (Boyd
& Vandenberghe, Convex Optimization, 11.5), so the yielding stage starts
and ends where it would anyway, up to rounding.  There, steps above
LOOSE_DECREMENT are Newton's damped phase, where the decrement need not
halve, so they do not count toward the stall rule.

Each iterate is integrated once.  The moments of exp(-g) (mass, degree-d
and 2d slices) are the only costly part of a step and do not depend on t,
so a stage starts from the moments its predecessor ended on and re-weights
them at its own t.  A line-search trial is one quadrature of those slices:
they decide the Armijo test and, if it passes, are the iterate's, and a
trial whose moments leave the positivity cone (NotInConeError) is
rejected.  Every quadrature of a path climbs from one ladder memory, the
integrals module's hint.

g is even, so x and -x are one constraint: the solve keeps the first row
of each pair (constraints._distinct_rows), its barrier and gap bound count
distinct constraints, and a dropped row's multiplier is 0.

The iteration runs in whitened coordinates (sample scatter = identity).
Without this, elongated clouds produce optimal coefficients that cancel
catastrophically when g is evaluated near its sphere minimum, putting a
hard floor under both quadrature accuracy and the measurable KKT
residual.  The optimum maps back exactly, with no second quadrature: for
x = L u the user-frame moments are |det L| P_d(L) times the whitened ones
(power_matrix) and lambda_i = |det L| lambda_w_i.  The solve fails closed
(ConvergenceError) if its final quadrature did not converge, or if the
user-frame g* misses the whitened values at any point by more than the
cut of the taken fit, the slack that separates contacts from interior
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import _distinct_rows
from .errors import ConvergenceError, DegenerateInputError, NotInConeError
from .integrals import MomentVector, moment_vector
from .polynomials import (HomogeneousPoly, basis_for, compose_linear,
                          power_matrix)

__all__ = ["SolveReport", "initial_guess", "solve_min_volume"]

BARRIER_T0 = 1.0             # barrier weight t of the first stage
BARRIER_MULTIPLIER = 10.0    # growth of t from one stage to the next
MAX_STAGES = 60
MAX_NEWTON_ITERS = 400       # damped Newton steps across all stages
ARMIJO_SLOPE = 1e-4
BACKTRACK_RATIO = 0.5
PHI_ROUNDING = 1e-15         # relative rounding of Phi_t (module docstring)
LOOSE_DECREMENT = 0.5        # stop of stages whose point goes unread
FEASIBILITY_MARGIN = 0.01    # initial-guess headroom
ACTIVITY_TOL = 1e-6          # first contact cut: slacks at or below it
PRUNE_MARGIN = 1e-9          # relative lead of a pruning bound over its bar


def _check_tolerance(tol):
    """ValueError unless the KKT tolerance tol lies in (0, 1)."""
    if not (0 < tol < 1):
        raise ValueError("tol must be in (0, 1)")


@dataclass
class SolveReport:
    """Everything a solve produced.

    multipliers holds one nonnegative weight per constraint point, in the
    user's frame, zero off the contact points.  kkt_residual is measured
    in the solver's whitened frame (scatter = identity), where it is free
    of coefficient-cancellation noise; the certificate module re-measures
    residuals in the original frame.  The multipliers and moment_data (y0
    and the degree-d slice) are exact maps of the final whitened ones;
    quadrature_info is that call's.  t_final, the yielding barrier weight,
    is in the units of the frame the path ran in (t * y0 is invariant).
    """

    g_star: HomogeneousPoly
    objective: float
    volume: float
    iterations: int
    stages: int
    t_final: float
    kkt_residual: float
    multipliers: np.ndarray
    moment_data: MomentVector            # at g_star, exact map


def initial_guess(points, degree):
    """Strictly feasible start for the (m, n) points: x_1^d + ... + x_n^d
    scaled so the largest sample value is 1/(1+FEASIBILITY_MARGIN).
    Always inside the positivity cone."""
    base = HomogeneousPoly.sum_of_powers(points.shape[1], degree)
    top = float(np.max(base(points)))
    if top <= 0.0:
        # all points at the origin; any positive polynomial is feasible
        return base
    return base * (1.0 / ((1.0 + FEASIBILITY_MARGIN) * top))


def _polish_multipliers(V, slack, yd, cut):
    """Nonnegative least-squares fit of the contact columns, slack <= cut,
    to the moment vector.  Returns the dense lambda, zero off the contacts,
    with at most rank(V) <= C(n+d-1, d) positive entries (_nnls)."""
    active = np.flatnonzero(slack <= cut)
    lam = np.zeros(V.shape[0])
    if active.size:
        lam[active] = _nnls(V[active].T, yd)
    return lam


def _nnls(A, b):
    """argmin |A x - b| over x >= 0 by the active-set method of Lawson and
    Hanson (Solving Least Squares Problems, 1974, ch. 23), numpy only.

    Column a_j may enter the passive set only if its part o_j outside the
    passive columns' span is longer than numpy's rank cut max(A.shape) eps
    |A|_2 (with |A|_F for |A|_2), so the passive columns stay independent:
    the answer is basic, with at most rank(A) positive weights
    (Caratheodory).  Of those columns, the one with the largest dual
    o_j^T r, r = b - A x, enters if its dual is above roundoff, 10 eps
    (|b| |o_j| + |r| |a_j|).  The fit stops when no dual is above
    roundoff, or when the least-squares fit gives the entering column no
    positive weight after all.  Each change to the passive set takes the QR
    factors of its columns afresh and solves R z = Q^T b.
    """
    x = np.zeros(A.shape[1])
    order = []                  # passive columns, in the order of Q's
    Q = np.zeros((A.shape[0], 0))
    norms = np.linalg.norm(A, axis=0)
    eps = np.finfo(float).eps
    cut = max(A.shape) * eps * float(np.linalg.norm(norms))
    b_norm = float(np.linalg.norm(b))
    for _ in range(3 * A.shape[1]):
        r = b - A @ x
        outside = A - Q @ (Q.T @ A)
        size = np.sqrt(np.einsum("ij,ij->j", outside, outside))
        dual = outside.T @ r
        roundoff = 10.0 * eps * (b_norm * size + np.sqrt(r @ r) * norms)
        dual[order] = -np.inf
        dual[(size <= cut) | (dual <= roundoff)] = -np.inf
        j = int(np.argmax(dual))
        if dual[j] == -np.inf:
            break
        order.append(j)
        Q, R = np.linalg.qr(A[:, order])
        z = np.linalg.solve(R, Q.T @ b)
        if z[-1] <= 0.0:
            break
        while np.any(z <= 0.0):     # step back to the first weight that hits 0
            old = x[order]
            ratio = np.where(z <= 0.0, old / np.maximum(old - z, 1e-300),
                             np.inf)
            hit = int(np.argmin(ratio))
            x[order] = old + ratio[hit] * (z - old)
            x[order[hit]] = 0.0
            order = [k for k in order if x[k] > 0.0]
            Q, R = np.linalg.qr(A[:, order])
            z = np.linalg.solve(R, Q.T @ b)
        x[:] = 0.0
        x[order] = z
    return x


def _whiten(points, message, degree=2):
    """Whitening map for (m, n) points: scatter points^T points / m = L L^T.

    Raises DegenerateInputError(message) if the points do not span R^n,
    and DegenerateInputError if a nonzero form of degree d/2 vanishes at
    all of them (the span test at d = 2).  Returns (L, W = L^{-1}, the
    points in whitened coordinates W x).
    """
    m, n = points.shape
    scale = max(1.0, float(np.abs(points).max()))
    if np.linalg.matrix_rank(points, tol=1e-12 * scale) < n:
        raise DegenerateInputError(message)
    try:
        L = np.linalg.cholesky(points.T @ points / m)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("sample scatter is numerically singular")
    W = np.linalg.solve(L, np.eye(n))
    whitened = points @ W.T
    half = basis_for(n, degree // 2).monomials(whitened)
    if np.linalg.matrix_rank(half, 1e-12 * np.abs(half).max()) < len(half.T):
        raise DegenerateInputError(
            f"a nonzero form of degree {degree // 2} vanishes at every "
            "constraint point; no minimum-volume enclosure exists")
    return L, W, whitened


def solve_min_volume(cs, degree, tol=1e-8):
    """Minimum-volume enclosing sublevel set of even degree >= 2 for the
    points of the ConstraintSet cs; returns a SolveReport.

    tol is the polished KKT residual (relative to y0) at which the solve
    returns; the contacts of that fit are the points with slack <=
    ACTIVITY_TOL or, if that fit misses tol, <= tol (module docstring).
    Any tol in (0, 1) is accepted, but near 1e-15 the residual is rounding
    noise whose value depends on the path the solve took, so whether it
    returns or raises "stalled" does too: on one 25-point cloud at d = 2
    one path reached 9.1e-16 and another stalled at 1.8e-15.

    Raises DegenerateInputError if no enclosure has minimum volume: the
    points do not span R^n, or a nonzero form q of degree d/2 vanishes at
    all of them (g + c q^2 stays feasible as c grows, its volume tending
    to 0); ConvergenceError if tol is not reached within the budget.
    """
    return _solve_min_volume(cs, degree, tol)


class _Pruned(Exception):
    """A barred solve proved its optimum above its bar: bound is the
    weak-duality lower bound (user frame) and steps the derivative
    states it took."""

    def __init__(self, bound, steps):
        super().__init__(f"lower bound {bound:.6e} after {steps} steps")
        self.bound, self.steps = bound, steps


def _solve_min_volume(cs, degree, tol=1e-8, bar=np.inf):
    """solve_min_volume with a bar: at every Newton step the weak-duality
    bound of _duality_probe is taken, and once it exceeds bar by the
    probe's margin the solve stops with _Pruned.  An infinite bar never
    prunes; the bound only reads the step's moments, so a solve that is
    not pruned takes the unbarred path bit for bit."""
    _check_tolerance(tol)
    if degree < 2 or degree % 2:
        raise ValueError(f"degree must be even and >= 2, got {degree}")
    raw_points = cs.points
    n = raw_points.shape[1]
    rows, row_of = _distinct_rows(raw_points, mirror=True)

    L, W, points = _whiten(raw_points[rows], "constraint points lie in a "
                           "proper subspace; no finite-volume enclosure exists",
                           degree)
    V = basis_for(n, degree).monomials(points)

    def slacks(vec, jacobian=False):
        s = 1.0 - V @ vec
        return (s, V, None) if jacobian else s

    det_L = float(np.prod(np.diag(L)))
    probe = _duality_probe(V, n, degree, det_L, bar) if bar < np.inf else None
    path = _barrier_path(initial_guess(points, degree).coeff_vector, n, degree,
                         slacks, tol, probe=probe)
    return _certify(path, lambda x: (raw_points, rows, row_of),
                    L, W, n, degree, tol)[0]


def _certify(path, frame, L, W, n, degree, tol):
    """Polish the multipliers of each point the barrier path yields until
    one meets tol (two cuts, the stall rule: module docstring), map it to
    the user's frame x = L z and return (SolveReport, x, state) there.  V
    is the g columns of the path's slack Jacobian; frame(x) gives the
    user-frame points, the rows of V among them and each point's row.  A
    ConvergenceError of the path gets the last residual appended."""
    size = len(basis_for(n, degree))
    det_L = float(np.prod(np.diag(L)))
    cuts = (ACTIVITY_TOL,) if tol == ACTIVITY_TOL else (ACTIVITY_TOL, tol)
    res = np.inf
    while True:
        try:
            x, t, stages, total_newton, state = next(path)
        except ConvergenceError as exc:
            raise ConvergenceError(f"{exc} (last residual {res:.3e})") from None
        y0, slack, mv_full = state[0], state[4], state[-1]
        V, yd = state[5][:, :size], mv_full.slice_d
        fits = []
        for cut in cuts:        # the first fit that meets tol, else the best
            lam = _polish_multipliers(V, slack, yd, cut)
            fits.append((_residual_from_parts(V, lam, yd, slack, y0), cut, lam))
            if fits[-1][0] <= tol:
                break
        last, (res, cut, lam) = res, min(fits, key=lambda fit: fit[0])
        if res <= tol:
            break
        # gap bound met but the polished residual is not: push the path
        # on while each stage at least halves the residual
        if res > 0.5 * last:
            raise ConvergenceError(
                f"KKT residual stalled at {res:.3e} (tolerance "
                f"{tol:.1e}, t={t:.3e})")
    info = mv_full.quadrature_info
    if not info["converged"]:
        raise ConvergenceError(
            f"final quadrature did not converge at {info['points']} "
            f"points (ladder delta {info['last_delta']:.3e})")
    raw_points, rows, row_of = frame(x)
    g_out = compose_linear(HomogeneousPoly(n, degree, x[:size]), W)
    drift = float(np.max(np.abs(g_out(raw_points) - (1 - slack[row_of]))))
    if drift > cut:
        raise ConvergenceError(
            f"frame change: user-frame and whitened g* disagree by "
            f"{drift:.3e} at the points (activity_tol {cut:.1e})")
    objective = det_L * y0
    multipliers = np.zeros(len(raw_points))
    multipliers[rows] = det_L * lam         # a dropped twin's is 0
    yd_user = det_L * (power_matrix(L, degree) @ yd)
    return SolveReport(
        g_star=g_out, objective=objective,
        volume=objective / math.gamma(1.0 + n / degree),
        iterations=total_newton, stages=stages, t_final=t,
        kkt_residual=res, multipliers=multipliers,
        moment_data=MomentVector(n, degree, objective, yd_user,
                                 quadrature_info=info),
    ), x, state


def _duality_probe(V, n, degree, det_L, bar):
    """Probe for _barrier_path that raises _Pruned once the weak-duality
    bound at the current step proves the optimum above bar, None when the
    (m, size) constraint matrix V of the whitened points lacks full column
    rank (then V^T nu = I_d may have no solution; where V is nearly
    rank-deficient, P and with it err below are large, and nothing is
    pruned).

    For g in the positivity cone with moments y0 and I_d, and any nu with
    V^T nu = I_d, every feasible g' (also in the cone, so 0 <= g'(x_i) <=
    1) has, by convexity of f = Integral exp(-g) with gradient -I_d and
    Euler's identity g^T I_d = (n/d) y0 (Boyd & Vandenberghe, Convex
    Optimization, 5.2),

        f(g') >= y0 - I_d^T (g' - g) = (1 + n/d) y0 - sum_i nu_i g'(x_i)
              >= (1 + n/d) y0 - sum_i max(nu_i, 0),

    at any iterate, central or not; det L times it bounds the user-frame
    objective.  nu is mu = lambda - 1/t = (1 - s) / (t s), the barrier
    dual lambda = 1/(t s) less 1/t, plus the minimum-norm correction
    P (I_d - V^T mu), P = pinv(V^T) = V (V^T V)^-1, built once.  At a central point
    V^T lambda = I_d, and before taking positive parts lambda bounds by
    y0 - m/t, the barrier's gap, while nu bounds by y0 - |Pi 1|^2 / t, Pi
    the projection onto the range of V: no worse, and on the benchmark's
    centered fits it pruned after 71 derivative evaluations where lambda
    took 93.  The bound assumes exact moments and an exact nu.  The moments
    carry the ladder's error, taken to be at most its last delta relative
    to each slice's largest entry, and nu a residual r; moving nu by
    P (error of I_d + r) restores both, which changes the bound by at most
    err = (1 + n/d) delta y0 + sum|P| (delta |I_d|_inf + |r|_inf).  The
    probe prunes once bound - 2 err > (1 + PRUNE_MARGIN) bar: the optimum
    then exceeds bar by more than the bar's own quadrature error, so a
    full solve would have lost to it.  It counts its calls, one per state
    the path's derivatives return, as the steps.
    """
    try:
        C = np.linalg.cholesky(V.T @ V)
    except np.linalg.LinAlgError:
        return None
    P = np.linalg.solve(C.T, np.linalg.solve(C, V.T)).T     # V (V^T V)^-1
    spread = float(np.abs(P).sum())     # |P r|_1 <= spread |r|_inf
    euler = 1.0 + n / degree
    steps = 0

    def probe(t, y0, s, mv):
        nonlocal steps
        steps += 1
        yd, delta = mv.slice_d, mv.quadrature_info["last_delta"]
        bound, resid = _dual_bound(V, P, euler, t, y0, s, yd)
        err = euler * delta * y0 + spread * (delta * float(np.max(np.abs(yd)))
                                             + resid)
        if det_L * (bound - 2.0 * err) > (1.0 + PRUNE_MARGIN) * bar:
            raise _Pruned(det_L * bound, steps)

    return probe


def _dual_bound(V, P, euler, t, y0, s, yd):
    """The whitened-frame bound euler y0 - sum_i max(nu_i, 0) of
    _duality_probe, nu = mu + P (yd - V^T mu), mu = (1 - s) / (t s), and
    the residual |yd - V^T nu|_inf."""
    mu = (1.0 - s) / (t * s)
    nu = mu + P @ (yd - V.T @ mu)
    resid = float(np.max(np.abs(yd - V.T @ nu)))
    return euler * y0 - float(np.maximum(nu, 0.0).sum()), resid


def _barrier_path(x, n, degree, slacks, tol=1e-8, label="", probe=None):
    """Log-barrier path for Phi_t(x) = t * Integral exp(-g) - sum_i log s_i(x),
    g the degree-d form in n variables with coefficients x[:size]; any
    further entries of x are variables only the slacks depend on.

    slacks(x) returns s(x); slacks(x, True) returns (s, D, C): D = -ds/dx,
    and C = -sum_i (d2 s_i / dx2) / s_i, or None when x is g alone and
    the slacks are linear in it.  With C the Hessian may be indefinite:
    its negative eigenvalues are flipped, where the ridge of _newton_step
    would shrink the step in every direction and stall the stages far
    from the path.

    Runs a Newton stage at t = BARRIER_T0, t * BARRIER_MULTIPLIER, ...
    from the strictly feasible x (loose where C is None and the point goes
    unread, see the module docstring) and, after each stage that meets the
    bound m/t <= tol * y0, yields (x, t, stages, Newton steps so far,
    state), state being (y0, Phi_t, gradient, Hessian, s, D, moment
    vector) at x.  Each iterate is integrated once: a trial's moments
    decide its Armijo test and become the iterate's, and a stage starts
    from the moments and objective Hessian its predecessor ended on.
    Raises ConvergenceError, its message `label` + reason, when
    MAX_NEWTON_ITERS or MAX_STAGES runs out.  probe, if given, is called
    as probe(t, y0, s, moment vector) at every state returned and may end
    the path by raising (_duality_probe).  Every quadrature climbs from
    one ladder hint.
    """
    size = len(basis_for(n, degree))
    s0, _, curvature = slacks(x, True)

    def short_of_gap(t, y0):        # the gap bound m/t <= tol * y0 is unmet
        return len(s0) / t > tol * y0

    def unread(t, y0):              # neither this stage nor the next yields
        return short_of_gap(BARRIER_MULTIPLIER * t, y0)

    loose = unread if curvature is None else None
    hint = {}
    last = {}       # the last state returned: x, its moments and hess_f

    def derivatives(x, t, bound=np.inf):
        s = slacks(x)
        if np.any(s <= 0.0):
            return None
        kept = np.array_equal(last.get("x"), x)
        mv = last["mv"] if kept else moment_vector(
            HomogeneousPoly(n, degree, x[:size]), include_2d=True, hint=hint)
        phi = t * mv.y0 - float(np.sum(np.log(s)))
        if not phi <= bound:
            return None
        if not kept:
            # f = Integral exp(-g): grad_a = -I_a, hess_ab = I_{a+b}
            last.update(x=x, mv=mv, hess_f=mv.hessian_matrix())
        y0, grad_f, hess_f = mv.y0, -mv.slice_d, last["hess_f"]
        s, D, curvature = slacks(x, True)
        if curvature is None:       # one m x size temporary per step
            grad = t * grad_f + D.T @ (1.0 / s)
            hess = t * hess_f + (D / s[:, None] ** 2).T @ D
        else:
            scaled = D * (1.0 / s)[:, None]
            grad, hess = scaled.sum(axis=0), scaled.T @ scaled + curvature
            grad[:size] += t * grad_f
            hess[:size, :size] += t * hess_f
            lam, vec = np.linalg.eigh(hess)
            if lam[0] < 0.0:
                hess = (vec * np.abs(lam)) @ vec.T
        if probe is not None:
            probe(t, y0, s, mv)
        return y0, phi, grad, hess, s, D, mv

    total, t = 0, BARRIER_T0
    for stage in range(1, MAX_STAGES + 1):
        x, steps, state = _newton_stage(x, t, derivatives,
                                        MAX_NEWTON_ITERS - total, loose)
        total += steps
        if not short_of_gap(t, state[0]):
            yield x, t, stage, total, state
        if total >= MAX_NEWTON_ITERS:
            raise ConvergenceError(
                f"{label}newton budget {MAX_NEWTON_ITERS} exhausted "
                f"at barrier weight t={t:.3e}")
        t *= BARRIER_MULTIPLIER
    raise ConvergenceError(
        f"{label}barrier stage cap {MAX_STAGES} reached without meeting "
        "tolerance")


def _newton_stage(x, t, derivatives, budget, loose=None):
    """Damped Newton on one barrier function Phi_t, from x.

    derivatives(x, t, bound) returns the state (y0, Phi_t(x), gradient,
    Hessian, ...) at x, or None where x leaves the domain or Phi_t(x) is
    not <= bound (default +inf), and may raise NotInConeError.  A trial is
    one call, bounded by the Armijo test: a state it returns is the next
    iterate's, and a None or a NotInConeError rejects the trial, so the
    state in hand is always the current x's.  An indefinite Hessian is made
    positive definite by the escalating ridge of _newton_step, so every
    step is a descent direction.  Stops on the scale-aware decrement test,
    at decrement LOOSE_DECREMENT where loose(t, y0), given on convex paths,
    holds at the current x (module docstring), after six steps that fail to
    halve the decrement (a convex path's damped-phase steps excepted), when
    the line search finds no Armijo point above Phi_t's rounding (module
    docstring), or after `budget` steps: what is left (>= 1) of the barrier
    path's Newton budget.

    Returns (x, steps taken, derivatives(x, t) at the returned x).
    """
    state = derivatives(x, t)
    best_dec2, stall, steps = np.inf, 0, 0
    for _ in range(budget):
        y0, phi0, grad, hess = state[:4]
        step = _newton_step(hess, grad)
        dec2 = float(-grad @ step)
        if dec2 <= 0.0 or dec2 / 2.0 <= 1e-17 * t * max(y0, 1e-8):
            break
        if loose and dec2 <= LOOSE_DECREMENT and loose(t, y0):
            break
        if dec2 < 0.5 * best_dec2:
            best_dec2, stall = dec2, 0
        elif not (loose and dec2 > LOOSE_DECREMENT):
            stall += 1
            if stall >= 6:
                break

        armijo = ARMIJO_SLOPE * (grad @ step)
        floor = PHI_ROUNDING * abs(phi0)
        alpha, found = 1.0, None
        while found is None and alpha > 1e-14 and alpha * dec2 > floor:
            trial = x + alpha * step
            try:
                found = derivatives(trial, t, phi0 + alpha * armijo)
            except NotInConeError:
                pass
            alpha *= BACKTRACK_RATIO
        steps += 1
        if found is None:
            break
        x, state = trial, found
    return x, steps, state


def _residual_from_parts(V, lam, yd, slack, y0):
    stat = float(np.max(np.abs(V.T @ lam - yd)))
    comp = float(np.max(np.abs(lam * slack))) if lam.size else 0.0
    feas = float(np.max(np.clip(-slack, 0.0, None)))
    return max(stat, comp, feas) / y0


def _newton_step(hess, grad):
    """Solve H s = -grad by Cholesky with an escalating ridge, from 1e-12
    times trace / dim, or times the largest |diagonal| entry where the
    trace is not positive.  Falls back to least squares, or to -grad where
    that is no descent direction."""
    dim = hess.shape[0]
    trace = float(np.trace(hess))
    scale = trace / dim if trace > 0.0 else float(np.max(np.abs(np.diag(hess))))
    ridge = 1e-12 * scale
    for _ in range(12):
        try:
            c = np.linalg.cholesky(hess + ridge * np.eye(dim))
            return -np.linalg.solve(c.T, np.linalg.solve(c, grad))
        except np.linalg.LinAlgError:
            ridge = max(ridge * 100.0, 1e-300)
    # fall back to least squares on a hopeless factorization
    step, *_ = np.linalg.lstsq(hess, -grad, rcond=None)
    return step if grad @ step < 0.0 else -grad
