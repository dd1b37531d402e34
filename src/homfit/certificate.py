"""KKT certificates: contact points, weights, and verifiable identities.

At the optimum, the degree-d moments of exp(-g*) are reproduced by a
finite atomic measure sitting on the contact points {g* = 1}:

    I_a(g*) = sum_j lambda_j x_j^a   for all |a| = d,

with total mass sum_j lambda_j = (n/d) * I_0(g*) (take a = each basis
index, contract with g*'s coefficients, apply the Euler identity and
g*(x_j) = 1).  A certificate packages the atoms and the numeric residuals
of these identities so a third party can re-verify them with nothing but
polynomial evaluations and one quadrature.  The atoms carry the solver's
own multipliers, with no refit; the residuals are measured from them in
the user's frame.

Atom count can always be reduced to the dimension of the degree-d slice,
C(n+d-1, d): atoms are points in that slice's moment space, so any excess
atom set carries an affine dependency to pivot away (Caratheodory).  The
reduction pivots merged blocks of atoms rather than single atoms, so N
atoms take O(C(n+d-1, d) * log N) pivots instead of N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError, ReductionError
from .integrals import _hessian_alias, moment_vector
from .polynomials import HomogeneousPoly, basis_for
from .solver import solve_min_volume

__all__ = ["KktCertificate", "build_certificate", "caratheodory_reduce",
           "contact_moment_matrix", "gaussian_moment_matrix",
           "dball_contact_check", "DballReport"]

BALL_TOL = 1e-3     # dball_contact_check: largest coefficient gap from the d-ball


@dataclass
class KktCertificate:
    """Atomic representation of the optimal dual measure.

    moment_residual is the sup-norm gap between sum_j lambda_j x_j^a and
    the quadrature moments over the degree-d slice; level_residual is
    max_j |g*(x_j) - 1|; mass/mass_expected compare sum lambda_j with
    (n/d) * I_0.
    """

    n: int
    degree: int
    contact_points: np.ndarray
    weights: np.ndarray
    moment_residual: float
    level_residual: float
    mass: float
    mass_expected: float
    atom_bound: int
    reduced: bool = False
    meta: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "n": self.n,
            "degree": self.degree,
            "contact_points": self.contact_points.tolist(),
            "weights": self.weights.tolist(),
            "moment_residual": self.moment_residual,
            "level_residual": self.level_residual,
            "mass": self.mass,
            "mass_expected": self.mass_expected,
            "atom_bound": self.atom_bound,
            "reduced": self.reduced,
        }


def _atom_moment_residual(points, weights, target, n, degree):
    basis = basis_for(n, degree)
    A = basis.monomials(points).T          # (l, k)
    return float(np.max(np.abs(A @ weights - target)))


def build_certificate(report, cs, reduce_atoms=True):
    """Assemble a certificate from a solve report.

    The atoms are the points of cs with a positive entry in
    report.multipliers, weighted by it (no refit), against the degree-d
    slice of report.moment_data; the residuals are recomputed from the
    published atoms, as a third party would.  With reduce_atoms, the
    support is thinned to at most C(n+d-1, d) atoms while reproducing the
    same moments.
    """
    g = report.g_star
    n, d = g.n, g.degree
    idx = np.flatnonzero(report.multipliers)
    if not idx.size:
        raise CertificateError("solve report has no active constraints")
    points, weights = cs.points[idx], report.multipliers[idx]

    mv = report.moment_data
    target = mv.slice_d
    bound = len(basis_for(n, d))

    if reduce_atoms and len(weights) > bound:
        points, weights = caratheodory_reduce(points, weights, n, d, target)
        reduced = True
    else:
        reduced = False

    residual = _atom_moment_residual(points, weights, target, n, d)
    level = float(np.max(np.abs(g(points) - 1.0)))
    mass = float(np.sum(weights))
    expected = (n / d) * mv.y0
    return KktCertificate(
        n=n, degree=d, contact_points=np.array(points), weights=np.array(weights),
        moment_residual=residual, level_residual=level, mass=mass,
        mass_expected=expected, atom_bound=bound, reduced=reduced,
        meta={"y0": mv.y0, "kkt_residual": report.kkt_residual},
    )


def caratheodory_reduce(points, weights, n, degree, target=None):
    """Thin an atomic measure to at most C(n+d-1, d) atoms with the same
    degree-d moments.

    Block merging (Litterer & Lyons; the Fast-Caratheodory scheme of
    Maalouf, Jubran & Feldman): while more than 2*bound atoms are live,
    split them in input order into 2*bound contiguous blocks, give each
    block its mass and mass-weighted mean moment column, pivot the blocks
    down to at most bound, and rescale every atom by its block's
    new-to-old mass ratio.  Each round about halves the live atoms, so
    the pivots number at most bound * (ceil(log2(N / bound)) + 1) instead
    of N - bound.  The last <= 2*bound atoms are pivoted one by one.
    Every step shifts weights along a null vector of the moment columns,
    so the moments are kept and the output is a subset of the input atoms.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float).copy()
    if np.any(weights < 0):
        raise ValueError("atom weights must be nonnegative")
    basis = basis_for(n, degree)
    bound = len(basis)
    if points.shape[0] != weights.shape[0]:
        raise ValueError("points and weights disagree in length")

    columns = basis.monomials(points)             # row i: atom i's moment column
    if target is not None:
        target = np.asarray(target)
        before = float(np.max(np.abs(columns.T @ weights - target)))

    live = np.flatnonzero(weights > 0.0)
    blocks = 2 * bound
    while len(live) > blocks:
        starts = np.arange(blocks) * len(live) // blocks
        w = weights[live]
        mass = np.add.reduceat(w, starts)
        means = np.add.reduceat(w[:, None] * columns[live], starts) / mass[:, None]
        ratio = _pivot(means, mass, bound) / mass
        weights[live] = w * np.repeat(ratio, np.diff(np.append(starts, len(live))))
        live = live[weights[live] > 0.0]
    weights[live] = _pivot(columns[live], weights[live], bound)
    keep = live[weights[live] > 0.0]

    out_pts, out_w = points[keep], weights[keep]
    if target is not None:
        after = float(np.max(np.abs(columns[keep].T @ out_w - target)))
        floor = 1e-13 * float(np.max(np.abs(target)))
        if after > 10.0 * max(before, floor):
            raise ReductionError(
                f"reduction degraded the moment residual: {before:.3e} -> {after:.3e}"
            )
    return out_pts, out_w


def _pivot(columns, weights, bound):
    """Caratheodory pivoting of the atoms with moment columns `columns`
    (one row each) down to at most `bound` positive weights.

    Take the first bound+1 live atoms, find a null vector of their moment
    columns (last right singular vector of the wide matrix), shift the
    weights along it until the smallest ratio hits zero (deterministic
    pivot: smallest ratio, lowest index on ties), drop the zeroed atoms,
    refill, repeat.  Returns the new weights, zero for dropped atoms.
    """
    weights = weights.copy()
    live = [i for i in range(len(weights)) if weights[i] > 0.0]
    while len(live) > bound:
        work = live[:bound + 1]
        A = columns[work].T                       # (bound, bound+1): wide
        # the extra right singular vector spans the null space
        _, svals, vt = np.linalg.svd(A)
        z = vt[-1]
        norm_a = float(svals[0]) if svals.size else 0.0
        resid = float(np.linalg.norm(A @ z))
        if norm_a > 0 and resid > 1e-7 * norm_a:
            raise ReductionError(
                f"null direction residual {resid:.3e} too large relative to "
                f"column scale {norm_a:.3e}"
            )
        w = weights[np.array(work)]
        # move along +z or -z, whichever zeroes a weight sooner
        candidates = []
        for sign in (+1.0, -1.0):
            dz = sign * z
            pos = dz > 1e-14
            if np.any(pos):
                ratios = w[pos] / dz[pos]
                tstar = float(np.min(ratios))
                candidates.append((tstar, sign))
        if not candidates:
            raise ReductionError("null direction has no positive component")
        tstar, sign = min(candidates, key=lambda c: (c[0], -c[1]))
        dz = sign * z
        w_new = w - tstar * dz
        w_new[np.abs(w_new) <= 1e-15 * max(float(np.max(w)), 1.0)] = 0.0
        w_new = np.clip(w_new, 0.0, None)
        weights[work] = w_new
        survivors = [i for i in work if weights[i] > 0.0]   # only these changed
        if len(survivors) == len(work):
            raise ReductionError("pivot failed to remove an atom")
        live = survivors + live[bound + 1:]
    return weights


def contact_moment_matrix(points, weights, n, half_degree):
    """sum_j lambda_j v(x_j) v(x_j)^T over the degree-(d/2) monomial map."""
    basis = basis_for(n, half_degree)
    Vh = basis.monomials(points)               # (k, lh)
    return Vh.T @ (np.asarray(weights)[:, None] * Vh)


def gaussian_moment_matrix(g):
    """Integral v(x) v(x)^T exp(-g) dx over the degree-(d/2) monomial map.

    Entries are degree-d moments of exp(-g), read off by exponent
    addition; at the optimum this matrix equals contact_moment_matrix of
    the certificate atoms.
    """
    n, d = g.n, g.degree
    if d % 2:
        raise ValueError("degree must be even")
    return moment_vector(g).slice_d[_hessian_alias(n, d // 2)]


def axis_moment_1d(k, d):
    """Closed form Integral_R t^k exp(-t^d) dt: zero for odd k,
    2*Gamma((k+1)/d)/d for even k."""
    if k % 2:
        return 0.0
    return 2.0 * math.gamma((k + 1) / d) / d


@dataclass
class DballReport:
    """Certificate check for point sets whose optimal enclosure is the
    unit d-ball {sum x_i^d <= 1}.  residuals[k] belongs to the k-th
    member of basis_for(n, d)."""

    g_deviation: float
    even_residual: float
    odd_residual: float
    residuals: np.ndarray
    certificate: KktCertificate


def dball_contact_check(cs, degree):
    """Solve for the given points and verify the separable-moment identity.

    Requires the optimum to be the d-ball sum x_i^d, to BALL_TOL in every
    coefficient; then for every |a| = d the certificate atoms must satisfy

        sum_j lambda_j x_j^a = prod_i Integral_R t^{a_i} exp(-t^d) dt,

    which vanishes whenever any a_i is odd.  Returns the per-index
    residuals and their worst value over the even and the odd indices.
    """
    report = solve_min_volume(cs, degree)
    g = report.g_star
    n = g.n
    ball = HomogeneousPoly.sum_of_powers(n, degree)
    dev = float(np.max(np.abs(g.coeff_vector - ball.coeff_vector)))
    if dev > BALL_TOL:
        raise CertificateError(
            f"optimal polynomial deviates from the d-ball by {dev:.3e}; "
            f"the separable identity does not apply"
        )
    cert = build_certificate(report, cs, reduce_atoms=False)
    pts, w = cert.contact_points, cert.weights
    basis = basis_for(n, degree)
    axis = np.array([axis_moment_1d(k, degree) for k in range(degree + 1)])
    expected = np.prod(axis[basis.exponents], axis=1)
    residuals = np.abs(basis.monomials(pts).T @ w - expected)
    odd = np.any(basis.exponents % 2 == 1, axis=1)
    return DballReport(g_deviation=dev,
                       even_residual=float(residuals[~odd].max(initial=0.0)),
                       odd_residual=float(residuals[odd].max(initial=0.0)),
                       residuals=residuals, certificate=cert)
