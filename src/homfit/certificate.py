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
the user's frame.  Checks that need no solver, such as the moment-matrix
form of this identity, live in homfit.verify.

The solver fits its multipliers by nonnegative least squares, which ends
at a basic solution: the atoms' moment columns are independent, so there
are at most C(n+d-1, d) of them, the dimension of the degree-d slice and
the paper's contact bound (Caratheodory), with no second pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CertificateError
from .polynomials import basis_for

__all__ = ["KktCertificate", "build_certificate"]


@dataclass
class KktCertificate:
    """Atomic representation of the optimal dual measure.

    moment_residual is the sup-norm gap between sum_j lambda_j x_j^a and
    the quadrature moments over the degree-d slice; level_residual is
    max_j |g*(x_j) - 1|; mass/mass_expected compare sum lambda_j with
    (n/d) * I_0.  atom_bound is C(n+d-1, d), the paper's bound on the
    atom count, which the solver's multipliers meet.
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
        }


def _atom_moment_residual(points, weights, target, n, degree):
    basis = basis_for(n, degree)
    A = basis.monomials(points).T          # (l, k)
    return float(np.max(np.abs(A @ weights - target)))


def build_certificate(report, cs):
    """Assemble a certificate from a solve report.

    The atoms are the points of cs with a positive entry in
    report.multipliers, weighted by it (no refit), against the degree-d
    slice of report.moment_data; the residuals are recomputed from the
    published atoms, as a third party would.
    """
    g = report.g_star
    n, d = g.n, g.degree
    idx = np.flatnonzero(report.multipliers)
    if not idx.size:
        raise CertificateError("solve report has no active constraints")
    points, weights = cs.points[idx], report.multipliers[idx]

    mv = report.moment_data
    residual = _atom_moment_residual(points, weights, mv.slice_d, n, d)
    level = float(np.max(np.abs(g(points) - 1.0)))
    mass = float(np.sum(weights))
    expected = (n / d) * mv.y0
    return KktCertificate(
        n=n, degree=d, contact_points=np.array(points), weights=np.array(weights),
        moment_residual=residual, level_residual=level, mass=mass,
        mass_expected=expected, atom_bound=len(basis_for(n, d)),
        meta={"y0": mv.y0, "kkt_residual": report.kkt_residual},
    )
