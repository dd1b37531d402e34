"""Shared point sets and helpers for the test suite.

Canonical instances reused across files:
  disk8   eight points on the unit circle (optimal enclosure x^2 + y^2)
  dball8  eight points on the quartic curve x^4 + y^4 = 1 (optimal
          enclosure is the 4-ball itself)
  quartic_star  2000 points on the nonconvex curve
          x^2 y^2 + 0.1 (x^4 + y^4) = 1 (acceptance criterion 7)
dball_contact_check tests one identity of a solve whose optimum is the
d-ball (acceptance criterion 9).
Random clouds are always drawn from a seeded counter-based generator so
every run sees identical data.
"""

import ast
import math
from dataclasses import dataclass

import numpy as np
import pytest

import homfit as hf

SQ2 = 1.0 / np.sqrt(2.0)
BALL_TOL = 1e-3     # dball_contact_check: largest coefficient gap from the d-ball


def philox(seed):
    return np.random.Generator(np.random.Philox(seed))


def random_cloud(seed, n=2, m=25, spread=1.5):
    """Anisotropic full-rank cloud with O(1) scale."""
    rng = philox(seed)
    A = rng.normal(size=(n, n)) + spread * np.eye(n)
    return rng.normal(size=(m, n)) @ A


def symmetric_cloud(seed, n=2, m=12, spread=1.5):
    """Cloud closed under x -> -x, as the origin-centered problem expects."""
    half = random_cloud(seed, n=n, m=m, spread=spread)
    return np.concatenate([half, -half])


def imported_names(path):
    """Modules and names a source file imports, last dotted part only."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    return imported


def quartic_star(m=2000):
    """The star polynomial g0 and m points on {g0 = 1} at uniform angles;
    g0 is its own minimum-volume quartic enclosure."""
    g0 = hf.HomogeneousPoly(2, 4, {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1})
    theta = 2.0 * np.pi * np.arange(m) / m
    units = np.column_stack([np.cos(theta), np.sin(theta)])
    return g0, units * (g0(units) ** -0.25)[:, None]


@pytest.fixture
def disk8():
    pts = np.array([[1, 0], [0, 1], [-1, 0], [0, -1],
                    [SQ2, SQ2], [-SQ2, SQ2], [SQ2, -SQ2], [-SQ2, -SQ2]])
    return hf.ConstraintSet(pts)


@pytest.fixture
def dball8():
    c = 2.0 ** (-0.25)       # x^4 + y^4 = 1 on the diagonal
    pts = np.array([[1, 0], [-1, 0], [0, 1], [0, -1],
                    [c, c], [c, -c], [-c, c], [-c, -c]])
    return hf.ConstraintSet(pts)


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
    certificate: hf.KktCertificate


def dball_contact_check(cs, degree):
    """Solve for the given points and verify the separable-moment identity.

    Requires the optimum to be the d-ball sum x_i^d, to BALL_TOL in every
    coefficient; then for every |a| = d the certificate atoms must satisfy

        sum_j lambda_j x_j^a = prod_i Integral_R t^{a_i} exp(-t^d) dt,

    which vanishes whenever any a_i is odd.  Returns the per-index
    residuals and their worst value over the even and the odd indices.
    """
    report = hf.solve_min_volume(cs, degree)
    g = report.g_star
    n = g.n
    ball = hf.HomogeneousPoly.sum_of_powers(n, degree)
    dev = float(np.max(np.abs(g.coeff_vector - ball.coeff_vector)))
    if dev > BALL_TOL:
        raise hf.CertificateError(
            f"optimal polynomial deviates from the d-ball by {dev:.3e}; "
            f"the separable identity does not apply"
        )
    cert = hf.build_certificate(report, cs, reduce_atoms=False)
    pts, w = cert.contact_points, cert.weights
    basis = hf.basis_for(n, degree)
    axis = np.array([axis_moment_1d(k, degree) for k in range(degree + 1)])
    expected = np.prod(axis[basis.exponents], axis=1)
    residuals = np.abs(basis.monomials(pts).T @ w - expected)
    odd = np.any(basis.exponents % 2 == 1, axis=1)
    return DballReport(g_deviation=dev,
                       even_residual=float(residuals[~odd].max(initial=0.0)),
                       odd_residual=float(residuals[odd].max(initial=0.0)),
                       residuals=residuals, certificate=cert)
