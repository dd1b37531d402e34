"""Shared point sets and helpers for the test suite.

Canonical instances reused across files:
  disk8   eight points on the unit circle (optimal enclosure x^2 + y^2)
  dball8  eight points on the quartic curve x^4 + y^4 = 1 (optimal
          enclosure is the 4-ball itself)
  quartic_star  2000 points on the nonconvex curve
          x^2 y^2 + 0.1 (x^4 + y^4) = 1 (acceptance criterion 7)
Random clouds are always drawn from a seeded counter-based generator so
every run sees identical data.
"""

import numpy as np
import pytest

import homfit as hf

SQ2 = 1.0 / np.sqrt(2.0)


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
