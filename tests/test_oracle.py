"""Reference oracles: symmetric MVEE and Monte-Carlo volume (homfit.verify)."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

import homfit.oracle
from conftest import imported_names, philox, symmetric_cloud
from homfit import (ConstraintSet, ConvergenceError, DegenerateInputError,
                    HomogeneousPoly, NotInConeError, mvee_symmetric,
                    solve_min_volume)
from homfit.cli import _q_matrix_from_coeffs
from homfit.verify import mc_volume

VOL_QUARTIC = 3.708149354602744  # [DERIVED] 1-D quadrature, see test_integrals


def test_mvee_unit_circle_points():
    res = mvee_symmetric([[1, 0], [0, 1], [-1, 0], [0, -1]])
    assert np.allclose(res.Q, np.eye(2), atol=1e-7)
    assert res.volume == pytest.approx(math.pi, rel=1e-7)


def test_mvee_axis_aligned():
    res = mvee_symmetric([[2, 0], [-2, 0], [0, 1], [0, -1]])
    assert np.allclose(res.Q, np.diag([0.25, 1.0]), atol=1e-7)
    assert res.volume == pytest.approx(2.0 * math.pi, rel=1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_mvee_random_cloud_containment_and_john(seed):
    pts = symmetric_cloud(seed, n=2, m=15)
    res = mvee_symmetric(pts)
    norms = np.einsum("ij,jk,ik->i", pts, res.Q, pts)
    assert np.max(norms) <= 1.0 + 1e-7
    assert res.support_points.shape[0] >= 2
    # John condition: some lambda >= 0 with sum lambda_i u_i u_i' = Q^{-1}/n
    sup = res.support_points
    n = 2
    A = np.stack([np.outer(u, u).ravel() for u in sup], axis=1)
    target = (np.linalg.inv(res.Q) / n).ravel()
    lam, resid = nnls(A, target)
    assert resid <= 1e-5 * np.linalg.norm(target)


def test_mvee_rank_deficient():
    with pytest.raises(DegenerateInputError):
        mvee_symmetric([[1.0, 2.0], [2.0, 4.0], [-0.5, -1.0]])


def conditioned_cloud(seed, n, m, cond):
    """m Gaussian points mapped by a random M with singular values spread
    geometrically from 1 to cond."""
    rng = philox(seed)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    V, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = U @ np.diag(np.geomspace(1.0, cond, n)) @ V.T
    return rng.normal(size=(m, n)) @ M.T


FAMILY = [(n, m, cond) for n in (2, 3, 4)
          for m, cond in ((n + 1, 100.0), (40, 10.0), (2000, 100.0))]


@pytest.mark.parametrize("n,m,cond", FAMILY)
def test_mvee_matches_degree2_solver(n, m, cond):
    pts = conditioned_cloud(10 * n + m, n, m, cond)
    ell = mvee_symmetric(pts)
    assert 0.0 <= ell.gap <= 1e-9
    rep = solve_min_volume(ConstraintSet(pts), 2)
    assert abs(ell.volume - rep.volume) <= 1e-6 * ell.volume
    # the report's max_q_coeff_gap bound
    assert np.max(np.abs(ell.Q - _q_matrix_from_coeffs(rep.g_star))) <= 1e-5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_q_matrix_is_the_quadratic_form(n):
    rng = philox(40 + n)
    g = HomogeneousPoly(n, 2, rng.normal(size=n * (n + 1) // 2))
    Q = _q_matrix_from_coeffs(g)
    assert np.array_equal(Q, Q.T)
    x = rng.normal(size=(50, n))
    quad = np.einsum("ij,jk,ik->i", x, Q, x)
    assert np.max(np.abs(quad - g(x))) <= 1e-14 * np.max(np.abs(g(x)))


@pytest.mark.parametrize("n,seed", [(2, 0), (2, 1), (3, 2), (4, 3)])
def test_mvee_affine_equivariance(n, seed):
    # the ellipsoid of the points x -> Mx is {y : y'M^-T Q M^-1 y <= 1}
    pts = conditioned_cloud(seed, n, 30, 10.0)
    M = philox(seed + 50).normal(size=(n, n)) + 2.0 * np.eye(n)
    base = mvee_symmetric(pts)
    moved = mvee_symmetric(pts @ M.T)
    assert np.max(np.abs(M.T @ moved.Q @ M - base.Q)) <= 1e-7 * np.max(np.abs(base.Q))
    assert moved.volume == pytest.approx(abs(np.linalg.det(M)) * base.volume, rel=1e-8)


def test_mvee_step_budget_reports_gap():
    with pytest.raises(ConvergenceError, match=r"gap \d\.\d+e[+-]\d+ still above"):
        mvee_symmetric(symmetric_cloud(4, n=3, m=30), max_iters=3)


def test_oracle_imports_neither_solver_nor_quadrature():
    imported = imported_names(Path(homfit.oracle.__file__))
    assert not imported & {"solver", "integrals", "spheres"}


def test_mc_volume_disk():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    est = mc_volume(g, budget=1_000_000, seed=7)
    assert abs(est.estimate - math.pi) <= 3.0 * est.std_error
    assert est.std_error < 0.01


def test_mc_volume_quartic():
    g = HomogeneousPoly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})
    est = mc_volume(g, budget=1_000_000, seed=8)
    assert abs(est.estimate - VOL_QUARTIC) <= 3.0 * est.std_error


def test_mc_volume_zero_level():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    est = mc_volume(g, y=0.0, budget=1000, seed=0)
    assert est.estimate == 0.0
    with pytest.raises(ValueError):
        mc_volume(g, y=-1.0)


@pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -5},
                                    {"budget": 2.5}, {"y": math.nan}])
def test_mc_volume_rejects_bad_budgets_and_levels(kwargs):
    # these once raised ZeroDivisionError, returned a volume of -0.0,
    # sampled 2 points but divided by 2.5, and returned nan
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    with pytest.raises(ValueError):
        mc_volume(g, **kwargs)


def test_mc_volume_scaling_law():
    # vol{g <= y} = y^{n/d} vol{g <= 1}
    g = HomogeneousPoly(2, 4, {(4, 0): 1.0, (2, 2): 1.0, (0, 4): 1.0})
    base = mc_volume(g, y=1.0, budget=400_000, seed=3)
    lifted = mc_volume(g, y=2.0, budget=400_000, seed=4)
    ratio = lifted.estimate / base.estimate
    expected = 2.0 ** (2.0 / 4.0)
    sigma = ratio * math.sqrt((lifted.std_error / lifted.estimate) ** 2
                              + (base.std_error / base.estimate) ** 2)
    assert abs(ratio - expected) <= 3.0 * sigma


def test_mc_volume_not_in_cone():
    bad = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): -1.0})
    with pytest.raises(NotInConeError):
        mc_volume(bad, budget=1000)


def test_mc_volume_reproducible():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (1, 1): 0.5, (0, 2): 2.0})
    a = mc_volume(g, budget=100_000, seed=42)
    b = mc_volume(g, budget=100_000, seed=42)
    assert a == b
