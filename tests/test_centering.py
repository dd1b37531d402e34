"""Joint fit of polynomial and center for the translated enclosure problem."""

import math

import numpy as np
import pytest

from conftest import philox, symmetric_cloud
from homfit import (ConstraintSet, ConvergenceError, DegenerateInputError,
                    KDescription, SolverConfig, centering, rho_of_center,
                    solve_min_volume, solve_min_volume_centered, to_constraints)

PI = math.pi

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])

# 1 + x - x^2 - 4y^2 >= 0: the ellipse (x - 1/2)^2 + 4y^2 <= 5/4
OFFSET_ELLIPSE = KDescription.semialgebraic(
    [{"0,0": 1.0, "1,0": 1.0, "2,0": -1.0, "0,2": -4.0}],
    [[-1.0, 2.0], [-1.0, 1.0]])


def assert_best_center(rep, cs, degree):
    """The fit beats the centroid and the origin, and no axis move of
    1e-3 * spread from its center lowers rho."""
    pts = cs.points
    centroid = pts.mean(axis=0)
    bound = rep.inner.objective * (1.0 - 1e-9)
    for a in (centroid, np.zeros(cs.n)):
        assert rho_of_center(a, cs, degree) >= bound
    rho_star = rho_of_center(rep.center, cs, degree)
    assert rho_star == pytest.approx(rep.inner.objective, rel=1e-12)
    h = 1e-3 * float(np.max(np.linalg.norm(pts - centroid, axis=1)))
    for step in np.vstack([np.eye(cs.n), -np.eye(cs.n)]):
        assert rho_of_center(rep.center + h * step, cs, degree) >= rho_star * (1.0 - 1e-9)


def test_shifted_square_recovers_center():
    cs = ConstraintSet(SQUARE)
    rep = solve_min_volume_centered(cs, 2)
    assert np.allclose(rep.center, [1.0, 1.0], atol=1e-3)
    assert rep.volume == pytest.approx(2.0 * PI, rel=1e-5)
    # corners sit at distance sqrt(2): optimal g is (x^2 + y^2)/2
    assert rep.g_star.coeff((2, 0)) == pytest.approx(0.5, abs=1e-3)
    assert rep.g_star.coeff((0, 2)) == pytest.approx(0.5, abs=1e-3)
    assert rep.g_star.coeff((1, 1)) == pytest.approx(0.0, abs=1e-3)
    assert rep.evaluations > 0 and rep.outer_iterations > 0


def test_symmetric_cloud_keeps_origin():
    pts = symmetric_cloud(2, n=2, m=10)
    cs = ConstraintSet(pts)
    rep = solve_min_volume_centered(cs, 2)
    spread = float(np.max(np.linalg.norm(pts, axis=1)))
    assert np.linalg.norm(rep.center) <= 1e-3 * spread
    base = solve_min_volume(cs, 2)
    assert rep.volume <= base.volume * (1.0 + 1e-9)


def test_rho_matches_inner_objective():
    pts = symmetric_cloud(4, n=2, m=8)
    cs = ConstraintSet(pts)
    base = solve_min_volume(cs, 2)
    assert rho_of_center(np.zeros(2), cs, 2) == pytest.approx(base.objective, rel=1e-9)

    cs_sq = ConstraintSet(SQUARE)
    best = solve_min_volume_centered(cs_sq, 2)
    at_center = rho_of_center(np.array([1.0, 1.0]), cs_sq, 2)
    assert at_center <= best.inner.objective * (1.0 + 1e-7)


def test_rho_is_continuous_near_center():
    cs = ConstraintSet(SQUARE)
    base = rho_of_center(np.array([1.0, 1.0]), cs, 2)
    for delta in ([1e-4, 0.0], [0.0, -1e-4]):
        near = rho_of_center(np.array([1.0, 1.0]) + delta, cs, 2)
        assert abs(near - base) <= 1e-4 * base


def test_translation_covariance():
    pts = symmetric_cloud(6, n=2, m=9)
    shift = np.array([3.0, -2.0])
    rep0 = solve_min_volume_centered(ConstraintSet(pts), 2)
    rep1 = solve_min_volume_centered(ConstraintSet(pts + shift), 2)
    spread = float(np.max(np.linalg.norm(pts, axis=1)))
    assert np.linalg.norm(rep1.center - (rep0.center + shift)) <= 1e-4 * spread
    assert rep1.volume == pytest.approx(rep0.volume, rel=1e-6)


def test_center_never_hurts():
    rng = philox(8)
    pts = rng.normal(size=(12, 2)) + np.array([1.5, -0.5])
    cs = ConstraintSet(pts)
    centered = solve_min_volume_centered(cs, 2)
    fixed = solve_min_volume(cs, 2)
    assert centered.volume <= fixed.volume * (1.0 + 1e-9)


def test_degenerate_cloud_propagates():
    # a single point minus its centroid is zero: no center admits a
    # bounded enclosure
    cs = ConstraintSet([[1.0, 2.0]])
    with pytest.raises(DegenerateInputError):
        solve_min_volume_centered(cs, 2)


def test_solver_failure_is_not_reported_as_degenerate():
    pts = philox(21).normal(size=(10, 2)) + np.array([0.7, -0.3])
    with pytest.raises(ConvergenceError):
        solve_min_volume_centered(ConstraintSet(pts), 2,
                                  SolverConfig(max_newton_iters=3))


def test_two_points_have_no_centered_fit():
    # they span R^2 from the origin, but centered on their midpoint the
    # enclosure can be squeezed to zero volume
    cs = ConstraintSet([[1.0, 0.0], [0.0, 1.0]])
    assert np.isfinite(solve_min_volume(cs, 2).volume)
    with pytest.raises(DegenerateInputError):
        solve_min_volume_centered(cs, 2)


@pytest.mark.parametrize("degree", [2, 4])
@pytest.mark.parametrize("seed", [31, 32, 33])
def test_seeded_family_is_locally_optimal(seed, degree):
    rng = philox(seed)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    pts = rng.normal(size=(12, 2)) @ A + 2.0 * rng.normal(size=2)
    cs = ConstraintSet(pts)
    rep = solve_min_volume_centered(cs, degree)
    assert rep.meta["fallback"] is None
    assert rep.meta["center_stationarity"] <= 1e-5
    assert_best_center(rep, cs, degree)


def test_sampled_ellipse_with_kinked_rho():
    # rho has a kink at the optimum of this sample: its one-sided slopes
    # differ in sign along both axes, which stalls a gradient method on rho
    cs = to_constraints(OFFSET_ELLIPSE, budget=300, seed=0)
    rep = solve_min_volume_centered(cs, 2)
    assert rep.meta["chosen"] == "joint"
    assert np.allclose(rep.center, [0.5, 0.0], atol=1e-2)
    # the samples lie inside the ellipse, of area pi * 5/8
    assert rep.volume <= 0.625 * PI * (1.0 + 1e-9)
    assert_best_center(rep, cs, 2)


def test_joint_failure_falls_back(monkeypatch):
    def fail(*args):
        raise ConvergenceError("joint path: stage cap reached")

    monkeypatch.setattr(centering, "_joint_path", fail)
    pts = philox(8).normal(size=(12, 2)) + np.array([1.5, -0.5])
    cs = ConstraintSet(pts)
    rep = solve_min_volume_centered(cs, 2)
    assert rep.meta["fallback"] == "joint path: stage cap reached"
    assert rep.evaluations == 2 and rep.outer_iterations == 0
    best = min(rho_of_center(pts.mean(axis=0), cs, 2), rho_of_center(np.zeros(2), cs, 2))
    assert rep.inner.objective == best
