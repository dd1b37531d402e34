"""Joint fit of polynomial and center for the translated enclosure problem."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import imported_names, philox, symmetric_cloud
from homfit import (ConstraintSet, ConvergenceError, DegenerateInputError,
                    KDescription, centering, solve_min_volume,
                    solve_min_volume_centered, solver, to_constraints)
from homfit.solver import _whiten

PI = math.pi

SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])

# 1 + x - x^2 - 4y^2 >= 0: the ellipse (x - 1/2)^2 + 4y^2 <= 5/4
OFFSET_ELLIPSE = KDescription(
    [{"0,0": 1.0, "1,0": 1.0, "2,0": -1.0, "0,2": -4.0}],
    [[-1.0, 2.0], [-1.0, 1.0]])


def rho(a, cs, degree):
    """Optimal objective for the points shifted by -a; +inf when that
    solve fails."""
    return centering._solve_at(cs, np.asarray(a, dtype=float), degree, 1e-8)[0]


def assert_best_center(rep, cs, degree):
    """The fit beats the centroid and the origin, agrees with a cold solve
    at its center within tol = 1e-8 (both meet the gap bound m/t <= tol
    y0, at different t), and no axis move of 1e-3 * spread from its center
    lowers rho."""
    pts = cs.points
    centroid = pts.mean(axis=0)
    bound = rep.inner.objective * (1.0 - 1e-9)
    for a in (centroid, np.zeros(cs.n)):
        assert rho(a, cs, degree) >= bound
    assert rep.inner.kkt_residual <= 1e-8
    rho_star = rho(rep.center, cs, degree)
    assert rho_star == pytest.approx(rep.inner.objective, rel=1e-8)
    h = 1e-3 * float(np.max(np.linalg.norm(pts - centroid, axis=1)))
    for step in np.vstack([np.eye(cs.n), -np.eye(cs.n)]):
        assert rho(rep.center + h * step, cs, degree) >= rho_star * (1.0 - 1e-9)


def seeded_cloud(seed):
    rng = philox(seed)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    return rng.normal(size=(12, 2)) @ A + 2.0 * rng.normal(size=2)


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
    # the cloud moved by a, shifted back by a, solves as the cloud itself
    pts = symmetric_cloud(4, n=2, m=8)
    a = np.array([0.7, -0.3])
    base = solve_min_volume(ConstraintSet(pts), 2)
    assert solve_min_volume(ConstraintSet(pts + a).shifted(a), 2).objective == \
        pytest.approx(base.objective, rel=1e-9)

    cs_sq = ConstraintSet(SQUARE)
    best = solve_min_volume_centered(cs_sq, 2)
    at_center = solve_min_volume(cs_sq.shifted([1.0, 1.0]), 2).objective
    assert at_center <= best.inner.objective * (1.0 + 1e-7)


def test_rho_is_continuous_near_center():
    cs = ConstraintSet(SQUARE)
    base = solve_min_volume(cs.shifted(np.array([1.0, 1.0])), 2).objective
    for delta in ([1e-4, 0.0], [0.0, -1e-4]):
        near = solve_min_volume(cs.shifted(np.array([1.0, 1.0]) + delta), 2).objective
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


def test_solver_failure_is_not_reported_as_degenerate(monkeypatch):
    pts = philox(21).normal(size=(10, 2)) + np.array([0.7, -0.3])
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(ConvergenceError):
        solve_min_volume_centered(ConstraintSet(pts), 2)


def test_joint_budget_message_keeps_prefix(monkeypatch):
    pts = philox(21).normal(size=(10, 2)) + np.array([0.7, -0.3])
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(ConvergenceError, match=r"^joint path: newton budget 3"):
        centering._joint_path(pts, 2)


def test_one_barrier_path():
    # the centered fit runs on the solver's barrier path, not a copy of it
    imported = imported_names(Path(centering.__file__))
    assert not imported & {"_newton_stage", "integral_exp", "moment_vector"}
    # and the solver's line search integrates through derivatives alone
    assert "integral_exp" not in imported_names(Path(solver.__file__))
    calls = {}
    for path in Path(centering.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls[name] = calls.get(name, 0) + 1
    # one Newton stage, and one multiplier polish: the certify step both
    # the fixed-center solve and the joint path end in
    assert calls.get("_newton_stage") == 1
    assert calls.get("_polish_multipliers") == 1
    assert not [node.name for node in ast.walk(ast.parse(
                Path(centering.__file__).read_text()))
                if isinstance(node, ast.FunctionDef) and "resume" in node.name]


def test_two_points_have_no_centered_fit():
    # they span R^2 from the origin, but centered on their midpoint the
    # enclosure can be squeezed to zero volume
    cs = ConstraintSet([[1.0, 0.0], [0.0, 1.0]])
    assert np.isfinite(solve_min_volume(cs, 2).volume)
    with pytest.raises(DegenerateInputError):
        solve_min_volume_centered(cs, 2)


def spatial_cloud(seed):
    """Twelve points in R^3 around (2, 2, 2), sheared."""
    shear = np.eye(3) + 0.3 * philox(seed + 300).normal(size=(3, 3))
    return philox(seed + 200).normal(size=(12, 3)) @ shear + 2.0


# the seeded family at d = 2 and 4, two n = 3 clouds and a wider d = 4
# cloud: a joint path that drops its curvature term C leaves some of
# these centers off the optimum
LOCAL_CASES = {
    **{f"{seed}-{degree}": (lambda seed=seed: seeded_cloud(seed), degree)
       for degree in (2, 4) for seed in (31, 32, 33)},
    **{f"n3_{seed}-2": (lambda seed=seed: spatial_cloud(seed), 2)
       for seed in (41, 42)},
    "141-4": (lambda: philox(141).normal(size=(14, 2)) + 1.0, 4),
}


@pytest.mark.parametrize("case", list(LOCAL_CASES))
def test_seeded_family_is_locally_optimal(case):
    cloud, degree = LOCAL_CASES[case]
    cs = ConstraintSet(cloud())
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
    best = min(solve_min_volume(cs.shifted(a), 2).objective
               for a in (pts.mean(axis=0), np.zeros(2)))
    assert rep.inner.objective == best


@pytest.mark.parametrize("seed,volume", [(82, 0.186193), (93, 0.268672)])
def test_anisotropic_quartic_keeps_joint_center(seed, volume):
    # the certifying solves at the joint center and the centroid used to
    # raise NotInConeError in the user-frame moment recompute, and the
    # fit fell back to the origin at volumes 41.4 and 30.8
    rng = philox(seed)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    m = rng.integers(6, 16)
    pts = rng.normal(size=(m, 2)) @ A + 2.0 * rng.normal(size=2)
    rep = solve_min_volume_centered(ConstraintSet(pts), 4)
    assert rep.meta["chosen"] == "joint"
    assert rep.volume < 0.3
    assert rep.volume == pytest.approx(volume, rel=1e-5)


# the seeded family and the three centered instances of the benchmark
CENTERED_CASES = {
    **{f"seeded{seed}_d{degree}": (lambda seed=seed: seeded_cloud(seed), degree)
       for seed in (31, 32, 33) for degree in (2, 4)},
    "crit8_d2": (lambda: philox(21).normal(size=(10, 2)) + np.array([0.7, -0.3]), 2),
    "offset12_d4": (lambda: philox(40).normal(size=(12, 2)) + np.array([1.0, 0.5]), 4),
    "ellipse_d2": (lambda: to_constraints(OFFSET_ELLIPSE, budget=300, seed=0).points, 2),
}


@pytest.mark.parametrize("case", list(CENTERED_CASES))
def test_joint_candidate_runs_no_fixed_solve(case, monkeypatch):
    # the joint path certifies its own answer: the only fixed-center solves
    # are the centroid's and the origin's
    make, degree = CENTERED_CASES[case]
    solves = []

    def counted(*args):
        solves.append(args)
        return solver._solve_min_volume(*args)

    monkeypatch.setattr(centering, "_solve_min_volume", counted)
    rep = solve_min_volume_centered(ConstraintSet(make()), degree)
    assert rep.evaluations == 3 and len(solves) == 2
    if rep.meta["chosen"] == "joint":
        assert rep.inner.iterations == rep.outer_iterations
        assert rep.inner.stages == rep.meta["joint_stages"]
        assert rep.inner.kkt_residual <= 1e-8


def test_solver_picks_contacts_near_the_optimal_center():
    # criterion 8's Philox(46) cloud: at its centered optimum, points just
    # inside the boundary stall the fit on the ACTIVITY_TOL cut; the solver
    # refits on the tol cut instead of running another solve
    cloud = philox(46).normal(size=(9, 2)) + np.array([1.0, 0.5])
    rep = solve_min_volume_centered(ConstraintSet(cloud), 2)
    assert rep.evaluations == 3
    assert rep.inner.iterations == rep.outer_iterations
    fixed = solve_min_volume(ConstraintSet(cloud - rep.center), 2)
    for report in (rep.inner, fixed):
        assert report.kkt_residual <= 1e-8
        assert np.count_nonzero(report.multipliers) <= 3
    assert fixed.volume == pytest.approx(rep.volume, rel=1e-8)


@pytest.mark.parametrize("degree", [2, 4])
def test_duality_bound_stays_below_the_optimum(degree, monkeypatch):
    # every bound the probe takes along a solve, at any iterate, is at
    # most that solve's optimum; a bar the bound never reaches leaves the
    # solve on the unbarred path, bit for bit
    bounds = []
    dual_bound = solver._dual_bound

    def recorded(*args):
        bounds.append(dual_bound(*args)[0])
        return dual_bound(*args)

    monkeypatch.setattr(solver, "_dual_bound", recorded)
    rng = philox(60 + degree)
    for seed in range(6):
        cloud = seeded_cloud(70 + seed)
        for a in (cloud.mean(axis=0), np.zeros(2), 3.0 * rng.normal(size=2)):
            shifted = ConstraintSet(cloud).shifted(a)
            bounds.clear()
            barred = solver._solve_min_volume(shifted, degree, bar=1e300)
            assert len(bounds) > barred.iterations
            det_L = float(np.prod(np.diag(_whiten(shifted.points, "")[0])))
            assert max(bounds) * det_L <= barred.objective * (1.0 + 1e-9)
            assert barred.objective == solve_min_volume(shifted, degree).objective


def test_pruning_never_drops_the_winner(monkeypatch):
    # a joint center two scatter radii off the centroid loses to it: the
    # centroid, solved with that bar, is never pruned, and wins with the
    # plain solve's objective; the origin, far off, is pruned
    def far_off(points, degree, tol=1e-8):
        centroid = points.mean(axis=0)
        L = _whiten(points - centroid, "")[0]
        center = centroid + L @ np.full(points.shape[1], 2.0)
        report = solve_min_volume(ConstraintSet(points).shifted(center), degree)
        return center, report, 0.0

    monkeypatch.setattr(centering, "_joint_path", far_off)
    pts = philox(8).normal(size=(12, 2)) + np.array([4.0, -3.0])
    cs = ConstraintSet(pts)
    rep = solve_min_volume_centered(cs, 2)
    assert rep.meta["chosen"] == "centroid" and rep.evaluations == 3
    assert rep.inner.objective == \
        solve_min_volume(cs.shifted(pts.mean(axis=0)), 2).objective
    assert list(rep.meta["pruned"]) == ["origin"]
    assert rep.meta["pruned"]["origin"]["bound"] > rep.inner.objective


@pytest.mark.parametrize("case", list(CENTERED_CASES))
def test_pruned_candidates_lose(case):
    # a pruned candidate's bound is above the winner's objective and below
    # its own optimum, so its full solve would have lost
    make, degree = CENTERED_CASES[case]
    cs = ConstraintSet(make())
    rep = solve_min_volume_centered(cs, degree)
    assert rep.evaluations == 3 and rep.meta["pruned"]
    centers = {"centroid": cs.points.mean(axis=0), "origin": np.zeros(2)}
    for name, cut in rep.meta["pruned"].items():
        assert cut["bound"] > rep.inner.objective * (1.0 + 1e-9)
        assert 0 < cut["steps"]
        full = solve_min_volume(cs.shifted(centers[name]), degree)
        assert full.objective >= cut["bound"] * (1.0 - 1e-9)
        assert cut["steps"] < full.iterations
