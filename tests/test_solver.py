"""Interior-point solver for the discretized minimum-volume program."""

import math

import numpy as np
import pytest

from conftest import philox, quartic_star, random_cloud, symmetric_cloud
from homfit import (ConstraintSet, ConvergenceError, DegenerateInputError,
                    HomogeneousPoly, SolverConfig, build_certificate,
                    initial_guess, integral_exp, kkt_residual, moment_vector,
                    objective_grad_hess, solve_min_volume, solver)

PI = math.pi


@pytest.fixture
def disk4():
    return ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1]])


def test_disk_four_points(disk4):
    rep = solve_min_volume(disk4, 2)
    assert rep.g_star.coeff((2, 0)) == pytest.approx(1.0, abs=1e-7)
    assert rep.g_star.coeff((0, 2)) == pytest.approx(1.0, abs=1e-7)
    assert rep.g_star.coeff((1, 1)) == pytest.approx(0.0, abs=1e-7)
    assert rep.objective == pytest.approx(PI, rel=1e-7)
    assert rep.volume == pytest.approx(PI, rel=1e-7)
    # all four contacts active with equal weight pi/4
    assert rep.multipliers.shape == (4,)
    assert np.flatnonzero(rep.multipliers).tolist() == [0, 1, 2, 3]
    for w in rep.multipliers:
        assert w == pytest.approx(PI / 4.0, rel=1e-6)
    assert rep.kkt_residual <= 1e-8


def test_axis_ellipse():
    cs = ConstraintSet([[2, 0], [0, 1], [-2, 0], [0, -1]])
    rep = solve_min_volume(cs, 2)
    assert rep.g_star.coeff((2, 0)) == pytest.approx(0.25, abs=1e-6)
    assert rep.g_star.coeff((0, 2)) == pytest.approx(1.0, abs=1e-6)
    assert rep.volume == pytest.approx(2.0 * PI, rel=1e-6)


def test_dual_mass_identity(disk4):
    # sum of multipliers = (n/d) * objective at the optimum
    rep = solve_min_volume(disk4, 2)
    mass = float(rep.multipliers.sum())
    assert mass == pytest.approx((2.0 / 2.0) * rep.objective, rel=1e-7)
    assert rep.multipliers.shape == (4,)
    assert np.all(rep.multipliers >= 0.0)


def test_initial_guess_examples(disk4):
    g = initial_guess(disk4, 2)
    assert g.coeff((2, 0)) == pytest.approx(1.0 / 1.01)
    assert g.coeff((0, 2)) == pytest.approx(1.0 / 1.01)
    vals = g(disk4.points)
    assert np.max(vals) < 1.0

    single = ConstraintSet([[2.0, 0.0]])
    g4 = initial_guess(single, 4)
    assert g4.coeff((4, 0)) == pytest.approx(1.0 / (1.01 * 16.0))


def test_objective_grad_hess_gaussian():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    f, grad, hess, mv = objective_grad_hess(g)
    assert f == pytest.approx(PI, rel=1e-9)
    # basis order (2,0),(1,1),(0,2); gradient is minus the moment vector
    assert grad == pytest.approx([-PI / 2.0, 0.0, -PI / 2.0], abs=1e-9)
    assert hess[0, 0] == pytest.approx(3.0 * PI / 4.0, rel=1e-8)   # I_(4,0)
    assert hess[0, 2] == pytest.approx(PI / 4.0, rel=1e-8)         # I_(2,2)
    assert hess[1, 1] == pytest.approx(PI / 4.0, rel=1e-8)
    assert np.allclose(hess, hess.T)
    assert mv.y0 == pytest.approx(f)


def test_kkt_residual_disk(disk4):
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    lam = np.full(4, PI / 4.0)
    assert kkt_residual(g, lam, disk4) <= 1e-8
    # dropping the multipliers leaves pure stationarity error
    assert kkt_residual(g, np.zeros(4), disk4) == pytest.approx(0.5, rel=1e-8)
    with pytest.raises(ValueError):
        kkt_residual(g, np.array([-1.0, 0.0, 0.0, 0.0]), disk4)
    with pytest.raises(ValueError):
        kkt_residual(g, np.ones(3), disk4)


def test_collinear_points_degenerate():
    cs = ConstraintSet([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    with pytest.raises(DegenerateInputError):
        solve_min_volume(cs, 2)


@pytest.mark.parametrize("seed,degree", [(0, 2), (5, 4)])
def test_homogeneity_scaling(seed, degree):
    pts = symmetric_cloud(seed, n=2, m=10)
    c = 1.7
    rep1 = solve_min_volume(ConstraintSet(pts), degree)
    rep2 = solve_min_volume(ConstraintSet(c * pts), degree)
    assert rep2.volume == pytest.approx(c ** 2 * rep1.volume, rel=1e-6)
    for a, v in rep1.g_star.coeffs_dict().items():
        assert rep2.g_star.coeff(a) == pytest.approx(c ** -degree * v, abs=1e-6)


def test_random_cloud_feasible_and_certified():
    pts = random_cloud(3, n=2, m=25)
    cs = ConstraintSet(pts)
    rep = solve_min_volume(cs, 2)
    vals = rep.g_star(cs.points)
    assert np.max(vals) <= 1.0 + 1e-9
    assert rep.kkt_residual <= 1e-8
    # residual re-measured from scratch in the original frame stays small
    assert kkt_residual(rep.g_star, rep.multipliers, cs) <= 1e-5


def test_quartic_cloud_converges():
    pts = symmetric_cloud(7, n=2, m=14)
    rep = solve_min_volume(ConstraintSet(pts), 4)
    assert rep.kkt_residual <= 1e-8
    vals = rep.g_star(pts)
    assert np.max(vals) <= 1.0 + 1e-9
    assert np.max(vals) >= 1.0 - 1e-6     # some contact touches the level set


def test_converse_sufficiency(disk4):
    # any feasible perturbation of the optimum cannot beat its objective
    rep = solve_min_volume(disk4, 2)
    rng = philox(13)
    f_star = rep.objective
    for _ in range(10):
        delta = 0.05 * rng.normal(size=3)
        pert = HomogeneousPoly(2, 2, rep.g_star.coeff_vector + delta)
        vals = pert(disk4.points)
        top = float(np.max(vals))
        if top <= 0:
            continue
        scaled = pert * (1.0 / top)      # feasible: max_i g(x_i) = 1
        try:
            f = integral_exp(scaled)
        except Exception:
            continue
        assert f >= f_star - 1e-8 * f_star


def test_warm_start_and_validation(disk4):
    rep = solve_min_volume(disk4, 2)
    t0 = rep.t_final / 100.0
    # from the optimum, and from twice it, which leaves every point
    # outside until the start is scaled back by the initial-guess margin
    for g in (rep.g_star, rep.g_star * 2.0):
        again = solve_min_volume(disk4, 2, resume=(g, t0))
        assert again.objective == pytest.approx(rep.objective, rel=1e-12)
        assert again.t_final == rep.t_final
    with pytest.raises(ValueError):
        solve_min_volume(disk4, 2, resume=(HomogeneousPoly(2, 4, {(4, 0): 1.0}), t0))
    with pytest.raises(ValueError):
        solve_min_volume(disk4, 2, resume=(rep.g_star, 0.0))
    with pytest.raises(ValueError):
        solve_min_volume(disk4, 3)
    with pytest.raises(ValueError):
        SolverConfig(kkt_tolerance=0.0)


def test_iteration_budget_exhaustion(monkeypatch):
    pts = random_cloud(2, n=2, m=30)
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(ConvergenceError):
        solve_min_volume(ConstraintSet(pts), 2)


def test_budget_message_names_budget_weight_and_residual(monkeypatch):
    cs = ConstraintSet(random_cloud(2, n=2, m=30))
    monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
    with pytest.raises(ConvergenceError, match=r"newton budget 3 exhausted "
                       r"at barrier weight t=\S+ \(last residual \S+\)$"):
        solve_min_volume(cs, 2)


def test_barrier_schedule_is_fixed(disk4):
    # t starts at 1 and grows tenfold per stage; a resumed solve starts
    # at its own t and grows it the same way
    cloud = ConstraintSet(symmetric_cloud(3, n=2, m=10))
    for cs, degree in ((disk4, 2), (cloud, 4)):
        rep = solve_min_volume(cs, degree)
        assert rep.t_final == 10.0 ** (rep.stages - 1)
        t0 = rep.t_final / 100.0
        warm = solve_min_volume(cs, degree, resume=(rep.g_star, t0))
        assert warm.t_final == t0 * 10.0 ** (warm.stages - 1) == rep.t_final


@pytest.mark.parametrize("pts,degree", [(quartic_star()[1], 4),
                                        (symmetric_cloud(2, n=2, m=100), 2),
                                        (symmetric_cloud(3, n=3, m=30), 4)],
                         ids=["star_d4", "cloud_n2_d2", "cloud_n3_d4"])
def test_loose_stages_keep_the_answer(pts, degree, monkeypatch):
    # stages whose point goes unread stop at LOOSE_DECREMENT; the answer is
    # that of centering every stage to rounding (the constant at 0)
    steps = []
    stage = solver._newton_stage

    def counted(*args):
        x, taken, state = stage(*args)
        steps.append(taken)
        return x, taken, state

    monkeypatch.setattr(solver, "_newton_stage", counted)
    cs = ConstraintSet(pts)
    runs = []
    for loose in (solver.LOOSE_DECREMENT, 0.0):
        monkeypatch.setattr(solver, "LOOSE_DECREMENT", loose)
        steps.clear()
        runs.append((solve_min_volume(cs, degree).volume, sum(steps)))
    (volume, taken), (tight_volume, tight_taken) = runs
    assert volume == pytest.approx(tight_volume, rel=1e-12)
    assert taken <= 0.8 * tight_taken


def test_stall_raises_within_two_stages_of_the_gap_bound(monkeypatch):
    # the cloud of test_cli's exit-4 case: at tolerance 1e-16 the polished
    # residual sits at its rounding floor (~9e-16) once the gap bound is met
    rng = philox(3)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    cs = ConstraintSet(rng.normal(size=(25, 2)) @ A)
    config = SolverConfig(kkt_tolerance=1e-16)
    past_gap = []
    stage = solver._newton_stage

    def counted(x, t, *args):
        out = stage(x, t, *args)
        past_gap.append(len(cs) / t <= config.kkt_tolerance * out[2][0])
        return out

    monkeypatch.setattr(solver, "_newton_stage", counted)
    with pytest.raises(ConvergenceError, match="KKT residual stalled"):
        solve_min_volume(cs, 2, config)
    assert 1 <= sum(past_gap) <= 2


def test_line_search_stops_at_phi_rounding():
    # Phi(x) = 1 + (x - 5.5e-8)^2 / 2 near x = 0: the Newton step predicts
    # a first-order decrease |grad^T p| = 3e-15, about 14 ulps of Phi, and
    # every trial reads two ulps above Phi(x), as rounding can make it.
    # The search gives up once alpha * |grad^T p| is under Phi's rounding
    # (two trials) instead of halving alpha down to 1e-14 (47 trials).
    phi0 = 1.0
    calls = []

    def derivatives(x, t):
        return 1e-8, phi0, x - 5.5e-8, np.eye(1)

    def barrier_value(x, t):
        calls.append(x)
        return phi0 + 2 * np.spacing(phi0)

    x0 = np.zeros(1)
    x, steps, state = solver._newton_stage(x0, 1.0, derivatives,
                                           barrier_value, 10)
    assert np.array_equal(x, x0) and steps == 1
    assert len(calls) <= 5


@pytest.mark.parametrize("pts", [random_cloud(3, n=2, m=30),
                                 symmetric_cloud(3, n=2, m=15)],
                         ids=["cloud", "symmetric"])
def test_budget_cut_reports_state_of_returned_iterate(pts, monkeypatch):
    # A Newton budget that runs out on an accepted step must not leave the
    # report with the moments of the iterate before that step.
    cs = ConstraintSet(pts)
    returned = 0
    for k in range(64, 80):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", k)
        try:
            rep = solve_min_volume(cs, 4)
        except ConvergenceError:
            continue
        returned += 1
        gap = abs(rep.objective - integral_exp(rep.g_star)) / rep.objective
        assert gap <= 1e-13, (k, gap)
    assert returned > 0


@pytest.mark.parametrize("pts,degree", [(random_cloud(3, n=2, m=25), 4),
                                        (symmetric_cloud(4, n=3, m=10), 2)],
                         ids=["n2d4", "n3d2"])
def test_user_frame_moments_are_exact_transforms(pts, degree):
    # |det L| * P_d(L) * whitened moments equals a fresh quadrature of
    # g_star in the user's frame, without the solver running one
    rep = solve_min_volume(ConstraintSet(pts), degree)
    fresh = moment_vector(rep.g_star)
    assert rep.moment_data.quadrature_info["converged"] is True
    assert rep.moment_data.y0 == rep.objective
    assert rep.moment_data.y0 == pytest.approx(fresh.y0, rel=1e-9)
    scale = float(np.max(np.abs(fresh.slice_d)))
    assert np.max(np.abs(rep.moment_data.slice_d - fresh.slice_d)) <= 1e-9 * scale


def test_spatial_n4_quadratic_certifies():
    # the user-frame moment recompute used to stop unconverged at the
    # point cap; the exact transform needs no second quadrature
    cs = ConstraintSet(symmetric_cloud(5, n=4, m=20))
    rep = solve_min_volume(cs, 2)
    assert rep.moment_data.quadrature_info["converged"] is True
    cert = build_certificate(rep, cs)
    y0 = cert.meta["y0"]
    assert cert.moment_residual <= 1e-6 * y0
    assert abs(cert.mass - cert.mass_expected) <= 1e-6 * y0


def test_unconverged_final_quadrature_fails_closed():
    # n = 4, d = 4: the ladder stops at the 2^20 point cap; this used to
    # return a certificate with moment residual / y0 of about 0.23
    cs = ConstraintSet(symmetric_cloud(5, n=4, m=20))
    with pytest.raises(ConvergenceError, match="quadrature did not converge"):
        solve_min_volume(cs, 4)


def test_inaccurate_user_frame_fails_closed():
    # d = 8 on an anisotropic cloud: float64 coefficients of g_star in the
    # user's frame miss the whitened values by about 2e-3 (this used to
    # surface as NotInConeError from the user-frame recompute)
    cs = ConstraintSet(symmetric_cloud(2, n=2, m=100))
    with pytest.raises(ConvergenceError, match="frame change"):
        solve_min_volume(cs, 8)
