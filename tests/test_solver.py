"""Interior-point solver for the discretized minimum-volume program."""

import math

import numpy as np
import pytest

from conftest import philox, quartic_star, random_cloud, symmetric_cloud
from homfit import (ConstraintSet, ConvergenceError, DegenerateInputError,
                    HomogeneousPoly, basis_for, build_certificate,
                    initial_guess, integral_exp, integrals, moment_vector,
                    solve_min_volume, solve_min_volume_centered, solver)

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
    # at most C(3, 2) of the four contacts carry weight, in total
    # (n/d) * pi = pi
    assert rep.multipliers.shape == (4,)
    assert 0 < np.count_nonzero(rep.multipliers) <= 3
    assert np.all(rep.multipliers >= 0.0)
    assert rep.multipliers.sum() == pytest.approx(PI, rel=1e-6)
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
    g = initial_guess(disk4.points, 2)
    assert g.coeff((2, 0)) == pytest.approx(1.0 / 1.01)
    assert g.coeff((0, 2)) == pytest.approx(1.0 / 1.01)
    vals = g(disk4.points)
    assert np.max(vals) < 1.0

    g4 = initial_guess(np.array([[2.0, 0.0]]), 4)
    assert g4.coeff((4, 0)) == pytest.approx(1.0 / (1.01 * 16.0))


def test_initial_guess_with_every_point_at_the_origin():
    # no sample value to scale by: the start is x_1^d + ... + x_n^d itself
    g = initial_guess(np.zeros((3, 2)), 4)
    assert np.array_equal(g.coeff_vector,
                          HomogeneousPoly.sum_of_powers(2, 4).coeff_vector)


def test_objective_grad_hess_gaussian():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    # objective f = Integral exp(-g), gradient -I_a and Hessian I_{a+b}
    mv = moment_vector(g, include_2d=True)
    f, grad, hess = mv.y0, -mv.slice_d, mv.hessian_matrix()
    assert f == pytest.approx(PI, rel=1e-9)
    # basis order (2,0),(1,1),(0,2); gradient is minus the moment vector
    assert grad == pytest.approx([-PI / 2.0, 0.0, -PI / 2.0], abs=1e-9)
    assert hess[0, 0] == pytest.approx(3.0 * PI / 4.0, rel=1e-8)   # I_(4,0)
    assert hess[0, 2] == pytest.approx(PI / 4.0, rel=1e-8)         # I_(2,2)
    assert hess[1, 1] == pytest.approx(PI / 4.0, rel=1e-8)
    assert np.allclose(hess, hess.T)
    assert mv.y0 == pytest.approx(f)


def test_collinear_points_degenerate():
    cs = ConstraintSet([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    with pytest.raises(DegenerateInputError):
        solve_min_volume(cs, 2)


# a nonzero form q of degree d/2 vanishes at every point, so g + c q^2 is
# feasible for every c >= 0 and its volume tends to 0
VANISHING_FORMS = {
    "two_d4": ([[1, 2], [3, 4]], 4),
    "three_d6": ([[1, 2], [3, 4], [-1, 0.5]], 6),
    "n3_four_d4": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 4),
    "n3_four_d6": ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], 6),
}


@pytest.mark.parametrize("case", list(VANISHING_FORMS))
def test_vanishing_half_degree_form_has_no_enclosure(case):
    points, degree = VANISHING_FORMS[case]
    with pytest.raises(DegenerateInputError, match=f"degree {degree // 2} "
                       "vanishes at every constraint point"):
        solve_min_volume(ConstraintSet(points), degree)


def test_three_points_at_quartic_degree_solve():
    # no quadratic form vanishes at all three: rank 3 of 3
    rep = solve_min_volume(ConstraintSet([[1, 2], [3, 4], [-1, 0.5]]), 4)
    assert rep.kkt_residual <= 1e-8


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
    # residual re-measured from scratch in the original frame stays small:
    # stationarity against a fresh quadrature, complementary slackness
    fresh = moment_vector(rep.g_star)
    V = basis_for(2, 2).monomials(cs.points)
    assert np.max(np.abs(V.T @ rep.multipliers - fresh.slice_d)) <= 1e-5 * fresh.y0
    assert np.max(np.abs(rep.multipliers * (1.0 - vals))) <= 1e-5 * fresh.y0


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
    with pytest.raises(ValueError):
        solve_min_volume(disk4, 3)
    with pytest.raises(ValueError, match=r"^tol must be in \(0, 1\)"):
        solve_min_volume(disk4, 2, tol=0.0)
    with pytest.raises(ValueError, match=r"^tol must be in \(0, 1\)"):
        solve_min_volume_centered(disk4, 2, tol=1.0)


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


def test_stage_cap_raises(disk4, monkeypatch):
    # one stage at t = 1 is far from the gap bound m/t <= tol * y0
    monkeypatch.setattr(solver, "MAX_STAGES", 1)
    with pytest.raises(ConvergenceError, match=r"^barrier stage cap 1 reached "
                       r"without meeting tolerance \(last residual inf\)$"):
        solve_min_volume(disk4, 2)


def test_barrier_schedule_is_fixed(disk4):
    # t starts at 1 and grows tenfold per stage
    cloud = ConstraintSet(symmetric_cloud(3, n=2, m=10))
    for cs, degree in ((disk4, 2), (cloud, 4)):
        rep = solve_min_volume(cs, degree)
        assert rep.t_final == 10.0 ** (rep.stages - 1)


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


def test_each_iterate_is_integrated_once(monkeypatch):
    # a barrier stage starts from the moments its predecessor ended on, and
    # an accepted line-search trial's moments are the new iterate's: no
    # path integrates the same g twice in a row, and every quadrature of a
    # path is the one request of the mass, degree-d and 2d slices
    calls = []
    angular = integrals._angular_integrals

    def recorded(g, degrees, hint=None):
        if hint is not None:    # one barrier path's ladder memory
            calls.append((hint, g.coeff_vector.copy(), list(degrees),
                          g.degree))
        return angular(g, degrees, hint=hint)

    monkeypatch.setattr(integrals, "_angular_integrals", recorded)
    solve_min_volume(ConstraintSet(quartic_star()[1]), 4)
    solve_min_volume(ConstraintSet(symmetric_cloud(3, n=3, m=30)), 4)
    solve_min_volume_centered(
        ConstraintSet(random_cloud(3, n=2, m=25) + [2.0, -1.0]), 2)
    repeats = [k for k in range(1, len(calls))
               if calls[k][0] is calls[k - 1][0]
               and np.array_equal(calls[k][1], calls[k - 1][1])]
    assert len(calls) > 100 and repeats == []
    assert all(degrees == [0, d, 2 * d] for _, _, degrees, d in calls)


@pytest.mark.parametrize("seed,degree", [(17, 12), (20, 14)])
def test_no_cone_error_escapes_an_accepted_iterate(seed, degree):
    # a trial whose mass passes the cone check but whose full moments do
    # not is rejected, not taken: these solves once raised NotInConeError
    # at sampled values 7.3e-10 and 1.4e-10 on the sphere
    cs = ConstraintSet(symmetric_cloud(seed, n=2, m=60))
    try:
        solve_min_volume(cs, degree)
    except ConvergenceError:
        pass


def test_stall_raises_within_two_stages_of_the_gap_bound(monkeypatch):
    # the cloud of test_cli's exit-4 case: at tolerance 1e-16 the polished
    # residual sits at its rounding floor (~9e-16) once the gap bound is met
    rng = philox(3)
    A = rng.normal(size=(2, 2)) + 1.5 * np.eye(2)
    cs = ConstraintSet(rng.normal(size=(25, 2)) @ A)
    tol = 1e-16
    past_gap = []
    stage = solver._newton_stage

    def counted(x, t, *args):
        out = stage(x, t, *args)
        past_gap.append(len(cs) / t <= tol * out[2][0])
        return out

    monkeypatch.setattr(solver, "_newton_stage", counted)
    with pytest.raises(ConvergenceError, match="KKT residual stalled"):
        solve_min_volume(cs, 2, tol)
    assert 1 <= sum(past_gap) <= 2


def test_line_search_stops_at_phi_rounding():
    # Phi(x) = 1 + (x - 5.5e-8)^2 / 2 near x = 0: the Newton step predicts
    # a first-order decrease |grad^T p| = 3e-15, about 14 ulps of Phi, and
    # every trial reads two ulps above Phi(x), as rounding can make it.
    # The search gives up once alpha * |grad^T p| is under Phi's rounding
    # (two trials) instead of halving alpha down to 1e-14 (47 trials).
    phi0 = 1.0
    calls = []

    def derivatives(x, t, bound=np.inf):
        phi = phi0
        if bound < np.inf:      # a trial
            calls.append(x)
            phi += 2 * np.spacing(phi0)
        return (1e-8, phi, x - 5.5e-8, np.eye(1)) if phi <= bound else None

    x0 = np.zeros(1)
    x, steps, state = solver._newton_stage(x0, 1.0, derivatives, 10)
    assert np.array_equal(x, x0) and steps == 1
    assert len(calls) <= 5


def test_stage_stops_after_six_steps_that_do_not_halve_the_decrement():
    # Phi(x) = -x with a unit Hessian: every Newton step is +1 with
    # decrement 1 and is accepted at alpha = 1, so only the stall rule ends
    # the stage, after the first step and six more that fail to halve it
    def derivatives(x, t, bound=np.inf):
        phi = -x[0]
        return (1.0, phi, np.array([-1.0]), np.eye(1)) if phi <= bound else None

    x, steps, state = solver._newton_stage(np.zeros(1), 1.0, derivatives, 50)
    assert steps == 6 and x[0] == pytest.approx(6.0, rel=1e-9)
    assert state[1] == -x[0]


def test_newton_step_escalates_the_ridge():
    # indefinite: Cholesky fails until the ridge, 1e-12 * trace / dim grown
    # a hundredfold per try, passes 1e-3 at the sixth try
    hess, grad = np.diag([1.0, -1e-3]), np.array([1.0, 1.0])
    ridge = 1e-12 * float(np.trace(hess)) / 2 * 100.0 ** 5
    step = solver._newton_step(hess, grad)
    assert step == pytest.approx(-grad / (np.diag(hess) + ridge), rel=1e-12)
    assert grad @ step < 0.0


def test_newton_step_falls_back_to_least_squares():
    # trace 1 but an eigenvalue near -1e12: the ridge climbs from 5e-13 to
    # 5e9 in twelve tries and never factors, so lstsq solves H s = -grad,
    # and its answer is kept only where it descends
    hess = np.diag([1e12, -(1e12 - 1.0)])
    grad = np.array([1.0, 0.0])
    step = solver._newton_step(hess, grad)
    assert np.array_equal(step, np.linalg.lstsq(hess, -grad, rcond=None)[0])
    assert grad @ step < 0.0
    grad = np.array([0.0, 1.0])     # lstsq gives +grad / (1e12 - 1): ascent
    assert np.array_equal(solver._newton_step(hess, grad), -grad)


def test_newton_step_descends_on_a_negative_trace_hessian():
    # H = -I: the ridge starts at 1e-12 * max |diagonal| and factors at
    # 1e-12 * 100^7 = 100, so the step is -grad / 99, a descent direction
    hess, grad = -np.eye(2), np.array([1.0, -2.0])
    step = solver._newton_step(hess, grad)
    assert step == pytest.approx(-grad / (1e-12 * 100.0 ** 7 - 1.0), rel=1e-12)
    assert grad @ step < 0.0


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


@pytest.mark.parametrize("n,degree", [(2, 4), (2, 6), (3, 4)])
def test_mirror_invariance(n, degree):
    # g is even, so x and -x are one constraint: a cloud, the cloud with
    # its mirror image appended, and that shuffled give one answer, and
    # the weight of each pair sits on one of its rows
    full = symmetric_cloud(1, n=n)
    m = len(full) // 2
    rows = [np.arange(m), np.arange(2 * m), philox(n + degree).permutation(2 * m)]
    reps = [solve_min_volume(ConstraintSet(full[r]), degree) for r in rows]
    base = reps[0].g_star.coeff_vector
    weights = []
    for rep, r in zip(reps, rows):
        assert rep.volume == pytest.approx(reps[0].volume, rel=1e-12)
        coeffs = rep.g_star.coeff_vector
        assert np.max(np.abs(coeffs - base)) <= 1e-12 * np.max(np.abs(base))
        weights.append(np.zeros(2 * m))
        weights[-1][r] = rep.multipliers        # in the rows of full
    for lam in weights[1:]:
        assert np.all(np.minimum(lam[:m], lam[m:]) == 0.0)
        assert np.allclose(lam[:m] + lam[m:], weights[0][:m], rtol=1e-9,
                           atol=1e-12 * weights[0].max())
    assert np.all(weights[1][m:] == 0.0)


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


LOOSE_CASES = {"star_d4": (quartic_star()[1], 4),
               "cloud2_d2": (symmetric_cloud(2, n=2, m=100), 2),
               "cloud3_d2": (symmetric_cloud(3, n=3, m=30), 2)}


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("case", sorted(LOOSE_CASES))
def test_loose_tolerance_returns(case, tol):
    # the yielding stage of a loose solve has t so small that no slack is
    # <= ACTIVITY_TOL; the second cut, tol, finds the contacts (these
    # raised "KKT residual stalled" at tol >= 1e-4 or 1e-3)
    pts, degree = LOOSE_CASES[case]
    cs = ConstraintSet(pts)
    rep = solve_min_volume(cs, degree, tol=tol)
    assert rep.kkt_residual <= tol
    tight = solve_min_volume(cs, degree)
    assert abs(rep.volume - tight.volume) <= tol * tight.volume


def test_volume_does_not_grow_with_the_degree():
    # g^2 is feasible at degree 2d with the same sublevel set, so the
    # optimal volume at 2d is at most that at d; d = 8 stalls on some of
    # the n = 2 clouds, and those pairs are skipped
    def volume(pts, degree):
        try:
            return solve_min_volume(ConstraintSet(pts), degree).volume
        except ConvergenceError:
            return None

    checked = 0
    for n, m, seeds, degrees in [(2, 60, range(12), (2, 4, 8)),
                                 (3, 20, range(4), (2, 4))]:
        for seed in seeds:
            pts = symmetric_cloud(seed, n=n, m=m)
            volumes = [volume(pts, degree) for degree in degrees]
            for low, high in zip(volumes, volumes[1:]):
                if low is not None and high is not None:
                    assert high <= low * (1.0 + 1e-9)
                    checked += 1
    assert checked >= 20
