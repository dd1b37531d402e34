"""Moments of exp(-g): frozen oracle values, identities, error paths.

The quartic reference numbers were computed independently with
scipy.integrate.quad on the 1-D integrals Integral_R t^k exp(-t^4) dt
(they also match the closed form 2*Gamma((k+1)/4)/4) and are frozen here;
the package must reproduce them through its own sphere quadrature.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import homfit
from conftest import philox
from homfit import (HomogeneousPoly, NotInConeError, integral_exp, integrals,
                    moment, moment_vector, volume_sublevel)
from homfit.integrals import _angular_integrals, _basis_tables, _sphere_ladder
from homfit.polynomials import (basis_for, compose_linear, monomial_matrix,
                                positivity_floor)
from homfit.spheres import (grid_size, half_grid_factors, half_sphere_grid,
                            resolution_for_budget)
from homfit.verify import crosscheck_levelset_moment

# scipy.integrate.quad oracles, frozen (see module docstring)
INT_EXP_T4 = 1.8128049541109543        # Integral_R exp(-t^4) dt
INT_T2_EXP_T4 = 0.6127083512325889     # Integral_R t^2 exp(-t^4) dt
INT_T4_EXP_T4 = 0.45320123852773875    # Integral_R t^4 exp(-t^4) dt
Y0_QUARTIC = INT_EXP_T4 ** 2           # = 3.286261801649219, by separability
VOL_QUARTIC = 3.708149354602744        # Y0_QUARTIC / Gamma(1 + 2/4)
M22_QUARTIC = INT_T2_EXP_T4 ** 2       # = 0.37541152367015757

GAUSS2 = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
QUARTIC2 = HomogeneousPoly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})


def _ladder_mass(g):
    return float(_sphere_ladder(g, [0])[0][0][0])


def test_integral_exp_gaussian():
    # the sphere ladder on Gaussians; d = 2 calls take the closed form
    assert _ladder_mass(GAUSS2) == pytest.approx(math.pi, rel=1e-12)
    gauss3 = HomogeneousPoly.sum_of_powers(3, 2)
    assert _ladder_mass(gauss3) == pytest.approx(math.pi ** 1.5, rel=1e-10)
    gauss4 = HomogeneousPoly.sum_of_powers(4, 2)
    assert _ladder_mass(gauss4) == pytest.approx(math.pi ** 2, rel=1e-10)


def test_integral_exp_gaussian_closed_form():
    assert integral_exp(GAUSS2) == pytest.approx(math.pi, rel=1e-12)
    gauss3 = HomogeneousPoly.sum_of_powers(3, 2)
    assert integral_exp(gauss3) == pytest.approx(math.pi ** 1.5, rel=1e-10)
    gauss4 = HomogeneousPoly.sum_of_powers(4, 2)
    assert integral_exp(gauss4) == pytest.approx(math.pi ** 2, rel=1e-10)


def test_integral_exp_quartic_frozen():
    assert integral_exp(QUARTIC2) == pytest.approx(Y0_QUARTIC, rel=1e-10)
    # 1-D case: the sphere degenerates to two points, value is the 1-D integral
    q1 = HomogeneousPoly(1, 4, {(4,): 1.0})
    assert integral_exp(q1) == pytest.approx(INT_EXP_T4, rel=1e-12)


def test_scaling_law_seeded():
    # the closed form and the sphere ladder
    for mass in (integral_exp, _ladder_mass):
        rng = philox(31)
        for _ in range(6):
            lam = float(rng.uniform(0.3, 4.0))
            scaled = mass(GAUSS2 * lam)
            assert scaled == pytest.approx(lam ** -1.0 * math.pi, rel=1e-8)
        assert mass(GAUSS2 * 2.0) == pytest.approx(math.pi / 2.0, rel=1e-10)


def test_volume_sublevel_values():
    assert volume_sublevel(GAUSS2, 1.0) == pytest.approx(math.pi, rel=1e-12)
    assert volume_sublevel(GAUSS2, 4.0) == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert volume_sublevel(QUARTIC2, 1.0) == pytest.approx(VOL_QUARTIC, rel=1e-10)
    assert volume_sublevel(GAUSS2, 0.0) == 0.0
    with pytest.raises(ValueError):
        volume_sublevel(GAUSS2, -1.0)


def test_volume_sublevel_rejects_a_nan_level():
    with pytest.raises(ValueError):
        volume_sublevel(GAUSS2, math.nan)


def test_single_moments():
    assert moment(GAUSS2, (2, 0)) == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert moment(GAUSS2, (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert moment(QUARTIC2, (4, 0)) == pytest.approx(INT_T4_EXP_T4 * INT_EXP_T4,
                                                     rel=1e-10)
    assert moment(QUARTIC2, (2, 2)) == pytest.approx(M22_QUARTIC, rel=1e-10)
    with pytest.raises(ValueError):
        moment(GAUSS2, (1, 1, 1))


def test_odd_moments_exactly_zero():
    quartic3 = HomogeneousPoly(3, 4, {(4, 0, 0): 1.0, (0, 4, 0): 2.0,
                                      (0, 0, 4): 1.0, (2, 2, 0): 0.5})
    for g, alphas in [(QUARTIC2, [(1, 0), (0, 3), (2, 1), (5, 2)]),
                      (quartic3, [(1, 0, 0), (1, 1, 1), (0, 2, 3)])]:
        for alpha in alphas:
            assert moment(g, alpha) == 0.0
    # the dimension check still runs first
    with pytest.raises(ValueError):
        moment(GAUSS2, (1, 0, 0))
    with pytest.raises(ValueError):
        moment(quartic3, (1, 0))


def _ladder_moment_vector(g, include_2d=False):
    d = g.degree
    totals, info = _sphere_ladder(g, [0, d, 2 * d] if include_2d else [0, d])
    return integrals.MomentVector(g.n, d, float(totals[0][0]), totals[1],
                                  totals[2] if include_2d else None, info)


def _check_gaussian_moments(vector):
    mv = vector(GAUSS2)
    assert mv.y0 == pytest.approx(math.pi, rel=1e-12)
    expect = {(2, 0): math.pi / 2.0, (1, 1): 0.0, (0, 2): math.pi / 2.0}
    basis = basis_for(2, 2)
    for alpha, val in expect.items():
        assert mv.slice_d[basis.index_of(alpha)] == pytest.approx(val, abs=1e-12)
    # n = 5: exp(-|x|^2) factorizes, and Integral t^k exp(-t^2) dt is
    # Gamma((k+1)/2) for even k, 0 for odd k
    mv = vector(HomogeneousPoly.sum_of_powers(5, 2), include_2d=True)
    assert mv.quadrature_info["converged"]
    assert mv.y0 == pytest.approx(math.pi ** 2.5, rel=1e-12)
    for alpha, val in [*zip(basis_for(5, 2), mv.slice_d),
                       *zip(basis_for(5, 4), mv.slice_2d)]:
        if any(a % 2 for a in alpha):
            assert abs(val) <= 1e-12 * mv.y0
        else:
            exact = math.prod(math.gamma((a + 1) / 2.0) for a in alpha)
            assert val == pytest.approx(exact, rel=1e-12)


def test_moment_vector_gaussian():
    # the sphere ladder on Gaussians; d = 2 calls take the closed form
    _check_gaussian_moments(_ladder_moment_vector)


def test_moment_vector_gaussian_closed_form():
    _check_gaussian_moments(moment_vector)


def test_euler_identity_seeded():
    rng = philox(32)
    for _ in range(8):
        n = int(rng.choice([2, 2, 3]))
        d = int(rng.choice([2, 4]))
        base = HomogeneousPoly.sum_of_powers(n, d)
        pert = HomogeneousPoly(n, d, 0.25 * rng.normal(size=len(basis_for(n, d))))
        g = base + pert
        mv = moment_vector(g)
        basis = basis_for(n, d)
        lhs = sum(g.coeff(a) * mv.slice_d[basis.index_of(a)] for a in basis)
        assert abs(lhs - (n / d) * mv.y0) <= 1e-8 * mv.y0


def test_hessian_matrix_structure():
    # the closed form and the sphere ladder
    for vector in (moment_vector, _ladder_moment_vector):
        H = vector(GAUSS2, include_2d=True).hessian_matrix()
        assert np.allclose(H, H.T)
        basis = basis_for(2, 2)
        i, j = basis.index_of((2, 0)), basis.index_of((0, 2))
        # H[(2,0),(0,2)] = moment (2,2) of the Gaussian = pi/4
        assert H[i, j] == pytest.approx(math.pi / 4.0, rel=1e-12)
        # aliasing: same entry wherever the exponent sums agree
        k = basis.index_of((1, 1))
        assert H[k, k] == pytest.approx(H[i, j], rel=1e-14)
    # without the 2d slice the matrix is unavailable
    with pytest.raises(ValueError):
        moment_vector(GAUSS2).hessian_matrix()


def test_even_moments_positive():
    mv = moment_vector(QUARTIC2, include_2d=True)
    d = QUARTIC2.degree
    for alpha, val in [*zip(basis_for(2, d), mv.slice_d),
                       *zip(basis_for(2, 2 * d), mv.slice_2d)]:
        if all(a % 2 == 0 for a in alpha):
            assert val > 0.0


def test_objective_convexity_seeded():
    rng = philox(33)
    for _ in range(6):
        d = int(rng.choice([2, 4]))
        g = HomogeneousPoly.sum_of_powers(2, d) * float(rng.uniform(0.5, 2.0))
        h = g + HomogeneousPoly(2, d, 0.2 * rng.normal(size=len(basis_for(2, d))))
        lam = float(rng.uniform(0.1, 0.9))
        mix = g * lam + h * (1.0 - lam)
        f_mix = integral_exp(mix)
        bound = lam * integral_exp(g) + (1.0 - lam) * integral_exp(h)
        assert f_mix <= bound + 1e-8


def test_not_in_cone_rejected():
    bad = HomogeneousPoly(2, 4, {(2, 2): 1.0})
    with pytest.raises(NotInConeError):
        integral_exp(bad)


def test_hint_reuse_is_consistent():
    hint = {}
    mv1 = moment_vector(QUARTIC2, hint=hint)
    assert hint.get("res", 0) > 0
    mv2 = moment_vector(QUARTIC2, hint=hint)
    assert mv2.quadrature_info["converged"]
    assert mv2.y0 == pytest.approx(mv1.y0, rel=1e-12)


def test_hint_steps_down_to_what_the_integrand_needs():
    # a cold ladder on QUARTIC2 returns at 128 points; a hint two levels
    # above that comes down one level per call, each return self-checked
    cold = moment_vector(QUARTIC2, include_2d=True)
    assert cold.quadrature_info["points"] == 128
    hint = {"res": 512}
    for expected in (256, 128, 128):
        mv = moment_vector(QUARTIC2, include_2d=True, hint=hint)
        assert mv.quadrature_info["points"] == expected
        assert mv.quadrature_info["converged"]
        assert hint["res"] == expected
        assert mv.y0 == pytest.approx(cold.y0, rel=1e-10)
        assert np.allclose(mv.slice_2d, cold.slice_2d, rtol=0.0,
                           atol=1e-10 * np.max(np.abs(cold.slice_2d)))


@pytest.mark.parametrize("cap,points", [(None, 128), (256, 256)])
def test_right_hint_costs_few_extra_levels(cap, points, monkeypatch):
    # with a hint that is already right (cap None: QUARTIC2 at 128 points)
    # or stuck at the point cap (a peaked integrand that needs 1024 points
    # under a cap of 256), every downward try fails; backing off after
    # each failure keeps the extra coarse levels to O(log calls): the
    # tries fall on calls 1, 3, 6, 11, 20, 37 of 64
    g = QUARTIC2
    if cap is not None:
        monkeypatch.setattr(integrals, "MAX_POINTS", cap)
        g = compose_linear(QUARTIC2, np.array([[1.0, 0.3], [0.0, 8.0]]))
    hint = {}
    moment_vector(g, include_2d=True, hint=hint)
    assert hint["res"] == points
    levels = []
    work_arrays = integrals._work_arrays

    def counted(*args):
        levels.append(args)
        return work_arrays(*args)

    monkeypatch.setattr(integrals, "_work_arrays", counted)
    for _ in range(64):
        info = moment_vector(g, include_2d=True, hint=hint).quadrature_info
        assert info["points"] == points
        assert info["converged"] == (cap is None)
    assert len(levels) <= 136


def test_crosscheck_levelset_moments():
    r = crosscheck_levelset_moment(GAUSS2, (0, 0), mc_budget=200_000, seed=7)
    assert r.agree
    assert r.lhs == pytest.approx(math.pi, rel=1e-10)
    r = crosscheck_levelset_moment(GAUSS2, (2, 0), mc_budget=200_000, seed=8)
    assert r.agree
    assert r.lhs == pytest.approx(math.pi / 2.0, rel=1e-10)
    r = crosscheck_levelset_moment(QUARTIC2, (0, 0), mc_budget=200_000, seed=9)
    assert r.agree
    assert r.lhs == pytest.approx(Y0_QUARTIC, rel=1e-9)


@pytest.mark.parametrize("budget", [0, -5, 2.5])
def test_crosscheck_rejects_bad_budgets(budget):
    with pytest.raises(ValueError):
        crosscheck_levelset_moment(GAUSS2, (0, 0), mc_budget=budget)


@pytest.mark.parametrize("d", [2, 4, 6])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_factorised_level_matches_flat_sum(n, d, monkeypatch):
    # reference: Gamma((n+k)/d)/d times the plain sum of w * f over every
    # node of the half grid, f = u^a g(u)^(-(n+k)/d) for a in the k-slice;
    # the ladder contracts one axis at a time.  Both evaluate g in the
    # monomial basis, which loses kappa * eps,
    # kappa = max sum_a |g_a u^a| / g(u); 1e-12 presumes kappa < 1e4.
    rng = philox(500 + 10 * n + d)
    M = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    g = compose_linear(HomogeneousPoly.sum_of_powers(n, d), M)
    degrees = [0, d, 2 * d]
    for res in (6, 12):
        # a cap at the first level pins the ladder to resolution res
        monkeypatch.setattr(integrals, "START_POINTS", grid_size(n, res))
        monkeypatch.setattr(integrals, "MAX_POINTS", grid_size(n, res))
        points, weights = half_sphere_grid(n, res)
        gv = g(points)
        terms = monomial_matrix(points, basis_for(n, d).exponents) * g.coeff_vector
        assert np.max(np.abs(terms).sum(axis=1) / gv) < 1e4
        totals, info = _sphere_ladder(g, degrees)
        assert info["points"] == grid_size(n, res)
        for k, got in zip(degrees, totals):
            f = (math.gamma((n + k) / d) / d * (gv ** (-(n + k) / d))[:, None]
                 * monomial_matrix(points, basis_for(n, k).exponents))
            gap = np.abs(got - weights @ f)
            assert np.all(gap <= 1e-12 * (weights @ np.abs(f)))


@pytest.mark.parametrize("n,d", [(2, 4), (3, 4), (4, 2)])
def test_level_on_work_arrays_matches_fresh_arrays(n, d, monkeypatch):
    # reference: the same level sums with every array allocated afresh;
    # the operations are the same, so the totals must be identical
    rng = philox(700 + 10 * n + d)
    g = compose_linear(HomogeneousPoly.sum_of_powers(n, d),
                       rng.normal(size=(n, n)) + 3.0 * np.eye(n))
    degrees = [0, d, 2 * d]
    for res in (16, 32):
        monkeypatch.setattr(integrals, "START_POINTS", grid_size(n, res))
        monkeypatch.setattr(integrals, "MAX_POINTS", grid_size(n, res))
        totals, _ = _sphere_ladder(g, degrees)
        _, tw, _, weights = half_grid_factors(n, res)
        outer, inner = _basis_tables(n, res, d)
        gv = (outer * g.coeff_vector) @ inner.T
        radial = gv ** (-n / d)
        mass = math.gamma(n / d) / d * float(tw @ (radial @ weights))
        assert np.array_equal(totals[0], [mass])
        for k, got in zip(degrees[1:], totals[1:]):
            radial = radial / gv
            outer, inner = _basis_tables(n, res, k)
            factor = math.gamma((n + k) / d) / d
            assert np.array_equal(got, factor * (tw @ ((radial * weights) @ inner * outer)))


@pytest.mark.parametrize("g", [
    GAUSS2,
    compose_linear(QUARTIC2, np.array([[1.0, 0.3], [0.0, 1.0]])),
    compose_linear(QUARTIC2, np.array([[1.0, 0.3], [0.0, 8.0]]))],
    ids=["gauss", "quartic", "peaked"])
def test_n2_ladder_pair_takes_one_level(g, monkeypatch):
    # at n = 2 the coarse grid of a call's first pair is every other node
    # of the fine one, so the pair is one level evaluation; the returned
    # totals and points are those of the last two levels as a two-level
    # pair computes them, bit for bit, and the delta moves only by the
    # coarse sum's rounding.  The gauss call returns at its first pair
    # (128 points), the others climb to 256 and 1024, one evaluation per
    # level.
    d = g.degree
    degrees = [0, d, 2 * d]
    level = integrals._level
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return level(*args, **kwargs)

    monkeypatch.setattr(integrals, "_level", counted)
    totals, info = _sphere_ladder(g, degrees)
    r = info["points"]
    base = resolution_for_budget(2, integrals.START_POINTS)
    assert calls == [base * 2 ** j for j in range(1, int(math.log2(r // base)) + 1)]
    floor = positivity_floor(g)
    coarse, _ = level(g, degrees, r // 2, floor)
    fine, count = level(g, degrees, r, floor)
    assert count == r and info["converged"]
    for k, got, ref in zip(degrees, totals, fine):
        assert np.array_equal(got, math.gamma((2 + k) / d) / d * ref)
    delta = max(float(np.max(np.abs(a - b))) / float(np.max(np.abs(a)))
                for a, b in zip(fine, coarse))
    assert abs(info["last_delta"] - delta) <= 1e-15


def test_vanishing_moment_converges_on_its_slice(monkeypatch):
    # I_(1,1,2) of x^4 + y^4 + z^4 + 0.3 x^2 y^2 is zero by symmetry; the
    # ladder's self-check scales by the largest moment of the whole
    # degree-4 slice, so it converges instead of climbing to the cap
    g = HomogeneousPoly(3, 4, {(4, 0, 0): 1.0, (0, 4, 0): 1.0, (0, 0, 4): 1.0,
                               (2, 2, 0): 0.3})
    infos = []
    ladder = integrals._angular_integrals

    def recorded(*args, **kwargs):
        totals, info = ladder(*args, **kwargs)
        infos.append(info)
        return totals, info

    monkeypatch.setattr(integrals, "_angular_integrals", recorded)
    value = moment(g, (1, 1, 2))
    assert len(infos) == 1
    assert infos[0]["converged"] and infos[0]["points"] <= 18432
    assert abs(value) <= 1e-10 * moment(g, (2, 2, 0))


def test_cap_level_memory():
    # a cold ladder that climbs to the 2^20 point cap at n = 4, d = 4 with
    # the Hessian slice; its tables live on the 3-dimensional grid
    script = (
        "import tracemalloc, numpy as np\n"
        "from homfit import HomogeneousPoly, integrals, moment_vector\n"
        "from homfit.polynomials import compose_linear\n"
        "rng = np.random.Generator(np.random.Philox(6))\n"
        "M = np.eye(4) + 0.3 * rng.normal(size=(4, 4))\n"
        "g = compose_linear(HomogeneousPoly.sum_of_powers(4, 4), M)\n"
        "integrals.TOLERANCE = 1e-15\n"
        "tracemalloc.start()\n"
        "mv = moment_vector(g, include_2d=True)\n"
        "print(mv.quadrature_info['points'], tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(homfit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=300)
    points, peak = map(int, out.stdout.split())
    assert points == 221184
    assert peak < 32 * 2 ** 20


def test_warm_ladder_allocates_no_level_arrays(monkeypatch):
    # the level-sized arrays live on one reused buffer; freed and allocated
    # anew on every call they could go back to the OS and fault in again
    M = np.eye(3) + 0.3 * philox(8).normal(size=(3, 3))
    g = compose_linear(HomogeneousPoly.sum_of_powers(3, 4), M)
    monkeypatch.setattr(integrals, "TOLERANCE", 1e-15)
    cold = moment_vector(g, include_2d=True)
    tracemalloc.start()
    try:
        moment_vector(g, include_2d=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    level_bytes = 8 * cold.quadrature_info["points"] // 2
    assert level_bytes > 2 ** 20
    assert peak < level_bytes


def _quadratic(Q):
    """x^T Q x in the monomial basis: the coefficient of x_i x_j, i != j,
    is 2 Q_ij."""
    n = len(Q)
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            alpha = [0] * n
            alpha[i] += 1
            alpha[j] += 1
            coeffs[tuple(alpha)] = Q[i, j] * (1.0 if i == j else 2.0)
    return HomogeneousPoly(n, 2, coeffs)


def _seeded_q(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + 0.5 * np.eye(n)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_matches_the_sphere_ladder(n):
    rng = philox(900 + n)
    degrees = [0, 2, 4, 6]
    for _ in range(4):
        g = _quadratic(_seeded_q(rng, n))
        closed, info = _angular_integrals(g, degrees)
        assert info == {"points": 0, "converged": True, "last_delta": 0.0}
        ladder, ladder_info = _sphere_ladder(g, degrees)
        assert ladder_info["converged"]
        for k, got, ref in zip(degrees, closed, ladder):
            assert got.shape == (len(basis_for(n, k)),)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("Q", [
    np.diag([1.0, -1.0]),                  # indefinite
    np.array([[1.0, 1.0], [1.0, 1.0]]),    # singular
    np.diag([1.0, 5e-9])],                 # 0 < lambda_min <= positivity_floor
    ids=["indefinite", "singular", "below_floor"])
def test_closed_form_cone_test(Q):
    g = _quadratic(Q)
    assert np.linalg.eigvalsh(Q)[0] <= positivity_floor(g)
    for call in (lambda: integral_exp(g), lambda: moment_vector(g, include_2d=True),
                 lambda: moment(g, (2, 0)), lambda: volume_sublevel(g, 1.0)):
        with pytest.raises(NotInConeError):
            call()


def test_closed_form_is_exact_where_the_ladder_stops_short():
    # a cold ladder on this n = 4 Gaussian (cond Q about 18) stops at the
    # point cap unconverged; the closed form meets the mass formula and
    # the Euler identity to rounding
    Q = _seeded_q(philox(6), 4)
    g = _quadratic(Q)
    _, info = _sphere_ladder(g, [0, 2])
    assert not info["converged"]
    mv = moment_vector(g)
    y0 = math.pi ** 2 / math.sqrt(np.linalg.det(Q))
    assert mv.y0 == pytest.approx(y0, rel=1e-13)
    assert g.coeff_vector @ mv.slice_d == pytest.approx(2.0 * mv.y0, rel=1e-13)


def test_level_runs_only_off_degree_two(monkeypatch):
    level = integrals._level
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return level(*args, **kwargs)

    monkeypatch.setattr(integrals, "_level", counted)
    for g, alpha in [(GAUSS2, (2, 0)), (_quadratic(_seeded_q(philox(7), 3)), (2, 2, 0)),
                     (QUARTIC2, (4, 0))]:
        before = len(calls)
        integral_exp(g)
        moment_vector(g, include_2d=True)
        moment(g, alpha)
        volume_sublevel(g, 2.0)
        assert (len(calls) > before) == (g.degree == 4)
