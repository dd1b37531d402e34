"""Multi-index order, polynomial evaluation, and cone membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import philox
from homfit import (HomogeneousPoly, KDescription, NotInConeError,
                    compose_linear, min_on_sphere, moment)
from homfit.polynomials import (_format_key, _parse_key, basis_for,
                                check_in_cone, monomial_matrix,
                                monomial_partials, positivity_floor,
                                power_matrix)
from homfit.spheres import resolution_for_budget, sphere_grid


def test_multiindex_degree_and_keys():
    a = _parse_key((2, 1, 1))
    assert type(a) is tuple and sum(a) == 4
    assert _format_key(a) == "2,1,1"
    assert _parse_key("2,1,1") == a
    with pytest.raises(ValueError):
        _parse_key((1, -1))


BAD_KEYS = [(2.7, 0), (1.5, 0.5), "2.5,0", (-2, 4)]
ENTRY_POINTS = {
    "poly": lambda key: HomogeneousPoly(2, 2, {key: 1.0, (0, 2): 1.0}),
    "moment": lambda key: moment(HomogeneousPoly.sum_of_powers(2, 2), key),
    "semialgebraic": lambda key: KDescription(
        [{key: -1.0, (0, 0): 1.0}], box=[[-2, 2], [-2, 2]]),
}


@pytest.mark.parametrize("key", BAD_KEYS, ids=str)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integer_or_negative_exponents_rejected(entry, key):
    # int() would truncate 2.7 to 2 and read the key as (2, 0)
    with pytest.raises(ValueError, match="nonnegative integer|invalid literal"):
        ENTRY_POINTS[entry](key)


def test_basis_graded_lex_examples():
    assert [tuple(a) for a in basis_for(2, 2)] == [(2, 0), (1, 1), (0, 2)]
    assert [tuple(a) for a in basis_for(1, 4)] == [(4,)]
    assert len(basis_for(3, 4)) == 15      # C(6,4)


def test_basis_is_bijection():
    basis = basis_for(3, 6)
    for k, alpha in enumerate(basis):
        assert basis.index_of(alpha) == k
        assert basis[k] == alpha
    # deterministic across calls (cached, but also order-stable)
    again = basis_for(3, 6)
    assert list(again) == list(basis)


def test_bad_degree_or_dimension_rejected():
    # polynomial degrees must be even and >= 2; basis_for takes any degree
    with pytest.raises(ValueError):
        HomogeneousPoly(2, 3, np.zeros(4))
    with pytest.raises(ValueError):
        HomogeneousPoly(2, 0, np.zeros(1))
    with pytest.raises(ValueError):
        basis_for(0, 2)


def test_eval_examples():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert g(np.array([3.0, 4.0])) == pytest.approx(25.0, abs=1e-12)

    h = HomogeneousPoly(2, 4, {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1})
    assert h(np.array([1.0, 1.0])) == pytest.approx(1.2, abs=1e-12)
    assert h(np.zeros(2)) == 0.0

    with pytest.raises(ValueError):
        g(np.zeros(3))


def test_eval_homogeneity_seeded():
    rng = philox(21)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.choice([2, 4, 6]))
        coeffs = rng.normal(size=len(basis_for(n, d)))
        g = HomogeneousPoly(n, d, coeffs)
        x = rng.normal(size=n)
        lam = float(rng.uniform(0.2, 3.0))
        lhs = g(lam * x)
        rhs = lam ** d * g(x)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_gradient_examples_and_euler():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    assert np.allclose(g.gradient(np.array([1.0, 0.0])), [2.0, 0.0])

    q = HomogeneousPoly(1, 4, {(4,): 1.0})
    assert q.gradient(np.array([2.0]))[0] == pytest.approx(32.0, abs=1e-12)

    rng = philox(22)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.choice([2, 4]))
        g = HomogeneousPoly(n, d, rng.normal(size=len(basis_for(n, d))))
        x = rng.normal(size=n)
        euler = float(np.dot(g.gradient(x), x)) - d * g(x)
        assert abs(euler) <= 1e-12 * (1.0 + abs(d * g(x)))


def test_monomial_derivatives_match_differences():
    rng = philox(23)
    h = 1e-6
    for n, d in [(1, 4), (2, 2), (2, 6), (3, 4)]:
        exps = basis_for(n, d).exponents

        def partial(x, axes):
            return monomial_partials(x, exps, [axes])[:, 0]

        x = rng.normal(size=(3, n))
        assert np.array_equal(partial(x, ()), monomial_matrix(x, exps))
        g = HomogeneousPoly(n, d, rng.normal(size=len(exps)))
        for j in range(n):
            e = h * np.eye(n)[j]
            jac = partial(x, (j,))
            assert jac.shape == (3, len(exps))
            fd = (monomial_matrix(x + e, exps) - monomial_matrix(x - e, exps)) / (2 * h)
            assert np.allclose(jac, fd, rtol=1e-6, atol=1e-6)
            fd_g = (g(x + e) - g(x - e)) / (2 * h)
            assert np.allclose(g.gradient(x)[:, j], fd_g, rtol=1e-6, atol=1e-6)
            for l in range(n):
                fd2 = (partial(x + h * np.eye(n)[l], (j,))
                       - partial(x - h * np.eye(n)[l], (j,))) / (2 * h)
                assert np.allclose(partial(x, (j, l)), fd2,
                                   rtol=1e-6, atol=1e-6)
        # a whole jet in one call stacks the single derivatives
        jet = [(), *((j,) for j in range(n)), *((j, l) for j in range(n) for l in range(j, n))]
        assert np.array_equal(monomial_partials(x, exps, jet),
                              np.stack([partial(x, axes) for axes in jet], axis=1))


def test_min_on_sphere_values():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    val, _ = min_on_sphere(g)
    assert val == pytest.approx(1.0, abs=1e-9)

    # x^2 y^2 + 0.1 (x^4 + y^4): minimum 0.1 attained on the axes
    h = HomogeneousPoly(2, 4, {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1})
    val, arg = min_on_sphere(h)
    assert val == pytest.approx(0.1, abs=1e-9)
    assert min(abs(arg[0]), abs(arg[1])) < 1e-4

    # cos^4 + sin^4 = 1 - sin^2(2t)/2 has minimum 1/2 on the diagonals
    q = HomogeneousPoly.sum_of_powers(2, 4)
    val, arg = min_on_sphere(q)
    assert val == pytest.approx(0.5, abs=1e-9)
    assert abs(abs(arg[0]) - abs(arg[1])) < 1e-4


def _cone_member(rng, n, d):
    """Weighted d-th powers of random unit directions, plus coefficient
    noise, plus c * sum x_i^d with c above the noise's bound on the sphere
    (|x^a| <= 1 there, and sum x_i^d >= n^(1 - d/2))."""
    basis = basis_for(n, d)
    dirs = rng.normal(size=(int(rng.integers(1, n + 2)), n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    multinomial = np.array([math.factorial(d) / math.prod(map(math.factorial, a))
                            for a in basis])
    powers = rng.uniform(0.2, 1.0, size=len(dirs)) @ (
        monomial_matrix(dirs, basis.exponents) * multinomial)
    noise = rng.normal(scale=0.01 / len(basis), size=len(basis))
    c = rng.uniform(0.05, 0.5) + n ** (d / 2 - 1) * float(np.sum(np.abs(noise)))
    return (HomogeneousPoly(n, d, powers + noise)
            + HomogeneousPoly.sum_of_powers(n, d) * c)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_min_on_sphere_beats_grid_and_bfgs(n, d):
    # five cone members per (n, d): the minimum is no larger than the full
    # grid's at the same budget, nor than BFGS's on g(x) / |x|^d from the
    # grid's argmin, and it is attained at a unit argmin
    points, _ = sphere_grid(n, resolution_for_budget(n, {2: 1024, 3: 2048}.get(n, 4096)))
    for seed in range(5):
        g = _cone_member(philox(1000 * n + 10 * d + seed), n, d)
        top = float(np.max(np.abs(g.coeff_vector)))
        val, arg = min_on_sphere(g)
        grid = g(points)

        def ratio(x):       # g(x) / |x|^d and its gradient
            s2 = float(x @ x)
            return g(x) / s2 ** (d / 2), (g.gradient(x) - d * g(x) * x / s2) / s2 ** (d / 2)

        res = minimize(ratio, points[int(np.argmin(grid))], jac=True, method="BFGS",
                       options={"maxiter": 60, "gtol": 1e-13})
        assert val <= float(np.min(grid))
        assert val <= res.fun + 1e-12 * top
        assert abs(np.linalg.norm(arg) - 1.0) <= 1e-12
        assert g(arg) == pytest.approx(val, abs=1e-12)


def _rotation(n, angle):
    """Rotation by `angle` in the plane of the last two coordinates."""
    R = np.eye(n)
    c, s = math.cos(angle), math.sin(angle)
    R[-2:, -2:] = [[c, -s], [s, c]]
    return R


@pytest.mark.parametrize("n", [2, 3])
def test_min_on_sphere_off_the_grid(n):
    # the quartic star x^2 y^2 + 0.1 (x^4 + y^4), and its 3-D analogue
    # sum_(i<j) x_i^2 x_j^2 + 0.1 sum x_i^4, rotated so that no grid node
    # sits on a minimizing axis; the grid alone reads 0.1000006 and 0.1001
    star = {2: {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1},
            3: {(2, 2, 0): 1.0, (2, 0, 2): 1.0, (0, 2, 2): 1.0,
                (4, 0, 0): 0.1, (0, 4, 0): 0.1, (0, 0, 4): 0.1}}[n]
    g = compose_linear(HomogeneousPoly(n, 4, star), _rotation(n, 0.3 * math.sqrt(2)))
    val, arg = min_on_sphere(g)
    assert val == pytest.approx(0.1, abs=1e-12)
    assert g(arg) == pytest.approx(val, abs=1e-12)


def test_cone_closure_under_convex_combination():
    rng = philox(23)
    g = HomogeneousPoly.sum_of_powers(2, 4)
    h = HomogeneousPoly(2, 4, {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1})
    for _ in range(10):
        lam = float(rng.uniform(0.05, 0.95))
        mix = g * lam + h * (1.0 - lam)
        val, _ = min_on_sphere(mix)
        assert val > 0.0


def test_check_in_cone_rejects_sphere_zero():
    # x^2 y^2 vanishes on both axes: not strictly positive on the sphere
    bad = HomogeneousPoly(2, 4, {(2, 2): 1.0})
    with pytest.raises(NotInConeError):
        check_in_cone(bad)
    assert positivity_floor(bad) == pytest.approx(1e-8, rel=1e-12)


def test_monomial_matrix_matches_direct():
    rng = philox(24)
    pts = rng.normal(size=(7, 3))
    exps = basis_for(3, 4).exponents
    M = monomial_matrix(pts, exps)
    for i in range(7):
        for k, alpha in enumerate(basis_for(3, 4)):
            direct = np.prod(pts[i] ** np.array(alpha))
            assert M[i, k] == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_compose_linear_matches_pointwise():
    rng = philox(25)
    for d in (2, 4):
        g = HomogeneousPoly(2, d, rng.normal(size=len(basis_for(2, d))))
        M = rng.normal(size=(2, 2)) + np.eye(2)
        h = compose_linear(g, M)
        for _ in range(5):
            x = rng.normal(size=2)
            assert h(x) == pytest.approx(g(M @ x), rel=1e-10, abs=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
       degree=st.integers(0, 8))
def test_power_matrix_matches_pointwise(seed, n, degree):
    rng = philox(seed)
    M = rng.normal(size=(n, n))
    x = rng.normal(size=(6, n))
    basis = basis_for(n, degree)
    direct = basis.monomials(x @ M.T)                     # (M x)^a
    mapped = basis.monomials(x) @ power_matrix(M, degree).T
    scale = max(1.0, float(np.max(np.abs(direct))))
    assert np.max(np.abs(direct - mapped)) <= 1e-12 * scale


def test_power_matrix_identities():
    rng = philox(26)
    A, B = rng.normal(size=(2, 3, 3))
    for d in (2, 4):
        assert np.array_equal(power_matrix(np.eye(3), d), np.eye(len(basis_for(3, d))))
        # (A B x)^a = sum P_A[a, c] (B x)^c: P(AB) = P(A) P(B)
        assert np.allclose(power_matrix(A @ B, d),
                           power_matrix(A, d) @ power_matrix(B, d),
                           rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        power_matrix(np.ones((2, 3)), 2)
    with pytest.raises(ValueError):
        compose_linear(HomogeneousPoly.sum_of_powers(2, 2), np.eye(3))


def test_poly_arithmetic():
    g = HomogeneousPoly.sum_of_powers(2, 2)
    h = g * 2.0
    assert np.allclose(h.coeff_vector, 2.0 * g.coeff_vector)
    s = g + h
    assert s(np.array([1.0, 1.0])) == pytest.approx(6.0, abs=1e-12)
    with pytest.raises(ValueError):
        g + HomogeneousPoly.sum_of_powers(2, 4)


def test_coeff_vector_read_only():
    g = HomogeneousPoly.sum_of_powers(2, 2)
    with pytest.raises(ValueError):
        g.coeff_vector[0] = 5.0
