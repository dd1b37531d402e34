"""Angular grids: weight normalization, unit norm, budget mapping,
exactness of the product rule, and the antipodal half rule."""

import math

import numpy as np
import pytest

from conftest import philox
from homfit.polynomials import (HomogeneousPoly, basis_for, compose_linear,
                                monomial_matrix)
from homfit.spheres import (_gauss, grid_size, half_grid_factors,
                            half_sphere_grid, resolution_for_budget,
                            sphere_grid)
from homfit.verify import sphere_surface_area


def test_surface_areas():
    assert sphere_surface_area(2) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert sphere_surface_area(3) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert sphere_surface_area(4) == pytest.approx(2.0 * np.pi ** 2, rel=1e-15)


def test_weights_sum_to_surface_area():
    for n, res in [(1, 1), (2, 128), (3, 500), (4, 16)]:
        points, weights = sphere_grid(n, res)
        assert weights.sum() == pytest.approx(sphere_surface_area(n) if n > 1 else 2.0,
                                              rel=1e-12)
        norms = np.linalg.norm(points, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_point_counts():
    # r circle angles times r // 2 Gauss nodes per further dimension
    for n, res, count in [(2, 256, 256), (3, 64, 64 * 32), (3, 11, 11 * 5),
                          (4, 6, 6 * 3 * 3), (5, 8, 8 * 4 ** 3)]:
        points, _ = sphere_grid(n, res)
        assert points.shape == (count, n)
        assert grid_size(n, res) == count


def test_resolution_for_budget():
    assert resolution_for_budget(2, 64) == 64
    assert resolution_for_budget(2, 1024) == 1024
    assert resolution_for_budget(3, 2048) == 64       # 64 * 32 = 2048
    assert resolution_for_budget(3, 64) == 12
    assert resolution_for_budget(4, 64) == 6
    for n in (3, 4, 5):
        for budget in (64, 1024, 4096):
            r = resolution_for_budget(n, budget)
            assert r >= 4
            assert budget / 2 <= grid_size(n, r) <= 2 * budget
    # even, so that the half rule applies at every ladder level
    for n in range(2, 7):
        for budget in (1, 16, 64, 100, 999, 4096, 1 << 20):
            r = resolution_for_budget(n, budget)
            assert r >= 4 and r % 2 == 0
    with pytest.raises(ValueError):
        resolution_for_budget(3, 0)


@pytest.mark.parametrize("r", [4, 6, 10, 96, 250, 768])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_gauss_rule_matches_scipy(k, r):
    # reference: scipy's Gauss-Jacobi rule for (1 - t^2)^((k-3)/2), r // 2
    # nodes.  Its extreme weights, ~1e-7 of the largest at r = 768, carry
    # relative errors near 4e-10, so weights are compared to the largest.
    from scipy.special import roots_jacobi
    a = (k - 3) / 2.0
    t, w = _gauss(k, r)
    ref_t, ref_w = roots_jacobi(r // 2, a, a)
    assert np.max(np.abs(t - ref_t)) <= 1e-15
    assert np.max(np.abs(w - ref_w)) <= 1e-11 * np.max(ref_w)
    assert w.sum() == pytest.approx(ref_w.sum(), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_product_rule_exact_on_monomials(n):
    # Integral_{S^(n-1)} u^a dS = 2 prod Gamma((a_i+1)/2) / Gamma((|a|+n)/2)
    # when every a_i is even, 0 otherwise; r = 16 is exact through degree 15
    res = 16
    points, weights = sphere_grid(n, res)
    for k in range(res - 3):
        exps = basis_for(n, k).exponents
        for start in range(0, len(exps), 256):
            chunk = exps[start:start + 256]
            got = weights @ monomial_matrix(points, chunk)
            for a, value in zip(chunk, got):
                if np.any(a % 2):
                    assert abs(value) <= 1e-13
                    continue
                exact = (2.0 * math.prod(math.gamma((ai + 1) / 2.0) for ai in a)
                         / math.gamma((k + n) / 2.0))
                assert abs(value - exact) <= 1e-13 * exact


def test_grid_arrays_read_only():
    points, weights = sphere_grid(2, 64)
    with pytest.raises(ValueError):
        points[0, 0] = 7.0
    with pytest.raises(ValueError):
        weights[0] = 7.0


def test_circle_grid_integrates_trig_exactly():
    # uniform circle rule is exact for low-order trig polynomials
    points, weights = sphere_grid(2, 64)
    cos2 = points[:, 0] ** 2
    assert float(weights @ cos2) == pytest.approx(np.pi, rel=1e-13)
    assert float(weights @ (points[:, 0] * points[:, 1])) == pytest.approx(0.0, abs=1e-13)


def test_unsupported_dimension():
    # every n >= 1 has a grid; there is no sphere in R^0
    for n in (0, -1):
        with pytest.raises(ValueError):
            sphere_grid(n, 64)


HALF_CASES = [(2, 16), (3, 12), (4, 10), (5, 8)]


@pytest.mark.parametrize("n, res", HALF_CASES)
def test_grid_closed_under_antipodes(n, res):
    points, weights = sphere_grid(n, res)
    gap = np.linalg.norm(points[:, None, :] + points[None, :, :], axis=2)
    partner = np.argmin(gap, axis=1)
    assert np.max(gap[np.arange(len(points)), partner]) < 1e-14
    assert sorted(partner) == list(range(len(points)))
    assert np.allclose(weights[partner], weights, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n, res", HALF_CASES)
def test_half_rule_matches_full_rule_on_even_integrands(n, res):
    # u^a g(u)^(-p) with |a| even and g(-u) = g(u) in the cone
    rng = philox(400 + n)
    full_pts, full_w = sphere_grid(n, res)
    half_pts, half_w = half_sphere_grid(n, res)
    assert half_pts.shape == (grid_size(n, res) // 2, n)
    assert half_w.sum() == pytest.approx(sphere_surface_area(n), rel=1e-13)
    for d in (2, 4):
        M = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        g = compose_linear(HomogeneousPoly.sum_of_powers(n, d), M)
        for _ in range(6):
            k = 2 * int(rng.integers(0, 4))
            exps = basis_for(n, k).exponents
            a = exps[rng.integers(0, len(exps))][None, :]
            p = (n + k) / d
            full = full_w * monomial_matrix(full_pts, a)[:, 0] * g(full_pts) ** -p
            half = half_w * monomial_matrix(half_pts, a)[:, 0] * g(half_pts) ** -p
            assert abs(half.sum() - full.sum()) <= 1e-13 * np.abs(full).sum()


def test_half_rule_rejects_odd_resolution():
    for n in (1, 2, 3, 4, 5):
        for res in (5, 11, 17):
            with pytest.raises(ValueError):
                half_sphere_grid(n, res)
    points, weights = half_sphere_grid(1, 2)
    assert points.tolist() == [[1.0]] and weights.tolist() == [2.0]


@pytest.mark.parametrize("res", [6, 12, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_half_grid_is_gauss_times_lower_grid(n, res):
    t, tw, inner, inner_w = half_grid_factors(n, res)
    points, weights = half_sphere_grid(n, res)
    if n <= 2:
        assert t.tolist() == [0.0] and tw.tolist() == [1.0]
        assert np.array_equal(inner, points) and np.array_equal(inner_w, weights)
        return
    lower, lower_w = half_sphere_grid(n - 1, res)
    assert np.array_equal(inner, lower) and np.array_equal(inner_w, lower_w)
    assert t.shape == (res // 2,)
    # nodes (sqrt(1 - t_j^2) p_i, t_j), weights tw_j w_i, j the major index
    scaled = np.sqrt(1.0 - t * t)[:, None, None] * lower[None]
    product = np.column_stack([scaled.reshape(-1, n - 1),
                               np.repeat(t, len(lower))])
    assert np.array_equal(points, product)
    assert np.array_equal(weights, np.outer(tw, lower_w).ravel())
