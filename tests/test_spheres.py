"""Angular grids: weight normalization, unit norm, budget mapping,
exactness of the product rule."""

import math

import numpy as np
import pytest

from homfit.polynomials import basis_for, monomial_matrix
from homfit.spheres import (grid_size, resolution_for_budget, sphere_grid,
                            sphere_surface_area)


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
    for n in (3, 4, 5):
        for budget in (64, 1024, 4096):
            r = resolution_for_budget(n, budget)
            assert r >= 4
            assert budget / 2 <= grid_size(n, r) <= 2 * budget
    with pytest.raises(ValueError):
        resolution_for_budget(3, 0)


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
