"""Acceptance gate: ten criteria, one pass/fail line each.

Every criterion prints a single line (visible under -s or on failure)
and asserts at the stated tolerance.  Expected numbers come from closed
forms, 1-D quadrature reductions, or the independent oracles; nothing is
copied from the solver under test.
"""

import inspect
import math
import time

import numpy as np
import pytest

from conftest import (dball_contact_check, philox, quartic_star,
                      symmetric_cloud)
from homfit import (ConstraintSet, HomogeneousPoly, basis_for,
                    build_certificate, initial_guess, integral_exp,
                    moment_vector, mvee_symmetric, solve_min_volume,
                    solve_min_volume_centered, solver, volume_sublevel)
from homfit.polynomials import check_in_cone
from homfit.verify import crosscheck_levelset_moment, mc_volume

PI = math.pi
VOL_QUARTIC = 3.708149354602744      # [DERIVED] Gamma(5/4)^2 * Gamma(3/2) / ... see test_integrals
G_CIRCLE = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
G_QUARTIC = HomogeneousPoly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})


def _report(num, name, ok, detail):
    mark = "✅" if ok else "❌"
    print(f"criterion {num:02d} {mark} {name} ({detail})", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _random_in_cone(seed, d):
    """Weighted d-th powers of random unit directions plus an axis floor.

    Directions are normalized and weights bounded so the sphere values
    stay within a factor ~20 of each other; heavy eccentricity would
    inflate the higher moments and with them the finite-difference
    truncation error this set is used to measure."""
    rng = philox(seed)
    coeffs = {}
    for _ in range(3):
        a = rng.normal(size=2)
        a /= np.linalg.norm(a)
        w = rng.uniform(0.2, 1.0)
        for i in range(d + 1):
            key = (i, d - i)
            coeffs[key] = coeffs.get(key, 0.0) + w * math.comb(d, i) * a[0] ** i * a[1] ** (d - i)
    g = HomogeneousPoly(2, d, coeffs) * 0.5 + HomogeneousPoly.sum_of_powers(2, d)
    g = g * (1.0 / float(np.max(np.abs(g.coeff_vector))))
    check_in_cone(g)
    return g


RANDOM_SET = [_random_in_cone(seed, d)
              for seed, d in zip(range(10), [2, 4, 6, 2, 4, 6, 2, 4, 6, 2])]


def test_criterion_01_volume_formula():
    t0 = time.perf_counter()
    v_circle = volume_sublevel(G_CIRCLE, 1.0)
    v_quartic = volume_sublevel(G_QUARTIC, 1.0)
    mc = mc_volume(G_QUARTIC, budget=1_000_000, seed=17)
    elapsed = time.perf_counter() - t0
    ok = (abs(v_circle - PI) <= 1e-9
          and abs(v_quartic - VOL_QUARTIC) <= 1e-6
          and abs(mc.estimate - v_quartic) <= 3.0 * mc.std_error
          and elapsed < 5.0)
    _report(1, "volume formula", ok,
            f"|circle-pi|={abs(v_circle - PI):.2e}, "
            f"|quartic-ref|={abs(v_quartic - VOL_QUARTIC):.2e}, "
            f"mc z={abs(mc.estimate - v_quartic) / mc.std_error:.2f}, {elapsed:.1f}s")


def test_criterion_02_gradient_hessian():
    t0 = time.perf_counter()
    # central differences: eps balances the O(eps^2) truncation from the
    # third-order moments against quadrature noise divided by 2*eps
    eps = 3e-5
    worst = 0.0
    for g in RANDOM_SET:
        basis = basis_for(2, g.degree)
        mv = moment_vector(g, include_2d=True)
        grad_an = -mv.slice_d
        hess_an = mv.hessian_matrix()
        size = len(basis)
        grad_fd = np.empty(size)
        hess_fd = np.empty((size, size))
        for j in range(size):
            e = np.zeros(size)
            e[j] = eps
            gp = HomogeneousPoly(2, g.degree, g.coeff_vector + e)
            gm = HomogeneousPoly(2, g.degree, g.coeff_vector - e)
            grad_fd[j] = (integral_exp(gp) - integral_exp(gm)) / (2.0 * eps)
            yp = moment_vector(gp).slice_d
            ym = moment_vector(gm).slice_d
            hess_fd[:, j] = -(yp - ym) / (2.0 * eps)
        rel_g = np.max(np.abs(grad_an - grad_fd)) / np.max(np.abs(grad_an))
        rel_h = np.max(np.abs(hess_an - hess_fd)) / np.max(np.abs(hess_an))
        worst = max(worst, rel_g, rel_h)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(2, "gradient/Hessian vs finite differences", ok,
            f"worst rel gap {worst:.2e} over 10 instances, {elapsed:.1f}s")


def test_criterion_03_euler_identity():
    worst = 0.0
    for g in RANDOM_SET:
        mv = moment_vector(g)
        lhs = float(g.coeff_vector @ mv.slice_d)
        gap = abs(lhs - (2.0 / g.degree) * mv.y0) / mv.y0
        worst = max(worst, gap)
    ok = worst <= 1e-8
    _report(3, "Euler identity", ok, f"worst |gap|/y0 = {worst:.2e}")


def test_criterion_04_d2_oracle_equivalence():
    t0 = time.perf_counter()
    worst_vol = 0.0
    worst_q = 0.0
    cases = [(2, seed) for seed in range(100, 112)] + \
            [(3, seed) for seed in range(200, 208)]
    for n, seed in cases:
        pts = symmetric_cloud(seed, n=n, m=12)
        rep = solve_min_volume(ConstraintSet(pts), 2)
        ell = mvee_symmetric(pts)
        worst_vol = max(worst_vol, abs(rep.volume - ell.volume) / ell.volume)
        Q = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] += 1
                c = rep.g_star.coeff(tuple(alpha))
                Q[i, j] = Q[j, i] = c if i == j else 0.5 * c
        worst_q = max(worst_q, float(np.max(np.abs(Q - ell.Q))))
    elapsed = time.perf_counter() - t0
    ok = worst_vol <= 1e-4 and worst_q <= 1e-3 and elapsed < 120.0
    _report(4, "d=2 matches the ellipsoid oracle", ok,
            f"20 clouds, worst vol gap {worst_vol:.2e}, "
            f"worst Q gap {worst_q:.2e}, {elapsed:.1f}s")


def test_criterion_05_kkt_certificates(disk8, dball8):
    instances = [
        (disk8, 2),
        (ConstraintSet([[2, 0], [0, 1], [-2, 0], [0, -1]]), 2),
        (dball8, 4),
        (ConstraintSet(symmetric_cloud(30, n=2)), 2),
        (ConstraintSet(symmetric_cloud(31, n=2)), 2),
        (ConstraintSet(symmetric_cloud(32, n=2)), 2),
        (ConstraintSet(symmetric_cloud(33, n=2, m=10)), 4),
        (ConstraintSet(symmetric_cloud(34, n=3, m=10)), 2),
    ]
    worst = {"moment": 0.0, "mass": 0.0, "level": 0.0}
    atoms_ok = True
    for cs, d in instances:
        rep = solve_min_volume(cs, d)
        cert = build_certificate(rep, cs)
        y0 = cert.meta["y0"]
        worst["moment"] = max(worst["moment"], cert.moment_residual / y0)
        worst["mass"] = max(worst["mass"], abs(cert.mass - cert.mass_expected) / y0)
        worst["level"] = max(worst["level"], cert.level_residual)
        atoms_ok = atoms_ok and len(cert.weights) <= cert.atom_bound
    ok = (worst["moment"] <= 1e-6 and worst["mass"] <= 1e-6
          and worst["level"] <= 1e-6 and atoms_ok)
    _report(5, "KKT certificates on converged solves", ok,
            f"8 instances, worst moment {worst['moment']:.2e}/y0, "
            f"mass {worst['mass']:.2e}/y0, level {worst['level']:.2e}")


def test_criterion_06_uniqueness_probe(monkeypatch):
    rng = philox(11)
    worst = 0.0
    tol = inspect.signature(solve_min_volume).parameters["tol"].default
    for i in range(10):
        d = 4 if i % 3 == 2 else 2
        half = rng.normal(size=(10, 2)) @ (rng.normal(size=(2, 2)) + 1.5 * np.eye(2))
        cs = ConstraintSet(np.concatenate([half, -half]))
        rep_a = solve_min_volume(cs, d)
        with monkeypatch.context() as patch:    # a distinct, feasible start
            patch.setattr(solver, "initial_guess",
                          lambda points, degree: initial_guess(points, degree)
                          * (1.01 / 2.0))
            rep_b = solve_min_volume(cs, d)
        scale = max(1.0, float(np.max(np.abs(rep_a.g_star.coeff_vector))))
        gap = float(np.max(np.abs(rep_a.g_star.coeff_vector
                                  - rep_b.g_star.coeff_vector))) / scale
        worst = max(worst, gap)
    ok = worst <= 10.0 * tol
    _report(6, "uniqueness across distinct starts", ok,
            f"10 instances, worst coeff gap {worst:.2e} vs budget {10.0 * tol:.1e}")


def test_criterion_07_nonconvex_recovery():
    t0 = time.perf_counter()
    g0, pts = quartic_star()
    rep = solve_min_volume(ConstraintSet(pts), 4)
    obj0 = integral_exp(g0)
    coeff_gap = float(np.max(np.abs(rep.g_star.coeff_vector - g0.coeff_vector)))
    obj_gap = abs(rep.objective - obj0) / obj0
    elapsed = time.perf_counter() - t0
    ok = coeff_gap <= 1e-3 and obj_gap <= 1e-5 and elapsed < 120.0
    _report(7, "nonconvex quartic recovery", ok,
            f"coeff gap {coeff_gap:.2e}, objective gap {obj_gap:.2e}, {elapsed:.1f}s")


def test_criterion_08_center_mode():
    t0 = time.perf_counter()
    rng = philox(21)
    base = rng.normal(size=(10, 2)) + np.array([0.7, -0.3])
    shift = np.array([3.0, -2.0])
    rep0 = solve_min_volume_centered(ConstraintSet(base), 2)
    rep1 = solve_min_volume_centered(ConstraintSet(base + shift), 2)
    center_gap = float(np.linalg.norm(rep1.center - (rep0.center + shift)))
    vol_gap = abs(rep1.volume - rep0.volume) / rep0.volume

    never_worse = True
    for seed in range(40, 50):
        cloud = philox(seed).normal(size=(9, 2)) + np.array([1.0, 0.5])
        cs = ConstraintSet(cloud)
        v_center = solve_min_volume_centered(cs, 2).volume
        v_origin = solve_min_volume(cs, 2).volume
        never_worse = never_worse and v_center <= v_origin * (1.0 + 1e-9)
    elapsed = time.perf_counter() - t0
    ok = center_gap <= 1e-4 and vol_gap <= 1e-6 and never_worse
    _report(8, "center search: covariance and dominance", ok,
            f"center gap {center_gap:.2e}, vol gap {vol_gap:.2e}, "
            f"10 clouds dominated, {elapsed:.1f}s")


def test_criterion_09_dball_corollary(dball8):
    rep = dball_contact_check(dball8, 4)
    ok = rep.even_residual <= 1e-5 and rep.odd_residual <= 1e-9
    _report(9, "d-ball separable moment identity", ok,
            f"even residual {rep.even_residual:.2e}, odd {rep.odd_residual:.2e}")


def test_criterion_10_levelset_moment_crosscheck():
    worst_z = 0.0
    ok = True
    checked = 0
    for g in (G_CIRCLE, G_QUARTIC):
        alphas = [(0, 0)] + [tuple(a) for a in basis_for(2, g.degree)]
        for k, alpha in enumerate(alphas):
            res = crosscheck_levelset_moment(g, alpha, mc_budget=200_000,
                                             seed=300 + k)
            ok = ok and res.agree
            checked += 1
            if res.std_error > 0:
                worst_z = max(worst_z, abs(res.lhs - res.rhs) / res.std_error)
    _report(10, "level-set moment identity vs Monte-Carlo", ok,
            f"{checked} moments checked, worst z = {worst_z:.2f} of 4 allowed")
