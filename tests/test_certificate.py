"""Certificates: solver multipliers as atoms, Caratheodory reduction,
moment identities."""

import math

import numpy as np
import pytest

from conftest import SQ2, quartic_star
from homfit import (CertificateError, ConstraintSet, HomogeneousPoly,
                    ReductionError, SolveReport, basis_for, build_certificate,
                    caratheodory_reduce, contact_moment_matrix,
                    dball_contact_check, gaussian_moment_matrix,
                    solve_min_volume)
from homfit.certificate import axis_moment_1d
from homfit.integrals import moment_vector

PI = math.pi
INT_T2_EXP_T4 = 0.6127083512325889   # [DERIVED] see test_integrals


def test_disk8_unreduced_and_reduced(disk8):
    rep = solve_min_volume(disk8, 2)
    raw = build_certificate(rep, disk8, reduce_atoms=False)
    assert raw.reduced is False
    assert raw.moment_residual <= 1e-6 * raw.meta["y0"]
    assert raw.level_residual <= 1e-6
    assert abs(raw.mass - raw.mass_expected) <= 1e-6 * raw.meta["y0"]

    red = build_certificate(rep, disk8, reduce_atoms=True)
    assert red.reduced is True
    assert red.atom_bound == 3                   # C(3, 2)
    assert len(red.weights) <= 3
    assert red.moment_residual <= 1e-6 * red.meta["y0"]
    assert abs(red.mass - red.mass_expected) <= 1e-6 * red.meta["y0"]
    # reduction preserves the moment matrix, not just the sup norm
    M_raw = contact_moment_matrix(raw.contact_points, raw.weights, 2, 1)
    M_red = contact_moment_matrix(red.contact_points, red.weights, 2, 1)
    assert np.max(np.abs(M_raw - M_red)) <= 1e-8 * raw.meta["y0"]


def test_four_point_disk_weights():
    cs = ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1]])
    rep = solve_min_volume(cs, 2)
    cert = build_certificate(rep, cs, reduce_atoms=False)
    assert len(cert.weights) == 4
    for w in cert.weights:
        assert w == pytest.approx(PI / 4.0, rel=1e-6)
    assert cert.contact_points.shape == (4, 2) and cert.weights.shape == (4,)
    d = cert.as_dict()
    assert d["atom_bound"] == 3 and len(d["weights"]) == 4


def test_weights_are_the_solver_multipliers():
    # no second fit: the unreduced atoms carry the report's multipliers
    pts = np.array([[1.0, 0.2], [-0.3, 1.1], [0.8, -0.9], [-1.2, -0.4],
                    [0.1, 1.3], [1.4, 0.5]])
    cs = ConstraintSet(np.concatenate([pts, -pts]))
    rep = solve_min_volume(cs, 4)
    cert = build_certificate(rep, cs, reduce_atoms=False)
    idx = np.flatnonzero(rep.multipliers)
    assert np.array_equal(cert.weights, rep.multipliers[idx])
    assert np.array_equal(cert.contact_points, cs.points[idx])
    assert cert.moment_residual <= 1e-6 * cert.meta["y0"]


@pytest.mark.parametrize("n,d", [(2, 4), (2, 6), (3, 4), (3, 6)])
def test_gaussian_moment_matrix_matches_loop(n, d):
    rng = np.random.Generator(np.random.Philox(29))
    g = HomogeneousPoly(n, d, HomogeneousPoly.sum_of_powers(n, d).coeff_vector
                        + 0.05 * rng.uniform(size=len(basis_for(n, d))))
    mv = moment_vector(g)
    half, full = basis_for(n, d // 2), basis_for(n, d)
    loop = np.array([[mv.slice_d[full.index_of(tuple(x + y for x, y in zip(a, b)))]
                      for b in half] for a in half])
    assert np.array_equal(gaussian_moment_matrix(g), loop)


def _reduce_by_rescan(points, weights, n, degree):
    """The reduction's pivot loop as first written: the moment columns are
    rebuilt for every pivot and every live atom is rescanned."""
    weights = np.asarray(weights, dtype=float).copy()
    basis = basis_for(n, degree)
    bound = len(basis)
    live = [i for i in range(len(weights)) if weights[i] > 0.0]
    while len(live) > bound:
        work = live[:bound + 1]
        _, _, vt = np.linalg.svd(basis.monomials(points[work]).T)
        w = weights[np.array(work)]
        candidates = []
        for sign in (+1.0, -1.0):
            dz = sign * vt[-1]
            pos = dz > 1e-14
            if np.any(pos):
                candidates.append((float(np.min(w[pos] / dz[pos])), sign))
        tstar, sign = min(candidates, key=lambda c: (c[0], -c[1]))
        w_new = w - tstar * sign * vt[-1]
        w_new[np.abs(w_new) <= 1e-15 * max(float(np.max(w)), 1.0)] = 0.0
        w_new = np.clip(w_new, 0.0, None)
        for pos_i, i in enumerate(work):
            weights[i] = w_new[pos_i]
        live = [i for i in live if weights[i] > 0.0]
    return points[live], weights[live]


CASES = [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)]


@pytest.mark.parametrize("n,d", CASES)
def test_caratheodory_reduce_matches_rescan(n, d):
    # up to 2*bound atoms the reduction is the one-atom-at-a-time pivot loop
    bound = len(basis_for(n, d))
    rng = np.random.Generator(np.random.Philox(100 * n + d))
    for size in range(1, 2 * bound + 1):
        for _ in range(2):
            pts = rng.normal(size=(size, n))
            w = rng.uniform(0.5, 1.5, size=size)
            w[rng.uniform(size=size) < 0.1] = 0.0
            ref_pts, ref_w = _reduce_by_rescan(pts, w, n, d)
            out_pts, out_w = caratheodory_reduce(pts, w, n, d)
            assert np.array_equal(out_pts, ref_pts)
            assert np.array_equal(out_w, ref_w)


def _normal_atoms(n, d):
    rng = np.random.Generator(np.random.Philox(100 * n + d))
    return rng.normal(size=(2000, n)), rng.uniform(0.5, 1.5, size=2000)


def _repeated_atoms(n, d):
    # 40 distinct points, each listed 50 times: blocks of identical columns
    rng = np.random.Generator(np.random.Philox(7 + 100 * n + d))
    return (np.repeat(rng.normal(size=(40, n)), 50, axis=0),
            rng.uniform(0.5, 1.5, size=2000))


def _anisotropic_atoms(n, d):
    rng = np.random.Generator(np.random.Philox(11 + d))
    return (rng.normal(size=(2000, n)) * np.array([1.0, 30.0, 0.01]),
            rng.uniform(0.5, 1.5, size=2000))


LARGE_CASES = ([(_normal_atoms, n, d) for n, d in CASES]
               + [(_repeated_atoms, 2, 4), (_repeated_atoms, 3, 6),
                  (_anisotropic_atoms, 3, 4), (_anisotropic_atoms, 3, 6)])


@pytest.mark.parametrize("make,n,d", LARGE_CASES,
                         ids=[f"{m.__name__[1:-6]}-{n}-{d}" for m, n, d in LARGE_CASES])
def test_caratheodory_reduce_large_inputs(make, n, d):
    pts, w = make(n, d)
    basis = basis_for(n, d)
    # the exact moments as target: the residual guard must accept the
    # round-off of a correct reduction (moments up to ~3e4 at d = 6)
    target = basis.monomials(pts).T @ w
    out_pts, out_w = caratheodory_reduce(pts, w, n, d, target)
    assert len(out_w) <= len(basis)
    assert np.all(out_w > 0.0)
    rows = {tuple(p) for p in pts}
    assert all(tuple(p) in rows for p in out_pts)
    gap = np.max(np.abs(basis.monomials(out_pts).T @ out_w - target))
    assert gap <= 1e-13 * np.max(np.abs(target))
    again_pts, again_w = caratheodory_reduce(pts, w, n, d, target)
    assert np.array_equal(again_pts, out_pts) and np.array_equal(again_w, out_w)


@pytest.mark.parametrize("n,d", [(2, 4), (3, 6)])
def test_reduction_pivots_grow_logarithmically(n, d, monkeypatch):
    # one SVD per pivot; one pivot per atom would be N - bound of them
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    pts, w = _normal_atoms(n, d)
    bound = len(basis_for(n, d))
    caratheodory_reduce(pts, w, n, d)
    assert 0 < len(calls) <= bound * (math.ceil(math.log2(len(w) / bound)) + 1)


def test_star_d4_certificate():
    # criterion 7's star: all 2000 points are contacts, reduced to C(5, 4)
    _, pts = quartic_star()
    cs = ConstraintSet(pts)
    rep = solve_min_volume(cs, 4)
    assert np.count_nonzero(rep.multipliers) == 2000
    cert = build_certificate(rep, cs)
    y0 = cert.meta["y0"]
    assert cert.reduced and len(cert.weights) <= 5
    assert cert.moment_residual <= 1e-10 * y0
    assert abs(cert.mass - cert.mass_expected) <= 1e-6 * y0
    assert cert.level_residual <= 1e-6


def test_caratheodory_reduce_direct():
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    w = np.full(4, PI / 4.0)
    target = basis_for(2, 2).monomials(pts).T @ w
    out_pts, out_w = caratheodory_reduce(pts, w, 2, 2, target)
    assert len(out_w) <= 3
    after = basis_for(2, 2).monomials(out_pts).T @ out_w
    assert np.max(np.abs(after - target)) <= 1e-10
    assert np.sum(out_w) == pytest.approx(PI, rel=1e-12)

    # already within the bound: untouched
    same_pts, same_w = caratheodory_reduce(out_pts, out_w, 2, 2)
    assert np.array_equal(same_pts, out_pts)
    assert np.array_equal(same_w, out_w)

    one_pt, one_w = caratheodory_reduce([[2.0, 1.0]], [0.5], 2, 2)
    assert one_pt.shape == (1, 2) and one_w[0] == 0.5

    with pytest.raises(ValueError):
        caratheodory_reduce(pts, [-1.0, 1.0, 1.0, 1.0], 2, 2)
    with pytest.raises(ValueError):
        caratheodory_reduce(pts, [1.0, 1.0], 2, 2)


def test_reduce_is_deterministic():
    rng = np.random.Generator(np.random.Philox(5))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=9)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = rng.uniform(0.5, 1.5, size=9)
    a_pts, a_w = caratheodory_reduce(pts, w, 2, 2)
    b_pts, b_w = caratheodory_reduce(pts, w, 2, 2)
    assert np.array_equal(a_pts, b_pts) and np.array_equal(a_w, b_w)
    assert len(a_w) <= 3


def test_moment_matrix_identity_disk(disk8):
    rep = solve_min_volume(disk8, 2)
    cert = build_certificate(rep, disk8, reduce_atoms=False)
    M_atoms = contact_moment_matrix(cert.contact_points, cert.weights, 2, 1)
    M_gauss = gaussian_moment_matrix(rep.g_star)
    assert M_atoms.shape == (2, 2)
    assert np.max(np.abs(M_atoms - M_gauss)) <= 1e-6 * cert.meta["y0"]


def test_moment_matrix_identity_quartic(dball8):
    rep = solve_min_volume(dball8, 4)
    cert = build_certificate(rep, dball8, reduce_atoms=False)
    M_atoms = contact_moment_matrix(cert.contact_points, cert.weights, 2, 2)
    M_gauss = gaussian_moment_matrix(rep.g_star)
    assert M_atoms.shape == (3, 3)
    assert np.max(np.abs(M_atoms - M_gauss)) <= 1e-6 * cert.meta["y0"]
    with pytest.raises(ValueError):
        gaussian_moment_matrix(HomogeneousPoly(1, 3, {(3,): 1.0}))


def test_axis_moment_1d_values():
    assert axis_moment_1d(0, 2) == pytest.approx(math.sqrt(PI), rel=1e-14)
    assert axis_moment_1d(1, 2) == 0.0
    assert axis_moment_1d(3, 4) == 0.0
    assert axis_moment_1d(2, 4) == pytest.approx(INT_T2_EXP_T4, rel=1e-14)
    assert axis_moment_1d(0, 4) == pytest.approx(2.0 * math.gamma(0.25) / 4.0, rel=1e-14)


def test_dball_contact_check(dball8):
    rep = dball_contact_check(dball8, 4)
    assert rep.g_deviation <= 1e-3
    assert rep.even_residual <= 1e-5
    assert rep.odd_residual <= 1e-9
    assert rep.certificate.degree == 4
    # one residual per basis member, in basis order
    odd = np.array([any(a % 2 for a in alpha) for alpha in basis_for(2, 4)])
    assert rep.residuals.shape == (len(basis_for(2, 4)),)
    assert rep.odd_residual == rep.residuals[odd].max()
    assert rep.even_residual == rep.residuals[~odd].max()


def test_dball_check_rejects_non_ball():
    cs = ConstraintSet([[2, 0], [0, 1], [-2, 0], [0, -1]])
    with pytest.raises(CertificateError):
        dball_contact_check(cs, 2)


def test_empty_report_rejected(disk8):
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    fake = SolveReport(g_star=g, objective=PI, volume=PI, iterations=0,
                       stages=0, t_final=1.0, kkt_residual=0.0,
                       multipliers=np.zeros(len(disk8)),
                       moment_data=moment_vector(g))
    with pytest.raises(CertificateError):
        build_certificate(fake, disk8)
