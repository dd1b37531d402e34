"""Certificates: solver multipliers as atoms, at most C(n+d-1, d) of them
(the solver's nonnegative least-squares fit), moment identities."""

import math

import numpy as np
import pytest
from scipy.optimize import nnls

from conftest import SQ2, axis_moment_1d, dball_contact_check, quartic_star
from homfit import (CertificateError, ConstraintSet, HomogeneousPoly,
                    SolveReport, basis_for, build_certificate,
                    solve_min_volume)
from homfit.integrals import moment_vector
from homfit.solver import _nnls
from homfit.verify import contact_moment_matrix, gaussian_moment_matrix

PI = math.pi
INT_T2_EXP_T4 = 0.6127083512325889   # [DERIVED] see test_integrals


def test_disk8_certificate(disk8):
    # one certificate, from the solver's own atoms: at most C(3, 2) of
    # the eight contacts, with the moment-matrix identity to quadrature
    rep = solve_min_volume(disk8, 2)
    cert = build_certificate(rep, disk8)
    y0 = cert.meta["y0"]
    assert cert.atom_bound == 3
    assert 0 < len(cert.weights) <= 3
    assert cert.moment_residual <= 1e-6 * y0
    assert cert.level_residual <= 1e-6
    assert abs(cert.mass - cert.mass_expected) <= 1e-6 * y0
    M_atoms = contact_moment_matrix(cert.contact_points, cert.weights, 2, 1)
    M_gauss = gaussian_moment_matrix(rep.g_star)
    assert np.max(np.abs(M_atoms - M_gauss)) <= 1e-8 * y0


def test_four_point_disk_weights():
    # the two diameters give twin moment columns; one of each pair carries
    # all of the weight, and the total is (n/d) * pi = pi
    cs = ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1]])
    rep = solve_min_volume(cs, 2)
    cert = build_certificate(rep, cs)
    k = len(cert.weights)
    assert 0 < k <= 3 and np.all(cert.weights > 0.0)
    assert cert.mass == pytest.approx(PI, rel=1e-6)
    assert cert.contact_points.shape == (k, 2) and cert.weights.shape == (k,)
    d = cert.as_dict()
    assert d["atom_bound"] == 3 and len(d["weights"]) == k
    assert "reduced" not in d


def test_weights_are_the_solver_multipliers():
    # no second fit: the atoms carry the report's multipliers
    pts = np.array([[1.0, 0.2], [-0.3, 1.1], [0.8, -0.9], [-1.2, -0.4],
                    [0.1, 1.3], [1.4, 0.5]])
    cs = ConstraintSet(np.concatenate([pts, -pts]))
    rep = solve_min_volume(cs, 4)
    cert = build_certificate(rep, cs)
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


CASES = [(2, 2), (2, 4), (2, 6), (3, 2), (3, 4), (3, 6)]


def _nnls_vs_scipy(A, b):
    """_nnls(A, b), after checking it against scipy's NNLS: nonnegative,
    at most rank(A) positive weights, residual within 1e-12 of scipy's
    relative to |b|, and the same answer on a second call."""
    x = _nnls(A, b)
    assert np.all(x >= 0.0)
    assert np.count_nonzero(x) <= np.linalg.matrix_rank(A)
    ref, ref_norm = nnls(A, b)
    gap = np.linalg.norm(A @ x - b) - ref_norm
    assert gap <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(_nnls(A, b), x)
    return x


@pytest.mark.parametrize("n,d", CASES)
def test_nnls_matches_scipy(n, d):
    # up to 2 * C(n+d-1, d) atoms, with twin columns, against a target in
    # their cone and against a random one
    basis = basis_for(n, d)
    rng = np.random.Generator(np.random.Philox(100 * n + d))
    for size in range(1, 2 * len(basis) + 1):
        pts = rng.normal(size=(size, n))
        twins = pts[rng.integers(0, size, size=size // 2)]
        A = basis.monomials(np.concatenate([pts, -twins, twins])).T
        w = rng.uniform(0.5, 1.5, size=A.shape[1])
        w[rng.uniform(size=w.size) < 0.5] = 0.0
        _nnls_vs_scipy(A, A @ w)
        _nnls_vs_scipy(A, rng.normal(size=len(basis)))


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
def test_nnls_large_inputs(make, n, d):
    # the moments of 2000 weighted atoms, refit on at most C(n+d-1, d) of
    # them (moments up to ~3e4 at d = 6)
    pts, w = make(n, d)
    basis = basis_for(n, d)
    A = basis.monomials(pts).T
    target = A @ w
    x = _nnls_vs_scipy(A, target)
    assert np.count_nonzero(x) <= len(basis)
    assert np.max(np.abs(A @ x - target)) <= 1e-12 * np.max(np.abs(target))


def test_star_d4_certificate():
    # criterion 7's star: all 2000 points touch, at most C(5, 4) carry weight
    _, pts = quartic_star()
    cs = ConstraintSet(pts)
    rep = solve_min_volume(cs, 4)
    assert 0 < np.count_nonzero(rep.multipliers) <= 5
    cert = build_certificate(rep, cs)
    y0 = cert.meta["y0"]
    assert len(cert.weights) <= cert.atom_bound == 5
    assert cert.moment_residual <= 1e-10 * y0
    assert abs(cert.mass - cert.mass_expected) <= 1e-6 * y0
    assert cert.level_residual <= 1e-6


def test_moment_matrix_identity_disk(disk8):
    rep = solve_min_volume(disk8, 2)
    cert = build_certificate(rep, disk8)
    M_atoms = contact_moment_matrix(cert.contact_points, cert.weights, 2, 1)
    M_gauss = gaussian_moment_matrix(rep.g_star)
    assert M_atoms.shape == (2, 2)
    assert np.max(np.abs(M_atoms - M_gauss)) <= 1e-6 * cert.meta["y0"]


def test_moment_matrix_identity_quartic(dball8):
    rep = solve_min_volume(dball8, 4)
    cert = build_certificate(rep, dball8)
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
