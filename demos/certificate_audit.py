"""Auditing a solve with nothing but polynomial evaluations.

Optimality here is not a solver's word of honor.  At the optimum the
degree-d moments of exp(-g*) are reproduced by finitely many weighted
contact points on {g* = 1}:

    Integral x^a exp(-g*) dx  =  sum_j lambda_j x_j^a,   |a| = d,

with total mass (n/d) * Integral exp(-g*).  Anyone can recheck these
identities.  The solver fits its multipliers by nonnegative least
squares, whose answer is basic, so at most C(n+d-1, d) contacts carry
weight (Caratheodory) with no second pass.  This script prints the
certificate of an 8-point circle instance and of a quartic star with 2000
contact points, each against that bound, and closes with the d-ball case
where the right side is a product of 1-D integrals in closed form.
"""

import math

import numpy as np

from homfit import (ConstraintSet, HomogeneousPoly, basis_for,
                    build_certificate, solve_min_volume)
from homfit.verify import contact_moment_matrix, gaussian_moment_matrix

sq = 1.0 / np.sqrt(2.0)
octagon = ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1],
                         [sq, sq], [-sq, sq], [sq, -sq], [-sq, -sq]])

rep = solve_min_volume(octagon, 2)
print("== eight points on the unit circle, degree 2 ==")
cert = build_certificate(rep, octagon)
print(f"{len(octagon)} contacts, {len(cert.weights)} atoms "
      f"(bound C(n+d-1,d) = {cert.atom_bound}), "
      f"moment residual {cert.moment_residual:.2e}")
print(f"mass {cert.mass:.9f} vs expected (n/d)*I_0 = {cert.mass_expected:.9f}")

M_atoms = contact_moment_matrix(cert.contact_points, cert.weights, 2, 1)
M_cont = gaussian_moment_matrix(rep.g_star)
print("atomic vs continuous moment matrix, entrywise gap "
      f"{np.max(np.abs(M_atoms - M_cont)):.2e}")

print()
print("== 2000 contact points on a quartic star, degree 4 ==")
star = HomogeneousPoly(2, 4, {(2, 2): 1.0, (4, 0): 0.1, (0, 4): 0.1})
theta = 2.0 * np.pi * np.arange(2000) / 2000
units = np.column_stack([np.cos(theta), np.sin(theta)])
star_pts = ConstraintSet(units * (star(units) ** -0.25)[:, None])
rep = solve_min_volume(star_pts, 4)
cert = build_certificate(rep, star_pts)
print(f"{len(star_pts)} contacts, {len(cert.weights)} atoms "
      f"(bound {cert.atom_bound})")
print(f"moment residual / I_0 {cert.moment_residual / cert.meta['y0']:.2e}, "
      f"mass {cert.mass:.9f} vs expected {cert.mass_expected:.9f}")

print()
print("== the d-ball corollary, degree 4 ==")
c = 2.0 ** -0.25
ball_pts = ConstraintSet([[1, 0], [-1, 0], [0, 1], [0, -1],
                          [c, c], [c, -c], [-c, c], [-c, -c]])
rep = solve_min_volume(ball_pts, 4)
ball = HomogeneousPoly.sum_of_powers(2, 4)
print("optimum is x^4 + y^4 itself (coefficient deviation "
      f"{np.max(np.abs(rep.g_star.coeff_vector - ball.coeff_vector)):.2e})")
cert = build_certificate(rep, ball_pts)
# Integral_R t^k exp(-t^4) dt: 2 Gamma((k+1)/4) / 4 for even k, 0 for odd
axis = np.array([0.0 if k % 2 else math.gamma((k + 1) / 4) / 2 for k in range(5)])
basis = basis_for(2, 4)
gaps = np.abs(basis.monomials(cert.contact_points).T @ cert.weights
              - np.prod(axis[basis.exponents], axis=1))
odd = np.any(basis.exponents % 2 == 1, axis=1)
print("atom power sums vs products of 1-D integrals over exp(-t^4):")
print(f"  even multi-indices: worst gap {gaps[~odd].max():.2e}")
print(f"  odd multi-indices:  worst gap {gaps[odd].max():.2e} (exact zeros)")
