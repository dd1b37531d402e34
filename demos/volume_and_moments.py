"""Volumes of polynomial sublevel sets without ever meshing them.

The whole library rests on one identity: for a homogeneous g of even
degree d that is positive away from the origin,

    vol({x : g <= y}) = y^(n/d) / Gamma(1 + n/d) * Integral exp(-g) dx.

The right side is a single smooth integral, computed here by a radial
reduction to the sphere.  This script checks it against closed forms and
a Monte-Carlo estimate, then shows the scaling law in y.
"""

import math

import numpy as np

from homfit import HomogeneousPoly, integral_exp, moment, volume_sublevel
from homfit.verify import mc_volume

circle = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
quartic = HomogeneousPoly(2, 4, {(4, 0): 1.0, (0, 4): 1.0})

print("== closed forms ==")
print(f"unit disk        vol = {volume_sublevel(circle, 1.0):.12f}   (pi = {math.pi:.12f})")
v4 = volume_sublevel(quartic, 1.0)
ref = math.gamma(0.25) ** 2 / (2.0 * math.sqrt(math.pi))
print(f"quartic ball     vol = {v4:.12f}   (Gamma(1/4)^2/(2*sqrt(pi)) = {ref:.12f})")

print()
print("== Monte-Carlo agreement ==")
est = mc_volume(quartic, budget=1_000_000, seed=17)
z = abs(est.estimate - v4) / est.std_error
print(f"rejection sampling: {est.estimate:.6f} +- {est.std_error:.6f}  (z = {z:.2f})")

print()
print("== scaling in the level y ==")
print("vol({g <= y}) should scale as y^(n/d); here n/d = 1/2")
for y in (0.25, 1.0, 4.0):
    ratio = volume_sublevel(quartic, y) / v4
    print(f"  y = {y:<5} vol ratio = {ratio:.9f}   y^0.5 = {y ** 0.5:.9f}")

print()
print("== moments of exp(-g) ==")
print("these drive the solver: its gradient is the degree-d moment vector")
print(f"I_0      = {integral_exp(quartic):.9f}")
print(f"I_(2,0)  = {moment(quartic, (2, 0)):.9f}")
print(f"I_(2,2)  = {moment(quartic, (2, 2)):.9f}")
print(f"I_(1,0)  = {moment(quartic, (1, 0))}  (odd integrand: exactly zero)")
