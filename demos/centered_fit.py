"""Letting the center float.

The origin-centered program P0 is convex; adding a center a gives
{x : g(x - a) <= 1} and the full problem P.  P is smooth in (g, a)
together, so one log-barrier Newton path moves both; fixed-center solves
at the resulting center, the centroid and the origin then certify the
answer.  For an off-center cloud the gain is dramatic; for a symmetric
one the origin is already best.
"""

import numpy as np

from homfit import ConstraintSet, solve_min_volume, solve_min_volume_centered

corners = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
cs = ConstraintSet(corners)

print("== the unit square shifted to [0,2]^2 ==")
fixed = solve_min_volume(cs, 2)
print(f"origin-centered volume {fixed.volume:.6f}")

best = solve_min_volume_centered(cs, 2)
print(f"centered volume        {best.volume:.6f} at a* = "
      f"({best.center[0]:.4f}, {best.center[1]:.4f})")
print(f"joint Newton steps {best.outer_iterations} over "
      f"{best.meta['joint_stages']} barrier stages, "
      f"fixed-center solves {best.evaluations}")
print("the optimal center is the square's midpoint and the set a disk of")
print(f"radius sqrt(2): volume 2*pi = {2.0 * np.pi:.6f}")

print()
print("== a symmetric cloud stays put ==")
rng = np.random.Generator(np.random.Philox(2))
half = rng.normal(size=(10, 2)) @ (rng.normal(size=(2, 2)) + 1.5 * np.eye(2))
sym = ConstraintSet(np.concatenate([half, -half]))
rep = solve_min_volume_centered(sym, 2)
print(f"|a*| = {np.linalg.norm(rep.center):.2e} (origin recovered)")
print(f"volume {rep.volume:.6f} vs origin-fixed {solve_min_volume(sym, 2).volume:.6f}")
