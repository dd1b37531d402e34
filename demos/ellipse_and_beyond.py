"""From the classical ellipsoid to higher-degree enclosures.

At degree 2 the minimum-volume sublevel set of a quadratic form is the
Loewner-John ellipsoid of the symmetrized points, so an independent
ellipsoid oracle (log-det barrier Newton that certifies its own duality
gap) can grade the solver exactly.  At degree 4 no such oracle exists;
the same convex program simply keeps working, and the enclosure hugs the
cloud more tightly than any ellipse can.

Run with matplotlib installed to get enclosure.png; the numbers print
either way.
"""

import numpy as np

from homfit import ConstraintSet, mvee_symmetric, solve_min_volume

rng = np.random.Generator(np.random.Philox(5))
half = rng.normal(size=(40, 2)) @ np.array([[1.6, 0.9], [0.0, 0.6]])
points = np.concatenate([half, -half])
cs = ConstraintSet(points)

print("== degree 2 vs the ellipsoid oracle ==")
rep2 = solve_min_volume(cs, 2)
ell = mvee_symmetric(points)
print(f"solver volume   {rep2.volume:.9f}")
print(f"oracle volume   {ell.volume:.9f}")
print(f"relative gap    {abs(rep2.volume - ell.volume) / ell.volume:.2e}")
Q = np.array([[rep2.g_star.coeff((2, 0)), 0.5 * rep2.g_star.coeff((1, 1))],
              [0.5 * rep2.g_star.coeff((1, 1)), rep2.g_star.coeff((0, 2))]])
print(f"max |Q gap|     {np.max(np.abs(Q - ell.Q)):.2e}")

print()
print("== degree 4: beyond ellipsoids ==")
rep4 = solve_min_volume(cs, 4)
print(f"degree-4 volume {rep4.volume:.9f}")
print(f"volume saved    {100.0 * (1.0 - rep4.volume / rep2.volume):.1f}% vs the ellipse")
print(f"active contacts {np.count_nonzero(rep4.multipliers)} of {len(cs)} points")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\n(matplotlib not installed; skipping the figure)")
else:
    theta = np.linspace(0.0, 2.0 * np.pi, 400)
    units = np.column_stack([np.cos(theta), np.sin(theta)])
    fig, ax = plt.subplots(figsize=(6, 6))
    ax.scatter(points[:, 0], points[:, 1], s=12, color="gray", label="points")
    for rep, color, label in ((rep2, "tab:blue", "degree 2"),
                              (rep4, "tab:red", "degree 4")):
        r = rep.g_star(units) ** (-1.0 / rep.g_star.degree)
        curve = units * r[:, None]
        ax.plot(curve[:, 0], curve[:, 1], color=color, label=label)
    ax.set_aspect("equal")
    ax.legend()
    fig.savefig("enclosure.png", dpi=150)
    print("\nwrote enclosure.png")
