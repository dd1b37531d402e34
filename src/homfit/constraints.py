"""Compact-set descriptions and their reduction to finite constraint sets.

A set K is given either natively as a finite point list, or as a basic
semialgebraic description {x in box : w_j(x) >= 0 for all j} with general
(not necessarily homogeneous) polynomial inequalities.  Semialgebraic
descriptions are discretized by seeded rejection sampling inside the box,
then every sample is pushed, all in one array pass, to the boundary of its
most binding inequality (the boundary is where enclosing constraints end
up active, so those points matter most).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .errors import EmptySetError
from .polynomials import _parse_key, monomial_jacobian, monomial_matrix

__all__ = ["KDescription", "ConstraintSet", "to_constraints", "inclusion_check",
           "InclusionAudit"]


class _PolyIneq:
    """General polynomial from a {multi-index: coefficient} map."""

    def __init__(self, coeff_map, n):
        if not isinstance(coeff_map, Mapping):
            raise ValueError("each inequality must map exponent keys to coefficients")
        exps = []
        coeffs = []
        for key, value in coeff_map.items():
            alpha = _parse_key(key)
            if len(alpha) != n:
                raise ValueError(f"inequality key {alpha} has wrong dimension")
            exps.append(alpha)
            coeffs.append(float(value))
        if not exps:
            raise ValueError("inequality with no terms")
        self.n = n
        self.exponents = np.array(exps, dtype=np.int64)
        self.coeffs = np.array(coeffs)

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return monomial_matrix(x, self.exponents) @ self.coeffs


class KDescription:
    """The compact set to enclose: finite points, or inequalities in a box."""

    def __init__(self, points=None, inequalities=None, box=None):
        if points is not None:
            pts = np.atleast_2d(np.asarray(points, dtype=float))
            if pts.size == 0:
                raise ValueError("point list is empty")
            if pts.ndim != 2:
                raise ValueError("points must be an (m, n) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("points must be finite")
            self.points = pts
            self.inequalities = None
            self.box = None
            self.n = pts.shape[1]
            return
        if inequalities is None or box is None:
            raise ValueError("need either points, or inequalities together with a box")
        box = np.asarray(box, dtype=float)
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError("box must be an (n, 2) array of [lo, hi] rows")
        with np.errstate(over="ignore"):        # an infinite width is rejected below
            width = box[:, 1] - box[:, 0]
        if not np.all(np.isfinite(width)) or not np.all(width > 0):
            raise ValueError("box rows must have lo < hi and a finite width")
        self.n = box.shape[0]
        self.points = None
        self.box = box
        self.inequalities = [_PolyIneq(m, self.n) for m in inequalities]
        if not self.inequalities:
            raise ValueError("semialgebraic description needs at least one inequality")

    @classmethod
    def from_points(cls, points):
        return cls(points=points)

    @classmethod
    def semialgebraic(cls, inequalities, box):
        return cls(inequalities=inequalities, box=box)

    @property
    def is_native(self):
        return self.points is not None

    def __repr__(self):
        if self.is_native:
            return f"KDescription({self.points.shape[0]} points, n={self.n})"
        return f"KDescription({len(self.inequalities)} inequalities in a box, n={self.n})"


class ConstraintSet:
    """Finite point set feeding the solver, with provenance.

    Points are deduplicated to 1e-12 resolution on construction.
    """

    def __init__(self, points, provenance="native"):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("constraint set is empty")
        if not np.all(np.isfinite(pts)):
            raise ValueError("constraint points must be finite")
        self.points = _dedup(pts)
        self.points.setflags(write=False)
        self.provenance = provenance
        self.n = self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __repr__(self):
        return f"ConstraintSet({len(self)} points, n={self.n}, {self.provenance!r})"


def _dedup(points, resolution=1e-12):
    scale = max(float(np.max(np.abs(points))), 1.0)
    keys = np.round(points / (resolution * scale)).astype(np.int64)
    _, keep = np.unique(keys, axis=0, return_index=True)
    return points[np.sort(keep)].copy()


def to_constraints(k, budget=2000, seed=0):
    """Discretize a set description into solver constraints.

    Native point lists pass straight through (deduplicated).  For
    semialgebraic descriptions, rejection sampling inside the box keeps
    points satisfying every inequality until `budget` are found; each
    accepted point then contributes a companion pushed to the boundary of
    its most binding inequality by bracketing plus five bisection steps,
    all samples in lockstep.  Deterministic for a given (description,
    budget, seed).

    Raises EmptySetError if 100 * budget draws produce no acceptance.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if k.is_native:
        return ConstraintSet(k.points, provenance="native")

    rng = np.random.Generator(np.random.Philox(int(seed)))
    lo, hi = k.box[:, 0], k.box[:, 1]
    accepted = []
    count = 0
    attempts = 0
    zero_check_cap = 100 * budget
    hard_cap = 10_000 * budget
    batch = max(min(budget, 1 << 14), 256)
    while count < budget:
        draw = rng.uniform(lo, hi, size=(batch, k.n))
        attempts += batch
        mask = np.ones(batch, dtype=bool)
        for ineq in k.inequalities:
            mask &= ineq(draw) >= 0.0
            if not mask.any():
                break
        if mask.any():
            accepted.append(draw[mask])
            count += int(mask.sum())
        if count == 0 and attempts >= zero_check_cap:
            raise EmptySetError(
                f"no point satisfied all inequalities after {attempts} draws"
            )
        if attempts >= hard_cap:
            if count == 0:
                raise EmptySetError(
                    f"no point satisfied all inequalities after {attempts} draws"
                )
            break   # thin but nonempty set: proceed with what was found
    interior = np.vstack(accepted)[:budget] if count >= budget else np.vstack(accepted)
    boundary = _push_to_boundary(k, interior)
    combined = np.vstack([interior, boundary]) if boundary.size else interior
    return ConstraintSet(combined, provenance="semialgebraic")


def _push_to_boundary(k, points):
    """Walk every point downhill on its most binding inequality until it
    changes sign, then bisect five times; keep the inside end.

    The step starts at 1e-3 * diag(box) along -grad/|grad| and doubles up
    to 40 times.  All rows move in lockstep: each doubling and each
    bisection evaluates every inequality once, on the rows still active.
    A point is dropped if its gradient norm is below 1e-12, a trial step
    leaves the box or is not finite, no sign change is found, or the end
    violates an inequality by more than 1e-12.  Output keeps input order.
    """
    lo, hi = k.box[:, 0], k.box[:, 1]

    def values(x):
        return np.column_stack([q(x) for q in k.inequalities])

    binding = np.argmin(values(points), axis=1)
    grad = np.stack([np.einsum("k,mkn->mn", q.coeffs, monomial_jacobian(points, q.exponents))
                     for q in k.inequalities])[binding, np.arange(len(points))]
    norm = np.linalg.norm(grad, axis=1)
    keep = np.flatnonzero(norm >= 1e-12)
    binding, direction = binding[keep], -grad[keep] / norm[keep, None]
    inner, outer = points[keep], np.empty((len(keep), k.n))
    bracketed = np.zeros(len(keep), dtype=bool)
    walking = np.arange(len(keep))
    step = 1e-3 * float(np.linalg.norm(hi - lo))
    for _ in range(40):
        cand = inner[walking] + step * direction[walking]
        # NaN and inf fail these comparisons too, so they drop the row
        inside = np.all((cand >= lo) & (cand <= hi), axis=1)
        walking, cand = walking[inside], cand[inside]
        crossed = values(cand)[np.arange(len(cand)), binding[walking]] < 0.0
        outer[walking[crossed]] = cand[crossed]
        bracketed[walking[crossed]] = True
        walking = walking[~crossed]
        inner[walking] = cand[~crossed]
        if not walking.size:
            break
        step *= 2.0
    inner, outer, binding = inner[bracketed], outer[bracketed], binding[bracketed]
    for _ in range(5):
        mid = 0.5 * (inner + outer)
        ok = values(mid)[np.arange(len(mid)), binding] >= 0.0
        inner[ok], outer[~ok] = mid[ok], mid[~ok]
    return inner[np.all(values(inner) >= -1e-12, axis=1)]


class InclusionAudit(NamedTuple):
    max_violation: float
    witness: np.ndarray


def inclusion_check(g, center, k, audit_budget=4000, seed=1):
    """Largest value of g(x - center) - 1 over an audit sample of K.

    Nonpositive max_violation (up to tolerance) certifies that the audit
    sample is enclosed.  Native descriptions are audited on all their
    points; semialgebraic ones on a fresh sample drawn with `seed`.
    """
    if k.is_native:
        sample = k.points
    else:
        sample = to_constraints(k, budget=audit_budget, seed=seed).points
    center = np.zeros(k.n) if center is None else np.asarray(center, dtype=float)
    vals = g(sample - center) - 1.0
    worst = int(np.argmax(vals))
    return InclusionAudit(max_violation=float(vals[worst]),
                          witness=np.array(sample[worst]))
