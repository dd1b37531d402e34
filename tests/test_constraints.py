"""Set descriptions, rejection sampling, boundary push, inclusion audit."""

import numpy as np
import pytest

import homfit as hf
from conftest import philox
from homfit import (ConstraintSet, EmptySetError, HomogeneousPoly, KDescription,
                    inclusion_check, to_constraints)
from homfit import constraints
from homfit.constraints import _push_to_boundary
from homfit.polynomials import monomial_partials

DISK = KDescription(
    inequalities=[{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}],   # 1 - x^2 - y^2 >= 0
    box=[[-2.0, 2.0], [-2.0, 2.0]],
)


def test_native_points_pass_through():
    pts = [[1, 0], [0, 1], [-1, 0], [0, -1]]
    k = ConstraintSet(pts)
    cs = to_constraints(k, budget=10, seed=0)
    assert cs is k and cs.provenance == "native"
    assert np.allclose(cs.points, np.asarray(pts, dtype=float))


def test_dedup_and_validation():
    cs = ConstraintSet([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert len(cs) == 2
    with pytest.raises(ValueError):
        ConstraintSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        ConstraintSet([[np.inf, 0.0]])
    # a 3-D array once built, and the solver died unpacking its shape
    with pytest.raises(ValueError, match=r"points must be an \(m, n\) array"):
        ConstraintSet(np.ones((3, 2, 2)))
    with pytest.raises(ValueError):
        KDescription(inequalities=[], box=[[-1, 1]])
    with pytest.raises(ValueError):
        KDescription(inequalities=[{"2,0": 1.0}], box=[[1, -1], [0, 1]])


def test_rejection_sampling_respects_inequalities():
    cs = to_constraints(DISK, budget=1000, seed=3)
    assert cs.provenance == "semialgebraic"
    assert len(cs) >= 1000
    r2 = np.sum(cs.points ** 2, axis=1)
    assert np.max(r2) <= 1.0 + 1e-9


def test_sampling_is_deterministic():
    a = to_constraints(DISK, budget=300, seed=11)
    b = to_constraints(DISK, budget=300, seed=11)
    assert np.array_equal(a.points, b.points)
    c = to_constraints(DISK, budget=300, seed=12)
    assert a.points.shape != c.points.shape or not np.allclose(a.points, c.points)


def test_boundary_push_reaches_the_edge():
    cs = to_constraints(DISK, budget=400, seed=4)
    r = np.sqrt(np.sum(cs.points ** 2, axis=1))
    # companions pushed toward {x^2+y^2 = 1}: some radius must end up close
    assert np.max(r) > 0.98
    assert np.max(r) <= 1.0 + 1e-9


def test_empty_set_raises():
    impossible = KDescription(
        inequalities=[{"0,0": -1.0, "2,0": -1.0, "0,2": -1.0}],  # -1 - x^2 - y^2
        box=[[-1.0, 1.0], [-1.0, 1.0]],
    )
    with pytest.raises(EmptySetError):
        to_constraints(impossible, budget=50, seed=0)


def test_discretization_monotonicity():
    # more constraint points can only push the objective up
    full = to_constraints(DISK, budget=500, seed=9).points
    sub = ConstraintSet(full[:120])
    sup = ConstraintSet(full)
    r_sub = hf.solve_min_volume(sub, 2)
    r_sup = hf.solve_min_volume(sup, 2)
    assert r_sup.objective >= r_sub.objective - 1e-9 * r_sub.objective


def test_inclusion_check_native():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    k = ConstraintSet([[1, 0], [0, 1], [-1, 0], [0, -1]])
    audit = inclusion_check(g, None, k)
    assert audit.max_violation == pytest.approx(0.0, abs=1e-12)

    k2 = ConstraintSet([[2.0, 0.0]])
    audit = inclusion_check(g, None, k2)
    assert audit.max_violation == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(audit.witness, [2.0, 0.0])


def test_inclusion_check_semialgebraic():
    g2 = HomogeneousPoly(2, 2, {(2, 0): 2.0, (0, 2): 2.0})
    audit = inclusion_check(g2, None, DISK, audit_budget=3000, seed=5)
    # max of 2 r^2 - 1 over the disk is 1, attained at the boundary
    assert 0.9 <= audit.max_violation <= 1.0 + 1e-9


def test_inclusion_check_with_center():
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    shifted = ConstraintSet([[6.0, -2.0]])
    audit = inclusion_check(g, np.array([5.0, -2.0]), shifted)
    assert audit.max_violation == pytest.approx(0.0, abs=1e-12)


def _gradient_at(ineq, x):
    x = np.asarray(x, dtype=float)
    axes = [(j,) for j in range(ineq.n)]
    return monomial_partials(x[None, :], ineq.exponents, axes)[0] @ ineq.coeffs


def _push_by_loop(k, points):
    """The boundary push as first written: one point at a time, with its
    own bracketing and bisection loops."""
    lo, hi = k.box[:, 0], k.box[:, 1]
    diag = float(np.linalg.norm(hi - lo))
    vals = np.column_stack([ineq(points) for ineq in k.inequalities])
    binding = np.argmin(vals, axis=1)
    out = []
    for x, j in zip(points, binding):
        ineq = k.inequalities[j]
        grad = _gradient_at(ineq, x)
        norm = float(np.linalg.norm(grad))
        if norm < 1e-12:
            continue
        direction = -grad / norm
        inner, outer = x, None
        step = 1e-3 * diag
        for _ in range(40):
            cand = inner + step * direction
            if np.any(cand < lo) or np.any(cand > hi) or not np.all(np.isfinite(cand)):
                break
            if float(ineq(cand[None, :])[0]) < 0.0:
                outer = cand
                break
            inner = cand
            step *= 2.0
        if outer is None:
            continue
        for _ in range(5):
            mid = 0.5 * (inner + outer)
            if float(ineq(mid[None, :])[0]) >= 0.0:
                inner = mid
            else:
                outer = mid
        if all(float(q(inner[None, :])[0]) >= -1e-12 for q in k.inequalities):
            out.append(inner)
    return np.array(out) if out else np.zeros((0, points.shape[1]))


OFFSET_ELLIPSE = KDescription(
    inequalities=[{"0,0": 1.0, "1,0": 1.0, "2,0": -1.0, "0,2": -4.0}],
    box=[[-1.0, 2.0], [-1.0, 1.0]],
)
# the unit disk cut by 5 - 10x >= 0: rows near the chord bind on the line,
# and rows binding on the circle whose push ends past x = 0.5 are filtered
CHORD_DISK = KDescription(
    inequalities=[{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}, {"0,0": 5.0, "1,0": -10.0}],
    box=[[-1.5, 1.5], [-1.5, 1.5]],
)
# the box cuts the disk, so brackets that walk out through its sides break
CUT_DISK = KDescription(
    inequalities=[{"0,0": 1.0, "2,0": -1.0, "0,2": -1.0}],
    box=[[-0.6, 0.6], [-2.0, 2.0]],
)
PUSH_CASES = {
    "disk": DISK,
    "offset_ellipse": OFFSET_ELLIPSE,
    "two_inequalities": CHORD_DISK,
    "cut_box": CUT_DISK,
    "zero_gradient": DISK,      # near the origin, where 1 - x^2 - y^2 is flat
}


def _push_sample(case, seed, m=400):
    k = PUSH_CASES[case]
    pts = to_constraints(k, budget=m, seed=seed).points[:m]
    if case == "zero_gradient":
        # |grad| is 0 and 4e-13: both rows are skipped, not walked
        pts = np.insert(pts, m // 2, [[0.0, 0.0], [2e-13, 0.0]], axis=0)
    return k, pts


@pytest.mark.parametrize("case", list(PUSH_CASES))
@pytest.mark.parametrize("seed", [0, 7919])
def test_push_matches_point_loop(case, seed):
    k, pts = _push_sample(case, seed)
    ref = _push_by_loop(k, pts)
    out = _push_to_boundary(k, pts)
    assert out.shape == ref.shape
    assert np.max(np.abs(out - ref)) <= 1e-14


def test_push_cases_exercise_every_rule():
    # the equivalence test only means something if each drop rule fires
    k, pts = _push_sample("two_inequalities", 0)
    binding = np.argmin(np.column_stack([q(pts) for q in k.inequalities]), axis=1)
    assert set(binding) == {0, 1}
    assert len(_push_by_loop(k, pts)) < len(pts)                    # final filter
    k, pts = _push_sample("cut_box", 0)
    assert len(_push_by_loop(k, pts)) < len(pts)                    # box break
    k, pts = _push_sample("zero_gradient", 0)
    assert len(_push_by_loop(k, pts[200:202])) == 0                 # zero gradient


def _count_calls(monkeypatch):
    calls = [0]
    original = constraints._PolyIneq.__call__

    def counted(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(constraints._PolyIneq, "__call__", counted)
    return calls


@pytest.mark.parametrize("budget", [200, 2000])
def test_sampling_cost_does_not_grow_with_budget(monkeypatch, budget):
    calls = _count_calls(monkeypatch)
    to_constraints(DISK, budget=budget, seed=0)
    assert calls[0] <= 64 * len(DISK.inequalities)
    calls[0] = 0
    g = HomogeneousPoly(2, 2, {(2, 0): 1.0, (0, 2): 1.0})
    inclusion_check(g, None, CHORD_DISK, audit_budget=budget, seed=1)
    assert calls[0] <= 64 * len(CHORD_DISK.inequalities)
