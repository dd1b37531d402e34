"""Multi-indices, monomial bases, and homogeneous polynomials.

A multi-index is a plain tuple of nonnegative ints; its string form
'2,0,1' keys JSON input and output.

A homogeneous polynomial of even degree d in n variables is stored as a
dense coefficient vector over the monomial basis {x^a : |a| = d}.  The
basis is ordered graded-lexicographically: by total degree first, then
within a degree block the index with the larger leading exponents comes
first, so for n = 2, d = 2 the order is (2,0), (1,1), (0,2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NotInConeError

__all__ = [
    "BasisEnumeration",
    "HomogeneousPoly",
    "basis_for",
    "monomial_matrix",
    "monomial_partials",
    "power_matrix",
    "compose_linear",
    "min_on_sphere",
]


def _parse_key(key):
    """Exponent tuple of a multi-index given as a sequence of exponents or
    as its string form '2,0,1'; ValueError unless every entry is a
    nonnegative integer."""
    parts = key.split(",") if isinstance(key, str) else tuple(key)
    exps = tuple(int(e) for e in parts)     # int("2.5") raises, int(2.5) truncates
    if not exps or min(exps) < 0 or not (isinstance(key, str) or exps == parts):
        raise ValueError(f"multi-index {key!r} needs nonnegative integer exponents")
    return exps


def _format_key(alpha):
    """String form of a multi-index, e.g. '2,0,1' (JSON keys)."""
    return ",".join(str(e) for e in alpha)


def _compositions(total, nvars):
    # all exponent tuples with the given sum, first variable descending:
    # exactly graded-lex order within one degree block
    if nvars == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, nvars - 1):
            yield (first,) + rest


class BasisEnumeration:
    """All multi-indices of one total degree in n variables, graded-lex order.

    The slice {|a| = degree} has C(n + degree - 1, degree) members.  Any
    degree >= 0 is allowed here; the evenness restriction on polynomial
    degrees is enforced by HomogeneousPoly.
    """

    def __init__(self, n, degree):
        n = int(n)
        degree = int(degree)
        if n < 1:
            raise ValueError(f"need at least one variable, got n={n}")
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        self.n = n
        self.degree = degree
        self.indices = tuple(_compositions(degree, n))
        assert len(self.indices) == math.comb(n + degree - 1, degree)
        self._position = {ix: k for k, ix in enumerate(self.indices)}
        self.exponents = np.array(self.indices, dtype=np.int64).reshape(len(self.indices), n)
        self.exponents.setflags(write=False)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __getitem__(self, k):
        return self.indices[k]

    def index_of(self, alpha):
        """Position of a multi-index in the basis order."""
        key = _parse_key(alpha)
        try:
            return self._position[key]
        except KeyError:
            raise KeyError(f"{key} is not in the degree-{self.degree} slice") from None

    def monomials(self, x):
        """Evaluate every basis monomial at the given points.

        Parameters
        ----------
        x : array, shape (m, n) or (n,)

        Returns
        -------
        array, shape (m, len(self))
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n:
            raise ValueError(f"points have {x.shape[1]} coordinates, basis has n={self.n}")
        return monomial_matrix(x, self.exponents)

    def __repr__(self):
        return f"BasisEnumeration(n={self.n}, degree={self.degree}, size={len(self)})"


@lru_cache(maxsize=256)
def basis_for(n, degree):
    """Cached basis enumeration (any degree >= 0)."""
    return BasisEnumeration(n, degree)


def monomial_matrix(x, exponents):
    """Evaluate x^a for each exponent row a; returns shape (m, rows).

    Uses per-variable power tables so each point is raised to each needed
    power once.
    """
    x = np.asarray(x, dtype=float)
    exponents = np.asarray(exponents, dtype=np.int64)
    m, n = x.shape
    if exponents.shape[1] != n:
        raise ValueError("exponent rows do not match point dimension")
    out = np.ones((m, exponents.shape[0]))
    for j in range(n):
        ex_j = exponents[:, j]
        top_j = int(ex_j.max()) if ex_j.size else 0
        if top_j == 0:
            continue
        # integer powers by repeated multiplication; float ** is an order
        # of magnitude slower on large grids
        table = np.empty((m, top_j + 1))
        table[:, 0] = 1.0
        for p in range(1, top_j + 1):
            np.multiply(table[:, p - 1], x[:, j], out=table[:, p])
        out *= table[:, ex_j]
    return out


def _differentiate(exponents, axes):
    """Exponent rows and factors of d/dx_j1 ... d/dx_jk x^a for j in `axes`.

    Each derivative multiplies by the current exponent and lowers it by
    one; a monomial whose exponent reaches zero gets factor 0 (its
    clipped exponent row is then irrelevant).
    """
    shifted = np.array(exponents, dtype=np.int64)
    factor = np.ones(shifted.shape[0])
    for j in axes:
        factor = factor * shifted[:, j]
        shifted[:, j] = np.maximum(shifted[:, j] - 1, 0)
    return shifted, factor


def monomial_partials(x, exponents, derivatives):
    """d/dx_j1 ... d/dx_jk of x^a at the (m, n) points x, for each exponent
    row a and each tuple (j1, ..., jk) in `derivatives` (() is x^a itself);
    shape (m, len(derivatives), rows), from one monomial_matrix call."""
    shifted, factor = zip(*(_differentiate(exponents, axes) for axes in derivatives))
    values = monomial_matrix(x, np.concatenate(shifted)) * np.concatenate(factor)
    return values.reshape(len(values), len(derivatives), -1)


def _positions(basis, exps):
    """Positions in `basis` of its members `exps`: graded-lex order within one
    degree is descending, so one search of the raveled indices finds all."""
    dims = (basis.degree + 1,) * basis.n
    keys = np.ravel_multi_index(basis.exponents.T[:, ::-1], dims)
    return len(keys) - 1 - np.searchsorted(keys, np.ravel_multi_index(exps.T, dims))


@lru_cache(maxsize=64)
def _hessian_alias(n, degree):
    # position of a+b in the 2d basis, for a, b in the d basis
    small = basis_for(n, degree).exponents
    sums = (small[:, None, :] + small[None, :, :]).reshape(-1, n)
    return _positions(basis_for(n, 2 * degree), sums).reshape(len(small), len(small))


def _q_matrix_from_coeffs(g):
    # d = 2 only: g(x) = x'Qx with Q_ii = g_{2e_i}, Q_ij = g_{e_i+e_j}/2
    Q = g.coeff_vector[_hessian_alias(g.n, 1)]
    return np.where(np.eye(g.n, dtype=bool), Q, 0.5 * Q)


class HomogeneousPoly:
    """Homogeneous polynomial g(x) = sum_a g_a x^a over the slice |a| = d.

    Parameters
    ----------
    n : int
        Number of variables.
    degree : int
        Even total degree, >= 2.
    coeffs : array-like of length C(n+d-1, d), or mapping
        Dense coefficient vector aligned with the graded-lex basis, or a
        map from multi-indices (tuples or 'a1,a2' strings) to
        coefficients.  Map keys of the wrong degree, or with exponents
        that are not nonnegative integers, raise ValueError.
    """

    def __init__(self, n, degree, coeffs):
        if degree < 2 or degree % 2:
            raise ValueError(f"degree must be even and >= 2, got {degree}")
        self.n = int(n)
        self.degree = int(degree)
        self.basis = basis_for(self.n, self.degree)
        if isinstance(coeffs, dict):
            vec = np.zeros(len(self.basis))
            for key, value in coeffs.items():
                alpha = _parse_key(key)
                if sum(alpha) != self.degree or len(alpha) != self.n:
                    raise ValueError(
                        f"coefficient key {alpha} does not lie in the "
                        f"degree-{self.degree} slice in {self.n} variables"
                    )
                vec[self.basis.index_of(alpha)] = float(value)
        else:
            vec = np.asarray(coeffs, dtype=float).reshape(-1).copy()
            if vec.shape[0] != len(self.basis):
                raise ValueError(
                    f"expected {len(self.basis)} coefficients for n={self.n}, "
                    f"d={self.degree}; got {vec.shape[0]}"
                )
        if not np.all(np.isfinite(vec)):
            raise ValueError("coefficients must be finite")
        vec.setflags(write=False)
        self.coeff_vector = vec

    @classmethod
    def sum_of_powers(cls, n, degree):
        """The polynomial x_1^d + ... + x_n^d."""
        coeffs = {}
        for i in range(n):
            alpha = [0] * n
            alpha[i] = degree
            coeffs[tuple(alpha)] = 1.0
        return cls(n, degree, coeffs)

    def coeff(self, alpha):
        """Coefficient of x^alpha (zero is stored explicitly; KeyError if
        alpha is outside the slice)."""
        return float(self.coeff_vector[self.basis.index_of(alpha)])

    def coeffs_dict(self):
        return {ix: float(c) for ix, c in zip(self.basis, self.coeff_vector)}

    def __call__(self, x):
        """Evaluate at one point (returns float) or a stack (returns array)."""
        arr = np.asarray(x, dtype=float)
        single = arr.ndim == 1
        values = self.basis.monomials(arr) @ self.coeff_vector
        return float(values[0]) if single else values

    def gradient(self, x):
        """Gradient rows; shape (n,) for one point, (m, n) for a stack.

        dg/dx_j = sum_a g_a a_j x^(a - e_j); terms with a_j = 0 drop out.
        """
        arr = np.atleast_2d(np.asarray(x, dtype=float))
        if arr.shape[1] != self.n:
            raise ValueError("point dimension mismatch")
        axes = [(j,) for j in range(self.n)]
        out = monomial_partials(arr, self.basis.exponents, axes) @ self.coeff_vector
        return out[0] if np.asarray(x).ndim == 1 else out

    def __add__(self, other):
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if (other.n, other.degree) != (self.n, self.degree):
            raise ValueError("polynomials live in different slices")
        return HomogeneousPoly(self.n, self.degree, self.coeff_vector + other.coeff_vector)

    def __mul__(self, scalar):
        return HomogeneousPoly(self.n, self.degree, self.coeff_vector * float(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        terms = []
        for ix, c in zip(self.basis, self.coeff_vector):
            if c != 0.0:
                terms.append(f"{c:+.6g}*x^{tuple(ix)}")
        body = " ".join(terms) if terms else "0"
        return f"HomogeneousPoly(n={self.n}, d={self.degree}: {body})"


@lru_cache(maxsize=64)
def _degree_step(n, k):
    """For |a| = k: lead[a], the first variable with a nonzero exponent,
    and parent[a], the position of a - e_lead in degree k - 1; for
    |b| = k - 1: shift[l, b], the position of b + e_l in degree k."""
    prev, cur = basis_for(n, k - 1), basis_for(n, k)
    lead = np.argmax(cur.exponents > 0, axis=1)
    unit = np.eye(n, dtype=np.int64)
    parent = _positions(prev, cur.exponents - unit[lead])
    shift = _positions(cur, (prev.exponents + unit[:, None]).reshape(-1, n)).reshape(n, -1)
    for table in (lead, parent, shift):
        table.setflags(write=False)
    return lead, parent, shift


def power_matrix(M, d):
    """Matrix P with (M x)^a = sum_b P[a, b] x^b over the degree-d basis.

    Built degree by degree: for |a| = k with first nonzero exponent j,
    (M x)^a = (M x)^(a - e_j) * sum_l M[j, l] x_l, so row a of P_k is
    row a - e_j of P_(k-1) moved to b + e_l and weighted by M[j, l].
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"need a square matrix, got shape {M.shape}")
    P = np.ones((1, 1))
    for k in range(1, d + 1):
        lead, parent, shift = _degree_step(M.shape[0], k)
        P, rows = np.zeros((len(parent), len(parent))), P[parent]
        for l, cols in enumerate(shift):
            P[:, cols] += M[lead, l][:, None] * rows
    return P


def compose_linear(g, M):
    """The polynomial h(x) = g(M x), same degree: h = P_d(M)^T g."""
    if np.shape(M) != (g.n, g.n):
        raise ValueError(f"need a {g.n}x{g.n} matrix, got {np.shape(M)}")
    return HomogeneousPoly(g.n, g.degree, power_matrix(M, g.degree).T @ g.coeff_vector)


def min_on_sphere(g):
    """Minimum of g over the unit sphere, and a unit argmin.

    A deterministic scan of half_sphere_grid (g is even, so its minimum is
    the full grid's: about 1024 points for n = 2, 2048 for n = 3, 4096
    above) seeds Newton on the sphere.  Each step takes the gradient and
    Hessian H of g at u from one monomial_partials jet, the Riemannian
    Hessian P (H - d g(u) I) P, P = I - u u^T, with its eigenvalues in
    absolute value plus a 1e-12 ridge, and halves the step, at most 30
    times, until g at the normalized trial falls; the descent stops when it
    does not, after at most 100 steps.  The returned value never exceeds
    the grid minimum.

    Returns
    -------
    (value, argmin) : (float, array of shape (n,))
    """
    from .spheres import half_sphere_grid, resolution_for_budget

    if g.n == 1:
        # sphere is {-1, +1}; even degree makes both ends equal
        val = g(np.array([1.0]))
        return float(val), np.array([1.0])

    n, d = g.n, g.degree
    budget = {2: 1024, 3: 2048}.get(n, 4096)
    points, _ = half_sphere_grid(n, resolution_for_budget(n, budget))
    values = g(points)
    k = int(np.argmin(values))
    val, u = float(values[k]), points[k]
    jet = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(n)]
    for _ in range(100):
        parts = monomial_partials(u[None], g.basis.exponents, jet)[0] @ g.coeff_vector
        P = np.eye(n) - np.outer(u, u)
        hess = P @ (parts[n:].reshape(n, n) - d * val * np.eye(n)) @ P
        lam, vec = np.linalg.eigh(hess)
        step = -P @ (vec @ ((vec.T @ (P @ parts[:n])) / (np.abs(lam) + 1e-12)))
        for _ in range(30):
            trial = (u + step) / np.linalg.norm(u + step)
            trial_val = g(trial)
            if trial_val < val:
                break
            step = 0.5 * step
        else:
            break
        val, u = trial_val, trial
    return val, np.array(u)


def positivity_floor(g):
    """Threshold below which a sphere value of g counts as 'not positive'.

    Scaled to the coefficient magnitude so the test is invariant under
    g -> c*g.
    """
    return 1e-8 * float(np.max(np.abs(g.coeff_vector)))


def check_in_cone(g):
    """Raise NotInConeError unless g is strictly positive on the sphere."""
    val, arg = min_on_sphere(g)
    if val <= positivity_floor(g):
        raise NotInConeError(
            f"sphere minimum {val:.3e} at {np.round(arg, 6)} is not strictly "
            f"positive; exp(-g) is not integrable"
        )
    return val
