"""Determinant identities: Vandermonde machinery, the exp-kernel
factorization, Cauchy-Binet, and the two closed-form rational determinants.

Exact rational arithmetic where the identities are exact (Beta and
shifted-factorial determinants, Cauchy-Binet on rational input); mpmath
for the exp-kernel determinants, whose values (~1e-55 at n=7) are far
below what float64 cancellation can resolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np

DISTINCT_RTOL = 1e-12


@dataclass(frozen=True)
class NodeSet:
    """Pairwise-distinct interpolation nodes."""

    x: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(self.x))
        vals = self.x
        scale = max((abs(v) for v in vals), default=1.0) or 1.0
        for i, j in combinations(range(len(vals)), 2):
            if abs(vals[i] - vals[j]) <= DISTINCT_RTOL * scale:
                raise ValueError("nodes must be pairwise distinct")

    def __len__(self):
        return len(self.x)


def vandermonde_det(nodes) -> float:
    """prod_{k<l} (x_l - x_k); accepts a NodeSet or a plain sequence.

    Nodes may be floats, Fractions (exact result), mpmath numbers, or
    numpy arrays of equal shape, e.g. list(lam.T) for a per-row product.
    """
    x = list(nodes.x if isinstance(nodes, NodeSet) else nodes)
    out = 1.0 if not isinstance(x[0] if x else 0, (Fraction, int)) else Fraction(1)
    for k, l in combinations(range(len(x)), 2):
        out = out * (x[l] - x[k])
    return out


def _elementary_symmetric(vals, upto: int):
    """e_0..e_upto of vals, same arithmetic as the inputs."""
    one = Fraction(1) if vals and isinstance(vals[0], (Fraction, int)) else 1.0
    e = [one] + [one * 0] * upto
    for v in vals:
        for d in range(upto, 0, -1):
            e[d] = e[d] + v * e[d - 1]
    return e


def inverse_vandermonde(nodes: NodeSet) -> np.ndarray:
    """Inverse of V_ij = x_j^(i-1) via elementary symmetric polynomials.

    Row k, column i: (-1)^(i-1) e_{n-i}(x without x_k) / prod_{t!=k}(x_t-x_k).
    """
    x = list(nodes.x)
    n = len(x)
    out = np.empty((n, n), dtype=complex if any(isinstance(v, complex) for v in x) else float)
    for k in range(n):
        others = [x[t] for t in range(n) if t != k]
        denom = 1.0
        for t in range(n):
            if t != k:
                denom *= x[t] - x[k]
        e = _elementary_symmetric(others, n - 1)
        for i in range(1, n + 1):
            out[k, i - 1] = (-1.0) ** (i - 1) * e[n - i] / denom
    return out


def vandermonde_matrix(nodes: NodeSet) -> np.ndarray:
    x = list(nodes.x)
    n = len(x)
    return np.array([[x[j] ** i for j in range(n)] for i in range(n)], dtype=float)


# ---------------------------------------------------------------------------
# exp-kernel factorization


def exp_det_factorization(x, y, c=1.0):
    """det exp(c x_k y_l) and its rank-limited factorization.

    Returns (exact, factored, in_window) where
    factored = c^binom(n,2) Delta(x) Delta(y) / prod_{m<n} m!  (identical
    to the determinant of the n-term truncated power series) and the ratio
    exact/factored tends to 1 as n max|x| max|y| -> 0; in_window reports
    that advisory smallness condition (< 1).  Arbitrary precision: the
    determinants cancel to ~8n digits.  Accepts NodeSets or plain
    sequences (coincident nodes are fine here: both sides just vanish).
    """
    xs_in = x.x if isinstance(x, NodeSet) else tuple(x)
    ys_in = y.x if isinstance(y, NodeSet) else tuple(y)
    xs = [mp.mpf(v) if not isinstance(v, complex) else mp.mpc(v) for v in xs_in]
    ys = [mp.mpf(v) if not isinstance(v, complex) else mp.mpc(v) for v in ys_in]
    n = len(xs)
    if len(ys) != n:
        raise ValueError("node sets must have equal size")
    cc = mp.mpc(c) if isinstance(c, complex) else mp.mpf(c)
    with mp.workdps(max(30, 12 * n)):
        m = mp.matrix(n, n)
        for k in range(n):
            for l in range(n):
                m[k, l] = mp.e ** (cc * xs[k] * ys[l])
        exact = mp.det(m)
        fact = cc ** (n * (n - 1) // 2) * vandermonde_det(xs) * vandermonde_det(ys)
        for t in range(n):
            fact /= mp.factorial(t)
        exact_f = complex(exact) if isinstance(c, complex) else float(exact)
        fact_f = complex(fact) if isinstance(c, complex) else float(fact)
    window = len(xs) * max(abs(complex(v)) for v in xs) * max(abs(complex(v)) for v in ys)
    return exact_f, fact_f, window < 1.0


def cauchy_binet_det(a, b):
    """det(A B) as the sum over m-subsets of minor products.

    A is m x n, B is n x m with m <= n; exact on Fraction input.  m > n
    returns 0 (rank).
    """
    rows_a = [list(r) for r in a]
    rows_b = [list(r) for r in b]
    m = len(rows_a)
    n = len(rows_a[0]) if rows_a else 0
    if len(rows_b) != n or (rows_b and len(rows_b[0]) != m):
        raise ValueError("shape mismatch: need (m x n) and (n x m)")
    if m > n:
        return Fraction(0) if _is_exact(rows_a) else 0.0
    total = Fraction(0) if _is_exact(rows_a) and _is_exact(rows_b) else 0.0
    for subset in combinations(range(n), m):
        minor_a = [[rows_a[i][j] for j in subset] for i in range(m)]
        minor_b = [[rows_b[j][i] for i in range(m)] for j in subset]
        total = total + _square_det(minor_a) * _square_det(minor_b)
    return total


def _is_exact(rows) -> bool:
    return all(isinstance(v, (int, Fraction)) for row in rows for v in row)


def _square_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1) if _is_exact(rows) else 1.0
    if _is_exact(rows):
        return _det_exact([[Fraction(v) for v in row] for row in rows])
    return float(np.linalg.det(np.array(rows, dtype=float)))


def _det_exact(m):
    n = len(m)
    det = Fraction(1)
    m = [row[:] for row in m]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1, 1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def det_rows(rows):
    """Determinant of a square matrix given as rows of same-shape finite arrays.

    rows[k][l] holds entry (k, l) at every point of a leading shape (0-d
    for one matrix); the result has that shape.  Gaussian elimination with
    partial pivoting runs elementwise over the leading shape, so a batch of
    small matrices costs O(n^3) array operations instead of one LAPACK call
    per matrix.  Pivoting keeps every multiplier at most 1 in magnitude, so
    a tiny (even subnormal) pivot cannot overflow, and a zero pivot (a
    singular point) gives det 0 without dividing by it.  The lists in rows
    are the work space: their entries are replaced by the elimination's
    own arrays, which it updates in place; the arrays passed in are only
    read.
    """
    n = len(rows)
    det = np.ones(np.shape(rows[0][0]))
    flip = False
    for c in range(n):
        for r in range(c + 1, n):
            swap = np.abs(rows[r][c]) > np.abs(rows[c][c])
            flip = flip ^ swap
            keep = ~swap
            # blending finite entries by weights 0 and 1 is exact, and cheaper
            # than np.where's per-element branch on a mask that is half set
            for l in range(c, n):
                a, b = rows[c][l], rows[r][l]
                rows[c][l] = a * keep + b * swap
                rows[r][l] = b * keep + a * swap
        piv = rows[c][c]
        det *= piv
        piv = np.where(piv == 0.0, 1.0, piv)  # zero only over a zero column
        for r in range(c + 1, n):
            rows[r][c] /= piv  # the multiplier; the entry is not read again
            for l in range(c + 1, n):
                rows[r][l] -= rows[r][c] * rows[c][l]
    return np.where(flip, -det, det)[()]


# ---------------------------------------------------------------------------
# closed-form rational determinants


def beta_det(n: int, closed_form: bool = True) -> Fraction:
    """det B(k,l), k,l = 1..n, with B the Beta function (exact rational).

    closed_form=False evaluates the dense rational determinant directly;
    the two agree exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if closed_form:
        out = Fraction((-1) ** (n * (n - 1) // 2), 4 ** (n - 1))
        for k in range(1, n):
            out /= (2 * k + 1) * Fraction(math.comb(2 * k - 1, k)) ** 2
        return out
    beta = lambda a, b: Fraction(
        math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1)
    )
    return _det_exact([[beta(k, l) for l in range(1, n + 1)] for k in range(1, n + 1)])


def shifted_factorial_det(n: int, closed_form: bool = True) -> Fraction:
    """det [1/(2k-l)! for 2k >= l else 0], k,l = 0..n-1 (exact rational).

    Closed form prod_{t=1}^{n-1} 1/(2t-1)!!.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if closed_form:
        out = Fraction(1)
        for t in range(1, n):
            out /= math.prod(range(2 * t - 1, 0, -2))
        return out
    entry = lambda k, l: Fraction(1, math.factorial(2 * k - l)) if 2 * k >= l else Fraction(0)
    return _det_exact([[entry(k, l) for l in range(n)] for k in range(n)])


# ---------------------------------------------------------------------------
# perturbation-validity predicates


def perturbation_validity(kind: str, params: dict) -> tuple[bool, float]:
    """Advisory smallness predicates for neglecting perturbation terms.

    Returns (holds, margin) where margin is the worst ratio of a
    coefficient to its sufficient bound (<= 1 means the condition holds).
    Sufficient, not necessary; never used as a hard gate.

    kinds:
      diag-power:    coefficients alpha_n on (x_k y_l)^n, bound N^-(n+1)
      argument-poly: coefficients beta_n on x_k y_l^n, bound 1/(N^2 max|y|^(n-1))
      mixed:         terms gamma (k eps)^m y^n; m > n always fine, n > m
                     needs gamma <= N^-(1/2+n)/(1 + max|y|^(n-m))
    """
    if kind not in ("diag-power", "argument-poly", "mixed"):
        raise ValueError(f"unknown kind {kind!r}")
    n_size = params["N"]
    if kind == "diag-power":
        worst = 0.0
        for order, coeff in params["coefficients"].items():
            worst = max(worst, abs(coeff) * n_size ** (order + 1))
        return worst <= 1.0, worst
    if kind == "argument-poly":
        ymax = params["y_max"]
        worst = 0.0
        for order, coeff in params["coefficients"].items():
            worst = max(worst, abs(coeff) * n_size**2 * ymax ** (order - 1))
        return worst <= 1.0, worst
    if kind == "mixed":
        ymax = params["y_max"]
        worst = 0.0
        for (m_pow, n_pow), coeff in params["terms"].items():
            if m_pow > n_pow:
                continue
            if m_pow == n_pow:
                worst = max(worst, abs(coeff))
                continue
            bound = n_size ** (-0.5 - n_pow) / (1.0 + ymax ** (n_pow - m_pow))
            worst = max(worst, abs(coeff) / bound)
        return worst <= 1.0, worst
    raise AssertionError("unreachable")
