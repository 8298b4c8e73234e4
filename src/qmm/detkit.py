"""Determinant identities: the Vandermonde determinant and inverse, the
exp-kernel factorization and its ratio (the unitary-group integral),
Cauchy-Binet, and the two closed-form rational determinants.

Exact rational arithmetic where the identities are exact (Beta and
shifted-factorial determinants, Cauchy-Binet on rational input); mpmath
for the exp-kernel determinants, whose values (~1e-55 at n=7) are far
below what float64 cancellation can resolve.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import numpy as np

DISTINCT_RTOL = 1e-12


def vandermonde_det(nodes) -> float:
    """prod_{k<l} (x_l - x_k) of a sequence of nodes.

    Nodes may be floats, Fractions (exact result), mpmath numbers, or
    numpy arrays of equal shape, e.g. list(lam.T) for a per-row product.
    """
    x = list(nodes)
    out = 1.0 if not isinstance(x[0] if x else 0, (Fraction, int)) else Fraction(1)
    for k, l in combinations(range(len(x)), 2):
        out = out * (x[l] - x[k])
    return out


def inverse_vandermonde(nodes) -> np.ndarray:
    """Inverse of V_ij = x_j^(i-1) via elementary symmetric polynomials.

    Row k, column i: (-1)^(i-1) e_{n-i}(x without x_k) / prod_{t!=k}(x_t-x_k).
    Raises ValueError unless every node gap exceeds DISTINCT_RTOL times the
    largest |x|.
    """
    x = list(nodes)
    scale = max((abs(v) for v in x), default=1.0) or 1.0
    if any(abs(u - v) <= DISTINCT_RTOL * scale for u, v in combinations(x, 2)):
        raise ValueError("nodes must be pairwise distinct")
    n = len(x)
    out = np.empty((n, n), dtype=complex if any(isinstance(v, complex) for v in x) else float)
    for k in range(n):
        others = x[:k] + x[k + 1:]
        # entry j of np.poly is (-1)^j e_j(others); reversed and divided by
        # prod(x_k - x_t), it is row k of the formula in the docstring
        coeffs = np.atleast_1d(np.poly(others))
        out[k] = coeffs[::-1] / math.prod(x[k] - v for v in others)
    return out


# ---------------------------------------------------------------------------
# exp-kernel factorization


def _mp_nodes(x, y):
    """Both node sequences as lists of mpmath numbers."""

    def convert(nodes):
        return [mp.mpc(v) if isinstance(v, complex) else mp.mpf(v) for v in nodes]

    xs, ys = convert(x), convert(y)
    if not xs:
        raise ValueError("need at least one node")
    if len(ys) != len(xs):
        raise ValueError("node sets must have equal size")
    return xs, ys


def _exp_kernel(xs, ys, c, pair=None):
    """Rows e^(c x_k y_l) and the factored form c^binom(n,2) Delta(x) Delta(y) / prod_{m<n} m!.

    With pair = (i, j), column j holds the divided difference
    e^(c x y_i) expm1(c x h) / h, h = y_j - y_i (c x e^(c x y_i) at h = 0),
    and Delta(y) drops its factor h: both sides lose the same factor, so
    their ratio is unchanged and stays finite as y_j -> y_i.
    """
    n = len(xs)
    rows = [[mp.exp(c * xk * yl) for yl in ys] for xk in xs]
    if pair is None:
        dy = vandermonde_det(ys)
    else:
        i, j = pair
        h = ys[j] - ys[i]
        for xk, row in zip(xs, rows):
            row[j] = row[i] * (mp.expm1(c * xk * h) / h if h else c * xk)
        dy = mp.fprod(ys[l] - ys[k] for k, l in combinations(range(n), 2) if (k, l) != pair)
    fact = c ** (n * (n - 1) // 2) * vandermonde_det(xs) * dy
    for t in range(n):
        fact /= mp.factorial(t)
    return rows, fact


def exp_det_factorization(x, y, c=1.0):
    """det exp(c x_k y_l) and its rank-limited factorization.

    Returns (exact, factored, in_window) where
    factored = c^binom(n,2) Delta(x) Delta(y) / prod_{m<n} m!  (identical
    to the determinant of the n-term truncated power series) and the ratio
    exact/factored tends to 1 as n max|x| max|y| -> 0; in_window reports
    that advisory smallness condition (< 1).  The determinants cancel to
    ~8n digits and come back as mpmath numbers, which do not underflow.
    Coincident nodes are fine here: both sides just vanish.
    """
    xs, ys = _mp_nodes(x, y)
    with mp.workdps(max(30, 12 * len(xs))):
        rows, fact = _exp_kernel(xs, ys, mp.mpmathify(c))
        exact = _square_det(rows)
    window = len(xs) * max(abs(complex(v)) for v in xs) * max(abs(complex(v)) for v in ys)
    return exact, fact, window < 1.0


def exp_kernel_ratio(x, y, c: float) -> float:
    """exact/factored of exp_det_factorization as one float, real c.

    The closest y pair enters as its divided difference (see _exp_kernel),
    so one coincident y pair is exact, with no tolerance; c = 0 gives the
    limit 1.  Raises ValueError for empty or unequal sizes, coincident x
    nodes or more than one coincident y pair.
    """
    xs, ys = _mp_nodes(x, y)
    n = len(xs)
    if c == 0:
        return 1.0
    if len(set(xs)) < n:
        raise ValueError("coincident x nodes not supported")
    pair = min(combinations(range(n), 2), key=lambda p: abs(ys[p[1]] - ys[p[0]]), default=None)
    with mp.workdps(max(30, 12 * n)):
        rows, fact = _exp_kernel(xs, ys, mp.mpf(c), pair)
        if fact == 0:
            raise ValueError("more than one coincident y pair")
        return float(_square_det(rows) / fact)


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
    """Dense determinant of a list of rows by det_rows, on a copy.

    int entries become Fractions, so integer and rational input stays
    exact; the empty matrix has determinant 1.
    """
    if not rows:
        return 1
    return det_rows([[Fraction(v) if isinstance(v, int) else v for v in row] for row in rows])


def det_rows(rows):
    """Determinant of a square matrix given as rows of entries of one field.

    Entries are Fractions (exact result), mpmath numbers (at the caller's
    working precision), float or complex scalars, or finite arrays of one
    leading shape: rows[k][l] then holds entry (k, l) at every point of
    that shape (0-d for one matrix) and the result has that shape.
    Gaussian elimination with partial pivoting runs elementwise over the
    leading shape, so a batch of small matrices costs O(n^3) array
    operations instead of one LAPACK call per matrix.  Pivoting keeps
    every multiplier at most 1 in magnitude, so a tiny (even subnormal)
    pivot cannot overflow, and a zero pivot (a singular point) gives det 0
    without dividing by it.  The lists in rows are the work space: their
    entries are replaced by the elimination's own values, which it
    updates in place; the arrays passed in are only read.
    """
    n = len(rows)
    det = 1
    flip = False
    for c in range(n):
        for r in range(c + 1, n):
            swap = abs(rows[r][c]) > abs(rows[c][c])
            flip = flip ^ swap
            keep = np.logical_not(swap)
            # blending finite entries by weights 0 and 1 is exact, and cheaper
            # than np.where's per-element branch on a mask that is half set
            for l in range(c, n):
                a, b = rows[c][l], rows[r][l]
                rows[c][l] = a * keep + b * swap
                rows[r][l] = b * keep + a * swap
        piv = rows[c][c]
        det = det * piv
        piv = piv + (piv == 0)  # zero only over a zero column
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
    return _square_det([[beta(k, l) for l in range(1, n + 1)] for k in range(1, n + 1)])


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
    return _square_det([[entry(k, l) for l in range(n)] for k in range(n)])

