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
    numpy arrays of one shape, e.g. the rows of a (k, m) block for one
    product per column.
    """
    x = list(nodes)
    out = 1  # the nodes' own arithmetic picks the field, as in det_rows
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


def exp_kernel_nodes(n: int) -> list[float]:
    """The n table nodes (k + 1) n^(-7/4), k < n, of the exp-kernel ratios."""
    return [(k + 1) * n**-1.75 for k in range(n)]


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
        exact = det_rows(rows)
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
        return float(det_rows(rows) / fact)


def cauchy_binet_det(a, b):
    """det(A B) as the sum over m-subsets of minor products.

    A is m x n, B is n x m; exact on Fraction input.  m > n has no
    m-subset and returns 0 (rank).
    """
    rows_a = [list(r) for r in a]
    rows_b = [list(r) for r in b]
    m = len(rows_a)
    n = len(rows_a[0]) if rows_a else 0
    if len(rows_b) != n or (rows_b and len(rows_b[0]) != m):
        raise ValueError("shape mismatch: need (m x n) and (n x m)")
    total = 0
    for subset in combinations(range(n), m):
        minor_a = [[rows_a[i][j] for j in subset] for i in range(m)]
        minor_b = [[rows_b[j][i] for i in range(m)] for j in subset]
        total = total + det_rows(minor_a) * det_rows(minor_b)
    return total


def det_rows(rows):
    """Determinant of a square matrix given as rows of entries of one field.

    Entries are ints or Fractions (exact result; the ints become
    Fractions), mpmath numbers (at the caller's working precision), float
    or complex scalars, or float arrays (Python and numpy scalars allowed
    among them) that broadcast to one leading shape: rows[k][l] then
    holds entry (k, l) at every point of that shape (0-d for one matrix)
    and the result has that shape.  The empty matrix has determinant 1.
    Gaussian elimination with partial pivoting runs elementwise over the
    leading shape, so a batch of small matrices costs O(n^3) array
    operations instead of one LAPACK call per matrix.  Pivoting keeps
    every multiplier at most 1 in magnitude, so a tiny (even subnormal)
    pivot cannot overflow, and a zero pivot (a singular point) gives det 0
    without dividing by it.  The lists in rows are the work space, so a
    caller passes lists it does not read again: their entries are
    replaced by the elimination's own values, which it updates in place.
    A pivot swap exchanges two row lists when no entry is an array.  With
    any array entry (0-d included) every entry is first replaced, one at
    a time, by a float64 copy of the leading shape, so the arrays passed
    in are only read, and a swap exchanges the two rows' bit patterns in
    place at the points where it holds: d = (a ^ b) & mask; a ^= d;
    b ^= d on uint64 views, which moves every value exactly.  Array
    entries of any other common type (complex, object or long double,
    say) raise ValueError.
    """
    n = len(rows)
    arrays = any(isinstance(v, np.ndarray) for row in rows for v in row)
    if arrays:
        # a list, not a generator: unpacking a generator of np.shape calls
        # here grew small-object memory by 250 KB over 3,000 calls
        # (numpy 2.4, CPython 3.11), which raised the mc benchmark's peak RSS
        shape = np.broadcast_shapes(*[np.shape(v) for row in rows for v in row])
        dtype = np.result_type(np.float64, *{np.result_type(v) for row in rows for v in row})
        if dtype != np.float64:
            raise ValueError(f"det_rows takes float arrays, not {dtype}")
        # entry by entry, and no name keeps an original, so each one is
        # released as its copy replaces it
        bits = []
        for row in rows:
            for l in range(n):
                copy = np.empty(shape)
                copy[...] = row[l]
                row[l] = copy
            bits.append([v.view(np.uint64) for v in row])
        diff = np.empty_like(bits[0][0])
    else:
        for row in rows:
            row[:] = [Fraction(v) if isinstance(v, int) else v for v in row]
    det = 1
    flip = False
    for c in range(n):
        for r in range(c + 1, n):
            swap = abs(rows[r][c]) > abs(rows[c][c])
            flip = flip ^ swap
            if not arrays:
                if swap:
                    rows[c], rows[r] = rows[r], rows[c]
                continue
            mask = np.subtract(0, swap, dtype=np.uint64)  # all ones where swap
            for a, b in zip(bits[c][c:], bits[r][c:]):
                np.bitwise_xor(a, b, out=diff)
                diff &= mask
                a ^= diff
                b ^= diff
        piv = rows[c][c]
        det = det * piv
        piv = piv + (piv == 0)  # zero only over a zero column
        for r in range(c + 1, n):
            rows[r][c] /= piv  # the multiplier; the entry is not read again
            for l in range(c + 1, n):
                rows[r][l] -= rows[r][c] * rows[c][l]
    if not arrays:
        return -det if flip else det
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
    return det_rows([[beta(k, l) for l in range(1, n + 1)] for k in range(1, n + 1)])


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
    return det_rows([[entry(k, l) for l in range(n)] for k in range(n)])

