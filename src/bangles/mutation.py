"""Exchange-matrix, seed, Y-seed, and g-vector mutation.

Matrices are tuples of tuples of ints (rows), mutation indices are 0-based.
Cluster variables are Laurent polynomials in the initial variables, never
abstract symbols, so they compare with `==` against matching expansions.
Each exchange divides exactly: a mutation that leaves the Laurent ring
raises InexactDivisionError.  A Y-seed one mutation from the initial
one is kept as exponents: y'_j = y^(a_j) * (1+y_k)^(p_j), so its values
need no rational arithmetic.

Coefficient regime: seeds are coefficient-free (y = 1).  Principal
coefficients are not produced by a 2n x n seed recursion: where they are
consumed, `snakegraph.principal_msw` reads them off the matching sum W,
keeping each matching's height as a y-monomial.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple, Sequence, Tuple

from .poly import Exponent, Poly, lp_add, lp_divexact, lp_mul, lp_one, lp_pow, lp_var

Matrix = Tuple[Tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def is_skew_symmetric(b: Matrix) -> bool:
    n = len(b)
    return all(len(row) == n for row in b) and all(
        b[i][j] == -b[j][i] for i in range(n) for j in range(n)
    )


def _check_index(n: int, k: int) -> None:
    if not 0 <= k < n:
        raise IndexError(f"mutation index {k} out of range for size {n}")


def _sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def matrix_mutate(b: Matrix, k: int) -> Matrix:
    """b'_ij = -b_ij if k in {i,j}, else b_ij + sgn(b_ik)[b_ik*b_kj]+.

    b may be rectangular, with extra coefficient rows below the square
    block.  Those rows mutate through the square block's row k; with top
    block -B(T) the bottom row transforms by the shear transport law,
    g'_k = -g_k and g'_i = g_i + sgn(g_k)[b_ik*g_k]+ for i != k (the tests
    compare it with `gamma_transform` in `tests/oracles.py`).
    """
    n = len(b[0]) if b else 0
    _check_index(n, k)
    out = []
    for i, row in enumerate(b):
        bik = row[k]
        out.append(tuple(
            -v if i == k or j == k else v + _sgn(bik) * max(0, bik * b[k][j])
            for j, v in enumerate(row)
        ))
    return tuple(out)


def gvec_mutate_with_h(g: Sequence[int], h_k: int, b: Matrix, k: int) -> Tuple[int, ...]:
    """g'_k = -g_k; g'_j = g_j + [b_jk]+ g_k - b_jk*h_k for j != k."""
    n = len(b)
    _check_index(n, k)
    out = []
    for j in range(n):
        if j == k:
            out.append(-g[j])
        else:
            out.append(g[j] + max(0, b[j][k]) * g[k] - b[j][k] * h_k)
    return tuple(out)


# ---------------------------------------------------------------------------
# Y-seeds


def yseed_mutate(b: Matrix, k: int) -> Tuple[Tuple[Exponent, int], ...]:
    """The Y-seed one mutation at k from the initial one, as pairs (a_j, p_j)
    with y'_j = y^(a_j) * (1+y_k)^(p_j): y'_k = 1/y_k, and
    y'_j = y_j * y_k^[b_kj]+ * (1+y_k)^(-b_kj) for j != k."""
    n = len(b)
    _check_index(n, k)
    out = []
    for j in range(n):
        a = [0] * n
        if j == k:
            a[k] = -1
            out.append((tuple(a), 0))
        else:
            a[j], a[k] = 1, max(0, b[k][j])
            out.append((tuple(a), -b[k][j]))
    return tuple(out)


# ---------------------------------------------------------------------------
# seeds


class Seed(NamedTuple):
    b: Matrix
    x: Tuple[Poly, ...]

    @property
    def n(self) -> int:
        return len(self.b)


def initial_seed(b: Sequence[Sequence[int]]) -> Seed:
    bm = as_matrix(b)
    if not is_skew_symmetric(bm):
        raise ValueError("exchange matrix must be skew-symmetric")
    n = len(bm)
    return Seed(bm, tuple(lp_var(n, i) for i in range(n)))


def seed_mutate(s: Seed, k: int) -> Seed:
    """Coefficient-free exchange: x'_k * x_k = prod_+ + prod_-, B mutated.
    x'_k is an exact quotient (InexactDivisionError if it is not Laurent)."""
    n = s.n
    _check_index(n, k)
    # each product starts from its first factor, not from the constant one
    plus, minus = [], []
    for j in range(n):
        bjk = s.b[j][k]
        if bjk:
            (plus if bjk > 0 else minus).append(lp_pow(s.x[j], abs(bjk)))
    plus, minus = (reduce(lp_mul, fs) if fs else lp_one(n) for fs in (plus, minus))
    new_xk = lp_divexact(lp_add(plus, minus), s.x[k])
    x = list(s.x)
    x[k] = new_xk
    return Seed(matrix_mutate(s.b, k), tuple(x))
