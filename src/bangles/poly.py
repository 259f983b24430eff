"""Exact multivariate Laurent polynomials.

Representation: a polynomial is a dict mapping exponent tuples (length =
number of variables, negative entries allowed) to nonzero int coefficients.
The zero polynomial is the empty dict.  All arithmetic is exact; coefficients
are Python ints, so matching counts can grow without overflow.

Term order is graded lexicographic (total degree first, then the exponent
tuple); it fixes printing, equality of rendered forms, and the leading term
used by exact division.

A polynomial can also be read in column form: one sequence per variable
holding that exponent of each term, then one holding the coefficients,
term by term in one order, every key distinct.  F-polynomials are kept so
from the transfer scan to the key-lemma check; `column_dot` reads a dot
product down the columns in C, and `trop_eval_many` evaluates tropically
on them.

Every value the checks compare is a Laurent polynomial: cluster variables
by the Laurent phenomenon, and the key-lemma F identity once its
denominators, a monomial times a power of (1+y_k), are cleared.  No
rational function is ever formed.

The inner loops live in `_polypure`: term merge, product accumulation, and
the groups of `lp_binomial_groups`, which holds a sum of terms times
powers of (1 + v_i) as one int per group of terms that agree off v_i,
its polynomial in v_i evaluated at a power of two wide enough that equal
ints mean equal polynomials; no power of (1 + v_i) is expanded, and
`lp_binomial_decode` reads a side back only when it is printed.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import add, lt, mul, neg, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import _polypure as _kernel

Exponent = Tuple[int, ...]
Poly = Dict[Exponent, int]


class ArityError(ValueError):
    """Operands live in rings with different numbers of variables."""


class InexactDivisionError(ArithmeticError):
    """Laurent division left a nonzero remainder."""


class NotSubtractionFreeError(ValueError):
    """A negative coefficient reached a subtraction-free context."""


# ---------------------------------------------------------------------------
# constructors


def lp_const(nvars: int, c: int) -> Poly:
    return {(0,) * nvars: c} if c else {}


def lp_one(nvars: int) -> Poly:
    return lp_const(nvars, 1)


def lp_var(nvars: int, i: int) -> Poly:
    """The variable_i (0-based i)."""
    if not 0 <= i < nvars:
        raise IndexError(f"variable {i} out of range for arity {nvars}")
    return {tuple(int(j == i) for j in range(nvars)): 1}


def lp_arity(p: Poly) -> int | None:
    """Number of variables, or None for the zero polynomial."""
    for e in p:
        return len(e)
    return None


def _check_arity(p: Poly, q: Poly) -> None:
    a, b = lp_arity(p), lp_arity(q)
    if a is not None and b is not None and a != b:
        raise ArityError(f"arity mismatch: {a} vs {b}")


# ---------------------------------------------------------------------------
# ring operations


def lp_add(p: Poly, q: Poly) -> Poly:
    _check_arity(p, q)
    return _kernel.add_merge(p, q)


def lp_neg(p: Poly) -> Poly:
    return {e: -c for e, c in p.items()}


def lp_sub(p: Poly, q: Poly) -> Poly:
    return lp_add(p, lp_neg(q))


def lp_mul(p: Poly, q: Poly) -> Poly:
    _check_arity(p, q)
    return _kernel.mul_accum(p, q)


def lp_binomial_groups(sides: Sequence[tuple], i: int) -> Tuple[int, int, List[dict]]:
    """Each side, a sum of c * vars^e * (1 + variable_i)^m over its terms,
    held as one int per group of terms that agree off entry i: (width, low,
    one dict per side from each group's key, e with entry i removed, to its
    int).  A side is (exponent columns, coefficients, powers m >= 0), a
    term per row.  Two sides are equal exactly when their dicts are.

    With low the least of 0 and every exponent of variable_i, a group's sum
    is variable_i^low * G(variable_i) times its key's monomial, G a
    polynomial with int coefficients; its int is G(2^width).  A term
    c * vars^e * (1 + variable_i)^m adds c * (2^width + 1)^m <<
    width * (e_i - low) to it, so no side is expanded.  Exactness: the
    coefficients of (1 + v)^m add up to 2^m, so no coefficient of any G,
    or of any difference of two sides' G, exceeds M = the sum over all
    terms of |c| * 2^(greatest m of its side) in size, and width =
    M.bit_length() + 1 makes M < 2^(width-1).  A nonzero polynomial D with
    top coefficient d_t and every coefficient less than X = 2^width in size
    has |D(X) - d_t X^t| <= (X-1)(1 + X + ... + X^(t-1)) = X^t - 1 <
    |d_t X^t|, so D(X) != 0.  So equal ints mean equal groups, a group of
    int 0 is zero and is dropped, and the balanced base-2^width digits of
    a group's int are G's coefficients (`lp_binomial_decode`).
    """
    n = len(sides[0][0]) if sides else 0
    if not 0 <= i < n:
        raise IndexError(f"variable {i} out of range for arity {n}")
    bound = top = low = 0
    for cols, coeffs, powers in sides:
        if len(cols) != n:
            raise ArityError(f"arity mismatch: {n} vs {len(cols)}")
        if coeffs:
            m = max(powers)
            if min(powers) < 0:
                raise ValueError("negative power of a polynomial")
            bound += sum(map(abs, coeffs)) << m
            top, low = max(top, m), min(low, min(cols[i]))
    width = bound.bit_length() + 1
    table = [1]  # (2^width + 1)^m at m
    for _ in range(top):
        table.append(table[-1] * ((1 << width) + 1))
    return width, low, [_kernel.group_sum(side, i, table, width, low) for side in sides]


# lp_binomial_decode(groups, i, width, low): the side that one dict of
# `lp_binomial_groups(sides, i)` holds, as a Laurent polynomial
lp_binomial_decode = _kernel.group_decode


def lp_pow(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power of a polynomial")
    if k == 0:
        n = lp_arity(p)
        return lp_one(n if n is not None else 0)
    # square up to the lowest set bit of k, then start from that power
    while not k & 1:
        p, k = lp_mul(p, p), k >> 1
    out = dict(p)
    k >>= 1
    while k:
        p = lp_mul(p, p)
        if k & 1:
            out = lp_mul(out, p)
        k >>= 1
    return out


def grlex_key(e: Exponent) -> tuple:
    return (sum(e), e)


def lp_sorted_terms(p: Poly) -> List[Tuple[Exponent, int]]:
    return sorted(p.items(), key=lambda t: grlex_key(t[0]))


def lp_divexact(p: Poly, q: Poly) -> Poly:
    """Exact quotient p/q in the Laurent ring.

    Long division on graded-lex leading terms, with one stopping rule.  Let
    a and b hold the least exponents of p and q in each variable.  Then
    P = p * x^-a and Q = q * x^-b are polynomials and no variable divides
    Q.  If p = d * q, then P = D * Q with D = d * x^-lo, lo = a - b, and D
    is a polynomial: in each variable the lowest parts of D and Q multiply
    to a nonzero part of P.  So every exact quotient term lies in the
    orthant e >= lo, and a quotient term outside it proves the division
    inexact.  Inside the orthant, a step subtracts c * x^e * q, whose terms
    lie in a + N^n, so the remainder stays there.  Each step cancels the
    remainder's leading term and adds only lower ones, and graded lex
    well-orders a + N^n, so every division ends; an exact one takes one
    step per quotient term.  The remainder's terms sit in a heap ordered by
    descending graded lex, so each leading term is found in log time; a
    term that has cancelled is dropped when it surfaces.
    InexactDivisionError is raised by a quotient term outside the orthant
    and by a leading coefficient that does not divide.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    _check_arity(p, q)
    if not p:
        return {}
    eq = max(q, key=grlex_key)
    cq = q[eq]
    lo = tuple(map(sub, map(min, zip(*p)), map(min, zip(*q))))
    quot: Poly = {}
    rem = dict(p)
    heap = [_descending(e) for e in rem]
    heapify(heap)
    while rem:
        er = heappop(heap)[2]
        while er not in rem:
            er = heappop(heap)[2]
        cr = rem[er]
        c, leftover = divmod(cr, cq)
        if leftover:
            raise InexactDivisionError(f"leading coefficient {cr} not divisible by {cq}")
        e = tuple(map(sub, er, eq))
        if any(map(lt, e, lo)):
            raise InexactDivisionError(f"quotient term {e} outside the orthant of possible terms, e >= {lo}")
        quot[e] = c
        for eq_i, cq_i in q.items():  # rem -= c * vars^e * q, in place
            k = tuple(map(add, eq_i, e))
            old = rem.get(k, 0)
            v = old - c * cq_i
            if v:
                if not old:
                    heappush(heap, _descending(k))
                rem[k] = v
            else:
                del rem[k]
    return quot


def _descending(e: Exponent) -> tuple:
    """Heap entry for e: entries pop in descending graded lex order, e last."""
    return -sum(e), tuple(map(neg, e)), e


# ---------------------------------------------------------------------------
# tropical evaluation


def column_dot(cols: Sequence[Sequence[int]], c: Sequence[int], size: int) -> Iterable[int]:
    """Term by term, the dot product of c with the exponents of size terms
    that cols hold as columns: one lazy chain of `map`s, run in C, that
    reads only c's nonzero entries and starts from the first of them.  For
    a unit vector c that is one of cols itself, so callers only iterate."""
    sums: Optional[Iterable[int]] = None
    for x, col in zip(c, cols):
        if not x:
            continue
        if sums is None:
            sums = col if x == 1 else map(mul, col, repeat(x))
        elif x == 1:
            sums = map(add, sums, col)
        elif x == -1:
            sums = map(sub, sums, col)
        else:
            sums = map(add, sums, map(mul, col, repeat(x)))
    return repeat(0, size) if sums is None else sums


def trop_eval_many(p: Sequence[Sequence[int]], dirs: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """For each weight vector c in dirs, min over exponent vectors e of p of
    the dot product c . e; p is in column form.

    This is evaluation in the tropical semifield Trop(u) at u^{c_i}: the sum
    of two powers of u is the power with the smaller exponent, so a
    subtraction-free p evaluates to u^(the integer read for c).
    """
    *cols, coeffs = p
    if not coeffs:
        raise ValueError("tropical evaluation of zero polynomial")
    if min(coeffs) < 0:
        raise NotSubtractionFreeError("polynomial has a negative coefficient")
    if set(map(len, cols)) - {len(coeffs)} or set(map(len, dirs)) - {len(cols)}:
        raise ArityError("weight vector arity mismatch")
    return tuple(min(column_dot(cols, c, len(coeffs))) for c in dirs)


# ---------------------------------------------------------------------------
# text form: `1 + y2 + y1*y2`, exponents as `^k`, 1-based variable names


def var_names(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def xy_names(n: int) -> List[str]:
    """Joint naming for 2n-variable values laid out as x_1..x_n, y_1..y_n."""
    return var_names("x", n) + var_names("y", n)


def lp_format(p: Poly, names: Sequence[str]) -> str:
    if not p:
        return "0"
    parts: List[str] = []
    for e, c in lp_sorted_terms(p):
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k:
                factors.append(f"{names[i]}^{k}")
        mag = abs(c)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)
