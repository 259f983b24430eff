"""Exact multivariate Laurent polynomials and subtraction-free rationals.

Representation: a polynomial is a dict mapping exponent tuples (length =
number of variables, negative entries allowed) to nonzero int coefficients.
The zero polynomial is the empty dict.  All arithmetic is exact; coefficients
are Python ints, so matching counts can grow without overflow.

Term order is graded lexicographic (total degree first, then the exponent
tuple); it fixes printing, equality of rendered forms, and the leading term
used by exact division.

Rationals are unreduced num/den pairs compared by cross-multiplication
(`rf_eq`); no gcd is ever computed.  They serve only values that really are
rational (Y-seeds and the key-lemma F identity); cluster variables are
Laurent polynomials.

The two inner loops (term merge and product accumulation) live in
`_polypure`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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


def lp_var(nvars: int, i: int, power: int = 1) -> Poly:
    """The monomial variable_i^power (0-based i)."""
    if not 0 <= i < nvars:
        raise IndexError(f"variable {i} out of range for arity {nvars}")
    if power == 0:
        return lp_one(nvars)
    e = [0] * nvars
    e[i] = power
    return {tuple(e): 1}


def lp_monomial(e: Sequence[int], c: int = 1) -> Poly:
    return {tuple(e): c} if c else {}


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


def lp_scale(p: Poly, c: int) -> Poly:
    if c == 0:
        return {}
    return {e: c * v for e, v in p.items()}


def lp_mul(p: Poly, q: Poly) -> Poly:
    _check_arity(p, q)
    return _kernel.mul_accum(p, q)


def lp_mono_mul(p: Poly, e: Sequence[int], c: int = 1) -> Poly:
    """Multiply by the monomial c * vars^e (fast path, no dict churn)."""
    if c == 0:
        return {}
    et = tuple(e)
    return {tuple(x + y for x, y in zip(k, et)): c * v for k, v in p.items()}


def lp_pow(p: Poly, k: int) -> Poly:
    if k < 0:
        raise ValueError("negative power of a polynomial; use rf_pow")
    n = lp_arity(p)
    out = lp_one(n if n is not None else 0)
    base = p
    while k:
        if k & 1:
            out = lp_mul(out, base)
        base_needed = k >> 1
        if base_needed:
            base = lp_mul(base, base)
        k = base_needed
    return out


def grlex_key(e: Exponent) -> tuple:
    return (sum(e), e)


def lp_leading(p: Poly) -> Tuple[Exponent, int]:
    """Leading term under graded lex; raises on zero."""
    if not p:
        raise ValueError("zero polynomial has no leading term")
    e = max(p, key=grlex_key)
    return e, p[e]


def lp_sorted_terms(p: Poly) -> List[Tuple[Exponent, int]]:
    return sorted(p.items(), key=lambda t: grlex_key(t[0]))


# lp_divexact's step budget: an exact quotient takes one step per term.
DIVEXACT_MAX_STEPS = 100_000


def lp_divexact(p: Poly, q: Poly) -> Poly:
    """Exact quotient p/q in the Laurent ring.

    Long division on graded-lex leading terms.  In the Laurent ring every
    monomial divides every other, so each step cancels the remainder's
    leading term; for exact quotients the number of steps equals the number
    of quotient terms.  Graded lex is translation-invariant on Z^n, so an
    exact quotient's terms all sit at or above lowest(p)/lowest(q).
    InexactDivisionError is raised by a quotient term below that bound, by
    a leading coefficient that does not divide, and by a blown step budget:
    an inexact division that never clears its remainder nor falls below
    the bound, or an exact quotient with more than DIVEXACT_MAX_STEPS terms.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    _check_arity(p, q)
    if not p:
        return {}
    eq, cq = lp_leading(q)
    floor = tuple(x - y for x, y in zip(min(p, key=grlex_key), min(q, key=grlex_key)))
    floor_key = grlex_key(floor)
    quot: Poly = {}
    rem = dict(p)
    steps = 0
    while rem:
        steps += 1
        if steps > DIVEXACT_MAX_STEPS:
            raise InexactDivisionError(f"division took more than {DIVEXACT_MAX_STEPS} steps")
        er, cr = lp_leading(rem)
        c, leftover = divmod(cr, cq)
        if leftover:
            raise InexactDivisionError(f"leading coefficient {cr} not divisible by {cq}")
        e = tuple(x - y for x, y in zip(er, eq))
        if grlex_key(e) < floor_key:
            raise InexactDivisionError(f"quotient term {e} below the lowest possible term {floor}")
        quot[e] = c
        for eq_i, cq_i in q.items():  # rem -= c * vars^e * q, in place
            k = tuple(x + y for x, y in zip(eq_i, e))
            v = rem.get(k, 0) - c * cq_i
            if v:
                rem[k] = v
            else:
                del rem[k]
    return quot


# ---------------------------------------------------------------------------
# tropical evaluation


def assert_subtraction_free(p: Poly) -> None:
    if any(c < 0 for c in p.values()):
        raise NotSubtractionFreeError("polynomial has a negative coefficient")


def trop_eval(p: Poly, c: Sequence[int]) -> int:
    """min over exponent vectors e of p of the dot product c . e.

    This is evaluation in the tropical semifield Trop(u) at u^{c_i}: the sum
    of two powers of u is the power with the smaller exponent, so a
    subtraction-free p evaluates to u^(the returned integer).
    """
    if not p:
        raise ValueError("tropical evaluation of zero polynomial")
    assert_subtraction_free(p)
    cv = tuple(c)
    if any(len(e) != len(cv) for e in p):
        raise ArityError("weight vector arity mismatch")
    return min(sum(x * y for x, y in zip(e, cv)) for e in p)


# ---------------------------------------------------------------------------
# subtraction-free rationals


@dataclass(frozen=True)
class PosRational:
    """Unreduced fraction of Laurent polynomials; equality via rf_eq."""

    num: Poly
    den: Poly

    def __post_init__(self):
        if not self.num or not self.den:
            raise ZeroDivisionError("PosRational parts must be nonzero")


def rf_from_poly(p: Poly) -> PosRational:
    n = lp_arity(p)
    return PosRational(p, lp_one(n if n is not None else 0))


def rf_one(nvars: int) -> PosRational:
    return PosRational(lp_one(nvars), lp_one(nvars))


def rf_var(nvars: int, i: int) -> PosRational:
    return PosRational(lp_var(nvars, i), lp_one(nvars))


def rf_mul(a: PosRational, b: PosRational) -> PosRational:
    return PosRational(lp_mul(a.num, b.num), lp_mul(a.den, b.den))


def rf_inv(a: PosRational) -> PosRational:
    return PosRational(a.den, a.num)


def rf_add(a: PosRational, b: PosRational) -> PosRational:
    return PosRational(
        lp_add(lp_mul(a.num, b.den), lp_mul(b.num, a.den)),
        lp_mul(a.den, b.den),
    )


def rf_pow(a: PosRational, k: int) -> PosRational:
    if k < 0:
        return rf_pow(rf_inv(a), -k)
    return PosRational(lp_pow(a.num, k), lp_pow(a.den, k))


def rf_eq(a: PosRational, b: PosRational) -> bool:
    return lp_mul(a.num, b.den) == lp_mul(b.num, a.den)


def lp_substitute(p: Poly, args: Sequence[PosRational]) -> PosRational:
    """Substitute args[i] = num_i/den_i for variable i; result stays unreduced.

    With hi_i the largest positive exponent of variable i in p and lo_i the
    magnitude of its most negative one (0 if there is none), the result is
    N / D over the one common denominator D = prod num_i^lo_i * den_i^hi_i.
    Each term c * vars^e adds c * prod num_i^(e_i+lo_i) * den_i^(hi_i-e_i)
    to N; both exponents are >= 0, so N is a plain polynomial (no gcd).
    Each power is built once per call and factors equal to 1 are skipped.
    A result that cancels to zero raises ZeroDivisionError.
    """
    n = lp_arity(p)
    if n is None:
        raise ValueError("cannot substitute into the zero polynomial (arity unknown)")
    if len(args) != n:
        raise ArityError(f"expected {n} substitution values, got {len(args)}")
    if not args:
        return rf_from_poly(p)
    one = lp_one(lp_arity(args[0].num))
    lo = [max(0, -min(e[i] for e in p)) for i in range(n)]
    hi = [max(0, max(e[i] for e in p)) for i in range(n)]
    # ladders[j] = [b, b^2, ...] for b = num_j (j < n) or den_(j-n), grown
    # on demand; None marks a base equal to 1
    ladders = [[b] if b != one else None for b in [a.num for a in args] + [a.den for a in args]]

    def times(out: Poly, exps: Sequence[int]) -> Poly:
        for ladder, k in zip(ladders, exps):
            if k and ladder:
                while len(ladder) < k:
                    ladder.append(lp_mul(ladder[-1], ladder[0]))
                out = lp_mul(out, ladder[k - 1])
        return out

    num: Poly = {}
    for e, c in p.items():
        exps = [x + s for x, s in zip(e, lo)] + [s - x for x, s in zip(e, hi)]
        num = lp_add(num, times(lp_scale(one, c), exps))
    return PosRational(num, times(one, lo + hi))


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


def lp_parse(text: str, names: Sequence[str]) -> Poly:
    """Parse the grammar produced by lp_format (sums of integer monomials)."""
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    tokens = _tokenize(text)
    pos = 0
    out: Poly = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError("polynomial text ends mid-term")
        tok = tokens[pos]
        pos += 1
        return tok

    first = True
    while peek() is not None:
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
            first = False
        if peek() is None:
            raise ValueError("dangling sign in polynomial text")
        coeff = sign
        e = [0] * n
        expect_factor = True
        while expect_factor:
            tok = take()
            if tok.lstrip("-").isdigit():
                coeff *= int(tok)
            elif tok in index:
                k = 1
                if peek() == "^":
                    take()
                    k = int(take())
                e[index[tok]] += k
            else:
                raise ValueError(f"unknown token {tok!r}")
            if peek() == "*":
                take()
            else:
                expect_factor = False
        if peek() not in (None, "+", "-"):
            raise ValueError(f"missing operator before {peek()!r}")
        out = lp_add(out, lp_monomial(e, coeff))
        first = False
    if first:
        raise ValueError("empty polynomial text")
    return out


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            # a sign directly after ^ binds to the exponent number
            if ch == "-" and tokens and tokens[-1] == "^" and i + 1 < len(text) and text[i + 1].isdigit():
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                tokens.append(ch)
                i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r}")
    return tokens
