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

Rationals are kept packed: each part keys its terms by one int, one signed
FIELD_WIDTH-bit field per exponent, so a product adds ints, not tuples.
Every rf_* operation and `lp_substitute` works on the packed parts and
hands packed parts on; `.num` and `.den` unpack only when read.  Each
rational carries a bound on its exponent magnitudes, derived per operation
(products add bounds, powers multiply them), and an operation whose bound
would reach the field limit raises OverflowError before computing, so no
field ever carries into its neighbour.  `Poly` stays tuple-keyed: its
products are mostly one term by a few, where packing and unpacking each
operand would cost more than the int adds save.  Rationals are a closed
family, so their values stay packed from one operation to the next.

The inner loops (term merge, product accumulation, and the packed product)
live in `_polypure`, with the shared `_pack`/`_unpack` encoding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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
    exact quotient's terms all sit at or above lowest(p)/lowest(q).  The
    Newton polytope of a product is the Minkowski sum of its factors'
    polytopes, so they also sit in the box min_i(p) - min_i(q) <= e_i <=
    max_i(p) - max_i(q).  Quotient terms strictly decrease in graded lex
    and the box is finite, so every division ends.  Building the box takes
    a pass over every exponent of p and q, a large share of a short
    division, so it is built and checked only from step len(p) + 1 on: no
    exact quotient ever leaves it, and the delay postpones an inexact
    division's raise by at most len(p) steps.
    InexactDivisionError is raised by a quotient term below the floor or
    outside the box, by a leading coefficient that does not divide, and by
    a blown step budget: an exact quotient with more than
    DIVEXACT_MAX_STEPS terms, or an inexact division that would take
    longer to leave the box.
    """
    if not q:
        raise ZeroDivisionError("division by zero polynomial")
    _check_arity(p, q)
    if not p:
        return {}
    eq, cq = lp_leading(q)
    floor = tuple(x - y for x, y in zip(min(p, key=grlex_key), min(q, key=grlex_key)))
    floor_key = grlex_key(floor)
    box = None
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
        if steps > len(p):
            if box is None:
                box = [(min(a) - min(b), max(a) - max(b)) for a, b in zip(zip(*p), zip(*q))]
            if not all(lo <= x <= hi for x, (lo, hi) in zip(e, box)):
                raise InexactDivisionError(f"quotient term {e} outside the box of possible terms {box}")
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
# subtraction-free rationals, packed

# Bits per exponent field of a packed rational.  Every exponent of a
# rational stays below _FIELD_LIMIT in magnitude, so no field can carry
# into its neighbour.
FIELD_WIDTH = 16
_FIELD_LIMIT = 1 << (FIELD_WIDTH - 1)


def _bounded(bound: int) -> int:
    """The exponent bound of a result about to be computed, checked first:
    OverflowError once it reaches the field limit, so nothing ever wraps."""
    if bound >= _FIELD_LIMIT:
        raise OverflowError(f"exponent bound {bound} reaches the packed field limit {_FIELD_LIMIT}")
    return bound


def _pack_part(p: Poly) -> dict:
    return {_kernel._pack(e, FIELD_WIDTH): c for e, c in p.items()}


def _unpack_part(p: dict, nvars: int) -> Poly:
    return {_kernel._unpack(k, nvars, FIELD_WIDTH): c for k, c in p.items()}


class PosRational:
    """Unreduced fraction of Laurent polynomials; equality via rf_eq.

    Both parts are held packed, `nvars` fields per key, and `bound` caps
    the magnitude of every exponent in them.  `num` and `den` unpack to
    tuple-keyed Polys on each read.  `==` is structural: the same parts,
    term for term.  Instances are immutable.
    """

    __slots__ = ("nvars", "bound", "_num", "_den")

    def __new__(cls, num: Poly, den: Poly) -> PosRational:
        _check_arity(num, den)
        n = lp_arity(num)
        bound = max((abs(x) for part in (num, den) for e in part for x in e), default=0)
        return _rational(n, _bounded(bound), _pack_part(num), _pack_part(den))

    @property
    def num(self) -> Poly:
        return _unpack_part(self._num, self.nvars)

    @property
    def den(self) -> Poly:
        return _unpack_part(self._den, self.nvars)

    def __setattr__(self, name, value):
        raise AttributeError("PosRational is immutable")

    def __eq__(self, other):
        if not isinstance(other, PosRational):
            return NotImplemented
        return (self.nvars, self._num, self._den) == (other.nvars, other._num, other._den)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PosRational(num={self.num!r}, den={self.den!r})"

    def __reduce__(self):
        return PosRational, (self.num, self.den)


def _rational(nvars: int, bound: int, num: dict, den: dict) -> PosRational:
    """A PosRational from packed parts and a bound on their exponents."""
    if not num or not den:
        raise ZeroDivisionError("PosRational parts must be nonzero")
    r = object.__new__(PosRational)
    put = object.__setattr__
    put(r, "nvars", nvars)
    put(r, "bound", bound)
    put(r, "_num", num)
    put(r, "_den", den)
    return r


def _common_arity(a: PosRational, b: PosRational) -> int:
    if a.nvars != b.nvars:
        raise ArityError(f"arity mismatch: {a.nvars} vs {b.nvars}")
    return a.nvars


def _pow_packed(p: dict, k: int) -> dict:
    out = {0: 1}
    while k:
        if k & 1:
            out = _kernel.mul_packed(out, p)
        k >>= 1
        if k:
            p = _kernel.mul_packed(p, p)
    return out


def rf_from_poly(p: Poly) -> PosRational:
    n = lp_arity(p)
    return PosRational(p, lp_one(n if n is not None else 0))


def rf_one(nvars: int) -> PosRational:
    return _rational(nvars, 0, {0: 1}, {0: 1})


def rf_var(nvars: int, i: int) -> PosRational:
    if not 0 <= i < nvars:
        raise IndexError(f"variable {i} out of range for arity {nvars}")
    return _rational(nvars, 1, {1 << (i * FIELD_WIDTH): 1}, {0: 1})


def rf_mul(a: PosRational, b: PosRational) -> PosRational:
    n = _common_arity(a, b)
    bound = _bounded(a.bound + b.bound)
    return _rational(n, bound, _kernel.mul_packed(a._num, b._num), _kernel.mul_packed(a._den, b._den))


def rf_inv(a: PosRational) -> PosRational:
    return _rational(a.nvars, a.bound, a._den, a._num)


def rf_add(a: PosRational, b: PosRational) -> PosRational:
    n = _common_arity(a, b)
    bound = _bounded(a.bound + b.bound)
    num = _kernel.mul_packed(b._num, a._den, _kernel.mul_packed(a._num, b._den))
    return _rational(n, bound, num, _kernel.mul_packed(a._den, b._den))


def rf_pow(a: PosRational, k: int) -> PosRational:
    if k < 0:
        return rf_pow(rf_inv(a), -k)
    return _rational(a.nvars, _bounded(a.bound * k), _pow_packed(a._num, k), _pow_packed(a._den, k))


def rf_eq(a: PosRational, b: PosRational) -> bool:
    _common_arity(a, b)
    _bounded(a.bound + b.bound)
    return _kernel.mul_packed(a._num, b._den) == _kernel.mul_packed(b._num, a._den)


def lp_substitute(p: Poly, args: Sequence[PosRational]) -> PosRational:
    """Substitute args[i] = num_i/den_i for variable i; result stays unreduced.

    With hi_i the largest positive exponent of variable i in p and lo_i the
    magnitude of its most negative one (0 if there is none), the result is
    N / D over the one common denominator D = prod num_i^lo_i * den_i^hi_i.
    Each term c * vars^e adds c * prod num_i^(e_i+lo_i) * den_i^(hi_i-e_i)
    to N; both exponents are >= 0, so N is a plain polynomial (no gcd), and
    no exponent of N or D exceeds sum_i (lo_i + hi_i) * bound_i.
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
    nvars = args[0].nvars
    for a in args:
        _common_arity(args[0], a)
    lo = [max(0, -min(e[i] for e in p)) for i in range(n)]
    hi = [max(0, max(e[i] for e in p)) for i in range(n)]
    bound = _bounded(sum((l + h) * a.bound for l, h, a in zip(lo, hi, args)))
    one = {0: 1}
    # ladders[j] = [b, b^2, ...] for b = num_j (j < n) or den_(j-n), grown
    # on demand; None marks a base equal to 1
    ladders = [[b] if b != one else None for b in [a._num for a in args] + [a._den for a in args]]

    def times(term: dict, exps: Sequence[int], into: Optional[dict] = None) -> dict:
        """term * prod_j ladders[j]^exps[j], added into `into` when given."""
        powers = []
        for ladder, k in zip(ladders, exps):
            if k and ladder:
                while len(ladder) < k:
                    ladder.append(_kernel.mul_packed(ladder[-1], ladder[0]))
                powers.append(ladder[k - 1])
        for power in powers[:-1]:
            term = _kernel.mul_packed(term, power)
        return _kernel.mul_packed(term, powers[-1] if powers else one, into)

    num: dict = {}
    for e, c in p.items():
        times({0: c}, [x + s for x, s in zip(e, lo)] + [s - x for x, s in zip(e, hi)], num)
    return _rational(nvars, bound, num, times(one, lo + hi))


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
