"""Laurent polynomial arithmetic, tropical evaluation, rational equality."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from bangles import _polypure, poly
from bangles.poly import (
    ArityError,
    InexactDivisionError,
    NotSubtractionFreeError,
    PosRational,
    lp_add,
    lp_const,
    lp_divexact,
    lp_format,
    lp_mul,
    lp_neg,
    lp_one,
    lp_parse,
    lp_pow,
    lp_sorted_terms,
    lp_substitute,
    lp_var,
    rf_add,
    rf_eq,
    rf_from_poly,
    rf_inv,
    rf_mul,
    rf_one,
    rf_pow,
    rf_var,
    trop_eval,
    var_names,
)

Y2 = var_names("y", 2)


def P(text, names=Y2):
    return lp_parse(text, names)


# ---------------------------------------------------------------------------
# addition / multiplication


def test_add_identity():
    p = P("1 + y2 + 3*y1^2")
    assert lp_add(p, {}) == p
    assert lp_add({}, p) == p


def test_add_merges_terms():
    assert lp_add(P("1 + y2"), P("y1*y2")) == P("1 + y2 + y1*y2")


def test_add_cancels_to_zero():
    p = P("2 + y1*y2^-3")
    assert lp_add(p, lp_neg(p)) == {}


def test_mul_identity():
    p = P("1 + 5*y1 + y2^-2")
    assert lp_mul(p, lp_one(2)) == p


def test_mul_laurent_inverse_monomial():
    assert lp_mul(P("y1^-1"), P("y1")) == lp_one(2)


def test_mul_binomials():
    assert lp_mul(P("1 + y1"), P("1 + y2")) == P("1 + y1 + y2 + y1*y2")


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        lp_add(P("y1"), lp_parse("u1", ["u1", "u2", "u3"]))
    with pytest.raises(ArityError):
        lp_mul(P("y1"), lp_parse("u1", ["u1", "u2", "u3"]))


def test_pow_small_cases():
    p = P("1 + y1")
    assert lp_pow(p, 0) == lp_one(2)
    assert lp_pow(p, 3) == P("1 + 3*y1 + 3*y1^2 + y1^3")


# ---------------------------------------------------------------------------
# tropical evaluation (min convention)


def test_trop_three_term_const():
    assert trop_eval(P("1 + y2 + y1*y2"), (-1, 2)) == 0


def test_trop_three_term_negative():
    assert trop_eval(P("1 + y1 + y1*y2"), (-1, 0)) == -1


def test_trop_constant_poly():
    assert trop_eval(lp_one(2), (7, -9)) == 0
    assert trop_eval(lp_one(2), (0, 0)) == 0


def test_trop_rejects_zero_and_negative_coeffs():
    with pytest.raises(ValueError):
        trop_eval({}, (1,))
    with pytest.raises(NotSubtractionFreeError):
        trop_eval(P("1 - y1"), (1, 1))


# ---------------------------------------------------------------------------
# rationals


def test_rf_eq_reflexive_sample():
    a = PosRational(P("1 + y1"), P("y2"))
    assert rf_eq(a, a)


def test_rf_eq_common_factor_invariance():
    one_plus = P("1 + y1")
    a = rf_from_poly(one_plus)
    b = PosRational(lp_mul(one_plus, one_plus), one_plus)
    assert rf_eq(a, b)


def test_rf_eq_detects_difference():
    assert not rf_eq(rf_from_poly(P("1 + y1")), rf_from_poly(P("1 + 2*y1")))


def test_rf_zero_parts_rejected():
    with pytest.raises(ZeroDivisionError):
        PosRational({}, lp_one(1))
    with pytest.raises(ZeroDivisionError):
        PosRational(lp_one(1), {})


def test_substitute_identity_args():
    p = P("1 + 2*y1 + y1*y2^-1")
    args = [rf_var(2, 0), rf_var(2, 1)]
    assert rf_eq(lp_substitute(p, args), rf_from_poly(p))


def test_substitute_mutated_coefficients():
    # F = 1 + y1 + y1*y2 at y1 -> 1/y1, y2 -> y2*(1+y1)^2
    f = P("1 + y1 + y1*y2")
    y1p = rf_inv(rf_var(2, 0))
    y2p = rf_mul(rf_var(2, 1), rf_pow(rf_from_poly(P("1 + y1")), 2))
    got = lp_substitute(f, [y1p, y2p])
    want = PosRational(P("y1 + 1 + y2 + 2*y1*y2 + y1^2*y2"), P("y1"))
    assert rf_eq(got, want)
    # exactly D = den_1^1 * den_2^1 = y1 over N, nothing multiplied in twice
    assert got.den == P("y1")
    assert got.num == P("1 + y1 + y2 + 2*y1*y2 + y1^2*y2")


def test_substitute_denominator_does_not_grow_with_terms():
    # seven terms, exponents 0..6 of y1: D = den^6 once, not den^(0+1+...+6)
    p = P("1 + y1 + y1^2 + y1^3 + y1^4 + y1^5 + y1^6")
    arg = PosRational(P("1 + y2"), P("1 + y1"))
    got = lp_substitute(p, [arg, rf_var(2, 1)])
    assert got.den == lp_pow(P("1 + y1"), 6)
    assert rf_eq(got, _substitute_ref(p, [arg, rf_var(2, 1)]))


def test_substitute_negative_exponents_use_numerator_powers():
    # y1^-2 + y1: lo_1 = 2, hi_1 = 1, so D = num^2 * den
    arg = PosRational(P("1 + y2"), P("y1 + y2"))
    got = lp_substitute(P("y1^-2 + y1"), [arg, rf_var(2, 1)])
    assert got.den == lp_mul(lp_pow(P("1 + y2"), 2), P("y1 + y2"))
    assert got.num == lp_add(lp_pow(P("y1 + y2"), 3), lp_pow(P("1 + y2"), 3))


def test_substitute_cancelling_to_zero_raises():
    a = PosRational(P("1 + y1"), P("y2"))
    with pytest.raises(ZeroDivisionError):
        lp_substitute(P("y1*y2^-1 - 1"), [a, a])


def test_substitute_constant():
    assert rf_eq(lp_substitute(lp_one(2), [rf_one(2), rf_var(2, 1)]), rf_one(2))


def test_substitute_arity_checked():
    with pytest.raises(ArityError):
        lp_substitute(P("y1"), [rf_one(2)])


# ---------------------------------------------------------------------------
# exact division


def test_divexact_round_trip():
    a = P("1 + y1 + y2^-1")
    b = P("y1^-2 + y2 + 3*y1*y2")
    assert lp_divexact(lp_mul(a, b), b) == a


def test_divexact_telescoping_quotient():
    # (y1^5 - 1)/(y1 - 1) has more terms than either operand
    names = ["u"]
    num = lp_parse("u^5 - 1", names)
    den = lp_parse("u - 1", names)
    assert lp_divexact(num, den) == lp_parse("u^4 + u^3 + u^2 + u + 1", names)


def test_divexact_rejects_inexact():
    with pytest.raises(InexactDivisionError):
        lp_divexact(P("1 + y1 + y2"), P("1 + y1"))


def test_divexact_stops_below_the_lowest_quotient_term(monkeypatch):
    # unit leading coefficients: only the grlex floor lowest(p)/lowest(q)
    # catches this before the step budget
    monkeypatch.setattr(poly, "DIVEXACT_MAX_STEPS", 10)
    x2 = var_names("x", 2)
    with pytest.raises(InexactDivisionError, match="below the lowest possible term"):
        lp_divexact(P("1 + x2", x2), P("1 + x1", x2))


def test_divexact_stops_outside_the_box_of_possible_terms(monkeypatch):
    # the quotient terms x1*x3*(x3/x2)^k never fall below the grlex floor,
    # but x2 leaves [min_2(p) - min_2(q), max_2(p) - max_2(q)] = [1, 0]
    monkeypatch.setattr(poly, "DIVEXACT_MAX_STEPS", 10)
    x3 = var_names("x", 3)
    with pytest.raises(InexactDivisionError, match="outside the box"):
        lp_divexact(P("x1*x2*x3 + x2*x3", x3), P("x2 + x3", x3))


def test_divexact_by_monomial_shifts():
    p = P("y1 + y1^2*y2")
    assert lp_divexact(p, P("y1")) == P("1 + y1*y2")


# ---------------------------------------------------------------------------
# text round trip


def test_format_canonical_examples():
    assert lp_format(P("y1*y2 + 1 + y2"), Y2) == "1 + y2 + y1*y2"
    assert lp_format({}, Y2) == "0"
    assert lp_format(P("-2*y1 + y2^-3"), Y2) == "y2^-3 - 2*y1"


def test_parse_format_round_trip_samples():
    for text in ["1", "y1", "1 + y2 + y1*y2", "y2^-3 - 2*y1", "3 - y1^2*y2^-2"]:
        p = P(text)
        assert P(lp_format(p, Y2)) == p


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        P("1 + zz9")
    with pytest.raises(ValueError):
        P("")
    for text in ("y1 y2", "2 3", "y1^"):
        with pytest.raises(ValueError):
            P(text)


# ---------------------------------------------------------------------------
# properties

exponents = st.tuples(*(st.integers(-3, 3) for _ in range(2)))
coeffs = st.integers(-4, 4).filter(lambda c: c != 0)
polys = st.dictionaries(exponents, coeffs, max_size=5)
pos_polys = st.dictionaries(exponents, st.integers(1, 4), min_size=1, max_size=5)


@settings(max_examples=150, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert lp_add(a, b) == lp_add(b, a)
    assert lp_add(lp_add(a, b), c) == lp_add(a, lp_add(b, c))
    assert lp_mul(a, b) == lp_mul(b, a)
    assert lp_mul(lp_mul(a, b), c) == lp_mul(a, lp_mul(b, c))
    assert lp_mul(a, lp_add(b, c)) == lp_add(lp_mul(a, b), lp_mul(a, c))


@settings(max_examples=150, deadline=None)
@given(polys, polys)
def test_division_inverts_multiplication(a, b):
    if b:
        assert lp_divexact(lp_mul(a, b), b) == a


@settings(max_examples=150, deadline=None)
@given(pos_polys, pos_polys, st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_trop_is_a_semiring_morphism(p, q, c):
    assert trop_eval(lp_mul(p, q), c) == trop_eval(p, c) + trop_eval(q, c)
    assert trop_eval(lp_add(p, q), c) == min(trop_eval(p, c), trop_eval(q, c))


@settings(max_examples=60, deadline=None)
@given(pos_polys, pos_polys, pos_polys)
def test_rf_eq_equivalence_relation(a, b, c):
    ra, rb, rc = (rf_from_poly(p) for p in (a, b, c))
    scaled = PosRational(lp_mul(a, c), c)
    assert rf_eq(ra, ra)
    assert rf_eq(ra, scaled) and rf_eq(scaled, ra)
    if rf_eq(ra, rb) and rf_eq(rb, rc):
        assert rf_eq(ra, rc)


def _substitute_ref(p, args):
    """Term-by-term substitution with rf_mul/rf_pow/rf_add, as an oracle."""
    out = None
    for e, c in p.items():
        term = rf_from_poly(lp_const(len(args), c))
        for i, a in enumerate(args):
            if e[i]:
                term = rf_mul(term, rf_pow(a, e[i]))
        out = term if out is None else rf_add(out, term)
    return out


# Small enough for the oracle, whose denominators multiply up term by term.
# Arguments have two-term numerators and denominators, so no power is a
# monomial shift.
small_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
substitutables = st.dictionaries(small_exponents, st.integers(1, 4), min_size=1, max_size=4)
binomials = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), st.integers(1, 3), min_size=2, max_size=2
)
pos_rationals = st.builds(PosRational, binomials, binomials)


@settings(max_examples=60, deadline=None)
@given(substitutables, pos_rationals, pos_rationals)
def test_substitute_matches_term_by_term_oracle(p, a, b):
    assert rf_eq(lp_substitute(p, [a, b]), _substitute_ref(p, [a, b]))


def test_large_coefficients_stay_exact():
    big = lp_pow(P("1 + y1"), 64)
    assert big[(32, 0)] == 1832624140942590534  # C(64, 32)
    assert lp_divexact(big, lp_pow(P("1 + y1"), 63)) == P("1 + y1")


def test_sorted_terms_graded_lex():
    p = P("y1 + y2 + 1 + y1*y2")
    assert [e for e, _ in lp_sorted_terms(p)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# packed rationals against the tuple arithmetic on .num/.den

# three variables, negative exponents, up to four terms per part
exponents3 = st.tuples(*[st.integers(-3, 3)] * 3)
parts3 = st.dictionaries(exponents3, st.integers(1, 5), min_size=1, max_size=4)
rationals3 = st.builds(PosRational, parts3, parts3)


def _parts(r):
    return r.num, r.den


@settings(max_examples=100, deadline=None)
@given(rationals3, rationals3, st.integers(-3, 3))
def test_packed_rationals_match_tuple_arithmetic(a, b, k):
    assert _parts(rf_mul(a, b)) == (lp_mul(a.num, b.num), lp_mul(a.den, b.den))
    cross = lp_add(lp_mul(a.num, b.den), lp_mul(b.num, a.den))
    assert _parts(rf_add(a, b)) == (cross, lp_mul(a.den, b.den))
    assert _parts(rf_inv(a)) == (a.den, a.num)
    top, bottom = (a.num, a.den) if k >= 0 else (a.den, a.num)
    assert _parts(rf_pow(a, k)) == (lp_pow(top, abs(k)), lp_pow(bottom, abs(k)))
    assert rf_eq(a, b) == (lp_mul(a.num, b.den) == lp_mul(b.num, a.den))
    assert rf_eq(a, rf_mul(a, rf_mul(b, rf_inv(b))))


@settings(max_examples=100, deadline=None)
@given(parts3, st.integers(0, 2))
def test_packed_constructors_match_tuple_values(p, i):
    assert _parts(rf_from_poly(p)) == (p, lp_one(3))
    assert _parts(rf_one(3)) == (lp_one(3), lp_one(3))
    assert _parts(rf_var(3, i)) == (lp_var(3, i), lp_one(3))


signed_parts3 = st.dictionaries(exponents3, coeffs, min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(signed_parts3, signed_parts3)
def test_packed_rational_round_trips(num, den):
    r = PosRational(num, den)
    assert (r.num, r.den) == (num, den)
    assert r == PosRational(dict(num), dict(den))
    assert pickle.loads(pickle.dumps(r)) == r


def _tuple_substitute(p, args):
    """lp_substitute's common-denominator sum on the tuple-keyed parts."""
    n = len(args)
    lo = [max(0, -min(e[i] for e in p)) for i in range(n)]
    hi = [max(0, max(e[i] for e in p)) for i in range(n)]
    bases = [a.num for a in args] + [a.den for a in args]

    def times(out, exps):
        for base, k in zip(bases, exps):
            out = lp_mul(out, lp_pow(base, k))
        return out

    m = args[0].nvars
    num = {}
    for e, c in p.items():
        num = lp_add(num, times(lp_const(m, c), [x + s for x, s in zip(e, lo)] + [s - x for x, s in zip(e, hi)]))
    return num, times(lp_one(m), lo + hi)


@settings(max_examples=60, deadline=None)
@given(substitutables, rationals3, rationals3)
def test_packed_substitute_matches_tuple_reference(p, a, b):
    assert _parts(lp_substitute(p, [a, b])) == _tuple_substitute(p, [a, b])


def test_exponent_bound_at_the_field_limit_raises_before_computing():
    top = poly._FIELD_LIMIT - 1
    y1, y2 = rf_var(2, 0), rf_var(2, 1)
    # the widest exponents that fit come back exactly, both signs
    edge = PosRational({(top, -top): 1, (0, 0): 1}, lp_one(2))
    assert edge.num == {(top, -top): 1, (0, 0): 1}
    assert rf_pow(y1, top).num == {(top, 0): 1}
    assert lp_substitute({(0, -top): 1}, [y1, y2]).den == {(0, top): 1}
    with pytest.raises(OverflowError):
        PosRational({(0, -top - 1): 1}, lp_one(2))
    # one more in any product would reach the limit; huge powers would
    # take forever to compute, so these raise before any arithmetic
    for reach in (
        lambda: rf_mul(edge, y2),
        lambda: rf_add(edge, y2),
        lambda: rf_eq(edge, y2),
        lambda: rf_mul(rf_pow(y1, top), y1),
        lambda: lp_substitute({(0, -top - 1): 1}, [y1, y2]),
        lambda: rf_pow(y1, 10**12),
        lambda: rf_pow(y1, -(10**12)),
        lambda: lp_substitute({(10**12, 0): 1}, [y1, y2]),
    ):
        with pytest.raises(OverflowError, match="field limit"):
            reach()


@st.composite
def packable(draw):
    """(width, one vector with full-range fields, vectors whose sum still
    fits): widths from the scan's narrowest up past the rationals', negative
    fields included."""
    width = draw(st.integers(2, 2 * poly.FIELD_WIDTH))
    n, count = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    full = 2 ** (width - 1) - 1
    vec = draw(st.tuples(*[st.integers(-full, full)] * n))
    part = st.tuples(*[st.integers(-(full // count), full // count)] * n)
    return width, vec, draw(st.lists(part, min_size=count, max_size=count))


@settings(max_examples=200, deadline=None)
@given(packable())
def test_packing_round_trips_and_adds(case):
    width, vec, parts = case
    n = len(vec)
    assert _polypure._unpack(_polypure._pack(vec, width), n, width) == vec
    total = tuple(map(sum, zip(*parts)))
    packed = sum(_polypure._pack(v, width) for v in parts)
    assert _polypure._pack(total, width) == packed
    assert _polypure._unpack(packed, n, width) == total
