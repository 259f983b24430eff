"""Laurent polynomial arithmetic, tropical evaluation, exponent packing."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from bangles import poly, snakegraph
from bangles.poly import (
    ArityError,
    InexactDivisionError,
    NotSubtractionFreeError,
    lp_add,
    lp_binomial_decode,
    lp_binomial_groups,
    lp_divexact,
    lp_format,
    lp_mul,
    lp_one,
    lp_pow,
    lp_sub,
    lp_sorted_terms,
    lp_var,
    trop_eval_many,
    var_names,
)
from columns import as_columns
from packing import pack

Y2 = var_names("y", 2)


def fmt(p, names=Y2):
    return lp_format(p, names)


# ---------------------------------------------------------------------------
# addition / multiplication


def test_add_identity():
    p = {(0, 0): 1, (0, 1): 1, (2, 0): 3}
    assert lp_add(p, {}) == p
    assert lp_add({}, p) == p


def test_add_merges_terms():
    assert fmt(lp_add({(0, 0): 1, (0, 1): 1}, {(1, 1): 1})) == "1 + y2 + y1*y2"


def test_add_cancels_to_zero():
    p = {(0, 0): 2, (1, -3): 1}
    assert lp_add(p, {e: -c for e, c in p.items()}) == {}
    assert lp_sub(p, p) == {}


def test_mul_identity():
    p = {(0, 0): 1, (1, 0): 5, (0, -2): 1}
    assert lp_mul(p, lp_one(2)) == p


def test_mul_laurent_inverse_monomial():
    assert lp_mul({(-1, 0): 1}, {(1, 0): 1}) == lp_one(2)


def test_mul_binomials():
    assert fmt(lp_mul({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1})) == "1 + y2 + y1 + y1*y2"


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        lp_add({(1, 0): 1}, {(1, 0, 0): 1})
    with pytest.raises(ArityError):
        lp_mul({(1, 0): 1}, {(1, 0, 0): 1})


def test_mono_mul_rejects_an_exponent_of_another_arity():
    with pytest.raises(ArityError):
        lp_mul({(1, 2, 3): 1}, {(1, 1): 1})
    assert lp_mul({}, {(1, 1): 1}) == {}


def test_pow_small_cases():
    p = {(0, 0): 1, (1, 0): 1}
    assert lp_pow(p, 0) == lp_one(2)
    assert fmt(lp_pow(p, 3)) == "1 + 3*y1 + 3*y1^2 + y1^3"


def test_pow_matches_repeated_products():
    # every power is a new dict, the first one included
    p = {(0, 0): 1, (1, -1): 2, (0, 2): -1}
    want = lp_one(2)
    for k in range(10):
        got = lp_pow(p, k)
        assert got == want and got is not p
        want = lp_mul(want, p)
    assert lp_pow({}, 0) == lp_one(0) and lp_pow({}, 3) == {}


# ---------------------------------------------------------------------------
# tropical evaluation (min convention)

F_ANNULUS = {(0, 0): 1, (0, 1): 1, (1, 1): 1}  # 1 + y2 + y1*y2


def test_trop_three_term_const():
    assert trop_eval_many(as_columns(F_ANNULUS), [(-1, 2)]) == (0,)


def test_trop_three_term_negative():
    assert trop_eval_many(as_columns({(0, 0): 1, (1, 0): 1, (1, 1): 1}), [(-1, 0)]) == (-1,)


def test_trop_constant_poly():
    assert trop_eval_many(as_columns(lp_one(2)), [(7, -9), (0, 0)]) == (0, 0)


def test_trop_reads_every_direction_in_one_call():
    assert trop_eval_many(as_columns(F_ANNULUS), [(-1, 2), (0, -1), (1, 0), (0, 0)]) == (0, -1, 0, 0)
    assert trop_eval_many(as_columns(F_ANNULUS), []) == ()


def test_trop_rejects_zero_and_negative_coeffs():
    with pytest.raises(ValueError):
        trop_eval_many(([], []), [(1,)])
    with pytest.raises(NotSubtractionFreeError):
        trop_eval_many(as_columns({(0, 0): 1, (1, 0): -1}), [(1, 1)])
    with pytest.raises(ArityError):
        trop_eval_many(as_columns({(0, 0): 1, (1, 0): 1}), [(1, 1), (1,)])
    with pytest.raises(ArityError):  # a column one term short
        trop_eval_many(([0, 1], [0], [1, 1]), [(1, 1)])


# ---------------------------------------------------------------------------
# exact division


def test_divexact_round_trip():
    a = {(0, 0): 1, (1, 0): 1, (0, -1): 1}
    b = {(-2, 0): 1, (0, 1): 1, (1, 1): 3}
    assert lp_divexact(lp_mul(a, b), b) == a


def test_divexact_telescoping_quotient():
    # (u^5 - 1)/(u - 1) has more terms than either operand
    quot = lp_divexact({(5,): 1, (0,): -1}, {(1,): 1, (0,): -1})
    assert fmt(quot, ["u"]) == "1 + u + u^2 + u^3 + u^4"


def test_divexact_rejects_inexact():
    with pytest.raises(InexactDivisionError):
        lp_divexact({(0, 0): 1, (1, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1})


def test_divexact_stops_below_the_lowest_quotient_term():
    # (1 + x2) / (1 + x1): the first quotient term x1^-1*x2 leaves the
    # orthant e >= min(p) - min(q) = (0, 0)
    with pytest.raises(InexactDivisionError, match="outside the orthant"):
        lp_divexact({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1})


def test_divexact_stops_outside_the_box_of_possible_terms():
    # (x1*x2*x3 + x2*x3) / (x2 + x3): the quotient terms x1*x3*(x3/x2)^k
    # would never end, but the first has x2-degree 0 < min_2(p) - min_2(q) = 1
    with pytest.raises(InexactDivisionError, match="outside the orthant"):
        lp_divexact({(1, 1, 1): 1, (0, 1, 1): 1}, {(0, 1, 0): 1, (0, 0, 1): 1})


def test_divexact_long_quotient_takes_one_step_per_term(monkeypatch):
    # (1+x1)^40 (1+x2) / (1+x1): 80 quotient terms, so exactly 80 leading
    # terms come off the heap, and a linear number of heap entries and
    # graded-lex keys are made rather than a graded-lex scan of the whole
    # remainder at every step
    one_x1, one_x2 = {(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}
    p = lp_mul(lp_pow(one_x1, 40), one_x2)
    quot = lp_mul(lp_pow(one_x1, 39), one_x2)
    assert len(quot) == 80
    pops, entries, keys = [], [], []
    heappop, descending = poly.heappop, poly._descending
    monkeypatch.setattr(poly, "heappop", lambda heap: pops.append(1) or heappop(heap))
    monkeypatch.setattr(poly, "_descending", lambda e: entries.append(e) or descending(e))
    monkeypatch.setattr(poly, "grlex_key", lambda e: keys.append(e) or (sum(e), e))
    assert lp_divexact(p, one_x1) == quot
    assert len(pops) == 80
    assert len(entries) < 4 * len(p)
    assert len(keys) < 4 * len(p)


def test_divexact_has_no_step_budget():
    # 316 * 317 = 100,172 quotient terms, more than any step budget of
    # 100,000 would allow
    one_x1, one_x2 = {(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): 1}
    rows = lp_pow(one_x2, 316)
    quot = lp_divexact(lp_mul(lp_pow(one_x1, 316), rows), one_x1)
    assert len(quot) == 100_172
    assert quot == lp_mul(lp_pow(one_x1, 315), rows)


def test_divexact_by_monomial_shifts():
    p = {(1, 0): 1, (2, 1): 1}
    assert fmt(lp_divexact(p, {(1, 0): 1})) == "1 + y1*y2"


# ---------------------------------------------------------------------------
# text form


def test_format_canonical_examples():
    assert fmt({(1, 1): 1, (0, 0): 1, (0, 1): 1}) == "1 + y2 + y1*y2"
    assert fmt({}) == "0"
    assert fmt({(1, 0): -2, (0, -3): 1}) == "y2^-3 - 2*y1"
    assert fmt({(0, 0): 3, (2, -2): -1}) == "3 - y1^2*y2^-2"
    assert fmt({(0, 0): -1, (1, 0): 1}, ["u", "v"]) == "-1 + u"


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


exponents3 = st.tuples(*(st.integers(-3, 3) for _ in range(3)))
polys3 = st.dictionaries(exponents3, coeffs, max_size=4)


@settings(max_examples=300, deadline=None)
@given(polys3, polys3.filter(bool), st.booleans())
def test_division_returns_a_quotient_or_refuses(a, q, multiply):
    # p is drawn freely or as a multiple of q; either way the division ends,
    # and it returns a true quotient or raises, never for a multiple
    p = lp_mul(a, q) if multiply else a
    try:
        d = lp_divexact(p, q)
    except InexactDivisionError:
        assert not multiply
    else:
        assert lp_mul(d, q) == p


@settings(max_examples=150, deadline=None)
@given(pos_polys, pos_polys, st.lists(st.tuples(*[st.integers(-3, 3)] * 2), max_size=3))
def test_trop_is_a_semiring_morphism(p, q, dirs):
    tp, tq = trop_eval_many(as_columns(p), dirs), trop_eval_many(as_columns(q), dirs)
    assert trop_eval_many(as_columns(lp_mul(p, q)), dirs) == tuple(map(sum, zip(tp, tq)))
    assert trop_eval_many(as_columns(lp_add(p, q)), dirs) == tuple(map(min, zip(tp, tq)))


@st.composite
def trop_cases(draw):
    """A subtraction-free polynomial in n variables and directions with
    entries in -3..3, the zero direction among them."""
    n = draw(st.integers(1, 4))
    p = draw(st.dictionaries(st.tuples(*[st.integers(-4, 4)] * n), st.integers(1, 4), min_size=1, max_size=8))
    dirs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4))
    return p, dirs + [(0,) * n]


@settings(max_examples=200, deadline=None)
@given(trop_cases())
def test_trop_is_the_least_dot_product(case):
    p, dirs = case
    assert trop_eval_many(as_columns(p), dirs) == tuple(min(sum(c * e for c, e in zip(d, x)) for x in p) for d in dirs)


def test_large_coefficients_stay_exact():
    one_plus = {(0, 0): 1, (1, 0): 1}
    big = lp_pow(one_plus, 64)
    assert big[(32, 0)] == 1832624140942590534  # C(64, 32)
    assert lp_divexact(big, lp_pow(one_plus, 63)) == one_plus


def test_sorted_terms_graded_lex():
    p = {(1, 0): 1, (0, 1): 1, (0, 0): 1, (1, 1): 1}
    assert [e for e, _ in lp_sorted_terms(p)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


@st.composite
def packable(draw):
    """(width, one vector with full-range fields, vectors whose sum still
    fits): every byte-aligned width the scan packs into, negative fields
    and both ends of the signed range included."""
    width = draw(st.sampled_from([8, 16, 32, 64]))
    n, count = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    half = 2 ** (width - 1)
    vec = draw(st.tuples(*[st.integers(-half, half - 1)] * n))
    full = half - 1
    part = st.tuples(*[st.integers(-(full // count), full // count)] * n)
    return width, vec, draw(st.lists(part, min_size=count, max_size=count))


@settings(max_examples=200, deadline=None)
@given(packable())
def test_packing_round_trips_and_adds(case):
    width, vec, parts = case
    n = len(vec)
    total = tuple(map(sum, zip(*parts)))
    summed = sum(pack(v, width) for v in parts)
    assert pack(total, width) == summed
    cols = snakegraph._unpack([pack(vec, width), summed], n, width)
    assert list(zip(*cols)) == [vec, total]


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_columns_read_both_ends_of_every_width(width):
    lo, hi = -(2 ** (width - 1)), 2 ** (width - 1) - 1
    vecs = [(lo, hi, 0), (hi, lo, -1), (lo, lo, lo), (hi, hi, hi), (0, 0, 1)]
    cols = snakegraph._unpack([pack(v, width) for v in vecs], 3, width)
    assert [c.format for c in cols] == [snakegraph._TYPECODES[width]] * 3
    assert list(zip(*cols)) == vecs
    assert [list(c) for c in snakegraph._unpack([], 3, width)] == [[], [], []]


def test_columns_come_back_in_field_order_on_a_big_endian_host(monkeypatch):
    # A big-endian key writes its last field first.  8-bit fields have no
    # byte order within a field, so this host can stand in for one.
    monkeypatch.setattr(snakegraph, "sys", SimpleNamespace(byteorder="big"))
    vecs = [(1, -2, 3), (-128, 127, 0), (0, 0, -1)]
    cols = snakegraph._unpack([pack(v, 8) for v in vecs], 3, 8)
    assert list(zip(*cols)) == vecs


def test_byte_width_raises_above_64_bits():
    assert [snakegraph._byte_width(b) for b in (0, 127, 128, 2**15, 2**31, 2**63 - 1)] == [
        8, 8, 16, 32, 64, 64
    ]
    with pytest.raises(ValueError, match="64-bit"):
        snakegraph._byte_width(2**63)


# ---------------------------------------------------------------------------
# binomial groups: sums of terms times powers of (1 + v_i), one int per group


def _product_form(terms, n, i):
    """Sum of c * v^e * (1 + v_i)^m over (e, c, m) terms, built from
    products: the oracle."""
    one_plus, out = lp_add(lp_one(n), lp_var(n, i)), {}
    for e, c, m in terms:
        out = lp_add(out, lp_mul({e: c}, lp_pow(one_plus, m)))
    return out


def _side(terms, n):
    """(exponent columns, coefficients, powers) of (e, c, m) terms."""
    return [[e[j] for e, _, _ in terms] for j in range(n)], [c for _, c, _ in terms], [m for *_, m in terms]


@st.composite
def binomial_pairs(draw):
    """(n, i, lhs terms, rhs terms).  The rhs rewrites some lhs terms by
    (1 + v_i)^m = (1 + v_i)^(m-1) + v_i * (1 + v_i)^(m-1), so the two are
    often equal, and then may gain terms of its own."""
    n = draw(st.integers(1, 4))
    i = draw(st.integers(0, n - 1))
    term = st.tuples(st.tuples(*[st.integers(-3, 3)] * n), st.integers(-4, 4), st.integers(0, 4))
    lhs, rhs = draw(st.lists(term, max_size=6)), []
    for e, c, m in lhs:
        if m and draw(st.booleans()):
            rhs += [(e, c, m - 1), (e[:i] + (e[i] + 1,) + e[i + 1 :], c, m - 1)]
        else:
            rhs.append((e, c, m))
    return n, i, lhs, rhs + draw(st.lists(term, max_size=2))


@settings(max_examples=300)
@given(binomial_pairs())
def test_binomial_groups_decide_and_decode_like_the_product_form(case):
    n, i, lhs, rhs = case
    want = [_product_form(terms, n, i) for terms in (lhs, rhs)]
    width, low, groups = lp_binomial_groups([_side(lhs, n), _side(rhs, n)], i)
    assert (groups[0] == groups[1]) == (want[0] == want[1])
    assert [lp_binomial_decode(g, i, width, low) for g in groups] == want


def test_binomial_groups_drop_cancelled_groups():
    # (1 + y1) - y1 = 1, and (1 + y2)^2 - (1 + y2)^2 = 0
    assert lp_binomial_groups([([[0, 1], [0, 0]], [1, -1], [1, 0])], 0)[2] == [{(0,): 1}]
    assert lp_binomial_groups([([[0, 0], [-1, -1]], [1, -1], [2, 2])], 1)[2] == [{}]
    # 2*y1^-1*(1 + y1) - (1 + y1)^2 * y1^-1 = y1^-1 - y1
    width, low, (side,) = lp_binomial_groups([([[-1, -1], [0, 0]], [2, -1], [1, 2])], 0)
    assert fmt(lp_binomial_decode(side, 0, width, low)) == "y1^-1 - y1"


def test_binomial_groups_on_one_variable_keep_every_term():
    # one variable leaves no column to key the groups by; every term is
    # in the one group (), so y1^-1 * (1 + y1) - y1^-1 equals 1, and 1 + y1
    # does not
    width, low, (one, also_one, one_plus) = lp_binomial_groups(
        [([[0]], [1], [0]), ([[-1, -1]], [1, -1], [1, 0]), ([[0, 1]], [1, 1], [0, 0])], 0
    )
    assert one == also_one != one_plus
    assert lp_binomial_decode(one_plus, 0, width, low) == {(0,): 1, (1,): 1}


def test_binomial_groups_separate_a_difference_that_vanishes_one_bit_narrower():
    # y1 against 2^w: M = 1 + 2^w, so the width is w + 2 and y1 - 2^w, which
    # vanishes at y1 = 2^(width-2), is no zero of the ints.  No nonzero
    # difference vanishes at 2^(width-1): its coefficients are at most M.
    for w in (1, 5, 64):
        width, low, (lhs, rhs) = lp_binomial_groups([([[1]], [1], [0]), ([[0]], [1 << w], [0])], 0)
        assert (width, low) == (w + 2, 0)
        assert lhs != rhs
        assert lp_binomial_decode(rhs, 0, width, low) == {(0,): 1 << w}


def test_binomial_groups_reject_bad_sides():
    with pytest.raises(ValueError, match="negative power"):
        lp_binomial_groups([([[0, 1], [0, 0]], [1, 1], [2, -1])], 0)
    with pytest.raises(ArityError):
        lp_binomial_groups([([[0], [0]], [1], [1]), ([[0], [0], [0]], [1], [1])], 0)
    with pytest.raises(IndexError):
        lp_binomial_groups([([[0], [0]], [1], [1])], 2)
    assert lp_binomial_groups([([[], []], [], []), ([[], []], [], [])], 0)[2] == [{}, {}]
