"""Mutation engine: matrices, Y-seeds, seeds, g-vector rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bangles.mutation import (
    Seed,
    as_matrix,
    gamma_transform,
    gvec_mutate_with_h,
    initial_seed,
    initial_y,
    is_skew_symmetric,
    matrix_mutate,
    seed_mutate,
    yseed_mutate,
)
from bangles.poly import (
    InexactDivisionError,
    lp_monomial,
    lp_parse,
    lp_var,
    rf_add,
    rf_eq,
    rf_from_poly,
    rf_inv,
    rf_mul,
    rf_one,
    rf_pow,
    rf_var,
    var_names,
)

ANNULUS_B = as_matrix([[0, -2], [2, 0]])
A2_B = as_matrix([[0, -1], [1, 0]])
A3_B = as_matrix([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])


def random_skew(rng: random.Random, n: int) -> tuple:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-3, 3)
            rows[i][j] = v
            rows[j][i] = -v
    return as_matrix(rows)


# ---------------------------------------------------------------------------
# matrix mutation


def test_matrix_mutate_rank2():
    assert matrix_mutate(ANNULUS_B, 0) == as_matrix([[0, 2], [-2, 0]])


def test_matrix_mutate_a3_middle():
    assert matrix_mutate(A3_B, 1) == as_matrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])


def test_matrix_mutate_involutive_and_skew():
    rng = random.Random(20260823)
    for _ in range(200):
        n = rng.randint(2, 6)
        b = random_skew(rng, n)
        k = rng.randrange(n)
        bm = matrix_mutate(b, k)
        assert is_skew_symmetric(bm)
        assert matrix_mutate(bm, k) == b


def test_matrix_mutate_bad_index():
    with pytest.raises(IndexError):
        matrix_mutate(ANNULUS_B, 2)


# ---------------------------------------------------------------------------
# Y-seed mutation


def test_yseed_rank2_example():
    y = initial_y(2)
    y1p, y2p = yseed_mutate(y, ANNULUS_B, 0)
    names = var_names("y", 2)
    assert rf_eq(y1p, rf_inv(rf_var(2, 0)))
    want = rf_from_poly(lp_parse("y2 + 2*y1*y2 + y1^2*y2", names))
    assert rf_eq(y2p, want)


def test_yseed_involution():
    y = initial_y(2)
    yp = yseed_mutate(y, ANNULUS_B, 0)
    ypp = yseed_mutate(yp, matrix_mutate(ANNULUS_B, 0), 0)
    for a, b in zip(ypp, y):
        assert rf_eq(a, b)


def test_yseed_decoupled():
    zero = as_matrix([[0, 0], [0, 0]])
    y1p, y2p = yseed_mutate(initial_y(2), zero, 0)
    assert rf_eq(y1p, rf_inv(rf_var(2, 0)))
    assert rf_eq(y2p, rf_var(2, 1))


# ---------------------------------------------------------------------------
# seed mutation


def _rational_seed_mutate(b, x, k):
    """The exchange over unreduced rationals, kept as an oracle."""
    n = len(b)
    plus = minus = rf_one(n)
    for j in range(n):
        if b[j][k] > 0:
            plus = rf_mul(plus, rf_pow(x[j], b[j][k]))
        elif b[j][k] < 0:
            minus = rf_mul(minus, rf_pow(x[j], -b[j][k]))
    x = list(x)
    x[k] = rf_mul(rf_add(plus, minus), rf_inv(x[k]))
    return matrix_mutate(b, k), tuple(x)


def _assert_matches_rational_oracle(b, word):
    s = initial_seed(b)
    ob, ox = s.b, tuple(rf_var(s.n, i) for i in range(s.n))
    for k in word:
        s = seed_mutate(s, k)
        ob, ox = _rational_seed_mutate(ob, ox, k)
        assert s.b == ob
        for v, want in zip(s.x, ox):
            assert rf_eq(rf_from_poly(v), want)


def test_seed_mutate_a2():
    s = seed_mutate(initial_seed(A2_B), 0)
    names = var_names("x", 2)
    assert s.x == (lp_parse("x1^-1 + x1^-1*x2", names), lp_var(2, 1))
    assert s.b == matrix_mutate(A2_B, 0)


def test_seed_mutate_decoupled_doubles():
    zero = as_matrix([[0, 0], [0, 0]])
    s = seed_mutate(initial_seed(zero), 0)
    assert s.x[0] == lp_parse("2*x1^-1", ["x1", "x2"])


def test_seed_mutate_involution():
    s0 = initial_seed(A3_B)
    s2 = seed_mutate(seed_mutate(s0, 1), 1)
    assert s2.b == s0.b
    assert s2.x == s0.x


def test_cluster_variables_are_laurent():
    # seed_mutate divides exactly (it raises if a variable is not Laurent);
    # each variable must equal the rational exchange's value
    words = [
        (A2_B, [0, 1, 0, 1, 0, 1]),
        (ANNULUS_B, [0, 1, 0, 1, 0, 1]),
        (A3_B, [1, 0, 2, 1, 0, 2]),
    ]
    for b, word in words:
        _assert_matches_rational_oracle(b, word)
    s = seed_mutate(initial_seed(ANNULUS_B), 0)
    assert s.x[0] == lp_parse("x1^-1 + x1^-1*x2^2", var_names("x", 2))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_seed_mutate_matches_rational_oracle(data):
    n = data.draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = data.draw(st.integers(-2, 2))
            rows[j][i] = -rows[i][j]
    word = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    _assert_matches_rational_oracle(as_matrix(rows), word)


def test_seed_mutate_rejects_a_non_laurent_exchange():
    # (1 + x2) / (2*x1) has no integer Laurent form
    s = Seed(A2_B, (lp_monomial((1, 0), 2), lp_var(2, 1)))
    with pytest.raises(InexactDivisionError):
        seed_mutate(s, 0)


# ---------------------------------------------------------------------------
# g-vector transforms


def test_gamma_zero_fixed():
    assert gamma_transform((0, 0), ANNULUS_B, 0) == (0, 0)


def test_gamma_annulus_example():
    assert gamma_transform((1, -1), ANNULUS_B, 0) == (-1, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.tuples(*(st.integers(-4, 4) for _ in range(4))))
def test_gamma_involutive(seed, g):
    rng = random.Random(seed)
    b = random_skew(rng, 4)
    k = rng.randrange(4)
    assert gamma_transform(gamma_transform(g, b, k), matrix_mutate(b, k), k) == tuple(g)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.tuples(*(st.integers(-4, 4) for _ in range(4))))
def test_gvec_with_h_matches_gamma_at_min(seed, g):
    rng = random.Random(seed)
    b = random_skew(rng, 4)
    k = rng.randrange(4)
    h_k = min(0, g[k])
    assert gvec_mutate_with_h(g, h_k, b, k) == gamma_transform(g, b, k)


def test_gvec_with_h_annulus_flip():
    got = gvec_mutate_with_h((1, -1), 0, ANNULUS_B, 0)
    assert got == (-1, 1)


# ---------------------------------------------------------------------------
# extended matrices


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000), st.tuples(*(st.integers(-4, 4) for _ in range(4))))
def test_ext_bottom_row_is_gamma(seed, g):
    rng = random.Random(seed)
    b = random_skew(rng, 4)
    k = rng.randrange(4)
    neg_b = tuple(tuple(-v for v in row) for row in b)
    m = neg_b + (tuple(g),)
    mm = matrix_mutate(m, k)
    assert mm[-1] == gamma_transform(g, b, k)
    assert mm[:4] == tuple(tuple(-v for v in row) for row in matrix_mutate(b, k))


def test_ext_zero_bottom_row_stays_zero():
    m = tuple(tuple(-v for v in row) for row in ANNULUS_B) + ((0, 0),)
    assert matrix_mutate(m, 0)[-1] == (0, 0)


def test_ext_involution():
    m = tuple(tuple(-v for v in row) for row in A3_B) + ((1, -2, 3),)
    assert matrix_mutate(matrix_mutate(m, 2), 2) == m
