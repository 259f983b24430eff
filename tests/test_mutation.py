"""Mutation engine: matrices, Y-seeds, seeds, g-vector rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bangles.mutation import (
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
    lp_divexact,
    lp_parse,
    rf_eq,
    rf_from_poly,
    rf_inv,
    rf_mul,
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


def test_seed_mutate_a2():
    s = seed_mutate(initial_seed(A2_B), 0)
    names = var_names("x", 2)
    want = rf_mul(rf_from_poly(lp_parse("1 + x2", names)), rf_inv(rf_var(2, 0)))
    assert rf_eq(s.x[0], want)
    assert rf_eq(s.x[1], rf_var(2, 1))
    assert s.b == matrix_mutate(A2_B, 0)


def test_seed_mutate_decoupled_doubles():
    zero = as_matrix([[0, 0], [0, 0]])
    s = seed_mutate(initial_seed(zero), 0)
    want = rf_mul(rf_from_poly(lp_parse("2", ["x1", "x2"])), rf_inv(rf_var(2, 0)))
    assert rf_eq(s.x[0], want)


def test_seed_mutate_involution():
    s0 = initial_seed(A3_B)
    s2 = seed_mutate(seed_mutate(s0, 1), 1)
    assert s2.b == s0.b
    for a, b in zip(s2.x, s0.x):
        assert rf_eq(a, b)


def test_cluster_variables_are_laurent():
    # every variable along these words must clear its denominator exactly
    words = [
        (A2_B, [0, 1, 0, 1, 0, 1]),
        (ANNULUS_B, [0, 1, 0, 1, 0, 1]),
        (A3_B, [1, 0, 2, 1, 0, 2]),
    ]
    for b, word in words:
        s = initial_seed(b)
        for k in word:
            s = seed_mutate(s, k)
            for v in s.x:
                lp_divexact(v.num, v.den)  # raises if not Laurent


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
