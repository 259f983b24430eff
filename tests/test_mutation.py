"""Mutation engine: matrices, Y-seeds, seeds, g-vector rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bangles.mutation import (
    Seed,
    as_matrix,
    gvec_mutate_with_h,
    initial_seed,
    is_skew_symmetric,
    matrix_mutate,
    seed_mutate,
    yseed_mutate,
)
from bangles.poly import (
    InexactDivisionError,
    lp_add,
    lp_format,
    lp_mul,
    lp_one,
    lp_pow,
    lp_var,
    var_names,
)

from oracles import gamma_transform

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


def _initial_pairs(n):
    """The initial Y-seed as (a_j, p_j) pairs: y_j = y^(e_j) * (1+y_k)^0."""
    return tuple((tuple(int(i == j) for i in range(n)), 0) for j in range(n))


def _mutate_back(yp, b, k):
    """mu_k, with matrix b, of a Y-seed y'_j = y^(a_j) * (1+y_k)^(p_j) whose
    y'_k is y_k^-1, so that 1 + y'_k = y_k^-1 * (1+y_k):
    y''_k = 1/y'_k and y''_j = y'_j * y'_k^[b_kj]+ * (1+y'_k)^(-b_kj)."""
    ak, pk = yp[k]
    assert pk == 0 and ak == tuple(-int(i == k) for i in range(len(b)))
    out = []
    for j, (a, p) in enumerate(yp):
        if j == k:
            out.append((tuple(-x for x in a), -p))
        else:
            c = max(0, b[k][j]) - b[k][j]
            out.append((tuple(x + c * y for x, y in zip(a, ak)), p - b[k][j]))
    return tuple(out)


def test_yseed_rank2_example():
    y1p, y2p = yseed_mutate(ANNULUS_B, 0)
    # y1' = y1^-1, y2' = y2 * (1+y1)^2
    assert y1p == ((-1, 0), 0)
    assert y2p == ((0, 1), 2)
    a, p = y2p
    value = lp_mul(lp_pow({(0, 0): 1, (1, 0): 1}, p), {a: 1})
    assert lp_format(value, var_names("y", 2)) == "y2 + 2*y1*y2 + y1^2*y2"


def test_yseed_involution():
    yp = yseed_mutate(ANNULUS_B, 0)
    assert _mutate_back(yp, matrix_mutate(ANNULUS_B, 0), 0) == _initial_pairs(2)


def test_yseed_decoupled():
    zero = as_matrix([[0, 0], [0, 0]])
    assert yseed_mutate(zero, 0) == (((-1, 0), 0), ((0, 1), 0))


# ---------------------------------------------------------------------------
# seed mutation


def _assert_exchange_relations(b, word):
    """Each step's new variable against the rational exchange
    x'_k = (prod_+ + prod_-) / x_k with its denominator cleared,
    x'_k * x_k == prod_+ + prod_-, so the oracle multiplies where
    seed_mutate divides; the other variables stay and the matrix is
    matrix_mutate's."""
    s = initial_seed(b)
    for k in word:
        t = seed_mutate(s, k)
        plus = minus = lp_one(s.n)
        for j in range(s.n):
            if s.b[j][k] > 0:
                plus = lp_mul(plus, lp_pow(s.x[j], s.b[j][k]))
            elif s.b[j][k] < 0:
                minus = lp_mul(minus, lp_pow(s.x[j], -s.b[j][k]))
        assert lp_mul(t.x[k], s.x[k]) == lp_add(plus, minus)
        assert t.x[:k] + t.x[k + 1 :] == s.x[:k] + s.x[k + 1 :]
        assert t.b == matrix_mutate(s.b, k)
        s = t


def test_seed_mutate_a2():
    s = seed_mutate(initial_seed(A2_B), 0)
    assert lp_format(s.x[0], var_names("x", 2)) == "x1^-1 + x1^-1*x2"
    assert s.x[1] == lp_var(2, 1)
    assert s.b == matrix_mutate(A2_B, 0)


def test_seed_mutate_decoupled_doubles():
    zero = as_matrix([[0, 0], [0, 0]])
    s = seed_mutate(initial_seed(zero), 0)
    assert lp_format(s.x[0], var_names("x", 2)) == "2*x1^-1"


def test_seed_mutate_involution():
    s0 = initial_seed(A3_B)
    s2 = seed_mutate(seed_mutate(s0, 1), 1)
    assert s2.b == s0.b
    assert s2.x == s0.x


def test_cluster_variables_are_laurent():
    # seed_mutate divides exactly (it raises if a variable is not Laurent);
    # each new variable must satisfy its exchange relation
    words = [
        (A2_B, [0, 1, 0, 1, 0, 1]),
        (ANNULUS_B, [0, 1, 0, 1, 0, 1]),
        (A3_B, [1, 0, 2, 1, 0, 2]),
    ]
    for b, word in words:
        _assert_exchange_relations(b, word)
    s = seed_mutate(initial_seed(ANNULUS_B), 0)
    assert lp_format(s.x[0], var_names("x", 2)) == "x1^-1 + x1^-1*x2^2"


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
    _assert_exchange_relations(as_matrix(rows), word)


def test_seed_mutate_rejects_a_non_laurent_exchange():
    # (1 + x2) / (2*x1) has no integer Laurent form
    s = Seed(A2_B, ({(1, 0): 2}, lp_var(2, 1)))
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
