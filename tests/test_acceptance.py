"""Release gate: one timed criterion per test, each printing a verdict line.

Every check is exact (integer and Laurent polynomial arithmetic);
the budgets are wall-clock ceilings enforced after each body runs.
"""

import random
import time

from bangles.curve import arc_curve, normalize_curve, transport_curve
from bangles.fixtures import SURFACES, load_surface
from bangles.harness import (
    _arc_sweep,
    _closed_fixture,
    _keylemma_sweep,
    _shear_sweep,
    verify_key_lemma_word,
)
from bangles.mutation import initial_seed, is_skew_symmetric, matrix_mutate, seed_mutate, yseed_mutate
from bangles.snakegraph import (
    build_band_graph,
    build_snake_graph,
    snake_F_poly,
    snake_h_vector,
)
from bangles.surface import adjacency_matrix, flip

from oracles import matching_sum


def _criterion(name, budget, body):
    start = time.perf_counter()
    body()
    elapsed = time.perf_counter() - start
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"


def test_criterion_1_annulus_reproduction():
    def body():
        t = load_surface("annulus")
        core = _closed_fixture(t, "annulus")
        b = adjacency_matrix(t)
        assert b == ((0, -2), (2, 0))

        g1 = build_band_graph(t, core)
        assert snake_F_poly(g1) == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
        assert snake_h_vector(g1)[0] == 0

        res = flip(t, 1)
        moved = transport_curve(core, res.quad)
        g2 = build_band_graph(res.triangulation, moved)
        assert snake_F_poly(g2) == {(0, 0): 1, (1, 0): 1, (1, 1): 1}
        assert snake_h_vector(g2)[0] == -1

        # y'_j = y^(a_j) * (1+y1)^(p_j): y'_1 = y1^-1, y'_2 = y2 * (1+y1)^2
        assert yseed_mutate(b, 0) == (((-1, 0), 0), ((0, 1), 2))

        reports = verify_key_lemma_word(t, core, [1])
        assert all(r.passed for r in reports)

    _criterion("annulus reproduction", 1.0, body)


def test_criterion_2_key_lemma_sweep():
    def body():
        out = []
        for name in SURFACES:
            _keylemma_sweep(name, 4, out)
        assert out
        assert all(r.passed for r in out)
        # each closed-curve fixture contributed
        for name in ("annulus", "annulus2", "torus-boundary"):
            assert any(r.case.startswith(name + ":") for r in out)

    _criterion("key lemma sweep, words to length 4", 120.0, body)


def test_criterion_3_shear_transport():
    def body():
        out = []
        for name in SURFACES:
            _shear_sweep(name, out)
        assert out
        assert all(r.passed for r in out)
        assert any(r.identity == "g-equals-shear" for r in out)
        assert any(r.identity == "shear-flip" for r in out)

    _criterion("shear transport across corpus flips", 60.0, body)


def test_criterion_4_arc_bangles_vs_mutation():
    def body():
        out = []
        for name in ("pentagon", "hexagon", "heptagon", "octagon", "annulus"):
            _arc_sweep(name, 5, out)
        assert len(out) >= 50
        assert all(r.passed for r in out)
        # every diagonal is checked once, in the first cluster that holds it
        per_surface = {}
        for r in out:
            per_surface.setdefault(r.case.split(":", 1)[0], []).append(r.lhs)
        counts = {name: len(lhs) for name, lhs in per_surface.items()}
        assert counts == {"pentagon": 5, "hexagon": 9, "heptagon": 14, "octagon": 20, "annulus": 12}
        assert all(len(set(lhs)) == len(lhs) for lhs in per_surface.values())

    _criterion("arc expansions vs mutation engine, words to length 5", 120.0, body)


def _graph_corpus():
    graphs = []
    seen = set()
    for name in SURFACES:
        t = load_surface(name)
        core = _closed_fixture(t, name)
        if core is not None:
            graphs.append(build_band_graph(t, core))
        # arcs of nearby triangulations, pulled back over short flip words
        stack = [(t, (), [])]
        while stack:
            cur, quads, word = stack.pop()
            for j in range(1, t.n_arcs + 1):
                c = normalize_curve(
                    _pull_back(arc_curve(j), quads)
                )
                if c.steps and (name, c) not in seen:
                    seen.add((name, c))
                    graphs.append(build_snake_graph(t, c))
            if len(word) < 3:
                for k in range(1, t.n_arcs + 1):
                    if word and word[-1] == k:
                        continue
                    res = flip(cur, k)
                    if res.quad is None:
                        continue
                    stack.append((res.triangulation, quads + (res.quad,), word + [k]))
    return [g for g in graphs if g.d <= 8]


def _pull_back(c, quads):
    for q in reversed(quads):
        c = transport_curve(c, q, forward=False)
    return c


def test_criterion_5_matching_oracle():
    def body():
        graphs = _graph_corpus()
        assert len(graphs) >= 20
        assert any(g.band for g in graphs)
        for g in graphs:
            assert matching_sum(g) == g.principal_msw

    _criterion("transfer DP vs the matching oracle", 60.0, body)


def test_criterion_6_structural_invariants():
    def body():
        rng = random.Random(17)  # fixed so reruns see the same matrices
        for _ in range(200):
            n = rng.randint(2, 6)
            b = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    b[i][j] = rng.randint(-3, 3)
                    b[j][i] = -b[i][j]
            b = tuple(tuple(row) for row in b)
            k = rng.randrange(n)

            m = matrix_mutate(b, k)
            assert is_skew_symmetric(m)
            assert matrix_mutate(m, k) == b

            extra = tuple(
                tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2)
            )
            ext = tuple(tuple(-v for v in row) for row in b) + extra
            assert matrix_mutate(matrix_mutate(ext, k), k) == ext

            # mutate y' back at k under m = mu_k(B): y''_k = 1/y'_k, and
            # y''_j = y'_j * y'_k^[m_kj]+ * (1+y'_k)^(-m_kj) with y'_k = y_k^-1,
            # so 1+y'_k = y_k^-1 * (1+y_k); it must be the initial Y-seed
            yp = yseed_mutate(b, k)
            ak, pk = yp[k]
            assert pk == 0 and ak == tuple(-int(i == k) for i in range(n))
            back = []
            for j, (a, p) in enumerate(yp):
                if j == k:
                    back.append((tuple(-x for x in a), -p))
                else:
                    c = max(0, m[k][j]) - m[k][j]
                    back.append((tuple(x + c * y for x, y in zip(a, ak)), p - m[k][j]))
            assert back == [(tuple(int(i == j) for i in range(n)), 0) for j in range(n)]

            seed = initial_seed(b)
            again = seed_mutate(seed_mutate(seed, k), k)
            assert again.b == seed.b
            assert again.x == seed.x

        for name in SURFACES:
            t = load_surface(name)
            cases = []
            core = _closed_fixture(t, name)
            if core is not None:
                cases.append(build_band_graph(t, core))
            for k in range(1, t.n_arcs + 1):
                res = flip(t, k)
                if res.quad is None:
                    continue
                back = transport_curve(arc_curve(k), res.quad, forward=False)
                cases.append(build_snake_graph(t, back))
            for g in cases:
                f = snake_F_poly(g)
                assert f[(0,) * t.n_arcs] == 1
                assert all(coef > 0 for coef in f.values())
                assert all(h <= 0 for h in snake_h_vector(g))

    _criterion("mutation involutions and expansion signs", 30.0, body)
