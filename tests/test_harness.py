import ast
import gc
import itertools
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

import bangles.harness as harness
import bangles.snakegraph as snakegraph
import bangles.surface as surface
from bangles.curve import normalize_curve, parse_curve, transport_curve
from bangles.fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from bangles.harness import (
    IDENTITIES,
    CorpusConfig,
    VerificationReport,
    report_text,
    run_corpus,
    verify_arc_bangle,
    verify_g_equals_shear,
    verify_key_lemma_word,
    verify_shear_flip,
)
from bangles.mutation import initial_seed, yseed_mutate
from bangles.poly import (
    InexactDivisionError,
    lp_add,
    lp_binomial_decode,
    lp_mul,
    lp_one,
    lp_pow,
    lp_var,
)
from bangles.snakegraph import build_band_graph

from columns import as_columns, as_dict
from oracles import state_key_by_rank


def _annulus_core():
    t = load_surface("annulus")
    return t, parse_curve(t, load_curve_text("annulus-core"))


def test_identity_names_are_fixed():
    assert IDENTITIES == (
        "keylemma-F",
        "keylemma-g",
        "keylemma-h",
        "shear-flip",
        "g-equals-shear",
        "arc-vs-cluster",
    )


def test_key_lemma_on_annulus():
    t, c = _annulus_core()
    reports = verify_key_lemma_word(t, c, [1])
    assert [r.identity for r in reports] == ["keylemma-F", "keylemma-g", "keylemma-h"]
    assert all(r.passed for r in reports)
    # a passing report formats no sides; a failing one prints both
    assert all(r.lhs == r.rhs == "" for r in reports)
    res = harness.require_transportable(t, 1)
    before, _ = harness._band_reads(t, c)
    (f2, g2, h2), _ = harness._band_reads(res.triangulation, transport_curve(c, res.quad))
    assert g2 == (-1, 1)
    wrong_g = (-1, -1)  # moves min(0, g'_2) off h'_2
    failed = {r.identity: r for r in harness._key_lemma_reports(t, 1, before, (f2, wrong_g, h2), "c")}
    assert failed["keylemma-F"].passed
    assert not failed["keylemma-g"].passed and not failed["keylemma-h"].passed
    h_report = failed["keylemma-h"]
    assert "h=(0, -1)" in h_report.lhs
    assert "h'=(-1, 0)" in h_report.lhs
    assert h_report.rhs == "min(0,g)=(0, -1) min(0,g')=(-1, -1)"
    assert failed["keylemma-g"].lhs == "g=(1, -1) g'=(-1, -1)"


def test_key_lemma_f_fails_on_a_perturbed_side():
    # negative control: the annulus core across flip 1, with F' given one
    # extra y1 term, then with h'_1 shifted by 1
    t, c = _annulus_core()
    res = harness.require_transportable(t, 1)
    before, _ = harness._band_reads(t, c)
    (f2, g2, h2), _ = harness._band_reads(res.triangulation, transport_curve(c, res.quad))
    extra = as_dict(f2)
    extra[(1, 0)] += 1
    extra = as_columns(extra)

    def report(after):
        return {r.identity: r for r in harness._key_lemma_reports(t, 1, before, after, "annulus:flip=1")}

    assert all(r.passed for r in report((f2, g2, h2)).values())
    wrong_f = report((extra, g2, h2))
    assert wrong_f["keylemma-g"].passed and wrong_f["keylemma-h"].passed
    # F * y1^(h'_1) * (1+y1)^(N-h'_1) against the cleared F'(y'), N = 0
    assert wrong_f["keylemma-F"].line() == (
        "[FAIL] keylemma-F :: annulus:flip=1\n"
        "  lhs: y1^-1 + y1^-1*y2 + 1 + 2*y2 + y1*y2\n"
        "  rhs: 2*y1^-1 + y1^-1*y2 + 1 + 2*y2 + y1*y2"
    )
    assert not report((f2, g2, (h2[0] + 1, h2[1])))["keylemma-F"].passed
    assert not report((f2, g2, (h2[0] - 1, h2[1])))["keylemma-F"].passed


def _product_form_sides(t, k, before, after):
    """Both cleared sides of the F identity, built from Laurent products:
    F * y_k^(h'_k) * (1+y_k)^(N-h'_k), and the sum over the terms c * y^e
    of F' of c * y^(sum e_j a_j) * (1+y_k)^(N + sum e_j p_j - h_k)."""
    (f1, _, hv1), (f2, _, hv2) = before, after
    f1, f2 = as_dict(f1), as_dict(f2)
    n, i = t.n_arcs, k - 1
    hk, hk2 = hv1[i], hv2[i]
    moved = []  # (c * y^(sum e_j a_j), sum e_j p_j) per term of F'
    for e, c in f2.items():
        mono, power = {(0,) * n: c}, 0
        for ej, (a, p) in zip(e, yseed_mutate(t.adjacency, i)):
            mono = lp_mul(mono, {tuple(ej * x for x in a): 1})
            power += ej * p
        moved.append((mono, power))
    big_n = max([0, hk2] + [hk - q for _, q in moved])
    one_plus = lp_add(lp_one(n), lp_var(n, i))
    y_k_to_hk2 = {tuple(hk2 if j == i else 0 for j in range(n)): 1}
    lhs = lp_mul(lp_mul(f1, y_k_to_hk2), lp_pow(one_plus, big_n - hk2))
    rhs = {}
    for mono, q in moved:
        rhs = lp_add(rhs, lp_mul(mono, lp_pow(one_plus, big_n + q - hk)))
    return lhs, rhs


def _sweep_edges(name, depth):
    """Every flip edge of the key-lemma sweep of surface name's closed
    fixture to depth, in the sweep's order: (t, k, before, after, where F
    sits, where F' sits, case), each state read once (`_band_reads`)."""
    t0 = load_surface(name)
    c0 = harness._closed_fixture(t0, name)
    known, edges = {}, []

    def reads(t, c, key):
        if key not in known:
            known[key] = harness._band_reads(t, c)
        return known[key]

    for t, c, key, word, children in harness._walk(t0, c0, depth, transport_curve, harness._state_key):
        for k, t2, c2, key2 in children:
            (before, at1), (after, at2) = reads(t, c, key), reads(t2, c2, key2)
            edges.append((t, k, before, after, at1, at2, f"{name}:{CLOSED_CURVES[name]}:word={word + [k]}"))
    return edges


@pytest.mark.parametrize("name", ["annulus", "annulus2", "torus-boundary"])
def test_key_lemma_f_sides_match_the_product_form(monkeypatch, name):
    # every flip edge of a depth-3 sweep, checked directly, as the sweep
    # checks only one edge per class: each side, decoded from its ints here
    # though the check passes and decodes nothing, equals the same side
    # built from products, and the F report passes
    groups = []
    real = harness.lp_binomial_groups
    monkeypatch.setattr(harness, "lp_binomial_groups", lambda sides, i: groups.append((i, real(sides, i))) or groups[-1][1])
    recorded = _sweep_edges(name, 3)
    assert len(recorded) == {"annulus": 4, "annulus2": 60, "torus-boundary": 75}[name]
    for t, k, before, after, _, _, case in recorded:
        report = harness._key_lemma_reports(t, k, before, after, case)[0]
        assert report.identity == "keylemma-F" and report.passed, case
        i, (width, low, sides) = groups.pop()
        decoded = tuple(lp_binomial_decode(side, i, width, low) for side in sides)
        assert decoded == _product_form_sides(t, k, before, after), case
    assert not groups


def _renamed_groups(groups, i, order):
    """The group dict with each key's entries read in order, arcs by
    1-based label and the key's entry i removed; every other entry of
    every key must be zero."""
    places = [a - 1 if a - 1 < i else a - 2 for a in order]
    out = {}
    for key, v in groups.items():
        kept = tuple(key[p] for p in places)
        assert sum(map(abs, kept)) == sum(map(abs, key))
        out[kept] = v
    return out


def _f_classes(monkeypatch, checks):
    """{edge class (`_f_class`): what its checks computed}, each check (t,
    k, before, after, where F sits, where F' sits) run directly: its
    verdict, and the text of the width, low and both dicts of ints of its
    F identity, each key read with the arcs renamed by first appearance
    over the two graphs' arcs and k."""
    calls = []
    real = harness.lp_binomial_groups
    monkeypatch.setattr(harness, "lp_binomial_groups", lambda sides, i: calls.append((i, real(sides, i))) or calls[-1][1])
    by_class = {}
    for t, k, before, after, at1, at2 in checks:
        passed = harness._key_lemma_f(t, k, before, after, "").passed
        i, (width, low, sides) = calls.pop()
        new = {}
        for a in (*at1[1], *at2[1], k):
            new.setdefault(a, len(new))
        order = [a for a in new if a != k]
        groups = tuple(_renamed_groups(side, i, order) for side in sides)
        by_class.setdefault(harness._f_class(t.adjacency, k, before, after, at1, at2), set()).add(
            (passed, repr((width, low, groups)))
        )
    monkeypatch.setattr(harness, "lp_binomial_groups", real)
    return by_class


def test_key_lemma_f_class_decides_the_check_on_the_sweeps(monkeypatch):
    # every flip edge of the three depth-4 sweeps, checked directly: the
    # edges of one class make the same F identity up to the class's
    # renaming of the arcs, so the same verdict; and the sweep, which
    # checks one edge per class, reports exactly what the direct checks do
    checks = []
    for name in CLOSED_CURVES:
        edges = _sweep_edges(name, 4)
        checks += [edge[:6] for edge in edges]
        swept = []
        harness._keylemma_sweep(load_surface(name), name, 4, swept)
        assert swept == [r for *edge, case in edges for r in harness._key_lemma_reports(*edge[:4], case)]
    by_class = _f_classes(monkeypatch, checks)
    assert len(checks) == 359 and len(by_class) == 137
    assert all(len(seen) == 1 for seen in by_class.values())


def _relabelled(reads, at, sigma):
    """A state's reads and place with its arcs relabelled by sigma (arc j
    to sigma[j - 1]): F's columns move with them, g and h stay put."""
    (*cols, counts), g, h = reads
    shape, arcs = at
    moved = [None] * len(cols)
    for j, col in enumerate(cols, 1):
        moved[sigma[j - 1] - 1] = col
    return ((*moved, counts), g, h), (shape, tuple(sigma[x - 1] for x in arcs))


def test_key_lemma_f_class_decides_the_check_off_the_sweeps(monkeypatch):
    # checks no sweep makes, each with F and F' at their places, so that
    # every entry of the class is needed: on the depth-2 sweeps, the F of
    # any edge against the F' of any edge of its surface, h_k or h'_k
    # moved by one, B(T) negated, every other k, and F' moved to arcs
    # relabelled by a swap.  The checks of one class still make one F
    # identity up to the renaming
    checks = []
    for name in CLOSED_CURVES:
        edges = [edge[:6] for edge in _sweep_edges(name, 2)]
        for t, k, before, after, at1, at2 in edges:
            n = t.n_arcs
            checks += [(t, k, b, after, a, at2) for _, _, b, _, a, _ in edges]
            for step in (-1, 1):
                bump = lambda reads: (*reads[:2], tuple(x + step * (j == k - 1) for j, x in enumerate(reads[2])))
                checks += [(t, k, bump(before), after, at1, at2), (t, k, before, bump(after), at1, at2)]
            minus = SimpleNamespace(adjacency=tuple(tuple(-x for x in row) for row in t.adjacency), n_arcs=n)
            checks.append((minus, k, before, after, at1, at2))
            checks += [(t, j, before, after, at1, at2) for j in range(1, n + 1) if j != k]
            for a, b in itertools.combinations(range(1, n + 1), 2):
                sigma = [b if j == a else a if j == b else j for j in range(1, n + 1)]
                moved, at = _relabelled(after, at2, sigma)
                checks.append((t, k, before, moved, at1, at))
            # one arc more, n + 1, which F does not show and F' shows in
            # place of arc a, with b_k,n+1 = v
            (*cols1, counts1), g1, h1 = before
            wide = ((*cols1, [0] * len(counts1), counts1), g1, h1)
            for a, v in itertools.product(range(1, n + 1), (-1, 1)):
                rows = [(*row, v * (i == k - 1)) for i, row in enumerate(t.adjacency)]
                rows.append(tuple(-v * (j == k - 1) for j in range(n)) + (0,))
                (*cols2, counts2), g2, h2 = after
                sigma = [n + 1 if j == a else j for j in range(1, n + 1)] + [a]
                moved, at = _relabelled(((*cols2, [0] * len(counts2), counts2), g2, h2), at2, sigma)
                checks.append((SimpleNamespace(adjacency=tuple(rows), n_arcs=n + 1), k, wide, moved, at1, at))
    by_class = _f_classes(monkeypatch, checks)
    assert all(len(seen) == 1 for seen in by_class.values())
    verdicts = Counter(passed for seen in by_class.values() for passed, _ in seen)
    assert verdicts[True] and verdicts[False]


def test_keylemma_campaign_counts_f_identities_and_tropical_minima(monkeypatch):
    # the benchmark's keylemma campaign: 359 flip edges in 137 classes, one
    # F identity per class; 904 h directions over the 201 states, 130
    # distinct per shape, one minimum each
    identities, minima, directions = [], [], []
    real_groups, real_dot, real_minima = harness.lp_binomial_groups, snakegraph.column_dot, snakegraph.Shape.minima
    monkeypatch.setattr(harness, "lp_binomial_groups", lambda *a: identities.append(1) or real_groups(*a))
    monkeypatch.setattr(snakegraph, "column_dot", lambda *a: minima.append(1) or real_dot(*a))
    monkeypatch.setattr(snakegraph.Shape, "minima", lambda self, dirs: directions.extend(dirs) or real_minima(self, dirs))
    reports = run_corpus(CorpusConfig(keylemma_depth=4, arc_surfaces=()))
    assert all(r.passed for r in reports)
    assert sum(r.identity == "keylemma-F" for r in reports) == 359
    assert (len(identities), len(directions), len(minima)) == (137, 904, 130)


def test_key_lemma_f_fails_on_every_edge_of_a_shape_with_a_count_raised(monkeypatch):
    # negative control: one more matching at F's first listed height, in
    # the floor of one shape, the start state's of each sweep.  Every edge
    # with F or F' of that shape fails, F and F' of one shape included, and
    # the sweep fails exactly the edges that a direct check of every edge
    # fails
    both = 0
    for name in CLOSED_CURVES:
        t0 = load_surface(name)
        start = build_band_graph(t0, harness._closed_fixture(t0, name)).shape
        target = (start.tiles, start.band, start.iota, start.omega, start.weights)
        del start
        real = snakegraph._find_floor

        def raised(shape):
            x0, m0, (*heights, counts) = real(shape)
            if (shape.tiles, shape.band, shape.iota, shape.omega, shape.weights) == target:
                counts = [counts[0] + 1] + counts[1:]
            return x0, m0, (*heights, counts)

        monkeypatch.setattr(snakegraph, "_find_floor", raised)
        swept = []
        harness._keylemma_sweep(t0, name, 3, swept)
        edges = _sweep_edges(name, 3)
        direct = [r for t, k, b, a, _, _, case in edges for r in harness._key_lemma_reports(t, k, b, a, case)]
        assert swept == direct
        touching = {
            case for _, _, _, _, (s1, _), (s2, _), case in edges
            if target in {(s.tiles, s.band, s.iota, s.omega, s.weights) for s in (s1, s2)}
        }
        both += sum(
            (s1.tiles, s1.band, s1.iota, s1.omega, s1.weights) == target == (s2.tiles, s2.band, s2.iota, s2.omega, s2.weights)
            for _, _, _, _, (s1, _), (s2, _), _ in edges
        )
        failed = {r.case for r in swept if not r.passed}
        assert touching and failed == touching, name
        assert all(r.passed for r in swept if r.identity != "keylemma-F")
        monkeypatch.setattr(snakegraph, "_find_floor", real)
    assert both == 19  # all on the torus: F and F' of the start state's shape


# the square: one arc, 1, cutting it into two triangles
SQUARE = "surface g=0 b=1 m=4 p=0\narcs 1\nboundary 4\ntriangle 1 2 3\ntriangle 1 4 5\n"


def test_key_lemma_f_on_one_arc():
    # with one arc no column is left off y_1 to key the F identity's
    # groups; F = F' = 1 must still pass and F' = 1 + y1 fail
    t = surface.parse_triangulation(SQUARE)
    one, one_plus = ([0], [1]), ([0, 1], [1, 1])
    before = (one, (0,), (0,))

    def f_report(f2):
        return harness._key_lemma_reports(t, 1, before, (f2, (0,), (0,)), "square:flip=1")[0]

    assert f_report(one).passed
    assert f_report(one_plus).line() == "[FAIL] keylemma-F :: square:flip=1\n  lhs: 1\n  rhs: y1^-1 + 1"


# keylemma-F checks of the depth-3 sweeps of the three closed fixtures:
# one per flip edge (4 annulus, 60 annulus2, 75 torus-boundary)
DEPTH_3_EDGES = 139


def _depth_3_f_failures(monkeypatch, perturb):
    """The failing keylemma-F reports of the depth-3 sweeps of the three
    closed fixtures, with each check's `after` passed through perturb.
    keylemma-g and -h read neither the Y-seed nor F, so they pass, and
    none of the three failed by raising (that fails all three)."""
    real = harness._key_lemma_reports
    monkeypatch.setattr(harness, "_key_lemma_reports", lambda t, k, b, a, case: real(t, k, b, perturb(a), case))
    out = []
    for name in ("annulus", "annulus2", "torus-boundary"):
        harness._keylemma_sweep(load_surface(name), name, 3, out)
    f_reports = [r for r in out if r.identity == "keylemma-F"]
    assert len(f_reports) == DEPTH_3_EDGES
    assert all(r.passed for r in out if r.identity != "keylemma-F")
    return [r for r in f_reports if not r.passed]


def test_key_lemma_f_fails_with_the_y_seed_of_minus_b(monkeypatch):
    # negative control: y' mutated by -B(T) in place of B(T)
    assert not _depth_3_f_failures(monkeypatch, lambda after: after)
    real = harness.yseed_mutate
    monkeypatch.setattr(harness, "yseed_mutate", lambda b, i: real(tuple(tuple(-x for x in r) for r in b), i))
    assert len(_depth_3_f_failures(monkeypatch, lambda after: after)) == DEPTH_3_EDGES


def test_key_lemma_f_fails_on_every_edge_with_one_coefficient_of_f_prime_raised(monkeypatch):
    # negative control: one more matching at the first height of F', in a
    # counts list of its own, so the shared shape keeps its counts
    def raised(after):
        (*heights, counts), g, h = after
        return (*heights, [counts[0] + 1] + counts[1:]), g, h

    assert len(_depth_3_f_failures(monkeypatch, raised)) == DEPTH_3_EDGES


def test_no_passing_key_lemma_edge_decodes_a_side(monkeypatch):
    # a passing F check compares ints only: with the decoder made to raise,
    # the depth-3 sweeps of the three closed fixtures still pass throughout
    def refuse(*args):
        raise AssertionError("a passing check decoded a side")

    monkeypatch.setattr(harness, "lp_binomial_decode", refuse)
    out = []
    for name in ("annulus", "annulus2", "torus-boundary"):
        harness._keylemma_sweep(load_surface(name), name, 3, out)
    assert len(out) == 3 * DEPTH_3_EDGES and all(r.passed for r in out)
    # while a failing check does decode its sides through that name
    one, one_plus = (([0], [1]), (0,), (0,)), (([0, 1], [1, 1]), (0,), (0,))
    with pytest.raises(AssertionError, match="decoded a side"):
        harness._key_lemma_reports(surface.parse_triangulation(SQUARE), 1, one, one_plus, "square:flip=1")


def test_arc_check_with_empty_word():
    t = load_surface("pentagon")
    r = verify_arc_bangle(t, 1, [])
    assert r.passed
    assert r.lhs == "x1"


def test_arc_check_after_flip():
    t = load_surface("annulus")
    r = verify_arc_bangle(t, 1, [1])
    assert r.identity == "arc-vs-cluster"
    assert r.passed


def test_shear_wrappers_on_annulus():
    t, c = _annulus_core()
    assert verify_g_equals_shear(t, c, "core").passed
    for k in (1, 2):
        res = surface.flip(t, k)
        moved = transport_curve(c, res.quad)
        assert verify_shear_flip(t, k, c, res.triangulation, moved, f"flip={k}").passed


def test_failure_line_carries_both_sides():
    r = VerificationReport("toy", "keylemma-F", False, "left side", "right side")
    line = r.line()
    assert line.startswith("[FAIL] keylemma-F :: toy")
    assert "lhs: left side" in line
    assert "rhs: right side" in line
    assert "1 failed" in report_text([r])


def test_pass_line_is_single():
    r = VerificationReport("toy", "keylemma-g", True)
    assert r.line() == "[pass] keylemma-g :: toy"


def test_run_corpus_all_pass():
    reports = run_corpus()
    assert reports
    assert all(r.passed for r in reports)
    kinds = {r.identity for r in reports}
    assert kinds == set(IDENTITIES)


def test_run_corpus_is_deterministic():
    a = report_text(run_corpus())
    b = report_text(run_corpus())
    assert a == b
    assert a.splitlines()[-1].endswith("0 failed")


def test_run_corpus_sorted_and_deduplicated():
    cfg = CorpusConfig(
        surfaces=("annulus",), keylemma_depth=3, arc_depth=1, arc_surfaces=("annulus",)
    )
    reports = run_corpus(cfg)
    keys = [(r.case, r.identity) for r in reports]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    words = [r.case for r in reports if r.identity == "keylemma-F"]
    # undoing a flip is a new check (the reverse flip), so [1, 1] stays;
    # [1, 1, 1] lands back on the very first check and is dropped
    assert "annulus:annulus-core:word=[1]" in words
    assert "annulus:annulus-core:word=[1, 1]" in words
    assert "annulus:annulus-core:word=[1, 1, 1]" not in words


def test_arc_sweep_reaches_both_twist_directions():
    # flip words [1] and [2, 1] wind the annulus arc opposite ways and
    # give different variables, even though the triangulations along the
    # way encode identically; both must be checked
    cfg = CorpusConfig(
        surfaces=("annulus",), keylemma_depth=1, arc_depth=2, arc_surfaces=("annulus",)
    )
    arcs = [r for r in run_corpus(cfg) if r.identity == "arc-vs-cluster"]
    cases = {r.case for r in arcs}
    assert "annulus:arc=1:word=[1]" in cases
    assert "annulus:arc=1:word=[2, 1]" in cases
    assert all(r.passed for r in arcs)


def test_arc_check_sides_are_one_laurent_polynomial():
    # a cluster variable is a Laurent polynomial, so a passing arc check
    # prints the same text on both sides
    arcs = [r for r in run_corpus(CorpusConfig(arc_depth=6)) if r.identity == "arc-vs-cluster"]
    assert len(arcs) == 62
    assert all(r.passed and r.lhs == r.rhs for r in arcs)


def test_deeper_words_reach_new_cases():
    shallow = run_corpus(CorpusConfig(surfaces=("annulus",), arc_surfaces=()))
    deep = run_corpus(
        CorpusConfig(surfaces=("annulus",), keylemma_depth=2, arc_surfaces=())
    )
    assert len(deep) > len(shallow)
    assert all(r.passed for r in deep)


def test_broken_fixture_becomes_failed_entry():
    # one report, from the shear sweep: the key-lemma sweep never loads a
    # surface without a closed fixture
    reports = run_corpus(CorpusConfig(surfaces=("no-such-surface",), arc_surfaces=()))
    assert reports == [
        VerificationReport(
            "no-such-surface", "corpus-load", False, "KeyError", "\"unknown surface fixture 'no-such-surface'\""
        )
    ]


def test_each_surface_is_loaded_once_and_a_failed_load_fails_each_sweep(monkeypatch):
    loads = Counter()
    real = harness.load_surface

    def counting(name):
        loads[name] += 1
        return real(name)

    monkeypatch.setattr(harness, "load_surface", counting)
    assert run_corpus() and loads == Counter(SURFACES)

    def refused(name):
        raise OSError(f"cannot read {name}")

    # one report per sweep that loads the surface: key lemma, shear and arcs
    # on the annulus, shear and arcs on the pentagon, which has no closed
    # fixture and so no key-lemma sweep
    monkeypatch.setattr(harness, "load_surface", refused)
    annulus = VerificationReport("annulus", "corpus-load", False, "OSError", "cannot read annulus")
    pentagon = VerificationReport("pentagon", "corpus-load", False, "OSError", "cannot read pentagon")
    assert run_corpus(CorpusConfig(surfaces=("annulus",), arc_surfaces=())) == [annulus] * 2
    assert run_corpus(CorpusConfig(surfaces=("annulus",))) == [annulus] * 3
    assert run_corpus(CorpusConfig(surfaces=("pentagon",))) == [pentagon] * 2


def test_only_a_failing_shear_flip_report_carries_its_sides(monkeypatch):
    reports = [r for r in run_corpus() if r.identity == "shear-flip"]
    assert reports and all(r.passed and r.lhs == r.rhs == "" for r in reports)
    real = harness.matrix_mutate

    def bumped(b, k):
        # +1 on the first entry of the row below -B: on the pentagon, which
        # has no closed fixture, the row of laminate 1
        out = real(b, k)
        n = len(b[0])
        return out[:n] + ((out[n][0] + 1,) + out[n][1:],) + out[n + 1 :]

    monkeypatch.setattr(harness, "matrix_mutate", bumped)
    reports = run_corpus(CorpusConfig(surfaces=("pentagon",), arc_surfaces=()))
    failed = [r for r in reports if not r.passed]
    assert [r.case for r in failed] == ["pentagon:laminate=1:flip=2"]
    assert all(r.lhs == r.rhs == "" for r in reports if r.passed)
    assert failed[0].line() == (
        "[FAIL] shear-flip :: pentagon:laminate=1:flip=2\n"
        "  lhs: ((0, -1), (1, 0), (2, 0))\n"
        "  rhs: ((0, -1), (1, 0), (1, 0))"
    )


def _fail_first_call(monkeypatch, name, exc):
    real = getattr(harness, name)
    pending = [exc]

    def flaky(*args):
        if pending:
            # a copy: the parametrized instance outlives the test, and a
            # traceback on it would keep the sweep's frames alive
            exc = pending.pop()
            raise type(exc)(*exc.args)
        return real(*args)

    monkeypatch.setattr(harness, name, flaky)


@pytest.mark.parametrize(
    "cfg, name, exc, identity, case",
    [
        (
            CorpusConfig(surfaces=("annulus",), keylemma_depth=2, arc_surfaces=()),
            "yseed_mutate",
            InexactDivisionError("remainder left"),
            "keylemma-F",
            "annulus:annulus-core:word=[1]",
        ),
        (
            CorpusConfig(surfaces=("pentagon",), arc_depth=1, arc_surfaces=("pentagon",)),
            "msw_function",
            ZeroDivisionError("zero part"),
            "arc-vs-cluster",
            "pentagon:arc=1:word=[]",
        ),
        (
            # the closed fixture's row is the first one each flip checks
            CorpusConfig(surfaces=("annulus",), arc_surfaces=()),
            "matrix_mutate",
            ZeroDivisionError("zero part"),
            "shear-flip",
            "annulus:annulus-core:flip=1",
        ),
        (
            # a second surface, so another g-equals-shear check passes
            CorpusConfig(surfaces=("annulus", "annulus2"), arc_surfaces=()),
            "dual_shear",
            ZeroDivisionError("zero part"),
            "g-equals-shear",
            "annulus:annulus-core",
        ),
        (
            # no closed fixture, so a laminate's row is the first one checked
            CorpusConfig(surfaces=("pentagon",), arc_surfaces=()),
            "matrix_mutate",
            ZeroDivisionError("zero part"),
            "shear-flip",
            "pentagon:laminate=2:flip=1",
        ),
    ],
    ids=["keylemma", "arc", "shear", "g-equals-shear", "shear-laminate"],
)
def test_check_error_is_reported_and_sweep_continues(monkeypatch, cfg, name, exc, identity, case):
    clean = run_corpus(cfg)
    _fail_first_call(monkeypatch, name, exc)
    reports = run_corpus(cfg)
    # the same checks, the first one now failing under its real identity and case
    assert [(r.case, r.identity) for r in reports] == [(r.case, r.identity) for r in clean]
    failed = [r for r in reports if not r.passed]
    assert {r.case for r in failed} == {case}
    assert identity in {r.identity for r in failed}
    assert all((r.lhs, r.rhs) == (type(exc).__name__, str(exc)) for r in failed)
    assert sum(r.identity == identity and r.passed for r in reports) > 0
    assert report_text(reports).splitlines()[-1] == f"{len(clean)} checks, {len(failed)} failed"


def test_error_outside_any_check_fails_only_its_surface(monkeypatch):
    # the arc sweep mutates seeds while it builds clusters, outside any check
    def broken(*args):
        raise InexactDivisionError("remainder left")

    monkeypatch.setattr(harness, "seed_mutate", broken)
    cfg = CorpusConfig(surfaces=("pentagon", "annulus"), arc_surfaces=("pentagon",))
    reports = run_corpus(cfg)
    failed = [r for r in reports if not r.passed]
    assert [(r.case, r.identity, r.lhs, r.rhs) for r in failed] == [
        ("pentagon", "corpus-load", "InexactDivisionError", "remainder left")
    ]
    annulus = [r for r in reports if r.case.startswith("annulus:")]
    assert annulus and all(r.passed for r in annulus)


def test_key_lemma_sweep_builds_each_state_once(monkeypatch):
    built = []
    real = harness.build_band_graph

    def recording(t, c):
        built.append(harness._state_key(t, c))
        return real(t, c)

    monkeypatch.setattr(harness, "build_band_graph", recording)
    out = []
    harness._keylemma_sweep(load_surface("annulus"), "annulus", 3, out)
    assert out and all(r.passed for r in out)
    assert len(built) == len(set(built))


def test_state_keys_split_states_as_the_rank_renumbered_key_does():
    # every state and every edge's child of the three depth-4 key-lemma
    # sweeps: two have equal keys exactly when their oracle keys are equal
    pairs = []
    for name in CLOSED_CURVES:
        t0 = load_surface(name)
        c0 = harness._closed_fixture(t0, name)
        for t, c, _, _, edges in harness._walk(t0, c0, 4, transport_curve, harness._state_key):
            pairs.append((t, c))
            pairs.extend((t2, c2) for _, t2, c2, _ in edges)
    assert len(pairs) == 560
    keys = {(harness._state_key(t, c), state_key_by_rank(t, c)) for t, c in pairs}
    assert len({new for new, _ in keys}) == len({old for _, old in keys}) == len(keys) == 201


def test_key_lemma_sweep_flips_once_per_check(monkeypatch):
    flips = []
    real = harness.flip

    def counting(t, k):
        flips.append(k)
        return real(t, k)

    monkeypatch.setattr(harness, "flip", counting)
    out = []
    harness._keylemma_sweep(load_surface("annulus2"), "annulus2", 3, out)
    checks = [r for r in out if r.identity == "keylemma-F"]
    assert all(r.passed for r in out)
    assert len(flips) == len(checks) == 60


def test_transport_error_in_walk_fails_only_its_surface(monkeypatch):
    # the key-lemma walker and the shear sweep each carry the curve across
    # a flip outside any check, so each ends with a corpus-load failure
    real = harness.transport_curve
    annulus_core = harness._closed_fixture(load_surface("annulus"), "annulus")

    def broken(c, quad, **kwargs):
        if c == annulus_core:
            raise KeyError("no such step")
        return real(c, quad, **kwargs)

    monkeypatch.setattr(harness, "transport_curve", broken)
    cfg = CorpusConfig(surfaces=("annulus", "annulus2"), arc_surfaces=())
    reports = run_corpus(cfg)
    failed = [r for r in reports if not r.passed]
    assert [(r.case, r.identity, r.lhs, r.rhs) for r in failed] == [
        ("annulus", "corpus-load", "KeyError", "'no such step'")
    ] * 2
    annulus = [r.identity for r in reports if r.case.startswith("annulus:")]
    assert annulus and not any(i.startswith("keylemma") for i in annulus)
    other = [r for r in reports if r.case.startswith("annulus2:")]
    assert any(r.identity == "keylemma-F" for r in other) and all(r.passed for r in other)


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "annulus"])
def test_arc_sweep_seeds_match_replayed_words(name):
    # each cluster's seed is mutated once, along the flip that first reached
    # it; replaying the report's own word from scratch must agree
    out = []
    harness._arc_sweep(load_surface(name), name, 4, out)
    assert out
    t0 = load_surface(name)
    for r in out:
        arc, word = r.case.split(":", 1)[1].split(":word=")
        replay = verify_arc_bangle(t0, int(arc[len("arc="):]), ast.literal_eval(word))
        assert (replay.lhs, replay.rhs, replay.passed) == (r.lhs, r.rhs, True), r.case


def _seed_print(seed) -> tuple:
    return tuple(tuple(sorted(x.items())) for x in seed.x)


@pytest.mark.parametrize(
    "name, mutated",
    [("pentagon", 3), ("hexagon", 6), ("heptagon", 10), ("octagon", 15), ("annulus", 12)],
)
def test_arc_sweep_mutates_once_per_checked_arc(monkeypatch, name, mutated):
    # A seed is built only for a cluster with an arc left to check, or on
    # the way to one: each exchange yields one new checked arc, so the sweep
    # mutates once per arc check beyond the n initial arcs.
    seeds, words = [], []
    real_mutate, real_walk = harness.seed_mutate, harness._walk

    def mutate(seed, k):
        seeds.append(real_mutate(seed, k))
        return seeds[-1]

    def walk(*args):
        for item in real_walk(*args):
            words.append(tuple(item[3]))
            yield item

    monkeypatch.setattr(harness, "seed_mutate", mutate)
    monkeypatch.setattr(harness, "_walk", walk)
    out = []
    harness._arc_sweep(load_surface(name), name, 6, out)
    assert out and all(r.passed for r in out)
    t0 = load_surface(name)
    assert len(seeds) == len(out) - t0.n_arcs == mutated
    # name each mutated seed by the word of the cluster whose replayed seed
    # it equals; replays walk the walker's own word tree
    replay = {(): initial_seed(t0.adjacency)}
    for word in words[1:]:
        replay[word] = real_mutate(replay[word[:-1]], word[-1] - 1)
    by_print = {_seed_print(seed): word for word, seed in replay.items()}
    assert len(by_print) == len(replay)
    built = [by_print[_seed_print(seed)] for seed in seeds]
    assert len(built) == len(set(built))
    checking = {tuple(ast.literal_eval(r.case.split(":word=")[1])) for r in out}
    assert all(any(w[: len(word)] == word for w in checking) for word in built)


@pytest.mark.parametrize("name", ["pentagon", "hexagon", "heptagon", "octagon", "annulus"])
def test_arc_sweep_flips_only_to_new_clusters(monkeypatch, name):
    # a flip whose target cluster is already reached is skipped unflipped,
    # so every flip the sweep takes reaches a new cluster
    flips, yielded = [], []
    real_flip, real_walk = harness.flip, harness._walk

    def walk(*args):
        for item in real_walk(*args):
            yielded.append(item[2])
            yield item

    monkeypatch.setattr(harness, "flip", lambda t, k: flips.append(k) or real_flip(t, k))
    monkeypatch.setattr(harness, "_walk", walk)
    out = []
    harness._arc_sweep(load_surface(name), name, 6, out)
    assert out and all(r.passed for r in out)
    assert len(flips) == len(yielded) - 1


@pytest.mark.parametrize(
    "name, depth, skipped",
    [
        ("pentagon", 5, 6),
        ("hexagon", 5, 29),
        ("heptagon", 5, 127),
        ("octagon", 5, 319),
        ("annulus", 5, 8),
        ("annulus2", 4, 81),
        ("punctured-square", 6, 26),
    ],
)
def test_arc_sweep_skips_only_flips_to_reached_clusters(monkeypatch, name, depth, skipped):
    # The sweep skips the flip at k of a cluster C when another reached
    # cluster holds C less its k-th arc.  That must be the one other
    # reached cluster holding those arcs, and taking the flip the slow way,
    # pulling its arc back through every quad, must reach it.
    items, skips = [], []
    real_walk = harness._walk

    def walk(t0, start, depth, advance, key, skip):
        def recording(state, k):
            hit = skip(state, k)
            if hit:
                skips.append((state, k))
            return hit

        for item in real_walk(t0, start, depth, advance, key, recording):
            items.append(item)
            yield item

    monkeypatch.setattr(harness, "_walk", walk)
    out = []
    harness._arc_sweep(load_surface(name), name, depth, out)
    assert out and all(r.passed for r in out)
    # every reached cluster is yielded, with its triangulation
    tri = {key: cur for cur, _, key, _, _ in items}
    assert len(skips) == skipped
    for (quads, backs), k in skips:
        rest = frozenset(backs[: k - 1] + backs[k:])
        (other,) = [key for key in tri if rest < key and key != frozenset(backs)]
        res = harness.require_transportable(tri[frozenset(backs)], k)
        slow = normalize_curve(harness._pull_back_arc(k, quads + (res.quad,)))
        assert rest | {slow} == other


@pytest.mark.parametrize("name, depth, checks", [("annulus2", 4, 24), ("punctured-square", 6, 12)])
def test_arc_sweep_checks_each_arc_once(name, depth, checks):
    # an arc pulled back in either orientation has one key, so it is
    # checked once; with orientation-dependent keys these sweeps made 36
    # and 17 checks of 24 and 12 distinct arcs
    out = []
    harness._arc_sweep(load_surface(name), name, depth, out)
    assert all(r.passed for r in out)
    lhs = [r.lhs for r in out]
    assert len(lhs) == len(set(lhs)) == checks


def test_sweeps_build_each_quad_view_once_per_direction(monkeypatch):
    built = []  # (quad, forward); holding the quads keeps their ids apart
    real = surface._QuadView

    def recording(q, forward):
        built.append((q, forward))
        return real(q, forward)

    monkeypatch.setattr(surface, "_QuadView", recording)
    cfg = CorpusConfig(
        surfaces=("annulus", "hexagon"), keylemma_depth=3, arc_depth=4, arc_surfaces=("hexagon",)
    )
    assert all(r.passed for r in run_corpus(cfg))
    assert {forward for _, forward in built} == {True, False}
    assert max(Counter((id(q), forward) for q, forward in built).values()) == 1


def test_arc_sweep_quads_are_freed_after_the_sweep(monkeypatch):
    refs = []
    real = harness._flip_cluster

    def recording(state, quad):
        refs.append(weakref.ref(quad))
        return real(state, quad)

    monkeypatch.setattr(harness, "_flip_cluster", recording)
    out = []
    harness._arc_sweep(load_surface("annulus"), "annulus", 4, out)
    assert out and refs
    gc.collect()
    assert all(ref() is None for ref in refs)
