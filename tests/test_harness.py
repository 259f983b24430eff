import ast
import gc
import weakref
from collections import Counter

import pytest

import bangles.harness as harness
import bangles.surface as surface
from bangles.curve import normalize_curve, parse_curve, transport_curve
from bangles.fixtures import load_curve_text, load_surface
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
    lp_mul,
    lp_one,
    lp_pow,
    lp_var,
)


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
    before = harness._band_reads(t, c)
    f2, g2, h2 = harness._band_reads(res.triangulation, transport_curve(c, res.quad))
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
    before = harness._band_reads(t, c)
    f2, g2, h2 = harness._band_reads(res.triangulation, transport_curve(c, res.quad))
    extra = dict(f2)
    extra[(1, 0)] += 1

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


@pytest.mark.parametrize("name", ["annulus", "annulus2", "torus-boundary"])
def test_key_lemma_f_sides_match_the_product_form(monkeypatch, name):
    # every flip edge of a depth-3 sweep: each binomial-sum side equals the
    # same side built from products, and the F report passes
    sides, calls = [], []
    real_sum, real_reports = harness.lp_binomial_sum, harness._key_lemma_reports

    def recording_sum(terms, i):
        sides.append(real_sum(terms, i))
        return sides[-1]

    def recording_reports(t, k, before, after, case):
        reports = real_reports(t, k, before, after, case)
        calls.append((t, k, before, after, reports[0]))
        return reports

    monkeypatch.setattr(harness, "lp_binomial_sum", recording_sum)
    monkeypatch.setattr(harness, "_key_lemma_reports", recording_reports)
    out = []
    harness._keylemma_sweep(name, 3, out)
    assert calls and len(sides) == 2 * len(calls)
    for (t, k, before, after, report), lhs, rhs in zip(calls, sides[::2], sides[1::2]):
        assert report.identity == "keylemma-F" and report.passed, report.case
        assert (lhs, rhs) == _product_form_sides(t, k, before, after), report.case


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
    reports = run_corpus(CorpusConfig(surfaces=("no-such-surface",), arc_surfaces=()))
    assert reports
    assert not any(r.passed for r in reports)
    assert all(r.identity == "corpus-load" for r in reports)
    assert "no-such-surface" in reports[0].rhs


def _fail_first_call(monkeypatch, name, exc):
    real = getattr(harness, name)
    pending = [exc]

    def flaky(*args):
        if pending:
            raise pending.pop()
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
    harness._keylemma_sweep("annulus", 3, out)
    assert out and all(r.passed for r in out)
    assert len(built) == len(set(built))


def test_key_lemma_sweep_flips_once_per_check(monkeypatch):
    flips = []
    real = harness.flip

    def counting(t, k):
        flips.append(k)
        return real(t, k)

    monkeypatch.setattr(harness, "flip", counting)
    out = []
    harness._keylemma_sweep("annulus2", 3, out)
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
    harness._arc_sweep(name, 4, out)
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
    harness._arc_sweep(name, 6, out)
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
    harness._arc_sweep(name, 6, out)
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
    harness._arc_sweep(name, depth, out)
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
    harness._arc_sweep(name, depth, out)
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
    harness._arc_sweep("annulus", 4, out)
    assert out and refs
    gc.collect()
    assert all(ref() is None for ref in refs)
