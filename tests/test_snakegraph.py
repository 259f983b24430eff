"""Snake/band graphs: tile layout, matchings, F/g/h data, bangle functions."""

import gc
import itertools
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bangles import harness, snakegraph
from bangles.curve import (
    TransportError,
    _reversed,
    arc_curve,
    closed_curve,
    open_curve,
    parse_curve,
    transport_curve,
)
from bangles.fixtures import CLOSED_CURVES, load_curve_text, load_surface
from bangles.harness import CorpusConfig, run_corpus
from bangles.mutation import initial_seed, seed_mutate
from bangles.poly import (
    NotSubtractionFreeError,
    lp_const,
    lp_format,
    lp_mul,
    lp_sub,
    lp_var,
    trop_eval_many,
    var_names,
)
from bangles.snakegraph import (
    Shape,
    SnakeGraph,
    SnakeGraphError,
    build_band_graph,
    build_snake_graph,
    curve_graph,
    msw_function,
    principal_msw,
    snake_F_poly,
    snake_g_vector,
    snake_h_vector,
)
from bangles.surface import Triangulation, adjacency_matrix, flip, folded_sides

from flipwords import flip_word
from oracles import edges, matching_sum
from packing import pack

ANNULUS = load_surface("annulus")
CORE = parse_curve(ANNULUS, load_curve_text("annulus-core"))
Y2 = var_names("y", 2)


def closed_fixtures():
    for surface, curve in CLOSED_CURVES.items():
        t = load_surface(surface)
        yield surface, t, parse_curve(t, load_curve_text(curve))


def test_annulus_band_layout():
    g = build_band_graph(ANNULUS, CORE)
    assert len(g.tiles) == 2
    t1, t2 = g.tiles
    assert (t1.pos, t1.diagonal, t1.compass) == ((0, 0), 1, (4, 2, 3, 2))
    assert (t2.pos, t2.diagonal, t2.compass) == ((0, 1), 2, (3, 1, 4, 1))
    # seam copies sit on the bottom and top horizontal edges, both labeled 3
    assert g.iota == ((0, 0), (1, 0))
    assert g.omega == ((0, 2), (1, 2))
    assert edges(g)[g.iota] == edges(g)[g.omega] == 3


def test_annulus_good_matchings():
    # x-degrees less the crossings, then heights: x1^2 is P₋, 1 sits one
    # step above it (y2) and x2^2 two steps above it (y1*y2)
    g = build_band_graph(ANNULUS, CORE)
    assert matching_sum(g) == {(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1}


def test_annulus_F_g_h():
    g = build_band_graph(ANNULUS, CORE)
    assert lp_format(snake_F_poly(g), Y2) == "1 + y2 + y1*y2"
    assert snake_g_vector(g) == (1, -1)
    assert snake_h_vector(g) == (0, -1)


def test_annulus_flipped_F_g_h():
    res = flip(ANNULUS, 1)
    moved = transport_curve(CORE, res.quad)
    g = build_band_graph(res.triangulation, moved)
    assert lp_format(snake_F_poly(g), Y2) == "1 + y1 + y1*y2"
    assert snake_g_vector(g) == (-1, 1)
    assert snake_h_vector(g) == (-1, 0)


def test_annulus_msw():
    got = msw_function(ANNULUS, CORE)
    assert got == {(1, -1): 1, (-1, -1): 1, (-1, 1): 1}


def test_annulus_principal_msw():
    got = principal_msw(ANNULUS, CORE)
    assert got == {(1, -1, 0, 0): 1, (-1, -1, 0, 1): 1, (-1, 1, 1, 1): 1}


def test_single_tile_graph():
    t = load_surface("pentagon")
    back = transport_curve(arc_curve(1), flip(t, 1).quad, forward=False)
    g = build_snake_graph(t, back)
    assert len(g.tiles) == 1
    assert g.tiles[0].compass == (5, 2, 3, 4)
    # the floor matching is the horizontal pair of boundary edges (x-free);
    # the vertical pair carries x2 one step above it
    assert g.principal_msw == {(-1, 0, 0, 0): 1, (-1, 1, 1, 0): 1}
    assert matching_sum(g) == g.principal_msw
    assert lp_format(snake_F_poly(g), Y2) == "1 + y1"
    assert snake_g_vector(g) == (-1, 0)
    assert snake_h_vector(g) == (-1, 0)
    assert msw_function(t, back) == seed_mutate(initial_seed(adjacency_matrix(t)), 0).x[0]


def test_two_tile_snake_three_matchings():
    t = load_surface("hexagon")
    c = open_curve([(0, 1), (1, 2)], ((0, 0), (2, 0)))
    g = build_snake_graph(t, c)
    assert len(g.tiles) == 2
    assert sum(matching_sum(g).values()) == 3
    assert matching_sum(g) == g.principal_msw
    f = snake_F_poly(g)
    assert f[(0,) * t.n_arcs] == 1 and len(f) == 3


def test_arc_msw_is_its_variable():
    for name in ("pentagon", "annulus", "punctured-square"):
        t = load_surface(name)
        assert msw_function(t, arc_curve(2)) == lp_var(t.n_arcs, 1)
        assert principal_msw(t, arc_curve(2)) == lp_var(2 * t.n_arcs, 1)
        assert curve_graph(t, arc_curve(2)) is None


def test_band_rotation_invariance():
    for name, t, c in closed_fixtures():
        d = len(c.steps)
        rotated = closed_curve(c.steps[1:] + c.steps[:1])
        assert msw_function(t, rotated) == msw_function(t, c)
        g1, g2 = build_band_graph(t, c), build_band_graph(t, rotated)
        assert snake_F_poly(g1) == snake_F_poly(g2)
        assert snake_g_vector(g1) == snake_g_vector(g2)
        assert snake_h_vector(g1) == snake_h_vector(g2)


def test_w_is_scanned_once_and_freed_with_its_graph(monkeypatch):
    t = load_surface("torus-boundary")
    c = parse_curve(t, load_curve_text("torus-weave"))
    scan = snakegraph._scan
    calls = []

    def counting_scan(shape):  # keeps no reference to the shape
        calls.append(len(shape.tiles))
        return scan(shape)

    monkeypatch.setattr(snakegraph, "_scan", counting_scan)
    g = build_band_graph(t, c)
    snake_F_poly(g), snake_g_vector(g), snake_h_vector(g), g.msw, g.principal_msw
    assert len(calls) == 1  # one scan, shared by every reader
    assert msw_function(t, c) is g.msw and principal_msw(t, c) is g.principal_msw
    assert len(calls) == 1  # while g is held, the wrappers read g itself
    ref, shape_ref = weakref.ref(g), weakref.ref(g.shape)
    del g
    gc.collect()
    assert ref() is None and shape_ref() is None
    msw_function(t, c)
    assert len(calls) == 2  # neither map held a strong reference: a new scan


def test_equal_values_share_one_live_graph():
    t = load_surface("torus-boundary")
    c = parse_curve(t, load_curve_text("torus-weave"))
    t2 = load_surface("torus-boundary")
    c2 = parse_curve(t2, load_curve_text("torus-weave"))
    assert (t2, c2) == (t, c) and t2 is not t and c2 is not c
    g = build_band_graph(t, c)
    assert build_band_graph(t2, c2) is g
    assert curve_graph(t2, c2) is g


def test_unequal_values_get_their_own_graphs():
    rotated = closed_curve(CORE.steps[1:] + CORE.steps[:1])
    res = flip(ANNULUS, 1)
    moved = transport_curve(CORE, res.quad)
    assert rotated != CORE and res.triangulation != ANNULUS and moved == CORE
    g = build_band_graph(ANNULUS, CORE)
    others = [build_band_graph(ANNULUS, rotated), build_band_graph(res.triangulation, moved)]
    assert len({id(x) for x in [g] + others}) == 3
    for h in [g] + others:
        assert matching_sum(h) == h.principal_msw
    assert len({h.tiles for h in [g] + others}) == 3


def test_a_failed_build_raises_again():
    for _ in range(2):
        with pytest.raises(SnakeGraphError):
            build_snake_graph(ANNULUS, CORE)
    assert (ANNULUS, CORE, False) not in snakegraph._live_graphs


def test_live_graphs_are_freed_after_a_sweep():
    config = CorpusConfig(surfaces=("annulus", "torus-boundary"), arc_surfaces=("pentagon",))
    reports = run_corpus(config)
    assert reports and all(r.passed for r in reports)
    gc.collect()
    assert len(snakegraph._live_graphs) == 0
    assert len(snakegraph._live_shapes) == 0


def relabelled(t, c, sigma):
    """(t, c) with each arc label j replaced by sigma[j - 1]; boundary
    labels and triangle positions stay, so c's steps still index t."""
    new = lambda x: sigma[x - 1] if t.is_arc(x) else x
    triangles = tuple(tuple(map(new, tri)) for tri in t.triangles)
    t2 = Triangulation(t.genus, t.boundary_marks, t.n_punctures, t.n_arcs, t.n_boundary, triangles, t.notched)
    return t2, closed_curve(tuple((tri, new(a)) for tri, a in c.steps))


def test_a_failed_floor_raises_again_for_every_graph_of_its_shape(monkeypatch):
    # a shared W whose least height is two matchings: no graph of the shape
    # stores a floor or a read of it, and each raises on every read, every time
    two_floors = ((1, 0, 0, 0), (0, 1, 0, 0))
    monkeypatch.setattr(snakegraph, "_scan", lambda shape: {pack(w, shape._layout[1]): 1 for w in two_floors})
    graphs = [build_band_graph(*relabelled(ANNULUS, CORE, sigma)) for sigma in ((1, 2), (2, 1))]
    assert graphs[1].shape is graphs[0].shape and graphs[1] is not graphs[0]
    reads = ("_floor", "f_poly", "g_vector", "h_vector", "principal_msw")
    for g in graphs * 2:
        for read in reads:
            with pytest.raises(SnakeGraphError, match="height floor"):
                getattr(g, read)
    assert not any(read in g.__dict__ for g in graphs for read in reads)
    assert "_floor" not in graphs[0].shape.__dict__


def test_h_refuses_an_f_with_a_negative_count(monkeypatch):
    # a shape checks its F subtraction-free before its first minimum: a
    # negative count raises on every read of h, and no minima are stored
    real = snakegraph._find_floor

    def negated(shape):
        x0, m0, (*heights, counts) = real(shape)
        return x0, m0, (*heights, [-c for c in counts])

    monkeypatch.setattr(snakegraph, "_find_floor", negated)
    g = build_band_graph(ANNULUS, closed_curve(CORE.steps * 3))
    for _ in range(2):
        with pytest.raises(NotSubtractionFreeError):
            g.h_vector
    assert g.shape._minima == {}


def test_minima_evaluate_each_missing_direction_once(monkeypatch):
    # a shape hands `trop_eval_many` only the directions it has not read,
    # each once, and answers repeats from its memo
    calls, real = [], snakegraph.trop_eval_many
    monkeypatch.setattr(snakegraph, "trop_eval_many", lambda f, dirs: calls.append(list(dirs)) or real(f, dirs))
    shape = unshared(build_band_graph(ANNULUS, closed_curve(CORE.steps * 2))).shape
    a, b, c = (-1, 0), (0, -1), (-1, 1)
    want = dict(zip((a, b, c), real(shape._floor[2], (a, b, c))))
    assert shape.minima([a, a, b]) == (want[a], want[a], want[b])
    assert shape.minima([b, c, a, c]) == (want[b], want[c], want[a], want[c])
    assert shape.minima([c, a]) == (want[c], want[a])
    assert calls == [[a, b], [c]]


def test_torus_band_zigzags():
    t = load_surface("torus-boundary")
    c = parse_curve(t, load_curve_text("torus-weave"))
    g = build_band_graph(t, c)
    dirs = [
        (b.pos[0] - a.pos[0], b.pos[1] - a.pos[1])
        for a, b in zip(g.tiles, g.tiles[1:])
    ]
    assert all(d in ((1, 0), (0, 1)) for d in dirs)
    assert all(a != b for a, b in zip(dirs, dirs[1:]))


# the bracelets of the benchmark at seed 0: every k-fold closed fixture up
# to these k, 26 graphs of 26 distinct shapes
BRACELET_KMAX = {"annulus": 12, "annulus2": 8, "torus-boundary": 6}


def test_h_reads_every_direction_as_trop_eval_many_reads_all_n():
    # h reads each direction at the graph's arcs, once per shape; with
    # every graph held, the states of one sweep share their shapes' minima
    graphs = []
    for name, t0, c0 in closed_fixtures():
        walk = harness._walk(t0, c0, 4, transport_curve, harness._state_key)
        graphs += [build_band_graph(t, c) for t, c, *_ in walk]
        graphs += [build_band_graph(t0, closed_curve(c0.steps * k)) for k in range(1, BRACELET_KMAX[name] + 1)]
    assert len(graphs) == 201 + 26
    assert len({id(g.shape) for g in graphs}) == 30 + 26 - 3  # three 1-fold bracelets are sweep starts
    for g in graphs:
        b = g.surface.adjacency
        dirs = [[-1 if j == i else max(-x, 0) for j, x in enumerate(row)] for i, row in enumerate(b)]
        assert g.h_vector == trop_eval_many(g.f_columns, dirs)


# largest k-fold band graph per closed fixture that the oracle enumerates in
# well under a second (annulus 8-fold: 2207 matchings)
ORACLE_KMAX = {"annulus": 8, "annulus2": 4, "torus-boundary": 3}


def k_fold_fixtures(kmax):
    for name, t, c in closed_fixtures():
        for k in range(1, kmax[name] + 1):
            yield name, k, build_band_graph(t, closed_curve(c.steps * k))


def test_oracle_matches_fixture_bands():
    for name, k, g in k_fold_fixtures(ORACLE_KMAX):
        assert matching_sum(g) == g.principal_msw, (name, k)


def test_k_fold_annulus_core_is_chebyshev():
    # msw(k-fold) = T_k(msw(1-fold)), T_0 = 2, T_1 = x, T_k = x*T_{k-1} - T_{k-2};
    # the 12-fold core has the widest packed fields of the corpus bracelets
    x = msw_function(ANNULUS, CORE)
    cheb = [lp_const(2, 2), x]
    for _ in range(2, 13):
        cheb.append(lp_sub(lp_mul(x, cheb[-1]), cheb[-2]))
    for k in range(1, 13):
        assert build_band_graph(ANNULUS, closed_curve(CORE.steps * k)).msw == cheb[k], k


def test_oracle_shares_no_scan_code(monkeypatch):
    t = load_surface("torus-boundary")
    c = parse_curve(t, load_curve_text("torus-weave"))
    expected = build_band_graph(t, c).principal_msw

    def boom(*args):
        raise AssertionError("the oracle reached the scan or its layout")

    for name in ("_lay_out", "_scan", "_byte_width", "_unpack"):
        monkeypatch.setattr(snakegraph, name, boom)
    g = build_band_graph(t, c)
    assert "_layout" not in g.shape.__dict__  # a fresh shape
    assert matching_sum(g) == expected
    with pytest.raises(AssertionError, match="scan or its layout"):
        g.principal_msw


def transported_arcs():
    """Snake graphs of each transportable flip's new diagonal, pulled back."""
    for name in ("pentagon", "hexagon", "punctured-square"):
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            if res.quad is None:
                continue
            back = transport_curve(arc_curve(k), res.quad, forward=False)
            yield name, k, build_snake_graph(t, back)


def test_oracle_matches_transported_arcs():
    for name, k, g in transported_arcs():
        assert matching_sum(g) == g.principal_msw, (name, k)


def swept_arcs(monkeypatch, depth):
    """Snake graphs of every pulled-back arc that the arc sweep of the five
    arc surfaces checks with words up to depth, less the arcs of t0 itself."""
    backs = []
    real = harness._arc_report
    record = lambda t, c, *rest: backs.append((t, c)) or real(t, c, *rest)
    monkeypatch.setattr(harness, "_arc_report", record)
    for name in ("pentagon", "hexagon", "heptagon", "octagon", "annulus"):
        harness._arc_sweep(load_surface(name), name, depth, [])
    return [(t, c, build_snake_graph(t, c)) for t, c in backs if c.steps]


def test_reads_agree_on_a_swept_arc_and_its_reversal(monkeypatch):
    # the arc sweep keys an arc by one of its two orientations; either one
    # must give the same expansion and the same F, g and h
    for t, c, g in swept_arcs(monkeypatch, 5):
        rev = build_snake_graph(t, _reversed(c))
        assert msw_function(t, _reversed(c)) == msw_function(t, c), c
        assert (rev.f_poly, rev.g_vector, rev.h_vector) == (g.f_poly, g.g_vector, g.h_vector), c


def loop_arcs():
    """Snake graphs with an edge labelled by a loop: on each triangulation
    three flips from the punctured square that has a self-folded triangle,
    the arcs one or two flips further, pulled back to it."""
    t0 = load_surface("punctured-square")
    seen = set()
    for word in itertools.product(range(1, 5), repeat=3):
        t, _ = flip_word(t0, list(word))
        loops = set(folded_sides(t).values())
        for more in itertools.product(range(1, 5), repeat=2) if loops else ():
            for j in range(1, 5):
                c = arc_curve(j)
                try:
                    cur, quads = t, []
                    for k in more:
                        res = harness.require_transportable(cur, k)
                        cur, quads = res.triangulation, quads + [res.quad]
                    for q in reversed(quads):
                        c = transport_curve(c, q, forward=False)
                except TransportError:
                    continue
                if c.steps and (t, c) not in seen:
                    seen.add((t, c))
                    g = build_snake_graph(t, c)
                    if any(loops & set(tile.compass) for tile in g.tiles):
                        yield word, more, j, g


def test_oracle_matches_swept_and_loop_arcs(monkeypatch):
    # the closed fixtures and their k-fold curves are in
    # test_oracle_matches_fixture_bands
    swept = swept_arcs(monkeypatch, 5)
    assert len(swept) == 60 - 16 and max(g.d for *_, g in swept) == 9
    for t, c, g in swept:
        assert matching_sum(g) == g.principal_msw, c
    looped = list(loop_arcs())
    assert len(looped) == 50 and {g.d for *_, g in looped} == {1, 2}
    for word, more, j, g in looped:
        assert matching_sum(g) == g.principal_msw, (word, more, j)


def test_sweeps_scan_every_graph_they_build(monkeypatch):
    # a graph reads W off its shape, which may have been scanned for another
    graphs = []
    real = snakegraph._build

    def keeping(t, c):
        graphs.append(real(t, c))
        return graphs[-1]

    monkeypatch.setattr(snakegraph, "_build", keeping)
    cfg = CorpusConfig(keylemma_depth=2, arc_depth=3, arc_surfaces=("pentagon", "annulus"))
    assert all(r.passed for r in run_corpus(cfg))
    assert {g.band for g in graphs} == {True, False}
    assert all("_packed" in g.shape.__dict__ for g in graphs)


def test_key_lemma_corpus_scans_each_shape_once(monkeypatch):
    # 204 band graphs: the 2 + 95 + 104 states of the annulus, annulus2 and
    # torus-boundary sweeps, and each closed fixture again for
    # g-equals-shear.  A sweep holds 2, 14 and 14 shapes, and frees them
    # before the shear sweep builds its fixture again.
    calls = Counter()

    def counting(name):
        real = getattr(snakegraph, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(snakegraph, name, counted)

    counting("_build")
    counting("_scan")
    reports = run_corpus(CorpusConfig(keylemma_depth=4, arc_surfaces=()))
    assert len(reports) == 1177 and all(r.passed for r in reports)
    assert calls == {"_build": 204, "_scan": 2 + 14 + 14 + 3}


def test_key_lemma_corpus_finds_each_shape_floor_once_and_builds_no_f_dict(monkeypatch):
    # the sweeps read F in column form off each shape's floor; only the
    # compute path and the bracelets ask for F as a dict
    calls = Counter()
    real_build, real_floor, real_f_poly = snakegraph._build, snakegraph._find_floor, SnakeGraph.f_poly

    def counted_build(t, c):
        calls["_build"] += 1
        return real_build(t, c)

    def counted_floor(shape):
        calls["_find_floor"] += 1
        return real_floor(shape)

    def counted_f_poly(g):
        calls["f_poly"] += 1
        return real_f_poly.func(g)

    monkeypatch.setattr(snakegraph, "_build", counted_build)
    monkeypatch.setattr(snakegraph, "_find_floor", counted_floor)
    monkeypatch.setattr(SnakeGraph, "f_poly", property(counted_f_poly))
    reports = run_corpus(CorpusConfig(keylemma_depth=4, arc_surfaces=()))
    assert len(reports) == 1177 and all(r.passed for r in reports)
    assert calls == {"_build": 204, "_find_floor": 33}
    build_band_graph(ANNULUS, CORE).f_poly
    assert calls == {"_build": 205, "_find_floor": 34, "f_poly": 1}


def keylemma_states(depth):
    """(t, c) of every state the key-lemma sweeps read with words up to depth."""
    for _, t0, c0 in closed_fixtures():
        for t, c, *_ in harness._walk(t0, c0, depth, transport_curve, harness._state_key):
            yield t, c


def test_reads_off_a_shared_shape_match_the_oracle(monkeypatch):
    # every graph of the depth-4 key-lemma sweep, the depth-6 arc sweep,
    # the k-fold fixtures and the loop arcs, all alive at once: a graph
    # whose shape was first scanned for another one reads W and the floor
    # through its label map, and its reads must equal the oracle's
    bands = [build_band_graph(t, c) for t, c in keylemma_states(4)]
    snakes = [g for *_, g in swept_arcs(monkeypatch, 6)]
    folds = [g for *_, g in k_fold_fixtures(ORACLE_KMAX)]
    loops = [g for *_, g in loop_arcs()]
    assert (len(bands), len(snakes), len(folds), len(loops)) == (201, 46, 15, 50)
    read, borrowed = set(), Counter()
    for part, graphs in (("bands", bands), ("snakes", snakes), ("folds", folds), ("loops", loops)):
        for g in graphs:
            if g in read:  # a 1-fold fixture is the key-lemma start state
                continue
            read.add(g)
            borrowed[part] += "_packed" in g.shape.__dict__
            assert packed_reads(g) == tuple_reads(g), (part, g.tiles)
    assert len(read) == 201 + 46 + 12 + 50
    assert borrowed == {"bands": 171, "snakes": 19, "folds": 0, "loops": 28}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_relabelled_curves_read_relabelled_values(data):
    # σ(t, c) is (t, c) with its arc labels permuted: one shape, and every
    # read is (t, c)'s with σ applied to each exponent vector
    name = data.draw(st.sampled_from(sorted(CLOSED_CURVES)))
    t = load_surface(name)
    c = parse_curve(t, load_curve_text(CLOSED_CURVES[name]))
    c = closed_curve(c.steps * data.draw(st.integers(1, 2)))
    n = t.n_arcs
    sigma = data.draw(st.permutations(range(1, n + 1)))
    on = lambda v: tuple(v[sigma.index(j)] for j in range(1, n + 1))
    on_keys = lambda p: {on(e): x for e, x in p.items()}
    g, moved = build_band_graph(t, c), build_band_graph(*relabelled(t, c, sigma))
    assert moved.shape is g.shape
    assert (moved.f_poly, moved.msw) == (on_keys(g.f_poly), on_keys(g.msw))
    assert (moved.g_vector, moved.h_vector) == (on(g.g_vector), on(g.h_vector))
    assert moved.principal_msw == {on(e[:n]) + on(e[n:]): x for e, x in g.principal_msw.items()}


WEAVE = parse_curve(load_surface("torus-boundary"), load_curve_text("torus-weave"))


@pytest.mark.parametrize(
    "name, steps, error",
    [
        # the core starting in the other triangle on arc 1: tile 2's south
        # side is not the connector tile 1 is glued to it by
        ("annulus", ((1, 1), (1, 2)), "glued edge labeled 3 and 4 at tile 2"),
        # the weave crossing arc 1 first: the last step lands in a
        # triangle without arc 1, so no side connects the two tiles
        ("torus-boundary", ((0, 1),) + WEAVE.steps[1:], r"\(4, 2, 5\) gives no unique connector"),
        # the weave's last step crossing arc 3: the seam label is 1, which
        # no side of the first tile carries
        ("torus-boundary", WEAVE.steps[:-1] + ((0, 3),), "seam label 1 missing from the first tile"),
    ],
    ids=["glued-label", "connector", "seam-label"],
)
def test_build_rejects_steps_that_do_not_glue(monkeypatch, name, steps, error):
    # curves validate_curve rejects, to reach the build's own checks
    monkeypatch.setattr(snakegraph, "validate_curve", lambda t, c: None)
    with pytest.raises(SnakeGraphError, match=error):
        build_band_graph(load_surface(name), closed_curve(steps))


def tuple_reads(g):
    """(F, g, h, msw, principal_msw) from the oracle's matching sum by tuple
    formulas: W is that sum with the tiles' crossings added back, the floor
    is the least height in every direction, F and msw slice each key and
    subtract it, h is the least dot product of each direction with F's
    exponents, principal_msw multiplies by a monomial."""
    n = g.surface.n_arcs
    cross = [sum(tile.diagonal == i for tile in g.tiles) for i in range(1, n + 1)]
    w = {tuple(map(sum, zip(key, cross))) + key[n:]: cnt for key, cnt in matching_sum(g).items()}
    m0 = tuple(min(key[n + i] for key in w) for i in range(n))
    (floor,) = [key for key in w if key[n:] == m0]
    assert w[floor] == 1
    f, msw = {}, {}
    for key, cnt in w.items():
        y = tuple(a - b for a, b in zip(key[n:], m0))
        f[y] = f.get(y, 0) + cnt
        x = tuple(a - b for a, b in zip(key[:n], g.cross_vec))
        msw[x] = msw.get(x, 0) + cnt
    gv = tuple(a - b for a, b in zip(floor[:n], g.cross_vec))
    rows = enumerate(adjacency_matrix(g.surface))
    dirs = [tuple(-1 if j == i else max(-x, 0) for j, x in enumerate(r)) for i, r in rows]
    principal = lp_mul(w, {tuple(-e for e in g.cross_vec + m0): 1})
    h = tuple(min(sum(a * b for a, b in zip(d, e)) for e in f) for d in dirs)
    return f, gv, h, msw, principal


def packed_reads(g):
    return g.f_poly, g.g_vector, g.h_vector, g.msw, g.principal_msw


def test_packed_reads_match_tuple_formulas():
    kmax = {"annulus": 4, "annulus2": 4, "torus-boundary": 4}
    graphs = list(k_fold_fixtures(kmax)) + list(transported_arcs())
    assert len(graphs) == 12 + 9
    for name, k, g in graphs:
        assert packed_reads(g) == tuple_reads(g), (name, k)


def single_tile_graph():
    t = load_surface("pentagon")
    return build_snake_graph(t, transport_curve(arc_curve(1), flip(t, 1).quad, forward=False))


def unshared(g):
    """A copy of g on a copy of its shape that no other graph reads and that
    has no read cached."""
    out, s = SnakeGraph(g.surface, g.tiles, g.band, g.iota, g.omega, g.cross_vec), g.shape
    positions, diagonals, compasses = zip(*s.tiles)
    labels = diagonals + tuple(itertools.chain(*zip(*compasses)))
    out.shape = Shape(positions, labels, s.band, s.iota, s.omega, s.weights)
    assert out.shape.tiles == s.tiles and out.shape is not s
    return out


def test_crossing_vector_does_not_set_the_field_width():
    # x1 labels no edge of the tile it is the diagonal of: its column sums to
    # 0 while it is crossed once.  The reads subtract the crossings from
    # unpacked ints, so a graph crossed 300 times there keeps 8-bit fields.
    g = single_tile_graph()
    assert g.cross_vec == (1, 0)
    assert 1 not in edges(g).values()
    assert g.shape._layout[1] == 8
    crossed = SnakeGraph(g.surface, g.tiles, g.band, g.iota, g.omega, (300, 0))
    assert crossed.shape is g.shape and crossed.shape._layout[1] == 8
    assert packed_reads(crossed) == tuple_reads(crossed)
    assert crossed.msw == {(-300, 0): 1, (-300, 1): 1}


def test_layout_bound_is_the_largest_edge_magnitude_sum(monkeypatch):
    # the layout counts each S_i from label counts and tile ranks in their
    # columns, and widens its fields to hold the largest; here S_i is summed
    # edge by edge over the oracle's edges: an edge's x-weight (no fixture
    # band has a loop), and for a horizontal edge one y per tile above it in
    # its column.  From the 11-fold annulus core on, a y-field sets 16-bit
    # fields.
    bounds, real = [], snakegraph._byte_width
    monkeypatch.setattr(snakegraph, "_byte_width", lambda bound: bounds.append(bound) or real(bound))
    widths = {}
    for name, k, g in k_fold_fixtures({"annulus": 12, "annulus2": 8, "torus-boundary": 6}):
        sums = Counter()
        for (a, b), label in edges(g).items():
            sums["x", label] += not g.surface.is_boundary(label)
            for tile in g.tiles if a[1] == b[1] else ():
                sums["y", tile.diagonal] += tile.pos[0] == a[0] and tile.pos[1] >= a[1]
        widths[name, k] = snakegraph._lay_out(g.shape)[1]
        assert bounds[-1] == max(sums.values()), (name, k)
    assert widths["annulus", 11] == 16 and widths["annulus", 10] == 8


def test_fields_wider_than_64_bits_raise(monkeypatch):
    # no graph small enough to scan needs a 65-bit field, so the widths are
    # cut to 8 bits: the 11-fold annulus core's real layout bound, which
    # needs 16, then meets the same refusal as a 65-bit one, on every read
    monkeypatch.setattr(snakegraph, "_TYPECODES", {8: "b"})
    g = unshared(build_band_graph(ANNULUS, closed_curve(CORE.steps * 11)))
    for _ in range(2):
        with pytest.raises(ValueError, match=r"exponents up to 1\d\d do not fit a 8-bit packed field"):
            g.msw
    assert "_layout" not in g.shape.__dict__


def test_floor_must_be_one_matching():
    # two matchings on the least height, then a least height no matching has
    g = single_tile_graph()
    for w in ({(1, 0, 0, 0): 1, (0, 1, 0, 0): 1}, {(0, 0, 0, 1): 1, (0, 0, 1, 0): 1}):
        fake = unshared(g)
        fake.shape.__dict__["_packed"] = {pack(key, g.shape._layout[1]): 1 for key in w}
        with pytest.raises(SnakeGraphError, match="height floor"):
            fake.f_poly


def test_reads_scan_and_unpack_w_once(monkeypatch):
    t = load_surface("torus-boundary")
    c = parse_curve(t, load_curve_text("torus-weave"))
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(snakegraph, "_scan")
    counting(snakegraph, "_unpack")
    g = build_band_graph(t, closed_curve(c.steps * 2))
    assert "_packed" not in g.shape.__dict__  # a fresh shape
    packed_reads(g)
    assert calls == ["_scan", "_unpack"]
    assert matching_sum(g) == g.principal_msw
    assert calls == ["_scan", "_unpack"]


def test_scan_copies_a_shared_frontier_before_merging_into_it(monkeypatch):
    # a frontier that both takes and skips an edge hands one terms dict to
    # two states; merging a third state into one of them must not change
    # the other
    merge = snakegraph._merge
    copied = []

    def watching_merge(a, b):
        unowned = [(terms, dict(terms)) for _, terms, owned in (a, b) if not owned]
        out = merge(a, b)
        assert all(terms == before for terms, before in unowned)
        copied.append(out[1] is not a[1] and out[1] is not b[1])
        return out

    monkeypatch.setattr(snakegraph, "_merge", watching_merge)
    t = load_surface("torus-boundary")
    g = build_band_graph(t, parse_curve(t, load_curve_text("torus-weave")))
    assert "_packed" not in g.shape.__dict__
    assert matching_sum(g) == g.principal_msw
    assert any(copied)


@pytest.mark.parametrize("small_owned", [False, True])
@pytest.mark.parametrize("large_owned", [False, True])
@pytest.mark.parametrize("large_first", [False, True])
def test_merge_shifts_the_smaller_terms_into_the_larger(small_owned, large_owned, large_first):
    # a state is (offset, {packed weight - offset: count}, owned)
    small = (5, {0: 1, 3: 2}, small_owned)
    large = (2, {0: 4, 6: 1, 9: 3}, large_owned)
    absolute = lambda state: Counter({p + state[0]: cnt for p, cnt in state[1].items()})
    want, kept = absolute(small) + absolute(large), dict(large[1])
    merged = snakegraph._merge(*((large, small) if large_first else (small, large)))
    assert absolute(merged) == want and merged[2]
    assert small[1] == {0: 1, 3: 2}  # the smaller dict is never written
    if large_owned:
        assert merged[1] is large[1]
    else:  # an unowned dict is copied before it is written
        assert merged[1] is not large[1] and large[1] == kept


# small keys and offsets, so that shifted keys often collide
states = st.tuples(
    st.integers(-30, 30), st.dictionaries(st.integers(-30, 30), st.integers(1, 9), max_size=8), st.booleans()
)


@settings(max_examples=200, deadline=None)
@given(states, states)
def test_merge_returns_the_shifted_sum_and_writes_only_an_owned_larger_dict(a, b):
    # a state is (offset, {packed weight - offset: count}, owned); the
    # larger dict is written in place only when owned, the smaller never
    absolute = lambda offset, terms, _: Counter({p + offset: cnt for p, cnt in terms.items()})
    large, small = (b, a) if len(a[1]) < len(b[1]) else (a, b)
    kept_large, kept_small, want = dict(large[1]), dict(small[1]), absolute(*a) + absolute(*b)
    merged = snakegraph._merge(a, b)
    assert absolute(*merged) == want and merged[2]
    assert small[1] == kept_small and merged[1] is not small[1]
    if large[2]:
        assert merged[1] is large[1]
    else:
        assert merged[1] is not large[1] and large[1] == kept_large


def test_loop_edge_weighs_the_loop_and_its_radius():
    # the square flipped to a self-folded triangle (radius 4 inside loop 2);
    # a curve across arc 1 into the loop's other triangle has an edge
    # labelled by the loop, whose x-weight is x(loop) * x(radius)
    t, _ = flip_word(load_surface("punctured-square"), [1, 3, 2])
    ((radius, loop),) = folded_sides(t).items()
    g = build_snake_graph(t, open_curve([(3, 1)], ((3, 0), (0, 0))))
    assert loop in edges(g).values()
    renamed = g.labels.index(loop) + 1
    assert [g.labels[a - 1] for a in g.shape.weights[renamed - 1]] == [loop, radius]
    assert matching_sum(g) == g.principal_msw


def test_F_constant_term_one_h_nonpositive():
    for name, t, c in closed_fixtures():
        g = build_band_graph(t, c)
        f = snake_F_poly(g)
        n = t.n_arcs
        assert f[(0,) * n] == 1
        assert all(coeff > 0 for coeff in f.values())
        assert all(h <= 0 for h in snake_h_vector(g))


def test_h_equals_min_zero_g_on_closed_fixtures():
    for name, t, c in closed_fixtures():
        g = build_band_graph(t, c)
        gv, hv = snake_g_vector(g), snake_h_vector(g)
        assert hv == tuple(min(0, x) for x in gv), name


def test_polygon_arc_msw_vs_seed_engine():
    for name in ("pentagon", "hexagon"):
        t0 = load_surface(name)
        n = t0.n_arcs
        for word in itertools.product(range(1, n + 1), repeat=2):
            t, quads = t0, []
            seed = initial_seed(adjacency_matrix(t0))
            ok = True
            for k in word:
                res = flip(t, k)
                if res.quad is None:
                    ok = False
                    break
                t, quads = res.triangulation, quads + [res.quad]
                seed = seed_mutate(seed, k - 1)
            if not ok:
                continue
            for j in range(1, n + 1):
                c = arc_curve(j)
                for q in reversed(quads):
                    c = transport_curve(c, q, forward=False)
                msw = msw_function(t0, c)
                assert msw == seed.x[j - 1], (name, word, j)


def test_rejects_mismatched_build():
    with pytest.raises(SnakeGraphError):
        build_snake_graph(ANNULUS, CORE)
    with pytest.raises(SnakeGraphError):
        build_band_graph(ANNULUS, arc_curve(1))
