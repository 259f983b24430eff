"""Positioned curves: text form, validation, crossing counts, transport
across flips."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from bangles.curve import (
    CurveError,
    _reversed,
    TransportError,
    arc_curve,
    closed_curve,
    normalize_curve,
    open_curve,
    parse_curve,
    transport_curve,
    validate_curve,
)
from bangles.fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from bangles.harness import require_transportable
from bangles.snakegraph import build_band_graph, build_snake_graph
from bangles.surface import QuadRecord, TriangulationError, flip

from flipwords import flip_word
from oracles import normalize_by_all_rotations

ANNULUS = load_surface("annulus")
CORE = parse_curve(ANNULUS, load_curve_text("annulus-core"))


def closed_fixtures():
    for surface, curve in CLOSED_CURVES.items():
        t = load_surface(surface)
        yield surface, t, parse_curve(t, load_curve_text(curve))


def test_fixture_curves_validate():
    for _, t, c in closed_fixtures():
        validate_curve(t, c)
        assert c.closed


def test_annulus_core_steps():
    assert CORE.steps == ((0, 1), (1, 2))


def test_crossing_monomial():
    # a graph's crossing monomial has one x variable per crossing
    assert build_band_graph(ANNULUS, CORE).cross_vec == (1, 1)
    torus = load_surface("torus-boundary")
    weave = parse_curve(torus, load_curve_text("torus-weave"))
    assert build_band_graph(torus, weave).cross_vec == (2, 2, 2, 2, 0)
    pentagon = load_surface("pentagon")
    back = transport_curve(arc_curve(1), flip(pentagon, 1).quad, forward=False)
    assert build_snake_graph(pentagon, back).cross_vec == (1, 0)


def test_validation_rejects_bad_adjacency():
    with pytest.raises(CurveError):
        validate_curve(ANNULUS, closed_curve([(0, 1), (0, 2)]))


def test_validation_rejects_consecutive_same_arc():
    t = load_surface("torus-boundary")
    with pytest.raises(CurveError):
        validate_curve(t, closed_curve([(0, 1), (1, 1)]))


def test_validation_rejects_boundary_crossing():
    with pytest.raises(CurveError):
        validate_curve(ANNULUS, closed_curve([(0, 3), (0, 3)]))


def test_normalize_rotation():
    c = closed_curve([(1, 2), (0, 1)])
    assert normalize_curve(c).steps == ((0, 1), (1, 2))


# few triangles and arcs, so the least step often recurs
_STEPS = st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), min_size=1, max_size=8)
_CORNERS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(_STEPS, st.integers(1, 4))
def test_normalize_takes_the_least_of_all_rotations(steps, fold):
    # a k-fold list repeats its least step at least k times
    c = closed_curve(steps * fold)
    assert normalize_curve(c) == normalize_by_all_rotations(c)


@settings(max_examples=200, deadline=None)
@given(_STEPS, _CORNERS, _CORNERS)
def test_normalize_takes_the_lesser_orientation_of_an_open_curve(steps, end0, end1):
    c = open_curve(steps, (end0, end1))
    assert normalize_curve(c) == normalize_by_all_rotations(c)


def test_transport_annulus_core():
    res = flip(ANNULUS, 1)
    moved = transport_curve(CORE, res.quad)
    validate_curve(res.triangulation, moved)
    assert normalize_curve(moved).steps == ((0, 1), (1, 2))
    back = transport_curve(moved, res.quad, forward=False)
    validate_curve(ANNULUS, back)
    assert normalize_curve(back) == normalize_curve(CORE)


def test_transport_materializes_flipped_arc():
    res = flip(ANNULUS, 1)
    c = transport_curve(arc_curve(1), res.quad)
    validate_curve(res.triangulation, c)
    assert c.steps == ((0, 1),)
    assert c.ends == ((0, 0), (1, 0))
    back = transport_curve(c, res.quad, forward=False)
    assert back == arc_curve(1)


def test_transport_keeps_other_arcs():
    res = flip(ANNULUS, 1)
    assert transport_curve(arc_curve(2), res.quad) == arc_curve(2)


def test_transport_round_trip_all_fixtures():
    for name, t, c in closed_fixtures():
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            if res.quad is None:
                continue
            moved = transport_curve(c, res.quad)
            validate_curve(res.triangulation, moved)
            back = transport_curve(moved, res.quad, forward=False)
            validate_curve(t, back)
            assert normalize_curve(back) == normalize_curve(c), (name, k)


def _pulled_back_arcs():
    """(surface, t0, curve) for each arc of a triangulation one or two
    transportable flips from a fixture, pulled back to the fixture."""
    for name in SURFACES:
        t0 = load_surface(name)
        arcs = range(1, t0.n_arcs + 1)
        for word in itertools.chain.from_iterable(itertools.product(arcs, repeat=r) for r in (1, 2)):
            t, steps = flip_word(t0, list(word))
            if any(s.quad is None for s in steps):
                continue
            for j in arcs:
                c = arc_curve(j)
                for s in reversed(steps):
                    c = transport_curve(c, s.quad, forward=False)
                if c.steps:
                    yield name, t0, c


def test_an_open_curve_and_its_reversal_are_one_key():
    seen = 0
    for name, t, c in _pulled_back_arcs():
        rev = _reversed(c)
        validate_curve(t, rev)
        assert _reversed(rev) == c, (name, c)
        assert normalize_curve(rev) == normalize_curve(c) in (c, rev), (name, c)
        seen += 1
    assert seen > 100


def test_transport_chains_along_words():
    for name, t0, c0 in closed_fixtures():
        arcs = range(1, t0.n_arcs + 1)
        for word in itertools.chain.from_iterable(
            itertools.product(arcs, repeat=r) for r in (1, 2, 3)
        ):
            t, c = t0, c0
            ok = True
            for k in word:
                res = flip(t, k)
                if res.quad is None:
                    ok = False
                    break
                c = transport_curve(c, res.quad)
                t = res.triangulation
                validate_curve(t, c)
            if not ok:
                continue


def test_arc_transport_round_trip_on_polygons():
    for name in ("pentagon", "hexagon", "punctured-square"):
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            if res.quad is None:
                continue
            for j in range(1, t.n_arcs + 1):
                moved = transport_curve(arc_curve(j), res.quad)
                validate_curve(res.triangulation, moved)
                back = transport_curve(moved, res.quad, forward=False)
                validate_curve(t, back)
                assert back == arc_curve(j), (name, k, j)


def test_flipped_arc_pulled_back():
    # arc 1 of the flipped pentagon, written on the original pentagon
    t = load_surface("pentagon")
    res = flip(t, 1)
    c = transport_curve(arc_curve(1), res.quad, forward=False)
    validate_curve(t, c)
    assert c.d == 1 and c.steps[0][1] == 1
    again = transport_curve(c, res.quad)
    assert again == arc_curve(1)


# the arc through the two corners flip(ANNULUS, 1) leaves untouched, on the
# flipped annulus: each end corner needs corner=0, since its marked point
# is at two corners of its triangle
FLIPPED_ARC_TEXT = (
    "curve closed=0\n"
    "end marked:1 tag=plain corner=0\n"
    "tri 1 cross 1\n"
    "end marked:2 tag=plain corner=0\n"
)


def test_parse_format_round_trip_closed():
    text = "curve closed=1\ntri 1 cross 1\ntri 2 cross 2\n"
    assert parse_curve(ANNULUS, text) == CORE == closed_curve([(0, 1), (1, 2)])


def test_parse_format_round_trip_open():
    res = flip(ANNULUS, 1)
    want = transport_curve(arc_curve(1), res.quad)
    assert parse_curve(res.triangulation, FLIPPED_ARC_TEXT) == want


def test_parse_arc_form():
    c = parse_curve(ANNULUS, "curve closed=0\narc 2\n")
    assert c == arc_curve(2)


_PARSE_SURFACES = {
    "annulus": ANNULUS,
    "pentagon": load_surface("pentagon"),
    "annulus-flip-1": flip(ANNULUS, 1).triangulation,
    "punctured-square": load_surface("punctured-square"),
    # a self-folded triangle: folded side 4 inside loop 2
    "square-flip-132": flip_word(load_surface("punctured-square"), [1, 3, 2])[0],
}


@pytest.mark.parametrize(
    "surface, text, exc, fragment",
    [
        ("annulus", "curve closed=1\nloop 1\n", CurveError, "unknown directive 'loop'"),
        ("annulus", "curve closed=yes\n", CurveError, "line 1: cannot parse"),
        ("annulus", "curve\n", CurveError, "line 1: cannot parse"),
        ("annulus", "curve closed=1\ntri 1 cross\n", CurveError, "line 2: cannot parse"),
        ("annulus", "tri 1 cross 1\n", CurveError, "missing curve header"),
        ("annulus", "curve closed=1\narc 1\n", CurveError, "label-only curves cannot be closed"),
        ("annulus", "curve closed=0\narc 1\nend marked:1\n", CurveError, "carry steps or end lines"),
        # end lines that name no vertex of the annulus: the label alone fixes the arc
        (
            "annulus",
            "curve closed=0\narc 1\nend marked:99\nend puncture:7\n",
            CurveError,
            "label-only curves cannot be closed or carry steps or end lines: the label fixes the arc",
        ),
        # a notched end, in the arc form and on an open curve: no expansion
        # reads the tag, so it would get the plain answer
        (
            "punctured-square",
            "curve closed=0\narc 1\nend puncture:1 tag=notched\nend marked:1\n",
            CurveError,
            "line 3: end tag 'notched': only plain ends have expansions",
        ),
        (
            "punctured-square",
            "curve closed=0\nend puncture:1 tag=notched\ntri 1 cross 2\nend marked:3\n",
            CurveError,
            "line 2: end tag 'notched': only plain ends have expansions",
        ),
        # what the reader does not know it refuses, rather than dropping it
        (
            "annulus",
            "curve closed=1 colour=red\ntri 1 cross 1\ntri 2 cross 2\n",
            CurveError,
            "line 1: unknown option 'colour'",
        ),
        ("annulus", "curve closed=1 closed=0\narc 1\n", CurveError, "line 1: an option given twice"),
        ("annulus", "curve closed=1\ntri 1 cross 1 twice\ntri 2 cross 2\n", CurveError, "line 2: cannot parse"),
        ("annulus", "curve closed=0\narc 1 extra\n", CurveError, "line 2: cannot parse"),
        ("annulus", "curve closed=1\ncurve closed=0\narc 1\n", CurveError, "line 2: a second curve header"),
        ("annulus", "curve closed=0\narc 1\narc 2\n", CurveError, "line 3: a second arc line"),
        (
            "annulus-flip-1",
            FLIPPED_ARC_TEXT.replace("corner=0\n", "corner=0 side=left\n", 1),
            CurveError,
            "line 2: unknown option 'side'",
        ),
        ("annulus", "curve closed=0\narc 3\n", CurveError, "no arc 3"),
        (
            "annulus",
            "curve closed=1\nend marked:1\ntri 1 cross 1\ntri 2 cross 2\n",
            CurveError,
            "closed curves have no ends",
        ),
        ("annulus", "curve closed=1\n", CurveError, "at least one crossing or an arc label"),
        ("annulus", "curve closed=1\ntri 3 cross 1\ntri 2 cross 2\n", CurveError, "no triangle 3"),
        ("annulus", "curve closed=1\ntri 1 cross 3\ntri 2 cross 2\n", CurveError, "label 3 is not an arc"),
        ("annulus", "curve closed=1\ntri 1 cross 1\n", CurveError, "crosses at least two arcs"),
        (
            "annulus",
            "curve closed=1\ntri 1 cross 1\ntri 1 cross 2\n",
            CurveError,
            "step 1 lands in triangle 2, but the next step starts in 1",
        ),
        ("annulus", "curve closed=1\ntri 1 cross 1\ntri 2 cross 1\n", CurveError, "consecutive crossings"),
        ("pentagon", "curve closed=1\ntri 1 cross 2\ntri 2 cross 1\n", CurveError, "arc 2 is not a side"),
        ("square-flip-132", "curve closed=1\ntri 3 cross 4\ntri 1 cross 2\n", CurveError, "cannot be crossed"),
        (
            "annulus-flip-1",
            FLIPPED_ARC_TEXT.replace("plain", "bent", 1),
            CurveError,
            "end tag 'bent': only plain ends have expansions",
        ),
        ("annulus-flip-1", "curve closed=0\ntri 1 cross 1\n", CurveError, "need exactly two end lines"),
        ("annulus-flip-1", "curve closed=0\nend marked:1\nend marked:2\n", CurveError, "use the arc form"),
        (
            "annulus-flip-1",
            FLIPPED_ARC_TEXT.replace("corner=0", "corner=2", 1),
            CurveError,
            "end marked:1 is not at corner 2 of triangle 1",
        ),
        (
            "annulus-flip-1",
            FLIPPED_ARC_TEXT.replace(" corner=0", "", 1),
            CurveError,
            "end marked:1 does not pick a unique corner of triangle 1",
        ),
        (
            "annulus-flip-1",
            FLIPPED_ARC_TEXT.replace("marked:2", "marked:9"),
            TriangulationError,
            "unknown vertex reference 'marked:9'",
        ),
    ],
)
def test_parse_curve_rejects_malformed_text(surface, text, exc, fragment):
    # every raise that curve text can reach; the rest of validate_curve
    # guards curves built in code, which parse_curve never hands it
    with pytest.raises(exc, match=re.escape(fragment)):
        parse_curve(_PARSE_SURFACES[surface], text)


def test_transport_refuses_tagged_quads():
    square = load_surface("punctured-square")
    t4, _ = flip_word(square, [1, 3, 2])
    # folded side: tag switches involved; loop flip: ideal but not clean
    for k in (4, 2):
        assert flip(t4, k).quad is None
        with pytest.raises(TransportError, match=f"^flip at {k} has no transportable quadrilateral$"):
            require_transportable(t4, k)


def _view_cases():
    """(surface, curve on it) for every closed fixture and label-only arc."""
    for surface, t, c in closed_fixtures():
        yield surface, t, c
    for surface in SURFACES:
        t = load_surface(surface)
        for j in range(1, t.n_arcs + 1):
            yield surface, t, arc_curve(j)


def _fresh(q: QuadRecord) -> QuadRecord:
    """A copy of the quad with no view built."""
    return QuadRecord(q.arc, q.tri_a, q.tri_b, q.sides, q.old_k_slots)


@pytest.mark.parametrize("first", ["forward", "backward"])
def test_shared_views_transport_like_fresh_ones(first):
    # a quad keeps one view per direction; a transport through it must
    # match the same transport through a fresh copy of the quad, whichever
    # direction's view was built first, and carrying a curve there and
    # back must return it
    compared = 0
    for surface, t, c in _view_cases():
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            if res.quad is None:
                continue
            moved = transport_curve(c, _fresh(res.quad), True)
            back = transport_curve(moved, _fresh(res.quad), False)
            assert normalize_curve(back) == normalize_curve(c), (surface, c, k)
            q = _fresh(res.quad)  # no view built yet
            if first == "forward":
                assert transport_curve(c, q, True) == moved, (surface, c, k)
                assert transport_curve(moved, q, False) == back, (surface, c, k)
            else:
                assert transport_curve(moved, q, False) == back, (surface, c, k)
                assert transport_curve(c, q, True) == moved, (surface, c, k)
            assert "forward_view" in vars(q) and "backward_view" in vars(q)
            compared += 1
    assert compared == 126


def test_closed_curves_build_no_corner_table():
    # only ends and flipped arcs read corners, so a closed curve's
    # transport leaves the view's corner tables unbuilt
    for surface, t, c in closed_fixtures():
        for k in range(1, t.n_arcs + 1):
            q = flip(t, k).quad
            if q is not None:
                transport_curve(c, q)
                assert "_corner_tables" not in vars(q.forward_view), (surface, k)
