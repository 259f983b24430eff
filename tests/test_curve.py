"""Positioned curves: validation, crossing products, transport across flips."""

import itertools
from dataclasses import replace

import pytest

from bangles.curve import (
    CurveError,
    _reversed,
    TransportError,
    arc_curve,
    closed_curve,
    crossing_monomial,
    format_curve,
    normalize_curve,
    parse_curve,
    transport_curve,
    validate_curve,
)
from bangles.fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from bangles.poly import lp_monomial, lp_one
from bangles.surface import flip, flip_word

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
    assert crossing_monomial(ANNULUS, CORE) == lp_monomial((1, 1), 1)
    assert crossing_monomial(ANNULUS, arc_curve(1)) == lp_one(2)


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
            if res.quad is None or not res.quad.transportable:
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
            if any(s.quad is None or not s.quad.transportable for s in steps):
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
                if res.quad is None or not res.quad.transportable:
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
            if res.quad is None or not res.quad.transportable:
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


def test_parse_format_round_trip_closed():
    text = format_curve(ANNULUS, CORE)
    assert parse_curve(ANNULUS, text) == CORE


def test_parse_format_round_trip_open():
    res = flip(ANNULUS, 1)
    c = transport_curve(arc_curve(1), res.quad)
    t2 = res.triangulation
    text = format_curve(t2, c)
    assert "end" in text
    assert parse_curve(t2, text) == c


def test_parse_arc_form():
    c = parse_curve(ANNULUS, "curve closed=0\narc 2\n")
    assert c == arc_curve(2)


def test_transport_refuses_tagged_quads():
    square = load_surface("punctured-square")
    t4, _ = flip_word(square, [1, 3, 2])
    res = flip(t4, 4)  # folded side: tag switches involved
    assert res.quad is None
    res2 = flip(t4, 2)  # loop flip: ideal but not clean
    assert res2.quad is not None and not res2.quad.transportable
    with pytest.raises(TransportError):
        transport_curve(arc_curve(1), res2.quad)


def _view_cases():
    """(surface, curve on it) for every closed fixture and label-only arc."""
    for surface, t, c in closed_fixtures():
        yield surface, t, c
    for surface in SURFACES:
        t = load_surface(surface)
        for j in range(1, t.n_arcs + 1):
            yield surface, t, arc_curve(j)


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
            if res.quad is None or not res.quad.transportable:
                continue
            moved = transport_curve(c, replace(res.quad), True)
            back = transport_curve(moved, replace(res.quad), False)
            assert normalize_curve(back) == normalize_curve(c), (surface, c, k)
            q = replace(res.quad)  # no view built yet
            if first == "forward":
                assert transport_curve(c, q, True) == moved, (surface, c, k)
                assert transport_curve(moved, q, False) == back, (surface, c, k)
            else:
                assert transport_curve(moved, q, False) == back, (surface, c, k)
                assert transport_curve(c, q, True) == moved, (surface, c, k)
            assert "forward_view" in vars(q) and "backward_view" in vars(q)
            compared += 1
    assert compared == 126
