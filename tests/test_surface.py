"""Triangulation combinatorics: parsing, vertex orbits, B(T), flips, tags."""

import gc
import itertools
import re
import weakref

import pytest

from bangles.fixtures import SURFACES, load_surface
from bangles.mutation import is_skew_symmetric, matrix_mutate
from bangles.surface import (
    Triangulation,
    TriangulationError,
    UnsupportedFlipError,
    adjacency_matrix,
    arc_endpoints,
    canonical_form,
    flip,
    folded_sides,
    format_triangulation,
    marked_points,
    parse_triangulation,
    pi_map,
    punctures,
    resolve_vertex_ref,
    tag_switch,
    validate,
)

from flipwords import flip_word

ANNULUS = load_surface("annulus")
SQUARE = load_surface("punctured-square")


def test_fixtures_parse_and_validate():
    for name in SURFACES:
        t = load_surface(name)
        validate(t)
        assert is_skew_symmetric(adjacency_matrix(t))


def test_fixture_vertex_counts():
    expected = {
        "annulus": (2, 0),
        "pentagon": (5, 0),
        "hexagon": (6, 0),
        "heptagon": (7, 0),
        "octagon": (8, 0),
        "punctured-square": (4, 1),
        "annulus2": (4, 0),
        "torus-boundary": (2, 0),
    }
    for name, (n_marked, n_punct) in expected.items():
        t = load_surface(name)
        assert len(marked_points(t)) == n_marked, name
        assert len(punctures(t)) == n_punct, name


def test_annulus_adjacency_matrix():
    assert adjacency_matrix(ANNULUS) == ((0, -2), (2, 0))


def test_pentagon_adjacency_matrix():
    assert adjacency_matrix(load_surface("pentagon")) == ((0, -1), (1, 0))


def test_hexagon_adjacency_matrix():
    assert adjacency_matrix(load_surface("hexagon")) == (
        (0, -1, 0),
        (1, 0, -1),
        (0, 1, 0),
    )


def test_punctured_square_adjacency_matrix():
    assert adjacency_matrix(SQUARE) == (
        (0, -1, 0, 1),
        (1, 0, -1, 0),
        (0, 1, 0, -1),
        (-1, 0, 1, 0),
    )


def test_annulus_flip_triangles():
    res = flip(ANNULUS, 1)
    assert res.triangulation.triangles == ((2, 4, 1), (2, 3, 1))
    assert res.quad is not None
    assert res.quad.sides == (3, 2, 4, 2)


def test_flip_keeps_label_and_matrix_mutates():
    res = flip(ANNULUS, 1)
    assert adjacency_matrix(res.triangulation) == matrix_mutate(adjacency_matrix(ANNULUS), 0)


def test_double_flip_restores_canonical_form():
    for name in SURFACES:
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            back = flip(flip(t, k).triangulation, k).triangulation
            assert canonical_form(back)[0] == canonical_form(t)[0], (name, k)


def test_canonical_form_orders_the_stored_triangles():
    # the second part of canonical_form lists the stored triangles in the
    # order of their least rotations in the first, ties by storage index
    for name in SURFACES:
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            t2 = flip(t, k).triangulation
            (tris, _), order = canonical_form(t2)
            assert sorted(order) == list(range(len(t2.triangles))), (name, k)
            for place, i in enumerate(order):
                tri = t2.triangles[i]
                assert tris[place] == min(tri[j:] + tri[:j] for j in range(3)), (name, k)
            for p in range(len(order) - 1):
                assert tris[p] < tris[p + 1] or order[p] < order[p + 1], (name, k)


def test_flipped_triangulation_is_freed_when_dropped():
    # occurrences, corner orbits and vertices live on the object, so a long
    # sweep does not keep every triangulation it passed through
    t = flip(load_surface("hexagon"), 1).triangulation
    validate(t)
    flip(t, 2)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_flip_compatibility_sweep():
    """B(flip(T,k)) = mutation of B(T) at k, along all short flip words."""
    for name in SURFACES:
        t0 = load_surface(name)
        arcs = range(1, t0.n_arcs + 1)
        for word in itertools.chain.from_iterable(
            itertools.product(arcs, repeat=r) for r in range(0, 3)
        ):
            t, _ = flip_word(t0, word)
            b = adjacency_matrix(t)
            for k in arcs:
                t2 = flip(t, k).triangulation
                validate(t2)
                assert adjacency_matrix(t2) == matrix_mutate(b, k - 1), (name, word, k)


def test_cached_adjacency_matches_a_fresh_computation_along_flip_words():
    for name in SURFACES:
        t0 = load_surface(name)
        _, steps = flip_word(t0, list(range(1, t0.n_arcs + 1)) * 2)
        for t in [t0] + [step.triangulation for step in steps]:
            b = t.adjacency
            assert b == adjacency_matrix(t), name
            assert t.adjacency is b
            assert isinstance(b, tuple) and all(isinstance(row, tuple) for row in b)


def test_boundary_flip_rejected():
    with pytest.raises(UnsupportedFlipError):
        flip(ANNULUS, 3)
    with pytest.raises(UnsupportedFlipError):
        flip(ANNULUS, 99)


# ---------------------------------------------------------------------------
# tagged flips on the once-punctured square


def test_square_flip_chain_to_self_folded():
    t4, steps = flip_word(SQUARE, [1, 3, 2])
    assert folded_sides(t4) == {4: 2}
    # the loop flip creates a self-folded triangle: curves cannot follow it
    assert steps[-1].quad is None
    assert pi_map(t4)[4] == 2
    # the loop and its folded side share rows up to sign structure
    b = adjacency_matrix(t4)
    assert b[1] == b[3]  # arcs 2 and 4 (0-based rows 1 and 3)


def test_flip_of_loop_returns():
    t4, _ = flip_word(SQUARE, [1, 3, 2])
    t3 = flip_word(SQUARE, [1, 3])[0]
    assert canonical_form(flip(t4, 2).triangulation)[0] == canonical_form(t3)[0]


def test_flip_of_folded_side_gives_all_notched():
    t5, steps = flip_word(SQUARE, [1, 3, 2, 4])
    assert t5.notched == frozenset({1})
    assert not folded_sides(t5)
    assert steps[-1].quad is None


def test_tagged_flips_still_mutate_matrix():
    t0 = SQUARE
    for word in itertools.chain.from_iterable(
        itertools.product(range(1, 5), repeat=r) for r in range(0, 4)
    ):
        t, _ = flip_word(t0, word)
        b = adjacency_matrix(t)
        for k in range(1, 5):
            t2 = flip(t, k).triangulation
            validate(t2)
            assert adjacency_matrix(t2) == matrix_mutate(b, k - 1), (word, k)


def test_tag_switch_is_involutive():
    t4, _ = flip_word(SQUARE, [1, 3, 2])
    assert tag_switch(tag_switch(t4, 1), 1) == t4
    t5, _ = flip_word(SQUARE, [1, 3, 2, 4])
    assert tag_switch(tag_switch(t5, 1), 1) == t5


# a digon with two punctures: arc 5 joins its two marked points and cuts it
# into two once-punctured digons; arcs 1, 2 join puncture 1 to the marked
# points on the side of boundary segment 6, arcs 3, 4 puncture 2 on the
# side of segment 7
TWICE_PUNCTURED_DIGON = (
    "surface g=0 b=1 m=2 p=2\narcs 5\nboundary 2\n"
    "triangle 6 2 1\ntriangle 5 1 2\ntriangle 7 3 4\ntriangle 5 4 3\n"
)


@pytest.mark.parametrize("notched", [(), (1,), (2,), (1, 2)])
def test_tagged_flips_on_a_twice_punctured_digon(notched):
    # Flipping 1 or 2 (3 or 4) encloses puncture 1 (2) in a self-folded
    # triangle, so no corner outside the flip anchors it.  With that
    # puncture notched, the flip switches its tags back on the far side and
    # must find it by elimination.
    t = parse_triangulation(TWICE_PUNCTURED_DIGON)
    for pid in notched:
        t = tag_switch(t, pid)
    assert t.notched == frozenset(notched)
    for k in range(1, 6):
        t2 = flip(t, k).triangulation
        validate(t2)
        assert adjacency_matrix(t2) == matrix_mutate(adjacency_matrix(t), k - 1), k
        assert canonical_form(flip(t2, k).triangulation)[0] == canonical_form(t)[0], k


# ---------------------------------------------------------------------------
# text format


def test_format_parse_round_trip():
    for name in SURFACES:
        t = load_surface(name)
        assert parse_triangulation(format_triangulation(t)) == t


def test_notched_tags_round_trip():
    t5, _ = flip_word(SQUARE, [1, 3, 2, 4])
    text = format_triangulation(t5)
    assert "tag" in text and "notched" in text
    again = parse_triangulation(text)
    assert again.notched == frozenset({1})
    assert canonical_form(again)[0] == canonical_form(t5)[0]


def test_self_folded_annotation_round_trip():
    t4, _ = flip_word(SQUARE, [1, 3, 2])
    text = format_triangulation(t4)
    assert "selffolded=4" in text
    assert parse_triangulation(text) == t4


def test_partial_notching_rejected():
    text = format_triangulation(SQUARE) + "tag 1 0 notched\n"
    # arc 1 has one end at the puncture; tagging it alone is not normal form
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


def test_bad_incidence_rejected():
    text = "surface g=0 b=2 m=1,1 p=0\narcs 2\nboundary 2\ntriangle 2 1 3\ntriangle 2 2 4\n"
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


def test_degenerate_disks_rejected():
    for m, p in ((1, 0), (1, 1), (2, 0), (3, 0)):
        n = 3 + 3 * p + m - 6
        t = Triangulation(0, (m,), p, max(n, 0), m, ())
        with pytest.raises(TriangulationError):
            validate(t)


def test_arc_count_must_match_surface():
    text = "surface g=0 b=2 m=1,1 p=0\narcs 3\nboundary 2\ntriangle 2 1 3\ntriangle 2 1 4\n"
    with pytest.raises(TriangulationError):
        parse_triangulation(text)


ANNULUS_BODY = "arcs 2\nboundary 2\ntriangle 2 1 3\ntriangle 2 1 4\n"
ANNULUS_TEXT = "surface g=0 b=2 m=1,1 p=0\n" + ANNULUS_BODY
SQUARE_BODY = "arcs 4\nboundary 4\ntriangle 5 2 1\ntriangle 6 3 2\ntriangle 7 4 3\ntriangle 8 1 4\n"
# the punctured square with all four puncture ends notched (lines 8-11)
NOTCHED_SQUARE_TEXT = (
    "surface g=0 b=1 m=4 p=1\n" + SQUARE_BODY
    + "tag 1 0 notched\ntag 2 1 notched\ntag 3 1 notched\ntag 4 1 notched\n"
)
PENTAGON_TEXT = (
    "surface g=0 b=1 m=5 p=0\narcs 2\nboundary 5\ntriangle 3 4 1\ntriangle 1 5 2\ntriangle 2 6 7\n"
)
# the punctured square after flips 1, 3, 2: folded side 4 inside loop 2,
# whose end 1 is the puncture
SELF_FOLDED_TEXT = (
    "surface g=0 b=1 m=4 p=1\narcs 4\nboundary 4\n"
    "triangle 1 3 2\ntriangle 6 7 3\ntriangle 4 4 2 selffolded=4\ntriangle 8 5 1\n"
)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("surface g=0 b=3 m=1,1 p=0\n" + ANNULUS_BODY, "b does not match the m list"),
        (ANNULUS_TEXT + "triangle 1 2\n", "triangle needs three sides"),
        (ANNULUS_TEXT.replace("2 1 3", "2 1 3 flat=1"), "line 4: unknown option 'flat'"),
        (SELF_FOLDED_TEXT.replace("selffolded=4", "selffolded=4 selffolded=4"), "line 6: an option given twice"),
        (ANNULUS_TEXT.replace("2 1 3", "2 1 3 selffolded=2"), "selffolded=2 does not match repeated side"),
        (ANNULUS_TEXT + "tag 1 0 bent\n", "bad tag line"),
        (ANNULUS_TEXT + "tag 1 2 plain\n", "bad tag line"),
        (ANNULUS_TEXT + "polygon 5\n", "unknown directive 'polygon'"),
        (ANNULUS_TEXT.replace("arcs 2", "arcs two"), "line 2: cannot parse"),
        (ANNULUS_TEXT.replace(" p=0", ""), "line 1: cannot parse"),
        (ANNULUS_TEXT + "tag 1\n", "line 6: cannot parse"),
        (ANNULUS_TEXT.replace(" p=0", " p=0 colour=red"), "line 1: unknown option 'colour'"),
        (ANNULUS_TEXT.replace(" p=0", " p=0 p=0"), "line 1: an option given twice"),
        (ANNULUS_TEXT.replace("arcs 2", "arcs 2 7"), "line 2: cannot parse"),
        (ANNULUS_TEXT.replace("boundary 2", "boundary 5 9"), "line 3: cannot parse"),
        (ANNULUS_TEXT + "tag 1 0 notched x\n", "line 6: cannot parse"),
        (ANNULUS_TEXT + "surface g=0 b=2 m=1,1 p=0\n", "line 6: a second surface line"),
        (ANNULUS_TEXT + "arcs 2\n", "line 6: a second arcs line"),
        (ANNULUS_TEXT + "boundary 2\n", "line 6: a second boundary line"),
        (ANNULUS_BODY, "missing surface/arcs/boundary header"),
        (ANNULUS_TEXT.replace("boundary 2", "boundary 3"), "boundary segment count must equal"),
        ("surface g=1 b=0 m= p=1\narcs 3\nboundary 0\n", "closed surfaces are unsupported"),
        ("surface g=0 b=1 m=0 p=2\narcs 3\nboundary 0\n", "each boundary component needs a marked point"),
        ("surface g=0 b=1 m=3 p=0\narcs 0\nboundary 3\ntriangle 1 2 3\n", "degenerate disk"),
        (ANNULUS_TEXT.replace("arcs 2", "arcs 3"), "arc count 3 does not match surface data (expected 2)"),
        (ANNULUS_TEXT.replace("2 1 4", "2 2 4"), "arc 1 must occur exactly twice"),
        (ANNULUS_TEXT.replace("2 1 4", "2 1 3"), "boundary segment 3 must occur exactly once"),
        (ANNULUS_TEXT.replace("2 1 4", "1 1 1"), "arc 1 must occur exactly twice"),
        (PENTAGON_TEXT.replace("3 4 1", "3 3 1"), "boundary segment 3 must occur exactly once"),
        (ANNULUS_TEXT + "triangle 5 6 7\n", "unknown side label 5"),
        ("surface g=0 b=2 m=2,2 p=0\n" + SQUARE_BODY, "found 1 punctures, header says 0"),
        (
            "surface g=0 b=1 m=5 p=0\narcs 2\nboundary 5\n"
            "triangle 1 2 7\ntriangle 3 5 4\ntriangle 1 2 6\n",
            "boundary cycle sizes do not match",
        ),
        ("surface g=0 b=1 m=4 p=1\n" + SQUARE_BODY + "tag 1 0 notched\n", "partial notching"),
        (ANNULUS_TEXT + "tag 1 0 notched\n", "notched tag on a non-puncture end"),
        (NOTCHED_SQUARE_TEXT + "tag 1 0 plain\n", "line 12: a second tag for end 0 of arc 1"),
        (NOTCHED_SQUARE_TEXT + "tag 1 0 notched\n", "line 12: a second tag for end 0 of arc 1"),
        (SELF_FOLDED_TEXT + "tag 4 1 notched\n", "cannot be both notched and carry a self-folded triangle"),
    ],
)
def test_parse_triangulation_rejects_malformed_text(text, fragment):
    # every raise that triangulation text can reach; validate's other
    # checks (the marked point count, the Euler characteristic, an unknown
    # notched puncture) follow from the ones before them for any triangle
    # list, and a label repeated in one triangle breaks the occurrence
    # counts (the "1 1 1" and "3 3 1" rows)
    with pytest.raises(TriangulationError, match=re.escape(fragment)):
        parse_triangulation(text)


# ---------------------------------------------------------------------------
# endpoints and vertex references


def test_annulus_endpoints():
    e0, e1 = arc_endpoints(ANNULUS, 1)
    assert e0 != e1  # the two boundary marked points
    marked = {resolve_vertex_ref(ANNULUS, ref) for ref in ("marked:1", "marked:2")}
    assert set(ANNULUS.corner_orbits.values()) == marked == {e0, e1}


def test_square_radius_endpoints():
    for arc in range(1, 5):
        ends = set(arc_endpoints(SQUARE, arc))
        assert len(ends & set(marked_points(SQUARE))) == len(ends & set(punctures(SQUARE))) == 1


def test_quad_record_slots_consistent():
    for name in SURFACES:
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            q = res.quad
            if q is None:
                continue
            # the storage rule: e1..e4 lie in old triangles (a, a, b, b)
            # and new ones (b, a, a, b)
            a, b = q.tri_a, q.tri_b
            for i, (old, new) in enumerate(zip((a, a, b, b), (b, a, a, b))):
                assert q.sides[i] in t.triangles[old]
                assert q.sides[i] in res.triangulation.triangles[new]
            for ti, pos in q.old_k_slots:
                assert t.triangles[ti][pos] == k
