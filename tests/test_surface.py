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
    _rotated,
    adjacency_matrix,
    arc_endpoints,
    canonical_form,
    corner_sides,
    flip,
    folded_sides,
    format_triangulation,
    marked_points,
    parse_triangulation,
    punctures,
    resolve_vertex_ref,
    tag_switch,
    validate,
)

from flipwords import flip_word
from oracles import adjacency_by_pi

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
    # the second part of canonical_form names each stored triangle by its
    # least rotation, and the form's triangle part is those names sorted
    for name in SURFACES:
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            t2 = flip(t, k).triangulation
            (tris, _), names = canonical_form(t2)
            assert names == [min(tri[j:] + tri[:j] for j in range(3)) for tri in t2.triangles], (name, k)
            assert tris == tuple(sorted(names)), (name, k)


def test_rotated_is_the_least_rotation_repeated_labels_included():
    for tri in itertools.product((1, 2, 3), repeat=3):
        assert _rotated(tri) == min(tri[j:] + tri[:j] for j in range(3)), tri


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
    # the loop and its folded side share rows up to sign structure
    b = adjacency_matrix(t4)
    assert b[1] == b[3]  # arcs 2 and 4 (0-based rows 1 and 3)


def test_flip_of_loop_returns():
    t4, _ = flip_word(SQUARE, [1, 3, 2])
    t3 = flip_word(SQUARE, [1, 3])[0]
    assert canonical_form(flip(t4, 2).triangulation)[0] == canonical_form(t3)[0]


def test_flip_of_folded_side_gives_all_notched():
    t5, steps = flip_word(SQUARE, [1, 3, 2, 4])
    assert t5.notched == frozenset(punctures(t5))
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


def _reached(starts, depth=None, key=lambda t: t):
    """Breadth first over tagged flips from starts, to words of length
    <= depth (None: until nothing new): {key: the first triangulation met
    under that key}, and every flip taken on the way as (t, k, the result's
    triangulation)."""
    seen = {key(t): t for t in starts}
    frontier, edges = list(seen.values()), []
    for _ in range(depth) if depth is not None else itertools.count():
        children = [(t, k, flip(t, k).triangulation) for t in frontier for k in range(1, t.n_arcs + 1)]
        edges += children
        frontier = []
        for _, _, t2 in children:
            if key(t2) not in seen:
                seen[key(t2)] = t2
                frontier.append(t2)
        if not frontier:
            break
    return seen, edges


def _digon_tag_states():
    """The twice-punctured digon with no puncture notched, the one where
    arcs 1 and 2 meet (its least corner name comes first), the one where
    arcs 3 and 4 meet, and both."""
    digon = parse_triangulation(TWICE_PUNCTURED_DIGON)
    p1, p2 = punctures(digon)
    return [digon, tag_switch(digon, p1), tag_switch(digon, p2), tag_switch(tag_switch(digon, p1), p2)]


def _form(t):
    return canonical_form(t)[0]


def test_adjacency_matrix_matches_its_definition_through_pi():
    reached, _ = _reached([load_surface(name) for name in SURFACES] + _digon_tag_states(), 4)
    assert len(reached) == 1610 + 1508
    # the square's chain to a self-folded triangle, and two at once (the
    # digon with both punctures enclosed) are among them
    assert flip_word(SQUARE, [1, 3, 2])[0] in reached
    assert any(len(folded_sides(t)) == 2 for t in reached)
    for t in reached:
        assert adjacency_matrix(t) == adjacency_by_pi(t), format_triangulation(t)


def test_tag_switch_is_involutive():
    t4, _ = flip_word(SQUARE, [1, 3, 2])
    (p4,) = punctures(t4)
    assert tag_switch(tag_switch(t4, p4), p4) == t4
    t5, _ = flip_word(SQUARE, [1, 3, 2, 4])
    (p5,) = punctures(t5)
    assert tag_switch(tag_switch(t5, p5), p5) == t5


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
    orbits = frozenset(punctures(t)[pid - 1] for pid in notched)
    for p in orbits:
        t = tag_switch(t, p)
    assert t.notched == orbits
    for k in range(1, 6):
        t2 = flip(t, k).triangulation
        validate(t2)
        assert adjacency_matrix(t2) == matrix_mutate(adjacency_matrix(t), k - 1), k
        assert canonical_form(flip(t2, k).triangulation)[0] == canonical_form(t)[0], k


@pytest.mark.parametrize(
    "start, depth, count",
    [
        # to exhaustion: D4's 50 clusters, each under the 4! labellings of
        # its arcs, and the polygons' Catalan(m - 2) * (m - 3)!
        ("punctured-square", None, 50 * 24),
        ("pentagon", None, 5 * 2),
        ("hexagon", None, 14 * 6),
        # the twice-punctured digon with no, one and both punctures notched
        *((state, 4, 183) for state in range(4)),
    ],
)
def test_tagged_flip_census(start, depth, count):
    # every flip validates, mutates B(T), and flipping k again comes back
    t0 = _digon_tag_states()[start] if isinstance(start, int) else load_surface(start)
    reached, edges = _reached([t0], depth, key=_form)
    assert len(reached) == count
    # the walker keys curve steps by these names, so they must be unique
    for t in reached.values():
        names = canonical_form(t)[1]
        assert len(set(names)) == len(names), format_triangulation(t)
    for t, k, t2 in edges:
        validate(t2)
        assert t2.adjacency == matrix_mutate(t.adjacency, k - 1), (format_triangulation(t), k)
        assert _form(flip(t2, k).triangulation) == _form(t), (format_triangulation(t), k)


def test_the_digon_notched_at_arcs_3_4_flips_through_5_5_2_and_back():
    # with positional puncture ids the word 5 5 2 moved the notched tag to
    # the puncture the last flip enclosed, and flipping 1 there never ended
    t, _ = flip_word(_digon_tag_states()[2], [5, 5, 2])
    validate(t)
    assert _form(flip_word(t, [1, 1])[0]) == _form(t)


def test_canonical_form_names_a_notched_puncture_whatever_the_storage_order():
    # the digon stored as triangles 1 2 3 4 and as 3 4 1 2; puncture 1 is
    # where arcs 1 and 2 meet, puncture 2 where arcs 3 and 4 do
    lines = TWICE_PUNCTURED_DIGON.splitlines(keepends=True)
    stored = [parse_triangulation("".join(lines[:3] + tris)) for tris in (lines[3:], lines[5:] + lines[3:5])]
    assert stored[0].triangles == stored[1].triangles[2:] + stored[1].triangles[:2]

    def notched_at(t, a, b):
        (p,) = set(arc_endpoints(t, a)) & set(arc_endpoints(t, b))
        return _form(tag_switch(t, p))

    for a, b in ((1, 2), (3, 4)):
        assert notched_at(stored[0], a, b) == notched_at(stored[1], a, b)
    assert notched_at(stored[0], 1, 2) != notched_at(stored[1], 3, 4)


def test_puncture_refs_name_a_puncture_whatever_the_storage_order():
    # `puncture:N` counts punctures by least corner name, so on the digon
    # stored as triangles 1 2 3 4 and as 3 4 1 2, puncture:1 is where arcs
    # 1 and 2 meet, and so is the puncture 1 of a partial-notching error
    lines = TWICE_PUNCTURED_DIGON.splitlines(keepends=True)
    for tris in (lines[3:], lines[5:] + lines[3:5]):
        text = "".join(lines[:3] + tris)
        t = parse_triangulation(text)
        (p,) = set(arc_endpoints(t, 1)) & set(arc_endpoints(t, 2))
        assert resolve_vertex_ref(t, "puncture:1") == p
        assert resolve_vertex_ref(t, "puncture:2") != p
        end = arc_endpoints(t, 1).index(p)
        with pytest.raises(TriangulationError, match="puncture 1: partial notching"):
            parse_triangulation(text + f"tag 1 {end} notched\n")


PENTAGON_HEAD = "surface g=0 b=1 m=5 p=0\narcs 2\nboundary 5\n"


@pytest.mark.parametrize("ref", [f"marked:{i}" for i in range(1, 6)])
def test_marked_refs_name_a_marked_point_whatever_the_storage_order(ref):
    # `marked:N` counts marked points by least corner name too: the
    # pentagon stored as 3 4 1 / 1 5 2 / 2 6 7 and as 1 5 2 / 2 6 7 / 3 4 1
    # resolves each ref to the corners between the same sides; marked:1 is
    # the fan's centre, where arcs 1 and 2 meet
    def sides(text):
        t = parse_triangulation(PENTAGON_HEAD + text)
        return sorted(corner_sides(t, c) for c in resolve_vertex_ref(t, ref))

    one = "triangle 3 4 1\ntriangle 1 5 2\ntriangle 2 6 7\n"
    other = "triangle 1 5 2\ntriangle 2 6 7\ntriangle 3 4 1\n"
    assert sides(one) == sides(other)
    if ref == "marked:1":
        assert sides(one) == [(1, 3), (2, 1), (7, 2)]


def test_tag_switches_commute_with_flips():
    # Fomin-Shapiro-Thurston: switching the tags at a puncture and then
    # flipping k gives what flipping k and then switching at that puncture
    # does, so over all punctures the two sets of results agree
    _, edges = _reached(_digon_tag_states()[:1], 4, key=_form)
    assert len(edges) == 300
    for t, k, t2 in edges:
        switch_first = {_form(flip(tag_switch(t, p), k).triangulation) for p in punctures(t)}
        flip_first = {_form(tag_switch(t2, q)) for q in punctures(t2)}
        assert switch_first == flip_first, (format_triangulation(t), k)


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
    assert again.notched == frozenset(punctures(again))
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
