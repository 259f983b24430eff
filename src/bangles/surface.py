"""Marked surfaces, ideal/tagged triangulations, adjacency matrices, flips.

A triangulation is stored purely combinatorially: a list of side triples in
clockwise order (surface orientation), arc labels 1..n, boundary labels
n+1..n+b.  Vertices are never stored; they are recovered as orbits of
triangle corners glued across arc occurrences, which is enough to find
punctures, boundary cycles, and endpoint data for curves.

Tagged triangulations use a normal form on top of the ideal data:

* a puncture whose two tagged arcs differ only in the tag (one plain, one
  notched) is stored as the usual self-folded triangle, the notched arc
  carrying the enclosing loop's label;
* a puncture with every incident end notched is stored as the tag-switched
  ideal picture plus the puncture's corner orbit in `notched`;
* everything else at a puncture means all ends plain.

A notched puncture is named by its corners, not by a position among the
punctures: its corners sit in triangles that a flip outside it never
rewrites, so the name stays valid across such flips and storage order does
not set it.  Flips dispatch through tag switches so that the actual surgery
is always the ideal quadrilateral re-diagonalization, which also creates and
absorbs self-folded triangles on its own.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, NamedTuple, Optional, Tuple

from .mutation import Matrix

Corner = Tuple[int, int]  # (triangle index, corner position); corner i sits
# between side i and side i+1 (mod 3) of the clockwise triple


class TriangulationError(ValueError):
    pass


class UnsupportedFlipError(ValueError):
    def __init__(self, arc: int, reason: str):
        super().__init__(f"cannot flip arc {arc}: {reason}")


class Triangulation:
    """A triangulation as a value: equal, and hashed alike, exactly when its
    seven fields are, so it keys caches and dedup sets; nothing may change
    it once built.  It is a class and not a tuple because its cached reads
    live in its `__dict__` and callers hold it by weak reference."""

    def __init__(
        self,
        genus: int,
        boundary_marks: Tuple[int, ...],  # marked points per boundary component
        n_punctures: int,
        n_arcs: int,
        n_boundary: int,  # number of boundary segment labels
        triangles: Tuple[Tuple[int, int, int], ...],
        notched: FrozenSet[Tuple[Corner, ...]] = frozenset(),  # orbits of punctures with all ends notched
    ):
        self.genus = genus
        self.boundary_marks = boundary_marks
        self.n_punctures = n_punctures
        self.n_arcs = n_arcs
        self.n_boundary = n_boundary
        self.triangles = triangles
        self.notched = notched

    def _key(self) -> tuple:
        return (
            self.genus, self.boundary_marks, self.n_punctures, self.n_arcs,
            self.n_boundary, self.triangles, self.notched,
        )

    def __eq__(self, other) -> bool:
        if other.__class__ is not Triangulation:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _with(self, triangles=None, notched=None) -> "Triangulation":
        """A copy with new triangles or tags; its cached reads start empty."""
        return Triangulation(
            self.genus, self.boundary_marks, self.n_punctures, self.n_arcs, self.n_boundary,
            self.triangles if triangles is None else triangles,
            self.notched if notched is None else notched,
        )

    def is_arc(self, label: int) -> bool:
        return 1 <= label <= self.n_arcs

    def is_boundary(self, label: int) -> bool:
        return self.n_arcs < label <= self.n_arcs + self.n_boundary

    @cached_property
    def occurrences(self) -> Dict[int, Tuple[Tuple[int, int], ...]]:
        """label -> tuple of (triangle index, side position), in storage order."""
        occ: Dict[int, List[Tuple[int, int]]] = {}
        for ti, tri in enumerate(self.triangles):
            for pos, s in enumerate(tri):
                occ.setdefault(s, []).append((ti, pos))
        return {k: tuple(v) for k, v in occ.items()}

    @cached_property
    def corner_orbits(self) -> Dict[Corner, Tuple[Corner, ...]]:
        """Map each corner to its vertex orbit (sorted tuple of corners).

        Crossing an arc from one of its flanking corners lands on the
        matching flanking corner of the other occurrence; orbits of that
        relation are the marked points and punctures.
        """
        uf = _UnionFind()
        for ti in range(len(self.triangles)):
            for pos in range(3):
                uf.find((ti, pos))
        for label, occ in self.occurrences.items():
            if not self.is_arc(label) or len(occ) != 2:
                continue
            (ta, ia), (tb, ib) = occ
            uf.union((ta, (ia - 1) % 3), (tb, ib))
            uf.union((ta, ia), (tb, (ib - 1) % 3))
        groups: Dict[Corner, List[Corner]] = {}
        for ti in range(len(self.triangles)):
            for pos in range(3):
                groups.setdefault(uf.find((ti, pos)), []).append((ti, pos))
        orbit_of: Dict[Corner, Tuple[Corner, ...]] = {}
        for members in groups.values():
            tup = tuple(sorted(members))
            for c in members:
                orbit_of[c] = tup
        return orbit_of

    @cached_property
    def vertices(self) -> Tuple[Tuple[Tuple[Corner, ...], str], ...]:
        """All vertex orbits with kind 'marked' (on boundary) or 'puncture'."""
        seen: Dict[Tuple[Corner, ...], str] = {}
        for orbit in self.corner_orbits.values():
            if orbit in seen:
                continue
            on_boundary = any(
                self.is_boundary(s) for c in orbit for s in corner_sides(self, c)
            )
            seen[orbit] = "marked" if on_boundary else "puncture"
        return tuple(sorted(seen.items()))

    @cached_property
    def adjacency(self) -> Matrix:
        """B(T), computed once per triangulation by `adjacency_matrix`."""
        return adjacency_matrix(self)


# ---------------------------------------------------------------------------
# derived combinatorics


def folded_sides(t: Triangulation) -> Dict[int, int]:
    """folded side label -> loop label, one entry per self-folded triangle."""
    out: Dict[int, int] = {}
    for tri in t.triangles:
        for pos in range(3):
            if tri[pos] == tri[(pos + 1) % 3]:
                r = tri[pos]
                loop = tri[(pos + 2) % 3]
                out[r] = loop
    return out


class _UnionFind:
    def __init__(self):
        self.parent: Dict[Hashable, Hashable] = {}

    def find(self, x: Hashable) -> Hashable:
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def corner_sides(t: Triangulation, c: Corner) -> Tuple[int, int]:
    ti, pos = c
    tri = t.triangles[ti]
    return tri[pos], tri[(pos + 1) % 3]


def _vertices_by_name(t: Triangulation, kind: str) -> Tuple[Tuple[Corner, ...], ...]:
    """The vertex orbits of one kind by least corner name, as
    `canonical_form` names a notched puncture, so `puncture:N` and
    `marked:N` do not follow storage order."""
    return tuple(sorted((o for o, k in t.vertices if k == kind), key=lambda o: _vertex_name(t, o)))


def punctures(t: Triangulation) -> Tuple[Tuple[Corner, ...], ...]:
    return _vertices_by_name(t, "puncture")


def marked_points(t: Triangulation) -> Tuple[Tuple[Corner, ...], ...]:
    return _vertices_by_name(t, "marked")


def resolve_vertex_ref(t: Triangulation, ref: str) -> Tuple[Corner, ...]:
    """The orbit `marked:N` or `puncture:N` names, 1-based, in the order of
    `marked_points` or `punctures`."""
    kind, _, num = ref.partition(":")
    try:
        idx = int(num) - 1
        pool = punctures(t) if kind == "puncture" else marked_points(t)
        if kind not in ("marked", "puncture") or not 0 <= idx < len(pool):
            raise ValueError
    except ValueError:
        raise TriangulationError(f"unknown vertex reference {ref!r}") from None
    return pool[idx]


def arc_endpoints(t: Triangulation, arc: int) -> Tuple[Tuple[Corner, ...], Tuple[Corner, ...]]:
    """(end 0, end 1) vertex orbits; ends are numbered from the first
    occurrence of the arc in storage order (its before- and after-corner)."""
    occ = t.occurrences[arc]
    ti, pos = occ[0]
    orbit_of = t.corner_orbits
    return orbit_of[(ti, (pos - 1) % 3)], orbit_of[(ti, pos)]


def enclosed_puncture(t: Triangulation, folded: int) -> Tuple[Corner, ...]:
    """The puncture inside the self-folded triangle with this folded side."""
    (ta, ia), (tb, ib) = t.occurrences[folded]
    if ta != tb:
        raise TriangulationError(f"arc {folded} is not a folded side")
    # inner corner flanked by the two folded-side slots
    pos = ia if (ia + 1) % 3 == ib else ib
    return t.corner_orbits[(ta, pos)]


# ---------------------------------------------------------------------------
# validation


def validate(t: Triangulation) -> None:
    n, nb = t.n_arcs, t.n_boundary
    if nb != sum(t.boundary_marks):
        raise TriangulationError("boundary segment count must equal total boundary marked points")
    if len(t.boundary_marks) == 0:
        raise TriangulationError("closed surfaces are unsupported (no boundary)")
    if any(m < 1 for m in t.boundary_marks):
        raise TriangulationError("each boundary component needs a marked point")
    if t.genus == 0 and len(t.boundary_marks) == 1:
        m = t.boundary_marks[0]
        if (m == 1 and t.n_punctures <= 1) or (m in (2, 3) and t.n_punctures == 0):
            raise TriangulationError("degenerate disk (monogon/digon/triangle) excluded")
    expect_n = 6 * t.genus + 3 * len(t.boundary_marks) + 3 * t.n_punctures + sum(t.boundary_marks) - 6
    if n != expect_n:
        raise TriangulationError(f"arc count {n} does not match surface data (expected {expect_n})")

    occ = t.occurrences
    for label in range(1, n + 1):
        if len(occ.get(label, ())) != 2:
            raise TriangulationError(f"arc {label} must occur exactly twice")
    for label in range(n + 1, n + nb + 1):
        if len(occ.get(label, ())) != 1:
            raise TriangulationError(f"boundary segment {label} must occur exactly once")
    for key in occ:
        if not 1 <= key <= n + nb:
            raise TriangulationError(f"unknown side label {key}")

    orbit_of = t.corner_orbits
    n_marked = len(marked_points(t))
    n_punct = len(punctures(t))
    if n_punct != t.n_punctures:
        raise TriangulationError(f"found {n_punct} punctures, header says {t.n_punctures}")
    if n_marked != sum(t.boundary_marks):
        raise TriangulationError("boundary marked point count mismatch")
    euler = n_marked + n_punct - (n + nb) + len(t.triangles)
    if euler != 2 - 2 * t.genus - len(t.boundary_marks):
        raise TriangulationError("Euler characteristic mismatch")

    # boundary segments chain into one cycle per component, of the right sizes
    uf = _UnionFind()
    starts = []
    for label in range(n + 1, n + nb + 1):
        ti, pos = occ[label][0]
        a, b = orbit_of[(ti, (pos - 1) % 3)], orbit_of[(ti, pos)]
        uf.union(a, b)
        starts.append(a)
    sizes = Counter(uf.find(a) for a in starts)
    if sorted(sizes.values()) != sorted(t.boundary_marks):
        raise TriangulationError("boundary cycle sizes do not match the component data")

    if not t.notched <= set(punctures(t)):
        raise TriangulationError("notched tag refers to an unknown puncture")
    for r in folded_sides(t):
        if enclosed_puncture(t, r) in t.notched:
            raise TriangulationError(
                f"the puncture inside folded side {r} cannot be both notched and carry a self-folded triangle"
            )


# ---------------------------------------------------------------------------
# adjacency matrix


def adjacency_matrix(t: Triangulation) -> Matrix:
    """Skew-symmetric B(T): +1 at (a, c) and -1 at (c, a) for each
    clockwise-consecutive arc pair (a, c) of a triangle with three distinct
    sides.  A self-folded triangle adds nothing, and its folded side, which
    no other triangle has, takes its loop's row and column (pi routes a
    folded side to its loop)."""
    n = t.n_arcs
    b = [[0] * n for _ in range(n)]
    routes = []  # (folded side, loop) of each self-folded triangle
    for x, y, z in t.triangles:
        if x == y or y == z or z == x:
            routes.append((x, z) if x == y else (y, x) if y == z else (z, y))
            continue
        for a, c in ((x, y), (y, z), (z, x)):
            if a <= n and c <= n:  # labels above n are boundary segments
                b[a - 1][c - 1] += 1
                b[c - 1][a - 1] -= 1
    for r, loop in routes:
        b[r - 1] = b[loop - 1][:]
        for row in b:
            row[r - 1] = row[loop - 1]
    return tuple(map(tuple, b))


# ---------------------------------------------------------------------------
# tag switch and flips


def tag_switch(t: Triangulation, orbit: Tuple[Corner, ...]) -> Triangulation:
    """Switch all tags at the puncture with this corner orbit.

    With a self-folded triangle at the puncture this exchanges the radius
    and loop labels (the plain/notched pair trades places); otherwise it
    toggles the all-notched flag.  Neither moves a corner, so every corner
    orbit stays as it was.
    """
    for r, loop in folded_sides(t).items():
        if enclosed_puncture(t, r) == orbit:
            swap = {r: loop, loop: r}
            tris = tuple(
                tuple(swap.get(s, s) for s in tri) for tri in t.triangles
            )
            return t._with(triangles=tris)
    return t._with(notched=t.notched ^ {orbit})


class _QuadView:
    """Side and corner tables of one quad for one transport direction.

    src side: where the curve currently lives; dst: after the rewrite.
    The quad sides e1..e4 lie in old triangles (ta, ta, tb, tb) and new
    ones (tb, ta, ta, tb) by QuadRecord's storage rule; `dst_of` maps each
    side's (src triangle, label) to its dst triangle.  The shared corners
    (the new diagonal's endpoints on the dst side) admit a corner in both
    dst triangles, the other two corners pin a unique dst triangle.  Every
    quad it sees is clean by construction (`flip` hands out no other): its
    four triangles each have three distinct sides, so (triangle, label)
    names each side once.  The corner tables are built together on first
    read, which a closed curve never makes: it reads only `dst_of`.
    """

    def __init__(self, q: QuadRecord, forward: bool):
        self.k = q.arc
        ta, tb = self.tris = (q.tri_a, q.tri_b)
        self._old_k_slots = q.old_k_slots
        self._forward = forward
        old, new = (ta, ta, tb, tb), (tb, ta, ta, tb)
        src, dst = (old, new) if forward else (new, old)
        self.dst_of = dict(zip(zip(src, q.sides), dst))

    @cached_property
    def _corner_tables(self) -> Tuple[Dict[Corner, str], Dict[str, Tuple[Corner, ...]]]:
        ta, tb = self.tris
        (_, ka), (_, kb) = self._old_k_slots
        old_corner = {
            "P": ((ta, (ka + 1) % 3),),
            "Q": ((ta, (ka + 2) % 3), (tb, kb)),
            "R": ((tb, (kb + 1) % 3),),
            "S": ((ta, ka), (tb, (kb + 2) % 3)),
        }
        new_corner = {
            "P": ((ta, 2), (tb, 1)),
            "Q": ((ta, 0),),
            "R": ((ta, 1), (tb, 2)),
            "S": ((tb, 0),),
        }
        src_c, dst_c = (old_corner, new_corner) if self._forward else (new_corner, old_corner)
        return {c: n for n, cs in src_c.items() for c in cs}, dst_c

    @property
    def corner_name(self) -> Dict[Corner, str]:
        return self._corner_tables[0]

    @property
    def dst_corners(self) -> Dict[str, Tuple[Corner, ...]]:
        return self._corner_tables[1]

    def dst_corner(self, name: str, near_tri: int) -> Tuple[Corner, bool]:
        """Corner for this vertex on the dst side, preferring the triangle the
        adjacent curve piece lives in; True when an extra diagonal crossing is
        needed to reach it."""
        options = self.dst_corners[name]
        for c in options:
            if c[0] == near_tri:
                return c, False
        return options[0], True


class QuadRecord:
    """Geometry of one ideal flip, enough to rewrite curves.

    The two old triangles, rotated so the flipped arc comes last, read
    (e1,e2,k) and (e3,e4,k); walking around the quadrilateral gives sides
    e1,e2,e3,e4 and corners P=e1^e2, Q=e2^k(^e3), R=e3^e4, S=e4^k(^e1).
    The new triangles are stored exactly as (e2,e3,k) at tri_a and
    (e4,e1,k) at tri_b, so k joins P to R afterwards.  Quads compare by
    identity.  `flip` hands out a quad only for a flip curves can follow:
    one that switches no tags and whose four triangles are clean.
    """

    # Always True, as every quad handed out is transportable; kept only
    # because perfbench/workloads.py `_move` reads it on each quad it gets.
    transportable = True

    def __init__(
        self,
        arc: int,
        tri_a: int,
        tri_b: int,
        sides: Tuple[int, int, int, int],  # labels of e1..e4
        old_k_slots: Tuple[Corner, Corner],  # k in old tri_a, tri_b
    ):
        self.arc = arc
        self.tri_a = tri_a
        self.tri_b = tri_b
        self.sides = sides
        self.old_k_slots = old_k_slots

    # Each direction's tables are built on first use and kept on the quad,
    # so every state whose flip word runs through this quad shares them and
    # they are freed with it.

    @cached_property
    def forward_view(self) -> _QuadView:
        return _QuadView(self, True)

    @cached_property
    def backward_view(self) -> _QuadView:
        return _QuadView(self, False)


class FlipResult(NamedTuple):
    triangulation: Triangulation
    quad: Optional[QuadRecord]  # None when curves cannot follow the flip


def _ideal_flip(t: Triangulation, k: int) -> Tuple[Triangulation, QuadRecord, bool]:
    """The re-diagonalized triangulation, its quad, and whether the quad is
    clean: no triangle before or after has a repeated side."""
    occ = t.occurrences[k]
    (ta, ia), (tb, ib) = occ
    if ta == tb:
        raise UnsupportedFlipError(k, "folded side reached the ideal flip")
    tri_a, tri_b = t.triangles[ta], t.triangles[tb]
    e1, e2 = tri_a[(ia + 1) % 3], tri_a[(ia + 2) % 3]
    e3, e4 = tri_b[(ib + 1) % 3], tri_b[(ib + 2) % 3]
    new_tris = list(t.triangles)
    new_tris[ta] = (e2, e3, k)
    new_tris[tb] = (e4, e1, k)
    quad = QuadRecord(k, ta, tb, (e1, e2, e3, e4), ((ta, ia), (tb, ib)))
    # k is no e_i, so the four triangles (e1,e2,k), (e3,e4,k), (e2,e3,k)
    # and (e4,e1,k) are clean exactly when neighbouring sides differ
    return t._with(triangles=tuple(new_tris)), quad, e1 != e2 != e3 != e4 != e1


def _match_puncture(
    old: Triangulation, new: Triangulation, orbit: Tuple[Corner, ...], q: QuadRecord
) -> Tuple[Corner, ...]:
    """Follow one puncture through the ideal flip q.  Triangle indices stay
    put, so a corner outside the two rewritten triangles anchors its vertex.
    A puncture with no such corner (one the flip encloses in a self-folded
    triangle) is the one new puncture that no other puncture's anchor
    reaches."""

    def reached(p: Tuple[Corner, ...]) -> set:
        return {new.corner_orbits[c] for c in p if c[0] not in (q.tri_a, q.tri_b)}

    hits = reached(orbit) or set(punctures(new)).difference(*map(reached, punctures(old)))
    if len(hits) != 1:
        raise UnsupportedFlipError(q.arc, "cannot follow a puncture through the flip")
    return hits.pop()


def flip(t: Triangulation, k: int) -> FlipResult:
    """Flip tagged arc k (1-based label); the replacement keeps the label.

    This is the one place that decides whether curves can follow a flip:
    the result's quad is None for a flip that switches tags and for one
    whose quadrilateral has a triangle with a repeated side.
    """
    if t.is_boundary(k):
        raise UnsupportedFlipError(k, "boundary segments cannot be flipped")
    if not t.is_arc(k):
        raise UnsupportedFlipError(k, "no such arc")

    region = {ti for ti, _ in t.occurrences[k]}
    folded = len(region) == 1
    if folded:
        # the flip region also spans the triangle outside the loop
        region |= {ti for ti, _ in t.occurrences[folded_sides(t)[k]]}
    # Switch off every notched puncture with a corner in the region (its
    # flag drops: a notched puncture carries no self-folded triangle) and
    # the puncture a folded k encloses (k becomes its loop), flip, then
    # switch each back.  Switches at distinct punctures commute, and none
    # moves a corner, so each is followed from cur to out.
    switched = [p for p in t.notched if any(ti in region for ti, _ in p)]
    if folded:
        switched.append(enclosed_puncture(t, k))
    cur = t
    for p in switched:
        cur = tag_switch(cur, p)
    out, quad, clean = _ideal_flip(cur, k)
    for p in switched:
        out = tag_switch(out, _match_puncture(cur, out, p, quad))
    return FlipResult(out, quad if clean and not switched else None)


def _corner_name(tri: Tuple[int, int, int], pos: int) -> Tuple[int, int, int]:
    """A corner's name: its triangle read clockwise from the side that ends
    at the corner.  Neither the triangle's storage index nor its stored
    rotation sets it, and no two corners of a triangulation share it: a
    triangle that is its own rotation repeats a label three times, and two
    triangles with the same sides in the same cyclic order would hold every
    occurrence of those labels between them, closing up a surface with no
    boundary."""
    return tri[pos:] + tri[:pos]


def _vertex_name(t: Triangulation, orbit: Tuple[Corner, ...]) -> Tuple[int, int, int]:
    return min(_corner_name(t.triangles[ti], pos) for ti, pos in orbit)


def _rotated(tri: Tuple[int, int, int]) -> Tuple[int, int, int]:
    """The triangle's least corner name.  A strictly least label fixes it;
    only a triangle that repeats its least label compares whole names."""
    a, b, c = tri
    if a < b and a < c:
        return tri
    if b < a and b < c:
        return (b, c, a)
    if c < a and c < b:
        return (c, a, b)
    return min(_corner_name(tri, pos) for pos in range(3))


def canonical_form(t: Triangulation) -> Tuple[tuple, List[Tuple[int, int, int]]]:
    """Flip-path-independent fingerprint (the sorted triangle names, and
    each notched puncture named by its least corner name), and each stored
    triangle's name: names[i] is triangle i's least rotation.  Names are
    unique (see `_corner_name`), so they can stand in for storage indices
    wherever the storage order must not show."""
    names = [_rotated(tri) for tri in t.triangles]
    tags = sorted(_vertex_name(t, p) for p in t.notched)
    return (tuple(sorted(names)), tuple(tags)), names


# ---------------------------------------------------------------------------
# text format


def _options(tokens: List[str], known: Tuple[str, ...], lineno: int, error: type) -> dict:
    """{key: value} of key=value tokens, each key one of `known`, once;
    `error` is raised for any other key and for a key given twice."""
    kv = dict(p.split("=", 1) for p in tokens)
    if len(kv) < len(tokens):
        raise error(f"line {lineno}: an option given twice")
    for key in kv:
        if key not in known:
            raise error(f"line {lineno}: unknown option {key!r}")
    return kv


def parse_triangulation(text: str) -> Triangulation:
    genus = boundary_marks = n_punct = None
    n_arcs = n_boundary = None
    triangles: List[Tuple[int, int, int]] = []
    tags: Dict[Tuple[int, int], str] = {}  # (arc, end) -> tag
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] in ("surface", "arcs", "boundary"):
                if parts[0] in headers:
                    raise TriangulationError(f"line {lineno}: a second {parts[0]} line")
                headers.add(parts[0])
            if parts[0] == "surface":
                kv = _options(parts[1:], ("g", "b", "m", "p"), lineno, TriangulationError)
                genus = int(kv["g"])
                boundary_marks = tuple(int(v) for v in kv["m"].split(",") if v)
                n_punct = int(kv["p"])
                if int(kv["b"]) != len(boundary_marks):
                    raise TriangulationError("b does not match the m list")
            elif parts[0] == "arcs":
                _, count = parts
                n_arcs = int(count)
            elif parts[0] == "boundary":
                _, count = parts
                n_boundary = int(count)
            elif parts[0] == "triangle":
                sides = tuple(int(v) for v in parts[1:4])
                if len(sides) != 3:
                    raise TriangulationError(f"triangle needs three sides: {line!r}")
                kv = _options(parts[4:], ("selffolded",), lineno, TriangulationError)
                for side in map(int, kv.values()):
                    if sides.count(side) != 2:
                        raise TriangulationError(f"selffolded={side} does not match repeated side in {sides}")
                triangles.append(sides)  # type: ignore[arg-type]
            elif parts[0] == "tag":
                _, arc, end, tag = parts
                key = int(arc), int(end)
                if tag not in ("plain", "notched") or key[1] not in (0, 1):
                    raise TriangulationError(f"bad tag line {line!r}")
                if key in tags:
                    raise TriangulationError(f"line {lineno}: a second tag for end {end} of arc {arc}")
                tags[key] = tag
            else:
                raise TriangulationError(f"unknown directive {parts[0]!r}")
        except (IndexError, KeyError, ValueError) as exc:
            if isinstance(exc, TriangulationError):
                raise
            raise TriangulationError(f"line {lineno}: cannot parse {raw!r}") from None
    if None in (genus, boundary_marks, n_punct, n_arcs, n_boundary):
        raise TriangulationError("missing surface/arcs/boundary header")
    t = Triangulation(genus, boundary_marks, n_punct, n_arcs, n_boundary, tuple(triangles))
    validate(t)
    return _apply_tags(t, tags)


def _ends_at(t: Triangulation, orbit: Tuple[Corner, ...]) -> List[Tuple[int, int]]:
    """The (arc, end) pairs of the arc ends at this vertex, in label order."""
    return [
        (arc, end)
        for arc in range(1, t.n_arcs + 1)
        for end, v in enumerate(arc_endpoints(t, arc))
        if v == orbit
    ]


def _apply_tags(t: Triangulation, tags: Dict[Tuple[int, int], str]) -> Triangulation:
    """Explicit per-end tags are only stored as whole-puncture switches."""
    notched_ends = {ae for ae, tag in tags.items() if tag == "notched"}
    if not notched_ends:
        return t
    covered = set()
    notched = set()
    for pid, orbit in enumerate(punctures(t), 1):
        ends_here = set(_ends_at(t, orbit))
        if ends_here & notched_ends:
            if not ends_here <= notched_ends:
                raise TriangulationError(
                    f"puncture {pid}: partial notching is stored as a self-folded "
                    "triangle, not as tags"
                )
            notched.add(orbit)
            covered |= ends_here
    if covered != notched_ends:
        raise TriangulationError("notched tag on a non-puncture end")
    out = t._with(notched=frozenset(notched))
    validate(out)
    return out


def format_triangulation(t: Triangulation) -> str:
    lines = [
        "surface g={} b={} m={} p={}".format(
            t.genus, len(t.boundary_marks), ",".join(map(str, t.boundary_marks)), t.n_punctures
        ),
        f"arcs {t.n_arcs}",
        f"boundary {t.n_boundary}",
    ]
    for tri in t.triangles:
        extra = ""
        for pos in range(3):
            if tri[pos] == tri[(pos + 1) % 3]:
                extra = f" selffolded={tri[pos]}"
        lines.append("triangle {} {} {}{}".format(*tri, extra))
    for orbit in sorted(t.notched):
        lines.extend(f"tag {arc} {end} notched" for arc, end in _ends_at(t, orbit))
    return "\n".join(lines) + "\n"
