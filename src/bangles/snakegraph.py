"""Snake and band graphs of curves, their matchings and generating series.

The i-th crossing of a curve contributes a square tile whose diagonal is the
crossed arc; the two triangles on either side of that arc fill the tile's
south-west and north-east halves.  Consecutive tiles are glued along the edge
labeled by the third side of the shared triangle, stacking up and to the
right, so a curve with d crossings yields a staircase of d tiles.  Closed
curves wrap around: the first and last tiles carry one more matching edge
each (the seam copies), and the band graph is the quotient that glues them.

Matchings are weighed twice over: an x-monomial multiplying the variables of
the matched edge labels, and a y-monomial recording how far the matching
winds above the minimal one.  All invariants here (F-polynomial, g- and
h-vectors, the curve's Laurent expansions) are read off the bivariate
generating sum W over matchings.  One transfer scan computes W, for snakes
and bands alike.  W depends on a graph's labels only through which of them
are equal and what each one weighs, so it is computed per shape: the tiles
with their labels renamed by first appearance, and each renamed label's
x-weight kind (arc, boundary segment, or loop and its radius).  The shape
also finds its floor once: the least height in each direction, the
x-degrees of the one matching there, and F in column form (`poly`): W's
heights above the floor, with counts summed only where two terms share a
height.  A graph picks those columns through its label map, an arc that no
tile shows reading as a zero column; it reads g and h (tropically, down F's
columns) and its expansions itself, and builds F as a dict only when asked.
The shape keeps F's tropical minima by direction in its fields, so h reads
each direction restricted to the graph's arcs once per shape.
Each read is computed once and cached on its owner.
One live graph is kept per (triangulation, curve) value, and one live shape
per shape value, each by weak reference: while any caller holds the graph of
(t, c), every build or read of an equal (t, c) returns that same graph; while
anything holds a shape, every graph of that shape reads its one scan and
floor; and
each is freed with its last holder.  One pass over a shape's tiles lays the
edges out, and the scan plan is read straight off that layout: vertex
bitmasks for the frontiers, and each 2n-exponent weight packed into one int,
in byte-aligned signed fields whose width the same pass bounds.  A frontier
keeps its terms under an offset, so taking an edge moves the offset and
copies no term.  W is unpacked once, into one column per exponent and one of
counts (`_polypure._columns`), and the reads shift and zip those columns in
C: each column minus its shift (the floor or the crossing degree), zipped
back into keys.  The tests check W against an oracle of their own
(`tests/oracles.py`) that reads only the tiles: it enumerates matchings by
backtracking and reads each height off the tiles that the matching and the
minimal one enclose.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from itertools import chain, repeat
from operator import sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import _polypure
from .curve import Curve, validate_curve
from .poly import Poly, column_dot, lp_var, trop_eval_many
from .surface import Triangulation, folded_sides

Vertex = Tuple[int, int]
EdgeId = Tuple[Vertex, Vertex]  # sorted endpoint pair


class SnakeGraphError(ValueError):
    pass


class Tile(NamedTuple):
    pos: Vertex  # south-west corner on the grid
    diagonal: int
    compass: Tuple[int, int, int, int]  # N, E, S, W labels

    def edge_id(self, side: str) -> EdgeId:
        x, y = self.pos
        (ax, ay), (bx, by) = _SIDES[side]
        return ((x + ax, y + ay), (x + bx, y + by))


# offsets from a tile's south-west corner to each side's ends
_SIDES = {"S": ((0, 0), (1, 0)), "N": ((0, 1), (1, 1)), "W": ((0, 0), (0, 1)), "E": ((1, 0), (1, 1))}
# per side: its ends among a tile's corners (SW, SE, NW, NE), its place in the
# compass, its y-sign against the south side's (0: vertical), 1 if it tops the tile
_SIDE = {"S": (0, 1, 2, 1, 0), "W": (0, 2, 3, 0, 0), "E": (1, 3, 1, 0, 0), "N": (2, 3, 0, -1, 1)}


class Shape:
    """A graph with its labels renamed (`_shape`): its tiles, given as their
    positions and their labels (every diagonal, then every N, E, S and W
    side); its band flag and seam copies; and per renamed label the renamed
    arcs that its x-weight multiplies.  Its layout, scan, unpacked W and
    floor are computed once (`cached_property`), and every graph of the
    shape reads them through its label map.  Shapes compare by identity,
    and `_live_shapes` holds them by weak reference."""

    def __init__(
        self,
        positions: Tuple[Vertex, ...],
        labels: Tuple[int, ...],
        band: bool,
        iota: Optional[EdgeId],
        omega: Optional[EdgeId],
        weights: Tuple[Tuple[int, ...], ...],  # per renamed label: arcs it weighs
    ):
        d = len(positions)
        compasses = zip(*(labels[i : i + d] for i in range(d, 5 * d, d)))
        self.tiles = tuple(map(Tile._make, zip(positions, labels[:d], compasses)))
        self.band = band
        self.iota = iota
        self.omega = omega
        self.weights = weights
        self.n_arcs = sum(1 for w in weights if w)  # the renamed arcs are 1..n_arcs

    @cached_property
    def _layout(self) -> tuple:
        return _lay_out(self)

    @cached_property
    def _packed(self) -> Dict[int, int]:
        """W with every 2n-exponent key packed into one int (`_scan`)."""
        return _scan(self)

    @cached_property
    def _width(self) -> int:
        """Bits per field of `_packed` (`_field_width`)."""
        return _field_width(self)

    @cached_property
    def _columns(self) -> tuple:
        """W unpacked once (`_polypure._columns`): its n x-columns, its n
        y-columns, then its counts, term by term in one order."""
        cols = _polypure._columns(self._packed, 2 * self.n_arcs, self._width)
        return (*cols, list(self._packed.values()))

    @cached_property
    def _floor(self) -> tuple:
        """The floor and F in the shape's fields (`_find_floor`)."""
        return _find_floor(self)

    @cached_property
    def _minima(self) -> Dict[Tuple[int, ...], int]:
        """F's tropical minima by direction in the shape's fields, filled
        by `minima`.  F is checked nonzero, subtraction-free and of one
        arity once, here: `trop_eval_many` at no direction."""
        trop_eval_many(self._floor[2], ())
        return {}

    def minima(self, dirs: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
        """`trop_eval_many` of F at each direction, given in the shape's
        fields (n_arcs entries); each direction's minimum is computed once
        per shape.  A graph's F has the floor's column of field j at its
        arc labels[j] and a zero column at every other arc
        (`SnakeGraph._floor`), so term by term its dot product with a
        direction c equals the floor's with c read at its arcs; every
        graph of the shape whose direction reads the same there has the
        same minimum."""
        memo, (*cols, counts) = self._minima, self._floor[2]
        for c in dirs:
            if c not in memo:
                memo[c] = min(column_dot(cols, c, len(counts)))
        return tuple(map(memo.__getitem__, dirs))


class SnakeGraph:
    """A graph and its reads, each computed once (`cached_property`); graphs
    compare by identity, and `_live_graphs` holds them by weak reference.
    W is its shape's, read through the label map (`_columns`): labels[i - 1]
    is the graph's own label of renamed label i."""

    def __init__(
        self,
        surface: Triangulation,
        tiles: Tuple[Tile, ...],
        band: bool,
        iota: Optional[EdgeId],  # first tile's seam copy (bands only)
        omega: Optional[EdgeId],  # last tile's seam copy
        cross_vec: Tuple[int, ...],
    ):
        self.surface = surface
        self.tiles = tiles
        self.band = band
        self.iota = iota
        self.omega = omega
        self.cross_vec = cross_vec
        self.shape, self.labels = _shape(surface, tiles, band, iota, omega)

    @property
    def d(self) -> int:
        return len(self.tiles)

    @cached_property
    def _fields(self) -> List[Optional[int]]:
        """Per arc of the surface, its field in the shape: the index of its
        renamed label, or None for an arc that no tile shows and no shown
        loop encloses."""
        field = {label: i for i, label in enumerate(self.labels[: self.shape.n_arcs])}
        return [field.get(j) for j in range(1, self.surface.n_arcs + 1)]

    def _pick(self, values, zero) -> list:
        """Per arc of the surface, its field's entry of values, or zero."""
        return [zero if i is None else values[i] for i in self._fields]

    @cached_property
    def _columns(self) -> tuple:
        """The shape's columns in the surface's fields: n x-columns, n
        y-columns, then counts; an arc with no field reads as a zero column."""
        *cols, counts = self.shape._columns
        zero = [0] * len(counts)
        return (*self._pick(cols, zero), *self._pick(cols[self.shape.n_arcs :], zero), counts)

    @cached_property
    def _floor(self) -> Tuple[Tuple[int, ...], Tuple[int, ...], tuple]:
        """The shape's floor in the surface's fields: x-degrees and heights
        of the minimal matching, and F in column form."""
        x0, m0, (*heights, counts) = self.shape._floor
        f = (*self._pick(heights, [0] * len(counts)), counts)
        return tuple(self._pick(x0, 0)), tuple(self._pick(m0, 0)), f

    @property
    def f_columns(self) -> tuple:
        """F in column form (`poly`): one column of heights per arc, then
        the count of matchings at each height, term by term.  The lists
        are shared with every graph of the shape; callers must not mutate
        them."""
        return self._floor[2]

    @cached_property
    def f_poly(self) -> Poly:
        """Height generating polynomial: constant term 1, coefficients count
        matchings at each normalized height."""
        *heights, counts = self.f_columns
        return dict(zip(zip(*heights), counts))

    @cached_property
    def g_vector(self) -> Tuple[int, ...]:
        """x-degrees of the minimal matching minus the crossing degrees."""
        return tuple(x - c for x, c in zip(self._floor[0], self.cross_vec))

    @cached_property
    def h_vector(self) -> Tuple[int, ...]:
        """Tropical shadow of the F-polynomial in the exchange-matrix
        directions, direction i -e_i + sum_j [-b_ij]+ e_j (b_ii = 0) read
        at the graph's arcs, in its shape's fields (`Shape.minima`)."""
        arcs = self.labels[: self.shape.n_arcs]
        return self.shape.minima(
            [tuple(-1 if a == i else max(-row[a - 1], 0) for a in arcs) for i, row in enumerate(self.surface.adjacency, 1)]
        )

    @cached_property
    def msw(self) -> Poly:
        """Laurent expansion: matching sum over the crossing monomial."""
        xs = _minus(self._columns[: self.surface.n_arcs], self.cross_vec)
        return _tally(zip(*xs), self._columns[-1])

    @cached_property
    def principal_msw(self) -> Poly:
        """Matching sum with heights above the floor kept: variables x1..xn
        then y1..yn.  W's keys are distinct, and so are their shifts."""
        *cols, counts = self._columns
        return dict(zip(zip(*_minus(cols, self.cross_vec + self._floor[1])), counts))


def _minus(cols, shift: Tuple[int, ...]) -> list:
    """Each column minus its entry of shift, as lazy iterators."""
    return [map(sub, col, repeat(x)) for col, x in zip(cols, shift)]


def _tally(keys, counts) -> Poly:
    """{key: its counts summed}."""
    out: Poly = {}
    for key, cnt in zip(keys, counts):
        out[key] = out.get(key, 0) + cnt
    return out


def _find_floor(shape: Shape) -> tuple:
    """(x-degrees and heights of the minimal matching, F in column form),
    in the shape's fields.  The minimal matching must be the only matching
    at the least height in every direction.  F's columns are W's heights
    above it, one list per renamed arc, and its counts are W's; only when
    two terms of W share a height are the counts summed by height."""
    m = shape.n_arcs
    *cols, counts = shape._columns
    m0 = tuple(map(min, cols[m:]))
    heights = [list(col) for col in _minus(cols[m:], m0)]
    keys = list(zip(*heights))
    f = dict(zip(keys, counts))
    if len(f) < len(keys):
        f = _tally(keys, counts)
        heights, counts = [list(col) for col in zip(*f)], list(f.values())
    zero = (0,) * m
    if f.get(zero) != 1:
        raise SnakeGraphError("height floor is not a single matching")
    i = keys.index(zero)
    return tuple(col[i] for col in cols[:m]), m0, (*heights, counts)


def _build(t: Triangulation, c: Curve) -> SnakeGraph:
    validate_curve(t, c)
    band = c.closed
    if not c.steps:
        raise SnakeGraphError("a label-only arc has no snake graph")
    steps, tris, occ = c.steps, t.triangles, t.occurrences
    d = len(steps)

    tiles: List[Tile] = []
    pos, glued = (0, 0), None  # compass place and label of the side the last tile shares
    for i, (before, a) in enumerate(steps, 1):
        # a sits at slot j of the triangle the crossing lands in and at slot
        # k of the one before it; clockwise past a come slots j - 2, j - 1
        (ta, ja), (tb, jb) = occ[a]
        land, j, k = (tb, jb, ja) if before == ta else (ta, ja, jb)
        lt, bt = tris[land], tris[before]
        s, s2 = lt[j - 2], lt[j - 1]
        if i % 2 == 1:
            compass = (s, s2, bt[k - 2], bt[k - 1])  # N, E, S, W
        else:
            compass = (s2, s, bt[k - 1], bt[k - 2])
        if glued and compass[glued[0]] != glued[1]:
            raise SnakeGraphError(f"glued edge labeled {glued[1]} and {compass[glued[0]]} at tile {i}")
        tiles.append(Tile(pos, a, compass))
        if i < d or band:
            # the connector: the landing triangle's side that is neither a
            # nor the next crossed arc
            nxt = steps[i % d][1]
            if nxt == s2 != s:
                ci = s
            elif nxt == s != s2:
                ci = s2
            else:
                raise SnakeGraphError(f"triangle {lt} gives no unique connector")
            if i < d:
                if ci == compass[0]:
                    pos, glued = (pos[0], pos[1] + 1), (2, ci)
                elif ci == compass[1]:
                    pos, glued = (pos[0] + 1, pos[1]), (3, ci)
                else:
                    raise SnakeGraphError(f"connector {ci} missing from tile {i}")

    # seam slots for bands: the last connector, the seam label, shows up on
    # the first tile's lower-left boundary and the last tile's upper-right one
    iota = omega = None
    if band:
        first, last = tiles[0], tiles[-1]
        if first.compass[2] == ci:
            iota = first.edge_id("S")
        elif first.compass[3] == ci:
            iota = first.edge_id("W")
        else:
            raise SnakeGraphError(f"seam label {ci} missing from the first tile")
        if last.compass[0] == ci:
            omega = last.edge_id("N")
        elif last.compass[1] == ci:
            omega = last.edge_id("E")
        else:
            raise SnakeGraphError(f"seam label {ci} missing from the last tile")

    cross_vec = [0] * t.n_arcs  # one x variable per crossing
    for _, arc in c.steps:
        cross_vec[arc - 1] += 1
    return SnakeGraph(
        surface=t,
        tiles=tuple(tiles),
        band=band,
        iota=iota,
        omega=omega,
        cross_vec=tuple(cross_vec),
    )


# (t, c) -> the live graph _build(t, c).  A Triangulation and a Curve are
# equal exactly when their fields are, and _build reads nothing else, so
# equal keys give equal graphs; every key is such a pair, never a plain
# tuple that a Curve could equal.  Values are weak: an entry goes when
# the last holder of its graph drops it.
_live_graphs: weakref.WeakValueDictionary[tuple, SnakeGraph] = weakref.WeakValueDictionary()


# shape value -> the live Shape of that value.  The layout and the scan
# read nothing of a shape but its fields, and meet labels only through
# label equality and each label's weights, so equal keys give equal W.  Values are weak: an entry goes when the last graph or
# caller holding its shape drops it.
_live_shapes: weakref.WeakValueDictionary[tuple, Shape] = weakref.WeakValueDictionary()


def _shape(
    t: Triangulation, tiles: Tuple[Tile, ...], band: bool, iota: Optional[EdgeId], omega: Optional[EdgeId]
) -> Tuple[Shape, Tuple[int, ...]]:
    """The live shape of a graph, and its label map: the graph's own label
    of each renamed label, in order.

    Labels are renamed by first appearance (every tile's diagonal, then
    every tile's N, E, S and W side), arcs first, then the radius of each shown loop
    that no tile shows, then boundary segments.  So the renamed arcs are
    1..n_arcs, and the weights of a renamed label are its own index for an
    arc, its own and its radius's for a loop (a loop stands for the pair of
    radii it encloses), and none for a boundary segment.  Renaming a
    graph's labels by a bijection that keeps these kinds renames its W and
    leaves its shape as it is."""
    n, loops = t.n_arcs, {loop: r for r, loop in folded_sides(t).items()}
    positions, diagonals, compasses = zip(*tiles)
    flat = diagonals + tuple(chain(*zip(*compasses)))  # as `Shape` takes them
    shown = dict.fromkeys(flat)
    arcs = [x for x in shown if x <= n]  # labels 1..n are arcs, the rest boundary
    arcs += [loops[x] for x in arcs if x in loops and loops[x] not in shown]
    labels = tuple(arcs + [x for x in shown if x > n])
    new = dict(zip(labels, range(1, len(labels) + 1)))
    weights = tuple([(new[x], new[loops[x]]) if x in loops else (new[x],) for x in arcs])
    weights += ((),) * (len(labels) - len(arcs))
    key = (positions, tuple(map(new.__getitem__, flat)), band, iota, omega, weights)
    shape = _live_shapes.get(key)
    if shape is None:
        shape = _live_shapes[key] = Shape(*key)
    return shape, labels


def _graph(t: Triangulation, c: Curve, band: bool) -> SnakeGraph:
    if band != c.closed:
        raise SnakeGraphError("closed curves give band graphs, open curves snake graphs")
    key = (t, c)
    g = _live_graphs.get(key)
    if g is None:
        g = _live_graphs[key] = _build(t, c)
    return g


def build_snake_graph(t: Triangulation, c: Curve) -> SnakeGraph:
    return _graph(t, c, band=False)


def build_band_graph(t: Triangulation, c: Curve) -> SnakeGraph:
    return _graph(t, c, band=True)


# ---------------------------------------------------------------------------
# matchings: transfer scan along the staircase


# a frontier's terms: (offset, {packed weight - offset: count}, owned), where
# owned says that no other frontier holds the dict
_State = Tuple[int, Dict[int, int], bool]


def _scan(shape: Shape) -> Dict[int, int]:
    """Walk the edges tile by tile, keeping only covered-vertex frontiers.

    Sums the weights (packed 2n-exponent -> count) of the good matchings.  A
    band's seam copies are scanned without their x-weight, and a taken copy
    leaves its own bit in the frontier.  A band matching takes ι, ω or both
    (both is the seam edge itself), and only the last adds the seam's
    x-weight, once.

    The plan is read off the layout (`_lay_out`).  A frontier is a bitmask
    over the vertices and seam copies, so membership, union and retirement
    are `&`, `|` and `& ~`.  A weight is one int with a signed field per
    exponent (`_field_width` bits wide), summed from
    unit shifts, so taking an edge is one int add.  A frontier holds its
    terms as an offset and a {packed weight: count} dict: taking an edge
    moves the offset and copies no term, and terms move only where two
    frontiers meet (`_merge`).  The sum stays packed."""
    (slots, _, seam), n = shape._layout, shape.n_arcs
    units = [1 << (i * shape._width) for i in range(2 * n)]
    xw = [0] + [sum(units[a - 1] for a in w) for w in shape.weights]  # by label
    suffix = [0]  # reversed below: suffix[i] is the packed diagonals of tiles[i:]
    for _, diagonal, _ in reversed(shape.tiles):
        suffix.append(suffix[-1] + units[n + diagonal - 1])
    suffix.reverse()
    # per edge: its end bits, the bits a matching that takes it sets, its
    # packed weight (a seam copy's has no x), and its retired bits
    plan = [
        (ends, ends | bit, (0 if bit else xw[label]) + sign * (suffix[start] - suffix[stop]), retire)
        for label, ends, bit, retire, sign, start, stop in slots
    ]

    # state: bitmask of covered-but-still-open vertices and taken seam
    # copies -> `_State`; a frontier that leaves a retired vertex uncovered
    # dies.  A state that both takes and skips an edge hands one terms dict
    # to two frontiers, so neither owns it, and `_merge` copies it before
    # writing.
    states: Dict[int, _State] = {0: (0, {0: 1}, True)}
    for ends, taken, weight, retire in plan:
        nxt: Dict[int, _State] = {}
        for cover, (offset, terms, owned) in states.items():
            take = not cover & ends
            skip = not retire & ~cover
            if take and skip:
                owned = False
            if take:
                key = (cover | taken) & ~retire
                old = nxt.get(key)
                new = (offset + weight, terms, owned)
                nxt[key] = new if old is None else _merge(old, new)
            if skip:
                key = cover & ~retire
                old = nxt.get(key)
                new = (offset, terms, owned)
                nxt[key] = new if old is None else _merge(old, new)
        states = nxt

    if shape.band:
        iota, omega, label = seam
        parts = [(iota | omega, xw[label]), (iota, 0), (omega, 0)]
    else:
        parts = [(0, 0)]
    total: Dict[int, int] = {}
    for cover, shift in parts:
        if cover in states:
            offset, terms, _ = states[cover]
            offset += shift
            for p, cnt in terms.items():
                p += offset
                total[p] = total.get(p, 0) + cnt
    return total


def _merge(a: _State, b: _State) -> _State:
    """The state of one frontier that two states reach: the smaller terms
    dict is shifted into the larger, which is copied first unless owned."""
    if len(a[1]) < len(b[1]):
        a, b = b, a
    offset, terms, owned = a
    if not owned:
        terms = dict(terms)
    get = terms.get
    shift = b[0] - offset
    for p, cnt in b[1].items():
        p += shift
        terms[p] = get(p, 0) + cnt
    return offset, terms, True


def _field_width(shape: Shape) -> int:
    """Bits per packed exponent: the narrowest byte-aligned width
    (`_polypure._byte_width`) that holds every packed value the scan forms.

    Let S_i be the sum of field i's magnitudes over all edges.  Every
    partial weight in a scan sums the weights of a subset of the edges, so
    its field i lies in [-S_i, S_i]; so does each term of W.  The reads
    unpack W before they subtract anything (`Shape._columns`), so
    their differences are Python ints and need no room in a field.  So the
    bound is the largest S_i."""
    return _polypure._byte_width(shape._layout[1])


def _lay_out(shape: Shape) -> tuple:
    """The edges laid out in one pass over the tiles, for the scan plan:
    (slots, the largest S_i of `_field_width`, and for a band the bits of ι
    and ω and the seam label).

    A slot is [label, end bits, seam bit, retired bits, sign, start, stop],
    one per edge in scan order.  A tile adds the sides
    it does not share with the tile before it and, after the first, two
    new corners, so vertex bits follow the order the scan meets them; ι
    and ω take the next two bits.  A vertex retires at the last edge that
    touches it.  A horizontal edge weighs sign times one y per diagonal of
    tiles[start:stop], the tiles above it in its column, so a tile adds
    one to S_i per horizontal edge below it there."""
    tiles, d, n = shape.tiles, len(shape.tiles), shape.n_arcs
    xs = [x for (x, _), _, _ in tiles]
    ups = [a == b for a, b in zip(xs, xs[1:])]  # next tile above?
    stop = [d] * d  # past the top tile of each tile's column
    for i in range(d - 2, -1, -1):
        stop[i] = stop[i + 1] if ups[i] else i + 1
    sums, slots, last, counts = [0] * (2 * n), [], {}, {}
    corners, fresh, rank, sides = (1, 2, 4, 8), 16, 0, "SWEN"  # SW, SE, NW, NE bits
    for i, (pos, diagonal, compass) in enumerate(tiles):
        if i:
            c, up = corners, ups[i - 1]
            corners = (c[2], c[3], fresh, fresh << 1) if up else (c[1], fresh, c[3], fresh << 1)
            fresh, rank, sides = fresh << 2, rank + 1 if up else 0, "WEN" if up else "SEN"
        sums[n + diagonal - 1] += rank + 1
        south = 1 if sum(pos) % 2 else -1
        for side in sides:
            a, b, k, flip, h = _SIDE[side]
            label = compass[k]
            counts[label] = counts.get(label, 0) + 1
            last[corners[a]] = last[corners[b]] = len(slots)
            slots.append([label, corners[a] | corners[b], 0, 0, south * flip, i + h, stop[i]])
    for v, j in last.items():
        slots[j][3] |= v
    seam = None
    if shape.band:  # ι is the first tile's south or west side, ω the last tile's north or east
        iota = slots[0 if tiles[0].edge_id("S") == shape.iota else 1]
        omega = slots[-1 if tiles[-1].edge_id("N") == shape.omega else -2]
        iota[2], omega[2] = fresh, fresh << 1
        seam = (fresh, fresh << 1, iota[0])
    for label, cnt in counts.items():
        for arc in shape.weights[label - 1]:
            sums[arc - 1] += cnt
    return slots, max(sums), seam


# ---------------------------------------------------------------------------
# invariants of a graph, and of a curve on a triangulation


def snake_F_poly(g: SnakeGraph) -> Poly:
    return g.f_poly


def snake_g_vector(g: SnakeGraph) -> Tuple[int, ...]:
    return g.g_vector


def snake_h_vector(g: SnakeGraph) -> Tuple[int, ...]:
    return g.h_vector


def curve_graph(t: Triangulation, c: Curve) -> Optional[SnakeGraph]:
    """The band graph of a closed curve, the snake graph of an open one, and
    None for an arc of t itself (checked against t), which crosses nothing."""
    if c.arc is not None:
        validate_curve(t, c)
        return None
    return build_band_graph(t, c) if c.closed else build_snake_graph(t, c)


def msw_function(t: Triangulation, c: Curve) -> Poly:
    """Laurent expansion of a curve: matching sum over crossing monomial; an
    arc of t is its own variable.  This is the shared graph's `msw`, which
    callers must not mutate."""
    g = curve_graph(t, c)
    return lp_var(t.n_arcs, c.arc - 1) if g is None else g.msw


def principal_msw(t: Triangulation, c: Curve) -> Poly:
    """Matching sum with heights kept: variables x1..xn then y1..yn; an arc
    of t is its own variable.  This is the shared graph's `principal_msw`,
    which callers must not mutate."""
    g = curve_graph(t, c)
    return lp_var(2 * t.n_arcs, c.arc - 1) if g is None else g.principal_msw
