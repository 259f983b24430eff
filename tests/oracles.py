"""References the tests compare the program with, rebuilt from definitions.

`matching_sum` reads a snake or band graph's tiles and nothing the program
derives from them: the edges come from each tile's corner and compass,
matchings from backtracking, and each height from the tiles that the
matching and the minimal matching P₋ enclose (Musiker–Schiffler–Williams,
Adv. Math. 2011).  `gamma_transform` is the shear transport law.
`adjacency_by_pi` builds B(T) from its definition through the map pi
(Fomin–Shapiro–Thurston, Acta Math. 2008).  `state_key_by_rank` is the
walker's state key by its first definition: steps renumber their triangles
by rank in the sorted triangle rotations, and a curve takes the least of
all its rotations (`normalize_by_all_rotations`).
"""

from collections import Counter

from bangles.surface import folded_sides

# each side's ends as offsets from the tile's south-west corner, N, E, S, W
_SIDES = (((0, 1), (1, 1)), ((1, 0), (1, 1)), ((0, 0), (1, 0)), ((0, 0), (0, 1)))


def _sides(tile):
    """The tile's N, E, S and W sides, each a pair of grid points."""
    x, y = tile.pos
    return [((x + ax, y + ay), (x + bx, y + by)) for (ax, ay), (bx, by) in _SIDES]


def edges(g):
    """{edge: label} of the graph cut open at its seam: every tile side."""
    return {e: label for tile in g.tiles for e, label in zip(_sides(tile), tile.compass)}


def _matchings(ends):
    """The perfect matchings of the graph {edge: its two ends}."""
    at = {}
    for e, vs in ends.items():
        for v in vs:
            at.setdefault(v, []).append(e)

    def extend(free, chosen):
        if not free:
            yield chosen
            return
        v = min(free)
        for e in at[v]:
            a, b = ends[e]
            if a in free and b in free:
                yield from extend(free - {a, b}, chosen | {e})

    return extend(frozenset(at), frozenset())


def _minimal_matching(g):
    """P₋: every other edge of the boundary cycle, which passes through each
    vertex once, starting with the first tile's south side."""
    count = Counter(e for tile in g.tiles for e in _sides(tile))
    at = {}
    for e in (e for e, c in count.items() if c == 1):
        for v in e:
            at.setdefault(v, []).append(e)
    start = _sides(g.tiles[0])[2]
    cycle, v = [start], start[1]
    while True:
        (e,) = [f for f in at[v] if f != cycle[-1]]
        if e == start:
            return set(cycle[::2])
        cycle.append(e)
        v = _other_end(e, v)


def _other_end(e, v):
    return e[0] if e[1] == v else e[1]


def matching_sum(g):
    """The principal matching sum of g: one term per good matching, keyed by
    its x-degrees less the crossings, then its height above P₋.

    A band is its cut graph with the seam copies ι (first tile, S or W) and
    ω (last tile, N or E) made one edge: the first tile's south-west corner
    is glued to ω's other end, and the last tile's north-east corner to ι's
    other end.  A band matching counts the seam's x-weight once and lifts
    to the cut graph by taking back ι, ω or both; one that lifts to neither
    is not good."""
    tiles, n = g.tiles, g.surface.n_arcs
    label = edges(g)
    ends = {e: e for e in label}
    if g.band:
        first, last = tiles[0], tiles[-1]
        (seam,) = set(first.compass[2:]) & set(last.compass[:2])
        (iota,) = [e for e, s in zip(_sides(first)[2:], first.compass[2:]) if s == seam]
        (omega,) = [e for e, s in zip(_sides(last)[:2], last.compass[:2]) if s == seam]
        sw, ne = first.pos, (last.pos[0] + 1, last.pos[1] + 1)
        glue = {_other_end(omega, ne): sw, ne: _other_end(iota, sw)}
        ends = {e: tuple(glue.get(v, v) for v in e) for e in label if e not in (iota, omega)}
        ends["seam"], label["seam"] = (sw, _other_end(iota, sw)), seam
    # arcs are labels 1..n; an edge labelled by a loop weighs loop * radius
    loop_of = folded_sides(g.surface)
    cross = Counter(tile.diagonal for tile in tiles)
    floor, out = _minimal_matching(g), Counter()
    for m in _matchings(ends):
        lift = set(m)
        if g.band and "seam" in m:
            lift ^= {"seam", iota, omega}
        elif g.band:
            covered = {v for e in m for v in e}
            lift |= {e for e in (iota, omega) if not covered & set(e)}
            if lift == m:
                continue
        hits = Counter(label[e] for e in m)
        x = [hits[i] + hits[loop_of.get(i)] - cross[i] for i in range(1, n + 1)]
        # a tile is enclosed when a ray from it to the west crosses an odd
        # number of vertical edges of P ⊖ P₋
        walls = [a for a, b in lift ^ floor if a[0] == b[0]]
        y = [0] * n
        for tile in tiles:
            tx, ty = tile.pos
            y[tile.diagonal - 1] += sum(wy == ty and wx <= tx for wx, wy in walls) % 2
        out[tuple(x + y)] += 1
    return dict(out)


def gamma_transform(g, b, k):
    """g'_k = -g_k; g'_i = g_i + sgn(g_k)[b_ik*g_k]+ for i != k."""
    sgn = (g[k] > 0) - (g[k] < 0)
    return tuple(-g[k] if i == k else g[i] + sgn * max(0, b[i][k] * g[k]) for i in range(len(b)))


def adjacency_by_pi(t):
    """B(T) by definition: pi sends a folded side to its loop and every
    other label to itself, and each clockwise-consecutive arc pair (a, c)
    of a triangle with three distinct sides adds +1 at (j, k) and -1 at
    (k, j) for every j with pi(j) = a and k with pi(k) = c."""
    n = t.n_arcs
    pi = {label: label for label in range(1, n + t.n_boundary + 1)}
    pi.update(folded_sides(t))
    pre = {}
    for label in range(1, n + 1):
        pre.setdefault(pi[label], []).append(label)
    b = [[0] * n for _ in range(n)]
    for tri in t.triangles:
        if len(set(tri)) < 3:
            continue
        for pos in range(3):
            a, c = tri[pos], tri[(pos + 1) % 3]
            if not (t.is_arc(a) and t.is_arc(c)):
                continue
            for j in pre.get(a, [a]):
                for k in pre.get(c, [c]):
                    b[j - 1][k - 1] += 1
                    b[k - 1][j - 1] -= 1
    return tuple(map(tuple, b))


def _least_rotation(tri):
    return min(tri[j:] + tri[:j] for j in range(3))


def normalize_by_all_rotations(c):
    """A closed curve's least rotation among all d of them; an open one's
    lesser orientation, each step of the reversed curve starting where the
    original step lands."""
    if c.steps and not c.closed:
        lands = [tri for tri, _ in c.steps[1:]] + [c.ends[1][0]]
        rev = c._replace(steps=tuple((land, a) for land, (_, a) in zip(lands, c.steps))[::-1], ends=c.ends[::-1])
        return min(c, rev, key=lambda o: (o.steps, o.ends))
    rots = [c.steps[i:] + c.steps[:i] for i in range(len(c.steps))]
    return c._replace(steps=min(rots)) if rots else c


def state_key_by_rank(t, c):
    """(sorted triangle rotations, each notched puncture by the least of
    its corners' triangles read from that corner) and the curve with each
    step's triangle renumbered by its rank in that sort, ties by storage
    index, at its least rotation."""
    ranked = sorted((_least_rotation(tri), i) for i, tri in enumerate(t.triangles))
    rank = {i: r for r, (_, i) in enumerate(ranked)}
    tags = sorted(min(t.triangles[ti][pos:] + t.triangles[ti][:pos] for ti, pos in p) for p in t.notched)
    form = (tuple(rot for rot, _ in ranked), tuple(tags))
    return form, normalize_by_all_rotations(c._replace(steps=tuple((rank[tri], a) for tri, a in c.steps)))
