"""Dual shear coordinates of laminates and their behavior under flips.

A laminate is a positioned curve whose open ends rest on boundary segments
(or truncate a spiral around a puncture); closed curves qualify as they are.
The shear coordinate at an arc counts, over all passages of the laminate
through the quadrilateral around that arc, Z-shaped traversals minus
S-shaped ones: a passage scores +1 when it connects the second side of one
adjacent triangle to the second side of the other, -1 when it connects the
two first sides, and 0 otherwise (corners, terminal segments).

The companion construction here is the elementary laminate of an arc: the
curve running alongside the arc with both ends slid clockwise off its
endpoints, across the incident fan until they rest on a boundary segment.
Ends at punctures never rest; they spiral, and the crossing sequence is
truncated once an extra turn stops changing the coordinates.  The clockwise
convention is pinned by the calibration dual_shear(elementary(j)) = e_j.

Under the flip at k, [-B; Sh] of a laminate mutates at k to the matrix
rebuilt on the flipped triangulation (`shear_matrix` gives both sides).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .curve import Curve, open_curve, validate_curve
from .mutation import Matrix
from .surface import Triangulation

ShearVector = Tuple[int, ...]

# Turns a spiralling laminate end makes before it is cut.  Past the first,
# each passage turns a corner at the puncture and scores 0; one turn gives
# the unit vectors already, and the second is margin.
SPIRAL_TURNS = 2


class ShearError(ValueError):
    pass


def _rest_side(t: Triangulation, end: Tuple[int, int]) -> Optional[int]:
    """The boundary segment an open end rests on.

    An end whose corner touches no boundary side (a truncated spiral) or two
    of them (nothing to pin it) classifies no passage and yields None.
    """
    tri, corner = end
    a, b = t.triangles[tri][corner], t.triangles[tri][corner - 2]  # corner, corner + 1
    on_a, on_b = t.is_boundary(a), t.is_boundary(b)
    if on_a == on_b:
        return None
    return a if on_a else b


def dual_shear(t: Triangulation, lam: Curve) -> ShearVector:
    """Z-minus-S crossing counts of a laminate, indexed by arcs."""
    validate_curve(t, lam)
    out = [0] * t.n_arcs
    steps, tris, occ = lam.steps, t.triangles, t.occurrences
    d = len(steps)
    for m, (tri, a) in enumerate(steps):
        (ta, ia), (tb, ib) = occ[a]
        if ta == tb:
            raise ShearError(f"arc {a} bounds a one-triangle quadrilateral")
        # a sits at slot i of tri and at slot j of the triangle it lands in;
        # the passage enters by a side of tri and leaves by one of that one
        land, i, j = (tb, ia, ib) if tri == ta else (ta, ib, ia)
        entry = steps[m - 1][1] if m > 0 or lam.closed else _rest_side(t, lam.ends[0])
        exits = steps[(m + 1) % d][1] if m < d - 1 or lam.closed else _rest_side(t, lam.ends[1])
        # the side two slots past a's own in each triangle is its slot - 1,
        # one past it is its slot - 2: two of the first kind are a Z, two
        # of the second an S
        if entry == tris[tri][i - 1] and exits == tris[land][j - 1]:
            out[a - 1] += 1
        elif entry == tris[tri][i - 2] and exits == tris[land][j - 2]:
            out[a - 1] -= 1
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary laminates


def _slide(t: Triangulation, tri: int, corner: int):
    """Clockwise fan walk from a corner: cross the corner's lower side and
    pivot until a boundary side stops the walk, or a cycle (spiral around a
    puncture) is detected and unrolled SPIRAL_TURNS times.

    Returns (crossings as (src, arc, dst) triples, final (tri, corner)).
    """
    occ = t.occurrences
    crossings: List[Tuple[int, int, int]] = []
    seen: Dict[Tuple[int, int], int] = {}
    while True:
        lo = t.triangles[tri][corner]
        if t.is_boundary(lo):
            return crossings, (tri, corner)
        if (tri, corner) in seen:
            start = seen[(tri, corner)]
            cycle = crossings[start:]
            return crossings[:start] + cycle * SPIRAL_TURNS, (tri, corner)
        seen[(tri, corner)] = len(crossings)
        pair = occ[lo]
        if len(pair) != 2 or pair[0][0] == pair[1][0]:
            raise ShearError(f"cannot slide across arc {lo}")
        (oa, sa), (ob, sb) = pair
        nxt_tri, nxt_slot = (ob, sb) if (oa, sa) == (tri, corner) else (oa, sa)
        crossings.append((tri, lo, nxt_tri))
        tri, corner = nxt_tri, (nxt_slot - 1) % 3


def elementary_laminate(t: Triangulation, j: int) -> Curve:
    """The laminate of an arc: parallel copy crossing the arc once, both
    ends slid clockwise; calibrated so dual_shear gives the unit vector."""
    if t.notched:
        raise ShearError("elementary laminates only built on plain triangulations")
    if j < 1 or j > t.n_arcs:
        raise ShearError(f"no arc {j}")
    occ = t.occurrences[j]
    if len(occ) != 2 or occ[0][0] == occ[1][0]:
        raise ShearError(f"arc {j} is folded or a loop")
    (ta, ia), (tb, ib) = occ
    walk_a, end_a = _slide(t, ta, (ia - 1) % 3)
    walk_b, end_b = _slide(t, tb, (ib - 1) % 3)
    steps = [(dst, arc) for (_, arc, dst) in reversed(walk_a)]
    steps.append((ta, j))
    steps.extend((src, arc) for (src, arc, _) in walk_b)
    lam = open_curve(steps, (end_a, end_b))
    validate_curve(t, lam)
    return lam


# ---------------------------------------------------------------------------
# transformation law under a flip


def shear_matrix(t: Triangulation, *lams: Curve) -> Matrix:
    """[-B(T)] stacked over the shear row of each laminate."""
    rows = [tuple(-x for x in row) for row in t.adjacency]
    return tuple(rows + [dual_shear(t, lam) for lam in lams])

