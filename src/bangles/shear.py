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

from .curve import Curve, _landing, open_curve, validate_curve
from .mutation import Matrix
from .surface import Triangulation

ShearVector = Tuple[int, ...]

# Turns a spiralling laminate end makes before it is cut.  Past the first,
# each passage turns a corner at the puncture and scores 0; one turn gives
# the unit vectors already, and the second is margin.
SPIRAL_TURNS = 2


class ShearError(ValueError):
    pass


def _side_slot(t: Triangulation, tri: int, label: int) -> int:
    sides = t.triangles[tri]
    hits = [i for i in range(3) if sides[i] == label]
    if len(hits) != 1:
        raise ShearError(f"side {label} is not unique in triangle {tri + 1}")
    return hits[0]


def _rest_slot(t: Triangulation, end: Tuple[int, int]) -> Optional[Tuple[int, int]]:
    """(triangle, side slot) of the boundary segment an open end rests on.

    An end whose corner touches no boundary side (a truncated spiral) or two
    of them (nothing to pin it) classifies no passage and yields None.
    """
    tri, corner = end
    a, b = corner, (corner + 1) % 3
    on_a = t.is_boundary(t.triangles[tri][a])
    on_b = t.is_boundary(t.triangles[tri][b])
    if on_a == on_b:
        return None
    return (tri, a if on_a else b)


def dual_shear(t: Triangulation, lam: Curve) -> ShearVector:
    """Z-minus-S crossing counts of a laminate, indexed by arcs."""
    validate_curve(t, lam)
    n = t.n_arcs
    out = [0] * n
    d = len(lam.steps)
    if d == 0:
        return tuple(out)
    occ = t.occurrences
    for m, (tri, a) in enumerate(lam.steps):
        (ta, ia), (tb, ib) = occ[a]
        if ta == tb:
            raise ShearError(f"arc {a} bounds a one-triangle quadrilateral")
        landing = _landing(t, lam.steps[m])
        if m > 0 or lam.closed:
            prev_arc = lam.steps[(m - 1) % d][1]
            entry = (tri, _side_slot(t, tri, prev_arc))
        else:
            entry = _rest_slot(t, lam.ends[0])
        if m < d - 1 or lam.closed:
            next_arc = lam.steps[(m + 1) % d][1]
            exits = (landing, _side_slot(t, landing, next_arc))
        else:
            exits = _rest_slot(t, lam.ends[1])
        if entry is None or exits is None:
            continue
        # entry side in tri, exit side in landing: each side's slot past a's
        # own slot in that triangle; two 2s are a Z, two 1s an S
        a_slot = {ta: ia, tb: ib}
        offsets = [(slot - a_slot[side_tri]) % 3 for side_tri, slot in (entry, exits)]
        if offsets == [2, 2]:
            out[a - 1] += 1
        elif offsets == [1, 1]:
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

