"""Curves on a triangulated surface, written as positioned crossing lists.

A crossing step is (triangle index, arc label): the triangle the curve is in
just before it crosses that arc.  Closed curves are cyclic step lists; open
curves add their two endpoint corners.  An arc of the triangulation itself
crosses nothing and is stored by label only.

Positioned steps make transport along a flip purely local: crossings of the
flipped arc are deleted, step triangles inside the quadrilateral are pushed
to the new triangle carrying the same side, and a new diagonal crossing is
inserted for every passage that connects the two new triangles.

Every end is plain: the text form refuses a notched end, as only plain ends
have expansions here, and end lines in the label-only form (`arc j`), whose
label already fixes the arc.

A Curve is a named tuple, equal and hashed by its fields, so curves key
caches and dedup sets by value.  It also equals a plain tuple of the same
fields: a dict or set that holds curves, or tuples of them, must never
also hold plain tuples of that shape.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .surface import Corner, QuadRecord, Triangulation, _options, resolve_vertex_ref

Step = Tuple[int, int]  # (triangle index, arc label)


class CurveError(ValueError):
    pass


class TransportError(ValueError):
    pass


class Curve(NamedTuple):
    closed: bool
    steps: Tuple[Step, ...] = ()
    ends: Optional[Tuple[Corner, Corner]] = None
    arc: Optional[int] = None  # label-only form, zero crossings

    @property
    def d(self) -> int:
        return len(self.steps)


def closed_curve(steps) -> Curve:
    return Curve(closed=True, steps=tuple(steps))


def arc_curve(label: int) -> Curve:
    return Curve(closed=False, arc=label)


def open_curve(steps, ends) -> Curve:
    return Curve(closed=False, steps=tuple(steps), ends=tuple(ends))


def _landing(t: Triangulation, step: Step) -> int:
    """Triangle on the far side of a crossing."""
    tri, arc = step
    occ = t.occurrences[arc]
    if len(occ) != 2 or occ[0][0] == occ[1][0]:
        raise CurveError(f"arc {arc} cannot be crossed (folded side)")
    (t0, _), (t1, _) = occ
    if tri == t0:
        return t1
    if tri == t1:
        return t0
    raise CurveError(f"arc {arc} is not a side of triangle {tri + 1}")


def validate_curve(t: Triangulation, c: Curve) -> None:
    if c.arc is not None:
        if c.closed or c.steps or c.ends is not None:
            raise CurveError("label-only curves carry no steps or ends")
        if not t.is_arc(c.arc):
            raise CurveError(f"no arc {c.arc}")
        return
    if not c.steps:
        raise CurveError("a curve needs at least one crossing or an arc label")
    for tri, arc in c.steps:
        if not 0 <= tri < len(t.triangles):
            raise CurveError(f"no triangle {tri + 1}")
        if not t.is_arc(arc):
            raise CurveError(f"crossed label {arc} is not an arc")
    pairs = len(c.steps) - 1
    if c.closed:
        if len(c.steps) < 2:
            raise CurveError("a closed curve crosses at least two arcs")
        if c.ends is not None:
            raise CurveError("closed curves have no ends")
        pairs = len(c.steps)
    for m in range(pairs):
        here = c.steps[m]
        after = c.steps[(m + 1) % len(c.steps)]
        if _landing(t, here) != after[0]:
            raise CurveError(
                f"step {m + 1} lands in triangle {_landing(t, here) + 1}, "
                f"but the next step starts in {after[0] + 1}"
            )
        if here[1] == after[1]:
            raise CurveError(f"consecutive crossings of arc {here[1]}")
    if not c.closed:
        if c.ends is None:
            raise CurveError("open curves need their two end corners")
        (ta, pa), (tb, pb) = c.ends
        if not (0 <= pa < 3 and 0 <= pb < 3):
            raise CurveError("end corner position out of range")
        if ta != c.steps[0][0]:
            raise CurveError("first end corner must sit in the first step's triangle")
        if tb != _landing(t, c.steps[-1]):
            raise CurveError("second end corner must sit past the last crossing")


def _reversed(c: Curve) -> Curve:
    """An open curve run from its other end; each step starts where it lands."""
    lands = [tri for tri, _ in c.steps[1:]] + [c.ends[1][0]]
    steps = tuple((land, a) for land, (_, a) in zip(lands, c.steps))[::-1]
    return open_curve(steps, c.ends[::-1])


def normalize_curve(c: Curve) -> Curve:
    """One key per curve: a closed curve rotates its cyclic step list to its
    least form, an open one takes the lesser of its two orientations."""
    if c.steps and not c.closed:
        return min(c, _reversed(c), key=lambda o: (o.steps, o.ends))
    if not c.steps:
        return c
    # the least rotation starts at the least step, so only those rotate
    steps, least = c.steps, min(c.steps)
    return closed_curve(min(steps[i:] + steps[:i] for i, s in enumerate(steps) if s == least))


# ---------------------------------------------------------------------------
# transport along a flip


def transport_curve(c: Curve, q: QuadRecord, forward: bool = True) -> Curve:
    """Rewrite a curve across one flip (forward: old coords to new).  Any
    quad `flip` hands out will do: it hands out none curves cannot follow.

    Crossings of k are deleted.  A surviving crossing in the quad moves to
    the dst triangle carrying its side, after a new crossing of k when its
    entry lands in the other dst triangle.  Its entry is the previous
    surviving crossing, cyclically on a closed curve; the first one of an
    open curve has none, as it starts at an end corner.  `validate_curve`
    forbids two crossings of one arc in a row, so at most one crossing of k
    sits between two surviving ones.
    """
    v = q.forward_view if forward else q.backward_view
    k = v.k
    if c.arc is not None:
        if c.arc != k:
            return c
        # the old diagonal now crosses the new one exactly once, running
        # between the two corners the new diagonal does not touch
        name_a, name_b = ("Q", "S") if forward else ("P", "R")
        (end_a,) = v.dst_corners[name_a]
        (end_b,) = v.dst_corners[name_b]
        return open_curve([(end_a[0], k)], (end_a, end_b))

    steps = list(c.steps)
    d = len(steps)
    non_k = [m for m in range(d) if steps[m][1] != k]
    if not non_k:
        if c.closed:
            raise TransportError("closed curve crosses only the flipped arc")
        return arc_curve(k)

    out: List[Step] = []
    for i, m in enumerate(non_k):
        tri, a = steps[m]
        if tri not in v.tris:
            out.append((tri, a))
            continue
        dst = v.dst_of[(tri, a)]
        if i or c.closed:
            # entry j lands where step j + 1 starts
            j = non_k[i - 1]
            ent_tri = v.dst_of[(steps[(j + 1) % d][0], steps[j][1])]
            if ent_tri != dst:
                out.append((ent_tri, k))
        out.append((dst, a))

    if c.closed:
        # an entry at index 0 of an all-quad cyclic curve is already covered
        return closed_curve(out)

    ends = list(c.ends)
    # start side: segment from end 0 to the first surviving crossing
    first = non_k[0]
    if ends[0][0] in v.tris:
        name = v.corner_name[tuple(ends[0])]
        corner, extra = v.dst_corner(name, v.dst_of[(steps[first][0], steps[first][1])])
        ends[0] = corner
        if extra:
            out.insert(0, (corner[0], k))
    last = non_k[-1]
    if ends[1][0] in v.tris:
        name = v.corner_name[tuple(ends[1])]
        land = steps[last + 1][0] if last + 1 < d else c.ends[1][0]
        near = v.dst_of[(land, steps[last][1])]
        corner, extra = v.dst_corner(name, near)
        ends[1] = corner
        if extra:
            out.append((near, k))
    return open_curve(out, (ends[0], ends[1]))


# ---------------------------------------------------------------------------
# text format


def parse_curve(t: Triangulation, text: str) -> Curve:
    closed = None
    steps: List[Step] = []
    end_refs: List[Tuple[str, Optional[int]]] = []
    arc_label = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "curve":
                if closed is not None:
                    raise CurveError(f"line {lineno}: a second curve header")
                kv = _options(parts[1:], ("closed",), lineno, CurveError)
                closed = bool(int(kv["closed"]))
            elif parts[0] == "tri" and parts[2] == "cross":
                _, tri, _, arc = parts
                steps.append((int(tri) - 1, int(arc)))
            elif parts[0] == "end":
                kv = _options(parts[2:], ("corner", "tag"), lineno, CurveError)
                if kv.get("tag", "plain") != "plain":
                    raise CurveError(f"line {lineno}: end tag {kv['tag']!r}: only plain ends have expansions")
                end_refs.append((parts[1], int(kv["corner"]) if "corner" in kv else None))
            elif parts[0] == "arc":
                if arc_label is not None:
                    raise CurveError(f"line {lineno}: a second arc line")
                _, label = parts
                arc_label = int(label)
            else:
                raise CurveError(f"unknown directive {parts[0]!r}")
        except (IndexError, KeyError, ValueError) as exc:
            if isinstance(exc, CurveError):
                raise
            raise CurveError(f"line {lineno}: cannot parse {raw!r}") from None
    if closed is None:
        raise CurveError("missing curve header")

    if arc_label is not None:
        if closed or steps or end_refs:
            raise CurveError("label-only curves cannot be closed or carry steps or end lines: the label fixes the arc")
        c = arc_curve(arc_label)
        validate_curve(t, c)
        return c

    if closed:
        if end_refs:
            raise CurveError("closed curves have no ends")
        c = closed_curve(steps)
        validate_curve(t, c)
        return c

    if len(end_refs) != 2:
        raise CurveError("open curves need exactly two end lines")
    if not steps:
        raise CurveError("open curves with no crossings use the arc form")
    orbit_of = t.corner_orbits
    corners = []
    for which, (ref, pos) in enumerate(end_refs):
        target = resolve_vertex_ref(t, ref)
        tri = steps[0][0] if which == 0 else _landing(t, steps[-1])
        hits = [(tri, p) for p in range(3) if orbit_of[(tri, p)] == target]
        if pos is not None:
            if (tri, pos) not in hits:
                raise CurveError(f"end {ref} is not at corner {pos} of triangle {tri + 1}")
            hits = [(tri, pos)]
        if len(hits) != 1:
            raise CurveError(
                f"end {ref} does not pick a unique corner of triangle {tri + 1}; "
                "add corner=<0|1|2>"
            )
        corners.append(hits[0])
    c = open_curve(steps, corners)
    validate_curve(t, c)
    return c
