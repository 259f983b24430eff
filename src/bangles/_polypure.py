"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  These loops dominate every verification run;
`poly` calls them for every sum and product.

A packed polynomial keys each term by one int instead of a tuple: exponent
i sits in bits [i*width, (i+1)*width) as a signed field (`_pack`), so
adding two exponent vectors is one int add.  The encoding is linear and
stays exact while every field of every sum lies in [-2^(width-1),
2^(width-1)); keeping it there is the caller's job.  The transfer scan and
`poly`'s rationals share it.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def add_merge(a: dict, b: dict) -> dict:
    """Coefficient-wise sum, zero terms pruned."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def mul_accum(a: dict, b: dict) -> dict:
    """Distributive product; exponent tuples add componentwise."""
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def mul_packed(a: dict, b: dict, out: Optional[dict] = None) -> dict:
    """Distributive product of packed polynomials, added into `out` when
    given (zero terms pruned), else returned as a new dict.  Coefficients
    must be nonzero.  A one-term factor only shifts the keys of the other,
    so no two products meet and the new dict needs no merging."""
    if len(a) < len(b):
        a, b = b, a
    if out is None:
        if len(b) == 1:
            ((eb, cb),) = b.items()
            if cb == 1:
                return {ea + eb: ca for ea, ca in a.items()}
            return {ea + eb: ca * cb for ea, ca in a.items()}
        out = {}
    get = out.get
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = ea + eb
            s = get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:  # ca * cb != 0, so e was there
                del out[e]
    return out


def _pack(vec: Sequence[int], width: int) -> int:
    """Exponent vector -> one int, coordinate i in bits [i*width, (i+1)*width)
    as a signed field.  Linear: packing a sum of vectors gives the sum of
    their packed ints."""
    out = 0
    for i, x in enumerate(vec):
        out += x << (i * width)
    return out


def _unpack(p: int, n: int, width: int) -> Tuple[int, ...]:
    """Inverse of `_pack` for n fields in [-2^(width-1), 2^(width-1)).

    Adding 2^(width-1) to every field makes each one non-negative, so the
    fields are plain bit slices."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    p += half * (((1 << (n * width)) - 1) // mask)
    return tuple([((p >> shift) & mask) - half for shift in range(0, n * width, width)])
