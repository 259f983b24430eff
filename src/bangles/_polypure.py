"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  These loops dominate every verification run;
`poly` calls them for every sum and product.

`binomial_sum` multiplies terms by powers of (1 + v_k) without products:
a term c * v^e times (1 + v_k)^m is c * C(m, j) at e + j*e_k, j = 0..m.
Each row C(m, .) is built once per call from ints, C(m, j+1) = C(m, j) *
(m-j) // (j+1), a division that is always exact.

The transfer scan keys each weight by one int instead of a tuple: exponent
i sits in bits [i*width, (i+1)*width) as a signed field (`_pack`), so
adding two exponent vectors is one int add.  The encoding is linear and
stays exact while every field of every sum lies in [-2^(width-1),
2^(width-1)); keeping it there is the caller's job.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


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


def binomial_sum(terms: Iterable[Tuple[tuple, int, int]], k: int) -> dict:
    """Sum of c * v^e * (1 + v_k)^m over (e, c, m) triples, zeros pruned."""
    rows: dict = {}
    out: dict = {}
    for e, c, m in terms:
        row = rows.get(m)
        if row is None:
            row = rows[m] = [1]
            for j in range(m):
                row.append(row[j] * (m - j) // (j + 1))
        head, ek, tail = e[:k], e[k], e[k + 1 :]
        for j, b in enumerate(row):
            x = head + (ek + j,) + tail
            s = out.get(x, 0) + c * b
            if s:
                out[x] = s
            elif x in out:
                del out[x]
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
