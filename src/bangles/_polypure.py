"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  These loops dominate every verification run;
`poly` calls them for every sum and product.

`binomial_sum` multiplies terms by powers of (1 + v_k) without products:
a term c * v^e times (1 + v_k)^m is c * C(m, j) at e + j*e_k, j = 0..m.
Each row C(m, .) is built once per call from ints, C(m, j+1) = C(m, j) *
(m-j) // (j+1), a division that is always exact.

The transfer scan keys each weight by one int instead of a tuple: exponent
i sits in bits [i*width, (i+1)*width) as a signed field, so adding two
exponent vectors is one int add.  The encoding is linear and stays exact
while every field of every sum lies in [-2^(width-1), 2^(width-1));
keeping it there is the caller's job, and `_byte_width` gives the width
for a bound.  Widths are whole bytes (8, 16, 32 or 64 bits), so `_columns`
unpacks all keys in C, with `int.to_bytes` and one signed `memoryview`
cast, and never slices fields in Python.
"""

from __future__ import annotations

import sys
from typing import Iterable, List, Tuple


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
    """Sum of c * v^e * (1 + v_k)^m over (e, c, m) triples, zeros pruned.
    The j = 0 term of each is c * v^e itself, so its tuple is not rebuilt."""
    rows: dict = {}
    out: dict = {}
    for e, c, m in terms:
        row = rows.get(m)
        if row is None:
            row = rows[m] = [1]
            for j in range(m):
                row.append(row[j] * (m - j) // (j + 1))
        if m:
            head, ek, tail = e[:k], e[k], e[k + 1 :]
        for j, b in enumerate(row):
            x = head + (ek + j,) + tail if j else e
            s = out.get(x, 0) + c * b
            if s:
                out[x] = s
            elif x in out:
                del out[x]
    return out


def _bias(n: int, width: int) -> int:
    """2^(width-1) in each of n fields: adding it makes every in-range field
    non-negative, so no field borrows from the next."""
    return ((1 << (n * width)) - 1) // ((1 << width) - 1) << (width - 1)


# `memoryview.cast` formats of the signed fields, by width in bits
_TYPECODES = {8: "b", 16: "h", 32: "i", 64: "q"}


def _byte_width(bound: int) -> int:
    """Narrowest field width in `_TYPECODES` whose signed fields hold every
    value in [-bound, bound]."""
    for width in _TYPECODES:
        if bound < 1 << (width - 1):
            return width
    raise ValueError(f"exponents up to {bound} do not fit a 64-bit packed field")


def _columns(keys: Iterable[int], n: int, width: int) -> List[memoryview]:
    """The n columns of packed keys, n fields each, every field in
    [-2^(width-1), 2^(width-1)); width is a key of `_TYPECODES`.  Column i
    holds field i of each key, in the order of keys.

    Adding 2^(width-1) to every field makes each one non-negative, so no
    field borrows from the next; flipping each field's top bit back then
    leaves it in two's complement, which one signed cast of the bytes reads
    for all keys at once.  Each key is written in native byte order, so on
    a big-endian host its fields come last to first."""
    bias, size = _bias(n, width), n * width // 8
    raw = b"".join([((p + bias) ^ bias).to_bytes(size, sys.byteorder) for p in keys])
    flat = memoryview(raw).cast(_TYPECODES[width])
    cols = [flat[i::n] for i in range(n)]
    return cols if sys.byteorder == "little" else cols[::-1]
