"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  These loops dominate every verification run;
`poly` calls them for every sum and product.

`group_sum` and `group_decode` hold a Laurent polynomial as one int per
group of terms that agree off variable i: the group's polynomial in v_i,
times v_i^-low, evaluated at v_i = 2^width (Kronecker substitution along
v_i).  `poly.lp_binomial_groups` picks the width and proves it exact.

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
from itertools import repeat
from typing import Iterable, List


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


def group_sum(side, i: int, table: List[int], width: int, low: int) -> dict:
    """One side's dict of `poly.lp_binomial_groups`, whose table holds
    (2^width + 1)^m at m."""
    cols, coeffs, powers = side
    # with one variable no column is left to zip, so every key is ()
    keys = zip(*cols[:i], *cols[i + 1 :]) if len(cols) > 1 else repeat(())
    groups: dict = {}
    get = groups.get
    for key, a, c, m in zip(keys, cols[i], coeffs, powers):
        groups[key] = get(key, 0) + (c * table[m] << width * (a - low))
    return groups if all(groups.values()) else {key: v for key, v in groups.items() if v}


def group_decode(groups: dict, i: int, width: int, low: int) -> dict:
    """The Laurent polynomial one dict of `group_sum` holds: a
    group's int read as balanced base-2^width digits, digit j the
    coefficient of v_i^(low + j), with that exponent put back into the key
    at entry i.  The digits are exact while every coefficient lies in
    (-2^(width-1), 2^(width-1))."""
    half, out = 1 << (width - 1), {}
    for key, v in groups.items():
        a = low
        while v:
            d = (v + half) % (2 * half) - half
            if d:
                out[key[:i] + (a,) + key[i:]] = d
            v, a = (v - d) >> width, a + 1
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
