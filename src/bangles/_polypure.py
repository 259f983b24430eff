"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  `poly` calls `add_merge` and `mul_accum` for
every sum and product, `group_sum` for each side of `lp_binomial_groups`,
and `group_decode` when such a side is printed.  The snake-graph reads and
the grouped key-lemma check form no sum or product, so a seed-0 benchmark
campaign calls `add_merge` and `mul_accum` 0 and 0 times on keylemma and
bracelets, and 46 and 22 times on arcs.

`group_sum` and `group_decode` hold a Laurent polynomial as one int per
group of terms that agree off variable i: the group's polynomial in v_i,
times v_i^-low, evaluated at v_i = 2^width (Kronecker substitution along
v_i).  `poly.lp_binomial_groups` picks the width and proves it exact.
"""

from __future__ import annotations

from itertools import repeat
from typing import List


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
