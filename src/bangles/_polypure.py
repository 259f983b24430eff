"""Pure-Python term kernels for Laurent polynomial dicts.

A polynomial is a dict mapping exponent tuples (ints, negatives allowed) to
nonzero int coefficients.  These two loops dominate every verification run;
`poly` calls them for every sum and product.
"""

from __future__ import annotations


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
