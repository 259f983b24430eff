"""Test helper: pack an exponent vector into one int, as the transfer scan
keys its weights."""


def pack(vec, width):
    """Entry i in bits [i*width, (i+1)*width) as a signed field.  Linear:
    packing a sum of vectors gives the sum of their packed ints."""
    return sum(x << (i * width) for i, x in enumerate(vec))
