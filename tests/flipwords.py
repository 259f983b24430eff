"""Test helper: fold a flip word over a triangulation."""

from bangles.surface import flip


def flip_word(t, word):
    """(final triangulation, the FlipResult of each step) for 1-based labels."""
    steps = []
    for k in word:
        steps.append(flip(t, k))
        t = steps[-1].triangulation
    return t, steps
