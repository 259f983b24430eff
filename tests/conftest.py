"""Hypothesis draws the same examples on every run: each test's examples
come from a seed derived from the test itself, and no example database
replays earlier failures into later runs."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
