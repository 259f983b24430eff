"""Exact surface cluster algebra combinatorics.

Seed and Y-seed mutation, triangulated surfaces with flips, snake and band
graph matching expansions (bangle functions, F-polynomials, g/h-vectors),
dual shear coordinates, and a verification harness tying the pieces
together on a shipped fixture corpus.
"""

from .curve import Curve, arc_curve, closed_curve, open_curve, parse_curve, transport_curve
from .harness import VerificationReport, report_text, run_corpus
from .mutation import initial_seed, matrix_mutate, seed_mutate, yseed_mutate
from .shear import dual_shear, elementary_laminate
from .snakegraph import (
    build_band_graph,
    build_snake_graph,
    msw_function,
    principal_msw,
    snake_F_poly,
    snake_g_vector,
    snake_h_vector,
)
from .surface import Triangulation, adjacency_matrix, flip, parse_triangulation

__version__ = "0.1.0"
__all__ = [
    "Curve",
    "Triangulation",
    "VerificationReport",
    "__version__",
    "adjacency_matrix",
    "arc_curve",
    "build_band_graph",
    "build_snake_graph",
    "closed_curve",
    "dual_shear",
    "elementary_laminate",
    "flip",
    "initial_seed",
    "matrix_mutate",
    "msw_function",
    "open_curve",
    "parse_curve",
    "parse_triangulation",
    "principal_msw",
    "report_text",
    "run_corpus",
    "seed_mutate",
    "snake_F_poly",
    "snake_g_vector",
    "snake_h_vector",
    "transport_curve",
    "yseed_mutate",
]
