"""Dual shear coordinates: Z/S counts, elementary laminates, flip law."""

import pytest

from bangles import shear
from bangles.curve import parse_curve, transport_curve
from bangles.fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from bangles.mutation import matrix_mutate
from bangles.shear import (
    ShearError,
    dual_shear,
    elementary_laminate,
    shear_matrix,
)
from bangles.snakegraph import build_band_graph, snake_g_vector
from bangles.surface import adjacency_matrix, flip

from oracles import gamma_transform

ANNULUS = load_surface("annulus")
CORE = parse_curve(ANNULUS, load_curve_text("annulus-core"))


def flip_sides(t, k, lam):
    """Both sides of the flip law at k: [-B; Sh] of lam mutated at k, and
    the matrix rebuilt on the flipped triangulation with lam carried across."""
    res = flip(t, k)
    moved = transport_curve(lam, res.quad)
    return matrix_mutate(shear_matrix(t, lam), k - 1), shear_matrix(res.triangulation, moved)


def closed_fixtures():
    for surface, curve in CLOSED_CURVES.items():
        t = load_surface(surface)
        yield surface, t, parse_curve(t, load_curve_text(curve))


def test_annulus_core_shear():
    assert dual_shear(ANNULUS, CORE) == (1, -1)


def test_shear_equals_snake_g_vector():
    for name, t, c in closed_fixtures():
        assert dual_shear(t, c) == snake_g_vector(build_band_graph(t, c)), name


def test_flip_identity_closed_fixtures():
    for name, t, c in closed_fixtures():
        for k in range(1, t.n_arcs + 1):
            lhs, rhs = flip_sides(t, k, c)
            assert lhs == rhs, (name, k)


def test_flip_identity_matches_gamma_transform():
    for name, t, c in closed_fixtures():
        b = adjacency_matrix(t)
        sh = dual_shear(t, c)
        for k in range(1, t.n_arcs + 1):
            lhs, rhs = flip_sides(t, k, c)
            assert lhs == rhs
            assert rhs[-1] == gamma_transform(sh, b, k - 1)


def test_elementary_laminates_are_unit_vectors():
    for name in SURFACES:
        t = load_surface(name)
        n = t.n_arcs
        for j in range(1, n + 1):
            lam = elementary_laminate(t, j)
            unit = tuple(1 if i == j - 1 else 0 for i in range(n))
            assert dual_shear(t, lam) == unit, (name, j)


def test_spiral_truncation_stabilizes(monkeypatch):
    t = load_surface("punctured-square")
    assert shear.SPIRAL_TURNS == 2
    lams = [elementary_laminate(t, j) for j in range(1, 5)]
    monkeypatch.setattr(shear, "SPIRAL_TURNS", 3)
    for j, lam2 in enumerate(lams, 1):
        lam3 = elementary_laminate(t, j)
        assert len(lam3.steps) > len(lam2.steps)
        assert dual_shear(t, lam2) == dual_shear(t, lam3)


def test_flip_identity_rebuilt_arc_laminates():
    for name in SURFACES:
        t = load_surface(name)
        for k in range(1, t.n_arcs + 1):
            res = flip(t, k)
            if res.quad is None:
                continue
            for j in range(1, t.n_arcs + 1):
                if j == k:
                    continue
                lam = elementary_laminate(t, j)
                lam2 = elementary_laminate(res.triangulation, j)
                lhs = matrix_mutate(shear_matrix(t, lam), k - 1)
                assert lhs == shear_matrix(res.triangulation, lam2), (name, k, j)


def test_shear_matrix_shape():
    m = shear_matrix(ANNULUS, CORE)
    assert len(m) == 3 and all(len(r) == 2 for r in m)
    assert m[0] == (0, 2) and m[1] == (-2, 0) and m[2] == (1, -1)


def test_zero_laminate_row_stays_zero():
    # an arc of T itself has no crossings, so its shear row is zero and the
    # flip law reduces to matrix mutation of -B
    from bangles.curve import arc_curve

    t = load_surface("pentagon")
    lam = arc_curve(2)
    assert dual_shear(t, lam) == (0, 0)
    lhs, rhs = flip_sides(t, 1, lam)
    assert lhs[-1] == rhs[-1] == (0, 0)


def test_laminate_rejects_bad_arc():
    with pytest.raises(ShearError):
        elementary_laminate(ANNULUS, 3)
