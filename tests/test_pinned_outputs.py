"""Pinned outputs: the report text of three corpus runs, the reads of the
k-fold bracelets and the text of a few CLI runs hash to fixed sha256
digests.

A refactor or an optimisation must leave every one of these outputs
byte-identical.  A change that means to alter one says so and pins the new
digest."""

import hashlib

import pytest

from bangles.cli import main
from bangles.curve import closed_curve, parse_curve
from bangles.fixtures import CLOSED_CURVES, load_curve_text, load_surface
from bangles.harness import CorpusConfig, report_text, run_corpus
from bangles.poly import lp_format, var_names, xy_names
from bangles.snakegraph import build_band_graph

ARC_SURFACES = ("pentagon", "hexagon", "heptagon", "octagon", "annulus")
# most folds per closed fixture; the 12-fold annulus core has the widest
# packed fields of the bracelets
BRACELET_KMAX = {"annulus": 12, "annulus2": 8, "torus-boundary": 6}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "config, digest",
    [
        (CorpusConfig(), "43a2c9d665bd56c18a6b66cafff8478e3c70fc2052f7f6920f5f84ef480c0918"),
        (
            CorpusConfig(keylemma_depth=4, arc_surfaces=()),
            "14a3a901656c2e39b9cb7dc201e702a8a96946cafc756bc291dc14b7ab5cca48",
        ),
        (
            CorpusConfig(surfaces=ARC_SURFACES, keylemma_depth=1, arc_depth=6),
            "9dae6c1805476871301240db7ae21f1d7ecb844ede1a20eb3fd9aefe2f4b7c8e",
        ),
    ],
    ids=["default", "keylemma-depth-4", "arcs-depth-6"],
)
def test_report_text_is_pinned(config, digest):
    assert sha256(report_text(run_corpus(config))) == digest


def test_bracelet_reads_are_pinned():
    # F, g, h and both expansions of the k-fold closed fixtures, one line
    # per bracelet, in the fixture order of CLOSED_CURVES
    lines = []
    for name, curve in CLOSED_CURVES.items():
        t = load_surface(name)
        steps, n = parse_curve(t, load_curve_text(curve)).steps, t.n_arcs
        for k in range(1, BRACELET_KMAX[name] + 1):
            g = build_band_graph(t, closed_curve(steps * k))
            lines.append(
                f"F={lp_format(g.f_poly, var_names('y', n))} g={g.g_vector} h={g.h_vector} "
                f"msw={lp_format(g.msw, var_names('x', n))} "
                f"principal={lp_format(g.principal_msw, xy_names(n))}"
            )
    assert sha256("\n".join(lines)) == "0b046dbd8215b4178dbd7e282afa09a4165625e5176e9f5d1eb78d2425e1f196"


def test_cli_text_is_pinned(capsys):
    # every line `compute` prints (tiles, gluing, seam, F, g, h, MSW) for the
    # closed fixtures in both coefficient modes, then a mutate run through a
    # punctured surface
    runs = [
        ["compute", "--triangulation", name, "--curve", curve, "--coefficients", coefficients]
        for name, curve in sorted(CLOSED_CURVES.items())
        for coefficients in ("none", "principal")
    ]
    runs.append(["mutate", "--triangulation", "punctured-square", "--flips", "1 2 1"])
    for argv in runs:
        assert main(argv) == 0
    out = capsys.readouterr().out
    assert sha256(out) == "cdd467155152a1fea608392fc17baedd1ff0a5ca63adf6c40b0c9fbcabfd2ed6"
