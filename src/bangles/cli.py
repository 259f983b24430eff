"""Command line front end.

Triangulations and curves are given either as file paths or as bundled
fixture names (`annulus`, `annulus-core`, ...).  Flip words are 1-based
arc labels separated by whitespace, e.g. "1 3 2"; only verify-arc takes
an empty one.  Every verify command exits 0 exactly when all its checks
pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .curve import Curve, CurveError, TransportError, parse_curve, transport_curve
from .fixtures import fixture_text
from .harness import (
    report_text,
    run_corpus,
    verify_arc_bangle,
    verify_key_lemma_word,
    verify_shear_flip,
)
from .poly import lp_format, lp_one, var_names, xy_names
from .shear import ShearError, dual_shear
from .snakegraph import SnakeGraph, SnakeGraphError, curve_graph, msw_function, principal_msw
from .surface import (
    Triangulation,
    TriangulationError,
    UnsupportedFlipError,
    flip,
    format_triangulation,
    parse_triangulation,
)

USER_ERRORS = (
    TriangulationError,
    CurveError,
    TransportError,
    ShearError,
    SnakeGraphError,
    UnsupportedFlipError,
    OSError,
)


class CliError(ValueError):
    pass


def _read_ref(ref: str, suffix: str) -> str:
    p = Path(ref)
    if p.is_file():
        return p.read_text()
    try:
        return fixture_text(f"{ref}.{suffix}")
    except (FileNotFoundError, ModuleNotFoundError):
        raise CliError(f"{ref!r} is neither a file nor a bundled fixture") from None


def _load_triangulation(ref: str) -> Triangulation:
    return parse_triangulation(_read_ref(ref, "tri"))


def _load_curve(t: Triangulation, ref: str) -> Curve:
    return parse_curve(t, _read_ref(ref, "curve"))


def _parse_word(text: str, n_arcs: int) -> List[int]:
    try:
        word = [int(p) for p in text.split()]
    except ValueError:
        raise CliError(f"flip word must be whitespace-separated integers: {text!r}")
    if not word:
        raise CliError("flip word is empty")
    if any(k < 1 for k in word):
        raise CliError("flip word entries are 1-based arc labels")
    for k in word:  # checked before anything is flipped or printed
        if k > n_arcs:
            raise UnsupportedFlipError(k, "no such arc")
    return word


def _graph_lines(g: SnakeGraph) -> List[str]:
    kind = "band" if g.band else "snake"
    plural = "s" if g.d != 1 else ""
    lines = [f"graph: {kind}, {g.d} tile{plural}"]
    for i, tile in enumerate(g.tiles, 1):
        n_, e_, s_, w_ = tile.compass
        lines.append(
            f"tile {i}: diagonal {tile.diagonal} at {tile.pos}, "
            f"N={n_} E={e_} S={s_} W={w_}"
        )
    word = ""
    for prev, here in zip(g.tiles, g.tiles[1:]):
        dx = here.pos[0] - prev.pos[0]
        word += "R" if dx else "U"
    lines.append(f"gluing: {word or '(single tile)'}")
    if g.band:
        lines.append(f"seam: edge {g.omega} of tile {g.d} meets edge {g.iota} of tile 1")
    return lines


def cmd_compute(args) -> int:
    t = _load_triangulation(args.triangulation)
    c = _load_curve(t, args.curve)
    n = t.n_arcs
    g = curve_graph(t, c)
    if g is None:
        # an arc of the triangulation itself: empty graph, unit expansion
        print("graph: none (the curve is an arc of the triangulation)")
        f, gv, hv = lp_one(n), tuple(int(i == c.arc - 1) for i in range(n)), (0,) * n
    else:
        for line in _graph_lines(g):
            print(line)
        f, gv, hv = g.f_poly, g.g_vector, g.h_vector
    print(f"F = {lp_format(f, var_names('y', n))}")
    print(f"g = {gv}")
    print(f"h = {hv}")
    # g is held, so the expansion is read off this same graph
    if args.coefficients == "principal":
        msw, names = principal_msw(t, c), xy_names(n)
    else:
        msw, names = msw_function(t, c), var_names("x", n)
    print(f"MSW = {lp_format(msw, names)}")
    return 0


def cmd_mutate(args) -> int:
    t = _load_triangulation(args.triangulation)
    word = _parse_word(args.flips, t.n_arcs)
    for k in word:
        t = flip(t, k).triangulation
        print(f"flip {k}: B = {t.adjacency}")
    print(format_triangulation(t), end="")
    return 0


def _emit(reports) -> int:
    for r in reports:
        print(r.line())
    return 0 if all(r.passed for r in reports) else 1


def cmd_verify_keylemma(args) -> int:
    t = _load_triangulation(args.triangulation)
    c = _load_curve(t, args.curve)
    return _emit(verify_key_lemma_word(t, c, _parse_word(args.flips, t.n_arcs)))


def cmd_verify_shear(args) -> int:
    t = _load_triangulation(args.triangulation)
    c = _load_curve(t, args.curve)
    word = _parse_word(args.flips, t.n_arcs)
    reports = []
    for i, k in enumerate(word):
        print(f"step {i}: Sh = {dual_shear(t, c)}")
        res = flip(t, k)
        if res.quad is None:
            raise TransportError(f"flip at {k} has no transportable quadrilateral")
        moved = transport_curve(c, res.quad)
        reports.append(verify_shear_flip(t, k, c, res.triangulation, moved, f"step {i + 1}: flip={k}"))
        t, c = res.triangulation, moved
    print(f"step {len(word)}: Sh = {dual_shear(t, c)}")
    return _emit(reports)


def cmd_verify_arc(args) -> int:
    t = _load_triangulation(args.triangulation)
    c = _load_curve(t, args.curve)
    if c.arc is None:
        raise CliError("verify-arc wants a label-only curve file (an `arc j` line)")
    word = _parse_word(args.flips, t.n_arcs) if args.flips.strip() else []
    return _emit([verify_arc_bangle(t, c.arc, word)])


def cmd_run_corpus(args) -> int:
    reports = run_corpus()
    print(report_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _add_common(sub, *, curve=True, flips=False, flips_required=False):
    sub.add_argument("--triangulation", required=True, help="fixture name or file path")
    if curve:
        sub.add_argument("--curve", required=True, help="fixture name or file path")
    if flips:
        sub.add_argument(
            "--flips",
            required=flips_required,
            default="",
            help='1-based flip word, e.g. "1 3 2"',
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bangles", description="exact surface cluster combinatorics"
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("compute", help="expand one curve over a triangulation")
    _add_common(sub)
    sub.add_argument("--coefficients", choices=["none", "principal"], default="none")
    sub.set_defaults(func=cmd_compute)

    sub = subs.add_parser("mutate", help="apply a flip word to a triangulation")
    _add_common(sub, curve=False, flips=True, flips_required=True)
    sub.set_defaults(func=cmd_mutate)

    sub = subs.add_parser(
        "verify-keylemma", help="check the flip identities along a word"
    )
    _add_common(sub, flips=True, flips_required=True)
    sub.set_defaults(func=cmd_verify_keylemma)

    sub = subs.add_parser(
        "verify-shear", help="print shear vectors along a word and check the flips"
    )
    _add_common(sub, flips=True, flips_required=True)
    sub.set_defaults(func=cmd_verify_shear)

    sub = subs.add_parser(
        "verify-arc", help="compare an arc expansion with the mutation engine"
    )
    _add_common(sub, flips=True)
    sub.set_defaults(func=cmd_verify_arc)

    sub = subs.add_parser("run-corpus", help="run every bundled verification case")
    sub.set_defaults(func=cmd_run_corpus)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *USER_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
