"""The three benchmark workloads, each as set-up, campaign, checks and fingerprint.

`setup(seed)` makes the inputs (it runs before the campaign clock starts),
`campaign(inputs, api)` makes only the program calls a user waits for, and
`check(inputs, outputs, checks)` runs the benchmark's own oracles afterwards,
off the clock, and counts every check in `checks`.  `fingerprint(outputs)` is the text that must be byte-identical
between a traced and an untraced run.  `api` maps a public function name to
the function to call, so a traced run can put a root span around each call.

Why each workload exists and what its seed means is written down in README.md.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from bangles.curve import TransportError, closed_curve, parse_curve, transport_curve
from bangles.fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from bangles.harness import CorpusConfig, VerificationReport, report_text, run_corpus
from bangles.poly import lp_const, lp_format, lp_mul, lp_sub, var_names, xy_names
from bangles.shear import dual_shear
from bangles.snakegraph import (
    build_band_graph,
    msw_function,
    principal_msw,
    snake_F_poly,
    snake_g_vector,
    snake_h_vector,
)
from bangles.surface import flip

# Public functions the campaigns call; a traced run wraps each in a root span.
API: Dict[str, Callable] = {
    "run_corpus": run_corpus,
    "report_text": report_text,
    "build_band_graph": build_band_graph,
    "snake_F_poly": snake_F_poly,
    "snake_g_vector": snake_g_vector,
    "snake_h_vector": snake_h_vector,
    "msw_function": msw_function,
    "principal_msw": principal_msw,
}

ARC_SURFACES = ("pentagon", "hexagon", "heptagon", "octagon", "annulus")


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _shuffled(names: Sequence[str], seed: int) -> Tuple[str, ...]:
    order = list(names)
    random.Random(seed).shuffle(order)
    return tuple(order)


# ---------------------------------------------------------------------------
# keylemma and arcs: corpus sweeps through run_corpus, as `bangles run-corpus`


def keylemma_setup(seed: int) -> CorpusConfig:
    return CorpusConfig(surfaces=_shuffled(SURFACES, seed), keylemma_depth=4, arc_surfaces=())


def arcs_setup(seed: int) -> CorpusConfig:
    return CorpusConfig(surfaces=_shuffled(ARC_SURFACES, seed), keylemma_depth=1, arc_depth=6)


def corpus_campaign(config: CorpusConfig, api: Dict[str, Callable]):
    reports = api["run_corpus"](config)
    return reports, api["report_text"](reports)


def _surface_of(r: VerificationReport) -> str:
    return r.case.split(":", 1)[0]


def _check_reports(reports: Sequence[VerificationReport], text: str, checks: Checks) -> None:
    for r in reports:
        checks.add(r.passed)
    failed = sum(not r.passed for r in reports)
    checks.add(text.splitlines()[-1] == f"{len(reports)} checks, {failed} failed")


def keylemma_check(config: CorpusConfig, outputs, checks: Checks) -> None:
    reports, text = outputs
    _check_reports(reports, text, checks)
    keylemma = {_surface_of(r) for r in reports if r.identity.startswith("keylemma-")}
    for name in CLOSED_CURVES:
        checks.add(name in keylemma)


def arcs_check(config: CorpusConfig, outputs, checks: Checks) -> None:
    reports, text = outputs
    _check_reports(reports, text, checks)
    arc = [r for r in reports if r.identity == "arc-vs-cluster"]
    checks.add(len(arc) >= 50)
    for name in ARC_SURFACES:
        checks.add(any(_surface_of(r) == name for r in arc))


def corpus_fingerprint(outputs) -> str:
    return outputs[1]


def corpus_arc_dup_frac(outputs) -> float:
    """Share of arc checks whose diagonal was already checked on that surface.

    A diagonal is named by its Laurent expansion in the initial cluster (the
    report's lhs), which on these unpunctured surfaces determines the arc.
    """
    seen = set()
    arcs = dups = 0
    for r in outputs[0]:
        if r.identity != "arc-vs-cluster":
            continue
        key = (_surface_of(r), r.lhs)
        arcs += 1
        dups += key in seen
        seen.add(key)
    return dups / arcs if arcs else 0.0


# ---------------------------------------------------------------------------
# bracelets: k-fold closed curves through the `bangles compute` path

BRACELET_KMAX = {"annulus": 12, "annulus2": 8, "torus-boundary": 6}
FLIP_WORD_LENGTH = 3


def _move(rng: random.Random, t, c):
    """Flip t along a seeded word and transport c with it.

    Only words that keep the curve's crossing count and the term count of
    its F-polynomial are taken, so every seed asks for bracelets of the same
    size: the seed changes the triangulation the expansions are read in, not
    how much work they are.
    """
    size = (c.d, len(snake_F_poly(build_band_graph(t, c))))
    for _ in range(10_000):
        cur, moved, last = t, c, None
        try:
            for _ in range(FLIP_WORD_LENGTH):
                k = rng.choice([a for a in range(1, t.n_arcs + 1) if a != last])
                res = flip(cur, k)
                if res.quad is None or not res.quad.transportable:
                    raise TransportError(f"flip at {k} cannot carry curves")
                moved, cur, last = transport_curve(moved, res.quad), res.triangulation, k
        except ValueError:  # TransportError or an unsupported flip: draw again
            continue
        if (moved.d, len(snake_F_poly(build_band_graph(cur, moved)))) == size:
            return cur, moved
    raise RuntimeError("no size-preserving flip word found")


def bracelets_setup(seed: int) -> List[tuple]:
    """(surface name, k, triangulation, k-fold curve) for every bracelet."""
    rng = random.Random(seed)
    out = []
    for name, curve_name in CLOSED_CURVES.items():
        t = load_surface(name)
        c = parse_curve(t, load_curve_text(curve_name))
        if seed:
            t, c = _move(rng, t, c)
        out.extend((name, k, t, closed_curve(c.steps * k)) for k in range(1, BRACELET_KMAX[name] + 1))
    return out


def bracelets_campaign(inputs: List[tuple], api: Dict[str, Callable]):
    out = []
    for _name, _k, t, c in inputs:
        try:
            g = api["build_band_graph"](t, c)
            out.append(
                (
                    api["snake_F_poly"](g),
                    api["snake_g_vector"](g),
                    api["snake_h_vector"](g),
                    api["msw_function"](t, c),
                    api["principal_msw"](t, c),
                )
            )
        except Exception as exc:  # noqa: BLE001 - one bad curve must not stop the rest
            out.append(exc)
    return out


def bracelets_check(inputs: List[tuple], outputs, checks: Checks) -> None:
    """msw(k-fold) = T_k(Bang_1), g = dual shear, h = min(0, g), F positive with constant 1.

    T_0 = 2, T_1 = x, T_k = x*T_{k-1} - T_{k-2} (so T_2 = x^2 - 2), with x the
    expansion of the 1-fold curve on the same triangulation.  Four checks per
    curve; a curve whose computation or oracle raised fails all four.
    """
    cheb: Dict[int, dict] = {}
    for (_name, k, t, c), result in zip(inputs, outputs):
        if k == 1:
            cheb = {}
        oks = [False] * 4
        if not isinstance(result, Exception):
            try:
                F, g, h, msw, _principal = result
                n = t.n_arcs
                if k == 1:
                    cheb = {0: lp_const(n, 2), 1: msw}
                elif k - 1 in cheb and k - 2 in cheb:
                    cheb[k] = lp_sub(lp_mul(cheb[1], cheb[k - 1]), cheb[k - 2])
                oks = [
                    msw == cheb.get(k),
                    g == dual_shear(t, c),
                    h == tuple(min(0, x) for x in g),
                    F.get((0,) * n) == 1 and all(v > 0 for v in F.values()),
                ]
            except Exception:  # noqa: BLE001 - an oracle that raises fails the curve
                traceback.print_exc()
        for ok in oks:
            checks.add(ok)


def bracelets_fingerprint(outputs) -> str:
    lines = []
    for result in outputs:
        if isinstance(result, Exception):
            lines.append(f"error {type(result).__name__}: {result}")
            continue
        F, g, h, msw, principal = result
        n = len(g)
        lines.append(
            f"F={lp_format(F, var_names('y', n))} g={g} h={h} "
            f"msw={lp_format(msw, var_names('x', n))} principal={lp_format(principal, xy_names(n))}"
        )
    return "\n".join(lines)


def bracelets_arc_dup_frac(outputs) -> float:
    return 0.0  # no arc checks


@dataclass(frozen=True)
class Workload:
    setup: Callable
    campaign: Callable
    check: Callable
    fingerprint: Callable
    arc_dup_frac: Callable


WORKLOADS = {
    "keylemma": Workload(keylemma_setup, corpus_campaign, keylemma_check, corpus_fingerprint, corpus_arc_dup_frac),
    "arcs": Workload(arcs_setup, corpus_campaign, arcs_check, corpus_fingerprint, corpus_arc_dup_frac),
    "bracelets": Workload(
        bracelets_setup, bracelets_campaign, bracelets_check, bracelets_fingerprint, bracelets_arc_dup_frac
    ),
}
