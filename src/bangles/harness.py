"""Verification campaigns tying mutation, snake graphs, and shear together.

Each check compares two independently computed sides of one identity and
returns VerificationReports.  Both flip sweeps use one breadth-first walker
over exchange-graph states: a closed curve on a triangulation for the key
lemma, a cluster of arcs pulled back to the start for the arc checks.  It
yields each state once, under its shortest flip word, so a sweep of depth
d covers exactly the checks reachable by words of length <= d, and hands
out every flip it took, with the child state and its key.  The key-lemma
sweep checks each such flip edge, builds each state's band graph once and
keeps only its (F, g, h), until the sweep returns.  Its F identity clears
the (1+y_k) denominators of the one-step Y-seed and compares two Laurent
polynomials, each one binomial sum along y_k (`lp_binomial_sum`); like
every check it is exact, and a passing keylemma-F report carries no sides.
The arc sweep looks a flip up before taking it, by the n-1 arcs it keeps,
and takes only flips that reach a new cluster.  It keys seeds by the flip
word of their cluster, and builds one only for a cluster that holds an arc
not yet checked, mutating along the word from its longest built prefix;
each exchange is made at most once.  The shear sweep stacks -B over the
shear rows of the closed fixture and of every elementary laminate, and
mutates that one matrix once per flip the walker would take.
A check that raises becomes failing reports under its own identities and
case (lhs: the exception type, rhs: its message) and the sweep goes on.
A flip or a transport that raises anything but TransportError ends the
walk, as does an exchange that raises, and run_corpus records one
corpus-load failure for that surface next to the reports made before it.
Reports are deterministic: identical inputs give byte-identical output.
Curves, reports and configs are named tuples, so each also equals a
plain tuple of its fields.  Each sweep dict and set (`known`, `seeds`,
`held`, `checked`) holds keys of one shape only, so no key that
holds a value type can meet a plain tuple equal to it.
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from .curve import Curve, TransportError, arc_curve, normalize_curve, parse_curve, transport_curve
from .fixtures import CLOSED_CURVES, SURFACES, load_curve_text, load_surface
from .mutation import Seed, gvec_mutate_with_h, initial_seed, matrix_mutate, seed_mutate, yseed_mutate
from .poly import lp_binomial_sum, lp_format, var_names
from .shear import dual_shear, elementary_laminate, shear_matrix
from .snakegraph import build_band_graph, msw_function
from .surface import FlipResult, Triangulation, canonical_form, flip

IDENTITIES = (
    "keylemma-F",
    "keylemma-g",
    "keylemma-h",
    "shear-flip",
    "g-equals-shear",
    "arc-vs-cluster",
)


class VerificationReport(NamedTuple):
    case: str
    identity: str
    passed: bool
    lhs: str = ""
    rhs: str = ""

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"[{status}] {self.identity} :: {self.case}"
        if not self.passed:
            out += f"\n  lhs: {self.lhs}\n  rhs: {self.rhs}"
        return out


def _error_report(case: str, identity: str, exc: Exception) -> VerificationReport:
    return VerificationReport(case, identity, False, type(exc).__name__, str(exc))


def require_transportable(t: Triangulation, k: int) -> FlipResult:
    """flip(t, k), or the one TransportError for a flip curves cannot follow."""
    res = flip(t, k)
    if res.quad is None:
        raise TransportError(f"flip at {k} has no transportable quadrilateral")
    return res


def _band_reads(t: Triangulation, c: Curve) -> tuple:
    """(F, g, h) of a closed curve; its band graph is dropped on return."""
    g = build_band_graph(t, c)
    return g.f_poly, g.g_vector, g.h_vector


def _key_lemma_reports(
    t: Triangulation, k: int, before: tuple, after: tuple, case: str
) -> List[VerificationReport]:
    """Compare the (F, g, h) of a band graph before and after the flip at k."""
    (f1, gv1, hv1), (f2, gv2, hv2) = before, after
    n = t.n_arcs
    b = t.adjacency
    hk, hk2 = hv1[k - 1], hv2[k - 1]

    # F identity  F(y) * (1+y'_k)^(-h'_k)  ==  F'(y') * (1+y_k)^(-h_k),
    # y the initial Y-seed and y'_j = y^(a_j) * (1+y_k)^(p_j).  As
    # 1+y'_k = y_k^-1 * (1+y_k), a term c * y^e of F gives
    # c * y^(e + h'_k e_k) * (1+y_k)^(-h'_k) on the left, and a term
    # c * y^e of F' gives c * y^(sum e_j a_j) * (1+y_k)^(sum e_j p_j - h_k)
    # on the right.  Times (1+y_k)^N, N >= 0 the least that leaves no
    # negative power, each side is one binomial sum along y_k, a Laurent
    # polynomial; the two are equal exactly when the sides are.  Off entry
    # k each a_j is the j-th unit vector, so sum e_j a_j is e with its k-th
    # entry replaced by e's dot product with column k of the a_j.
    i = k - 1
    yp = yseed_mutate(b, i)
    col, ps = [a[i] for a, _ in yp], [p for _, p in yp]
    # per term of F'(y'): y-monomial, coefficient, power of (1+y_k)
    moved = [
        (e[:i] + (sum(map(mul, e, col)),) + e[i + 1 :], c, sum(map(mul, e, ps)) - hk)
        for e, c in f2.items()
    ]
    big_n = max([0, hk2] + [-q for _, _, q in moved])
    shifted = ((e[:i] + (e[i] + hk2,) + e[i + 1 :], c, big_n - hk2) for e, c in f1.items())
    lhs = lp_binomial_sum(shifted, i)
    rhs = lp_binomial_sum(((e, c, big_n + q) for e, c, q in moved), i)
    # only a failing line prints its sides, so only a failure formats them
    ok_f = lhs == rhs
    sides = () if ok_f else tuple(lp_format(side, var_names("y", n)) for side in (lhs, rhs))
    reports = [VerificationReport(case, "keylemma-F", ok_f, *sides)]

    # g rules: g_k = h_k - h'_k and the full mutated vector
    rule = gvec_mutate_with_h(gv1, hk, b, k - 1)
    ok_g = gv1[k - 1] == hk - hk2 and gv2 == rule
    sides = () if ok_g else (f"g={gv1} g'={gv2}", f"rule={rule} h_k-h'_k={hk - hk2}")
    reports.append(VerificationReport(case, "keylemma-g", ok_g, *sides))

    floors = (tuple(min(0, x) for x in gv1), tuple(min(0, x) for x in gv2))
    ok_h = (hv1, hv2) == floors
    sides = () if ok_h else (f"h={hv1} h'={hv2}", f"min(0,g)={floors[0]} min(0,g')={floors[1]}")
    reports.append(VerificationReport(case, "keylemma-h", ok_h, *sides))
    return reports


def verify_key_lemma_word(
    t: Triangulation, c: Curve, word: Sequence[int]
) -> List[VerificationReport]:
    """The key lemma at each flip of a word, case "step i: flip=k": the F
    identity under Y-seed mutation, the g-vector rules, and h = min(0, g).
    Each step's moved curve and its (F, g, h) carry over to the next step."""
    reports: List[VerificationReport] = []
    before = _band_reads(t, c)
    for i, k in enumerate(word, 1):
        res = require_transportable(t, k)
        c = transport_curve(c, res.quad)
        after = _band_reads(res.triangulation, c)
        reports.extend(_key_lemma_reports(t, k, before, after, f"step {i}: flip={k}"))
        t, before = res.triangulation, after
    return reports


def _pull_back_arc(arc: int, quads: Sequence) -> Curve:
    c = arc_curve(arc)
    for q in reversed(quads):
        c = transport_curve(c, q, forward=False)
    return c


def _arc_report(
    t: Triangulation, c: Curve, arc: int, seed: Seed, case: str
) -> VerificationReport:
    msw = msw_function(t, c)
    want = seed.x[arc - 1]
    xnames = var_names("x", t.n_arcs)
    return VerificationReport(
        case, "arc-vs-cluster", msw == want, lp_format(msw, xnames), lp_format(want, xnames)
    )


def verify_arc_bangle(t: Triangulation, arc: int, word: Sequence[int]) -> VerificationReport:
    """Matching-sum expansion of an arc against the mutation engine, case
    "arc=j word=[...]".

    The flip word (1-based) leads from t to the triangulation containing
    the arc; the arc is pulled back step by step while the seed walks
    forward.
    """
    cur, quads = t, []
    seed = initial_seed(t.adjacency)
    for k in word:
        res = require_transportable(cur, k)
        quads.append(res.quad)
        cur = res.triangulation
        seed = seed_mutate(seed, k - 1)
    return _arc_report(t, _pull_back_arc(arc, quads), arc, seed, f"arc={arc} word={list(word)}")


def verify_shear_flip(
    t: Triangulation, k: int, lam: Curve, flipped: Triangulation, moved: Curve, case: str
) -> VerificationReport:
    """The shear flip law at k: [-B; Sh] of lam on t, mutated at k, against
    the matrix rebuilt on the flipped triangulation from `moved`, lam
    carried across the flip."""
    lhs = matrix_mutate(shear_matrix(t, lam), k - 1)
    rhs = shear_matrix(flipped, moved)
    return VerificationReport(case, "shear-flip", lhs == rhs, repr(lhs), repr(rhs))


def verify_g_equals_shear(t: Triangulation, c: Curve, case: str) -> VerificationReport:
    sh = dual_shear(t, c)
    gv = build_band_graph(t, c).g_vector
    return VerificationReport(case, "g-equals-shear", sh == gv, repr(sh), repr(gv))


# ---------------------------------------------------------------------------
# corpus sweeps


class CorpusConfig(NamedTuple):
    surfaces: Tuple[str, ...] = SURFACES
    keylemma_depth: int = 1  # flip word length for closed-curve sweeps
    arc_depth: int = 2  # flip word length for arc bangle sweeps
    arc_surfaces: Tuple[str, ...] = (
        "pentagon",
        "hexagon",
        "heptagon",
        "octagon",
        "annulus",
    )


def _closed_fixture(t: Triangulation, name: str) -> Optional[Curve]:
    """The closed fixture curve of surface `name`, whose loaded
    triangulation is t, or None if the surface has none."""
    if name not in CLOSED_CURVES:
        return None
    return parse_curve(t, load_curve_text(CLOSED_CURVES[name]))


def _state_key(cur: Triangulation, curve: Curve) -> tuple:
    # Flip words revisit states with triangles stored in another order,
    # and closed-curve steps index triangles by storage position.  Push
    # canonical_form's triangle order through the steps so equal keys
    # really mean equal checks.
    form, order = canonical_form(cur)
    new_index = {old: new for new, old in enumerate(order)}
    steps = tuple((new_index[tri], a) for tri, a in curve.steps)
    return form, normalize_curve(curve._replace(steps=steps))


def _walk(
    t0: Triangulation, start, depth: int, advance: Callable, key: Callable, skip: Optional[Callable] = None
) -> Iterator[tuple]:
    """Yield (triangulation, state, key, flip word, edges) once per state
    reachable from (t0, start) by at most `depth` transportable flips, under
    its shortest flip word.  A flip is transportable when `flip` hands out
    its quad; `require_transportable` refuses the others.  advance(state,
    quad) carries a state across a flip; a TransportError from either skips
    the flip.  States with equal key(t, state) are one.  edges lists (k,
    child triangulation, child state, child key) for every transportable
    flip out of a state above `depth`, and is empty at `depth`.  The state
    yielded under word w + [k] is the one the flip at k carries the state
    yielded under w to, so a caller can key per-state data (the arc sweep's
    seeds) by flip word.
    A caller that knows, before flipping, that the flip at k of a state
    reaches a seen key passes skip(state, k), and that flip is neither
    taken nor listed.  Any other error of a flip or an advance ends the walk.
    """
    k0 = key(t0, start)
    seen = {k0}
    frontier = [(t0, start, k0, [])]
    while frontier:
        nxt = []
        for cur, state, sk, word in frontier:
            edges = []
            ks = range(1, cur.n_arcs + 1) if len(word) < depth else ()
            for k in ks if skip is None else [k for k in ks if not skip(state, k)]:
                try:
                    res = require_transportable(cur, k)
                    child = advance(state, res.quad)
                except TransportError:
                    continue
                ck = key(res.triangulation, child)
                edges.append((k, res.triangulation, child, ck))
                if ck not in seen:
                    seen.add(ck)
                    nxt.append((res.triangulation, child, ck, word + [k]))
            yield cur, state, sk, word, edges
        frontier = nxt


def _keylemma_sweep(name: str, depth: int, out: List[VerificationReport]) -> None:
    if name not in CLOSED_CURVES:
        return
    t0 = load_surface(name)
    c0 = _closed_fixture(t0, name)
    label = CLOSED_CURVES[name]
    # (F, g, h) by the walker's state key, for this sweep only.  A read that
    # raises stores nothing, so each check that needs it fails under its
    # own case.
    known: Dict[tuple, tuple] = {}

    def reads(t: Triangulation, c: Curve, key: tuple) -> tuple:
        if key not in known:
            known[key] = _band_reads(t, c)
        return known[key]

    for cur, curve, key, word, edges in _walk(t0, c0, depth, transport_curve, _state_key):
        for k, t2, c2, key2 in edges:
            case = f"{name}:{label}:word={word + [k]}"
            try:
                before, after = reads(cur, curve, key), reads(t2, c2, key2)
                out.extend(_key_lemma_reports(cur, k, before, after, case))
            except Exception as exc:
                # one call computes keylemma-F, -g and -h together
                out.extend(_error_report(case, i, exc) for i in IDENTITIES[:3])


def _shear_sweep(name: str, out: List[VerificationReport]) -> None:
    t = load_surface(name)
    n = t.n_arcs
    c = _closed_fixture(t, name)
    # Row n + i of the stacked [-B; Sh_1; ...] is the shear row of the i-th
    # curve: the closed fixture, if any, carried across each flip, then the
    # elementary laminate of each arc j, rebuilt on the flipped
    # triangulation.  One mutation per flip checks every row but arc k's.
    rows = [(f"{name}:laminate={j}", j, elementary_laminate(t, j)) for j in range(1, n + 1)]
    if c is not None:
        case = f"{name}:{CLOSED_CURVES[name]}"
        rows.insert(0, (case, None, c))
        try:
            out.append(verify_g_equals_shear(t, c, case))
        except Exception as exc:
            out.append(_error_report(case, "g-equals-shear", exc))
    stacked = shear_matrix(t, *(lam for _, _, lam in rows))
    for k in range(1, n + 1):
        try:  # the flips the walker takes, with the fixture carried across
            res = require_transportable(t, k)
            moved = transport_curve(c, res.quad) if c else None
        except TransportError:
            continue
        t2, mutated = res.triangulation, None
        for row, (prefix, j, _) in enumerate(rows, n):
            if j == k:
                continue
            case = f"{prefix}:flip={k}"
            try:
                mutated = mutated or matrix_mutate(stacked, k - 1)
                lhs = mutated[:n] + mutated[row : row + 1]
                rhs = shear_matrix(t2, elementary_laminate(t2, j) if j else moved)
                out.append(VerificationReport(case, "shear-flip", lhs == rhs, repr(lhs), repr(rhs)))
            except Exception as exc:
                out.append(_error_report(case, "shear-flip", exc))


def _flip_cluster(state: tuple, quad) -> tuple:
    # only the flipped arc changes, so only it is pulled back to t0
    quads, backs = state
    quads, k = quads + (quad,), quad.arc
    return quads, backs[: k - 1] + (normalize_curve(_pull_back_arc(k, quads)),) + backs[k:]


def _arc_sweep(name: str, depth: int, out: List[VerificationReport]) -> None:
    # A state is a cluster: the flips that reach it and its arcs pulled back
    # to t0.  Triangulations that encode identically can still carry
    # distinct arcs (twists), so clusters are keyed by the pulled-back arcs,
    # and each arc is checked once, in the first cluster holding it.
    t0 = load_surface(name)
    n = t0.n_arcs
    start = ((), tuple(normalize_curve(arc_curve(j)) for j in range(1, n + 1)))
    checked: Set[Curve] = set()
    cluster = lambda t, state: frozenset(state[1])
    # Any n-1 arcs of a triangulation lie in exactly two (Fomin-Shapiro-
    # Thurston), so once two reached clusters hold a cluster less its k-th
    # arc, the flip at k reaches a seen key and the walker skips it.
    held: Counter = Counter()  # reached clusters per (n-1)-subset of arcs
    reach = lambda key: held.update(key - {arc} for arc in key)
    seen_flip = lambda state, k: held[frozenset(state[1][: k - 1] + state[1][k:])] > 1
    # Seeds are keyed by the flip word that reaches their cluster: the seed
    # of word w + (k,) is w's seed mutated at k, so its labels match the
    # cluster's arcs.  Seeds are built only for clusters holding an
    # unchecked arc: from the longest built prefix, keeping each seed built
    # on the way.
    seeds: Dict[tuple, Seed] = {(): initial_seed(t0.adjacency)}
    reach(cluster(t0, start))

    def seed_of(word: tuple) -> Seed:
        # recursion depth is at most the sweep's depth
        if word not in seeds:
            seeds[word] = seed_mutate(seed_of(word[:-1]), word[-1] - 1)
        return seeds[word]

    for _, (_, backs), _, word, edges in _walk(t0, start, depth, _flip_cluster, cluster, seen_flip):
        for _, _, _, child in edges:  # each one reaches a new cluster
            reach(child)
        if checked.issuperset(backs):
            continue
        seed = seed_of(tuple(word))
        for j, back in enumerate(backs, 1):
            if back in checked:
                continue
            checked.add(back)
            case = f"{name}:arc={j}:word={word}"
            try:
                out.append(_arc_report(t0, back, j, seed, case))
            except Exception as exc:
                out.append(_error_report(case, "arc-vs-cluster", exc))


def run_corpus(config: Optional[CorpusConfig] = None) -> List[VerificationReport]:
    """Every identity check the corpus supports, deterministically ordered.

    A fixture that fails to load becomes a failing corpus-load entry
    instead of aborting the other surfaces.
    """
    config = config or CorpusConfig()
    out: List[VerificationReport] = []

    def guarded(sweep, name, *args):
        try:
            sweep(name, *args, out)
        except Exception as exc:
            out.append(_error_report(name, "corpus-load", exc))

    for name in config.surfaces:
        guarded(_keylemma_sweep, name, config.keylemma_depth)
        guarded(_shear_sweep, name)
    for name in config.arc_surfaces:
        if name in config.surfaces:
            guarded(_arc_sweep, name, config.arc_depth)
    out.sort(key=lambda r: (r.case, r.identity))
    return out


def report_text(reports: Sequence[VerificationReport]) -> str:
    lines = [r.line() for r in reports]
    failed = sum(1 for r in reports if not r.passed)
    lines.append(f"{len(reports)} checks, {failed} failed")
    return "\n".join(lines)
