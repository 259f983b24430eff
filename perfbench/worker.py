"""One campaign in a fresh interpreter; prints one JSON line with what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|trace|setup --t0 NS

`--t0` is the parent's CLOCK_MONOTONIC reading, in nanoseconds, taken just
before it started this process, so `setup_s` covers interpreter start,
imports and input generation.  `run` times the campaign untraced, between
two timings of a fixed reference loop; `trace` times it with spans on every
module boundary (see spans.py); `setup` stops once the inputs are ready.  Failed checks and exceptions raised by the
program are counted, never fatal; the worker exits non-zero only when the
benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_ROUNDS = 15


def reference_s() -> float:
    """Seconds for a fixed pure-Python loop shaped like the term kernel.

    It calls no `bangles` code, so no change to the program can move it; it
    moves only with the speed of the host.  On a shared host that speed
    drifts by a fifth within minutes, and campaign time divided by this
    time drifts far less than campaign time alone.
    """
    a = {(i, j, i - j): i + j + 1 for i in range(30) for j in range(10)}
    b = {(i, j, j - i): 1 for i in range(8) for j in range(5)}
    start = time.perf_counter_ns()
    for _ in range(REFERENCE_ROUNDS):
        out: dict = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return (time.perf_counter_ns() - start) / 1e9


def _cache_size(snakegraph) -> int | None:
    cache = getattr(snakegraph, "_matching_sum", None)
    return cache.cache_info().currsize if hasattr(cache, "cache_info") else None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--t0", type=int, required=True)
    ap.add_argument("--spans", help="file for the traced run's spans (gzip TSV)")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import bangles

    if Path(bangles.__file__).resolve().parent != SRC / "bangles":
        print(f"imported bangles from {bangles.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from spans import Tracer, layer_metrics, layer_split
    from workloads import API, WORKLOADS, Checks

    w = WORKLOADS[args.workload]
    inputs = w.setup(args.seed)
    setup_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0) / 1e9
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    api = dict(API)
    tracer = None
    cache_before = _cache_size(bangles.snakegraph)
    if args.mode == "trace":
        tracer = Tracer()
        missing_hooks = tracer.install()
        api = tracer.api(API)
        tracer.on = True

    ref_before = reference_s() if tracer is None else 0.0
    start = time.perf_counter_ns()
    try:
        outputs = w.campaign(inputs, api)
    except Exception:  # noqa: BLE001 - a raising campaign is one failed check
        traceback.print_exc()
        outputs = None
    end = time.perf_counter_ns()
    ref_after = reference_s() if tracer is None else 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    cache_after = _cache_size(bangles.snakegraph)

    checks = Checks()
    fingerprint = ""
    if outputs is None:
        checks.add(False)
    else:
        try:
            w.check(inputs, outputs, checks)
            fingerprint = w.fingerprint(outputs)
        except Exception:  # noqa: BLE001 - an oracle that raises is a failed check
            traceback.print_exc()
            checks.add(False)

    result = {
        "setup_s": setup_s,
        "wall_s": (end - start) / 1e9,
        "ref_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "digest": hashlib.sha256(fingerprint.encode()).hexdigest(),
        "python": platform.python_version(),
        "backend": getattr(bangles, "BACKEND", None),
    }
    if tracer is not None:
        spans = tracer.summary()
        entries = None if cache_before is None else cache_after - cache_before
        layers = layer_metrics(spans, tracer.counts, entries)
        layers["harness.arc_dup_frac"] = w.arc_dup_frac(outputs) if outputs is not None else 0.0
        result.update(
            layers=layers, split=layer_split(spans), spans=len(tracer.span_name), missing_hooks=missing_hooks
        )
        if args.spans:
            tracer.write(args.spans, start)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
