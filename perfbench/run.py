"""Benchmark of the `bangles` checker: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload keylemma|arcs|bracelets --seed N --seconds S --trace 0|1

Run from the root of a checkout; `src/bangles` is imported from there, with
the pure-Python kernel.  Every campaign runs in its own fresh interpreter,
one at a time, because every `bangles` CLI call starts cold and the
program's module-level caches would otherwise carry over.

--trace 0 runs campaigns for about S seconds (at least three), plus extra
set-up-only interpreters, and reports the medians of the end-to-end metrics.
Campaign time is reported as `wall_ref`, a multiple of the time of a fixed
reference loop run in the same interpreter just before and after the
campaign, because the host's speed drifts more than a bound could allow.
--trace 1 runs one untraced and two traced campaigns.  It reports the
per-layer metrics of the first traced one and checks that tracing changed
no output and that the two traced runs give the same exact counts.

The metric names and units come from BENCHMARK.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Why each workload exists, and what the seed means, is in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("keylemma", "arcs", "bracelets")
MIN_CAMPAIGNS = 3
SETUP_ONLY_RUNS = 15
CHILD_TIMEOUT_S = 150
NO_WAIT_NOTE = (
    "bangles is single-threaded and nothing in it queues, so no layer has a "
    "waiting time; none is reported"
)


class BenchError(RuntimeError):
    pass


def _mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _worker(workload: str, seed: int, mode: str, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = _mono_ns()
    proc = subprocess.run(
        cmd + ["--t0", str(t0)], cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, env=env, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _env(sample: dict) -> dict:
    env = {
        "python": sample["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
    }
    if sample["backend"] is not None:
        env["bangles.BACKEND"] = sample["backend"]
    return env


def _untraced(workload: str, seed: int, seconds: int):
    setups = [_worker(workload, seed, "setup")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    runs = []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        runs.append(_worker(workload, seed, "run"))
        took = time.monotonic() - began
        if len(runs) >= MIN_CAMPAIGNS and time.monotonic() + took > deadline:
            break
    setups += [r["setup_s"] for r in runs]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(r["wall_s"] / r["ref_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "check_pass_frac": 1 - failed / attempted,
    }
    same = len({r["digest"] for r in runs}) == 1
    notes = [
        f"{len(runs)} campaigns, {len(setups)} set-ups; values are medians",
        f"campaign wall {statistics.median(r['wall_s'] for r in runs):.4f} s, "
        f"reference loop {statistics.median(r['ref_s'] for r in runs):.4f} s",
        f"outputs identical across campaigns: {same}",
    ]
    return runs[0], attempted, failed, same, metrics, notes


def _traced(workload: str, seed: int, count_names):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    base = _worker(workload, seed, "run")
    paths = [out / f"spans-{workload}-seed{seed}-{i}.tsv.gz" for i in (1, 2)]
    traced = [_worker(workload, seed, "trace", p) for p in paths]
    runs = [base] + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same_output = all(t["digest"] == base["digest"] for t in traced)
    differing = [n for n in count_names if traced[0]["layers"][n] != traced[1]["layers"][n]]
    metrics = dict(traced[0]["layers"])
    metrics["trace.overhead_s"] = statistics.median(t["wall_s"] for t in traced) - base["wall_s"]
    split = sorted(traced[0]["split"].items(), key=lambda kv: -kv[1])
    notes = [
        f"untraced wall_s {base['wall_s']:.4f} s; traced wall_s "
        + ", ".join(f"{t['wall_s']:.4f}" for t in traced)
        + " s",
        f"spans per traced run: {traced[0]['spans']}; written to "
        + ", ".join(str(p.relative_to(ROOT)) for p in paths),
        "self time by layer, share of traced wall_s: "
        + ", ".join(f"{layer} {s / traced[0]['wall_s']:.1%}" for layer, s in split),
        f"tracing changed no output: {same_output}",
        "hooks not found, their metrics read 0: " + (", ".join(traced[0]["missing_hooks"]) or "none"),
        "self-test, exact counts repeat across both traced runs: "
        + ("yes" if not differing else "NO: " + ", ".join(differing)),
        NO_WAIT_NOTE,
    ]
    return base, attempted, failed, same_output and not differing, metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "bangles" / "__init__.py").is_file():
        print(f"no bangles sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        if args.trace:
            counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
            sample, attempted, failed, ok, values, notes = _traced(args.workload, args.seed, counts)
        else:
            sample, attempted, failed, ok, values, notes = _untraced(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    print(json.dumps({"env": _env(sample)}))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: " + "; ".join(notes))
    for name, unit in units.items():
        print(f"  {name:28s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
