"""ebmod benchmark: one workload, end to end or layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan-2-40 --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh interpreter (worker.py).  Passes repeat
until another one would overrun --seconds, at least one; set-up-only
passes then top setup_s up to a median of five set-ups.  With
--trace 0 every pass is untraced and the end-to-end metrics are
medians over passes; the timed part is rescaled to a reference host
speed (hostclock.py), set-up time is not.  With --trace 1 untraced and traced passes
alternate; the per-layer numbers come from the traced ones, and the
tracing overhead is the difference of the two medians of wall_norm_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is nonzero when
any output differs from its golden value, when a per-layer self-test
fails, or when ebmod's sources are not in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan-2-40", "eb-frontier", "davenport-search", "extract-threshold")
RUN_LIMIT_S = 170  # a run must end within 180 s
MIN_SETUPS = 5  # setup_s is a median of at least this many set-ups

# Per-layer counts that must repeat exactly between passes of one run.
EXACT = ("search.states_eb", "search.states_dav", "search.probes", "search.engines",
         "davenport.calls", "davenport.searches")
# Per-layer metrics that must read nonzero on each workload (trace self-test).
_SEARCH = ("search.states_dav", "search.engines", "search.init_s", "search.witness_s",
           "davenport.calls", "davenport.searches", "davenport.self_s",
           "sequences.product_set_calls", "sequences.product_set_s",
           "arith.factorize_calls", "arith.factorize_s",
           "unitgroup.units_s", "unitgroup.shape_s")
_EB = ("search.states_eb", "search.probes", "search.refute_s",
       "ebconstant.eb_exact_calls",
       "ebconstant.eb_exact_self_s", "sequences.idem_free_calls",
       "sequences.idem_free_s", "arith.idempotents_calls", "arith.idempotents_s")
NONZERO = {
    "scan-2-40": _SEARCH + _EB + ("search.states_per_s", "davenport.cache_hit_frac",
                                  "ebconstant.theorem_search_s",
                                  "ebconstant.theorem_search_frac", "cli.self_s"),
    "eb-frontier": _SEARCH + _EB + ("search.states_per_s", "search.bytes_per_state"),
    "davenport-search": _SEARCH + ("search.states_per_s", "search.bytes_per_state"),
    "extract-threshold": ("davenport.calls", "davenport.cache_hit_frac",
                          "ebconstant.extract_s", "sequences.product_one_s",
                          "arith.lift_to_unit_calls", "arith.lift_to_unit_s"),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("bytes_per_state"):
        return "B"
    return "count"


def provenance(ebmod_file: str | None) -> dict:
    """Where and on what the numbers were measured."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "ebmod_file": ebmod_file,
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_pass(workload: str, seed: int, mode: str, timeout: float) -> dict:
    """One worker process in the given mode; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples (never beyond
    the largest, which matters for the two or four calls of a search
    workload)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ebmod" / "__init__.py").is_file():
        print(f"error: no ebmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    try:
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(args.workload, args.seed, "plain", left()))
            if args.trace:
                traced.append(run_pass(args.workload, args.seed, "traced", left()))
            longest = max(longest, time.perf_counter() - t0)
            if time.perf_counter() - start + longest > args.seconds:
                break
        setups = [p["setup_s"] for p in plain + traced]
        while len(setups) < MIN_SETUPS:
            setups.append(run_pass(args.workload, args.seed, "setup", left())["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for e in dict.fromkeys(e for p in passes for e in p["errors"]):
        print(f"golden mismatch: {e}", file=sys.stderr)
    ok = failed == 0

    wall = [p["wall_s"] * p["scale"] for p in plain]
    p50 = [quantile(p["latencies_norm_s"], 50) * 1e3 for p in plain]
    p99 = [quantile(p["latencies_norm_s"], 99) * 1e3 for p in plain]
    calls = len(plain[0]["latencies_norm_s"])
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": len(plain),
        "traced_passes": len(traced), "calls_per_pass": calls,
        "setup_samples": len(setups),
        "raw_wall_s": [round(p["wall_s"], 4) for p in plain],
        "host_scale": [round(p["scale"], 4) for p in plain],
        "host_samples": [p["samples"] for p in plain],
        "failed_frac": failed / attempted if attempted else 1.0,
        "provenance": provenance(plain[0]["ebmod_file"]),
    }
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_norm_s": (statistics.median(wall), "s"),
            "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in plain), "MiB"),
            "call_p50_norm_ms": (statistics.median(p50), "ms"),
            "call_p99_norm_ms": (statistics.median(p99), "ms"),
        }
    else:
        layers = [p["layers"] for p in traced]
        metrics = {}
        broken = []
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            if name in EXACT or name.endswith("_calls"):
                if len(set(values)) != 1:
                    broken.append(f"{name} differs between traced passes: {values}")
                metrics[name] = (values[0], unit_of(name))
            else:
                metrics[name] = (statistics.median(values), unit_of(name))
        overhead = (statistics.median(p["wall_s"] * p["scale"] for p in traced)
                    - statistics.median(wall))
        metrics["trace.overhead_s"] = (overhead, "s")
        summary["sites"] = traced[0]["sites"]
        broken += [f"{name} reads 0 on {args.workload}"
                   for name in NONZERO[args.workload] if not metrics[name][0]]
        for b in broken:
            print(f"self-test failed: {b}", file=sys.stderr)
        ok = ok and not broken

    print(json.dumps(summary))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
