"""fusionkit benchmark: one command, four workloads, every answer checked.

    python3 bench/run.py --workload fusion-dense --seed 1 --seconds 15 --trace 0

Run from the root of a checkout (fusionkit need not be installed; the
benchmark puts ``src`` on the path). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``. The line before it holds the
details (environment record, tail percentile, raw times, first errors).

Question times of the in-process workloads are reported at the reference
host speed: each question's wall time is scaled by the time of a fixed
kernel (``reference.py``, no fusionkit code) run right after it, against
that kernel's nominal time. ``cli-cold`` asks in child processes, whose
speed that kernel does not track; its times are raw wall time.

Each workload runs in fresh worker interpreters whose environment has the
BLAS and ``FUSIONKIT_THREADS`` settings removed, so the library runs with
the defaults a user gets (``--single-thread`` pins both to one instead).
This script imports nothing outside the standard library.
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

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cli-cold", "fusion-dense", "placement-design", "mc-verify")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FUSIONKIT_THREADS")
WORKER_TIMEOUT_S = 170
# Default BLAS threads made these workloads' latencies unsteady on a noisy
# 2-CPU host (spread across seeds above 30% for fusion-dense, about twice the
# single-thread spread for placement-design), so they run on one BLAS
# thread; mc-verify and cli-cold keep the defaults and show a thread policy.
PINNED = {"fusion-dense", "placement-design"}
# Fresh interpreters timed for setup_s; the median is reported.
SETUPS = 3


def worker_env(single_thread: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    if single_thread:
        env.update(OPENBLAS_NUM_THREADS="1", FUSIONKIT_THREADS="1")
    return env


def spawn_worker(args, env, *extra) -> tuple[float, dict]:
    """Run one worker; return (set-up seconds, its JSON report)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report["ready"] - start, report


def percentile(values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond it, or p75.

    A run asks a fixed number of questions for a given ``--seconds``, so
    this is the same percentile on every commit. The p75 floor keeps the
    tail off the median in short runs, with fewer than ten beyond it.
    """
    for pct in range(99, 75, -1):
        if n - -(-n * pct // 100) >= 10:
            return pct
    return 75


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="question time to measure (half untraced, half traced with --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--single-thread", action="store_true",
                        help="pin OPENBLAS_NUM_THREADS=1 FUSIONKIT_THREADS=1 (baseline runs)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fusionkit" / "__init__.py").is_file():
        print(f"no fusionkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = worker_env(args.single_thread or args.workload in PINNED)
    run_args = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        run_args += ["--spans-out", str(spans)]

    setups, attempted, failed, errors = [], 0, 0, []
    if not args.trace:
        # Set-up is timed in several fresh interpreters; the median is reported.
        for _ in range(SETUPS - 1):
            setup, probe = spawn_worker(args, env, "--setup-only")
            setups.append(setup)
            attempted, failed = attempted + probe["attempted"], failed + probe["failed"]
            errors += probe["errors"]
    setup, report = spawn_worker(args, env, *run_args)
    setups.append(setup)
    attempted, failed = attempted + report["attempted"], failed + report["failed"]
    errors += report["errors"]

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "single_thread": args.single_thread or args.workload in PINNED,
        "environment": report["environment"],
        "errors": errors[:20],
    }
    if args.trace:
        metrics = report["layers"]
        details["traced_questions"] = report["traced_questions"]
        details["spans_recorded"] = report["spans_recorded"]
    else:
        lat, raw, kernel = report["latencies"], report["raw_latencies"], report["kernel"]
        pct = tail_percentile(len(lat))
        tail, beyond = percentile(lat, pct)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "questions_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "question_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "question_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
        details.update(
            questions=len(lat),
            tail_percentile=pct,
            tail_samples_beyond=beyond,
            setup_runs_s=setups,
            error_rate=failed / attempted,
            kernel_median_ms=statistics.median(kernel) * 1e3 if kernel else None,
            raw_questions_per_s=len(raw) / sum(raw),
            raw_question_p50_ms=statistics.median(raw) * 1e3,
            raw_question_tail_ms=percentile(raw, pct)[0] * 1e3,
        )
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
