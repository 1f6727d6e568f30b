"""Per-call latency table under both BLAS thread settings.

    python3 bench/baseline.py

Regenerates the baseline table of the roadmap's benchmark item: each case
runs in a fresh interpreter twice, once with the BLAS and
``FUSIONKIT_THREADS`` variables removed (the library defaults) and once
with ``OPENBLAS_NUM_THREADS=1 FUSIONKIT_THREADS=1``. Inputs come from the
benchmark's generators at a fixed seed. Prints a markdown table of the
median and p90 over 15 timed calls (after one warm-up call).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

CASES = (
    "joint_information (40,30,10)",
    "synergy_matrices (40,30,10)",
    "advise (40,30,10)",
    "advise (200,150,20)",
    "optimal_secondary (40,30,10), p = 2x attainable minimum",
    "fisher_nonlinear N=20000, m=2, numeric Jacobian",
    "empirical_error_covariance ML, N=200000",
)
REPEATS = 15


def make_call(case: str):
    """A zero-argument call running one instance of ``case``."""
    import numpy as np

    import fusionkit as fk
    import workloads as w

    rng = np.random.default_rng(0)
    size = (200, 150, 20) if "(200,150,20)" in case else (40, 30, 10)
    pair = w.planted_pair(rng, *size, "fuse").pair()
    if case.startswith("joint_information"):
        return lambda: fk.joint_information(pair)
    if case.startswith("synergy_matrices"):
        return lambda: fk.synergy_matrices(pair)
    if case.startswith("advise"):
        return lambda: fk.advise(pair)
    if case.startswith("optimal_secondary"):
        wp = fk.prewhiten(pair)
        c, _ = w.budget_terms(wp.A_tilde, wp.rho)
        return lambda: fk.optimal_secondary(wp.A_tilde, wp.rho, 2.0 * float(np.sum(c)))
    if case.startswith("fisher_nonlinear"):
        mc = w.McVerify(0, HERE)
        A, C, model = mc.poly_model(rng, 5, 2)
        sigma, prior = w.spd(rng, 5), fk.GaussianPrior(np.zeros(2), np.eye(2))
        return lambda: fk.fisher_nonlinear(model, sigma, prior, 20_000, 1)
    pl = w.planted_pair(rng, 6, 2, 3, "fuse")
    return lambda: fk.empirical_error_covariance(
        "ml", fk.LinearModel(pl.A), pl.prior(), pl.sigma_v, 200_000, 1
    )


def time_case(case: str) -> list[float]:
    call = make_call(case)
    call()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return times


def p90(values):
    ordered = sorted(values)
    return ordered[-(-len(ordered) * 9 // 10) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--case", help=argparse.SUPPRESS)  # one case, in a child
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(time_case(args.case)))
        return 0

    from run import worker_env

    print("| case | default threads: median / p90 | single thread: median / p90 |")
    print("|---|---|---|")
    for case in CASES:
        cells = []
        for single in (False, True):
            out = subprocess.run(
                [sys.executable, __file__, "--case", case],
                env=worker_env(single), capture_output=True, text=True, check=True,
            )
            times = json.loads(out.stdout)
            cells.append(f"{statistics.median(times) * 1e3:.1f} / {p90(times) * 1e3:.1f} ms")
        print(f"| {case} | {cells[0]} | {cells[1]} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
