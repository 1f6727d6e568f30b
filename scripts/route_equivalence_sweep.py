#!/usr/bin/env python3
"""Sweep random two-modality scenarios and measure joint-information route
disagreement across dimension combinations.

The four algebraic routes (block inverse, both Schur quadratic forms,
prewhitened) are mathematically identical; this sweep records how far
floating point lets them drift as a function of problem size. Emits a
CSV (one row per dimension combo) and a JSON summary.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from fusionkit import (
    BlockCovariance,
    LinearModel,
    ModalityPair,
    PairFactorization,
    RouteDisagreement,
)
from fusionkit.matrixkit import FORM_TOL


def random_pair(rng, n1, n2, m):
    S = rng.standard_normal((n1 + n2, n1 + n2))
    joint = S @ S.T + 0.5 * np.eye(n1 + n2)
    noise = BlockCovariance(joint[:n1, :n1], joint[n1:, n1:], joint[:n1, n1:])
    return ModalityPair(
        LinearModel(rng.standard_normal((n1, m))),
        LinearModel(rng.standard_normal((n2, m))),
        noise,
    )


def disagreement(pair) -> float:
    # The routes are cross-validated when computed; a failed check carries
    # the disagreement it found.
    try:
        return PairFactorization.from_pair(pair).route_error
    except RouteDisagreement as exc:
        return exc.max_relative_error


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200, help="Trials per dimension combo")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="route_equivalence", help="Output base path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = []
    overall_worst = 0.0
    for n1 in (1, 2, 4, 6):
        for n2 in (1, 2, 4, 6):
            for m in (1, 2, 4):
                worst = 0.0
                for _ in range(args.trials):
                    worst = max(worst, disagreement(random_pair(rng, n1, n2, m)))
                rows.append({"n1": n1, "n2": n2, "m": m, "worst_rel_disagreement": worst})
                overall_worst = max(overall_worst, worst)

    base = Path(args.out)
    with base.with_suffix(".csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["n1", "n2", "m", "worst_rel_disagreement"])
        writer.writeheader()
        writer.writerows(rows)
    summary = {
        "trials_per_combo": args.trials,
        "seed": args.seed,
        "overall_worst": overall_worst,
        "tolerance": FORM_TOL,
        "passed": overall_worst < FORM_TOL,
    }
    base.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"route sweep: {len(rows)} combos x {args.trials} trials, worst relative "
        f"disagreement {overall_worst:.3e} (tolerance {FORM_TOL:g})",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
