#!/usr/bin/env python3
"""Optimal secondary configuration across a range of SNR budgets.

For a fixed whitened primary and noise cross-correlation, solves the
budgeted design at each feasible budget and records the multiplier, the
objective, the stationarity residual (the norm of the analytic Lagrangian
gradient, whose two algebraic forms are checked against each other on
every solve), and the perturbation-probe outcome (how often a random
feasible perturbation increases the objective, and the largest gain).
Exits 1 if a KKT residual exceeds ``KKT_BOUND``, if a returned ``B~*``
misses its budget, ``|Tr(B~*^T B~*) - p| / p > 1e-10`` (the closed form is
read off the singular basis of rho, so nothing solves it onto the sphere
but the root), or if a probe finds a perturbation that does not increase
the objective: the solution is the budget-constrained minimizer
(``optimal_secondary``), so at the probe's delta of 1e-3 every
perturbation is a violation.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from fusionkit import local_optimality_probe, optimal_secondary
from fusionkit.placement import KKT_BOUND, _analysis_of, _budget_terms, _budget_value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budgets", type=int, default=12, help="Number of budget levels")
    ap.add_argument("--probes", type=int, default=200)
    ap.add_argument("--out", default="placement_budget_sweep.csv")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    n1, n2, m = 4, 3, 2
    A = rng.standard_normal((n1, m))
    R = rng.standard_normal((n1, n2))
    rho = 0.8 * R / np.linalg.svd(R, compute_uv=False)[0]

    c, gap = _budget_terms(A, _analysis_of(rho.tobytes(), rho.shape))
    lam_hi = 1.0 / float(gap[-1])  # the branch limit of the budget root

    rows, misses = [], []
    for frac in np.linspace(0.0, 0.9, args.budgets):
        p = _budget_value(float(frac) * lam_hi, c, gap)
        sol = optimal_secondary(A, rho, p)
        misses.append(abs(float(np.sum(sol.B_star * sol.B_star)) - p) / p)
        probe = local_optimality_probe(A, rho, sol, n_perturbations=args.probes, seed=args.seed)
        rows.append(
            {
                "p": p,
                "lambda": sol.lambda_,
                "objective": sol.objective_e,
                "kkt_residual": sol.kkt_residual,
                "probe_violations": probe.n_violations,
                "probe_max_gain": probe.max_improvement,
            }
        )

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "p", "lambda", "objective", "kkt_residual",
                "probe_violations", "probe_max_gain",
            ],
        )
        writer.writeheader()
        writer.writerows(rows)
    worst_kkt = max(r["kkt_residual"] for r in rows)
    total_viol = sum(r["probe_violations"] for r in rows)
    print(
        f"placement sweep: {len(rows)} budgets, worst KKT residual {worst_kkt:.3e}, "
        f"worst budget miss {max(misses):.3e}, "
        f"{total_viol} probe improvements across {len(rows) * args.probes} "
        f"perturbations -> {out}",
        file=sys.stderr,
    )
    if worst_kkt > KKT_BOUND:
        print(f"FAIL: KKT residual {worst_kkt:.3e} exceeds {KKT_BOUND:.0e}", file=sys.stderr)
        return 1
    missed = [r["p"] for r, miss in zip(rows, misses) if miss > 1e-10]
    if missed:
        print(f"FAIL: at budgets {missed}, B* misses its budget by more than 1e-10 relative",
              file=sys.stderr)
        return 1
    short = [r["p"] for r in rows if r["probe_violations"] < args.probes]
    if short:
        print(f"FAIL: at budgets {short}, a perturbation did not increase the objective of "
              "the minimizer", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
