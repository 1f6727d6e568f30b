#!/usr/bin/env python3
"""Sweep marginal noise conditions through the prewhitening products.

``information.prewhiten`` takes the inverse symmetric roots ``L_v^-1``,
``L_u^-1`` from one eigen-solve of each marginal and forms
``A_tilde = L_v^-1 A``, ``B_tilde = L_u^-1 B`` and
``rho = L_v^-1 sigma_vu L_u^-1`` as products with them (the pair's
factorization whitens with inverse Cholesky factors instead; its answers
do not depend on the basis). This sweep
compares each product with the LU solve ``solve(L, .)`` against the root
``L = sym_sqrt(sigma)``, on pairs whose marginals have a planted condition
drawn log-uniformly within each decade from 1e0 to 1e12, and reports the worst relative
Frobenius difference per decade, and the worst over ``kappa * eps``.
Whitening a marginal of condition kappa is itself sensitive to rounding of
the input at about ``kappa * eps``, so it also reports how far each way's
``rho`` lies from the planted one: a product that misses it by no more
than the solve does is as accurate. Emits a CSV (one row per decade) and
a JSON summary; exits 1 if a difference exceeds ``100 * kappa * eps``.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from fusionkit import BlockCovariance, LinearModel, ModalityPair
from fusionkit.information import prewhiten
from fusionkit.matrixkit import sym_sqrt, symmetrize

EPS = float(np.finfo(float).eps)
SLACK = 100.0


def planted_marginal(rng, n, log_cond):
    """Unit-norm PD matrix of condition ``10**log_cond`` in a random basis, and its root."""
    w = 10.0 ** rng.uniform(-log_cond, 0.0, size=n)
    w[0], w[-1] = 10.0**-log_cond, 1.0
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q *= np.sign(np.diag(R))
    return symmetrize((Q * w) @ Q.T), symmetrize((Q * np.sqrt(w)) @ Q.T)


def planted_pair(rng, n1, n2, m, log_cond):
    """A pair whose marginals both have the planted condition, and its rho (norm 0.5)."""
    sv, half_v = planted_marginal(rng, n1, log_cond)
    su, half_u = planted_marginal(rng, n2, log_cond)
    R = rng.standard_normal((n1, n2))
    R *= 0.5 / np.linalg.norm(R, 2)
    pair = ModalityPair(
        LinearModel(rng.standard_normal((n1, m))),
        LinearModel(rng.standard_normal((n2, m))),
        BlockCovariance(sv, su, half_v @ R @ half_u),
    )
    return pair, R


def relative(new, old) -> float:
    return float(np.linalg.norm(new - old) / max(np.linalg.norm(old), 1e-300))


def whitening_differences(pair, planted_rho) -> dict:
    """Relative differences of prewhiten's products from the solves against the roots.

    ``rho_product_error`` and ``rho_solve_error`` are each way's relative
    distance from the planted rho.
    """
    L_v, L_u = sym_sqrt(pair.noise.sigma_v), sym_sqrt(pair.noise.sigma_u)
    wp = prewhiten(pair)
    solved = {
        "A_tilde": np.linalg.solve(L_v, pair.first.A),
        "B_tilde": np.linalg.solve(L_u, pair.second.A),
        "rho": np.linalg.solve(L_v, np.linalg.solve(L_u, pair.noise.sigma_vu.T).T),
    }
    diffs = {name: relative(getattr(wp, name), old) for name, old in solved.items()}
    errors = {
        "rho_product_error": relative(wp.rho, planted_rho),
        "rho_solve_error": relative(solved["rho"], planted_rho),
    }
    return diffs, errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=20, help="Pairs per condition decade")
    ap.add_argument("--dims", type=int, nargs=3, default=[40, 30, 10], metavar=("N1", "N2", "M"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="whitening_accuracy", help="Output base path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    n1, n2, m = args.dims
    fields = ["decade", "trials", "worst_A_tilde", "worst_B_tilde", "worst_rho",
              "worst_over_kappa_eps", "worst_rho_product_error", "worst_rho_solve_error"]
    rows = []
    for decade in range(12):
        row = dict.fromkeys(fields[2:], 0.0)
        row.update(decade=f"1e{decade}-1e{decade + 1}", trials=args.trials)
        for _ in range(args.trials):
            log_cond = rng.uniform(decade, decade + 1)
            diffs, errors = whitening_differences(*planted_pair(rng, n1, n2, m, log_cond))
            for name, value in (diffs | errors).items():
                row[f"worst_{name}"] = max(row[f"worst_{name}"], value)
            row["worst_over_kappa_eps"] = max(
                row["worst_over_kappa_eps"], max(diffs.values()) / (10.0**log_cond * EPS)
            )
        rows.append(row)

    base = Path(args.out)
    with base.with_suffix(".csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    worst_ratio = max(r["worst_over_kappa_eps"] for r in rows)
    summary = {
        "dims": [n1, n2, m],
        "trials_per_decade": args.trials,
        "seed": args.seed,
        "worst_over_kappa_eps": worst_ratio,
        "bound_over_kappa_eps": SLACK,
        "passed": worst_ratio <= SLACK,
    }
    base.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for r in rows:
        print(
            f"{r['decade']:>10}: A~ {r['worst_A_tilde']:.1e}  B~ {r['worst_B_tilde']:.1e}  "
            f"rho {r['worst_rho']:.1e}  |  rho from planted: product "
            f"{r['worst_rho_product_error']:.1e}, solve {r['worst_rho_solve_error']:.1e}",
            file=sys.stderr,
        )
    print(
        f"whitening sweep: worst difference {worst_ratio:.3g} kappa eps "
        f"(bound {SLACK:g} kappa eps)",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
