#!/usr/bin/env python3
"""Trace of the joint information along the noise-correlation path rho = c I.

Demonstrates the two corner regimes: additive information at c = 0 and
the blow-up as the whitened cross-correlation approaches unitary (fully
correlated noise admits perfect noise rejection). Writes one CSV row per
correlation level.

The pair is Frobenius-orthogonal with ``||A||^2 = ||B||^2 = 4``, so at every
level ``trace(J) = 8 / (1 - c^2)`` and ``sigma_max(rho) = c`` exactly; the
script exits 1 if a row is off the first by more than 1e-10 relative or the
second by more than 1e-12.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from fusionkit import BlockCovariance, LinearModel, ModalityPair, joint_information, prewhiten


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=40, help="Correlation grid size")
    ap.add_argument("--c-max", type=float, default=0.999)
    ap.add_argument("--out", default="correlation_synergy.csv")
    args = ap.parse_args()

    # fixed Frobenius-orthogonal whitened pair (non-redundant at every c)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    rows = []
    for c in np.linspace(0.0, args.c_max, args.levels):
        noise = BlockCovariance(np.eye(3), np.eye(3), float(c) * np.eye(3))
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        J = joint_information(pair)
        rows.append(
            {
                "c": float(c),
                "trace_J": float(np.trace(J.matrix)),
                "sigma_max_rho": prewhiten(pair).sigma_max_rho,
                "near_singular": J.near_singular,
            }
        )
    off = [
        row for row in rows
        if abs(row["trace_J"] - 8.0 / (1.0 - row["c"] ** 2)) > 1e-10 * 8.0 / (1.0 - row["c"] ** 2)
        or abs(row["sigma_max_rho"] - row["c"]) > 1e-12
    ]

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["c", "trace_J", "sigma_max_rho", "near_singular"])
        writer.writeheader()
        writer.writerows(rows)
    print(
        f"correlation sweep: trace(J) grows from {rows[0]['trace_J']:.3f} at c=0 "
        f"to {rows[-1]['trace_J']:.1f} at c={rows[-1]['c']:.3f} -> {out}",
        file=sys.stderr,
    )
    for row in off:
        print(f"c={row['c']!r}: trace(J) {row['trace_J']!r}, sigma_max(rho) "
              f"{row['sigma_max_rho']!r}, off 8/(1 - c^2) or c", file=sys.stderr)
    return 1 if off else 0


if __name__ == "__main__":
    raise SystemExit(main())
