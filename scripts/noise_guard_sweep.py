#!/usr/bin/env python3
"""Sweep planted noise spectra through the Cholesky inverse guard.

``matrixkit.inverse_factor`` certifies a matrix's condition with a bound
read off its inverse Cholesky factor and takes one ``eigvalsh`` only when
the bound is inconclusive or Cholesky fails. This sweep plants spectra of
known condition (1e2 to 1e14, straddling the 1e12 limit) and of minimum
eigenvalue -1e-12, 0 and 1e-13, at several sizes, under three guards:

- ``plain``: ``inverse_factor`` alone;
- ``schur``: ``derived_inverse`` with its condition measured against a
  given scale 10x the matrix's norm;
- ``parent``: ``factor_noise``'s Schur guard, which measures the
  condition against the largest eigenvalue of the parent block but reads
  the parent's Frobenius norm instead while that certifies. Each parent
  has unit largest eigenvalue, taken by 1 to n of its eigenvalues, so its
  Frobenius norm exceeds that eigenvalue by a factor of 1 to sqrt(n); the
  planted conditions (relative to it) straddle the 1e12 limit.

It records how often the fallback runs and whether every decision (error
type and carried value) matches the eigenvalue guard, which it must on
every trial; for ``parent`` that is the exact rule, with the parent's
largest eigenvalue as the scale. Emits a CSV (one row per size, spectrum
and guard) and a JSON summary; exits 1 if any decision disagrees.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from fusionkit import NotPD, Singular
from fusionkit.matrixkit import (
    SINGULAR_CONDITION,
    _schur_inverse,
    derived_inverse,
    inverse_factor,
    symmetrize,
)

GUARDS = ("plain", "schur", "parent")

SPECTRA = [f"cond=1e{e}" for e in ("2", "6", "10", "11", "11.5", "12.5", "13", "14")] + [
    "min=-1e-12",
    "min=0",
    "min=1e-13",
]


def planted(rng, n, spectrum):
    """Symmetric matrix of unit norm with the named spectrum, in a random basis."""
    kind, value = spectrum.split("=")
    if kind == "cond":
        log_cond = float(value[2:])
        w = 10.0 ** rng.uniform(-log_cond, 0.0, size=n)
        w[0] = 10.0**-log_cond
    else:
        w = 10.0 ** rng.uniform(-2.0, 0.0, size=n)
        w[0] = float(value)
    w[-1] = 1.0
    return in_random_basis(rng, w)


def in_random_basis(rng, w):
    Q, R = np.linalg.qr(rng.standard_normal((len(w), len(w))))
    Q *= np.sign(np.diag(R))
    return symmetrize((Q * w) @ Q.T)


def parent_block(rng, n):
    """PD parent of largest eigenvalue 1, held by 1 to n eigenvalues: Frobenius norm 1 to sqrt(n)."""
    w = rng.uniform(0.01, 1.0, size=n)
    w[: rng.integers(1, n + 1)] = 1.0
    return in_random_basis(rng, w)


def eigen_decision(M, scale, schur):
    """(error type, carried value) of the eigenvalue guard; (None, cond) if it passes."""
    w = np.linalg.eigvalsh(M)
    if w[0] <= 0.0:
        return (Singular, np.inf) if schur else (NotPD, float(w[0]))
    cond = max(scale, float(w[-1])) / float(w[0])
    return (Singular, cond) if cond > SINGULAR_CONDITION else (None, cond)


class CountedEigvalsh:
    """Counts the ``np.linalg.eigvalsh`` calls made inside the ``with`` block."""

    def __enter__(self):
        self.calls = 0
        self._original = np.linalg.eigvalsh

        def counted(*args, **kwargs):
            self.calls += 1
            return self._original(*args, **kwargs)

        np.linalg.eigvalsh = counted
        return self

    def __exit__(self, *exc):
        np.linalg.eigvalsh = self._original


def cholesky_decision(M, against, guard):
    """(error type, carried value, inverse or None, eigvalsh calls) of the Cholesky guard.

    ``against`` is the scale of the ``schur`` guard and the parent block of
    the ``parent`` guard.
    """
    with CountedEigvalsh() as counter:
        try:
            if guard == "parent":
                inverse = _schur_inverse(M, against, "Schur complement")
            elif guard == "schur":
                inverse = derived_inverse(M, "Schur complement", scale=against)
            else:
                _, L_inv = inverse_factor(M, "M")
                inverse = L_inv.T @ L_inv
            decision = (None, None, inverse)
        except NotPD as exc:
            decision = (NotPD, exc.min_eigenvalue, None)
        except Singular as exc:
            decision = (type(exc), exc.condition, None)
    return (*decision, counter.calls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 8, 32, 63, 64, 65, 128, 400])
    ap.add_argument("--trials", type=int, default=10, help="Trials per size, spectrum and guard")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="noise_guard_sweep", help="Output base path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    fields = ["n", "spectrum", "guard", "trials", "fallbacks", "agreements", "refusals",
              "worst_inverse_error_over_cond"]
    rows = []
    for n in args.sizes:
        for spectrum in SPECTRA:
            for guard in GUARDS:
                row = dict.fromkeys(fields[3:], 0)
                row.update(n=n, spectrum=spectrum, guard=guard, trials=args.trials)
                row["worst_inverse_error_over_cond"] = 0.0
                for _ in range(args.trials):
                    M = planted(rng, n, spectrum)
                    if guard == "parent":
                        against = parent_block(rng, n)
                        scale = float(np.linalg.eigvalsh(against)[-1])
                    else:
                        against = scale = 10.0 if guard == "schur" else 0.0
                    want, carried = eigen_decision(M, scale, guard != "plain")
                    got, got_carried, inverse, calls = cholesky_decision(M, against, guard)
                    row["fallbacks"] += calls
                    row["agreements"] += got is want and (want is None or got_carried == carried)
                    row["refusals"] += got is not None
                    if inverse is not None:
                        exact = np.linalg.inv(M)
                        err = np.linalg.norm(inverse - exact) / np.linalg.norm(exact)
                        w = np.linalg.eigvalsh(M)
                        row["worst_inverse_error_over_cond"] = max(
                            row["worst_inverse_error_over_cond"], float(err * w[0] / w[-1])
                        )
                rows.append(row)

    base = Path(args.out)
    with base.with_suffix(".csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    trials = sum(r["trials"] for r in rows)
    agreements = sum(r["agreements"] for r in rows)
    summary = {
        "sizes": args.sizes,
        "trials_per_cell": args.trials,
        "seed": args.seed,
        "trials": trials,
        "fallback_rate": sum(r["fallbacks"] for r in rows) / trials,
        "agreement_rate": agreements / trials,
        "worst_inverse_error_over_cond": max(r["worst_inverse_error_over_cond"] for r in rows),
        "passed": agreements == trials,
    }
    base.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"noise guard sweep: {trials} trials, {summary['fallback_rate']:.3f} eigvalsh "
        f"calls per trial, agreement with the eigenvalue guard "
        f"{summary['agreement_rate']:.1%}",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
