#!/usr/bin/env python3
"""Sweep planted noise spectra through the Cholesky inverse guard.

``matrixkit.inverse_factor`` certifies a matrix's condition with a bound
read off its inverse Cholesky factor and takes one ``eigvalsh`` only when
the bound is inconclusive or Cholesky fails. This sweep plants spectra of
known condition (1e2 to 1e14, straddling the 1e12 limit) and of minimum
eigenvalue -1e-6, -1e-12, 0 and 1e-13, at several sizes, under two guards:

- ``plain``: ``inverse_factor`` alone;
- ``parent``: ``factor_noise``'s Schur guard, the same rule with the
  condition measured against the largest eigenvalue of the parent block;
  the parent's Frobenius norm stands in for that eigenvalue only inside
  the Cholesky bound. Each parent has unit largest eigenvalue, taken by 1
  to n of its eigenvalues, so its Frobenius norm exceeds that eigenvalue
  by a factor of 1 to sqrt(n); the planted conditions (relative to it)
  straddle the 1e12 limit. A minimum eigenvalue below ``-PSD_EIG_TOL``
  times it refuses the joint noise as ``NotPD``; one at rounding level, as
  ``Singular``;
- ``joint``: ``noise_whitener`` on the stacked joint noise of a pair that
  ``factor_noise`` factored first (each planted matrix of at least two rows
  split into a pair, at the conditions 1e10 to 1e13 only), which reads its
  factor off the pair's blocks when their bound certifies it and otherwise
  factors the joint afresh. ``reused`` counts the trials that read the pair's
  factor; a pair refused by ``factor_noise`` leaves the joint to the fresh
  factor.

It records how often the fallback runs (``fallbacks``, the ``eigvalsh``
calls of a cell, and ``max_eigvalsh``, the most in one trial) and whether
every decision (error type and carried value) matches the eigenvalue
guard, which it must on every trial; for ``parent`` that is the exact
rule, with the parent's largest eigenvalue as the scale. A decision needs
one ``eigvalsh`` of the matrix, and for ``parent`` one of the parent
block. Emits a CSV (one row per size, spectrum and guard) and a JSON
summary; exits 1 if any decision disagrees or any trial takes more
``eigvalsh`` calls than its decision needs.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from fusionkit import BlockCovariance, LinearModel, NotPD, Singular
from fusionkit.matrixkit import (
    PSD_EIG_TOL,
    SINGULAR_CONDITION,
    _schur_factor,
    factor_noise,
    inverse_factor,
    noise_whitener,
    symmetrize,
)

# Each guard, and the eigvalsh calls one of its decisions needs at most.
GUARDS = {"plain": 1, "parent": 2, "joint": 1}

SPECTRA = [f"cond=1e{e}" for e in ("2", "6", "10", "11", "11.5", "12.5", "13", "14")] + [
    "min=-1e-6",
    "min=-1e-12",
    "min=0",
    "min=1e-13",
]

# The spectra of the joint guard: joint conditions that straddle the limit.
JOINT_SPECTRA = [f"cond=1e{e}" for e in ("10", "11", "11.5", "12.5", "13")]


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


def eigen_decision(M, scale):
    """(error type, carried value) of the eigenvalue guard; (None, cond) if it passes.

    A matrix with no positive eigenvalue is ``NotPD`` unless it is a Schur
    complement (``scale > 0``) indefinite only to rounding: then ``Singular``.
    """
    w = np.linalg.eigvalsh(M)
    if w[0] <= 0.0:
        return (NotPD, float(w[0])) if w[0] <= -PSD_EIG_TOL * scale else (Singular, np.inf)
    cond = max(scale, float(w[-1])) / float(w[0])
    return (Singular, cond) if cond > SINGULAR_CONDITION else (None, cond)


class Counted:
    """Counts the calls of ``np.linalg.<name>`` made inside the ``with`` block."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.calls = 0
        self._original = getattr(np.linalg, self.name)

        def counted(*args, **kwargs):
            self.calls += 1
            return self._original(*args, **kwargs)

        setattr(np.linalg, self.name, counted)
        return self

    def __exit__(self, *exc):
        setattr(np.linalg, self.name, self._original)


def cholesky_decision(M, against, guard):
    """(error type, carried value, inverse or None, eigvalsh calls, reused) of the Cholesky guard.

    ``against`` is the parent block of the ``parent`` guard. For the ``joint``
    guard the pair split off ``M`` is factored first, outside the counts, and
    ``reused`` says whether the whitener took no Cholesky factorization of its own.
    """
    if guard == "joint":
        n1 = len(M) - len(M) // 2
        noise = BlockCovariance(M[:n1, :n1], M[n1:, n1:], M[:n1, n1:])
        try:
            factor_noise(noise)
        except (NotPD, Singular):
            pass  # refused as a pair: the joint is factored afresh
        M = noise.joint()
    with Counted("eigvalsh") as eigvalsh, Counted("cholesky") as cholesky:
        try:
            if guard == "parent":
                L_inv = _schur_factor(M, against, "Schur complement")[1]
            elif guard == "joint":
                L_inv = noise_whitener(LinearModel(np.ones((len(M), 1))), M).L_inv
            else:
                _, L_inv = inverse_factor(M, "M")
            inverse = L_inv.T @ L_inv
            decision = (None, None, inverse)
        except NotPD as exc:
            decision = (NotPD, exc.min_eigenvalue, None)
        except Singular as exc:
            decision = (type(exc), exc.condition, None)
    return (*decision, eigvalsh.calls, guard == "joint" and cholesky.calls == 0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 8, 32, 63, 64, 65, 128, 400])
    ap.add_argument("--trials", type=int, default=10, help="Trials per size, spectrum and guard")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="noise_guard_sweep", help="Output base path")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    joint_rng = np.random.default_rng([args.seed, 1])  # the other guards' draws stay as they were
    fields = ["n", "spectrum", "guard", "trials", "fallbacks", "max_eigvalsh", "agreements",
              "refusals", "reused", "worst_inverse_error_over_cond"]
    rows = []
    for n in args.sizes:
        for spectrum in SPECTRA:
            for guard in GUARDS:
                if guard == "joint" and (n < 2 or spectrum not in JOINT_SPECTRA):
                    continue
                row = dict.fromkeys(fields[3:], 0)
                row.update(n=n, spectrum=spectrum, guard=guard, trials=args.trials)
                row["worst_inverse_error_over_cond"] = 0.0
                for _ in range(args.trials):
                    M = planted(joint_rng if guard == "joint" else rng, n, spectrum)
                    if guard == "parent":
                        against = parent_block(rng, n)
                        scale = float(np.linalg.eigvalsh(against)[-1])
                    else:
                        against = scale = 0.0
                    want, carried = eigen_decision(M, scale)
                    got, got_carried, inverse, calls, reused = cholesky_decision(M, against, guard)
                    row["reused"] += reused
                    row["fallbacks"] += calls
                    row["max_eigvalsh"] = max(row["max_eigvalsh"], calls)
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
    over_need = sum(r["max_eigvalsh"] > GUARDS[r["guard"]] for r in rows)
    summary = {
        "sizes": args.sizes,
        "trials_per_cell": args.trials,
        "seed": args.seed,
        "trials": trials,
        "fallback_rate": sum(r["fallbacks"] for r in rows) / trials,
        "agreement_rate": agreements / trials,
        "cells_over_eigvalsh_need": over_need,
        "joint_trials_reusing_the_pair_factor": sum(r["reused"] for r in rows),
        "worst_inverse_error_over_cond": max(r["worst_inverse_error_over_cond"] for r in rows),
        "passed": agreements == trials and over_need == 0,
    }
    base.with_suffix(".json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(
        f"noise guard sweep: {trials} trials, {summary['fallback_rate']:.3f} eigvalsh "
        f"calls per trial, agreement with the eigenvalue guard "
        f"{summary['agreement_rate']:.1%}, {over_need} cells with a trial taking more "
        f"eigvalsh calls than its decision needs, "
        f"{summary['joint_trials_reusing_the_pair_factor']} joint trials reading the pair's factor",
        file=sys.stderr,
    )
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
