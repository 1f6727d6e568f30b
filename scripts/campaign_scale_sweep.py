#!/usr/bin/env python3
"""ML and MMSE error campaigns on the README demo's ``ecg`` modality, across scales.

Two axes, each a grid of decades: the prior covariance ``c * I`` for
``c = 10**k`` (``--prior-exponents``, 0 to 24 by default), and the ``ecg``
noise scaled by ``c = 10**k`` (``--noise-exponents``, 0 to -24 by default),
with the ``ecg``/``ppg`` cross covariance scaled by ``sqrt(c)`` so the joint
noise stays positive definite. Each point is the scenario document the CLI
would read, loaded by :func:`fusionkit.cli.load_scenario`, and both methods
run at ``N`` draws and ``SEED``. Writes one CSV row per campaign.

An answered campaign reads the Frobenius distance of its empirical error
covariance from the inverse total information, relative to the latter; the
script exits 1 if one exceeds 0.05 or if a campaign ends in an exception
other than a typed :class:`~fusionkit.FusionKitError` refusal. The grids
end two decades past the campaign's condition limit: from a prior of about
``1e22 * I``, or the noise at about ``1e-22``, the draws exceed the error's
deviation by more than 1e12, and the campaign refuses as ``Singular``
rather than answer from rounding.
"""

import argparse
import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from demo_reports import DEMO
from fusionkit import FusionKitError, empirical_error_covariance
from fusionkit.cli import load_scenario

REL_ERR_BOUND = 0.05
N = 20000
SEED = 0


def scaled_demo(axis: str, c: float) -> dict:
    """The README demo with its prior covariance, or its ``ecg`` noise, scaled by ``c``."""
    doc = json.loads(json.dumps(DEMO))
    if axis == "prior":
        doc["sources"]["gaussian"]["cov"] = (c * np.eye(2)).tolist()
    else:
        ecg = doc["modalities"][0]
        ecg["noise_cov"] = (c * np.array(ecg["noise_cov"])).tolist()
        cross = doc["cross_cov"]
        cross["matrix"] = (np.sqrt(c) * np.array(cross["matrix"])).tolist()
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--prior-exponents", type=int, nargs="*", default=list(range(0, 25)))
    ap.add_argument("--noise-exponents", type=int, nargs="*", default=list(range(0, -25, -1)))
    ap.add_argument("--out", default="campaign_scale_sweep.csv")
    args = ap.parse_args()

    grid = [("prior", k) for k in args.prior_exponents]
    grid += [("noise", k) for k in args.noise_exponents]
    rows, failed = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "demo.json"
        for axis, k in grid:
            path.write_text(json.dumps(scaled_demo(axis, 10.0**k)))
            scenario = load_scenario(path)
            model, noise = scenario.modality("ecg")
            for method in ("ml", "mmse"):
                row = {"axis": axis, "exponent": k, "method": method}
                try:
                    res = empirical_error_covariance(method, model, scenario.prior, noise,
                                                     N=N, seed=SEED)
                except FusionKitError as exc:
                    row["outcome"] = type(exc).__name__
                except Exception as exc:  # an untyped failure is a fault of the campaign
                    row["outcome"] = f"untyped {type(exc).__name__}: {exc}"
                    failed.append(row)
                else:
                    row.update(outcome="answered", rel_err=repr(res.frobenius_rel_err),
                               crlb_passed=res.crlb_check.passed)
                    if not res.frobenius_rel_err <= REL_ERR_BOUND:
                        failed.append(row)
                rows.append(row)

    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["axis", "exponent", "method", "outcome", "rel_err", "crlb_passed"])
        writer.writeheader()
        writer.writerows(rows)
    answered = [float(row["rel_err"]) for row in rows if row["outcome"] == "answered"]
    print(f"campaign scale sweep: {len(answered)} of {len(rows)} campaigns answered, "
          f"worst rel_err {max(answered, default=float('nan')):.4g} -> {out}", file=sys.stderr)
    for row in failed:
        print(f"{row['axis']} x 1e{row['exponent']} {row['method']}: {row['outcome']}, "
              f"rel_err {row.get('rel_err')} (bound {REL_ERR_BOUND})", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
