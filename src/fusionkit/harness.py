"""The Monte-Carlo error campaign: empirical error covariances against the CRLB.

:func:`empirical_error_covariance` simulates, estimates and accumulates
second moments, then compares them with the theoretical reference, the
inverse total information, and checks that they dominate it. Every
campaign applies the estimators' own affine map, gain, offset and error
covariance from :func:`fusionkit.estimators._affine`, the map
:func:`~fusionkit.estimators.ml_estimate` and
:func:`~fusionkit.estimators.mmse_gaussian_estimate` apply, so it checks
those estimators and no copy of them; the gain form of the posterior mean
is a test oracle and takes no part here. The slack for PSD
dominance checks is five times the largest per-entry Monte-Carlo standard
error. That is not a calibrated false-alarm rate: correct estimators fail
it in about 1 campaign in 240 in the benchmark (3 of 3000 at N = 2000 in
an earlier review); ROADMAP item 5 plans a verdict with a stated rate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import estimators
from .information import DEFAULT_BLOCK
from .matrixkit import _whitened_model, require_conditioned, require_finite, require_integer
from .model import (
    GaussianPrior,
    LinearModel,
    SourcePrior,
    draw_rows,
    draw_streams,
    require_prior_size,
)


@dataclass(frozen=True)
class CrlbCheck:
    min_eig: float
    passed: bool
    slack: float


@dataclass(frozen=True)
class CampaignResult:
    """Empirical vs. theoretical error covariance for one scenario."""

    scenario_id: str
    method: str
    empirical_error_cov: np.ndarray
    theoretical_ref: np.ndarray
    frobenius_rel_err: float
    N: int
    seed: int
    crlb_check: CrlbCheck

    def to_json_dict(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "method": self.method,
            "empirical_error_cov": self.empirical_error_cov.tolist(),
            "theoretical_ref": self.theoretical_ref.tolist(),
            "frobenius_rel_err": self.frobenius_rel_err,
            "N": self.N,
            "seed": self.seed,
            "crlb_check": {
                "min_eig": self.crlb_check.min_eig,
                "passed": self.crlb_check.passed,
                "slack": self.crlb_check.slack,
            },
        }


def empirical_error_covariance(
    method: str,
    model: LinearModel,
    prior: SourcePrior,
    noise,
    N: int,
    seed: int,
    scenario_id: str = "",
) -> CampaignResult:
    """Simulate, estimate, and accumulate the empirical error covariance.

    ``method`` is "ml"/"wls" (identical estimators; reference is the
    inverse SNR matrix) or "mmse" (Gaussian prior required; reference is
    the posterior covariance). Either reference is the inverse total
    information ``J^-1``, so the CRLB dominance check compares the empirical
    covariance against it, with Monte-Carlo slack, and inverts nothing more.
    Both apply the estimators' affine map ``X gain^T + offset`` with
    ``gain = J^-1 A^T Sigma^-1`` (:func:`fusionkit.estimators._affine`): the
    offset is 0 for ML and ``mu - gain A mu`` for MMSE, so no LU solve of the
    innovation covariance ``A G A^T + Sigma`` runs and its conditioning does
    not matter.

    The rows are ``simulate``'s, drawn, estimated and summed one block of
    at most ``DEFAULT_BLOCK`` rows at a time, so memory is
    O(``DEFAULT_BLOCK``·(n + m)) whatever ``N``. The sums run in block
    order: a campaign of at most ``DEFAULT_BLOCK`` rows sums as one array
    does, and a larger one differs from that only in rounding.

    Raises ``ValueError`` before any draw for an unknown ``method``, an MMSE
    campaign without a Gaussian prior, ``N`` that is not an integer of at
    least 1000 (a meaningful estimate), a ``seed`` that is not a
    non-negative integer (:func:`~fusionkit.matrixkit.require_integer`, whose
    ``int`` the result keeps) or a noise covariance that
    :func:`~fusionkit.matrixkit.admit_symmetric` does not admit as the
    model's ``n x n`` (naming it); :class:`NonFinite` if the empirical error
    covariance or its standard errors overflow; the condition refusal of
    :func:`~fusionkit.matrixkit.require_conditioned` if the largest draw,
    through the data and the estimate, exceeds the error's standard
    deviation past its limit, where rounding hides the noise and the errors
    would read rounding alone.
    """
    N, seed = require_integer(N, "N", 1000), require_integer(seed, "seed")
    if not isinstance(method, str) or (method := method.lower()) not in ("ml", "wls", "mmse"):
        raise ValueError(f"unknown method {method!r}, expected 'ml', 'wls' or 'mmse'")
    if method == "mmse" and not isinstance(prior, GaussianPrior):
        raise ValueError("MMSE requires Gaussian prior")
    white = _whitened_model(model, noise)
    require_prior_size(prior, model.m)
    A = model.A
    gain, offset, ref = estimators._affine(model, white, prior if method == "mmse" else None)

    def estimate(X):
        return X @ gain.T + offset

    emp, std_err, peak = _error_moments(A, prior, white[0], estimate, N, seed)
    require_finite((emp, std_err), "the empirical error covariance or its standard errors")
    # a draw rounds, in the data and in its estimate, by eps times its size
    # through both: over the error's deviation, that size is the condition
    size = peak * (1.0 + np.abs(gain) @ np.abs(A).sum(axis=1)) / np.sqrt(np.diag(ref))
    require_conditioned(float(np.max(size)), "the draws' size over the error's deviation")
    slack = 5.0 * float(np.max(std_err))

    rel_err = float(np.linalg.norm(emp - ref, "fro")) / max(
        float(np.linalg.norm(ref, "fro")), 1e-300
    )
    check = _crlb_check(emp, ref, slack)
    return CampaignResult(
        scenario_id=scenario_id,
        method=method,
        empirical_error_cov=emp,
        theoretical_ref=ref,
        frobenius_rel_err=rel_err,
        N=N,
        seed=seed,
        crlb_check=check,
    )


def _error_moments(A, prior: SourcePrior, L: np.ndarray, estimate, N: int, seed: int):
    """``EᵀE/N``, its per-entry standard errors and the largest ``|S|`` entry.

    ``E = S − estimate(X)`` on ``simulate``'s rows.

    ``L`` is the noise's Cholesky factor, which ``simulate`` draws through. The N rows are
    drawn, estimated and summed one block of at most ``DEFAULT_BLOCK`` rows
    at a time, so no array grows with ``N``.
    """
    streams = draw_streams(seed)
    gram = np.zeros((A.shape[1], A.shape[1]))
    fourth = np.zeros_like(gram)
    peak = 0.0
    for start in range(0, N, DEFAULT_BLOCK):
        S, V = draw_rows(prior, L, min(DEFAULT_BLOCK, N - start), streams)
        E = S - estimate(S @ A.T + V)
        gram += E.T @ E
        fourth += (E**2).T @ (E**2)
        peak = max(peak, float(np.abs(S).max()))
    emp = gram / N
    # the variance of each entry of the second-moment estimate
    var = np.maximum(fourth / N - emp**2, 0.0)
    return emp, np.sqrt(var / N), peak


def _crlb_check(emp: np.ndarray, bound: np.ndarray, slack: float) -> CrlbCheck:
    """The dominance verdict of ``emp`` over the CRLB ``bound`` = ``J^-1``."""
    min_eig = float(np.linalg.eigvalsh(emp - bound)[0])
    return CrlbCheck(min_eig=min_eig, passed=min_eig >= -slack, slack=slack)


def campaign_to_csv(results: list[CampaignResult]) -> str:
    """Flat CSV: one row per scenario."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["scenario_id", "method", "N", "seed", "rel_err", "crlb_min_eig", "passed"]
    )
    for r in results:
        writer.writerow(
            [
                r.scenario_id,
                r.method,
                r.N,
                r.seed,
                repr(r.frobenius_rel_err),
                repr(r.crlb_check.min_eig),
                r.crlb_check.passed,
            ]
        )
    return buf.getvalue()
