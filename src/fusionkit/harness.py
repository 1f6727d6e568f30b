"""The Monte-Carlo error campaign: empirical error covariances against the CRLB.

:func:`empirical_error_covariance` simulates, estimates and accumulates
second moments, then compares them with the theoretical reference, the
inverse total information, and checks that they dominate it. The MMSE
campaign estimates with the gain form ``_mmse_gain``, the oracle of the
information form that :func:`~fusionkit.estimators.mmse_gaussian_estimate`
computes. The slack for PSD dominance checks is five times the largest
per-entry Monte-Carlo standard error. That is not a calibrated false-alarm
rate: correct estimators fail it in about 1 campaign in 240 in the benchmark
(3 of 3000 at N = 2000 in an earlier review); ROADMAP item 5 plans a
verdict with a stated rate.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import Singular
from .information import DEFAULT_BLOCK, InfoMatrix, crlb
from .matrixkit import admit_symmetric, noise_whitener, require_finite, require_integer, symmetrize
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
    information, so the CRLB dominance check compares the empirical
    covariance against it, with Monte-Carlo slack, and inverts nothing more.

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
    covariance or its standard errors overflow.
    """
    N, seed = require_integer(N, "N", 1000), require_integer(seed, "seed")
    if not isinstance(method, str) or (method := method.lower()) not in ("ml", "wls", "mmse"):
        raise ValueError(f"unknown method {method!r}, expected 'ml', 'wls' or 'mmse'")
    if method == "mmse" and not isinstance(prior, GaussianPrior):
        raise ValueError("MMSE requires Gaussian prior")
    L, L_inv = noise_whitener(model, noise)
    require_prior_size(prior, model.m)
    A = model.A
    W = L_inv @ A
    snr = W.T @ W
    require_finite(snr, "the SNR matrix")

    if method in ("ml", "wls"):
        ref = crlb(InfoMatrix(snr))
        estimator = ref @ W.T @ L_inv

        def estimate(X):
            return X @ estimator.T
    else:
        ref = crlb(InfoMatrix(snr + prior.info_matrix()))
        gain = _mmse_gain(A, prior.cov, admit_symmetric(noise, "noise covariance", model.n))
        mean_x = prior.mean @ A.T

        def estimate(X):
            return prior.mean + (X - mean_x) @ gain.T

    emp, std_err = _error_moments(A, prior, L, estimate, N, seed)
    require_finite((emp, std_err), "the empirical error covariance or its standard errors")
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
    """``EᵀE/N`` and its per-entry standard errors, ``E = S − estimate(X)`` on ``simulate``'s rows.

    ``L`` is the noise's Cholesky factor, which ``simulate`` draws through. The N rows are
    drawn, estimated and summed one block of at most ``DEFAULT_BLOCK`` rows
    at a time, so no array grows with ``N``.
    """
    streams = draw_streams(seed)
    gram = np.zeros((A.shape[1], A.shape[1]))
    fourth = np.zeros_like(gram)
    for start in range(0, N, DEFAULT_BLOCK):
        S, V = draw_rows(prior, L, min(DEFAULT_BLOCK, N - start), streams)
        E = S - estimate(S @ A.T + V)
        gram += E.T @ E
        fourth += (E**2).T @ (E**2)
    emp = gram / N
    # the variance of each entry of the second-moment estimate
    var = np.maximum(fourth / N - emp**2, 0.0)
    return emp, np.sqrt(var / N)


def _mmse_gain(A, cov, sigma) -> np.ndarray:
    """Gain ``G A^T (A G A^T + sigma)^-1`` of the posterior mean ``mu + gain (x - A mu)``.

    Raises :class:`Singular`, with infinite condition, where the LU solve with
    the innovation covariance ``A G A^T + sigma`` meets an exactly zero pivot
    (numpy's ``LinAlgError``, a ``ValueError`` the CLI would read as a bad
    scenario).
    """
    innovation_cov = symmetrize(A @ cov @ A.T + sigma)
    try:
        return cov @ A.T @ np.linalg.solve(innovation_cov, np.eye(A.shape[0]))
    except np.linalg.LinAlgError:
        raise Singular("the innovation covariance is numerically singular (cond~inf)",
                       condition=np.inf) from None


def _crlb_check(emp: np.ndarray, bound: np.ndarray, slack: float) -> CrlbCheck:
    """The dominance verdict of ``emp`` over the CRLB ``bound`` = ``J^-1``."""
    min_eig = float(np.linalg.eigvalsh(emp - bound)[0])
    return CrlbCheck(min_eig=min_eig, passed=min_eig >= -slack, slack=slack)


def campaign_to_json(results: list[CampaignResult]) -> str:
    """Deterministic JSON serialization of a campaign."""
    return json.dumps([r.to_json_dict() for r in results], indent=2, sort_keys=True)


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
