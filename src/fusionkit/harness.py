"""Independent verification oracles: empirical error covariances,
finite-difference Fisher information, CRLB dominance checks.

This module is the brute-force counterpart to every closed form in the
library: it simulates, estimates, and accumulates second moments, then
compares against the theoretical reference. The slack for PSD dominance
checks is five times the largest per-entry Monte-Carlo standard error,
which keeps false alarms around the 1e-6 level under normal
approximation while still catching real violations.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .information import InfoMatrix, crlb
from .matrixkit import psd_inverse, require_finite, require_noise, require_symmetric, symmetrize
from .model import GaussianPrior, LinearModel, SourcePrior, simulate
from .nonlinear import NonlinearModel


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
    the posterior covariance). The CRLB dominance check compares the
    empirical covariance against the inverse total information with
    Monte-Carlo slack.
    """
    if N < 1000:
        raise ValueError("N must be at least 1e3 for a meaningful estimate")
    method = method.lower()
    if method not in ("ml", "wls", "mmse"):
        raise ValueError(f"unknown method {method!r}, expected 'ml', 'wls' or 'mmse'")
    if method == "mmse" and not isinstance(prior, GaussianPrior):
        raise ValueError("MMSE requires Gaussian prior")
    sigma = require_noise(noise, model.n)
    A = model.A
    sigma_inv = psd_inverse(sigma, name="noise covariance")
    snr = symmetrize(A.T @ sigma_inv @ A)
    require_finite(snr, "the SNR matrix")

    batch = simulate(model, prior, N, seed, noise=sigma)
    X, S = batch.observations, batch.sources

    if method in ("ml", "wls"):
        ref = crlb(InfoMatrix(snr))
        estimator = ref @ A.T @ sigma_inv
        S_hat = X @ estimator.T
        J_total = snr
    else:
        J_total = symmetrize(snr + prior.info_matrix())
        ref = crlb(InfoMatrix(J_total))
        # Gain form: a different algebraic route than the posterior
        # information form used by the estimators module.
        innovation_cov = symmetrize(A @ prior.cov @ A.T + sigma)
        gain = prior.cov @ A.T @ np.linalg.solve(innovation_cov, np.eye(model.n))
        S_hat = prior.mean + (X - prior.mean @ A.T) @ gain.T

    E = S - S_hat
    emp = symmetrize(E.T @ E / N)
    # Per-entry standard errors of the second-moment estimate.
    second = (E**2).T @ (E**2) / N
    var = np.maximum(second - emp**2, 0.0)
    std_err = np.sqrt(var / N)
    slack = 5.0 * float(np.max(std_err))

    rel_err = float(np.linalg.norm(emp - ref, "fro")) / max(
        float(np.linalg.norm(ref, "fro")), 1e-300
    )
    check = check_crlb_dominance(emp, InfoMatrix(J_total), slack)
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


def gaussian_log_likelihood(model, sigma_inv: np.ndarray, x: np.ndarray, s: np.ndarray) -> float:
    """Gaussian log-likelihood of ``x`` given sources ``s`` (constant dropped)."""
    if isinstance(model, LinearModel):
        r = x - model.A @ s
    else:
        r = x - np.atleast_1d(np.asarray(model.h(s), dtype=float))
    return -0.5 * float(r @ sigma_inv @ r)


def fisher_finite_difference(model, sigma, s0, step: float = 1e-4, x=None) -> np.ndarray:
    """Negated central-difference Hessian of the Gaussian log-likelihood.

    For a linear model the Hessian is constant in the observation, so a
    single synthetic observation suffices and the result equals the SNR
    matrix up to roundoff. For a :class:`NonlinearModel` the Hessian
    depends on the observation; pass ``x`` explicitly to average over
    draws externally (by default the noise-free observation at ``s0`` is
    used, for which the curvature term vanishes).
    """
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    sigma = require_noise(sigma, model.n)
    sigma_inv = psd_inverse(sigma, name="noise covariance")
    if x is None:
        if isinstance(model, LinearModel):
            x = model.A @ s0
        elif isinstance(model, NonlinearModel):
            x = np.atleast_1d(np.asarray(model.h(s0), dtype=float))
        else:
            raise TypeError(f"unsupported model type {type(model).__name__}")
    x = np.atleast_1d(np.asarray(x, dtype=float))

    def ll(s):
        val = gaussian_log_likelihood(model, sigma_inv, x, s)
        if not np.isfinite(val):
            raise NonFinite("log-likelihood evaluated to a non-finite value")
        return val

    m = s0.shape[0]
    H = np.zeros((m, m))
    ll0 = ll(s0)
    for k in range(m):
        ek = np.zeros(m)
        ek[k] = step
        H[k, k] = (ll(s0 + ek) - 2.0 * ll0 + ll(s0 - ek)) / step**2
        for l in range(k + 1, m):
            el = np.zeros(m)
            el[l] = step
            val = (
                ll(s0 + ek + el) - ll(s0 + ek - el) - ll(s0 - ek + el) + ll(s0 - ek - el)
            ) / (4.0 * step**2)
            H[k, l] = H[l, k] = val
    return symmetrize(-H)


def check_crlb_dominance(empirical, J, slack: float) -> CrlbCheck:
    """Check ``empirical >= J^-1`` in the PSD order up to Monte-Carlo slack.

    Passes iff the minimum eigenvalue of ``empirical - J^-1`` is at
    least ``-slack``.
    """
    emp = require_symmetric(empirical, name="empirical covariance")
    bound = crlb(J)
    min_eig = float(np.linalg.eigvalsh(symmetrize(emp - bound))[0])
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
