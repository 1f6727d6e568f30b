"""Independent verification oracles: empirical error covariances,
finite-difference Fisher information, CRLB dominance checks.

This module is the brute-force counterpart to every closed form in the
library: it simulates, estimates, and accumulates second moments, then
compares against the theoretical reference. The MMSE campaign estimates
with the gain form ``_mmse_gain``, the oracle of the information form
that :func:`~fusionkit.estimators.mmse_gaussian_estimate` computes. The
slack for PSD dominance checks is five times the largest per-entry
Monte-Carlo standard error. That is not a calibrated false-alarm rate:
correct estimators fail it in about 1 campaign in 240 in the benchmark
(3 of 3000 at N = 2000 in an earlier review); ROADMAP item 5 plans a
verdict with a stated rate.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .information import DEFAULT_BLOCK, InfoMatrix, _as_matrix, crlb
from .matrixkit import (
    admit_symmetric, noise_whitener, require_array, require_finite, require_integer, require_real,
    symmetrize,
)
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
    model's ``n x n`` (naming it).
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
    """Gain ``G A^T (A G A^T + sigma)^-1`` of the posterior mean ``mu + gain (x - A mu)``."""
    innovation_cov = symmetrize(A @ cov @ A.T + sigma)
    return cov @ A.T @ np.linalg.solve(innovation_cov, np.eye(A.shape[0]))


def _noise_free(model, s) -> np.ndarray:
    """The noise-free observation at sources ``s``: ``A s``, or ``h(s)`` as a vector."""
    if isinstance(model, LinearModel):
        return model.A @ s
    return np.atleast_1d(np.asarray(model.h(s), dtype=float))


def gaussian_log_likelihood(model, sigma_inv: np.ndarray, x: np.ndarray, s: np.ndarray) -> float:
    """Gaussian log-likelihood of ``x`` given sources ``s`` (constant dropped)."""
    r = x - _noise_free(model, s)
    return -0.5 * float(r @ sigma_inv @ r)


def fisher_finite_difference(model, sigma, s0, step: float = 1e-4, x=None) -> np.ndarray:
    """Negated central-difference Hessian of the Gaussian log-likelihood.

    For a linear model the Hessian is constant in the observation, so a
    single synthetic observation suffices and the result equals the SNR
    matrix up to roundoff. For a :class:`NonlinearModel` the Hessian
    depends on the observation; pass ``x`` explicitly to average over
    draws externally (by default the noise-free observation at ``s0`` is
    used, for which the curvature term vanishes). Any other model type
    raises ``TypeError``; a ``step`` that is not a finite nonzero number
    (:func:`~fusionkit.matrixkit.require_real`), an ``s0`` that is not a
    finite real vector of the model's ``m`` sources or an ``x`` that is not
    one of its ``n`` channels (a scalar for one;
    :func:`~fusionkit.matrixkit.require_array`) raises ``ValueError``, before
    any evaluation.
    """
    from .nonlinear import NonlinearModel  # here, so a campaign does not import nonlinear

    if not isinstance(model, (LinearModel, NonlinearModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    require_real(step, "step", "nonzero")
    s0 = require_array(s0, "s0", (model.m,))
    x = None if x is None else require_array(x, "x", (model.n,))
    _, L_inv = noise_whitener(model, sigma)
    sigma_inv = L_inv.T @ L_inv
    if x is None:
        x = _noise_free(model, s0)

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
    return -H


def check_crlb_dominance(empirical, J, slack: float) -> CrlbCheck:
    """Check ``empirical >= J^-1`` in the PSD order up to Monte-Carlo slack.

    Passes iff the minimum eigenvalue of ``empirical - J^-1`` is at
    least ``-slack``.

    Raises
    ------
    ValueError
        Before ``J`` is inverted: naming ``slack`` unless it is a finite
        non-negative number (:func:`~fusionkit.matrixkit.require_real`), then
        ``J`` unless it is an :class:`InfoMatrix` or
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it, then the
        empirical covariance unless that admits it at ``J``'s size, which the
        message gives.
    """
    require_real(slack, "slack", "non-negative")
    M = _as_matrix(J, "J")
    emp = admit_symmetric(empirical, "empirical covariance", M.shape[0])
    return _crlb_check(emp, crlb(M), slack)


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
