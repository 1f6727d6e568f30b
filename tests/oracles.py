"""Brute-force oracles of the library's closed forms, for the tests alone.

``fisher_finite_difference`` is acceptance criterion 03's oracle: the
negated central-difference Hessian of the Gaussian log-likelihood, which
for a linear model is the SNR matrix ``A^T Sigma^-1 A`` up to roundoff.
``check_crlb_dominance`` asks the campaign's dominance verdict of any
empirical covariance and information matrix. ``mmse_gain`` is the gain form
of the Gaussian posterior mean, the oracle of the information form that the
estimators and the error campaign apply, and ``wls`` the weighted least
squares solution of the normal equations, ML's oracle at ``W = Sigma^-1``.
None is on a runtime path: the library answers by its closed forms, and the
campaign calls its own verdict (``harness._crlb_check``) directly.
"""

import numpy as np

from fusionkit import LinearModel, NonFinite, NonlinearModel, crlb
from fusionkit.harness import CrlbCheck, _crlb_check
from fusionkit.information import _as_matrix
from fusionkit.matrixkit import (
    admit_symmetric, inverse_factor, require_array, require_real, symmetrize,
)


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
    if not isinstance(model, (LinearModel, NonlinearModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    require_real(step, "step", "nonzero")
    s0 = require_array(s0, "s0", (model.m,))
    x = None if x is None else require_array(x, "x", (model.n,))
    _, L_inv = inverse_factor(admit_symmetric(sigma, "noise covariance", model.n),
                              "noise covariance")
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


def mmse_gain(A, cov, sigma) -> np.ndarray:
    """Gain ``G A^T (A G A^T + sigma)^-1`` of the posterior mean ``mu + gain (x - A mu)``.

    An LU solve with the innovation covariance ``A G A^T + sigma``, which
    loses accuracy as that matrix's condition grows.
    """
    innovation_cov = symmetrize(A @ cov @ A.T + sigma)
    return cov @ A.T @ np.linalg.solve(innovation_cov, np.eye(A.shape[0]))


def wls(A, W, x) -> np.ndarray:
    """Weighted least squares ``(A^T W A)^-1 A^T W x``, by an LU solve of the normal equations.

    ``x`` is one observation or a stack of them, a row each.
    """
    WA = W @ A
    return np.linalg.solve(A.T @ WA, WA.T @ np.asarray(x, dtype=float).T).T
