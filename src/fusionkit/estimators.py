"""ML and Gaussian MMSE source estimators: one affine map with its error covariance.

For the linear model ``x = A s + v`` with noise covariance ``sigma = L L^T``,
the Gaussian maximum likelihood estimate (weighted least squares with the
weight ``sigma^-1``) and the Gaussian posterior mean are both affine in
``x``: ``s_hat = gain x + offset`` with ``gain = J^-1 W^T L^-1`` and
``W = L^-1 A``. ``J`` is the SNR matrix ``W^T W`` for ML, whose offset is 0,
and the SNR matrix plus the prior's information for MMSE, whose offset is
``mu - gain A mu``. The error covariance is ``J^-1 = crlb(J)``. :func:`_affine`
builds the three once, for both estimators and for the error campaign of
:mod:`~fusionkit.harness`, so the campaign checks the estimators themselves.
``L^-1``, ``W`` and ``W^T W`` are the model's memo for a bit-equal noise
(:func:`~fusionkit.matrixkit._whitened_model`), so ML then MMSE on one model
and noise factor the noise and whiten the model once. ``J`` is symmetric and
finite as built, so it is wrapped as an
:class:`~fusionkit.information.InfoMatrix` without being admitted again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .information import InfoMatrix, crlb
from .matrixkit import _whitened_model, require_array, require_finite
from .model import GaussianPrior, LinearModel, require_prior_size


@dataclass(frozen=True)
class Estimate:
    """Point estimate of the source vector (a row per observation) and its error covariance."""

    s_hat: np.ndarray
    error_cov: np.ndarray | None
    method: str  # "ML" | "MMSE"


def _affine(model: LinearModel, white, prior: GaussianPrior | None = None):
    """``(gain, offset, error_cov)`` of the estimator ``X gain^T + offset``.

    ``white`` is the memo of the model's noise, ``(L, L^-1, W, W^T W)`` with
    ``W = L^-1 A`` (:func:`~fusionkit.matrixkit._whitened_model`).
    ``gain = J^-1 W^T L^-1`` with ``J`` the SNR matrix ``W^T W``, plus the
    prior's information when a ``prior`` is given; the offset is then
    ``mu - gain A mu``, and 0 without one. ``J`` is symmetric as built: a Gram
    product, or that plus the prior's Gram product, checked finite. So
    ``error_cov = J^-1`` is :func:`~fusionkit.information.crlb` of ``J``
    wrapped as an :class:`~fusionkit.information.InfoMatrix`, not admitted
    again: :class:`NonFinite` if the SNR matrix, or the posterior information,
    overflows, :class:`SingularInformation`, with its null space, if ``J`` is
    numerically singular.
    """
    _, L_inv, W, snr = white
    require_finite(snr, "the SNR matrix")
    if prior is None:
        J = snr
    else:
        with np.errstate(over="ignore"):  # an overflow is refused by name below
            J = snr + prior.info_matrix()
        require_finite(J, "the posterior information")
    ref = crlb(InfoMatrix._built(J))
    gain = ref @ W.T @ L_inv
    offset = 0.0 if prior is None else prior.mean - gain @ (model.A @ prior.mean)
    return gain, offset, ref


def _estimate(model: LinearModel, sigma, prior: GaussianPrior | None, x) -> Estimate:
    """The affine estimate of ``x``, admitted after the noise and before ``J`` is factored."""
    white = _whitened_model(model, sigma)
    try:
        stacked = np.ndim(x) == 2
    except ValueError:  # a ragged x, which the array rule refuses by name
        stacked = False
    x = require_array(x, "x", (None, model.n) if stacked else (model.n,))
    gain, offset, ref = _affine(model, white, prior)
    return Estimate(s_hat=x @ gain.T + offset, error_cov=ref,
                    method="ML" if prior is None else "MMSE")


def ml_estimate(model: LinearModel, sigma, x) -> Estimate:
    """Gaussian maximum likelihood estimate ``J^-1 A^T sigma^-1 x``; equals WLS with W = sigma^-1.

    ``x`` is one observation of the model's ``n`` channels, or a ``(k, n)``
    stack of them, estimated as one product into a ``(k, m)`` ``s_hat``. The
    error covariance is the inverse of the SNR matrix ``J = A^T sigma^-1 A``.
    The noise factor, the whitened model ``W = L^-1 A`` and the SNR matrix
    ``W^T W`` are memoized on ``model`` for a bit-equal ``sigma``
    (:func:`~fusionkit.matrixkit.noise_whitener`), as a pair memoizes its
    factorization: :func:`mmse_gaussian_estimate` or :func:`snr_matrix` on
    the same model and noise reuses them, with bit-identical answers.

    Raises
    ------
    ValueError
        Naming the noise covariance unless
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it as a finite
        real ``n x n`` matrix, symmetric within the tolerance; then naming
        ``x`` unless it is a finite real vector of the model's ``n`` channels
        (a scalar for one) or a stack of such rows
        (:func:`~fusionkit.matrixkit.require_array`).
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    NonFinite
        If the SNR matrix overflows.
    SingularInformation
        As :func:`~fusionkit.information.crlb` refuses the SNR matrix, with
        the null space of the source directions the data do not see.
    """
    return _estimate(model, sigma, None, x)


def mmse_gaussian_estimate(model: LinearModel, sigma, prior: GaussianPrior, x) -> Estimate:
    """Posterior mean of a Gaussian source under Gaussian noise.

    The information form ``mu + J^-1 A^T sigma^-1 (x - A mu)`` with the
    posterior information ``J = G^-1 + A^T sigma^-1 A``, G the prior
    covariance, attaching the posterior covariance ``J^-1``; the
    quadratic-cost weight of the Bayes risk never enters because the
    conditional mean is optimal for every PSD weight. ``x`` and the noise are
    taken as :func:`ml_estimate` takes them, its factor memoized on ``model``
    as there.

    Raises
    ------
    ValueError
        If the prior's source count is not the model's ``m``; then as
        :func:`ml_estimate` refuses the noise covariance and ``x``.
    NotPD, Singular
        As :func:`ml_estimate` raises them.
    NonFinite
        If the SNR matrix, or its sum with the prior's information, the
        posterior information, overflows.
    SingularInformation
        If the posterior information matrix is numerically singular.
    """
    require_prior_size(prior, model.m)
    return _estimate(model, sigma, prior, x)
