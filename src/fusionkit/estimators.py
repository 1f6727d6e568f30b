"""ML and Gaussian MMSE source estimators: one affine map with its error covariance.

For the linear model ``x = A s + v`` with noise covariance ``sigma = L L^T``,
the Gaussian maximum likelihood estimate (weighted least squares with the
weight ``sigma^-1``) and the Gaussian posterior mean are both affine in
``x``: ``s_hat = mu + J^-1 W^T (L^-1 x - W mu)`` with ``W = L^-1 A``. ``J``
is the SNR matrix ``W^T W`` for ML, whose ``mu`` is 0, and the SNR matrix
plus the prior's information for MMSE, whose ``mu`` is the prior mean. The
error covariance is ``J^-1 = crlb(J)`` (:func:`_information`). One
observation or a stack of them is whitened and estimated so, with no
``m x n`` gain formed. The error campaign of :mod:`~fusionkit.harness`
applies the same map with the gain folded, ``J^-1 W^T L^-1``, and the
offset ``mu - gain A mu`` (:func:`_affine`), from the same
:func:`_information`: the two differ in rounding only. ``L^-1 x``, ``W``
and ``W^T W`` come off the model's one record of its whitened noise,
memoized for a bit-equal noise
(:func:`~fusionkit.matrixkit.noise_whitener`), so ML then MMSE on one model
and noise factor the noise and whiten the model once; on a stacked model of
a factored pair that record whitens block by block off the pair's factors,
and no estimate forms an ``n x n`` matrix. ``J`` is symmetric and
finite as built, so it is wrapped as an
:class:`~fusionkit.information.InfoMatrix` without being admitted again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .information import InfoMatrix, crlb
from .matrixkit import _whiten, noise_whitener, require_array, require_finite
from .model import GaussianPrior, LinearModel, require_prior_size


@dataclass(frozen=True)
class Estimate:
    """Point estimate of the source vector (a row per observation) and its error covariance."""

    s_hat: np.ndarray
    error_cov: np.ndarray | None
    method: str  # "ML" | "MMSE"


def _information(white, prior: GaussianPrior | None) -> tuple[np.ndarray, np.ndarray]:
    """``(J^-1, mu)``: ``crlb(J)`` of the SNR matrix ``J = W^T W`` of the record ``white``, plus
    the prior's information, and the prior's mean; without a ``prior``, ``mu = 0``.

    ``J`` is symmetric as built: a Gram product, or that plus the prior's
    Gram product, checked finite. So it is wrapped as an
    :class:`~fusionkit.information.InfoMatrix`, not admitted again:
    :class:`NonFinite` if the SNR matrix, or the posterior information,
    overflows, :class:`SingularInformation`, with its null space, if ``J`` is
    numerically singular.
    """
    require_finite(white.snr, "the SNR matrix")
    if prior is None:
        return crlb(InfoMatrix._built(white.snr)), np.zeros(len(white.snr))
    with np.errstate(over="ignore"):  # an overflow is refused by name below
        J = white.snr + prior.info_matrix()
    require_finite(J, "the posterior information")
    return crlb(InfoMatrix._built(J)), prior.mean


def _affine(model: LinearModel, white, prior: GaussianPrior | None = None):
    """``(gain, offset, error_cov)`` of the estimator ``X gain^T + offset``.

    ``white`` is the record of the model's whitened noise
    (:func:`~fusionkit.matrixkit.noise_whitener`). ``gain = J^-1 W^T L^-1``
    and ``error_cov = J^-1`` (:func:`_information`); the offset is
    ``mu - gain A mu`` with a ``prior``, and 0 without one. Built for the
    error campaign, which applies it to each block of its draws; it reads
    ``L^-1``, which off a factored pair's blocks is then assembled.
    """
    ref, mu = _information(white, prior)
    gain = ref @ white.W.T @ white.L_inv
    offset = 0.0 if prior is None else mu - gain @ (model.A @ mu)
    return gain, offset, ref


def _estimate(model: LinearModel, sigma, prior: GaussianPrior | None, x) -> Estimate:
    """The affine estimate of ``x``, admitted after the noise and before ``J`` is factored.

    ``mu + J^-1 W^T (L^-1 x - W mu)`` (``mu = 0`` for ML), for one
    observation or a stack: ``L^-1 x`` is the record's whitening, so no
    ``m x n`` gain and, off a factored pair's blocks, no ``n x n`` matrix is
    formed. :func:`_affine`'s gain, which the campaign applies, is the same
    map folded; the two differ in rounding only.
    """
    white = noise_whitener(model, sigma)
    try:
        stacked = np.ndim(x) == 2
    except ValueError:  # a ragged x, which the array rule refuses by name
        stacked = False
    x = require_array(x, "x", (None, model.n) if stacked else (model.n,))
    ref, mu = _information(white, prior)
    s_hat = mu + (_whiten(white.factor, x.T).T - white.W @ mu) @ white.W @ ref
    return Estimate(s_hat=s_hat, error_cov=ref, method="ML" if prior is None else "MMSE")


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
