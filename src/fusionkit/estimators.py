"""WLS, ML and Gaussian MMSE source estimators with closed-form error covariances.

For the linear model with noise covariance S, the weighted least squares
solution with weight W = S^-1 coincides with the Gaussian maximum
likelihood estimate; its error covariance is the inverse of the SNR
matrix ``A^T S^-1 A``. The Gaussian-prior posterior mean adds prior
information to the same normal equations. The normal and posterior
matrices are inverted through the Cholesky guard of
:func:`~fusionkit.matrixkit.derived_factor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularNormalMatrix, SingularPosterior
from .information import crlb, snr_matrix
from .matrixkit import admit_symmetric, derived_factor, noise_whitener, require_array, symmetrize
from .model import GaussianPrior, LinearModel, require_prior_size


@dataclass(frozen=True)
class Estimate:
    """Point estimate of the source vector plus its closed-form error covariance."""

    s_hat: np.ndarray
    error_cov: np.ndarray | None
    method: str  # "WLS" | "ML" | "MMSE"


def _solve_normal(N: np.ndarray, rhs: np.ndarray, what: str, error=SingularNormalMatrix):
    """``N^-1 rhs`` and ``N^-1 = L^-T L^-1``, from one guarded inverse Cholesky factor of ``N``."""
    L_inv = derived_factor(N, what, error)
    inverse = L_inv.T @ L_inv
    return inverse @ rhs, inverse


def _whitened(model: LinearModel, sigma, x) -> tuple[np.ndarray, np.ndarray]:
    """``(L^-1 A, L^-1 x)``: ``[A | x]`` whitened by one product with the inverse Cholesky factor.

    The noise is admitted first (:func:`~fusionkit.matrixkit.noise_whitener`),
    then ``x``, as a vector of the model's ``n`` channels
    (:func:`~fusionkit.matrixkit.require_array`).
    """
    white = noise_whitener(model, sigma)[1] @ np.column_stack(
        [model.A, require_array(x, "x", (model.n,))])
    return white[:, :-1], white[:, -1]


def wls_estimate(model: LinearModel, W, x) -> Estimate:
    """Weighted least squares estimate ``(A^T W A)^-1 A^T W x``.

    The attached error covariance is ``(A^T W A)^-1``, which is the
    estimation error covariance exactly when W is the inverse of the
    noise covariance (the weighting this library uses throughout).

    Raises
    ------
    ValueError
        Naming the weight matrix unless
        :func:`~fusionkit.matrixkit.admit_symmetric` admits ``W`` as a finite
        real ``n x n`` matrix, symmetric within the tolerance; then naming
        ``x`` unless it is a finite real vector of the model's ``n`` channels
        (a scalar for one; :func:`~fusionkit.matrixkit.require_array`); both
        before any product.
    SingularNormalMatrix
        If ``A^T W A`` is indefinite (an indefinite weight) or has condition
        above 1e12 (rank-deficient mixing or fewer channels than sources).
        No silent pseudo-inverse
        fallback: singularity here means the data carry no information
        on some source direction.
    """
    W = admit_symmetric(W, "weight matrix", model.n)
    x = require_array(x, "x", (model.n,))
    A = model.A
    WA = W @ A
    N = symmetrize(A.T @ WA)
    s_hat, error_cov = _solve_normal(N, WA.T @ x, "wls_estimate: normal matrix")
    return Estimate(s_hat=s_hat, error_cov=error_cov, method="WLS")


def ml_estimate(model: LinearModel, sigma, x) -> Estimate:
    """Gaussian maximum likelihood estimate; equals WLS with W = sigma^-1.

    Whitens ``[A | x]`` with the inverse Cholesky factor of the noise
    covariance (a different numerical route than :func:`wls_estimate`,
    which forms the weight matrix explicitly). The error covariance is the
    inverse of the SNR matrix ``A^T sigma^-1 A``. The factor is memoized on
    ``model`` for a bit-equal ``sigma``
    (:func:`~fusionkit.matrixkit.noise_whitener`), as a pair memoizes its
    factorization: :func:`mmse_gaussian_estimate` or :func:`snr_matrix` on
    the same model and noise reuses it, with bit-identical answers.

    Raises
    ------
    ValueError
        Naming the noise covariance unless
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it as a finite
        real ``n x n`` matrix, symmetric within the tolerance; then naming
        ``x`` unless it is a finite real vector of the model's ``n`` channels
        (a scalar for one; :func:`~fusionkit.matrixkit.require_array`).
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    SingularNormalMatrix
        If the SNR matrix has condition above 1e12.
    """
    white_A, white_x = _whitened(model, sigma, x)
    snr = white_A.T @ white_A
    s_hat, error_cov = _solve_normal(snr, white_A.T @ white_x, "ml_estimate: normal matrix")
    return Estimate(s_hat=s_hat, error_cov=error_cov, method="ML")


def mmse_gaussian_estimate(model: LinearModel, sigma, prior: GaussianPrior, x) -> Estimate:
    """Posterior mean of a Gaussian source under Gaussian noise.

    The information form ``(G^-1 + snr)^-1 (A^T sigma^-1 x + G^-1 mu)``,
    with G the prior covariance, attaching the posterior covariance
    ``(G^-1 + snr)^-1``; the quadratic-cost weight of the Bayes risk never
    enters because the conditional mean is optimal for every PSD weight.
    The SNR matrix and ``A^T sigma^-1 x`` come from ``[A | x]`` whitened
    with the inverse Cholesky factor of the noise covariance, under the
    noise guard of :func:`ml_estimate`, and memoized on ``model`` for a
    bit-equal ``sigma`` as there.

    Raises
    ------
    ValueError
        If the prior's source count is not the model's ``m``; then as
        :func:`ml_estimate` refuses the noise covariance and ``x``.
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    SingularPosterior
        If the posterior information matrix has condition above 1e12.
    """
    require_prior_size(prior, model.m)
    white_A, white_x = _whitened(model, sigma, x)
    gamma_inv = prior.info_matrix()
    posterior_info = gamma_inv + white_A.T @ white_A
    s_hat, error_cov = _solve_normal(
        posterior_info,
        white_A.T @ white_x + gamma_inv @ prior.mean,
        "posterior information matrix",
        SingularPosterior,
    )
    return Estimate(s_hat=s_hat, error_cov=error_cov, method="MMSE")


def error_covariance(model: LinearModel, sigma) -> np.ndarray:
    """Closed-form ML/WLS error covariance ``(A^T sigma^-1 A)^-1``: ``crlb(snr_matrix(...))``.

    Raises
    ------
    ValueError, NotPD, Singular
        As :func:`snr_matrix` refuses the noise covariance.
    SingularInformation
        If the SNR matrix is numerically singular.
    """
    return crlb(snr_matrix(model, sigma))
