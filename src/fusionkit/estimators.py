"""WLS, ML and Gaussian MMSE source estimators with closed-form error covariances.

For the linear model with noise covariance S, the weighted least squares
solution with weight W = S^-1 coincides with the Gaussian maximum
likelihood estimate; its error covariance is the inverse of the SNR
matrix ``A^T S^-1 A``. The Gaussian-prior posterior mean adds prior
information to the same normal equations. The normal and posterior
matrices are inverted through the Cholesky guard of
:func:`~fusionkit.matrixkit.derived_inverse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularNormalMatrix, SingularPosterior
from .information import crlb, snr_matrix
from .matrixkit import derived_inverse, noise_whitener, require_noise, symmetrize
from .model import GaussianPrior, LinearModel, require_prior_size


@dataclass(frozen=True)
class Estimate:
    """Point estimate of the source vector plus its closed-form error covariance."""

    s_hat: np.ndarray
    error_cov: np.ndarray | None
    method: str  # "WLS" | "ML" | "MMSE"


def _solve_normal(N: np.ndarray, rhs: np.ndarray, what: str, error=SingularNormalMatrix):
    """``N^-1 rhs`` and ``N^-1``, from one guarded Cholesky inverse of ``N``."""
    inverse = derived_inverse(N, what, error)
    return inverse @ rhs, inverse


def _observation(model: LinearModel, x) -> np.ndarray:
    """``x`` as a float vector of the model's ``n`` channels, else ``ValueError``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (model.n,):
        raise ValueError(f"x has shape {x.shape}, expected ({model.n},)")
    return x


def wls_estimate(model: LinearModel, W, x) -> Estimate:
    """Weighted least squares estimate ``(A^T W A)^-1 A^T W x``.

    The attached error covariance is ``(A^T W A)^-1``, which is the
    estimation error covariance exactly when W is the inverse of the
    noise covariance (the weighting this library uses throughout).

    Raises
    ------
    SingularNormalMatrix
        If ``A^T W A`` is indefinite (an indefinite weight) or has condition
        above 1e12 (rank-deficient mixing or fewer channels than sources).
        No silent pseudo-inverse
        fallback: singularity here means the data carry no information
        on some source direction.
    """
    W = require_noise(W, model.n, name="weight matrix")
    x = _observation(model, x)
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
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    SingularNormalMatrix
        If the SNR matrix has condition above 1e12.
    """
    white = noise_whitener(model, sigma)[1] @ np.column_stack([model.A, _observation(model, x)])
    white_A, white_x = white[:, :-1], white[:, -1]
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
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    SingularPosterior
        If the posterior information matrix has condition above 1e12.
    """
    require_prior_size(prior, model.m)
    white = noise_whitener(model, sigma)[1] @ np.column_stack([model.A, _observation(model, x)])
    white_A, white_x = white[:, :-1], white[:, -1]
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
    SingularInformation
        If the SNR matrix is numerically singular.
    """
    return crlb(snr_matrix(model, sigma))
