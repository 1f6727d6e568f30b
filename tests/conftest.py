"""Shared scenario generators for the test suite.

Random instances are drawn with bounded condition numbers so that the
tight dual-route tolerances (1e-12 relative agreement and friends)
measure algebraic identity, not conditioning luck.
"""

import numpy as np
import pytest

from fusionkit import BlockCovariance, LinearModel, ModalityPair, synergy_objective


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_pd(rng, n, eig_range=(0.5, 2.0)):
    """Random PD matrix with eigenvalues uniform in ``eig_range``."""
    Q = random_orthogonal(rng, n)
    w = rng.uniform(*eig_range, size=n)
    return (Q * w) @ Q.T


def random_joint_noise(rng, n1, n2, eig_range=(0.3, 3.0)) -> BlockCovariance:
    """Random PD joint covariance split into blocks."""
    S = random_pd(rng, n1 + n2, eig_range)
    return BlockCovariance(S[:n1, :n1], S[n1:, n1:], S[:n1, n1:])


def random_conditioned_matrix(rng, n, m, sv_range=(0.5, 2.0)):
    """Random n x m matrix (n >= m) with singular values uniform in ``sv_range``."""
    U, _ = np.linalg.qr(rng.standard_normal((n, m)))
    V = random_orthogonal(rng, m)
    sv = rng.uniform(*sv_range, size=m)
    return (U * sv) @ V.T


def random_pair(rng, n1, n2, m) -> ModalityPair:
    return ModalityPair(
        first=LinearModel(rng.standard_normal((n1, m))),
        second=LinearModel(rng.standard_normal((n2, m))),
        noise=random_joint_noise(rng, n1, n2),
    )


def random_admissible_rho(rng, n1, n2, sigma_max=0.8):
    """Random cross-correlation with spectral norm exactly ``sigma_max``."""
    R = rng.standard_normal((n1, n2))
    return sigma_max * R / np.linalg.svd(R, compute_uv=False)[0]


def rel_fro(actual, expected):
    denom = max(float(np.linalg.norm(expected, "fro")), 1e-300)
    return float(np.linalg.norm(np.asarray(actual) - np.asarray(expected), "fro")) / denom


def fd_lagrangian_gradient(A_tilde, B_star, rho, lam):
    """Central-difference gradient of the placement Lagrangian, entry by entry."""

    def lagrangian(B):
        return synergy_objective(A_tilde, B, rho) - lam * float(np.sum(B * B))

    grad = np.zeros_like(B_star)
    for i in range(B_star.shape[0]):
        for j in range(B_star.shape[1]):
            h = 1e-6 * (1.0 + abs(B_star[i, j]))
            Bp = B_star.copy()
            Bp[i, j] += h
            Bm = B_star.copy()
            Bm[i, j] -= h
            grad[i, j] = (lagrangian(Bp) - lagrangian(Bm)) / (2.0 * h)
    return grad


def fd_lagrangian_stationarity(A_tilde, B_star, rho, lam, e):
    """Normalized FD-gradient norm of the Lagrangian at the solution."""
    grad = fd_lagrangian_gradient(A_tilde, B_star, rho, lam)
    return float(np.linalg.norm(grad, "fro")) / (1.0 + abs(e))


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
