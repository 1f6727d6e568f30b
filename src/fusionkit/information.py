"""SNR matrices, Fisher/total information, CRLB, joint two-modality information.

The SNR matrix ``A^T Sigma^-1 A`` is the Fisher information of the
linear-Gaussian model and the multichannel extension of the scalar
signal-to-noise ratio. For two sensor groups with cross-correlated
noise, the joint information is computed through four independent
algebraic routes (block inverse of the joint covariance, two Schur
quadratic forms, and the prewhitened representation) which are
cross-validated on every call: their agreement is this module's core
self-test, and disagreement signals an ill-conditioned input rather
than being averaged away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import block_plan, map_blocks
from .errors import NotPD, RouteDisagreement, SingularInformation
from .matrixkit import (
    SINGULAR_CONDITION,
    block_inverse,
    condition_estimate,
    psd_inverse,
    require_conditioned,
    require_symmetric,
    schur_factors,
    sym_sqrt,
    symmetrize,
)
from .model import LinearModel, ModalityPair, SourcePrior

# sigma_max(rho) at or above this is flagged near-singular (not an error).
NEAR_SINGULAR_RHO = 1.0 - 1e-8

# Relative Frobenius tolerance for the four-route cross-validation.
ROUTE_TOL = 1e-8


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric PSD information matrix with a provenance tag.

    ``kind`` is one of "snr", "fisher_conditional", "total", "joint".
    ``near_singular`` marks joint results computed with the whitened
    noise cross-correlation close to unitary (information blow-up regime).
    """

    matrix: np.ndarray
    kind: str
    near_singular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", require_symmetric(self.matrix, name="info matrix"))

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class WhitenedPair:
    """Prewhitened two-modality model.

    ``A_tilde = L_v^-1 A``, ``B_tilde = L_u^-1 B`` and
    ``rho = L_v^-1 sigma_vu L_u^-T`` where L_v, L_u are the symmetric PSD
    square roots of the marginal noise covariances. All singular values
    of rho are strictly below one whenever the joint covariance is PD.
    """

    A_tilde: np.ndarray
    B_tilde: np.ndarray
    rho: np.ndarray
    L_v: np.ndarray
    L_u: np.ndarray

    @property
    def sigma_max_rho(self) -> float:
        if not np.any(self.rho):
            return 0.0
        return float(np.linalg.svd(self.rho, compute_uv=False)[0])


@dataclass(frozen=True)
class SynergyReport:
    """Excess information each modality gains from fusing with the other.

    ``S_x = J_joint - J_first`` and ``S_y = J_joint - J_second``; both are
    PSD for every admissible scenario.
    """

    S_x: np.ndarray
    S_y: np.ndarray
    min_eigenvalues: tuple[float, float]


@dataclass(frozen=True)
class McInfoEstimate:
    """Monte-Carlo estimate of an information matrix with per-entry standard errors."""

    J: np.ndarray
    std_err: np.ndarray
    N: int
    seed: int


def _as_matrix(J) -> np.ndarray:
    return J.matrix if isinstance(J, InfoMatrix) else require_symmetric(J, name="J")


def _prior_info(prior: SourcePrior | None, m: int) -> np.ndarray:
    if prior is None:
        return np.zeros((m, m))
    J_s = prior.info_matrix()
    if J_s.shape != (m, m):
        raise ValueError(f"prior information is {J_s.shape}, expected ({m}, {m})")
    return J_s


def snr_matrix(model: LinearModel, sigma) -> InfoMatrix:
    """SNR matrix ``A^T sigma^-1 A`` of a single modality.

    Raises
    ------
    NotPD
        If the noise covariance is not positive definite.
    """
    sigma = require_symmetric(sigma, name="noise covariance")
    if sigma.shape[0] != model.n:
        raise ValueError(f"noise covariance is {sigma.shape}, model has {model.n} channels")
    min_eig = float(np.linalg.eigvalsh(sigma)[0])
    if min_eig <= 0.0:
        raise NotPD(
            f"noise covariance is not PD (min eigenvalue {min_eig:.3e})",
            min_eigenvalue=min_eig,
        )
    sigma_inv = psd_inverse(sigma, name="noise covariance")
    return InfoMatrix(symmetrize(model.A.T @ sigma_inv @ model.A), kind="snr")


def total_information(snr: InfoMatrix, prior: SourcePrior | None) -> InfoMatrix:
    """Total information ``J = snr + J_s``: measurement plus prior information.

    A ``None`` prior (or a zero information matrix) represents the
    deterministic-source case, for which the total information reduces
    to the Fisher information.
    """
    S = _as_matrix(snr)
    return InfoMatrix(S + _prior_info(prior, S.shape[0]), kind="total")


def crlb(J) -> np.ndarray:
    """Minimum error covariance ``J^-1`` achievable by an unbiased estimator.

    Raises
    ------
    SingularInformation
        If J is numerically singular; the error carries an orthonormal
        basis of the (near-)null space, i.e. the source directions the
        data carry no information about.
    """
    M = _as_matrix(J)
    w, V = np.linalg.eigh(M)
    w_max = float(np.max(np.abs(w))) if M.size else 0.0
    cutoff = w_max / SINGULAR_CONDITION
    if w_max == 0.0 or np.any(w <= cutoff):
        null = V[:, w <= cutoff] if w_max > 0.0 else V
        raise SingularInformation(
            f"information matrix is singular ({int(null.shape[1])}-dim null space)",
            null_space=null,
            condition=np.inf if w_max == 0.0 else w_max / max(float(np.min(w)), 1e-300),
        )
    return symmetrize((V / w) @ V.T)


def prewhiten(pair: ModalityPair) -> WhitenedPair:
    """Whiten both modalities with the symmetric square roots of their noise.

    After whitening the noises have identity covariance and cross
    correlation ``rho = L_v^-1 sigma_vu L_u^-T``; the joint covariance
    being PD forces every singular value of rho below one.
    """
    noise = pair.noise
    for name, S in (("sigma_v", noise.sigma_v), ("sigma_u", noise.sigma_u)):
        min_eig = float(np.linalg.eigvalsh(S)[0])
        if min_eig <= 0.0:
            raise NotPD(
                f"{name} is not PD (min eigenvalue {min_eig:.3e})", min_eigenvalue=min_eig
            )
    L_v = sym_sqrt(noise.sigma_v)
    L_u = sym_sqrt(noise.sigma_u)
    A_tilde = np.linalg.solve(L_v, pair.first.A)
    B_tilde = np.linalg.solve(L_u, pair.second.A)
    # L_u is symmetric, so sigma_vu L_u^-T solves from the right transposed.
    rho = np.linalg.solve(L_v, np.linalg.solve(L_u, noise.sigma_vu.T).T)
    return WhitenedPair(A_tilde=A_tilde, B_tilde=B_tilde, rho=rho, L_v=L_v, L_u=L_u)


def _cross_solve(M: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    require_conditioned(condition_estimate(M), what)
    return np.linalg.solve(M, rhs)


def joint_fisher_routes(pair: ModalityPair) -> dict[str, np.ndarray]:
    """Source-conditional joint Fisher information by every algebraic route.

    Returns the four routes keyed "block", "schur_f", "schur_g",
    "prewhitened" (prior information excluded; it is common to all).
    """
    A, B = pair.first.A, pair.second.A
    noise = pair.noise

    o11, o12, o21, o22 = block_inverse(noise)
    J_block = symmetrize(A.T @ o11 @ A + A.T @ o12 @ B + B.T @ o21 @ A + B.T @ o22 @ B)

    F, G = schur_factors(noise)
    sv_inv = psd_inverse(noise.sigma_v, name="sigma_v")
    su_inv = psd_inverse(noise.sigma_u, name="sigma_u")
    M_f = A.T @ sv_inv @ noise.sigma_vu - B.T
    J_f = symmetrize(A.T @ sv_inv @ A + M_f @ F @ M_f.T)
    M_g = B.T @ su_inv @ noise.sigma_uv - A.T
    J_g = symmetrize(B.T @ su_inv @ B + M_g @ G @ M_g.T)

    wp = prewhiten(pair)
    J_white = symmetrize(whitened_joint_fisher(wp.A_tilde, wp.B_tilde, wp.rho))

    return {"block": J_block, "schur_f": J_f, "schur_g": J_g, "prewhitened": J_white}


def whitened_joint_fisher(A_tilde, B_tilde, rho) -> np.ndarray:
    """Joint Fisher information in whitened coordinates.

    ``(A~^T rho - B~^T)(I - rho^T rho)^-1 (A~^T rho - B~^T)^T + A~^T A~``.
    """
    A_tilde = np.asarray(A_tilde, dtype=float)
    B_tilde = np.asarray(B_tilde, dtype=float)
    rho = np.asarray(rho, dtype=float)
    M = A_tilde.T @ rho - B_tilde.T
    cap = np.eye(rho.shape[1]) - rho.T @ rho
    quad = M @ _cross_solve(symmetrize(cap), M.T, "(I - rho^T rho)")
    return symmetrize(A_tilde.T @ A_tilde + quad)


def route_disagreement(routes: dict[str, np.ndarray]) -> float:
    """Maximum pairwise relative Frobenius distance between the routes."""
    mats = list(routes.values())
    scale = max(max(float(np.linalg.norm(M, "fro")) for M in mats), 1e-300)
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.linalg.norm(mats[i] - mats[j], "fro")) / scale)
    return worst


def joint_information(pair: ModalityPair, prior: SourcePrior | None = None) -> InfoMatrix:
    """Total information of the fused two-modality observation.

    All four algebraic routes are computed and cross-validated to a
    relative Frobenius tolerance of 1e-8; the prewhitened-route value is
    returned. A whitened cross-correlation within 1e-8 of unitary sets
    the ``near_singular`` flag on the result instead of raising.

    Raises
    ------
    RouteDisagreement
        If the routes disagree beyond tolerance (an input conditioning
        problem, not a modeling statement).
    """
    routes = joint_fisher_routes(pair)
    worst = route_disagreement(routes)
    if worst >= ROUTE_TOL:
        raise RouteDisagreement(
            f"joint-information routes disagree (max relative error {worst:.3e})",
            max_relative_error=worst,
        )
    near = prewhiten(pair).sigma_max_rho >= NEAR_SINGULAR_RHO
    J = routes["prewhitened"] + _prior_info(prior, pair.m)
    return InfoMatrix(J, kind="joint", near_singular=near)


def synergy_matrices(pair: ModalityPair) -> SynergyReport:
    """Synergic information matrices of a modality pair.

    ``S_x`` is the information the second modality adds on top of the
    first, ``S_y`` the reverse. Both are quadratic forms of the inverse
    Schur complements, hence PSD; each is cross-checked against the
    difference ``J_joint - J_single`` from the route machinery.
    """
    A, B = pair.first.A, pair.second.A
    noise = pair.noise
    F, G = schur_factors(noise)
    sv_inv = psd_inverse(noise.sigma_v, name="sigma_v")
    su_inv = psd_inverse(noise.sigma_u, name="sigma_u")
    M_f = A.T @ sv_inv @ noise.sigma_vu - B.T
    M_g = B.T @ su_inv @ noise.sigma_uv - A.T
    S_x = symmetrize(M_f @ F @ M_f.T)
    S_y = symmetrize(M_g @ G @ M_g.T)

    routes = joint_fisher_routes(pair)
    J_fisher = routes["block"]
    scale = 1.0 + float(np.linalg.norm(J_fisher, "fro"))
    snr1 = symmetrize(A.T @ sv_inv @ A)
    snr2 = symmetrize(B.T @ su_inv @ B)
    err_x = float(np.linalg.norm(S_x - (J_fisher - snr1), "fro")) / scale
    err_y = float(np.linalg.norm(S_y - (J_fisher - snr2), "fro")) / scale
    if max(err_x, err_y) >= ROUTE_TOL:
        raise RouteDisagreement(
            "synergy matrices disagree with J_joint - J_single "
            f"(relative errors {err_x:.3e}, {err_y:.3e})",
            max_relative_error=max(err_x, err_y),
        )
    eig_x = float(np.linalg.eigvalsh(S_x)[0])
    eig_y = float(np.linalg.eigvalsh(S_y)[0])
    return SynergyReport(S_x=S_x, S_y=S_y, min_eigenvalues=(eig_x, eig_y))


def prior_information_mc(prior: SourcePrior, N: int, seed: int) -> McInfoEstimate:
    """Monte-Carlo prior information: mean outer product of the score.

    Draws N samples from the prior and averages
    ``score(s) score(s)^T``; per-entry standard errors come from the
    sample variance of the products. Deterministic per seed; blocks are
    seed-split so the reduction is order-fixed.

    Raises
    ------
    NoScore
        If the prior has no score function.
    NotSampleable
        If the prior cannot produce samples.
    """
    if N < 1:
        raise ValueError("N must be positive")
    m = prior.m

    def one_block(ss, count):
        if count == 0:
            return np.zeros((m, m)), np.zeros((m, m))
        s = prior.sample(np.random.default_rng(ss), count)
        g = prior.score(s)
        prods = np.einsum("ki,kj->kij", g, g)
        return prods.sum(axis=0), (prods**2).sum(axis=0)

    sums = map_blocks(one_block, block_plan(seed, N))
    s1 = sum(b[0] for b in sums)
    s2 = sum(b[1] for b in sums)
    mean = s1 / N
    var = np.maximum(s2 / N - mean**2, 0.0)
    std_err = np.sqrt(var / N)
    return McInfoEstimate(J=symmetrize(mean), std_err=std_err, N=N, seed=seed)
