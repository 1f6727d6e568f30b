"""SNR matrices, Fisher/total information, CRLB, joint two-modality information.

The SNR matrix ``A^T Sigma^-1 A`` is the Fisher information of the
linear-Gaussian model and the multichannel extension of the scalar
signal-to-noise ratio. For two sensor groups with cross-correlated
noise, the joint information is computed through four independent
algebraic routes (block inverse of the joint covariance, two Schur
quadratic forms, and the prewhitened representation) which are
cross-validated on every call, as are the synergy matrices against
``J_joint - J_single``, by :func:`~fusionkit.matrixkit.require_agreement`:
their agreement is this module's core self-test, and a disagreement, an
ill-conditioned input, is raised as :class:`RouteDisagreement`. The routes
read only :func:`~fusionkit.matrixkit.factor_noise`'s Cholesky factors: all
but the prewhitened one are Gram products or sums of them, symmetric as built;
it solves with ``I - rho^T rho`` and is symmetrized. Rho itself, its guard,
``sigma_max(rho)``, ``K`` and ``K'``, is one record (:class:`_CrossCorrelation`)
for the pair, placement and the nonlinear forms: the pair's and the nonlinear
forms' guard and ``sigma_max`` come from one ``eigvalsh`` of ``rho^T rho``, the
Gram matrix ``I - rho^T rho`` is built from, and their singular values from a
values-only SVD only when they are read; placement's from its one full SVD.
The information matrices this module builds (the joint information, the SNR
matrix, the estimators' posterior information) are symmetric and finite as
built, so they are wrapped as :class:`InfoMatrix` without being admitted again;
a caller's matrix is admitted.

:func:`mc_moments` is the one Monte-Carlo reduction, shared with the
nonlinear module: it runs seed-split blocks of prior draws one after
another and adds their sums in block order, so an estimate depends only
on its seed; its variance adds per-block centred sums, so it has no
cancellation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Inadmissible, NotPD, RouteDisagreement, Singular, SingularInformation
from .matrixkit import (
    SINGULAR_CONDITION,
    _form_scale,
    _frobenius,
    _require_pd_conditioned,
    _whitened_model,
    admit_symmetric,
    factor_noise,
    inverse_factor,
    require_agreement,
    require_finite,
    require_integer,
    symmetrize,
)
from .model import LinearModel, ModalityPair, SourcePrior, require_prior_size

# sigma_max(rho) at or above this is flagged near-singular (not an error).
NEAR_SINGULAR_RHO = 1.0 - 1e-8

# Prior draws per Monte-Carlo block.
DEFAULT_BLOCK = 8192

# lambda_max(rho^T rho) above which subnormal rounding in the Gram matrix is
# below eps of it, so that sqrt(lambda_max) is sigma_max(rho) to a few eps.
_GRAM_FLOOR = float(np.finfo(float).tiny) / float(np.finfo(float).eps)


@dataclass(frozen=True)
class InfoMatrix:
    """Symmetric information matrix.

    ``matrix`` is admitted by :func:`~fusionkit.matrixkit.admit_symmetric`
    (a ``ValueError`` naming the info matrix unless it is a finite real
    square matrix, symmetric within the tolerance). The constructor checks
    symmetry only, not PSD: a PSD check at every construction would add an
    eigen-solve to each answer.
    ``near_singular`` marks joint results computed with the whitened
    noise cross-correlation close to unitary (information blow-up regime).
    A matrix the library builds symmetric and finite is wrapped by
    :meth:`_built`, which does not admit it again.
    """

    matrix: np.ndarray
    near_singular: bool = False

    def __post_init__(self):
        object.__setattr__(self, "matrix", admit_symmetric(self.matrix, "info matrix"))

    @classmethod
    def _built(cls, matrix: np.ndarray, near_singular: bool = False) -> "InfoMatrix":
        """An :class:`InfoMatrix` of a matrix the library built symmetric and finite, not
        admitted again: a Gram product, a sum of such, or a symmetrized one, checked finite."""
        info = object.__new__(cls)
        info.__dict__.update(matrix=matrix, near_singular=near_singular)
        return info

    @property
    def m(self) -> int:
        return self.matrix.shape[0]


class _CrossCorrelation:
    """The whitened cross-correlation ``rho`` taken apart once: guard, ``K`` and ``K'``.

    Holds ``rho``, ``cap = I - rho^T rho``, built from the Gram matrix
    ``G = rho^T rho``, ``gap``, the ascending eigenvalues of ``cap``, and
    ``sigma_max``. Without ``full``, one ``eigvalsh`` of ``G`` gives both:
    ``gap = 1 - lambda(G)`` and ``sigma_max = sqrt(lambda_max(G))``, within a few
    eps of the SVD's; the read-only descending singular values ``s`` are a
    values-only SVD taken on first read. A ``full`` record, placement's, reads
    both singular bases, so it takes one full SVD (``rho = U S Vt``) and reads
    ``s``, ``sigma_max = s[0]`` and ``gap`` (``1 - s^2``, then 1 for each column
    of ``rho`` past ``s``) off it; a values-only record has ``U = Vt = None``.
    ``K = cap^-1`` and ``K' = (I - rho rho^T)^-1`` are applied by solves (an
    explicit inverse loses up to ten times more near a unitary rho);
    ``I - rho rho^T`` is formed on first use, and ``K`` and ``K'`` once asked for,
    each kept; a refused rho keeps neither inverse, so every use raises again.
    """

    def __init__(self, rho: np.ndarray, full: bool = False):
        self.rho = rho
        G = rho.T @ rho
        self.cap = np.eye(rho.shape[1]) - G
        if full:
            self.U, self.s, self.Vt = np.linalg.svd(rho)
            self.s.setflags(write=False)
            self.sigma_max = float(self.s[0])
            self.gap = np.ones(rho.shape[1])
            self.gap[: self.s.size] -= self.s**2
        else:
            self.U = self.Vt = None
            lam = np.linalg.eigvalsh(G)
            self.gap = 1.0 - lam[::-1]
            top = float(lam[-1])
            # squares below the normal range lose their relative precision:
            # a nonzero rho that small reads sigma_max off its SVD
            self.sigma_max = float(np.sqrt(top)) if top > _GRAM_FLOOR or not rho.any() \
                else float(self.s[0])

    @functools.cached_property
    def s(self) -> np.ndarray:
        """The values-only SVD of rho, read-only (a ``full`` record sets ``s`` in ``__init__``)."""
        s = np.linalg.svd(self.rho, compute_uv=False)
        s.setflags(write=False)
        return s

    @functools.cached_property
    def k_norm(self) -> float:
        """The guard of ``K`` and ``K'`` (:class:`Inadmissible` if ``sigma_max >= 1``, else the one
        rule of every inverse on ``gap``), which sets ``condition = cond(cap)``, and their
        2-norm ``1 / (1 - sigma_max^2)``."""
        _admissible_sigma_max(self.sigma_max)
        self.condition = _require_pd_conditioned(self.gap, "(I - rho^T rho)")
        return 1.0 / float(self.gap[0])

    @functools.cached_property
    def cap_prime(self) -> np.ndarray:  # I - rho rho^T
        return np.eye(self.rho.shape[0]) - self.rho @ self.rho.T

    def solve_k(self, X):
        self.k_norm  # the guard
        return np.linalg.solve(self.cap, X)

    def solve_kp(self, X):
        self.k_norm  # the guard
        return np.linalg.solve(self.cap_prime, X)

    @functools.cached_property
    def K(self) -> np.ndarray:
        return self.solve_k(np.eye(self.rho.shape[1]))

    @functools.cached_property
    def K_prime(self) -> np.ndarray:
        return self.solve_kp(np.eye(self.rho.shape[0]))


@dataclass(frozen=True)
class WhitenedPair:
    """Prewhitened two-modality model.

    ``A_tilde = W_v A``, ``B_tilde = W_u B`` and ``rho = W_v sigma_vu W_u^T``
    for whiteners with ``W sigma W^T = I``: the inverse Cholesky factors in
    :class:`PairFactorization`, the inverse symmetric roots in
    :func:`prewhiten`. The two bases differ by an orthogonal ``Q`` per
    modality (``W -> Q W``), which changes no information, synergy,
    ``sigma(rho)`` or redundancy residual. All singular values of rho are
    strictly below one whenever the joint covariance is PD. The record of rho
    (:class:`_CrossCorrelation`) is built on first use, from one ``eigvalsh``
    of ``rho^T rho``: ``sigma_max_rho`` and the guard of the routes' ``K`` read
    it. ``rho_singular_values`` is the only reader of a values-only SVD of rho,
    taken the first time it is read.
    """

    A_tilde: np.ndarray
    B_tilde: np.ndarray
    rho: np.ndarray

    @functools.cached_property
    def _cross(self) -> _CrossCorrelation:
        return _CrossCorrelation(self.rho)

    @property
    def rho_singular_values(self) -> np.ndarray:
        return self._cross.s

    @property
    def sigma_max_rho(self) -> float:
        return self._cross.sigma_max


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


def _as_matrix(J, name: str) -> np.ndarray:
    """``J``'s matrix if it is an :class:`InfoMatrix`, else ``J`` admitted as ``name``."""
    return J.matrix if isinstance(J, InfoMatrix) else admit_symmetric(J, name)


def _prior_info(prior: SourcePrior | None, m: int) -> np.ndarray:
    if prior is None:
        return np.zeros((m, m))
    require_prior_size(prior, m)
    return prior.info_matrix()


def snr_matrix(model: LinearModel, sigma) -> InfoMatrix:
    """SNR matrix ``A^T sigma^-1 A`` of a single modality, as ``W^T W`` with ``W = L^-1 A``.

    ``L`` is the Cholesky factor of the noise covariance (see
    :func:`~fusionkit.matrixkit.noise_whitener`). Its inverse, ``W`` and
    ``W^T W`` are memoized on ``model`` for a bit-equal ``sigma``, as a pair
    memoizes its factorization, so the estimators on the same model and noise
    reuse all three (:func:`~fusionkit.matrixkit._whitened_model`). The
    returned matrix is that memo's, read-only.

    Raises
    ------
    ValueError
        Naming the noise covariance unless
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it as a finite
        real ``n x n`` matrix, symmetric within the tolerance.
    NotPD
        If the noise covariance is not positive definite.
    Singular
        If its condition number exceeds ``SINGULAR_CONDITION``.
    NonFinite
        If the product overflows.
    """
    snr = _whitened_model(model, sigma)[3]
    require_finite(snr, "the SNR matrix")
    return InfoMatrix._built(snr)


def total_information(snr: InfoMatrix, prior: SourcePrior | None) -> InfoMatrix:
    """Total information ``J = snr + J_s``: measurement plus prior information.

    A ``None`` prior (or a zero information matrix) represents the
    deterministic-source case, for which the total information reduces
    to the Fisher information.

    Raises
    ------
    ValueError
        Naming ``snr`` unless it is an :class:`InfoMatrix` or
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it; or if the
        prior's source count is not its size.
    """
    S = _as_matrix(snr, "snr")
    return InfoMatrix(S + _prior_info(prior, S.shape[0]))


def crlb(J) -> np.ndarray:
    """Minimum error covariance ``J^-1`` achievable by an unbiased estimator.

    ``J^-1 = L^-T L^-1``, a Gram product, from the inverse Cholesky factor of
    :func:`~fusionkit.matrixkit.inverse_factor`. ``J`` is derived from other
    matrices, so every refusal of it is a collapse, :class:`SingularInformation`:
    an indefinite ``J`` with infinite condition.

    Raises
    ------
    ValueError
        Naming ``J`` unless it is an :class:`InfoMatrix` or
        :func:`~fusionkit.matrixkit.admit_symmetric` admits it.
    SingularInformation
        As :func:`~fusionkit.matrixkit.inverse_factor` refuses ``J``, with its
        condition; only then is ``J`` eigen-solved, for the carried orthonormal
        basis of the (near-)null space, the source directions the data carry no
        information about: eigenvalues up to ``max(w_min, max|w| / SINGULAR_CONDITION)``.
    """
    M = _as_matrix(J, "J")
    try:
        L_inv = inverse_factor(M, "information matrix")[1]
    except (NotPD, Singular) as exc:
        w, V = np.linalg.eigh(M)
        null_space = V[:, w <= max(w[0], float(np.max(np.abs(w))) / SINGULAR_CONDITION)]
        if isinstance(exc, NotPD):
            raise SingularInformation("information matrix is numerically singular (cond~inf)",
                                      null_space, np.inf) from exc
        raise SingularInformation(str(exc), null_space, exc.condition) from exc
    return L_inv.T @ L_inv


def prewhiten(pair: ModalityPair) -> WhitenedPair:
    """Whiten both modalities with the inverse symmetric roots of their noise.

    ``A_tilde = L_v^-1 A``, ``B_tilde = L_u^-1 B`` and
    ``rho = L_v^-1 sigma_vu L_u^-1`` with ``L`` the symmetric PSD root
    ``V diag(sqrt(w)) V^T`` of an eigen-solve: the basis in which ``place``
    reports ``B_star``. After whitening the noises have identity
    covariance and cross correlation ``rho``; the joint covariance being PD
    forces every singular value of rho below one. Raises :class:`NotPD` or
    :class:`Singular` as :func:`factor_noise` does: it runs the same four
    decisions (two marginal inverse factors, two Schur factors) before its
    one eigen-solve per marginal, and none of the products built on them.
    """
    return _prewhiten_with_root(pair)[0]


def _prewhiten_with_root(pair: ModalityPair) -> tuple[WhitenedPair, np.ndarray]:
    """:func:`prewhiten`, and the root ``L_u`` of ``sigma_u`` that maps ``B_tilde`` back."""
    noise = pair.noise
    factor_noise(noise)  # refuses what the pair's factorization refuses
    w_v, V_v = np.linalg.eigh(noise.sigma_v)
    w_u, V_u = np.linalg.eigh(noise.sigma_u)
    L_v_inv = symmetrize((V_v / np.sqrt(w_v)) @ V_v.T)
    L_u_inv = symmetrize((V_u / np.sqrt(w_u)) @ V_u.T)
    wp = WhitenedPair(L_v_inv @ pair.first.A, L_u_inv @ pair.second.A,
                      L_v_inv @ noise.sigma_vu @ L_u_inv)
    return wp, symmetrize((V_u * np.sqrt(w_u)) @ V_u.T)


def _admissible_sigma_max(sigma_max: float, strict: bool = True) -> None:
    limit_ok = sigma_max < 1.0 if strict else sigma_max <= 1.0 + 1e-10
    if not limit_ok:
        raise Inadmissible(
            f"sigma_max(rho) = {sigma_max:.8f} outside the admissible range",
            sigma_max=sigma_max,
        )


def _whitened_fisher(A_tilde, B_tilde, rho, solve_k) -> np.ndarray:
    """``A~^T A~ + M K M^T`` with ``M = A~^T rho - B~^T``, of a pair or of stacks (..., n, m).

    ``solve_k`` applies ``K``; on the swapped pair ``(B~, A~, rho^T)`` with
    ``K'`` this is the second published form of the same information.
    ``M K M^T`` is a solve, not a Gram product through a factor of ``K``,
    which loses up to ten times more near a unitary rho (placement and the
    nonlinear forms share this function), so the sum is symmetrized.
    """
    A_t = np.swapaxes(A_tilde, -1, -2)
    M = A_t @ rho - np.swapaxes(B_tilde, -1, -2)
    return symmetrize(A_t @ A_tilde + M @ solve_k(np.swapaxes(M, -1, -2)))


@dataclass(frozen=True)
class PairFactorization:
    """A modality pair with every block factorized once, and all that is read from it.

    Built by :meth:`from_pair`, which memoizes it on the pair: the whitened
    pair (in the basis of :func:`factor_noise`'s inverse Cholesky factors,
    not :func:`prewhiten`'s), which carries the singular values of rho, both
    SNR matrices, the four joint Fisher information routes with their
    largest disagreement (``routes``, keyed "block", "schur_f", "schur_g",
    "prewhitened"; prior information excluded), and ``S_x``, ``S_y``, each
    matrix symmetric to the last bit. Every array is read-only, as it is
    shared by each call on the pair. It holds no reference back to the pair,
    so a pair and its factorization form no reference cycle and are freed
    together as soon as the pair is dropped.
    """

    whitened: WhitenedPair
    snr_first: np.ndarray
    snr_second: np.ndarray
    routes: dict[str, np.ndarray]
    route_error: float
    S_x: np.ndarray
    S_y: np.ndarray

    @classmethod
    def from_pair(cls, pair: ModalityPair) -> "PairFactorization":
        """Factorize ``pair``; cross-check the routes and the synergy matrices once.

        The result is memoized on the pair, which is immutable, so later
        calls on the same pair return it without further work. A failure is
        not memoized: every call on a failing pair raises again.

        Raises :class:`NotPD` or :class:`Singular` as :func:`factor_noise`
        does, :class:`Singular` if ``cond(I - rho^T rho)`` exceeds
        ``SINGULAR_CONDITION``, :class:`NonFinite` if a route or a synergy
        matrix overflows, and :class:`RouteDisagreement` if two routes, or a
        synergy matrix and ``J_joint - J_single``, differ by ``FORM_TOL`` or
        more (an input conditioning problem): the routes are checked first.
        """
        if pair._factorization is not None:
            return pair._factorization
        A, B = pair.first.A, pair.second.A
        L_v_inv, L_u_inv, W_v, W_u, L_F_inv, L_G_inv = factor_noise(pair.noise)
        wp = WhitenedPair(L_v_inv @ A, L_u_inv @ B, W_v @ L_u_inv.T)
        A_t, B_t = wp.A_tilde, wp.B_tilde
        snr1, snr2 = A_t.T @ A_t, B_t.T @ B_t  # snr_matrix's products
        # F = L_F^-T L_F^-1 makes S_x = M_f F M_f^T (M_f = A~^T W_v - B^T) the
        # Gram product of D_f = Z - Y, and likewise S_y of X_g with G. J_block
        # applies the blocks of joint()^-1 term by term: A^T omega_11 A = snr1 +
        # Z^T Z, A^T omega_12 B = -Z^T Y = -C and B^T F B = Y^T Y.
        Z, Y = L_F_inv @ (W_v.T @ A_t), L_F_inv @ B
        C = Z.T @ Y
        J_block = snr1 + Z.T @ Z + Y.T @ Y - (C + C.T)
        D_f, X_g = Z - Y, L_G_inv @ (W_u @ B_t - A)
        S = np.array((D_f.T @ D_f, X_g.T @ X_g))
        snr = np.array((snr1, snr2))
        R = np.array((J_block, snr1 + S[0], snr2 + S[1],
                      _whitened_fisher(A_t, B_t, wp.rho, wp._cross.solve_k)))
        scale = max(float(np.maximum.reduce(_frobenius(R), axis=None)), 1e-300)
        worst = require_agreement(R[:, None], R, scale, "joint-information routes",
                                  RouteDisagreement)
        require_agreement(S, J_block - snr, _form_scale(J_block),
                          "synergy matrices and J_joint - J_single", RouteDisagreement)
        for M in (wp.A_tilde, wp.B_tilde, wp.rho, snr, S, R):
            M.setflags(write=False)
        (snr1, snr2), (S_x, S_y) = snr, S  # read-only views of read-only stacks
        routes = dict(zip(("block", "schur_f", "schur_g", "prewhitened"), R))
        fac = cls(wp, snr1, snr2, routes, worst, S_x, S_y)
        object.__setattr__(pair, "_factorization", fac)
        return fac

    @property
    def sigma_max_rho(self) -> float:
        return self.whitened.sigma_max_rho

    def joint_information(self, prior: SourcePrior | None = None) -> InfoMatrix:
        """Total information of the fused observation (see :func:`joint_information`)."""
        J = self.routes["prewhitened"] + _prior_info(prior, self.snr_first.shape[0])
        require_finite(J, "the joint information")
        return InfoMatrix._built(J, self.sigma_max_rho >= NEAR_SINGULAR_RHO)

    def synergy(self) -> SynergyReport:
        """The synergy matrices with their smallest eigenvalues, from one stacked ``eigvalsh``."""
        w = np.linalg.eigvalsh(np.stack((self.S_x, self.S_y)))
        return SynergyReport(S_x=self.S_x, S_y=self.S_y,
                             min_eigenvalues=(float(w[0, 0]), float(w[1, 0])))


def joint_information(pair: ModalityPair, prior: SourcePrior | None = None) -> InfoMatrix:
    """Total information of the fused two-modality observation.

    All four algebraic routes are computed and cross-validated to a
    relative Frobenius tolerance of 1e-8; the prewhitened-route value is
    returned. A whitened cross-correlation within 1e-8 of unitary sets
    the ``near_singular`` flag on the result instead of raising. Raises as
    :meth:`PairFactorization.from_pair` does, :class:`RouteDisagreement`
    when the routes disagree, and :class:`NonFinite` if the sum with the
    prior's information overflows.
    """
    return PairFactorization.from_pair(pair).joint_information(prior)


def synergy_matrices(pair: ModalityPair) -> SynergyReport:
    """Synergic information matrices of a modality pair.

    ``S_x`` is the information the second modality adds on top of the
    first, ``S_y`` the reverse. Both are quadratic forms of the inverse
    Schur complements, hence PSD; each is cross-checked against the
    difference ``J_joint - J_single`` from the route machinery.
    """
    return PairFactorization.from_pair(pair).synergy()


def block_plan(seed: int, N: int):
    """Split N draws into seed-derived blocks of ``DEFAULT_BLOCK``: [(SeedSequence, count)].

    Every Monte-Carlo estimate plans its draws here, so this is where its
    ``N`` and ``seed`` are admitted, before any draw.

    Raises
    ------
    ValueError
        If ``N`` is not an integer of at least 1, or ``seed`` not a
        non-negative integer (:func:`~fusionkit.matrixkit.require_integer`).
    """
    N, seed = require_integer(N, "N", 1), require_integer(seed, "seed")
    counts = [min(DEFAULT_BLOCK, N - lo) for lo in range(0, N, DEFAULT_BLOCK)]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    return list(zip(children, counts))


def mc_moments(prior, N: int, seed: int, integrand: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and per-entry standard error of a matrix-valued integrand.

    ``integrand`` maps a (count, m) block of prior draws to the
    (count, k, k) stack of its values. The blocks of :func:`block_plan`
    run one after another, in block order, so the estimate depends only
    on the seed. The mean is the sum of the block sums over ``N``. The
    variance is exact to rounding, with no cancellation of two large
    moments: each block adds its squares about its own mean, and the
    blocks combine by the pairwise update of Chan, Golub & LeVeque (1983).
    Returns the symmetrized mean and ``sqrt(var / N)``.
    """
    s1 = m2 = n = 0
    for ss, count in block_plan(seed, N):
        mats = integrand(prior.sample(np.random.default_rng(ss), count))
        b1 = mats.sum(axis=0)
        b2 = ((mats - b1 / count) ** 2).sum(axis=0)
        if n:  # the spread between the running mean and the block's
            b2 = b2 + (b1 / count - s1 / n) ** 2 * (n * count / (n + count))
        m2 = m2 + b2
        s1 += b1
        n += count
    return symmetrize(s1 / N), np.sqrt(m2 / N / N)


def prior_information_mc(prior: SourcePrior, N: int, seed: int) -> McInfoEstimate:
    """Monte-Carlo prior information: mean outer product of the score.

    Draws N samples from the prior and averages
    ``score(s) score(s)^T``; per-entry standard errors come from the
    sample variance of the products. Deterministic per seed: the draws
    come in the seed-split blocks of :func:`mc_moments`.

    Raises
    ------
    NoScore
        If the prior has no score function.
    NotSampleable
        If the prior cannot produce samples.
    """

    def score_outer_products(s):
        g = prior.score(s)
        return np.einsum("ki,kj->kij", g, g)

    J, std_err = mc_moments(prior, N, seed, score_outer_products)
    return McInfoEstimate(J=J, std_err=std_err, N=N, seed=seed)
