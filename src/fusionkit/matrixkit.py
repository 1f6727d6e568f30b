"""Dense symmetric-matrix toolkit: Cholesky factors, guarded inverses, noise-pair factors.

All operations are pure functions on small dense arrays. A covariance is
admitted here alone. Every PSD refusal is one rule
(:func:`_require_psd`), raising :class:`NotPSD`. Every inverse refuses
its matrix by one rule (:func:`_require_pd_conditioned`): :class:`NotPD`
unless the smallest eigenvalue is positive, :class:`Singular` when the
condition exceeds ``SINGULAR_CONDITION``. Every inverse, whitening and
sampling root comes from the Cholesky factor: :func:`inverse_factor`
returns ``L`` and ``L^-1`` for ``M = L L^T``, so ``M^-1 = L^-T L^-1``,
``L^-1 X`` whitens ``X`` and ``z L^T`` draws rows of covariance ``M``
from standard normal rows ``z``; its guard reads a condition bound off
``L^-1`` and takes one ``eigvalsh`` only where the bound is inconclusive.
The Schur complements, the estimators' normal and posterior matrices and
the information matrix of ``information.crlb`` go through it by
:func:`derived_inverse`, and so does a noise pair:
:func:`factor_noise`, the one place a joint noise covariance is factorized,
makes the pair's four refusals and whitens each marginal with its inverse
Cholesky factor, as :func:`noise_whitener`, the one admission of a single
modality's noise, whitens it, so whitening is decided in one place. Each
caller builds from the pair's factors only the products it reads. A
single modality's factors are memoized on its model for a bit-equal noise.
A whitened pair's answers do not depend on the basis of the whitening;
the symmetric roots, which fix the basis that ``place`` prints, are taken by
``information.prewhiten`` alone.

Symmetry is a property of how a matrix is built, not a pass repeated on
it. A matrix is symmetrized once, where it is admitted
(:func:`admit_symmetric`, which returns an input within the symmetry
tolerance as its symmetric part, and an exact one as it is) or where a
product that is not a Gram product forms it (``A^T M A`` evaluated as
``(A^T M) A``, a sum of such products, an eigen-decomposition's
``V diag(w) V^T``). A Gram product ``X^T X`` or ``X X^T`` of one array
needs no pass: numpy evaluates it as a rank-k update of one triangle and
mirrors that triangle, so it is symmetric to the last bit, as is a sum or
difference of such matrices, entry by entry. So :func:`derived_inverse`'s
``L^-T L^-1``, the Schur complements of :func:`factor_noise`, the marginal
inverses, ``I - rho^T rho`` and the estimators' normal and posterior
matrices are exact as built, and :func:`inverse_factor` reads its input
as it is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FormDisagreement, NonFinite, NotPD, NotPSD, Singular

# Condition estimate above which a solve is refused as numerically singular.
SINGULAR_CONDITION = 1e12

# Relative Frobenius tolerance between two algebraic forms of one quantity.
FORM_TOL = 1e-8

# Forms built on an inverse of condition number kappa are each accurate to
# about kappa * machine epsilon; their tolerance is this many times that
# when it exceeds FORM_TOL.
FORM_CONDITION_SLACK = 100.0

_EPS = float(np.finfo(float).eps)

# Relative eigenvalue tolerance of the one PSD rule (:func:`_require_psd`): a
# negative eigenvalue within PSD_EIG_TOL * ||M||_2 of zero is rounding, at
# every scale of M.
PSD_EIG_TOL = 1e-10


def _symmetry_verdict(M, name: str) -> tuple[np.ndarray, bool]:
    """``M`` as a float array, refused unless square, finite and symmetric; and if it is exactly.

    Symmetry tolerance is ``1e-12 * max(min(1, max|M|), |M_ij|)`` per entry,
    the same verdict for every multiple of ``M`` below unit scale; an exactly
    symmetric ``M`` is accepted by one comparison with its transpose.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} has non-finite entries")
    if np.array_equal(M, M.T):  # exactly symmetric: the per-entry test cannot fail
        return M, True
    scale = np.maximum(min(1.0, float(np.max(np.abs(M)))), np.abs(M))
    if np.any(np.abs(M - M.T) > 1e-12 * scale):
        worst = float(np.max(np.abs(M - M.T)))
        raise ValueError(f"{name} is not symmetric (max asymmetry {worst:.3e})")
    return M, False


def require_symmetric(M, name: str = "matrix") -> np.ndarray:
    """Validate that ``M`` is square, finite and symmetric; return it, as given, as float array.

    The rule is :func:`_symmetry_verdict`'s. A matrix that is kept as given
    (a prior's covariance or information) is checked here; one that a
    factorization reads is admitted by :func:`admit_symmetric`.
    """
    return _symmetry_verdict(M, name)[0]


def admit_symmetric(M, name: str = "matrix") -> np.ndarray:
    """:func:`require_symmetric`, returning ``M`` symmetric to the last bit.

    An exactly symmetric ``M`` is returned as it is; one within the
    tolerance as its symmetric part ``(M + M^T) / 2``, so it is answered as
    that part. This is where an input matrix is symmetrized, once.
    """
    M, exact = _symmetry_verdict(M, name)
    return M if exact else symmetrize(M)


def require_noise(sigma, n: int, name: str = "noise covariance") -> np.ndarray:
    """:func:`admit_symmetric`, and refuse ``sigma`` unless it is ``n x n``.

    Every entry point that takes a model and its noise covariance (or
    weight) admits it here, before any draw or product.
    """
    sigma = admit_symmetric(sigma, name=name)
    if sigma.shape[0] != n:
        raise ValueError(f"{name} is {sigma.shape}, model has {n} channels")
    return sigma


def _read_only_copy(M) -> np.ndarray:
    """A float copy of ``M`` that owns its data and refuses writes.

    Model and covariance types keep their arrays this way, so a result
    computed from them, or memoized on them, cannot go stale when the
    caller later writes to the array it passed in.
    """
    M = np.array(M, dtype=float)
    M.setflags(write=False)
    return M


def symmetrize(M) -> np.ndarray:
    """Return the symmetric part (M + M^T) / 2, of each matrix of a (..., k, k) stack."""
    M = np.asarray(M, dtype=float)
    return 0.5 * (M + M.swapaxes(-1, -2))


def _require_psd(w: np.ndarray, name: str) -> float:
    """The one PSD rule, on the ascending eigenvalues ``w`` of a symmetric ``M``.

    ``M`` is indefinite, and refused as :class:`NotPSD` carrying ``w[0]``,
    iff ``w[0] < 0`` and ``w[0] <= -PSD_EIG_TOL * max(|w[0]|, |w[-1]|)``: a
    tolerance relative to ``||M||_2`` alone, so the verdict does not depend
    on the units of ``M``, and a zero matrix is PSD. Returns ``w[0]``.
    """
    lo = float(w[0])
    if lo < 0.0 and lo <= -PSD_EIG_TOL * max(-lo, abs(float(w[-1]))):
        raise NotPSD(f"{name} is not PSD (min eigenvalue {lo:.3e})", min_eigenvalue=lo)
    return lo


def _require_pd_conditioned(w: np.ndarray, name: str, scale: float = 0.0) -> float:
    """The refusal rule of every inverse, on the ascending eigenvalues ``w`` of ``M``.

    :class:`NotPD` unless ``w[0] > 0``; :class:`Singular` when the condition
    ``max(scale, w[-1]) / w[0]``, which is returned, exceeds ``SINGULAR_CONDITION``.
    """
    if w[0] <= 0.0:
        raise NotPD(f"{name} is not PD (min eigenvalue {w[0]:.3e})", min_eigenvalue=float(w[0]))
    cond = max(scale, float(w[-1])) / float(w[0])
    require_conditioned(cond, name)
    return cond


# Size up to which a triangular inverse is one LAPACK inverse; larger ones
# are split in 2x2 blocks, since numpy has no triangular inverse or solve.
_TRIANGULAR_BLOCK = 64

# A Cholesky bound must clear SINGULAR_CONDITION by this factor to certify a
# matrix. The computed factor is exact for a matrix within about n eps ||M||
# of M, which moves the bound by a relative n eps kappa (under 0.1 at n = 400
# near the limit); the margin keeps that from passing a matrix that the
# eigenvalue guard would refuse.
_CERTIFY_MARGIN = 2.0


@functools.lru_cache(maxsize=_TRIANGULAR_BLOCK)
def _strict_upper(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of an ``n x n`` matrix."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _tril_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular ``L``, lower triangular itself.

    ``[[L11, 0], [L21, L22]]^-1 = [[X11, 0], [-X22 L21 X11, X22]]`` with
    ``Xii = Lii^-1``, recursively; a block of at most ``_TRIANGULAR_BLOCK``
    rows is inverted by ``np.linalg.inv``, and the rounding above its
    diagonal is zeroed through the cached mask of its size.
    """
    n = L.shape[0]
    if n <= _TRIANGULAR_BLOCK:
        X = np.linalg.inv(L)
        X[_strict_upper(n)] = 0.0
        return X
    k = n // 2
    X11, X22 = _tril_inverse(L[:k, :k]), _tril_inverse(L[k:, k:])
    X = np.zeros_like(L)
    X[:k, :k] = X11
    X[k:, k:] = X22
    X[k:, :k] = -X22 @ (L[k:, :k] @ X11)
    return X


def inverse_factor(
    M, name: str = "matrix", scale: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor ``L`` of a symmetric PD ``M`` and its inverse ``L^-1``.

    ``M^-1 = L^-T L^-1``, ``L^-1 X`` whitens ``X`` and ``z L^T`` draws rows
    of covariance ``M`` from standard normal rows ``z``. ``M`` must be
    symmetric to the last bit, as an admitted matrix or one built
    symmetric is: it is not symmetrized here. The guard refuses
    ``M`` when its condition ``max(scale, lambda_max) / lambda_min`` exceeds
    ``SINGULAR_CONDITION``; ``scale`` measures ``M`` against a larger
    matrix it was derived from. It needs no eigenvalue when the bound
    ``max(scale, ||M||_F) ||L^-1||_F^2`` clears the limit (by
    ``_CERTIFY_MARGIN``): ``||M||_F >= lambda_max`` and
    ``||L^-1||_F^2 = tr(M^-1) >= 1 / lambda_min``. Where the bound is
    inconclusive, or Cholesky fails, one ``eigvalsh`` decides by
    :func:`_require_pd_conditioned`.

    Raises
    ------
    NotPD
        If the smallest eigenvalue is not positive; the error carries it.
    Singular
        If the condition exceeds ``SINGULAR_CONDITION``; the error carries it.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = None
    else:
        L_inv = _tril_inverse(L)
        bound = max(scale, float(np.linalg.norm(M))) * float(np.vdot(L_inv, L_inv))
        if bound <= SINGULAR_CONDITION / _CERTIFY_MARGIN:
            return L, L_inv
    cond = _require_pd_conditioned(np.linalg.eigvalsh(M), name, scale)
    if L is None:  # a breakdown the eigenvalues do not show: refused as singular
        raise Singular(f"{name}: Cholesky factorization broke down (cond~{cond:.3e})",
                       condition=cond)
    return L, L_inv


def noise_whitener(model, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``(L, L^-1)`` for a modality's noise covariance ``sigma = L L^T``, as :func:`inverse_factor`.

    The one admission of a single modality's noise: :func:`require_noise`
    checks ``sigma`` against the model's ``n`` channels (``ValueError``) and
    symmetrizes one within the symmetry tolerance, then
    :func:`inverse_factor` refuses it as :class:`NotPD` or
    :class:`Singular` and factorizes it. ``L^-1 X`` whitens ``X``,
    ``sigma^-1 = L^-T L^-1``, and ``simulate`` draws the noise as ``z L^T``.

    The factors are memoized on ``model``, in its ``_whitener`` slot
    ``(key, L, L^-1)``, with a private copy of the ``sigma`` given as the
    key, as a pair memoizes its factorization: a later call with a
    ``sigma`` of the same shape and the same bits (``-0.0`` is not ``0.0``)
    returns the same read-only ``L`` and ``L^-1``, which is what a fresh
    call would compute. Any other ``sigma`` is admitted afresh and replaces
    the slot as a whole, so a concurrent reader sees the old key and
    factors or the new ones. A refusal is not memoized: every call on a
    refused ``sigma`` raises again.
    """
    memo = model._whitener
    given = np.asarray(sigma, dtype=float)
    if memo is not None:
        key, L, L_inv = memo
        if given.shape == key.shape and np.array_equal(given.view(np.int64), key.view(np.int64)):
            return L, L_inv
    key = given.copy()  # private to the memo, never handed out
    L, L_inv = inverse_factor(require_noise(key, model.n), "noise covariance")
    L.setflags(write=False)
    L_inv.setflags(write=False)
    object.__setattr__(model, "_whitener", (key, L, L_inv))
    return L, L_inv


def derived_inverse(
    M, what: str, error: type[Singular] = Singular, scale: float = 0.0
) -> np.ndarray:
    """``M^-1 = L^-T L^-1`` by :func:`inverse_factor`, every refusal raised as ``error``.

    ``M`` (a Schur complement, an estimator's normal or posterior matrix, an
    information matrix) is
    derived from other matrices, so an indefinite one is their collapse: it
    is refused as ``error``, a :class:`Singular` subtype, with infinite condition.
    The inverse is the Gram product ``L^-T L^-1``, symmetric to the last bit.
    """
    try:
        _, L_inv = inverse_factor(M, what, scale)
    except NotPD as exc:
        raise error(f"{what} is numerically singular (cond~inf)", condition=np.inf) from exc
    except Singular as exc:
        if isinstance(exc, error):
            raise
        raise error(str(exc), condition=exc.condition) from exc
    return L_inv.T @ L_inv


def forms_agree(form1, form2, what: str, condition: float = 1.0) -> np.ndarray:
    """Return ``form1`` once it has been checked against ``form2``.

    The two are algebraically distinct forms of one quantity, or stacks
    (..., k, k) of such pairs; the relative Frobenius distance
    ``||form1 - form2|| / (1 + ||form1||)`` of every matrix must stay
    below ``FORM_TOL``. Forms that apply an inverse of condition number
    ``condition`` cannot agree better than about ``condition`` times
    machine epsilon, so the tolerance becomes
    ``FORM_CONDITION_SLACK * condition * eps`` where that is larger.

    Raises
    ------
    NonFinite
        If either form has a non-finite entry.
    FormDisagreement
        If they disagree; the error carries the largest relative distance.
    """
    require_finite(form1, what)
    require_finite(form2, what)
    dist = np.linalg.norm(form1 - form2, axis=(-2, -1))
    err = float(np.max(dist / (1.0 + np.linalg.norm(form1, axis=(-2, -1)))))
    if err >= FORM_TOL and err >= FORM_CONDITION_SLACK * condition * _EPS:
        raise FormDisagreement(
            f"{what} disagree (relative error {err:.3e})", max_relative_error=err
        )
    return form1


def require_finite(M, what: str) -> None:
    """Raise :class:`NonFinite` if ``M`` has a NaN or infinite entry.

    Comparisons with NaN are false, so a tolerance check alone would pass it.
    """
    if not np.isfinite(M).all():
        raise NonFinite(f"non-finite entries in {what}")


def require_conditioned(cond: float, what: str) -> None:
    """Refuse a solve whose condition estimate exceeds ``SINGULAR_CONDITION``.

    Raises
    ------
    Singular
        Carrying the condition, if ``cond`` is not finite or exceeds the limit.
    """
    if not np.isfinite(cond) or cond > SINGULAR_CONDITION:
        raise Singular(f"{what} is numerically singular (cond~{cond:.3e})", condition=cond)


@dataclass(frozen=True)
class BlockCovariance:
    """Joint noise covariance of two sensor groups.

    ``sigma_v`` (n1 x n1) and ``sigma_u`` (n2 x n2) are the marginal
    covariances, ``sigma_vu`` (n1 x n2) the cross-covariance. The
    assembled joint matrix must be symmetric positive definite. Each block
    is kept as a read-only float copy: writing to the arrays passed in
    changes nothing here, and writing to a block raises ``ValueError``. The
    marginals are admitted by :func:`admit_symmetric`, so they, and the
    joint matrix, are symmetric to the last bit.
    """

    sigma_v: np.ndarray
    sigma_u: np.ndarray
    sigma_vu: np.ndarray

    def __post_init__(self):
        sv = _read_only_copy(admit_symmetric(self.sigma_v, name="sigma_v"))
        su = _read_only_copy(admit_symmetric(self.sigma_u, name="sigma_u"))
        svu = _read_only_copy(self.sigma_vu)
        if svu.shape != (sv.shape[0], su.shape[0]):
            raise ValueError(
                f"sigma_vu shape {svu.shape} does not match blocks "
                f"({sv.shape[0]}, {su.shape[0]})"
            )
        if not np.all(np.isfinite(svu)):
            raise ValueError("sigma_vu has non-finite entries")
        object.__setattr__(self, "sigma_v", sv)
        object.__setattr__(self, "sigma_u", su)
        object.__setattr__(self, "sigma_vu", svu)

    @property
    def n1(self) -> int:
        return self.sigma_v.shape[0]

    @property
    def n2(self) -> int:
        return self.sigma_u.shape[0]

    @property
    def sigma_uv(self) -> np.ndarray:
        return self.sigma_vu.T

    def joint(self) -> np.ndarray:
        """Assemble the full (n1+n2) x (n1+n2) covariance."""
        return np.block([[self.sigma_v, self.sigma_vu], [self.sigma_uv, self.sigma_u]])

    def check_pd(self) -> float:
        """Minimum eigenvalue of the joint matrix; :class:`NotPSD` if it is indefinite.

        Indefinite is decided by :func:`_require_psd`. A singular
        (rank-deficient) joint passes: its minimum eigenvalue is rounding
        noise of either sign, and a positive tolerance would also refuse
        valid near-singular pairs.
        :func:`factor_noise` refuses a singular joint as :class:`Singular`
        through its Schur-complement guard when the pair is used.
        """
        return _require_psd(np.linalg.eigvalsh(self.joint()), "joint covariance")


def factor_noise(block: BlockCovariance):
    """The four decisions on a joint noise covariance, in the order they refuse.

    Per marginal, :func:`inverse_factor` gives the PD check (:class:`NotPD`),
    the condition guard (:class:`Singular` above ``SINGULAR_CONDITION``) and
    the inverse Cholesky factor; per Schur complement, :func:`_schur_inverse`
    gives the inverse under a guard on its condition relative to its block.
    Returns ``(L_v^-1, L_u^-1, W_v, F, G)``: the lower-triangular inverse
    Cholesky factors of the marginals (``sigma = L L^T``), the pair's one
    whitening; ``W_v = L_v^-1 sigma_vu``; and the inverse Schur complements
    ``F = (sigma_u - sigma_uv sigma_v^-1 sigma_vu)^-1`` and
    ``G = (sigma_v - sigma_vu sigma_u^-1 sigma_uv)^-1``.
    """
    sv, su, svu = block.sigma_v, block.sigma_u, block.sigma_vu
    _, L_v_inv = inverse_factor(sv, "sigma_v")
    _, L_u_inv = inverse_factor(su, "sigma_u")
    # Each Schur complement subtracts a Gram matrix of a half-whitened
    # cross-covariance: sigma_uv sigma_v^-1 sigma_vu = W_v^T W_v. Near the
    # condition limit its smallest eigenvalue is far more accurate than with
    # the explicit inverse in the middle.
    W_v = L_v_inv @ svu
    W_u = svu @ L_u_inv.T
    F = _schur_inverse(su - W_v.T @ W_v, su, "Schur complement of sigma_u block")
    G = _schur_inverse(sv - W_u @ W_u.T, sv, "Schur complement of sigma_v block")
    return L_v_inv, L_u_inv, W_v, F, G


def _schur_inverse(S: np.ndarray, parent: np.ndarray, what: str) -> np.ndarray:
    """Inverse of the Schur complement ``S`` of ``parent``, by :func:`derived_inverse`.

    A Schur complement tiny relative to its parent block signals joint
    collapse even when it is well conditioned in isolation, so its
    condition is measured against ``lambda_max(parent)``. ``||parent||_F``,
    never below it, stands in for that scale wherever it lets ``S`` through:
    a larger scale only refuses more. Where it refuses, one ``eigvalsh`` of
    the parent gives ``lambda_max`` and the decision, with its error and
    condition.
    """
    try:
        return derived_inverse(S, what, scale=float(np.linalg.norm(parent)))
    except Singular:
        return derived_inverse(S, what, scale=float(np.linalg.eigvalsh(parent)[-1]))
