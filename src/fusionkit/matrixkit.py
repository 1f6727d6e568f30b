"""Dense symmetric-matrix toolkit: Cholesky factors, guarded inverses, noise-pair factors.

All operations are pure functions on small dense arrays. Every public
scalar and array argument is admitted here alone: a count or a seed by
:func:`require_integer`, a budget, a displacement, a step or a tolerance by
:func:`require_real`, every array by :func:`require_array` and a callback's
output by :func:`callback_output`, each refusal a ``ValueError`` that names
the argument or the callback. A mixing matrix, a
cross-covariance, a mean, an observation, a source point or a whitened
input is admitted by :func:`require_array` directly; a covariance, a weight
or an information matrix by :func:`admit_symmetric`, which is that rule at
``n x n`` followed by the symmetry verdict. Every PSD refusal is one rule
(:func:`_require_psd`), raising :class:`NotPSD`. Every inverse refuses
its matrix by one rule (:func:`_require_pd_conditioned`), a Schur
complement's included: :class:`NotPD` unless the smallest eigenvalue is
positive, :class:`Singular` when the condition exceeds
``SINGULAR_CONDITION``; a Schur complement's condition is measured
against the largest eigenvalue of its parent block, and a smallest
eigenvalue within rounding of that is a collapse, :class:`Singular` with
infinite condition. Every inverse, whitening and
sampling root comes from the Cholesky factor: :func:`inverse_factor`
returns ``L`` and ``L^-1`` for ``M = L L^T``, so ``M^-1 = L^-T L^-1``,
``L^-1 X`` whitens ``X`` and ``z L^T`` draws rows of covariance ``M``
from standard normal rows ``z``; its guard reads a condition bound off
``L^-1`` and decides on one factorization: only where the bound is
inconclusive does it take one ``eigvalsh``, and one more of a Schur
complement's parent block.
The information matrix of ``information.crlb``, which the estimators and
the error campaign invert, goes through it, and so do a noise pair and its
Schur complements:
:func:`factor_noise`, the one place a joint noise covariance is factorized,
makes the pair's four refusals and whitens each marginal with its inverse
Cholesky factor, as :func:`noise_whitener`, the one admission of a single
modality's noise, whitens it, so whitening is decided in one place. Each
caller builds from the pair's factors only the products it reads. A
single modality's factors are memoized on its model for a bit-equal noise,
and a linear model's whitened matrix and its Gram matrix beside them.
A whitened pair's answers do not depend on the basis of the whitening;
the symmetric roots, which fix the basis that ``place`` prints, are taken by
``information.prewhiten`` alone.

Two computations of one quantity agree by one rule, :func:`require_agreement`:
the joint-information routes and the synergy matrices (refused as
:class:`RouteDisagreement`), and two published forms of a gradient or of a
per-sample information (:class:`FormDisagreement`).

Symmetry is a property of how a matrix is built, not a pass repeated on
it. A matrix is symmetrized once, where it is admitted
(:func:`admit_symmetric`, which returns an input within the symmetry
tolerance as its symmetric part, and an exact one as :func:`require_array`
returns it) or where a
product that is not a Gram product forms it (``A^T M A`` evaluated as
``(A^T M) A``, a sum of such products, an eigen-decomposition's
``V diag(w) V^T``). A Gram product ``X^T X`` or ``X X^T`` of one array
needs no pass: numpy evaluates it as a rank-k update of one triangle and
mirrors that triangle, so it is symmetric to the last bit, as is a sum or
difference of such matrices, entry by entry. So ``L^-T L^-1``, the Schur
complements of :func:`factor_noise`, the pair's information matrices,
``I - rho^T rho`` and the SNR and posterior information matrices are
exact as built, and :func:`inverse_factor` reads its input as it is given.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FusionKitError, NonFinite, NotPD, NotPSD, Singular

# Condition estimate above which a solve is refused as numerically singular.
SINGULAR_CONDITION = 1e12

# Relative Frobenius tolerance of the one agreement rule (:func:`require_agreement`).
FORM_TOL = 1e-8

# Computations built on an inverse of condition number kappa are each
# accurate to about kappa * machine epsilon; their tolerance is this many
# times that when it exceeds FORM_TOL.
FORM_CONDITION_SLACK = 100.0

_EPS = float(np.finfo(float).eps)

# Relative eigenvalue tolerance of the one PSD rule (:func:`_require_psd`): a
# negative eigenvalue within PSD_EIG_TOL * ||M||_2 of zero is rounding, at
# every scale of M.
PSD_EIG_TOL = 1e-10

_FLOAT_MAX = float(np.finfo(float).max)


def require_integer(x, name: str, minimum: int = 0) -> int:
    """``x`` as an ``int``: the one admission of a count or a seed.

    A Python ``int`` is read by its exact type, so a bool (an ``int`` to
    Python, but no count) is not one.

    Raises
    ------
    ValueError
        Naming ``name``, unless ``x`` is a Python or numpy integer of at least
        ``minimum``: a bool, a float, even an integral one, and anything else
        are refused.
    """
    if type(x) is not int and not isinstance(x, np.integer) or x < minimum:
        raise ValueError(f"{name} must be an integer of at least {minimum}, got {x!r}")
    return int(x)


def require_real(x, name: str, rule: str):
    """``x`` as given: the one admission of a real scalar (a budget, a step, a tolerance).

    ``rule`` is ``"positive"``, ``"non-negative"`` or ``"nonzero"``. A Python
    number is read by its exact type, so a bool is none, and a valid one costs
    plain comparisons only; a numpy number one ``isinstance`` more.

    Raises
    ------
    ValueError
        Naming ``name``, unless ``x`` is a Python or numpy integer or float,
        not a bool, finite as a float and within ``rule``; an integer beyond
        float range is refused with a message that says so.
    """
    if (type(x) not in (int, float) and not isinstance(x, (np.integer, np.floating))
            or not -np.inf < x < np.inf or type(x) is int and not -_FLOAT_MAX <= x <= _FLOAT_MAX
            or not (x > 0 if rule == "positive" else x >= 0 if rule == "non-negative" else x != 0)):
        if type(x) is int and abs(x) > _FLOAT_MAX:
            raise ValueError(f"{name} is beyond float range")
        raise ValueError(f"{name} must be finite and {rule}, got {x!r}")
    return x


def require_array(x, name: str, shape: tuple) -> np.ndarray:
    """``x`` as a float array: the one admission of an array argument, symmetric ones included.

    ``shape`` gives each axis's length, ``None`` for any; a scalar stands for
    a vector of one entry. An array of integers or of floats of another
    width is converted, and a float array is returned as it is.

    Raises
    ------
    ValueError
        Naming ``name``, unless ``x`` is an array of real numbers (not of
        bools, strings or objects such as ``None``, and not ragged) of
        ``shape``, with no axis empty and every entry finite.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # numpy refuses a ragged sequence unless asked for objects
        got = "a ragged sequence"
    else:
        a = a.reshape(1) if a.ndim == 0 and shape[1:] == () else a  # a scalar: one entry
        fits = a.ndim == len(shape) and 0 not in a.shape and list(a.shape) == [
            size if want is None else want for want, size in zip(shape, a.shape)]
        if a.dtype.kind not in "iuf":
            got = f"entries of dtype {a.dtype}"
        elif not fits:
            got = f"shape {np.shape(x)}"
        elif not np.logical_and.reduce(np.isfinite(a), axis=None):
            got = "a non-finite entry"
        else:
            return a if a.dtype == np.float64 else a.astype(float)
    want = str(tuple("any" if size is None else size for size in shape)).replace("'", "")
    raise ValueError(f"{name} must be a finite real array of shape {want} with no empty axis, "
                     f"got {got}")


def callback_output(out, name: str) -> np.ndarray:
    """What the callback ``name`` (``h``, ``jacobian``, ``draw``, ``score``) returned, as a float
    array: integers converted as by :func:`require_array`; the caller checks the shape.

    Raises ``ValueError`` naming ``name`` if ``out`` holds bools, complex numbers, strings or
    objects, and numpy's own if it is a ragged sequence.
    """
    a = np.asarray(out)
    if a.dtype.kind not in "iuf":
        raise ValueError(f"{name} returned entries of dtype {a.dtype}, expected real numbers")
    return a if a.dtype == np.float64 else a.astype(float)


def admit_symmetric(M, name: str, n: int | None = None) -> np.ndarray:
    """``M`` as a float ``n x n`` matrix symmetric to the last bit.

    The one admission of a covariance, a weight and an information matrix.

    ``M`` is admitted by :func:`require_array` as ``(n, n)``, or as a square
    matrix of any size when ``n`` is ``None``. An exactly symmetric ``M`` is
    returned as :func:`require_array` returns it; one within the symmetry
    tolerance ``1e-12 * max(min(1, max|M|), |M_ij|)`` per entry, the same
    verdict for every multiple of ``M`` below unit scale, as its symmetric
    part ``(M + M^T) / 2``, so it is answered as that part. This is where an
    input matrix is symmetrized, once.

    Raises
    ------
    ValueError
        Naming ``name``: as :func:`require_array` refuses ``M``, if it is not
        square, or if it is not symmetric within the tolerance.
    """
    M = require_array(M, name, (n, n))
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    if np.array_equal(M, M.T):  # exactly symmetric: the per-entry test cannot fail
        return M
    scale = np.maximum(min(1.0, float(np.max(np.abs(M)))), np.abs(M))
    if np.any(np.abs(M - M.T) > 1e-12 * scale):
        worst = float(np.max(np.abs(M - M.T)))
        raise ValueError(f"{name} is not symmetric (max asymmetry {worst:.3e})")
    return symmetrize(M)


def _read_only_copy(M: np.ndarray) -> np.ndarray:
    """A copy of the admitted array ``M`` that owns its data and refuses writes.

    Model and covariance types keep their arrays this way, so a result
    computed from them, or memoized on them, cannot go stale when the
    caller later writes to the array it passed in.
    """
    M = M.copy()
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

    ``scale`` is the largest eigenvalue of a matrix that ``M`` was derived
    from (a Schur complement's parent block), or 0. :class:`NotPD`, carrying
    ``w[0]``, when ``w[0] <= -PSD_EIG_TOL * scale``: at ``scale = 0`` unless
    ``w[0] > 0``, and against a parent unless ``w[0]`` is within rounding of
    it. :class:`Singular` when the condition ``max(scale, w[-1]) / w[0]``,
    which is returned, exceeds ``SINGULAR_CONDITION``, and with infinite
    condition when ``w[0] <= 0`` is that rounding: the collapse of ``M``.
    """
    lo = float(w[0])
    if lo <= -PSD_EIG_TOL * scale:
        raise NotPD(f"{name} is not PD (min eigenvalue {lo:.3e})", min_eigenvalue=lo)
    cond = max(scale, float(w[-1])) / lo if lo > 0.0 else np.inf
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
    M, name: str = "matrix", parent: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor ``L`` of a symmetric PD ``M`` and its inverse ``L^-1``.

    ``M^-1 = L^-T L^-1``, ``L^-1 X`` whitens ``X`` and ``z L^T`` draws rows
    of covariance ``M`` from standard normal rows ``z``. ``M`` must be
    symmetric to the last bit, as an admitted matrix or one built
    symmetric is: it is not symmetrized here. The guard is
    :func:`_require_pd_conditioned`, with ``scale`` the largest eigenvalue
    of ``parent``, the larger matrix ``M`` was derived from (a Schur
    complement's block), or 0 without one. It needs no eigenvalue when the
    bound ``max(||parent||_F, ||M||_F) ||L^-1||_F^2`` clears the limit (by
    ``_CERTIFY_MARGIN``): a Frobenius norm is at least the largest
    eigenvalue, and ``||L^-1||_F^2 = tr(M^-1) >= 1 / lambda_min``. Where the
    bound is inconclusive, or Cholesky fails, one ``eigvalsh`` of ``M``, and
    one of ``parent`` for its largest eigenvalue, decide.

    Raises
    ------
    NotPD
        If the smallest eigenvalue is not positive (beyond rounding of
        ``parent``); the error carries it.
    Singular
        If the condition exceeds ``SINGULAR_CONDITION``; the error carries it.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        L = None
    else:
        L_inv = _tril_inverse(L)
        parent_norm = 0.0 if parent is None else float(np.linalg.norm(parent))
        bound = max(parent_norm, float(np.linalg.norm(M))) * float(np.vdot(L_inv, L_inv))
        if bound <= SINGULAR_CONDITION / _CERTIFY_MARGIN:
            return L, L_inv
    scale = 0.0 if parent is None else float(np.linalg.eigvalsh(parent)[-1])
    cond = _require_pd_conditioned(np.linalg.eigvalsh(M), name, scale)
    if L is None:  # a breakdown the eigenvalues do not show: refused as singular
        raise Singular(f"{name}: Cholesky factorization broke down (cond~{cond:.3e})",
                       condition=cond)
    return L, L_inv


def noise_whitener(model, sigma) -> tuple[np.ndarray, np.ndarray]:
    """``(L, L^-1)`` for a modality's noise covariance ``sigma = L L^T``, as :func:`inverse_factor`.

    The one admission of a single modality's noise: :func:`admit_symmetric`
    admits ``sigma`` as an ``n x n`` matrix of the model's ``n`` channels
    (``ValueError``) and symmetrizes one within the symmetry tolerance, then
    :func:`inverse_factor` refuses it as :class:`NotPD` or
    :class:`Singular` and factorizes it. ``L^-1 X`` whitens ``X``,
    ``sigma^-1 = L^-T L^-1``, and ``simulate`` draws the noise as ``z L^T``.

    The factors are memoized on ``model``, in its ``_whitener`` slot
    ``(key, L, L^-1)``, as a pair memoizes its factorization; for a linear
    model :func:`_whitened_model` adds ``W = L^-1 A`` and ``W^T W`` to it,
    ``(key, L, L^-1, W, W^T W)``. The key is a
    private copy of ``sigma`` as given when it is a float64 ``np.ndarray``,
    and of ``sigma`` as admitted otherwise. Only a float64 ``np.ndarray`` is
    compared with the key: one of its shape and bits (``-0.0`` is not
    ``0.0``) returns the same read-only ``L`` and ``L^-1``, which is what a
    fresh call would compute. Any other ``sigma`` (a list, an array of
    another dtype, other bits) is admitted first and replaces the slot as a
    whole, so a concurrent reader sees the old key and factors or the new
    ones. A refusal is not memoized: every call on a refused ``sigma``
    raises again.
    """
    memo = model._whitener
    given = type(sigma) is np.ndarray and sigma.dtype == np.float64  # only these may hit
    if memo is not None and given:
        key, L, L_inv = memo[:3]
        if sigma.shape == key.shape and np.array_equal(sigma.view(np.int64), key.view(np.int64)):
            return L, L_inv
    admitted = admit_symmetric(sigma, "noise covariance", model.n)
    L, L_inv = inverse_factor(admitted, "noise covariance")
    L.setflags(write=False)
    L_inv.setflags(write=False)
    key = (sigma if given else admitted).copy()  # private to the memo, never handed out
    object.__setattr__(model, "_whitener", (key, L, L_inv))
    return L, L_inv


def _whitened_model(model, sigma) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(L, L^-1, W, W^T W)``: :func:`noise_whitener`'s factors of a linear model's noise,
    the whitened model ``W = L^-1 A`` and its Gram matrix, the SNR matrix.

    ``W`` and ``W^T W`` are formed once per memoized noise, read-only, and kept
    in the memo beside the factor they came from, so the SNR matrix, both
    estimators and the error campaign on one model and noise form them once,
    each reading the same bits a fresh model gives. The caller checks the SNR
    matrix for overflow. The slot is replaced as a whole, so a concurrent
    reader sees a key with its own factors and products; products formed
    after another noise replaced the slot are returned, not kept.
    """
    L, L_inv = noise_whitener(model, sigma)
    memo = model._whitener
    if len(memo) == 5 and memo[2] is L_inv:
        return memo[1:]
    W = L_inv @ model.A
    snr = W.T @ W
    W.setflags(write=False)
    snr.setflags(write=False)
    if memo[2] is L_inv:
        object.__setattr__(model, "_whitener", (*memo[:3], W, snr))
    return L, L_inv, W, snr


def _frobenius(M) -> np.ndarray:
    """``np.linalg.norm(M, axis=(-2, -1))`` of a float stack to the last bit, in one reduction."""
    return np.sqrt(np.add.reduce(M * M, axis=(-2, -1)))


def _form_scale(M) -> np.ndarray:
    """``1 + _frobenius(M)``: a form check's scale (M its first form), or the synergy's."""
    return 1.0 + np.sqrt(np.add.reduce(M * M, axis=(-2, -1)))  # _frobenius inlined: one call


def require_agreement(
    first, second, scale, what: str, error: type[FusionKitError], condition: float = 1.0
) -> float:
    """The one agreement rule; returns the largest ``||first - second||_F / scale``.

    ``first`` and ``second`` broadcast to a stack (..., k, l) of pairs, and the
    check's own ``scale`` to its shape (...). The distance is refused, as
    ``error`` carrying it, when it reaches ``FORM_TOL`` and ``FORM_CONDITION_SLACK
    * condition * eps``: forms that apply an inverse of condition ``condition``
    agree only to about ``condition * eps``. A non-finite entry in either stack,
    or a difference of finite forms that overflows, is refused first, as
    :class:`NonFinite`: either makes ``first - second`` non-finite. Under
    numpy's default error state, forming that difference may also warn of
    the overflow or of ``inf - inf``; where that state raises instead, the
    refusal is still :class:`NonFinite`.
    """
    try:
        diff = first - second
    except FloatingPointError as exc:  # an overflow or inf - inf, under np.errstate "raise"
        raise NonFinite(f"non-finite entries in {what}") from exc
    if not np.logical_and.reduce(np.isfinite(diff), axis=None):
        raise NonFinite(f"non-finite entries in {what}")
    err = float(np.maximum.reduce(_frobenius(diff) / scale, axis=None))
    if err >= FORM_TOL and err >= FORM_CONDITION_SLACK * condition * _EPS:
        raise error(f"{what} disagree (max relative error {err:.3e})", max_relative_error=err)
    return err


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
    assembled joint matrix must be symmetric positive definite; ``sigma_vu``
    is admitted by :func:`require_array` (a ``ValueError`` naming it unless
    it is a finite real ``(n1, n2)`` array). Each block
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
        svu = _read_only_copy(require_array(self.sigma_vu, "sigma_vu", (len(sv), len(su))))
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
        :func:`factor_noise` refuses a singular joint as :class:`Singular`,
        an indefinite one as :class:`NotPD`, when the pair is used.
        """
        return _require_psd(np.linalg.eigvalsh(self.joint()), "joint covariance")


def factor_noise(block: BlockCovariance):
    """The four decisions on a joint noise covariance, in the order they refuse.

    Per marginal, :func:`inverse_factor` gives the PD check (:class:`NotPD`),
    the condition guard (:class:`Singular` above ``SINGULAR_CONDITION``) and
    the inverse Cholesky factor; per Schur complement, :func:`_schur_factor`
    gives it under the same guard, measured against its block. Returns
    ``(L_v^-1, L_u^-1, W_v, W_u, L_F^-1, L_G^-1)``: the lower-triangular
    inverse Cholesky factors of the marginals (``sigma = L L^T``), the pair's
    one whitening; ``W_v = L_v^-1 sigma_vu`` and ``W_u = sigma_vu L_u^-T``;
    and those of the Schur complements ``sigma_u - W_v^T W_v = L_F L_F^T``
    and ``sigma_v - W_u W_u^T = L_G L_G^T``. No inverse is formed.
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
    L_F_inv = _schur_factor(su - W_v.T @ W_v, su, "Schur complement of sigma_u block")
    L_G_inv = _schur_factor(sv - W_u @ W_u.T, sv, "Schur complement of sigma_v block")
    return L_v_inv, L_u_inv, W_v, W_u, L_F_inv, L_G_inv


def _schur_factor(S: np.ndarray, parent: np.ndarray, what: str) -> np.ndarray:
    """``L^-1`` of the Schur complement ``S = L L^T`` of ``parent``, by :func:`inverse_factor`.

    A Schur complement tiny relative to its parent block signals joint
    collapse even when it is well conditioned in isolation, so
    :func:`inverse_factor` measures it against ``parent``: its condition
    against ``lambda_max(parent)``, and a smallest eigenvalue that is not
    positive as a collapse to rounding (:class:`Singular` with infinite
    condition) unless it is negative beyond ``PSD_EIG_TOL`` times that. An
    ``S`` refused as :class:`NotPD` makes the joint noise not PD; the error
    carries its smallest eigenvalue.
    """
    try:
        return inverse_factor(S, what, parent)[1]
    except NotPD as exc:
        lo = exc.min_eigenvalue
        raise NotPD(f"joint noise covariance is not PD ({what} has min eigenvalue {lo:.3e})",
                    min_eigenvalue=lo) from exc
