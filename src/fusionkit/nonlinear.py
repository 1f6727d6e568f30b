"""Fisher/total information for nonlinear observation models.

For ``x = h(s) + v`` with Gaussian noise, the conditional Fisher
information is the prior expectation of ``D_h(s)^T Sigma^-1 D_h(s)``
with ``D_h`` the Jacobian of the map. Expectations are plain Monte Carlo
over seed-split sample blocks, run one after another by
:func:`~fusionkit.information.mc_moments`, so they depend only on the
seed; the variance of the estimate is reported, never hidden. Each
block evaluates its integrand as stacked arrays: one (count, n, m)
Jacobian array per model, whitened by one product with the inverse
Cholesky factor of its noise (for one modality, of the noise as
:func:`~fusionkit.matrixkit.admit_symmetric` admits it and
:func:`~fusionkit.matrixkit.inverse_factor` factors it, once per call; for
a pair, those of the marginals from
:func:`~fusionkit.matrixkit.factor_noise`, whose half-whitened
cross-covariance one more product turns into ``rho``), then stacked
matrix products. ``h`` itself is still called once per perturbed point.
Models with constant Jacobians reproduce the linear module exactly
because the integrand does not vary across samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FormDisagreement, NonFinite
from .information import McInfoEstimate, _CrossCorrelation, _whitened_fisher, block_plan, mc_moments
from .matrixkit import (
    BlockCovariance, _form_scale, admit_symmetric, callback_output, factor_noise, inverse_factor,
    require_agreement, require_array, require_integer, require_real,
)
from .model import SourcePrior, require_pair_shapes, require_prior_size

# Source vectors whose map evaluations are held at once: bounds the memory
# of a block's ``h`` outputs without changing any result.
JACOBIAN_CHUNK = 256


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear observation map with an analytic or numeric Jacobian.

    ``h`` maps an m-vector to an n-vector; ``jacobian``, when supplied,
    maps an m-vector to the (n, m) Jacobian. Without it, central
    differences are used. ``n`` and ``m`` are admitted by
    :func:`~fusionkit.matrixkit.require_integer` as integers of at least 1, a
    ``ValueError`` naming the field otherwise, and kept as Python ``int``.
    Unlike a linear model, it memoizes no noise: each Monte-Carlo call
    factors its noise once, a small cost beside its ``N`` Jacobians.
    """

    h: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", require_integer(self.n, "n", 1))
        object.__setattr__(self, "m", require_integer(self.m, "m", 1))

    def jac(self, s: np.ndarray) -> np.ndarray:
        """The (n, m) Jacobian at one source vector: :meth:`jacobians` of one row.

        ``s`` is admitted by :func:`~fusionkit.matrixkit.require_array` as a
        finite real vector of ``m`` entries, a ``ValueError`` naming it otherwise.
        """
        return self.jacobians(require_array(s, "s", (self.m,))[None, :])[0]

    def jacobians(self, S) -> np.ndarray:
        """Jacobians at the rows of ``S``: (count, m) -> (count, n, m).

        ``jacobian`` is called once per row, or ``h`` once per perturbed
        point (:func:`numeric_jacobian`), a chunk of rows at a time; the
        outputs are checked once per chunk.

        Raises
        ------
        ValueError
            Naming ``S`` unless :func:`~fusionkit.matrixkit.require_array`
            admits it as a finite real (count, m) array, before any evaluation;
            naming ``h`` or ``jacobian`` if it returns bools, complex numbers,
            strings or objects (:func:`~fusionkit.matrixkit.callback_output`);
            if a Jacobian does not have shape (n, m).
        NonFinite
            If an evaluation is non-finite.
        """
        S = require_array(S, "S", (None, self.m))
        D = np.empty((S.shape[0], self.n, self.m))
        for lo in range(0, S.shape[0], JACOBIAN_CHUNK):
            rows = S[lo : lo + JACOBIAN_CHUNK]
            if self.jacobian is None:
                chunk = _central_differences(self.h, rows)
            else:
                chunk = _stack(map(self.jacobian, rows), "jacobian")
            if chunk.shape[1:] != (self.n, self.m):
                raise ValueError(
                    f"Jacobian has shape {chunk.shape[1:]}, expected {(self.n, self.m)}"
                )
            if not np.all(np.isfinite(chunk)):
                raise NonFinite("Jacobian evaluation produced non-finite entries")
            D[lo : lo + len(rows)] = chunk
        return D

    @staticmethod
    def linear(A) -> "NonlinearModel":
        """Wrap a mixing matrix as a (trivially) nonlinear model.

        Raises
        ------
        ValueError
            Naming the mixing matrix, unless
            :func:`~fusionkit.matrixkit.require_array` admits ``A`` as a finite
            real 2-D array with no empty axis, as :class:`LinearModel` does.
        """
        A = require_array(A, "mixing matrix", (None, None))
        return NonlinearModel(
            h=lambda s: A @ s, n=A.shape[0], m=A.shape[1], jacobian=lambda s: A
        )


def numeric_jacobian(h, s, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of ``h`` at ``s``.

    Column k is ``[h(s + h_k e_k) - h(s - h_k e_k)] / (2 h_k)`` with the
    per-coordinate step ``1e-5 * (1 + |s_k|)`` unless ``step`` overrides it.

    Raises
    ------
    NonFinite
        If any function evaluation is non-finite.
    ValueError
        If ``step`` is not a finite nonzero number
        (:func:`~fusionkit.matrixkit.require_real`), or ``s`` not a finite real
        vector (a scalar for one source; :func:`~fusionkit.matrixkit.require_array`),
        before any evaluation; if ``h`` returns bools, complex numbers, strings or
        objects (:func:`~fusionkit.matrixkit.callback_output`, naming ``h``); or if
        it does not return vectors of one length.
    """
    if step is not None:
        require_real(step, "step", "nonzero")
    return _central_differences(h, require_array(s, "s", (None,))[None, :], step)[0]


def _central_differences(h, S: np.ndarray, step: float | None = None) -> np.ndarray:
    """Central-difference Jacobians (count, n, m) of ``h`` at the rows of ``S``.

    All 2m perturbed points of every row are built at once, each step
    added on the diagonal only, and ``h`` is called once per point, in the
    order row, coordinate, plus before minus.
    """
    count, m = S.shape
    steps = 1e-5 * (1.0 + np.abs(S)) if step is None else np.full(S.shape, step, dtype=float)
    points = np.broadcast_to(S[:, None, None, :], (count, m, 2, m)).copy()
    k = np.arange(m)
    points[:, k, 0, k] += steps
    points[:, k, 1, k] -= steps
    F = _stack(map(h, points.reshape(-1, m)), "h")
    if F.ndim == 1:
        F = F[:, None]  # scalar outputs of a one-channel map
    if F.ndim != 2:
        raise ValueError(f"h must return a vector, got outputs of shape {F.shape[1:]}")
    F = F.reshape(count, m, 2, F.shape[1])
    finite = np.isfinite(F).all(axis=(2, 3))
    if not finite.all():
        k_bad = int(np.argwhere(~finite)[0][1])
        raise NonFinite(f"h evaluated to non-finite values near coordinate {k_bad}")
    cols = (F[:, :, 0] - F[:, :, 1]) / (2.0 * steps)[:, :, None]
    return np.ascontiguousarray(np.swapaxes(cols, 1, 2))


def _stack(outputs, what: str) -> np.ndarray:
    """One float array from a sequence of same-shape outputs of the callback ``what``, never
    broadcast, admitted by :func:`~fusionkit.matrixkit.callback_output`.

    Each output's dtype is admitted, not only the stack's, so one bool, complex,
    string or object output refuses the chunk instead of being promoted with the
    real ones (a bool to 0 or 1); Python floats and ints are real by their type.
    """
    outputs = list(outputs)  # a callback's own ValueError is not relabelled
    try:
        stacked = np.array(outputs)
    except ValueError as exc:
        raise ValueError(f"{what} returned outputs of different shapes: {exc}") from exc
    if not set(map(type, outputs)) <= {float, int}:  # a bool is neither
        for dtype in {np.asarray(out).dtype for out in outputs}:
            callback_output(np.empty(0, dtype), what)
    return callback_output(stacked, what)


def fisher_nonlinear(
    model: NonlinearModel, sigma, prior: SourcePrior, N: int, seed: int
) -> McInfoEstimate:
    """Monte-Carlo conditional Fisher information of a nonlinear model.

    Averages ``D_h(s)^T Sigma^-1 D_h(s) = W^T W`` over N prior draws, with
    ``W = L^-1 D_h(s)`` whitened by the inverse Cholesky factor of Sigma as
    in :func:`~fusionkit.information.snr_matrix`: Sigma is admitted by
    :func:`~fusionkit.matrixkit.admit_symmetric` as the model's ``n x n`` and
    factored by :func:`~fusionkit.matrixkit.inverse_factor`, which refuses it
    as :class:`NotPD` or :class:`Singular`, before any draw. The result is
    deterministic per seed. Whenever the Jacobian is constant it is exact:
    every draw gives the same matrix, and the standard error is zero to
    rounding, about machine epsilon times ``|J|`` at every scale.
    """
    return _fisher_moments(model, sigma, prior, N, seed, with_prior=False)


def total_information_nonlinear(
    model: NonlinearModel, sigma, prior: SourcePrior, N: int, seed: int
) -> McInfoEstimate:
    """Total information: Monte-Carlo Fisher term plus the prior information.

    Both terms are expectations over the same source distribution: the
    measurement and prior contributions add, but they are not separable
    the way they are in the linear case. The arguments are admitted as
    :func:`fisher_nonlinear` admits them; then a prior with no information
    matrix is refused (:class:`NoPriorInfo`), before any draw or evaluation
    of ``h``.
    """
    return _fisher_moments(model, sigma, prior, N, seed, with_prior=True)


def _fisher_moments(model, sigma, prior, N, seed, with_prior: bool) -> McInfoEstimate:
    """:func:`fisher_nonlinear`'s estimate, plus the prior's information ``with_prior``,
    which is read after every argument is admitted and before any draw."""
    require_prior_size(prior, model.m)
    _, L_inv = inverse_factor(admit_symmetric(sigma, "noise covariance", model.n),
                              "noise covariance")
    plan = block_plan(seed, N)
    info = prior.info_matrix() if with_prior else None

    def fisher_integrand(S):
        W = L_inv @ model.jacobians(S)
        return np.swapaxes(W, 1, 2) @ W

    J, std_err = mc_moments(prior, plan, fisher_integrand)
    return McInfoEstimate(J=J if info is None else J + info, std_err=std_err, N=N, seed=seed)


def joint_information_nonlinear(
    h: NonlinearModel,
    g: NonlinearModel,
    noise: BlockCovariance,
    prior: SourcePrior,
    N: int,
    seed: int,
) -> McInfoEstimate:
    """Monte-Carlo joint Fisher information of two nonlinear modalities.

    Whitens both maps by products with the inverse Cholesky factors of
    their marginal noise covariances, as the linear pair's factorization
    does, then averages the whitened quadratic form over prior draws.
    Both published algebraic forms of the whitened joint Fisher information,
    ``_whitened_fisher`` of the pair with ``K = (I - rho^T rho)^-1`` and of
    the swapped pair with ``K' = (I - rho rho^T)^-1``, are evaluated for
    every sample and must agree to 1e-8 relative; their mean is taken from
    the first.
    Prior information is added when the prior exposes it; a prior that
    can only be sampled contributes zero. The block sizes are checked as
    :class:`~fusionkit.model.ModalityPair` checks them, the prior's source
    dimension by :func:`~fusionkit.model.require_prior_size`, and the noise is
    factorized by :func:`factor_noise`, so those checks and its
    :class:`NotPD` and :class:`Singular` guards apply before any sample is drawn.
    """
    require_pair_shapes(h, g, noise)
    require_prior_size(prior, h.m)
    L_v_inv, L_u_inv, W_v, *_ = factor_noise(noise)
    cross = _CrossCorrelation(W_v @ L_u_inv.T)
    rho, K_a, K_b = cross.rho, cross.K, cross.K_prime

    def joint_integrand(S):
        Dh = L_v_inv @ h.jacobians(S)  # whitened Jacobians, (count, n1, m)
        Dg = L_u_inv @ g.jacobians(S)  # whitened Jacobians, (count, n2, m)
        form1 = _whitened_fisher(Dh, Dg, rho, K_a.__matmul__)
        form2 = _whitened_fisher(Dg, Dh, rho.T, K_b.__matmul__)
        require_agreement(form1, form2, _form_scale(form1),
                          "joint nonlinear information forms per sample", FormDisagreement)
        return form1

    J, std_err = mc_moments(prior, block_plan(seed, N), joint_integrand)
    if prior.has_info:
        J = J + prior.info_matrix()
    return McInfoEstimate(J=J, std_err=std_err, N=N, seed=seed)
