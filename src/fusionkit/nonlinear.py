"""Fisher/total information for nonlinear observation models.

For ``x = h(s) + v`` with Gaussian noise, the conditional Fisher
information is the prior expectation of ``D_h(s)^T Sigma^-1 D_h(s)``
with ``D_h`` the Jacobian of the map. Expectations are plain Monte Carlo
over seed-split sample blocks; the variance of the estimate is reported,
never hidden. Models with constant Jacobians reproduce the linear module
exactly because the integrand does not vary across samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._parallel import block_plan, map_blocks
from .errors import NonFinite
from .information import McInfoEstimate, _cross_solvers, _whiten_noise
from .matrixkit import BlockCovariance, forms_agree, psd_inverse, symmetrize
from .model import SourcePrior

__all__ = [
    "NonlinearModel",
    "McInfoEstimate",
    "numeric_jacobian",
    "fisher_nonlinear",
    "total_information_nonlinear",
    "joint_information_nonlinear",
]


@dataclass(frozen=True)
class NonlinearModel:
    """Nonlinear observation map with an analytic or numeric Jacobian.

    ``h`` maps an m-vector to an n-vector; ``jacobian``, when supplied,
    maps an m-vector to the (n, m) Jacobian. Without it, central
    differences are used.
    """

    h: Callable[[np.ndarray], np.ndarray]
    n: int
    m: int
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

    def jac(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if self.jacobian is not None:
            D = np.asarray(self.jacobian(s), dtype=float)
        else:
            D = numeric_jacobian(self.h, s)
        if D.shape != (self.n, self.m):
            raise ValueError(f"Jacobian has shape {D.shape}, expected {(self.n, self.m)}")
        if not np.all(np.isfinite(D)):
            raise NonFinite("Jacobian evaluation produced non-finite entries")
        return D

    @staticmethod
    def linear(A) -> "NonlinearModel":
        """Wrap a mixing matrix as a (trivially) nonlinear model."""
        A = np.asarray(A, dtype=float)
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
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    m = s.shape[0]
    cols = []
    for k in range(m):
        hk = step if step is not None else 1e-5 * (1.0 + abs(s[k]))
        sp = s.copy()
        sp[k] += hk
        sm = s.copy()
        sm[k] -= hk
        fp = np.atleast_1d(np.asarray(h(sp), dtype=float))
        fm = np.atleast_1d(np.asarray(h(sm), dtype=float))
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFinite(f"h evaluated to non-finite values near coordinate {k}")
        cols.append((fp - fm) / (2.0 * hk))
    return np.stack(cols, axis=1)


def _mc_matrix(prior: SourcePrior, N: int, seed: int, per_sample) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and std-error of a per-sample symmetric matrix."""

    def one_block(ss, count):
        if count == 0:
            return None
        s_block = prior.sample(np.random.default_rng(ss), count)
        mats = np.stack([per_sample(s_block[i]) for i in range(count)])
        return mats.sum(axis=0), (mats**2).sum(axis=0)

    parts = [b for b in map_blocks(one_block, block_plan(seed, N)) if b is not None]
    s1 = sum(b[0] for b in parts)
    s2 = sum(b[1] for b in parts)
    mean = s1 / N
    var = np.maximum(s2 / N - mean**2, 0.0)
    return symmetrize(mean), np.sqrt(var / N)


def fisher_nonlinear(
    model: NonlinearModel, sigma, prior: SourcePrior, N: int, seed: int
) -> McInfoEstimate:
    """Monte-Carlo conditional Fisher information of a nonlinear model.

    Averages ``D_h(s)^T Sigma^-1 D_h(s)`` over N prior draws; the result
    is deterministic per seed and exact (zero variance) whenever the
    Jacobian is constant.
    """
    if N < 1:
        raise ValueError("N must be positive")
    sigma_inv = psd_inverse(sigma, name="noise covariance")

    def per_sample(s):
        D = model.jac(s)
        return symmetrize(D.T @ sigma_inv @ D)

    J, std_err = _mc_matrix(prior, N, seed, per_sample)
    return McInfoEstimate(J=J, std_err=std_err, N=N, seed=seed)


def total_information_nonlinear(
    model: NonlinearModel, sigma, prior: SourcePrior, N: int, seed: int
) -> McInfoEstimate:
    """Total information: Monte-Carlo Fisher term plus the prior information.

    Both terms are expectations over the same source distribution: the
    measurement and prior contributions add, but they are not separable
    the way they are in the linear case.
    """
    est = fisher_nonlinear(model, sigma, prior, N, seed)
    return McInfoEstimate(
        J=est.J + prior.info_matrix(), std_err=est.std_err, N=N, seed=seed
    )


def joint_information_nonlinear(
    h: NonlinearModel,
    g: NonlinearModel,
    noise: BlockCovariance,
    prior: SourcePrior,
    N: int,
    seed: int,
) -> McInfoEstimate:
    """Monte-Carlo joint Fisher information of two nonlinear modalities.

    Whitens both maps with the symmetric square roots of their marginal
    noise covariances, then averages the whitened quadratic form over
    prior draws. Both published algebraic forms are evaluated per sample
    and must agree to 1e-8 relative; their mean is taken from the first.
    Prior information is added when the prior exposes it; a prior that
    can only be sampled contributes zero.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if h.m != g.m:
        raise ValueError(f"modalities must share the source dimension: {h.m} != {g.m}")
    L_v, L_u, rho = _whiten_noise(noise)
    n1, n2 = rho.shape
    solve_k, solve_kp, _ = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))
    K_a, K_b = solve_k(np.eye(n2)), solve_kp(np.eye(n1))

    def per_sample(s):
        Dh = np.linalg.solve(L_v, h.jac(s))  # whitened Jacobian, (n1, m)
        Dg = np.linalg.solve(L_u, g.jac(s))  # whitened Jacobian, (n2, m)
        M1 = Dh.T @ rho - Dg.T
        form1 = symmetrize(M1 @ K_a @ M1.T + Dh.T @ Dh)
        M2 = Dg.T @ rho.T - Dh.T
        form2 = symmetrize(M2 @ K_b @ M2.T + Dg.T @ Dg)
        return forms_agree(form1, form2, "joint nonlinear information forms per sample")

    J, std_err = _mc_matrix(prior, N, seed, per_sample)
    if prior.has_info:
        J = J + prior.info_matrix()
    return McInfoEstimate(J=symmetrize(J), std_err=std_err, N=N, seed=seed)
