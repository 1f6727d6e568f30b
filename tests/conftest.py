"""Shared scenario generators for the test suite.

Random instances are drawn with bounded condition numbers so that the
tight dual-route tolerances (1e-12 relative agreement and friends)
measure algebraic identity, not conditioning luck.
"""

import numpy as np
import pytest
from hypothesis import settings

from fusionkit import (
    BlockCovariance,
    FormDisagreement,
    LinearModel,
    ModalityPair,
    placement,
    synergy_objective,
)
from fusionkit.information import _CrossCorrelation, _whitened_fisher, block_plan
from fusionkit.matrixkit import (
    _form_scale,
    factor_noise,
    noise_whitener,
    require_agreement,
    symmetrize,
)

# Every property test draws the same examples on every run, so a failure
# reproduces; no per-example deadline, as example timings vary with load.
settings.register_profile("fusionkit", derandomize=True, deadline=None)
settings.load_profile("fusionkit")


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


def symmetric_root(M):
    """The symmetric PSD root ``V diag(sqrt(w)) V^T`` of a PD ``M``, from one eigen-solve.

    The reference for the basis that ``prewhiten`` whitens in and ``place``
    prints ``B_star`` in; the library draws and whitens through Cholesky factors.
    """
    w, V = np.linalg.eigh(symmetrize(M))
    return symmetrize((V * np.sqrt(w)) @ V.T)


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


def fd_jacobian(h, s):
    """Central-difference Jacobian of ``h`` at one point, one coordinate at a time."""
    cols = []
    for k in range(s.shape[0]):
        hk = 1e-5 * (1.0 + abs(s[k]))
        sp = s.copy()
        sp[k] += hk
        sm = s.copy()
        sm[k] -= hk
        fp = np.atleast_1d(np.asarray(h(sp), dtype=float))
        fm = np.atleast_1d(np.asarray(h(sm), dtype=float))
        cols.append((fp - fm) / (2.0 * hk))
    return np.stack(cols, axis=1)


def _per_sample_jac(model, s):
    return fd_jacobian(model.h, s) if model.jacobian is None else model.jacobian(s)


def mc_per_sample(prior, N, seed, per_sample):
    """Monte-Carlo mean and std-error of ``per_sample``, evaluated one draw at a time.

    Draws, block sums and the per-block centred sums, combined by the
    pairwise update of Chan, Golub & LeVeque, follow the library's block
    plan, so the result is comparable bit for bit with the block-batched
    estimates.
    """
    parts = []
    for ss, count in block_plan(seed, N):
        s_block = prior.sample(np.random.default_rng(ss), count)
        mats = np.stack([per_sample(s_block[i]) for i in range(count)])
        b1 = mats.sum(axis=0)
        parts.append((count, b1, ((mats - b1 / count) ** 2).sum(axis=0)))
    n, s1, m2 = parts[0]
    for count, b1, b2 in parts[1:]:
        m2 = m2 + (b2 + (b1 / count - s1 / n) ** 2 * (n * count / (n + count)))
        s1 = s1 + b1
        n += count
    return symmetrize(s1 / N), np.sqrt(m2 / N / N)


def fisher_per_sample(model, sigma, prior, N, seed):
    """Per-sample reference for ``fisher_nonlinear``: (J, std_err)."""
    _, L_inv = noise_whitener(model, sigma)

    def per_sample(s):
        W = L_inv @ _per_sample_jac(model, s)
        return symmetrize(W.T @ W)

    return mc_per_sample(prior, N, seed, per_sample)


def joint_per_sample(h, g, noise, prior, N, seed):
    """Per-sample reference for ``joint_information_nonlinear``: (J, std_err)."""
    L_v_inv, L_u_inv, W_v, *_ = factor_noise(noise)
    cross = _CrossCorrelation(W_v @ L_u_inv.T)
    rho, K_a, K_b = cross.rho, cross.K, cross.K_prime

    def per_sample(s):
        Dh = L_v_inv @ _per_sample_jac(h, s)
        Dg = L_u_inv @ _per_sample_jac(g, s)
        form1 = _whitened_fisher(Dh, Dg, rho, K_a.__matmul__)
        form2 = _whitened_fisher(Dg, Dh, rho.T, K_b.__matmul__)
        require_agreement(form1, form2, _form_scale(form1),
                          "joint nonlinear information forms per sample", FormDisagreement)
        return form1

    J, std_err = mc_per_sample(prior, N, seed, per_sample)
    if prior.has_info:
        J = J + prior.info_matrix()
    return symmetrize(J), std_err


def plant_disagreement(monkeypatch, module, what, skew):
    """Move the second computation of ``module``'s agreement check ``what`` by ``skew``.

    The skew is planted in the check's own units: one entry of each matrix
    of the second stack moves by ``skew`` times that matrix's scale, so the
    relative distance the one rule reads is ``skew`` plus the rounding of the
    two computations. ``skew`` is a number, or a function of the condition
    the check is made at. Every other check, and every argument, goes
    through unchanged. Returns the list of the skews planted, one per call.
    """
    check = module.require_agreement
    planted = []

    def planted_check(first, second, scale, name, error, condition=1.0):
        if name == what:
            planted.append(skew(condition) if callable(skew) else skew)
            E = np.zeros(np.broadcast_shapes(np.shape(first), np.shape(second)))
            E[..., 0, 0] = planted[-1] * np.asarray(scale)
            second = second + E
        return check(first, second, scale, name, error, condition)

    monkeypatch.setattr(module, "require_agreement", planted_check)
    return planted


PLACEMENT_CACHES = (placement._analysis_of, placement._first_draws, placement._first_forms)


def empty_placement_caches(caches=PLACEMENT_CACHES):
    """Empty placement's caches, by default all of them, as a new process starts."""
    for cache in caches:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def empty_placement_memos():
    """Each test starts with placement's caches empty."""
    empty_placement_caches()


@pytest.fixture
def rng():
    return np.random.default_rng(20240)
