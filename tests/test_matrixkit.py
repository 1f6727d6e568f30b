import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusionkit import (
    BlockCovariance,
    FormDisagreement,
    GaussianPrior,
    LinearModel,
    ModalityPair,
    NonFinite,
    NotPD,
    RouteDisagreement,
    Singular,
    SingularNormalMatrix,
    SingularPosterior,
    advise,
    crlb,
    joint_information,
    ml_estimate,
    mmse_gaussian_estimate,
    snr_matrix,
    synergy_matrices,
)
from fusionkit import estimators
from fusionkit.estimators import _solve_normal
from fusionkit.information import PairFactorization, _CrossCorrelation
from fusionkit.matrixkit import (
    FORM_TOL,
    PSD_EIG_TOL,
    SINGULAR_CONDITION,
    _schur_factor,
    admit_symmetric,
    derived_factor,
    factor_noise,
    inverse_factor,
    require_agreement,
    require_conditioned,
    symmetrize,
)

from conftest import (
    random_admissible_rho,
    random_joint_noise,
    random_orthogonal,
    random_pd,
    rel_fro,
)


def assert_is_sampling_root(M, L, L_inv):
    """``L`` is lower triangular with a positive diagonal, ``L L^T = M`` and ``L L^-1 = I``."""
    assert np.all(np.triu(L, 1) == 0.0) and np.all(np.diag(L) > 0.0)
    scale = 1.0 + np.linalg.norm(M, "fro")
    assert np.linalg.norm(L @ L.T - M, "fro") <= 1e-12 * scale
    assert np.linalg.norm(L @ L_inv - np.eye(len(M)), "fro") <= 1e-12 * np.linalg.cond(M)


class TestSamplingRoot:
    """``inverse_factor``'s ``L``, through which every sample is drawn as ``z L^T``."""

    def test_identity(self):
        L, L_inv = inverse_factor(np.eye(2))
        assert np.array_equal(L, np.eye(2)) and np.array_equal(L_inv, np.eye(2))

    def test_diagonal(self):
        L, L_inv = inverse_factor(np.diag([4.0, 9.0]))
        assert np.allclose(L, np.diag([2.0, 3.0]))
        assert np.allclose(L_inv, np.diag([0.5, 1.0 / 3.0]))

    def test_random_pd_reconstructs(self, rng):
        M = random_pd(rng, 5, (1e-3, 1e3))
        assert_is_sampling_root(M, *inverse_factor(M))

    def test_indefinite_is_refused_with_its_eigenvalue(self):
        with pytest.raises(NotPD) as refusal:
            inverse_factor(np.diag([1.0, -0.5]), "M")
        assert refusal.value.min_eigenvalue == -0.5

    @settings(max_examples=150)
    @given(st.integers(0, 10**9), st.integers(1, 12))
    def test_square_reconstruction_property(self, seed, dim):
        M = random_pd(np.random.default_rng(seed), dim, (1e-3, 1e3))
        assert_is_sampling_root(M, *inverse_factor(M))


def inverse_blocks(noise):
    """The blocks ``(omega_11, omega_12, omega_21, omega_22)`` of ``joint()^-1``
    that the pair factorization forms, bit for bit.

    With ``A = [I, 0]`` and ``B = [0, I]`` the block route is the assembled
    inverse itself: each product picks one block unchanged, the four blocks
    add without overlap, and every block is exactly symmetric where it must be.
    """
    eye = np.eye(noise.n1 + noise.n2)
    pair = ModalityPair(LinearModel(eye[: noise.n1]), LinearModel(eye[noise.n1:]), noise)
    omega = PairFactorization.from_pair(pair).routes["block"]
    return (omega[: noise.n1, : noise.n1], omega[: noise.n1, noise.n1:],
            omega[noise.n1:, : noise.n1], omega[noise.n1:, noise.n1:])


def marginal_inverses(noise):
    """``sigma_v^-1`` and ``sigma_u^-1`` as the Gram matrices of the inverse factors."""
    L_v_inv, L_u_inv, *_ = factor_noise(noise)
    return symmetrize(L_v_inv.T @ L_v_inv), symmetrize(L_u_inv.T @ L_u_inv)


class TestBlockInverse:
    def test_block_diagonal_gives_exact_zero_off_blocks(self, rng):
        noise = BlockCovariance(random_pd(rng, 3), random_pd(rng, 2), np.zeros((3, 2)))
        o11, o12, o21, o22 = inverse_blocks(noise)
        assert np.all(o12 == 0.0) and np.all(o21 == 0.0)
        # the general path gives the marginal inverses bit for bit
        sigma_v_inv, sigma_u_inv = marginal_inverses(noise)
        assert np.array_equal(o11, sigma_v_inv)
        assert np.array_equal(o22, sigma_u_inv)
        assert np.allclose(o11, np.linalg.inv(noise.sigma_v))
        assert np.allclose(o22, np.linalg.inv(noise.sigma_u))

    def test_two_by_two_formula(self):
        c = 0.5
        noise = BlockCovariance([[1.0]], [[1.0]], [[c]])
        o11, o12, o21, o22 = inverse_blocks(noise)
        factor = 1.0 / (1.0 - c**2)
        assert np.allclose([o11[0, 0], o12[0, 0], o21[0, 0], o22[0, 0]],
                           [factor, -c * factor, -c * factor, factor])

    def test_matches_dense_inverse(self, rng):
        # independent oracle: dense inversion of the assembled joint matrix
        noise = random_joint_noise(rng, 4, 2)
        o11, o12, o21, o22 = inverse_blocks(noise)
        dense = np.linalg.inv(noise.joint())
        assembled = np.block([[o11, o12], [o21, o22]])
        assert np.max(np.abs(assembled - dense)) < 1e-9
        assert np.linalg.norm(noise.joint() @ assembled - np.eye(6), "fro") <= 1e-9

    def test_singular_schur_raises(self):
        # cross block makes the Schur complement collapse
        eps = 1e-14
        noise = BlockCovariance([[1.0]], [[1.0]], [[1.0 - eps]])
        with pytest.raises(Singular):
            factor_noise(noise)


def schur_inverses(noise):
    """``F`` and ``G`` as the Gram matrices ``L^-T L^-1`` of the Schur factors."""
    *_, L_F_inv, L_G_inv = factor_noise(noise)
    return L_F_inv.T @ L_F_inv, L_G_inv.T @ L_G_inv


class TestSchurFactors:
    def test_zero_cross_term(self, rng):
        sv, su = random_pd(rng, 3), random_pd(rng, 3)
        noise = BlockCovariance(sv, su, np.zeros((3, 3)))
        F, G = schur_inverses(noise)
        assert np.allclose(F, np.linalg.inv(su))
        assert np.allclose(G, np.linalg.inv(sv))

    def test_scalar_schur(self):
        c = 0.3
        noise = BlockCovariance([[1.0]], [[1.0]], [[c]])
        F, G = schur_inverses(noise)
        assert F[0, 0] == pytest.approx(1.0 / (1.0 - c**2), rel=1e-12)
        assert G[0, 0] == pytest.approx(1.0 / (1.0 - c**2), rel=1e-12)

    def test_pd_outputs_for_pd_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(1, 4))
            noise = random_joint_noise(rng, n1, n2)
            *_, L_F_inv, L_G_inv = factor_noise(noise)
            # lower-triangular factors of PD matrices: a positive diagonal
            for L_inv in (L_F_inv, L_G_inv):
                assert np.array_equal(L_inv, np.tril(L_inv))
                assert np.all(np.diag(L_inv) > 0)
            for M in schur_inverses(noise):
                assert np.linalg.eigvalsh(M)[0] > 0


def test_admit_symmetric_rejects_asymmetry():
    with pytest.raises(ValueError, match="^matrix is not symmetric"):
        admit_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), "matrix")


def test_admit_symmetric_answers_asymmetry_within_tolerance_as_its_symmetric_part():
    # 1e-13 against a tolerance of 1e-12 * 2: not exactly symmetric, so the
    # per-entry test decides, and the symmetric part comes back; no rule
    # keeps such a matrix as given any more, a prior's covariance included
    M = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    assert M[1, 0] != M[0, 1]
    out = admit_symmetric(M, "matrix")
    assert np.array_equal(out, symmetrize(M)) and np.array_equal(out, out.T)


def test_admit_symmetric_returns_the_symmetric_part():
    # within tolerance, admission gives (M + M^T) / 2; an exact M is returned as it is
    M = np.array([[1.0, 2.0], [2.0 + 1e-13, 1.0]])
    assert np.array_equal(admit_symmetric(M, "M"), symmetrize(M))
    S = symmetrize(M)
    assert admit_symmetric(S, "S") is S


# Sizes around the block size of the triangular inverse, and the largest pair.
GRAM_SIZES = [1, 10, 63, 64, 65, 128, 350]


@pytest.mark.parametrize("n", GRAM_SIZES)
def test_derived_inverse_is_exactly_symmetric(n):
    # L^-T L^-1 is a Gram product: numpy forms one triangle and mirrors it,
    # so no symmetrize pass follows it (nor the products built on it)
    rng = np.random.default_rng(n)
    M = symmetrize(random_pd(rng, n))
    L_inv = derived_factor(M, "M")
    inverse = L_inv.T @ L_inv
    assert np.array_equal(inverse, inverse.T)


@pytest.mark.parametrize("n, m", [(6, 3), (70, 10), (350, 20)])
def test_estimator_matrices_are_exactly_symmetric(monkeypatch, n, m):
    # the normal and posterior matrices are Gram products of a sliced block
    # of the whitened [A | x], plus the symmetric prior information
    rng = np.random.default_rng(n)
    model = LinearModel(rng.standard_normal((n, m)))
    sigma = symmetrize(random_pd(rng, n))
    prior = GaussianPrior(mean=np.zeros(m), cov=symmetrize(random_pd(rng, m)))
    x = rng.standard_normal(n)
    inverted = []
    real = estimators.derived_factor

    def recorded(M, *args):
        inverted.append(M)
        return real(M, *args)

    monkeypatch.setattr(estimators, "derived_factor", recorded)
    ml = ml_estimate(model, sigma, x)
    mmse = mmse_gaussian_estimate(model, sigma, prior, x)
    assert len(inverted) == 2
    for M in (*inverted, ml.error_cov, mmse.error_cov):
        assert np.array_equal(M, M.T)


@pytest.mark.parametrize("n1, n2", [(3, 2), (40, 30), (200, 150)])
def test_cross_solver_matrices_are_exactly_symmetric(monkeypatch, n1, n2):
    rng = np.random.default_rng(n1)
    rho = random_admissible_rho(rng, n1, n2, 0.9)
    cross = _CrossCorrelation(rho)
    solved = []
    real = np.linalg.solve

    def recorded(M, X):
        solved.append(M)
        return real(M, X)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    cross.solve_k(np.eye(n2))
    cross.solve_kp(np.eye(n1))
    assert [M.shape for M in solved] == [(n2, n2), (n1, n1)]
    for M in solved:
        assert np.array_equal(M, M.T)


def nudged(S):
    """``S`` with its strict lower triangle scaled by 1 + 4e-13: inside
    :func:`admit_symmetric`'s tolerance, but not exactly symmetric."""
    M = np.array(S, dtype=float)
    M[np.tril_indices(len(M), -1)] *= 1.0 + 4e-13
    assert not np.array_equal(M, M.T)
    admit_symmetric(M, "M")
    return M


def test_near_symmetric_input_is_answered_as_its_symmetric_part(rng):
    n1, n2, m = 5, 4, 3
    S = nudged(random_pd(rng, n1 + n2))
    A, B = rng.standard_normal((n1, m)), rng.standard_normal((n2, m))
    cov, info = nudged(random_pd(rng, m)), nudged(random_pd(rng, m))
    x = rng.standard_normal(n1 + n2)
    H = np.vstack([A, B])

    def answers(noise, prior_cov, info):
        prior = GaussianPrior(mean=np.zeros(m), cov=prior_cov)
        stacked = LinearModel(H)
        J = snr_matrix(stacked, noise).matrix
        ml = ml_estimate(LinearModel(H), noise, x)
        mmse = mmse_gaussian_estimate(LinearModel(H), noise, prior, x)
        pair = ModalityPair(LinearModel(A), LinearModel(B),
                            BlockCovariance(noise[:n1, :n1], noise[n1:, n1:], noise[:n1, n1:]))
        exact = [J, ml.s_hat, ml.error_cov, mmse.s_hat, mmse.error_cov, crlb(info)]
        synergy = synergy_matrices(pair)
        close = [joint_information(pair, prior).matrix, synergy.S_x, synergy.S_y]
        return exact, close, advise(pair, prior).verdict

    exact, close, verdict = answers(S, cov, info)
    exact_sym, close_sym, verdict_sym = answers(symmetrize(S), symmetrize(cov), symmetrize(info))
    for got, want in zip(exact, exact_sym):
        assert np.array_equal(got, want)
    for got, want in zip(close, close_sym):
        assert rel_fro(got, want) <= 1e-12
    assert verdict == verdict_sym


def test_admit_symmetric_refuses_just_beyond_tolerance_with_its_message():
    M = np.array([[1.0, 2.0], [2.0 + 3e-12, 1.0]])
    worst = abs(M[1, 0] - M[0, 1])
    message = rf"^noise is not symmetric \(max asymmetry {worst:.3e}\)$"
    with pytest.raises(ValueError, match=message):
        admit_symmetric(M, "noise")


@pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
def test_admit_symmetric_refuses_nan_as_non_finite(shape):
    M = np.eye(shape[0])
    M[-1, -1] = np.nan
    with pytest.raises(ValueError, match="^M must be a finite real .*, got a non-finite entry$"):
        admit_symmetric(M, "M")


@pytest.mark.parametrize("M", [[[5.0]], [[-0.0]]], ids=["1x1", "1x1-zero"])
def test_admit_symmetric_accepts_one_by_one(M):
    out = admit_symmetric(M, "M")
    assert out.dtype == np.float64 and out.shape == (1, 1) and np.array_equal(out, M)
    assert np.signbit(out[0, 0]) == np.signbit(M[0][0])


@pytest.mark.parametrize("n", [None, 0])
def test_admit_symmetric_refuses_an_empty_matrix(n):
    # by the array rule, which refuses an empty axis: a 0 x 0 covariance, a
    # prior of no sources, is refused as a mixing matrix of no columns is
    with pytest.raises(ValueError, match=r"^M must be a finite real array of shape "
                                         r"\((any, any|0, 0)\) with no empty axis, "
                                         r"got shape \(0, 0\)$"):
        admit_symmetric(np.zeros((0, 0)), "M", n)


def test_admit_symmetric_decides_as_the_per_entry_rule():
    # exact, in-tolerance and beyond-tolerance asymmetry at scales 1e-12 to
    # 1e3, the asymmetry scaled with the matrix below unit scale: the
    # exact-symmetry shortcut must not change a single decision
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(-12, 4))
        S = symmetrize(rng.standard_normal((n, n)) * 10.0**k)
        skew = 10.0 ** (rng.uniform(-15, -10) + min(k, 0))
        M = S + np.tril(rng.standard_normal((n, n)), -1) * skew
        if rng.random() < 0.3:
            M = S
        floor = min(1.0, float(np.max(np.abs(M))))
        expected = not np.any(np.abs(M - M.T) > 1e-12 * np.maximum(floor, np.abs(M)))
        try:
            admit_symmetric(M, "M")
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == expected


def agreement(first, second, condition=1.0, error=FormDisagreement):
    """The one rule on a form check's scale, ``1 + ||first||`` per matrix."""
    scale = 1.0 + np.linalg.norm(first, axis=(-2, -1))
    return require_agreement(first, second, scale, "forms", error, condition)


def test_require_agreement_returns_the_relative_distance_within_tolerance(rng):
    M = rng.standard_normal((3, 2))
    err = agreement(M, M + 1e-12)
    assert err == pytest.approx(1e-12 * np.sqrt(6.0) / (1.0 + np.linalg.norm(M)), rel=1e-3)


def test_require_agreement_raises_beyond_tolerance(rng):
    M = rng.standard_normal((3, 2))
    E = np.zeros_like(M)
    E[0, 0] = 1e-7 * (1.0 + np.linalg.norm(M, "fro"))
    with pytest.raises(FormDisagreement, match="forms disagree") as exc_info:
        agreement(M, M + E)
    assert exc_info.value.max_relative_error == pytest.approx(1e-7)


@pytest.mark.parametrize("error", [FormDisagreement, RouteDisagreement])
def test_require_agreement_refuses_at_form_tol_with_the_given_type(rng, error):
    # at condition 1 the rule is FORM_TOL alone, whichever check it serves
    M = rng.standard_normal((3, 3))
    E = np.zeros_like(M)
    E[0, 0] = 1.0
    assert agreement(M, M + 0.9e-8 * (1.0 + np.linalg.norm(M)) * E, error=error) < FORM_TOL
    with pytest.raises(error, match="forms disagree"):
        agreement(M, M + 1.1e-8 * (1.0 + np.linalg.norm(M)) * E, error=error)


def test_require_agreement_tolerance_widens_only_with_condition(rng):
    M = rng.standard_normal((3, 2))
    E = np.zeros_like(M)
    E[0, 0] = 1e-7 * (1.0 + np.linalg.norm(M, "fro"))
    # 100 * cond * eps reaches 1e-8 at cond ~ 4.5e5: below it the tolerance is unchanged
    with pytest.raises(FormDisagreement):
        agreement(M, M + E, condition=1e5)
    assert agreement(M, M + E, condition=1e8) == pytest.approx(1e-7)
    with pytest.raises(FormDisagreement):
        agreement(M, M + 100.0 * E, condition=1e8)


@pytest.mark.parametrize("bad, other", [
    pytest.param(np.nan, 0.0, id="nan"),
    pytest.param(np.inf, 0.0, id="inf"),
    pytest.param(np.inf, np.inf, id="inf-in-both"),
    pytest.param(1e308, -1e308, id="overflowing-difference"),
])
def test_require_agreement_rejects_non_finite_stacks(bad, other):
    # NaN compares false against the tolerance, inf would read as a
    # disagreement, and so would two finite forms whose difference overflows:
    # a non-finite entry in either form, or an overflowing difference, in
    # either argument order or in one matrix of a stack, is refused first,
    # whether numpy ignores the overflow or the inf - inf it meets or raises
    M, N = np.zeros((2, 2)), np.zeros((2, 2))
    M[0, 1], N[0, 1] = bad, other
    stack, others = np.zeros((5, 2, 2)), np.zeros((5, 2, 2))
    stack[3], others[3] = M, N
    for mode in ("ignore", "raise"):  # the scale is 1, as its norm may overflow too
        with np.errstate(over=mode, invalid=mode):
            for first, second in ((M, N), (N, M)):
                with pytest.raises(NonFinite, match="non-finite entries in forms"):
                    require_agreement(first, second, 1.0, "forms", FormDisagreement)
            for first, second in ((stack, others), (N, stack)):
                with pytest.raises(NonFinite):
                    require_agreement(first, second, 1.0, "routes", RouteDisagreement)


def test_require_agreement_on_stacks_checks_every_matrix(rng):
    F = rng.standard_normal((5, 3, 3))
    assert agreement(F, F + 1e-12) < 1e-11
    E = np.zeros_like(F)
    E[3, 0, 0] = 1e-7 * (1.0 + np.linalg.norm(F[3], "fro"))  # one matrix of five
    with pytest.raises(FormDisagreement, match="forms disagree") as exc_info:
        agreement(F, F + E)
    assert exc_info.value.max_relative_error == pytest.approx(1e-7)


def test_require_agreement_compares_every_pair_of_a_broadcast_stack(rng):
    # the route check's shape: R[:, None] against R on one scale for all
    R = np.stack([rng.standard_normal((3, 3))] * 4)
    R[2, 1, 1] += 1e-7
    scale = float(np.max(np.linalg.norm(R, axis=(-2, -1))))
    with pytest.raises(RouteDisagreement) as exc_info:
        require_agreement(R[:, None], R, scale, "routes", RouteDisagreement)
    assert exc_info.value.max_relative_error == pytest.approx(1e-7 / scale)
    R[2, 1, 1] -= 1e-7
    assert require_agreement(R[:, None], R, scale, "routes", RouteDisagreement) < 1e-15


def test_symmetrize_stack_matches_each_matrix(rng):
    M = rng.standard_normal((4, 3, 3))
    S = symmetrize(M)
    for i in range(4):
        assert np.array_equal(S[i], symmetrize(M[i]))


def test_require_conditioned_refuses_above_the_limit():
    require_conditioned(1e12, "M")
    message = r"M is numerically singular \(cond~1\.000e\+13\)"
    with pytest.raises(Singular, match=message) as exc:
        require_conditioned(1e13, "M")
    assert exc.value.condition == 1e13
    with pytest.raises(Singular):
        require_conditioned(np.inf, "M")


def test_symmetrize_idempotent(rng):
    M = rng.standard_normal((4, 4))
    S = symmetrize(M)
    assert np.allclose(S, S.T)
    assert rel_fro(symmetrize(S), S) < 1e-15


def eigen_guard(M, scale=0.0):
    """The eigenvalue guard ``inverse_factor`` must decide as: (error type, carried value)."""
    w = np.linalg.eigvalsh(symmetrize(M))
    if w[0] <= 0.0:
        return NotPD, float(w[0])
    cond = max(scale, float(w[-1])) / float(w[0])
    return (Singular, cond) if cond > SINGULAR_CONDITION else (None, cond)


def guard_outcome(fn):
    try:
        return None, fn()
    except NotPD as exc:
        return NotPD, exc.min_eigenvalue
    except Singular as exc:
        return type(exc), exc.condition


def planted_spectrum(log_cond, min_eig, n, top, rng):
    """Eigenvalues with the top one ``top`` and, unless ``min_eig`` is given,
    the condition ``10**log_cond``; the rest log-uniform between."""
    if min_eig is None:
        w = top * 10.0 ** rng.uniform(-log_cond, 0.0, size=n)
        w[0] = top * 10.0**-log_cond
    else:
        w = top * 10.0 ** rng.uniform(-2.0, 0.0, size=n)
        w[0] = min_eig
    w[-1] = top
    return w


# Sizes 63, 64 and 65 straddle the block size of the triangular inverse.
guard_sizes = st.one_of(st.sampled_from([1, 2, 3, 63, 64, 65, 400]), st.integers(1, 400))


def schur_complement_inverse(M, scale):
    """``M^-1 = L^-T L^-1`` from the Schur guard, ``M`` a complement of the block ``scale I``.

    The block's largest eigenvalue is ``scale`` and its Frobenius norm ``sqrt(n)``
    times that: the norm stands in only inside the Cholesky bound, and where the
    bound is inconclusive the guard decides on the eigenvalue, with no retry.
    """
    L_inv = _schur_factor(M, np.diag(np.full(len(M), scale)), "Schur complement")
    return L_inv.T @ L_inv


# The refusal each derived inverse raises, keyed by it: a Schur complement
# (measured against its parent block, and NotPD where it is indefinite beyond
# rounding of that block) and the estimators' normal and posterior matrices.
derived_guards = {
    Singular: schur_complement_inverse,
    SingularNormalMatrix: lambda M, scale: _solve_normal(M, np.ones(len(M)), "normal matrix")[1],
    SingularPosterior: lambda M, scale: _solve_normal(
        M, np.ones(len(M)), "posterior information matrix", SingularPosterior)[1],
}


@settings(max_examples=120)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=guard_sizes,
    log_cond=st.floats(2.0, 14.0),
    min_eig=st.sampled_from([None, None, None, -1e-6, -1e-12, 0.0, 1e-13]),
    top_exp=st.integers(-3, 3),
    derived=st.sampled_from([None, Singular, SingularNormalMatrix, SingularPosterior]),
    scale_exp=st.floats(0.0, 3.0),
)
# a Schur complement indefinite beyond rounding of its block, and one only to rounding
@example(seed=0, n=5, log_cond=2.0, min_eig=-1e-6, top_exp=0, derived=Singular, scale_exp=2.0)
@example(seed=0, n=5, log_cond=2.0, min_eig=-1e-12, top_exp=0, derived=Singular, scale_exp=2.0)
def test_cholesky_guard_decides_as_the_eigen_guard(
    seed, n, log_cond, min_eig, top_exp, derived, scale_exp
):
    # conditions from 1e2 to 1e14 straddle the 1e12 limit; a planted minimum
    # eigenvalue of -1e-6 or -1e-12, 0 or 1e-13 times the top one makes M
    # indefinite, singular or too ill conditioned
    rng = np.random.default_rng(seed)
    top = 10.0**top_exp
    w = planted_spectrum(log_cond, None if min_eig is None else min_eig * top, n, top, rng)
    Q = random_orthogonal(rng, n)
    M = symmetrize((Q * w) @ Q.T)
    if derived is None:
        expected = eigen_guard(M)
        outcome = guard_outcome(lambda: inverse_factor(M, "M"))
    else:  # every refusal is the derived type, an indefinite M with infinite condition,
        # but a Schur complement's condition is against a parent block larger than M,
        # and one indefinite beyond PSD_EIG_TOL of that block refuses the joint as NotPD
        scale = top * 10.0**scale_exp if derived is Singular else 0.0
        kind, value = eigen_guard(M, scale)
        if kind is NotPD and (derived is not Singular or value > -PSD_EIG_TOL * scale):
            kind, value = derived, np.inf
        elif kind is Singular:
            kind = derived
        expected = (kind, value)
        outcome = guard_outcome(lambda: derived_guards[derived](M, scale))
    assert outcome[0] is expected[0]
    if expected[0] is not None:
        assert outcome[1] == expected[1]
        return
    if derived is None:
        # L is the sampling root (z L^T has covariance M), L^-1 the whitener
        L, L_inv = outcome[1]
        assert np.all(np.triu(L, 1) == 0.0) and np.all(np.triu(L_inv, 1) == 0.0)
        assert rel_fro(L @ L.T, M) <= 1e-13
        inverse = L_inv.T @ L_inv
    else:
        inverse = outcome[1]
    kappa = float(w[-1] / np.min(np.linalg.eigvalsh(M)))
    assert rel_fro(inverse, np.linalg.inv(M)) <= kappa * 1e-13


def test_cholesky_guard_certifies_without_an_eigenvalue(rng, monkeypatch):
    M = random_pd(rng, 70)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    _, L_inv = inverse_factor(M)
    assert rel_fro(L_inv.T @ L_inv, np.linalg.inv(M)) <= 1e-13


def run_script(name, *args):
    """Run ``scripts/<name>`` with ``args`` in a fresh interpreter on this checkout's ``src``."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / name), *map(str, args)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_noise_guard_sweep_smoke(tmp_path):
    out = tmp_path / "guard"
    run_script("noise_guard_sweep.py", "--sizes", "1", "3", "--trials", "2", "--out", out)
    summary = json.loads(out.with_suffix(".json").read_text())
    # 2 sizes, 12 spectra, 2 guards (plain, parent), 2 trials each
    assert summary["trials"] == 2 * 12 * 2 * 2 and summary["agreement_rate"] == 1.0
    rows = out.with_suffix(".csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 12 * 2


def test_whitening_accuracy_sweep_smoke(tmp_path):
    out = tmp_path / "whitening"
    run_script("whitening_accuracy_sweep.py", "--trials", "1", "--dims", "3", "2", "2",
               "--out", out)
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["passed"] and summary["worst_over_kappa_eps"] <= 100.0
    rows = out.with_suffix(".csv").read_text().splitlines()
    assert len(rows) == 1 + 12


def test_placement_budget_sweep_smoke(tmp_path):
    # 300 probes per budget cross a block of the probe
    out = tmp_path / "placement.csv"
    run_script("placement_budget_sweep.py", "--budgets", "3", "--probes", "300", "--out", out)
    lines = out.read_text().splitlines()
    assert lines[0] == "p,lambda,objective,kkt_residual,probe_violations,probe_max_gain"
    rows = list(csv.DictReader(lines))
    assert len(rows) == 3
    assert all(float(row["kkt_residual"]) <= 1e-5 for row in rows)


def test_route_equivalence_sweep_smoke(tmp_path):
    # one trial for each of the 48 (n1, n2, m) combinations
    out = tmp_path / "routes"
    run_script("route_equivalence_sweep.py", "--trials", "1", "--out", out)
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["passed"] and summary["overall_worst"] < 1e-8
    assert len(out.with_suffix(".csv").read_text().splitlines()) == 1 + 48


def test_correlation_synergy_sweep_smoke(tmp_path):
    # rho = c I for c in {0, 0.45, 0.9}: trace(J) is tr(A^T A) + tr(B^T B) = 8
    # at c = 0 and grows with c
    out = tmp_path / "corr.csv"
    run_script("correlation_synergy_sweep.py", "--levels", "3", "--c-max", "0.9", "--out", out)
    rows = list(csv.DictReader(out.read_text().splitlines()))
    traces = [float(row["trace_J"]) for row in rows]
    assert len(rows) == 3 and traces[0] == pytest.approx(8.0, rel=1e-12)
    assert traces[0] < traces[1] < traces[2]
    assert [row["near_singular"] for row in rows] == ["False"] * 3


def test_answer_digest_smoke(tmp_path):
    # one SHA-256 per question kind, the same on a second run in a fresh interpreter
    outs = [tmp_path / "first.txt", tmp_path / "second.txt"]
    for out in outs:
        run_script("answer_digest.py", "--out", out)
    lines = outs[0].read_text().splitlines()
    assert [line.split()[0] for line in lines] == [
        "J", "S_x", "S_y", "route_error", "advise", "optimal_secondary", "synergy",
        "nonlinear", "refusals",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line.split()[1]) for line in lines)
    assert outs[1].read_text() == outs[0].read_text()
