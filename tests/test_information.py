from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    AdvisorTolerances,
    BlockCovariance,
    GaussianPrior,
    InfoOnlyPrior,
    LinearModel,
    ModalityPair,
    NoPriorInfo,
    NoScore,
    NonFinite,
    NotPD,
    PairFactorization,
    SamplerPrior,
    SingularInformation,
    crlb,
    advise,
    joint_information,
    ml_estimate,
    prewhiten,
    prior_information_mc,
    simulate,
    snr_matrix,
    synergy_matrices,
    synergy_objective,
    total_information,
)
from fusionkit import information
from fusionkit.information import (
    InfoMatrix,
    block_plan,
)
from fusionkit.matrixkit import FORM_CONDITION_SLACK, _require_psd, symmetrize

from conftest import (
    mc_per_sample,
    random_admissible_rho,
    random_conditioned_matrix,
    random_joint_noise,
    random_orthogonal,
    random_pair,
    random_pd,
    rel_fro,
    symmetric_root,
)


class TestSnrMatrix:
    def test_identity(self):
        snr = snr_matrix(LinearModel(np.eye(2)), np.eye(2))
        assert np.allclose(snr.matrix, np.eye(2))

    def test_channel_accumulation_oracle(self):
        # diagonal noise: snr must equal sum_k a_k a_k^T / sigma_k^2
        A = np.array([[1.0, 0.0], [1.0, 1.0]])
        sigma = np.diag([1.0, 4.0])
        snr = snr_matrix(LinearModel(A), sigma)
        expected = sum(np.outer(A[k], A[k]) / sigma[k, k] for k in range(2))
        assert np.allclose(snr.matrix, expected)
        assert np.allclose(snr.matrix, [[1.25, 0.25], [0.25, 0.25]])

    def test_single_channel_rank_one(self, rng):
        a = rng.standard_normal(3)
        snr = snr_matrix(LinearModel(a[None, :]), [[2.0]])
        assert rel_fro(snr.matrix, np.outer(a, a) / 2.0) < 1e-12
        w = np.linalg.eigvalsh(snr.matrix)
        assert np.sum(w > 1e-12) == 1

    def test_not_pd_noise(self):
        with pytest.raises(NotPD):
            snr_matrix(LinearModel(np.eye(2)), np.diag([1.0, 0.0]))


class TestTotalInformation:
    def test_zero_prior(self, rng):
        snr = snr_matrix(LinearModel(rng.standard_normal((3, 2))), np.eye(3))
        J = total_information(snr, InfoOnlyPrior(np.zeros((2, 2))))
        assert np.array_equal(J.matrix, snr.matrix)

    def test_gaussian_identity_prior(self, rng):
        snr = snr_matrix(LinearModel(rng.standard_normal((3, 2))), np.eye(3))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        J = total_information(snr, prior)
        assert rel_fro(J.matrix, snr.matrix + np.eye(2)) < 1e-12

    def test_random_psd_pair_adds(self, rng):
        S = random_pd(rng, 3)
        J_s = random_pd(rng, 3)
        J = total_information(InfoMatrix(S), InfoOnlyPrior(J_s))
        assert np.allclose(J.matrix, S + J_s)

    def test_no_prior_info_raises(self):
        prior = SamplerPrior(m=2, draw=lambda rng, n: rng.standard_normal((n, 2)))
        with pytest.raises(NoPriorInfo):
            total_information(InfoMatrix(np.eye(2)), prior)


class TestCrlb:
    def test_identity(self):
        assert np.allclose(crlb(InfoMatrix(np.eye(3))), np.eye(3))

    def test_equals_ml_error_covariance(self, rng):
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        bound = crlb(snr_matrix(model, sigma))
        assert rel_fro(bound, ml_estimate(model, sigma, np.zeros(5)).error_cov) < 1e-12

    def test_singular_information_reports_null_space(self):
        # n < m: a single channel cannot resolve two sources
        model = LinearModel(np.array([[1.0, 1.0]]))
        snr = snr_matrix(model, np.eye(1))
        with pytest.raises(SingularInformation) as exc_info:
            crlb(snr)
        null = exc_info.value.null_space
        assert null.shape[1] >= 1
        # the null direction carries no information
        assert np.linalg.norm(snr.matrix @ null) < 1e-12


class TestPrewhiten:
    def test_identity_noise_passthrough(self, rng):
        pair = ModalityPair(
            first=LinearModel(rng.standard_normal((3, 2))),
            second=LinearModel(rng.standard_normal((2, 2))),
            noise=BlockCovariance(np.eye(3), np.eye(2), 0.3 * np.ones((3, 2)) / 3),
        )
        wp = prewhiten(pair)
        assert np.allclose(wp.A_tilde, pair.first.A)
        assert np.allclose(wp.B_tilde, pair.second.A)
        assert np.allclose(wp.rho, pair.noise.sigma_vu)

    def test_rho_spectral_norm_below_one(self):
        # SVD check over 1000 random PD joint covariances
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            noise = random_joint_noise(rng, n1, n2)
            pair = ModalityPair(
                first=LinearModel(rng.standard_normal((n1, 2))),
                second=LinearModel(rng.standard_normal((n2, 2))),
                noise=noise,
            )
            assert prewhiten(pair).sigma_max_rho < 1.0

    def test_whitened_noise_covariance_is_identity_with_rho(self, rng):
        # Monte-Carlo oracle: whiten simulated noises, check the joint covariance
        N = 100_000
        pair = random_pair(rng, 3, 2, 2)
        wp = prewhiten(pair)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(pair, prior, N=N, seed=13)
        v = batch.observations - batch.sources @ pair.first.A.T
        u = batch.second_observations - batch.sources @ pair.second.A.T
        v_t = np.linalg.solve(symmetric_root(pair.noise.sigma_v), v.T).T
        u_t = np.linalg.solve(symmetric_root(pair.noise.sigma_u), u.T).T
        z = np.hstack([v_t, u_t])
        emp = z.T @ z / N
        expected = np.block([
            [np.eye(3), wp.rho],
            [wp.rho.T, np.eye(2)],
        ])
        assert rel_fro(emp, expected) < 0.05

    def test_not_pd_marginal(self, rng):
        noise = BlockCovariance(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
        pair = ModalityPair(
            first=LinearModel(rng.standard_normal((2, 2))),
            second=LinearModel(rng.standard_normal((2, 2))),
            noise=noise,
        )
        with pytest.raises(NotPD):
            prewhiten(pair)


class TestJointInformation:
    def test_uncorrelated_additivity_exact(self, rng):
        for _ in range(20):
            n1, n2, m = 3, 2, 2
            A = rng.standard_normal((n1, m))
            B = rng.standard_normal((n2, m))
            noise = BlockCovariance(random_pd(rng, n1), random_pd(rng, n2), np.zeros((n1, n2)))
            pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
            prior = GaussianPrior(mean=np.zeros(m), cov=random_pd(rng, m))
            J = joint_information(pair, prior)
            expected = (
                snr_matrix(pair.first, noise.sigma_v).matrix
                + snr_matrix(pair.second, noise.sigma_u).matrix
                + prior.info_matrix()
            )
            assert rel_fro(J.matrix, expected) < 1e-12

    def test_redundant_second_modality_collapses(self, rng):
        noise = random_joint_noise(rng, 3, 2)
        A = rng.standard_normal((3, 2))
        B = noise.sigma_uv @ np.linalg.solve(noise.sigma_v, A)
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        J = joint_information(pair, InfoOnlyPrior(np.zeros((2, 2))))
        J_x = snr_matrix(pair.first, noise.sigma_v).matrix
        assert rel_fro(J.matrix, J_x) < 1e-10

    def test_two_scalar_channels_uncorrelated(self, rng):
        # two scalar channels with uncorrelated noise: rank-one terms add
        a1 = rng.standard_normal(2)
        a2 = rng.standard_normal(2)
        s1, s2 = 0.5, 2.0
        noise = BlockCovariance([[s1]], [[s2]], [[0.0]])
        pair = ModalityPair(LinearModel(a1[None, :]), LinearModel(a2[None, :]), noise)
        J_s = random_pd(rng, 2)
        J = joint_information(pair, InfoOnlyPrior(J_s))
        expected = np.outer(a1, a1) / s1 + np.outer(a2, a2) / s2 + J_s
        assert rel_fro(J.matrix, expected) < 1e-12

    def test_route_equivalence_sweep(self):
        rng = np.random.default_rng(303)
        worst = 0.0
        for _ in range(300):
            n1 = int(rng.integers(1, 7))
            n2 = int(rng.integers(1, 7))
            m = int(rng.integers(1, 5))
            pair = random_pair(rng, n1, n2, m)
            worst = max(worst, PairFactorization.from_pair(pair).route_error)
        assert worst < 1e-8

    def test_fusion_monotonicity(self):
        # J_joint - J_single is PSD: fusing never loses information
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            pair = random_pair(rng, n1, n2, m)
            J = joint_information(pair).matrix
            J_x = snr_matrix(pair.first, pair.noise.sigma_v).matrix
            J_y = snr_matrix(pair.second, pair.noise.sigma_u).matrix
            assert np.linalg.eigvalsh(J - J_x)[0] >= -1e-10
            assert np.linalg.eigvalsh(J - J_y)[0] >= -1e-10

    def test_strong_correlation_growth(self):
        # trace strictly increases toward the fully-correlated corner; the
        # fixed pair is Frobenius-orthogonal so the cross term that can
        # cause a transient dip at small c vanishes
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        traces = []
        for c in (0.0, 0.5, 0.9, 0.99):
            noise = BlockCovariance(np.eye(3), np.eye(3), c * np.eye(3))
            pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
            traces.append(float(np.trace(joint_information(pair).matrix)))
        assert all(t2 > t1 for t1, t2 in zip(traces, traces[1:]))

    def test_near_singular_flag(self):
        A = np.array([[1.0, 0.2], [0.3, 1.0]])
        B = np.array([[0.7, -0.1], [0.2, 0.8]])
        c = 1.0 - 1e-9
        noise = BlockCovariance(np.eye(2), np.eye(2), c * np.eye(2))
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        J = joint_information(pair)
        assert J.near_singular


class TestSynergyMatrices:
    def test_zero_cross_gives_other_snr(self, rng):
        n1, n2, m = 3, 2, 2
        A = rng.standard_normal((n1, m))
        B = rng.standard_normal((n2, m))
        sv, su = random_pd(rng, n1), random_pd(rng, n2)
        pair = ModalityPair(
            LinearModel(A), LinearModel(B), BlockCovariance(sv, su, np.zeros((n1, n2)))
        )
        rep = synergy_matrices(pair)
        assert rel_fro(rep.S_x, B.T @ np.linalg.inv(su) @ B) < 1e-10
        assert rel_fro(rep.S_y, A.T @ np.linalg.inv(sv) @ A) < 1e-10

    def test_redundant_construction_zeroes_synergy(self, rng):
        noise = random_joint_noise(rng, 3, 3)
        A = rng.standard_normal((3, 2))
        B = noise.sigma_uv @ np.linalg.solve(noise.sigma_v, A)
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        rep = synergy_matrices(pair)
        J = joint_information(pair).matrix
        assert np.linalg.norm(rep.S_x, "fro") <= 1e-10 * np.linalg.norm(J, "fro")

    def test_psd_sweep(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            pair = random_pair(rng, n1, n2, int(rng.integers(1, 4)))
            rep = synergy_matrices(pair)
            assert rep.min_eigenvalues[0] >= -1e-10
            assert rep.min_eigenvalues[1] >= -1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_route_raises_non_finite(rng, monkeypatch, bad):
    # NaN compares false against the tolerance: an all-NaN route would read
    # as full agreement, and an inf one as a disagreement, without the check
    whitened = information._whitened_fisher
    monkeypatch.setattr(information, "_whitened_fisher", lambda *a: whitened(*a) * bad)
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite, match="joint-information routes"):
        joint_information(random_pair(rng, 3, 2, 2))


def test_snr_overflow_raises_non_finite():
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        snr_matrix(LinearModel([[1e200]]), [[1e-200]])


# The largest sigma_max(rho) the rotation property draws: cond(I - rho^T rho)
# up to about 50. Widen it toward unitary rho once answers there carry a
# certified accuracy.
ROTATION_SIGMA_MAX = 0.99


def whitened_answers(A_tilde, B_tilde, rho):
    """J, sigma(rho) and advise's (r1, r2) of the identity-noise pair whitened as given."""
    noise = BlockCovariance(np.eye(rho.shape[0]), np.eye(rho.shape[1]), rho)
    pair = ModalityPair(LinearModel(A_tilde), LinearModel(B_tilde), noise)
    evidence = advise(pair, tols=AdvisorTolerances(redundancy=0.0)).evidence
    # the inverse Cholesky factor of an identity marginal is exactly I, so
    # the factorization's whitened pair is (A~, B~, rho) as given
    return (PairFactorization.from_pair(pair).routes["prewhitened"],
            np.linalg.svd(rho, compute_uv=False),
            np.array([evidence["r1"], evidence["r2"]]))


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_rotating_a_whitened_pair_changes_no_basis_free_answer(seed, redundant):
    # W -> Q W whitens as well as W does: A~ -> Q_v A~, B~ -> Q_u B~ and
    # rho -> Q_v rho Q_u^T leave the joint information, sigma(rho) and the
    # redundancy residuals as they were, to rounding in cond(I - rho^T rho)
    rng = np.random.default_rng(seed)
    n1, n2, m = (int(k) for k in rng.integers(1, 7, size=3))
    sigma_max = rng.uniform(0.0, ROTATION_SIGMA_MAX)
    rho = random_admissible_rho(rng, n1, n2, sigma_max)
    A_tilde = rng.standard_normal((n1, m))
    B_tilde = rho.T @ A_tilde if redundant else rng.standard_normal((n2, m))
    Q_v, Q_u = random_orthogonal(rng, n1), random_orthogonal(rng, n2)
    J, s, r = whitened_answers(A_tilde, B_tilde, rho)
    J_q, s_q, r_q = whitened_answers(Q_v @ A_tilde, Q_u @ B_tilde, Q_v @ rho @ Q_u.T)
    tol = FORM_CONDITION_SLACK * np.finfo(float).eps / (1.0 - sigma_max**2)
    assert rel_fro(J_q, J) <= tol
    assert np.max(np.abs(s_q - s)) <= tol
    # the residuals are already relative to the whitened norms
    assert np.max(np.abs(r_q - r)) <= tol


# The eigenvalue range of the property pairs' noise: its condition is below
# 10. Widen it once answers carry a certified accuracy (ROADMAP item 3).
PROPERTY_NOISE_EIGS = (0.3, 3.0)


def snrs(pair):
    """The SNR matrices of a pair's two modalities, each with its own marginal noise."""
    return (snr_matrix(pair.first, pair.noise.sigma_v).matrix,
            snr_matrix(pair.second, pair.noise.sigma_u).matrix)


def form_tol(pair):
    """``slack * kappa * eps``, with kappa the condition of the pair's joint noise."""
    return FORM_CONDITION_SLACK * np.linalg.cond(pair.noise.joint()) * np.finfo(float).eps


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_uncorrelated_noise_adds_the_two_snr_matrices(seed):
    # property (iii): with sigma_vu = 0, J = snr1 + snr2, S_x = snr2, S_y = snr1,
    # and the regime is Uncorrelated
    rng = np.random.default_rng(seed)
    n1, n2, m = (int(k) for k in rng.integers(1, 7, size=3))
    noise = BlockCovariance(random_pd(rng, n1, PROPERTY_NOISE_EIGS),
                            random_pd(rng, n2, PROPERTY_NOISE_EIGS), np.zeros((n1, n2)))
    pair = ModalityPair(LinearModel(rng.standard_normal((n1, m))),
                        LinearModel(rng.standard_normal((n2, m))), noise)
    snr1, snr2 = snrs(pair)
    J, syn = joint_information(pair).matrix, synergy_matrices(pair)
    scale, tol = np.linalg.norm(J), form_tol(pair)
    assert np.linalg.norm(J - (snr1 + snr2)) <= tol * scale
    assert np.linalg.norm(syn.S_x - snr2) <= tol * scale
    assert np.linalg.norm(syn.S_y - snr1) <= tol * scale
    assert advise(pair).regime == "Uncorrelated"


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1))
def test_fusion_never_loses_information(seed):
    # property (v): J - snr1 and J - snr2 pass the one PSD rule
    rng = np.random.default_rng(seed)
    n1, n2, m = (int(k) for k in rng.integers(1, 7, size=3))
    pair = ModalityPair(LinearModel(rng.standard_normal((n1, m))),
                        LinearModel(rng.standard_normal((n2, m))),
                        random_joint_noise(rng, n1, n2, PROPERTY_NOISE_EIGS))
    J = joint_information(pair).matrix
    for snr in snrs(pair):
        _require_psd(np.linalg.eigvalsh(J - snr), "J - snr")


def property_pair(rng, redundant):
    """A pair of 1 to 6 channels each and 1 to 6 sources, on noise of ``PROPERTY_NOISE_EIGS``.

    Its second modality is redundant when ``redundant``: ``B = sigma_vu^T sigma_v^-1 A``
    whitens to ``B~ = rho^T A~`` in any basis.
    """
    n1, n2, m = (int(k) for k in rng.integers(1, 7, size=3))
    noise = random_joint_noise(rng, n1, n2, PROPERTY_NOISE_EIGS)
    A = rng.standard_normal((n1, m))
    B = (noise.sigma_vu.T @ np.linalg.solve(noise.sigma_v, A) if redundant
         else rng.standard_normal((n2, m)))
    return ModalityPair(LinearModel(A), LinearModel(B), noise)


def pair_answers(pair):
    """``(J, S_x, S_y, snr1, snr2)``, ``sigma_max(rho)`` and advise's (verdict, dominance, regime)."""
    fac, syn, adv = PairFactorization.from_pair(pair), synergy_matrices(pair), advise(pair)
    return ((joint_information(pair).matrix, syn.S_x, syn.S_y, fac.snr_first, fac.snr_second),
            fac.sigma_max_rho, (adv.verdict, adv.evidence["dominance"], adv.regime))


def assert_same_answers(pair, other, order=(0, 1, 2, 3, 4), rename=lambda word: word):
    """``other`` answers as ``pair`` does, its matrices taken in ``order`` and its words
    through ``rename``, to ``slack * kappa * eps`` of the worse-conditioned noise."""
    (mats, s, words), (other_mats, other_s, other_words) = pair_answers(pair), pair_answers(other)
    tol = max(form_tol(pair), form_tol(other))
    scale = np.linalg.norm(mats[0])
    for k, M in zip(order, other_mats):
        assert np.linalg.norm(M - mats[k]) <= tol * scale, k
    assert abs(other_s - s) <= tol
    assert tuple(map(rename, other_words)) == words


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_channel_transform_changes_no_answer(seed, redundant):
    # property (i): A -> T A, sigma_v -> T sigma_v T^T and sigma_vu -> T sigma_vu,
    # for an invertible T of singular values in [0.5, 2]
    rng = np.random.default_rng(seed)
    pair = property_pair(rng, redundant)
    T = random_conditioned_matrix(rng, pair.first.n, pair.first.n)
    noise = pair.noise
    moved = ModalityPair(LinearModel(T @ pair.first.A), pair.second, BlockCovariance(
        symmetrize(T @ noise.sigma_v @ T.T), noise.sigma_u, T @ noise.sigma_vu))
    assert_same_answers(pair, moved)


MIRRORED = {"SelectFirst": "SelectSecond", "SelectSecond": "SelectFirst",
            "FirstRedundant": "SecondRedundant", "SecondRedundant": "FirstRedundant",
            "FirstDominates": "SecondDominates", "SecondDominates": "FirstDominates"}


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_swapping_the_modalities_mirrors_every_answer(seed, redundant):
    # property (ii): J stays, S_x and S_y trade places, so do snr1 and snr2,
    # and the verdict and dominance are mirrored
    pair = property_pair(np.random.default_rng(seed), redundant)
    noise = pair.noise
    swapped = ModalityPair(pair.second, pair.first,
                           BlockCovariance(noise.sigma_u, noise.sigma_v, noise.sigma_vu.T))
    assert_same_answers(pair, swapped, (0, 2, 1, 4, 3), lambda word: MIRRORED.get(word, word))


@settings(max_examples=200)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_silent_channel_changes_no_answer(seed, redundant):
    # property (iv): a first-modality channel with a zero row of A and noise
    # independent of every other channel; only the unequal-channel caveat may move
    rng = np.random.default_rng(seed)
    pair = property_pair(rng, redundant)
    (n1, m), n2, noise = pair.first.A.shape, pair.second.n, pair.noise
    sigma_v = np.zeros((n1 + 1, n1 + 1))
    sigma_v[:n1, :n1] = noise.sigma_v
    sigma_v[n1, n1] = rng.uniform(*PROPERTY_NOISE_EIGS)
    grown = ModalityPair(LinearModel(np.vstack([pair.first.A, np.zeros((1, m))])), pair.second,
                         BlockCovariance(sigma_v, noise.sigma_u,
                                         np.vstack([noise.sigma_vu, np.zeros((1, n2))])))
    assert_same_answers(pair, grown)


def exact_trace_at_scaled_identity(A_tilde, B_tilde, c):
    """Trace of the whitened joint Fisher information at rho = c I, in exact rationals.

    There ``(I - rho^T rho)^-1 = I / (1 - c^2)``, so the trace is
    ``||A~||_F^2 + ||c A~^T - B~^T||_F^2 / (1 - c^2)``.
    """
    c = Fraction(c)
    a_sq = sum(Fraction(x) ** 2 for x in np.ravel(A_tilde))
    m_sq = sum((c * Fraction(a) - Fraction(b)) ** 2
               for a, b in zip(np.ravel(A_tilde), np.ravel(B_tilde)))
    return a_sq + m_sq / (1 - c * c)


@pytest.mark.parametrize(
    "A_tilde, B_tilde",
    [([[1.0, 0.5], [0.0, 2.0]], [[0.3, 0.0], [1.0, -1.0]]), (np.eye(2), np.eye(2))],
)
def test_near_unitary_trace_matches_exact_value(A_tilde, B_tilde):
    # sigma_max(rho) = 1 - 1e-10 keeps cond(I - rho^T rho) near 5e9, inside the guard
    c = 1.0 - 1e-10
    A_tilde, B_tilde = np.asarray(A_tilde), np.asarray(B_tilde)
    trace = synergy_objective(A_tilde, B_tilde, c * np.eye(2))
    exact = exact_trace_at_scaled_identity(A_tilde, B_tilde, c)
    assert abs(Fraction(trace) - exact) / exact <= Fraction(5, 10**10)


class TestPriorInformationMc:
    def test_gaussian_matches_cov_inverse(self, rng):
        cov = random_pd(rng, 2)
        prior = GaussianPrior(mean=np.zeros(2), cov=cov)
        est = prior_information_mc(prior, N=100_000, seed=3)
        target = np.linalg.inv(cov)
        assert np.all(np.abs(est.J - target) <= 3.0 * est.std_err + 1e-9)

    def test_source_scaling(self):
        # s' = 2 s scales the information by 1/4
        base = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        scaled = GaussianPrior(mean=np.zeros(1), cov=4.0 * np.eye(1))
        e1 = prior_information_mc(base, N=50_000, seed=8)
        e2 = prior_information_mc(scaled, N=50_000, seed=8)
        assert e2.J[0, 0] == pytest.approx(e1.J[0, 0] / 4.0, rel=1e-10)

    def test_laplace_scalar(self):
        # analytic score +-1/b gives J_s = 1/b^2 with zero MC variance
        b = 1.7
        prior = SamplerPrior(
            m=1,
            draw=lambda rng, n: rng.laplace(0.0, b, size=(n, 1)),
            score_fn=lambda s: -np.sign(s) / b,
        )
        est = prior_information_mc(prior, N=100_000, seed=10)
        assert abs(est.J[0, 0] - 1.0 / b**2) <= 3.0 * est.std_err[0, 0] + 1e-12

    def test_no_score_raises(self):
        prior = SamplerPrior(m=1, draw=lambda rng, n: rng.standard_normal((n, 1)))
        with pytest.raises(NoScore):
            prior_information_mc(prior, N=100, seed=0)

    def test_three_blocks_bit_identical_to_per_sample(self):
        # 17 000 draws are three seed-split blocks; a logistic prior's score
        # is elementwise, so each draw's outer product has the same bits
        # one draw at a time
        prior = SamplerPrior(
            m=2,
            draw=lambda rng, n: rng.logistic(size=(n, 2)),
            score_fn=lambda s: -np.tanh(s / 2.0),
        )

        def per_sample(s):
            score = prior.score(s)[0]
            return np.outer(score, score)

        assert len(block_plan(12, 17_000)) == 3
        est = prior_information_mc(prior, N=17_000, seed=12)
        J, std_err = mc_per_sample(prior, 17_000, 12, per_sample)
        assert np.array_equal(est.J, J)
        assert np.array_equal(est.std_err, std_err)
