import warnings

import numpy as np
import pytest

from fusionkit import (
    BlockCovariance,
    GaussianPrior,
    LinearModel,
    ModalityPair,
    NonFinite,
    NotPD,
    Singular,
    SingularInformation,
    crlb,
    empirical_error_covariance,
    joint_information,
    ml_estimate,
    mmse_gaussian_estimate,
    simulate,
    snr_matrix,
    total_information,
)

import exact
from conftest import (
    random_admissible_rho,
    random_conditioned_matrix,
    random_pd,
    rel_fro,
    symmetric_root,
)
from oracles import mmse_gain, wls


class TestWls:
    # ML is WLS at the weight W = sigma^-1; the WLS oracle solves the normal equations

    def test_identity_model(self):
        est = ml_estimate(LinearModel(np.eye(2)), np.eye(2), [3.0, -1.0])
        assert np.allclose(est.s_hat, wls(np.eye(2), np.eye(2), [3.0, -1.0]))
        assert np.allclose(est.s_hat, [3.0, -1.0])
        assert est.method == "ML"

    def test_averaging(self):
        est = ml_estimate(LinearModel([[1.0], [1.0]]), np.eye(2), [0.0, 2.0])
        assert est.s_hat[0] == pytest.approx(1.0)
        assert wls(np.ones((2, 1)), np.eye(2), [0.0, 2.0])[0] == pytest.approx(1.0)

    def test_weighted_average_closed_form(self, rng):
        # hand-check oracle: normal equations give (3 x1 + x2) / 4
        model = LinearModel([[1.0], [1.0]])
        W = np.diag([1.0, 1.0 / 3.0])
        for _ in range(10):
            x = rng.standard_normal(2)
            est = ml_estimate(model, np.linalg.inv(W), x)
            assert est.s_hat[0] == pytest.approx((3.0 * x[0] + x[1]) / 4.0, rel=1e-12)
            assert wls(model.A, W, x)[0] == pytest.approx(est.s_hat[0], rel=1e-12)

    def test_rank_deficient_raises(self):
        model = LinearModel(np.ones((2, 2)))
        with pytest.raises(SingularInformation) as exc:
            ml_estimate(model, np.eye(2), [1.0, 2.0])
        assert exc.value.null_space.shape == (2, 1)

    def test_indefinite_weight_raises(self):
        # an indefinite normal matrix has no error covariance: once its
        # condition was |lambda|_max / |lambda|_min = 1 and the "covariance"
        # returned had diagonal (1, -1); ML's weight is the inverse noise,
        # which its noise guard refuses, and crlb refuses the normal matrix
        W = np.diag([1.0, -1.0])
        with pytest.raises(NotPD):
            ml_estimate(LinearModel(np.eye(2)), np.linalg.inv(W), [1.0, 2.0])
        with pytest.raises(SingularInformation) as exc:
            crlb(np.eye(2).T @ W @ np.eye(2))
        assert exc.value.condition == np.inf


class TestMl:
    def test_identity(self):
        x = np.array([1.0, -2.0])
        est = ml_estimate(LinearModel(np.eye(2)), 0.25 * np.eye(2), x)
        assert np.allclose(est.s_hat, x)
        assert np.allclose(est.error_cov, 0.25 * np.eye(2))

    def test_scalar_normal_equation(self):
        # oracle: snr = 1 + 1/3, rhs = x1 + x2/3 -> s = (3 x1 + x2)/4
        est = ml_estimate(LinearModel([[1.0], [1.0]]), np.diag([1.0, 3.0]), [0.0, 4.0])
        assert est.s_hat[0] == pytest.approx(1.0, rel=1e-12)

    def test_indefinite_noise_is_not_pd(self):
        with pytest.raises(NotPD):
            ml_estimate(LinearModel(np.eye(2)), [[1.0, 2.0], [2.0, 1.0]], np.ones(2))

    @pytest.mark.parametrize(
        "diag, error, carried",
        [([1.0, -0.5], NotPD, -0.5), ([1.0, 1e-13], Singular, 1e13)],
    )
    def test_ml_and_mmse_share_one_noise_guard(self, diag, error, carried):
        # ML refused only an indefinite noise before: with one source seen
        # by both channels its normal matrix is well conditioned, so it
        # answered; a noise condition above 1e12 is now Singular for ML as
        # it is for MMSE
        model, sigma = LinearModel([[1.0], [1.0]]), np.diag(diag)
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        for estimate in (
            lambda: ml_estimate(model, sigma, np.ones(2)),
            lambda: mmse_gaussian_estimate(model, sigma, prior, np.ones(2)),
        ):
            with pytest.raises(error) as exc:
                estimate()
            assert type(exc.value) is error
            value = exc.value.min_eigenvalue if error is NotPD else exc.value.condition
            assert value == pytest.approx(carried, rel=1e-12)

    def test_matches_wls_on_random_instances(self, rng):
        # dual-path comparison on 100 random instances
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, min(n, 4) + 1))
            model = LinearModel(random_conditioned_matrix(rng, n, m))
            sigma = random_pd(rng, n)
            x = rng.standard_normal(n)
            W = np.linalg.inv(sigma)
            s_wls = wls(model.A, 0.5 * (W + W.T), x)
            e_ml = ml_estimate(model, sigma, x)
            scale = max(np.max(np.abs(e_ml.s_hat)), 1e-300)
            assert np.max(np.abs(s_wls - e_ml.s_hat)) < 1e-12 * scale
            assert rel_fro(np.linalg.inv(model.A.T @ W @ model.A), e_ml.error_cov) < 1e-12

    def test_unbiasedness(self, rng):
        N = 200_000
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        prior = GaussianPrior(mean=np.array([1.0, -2.0, 0.5]), cov=np.eye(3))
        batch = simulate(model, prior, N=N, seed=21, noise=sigma)
        sigma_inv = np.linalg.inv(sigma)
        snr = model.A.T @ sigma_inv @ model.A
        estimator = np.linalg.solve(snr, model.A.T @ sigma_inv)
        s_hat = batch.observations @ estimator.T
        err = s_hat - batch.sources
        se = err.std(axis=0, ddof=1) / np.sqrt(N)
        assert np.all(np.abs(err.mean(axis=0)) <= 4.0 * se)


class TestMmse:
    def test_scalar_equal_weights(self):
        model = LinearModel([[1.0]])
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        for x in (0.0, 1.0, -3.0):
            est = mmse_gaussian_estimate(model, np.eye(1), prior, [x])
            assert est.s_hat[0] == pytest.approx(x / 2.0)
            assert est.error_cov[0, 0] == pytest.approx(0.5)

    def test_prior_dominant_limit(self, rng):
        model = LinearModel(rng.standard_normal((3, 2)))
        mu = np.array([2.0, -1.0])
        prior = GaussianPrior(mean=mu, cov=np.eye(2))
        est = mmse_gaussian_estimate(model, 1e6 * np.eye(3), prior, rng.standard_normal(3))
        assert np.linalg.norm(est.s_hat - mu) < 1e-3 * np.linalg.norm(mu)

    def test_information_vs_gain_form(self, rng):
        # dual-path comparison: the estimator's information form against the
        # gain form of the test oracle
        for _ in range(50):
            n, m = 5, 3
            model = LinearModel(rng.standard_normal((n, m)))
            sigma = random_pd(rng, n)
            prior = GaussianPrior(mean=rng.standard_normal(m), cov=random_pd(rng, m))
            x = rng.standard_normal(n)
            a = mmse_gaussian_estimate(model, sigma, prior, x).s_hat
            b = prior.mean + mmse_gain(model.A, prior.cov, sigma) @ (x - model.A @ prior.mean)
            scale = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs(a - b)) < 1e-10 * scale

    def test_mmse_dominates_ml(self, rng):
        # error_cov(ML) - error_cov(MMSE) must be PSD for every PD prior
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(n, 4) + 1))
            model = LinearModel(rng.standard_normal((n, m)))
            sigma = random_pd(rng, n)
            prior = GaussianPrior(mean=np.zeros(m), cov=random_pd(rng, m))
            x = rng.standard_normal(n)
            ml = ml_estimate(model, sigma, x)
            mmse = mmse_gaussian_estimate(model, sigma, prior, x)
            diff = ml.error_cov - mmse.error_cov
            assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] >= -1e-10

    def test_posterior_cov_is_crlb_inverse(self, rng):
        # posterior covariance must equal the inverse total information
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=random_pd(rng, 2))
        est = mmse_gaussian_estimate(model, sigma, prior, rng.standard_normal(4))
        J = total_information(snr_matrix(model, sigma), prior)
        assert rel_fro(est.error_cov, np.linalg.inv(J.matrix)) < 1e-10


class TestErrorCovariance:
    # the ML error covariance is the CRLB of the SNR matrix

    def test_identity(self):
        est = ml_estimate(LinearModel(np.eye(2)), np.eye(2), np.zeros(2))
        assert np.allclose(est.error_cov, np.eye(2))
        assert np.allclose(crlb(snr_matrix(LinearModel(np.eye(2)), np.eye(2))), np.eye(2))

    def test_scaling(self):
        model = LinearModel(2.0 * np.eye(2))
        assert np.allclose(crlb(snr_matrix(model, np.eye(2))), 0.25 * np.eye(2))
        assert np.allclose(ml_estimate(model, np.eye(2), np.zeros(2)).error_cov, 0.25 * np.eye(2))

    def test_is_the_crlb_of_the_snr_matrix(self, rng):
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        expected = crlb(snr_matrix(model, sigma))
        assert np.array_equal(ml_estimate(model, sigma, np.zeros(5)).error_cov, expected)

    def test_singular_snr_matrix_raises_singular_information(self):
        # rank-one mixing: the data carry nothing about s1 - s2
        with pytest.raises(SingularInformation) as exc:
            crlb(snr_matrix(LinearModel(np.ones((3, 2))), np.eye(3)))
        assert isinstance(exc.value, Singular)
        assert exc.value.null_space.shape == (2, 1)

    def test_matches_empirical(self, rng):
        # Monte-Carlo oracle (the harness covers this at scale; quick check here)
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        prior = GaussianPrior(mean=np.zeros(3), cov=np.eye(3))
        res = empirical_error_covariance("ml", model, prior, sigma, N=200_000, seed=4)
        assert rel_fro(res.empirical_error_cov, crlb(snr_matrix(model, sigma))) < 0.05


def stacked_question(n, m, seed=7):
    rng = np.random.default_rng(seed)
    model = LinearModel(random_conditioned_matrix(rng, n, m))
    prior = GaussianPrior(mean=rng.standard_normal(m), cov=random_pd(rng, m))
    return model, random_pd(rng, n), prior, rng


@pytest.mark.parametrize("n, m", [(3, 2), (40, 10), (200, 20)])
def test_a_stack_of_observations_is_estimated_as_each_row(n, m):
    model, sigma, prior, rng = stacked_question(n, m)
    X = rng.standard_normal((50, n))
    for estimate in (lambda x: ml_estimate(model, sigma, x),
                     lambda x: mmse_gaussian_estimate(model, sigma, prior, x)):
        stacked = estimate(X)
        rows = np.array([estimate(x).s_hat for x in X])
        assert stacked.s_hat.shape == (50, m)
        assert np.max(np.abs(stacked.s_hat - rows)) <= 1e-12 * np.max(np.abs(rows))
        assert np.array_equal(stacked.error_cov, estimate(X[0]).error_cov)
    assert np.allclose(ml_estimate(model, sigma, X).s_hat, wls(model.A, np.linalg.inv(sigma), X),
                       rtol=0.0, atol=1e-10)


RANK_ONE = LinearModel(np.ones((3, 2)))  # the data carry nothing about s1 - s2
VAGUE = GaussianPrior(np.zeros(2), 1e12 * np.eye(2))  # too little information to resolve it


@pytest.mark.parametrize("call", [
    lambda x: ml_estimate(RANK_ONE, np.eye(3), x),
    lambda x: mmse_gaussian_estimate(RANK_ONE, np.eye(3), VAGUE, x),
], ids=["ml", "mmse"])
def test_a_singular_information_is_refused_with_its_null_space(call):
    # both estimators invert through crlb, whose refusal names the unseen directions
    with pytest.raises(SingularInformation) as exc:
        call(np.zeros(3))
    assert exc.value.null_space.shape == (2, 1)
    # x is admitted before the information matrix is factored
    with pytest.raises(ValueError, match=r"^x must be a finite real array"):
        call([np.nan, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda model, noise, prior: mmse_gaussian_estimate(model, noise, prior, [0.0]),
    lambda model, noise, prior: empirical_error_covariance("mmse", model, prior, noise, 1000, 1),
], ids=["estimate", "campaign"])
def test_an_overflowing_posterior_information_is_non_finite(call):
    # the SNR matrix and the prior's information are each 1e308, their sum
    # overflows: refused by name, as an overflowing SNR matrix is, and silently
    prior = GaussianPrior(np.zeros(1), [[1e-308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="the posterior information"):
            call(LinearModel([[1.0]]), [[1e-308]], prior)


def pair_of_rho(n1, n2, m, sigma_max, seed=11, k=2):
    """A pair whose whitened cross-correlation has ``sigma_max``, a prior and ``k`` observations.

    ``k = 1`` gives one observation as a vector, any other ``k`` a ``(k, n1 + n2)`` stack.
    """
    rng = np.random.default_rng(seed)
    sigma_v, sigma_u = random_pd(rng, n1), random_pd(rng, n2)
    rho = random_admissible_rho(rng, n1, n2, sigma_max)
    noise = BlockCovariance(sigma_v, sigma_u, symmetric_root(sigma_v) @ rho @ symmetric_root(sigma_u))
    pair = ModalityPair(LinearModel(rng.standard_normal((n1, m))),
                        LinearModel(rng.standard_normal((n2, m))), noise)
    prior = GaussianPrior(rng.standard_normal(m), random_pd(rng, m))
    X = rng.standard_normal((k, n1 + n2))
    return pair, prior, X[0] if k == 1 else X


def stacked_estimates(pair, prior, X):
    """ML and MMSE on a new stacked model of ``pair`` under its joint noise."""
    model = LinearModel(np.vstack((pair.first.A, pair.second.A)))
    sigma = pair.noise.joint()
    return ml_estimate(model, sigma, X), mmse_gaussian_estimate(model, sigma, prior, X)


@pytest.mark.parametrize("k", [1, 2, 10])
@pytest.mark.parametrize("n1, n2, m, sigma_max", [
    (3, 2, 2, 0.8), (40, 30, 10, 0.8), (3, 2, 2, 1.0 - 5e-7), (40, 30, 10, 1.0 - 5e-7)])
def test_a_factored_pair_whitens_its_stacked_model_as_a_fresh_one(n1, n2, m, sigma_max, k):
    # the stacked model of a factored pair reads its noise factor off the pair's
    # block factors; the never-factored pair's model factors the joint afresh. Below
    # and above m observations (one as a vector), each is whitened through the factor,
    # block by block off the pair's
    pair, prior, X = pair_of_rho(n1, n2, m, sigma_max, k=k)
    fresh = stacked_estimates(pair, prior, X)
    joint_information(pair, prior)
    reused = stacked_estimates(pair, prior, X)
    # both are exact to about cond(joint) eps, which near a unitary rho exceeds 1e-12
    w = np.linalg.eigvalsh(pair.noise.joint())
    tol = max(1e-12, float(w[-1] / w[0]) * np.finfo(float).eps)
    for got, want in zip(reused, fresh):
        assert (got.method, got.s_hat.shape) == (want.method, want.s_hat.shape)
        assert rel_fro(np.atleast_2d(got.s_hat), np.atleast_2d(want.s_hat)) <= tol
        assert rel_fro(got.error_cov, want.error_cov) <= tol
    if n1 == 3:  # and as close to the exact ML estimate as the fresh factor
        H, sigma = np.vstack((pair.first.A, pair.second.A)), pair.noise.joint()
        Hq, Sq, Xq = exact.rational(H), exact.rational(sigma), exact.rational(np.atleast_2d(X).T)
        J = exact.matmul(exact.transpose(Hq), exact.solve(Sq, Hq))
        s = exact.solve(J, exact.matmul(exact.transpose(Hq), exact.solve(Sq, Xq)))
        assert rel_fro(np.atleast_2d(reused[0].s_hat), np.array(s, dtype=float).T) <= tol
