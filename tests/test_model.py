import json

import numpy as np
import pytest

from fusionkit import (
    BlockCovariance,
    GaussianPrior,
    InfoOnlyPrior,
    LinearModel,
    ModalityPair,
    NoScore,
    NonlinearModel,
    NotPD,
    NotPSD,
    NotSampleable,
    Singular,
    SamplerPrior,
    empirical_error_covariance,
    error_covariance,
    fisher_finite_difference,
    fisher_nonlinear,
    joint_information_nonlinear,
    ml_estimate,
    mmse_gaussian_estimate,
    simulate,
    snr_matrix,
    total_information_nonlinear,
    wls_estimate,
)

from fusionkit.cli import ScenarioError, load_scenario
from fusionkit.matrixkit import _conditioned_eigh, _eig_inverse, psd_inverse, sym_sqrt

from conftest import random_joint_noise, random_pd, rel_fro


class TestTypes:
    def test_gaussian_prior_info_is_cov_inverse(self, rng):
        cov = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=cov)
        assert rel_fro(prior.info_matrix(), np.linalg.inv(cov)) < 1e-12

    def test_gaussian_prior_root_and_info_from_one_eigen_solve(self, rng):
        cov = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=cov)
        assert np.array_equal(prior._sqrt, sym_sqrt(cov))
        w, V = _conditioned_eigh(cov, "source covariance", psd_first=True)
        assert np.array_equal(prior.info_matrix(), _eig_inverse(w, V))
        assert rel_fro(prior.info_matrix(), psd_inverse(cov)) < 1e-12

    @pytest.mark.parametrize(
        "diag, error",
        [([1.0, -1.0], NotPSD), ([1.0, -1e-12], NotPD), ([1.0, 0.0], NotPD), ([1.0, 1e-13], Singular)],
    )
    def test_gaussian_prior_bad_cov_error_types(self, diag, error):
        # a clearly indefinite cov is NotPSD (the sampling root), a marginal
        # one NotPD and an ill-conditioned one Singular (the information)
        with pytest.raises(error):
            GaussianPrior(mean=np.zeros(2), cov=np.diag(diag))

    def test_priors_own_their_arrays(self, rng):
        # the information is computed once at construction, so a prior that
        # aliased the caller's covariance would go stale when it is written to
        cov, mean = random_pd(rng, 3), np.ones(3)
        prior = GaussianPrior(mean=mean, cov=cov)
        kept, info = cov.copy(), prior.info_matrix().copy()
        cov[0, 0], mean[0] = 4.0, 9.0
        assert np.array_equal(prior.cov, kept) and np.array_equal(prior.mean, np.ones(3))
        assert np.array_equal(prior.info_matrix(), info)
        assert rel_fro(prior.info_matrix() @ prior.cov, np.eye(3)) < 1e-12
        J = random_pd(rng, 3)
        info_only = InfoOnlyPrior(J)
        J[0, 0] = -5.0
        assert info_only.J_s[0, 0] != -5.0
        for array in (prior.cov, prior.mean, prior.info_matrix(), info_only.J_s):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0

    def test_info_only_prior_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InfoOnlyPrior(np.diag([1.0, -1.0]))

    def test_info_only_prior_not_sampleable(self):
        prior = InfoOnlyPrior(np.zeros((2, 2)))
        with pytest.raises(NotSampleable):
            prior.sample(np.random.default_rng(0), 5)
        with pytest.raises(NoScore):
            prior.score(np.zeros((1, 2)))

    def test_sampler_prior_without_score_has_no_info(self):
        prior = SamplerPrior(m=1, draw=lambda rng, n: rng.standard_normal((n, 1)))
        with pytest.raises(NoScore):
            prior.score(np.zeros((1, 1)))
        assert not prior.has_info

    def test_pair_dimension_checks(self, rng):
        a = LinearModel(rng.standard_normal((3, 2)))
        b = LinearModel(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            ModalityPair(a, b, random_joint_noise(rng, 3, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_prior_refuses_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="source mean has non-finite entries"):
            GaussianPrior(mean=[bad, 0.0], cov=np.eye(2))


@pytest.mark.parametrize("norm", [0.5, 4.0])
def test_one_psd_rule_at_its_boundary(tmp_path, norm):
    # the scenario loader (on a modality's noise), the prior and the joint
    # noise check all refuse a smallest eigenvalue at -1e-10 max(1, ||M||_2),
    # and admit one above
    for factor, refused in ((1.0, True), (0.99, False)):
        lo = -factor * 1e-10 * max(1.0, norm)
        M = np.diag([lo, norm])
        assert np.linalg.eigvalsh(M)[0] == lo
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "sources": {"info_only": {"J_s": np.zeros((2, 2)).tolist()}},
            "modalities": [{"name": "x", "A": np.eye(2).tolist(), "noise_cov": M.tolist()}],
        }))
        verdicts = []
        for check in (
            lambda: load_scenario(path),
            lambda: InfoOnlyPrior(M),
            lambda: BlockCovariance(M[:1, :1], M[1:, 1:], np.zeros((1, 1))).check_pd(),
        ):
            try:
                check()
                verdicts.append(False)
            except (ScenarioError, ValueError, NotPD):
                verdicts.append(True)
        assert verdicts == [refused] * 3


# a 4x4 noise given with a 3-channel model, at every entry point that takes both
_NOISE_4 = r"noise covariance is \(4, 4\), model has 3 channels"


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda lin, h, g, prior, S: snr_matrix(lin, S), _NOISE_4, id="snr_matrix"),
        pytest.param(lambda lin, h, g, prior, S: error_covariance(lin, S), _NOISE_4,
                     id="error_covariance"),
        pytest.param(lambda lin, h, g, prior, S: ml_estimate(lin, S, np.zeros(3)), _NOISE_4,
                     id="ml_estimate"),
        pytest.param(lambda lin, h, g, prior, S: mmse_gaussian_estimate(
            lin, S, GaussianPrior(np.zeros(2), np.eye(2)), np.zeros(3)), _NOISE_4,
            id="mmse_gaussian_estimate"),
        pytest.param(lambda lin, h, g, prior, S: wls_estimate(lin, S, np.zeros(3)),
                     r"weight matrix is \(4, 4\), model has 3 channels", id="wls_estimate"),
        pytest.param(lambda lin, h, g, prior, S: empirical_error_covariance(
            "ml", lin, prior, S, N=1000, seed=0), _NOISE_4, id="empirical_error_covariance"),
        pytest.param(lambda lin, h, g, prior, S: fisher_finite_difference(h, S, np.zeros(2)),
                     _NOISE_4, id="fisher_finite_difference"),
        pytest.param(lambda lin, h, g, prior, S: simulate(lin, prior, 10, 0, noise=S), _NOISE_4,
                     id="simulate"),
        pytest.param(lambda lin, h, g, prior, S: fisher_nonlinear(h, S, prior, 10, 0), _NOISE_4,
                     id="fisher_nonlinear"),
        pytest.param(lambda lin, h, g, prior, S: total_information_nonlinear(h, S, prior, 10, 0),
                     _NOISE_4, id="total_information_nonlinear"),
        pytest.param(lambda lin, h, g, prior, S: joint_information_nonlinear(
            h, g, BlockCovariance(S, np.eye(2), np.zeros((4, 2))), prior, 10, 0),
            r"noise block dims \(4, 2\) do not match channel counts \(3, 2\)",
            id="joint_information_nonlinear"),
    ],
)
def test_mis_sized_noise_is_named_before_any_draw(call, message):
    # the refusal names the matrix and the model's channel count, and comes
    # before any prior draw or call to a nonlinear map
    A = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]])
    calls = []

    def counted(f):
        def wrapped(*args):
            calls.append(f)
            return f(*args)
        return wrapped

    h = NonlinearModel(h=counted(lambda s: A @ s), n=3, m=2)
    g = NonlinearModel(h=counted(lambda s: s), n=2, m=2)
    prior = SamplerPrior(m=2, draw=counted(lambda rng, size: rng.standard_normal((size, 2))))
    with pytest.raises(ValueError, match=message):
        call(LinearModel(A), h, g, prior, np.eye(4))
    assert calls == []


class TestSimulate:
    def test_zero_noise_limit_reproduces_sources(self):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(model, prior, N=100, seed=1, noise=1e-12 * np.eye(2))
        assert np.max(np.abs(batch.observations - batch.sources)) < 1e-5

    def test_same_seed_identical(self, rng):
        model = LinearModel(rng.standard_normal((3, 2)))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        b1 = simulate(model, prior, N=50, seed=7, noise=np.eye(3))
        b2 = simulate(model, prior, N=50, seed=7, noise=np.eye(3))
        assert np.array_equal(b1.sources, b2.sources)
        assert np.array_equal(b1.observations, b2.observations)

    def test_info_only_prior_not_sampleable(self):
        model = LinearModel(np.eye(2))
        with pytest.raises(NotSampleable):
            simulate(model, InfoOnlyPrior(np.zeros((2, 2))), N=10, seed=0, noise=np.eye(2))

    def test_cross_covariance_matches_within_three_se(self, rng):
        # sample-covariance oracle for the cross block
        N = 100_000
        pair = ModalityPair(
            first=LinearModel(rng.standard_normal((3, 2))),
            second=LinearModel(rng.standard_normal((2, 2))),
            noise=random_joint_noise(rng, 3, 2),
        )
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(pair, prior, N=N, seed=5)
        v = batch.observations - batch.sources @ pair.first.A.T
        u = batch.second_observations - batch.sources @ pair.second.A.T
        cross = v.T @ u / N
        prods_sq = (v**2).T @ (u**2) / N
        se = np.sqrt(np.maximum(prods_sq - cross**2, 0.0) / N)
        assert np.all(np.abs(cross - pair.noise.sigma_vu) <= 3.0 * se + 1e-12)

    def test_noise_covariance_converges(self, rng):
        N = 200_000
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(model, prior, N=N, seed=3, noise=sigma)
        v = batch.observations - batch.sources @ model.A.T
        emp = v.T @ v / N
        assert rel_fro(emp, sigma) < 0.05

    def test_observation_covariance_is_apat_plus_sigma(self, rng):
        N = 200_000
        model = LinearModel(rng.standard_normal((4, 3)))
        sigma = random_pd(rng, 4)
        P = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=P)
        batch = simulate(model, prior, N=N, seed=9, noise=sigma)
        emp = batch.observations.T @ batch.observations / N
        expected = model.A @ P @ model.A.T + sigma
        assert rel_fro(emp, expected) < 0.05

    def test_pair_simulation_deterministic_and_shaped(self, rng):
        pair = ModalityPair(
            first=LinearModel(rng.standard_normal((3, 2))),
            second=LinearModel(rng.standard_normal((2, 2))),
            noise=random_joint_noise(rng, 3, 2),
        )
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(pair, prior, N=10, seed=2)
        assert batch.observations.shape == (10, 3)
        assert batch.second_observations.shape == (10, 2)

