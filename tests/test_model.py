import numpy as np
import pytest

from fusionkit import (
    BlockCovariance,
    GaussianPrior,
    InfoOnlyPrior,
    LinearModel,
    ModalityPair,
    NoPriorInfo,
    NoScore,
    NotPD,
    NotPSD,
    NotSampleable,
    Singular,
    SamplerPrior,
    no_prior,
    simulate,
    validate,
)

from fusionkit.matrixkit import _conditioned_eigh, _eig_inverse, psd_inverse, sym_sqrt

from conftest import random_joint_noise, random_pd, rel_fro


class TestTypes:
    def test_channel_rows(self):
        model = LinearModel([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert model.n == 3 and model.m == 2
        assert np.allclose(model.channel_row(1), [3.0, 4.0])

    def test_gaussian_prior_info_is_cov_inverse(self, rng):
        cov = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=cov)
        assert rel_fro(prior.info_matrix(), np.linalg.inv(cov)) < 1e-12
        assert prior.covariance() is cov or np.allclose(prior.covariance(), cov)

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
        prior = no_prior(2)
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


class TestValidate:
    def test_consistent_model_gives_empty_report(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        assert validate(model, prior, np.eye(4)) == []

    def test_underdetermined_flags_fisher_singular(self):
        model = LinearModel(np.ones((1, 3)))
        report = validate(model, None, np.eye(1))
        assert any(d.code == "FisherSingular" and d.level == "warning" for d in report)

    def test_indefinite_noise_flags_not_psd(self):
        model = LinearModel(np.eye(2))
        report = validate(model, None, np.diag([1.0, -0.2]))
        assert any(d.code == "NotPSD" and d.level == "error" for d in report)

    @pytest.mark.parametrize("norm", [0.5, 4.0])
    def test_one_psd_rule_at_its_boundary(self, norm):
        # the validator, the prior and the joint noise check all refuse a
        # smallest eigenvalue at -1e-10 max(1, ||M||_2), and admit one above
        for factor, refused in ((1.0, True), (0.99, False)):
            lo = -factor * 1e-10 * max(1.0, norm)
            M = np.diag([lo, norm])
            assert np.linalg.eigvalsh(M)[0] == lo
            report = validate(LinearModel(np.eye(2)), None, M)
            verdicts = [any(d.code == "NotPSD" for d in report)]
            for check in (
                lambda: InfoOnlyPrior(M),
                lambda: BlockCovariance(M[:1, :1], M[1:, 1:], np.zeros((1, 1))).check_pd(),
            ):
                try:
                    check()
                    verdicts.append(False)
                except (ValueError, NotPD):
                    verdicts.append(True)
            assert verdicts == [refused] * 3

    def test_prior_dimension_mismatch(self):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(3), cov=np.eye(3))
        report = validate(model, prior, np.eye(2))
        assert any(d.code == "DimMismatch" for d in report)


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
            simulate(model, no_prior(2), N=10, seed=0, noise=np.eye(2))

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


def test_no_prior_exposes_zero_info():
    assert np.all(no_prior(3).info_matrix() == 0.0)
    with pytest.raises(NoPriorInfo):
        SamplerPrior(m=1, draw=lambda rng, n: rng.standard_normal((n, 1))).info_matrix()
