import numpy as np
import pytest

from fusionkit import (
    GaussianPrior,
    InfoMatrix,
    LinearModel,
    NonlinearModel,
    campaign_to_csv,
    campaign_to_json,
    check_crlb_dominance,
    empirical_error_covariance,
    error_covariance,
    fisher_finite_difference,
    simulate,
    snr_matrix,
)

from conftest import random_pd, rel_fro


class TestEmpiricalErrorCovariance:
    def test_identity_model(self):
        model = LinearModel(np.eye(3))
        prior = GaussianPrior(mean=np.zeros(3), cov=np.eye(3))
        res = empirical_error_covariance("ml", model, prior, 0.25 * np.eye(3), N=200_000, seed=1)
        assert rel_fro(res.empirical_error_cov, 0.25 * np.eye(3)) < 0.05
        assert res.frobenius_rel_err < 0.05

    def test_random_model_matches_inverse_snr(self, rng):
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        prior = GaussianPrior(mean=np.zeros(3), cov=np.eye(3))
        res = empirical_error_covariance("ml", model, prior, sigma, N=200_000, seed=2)
        assert rel_fro(res.empirical_error_cov, error_covariance(model, sigma)) < 0.05

    def test_mmse_matches_posterior_covariance(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.array([1.0, -1.0]), cov=random_pd(rng, 2))
        res = empirical_error_covariance("mmse", model, prior, sigma, N=200_000, seed=3)
        posterior = np.linalg.inv(prior.info_matrix() + snr_matrix(model, sigma).matrix)
        assert rel_fro(res.empirical_error_cov, posterior) < 0.05
        assert res.crlb_check.passed

    def test_mmse_requires_gaussian_prior(self):
        from fusionkit import SamplerPrior

        model = LinearModel(np.eye(2))
        prior = SamplerPrior(m=2, draw=lambda rng, n: rng.standard_normal((n, 2)))
        with pytest.raises(ValueError, match="MMSE requires Gaussian prior"):
            empirical_error_covariance("mmse", model, prior, np.eye(2), N=1000, seed=0)

    @pytest.mark.parametrize("method, gaussian, match", [
        ("kalman", True, "unknown method 'kalman'"),
        ("mmse", False, "MMSE requires Gaussian prior"),
    ])
    def test_bad_method_fails_before_simulating(self, monkeypatch, method, gaussian, match):
        from fusionkit import SamplerPrior, harness

        def simulate_not_called(*args, **kwargs):
            raise AssertionError("simulated before the method was checked")

        monkeypatch.setattr(harness, "simulate", simulate_not_called)
        model = LinearModel(np.eye(2))
        if gaussian:
            prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        else:
            prior = SamplerPrior(m=2, draw=lambda rng, n: rng.standard_normal((n, 2)))
        with pytest.raises(ValueError, match=match):
            empirical_error_covariance(method, model, prior, np.eye(2), N=200_000, seed=0)

    def test_minimum_sample_count_enforced(self):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError):
            empirical_error_covariance("ml", model, prior, np.eye(2), N=10, seed=0)

    def test_wls_alias_matches_ml(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        a = empirical_error_covariance("ml", model, prior, sigma, N=2000, seed=5)
        b = empirical_error_covariance("wls", model, prior, sigma, N=2000, seed=5)
        assert np.array_equal(a.empirical_error_cov, b.empirical_error_cov)


class TestFisherFiniteDifference:
    def test_linear_matches_snr(self, rng):
        model = LinearModel(rng.standard_normal((5, 3)))
        sigma = random_pd(rng, 5)
        H = fisher_finite_difference(model, sigma, rng.standard_normal(3), step=1e-4)
        assert rel_fro(H, snr_matrix(model, sigma).matrix) < 1e-6

    @pytest.mark.parametrize("x", [None, np.zeros(2)])
    def test_other_model_types_raise_type_error(self, x):
        # refused by type before the noise is whitened (and memoized) on it
        class Duck:
            n, m = 2, 1

            def h(self, s):
                return np.array([s[0], 2.0 * s[0]])

        with pytest.raises(TypeError, match="unsupported model type Duck"):
            fisher_finite_difference(Duck(), np.eye(2), np.zeros(1), x=x)

    def test_step_refinement(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        s0 = rng.standard_normal(2)
        H1 = fisher_finite_difference(model, sigma, s0, step=1e-4)
        H2 = fisher_finite_difference(model, sigma, s0, step=5e-5)
        assert rel_fro(H1, H2) < 1e-5

    def test_nonlinear_mc_average(self):
        # MC + FD oracle: for h(s) = s^2 the expected negated Hessian at s0
        # is 4 s0^2 (the curvature term averages out since E{x - h(s0)} = 0)
        s0 = np.array([1.3])
        model = NonlinearModel(
            h=lambda s: np.array([s[0] ** 2]), n=1, m=1, jacobian=lambda s: np.array([[2 * s[0]]])
        )
        rng = np.random.default_rng(8)
        draws = 4000
        vals = np.empty(draws)
        for i in range(draws):
            x = model.h(s0) + rng.standard_normal(1)
            vals[i] = fisher_finite_difference(model, np.eye(1), s0, step=1e-4, x=x)[0, 0]
        se = vals.std(ddof=1) / np.sqrt(draws)
        assert abs(vals.mean() - 4.0 * s0[0] ** 2) <= 3.0 * se


class TestCrlbDominance:
    def test_efficient_ml_sits_on_the_bound(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        res = empirical_error_covariance("ml", model, prior, sigma, N=200_000, seed=6)
        # equality case: min eigenvalue within MC noise of zero
        assert res.crlb_check.passed
        assert abs(res.crlb_check.min_eig) < 10.0 * res.crlb_check.slack

    def test_crippled_estimator_dominates_with_margin(self, rng):
        # the zero estimator has error covariance E{s s^T} = prior covariance
        model = LinearModel(rng.standard_normal((6, 2)))
        sigma = 0.01 * np.eye(6)
        prior = GaussianPrior(mean=np.zeros(2), cov=4.0 * np.eye(2))
        batch = simulate(model, prior, N=50_000, seed=7, noise=sigma)
        err = batch.sources  # s - 0
        emp = err.T @ err / err.shape[0]
        J = snr_matrix(model, sigma)
        check = check_crlb_dominance(emp, J, slack=1e-6)
        assert check.passed
        assert check.min_eig > 1.0  # large positive margin

    def test_mmse_attains_total_information_bound(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=random_pd(rng, 2))
        res = empirical_error_covariance("mmse", model, prior, sigma, N=200_000, seed=8)
        assert res.crlb_check.passed
        assert abs(res.crlb_check.min_eig) < 10.0 * res.crlb_check.slack

    @pytest.mark.parametrize("wrap", [InfoMatrix, np.asarray], ids=["info-matrix", "array"])
    def test_size_mismatch_is_named_before_inverting(self, monkeypatch, wrap):
        from fusionkit import harness

        def crlb_not_called(J):
            raise AssertionError("J inverted before the sizes were checked")

        monkeypatch.setattr(harness, "crlb", crlb_not_called)
        message = r"empirical covariance is \(2, 2\), information matrix is \(3, 3\)"
        with pytest.raises(ValueError, match=message):
            check_crlb_dominance(np.eye(2), wrap(np.eye(3)), 0.1)


class TestCampaignSerialization:
    def _result(self, seed=9):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        return empirical_error_covariance(
            "ml", model, prior, np.eye(2), N=2000, seed=seed, scenario_id="t"
        )

    def test_byte_identical_reruns(self):
        a, b = self._result(), self._result()
        assert campaign_to_json([a]) == campaign_to_json([b])
        assert campaign_to_csv([a]) == campaign_to_csv([b])

    def test_csv_header_and_row(self):
        text = campaign_to_csv([self._result()])
        lines = text.strip().split("\n")
        assert lines[0] == "scenario_id,method,N,seed,rel_err,crlb_min_eig,passed"
        fields = lines[1].split(",")
        assert fields[0] == "t" and fields[1] == "ml" and fields[2] == "2000"

    def test_json_is_sorted_and_parseable(self):
        import json

        doc = json.loads(campaign_to_json([self._result()]))
        assert doc[0]["scenario_id"] == "t"
        assert "crlb_check" in doc[0]
