import json
import tracemalloc

import numpy as np
import pytest

from fusionkit import (
    GaussianPrior,
    InfoMatrix,
    LinearModel,
    NonFinite,
    NonlinearModel,
    Singular,
    SingularInformation,
    campaign_to_csv,
    crlb,
    empirical_error_covariance,
    joint_information,
    ml_estimate,
    mmse_gaussian_estimate,
    simulate,
    snr_matrix,
)
from fusionkit import estimators
from fusionkit.cli import load_scenario
from fusionkit.information import DEFAULT_BLOCK
from fusionkit.matrixkit import noise_whitener, symmetrize
from fusionkit.model import draw_rows, draw_streams

from conftest import random_pair, random_pd, readme_demo, rel_fro
from oracles import check_crlb_dominance, fisher_finite_difference


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
        assert rel_fro(res.empirical_error_cov, crlb(snr_matrix(model, sigma))) < 0.05

    def test_mmse_matches_posterior_covariance(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.array([1.0, -1.0]), cov=random_pd(rng, 2))
        res = empirical_error_covariance("mmse", model, prior, sigma, N=200_000, seed=3)
        posterior = np.linalg.inv(prior.info_matrix() + snr_matrix(model, sigma).matrix)
        assert rel_fro(res.empirical_error_cov, posterior) < 0.05
        assert res.crlb_check.passed

    @staticmethod
    def readme_ecg_campaign(tmp_path, method, edit):
        """A campaign on the README demo's ``ecg`` modality after ``edit`` of the document."""
        doc = readme_demo()
        edit(doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        scenario = load_scenario(path)
        model, noise = scenario.modality("ecg")
        return empirical_error_covariance(method, model, scenario.prior, noise, N=20000, seed=0)

    @pytest.mark.parametrize("scale", [1e-10, 1e-11])
    def test_mmse_on_a_precise_channel(self, tmp_path, scale):
        # the ecg noise scaled down, its cross covariance by the root: the
        # innovation covariance A G A^T + sigma is ill-conditioned, and the
        # information form never solves with it
        def precise(doc):
            ecg, cross = doc["modalities"][0], doc["cross_cov"]
            ecg["noise_cov"] = (scale * np.array(ecg["noise_cov"])).tolist()
            cross["matrix"] = (np.sqrt(scale) * np.array(cross["matrix"])).tolist()

        res = self.readme_ecg_campaign(tmp_path, "mmse", precise)
        assert res.frobenius_rel_err <= 0.05

    @pytest.mark.parametrize("method, mean", [("ml", 1e20), ("mmse", 1e20), ("mmse", 1e300)])
    def test_draws_that_round_the_noise_away_are_refused(self, tmp_path, method, mean):
        # a far source mean: each draw's fluctuation, and the noise in its
        # data, is lost to rounding, so the errors would read rounding alone
        def far(doc):
            doc["sources"]["gaussian"]["mean"] = [0.0, mean]

        with pytest.raises(Singular, match="the draws' size over the error's deviation"):
            self.readme_ecg_campaign(tmp_path, method, far)

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

        monkeypatch.setattr(harness, "draw_rows", simulate_not_called)
        model = LinearModel(np.eye(2))
        if gaussian:
            prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        else:
            prior = SamplerPrior(m=2, draw=lambda rng, n: rng.standard_normal((n, 2)))
        with pytest.raises(ValueError, match=match):
            empirical_error_covariance(method, model, prior, np.eye(2), N=200_000, seed=0)

    @pytest.mark.parametrize("method", [None, 1])
    def test_method_that_is_no_string_is_unknown(self, method):
        # .lower() on it raised AttributeError
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError, match=f"unknown method {method!r}, expected"):
            empirical_error_covariance(method, model, prior, np.eye(2), N=1000, seed=0)

    def test_minimum_sample_count_enforced(self):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError):
            empirical_error_covariance("ml", model, prior, np.eye(2), N=10, seed=0)

    @pytest.mark.parametrize("mean, noise", [(1e308, 1.0), (0.0, 1e300)],
                             ids=["errors-overflow", "fourth-moments-overflow"])
    def test_overflowing_moments_are_refused(self, mean, noise):
        # the README demo's ppg modality under a source mean of 1e308 or noise
        # of 1e300 I: each campaign answered inf or NaN entries
        model = LinearModel([[0.8, 0.3], [0.2, 0.9]])
        prior = GaussianPrior(np.full(2, mean), [[1.0, 0.2], [0.2, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonFinite, match="the empirical error covariance or its standard errors"):
            empirical_error_covariance("ml", model, prior, noise * np.eye(2), N=1000, seed=0)

    def test_wls_alias_matches_ml(self, rng):
        model = LinearModel(rng.standard_normal((4, 2)))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        a = empirical_error_covariance("ml", model, prior, sigma, N=2000, seed=5)
        b = empirical_error_covariance("wls", model, prior, sigma, N=2000, seed=5)
        assert np.array_equal(a.empirical_error_cov, b.empirical_error_cov)


def campaign_scenario():
    """The benchmark's campaign shape: 6 channels, 3 sources, a Gaussian prior."""
    rng = np.random.default_rng(25)
    model = LinearModel(rng.standard_normal((6, 3)))
    prior = GaussianPrior(mean=rng.standard_normal(3), cov=random_pd(rng, 3))
    return model, random_pd(rng, 6), prior


def whole_array_campaign(method, model, prior, noise, N, seed):
    """The campaign's formulas on one N-row array of ``simulate``'s draws: the blockwise reference."""
    L_inv = noise_whitener(model, noise).L_inv
    A = model.A
    W = L_inv @ A
    snr = W.T @ W
    batch = simulate(model, prior, N, seed, noise=noise)
    X, S = batch.observations, batch.sources
    mmse = method == "mmse"
    ref = crlb(InfoMatrix(symmetrize(snr + prior.info_matrix()) if mmse else snr))
    gain = ref @ W.T @ L_inv
    offset = prior.mean - gain @ (A @ prior.mean) if mmse else 0.0
    S_hat = X @ gain.T + offset
    E = S - S_hat
    emp = symmetrize(E.T @ E / N)
    second = (E**2).T @ (E**2) / N
    var = np.maximum(second - emp**2, 0.0)
    std_err = np.sqrt(var / N)
    rel_err = float(np.linalg.norm(emp - ref, "fro")) / max(
        float(np.linalg.norm(ref, "fro")), 1e-300
    )
    return {"emp": emp, "std_err": std_err, "slack": 5.0 * float(np.max(std_err)),
            "min_eig": float(np.linalg.eigvalsh(symmetrize(emp - ref))[0]), "rel_err": rel_err}


def streamed_campaign(monkeypatch, method, model, prior, noise, N, seed):
    """The library's campaign, with the standard errors its sums gave."""
    from fusionkit import harness

    moments = harness._error_moments
    seen = []

    def spy(*args):
        seen.append(moments(*args))
        return seen[-1]

    monkeypatch.setattr(harness, "_error_moments", spy)
    res = empirical_error_covariance(method, model, prior, noise, N=N, seed=seed)
    return {"emp": res.empirical_error_cov, "std_err": seen[0][1],
            "slack": res.crlb_check.slack, "min_eig": res.crlb_check.min_eig,
            "rel_err": res.frobenius_rel_err}


class TestStreamedCampaign:
    @pytest.mark.parametrize("N", [1000, DEFAULT_BLOCK])
    @pytest.mark.parametrize("method", ["ml", "wls", "mmse"])
    def test_one_block_is_the_whole_array_campaign(self, monkeypatch, method, N):
        model, sigma, prior = campaign_scenario()
        got = streamed_campaign(monkeypatch, method, model, prior, sigma, N, seed=11)
        want = whole_array_campaign(method, model, prior, sigma, N, seed=11)
        for key, value in want.items():
            assert np.array_equal(got[key], value), key

    @pytest.mark.parametrize("N", [2 * DEFAULT_BLOCK + 5, 200_000])
    @pytest.mark.parametrize("method", ["ml", "wls", "mmse"])
    def test_blocks_change_only_the_rounding_of_the_sums(self, monkeypatch, method, N):
        model, sigma, prior = campaign_scenario()
        got = streamed_campaign(monkeypatch, method, model, prior, sigma, N, seed=11)
        want = whole_array_campaign(method, model, prior, sigma, N, seed=11)
        for key, value in want.items():
            scale = float(np.max(np.abs(value)))
            assert float(np.max(np.abs(got[key] - value))) <= 1e-12 * scale, key

    @pytest.mark.parametrize("block", [1000, DEFAULT_BLOCK])
    def test_blockwise_draws_are_simulates_rows(self, block):
        model, sigma, prior = campaign_scenario()
        N = 2 * DEFAULT_BLOCK + 5
        batch = simulate(model, prior, N, seed=4, noise=sigma)
        # simulate draws the noise through the Cholesky factor memoized on the model
        L, streams = model._whitener.L, draw_streams(4)
        blocks = [draw_rows(prior, L, min(block, N - start), streams)
                  for start in range(0, N, block)]
        assert np.array_equal(np.concatenate([S for S, _ in blocks]), batch.sources)
        assert np.array_equal(np.concatenate([S @ model.A.T + V for S, V in blocks]),
                              batch.observations)

    def test_a_sampler_draws_once_per_block(self):
        from fusionkit import SamplerPrior

        counts = []

        def draw(rng, size):
            counts.append(size)
            return rng.standard_normal((size, 2))

        prior = SamplerPrior(m=2, draw=draw)
        empirical_error_covariance("ml", LinearModel(np.eye(2)), prior, np.eye(2),
                                   N=2 * DEFAULT_BLOCK + 5, seed=0)
        assert counts == [DEFAULT_BLOCK, DEFAULT_BLOCK, 5]

    def test_memory_does_not_grow_with_N(self):
        # one N-row array of the 3 sources alone is 4.8 MB at N = 200 000
        model, sigma, prior = campaign_scenario()
        tracemalloc.start()
        try:
            empirical_error_covariance("mmse", model, prior, sigma, N=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak


def factored_pair_scenario():
    """A stacked model of a factored (5,4) pair, its noise factor the pair's blocks; the pair last."""
    rng = np.random.default_rng(26)
    pair = random_pair(rng, 5, 4, 3)
    joint_information(pair)
    model = LinearModel(np.vstack((pair.first.A, pair.second.A)))
    prior = GaussianPrior(mean=rng.standard_normal(3), cov=random_pd(rng, 3))
    assert len(noise_whitener(model, pair.noise.joint()).factor) == 5
    return model, pair.noise.joint(), prior, pair


def estimators_off_the_campaign(method, scenario):
    """Relative distance of the second moments of the estimators' errors from the campaign's.

    N = 5000 draws are one block, on ``simulate``'s rows; the estimators' error
    covariance is the campaign's reference, bit for bit.
    """
    model, sigma, prior, *_ = scenario()  # the pair stays alive until the return
    N = 5000
    res = empirical_error_covariance(method, model, prior, sigma, N=N, seed=11)
    batch = simulate(model, prior, N, 11, noise=sigma)
    if method == "ml":
        est = ml_estimate(model, sigma, batch.observations)
    else:
        est = mmse_gaussian_estimate(model, sigma, prior, batch.observations)
    assert np.array_equal(res.theoretical_ref, est.error_cov)
    E = batch.sources - est.s_hat
    return rel_fro(res.empirical_error_cov, E.T @ E / N)


@pytest.mark.parametrize("method", ["ml", "mmse"])
def test_the_campaign_measures_the_estimators_own_errors(method):
    # the estimators apply the campaign's map unfolded, on a fresh noise factor
    # and on a factored pair's blocks: their errors are the campaign's to rounding
    for scenario in (campaign_scenario, factored_pair_scenario):
        assert estimators_off_the_campaign(method, scenario) <= 1e-12


@pytest.mark.parametrize("method", ["ml", "mmse"])
def test_a_planted_fault_in_the_unfolded_estimators_moves_them_off_the_campaign(
        monkeypatch, method):
    # a whitening of x off by 1e-6 in the estimators alone, where the campaign's
    # gain does not reach, shows against the campaign on either noise factor
    whiten = estimators._whiten
    monkeypatch.setattr(estimators, "_whiten", lambda factor, X: whiten(factor, X) * (1 + 1e-6))
    for scenario in (campaign_scenario, factored_pair_scenario):
        assert estimators_off_the_campaign(method, scenario) > 1e-9


def test_a_planted_estimator_gain_moves_the_simulate_report(tmp_path, monkeypatch, capsys):
    # the campaign applies the estimators' gain, so a gain off by 1e-3 shows
    # in its report; a copy of the gain in the campaign would hide it
    from fusionkit.cli import main

    path = tmp_path / "demo.json"
    path.write_text(json.dumps(readme_demo()))
    argv = ["simulate", str(path), "--method", "ml", "--N", "20000", "--seed", "3"]
    assert main(argv) == 0
    honest = capsys.readouterr().out
    affine = estimators._affine

    def planted(*args):
        gain, offset, ref = affine(*args)
        return gain * (1.0 + 1e-3), offset, ref

    monkeypatch.setattr(estimators, "_affine", planted)
    assert main(argv) == 0
    assert capsys.readouterr().out != honest


def test_a_singular_information_is_refused_by_the_campaign_with_its_null_space():
    # the data carry nothing about s1 - s2, as ml_estimate refuses them
    prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(SingularInformation) as exc:
        empirical_error_covariance("ml", LinearModel(np.ones((3, 2))), prior, np.eye(3), 1000, 0)
    assert exc.value.null_space.shape == (2, 1)


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

    @pytest.mark.parametrize("step", [0.0, np.inf, np.nan])
    def test_step_that_probes_nothing_is_refused(self, step):
        # a zero step raised ZeroDivisionError; an infinite or NaN one was
        # blamed on the log-likelihood, as NonFinite
        model = NonlinearModel(h=lambda s: pytest.fail("h evaluated before the step was checked"),
                               n=1, m=1)
        with pytest.raises(ValueError, match="step must be finite and nonzero"):
            fisher_finite_difference(model, np.eye(1), np.zeros(1), step=step, x=np.zeros(1))

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
        import oracles

        def crlb_not_called(J):
            raise AssertionError("J inverted before the sizes were checked")

        monkeypatch.setattr(oracles, "crlb", crlb_not_called)
        # J's size is the one the empirical covariance is admitted at
        message = (r"^empirical covariance must be a finite real array of shape \(3, 3\) "
                   r"with no empty axis, got shape \(2, 2\)$")
        with pytest.raises(ValueError, match=message):
            check_crlb_dominance(np.eye(2), wrap(np.eye(3)), 0.1)

    @pytest.mark.parametrize("slack", [np.nan, np.inf, -np.inf, -1e-3])
    def test_a_slack_that_is_no_slack_is_refused(self, slack):
        # a NaN slack failed the CRLB itself (emp = J^-1), a negative one
        # demanded a margin of |slack| above it
        J = np.diag([2.0, 4.0])
        with pytest.raises(ValueError, match="slack"):
            check_crlb_dominance(np.linalg.inv(J), J, slack)
        assert check_crlb_dominance(np.linalg.inv(J), J, 0.0).passed


class TestCampaignSerialization:
    def _result(self, seed=9):
        model = LinearModel(np.eye(2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        return empirical_error_covariance(
            "ml", model, prior, np.eye(2), N=2000, seed=seed, scenario_id="t"
        )

    def test_byte_identical_reruns(self):
        a, b = self._result(), self._result()
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
        assert campaign_to_csv([a]) == campaign_to_csv([b])

    def test_csv_header_and_row(self):
        text = campaign_to_csv([self._result()])
        lines = text.strip().split("\n")
        assert lines[0] == "scenario_id,method,N,seed,rel_err,crlb_min_eig,passed"
        fields = lines[1].split(",")
        assert fields[0] == "t" and fields[1] == "ml" and fields[2] == "2000"

    def test_json_is_sorted_and_parseable(self, tmp_path, capsys):
        # the CLI emits the campaign's to_json_dict() with sorted keys
        from fusionkit.cli import main

        doc = json.loads(json.dumps(self._result().to_json_dict()))
        assert doc["scenario_id"] == "t"
        assert "crlb_check" in doc
        path = tmp_path / "demo.json"
        path.write_text(json.dumps(readme_demo()))
        assert main(["simulate", str(path), "--method", "ml", "--N", "2000"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
