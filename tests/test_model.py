import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    joint_information,
    joint_information_nonlinear,
    ml_estimate,
    mmse_gaussian_estimate,
    optimal_secondary,
    simulate,
    snr_matrix,
    synergy_objective,
    total_information,
    total_information_nonlinear,
    wls_estimate,
)

from fusionkit.cli import ScenarioError, load_scenario
from fusionkit.model import draw_rows, draw_streams
from fusionkit.matrixkit import SINGULAR_CONDITION, _require_psd, inverse_factor, symmetrize

from conftest import random_joint_noise, random_orthogonal, random_pd, rel_fro


class TestTypes:
    def test_gaussian_prior_info_is_cov_inverse(self, rng):
        cov = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=cov)
        assert rel_fro(prior.info_matrix(), np.linalg.inv(cov)) < 1e-12

    def test_gaussian_prior_root_and_info_from_one_cholesky_factor(self, rng):
        cov = random_pd(rng, 3)
        prior = GaussianPrior(mean=np.zeros(3), cov=cov)
        L, L_inv = inverse_factor(symmetrize(cov), "source covariance")
        assert np.array_equal(prior._factor, L)
        assert np.array_equal(prior.info_matrix(), L_inv.T @ L_inv)
        assert rel_fro(prior.info_matrix(), np.linalg.inv(cov)) < 1e-12

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
        with pytest.raises(NotPSD, match=r"J_s is not PSD \(min eigenvalue -1.000e\+00\)"):
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


def _refusal(check):
    """The type of the exception ``check()`` raises, or None if it returns."""
    try:
        check()
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("norm", [0.5, 4.0])
def test_one_psd_rule_at_its_boundary(tmp_path, norm):
    # the scenario loader (on a modality's noise), the prior, the joint noise
    # check and the Gaussian prior all refuse a smallest eigenvalue at
    # -1e-10 ||M||_2, and admit one above, and every refusal but the loader's
    # is NotPSD; past the PSD rule the Gaussian prior still refuses the
    # negative eigenvalue as NotPD
    for factor, refused in ((1.0, True), (0.99, False)):
        lo = -factor * 1e-10 * norm
        M = np.diag([lo, norm])
        assert np.linalg.eigvalsh(M)[0] == lo
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "sources": {"info_only": {"J_s": np.zeros((2, 2)).tolist()}},
            "modalities": [{"name": "x", "A": np.eye(2).tolist(), "noise_cov": M.tolist()}],
        }))
        verdicts = [_refusal(check) for check in (
            lambda: load_scenario(path),
            lambda: InfoOnlyPrior(M),
            lambda: BlockCovariance(M[:1, :1], M[1:, 1:], np.zeros((1, 1))).check_pd(),
            lambda: GaussianPrior(np.zeros(2), M),
        )]
        if refused:
            assert verdicts == [ScenarioError, NotPSD, NotPSD, NotPSD]
        else:
            assert verdicts == [None, None, None, NotPD]


@given(st.integers(0, 2**32 - 1), st.integers(2, 5),
       st.sampled_from(["indefinite", "rounding", "pd"]), st.integers(-12, 12))
def test_psd_verdicts_do_not_depend_on_units(seed, n, kind, k):
    # a spectrum planted at least 1% away from the PSD boundary gets the same
    # verdict from the PSD rule and GaussianPrior at every scale 10^k
    rng = np.random.default_rng(seed)
    w = np.append(rng.uniform(0.1, 1.0, n - 1), 1.0)
    if kind == "indefinite":  # at or beyond 1.01x the boundary, up to |lo| = 10 ||rest||
        w[0] = -1e-10 * 10.0 ** rng.uniform(np.log10(1.01), 11.0)
    elif kind == "rounding":  # within 0.99x the boundary
        w[0] = -1e-10 * rng.uniform(0.01, 0.99)
    Q = random_orthogonal(rng, n)
    M = symmetrize((Q * w) @ Q.T)

    def verdicts(S):
        return (_refusal(lambda: _require_psd(np.linalg.eigvalsh(S), "M")),
                _refusal(lambda: GaussianPrior(np.zeros(n), S)))

    expected = {
        "indefinite": (NotPSD, NotPSD),
        "rounding": (None, NotPD),
        "pd": (None, None),
    }[kind]
    assert verdicts(M) == expected
    assert verdicts(M * 10.0**k) == expected


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


# a 3-source prior given with a 2-source model, at every entry point that
# meets a prior with a model
_PRIOR_3 = "prior has 3 sources, model has 2"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda lin, h, g, prior, S: fisher_nonlinear(h, S, prior, 1000, 0),
                     id="fisher_nonlinear"),
        pytest.param(lambda lin, h, g, prior, S: total_information_nonlinear(
            h, S, prior, 1000, 0), id="total_information_nonlinear"),
        pytest.param(lambda lin, h, g, prior, S: joint_information_nonlinear(
            h, g, BlockCovariance(S, np.eye(2), np.zeros((3, 2))), prior, 1000, 0),
            id="joint_information_nonlinear"),
        pytest.param(lambda lin, h, g, prior, S: simulate(lin, prior, 1000, 0, noise=S),
                     id="simulate"),
        pytest.param(lambda lin, h, g, prior, S: simulate(ModalityPair(
            lin, LinearModel(np.eye(2)), BlockCovariance(S, np.eye(2), np.zeros((3, 2)))),
            prior, 1000, 0), id="simulate-pair"),
        pytest.param(lambda lin, h, g, prior, S: empirical_error_covariance(
            "ml", lin, prior, S, N=1000, seed=0), id="empirical_error_covariance-ml"),
        pytest.param(lambda lin, h, g, prior, S: empirical_error_covariance(
            "mmse", lin, prior, S, N=1000, seed=0), id="empirical_error_covariance-mmse"),
        pytest.param(lambda lin, h, g, prior, S: mmse_gaussian_estimate(
            lin, S, prior, np.zeros(3)), id="mmse_gaussian_estimate"),
        pytest.param(lambda lin, h, g, prior, S: total_information(snr_matrix(lin, S), prior),
                     id="total_information"),
        pytest.param(lambda lin, h, g, prior, S: joint_information(ModalityPair(
            lin, LinearModel(np.eye(2)), BlockCovariance(S, np.eye(2), np.zeros((3, 2)))),
            prior), id="joint_information"),
        pytest.param(lambda lin, h, g, prior, S: optimal_secondary(
            lin.A, 0.5 * np.eye(3, 2), 1.0, prior=prior), id="optimal_secondary"),
        pytest.param(lambda lin, h, g, prior, S: synergy_objective(
            lin.A, np.ones((2, 2)), 0.5 * np.eye(3, 2), prior), id="synergy_objective"),
    ],
)
def test_mis_sized_prior_is_named_before_any_draw(monkeypatch, call):
    # the nonlinear entry points called h 1536 times and then blamed the
    # map's Jacobian shape; simulate, the campaigns and the MMSE estimate
    # failed in a numpy broadcast; placement added the prior's trace
    A = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]])
    calls = []

    def counted(f):
        def wrapped(*args):
            calls.append(f)
            return f(*args)
        return wrapped

    monkeypatch.setattr(GaussianPrior, "sample", counted(GaussianPrior.sample))
    h = NonlinearModel(h=counted(lambda s: A @ s), n=3, m=2)
    g = NonlinearModel(h=counted(lambda s: s), n=2, m=2)
    prior = GaussianPrior(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match=_PRIOR_3):
        call(LinearModel(A), h, g, prior, np.eye(3))
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

    def test_pair_refuses_a_noise_argument_before_any_draw(self, monkeypatch, rng):
        # a pair carries its own noise: a second one, even all NaN, is refused, not ignored
        calls = []
        monkeypatch.setattr(GaussianPrior, "sample", lambda *args: calls.append(args))
        pair = ModalityPair(LinearModel(rng.standard_normal((4, 2))),
                            LinearModel(rng.standard_normal((3, 2))), random_joint_noise(rng, 4, 3))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(ValueError, match="carries its own noise"):
            simulate(pair, prior, N=10, seed=0, noise=np.full((7, 7), np.nan))
        assert calls == []

    @pytest.mark.parametrize("noise, error", [
        (np.ones((2, 2)), NotPD),  # PSD, singular
        (np.array([[1.0, 1.0 - 1e-13], [1.0 - 1e-13, 1.0]]), Singular),  # cond ~2e13
    ])
    def test_a_noise_it_cannot_factor_is_refused_before_any_draw(self, monkeypatch, noise, error):
        # one model's noise by its whitener, a pair's joint noise by the same
        # guard: a typed refusal, never numpy's LinAlgError
        calls = []
        monkeypatch.setattr(GaussianPrior, "sample", lambda *args: calls.append(args))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        pair = ModalityPair(LinearModel(np.eye(2)[:1]), LinearModel(np.eye(2)[1:]),
                            BlockCovariance(noise[:1, :1], noise[1:, 1:], noise[:1, 1:]))
        for call, name in ((lambda: simulate(LinearModel(np.eye(2)), prior, 10, 0, noise=noise),
                            "noise covariance"),
                           (lambda: simulate(pair, prior, 10, 0), "joint noise covariance")):
            with pytest.raises(error, match=f"^{name}") as refusal:
                call()
            if error is Singular:
                assert SINGULAR_CONDITION < refusal.value.condition < np.inf
        assert calls == []

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

    def test_pair_draws_through_the_joint_cholesky_factor(self, rng):
        pair = ModalityPair(LinearModel(rng.standard_normal((3, 2))),
                            LinearModel(rng.standard_normal((2, 2))), random_joint_noise(rng, 3, 2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        batch = simulate(pair, prior, N=50, seed=6)
        L, _ = inverse_factor(pair.noise.joint(), "joint noise covariance")
        sources, noise_rows = draw_rows(prior, L, 50, draw_streams(6))
        assert np.array_equal(batch.sources, sources)
        assert np.array_equal(batch.observations, sources @ pair.first.A.T + noise_rows[:, :3])
        assert np.array_equal(batch.second_observations,
                              sources @ pair.second.A.T + noise_rows[:, 3:])

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

