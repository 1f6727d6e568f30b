import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fusionkit import (
    AdvisorTolerances,
    BlockCovariance,
    GaussianPrior,
    InfoOnlyPrior,
    LinearModel,
    InfoMatrix,
    ModalityPair,
    NoScore,
    NonlinearModel,
    NotPD,
    NotPSD,
    NotSampleable,
    Singular,
    SamplerPrior,
    campaign_to_json,
    check_crlb_dominance,
    crlb,
    empirical_error_covariance,
    error_covariance,
    fisher_finite_difference,
    fisher_nonlinear,
    joint_information,
    joint_information_nonlinear,
    lambda_root,
    local_optimality_probe,
    ml_estimate,
    mmse_gaussian_estimate,
    numeric_jacobian,
    optimal_secondary,
    prior_information_mc,
    simulate,
    svd_of_rho,
    snr_matrix,
    synergy_gradient_rho,
    synergy_objective,
    total_information,
    total_information_nonlinear,
    wls_estimate,
)

from fusionkit.cli import ScenarioError, load_scenario
from fusionkit.model import draw_rows, draw_streams
from fusionkit.matrixkit import (
    SINGULAR_CONDITION, _require_psd, inverse_factor, require_real, symmetrize,
)

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
        # aliased the caller's covariance would go stale when it is written to;
        # the covariance is kept as admitted, its symmetric part
        cov, mean = random_pd(rng, 3), np.ones(3)
        prior = GaussianPrior(mean=mean, cov=cov)
        kept, info = symmetrize(cov), prior.info_matrix().copy()
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

    @pytest.mark.parametrize("m, score, shape", [
        (2, lambda s: -s[:, :1], (5, 1)),  # answered as a 1x1 information matrix
        (1, lambda s: -s[:, 0], (5,)),  # failed inside einsum
    ], ids=["one-column-of-two", "flat"])
    def test_sampler_prior_refuses_a_score_of_the_wrong_shape(self, m, score, shape):
        prior = SamplerPrior(m=m, draw=lambda rng, n: rng.standard_normal((n, m)), score_fn=score)
        message = f"score returned shape {shape}, expected {(5, m)}"
        with pytest.raises(ValueError, match=re.escape(message)):
            prior.score(np.zeros((5, m)))
        with pytest.raises(ValueError, match="score returned shape"):
            prior_information_mc(prior, N=100, seed=0)

    def test_pair_dimension_checks(self, rng):
        a = LinearModel(rng.standard_normal((3, 2)))
        b = LinearModel(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            ModalityPair(a, b, random_joint_noise(rng, 3, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_prior_refuses_non_finite_mean(self, bad):
        with pytest.raises(ValueError, match="^mean must be a finite real array of shape "
                           r"\(2,\) with no empty axis, got a non-finite entry$"):
            GaussianPrior(mean=[bad, 0.0], cov=np.eye(2))

    @pytest.mark.parametrize(
        "make, message",
        # by the array rule, which refuses an empty axis
        [(lambda: InfoOnlyPrior(np.zeros((0, 0))),
          r"^J_s must be a finite real array of shape \(any, any\) with no empty axis, "
          r"got shape \(0, 0\)$"),
         (lambda: GaussianPrior(np.zeros(0), np.zeros((0, 0))),
          r"^source covariance must be a finite real array of shape \(any, any\) with no "
          r"empty axis, got shape \(0, 0\)$")],
        ids=["info-only", "gaussian"],
    )
    def test_prior_of_no_sources_refused(self, make, message):
        # as a mixing matrix of no columns is; was an IndexError and an accepted prior
        with pytest.raises(ValueError, match=message):
            make()


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
_NOISE_4 = (r"^noise covariance must be a finite real array of shape \(3, 3\) with no empty "
            r"axis, got shape \(4, 4\)$")


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
                     _NOISE_4.replace("noise covariance", "weight matrix"), id="wls_estimate"),
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


class ScalarQuestion:
    """Valid inputs of every entry point that takes a scalar, with a map and a
    prior draw that count their calls: a refused scalar must start no work."""

    def __init__(self):
        rng = np.random.default_rng(7)
        self.calls = {"h": 0, "draw": 0}

        def h(s):
            self.calls["h"] += 1
            return np.array([s[0], s[1], s[0] * s[1]])

        def draw(gen, size):
            self.calls["draw"] += 1
            return gen.standard_normal((size, 2))

        self.h = NonlinearModel(h=h, n=3, m=2)
        self.prior = SamplerPrior(m=2, draw=draw, score_fn=lambda s: -s)
        self.lin = LinearModel(np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]]))
        self.S = np.diag([1.0, 2.0, 0.5])
        self.noise = BlockCovariance(self.S, self.S, 0.1 * np.eye(3))
        self.A = rng.standard_normal((3, 2))
        self.rho = np.array([[0.6, 0.0], [0.0, 0.15], [0.0, 0.15]])  # sigma_max 0.6
        self.svd = svd_of_rho(self.A, self.rho)
        self.p = 3.0 * float(np.sum(self.svd.d[:2] * self.svd.singular_values**2))
        self.solution = optimal_secondary(self.A, self.rho, self.p)


# every public scalar argument: (entry point, name its refusal starts with,
# minimum of a count or seed or rule of a real, call with the value)
_TOLERANCES = ("dominance", "redundancy", "regime_eps", "select_gain")
_SCALARS = {
    "optimal_secondary-p": ("budget p", "positive",
                            lambda q, v: optimal_secondary(q.A, q.rho, v)),
    "lambda_root-p": ("budget p", "positive", lambda q, v: lambda_root(q.svd, v)),
    "probe-n_perturbations": ("n_perturbations", 0, lambda q, v: local_optimality_probe(
        q.A, q.rho, q.solution, n_perturbations=v)),
    "probe-seed": ("seed", 0, lambda q, v: local_optimality_probe(q.A, q.rho, q.solution, seed=v)),
    "probe-delta": ("delta", "positive",
                    lambda q, v: local_optimality_probe(q.A, q.rho, q.solution, delta=v)),
    "campaign-N": ("N", 1000, lambda q, v: empirical_error_covariance(
        "ml", q.lin, q.prior, q.S, N=v, seed=0)),
    "campaign-seed": ("seed", 0, lambda q, v: empirical_error_covariance(
        "ml", q.lin, q.prior, q.S, N=1000, seed=v)),
    "fisher_finite_difference-step": ("step", "nonzero", lambda q, v: fisher_finite_difference(
        q.h, q.S, np.ones(2), step=v)),
    "check_crlb_dominance-slack": ("slack", "non-negative",
                                   lambda q, v: check_crlb_dominance(np.eye(2), np.eye(2), v)),
    "prior_information_mc-N": ("N", 1, lambda q, v: prior_information_mc(q.prior, v, 0)),
    "prior_information_mc-seed": ("seed", 0, lambda q, v: prior_information_mc(q.prior, 10, v)),
    "fisher_nonlinear-N": ("N", 1, lambda q, v: fisher_nonlinear(q.h, q.S, q.prior, v, 0)),
    "fisher_nonlinear-seed": ("seed", 0,
                              lambda q, v: fisher_nonlinear(q.h, q.S, q.prior, 10, v)),
    "total_information_nonlinear-N": ("N", 1, lambda q, v: total_information_nonlinear(
        q.h, q.S, q.prior, v, 0)),
    "total_information_nonlinear-seed": ("seed", 0, lambda q, v: total_information_nonlinear(
        q.h, q.S, q.prior, 10, v)),
    "joint_information_nonlinear-N": ("N", 1, lambda q, v: joint_information_nonlinear(
        q.h, q.h, q.noise, q.prior, v, 0)),
    "joint_information_nonlinear-seed": ("seed", 0, lambda q, v: joint_information_nonlinear(
        q.h, q.h, q.noise, q.prior, 10, v)),
    "simulate-N": ("N", 0, lambda q, v: simulate(q.lin, q.prior, v, 0, noise=q.S)),
    "simulate-seed": ("seed", 0, lambda q, v: simulate(q.lin, q.prior, 10, v, noise=q.S)),
    "numeric_jacobian-step": ("step", "nonzero",
                              lambda q, v: numeric_jacobian(q.h.h, np.ones(2), v)),
    "SamplerPrior-m": ("m", 1, lambda q, v: SamplerPrior(m=v, draw=q.prior.draw)),
    "NonlinearModel-n": ("n", 1, lambda q, v: NonlinearModel(q.h.h, n=v, m=2)),
    "NonlinearModel-m": ("m", 1, lambda q, v: NonlinearModel(q.h.h, n=3, m=v)),
    **{f"AdvisorTolerances-{name}": (name, "non-negative",
                                     lambda q, v, name=name: AdvisorTolerances(**{name: v}))
       for name in _TOLERANCES},
}


def _bad_scalars(kind):
    """A bool of either kind, a NaN, an infinity, a string, None and values out of range."""
    common = [True, np.True_, np.nan, np.inf, "1", None]
    if isinstance(kind, int):
        return common + sorted({-1, kind - 1}) + [2.5]
    return common + {"positive": [-1.0, 0.0], "non-negative": [-1.0], "nonzero": [0.0]}[kind]


@pytest.mark.parametrize(
    "entry, bad",
    [pytest.param(entry, bad, id=f"{entry}-{bad!r}")
     for entry, (_, kind, _) in _SCALARS.items() for bad in _bad_scalars(kind)
     if not (entry == "numeric_jacobian-step" and bad is None)],  # None: the default steps
)
def test_every_scalar_argument_is_refused_by_the_one_rule(entry, bad):
    # a bool passed as 1, a float count raised numpy's TypeError, a negative
    # seed numpy's own message, an infinite tolerance turned every verdict to Tie
    name, _, call = _SCALARS[entry]
    q = ScalarQuestion()
    with pytest.raises(ValueError) as exc:
        call(q, bad)
    assert str(exc.value).startswith(f"{name} ")
    assert q.calls == {"h": 0, "draw": 0}


def test_numpy_integers_are_counts_and_seeds():
    q = ScalarQuestion()
    probe = local_optimality_probe(q.A, q.rho, q.solution, np.int64(300), np.uint8(2))
    assert probe == local_optimality_probe(q.A, q.rho, q.solution, 300, 2)
    batch = simulate(q.lin, q.prior, np.int32(10), np.int64(3), noise=q.S)
    again = simulate(q.lin, q.prior, 10, 3, noise=q.S)
    assert np.array_equal(batch.observations, again.observations) and batch.seed == 3
    est = prior_information_mc(q.prior, np.int64(10), np.int64(3))
    assert np.array_equal(est.J, prior_information_mc(q.prior, 10, 3).J)
    prior = GaussianPrior(np.zeros(2), np.eye(2))
    run = empirical_error_covariance("ml", q.lin, prior, q.S, N=np.int64(1000), seed=np.int64(3))
    assert campaign_to_json([run]) == campaign_to_json(
        [empirical_error_covariance("ml", q.lin, prior, q.S, N=1000, seed=3)])


def test_python_numbers_are_kept_as_given():
    q = ScalarQuestion()
    budget = int(np.ceil(q.p))
    assert type(optimal_secondary(q.A, q.rho, budget).to_json_dict()["p"]) is int
    assert optimal_secondary(q.A, q.rho, np.float64(q.p)).budget_p == q.p
    assert AdvisorTolerances(redundancy=0).redundancy == 0
    assert numeric_jacobian(q.h.h, np.ones(2), np.float32(1e-3)).shape == (3, 2)


def test_dimension_fields_are_kept_as_python_ints():
    q = ScalarQuestion()
    prior = SamplerPrior(m=np.int64(2), draw=q.prior.draw)
    model = NonlinearModel(q.h.h, n=np.int32(3), m=np.uint8(2))
    assert (type(prior.m), type(model.n), type(model.m)) == (int, int, int)
    assert prior.sample(np.random.default_rng(0), 4).shape == (4, 2)


def _linear_map(A):
    """What ``NonlinearModel.linear(A)`` answers: its sizes, ``h`` and its Jacobian at a point."""
    model = NonlinearModel.linear(A)
    return model.n, model.m, model.h(np.ones(2)), model.jac(np.ones(2))


# every public array argument: (the name its refusal starts with, a valid value
# of q, whether an axis has a fixed length, call with the value, returning its answer)
_ARRAYS = {
    "LinearModel-A": ("mixing matrix", lambda q: q.lin.A, False, lambda q, v: LinearModel(v)),
    "BlockCovariance-sigma_vu": ("sigma_vu", lambda q: 0.1 * np.ones((3, 2)), True,
                                 lambda q, v: BlockCovariance(q.S, np.eye(2), v)),
    "GaussianPrior-mean": ("mean", lambda q: np.array([0.5, -1.0]), True,
                           lambda q, v: GaussianPrior(v, np.eye(2))),
    "wls_estimate-x": ("x", lambda q: np.array([1.0, 2.0, 0.5]), True,
                       lambda q, v: wls_estimate(q.lin, np.diag(1.0 / np.diag(q.S)), v)),
    "ml_estimate-x": ("x", lambda q: np.array([1.0, 2.0, 0.5]), True,
                      lambda q, v: ml_estimate(q.lin, q.S, v)),
    "mmse_gaussian_estimate-x": ("x", lambda q: np.array([1.0, 2.0, 0.5]), True,
                                 lambda q, v: mmse_gaussian_estimate(
                                     q.lin, q.S, GaussianPrior(np.zeros(2), np.eye(2)), v)),
    "optimal_secondary-A_tilde": ("A_tilde", lambda q: q.A, False,
                                  lambda q, v: optimal_secondary(v, q.rho, q.p)),
    "optimal_secondary-rho": ("rho", lambda q: q.rho, True,
                              lambda q, v: optimal_secondary(q.A, v, q.p)),
    "synergy_objective-A_tilde": ("A_tilde", lambda q: q.A, False,
                                  lambda q, v: synergy_objective(v, q.solution.B_star, q.rho)),
    "synergy_objective-rho": ("rho", lambda q: q.rho, True,
                              lambda q, v: synergy_objective(q.A, q.solution.B_star, v)),
    "synergy_objective-B_tilde": ("B_tilde", lambda q: q.solution.B_star, True,
                                  lambda q, v: synergy_objective(q.A, v, q.rho)),
    "synergy_gradient_rho-A_tilde": ("A_tilde", lambda q: q.A, False, lambda q, v:
                                     synergy_gradient_rho(v, q.solution.B_star, q.rho)),
    "synergy_gradient_rho-rho": ("rho", lambda q: q.rho, True,
                                 lambda q, v: synergy_gradient_rho(q.A, q.solution.B_star, v)),
    "synergy_gradient_rho-B_tilde": ("B_tilde", lambda q: q.solution.B_star, True,
                                     lambda q, v: synergy_gradient_rho(q.A, v, q.rho)),
    "svd_of_rho-A_tilde": ("A_tilde", lambda q: q.A, False, lambda q, v: svd_of_rho(v, q.rho)),
    "svd_of_rho-rho": ("rho", lambda q: q.rho, True, lambda q, v: svd_of_rho(q.A, v)),
    "probe-A_tilde": ("A_tilde", lambda q: q.A, False,
                      lambda q, v: local_optimality_probe(v, q.rho, q.solution)),
    "probe-rho": ("rho", lambda q: q.rho, True,
                  lambda q, v: local_optimality_probe(q.A, v, q.solution)),
    "NonlinearModel.linear-A": ("mixing matrix", lambda q: q.lin.A, False,
                                lambda q, v: _linear_map(v)),
    "numeric_jacobian-s": ("s", lambda q: np.array([0.5, 2.0]), False,
                           lambda q, v: numeric_jacobian(q.h.h, v)),
    "fisher_finite_difference-s0": ("s0", lambda q: np.array([0.5, 2.0]), True,
                                    lambda q, v: fisher_finite_difference(q.h, q.S, v)),
    "fisher_finite_difference-x": ("x", lambda q: np.array([1.0, 2.0, 0.5]), True,
                                   lambda q, v: fisher_finite_difference(
                                       q.h, q.S, np.array([0.5, 2.0]), x=v)),
    # a batch of source points, whose count is any; a vector is one row
    "GaussianPrior.score-s": ("s", lambda q: np.array([[0.5, -1.0], [2.0, 0.0]]), False,
                              lambda q, v: GaussianPrior(np.ones(2), [[2.0, 1.0], [1.0, 3.0]])
                              .score(v)),
    "SamplerPrior.score-s": ("s", lambda q: np.array([[0.5, -1.0], [2.0, 0.0]]), False,
                             lambda q, v: q.prior.score(v)),
}


def _bad_array(good, kind):
    """A value of ``kind`` that no rule of the shape of ``good`` admits."""
    rows = good.tolist()
    if kind in ("nan", "inf"):
        bad = good.copy()
        bad.flat[-1] = float(kind)
        return bad
    return {
        "ragged": rows[:-1] + ([rows[-1][:-1]] if good.ndim == 2 else [[rows[-1]] * 2]),
        "string": "1.0",
        "None": None,
        "bool": np.ones(good.shape, dtype=bool),
        "ndim": good.ravel() if good.ndim == 2 else good[None, :],
        "length": np.concatenate([good, good[:1]]),
        "empty-axis": good[..., :0],
    }[kind]


_ARRAY_FAULTS = ("nan", "inf", "ragged", "string", "None", "bool", "ndim", "length", "empty-axis")


@pytest.mark.parametrize("entry, kind", [
    pytest.param(entry, kind, id=f"{entry}-{kind}")
    for entry, (_, _, fixed, _) in _ARRAYS.items() for kind in _ARRAY_FAULTS
    # an axis of any length has no wrong length; an x of None is the noise-free one
    if (fixed or kind != "length") and (entry, kind) != ("fisher_finite_difference-x", "None")])
def test_every_array_argument_is_refused_by_the_one_rule(entry, kind):
    # at the parent a NaN observation was answered s_hat = [nan nan], a 1-D
    # mixing matrix of NonlinearModel.linear raised IndexError, a NaN s0 was
    # blamed on the log-likelihood, and a ragged or string array raised
    # numpy's own message, which named no argument
    name, good, _, call = _ARRAYS[entry]
    q = ScalarQuestion()
    bad = _bad_array(good(q), kind)
    with pytest.raises(ValueError) as exc:
        call(q, bad)
    assert str(exc.value).startswith(f"{name} must be a finite real array of shape ")
    assert q.calls == {"h": 0, "draw": 0}


def _bits(answer):
    """An answer's every field, each array as its dtype, shape and bytes."""
    if isinstance(answer, np.ndarray):
        return answer.dtype.str, answer.shape, answer.tobytes()
    if isinstance(answer, tuple):
        return tuple(map(_bits, answer))
    if dataclasses.is_dataclass(answer):
        return tuple(_bits(getattr(answer, f.name)) for f in dataclasses.fields(answer))
    return repr(answer)


@pytest.mark.parametrize("entry", sorted(_ARRAYS))
def test_lists_and_integer_arrays_answer_as_float_arrays(entry):
    _, good, _, call = _ARRAYS[entry]
    q = ScalarQuestion()
    value = good(q)
    assert _bits(call(q, value.tolist())) == _bits(call(q, value))
    assert _bits(call(q, value.astype(np.float32))) == _bits(call(q, value.astype(np.float32)
                                                                  .astype(float)))
    # integer-valued, so also given as integers; the one integer rho of sigma_max < 1 is 0
    whole = np.zeros_like(value) if entry.endswith("-rho") else np.rint(value)
    assert _bits(call(q, whole.astype(np.int64))) == _bits(call(q, whole))


def test_a_scalar_is_a_vector_of_one_entry():
    lin, sigma = LinearModel([[2.0]]), np.array([[0.5]])
    prior = GaussianPrior(0.25, [[4.0]])
    assert _bits(prior) == _bits(GaussianPrior(np.array([0.25]), [[4.0]]))
    for estimate in (lambda x: wls_estimate(lin, np.linalg.inv(sigma), x),
                     lambda x: ml_estimate(lin, sigma, x),
                     lambda x: mmse_gaussian_estimate(lin, sigma, prior, x)):
        assert _bits(estimate(1.5)) == _bits(estimate(np.array([1.5])))
    h = NonlinearModel(lambda s: np.array([s[0] ** 2, 3.0 * s[0]]), n=2, m=1)
    assert np.array_equal(numeric_jacobian(h.h, 0.5), numeric_jacobian(h.h, [0.5]))
    assert np.array_equal(h.jac(0.5), h.jac(np.array([0.5])))
    assert np.array_equal(fisher_finite_difference(h, np.eye(2), 0.5),
                          fisher_finite_difference(h, np.eye(2), np.array([0.5])))
    with pytest.raises(ValueError, match=r"^x must be .* of shape \(3,\) .*, got shape \(\)$"):
        ml_estimate(LinearModel(np.ones((3, 1))), np.eye(3), 1.5)


@pytest.mark.parametrize("prior", [GaussianPrior(np.zeros(2), np.eye(2)),
                                   SamplerPrior(2, lambda rng, size: None, lambda s: -s)],
                         ids=["gaussian", "sampler"])
def test_a_score_admits_its_points(prior):
    # at the parent a NaN point was scored [[nan nan]], a 3-entry point raised
    # a numpy broadcast error and a string numpy's UFuncTypeError
    for bad in ([np.nan, 0.0], [1.0, 2.0, 3.0], "ab"):
        with pytest.raises(ValueError, match=r"^s must be a finite real array of shape \(2,\) "):
            prior.score(bad)
    # a vector of m entries is one row, as it was
    assert _bits(prior.score([0.5, -1.0])) == _bits(prior.score(np.array([[0.5, -1.0]])))


# every public symmetric-matrix argument: (the name its refusal starts with,
# its size n if the model fixes it, else None, call with a valid value of
# that size, returning its answer); each valid value below is integer-valued
# and positive definite
_NOISE_ENTRIES = {
    "snr_matrix": lambda q, v: snr_matrix(q.lin, v),
    "ml_estimate": lambda q, v: ml_estimate(q.lin, v, np.array([1.0, 2.0, 0.5])),
    "mmse_gaussian_estimate": lambda q, v: mmse_gaussian_estimate(
        q.lin, v, GaussianPrior(np.zeros(2), np.eye(2)), np.array([1.0, 2.0, 0.5])),
    "error_covariance": lambda q, v: error_covariance(q.lin, v),
    "simulate": lambda q, v: simulate(q.lin, q.prior, 10, 0, noise=v),
    "fisher_nonlinear": lambda q, v: fisher_nonlinear(q.h, v, q.prior, 10, 0),
    "fisher_finite_difference": lambda q, v: fisher_finite_difference(q.h, v, np.ones(2)),
    "empirical_error_covariance-ml": lambda q, v: empirical_error_covariance(
        "ml", q.lin, q.prior, v, N=1000, seed=0),
    "empirical_error_covariance-mmse": lambda q, v: empirical_error_covariance(
        "mmse", q.lin, GaussianPrior(np.zeros(2), [[2.0, 1.0], [1.0, 3.0]]), v, N=1000, seed=0),
}
_SYMMETRICS = {
    "BlockCovariance-sigma_v": ("sigma_v", None,
                                lambda q, v: BlockCovariance(v, np.eye(2), np.zeros((3, 2)))),
    "BlockCovariance-sigma_u": ("sigma_u", None,
                                lambda q, v: BlockCovariance(np.eye(2), v, np.zeros((2, 3)))),
    "GaussianPrior-cov": ("source covariance", None, lambda q, v: GaussianPrior(np.zeros(3), v)),
    "InfoOnlyPrior-J_s": ("J_s", None, lambda q, v: InfoOnlyPrior(v)),
    "InfoMatrix": ("info matrix", None, lambda q, v: InfoMatrix(v)),
    "crlb-J": ("J", None, lambda q, v: crlb(v)),
    "total_information-snr": ("snr", None, lambda q, v: total_information(v, None)),
    **{f"{entry}-noise": ("noise covariance", 3, call) for entry, call in _NOISE_ENTRIES.items()},
    "wls_estimate-W": ("weight matrix", 3,
                       lambda q, v: wls_estimate(q.lin, v, np.array([1.0, 2.0, 0.5]))),
    "check_crlb_dominance-empirical": ("empirical covariance", 2,
                                       lambda q, v: check_crlb_dominance(v, np.eye(2), 0.1)),
}


def _good_symmetric(n):
    """An integer-valued symmetric PD matrix of ``n`` rows (3 when any size will do)."""
    return np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])[: n or 3, : n or 3]


def _bad_symmetric(good, kind):
    """A value of ``kind`` that the symmetric rule at the size of ``good`` refuses."""
    rows = good.tolist()
    if kind in ("nan", "inf"):
        bad = good.copy()
        bad[-1, -1] = float(kind)
        return bad
    if kind == "asymmetric":  # 1e-3 against a tolerance of 3e-12
        bad = good.copy()
        bad[0, 1] += 1e-3
        return bad
    return {
        "bool": np.eye(len(good), dtype=bool),
        "string": [[str(x) for x in row] for row in rows],
        "None": None,
        "complex": good.astype(complex),
        "ragged": rows[:-1] + [rows[-1][:-1]],
        "beyond-64-bits": [[2**64, *row[1:]] if i == 0 else row for i, row in enumerate(rows)],
        "non-square": good[:, :-1],
        "wrong-n": np.eye(len(good) + 1),
        "empty": np.zeros((0, 0)),
    }[kind]


_SYMMETRIC_FAULTS = ("bool", "string", "None", "complex", "ragged", "beyond-64-bits", "nan", "inf",
                     "non-square", "wrong-n", "empty", "asymmetric")


@pytest.mark.parametrize("entry, kind", [
    pytest.param(entry, kind, id=f"{entry}-{kind}")
    for entry, (_, n, _) in _SYMMETRICS.items() for kind in _SYMMETRIC_FAULTS
    if n is not None or kind != "wrong-n"])  # a matrix of any size has no wrong size
def test_every_symmetric_matrix_argument_is_refused_by_the_one_rule(entry, kind):
    # at the parent a bool noise was answered, a string one read as numbers, a
    # complex prior covariance lost its imaginary part with a warning, a huge
    # integer raised OverflowError and a ragged J_s numpy's message
    name, n, call = _SYMMETRICS[entry]
    q = ScalarQuestion()
    bad = _bad_symmetric(_good_symmetric(n), kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would be a conversion
        with pytest.raises(ValueError) as exc:
            call(q, bad)
    rule = {"asymmetric": "is not symmetric",
            "non-square": "must be square" if n is None else "must be a finite real array"}
    assert str(exc.value).startswith(f"{name} {rule.get(kind, 'must be a finite real array')}")
    assert q.calls == {"h": 0, "draw": 0}


@pytest.mark.parametrize("entry", sorted(_SYMMETRICS))
def test_symmetric_matrices_answer_as_their_float64_array(entry):
    # a list, integers, float32 and an asymmetry within the tolerance are
    # each answered bit for bit as the float64 array they are admitted as
    _, n, call = _SYMMETRICS[entry]
    good = _good_symmetric(n)
    nudged = good.copy()
    nudged[1, 0] *= 1.0 + 4e-13
    assert not np.array_equal(nudged, nudged.T)
    for given, admitted in ((good.tolist(), good), (good.astype(np.int64), good),
                            (good.astype(np.float32), good.astype(np.float32).astype(float)),
                            (nudged, symmetrize(nudged))):
        assert _bits(call(ScalarQuestion(), given)) == _bits(call(ScalarQuestion(), admitted))


def test_only_a_float64_array_reads_the_noise_memo():
    # the memo compared a bool or string noise converted to float with the
    # key, so after an identity noise both were answered as it
    q = ScalarQuestion()
    snr_matrix(q.lin, np.eye(3))
    for bad in (np.eye(3, dtype=bool), [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]):
        with pytest.raises(ValueError, match="^noise covariance must be a finite real array"):
            snr_matrix(q.lin, bad)


@pytest.mark.parametrize("huge", [10**400, -(10**400)])
def test_an_integer_beyond_float_range_is_named_so(huge):
    with pytest.raises(ValueError, match="^x is beyond float range$"):
        require_real(huge, "x", "nonzero")


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

