import warnings

import numpy as np
import pytest

from fusionkit import (
    BlockCovariance,
    FormDisagreement,
    GaussianPrior,
    LinearModel,
    ModalityPair,
    NoPriorInfo,
    NonFinite,
    NonlinearModel,
    SamplerPrior,
    Singular,
    fisher_nonlinear,
    joint_information_nonlinear,
    joint_information,
    numeric_jacobian,
    snr_matrix,
    total_information_nonlinear,
)
from fusionkit import nonlinear

from conftest import (
    fd_jacobian,
    fisher_per_sample,
    joint_per_sample,
    plant_disagreement,
    random_admissible_rho,
    random_joint_noise,
    random_pd,
    rel_fro,
)


def poly_model(rng, n, m, analytic=False):
    """``h(s) = A s + C (s * s)``, with its Jacobian ``A + 2 C diag(s)`` when ``analytic``."""
    A = rng.standard_normal((n, m))
    C = 0.5 * rng.standard_normal((n, m))
    jacobian = (lambda s: A + 2.0 * C * s) if analytic else None
    return NonlinearModel(h=lambda s: A @ s + C @ (s * s), n=n, m=m, jacobian=jacobian)


def gaussian_prior(rng, m):
    return GaussianPrior(mean=rng.standard_normal(m), cov=random_pd(rng, m))


def squared_scalar():
    return NonlinearModel(
        h=lambda s: np.array([s[0] ** 2]), n=1, m=1, jacobian=lambda s: np.array([[2 * s[0]]])
    )


class TestNumericJacobian:
    def test_linear_map_exact(self, rng):
        A = rng.standard_normal((4, 3))
        J = numeric_jacobian(lambda s: A @ s, np.array([0.3, -0.7, 1.1]), step=1e-5)
        assert np.max(np.abs(J - A)) < 1e-10

    def test_hand_derivative(self):
        h = lambda s: np.array([s[0] ** 2, s[0] * s[1]])
        J = numeric_jacobian(h, np.array([1.0, 2.0]))
        assert np.allclose(J, [[2.0, 0.0], [2.0, 1.0]], atol=1e-8)

    def test_step_refinement_stable(self):
        h = lambda s: np.array([np.sin(s[0]), np.exp(0.3 * s[1])])
        s = np.array([0.4, -0.2])
        J1 = numeric_jacobian(h, s, step=1e-4)
        J2 = numeric_jacobian(h, s, step=1e-5)
        assert rel_fro(J1, J2) < 1e-6

    def test_non_finite_raises(self):
        def half_line(s):
            return np.array([np.inf if s[0] < 0 else s[0]])

        with pytest.raises(NonFinite):
            numeric_jacobian(half_line, np.zeros(1))

    @pytest.mark.parametrize("step", [0.0, np.inf, np.nan])
    def test_step_that_probes_nothing_is_refused(self, step):
        # a zero step returned a NaN Jacobian; an infinite or NaN one was blamed on h
        def h(s):
            raise AssertionError("h evaluated before the step was checked")

        with pytest.raises(ValueError, match="step must be finite and nonzero"):
            numeric_jacobian(h, np.zeros(2), step=step)

    def test_analytic_vs_numeric_agreement(self, rng):
        model = squared_scalar()
        for s0 in rng.standard_normal(5) + 2.0:
            s = np.array([s0])
            assert rel_fro(model.jac(s), numeric_jacobian(model.h, s)) < 1e-5


class TestFisherNonlinear:
    def test_linear_model_exact_at_any_n(self, rng):
        A = rng.standard_normal((4, 2))
        sigma = random_pd(rng, 4)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        est = fisher_nonlinear(NonlinearModel.linear(A), sigma, prior, N=10, seed=0)
        expected = snr_matrix(LinearModel(A), sigma).matrix
        assert rel_fro(est.J, expected) < 1e-12
        # constant integrand: std err is pure accumulator roundoff
        assert np.max(est.std_err) < 1e-6 * np.linalg.norm(expected)

    @pytest.mark.parametrize("scale", [1.0, 1e5])
    def test_constant_jacobian_std_err_is_rounding(self, rng, scale):
        # two blocks of draws of one matrix: the per-block centred sums leave
        # only rounding, where a one-pass s2/N - mean^2 left about 1e-9 |J|
        A = scale * rng.standard_normal((4, 2))
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        sigma = random_pd(rng, 4)
        est = fisher_nonlinear(NonlinearModel.linear(A), sigma, prior, N=20_000, seed=1)
        assert np.max(est.std_err) <= 1e-14 * np.max(np.abs(est.J))

    def test_squared_scalar_moment(self):
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        est = fisher_nonlinear(squared_scalar(), np.eye(1), prior, N=100_000, seed=2)
        assert abs(est.J[0, 0] - 4.0) <= 3.0 * est.std_err[0, 0]

    def test_doubling_noise_halves_estimate(self):
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        e1 = fisher_nonlinear(squared_scalar(), np.eye(1), prior, N=5000, seed=7)
        e2 = fisher_nonlinear(squared_scalar(), 2.0 * np.eye(1), prior, N=5000, seed=7)
        assert e2.J[0, 0] == pytest.approx(e1.J[0, 0] / 2.0, rel=1e-12)

    def test_std_err_shrinks_like_sqrt_n(self):
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        ses = []
        for N in (1000, 10_000, 100_000):
            est = fisher_nonlinear(squared_scalar(), np.eye(1), prior, N=N, seed=4)
            ses.append(est.std_err[0, 0])
        for k in range(2):
            ratio = ses[k] / ses[k + 1]
            assert abs(ratio - np.sqrt(10.0)) < 0.2 * np.sqrt(10.0)


class TestTotalInformationNonlinear:
    def test_linear_reduction(self, rng):
        A = rng.standard_normal((4, 2))
        sigma = random_pd(rng, 4)
        gamma = random_pd(rng, 2)
        prior = GaussianPrior(mean=np.zeros(2), cov=gamma)
        est = total_information_nonlinear(NonlinearModel.linear(A), sigma, prior, N=10, seed=0)
        expected = snr_matrix(LinearModel(A), sigma).matrix + np.linalg.inv(gamma)
        assert rel_fro(est.J, expected) < 1e-12

    def test_zero_prior_info_equals_fisher(self):
        prior = SamplerPrior(
            m=1,
            draw=lambda rng, n: rng.standard_normal((n, 1)),
            score_fn=lambda s: -s,
        )
        # comparison against the fisher term alone needs J_s = 0; use a
        # sampler subclass whose info matrix is zero
        class ZeroInfoSampler(SamplerPrior):
            def info_matrix(self):
                return np.zeros((self.m, self.m))

        zprior = ZeroInfoSampler(m=1, draw=lambda rng, n: rng.standard_normal((n, 1)))
        model = squared_scalar()
        total = total_information_nonlinear(model, np.eye(1), zprior, N=2000, seed=5)
        fisher = fisher_nonlinear(model, np.eye(1), zprior, N=2000, seed=5)
        assert total.J[0, 0] == fisher.J[0, 0]

    def test_squared_scalar_with_standard_normal_prior(self):
        # composition of the moment oracle (4) and the prior information (1)
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        est = total_information_nonlinear(squared_scalar(), np.eye(1), prior, N=100_000, seed=6)
        assert abs(est.J[0, 0] - 5.0) <= 3.0 * est.std_err[0, 0]

    def test_a_prior_without_information_is_refused_before_any_draw(self):
        calls = []

        def h(s):
            calls.append(1)
            return s

        prior = SamplerPrior(m=2, draw=lambda rng, n: rng.standard_normal((n, 2)))
        with pytest.raises(NoPriorInfo):
            total_information_nonlinear(NonlinearModel(h=h, n=2, m=2), np.eye(2), prior,
                                        N=5000, seed=0)
        assert calls == []


class TestJointInformationNonlinear:
    def test_linear_pair_matches_linear_module(self, rng):
        n1, n2, m = 3, 2, 2
        A = rng.standard_normal((n1, m))
        B = rng.standard_normal((n2, m))
        rho = random_admissible_rho(rng, n1, n2, 0.6)
        noise = BlockCovariance(np.eye(n1), np.eye(n2), rho)
        prior = GaussianPrior(mean=np.zeros(m), cov=random_pd(rng, m))
        est = joint_information_nonlinear(
            NonlinearModel.linear(A), NonlinearModel.linear(B), noise, prior, N=10, seed=0
        )
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        expected = joint_information(pair, prior).matrix
        assert rel_fro(est.J, expected) < 1e-12

    def test_uncorrelated_additivity_same_seed(self):
        # same seed stream on both sides makes the comparison exact up to
        # roundoff, well within 3 standard errors
        h = squared_scalar()
        g = NonlinearModel(
            h=lambda s: np.array([np.sin(s[0])]), n=1, m=1,
            jacobian=lambda s: np.array([[np.cos(s[0])]]),
        )
        prior = SamplerPrior(m=1, draw=lambda rng, n: rng.standard_normal((n, 1)))
        noise = BlockCovariance(np.eye(1), np.eye(1), np.zeros((1, 1)))
        joint = joint_information_nonlinear(h, g, noise, prior, N=20_000, seed=9)
        fh = fisher_nonlinear(h, np.eye(1), prior, N=20_000, seed=9)
        fg = fisher_nonlinear(g, np.eye(1), prior, N=20_000, seed=9)
        assert abs(joint.J[0, 0] - (fh.J[0, 0] + fg.J[0, 0])) <= 3.0 * (
            joint.std_err[0, 0] + 1e-12
        )

    def test_redundant_nonlinear_secondary(self, rng):
        # g~ = rho^T h~ pointwise: the second modality adds nothing
        m = 1
        rho = random_admissible_rho(rng, 2, 2, 0.7)
        h = NonlinearModel(
            h=lambda s: np.array([s[0] ** 2, np.sin(s[0])]),
            n=2,
            m=m,
            jacobian=lambda s: np.array([[2 * s[0]], [np.cos(s[0])]]),
        )
        g = NonlinearModel(
            h=lambda s: rho.T @ h.h(s), n=2, m=m, jacobian=lambda s: rho.T @ h.jacobian(s)
        )
        prior = SamplerPrior(m=m, draw=lambda rng, n: rng.standard_normal((n, m)))
        noise = BlockCovariance(np.eye(2), np.eye(2), rho)
        joint = joint_information_nonlinear(h, g, noise, prior, N=20_000, seed=11)
        single = fisher_nonlinear(h, np.eye(2), prior, N=20_000, seed=11)
        assert abs(joint.J[0, 0] - single.J[0, 0]) <= 3.0 * (single.std_err[0, 0] + 1e-12)

    def test_near_unitary_rho_is_singular(self):
        # cond(I - rho^T rho) ~ 5e12 exceeds the guard; an unguarded solve
        # returned trace(J) ~ 2.4e12 here
        noise = BlockCovariance(np.eye(2), np.eye(2), np.diag([1.0 - 1e-13, 0.5]))
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        A, B = np.array([[1.0], [0.5]]), np.array([[0.3], [1.0]])
        with pytest.raises(Singular):
            joint_information_nonlinear(
                NonlinearModel.linear(A), NonlinearModel.linear(B), noise, prior, N=10, seed=0
            )
        with pytest.raises(Singular):
            joint_information(ModalityPair(LinearModel(A), LinearModel(B), noise), prior)

    def test_shared_source_dimension_required(self):
        h = squared_scalar()
        g = NonlinearModel(h=lambda s: s, n=2, m=2)
        noise = BlockCovariance(np.eye(1), np.eye(2), np.zeros((1, 2)))
        prior = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
        with pytest.raises(ValueError):
            joint_information_nonlinear(h, g, noise, prior, N=10, seed=0)


class TestBlockBatching:
    """The block-batched integrands against the per-sample formulas (``conftest``)."""

    # N below one block (8192 draws) and one block plus a remainder
    @pytest.mark.parametrize(
        "N, m, analytic",
        [(3000, 1, False), (9000, 2, False), (3000, 4, False), (9000, 3, True), (3000, 3, True)],
    )
    def test_fisher_bit_identical_to_per_sample(self, rng, N, m, analytic):
        model = poly_model(rng, m + 3, m, analytic)
        sigma = random_pd(rng, m + 3)
        prior = gaussian_prior(rng, m)
        est = fisher_nonlinear(model, sigma, prior, N=N, seed=31)
        J, std_err = fisher_per_sample(model, sigma, prior, N, 31)
        assert np.array_equal(est.J, J)
        assert np.array_equal(est.std_err, std_err)

    @pytest.mark.parametrize("N, n1, n2, m", [(9000, 4, 3, 2), (3000, 3, 2, 1), (3000, 2, 5, 3)])
    def test_joint_bit_identical_to_per_sample(self, rng, N, n1, n2, m):
        h, g = poly_model(rng, n1, m), poly_model(rng, n2, m, analytic=True)
        noise = random_joint_noise(rng, n1, n2)
        prior = gaussian_prior(rng, m)
        est = joint_information_nonlinear(h, g, noise, prior, N=N, seed=37)
        J, std_err = joint_per_sample(h, g, noise, prior, N, 37)
        assert np.array_equal(est.J, J)
        assert np.array_equal(est.std_err, std_err)

    def test_h_called_once_per_perturbed_point(self, rng):
        calls = []
        base = poly_model(rng, 4, 3)
        model = NonlinearModel(h=lambda s: calls.append(1) or base.h(s), n=4, m=3)
        fisher_nonlinear(model, np.eye(4), gaussian_prior(rng, 3), N=2500, seed=1)
        assert len(calls) == 2 * 3 * 2500

    def test_jac_is_one_row_of_jacobians(self, rng):
        model = poly_model(rng, 4, 3)
        S = rng.standard_normal((5, 3))
        D = model.jacobians(S)
        for i in range(5):
            assert np.array_equal(model.jac(S[i]), D[i])
            assert np.array_equal(numeric_jacobian(model.h, S[i]), D[i])
            assert np.array_equal(D[i], fd_jacobian(model.h, S[i]))

    @staticmethod
    def _edge_prior(N, row):
        """Prior drawing zeros except one row in the middle of the block."""

        def draw(rng, n):
            S = np.zeros((n, 2))
            S[n // 2] = row
            return S

        return SamplerPrior(m=2, draw=draw)

    def test_non_finite_h_mid_block_names_the_coordinate(self):
        # finite everywhere except beyond s_1 = 1: only the "+" step along
        # coordinate 1 of the middle draw leaves the domain
        def h(s):
            return np.array([s[0], s[1], np.inf if s[1] > 1.0 else 0.0])

        model = NonlinearModel(h=h, n=3, m=2)
        prior = self._edge_prior(4000, [0.0, 1.0])
        with pytest.raises(NonFinite, match="near coordinate 1"):
            fisher_nonlinear(model, np.eye(3), prior, N=4000, seed=0)
        with pytest.raises(NonFinite, match="near coordinate 1"):
            numeric_jacobian(h, np.array([0.0, 1.0]))

    def test_scalar_h_is_not_broadcast_into_a_row(self, rng):
        model = NonlinearModel(h=lambda s: float(s[0] * s[1]), n=2, m=2)
        with pytest.raises(ValueError, match="Jacobian has shape"):
            fisher_nonlinear(model, np.eye(2), gaussian_prior(rng, 2), N=100, seed=0)
        with pytest.raises(ValueError, match="Jacobian has shape"):
            model.jac(np.ones(2))

    def test_wrong_length_h_raises(self, rng):
        long_model = NonlinearModel(h=lambda s: np.array([s[0], s[1], 1.0]), n=2, m=2)
        with pytest.raises(ValueError, match="Jacobian has shape"):
            fisher_nonlinear(long_model, np.eye(2), gaussian_prior(rng, 2), N=100, seed=0)

        # one draw in the middle of the block gets a shorter output
        def h(s):
            return s[:1] if s[1] > 1.0 else s

        model = NonlinearModel(h=h, n=2, m=2)
        prior = self._edge_prior(4000, [0.0, 2.0])
        with pytest.raises(ValueError, match="different shapes"):
            fisher_nonlinear(model, np.eye(2), prior, N=4000, seed=0)

    def test_h_raising_value_error_is_not_relabelled(self):
        # only numpy's refusal of ragged outputs is reported as different shapes
        def h(s):
            raise ValueError("math domain: s must be positive")

        with pytest.raises(ValueError) as info:
            numeric_jacobian(h, np.array([0.1, 0.5]))
        assert str(info.value) == "math domain: s must be positive"

    def test_non_finite_analytic_jacobian_raises(self, rng):
        model = NonlinearModel(
            h=lambda s: s, n=2, m=2,
            jacobian=lambda s: np.full((2, 2), np.nan) if s[1] > 1.0 else np.eye(2),
        )
        with pytest.raises(NonFinite, match="Jacobian evaluation"):
            fisher_nonlinear(model, np.eye(2), self._edge_prior(4000, [0.0, 2.0]), N=4000, seed=0)


@pytest.mark.parametrize("skew, refused", [(0.9e-8, False), (1.1e-8, True)])
def test_per_sample_forms_check_boundary(rng, monkeypatch, skew, refused):
    # the skew is planted in every sample's matrix; one refused sample refuses the estimate
    h, g = poly_model(rng, 3, 2), poly_model(rng, 2, 2)
    noise, prior = random_joint_noise(rng, 3, 2), gaussian_prior(rng, 2)
    answer = joint_information_nonlinear(h, g, noise, prior, N=64, seed=1)
    plant_disagreement(monkeypatch, nonlinear, "joint nonlinear information forms per sample",
                       skew)
    if refused:
        with pytest.raises(FormDisagreement, match="forms per sample disagree") as exc:
            joint_information_nonlinear(h, g, noise, prior, N=64, seed=1)
        assert exc.value.max_relative_error == pytest.approx(skew, rel=1e-5)
    else:  # an admitted check changes no bit of the estimate
        est = joint_information_nonlinear(h, g, noise, prior, N=64, seed=1)
        assert np.array_equal(est.J, answer.J) and np.array_equal(est.std_err, answer.std_err)


@pytest.mark.parametrize("output", [
    pytest.param(lambda s: s > 0.0, id="bool"),  # answered a zero Fisher matrix
    pytest.param(lambda s: s + 0j, id="complex"),  # lost its imaginary part to a warning
    pytest.param(lambda s: complex(s[0]), id="complex-scalar"),  # an untyped TypeError
])
def test_a_map_whose_output_is_not_real_is_refused_by_name(output):
    # numeric_jacobian and the second map of a pair read h by the one callback rule
    n = np.atleast_1d(output(np.ones(2))).shape[0]
    h, g = NonlinearModel(lambda s: s, n=2, m=2), NonlinearModel(output, n=n, m=2)
    noise = BlockCovariance(np.eye(2), np.eye(n), np.zeros((2, n)))
    prior = GaussianPrior(np.zeros(2), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^h returned entries of dtype (complex|bool)"):
            numeric_jacobian(output, np.ones(2))
        with pytest.raises(ValueError, match="^h returned entries of dtype (complex|bool)"):
            joint_information_nonlinear(h, g, noise, prior, N=10, seed=0)


@pytest.mark.parametrize("s0", [1.0, 1.0001])
def test_a_chunk_mixing_bool_and_real_outputs_is_refused(s0):
    # at s0 = 1.0 the central differences straddle s[0] = 1: the outputs past it are
    # bools among float ones, which the stacked chunk read as 0/1 ([[0.5, 0], [1.25e4, 1]])
    def h(s):
        return (s > 0.0) if s[0] > 1.0 else s

    with pytest.raises(ValueError, match="^h returned entries of dtype bool, expected real numbers"):
        numeric_jacobian(h, np.array([s0, 0.5]))
    with pytest.raises(ValueError, match="^h returned entries of dtype bool"):
        numeric_jacobian(lambda s: float(s[0]) if s[0] > 1.0 else bool(s[1]), np.array([1.0, 0.5]))
    # Python ints among Python floats are real numbers, as a chunk of them is
    J = numeric_jacobian(lambda s: float(s[0]) if s[0] > 1.0 else 1, np.array([1.0, 0.5]))
    assert J.shape == (1, 2) and np.isfinite(J).all()


def test_an_integer_map_keeps_its_shape_check():
    # an integer output is converted, then refused as a float output is
    with pytest.raises(ValueError, match=r"Jacobian has shape \(3, 2\), expected \(2, 2\)"):
        NonlinearModel(lambda s: np.array([1, 2, 3]), n=2, m=2).jac(np.ones(2))
    with pytest.raises(ValueError, match=r"^h returned entries of dtype object"):  # beyond int64
        NonlinearModel(lambda s: np.array([10**20, 0]), n=2, m=2).jac(np.ones(2))
