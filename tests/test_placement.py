import json

import numpy as np
import pytest

from fusionkit import (
    DegenerateBudget,
    FormDisagreement,
    GaussianPrior,
    Inadmissible,
    NonFinite,
    NoRoot,
    PairFactorization,
    PlacementSolution,
    Singular,
    SvdOfRho,
    joint_information,
    lambda_root,
    local_optimality_probe,
    optimal_secondary,
    prewhiten,
    svd_of_rho,
    synergy_gradient_rho,
    synergy_objective,
)
from fusionkit import BlockCovariance, LinearModel, ModalityPair
from fusionkit import placement
from fusionkit.information import _cross_solvers
from fusionkit.placement import (
    _budget_terms,
    _budget_value,
    _objective_gradient_forms,
    _perturbation_gains,
)

from conftest import (
    fd_lagrangian_gradient,
    fd_lagrangian_stationarity,
    random_admissible_rho,
    random_pair,
    rel_fro,
    symmetric_root,
)


def probe_instance(rng):
    """The small instance of the probe tests: (3, 3) rho, 1.5x the minimum budget."""
    A = rng.standard_normal((3, 2))
    rho = random_admissible_rho(rng, 3, 3, 0.7)
    svd = svd_of_rho(A, rho)
    c, oms = _budget_terms(svd)
    p = _budget_value(0.0, c, oms) * 1.5
    return A, rho, optimal_secondary(A, rho, p)


def whitened_probe_instance(n1, n2, m):
    """A whitened (n1, n2, m) pair at twice its minimum budget."""
    wp = prewhiten(random_pair(np.random.default_rng(4030), n1, n2, m))
    svd = svd_of_rho(wp.A_tilde, wp.rho)
    c, oms = _budget_terms(svd)
    p = _budget_value(0.0, c, oms) * 2.0
    return wp.A_tilde, wp.rho, optimal_secondary(wp.A_tilde, wp.rho, p)


def medium_probe_instance():
    """A whitened (40, 30, 10) pair at twice its minimum budget."""
    return whitened_probe_instance(40, 30, 10)


def one_at_a_time_gains(A, rho, B0, n_perturbations, seed, delta):
    """The probe's gains drawn and scored one perturbation at a time, and the base score."""
    K = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))[0](np.eye(rho.shape[1]))
    target = rho.T @ A

    def score(B):
        D = B - target
        return float(np.sum(D * (K @ D)))

    p = float(np.sum(B0 * B0))
    base = score(B0)
    rng = np.random.default_rng(seed)
    gains = np.empty(n_perturbations)
    for k in range(n_perturbations):
        Z = rng.standard_normal(B0.shape)
        Z *= delta / max(float(np.linalg.norm(Z, "fro")), 1e-300)
        B = B0 + Z
        B *= np.sqrt(p / float(np.sum(B * B)))
        gains[k] = score(B) - base
    return gains, base


def fd_gradient_rho(A, B, rho, h=1e-5):
    grad = np.zeros_like(rho)
    for i in range(rho.shape[0]):
        for j in range(rho.shape[1]):
            rp = rho.copy()
            rp[i, j] += h
            rm = rho.copy()
            rm[i, j] -= h
            grad[i, j] = (synergy_objective(A, B, rp) - synergy_objective(A, B, rm)) / (2 * h)
    return grad


class TestSynergyObjective:
    def test_uncorrelated_value(self, rng):
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        J_s = np.diag([0.5, 2.0])
        from fusionkit import InfoOnlyPrior

        e = synergy_objective(A, B, np.zeros((3, 2)), prior=InfoOnlyPrior(J_s))
        expected = np.trace(A.T @ A) + np.trace(B.T @ B) + np.trace(J_s)
        assert e == pytest.approx(expected, rel=1e-12)

    def test_redundant_secondary_value(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 2, 0.7)
        e = synergy_objective(A, rho.T @ A, rho)
        assert e == pytest.approx(float(np.trace(A.T @ A)), rel=1e-10)

    def test_matches_information_module_trace(self, rng):
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((2, 2))
        rho = random_admissible_rho(rng, 3, 2, 0.6)
        pair = ModalityPair(
            LinearModel(A), LinearModel(B), BlockCovariance(np.eye(3), np.eye(2), rho)
        )
        e = synergy_objective(A, B, rho)
        assert e == pytest.approx(float(np.trace(joint_information(pair).matrix)), rel=1e-10)

    def test_is_the_trace_of_the_prewhitened_route_bit_for_bit(self):
        # with identity marginals the factorization whitens by exactly I, so
        # its prewhitened route is the whitened joint information of (A~, B~,
        # rho) as given, under the same guard on rho
        rng = np.random.default_rng(4031)
        for _ in range(100):
            n1, n2, m = (int(k) for k in rng.integers(1, 7, size=3))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.0, 0.99)))
            A, B = rng.standard_normal((n1, m)), rng.standard_normal((n2, m))
            noise = BlockCovariance(np.eye(n1), np.eye(n2), rho)
            fac = PairFactorization.from_pair(ModalityPair(LinearModel(A), LinearModel(B), noise))
            assert synergy_objective(A, B, rho) == float(np.trace(fac.routes["prewhitened"]))


class TestSynergyGradient:
    def test_zero_at_second_redundancy(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        g = synergy_gradient_rho(A, rho.T @ A, rho)
        assert np.linalg.norm(g, "fro") < 1e-8

    def test_zero_at_first_redundancy(self, rng):
        B = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        g = synergy_gradient_rho(rho @ B, B, rho)
        assert np.linalg.norm(g, "fro") < 1e-8

    def test_matches_finite_differences(self, rng):
        # finite-difference oracle, including non-square rho
        for n1, n2 in ((3, 3), (3, 4), (4, 2)):
            A = rng.standard_normal((n1, 2))
            B = rng.standard_normal((n2, 2))
            rho = random_admissible_rho(rng, n1, n2, 0.7)
            g = synergy_gradient_rho(A, B, rho)
            fd = fd_gradient_rho(A, B, rho)
            assert rel_fro(g, fd) < 1e-4

    def test_zero_rho_against_fd(self, rng):
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((3, 2))
        rho = np.zeros((3, 3))
        g = synergy_gradient_rho(A, B, rho)
        fd = fd_gradient_rho(A, B, rho)
        assert rel_fro(g, fd) < 1e-4


class TestLambdaRoot:
    def test_budget_at_zero_multiplier(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.7)
        svd = svd_of_rho(A, rho)
        c, oms = _budget_terms(svd)
        p0 = _budget_value(0.0, c, oms)
        assert lambda_root(svd, p0) == 0.0

    def test_scalar_closed_form(self):
        # rho = c I, A = I: m c^2 / [1 - lam (1 - c^2)]^2 = p, verified by residual
        m, c = 3, 0.6
        A = np.eye(m)
        rho = c * np.eye(m)
        svd = svd_of_rho(A, rho)
        p = 2.0 * m * c**2
        lam = lambda_root(svd, p)
        resid = abs(m * c**2 / (1.0 - lam * (1.0 - c**2)) ** 2 - p)
        assert resid < 1e-12 * p

    def test_residual_contract_on_random_instances(self, rng):
        # budgets drawn from the attainable range by evaluating the curve
        # at a random multiplier inside the positive-denominator branch
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.standard_normal((n1, 3))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.2, 0.9)))
            svd = svd_of_rho(A, rho)
            c, oms = _budget_terms(svd)
            tau = np.zeros(n2)
            tau[: svd.singular_values.shape[0]] = svd.singular_values**2
            lam_hi = 1.0 / float(np.max(1.0 - tau))
            p = _budget_value(float(rng.uniform(0.05, 0.9)) * lam_hi, c, oms)
            lam = lambda_root(svd, p)
            assert abs(_budget_value(lam, c, oms) - p) <= 1e-10 * p

    @pytest.mark.parametrize("where", ["inside", "above_minimum", "below_supremum"])
    def test_residual_contract_at_the_branch_ends(self, rng, where):
        # Budgets just above the value at lambda = 0 and just below the
        # branch supremum (infinite, or finite when rho^T rho has padded
        # zero eigenvalues), with sigma_max(rho) up to 1 - 1e-9.
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = rng.standard_normal((n1, int(rng.integers(1, 5))))
            s_max = float(rng.choice([rng.uniform(0.05, 0.99), 1.0 - 10.0 ** -rng.uniform(3, 9)]))
            svd = svd_of_rho(A, random_admissible_rho(rng, n1, n2, s_max))
            c, oms = _budget_terms(svd)
            tau = np.zeros(n2)
            tau[: svd.singular_values.shape[0]] = svd.singular_values**2
            lam_hi = 1.0 / float(np.max(1.0 - tau))
            frac = {
                "inside": rng.uniform(0.0, 1.0),
                "above_minimum": 10.0 ** -rng.uniform(3, 14),
                "below_supremum": 1.0 - 10.0 ** -rng.uniform(3, 12),
            }[where]
            p = _budget_value(frac * lam_hi, c, oms)
            lam = lambda_root(svd, p)
            assert 0.0 <= lam < lam_hi
            assert abs(_budget_value(lam, c, oms) - p) <= 1e-12 * p

    def test_no_root_above_finite_supremum(self, rng):
        # rho is 1 x 2, so rho^T rho has a zero eigenvalue, lambda_hi = 1 and
        # the budget curve stays finite up to it: c / sigma^4 is its supremum.
        A = rng.standard_normal((1, 2))
        svd = svd_of_rho(A, np.array([[0.6, 0.0]]))
        c, oms = _budget_terms(svd)
        sup = float(c[0]) / 0.6**4
        assert lambda_root(svd, 0.999 * sup) < 1.0
        with pytest.raises(NoRoot, match="supremum") as exc_info:
            lambda_root(svd, 1.001 * sup)
        assert exc_info.value.attainable_min == pytest.approx(_budget_value(0.0, c, oms))

    @pytest.mark.parametrize("p", [0.0, -1.0, np.inf, np.nan])
    def test_budget_must_be_positive_and_finite(self, rng, p):
        # an unchecked inf or NaN budget returned a multiplier off the budget sphere
        A = rng.standard_normal((4, 2))
        rho = random_admissible_rho(rng, 4, 3, 0.7)
        with pytest.raises(ValueError, match="budget p must be"):
            lambda_root(svd_of_rho(A, rho), p)
        with pytest.raises(ValueError, match="budget p must be"):
            optimal_secondary(A, rho, p)

    def test_degenerate_budget_when_all_singular_values_at_one(self):
        A = np.eye(2)
        svd = svd_of_rho(A, np.eye(2))
        with pytest.raises(DegenerateBudget):
            lambda_root(svd, 5.0)

    def test_no_root_below_attainable_minimum(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.7)
        svd = svd_of_rho(A, rho)
        c, oms = _budget_terms(svd)
        p0 = _budget_value(0.0, c, oms)
        with pytest.raises(NoRoot) as exc_info:
            lambda_root(svd, 0.5 * p0)
        assert exc_info.value.attainable_min == pytest.approx(p0)


class TestOptimalSecondary:
    def test_unitary_corner(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        A = rng.standard_normal((4, 2))
        sol = optimal_secondary(A, Q, p=7.0)
        assert sol.lambda_ == 0.0
        assert np.array_equal(sol.B_star, Q.T @ A)
        assert not sol.degenerate

    def test_zero_multiplier_budget(self):
        # p = m c^2 makes lambda = 0 and B* = c I
        m, c = 2, 0.5
        sol = optimal_secondary(np.eye(m), c * np.eye(m), p=m * c**2)
        assert sol.lambda_ == 0.0
        assert np.allclose(sol.B_star, c * np.eye(m))

    def test_zero_rho_degenerate(self, rng):
        A = rng.standard_normal((3, 2))
        sol = optimal_secondary(A, np.zeros((3, 3)), p=2.0)
        assert sol.degenerate
        assert sol.B_star is None
        assert "direction-independent" in sol.note
        assert sol.objective_e == pytest.approx(float(np.trace(A.T @ A)) + 2.0)

    @pytest.mark.parametrize("rho", [[[0.5]], [[0.0]], [[1.0]]])
    def test_overflow_raises_non_finite(self, rho):
        # A~ = 1e300: the budget weights A~ A~^T overflow, and with them the
        # objective of the corner cases; abs(p - inf) <= 1e-12 inf holds, so
        # an unchecked root equation reads lambda = 0 as its root
        A = np.array([[1e300]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFinite):
            optimal_secondary(A, np.array(rho), 5.0)

    def test_lambda_root_refuses_overflowing_weights(self):
        with np.errstate(over="ignore"):
            svd = svd_of_rho(np.array([[1e300]]), np.array([[0.5]]))
        with pytest.raises(NonFinite, match="budget weights"):
            lambda_root(svd, 5.0)
        # finite weights whose sum at lambda = 0 overflows
        s = np.array([0.999, 0.999])
        svd = SvdOfRho(singular_values=s, d=np.array([1e308, 1e308]), n2=2)
        with np.errstate(over="ignore"), pytest.raises(NonFinite, match="lambda = 0"):
            lambda_root(svd, 5.0)

    def test_solution_is_finite(self):
        with pytest.raises(NonFinite):
            PlacementSolution(B_star=None, lambda_=0.0, budget_p=1.0, objective_e=np.inf,
                              kkt_residual=0.0)
        with pytest.raises(NonFinite):
            PlacementSolution(B_star=np.array([[np.nan]]), lambda_=0.0, budget_p=1.0,
                              objective_e=1.0, kkt_residual=0.0)

    def test_constraint_and_stationarity_sweep(self, rng):
        for _ in range(25):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            A = rng.standard_normal((n1, 2))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.3, 0.9)))
            svd = svd_of_rho(A, rho)
            c, oms = _budget_terms(svd)
            tau = np.zeros(n2)
            tau[: svd.singular_values.shape[0]] = svd.singular_values**2
            lam_hi = 1.0 / float(np.max(1.0 - tau))
            p = _budget_value(float(rng.uniform(0.1, 0.9)) * lam_hi, c, oms)
            sol = optimal_secondary(A, rho, p)
            trace = float(np.sum(sol.B_star**2))
            assert abs(trace - p) <= 1e-8 * (1.0 + p)
            assert sol.kkt_residual <= 1e-5
            assert sol.lambda_ > 0.0

    def test_gradient_forms_match_finite_differences_off_optimum(self, rng):
        # at B* the gradient is about zero, so only an off-optimum point
        # checks the formula itself
        for _ in range(20):
            n1, n2 = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n1, m))
            B = rng.standard_normal((n2, m))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.2, 0.9)))
            lam = float(rng.uniform(0.0, 2.0))
            fd = fd_lagrangian_gradient(A, B, rho, lam)
            solvers = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))[:2]
            for form in _objective_gradient_forms(A, B, rho, *solvers):
                assert rel_fro(form - 2.0 * lam * B, fd) <= 1e-6

    def test_form_disagreement_raises(self, rng, monkeypatch):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        svd = svd_of_rho(A, rho)
        c, oms = _budget_terms(svd)
        p = _budget_value(0.0, c, oms) * 1.5
        forms = placement._objective_gradient_forms

        def skewed(*args):
            form1, form2 = forms(*args)
            return form1, form2 + 1e-6

        monkeypatch.setattr(placement, "_objective_gradient_forms", skewed)
        with pytest.raises(FormDisagreement) as exc_info:
            optimal_secondary(A, rho, p)
        assert exc_info.value.max_relative_error >= 1e-8

    @pytest.mark.parametrize("gap", [1e-3, 1e-5, 1e-7, 1e-9, 1e-11])
    def test_near_unitary_rho_is_solved(self, gap):
        # sigma_max(rho) = 1 - gap keeps cond(I - rho^T rho) below the
        # Singular guard; the two forms then agree only to about cond * eps,
        # which must not be taken for a disagreement
        rng = np.random.default_rng(9)
        U, _ = np.linalg.qr(rng.standard_normal((12, 8)))
        V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        s = np.sort(rng.uniform(0.2, 0.9, 8))[::-1]
        s[0] = 1.0 - gap
        rho = (U * s) @ V.T
        A = rng.standard_normal((12, 4))
        svd = svd_of_rho(A, rho)
        c, oms = _budget_terms(svd)
        p = _budget_value(0.0, c, oms) * 2.0
        sol = optimal_secondary(A, rho, p)
        assert sol.kkt_residual <= 1e-5
        fd = fd_lagrangian_stationarity(A, sol.B_star, rho, sol.lambda_, sol.objective_e)
        assert fd <= 1e-5

    def test_unverifiable_stationarity_is_refused(self, tmp_path, capsys):
        # 1 - sigma_max^2 = 1.09e-12 puts cond(I - rho^T rho) near 7.7e11, inside
        # the Singular guard; the solve's KKT residual is about 5e-5, above the
        # 1e-5 bound, so it is refused rather than returned
        rng = np.random.default_rng([7, 157])
        U, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.sort(rng.uniform(0.1, 0.9, 3))[::-1]
        gap = 10.0 ** rng.uniform(-12.0, -11.0)
        s[0] = np.sqrt(1.0 - gap)
        rho = (U * s) @ V.T
        A = rng.standard_normal((4, 2))
        c, oms = _budget_terms(svd_of_rho(A, rho))
        p = _budget_value(0.0, c, oms) * rng.uniform(1.25, 5.0)
        with pytest.raises(Singular, match=r"KKT residual \S+ exceeds the bound 1e-05") as exc:
            optimal_secondary(A, rho, p)
        assert exc.value.condition == pytest.approx((1.0 - s[-1] ** 2) / gap, rel=1e-2)

        from fusionkit.cli import main

        doc = {
            "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
            "modalities": [
                {"name": "a", "A": A.tolist(), "noise_cov": np.eye(4).tolist()},
                {"name": "b", "A": np.ones((3, 2)).tolist(), "noise_cov": np.eye(3).tolist()},
            ],
            "cross_cov": {"pair": [0, 1], "matrix": rho.tolist()},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["place", str(path), "--primary", "a", "--budget", repr(p)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and "(Singular)" in lines[0] and "KKT residual" in lines[0]

    def test_prior_shifts_objective_only(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        svd = svd_of_rho(A, rho)
        c, oms = _budget_terms(svd)
        p = _budget_value(0.0, c, oms) * 1.5
        plain = optimal_secondary(A, rho, p)
        prior = GaussianPrior(mean=np.zeros(2), cov=0.5 * np.eye(2))
        with_prior = optimal_secondary(A, rho, p, prior=prior)
        assert np.array_equal(plain.B_star, with_prior.B_star)
        assert with_prior.objective_e == pytest.approx(
            plain.objective_e + float(np.trace(prior.info_matrix()))
        )


class TestProbeAndUnwhiten:
    def test_unwhiten_round_trip(self, tmp_path, capsys):
        # place reports B~* and its raw-domain L_u B~*, with L_u the
        # symmetric root of sigma_u (the basis of prewhiten); a solve with
        # that root maps the latter back onto B~*
        from fusionkit.cli import main

        sigma_v, sigma_u = np.diag([0.5, 0.4, 0.6]), np.array([[0.7, 0.2], [0.2, 0.8]])
        sigma_vu = np.array([[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]])
        doc = {
            "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
            "modalities": [
                {"name": "a", "A": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
                 "noise_cov": sigma_v.tolist()},
                {"name": "b", "A": [[0.8, 0.3], [0.2, 0.9]], "noise_cov": sigma_u.tolist()},
            ],
            "cross_cov": {"pair": [0, 1], "matrix": sigma_vu.tolist()},
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert main(["place", str(path), "--primary", "a", "--budget", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        B_raw = np.array(report["B_star_unwhitened"])
        assert rel_fro(np.linalg.solve(symmetric_root(sigma_u), B_raw), np.array(report["B_star"])) < 1e-12

    def test_probe_reports_deterministically(self, rng):
        # first-order stationarity does not claim optimality: the probe
        # measures and reports improvements instead of hiding them
        A, rho, sol = probe_instance(rng)
        r1 = local_optimality_probe(A, rho, sol, n_perturbations=200, seed=3)
        r2 = local_optimality_probe(A, rho, sol, n_perturbations=200, seed=3)
        assert (r1.n_violations, r1.max_improvement) == (r2.n_violations, r2.max_improvement)
        print(
            f"placement probe: {r1.n_violations}/200 perturbations improved the "
            f"objective (max gain {r1.max_improvement:.3e})"
        )

    def test_probe_gains_match_objective_differences(self, rng):
        A, rho, sol = probe_instance(rng)
        delta = 1e-2
        gains = _perturbation_gains(A, rho, sol.B_star, 50, 11, delta)
        # the perturbations, drawn as the probe draws them
        B0 = sol.B_star
        p = float(np.sum(B0 * B0))
        base = synergy_objective(A, B0, rho)
        draws = np.random.default_rng(11)
        for gain in gains:
            Z = draws.standard_normal(B0.shape)
            Z *= delta / np.linalg.norm(Z, "fro")
            B = B0 + Z
            B *= np.sqrt(p / float(np.sum(B * B)))
            assert abs(gain - (synergy_objective(A, B, rho) - base)) <= 1e-10

    @pytest.mark.parametrize(
        "instance, delta, violations",
        [
            ("small", 1e-3, 200),
            ("small", 1e-4, 47),
            ("medium", 1e-3, 200),
            ("medium", 1.1e-4, 108),
        ],
    )
    def test_probe_violation_counts_pinned(self, rng, instance, delta, violations):
        # counts of the probe that evaluated the full objective per
        # perturbation; the smaller deltas put gains on both sides of the
        # 1e-8 threshold
        if instance == "small":
            A, rho, sol = probe_instance(rng)
            seed = 3
        else:
            A, rho, sol = medium_probe_instance()
            seed = 0
        report = local_optimality_probe(A, rho, sol, seed=seed, delta=delta)
        assert report.n_violations == violations

    @pytest.mark.parametrize("dims", [(3, 3, 2), (40, 30, 10), (200, 150, 20)])
    @pytest.mark.parametrize("delta", [1e-3, 1.1e-4])
    def test_probe_gains_match_one_at_a_time(self, dims, delta):
        A, rho, sol = whitened_probe_instance(*dims)
        gains = _perturbation_gains(A, rho, sol.B_star, 200, 5, delta)
        oracle, base = one_at_a_time_gains(A, rho, sol.B_star, 200, 5, delta)
        assert np.max(np.abs(gains - oracle)) <= 1e-12 * (1.0 + abs(base))

    def test_probe_blocks_keep_the_draw_order(self):
        # more perturbations than one block: the second block continues
        # the draws where the first stopped
        A, rho, sol = medium_probe_instance()
        n = placement.PROBE_BLOCK + 44
        gains = _perturbation_gains(A, rho, sol.B_star, n, 7, 1.1e-4)
        oracle, base = one_at_a_time_gains(A, rho, sol.B_star, n, 7, 1.1e-4)
        assert np.max(np.abs(gains - oracle)) <= 1e-12 * (1.0 + abs(base))
        report = local_optimality_probe(A, rho, sol, n_perturbations=n, seed=7, delta=1.1e-4)
        assert report.n_violations == int(np.sum(oracle > 1e-8))

    def test_probe_of_no_perturbations(self, rng):
        A, rho, sol = probe_instance(rng)
        report = local_optimality_probe(A, rho, sol, n_perturbations=0)
        assert (report.n_perturbations, report.n_violations) == (0, 0)
        assert report.max_improvement == 0.0

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0, -1e-3])
    def test_probe_refuses_a_displacement_that_probes_nothing(self, rng, delta):
        # a NaN or infinite delta reported no violation, as a zero one does
        A, rho, sol = probe_instance(rng)
        with pytest.raises(ValueError, match="delta"):
            local_optimality_probe(A, rho, sol, delta=delta)

    @pytest.mark.parametrize("n_perturbations", [-3, 2.5, "200", None])
    def test_probe_refuses_a_count_that_is_not_a_count(self, rng, n_perturbations):
        A, rho, sol = probe_instance(rng)
        with pytest.raises(ValueError, match="n_perturbations"):
            local_optimality_probe(A, rho, sol, n_perturbations=n_perturbations)

    def test_cross_solvers(self, rng):
        for n1, n2 in [(4, 3), (3, 4), (3, 3)]:
            rho = random_admissible_rho(rng, n1, n2, 0.9)
            solve_k, solve_kp, k_norm = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))
            K, Kp = solve_k(np.eye(n2)), solve_kp(np.eye(n1))
            assert rel_fro(K, np.linalg.inv(np.eye(n2) - rho.T @ rho)) <= 1e-12
            assert rel_fro(Kp, np.linalg.inv(np.eye(n1) - rho @ rho.T)) <= 1e-12
            assert k_norm == pytest.approx(np.linalg.norm(K, 2), rel=1e-10)
            assert k_norm == pytest.approx(np.linalg.norm(Kp, 2), rel=1e-10)
        with pytest.raises(Inadmissible):
            _cross_solvers(np.diag([1.0, 0.5]), np.array([1.0, 0.5]))
        # admissible, but the gaps 1 - s^2 are 0.75 and about 2e-13: refused
        # by the one rule of every inverse, carrying max(gap) / min(gap)
        s = np.array([1.0 - 1e-13, 0.5])
        with pytest.raises(Singular, match=r"^\(I - rho\^T rho\) is numerically singular") as exc:
            _cross_solvers(np.diag(s), s)
        assert exc.value.condition == 0.75 / (1.0 - s[0] ** 2)

    def test_probe_refuses_singular_cap(self, rng):
        # sigma_max(rho) = 1 - 1e-13: admissible, but cond(I - rho^T rho) > 1e12
        Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rho = (Q1 * np.array([1.0 - 1e-13, 0.5, 0.2])) @ Q2.T
        A = rng.standard_normal((3, 2))
        B = rng.standard_normal((3, 2))
        sol = PlacementSolution(
            B_star=B, lambda_=0.1, budget_p=float(np.sum(B * B)), objective_e=0.0, kkt_residual=0.0
        )
        with pytest.raises(Singular):
            local_optimality_probe(A, rho, sol)
        with pytest.raises(Singular):
            optimal_secondary(A, rho, 5.0)

    @pytest.mark.parametrize("sigma_max", [1.5, 1.0])
    def test_probe_guards_the_rho_it_is_given(self, sigma_max):
        # the guard of K once read the singular values carried on the
        # solution: probed with another rho, it scored 107 "violations"
        # from a meaningless K at 1.5 and raised numpy's LinAlgError at 1.0
        A = np.random.default_rng(0).standard_normal((2, 3))
        sol = optimal_secondary(A, np.diag([0.5, 0.3]), 1.0)
        with pytest.raises(Inadmissible):
            local_optimality_probe(A, np.diag([sigma_max, 0.3]), sol)


# A whitened instance every placement entry point answers: A~ (3, 2),
# rho (3, 2), B~ (2, 2).
FIT_A = np.array([[1.0, 0.5], [0.0, 2.0], [0.3, -1.0]])
FIT_RHO = np.array([[0.5, 0.0], [0.0, 0.3], [0.0, 0.0]])
FIT_B = np.array([[0.3, 0.0], [1.0, -1.0]])


def probe_of(A, rho, B):
    sol = PlacementSolution(B_star=B, lambda_=0.0, budget_p=1.0, objective_e=0.0, kkt_residual=0.0)
    return local_optimality_probe(A, rho, sol)


# entry point -> (call on (A~, rho, B~), the name its B~ is refused by, or None)
ENTRY_POINTS = {
    "synergy_objective": (lambda A, rho, B: synergy_objective(A, B, rho), "B_tilde"),
    "synergy_gradient_rho": (lambda A, rho, B: synergy_gradient_rho(A, B, rho), "B_tilde"),
    "svd_of_rho": (lambda A, rho, B: svd_of_rho(A, rho), None),
    "optimal_secondary": (lambda A, rho, B: optimal_secondary(A, rho, 5.0), None),
    "local_optimality_probe": (probe_of, "solution.B_star"),
}


def with_nan(M):
    M = np.array(M, dtype=float)
    M[0, 0] = np.nan
    return M


# fault -> (the faulty (A~, rho, B~), the argument blamed; "B" is B~'s name)
FAULTS = {
    "rho-row-too-many": (lambda A, rho, B: (A, np.vstack([rho, rho[:1]]), B), "rho"),
    "rho-column-too-many": (lambda A, rho, B: (A, np.hstack([rho, rho[:, :1]]), B), "B"),
    "rho-1d": (lambda A, rho, B: (A, rho.ravel(), B), "rho"),
    "rho-nan": (lambda A, rho, B: (A, with_nan(rho), B), "rho"),
    "A-1d": (lambda A, rho, B: (A.ravel(), rho, B), "A_tilde"),
    "A-nan": (lambda A, rho, B: (with_nan(A), rho, B), "A_tilde"),
    "B-column-too-many": (lambda A, rho, B: (A, rho, np.hstack([B, B[:, :1]])), "B"),
    "B-nan": (lambda A, rho, B: (A, rho, with_nan(B)), "B"),
}


@pytest.mark.parametrize("entry, fault", [
    (entry, fault)
    for entry, (_, b_name) in ENTRY_POINTS.items()
    for fault, (_, blame) in FAULTS.items()
    # a solution refuses a NaN B~* itself, before it can be probed
    if (blame != "B" or b_name is not None) and (entry, fault) != ("local_optimality_probe", "B-nan")
])
def test_placement_refuses_whitened_inputs_that_do_not_fit(entry, fault):
    # numpy's own errors (core dimension mismatch, broadcast, LinAlgError,
    # AxisError) or a NaN objective named no argument
    call, b_name = ENTRY_POINTS[entry]
    faulty, blame = FAULTS[fault]
    call(FIT_A, FIT_RHO, FIT_B)  # the instance fits
    with pytest.raises(ValueError) as exc:
        call(*faulty(FIT_A, FIT_RHO, FIT_B))
    message = str(exc.value)
    assert message.startswith(f"{b_name if blame == 'B' else blame} must")
    assert "(A_tilde (" in message and ", rho (" in message
