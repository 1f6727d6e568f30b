import json

import numpy as np
import pytest

from fusionkit import (
    DegenerateBudget,
    FormDisagreement,
    FusionKitError,
    GaussianPrior,
    Inadmissible,
    NonFinite,
    NoRoot,
    PairFactorization,
    PlacementSolution,
    Singular,
    WhitenedPair,
    joint_information,
    local_optimality_probe,
    optimal_secondary,
    prewhiten,
    synergy_gradient_rho,
    synergy_objective,
)
from fusionkit import BlockCovariance, LinearModel, ModalityPair
from fusionkit import placement
from fusionkit.information import _CrossCorrelation
from fusionkit.matrixkit import FORM_CONDITION_SLACK, FORM_TOL
from fusionkit.placement import (
    _budget_value,
    _lambda_root,
    _objective_gradient_forms,
    _perturbation_gains,
    _whitened_inputs,
)

from conftest import (
    PLACEMENT_CACHES,
    budget_terms,
    empty_placement_caches,
    fd_lagrangian_gradient,
    fd_lagrangian_stationarity,
    plant_disagreement,
    random_admissible_rho,
    random_pair,
    rel_fro,
    symmetric_root,
)
from exact import probe_gains


def probe_instance(rng):
    """The small instance of the probe tests: (3, 3) rho, 1.5x the minimum budget."""
    A = rng.standard_normal((3, 2))
    rho = random_admissible_rho(rng, 3, 3, 0.7)
    p = _budget_value(0.0, *budget_terms(A, rho)) * 1.5
    return A, rho, optimal_secondary(A, rho, p)


def whitened_probe_instance(n1, n2, m):
    """A whitened (n1, n2, m) pair at twice its minimum budget."""
    wp = prewhiten(random_pair(np.random.default_rng(4030), n1, n2, m))
    p = _budget_value(0.0, *budget_terms(wp.A_tilde, wp.rho)) * 2.0
    return wp.A_tilde, wp.rho, optimal_secondary(wp.A_tilde, wp.rho, p)


def medium_probe_instance():
    """A whitened (40, 30, 10) pair at twice its minimum budget."""
    return whitened_probe_instance(40, 30, 10)


def one_at_a_time_gains(A, rho, B0, n_perturbations, seed, delta):
    """The probe's gains drawn and scored one perturbation at a time, and the base score."""
    K = _CrossCorrelation(rho).K
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
        c, gap = budget_terms(A, rho)
        p0 = _budget_value(0.0, c, gap)
        assert _lambda_root(c, gap, p0) == 0.0

    def test_scalar_closed_form(self):
        # rho = c I, A = I: m c^2 / [1 - lam (1 - c^2)]^2 = p, verified by residual
        m, c = 3, 0.6
        A = np.eye(m)
        rho = c * np.eye(m)
        p = 2.0 * m * c**2
        lam = _lambda_root(*budget_terms(A, rho), p)
        resid = abs(m * c**2 / (1.0 - lam * (1.0 - c**2)) ** 2 - p)
        assert resid < 1e-12 * p

    def test_residual_contract_on_random_instances(self, rng):
        # budgets drawn from the attainable range by evaluating the curve
        # at a random multiplier inside the positive-denominator branch
        for _ in range(50):
            n1, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            A = rng.standard_normal((n1, 3))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.2, 0.9)))
            c, gap = budget_terms(A, rho)
            lam_hi = 1.0 / gap[-1]
            p = _budget_value(float(rng.uniform(0.05, 0.9)) * lam_hi, c, gap)
            lam = _lambda_root(c, gap, p)
            assert abs(_budget_value(lam, c, gap) - p) <= 1e-10 * p

    @pytest.mark.parametrize("where", ["inside", "above_minimum", "below_supremum"])
    def test_residual_contract_at_the_branch_ends(self, rng, where):
        # Budgets just above the value at lambda = 0 and just below the
        # branch supremum (infinite, or finite when rho^T rho has padded
        # zero eigenvalues), with sigma_max(rho) up to 1 - 1e-9.
        for _ in range(100):
            n1, n2 = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            A = rng.standard_normal((n1, int(rng.integers(1, 5))))
            s_max = float(rng.choice([rng.uniform(0.05, 0.99), 1.0 - 10.0 ** -rng.uniform(3, 9)]))
            c, gap = budget_terms(A, random_admissible_rho(rng, n1, n2, s_max))
            lam_hi = 1.0 / gap[-1]
            frac = {
                "inside": rng.uniform(0.0, 1.0),
                "above_minimum": 10.0 ** -rng.uniform(3, 14),
                "below_supremum": 1.0 - 10.0 ** -rng.uniform(3, 12),
            }[where]
            p = _budget_value(frac * lam_hi, c, gap)
            lam = _lambda_root(c, gap, p)
            assert 0.0 <= lam < lam_hi
            assert abs(_budget_value(lam, c, gap) - p) <= 1e-12 * p

    def test_no_root_above_finite_supremum(self, rng):
        # rho is 1 x 2, so rho^T rho has a zero eigenvalue, lambda_hi = 1 and
        # the budget curve stays finite up to it: c / sigma^4 is its supremum.
        A = rng.standard_normal((1, 2))
        c, gap = budget_terms(A, np.array([[0.6, 0.0]]))
        sup = float(c[0]) / 0.6**4
        assert _lambda_root(c, gap, 0.999 * sup) < 1.0
        with pytest.raises(NoRoot, match="supremum") as exc_info:
            _lambda_root(c, gap, 1.001 * sup)
        assert exc_info.value.attainable_min == pytest.approx(_budget_value(0.0, c, gap))

    def test_saturated_equation_refused_before_the_bracket(self, monkeypatch):
        # every 1 - sigma^2 is 0 and no weight is active, so the value never
        # leaves its value at lambda = 0: the bracket once doubled 41 times first
        calls = []

        def counted(*args):
            calls.append(args)
            return _budget_value(*args)

        monkeypatch.setattr(placement, "_budget_value", counted)
        with pytest.raises(NoRoot, match=r"not attainable \(equation saturates\)") as exc_info:
            _lambda_root(np.zeros(2), np.zeros(2), 1.0)
        assert exc_info.value.attainable_min == 0.0
        assert len(calls) == 1

    def test_degenerate_budget_when_all_singular_values_at_one(self):
        A = np.eye(2)
        with pytest.raises(DegenerateBudget):
            _lambda_root(*budget_terms(A, np.eye(2)), 5.0)

    def test_no_root_below_attainable_minimum(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.7)
        c, gap = budget_terms(A, rho)
        p0 = _budget_value(0.0, c, gap)
        with pytest.raises(NoRoot) as exc_info:
            _lambda_root(c, gap, 0.5 * p0)
        assert exc_info.value.attainable_min == pytest.approx(p0)


class TestOptimalSecondary:
    def test_unitary_corner(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        A = rng.standard_normal((4, 2))
        sol = optimal_secondary(A, Q, p=7.0)
        assert sol.lambda_ == 0.0
        assert np.array_equal(sol.B_star, Q.T @ A)
        assert not sol.degenerate

    @pytest.mark.parametrize("sigma", [2.0, 1.0 + 1e-9])
    def test_rho_outside_the_admissible_range_refused(self, sigma):
        # sigma_max(rho) above 1 + 1e-10 is refused before the root; within
        # it, rho^T rho = I to rounding is the unitary corner, answered
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        with pytest.raises(Inadmissible) as exc:
            optimal_secondary(A, sigma * np.eye(2), 1.0)
        assert exc.value.sigma_max == sigma
        assert optimal_secondary(A, (1.0 + 1e-11) * np.eye(2), 1.0).lambda_ == 0.0

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
        with np.errstate(over="ignore"), pytest.raises(NonFinite, match="budget weights"):
            budget_terms(np.array([[1e300]]), np.array([[0.5]]))
        # finite weights whose sum at lambda = 0 overflows
        s = np.array([0.999, 0.999])
        with np.errstate(over="ignore"), pytest.raises(NonFinite, match="lambda = 0"):
            _lambda_root(1e308 * s**2, 1.0 - s**2, 5.0)

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
            c, gap = budget_terms(A, rho)
            lam_hi = 1.0 / gap[-1]
            p = _budget_value(float(rng.uniform(0.1, 0.9)) * lam_hi, c, gap)
            sol = optimal_secondary(A, rho, p)
            trace = float(np.sum(sol.B_star**2))
            assert abs(trace - p) <= 1e-8 * (1.0 + p)
            assert sol.kkt_residual <= 1e-5
            assert sol.lambda_ > 0.0

    @pytest.mark.parametrize("n1, n2, s", [
        (6, 4, [0.8, 0.6, 0.4, 0.2]),
        (4, 6, [0.8, 0.6, 0.4, 0.2]),
        (5, 5, [0.8, 0.6, 0.5, 0.4, 0.2]),
        (5, 4, [0.8, 0.5, 0.3, 0.0]),
        (6, 4, [1.0 - 1e-6, 0.6, 0.4, 0.2]),
    ], ids=["n1>n2", "n1<n2", "n1=n2", "zero-singular-value", "sigma_max=1-1e-6"])
    @pytest.mark.parametrize("scale", [1.5, 4.0])
    def test_singular_basis_closed_form_equals_the_solves(self, n1, n2, s, scale):
        # B~* and the objective are read off the singular basis of rho; they
        # equal the solve of I - lambda (I - rho^T rho) and the objective's
        # solve with I - rho^T rho, and the root is the one _lambda_root takes
        rng = np.random.default_rng([n1, n2, len(s)])
        U, _ = np.linalg.qr(rng.standard_normal((n1, n1)))
        V, _ = np.linalg.qr(rng.standard_normal((n2, n2)))
        rho = (U[:, : len(s)] * s) @ V[:, : len(s)].T
        A = rng.standard_normal((n1, 3))
        terms = budget_terms(A, rho)
        p = _budget_value(0.0, *terms) * scale
        sol = optimal_secondary(A, rho, p)
        assert sol.lambda_ == _lambda_root(*terms, p) and sol.lambda_ > 0.0
        solved = np.linalg.solve(np.eye(n2) - sol.lambda_ * (np.eye(n2) - rho.T @ rho), rho.T @ A)
        assert rel_fro(sol.B_star, solved) <= 1e-12
        objective = synergy_objective(A, sol.B_star, rho)
        assert abs(sol.objective_e - objective) <= 1e-12 * abs(objective)

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
            for form in _objective_gradient_forms(A, B, _CrossCorrelation(rho)):
                assert rel_fro(form - 2.0 * lam * B, fd) <= 1e-6

    def test_form_disagreement_raises(self, rng, monkeypatch):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        p = _budget_value(0.0, *budget_terms(A, rho)) * 1.5
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
        p = _budget_value(0.0, *budget_terms(A, rho)) * 2.0
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
        p = _budget_value(0.0, *budget_terms(A, rho)) * rng.uniform(1.25, 5.0)
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
        p = _budget_value(0.0, *budget_terms(A, rho)) * 1.5
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

    @pytest.mark.parametrize("delta, violations", [(1e-3, 200), (1e-4, 47)])
    def test_pinned_counts_are_the_exact_counts(self, rng, delta, violations):
        # the gains of the exact oracle (tests/exact.py) above the threshold;
        # the medium pins, 200 and 108, equal the exact counts too (the oracle
        # takes about 17 s there)
        A, rho, sol = probe_instance(rng)
        z = np.random.default_rng(3).standard_normal((200,) + sol.B_star.shape)
        assert sum(g > 1e-8 for g in probe_gains(A, rho, sol.B_star, z, delta)) == violations

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

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0, -1e-3, True])
    def test_probe_refuses_a_displacement_that_probes_nothing(self, rng, delta):
        # a NaN or infinite delta reported no violation, as a zero one does;
        # True, an int, probed at a displacement of 1
        A, rho, sol = probe_instance(rng)
        with pytest.raises(ValueError, match="delta"):
            local_optimality_probe(A, rho, sol, delta=delta)

    @pytest.mark.parametrize("n_perturbations", [-3, 2.5, "200", None, True])
    def test_probe_refuses_a_count_that_is_not_a_count(self, rng, n_perturbations):
        A, rho, sol = probe_instance(rng)
        with pytest.raises(ValueError, match="n_perturbations"):
            local_optimality_probe(A, rho, sol, n_perturbations=n_perturbations)

    @pytest.mark.parametrize(
        "seed",
        [np.random.default_rng(0), np.random.SeedSequence(0), [1, 2], -1, 2.0, "0", None, True],
        ids=["Generator", "SeedSequence", "list", "negative", "float", "str", "None", "bool"],
    )
    def test_probe_refuses_a_seed_that_is_not_a_seed(self, rng, monkeypatch, seed):
        # a memo of draws is keyed by the seed: a Generator or a SeedSequence
        # carries state of its own, so its draws cannot be looked up by it
        A, rho, sol = probe_instance(rng)
        rngs = default_rng_calls(monkeypatch)
        with pytest.raises(ValueError, match="seed"):
            local_optimality_probe(A, rho, sol, seed=seed)
        assert rngs == []  # refused before any draw

    def test_cross_correlation_record(self, rng):
        for n1, n2 in [(4, 3), (3, 4), (3, 3)]:
            rho = random_admissible_rho(rng, n1, n2, 0.9)
            pair = WhitenedPair(np.ones((n1, 2)), np.ones((n2, 2)), rho)._cross
            ours = placement._analysis_of(rho.tobytes(), rho.shape)
            assert pair.U is None and ours.U.shape == (n1, n1)
            assert np.array_equal(pair.s, np.linalg.svd(rho, compute_uv=False))  # values only
            assert np.array_equal(ours.s, np.linalg.svd(rho)[1])  # the full SVD
            K, Kp, k_norm = pair.K, pair.K_prime, pair.k_norm
            assert rel_fro(K, np.linalg.inv(np.eye(n2) - rho.T @ rho)) <= 1e-12
            assert rel_fro(Kp, np.linalg.inv(np.eye(n1) - rho @ rho.T)) <= 1e-12
            assert k_norm == pytest.approx(np.linalg.norm(K, 2), rel=1e-10)
            assert k_norm == pytest.approx(np.linalg.norm(Kp, 2), rel=1e-10)
            # the two kinds of SVD may differ in s's last bits, never in what
            # is built from rho alone
            for got, want in ((ours.cap, pair.cap), (ours.K, K), (ours.K_prime, Kp)):
                assert np.array_equal(got, want)
            assert not (pair.s.flags.writeable or ours.s.flags.writeable)
        refused = _CrossCorrelation(np.diag([1.0, 0.5]))
        for _ in range(2):  # a refused rho keeps nothing: every use raises again
            with pytest.raises(Inadmissible):
                refused.K
        # admissible, but the gaps 1 - s^2 are 0.75 and about 2e-13: refused
        # by the one rule of every inverse, carrying max(gap) / min(gap)
        s = np.array([1.0 - 1e-13, 0.5])
        near = _CrossCorrelation(np.diag(s))
        message = r"^\(I - rho\^T rho\) is numerically singular"
        for _ in range(2):
            with pytest.raises(Singular, match=message) as exc:
                near.solve_kp(np.eye(2))
            assert exc.value.condition == 0.75 / (1.0 - near.s[0] ** 2)
        assert not {"k_norm", "K", "K_prime", "condition"} & vars(near).keys()

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


def fresh(call, *args, **kwargs):
    """``call`` with placement's caches emptied first, as a new process would run it."""
    empty_placement_caches()
    return call(*args, **kwargs)


def default_rng_calls(monkeypatch):
    """The seeds of the ``np.random.default_rng`` calls made from now on, in a list."""
    seeds = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeds.append(a) or real(*a))
    return seeds


def unmemoized_gains(A, rho, B0, n_perturbations, seed, delta):
    """The probe's gains from one generator, block by block, with nothing memoized.

    The probe's quadratic expansion around ``B0`` on the draws of a fresh
    ``default_rng(seed)``, with ``K`` and every ``<z, K z>`` taken afresh: a
    memoized gain must equal it bit for bit.
    """
    n2, sums = rho.shape[1], placement._sums
    K = np.linalg.solve(np.eye(n2) - rho.T @ rho, np.eye(n2))
    p = float(np.sum(B0 * B0))
    D0 = B0 - rho.T @ A
    basis = np.stack([B0.ravel(), (K @ D0).ravel(), (K @ B0).ravel()], axis=1)
    kd0_b0, b0_kb0 = B0.ravel() @ basis[:, 1:]
    rng = np.random.default_rng(seed)
    gains = np.empty(n_perturbations)
    for lo in range(0, n_perturbations, placement.PROBE_BLOCK):
        z = rng.standard_normal((min(placement.PROBE_BLOCK, n_perturbations - lo),) + B0.shape)
        norms = np.maximum(np.sqrt(sums(z, z)), 1e-300)
        z_b0, z_kd0, z_kb0 = (z.reshape(z.shape[0], -1) @ basis).T
        s = delta / norms
        eps = 2.0 * s * z_b0 + (s * norms) ** 2
        c = np.sqrt(p / (p + eps))
        a, b = -eps / ((p + eps) * (1.0 + c)), c * s
        gains[lo : lo + z.shape[0]] = (
            2.0 * a * kd0_b0 + 2.0 * b * z_kd0 + a * a * b0_kb0 + 2.0 * a * b * z_kb0
            + b * b * sums(z, K @ z)
        )
    return gains


def svd_calls(monkeypatch, fn):
    """``(result of fn(), numpy.linalg.svd calls it made)``."""
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real(*a, **k))
    try:
        return fn(), len(calls)
    finally:
        monkeypatch.undo()


def answers(sol, probe=None):
    """A solution (and its probe) as plain values; ``==`` on them compares bits."""
    values = [sol.B_star.tobytes(), sol.lambda_, sol.objective_e, sol.kkt_residual]
    if probe is not None:
        values += [probe.n_violations, probe.max_improvement]
    return values


def error_of(call, *args):
    with pytest.raises(FusionKitError) as exc:
        call(*args)
    return type(exc.value), str(exc.value)


class TestRhoAnalysisMemo:
    """One analysis of rho per bit-equal rho; each answer is the one a fresh call gives."""

    def test_budget_sweep_with_probes_equals_a_fresh_sweep(self, monkeypatch):
        rng = np.random.default_rng(2901)
        A = rng.standard_normal((12, 4))
        rho = random_admissible_rho(rng, 12, 8, 0.9)
        c, gap = budget_terms(A, rho)
        lam_hi = 1.0 / gap[-1]
        budgets = [_budget_value(f * lam_hi, c, gap) for f in np.linspace(0.0, 0.9, 12)]

        def sweep(solve, probe):
            out = []
            for p in budgets:
                sol = solve(optimal_secondary, A, rho, p)
                out.append(answers(sol, probe(local_optimality_probe, A, rho, sol, 200, 3, 1e-4)))
            return out

        memoized, svds = svd_calls(
            monkeypatch, lambda: sweep(lambda f, *a: f(*a), lambda f, *a: f(*a))
        )
        assert svds == 0  # budget_terms analysed rho above
        assert memoized == sweep(fresh, fresh)
        # the gains straddle the threshold, so a wrong K would move the counts
        assert 0 < sum(row[4] for row in memoized) < 12 * 200

    def test_a_written_rho_is_analysed_again_and_a_bit_equal_one_is_not(self, monkeypatch):
        rng = np.random.default_rng(2902)
        A = rng.standard_normal((6, 3))
        rho = random_admissible_rho(rng, 6, 4, 0.7)
        halved = 0.5 * rho
        p = 2.0 * _budget_value(0.0, *budget_terms(A, rho))
        want = answers(fresh(optimal_secondary, A, halved, p))
        fresh(optimal_secondary, A, rho, p)
        rho *= 0.5  # the caller writes into the array it passed
        got, svds = svd_calls(monkeypatch, lambda: answers(optimal_secondary(A, rho, p)))
        assert (got, svds) == (want, 1)
        got, svds = svd_calls(monkeypatch, lambda: answers(optimal_secondary(A, halved, p)))
        assert (got, svds) == (want, 0)

    def test_a_refused_rho_raises_on_every_call(self):
        # the instance of test_unverifiable_stationarity_is_refused: inside
        # the condition limit, but its KKT residual is past KKT_BOUND
        rng = np.random.default_rng([7, 157])
        U, _ = np.linalg.qr(rng.standard_normal((4, 3)))
        V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = np.sort(rng.uniform(0.1, 0.9, 3))[::-1]
        s[0] = np.sqrt(1.0 - 10.0 ** rng.uniform(-12.0, -11.0))
        A = rng.standard_normal((4, 2))
        unverifiable = (U * s) @ V.T
        p = _budget_value(0.0, *budget_terms(A, unverifiable)) * rng.uniform(1.25, 5.0)
        past_limit = (U * np.array([1.0 - 1e-13, s[1], s[2]])) @ V.T  # cond ~ 5e12
        B = rng.standard_normal((3, 2))
        sol = PlacementSolution(B_star=B, lambda_=0.0, budget_p=1.0, objective_e=0.0,
                                kkt_residual=0.0)
        cases = [
            (optimal_secondary, (A, np.eye(4, 3) * [1.5, 0.5, 0.2], p), Inadmissible, "sigma_max"),
            (local_optimality_probe, (A, np.eye(4, 3) * [1.0, 0.5, 0.2], sol), Inadmissible,
             "sigma_max"),
            (optimal_secondary, (A, past_limit, p), Singular, "numerically singular"),
            (local_optimality_probe, (A, past_limit, sol), Singular, "numerically singular"),
            (synergy_objective, (A, B, past_limit), Singular, "numerically singular"),
            (optimal_secondary, (A, unverifiable, p), Singular, "KKT residual"),
        ]
        admissible = (U * np.array([0.6, s[1], s[2]])) @ V.T
        p_admissible = 2.0 * _budget_value(0.0, *budget_terms(A, admissible))
        for call, args, error, words in cases:
            first = error_of(fresh, call, *args)
            assert first[0] is error and words in first[1]
            assert [error_of(call, *args) for _ in range(3)] == [first] * 3
            assert optimal_secondary(A, admissible, p_admissible).B_star.shape == (3, 2)
            assert error_of(call, *args) == first

    def test_a_probe_reads_the_k_of_the_rho_it_is_given(self):
        rng = np.random.default_rng(2904)
        A = rng.standard_normal((5, 3))
        rho_1 = random_admissible_rho(rng, 5, 4, 0.8)
        rho_2 = random_admissible_rho(rng, 5, 4, 0.8)
        sol = optimal_secondary(A, rho_1, 3.0 * _budget_value(
            0.0, *budget_terms(A, rho_1)))
        local_optimality_probe(A, rho_1, sol)  # K of rho_1 memoized
        gains = _perturbation_gains(A, rho_2, sol.B_star, 100, 5, 1e-3)
        assert np.array_equal(gains, fresh(_perturbation_gains, A, rho_2, sol.B_star, 100, 5, 1e-3))
        oracle, base = one_at_a_time_gains(A, rho_2, sol.B_star, 100, 5, 1e-3)
        assert np.max(np.abs(gains - oracle)) <= 1e-12 * (1.0 + abs(base))

    def test_another_primary_on_the_same_rho_gets_its_own_weights(self):
        rng = np.random.default_rng(2905)
        rho = random_admissible_rho(rng, 6, 4, 0.8)
        A_1, A_2 = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        U, s, _ = np.linalg.svd(rho)
        for A in (A_1, A_2, A_1):
            c = budget_terms(A, rho)[0]
            assert np.array_equal(c, fresh(budget_terms, A, rho)[0])
            assert np.array_equal(c, np.maximum(np.diag(U.T @ A @ A.T @ U), 0.0)[:4] * s**2)
            p = 2.0 * _budget_value(0.0, *budget_terms(A, rho))
            got = optimal_secondary(A, rho, p)
            assert answers(got) == answers(fresh(optimal_secondary, A, rho, p))
            assert rel_fro(got.B_star, np.linalg.solve(
                np.eye(4) - got.lambda_ * (np.eye(4) - rho.T @ rho), rho.T @ A)) <= 1e-12


class TestProbeDrawsMemo:
    """The probe's draws are memoized per (seed, count, shape); each gain is the fresh one."""

    @staticmethod
    def instances():
        """Two shapes of B~: (8, 4) and (5, 3), at gains on both sides of the threshold."""
        return [whitened_probe_instance(12, 8, 4), whitened_probe_instance(7, 5, 3)]

    def test_interleaved_probes_equal_unmemoized_draws(self):
        instances = self.instances()
        # each key is asked at two deltas, then at the other seed, then on the other shape
        asked = [
            (k, seed, n, delta)
            for n in (50, 200, placement.PROBE_BLOCK + 44)
            for k in (0, 1)
            for seed in (3, 11)
            for delta in (1e-3, 1.1e-4)
        ]

        def probe(k, seed, n, delta, call=lambda f, *a: f(*a)):
            A, rho, sol = instances[k]
            gains = call(_perturbation_gains, A, rho, sol.B_star, n, seed, delta)
            return gains.tobytes(), call(local_optimality_probe, A, rho, sol, n, seed, delta)

        memoized = [probe(*q) for q in asked]
        assert memoized == [probe(*q, call=fresh) for q in asked]
        for (k, seed, n, delta), (gains, _) in zip(asked, memoized):
            A, rho, sol = instances[k]
            assert gains == unmemoized_gains(A, rho, sol.B_star, n, seed, delta).tobytes()
        # the gains straddle the threshold, so wrong draws would move the counts
        assert 0 < sum(report.n_violations for _, report in memoized) < sum(q[2] for q in asked)

    def test_a_repeated_probe_constructs_no_generator(self, monkeypatch):
        A, rho, sol = self.instances()[0]
        rngs = default_rng_calls(monkeypatch)
        local_optimality_probe(A, rho, sol, seed=3, delta=1e-3)
        assert rngs == [(3,)]
        local_optimality_probe(A, rho, sol, seed=3, delta=1.1e-4)
        assert rngs == [(3,)]
        # past one block, one generator continues from the memoized block's end
        n = placement.PROBE_BLOCK + 44
        local_optimality_probe(A, rho, sol, n_perturbations=n, seed=3)
        local_optimality_probe(A, rho, sol, n_perturbations=n, seed=3, delta=1.1e-4)
        assert rngs == [(3,)] * 4

    def test_a_budget_sweep_takes_the_quadratic_forms_once(self):
        # the first block's <z, K z> is cached per analysis and draws; later blocks take their own
        A, rho, _ = self.instances()[0]
        budgets = 2.0 * _budget_value(0.0, *budget_terms(A, rho)) * np.arange(1, 4)
        for n in (200, placement.PROBE_BLOCK + 44):
            before = placement._first_forms.cache_info()
            for p in budgets:
                local_optimality_probe(A, rho, optimal_secondary(A, rho, p), n_perturbations=n)
            after = placement._first_forms.cache_info()
            assert (after.misses - before.misses, after.hits - before.hits) == (1, 2)

    def test_memoized_draws_are_read_only(self):
        A, rho, sol = self.instances()[0]
        local_optimality_probe(A, rho, sol, seed=3)
        z, norms, _ = placement._first_draws(3, 200, (8, 4))
        # the probe's own arrays, read by the probe and by the first block's forms
        assert placement._first_draws.cache_info().hits == 2
        q = placement._first_forms(placement._analysis_of(rho.tobytes(), rho.shape), 3, 200, (8, 4))
        assert placement._first_forms.cache_info().hits == 1
        for a in (z, norms, q):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_every_cache_stays_within_its_bound(self):
        rng = np.random.default_rng(3701)
        assert [cache.cache_info().maxsize for cache in PLACEMENT_CACHES] == [1, 2, 2]
        for n2 in (2, 3, 4):
            A = rng.standard_normal((5, 2))
            for _ in range(4):
                rho = random_admissible_rho(rng, 5, n2, 0.7)
                sol = optimal_secondary(A, rho, 2.0 * _budget_value(
                    0.0, *budget_terms(A, rho)))
                for seed in (0, 1):
                    local_optimality_probe(A, rho, sol, n_perturbations=20, seed=seed)
                    for cache in PLACEMENT_CACHES:
                        info = cache.cache_info()
                        assert info.currsize <= info.maxsize

    def test_the_memo_holds_the_keys_last_used(self, monkeypatch):
        instances = self.instances()
        rngs = default_rng_calls(monkeypatch)

        def probe(k, seed):
            A, rho, sol = instances[k]
            return local_optimality_probe(A, rho, sol, seed=seed, delta=1.1e-4)

        for k, seed in [(0, 3), (1, 3), (0, 3), (0, 4), (0, 3), (1, 3)]:
            probe(k, seed)
            info = placement._first_draws.cache_info()
            assert info.currsize <= info.maxsize == 2
        # (0, 3) was used again before (0, 4) arrived, so (1, 3) went instead
        assert rngs == [(3,), (3,), (4,), (3,)]
        probe(0, 3)
        probe(1, 3)
        assert rngs == [(3,), (3,), (4,), (3,)]


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
    "optimal_secondary": (lambda A, rho, B: optimal_secondary(A, rho, 5.0), None),
    "_whitened_inputs": (lambda A, rho, B: _whitened_inputs(A, rho), None),
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


def near_unitary_question(rng, gap):
    """``(A~, B~, rho, p)`` with ``sigma_max(rho) = 1 - gap`` and a budget on the minimizing branch."""
    U, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    V, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rho = (U * np.array([1.0 - gap, 0.5, 0.3])) @ V.T
    A, B = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    return A, B, rho, 1.5 * _budget_value(0.0, *budget_terms(A, rho))


FORM_CHECKS = {
    "gradient forms": lambda A, B, rho, p: synergy_gradient_rho(A, B, rho),
    "objective gradient forms": lambda A, B, rho, p: optimal_secondary(A, rho, p).B_star,
}


@pytest.mark.parametrize("what", sorted(FORM_CHECKS))
@pytest.mark.parametrize("skew, refused", [(0.9e-8, False), (1.1e-8, True)])
def test_form_check_boundary(rng, monkeypatch, what, skew, refused):
    # sigma_max(rho) = 0.6: the condition allows less than FORM_TOL, which rules
    question = near_unitary_question(rng, 0.4)
    answer = FORM_CHECKS[what](*question)
    plant_disagreement(monkeypatch, placement, what, skew)
    if refused:
        with pytest.raises(FormDisagreement, match=f"^{what} disagree") as exc:
            FORM_CHECKS[what](*question)
        assert exc.value.max_relative_error == pytest.approx(skew, rel=1e-5)
    else:  # an admitted check changes no bit of the answer
        assert np.array_equal(FORM_CHECKS[what](*question), answer)


@pytest.mark.parametrize("what", sorted(FORM_CHECKS))
@pytest.mark.parametrize("factor, refused", [(0.9, False), (1.1, True)])
def test_form_check_admits_what_its_condition_allows(rng, monkeypatch, what, factor, refused):
    # sigma_max(rho) = 1 - 1e-7: cond(I - rho^T rho) is about 5e6, and forms
    # that apply it agree only to about FORM_CONDITION_SLACK cond eps
    question = near_unitary_question(rng, 1e-7)
    answer = FORM_CHECKS[what](*question)
    planted = plant_disagreement(
        monkeypatch, placement, what, lambda condition: factor * FORM_CONDITION_SLACK
        * condition * np.finfo(float).eps
    )
    if refused:
        with pytest.raises(FormDisagreement, match=f"^{what} disagree"):
            FORM_CHECKS[what](*question)
    else:
        assert np.array_equal(FORM_CHECKS[what](*question), answer)
    assert planted[0] > 5.0 * FORM_TOL  # refused by FORM_TOL alone
