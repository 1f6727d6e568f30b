"""The pair's information, its CRLB and placement against exact arithmetic (``tests/exact.py``).

Route agreement shows only that the routes are consistent: they share the
pair's factors. The oracle measures the true error of every answered route,
of the SNR and synergy matrices, of the CRLB, and of the placement objective
and probe gains, on the very floats the library saw.
"""

from fractions import Fraction

import numpy as np
import pytest

from fusionkit import (BlockCovariance, LinearModel, ModalityPair, PairFactorization, crlb,
                       optimal_secondary, placement)
from fusionkit.placement import _budget_value, _perturbation_gains

from conftest import budget_terms, random_admissible_rho, random_orthogonal, random_pd
from exact import pair_information, placement_objective, probe_gains, relative_error, solve


def test_oracle_on_hand_computed_pairs():
    # sigma = [[2, 1], [1, 2]], whose inverse is [[2, -1], [-1, 2]] / 3
    noise = BlockCovariance([[2.0]], [[2.0]], [[1.0]])
    # H = [1; 1]: J = (2 - 1 - 1 + 2) / 3, snr = 1 / 2 for either modality
    exact = pair_information(ModalityPair(LinearModel([[1.0]]), LinearModel([[1.0]]), noise))
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    assert exact["J"] == [[2 * third]]
    assert exact["snr1"] == exact["snr2"] == [[Fraction(1, 2)]]
    assert exact["S_x"] == exact["S_y"] == [[sixth]]
    # H = I: J is sigma^-1 itself, and each modality sees one source
    exact = pair_information(
        ModalityPair(LinearModel([[1.0, 0.0]]), LinearModel([[0.0, 1.0]]), noise))
    assert exact["J"] == [[2 * third, -third], [-third, 2 * third]]
    assert exact["snr1"] == [[Fraction(1, 2), 0], [0, 0]]
    assert exact["S_y"] == [[2 * third, -third], [-third, sixth]]
    assert relative_error([[0.5, 0.0], [0.0, 0.0]], exact["snr1"]) == 0.0


def planted_pair(family, seed):
    """A (4,3,2) pair: ``sigma_max(rho) = 1 - 1e-6`` ("rho") or ``cond(sigma_v) = 1e6`` ("cond")."""
    rng = np.random.default_rng(seed)
    if family == "rho":
        sigma_v, smax = random_pd(rng, 4), 1.0 - 1e-6
    else:
        w = 10.0 ** rng.uniform(-6.0, 0.0, size=4)
        w[0], w[-1] = 1e-6, 1.0
        Q = random_orthogonal(rng, 4)
        sigma_v, smax = (Q * w) @ Q.T, 0.8
    sigma_u = random_pd(rng, 3)
    L_v, L_u = np.linalg.cholesky(sigma_v), np.linalg.cholesky(sigma_u)
    rho = random_admissible_rho(rng, 4, 3, smax)
    return ModalityPair(LinearModel(L_v @ rng.standard_normal((4, 2))),
                        LinearModel(L_u @ rng.standard_normal((3, 2))),
                        BlockCovariance(sigma_v, sigma_u, L_v @ rho @ L_u.T))


def true_errors(pair):
    """``{"routes", "snr", "synergy"}``: the worst true relative error of each group."""
    fac = PairFactorization.from_pair(pair)
    exact = pair_information(pair)
    return {
        "routes": max(relative_error(J, exact["J"]) for J in fac.routes.values()),
        "snr": max(relative_error(fac.snr_first, exact["snr1"]),
                   relative_error(fac.snr_second, exact["snr2"])),
        "synergy": max(relative_error(fac.S_x, exact["S_x"]),
                       relative_error(fac.S_y, exact["S_y"])),
    }


# The worst true error over the eight pairs of each family when each route
# was formed through explicit inverses (Sigma_v^-1, Sigma_u^-1, F, G and the
# blocks of joint()^-1) and symmetrized. Every pair was answered then too.
EXPLICIT_INVERSE_WORST = {
    "rho": {"routes": 2.225e-10, "snr": 2.942e-16, "synergy": 1.101e-10},
    "cond": {"routes": 3.984e-11, "snr": 2.496e-11, "synergy": 4.607e-11},
}


@pytest.mark.parametrize("family", sorted(EXPLICIT_INVERSE_WORST))
def test_true_error_is_within_twice_the_explicit_inverse_worst(family):
    worst = {group: 0.0 for group in EXPLICIT_INVERSE_WORST[family]}
    for seed in range(8):
        for group, err in true_errors(planted_pair(family, 40 + seed)).items():
            worst[group] = max(worst[group], err)
    for group, err in worst.items():
        assert err <= 2.0 * EXPLICIT_INVERSE_WORST[family][group], (group, err)


# The worst true error of crlb(J) over the same eight pairs of each family, first measured
# when J^-1 was taken through the information matrix's guarded Cholesky inverse.
CRLB_WORST = {"rho": 4.066e-11, "cond": 1.406e-11}


@pytest.mark.parametrize("family", sorted(CRLB_WORST))
def test_crlb_is_within_twice_its_first_measured_worst(family):
    worst = 0.0
    for seed in range(8):
        pair = planted_pair(family, 40 + seed)
        J = pair_information(pair)["J"]
        eye = [[Fraction(int(i == j)) for j in range(len(J))] for i in range(len(J))]
        J_inv = crlb(PairFactorization.from_pair(pair).joint_information())
        worst = max(worst, relative_error(J_inv, solve(J, eye)))
    assert worst <= 2.0 * CRLB_WORST[family], worst


def sweep_solution(fraction):
    """The placement sweep's (4,3,2) pair at its default seed, solved at ``fraction`` of lambda_hi."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 2))
    R = rng.standard_normal((4, 3))
    rho = 0.8 * R / np.linalg.svd(R, compute_uv=False)[0]
    c, gap = budget_terms(A, rho)
    lam_hi = 1.0 / float(gap[-1])
    return A, rho, optimal_secondary(A, rho, _budget_value(fraction * lam_hi, c, gap))


# The objective is off the exact one by 3.2e-18, 4.4e-17 and 6.0e-17 relative.
def test_a_budget_sweep_answers_the_exact_objective():
    # one sweep on one rho, after another rho of its shape: the later budgets read the cache
    budget_terms(np.ones((4, 2)), 0.5 * np.eye(4, 3))
    for fraction in (0.0, 0.5, 0.9):
        A, rho, sol = sweep_solution(fraction)
        exact = placement_objective(A, rho, sol.B_star)
        assert abs(Fraction(sol.objective_e) - exact) <= Fraction(1, 10**14) * abs(exact)
    assert placement._analysis_of.cache_info().misses == 2


# When each gain was the difference of the objectives of two matrices, one of
# them the perturbed B~, the worst was 1.5e-13, 7.6e-10 and 9.3e-8 relative.
@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9])
def test_probe_gains_are_within_1e_10_of_exact(fraction):
    A, rho, sol = sweep_solution(fraction)
    gains = _perturbation_gains(A, rho, sol.B_star, 200, 0, 1e-3)
    exact = probe_gains(A, rho, sol.B_star, np.random.default_rng(0).standard_normal((200, 3, 2)),
                        1e-3)
    assert all(abs(Fraction(g) - e) <= Fraction(1, 10**10) * abs(e)
               for g, e in zip(gains.tolist(), exact))
