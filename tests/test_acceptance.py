"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
failure output) and asserts the criterion. Random instances are drawn
with fixed seeds so the gate is reproducible.
"""

import json
import time

import numpy as np

from fusionkit import (
    BlockCovariance,
    GaussianPrior,
    LinearModel,
    ModalityPair,
    NonlinearModel,
    PairFactorization,
    crlb,
    empirical_error_covariance,
    fisher_nonlinear,
    joint_information,
    ml_estimate,
    optimal_secondary,
    prewhiten,
    snr_matrix,
    synergy_matrices,
)
from fusionkit.cli import main as cli_main
from fusionkit.placement import _budget_value, _lambda_root

from conftest import (
    budget_terms,
    fd_lagrangian_stationarity,
    random_admissible_rho,
    random_conditioned_matrix,
    random_joint_noise,
    random_pair,
    random_pd,
    rel_fro,
)
from oracles import fisher_finite_difference, wls


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_wls_ml_coincidence():
    # mixing matrices drawn with bounded conditioning: the identity under
    # test is algebraic, and the dual-path fp noise grows with cond^2
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        model = LinearModel(random_conditioned_matrix(rng, n, m))
        sigma = random_pd(rng, n)
        x = rng.standard_normal(n)
        W = np.linalg.inv(sigma)
        s_wls = wls(model.A, 0.5 * (W + W.T), x)
        e_ml = ml_estimate(model, sigma, x)
        scale = max(float(np.max(np.abs(e_ml.s_hat))), 1e-300)
        worst = max(worst, float(np.max(np.abs(s_wls - e_ml.s_hat))) / scale)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"WLS/ML coincidence over 100 scenarios: worst rel diff {worst:.3e} "
        f"(tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_ml_efficiency():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        model = LinearModel(rng.standard_normal((n, m)))
        sigma = random_pd(rng, n)
        prior = GaussianPrior(mean=rng.standard_normal(m), cov=np.eye(m))
        res = empirical_error_covariance("ml", model, prior, sigma, N=200_000, seed=2000 + k)
        rel = rel_fro(res.empirical_error_cov, crlb(snr_matrix(model, sigma)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 0.05 and elapsed < 60.0,
        f"ML efficiency at N=2e5 over 20 scenarios: worst Frobenius rel err "
        f"{worst:.4f} (tol 0.05), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_03_fisher_equals_snr():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        model = LinearModel(rng.standard_normal((n, m)))
        sigma = random_pd(rng, n)
        H = fisher_finite_difference(model, sigma, rng.standard_normal(m), step=1e-4)
        worst = max(worst, rel_fro(H, snr_matrix(model, sigma).matrix))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst < 1e-6 and elapsed < 5.0,
        f"finite-difference Fisher vs SNR over 100 scenarios: worst rel err "
        f"{worst:.3e} (tol 1e-6), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_04_route_equivalence():
    rng = np.random.default_rng(1004)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n1 = int(rng.integers(1, 7))
        n2 = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        pair = random_pair(rng, n1, n2, m)
        worst = max(worst, PairFactorization.from_pair(pair).route_error)
    elapsed = time.perf_counter() - start
    report(
        4,
        worst < 1e-8 and elapsed < 30.0,
        f"four-route joint-information equivalence over 1000 covariances: worst "
        f"rel Frobenius {worst:.3e} (tol 1e-8), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_05_synergy_psd_and_redundant_collapse():
    rng = np.random.default_rng(1005)
    worst_eig = 0.0
    for _ in range(1000):
        pair = random_pair(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                           int(rng.integers(1, 4)))
        rep = synergy_matrices(pair)
        worst_eig = min(worst_eig, rep.min_eigenvalues[0], rep.min_eigenvalues[1])

    worst_collapse = 0.0
    for _ in range(25):
        noise = random_joint_noise(rng, 3, 3)
        A = rng.standard_normal((3, 2))
        B = noise.sigma_uv @ np.linalg.solve(noise.sigma_v, A)
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        S_x = synergy_matrices(pair).S_x
        J_x = snr_matrix(pair.first, noise.sigma_v).matrix
        worst_collapse = max(
            worst_collapse,
            float(np.linalg.norm(S_x, "fro")) / float(np.linalg.norm(J_x, "fro")),
        )
    report(
        5,
        worst_eig >= -1e-10 and worst_collapse <= 1e-10,
        f"synergy PSD over 1000 scenarios (worst min eig {worst_eig:.3e} >= -1e-10) "
        f"and redundant collapse (worst |S_x|/|J_x| {worst_collapse:.3e} <= 1e-10)",
    )


def test_criterion_06_correlation_corner_cases():
    rng = np.random.default_rng(1006)
    # (a) exact additivity at zero cross-covariance
    worst_add = 0.0
    for _ in range(50):
        n1, n2, m = 3, 2, 2
        A, B = rng.standard_normal((n1, m)), rng.standard_normal((n2, m))
        noise = BlockCovariance(random_pd(rng, n1), random_pd(rng, n2), np.zeros((n1, n2)))
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        prior = GaussianPrior(mean=np.zeros(m), cov=random_pd(rng, m))
        expected = (
            snr_matrix(pair.first, noise.sigma_v).matrix
            + snr_matrix(pair.second, noise.sigma_u).matrix
            + prior.info_matrix()
        )
        worst_add = max(worst_add, rel_fro(joint_information(pair, prior).matrix, expected))

    # (b) strictly increasing trace along rho = c I for a fixed
    # Frobenius-orthogonal (hence non-redundant) whitened pair
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    traces = []
    for c in (0.0, 0.5, 0.9, 0.99):
        noise = BlockCovariance(np.eye(3), np.eye(3), c * np.eye(3))
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        traces.append(float(np.trace(joint_information(pair).matrix)))
    increasing = all(t2 > t1 for t1, t2 in zip(traces, traces[1:]))

    # (c) admissibility on random PD joint covariances
    sigma_max_worst = 0.0
    for _ in range(1000):
        pair = random_pair(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), 2)
        sigma_max_worst = max(sigma_max_worst, prewhiten(pair).sigma_max_rho)

    report(
        6,
        worst_add < 1e-12 and increasing and sigma_max_worst < 1.0,
        f"correlation corners: additivity rel err {worst_add:.3e} (tol 1e-12); trace "
        f"growth {[round(t, 3) for t in traces]} strictly increasing={increasing}; "
        f"max sigma_max(rho) {sigma_max_worst:.6f} < 1 over 1000 covariances",
    )


def test_criterion_07_placement_kkt():
    rng = np.random.default_rng(1007)
    ok = True
    worst_constraint = 0.0
    worst_kkt = 0.0
    worst_fd = 0.0
    worst_resid = 0.0
    for _ in range(50):
        n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        A = rng.standard_normal((n1, 3))
        rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.3, 0.9)))
        c, gap = budget_terms(A, rho)
        p = _budget_value(float(rng.uniform(0.05, 0.9)) / gap[-1], c, gap)
        lam = _lambda_root(c, gap, p)
        worst_resid = max(worst_resid, abs(_budget_value(lam, c, gap) - p) / p)
        sol = optimal_secondary(A, rho, p)
        trace = float(np.sum(sol.B_star**2))
        worst_constraint = max(worst_constraint, abs(trace - p) / (1.0 + p))
        worst_kkt = max(worst_kkt, sol.kkt_residual)
        fd = fd_lagrangian_stationarity(A, sol.B_star, rho, sol.lambda_, sol.objective_e)
        worst_fd = max(worst_fd, fd)

    # unitary corner: exact multiplier and configuration
    Q, _ = np.linalg.qr(rng.standard_normal((4, 3)))
    A = rng.standard_normal((4, 2))
    corner = optimal_secondary(A, Q, p=9.0)
    corner_ok = corner.lambda_ == 0.0 and np.array_equal(corner.B_star, Q.T @ A)

    ok = (
        worst_constraint <= 1e-8
        and worst_kkt <= 1e-5
        and worst_fd <= 1e-5
        and worst_resid <= 1e-10
        and corner_ok
    )
    report(
        7,
        ok,
        f"placement over 50 instances: constraint {worst_constraint:.3e} (<=1e-8 "
        f"scaled), analytic two-form stationarity {worst_kkt:.3e} (<=1e-5), FD "
        f"stationarity {worst_fd:.3e} (<=1e-5), root residual "
        f"{worst_resid:.3e} (<=1e-10 rel), unitary corner exact={corner_ok}",
    )


def test_criterion_08_nonlinear_reduction():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    A = rng.standard_normal((4, 2))
    sigma = random_pd(rng, 4)
    prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
    est = fisher_nonlinear(NonlinearModel.linear(A), sigma, prior, N=50, seed=1)
    linear_err = rel_fro(est.J, snr_matrix(LinearModel(A), sigma).matrix)

    squared = NonlinearModel(
        h=lambda s: np.array([s[0] ** 2]), n=1, m=1, jacobian=lambda s: np.array([[2 * s[0]]])
    )
    p1 = GaussianPrior(mean=np.zeros(1), cov=np.eye(1))
    mc = fisher_nonlinear(squared, np.eye(1), p1, N=100_000, seed=2)
    moment_ok = abs(mc.J[0, 0] - 4.0) <= 3.0 * mc.std_err[0, 0]
    elapsed = time.perf_counter() - start
    report(
        8,
        linear_err < 1e-12 and moment_ok and elapsed < 10.0,
        f"nonlinear reduction: linear-map rel err {linear_err:.3e} (tol 1e-12); "
        f"E[4 s^2] = {mc.J[0, 0]:.4f} +- {mc.std_err[0, 0]:.4f} vs 4 within 3 se; "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_09_crlb_dominance():
    rng = np.random.default_rng(1009)
    all_pass = True
    worst_margin = np.inf
    for k in range(50):
        n = int(rng.integers(3, 7))
        m = int(rng.integers(1, min(n, 4) + 1))
        model = LinearModel(rng.standard_normal((n, m)))
        sigma = random_pd(rng, n)
        prior = GaussianPrior(mean=rng.standard_normal(m), cov=random_pd(rng, m))
        method = "ml" if k % 2 == 0 else "mmse"
        res = empirical_error_covariance(method, model, prior, sigma, N=20_000, seed=3000 + k)
        all_pass = all_pass and res.crlb_check.passed
        worst_margin = min(worst_margin, res.crlb_check.min_eig + res.crlb_check.slack)
    report(
        9,
        all_pass,
        f"CRLB dominance across 50 scenarios (ML and MMSE alternating): all "
        f"passed={all_pass}, worst margin above -slack {worst_margin:.3e}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    doc = {
        "id": "det",
        "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
        "modalities": [
            {"name": "a", "A": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
             "noise_cov": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]]},
            {"name": "b", "A": [[0.8, 0.3], [0.2, 0.9]],
             "noise_cov": [[0.7, 0.2], [0.2, 0.8]]},
        ],
        "cross_cov": {"pair": [0, 1], "matrix": [[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]]},
    }
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(doc))

    # campaign files
    for out in ("r1", "r2"):
        assert cli_main(
            ["simulate", str(scen), "--method", "ml", "--N", "20000", "--seed", "5",
             "--out", str(tmp_path / out)]
        ) == 0
    json_same = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    csv_same = (tmp_path / "r1.csv").read_bytes() == (tmp_path / "r2.csv").read_bytes()

    # stdout reports of analysis and advisory commands
    outputs = []
    for _ in range(2):
        assert cli_main(["analyze", str(scen), "--joint", "a,b"]) == 0
        outputs.append(capsys.readouterr().out)
    analyze_same = outputs[0] == outputs[1]

    outputs = []
    for _ in range(2):
        assert cli_main(["advise", str(scen), "--pair", "a,b"]) == 0
        outputs.append(capsys.readouterr().out)
    advise_same = outputs[0] == outputs[1]

    ok = json_same and csv_same and analyze_same and advise_same
    report(
        10,
        ok,
        f"determinism: campaign JSON identical={json_same}, CSV identical="
        f"{csv_same}, analyze stdout identical={analyze_same}, advise stdout "
        f"identical={advise_same}",
    )
