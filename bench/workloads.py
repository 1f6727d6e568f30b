"""Benchmark workloads: seeded inputs, the timed question, independent oracles.

Each workload builds its inputs from the seed alone and hands the library
only those inputs. A *question* is one unit of user work; ``ask`` is the
timed part, ``check`` compares the answer with a plain-numpy reference
outside the timed window. A failed check, a raised ``FusionKitError`` (or
any other exception) and a nonzero CLI exit all count as a failed question.

Questions run in fixed cycles (``CYCLE`` questions, one of each kind in
the mix), and a run stops only at a cycle boundary, so every run measures
the same mix whatever its speed. Question ``i`` of asking ``asking`` is
generated from ``(seed, asking, i)``: the same seed gives the same inputs.
The timed questions are asking 0, the traced half of a traced run asking
1 and the warm-up asking 2: questions of the same kinds and sizes with
other values, so no cache across calls can serve one from another.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fusionkit as fk

# ---------------------------------------------------------------------------
# Plain-numpy references. Nothing below calls fusionkit.


def spd(rng, n, lo=0.5, hi=2.0) -> np.ndarray:
    """Random symmetric PD matrix with eigenvalues uniform in [lo, hi]."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = (Q * rng.uniform(lo, hi, n)) @ Q.T
    return 0.5 * (S + S.T)


def sqrt_sym(S) -> np.ndarray:
    w, V = np.linalg.eigh(S)
    L = (V * np.sqrt(w)) @ V.T
    return 0.5 * (L + L.T)


def orthonormal(rng, n, k) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return Q


def rel_err(actual, expected) -> float:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return np.inf
    den = max(float(np.linalg.norm(expected)), 1e-300)
    return float(np.linalg.norm(actual - expected)) / den


def gls_information(H, S) -> np.ndarray:
    """``H^T S^-1 H`` by a plain LU solve."""
    J = H.T @ np.linalg.solve(S, H)
    return 0.5 * (J + J.T)


def whiten(sigma_v, sigma_u, sigma_vu, A, B):
    """Whitened ``(A~, B~, rho)`` with symmetric square roots of the marginals."""
    Lv, Lu = sqrt_sym(sigma_v), sqrt_sym(sigma_u)
    rho = np.linalg.solve(Lv, np.linalg.solve(Lu, np.asarray(sigma_vu).T).T)
    return np.linalg.solve(Lv, A), np.linalg.solve(Lu, B), rho


def budget_terms(A_tilde, rho):
    """Weights ``c`` and ``1 - sigma^2`` of the placement budget equation."""
    U, s, _ = np.linalg.svd(rho)
    d = np.maximum(np.einsum("ij,ij->j", U, A_tilde @ A_tilde.T @ U), 0.0)
    k = s.shape[0]
    return d[:k] * s**2, 1.0 - s**2


def whitened_trace(A_tilde, B_tilde, rho) -> float:
    """``Tr(A~^T A~ + M K M^T)`` with ``M = A~^T rho - B~^T``, ``K = (I - rho^T rho)^-1``."""
    M = A_tilde.T @ rho - B_tilde.T
    K_Mt = np.linalg.solve(np.eye(rho.shape[1]) - rho.T @ rho, M.T)
    return float(np.trace(A_tilde.T @ A_tilde) + np.trace(M @ K_Mt))


ROUTE_TOL = 1e-8  # the library's own cross-validation tolerance

# Planted kind -> (advise verdict, regime) the library must report.
PLANTED = {
    "fuse": ("Fuse", "Partial"),
    "uncorrelated": ("Fuse", "Uncorrelated"),
    "redundant": ("SecondRedundant", "Partial"),
    "near_singular": ("Fuse", "NearSingular"),
}


@dataclass
class Planted:
    """A modality pair with known whitened structure."""

    kind: str
    A: np.ndarray
    B: np.ndarray
    sigma_v: np.ndarray
    sigma_u: np.ndarray
    sigma_vu: np.ndarray
    prior_mean: np.ndarray
    prior_cov: np.ndarray

    @property
    def joint(self) -> np.ndarray:
        return np.block([[self.sigma_v, self.sigma_vu], [self.sigma_vu.T, self.sigma_u]])

    @property
    def H(self) -> np.ndarray:
        return np.vstack([self.A, self.B])

    def pair(self) -> fk.ModalityPair:
        noise = fk.BlockCovariance(self.sigma_v, self.sigma_u, self.sigma_vu)
        return fk.ModalityPair(fk.LinearModel(self.A), fk.LinearModel(self.B), noise)

    def prior(self) -> fk.GaussianPrior:
        return fk.GaussianPrior(self.prior_mean, self.prior_cov)


def planted_pair(rng, n1, n2, m, kind) -> Planted:
    """Pair whose whitened cross-correlation and secondary are planted.

    ``fuse``: generic rho with singular values in [0.1, 0.8];
    ``uncorrelated``: rho = 0 (block-diagonal noise);
    ``redundant``: ``B~ = rho^T A~``; ``near_singular``: top singular
    value of rho at 1 - 5e-7, inside the advisor's 1e-6 band.
    """
    sigma_v, sigma_u = spd(rng, n1), spd(rng, n2)
    Lv, Lu = sqrt_sym(sigma_v), sqrt_sym(sigma_u)
    A_t = rng.standard_normal((n1, m))
    k = min(n1, n2)
    if kind == "uncorrelated":
        rho = np.zeros((n1, n2))
    else:
        s = rng.uniform(0.1, 0.8, k)
        if kind == "near_singular":
            s[0] = 1.0 - 5e-7
        rho = (orthonormal(rng, n1, k) * s) @ orthonormal(rng, n2, k).T
    B_t = rho.T @ A_t if kind == "redundant" else rng.standard_normal((n2, m))
    return Planted(
        kind=kind,
        A=Lv @ A_t,
        B=Lu @ B_t,
        sigma_v=sigma_v,
        sigma_u=sigma_u,
        sigma_vu=Lv @ rho @ Lu,
        prior_mean=rng.standard_normal(m),
        prior_cov=spd(rng, m),
    )


ASKINGS = 3
WARMUP_ASKING = 2


def question_rng(seed: int, asking: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, asking, i])


# ---------------------------------------------------------------------------
# Shared checks. ``ref_scale`` multiplies every reference so that a test can
# plant a wrong reference and see the check fire.


def check_joint(J, planted: Planted, errors, ref_scale=1.0, what="J_joint"):
    ref = (gls_information(planted.H, planted.joint) + np.linalg.inv(planted.prior_cov)) * ref_scale
    err = rel_err(J, ref)
    if not err <= 1e-8:
        errors.append(f"{what} off the numpy reference by {err:.3e}")
    return ref


def check_placement(sol, A_t, rho, p, prior_trace, errors, ref_scale=1.0):
    """Acceptance criterion 07's bounds, recomputed from the inputs."""
    if sol["B_star"] is None:
        if not sol["degenerate"]:
            errors.append("no B_star on a non-degenerate solution")
        return
    B = np.asarray(sol["B_star"], dtype=float)
    p_ref = p * ref_scale
    constraint = abs(float(np.sum(B * B)) - p_ref) / (1.0 + p_ref)
    if not constraint <= 1e-8:
        errors.append(f"budget constraint off by {constraint:.3e}")
    if not sol["kkt_residual"] <= 1e-5:
        errors.append(f"kkt_residual {sol['kkt_residual']:.3e} > 1e-5")
    if sol["lambda"] != 0.0:
        c, oms = budget_terms(A_t, rho)
        resid = abs(float(np.sum(c / (1.0 - sol["lambda"] * oms) ** 2)) - p_ref) / p_ref
        if not resid <= 1e-10:
            errors.append(f"root residual {resid:.3e} > 1e-10")
    e_ref = (whitened_trace(A_t, B, rho) + prior_trace) * ref_scale
    err = abs(sol["objective"] - e_ref) / max(abs(e_ref), 1e-300)
    if not err <= 1e-8:
        errors.append(f"objective off the numpy reference by {err:.3e}")


def check_campaign(result, A, sigma, prior_mean, prior_cov, method, errors, ref_scale=1.0):
    snr = gls_information(A, sigma)
    info = snr if method == "ml" else snr + np.linalg.inv(prior_cov)
    ref = np.linalg.inv(info) * ref_scale
    err = rel_err(result["theoretical_ref"], ref)
    if not err <= 1e-8:
        errors.append(f"{method} reference covariance off by {err:.3e}")
    # CRLB dominance. The library passes its check iff the smallest
    # eigenvalue of (empirical - CRLB) is at least -slack, with slack five
    # times the largest per-entry standard error. For an efficient
    # estimator that eigenvalue is pure Monte-Carlo error and falls below
    # -slack in about 1 of 240 campaigns of this workload, so ``passed`` is
    # not required. The check is recomputed instead, and the estimate must
    # dominate the bound up to m * slack: if every entry of an m x m error
    # lies within slack, its spectral norm is at most m * slack.
    crlb = result["crlb_check"]
    emp = np.asarray(result["empirical_error_cov"], dtype=float)
    min_eig = float(np.linalg.eigvalsh(0.5 * (emp + emp.T) - ref)[0])
    if not abs(crlb["min_eig"] - min_eig) <= 1e-9 * (1.0 + float(np.linalg.norm(ref))):
        errors.append(f"{method} CRLB check min_eig {crlb['min_eig']:.6e}, numpy {min_eig:.6e}")
    if crlb["passed"] != (crlb["min_eig"] >= -crlb["slack"]):
        errors.append(f"{method} CRLB check verdict disagrees with its min_eig and slack")
    if not min_eig >= -emp.shape[0] * crlb["slack"]:
        errors.append(f"{method} empirical covariance below the CRLB by {-min_eig:.3e}")
    if not result["frobenius_rel_err"] <= 0.05:
        errors.append(f"{method} empirical covariance off by {result['frobenius_rel_err']:.3e}")


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    CYCLE = 1
    # Seconds one cycle takes at the seed commit on the reference host (see
    # reference.py); sets how many cycles a run of a given length asks.
    # Questions run in this process: only then does the reference kernel,
    # timed on this thread, track the speed they ran at, and are their
    # times scaled by it.
    IN_PROCESS = True
    CYCLE_S = 1.0
    TRACED_CYCLE_S = None  # the same for ask_traced unless set

    def __init__(self, seed: int, workdir: Path, env: dict | None = None):
        self.seed = seed
        self.h_calls = 0

    def question(self, i: int, asking: int = 0):
        raise NotImplementedError

    def ask(self, q):
        raise NotImplementedError

    def ask_traced(self, q):
        """The question as the traced run times it (in-process for every workload)."""
        return self.ask(q)

    def check(self, q, answer, ref_scale=1.0) -> list[str]:
        raise NotImplementedError

    def mc_samples(self, q) -> int:
        return 0

    def fingerprint(self, q) -> str:
        """Stable digest of the generated inputs (for the determinism test)."""
        raise NotImplementedError


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


class FusionDense(Workload):
    """Fresh pair per question: routes, synergy, CRLB, advise, ML and MMSE."""

    name = "fusion-dense"
    # The large pairs are 10% of questions but most of the time.
    MEDIUM, LARGE = (40, 30, 10), (200, 150, 20)
    CYCLE_S = 0.75
    MIX = [
        (MEDIUM, "fuse"),
        (MEDIUM, "uncorrelated"),
        (MEDIUM, "fuse"),
        (MEDIUM, "redundant"),
        (MEDIUM, "fuse"),
        (MEDIUM, "near_singular"),
        (MEDIUM, "fuse"),
        (MEDIUM, "redundant"),
        (MEDIUM, "fuse"),
        (LARGE, "fuse"),
    ]
    CYCLE = len(MIX)

    @dataclass
    class Q:
        planted: Planted
        pair: fk.ModalityPair
        prior: fk.GaussianPrior
        stacked: fk.LinearModel
        sigma: np.ndarray
        x: np.ndarray

    def question(self, i, asking=0):
        rng = question_rng(self.seed, asking, i)
        (n1, n2, m), kind = self.MIX[i % self.CYCLE]
        pl = planted_pair(rng, n1, n2, m, kind)
        S = pl.joint
        s_true = pl.prior_mean + np.linalg.cholesky(pl.prior_cov) @ rng.standard_normal(m)
        x = pl.H @ s_true + np.linalg.cholesky(S) @ rng.standard_normal(n1 + n2)
        return self.Q(pl, pl.pair(), pl.prior(), fk.LinearModel(pl.H), S, x)

    def ask(self, q):
        J = fk.joint_information(q.pair, q.prior)
        syn = fk.synergy_matrices(q.pair)
        bound = fk.crlb(J)
        adv = fk.advise(q.pair, q.prior)
        ml = fk.ml_estimate(q.stacked, q.sigma, q.x)
        mmse = fk.mmse_gaussian_estimate(q.stacked, q.sigma, q.prior, q.x)
        return J, syn, bound, adv, ml, mmse

    def check(self, q, answer, ref_scale=1.0):
        J, syn, bound, adv, ml, mmse = answer
        pl, errors = q.planted, []
        J_ref = check_joint(J.matrix, pl, errors, ref_scale)
        J_fisher = J_ref - np.linalg.inv(pl.prior_cov) * ref_scale
        snr1 = gls_information(pl.A, pl.sigma_v) * ref_scale
        scale = 1.0 + float(np.linalg.norm(J_fisher))
        err = float(np.linalg.norm(syn.S_x - (J_fisher - snr1))) / scale
        if not err <= ROUTE_TOL:
            errors.append(f"S_x off J_joint - J_first by {err:.3e}")
        err = float(np.linalg.norm(bound @ J_ref - np.eye(pl.A.shape[1])))
        if not err <= 1e-6:
            errors.append(f"crlb is not the inverse of J_joint ({err:.3e})")
        if (adv.verdict, adv.regime) != PLANTED[pl.kind]:
            errors.append(f"advise says {(adv.verdict, adv.regime)}, planted {PLANTED[pl.kind]}")
        H, S = pl.H, q.sigma
        fisher = gls_information(H, S) * ref_scale
        s_ml = np.linalg.solve(fisher, H.T @ np.linalg.solve(S, q.x))
        if not rel_err(ml.s_hat, s_ml) <= 1e-7:
            errors.append(f"ML estimate off the GLS reference by {rel_err(ml.s_hat, s_ml):.3e}")
        post = fisher + np.linalg.inv(pl.prior_cov)
        s_mmse = np.linalg.solve(
            post, H.T @ np.linalg.solve(S, q.x) + np.linalg.solve(pl.prior_cov, pl.prior_mean)
        )
        if not rel_err(mmse.s_hat, s_mmse) <= 1e-7:
            errors.append(f"MMSE estimate off the reference by {rel_err(mmse.s_hat, s_mmse):.3e}")
        return errors

    def fingerprint(self, q):
        return _digest(q.planted.A, q.planted.B, q.sigma, q.x)


class PlacementDesign(Workload):
    """Budget sweep on whitened pairs: optimal_secondary, then the probe."""

    name = "placement-design"
    # Two medium pairs to one small: the median and the tail both fall
    # inside the medium questions. The small ones, mostly interpreter
    # overhead, moved more than the medium ones with the host's drift when
    # the median lay among them.
    SIZES = [(40, 30, 10), (12, 8, 4), (40, 30, 10)]
    BUDGETS_PER_PAIR = 3
    CYCLE = len(SIZES) * BUDGETS_PER_PAIR
    CYCLE_S = 1.5

    @dataclass
    class Q:
        A_tilde: np.ndarray
        rho: np.ndarray
        p: float

    def __init__(self, seed, workdir, env=None):
        super().__init__(seed, workdir)
        self.pairs = {}

    def pair(self, asking, cycle, k):
        """Pair ``k`` of a cycle, whitened once, before its first question is timed.

        Every cycle has pairs of its own: solve times differ from pair to
        pair by about 7%, so a run of a few pairs would measure its seed.
        """
        key = (asking, cycle, k)
        if key not in self.pairs:
            rng = np.random.default_rng([self.seed, 1 << 20, asking, cycle, k])
            wp = fk.prewhiten(planted_pair(rng, *self.SIZES[k], "fuse").pair())
            c, _ = budget_terms(wp.A_tilde, wp.rho)
            self.pairs = {key: (wp.A_tilde, wp.rho, float(np.sum(c)))}
        return self.pairs[key]

    def question(self, i, asking=0):
        cycle, j = divmod(i, self.CYCLE)
        A_t, rho, at_zero = self.pair(asking, cycle, j // self.BUDGETS_PER_PAIR)
        p = at_zero * (1.0 + float(question_rng(self.seed, asking, i).uniform(0.25, 4.0)))
        return self.Q(A_t, rho, p)

    def ask(self, q):
        sol = fk.optimal_secondary(q.A_tilde, q.rho, q.p)
        probe = fk.local_optimality_probe(q.A_tilde, q.rho, sol)
        return sol, probe

    def check(self, q, answer, ref_scale=1.0):
        sol, probe = answer
        errors = []
        check_placement(sol.to_json_dict(), q.A_tilde, q.rho, q.p, 0.0, errors, ref_scale)
        if probe.n_perturbations != 200:
            errors.append(f"probe ran {probe.n_perturbations} perturbations, asked 200")
        return errors

    def fingerprint(self, q):
        return _digest(q.A_tilde, q.rho, [q.p])


class McVerify(Workload):
    """Monte-Carlo oracles: nonlinear Fisher and joint information, error campaigns."""

    name = "mc-verify"
    # Samples per question. The joint question spans two seed-split blocks
    # (the library's block is 8192 samples), so the worker pool runs; the
    # Fisher questions stay in one block. The kinds' costs are about 2x
    # apart (campaigns < m=4 < m=2 < joint) and m=4 comes twice, so the
    # median lies inside the m=4 questions (ranks 34-67%), never between
    # two kinds.
    SAMPLES = {"fisher-m2": 6000, "fisher-m4": 1500, "joint": 9000}
    CAMPAIGN_N = 200_000
    MIX = ["fisher-m2", "fisher-m4", "joint", "campaign-ml", "fisher-m4", "campaign-mmse"]
    CYCLE = len(MIX)
    CYCLE_S = 2.4

    @dataclass
    class Q:
        kind: str
        args: tuple
        samples: int
        expected: np.ndarray | None  # closed-form E[D^T W D] (+ prior info)
        extra: tuple = ()

    def poly_model(self, rng, n, m):
        """``h(s) = A s + C (s*s)``: its Jacobian ``A + 2 C diag(s)`` is linear in s."""
        A = rng.standard_normal((n, m))
        C = 0.5 * rng.standard_normal((n, m))

        def h(s):
            self.h_calls += 1
            return A @ s + C @ (s * s)

        return A, C, fk.NonlinearModel(h=h, n=n, m=m)

    @staticmethod
    def expected_fisher(A, C, W, mean, cov):
        """``E[D^T W D]`` for ``D(s) = A + 2 C diag(s)``, ``s ~ N(mean, cov)``."""
        D_mean = A + 2.0 * C * mean
        return D_mean.T @ W @ D_mean + 4.0 * cov * (C.T @ W @ C)

    def question(self, i, asking=0):
        rng = question_rng(self.seed, asking, i)
        kind = self.MIX[i % self.CYCLE]
        mc_seed = int(rng.integers(1 << 31))
        if kind.startswith("fisher"):
            m = 2 if kind == "fisher-m2" else 4
            n = m + 3
            A, C, model = self.poly_model(rng, n, m)
            sigma, mean, cov = spd(rng, n), rng.standard_normal(m), spd(rng, m)
            prior = fk.GaussianPrior(mean, cov)
            expected = self.expected_fisher(A, C, np.linalg.inv(sigma), mean, cov)
            n = self.SAMPLES[kind]
            return self.Q(kind, (model, sigma, prior, n, mc_seed), n, expected)
        if kind == "joint":
            pl = planted_pair(rng, 4, 3, 2, "fuse")
            A1, C1, h = self.poly_model(rng, 4, 2)
            A2, C2, g = self.poly_model(rng, 3, 2)
            noise = fk.BlockCovariance(pl.sigma_v, pl.sigma_u, pl.sigma_vu)
            prior = fk.GaussianPrior(pl.prior_mean, pl.prior_cov)
            W = np.linalg.inv(pl.joint)
            expected = self.expected_fisher(
                np.vstack([A1, A2]), np.vstack([C1, C2]), W, pl.prior_mean, pl.prior_cov
            ) + np.linalg.inv(pl.prior_cov)
            n = self.SAMPLES[kind]
            return self.Q(kind, (h, g, noise, prior, n, mc_seed), n, expected)
        method = kind.split("-")[1]
        pl = planted_pair(rng, 6, 2, 3, "fuse")
        model, prior = fk.LinearModel(pl.A), pl.prior()
        return self.Q(
            kind,
            (method, model, prior, pl.sigma_v, self.CAMPAIGN_N, mc_seed),
            self.CAMPAIGN_N,
            None,
            (pl.A, pl.sigma_v, pl.prior_mean, pl.prior_cov),
        )

    def ask(self, q):
        if q.kind.startswith("fisher"):
            return fk.fisher_nonlinear(*q.args)
        if q.kind == "joint":
            return fk.joint_information_nonlinear(*q.args)
        return fk.empirical_error_covariance(*q.args)

    def check(self, q, answer, ref_scale=1.0):
        errors = []
        if q.expected is None:
            check_campaign(answer.to_json_dict(), *q.extra, q.args[0], errors, ref_scale)
            return errors
        expected = q.expected * ref_scale
        # Central differences are exact for a quadratic map up to roundoff,
        # so the only error left is Monte-Carlo error.
        slack = 5.0 * answer.std_err + 1e-7 * (1.0 + np.abs(expected))
        worst = float(np.max(np.abs(answer.J - expected) - slack))
        if not worst <= 0.0:
            errors.append(f"{q.kind}: estimate outside 5 standard errors by {worst:.3e}")
        return errors

    def mc_samples(self, q):
        return q.samples

    def fingerprint(self, q):
        return _digest(*(a for a in q.args if isinstance(a, np.ndarray)), [q.args[-1]])


# The README demo scenario, verbatim.
DEMO = {
    "id": "demo",
    "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": [[1.0, 0.2], [0.2, 1.0]]}},
    "modalities": [
        {
            "name": "ecg",
            "A": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
            "noise_cov": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]],
        },
        {"name": "ppg", "A": [[0.8, 0.3], [0.2, 0.9]], "noise_cov": [[0.7, 0.2], [0.2, 0.8]]},
    ],
    "cross_cov": {"pair": [0, 1], "matrix": [[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]]},
}
DEMO_PLANTED = ("Fuse", "Partial")


class CliCold(Workload):
    """Sequential ``python -m fusionkit.cli`` processes over a fixed command mix.

    Every question is a fresh process, so nothing survives from one to the
    next. The generated scenarios differ between askings; the README demo
    is asked with the same arguments in every asking and every fourth
    cycle, which is where the check that a repeated question gives
    identical bytes applies.
    """

    name = "cli-cold"
    COMMANDS = ["modality", "joint", "advise", "place", "simulate"]
    CYCLE = len(COMMANDS)
    # Besides the README demo: seed-generated scenarios at fixed sizes.
    GENERATED = [((3, 2, 2), "uncorrelated"), ((8, 5, 3), "redundant"), ((12, 8, 4), "fuse")]
    CYCLE_S = 4.2
    IN_PROCESS = False
    TRACED_CYCLE_S = 0.15  # in-process main(argv)

    @dataclass
    class Scenario:
        path: Path
        planted: Planted
        expected: tuple
        budget: float
        method: str

    @dataclass
    class Q:
        scenario: "CliCold.Scenario"
        command: str
        argv: list

    def __init__(self, seed, workdir, env=None):
        super().__init__(seed, workdir)
        self.env = env
        demo = self._scenario(workdir / "demo.json", DEMO, self._demo_planted(), DEMO_PLANTED, 0)
        # Scenarios of their own for every asking.
        self.scenarios = []
        for asking in range(ASKINGS):
            rng = np.random.default_rng([seed, 1 << 21, asking])
            self.scenarios.append([demo])
            for k, (size, kind) in enumerate(self.GENERATED, start=1):
                pl = planted_pair(rng, *size, kind)
                path = workdir / f"asking{asking}-gen{k}.json"
                doc = self._document(f"gen{k}", pl)
                self.scenarios[asking].append(self._scenario(path, doc, pl, PLANTED[kind], k))
        self.outputs: dict[tuple, bytes] = {}

    def _scenario(self, path, doc, pl: Planted, expected, k) -> "CliCold.Scenario":
        path.write_text(json.dumps(doc, indent=1))
        A_t, _, rho = whiten(pl.sigma_v, pl.sigma_u, pl.sigma_vu, pl.A, pl.B)
        c, _ = budget_terms(A_t, rho)
        budget = float(np.sum(c)) * 2.0 if np.any(c > 0.0) else 1.0
        method = "ml" if k % 2 == 0 else "mmse"
        return self.Scenario(path, pl, expected, budget, method)

    @staticmethod
    def _demo_planted() -> Planted:
        ecg, ppg = DEMO["modalities"]
        g = DEMO["sources"]["gaussian"]
        return Planted(
            "demo",
            np.array(ecg["A"]),
            np.array(ppg["A"]),
            np.array(ecg["noise_cov"]),
            np.array(ppg["noise_cov"]),
            np.array(DEMO["cross_cov"]["matrix"]),
            np.array(g["mean"]),
            np.array(g["cov"]),
        )

    @staticmethod
    def _document(name, pl: Planted) -> dict:
        doc = {
            "id": name,
            "sources": {"gaussian": {"mean": pl.prior_mean.tolist(), "cov": pl.prior_cov.tolist()}},
            "modalities": [
                {"name": "first", "A": pl.A.tolist(), "noise_cov": pl.sigma_v.tolist()},
                {"name": "second", "A": pl.B.tolist(), "noise_cov": pl.sigma_u.tolist()},
            ],
        }
        if np.any(pl.sigma_vu):
            doc["cross_cov"] = {"pair": [0, 1], "matrix": pl.sigma_vu.tolist()}
        return doc

    def question(self, i, asking=0):
        command = self.COMMANDS[i % self.CYCLE]
        # Scenarios rotate by cycle; the campaign always simulates the
        # largest one, so peak memory does not depend on the cycle count.
        scenarios = self.scenarios[asking]
        k = len(scenarios) - 1 if command == "simulate" else i // self.CYCLE
        sc = scenarios[k % len(scenarios)]
        first, second = ("ecg", "ppg") if sc.planted.kind == "demo" else ("first", "second")
        path = str(sc.path)
        argv = {
            "modality": ["analyze", path, "--modality", first],
            "joint": ["analyze", path, "--joint", f"{first},{second}"],
            "advise": ["advise", path, "--pair", f"{first},{second}"],
            "place": ["place", path, "--primary", first, "--budget", repr(sc.budget)],
            "simulate": ["simulate", path, "--method", sc.method, "--seed", str(i % 7)],
        }[command]
        return self.Q(sc, command, argv)

    def ask(self, q):
        proc = subprocess.run(
            [sys.executable, "-m", "fusionkit.cli", *q.argv],
            capture_output=True,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def ask_traced(self, q):
        from fusionkit import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.argv)
        return code, out.getvalue().encode(), err.getvalue().encode()

    def check(self, q, answer, ref_scale=1.0):
        code, stdout, stderr = answer
        if code != 0:
            return [f"{q.argv[0]} exited {code}: {stderr.decode(errors='replace')[-300:]}"]
        key = tuple(q.argv)
        first_seen = self.outputs.setdefault(key, stdout)
        errors = [] if first_seen == stdout else [f"{q.argv[0]} output differs on repeat"]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return errors + [f"{q.argv[0]} output is not JSON: {exc}"]
        pl = q.scenario.planted
        prior_info = np.linalg.inv(pl.prior_cov)
        if q.command == "modality":
            J_ref = (gls_information(pl.A, pl.sigma_v) + prior_info) * ref_scale
            if not rel_err(report["J_total"], J_ref) <= 1e-8:
                errors.append(f"J_total off by {rel_err(report['J_total'], J_ref):.3e}")
        elif q.command == "joint":
            check_joint(report["J_joint"], pl, errors, ref_scale)
            if not report["route_max_rel_disagreement"] < ROUTE_TOL:
                errors.append("routes disagree beyond 1e-8")
        elif q.command == "advise":
            if (report["verdict"], report["regime"]) != q.scenario.expected:
                errors.append(
                    f"advise says {(report['verdict'], report['regime'])}, "
                    f"planted {q.scenario.expected}"
                )
        elif q.command == "place":
            A_t, _, rho = whiten(pl.sigma_v, pl.sigma_u, pl.sigma_vu, pl.A, pl.B)
            prior_trace = float(np.trace(prior_info))
            check_placement(report, A_t, rho, q.scenario.budget, prior_trace, errors, ref_scale)
        else:
            (result,) = report
            prior = (pl.prior_mean, pl.prior_cov)
            check_campaign(result, pl.A, pl.sigma_v, *prior, q.scenario.method, errors, ref_scale)
        return errors

    def mc_samples(self, q):
        return 200_000 if q.command == "simulate" else 0

    def fingerprint(self, q):
        return _digest(q.scenario.planted.A, q.scenario.planted.B, [q.scenario.budget]) + " ".join(
            q.argv[2:]
        )


WORKLOADS = {w.name: w for w in (CliCold, FusionDense, PlacementDesign, McVerify)}
