#!/usr/bin/env python3
"""One SHA-256 per question kind over seeded pairs: a fingerprint of fusionkit's answers.

The pairs are drawn at (n1, n2, m) = (3,2,2), (12,8,4) and (40,30,10) from
four families: "fuse" (sigma_max(rho) = 0.6), "uncorrelated" (rho = 0),
"redundant" (B~ = rho^T A~) and "near_unitary" (sigma_max(rho) = 1 - 1e-6).
Each pair is asked, through the public API only:

* ``J``, ``S_x``, ``S_y``, ``route_error``: the joint information with a
  Gaussian prior, the synergy matrices with their smallest eigenvalues, and
  the largest disagreement of the four routes;
* ``advise``: the advisory's JSON;
* ``optimal_secondary``: the solution at three budgets on the prewhitened
  pair, and the probe of each;
* ``synergy``: ``synergy_objective`` and ``synergy_gradient_rho``;
* ``nonlinear``: ``joint_information_nonlinear`` of the two mixing matrices
  as ``NonlinearModel.linear`` maps;
* ``estimators``: ``ml_estimate`` and ``mmse_gaussian_estimate`` on the
  stacked model ``[A; B]`` under the joint noise, for one observation and for
  a stack of five, and ML's refusal of a singular SNR matrix. This kind keeps
  its refusals on its own line, so a change to the estimators' contract moves
  it alone;
* ``refusals``: the type and message of every typed refusal, those of the
  questions above and of a fixed set of inputs each API must refuse, among
  them one of each kind of the scalar rule (a seed, a count, a tolerance and
  a step), of the array rule and of the symmetric-matrix rule, two of the
  callback rule and an error campaign that overflows; an input an older tree
  still answers hashes its answer there.

A question that is refused adds its refusal to ``refusals`` (to ``estimators``
for that kind) and the word "refused" to its own kind. Floats are hashed by their bits, so two checkouts
answer alike iff their outputs are equal byte for byte:

    PYTHONPATH=src python3 scripts/answer_digest.py --out head.txt
    (cd ../base && PYTHONPATH=src python3 ../head/scripts/answer_digest.py --out base.txt)
    diff base.txt head.txt

Prints one line per kind, ``<kind> <sha256>``, to ``--out`` (stdout by default).
"""

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from fusionkit import (
    AdvisorTolerances,
    BlockCovariance,
    FusionKitError,
    GaussianPrior,
    InfoMatrix,
    InfoOnlyPrior,
    LinearModel,
    ModalityPair,
    NonlinearModel,
    PairFactorization,
    SamplerPrior,
    advise,
    empirical_error_covariance,
    fisher_nonlinear,
    joint_information,
    joint_information_nonlinear,
    local_optimality_probe,
    ml_estimate,
    mmse_gaussian_estimate,
    numeric_jacobian,
    optimal_secondary,
    prewhiten,
    prior_information_mc,
    simulate,
    snr_matrix,
    synergy_gradient_rho,
    synergy_matrices,
    synergy_objective,
)

SIZES = ((3, 2, 2), (12, 8, 4), (40, 30, 10))
FAMILIES = ("fuse", "uncorrelated", "redundant", "near_unitary")
KINDS = ("J", "S_x", "S_y", "route_error", "advise", "optimal_secondary", "synergy",
         "nonlinear", "estimators", "refusals")
OWN_REFUSALS = ("estimators",)  # kinds whose refusals are hashed on their own line
BUDGET_FACTORS = (1.5, 3.0, 10.0)  # times the budget attainable at lambda = 0
PROBES = 64
NONLINEAR_DRAWS = 128


def encode(value) -> bytes:
    """Bytes of ``value`` that differ iff a float's bits, a shape or a string differ.

    Arrays give their shape and bits, a result dataclass the fields it is built
    from, and a float its ``repr``, which round-trips.
    """
    if isinstance(value, np.ndarray):
        return repr(value.shape).encode() + np.ascontiguousarray(value, dtype=float).tobytes()
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(encode(v) for v in value) + b")"
    if isinstance(value, dict):
        return b"{" + b",".join(encode(item) for item in sorted(value.items())) + b"}"
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return encode({f.name: getattr(value, f.name) for f in fields if f.init})
    return repr(value).encode()


class Digest:
    def __init__(self):
        self.hashes = {kind: hashlib.sha256() for kind in KINDS}

    def ask(self, kind: str, case: str, question) -> object:
        """Hash the answer of ``question()`` under ``kind``, or its typed refusal.

        A question of the ``refusals`` kind that raises an untyped error (an
        ``IndexError``, say) has it hashed as a refusal by its type and message,
        so that a version that raised one can still be digested and compared.
        """
        try:
            answer = question()
        except Exception as exc:
            if kind != "refusals" and not isinstance(exc, (FusionKitError, ValueError)):
                raise
            refusals = kind if kind in OWN_REFUSALS else "refusals"
            self.hashes[refusals].update(encode((kind, case, type(exc).__name__, str(exc))))
            self.hashes[kind].update(encode((case, "refused")))
            return None
        self.hashes[kind].update(encode((case, answer)))
        return answer

    def lines(self) -> str:
        return "".join(f"{kind} {self.hashes[kind].hexdigest()}\n" for kind in KINDS)


def symmetric(M):
    return (M + M.T) / 2.0


def random_pd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return symmetric((Q * rng.uniform(0.5, 2.0, n)) @ Q.T)


def with_norm(R, sigma_max):
    return sigma_max * R / np.linalg.svd(R, compute_uv=False)[0]


def budget_at_zero(A, rho):
    """``sum_i d_i s_i^2``, the budget at lambda = 0: ``s`` and ``U`` of rho's full SVD, and
    ``d`` the diagonal of ``U^T A A^T U`` clamped at 0."""
    U, s, _ = np.linalg.svd(rho)
    d = np.maximum(np.diag(U.T @ A @ A.T @ U), 0.0)
    return float(np.sum(d[: s.size] * s**2))


def cross_correlation(rng, n1, n2, family):
    """A whitened cross-correlation of the family's ``sigma_max``."""
    if family == "uncorrelated":
        return np.zeros((n1, n2))
    if family != "near_unitary":
        return with_norm(rng.standard_normal((n1, n2)), 0.6 if family == "fuse" else 0.7)
    k = min(n1, n2)
    U, _ = np.linalg.qr(rng.standard_normal((n1, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n2, k)))
    s = np.sort(rng.uniform(0.1, 0.8, k))[::-1]
    s[0] = 1.0 - 1e-6
    return (U * s) @ V.T


def planted_pair(rng, n1, n2, m, family):
    """A pair whose noise whitens, through Cholesky factors, to the family's rho."""
    S_v, S_u = random_pd(rng, n1), random_pd(rng, n2)
    L_v, L_u = np.linalg.cholesky(S_v), np.linalg.cholesky(S_u)
    rho = cross_correlation(rng, n1, n2, family)
    A = rng.standard_normal((n1, m))
    if family == "redundant":
        B = L_u @ rho.T @ np.linalg.solve(L_v, A)
    else:
        B = rng.standard_normal((n2, m))
    noise = BlockCovariance(S_v, S_u, L_v @ rho @ L_u.T)
    return ModalityPair(LinearModel(A), LinearModel(B), noise)


def ask_pair(digest, case, pair, prior, seed):
    digest.ask("J", case, lambda: joint_information(pair, prior))  # matrix and flag
    for j, kind in enumerate(("S_x", "S_y")):
        digest.ask(kind, case, lambda: (getattr(synergy_matrices(pair), kind),
                                        synergy_matrices(pair).min_eigenvalues[j]))
    digest.ask("route_error", case, lambda: PairFactorization.from_pair(pair).route_error)
    digest.ask("advise", case,
               lambda: json.dumps(advise(pair, prior).to_json_dict(), sort_keys=True))
    digest.ask("nonlinear", case, lambda: joint_information_nonlinear(
        NonlinearModel.linear(pair.first.A), NonlinearModel.linear(pair.second.A),
        pair.noise, prior, NONLINEAR_DRAWS, seed))

    ask_estimators(digest, case, pair, prior, np.random.default_rng(seed))

    wp = digest.ask("synergy", case + " prewhiten", lambda: prewhiten(pair))
    if wp is None:
        return
    A, B, rho = wp.A_tilde, wp.B_tilde, wp.rho
    digest.ask("synergy", case, lambda: (synergy_objective(A, B, rho, prior),
                                         synergy_gradient_rho(A, B, rho)))
    at_zero = budget_at_zero(A, rho)
    for i, factor in enumerate(BUDGET_FACTORS):
        p = factor * (at_zero if at_zero > 0.0 else 1.0)
        sol = digest.ask("optimal_secondary", f"{case} p={p!r}",
                         lambda: optimal_secondary(A, rho, p, prior))
        if sol is not None:
            digest.ask("optimal_secondary", f"{case} p={p!r} probe",
                       lambda: local_optimality_probe(A, rho, sol, n_perturbations=PROBES, seed=i))
    if at_zero > 0.0:  # below the attainable minimum
        digest.ask("optimal_secondary", f"{case} p=at_zero/2",
                   lambda: optimal_secondary(A, rho, 0.5 * at_zero))


def ask_estimators(digest, case, pair, prior, rng):
    """ML and MMSE on the pair's stacked model: one observation, then a stack of five."""
    model = LinearModel(np.vstack([pair.first.A, pair.second.A]))
    sigma = pair.noise.joint()
    for rows in ((model.n,), (5, model.n)):
        x = rng.standard_normal(rows)
        digest.ask("estimators", f"{case} ML {rows}", lambda: ml_estimate(model, sigma, x))
        digest.ask("estimators", f"{case} MMSE {rows}",
                   lambda: mmse_gaussian_estimate(model, sigma, prior, x))


def ask_refusals(digest, rng):
    """Inputs each API must refuse, asked for their type and message."""
    A, B = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    Q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    Q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    inadmissible = (Q1 * np.array([1.5, 0.5, 0.2])) @ Q2.T
    past_limit = (Q1 * np.array([1.0 - 1e-13, 0.5, 0.2])) @ Q2.T
    degenerate = np.eye(2, 3)  # sigma = (1, 1), but rho^T rho != I
    admissible = with_norm(rng.standard_normal((3, 3)), 0.5)
    sol = optimal_secondary(A, admissible, 2.0 * budget_at_zero(A, admissible))
    prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
    pair = ModalityPair(LinearModel(A), LinearModel(B),
                        BlockCovariance(np.eye(3), np.eye(3), 0.5 * np.eye(3)))
    cases = {
        "inadmissible rho": lambda: optimal_secondary(A, inadmissible, 1.0),
        "inadmissible rho, objective": lambda: synergy_objective(A, B, inadmissible),
        "rho past the condition limit": lambda: optimal_secondary(A, past_limit, 10.0),
        "rho past the condition limit, gradient": lambda: synergy_gradient_rho(A, B, past_limit),
        "rho past the condition limit, probe": lambda: local_optimality_probe(A, past_limit, sol),
        "degenerate budget": lambda: optimal_secondary(A[:2], degenerate, 1.0),
        "negative budget": lambda: optimal_secondary(A, admissible, -1.0),
        "NaN budget": lambda: optimal_secondary(A, admissible, float("nan")),
        "rho of the wrong shape": lambda: optimal_secondary(A, admissible[:2], 1.0),
        "zero displacement": lambda: local_optimality_probe(A, admissible, sol, delta=0.0),
        "noise not PD": lambda: joint_information(ModalityPair(
            LinearModel(A), LinearModel(B),
            BlockCovariance(np.eye(3), np.eye(3), 2.0 * np.eye(3)))),
        # one of each kind of the scalar rule: a seed, a count, a tolerance, a step
        "bool seed": lambda: simulate(LinearModel(A), prior, 8, True, noise=np.eye(3)).sources,
        "float count": lambda: local_optimality_probe(A, admissible, sol, n_perturbations=2.5),
        "NaN tolerance": lambda: advise(pair, tols=AdvisorTolerances(redundancy=float("nan"))),
        "bool step": lambda: numeric_jacobian(lambda s: A @ s, np.ones(2), step=True),
        # one of each kind of the array rule: a non-finite entry, a ragged
        # list, a bool array and the wrong number of axes
        "NaN observation": lambda: ml_estimate(LinearModel(A), np.eye(3), [np.nan, 0.0, 0.0]),
        "ragged mixing matrix": lambda: LinearModel([[1.0, 2.0], [3.0]]).A,
        "bool A_tilde": lambda: optimal_secondary(A > 0.0, admissible, 1.0),
        "1-D nonlinear mixing matrix": lambda: NonlinearModel.linear(np.ones(3)).n,
        # one of each kind of the symmetric-matrix rule, which is the array rule
        # at n x n: a bool, string, complex, ragged and beyond-float matrix
        "bool noise": lambda: snr_matrix(LinearModel(np.ones((2, 1))), np.eye(2, dtype=bool)),
        "string info matrix": lambda: InfoMatrix([["1", "0"], ["0", "1"]]),
        "complex prior covariance": lambda: GaussianPrior(np.zeros(1), np.array([[1 + 0j]])),
        "ragged J_s": lambda: InfoOnlyPrior([[1.0, 0.0], [0.0]]),
        "noise beyond float range": lambda: ml_estimate(LinearModel([[1.0]]), [[10**400]], [0.0]),
        # two of the callback rule, which reads each callback's output: a complex draw, a bool h
        "complex draw": lambda: prior_information_mc(SamplerPrior(
            2, lambda gen, size: gen.standard_normal((size, 2)) + 0j, lambda s: -s), 16, 0).J,
        "bool h": lambda: fisher_nonlinear(
            NonlinearModel(lambda s: s > 0.0, n=2, m=2), np.eye(2), prior, 16, 0).J,
        # an error campaign whose second moments overflow
        "overflowing campaign": lambda: empirical_error_covariance(
            "ml", LinearModel(A), GaussianPrior(np.full(2, 1e308), np.eye(2)), np.eye(3), 1000, 0),
    }
    with np.errstate(over="ignore", invalid="ignore"):  # the overflows refused above
        for case, question in cases.items():
            digest.ask("refusals", case, question)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="Output file (default: stdout)")
    args = ap.parse_args()

    digest = Digest()
    for n1, n2, m in SIZES:
        for f, family in enumerate(FAMILIES):
            rng = np.random.default_rng([n1, n2, m, f])
            case = f"({n1},{n2},{m}) {family}"
            pair = planted_pair(rng, n1, n2, m, family)
            prior = GaussianPrior(mean=np.zeros(m), cov=random_pd(rng, m))
            ask_pair(digest, case, pair, prior, seed=f)
    ask_refusals(digest, np.random.default_rng(2024))
    # rank-one mixing: the data carry nothing about s1 - s2
    digest.ask("estimators", "singular SNR matrix",
               lambda: ml_estimate(LinearModel(np.ones((3, 2))), np.eye(3), np.zeros(3)))

    text = digest.lines()
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
