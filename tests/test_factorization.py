"""One factorization per modality pair, memoized on it: contents, guards, ownership and LAPACK counts.

Also the LAPACK counts of a placement question and of the estimators."""

import collections
import dataclasses
import gc
import json
import os
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from fusionkit import (
    AdvisorTolerances,
    BlockCovariance,
    GaussianPrior,
    LinearModel,
    ModalityPair,
    NonlinearModel,
    NotPD,
    PairFactorization,
    RouteDisagreement,
    Singular,
    SingularInformation,
    advise,
    crlb,
    empirical_error_covariance,
    fisher_nonlinear,
    joint_information,
    joint_information_nonlinear,
    local_optimality_probe,
    ml_estimate,
    mmse_gaussian_estimate,
    optimal_secondary,
    prewhiten,
    simulate,
    snr_matrix,
    synergy_matrices,
)
import fusionkit
from fusionkit import advisor, estimators, information, matrixkit, placement
from fusionkit.cli import main
from fusionkit.matrixkit import factor_noise, symmetrize
from fusionkit.model import draw_rows, draw_streams

from conftest import (
    empty_placement_caches,
    plant_disagreement,
    random_admissible_rho,
    random_joint_noise,
    random_orthogonal,
    random_pair,
    random_pd,
    rel_fro,
    symmetric_root,
)

SYNERGY_CHECK = "synergy matrices and J_joint - J_single"

# Entry points of numpy.linalg and scipy.linalg that the library could call
# (scipy only if the library imported it).
LAPACK = {
    "numpy.linalg": ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv",
                     "qr", "slogdet", "det", "solve", "svd"),
    "scipy.linalg": ("cho_factor", "cho_solve", "cholesky", "eigh", "inv", "lu_factor",
                     "lu_solve", "solve", "solve_triangular", "svd"),
}


def planted_pair(rng, n1, n2, m, redundant=False):
    """Pair with whitened cross-correlation rho; ``B~ = rho^T A~`` when redundant."""
    sigma_v, sigma_u = random_pd(rng, n1), random_pd(rng, n2)
    L_v, L_u = symmetric_root(sigma_v), symmetric_root(sigma_u)
    rho = random_admissible_rho(rng, n1, n2, 0.8)
    A_t = rng.standard_normal((n1, m))
    B_t = rho.T @ A_t if redundant else rng.standard_normal((n2, m))
    return ModalityPair(
        LinearModel(L_v @ A_t),
        LinearModel(L_u @ B_t),
        BlockCovariance(sigma_v, sigma_u, L_v @ rho @ L_u),
    )


def lapack_calls(monkeypatch, fn):
    counts = collections.Counter()
    for modname, names in LAPACK.items():
        module = sys.modules.get(modname)
        for name in names if module is not None else ():
            original = getattr(module, name)

            def counted(*args, _f=original, _n=f"{modname}.{name}", **kwargs):
                counts[_n] += 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    fn()
    monkeypatch.undo()
    return dict(counts)


BUILD = {
    # one per marginal (the whitening inverse factor, its inverse and the
    # condition bound that certifies it) and one per Schur complement (the
    # same, against its block); a 30 or 40 row factor is inverted in one
    # block, and no eigen-solve factorizes the pair
    "numpy.linalg.cholesky": 4,
    "numpy.linalg.inv": 4,
    "numpy.linalg.solve": 1,  # (I - rho^T rho); A~, B~ and rho are products
    # rho^T rho, for the guard of K and sigma_max(rho) (a values-only SVD of
    # rho while the record read them off its singular values)
    "numpy.linalg.eigvalsh": 1,
}


@pytest.mark.parametrize("redundant", [False, True])
@pytest.mark.parametrize(
    "call, extra_eigvalsh",
    [("joint_information", 0), ("synergy_matrices", 1), ("advise", 1)],
)
def test_lapack_calls_pinned(monkeypatch, call, extra_eigvalsh, redundant):
    rng = np.random.default_rng(40)
    pair = planted_pair(rng, 40, 30, 10, redundant)
    prior = GaussianPrior(mean=np.zeros(10), cov=random_pd(rng, 10))
    calls = {
        "joint_information": lambda: joint_information(pair, prior),
        "synergy_matrices": lambda: synergy_matrices(pair),
        "advise": lambda: advise(pair, prior),
    }
    expected = dict(collections.Counter(BUILD) + collections.Counter(
        {"numpy.linalg.eigvalsh": extra_eigvalsh}))
    assert lapack_calls(monkeypatch, calls[call]) == expected
    if call == "advise":
        adv = advise(pair, prior)
        assert adv.verdict == ("SecondRedundant" if redundant else "Fuse")
        if redundant:
            assert adv.evidence["synergy_residual"] <= 1e-8


def test_crlb_takes_one_guarded_inverse(monkeypatch):
    # J^-1 comes from the guard of every inverse: one Cholesky factor of 10
    # rows, inverted in one block; J is eigen-solved only on refusal, for
    # the null space the error carries
    rng = np.random.default_rng(40)
    pair = planted_pair(rng, 40, 30, 10)
    J = joint_information(pair, GaussianPrior(mean=np.zeros(10), cov=random_pd(rng, 10)))
    assert lapack_calls(monkeypatch, lambda: crlb(J)) == {
        "numpy.linalg.cholesky": 1, "numpy.linalg.inv": 1}
    v = rng.standard_normal(10)
    v /= np.linalg.norm(v)
    P = np.eye(10) - np.outer(v, v)
    J_singular = symmetrize(P @ J.matrix @ P)  # carries nothing about v
    with pytest.raises(SingularInformation) as exc:
        crlb(J_singular)
    w = np.linalg.eigvalsh(J_singular)
    assert exc.value.condition == (w[-1] / w[0] if w[0] > 0.0 else np.inf)
    assert str(exc.value).startswith("information matrix is numerically singular (cond~")
    null = exc.value.null_space
    assert null.shape == (10, 1)
    assert abs(float(null[:, 0] @ v)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(J_singular @ null) <= 1e-12 * np.linalg.norm(J_singular)


@pytest.mark.parametrize("redundant", [False, True])
def test_calls_on_one_pair_share_one_factorization(monkeypatch, redundant):
    rng = np.random.default_rng(42)
    pair = planted_pair(rng, 40, 30, 10, redundant)
    prior = GaussianPrior(mean=np.zeros(10), cov=random_pd(rng, 10))

    def three_calls():
        joint_information(pair, prior)
        synergy_matrices(pair)
        advise(pair, prior)

    # one BUILD, plus the one stacked eigvalsh of synergy_matrices and of advise (0 + 1 + 1)
    expected = dict(collections.Counter(BUILD) + collections.Counter(
        {"numpy.linalg.eigvalsh": 2}))
    assert lapack_calls(monkeypatch, three_calls) == expected
    assert lapack_calls(monkeypatch, three_calls) == {"numpy.linalg.eigvalsh": 2}


FUSIONKIT_DIR = str(Path(fusionkit.__file__).resolve().parent) + os.sep

# Comprehension frames: Python 3.12 runs them inline, without a call event.
INLINED_FRAMES = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def python_calls(fn):
    """``{"fusionkit": a, "from_fusionkit": b}`` while ``fn`` runs, counted by ``sys.setprofile``.

    ``a`` counts calls of fusionkit functions; ``b`` counts calls made from
    fusionkit frames to anything else, Python or C. numpy's own calls below
    those are its version's business and are not counted, nor are the
    argument dispatchers numpy runs ahead of one of its functions.
    """
    counts = collections.Counter()

    def ours(frame):
        return frame is not None and frame.f_code.co_filename.startswith(FUSIONKIT_DIR)

    def profile(frame, event, arg):
        if event == "call":
            if ours(frame):
                counts["fusionkit"] += frame.f_code.co_name not in INLINED_FRAMES
            elif ours(frame.f_back) and not frame.f_code.co_name.endswith("_dispatcher"):
                counts["from_fusionkit"] += 1
        elif event == "c_call" and ours(frame):
            counts["from_fusionkit"] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return dict(counts)


def small_question(seed):
    """An exactly symmetric (3,2,2) pair, its prior and stacked model, and a placement input."""
    rng = np.random.default_rng(seed)
    S = symmetrize(random_pd(rng, 5, (0.3, 3.0)))
    pair = ModalityPair(LinearModel(rng.standard_normal((3, 2))),
                        LinearModel(rng.standard_normal((2, 2))),
                        BlockCovariance(S[:3, :3], S[3:, 3:], S[:3, 3:]))
    prior = GaussianPrior(mean=np.zeros(2), cov=symmetrize(random_pd(rng, 2)))
    stacked = LinearModel(np.vstack([pair.first.A, pair.second.A]))
    placement_input = (rng.standard_normal((3, 2)), random_admissible_rho(rng, 3, 2, 0.7), 5.0)
    return pair, prior, stacked, S, rng.standard_normal(5), placement_input


# Python-level calls of one question at (3,2,2) on fresh inputs. Before the
# pair's matrices were symmetric by construction, the same questions made
# 70/156, 62/133, 54/132, 44/97 and 18/30; optimal_secondary made 41/91
# before placement memoized its analysis of rho and inlined the Newton step.
# Before the routes, the synergy matrices and the gradient forms were compared
# by one agreement rule, the first four made 59/127, 52/107, 43/106 and 32/85;
# optimal_secondary made 32/85 while it checked its budget twice and the budget
# root (now _lambda_root) evaluated the budget at the bracket's end again in its
# first Newton step.
# While the pair's matrices were formed through explicit inverses and six
# symmetrize passes, the first three made 53/104, 46/84 and 37/83;
# optimal_secondary made 31/84 while its KKT check took the gradient's norm twice.
# While the probe formed each perturbed matrix and its K B, a probe made 17/34 on
# a miss of placement's analysis slot and 10/25 on a hit. While the analysis of
# rho, K and the first block's <z, K z> were one module slot read through
# accessors, optimal_secondary made 31/83 and a probe 16/37 on a miss and 8/27 on
# a hit. A "slot" miss is now one of the analysis cache, with the draws cached.
# While rho was taken apart by a tuple of solver closures, apart from the pair's
# SVD, advise made 46/92, joint_information 39/72, synergy_matrices 30/71,
# optimal_secondary 31/82 and a probe 16/41 on a miss. While the agreement rule
# checked each form for finiteness apart from their difference, from_pair built
# the routes as a dict before their stack, the Schur guard went through
# derived_factor, and advise took the traces of S_x and S_y twice, advise made
# 47/92, joint_information 40/72, synergy_matrices 31/71 and optimal_secondary 30/80.
# While the probe checked its count, seed and displacement inline, by two isinstance
# calls, a probe made 15/39 on a miss and 5/25 on a hit; the one scalar rule of
# matrixkit reads a Python number by its type (a call the profiler does not see).
# While each whitened placement input was converted by np.asarray and checked by
# np.isfinite(M).all() inline, and the estimators checked x's shape alone,
# optimal_secondary made 30/77, ml_estimate 14/21 and a probe 18/37 on a miss and
# 8/23 on a hit; each admitted array is now one call of matrixkit.require_array,
# and ml_estimate whitens [A | x] in the helper it shares with the MMSE estimate.
# While a symmetric matrix was admitted by a rule of its own (np.asarray, then
# np.all(np.isfinite(M))), and the noise through require_noise after the memo
# had converted it by np.asarray, advise made 45/77, joint_information 38/61
# and ml_estimate 15/22; an InfoMatrix now costs require_array's len(shape).
# While the guard of K built and sorted its own copy of the eigenvalues of
# I - rho^T rho, and placement copied rho's record into an SvdOfRho whose root
# checked for a nonzero singular value (one np.any call), advise made 45/78,
# joint_information 38/62, synergy_matrices 29/60, optimal_secondary 32/74 and a
# probe 21/34 on a miss. While optimal_secondary solved I - lambda (I - rho^T rho)
# for B~* and took the objective by a solve with I - rho^T rho, apart from the
# singular basis its root reads, it made 31/70. While ml_estimate solved its normal
# equations through derived_factor, with no InfoMatrix admission of the SNR matrix
# and x one observation only, it made 14/22. While the record of rho took a
# values-only SVD, and the joint information and the estimators' information
# matrix were admitted again as InfoMatrix inputs, advise made 45/77,
# joint_information 38/61, synergy_matrices 29/59 and ml_estimate 19/30. Before
# a stacked model's noise was looked up among the blocks of the last factored
# pair (matrixkit._pair_factor; none is alive here), ml_estimate made 18/30.
# While a linear model's memo was a 3- or 5-tuple, filled in two stages by
# noise_whitener and _whitened_model, with a writable key, ml_estimate made 19/30;
# the one record costs its constructor and the key's setflags. While one
# observation was estimated through the m x n gain J^-1 W^T L^-1 (_affine),
# ml_estimate made 18/31; it now whitens x through the record's factor
# (_whiten, also the whitening of A) and takes J^-1 and mu from _information.
CALL_PINS = {
    "advise": {"fusionkit": 44, "from_fusionkit": 74},
    "joint_information": {"fusionkit": 37, "from_fusionkit": 58},
    "synergy_matrices": {"fusionkit": 29, "from_fusionkit": 57},
    "optimal_secondary": {"fusionkit": 29, "from_fusionkit": 64},
    "ml_estimate": {"fusionkit": 20, "from_fusionkit": 35},
    "local_optimality_probe, slot miss": {"fusionkit": 21, "from_fusionkit": 33},
    "local_optimality_probe, slot hit": {"fusionkit": 11, "from_fusionkit": 20},
}


def probe_of_solution(q, hit):
    """A call of the probe of ``q``'s placement solution, probed once before.

    Placement's caches then hold the analysis of its rho with ``K`` and the first
    block's ``<z, K z>`` (a hit), or only the draws (a miss: as on a new rho).
    """
    A, rho, p = q[5]
    sol = optimal_secondary(A, rho, p)
    local_optimality_probe(A, rho, sol)
    if not hit:
        empty_placement_caches([placement._analysis_of])
    return lambda: local_optimality_probe(A, rho, sol)


@pytest.mark.parametrize("call", sorted(CALL_PINS))
def test_python_calls_pinned(call):
    asks = {
        "advise": lambda q: lambda: advise(q[0], q[1]),
        "joint_information": lambda q: lambda: joint_information(q[0], q[1]),
        "synergy_matrices": lambda q: lambda: synergy_matrices(q[0]),
        "optimal_secondary": lambda q: lambda: optimal_secondary(*q[5]),
        "ml_estimate": lambda q: lambda: ml_estimate(q[2], q[3], q[4]),
        "local_optimality_probe, slot miss": lambda q: probe_of_solution(q, hit=False),
        "local_optimality_probe, slot hit": lambda q: probe_of_solution(q, hit=True),
    }
    asks[call](small_question(1))()  # caches warm: the masks of the triangular inverse
    assert python_calls(asks[call](small_question(2))) == CALL_PINS[call]


def test_memoized_answers_equal_a_fresh_pair(rng):
    pair = random_pair(rng, 5, 4, 3)
    prior = GaussianPrior(mean=np.zeros(3), cov=random_pd(rng, 3))
    first = (joint_information(pair, prior).matrix, synergy_matrices(pair).S_y)
    again = (joint_information(pair, prior).matrix, synergy_matrices(pair).S_y)
    twin = ModalityPair(pair.first, pair.second, pair.noise)
    fresh = (joint_information(twin, prior).matrix, synergy_matrices(twin).S_y)
    for got, want, new in zip(first, again, fresh):
        assert np.array_equal(got, want) and np.array_equal(got, new)
    assert advise(pair, prior) == advise(twin, prior)


def test_failed_factorization_raises_on_every_call(rng, monkeypatch):
    noise = BlockCovariance(np.diag([1.0, -0.5]), np.eye(2), np.zeros((2, 2)))
    pair = ModalityPair(LinearModel(np.eye(2)), LinearModel(np.eye(2)), noise)
    for call in (joint_information, synergy_matrices, advise, joint_information):
        with pytest.raises(NotPD):
            call(pair)
    # a pair that fails only while a route is skewed succeeds once it is not
    whitened = information._whitened_fisher
    monkeypatch.setattr(
        information, "_whitened_fisher", lambda *a: whitened(*a) * (1.0 + 1e-6)
    )
    pair = random_pair(rng, 3, 2, 2)
    for _ in range(2):
        with pytest.raises(RouteDisagreement):
            joint_information(pair)
    monkeypatch.undo()
    assert joint_information(pair).matrix.shape == (2, 2)


def test_factorized_pair_is_freed_without_the_cycle_collector(rng):
    pair = random_pair(rng, 4, 3, 2)
    advise(pair)
    ref = weakref.ref(pair)
    gc.disable()
    try:
        del pair
        assert ref() is None
    finally:
        gc.enable()


def test_model_and_noise_arrays_are_read_only(rng):
    pair = random_pair(rng, 4, 3, 2)
    fac = PairFactorization.from_pair(pair)
    assert sorted(fac.routes) == ["block", "prewhitened", "schur_f", "schur_g"]
    for array in (pair.first.A, pair.second.A, pair.noise.sigma_v, pair.noise.sigma_u,
                  pair.noise.sigma_vu, pair.noise.sigma_uv, fac.snr_first, fac.S_x,
                  *fac.routes.values(), fac.whitened.rho):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0


def test_writing_to_the_inputs_changes_no_result(rng):
    A, B = rng.standard_normal((4, 2)), rng.standard_normal((3, 2))
    noise = random_joint_noise(rng, 4, 3)
    sigma_v, sigma_u, sigma_vu = (np.array(M) for M in (noise.sigma_v, noise.sigma_u,
                                                       noise.sigma_vu))
    kept = [M.copy() for M in (A, B, sigma_v, sigma_u, sigma_vu)]
    pair = ModalityPair(LinearModel(A), LinearModel(B), BlockCovariance(sigma_v, sigma_u, sigma_vu))
    for M in (A, B, sigma_v, sigma_u, sigma_vu):
        M *= 2.0
    twin = ModalityPair(LinearModel(kept[0]), LinearModel(kept[1]), BlockCovariance(*kept[2:]))
    assert np.array_equal(joint_information(pair).matrix, joint_information(twin).matrix)
    assert np.array_equal(synergy_matrices(pair).S_x, synergy_matrices(twin).S_x)


def test_contents_match_the_single_purpose_functions(rng):
    pair = random_pair(rng, 4, 3, 2)
    fac = PairFactorization.from_pair(pair)
    # the whitened pair is the products with the noise factors' whiteners
    L_v_inv, L_u_inv, W_v, *_ = factor_noise(pair.noise)
    rho = W_v @ L_u_inv.T
    for got, want in zip(
        (fac.whitened.A_tilde, fac.whitened.B_tilde, fac.whitened.rho),
        (L_v_inv @ pair.first.A, L_u_inv @ pair.second.A, rho),
    ):
        assert np.array_equal(got, want)
    # sigma_max(rho) is the root of the largest eigenvalue of rho^T rho, the
    # Gram matrix I - rho^T rho is built from, and a few eps from the SVD's
    assert fac.sigma_max_rho == float(np.sqrt(np.linalg.eigvalsh(rho.T @ rho)[-1]))
    svd_max = float(np.linalg.svd(rho, compute_uv=False)[0])
    assert abs(fac.sigma_max_rho - svd_max) <= 1e-14 * svd_max
    # snr_matrix and the factorization both take the Gram product of the
    # whitened A~ = L^-1 A, with L from the same Cholesky factor: one product
    assert np.array_equal(fac.snr_first, snr_matrix(pair.first, pair.noise.sigma_v).matrix)
    assert np.array_equal(fac.snr_second, snr_matrix(pair.second, pair.noise.sigma_u).matrix)
    # independent oracle: GLS information of the stacked model
    H = np.vstack([pair.first.A, pair.second.A])
    dense = H.T @ np.linalg.solve(pair.noise.joint(), H)
    for J in fac.routes.values():
        assert rel_fro(J, dense) <= 1e-10
    assert rel_fro(fac.S_x, dense - fac.snr_first) <= 1e-10
    assert rel_fro(fac.S_y, dense - fac.snr_second) <= 1e-10


def test_from_pair_symmetrizes_once(rng, monkeypatch):
    # the pair's matrices are Gram products of its whitened factors, or sums
    # of them; only the prewhitened route, formed by a solve, is symmetrized
    pair = random_pair(rng, 4, 3, 2)
    calls = []
    for module in (information, matrixkit):
        real = module.symmetrize
        monkeypatch.setattr(module, "symmetrize",
                            lambda M, _real=real: calls.append(M) or _real(M))
    PairFactorization.from_pair(pair)
    assert len(calls) == 1


@pytest.mark.parametrize("redundant", [False, True])
@pytest.mark.parametrize("shape", [(3, 2, 2), (40, 30, 10), (200, 150, 20)])
def test_held_matrices_are_exactly_symmetric(shape, redundant):
    pair = planted_pair(np.random.default_rng(sum(shape)), *shape, redundant)
    fac = PairFactorization.from_pair(pair)
    for M in (fac.snr_first, fac.snr_second, fac.S_x, fac.S_y, *fac.routes.values()):
        assert np.array_equal(M, M.T)


NOISE_FACTORS = ("L_v_inv", "L_u_inv", "W_v", "W_u", "L_F_inv", "L_G_inv")


@pytest.mark.parametrize("moved", range(len(NOISE_FACTORS)), ids=NOISE_FACTORS)
def test_a_fault_in_any_noise_factor_is_refused(monkeypatch, moved):
    # each factor feeds some routes and not others, so one moved by 1e-6
    # relative parts them; the pair's synergy is large, so a fault in a Schur
    # factor moves a route by far more than the tolerance
    pair = planted_pair(np.random.default_rng(7), 4, 3, 2)
    fac = PairFactorization.from_pair(pair)
    assert np.linalg.norm(fac.S_x) >= 0.1 * np.linalg.norm(fac.routes["prewhitened"])
    assert np.linalg.norm(fac.S_y) >= 0.1 * np.linalg.norm(fac.routes["prewhitened"])
    factor = information.factor_noise

    def perturbed(block):
        factors = list(factor(block))
        factors[moved] = factors[moved] * (1.0 + 1e-6)
        return tuple(factors)

    monkeypatch.setattr(information, "factor_noise", perturbed)
    with pytest.raises(RouteDisagreement):
        PairFactorization.from_pair(ModalityPair(pair.first, pair.second, pair.noise))


@pytest.mark.parametrize("redundant", [False, True])
def test_cholesky_basis_answers_match_the_symmetric_root_basis(redundant):
    # The factorization whitens with inverse Cholesky factors, prewhiten with
    # inverse symmetric roots: the two differ by an orthogonal Q per modality,
    # which changes no answer. The symmetric-basis answers are computed here
    # from prewhiten's pair, the residuals by the advisor's own rule.
    rng = np.random.default_rng(45 + redundant)
    for n1, n2, m in ((4, 3, 2), (12, 9, 4), (40, 30, 10)):
        pair = planted_pair(rng, n1, n2, m, redundant)
        fac = PairFactorization.from_pair(pair)
        wp = prewhiten(pair)
        J = information._whitened_fisher(wp.A_tilde, wp.B_tilde, wp.rho, wp._cross.solve_k)
        S_x = J - wp.A_tilde.T @ wp.A_tilde
        S_y = J - wp.B_tilde.T @ wp.B_tilde
        s_chol, s_sym = fac.whitened.rho_singular_values, wp.rho_singular_values
        assert np.linalg.norm(s_chol - s_sym) <= 1e-12 * np.linalg.norm(s_sym)
        assert rel_fro(fac.routes["prewhitened"], J) <= 1e-12
        for got, want in ((fac.S_x, S_x), (fac.S_y, S_y)):
            # a synergy matrix is the difference J - snr, measured against J
            # (a redundant pair's S_x is zero up to rounding)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(J)
        symmetric = advisor._redundancy(
            dataclasses.replace(fac, whitened=wp, routes={"prewhitened": J}, S_x=S_x, S_y=S_y),
            AdvisorTolerances().redundancy,
        )
        evidence = advise(pair).evidence
        # the residuals are normalized by the norms of the whitened matrices,
        # so an absolute difference is relative to those norms; a redundant
        # pair's r2 and synergy residual are rounding noise in either basis
        assert abs(evidence["r1"] - symmetric.r1) <= 1e-12 * max(1.0, symmetric.r1)
        assert abs(evidence["r2"] - symmetric.r2) <= 1e-12 * max(1.0, symmetric.r2)
        assert ("synergy_residual" in evidence) is redundant
        if redundant:
            assert abs(evidence["synergy_residual"] - symmetric.synergy_residual) <= 1e-12


def test_place_takes_one_eigen_solve_per_marginal(monkeypatch, tmp_path):
    # the printed basis: prewhiten's eigen-solves give both inverse roots and
    # the root of sigma_u that un-whitens B_star; the Gaussian prior takes a
    # Cholesky factor
    rng = np.random.default_rng(46)
    noise = random_joint_noise(rng, 3, 2)
    doc = {
        "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
        "modalities": [
            {"name": "a", "A": rng.standard_normal((3, 2)).tolist(),
             "noise_cov": noise.sigma_v.tolist()},
            {"name": "b", "A": rng.standard_normal((2, 2)).tolist(),
             "noise_cov": noise.sigma_u.tolist()},
        ],
        "cross_cov": {"pair": [0, 1], "matrix": noise.sigma_vu.tolist()},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    argv = ["place", str(path), "--primary", "a", "--budget", "5", "--out", str(tmp_path / "r")]
    counts = lapack_calls(monkeypatch, lambda: main(argv))
    assert counts["numpy.linalg.eigh"] == 2


@pytest.mark.parametrize("log_cond", [0.0, 4.0, 8.0, 11.5])
def test_whitening_products_match_solves_against_the_roots(log_cond):
    # A~, B~ and rho are products with prewhiten's inverse symmetric roots;
    # an LU solve with the root gives each of them to within the rounding
    # that whitening a condition-kappa marginal allows
    rng = np.random.default_rng(int(10 * log_cond) + 1)
    kappa = 10.0**log_cond
    for _ in range(3):
        blocks, roots = [], []
        for n in (12, 9):
            Q = random_orthogonal(rng, n)
            w = 10.0 ** rng.uniform(-log_cond, 0.0, size=n)
            w[0], w[-1] = 1.0 / kappa, 1.0
            blocks.append(symmetrize((Q * w) @ Q.T))
            roots.append(symmetrize((Q * np.sqrt(w)) @ Q.T))
        R = rng.standard_normal((12, 9))
        R *= 0.5 / np.linalg.norm(R, 2)
        pair = ModalityPair(LinearModel(rng.standard_normal((12, 4))),
                            LinearModel(rng.standard_normal((9, 4))),
                            BlockCovariance(*blocks, roots[0] @ R @ roots[1]))
        wp = prewhiten(pair)
        L_v, L_u = symmetric_root(pair.noise.sigma_v), symmetric_root(pair.noise.sigma_u)
        solved = (np.linalg.solve(L_v, pair.first.A), np.linalg.solve(L_u, pair.second.A),
                  np.linalg.solve(L_v, np.linalg.solve(L_u, pair.noise.sigma_uv).T))
        for got, want in zip((wp.A_tilde, wp.B_tilde, wp.rho), solved):
            assert rel_fro(got, want) <= 100.0 * kappa * np.finfo(float).eps


def test_not_pd_marginal_raises_not_pd(rng):
    noise = BlockCovariance(np.diag([1.0, -0.5]), np.eye(2), np.zeros((2, 2)))
    pair = ModalityPair(LinearModel(np.eye(2)), LinearModel(np.eye(2)), noise)
    with pytest.raises(NotPD):
        PairFactorization.from_pair(pair)


def test_ill_conditioned_marginal_raises_singular():
    noise = BlockCovariance(np.diag([1.0, 1e-13]), np.eye(2), np.zeros((2, 2)))
    pair = ModalityPair(LinearModel(np.eye(2)), LinearModel(np.eye(2)), noise)
    with pytest.raises(Singular, match="sigma_v is numerically singular"):
        joint_information(pair)


def test_collapsing_schur_complement_raises_singular():
    noise = BlockCovariance(np.eye(1), np.eye(1), [[1.0 - 1e-14]])
    pair = ModalityPair(LinearModel([[1.0]]), LinearModel([[2.0]]), noise)
    with pytest.raises(Singular, match="Schur complement"):
        synergy_matrices(pair)


# The Schur guard's paths at n = 8, against the parent block I (largest
# eigenvalue 1, Frobenius norm sqrt(8)): the smallest eigenvalue planted in
# the complement S, the refusal, and the eigvalsh calls (one of S, one of the
# parent for its largest eigenvalue). Each path takes one Cholesky, and one
# triangular inverse where that succeeds; while a refusal by the Frobenius
# scale was re-decided by a second factorization against lambda_max, the
# second and third paths took two and three eigvalsh.
SCHUR_PATHS = {
    "certified by the bound": (1e-2, None, 0),
    "refused by condition": (10.0**-12.5, Singular, 2),
    "admitted only by lambda_max of the parent": (10.0**-11.8, None, 2),
    "not PD beyond rounding": (-1e-6, NotPD, 2),
    "collapsed to rounding": (-1e-12, Singular, 2),
}


@pytest.mark.parametrize("path", list(SCHUR_PATHS))
def test_schur_guard_work_per_path(monkeypatch, path):
    low, refusal, eigvalsh = SCHUR_PATHS[path]
    rng = np.random.default_rng(8)
    w = np.geomspace(1e-2, 0.5, 8)
    w[0] = low
    Q = random_orthogonal(rng, 8)
    S, parent = symmetrize((Q * w) @ Q.T), np.eye(8)
    outcome = []

    def guard():
        try:
            outcome.append(matrixkit._schur_factor(S, parent, "Schur complement")[1])
        except (NotPD, Singular) as exc:
            outcome.append(exc)

    expected = {"numpy.linalg.cholesky": 1, "numpy.linalg.inv": int(low > 0.0),
                "numpy.linalg.eigvalsh": eigvalsh}
    assert lapack_calls(monkeypatch, guard) == {k: v for k, v in expected.items() if v}
    got, lo = outcome[0], float(np.linalg.eigvalsh(S)[0])
    if refusal is None:
        assert rel_fro(got.T @ got, np.linalg.inv(S)) <= 1e-13 * float(w[-1] / lo)
    elif refusal is NotPD:
        assert type(got) is NotPD and got.min_eigenvalue == lo
        assert str(got).startswith("joint noise covariance is not PD (Schur complement")
    else:
        assert type(got) is Singular
        assert got.condition == (1.0 / lo if lo > 0.0 else np.inf)


@pytest.mark.parametrize("c, refusal", [(1.01, NotPD), (1.5, NotPD), (2.0, NotPD),
                                        (1.0, Singular), (1.0 + 1e-14, Singular)])
def test_indefinite_joint_noise_raises_not_pd(c, refusal):
    # sigma_v = sigma_u = I and sigma_vu = c I: the joint eigenvalues are 1 +- c
    # and the Schur complement is (1 - c^2) I, indefinite beyond rounding for
    # c > 1, zero at c = 1 and a rounding-level negative just above it
    noise = BlockCovariance(np.eye(3), np.eye(3), c * np.eye(3))
    A = np.eye(3, 2)
    pair = ModalityPair(LinearModel(A), LinearModel(A), noise)
    h, prior = NonlinearModel.linear(A), GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
    for call in (lambda: joint_information(pair), lambda: advise(pair), lambda: prewhiten(pair),
                 lambda: joint_information_nonlinear(h, h, noise, prior, 100, 0)):
        with pytest.raises(refusal) as exc:
            call()
        if refusal is NotPD:
            assert "joint noise covariance is not PD" in str(exc.value)
            assert exc.value.min_eigenvalue == pytest.approx(1.0 - c * c)
        else:
            assert exc.value.condition == np.inf


def test_route_disagreement_raises(rng, monkeypatch):
    whitened = information._whitened_fisher
    monkeypatch.setattr(
        information, "_whitened_fisher", lambda *a: whitened(*a) * (1.0 + 1e-6)
    )
    # built after the patch, so no memoized factorization can bypass it
    pair = random_pair(rng, 3, 2, 2)
    with pytest.raises(RouteDisagreement) as exc:
        joint_information(pair)
    assert exc.value.max_relative_error >= 1e-8


@pytest.mark.parametrize("skew, refused", [(0.9e-8, False), (1.1e-8, True)])
def test_route_check_boundary(rng, monkeypatch, skew, refused):
    # the prewhitened route moved by a relative skew: the routes' distance,
    # on the largest route's norm, is skew / (1 + skew) plus rounding
    whitened = information._whitened_fisher
    monkeypatch.setattr(
        information, "_whitened_fisher", lambda *a: whitened(*a) * (1.0 + skew)
    )
    pair = random_pair(rng, 3, 2, 2)
    if refused:
        with pytest.raises(RouteDisagreement, match="joint-information routes") as exc:
            joint_information(pair)
        error = exc.value.max_relative_error
    else:
        joint_information(pair)
        error = PairFactorization.from_pair(pair).route_error
    assert error == pytest.approx(skew, rel=1e-6)


def test_synergy_cross_check_raises_on_its_own(rng, monkeypatch):
    # a real fault in the synergy matrices' inputs: L_F^-1 scaled by
    # sqrt(1.001), so F = L_F^-T L_F^-1 by 1.001. J_block is snr1 + M_f F M_f^T
    # for any F, so S_x still agrees with it and S_y, built on L_G^-1, is off
    # by 0.001 * S_x. The route check is declared passed, so only the synergy
    # comparison, of the matrices it really compares and on its own scale,
    # can fire
    pair = random_pair(rng, 3, 2, 2)
    fac = PairFactorization.from_pair(pair)
    J_moved = fac.snr_first + 1.001 * fac.S_x
    expected = 1e-3 * np.linalg.norm(fac.S_x) / (1.0 + np.linalg.norm(J_moved))
    factor, check = information.factor_noise, information.require_agreement

    def perturbed(block):
        *factors, L_F_inv, L_G_inv = factor(block)
        return (*factors, np.sqrt(1.001) * L_F_inv, L_G_inv)

    def routes_pass(first, second, scale, what, error, condition=1.0):
        if what == "joint-information routes":
            return 0.0
        return check(first, second, scale, what, error, condition)

    monkeypatch.setattr(information, "factor_noise", perturbed)
    monkeypatch.setattr(information, "require_agreement", routes_pass)
    with pytest.raises(RouteDisagreement, match="synergy") as exc:
        synergy_matrices(ModalityPair(pair.first, pair.second, pair.noise))
    assert exc.value.max_relative_error == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("skew, refused", [(0.9e-8, False), (1.1e-8, True)])
def test_synergy_check_boundary(rng, monkeypatch, skew, refused):
    plant_disagreement(monkeypatch, information, SYNERGY_CHECK, skew)
    pair = random_pair(rng, 3, 2, 2)
    if refused:
        with pytest.raises(RouteDisagreement, match="synergy") as exc:
            synergy_matrices(pair)
        assert exc.value.max_relative_error == pytest.approx(skew, rel=1e-6)
    else:
        assert synergy_matrices(pair).S_x.shape == (2, 2)


def test_optimal_secondary_takes_one_svd(monkeypatch):
    # one SVD per bit-equal rho: the analysis of rho feeds the admissibility
    # check, the root, the objective, the stationarity check and the probe's
    # guard of K, so a budget sweep on one pair takes one
    rng = np.random.default_rng(41)
    A = rng.standard_normal((40, 10))
    rho = random_admissible_rho(rng, 40, 30, 0.8)
    solved = []
    solve_only = lapack_calls(monkeypatch, lambda: solved.append(optimal_secondary(A, rho, 50.0)))
    # B~* and the objective are read off the singular basis of rho: the two
    # solves are the stationarity check's, one with I - rho^T rho and one with
    # I - rho rho^T (4 while B~* and the objective took a solve each)
    assert solve_only == {"numpy.linalg.svd": 1, "numpy.linalg.solve": 2}
    # the probe of that solution takes K = (I - rho^T rho)^-1 in one solve
    # and makes no LAPACK call per perturbation, in one block or in several
    for n in (200, 3 * placement.PROBE_BLOCK + 1):
        probe = lapack_calls(monkeypatch, lambda: local_optimality_probe(A, rho, solved[0], n))
        assert probe == ({"numpy.linalg.solve": 1} if n == 200 else {})
    # a second budget and its probe: no SVD and no solve for K, only the
    # stationarity check's two (4 while the closed form and the objective were solves)
    assert lapack_calls(
        monkeypatch, lambda: local_optimality_probe(A, rho, optimal_secondary(A, rho, 80.0))
    ) == {"numpy.linalg.solve": 2}


@pytest.mark.parametrize("entry", ["synergy_objective", "synergy_gradient_rho"])
def test_whitened_joint_information_takes_one_svd(monkeypatch, entry):
    # placement's record of rho takes it apart once, by a full SVD, for the
    # guard of K and K'; the nonlinear joint information's record, one eigvalsh
    # of rho^T rho, is pinned with its other calls in
    # test_nonlinear_whitening_takes_no_solve_per_block
    rng = np.random.default_rng(47)
    A, B = rng.standard_normal((40, 10)), rng.standard_normal((30, 10))
    rho = random_admissible_rho(rng, 40, 30, 0.8)
    counts = lapack_calls(monkeypatch, lambda: getattr(placement, entry)(A, B, rho))
    assert counts["numpy.linalg.svd"] == 1


def test_estimators_whiten_with_the_cholesky_factor(monkeypatch):
    # the noise guard is certified from the factor: no eigen-solve of the noise
    rng = np.random.default_rng(43)
    model, sigma = LinearModel(rng.standard_normal((350, 20))), random_pd(rng, 350)
    prior = GaussianPrior(mean=np.zeros(20), cov=random_pd(rng, 20))
    x = rng.standard_normal(350)
    # on a fresh model, the noise factor (350 rows inverted in blocks of
    # 43-44) and, for the normal matrix and the posterior information
    # alike, one guarded Cholesky inverse of 20 rows that gives s_hat and
    # error_cov
    fresh = {"numpy.linalg.cholesky": 1 + 1, "numpy.linalg.inv": 8 + 1}
    assert lapack_calls(monkeypatch, lambda: ml_estimate(model, sigma, x)) == fresh
    # the same noise on the same model: the memoized factor, and only the
    # 20-row posterior information is factored
    assert lapack_calls(
        monkeypatch, lambda: mmse_gaussian_estimate(model, sigma, prior, x)
    ) == {"numpy.linalg.cholesky": 1, "numpy.linalg.inv": 1}
    twin = LinearModel(model.A)
    assert lapack_calls(
        monkeypatch, lambda: mmse_gaussian_estimate(twin, sigma, prior, x)
    ) == fresh


def stacked_ml(pair, sigma=None, seed=0):
    """A call of ML on a new stacked model of ``pair``, under its joint noise or ``sigma``."""
    H = np.vstack((pair.first.A, pair.second.A))
    sigma = pair.noise.joint() if sigma is None else sigma
    x = np.random.default_rng(seed).standard_normal(len(H))
    return lambda: ml_estimate(LinearModel(H), sigma, x)


# ML on the stacked (40,30,10) model: the 70-row joint noise factored afresh
# (inverted in two blocks of 35) and the 10-row normal matrix's guarded inverse;
# or, read off the factored pair's blocks, the latter alone
FRESH_STACKED = {"numpy.linalg.cholesky": 2, "numpy.linalg.inv": 3}
REUSED_STACKED = {"numpy.linalg.cholesky": 1, "numpy.linalg.inv": 1}


def test_a_factored_pair_gives_its_stacked_model_the_noise_factor(monkeypatch):
    pair = planted_pair(np.random.default_rng(44), 40, 30, 10)
    ml = stacked_ml(pair)
    assert lapack_calls(monkeypatch, ml) == FRESH_STACKED
    joint_information(pair)
    assert lapack_calls(monkeypatch, ml) == REUSED_STACKED
    assert noise_factorizations(monkeypatch, ml, 70) == 0
    # the record keeps the pair's blocks as its factor, the arrays themselves
    white = matrixkit.noise_whitener(LinearModel(np.ones((70, 1))), pair.noise.joint())
    assert len(white.factor) == 5
    assert all(mine is theirs for mine, theirs in zip(white.factor, pair.noise._factors))
    L, L_inv = white.L, white.L_inv  # assembled on this first read
    assert rel_fro(L @ L.T, pair.noise.joint()) <= 1e-15
    assert rel_fro(L_inv @ L, np.eye(70)) <= 1e-14
    assert np.array_equal(L, np.tril(L)) and np.array_equal(L_inv, np.tril(L_inv))
    assert white.L is L and white.L_inv is L_inv  # and kept


def entrywise_factor(noise):
    """The joint's ``(L, L^-1)`` assembled off a factored noise's blocks, entry by entry."""
    L_v, L_v_inv, W_v, L_F, L_F_inv, *_ = noise._factors
    n1, n = noise.n1, noise.n1 + noise.n2
    L, L_inv = np.zeros((n, n)), np.zeros((n, n))
    L[:n1, :n1], L[n1:, :n1], L[n1:, n1:] = L_v, W_v.T, L_F
    L_inv[:n1, :n1], L_inv[n1:, n1:] = L_v_inv, L_F_inv
    L_inv[n1:, :n1] = -L_F_inv @ (W_v.T @ L_v_inv)
    return L, L_inv


def test_estimates_off_a_factored_pair_form_no_joint_factor_inverse_or_gain(monkeypatch):
    # one observation by ML then MMSE on the stacked (200,150,20) model: no 350-row
    # Cholesky, no 350-square L or L^-1 and no m x n gain; the memo's key, a copy
    # of sigma, is the one 350-square float array, so the peak of traced
    # allocations stays below two of them
    pair = planted_pair(np.random.default_rng(47), 200, 150, 20)
    prior = GaussianPrior(mean=np.zeros(20), cov=np.eye(20))
    joint_information(pair)
    model, sigma = LinearModel(np.vstack((pair.first.A, pair.second.A))), pair.noise.joint()
    x = np.random.default_rng(0).standard_normal(350)
    gains = []
    monkeypatch.setattr(estimators, "_affine", lambda *args: gains.append(args))

    def both():
        tracemalloc.start()
        try:
            ml_estimate(model, sigma, x)
            mmse_gaussian_estimate(model, sigma, prior, x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = []
    assert sized_calls(monkeypatch, lambda: peaks.append(both()))["cholesky", 350] == 0
    assert gains == [] and peaks[0] < 2 * 350 * 350 * 8
    assert "L" not in vars(model._whitener) and "L_inv" not in vars(model._whitener)


def test_simulate_and_the_campaign_read_the_pair_factor_assembled_as_before():
    # after ML then MMSE have left the record with the pair's blocks only, simulate
    # draws through L and the campaign applies J^-1 W^T L^-1 with the L and L^-1
    # that assembling the blocks entry by entry gives, bit for bit
    pair = planted_pair(np.random.default_rng(48), 5, 4, 3)
    prior = GaussianPrior(mean=np.ones(3), cov=np.eye(3))
    joint_information(pair)
    model, sigma = LinearModel(np.vstack((pair.first.A, pair.second.A))), pair.noise.joint()
    ml_estimate(model, sigma, np.ones(9))
    mmse_gaussian_estimate(model, sigma, prior, np.ones(9))
    white = model._whitener
    assert len(white.factor) == 5 and not {"L", "L_inv"} & set(vars(white))
    L, L_inv = entrywise_factor(pair.noise)
    batch = simulate(model, prior, 50, 7, noise=sigma)
    sources, noise_rows = draw_rows(prior, L, 50, draw_streams(7))
    assert np.array_equal(batch.observations, sources @ model.A.T + noise_rows)
    assert np.array_equal(white.L, L) and "L_inv" not in vars(white)
    for method in ("ml", "mmse"):
        empirical_error_covariance(method, model, prior, sigma, N=1000, seed=3)
        assert model._whitener is white and np.array_equal(white.L_inv, L_inv)
    gain, _, ref = estimators._affine(model, white, prior)
    assert np.array_equal(gain, ref @ white.W.T @ L_inv)


def test_the_block_certificate_is_the_assembled_one():
    # ||S||_F (||L_F^-1||_F^2 + ||L_G^-1||_F^2) is ||S||_F ||L^-1||_F^2 of the assembled
    # L^-1: tr(S^-1) = tr(F^-1) + tr(G^-1)
    for n1, n2, seed in ((3, 2, 49), (40, 30, 50), (200, 150, 51)):
        pair = planted_pair(np.random.default_rng(seed), n1, n2, 2)  # sigma_max(rho) = 0.8
        factor_noise(pair.noise)
        S, (_, L_inv) = pair.noise.joint(), entrywise_factor(pair.noise)
        L_F_inv, L_G_inv = pair.noise._factors[4:6]
        block = np.linalg.norm(S) * (np.vdot(L_F_inv, L_F_inv) + np.vdot(L_G_inv, L_G_inv))
        assembled = np.linalg.norm(S) * np.vdot(L_inv, L_inv)
        assert abs(block - assembled) <= 1e-12 * assembled


@pytest.mark.parametrize("change", ["last bit", "-0.0 above", "-0.0 below"])
def test_a_joint_not_bit_equal_to_the_pair_is_factored_afresh(monkeypatch, change):
    rng = np.random.default_rng(45)
    noise = BlockCovariance(random_pd(rng, 40), random_pd(rng, 30), np.zeros((40, 30)))
    pair = ModalityPair(LinearModel(rng.standard_normal((40, 10))),
                        LinearModel(rng.standard_normal((30, 10))), noise)
    joint_information(pair)
    sigma = noise.joint()
    if change == "last bit":
        sigma[45, 45] = np.nextafter(sigma[45, 45], np.inf)
    else:  # equal as floats, so admitted as it is, but not bit for bit
        sigma[(slice(40), slice(40, None)) if change == "-0.0 above" else
              (slice(40, None), slice(40))] = -0.0
    assert lapack_calls(monkeypatch, stacked_ml(pair, sigma)) == FRESH_STACKED
    assert lapack_calls(monkeypatch, stacked_ml(pair)) == REUSED_STACKED


def test_a_freed_pair_leaves_its_stacked_model_to_the_fresh_factor(monkeypatch):
    pair = planted_pair(np.random.default_rng(46), 40, 30, 10)
    joint_information(pair)
    ml, noise = stacked_ml(pair), weakref.ref(pair.noise)
    del pair
    gc.collect()
    assert noise() is None
    assert lapack_calls(monkeypatch, ml) == FRESH_STACKED


def test_threads_factoring_pairs_each_read_their_own_pair_factor():
    # the last factored noise is one process-wide slot: a thread whose pair was
    # replaced there between its factorization and its estimate must factor
    # afresh, never read another pair's blocks
    pairs = [planted_pair(np.random.default_rng(60 + k), 5, 4, 2) for k in range(8)]
    want = [stacked_ml(pair)().s_hat for pair in pairs]  # none factored yet
    errors = []

    def work(k):
        pair = pairs[k]
        try:
            for _ in range(25):
                PairFactorization.from_pair(ModalityPair(pair.first, pair.second, pair.noise))
                got = stacked_ml(pair)().s_hat
                if np.linalg.norm(got - want[k]) > 1e-12 * np.linalg.norm(want[k]):
                    errors.append((k, got))
        except Exception as exc:  # a thread's failure is the test's
            errors.append((k, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


@pytest.mark.parametrize("gap", [3e-12, 1e-12])
def test_an_uncertified_assembled_factor_gives_the_fresh_answer(monkeypatch, gap):
    # rho = 1 - gap: the pair factors (its Schur complement's condition is about
    # 1 / (2 gap)), but the joint's bound is about 2 / gap, above the certificate,
    # so the stacked model is factored afresh: its condition 6.7e11 passes the
    # eigenvalue guard and 2e12 is refused
    pair = ModalityPair(LinearModel([[1.0]]), LinearModel([[0.5]]),
                        BlockCovariance([[1.0]], [[1.0]], [[1.0 - gap]]))

    def outcome():
        try:
            est = stacked_ml(pair)()
        except Singular as exc:
            return type(exc), str(exc), exc.condition
        return est.s_hat.tobytes(), est.error_cov.tobytes()

    fresh = outcome()
    factor_noise(pair.noise)
    got = []
    calls = lapack_calls(monkeypatch, lambda: got.append(outcome()))
    assert got == [fresh] and (fresh[0] is Singular) == (gap == 1e-12)
    assert calls["numpy.linalg.eigvalsh"] == 1  # the joint's, on the fresh path only


def single_modality(rng, n=6, m=3):
    model, sigma = LinearModel(rng.standard_normal((n, m))), random_pd(rng, n)
    prior = GaussianPrior(mean=rng.standard_normal(m), cov=random_pd(rng, m))
    return model, sigma, prior, rng.standard_normal(n)


def single_answers(model_of, sigma, prior, x):
    """ML, MMSE, SNR and campaign results, each on ``model_of()``, as arrays."""
    ml = ml_estimate(model_of(), sigma, x)
    mmse = mmse_gaussian_estimate(model_of(), sigma, prior, x)
    campaigns = [empirical_error_covariance(method, model_of(), prior, sigma, N=1000, seed=3)
                 for method in ("ml", "mmse")]
    return [ml.s_hat, ml.error_cov, mmse.s_hat, mmse.error_cov,
            snr_matrix(model_of(), sigma).matrix, crlb(snr_matrix(model_of(), sigma)),
            *(c.empirical_error_cov for c in campaigns),
            *(c.theoretical_ref for c in campaigns)]


def sized_calls(monkeypatch, fn, names=("cholesky",)):
    """Calls of the named ``numpy.linalg`` functions while ``fn`` runs, by (name, rows)."""
    sizes = collections.Counter()
    for name in names:
        def counted(M, *rest, _f=getattr(np.linalg, name), _n=name):
            sizes[_n, np.shape(M)[0]] += 1
            return _f(M, *rest)

        monkeypatch.setattr(np.linalg, name, counted)
    fn()
    monkeypatch.undo()
    return sizes


def noise_factorizations(monkeypatch, fn, n):
    """Cholesky factorizations of an ``n``-row matrix while ``fn`` runs."""
    return sized_calls(monkeypatch, fn)["cholesky", n]


@pytest.mark.parametrize("method", ["ml", "mmse"])
def test_campaign_factors_its_noise_and_inverts_its_information_once(rng, monkeypatch, method):
    # the noise draws go through the whitener's Cholesky factor, so the
    # 6-row noise takes one factorization and no eigen-solve; the dominance
    # check reads the campaign's reference, crlb(J), so the 3-row J takes
    # one guarded Cholesky inverse; both methods apply the information form
    # J^-1 A^T Sigma^-1, so neither takes an LU solve
    model, sigma, prior, _ = single_modality(rng)
    calls = sized_calls(
        monkeypatch,
        lambda: empirical_error_covariance(method, model, prior, sigma, N=1000, seed=3),
        ("cholesky", "inv", "eigh", "solve"))
    assert calls == {("cholesky", 6): 1, ("inv", 6): 1, ("cholesky", 3): 1, ("inv", 3): 1}


def test_gaussian_prior_takes_one_cholesky_factor(rng, monkeypatch):
    # the sampling root and the information come from one factorization
    cov = random_pd(rng, 4)
    counts = lapack_calls(monkeypatch, lambda: GaussianPrior(mean=np.zeros(4), cov=cov))
    assert counts == {"numpy.linalg.cholesky": 1, "numpy.linalg.inv": 1}


def test_memoized_whitener_answers_equal_a_fresh_model(rng, monkeypatch):
    # the six calls on one model factor its 6-row noise once (the sources
    # and the posterior are 3-row); a list with the same bits is no float64
    # array, so each call admits it first and factors it, with the same answers
    model, sigma, prior, x = single_modality(rng)
    one = lambda: model  # noqa: E731
    assert noise_factorizations(monkeypatch, lambda: single_answers(one, sigma, prior, x), 6) == 1
    assert noise_factorizations(
        monkeypatch, lambda: single_answers(one, sigma.tolist(), prior, x), 6) == 6
    for got, want in zip(single_answers(one, sigma.tolist(), prior, x),
                         single_answers(one, sigma, prior, x)):
        assert np.array_equal(got, want)
    memo = single_answers(one, sigma, prior, x)
    fresh = single_answers(lambda: LinearModel(model.A), sigma, prior, x)
    for got, want in zip(memo, fresh):
        assert np.array_equal(got, want)


def test_a_nonlinear_model_factors_its_noise_once_per_call(rng, monkeypatch):
    # a nonlinear model keeps no memo: each call admits and factors its 6-row
    # noise once, with the answers of a fresh model
    model, sigma, prior, _ = single_modality(rng)
    h = NonlinearModel.linear(model.A)
    call = lambda: fisher_nonlinear(h, sigma, prior, N=64, seed=5).J  # noqa: E731
    assert [noise_factorizations(monkeypatch, call, 6) for _ in range(2)] == [1, 1]
    assert not hasattr(h, "_whitener")
    new = fisher_nonlinear(NonlinearModel.linear(model.A), sigma, prior, N=64, seed=5).J
    assert np.array_equal(call(), new) and np.array_equal(call(), new)


class CountedProducts(np.ndarray):
    """A mixing matrix that counts the products ``M @ A`` taken with it on the right.

    Every product with it is a plain array, so the answers are those of the
    plain matrix, bit for bit.
    """

    products = 0

    def __rmatmul__(self, other):
        CountedProducts.products += 1
        return other @ self.view(np.ndarray)

    def __matmul__(self, other):
        return self.view(np.ndarray) @ other


def test_ml_mmse_and_snr_on_one_noise_whiten_the_model_once(rng):
    # the memo keeps W = L^-1 A and W^T W beside the noise factor: ML, then
    # MMSE, then the SNR matrix on one (model, sigma) form L^-1 A once
    model, sigma, prior, x = single_modality(rng)

    def answers(model_of, noise):
        ml = ml_estimate(model_of(), noise, x)
        mmse = mmse_gaussian_estimate(model_of(), noise, prior, x)
        return [ml.s_hat, ml.error_cov, mmse.s_hat, mmse.error_cov,
                snr_matrix(model_of(), noise).matrix]

    counted = LinearModel(model.A)
    object.__setattr__(counted, "A", counted.A.view(CountedProducts))
    CountedProducts.products = 0
    got = answers(lambda: counted, sigma)
    assert CountedProducts.products == 1
    for have, want in zip(got, answers(lambda: LinearModel(model.A), sigma)):
        assert np.array_equal(have, want)
    # a noise with other bits forms it again, once
    other = sigma.copy()
    other[0, 0] = np.nextafter(other[0, 0], np.inf)
    got = answers(lambda: counted, other)
    assert CountedProducts.products == 2
    for have, want in zip(got, answers(lambda: LinearModel(model.A), other)):
        assert np.array_equal(have, want)


def test_writing_to_sigma_between_calls_gives_the_fresh_answer(rng):
    model, sigma, prior, x = single_modality(rng)
    before = ml_estimate(model, sigma, x).s_hat
    sigma[0, 0] *= 2.0
    after = ml_estimate(model, sigma, x)
    fresh = ml_estimate(LinearModel(model.A), sigma, x)
    assert not np.array_equal(after.s_hat, before)
    assert np.array_equal(after.s_hat, fresh.s_hat)
    assert np.array_equal(after.error_cov, fresh.error_cov)
    assert np.array_equal(snr_matrix(model, sigma).matrix,
                          snr_matrix(LinearModel(model.A), sigma).matrix)


def test_refused_sigma_raises_on_every_call(rng, monkeypatch):
    model, sigma, prior, x = single_modality(rng)
    kept = ml_estimate(model, sigma, x)
    indefinite = sigma.copy()
    indefinite[0, 0] = -1.0
    for call in (lambda: ml_estimate(model, indefinite, x),
                 lambda: mmse_gaussian_estimate(model, indefinite, prior, x),
                 lambda: snr_matrix(model, indefinite)):
        with pytest.raises(NotPD):
            call()
    # the refusals left the admitted noise and its factor in place
    again = lambda: ml_estimate(model, sigma, x)  # noqa: E731
    assert noise_factorizations(monkeypatch, again, 6) == 0
    assert np.array_equal(again().s_hat, kept.s_hat)


def test_a_different_sigma_replaces_the_slot(rng, monkeypatch):
    model, sigma, prior, x = single_modality(rng)
    other = random_pd(rng, 6)
    # equal as numbers, not as bits: -0.0 is a different noise to the memo
    zero = np.diag(np.arange(1.0, 7.0))
    signed = zero.copy()
    signed[0, 1] = signed[1, 0] = -0.0
    for noise, factored in ((sigma, 1), (sigma, 0), (other, 1), (other, 0), (sigma, 1),
                            (zero, 1), (signed, 1), (signed, 0)):
        call = lambda: ml_estimate(model, noise, x)  # noqa: E731
        assert noise_factorizations(monkeypatch, call, 6) == factored
        fresh = ml_estimate(LinearModel(model.A), noise, x)
        assert np.array_equal(call().s_hat, fresh.s_hat)
        assert np.array_equal(call().error_cov, fresh.error_cov)
    # the memo is one record of read-only parts, the key among them; a fresh
    # factor is (L, L^-1), which the record reads as they are
    white = model._whitener
    assert [f.name for f in dataclasses.fields(white)] == ["key", "W", "snr", "factor"]
    assert white.L is white.factor[0] and white.L_inv is white.factor[1]
    for part in (white.key, white.W, white.snr, *white.factor):
        with pytest.raises(ValueError, match="read-only"):
            part[0, 0] = 1.0


def test_the_snr_matrix_is_the_records_after_an_ml_call(rng):
    model, sigma, prior, x = single_modality(rng)
    ml_estimate(model, sigma, x)
    white = model._whitener
    assert snr_matrix(model, sigma).matrix is white.snr
    assert model._whitener is white  # a hit returns the record, not a new one


def ill_conditioned_marginal_pair():
    noise = BlockCovariance(np.diag([1.0, 1e-13]), np.eye(2), [[0.1, 0.0], [0.0, 0.0]])
    return ModalityPair(LinearModel(np.eye(2)), LinearModel(np.eye(2)), noise)


def test_every_whitening_applies_the_marginal_guard():
    pair = ill_conditioned_marginal_pair()
    with pytest.raises(Singular, match="sigma_v is numerically singular"):
        prewhiten(pair)
    h, g = NonlinearModel.linear(pair.first.A), NonlinearModel.linear(pair.second.A)
    prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
    with pytest.raises(Singular, match="sigma_v is numerically singular"):
        joint_information_nonlinear(h, g, pair.noise, prior, N=10, seed=0)


def test_prewhiten_reads_the_decisions_of_a_factored_pair(monkeypatch):
    # a noise whose four decisions passed keeps its factors: prewhiten then takes
    # its two eigen-solves and no Cholesky factorization, with the answers of a
    # never-factored noise; a refused noise keeps none and is refused every call
    pair = planted_pair(np.random.default_rng(52), 40, 30, 10)
    joint_information(pair)
    calls = lapack_calls(monkeypatch, lambda: prewhiten(pair))
    assert calls == {"numpy.linalg.eigh": 2}
    noise = pair.noise
    twin = BlockCovariance(noise.sigma_v, noise.sigma_u, noise.sigma_vu)
    want = prewhiten(ModalityPair(pair.first, pair.second, twin))
    got = prewhiten(pair)
    for name in ("A_tilde", "B_tilde", "rho"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    bad = ill_conditioned_marginal_pair()
    for call in (joint_information, prewhiten, prewhiten):
        with pytest.raises(Singular, match="sigma_v is numerically singular"):
            call(bad)
        assert bad.noise._factors is None


def test_a_factored_noise_is_read_back_and_named_last_on_every_call(monkeypatch):
    # factor_noise keeps a noise's factors once its four decisions pass: prewhiten,
    # a new pair on that noise and the nonlinear joint information then factor no
    # 40- or 30-row matrix, and each names the noise the last factored, so its
    # stacked model reads the pair's blocks though another pair was factored between
    pair = planted_pair(np.random.default_rng(53), 40, 30, 10)
    other = planted_pair(np.random.default_rng(54), 40, 30, 10)
    joint_information(pair)
    h, g = NonlinearModel.linear(pair.first.A), NonlinearModel.linear(pair.second.A)
    prior = GaussianPrior(mean=np.zeros(10), cov=np.eye(10))
    for call in (lambda: prewhiten(pair),
                 lambda: joint_information(ModalityPair(pair.first, pair.second, pair.noise)),
                 lambda: joint_information_nonlinear(h, g, pair.noise, prior, N=8, seed=0)):
        joint_information(other)
        assert not {rows for _, rows in sized_calls(monkeypatch, call)} & {40, 30}
        assert lapack_calls(monkeypatch, stacked_ml(pair)) == REUSED_STACKED
    assert len(pair.noise._factors) == 8
    assert all(got is kept for got, kept in zip(
        factor_noise(pair.noise), (pair.noise._factors[i] for i in (1, 6, 2, 7, 4, 5))))


def test_place_applies_the_marginal_guard(tmp_path, capsys):
    pair = ill_conditioned_marginal_pair()
    doc = {
        "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": np.eye(2).tolist()}},
        "modalities": [
            {"name": "a", "A": pair.first.A.tolist(), "noise_cov": pair.noise.sigma_v.tolist()},
            {"name": "b", "A": pair.second.A.tolist(), "noise_cov": pair.noise.sigma_u.tolist()},
        ],
        "cross_cov": {"pair": [0, 1], "matrix": pair.noise.sigma_vu.tolist()},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["place", str(path), "--primary", "a", "--budget", "5"]) == 3
    assert "(Singular)" in capsys.readouterr().err


@pytest.mark.parametrize("N", [100, 3 * information.DEFAULT_BLOCK + 1])
def test_nonlinear_whitening_takes_no_solve_per_block(monkeypatch, N):
    # each integrand whitens a block's Jacobians by a product with the
    # linear module's whitener: the inverse Cholesky factor of the noise, or
    # of each of the pair's marginals; only K and K' are solves, once per call
    rng = np.random.default_rng(44)
    A1, A2, C = (rng.standard_normal(shape) for shape in ((4, 2), (3, 2), (4, 2)))
    h = NonlinearModel(h=lambda s: A1 @ s + C @ (s * s), n=4, m=2)
    g = NonlinearModel.linear(A2)
    noise = random_joint_noise(rng, 4, 3)
    prior = GaussianPrior(mean=np.zeros(2), cov=random_pd(rng, 2))
    fisher = lapack_calls(monkeypatch, lambda: fisher_nonlinear(h, noise.sigma_v, prior, N, 5))
    assert fisher == {"numpy.linalg.cholesky": 1, "numpy.linalg.inv": 1}
    joint = lapack_calls(
        monkeypatch, lambda: joint_information_nonlinear(h, g, noise, prior, N, 5)
    )
    # the record of rho: one eigvalsh of rho^T rho for the guard of K and K'
    # (a values-only svd of rho while the guard read its singular values)
    assert joint == {"numpy.linalg.cholesky": 4, "numpy.linalg.inv": 4,
                     "numpy.linalg.eigvalsh": 1, "numpy.linalg.solve": 2}
