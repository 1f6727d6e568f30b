"""Optimal secondary sensor configuration under an SNR budget.

Everything here lives in the whitened domain: the primary mixing matrix
``A~``, the candidate secondary ``B~`` and the noise cross-correlation
``rho`` after both modalities are whitened. The design objective is the
trace of the joint information on the budget sphere ``Tr(B~^T B~) = p``;
stationarity gives the closed form
``B~* = [I - lambda (I - rho^T rho)]^-1 rho^T A~`` with the multiplier
fixed by a scalar root equation in the singular values of rho
(:func:`_lambda_root`), whose terms :func:`_budget_terms` reads off the one
record of rho: its SVD and the eigenvalues of ``I - rho^T rho``. With
``rho = U S V^T``, both ``I - lambda (I - rho^T rho)`` and
``I - rho^T rho`` are diagonal in the basis ``V``, so ``B~*`` and the objective
are read off the two singular bases and the root's terms with no solve (the
secular-equation form of a trust-region subproblem).

The root is taken on the branch containing lambda = 0 on which all
denominators stay positive (keeping B~* finite). On that branch lambda
stays below the smallest eigenvalue of ``K = (I - rho^T rho)^-1``, so
``K - lambda I`` is positive definite, the Lagrangian is convex in B~,
and the stationary point is the budget-constrained *minimizer* of the
objective; the maximizing branch, ``lambda > lambda_max(K)``, is not
solved here. First-order stationarity is verified on every solve by the
analytic gradient of the Lagrangian, evaluated in two algebraically
distinct forms that must agree, each by a solve with ``I - rho^T rho`` or
``I - rho rho^T``, not in the basis that built ``B~*``; the perturbation probe reports how
perturbations move the objective. Three caches, each keyed by what it depends on,
hold what a budget sweep on one pair repeats: the record of the last rho
(:class:`~fusionkit.information._CrossCorrelation`, of its full SVD), by its bytes
(:func:`_analysis_of`); the probe's first block of draws, by seed, count and shape
(:func:`_first_draws`); and that block's ``<z, K z>``, by record and draws
(:func:`_first_forms`). A sweep and the probes of its solutions take one SVD, one draw
and one quadratic form per draw.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBudget, FormDisagreement, NoRoot, Singular
from .information import _admissible_sigma_max, _CrossCorrelation, _whitened_fisher
from .matrixkit import (
    _form_scale, require_agreement, require_array, require_finite, require_integer, require_real,
)
from .model import SourcePrior, require_prior_size

# Perturbations the probe draws and scores as one stack; bounds its memory.
PROBE_BLOCK = 256

# Largest KKT residual of a returned solution (acceptance criterion 07).
KKT_BOUND = 1e-5


@dataclass(frozen=True)
class PlacementSolution:
    """Secondary configuration, multiplier, budget and stationarity diagnostics.

    ``B_star`` is in the whitened domain (``L_u B~*`` maps it back, with
    ``L_u`` the symmetric root of the secondary noise). ``kkt_residual``
    is the Frobenius norm of the analytic gradient of the Lagrangian at the solution,
    ``2K(B~ - rho^T A~) - 2 lambda B~`` with ``K = (I - rho^T rho)^-1``,
    normalized by ``1 + |objective|``; a second form of the objective
    gradient must agree with it on every solve, to within the rounding
    that ``cond(I - rho^T rho)`` allows. Degenerate solutions (rho = 0) carry no
    matrix, only the analysis note. A solution holds finite numbers only:
    an overflowing ``B_star`` or objective raises :class:`NonFinite`.
    """

    B_star: np.ndarray | None
    lambda_: float
    budget_p: float
    objective_e: float
    kkt_residual: float
    degenerate: bool = False
    note: str = ""

    def __post_init__(self):
        require_finite(self.objective_e, "the placement objective")
        if self.B_star is not None:
            require_finite(self.B_star, "the secondary B~*")

    def to_json_dict(self) -> dict:
        return {
            "B_star": None if self.B_star is None else self.B_star.tolist(),
            "lambda": self.lambda_,
            "p": self.budget_p,
            "objective": self.objective_e,
            "kkt_residual": self.kkt_residual,
            "degenerate": self.degenerate,
            "note": self.note,
        }


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of random feasible perturbations around a placement solution."""

    n_perturbations: int
    n_violations: int
    max_improvement: float
    seed: int


def _whitened_inputs(A_tilde, rho, *B_tilde, b_name="B_tilde") -> tuple[np.ndarray, ...]:
    """``(A~, rho[, B~])`` as float arrays, refused with a ``ValueError`` unless they fit.

    Each is admitted by :func:`~fusionkit.matrixkit.require_array`, in this
    order: ``A~`` as ``(n1, m)``, ``rho`` as ``(n1, n2)`` and ``B~`` as
    ``(n2, m)``. The message names the first argument at fault and ends
    with the shapes of all of them.
    """
    try:
        A = require_array(A_tilde, "A_tilde", (None, None))
        R = require_array(rho, "rho", (A.shape[0], None))
        return (A, R, *[require_array(B, b_name, (R.shape[1], A.shape[1])) for B in B_tilde])
    except ValueError as exc:
        given = zip(("A_tilde", "rho", b_name), (A_tilde, rho, *B_tilde))
        shapes = ", ".join(f"{k} {np.asarray(M, dtype=object).shape}" for k, M in given)
        raise ValueError(f"{exc} ({shapes})") from None


@functools.lru_cache(maxsize=1)  # a budget sweep and the probes of its solutions read one rho
def _analysis_of(key: bytes, shape: tuple) -> _CrossCorrelation:
    """The record of the rho of bytes ``key``, of its full SVD, one per bit-equal rho (``-0.0``
    is not ``0.0``); its ``rho`` is a read-only view of the key, which no caller can write."""
    return _CrossCorrelation(np.frombuffer(key).reshape(shape), full=True)


def synergy_objective(A_tilde, B_tilde, rho, prior: SourcePrior | None = None) -> float:
    """Trace of the joint information for a whitened pair (the synergy score).

    Equals the trace of the information-module joint matrix; the inverse
    of the minimum mean square error in the scalar sense.
    """
    A_tilde, rho, B_tilde = _whitened_inputs(A_tilde, rho, B_tilde)
    if prior is not None:
        require_prior_size(prior, A_tilde.shape[1])
    solve_k = _analysis_of(rho.tobytes(), rho.shape).solve_k
    e = float(np.trace(_whitened_fisher(A_tilde, B_tilde, rho, solve_k)))
    if prior is not None:
        e += float(np.trace(prior.info_matrix()))
    return e


def synergy_gradient_rho(A_tilde, B_tilde, rho) -> np.ndarray:
    """Gradient of the synergy objective with respect to rho.

    Both published algebraic forms are evaluated (the second appears in
    transposed orientation and is transposed back); they must agree to
    1e-8 relative Frobenius. The gradient vanishes at the redundancy
    configurations ``B~ = rho^T A~`` and ``A~ = rho B~``.
    """
    A, rho, B = _whitened_inputs(A_tilde, rho, B_tilde)
    analysis = _analysis_of(rho.tobytes(), rho.shape)
    K, Kp, k_norm = analysis.K, analysis.K_prime, analysis.k_norm
    M = A.T @ rho - B.T
    form1 = 2.0 * (A + rho @ K @ M.T) @ M @ K

    N = B.T @ rho.T - A.T
    form2 = (2.0 * (B + rho.T @ Kp @ N.T) @ N @ Kp).T
    require_agreement(form1, form2, _form_scale(form1), "gradient forms", FormDisagreement, k_norm)
    return form1


def _budget_terms(A_tilde, analysis: _CrossCorrelation) -> tuple[np.ndarray, np.ndarray]:
    """``(c, gap)`` of the budget equation ``sum_i c_i / (1 - lambda gap_i)^2 = p``.

    ``c_i = d_i s_i^2``, with ``d`` the diagonal of ``U^T A~ A~^T U`` clamped at 0,
    ``U`` and ``s`` of ``analysis``, the record of rho; ``gap`` is its eigenvalues of
    ``I - rho^T rho``, whose first ``c.size`` pair with ``c``. Raises :class:`NonFinite`
    if ``d`` overflows.
    """
    d = np.maximum(np.diag(analysis.U.T @ A_tilde @ A_tilde.T @ analysis.U), 0.0)
    require_finite(d, "the budget weights")
    return d[: analysis.s.size] * analysis.s**2, analysis.gap


def _budget_value(lam: float, c: np.ndarray, gap: np.ndarray) -> float:
    """The budget equation's left side at ``lam``, on the first ``c.size`` entries of ``gap``."""
    return float(np.add.reduce(c / (1.0 - lam * gap[: c.size]) ** 2))


def _lambda_root(c: np.ndarray, gap: np.ndarray, p: float) -> float:
    """Multiplier solving the budget equation on the positive-denominator branch.

    ``p`` is a finite positive budget and ``(c, gap)`` the terms of an admissible
    rho (:func:`_budget_terms`), as :func:`optimal_secondary` admits them. The
    left side is increasing and convex on ``[0, lambda_hi)``, where
    ``lambda_hi = 1 / gap[-1]``, the inverse of the largest eigenvalue of
    ``I - rho^T rho``, keeps every denominator (and the secondary closed form)
    finite. The root nearest zero
    is bracketed in ``[0, hi]`` and found by Newton's method on the analytic
    slope, started at ``hi``: on a convex increasing function the iterates
    fall monotonically onto the root. A step that leaves the bracket, which
    only rounding can cause, is replaced by bisection. The residual is at
    most ``1e-12 p`` unless the bracket shrinks to adjacent floats first.

    Raises
    ------
    NoRoot
        If ``p`` lies outside the attainable range on the branch; the
        error reports the attainable minimum (the value at lambda = 0).
    DegenerateBudget
        If every active singular value is at 1, making the equation
        independent of the multiplier.
    NonFinite
        If the budget value at lambda = 0 overflows.
    """
    oms = gap[: c.size]
    active = c > 1e-300
    if np.any(active) and float(np.max(oms[active])) <= 1e-10:
        raise DegenerateBudget(
            "all active singular values are at 1: budget equation does not depend "
            "on the multiplier",
            attainable_value=float(np.sum(c)),
        )

    at_zero = _budget_value(0.0, c, oms)
    require_finite(at_zero, "the budget value at lambda = 0")
    if abs(p - at_zero) <= 1e-12 * max(p, at_zero):
        return 0.0
    if p < at_zero:
        raise NoRoot(
            f"budget {p:.6g} below the attainable minimum {at_zero:.6g} on the "
            "positive-denominator branch",
            attainable_min=at_zero,
        )

    if gap[-1] <= 0.0:  # no active weight (else degenerate): no value exceeds at_zero
        raise NoRoot(
            f"budget {p:.6g} not attainable (equation saturates)", attainable_min=at_zero
        )
    lam_hi = 1.0 / float(gap[-1])

    hi = min(1.0, 0.5 * lam_hi)
    while (value := _budget_value(hi, c, oms)) < p:
        nxt = hi + 0.5 * (lam_hi - hi)
        if (lam_hi - nxt) <= 1e-14 * lam_hi:
            sup = _budget_value(nxt, c, oms)
            raise NoRoot(
                f"budget {p:.6g} above the attainable supremum ~{sup:.6g} on the "
                "positive-denominator branch",
                attainable_min=at_zero,
            )
        hi = nxt

    lo, lam, q = 0.0, hi, 1.0 - hi * oms  # Newton from hi, at the bracket's value there
    slope_weights = 2.0 * c * oms
    for _ in range(200):
        resid = value - p
        if abs(resid) <= 1e-12 * p:
            break
        if resid > 0.0:
            hi = lam
        else:
            lo = lam
        step = lam - resid / float(np.add.reduce(slope_weights / q**3))
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step in (lo, hi):  # the bracket is down to adjacent floats
            break
        lam = step
        q = 1.0 - lam * oms
        value = float(np.add.reduce(c / q**2))
    return lam


def optimal_secondary(
    A_tilde, rho, p: float, prior: SourcePrior | None = None
) -> PlacementSolution:
    """Stationary whitened secondary mixing matrix under the budget.

    Closed form ``B~* = [I - lambda (I - rho^T rho)]^-1 rho^T A~`` with
    the multiplier from :func:`_lambda_root`, on the branch containing
    lambda = 0, formed in the singular bases of ``rho = U S V^T`` as
    ``B~* = V_k diag(s / (1 - lambda gap_k)) U_k^T A~``, over the ``k`` singular
    values ``s`` and the first ``k`` of ``gap``, the eigenvalues of
    ``I - rho^T rho``; the objective is
    ``||A~||_F^2 + lambda^2 sum_i c_i gap_i / (1 - lambda gap_i)^2`` (plus the
    prior's trace), in the root's terms ``c``. Neither takes a solve.
    There ``K - lambda I`` is positive definite, with
    ``K = (I - rho^T rho)^-1``, so ``B~*`` *minimizes* synergy over the
    budget sphere, and the probe reports perturbations that increase it;
    it does not maximize synergy. Corner cases:

    * ``rho^T rho = I``: the multiplier vanishes and ``B~* = rho^T A~``
      regardless of the budget (equivalent to the redundancy relation).
    * ``rho = 0``: the closed form collapses to the zero matrix while the
      objective is direction-independent on the budget sphere, so a
      degenerate solution with that analysis is returned instead of a
      misleading zero matrix.

    One record of each bit-equal rho (:func:`_analysis_of`) feeds the
    admissibility check, the root, ``B~*``, the objective and the stationarity
    check; the root's terms (:func:`_budget_terms`) are formed past the two
    corners only. The stationarity check applies ``K`` and
    ``K' = (I - rho rho^T)^-1`` by LU solves, so it verifies a ``B~*`` built in
    the singular basis by a route that does not share its arithmetic.
    Raises :class:`ValueError` for inputs that do not fit (``A~`` and ``rho``
    by :func:`~fusionkit.matrixkit.require_array`, as :func:`_whitened_inputs`
    admits them; prior size; and a budget ``p`` that is not a finite positive
    number, by :func:`~fusionkit.matrixkit.require_real`); :class:`Inadmissible`
    if ``sigma_max(rho)`` exceeds ``1 + 1e-10``, or is at least 1 where
    ``K = (I - rho^T rho)^-1`` is needed; :class:`NoRoot` and
    :class:`DegenerateBudget` as :func:`_lambda_root`; :class:`Singular` from
    the guard of ``K`` past ``SINGULAR_CONDITION``, or carrying
    ``cond(I - rho^T rho)`` if the KKT residual exceeds ``KKT_BOUND``, as near
    that limit stationarity cannot be verified to it;
    :class:`FormDisagreement` if the two gradient forms disagree; and
    :class:`NonFinite` if the budget weights, ``B~*`` or the objective overflow.
    """
    A_tilde, rho = _whitened_inputs(A_tilde, rho)
    require_real(p, "budget p", "positive")
    if prior is not None:
        require_prior_size(prior, A_tilde.shape[1])
    analysis = _analysis_of(rho.tobytes(), rho.shape)
    _admissible_sigma_max(analysis.sigma_max, strict=False)

    prior_trace = 0.0 if prior is None else float(np.trace(prior.info_matrix()))

    if float(np.linalg.norm(rho, "fro")) <= 1e-12:
        e = float(np.trace(A_tilde.T @ A_tilde)) + p + prior_trace
        return PlacementSolution(
            B_star=None,
            lambda_=0.0,
            budget_p=p,
            objective_e=e,
            kkt_residual=0.0,
            degenerate=True,
            note=(
                "rho = 0: the objective is direction-independent; any secondary "
                "with Tr(B^T B) = p attains the same value, and the closed form "
                "degenerates to the zero matrix"
            ),
        )

    if float(np.max(np.abs(analysis.cap))) <= 1e-8:
        B_star = rho.T @ A_tilde
        e = float(np.trace(A_tilde.T @ A_tilde)) + prior_trace
        return PlacementSolution(
            B_star=B_star,
            lambda_=0.0,
            budget_p=p,
            objective_e=e,
            kkt_residual=0.0,
            note=(
                "rho^T rho = I: multiplier vanishes and B* = rho^T A is optimal "
                "regardless of the budget (redundancy corner)"
            ),
        )

    c, gap = _budget_terms(A_tilde, analysis)
    lam = _lambda_root(c, gap, p)
    analysis.k_norm  # the guard of K, before B~* is formed
    k, q = c.size, 1.0 - lam * gap[: c.size]
    B_star = analysis.Vt[:k].T @ ((analysis.s / q)[:, None] * (analysis.U[:, :k].T @ A_tilde))
    e = (float(np.trace(A_tilde.T @ A_tilde)) + lam**2 * float(np.add.reduce(c * gap[:k] / q**2))
         + prior_trace)
    kkt = _lagrangian_stationarity(A_tilde, B_star, lam, e, analysis)
    if kkt > KKT_BOUND:
        raise Singular(
            f"(I - rho^T rho) is too ill conditioned to verify stationarity: KKT residual "
            f"{kkt:.3e} exceeds the bound {KKT_BOUND:.0e} (cond~{analysis.condition:.3e})",
            condition=analysis.condition,
        )
    return PlacementSolution(
        B_star=B_star,
        lambda_=lam,
        budget_p=p,
        objective_e=e,
        kkt_residual=kkt,
    )


def _objective_gradient_forms(A_tilde, B_tilde, analysis) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the synergy objective ``e(B~)`` with respect to B~, in two forms.

    The first differentiates the objective written around the secondary,
    ``Tr(A~^T A~) + Tr(D^T K D)`` with ``D = B~ - rho^T A~`` and
    ``K = (I - rho^T rho)^-1``; the second the same objective written
    around the primary, ``Tr(B~^T B~) + Tr(E^T K' E)`` with
    ``E = A~ - rho B~`` and ``K' = (I - rho rho^T)^-1``, both applied by
    ``analysis``, the record of rho.
    """
    D = B_tilde - analysis.rho.T @ A_tilde
    E = A_tilde - analysis.rho @ B_tilde
    return 2.0 * analysis.solve_k(D), 2.0 * B_tilde - 2.0 * analysis.rho.T @ analysis.solve_kp(E)


def _lagrangian_stationarity(A_tilde, B_star, lam: float, e: float, analysis) -> float:
    """Normalized norm of the analytic Lagrangian gradient at the solution.

    The two forms are compared on the objective gradient, before the
    multiplier term ``2 lambda B~`` is subtracted: at the solution the
    Lagrangian gradient is about zero. Each form applies ``K`` or ``K'``,
    of norm ``k``, to differences of terms of size up to
    ``||A~|| + ||B~||``, and the inverse itself is accurate to about
    ``k`` times machine epsilon; relative to the gradient ``g``, the
    condition of the check is ``k (||A~|| + ||B~|| + ||g||) / (1 + ||g||)``.
    ``analysis`` is the record of rho.
    """
    forms = _objective_gradient_forms(A_tilde, B_star, analysis)
    g_scale = _form_scale(forms[0])  # 1 + ||g||
    scale = float(np.linalg.norm(A_tilde, "fro") + np.linalg.norm(B_star, "fro"))
    condition = analysis.k_norm * (scale + g_scale - 1.0) / g_scale
    require_agreement(*forms, g_scale, "objective gradient forms", FormDisagreement, condition)
    return float(np.linalg.norm(forms[0] - 2.0 * lam * B_star, "fro")) / (1.0 + abs(e))


def local_optimality_probe(
    A_tilde,
    rho,
    solution: PlacementSolution,
    n_perturbations: int = 200,
    seed: int = 0,
    delta: float = 1e-3,
) -> ProbeReport:
    """Probe a solution with random budget-feasible perturbations.

    Each perturbation displaces ``B~*`` by a random direction of norm
    ``delta`` and renormalizes back to the budget sphere. A violation is
    a perturbation that *increases* the objective by more than 1e-8;
    violations are counted and reported, never hidden. The solver returns
    the budget-constrained minimizer (see :func:`optimal_secondary`), so
    at the default delta every perturbation is a violation; smaller
    deltas put gains on both sides of the threshold, where rounding
    decides. A prior would shift the objective by a constant, which
    cancels in every gain. Each gain is a closed form in three inner
    products of its draw and the draw's ``<z, K z>``, with no perturbed
    matrix formed (see :func:`_perturbation_gains`); the draws are taken in
    blocks of ``PROBE_BLOCK``, so memory stays bounded for any ``n_perturbations``,
    and the gains equal those of drawing them one at a time, up to rounding.
    The first block's draws are cached by ``(seed, count, shape)``, and their
    ``<z, K z>`` by the analysis of rho as well; a report is bit-identical to a fresh
    one. ``K = (I - rho^T rho)^-1``
    is guarded by the singular values of the ``rho`` given (:func:`_analysis_of`),
    so a ``rho`` outside the admissible range raises :class:`Inadmissible`,
    and one beyond the condition limit :class:`Singular`, whatever the solution.

    Raises :class:`ValueError`, by the rule of
    :func:`~fusionkit.matrixkit.require_real` and
    :func:`~fusionkit.matrixkit.require_integer`, if ``delta`` is not a finite
    positive number, or ``n_perturbations`` or ``seed`` is not a non-negative
    integer: a NaN, infinite or zero displacement would report no violation
    without probing anything, and the draws of a stateful seed such as a
    ``Generator`` cannot be memoized. ``A~``, ``rho`` and the solution's
    ``B~*`` are admitted as :func:`_whitened_inputs` admits them, by
    :func:`~fusionkit.matrixkit.require_array`, and refused with a ``ValueError``.
    """
    n_perturbations = require_integer(n_perturbations, "n_perturbations")
    seed = require_integer(seed, "seed")
    require_real(delta, "delta", "positive")
    if solution.B_star is None:
        raise ValueError("degenerate solutions have no matrix to probe")
    A_tilde, rho, B_star = _whitened_inputs(A_tilde, rho, solution.B_star,
                                            b_name="solution.B_star")
    gains = _perturbation_gains(A_tilde, rho, B_star, n_perturbations, seed, delta)
    improved = gains[gains > 1e-8]
    return ProbeReport(
        n_perturbations=n_perturbations,
        n_violations=int(improved.size),
        max_improvement=float(np.max(improved, initial=0.0)),
        seed=seed,
    )


def _perturbation_gains(A_tilde, rho, B0, n_perturbations: int, seed: int, delta: float):
    """Objective gain of each random budget-feasible perturbation of ``B0``, in closed form.

    The objective is ``Tr(A~^T A~) + Tr(D^T K D)`` with ``D = B~ - rho^T A~``
    and ``K = (I - rho^T rho)^-1``, read from the analysis of this ``rho``
    (:func:`_analysis_of`), under the singularity guard of the objective. A draw
    ``z``, displaced by ``s = delta / ||z||`` and scaled back onto the budget
    sphere, is ``B~ = c Y`` with ``Y = B0 + s z`` and ``c = sqrt(p / ||Y||^2)``:
    its ``D`` is ``D0 + a B0 + b z``, with ``a = c - 1`` and ``b = c s``, and its gain
    ``2a<K D0, B0> + 2b<K D0, z> + a^2 <B0, K B0> + 2ab <K B0, z> + b^2 <z, K z>``.
    No perturbed matrix is formed, no two objective-sized numbers are
    subtracted, and ``a = -eps / (||Y||^2 (1 + c))``, with
    ``eps = ||Y||^2 - p = 2s<B0, z> + (s ||z||)^2``, does not cancel.

    The draws come in stacks of up to ``PROBE_BLOCK``, of shape ``(block, n2, m)``;
    a stack's inner products with ``B0``, ``K D0`` and ``K B0`` are one matrix
    product, and its ``<z, K z>`` another. The generator yields
    the same numbers in the same order as one draw per perturbation, so each gain
    equals the one-at-a-time gain up to rounding, and memory stays bounded whatever
    ``n_perturbations``. The first block of draws, a function of ``(seed, count,
    shape)`` only, is kept read-only (:func:`_first_draws`), and its ``<z, K z>`` with
    it and the analysis (:func:`_first_forms`): a hit returns the same arithmetic's
    numbers, so its gains are bit-identical.
    """
    analysis = _analysis_of(rho.tobytes(), rho.shape)
    K, p, b0 = analysis.K, float(np.sum(B0 * B0)), B0.ravel()
    basis = np.stack([b0, (K @ (B0 - rho.T @ A_tilde)).ravel(), (K @ B0).ravel()], axis=1)
    kd0_b0, b0_kb0 = b0 @ basis[:, 1:]
    gains = np.empty(n_perturbations)
    for lo, (z, norms) in zip(range(0, n_perturbations, PROBE_BLOCK),
                              _probe_draws(seed, n_perturbations, B0.shape)):
        z_b0, z_kd0, z_kb0 = (z.reshape(z.shape[0], -1) @ basis).T
        q = _sums(z, K @ z) if lo else _first_forms(analysis, seed, z.shape[0], B0.shape)
        s = delta / norms
        eps = 2.0 * s * z_b0 + (s * norms) ** 2
        c = np.sqrt(p / (p + eps))
        a, b = -eps / ((p + eps) * (1.0 + c)), c * s
        gains[lo : lo + z.shape[0]] = (2.0 * a * kd0_b0 + 2.0 * b * z_kd0 + a * a * b0_kb0
                                       + 2.0 * a * b * z_kb0 + b * b * q)
    return gains


def _sums(X, Y):  # sum(X * Y) of each matrix of a stack
    return np.einsum("...ij,...ij->...", X, Y)


def _probe_draws(seed: int, n: int, shape: tuple):
    """Yield ``(z, norms)`` for each block of ``n`` draws of ``default_rng(seed)``: the
    first block memoized (:func:`_first_draws`), the later ones drawn from its saved state.
    """
    z, norms, state = _first_draws(seed, min(n, PROBE_BLOCK), shape)
    yield z, norms
    if n > PROBE_BLOCK:
        rng = np.random.default_rng(seed)
        rng.bit_generator.state = state
        for lo in range(PROBE_BLOCK, n, PROBE_BLOCK):
            yield _normals(rng, min(PROBE_BLOCK, n - lo), shape)


@functools.lru_cache(maxsize=2)  # a budget sweep probes one shape, placement-design two
def _first_draws(seed: int, count: int, shape: tuple) -> tuple:
    """``(z, norms, state after them)``: the first ``count`` draws of ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    z, norms = _normals(rng, count, shape)
    z.setflags(write=False)
    norms.setflags(write=False)
    return z, norms, rng.bit_generator.state


@functools.lru_cache(maxsize=2)  # as _first_draws; each entry keeps its analysis alive
def _first_forms(analysis: _CrossCorrelation, seed: int, count: int, shape: tuple) -> np.ndarray:
    """Read-only ``<z_i, K z_i>`` of the first ``count`` draws of ``default_rng(seed)``
    (:func:`_first_draws`), with the ``K`` of ``analysis``."""
    z = _first_draws(seed, count, shape)[0]
    q = _sums(z, analysis.K @ z)
    q.setflags(write=False)
    return q


def _normals(rng, count: int, shape: tuple) -> tuple:  # draws, norms clamped at 1e-300
    z = rng.standard_normal((count,) + shape)
    return z, np.maximum(np.sqrt(_sums(z, z)), 1e-300)
