"""Optimal secondary sensor configuration under an SNR budget.

Everything here lives in the whitened domain: the primary mixing matrix
``A~``, the candidate secondary ``B~`` and the noise cross-correlation
``rho`` after both modalities are whitened. The design objective is the
trace of the joint information on the budget sphere ``Tr(B~^T B~) = p``;
stationarity gives the closed form
``B~* = [I - lambda (I - rho^T rho)]^-1 rho^T A~`` with the multiplier
fixed by a scalar root equation in the singular values of rho.

The root is taken on the branch containing lambda = 0 on which all
denominators stay positive (keeping B~* finite). On that branch lambda
stays below the smallest eigenvalue of ``K = (I - rho^T rho)^-1``, so
``K - lambda I`` is positive definite, the Lagrangian is convex in B~,
and the stationary point is the budget-constrained *minimizer* of the
objective; the maximizing branch, ``lambda > lambda_max(K)``, is not
solved here. First-order stationarity is verified on every solve by the
analytic gradient of the Lagrangian, evaluated in two algebraically
distinct forms that must agree; the perturbation probe reports how
perturbations move the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBudget, NoRoot
from .information import _admissible_sigma_max, _cross_solvers, _whitened_fisher
from .matrixkit import forms_agree, require_finite, symmetrize
from .model import SourcePrior

# Perturbations drawn and scored together by the probe; bounds its memory.
PROBE_BLOCK = 256


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
    ``rho_singular_values`` are those of the rho it was solved for, as
    :func:`optimal_secondary` took them, kept for
    :func:`local_optimality_probe`; they are not part of the report.
    """

    B_star: np.ndarray | None
    lambda_: float
    budget_p: float
    objective_e: float
    kkt_residual: float
    degenerate: bool = False
    note: str = ""
    rho_singular_values: np.ndarray | None = field(default=None, repr=False, compare=False)

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
class SvdOfRho:
    """Singular values of rho plus the diagonal weights of the budget root equation.

    ``d`` holds the diagonal entries of ``U^T A~ A~^T U``, with ``U`` the
    left singular vectors of rho; the root equation is
    ``sum_i d_i sigma_i^2 / [1 - lambda (1 - sigma_i^2)]^2 = p``. ``n2`` is
    the column count of rho, the secondary's channel count.
    """

    singular_values: np.ndarray
    d: np.ndarray
    n2: int


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of random feasible perturbations around a placement solution."""

    n_perturbations: int
    n_violations: int
    max_improvement: float
    seed: int


def synergy_objective(A_tilde, B_tilde, rho, prior: SourcePrior | None = None) -> float:
    """Trace of the joint information for a whitened pair (the synergy score).

    Equals the trace of the information-module joint matrix; the inverse
    of the minimum mean square error in the scalar sense.
    """
    A_tilde = np.asarray(A_tilde, dtype=float)
    B_tilde = np.asarray(B_tilde, dtype=float)
    rho = np.asarray(rho, dtype=float)
    solve_k = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))[0]
    return _objective(A_tilde, B_tilde, rho, solve_k, prior)


def _objective(A_tilde, B_tilde, rho, solve_k, prior: SourcePrior | None) -> float:
    """:func:`synergy_objective` with ``solve_k`` applying ``(I - rho^T rho)^-1``."""
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
    A = np.asarray(A_tilde, dtype=float)
    B = np.asarray(B_tilde, dtype=float)
    rho = np.asarray(rho, dtype=float)
    n1, n2 = rho.shape
    solve_k, solve_kp, k_norm = _cross_solvers(rho, np.linalg.svd(rho, compute_uv=False))

    K = solve_k(np.eye(n2))
    M = A.T @ rho - B.T
    form1 = 2.0 * (A + rho @ K @ M.T) @ M @ K

    Kp = solve_kp(np.eye(n1))
    N = B.T @ rho.T - A.T
    form2 = (2.0 * (B + rho.T @ Kp @ N.T) @ N @ Kp).T
    return forms_agree(form1, form2, "gradient forms", condition=k_norm)


def svd_of_rho(A_tilde, rho) -> SvdOfRho:
    """SVD of rho and the primary-side diagonal weights for the root equation."""
    A_tilde = np.asarray(A_tilde, dtype=float)
    rho = np.asarray(rho, dtype=float)
    U, s, _ = np.linalg.svd(rho)
    d = np.diag(U.T @ A_tilde @ A_tilde.T @ U).copy()
    return SvdOfRho(singular_values=s, d=np.maximum(d, 0.0), n2=rho.shape[1])


def _budget_terms(svd: SvdOfRho) -> tuple[np.ndarray, np.ndarray]:
    k = svd.singular_values.shape[0]
    c = svd.d[:k] * svd.singular_values**2
    one_minus_sq = 1.0 - svd.singular_values**2
    return c, one_minus_sq


def _budget_value(lam: float, c: np.ndarray, oms: np.ndarray) -> float:
    return float(np.sum(c / (1.0 - lam * oms) ** 2))


def _budget_slope(lam: float, c: np.ndarray, oms: np.ndarray) -> float:
    return float(np.sum(2.0 * c * oms / (1.0 - lam * oms) ** 3))


def _require_budget(p: float) -> None:
    if p <= 0.0:
        raise ValueError("budget p must be positive")
    if not np.isfinite(p):  # NaN passes the comparison above
        raise ValueError("budget p must be finite")


def lambda_root(svd: SvdOfRho, p: float) -> float:
    """Multiplier solving the budget equation on the positive-denominator branch.

    The left side is increasing and convex on ``[0, lambda_hi)`` where
    ``lambda_hi`` keeps every denominator (and the secondary closed form)
    finite. The root nearest zero is bracketed in ``[0, hi]`` and found by
    Newton's method on the analytic slope, started at ``hi``: on a convex
    increasing function the iterates fall monotonically onto the root. A
    step that leaves the bracket, which only rounding can cause, is
    replaced by bisection. The residual is at most ``1e-12 p`` unless the
    bracket shrinks to adjacent floats first.

    Raises
    ------
    NoRoot
        If ``p`` lies outside the attainable range on the branch; the
        error reports the attainable minimum (the value at lambda = 0).
    DegenerateBudget
        If every active singular value is at 1, making the equation
        independent of the multiplier.
    NonFinite
        If the weights ``d``, or the budget value at lambda = 0, overflow.
    """
    _require_budget(p)
    require_finite(svd.d, "the budget weights")
    c, oms = _budget_terms(svd)
    if not np.any(svd.singular_values > 0.0):
        raise ValueError("rho has no nonzero singular values; budget equation is void")

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

    # Branch upper limit: every eigenvalue of rho^T rho (including padded
    # zeros when the secondary has more channels than the primary) must
    # keep 1 - lambda (1 - sigma^2) positive.
    tau = np.zeros(svd.n2)
    k = svd.singular_values.shape[0]
    tau[:k] = svd.singular_values**2
    max_one_minus = float(np.max(1.0 - tau))
    lam_hi = np.inf if max_one_minus <= 0.0 else 1.0 / max_one_minus

    hi = min(1.0, 0.5 * lam_hi) if np.isfinite(lam_hi) else 1.0
    while _budget_value(hi, c, oms) < p:
        nxt = hi * 2.0 if not np.isfinite(lam_hi) else hi + 0.5 * (lam_hi - hi)
        if np.isfinite(lam_hi) and (lam_hi - nxt) <= 1e-14 * lam_hi:
            sup = _budget_value(nxt, c, oms)
            raise NoRoot(
                f"budget {p:.6g} above the attainable supremum ~{sup:.6g} on the "
                "positive-denominator branch",
                attainable_min=at_zero,
            )
        if not np.isfinite(lam_hi) and hi > 1e12:
            raise NoRoot(
                f"budget {p:.6g} not attainable (equation saturates)", attainable_min=at_zero
            )
        hi = nxt

    lo, lam = 0.0, hi
    for _ in range(200):
        resid = _budget_value(lam, c, oms) - p
        if abs(resid) <= 1e-12 * p:
            break
        if resid > 0.0:
            hi = lam
        else:
            lo = lam
        step = lam - resid / _budget_slope(lam, c, oms)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if step in (lo, hi):  # the bracket is down to adjacent floats
            break
        lam = step
    return lam


def optimal_secondary(
    A_tilde, rho, p: float, prior: SourcePrior | None = None
) -> PlacementSolution:
    """Stationary whitened secondary mixing matrix under the budget.

    Closed form ``B~* = [I - lambda (I - rho^T rho)]^-1 rho^T A~`` with
    the multiplier from :func:`lambda_root`, on the branch containing
    lambda = 0. There ``K - lambda I`` is positive definite, with
    ``K = (I - rho^T rho)^-1``, so ``B~*`` *minimizes* synergy over the
    budget sphere, and the probe reports perturbations that increase it;
    it does not maximize synergy. Corner cases:

    * ``rho^T rho = I``: the multiplier vanishes and ``B~* = rho^T A~``
      regardless of the budget (equivalent to the redundancy relation).
    * ``rho = 0``: the closed form collapses to the zero matrix while the
      objective is direction-independent on the budget sphere, so a
      degenerate solution with that analysis is returned instead of a
      misleading zero matrix.

    One SVD of rho (:func:`svd_of_rho`) feeds the admissibility check, the
    root, the objective, the stationarity check and, carried on the
    solution, :func:`local_optimality_probe`; ``I - rho^T rho`` is built once. Raises :class:`NonFinite` if the budget weights,
    ``B~*`` or the objective overflow.
    """
    A_tilde = np.asarray(A_tilde, dtype=float)
    rho = np.asarray(rho, dtype=float)
    _require_budget(p)
    svd = svd_of_rho(A_tilde, rho)
    s = svd.singular_values
    _admissible_sigma_max(float(s[0]) if s.size else 0.0, strict=False)

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

    n2 = rho.shape[1]
    cap = symmetrize(np.eye(n2) - rho.T @ rho)
    if float(np.max(np.abs(cap))) <= 1e-8:
        B_star = rho.T @ A_tilde
        e = float(np.trace(A_tilde.T @ A_tilde)) + prior_trace
        return PlacementSolution(
            B_star=B_star,
            lambda_=0.0,
            budget_p=p,
            objective_e=e,
            kkt_residual=0.0,
            degenerate=False,
            note=(
                "rho^T rho = I: multiplier vanishes and B* = rho^T A is optimal "
                "regardless of the budget (redundancy corner)"
            ),
            rho_singular_values=s,
        )

    lam = lambda_root(svd, p)
    solvers = _cross_solvers(rho, s, cap)
    B_star = np.linalg.solve(np.eye(n2) - lam * cap, rho.T @ A_tilde)
    e = _objective(A_tilde, B_star, rho, solvers[0], prior)
    kkt = _lagrangian_stationarity(A_tilde, B_star, rho, lam, e, solvers)
    return PlacementSolution(
        B_star=B_star,
        lambda_=lam,
        budget_p=p,
        objective_e=e,
        kkt_residual=kkt,
        degenerate=False,
        note="",
        rho_singular_values=s,
    )


def _objective_gradient_forms(
    A_tilde, B_tilde, rho, solve_k, solve_kp
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the synergy objective ``e(B~)`` with respect to B~, in two forms.

    The first differentiates the objective written around the secondary,
    ``Tr(A~^T A~) + Tr(D^T K D)`` with ``D = B~ - rho^T A~`` and
    ``K = (I - rho^T rho)^-1``; the second the same objective written
    around the primary, ``Tr(B~^T B~) + Tr(E^T K' E)`` with
    ``E = A~ - rho B~`` and ``K' = (I - rho rho^T)^-1``.
    """
    D = B_tilde - rho.T @ A_tilde
    E = A_tilde - rho @ B_tilde
    return 2.0 * solve_k(D), 2.0 * B_tilde - 2.0 * rho.T @ solve_kp(E)


def _lagrangian_stationarity(A_tilde, B_star, rho, lam: float, e: float, solvers) -> float:
    """Normalized norm of the analytic Lagrangian gradient at the solution.

    The two forms are compared on the objective gradient, before the
    multiplier term ``2 lambda B~`` is subtracted: at the solution the
    Lagrangian gradient is about zero. Each form applies ``K`` or ``K'``,
    of norm ``k``, to differences of terms of size up to
    ``||A~|| + ||B~||``, and the inverse itself is accurate to about
    ``k`` times machine epsilon; relative to the gradient ``g``, the
    condition of the check is ``k (||A~|| + ||B~|| + ||g||) / (1 + ||g||)``.
    ``solvers`` are those of :func:`_cross_solvers` for rho.
    """
    solve_k, solve_kp, k_norm = solvers
    forms = _objective_gradient_forms(A_tilde, B_star, rho, solve_k, solve_kp)
    g = float(np.linalg.norm(forms[0], "fro"))
    scale = float(np.linalg.norm(A_tilde, "fro") + np.linalg.norm(B_star, "fro"))
    condition = k_norm * (scale + g) / (1.0 + g)
    grad = forms_agree(*forms, "objective gradient forms", condition=condition)
    return float(np.linalg.norm(grad - 2.0 * lam * B_star, "fro")) / (1.0 + abs(e))


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
    cancels in every gain. The perturbations are drawn and scored in
    blocks of ``PROBE_BLOCK`` (see :func:`_perturbation_gains`): memory
    stays bounded for any ``n_perturbations``, and the gains equal those
    of drawing them one at a time, up to rounding. ``rho`` is the one the solution was
    computed for: its singular values, which the guard of
    ``(I - rho^T rho)^-1`` reads, are taken from the solution when it
    carries them.

    Raises :class:`ValueError` if ``delta`` is not finite and positive or
    ``n_perturbations`` is not a non-negative integer: a NaN, infinite or
    zero displacement would report no violation without probing anything.
    """
    if not isinstance(n_perturbations, (int, np.integer)) or n_perturbations < 0:
        raise ValueError("n_perturbations must be a non-negative integer")
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be finite and positive, got {delta!r}")
    if solution.B_star is None:
        raise ValueError("degenerate solutions have no matrix to probe")
    gains = _perturbation_gains(
        np.asarray(A_tilde, dtype=float),
        np.asarray(rho, dtype=float),
        solution.B_star,
        n_perturbations,
        seed,
        delta,
        solution.rho_singular_values,
    )
    improved = gains[gains > 1e-8]
    return ProbeReport(
        n_perturbations=n_perturbations,
        n_violations=int(improved.size),
        max_improvement=float(np.max(improved, initial=0.0)),
        seed=seed,
    )


def _perturbation_gains(
    A_tilde, rho, B0, n_perturbations: int, seed: int, delta: float, singular_values=None
):
    """Objective gain of each random budget-feasible perturbation of ``B0``.

    The objective is ``Tr(A~^T A~) + Tr(D^T K D)`` with ``D = B~ - rho^T A~``
    and ``K = (I - rho^T rho)^-1``. The first term is the same for every
    ``B~``, so a gain is a difference of ``sum(D * (K D))``, with ``K``
    taken once, under the singularity guard of the objective; the guard
    reads ``singular_values`` of rho, taken here when not given.

    Perturbations are handled as a stack of up to ``PROBE_BLOCK`` at a
    time: one normal draw of shape ``(block, n2, m)``, each scaled to norm
    ``delta``, added to ``B0`` and scaled back onto the budget sphere,
    then scored by one matrix product of ``K`` with the stack. The
    generator yields the same numbers in the same order as one draw per
    perturbation, so each gain equals the one-at-a-time gain up to
    rounding; memory is two stacks of ``PROBE_BLOCK * n2 * m`` floats,
    whatever ``n_perturbations``.
    """
    if singular_values is None:
        singular_values = np.linalg.svd(rho, compute_uv=False)
    solve_k = _cross_solvers(rho, singular_values)[0]
    K = solve_k(np.eye(rho.shape[1]))
    target = rho.T @ A_tilde

    def sums(X, Y):  # sum(X * Y) of each matrix of a stack
        return np.einsum("...ij,...ij->...", X, Y)

    p = float(np.sum(B0 * B0))
    D0 = B0 - target
    base = float(sums(D0, K @ D0))
    rng = np.random.default_rng(seed)
    gains = np.empty(n_perturbations)
    for lo in range(0, n_perturbations, PROBE_BLOCK):
        B = rng.standard_normal((min(PROBE_BLOCK, n_perturbations - lo),) + B0.shape)
        B *= (delta / np.maximum(np.sqrt(sums(B, B)), 1e-300))[:, None, None]
        B += B0
        B *= np.sqrt(p / sums(B, B))[:, None, None]
        B -= target  # D = B~ - rho^T A~ of each perturbation
        gains[lo : lo + B.shape[0]] = sums(B, K @ B) - base
    return gains
