"""Modality selection, fusion and redundancy decision rules.

Dominance between modalities is decided in the positive-semidefinite
order on SNR matrices (entrywise-MMSE dominance), never by a scalar
summary. Redundancy is the whitened relation ``B~ = rho^T A~`` (second
modality adds nothing) or ``A~ = rho B~`` (first adds nothing), detected
through scale-normalized residuals; the matching synergy matrix's norm
is reported beside them as evidence and changes no verdict. The
composite ``advise`` verdict is re-derivable from the evidence record it
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .information import NEAR_SINGULAR_RHO, PairFactorization
from .matrixkit import require_real
from .model import ModalityPair, SourcePrior


@dataclass(frozen=True)
class AdvisorTolerances:
    """Thresholds for the decision rules; all overridable from the CLI.

    ``dominance`` is scaled by the SNR norms at use; ``select_gain`` is
    the relative trace gain below which fusing the weaker modality is
    considered not worth it (near-redundancy without the exact algebraic
    relation).

    Raises
    ------
    ValueError
        Naming the field, unless each is a finite non-negative number
        (:func:`~fusionkit.matrixkit.require_real`): a bool, a NaN or an
        infinite threshold would turn every verdict into "Tie".
    """

    dominance: float = 1e-9
    redundancy: float = 1e-8
    regime_eps: float = 1e-6
    select_gain: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            require_real(getattr(self, f.name), f.name, "non-negative")


@dataclass(frozen=True)
class RedundancyResult:
    r1: float
    r2: float
    synergy_residual: float | None = None


@dataclass(frozen=True)
class Advisory:
    """Composite verdict with the evidence needed to re-derive it."""

    verdict: str  # SelectFirst | SelectSecond | Fuse | FirstRedundant | SecondRedundant | Tie
    regime: str  # Uncorrelated | Partial | NearSingular
    evidence: dict[str, Any]
    caveats: tuple[str, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "regime": self.regime,
            "evidence": dict(self.evidence),
            "caveats": list(self.caveats),
        }


def _dominance(w: np.ndarray, tol: float) -> str:
    """PSD-order dominance from the ascending eigenvalues ``w`` of ``snr1 - snr2``.

    "FirstDominates" when the difference is PD beyond ``tol`` (the first
    modality gives a smaller MMSE for every source entry),
    "SecondDominates" symmetrically, "Tie" when the difference is
    negligible in spectral norm, and "NoDominance" when it is indefinite
    (each modality is better for some source directions).
    """
    if float(np.max(np.abs(w))) <= tol:
        return "Tie"
    if float(w[0]) > tol:
        return "FirstDominates"
    if float(w[-1]) < -tol:
        return "SecondDominates"
    return "NoDominance"


def _redundancy(fac: PairFactorization, tol: float) -> RedundancyResult:
    """Whitened-domain redundancy of a factorized pair.

    Residuals are ``r2 = ||B~ - rho^T A~||_F / (1 + ||B~||_F)`` and
    ``r1 = ||A~ - rho B~||_F / (1 + ||A~||_F)``; when one falls at or
    below ``tol``, :func:`advise` calls the corresponding modality
    redundant: the fused information collapses onto the other modality
    alone. When one does, away from a near-unitary rho, the norm of the
    synergy matrix of the smaller residual (``S_x`` when ``r2 <= r1``)
    relative to the joint information is returned as ``synergy_residual``:
    it is evidence only, and no verdict is refused or changed on it.
    """
    wp = fac.whitened
    A, B, rho = wp.A_tilde, wp.B_tilde, wp.rho
    r2 = float(np.linalg.norm(B - rho.T @ A, "fro")) / (1.0 + float(np.linalg.norm(B, "fro")))
    r1 = float(np.linalg.norm(A - rho @ B, "fro")) / (1.0 + float(np.linalg.norm(A, "fro")))
    if r1 > tol and r2 > tol:
        return RedundancyResult(r1=r1, r2=r2)

    synergy_residual = None
    if wp.sigma_max_rho < NEAR_SINGULAR_RHO:
        S = fac.S_x if r2 <= r1 else fac.S_y
        synergy_residual = float(np.linalg.norm(S, "fro")) / max(
            float(np.linalg.norm(fac.routes["prewhitened"], "fro")), 1e-300
        )
    return RedundancyResult(r1=r1, r2=r2, synergy_residual=synergy_residual)


def _regime(frob: float, sigma_max: float, eps: float) -> str:
    """Correlation regime of the whitened noise cross-correlation rho.

    Read from ``||rho||_F`` and ``sigma_max(rho)``: "Uncorrelated" for
    negligible rho (information is additive), "NearSingular" for rho
    within ``eps`` of unitary (information blows up; perfect noise
    rejection by merging), "Partial" otherwise. ``sigma_max`` is that of
    a factorized pair, whose guard on rho already refused ``sigma_max >= 1``.
    """
    if frob <= eps:
        return "Uncorrelated"
    if sigma_max >= 1.0 - eps:
        return "NearSingular"
    return "Partial"


def advise(
    pair: ModalityPair,
    prior: SourcePrior | None = None,
    tols: AdvisorTolerances = AdvisorTolerances(),
) -> Advisory:
    """Composite selection/fusion/redundancy advisory for a modality pair.

    Decision order: exact redundancy (residual rule) first, then
    near-redundancy by negligible synergy gain (SelectFirst/SelectSecond/
    Tie), and Fuse otherwise — fusing is never worse, so it is the
    default whenever both modalities contribute measurable information.
    Every quantity entering a branch is recorded in the evidence.
    """
    fac = PairFactorization.from_pair(pair)
    wp, snr1, snr2, sigma_max = fac.whitened, fac.snr_first, fac.snr_second, fac.sigma_max_rho
    # One stacked eigvalsh: the 2-norm of a PSD SNR matrix is its top
    # eigenvalue, and the difference is symmetric as both terms are.
    w = np.linalg.eigvalsh(np.stack((snr1, snr2, snr1 - snr2)))
    scale = 1.0 + float(w[0, -1]) + float(w[1, -1])
    diff_eigs = w[2]
    dominance = _dominance(diff_eigs, tols.dominance * scale)
    regime = _regime(float(np.linalg.norm(wp.rho, "fro")), sigma_max, tols.regime_eps)
    red = _redundancy(fac, tols.redundancy)
    J = fac.joint_information(prior)
    trace_J = float(np.trace(J.matrix))
    floor = max(trace_J, 1e-300)
    trace_S_x, trace_S_y = float(np.trace(fac.S_x)), float(np.trace(fac.S_y))
    gain_second, gain_first = trace_S_x / floor, trace_S_y / floor
    trace_snr1, trace_snr2 = float(np.trace(snr1)), float(np.trace(snr2))

    evidence = {
        "min_eig_diff": float(diff_eigs[0]),
        "max_eig_diff": float(diff_eigs[-1]),
        "r1": red.r1,
        "r2": red.r2,
        "sigma_max_rho": sigma_max,
        "trace_J_joint": trace_J,
        "trace_snr1": trace_snr1,
        "trace_snr2": trace_snr2,
        "trace_S_x": trace_S_x,
        "trace_S_y": trace_S_y,
        "gain_from_second": gain_second,
        "gain_from_first": gain_first,
        "dominance": dominance,
        "near_singular": J.near_singular,
    }
    if red.synergy_residual is not None:
        evidence["synergy_residual"] = red.synergy_residual

    caveats = () if pair.first.n == pair.second.n else (
        "modalities have unequal channel counts; redundancy theory for this "
        "case is open, residuals are reported as defined",
    )
    # The admissibility argument says only the weaker-SNR modality can be
    # redundant; reported, not enforced.
    evidence["weaker_modality_by_trace"] = "first" if trace_snr1 < trace_snr2 else "second"

    if red.r1 <= tols.redundancy and red.r2 <= tols.redundancy:
        verdict, note = "Tie", "each modality is redundant given the other"
    elif red.r2 <= tols.redundancy:
        verdict, note = "SecondRedundant", "second modality adds no Fisher information"
    elif red.r1 <= tols.redundancy:
        verdict, note = "FirstRedundant", "first modality adds no Fisher information"
    elif gain_second <= tols.select_gain and gain_first <= tols.select_gain:
        verdict, note = "Tie", "neither modality adds measurable information to the other"
    elif gain_second <= tols.select_gain:
        verdict, note = (
            "SelectFirst",
            "second modality adds negligible information; first alone suffices",
        )
    elif gain_first <= tols.select_gain:
        verdict, note = (
            "SelectSecond",
            "first modality adds negligible information; second alone suffices",
        )
    else:
        verdict = "Fuse"
        if dominance == "FirstDominates":
            note = "first dominates individually; fusion is still strictly better"
        elif dominance == "SecondDominates":
            note = "second dominates individually; fusion is still strictly better"
        else:
            note = "both modalities contribute; fusion is strictly better than either"
    evidence["note"] = note
    return Advisory(verdict=verdict, regime=regime, evidence=evidence, caveats=caveats)
