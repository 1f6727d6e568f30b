"""fusionkit: estimation-theoretic analysis of multichannel/multimodal sensing.

Estimators (WLS/ML/Gaussian MMSE), SNR and Fisher information matrices,
Cramer-Rao bounds, two-modality synergy and redundancy analysis, optimal
secondary sensor configuration, and Monte-Carlo verification oracles.

Exports resolve on first access (PEP 562): ``import fusionkit`` loads no
submodule, and ``fusionkit.advise`` imports ``fusionkit.advisor`` and what
it needs.
"""

import importlib as _importlib

__version__ = "0.1.0"

_EXPORTS = {
    "advisor": ("Advisory", "AdvisorTolerances", "advise"),
    "errors": (
        "DegenerateBudget", "FormDisagreement", "FusionKitError", "Inadmissible", "NoPriorInfo",
        "NoRoot", "NoScore", "NonFinite", "NotPD", "NotPSD", "NotSampleable",
        "RouteDisagreement", "Singular", "SingularInformation", "SingularNormalMatrix",
        "SingularPosterior",
    ),
    "estimators": (
        "Estimate", "error_covariance", "ml_estimate", "mmse_gaussian_estimate", "wls_estimate",
    ),
    "harness": (
        "CampaignResult", "CrlbCheck", "campaign_to_csv", "campaign_to_json",
        "check_crlb_dominance", "empirical_error_covariance", "fisher_finite_difference",
    ),
    "information": (
        "InfoMatrix", "McInfoEstimate", "PairFactorization", "SynergyReport", "WhitenedPair",
        "crlb", "joint_information", "prewhiten", "prior_information_mc", "snr_matrix",
        "synergy_matrices", "total_information",
    ),
    "matrixkit": ("BlockCovariance", "sym_sqrt"),
    "model": (
        "GaussianPrior", "InfoOnlyPrior", "LinearModel", "ModalityPair", "SampleBatch",
        "SamplerPrior", "SourcePrior", "simulate",
    ),
    "nonlinear": (
        "NonlinearModel", "fisher_nonlinear", "joint_information_nonlinear", "numeric_jacobian",
        "total_information_nonlinear",
    ),
    "placement": (
        "PlacementSolution", "ProbeReport", "SvdOfRho", "lambda_root", "local_optimality_probe",
        "optimal_secondary", "svd_of_rho", "synergy_gradient_rho", "synergy_objective",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines the exported ``name`` and bind it here.

    A submodule's name imports that submodule, as an eager package would have.
    """
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return __all__
