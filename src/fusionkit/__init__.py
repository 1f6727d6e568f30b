"""fusionkit: estimation-theoretic analysis of multichannel/multimodal sensing.

Estimators (WLS/ML/Gaussian MMSE), SNR and Fisher information matrices,
Cramer-Rao bounds, two-modality synergy and redundancy analysis, optimal
secondary sensor configuration, and Monte-Carlo verification oracles.
"""

from .advisor import (
    Advisory,
    AdvisorTolerances,
    advise,
)
from .errors import (
    DegenerateBudget,
    FormDisagreement,
    FusionKitError,
    Inadmissible,
    NoPriorInfo,
    NoRoot,
    NoScore,
    NonFinite,
    NotPD,
    NotPSD,
    NotSampleable,
    RouteDisagreement,
    Singular,
    SingularInformation,
    SingularNormalMatrix,
    SingularPosterior,
)
from .estimators import (
    Estimate,
    error_covariance,
    ml_estimate,
    mmse_gaussian_estimate,
    wls_estimate,
)
from .harness import (
    CampaignResult,
    CrlbCheck,
    campaign_to_csv,
    campaign_to_json,
    check_crlb_dominance,
    empirical_error_covariance,
    fisher_finite_difference,
)
from .information import (
    InfoMatrix,
    McInfoEstimate,
    PairFactorization,
    SynergyReport,
    WhitenedPair,
    crlb,
    joint_information,
    prewhiten,
    prior_information_mc,
    snr_matrix,
    synergy_matrices,
    total_information,
)
from .matrixkit import BlockCovariance, sym_sqrt
from .model import (
    GaussianPrior,
    InfoOnlyPrior,
    LinearModel,
    ModalityPair,
    SampleBatch,
    SamplerPrior,
    SourcePrior,
    simulate,
)
from .nonlinear import (
    NonlinearModel,
    fisher_nonlinear,
    joint_information_nonlinear,
    numeric_jacobian,
    total_information_nonlinear,
)
from .placement import (
    PlacementSolution,
    ProbeReport,
    SvdOfRho,
    lambda_root,
    local_optimality_probe,
    optimal_secondary,
    svd_of_rho,
    synergy_gradient_rho,
    synergy_objective,
)

__version__ = "0.1.0"
