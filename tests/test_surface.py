"""The public surface: the names ``fusionkit`` exports, as the README and the digest use them."""

import ast
import re
import types
from pathlib import Path

import fusionkit

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = [
    "AdvisorTolerances", "Advisory", "BlockCovariance", "CampaignResult", "CrlbCheck",
    "DegenerateBudget", "Estimate", "FormDisagreement", "FusionKitError", "GaussianPrior",
    "Inadmissible", "InfoMatrix", "InfoOnlyPrior", "LinearModel", "McInfoEstimate", "ModalityPair",
    "NoPriorInfo", "NoRoot", "NoScore", "NonFinite", "NonlinearModel", "NotPD", "NotPSD",
    "NotSampleable", "PairFactorization", "PlacementSolution", "ProbeReport", "RouteDisagreement",
    "SampleBatch", "SamplerPrior", "Singular", "SingularInformation", "SourcePrior",
    "SynergyReport", "WhitenedPair", "advise", "campaign_to_csv", "crlb",
    "empirical_error_covariance", "fisher_nonlinear", "joint_information",
    "joint_information_nonlinear", "local_optimality_probe", "ml_estimate",
    "mmse_gaussian_estimate", "numeric_jacobian", "optimal_secondary", "prewhiten",
    "prior_information_mc", "simulate", "snr_matrix", "synergy_gradient_rho", "synergy_matrices",
    "synergy_objective", "total_information", "total_information_nonlinear",
]


def test_public_names_are_pinned():
    names = [
        name for name in dir(fusionkit)
        if not name.startswith("_") and not isinstance(getattr(fusionkit, name), types.ModuleType)
    ]
    assert sorted(names) == sorted(PUBLIC) and len(PUBLIC) == 56


def test_readme_library_sketch_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(block, str(README), "exec"), {})


def test_answer_digest_imports_public_names_only():
    # the digest script of one tree is run against another tree, so it may
    # reach fusionkit only through names that every tree exports
    tree = ast.parse((ROOT / "scripts" / "answer_digest.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("fusionkit.") for a in node.names), ast.dump(node)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fusionkit"):
            assert node.module == "fusionkit", node.module
            imported += [a.name for a in node.names]
    assert imported and set(imported) <= set(fusionkit.__all__)
