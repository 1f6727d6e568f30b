import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionkit import (
    AdvisorTolerances,
    BlockCovariance,
    Inadmissible,
    LinearModel,
    ModalityPair,
    advise,
    prewhiten,
)
from fusionkit.advisor import _dominance, _regime
from fusionkit.information import _CrossCorrelation, joint_information, snr_matrix

from conftest import random_admissible_rho, random_joint_noise, random_pair, random_pd, rel_fro


def dominance(S1, S2, tol=1e-9):
    return _dominance(np.linalg.eigvalsh(S1 - S2), tol)


def regime(rho, eps=1e-6):
    sigma_max = float(np.linalg.svd(rho, compute_uv=False)[0]) if np.any(rho) else 0.0
    return _regime(float(np.linalg.norm(rho, "fro")), sigma_max, eps)


def advise_whitened(A_tilde, B_tilde, rho, tol=1e-8):
    """``advise`` on the identity-noise pair whose whitened form is (A~, B~, rho)."""
    noise = BlockCovariance(np.eye(rho.shape[0]), np.eye(rho.shape[1]), rho)
    pair = ModalityPair(LinearModel(A_tilde), LinearModel(B_tilde), noise)
    return advise(pair, tols=AdvisorTolerances(redundancy=tol))


class TestCompareModalities:
    def test_first_dominates(self):
        assert dominance(2.0 * np.eye(2), np.eye(2)) == "FirstDominates"

    def test_indefinite_difference(self):
        assert dominance(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])) == "NoDominance"

    def test_tie(self, rng):
        S = random_pd(rng, 3)
        assert dominance(S, S) == "Tie"

    @settings(max_examples=100)
    @given(st.integers(0, 10**9))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        S1 = random_pd(rng, n, eig_range=(0.1, 3.0))
        S2 = random_pd(rng, n, eig_range=(0.1, 3.0))
        fwd = dominance(S1, S2)
        rev = dominance(S2, S1)
        swap = {"FirstDominates": "SecondDominates", "SecondDominates": "FirstDominates"}
        assert rev == swap.get(fwd, fwd)


class TestDetectRedundancy:
    def test_constructed_second_redundancy(self, rng):
        A = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.7)
        adv = advise_whitened(A, rho.T @ A, rho)
        assert adv.verdict == "SecondRedundant"
        assert adv.evidence["r2"] <= 1e-10
        assert adv.evidence["synergy_residual"] <= 1e-8
        # joint information collapses to the first modality alone
        pair = ModalityPair(
            LinearModel(A), LinearModel(rho.T @ A), BlockCovariance(np.eye(3), np.eye(3), rho)
        )
        J = joint_information(pair)
        assert rel_fro(J.matrix, A.T @ A) < 1e-10

    def test_constructed_first_redundancy(self, rng):
        B = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        adv = advise_whitened(rho @ B, B, rho)
        assert adv.verdict == "FirstRedundant"
        assert adv.evidence["r1"] <= 1e-10

    def test_generic_pair_not_redundant(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            wp = prewhiten(random_pair(rng, 3, 3, 2))
            adv = advise_whitened(wp.A_tilde, wp.B_tilde, wp.rho)
            assert adv.verdict not in ("FirstRedundant", "SecondRedundant")
            assert "synergy_residual" not in adv.evidence
            assert adv.evidence["r1"] > 0.1 and adv.evidence["r2"] > 0.1

    def test_redundancy_property_over_random_rho(self):
        rng = np.random.default_rng(707)
        for _ in range(200):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n1, m))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.1, 0.95)))
            assert advise_whitened(A, rho.T @ A, rho, tol=1e-10).verdict == "SecondRedundant"


class TestClassifyRegime:
    def test_zero_rho(self):
        assert regime(np.zeros((2, 3))) == "Uncorrelated"

    def test_near_singular(self):
        assert regime(0.9999 * np.eye(2), eps=1e-3) == "NearSingular"

    def test_partial(self):
        assert regime(0.5 * np.eye(2)) == "Partial"

    def test_inadmissible(self):
        # advise reads the regime off a factorized pair, whose one guard on
        # rho refuses sigma_max(rho) >= 1 before a regime is read
        with pytest.raises(Inadmissible):
            _CrossCorrelation(np.eye(2)).k_norm


class TestAdvise:
    def test_uncorrelated_dominant_first_still_fuses(self, rng):
        A = np.vstack([np.eye(2), np.eye(2)])  # strong first modality
        B = 0.5 * np.eye(2)
        noise = BlockCovariance(0.25 * np.eye(4), np.eye(2), np.zeros((4, 2)))
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        adv = advise(pair)
        assert adv.verdict == "Fuse"
        assert adv.regime == "Uncorrelated"
        assert adv.evidence["dominance"] == "FirstDominates"
        assert "first dominates" in adv.evidence["note"]

    def test_redundant_second_modality(self, rng):
        noise = random_joint_noise(rng, 3, 3)
        A = rng.standard_normal((3, 2))
        B = noise.sigma_uv @ np.linalg.solve(noise.sigma_v, A)
        pair = ModalityPair(LinearModel(A), LinearModel(B), noise)
        adv = advise(pair)
        assert adv.verdict == "SecondRedundant"

    def test_identical_modalities_fuse(self):
        A = np.eye(2)
        noise = BlockCovariance(np.eye(2), np.eye(2), np.zeros((2, 2)))
        pair = ModalityPair(LinearModel(A), LinearModel(A), noise)
        adv = advise(pair)
        assert adv.verdict == "Fuse"
        # information doubles at rho = 0
        J = joint_information(pair).matrix
        assert rel_fro(J, 2.0 * np.eye(2)) < 1e-12

    def test_verdict_rederivable_from_evidence(self, rng):
        pair = random_pair(rng, 3, 2, 2)
        adv = advise(pair)
        ev = adv.evidence
        tols = AdvisorTolerances()
        if min(ev["r1"], ev["r2"]) <= tols.redundancy:
            assert adv.verdict in ("FirstRedundant", "SecondRedundant", "Tie")
        elif max(ev["gain_from_second"], ev["gain_from_first"]) <= tols.select_gain:
            assert adv.verdict == "Tie"
        elif ev["gain_from_second"] <= tols.select_gain:
            assert adv.verdict == "SelectFirst"
        elif ev["gain_from_first"] <= tols.select_gain:
            assert adv.verdict == "SelectSecond"
        else:
            assert adv.verdict == "Fuse"

    @pytest.mark.parametrize("field, bad", [("redundancy", True), ("select_gain", np.inf),
                                            ("dominance", np.nan), ("regime_eps", -1e-6)])
    def test_a_threshold_that_is_no_number_is_refused_not_a_tie(self, rng, field, bad):
        # each turned a pair advised "Fuse" into "Tie", or left it "Fuse" on a NaN
        pair = random_pair(rng, 3, 2, 2)
        assert advise(pair).verdict == "Fuse"
        with pytest.raises(ValueError, match=f"^{field} must be finite and non-negative"):
            advise(pair, tols=AdvisorTolerances(**{field: bad}))

    @pytest.mark.parametrize("r1, r2, verdict", [
        (0.0, 0.0, "Tie"), (1e-9, 1e-10, "Tie"), (1.0, 1e-9, "SecondRedundant"),
        (1e-9, 1.0, "FirstRedundant"), (1.0, 1.0, "Fuse"),
    ])
    def test_the_redundancy_verdict_is_read_off_the_residuals(self, rng, monkeypatch, r1, r2,
                                                              verdict):
        from fusionkit import advisor
        redundancy = advisor._redundancy
        monkeypatch.setattr(advisor, "_redundancy", lambda fac, tol: dataclasses.replace(
            redundancy(fac, tol), r1=r1, r2=r2))
        adv = advise(random_pair(rng, 3, 2, 2))
        assert (adv.verdict, adv.evidence["r1"], adv.evidence["r2"]) == (verdict, r1, r2)

    # Pairs planted at the margin of a rule under the default tolerances, so
    # that its verdict or dominance flips if a constant of the rule moves. On
    # an uncorrelated identity-noise pair with A = a I and B = b I, the SNR
    # matrices are a^2 I and b^2 I, and S_x = b^2 I.
    @pytest.mark.parametrize("a2, b2, dominance, moved", [
        # scale = 1 + a2 + b2 is about 1, so the tolerance is 1e-9 and 3e-9
        # dominates; a scale of 10 + a2 + b2 would read it as a tie
        (4e-9, 1e-9, "FirstDominates", "10 + the SNR norms"),
        # scale is about 2001, so 1e-7 is within the tolerance 2.0e-6; dividing
        # by the scale (5e-13) would read a dominance
        (1000.0 + 1e-7, 1000.0, "Tie", "dominance / scale"),
    ])
    def test_dominance_tolerance_scales_with_the_snr_norms(self, a2, b2, dominance, moved):
        adv = advise_whitened(np.sqrt(a2) * np.eye(2), np.sqrt(b2) * np.eye(2), np.zeros((2, 2)))
        assert adv.evidence["dominance"] == dominance, moved
        assert adv.verdict == "Fuse"

    def test_select_gain_default_sits_at_1e_6(self):
        # the second modality adds 3e-6 of the joint trace: above the default
        # select_gain of 1e-6, so fused; at ten times that default it is negligible
        adv = advise_whitened(np.eye(2), np.sqrt(3e-6) * np.eye(2), np.zeros((2, 2)))
        assert adv.evidence["gain_from_second"] == pytest.approx(3e-6, rel=1e-5)
        assert adv.verdict == "Fuse"

    def test_unequal_channel_counts_carry_caveat(self, rng):
        pair = random_pair(rng, 4, 2, 2)
        adv = advise(pair)
        assert adv.caveats

    def test_json_round_trip(self, rng):
        import json

        adv = advise(random_pair(rng, 2, 2, 2))
        doc = json.loads(json.dumps(adv.to_json_dict()))
        assert doc["verdict"] == adv.verdict
        assert "sigma_max_rho" in doc["evidence"]


class TestVerdictInvariance:
    def test_invariance_under_invertible_rescaling(self, rng):
        # left-multiplying the first modality by invertible T changes nothing
        for _ in range(25):
            pair = random_pair(rng, 3, 2, 2)
            T = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            transformed = ModalityPair(
                first=LinearModel(T @ pair.first.A),
                second=pair.second,
                noise=BlockCovariance(
                    T @ pair.noise.sigma_v @ T.T,
                    pair.noise.sigma_u,
                    T @ pair.noise.sigma_vu,
                ),
            )
            snr_a = snr_matrix(pair.first, pair.noise.sigma_v).matrix
            snr_b = snr_matrix(transformed.first, transformed.noise.sigma_v).matrix
            assert rel_fro(snr_b, snr_a) < 1e-9
            sv_a = np.linalg.svd(prewhiten(pair).rho, compute_uv=False)
            sv_b = np.linalg.svd(prewhiten(transformed).rho, compute_uv=False)
            assert np.max(np.abs(sv_a - sv_b)) < 1e-9
            J_a = joint_information(pair).matrix
            J_b = joint_information(transformed).matrix
            assert rel_fro(J_b, J_a) < 1e-9
            assert advise(transformed).verdict == advise(pair).verdict
