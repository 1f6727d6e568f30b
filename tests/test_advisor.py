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
    classify_regime,
    compare_modalities,
    detect_redundancy,
    prewhiten,
)
from fusionkit.information import WhitenedPair, joint_information, snr_matrix

from conftest import random_admissible_rho, random_joint_noise, random_pair, random_pd, rel_fro


class TestCompareModalities:
    def test_first_dominates(self):
        assert compare_modalities(2.0 * np.eye(2), np.eye(2)) == "FirstDominates"

    def test_indefinite_difference(self):
        assert compare_modalities(np.diag([2.0, 1.0]), np.diag([1.0, 2.0])) == "NoDominance"

    def test_tie(self, rng):
        S = random_pd(rng, 3)
        assert compare_modalities(S, S) == "Tie"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**9))
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        S1 = random_pd(rng, n, eig_range=(0.1, 3.0))
        S2 = random_pd(rng, n, eig_range=(0.1, 3.0))
        fwd = compare_modalities(S1, S2)
        rev = compare_modalities(S2, S1)
        swap = {"FirstDominates": "SecondDominates", "SecondDominates": "FirstDominates"}
        assert rev == swap.get(fwd, fwd)


class TestDetectRedundancy:
    def _whitened(self, rng, n1=3, n2=3, m=2, rho_scale=0.7):
        A = rng.standard_normal((n1, m))
        rho = random_admissible_rho(rng, n1, n2, rho_scale)
        return A, rho

    def test_constructed_second_redundancy(self, rng):
        A, rho = self._whitened(rng)
        wp = WhitenedPair(A_tilde=A, B_tilde=rho.T @ A, rho=rho)
        res = detect_redundancy(wp)
        assert res.verdict == "SecondRedundant"
        assert res.r2 <= 1e-10
        assert res.synergy_residual is not None and res.synergy_residual <= 1e-8
        # joint information collapses to the first modality alone
        pair = ModalityPair(
            LinearModel(A), LinearModel(rho.T @ A), BlockCovariance(np.eye(3), np.eye(3), rho)
        )
        J = joint_information(pair)
        assert rel_fro(J.matrix, A.T @ A) < 1e-10

    def test_constructed_first_redundancy(self, rng):
        B = rng.standard_normal((3, 2))
        rho = random_admissible_rho(rng, 3, 3, 0.6)
        wp = WhitenedPair(A_tilde=rho @ B, B_tilde=B, rho=rho)
        res = detect_redundancy(wp)
        assert res.verdict == "FirstRedundant"
        assert res.r1 <= 1e-10

    def test_generic_pair_not_redundant(self):
        rng = np.random.default_rng(606)
        for _ in range(100):
            wp = prewhiten(random_pair(rng, 3, 3, 2))
            res = detect_redundancy(wp)
            assert res.verdict is None
            assert res.r1 > 0.1 and res.r2 > 0.1

    def test_redundancy_property_over_random_rho(self):
        rng = np.random.default_rng(707)
        for _ in range(200):
            n1 = int(rng.integers(1, 5))
            n2 = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            A = rng.standard_normal((n1, m))
            rho = random_admissible_rho(rng, n1, n2, float(rng.uniform(0.1, 0.95)))
            wp = WhitenedPair(A_tilde=A, B_tilde=rho.T @ A, rho=rho)
            assert detect_redundancy(wp, tol=1e-10).verdict == "SecondRedundant"


class TestClassifyRegime:
    def test_zero_rho(self):
        assert classify_regime(np.zeros((2, 3))) == "Uncorrelated"

    def test_near_singular(self):
        assert classify_regime(0.9999 * np.eye(2), eps=1e-3) == "NearSingular"

    def test_partial(self):
        assert classify_regime(0.5 * np.eye(2)) == "Partial"

    def test_inadmissible(self):
        with pytest.raises(Inadmissible):
            classify_regime(np.eye(2))


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
