import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionkit
from fusionkit.cli import load_scenario, main

from conftest import readme_demo


def write_scenario(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_modality_doc():
    return {
        "id": "t2",
        "sources": {"gaussian": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
        "modalities": [
            {
                "name": "a",
                "A": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
                "noise_cov": [[0.5, 0.1, 0.0], [0.1, 0.4, 0.0], [0.0, 0.0, 0.6]],
            },
            {
                "name": "b",
                "A": [[0.8, 0.3], [0.2, 0.9]],
                "noise_cov": [[0.7, 0.2], [0.2, 0.8]],
            },
        ],
        "cross_cov": {"pair": [0, 1], "matrix": [[0.1, 0.0], [0.05, 0.1], [0.0, 0.05]]},
    }


# scenario edits that break the advisor's tolerances, by test id
_TOLERANCE_CASES = {
    "tolerances-list": (lambda d: d.update(tolerances=[]), "'tolerances' must be an object"),
    "tolerance-null": (lambda d: d.update(tolerances={"dominance": None}), "bad tolerances"),
    "unknown-top-level-tolerance": (lambda d: d.update(tolerance={"dominance": 1e-3}),
                                    "unknown key 'tolerance' at the top level"),
    "unknown-tolerance-key": (lambda d: d.update(tolerances={"dominanse": 1e-3}),
                              "unknown key 'dominanse' at tolerances"),
}


# the array rule's refusal, around the shape it wants
_ARRAY_RULE = "must be a finite real array of shape"
_NO_EMPTY = "with no empty axis, "


def _three_scalar_modalities(correlations):
    """A scenario edit: modalities a, b and c, each one channel of unit noise, with the
    cross-covariances ``correlations`` of (a, b), (a, c) and (b, c)."""
    def edit(doc):
        doc.update(
            sources={"gaussian": {"mean": [0.0], "cov": [[1.0]]}},
            modalities=[{"name": name, "A": [[1.0]], "noise_cov": [[1.0]]} for name in "abc"],
            cross_cov=[{"pair": pair, "matrix": [[c]]}
                       for pair, c in zip(([0, 1], [0, 2], [1, 2]), correlations)])
    return edit


def _noise_without_cross(noise_cov):
    """A scenario edit giving modality b ``noise_cov`` and no cross-covariance."""
    def edit(doc):
        del doc["cross_cov"]
        doc["modalities"][1]["noise_cov"] = noise_cov
    return edit


class TestScenarioLoading:
    def test_round_trip(self, tmp_path, two_modality_doc):
        scenario = load_scenario(write_scenario(tmp_path / "s.json", two_modality_doc))
        assert scenario.id == "t2"
        assert set(scenario.modalities) == {"a", "b"}
        pair = scenario.pair("a", "b")
        assert pair.noise.sigma_vu.shape == (3, 2)

    def test_reversed_pair_transposes_cross(self, tmp_path, two_modality_doc):
        scenario = load_scenario(write_scenario(tmp_path / "s.json", two_modality_doc))
        fwd = scenario.pair("a", "b").noise.sigma_vu
        rev = scenario.pair("b", "a").noise.sigma_vu
        assert np.array_equal(rev, fwd.T)

    def test_missing_cross_defaults_to_zero(self, tmp_path, two_modality_doc):
        del two_modality_doc["cross_cov"]
        scenario = load_scenario(write_scenario(tmp_path / "s.json", two_modality_doc))
        assert not np.any(scenario.pair("a", "b").noise.sigma_vu)

    def test_three_modalities_of_positive_definite_joint_noise_load(self, tmp_path,
                                                                     two_modality_doc):
        # the (a, c) block is absent, a zero block of the joint noise
        _three_scalar_modalities([0.5, 0.0, 0.5])(two_modality_doc)
        del two_modality_doc["cross_cov"][1]
        scenario = load_scenario(write_scenario(tmp_path / "s.json", two_modality_doc))
        assert sorted(scenario.modalities) == ["a", "b", "c"]
        assert not np.any(scenario.pair("a", "c").noise.sigma_vu)
        assert scenario.pair("c", "b").noise.sigma_vu.tolist() == [[0.5]]
        assert main(["advise", str(tmp_path / "s.json"), "--pair", "a,c"]) == 0

    def test_indefinite_noise_rejected(self, tmp_path, two_modality_doc):
        two_modality_doc["modalities"][1]["noise_cov"] = [[1.0, 0.0], [0.0, -1.0]]
        with pytest.raises(Exception):
            load_scenario(write_scenario(tmp_path / "s.json", two_modality_doc))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.update(modalities=[1]), "bad modality entry"),
            (lambda d: d.update(modalities=5), "must be a list"),
            (lambda d: d.update(modalities=[], cross_cov=[]),
             "'modalities' must list at least one modality"),
            (lambda d: d["cross_cov"].update(pair=[0, 0]), "two distinct modalities"),
            (lambda d: d["cross_cov"].update(pair=[-1, 0]), "out of range"),
            (lambda d: d["cross_cov"].update(pair=3), "bad cross_cov entry"),
            (lambda d: d.update(cross_cov=[d["cross_cov"], {"pair": [1, 0], "matrix":
                                 np.transpose(d["cross_cov"]["matrix"]).tolist()}]),
             "given twice"),
            (lambda d: d["cross_cov"].update(matrix=[[0.1, 0.0]]),
             "sigma_vu must be a finite real array of shape (3, 2) with no empty axis, "
             "got shape (1, 2)"),
            # null is refused as every other null is, not read as "no cross-covariance"
            (lambda d: d.update(cross_cov=None),
             "'cross_cov' must be an entry object or a list of them"),
            (lambda d: d["cross_cov"].update(matrix=(20 * np.array(d["cross_cov"]["matrix"]))
                                             .tolist()), "joint covariance is not PSD"),
            (lambda d: d["modalities"][1].update(noise_cov=[[1.0, 0.0], [0.0, -1.0]]),
             "modalities[1] 'b': noise covariance is not PSD (min eigenvalue -1.000e+00)"),
            # the PSD and symmetry rules are relative to the matrix's own
            # scale: the same refusals in units a trillion times smaller, with
            # no cross-covariance to refuse the pair instead
            (_noise_without_cross([[1e-12, 0.0], [0.0, -5e-13]]),
             "modalities[1] 'b': noise covariance is not PSD (min eigenvalue -5.000e-13)"),
            (lambda d: d.update(sources={"info_only": {"J_s": [[1e-12, 0.0], [0.0, -5e-13]]}}),
             "bad source prior at sources.info_only: J_s is not PSD (min eigenvalue -5.000e-13)"),
            (_noise_without_cross([[1e-12, 5e-13], [0.0, 1e-12]]),
             "modalities[1] 'b': noise covariance is not symmetric"),
            (lambda d: d["modalities"][1].update(noise_cov=[[1.0, 0.0]]),
             f"modalities[1] 'b': noise covariance {_ARRAY_RULE} (2, 2) {_NO_EMPTY}"
             "got shape (1, 2)"),
            (lambda d: d["modalities"][1].update(noise_cov=[[0.7, 0.2], [0.1, 0.8]]),
             "modalities[1] 'b': noise covariance is not symmetric"),
            (lambda d: d["modalities"][1].update(noise_cov=np.eye(3).tolist()),
             f"modalities[1] 'b': noise covariance {_ARRAY_RULE} (2, 2) {_NO_EMPTY}"
             "got shape (3, 3)"),
            # the size is reported before the sign of the eigenvalues
            (lambda d: d["modalities"][1].update(noise_cov=np.diag([1.0, -1.0, 1.0]).tolist()),
             f"modalities[1] 'b': noise covariance {_ARRAY_RULE} (2, 2) {_NO_EMPTY}"
             "got shape (3, 3)"),
            # a ragged matrix or vector, or an integer beyond 64 bits, is refused by
            # the library's array rule, under the loader's name of its place
            (lambda d: d["modalities"][0]["A"].__setitem__(1, [0.5]),
             f"modalities[0] 'a': mixing matrix {_ARRAY_RULE} (any, any) {_NO_EMPTY}"
             "got a ragged sequence"),
            (lambda d: d["modalities"][1]["noise_cov"].__setitem__(1, [0.2]),
             f"modalities[1] 'b': noise covariance {_ARRAY_RULE} (2, 2) {_NO_EMPTY}"
             "got a ragged sequence"),
            (lambda d: d["sources"]["gaussian"].update(mean=[0.0, [0.0]]),
             f"bad source prior at sources.gaussian: mean {_ARRAY_RULE} (2,) {_NO_EMPTY}"
             "got a ragged sequence"),
            (lambda d: d["sources"]["gaussian"].update(cov=[[1.0, 0.0], [0.0]]),
             f"bad source prior at sources.gaussian: source covariance {_ARRAY_RULE} (any, any) "
             f"{_NO_EMPTY}got a ragged sequence"),
            (lambda d: d.update(sources={"info_only": {"J_s": [[1.0, 0.0], [0.0]]}}),
             f"bad source prior at sources.info_only: J_s {_ARRAY_RULE} (any, any) {_NO_EMPTY}"
             "got a ragged sequence"),
            (lambda d: d["cross_cov"]["matrix"].__setitem__(1, [0.05]),
             f"cross_cov ['a', 'b']: sigma_vu {_ARRAY_RULE} (3, 2) {_NO_EMPTY}"
             "got a ragged sequence"),
            (lambda d: d.update(cross_cov=[d["cross_cov"] | {"matrix": [[0.1, 0.0], [0.0, 0.1]]}]),
             f"cross_cov[0] ['a', 'b']: sigma_vu {_ARRAY_RULE} (3, 2) {_NO_EMPTY}"
             "got shape (2, 2)"),
            (lambda d: d["modalities"][0]["A"][0].__setitem__(0, 2**64),
             f"modalities[0] 'a': mixing matrix {_ARRAY_RULE} (any, any) {_NO_EMPTY}"
             "got entries of dtype object"),
            (lambda d: d["sources"]["gaussian"].update(mean=[0.0] * 3, cov=np.eye(3).tolist()),
             "modality 'a' has 2 sources but the prior has 3"),
            # the schema is closed: an unknown key, an entry that is not a number
            # and a name that is not a string are refused at load
            (lambda d: d.update(cross_covariance=d.pop("cross_cov")),
             "unknown key 'cross_covariance' at the top level"),
            (lambda d: d["sources"].update(info_only={"J_s": np.eye(2).tolist()}),
             "sources must be 'gaussian' or 'info_only'"),
            (lambda d: d["sources"]["gaussian"].update(covariance=np.eye(2).tolist()),
             "unknown key 'covariance' at sources.gaussian"),
            (lambda d: d.update(sources={"info_only": {"J_s": np.eye(2).tolist(), "m": 2}}),
             "unknown key 'm' at sources.info_only"),
            (lambda d: d["modalities"][1].update(noise=[[1.0]]),
             "unknown key 'noise' at modalities[1]"),
            (lambda d: d["cross_cov"].update(matrices=[]), "unknown key 'matrices' at cross_cov"),
            (lambda d: d.update(cross_cov=[d["cross_cov"] | {"weight": 1}]),
             "unknown key 'weight' at cross_cov[0]"),
            (lambda d: d["modalities"][0]["A"][0].__setitem__(0, True),
             "modality a A has an entry that is not a number: true"),
            (lambda d: d["modalities"][1]["noise_cov"][0].__setitem__(0, "0.7"),
             "modality b noise_cov has an entry that is not a number: \"0.7\""),
            (lambda d: d["cross_cov"]["matrix"][0].__setitem__(1, False),
             "cross_cov matrix has an entry that is not a number: false"),
            (lambda d: d["sources"]["gaussian"].update(mean=[0.0, True]),
             "source mean has an entry that is not a number: true"),
            (lambda d: d["modalities"][1].update(name=7),
             "modalities[1] 'name' must be a string, got 7"),
            (lambda d: d.update(id=3), "'id' must be a string, got 3"),
            # a dict cannot hold a repeated key: the edit returns the JSON text
            (lambda d: json.dumps(d).replace(
                '"noise_cov": ', '"noise_cov": [[0.5]], "noise_cov": ', 1),
             "key 'noise_cov' is given twice in one object"),
            # each pair's block is PD, but the joint noise of the three has
            # eigenvalues -0.8, 1.9 and 1.9: every pair was answered
            (_three_scalar_modalities([0.9, 0.9, -0.9]),
             "joint noise covariance of modalities ['a', 'b', 'c'] is not PSD "
             "(min eigenvalue -8.000e-01)"),
            *_TOLERANCE_CASES.values(),
        ],
        ids=["modality-not-object", "modalities-not-list", "modalities-empty", "same-modality-twice",
             "negative-index", "pair-not-list", "pair-given-twice", "cross-shape", "cross-cov-null",
             "joint-not-pd", "noise-indefinite", "noise-indefinite-small-units",
             "prior-indefinite-small-units", "noise-asymmetric-small-units", "noise-not-square", "noise-asymmetric",
             "noise-wrong-size", "noise-wrong-size-and-indefinite", "ragged-A", "ragged-noise-cov",
             "ragged-mean", "ragged-cov", "ragged-J_s", "ragged-cross-matrix",
             "cross-list-shape", "integer-beyond-64-bits", "prior-wrong-dimension",
             "unknown-top-level-cross-covariance", "two-priors", "unknown-gaussian-key",
             "unknown-info-only-key", "unknown-modality-key", "unknown-cross-key",
             "unknown-cross-list-key", "bool-in-matrix", "string-in-matrix",
             "bool-in-cross-matrix", "bool-in-mean", "name-not-string", "id-not-string",
             "key-given-twice", "three-modalities-joint-indefinite", *_TOLERANCE_CASES],
    )
    def test_malformed_scenario_exits_2(self, tmp_path, two_modality_doc, capsys, edit, message):
        text = edit(two_modality_doc)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(two_modality_doc) if text is None else text)
        assert main(["advise", str(path), "--pair", "a,b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("edit, message", _TOLERANCE_CASES.values(),
                             ids=list(_TOLERANCE_CASES))
    def test_bad_tolerances_exit_2_without_advise(self, tmp_path, two_modality_doc, capsys, edit,
                                                  message):
        # the loader refuses them, so a command that never imports the advisor does too
        edit(two_modality_doc)
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["analyze", path, "--modality", "a"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and message in err and err.count("\n") == 1


class TestAnalyze:
    def test_single_modality_report(self, tmp_path, two_modality_doc, capsys):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["analyze", path, "--modality", "a"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert {"snr", "J_total", "crlb"} <= set(report)
        snr = np.array(report["snr"])
        assert np.allclose(snr, snr.T)

    def test_joint_report_has_synergy_and_routes(self, tmp_path, two_modality_doc, capsys):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["analyze", path, "--joint", "a,b"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["min_eig_S_x"] >= -1e-10
        assert report["min_eig_S_y"] >= -1e-10
        assert report["route_max_rel_disagreement"] < 1e-8
        assert report["sigma_max_rho"] < 1.0

    def test_joint_snr_matrices_are_the_single_modality_ones(self, tmp_path, capsys):
        # on the README demo, the pair's SNR matrices are the very products
        # that analyze --modality prints: the same numbers, digit for digit
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        path = tmp_path / "demo.json"
        path.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])

        def printed(*flags):
            assert main(["analyze", str(path), *flags]) == 0
            return json.loads(capsys.readouterr().out)

        joint = printed("--joint", "ecg,ppg")
        for key, modality in (("snr_first", "ecg"), ("snr_second", "ppg")):
            assert json.dumps(joint[key]) == json.dumps(printed("--modality", modality)["snr"])

    def test_underdetermined_modality_exits_2(self, tmp_path, capsys):
        doc = {
            "sources": {"info_only": {"J_s": [[0.0, 0.0, 0.0]] * 3}},
            "modalities": [
                {"name": "thin", "A": [[1.0, 1.0, 1.0]], "noise_cov": [[1.0]]}
            ],
        }
        path = write_scenario(tmp_path / "s.json", doc)
        assert main(["analyze", path, "--modality", "thin"]) == 2
        assert "Fisher information matrix is singular" in capsys.readouterr().err

    def test_out_file(self, tmp_path, two_modality_doc):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--modality", "b", "--out", str(out)]) == 0
        assert "snr" in json.loads(out.read_text())


class TestAdvise:
    def test_partial_correlation_fuses(self, tmp_path, two_modality_doc, capsys):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["advise", path, "--pair", "a,b"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Fuse"
        assert report["regime"] == "Partial"

    def test_uncorrelated_regime(self, tmp_path, two_modality_doc, capsys):
        del two_modality_doc["cross_cov"]
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        main(["advise", path, "--pair", "a,b"])
        assert json.loads(capsys.readouterr().out)["regime"] == "Uncorrelated"

    def test_redundant_scenario(self, tmp_path, capsys):
        # second modality constructed as sigma_uv sigma_v^-1 A
        rng = np.random.default_rng(5)
        A = rng.standard_normal((3, 2))
        sv = np.eye(3)
        svu = 0.5 * np.eye(3)
        B = svu.T @ A  # sigma_uv @ inv(sv) @ A with sv = I
        doc = {
            "sources": {"info_only": {"J_s": [[0.0, 0.0], [0.0, 0.0]]}},
            "modalities": [
                {"name": "x", "A": A.tolist(), "noise_cov": sv.tolist()},
                {"name": "y", "A": B.tolist(), "noise_cov": np.eye(3).tolist()},
            ],
            "cross_cov": {"pair": [0, 1], "matrix": svu.tolist()},
        }
        path = write_scenario(tmp_path / "s.json", doc)
        assert main(["advise", path, "--pair", "x,y"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "SecondRedundant"

    def test_indefinite_difference_fuses(self, tmp_path, capsys):
        doc = {
            "sources": {"info_only": {"J_s": [[0.0, 0.0], [0.0, 0.0]]}},
            "modalities": [
                {"name": "p", "A": [[2.0, 0.0], [0.0, 1.0]], "noise_cov": np.eye(2).tolist()},
                {"name": "q", "A": [[1.0, 0.0], [0.0, 2.0]], "noise_cov": np.eye(2).tolist()},
            ],
        }
        path = write_scenario(tmp_path / "s.json", doc)
        main(["advise", path, "--pair", "p,q"])
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "Fuse"
        assert report["evidence"]["dominance"] == "NoDominance"


class TestPlace:
    def test_generic_has_small_kkt(self, tmp_path, two_modality_doc, capsys):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["place", path, "--primary", "a", "--budget", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kkt_residual"] < 1e-5
        assert not report["degenerate"]
        assert "B_star_unwhitened" in report

    def test_zero_rho_degenerate(self, tmp_path, two_modality_doc, capsys):
        del two_modality_doc["cross_cov"]
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["place", path, "--primary", "a", "--budget", "2.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degenerate"] is True
        assert report["note"]

    def test_unitary_rho_corner(self, tmp_path, capsys):
        doc = {
            "sources": {"info_only": {"J_s": [[0.0, 0.0], [0.0, 0.0]]}},
            "modalities": [
                {"name": "m1", "A": [[1.0, 0.2], [0.1, 0.9]], "noise_cov": np.eye(2).tolist()},
                {"name": "m2", "A": [[0.0, 0.0], [0.0, 0.0]], "noise_cov": np.eye(2).tolist()},
            ],
            # rho = I within the PD boundary tolerance used by placement
            "cross_cov": {"pair": [0, 1], "matrix": [[0.9999999999, 0.0], [0.0, 0.9999999999]]},
        }
        path = write_scenario(tmp_path / "s.json", doc)
        assert main(["place", path, "--primary", "m1", "--budget", "3.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lambda"] == 0.0
        B_star = np.array(report["B_star"])
        rho = np.array(doc["cross_cov"]["matrix"])
        A = np.array(doc["modalities"][0]["A"])
        assert np.allclose(B_star, rho.T @ A, atol=1e-6)


class TestSimulate:
    def test_campaign_outputs_and_determinism(self, tmp_path, two_modality_doc):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        code = main(
            ["simulate", path, "--method", "ml", "--N", "20000", "--seed", "3",
             "--out", str(out1)]
        )
        assert code == 0
        main(
            ["simulate", path, "--method", "ml", "--N", "20000", "--seed", "3",
             "--out", str(out2)]
        )
        assert out1.with_suffix(".json").read_bytes() == out2.with_suffix(".json").read_bytes()
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()
        rows = out1.with_suffix(".csv").read_text().strip().split("\n")
        assert rows[0].startswith("scenario_id,method")
        assert "t2:a" in rows[1]

    def test_rel_err_small_at_large_n(self, tmp_path, two_modality_doc, capsys):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["simulate", path, "--method", "ml", "--N", "200000", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["frobenius_rel_err"] < 0.05

    def test_mmse_without_gaussian_prior_exits_2(self, tmp_path, two_modality_doc, capsys):
        two_modality_doc["sources"] = {"info_only": {"J_s": [[0.0, 0.0], [0.0, 0.0]]}}
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["simulate", path, "--method", "mmse"]) == 2
        assert "MMSE requires Gaussian prior" in capsys.readouterr().err

    @staticmethod
    def readme_with_prior_cov(tmp_path, scale):
        """The README demo scenario with its prior covariance replaced by ``scale * I``."""
        doc = readme_demo()
        doc["sources"]["gaussian"]["cov"] = (scale * np.eye(2)).tolist()
        return write_scenario(tmp_path / "s.json", doc)

    @pytest.mark.parametrize("scale", [1e13, 1e16])
    def test_mmse_answers_a_near_flat_prior(self, tmp_path, capsys, scale):
        # the innovation covariance A G A^T + sigma is numerically singular
        # here, but the information form never solves with it
        path = self.readme_with_prior_cov(tmp_path, scale)
        assert main(["simulate", path, "--method", "mmse", "--N", "1000"]) == 0
        (result,) = json.loads(capsys.readouterr().out)
        assert result["frobenius_rel_err"] <= 0.05

    @pytest.mark.parametrize("scale, err", [
        # draws of size 1e12 exceed the error's deviation past the condition
        # limit: the noise is lost to their rounding
        (1e24, "numerical failure in simulate (Singular): the draws' size over the error's "
               "deviation is numerically singular (cond~2.304e+13)\n"),
        # draws of size 1e150 overflow the fourth moments
        (1e300, "numerical failure in simulate (NonFinite): non-finite entries in the empirical "
                "error covariance or its standard errors\n"),
    ], ids=["1e24", "1e300"])
    def test_mmse_prior_beyond_float_precision_is_3(self, tmp_path, capsys, scale, err):
        # a numerical failure, not a bad scenario
        path = self.readme_with_prior_cov(tmp_path, scale)
        assert main(["simulate", path, "--method", "mmse", "--N", "1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze"])  # missing scenario path
        assert exc_info.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["frobnicate"])
        assert exc_info.value.code == 1

    def test_missing_scenario_file_is_2(self, capsys):
        assert main(["analyze", "/nonexistent/path.json", "--modality", "a"]) == 2

    def test_unknown_modality_is_2(self, tmp_path, two_modality_doc):
        path = write_scenario(tmp_path / "s.json", two_modality_doc)
        assert main(["analyze", path, "--modality", "zzz"]) == 2

    def test_numerical_failure_is_3(self, tmp_path, capsys):
        # a cross covariance at the PD boundary defeats the Schur solves
        c = 1.0 - 1e-15
        doc = {
            "sources": {"info_only": {"J_s": [[0.0]]}},
            "modalities": [
                {"name": "m1", "A": [[1.0]], "noise_cov": [[1.0]]},
                {"name": "m2", "A": [[1.0]], "noise_cov": [[1.0]]},
            ],
            "cross_cov": {"pair": [0, 1], "matrix": [[c]]},
        }
        path = write_scenario(tmp_path / "s.json", doc)
        assert main(["analyze", path, "--joint", "m1,m2"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["analyze", "--modality", "big"], ["analyze", "--joint", "big,unit"],
         ["advise", "--pair", "big,unit"]],
    )
    def test_snr_overflow_is_3(self, tmp_path, capsys, argv):
        # A^T Sigma^-1 A = 1e600 overflows: a numerical failure, not a bad scenario
        doc = {
            "sources": {"gaussian": {"mean": [0.0], "cov": [[1.0]]}},
            "modalities": [
                {"name": "big", "A": [[1e200]], "noise_cov": [[1e-200]]},
                {"name": "unit", "A": [[1.0]], "noise_cov": [[1.0]]},
            ],
        }
        path = write_scenario(tmp_path / "s.json", doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([argv[0], path, *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "(NonFinite)" in err


def test_non_finite_report_value_is_3(tmp_path, capsys):
    # every matrix is finite, but the traces of 0.6e308 I_3 overflow in the
    # advise evidence; JSON has no token for inf or NaN
    a = (0.6e308) ** 0.5
    doc = {
        "sources": {"gaussian": {"mean": [0.0] * 3, "cov": np.eye(3).tolist()}},
        "modalities": [
            {"name": "a", "A": (a * np.eye(3)).tolist(), "noise_cov": np.eye(3).tolist()},
            {"name": "b", "A": np.eye(3).tolist(), "noise_cov": np.eye(3).tolist()},
        ],
    }
    path = write_scenario(tmp_path / "s.json", doc)
    assert main(["advise", path, "--pair", "a,b"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "(NonFinite): non-finite value in the report" in captured.err


def fresh_interpreter_env():
    """Environment for a fresh interpreter that imports this checkout's fusionkit."""
    src = str(Path(fusionkit.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--joint", "a,b"], ["advise", "--pair", "a,b"], ["analyze", "--modality", "a"],
     ["place", "--primary", "a", "--budget", "5"], ["simulate", "--method", "ml", "--N", "1000"]],
)
def test_overflow_is_one_typed_line(tmp_path, argv):
    # A~ = 1e300 after whitening: every command must fail with NonFinite alone on
    # stderr, without numpy's RuntimeWarning lines; a fresh interpreter shows them
    doc = {
        "sources": {"gaussian": {"mean": [0.0], "cov": [[1.0]]}},
        "modalities": [
            {"name": "a", "A": [[1e200]], "noise_cov": [[1e-200]]},
            {"name": "b", "A": [[1.0]], "noise_cov": [[1.0]]},
        ],
        "cross_cov": {"pair": [0, 1], "matrix": [[0.5e-100]]},
    }
    path = write_scenario(tmp_path / "s.json", doc)
    out = subprocess.run([sys.executable, "-m", "fusionkit.cli", argv[0], path, *argv[1:]],
                         env=fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 3
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and "(NonFinite)" in lines[0], out.stderr
    assert "Warning" not in out.stderr


def _three_sources(doc):
    # two one-channel modalities of a three-source scenario
    doc["sources"]["gaussian"].update(mean=[0.0] * 3, cov=np.eye(3).tolist())
    doc["modalities"] = [{"name": "c", "A": [[1.0, 0.0, 0.5]], "noise_cov": [[1.0]]},
                         {"name": "d", "A": [[0.0, 1.0, 0.5]], "noise_cov": [[1.0]]}]
    del doc["cross_cov"]


# scenario variants of the two-modality document, each named by its placeholder
_VARIANTS = {
    # a JSON integer no float can hold
    "{huge_entry}": lambda d: d["modalities"][0]["A"][0].__setitem__(0, 10**400),
    "{three_sources}": _three_sources,
    "{info_only}": lambda d: d.update(sources={"info_only": {"J_s": np.eye(2).tolist()}}),
    "{no_modalities}": lambda d: d.update(modalities=[], cross_cov=[]),
    "{tol_inf_string}": lambda d: d.update(tolerances={"regime_eps": "inf"}),
    "{tol_numeric_string}": lambda d: d.update(tolerances={"dominance": "1e-9"}),
    "{tol_nan}": lambda d: d.update(tolerances={"select_gain": float("nan")}),
    "{tol_negative}": lambda d: d.update(tolerances={"redundancy": -1}),
    "{tol_huge}": lambda d: d.update(tolerances={"dominance": 10**400}),
    "{tol_bool}": lambda d: d.update(tolerances={"redundancy": True}),
    "{nan_mean}": lambda d: d["sources"]["gaussian"].update(mean=[float("nan"), 0.0]),
    "{inf_mean}": lambda d: d["sources"]["gaussian"].update(mean=[float("inf"), 0.0]),
    "{huge_mean}": lambda d: d["sources"]["gaussian"].update(mean=[1e308, 1e308]),
    "{huge_noise}": lambda d: d["modalities"][1].update(noise_cov=(1e300 * np.eye(2)).tolist()),
}


@pytest.mark.parametrize(
    "argv, code, names",
    [
        pytest.param(["analyze", "{scenario}", "--joint", "a,a"], 2, (), id="analyze-same-pair"),
        pytest.param(["advise", "{scenario}", "--pair", "b,b"], 2, (), id="advise-same-pair"),
        pytest.param(["place", "{scenario}", "--primary", "a", "--secondary", "a", "--budget",
                      "5"], 2, (), id="place-same-pair"),
        pytest.param(["analyze", "{dir}", "--modality", "a"], 2, (),
                     id="scenario-is-a-directory"),
        pytest.param(["analyze", "{scenario}", "--modality", "a", "--out", "{unwritable}"], 1, (),
                     id="analyze-unwritable-out"),
        pytest.param(["advise", "{scenario}", "--pair", "a,b", "--out", "{unwritable}"], 1, (),
                     id="advise-unwritable-out"),
        pytest.param(["place", "{scenario}", "--primary", "a", "--budget", "5", "--out",
                      "{unwritable}"], 1, (), id="place-unwritable-out"),
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--N", "1000", "--out",
                      "{unwritable}"], 1, (), id="simulate-unwritable-out"),
        # the budget is a flag: refused as a usage error, before the scenario is read
        pytest.param(["place", "{scenario}", "--primary", "a", "--budget", "nan"], 1,
                     ("--budget", "nan"), id="place-nan-budget"),
        pytest.param(["place", "{scenario}", "--primary", "a", "--budget", "-1"], 1,
                     ("--budget", "-1.0"), id="place-negative-budget"),
        pytest.param(["place", "{scenario}", "--primary", "a", "--budget", "0"], 1,
                     ("--budget", "0.0"), id="place-zero-budget"),
        pytest.param(["place", "no-such-scenario.json", "--primary", "a", "--budget", "0"], 1,
                     ("--budget",), id="place-zero-budget-missing-scenario"),
        # named as advise and simulate name it, before a secondary is looked for
        pytest.param(["place", "{scenario}", "--primary", "zz", "--budget", "1"], 2,
                     ("unknown modality 'zz'",), id="place-unknown-primary"),
        pytest.param(["simulate", "{no_modalities}", "--method", "ml"], 2,
                     ("'modalities' must list at least one modality",),
                     id="simulate-no-modalities"),
        pytest.param(["place", "{scenario}", "--primary", "a", "--budget", "inf"], 1,
                     ("--budget", "inf"), id="place-inf-budget"),
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--seed", "-1"], 1,
                     ("--seed", "-1"), id="simulate-negative-seed"),
        # refused by the upper bound on --N, before anything is drawn
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--N", "2000000000000"], 1,
                     ("--N", "2000000000000"), id="simulate-unallocatable-N"),
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--N", "1000000001"], 1,
                     ("--N", "1000000001", "1000000000"), id="simulate-N-above-limit"),
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--N", "10"], 1,
                     ("--N", "10"), id="simulate-small-N"),
        pytest.param(["simulate", "{scenario}", "--method", "ml", "--N", "-5"], 1,
                     ("--N", "-5"), id="simulate-negative-N"),
        pytest.param(["analyze", "{huge_entry}", "--modality", "a"], 2,
                     ("modalities[0] 'a': mixing matrix", "got entries of dtype object"),
                     id="entry-beyond-float-range"),
        pytest.param(["analyze", "{three_sources}", "--modality", "c"], 2,
                     ("channels 1 < sources 3",), id="analyze-underdetermined-modality"),
        pytest.param(["analyze", "{three_sources}", "--joint", "c,d"], 2,
                     ("total channels 2 < sources 3",), id="analyze-underdetermined-pair"),
        pytest.param(["simulate", "{info_only}", "--method", "mmse", "--N", "1000"], 2,
                     ("MMSE requires Gaussian prior",), id="simulate-mmse-info-only"),
        pytest.param(["simulate", "{info_only}", "--method", "ml", "--N", "1000"], 2,
                     ("not sampleable",), id="simulate-ml-info-only"),
        pytest.param(["advise", "{tol_inf_string}", "--pair", "a,b"], 2,
                     ("'regime_eps'", "'inf'"), id="tolerance-string-inf"),
        pytest.param(["advise", "{tol_numeric_string}", "--pair", "a,b"], 2,
                     ("'dominance'", "'1e-9'"), id="tolerance-numeric-string"),
        pytest.param(["advise", "{tol_nan}", "--pair", "a,b"], 2,
                     ("'select_gain'", "nan"), id="tolerance-nan"),
        pytest.param(["advise", "{tol_negative}", "--pair", "a,b"], 2,
                     ("'redundancy'", "-1"), id="tolerance-negative"),
        pytest.param(["advise", "{tol_huge}", "--pair", "a,b"], 2,
                     ("'dominance'", "beyond float range"), id="tolerance-beyond-float-range"),
        pytest.param(["advise", "{tol_bool}", "--pair", "a,b"], 2,
                     ("'redundancy'", "True"), id="tolerance-bool"),
        # refused at load, so by a command that never imports the advisor too
        pytest.param(["analyze", "{tol_inf_string}", "--modality", "a"], 2,
                     ("'regime_eps'", "'inf'"), id="analyze-tolerance-string-inf"),
        pytest.param(["analyze", "{tol_nan}", "--modality", "a"], 2,
                     ("'select_gain'", "nan"), id="analyze-tolerance-nan"),
        pytest.param(["analyze", "{nan_mean}", "--modality", "a"], 2,
                     ("bad source prior", "mean must be a finite real array",
                      "got a non-finite entry"),
                     id="analyze-nan-mean"),
        pytest.param(["simulate", "{inf_mean}", "--method", "mmse", "--N", "1000"], 2,
                     ("bad source prior", "mean must be a finite real array",
                      "got a non-finite entry"),
                     id="simulate-inf-mean"),
        # the campaign's second moments overflow: refused, not printed as NaN or Infinity
        pytest.param(["simulate", "{huge_mean}", "--method", "ml", "--N", "1000", "--modality",
                      "b"], 3, ("(NonFinite)", "empirical error covariance"),
                     id="simulate-overflowing-errors"),
        pytest.param(["simulate", "{huge_noise}", "--method", "ml", "--N", "1000", "--modality",
                      "b"], 3, ("(NonFinite)", "empirical error covariance"),
                     id="simulate-overflowing-moments"),
    ],
)
def test_bad_input_is_one_typed_line(tmp_path, two_modality_doc, argv, code, names):
    # a fresh interpreter shows what a user sees: the exit code and stderr
    # alone, a traceback included
    paths = {"{scenario}": write_scenario(tmp_path / "s.json", two_modality_doc),
             "{dir}": str(tmp_path), "{unwritable}": str(tmp_path / "missing" / "report")}
    for key, edit in _VARIANTS.items():
        if key in argv:
            doc = json.loads(json.dumps(two_modality_doc))
            edit(doc)
            paths[key] = write_scenario(tmp_path / "variant.json", doc)
    out = subprocess.run([sys.executable, "-m", "fusionkit.cli", *(paths.get(a, a) for a in argv)],
                         env=fresh_interpreter_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == code, out.stderr
    assert "Traceback" not in out.stderr and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        {1: "usage error:", 2: "scenario error:", 3: "numerical failure in"}[code]), out.stderr
    assert all(name in lines[0] for name in names), out.stderr


def test_cli_imports_no_scipy():
    # a fresh interpreter, so modules imported by the test session do not
    # count; no thread pool either (concurrent.futures also pulls in logging)
    code = ("import sys, fusionkit.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def fresh_modules(code):
    """Submodules of fusionkit, and numpy.random, loaded by ``code`` in a fresh interpreter."""
    probe = (f"{code}\nimport sys\n"
             "print(' '.join(m for m in sys.modules "
             "if m.startswith('fusionkit.') or m == 'numpy.random'))")
    out = subprocess.run([sys.executable, "-c", probe], env=fresh_interpreter_env(),
                         capture_output=True, text=True, check=True, timeout=120)
    return set(out.stdout.splitlines()[-1].split())


CLI_MODULES = {"fusionkit.cli", "fusionkit.errors", "fusionkit.matrixkit", "fusionkit.model",
               "fusionkit.information"}


def test_package_import_loads_no_submodule():
    # a name outside the export table is refused without importing anything
    code = ("import fusionkit\n"
            "try:\n    fusionkit.nope\nexcept AttributeError as exc:\n"
            "    assert \"'nope'\" in str(exc), exc\nelse:\n    raise SystemExit(1)")
    assert fresh_modules(code) == set()


def test_submodule_attribute_imports_it():
    code = "import fusionkit\nfusionkit.placement.optimal_secondary"
    assert fresh_modules(code) == CLI_MODULES - {"fusionkit.cli"} | {"fusionkit.placement"}


def test_cli_import_loads_four_modules():
    assert fresh_modules("import fusionkit.cli") == CLI_MODULES


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["analyze", "{scenario}", "--modality", "a"], set()),
        (["analyze", "{scenario}", "--joint", "a,b"], set()),
        (["advise", "{scenario}", "--pair", "a,b"], {"fusionkit.advisor"}),
        (["place", "{scenario}", "--primary", "a", "--budget", "5"], {"fusionkit.placement"}),
        (["simulate", "{scenario}", "--method", "mmse", "--N", "1000"],
         {"fusionkit.harness", "fusionkit.estimators", "numpy.random"}),
    ],
    ids=["analyze-modality", "analyze-joint", "advise", "place", "simulate"],
)
def test_command_imports_only_what_it_runs(tmp_path, two_modality_doc, argv, extra):
    path = write_scenario(tmp_path / "s.json", two_modality_doc)
    argv = [path if a == "{scenario}" else a for a in argv] + ["--out", str(tmp_path / "report")]
    code = f"from fusionkit.cli import main\nassert main({argv!r}) == 0"
    assert fresh_modules(code) == CLI_MODULES | extra


def test_star_import_binds_the_public_names():
    from test_surface import PUBLIC

    namespace = {}
    exec("from fusionkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_demo_reports_smoke(demo_reports_out):
    # every README demo command answers, except the budget below the
    # attainable minimum, which no solution branch reaches yet (exit 3)
    out = demo_reports_out
    codes = {d.name: int((d / "exit_code").read_text()) for d in out.iterdir() if d.is_dir()}
    assert len(codes) == 10
    assert codes.pop("place-ecg-0.001") == 3
    assert set(codes.values()) == {0}
    assert json.loads((out / "analyze-joint" / "stdout").read_text())["pair"] == ["ecg", "ppg"]
    assert (out / "simulate-ml" / "campaign.csv").is_file()


def _leaf_paths(node, path=()):
    """Paths to every value in ``node`` that is not an object: each number and string, each list."""
    if isinstance(node, dict):
        return [p for key, child in node.items() for p in _leaf_paths(child, path + (key,))]
    if isinstance(node, list):
        return [path] + [p for i, child in enumerate(node) for p in _leaf_paths(child, path + (i,))]
    return [path]


_README_LEAVES = _leaf_paths(readme_demo())
_ODD_VALUES = st.one_of(
    st.sampled_from([True, False, "", "ecg", None, [], [[]], [[1.0, 0.5], [0.2]]]),
    st.sampled_from([0, 1e308, -1e308, 1e-320]),
    st.builds(lambda scale, rows, cols: (scale * np.eye(rows, cols)).tolist(),
              st.sampled_from([0.0, 1e300, 1e-300]), st.integers(1, 3), st.integers(1, 3)),
)
_QUESTIONS = [["analyze", "--modality", "ecg"], ["analyze", "--joint", "ecg,ppg"],
              ["advise", "--pair", "ecg,ppg"], ["place", "--primary", "ecg", "--budget", "2.0"],
              ["simulate", "--method", "ml", "--N", "1000"],
              ["simulate", "--method", "mmse", "--N", "1000"]]


@settings(max_examples=400)
@given(edits=st.lists(st.tuples(st.sampled_from(_README_LEAVES), _ODD_VALUES),
                      min_size=1, max_size=2),
       question=st.sampled_from(_QUESTIONS))
def test_every_mutated_readme_scenario_is_answered_or_refused_in_one_line(edits, question):
    # CLI totality: a valid argv on any scenario document exits 0 (answered),
    # 2 (scenario error) or 3 (numerical failure), never 1, with one line on
    # stderr, no traceback, and nothing on stdout unless it answered
    doc = readme_demo()
    for path, value in edits:
        *parents, last = path
        try:
            node = doc
            for key in parents:
                node = node[key]
            node[last] = json.loads(json.dumps(value))
        except (KeyError, IndexError, TypeError):
            pass  # the first edit replaced a container of this leaf
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([question[0], write_scenario(Path(tmp) / "s.json", doc), *question[1:]])
    assert code in (0, 2, 3)
    assert len(err.getvalue().splitlines()) == 1 and not caught, (err.getvalue(), caught)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or out.getvalue() == ""
