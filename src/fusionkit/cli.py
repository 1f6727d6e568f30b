"""Command-line front-end: scenario files in, JSON/CSV reports out.

Commands are deterministic given (scenario file, flags, seed). Reports
are machine-first: JSON to stdout or ``--out``, with a one-line human
summary on stderr. Exit codes: 0 success, 1 usage error, 2 scenario
error, 3 numerical error. :func:`main` prints every refusal, as one typed
line on stderr. Commands run with numpy's floating-point warnings off:
an overflow surfaces as the typed :class:`NonFinite` error (exit 3).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .advisor import AdvisorTolerances, advise
from .errors import FusionKitError, NonFinite, NotPD, NotSampleable
from .harness import campaign_to_csv, campaign_to_json, empirical_error_covariance
from .information import PairFactorization, crlb, prewhiten, snr_matrix, total_information
from .matrixkit import BlockCovariance, psd_check, require_noise, sym_sqrt
from .model import GaussianPrior, InfoOnlyPrior, LinearModel, ModalityPair, SourcePrior
from .placement import optimal_secondary

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3


class ScenarioError(Exception):
    """Scenario file cannot be loaded, or cannot answer the command asked of it."""


@dataclass
class Scenario:
    """Parsed scenario document."""

    id: str
    prior: SourcePrior
    modalities: dict[str, tuple[LinearModel, np.ndarray]]
    cross: dict[tuple[str, str], np.ndarray]
    tolerances: AdvisorTolerances

    def modality(self, name: str) -> tuple[LinearModel, np.ndarray]:
        if name not in self.modalities:
            raise ScenarioError(
                f"unknown modality {name!r}; scenario defines {sorted(self.modalities)}"
            )
        return self.modalities[name]

    def pair(self, first: str, second: str) -> ModalityPair:
        model_a, noise_a = self.modality(first)
        model_b, noise_b = self.modality(second)
        if first == second:
            raise ScenarioError(f"pair {[first, second]} must name two distinct modalities")
        if (first, second) in self.cross:
            sigma_vu = self.cross[(first, second)]
        elif (second, first) in self.cross:
            sigma_vu = self.cross[(second, first)].T
        else:
            sigma_vu = np.zeros((model_a.n, model_b.n))
        # the loader has checked every block this assembles
        noise = BlockCovariance(noise_a, noise_b, sigma_vu)
        return ModalityPair(first=model_a, second=model_b, noise=noise)


def _known_keys(obj, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key of the JSON object ``obj`` outside ``keys``; ``where`` is its path."""
    if isinstance(obj, dict):
        for key in obj:
            if key not in keys:
                raise ScenarioError(f"unknown key {key!r} at {where}; known keys: {list(keys)}")


def _numbers(obj, what: str) -> None:
    """Refuse a leaf of the nested JSON lists ``obj`` that is not a number (a bool, say)."""
    items = [obj]
    while items:
        x = items.pop()
        if type(x) is list:
            items.extend(x)
        elif type(x) not in (int, float):
            raise ScenarioError(f"{what} has an entry that is not a number: {json.dumps(x)}")


def _matrix(obj, what: str) -> np.ndarray:
    _numbers(obj, what)
    try:
        M = np.asarray(obj, dtype=float)
    except OverflowError as exc:  # a JSON integer beyond float range
        raise ScenarioError(f"{what} has an entry beyond float range") from exc
    if not np.all(np.isfinite(M)):
        raise ScenarioError(f"{what} has non-finite entries")
    return M


def _cross_entry(entry, names: list[str]) -> tuple[tuple[str, str], np.ndarray]:
    """Modality names and matrix of one ``cross_cov`` entry."""
    try:
        i, j = entry["pair"]
        matrix = _matrix(entry["matrix"], "cross_cov matrix")
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"bad cross_cov entry: {exc}") from exc
    indices = (i, j)
    if not all(type(k) is int and 0 <= k < len(names) for k in indices):
        raise ScenarioError(f"cross_cov pair {list(indices)} out of range")
    if i == j:
        raise ScenarioError(f"cross_cov pair {list(indices)} must name two distinct modalities")
    return (names[i], names[j]), matrix


def _tolerance(key: str, value) -> float:
    """One ``tolerances`` entry: a finite, non-negative JSON number, not a string or a bool."""
    if type(value) not in (int, float):
        raise ScenarioError(f"bad tolerances: {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:  # a JSON integer beyond float range
        raise ScenarioError(f"bad tolerances: {key!r} is beyond float range") from exc
    if not 0.0 <= number < np.inf:
        raise ScenarioError(
            f"bad tolerances: {key!r} must be finite and non-negative, got {value!r}"
        )
    return number


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON document; the first fault found raises :class:`ScenarioError`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ScenarioError(f"scenario file not found: {path}") from exc
    except OSError as exc:  # a directory, say
        raise ScenarioError(f"scenario file cannot be read: {path} ({exc.strerror})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or "sources" not in doc or "modalities" not in doc:
        raise ScenarioError("scenario must define 'sources' and 'modalities'")
    _known_keys(doc, ("id", "sources", "modalities", "cross_cov", "tolerances"), "the top level")
    if not isinstance(doc["modalities"], list):
        raise ScenarioError("'modalities' must be a list of modality entries")
    scenario_id = doc.get("id", path.stem)
    if not isinstance(scenario_id, str):
        raise ScenarioError(f"'id' must be a string, got {json.dumps(scenario_id)}")

    src = doc["sources"]
    _known_keys(src, ("gaussian", "info_only"), "sources")
    if not isinstance(src, dict) or len(src) != 1:
        raise ScenarioError("sources must be 'gaussian' or 'info_only'")
    try:
        if "gaussian" in src:
            g = src["gaussian"]
            _known_keys(g, ("mean", "cov"), "sources.gaussian")
            _numbers(g["mean"], "source mean")
            prior: SourcePrior = GaussianPrior(
                mean=np.asarray(g["mean"], dtype=float), cov=_matrix(g["cov"], "source cov")
            )
        else:
            _known_keys(src["info_only"], ("J_s",), "sources.info_only")
            prior = InfoOnlyPrior(_matrix(src["info_only"]["J_s"], "J_s"))
    except (ValueError, KeyError, TypeError, OverflowError, FusionKitError) as exc:
        raise ScenarioError(f"bad source prior: {exc}") from exc

    modalities: dict[str, tuple[LinearModel, np.ndarray]] = {}
    names: list[str] = []
    for k, entry in enumerate(doc["modalities"]):
        _known_keys(entry, ("name", "A", "noise_cov"), f"modalities[{k}]")
        try:
            name = entry["name"]
            if not isinstance(name, str):
                raise ScenarioError(
                    f"modalities[{k}] 'name' must be a string, got {json.dumps(name)}"
                )
            model = LinearModel(_matrix(entry["A"], f"modality {name} A"))
            noise = _matrix(entry["noise_cov"], f"modality {name} noise_cov")
        except (ValueError, KeyError, TypeError) as exc:
            raise ScenarioError(f"bad modality entry: {exc}") from exc
        if name in modalities:
            raise ScenarioError(f"duplicate modality name {name!r}")
        if model.m != prior.m:
            raise ScenarioError(
                f"modality {name!r} has {model.m} sources but the prior has {prior.m}"
            )
        try:
            noise = require_noise(noise, model.n)
        except ValueError as exc:
            raise ScenarioError(f"modality {name!r}: {exc}") from exc
        min_eig, indefinite = psd_check(noise)
        if indefinite:
            raise ScenarioError(
                f"modality {name!r}: noise covariance has negative eigenvalue {min_eig:.3e}"
            )
        modalities[name] = (model, noise)
        names.append(name)

    cross: dict[tuple[str, str], np.ndarray] = {}
    raw_cross = doc.get("cross_cov")
    if raw_cross is not None:
        entries = raw_cross if isinstance(raw_cross, list) else [raw_cross]
        for k, entry in enumerate(entries):
            where = f"cross_cov[{k}]" if isinstance(raw_cross, list) else "cross_cov"
            _known_keys(entry, ("pair", "matrix"), where)
            key, matrix = _cross_entry(entry, names)
            if key in cross or key[::-1] in cross:
                raise ScenarioError(f"cross_cov for {list(key)} given twice")
            try:
                BlockCovariance(modalities[key[0]][1], modalities[key[1]][1], matrix).check_pd()
            except (ValueError, NotPD) as exc:
                raise ScenarioError(f"cross_cov {list(key)}: {exc}") from exc
            cross[key] = matrix

    tols = AdvisorTolerances()
    if "tolerances" in doc:
        raw_tols = doc["tolerances"]
        if not isinstance(raw_tols, dict):
            raise ScenarioError("'tolerances' must be an object of named values")
        _known_keys(raw_tols, ("dominance", "redundancy", "regime_eps", "select_gain"),
                    "tolerances")
        tols = AdvisorTolerances(**{k: _tolerance(k, v) for k, v in raw_tols.items()})

    return Scenario(
        id=scenario_id,
        prior=prior,
        modalities=modalities,
        cross=cross,
        tolerances=tols,
    )


def _emit(report: dict | list, out: str | None, summary: str) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # JSON has no token for inf or NaN
        raise NonFinite(f"non-finite value in the report: {exc}") from exc
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _tolist(M: np.ndarray) -> list:
    return np.asarray(M, dtype=float).tolist()


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.joint:
        first, second = _split_pair(args.joint, "--joint")
        pair = scenario.pair(first, second)
        if pair.first.n + pair.second.n < pair.m:
            raise ScenarioError(
                "Fisher information matrix is singular "
                f"(total channels {pair.first.n + pair.second.n} < sources {pair.m})"
            )
        fac = PairFactorization.from_pair(pair)
        J = fac.joint_information(scenario.prior)
        rep = fac.synergy()
        report = {
            "scenario_id": scenario.id,
            "pair": [first, second],
            "snr_first": _tolist(fac.snr_first),
            "snr_second": _tolist(fac.snr_second),
            "J_joint": _tolist(J.matrix),
            "crlb_joint": _tolist(crlb(J)),
            "S_x": _tolist(rep.S_x),
            "S_y": _tolist(rep.S_y),
            "min_eig_S_x": rep.min_eigenvalues[0],
            "min_eig_S_y": rep.min_eigenvalues[1],
            "route_max_rel_disagreement": fac.route_error,
            "sigma_max_rho": fac.sigma_max_rho,
            "near_singular": J.near_singular,
        }
        _emit(
            report,
            args.out,
            f"analyze[{scenario.id}]: joint({first},{second}) "
            f"trace(J)={float(np.trace(J.matrix)):.6g}",
        )
        return EXIT_OK

    name = args.modality
    if name is None:
        if len(scenario.modalities) != 1:
            raise ScenarioError("scenario has several modalities; pick one with --modality")
        name = next(iter(scenario.modalities))
    model, noise = scenario.modality(name)
    if model.n < model.m:
        raise ScenarioError(
            "Fisher information matrix is singular "
            f"(channels {model.n} < sources {model.m}); the ML estimate does not exist"
        )
    snr = snr_matrix(model, noise)
    J = total_information(snr, scenario.prior)
    report = {
        "scenario_id": scenario.id,
        "modality": name,
        "snr": _tolist(snr.matrix),
        "J_total": _tolist(J.matrix),
        "crlb": _tolist(crlb(J)),
    }
    _emit(
        report,
        args.out,
        f"analyze[{scenario.id}]: modality {name} trace(snr)={float(np.trace(snr.matrix)):.6g}",
    )
    return EXIT_OK


def cmd_advise(args) -> int:
    scenario = load_scenario(args.scenario)
    first, second = _split_pair(args.pair, "--pair")
    pair = scenario.pair(first, second)
    advisory = advise(pair, scenario.prior, tols=scenario.tolerances)
    report = {"scenario_id": scenario.id, "pair": [first, second]}
    report.update(advisory.to_json_dict())
    _emit(
        report,
        args.out,
        f"advise[{scenario.id}]: ({first},{second}) -> {advisory.verdict} "
        f"[{advisory.regime}]",
    )
    return EXIT_OK


def cmd_place(args) -> int:
    scenario = load_scenario(args.scenario)
    primary = args.primary
    secondary = args.secondary
    if secondary is None:
        others = [n for n in scenario.modalities if n != primary]
        if len(others) != 1:
            raise ScenarioError(
                "scenario does not identify a unique secondary; use --secondary"
            )
        secondary = others[0]
    pair = scenario.pair(primary, secondary)
    wp = prewhiten(pair)
    solution = optimal_secondary(wp.A_tilde, wp.rho, args.budget, prior=scenario.prior)
    report = {"scenario_id": scenario.id, "primary": primary, "secondary_noise": secondary}
    report.update(solution.to_json_dict())
    if solution.B_star is not None:
        L_u = sym_sqrt(pair.noise.sigma_u)
        report["B_star_unwhitened"] = _tolist(L_u @ solution.B_star)
    _emit(
        report,
        args.out,
        f"place[{scenario.id}]: primary {primary} budget {args.budget:.6g} -> "
        f"lambda={solution.lambda_:.6g} degenerate={solution.degenerate}",
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    if args.N < 1000:
        raise UsageError(f"--N must be at least 1000 for a meaningful estimate, got {args.N}")
    scenario = load_scenario(args.scenario)
    name = args.modality
    if name is None:
        name = next(iter(scenario.modalities))
    model, noise = scenario.modality(name)
    try:
        result = empirical_error_covariance(
            args.method,
            model,
            scenario.prior,
            noise,
            N=args.N,
            seed=args.seed,
            scenario_id=f"{scenario.id}:{name}",
        )
    except MemoryError as exc:  # numpy refuses the N-row draw
        raise UsageError(f"--N {args.N} is too large: the draw cannot be allocated") from exc
    except NotSampleable as exc:
        raise ScenarioError("scenario prior is not sampleable (info_only sources)") from exc
    results = [result]
    json_text = campaign_to_json(results) + "\n"
    csv_text = campaign_to_csv(results)
    if args.out:
        base = Path(args.out)
        base.with_suffix(".json").write_text(json_text)
        base.with_suffix(".csv").write_text(csv_text)
    else:
        sys.stdout.write(json_text)
    print(
        f"simulate[{scenario.id}]: {args.method} N={args.N} seed={args.seed} "
        f"rel_err={result.frobenius_rel_err:.4f} "
        f"crlb_passed={result.crlb_check.passed}",
        file=sys.stderr,
    )
    return EXIT_OK


def _split_pair(text: str, flag: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise UsageError(f"{flag} expects two comma-separated modality names")
    return parts[0], parts[1]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fusionkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="SNR/information/CRLB/synergy report")
    p.add_argument("scenario", help="Path to scenario JSON")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--modality", help="Analyze one named modality")
    group.add_argument("--joint", metavar="A,B", help="Analyze a fused pair by names")
    p.add_argument("--out", help="Write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("advise", help="Selection/fusion/redundancy advisory for a pair")
    p.add_argument("scenario")
    p.add_argument("--pair", metavar="A,B", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("place", help="Optimal secondary configuration under an SNR budget")
    p.add_argument("scenario")
    p.add_argument("--primary", required=True, help="Name of the fixed primary modality")
    p.add_argument(
        "--secondary",
        help="Modality whose noise model the secondary inherits "
        "(defaults to the only other modality)",
    )
    p.add_argument("--budget", type=float, required=True, help="SNR budget p")
    p.add_argument("--out")
    p.set_defaults(func=cmd_place)

    p = sub.add_parser("simulate", help="Monte-Carlo estimator verification campaign")
    p.add_argument("scenario")
    p.add_argument("--method", required=True, choices=["ml", "wls", "mmse"])
    p.add_argument("--N", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modality", help="Modality to simulate (default: first listed)")
    p.add_argument("--out", help="Base path; writes <base>.json and <base>.csv")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ScenarioError, ValueError) as exc:  # ValueError: a library's input check
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except FusionKitError as exc:
        print(
            f"numerical failure in {args.command} ({type(exc).__name__}): {exc}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    except (UsageError, OSError) as exc:  # OSError: an --out that cannot be written
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
