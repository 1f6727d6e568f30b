"""Command-line front-end: scenario files in, JSON/CSV reports out.

Commands are deterministic given (scenario file, flags, seed). Reports
are machine-first: JSON to stdout or ``--out``, with a one-line human
summary on stderr. Exit codes: 0 success, 1 usage error, 2 scenario
error, 3 numerical error. :func:`main` prints every refusal, as one typed
line on stderr. Commands run with numpy's floating-point warnings off:
an overflow surfaces as the typed :class:`NonFinite` error (exit 3).
``advise``, ``place`` and ``simulate`` import their modules when they run,
so a cold start compiles only the modules the command runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FusionKitError, NonFinite, NotPSD, NotSampleable
from .information import (
    PairFactorization,
    _prewhiten_with_root,
    crlb,
    snr_matrix,
    total_information,
)
from .matrixkit import BlockCovariance, _require_psd, admit_symmetric, require_integer, require_real
from .model import GaussianPrior, InfoOnlyPrior, LinearModel, ModalityPair, SourcePrior

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3
# simulate's --N runs from 1000 (a meaningful estimate) to MAX_N draws; a
# campaign streams its draws, so the upper bound is a run time, not memory
MAX_N = 10**9


class ScenarioError(Exception):
    """Scenario file cannot be loaded, or cannot answer the command asked of it."""


@dataclass
class Scenario:
    """Parsed scenario document."""

    id: str
    prior: SourcePrior
    modalities: dict[str, tuple[LinearModel, np.ndarray]]
    cross: dict[tuple[str, str], np.ndarray]
    tolerances: dict[str, float]  # checked overrides of the AdvisorTolerances defaults

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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a key given twice is refused.

    Plain ``json.loads`` keeps the last value of a repeated key, so the
    earlier one would be silently ignored.
    """
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def _numbers(obj, what: str):
    """``obj``, unchanged, unless a leaf of its nested JSON lists is not a number (a bool, say).

    numpy would read a JSON ``true`` among numbers as 1.0; every other fault
    of an array (its shape, a ragged row, an integer beyond 64 bits) is left
    to the library constructor that admits it.
    """
    items = [obj]
    while items:
        x = items.pop()
        if type(x) is list:
            items.extend(x)
        elif type(x) not in (int, float):
            raise ScenarioError(f"{what} has an entry that is not a number: {json.dumps(x)}")
    return obj


def _cross_entry(entry, names: list[str]) -> tuple[tuple[str, str], list]:
    """Modality names and matrix, as given, of one ``cross_cov`` entry."""
    try:
        i, j = entry["pair"]
        matrix = _numbers(entry["matrix"], "cross_cov matrix")
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"bad cross_cov entry: {exc}") from exc
    indices = (i, j)
    if not all(type(k) is int and 0 <= k < len(names) for k in indices):
        raise ScenarioError(f"cross_cov pair {list(indices)} out of range")
    if i == j:
        raise ScenarioError(f"cross_cov pair {list(indices)} must name two distinct modalities")
    return (names[i], names[j]), matrix


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON document; the first fault found raises :class:`ScenarioError`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=_unique_keys)
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
    if not doc["modalities"]:
        raise ScenarioError("'modalities' must list at least one modality")
    scenario_id = doc.get("id", path.stem)
    if not isinstance(scenario_id, str):
        raise ScenarioError(f"'id' must be a string, got {json.dumps(scenario_id)}")

    src = doc["sources"]
    _known_keys(src, ("gaussian", "info_only"), "sources")
    if not isinstance(src, dict) or len(src) != 1:
        raise ScenarioError("sources must be 'gaussian' or 'info_only'")
    where = f"sources.{next(iter(src))}"
    try:
        if "gaussian" in src:
            g = src["gaussian"]
            _known_keys(g, ("mean", "cov"), where)
            prior: SourcePrior = GaussianPrior(mean=_numbers(g["mean"], "source mean"),
                                               cov=_numbers(g["cov"], "source cov"))
        else:
            _known_keys(src["info_only"], ("J_s",), where)
            prior = InfoOnlyPrior(_numbers(src["info_only"]["J_s"], "J_s"))
    except (ValueError, KeyError, TypeError, FusionKitError) as exc:
        raise ScenarioError(f"bad source prior at {where}: {exc}") from exc

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
            A = _numbers(entry["A"], f"modality {name} A")
            noise = _numbers(entry["noise_cov"], f"modality {name} noise_cov")
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"bad modality entry: {exc}") from exc
        if name in modalities:
            raise ScenarioError(f"duplicate modality name {name!r}")
        try:  # a refusal of the library, prefixed with the place of the entry
            model = LinearModel(A)
            if model.m != prior.m:
                raise ScenarioError(
                    f"modality {name!r} has {model.m} sources but the prior has {prior.m}"
                )
            noise = admit_symmetric(noise, "noise covariance", model.n)
            _require_psd(np.linalg.eigvalsh(noise), "noise covariance")
        except (ValueError, NotPSD) as exc:
            raise ScenarioError(f"modalities[{k}] {name!r}: {exc}") from exc
        modalities[name] = (model, noise)
        names.append(name)

    cross: dict[tuple[str, str], np.ndarray] = {}
    raw_cross = doc.get("cross_cov", [])
    if not isinstance(raw_cross, (dict, list)):
        raise ScenarioError("'cross_cov' must be an entry object or a list of them")
    entries = raw_cross if isinstance(raw_cross, list) else [raw_cross]
    for k, entry in enumerate(entries):
        where = f"cross_cov[{k}]" if isinstance(raw_cross, list) else "cross_cov"
        _known_keys(entry, ("pair", "matrix"), where)
        key, matrix = _cross_entry(entry, names)
        if key in cross or key[::-1] in cross:
            raise ScenarioError(f"cross_cov for {list(key)} given twice")
        try:
            block = BlockCovariance(modalities[key[0]][1], modalities[key[1]][1], matrix)
            block.check_pd()
        except (ValueError, NotPSD) as exc:
            raise ScenarioError(f"{where} {list(key)}: {exc}") from exc
        cross[key] = block.sigma_vu
    if len(names) > 2:  # of two, the one cross_cov entry's check_pd checked the joint matrix
        blocks = {(a, a): modalities[a][1] for a in names} | cross | {
            (b, a): M.T for (a, b), M in cross.items()}
        joint = np.block([[blocks.get((a, b), np.zeros((len(blocks[a, a]), len(blocks[b, b]))))
                           for b in names] for a in names])
        try:
            _require_psd(np.linalg.eigvalsh(joint), f"joint noise covariance of modalities {names}")
        except NotPSD as exc:
            raise ScenarioError(str(exc)) from exc

    raw_tols = doc.get("tolerances", {})
    if not isinstance(raw_tols, dict):
        raise ScenarioError("'tolerances' must be an object of named values")
    _known_keys(raw_tols, ("dominance", "redundancy", "regime_eps", "select_gain"), "tolerances")
    try:  # each a finite non-negative JSON number, by the rule of AdvisorTolerances
        tols = {k: float(require_real(v, repr(k), "non-negative")) for k, v in raw_tols.items()}
    except ValueError as exc:
        raise ScenarioError(f"bad tolerances: {exc}") from exc

    return Scenario(
        id=scenario_id,
        prior=prior,
        modalities=modalities,
        cross=cross,
        tolerances=tols,
    )


def _emit(report: dict | list, out: str | Path | None, summary: str) -> None:
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
    from .advisor import AdvisorTolerances, advise

    scenario = load_scenario(args.scenario)
    first, second = _split_pair(args.pair, "--pair")
    pair = scenario.pair(first, second)
    advisory = advise(pair, scenario.prior, tols=AdvisorTolerances(**scenario.tolerances))
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
    from .placement import optimal_secondary

    _flag(require_real, args.budget, "--budget", "positive")
    scenario = load_scenario(args.scenario)
    primary = args.primary
    scenario.modality(primary)  # an unknown primary is named before the secondary is chosen
    secondary = args.secondary
    if secondary is None:
        others = [n for n in scenario.modalities if n != primary]
        if len(others) != 1:
            raise ScenarioError(
                "scenario does not identify a unique secondary; use --secondary"
            )
        secondary = others[0]
    pair = scenario.pair(primary, secondary)
    wp, L_u = _prewhiten_with_root(pair)
    solution = optimal_secondary(wp.A_tilde, wp.rho, args.budget, prior=scenario.prior)
    report = {"scenario_id": scenario.id, "primary": primary, "secondary_noise": secondary}
    report.update(solution.to_json_dict())
    if solution.B_star is not None:
        report["B_star_unwhitened"] = _tolist(L_u @ solution.B_star)
    _emit(
        report,
        args.out,
        f"place[{scenario.id}]: primary {primary} budget {args.budget:.6g} -> "
        f"lambda={solution.lambda_:.6g} degenerate={solution.degenerate}",
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .harness import campaign_to_csv, empirical_error_covariance

    _flag(require_integer, args.seed, "--seed")
    _flag(require_integer, args.N, "--N", 1000)
    if args.N > MAX_N:
        raise UsageError(f"--N must be at most {MAX_N}, got {args.N}")
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
    except NotSampleable as exc:
        raise ScenarioError("scenario prior is not sampleable (info_only sources)") from exc
    base = Path(args.out) if args.out else None
    _emit(
        [result.to_json_dict()],
        base and base.with_suffix(".json"),
        f"simulate[{scenario.id}]: {args.method} N={args.N} seed={args.seed} "
        f"rel_err={result.frobenius_rel_err:.4f} "
        f"crlb_passed={result.crlb_check.passed}",
    )
    if base:
        base.with_suffix(".csv").write_text(campaign_to_csv([result]))
    return EXIT_OK


def _flag(rule, *args) -> None:
    """Admit a flag by a scalar rule of ``matrixkit``, its refusal raised as :class:`UsageError`.

    A command admits its flags before it reads the scenario, so a bad flag
    exits 1 whatever the scenario holds.
    """
    try:
        rule(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
