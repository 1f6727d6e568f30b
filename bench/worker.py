"""One benchmark process: set up a workload, run its questions, print a JSON line.

Started by ``run.py`` in a fresh interpreter with a scrubbed environment;
not meant to be run by hand. Set-up (imports, input generation, one
warm-up question) ends at the ``ready`` timestamp, on the system-wide
monotonic clock, so the parent can time it from the moment it spawned us.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def ask_and_check(wl, ask, q, tracer=None, reference=None):
    """(latency seconds, reference kernel seconds or None, errors) of one question.

    Only the question is timed; the reference kernel runs right after it and
    the check after that.
    """
    start = time.perf_counter()
    if tracer is not None:
        tracer.active = True
    try:
        answer = ask(q)
        errors = None
    except Exception as exc:  # noqa: BLE001 - any exception is a failed question
        errors = [f"{type(exc).__name__}: {exc}"]
    finally:
        if tracer is not None:
            tracer.active = False
    latency = time.perf_counter() - start
    kernel = reference() if reference is not None else None
    if errors is None:
        try:
            errors = wl.check(q, answer)
        except Exception:  # noqa: BLE001 - a check that cannot run is a failure
            errors = [f"check raised: {traceback.format_exc(limit=2)}"]
    return latency, kernel, errors


class Phase:
    """Closed loop, one client: a fixed number of whole cycles of questions.

    The number of cycles is fixed by ``seconds`` and the workload's nominal
    cycle time, so a run asks the same questions whatever the speed of the
    commit under test, and the tail percentile keeps its rank. Every
    question is generated afresh from ``(seed, asking, i)``, so a cache
    across calls gains nothing. With ``reference`` (a callable returning
    seconds) the host-speed kernel runs after every question.
    """

    def __init__(self, wl, ask, seconds, cycle_s, asking=0, tracer=None, on_cycle=None,
                 reference=None):
        self.errors: list[str] = []
        self.asked = self.failed = self.mc_samples = 0
        self.latencies: list[float] = []
        self.kernel: list[float] = []
        cycles = max(1, round(seconds / cycle_s))
        for cycle in range(cycles):
            for i in range(cycle * wl.CYCLE, (cycle + 1) * wl.CYCLE):
                q = wl.question(i, asking)
                self.mc_samples += wl.mc_samples(q)
                latency, kernel, errors = ask_and_check(wl, ask, q, tracer, reference)
                self.latencies.append(latency)
                if kernel is not None:
                    self.kernel.append(kernel)
                self.asked += 1
                if errors:
                    self.failed += 1
                    self.errors.extend(f"q{i}: {e}" for e in errors)
            if on_cycle is not None:
                on_cycle(cycle + 1)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def qps(self) -> float:
        """Questions per second of question time."""
        return len(self.latencies) / self.busy


def environment() -> dict:
    from importlib import metadata

    import numpy as np

    from reference import openblas_threads

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = openblas_threads()
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "FUSIONKIT_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_effective": threads[0]() if threads else None,
        "env": {k: os.environ.get(k) for k in names},
        "commit": commit,
        "load_generator": "one process, one client thread",
    }


def cli_import_ms(env) -> tuple[float, float]:
    """Fresh ``import fusionkit.cli`` time, and the share spent in scipy modules.

    The import is timed inside fresh interpreters (median of three), which
    is the import minus a bare interpreter's start-up. The scipy share sums
    the self times ``-X importtime`` reports for ``scipy`` modules.
    """
    code = "import time; t = time.perf_counter(); import fusionkit.cli; print(time.perf_counter() - t)"
    runs = []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        runs.append(float(out.stdout) * 1e3)
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fusionkit.cli"],
        env=env, capture_output=True, text=True, check=True,
    )
    scipy_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().split(".")[0] == "scipy":
            scipy_us += int(parts[0].split(":")[1])
    return statistics.median(runs), scipy_us / 1e3


def layer_metrics(wl, tracer, traced, untraced, counts, env) -> dict:
    """Per-layer metrics of a traced run (see the table in README.md)."""
    from tracer import factorizations, lapack_calls

    n = len(traced.latencies)
    cyc = wl.CYCLE
    calls, c_inclusive = counts["calls"], tracer.inclusive

    def per_q_ms(name):
        return c_inclusive[name] * 1e3 / n

    def self_ms(layer):
        return tracer.self_time[layer] * 1e3 / n

    def ratio(a, b):
        return a / b if b else 0.0

    lapack_self = tracer.self_time["lapack"]
    block_names = [k for k in calls if k.endswith(".block")]
    block_busy = sum(c_inclusive[k] for k in c_inclusive if k.endswith(".block"))
    pool = tracer.block_workers
    import_ms, import_scipy_ms = cli_import_ms(env)
    m = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.import_scipy_ms": (import_scipy_ms, "ms"),
        "cli.load_scenario_ms": (per_q_ms("cli.load_scenario"), "ms"),
        "cli.main_ms": (per_q_ms("cli.main"), "ms"),
        "matrixkit.self_ms": (self_ms("matrixkit"), "ms"),
        "information.self_ms": (self_ms("information"), "ms"),
        "information.route_disagreement_ms": (per_q_ms("information.route_disagreement"), "ms"),
        "advisor.self_ms": (self_ms("advisor"), "ms"),
        "advisor.detect_redundancy_ms": (per_q_ms("advisor.detect_redundancy"), "ms"),
        "estimators.self_ms": (self_ms("estimators"), "ms"),
        "lapack.self_ms": (lapack_self * 1e3 / n, "ms"),
        "python.self_ms": ((traced.busy - lapack_self) * 1e3 / n, "ms"),
        "placement.self_ms": (self_ms("placement"), "ms"),
        "placement.objective_calls_per_solve": (
            ratio(counts["objective_in_solve"], calls["placement.optimal_secondary"]), "count"),
        "placement.lambda_root_ms": (per_q_ms("placement.lambda_root"), "ms"),
        "placement.probe_ms": (per_q_ms("placement.local_optimality_probe"), "ms"),
        "nonlinear.self_ms": (self_ms("nonlinear"), "ms"),
        "nonlinear.h_calls_per_sample": (ratio(counts["h_calls"], counts["nonlinear_samples"]), "count"),
        "nonlinear.jac_calls": (calls["nonlinear.jac"] / cyc, "count"),
        "parallel.blocks": (sum(calls[k] for k in block_names) / cyc, "count"),
        "parallel.workers": (ratio(sum(w for _, w in pool), len(pool)), "count"),
        "parallel.block_busy_ms": (block_busy * 1e3 / n, "ms"),
        "parallel.utilization": (ratio(block_busy, sum(t * w for t, w in pool)), "ratio"),
        "harness.empirical_error_covariance_ms": (
            per_q_ms("harness.empirical_error_covariance"), "ms"),
        "model.simulate_ms": (per_q_ms("model.simulate"), "ms"),
        "model.simulate_samples_per_s": (
            ratio(tracer.simulate_samples, c_inclusive["model.simulate"]), "1/s"),
        "mc.samples_per_s": (untraced.mc_samples / untraced.busy, "1/s"),
        "trace.overhead_qps": (untraced.qps - traced.qps, "1/s"),
    }
    for name in ("psd_inverse", "schur_factors", "condition_estimate", "sym_sqrt"):
        m[f"matrixkit.{name}.calls"] = (calls[f"matrixkit.{name}"] / cyc, "count")
    for name in ("joint_fisher_routes", "prewhiten", "whitened_joint_fisher"):
        m[f"information.{name}.calls"] = (calls[f"information.{name}"] / cyc, "count")
    for name, entry_points in (
        ("eigvalsh", ("eigvalsh",)),
        ("eigh", ("eigh",)),
        ("svd", ("svd",)),
        ("cholesky", ("cholesky", "cho_factor")),
        ("solve", ("solve",)),
    ):
        m[f"lapack.{name}.calls"] = (lapack_calls(calls, *entry_points) / cyc, "count")
    m["lapack.factorizations"] = (factorizations(calls) / cyc, "count")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(m.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="write the traced run's spans here (JSON)")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        if args.workload == "cli-cold":
            import fusionkit.cli  # noqa: F401 - part of this workload's set-up
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cls = workloads.WORKLOADS[args.workload]
        wl = cls(args.seed, workdir, env)
        _, _, warmup_errors = ask_and_check(wl, wl.ask, wl.question(0, asking=workloads.WARMUP_ASKING))
        ready = time.monotonic()
        out = {"ready": ready, "attempted": 1, "failed": int(bool(warmup_errors)),
               "errors": warmup_errors}
        if not args.setup_only:
            out.update(run(wl, args, env))
            out["attempted"] += out.pop("questions")
            out["failed"] += out.pop("question_failures")
            out["errors"] = warmup_errors + out["errors"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["errors"] = out["errors"][:20]
    print(json.dumps(out))
    return 0


def run(wl, args, env) -> dict:
    out = {"environment": environment()}
    if not args.trace:
        import reference

        kernel = reference.kernel_seconds if wl.IN_PROCESS else None
        phase = Phase(wl, wl.ask, args.seconds, wl.CYCLE_S, reference=kernel)
        who = resource.RUSAGE_SELF if wl.IN_PROCESS else resource.RUSAGE_CHILDREN
        latencies = phase.latencies
        if wl.IN_PROCESS:
            # Each question's time at the reference host speed.
            latencies = [t * reference.NOMINAL_S / k for t, k in zip(latencies, phase.kernel)]
        out.update(
            latencies=latencies,
            raw_latencies=phase.latencies,
            kernel=phase.kernel,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
            questions=phase.asked,
            question_failures=phase.failed,
            errors=phase.errors,
        )
        return out

    from tracer import Tracer

    # Half the run untraced, half traced, both in-process and each on
    # questions of its own: the difference in throughput is the tracing
    # overhead.
    cycle_s = wl.TRACED_CYCLE_S or wl.CYCLE_S
    untraced = Phase(wl, wl.ask_traced, args.seconds / 2, cycle_s, asking=0)
    tracer = Tracer()
    tracer.install()
    counts = {}
    h_calls_before = wl.h_calls

    def snapshot_first_cycle(cycle):
        # Exact counts come from the first cycle only: the same questions
        # for a given seed, however fast the run is.
        if cycle == 1:
            counts.update(
                calls=Counter(tracer.calls),
                objective_in_solve=tracer.objective_in_solve,
                h_calls=wl.h_calls - h_calls_before,
                nonlinear_samples=tracer.block_samples["nonlinear"],
            )

    try:
        traced = Phase(wl, wl.ask_traced, args.seconds / 2, cycle_s, asking=1,
                       tracer=tracer, on_cycle=snapshot_first_cycle)
    finally:
        tracer.uninstall()
    out.update(
        layers=layer_metrics(wl, tracer, traced, untraced, counts, env),
        questions=untraced.asked + traced.asked,
        question_failures=untraced.failed + traced.failed,
        errors=untraced.errors + traced.errors,
        traced_questions=len(traced.latencies),
        spans_recorded=len(tracer.spans),
    )
    if args.spans_out:
        Path(args.spans_out).write_text(json.dumps(tracer.spans_json()))
    return out


if __name__ == "__main__":
    sys.exit(main())
