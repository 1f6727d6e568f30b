"""The benchmark's own tests.

    python3 -m pytest -q bench/tests

They run every workload at its shortest length (one cycle), so they take
a few minutes.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import fusionkit as fk  # noqa: E402
import reference  # noqa: E402
import workloads as w  # noqa: E402
from run import percentile, tail_percentile  # noqa: E402
from tracer import Tracer, lapack_calls  # noqa: E402
from worker import Phase  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run_bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=180,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def make(workload, seed, tmp_path):
    cls = w.WORKLOADS[workload]
    return cls(seed, tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_shortest_run_emits_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(workload, 1, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
        for spec in SPEC[key]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failure(workload, tmp_path):
    wl = make(workload, 3, tmp_path)
    # Exact references are perturbed by 1e-6. A Monte-Carlo estimate is only
    # checked to within 5 of its standard errors (up to about 15% of an
    # entry at 1500 samples), so the nonlinear references move by 30%.
    scale = 1.0 + (0.3 if workload == "mc-verify" else 1e-6)
    wl.check = functools.partial(type(wl).check, wl, ref_scale=scale)
    ask = wl.ask_traced  # in-process, so the CLI workload runs quickly
    phase = Phase(wl, ask, 0.0, wl.CYCLE_S)
    # The advisor's verdict has no numeric reference to perturb.
    exempt = 1 if workload == "cli-cold" else 0
    assert phase.failed == wl.CYCLE - exempt
    good = make(workload, 3, tmp_path)
    assert Phase(good, good.ask_traced, 0.0, good.CYCLE_S).failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    def fingerprints(seed, asking=0):
        wl = make(workload, seed, tmp_path)
        return [wl.fingerprint(wl.question(i, asking)) for i in range(2 * wl.CYCLE)]

    assert fingerprints(5) == fingerprints(5)
    assert fingerprints(5) != fingerprints(6)
    # Another asking asks other questions of the same kinds.
    assert fingerprints(5) != fingerprints(5, asking=1)


@pytest.mark.parametrize("workload", ["fusion-dense", "placement-design"])
def test_seed_fixes_exact_counts(workload):
    def counts():
        metrics = run_bench(workload, 4, 1)["metrics"]
        return {
            k: v["value"] for k, v in metrics.items()
            if k.startswith("lapack.") and k.endswith(".calls")
            or k in ("lapack.factorizations", "placement.objective_calls_per_solve")
        }

    assert counts() == counts()


def test_tail_percentile_leaves_ten_beyond():
    for n in (40, 90, 200):
        pct = tail_percentile(n)
        assert percentile(range(n), pct)[1] >= 10
        assert percentile(range(n), pct + 1)[1] < 10
    assert [tail_percentile(n) for n in (6, 20, 36)] == [75, 75, 75]


def test_reference_kernel_keeps_the_blas_thread_count():
    if reference._THREADS is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, put = reference._THREADS
    before = get()
    put(2)
    try:
        assert reference.kernel_seconds() > 0
        assert get() == 2
    finally:
        put(before)


def test_counts_reproduce_the_seed_commit():
    """One advise makes 46/8/18/30/3 eigvalsh/eigh/solve/cho_factor/svd calls at
    (40,30,10); one optimal_secondary makes 601 objective calls."""
    pl = w.planted_pair(np.random.default_rng(0), 40, 30, 10, "fuse")
    pair = pl.pair()
    wp = fk.prewhiten(pair)
    c, _ = w.budget_terms(wp.A_tilde, wp.rho)
    original = fk.advise
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        fk.advise(pair)
        advise_calls = {
            name: lapack_calls(tracer.calls, name)
            for name in ("eigvalsh", "eigh", "solve", "cho_factor", "svd")
        }
        fk.optimal_secondary(wp.A_tilde, wp.rho, 2.0 * float(np.sum(c)))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert advise_calls == {"eigvalsh": 46, "eigh": 8, "solve": 18, "cho_factor": 30, "svd": 3}
    assert tracer.objective_in_solve == 601
    assert fk.advise is original  # the patches are gone
