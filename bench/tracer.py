"""Outside-in tracing of fusionkit: wraps functions, records spans and counts.

``Tracer.install`` replaces, in every ``fusionkit`` module, each binding of
a public fusionkit function with one timing wrapper. Modules import names
from each other (``from .matrixkit import psd_inverse``), so patching only
the defining module would miss calls. It also wraps the ``numpy.linalg`` and
``scipy.linalg`` entry points the library calls (layer ``lapack``) and
``NonlinearModel.jac``. The library itself is not changed.

A span is (id, parent, name, start, end). Spans stay in memory (up to
``MAX_SPANS``) and are written out by the caller at the end of the run;
counts, inclusive times and per-layer self times (span minus the child
spans it covers) are accumulated as spans close. ``map_blocks`` is special:
each Monte-Carlo block it runs becomes a ``<layer>.block`` span whose parent
is the ``map_blocks`` span, in whichever pool thread runs it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
from collections import Counter

LAPACK_ENTRY_POINTS = {
    "numpy.linalg": (
        "cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
        "pinv", "qr", "slogdet", "det", "solve", "svd",
    ),
    "scipy.linalg": (
        "cho_factor", "cho_solve", "cholesky", "eigh", "inv", "lu_factor",
        "lu_solve", "solve", "svd",
    ),
}
# Entry points that factorize their argument (cho_solve and lu_solve reuse one).
FACTORIZING = {
    "cholesky", "cho_factor", "eig", "eigh", "eigvals", "eigvalsh", "inv",
    "lstsq", "lu_factor", "pinv", "qr", "slogdet", "det", "solve", "svd",
}
MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.active = False
        self.spans: list[tuple] = []
        self.calls = Counter()  # span name -> calls
        self.inclusive = Counter()  # span name -> seconds
        self.self_time = Counter()  # layer -> seconds
        self.objective_in_solve = 0
        self.block_samples = Counter()  # layer -> Monte-Carlo samples in its blocks
        self.simulate_samples = 0
        self.block_workers: list[tuple[float, int]] = []  # (map_blocks wall, threads)

    # -- installation -----------------------------------------------------

    def install(self):
        import fusionkit

        modules = [fusionkit] + [
            importlib.import_module(f"fusionkit.{info.name}")
            for info in pkgutil.iter_modules(fusionkit.__path__)
        ]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__.startswith("fusionkit")
                ):
                    if id(value) not in wrappers:
                        layer = value.__module__.rsplit(".", 1)[-1].lstrip("_")
                        wrappers[id(value)] = self._wrap(f"{layer}.{value.__name__}", layer, value)
                    self._patch(module, attr, wrappers[id(value)])
        jac = fusionkit.nonlinear.NonlinearModel.jac
        self._patch(fusionkit.nonlinear.NonlinearModel, "jac", self._wrap("nonlinear.jac", "nonlinear", jac))
        for modname, names in LAPACK_ENTRY_POINTS.items():
            module = sys.modules.get(modname)  # scipy only if fusionkit imported it
            if module is None:
                continue
            short = modname.split(".")[0]
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    self._patch(module, name, self._wrap(f"lapack.{short}.{name}", "lapack", fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, layer, fn):
        tracer = self
        is_map_blocks = name == "parallel.map_blocks"
        is_simulate = name == "model.simulate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_map_blocks:
                return tracer._map_blocks(fn, *args, **kwargs)
            if is_simulate:
                n = args[2] if len(args) > 2 else kwargs["N"]
                with tracer._lock:
                    tracer.simulate_samples += n
            return tracer._span(name, layer, None, fn, args, kwargs)

        return wrapper

    def _span(self, name, layer, parent, fn, args, kwargs):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if parent is None and stack:
            parent = stack[-1][0]
        frame = [span_id, name, 0.0]  # id, name, seconds covered by children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            with self._lock:
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[layer] += duration - frame[2]
                if name == "placement.synergy_objective" and any(
                    f[1] == "placement.optimal_secondary" for f in stack
                ):
                    self.objective_in_solve += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((span_id, parent, name, start, end))

    def _map_blocks(self, map_blocks, fn, plan):
        threads = set()
        parent_box = []
        layer = getattr(fn, "__module__", "fusionkit").rsplit(".", 1)[-1].lstrip("_")

        def block(ss, count):
            threads.add(threading.get_ident())
            with self._lock:
                self.block_samples[layer] += count
            return self._span(f"{layer}.block", layer, parent_box[0], fn, (ss, count), {})

        def run(plan):
            parent_box.append(self._stack()[-1][0])
            start = time.perf_counter()
            out = map_blocks(block, plan)
            with self._lock:
                self.block_workers.append((time.perf_counter() - start, len(threads)))
            return out

        return self._span("parallel.map_blocks", "parallel", None, run, (plan,), {})

    def spans_json(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e}
            for i, p, n, s, e in self.spans
        ]


def lapack_calls(calls: Counter, *entry_points) -> int:
    """Calls to the named LAPACK entry points, numpy and scipy together."""
    return sum(
        n for key, n in calls.items()
        if key.startswith("lapack.") and key.rsplit(".", 1)[1] in entry_points
    )


def factorizations(calls: Counter) -> int:
    return lapack_calls(calls, *FACTORIZING)
