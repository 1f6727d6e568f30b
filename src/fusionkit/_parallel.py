"""Seed-split block scheduling for Monte-Carlo loops.

Blocks are derived from a single seed via ``SeedSequence.spawn`` and
reduced in block order, so results are identical whether blocks run
sequentially or on a thread pool. ``FUSIONKIT_THREADS`` caps the worker
count (0 or unset = auto). :func:`mc_moments` is the one Monte-Carlo
reduction: every matrix-valued estimate is a block-ordered sum of
whole-block sums.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .matrixkit import symmetrize

DEFAULT_BLOCK = 8192


def worker_count(n_blocks: int) -> int:
    """Number of workers to use for ``n_blocks`` independent blocks."""
    raw = os.environ.get("FUSIONKIT_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_blocks))


def block_plan(seed: int, N: int, block: int = DEFAULT_BLOCK):
    """Split N draws into seed-derived blocks: list of (SeedSequence, count)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    counts = [block] * (N // block)
    if N % block:
        counts.append(N % block)
    if not counts:
        counts = [0]
    children = np.random.SeedSequence(seed).spawn(len(counts))
    return list(zip(children, counts))


def map_blocks(fn: Callable, plan: Sequence) -> list:
    """Apply ``fn(seed_seq, count)`` to every block, preserving block order."""
    workers = worker_count(len(plan))
    if workers == 1:
        return [fn(ss, count) for ss, count in plan]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda item: fn(item[0], item[1]), plan))


def mc_moments(prior, N: int, seed: int, integrand: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo mean and per-entry standard error of a matrix-valued integrand.

    ``integrand`` maps a (count, m) block of prior draws to the
    (count, k, k) stack of its values. Each block contributes its sum and
    sum of squares over the whole block; blocks are added in block order,
    so the estimate does not depend on the worker count. Returns the
    symmetrized mean and ``sqrt(var / N)``.
    """

    # The block function carries the integrand's name and module, so a
    # per-block profile attributes each block to the computation it runs.
    @functools.wraps(integrand)
    def one_block(ss, count):
        mats = integrand(prior.sample(np.random.default_rng(ss), count))
        return mats.sum(axis=0), (mats**2).sum(axis=0)

    parts = map_blocks(one_block, block_plan(seed, N))
    s1 = sum(b[0] for b in parts)
    s2 = sum(b[1] for b in parts)
    mean = s1 / N
    var = np.maximum(s2 / N - mean**2, 0.0)
    return symmetrize(mean), np.sqrt(var / N)
