"""Data model types: linear mixtures, source priors, noise pairs, sampling.

The observation model is ``x = A s + v`` with an n x m mixing matrix A,
source vector s and additive zero-mean noise v. Two sensor groups share
the source and may have cross-correlated noise, described jointly by a
:class:`~fusionkit.matrixkit.BlockCovariance`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import NoPriorInfo, NoScore, NotPD, NotSampleable
from .matrixkit import (
    BlockCovariance,
    _read_only_copy,
    _require_psd,
    admit_symmetric,
    inverse_factor,
    noise_whitener,
    require_symmetric,
    symmetrize,
)

if TYPE_CHECKING:
    from .information import PairFactorization


@dataclass(frozen=True)
class LinearModel:
    """Linear mixing model ``x = A s + v`` with A of shape (n, m).

    ``A`` is kept as a read-only float copy: writing to the array passed in
    changes nothing here, and writing to ``A`` raises ``ValueError``.
    :func:`~fusionkit.matrixkit.noise_whitener` memoizes the last admitted
    noise covariance, its Cholesky factor and that factor's inverse in
    ``_whitener``.
    """

    A: np.ndarray
    _whitener: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        A = _read_only_copy(self.A)
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError(f"mixing matrix must be 2-D and nonempty, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("mixing matrix has non-finite entries")
        object.__setattr__(self, "A", A)

    @property
    def n(self) -> int:
        """Channel (observation) count."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Source count."""
        return self.A.shape[1]


class SourcePrior:
    """Base class for source priors.

    A prior may be sampleable and may expose an information matrix (the
    expected outer product of the score of its log-density) and a score.
    Subclasses override whichever pieces exist; the defaults raise.
    """

    m: int

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotSampleable(f"{type(self).__name__} cannot produce samples")

    def info_matrix(self) -> np.ndarray:
        raise NoPriorInfo(f"{type(self).__name__} does not expose an information matrix")

    def score(self, s: np.ndarray) -> np.ndarray:
        raise NoScore(f"{type(self).__name__} has no score function")

    @property
    def has_info(self) -> bool:
        try:
            self.info_matrix()
        except NoPriorInfo:
            return False
        return True


@dataclass(frozen=True)
class GaussianPrior(SourcePrior):
    """Gaussian source prior N(mean, cov); information matrix is cov^-1.

    ``mean`` and ``cov`` are kept as read-only float copies, as are the
    information matrix and the sampling root computed from them once, both
    from one Cholesky factor ``L L^T`` of the symmetric part of ``cov``
    (:func:`~fusionkit.matrixkit.inverse_factor`): samples are
    ``mean + z L^T``, the information ``L^-T L^-1``. ``cov`` is refused as
    :class:`NotPSD` by the one PSD rule
    (:func:`~fusionkit.matrixkit._require_psd`), then as :class:`NotPD`
    unless its smallest eigenvalue is positive and as :class:`Singular`
    above ``SINGULAR_CONDITION``.
    """

    mean: np.ndarray
    cov: np.ndarray
    _factor: np.ndarray = field(init=False, repr=False)
    _info: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(_read_only_copy(self.mean))
        cov = require_symmetric(_read_only_copy(self.cov), name="source covariance")
        if mean.shape != (cov.shape[0],):
            raise ValueError(f"mean shape {mean.shape} does not match cov {cov.shape}")
        if not np.all(np.isfinite(mean)):
            raise ValueError("source mean has non-finite entries")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        # cov is kept as given; Cholesky reads one triangle, so it factors the symmetric part
        S = symmetrize(cov)
        try:
            L, L_inv = inverse_factor(S, "source covariance")
        except NotPD:
            _require_psd(np.linalg.eigvalsh(S), "source covariance")
            raise
        info = L_inv.T @ L_inv
        L.setflags(write=False)
        info.setflags(write=False)
        object.__setattr__(self, "_factor", L)
        object.__setattr__(self, "_info", info)

    @property
    def m(self) -> int:
        return self.mean.shape[0]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        z = rng.standard_normal((size, self.m))
        return z @ self._factor.T + self.mean

    def info_matrix(self) -> np.ndarray:
        return self._info

    def score(self, s: np.ndarray) -> np.ndarray:
        return -(np.atleast_2d(s) - self.mean) @ self._info


@dataclass(frozen=True)
class InfoOnlyPrior(SourcePrior):
    """Prior known only through its information matrix J_s (PSD, may be zero).

    ``J_s = 0`` represents a deterministic/unknown source with no prior
    information, unifying the deterministic CRLB with the Bayesian one.
    ``J_s`` is kept as a read-only float copy, symmetric to the last bit (an
    input within the symmetry tolerance as its symmetric part); an
    indefinite one is refused as :class:`NotPSD`.
    """

    J_s: np.ndarray

    def __post_init__(self):
        J = _read_only_copy(admit_symmetric(self.J_s, name="J_s"))
        _require_psd(np.linalg.eigvalsh(J), "J_s")
        object.__setattr__(self, "J_s", J)

    @property
    def m(self) -> int:
        return self.J_s.shape[0]

    def info_matrix(self) -> np.ndarray:
        return self.J_s


@dataclass(frozen=True)
class SamplerPrior(SourcePrior):
    """Prior defined by a sampling function and an optional score function.

    ``draw(rng, size)`` returns a (size, m) array. ``score_fn``, when
    given, maps a (N, m) batch to the (N, m) gradient of the log-density;
    without it the prior information matrix is unavailable (not silently
    zero).
    """

    m: int
    draw: Callable[[np.random.Generator, int], np.ndarray]
    score_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = np.asarray(self.draw(rng, size), dtype=float)
        if out.shape != (size, self.m):
            raise ValueError(f"draw returned shape {out.shape}, expected {(size, self.m)}")
        return out

    def score(self, s: np.ndarray) -> np.ndarray:
        if self.score_fn is None:
            raise NoScore("SamplerPrior constructed without a score function")
        return np.asarray(self.score_fn(np.atleast_2d(s)), dtype=float)


@dataclass(frozen=True)
class ModalityPair:
    """Two sensor groups observing the same source with jointly Gaussian noise.

    The pair is immutable (its models and noise hold read-only arrays), so
    :meth:`~fusionkit.information.PairFactorization.from_pair` memoizes its
    result in ``_factorization``: ``joint_information``,
    ``synergy_matrices`` and ``advise`` on one pair share one factorization.
    """

    first: LinearModel
    second: LinearModel
    noise: BlockCovariance
    _factorization: PairFactorization | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        require_pair_shapes(self.first, self.second, self.noise)

    @property
    def m(self) -> int:
        return self.first.m


def require_pair_shapes(first, second, noise: BlockCovariance) -> None:
    """Refuse a pair whose models differ in ``m`` or whose noise blocks do not match their ``n``.

    ``first`` and ``second`` are any models with ``n`` and ``m``, linear or
    nonlinear; the check reads nothing else, so it runs before any map.
    """
    if first.m != second.m:
        raise ValueError(
            f"modalities must share the source dimension: {first.m} != {second.m}"
        )
    if noise.n1 != first.n or noise.n2 != second.n:
        raise ValueError(
            f"noise block dims ({noise.n1}, {noise.n2}) do not match "
            f"channel counts ({first.n}, {second.n})"
        )


def require_prior_size(prior: SourcePrior, m: int) -> None:
    """Refuse a prior whose source dimension is not the model's ``m``, before any draw."""
    if prior.m != m:
        raise ValueError(f"prior has {prior.m} sources, model has {m}")


@dataclass(frozen=True)
class SampleBatch:
    """Simulated sources and observations, reproducible from the seed."""

    sources: np.ndarray
    observations: np.ndarray
    seed: int
    second_observations: np.ndarray | None = None


def simulate(model, prior: SourcePrior, N: int, seed: int, noise=None) -> SampleBatch:
    """Draw N source/observation rows from the scenario, deterministically per seed.

    Sources come from the prior; noise is jointly Gaussian with the
    configured (cross-)covariance, drawn as ``z L^T`` through its lower
    Cholesky factor ``L``: for one model the factor that
    :func:`~fusionkit.matrixkit.noise_whitener` memoizes on it, for a pair
    that of the assembled joint covariance. Source and noise streams use
    independent children of the seed, so each is reproducible on its own.

    A :class:`ModalityPair` carries its own noise, so ``noise`` must be
    ``None`` for one.

    Raises
    ------
    NotSampleable
        If the prior has no sampling function (information-only priors).
    NotPD, Singular
        If the noise cannot be factored: as
        :func:`~fusionkit.matrixkit.inverse_factor` refuses it, before any draw.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    pair = isinstance(model, ModalityPair)
    if pair and noise is not None:
        raise ValueError("a modality pair carries its own noise: pass noise=None")
    # the noise and the prior are checked before any draw
    if pair:
        L, _ = inverse_factor(model.noise.joint(), "joint noise covariance")
    else:
        L, _ = noise_whitener(model, noise)
    require_prior_size(prior, model.m)
    sources, noise_rows = draw_rows(prior, L, N, draw_streams(seed))
    if not pair:
        return SampleBatch(sources=sources, observations=sources @ model.A.T + noise_rows,
                           seed=seed)
    n1 = model.first.n
    x = sources @ model.first.A.T + noise_rows[:, :n1]
    y = sources @ model.second.A.T + noise_rows[:, n1:]
    return SampleBatch(sources=sources, observations=x, seed=seed, second_observations=y)


def draw_streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The source and noise generators of ``seed``: two independent children of it."""
    src_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(src_ss), np.random.default_rng(noise_ss)


def draw_rows(prior: SourcePrior, L: np.ndarray, count: int,
              streams: tuple[np.random.Generator, np.random.Generator]):
    """The next ``count`` source rows and noise rows ``z Lᵀ`` of the two ``streams``.

    Each stream continues where its last draw ended, so successive calls
    give the noise rows, and a :class:`GaussianPrior`'s sources, that one
    call for the whole count gives. A :class:`SamplerPrior`'s ``draw`` is
    called once per call, with ``count``.
    """
    source_rng, noise_rng = streams
    sources = prior.sample(source_rng, count)
    return sources, noise_rng.standard_normal((count, L.shape[0])) @ L.T
