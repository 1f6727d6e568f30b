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
    callback_output,
    inverse_factor,
    noise_whitener,
    require_array,
    require_integer,
)

if TYPE_CHECKING:
    from .information import PairFactorization


@dataclass(frozen=True)
class LinearModel:
    """Linear mixing model ``x = A s + v`` with A of shape (n, m).

    ``A`` is admitted by :func:`~fusionkit.matrixkit.require_array`, a
    ``ValueError`` naming the mixing matrix unless it is a finite real 2-D
    array with no empty axis, and kept as a read-only float copy: writing
    to the array passed in changes nothing here, and writing to ``A``
    raises ``ValueError``.
    :func:`~fusionkit.matrixkit.noise_whitener` memoizes the last admitted
    noise covariance, its Cholesky factor and that factor's inverse in
    ``_whitener``, and the first estimator or SNR matrix on that noise adds
    the whitened model ``L^-1 A`` and its Gram matrix beside them.
    """

    A: np.ndarray
    _whitener: tuple[np.ndarray, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        A = require_array(self.A, "mixing matrix", (None, None))
        object.__setattr__(self, "A", _read_only_copy(A))

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

    def score(self, s) -> np.ndarray:
        """The (N, m) score at the source points ``s`` (:func:`source_rows`)."""
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

    ``cov`` is admitted by :func:`~fusionkit.matrixkit.admit_symmetric` and
    kept as admitted, symmetric to the last bit (an input within the
    symmetry tolerance as its symmetric part), as a read-only float copy;
    so is ``mean``, as are the information matrix and the sampling root
    computed from them once, both from one Cholesky factor ``L L^T`` of
    ``cov`` (:func:`~fusionkit.matrixkit.inverse_factor`): samples are
    ``mean + z L^T``, the information ``L^-T L^-1``.

    Raises
    ------
    ValueError
        Naming ``source covariance`` unless
        :func:`~fusionkit.matrixkit.admit_symmetric` admits ``cov`` (a finite
        real square matrix, symmetric within the tolerance); then naming
        ``mean`` unless :func:`~fusionkit.matrixkit.require_array` admits it as
        a finite real vector of one entry per source (a scalar for one source),
        before ``cov`` is factorized. A prior of no sources is refused so, as
        :class:`LinearModel` refuses an empty ``A``.
    NotPSD
        If ``cov`` is indefinite, by the one PSD rule
        (:func:`~fusionkit.matrixkit._require_psd`).
    NotPD, Singular
        Unless its smallest eigenvalue is positive, and above
        ``SINGULAR_CONDITION``.
    """

    mean: np.ndarray
    cov: np.ndarray
    _factor: np.ndarray = field(init=False, repr=False)
    _info: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cov = _read_only_copy(admit_symmetric(self.cov, "source covariance"))
        mean = _read_only_copy(require_array(self.mean, "mean", (cov.shape[0],)))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        try:
            L, L_inv = inverse_factor(cov, "source covariance")
        except NotPD:
            _require_psd(np.linalg.eigvalsh(cov), "source covariance")
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

    def score(self, s) -> np.ndarray:
        return -(source_rows(s, self.m) - self.mean) @ self._info


@dataclass(frozen=True)
class InfoOnlyPrior(SourcePrior):
    """Prior known only through its information matrix J_s (PSD, may be zero).

    ``J_s = 0`` represents a deterministic/unknown source with no prior
    information, unifying the deterministic CRLB with the Bayesian one.
    ``J_s`` is admitted by :func:`~fusionkit.matrixkit.admit_symmetric` and
    kept as a read-only float copy, symmetric to the last bit (an input
    within the symmetry tolerance as its symmetric part).

    Raises
    ------
    ValueError
        Naming ``J_s`` unless :func:`~fusionkit.matrixkit.admit_symmetric`
        admits it; a ``0 x 0`` one, a prior of no sources, has an empty axis.
    NotPSD
        If ``J_s`` is indefinite.
    """

    J_s: np.ndarray

    def __post_init__(self):
        J = _read_only_copy(admit_symmetric(self.J_s, "J_s"))
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
    zero). ``score`` admits its points by :func:`source_rows` before
    ``score_fn`` sees them. Output of any other shape is refused with a
    ``ValueError``, as is output of bools, complex numbers, strings or objects,
    naming ``draw`` or ``score`` (:func:`~fusionkit.matrixkit.callback_output`),
    and an ``m`` that is not an integer of at least 1
    (:func:`~fusionkit.matrixkit.require_integer`, whose ``int`` is kept).
    """

    m: int
    draw: Callable[[np.random.Generator, int], np.ndarray]
    score_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        object.__setattr__(self, "m", require_integer(self.m, "m", 1))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = callback_output(self.draw(rng, size), "draw")
        if out.shape != (size, self.m):
            raise ValueError(f"draw returned shape {out.shape}, expected {(size, self.m)}")
        return out

    def score(self, s) -> np.ndarray:
        if self.score_fn is None:
            raise NoScore("SamplerPrior constructed without a score function")
        s = source_rows(s, self.m)
        out = callback_output(self.score_fn(s), "score")
        if out.shape != (s.shape[0], self.m):
            raise ValueError(f"score returned shape {out.shape}, expected {(s.shape[0], self.m)}")
        return out


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


def source_rows(s, m: int) -> np.ndarray:
    """``s`` as an (N, m) batch of source points: a vector of ``m`` entries is one row.

    ``s`` is admitted by :func:`~fusionkit.matrixkit.require_array`, a
    ``ValueError`` naming it unless it is a finite real batch of ``m``
    entries a row, or such a vector (a scalar for one source).
    """
    try:
        batch = np.ndim(s) == 2
    except ValueError:  # a ragged sequence, which require_array names
        batch = False
    rows = require_array(s, "s", (None, m) if batch else (m,))
    return rows if batch else rows[None, :]


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
    ValueError
        If ``N`` or ``seed`` is not a non-negative integer
        (:func:`~fusionkit.matrixkit.require_integer`, whose ``int`` the batch
        keeps), or a pair is given a ``noise``.
    NotSampleable
        If the prior has no sampling function (information-only priors).
    NotPD, Singular
        If the noise cannot be factored: as
        :func:`~fusionkit.matrixkit.inverse_factor` refuses it, before any draw.
    """
    N, seed = require_integer(N, "N"), require_integer(seed, "seed")
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
