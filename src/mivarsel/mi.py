"""k-nearest-neighbor mutual information estimation.

Estimates I(X, Y) in nats between a set of input variables X and a
scalar target Y from the sample alone, with no density model. The
estimator is the digamma-based k-NN construction of Kraskov, Stogbauer
and Grassberger (first variant, shared epsilon in both marginal
spaces):

    I_hat = psi(k) - mean_i[ psi(nx_i + 1) + psi(ny_i + 1) ] + psi(N)

where eps_i is the max-norm distance from the joint point z_i = (x_i,
y_i) to its k-th nearest neighbor, the joint norm is
max(Euclidean on X, absolute value on Y), and nx_i / ny_i count the
samples strictly closer than eps_i in the X and Y spaces.

Estimates can be slightly negative near independence; callers must not
clamp them, since comparisons between subsets rely on the raw values.

All distance work is exact. Squared distances accumulate per variable
in ascending column order and the per-sample digamma contributions are
sorted before averaging, so results are bit-reproducible and invariant
under sample permutation (when no tie-breaking jitter is triggered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .errors import NumericalError

DEFAULT_K = 6

EULER_GAMMA = 0.577215664901532860606512090082

# Relative amplitude of the tie-breaking jitter, per variable range.
_JITTER_SCALE = 1e-10

_TINY = float(np.finfo(np.float64).tiny)


def digamma(t: float) -> float:
    """Digamma function psi(t) for t > 0, accurate to better than 1e-10.

    Uses the recurrence psi(t+1) = psi(t) + 1/t to shift the argument
    above 8, then an asymptotic expansion.
    """
    x = float(t)
    if not x > 0.0:
        raise ValueError(f"digamma requires a positive argument, got {t!r}")
    value = 0.0
    while x < 8.0:
        value -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = inv2 * (
        1.0 / 12.0
        - inv2 * (
            1.0 / 120.0
            - inv2 * (
                1.0 / 252.0
                - inv2 * (
                    1.0 / 240.0
                    - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0))
                )
            )
        )
    )
    return value + math.log(x) - 0.5 / x - series


def digamma_table(n: int) -> np.ndarray:
    """psi at integer arguments: table[t] = psi(t) for t in 1..n.

    Index 0 is NaN. Built from psi(1) = -gamma and the recurrence, which
    is exact for integers and cheap to vectorize.
    """
    if n < 1:
        raise ValueError("digamma table needs n >= 1")
    table = np.empty(n + 1, dtype=np.float64)
    table[0] = np.nan
    table[1] = -EULER_GAMMA
    if n >= 2:
        table[2:] = -EULER_GAMMA + np.cumsum(1.0 / np.arange(1, n, dtype=np.float64))
    return table


@dataclass(frozen=True)
class MiEstimate:
    """A mutual information value (nats) with its estimation parameters."""

    value: float
    k: int
    n_samples: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k >= self.n_samples:
            raise ValueError(
                f"k={self.k} must be smaller than the sample count {self.n_samples}"
            )
        if not math.isfinite(self.value):
            raise ValueError(f"MI estimate is not finite: {self.value!r}")


@dataclass(frozen=True)
class NeighborhoodStats:
    """Per-sample neighborhood quantities feeding the estimator.

    eps is the max-norm distance to the k-th joint-space neighbor; n_x
    and n_y count samples strictly inside eps in each marginal space.
    """

    eps: float
    n_x: int
    n_y: int

    def __post_init__(self) -> None:
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if self.n_x < 0 or self.n_y < 0:
            raise ValueError("neighbor counts must be nonnegative")


def _sq_diffs(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared differences of a single variable, (N, N).

    Written into ``out`` when given; the two ufuncs give the same bits
    as ``(values[:, None] - values[None, :]) ** 2``.
    """
    out = np.subtract(values[:, None], values[None, :], out=out)
    return np.square(out, out=out)


def _x_sq_dists(
    columns: Sequence[np.ndarray],
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise squared Euclidean X-distances, accumulated column by column.

    Written into ``out`` when given, with every later column's matrix
    computed in ``scratch``; the buffers do not change the bits.
    """
    out = _sq_diffs(columns[0], out)
    for col in columns[1:]:
        out += _sq_diffs(col, scratch)
    return out


def _count_below(mat: np.ndarray, limits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Per row, how many entries of ``mat`` are strictly below the row's limit."""
    mask = np.less(mat, limits[:, None], out=mask)
    # Counts never exceed N, so 32 bits suffice, and the narrower
    # accumulator makes the row reduction about twice as fast.
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)


def _kth_smallest(dz2: np.ndarray, k: int) -> np.ndarray:
    """Per row, the k-th smallest joint distance to another sample; partitions ``dz2``."""
    dz2.reshape(-1)[:: dz2.shape[0] + 1] = np.inf
    dz2.partition(k - 1, axis=1)
    return dz2[:, k - 1].copy()


def _neighborhood_arrays(
    dx2: np.ndarray,
    dy2: np.ndarray,
    k: int,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps^2, n_x, n_y) for every sample, from squared distance matrices.

    Comparisons stay in the squared domain: squaring is monotone on
    nonnegative distances, so strict inequalities are preserved.
    ``work`` is a (joint distances, boolean mask) pair of N x N buffers;
    without it both are allocated. Neither input matrix is modified.
    """
    dz2, mask = work if work is not None else (None, None)
    eps2 = _kth_smallest(np.maximum(dx2, dy2, out=dz2), k)
    # The self distance 0 is counted by the comparison whenever eps2 > 0.
    self_hit = eps2 > 0.0
    n_x = _count_below(dx2, eps2, mask) - self_hit
    n_y = _count_below(dy2, eps2, mask) - self_hit
    return eps2, n_x, n_y


def _jittered(
    x: np.ndarray, y: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Break exact duplicates with tiny uniform noise.

    The draw depends only on the data shape and the seed, so identical
    input values produce identical jittered values regardless of which
    dataset columns they came from.
    """
    rng = np.random.default_rng(seed)
    amp_x = _JITTER_SCALE * (x.max(axis=0) - x.min(axis=0))
    amp_y = _JITTER_SCALE * (y.max() - y.min())
    xj = x + rng.uniform(-1.0, 1.0, x.shape) * amp_x
    yj = y + rng.uniform(-1.0, 1.0, y.shape) * amp_y
    return xj, yj


def _as_columns(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"points_x must be 1- or 2-dimensional, got shape {x.shape}")
    return x


def knn_stats(points_x, points_y, i: int, k: int) -> NeighborhoodStats:
    """Neighborhood statistics of sample ``i`` among the given points.

    The joint distance between samples is max(Euclidean X-distance,
    absolute Y-distance); the k-th neighbor excludes the sample itself
    and the counts use strict inequality, so boundary ties are excluded.
    Duplicate points can make eps zero; deduplication is the estimation
    layer's concern, the raw statistics are returned as they are.
    """
    x = _as_columns(np.asarray(points_x))
    y = np.ascontiguousarray(points_y, dtype=np.float64)
    n = y.shape[0]
    if x.shape[0] != n:
        raise ValueError("points_x and points_y disagree on the sample count")
    if not 0 <= i < n:
        raise ValueError(f"sample index {i} out of range for {n} samples")
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    dx2 = (x[:, 0] - x[i, 0]) ** 2
    for j in range(1, x.shape[1]):
        dx2 += (x[:, j] - x[i, j]) ** 2
    dy2 = (y - y[i]) ** 2
    dz2 = np.maximum(dx2, dy2)
    dz2[i] = np.inf
    eps2 = np.partition(dz2, k - 1)[k - 1]
    self_hit = bool(eps2 > 0.0)
    n_x = int((dx2 < eps2).sum()) - self_hit
    n_y = int((dy2 < eps2).sum()) - self_hit
    return NeighborhoodStats(eps=math.sqrt(eps2), n_x=n_x, n_y=n_y)


def _validate_subset(indices: Iterable[int], n_variables: int) -> list[int]:
    idx = [int(j) for j in indices]
    if not idx:
        raise ValueError("variable subset must not be empty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"variable subset has repeated indices: {idx}")
    for j in idx:
        if not 0 <= j < n_variables:
            raise ValueError(
                f"variable index {j} out of range for {n_variables} variables"
            )
    return sorted(idx)


class MiSession:
    """Reusable MI evaluator over one dataset.

    Holds the columns (one contiguous row per variable), the target
    distance matrix, the digamma table and each variable's range.
    Every evaluation runs in the same few N x N buffers, made on
    first use: the accumulated X-distances, one column's matrix, the
    joint distances and a boolean mask, 4 1/8 N x N float64 with the
    target's, whatever the variable count. Data with duplicate joint
    points adds one buffer for the jittered distances. ``mi`` memoises
    each subset's value, so a repeated query costs a dictionary lookup;
    the memo grows by one small entry per distinct subset. ``mi``
    returns exactly the same floats as :func:`estimate_mi` on the same
    inputs.

    The shared buffers make a session non-reentrant: give each thread
    or process its own.
    """

    def __init__(self, x, y, k: int = DEFAULT_K, jitter_seed: int = 0) -> None:
        x = np.asarray(x, dtype=np.float64)
        self._y = np.ascontiguousarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d sample matrix")
        n = self._y.shape[0]
        if x.shape[0] != n:
            raise ValueError("x and y disagree on the sample count")
        if not 1 <= k < n:
            raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
        self.k = int(k)
        self.jitter_seed = int(jitter_seed)
        self.n_samples = n
        self.n_variables = x.shape[1]
        self._columns = np.ascontiguousarray(x.T)
        self._ranges = (self._columns.max(axis=1) - self._columns.min(axis=1)).tolist()
        _check_ranges([float(self._y.max() - self._y.min())], "the target")
        self._dy2 = _sq_diffs(self._y)
        self._psi = digamma_table(n)
        self._buffers: dict[str, np.ndarray] = {}
        self._values: dict[tuple[int, ...], float] = {}

    def _buffer(self, name: str) -> np.ndarray:
        """The N x N buffer ``name``, made on first use and reused by every later call."""
        buf = self._buffers.get(name)
        if buf is None:
            n = self.n_samples
            buf = np.empty((n, n), dtype=bool if name == "mask" else np.float64)
            self._buffers[name] = buf
        return buf

    def _check_scale(self, columns: Sequence[int]) -> None:
        """NumericalError unless the squared X-distances over ``columns`` are normal floats."""
        _check_ranges([self._ranges[j] for j in columns], f"variables {list(columns)}")

    def mi(self, subset) -> float:
        """Joint MI between the subset's variables and the target, in nats."""
        idx = tuple(_validate_subset(_subset_indices(subset), self.n_variables))
        value = self._values.get(idx)
        if value is None:
            self._check_scale(idx)
            dx2 = _x_sq_dists(
                [self._columns[j] for j in idx], self._buffer("sum"), self._buffer("column")
            )
            value = self._values[idx] = self._value(dx2, idx)
        return value

    def _value(self, dx2: np.ndarray, columns: Sequence[int]) -> float:
        """MI of ``columns`` (sorted) from their accumulated ``dx2``, which is not modified.

        ``dx2`` must have been accumulated in ascending column order.
        The value is not memoised, and the caller checks the scale.
        The raw columns are only read when duplicate joint points force
        jittering. The jittered X-distances then go to one more session
        buffer, with the joint-distance buffer as column scratch; the
        jittered target distances go to the joint-distance buffer, which
        takes the maximum in place, and later over the X-distances to
        count n_y.
        """
        dz2, mask = self._buffer("dz2"), self._buffer("mask")
        eps2, n_x, n_y = _neighborhood_arrays(dx2, self._dy2, self.k, (dz2, mask))
        if not eps2.all():
            xj, yj = _jittered(self._columns[list(columns)].T, self._y, self.jitter_seed)
            dx2 = _x_sq_dists(xj.T, self._buffer("jitter"), dz2)
            eps2 = _kth_smallest(np.maximum(dx2, _sq_diffs(yj, dz2), out=dz2), self.k)
            self_hit = eps2 > 0.0
            n_x = _count_below(dx2, eps2, mask) - self_hit
            n_y = _count_below(_sq_diffs(yj, dx2), eps2, mask) - self_hit
        psi = self._psi
        contributions = psi[n_x + 1] + psi[n_y + 1]
        # Sorting makes the average independent of sample order.
        mean_contribution = float(np.mean(np.sort(contributions)))
        return float(psi[self.k] + psi[self.n_samples] - mean_contribution)

    def estimate(self, subset) -> MiEstimate:
        return MiEstimate(self.mi(subset), self.k, self.n_samples)


def _check_ranges(ranges: Sequence[float], what: str) -> None:
    """NumericalError unless squared distances over ``ranges`` are normal floats.

    The largest squared distance is at most the sum of the squared
    ranges; a non-zero range that squares below the smallest normal
    float leaves every squared difference of its variable subnormal or 0.
    """
    squares = [r * r for r in ranges]
    if not math.isfinite(sum(squares)):
        problem = "overflow"
    elif any(r and sq < _TINY for r, sq in zip(ranges, squares)):
        problem = "underflow"
    else:
        return
    raise NumericalError(
        f"squared distances over {what} {problem} float64 (ranges {ranges}); rescale the data"
    )


def _subset_indices(subset) -> Sequence[int]:
    indices = getattr(subset, "indices", None)
    if indices is not None:
        return indices
    return tuple(subset)


def estimate_mi(
    d: Dataset, subset, k: int = DEFAULT_K, jitter_seed: int = 0
) -> MiEstimate:
    """Estimate the MI between a set of dataset columns and the target.

    Deterministic for fixed inputs: the estimator itself is
    deterministic and the duplicate-breaking jitter, applied only when
    some sample's k-th joint neighbor is at distance zero, is drawn
    from ``jitter_seed``. Runs a one-off :class:`MiSession`, so both
    give the same bits.
    """
    return MiSession(d.X, d.y, k=k, jitter_seed=jitter_seed).estimate(subset)
