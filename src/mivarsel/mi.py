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

DEFAULT_K = 6

EULER_GAMMA = 0.577215664901532860606512090082

# Relative amplitude of the tie-breaking jitter, per variable range.
_JITTER_SCALE = 1e-10


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


def _x_sq_dists(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise squared Euclidean X-distances, accumulated column by column."""
    out = _sq_diffs(columns[0])
    for col in columns[1:]:
        out += _sq_diffs(col)
    return out


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Reusable (dz2, comparison mask) buffers for ``_neighborhood_arrays``."""
    return np.empty((n, n)), np.empty((n, n), dtype=bool)


def _count_below(mat: np.ndarray, limits: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Per row, how many entries of ``mat`` are strictly below the row's limit."""
    mask = np.less(mat, limits[:, None], out=mask)
    # Counts never exceed N, so 32 bits suffice, and the narrower
    # accumulator makes the row reduction about twice as fast.
    return np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)


def _neighborhood_arrays(
    dx2: np.ndarray,
    dy2: np.ndarray,
    k: int,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(eps^2, n_x, n_y) for every sample, from squared distance matrices.

    Comparisons stay in the squared domain: squaring is monotone on
    nonnegative distances, so strict inequalities are preserved.
    ``work`` (from :func:`_workspace`) holds the joint distances and the
    comparison mask; without it both are allocated. Neither input
    matrix is modified.
    """
    dz2, mask = work if work is not None else (None, None)
    dz2 = np.maximum(dx2, dy2, out=dz2)
    dz2.reshape(-1)[:: dz2.shape[0] + 1] = np.inf
    dz2.partition(k - 1, axis=1)
    eps2 = dz2[:, k - 1].copy()
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


def _mi_value(
    dx2: np.ndarray,
    dy2: np.ndarray,
    x: np.ndarray,
    columns: Sequence[int],
    y: np.ndarray,
    k: int,
    jitter_seed: int,
    psi: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Estimator core shared by every MI entry point.

    ``dx2``/``dy2`` must have been accumulated in ascending column
    order from ``x[:, columns]``; those raw columns are only read when
    duplicate joint points force jittering and the distances are
    recomputed. ``work`` is passed on to :func:`_neighborhood_arrays`.
    """
    eps2, n_x, n_y = _neighborhood_arrays(dx2, dy2, k, work)
    if not eps2.all():
        xj, yj = _jittered(x[:, columns], y, jitter_seed)
        dx2 = _x_sq_dists([xj[:, j] for j in range(xj.shape[1])])
        dy2 = _sq_diffs(yj)
        eps2, n_x, n_y = _neighborhood_arrays(dx2, dy2, k, work)
    contributions = psi[n_x + 1] + psi[n_y + 1]
    # Sorting makes the average independent of sample order.
    mean_contribution = float(np.mean(np.sort(contributions)))
    return float(psi[k] + psi[len(y)] - mean_contribution)


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

    Caches the per-variable squared-difference matrices, the target
    distance matrix and the digamma table, so that repeated subset
    queries (as issued by the selection procedures) cost one matrix
    accumulation each. ``mi`` returns exactly the same floats as
    :func:`estimate_mi` on the same inputs.
    """

    def __init__(self, x, y, k: int = DEFAULT_K, jitter_seed: int = 0) -> None:
        self._x = np.ascontiguousarray(x, dtype=np.float64)
        self._y = np.ascontiguousarray(y, dtype=np.float64)
        if self._x.ndim != 2:
            raise ValueError("x must be a 2-d sample matrix")
        n = self._y.shape[0]
        if self._x.shape[0] != n:
            raise ValueError("x and y disagree on the sample count")
        if not 1 <= k < n:
            raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
        self.k = int(k)
        self.jitter_seed = int(jitter_seed)
        self.n_samples = n
        self.n_variables = self._x.shape[1]
        self._dy2 = _sq_diffs(self._y)
        self._psi = digamma_table(n)
        self._dx2_cache: dict[int, np.ndarray] = {}

    def _var_matrix(self, j: int) -> np.ndarray:
        mat = self._dx2_cache.get(j)
        if mat is None:
            mat = _sq_diffs(self._x[:, j])
            self._dx2_cache[j] = mat
        return mat

    def mi(self, subset) -> float:
        """Joint MI between the subset's variables and the target, in nats."""
        idx = _validate_subset(_subset_indices(subset), self.n_variables)
        dx2 = self._var_matrix(idx[0]).copy()
        for j in idx[1:]:
            dx2 += self._var_matrix(j)
        return self._value(dx2, idx)

    def _value(self, dx2: np.ndarray, columns: Sequence[int], work=None) -> float:
        """MI of ``columns`` (sorted) from their accumulated ``dx2``."""
        return _mi_value(
            dx2, self._dy2, self._x, columns, self._y,
            self.k, self.jitter_seed, self._psi, work,
        )

    def estimate(self, subset) -> MiEstimate:
        return MiEstimate(self.mi(subset), self.k, self.n_samples)


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
    from ``jitter_seed``.
    """
    idx = _validate_subset(_subset_indices(subset), d.n_variables)
    n = d.n_samples
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    columns = [d.X[:, j] for j in idx]
    value = _mi_value(
        _x_sq_dists(columns),
        _sq_diffs(d.y),
        d.X,
        idx,
        d.y,
        k,
        jitter_seed,
        digamma_table(n),
    )
    return MiEstimate(value, k, n)
