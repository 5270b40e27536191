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
in ascending column order, a sample's quantities depend only on its own
row of distances (so computing the rows in blocks changes no bit), and
the per-sample digamma contributions are sorted before averaging, so
results are bit-reproducible and invariant under sample permutation
(when no tie-breaking jitter is triggered).

The same invariance lets :class:`MiSession` keep the samples in
target-sorted order. In that order the candidates for a sample's k-th
joint neighbour lie in a window of nearby columns: fl((y_i - y_j)^2)
does not decrease as j moves away from i, so once the window's k-th
distance is no larger than the target distance to the samples just
outside it, no other sample can be closer. eps^2 and n_y come from the
window, n_x from the full row, and a row the window cannot settle is
redone on its full row, so every value keeps its bits. This is the
idea of the box-assisted neighbour search of Kraskov et al. (2004),
with a sorted one-dimensional box.
"""

from __future__ import annotations

import math
import operator
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


# A B x N distance buffer holds at most this many float64 (256 KB) once N
# passes 181, so a block's buffers stay in a 2 MB L2 cache.
_BLOCK_ELEMENTS = 1 << 15


def block_rows(n: int) -> int:
    """Rows per block for ``n`` samples: min(N, max(1, 2^15 // N)); N <= 181 is one block."""
    return min(n, max(1, _BLOCK_ELEMENTS // n))


# Half-width W of the column window a block searches for its samples'
# k-th joint neighbours, as a share of N (see MiSession and
# window_half_width).
_WINDOW_SHARE = 1 / 8


def window_half_width(n: int) -> int:
    """Columns W searched on each side of a block: ceil(N * _WINDOW_SHARE)."""
    return math.ceil(n * _WINDOW_SHARE)


def _sq_diffs(rows: np.ndarray, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared differences between a block of samples and the samples ``values``.

    (len(rows), len(values)), written into ``out`` when given. Each
    entry has the bits of the same entry of the full matrix
    ``(values[:, None] - values[None, :]) ** 2``.
    """
    out = np.subtract(rows[:, None], values[None, :], out=out)
    return np.square(out, out=out)


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


def _variable_index(j) -> int:
    """``j`` as a variable index; TypeError unless it is an integer other than a bool.

    numpy integers are accepted. A float is never truncated, and a bool
    is not taken for column 0 or 1.
    """
    if not isinstance(j, (bool, np.bool_)):
        try:
            return operator.index(j)
        except TypeError:
            pass
    raise TypeError(f"variable index must be an integer, got {j!r}")


def _validate_subset(indices: Iterable[int], n_variables: int) -> list[int]:
    idx = [_variable_index(j) for j in indices]
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

    Holds the columns (one contiguous row per variable) and the target,
    both with the samples in stable target-sorted order, plus the
    digamma table and each variable's range. A sample's eps^2, n_x and
    n_y do not depend on sample order, and the value is the mean of the
    sorted per-sample contributions, so the order changes no bit.

    An evaluation walks the samples in blocks of B = :func:`block_rows`
    (N) rows. A sample's k-th joint neighbour is searched for only in
    the block's window, the columns [start - W, stop + W) with
    W = :func:`window_half_width` (N), clipped to the sample range, or
    the whole row when that would leave fewer than k other samples. The
    window's k-th distance is exact when it is no larger than the
    sample's squared target distance to both samples just outside the
    window: fl((y_i - y_j)^2) does not decrease away from i along sorted
    y, so no sample outside can be closer. Rows that fail this test are
    redone on their full rows. n_x is counted on the full row, n_y in
    the window (or on the full row after a fallback). With one block
    (N <= 181) the window is the whole row and nothing falls back.

    Every block runs in the same B x N buffers, made on first use: the
    accumulated X-distances, one column's distances, the target's, the
    joint distances and a boolean mask, 4 1/8 B x N float64 (about 1 MB
    once N passes 181), whatever the variable count. The target's
    window distances are kept until another block, a fallback or the
    jitter path needs their buffer; with one block they are computed
    once per session. Data with duplicate joint points is evaluated a
    second time, in the same buffers, on jittered copies of the subset's
    columns and the target, drawn in the caller's sample order and then
    sorted by the jittered target. ``mi`` memoises each subset's value,
    so a repeated query costs a dictionary lookup; the memo grows by one
    small entry per distinct subset. ``mi`` returns exactly the same
    floats as :func:`estimate_mi` on the same inputs.

    The shared buffers make a session non-reentrant: give each thread
    or process its own.
    """

    def __init__(self, x, y, k: int = DEFAULT_K, jitter_seed: int = 0) -> None:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be a 2-d sample matrix")
        n = y.shape[0]
        if x.shape[0] != n:
            raise ValueError("x and y disagree on the sample count")
        if not 1 <= k < n:
            raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
        self.k = int(k)
        self.jitter_seed = int(jitter_seed)
        self.n_samples = n
        self.n_variables = x.shape[1]
        self.block = block_rows(n)
        self.window = window_half_width(n)
        # Sorted position p holds caller's sample _order[p].
        self._order = np.argsort(y, kind="stable")
        self._y = y[self._order]
        # Permuted a column at a time, so no second copy of x is made.
        self._columns = np.array(x.T, order="C")
        for col in self._columns:
            col[:] = col[self._order]
        self._ranges = (self._columns.max(axis=1) - self._columns.min(axis=1)).tolist()
        _check_ranges([float(self._y[-1] - self._y[0])], "the target")
        self._psi = digamma_table(n)
        self._buffers: dict[str, np.ndarray] = {}
        self._target_rows: tuple[int, int] | None = None
        self._edges: np.ndarray | None = None
        self._values: dict[tuple[int, ...], float] = {}

    def _buffer(self, name: str, rows: int, width: int | None = None) -> np.ndarray:
        """A contiguous rows x width (default N) view of the B x N buffer ``name``, made on first use."""
        buf = self._buffers.get(name)
        if buf is None:
            shape = (self.block, self.n_samples)
            buf = self._buffers[name] = np.empty(shape, bool if name == "mask" else np.float64)
        if width is None or width == self.n_samples:
            return buf[:rows]
        return buf.reshape(-1)[: rows * width].reshape(rows, width)

    def _blocks(self) -> list[tuple[int, int]]:
        """(start, stop) of every block of rows, in order."""
        n, b = self.n_samples, self.block
        return [(start, min(n, start + b)) for start in range(0, n, b)]

    def _window(self, start: int, stop: int) -> tuple[int, int]:
        """The columns [lo, hi) searched for the k-th neighbours of rows start .. stop - 1.

        The whole row when the window would hold fewer than k other samples.
        """
        lo, hi = max(0, start - self.window), min(self.n_samples, stop + self.window)
        return (lo, hi) if hi - lo > self.k else (0, self.n_samples)

    def _target(
        self, start: int, stop: int, y: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Target distances of rows start .. stop - 1 to the block's window, and its edges.

        The edges are each row's squared target distance to the nearer
        of the two samples just outside the window, None when the window
        is the whole row. No sample outside the window is nearer in the
        target, so a window eps^2 no larger than the edge is exact.
        ``y`` None stands for the session's own target, whose distances
        are kept until another block needs the buffer.
        """
        lo, hi = self._window(start, stop)
        dy2 = self._buffer("target", stop - start, hi - lo)
        if y is None and self._target_rows == (start, stop):
            return dy2, self._edges
        values = self._y if y is None else y
        rows = values[start:stop]
        _sq_diffs(rows, values[lo:hi], dy2)
        edges = None
        if lo > 0 or hi < self.n_samples:
            below = np.square(rows - values[lo - 1]) if lo > 0 else np.inf
            above = np.square(rows - values[hi]) if hi < self.n_samples else np.inf
            edges = np.minimum(below, above)
        self._target_rows = None if y is not None else (start, stop)
        self._edges = edges
        return dy2, edges

    def _check_scale(self, columns: Sequence[int]) -> None:
        """NumericalError unless the squared X-distances over ``columns`` are normal floats."""
        _check_ranges([self._ranges[j] for j in columns], f"variables {list(columns)}")

    def mi(self, subset) -> float:
        """Joint MI between the subset's variables and the target, in nats."""
        idx = tuple(_validate_subset(_subset_indices(subset), self.n_variables))
        value = self._values.get(idx)
        if value is None:
            self._check_scale(idx)
            value = self._values[idx] = self._estimate(idx)
        return value

    def _estimate(self, columns: Sequence[int]) -> float:
        """MI of ``columns`` (sorted); not memoised, and the caller checks the scale."""
        index = np.empty((2, 1, self.n_samples), dtype=np.int32)
        if self._fill([self._columns[j] for j in columns], None, index[:, 0]):
            return self._jittered_value(columns)
        return float(self._reduce(index)[0])

    def _jittered_value(self, columns: Sequence[int]) -> float:
        """MI of ``columns`` (sorted) on jittered copies of their values and the target.

        The fallback when duplicate joint points leave some sample's
        k-th neighbour at distance 0. The noise is drawn for the
        caller's sample order, and the jittered samples are then sorted
        by their jittered target, so the windows stay exact.
        """
        x = np.empty((len(columns), self.n_samples))
        x[:, self._order] = self._columns[list(columns)]
        y = np.empty(self.n_samples)
        y[self._order] = self._y
        xj, yj = _jittered(x.T, y, self.jitter_seed)
        order = np.argsort(yj, kind="stable")
        index = np.empty((2, 1, self.n_samples), dtype=np.int32)
        self._fill(np.ascontiguousarray(xj[order].T), yj[order], index[:, 0])
        return float(self._reduce(index)[0])

    def _fill(self, columns, target: np.ndarray | None, index: np.ndarray) -> bool:
        """Write every sample's digamma indices into ``index`` (2 x N); True if some eps^2 is 0.

        ``columns`` are the subset's variables, accumulated in the given
        order; ``target`` None stands for the session's own target.
        Both are in target-sorted sample order.
        """
        tied = False
        for start, stop in self._blocks():
            rows = stop - start
            dx2 = _sq_diffs(columns[0][start:stop], columns[0], self._buffer("sum", rows))
            for col in columns[1:]:
                dx2 += _sq_diffs(col[start:stop], col, self._buffer("column", rows))
            tied |= self._count_rows(dx2, start, index[0, start:stop], index[1, start:stop], target)
        return tied

    def _count_rows(
        self,
        dx2: np.ndarray,
        start: int,
        index_x: np.ndarray,
        index_y: np.ndarray,
        target: np.ndarray | None = None,
    ) -> bool:
        """Digamma indices n_x + 1 and n_y + 1 of one block's samples; True if some eps^2 is 0.

        ``dx2`` holds the squared X-distances of samples start,
        start + 1, ... to every sample, and is not modified; ``target``
        (None for the session's own) is the target in the same sorted
        sample order. Comparisons stay in the squared domain: squaring
        is monotone on nonnegative distances, so strict inequalities are
        preserved. The counts take in the sample's own distance 0,
        which is below any positive eps^2, so they are n + 1 as they
        stand; a sample with eps^2 = 0 has no such hit and gets one added.
        """
        rows, k = dx2.shape[0], self.k
        stop = start + rows
        lo, hi = self._window(start, stop)
        dy2, edges = self._target(start, stop, target)
        dz2 = np.maximum(dx2[:, lo:hi], dy2, out=self._buffer("dz2", rows, hi - lo))
        # Each sample's own entry, (i, start + i), is not a neighbour.
        dz2.reshape(-1)[start - lo :: hi - lo + 1] = np.inf
        dz2.partition(k - 1, axis=1)
        eps2 = dz2[:, k - 1].copy()
        # Counts never exceed N, so 32 bits suffice, and the narrower
        # accumulator makes the row reduction about twice as fast.
        mask = self._buffer("mask", rows, hi - lo)
        np.less(dy2, eps2[:, None], out=mask)
        np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32, out=index_y)
        if edges is not None:
            failed = np.flatnonzero(eps2 > edges)
            if failed.size:
                y = self._y if target is None else target
                self._full_rows(dx2, y, start, failed, eps2, index_y)
        mask = self._buffer("mask", rows)
        np.less(dx2, eps2[:, None], out=mask)
        np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32, out=index_x)
        if eps2.all():
            return False
        no_self_hit = eps2 == 0.0
        index_x += no_self_hit
        index_y += no_self_hit
        return True

    def _full_rows(
        self,
        dx2: np.ndarray,
        y: np.ndarray,
        start: int,
        failed: np.ndarray,
        eps2: np.ndarray,
        index_y: np.ndarray,
    ) -> None:
        """eps^2 and n_y + 1 of the block's rows ``failed`` from their full rows, in place.

        The target's full rows go to its buffer, so its kept window
        distances are dropped.
        """
        count, k = len(failed), self.k
        samples = start + failed
        dy2 = _sq_diffs(y[samples], y, self._buffer("target", count))
        self._target_rows = None
        dz2 = np.take(dx2, failed, axis=0, out=self._buffer("dz2", count), mode="clip")
        np.maximum(dz2, dy2, out=dz2)
        dz2[np.arange(count), samples] = np.inf
        dz2.partition(k - 1, axis=1)
        eps2[failed] = dz2[:, k - 1]
        mask = self._buffer("mask", count)
        np.less(dy2, eps2[failed, None], out=mask)
        index_y[failed] = np.add.reduce(mask.view(np.uint8), axis=1, dtype=np.int32)

    def _reduce(self, index: np.ndarray) -> np.ndarray:
        """MI of each of S <= B subsets from their digamma indices, 2 x S x N.

        The contributions go to the joint-distance and column buffers.
        The indices are 1 .. N, so mode="clip" never clips; it only
        spares np.take the temporary copy of ``out`` that mode="raise"
        makes.
        """
        psi, count = self._psi, index.shape[1]
        contributions = np.take(psi, index[0], out=self._buffer("dz2", count), mode="clip")
        contributions += np.take(psi, index[1], out=self._buffer("column", count), mode="clip")
        # Sorting makes each average independent of sample order.
        contributions.sort(axis=1)
        return psi[self.k] + psi[self.n_samples] - contributions.mean(axis=1)

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
