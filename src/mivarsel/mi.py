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
(when no tie-breaking jitter is triggered: a subset with duplicate joint
points is estimated by a second session over seeded-jittered copies,
which works in the first session's buffers).

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

A one-column subset needs no full rows at all, as Kraskov et al. count
marginal neighbours in sorted order for this case. With blocks of rows
its X-distances are taken over the window only, for eps^2 and n_y, and
n_x comes from the column sorted once: fl(x_l - x_i) does not decrease
with x_l, the same argument as for the target, so the samples closer
than eps_i in X are one run of that order around x_i. A bisection of
fixed length finds the run's ends on the very predicate the full row
tests (see :func:`_sorted_counts`), so each count is the full row's, ties
and -0.0 included. Only a row that falls back gets its full X row.

When one block holds every sample (N <= 181 by default), the window is
the whole row and the squared distance matrices are symmetric bit for
bit: fl(v - r) = -fl(r - v), and every entry sums its columns in the
same order. So a sample's counts along its row are the counts down its
column. That block sorts its rows for eps^2, the same k-th order
statistic a partition finds, and counts down contiguous columns, in the
buffers it already holds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DataError, NumericalError

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

# Subsets a session evaluates together, in units of the block's row count B.
_CHUNK_BLOCKS = 2


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


def _sq_diffs(rows: np.ndarray, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared differences between a block of samples and the samples ``values``.

    Written into ``out``, (len(rows), len(values)). Each entry has the
    bits of the same entry of ``(values[:, None] - values[None, :]) ** 2``:
    ``v - r`` is exactly ``-(r - v)``. The one broadcast operand is a
    column, which keeps numpy's ufunc buffers to one.
    """
    out[...] = values
    np.subtract(out, rows[:, None], out=out)
    return np.square(out, out=out)


def _sorted_counts(
    ordered: np.ndarray, groups: np.ndarray, values: np.ndarray, eps2: np.ndarray
) -> np.ndarray:
    """Full-row counts of squared differences below eps^2, found in sorted order.

    ``ordered`` is G x N, each row one column's samples in ascending
    order. Entry q of the result is the number of l with
    fl((ordered[groups[q], l] - values[q])^2) < eps2[q]: for a sample
    ``values[q]`` of that column, the count ``np.less`` gives along its
    row of :func:`_sq_diffs`, bit for bit.

    fl(x_l - v) does not decrease with x_l, so neither does the signed
    square s_l = copysign(fl((x_l - v)^2), x_l - v), and the count is
    #{s_l < eps^2} - #{s_l <= -eps^2}, or 0 when eps^2 = 0. Both terms
    are lower bounds in the sorted order, found together by a branchless
    bisection on the exact predicate whose ceil(log2 N) + 1 probes
    depend on N alone and never leave the column.
    """
    n = ordered.shape[1]
    flat = ordered.reshape(-1)
    values = np.stack([values, values])
    # Row 0 counts the s_l below eps^2, row 1 those at or below -eps^2.
    bounds = np.stack([eps2, np.nextafter(-eps2, np.inf)])
    base = np.tile(groups * n, (2, 1))
    probe = np.empty_like(base)
    diff, square = np.empty(base.shape), np.empty(base.shape)
    below = np.empty(base.shape, dtype=bool)
    size = n
    while True:
        # The answer lies in [base, base + size]; probe base + size // 2.
        half = size // 2
        np.add(base, half, out=probe)
        flat.take(probe, out=diff, mode="clip")
        np.subtract(diff, values, out=diff)
        np.square(diff, out=square)
        np.copysign(square, diff, out=square)
        np.less(square, bounds, out=below)
        if size == 1:
            break
        base += below * half
        size -= half
    base += below
    return np.maximum(base[0] - base[1], 0)


def _sharing_plan(chunk: Sequence[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int, int]]:
    """(subset, shared, kept) for each subset of ``chunk``, in order.

    ``shared`` leading column sums are left in the prefix buffers by the
    subsets before it (never the whole subset, whose last sum is always
    made), and ``kept`` >= ``shared`` are left there for the next one.
    """
    plan, shared = [], 0
    for subset, following in zip(chunk, [*chunk[1:], ()]):
        common = 0
        for a, b in zip(subset, following):
            if a != b:
                break
            common += 1
        plan.append((subset, shared, max(shared, common)))
        shared = min(common, len(following) - 1)
    return plan


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
    digamma table and each variable's range. The order changes no bit
    (see the module docstring).

    ``mi`` evaluates one subset and ``values`` a list, under one memo: a
    repeated subset costs a dictionary lookup, and the subsets
    ``values`` has not seen are evaluated together. ``evaluate`` is the
    same loop with no memo, for a caller that never repeats a subset
    (the exhaustive search). All give the floats of :func:`estimate_mi`.

    The loop takes subsets (sorted column tuples) in chunks of up to
    ``chunk`` = _CHUNK_BLOCKS * B and the samples in blocks of
    B = :func:`block_rows` (N) rows, blocks outside and the chunk's
    subsets inside. Per block, the chunk's highest column's distances
    are computed once. Squared X-distances are summed in ascending
    column order; prefix buffer d holds the sum over a subset's first
    d + 1 columns for as long as the subsets after it start with them,
    and the rest of a subset accumulates in place. So a lexicographic
    walk, in which a subset is its parent plus one higher column, adds
    one column per subset, and a lone subset is summed in place as a
    standalone estimate is. Each sample's digamma indices (n_x + 1,
    n_y + 1) go to a 2 x chunk x N int32 array, reduced B subsets at a
    time after the last block: lookups, then a sort and a mean along
    each subset's row, the same bits as one subset at a time.

    A sample's k-th joint neighbour is searched for in its block's
    window, the columns [start - W, stop + W) with
    W = :func:`window_half_width` (N), clipped to the sample range, or
    the whole row when that would leave fewer than k other samples. A
    row whose window eps^2 exceeds its squared target distance to either
    sample just outside the window is redone on its full row. n_x is
    counted on the full row, n_y wherever eps^2 was found. With one
    block (N <= 181) the window is the whole row, no row falls back, and
    both counts are column sums against eps^2 laid along every row of
    the joint-distance buffer (see :meth:`_count_rows`). A block's window and
    its target distances are computed once, next to its highest column,
    and serve every subset of the chunk. ``evaluate`` gives a subset
    with duplicate joint points (some eps^2 = 0) the value of a second
    session over jittered copies of its columns and the target.

    With blocks of rows (N > 181), a one-column subset whose column the
    next subset of the chunk does not reuse (every subset of a ranking)
    makes no full X rows: its distances to the block's window give eps^2
    and n_y, and its n_x comes from :func:`_sorted_counts` over its
    column, sorted once per chunk. Its rows wait, with their eps^2, until
    about N of them, from any blocks and such subsets, are searched
    together (:meth:`_sorted_rows`). Such a row that falls back makes its
    full X row in the joint-distance buffer. When the chunk's highest
    column is in no other subset, its buffer is not computed.

    Memory, in B x N buffers made on first use: one prefix per depth a
    chunk keeps, the highest column, one column's scratch, the target
    window, the joint distances, a boolean mask (1/8) and the chunk's
    indices (_CHUNK_BLOCKS), plus numpy's copy of one slice of them
    while it reduces. A lone subset takes 5 1/8 (about 1.3 MB once N
    passes 181), whatever its length; a walk over a pool of P keeps at
    most P - 1 prefixes, P + 6 1/8 in all; the first row that falls back
    adds one for the target's full rows. The jittered session works
    inside these buffers. At N <= 181 they are N x N, and the one-block
    counts use no buffer more. A chunk with one-column subsets searched
    in sorted order also holds their sorted columns, N floats each (at
    most _CHUNK_BLOCKS B x N, in a ranking's chunk of 2B), and the
    waiting rows' eps^2 and the bisection's state, a few arrays of about
    2N; their window distances are a view of the first prefix buffer.

    The shared buffers make a session non-reentrant: give each thread
    or process its own. A pickled copy carries the sorted columns and
    target, ``_order`` and the settings, so it gives the same bits and
    draws the same jitter; it starts with no buffers and no memo.
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
        self.chunk = _CHUNK_BLOCKS * self.block
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
        self._buffers: dict = {}
        self._values: dict[tuple[int, ...], float] = {}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.update(_buffers={}, _values={})
        return state

    def _buffer(self, name, rows: int, width: int | None = None) -> np.ndarray:
        """A contiguous rows x width (default N) view of the B x N buffer ``name``, made on first use."""
        buf = self._buffers.get(name)
        if buf is None:
            shape = (self.block, self.n_samples)
            buf = self._buffers[name] = np.empty(shape, bool if name == "mask" else np.float64)
        if width is None or width == self.n_samples:
            return buf[:rows]
        return buf.reshape(-1)[: rows * width].reshape(rows, width)

    def _window(self, start: int, stop: int) -> tuple[int, int]:
        """The columns [lo, hi) searched for the k-th neighbours of rows start .. stop - 1.

        The whole row when the window would hold fewer than k other samples.
        """
        lo, hi = max(0, start - self.window), min(self.n_samples, stop + self.window)
        return (lo, hi) if hi - lo > self.k else (0, self.n_samples)

    def _target(self, start: int, stop: int) -> tuple[int, int, np.ndarray, np.ndarray | None]:
        """Window [lo, hi) of rows start .. stop - 1, their target distances to it, its edges.

        The distances go to the "window" buffer. The edges are each
        row's squared target distance to the nearer of the two samples
        just outside the window, None when the window is the whole row.
        No sample outside the window is nearer in the target, so a
        window eps^2 no larger than the edge is exact.
        """
        lo, hi = self._window(start, stop)
        rows = self._y[start:stop]
        dy2 = _sq_diffs(rows, self._y[lo:hi], self._buffer("window", stop - start, hi - lo))
        edges = None
        if lo > 0 or hi < self.n_samples:
            below = np.square(rows - self._y[lo - 1]) if lo > 0 else np.inf
            above = np.square(rows - self._y[hi]) if hi < self.n_samples else np.inf
            edges = np.minimum(below, above)
        return lo, hi, dy2, edges

    def _key(self, subset) -> tuple[int, ...]:
        return tuple(_validate_subset(_subset_indices(subset), self.n_variables))

    def mi(self, subset) -> float:
        """Joint MI between the subset's variables and the target, in nats."""
        key = self._key(subset)
        value = self._values.get(key)
        if value is None:
            value = self._values[key] = float(self.evaluate([key])[0])
        return value

    def values(self, subsets) -> list[float]:
        """``mi`` of each of ``subsets``; those not yet memoised are evaluated together."""
        keys = [self._key(subset) for subset in subsets]
        misses = sorted(set(keys).difference(self._values))
        if misses:
            self._values.update(zip(misses, self.evaluate(misses).tolist()))
        # Read back through mi, so whatever wraps a session's mi sees every request.
        return [self.mi(key) for key in keys]

    def evaluate(self, subsets: Sequence[tuple[int, ...]]) -> np.ndarray:
        """MI of each subset, not memoised; each a sorted tuple of distinct column indices.

        Subsets in lexicographic order share the most work (see the
        class docstring). A constant target shares no information with
        anything and is a DataError. The scale check takes the union of
        the subsets' columns first: when it passes, so does every subset.
        """
        union = sorted(set().union(*subsets))
        if not all(s and all(map(operator.lt, s, s[1:])) for s in subsets) or (
            union and not (0 <= union[0] and union[-1] < self.n_variables)
        ):
            raise ValueError(
                f"subsets must be non-empty ascending tuples of indices below {self.n_variables}"
            )
        if self._y[0] == self._y[-1]:
            raise DataError("the target is constant; no variable carries information about it")
        try:
            _check_ranges([self._ranges[j] for j in union], f"variables {union}")
        except NumericalError:
            for columns in subsets:
                _check_ranges([self._ranges[j] for j in columns], f"variables {list(columns)}")
        values, tied = self._evaluate(subsets)
        for i in np.flatnonzero(tied):
            values[i] = self._jittered_value(subsets[i])
        return values

    def _jittered_value(self, columns: Sequence[int]) -> float:
        """MI of ``columns`` (sorted) on jittered copies of their values and the target.

        The noise is drawn in the caller's sample order. A second session
        over the copies sorts them by the jittered target and works in
        this session's buffers. It runs ``_evaluate``, which counts any
        ties the noise could not separate as they stand, so it never
        jitters again.
        """
        caller = np.argsort(self._order)  # sorted position of each caller's sample
        x, y = self._columns[list(columns)][:, caller].T, self._y[caller]
        twin = MiSession(*_jittered(x, y, self.jitter_seed), k=self.k)
        twin._buffers = self._buffers
        return float(twin._evaluate([tuple(range(len(columns)))])[0][0])

    def _evaluate(self, subsets) -> tuple[np.ndarray, np.ndarray]:
        """The class docstring's loop: each subset's MI, and a mask of those with some eps^2 = 0."""
        size = max(1, min(self.chunk, len(subsets)))
        index = np.empty((2, size, self.n_samples), dtype=np.int32)
        values = np.empty(len(subsets))
        tied = np.zeros(len(subsets), dtype=bool)
        for first in range(0, len(subsets), size):
            chunk = subsets[first : first + size]
            plan = _sharing_plan(chunk)
            # With blocks of rows, the one-column subsets whose column the
            # next subset does not reuse take n_x from their sorted columns.
            single = [
                i for i, (subset, _, kept) in enumerate(plan)
                if len(subset) == 1 and not kept and self.block < self.n_samples
            ]
            ordered = self._columns[[chunk[i][0] for i in single]]
            ordered.sort(axis=1)
            row_of = {i: row for row, i in enumerate(single)}  # plan index -> row of ordered
            high = max(subset[-1] for subset in chunk)
            # The highest column's full rows, unless only such a subset has it.
            top = self._columns[high] if any(
                chunk[i][-1] == high for i in range(len(chunk)) if i not in row_of
            ) else None
            pending: list[tuple[int, int, np.ndarray]] = []
            waiting = 0  # rows in pending
            for start in range(0, self.n_samples, self.block):
                stop = min(self.n_samples, start + self.block)
                highest = None
                if top is not None:
                    highest = _sq_diffs(top[start:stop], top, self._buffer("highest", stop - start))
                window = self._target(start, stop)
                lo, hi = window[:2]
                searched = row_of if hi - lo < self.n_samples else {}
                for i, (subset, shared, kept) in enumerate(plan):
                    column = self._columns[subset[0]] if i in searched else None
                    if column is None:
                        dx2 = self._distances(subset, shared, kept, high, highest, start, stop)
                    else:
                        out = self._buffer(("prefix", 0), stop - start, hi - lo)
                        dx2 = _sq_diffs(column[start:stop], column[lo:hi], out)
                    eps2 = self._count_rows(
                        dx2, start, window, index[0, i, start:stop], index[1, i, start:stop], column
                    )
                    tied[first + i] |= not eps2.all()
                    if column is not None:
                        pending.append((i, start, eps2))
                        waiting += stop - start
                        # Their rows are searched together, about N at a time.
                        if waiting >= self.n_samples:
                            self._sorted_rows(ordered, row_of, chunk, pending, index[0])
                            pending, waiting = [], 0
            if pending:
                self._sorted_rows(ordered, row_of, chunk, pending, index[0])
            for i in range(0, len(chunk), self.block):
                rows = min(self.block, len(chunk) - i)
                values[first + i : first + i + rows] = self._reduce(index[:, i : i + rows])
        return values, tied

    def _sorted_rows(self, ordered, row_of, chunk, pending, index_x) -> None:
        """n_x + 1 of one-column subsets' rows from their sorted columns, into ``index_x``.

        ``pending`` holds (plan index, first row, eps^2) of block rows
        :meth:`_count_rows` left without n_x; ``row_of`` maps a plan index
        to its column's row of ``ordered``.
        """
        lengths = [len(eps2) for _, _, eps2 in pending]
        groups = np.repeat([row_of[i] for i, _, _ in pending], lengths)
        rows = np.concatenate([self._columns[chunk[i][0], s : s + len(e)] for i, s, e in pending])
        eps2 = np.concatenate([eps2 for _, _, eps2 in pending])
        counts = _sorted_counts(ordered, groups, rows, eps2) + (eps2 == 0.0)
        for (i, start, _), part in zip(pending, np.split(counts, np.cumsum(lengths[:-1]))):
            index_x[i, start : start + len(part)] = part

    def _distances(self, subset, shared, kept, high, highest, start, stop) -> np.ndarray:
        """Squared X-distances of rows start .. stop - 1 over ``subset``, summed in column order.

        Prefix buffers 0 .. ``shared`` - 1 already hold this subset's
        leading sums; those up to ``kept`` - 1 are stored for the next
        subset, and the remaining columns accumulate in place in prefix
        buffer ``kept``, or in the column buffer when the chunk's
        highest column ``high``, precomputed in ``highest``, is all that
        remains.
        """
        rows = stop - start
        total = self._buffer(("prefix", shared - 1), rows) if shared else None
        for depth in range(shared, len(subset)):
            j = subset[depth]
            if j == high and highest is not None:
                term = highest
            else:
                out = self._buffer("column" if depth else ("prefix", 0), rows)
                term = _sq_diffs(self._columns[j][start:stop], self._columns[j], out)
            if not depth:
                total = term
            elif depth > kept:
                total += term
            else:
                slot = "column" if depth == kept and j == high else ("prefix", depth)
                total = np.add(total, term, out=self._buffer(slot, rows))
        return total

    def _count_rows(
        self,
        dx2: np.ndarray,
        start: int,
        window: tuple,
        index_x: np.ndarray,
        index_y: np.ndarray,
        column: np.ndarray | None = None,
    ) -> np.ndarray:
        """Digamma indices n_x + 1 and n_y + 1 of one block's samples, and their eps^2.

        ``dx2`` holds the squared X-distances of samples start,
        start + 1, ... to every sample, and ``window`` is the block's
        :meth:`_target`; neither is modified. Given a one-column subset's
        ``column``, ``dx2`` holds the distances to the window's samples
        only, and ``index_x`` is left for :func:`_sorted_counts`.
        Comparisons stay in the squared domain: squaring is monotone on
        nonnegative distances, so strict inequalities are preserved. The
        counts take in the sample's own distance 0, which is below any
        positive eps^2, so they are n + 1 as they stand; a sample with
        eps^2 = 0 has no such hit and gets one added.

        A block of fewer than N rows partitions its window rows for
        eps^2 and counts along rows, against eps^2 broadcast as a column.
        The one block of all N rows (N <= 181 by default) works on
        symmetric N x N matrices: fl(v - r) = -fl(r - v) and every entry
        sums its columns in the same order, so sample i's row counts are
        its column counts. It sorts the rows, which at this width is
        faster than partition and gives the same k-th order statistic,
        writes eps^2 along every row of the joint-distance buffer (no new
        buffer), and counts down the columns of two contiguous
        comparisons, with no broadcast. Either way the counts are summed
        in the narrowest type that holds N, which makes the reduction
        about twice as fast as 32 or 64 bits.
        """
        rows, k = dx2.shape[0], self.k
        lo, hi, dy2, edges = window
        near = dx2 if column is not None else dx2[:, lo:hi]
        dz2 = np.maximum(near, dy2, out=self._buffer("dz2", rows, hi - lo))
        # Each sample's own entry, (i, start + i), is not a neighbour.
        dz2.reshape(-1)[start - lo :: hi - lo + 1] = np.inf
        counts = np.min_scalar_type(self.n_samples)
        if rows == self.n_samples:
            dz2.sort(axis=1)
            eps2 = dz2[:, k - 1].copy()
            dz2[...] = eps2  # dz2[j, i] = eps2[i]: column i bounds sample i
            bound, axis = dz2, 0
        else:
            dz2.partition(k - 1, axis=1)
            eps2 = dz2[:, k - 1].copy()
            bound, axis = eps2[:, None], 1
        mask = self._buffer("mask", rows, hi - lo)
        np.less(dy2, bound, out=mask)
        np.add.reduce(mask.view(np.uint8), axis=axis, dtype=counts, out=index_y)
        if edges is not None:
            beyond = eps2 > edges
            if beyond.any():
                self._full_rows(dx2, start, np.flatnonzero(beyond), eps2, index_y, column)
        if column is None:
            mask = self._buffer("mask", rows)
            np.less(dx2, bound, out=mask)
            np.add.reduce(mask.view(np.uint8), axis=axis, dtype=counts, out=index_x)
        if not eps2.all():
            no_self_hit = eps2 == 0.0
            index_y += no_self_hit
            if column is None:
                index_x += no_self_hit
        return eps2

    def _full_rows(
        self,
        dx2: np.ndarray,
        start: int,
        failed: np.ndarray,
        eps2: np.ndarray,
        index_y: np.ndarray,
        column: np.ndarray | None = None,
    ) -> None:
        """eps^2 and n_y + 1 of the block's rows ``failed`` from their full rows, in place.

        The target's full rows go to the "target" buffer, apart from the
        block's window. When ``dx2`` covers only the window, the full X
        rows are made from ``column`` in the joint-distance buffer.
        """
        count, k = len(failed), self.k
        samples = start + failed
        dy2 = _sq_diffs(self._y[samples], self._y, self._buffer("target", count))
        if column is None:
            dz2 = np.take(dx2, failed, axis=0, out=self._buffer("dz2", count), mode="clip")
        else:
            dz2 = _sq_diffs(column[samples], column, self._buffer("dz2", count))
        np.maximum(dz2, dy2, out=dz2)
        dz2[np.arange(count), samples] = np.inf
        dz2.partition(k - 1, axis=1)
        eps2[failed] = dz2[:, k - 1]
        mask = self._buffer("mask", count)
        np.less(dy2, eps2[failed, None], out=mask)
        counts = np.min_scalar_type(self.n_samples)
        index_y[failed] = np.add.reduce(mask.view(np.uint8), axis=1, dtype=counts)

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
    return MiEstimate(MiSession(d.X, d.y, k=k, jitter_seed=jitter_seed).mi(subset), k, d.n_samples)
