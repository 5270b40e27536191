"""Cross-validated meta-parameter search with outlier-trimmed validation scores.

The driver is :func:`cross_validate`: split the training rows into l folds,
evaluate every grid point on every fold, average the trimmed validation
errors, refit the winner on all training rows, and score the untouched test
set exactly once. There is one scoring rule: every score is an NMSE
against the pooled target variance, validation errors are trimmed by
:func:`trim_outliers`, and learning and test errors are not. Each sweep's
``evaluate_fold(learn, valid, var_y)`` follows it, and raises when a
whole fold fails, which :func:`sweep_folds` records. Model-specific sweep
classes know how to amortize work across the grid (shared k-means runs,
shared kernel eigendecompositions, shared projection fits) while the
winner is always re-fitted through the plain single-model entry points.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from itertools import product

import numpy as np

from ._blas import map_tasks
from .dataset import Dataset, _as_rows
from .errors import DataError, NumericalError
from .models import (
    LinearModel,
    PipelineModel,
    _cluster_widths,
    _kernel_from_sq,
    _lstsq_with_bias,
    encode,
    fit_linear,
    fit_lssvm,
    fit_mapping,
    fit_rbfn,
    kmeans,
    sq_dists,
)

__all__ = [
    "MetaGrid",
    "GridPointResult",
    "GridRows",
    "CvReport",
    "TestSetGuard",
    "LinearSweep",
    "ComponentSweep",
    "RbfnSweep",
    "LssvmSweep",
    "nmse",
    "pooled_target_variance",
    "kfold_split",
    "trim_outliers",
    "sweep_folds",
    "select_winner",
    "cross_validate",
    "median_pairwise_distance",
    "default_component_counts",
    "default_centroid_counts",
    "default_wsf_values",
    "default_sigma_values",
    "default_gamma_values",
    "grid_csv_blocks",
]

TRIM_PERCENTILE = 99.0

# grid_csv_blocks joins about this many lines into each piece it yields.
_GRID_BLOCK_LINES = 4096


# ---------------------------------------------------------------------------
# Metric, folds, trimming


def nmse(predictions, targets, var_y_all: float) -> float:
    """Mean squared error divided by a fixed target-variance normalizer.

    The normalizer is the variance of the target over every available
    sample (training and test pooled) so that scores from different data
    subsets are directly comparable. It must therefore be computed once
    per experiment and passed to every call.
    """
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(targets, dtype=np.float64).ravel()
    if p.shape != t.shape or p.size == 0:
        raise ValueError(
            f"predictions and targets must be equal non-empty vectors, "
            f"got {p.shape} and {t.shape}"
        )
    if not var_y_all > 0.0:
        raise ValueError(f"variance normalizer must be positive, got {var_y_all}")
    return _plain_nmse(p - t, var_y_all)


def pooled_target_variance(*datasets: Dataset) -> float:
    """Unbiased variance of the target over the rows of ``datasets`` pooled.

    An experiment pools its training and test rows; training alone
    passes one dataset. A constant target is a DataError whatever its
    value: all-0.1 targets give a variance of about 1e-33 from the
    rounding of their mean, not 0. A variance that overflows float64 is
    a NumericalError, as every score would be NaN.
    """
    pooled = np.concatenate([d.y for d in datasets])
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(pooled.var(ddof=1))
    if pooled.min() == pooled.max() or v == 0.0:
        raise DataError("target is constant or its variance underflows; nothing to normalize by")
    if not math.isfinite(v):
        raise NumericalError("the target's variance overflows float64; rescale the target")
    return v


def kfold_split(n: int, l: int, seed: int) -> list[np.ndarray]:
    """Random partition of range(n) into l validation folds of near-equal size.

    Fold sizes differ by at most one (larger folds first); assignment
    depends only on (n, l, seed), never on data values. Each returned
    index array is sorted.
    """
    if l < 2:
        raise ValueError(f"need at least 2 folds, got {l}")
    if l > n:
        raise ValueError(f"cannot split {n} samples into {l} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, l)]


def trim_outliers(errors) -> np.ndarray:
    """Indices of the errors kept after dropping extreme deviations.

    A sample is dropped when the absolute deviation of its error from the
    median error lies strictly above the 99th percentile (linear
    interpolation) of those deviations. Ties at the threshold are kept,
    so at most about 1% of the samples are removed.
    """
    e = np.asarray(errors, dtype=np.float64).ravel()
    if e.size == 0:
        raise ValueError("cannot trim an empty error vector")
    return np.flatnonzero(_kept(e))


def _kept(errors: np.ndarray) -> np.ndarray:
    """Mask of the errors :func:`trim_outliers` keeps, along the last axis.

    The same mask as ``dev <= np.percentile(dev, TRIM_PERCENTILE)`` with
    ``dev = np.abs(errors - np.median(errors))`` along the last axis,
    from one sort of the errors and one of the deviations instead of
    numpy's partitions: the median is the mean of the one or two middle
    values, and the threshold is numpy's ``linear`` rule, the lerp
    ``a + d * t`` or, from ``t = 0.5`` on, ``b - d * (1 - t)`` between the
    sorted deviations around the virtual index ``(n - 1) * 0.99``. A row
    holding NaN has a NaN threshold, so it keeps nothing.
    """
    n = errors.shape[-1]
    middle = np.sort(errors, axis=-1)[..., (n - 1) // 2 : n // 2 + 1]
    median = np.add.reduce(middle, axis=-1, keepdims=True) / middle.shape[-1]
    dev = np.abs(errors - median)
    spread = np.sort(dev, axis=-1)
    at = (n - 1) * (TRIM_PERCENTILE / 100)
    lo = math.floor(at) if at < n - 1 else -1
    hi = lo + 1 if lo >= 0 else -1
    t = at - lo
    a, b = spread[..., lo, None], spread[..., hi, None]
    step = b - a
    threshold = b - step * (1 - t) if t >= 0.5 else a + step * t
    return (dev <= threshold) & ~np.isnan(spread[..., -1:])


def _plain_nmse(errors: np.ndarray, var_y: float) -> float:
    """The score of learning and test errors: every error counts."""
    return float(np.mean(errors**2) / var_y)


def _trimmed_nmse_rows(errors: np.ndarray, var_y: float) -> list[float]:
    """The score of each row of a (rows, samples) matrix of validation errors.

    A row scores the errors :func:`trim_outliers` keeps of it. The
    median and the percentile are taken along the rows in one call
    each, giving the same values as one call per row, and each row's
    kept errors are averaged on their own, so every score has the bits
    of that row scored alone (:func:`_trimmed_nmse_masked` does not).
    """
    return [_plain_nmse(e[m], var_y) for e, m in zip(errors, _kept(errors))]


def _trimmed_nmse_masked(errors: np.ndarray, var_y: float) -> np.ndarray:
    """Row-wise trimmed NMSE of a (grid, samples) error matrix, as one masked sum."""
    mask = _kept(errors)
    return (errors**2 * mask).sum(axis=1) / mask.sum(axis=1) / var_y


# ---------------------------------------------------------------------------
# Test-set access control


class TestSetGuard:
    """Hands out the test set exactly once; later reads raise.

    Model selection must never see the test rows, so the guard counts
    accesses and the report records the final count.
    """

    __test__ = False  # not a test case despite the name

    def __init__(self, d: Dataset) -> None:
        self._dataset = d
        self.reads = 0

    @property
    def n_samples(self) -> int:
        return self._dataset.n_samples

    def take(self) -> Dataset:
        self.reads += 1
        if self.reads > 1:
            raise DataError("test set was read more than once in one experiment")
        return self._dataset


# ---------------------------------------------------------------------------
# Grids


@dataclass(frozen=True)
class MetaGrid:
    """Named axes of candidate meta-parameter values.

    The grid order is the cartesian product with the first axis slowest,
    and ties in validation score are always resolved toward the earlier
    grid point.
    """

    axes: tuple[tuple[str, tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a meta-parameter grid needs at least one axis")
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")
        for name, values in self.axes:
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no candidate values")

    def __len__(self) -> int:
        return math.prod(len(values) for _, values in self.axes)

    def points(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        grids = [values for _, values in self.axes]
        return [dict(zip(names, combo)) for combo in product(*grids)]

    def point(self, i: int) -> dict:
        """``points()[i]``, found by index arithmetic without building the others."""
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"grid point {i} is out of range for {n} points")
        rest = i % n
        picked = []
        for name, values in reversed(self.axes):
            rest, j = divmod(rest, len(values))
            picked.append((name, values[j]))
        return dict(reversed(picked))


def median_pairwise_distance(x: np.ndarray) -> float:
    """Median Euclidean distance over all distinct row pairs."""
    x = _as_rows(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows for a pairwise distance")
    d2 = sq_dists(x, x)
    upper = d2[np.triu_indices(n, k=1)]
    return float(np.median(np.sqrt(upper)))


def _min_fold_learn_size(n: int, l: int) -> int:
    # The largest validation fold leaves the smallest learning set behind.
    return n - math.ceil(n / l)


def default_component_counts(n_train: int, n_variables: int, l: int) -> tuple[int, ...]:
    """1..c where c is the most components any learning fold can support."""
    limit = min(_min_fold_learn_size(n_train, l) - 1, n_variables)
    if limit < 1:
        raise ValueError(
            f"no feasible component count for {n_train} samples in {l} folds"
        )
    return tuple(range(1, limit + 1))


def default_centroid_counts(n_train: int, l: int, limit: int = 30) -> tuple[int, ...]:
    cap = min(limit, _min_fold_learn_size(n_train, l))
    return tuple(range(1, cap + 1))


def default_wsf_values(count: int = 15) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(0.1, 10.0, count))


def default_sigma_values(x: np.ndarray, count: int = 100) -> tuple[float, ...]:
    """Kernel widths log-spaced two decades around the median pair distance."""
    scale = median_pairwise_distance(x)
    if scale <= 0.0:
        raise DataError("median pairwise distance is zero; inputs are degenerate")
    return tuple(float(v) for v in np.geomspace(0.01 * scale, 100.0 * scale, count))


def default_gamma_values(count: int = 300) -> tuple[float, ...]:
    return tuple(float(v) for v in np.geomspace(1e-3, 1e6, count))


# ---------------------------------------------------------------------------
# Sweeps: one class per model family

_SWEEP_ERRORS = (ValueError, DataError, NumericalError, np.linalg.LinAlgError)


class LinearSweep:
    """Degenerate grid: ordinary least squares has no meta-parameters."""

    def __init__(self) -> None:
        self.kind = "linear"
        self.grid = MetaGrid((("variant", ("ols",)),))

    def fit(self, train: Dataset, params: dict) -> LinearModel:
        return fit_linear(train)

    def evaluate_fold(self, learn, valid, var_y):
        m = fit_linear(learn)
        nmse_l = np.array([_plain_nmse(m.predict(learn.X) - learn.y, var_y)])
        nmse_v = np.array(_trimmed_nmse_rows((m.predict(valid.X) - valid.y)[None], var_y))
        return nmse_l, nmse_v, {}


class ComponentSweep:
    """Component-count search for PCA or PLS regression over the counts 1..n.

    Each fold fits one projection at the largest feasible count; smaller
    counts reuse its leading score columns. Scores from either projection
    are mutually orthogonal, so the least-squares coefficient of each
    component is independent of the others and predictions accumulate
    column by column. A component is usable while its learning scores
    carry more than 1e-20 of the learning inputs' energy, a floor that no
    rescaling moves and that centering's rounding stays below.
    """

    def __init__(self, projection: str, counts) -> None:
        if projection not in ("pca", "pls"):
            raise ValueError(f"unknown projection kind {projection!r}")
        counts = tuple(int(c) for c in counts)
        if counts != tuple(range(1, len(counts) + 1)):
            raise ValueError(f"component counts must be 1..n in order, got {counts}")
        self.projection = projection
        self.kind = "pcr" if projection == "pca" else "plsr"
        self.grid = MetaGrid((("components", counts),))

    def fit(self, train: Dataset, params: dict) -> PipelineModel:
        mapping, scores = fit_mapping(
            train, projection=self.projection, n_components=int(params["components"])
        )
        return replace(mapping, model=fit_linear(scores))

    def evaluate_fold(self, learn, valid, var_y):
        g = len(self.grid)
        nmse_l = np.full(g, np.nan)
        nmse_v = np.full(g, np.nan)
        cap = min(g, learn.n_samples - 1, learn.n_variables)
        if cap < 1:
            raise ValueError("learning fold too small for any component")
        mapping, mapped = fit_mapping(learn, projection=self.projection, n_components=cap)
        scores_l = mapped.X
        scores_v = mapping.transform_rows(valid.X)
        # Components whose training scores carry no energy cannot be
        # regressed on; they bound the usable prefix on rank-deficient folds.
        col2 = (scores_l**2).sum(axis=0)
        floor = 1e-20 * float(np.vdot(learn.X, learn.X))
        usable = 0
        while usable < col2.size and col2[usable] > floor:
            usable += 1
        beta = scores_l[:, :usable].T @ learn.y / col2[:usable]
        pred_l = np.full(learn.n_samples, learn.y.mean())
        pred_v = np.full(valid.n_samples, learn.y.mean())
        errs_v = []
        for c in range(usable):
            pred_l = pred_l + scores_l[:, c] * beta[c]
            pred_v = pred_v + scores_v[:, c] * beta[c]
            nmse_l[c] = _plain_nmse(pred_l - learn.y, var_y)
            errs_v.append(pred_v - valid.y)
        if usable:
            nmse_v[:usable] = _trimmed_nmse_rows(np.stack(errs_v), var_y)
        message = f"only {usable} usable components on this learning fold"
        return nmse_l, nmse_v, dict.fromkeys(range(usable, g), message)


class RbfnSweep:
    """Centroid-count and width-factor search for RBF networks.

    k-means depends only on the inputs and the centroid count, so per
    fold each count is clustered once, and its unscaled widths and its
    learning and validation distance matrices to the centroids are
    computed once. Per width factor the learning kernel matrix is built
    once and serves both the least-squares solve and the learning
    error. The errors of all width factors of one count are trimmed
    together, with the same bits as scoring each cell on its own.
    """

    def __init__(self, centroid_counts, wsf_values, seed: int = 0) -> None:
        self.kind = "rbfn"
        self.seed = int(seed)
        ks = tuple(int(k) for k in centroid_counts)
        ws = tuple(float(w) for w in wsf_values)
        self.grid = MetaGrid((("centroids", ks), ("wsf", ws)))
        self._ks = ks
        self._ws = ws

    def fit(self, train: Dataset, params: dict):
        return fit_rbfn(train, int(params["centroids"]), float(params["wsf"]), self.seed)

    def evaluate_fold(self, learn, valid, var_y):
        g = len(self._ks) * len(self._ws)
        nmse_l = np.full(g, np.nan)
        nmse_v = np.full(g, np.nan)
        messages: dict[int, str] = {}
        for ki, k in enumerate(self._ks):
            base = ki * len(self._ws)
            try:
                centers, assign = kmeans(learn.X, k, self.seed)
                unit_widths = _cluster_widths(learn.X, centers, assign, 1.0)
                d2_learn = sq_dists(learn.X, centers)
                d2_valid = sq_dists(valid.X, centers)
            except _SWEEP_ERRORS as exc:
                for wi in range(len(self._ws)):
                    messages[base + wi] = str(exc)
                continue
            solved, errs_l, errs_v = [], [], []
            for wi, wsf in enumerate(self._ws):
                widths = wsf * unit_widths
                phi_l = _kernel_from_sq(d2_learn, widths)
                try:
                    weights, bias = _lstsq_with_bias(phi_l, learn.y)
                except _SWEEP_ERRORS as exc:
                    messages[base + wi] = str(exc)
                    continue
                phi_v = _kernel_from_sq(d2_valid, widths)
                solved.append(base + wi)
                errs_l.append(phi_l @ weights + bias - learn.y)
                errs_v.append(phi_v @ weights + bias - valid.y)
            if solved:
                nmse_l[solved] = [_plain_nmse(e, var_y) for e in errs_l]
                nmse_v[solved] = _trimmed_nmse_rows(np.stack(errs_v), var_y)
        return nmse_l, nmse_v, messages


class LssvmSweep:
    """Kernel-width and regularization search for LS-SVM.

    The learning-learning and validation-learning distance matrices are
    computed once per fold and serve every width. For a fixed width the
    dual matrix differs across gamma only on its diagonal, so one
    eigendecomposition per (width, fold) serves the whole gamma axis:
    with kernel eigenpairs (V, D) the dual solve reduces to elementwise
    work on 1/(D + 1/gamma).
    """

    def __init__(self, sigma_values, gamma_values) -> None:
        self.kind = "lssvm"
        sigmas = tuple(float(s) for s in sigma_values)
        gammas = tuple(float(g) for g in gamma_values)
        self.grid = MetaGrid((("sigma", sigmas), ("gamma", gammas)))
        self._sigmas = sigmas
        self._gammas = np.asarray(gammas, dtype=np.float64)

    def fit(self, train: Dataset, params: dict):
        return fit_lssvm(train, float(params["sigma"]), float(params["gamma"]))

    def evaluate_fold(self, learn, valid, var_y):
        n_gamma = self._gammas.size
        g = len(self._sigmas) * n_gamma
        nmse_l = np.full(g, np.nan)
        nmse_v = np.full(g, np.nan)
        messages: dict[int, str] = {}
        y = learn.y
        ones = np.ones(learn.n_samples)
        d2_learn = sq_dists(learn.X, learn.X)
        d2_valid = sq_dists(valid.X, learn.X)
        # 1/gamma down each row, built once per fold: adding the
        # eigenvalues to a contiguous matrix is cheaper than broadcasting
        # a column at every width, and gives the same sums.
        inv_gamma = np.repeat(1.0 / self._gammas[:, None], learn.n_samples, axis=1)
        for si, sigma in enumerate(self._sigmas):
            base = si * n_gamma
            omega = _kernel_from_sq(d2_learn, sigma)
            k_valid = _kernel_from_sq(d2_valid, sigma)
            try:
                evals, vecs = np.linalg.eigh(omega)
            except np.linalg.LinAlgError as exc:
                for gi in range(n_gamma):
                    messages[base + gi] = str(exc)
                continue
            vy = vecs.T @ y
            v1 = vecs.T @ ones
            with np.errstate(divide="ignore", invalid="ignore"):
                w = evals + inv_gamma
                np.divide(1.0, w, out=w)
                bias = (w @ (v1 * vy)) / (w @ (v1 * v1))
                coeff = w * (vy[None, :] - bias[:, None] * v1[None, :])
                lam = coeff @ vecs.T
                err_l = lam @ omega + bias[:, None] - y[None, :]
                err_v = lam @ k_valid.T + bias[:, None] - valid.y[None, :]
                row_l = (err_l**2).mean(axis=1) / var_y
                row_v = _trimmed_nmse_masked(err_v, var_y)
            ok = np.isfinite(row_l) & np.isfinite(row_v)
            nmse_l[base : base + n_gamma] = np.where(ok, row_l, np.nan)
            nmse_v[base : base + n_gamma] = np.where(ok, row_v, np.nan)
            for gi in np.flatnonzero(~ok):
                messages[base + int(gi)] = (
                    f"dual solve left non-finite scores for sigma={sigma}, "
                    f"gamma={self._gammas[gi]}"
                )
        return nmse_l, nmse_v, messages


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class GridPointResult:
    """Per-fold scores for one meta-parameter combination."""

    index: int
    params: dict
    nmse_l: tuple[float, ...]
    nmse_v: tuple[float, ...]
    error: str | None = None


class GridRows(Sequence):
    """Read-only grid rows over a sweep's score matrices, each built when read.

    Row ``i`` is the :class:`GridPointResult` of ``grid.point(i)`` with the
    scores of row ``i`` of the (grid points, folds) matrices ``mat_l`` and
    ``mat_v`` and the message ``errors.get(i)``. Only the matrices and the
    messages are held, so a 30,000-point grid costs two small arrays, not
    30,000 objects. Rows compare equal to a tuple of the same rows.
    """

    __slots__ = ("_grid", "_mat_l", "_mat_v", "_errors")

    def __init__(self, grid: MetaGrid, mat_l: np.ndarray, mat_v: np.ndarray,
                 errors: dict[int, str]) -> None:
        self._grid = grid
        self._mat_l = mat_l
        self._mat_v = mat_v
        self._errors = errors

    def __len__(self) -> int:
        return len(self._grid)

    def __getitem__(self, i: int) -> GridPointResult:
        params = self._grid.point(i)
        i = operator.index(i) % len(self)
        return GridPointResult(
            index=i,
            params=params,
            nmse_l=tuple(self._mat_l[i].tolist()),
            nmse_v=tuple(self._mat_v[i].tolist()),
            error=self._errors.get(i),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, GridRows)):
            return NotImplemented
        return self is other or tuple(self) == tuple(other)


@dataclass(frozen=True)
class CvReport:
    """Everything cross_validate decided and measured, in one record.

    ``rows`` holds one :class:`GridPointResult` per grid point in grid
    order. :func:`cross_validate` passes a :class:`GridRows` over its
    score matrices, so a row is built when it is read; a tuple of rows
    gives the same report.
    """

    kind: str
    l: int
    seed: int
    var_y: float
    n_train: int
    n_test: int
    folds: tuple[tuple[int, ...], ...]
    rows: Sequence[GridPointResult]
    winner_index: int
    winner_params: dict
    winner_fold_nmse_l: tuple[float, ...]
    winner_fold_nmse_v: tuple[float, ...]
    trimmed_per_fold: tuple[tuple[int, ...], ...]
    nmse_t: float
    test_reads: int
    trim_learn: bool
    trim_valid: bool
    trim_test: bool

    @property
    def mean_nmse_l(self) -> float:
        return float(np.mean(self.winner_fold_nmse_l))

    @property
    def mean_nmse_v(self) -> float:
        return float(np.mean(self.winner_fold_nmse_v))

    def to_dict(self) -> dict:
        """The report's fields, with ``rows`` as ``grid`` and the winner's means.

        The rows are encoded one by one, whatever sequence holds them.
        """
        doc = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "rows":
                doc["grid"] = [encode(row) for row in value]
            else:
                doc[f.name] = encode(value)
            if f.name == "winner_fold_nmse_v":
                doc["mean_nmse_l"] = self.mean_nmse_l
                doc["mean_nmse_v"] = self.mean_nmse_v
        return doc


def grid_csv_blocks(report: CvReport):
    """Flat (grid point, fold, score) CSV rows in pieces of about ``_GRID_BLOCK_LINES`` lines.

    A writer that takes the pieces one by one holds one piece of a large
    grid at a time, not the whole text.
    """
    lines = ["grid_index,params,fold,nmse_l,nmse_v\n"]
    for row in report.rows:
        params = ";".join(f"{k}={v}" for k, v in row.params.items())
        for fold_i, (vl, vv) in enumerate(zip(row.nmse_l, row.nmse_v)):
            cl = "" if math.isnan(vl) else repr(vl)
            cv = "" if math.isnan(vv) else repr(vv)
            lines.append(f"{row.index},{params},{fold_i},{cl},{cv}\n")
        if len(lines) >= _GRID_BLOCK_LINES:
            yield "".join(lines)
            lines = []
    yield "".join(lines)


# ---------------------------------------------------------------------------
# Driver


def _run_fold(state, i: int):
    """Fold ``i``'s (nmse_l, nmse_v, messages) under the (sweep, splits, var_y) state."""
    sweep, splits, var_y = state
    learn, valid = splits[i]
    try:
        return sweep.evaluate_fold(learn, valid, var_y)
    except _SWEEP_ERRORS as exc:
        failed = np.full(len(sweep.grid), np.nan)
        return failed, failed.copy(), dict.fromkeys(range(len(sweep.grid)), str(exc))


def sweep_folds(
    train: Dataset,
    sweep,
    l: int,
    seed: int,
    var_y: float,
    *,
    workers: int = 1,
):
    """Score every grid point on every fold; no winner logic, no test data.

    Returns (folds, splits, mat_l, mat_v, messages) with score matrices of
    shape (grid points, folds) and one {grid index: reason} dict per fold.
    A sweep error raised out of a whole fold marks every grid point of
    that fold NaN with the error's text. The folds run on up to ``workers``
    processes (:func:`map_tasks`) and land in fold order, so worker count
    and completion order never change the outcome.
    """
    folds = kfold_split(train.n_samples, l, seed)
    everything = np.arange(train.n_samples)
    splits = [
        (train.take_rows(np.setdiff1d(everything, f)), train.take_rows(f))
        for f in folds
    ]
    fold_results = map_tasks(_run_fold, (sweep, splits, var_y), range(l), workers)

    n_points = len(sweep.grid)
    mat_l = np.column_stack([r[0] for r in fold_results])
    mat_v = np.column_stack([r[1] for r in fold_results])
    if mat_l.shape != (n_points, l):
        raise NumericalError(
            f"sweep returned {mat_l.shape[0]} scores for {n_points} grid points"
        )
    return folds, splits, mat_l, mat_v, [r[2] for r in fold_results]


def select_winner(mat_l: np.ndarray, mat_v: np.ndarray, messages=None) -> int:
    """Grid index minimizing mean validation NMSE over folds.

    A point that failed on any fold is disqualified; exact ties resolve
    to the earliest grid point. When every point fails, the error names
    the most frequent of the points' first failure messages, taken from
    ``messages`` (one {grid index: reason} dict per fold, as
    :func:`sweep_folds` returns them), and how many points it covers.
    """
    usable = ~np.isnan(mat_v).any(axis=1) & ~np.isnan(mat_l).any(axis=1)
    if not usable.any():
        first: dict[int, str] = {}
        for fold_messages in messages or ():
            for i, message in fold_messages.items():
                first.setdefault(i, message)
        reason = ""
        if first:
            message, count = Counter(first.values()).most_common(1)[0]
            reason = f" ({count} of {len(usable)} points: {message})"
        raise NumericalError(f"every grid point failed on at least one fold{reason}")
    means = np.where(usable, mat_v.mean(axis=1), np.inf)
    return int(np.argmin(means))


def cross_validate(
    train: Dataset,
    test: Dataset | TestSetGuard,
    sweep,
    l: int,
    seed: int,
    var_y: float,
    *,
    workers: int = 1,
):
    """Grid search by l-fold cross-validation; returns (CvReport, model).

    Every grid point is scored on every fold; the winner minimizes the
    mean trimmed validation NMSE (ties go to the earlier grid point; a
    point failing on any fold is disqualified). The winner is then refit
    on all training rows through the model family's plain fitting
    function, and the test set, handed out by its guard exactly once, is
    scored last, untrimmed. The report's ``trim_*`` fields record that
    rule. The report keeps the (grid points, folds) score matrices and
    each point's first failure message; its ``rows`` are a
    :class:`GridRows` that builds each point's row when it is read.
    """
    guard = test if isinstance(test, TestSetGuard) else TestSetGuard(test)
    folds, splits, mat_l, mat_v, messages = sweep_folds(
        train, sweep, l, seed, var_y, workers=workers
    )
    winner_index = select_winner(mat_l, mat_v, messages)
    winner_params = sweep.grid.point(winner_index)

    # The winner is re-fitted per fold through the canonical entry point,
    # which also pins down exactly which validation rows were trimmed.
    winner_l: list[float] = []
    winner_v: list[float] = []
    trimmed: list[tuple[int, ...]] = []
    for fold_idx, (learn, valid) in zip(folds, splits):
        model = sweep.fit(learn, winner_params)
        err_l = np.asarray(model.predict(learn.X)) - learn.y
        err_v = np.asarray(model.predict(valid.X)) - valid.y
        winner_l.append(_plain_nmse(err_l, var_y))
        kept = trim_outliers(err_v)
        winner_v.append(_plain_nmse(err_v[kept], var_y))
        dropped = np.setdiff1d(np.arange(err_v.size), kept)
        trimmed.append(tuple(int(i) for i in fold_idx[dropped]))

    final_model = sweep.fit(train, winner_params)
    held_out = guard.take()
    err_t = np.asarray(final_model.predict(held_out.X)) - held_out.y
    nmse_t = _plain_nmse(err_t, var_y)

    # Each point's error is its first failing fold's message.
    errors: dict[int, str] = {}
    for fold_i, fold_messages in enumerate(messages):
        for i, message in fold_messages.items():
            errors.setdefault(i, f"fold {fold_i}: {message}")

    report = CvReport(
        kind=sweep.kind,
        l=l,
        seed=seed,
        var_y=float(var_y),
        n_train=train.n_samples,
        n_test=guard.n_samples,
        folds=tuple(tuple(int(i) for i in f) for f in folds),
        rows=GridRows(sweep.grid, mat_l, mat_v, errors),
        winner_index=winner_index,
        winner_params=winner_params,
        winner_fold_nmse_l=tuple(winner_l),
        winner_fold_nmse_v=tuple(winner_v),
        trimmed_per_fold=tuple(trimmed),
        nmse_t=nmse_t,
        test_reads=guard.reads,
        trim_learn=False,
        trim_valid=True,
        trim_test=False,
    )
    return report, final_model
