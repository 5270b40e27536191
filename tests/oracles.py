"""Independent reference implementations used to cross-check the package.

Everything here is written as plainly as possible (per-sample loops,
no shared code with the package beyond numpy) so that agreement with
the production code is meaningful. The distance accumulation follows
the same canonical convention as production, ascending variable order
with one addition per variable, which is what makes bit-level
comparisons on eps and the neighbor counts legitimate.

The full-matrix MI path, the k-means, the sweep references, the
row-by-row CSV writer and the predict path further down are the
package's earlier code, kept to pin down that later restructurings of
it change no bit. They call the package's jitter,
digamma table, distance, kernel and width primitives, so agreement
checks the restructuring, not those primitives.

The scalar ``digamma``, ``knn_stats``, ``rbf_kernel`` and
``kkt_residual`` are small reference definitions the tests check the
package's vectorized code against; nothing in the package calls them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


def naive_neighborhood(x: np.ndarray, y: np.ndarray, i: int, k: int):
    """(eps, n_x, n_y) for sample i by exhaustive pairwise comparison."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=np.float64)
    n = len(y)

    dx2 = np.zeros(n)
    for j in range(x.shape[1]):
        dx2 += (x[:, j] - x[i, j]) ** 2
    dy2 = (y - y[i]) ** 2

    dz2 = []
    for m in range(n):
        if m != i:
            dz2.append(max(dx2[m], dy2[m]))
    eps2 = sorted(dz2)[k - 1]

    n_x = sum(1 for m in range(n) if m != i and dx2[m] < eps2)
    n_y = sum(1 for m in range(n) if m != i and dy2[m] < eps2)
    return math.sqrt(eps2), n_x, n_y


def naive_mi(x: np.ndarray, y: np.ndarray, k: int, psi=None) -> float:
    """Direct transcription of the k-NN MI estimator from its formula.

    ``psi`` defaults to mpmath's digamma so the oracle does not depend
    on the package's own special-function code.
    """
    if psi is None:
        import mpmath

        psi = lambda t: float(mpmath.digamma(t))  # noqa: E731
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    total = 0.0
    for i in range(n):
        _, n_x, n_y = naive_neighborhood(x, y, i, k)
        total += psi(n_x + 1) + psi(n_y + 1)
    return psi(k) - total / n + psi(n)


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


def knn_stats(points_x, points_y, i: int, k: int) -> NeighborhoodStats:
    """Neighborhood statistics of sample ``i`` among the given points, vectorized over samples.

    The joint distance between samples is max(Euclidean X-distance,
    absolute Y-distance); the k-th neighbor excludes the sample itself
    and the counts use strict inequality, so boundary ties are excluded.
    Duplicate points can make eps zero; the raw statistics are returned
    as they are.
    """
    x = np.ascontiguousarray(points_x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError(f"points_x must be 1- or 2-dimensional, got shape {x.shape}")
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


def gaussian_mi(rho: float) -> float:
    """Exact MI of a bivariate Gaussian with correlation rho, in nats."""
    return -0.5 * math.log(1.0 - rho * rho)


def best_subset_by_enumeration(session, candidates, max_size=None):
    """Highest-MI subset by brute force over all non-empty combinations.

    Ties resolve to the smaller subset, then to the lexicographically
    smaller sorted index tuple, mirroring the documented contract.
    """
    import itertools

    candidates = sorted(candidates)
    sizes = range(1, (max_size or len(candidates)) + 1)
    best = None
    for size in sizes:
        for combo in itertools.combinations(candidates, size):
            value = session.mi(combo)
            key = (-value, len(combo), combo)
            if best is None or key < best[0]:
                best = (key, combo, value)
    return best[1], best[2]


def sq_diffs(values: np.ndarray) -> np.ndarray:
    """Pairwise squared differences of a single variable, (N, N)."""
    return (values[:, None] - values[None, :]) ** 2


def x_sq_dists(columns) -> np.ndarray:
    """Pairwise squared Euclidean X-distances, accumulated column by column, (N, N)."""
    out = sq_diffs(columns[0])
    for col in columns[1:]:
        out += sq_diffs(col)
    return out


def neighborhood_arrays(dx2: np.ndarray, dy2: np.ndarray, k: int):
    """(eps^2, n_x, n_y) for every sample, from full squared distance matrices."""
    dz2 = np.maximum(dx2, dy2)
    dz2.reshape(-1)[:: dz2.shape[0] + 1] = np.inf
    dz2.partition(k - 1, axis=1)
    eps2 = dz2[:, k - 1].copy()
    # The self distance 0 is counted by the comparison whenever eps2 > 0.
    self_hit = eps2 > 0.0
    n_x = (dx2 < eps2[:, None]).sum(axis=1) - self_hit
    n_y = (dy2 < eps2[:, None]).sum(axis=1) - self_hit
    return eps2, n_x, n_y


def full_matrix_mi(x: np.ndarray, y: np.ndarray, k: int, jitter_seed: int = 0) -> float:
    """MI of all columns of ``x`` with ``y`` from whole N x N distance matrices.

    The package's estimator before it worked in blocks of rows: the same
    neighbour quantities, jitter fallback and sorted mean, every matrix
    at once.
    """
    from mivarsel.mi import _jittered, digamma_table

    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    eps2, n_x, n_y = neighborhood_arrays(x_sq_dists(x.T), sq_diffs(y), k)
    if not eps2.all():
        xj, yj = _jittered(x, y, jitter_seed)
        eps2, n_x, n_y = neighborhood_arrays(x_sq_dists(xj.T), sq_diffs(yj), k)
    psi = digamma_table(len(y))
    mean_contribution = float(np.mean(np.sort(psi[n_x + 1] + psi[n_y + 1])))
    return float(psi[k] + psi[len(y)] - mean_contribution)


def kmeans_by_masks(x, n_clusters, seed, max_iter=100):
    """models.kmeans with one boolean mask per cluster in the centroid update.

    Returns (centers, assignments, number of empty-cluster re-seeds).
    """
    from mivarsel.models import sq_dists

    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(n, size=n_clusters, replace=False)].copy()
    assign = np.full(n, -1, dtype=np.intp)
    reseeds = 0
    for _ in range(max_iter):
        d2 = sq_dists(x, centers)
        new_assign = d2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n_clusters)
        moved = set()
        while np.any(counts == 0):
            empty = int(np.flatnonzero(counts == 0)[0])
            own = d2[np.arange(n), new_assign].copy()
            if moved:
                own[list(moved)] = -1.0
            far = int(own.argmax())
            counts[new_assign[far]] -= 1
            new_assign[far] = empty
            counts[empty] += 1
            moved.add(far)
            reseeds += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.stack([x[assign == c].mean(axis=0) for c in range(n_clusters)])
    return centers, assign, reseeds


_SWEEP_ERRORS = (ValueError, np.linalg.LinAlgError)


def _nmse(errors, var_y):
    return float(np.mean(errors**2) / var_y)


def _trimmed_nmse(errors, var_y):
    """Mean squared error over var_y after the 99th-percentile trim."""
    dev = np.abs(errors - np.median(errors))
    return _nmse(errors[np.flatnonzero(dev <= np.percentile(dev, 99.0))], var_y)


def rbfn_sweep_fold(learn, valid, var_y, ks, ws, seed):
    """RbfnSweep.evaluate_fold as one solve and two scores per grid cell.

    Learning errors are scored untrimmed, validation errors trimmed.
    """
    from mivarsel.models import _cluster_widths, _kernel_from_sq, kmeans, sq_dists

    nmse_l = np.full(len(ks) * len(ws), np.nan)
    nmse_v = np.full(len(ks) * len(ws), np.nan)
    messages = {}
    for ki, k in enumerate(ks):
        base = ki * len(ws)
        try:
            centers, assign = kmeans(learn.X, k, seed)
            unit_widths = _cluster_widths(learn.X, centers, assign, 1.0)
            d2_valid = sq_dists(valid.X, centers)
        except _SWEEP_ERRORS as exc:
            for wi in range(len(ws)):
                messages[base + wi] = str(exc)
            continue
        for wi, wsf in enumerate(ws):
            widths = wsf * unit_widths
            try:
                design = np.hstack([
                    _kernel_from_sq(sq_dists(learn.X, centers), widths),
                    np.ones((len(learn.y), 1)),
                ])
                solution = np.linalg.lstsq(design, learn.y, rcond=None)[0]
                weights, bias = solution[:-1], float(solution[-1])
            except _SWEEP_ERRORS as exc:
                messages[base + wi] = str(exc)
                continue
            phi_l = _kernel_from_sq(sq_dists(learn.X, centers), widths)
            phi_v = _kernel_from_sq(d2_valid, widths)
            err_l = phi_l @ weights + bias - learn.y
            err_v = phi_v @ weights + bias - valid.y
            nmse_l[base + wi] = _nmse(err_l, var_y)
            nmse_v[base + wi] = _trimmed_nmse(err_v, var_y)
    return nmse_l, nmse_v, messages


def _masked_rows_nmse(errors, var_y):
    """Row-wise NMSE of an error matrix, trimmed through a mask sum."""
    dev = np.abs(errors - np.median(errors, axis=1, keepdims=True))
    mask = dev <= np.percentile(dev, 99.0, axis=1, keepdims=True)
    return (errors**2 * mask).sum(axis=1) / mask.sum(axis=1) / var_y


def lssvm_sweep_fold(learn, valid, var_y, sigmas, gammas):
    """LssvmSweep.evaluate_fold with the distance matrices rebuilt per width.

    Learning errors are scored untrimmed, validation errors trimmed.
    """
    from mivarsel.models import _kernel_from_sq, sq_dists

    gammas = np.asarray(gammas, dtype=np.float64)
    n_gamma = gammas.size
    nmse_l = np.full(len(sigmas) * n_gamma, np.nan)
    nmse_v = np.full(len(sigmas) * n_gamma, np.nan)
    messages = {}
    y = learn.y
    ones = np.ones(learn.n_samples)
    for si, sigma in enumerate(sigmas):
        base = si * n_gamma
        omega = _kernel_from_sq(sq_dists(learn.X, learn.X), sigma)
        k_valid = _kernel_from_sq(sq_dists(valid.X, learn.X), sigma)
        try:
            evals, vecs = np.linalg.eigh(omega)
        except np.linalg.LinAlgError as exc:
            for gi in range(n_gamma):
                messages[base + gi] = str(exc)
            continue
        vy = vecs.T @ y
        v1 = vecs.T @ ones
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / (evals[None, :] + 1.0 / gammas[:, None])
            bias = (w @ (v1 * vy)) / (w @ (v1 * v1))
            coeff = w * (vy[None, :] - bias[:, None] * v1[None, :])
            lam = coeff @ vecs.T
            err_l = lam @ omega + bias[:, None] - y[None, :]
            err_v = lam @ k_valid.T + bias[:, None] - valid.y[None, :]
            row_l = (err_l**2).mean(axis=1) / var_y
            row_v = _masked_rows_nmse(err_v, var_y)
        ok = np.isfinite(row_l) & np.isfinite(row_v)
        nmse_l[base : base + n_gamma] = np.where(ok, row_l, np.nan)
        nmse_v[base : base + n_gamma] = np.where(ok, row_v, np.nan)
        for gi in np.flatnonzero(~ok):
            messages[base + int(gi)] = (
                f"dual solve left non-finite scores for sigma={sigma}, "
                f"gamma={gammas[gi]}"
            )
    return nmse_l, nmse_v, messages


def rbf_kernel(x, c, sigma: float) -> float:
    """Gaussian kernel between two points; 1 exactly when x equals c."""
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64).ravel()
    c = np.asarray(c, dtype=np.float64).ravel()
    if x.shape != c.shape:
        raise ValueError(f"point dimensions differ: {x.shape} vs {c.shape}")
    d2 = float(((x - c) ** 2).sum())
    return float(np.exp(-d2 / (2.0 * sigma * sigma)))


def kkt_residual(m, train) -> float:
    """Max dual-optimality violation max_i |lambda_i - gamma (y_i - yhat_i)| of an LS-SVM."""
    residuals = train.y - m.predict(train.X)
    return float(np.max(np.abs(m.coefficients - m.gamma * residuals)))


def csv_module_save(d, path, target_label: str = "target") -> None:
    """``dataset.save_csv`` as the csv module writes it, one ``writerow`` per sample."""
    labels = d.labels or tuple(f"x{j}" for j in range(d.n_variables))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(labels) + [target_label])
        for i in range(d.n_samples):
            writer.writerow(
                [repr(float(v)) for v in d.X[i]] + [repr(float(d.y[i]))]
            )


def kept_by_numpy(errors):
    """``evaluation._kept`` as numpy's median and 99th percentile compute it."""
    dev = np.abs(errors - np.median(errors, axis=-1, keepdims=True))
    return dev <= np.percentile(dev, 99.0, axis=-1, keepdims=True)


# The predict path as the package wrote it before it computed each
# model's constants once and built the kernel in place: every call
# recomputes the support points' squared norms and copies at each step.


def normalize_spectrum_rows(x):
    """``dataset.normalize_spectrum_rows`` through numpy's mean, std and hstack."""
    from mivarsel.errors import DataError

    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] < 2:
        raise DataError("spectrum normalization needs at least 2 variables per row")
    means = x.mean(axis=1)
    stds = x.std(axis=1, ddof=1)
    degenerate = np.flatnonzero(stds == 0.0)
    if degenerate.size:
        raise DataError(
            f"row {int(degenerate[0])} has a constant spectrum (zero standard deviation)"
        )
    shape = (x - means[:, None]) / stds[:, None]
    return np.hstack([shape, means[:, None], stds[:, None]])


def project_rows(p, x):
    """``baselines.project_rows``: centre, scale, then multiply by the loadings."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != p.x_mean.shape[0]:
        raise ValueError(
            f"projection fitted on {p.x_mean.shape[0]} variables, rows have {x.shape[1]}"
        )
    xs = x - p.x_mean
    if p.x_scale is not None:
        xs = xs / p.x_scale
    return xs @ p.loadings


def sq_dists_expression(a, b):
    """``models.sq_dists`` as one expression, both norms computed on each call."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    d2 = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def _gaussian(d2, widths):
    w2 = np.asarray(widths, dtype=np.float64) ** 2
    return np.exp(-d2 / (2.0 * w2))


def _points(x, dim):
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got array of shape {np.shape(x)}")
    return arr, single


def predict_rbfn(m, x):
    points, single = _points(x, m.centroids.shape[1])
    out = _gaussian(sq_dists_expression(points, m.centroids), m.widths) @ m.weights + m.bias
    return float(out[0]) if single else out


def predict_lssvm(m, x):
    points, single = _points(x, m.support_points.shape[1])
    kernel = _gaussian(sq_dists_expression(points, m.support_points), m.sigma)
    out = kernel @ m.coefficients + m.bias
    return float(out[0]) if single else out


def predict_linear(m, x):
    points, single = _points(x, m.coefficients.shape[0])
    out = points @ m.coefficients + m.intercept
    return float(out[0]) if single else out


def pipeline_predict(pipeline, x):
    """``PipelineModel.predict``: coerce, map step by step, then predict the batch."""
    from mivarsel.errors import DataError
    from mivarsel.models import LinearModel, LssvmModel, RbfnModel

    single = np.asarray(x).ndim == 1
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if pipeline.n_inputs is not None and pts.shape[1] != pipeline.n_inputs:
        raise DataError(
            f"model was trained on {pipeline.n_inputs} input columns, rows have {pts.shape[1]}"
        )
    if pipeline.preprocessing == "spectrum-normalize":
        pts = normalize_spectrum_rows(pts)
    if pipeline.variables is not None:
        # ``take`` keeps the rows in row order, as the package's selection does.
        pts = pts.take(list(pipeline.variables), axis=1)
    if pipeline.projection is not None:
        pts = project_rows(pipeline.projection, pts)
    if pipeline.whitener is not None:
        pts = (pts - pipeline.whitener.means) / pipeline.whitener.stds
    predict = {RbfnModel: predict_rbfn, LssvmModel: predict_lssvm, LinearModel: predict_linear}
    out = np.asarray(predict[type(pipeline.model)](pipeline.model, pts))
    return float(out[0]) if single else out
