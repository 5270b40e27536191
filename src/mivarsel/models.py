"""Regression models: RBF network, least-squares SVM, ordinary linear.

The Gaussian kernel is Phi(x, c, sigma) = exp(-(||x - c|| / (sqrt(2) sigma))^2),
i.e. exp(-||x - c||^2 / (2 sigma^2)), shared by both kernel models.

* RBFN (fit_rbfn): K centroids from a target-blind k-means on the
  inputs, per-centroid widths sigma_k = WSF * (mean distance of the
  cluster's members to the centroid), output weights and bias by least
  squares on the training targets.
* LS-SVM (fit_lssvm): all training points become support points; the
  dual linear system [[0, 1^T], [1, Omega + I/gamma]] [b; Lambda] = [0; y]
  is solved densely, with one iterative-refinement step to tighten the
  optimality residual lambda_i = gamma * (y_i - yhat_i).
* Linear (fit_linear): least squares with intercept; rank-deficient
  inputs get the minimum-norm solution.

Models are immutable after fitting; prediction is a pure function of
(model, x). A :class:`PipelineModel` bundles a fitted model with the
input mapping it was trained behind, which :func:`fit_mapping` fits and
its ``transform_rows`` applies. :func:`encode` and :func:`decode`
are the one JSON codec: every model, and every result record the CLI
writes, is its dataclass fields in declaration order.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .baselines import Projection, fit_pca, fit_pls, project_rows, transform
from .dataset import (
    ColumnWhitener,
    Dataset,
    _as_rows,
    _frozen,
    fit_column_whitener,
    normalize_spectra,
    normalize_spectrum_rows,
)
from .errors import DataError, NumericalError

PREPROCESSINGS = ("none", "spectrum-normalize")


def preprocess(d: Dataset, preprocessing: str) -> Dataset:
    """``d`` mapped through the named preprocessing, one of PREPROCESSINGS."""
    return normalize_spectra(d) if preprocessing == "spectrum-normalize" else d


_KMEANS_MAX_ITER = 100


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of each row of a 2-D float64 array."""
    return np.add.reduce(a * a, axis=1)


def sq_dists(a: np.ndarray, b: np.ndarray, b_sq: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances, (len(a), len(b)).

    Uses the expanded product form ``|a|^2 + |b|^2 - 2 a.b``; tiny
    negative values from rounding are clipped to zero. ``b_sq`` is
    ``b``'s squared row norms: a fitted model computes those of its
    support points or centroids once and passes them, and they are
    computed here when it is None. The result is built in place in one
    fresh (len(a), len(b)) buffer besides the product's, with the bits
    of the expression written out. The product ``a @ b.T`` is one BLAS
    call over all of ``a``, so a row's last bits can depend on the other
    rows of ``a``, as they always have.
    """
    a, b = _as_rows(a), _as_rows(b)
    d2 = _sq_norms(a)[:, None] + (_sq_norms(b) if b_sq is None else b_sq)
    product = a @ b.T
    product *= 2.0
    d2 -= product
    return np.maximum(d2, 0.0, out=d2)


def _kernel_from_sq(d2: np.ndarray, widths) -> np.ndarray:
    """The Gaussian kernel of squared distances ``d2`` in a new array."""
    return _kernel_in_place(d2.copy(), _kernel_denominators(widths))


def _kernel_denominators(widths) -> np.ndarray:
    """The ``2 w^2`` that :func:`_kernel_from_sq` divides by."""
    return 2.0 * np.asarray(widths, dtype=np.float64) ** 2


def _kernel_in_place(d2: np.ndarray, two_w2) -> np.ndarray:
    """``exp(-d2 / two_w2)`` written over ``d2``, the denominators given.

    The negation comes first, as in ``-d2 / two_w2``, so even a NaN keeps
    its sign bit. The sweeps call :func:`_kernel_from_sq`, which copies,
    because they reuse one distance matrix for every width.
    """
    np.negative(d2, out=d2)
    np.divide(d2, two_w2, out=d2)
    return np.exp(d2, out=d2)


def _as_points(x, dim: int) -> tuple[np.ndarray, bool]:
    """``x`` as rows by :func:`_as_rows`, each of ``dim`` columns, and whether it was one point."""
    arr = _as_rows(x)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got array of shape {np.shape(x)}")
    return arr, np.ndim(x) < 2


@dataclass(frozen=True)
class RbfnModel:
    """Weighted sum of Gaussian kernels plus a bias."""

    centroids: np.ndarray
    widths: np.ndarray
    weights: np.ndarray
    bias: float
    wsf: float

    def __post_init__(self) -> None:
        centroids = _frozen(np.atleast_2d(self.centroids))
        widths = _frozen(np.atleast_1d(self.widths))
        weights = _frozen(np.atleast_1d(self.weights))
        k = centroids.shape[0]
        if widths.shape != (k,) or weights.shape != (k,):
            raise ValueError(
                f"inconsistent sizes: {k} centroids, {widths.shape[0]} widths, "
                f"{weights.shape[0]} weights"
            )
        if np.any(widths <= 0.0):
            raise ValueError("all widths must be positive")
        if self.wsf <= 0.0:
            raise ValueError(f"wsf must be positive, got {self.wsf}")
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "weights", weights)
        # Constants of every prediction, computed once; not fields, so
        # documents, encode and == do not see them.
        object.__setattr__(self, "_dim", centroids.shape[1])
        object.__setattr__(self, "_centroid_sq", _sq_norms(centroids))
        object.__setattr__(self, "_two_w2", _kernel_denominators(widths))

    def predict(self, x):
        points, single = _as_points(x, self._dim)
        d2 = sq_dists(points, self.centroids, self._centroid_sq)
        out = _kernel_in_place(d2, self._two_w2) @ self.weights + self.bias
        return float(out[0]) if single else out


@dataclass(frozen=True)
class LssvmModel:
    """Kernel expansion over all training points with a bias."""

    support_points: np.ndarray
    coefficients: np.ndarray
    bias: float
    sigma: float
    gamma: float

    def __post_init__(self) -> None:
        support = _frozen(np.atleast_2d(self.support_points))
        coeffs = _frozen(np.atleast_1d(self.coefficients))
        if coeffs.shape[0] != support.shape[0]:
            raise ValueError(
                f"{coeffs.shape[0]} coefficients for {support.shape[0]} support points"
            )
        if self.sigma <= 0.0 or self.gamma <= 0.0:
            raise ValueError(
                f"sigma and gamma must be positive, got sigma={self.sigma}, gamma={self.gamma}"
            )
        object.__setattr__(self, "support_points", support)
        object.__setattr__(self, "coefficients", coeffs)
        # Constants of every prediction, computed once (see RbfnModel).
        object.__setattr__(self, "_dim", support.shape[1])
        object.__setattr__(self, "_support_sq", _sq_norms(support))
        object.__setattr__(self, "_two_w2", _kernel_denominators(self.sigma))

    def predict(self, x):
        points, single = _as_points(x, self._dim)
        d2 = sq_dists(points, self.support_points, self._support_sq)
        out = _kernel_in_place(d2, self._two_w2) @ self.coefficients + self.bias
        return float(out[0]) if single else out


@dataclass(frozen=True)
class LinearModel:
    """Affine map: prediction = x . coefficients + intercept."""

    coefficients: np.ndarray
    intercept: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _frozen(np.atleast_1d(self.coefficients)))
        object.__setattr__(self, "_dim", self.coefficients.shape[0])

    def predict(self, x):
        points, single = _as_points(x, self._dim)
        out = points @ self.coefficients + self.intercept
        return float(out[0]) if single else out


def kmeans(x: np.ndarray, n_clusters: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with deterministic seeding from the data points.

    Initial centers are a seeded draw of distinct rows. A cluster that
    loses all members is re-seeded to the point currently farthest from
    its own centroid. Stops on assignment convergence or after
    ``_KMEANS_MAX_ITER`` sweeps; returns (centers, assignments).
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in 1..{n}, got {n_clusters}")
    rng = np.random.default_rng(seed)
    centers = x[rng.choice(n, size=n_clusters, replace=False)].copy()
    assign = np.full(n, -1, dtype=np.intp)
    for _ in range(_KMEANS_MAX_ITER):
        d2 = sq_dists(x, centers)
        new_assign = d2.argmin(axis=1)
        counts = np.bincount(new_assign, minlength=n_clusters)
        moved: set[int] = set()
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
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = _cluster_means(x, assign, counts)
    return centers, assign


def _cluster_means(x: np.ndarray, assign: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each cluster's rows; every count must be positive.

    A stable sort groups the rows by cluster in index order, so each
    cluster's slice holds the same rows in the same layout as
    ``x[assign == c]``. ``np.mean`` is ``np.add.reduce`` divided by the
    count, so summing each slice and dividing once gives the bits of
    ``x[assign == c].mean(axis=0)``, without one boolean mask per cluster.
    """
    grouped = x[np.argsort(assign, kind="stable")]
    ends = np.cumsum(counts)
    sums = np.stack([np.add.reduce(grouped[end - n : end]) for n, end in zip(counts, ends)])
    return sums / counts[:, None]


def _cluster_widths(
    x: np.ndarray, centers: np.ndarray, assign: np.ndarray, wsf: float
) -> np.ndarray:
    """Per-centroid widths: wsf times the mean member distance.

    A distance at or below 1e-8 times the inputs' RMS spread (the root
    mean squared distance of the rows from their mean) counts as zero.
    Clusters whose mean member distance is zero in that sense
    (singletons, duplicated or near-duplicated points) fall back to the
    nearest other centroid's distance, then to 1.0, so no width is
    rounding noise and every width is strictly positive.
    """
    k = centers.shape[0]
    member_dist = np.sqrt(((x - centers[assign]) ** 2).sum(axis=1))
    tol = 1e-8 * float(np.sqrt(((x - x.mean(axis=0)) ** 2).sum(axis=1).mean()))
    center_d2 = sq_dists(centers, centers)
    np.fill_diagonal(center_d2, np.inf)
    widths = np.empty(k)
    for c in range(k):
        members = member_dist[assign == c]
        local = float(members.mean()) if members.size else 0.0
        if local <= tol:
            local = float(np.sqrt(center_d2[c].min())) if k > 1 else 0.0
            if local <= tol or not np.isfinite(local):
                local = 1.0
        widths[c] = wsf * local
    return widths


def _lstsq_with_bias(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares weights and bias for y ~ design @ weights + bias.

    A design with a non-finite entry raises NumericalError before LAPACK
    sees it.
    """
    if not np.isfinite(design).all():
        raise NumericalError("least-squares design matrix has non-finite entries")
    augmented = np.hstack([design, np.ones((len(y), 1))])
    solution = np.linalg.lstsq(augmented, y, rcond=None)[0]
    return solution[:-1], float(solution[-1])


def solve_rbf_weights(
    x: np.ndarray, y: np.ndarray, centroids: np.ndarray, widths: np.ndarray
) -> tuple[np.ndarray, float]:
    """Least-squares output weights and bias for fixed centroids/widths."""
    design = _kernel_in_place(sq_dists(x, centroids), _kernel_denominators(widths))
    return _lstsq_with_bias(design, y)


def fit_rbfn(train: Dataset, n_centroids: int, wsf: float, seed: int = 0) -> RbfnModel:
    """Fit an RBF network; the centroid placement never reads the targets."""
    if wsf <= 0.0:
        raise ValueError(f"wsf must be positive, got {wsf}")
    centers, assign = kmeans(train.X, n_centroids, seed)
    widths = _cluster_widths(train.X, centers, assign, wsf)
    weights, bias = solve_rbf_weights(train.X, train.y, centers, widths)
    return RbfnModel(centers, widths, weights, bias, float(wsf))


def fit_lssvm(train: Dataset, sigma: float, gamma: float) -> LssvmModel:
    """Solve the LS-SVM dual system for the given kernel width and weight."""
    if sigma <= 0.0 or gamma <= 0.0:
        raise ValueError(
            f"sigma and gamma must be positive, got sigma={sigma}, gamma={gamma}"
        )
    x, y = train.X, train.y
    n = train.n_samples
    a = np.zeros((n + 1, n + 1))
    a[0, 1:] = 1.0
    a[1:, 0] = 1.0
    a[1:, 1:] = _kernel_in_place(sq_dists(x, x), _kernel_denominators(sigma))
    a[np.arange(1, n + 1), np.arange(1, n + 1)] += 1.0 / gamma
    rhs = np.concatenate([[0.0], y])
    try:
        solution = np.linalg.solve(a, rhs)
        # One refinement step tightens lambda_i = gamma * e_i to solver precision.
        solution += np.linalg.solve(a, rhs - a @ solution)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"LS-SVM dual system is singular for sigma={sigma}, gamma={gamma} "
            f"(condition estimate {np.linalg.cond(a):.3e})"
        ) from exc
    if not np.all(np.isfinite(solution)):
        raise NumericalError(
            f"LS-SVM solve produced non-finite values for sigma={sigma}, gamma={gamma}"
        )
    return LssvmModel(x, solution[1:], float(solution[0]), float(sigma), float(gamma))


def fit_linear(train: Dataset) -> LinearModel:
    return LinearModel(*_lstsq_with_bias(train.X, train.y))


# ---------------------------------------------------------------------------
# Composite model


@dataclass(frozen=True, kw_only=True)
class PipelineModel:
    """A fitted model bundled with every input transformation it needs.

    predict accepts rows in the space the experiment started from:
    raw spectra when the pipeline normalizes them itself, otherwise the
    training matrix's space. ``n_inputs`` is that space's width; rows of
    another width raise DataError. Documents written before the width was
    recorded load with ``n_inputs=None`` and check instead that rows reach
    past the highest variable, or else fit the projection or the model (one
    that normalizes spectra and then selects variables cannot, and raises).
    """

    preprocessing: str = "none"
    variables: tuple[int, ...] | None = None
    projection: Projection | None = None
    whitener: ColumnWhitener | None = None
    model: object
    n_inputs: int | None = None

    def __post_init__(self) -> None:
        if self.preprocessing not in PREPROCESSINGS:
            raise ValueError(f"unknown preprocessing {self.preprocessing!r}")
        columns = None
        if self.variables is not None:
            object.__setattr__(self, "variables", tuple(int(j) for j in self.variables))
            columns = np.array(self.variables, dtype=np.intp)
        # The variables as an index array, built once; not a field.
        object.__setattr__(self, "_columns", columns)
        # The raw widths rows may have when n_inputs is not recorded; not a field.
        reads = len(self.projection.x_mean) if self.projection else getattr(self.model, "_dim", 0)
        low = max(self.variables) + 1 if self.variables else reads
        high = math.inf if self.variables or not reads else reads
        added = 2 if self.preprocessing == "spectrum-normalize" else 0  # its mean and std columns
        # None when variables index normalized rows, which tell nothing of the raw width.
        unknown = added and self.variables and self.n_inputs is None
        object.__setattr__(self, "_widths", None if unknown else (low - added, high - added))

    def transform_rows(self, x) -> np.ndarray:
        """Raw rows (a 1-D row or a matrix) mapped into the model's input space."""
        pts = _as_rows(x)
        width = pts.shape[1]
        if self.n_inputs is not None and width != self.n_inputs:
            raise DataError(f"model was trained on {self.n_inputs} input columns, rows have {width}")
        if self.preprocessing == "spectrum-normalize":
            pts = normalize_spectrum_rows(pts)
        if self._widths is None:
            raise DataError("model records no n_inputs, the raw width it needs to select variables")
        low, high = self._widths
        if not low <= width <= high:
            least = "at least " if high > low else ""
            raise DataError(f"model takes {least}{low} input columns, rows have {width}")
        if self._columns is not None:
            pts = pts.take(self._columns, axis=1)
        if self.projection is not None:
            pts = project_rows(self.projection, pts)
        if self.whitener is not None:
            pts = (pts - self.whitener.means) / self.whitener.stds
        return pts

    def predict(self, x):
        """Predictions for raw rows: one float for a 1-D row, an array for a matrix.

        The rows are converted to float64 once, and every later step takes
        that matrix as it is, with no copy. The constants of
        the path (the variables' index array, the squared norms of the
        support points or centroids and the kernel denominators) were
        computed once, when the pipeline and its model were built or
        loaded, and the kernel is built in the batch's own distance
        buffer; the bits are those of the plain expressions. The regressor
        predicts the whole batch with matrix products, so a row's last
        bits can depend on the other rows of its batch. A prediction is
        bit-exact only against one made from the same batch.
        """
        pts = np.asarray(x, dtype=np.float64)
        out = self.model.predict(self.transform_rows(pts))
        return float(out[0]) if pts.ndim == 1 else out


def fit_mapping(
    train: Dataset,
    variables: tuple[int, ...] | None = None,
    projection: str | None = None,
    n_components: int | None = None,
    whiten: bool = False,
) -> tuple[PipelineModel, Dataset]:
    """Fit a pipeline's input mapping on training rows: variables, projection, whitening.

    Returns the mapping as a :class:`PipelineModel` with no model yet
    and the training rows it maps. Other rows go through the mapping's
    ``transform_rows``, the path ``predict`` takes, and must have the
    training rows' width.
    """
    width = train.n_variables
    if variables is not None:
        train = train.take_variables(list(variables))
    proj = None
    if projection is not None:
        proj = (fit_pca if projection == "pca" else fit_pls)(train, n_components)
        train = transform(proj, train)
    whitener = None
    if whiten:
        whitener = fit_column_whitener(train)
        train = whitener.apply(train)
    mapping = PipelineModel(
        model=None, variables=variables, projection=proj, whitener=whitener, n_inputs=width
    )
    return mapping, train


# ---------------------------------------------------------------------------
# Documents

MODEL_FORMAT = "mivarsel-model"
MODEL_FORMAT_VERSION = 1

# Fitted-model classes by document kind; encode wraps these in a document.
_KINDS = {"rbfn": RbfnModel, "lssvm": LssvmModel, "linear": LinearModel, "pipeline": PipelineModel}
_KIND_OF = {cls: kind for kind, cls in _KINDS.items()}


def encode(obj):
    """The JSON-ready form of ``obj``.

    A dataclass becomes a dict of its fields in declaration order, and a
    fitted model (a class in ``_KINDS``) is wrapped in a
    ``{format, version, kind, data}`` document. Arrays, tuples and lists
    become lists, dict values are encoded in turn, and a NaN float
    becomes None; other values pass through.
    """
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, (tuple, list)):
        return [encode(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: encode(v) for key, v in obj.items()}
    if is_dataclass(obj):
        data = {f.name: encode(getattr(obj, f.name)) for f in fields(obj)}
        kind = _KIND_OF.get(type(obj))
        if kind is None:
            return data
        return {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION, "kind": kind,
                "data": data}
    return obj


def decode(doc):
    """The fitted model a document written by :func:`encode` holds.

    The format, version and kind are checked. Each field is read from
    ``data`` and coerced by its annotation: arrays as float64, an int
    from a JSON integer, a float from a JSON number, a str from a JSON
    string, a ``str | int`` from either of those, a tuple from a JSON list of its items, nested dataclasses
    from their fields, a field annotated ``object`` as a nested
    document. A missing field with a default takes the default.
    Anything else, such as "02" for a tuple or 3.7 or true for an int,
    raises ValueError naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"not a model document: a JSON {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model document version {doc.get('version')!r}")
    cls = _KINDS.get(doc.get("kind"))
    if cls is None:
        raise ValueError(f"unknown model kind {doc.get('kind')!r}")
    return _from_fields(cls, doc.get("data"))


@cache
def _annotations(cls) -> dict:
    return get_type_hints(cls)


def _from_fields(cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} data is not a JSON object")
    kwargs = {}
    for f in fields(cls):
        if f.name in data:
            try:
                kwargs[f.name] = _coerce(_annotations(cls)[f.name], data[f.name])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{cls.__name__} field {f.name!r}: {exc}") from None
        elif f.default is MISSING:
            raise ValueError(f"{cls.__name__} document has no {f.name!r}")
    return cls(**kwargs)


# The JSON values each scalar annotation accepts.
_JSON_TYPES = {
    int: (int, "a JSON integer"),
    float: ((int, float), "a JSON number"),
    str: (str, "a JSON string"),
    str | int: ((str, int), "a JSON string or integer"),
}


def _coerce(hint, value):
    arms = get_args(hint)
    if type(None) in arms:  # an optional field
        if value is None:
            return None
        hint = next(arm for arm in arms if arm is not type(None))
    if hint is np.ndarray:
        return np.array(value, dtype=np.float64)
    if hint in _JSON_TYPES:
        # true and false are Python ints, but not JSON numbers.
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[hint][0]):
            raise ValueError(f"expected {_JSON_TYPES[hint][1]}, got {json.dumps(value)}")
        return float(value) if hint is float else value
    if hint is object:
        return decode(value)
    if is_dataclass(hint):
        return _from_fields(hint, value)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {json.dumps(value)}")
        item = get_args(hint)[0]  # tuple fields are homogeneous, tuple[X, ...]
        return tuple(_coerce(item, v) for v in value)
    return value


def save_pipeline(m: PipelineModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(encode(m)) + "\n")


def load_pipeline(path: str | Path) -> PipelineModel:
    """The pipeline a document holds; a plain model document loads without a mapping."""
    model = decode(json.loads(Path(path).read_text()))
    return model if isinstance(model, PipelineModel) else PipelineModel(model=model)
