"""Linear projections: PCA and PLS (scalar-target NIPALS).

Both projections center the input columns with training-set means and
do not rescale them: spectral variables share units. A projection read
from a model document may still carry per-column scales (``x_scale``),
and :func:`project_rows` divides by them.

PCA components come from the SVD of the centered inputs, ordered by
decreasing explained variance, with a deterministic sign convention
(the largest-magnitude element of each component is positive). PLS
extracts components by iterative deflation against the scalar target;
when the deflation remainder has zero covariance with the target the
extraction stops early and the projection carries the achieved count.

The stored loadings map centered inputs directly to scores, so for PLS
they are the rotated weights W (P'W)^-1, not the raw deflation weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _as_rows, _frozen, _sealed
from .errors import NumericalError

_PROJECTION_KINDS = ("pca", "pls")

# Deflation stops when the X'y covariance norm falls below this
# fraction of its starting value; the remainder is then target-noise.
_PLS_COVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class Projection:
    """Affine-in-X linear projection fitted on training rows."""

    kind: str
    loadings: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray | None
    y_center: float | None
    n_components: int

    def __post_init__(self) -> None:
        if self.kind not in _PROJECTION_KINDS:
            raise ValueError(f"unknown projection kind {self.kind!r}")
        loadings = _frozen(self.loadings)
        x_mean = _frozen(self.x_mean)
        if loadings.ndim != 2 or x_mean.ndim != 1:
            raise ValueError("loadings must be (M, n_components), x_mean (M,)")
        if loadings.shape != (x_mean.shape[0], self.n_components):
            raise ValueError(
                f"loadings shape {loadings.shape} inconsistent with "
                f"{x_mean.shape[0]} variables and {self.n_components} components"
            )
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "x_mean", x_mean)
        if self.x_scale is not None:
            x_scale = _frozen(self.x_scale)
            if x_scale.shape != x_mean.shape:
                raise ValueError("x_scale must match x_mean in shape")
            object.__setattr__(self, "x_scale", x_scale)


def _component_limit(train: Dataset) -> int:
    return min(train.n_samples - 1, train.n_variables)


def _centered_inputs(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    x_mean = train.X.mean(axis=0)
    return train.X - x_mean, x_mean


def _check_component_count(train: Dataset, n_components: int) -> None:
    limit = _component_limit(train)
    if not 1 <= n_components <= limit:
        raise ValueError(
            f"n_components must be in 1..{limit} "
            f"(N-1={train.n_samples - 1}, M={train.n_variables}), got {n_components}"
        )


def fit_pca(train: Dataset, n_components: int) -> Projection:
    """Principal components of the training inputs, target-blind."""
    _check_component_count(train, n_components)
    xc, x_mean = _centered_inputs(train)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    components = vt[:n_components].copy()
    for row in components:
        anchor = int(np.argmax(np.abs(row)))
        if row[anchor] < 0.0:
            row *= -1.0
    return Projection(
        kind="pca",
        loadings=components.T,
        x_mean=x_mean,
        x_scale=None,
        y_center=None,
        n_components=n_components,
    )


def fit_pls(train: Dataset, n_components: int) -> Projection:
    """Scalar-target PLS by iterative deflation.

    Components are ordered by extraction. Extraction stops early once the
    covariance norm falls to ``_PLS_COVARIANCE_TOL`` of its first value,
    which no rescaling of inputs or target moves; the returned projection
    then has fewer components than requested. An exactly constant target
    gives none, whatever its mean's rounding leaves in ``y - mean``.
    """
    _check_component_count(train, n_components)
    xc, x_mean = _centered_inputs(train)
    y_center = float(train.y.mean())
    x_work = xc.copy()
    y_work = train.y - y_center
    weights: list[np.ndarray] = []
    x_loadings: list[np.ndarray] = []
    stop = _PLS_COVARIANCE_TOL * float(np.linalg.norm(xc.T @ y_work))
    for _ in range(n_components if train.y.min() < train.y.max() else 0):
        w = x_work.T @ y_work
        cov_norm = float(np.linalg.norm(w))
        if cov_norm <= stop:
            break
        w /= cov_norm
        t = x_work @ w
        tt = float(t @ t)
        if tt <= 0.0:
            break
        p = x_work.T @ t / tt
        x_work -= np.outer(t, p)
        y_work = y_work - (float(y_work @ t) / tt) * t
        weights.append(w)
        x_loadings.append(p)
    achieved = len(weights)
    if achieved == 0:
        loadings = np.zeros((train.n_variables, 0))
    else:
        w_mat = np.column_stack(weights)
        p_mat = np.column_stack(x_loadings)
        try:
            # R = W (P'W)^-1 maps centered X straight to the scores.
            loadings = np.linalg.solve((p_mat.T @ w_mat).T, w_mat.T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                "PLS rotation system is singular; inputs may be degenerate"
            ) from exc
    return Projection(
        kind="pls",
        loadings=loadings,
        x_mean=x_mean,
        x_scale=None,
        y_center=y_center,
        n_components=achieved,
    )


def project_rows(p: Projection, x: np.ndarray) -> np.ndarray:
    """Score matrix for raw input rows, using the fitted centering/scaling.

    A C-ordered 2-D float64 matrix is used as it is, with no copy; a 1-D
    row is one row.
    """
    x = _as_rows(x)
    if x.shape[1] != p.x_mean.shape[0]:
        raise ValueError(
            f"projection fitted on {p.x_mean.shape[0]} variables, "
            f"rows have {x.shape[1]}"
        )
    xs = x - p.x_mean
    if p.x_scale is not None:
        xs = xs / p.x_scale
    return xs @ p.loadings


def transform(p: Projection, d: Dataset) -> Dataset:
    """Project a dataset onto the fitted components; y passes through."""
    scores = project_rows(p, d.X)
    prefix = "pc" if p.kind == "pca" else "lv"
    labels = tuple(f"{prefix}{i + 1}" for i in range(p.n_components))
    return Dataset(_sealed(scores), d.y, labels)
