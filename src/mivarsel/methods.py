"""The thirteen benchmark pipelines over one train/test split.

Methods 1 and 2 are linear regressions on PCA/PLS scores with the
component count chosen by cross-validation. Methods 3 to 10 feed PCA or
PLS scores, optionally whitened, into an RBF network or an LS-SVM; the
component count is inherited from the matching linear method. Methods 11
to 13 replace the projection with mutual-information variable selection
and train an RBFN, an LS-SVM, or a plain linear model on the selected
columns.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace

import numpy as np

from .dataset import Dataset, _sealed
from .errors import ConfigError, DataError, NumericalError
from .evaluation import (
    ComponentSweep,
    CvReport,
    LinearSweep,
    LssvmSweep,
    RbfnSweep,
    cross_validate,
    default_centroid_counts,
    default_component_counts,
    default_gamma_values,
    default_sigma_values,
    default_wsf_values,
    pooled_target_variance,
    select_winner,
    sweep_folds,
)
from .mi import DEFAULT_K
# The pipeline type and its save/load stay importable from here for perfbench.
from .models import (
    PREPROCESSINGS,
    PipelineModel,
    _from_fields,
    encode,
    fit_mapping,
    load_pipeline,
    preprocess,
    save_pipeline,
)
from .selector import MAX_POOL_SIZE, SelectionResult, select_variables

__all__ = [
    "PREPROCESSINGS",
    "MethodSpec",
    "METHOD_TABLE",
    "ExperimentConfig",
    "PipelineModel",
    "PipelineSweep",
    "MethodResult",
    "MethodFailure",
    "TrainResult",
    "component_count_cv",
    "plan_lines",
    "build_method_sweep",
    "train_method",
    "run_method",
    "reproduce",
    "best_methods",
    "save_pipeline",
    "load_pipeline",
]


@dataclass(frozen=True)
class MethodSpec:
    """One row of the benchmark: input construction plus model family."""

    number: int
    label: str
    input_step: str  # "pca" | "pls" | "mi"
    whiten: bool
    model: str  # "linear" | "rbfn" | "lssvm"

    @property
    def uses_selection(self) -> bool:
        return self.input_step == "mi"

    @property
    def projection(self) -> str | None:
        return self.input_step if self.input_step in ("pca", "pls") else None

    @property
    def sweeps_components(self) -> bool:
        """PCR and PLSR: the sweep picks the component count their projection's methods reuse."""
        return self.projection is not None and self.model == "linear"

    @property
    def input_label(self) -> str:
        if self.uses_selection:
            return "MI selection"
        name = self.input_step.upper()
        return f"{name} + whitening" if self.whiten else name


METHOD_TABLE: dict[int, MethodSpec] = {
    1: MethodSpec(1, "PCR", "pca", False, "linear"),
    2: MethodSpec(2, "PLSR", "pls", False, "linear"),
    3: MethodSpec(3, "PCA + RBFN", "pca", False, "rbfn"),
    4: MethodSpec(4, "PCA + whitening + RBFN", "pca", True, "rbfn"),
    5: MethodSpec(5, "PCA + LS-SVM", "pca", False, "lssvm"),
    6: MethodSpec(6, "PCA + whitening + LS-SVM", "pca", True, "lssvm"),
    7: MethodSpec(7, "PLS + RBFN", "pls", False, "rbfn"),
    8: MethodSpec(8, "PLS + whitening + RBFN", "pls", True, "rbfn"),
    9: MethodSpec(9, "PLS + LS-SVM", "pls", False, "lssvm"),
    10: MethodSpec(10, "PLS + whitening + LS-SVM", "pls", True, "lssvm"),
    11: MethodSpec(11, "MI + RBFN", "mi", False, "rbfn"),
    12: MethodSpec(12, "MI + LS-SVM", "mi", False, "lssvm"),
    13: MethodSpec(13, "MI + linear", "mi", False, "linear"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one benchmark run depends on besides the data itself.

    The grid-geometry fields exist so small studies and tests can shrink
    the search (the CLI sets them through ``--config``); their defaults
    are the paper's grids.
    """

    method: int = 12
    preprocessing: str = "none"
    k: int = DEFAULT_K
    pool_size: int = 16
    folds: int = 4
    seed: int = 0
    workers: int = 1
    dataset: str | None = None
    train_path: str | None = None
    test_path: str | None = None
    target_column: str | int = "target"
    out_dir: str | None = None
    gamma_count: int = 300
    sigma_count: int = 100
    wsf_count: int = 15
    max_centroids: int = 30

    def __post_init__(self) -> None:
        if self.method not in METHOD_TABLE:
            raise ConfigError(f"method must be 1..13, got {self.method}")
        if self.preprocessing not in PREPROCESSINGS:
            raise ConfigError(
                f"preprocessing must be one of {PREPROCESSINGS}, got {self.preprocessing!r}"
            )
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if not 1 <= self.pool_size <= MAX_POOL_SIZE:
            raise ConfigError(
                f"pool size must lie in 1..{MAX_POOL_SIZE}, got {self.pool_size}"
            )
        if self.folds < 2:
            raise ConfigError(f"need at least 2 folds, got {self.folds}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        for name in ("gamma_count", "sigma_count", "wsf_count", "max_centroids"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")

    def to_dict(self) -> dict:
        return encode(self)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The config a JSON object holds, each field checked by the model codec's rules."""
        unknown = set(doc) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return _from_fields(ExperimentConfig, doc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# Feature-mapping sweep wrapper


class PipelineSweep:
    """Refit the input mapping on each learning fold, then sweep the model.

    The mapping is variable subsetting, an optional projection at a fixed
    component count, and optional column whitening (:func:`fit_mapping`);
    fitting it inside the fold keeps validation rows out of every fitted
    statistic. Validation rows go through the mapping's ``transform_rows``,
    the path ``predict`` takes, and :meth:`fit` returns that mapping with
    the refitted model in it.
    """

    def __init__(
        self,
        inner,
        kind: str,
        variables: tuple[int, ...] | None = None,
        projection: str | None = None,
        n_components: int | None = None,
        whiten: bool = False,
    ) -> None:
        if projection is not None and n_components is None:
            raise ValueError("a projection needs an explicit component count")
        self.inner = inner
        self.kind = kind
        self.variables = None if variables is None else tuple(int(j) for j in variables)
        self.projection = projection
        self.n_components = n_components
        self.whiten = bool(whiten)
        self.grid = inner.grid

    def _fit_map(self, d: Dataset) -> tuple[PipelineModel, Dataset]:
        return fit_mapping(d, self.variables, self.projection, self.n_components, self.whiten)

    def evaluate_fold(self, learn, valid, var_y):
        mapping, learn_m = self._fit_map(learn)
        valid_m = Dataset(_sealed(mapping.transform_rows(valid.X)), valid.y)
        return self.inner.evaluate_fold(learn_m, valid_m, var_y)

    def fit(self, train: Dataset, params: dict) -> PipelineModel:
        mapping, train_m = self._fit_map(train)
        return replace(mapping, model=self.inner.fit(train_m, params))


# ---------------------------------------------------------------------------
# Method execution


@dataclass(frozen=True)
class MethodResult:
    """Everything one benchmark method produced."""

    method: int
    label: str
    preprocessing: str
    n_inputs: int
    components: int | None
    selection: SelectionResult | None
    report: CvReport
    model: PipelineModel

    @property
    def nmse_t(self) -> float:
        return self.report.nmse_t

    def to_dict(self) -> dict:
        # selection and report carry keys of their own, so they are encoded apart
        doc = encode(replace(self, selection=None, report=None))
        if self.selection is not None:
            doc["selection"] = self.selection.to_dict()
        doc["report"] = self.report.to_dict()
        return doc


@dataclass(frozen=True)
class MethodFailure:
    """A method that could not complete, with the reason; ``exception`` is not a field."""

    method: int
    label: str
    error: str
    exception: InitVar[Exception | None] = None

    def __post_init__(self, exception) -> None:
        object.__setattr__(self, "exception", exception)


@dataclass(frozen=True)
class TrainResult:
    """One method cross-validated on training rows alone."""

    kind: str
    winner_params: dict
    mean_nmse_l: float
    mean_nmse_v: float
    grid_points: int
    selection: SelectionResult | None
    model: PipelineModel


def _cv_winner(train: Dataset, sweep, cfg: ExperimentConfig, var_y: float):
    """(winner index, mat_l, mat_v) of ``sweep`` cross-validated on the training rows alone."""
    _, _, mat_l, mat_v, messages = sweep_folds(
        train, sweep, cfg.folds, cfg.seed, var_y, workers=cfg.workers
    )
    return select_winner(mat_l, mat_v, messages), mat_l, mat_v


def component_count_cv(
    train: Dataset, projection: str, cfg: ExperimentConfig, var_y: float
) -> int:
    """Cross-validated component count for a projection; never reads test data."""
    counts = default_component_counts(train.n_samples, train.n_variables, cfg.folds)
    sweep = ComponentSweep(projection, counts)
    winner, _, _ = _cv_winner(train, sweep, cfg, var_y)
    return int(sweep.grid.point(winner)["components"])


def _model_sweep(kind: str, features: np.ndarray, n_train: int, cfg: ExperimentConfig):
    if kind == "linear":
        return LinearSweep()
    if kind == "rbfn":
        return RbfnSweep(
            default_centroid_counts(n_train, cfg.folds, cfg.max_centroids),
            default_wsf_values(cfg.wsf_count),
            seed=cfg.seed,
        )
    if kind == "lssvm":
        return LssvmSweep(
            default_sigma_values(features, cfg.sigma_count),
            default_gamma_values(cfg.gamma_count),
        )
    raise ConfigError(f"unknown model kind {kind!r}")


def _grid_line(spec: MethodSpec, n_train: int, n_variables: int, cfg: ExperimentConfig) -> str:
    """The size of the grid ``build_method_sweep`` gives ``spec`` on n_train x n_variables rows."""
    if spec.sweeps_components:
        counts = default_component_counts(n_train, n_variables, cfg.folds)
        return f"component grid: {len(counts)} points"
    if spec.model == "linear":
        return "model grid: 1 point (ordinary least squares)"
    if spec.model == "rbfn":
        a = len(default_centroid_counts(n_train, cfg.folds, cfg.max_centroids))
        a_name, b, b_name = "centroid counts", cfg.wsf_count, "width factors"
    else:
        a, a_name, b, b_name = cfg.sigma_count, "kernel widths", cfg.gamma_count, "regularizations"
    return f"model grid: {a} {a_name} x {b} {b_name} = {a * b} points"


def plan_lines(train: Dataset, cfg: ExperimentConfig, methods) -> list[str]:
    """What running ``methods`` on the preprocessed ``train`` would search, computing nothing."""
    n, m = train.n_samples, train.n_variables
    lines = [f"plan: train {n}x{m}, {cfg.folds} folds, seed {cfg.seed}"]
    if any(METHOD_TABLE[i].uses_selection for i in methods):
        p = min(cfg.pool_size, m)
        lines.append(
            f"variable selection: pool of {p} variables, grown to a larger greedy subset's size "
            f"up to {MAX_POOL_SIZE}, searching at least {2 ** p} subsets ({2 ** p - 1} non-empty)"
        )
    for i in methods:
        spec = METHOD_TABLE[i]
        lines.append(f"method {i} ({spec.label}): {_grid_line(spec, n, m, cfg)}")
    lines.append("nothing computed (dry run)")
    return lines


def build_method_sweep(
    train: Dataset, cfg: ExperimentConfig, shared: dict, var_y: float
):
    """Sweep for cfg.method over already-preprocessed training data.

    Returns (sweep, selection, components); the latter two are None for
    methods that do not use them. shared caches the selection and the
    cross-validated component counts across methods of one benchmark.
    """
    spec = METHOD_TABLE[cfg.method]
    if spec.sweeps_components:
        counts = default_component_counts(train.n_samples, train.n_variables, cfg.folds)
        return ComponentSweep(spec.projection, counts), None, None
    if spec.projection is not None:
        key = ("components", spec.projection)
        if key not in shared:
            shared[key] = component_count_cv(train, spec.projection, cfg, var_y)
        components = shared[key]
        _, features = fit_mapping(
            train, projection=spec.projection, n_components=components, whiten=spec.whiten
        )
        inner = _model_sweep(spec.model, features.X, train.n_samples, cfg)
        kind = f"{spec.projection}{'+whiten' if spec.whiten else ''}+{spec.model}"
        sweep = PipelineSweep(
            inner, kind, projection=spec.projection, n_components=components, whiten=spec.whiten
        )
        return sweep, None, components
    if "selection" not in shared:
        shared["selection"] = select_variables(
            train, k=cfg.k, pool_size=cfg.pool_size, jitter_seed=cfg.seed, workers=cfg.workers
        )
    selection = shared["selection"]
    chosen = selection.best.sorted_indices()
    inner = _model_sweep(spec.model, train.X[:, list(chosen)], train.n_samples, cfg)
    return PipelineSweep(inner, f"mi+{spec.model}", variables=chosen), selection, None


def train_method(train: Dataset, cfg: ExperimentConfig) -> TrainResult:
    """cfg.method cross-validated on the raw ``train`` rows alone, its winner refit on them all.

    Scores are normalized by the training target's variance; no test set is read.
    """
    raw_width = train.n_variables
    train = preprocess(train, cfg.preprocessing)
    var_y = pooled_target_variance(train)
    sweep, selection, _ = build_method_sweep(train, cfg, {}, var_y)
    winner, mat_l, mat_v = _cv_winner(train, sweep, cfg, var_y)
    params = sweep.grid.point(winner)
    fitted = sweep.fit(train, params)
    return TrainResult(
        kind=sweep.kind,
        winner_params=params,
        mean_nmse_l=float(np.mean(mat_l[winner])),
        mean_nmse_v=float(np.mean(mat_v[winner])),
        grid_points=len(sweep.grid),
        selection=selection,
        model=replace(fitted, preprocessing=cfg.preprocessing, n_inputs=raw_width),
    )


def run_method(train: Dataset, test: Dataset, cfg: ExperimentConfig) -> MethodResult:
    """Execute cfg.method end to end on a train/test split: ``reproduce`` of that one method."""
    (result,) = reproduce(train, test, cfg, [cfg.method])
    if isinstance(result, MethodFailure):
        raise result.exception
    return result


def reproduce(
    train: Dataset, test: Dataset, cfg: ExperimentConfig, methods=None
) -> list[MethodResult | MethodFailure]:
    """Run ``methods`` (all thirteen by default) on one train/test split.

    The split is preprocessed and its pooled target variance taken once;
    the selection and the component counts are shared across methods. A
    failing method is recorded and the remaining methods still run; a
    failed preparation is tried again by each, so each records its reason.
    """
    chosen = sorted(METHOD_TABLE) if methods is None else methods
    configs = [replace(cfg, method=m) for m in chosen]
    raw_width = train.n_variables
    split = None
    shared: dict = {}
    results: list[MethodResult | MethodFailure] = []
    for c in configs:
        spec = METHOD_TABLE[c.method]
        try:
            if split is None:
                tr, te = preprocess(train, cfg.preprocessing), preprocess(test, cfg.preprocessing)
                split = tr, te, pooled_target_variance(tr, te)
            tr, te, var_y = split
            sweep, selection, components = build_method_sweep(tr, c, shared, var_y)
            report, fitted = cross_validate(
                tr, te, sweep, c.folds, c.seed, var_y, workers=c.workers
            )
            if spec.sweeps_components:
                components = int(report.winner_params["components"])
                # methods 1 and 2 fix the count their dependents reuse
                shared.setdefault(("components", spec.projection), components)
            results.append(MethodResult(
                method=spec.number,
                label=spec.label,
                preprocessing=c.preprocessing,
                n_inputs=len(selection.best) if selection is not None else int(components),
                components=components,
                selection=selection,
                report=report,
                model=replace(fitted, preprocessing=c.preprocessing, n_inputs=raw_width),
            ))
        except (ValueError, ConfigError, DataError, NumericalError) as exc:
            results.append(MethodFailure(c.method, spec.label, str(exc), exc))
    return results


def best_methods(results, count: int = 2) -> list[int]:
    """Method numbers with the lowest test scores, best first."""
    scored = [r for r in results if isinstance(r, MethodResult)]
    scored.sort(key=lambda r: (r.nmse_t, r.method))
    return [r.method for r in scored[:count]]
