"""Benchmark method table, pipeline composition, and the shared runner."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from mivarsel.baselines import fit_pca, transform
from mivarsel.dataset import (
    Dataset,
    fit_column_whitener,
    normalize_spectra,
    normalize_spectrum_rows,
)
from mivarsel import dataset as dataset_module
from mivarsel import methods as methods_module
from mivarsel import models
from mivarsel.errors import ConfigError, DataError, NumericalError
from mivarsel.evaluation import (
    ComponentSweep,
    LinearSweep,
    RbfnSweep,
    default_component_counts,
    nmse,
    pooled_target_variance,
    sweep_folds,
)
from mivarsel.methods import (
    METHOD_TABLE,
    ExperimentConfig,
    MethodFailure,
    MethodResult,
    PipelineSweep,
    best_methods,
    build_method_sweep,
    component_count_cv,
    reproduce,
    run_method,
    train_method,
)
from mivarsel.models import (
    PipelineModel,
    decode,
    encode,
    fit_linear,
    fit_rbfn,
    load_pipeline,
    save_pipeline,
)


SMALL = dict(
    folds=3,
    seed=0,
    pool_size=4,
    gamma_count=8,
    sigma_count=6,
    wsf_count=3,
    max_centroids=6,
)


def _nonlinear_split(seed=0, n=80, n_test=24, m=12):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    y = x[:, 0] + x[:, 1] ** 2 + 0.05 * rng.normal(size=n)
    xt = rng.normal(size=(n_test, m))
    yt = xt[:, 0] + xt[:, 1] ** 2 + 0.05 * rng.normal(size=n_test)
    return Dataset(x, y), Dataset(xt, yt)


def _linear_split(seed=1, n=60, n_test=15, m=6, rank=2):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(rank, m))
    t = rng.normal(size=(n + n_test, rank))
    x = t @ basis
    y = t @ np.arange(1.0, rank + 1)
    return Dataset(x[:n], y[:n]), Dataset(x[n:], y[n:])


class TestMethodTable:
    def test_thirteen_methods(self):
        assert sorted(METHOD_TABLE) == list(range(1, 14))
        assert all(METHOD_TABLE[i].number == i for i in METHOD_TABLE)

    def test_projection_methods_inherit_counts(self):
        # The counts themselves are shared by projection; see test_all_thirteen_run_and_share_artifacts.
        for i in (3, 4, 5, 6):
            assert METHOD_TABLE[i].input_step == "pca"
        for i in (7, 8, 9, 10):
            assert METHOD_TABLE[i].input_step == "pls"

    def test_whitening_alternates(self):
        assert [METHOD_TABLE[i].whiten for i in range(3, 11)] == [
            False, True, False, True, False, True, False, True,
        ]

    def test_model_families(self):
        assert [METHOD_TABLE[i].model for i in (1, 2, 13)] == ["linear"] * 3
        assert [METHOD_TABLE[i].model for i in (3, 4, 7, 8, 11)] == ["rbfn"] * 5
        assert [METHOD_TABLE[i].model for i in (5, 6, 9, 10, 12)] == ["lssvm"] * 5

    def test_selection_methods(self):
        assert all(METHOD_TABLE[i].uses_selection for i in (11, 12, 13))
        assert not any(METHOD_TABLE[i].uses_selection for i in range(1, 11))

    def test_component_count_methods(self):
        assert [i for i in METHOD_TABLE if METHOD_TABLE[i].sweeps_components] == [1, 2]


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.k == 6 and cfg.pool_size == 16 and cfg.method == 12

    @pytest.mark.parametrize(
        "overrides",
        [
            {"method": 0},
            {"method": 14},
            {"preprocessing": "log"},
            {"k": 0},
            {"pool_size": 0},
            {"pool_size": 21},
            {"folds": 1},
            {"workers": 0},
            {"gamma_count": 0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    def test_round_trip(self):
        cfg = ExperimentConfig(method=3, folds=5, seed=9, preprocessing="spectrum-normalize")
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict({"method": 1, "gamma": 10})


class TestPipelineModel:
    def test_variable_subsetting(self):
        train, test = _nonlinear_split()
        sub = train.take_variables([0, 1])
        inner = fit_linear(sub)
        m = PipelineModel(model=inner, variables=(0, 1))
        assert np.array_equal(m.predict(test.X), inner.predict(test.X[:, :2]))

    def test_projection_and_whitening_chain(self):
        train, test = _nonlinear_split(seed=4)
        p = fit_pca(train, 3)
        scores = transform(p, train)
        w = fit_column_whitener(scores)
        inner = fit_linear(w.apply(scores))
        m = PipelineModel(model=inner, projection=p, whitener=w)
        manual = inner.predict(w.apply(transform(p, test)).X)
        assert np.array_equal(m.predict(test.X), manual)

    def test_spectrum_normalization_applied_to_raw_rows(self):
        train, test = _nonlinear_split(seed=5)
        normalized = normalize_spectra(train)
        inner = fit_linear(normalized)
        m = PipelineModel(model=inner, preprocessing="spectrum-normalize")
        assert np.array_equal(
            m.predict(test.X), inner.predict(normalize_spectrum_rows(test.X))
        )

    def test_single_row_returns_scalar(self):
        train, _ = _nonlinear_split(seed=6)
        m = PipelineModel(model=fit_linear(train))
        assert isinstance(m.predict(train.X[0]), float)

    def test_unknown_preprocessing_rejected(self):
        train, _ = _nonlinear_split(seed=7)
        with pytest.raises(ValueError, match="preprocessing"):
            PipelineModel(model=fit_linear(train), preprocessing="log")

    def test_serialization_round_trip_full_stack(self, tmp_path):
        train, test = _nonlinear_split(seed=8)
        p = fit_pca(train, 3)
        scores = transform(p, train)
        w = fit_column_whitener(scores)
        m = PipelineModel(
            model=fit_linear(w.apply(scores)),
            preprocessing="none",
            variables=None,
            projection=p,
            whitener=w,
            n_inputs=train.n_variables,
        )
        path = tmp_path / "model.json"
        save_pipeline(m, path)
        back = load_pipeline(path)
        assert np.array_equal(back.predict(test.X), m.predict(test.X))
        assert back.preprocessing == m.preprocessing
        assert back.n_inputs == m.n_inputs

    def test_plain_model_document_loads_as_pipeline(self, tmp_path):
        train, test = _nonlinear_split(seed=9)
        inner = fit_rbfn(train, 3, 1.0, seed=0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(encode(inner)))
        back = load_pipeline(path)
        assert isinstance(back, PipelineModel)
        assert np.array_equal(back.predict(test.X), inner.predict(test.X))

    def test_foreign_document_rejected(self):
        doc = encode(PipelineModel(model=fit_linear(_nonlinear_split()[0])))
        doc["format"] = "something-else"
        with pytest.raises(ValueError, match="not a model document"):
            decode(doc)


class TestPipelineSweep:
    def test_fold_scores_match_manually_mapped_inner_sweep(self):
        train, _ = _nonlinear_split(seed=10)
        learn = train.take_rows(np.arange(60))
        valid = train.take_rows(np.arange(60, 80))
        inner = RbfnSweep((2, 3), (1.0, 2.0), seed=0)
        sweep = PipelineSweep(
            inner, "pca+rbfn", projection="pca", n_components=3, whiten=True
        )
        got_l, got_v, msg = sweep.evaluate_fold(learn, valid, 1.0)
        mapping, mapped_learn = sweep._fit_map(learn)
        mapped_valid = Dataset(mapping.transform_rows(valid.X), valid.y)
        want_l, want_v, _ = inner.evaluate_fold(mapped_learn, mapped_valid, 1.0)
        assert mapping.model is None
        assert mapping.projection.n_components == 3 and mapping.whitener is not None
        assert msg == {}
        assert np.array_equal(got_l, want_l, equal_nan=True)
        assert np.array_equal(got_v, want_v, equal_nan=True)

    def test_mapped_validation_rows_are_held_without_a_copy(self, monkeypatch):
        train, _ = _nonlinear_split(seed=10)
        seen, taken, frozen = [], [], dataset_module._frozen

        class Inner:
            grid = ()

            def evaluate_fold(self, learn, valid, var_y):
                seen.append(valid)

        def spy(a):
            taken.append(a)
            return frozen(a)

        sweep = PipelineSweep(Inner(), "mi+inner", variables=(0, 2))
        learn, valid = train.take_rows(np.arange(60)), train.take_rows(np.arange(60, 80))
        monkeypatch.setattr(dataset_module, "_frozen", spy)
        sweep.evaluate_fold(learn, valid, 1.0)
        assert any(seen[0].X is a for a in taken)

    def test_fit_bundles_all_parts(self):
        train, test = _nonlinear_split(seed=11)
        sweep = PipelineSweep(
            LinearSweep(), "mi+linear", variables=(1, 0, 3)
        )
        model = sweep.fit(train, {"variant": "ols"})
        assert isinstance(model, PipelineModel)
        assert model.variables == (1, 0, 3)
        direct = fit_linear(train.take_variables([1, 0, 3]))
        assert np.array_equal(model.predict(test.X), direct.predict(test.X[:, [1, 0, 3]]))

    @pytest.mark.parametrize(
        "mapping_args", [{"variables": (0, 2)}, {"projection": "pls", "n_components": 2}]
    )
    def test_mapping_takes_only_the_training_width(self, mapping_args):
        train, test = _nonlinear_split(seed=11)
        mapping, _ = PipelineSweep(LinearSweep(), "linear", **mapping_args)._fit_map(train)
        assert mapping.n_inputs == train.n_variables
        wider = np.column_stack([test.X[:, :1], test.X])  # the selected columns are still there
        with pytest.raises(DataError, match="trained on 12 input columns, rows have 13"):
            mapping.transform_rows(wider)

    def test_mapping_failure_marks_every_point(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 4))
        x[:, 2] = 7.0  # constant column survives projection as a dead score
        d = Dataset(x[:, [2, 2, 2, 2]], rng.normal(size=20))  # all-constant inputs
        sweep = PipelineSweep(
            LinearSweep(), "pca+linear", projection="pca", n_components=2, whiten=True
        )
        _, _, mat_l, mat_v, messages = sweep_folds(d, sweep, 3, 0, 1.0)
        assert np.all(np.isnan(mat_l)) and np.all(np.isnan(mat_v))
        assert [set(m) for m in messages] == [{0}] * 3
        assert all("zero variance" in m[0] for m in messages)

    def test_projection_requires_component_count(self):
        with pytest.raises(ValueError, match="component count"):
            PipelineSweep(LinearSweep(), "pca+linear", projection="pca")

    @pytest.mark.parametrize("preprocessing", ["none", "spectrum-normalize"])
    def test_serving_path_maps_training_rows_bit_for_bit(self, preprocessing):
        # No train/serve skew: predict's transform_rows, from the raw rows,
        # gives exactly the matrix the inner sweep and the refit train on.
        raw, test = _nonlinear_split(seed=14)
        train = normalize_spectra(raw) if preprocessing != "none" else raw
        var_y = pooled_target_variance(train, test)
        shared: dict = {}
        for method in range(3, 14):
            cfg = ExperimentConfig(method=method, preprocessing=preprocessing, **SMALL)
            sweep, _, _ = build_method_sweep(train, cfg, shared, var_y)
            mapping, mapped = sweep._fit_map(train)
            served = replace(mapping, preprocessing=preprocessing, n_inputs=raw.n_variables)
            assert mapping.transform_rows(train.X).tobytes() == mapped.X.tobytes(), method
            assert served.transform_rows(raw.X).tobytes() == mapped.X.tobytes(), method


class TestComponentCountCv:
    def test_every_point_failing_names_the_reason(self, monkeypatch):
        def failing(self, learn, valid, var_y):
            raise NumericalError("planted fold failure")

        monkeypatch.setattr(ComponentSweep, "evaluate_fold", failing)
        train, _ = _linear_split(rank=2)
        cfg = ExperimentConfig(method=1, workers=1, **SMALL)
        n_points = len(default_component_counts(train.n_samples, train.n_variables, cfg.folds))
        with pytest.raises(NumericalError) as caught:
            component_count_cv(train, "pls", cfg, 1.0)
        reason = f"({n_points} of {n_points} points: planted fold failure)"
        assert str(caught.value).endswith(reason)

    def test_recovers_planted_rank(self):
        train, _ = _linear_split(rank=2)
        cfg = ExperimentConfig(method=1, **SMALL)
        var_y = float(train.y.var(ddof=1))
        picked = component_count_cv(train, "pca", cfg, var_y)
        assert picked == 2

    def test_pls_needs_fewer_components_than_pca(self):
        # PLS aims its first factors at the target, PCA at input variance;
        # on rank-4 inputs with a 1-factor target PLS saturates earlier.
        rng = np.random.default_rng(13)
        basis = rng.normal(size=(4, 10))
        t = rng.normal(size=(70, 4))
        x = t @ basis
        y = t @ np.array([0.01, 0.01, 0.01, 5.0])
        train = Dataset(x, y)
        cfg = ExperimentConfig(method=1, **SMALL)
        var_y = float(train.y.var(ddof=1))
        n_pca = component_count_cv(train, "pca", cfg, var_y)
        n_pls = component_count_cv(train, "pls", cfg, var_y)
        assert n_pls <= n_pca


class TestTrainMethod:
    def test_shares_the_component_counts_pick(self):
        train, _ = _linear_split(rank=2)
        cfg = ExperimentConfig(method=1, **SMALL)
        result = train_method(train, cfg)
        picked = component_count_cv(train, "pca", cfg, pooled_target_variance(train))
        assert result.winner_params == {"components": picked}
        assert result.kind == "pcr" and result.selection is None
        assert result.model.n_inputs == train.n_variables

    def test_selection_names_the_preprocessed_columns(self):
        train, _ = _nonlinear_split(seed=18)
        cfg = ExperimentConfig(method=13, preprocessing="spectrum-normalize", **SMALL)
        result = train_method(train, cfg)
        assert result.selection.labels == train.labels + ("row_mean", "row_std")

    def test_constant_target_is_data_error(self):
        train, _ = _linear_split(rank=2)
        with pytest.raises(DataError, match="constant"):
            train_method(Dataset(train.X, np.full(train.n_samples, 0.1)), ExperimentConfig(**SMALL))


class TestComponentCountScale:
    """PCR and PLSR choose their component counts by a rule that no rescaling moves."""

    @pytest.mark.parametrize(
        "sx, sy",
        [(1.0, 1.0), (1e-12, 1.0), (1e-11, 1.0), (1e-9, 1.0), (1e-7, 1.0), (1e-5, 1.0),
         (1e5, 1.0), (1e7, 1.0), (1e12, 1.0), (1e-12, 1e-12), (1e-7, 1e-7), (1e12, 1e12)],
    )
    def test_pcr_and_plsr_choose_the_same_counts_at_any_scale(self, sx, sy):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(60, 5))
        x, y = sx * x, sy * (x[:, 0] + 0.3 * x[:, 1] ** 2)
        train, test = Dataset(x[:45], y[:45]), Dataset(x[45:], y[45:])
        counts = [run_method(train, test, ExperimentConfig(method=m)).components for m in (1, 2)]
        assert counts == [5, 4]  # the counts chosen on the unscaled data


class TestRunMethod:
    def test_linear_method_reports_winning_count(self):
        train, test = _linear_split(rank=2)
        cfg = ExperimentConfig(method=1, **SMALL)
        r = run_method(train, test, cfg)
        assert r.components == 2 and r.n_inputs == 2
        assert r.report.winner_params == {"components": 2}
        assert r.nmse_t < 1e-10
        assert r.report.test_reads == 1

    def test_mi_method_beats_blind_linear_on_nonlinear_data(self):
        train, test = _nonlinear_split()
        base = dict(SMALL)
        r12 = run_method(train, test, ExperimentConfig(method=12, **base))
        r2 = run_method(train, test, ExperimentConfig(method=2, **base))
        r13 = run_method(train, test, ExperimentConfig(method=13, **base))
        assert 0 in r12.model.variables and 1 in r12.model.variables
        assert r12.nmse_t < 0.1 < r2.nmse_t
        assert r12.nmse_t < r13.nmse_t

    def test_projection_methods_inherit_shared_count(self):
        train, test = _nonlinear_split(seed=14)
        r1, r = reproduce(train, test, ExperimentConfig(**SMALL), methods=(1, 4))
        count = r1.components
        assert r.components == count and r.n_inputs == count
        assert r.report.kind == "pca+whiten+rbfn"
        assert r.model.projection.n_components == count
        assert r.model.whitener is not None

    def test_normalized_pipeline_scores_raw_rows_identically(self, monkeypatch):
        train, test = _nonlinear_split(seed=15)
        cfg = ExperimentConfig(
            method=2, preprocessing="spectrum-normalize", **SMALL
        )
        calls = []

        def counted(d):
            calls.append(d)
            return normalize_spectra(d)

        monkeypatch.setattr(models, "normalize_spectra", counted)
        r = run_method(train, test, cfg)
        assert len(calls) == 2 and calls[0] is train and calls[1] is test  # once per split
        recomputed = nmse(r.model.predict(test.X), test.y, r.report.var_y)
        assert recomputed == r.nmse_t
        assert r.model.preprocessing == "spectrum-normalize"

    def test_selection_artifacts_attached(self):
        train, test = _nonlinear_split(seed=16)
        r = run_method(train, test, ExperimentConfig(method=11, **SMALL))
        assert r.selection is not None
        assert r.model.variables == r.selection.best.sorted_indices()
        assert r.report.kind == "mi+rbfn"

    def test_result_serializes(self):
        train, test = _nonlinear_split(seed=17)
        r = run_method(train, test, ExperimentConfig(method=13, **SMALL))
        doc = r.to_dict()
        assert doc["method"] == 13
        assert doc["selection"]["best"]["labels"] == [f"x{j}" for j in r.selection.best.indices]
        assert doc["model"]["kind"] == "pipeline"
        assert doc["report"]["nmse_t"] == r.nmse_t


class TestReproduce:
    def test_all_thirteen_run_and_share_artifacts(self):
        train, test = _nonlinear_split(seed=18, n=60, n_test=18, m=8)
        cfg = ExperimentConfig(**SMALL)
        results = reproduce(train, test, cfg)
        assert [r.method for r in results] == list(range(1, 14))
        assert all(isinstance(r, MethodResult) for r in results)
        by_method = {r.method: r for r in results}
        # selection is computed once and shared across methods 11-13
        assert by_method[11].selection is by_method[12].selection
        assert by_method[12].selection is by_method[13].selection
        # dependent methods reuse the counts picked by methods 1 and 2
        assert by_method[3].components == by_method[1].components
        assert by_method[5].components == by_method[1].components
        assert by_method[7].components == by_method[2].components
        assert by_method[10].components == by_method[2].components
        assert all(r.report.test_reads == 1 for r in results)

    @pytest.mark.parametrize("methods, calls", [((1, 3), []), ((3,), ["pca"]), ((2, 1, 7, 4), [])])
    def test_component_count_cv_runs_only_without_a_count_method(self, monkeypatch, methods, calls):
        # Methods 1 and 2 sweep the count themselves and leave it for the
        # projection methods after them, which then run no count CV.
        seen = []

        def counted(train, projection, *args):
            seen.append(projection)
            return component_count_cv(train, projection, *args)

        monkeypatch.setattr(methods_module, "component_count_cv", counted)
        train, test = _nonlinear_split(seed=22, n=50, n_test=12, m=6)
        results = reproduce(train, test, ExperimentConfig(**SMALL), methods=methods)
        assert all(isinstance(r, MethodResult) for r in results)
        assert seen == calls
        by_method = {r.method: r for r in results}
        for dependent, source in ((3, 1), (4, 1), (7, 2)):
            if dependent in by_method and source in by_method:
                assert by_method[dependent].components == by_method[source].components

    def test_method_subset_and_order_respected(self):
        train, test = _nonlinear_split(seed=19, n=50, n_test=12, m=6)
        cfg = ExperimentConfig(**SMALL)
        results = reproduce(train, test, cfg, methods=(13, 2))
        assert [r.method for r in results] == [13, 2]

    def test_invalid_method_id_rejected(self):
        train, test = _nonlinear_split(seed=20, n=30, n_test=8, m=4)
        with pytest.raises(ConfigError, match="1..13"):
            reproduce(train, test, ExperimentConfig(**SMALL), methods=(1, 99))

    @pytest.mark.parametrize("where", ["train", "test"])
    def test_failures_recorded_without_aborting(self, where):
        rng = np.random.default_rng(21)
        x, xt = rng.normal(size=(40, 6)), rng.normal(size=(10, 6))
        (x if where == "train" else xt)[3] = 2.5  # constant spectrum breaks row normalization
        train, test = Dataset(x, rng.normal(size=40)), Dataset(xt, rng.normal(size=10))
        cfg = ExperimentConfig(preprocessing="spectrum-normalize", **SMALL)
        results = reproduce(train, test, cfg, methods=(1, 2, 13))
        assert [r.method for r in results] == [1, 2, 13]
        assert all(isinstance(r, MethodFailure) for r in results)
        assert all("row 3" in r.error for r in results)
        # run_method raises the error reproduce records
        with pytest.raises(DataError) as raised:
            run_method(train, test, replace(cfg, method=1))
        assert type(raised.value) is type(results[0].exception)
        assert str(raised.value) == results[0].error

    def test_split_prepared_once(self, monkeypatch):
        # 13 methods normalize the training rows, then the test rows, once
        # each, and pool their target variance once.
        normalized, pooled = [], []

        def counted_normalize(d):
            normalized.append(d)
            return normalize_spectra(d)

        def counted_variance(*datasets):
            pooled.append(datasets)
            return pooled_target_variance(*datasets)

        monkeypatch.setattr(models, "normalize_spectra", counted_normalize)
        monkeypatch.setattr(methods_module, "pooled_target_variance", counted_variance)
        train, test = _nonlinear_split(seed=23, n=50, n_test=12, m=6)
        cfg = ExperimentConfig(preprocessing="spectrum-normalize", **SMALL)
        results = reproduce(train, test, cfg)
        assert all(isinstance(r, MethodResult) for r in results)
        assert len(normalized) == 2 and normalized[0] is train and normalized[1] is test
        assert len(pooled) == 1


class TestBestMethods:
    def test_orders_by_test_score(self):
        train, test = _nonlinear_split(seed=22, n=50, n_test=14, m=6)
        cfg = ExperimentConfig(**SMALL)
        results = reproduce(train, test, cfg, methods=(2, 12, 13))
        top = best_methods(results)
        scores = {r.method: r.nmse_t for r in results if isinstance(r, MethodResult)}
        assert len(top) == 2
        assert scores[top[0]] <= scores[top[1]]
        assert scores[top[0]] == min(scores.values())

    def test_failures_excluded(self):
        results = [MethodFailure(1, "PCR", "boom")]
        assert best_methods(results) == []
