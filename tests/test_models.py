"""RBF network, LS-SVM, and linear regression models."""

from __future__ import annotations

import gc
import json
import math
import pickle
import tracemalloc
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mivarsel.baselines import Projection
from mivarsel.dataset import ColumnWhitener, Dataset, load_input_rows
from mivarsel.errors import DataError, NumericalError
from mivarsel.models import (
    LinearModel,
    LssvmModel,
    PipelineModel,
    RbfnModel,
    _cluster_means,
    _cluster_widths,
    decode,
    encode,
    fit_linear,
    fit_lssvm,
    fit_mapping,
    fit_rbfn,
    kmeans,
    load_pipeline,
    save_pipeline,
    solve_rbf_weights,
    sq_dists,
)
from oracles import kkt_residual, kmeans_by_masks, rbf_kernel


def _nmse_train(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((pred - y) ** 2) / np.var(y, ddof=1))


class TestRbfKernel:
    def test_identity_point(self):
        assert rbf_kernel([1.0, 2.0], [1.0, 2.0], 0.7) == 1.0

    def test_value_at_sqrt2_sigma(self):
        # ||x - c|| = sqrt(2) * sigma makes the exponent exactly -1.
        assert rbf_kernel([0.0, 0.0], [1.0, 1.0], 1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-15
        )

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x, c = rng.normal(size=3), rng.normal(size=3)
            v = rbf_kernel(x, c, 0.9)
            assert v == rbf_kernel(c, x, 0.9)
            assert 0.0 < v <= 1.0

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            rbf_kernel([0.0], [1.0], 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rbf_kernel([0.0, 1.0], [1.0], 1.0)


class TestKmeans:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 2))
        c1, a1 = kmeans(x, 4, seed=9)
        c2, a2 = kmeans(x, 4, seed=9)
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)

    def test_separated_clusters_found(self):
        rng = np.random.default_rng(2)
        x = np.vstack([
            rng.normal(size=(30, 2)) + [0, 0],
            rng.normal(size=(30, 2)) + [20, 0],
            rng.normal(size=(30, 2)) + [0, 20],
        ])
        centers, assign = kmeans(x, 3, seed=0)
        assert len(np.unique(assign)) == 3
        targets = {(0, 0), (20, 0), (0, 20)}
        for c in centers:
            assert min(np.hypot(c[0] - t[0], c[1] - t[1]) for t in targets) < 2.0

    def test_no_empty_clusters(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 1))
        for k in (1, 5, 12, 25):
            _, assign = kmeans(x, k, seed=4)
            assert len(np.unique(assign)) == k

    def test_cluster_count_validation(self):
        x = np.zeros((5, 1))
        with pytest.raises(ValueError):
            kmeans(x, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans(x, 6, seed=0)


class TestKmeansCentroidUpdate:
    """The grouped centroid update has the bits of one boolean mask per cluster."""

    def test_cluster_means_equal_masked_means_on_random_assignments(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, n + 1))
            x = rng.normal(size=(n, int(rng.integers(1, 9)))) * 10.0 ** rng.integers(-3, 4)
            assign = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            rng.shuffle(assign)
            counts = np.bincount(assign, minlength=k)
            want = np.stack([x[assign == c].mean(axis=0) for c in range(k)])
            assert _cluster_means(x, assign, counts).tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("seed", range(6))
    def test_kmeans_equals_masked_update_with_empty_cluster_reseeding(self, seed):
        rng = np.random.default_rng(seed)
        # 16 distinct rows for 18 clusters: duplicate centers leave clusters empty.
        x = np.vstack([rng.normal(size=(14, 3)), np.repeat(rng.normal(size=(2, 3)), 5, axis=0)])
        x = x[rng.permutation(len(x))]
        centers, assign = kmeans(x, 18, seed)
        want_centers, want_assign, reseeds = kmeans_by_masks(x, 18, seed)
        assert centers.tobytes() == want_centers.tobytes()
        assert np.array_equal(assign, want_assign)
        assert reseeds > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_kmeans_equals_masked_update_on_spread_data(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(130, 5))
        for k in (1, 4, 17, 30):
            centers, assign = kmeans(x, k, seed)
            want_centers, want_assign, _ = kmeans_by_masks(x, k, seed)
            assert centers.tobytes() == want_centers.tobytes()
            assert np.array_equal(assign, want_assign)


class TestClusterWidths:
    def test_width_is_mean_member_distance_times_wsf(self):
        x = np.array([[0.0], [2.0], [10.0], [11.0], [13.0]])
        assign = np.array([0, 0, 1, 1, 1])
        centers = np.array([[1.0], [11.0]])
        assert _cluster_widths(x, centers, assign, 1.0).tolist() == [1.0, 1.0]
        assert _cluster_widths(x, centers, assign, 2.5).tolist() == [2.5, 2.5]

    def test_near_duplicate_clusters_get_centroid_spacing(self):
        # Members 1e-15 apart: their mean distance is rounding noise, not a width.
        x = np.array([[0.0], [1e-15], [1.0], [1.0 + 1e-15]])
        centers, assign = kmeans(x, 2, seed=0)
        widths = _cluster_widths(x, centers, assign, 1.0)
        spacing = abs(float(centers[0, 0] - centers[1, 0]))
        assert widths.tolist() == [spacing, spacing]
        m = fit_rbfn(Dataset(x, np.array([0.0, 0.0, 1.0, 1.0])), 2, 1.0, seed=0)
        assert np.all(m.widths > 0.5)

    def test_singleton_and_exact_duplicates_fall_back(self):
        x = np.array([[0.0], [0.0], [3.0]])
        widths = _cluster_widths(x, np.array([[0.0], [3.0]]), np.array([0, 0, 1]), 1.0)
        assert widths.tolist() == [3.0, 3.0]
        same = np.zeros((4, 2))
        assert _cluster_widths(same, same[:1], np.zeros(4, dtype=np.intp), 2.0).tolist() == [2.0]

    def test_floor_is_relative_to_the_input_spread(self):
        # The same geometry shrunk by 1e-12 keeps its widths, scaled.
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        centers, assign = kmeans(x, 5, seed=1)
        widths = _cluster_widths(x, centers, assign, 1.0)
        tiny = _cluster_widths(x * 1e-12, centers * 1e-12, assign, 1.0)
        np.testing.assert_allclose(tiny, widths * 1e-12, rtol=1e-12)


class TestRbfn:
    def test_single_bump_plus_constant(self):
        x = np.linspace(-2, 2, 60)[:, None]
        y = 2.0 + 1.5 * np.exp(-x[:, 0] ** 2 / 0.8)
        d = Dataset(x, y)
        best = min(
            _nmse_train(fit_rbfn(d, 1, w, seed=1).predict(x), y)
            for w in np.logspace(-1, 1, 15)
        )
        assert best < 1e-2

    def test_two_bump_curve(self):
        x = np.linspace(-2, 2, 60)[:, None]
        y = np.exp(-((x[:, 0] + 1) ** 2) / 0.18) + 0.7 * np.exp(
            -((x[:, 0] - 1) ** 2) / 0.18
        )
        d = Dataset(x, y)
        best = min(
            _nmse_train(fit_rbfn(d, 2, w, seed=3).predict(x), y)
            for w in np.logspace(-1, 1, 15)
        )
        assert best < 0.05

    def test_interpolation_limit(self):
        x = np.linspace(0, 1, 8)[:, None]
        y = np.sin(3 * x[:, 0])
        m = fit_rbfn(Dataset(x, y), n_centroids=8, wsf=0.2, seed=0)
        assert _nmse_train(m.predict(x), y) < 1e-6

    def test_centroids_never_read_targets(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] ** 2 + x[:, 1]
        perm = rng.permutation(50)
        m1 = fit_rbfn(Dataset(x, y), 5, 1.0, seed=7)
        m2 = fit_rbfn(Dataset(x, y[perm]), 5, 1.0, seed=7)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(m1.widths, m2.widths)

    def test_training_error_non_increasing_on_nested_centroids(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] ** 2 + x[:, 1]
        centers, _ = kmeans(x, 10, seed=0)
        widths = np.full(10, 1.0)
        previous = np.inf
        for k in range(1, 11):
            w, b = solve_rbf_weights(x, y, centers[:k], widths[:k])
            design = np.exp(-sq_dists(x, centers[:k]) / 2.0)
            err = float(np.mean((design @ w + b - y) ** 2))
            assert err <= previous + 1e-12
            previous = err

    def test_overflowing_inputs_are_a_numerical_error(self, capfd):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3)) * 1e160  # squared distances overflow
        with pytest.raises(NumericalError, match="non-finite"):
            fit_rbfn(Dataset(x, rng.normal(size=40)), 5, 1.0, seed=0)
        assert "DLASCL" not in capfd.readouterr().err  # LAPACK never saw the design

    def test_hand_evaluated_three_centroid_sum(self):
        m = RbfnModel(
            centroids=np.array([[0.0], [1.0], [2.0]]),
            widths=np.array([0.5, 1.0, 2.0]),
            weights=np.array([1.5, -2.0, 0.25]),
            bias=0.75,
            wsf=1.0,
        )
        x = 0.6
        expected = (
            1.5 * math.exp(-(0.6 ** 2) / (2 * 0.25))
            - 2.0 * math.exp(-(0.4 ** 2) / 2.0)
            + 0.25 * math.exp(-(1.4 ** 2) / (2 * 4.0))
            + 0.75
        )
        assert m.predict([x]) == pytest.approx(expected, abs=1e-12)

    def test_zero_weights_return_bias(self):
        m = RbfnModel(np.array([[0.0, 0.0]]), np.array([1.0]), np.array([0.0]), 3.25, 1.0)
        assert m.predict([5.0, -2.0]) == 3.25

    def test_matrix_prediction_matches_pointwise(self):
        # Batch and single-point calls may take different BLAS paths;
        # they agree to rounding and each is individually deterministic.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 2))
        y = x[:, 0] + x[:, 1] ** 2
        m = fit_rbfn(Dataset(x, y), 4, 1.2, seed=2)
        batch = m.predict(x)
        assert np.array_equal(batch, m.predict(x))
        for i in range(30):
            assert batch[i] == pytest.approx(m.predict(x[i]), rel=1e-12)

    def test_validation(self):
        d = Dataset(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            fit_rbfn(d, 5, 1.0, seed=0)
        with pytest.raises(ValueError):
            fit_rbfn(d, 2, 0.0, seed=0)
        m = fit_rbfn(Dataset(np.arange(4.0)[:, None], np.arange(4.0)), 2, 1.0)
        with pytest.raises(ValueError):
            m.predict([[1.0, 2.0]])


class TestLssvm:
    def _dataset(self, n=40, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = x[:, 0] + np.sin(x[:, 1])
        return Dataset(x, y)

    def test_interpolation_limit(self):
        d = self._dataset()
        m = fit_lssvm(d, sigma=1.0, gamma=1e8)
        rel = np.max(np.abs(m.predict(d.X) - d.y)) / np.max(np.abs(d.y))
        assert rel < 1e-3

    def test_regularization_limit_collapses_to_mean(self):
        d = self._dataset()
        m = fit_lssvm(d, sigma=1.0, gamma=1e-8)
        pred = m.predict(d.X)
        assert np.ptp(pred) < 1e-4
        assert pred.mean() == pytest.approx(d.y.mean(), abs=1e-4)

    def test_three_point_hand_system(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 2.0, 0.5])
        sigma, gamma = 0.8, 5.0
        m = fit_lssvm(Dataset(x, y), sigma, gamma)
        kernel = np.exp(-((x - x.T) ** 2) / (2 * sigma * sigma))
        a = np.zeros((4, 4))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        a[1:, 1:] = kernel + np.eye(3) / gamma
        sol = np.linalg.solve(a, np.array([0.0, *y]))
        assert m.bias == pytest.approx(sol[0], abs=1e-10)
        assert np.allclose(m.coefficients, sol[1:], atol=1e-10)

    def test_kkt_residual_strict_in_winner_region(self):
        # Dual optimality lambda_i = gamma * (y_i - yhat_i). Strict
        # absolute bound over kernel widths near the data scale.
        d = self._dataset()
        bound = 1e-6 * np.max(np.abs(d.y))
        for sigma in (0.1, 0.5, 1.0, 2.0):
            for gamma in (1e-3, 1.0, 1e3, 1e6):
                m = fit_lssvm(d, sigma, gamma)
                assert kkt_residual(m, d) < bound

    def test_kkt_residual_at_solver_tolerance_everywhere(self):
        # At flat-kernel corners (sigma >> data scale with huge gamma)
        # the check itself carries float64 noise ~ gamma*eps*sum|lambda|;
        # the residual must stay below that intrinsic floor.
        d = self._dataset()
        bound = 1e-6 * np.max(np.abs(d.y))
        eps = np.finfo(float).eps
        for sigma in (5.0, 10.0):
            for gamma in (1e-3, 1.0, 1e3, 1e6):
                m = fit_lssvm(d, sigma, gamma)
                floor = 64 * eps * gamma * (np.abs(m.coefficients).sum() + abs(m.bias))
                assert kkt_residual(m, d) < max(bound, floor)

    def test_prediction_at_training_point_high_gamma(self):
        d = self._dataset(n=25, seed=3)
        m = fit_lssvm(d, sigma=1.5, gamma=1e8)
        assert m.predict(d.X[4]) == pytest.approx(d.y[4], abs=1e-4)

    def test_zero_coefficients_return_bias(self):
        m = LssvmModel(np.zeros((3, 2)), np.zeros(3), -1.5, 1.0, 1.0)
        assert m.predict([4.0, 4.0]) == -1.5

    def test_hand_sum_tiny_model(self):
        m = LssvmModel(
            support_points=np.array([[0.0], [2.0]]),
            coefficients=np.array([0.5, -0.25]),
            bias=0.1,
            sigma=1.0,
            gamma=1.0,
        )
        expected = (
            0.5 * math.exp(-0.5)
            - 0.25 * math.exp(-0.5)
            + 0.1
        )
        assert m.predict([1.0]) == pytest.approx(expected, abs=1e-12)

    def test_parameter_validation(self):
        d = self._dataset(n=10)
        with pytest.raises(ValueError):
            fit_lssvm(d, 0.0, 1.0)
        with pytest.raises(ValueError):
            fit_lssvm(d, 1.0, -1.0)

    def test_single_sample_fit(self):
        d = Dataset(np.array([[1.0]]), np.array([3.0]))
        m = fit_lssvm(d, 1.0, 10.0)
        assert m.predict([1.0]) == pytest.approx(3.0, abs=1e-6)


class TestLinear:
    def test_exact_recovery(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(50, 3))
        y = x @ np.array([2.0, -1.0, 0.5]) + 4.0
        m = fit_linear(Dataset(x, y))
        assert np.allclose(m.coefficients, [2.0, -1.0, 0.5], atol=1e-8)
        assert m.intercept == pytest.approx(4.0, abs=1e-8)

    def test_constant_target(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 2))
        m = fit_linear(Dataset(x, np.full(20, 7.5)))
        assert np.allclose(m.coefficients, 0.0, atol=1e-10)
        assert m.intercept == pytest.approx(7.5, abs=1e-10)

    def test_two_point_line(self):
        d = Dataset(np.array([[1.0], [3.0]]), np.array([2.0, 8.0]))
        m = fit_linear(d)
        assert m.coefficients[0] == pytest.approx(3.0, abs=1e-12)
        assert m.intercept == pytest.approx(-1.0, abs=1e-12)
        assert m.predict([2.0]) == pytest.approx(5.0, abs=1e-12)

    def test_rank_deficient_uses_minimum_norm(self):
        # Duplicate columns: infinitely many solutions; least-norm
        # splits the weight evenly.
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        m = fit_linear(Dataset(x, y))
        assert m.coefficients[0] == pytest.approx(m.coefficients[1], abs=1e-10)
        assert m.predict([4.0, 4.0]) == pytest.approx(8.0, abs=1e-8)


class TestSerialization:
    def _models(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(20, 2))
        y = x[:, 0] - x[:, 1] ** 2
        d = Dataset(x, y)
        return [
            fit_rbfn(d, 3, 1.1, seed=1),
            fit_lssvm(d, 0.9, 10.0),
            fit_linear(d),
        ]

    def test_round_trip_exact_predictions(self, tmp_path):
        rng = np.random.default_rng(11)
        probe = rng.normal(size=(10, 2))
        for i, model in enumerate(self._models()):
            path = tmp_path / f"m{i}.json"
            save_pipeline(PipelineModel(model=model), path)
            back = load_pipeline(path).model
            assert type(back) is type(model)
            assert np.array_equal(back.predict(probe), model.predict(probe))

    def test_document_is_versioned(self):
        doc = encode(self._models()[2])
        assert doc["format"] == "mivarsel-model"
        assert doc["version"] == 1
        assert doc["kind"] == "linear"

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            decode({"format": "other", "version": 1})
        with pytest.raises(ValueError):
            decode({"format": "mivarsel-model", "version": 99, "kind": "linear", "data": {}})
        with pytest.raises(ValueError):
            decode({"format": "mivarsel-model", "version": 1, "kind": "tree", "data": {}})

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RbfnModel(np.zeros((2, 1)), np.array([1.0]), np.zeros(2), 0.0, 1.0)
        with pytest.raises(ValueError):
            RbfnModel(np.zeros((1, 1)), np.array([0.0]), np.zeros(1), 0.0, 1.0)
        with pytest.raises(ValueError):
            LssvmModel(np.zeros((2, 1)), np.zeros(3), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            LssvmModel(np.zeros((2, 1)), np.zeros(2), 0.0, -1.0, 1.0)


def _record_fields(cls) -> tuple[dict, dict]:
    """Array fields and other fields of a small valid record of type ``cls``."""
    rng = np.random.default_rng(9)
    positive = rng.random(4) + 0.5
    return {
        Dataset: ({"X": rng.normal(size=(4, 3)), "y": rng.normal(size=4)}, {}),
        ColumnWhitener: ({"means": rng.normal(size=3), "stds": positive[:3]}, {}),
        Projection: (
            {"loadings": rng.normal(size=(3, 2)), "x_mean": rng.normal(size=3),
             "x_scale": positive[:3]},
            {"kind": "pca", "y_center": None, "n_components": 2},
        ),
        RbfnModel: (
            {"centroids": rng.normal(size=(4, 3)), "widths": positive, "weights": rng.normal(size=4)},
            {"bias": 0.5, "wsf": 1.5},
        ),
        LssvmModel: (
            {"support_points": rng.normal(size=(4, 3)), "coefficients": rng.normal(size=4)},
            {"bias": 0.5, "sigma": 1.0, "gamma": 10.0},
        ),
        LinearModel: ({"coefficients": rng.normal(size=3)}, {"intercept": 0.5}),
    }[cls]


class TestRecordArrays:
    """Every record holds read-only arrays of its own: a caller's writeable
    array is copied, never frozen, and a read-only one is shared."""

    @pytest.mark.parametrize(
        "cls", [Dataset, ColumnWhitener, Projection, RbfnModel, LssvmModel, LinearModel]
    )
    def test_the_caller_keeps_its_arrays(self, cls):
        arrays, others = _record_fields(cls)
        before = {name: a.copy() for name, a in arrays.items()}
        record = cls(**arrays, **others)
        for name, a in arrays.items():
            held = getattr(record, name)
            assert a.flags.writeable and a.tobytes() == before[name].tobytes()
            assert not held.flags.writeable
            assert not np.shares_memory(held, a)
            assert held.tobytes() == a.tobytes()
        again = cls(**{name: getattr(record, name) for name in arrays}, **others)
        for name in arrays:
            assert getattr(again, name) is getattr(record, name)


_DATA = Path(__file__).parent / "data"
_GOLDEN = [
    "pipeline-linear",
    "pipeline-rbfn",
    "pipeline-lssvm",
    "pipeline-pca-whiten",
    "pipeline-mi-normalize",
    "pipeline-no-n-inputs",
    "model-plain",
]


class TestGoldenDocuments:
    """Committed documents pin the format: each predicts its committed values
    and encodes back to its own bytes."""

    @pytest.mark.parametrize("name", _GOLDEN)
    def test_predicts_committed_values(self, name):
        model = load_pipeline(_DATA / f"{name}.json")
        lines = (_DATA / f"{name}.predictions.csv").read_text().splitlines()
        assert lines[0] == "prediction"
        got = model.predict(load_input_rows(_DATA / "rows.csv"))
        assert [repr(float(v)) for v in got] == lines[1:]

    @pytest.mark.parametrize("name", [*_GOLDEN, "lssvm-40-inputs"])
    def test_row_layout_never_changes_the_bits(self, name):
        """Rows in column order predict the bits of the same rows in row order."""
        rng = np.random.default_rng(5)
        if name == "lssvm-40-inputs":
            x = rng.normal(size=(60, 40))
            model = PipelineModel(model=fit_lssvm(Dataset(x, np.sin(x[:, 0]) + x[:, 1]), 3.0, 10.0))
            batches = [rng.normal(size=(int(n), 40)) for n in rng.integers(2, 301, size=50)]
        else:
            model = load_pipeline(_DATA / f"{name}.json")
            rows = load_input_rows(_DATA / "rows.csv")
            batches = [rows, rows.mean(axis=0) + rng.normal(size=(300, rows.shape[1]))]
        for rows in batches:
            want = model.predict(np.ascontiguousarray(rows))
            assert model.predict(np.asfortranarray(rows)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", _GOLDEN)
    def test_encodes_to_the_same_bytes(self, name, tmp_path):
        text = (_DATA / f"{name}.json").read_text()
        model = load_pipeline(_DATA / f"{name}.json")
        if name == "model-plain":
            assert json.dumps(encode(model.model)) + "\n" == text
            return
        save_pipeline(model, tmp_path / "again.json")
        if name == "pipeline-no-n-inputs":
            # written before the width was recorded; the key comes back as null
            assert text.endswith("}}\n")
            text = text[: -len("}}\n")] + ', "n_inputs": null}}\n'
        assert (tmp_path / "again.json").read_text() == text


class TestDecodeTypes:
    """A field of the wrong JSON type is an error naming it, never a coerced value."""

    @staticmethod
    def _edited(field, value):
        doc = json.loads((_DATA / "pipeline-rbfn.json").read_text())
        doc["data"][field] = value
        return doc

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("variables", "02", "expected a JSON list"),
            ("variables", [0, 2.0], "expected a JSON integer"),
            ("n_inputs", 3.7, "expected a JSON integer"),
            ("n_inputs", True, "expected a JSON integer"),
            ("n_inputs", "3", "expected a JSON integer"),
            ("preprocessing", 0, "expected a JSON string"),
        ],
    )
    def test_wrong_type_names_the_field(self, field, value, message):
        with pytest.raises(ValueError, match=f"PipelineModel field '{field}': {message}"):
            decode(self._edited(field, value))

    @pytest.mark.parametrize("value", ["1.5", True, None, [1.5]])
    def test_float_field_needs_a_number(self, value):
        doc = json.loads((_DATA / "pipeline-rbfn.json").read_text())
        doc["data"]["model"]["data"]["bias"] = value
        with pytest.raises(ValueError, match="RbfnModel field 'bias'"):
            decode(doc)

    def test_integers_are_numbers(self):
        doc = json.loads((_DATA / "pipeline-rbfn.json").read_text())
        doc["data"]["model"]["data"]["bias"] = -6
        assert decode(doc).model.bias == -6.0
        assert type(decode(doc).model.bias) is float


@cache
def _fitted_pipelines() -> dict:
    """Freshly fitted RBFN, LS-SVM and linear pipelines over 8-wide spectra."""
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 8)) + np.linspace(0.0, 2.0, 8)
    y = np.sin(x[:, 0]) + x[:, 3] * x[:, 5]
    train = Dataset(x, y)

    def pipeline(preprocessing, fit_model, **mapping_args):
        rows = Dataset(oracles.normalize_spectrum_rows(x), y) if preprocessing != "none" else train
        mapping, mapped = fit_mapping(rows, **mapping_args)
        return replace(mapping, model=fit_model(mapped), preprocessing=preprocessing, n_inputs=8)

    return {
        "fitted-rbfn": pipeline(
            "spectrum-normalize", lambda d: fit_rbfn(d, 4, 1.3, seed=2), variables=(0, 3, 5, 9)
        ),
        "fitted-lssvm": pipeline(
            "none", lambda d: fit_lssvm(d, 1.7, 50.0), projection="pca", n_components=3,
            whiten=True,
        ),
        "fitted-linear": pipeline("none", fit_linear, projection="pls", n_components=2),
    }


@cache
def _pipeline(name: str) -> PipelineModel:
    fitted = _fitted_pipelines()
    return fitted[name] if name in fitted else load_pipeline(_DATA / f"{name}.json")


def _input_width(pipeline: PipelineModel) -> int:
    return 8 if pipeline.n_inputs == 8 else 3


def _outcome(predict, pipeline, x):
    """What a predict call gives: its type, shape and bits, or its error and message."""
    try:
        with np.errstate(all="ignore"):
            out = predict(pipeline, x)
    except (DataError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return type(out), np.shape(out), np.asarray(out, dtype=np.float64).tobytes()


_PIPELINES = [*_GOLDEN, "fitted-rbfn", "fitted-lssvm", "fitted-linear"]
# The pipelines that take one input width only: every document but the one
# that selects variables without recording its width, which takes wider rows.
_WIDTH_CHECKED = [n for n in _PIPELINES if n != "pipeline-no-n-inputs"]


class TestLeanPredictPath:
    """The predict path with each model's constants computed once and the
    kernel built in place gives the bits of the plain expressions
    (``oracles.pipeline_predict``), for every committed document and for
    freshly fitted pipelines."""

    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(_PIPELINES),
        n_rows=st.sampled_from([0, 1, 2, 43, 3000]),
        exponent=st.one_of(st.integers(-300, 300), st.sampled_from([-160, 0, 160, 308])),
        offset=st.sampled_from([0.0, 1.0, -1e3, 1e150]),
        seed=st.integers(0, 2**16),
        one_d=st.booleans(),
    )
    def test_bits_match_the_plain_expressions(self, name, n_rows, exponent, offset, seed, one_d):
        pipeline = _pipeline(name)
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):
            x = rng.normal(size=(n_rows, _input_width(pipeline))) * 10.0**exponent + offset
        if one_d and n_rows == 1:
            x = x[0]
        assert _outcome(PipelineModel.predict, pipeline, x) == _outcome(
            oracles.pipeline_predict, pipeline, x
        )

    @pytest.mark.parametrize("name", _PIPELINES)
    def test_one_d_row_is_a_float_and_a_matrix_an_array(self, name):
        pipeline = _pipeline(name)
        rows = load_input_rows(_DATA / "rows.csv") if _input_width(pipeline) == 3 else (
            np.random.default_rng(3).normal(size=(5, 8))
        )
        one = pipeline.predict(rows[0])
        matrix = pipeline.predict(rows[:1])
        assert type(one) is float
        assert isinstance(matrix, np.ndarray) and matrix.shape == (1,)
        assert np.float64(one).tobytes() == matrix.tobytes()

    @pytest.mark.parametrize("row", [[2.0, 2.0, 2.0], [[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]])
    def test_constant_row_raises(self, row):
        with pytest.raises(DataError, match="constant spectrum"):
            _pipeline("pipeline-mi-normalize").predict(row)

    def test_one_variable_row_raises(self):
        pipeline = replace(_pipeline("pipeline-mi-normalize"), n_inputs=None)
        with pytest.raises(DataError, match="at least 2 variables"):
            pipeline.predict([[1.0], [2.0]])

    @pytest.mark.parametrize("name", _WIDTH_CHECKED)
    @pytest.mark.parametrize("width", [1, 2, 4, 9])
    def test_wrong_width_raises(self, name, width):
        pipeline = _pipeline(name)
        if width == _input_width(pipeline):
            width += 1
        with pytest.raises(DataError, match="input columns"):
            pipeline.predict(np.ones((2, width)) + np.arange(width))

    @pytest.mark.parametrize(
        "name, message",
        [
            ("pipeline-no-n-inputs", "model takes at least 2 input columns, rows have 1"),
            ("pipeline-pca-whiten", "model takes 3 input columns, rows have 1"),
            ("model-plain", "model takes 3 input columns, rows have 1"),
        ],
    )
    def test_narrow_rows_raise_without_a_recorded_width(self, name, message):
        pipeline = replace(_pipeline(name), n_inputs=None)
        with pytest.raises(DataError, match=message):
            pipeline.predict(np.array([[0.5], [1.5]]))

    def test_normalizing_rows_raise_without_a_recorded_width(self):
        """Its variables index normalized rows, whose mean and std take in
        every raw column, so no raw width is known to check rows against."""
        pipeline = replace(_pipeline("pipeline-mi-normalize"), n_inputs=None)
        rows = load_input_rows(_DATA / "rows.csv")
        for x in (rows, rows[0], np.hstack([rows, np.zeros((len(rows), 1))])):
            with pytest.raises(DataError, match="model records no n_inputs"):
                pipeline.predict(x)

    def test_wider_rows_keep_their_bits_without_a_recorded_width(self):
        pipeline = _pipeline("pipeline-no-n-inputs")
        rows = load_input_rows(_DATA / "rows.csv")
        wide = np.hstack([rows, rows + 1.0])
        assert pipeline.predict(wide).tobytes() == pipeline.predict(rows).tobytes()
        with pytest.raises(DataError, match="model takes 3 input columns, rows have 6"):
            replace(_pipeline("pipeline-pca-whiten"), n_inputs=None).predict(wide)

    @pytest.mark.parametrize("name", _PIPELINES)
    def test_pickled_and_replaced_models_predict_the_same_bits(self, name):
        pipeline = _pipeline(name)
        x = np.random.default_rng(4).normal(size=(43, _input_width(pipeline))) + 2.0
        want = pipeline.predict(x).tobytes()
        assert pickle.loads(pickle.dumps(pipeline)).predict(x).tobytes() == want
        assert replace(pipeline).predict(x).tobytes() == want
        assert replace(pipeline, model=replace(pipeline.model)).predict(x).tobytes() == want

    @pytest.mark.parametrize("name", _PIPELINES)
    def test_constants_are_not_fields(self, name):
        model = _pipeline(name).model
        doc = encode(model)["data"]
        assert list(doc) == [f.name for f in fields(model)]
        assert not any(key.startswith("_") for key in doc)

    def test_predict_functions_match_the_plain_expressions(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 4))
        d = Dataset(x, x[:, 0] ** 2 - x[:, 1])
        probe = rng.normal(size=(17, 4)) * 3.0
        for model, plain in [
            (fit_rbfn(d, 5, 0.8, seed=1), oracles.predict_rbfn),
            (fit_lssvm(d, 1.1, 20.0), oracles.predict_lssvm),
            (fit_linear(d), oracles.predict_linear),
        ]:
            assert model.predict(probe).tobytes() == plain(model, probe).tobytes()
            assert np.float64(model.predict(probe[3])).tobytes() == np.float64(
                plain(model, probe[3])
            ).tobytes()
        assert sq_dists(probe, x).tobytes() == oracles.sq_dists_expression(probe, x).tobytes()
        assert sq_dists(x, x).tobytes() == oracles.sq_dists_expression(x, x).tobytes()

    def test_batch_kernel_holds_two_distance_buffers(self):
        """A 3,000-row LS-SVM batch over 172 support points peaks at the
        distance matrix and the product it is built from (2 x 4.1 MB); the
        copying expression held a third buffer of the same size."""
        rng = np.random.default_rng(6)
        x = rng.normal(size=(172, 10))
        model = fit_lssvm(Dataset(x, x[:, 0] + np.sin(x[:, 1])), 2.0, 100.0)
        rows = rng.normal(size=(3000, 10))
        model.predict(rows)
        buffer = rows.shape[0] * x.shape[0] * 8
        gc.collect()
        tracemalloc.start()
        try:
            model.predict(rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * buffer + 64_000
