"""Metric, folding, trimming, grids, sweeps, and the CV driver."""

from __future__ import annotations

import concurrent.futures
import gc
import json
import math
import operator
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivarsel import _blas, evaluation
from mivarsel.dataset import Dataset
from mivarsel.errors import DataError, NumericalError
from mivarsel.evaluation import (
    ComponentSweep,
    CvReport,
    GridPointResult,
    GridRows,
    LinearSweep,
    LssvmSweep,
    MetaGrid,
    RbfnSweep,
    TestSetGuard,
    cross_validate,
    default_centroid_counts,
    default_component_counts,
    default_gamma_values,
    default_sigma_values,
    default_wsf_values,
    grid_csv_blocks,
    kfold_split,
    median_pairwise_distance,
    nmse,
    pooled_target_variance,
    select_winner,
    sweep_folds,
    trim_outliers,
)
from mivarsel.methods import PipelineSweep
from mivarsel.models import encode, fit_linear, fit_lssvm, fit_rbfn
from mivarsel.evaluation import _kept
from oracles import kept_by_numpy, lssvm_sweep_fold, rbfn_sweep_fold


class TestNmse:
    def test_perfect_predictions_score_zero(self):
        assert nmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 5.0) == 0.0

    def test_hand_computed_residuals(self):
        # residuals (1, -1): mean square 1, over normalizer 2.
        assert nmse([1.0, 0.0], [0.0, 1.0], 2.0) == 0.5

    def test_mean_predictor_scores_near_one(self):
        y = np.random.default_rng(0).normal(size=40)
        score = nmse(np.full(40, y.mean()), y, y.var(ddof=1))
        assert score == pytest.approx(39 / 40, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="equal non-empty"):
            nmse([1.0], [1.0, 2.0], 1.0)
        with pytest.raises(ValueError, match="equal non-empty"):
            nmse([], [], 1.0)
        with pytest.raises(ValueError, match="positive"):
            nmse([1.0], [1.0], 0.0)

    def test_pooled_variance_uses_all_samples(self):
        a = Dataset(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        b = Dataset(np.zeros((2, 1)), np.array([10.0, 20.0]))
        pooled = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
        assert pooled_target_variance(a, b) == pooled.var(ddof=1)

    def test_pooled_variance_rejects_constant_target(self):
        a = Dataset(np.zeros((3, 1)), np.full(3, 2.0))
        with pytest.raises(DataError, match="variance"):
            pooled_target_variance(a, a)

    def test_pooled_variance_of_one_dataset_is_its_own(self):
        y = np.random.default_rng(2).normal(size=30)
        d = Dataset(np.zeros((30, 1)), y)
        assert pooled_target_variance(d) == float(np.var(y, ddof=1))
        with pytest.raises(DataError, match="constant"):
            pooled_target_variance(Dataset(np.zeros((30, 1)), np.full(30, 0.1)))

    def test_pooled_variance_that_overflows_is_numerical_error(self):
        d = Dataset(np.zeros((20, 1)), 1e200 * np.random.default_rng(3).normal(size=20))
        with pytest.raises(NumericalError, match="overflows"):
            pooled_target_variance(d, d)

    def test_pooled_variance_rejects_a_constant_target_whose_mean_rounds(self):
        a = Dataset(np.zeros((60, 1)), np.full(60, 0.1))
        b = Dataset(np.zeros((20, 1)), np.full(20, 0.1))
        pooled = np.concatenate([a.y, b.y])
        assert pooled.var(ddof=1) > 0.0  # the rounding of the mean, about 1e-33
        with pytest.raises(DataError, match="constant"):
            pooled_target_variance(a, b)


class TestKfoldSplit:
    def test_172_in_4_gives_equal_folds(self):
        folds = kfold_split(172, 4, 0)
        assert [len(f) for f in folds] == [43, 43, 43, 43]
        assert sorted(np.concatenate(folds).tolist()) == list(range(172))

    def test_149_in_3_gives_50_50_49(self):
        assert [len(f) for f in kfold_split(149, 3, 7)] == [50, 50, 49]

    def test_leave_one_out_structure(self):
        folds = kfold_split(6, 6, 1)
        assert [len(f) for f in folds] == [1] * 6
        assert sorted(int(f[0]) for f in folds) == list(range(6))

    def test_deterministic_and_seed_sensitive(self):
        a = kfold_split(50, 5, 3)
        b = kfold_split(50, 5, 3)
        c = kfold_split(50, 5, 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_folds_are_sorted(self):
        for f in kfold_split(30, 4, 9):
            assert np.array_equal(f, np.sort(f))

    def test_validation(self):
        with pytest.raises(ValueError, match="folds"):
            kfold_split(5, 6, 0)
        with pytest.raises(ValueError, match="at least 2"):
            kfold_split(5, 1, 0)


class TestTrimOutliers:
    def test_single_gross_outlier_dropped(self):
        e = np.random.default_rng(0).normal(size=100)
        e[17] = 50.0
        kept = trim_outliers(e)
        assert sorted(set(range(100)) - set(kept.tolist())) == [17]

    def test_two_planted_outliers_dropped(self):
        e = np.random.default_rng(0).normal(size=200)
        e[3] = 40.0
        e[150] = -35.0
        kept = trim_outliers(e)
        assert sorted(set(range(200)) - set(kept.tolist())) == [3, 150]

    def test_equal_errors_all_kept(self):
        assert len(trim_outliers(np.ones(50))) == 50

    def test_drop_budget_one_percent(self):
        rng = np.random.default_rng(1)
        for n in (43, 100, 200):
            for _ in range(20):
                kept = trim_outliers(rng.normal(size=n))
                assert n - len(kept) <= math.ceil(0.01 * n)

    def test_kept_indices_sorted_and_in_range(self):
        kept = trim_outliers(np.random.default_rng(2).normal(size=60))
        assert np.array_equal(kept, np.sort(kept))
        assert kept.min() >= 0 and kept.max() < 60

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            trim_outliers([])

    _SPECIAL = (math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308)

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 80), st.integers(81, 250)),
        n_rows=st.integers(1, 5),
        exponent=st.integers(-300, 300),
        ties=st.booleans(),
        specials=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 249), st.sampled_from(_SPECIAL)),
            max_size=12,
        ),
        seed=st.integers(0, 2**16),
    )
    def test_sorted_mask_is_numpys_median_and_percentile_mask(
        self, n, n_rows, exponent, ties, specials, seed
    ):
        """One sort for the median and one for the deviations keep the
        errors numpy's median and linear 99th percentile keep, with NaN,
        infinities, signed zeros, subnormals and ties, row by row and for
        one vector. Past 100 errors the 99th percentile lies below the
        largest one, so a NaN there must still void the row."""
        rng = np.random.default_rng(seed)
        if ties:
            e = rng.integers(-2, 3, size=(n_rows, n)).astype(np.float64) * 10.0**exponent
        else:
            e = rng.normal(size=(n_rows, n)) * 10.0**exponent
        for row, col, value in specials:
            e[row % n_rows, col % n] = value
        with np.errstate(all="ignore"):
            assert np.array_equal(_kept(e), kept_by_numpy(e))
            assert np.array_equal(_kept(e[0]), kept_by_numpy(e[0]))


class TestTestSetGuard:
    def test_single_read_allowed(self):
        d = Dataset(np.zeros((4, 2)), np.arange(4.0))
        guard = TestSetGuard(d)
        assert guard.take() is d
        assert guard.reads == 1

    def test_second_read_raises(self):
        guard = TestSetGuard(Dataset(np.zeros((4, 2)), np.arange(4.0)))
        guard.take()
        with pytest.raises(DataError, match="more than once"):
            guard.take()


class TestMetaGrid:
    def test_point_order_first_axis_slowest(self):
        g = MetaGrid((("a", (1.0, 2.0)), ("b", (10.0, 20.0, 30.0))))
        pts = g.points()
        assert len(g) == 6
        assert pts[0] == {"a": 1.0, "b": 10.0}
        assert pts[1] == {"a": 1.0, "b": 20.0}
        assert pts[3] == {"a": 2.0, "b": 10.0}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=2)),
                     min_size=1, max_size=4),
            min_size=1, max_size=3,
        )
    )
    def test_point_is_the_points_entry(self, axes):
        g = MetaGrid(tuple((f"axis{k}", tuple(v)) for k, v in enumerate(axes)))
        pts = g.points()
        for i in range(-len(g), len(g)):
            assert list(g.point(i).items()) == list(pts[i].items())
            assert all(g.point(i)[name] is value for name, value in pts[i].items())
        with pytest.raises(IndexError):
            g.point(len(g))
        with pytest.raises(IndexError):
            g.point(-len(g) - 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one axis"):
            MetaGrid(())
        with pytest.raises(ValueError, match="duplicate"):
            MetaGrid((("a", (1.0,)), ("a", (2.0,))))
        with pytest.raises(ValueError, match="no candidate"):
            MetaGrid((("a", ()),))


class TestGridBuilders:
    def test_median_pairwise_distance_hand_example(self):
        x = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        # pair distances: 5, 10, 5
        assert median_pairwise_distance(x) == 5.0

    def test_component_counts_cap_at_fold_rank(self):
        assert default_component_counts(172, 102, 4) == tuple(range(1, 103))
        # 20 samples in 4 folds: learning folds of 15 rows support 14.
        assert default_component_counts(20, 50, 4) == tuple(range(1, 15))

    def test_centroid_counts(self):
        assert default_centroid_counts(172, 4) == tuple(range(1, 31))
        assert default_centroid_counts(20, 4) == tuple(range(1, 16))

    def test_wsf_axis(self):
        w = default_wsf_values()
        assert len(w) == 15
        assert w[0] == pytest.approx(0.1) and w[-1] == pytest.approx(10.0)

    def test_sigma_axis_anchored_to_data_scale(self):
        x = np.random.default_rng(0).normal(size=(25, 3))
        scale = median_pairwise_distance(x)
        s = default_sigma_values(x)
        assert len(s) == 100
        assert s[0] == pytest.approx(0.01 * scale)
        assert s[-1] == pytest.approx(100.0 * scale)

    def test_gamma_axis(self):
        g = default_gamma_values()
        assert len(g) == 300
        assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(1e6)


def _trimmed_mse(errors) -> float:
    """Mean squared error of the errors trim_outliers keeps: a validation score."""
    return np.mean(errors[trim_outliers(errors)] ** 2)


def _split_linear(seed=2, n=100, n_test=20, m=3, noise=0.01):
    rng = np.random.default_rng(seed)
    w = np.linspace(1.0, -2.0, m)
    x = rng.normal(size=(n, m))
    y = x @ w + noise * rng.normal(size=n)
    xt = rng.normal(size=(n_test, m))
    yt = xt @ w + noise * rng.normal(size=n_test)
    return Dataset(x, y), Dataset(xt, yt)


class TestSweepsAgainstCanonicalFits:
    def test_linear_sweep_matches_direct_fit(self):
        train, test = _split_linear()
        learn, valid = train.take_rows(np.arange(70)), train.take_rows(np.arange(70, 100))
        nl, nv, msg = LinearSweep().evaluate_fold(learn, valid, 2.0)
        m = fit_linear(learn)
        assert msg == {}
        assert nl[0] == np.mean((m.predict(learn.X) - learn.y) ** 2) / 2.0
        assert nv[0] == _trimmed_mse(m.predict(valid.X) - valid.y) / 2.0

    @pytest.mark.parametrize("projection", ["pca", "pls"])
    def test_component_sweep_matches_per_count_fits(self, projection):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 8))
        y = x @ rng.normal(size=8) + 0.05 * rng.normal(size=50)
        d = Dataset(x, y)
        learn, valid = d.take_rows(np.arange(35)), d.take_rows(np.arange(35, 50))
        sweep = ComponentSweep(projection, range(1, 9))
        nl, nv, msg = sweep.evaluate_fold(learn, valid, 1.0)
        assert msg == {}
        for i, params in enumerate(sweep.grid.points()):
            m = sweep.fit(learn, params)
            el = np.mean((m.predict(learn.X) - learn.y) ** 2)
            ev = _trimmed_mse(m.predict(valid.X) - valid.y)
            assert nl[i] == pytest.approx(el, rel=1e-10, abs=1e-14)
            assert nv[i] == pytest.approx(ev, rel=1e-10, abs=1e-14)

    def test_component_sweep_flags_counts_beyond_rank(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(30, 4))
        x = np.hstack([t, t @ rng.normal(size=(4, 4))])  # rank 4 in 8 columns
        d = Dataset(x, t[:, 0])
        sweep = ComponentSweep("pca", range(1, 8))
        nl, nv, msg = sweep.evaluate_fold(
            d.take_rows(np.arange(20)), d.take_rows(np.arange(20, 30)), 1.0
        )
        assert np.all(np.isfinite(nl[:4])) and np.all(np.isnan(nl[4:]))
        assert set(msg) == {4, 5, 6}
        assert all("usable components" in m for m in msg.values())

    def test_component_sweep_takes_only_the_counts_one_to_n(self):
        assert len(ComponentSweep("pls", range(1, 4)).grid) == 3
        for counts in ((1, 3), (2, 3), (2, 1), (0, 1, 2)):
            with pytest.raises(ValueError, match="1..n"):
                ComponentSweep("pca", counts)

    @pytest.mark.parametrize("projection", ["pca", "pls"])
    @pytest.mark.parametrize("value", [1.0, 0.1, 7.7, 1e-12, 1e12])
    def test_identical_learning_rows_leave_no_usable_component(self, projection, value):
        # Centering a column of 0.1s leaves rounding, not zeros, in every row.
        d = Dataset(np.full((12, 4), value), np.random.default_rng(0).normal(size=12))
        sweep = ComponentSweep(projection, range(1, 5))
        nl, nv, msg = sweep.evaluate_fold(
            d.take_rows(np.arange(9)), d.take_rows(np.arange(9, 12)), 1.0
        )
        assert np.all(np.isnan(nl)) and np.all(np.isnan(nv))
        assert msg == dict.fromkeys(range(4), "only 0 usable components on this learning fold")

    def test_rbfn_sweep_bitwise_equals_plain_fit(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 2))
        y = np.sin(2 * x[:, 0]) + 0.1 * rng.normal(size=40)
        d = Dataset(x, y)
        learn, valid = d.take_rows(np.arange(30)), d.take_rows(np.arange(30, 40))
        sweep = RbfnSweep((1, 3, 5), (0.5, 1.0, 2.0), seed=9)
        nl, nv, msg = sweep.evaluate_fold(learn, valid, 1.0)
        assert msg == {}
        for i, params in enumerate(sweep.grid.points()):
            m = fit_rbfn(learn, params["centroids"], params["wsf"], seed=9)
            assert nl[i] == np.mean((m.predict(learn.X) - learn.y) ** 2)
            assert nv[i] == _trimmed_mse(m.predict(valid.X) - valid.y)

    def test_lssvm_sweep_matches_dense_solver(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 3))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=60)
        d = Dataset(x, y)
        learn, valid = d.take_rows(np.arange(40)), d.take_rows(np.arange(40, 60))
        sweep = LssvmSweep((0.5, 2.0), (1.0, 1e3, 1e6))
        nl, nv, msg = sweep.evaluate_fold(learn, valid, 1.0)
        assert msg == {}
        for i, params in enumerate(sweep.grid.points()):
            m = fit_lssvm(learn, params["sigma"], params["gamma"])
            el = np.mean((m.predict(learn.X) - learn.y) ** 2)
            ev = _trimmed_mse(m.predict(valid.X) - valid.y)
            assert nl[i] == pytest.approx(el, rel=1e-6)
            assert nv[i] == pytest.approx(ev, rel=1e-6)


class TestCrossValidate:
    def test_single_point_grid_is_plain_fold_evaluation(self):
        train, test = _split_linear()
        var_y = pooled_target_variance(train, test)
        report, model = cross_validate(train, test, LinearSweep(), 4, 0, var_y)
        assert report.winner_index == 0
        assert len(report.rows) == 1
        assert report.winner_fold_nmse_v == report.rows[0].nmse_v
        # refit on all training rows beats noise level comfortably
        assert report.nmse_t < 1e-3
        assert report.test_reads == 1

    def test_linear_data_identified_by_component_search(self):
        train, test = _split_linear(seed=7, m=5, noise=0.0)
        var_y = pooled_target_variance(train, test)
        sweep = ComponentSweep("pls", range(1, 6))
        report, model = cross_validate(train, test, sweep, 4, 0, var_y)
        assert report.mean_nmse_v < 1e-20
        assert report.nmse_t < 1e-20

    def test_noise_never_selects_interpolating_rbfn(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        train, test = Dataset(x[:32], y[:32]), Dataset(x[32:], y[32:])
        var_y = pooled_target_variance(train, test)
        sweep = RbfnSweep(range(1, 11), (0.5, 1.0, 2.0), seed=0)
        report, _ = cross_validate(train, test, sweep, 4, 0, var_y)
        assert report.winner_params["centroids"] < 10

    def test_exact_tie_prefers_earlier_grid_point(self):
        train, test = _split_linear(seed=8, n=40, n_test=10)
        var_y = pooled_target_variance(train, test)
        # duplicated wsf values make grid points 0 and 1 identical
        sweep = RbfnSweep((2,), (1.0, 1.0), seed=0)
        report, _ = cross_validate(train, test, sweep, 4, 0, var_y)
        assert report.rows[0].nmse_v == report.rows[1].nmse_v
        assert report.winner_index == 0

    def test_partial_grid_failures_recorded_not_fatal(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(40, 3))
        x = np.hstack([t, t @ rng.normal(size=(3, 3))])  # rank 3 in 6 columns
        y = t[:, 0] + 0.01 * rng.normal(size=40)
        train = Dataset(x[:30], y[:30])
        test = Dataset(x[30:], y[30:])
        var_y = pooled_target_variance(train, test)
        sweep = ComponentSweep("pca", range(1, 7))
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        assert report.winner_params["components"] <= 3
        failed = [r for r in report.rows if r.error is not None]
        assert len(failed) == 3
        assert all(math.isnan(r.nmse_v[0]) for r in failed)

    def test_all_failures_raise(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 3))
        x[:, 1] = 5.0  # a constant column cannot be whitened
        d = Dataset(x, x[:, 0])
        sweep = PipelineSweep(LinearSweep(), "linear", whiten=True)
        with pytest.raises(NumericalError, match="every grid point failed"):
            cross_validate(d, d, sweep, 3, 0, 1.0)

    def test_all_failures_name_the_most_frequent_reason(self):
        d = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
        sweep = ComponentSweep("pca", (1, 2))
        with pytest.raises(NumericalError) as caught:
            cross_validate(d, d, sweep, 2, 0, 1.0)
        assert str(caught.value) == (
            "every grid point failed on at least one fold "
            "(2 of 2 points: learning fold too small for any component)"
        )

    def test_select_winner_counts_each_points_first_failure(self):
        failed = np.full((3, 2), np.nan)
        messages = [{0: "a", 1: "b"}, {1: "c", 2: "b"}]
        reason = r"failed on at least one fold \(2 of 3 points: b\)$"
        with pytest.raises(NumericalError, match=reason):
            select_winner(failed, failed, messages)
        # Without messages, or with none recorded, the reason is left out.
        with pytest.raises(NumericalError, match="failed on at least one fold$"):
            select_winner(failed, failed)
        with pytest.raises(NumericalError, match="failed on at least one fold$"):
            select_winner(failed, failed, [{}, {}])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_whole_fold_failure_marks_every_point_of_that_fold(self, workers):
        # Two samples in two folds leave one learning row: no component fits.
        d = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 1.0]))
        sweep = ComponentSweep("pca", (1, 2))
        _, _, mat_l, mat_v, messages = sweep_folds(d, sweep, 2, 0, 1.0, workers=workers)
        assert np.all(np.isnan(mat_l)) and np.all(np.isnan(mat_v))
        assert messages == [dict.fromkeys((0, 1), "learning fold too small for any component")] * 2

    def test_row_error_is_the_first_failing_fold(self):
        class Scripted:
            kind = "linear"
            grid = MetaGrid((("variant", ("a", "b")),))
            plan = iter([{1: "b0"}, {}, {0: "a2", 1: "b2"}, {}])

            def evaluate_fold(self, learn, valid, var_y):
                return np.array([1.0, 2.0]), np.array([1.0, 2.0]), next(self.plan)

            def fit(self, train, params):
                return fit_linear(train)

        train, test = _split_linear(seed=11, n=60, n_test=12)
        report, _ = cross_validate(train, test, Scripted(), 4, 5, 1.0)
        assert [r.error for r in report.rows] == ["fold 2: a2", "fold 0: b0"]

    @pytest.mark.parametrize(
        "sweep",
        [
            ComponentSweep("pca", range(1, 4)),
            PipelineSweep(RbfnSweep((2, 3), (1.0, 2.0), seed=1), "rbfn", variables=(0, 2)),
            PipelineSweep(LssvmSweep((0.5, 2.0), (1.0, 100.0)), "lssvm", whiten=True),
        ],
        ids=["pcr", "rbfn", "lssvm"],
    )
    def test_worker_count_never_changes_the_report(self, sweep):
        train, test = _split_linear(seed=11, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        r1, r2, r3 = (
            cross_validate(train, test, sweep, 4, 5, var_y, workers=w)[0] for w in (1, 2, 3)
        )
        assert r1.to_dict() == r2.to_dict() == r3.to_dict()

    def test_pool_is_never_larger_than_the_task_list(self, monkeypatch):
        sizes = []

        class InlinePool:
            """A process pool that starts no process: it runs the tasks here."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(_blas, "_POOL_TASK", None)
        train, _ = _split_linear(seed=11, n=60, n_test=12)
        sweep = ComponentSweep("pca", range(1, 4))
        pooled = sweep_folds(train, sweep, 4, 5, 1.0, workers=64)
        assert sizes == [4]
        here = sweep_folds(train, sweep, 4, 5, 1.0, workers=1)
        assert sizes == [4]
        for got, want in zip(pooled[2:4], here[2:4]):
            assert got.tobytes() == want.tobytes()
        assert pooled[4] == here[4]
        assert _blas.map_tasks(operator.add, 1, [2], 64) == [3]
        assert sizes == [4]

    def test_external_guard_is_honored(self):
        train, test = _split_linear(seed=12, n=40, n_test=8)
        var_y = pooled_target_variance(train, test)
        guard = TestSetGuard(test)
        report, _ = cross_validate(train, guard, LinearSweep(), 4, 0, var_y)
        assert guard.reads == 1 and report.test_reads == 1
        with pytest.raises(DataError):
            guard.take()

    def test_planted_training_outliers_get_trimmed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 3))
        y = x @ np.array([1.0, 2.0, -1.0]) + 0.01 * rng.normal(size=100)
        y[10] += 40.0
        y[60] -= 35.0
        xt = rng.normal(size=(20, 3))
        train = Dataset(x, y)
        test = Dataset(xt, xt @ np.array([1.0, 2.0, -1.0]))
        var_y = pooled_target_variance(train, test)
        # seed 0 places rows 10 and 60 into different validation folds
        report, _ = cross_validate(train, test, LinearSweep(), 4, 0, var_y)
        dropped = {i for fold in report.trimmed_per_fold for i in fold}
        assert {10, 60} <= dropped

    def test_trimmed_indices_lie_in_their_folds(self):
        train, test = _split_linear(seed=13, n=80, n_test=16)
        var_y = pooled_target_variance(train, test)
        report, _ = cross_validate(train, test, LinearSweep(), 4, 1, var_y)
        assert sorted(i for f in report.folds for i in f) == list(range(80))
        for fold, dropped in zip(report.folds, report.trimmed_per_fold):
            assert set(dropped) <= set(fold)

    def test_winner_fold_scores_match_canonical_refits(self):
        train, test = _split_linear(seed=15, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        sweep = RbfnSweep((2, 4), (1.0, 2.0), seed=1)
        report, _ = cross_validate(train, test, sweep, 3, 2, var_y)
        # the sweep's own matrix row for the winner agrees with the refit
        row = report.rows[report.winner_index]
        assert report.winner_fold_nmse_v == pytest.approx(row.nmse_v, rel=1e-12)
        assert report.winner_fold_nmse_l == pytest.approx(row.nmse_l, rel=1e-12)

    def test_report_round_trip(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(40, 3))
        x = np.hstack([t, t @ rng.normal(size=(3, 3))])
        y = t[:, 0] + 0.01 * rng.normal(size=40)
        train, test = Dataset(x[:30], y[:30]), Dataset(x[30:], y[30:])
        var_y = pooled_target_variance(train, test)
        sweep = ComponentSweep("pca", range(1, 7))  # rows 4..6 fail: None in the JSON
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        assert math.isnan(report.rows[-1].nmse_v[0])
        doc = report.to_dict()
        assert doc["grid"][-1]["nmse_v"][0] is None
        assert doc["grid"][-1]["error"] is not None
        text = json.dumps(doc, allow_nan=False)  # strict JSON: no NaN tokens
        assert json.loads(text) == doc

    def test_grid_csv_shape_and_failed_cells(self, monkeypatch):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(40, 3))
        x = np.hstack([t, t @ rng.normal(size=(3, 3))])
        y = t[:, 0] + 0.01 * rng.normal(size=40)
        train, test = Dataset(x[:30], y[:30]), Dataset(x[30:], y[30:])
        var_y = pooled_target_variance(train, test)
        report, _ = cross_validate(
            train, test, ComponentSweep("pca", range(1, 7)), 3, 0, var_y
        )
        (text,) = grid_csv_blocks(report)
        lines = text.strip().split("\n")
        assert lines[0] == "grid_index,params,fold,nmse_l,nmse_v"
        assert len(lines) == 1 + 6 * 3
        last = lines[-1].split(",")
        assert last[1] == "components=6" and last[3] == "" and last[4] == ""
        # Small pieces join to the one-piece text, each but the last ending a line.
        monkeypatch.setattr(evaluation, "_GRID_BLOCK_LINES", 4)
        pieces = list(grid_csv_blocks(report))
        assert len(pieces) > 2 and "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces[:-1])

    def test_report_embeds_run_parameters(self):
        train, test = _split_linear(seed=16, n=30, n_test=6)
        var_y = pooled_target_variance(train, test)
        report, _ = cross_validate(train, test, LinearSweep(), 3, 42, var_y)
        assert (report.l, report.seed) == (3, 42)
        assert report.var_y == var_y
        assert (report.n_train, report.n_test) == (30, 6)
        assert isinstance(report, CvReport)


def _grid_cells(report) -> dict:
    """{(grid index, fold): (nmse_l, nmse_v)} as the report's grid.csv text holds them."""
    lines = "".join(grid_csv_blocks(report)).splitlines()[1:]
    return {
        (int(index), int(fold)): (nl, nv)
        for index, _, fold, nl, nv in (line.split(",") for line in lines)
    }


class TestSweepCellFailures:
    """A cell whose solve fails is recorded per fold; the other cells are still scored."""

    def _check(self, report, failed: dict, message: str) -> None:
        # failed maps each failing grid index to the one fold it fails on
        cells = _grid_cells(report)
        assert len(cells) == len(report.rows) * report.l
        for (i, fold), (nl, nv) in cells.items():
            if failed.get(i) == fold:
                assert nl == nv == ""
            else:
                assert math.isfinite(float(nl)) and math.isfinite(float(nv))
        errors = {r.index: r.error for r in report.rows if r.error is not None}
        assert set(errors) == set(failed)
        for i, fold in failed.items():
            assert errors[i].startswith(f"fold {fold}: ") and message in errors[i]
        assert report.winner_index not in failed

    def test_rbfn_least_squares_failure_marks_one_cell(self, monkeypatch):
        calls = []
        solve = evaluation._lstsq_with_bias

        def flaky(phi, y):
            calls.append(phi.shape)
            if len(calls) == 2:  # fold 0, centroids=2, wsf=2.0
                raise NumericalError("planted least-squares failure")
            return solve(phi, y)

        monkeypatch.setattr(evaluation, "_lstsq_with_bias", flaky)
        train, test = _split_linear(seed=11, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        sweep = RbfnSweep((2, 3), (1.0, 2.0), seed=1)
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        self._check(report, {1: 0}, "planted least-squares failure")

    def test_lssvm_eigh_failure_marks_a_whole_sigma_row(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def flaky(a):
            calls.append(a.shape)
            if len(calls) == 4:  # fold 1, sigma=2.0
                raise np.linalg.LinAlgError("planted eigh failure")
            return eigh(a)

        monkeypatch.setattr(evaluation.np.linalg, "eigh", flaky)
        train, test = _split_linear(seed=11, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        sweep = LssvmSweep((0.5, 2.0), (1.0, 10.0, 100.0))
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        self._check(report, {3: 1, 4: 1, 5: 1}, "planted eigh failure")

    def test_lssvm_non_finite_scores_mark_one_cell(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def singular_at_gamma_10(a):
            calls.append(a.shape)
            evals, vecs = eigh(a)
            if len(calls) == 5:  # fold 2, sigma=0.5: evals + 1/gamma hits 0 at gamma=10
                evals[0] = -(1.0 / 10.0)
            return evals, vecs

        monkeypatch.setattr(evaluation.np.linalg, "eigh", singular_at_gamma_10)
        train, test = _split_linear(seed=11, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        sweep = LssvmSweep((0.5, 2.0), (1.0, 10.0, 100.0))
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        self._check(report, {1: 2}, "dual solve left non-finite scores for sigma=0.5, gamma=10.0")


def _eager_rows(train, sweep, l, seed, var_y) -> tuple:
    """The grid rows as one tuple of GridPointResult, built the way perfbench's replay does."""
    _, _, mat_l, mat_v, messages = sweep_folds(train, sweep, l, seed, var_y)
    return tuple(
        GridPointResult(
            index=i,
            params=p,
            nmse_l=tuple(float(v) for v in mat_l[i]),
            nmse_v=tuple(float(v) for v in mat_v[i]),
            error=next(
                (f"fold {f}: {messages[f][i]}" for f in range(l) if i in messages[f]), None
            ),
        )
        for i, p in enumerate(sweep.grid.points())
    )


class TestGridRows:
    def test_lazy_rows_match_eager_rows_with_failed_points(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(40, 3))
        x = np.hstack([t, t @ rng.normal(size=(3, 3))])  # rank 3: counts 4..6 fail
        y = t[:, 0] + 0.01 * rng.normal(size=40)
        train, test = Dataset(x[:30], y[:30]), Dataset(x[30:], y[30:])
        var_y = pooled_target_variance(train, test)
        sweep = ComponentSweep("pca", range(1, 7))
        report, _ = cross_validate(train, test, sweep, 3, 0, var_y)
        eager = replace(report, rows=_eager_rows(train, sweep, 3, 0, var_y))
        assert isinstance(report.rows, GridRows)
        assert sum(r.error is not None for r in report.rows) == 3
        assert math.isnan(report.rows[-1].nmse_v[0])
        # NaN != NaN, so rows are compared through their encoded form
        assert report.to_dict() == eager.to_dict()
        assert "".join(grid_csv_blocks(report)) == "".join(grid_csv_blocks(eager))
        assert len(report.rows) == len(eager.rows) == 6
        for i in range(-6, 6):
            assert encode(report.rows[i]) == encode(eager.rows[i])
        assert report.rows[-1].index == report.rows[np.int64(-1)].index == 5
        assert type(report.rows[np.int64(-1)].index) is int
        assert encode(list(report.rows)) == encode(list(eager.rows))
        with pytest.raises(IndexError):
            report.rows[6]
        with pytest.raises(IndexError):
            report.rows[-7]

    def test_report_equals_its_tuple_built_copy(self):
        train, test = _split_linear(seed=15, n=60, n_test=12)
        var_y = pooled_target_variance(train, test)
        sweep = RbfnSweep((2, 4), (1.0, 2.0), seed=1)
        report, _ = cross_validate(train, test, sweep, 3, 2, var_y)
        eager = replace(report, rows=_eager_rows(train, sweep, 3, 2, var_y))
        assert report == eager and eager == report
        assert report.rows == tuple(report.rows)

    def test_report_holds_the_score_matrices_not_a_row_per_point(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(36, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=36)
        train, test = Dataset(x[:30], y[:30]), Dataset(x[30:], y[30:])
        var_y = pooled_target_variance(train, test)
        sweep = LssvmSweep(default_sigma_values(train.X, 60), default_gamma_values(100))
        l = 3
        assert len(sweep.grid) >= 6000
        tracemalloc.start()
        try:
            report, model = cross_validate(train, test, sweep, l, 0, var_y)
            del model
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        score_bytes = 2 * len(sweep.grid) * l * 8  # mat_l and mat_v, float64
        assert len(report.rows) == len(sweep.grid)
        assert held < 2 * score_bytes + 64_000


def _sweep_fold_data(seed: int, outlier_in_learn: bool = True, outlier_in_valid: bool = True):
    """A 36/12 learn/valid split of a 3-input curve with planted outliers.

    One outlier goes in the learning rows and one in the validation rows,
    each unless its flag is off.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(48, 3))
    y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.05 * rng.normal(size=48)
    y[[r for r, on in ((5, outlier_in_learn), (40, outlier_in_valid)) if on]] += 6.0
    d = Dataset(x, y)
    return d.take_rows(np.arange(36)), d.take_rows(np.arange(36, 48))


def _same_fold_scores(got, want) -> bool:
    nl, nv, msg = got
    rl, rv, rmsg = want
    return nl.tobytes() == rl.tobytes() and nv.tobytes() == rv.tobytes() and msg == rmsg


class TestSweepsMatchCellByCellLoops:
    """The sweeps' shared per-fold work leaves every score's bits unchanged."""

    # Outliers nowhere, in the trimmed validation rows only, and also in the
    # untrimmed learning rows.
    @pytest.mark.parametrize(
        "outlier_in_learn, outlier_in_valid", [(False, False), (False, True), (True, True)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rbfn_sweep(self, seed, outlier_in_learn, outlier_in_valid):
        learn, valid = _sweep_fold_data(seed, outlier_in_learn, outlier_in_valid)
        ks = (1, 2, 5, 17, 36, 37)  # 37 centroids exceed the 36 learning rows
        ws = tuple(default_wsf_values(7))
        sweep = RbfnSweep(ks, ws, seed=3)
        got = sweep.evaluate_fold(learn, valid, 0.7)
        want = rbfn_sweep_fold(learn, valid, 0.7, ks, ws, 3)
        assert _same_fold_scores(got, want)
        failed = set(range(5 * len(ws), 6 * len(ws)))
        assert set(got[2]) == failed
        assert np.isnan(got[1][sorted(failed)]).all()
        assert np.isfinite(np.delete(got[1], sorted(failed))).all()

    @pytest.mark.parametrize(
        "outlier_in_learn, outlier_in_valid", [(False, False), (False, True), (True, True)]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_lssvm_sweep(self, seed, outlier_in_learn, outlier_in_valid):
        learn, valid = _sweep_fold_data(seed, outlier_in_learn, outlier_in_valid)
        sigmas = tuple(default_sigma_values(learn.X, 6))
        gammas = tuple(default_gamma_values(9))
        sweep = LssvmSweep(sigmas, gammas)
        got = sweep.evaluate_fold(learn, valid, 0.7)
        want = lssvm_sweep_fold(learn, valid, 0.7, sigmas, gammas)
        assert _same_fold_scores(got, want)

    def test_trimming_drops_the_planted_outlier(self):
        learn, valid = _sweep_fold_data(0)
        sweep = RbfnSweep((3,), (1.0,), seed=3)
        _, trimmed, _ = sweep.evaluate_fold(learn, valid, 1.0)
        m = fit_rbfn(learn, 3, 1.0, seed=3)
        untrimmed = np.mean((m.predict(valid.X) - valid.y) ** 2)
        assert trimmed[0] < 0.5 * untrimmed
