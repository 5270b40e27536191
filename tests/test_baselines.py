"""PCA and PLS projections."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from mivarsel.baselines import (
    Projection,
    fit_pca,
    fit_pls,
    transform,
)
from mivarsel.dataset import Dataset, fit_column_whitener
from mivarsel.models import LinearModel, PipelineModel, decode, encode, fit_linear


def _random_dataset(n=40, m=6, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m))
    y = x @ rng.normal(size=m) + 0.1 * rng.normal(size=n)
    return Dataset(x, y)


class TestPca:
    def test_rank_one_data_captured_by_first_component(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=50)
        x = np.column_stack([t, 2.0 * t]) + 1e-6 * rng.normal(size=(50, 2))
        d = Dataset(x, t)
        p = fit_pca(d, 2)
        scores = transform(p, d).X
        ratio = scores[:, 0].var() / scores.var(axis=0).sum()
        assert ratio > 0.9999

    def test_loadings_orthonormal(self):
        d = _random_dataset()
        p = fit_pca(d, 5)
        gram = p.loadings.T @ p.loadings
        assert np.allclose(gram, np.eye(5), atol=1e-8)

    def test_full_reconstruction(self):
        d = _random_dataset(n=30, m=5)
        p = fit_pca(d, 5)
        xc = d.X - p.x_mean
        scores = xc @ p.loadings
        assert np.allclose(scores @ p.loadings.T, xc, atol=1e-8)

    def test_explained_variance_non_increasing(self):
        d = _random_dataset(n=60, m=8, seed=2)
        p = fit_pca(d, 8)
        variances = transform(p, d).X.var(axis=0, ddof=1)
        assert all(variances[i + 1] <= variances[i] + 1e-12 for i in range(7))

    def test_deterministic_sign_convention(self):
        d = _random_dataset(seed=3)
        p1 = fit_pca(d, 4)
        p2 = fit_pca(d, 4)
        assert np.array_equal(p1.loadings, p2.loadings)
        for col in p1.loadings.T:
            assert col[np.argmax(np.abs(col))] > 0.0

    def test_component_count_validation(self):
        d = _random_dataset(n=10, m=5)
        with pytest.raises(ValueError):
            fit_pca(d, 0)
        with pytest.raises(ValueError):
            fit_pca(d, 6)
        tall = _random_dataset(n=4, m=10, seed=4)
        with pytest.raises(ValueError):
            fit_pca(tall, 4)  # limit is N-1 = 3


class TestPls:
    def test_one_component_direction_follows_covariance_sign(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 1))
        d_pos = Dataset(x, 2.0 * x[:, 0] + 0.01 * rng.normal(size=40))
        d_neg = Dataset(x, -2.0 * x[:, 0] + 0.01 * rng.normal(size=40))
        assert fit_pls(d_pos, 1).loadings[0, 0] > 0
        assert fit_pls(d_neg, 1).loadings[0, 0] < 0

    def test_training_scores_orthogonal(self):
        d = _random_dataset(n=50, m=7, seed=6)
        p = fit_pls(d, 5)
        scores = transform(p, d).X
        gram = scores.T @ scores
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(gram))

    def test_saturated_pls_equals_ols(self):
        d = _random_dataset(n=40, m=5, seed=7)
        p = fit_pls(d, 5)
        assert p.n_components == 5
        scores_train = transform(p, d)
        inner = fit_linear(scores_train)
        pls_pred = inner.predict(scores_train.X)
        ols_pred = fit_linear(d).predict(d.X)
        assert np.allclose(pls_pred, ols_pred, atol=1e-6)

    def test_zero_covariance_stops_early(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(30, 4))
        # A target exactly constant has no covariance with anything.
        d = Dataset(x, np.full(30, 3.0))
        p = fit_pls(d, 3)
        assert p.n_components == 0
        scores = transform(p, d)
        assert scores.X.shape == (30, 0)

    def test_constant_target_whose_mean_rounds_gives_no_component(self):
        # y - mean(y) is about 1e-17 everywhere for all-0.1 targets, not 0.
        x = np.random.default_rng(8).normal(size=(45, 5))
        y = np.full(45, 0.1)
        assert (y - y.mean()).any()
        p = fit_pls(Dataset(x, y), 5)
        assert p.n_components == 0 and p.y_center == y.mean()

    @pytest.mark.parametrize(
        "sx, sy", [(1e-7, 1.0), (1e-7, 1e-7), (1e-12, 1e-12), (1.0, 1e-12), (1e12, 1e12)]
    )
    def test_component_count_ignores_scale(self, sx, sy):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(45, 5))
        y = x[:, 0] + 0.3 * x[:, 1] ** 2
        assert fit_pls(Dataset(x, y), 5).n_components == 5
        assert fit_pls(Dataset(sx * x, sy * y), 5).n_components == 5

    def test_rank_limited_data_stops_early(self):
        rng = np.random.default_rng(9)
        t = rng.normal(size=(25, 2))
        x = np.column_stack([t[:, 0], t[:, 1], t[:, 0] + t[:, 1]])  # rank 2
        y = t[:, 0] - t[:, 1]
        p = fit_pls(Dataset(x, y), 3)
        assert p.n_components <= 2


class TestTransform:
    def test_training_scores_reproduced(self):
        d = _random_dataset(n=35, m=6, seed=10)
        for p in (fit_pca(d, 4), fit_pls(d, 4)):
            once = transform(p, d).X
            again = transform(p, d).X
            assert np.array_equal(once, again)

    def test_pls_transform_matches_deflation_scores(self):
        # The rotated loadings must reproduce the scores the deflation
        # loop actually produced, not just span the same subspace.
        d = _random_dataset(n=40, m=5, seed=11)
        xc = d.X - d.X.mean(axis=0)
        y_work = d.y - d.y.mean()
        x_work = xc.copy()
        direct = []
        for _ in range(3):
            w = x_work.T @ y_work
            w /= np.linalg.norm(w)
            t = x_work @ w
            tt = t @ t
            p_vec = x_work.T @ t / tt
            x_work = x_work - np.outer(t, p_vec)
            y_work = y_work - (y_work @ t / tt) * t
            direct.append(t)
        p = fit_pls(d, 3)
        scores = transform(p, d).X
        assert np.allclose(scores, np.column_stack(direct), atol=1e-10)

    def test_fixed_loadings_applied_to_new_rows(self):
        d = _random_dataset(n=30, m=4, seed=12)
        p = fit_pca(d, 2)
        rng = np.random.default_rng(13)
        other = Dataset(rng.normal(size=(5, 4)), rng.normal(size=5))
        scores = transform(p, other).X
        assert np.allclose(scores, (other.X - p.x_mean) @ p.loadings)

    def test_zero_vector_projects_minus_mean(self):
        d = _random_dataset(n=20, m=3, seed=14)
        p = fit_pca(d, 2)
        zero = Dataset(np.zeros((1, 3)), np.zeros(1))
        assert np.allclose(transform(p, zero).X[0], -p.x_mean @ p.loadings)

    def test_dimension_mismatch(self):
        d = _random_dataset(n=20, m=3, seed=15)
        p = fit_pca(d, 2)
        with pytest.raises(ValueError):
            transform(p, _random_dataset(n=5, m=4, seed=16))

    def test_labels_name_the_components(self):
        d = _random_dataset(n=20, m=4, seed=17)
        assert transform(fit_pca(d, 2), d).labels == ("pc1", "pc2")
        assert transform(fit_pls(d, 2), d).labels == ("lv1", "lv2")


class TestIntegration:
    def test_pcr_at_full_rank_equals_ols(self):
        d = _random_dataset(n=50, m=6, seed=18)
        p = fit_pca(d, 6)
        scores = transform(p, d)
        pcr_pred = fit_linear(scores).predict(scores.X)
        ols_pred = fit_linear(d).predict(d.X)
        assert np.allclose(pcr_pred, ols_pred, atol=1e-6)

    def test_whitened_scores_have_unit_variance(self):
        d = _random_dataset(n=45, m=5, seed=19)
        scores = transform(fit_pca(d, 3), d)
        whitened = fit_column_whitener(scores).apply(scores)
        assert np.allclose(whitened.X.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(whitened.X.std(axis=0, ddof=1), 1.0, atol=1e-10)

    def test_serialization_round_trip(self):
        d = _random_dataset(n=25, m=4, seed=21)
        # A document may carry per-column scales; they survive the round trip.
        scaled = replace(fit_pca(d, 2), x_scale=d.X.std(axis=0, ddof=1))
        for p in (fit_pca(d, 3), fit_pls(d, 2), scaled):
            inner = LinearModel(np.zeros(p.n_components), 0.0)
            doc = json.loads(json.dumps(encode(PipelineModel(model=inner, projection=p))))
            back = decode(doc).projection
            assert back.kind == p.kind
            assert np.array_equal(back.loadings, p.loadings)
            assert np.array_equal(back.x_mean, p.x_mean)
            assert (back.x_scale is None) == (p.x_scale is None)
            if p.x_scale is not None:
                assert np.array_equal(back.x_scale, p.x_scale)
            assert back.y_center == p.y_center
            probe = _random_dataset(n=6, m=4, seed=22)
            assert np.array_equal(transform(back, probe).X, transform(p, probe).X)
            scale = 1.0 if p.x_scale is None else p.x_scale
            want = ((probe.X - p.x_mean) / scale) @ p.loadings
            assert np.allclose(transform(back, probe).X, want, rtol=1e-12, atol=1e-12)

    def test_projection_validation(self):
        with pytest.raises(ValueError):
            Projection("magic", np.zeros((3, 1)), np.zeros(3), None, None, 1)
        with pytest.raises(ValueError):
            Projection("pca", np.zeros((3, 2)), np.zeros(3), None, None, 1)
