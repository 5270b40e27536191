"""k-NN mutual information estimator against independent references."""

from __future__ import annotations

import math
import pickle
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mivarsel import mi
from mivarsel.dataset import Dataset
from mivarsel.errors import NumericalError
from mivarsel.mi import (
    MiEstimate,
    MiSession,
    block_rows,
    digamma_table,
    estimate_mi,
    window_half_width,
)
from oracles import (
    NeighborhoodStats,
    digamma,
    full_matrix_mi,
    gaussian_mi,
    knn_stats,
    naive_mi,
    naive_neighborhood,
    neighborhood_arrays,
    sq_diffs,
    x_sq_dists,
)

mpmath.mp.dps = 30


# Small continuous dataset with hand-checkable neighborhoods.
X8 = np.array([0.1, 0.35, 0.60, 0.85, 1.10, 1.40, 1.75, 2.10])
Y8 = np.array([0.30, 0.10, 0.55, 0.95, 0.80, 1.45, 1.30, 2.05])
# naive_mi(X8, Y8, k=2) with mpmath digamma, frozen:
MI_8PT_K2 = 0.6241071428571425


def _correlated_gaussian(n: int, rho: float, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * rng.normal(size=n)
    return Dataset(x[:, None], y)


class TestDigamma:
    def test_known_values(self):
        euler_gamma = 0.5772156649015328606
        assert digamma(1.0) == pytest.approx(-euler_gamma, abs=1e-12)
        assert digamma(2.0) == pytest.approx(1.0 - euler_gamma, abs=1e-12)
        assert digamma(0.5) == pytest.approx(-euler_gamma - 2.0 * math.log(2.0), abs=1e-12)

    def test_matches_mpmath_across_scales(self):
        points = np.concatenate([
            np.logspace(-3, 5, 60),
            np.linspace(0.1, 30.0, 50),
        ])
        for t in points:
            assert digamma(float(t)) == pytest.approx(
                float(mpmath.digamma(t)), abs=1e-10
            )

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    def test_recurrence(self, t):
        assert digamma(t + 1.0) == pytest.approx(digamma(t) + 1.0 / t, abs=1e-10)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                digamma(bad)

    def test_integer_table_matches_scalar_and_mpmath(self):
        table = digamma_table(50)
        assert math.isnan(table[0])
        for m in range(1, 51):
            assert table[m] == pytest.approx(float(mpmath.digamma(m)), abs=1e-12)
            assert table[m] == pytest.approx(digamma(float(m)), abs=1e-12)

    def test_table_needs_positive_length(self):
        with pytest.raises(ValueError):
            digamma_table(0)


class TestKnnStats:
    def test_two_point_worked_example(self):
        # Points (0,0) and (1,1): the only neighbor is at joint distance
        # max(1, 1) = 1, and no sample is strictly inside that radius.
        stats = knn_stats(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0, 1)
        assert stats == NeighborhoodStats(eps=1.0, n_x=0, n_y=0)

    def test_eight_point_frozen_neighborhoods(self):
        assert knn_stats(X8, Y8, 0, 2) == NeighborhoodStats(eps=0.5, n_x=1, n_y=2)
        stats3 = knn_stats(X8, Y8, 3, 2)
        assert stats3.n_x == 2 and stats3.n_y == 2
        assert stats3.eps == pytest.approx(0.4, rel=1e-12)

    def test_strict_inequality_excludes_boundary_ties(self):
        # Equal spacing puts samples 0 and 2 exactly on sample 1's radius
        # in the y direction; strict comparison must exclude them.
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 10.0, 20.0, 30.0])
        stats = knn_stats(x, y, 1, 1)
        assert stats.eps == 10.0
        assert stats.n_y == 0
        assert stats.n_x == 3  # every x-distance is well inside the radius

    def test_bit_identical_to_naive_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(5, 40))
            dims = int(rng.integers(1, 4))
            x = rng.normal(size=(n, dims))
            y = rng.normal(size=n)
            k = int(rng.integers(1, min(6, n - 1) + 1))
            for i in range(n):
                eps_o, nx_o, ny_o = naive_neighborhood(x, y, i, k)
                stats = knn_stats(x, y, i, k)
                assert stats.eps == eps_o
                assert stats.n_x == nx_o
                assert stats.n_y == ny_o

    def test_argument_validation(self):
        x = np.zeros((4, 1))
        y = np.zeros(4)
        with pytest.raises(ValueError):
            knn_stats(x, y, 0, 0)
        with pytest.raises(ValueError):
            knn_stats(x, y, 0, 4)
        with pytest.raises(ValueError):
            knn_stats(x, y, 5, 1)
        with pytest.raises(ValueError):
            knn_stats(np.zeros((3, 1)), y, 0, 1)

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            NeighborhoodStats(eps=-1.0, n_x=0, n_y=0)
        with pytest.raises(ValueError):
            NeighborhoodStats(eps=0.0, n_x=-1, n_y=0)


class TestEstimateMi:
    def test_eight_point_frozen_value(self):
        d = Dataset(X8[:, None], Y8)
        est = estimate_mi(d, [0], k=2)
        assert est.value == pytest.approx(MI_8PT_K2, abs=1e-12)
        assert est.k == 2 and est.n_samples == 8

    def test_matches_naive_formula_transcription(self):
        rng = np.random.default_rng(5)
        for n, dims, k in ((30, 1, 3), (50, 2, 6), (80, 3, 4)):
            x = rng.normal(size=(n, dims))
            y = x[:, 0] + 0.5 * rng.normal(size=n)
            d = Dataset(x, y)
            ours = estimate_mi(d, list(range(dims)), k=k).value
            ref = naive_mi(x, y, k)
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_vectorized_path_bit_identical_to_per_sample_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(200, 2))
        y = x[:, 0] * x[:, 1] + rng.normal(size=200)
        k = 6
        dx2 = x_sq_dists([x[:, 0], x[:, 1]])
        eps2, n_x, n_y = neighborhood_arrays(dx2, sq_diffs(y), k)
        for i in range(200):
            eps_o, nx_o, ny_o = naive_neighborhood(x, y, i, k)
            assert math.sqrt(eps2[i]) == eps_o
            assert n_x[i] == nx_o
            assert n_y[i] == ny_o

    def test_gaussian_benchmark(self):
        d = _correlated_gaussian(1000, 0.9, seed=7)
        est = estimate_mi(d, [0], k=6)
        assert est.value == pytest.approx(gaussian_mi(0.9), abs=0.06)

    def test_independent_variables_near_zero(self):
        d = _correlated_gaussian(1000, 0.0, seed=3)
        assert abs(estimate_mi(d, [0], k=6).value) < 0.05

    def test_negative_estimates_are_not_clamped(self):
        # Independent data; this seed is known to land slightly below zero.
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(300, 1)), rng.normal(size=300))
        assert estimate_mi(d, [0], k=6).value < 0.0

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(250, 3))
        y = x[:, 0] + rng.normal(size=250)
        d = Dataset(x, y)
        base = estimate_mi(d, [0, 2], k=6).value
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(250)
            shuffled = Dataset(x[perm], y[perm])
            assert estimate_mi(shuffled, [0, 2], k=6).value == base

    def test_monotone_transform_drift_is_small(self):
        d = _correlated_gaussian(2000, 0.9, seed=7)
        x = d.X[:, 0]
        base = estimate_mi(d, [0], k=6).value
        for transform in (np.exp, lambda v: 1.0 / (1.0 + np.exp(-v))):
            warped = Dataset(transform(x)[:, None], d.y)
            drift = abs(estimate_mi(warped, [0], k=6).value - base)
            assert drift < 0.05

    def test_subset_order_is_irrelevant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        y = x[:, 1] - x[:, 3] + 0.2 * rng.normal(size=120)
        d = Dataset(x, y)
        assert estimate_mi(d, [3, 1], k=5).value == estimate_mi(d, [1, 3], k=5).value

    def test_argument_validation(self):
        d = Dataset(np.random.default_rng(0).normal(size=(10, 2)), np.arange(10.0))
        with pytest.raises(ValueError):
            estimate_mi(d, [], k=3)
        with pytest.raises(ValueError):
            estimate_mi(d, [0, 0], k=3)
        with pytest.raises(ValueError):
            estimate_mi(d, [2], k=3)
        with pytest.raises(ValueError):
            estimate_mi(d, [0], k=0)
        with pytest.raises(ValueError):
            estimate_mi(d, [0], k=10)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            MiEstimate(value=float("nan"), k=3, n_samples=10)
        with pytest.raises(ValueError):
            MiEstimate(value=0.5, k=10, n_samples=10)


class TestVariableIndices:
    """A variable index is an integer: floats and bools are rejected, never truncated."""

    @staticmethod
    def _data() -> Dataset:
        rng = np.random.default_rng(40)
        x = rng.normal(size=(40, 4))
        return Dataset(x, x[:, 1] + 0.3 * rng.normal(size=40))

    @pytest.mark.parametrize(
        "subset", [(1.9,), (True,), (0, 1.0), (np.float64(2.0),), (np.True_,), (0, False)]
    )
    def test_non_integer_indices_raise(self, subset):
        d = self._data()
        with pytest.raises(TypeError, match="variable index"):
            estimate_mi(d, subset)
        with pytest.raises(TypeError, match="variable index"):
            MiSession(d.X, d.y).mi(subset)

    def test_numpy_integers_are_indices(self):
        d = self._data()
        session = MiSession(d.X, d.y)
        expected = estimate_mi(d, (1, 3)).value
        assert estimate_mi(d, (np.int64(1), np.uint8(3))).value == expected
        assert session.mi(np.array([3, 1], dtype=np.int32)) == expected


def _quantized_dataset(seed: int = 3) -> Dataset:
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=120) * 2.0) / 2.0
    y = np.round(x + 0.3 * rng.normal(size=120), 1)
    return Dataset(x[:, None], y)


class TestTieBreakingJitter:
    def test_duplicates_are_handled_deterministically(self):
        d = _quantized_dataset()
        a = estimate_mi(d, [0], k=4, jitter_seed=0).value
        b = estimate_mi(d, [0], k=4, jitter_seed=0).value
        assert math.isfinite(a)
        assert a == b

    def test_jitter_seed_matters_only_with_ties(self):
        tied = _quantized_dataset()
        assert (
            estimate_mi(tied, [0], k=4, jitter_seed=0).value
            != estimate_mi(tied, [0], k=4, jitter_seed=1).value
        )
        smooth = _correlated_gaussian(200, 0.5, seed=1)
        assert (
            estimate_mi(smooth, [0], k=4, jitter_seed=0).value
            == estimate_mi(smooth, [0], k=4, jitter_seed=99).value
        )

    def test_duplicate_columns_give_identical_mi(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(150, 2))
        x = np.hstack([base, base[:, :1]])  # column 2 duplicates column 0
        y = base[:, 0] + 0.3 * rng.normal(size=150)
        d = Dataset(x, y)
        assert estimate_mi(d, [0], k=5).value == estimate_mi(d, [2], k=5).value
        assert estimate_mi(d, [0, 1], k=5).value == estimate_mi(d, [1, 2], k=5).value

    def test_duplicate_columns_identical_even_when_jitter_engages(self):
        tied = _quantized_dataset()
        x = np.hstack([tied.X, tied.X])
        d = Dataset(x, tied.y)
        assert estimate_mi(d, [0], k=4).value == estimate_mi(d, [1], k=4).value


class TestMiSession:
    def test_bit_identical_to_standalone(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(250, 3))
        y = rng.normal(size=250) + x[:, 0]
        d = Dataset(x, y)
        session = MiSession(x, y, k=6)
        for subset in ([0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2], [2, 0]):
            assert session.mi(subset) == estimate_mi(d, subset, k=6).value

    def test_validation(self):
        with pytest.raises(ValueError):
            MiSession(np.zeros((5, 1)), np.zeros(5), k=5)
        with pytest.raises(ValueError):
            MiSession(np.zeros(5), np.zeros(5), k=2)
        session = MiSession(np.random.default_rng(0).normal(size=(20, 2)), np.zeros(20), k=2)
        with pytest.raises(ValueError):
            session.mi([5])

    @pytest.mark.parametrize("subset", [(), (1, 0), (0, 0), (0, 2), (-1, 0)])
    def test_evaluate_rejects_malformed_subsets(self, subset):
        session = MiSession(np.random.default_rng(0).normal(size=(20, 2)), np.arange(20.0), k=2)
        with pytest.raises(ValueError, match="ascending"):
            session.evaluate([(0,), subset])

    def test_permuted_and_repeated_orders_bit_equal_to_estimate_mi(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(150, 5))
        y = x[:, 1] - x[:, 3] ** 2 + 0.2 * rng.normal(size=150)
        d = Dataset(x, y)
        session = MiSession(x, y, k=5)
        for subset in ((3, 1, 4), (1, 3, 4), (4, 3, 1), (0,), (2, 0), (0, 2), (3, 1, 4)):
            expected = estimate_mi(d, subset, k=5).value
            assert session.mi(subset) == expected
            assert session.mi(sorted(subset, reverse=True)) == expected

    def test_traced_peak_independent_of_variable_count(self):
        n, m = 300, 40
        rng = np.random.default_rng(2)
        x = rng.normal(size=(n, m))
        y = x[:, 0] + x[:, 1] ** 2 + 0.1 * rng.normal(size=n)
        pairs = [tuple(p) for p in rng.choice(m, size=(20, 2), replace=False)]
        tracemalloc.start()
        try:
            session = MiSession(x, y, k=6)
            for j in range(m):
                session.mi((j,))
            for pair in pairs:
                session.mi(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 4 * session.block * n * 8  # numpy buffers are traced
        assert peak <= 5 * n * n * 8


def _blocked_case(n: int, kind: str, m: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Continuous data, or integer data whose duplicate joint points take the jitter path."""
    rng = np.random.default_rng(n)
    if kind == "continuous":
        x = rng.normal(size=(n, m))
        return x, x[:, 0] + x[:, 1] ** 2 + 0.3 * rng.normal(size=n)
    x = rng.integers(0, 3, size=(n, m)).astype(float)
    return x, x[:, 0] + x[:, 2] + rng.integers(0, 2, size=n)


def _one_columns_match_whole_matrices(x: np.ndarray, y: np.ndarray, seed: int = 0) -> None:
    """Every one-column subset, evaluated together as a ranking does, at k = 1 and 6."""
    columns = [(j,) for j in range(x.shape[1])]
    for k in (1, 6):
        values = MiSession(x, y, k=k, jitter_seed=seed).values(columns)
        assert values == [full_matrix_mi(x[:, c], y, k, seed) for c in columns], k


class TestRowBlocks:
    """MiSession in blocks of rows against the whole-matrix estimator."""

    def test_block_rule(self):
        assert [block_rows(n) for n in (2, 90, 172, 181)] == [2, 90, 172, 181]
        for n, rows in ((182, 180), (255, 128), (361, 90), (1000, 32), (3000, 10), (40000, 1)):
            assert block_rows(n) == rows
        assert MiSession(np.zeros((361, 1)), np.arange(361.0)).block == 90

    @pytest.mark.parametrize(
        "n, elements",
        [(182, None), (255, None), (361, None), (1000, None), (256, 10**6), (600, 10**6)],
        ids=["182", "255", "361", "1000", "256-one-block", "600-one-block"],
    )
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_bit_identical_to_whole_matrices(self, monkeypatch, n, elements, kind):
        # 182 = 180 + 2 rows, 255 = 128 + 127, 361 = 4 x 90 + 1, 1000 = 31 x 32 + 8.
        # 256 and 600 are forced into one block, whose column counts need
        # more than 8 bits: column 3's two clusters, 1e-3 wide, give some
        # samples over 255 X-neighbours at N = 600.
        x, y = _blocked_case(n, kind)
        if elements:
            monkeypatch.setattr(mi, "_BLOCK_ELEMENTS", elements)
            rng = np.random.default_rng(n + 1)
            x[:, 3] = rng.integers(0, 2, size=n) + 1e-3 * rng.normal(size=n)
        if kind == "tied":
            eps2, _, _ = neighborhood_arrays(sq_diffs(x[:, 0]), sq_diffs(y), 6)
            assert (eps2 == 0.0).any()  # the jitter path is exercised
        session = MiSession(x, y, k=6)
        assert (session.block == n) if elements else (session.block < n)
        for subset in ((0,), (3,), (0, 1), (1, 3), (0, 2, 3), (0, 1, 2, 3)):
            assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 6)
        _one_columns_match_whole_matrices(x, y)

    @pytest.mark.parametrize("elements", [1, 150, 420, 1000])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, elements):
        monkeypatch.setattr(mi, "_BLOCK_ELEMENTS", elements)
        for kind in ("continuous", "tied"):
            x, y = _blocked_case(60, kind)
            session = MiSession(x, y, k=4, jitter_seed=3)
            assert session.block == max(1, elements // 60)
            for subset in ((1,), (0, 2), (0, 1, 3)):
                assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 4, 3)

    @pytest.mark.parametrize("elements", [7, 10**6])
    def test_duplicates_the_jitter_cannot_separate(self, monkeypatch, elements):
        # Jitter of 1e-10 of the range vanishes next to an offset of 1e9,
        # so some eps^2 stay 0 and those samples have no self hit to discount.
        monkeypatch.setattr(mi, "_BLOCK_ELEMENTS", elements)
        rng = np.random.default_rng(6)
        x = 1e9 + rng.integers(0, 3, size=(60, 2)).astype(float)
        y = 1e9 + rng.integers(0, 2, size=60).astype(float)
        session = MiSession(x, y, k=4)
        for subset in ((0,), (0, 1)):
            value = session.mi(subset)
            assert math.isfinite(value)
            assert value == full_matrix_mi(x[:, subset], y, 4)

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_pickled_copy_carries_no_buffers_or_memo(self, kind):
        x, y = _blocked_case(361, kind)
        session = MiSession(x, y, k=6, jitter_seed=3)
        subsets = [(0,), (0, 1), (1, 3), (0, 1, 2, 3)]
        expected = session.values(subsets)
        assert session._buffers and session._values
        blob = pickle.dumps(session)
        # The columns, the target, _order and the digamma table, and no B x N buffer.
        assert len(blob) < x.nbytes + 3 * y.nbytes + 4096
        copy = pickle.loads(blob)
        assert (copy._buffers, copy._values) == ({}, {})
        assert np.array_equal(copy._order, session._order)
        assert [v.hex() for v in copy.values(subsets)] == [v.hex() for v in expected]
        assert session._buffers and session._values

    def test_sq_diffs_into_a_buffer_holds_one_ufunc_buffer(self):
        """The block's squared differences have the full matrix's bits, and
        a call into a preallocated buffer allocates no more than numpy's
        one ufunc buffer, since its one broadcast operand is a column."""
        y = np.random.default_rng(8).normal(size=300) * 1e3
        out = np.empty((90, 300))
        assert mi._sq_diffs(y[90:180], y, out).tobytes() == sq_diffs(y)[90:180].tobytes()
        out = np.empty((300, 300))
        tracemalloc.start()
        try:
            mi._sq_diffs(y, y, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= np.getbufsize() * 8 + 4096

    def test_traced_peak_is_a_few_blocks_at_n3000(self):
        # One N x N float64 matrix would be 72 MB here.
        n, m = 3000, 6
        x, y = _blocked_case(n, "continuous", m)
        tracemalloc.start()
        try:
            session = MiSession(x, y, k=6)
            for j in range(m):
                session.mi((j,))
            for pair in ((0, 1), (2, 5), (3, 4)):
                session.mi(pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = session.block * n * 8
        assert peak > 4 * block  # numpy buffers are traced
        assert peak <= 8 * block + x.nbytes


# Target and column values whose squared differences tie, vanish or span the float range.
_AWKWARD = [-0.0, 0.0, 1e-300, -2.5, 0.1, 0.3, 1 / 3, 7.0, 1e8, -1e-8]


def _count_fallbacks(monkeypatch) -> dict:
    """Count the rows MiSession redoes on their full rows, and the rows it evaluates."""
    seen = {"rows": 0, "fell_back": 0}
    count_rows, full_rows = MiSession._count_rows, MiSession._full_rows

    def counted_rows(self, dx2, *args, **kwargs):
        seen["rows"] += dx2.shape[0]
        return count_rows(self, dx2, *args, **kwargs)

    def counted_full(self, dx2, start, failed, *args):
        seen["fell_back"] += len(failed)
        return full_rows(self, dx2, start, failed, *args)

    monkeypatch.setattr(MiSession, "_count_rows", counted_rows)
    monkeypatch.setattr(MiSession, "_full_rows", counted_full)
    return seen


class TestTargetWindows:
    """eps^2 and n_y from a window of target-sorted columns, with a full-row fallback."""

    def test_window_rule(self):
        assert [window_half_width(n) for n in (2, 172, 182, 1000, 3000)] == [1, 22, 23, 125, 375]
        assert MiSession(np.zeros((1000, 1)), np.arange(1000.0)).window == 125

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_AWKWARD), min_size=1, max_size=30,
        ).flatmap(lambda ys: st.tuples(
            st.just(ys), st.integers(0, len(ys) - 1), st.sampled_from(ys + [0.0, 1e-17, 4.0])
        ))
    )
    def test_target_distances_are_monotone_along_sorted_order(self, case):
        # fl((y_i - y_j)^2) never decreases as j moves away from i in
        # target-sorted order, so each sample's "closer than e" set is one
        # contiguous run holding the sample, and no sample outside a window
        # is nearer than the two just outside it.
        values, i, e = case
        y = np.array(values)[np.argsort(values, kind="stable")]
        row = sq_diffs(y)[i]
        assert (np.diff(row[: i + 1]) <= 0).all() and (np.diff(row[i:]) >= 0).all()
        inside = np.flatnonzero(row < e * e)
        assert inside.size == 0 or inside.size == inside[-1] - inside[0] + 1
        assert inside.size == 0 or inside[0] <= i <= inside[-1]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 30).flatmap(lambda n: st.tuples(
            st.lists(
                st.lists(st.sampled_from(_AWKWARD), min_size=n, max_size=n), min_size=1, max_size=3
            ),
            st.lists(st.integers(0, n - 1), min_size=1, max_size=6),
            st.lists(
                st.one_of(
                    st.integers(0, n - 1),
                    st.sampled_from([0.0, 1e-300, 1e-17, 0.1, 4.0, 1e16, math.inf]),
                ),
                min_size=6, max_size=6,
            ),
        ))
    )
    def test_sorted_search_counts_equal_full_row_counts(self, case):
        # The bounds are the awkward values, or a squared distance in the row
        # itself, as eps^2 is: then samples sit exactly on the bound.
        columns, picks, bounds = case
        columns = np.array(columns)
        rows = columns[:, picks]
        eps2 = np.empty(rows.shape)
        expected = np.empty(rows.shape, dtype=int)
        for g, column in enumerate(columns):
            full = sq_diffs(column)[picks]
            for r, bound in enumerate(bounds[: len(picks)]):
                eps2[g, r] = full[r, bound] if isinstance(bound, int) else bound
            expected[g] = np.less(full, eps2[g][:, None]).sum(axis=1)
        groups = np.repeat(np.arange(len(columns)), len(picks))
        ordered = np.sort(columns, axis=1)
        got = mi._sorted_counts(ordered, groups, rows.reshape(-1), eps2.reshape(-1))
        assert got.tolist() == expected.reshape(-1).tolist()

    def test_one_column_subsets_take_n_x_from_the_sorted_column(self, monkeypatch):
        # Every row of a one-column subset is searched, unless the next subset
        # reuses its column's distances: (0,) before (0, 1) keeps its full rows.
        searched = []
        sorted_counts = mi._sorted_counts

        def counted(ordered, groups, rows, eps2):
            searched.append(rows.size)
            return sorted_counts(ordered, groups, rows, eps2)

        monkeypatch.setattr(mi, "_sorted_counts", counted)
        n = 1000
        x, y = _blocked_case(n, "continuous")
        subsets = [(0,), (0, 1), (1,), (2, 3), (3,)]
        expected = [full_matrix_mi(x[:, s], y, 6) for s in subsets]
        assert MiSession(x, y, k=6).evaluate(subsets).tolist() == expected
        assert sum(searched) == 2 * n
        # The chunk's highest column in a one-column subset only: none of its full rows are made.
        session = MiSession(x, y, k=6)
        assert session.evaluate([(0, 1), (3,)]).tolist() == [expected[1], expected[4]]
        assert "highest" not in session._buffers
        # At N = 255 (blocks of 128 rows) nine one-column subsets are searched
        # a few at a time, each search holding fewer than N + 128 rows.
        searched.clear()
        x, y = _blocked_case(255, "tied", m=9)
        _one_columns_match_whole_matrices(x, y)
        assert 2 * 128 <= max(searched) < 255 + 128

    @pytest.mark.parametrize("n", [182, 255, 361, 1000])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    @pytest.mark.parametrize("share", [0.0, 0.01])
    def test_narrow_windows_fall_back_to_the_same_bits(self, monkeypatch, n, kind, share):
        # Share 0 makes each window its own block, so many rows fall back;
        # 0.01 puts a window edge inside the neighbouring blocks, or widens
        # a window too narrow for k to the whole row.
        monkeypatch.setattr(mi, "_WINDOW_SHARE", share)
        seen = _count_fallbacks(monkeypatch)
        x, y = _blocked_case(n, kind)
        session = MiSession(x, y, k=6)
        assert session.window < session.block < n
        for subset in ((0,), (1, 3), (0, 1, 2, 3)):
            assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 6)
        assert seen["fell_back"] < seen["rows"]
        if share == 0.0:
            assert seen["fell_back"] > 0
        _one_columns_match_whole_matrices(x, y, seed=n)

    def test_default_window_serves_most_rows(self, monkeypatch):
        seen = _count_fallbacks(monkeypatch)
        x, y = _blocked_case(1000, "continuous")
        session = MiSession(x, y, k=6)
        for subset in ((0,), (1,), (0, 1), (0, 1, 2, 3)):
            assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 6)
        assert 0 < seen["fell_back"] < seen["rows"] // 2

    def test_one_block_never_falls_back(self, monkeypatch):
        seen = _count_fallbacks(monkeypatch)
        x, y = _blocked_case(181, "tied")
        session = MiSession(x, y, k=6)
        assert session.block == 181 and session._window(0, 181) == (0, 181)
        for subset in ((0,), (0, 2), (0, 1, 2, 3)):
            assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 6)
        assert seen["rows"] > 0 and seen["fell_back"] == 0

    def test_window_narrower_than_k_is_the_whole_row(self, monkeypatch):
        # 60 samples in blocks of 2 with no window would leave fewer than
        # k candidates, so those blocks search their whole rows.
        monkeypatch.setattr(mi, "_BLOCK_ELEMENTS", 120)
        monkeypatch.setattr(mi, "_WINDOW_SHARE", 0.0)
        seen = _count_fallbacks(monkeypatch)
        for kind in ("continuous", "tied"):
            x, y = _blocked_case(60, kind)
            session = MiSession(x, y, k=4, jitter_seed=3)
            assert (session.block, session.window) == (2, 0)
            assert session._window(10, 12) == (0, 60)
            for subset in ((1,), (0, 2), (0, 1, 3)):
                assert session.mi(subset) == full_matrix_mi(x[:, subset], y, 4, 3)
        assert seen["fell_back"] == 0

    def test_caller_sample_order_changes_no_bit(self):
        x, y = _blocked_case(361, "tied")
        perm = np.random.default_rng(8).permutation(361)
        a, b = MiSession(x, y, k=6, jitter_seed=1), MiSession(x[perm], y[perm], k=6, jitter_seed=1)
        for subset in ((0,), (2,), (0, 3)):
            assert a.mi(subset) == full_matrix_mi(x[:, subset], y, 6, 1)
            # Without jitter the value is invariant; with it, the noise
            # follows the caller's order, as full_matrix_mi's does.
            assert b.mi(subset) == full_matrix_mi(x[perm][:, subset], y[perm], 6, 1)


class TestDistanceScale:
    """Squared distances that leave the normal float64 range are a NumericalError."""

    @staticmethod
    def _scaled(scale: float, target_scale: float = 1.0) -> Dataset:
        rng = np.random.default_rng(30)
        x = rng.normal(size=(120, 30))
        y = x[:, 0] + x[:, 1] * x[:, 2] + 0.3 * rng.normal(size=120)
        x[:, :3] *= scale
        return Dataset(x, y * target_scale)

    def test_unit_scale_is_estimated(self):
        d = self._scaled(1.0)
        value = estimate_mi(d, (0, 1, 2)).value
        assert value > 0.3
        assert MiSession(d.X, d.y).mi((0, 1, 2)) == value

    @pytest.mark.parametrize("scale, problem", [(1e160, "overflow"), (1e-170, "underflow")])
    def test_extreme_variable_scales_raise(self, scale, problem):
        d = self._scaled(scale)
        with pytest.raises(NumericalError, match=problem):
            estimate_mi(d, (0, 1, 2))
        session = MiSession(d.X, d.y)
        with pytest.raises(NumericalError, match=problem):
            session.mi((0, 1, 2))
        with pytest.raises(NumericalError, match=problem):
            session.mi((2,))
        assert session.mi((3, 4)) == estimate_mi(d, (3, 4)).value  # other columns still work

    def test_sum_of_squared_ranges_overflowing_raises(self):
        # Each column alone is fine; together their squared distances overflow.
        d = self._scaled(1.0)
        x = d.X.copy()
        x[:, :3] = (x[:, :3] - x[:, :3].min(axis=0)) / np.ptp(x[:, :3], axis=0) * 1e154
        d = Dataset(x, d.y)
        assert math.isfinite(estimate_mi(d, (0,)).value)
        with pytest.raises(NumericalError, match="overflow"):
            estimate_mi(d, (0, 1, 2))

    @pytest.mark.parametrize("scale, problem", [(1e160, "overflow"), (1e-170, "underflow")])
    def test_extreme_target_scales_raise(self, scale, problem):
        d = self._scaled(1.0, target_scale=scale)
        with pytest.raises(NumericalError, match=problem):
            MiSession(d.X, d.y)
        with pytest.raises(NumericalError, match=problem):
            estimate_mi(d, (0,))

    def test_constant_columns_are_not_underflow(self):
        d = self._scaled(1.0)
        x = d.X.copy()
        x[:, 5] = 7.0
        assert math.isfinite(estimate_mi(Dataset(x, d.y), (5, 6)).value)
