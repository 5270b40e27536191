"""Selection procedures: ranking, greedy search, pooling, exhaustive argmax."""

from __future__ import annotations

import functools
import itertools
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import fields
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import mivarsel
from mivarsel import mi, selector
from mivarsel.dataset import Dataset, normalize_spectra
from mivarsel.errors import ConfigError, DataError
from mivarsel.mi import MiEstimate, MiSession, block_rows, estimate_mi
from mivarsel.models import encode
from mivarsel.selector import (
    SelectionResult,
    SelectionTrace,
    TraceStep,
    VariableSubset,
    _best,
    build_candidate_pool,
    exhaustive_search,
    greedy_select,
    individual_mis,
    rank_by_individual_mi,
    select_variables,
)
from oracles import best_subset_by_enumeration, full_matrix_mi, neighborhood_arrays, sq_diffs


def _additive_dataset(n=300, decoys=4, noise=0.05, seed=1) -> Dataset:
    """Y = X0 + X1 + noise, remaining variables pure decoys."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2 + decoys))
    y = x[:, 0] + x[:, 1] + noise * rng.normal(size=n)
    return Dataset(x, y)


def _xor_dataset(n=500, seed=0) -> Dataset:
    """Y depends on X0*X1 only; each variable alone is uninformative."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = np.sign(x[:, 0] * x[:, 1]) + 0.1 * rng.normal(size=n)
    return Dataset(x, y)


class TestVariableSubset:
    def test_valid_construction(self):
        s = VariableSubset((3, 1, 2), "greedy")
        assert len(s) == 3
        assert 1 in s
        assert list(s) == [3, 1, 2]
        assert s.sorted_indices() == (1, 2, 3)

    def test_rejects_duplicates_and_negatives(self):
        with pytest.raises(ValueError):
            VariableSubset((1, 1))
        with pytest.raises(ValueError):
            VariableSubset((-1,))

    def test_rejects_unknown_provenance(self):
        with pytest.raises(ValueError):
            VariableSubset((0,), "magic")

    @pytest.mark.parametrize("indices", [(1.5,), (True,), (0, np.float64(2.0)), (np.True_,)])
    def test_rejects_non_integer_indices(self, indices):
        with pytest.raises(TypeError, match="variable index"):
            VariableSubset(indices)
        with pytest.raises(TypeError, match="variable index"):
            TraceStep("forward", 0, indices, 0.5, "added")

    def test_numpy_integers_become_ints(self):
        s = VariableSubset((np.int64(3), np.uint16(1)))
        assert s.indices == (3, 1)
        assert all(type(j) is int for j in s.indices)
        step = TraceStep("forward", 1, (np.int32(0), np.int64(1)), 0.5, "added")
        assert step.subset == (0, 1) and all(type(j) is int for j in step.subset)


class TestRanking:
    def test_dominant_variable_ranked_first(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(250, 8))
        y = x[:, 0] + 0.01 * rng.normal(size=250)
        ranking = rank_by_individual_mi(Dataset(x, y), k=6)
        assert ranking.indices[0] == 0
        assert ranking.provenance == "ranking"

    def test_duplicate_column_adjacent_by_index_tiebreak(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(200, 3))
        x = np.column_stack([base, base[:, 0]])  # column 3 duplicates column 0
        y = base[:, 0] + 0.1 * rng.normal(size=200)
        ranking = rank_by_individual_mi(Dataset(x, y), k=6)
        pos0 = ranking.indices.index(0)
        assert ranking.indices[pos0 + 1] == 3
        values = individual_mis(Dataset(x, y), k=6)
        assert values[0] == values[3]

    def test_full_count_is_a_permutation(self):
        d = _additive_dataset(n=120, decoys=3)
        ranking = rank_by_individual_mi(d, count=d.n_variables, k=5)
        assert sorted(ranking.indices) == list(range(d.n_variables))

    def test_count_validation(self):
        d = _additive_dataset(n=60, decoys=1)
        with pytest.raises(ValueError):
            rank_by_individual_mi(d, count=0, k=4)
        with pytest.raises(ValueError):
            rank_by_individual_mi(d, count=d.n_variables + 1, k=4)


def _session(d: Dataset, k: int) -> MiSession:
    return MiSession(d.X, d.y, k=k)


def _forward_best(session: MiSession, current: tuple[int, ...]):
    """_best over greedy_select's forward candidates: every variable not in ``current``."""
    free = [j for j in range(session.n_variables) if j not in current]
    return _best(session, free, [current + (j,) for j in free])


def _backward_best(session: MiSession, current: tuple[int, ...], protected: int):
    """_best over greedy_select's backward candidates: ``current`` but ``protected``, ascending."""
    older = sorted(j for j in current if j != protected)
    return _best(session, older, [tuple(c for c in current if c != j) for j in older])


class TestForwardStep:
    """greedy_select's forward step: the addition with the highest joint MI."""

    def test_empty_current_matches_ranking_top(self):
        d = _additive_dataset()
        top = rank_by_individual_mi(d, count=1, k=6).indices[0]
        j, value = _forward_best(_session(d, 6), ())
        assert j == top
        assert value == estimate_mi(d, [top], k=6).value

    def test_xor_partner_is_found(self):
        d = _xor_dataset()
        j, value = _forward_best(_session(d, 6), (0,))
        assert j == 1
        assert value > estimate_mi(d, [0], k=6).value

    def test_matches_direct_candidate_sweep(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 4))
        y = x[:, 2] - 0.5 * x[:, 1] + 0.2 * rng.normal(size=30)
        d = Dataset(x, y)
        current = (2,)
        j, value = _forward_best(_session(d, 4), current)
        sweep = {
            j: estimate_mi(d, current + (j,), k=4).value
            for j in range(4)
            if j not in current
        }
        best = max(sorted(sweep), key=lambda j: sweep[j])
        assert j == best
        assert value == sweep[best]

    def test_none_when_exhausted(self):
        session = _session(_xor_dataset(n=60), 4)
        assert _forward_best(session, (0, 1)) is None
        assert _best(session, [], []) is None


class TestBackwardStep:
    """greedy_select's backward step: the removal with the highest joint MI.

    The walk removes it only when that MI is strictly above the current one.
    """

    def test_duplicate_column_removed_with_index_tiebreak(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(200, 2))
        x = np.column_stack([base[:, 0], base[:, 1], base[:, 0]])
        y = base[:, 0] + base[:, 1] + 0.1 * rng.normal(size=200)
        session = _session(Dataset(x, y), 6)
        # Removing either duplicate (0 or 2) raises MI identically; the
        # tie must resolve to the lower column index.
        removed, value = _backward_best(session, (0, 2, 1), protected=1)
        assert removed == 0
        assert value == session.mi((2, 1)) == session.mi((0, 1))
        assert value > session.mi((0, 2, 1))

    def test_jointly_necessary_pair_is_kept(self):
        session = _session(_xor_dataset(), 6)
        removed, value = _backward_best(session, (0, 1), protected=1)
        assert removed == 0
        assert not value > session.mi((0, 1))

    def test_two_variable_boundary_collapses_to_protected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 2))
        y = x[:, 1] + 0.05 * rng.normal(size=300)
        session = _session(Dataset(x, y), 6)
        removed, value = _backward_best(session, (0, 1), protected=1)
        assert removed == 0
        assert value > session.mi((0, 1))

    def test_never_removes_protected(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(150, 3))
        y = x[:, 0] + 0.05 * rng.normal(size=150)
        session = _session(Dataset(x, y), 6)
        # Variable 2 is a decoy, yet protected: only 0 or 1 may go.
        removed, _ = _backward_best(session, (0, 1, 2), protected=2)
        assert removed in (0, 1)
        assert _backward_best(session, (2,), protected=2) is None


def _proxy_dataset(seed: int) -> Dataset:
    """Column 0 is a noisy copy of y = x1 + x2, column 3 a decoy.

    The proxy enters first; once both x's are in, it only adds noise, and
    the backward step drops it.
    """
    rng = np.random.default_rng(seed)
    x1, x2 = rng.uniform(size=150), rng.uniform(size=150)
    y = x1 + x2
    proxy = y + 0.15 * rng.normal(size=150)
    return Dataset(np.column_stack([proxy, x1, x2, rng.uniform(size=150)]), y)


class TestGreedySelect:
    def test_recovers_additive_signal_pair(self):
        d = _additive_dataset()
        subset, trace = greedy_select(d, k=6)
        assert set(subset.indices) == {0, 1}
        assert trace.steps[-1].kind == "stop"
        assert trace.steps[-1].decision == "stopped"

    def test_recovers_xor_pair(self):
        d = _xor_dataset()
        subset, _ = greedy_select(d, k=6)
        assert set(subset.indices) == {0, 1}

    def test_trace_mi_values_are_exact_estimates(self):
        d = _additive_dataset(n=200, decoys=3, seed=8)
        subset, trace = greedy_select(d, k=6)
        for step in trace.steps:
            assert step.mi == estimate_mi(d, step.subset, k=6).value
        final_mi = estimate_mi(d, subset.indices, k=6).value
        accepted = [s.mi for s in trace.steps if s.decision in ("added", "removed")]
        assert final_mi == accepted[-1]

    def test_accepted_mi_is_running_maximum(self):
        d = _additive_dataset(n=250, decoys=5, seed=12)
        subset, trace = greedy_select(d, k=6)
        state_values = [s.mi for s in trace.steps if s.decision in ("added", "removed")]
        assert state_values == sorted(state_values)
        rejected = [s.mi for s in trace.steps if s.kind == "stop"]
        if rejected:
            assert rejected[0] < state_values[-1]

    def test_single_variable_dataset(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 1))
        d = Dataset(x, x[:, 0] + 0.1 * rng.normal(size=80))
        subset, trace = greedy_select(d, k=4)
        assert subset.indices == (0,)
        assert [s.kind for s in trace.steps] == ["forward"]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("iterate_backward", [False, True])
    def test_backward_step_removes_a_proxy(self, seed, iterate_backward):
        d = _proxy_dataset(seed)
        subset, trace = greedy_select(d, k=6, iterate_backward=iterate_backward)
        first, second = trace.steps[1].candidate, trace.steps[3].candidate
        expected = [
            ("forward", 0, (0,), "added"),
            ("forward", first, (0, first), "added"),
            ("backward", None, (0, first), "kept"),
            ("forward", second, (0, first, second), "added"),
            ("backward", 0, (first, second), "removed"),
        ]
        if iterate_backward:
            expected.append(("backward", None, (first, second), "kept"))
        expected.append(("stop", 0, (first, second, 0), "stopped"))
        assert {first, second} == {1, 2}
        assert [(s.kind, s.candidate, s.subset, s.decision) for s in trace.steps] == expected
        assert subset.indices == (first, second)
        for step in trace.steps:
            assert step.mi == estimate_mi(d, step.subset, k=6).value

    def test_each_step_hands_values_its_candidates_in_column_order(self):
        # One batch per step: the forward candidates are the free columns,
        # the backward ones the state's older columns, both ascending.
        d = _proxy_dataset(0)
        session = _session(d, 6)
        batches, values = [], session.values
        session.values = lambda subsets: batches.append(list(subsets)) or values(subsets)
        _, trace = greedy_select(d, k=6, iterate_backward=True, session=session)
        state, expected = (), []
        for step in trace.steps:
            if step.kind == "backward":
                expected.append([tuple(c for c in state if c != j) for j in sorted(state[:-1])])
            else:
                expected.append([state + (j,) for j in range(d.n_variables) if j not in state])
            if step.decision in ("added", "removed"):
                state = step.subset
        assert "removed" in [s.decision for s in trace.steps]
        assert batches == expected

    def test_iterate_backward_flag_runs(self):
        d = _additive_dataset(n=150, decoys=2, seed=3)
        once, _ = greedy_select(d, k=5, iterate_backward=False)
        multi, _ = greedy_select(d, k=5, iterate_backward=True)
        assert estimate_mi(d, multi.indices, k=5).value >= estimate_mi(
            d, once.indices, k=5
        ).value - 1e-12


class TestCandidatePool:
    def test_selected_subset_of_ranking_top(self):
        ranking = VariableSubset((4, 2, 7, 1, 0, 3), "ranking")
        selected = VariableSubset((2, 4), "greedy")
        pool = build_candidate_pool(ranking, selected, 4)
        assert pool.indices == (2, 4, 7, 1)
        assert pool.provenance == "pooled"

    def test_disjoint_sets_interleave(self):
        ranking = VariableSubset((9, 8, 7, 6), "ranking")
        selected = VariableSubset((0, 1), "greedy")
        pool = build_candidate_pool(ranking, selected, 4)
        assert pool.indices == (0, 1, 9, 8)

    def test_pool_equal_to_selected(self):
        selected = VariableSubset((5, 3), "greedy")
        ranking = VariableSubset((3, 5, 1), "ranking")
        pool = build_candidate_pool(ranking, selected, 2)
        assert pool.indices == (5, 3)

    def test_errors(self):
        ranking = VariableSubset((0, 1), "ranking")
        with pytest.raises(ValueError):
            build_candidate_pool(ranking, VariableSubset((0, 1, 2)), 2)
        with pytest.raises(ValueError):
            build_candidate_pool(ranking, VariableSubset((0,)), 5)
        with pytest.raises(ValueError):
            build_candidate_pool((0, 1, 2), (1, 1), 3)  # a repeated selected index

    def test_non_integer_indices_raise(self):
        with pytest.raises(TypeError, match="variable index"):
            build_candidate_pool((0, 1.5, 2), (3,), 3)
        with pytest.raises(TypeError, match="variable index"):
            build_candidate_pool((0, 1, 2), (True,), 3)
        pool = build_candidate_pool(np.array([4, 2, 7]), (np.int64(2),), 2)
        assert pool.indices == (2, 4)


class TestExhaustiveSearch:
    def test_matches_enumeration_oracle_p3(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 3))
        y = x[:, 0] + 0.5 * x[:, 1] ** 2 + 0.1 * rng.normal(size=120)
        d = Dataset(x, y)
        session = MiSession(d.X, d.y, k=5)
        expected_subset, expected_mi = best_subset_by_enumeration(session, [0, 1, 2])
        winner, est = exhaustive_search(d, (0, 1, 2), k=5)
        assert winner.sorted_indices() == expected_subset
        assert est.value == expected_mi
        assert winner.provenance == "exhaustive"

    def test_winner_beats_both_seeds_of_the_pool(self):
        d = _additive_dataset(n=200, decoys=4, seed=10)
        session = MiSession(d.X, d.y, k=6)
        ranking = rank_by_individual_mi(d, k=6, session=session)
        greedy, _ = greedy_select(d, k=6, session=session)
        pool = build_candidate_pool(ranking, greedy, min(6, d.n_variables))
        winner, est = exhaustive_search(d, pool, k=6)
        assert est.value >= session.mi(greedy.indices)
        top_a = ranking.indices[: len(greedy)]
        assert est.value >= session.mi(top_a)

    def test_exact_tie_prefers_lexicographically_smaller(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=200)
        x = np.column_stack([base, base])  # identical columns
        y = base + 0.2 * rng.normal(size=200)
        d = Dataset(x, y)
        winner, _ = exhaustive_search(d, (0, 1), k=6)
        session = MiSession(d.X, d.y, k=6)
        if session.mi((0,)) >= session.mi((0, 1)):
            # Singletons tie exactly; index 0 must win.
            assert winner.indices == (0,)

    def test_identical_across_worker_counts(self):
        d = _additive_dataset(n=150, decoys=6, seed=2)
        candidates = tuple(range(8))
        results = [
            exhaustive_search(d, candidates, k=5, workers=w) for w in (1, 2, 4)
        ]
        for subset, est in results[1:]:
            assert subset.indices == results[0][0].indices
            assert est.value == results[0][1].value

    def test_pool_size_guard(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(40, 25)), rng.normal(size=40))
        with pytest.raises(ValueError, match="pool size"):
            exhaustive_search(d, tuple(range(21)), k=4)

    def test_validation(self):
        d = _xor_dataset(n=50)
        with pytest.raises(ValueError):
            exhaustive_search(d, (), k=4)
        with pytest.raises(ValueError):
            exhaustive_search(d, (0, 0), k=4)
        with pytest.raises(ValueError):
            exhaustive_search(d, (0, 5), k=4)

    @pytest.mark.parametrize("candidates", [(0, 1.7), (0, True), (np.float64(0.0), 2)])
    def test_non_integer_index_rejected_before_the_search(self, monkeypatch, candidates):
        d = _additive_dataset(n=120, decoys=4, seed=3)

        def no_walk(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(selector, "MiSession", no_walk)
        with pytest.raises(TypeError, match="variable index"):
            exhaustive_search(d, candidates, k=6)

    def test_numpy_integer_candidates_are_searched(self):
        d = _additive_dataset(n=120, decoys=4, seed=3)
        plain = exhaustive_search(d, (0, 1, 4), k=6)
        numpy = exhaustive_search(d, np.array([4, 0, 1]), k=6)
        assert numpy[0].indices == plain[0].indices
        assert numpy[1].value == plain[1].value

    def test_negative_index_rejected_before_the_search(self, monkeypatch):
        # -5 would wrap round to column 1, which the winner would hold.
        d = _additive_dataset(n=120, decoys=4, seed=3)

        def no_walk(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(selector, "MiSession", no_walk)
        with pytest.raises(ValueError, match="index -5 out of range"):
            exhaustive_search(d, (0, -5), k=6)

    def test_negative_index_outside_the_winner_still_rejected(self):
        # -1 would wrap round to a decoy column the winner {0, 1} leaves out.
        d = _additive_dataset(n=120, decoys=4, seed=3)
        winner, _ = exhaustive_search(d, (0, 1, 5), k=6)
        assert winner.indices == (0, 1)
        with pytest.raises(ValueError, match="index -1 out of range"):
            exhaustive_search(d, (0, 1, -1), k=6)


def _integer_dataset(n=90, p=6, seed=21) -> Dataset:
    """Integer-valued data with repeated joint points: forces the jitter path."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, size=(n, p)).astype(float)
    y = x[:, 0] + x[:, 2] + rng.integers(0, 2, size=n)
    return Dataset(x, y)


class TestSubsetWalk:
    """The incremental kernel behind exhaustive_search."""

    @staticmethod
    def _walk(d, p, lo=1, hi=None, k=5):
        session = MiSession(np.ascontiguousarray(d.X[:, :p]), d.y, k=k, jitter_seed=0)
        return list(selector._walk(session, range(p), lo, (1 << p) if hi is None else hi))

    @pytest.mark.parametrize("p", [1, 2, 3, 6])
    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_every_subset_bit_equal_to_estimate_mi(self, p, kind):
        d = _additive_dataset(n=90, decoys=4, seed=3) if kind == "continuous" else _integer_dataset()
        if kind == "integer":
            eps2, _, _ = neighborhood_arrays(sq_diffs(d.X[:, 0]), sq_diffs(d.y), 5)
            assert (eps2 == 0.0).any()  # the jitter path is exercised
        visited = self._walk(d, p)
        expected_order = sorted(
            c for size in range(1, p + 1) for c in itertools.combinations(range(p), size)
        )
        assert [positions for _, positions in visited] == expected_order
        for value, positions in visited:
            assert value == estimate_mi(d, positions, k=5).value

    def test_contiguous_ranges_reproduce_the_full_pass(self):
        d = _additive_dataset(n=80, decoys=4, seed=7)
        p = 6
        total = 1 << p
        full = self._walk(d, p)
        rng = np.random.default_rng(0)
        for _ in range(5):
            cuts = sorted(set(rng.integers(2, total, size=rng.integers(1, 8)).tolist()))
            bounds = list(zip([1] + cuts, cuts + [total]))
            pieces = [self._walk(d, p, lo, hi) for lo, hi in bounds]
            assert [item for piece in pieces for item in piece] == full
            winners = [reduce(selector._better, piece) for piece in pieces]
            assert reduce(selector._better, winners) == reduce(selector._better, full)

    def test_workers_one_two_three_agree(self):
        d = _integer_dataset(n=70, p=7, seed=5)
        results = [exhaustive_search(d, range(7), k=4, workers=w) for w in (1, 2, 3)]
        for subset, est in results[1:]:
            assert subset.indices == results[0][0].indices
            assert est.value == results[0][1].value

    def test_spawned_workers_agree_with_one_worker(self):
        # Forked workers inherit the session and the folds; spawned ones unpickle copies.
        src = str(Path(mivarsel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = textwrap.dedent(
            """
            import multiprocessing, sys
            multiprocessing.set_start_method("spawn")
            sys.path.insert(0, sys.argv[1])
            from test_selector import _integer_dataset
            from mivarsel.dataset import Dataset
            from mivarsel.evaluation import RbfnSweep, cross_validate, pooled_target_variance
            from mivarsel.selector import exhaustive_search, select_variables

            d = _integer_dataset(n=70, p=7, seed=5)
            # The winner of (1, 3), (1,) alone, has duplicate joint points.
            for pool in (range(7), (1, 3)):
                one, two = (exhaustive_search(d, pool, k=4, workers=w) for w in (1, 2))
                assert one == two and one[1].value.hex() == two[1].value.hex(), (one, two)
            one, two = (select_variables(d, k=4, pool_size=6, workers=w) for w in (1, 2))
            assert one == two and one.best_mi.value.hex() == two.best_mi.value.hex(), (one, two)
            # The CV folds go through the same pool helper, on spawned workers too.
            train, test = Dataset(d.X[:56], d.y[:56]), Dataset(d.X[56:], d.y[56:])
            var_y = pooled_target_variance(train, test)
            sweep = RbfnSweep((2, 3), (1.0, 2.0), seed=1)
            one, two = (
                cross_validate(train, test, sweep, 4, 0, var_y, workers=w)[0].to_dict()
                for w in (1, 2)
            )
            assert one == two, (one, two)
            print(multiprocessing.get_start_method())
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "spawn"

    def test_traced_peak_within_buffer_budget(self):
        n, p = 300, 8
        rng = np.random.default_rng(1)
        x = rng.normal(size=(n, p))
        d = Dataset(x, x[:, 0] + x[:, 1] ** 2 + 0.1 * rng.normal(size=n))
        tracemalloc.start()
        try:
            exhaustive_search(d, range(p), k=6, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > (p + 1) * block_rows(n) * n * 8  # numpy buffers are traced
        assert peak <= (p + 4) * n * n * 8

    def test_traced_peak_within_budget_on_jittered_data(self):
        n, p = 300, 8
        d = _integer_dataset(n=n, p=p, seed=9)
        eps2, _, _ = neighborhood_arrays(sq_diffs(d.X[:, 0]), sq_diffs(d.y), 6)
        assert (eps2 == 0.0).any()  # the jitter path is exercised
        tracemalloc.start()
        try:
            exhaustive_search(d, range(p), k=6, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > (p + 1) * block_rows(n) * n * 8
        # The whole-matrix walk's budget, P + 3 1/8 matrices and a jitter buffer, still holds.
        assert peak <= (p + 5) * n * n * 8


def _blocked_dataset(n: int, kind: str, p: int = 5) -> Dataset:
    """Continuous data, or integer data whose duplicate joint points take the jitter path."""
    if kind == "tied":
        return _integer_dataset(n=n, p=p, seed=n)
    return _additive_dataset(n=n, decoys=p - 2, noise=0.3, seed=n)


class TestBlockedWalk:
    """The walk in blocks of rows and chunks of subsets against the whole-matrix estimator."""

    @staticmethod
    def _expected(d: Dataset, p: int, k: int) -> list:
        return [
            (full_matrix_mi(d.X[:, list(c)], d.y, k), c)
            for c in sorted(
                c for size in range(1, p + 1) for c in itertools.combinations(range(p), size)
            )
        ]

    @pytest.mark.parametrize("n", [182, 255, 361])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_every_subset_bit_equal_to_whole_matrices(self, n, kind):
        d = _blocked_dataset(n, kind)
        if kind == "tied":
            eps2, _, _ = neighborhood_arrays(sq_diffs(d.X[:, 0]), sq_diffs(d.y), 5)
            assert (eps2 == 0.0).any()  # the jitter path is exercised
        session = MiSession(np.ascontiguousarray(d.X), d.y, k=5, jitter_seed=0)
        assert session.block < n
        assert list(selector._walk(session, range(5), 1, 1 << 5)) == self._expected(d, 5, 5)

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_small_blocks_and_chunks_across_range_cuts(self, monkeypatch, kind):
        # 70 rows in blocks of 3 (the last holds 1), chunks of 6 subsets.
        monkeypatch.setattr(mi, "_BLOCK_ELEMENTS", 210)
        monkeypatch.setattr(mi, "_CHUNK_BLOCKS", 2)
        d = _blocked_dataset(70, kind, p=6)
        expected = self._expected(d, 6, 4)
        session = MiSession(np.ascontiguousarray(d.X), d.y, k=4, jitter_seed=0)
        assert (session.block, session.chunk) == (3, 6)
        columns = range(session.n_variables)
        assert list(selector._walk(session, columns, 1, 64)) == expected
        for lo, hi in ((1, 5), (5, 6), (6, 19), (19, 40), (40, 64)):
            assert list(selector._walk(session, columns, lo, hi)) == expected[lo - 1 : hi - 1]

    @pytest.mark.parametrize("n", [255, 1000])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_search_at_one_two_three_workers(self, n, kind):
        d = _blocked_dataset(n, kind, p=4)
        best_mi, best = reduce(selector._better, self._expected(d, 4, 6))
        for workers in (1, 2, 3):
            subset, est = exhaustive_search(d, range(4), k=6, workers=workers)
            assert subset.indices == best
            assert est.value == best_mi

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_traced_peak_is_a_few_blocks_at_n3000(self, kind):
        # One N x N float64 matrix would be 72 MB here.
        n, p = 3000, 4
        d = _blocked_dataset(n, kind, p=p)
        tracemalloc.start()
        try:
            exhaustive_search(d, range(p), k=6, workers=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = block_rows(n) * n * 8
        assert peak > (p + 1) * block  # numpy buffers are traced
        # P + 6 1/8 buffers with no "sum" buffer (see MiSession) and the jitter path's copies.
        assert peak <= (p + 10) * block + d.X.nbytes


class TestWindowedWalk:
    """The walk with narrow target windows, where many rows fall back to their full rows."""

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _expected(n: int, kind: str) -> list:
        return TestBlockedWalk._expected(_blocked_dataset(n, kind, p=4), 4, 6)

    @pytest.mark.parametrize("n", [182, 255, 361, 1000])
    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    @pytest.mark.parametrize("share", [0.0, 0.01])
    def test_every_subset_bit_equal_to_whole_matrices(self, monkeypatch, n, kind, share):
        monkeypatch.setattr(mi, "_WINDOW_SHARE", share)
        fell_back = []
        full_rows = MiSession._full_rows

        def counted(self, dx2, start, failed, *args):
            fell_back.append(len(failed))
            return full_rows(self, dx2, start, failed, *args)

        monkeypatch.setattr(MiSession, "_full_rows", counted)
        d = _blocked_dataset(n, kind, p=4)
        session = MiSession(np.ascontiguousarray(d.X), d.y, k=6, jitter_seed=0)
        assert session.window < session.block < n
        walked = selector._walk(session, range(session.n_variables), 1, 1 << 4)
        assert list(walked) == self._expected(n, kind)
        if share == 0.0:
            assert fell_back

    @pytest.mark.parametrize("kind", ["continuous", "tied"])
    def test_search_at_one_two_three_workers(self, monkeypatch, kind):
        monkeypatch.setattr(mi, "_WINDOW_SHARE", 0.01)
        best_mi, best = reduce(selector._better, self._expected(1000, kind))
        d = _blocked_dataset(1000, kind, p=4)
        for workers in (1, 2, 3):
            subset, est = exhaustive_search(d, range(4), k=6, workers=workers)
            assert subset.indices == best
            assert est.value == best_mi


def _select_variables_without_memo(monkeypatch, d, **kwargs):
    """select_variables with every MiSession.values batch recomputed from scratch."""
    inner = MiSession.values

    def fresh(self, subsets):
        self._values.clear()
        return inner(self, subsets)

    with monkeypatch.context() as patch:
        patch.setattr(MiSession, "values", fresh)
        return select_variables(d, **kwargs)


class TestSelectionPipeline:
    def test_individual_mis_computed_once(self, monkeypatch):
        calls = []
        inner = selector.individual_mis

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(selector, "individual_mis", counted)
        d = _additive_dataset(n=120, decoys=3, seed=4)
        result = select_variables(d, k=5, pool_size=4)
        assert len(calls) == 1
        assert result.ranking == rank_by_individual_mi(d, k=5)
        direct = individual_mis(d, k=5)
        assert result.ranking_mis == tuple(float(direct[j]) for j in result.ranking.indices)

    def test_each_distinct_subset_estimated_once(self, monkeypatch):
        d = _additive_dataset(n=120, decoys=28, seed=4)
        pool_size = 5
        unmemoised = _select_variables_without_memo(monkeypatch, d, k=5, pool_size=pool_size)
        requested, estimated, searched = [], [], []
        sessions = set()
        inner_mi, inner_values, inner_evaluate = MiSession.mi, MiSession.values, MiSession.evaluate
        batching = []

        def mi(self, subset):
            requested.append(tuple(sorted(subset)))
            return inner_mi(self, subset)

        def values(self, subsets):
            batching.append(True)
            try:
                return inner_values(self, subsets)
            finally:
                batching.pop()

        def evaluate(self, subsets):
            sessions.add(self)
            (estimated if batching else searched).extend(subsets)
            return inner_evaluate(self, subsets)

        monkeypatch.setattr(MiSession, "mi", mi)
        monkeypatch.setattr(MiSession, "values", values)
        monkeypatch.setattr(MiSession, "evaluate", evaluate)
        result = select_variables(d, k=5, pool_size=pool_size)
        assert result == unmemoised
        # Ranking, greedy and the search all evaluate in the dataset's session.
        assert len(sessions) == 1 and sessions.pop().n_variables == d.n_variables
        assert len(set(requested)) < len(requested)  # greedy repeats subsets
        assert len(estimated) == len(set(requested))
        # The search estimates each of the pool's subsets once, in chunks.
        assert len(searched) == len(set(searched)) == (1 << len(result.pool)) - 1
        assert set().union(*searched) == set(result.pool.indices)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_session_per_selection_and_per_search(self, monkeypatch, workers):
        # Counted in this process: forked search workers count in their own copies.
        built = []
        inner = MiSession.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            inner(self, *args, **kwargs)

        monkeypatch.setattr(MiSession, "__init__", counted)
        d = _additive_dataset(n=120, decoys=6, seed=4)
        result = select_variables(d, k=5, pool_size=5, workers=workers)
        assert len(built) == 1
        exhaustive_search(d, result.pool, k=5, workers=workers)
        assert len(built) == 2

    def test_constant_target_is_data_error(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(40, 5)), np.full(40, 2.5))
        with pytest.raises(DataError, match="constant"):
            select_variables(d, k=4, pool_size=3)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda d: estimate_mi(d, (0, 2)),
            lambda d: individual_mis(d),
            lambda d: exhaustive_search(d, (0, 1, 2)),
            lambda d: MiSession(d.X, d.y).evaluate([(0,), (0, 1)]),
        ],
        ids=["estimate_mi", "individual_mis", "exhaustive_search", "evaluate"],
    )
    def test_every_estimate_of_a_constant_target_is_data_error(self, entry):
        # All-0.1 targets: a variance test would see 1e-33 from the rounding of the mean.
        d = Dataset(np.random.default_rng(1).normal(size=(40, 3)), np.full(40, 0.1))
        with pytest.raises(DataError, match="constant"):
            entry(d)

    @staticmethod
    def _wide_signal_dataset() -> Dataset:
        rng = np.random.default_rng(8)
        x = rng.normal(size=(200, 6))
        y = x[:, 0] + x[:, 1] + x[:, 2] + 0.05 * rng.normal(size=200)
        return Dataset(x, y)

    def test_pool_grows_to_a_larger_greedy_subset(self):
        d = self._wide_signal_dataset()
        greedy, _ = greedy_select(d, k=6)
        assert len(greedy) == 3
        grown = select_variables(d, k=6, pool_size=2)
        assert grown.pool.indices == greedy.indices
        assert grown == select_variables(d, k=6, pool_size=3)

    def test_greedy_beyond_the_largest_pool_is_config_error(self, monkeypatch):
        monkeypatch.setattr(selector, "MAX_POOL_SIZE", 2)
        with pytest.raises(ConfigError, match="3 variables.*pool size 2"):
            select_variables(self._wide_signal_dataset(), k=6, pool_size=2)

    def test_full_pipeline_recovers_signals(self):
        d = _additive_dataset(n=250, decoys=6, seed=11)
        result = select_variables(d, k=6, pool_size=6)
        assert {0, 1} <= set(result.best.indices)
        assert len(result.pool) == 6
        assert set(result.greedy.indices) <= set(result.pool.indices)
        assert set(result.best.indices) <= set(result.pool.indices)

    def test_ranking_mis_aligned_and_descending(self):
        d = _additive_dataset(n=150, decoys=3, seed=4)
        result = select_variables(d, k=5, pool_size=5)
        values = list(result.ranking_mis)
        assert values == sorted(values, reverse=True)
        direct = individual_mis(d, k=5)
        for j, v in zip(result.ranking.indices, values):
            assert v == direct[j]

    def test_search_peak_excludes_the_ranking_session(self):
        # The search works in the ranking/greedy session's buffers; it builds none of its own.
        n, p = 300, 6
        d = _additive_dataset(n=n, decoys=18, seed=3)
        tracemalloc.start()
        try:
            result = select_variables(d, k=6, pool_size=p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.pool) == p
        assert peak <= (p + 4) * n * n * 8

    def test_result_serializes(self):
        d = _additive_dataset(n=100, decoys=2, seed=5)
        d = Dataset(d.X, d.y, tuple(f"w{j}" for j in range(d.n_variables)))
        result = select_variables(d, k=4, pool_size=4)
        doc = result.to_dict()
        assert doc["best"]["indices"] == list(result.best.indices)
        assert doc["best"]["labels"] == [f"w{j}" for j in result.best.indices]
        assert len(doc["trace"]["steps"]) == len(result.trace.steps)

    def test_headerless_normalized_labels_name_the_row_statistics(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(100, 4)) + 3.0 * rng.normal(size=(100, 1))  # rows shifted apart
        d = normalize_spectra(Dataset(x, x.mean(axis=1) + 0.05 * rng.normal(size=100)))
        doc = select_variables(d, k=4, pool_size=4).to_dict()
        for key in ("ranking", "greedy", "pool", "best"):
            assert doc[key]["labels"] == [d.labels[j] for j in doc[key]["indices"]]
            assert not {"x4", "x5"} & set(doc[key]["labels"])
        assert {"row_mean", "row_std"} <= set(doc["ranking"]["labels"])

    def test_labels_are_not_a_field(self):
        # A result rebuilt from its fields alone, as perfbench's replay builds one, is equal.
        d = _additive_dataset(n=100, decoys=2, seed=5)
        result = select_variables(d, k=4, pool_size=4)
        bare = SelectionResult(**{f.name: getattr(result, f.name) for f in fields(result)})
        assert result.labels == d.labels and bare.labels is None
        assert bare == result and hash(bare) == hash(result)
        assert encode(bare) == encode(result)


class TestTraceSerialization:
    def test_round_trip_preserves_floats_exactly(self):
        d = _additive_dataset(n=120, decoys=2, seed=6)
        _, trace = greedy_select(d, k=5)
        doc = encode(trace)
        back = json.loads(json.dumps(doc, indent=2))  # as trace.json is written
        assert back == doc
        assert [s["mi"] for s in back["steps"]] == [s.mi for s in trace.steps]

    def test_subset_to_dict(self):
        s = VariableSubset((2, 0), "exhaustive")
        result = SelectionResult(
            ranking=VariableSubset((0, 1, 2)),
            ranking_mis=(0.3, 0.2, 0.1),
            greedy=VariableSubset((0,), "greedy"),
            pool=VariableSubset((0, 1, 2), "pooled"),
            best=s,
            best_mi=MiEstimate(0.4, 1, 10),
            trace=SelectionTrace(()),
            labels=("a", "b", "c"),
        )
        assert encode(s) == {"indices": [2, 0], "provenance": "exhaustive"}
        doc = result.to_dict()["best"]
        assert doc == {
            "indices": [2, 0],
            "provenance": "exhaustive",
            "labels": ["c", "a"],
        }
