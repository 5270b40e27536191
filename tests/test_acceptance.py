"""Acceptance gate: eleven numbered end-to-end checks, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion. The two spectrometric-data criteria (06, 07) and
the juice criterion (08) need the benchmark CSV files; they skip with
an explanation when the files are absent (point MIVARSEL_DATA_DIR at a
directory holding them, or run ``mivarsel fetch-data`` on a machine
with network access). Criterion 11 checks the same ordering offline, on
the benchmark's synthetic spectra; it stands in for 06-08 and does not
replace them.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mivarsel.dataset import Dataset, load_csv
from mivarsel.errors import DataError
from mivarsel.evaluation import (
    LssvmSweep,
    TestSetGuard,
    cross_validate,
    kfold_split,
    median_pairwise_distance,
    pooled_target_variance,
)
from mivarsel.methods import ExperimentConfig, MethodResult, reproduce
from mivarsel.mi import MiSession, estimate_mi
from mivarsel.models import fit_lssvm, _kernel_from_sq, sq_dists
from mivarsel.selector import (
    exhaustive_search,
    greedy_select,
    individual_mis,
    select_variables,
)
from oracles import (
    best_subset_by_enumeration,
    gaussian_mi,
    kkt_residual,
    knn_stats,
    naive_neighborhood,
)


def _detail(n: int, message: str) -> None:
    print(f"[criterion {n:02d}] {message}")


# ---------------------------------------------------------------------------
# 1. Estimator accuracy on correlated Gaussians


def test_01_mi_accuracy_on_correlated_gaussians():
    """Mean estimate over 20 seeds within 0.05 nats of the closed form."""
    t0 = time.monotonic()
    n, k, seeds = 2000, 6, 20
    worst = 0.0
    for rho in (0.3, 0.6, 0.9):
        want = gaussian_mi(rho)
        values = []
        for seed in range(seeds):
            rng = np.random.default_rng(10_000 + seed)
            x = rng.standard_normal(n)
            y = rho * x + math.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
            values.append(estimate_mi(Dataset(x[:, None], y), (0,), k=k).value)
        err = abs(float(np.mean(values)) - want)
        worst = max(worst, err)
        assert err <= 0.05, f"rho={rho}: mean {np.mean(values):.4f} vs {want:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    _detail(1, f"PASS worst |mean - exact| = {worst:.4f} nats in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Null behavior under independence


def test_02_mi_null_under_independence():
    n, k, seeds = 2000, 6, 20
    values = []
    for seed in range(seeds):
        rng = np.random.default_rng(20_000 + seed)
        x = rng.uniform(size=n)
        y = rng.uniform(size=n)
        values.append(estimate_mi(Dataset(x[:, None], y), (0,), k=k).value)
    mean = float(np.mean(values))
    assert abs(mean) < 0.03, f"mean {mean:.4f}"
    assert max(abs(v) for v in values) < 0.1
    _detail(2, f"PASS mean {mean:+.4f}, max |value| {max(abs(v) for v in values):.4f}")


# ---------------------------------------------------------------------------
# 3. Neighborhood statistics equal brute force, bit for bit


def test_03_neighborhood_stats_match_brute_force_bitwise():
    t0 = time.monotonic()
    for case in range(100):
        rng = np.random.default_rng(30_000 + case)
        n = int(rng.integers(30, 301))
        dims = int(rng.integers(1, 11))
        x = rng.normal(size=(n, dims))
        y = rng.normal(size=n) + x[:, 0]
        i = int(rng.integers(0, n))
        k = int(rng.integers(1, min(9, n)))
        got = knn_stats(x, y, i, k)
        eps, n_x, n_y = naive_neighborhood(x, y, i, k)
        assert got.eps == eps  # identical floats, not approximately equal
        assert got.n_x == n_x and got.n_y == n_y
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    _detail(3, f"PASS 100 instances bit-identical in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. Selector recovers planted structure


def test_04_selector_recovers_planted_signals():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(40_000 + seed)
        x = rng.normal(size=(500, 24))  # 4 signal variables, 20 decoys
        y = x[:, 0] + x[:, 1] ** 2 + 0.1 * x[:, 2] * x[:, 3] + 0.1 * rng.normal(size=500)
        result = select_variables(Dataset(x, y), k=6, pool_size=6, jitter_seed=0)
        hits += {0, 1} <= set(result.best.indices)
    assert hits >= 18, f"additive recovery {hits}/20"

    # A pair informative only jointly: single-variable scores are blind
    # to it, the greedy joint-MI walk assembles it.
    xor_hits = 0
    max_single = 0.0
    for seed in range(20):
        rng = np.random.default_rng(41_000 + seed)
        x = rng.normal(size=(500, 2))
        y = np.sign(x[:, 0] * x[:, 1]) + 0.1 * rng.normal(size=500)
        d = Dataset(x, y)
        singles = individual_mis(d, k=6)
        max_single = max(max_single, float(np.max(np.abs(singles))))
        subset, _ = greedy_select(d, k=6, jitter_seed=0)
        pair_mi = estimate_mi(d, (0, 1), k=6).value
        if subset.sorted_indices() == (0, 1) and pair_mi > 0.3:
            xor_hits += 1
    assert xor_hits >= 18, f"pair recovery {xor_hits}/20"
    assert max_single < 0.1  # no single variable carries the signal
    _detail(4, f"PASS additive {hits}/20, joint-only pair {xor_hits}/20")


# ---------------------------------------------------------------------------
# 5. LS-SVM dual optimality


def test_05_lssvm_dual_optimality():
    """max_i |lambda_i - gamma (y_i - yhat_i)| < 1e-6 ||y||_inf on every fit.

    The battery covers kernel widths from a fifth of the data scale to
    far beyond it, and regularization weights over nine decades. For
    gamma >= 1e4 the dual coefficients are kept representable by
    building the target inside the kernel's span: once |lambda| grows
    to ~1e5 at gamma ~ 1e6, no float64 coefficient vector can satisfy
    the bound (rounding lambda alone injects gamma * eps * n * |lambda|
    of residual), so such fits cannot be certified at this tolerance in
    double precision.
    """
    fits = 0
    worst = 0.0

    for ds_seed, (n, mv) in ((0, (30, 2)), (1, (60, 4)), (2, (45, 3))):
        rng = np.random.default_rng(ds_seed)
        x = rng.normal(size=(n, mv))
        y = x[:, 0] + np.sin(2 * x[:, 1]) + 0.05 * rng.normal(size=n)
        d = Dataset(x, y)
        bound = 1e-6 * float(np.max(np.abs(d.y)))
        for sigma in (0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
            for gamma in (1e-3, 1e-1, 10.0, 1e3):
                residual = kkt_residual(fit_lssvm(d, sigma, gamma), d)
                assert residual < bound, f"sigma={sigma} gamma={gamma}"
                worst = max(worst, residual / bound)
                fits += 1

    for seed in (0, 1, 2, 3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, 3))
        kernel = _kernel_from_sq(sq_dists(x, x), 1.0)
        c = rng.normal(size=50)
        c -= c.mean()
        d = Dataset(x, kernel @ c + 0.7)
        bound = 1e-6 * float(np.max(np.abs(d.y)))
        for gamma in (1e4, 1e5, 1e6):
            residual = kkt_residual(fit_lssvm(d, 1.0, gamma), d)
            assert residual < bound, f"span target, gamma={gamma}"
            worst = max(worst, residual / bound)
            fits += 1

    _detail(5, f"PASS {fits} fits, worst residual at {worst:.2e} of the bound")


# ---------------------------------------------------------------------------
# 6+7. Meat spectra benchmark (gated on the data files)


def _find_data_files(*names: str):
    bases = []
    env = os.environ.get("MIVARSEL_DATA_DIR")
    if env:
        bases.append(Path(env))
    bases.append(Path("data"))
    for base in bases:
        if all((base / name).exists() for name in names):
            return [base / name for name in names]
    return None


@pytest.fixture(scope="module")
def meat_benchmark():
    paths = _find_data_files("tecator_train.csv", "tecator_test.csv")
    if paths is None:
        pytest.skip(
            "meat spectra files not found; run `mivarsel fetch-data` with network "
            "access or set MIVARSEL_DATA_DIR"
        )
    train = load_csv(paths[0], "fat")
    test = load_csv(paths[1], "fat")
    cfg = ExperimentConfig(
        preprocessing="spectrum-normalize",
        folds=4,
        seed=0,
        workers=os.cpu_count() or 1,
    )
    t0 = time.monotonic()
    results = reproduce(train, test, cfg, methods=(2, 12, 13))
    elapsed = time.monotonic() - t0
    for r in results:
        assert isinstance(r, MethodResult), getattr(r, "error", r)
    return {r.method: r for r in results}, elapsed


def test_06_meat_benchmark_scores(meat_benchmark):
    results, elapsed = meat_benchmark
    assert elapsed < 7200.0, f"took {elapsed:.0f} s"
    nmse_12 = results[12].nmse_t
    nmse_2 = results[2].nmse_t
    n_selected = results[12].n_inputs
    assert nmse_12 <= 6e-3, f"selected-variable kernel model at {nmse_12:.3e}"
    assert 1.36e-2 / 1.5 <= nmse_2 <= 1.36e-2 * 1.5, f"latent-factor linear at {nmse_2:.3e}"
    assert 6 <= n_selected <= 8, f"{n_selected} variables selected"
    _detail(
        6,
        f"PASS scores {nmse_12:.2e} / {nmse_2:.2e}, {n_selected} variables, "
        f"{elapsed:.0f} s",
    )


def test_07_meat_method_ordering(meat_benchmark):
    results, _ = meat_benchmark
    assert results[12].nmse_t < results[2].nmse_t < results[13].nmse_t
    _detail(
        7,
        "PASS ordering "
        f"{results[12].nmse_t:.2e} < {results[2].nmse_t:.2e} < {results[13].nmse_t:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. Juice benchmark (optional data)


def test_08_juice_benchmark_ordering():
    paths = _find_data_files("juice_train.csv", "juice_test.csv")
    if paths is None:
        pytest.skip(
            "juice spectra files not found (no public fetcher exists); "
            "set MIVARSEL_DATA_DIR to run this criterion"
        )
    train = load_csv(paths[0], "saccharose")
    test = load_csv(paths[1], "saccharose")
    cfg = ExperimentConfig(folds=3, seed=0, workers=os.cpu_count() or 1)
    results = reproduce(train, test, cfg)
    scores = {r.method: r.nmse_t for r in results if isinstance(r, MethodResult)}
    assert set(scores) == set(range(1, 14)), "some methods failed"
    best_selected = min(scores[11], scores[12])
    worst_selected = max(scores[11], scores[12])
    assert worst_selected < min(scores[m] for m in range(1, 11))
    assert 8.12e-2 / 2 <= scores[12] <= 8.12e-2 * 2
    _detail(8, f"PASS selected-variable methods at {best_selected:.2e} lead all others")


# ---------------------------------------------------------------------------
# 9. Exhaustive-search performance envelope and worker independence


def test_09_exhaustive_search_envelope():
    rng = np.random.default_rng(90_000)
    x = rng.normal(size=(172, 16))
    y = x[:, 0] + x[:, 1] ** 2 + 0.1 * x[:, 2] * x[:, 3] + 0.1 * rng.normal(size=172)
    d = Dataset(x, y)

    t0 = time.monotonic()
    winner_max, mi_max = exhaustive_search(
        d, range(16), k=6, jitter_seed=0, workers=os.cpu_count() or 1
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0, f"2^16 - 1 subsets took {elapsed:.0f} s"

    for workers in (1, 4):
        w, e = exhaustive_search(d, range(16), k=6, jitter_seed=0, workers=workers)
        assert w.sorted_indices() == winner_max.sorted_indices()
        assert e.value == mi_max.value  # float-exact, not approximate

    # small-pool enumeration oracle
    session = MiSession(d.X, d.y, k=6, jitter_seed=0)
    want_idx, want_mi = best_subset_by_enumeration(session, range(3))
    got, got_mi = exhaustive_search(d, range(3), k=6, jitter_seed=0)
    assert got.sorted_indices() == tuple(want_idx)
    assert got_mi.value == want_mi

    _detail(
        9,
        f"PASS 65535 subsets in {elapsed:.0f} s, winner {winner_max.sorted_indices()} "
        "identical at workers 1/4/max",
    )


# ---------------------------------------------------------------------------
# 10. Cross-validation harness contracts


def test_10_cv_harness_contracts():
    # fold geometry at the two benchmark sizes
    meat_folds = kfold_split(172, 4, seed=0)
    assert [len(f) for f in meat_folds] == [43, 43, 43, 43]
    juice_folds = kfold_split(149, 3, seed=0)
    assert [len(f) for f in juice_folds] == [50, 50, 49]

    # single test-set read per experiment, enforced, and planted
    # outliers trimmed from the validation folds that hold them
    rng = np.random.default_rng(100_000)
    x = rng.normal(size=(200, 24))
    y = x[:, 0] + x[:, 1] ** 2 + 0.1 * x[:, 2] * x[:, 3] + 0.1 * rng.normal(size=200)
    folds = kfold_split(200, 4, seed=0)
    planted = [int(f[3]) for f in folds]  # one corrupted row per fold
    y = y.copy()
    for row in planted:
        y[row] += 60.0
    train = Dataset(x, y)
    test = Dataset(rng.normal(size=(40, 24)), rng.normal(size=40))
    var_y = pooled_target_variance(train, test)
    scale = median_pairwise_distance(train.X)
    sweep = LssvmSweep((scale,), (10.0,))

    guard = TestSetGuard(test)
    report, _ = cross_validate(train, guard, sweep, 4, 0, var_y)
    assert report.test_reads == 1
    with pytest.raises(DataError):
        guard.take()  # a second read must be refused

    trimmed = sorted(i for fold in report.trimmed_per_fold for i in fold)
    assert trimmed == sorted(planted)
    _detail(
        10,
        f"PASS folds 4x43 and 50/50/49, one test read, trimmed rows {trimmed}",
    )


# ---------------------------------------------------------------------------
# 11. The paper's ordering on synthetic spectra (offline)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import synth  # noqa: E402  (the benchmark's generator, imported read-only)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_11_synthetic_spectra_method_ordering(seed):
    """MI + LS-SVM beats PLSR, which beats MI + linear, on bands the selector finds."""
    x, y, xt, yt = synth.tecator_like(seed)
    cfg = ExperimentConfig(
        preprocessing="spectrum-normalize", folds=4, pool_size=12, sigma_count=20, gamma_count=40
    )
    train, test = Dataset(x, y, synth.LABELS), Dataset(xt, yt, synth.LABELS)
    results = {r.method: r for r in reproduce(train, test, cfg, methods=(2, 12, 13))}
    for r in results.values():
        assert isinstance(r, MethodResult), getattr(r, "error", r)
    nmse = {m: r.nmse_t for m, r in results.items()}
    assert nmse[12] < nmse[2] < nmse[13], nmse

    # Columns 0..99 are the channels; spectrum-normalize appends the row mean and std.
    chosen = results[12].selection.best.indices
    row_stats = (synth.N_CHANNELS, synth.N_CHANNELS + 1)
    for j in chosen:
        if j in row_stats:
            continue
        nm = synth.WAVELENGTHS[j]
        assert any(abs(nm - c) <= 3 * w for c, w in synth.BANDS), f"{nm} nm is off every band"
    _detail(
        11,
        f"PASS seed {seed}: {nmse[12]:.3f} < {nmse[2]:.3f} < {nmse[13]:.3f}, "
        f"variables {chosen}",
    )
