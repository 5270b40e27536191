"""The four benchmark workloads, each a closed loop driven by one client.

A workload has a ``setup`` (synthetic data routed through
``dataset.save_csv``/``load_csv``, plus model fitting for serving), a
``job`` that is one operation of the closed loop, a ``check`` of each
job's output, and a ``replay`` that makes the same sequence of package
calls as ``job`` with a span around each call. Every call goes through
the package's public API; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from mivarsel import cli
from mivarsel.baselines import project_rows
from mivarsel.dataset import (
    Dataset,
    load_csv,
    normalize_spectra,
    normalize_spectrum_rows,
    save_csv,
)
from mivarsel.evaluation import (
    CvReport,
    GridPointResult,
    TestSetGuard,
    nmse,
    pooled_target_variance,
    select_winner,
    sweep_folds,
    trim_outliers,
)
from mivarsel.methods import (
    METHOD_TABLE,
    ExperimentConfig,
    MethodResult,
    build_method_sweep,
    load_pipeline,
    reproduce,
    save_pipeline,
)
from mivarsel.mi import MiSession, estimate_mi
from mivarsel.selector import (
    SelectionResult,
    build_candidate_pool,
    exhaustive_search,
    greedy_select,
    individual_mis,
    rank_by_individual_mi,
    select_variables,
)

from synth import LABELS, tecator_like
from tracing import NullTracer, cpu_seconds, median, percentile

K = 6
FAMILIES = ("pcr", "plsr", "rbfn", "lssvm")


def _same_bits(a, b) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _through_csv(tracer, d: Dataset, path: Path) -> Dataset:
    tracer.call("dataset.save_csv", save_csv, d, path)
    return tracer.call("dataset.load_csv", load_csv, path)


def _traced_session(session: MiSession, tracer, touched: set) -> None:
    """Record one span per ``session.mi`` call.

    The session is the object the benchmark creates and hands to the
    selector, so wrapping its method puts a span at the selector/mi
    boundary without touching the package.
    """
    if isinstance(tracer, NullTracer):
        return
    inner = session.mi

    def mi(subset):
        touched.update(int(j) for j in getattr(subset, "indices", subset))
        with tracer.span("mi.MiSession.mi"):
            return inner(subset)

    session.mi = mi


def _timed_search(tracer, counters: dict, d: Dataset, pool, workers: int):
    cpu0 = cpu_seconds()
    best, best_mi = tracer.call(
        "selector.exhaustive_search", exhaustive_search, d, pool, K, 0, workers
    )
    counters["exhaustive_cpu_s"] = cpu_seconds() - cpu0
    counters["subsets"] = 2 ** len(pool) - 1
    return best, best_mi


# ---------------------------------------------------------------------------
# Selection


class SelectTecator:
    """``select_variables`` on 172x100 spectra, pool 14 (16,383 subsets), 2 workers.

    The paper's pool of 16 makes one job take about 20 s on a 2-core
    machine, one job per run; at 14 the same kernel runs several jobs per
    run, so the fastest job is a steadier figure on a shared host.
    """

    name = "select-tecator"
    workers = 2
    pool_size = 14
    n_train = 172
    setup_reps = 5

    def setup(self, seed: int, work: Path, tracer) -> dict:
        x, y, _, _ = tecator_like(seed, n_train=self.n_train, n_test=0)
        return {"train": _through_csv(tracer, Dataset(x, y, LABELS), work / "train.csv")}

    def job(self, state: dict) -> SelectionResult:
        return select_variables(
            state["train"], k=K, pool_size=self.pool_size, jitter_seed=0, workers=self.workers
        )

    def replay(self, state: dict, tracer, counters: dict) -> SelectionResult:
        """select_variables, call by call."""
        d = state["train"]
        session = tracer.call("mi.MiSession", MiSession, d.X, d.y, k=K, jitter_seed=0)
        _traced_session(session, tracer, counters.setdefault("touched", set()))
        values = tracer.call("selector.individual_mis", individual_mis, d, K, 0, session)
        ranking = tracer.call(
            "selector.rank_by_individual_mi", rank_by_individual_mi, d, None, K, 0, session
        )
        greedy, trace = tracer.call(
            "selector.greedy_select", greedy_select, d, K, 0, False, session
        )
        counters["greedy_steps"] = len(trace.steps)
        counters["greedy_size"] = len(greedy)
        pool = tracer.call(
            "selector.build_candidate_pool",
            build_candidate_pool, ranking, greedy, min(self.pool_size, d.n_variables),
        )
        best, best_mi = _timed_search(tracer, counters, d, pool, self.workers)
        return SelectionResult(
            ranking=ranking,
            ranking_mis=tuple(float(values[j]) for j in ranking.indices),
            greedy=greedy,
            trace=trace,
            pool=pool,
            best=best,
            best_mi=best_mi,
        )

    def check(self, state: dict, out) -> list[str]:
        d = state["train"]
        problems = []
        if not set(out.best.indices) <= set(out.pool.indices):
            problems.append(f"winner {out.best.indices} is not inside the pool")
        if len(out.pool) != min(self.pool_size, d.n_variables):
            problems.append(f"pool holds {len(out.pool)} variables, not {self.pool_size}")
        fresh = estimate_mi(d, out.best.indices, k=K, jitter_seed=0).value
        if not _same_bits(fresh, out.best_mi.value):
            problems.append(f"winner MI {out.best_mi.value!r} != fresh estimate {fresh!r}")
        return problems

    def reference_check(self, state: dict, out) -> list[str]:
        """The winner and its MI bits equal a reference searched at workers=1.

        A full search at one worker costs twice a job, so the reference
        covers the first 12 pool variables (4,095 subsets), searched at
        both worker counts.
        """
        d = state["train"]
        part = out.pool.indices[:12]
        one = exhaustive_search(d, part, K, 0, 1)
        many = exhaustive_search(d, part, K, 0, self.workers)
        if one[0].indices != many[0].indices or not _same_bits(one[1].value, many[1].value):
            return [f"workers={self.workers} winner differs from the workers=1 reference"]
        return []

    def fingerprint(self, out):
        """What two jobs on the same inputs must agree on; small enough to keep."""
        return out

    def layer_metrics(self, tracer, counters: dict, out, state: dict) -> dict:
        n = state["train"].n_samples
        evals = tracer.durations("mi.MiSession.mi")
        ex = sum(tracer.durations("selector.exhaustive_search"))
        return {
            "mi.session_init_ms": 1e3 * sum(tracer.durations("mi.MiSession")),
            "mi.evals": len(evals),
            "mi.eval_us_p50": 1e6 * percentile(evals, 50),
            "mi.eval_us_p99": 1e6 * percentile(evals, 99),
            "mi.cache_mb_computed": n * n * 8 * len(counters["touched"]) / 1e6,
            "selector.rank_s": sum(tracer.durations("selector.individual_mis"))
            + sum(tracer.durations("selector.rank_by_individual_mi")),
            "selector.greedy_s": sum(tracer.durations("selector.greedy_select")),
            "selector.greedy_steps": counters.get("greedy_steps", 0),
            "selector.greedy_size": counters.get("greedy_size", 0),
            "selector.exhaustive_s": ex,
            "selector.exhaustive_subsets_per_s": counters["subsets"] / ex,
            "selector.exhaustive_cpu_per_wall": counters["exhaustive_cpu_s"] / ex,
        }


class SelectLargeN(SelectTecator):
    """Ranking, a forward walk and an 8-variable pool search at N=1000, 1 worker.

    ``greedy_select`` is left out: at N=1000 it alone takes 15 s or more,
    and its length, and so the pool it needs, changes with the seed. A
    walk of fixed depth over ``MiSession.mi`` keeps the work equal across
    seeds while filling the same N x N cache.
    """

    name = "select-large-n"
    workers = 1
    pool_size = 8
    n_train = 1000
    walk_depth = 2

    def job(self, state: dict) -> SimpleNamespace:
        return self.replay(state, NullTracer(), {})

    def replay(self, state: dict, tracer, counters: dict) -> SimpleNamespace:
        d = state["train"]
        session = tracer.call("mi.MiSession", MiSession, d.X, d.y, k=K, jitter_seed=0)
        _traced_session(session, tracer, counters.setdefault("touched", set()))
        ranking = tracer.call(
            "selector.rank_by_individual_mi", rank_by_individual_mi, d, None, K, 0, session
        )
        walk: tuple[int, ...] = ()
        for _ in range(self.walk_depth):
            best_j, best_value = -1, -math.inf
            for j in range(d.n_variables):
                if j not in walk:
                    value = session.mi(walk + (j,))
                    if value > best_value:
                        best_j, best_value = j, value
            walk += (best_j,)
        pool = tracer.call(
            "selector.build_candidate_pool", build_candidate_pool, ranking, walk, self.pool_size
        )
        best, best_mi = _timed_search(tracer, counters, d, pool, self.workers)
        return SimpleNamespace(walk=walk, pool=pool, best=best, best_mi=best_mi)

    def reference_check(self, state: dict, out) -> list[str]:
        """The workers=1 winner and its MI bits equal a 2-worker search of the same pool."""
        best, best_mi = exhaustive_search(state["train"], out.pool, K, 0, 2)
        if best.indices != out.best.indices or not _same_bits(best_mi.value, out.best_mi.value):
            return ["2-worker search of the pool disagrees with the workers=1 winner"]
        return []


# ---------------------------------------------------------------------------
# Calibration


def _family(kind: str) -> str:
    return kind.rsplit("+", 1)[-1]


class CalibrateProjection:
    """``methods.reproduce`` for methods 1-10 on the 172/43 split, 1 worker."""

    name = "calibrate-projection"
    workers = 1
    methods = tuple(range(1, 11))
    setup_reps = 5

    def __init__(self) -> None:
        self.cfg = ExperimentConfig(preprocessing="spectrum-normalize", workers=self.workers)

    def setup(self, seed: int, work: Path, tracer) -> dict:
        x, y, xt, yt = tecator_like(seed)
        return {
            "train": _through_csv(tracer, Dataset(x, y, LABELS), work / "train.csv"),
            "test": _through_csv(tracer, Dataset(xt, yt, LABELS), work / "test.csv"),
        }

    def job(self, state: dict) -> list:
        return reproduce(state["train"], state["test"], self.cfg, methods=self.methods)

    def replay(self, state: dict, tracer, counters: dict) -> list:
        """reproduce -> run_method -> cross_validate, call by call; returns the CvReports."""
        shared: dict = {}
        reports = []
        for m in self.methods:
            spec = METHOD_TABLE[m]
            cfg = replace(self.cfg, method=m)
            with tracer.span(f"methods.run_method.{m}"):
                train = tracer.call("dataset.normalize_spectra", normalize_spectra, state["train"])
                test = tracer.call("dataset.normalize_spectra", normalize_spectra, state["test"])
                var_y = tracer.call(
                    "evaluation.pooled_target_variance", pooled_target_variance, train, test
                )
                sweep, _, _ = tracer.call(
                    "methods.build_method_sweep", build_method_sweep, train, cfg, shared, var_y
                )
                report = self._cross_validate(tracer, counters, train, test, sweep, cfg, var_y)
            if spec.projection is not None and spec.model == "linear":
                shared.setdefault(("components", spec.projection), report.winner_params["components"])
            reports.append(report)
        return reports

    @staticmethod
    def _cross_validate(tracer, counters, train, test, sweep, cfg, var_y) -> CvReport:
        """evaluation.cross_validate with its default trimming, step by step."""
        fam = _family(sweep.kind)
        l = cfg.folds
        guard = TestSetGuard(test)
        folds, splits, mat_l, mat_v, messages = tracer.call(
            f"evaluation.sweep_folds.{fam}",
            sweep_folds, train, sweep, l, cfg.seed, var_y, workers=cfg.workers,
        )
        counters.setdefault("cells", dict.fromkeys(FAMILIES, 0))[fam] += mat_v.size
        counters["nan_cells"] = counters.get("nan_cells", 0) + int(np.isnan(mat_v).sum())
        winner = tracer.call("evaluation.select_winner", select_winner, mat_l, mat_v)
        points = sweep.grid.points()
        params = points[winner]
        # ComponentSweep lives in evaluation, PipelineSweep in methods.
        fit = f"{type(sweep).__module__.rsplit('.', 1)[-1]}.{type(sweep).__name__}.fit"
        winner_l, winner_v, trimmed = [], [], []
        with tracer.span("evaluation.refit"):
            for fold_idx, (learn, valid) in zip(folds, splits):
                model = tracer.call(f"{fit}.fold.{fam}", sweep.fit, learn, params)
                err_l = np.asarray(model.predict(learn.X)) - learn.y
                err_v = np.asarray(model.predict(valid.X)) - valid.y
                winner_l.append(float(np.mean(err_l**2) / var_y))
                kept = trim_outliers(err_v)
                winner_v.append(float(np.mean(err_v[kept] ** 2) / var_y))
                dropped = np.setdiff1d(np.arange(err_v.size), kept)
                trimmed.append(tuple(int(i) for i in fold_idx[dropped]))
            final = tracer.call(f"{fit}.winner.{fam}", sweep.fit, train, params)
            held = guard.take()
            err_t = np.asarray(final.predict(held.X)) - held.y
            nmse_t = float(np.mean(err_t**2) / var_y)
        with tracer.span("evaluation.report"):
            rows = tuple(
                GridPointResult(
                    index=i,
                    params=p,
                    nmse_l=tuple(float(v) for v in mat_l[i]),
                    nmse_v=tuple(float(v) for v in mat_v[i]),
                    error=next(
                        (f"fold {f}: {messages[f][i]}" for f in range(l) if i in messages[f]),
                        None,
                    ),
                )
                for i, p in enumerate(points)
            )
            return CvReport(
                kind=sweep.kind, l=l, seed=cfg.seed, var_y=float(var_y),
                n_train=train.n_samples, n_test=guard.n_samples,
                folds=tuple(tuple(int(i) for i in f) for f in folds), rows=rows,
                winner_index=winner, winner_params=params,
                winner_fold_nmse_l=tuple(winner_l), winner_fold_nmse_v=tuple(winner_v),
                trimmed_per_fold=tuple(trimmed), nmse_t=nmse_t, test_reads=guard.reads,
                trim_learn=False, trim_valid=True, trim_test=False,
            )

    def check(self, state: dict, out) -> list[str]:
        problems = []
        if [getattr(r, "method", None) for r in out] != list(self.methods):
            problems.append("methods missing from the result list")
        y = state["test"].y
        var_y = pooled_target_variance(state["train"], state["test"])
        for r in out:
            if not isinstance(r, MethodResult):
                problems.append(f"method {r.method} failed: {r.error}")
                continue
            if r.report.test_reads != 1:
                problems.append(f"method {r.method} read the test set {r.report.test_reads} times")
            again = nmse(np.asarray(r.model.predict(state["test"].X)), y, var_y)
            if not _same_bits(again, r.nmse_t):
                problems.append(
                    f"method {r.method}: NMSE from predict {again!r} != report {r.nmse_t!r}"
                )
        return problems

    def reference_check(self, state: dict, out) -> list[str]:
        return []

    def fingerprint(self, out) -> tuple:
        return tuple(
            (r.method, r.nmse_t, r.report.winner_index) if isinstance(r, MethodResult)
            else (r.method, r.error)
            for r in out
        )

    def replay_matches(self, untraced, replayed) -> bool:
        return len(untraced) == len(replayed) and all(
            isinstance(u, MethodResult) and u.report.to_dict() == r.to_dict()
            for u, r in zip(untraced, replayed)
        )

    def layer_metrics(self, tracer, counters: dict, out, state: dict) -> dict:
        m: dict = {}
        cells = counters.get("cells", {})
        for fam in FAMILIES:
            spent = sum(tracer.durations(f"evaluation.sweep_folds.{fam}"))
            m[f"evaluation.sweep_s.{fam}"] = spent
            m[f"evaluation.cells_per_s.{fam}"] = cells.get(fam, 0) / spent if spent else 0.0
            m[f"evaluation.winner_fit_ms.{fam}"] = 1e3 * median(
                tracer.durations_ending(f".fit.winner.{fam}")
            )
        m["evaluation.refit_s"] = sum(tracer.durations("evaluation.refit"))
        m["evaluation.report_s"] = sum(tracer.durations("evaluation.report"))
        m["evaluation.failed_cell_fraction"] = counters["nan_cells"] / sum(cells.values())
        m["evaluation.test_reads"] = sum(r.test_reads for r in out)
        m["methods.build_sweep_s"] = sum(tracer.durations("methods.build_method_sweep"))
        for i in self.methods:
            m[f"methods.run_method_s.{i}"] = sum(tracer.durations(f"methods.run_method.{i}"))
        m["dataset.normalize_ms"] = 1e3 * median(tracer.durations("dataset.normalize_spectra"))
        return m


# ---------------------------------------------------------------------------
# Serving


class ServePredict:
    """Closed loop of predictions from saved pipelines of methods 2, 5 and 12.

    One pass loads the three pipelines, sends 1,002 single-row requests
    cycling over them, 180 requests of 43 rows, and runs the in-process
    ``mivarsel predict`` with the method-5 pipeline over 3,000 raw rows.
    """

    name = "serve-predict"
    workers = 1
    methods = (2, 5, 12)
    single_requests = 1002
    batch_requests = 180
    batch_rows = 43
    cli_rows = 3000
    cli_method = 5
    setup_reps = 3

    def __init__(self) -> None:
        # Smaller grids and pool than the paper's keep set-up short; they
        # change which model wins, not the cost of serving it.
        self.cfg = ExperimentConfig(
            preprocessing="spectrum-normalize", workers=1, pool_size=8,
            sigma_count=20, gamma_count=30, wsf_count=5, max_centroids=10,
        )

    def setup(self, seed: int, work: Path, tracer) -> dict:
        x, y, xt, yt = tecator_like(seed, n_test=self.batch_rows + self.cli_rows)
        train = _through_csv(tracer, Dataset(x, y, LABELS), work / "train.csv")
        test = _through_csv(
            tracer, Dataset(xt[: self.batch_rows], yt[: self.batch_rows], LABELS), work / "test.csv"
        )
        cli_csv = work / "cli_rows.csv"
        tracer.call(
            "dataset.save_csv", save_csv,
            Dataset(xt[self.batch_rows:], yt[self.batch_rows:], LABELS), cli_csv,
        )
        results = tracer.call("methods.reproduce", reproduce, train, test, self.cfg, self.methods)
        paths = {}
        for r in results:
            if not isinstance(r, MethodResult):
                raise RuntimeError(f"method {r.method} failed in set-up: {r.error}")
            paths[r.method] = work / f"model-{r.method:02d}.json"
            tracer.call("methods.save_pipeline", save_pipeline, r.model, paths[r.method])
        cli_x = np.asarray(xt[self.batch_rows:])
        return {
            "train": train,
            "test": test,
            "results": {r.method: r for r in results},
            "paths": paths,
            "cli_csv": cli_csv,
            "cli_out": work / "cli-predictions.csv",
            "cli_expected": results[self.methods.index(self.cli_method)].model.predict(cli_x),
            "single_expected": {
                r.method: [r.model.predict(row) for row in test.X] for r in results
            },
            "batch_expected": {r.method: r.model.predict(test.X) for r in results},
        }

    def _cli(self, state: dict) -> int:
        argv = ["predict", "--model", str(state["paths"][self.cli_method]),
                "--data", str(state["cli_csv"]), "--out", str(state["cli_out"])]
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def job(self, state: dict) -> dict:
        return self.replay(state, NullTracer(), {})

    def replay(self, state: dict, tracer, counters: dict) -> dict:
        models = {m: tracer.call("methods.load_pipeline", load_pipeline, state["paths"][m])
                  for m in self.methods}
        rows = state["test"].X
        single, latency = [], []
        for i in range(self.single_requests):
            m = self.methods[i % len(self.methods)]
            row = rows[i % rows.shape[0]]
            t0 = time.perf_counter()
            value = self._predict(models[m], row, tracer)
            latency.append(time.perf_counter() - t0)
            single.append((m, i % rows.shape[0], value))
        batches, batch_time = [], 0.0
        for i in range(self.batch_requests):
            m = self.methods[i % len(self.methods)]
            t0 = time.perf_counter()
            out = self._predict(models[m], rows, tracer)
            batch_time += time.perf_counter() - t0
            batches.append((m, out))
        t0 = time.perf_counter()
        code = tracer.call("cli.main", self._cli, state)
        cli_time = time.perf_counter() - t0
        return {"single": single, "latency": latency, "batches": batches,
                "batch_time": batch_time, "cli_code": code, "cli_time": cli_time,
                "models": models}

    @staticmethod
    def _predict(pipeline, x, tracer):
        if isinstance(tracer, NullTracer):
            return pipeline.predict(x)
        # PipelineModel.predict, call by call; batch spans get their own names.
        single = np.asarray(x).ndim == 1
        shape = "row" if single else "batch"
        with tracer.span(f"methods.transform_rows.{shape}"):
            z = ServePredict._transform_rows(pipeline, x, tracer, shape)
        kind = type(pipeline.model).__name__.replace("Model", "").lower()
        out = np.asarray(tracer.call(f"models.predict.{shape}.{kind}", pipeline.model.predict, z))
        return float(out[0]) if single else out

    @staticmethod
    def _transform_rows(pipeline, x, tracer, shape: str):
        """PipelineModel.transform_rows, step by step."""
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if pipeline.preprocessing == "spectrum-normalize":
            pts = tracer.call(
                f"dataset.normalize_spectrum_rows.{shape}", normalize_spectrum_rows, pts
            )
        if pipeline.variables is not None:
            pts = pts[:, list(pipeline.variables)]
        if pipeline.projection is not None:
            pts = tracer.call(
                f"baselines.project_rows.{shape}", project_rows, pipeline.projection, pts
            )
        if pipeline.whitener is not None:
            pts = (pts - pipeline.whitener.means) / pipeline.whitener.stds
        return pts

    def operations(self, out: dict) -> int:
        return len(self.methods) + len(out["single"]) + len(out["batches"]) + 1

    def check(self, state: dict, out: dict) -> list[str]:
        problems = []
        for m, r, value in out["single"]:
            if not _same_bits(value, state["single_expected"][m][r]):
                problems.append(f"method {m} row {r}: reloaded {value!r} differs in-memory")
                break
        for m, got in out["batches"]:
            if not _same_bits(got, state["batch_expected"][m]):
                problems.append(f"method {m}: reloaded batch differs from in-memory")
                break
        test = state["test"]
        var_y = pooled_target_variance(state["train"], test)
        for m, model in out["models"].items():
            score = nmse(np.asarray(model.predict(test.X)), test.y, var_y)
            if not _same_bits(score, state["results"][m].nmse_t):
                problems.append(f"method {m}: NMSE from predict {score!r} != report")
        if out["cli_code"] != 0:
            problems.append(f"mivarsel predict exited with {out['cli_code']}")
        else:
            lines = state["cli_out"].read_text().split("\n")
            parsed = [float(v) for v in lines[1:] if v]
            if lines[0] != "prediction" or not _same_bits(parsed, state["cli_expected"]):
                problems.append("mivarsel predict output differs from in-memory predictions")
        return problems

    def reference_check(self, state: dict, out) -> list[str]:
        return []

    def fingerprint(self, out: dict) -> tuple:
        return (
            tuple(np.float64(v).tobytes() for _, _, v in out["single"]),
            tuple(np.asarray(b).tobytes() for _, b in out["batches"]),
        )

    @staticmethod
    def summary(out: dict) -> dict:
        return {k: out[k] for k in ("latency", "batch_time", "cli_time")} | {
            "batches": len(out["batches"])
        }

    def serve_metrics(self, outs: list) -> dict:
        latency = [t for o in outs for t in o["latency"]]
        batch_rows = sum(o["batches"] for o in outs) * self.batch_rows
        return {
            "predict_p50_ms": 1e3 * percentile(latency, 50),
            "predict_p99_ms": 1e3 * percentile(latency, 99),
            "predict_samples": len(latency),
            "predict_rows_per_s": batch_rows / sum(o["batch_time"] for o in outs),
            "cli_predict_rows_per_s": self.cli_rows / median([o["cli_time"] for o in outs]),
        }

    def layer_metrics(self, tracer, counters: dict, out, state: dict) -> dict:
        m = {
            "methods.load_pipeline_ms": 1e3 * median(tracer.durations("methods.load_pipeline")),
            "methods.transform_rows_us": 1e6 * median(tracer.durations("methods.transform_rows.row")),
            "cli.predict_s": median(tracer.durations("cli.main")),
            "dataset.normalize_rows_us": 1e6 * median(
                tracer.durations("dataset.normalize_spectrum_rows.row")
            ),
            "baselines.project_rows_us": 1e6 * median(
                tracer.durations("baselines.project_rows.row")
            ),
        }
        for kind in ("linear", "lssvm"):
            m[f"models.predict_us_per_row.{kind}"] = 1e6 * median(
                tracer.durations(f"models.predict.row.{kind}")
            )
            m[f"models.predict_batch_us_per_row.{kind}"] = 1e6 * median(
                tracer.durations(f"models.predict.batch.{kind}")
            ) / self.batch_rows
        return m


WORKLOADS = {w.name: w for w in (SelectTecator, SelectLargeN, CalibrateProjection, ServePredict)}
