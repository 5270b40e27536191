"""Benchmark of the mivarsel package: four workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload select-tecator --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload as a closed loop for ``--seconds`` and
reports the end-to-end metrics listed in BENCHMARK.json; ``wall_s`` and
``cpu_s`` are those of the run's fastest job, ``setup_s`` the fastest
import plus the fastest set-up. ``--trace 1``
alternates an untraced job with a traced replay of the same package
calls and reports the per-layer metrics, self time per module and the
tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every output check passed. Spans and results are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_JOBS = 2
# Enough replays for per-layer medians while the span file stays small.
MAX_REPLAYS = 5
WORKLOAD_NAMES = ("select-tecator", "select-large-n", "calibrate-projection", "serve-predict")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


_IMPORT = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t0 = time.perf_counter(); "
    "import workloads; print(time.perf_counter() - t0)"
)


def import_package() -> None:
    """Import numpy and the package from this checkout, never an installed copy."""
    if not (SRC / "mivarsel" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'mivarsel'}")
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"error: no BENCHMARK.json at {ROOT}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import mivarsel
    import workloads  # noqa: F401  (imports numpy and every package module used)

    if Path(mivarsel.__file__).resolve().parent != (SRC / "mivarsel").resolve():
        raise SystemExit(f"error: imported mivarsel from {mivarsel.__file__}, not {SRC}")


def import_seconds(reps: int = 3) -> list[float]:
    """Import time of numpy plus the package, each in a fresh interpreter."""
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(proc.stdout))
    return times


def environment(workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "workers": workers,
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _failures(w, state, out, first, problems: list) -> int:
    """Checks one job's output; ``first`` is the fingerprint of the run's first job."""
    found = w.check(state, out)
    if first is not None and w.fingerprint(out) != first:
        found.append("output differs from the run's first job")
    problems.extend(found)
    return len(found)


def measure(w, state: dict, seconds: float, problems: list) -> dict:
    """Closed loop: one job at a time until the next would end past ``seconds``.

    At least MIN_JOBS run, so the fastest job is never only the first one,
    which pays one-off costs such as first-touch memory and BLAS start-up.
    """
    from tracing import cpu_seconds, median

    walls, cpus, kept = [], [], []
    first = None
    attempted = failed = 0
    start = time.perf_counter()
    while len(walls) < MIN_JOBS or time.perf_counter() - start + median(walls) <= seconds:
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = w.job(state)
        except Exception:  # counted as a failed operation, never retried away
            problems.append(traceback.format_exc(limit=3))
            walls.append(time.perf_counter() - t0)
            attempted += 1
            failed += 1
            continue
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        ops = w.operations(out) if hasattr(w, "operations") else 1
        attempted += ops
        failed += min(ops, _failures(w, state, out, first, problems))
        if first is None:
            first = w.fingerprint(out)
        # Keep only what the metrics need, so peak memory does not depend on the job count.
        kept.append(w.summary(out) if hasattr(w, "summary") else None)
        del out
    if first is not None:
        n = len(problems)
        problems.extend(w.reference_check(state, first))
        failed += len(problems) - n
    return {"walls": walls, "cpus": cpus, "kept": kept, "attempted": attempted, "failed": failed}


def run_untraced(w, seed: int, seconds: float, work: Path, problems: list):
    """End-to-end metrics.

    Times are the fastest of the run's repetitions: other tenants of a
    shared host only ever add time, so the minimum moves least between
    runs. Medians are printed beside them.
    """
    from tracing import NullTracer, median

    setups = []
    for _ in range(w.setup_reps):
        t0 = time.perf_counter()
        state = w.setup(seed, work, NullTracer())
        setups.append(time.perf_counter() - t0)
    m = measure(w, state, seconds, problems)
    rss = peak_rss_mb()
    imports = import_seconds()  # after the RSS reading: these children are not the workload's
    metrics = {
        "wall_s": min(m["walls"]),
        "setup_s": min(imports) + min(setups),
        "cpu_s": min(m["cpus"]) if m["cpus"] else 0.0,
        "peak_rss_mb": rss,
    }
    extra = {
        "jobs": len(m["walls"]),
        "wall_median_s": median(m["walls"]),
        "cpu_median_s": median(m["cpus"]),
        "setup_median_s": median(imports) + median(setups),
        "walls": m["walls"],
        "import_s": imports,
        "setup_reps_s": setups,
    }
    if hasattr(w, "serve_metrics") and m["kept"]:
        extra.update(w.serve_metrics(m["kept"]))
    return metrics, extra, m["attempted"], m["failed"]


def run_traced(w, seed: int, seconds: float, work: Path, problems: list, run_id: str):
    from tracing import Tracer, median

    setup_tracer = Tracer(run_id)
    state = w.setup(seed, work, setup_tracer)
    # The first job in a process pays one-off costs (first-touch memory,
    # BLAS thread start-up) that would otherwise land in the overhead.
    w.job(state)
    untraced_walls, traced_walls, per_replay, tracers = [], [], [], []
    attempted = failed = 0
    first, kept = None, []
    start = time.perf_counter()
    while not traced_walls or (
        len(traced_walls) < MAX_REPLAYS
        and time.perf_counter() - start + median(untraced_walls) + median(traced_walls) <= seconds
    ):
        t0 = time.perf_counter()
        plain = w.job(state)
        untraced_walls.append(time.perf_counter() - t0)
        tracer, counters = Tracer(run_id), {}
        t0 = time.perf_counter()
        replayed = w.replay(state, tracer, counters)
        traced_walls.append(time.perf_counter() - t0)
        tracers.append(tracer)
        ops = w.operations(plain) if hasattr(w, "operations") else 1
        attempted += 2 * ops
        failed += min(ops, _failures(w, state, plain, first, problems))
        first = w.fingerprint(plain) if first is None else first
        kept.append(w.summary(plain) if hasattr(w, "summary") else None)
        if hasattr(w, "replay_matches"):
            matches = w.replay_matches(plain, replayed)
        else:
            matches = w.fingerprint(plain) == w.fingerprint(replayed)
        if not matches:
            problems.append("traced replay output differs from the untraced job")
            failed += 1
        layer = w.layer_metrics(tracer, counters, replayed, state)
        for name, value in tracer.self_times().items():
            layer[f"self_s.{name}"] = value
        layer["trace.spans"] = len(tracer.spans)
        per_replay.append(layer)
    n = len(problems)
    problems.extend(w.reference_check(state, first))
    failed += len(problems) - n

    metrics = {k: median([d[k] for d in per_replay]) for k in per_replay[0]}
    metrics["dataset.load_csv_ms"] = 1e3 * median(setup_tracer.durations("dataset.load_csv"))
    metrics["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    if hasattr(w, "serve_metrics"):
        serve = w.serve_metrics(kept)
        metrics["methods.predict_ms_p50"] = serve["predict_p50_ms"]
        metrics["methods.predict_ms_p99"] = serve["predict_p99_ms"]
        metrics["methods.predict_rows_per_s"] = serve["predict_rows_per_s"]
        metrics["cli.predict_rows_per_s"] = serve["cli_predict_rows_per_s"]
    spans = {"setup": setup_tracer.records(), "replays": [t.records() for t in tracers]}
    extra = {"untraced_walls": untraced_walls, "traced_walls": traced_walls}
    return metrics, extra, attempted, failed, spans


def run_one(args) -> int:
    import_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]()
    env = environment(w.workers)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    problems: list[str] = []
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        if args.trace:
            metrics, extra, attempted, failed, spans = run_traced(
                w, args.seed, args.seconds, Path(tmp), problems, run_id
            )
            wanted = spec["per_layer"]
        else:
            metrics, extra, attempted, failed = run_untraced(
                w, args.seed, args.seconds, Path(tmp), problems
            )
            spans = None
            wanted = spec["end_to_end"]

    failed = min(failed, attempted)  # a failed reference check fails the job it checked
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A layer this workload never calls reads 0.
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"run_id": run_id, "environment": env, "result": result, "extra": extra,
         "problems": problems}, indent=1) + "\n")
    if spans is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        if isinstance(value, (int, float)):
            print(f"  {name:44s} {value:.6g}")
    print(f"  {'error_rate':44s} {failed / max(attempted, 1):.6g} failed/attempted")
    for problem in problems:
        print(f"  CHECK FAILED: {problem.strip()}")
    print(f"verdict {'PASS' if correct else 'FAIL'}: {attempted} attempted, {failed} failed")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so import time and peak RSS stay per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            merged["correct"] = False
            continue
        part = json.loads(lines[-1])
        merged["correct"] &= part["correct"] and proc.returncode == 0
        merged["attempted"] += part["attempted"]
        merged["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
