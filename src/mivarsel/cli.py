"""Command-line surface for the selection pipeline and the benchmark.

Exit codes: 0 success, 2 bad usage or configuration, 3 data problems,
4 numerical failures. Progress goes to standard error; results go to
files (and short human-readable summaries to standard output).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import astuple
from pathlib import Path

from . import blas_threads
from .dataset import TECATOR_URL, fetch_tecator, load_csv, load_input_rows
from .errors import ConfigError, DataError, NumericalError
from .evaluation import grid_csv_blocks
from .methods import (
    METHOD_TABLE,
    ExperimentConfig,
    MethodResult,
    best_methods,
    plan_lines,
    reproduce,
    run_method,
    train_method,
)
from .mi import MiSession
from .models import PREPROCESSINGS, encode, load_pipeline, preprocess, save_pipeline
from .selector import individual_mis, rank_by_individual_mi, select_variables

__all__ = ["main", "DATA_DIR_ENV"]

DATA_DIR_ENV = "MIVARSEL_DATA_DIR"

# dataset name -> (train file, test file, target column label)
_DATASETS = {
    "tecator": ("tecator_train.csv", "tecator_test.csv", "fat"),
    "juice": ("juice_train.csv", "juice_test.csv", "saccharose"),
}

_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_NUMERICAL = 4


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_if_uninformative(value: float, k: int, n: int) -> None:
    """A stderr warning when the highest MI found is <= 0.0 (see select_variables)."""
    if value <= 0.0:
        _progress(
            f"warning: the highest MI is {value!r} nats at k={k}, N={n}; nothing carries "
            f"measurable information at this k, so only the tie rule decides"
        )


def _parallelism(workers: int) -> str:
    pin = blas_threads()
    if pin["pinned"]:
        return f"workers {workers}, BLAS threads {pin['threads']}"
    return f"workers {workers}, BLAS {pin['blas']} not pinned"


def data_dir() -> Path:
    return Path(os.environ.get(DATA_DIR_ENV, "data"))


# ---------------------------------------------------------------------------
# Configuration assembly


_CONFIG_FIELDS = tuple(ExperimentConfig.__dataclass_fields__)


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    doc: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        doc = loaded
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:  # flags override config-file fields
            doc[name] = value
    if doc.get("workers") is None:
        doc["workers"] = os.cpu_count() or 1
    return ExperimentConfig.from_dict(doc)


def _resolve_paths(cfg: ExperimentConfig, need_test: bool):
    """Train/test CSV paths plus target column for the configured data."""
    if cfg.dataset is not None:
        if cfg.dataset not in _DATASETS:
            raise ConfigError(
                f"unknown dataset {cfg.dataset!r}; choose from {sorted(_DATASETS)} "
                "or pass explicit --train/--test paths"
            )
        train_name, test_name, target = _DATASETS[cfg.dataset]
        base = data_dir()
        train_path, test_path = base / train_name, base / test_name
        missing = [p for p in (train_path, test_path) if not p.exists()]
        if missing:
            raise DataError(
                f"missing {', '.join(str(p) for p in missing)}; run `mivarsel fetch-data` "
                f"or point {DATA_DIR_ENV} at a directory holding the files"
            )
        if cfg.target_column != "target":  # explicit flag wins over the table
            target = cfg.target_column
        return train_path, test_path, target
    if cfg.train_path is None:
        raise ConfigError("no data configured: pass --dataset or --train")
    if need_test and cfg.test_path is None:
        raise ConfigError("this command needs a test set: pass --test")
    return cfg.train_path, cfg.test_path, cfg.target_column


def _load_data(cfg: ExperimentConfig, need_test: bool):
    train_path, test_path, target = _resolve_paths(cfg, need_test)
    _progress(f"loading training data from {train_path}")
    train = load_csv(train_path, target)
    test = None
    if need_test:
        _progress(f"loading test data from {test_path}")
        test = load_csv(test_path, target)
    return train, test


def _out_dir(cfg: ExperimentConfig, *parts: str) -> Path:
    root = Path(cfg.out_dir) if cfg.out_dir is not None else Path("reports")
    name = cfg.dataset if cfg.dataset is not None else "custom"
    path = root.joinpath(name, *parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Commands


def cmd_fetch_data(args: argparse.Namespace) -> int:
    dest = data_dir()
    _progress(f"fetching Tecator into {dest}")
    train_path, test_path = fetch_tecator(dest, url=args.url)
    _progress(f"wrote {train_path}")
    _progress(f"wrote {test_path}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    train, _ = _load_data(cfg, need_test=False)
    train = preprocess(train, cfg.preprocessing)
    labels = train.variable_labels
    _progress(f"estimating MI for {train.n_variables} variables (k={cfg.k})")
    session = MiSession(train.X, train.y, k=cfg.k, jitter_seed=cfg.seed)
    mis = individual_mis(train, session=session)
    ranking = rank_by_individual_mi(train, session=session)
    _warn_if_uninformative(float(mis.max()), cfg.k, train.n_samples)
    out = _out_dir(cfg) / "mi.csv"
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("variable", "label", "mi_nats"))
        writer.writerows((j, labels[j], float(mis[j])) for j in ranking)
    _progress(f"wrote {out}")
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    train, _ = _load_data(cfg, need_test=False)
    train = preprocess(train, cfg.preprocessing)
    labels = train.variable_labels
    _progress(
        f"selecting variables (k={cfg.k}, pool up to {cfg.pool_size}, "
        f"{_parallelism(cfg.workers)})"
    )
    result = select_variables(
        train, k=cfg.k, pool_size=cfg.pool_size, jitter_seed=cfg.seed, workers=cfg.workers
    )
    _warn_if_uninformative(*astuple(result.best_mi))
    out = _out_dir(cfg)
    doc = {"config": cfg.to_dict(), "selection": result.to_dict(labels)}
    _write_json(out / "selection.json", doc)
    _write_json(out / "trace.json", encode(result.trace))
    _progress(f"wrote {out / 'selection.json'}")
    _progress(f"wrote {out / 'trace.json'}")
    chosen = result.best.sorted_indices()
    print(f"{len(chosen)} variables selected: " + ", ".join(labels[j] for j in chosen))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    train, _ = _load_data(cfg, need_test=False)
    spec = METHOD_TABLE[cfg.method]
    _progress(f"training method {cfg.method} ({spec.label})")
    result = train_method(train, cfg)
    if result.selection is not None:
        _warn_if_uninformative(*astuple(result.selection.best_mi))

    out = _out_dir(cfg, f"method-{cfg.method:02d}", f"seed-{cfg.seed}")
    save_pipeline(result.model, out / "model.json")
    summary = {
        "config": cfg.to_dict(),
        "kind": result.kind,
        "winner_params": result.winner_params,
        "mean_nmse_l": result.mean_nmse_l,
        "mean_nmse_v": result.mean_nmse_v,
        "grid_points": result.grid_points,
    }
    _write_json(out / "train.json", summary)
    if result.selection is not None:
        doc = {"config": cfg.to_dict(), "selection": result.selection.to_dict(result.labels)}
        _write_json(out / "selection.json", doc)
        _write_json(out / "trace.json", encode(result.selection.trace))
    _progress(f"wrote {out / 'model.json'}")
    print(
        f"method {cfg.method} ({spec.label}): winner {result.winner_params}, "
        f"validation NMSE {result.mean_nmse_v:.2E}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    model = load_pipeline(args.model)
    rows = load_input_rows(args.data, cfg.target_column)
    _progress(f"predicting {rows.shape[0]} rows with {args.model}")
    predictions = model.predict(rows)
    lines = "prediction\n" + "".join(f"{v!r}\n" for v in predictions.tolist())
    if args.out is not None:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(lines)
        _progress(f"wrote {args.out}")
    else:
        sys.stdout.write(lines)
    return 0


def _write_json(path: Path, doc) -> None:
    """Write ``doc`` as JSON indented by 2 with a final newline, streamed to the file."""
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")


def _write_method_artifacts(out: Path, cfg: ExperimentConfig, result, labels) -> dict:
    """Write one method's artifacts and return the encoded result that report.json holds.

    The JSON documents and the grid go to their files piece by piece, so
    neither file's whole text is held in memory.
    """
    encoded = result.to_dict(labels)
    _write_json(out / "report.json", {"config": cfg.to_dict(), "result": encoded})
    with open(out / "grid.csv", "w") as handle:
        handle.writelines(grid_csv_blocks(result.report))
    trace = None if result.selection is None else encode(result.selection.trace)
    _write_json(out / "trace.json", {"selection": trace})
    save_pipeline(result.model, out / "model.json")
    return encoded


def cmd_run_method(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    train, test = _load_data(cfg, need_test=True)
    shown = preprocess(train, cfg.preprocessing)
    if args.dry_run:
        print("\n".join(plan_lines(shown, cfg, [cfg.method])))
        return 0
    spec = METHOD_TABLE[cfg.method]
    _progress(f"running method {cfg.method} ({spec.label}), {_parallelism(cfg.workers)}")
    result = run_method(train, test, cfg)
    if result.selection is not None:
        _warn_if_uninformative(*astuple(result.selection.best_mi))
    out = _out_dir(cfg, f"method-{cfg.method:02d}", f"seed-{cfg.seed}")
    _write_method_artifacts(out, cfg, result, shown.variable_labels)
    _progress(f"wrote {out / 'report.json'}")
    print(
        f"method {cfg.method} ({spec.label}): NMSE_T = {result.nmse_t:.2E} "
        f"({result.n_inputs} inputs)"
    )
    return 0


def _benchmark_table(results, best: list[int]) -> str:
    header = f"{'':2} {'#':>2}  {'inputs':22} {'n':>3}  {'model':8} {'NMSE_T':>9}"
    lines = [header, "-" * len(header)]
    for r in results:
        spec = METHOD_TABLE[r.method]
        mark = "*" if r.method in best else ""
        if isinstance(r, MethodResult):
            lines.append(
                f"{mark:2} {r.method:>2}  {spec.input_label:22} {r.n_inputs:>3}  "
                f"{spec.model:8} {r.nmse_t:>9.2E}"
            )
        else:
            lines.append(f"{mark:2} {r.method:>2}  {spec.input_label:22} failed: {r.error}")
    return "\n".join(lines)


def cmd_reproduce(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    train, test = _load_data(cfg, need_test=True)
    methods = sorted(METHOD_TABLE)
    shown = preprocess(train, cfg.preprocessing)
    if args.dry_run:
        print("\n".join(plan_lines(shown, cfg, methods)))
        return 0
    _progress(f"running all {len(methods)} methods, {_parallelism(cfg.workers)}")
    results = reproduce(train, test, cfg)
    # Methods 11-13 share one selection; warn about it once.
    selections = [r.selection for r in results if isinstance(r, MethodResult) and r.selection]
    if selections:
        _warn_if_uninformative(*astuple(selections[0].best_mi))
    best = best_methods(results)
    labels = shown.variable_labels

    out = _out_dir(cfg, f"seed-{cfg.seed}")
    method_docs = []
    for r in results:
        if isinstance(r, MethodResult):
            sub = out / f"method-{r.method:02d}"
            sub.mkdir(parents=True, exist_ok=True)
            method_docs.append(_write_method_artifacts(sub, cfg, r, labels))
        else:
            _progress(f"method {r.method} ({r.label}) failed: {r.error}")
            method_docs.append(encode(r))
    doc = {"config": cfg.to_dict(), "best": best, "methods": method_docs}
    _write_json(out / "benchmark.json", doc)
    _progress(f"wrote {out / 'benchmark.json'}")
    print(_benchmark_table(results, best))
    if not best:  # no method succeeded: exit with the first failure's code
        raise results[0].exception
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_config_flags(p: argparse.ArgumentParser, *, grids: bool = False) -> None:
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--dataset", help="named dataset: tecator or juice")
    p.add_argument("--train", dest="train_path", help="training CSV path")
    p.add_argument("--test", dest="test_path", help="test CSV path")
    p.add_argument(
        "--target-column", dest="target_column", help="target column: header name or 0-based position"
    )
    p.add_argument(
        "--preprocessing",
        choices=PREPROCESSINGS,
        help="input preprocessing (default none)",
    )
    p.add_argument("--k", type=int, help="nearest-neighbor count for MI (default 6)")
    p.add_argument("--p", dest="pool_size", type=int, help="candidate pool size (default 16)")
    p.add_argument("--folds", type=int, help="cross-validation fold count (default 4)")
    p.add_argument("--seed", type=int, help="experiment seed (default 0)")
    p.add_argument(
        "--workers", type=int, help="parallel workers (default: machine parallelism)"
    )
    p.add_argument("--out", dest="out_dir", help="output root directory (default reports)")
    if grids:
        p.add_argument("--method", type=int, help="benchmark method id, 1..13")
        p.add_argument("--gamma-count", dest="gamma_count", type=int, help=argparse.SUPPRESS)
        p.add_argument("--sigma-count", dest="sigma_count", type=int, help=argparse.SUPPRESS)
        p.add_argument("--wsf-count", dest="wsf_count", type=int, help=argparse.SUPPRESS)
        p.add_argument(
            "--max-centroids", dest="max_centroids", type=int, help=argparse.SUPPRESS
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mivarsel",
        description="Mutual-information variable selection and the 13-method benchmark",
        epilog=f"Data cache directory: ${DATA_DIR_ENV} (default ./data)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch-data", help="download the Tecator archive into the cache")
    p.add_argument("--url", default=TECATOR_URL, help="the archive URL (default: %(default)s)")
    p.set_defaults(func=cmd_fetch_data)

    p = sub.add_parser("estimate", help="write the per-variable MI table")
    _add_config_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select", help="run the full variable-selection pipeline")
    _add_config_flags(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", help="cross-validate one method and save the model")
    _add_config_flags(p, grids=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="apply a saved model to new rows")
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--data", required=True, help="CSV of input rows")
    p.add_argument("--out", default=None, help="predictions CSV (default: stdout)")
    p.add_argument(
        "--target-column", dest="target_column",
        help="target column to drop: header name or 0-based position",
    )
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("run-method", help="train and evaluate one benchmark method")
    _add_config_flags(p, grids=True)
    p.add_argument("--dry-run", action="store_true", help="print the plan, compute nothing")
    p.set_defaults(func=cmd_run_method)

    p = sub.add_parser("reproduce", help="run all 13 benchmark methods")
    _add_config_flags(p, grids=True)
    p.add_argument("--dry-run", action="store_true", help="print the plan, compute nothing")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _progress(f"configuration error: {exc}")
        return _EXIT_CONFIG
    except DataError as exc:
        _progress(f"data error: {exc}")
        return _EXIT_DATA
    except NumericalError as exc:
        _progress(f"numerical failure: {exc}")
        return _EXIT_NUMERICAL
    except ValueError as exc:
        _progress(f"invalid value: {exc}")
        return _EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        _progress(f"data error: {exc}")
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
