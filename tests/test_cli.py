"""Command-line behavior: artifacts, exit codes, config merging."""

from __future__ import annotations

import csv
import importlib.util
import itertools
import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import mivarsel
from mivarsel import evaluation
from mivarsel.cli import build_parser, main
from mivarsel.dataset import Dataset, load_csv, save_csv
from mivarsel.errors import NumericalError
from mivarsel.evaluation import nmse, pooled_target_variance
from mivarsel.methods import ExperimentConfig, MethodResult, build_method_sweep
from mivarsel.models import load_pipeline
from mivarsel.selector import individual_mis, rank_by_individual_mi


@pytest.fixture()
def csvs(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 6))
    y = x[:, 0] + x[:, 1] ** 2 + 0.05 * rng.normal(size=60)
    xt = rng.normal(size=(20, 6))
    yt = xt[:, 0] + xt[:, 1] ** 2 + 0.05 * rng.normal(size=20)
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(Dataset(x, y), train)
    save_csv(Dataset(xt, yt), test)
    return train, test, tmp_path / "reports"


def _args(csvs, *extra):
    train, test, out = csvs
    return [
        "--train", str(train), "--test", str(test), "--out", str(out),
        "--p", "3", "--folds", "3", *extra,
    ]


_GRIDS = [
    "--gamma-count", "6", "--sigma-count", "4", "--wsf-count", "2",
    "--max-centroids", "4",
]


class TestEstimate:
    def test_writes_descending_table(self, csvs, capsys):
        assert main(["estimate", *_args(csvs)]) == 0
        out = csvs[2] / "custom" / "mi.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == "variable,label,mi_nats"
        assert len(lines) == 1 + 6
        mis = [float(line.split(",")[2]) for line in lines[1:]]
        assert mis == sorted(mis, reverse=True)
        assert capsys.readouterr().out == ""  # table goes to the file only

    def test_reruns_are_byte_identical(self, csvs):
        main(["estimate", *_args(csvs)])
        first = (csvs[2] / "custom" / "mi.csv").read_bytes()
        main(["estimate", *_args(csvs)])
        assert (csvs[2] / "custom" / "mi.csv").read_bytes() == first

    def test_order_is_the_selector_ranking(self, tmp_path):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 4))
        x = np.column_stack([x, x[:, 1]])  # column 4 repeats column 1: an exact MI tie
        y = x[:, 1] + 0.5 * x[:, 3] + 0.05 * rng.normal(size=50)
        train = tmp_path / "dup.csv"
        save_csv(Dataset(x, y), train)
        assert main(["estimate", "--train", str(train), "--out", str(tmp_path / "r")]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "r" / "custom" / "mi.csv").read_text().splitlines()[1:]]
        order = [int(r[0]) for r in rows]
        assert order == list(rank_by_individual_mi(load_csv(train)).indices)
        mi = {int(r[0]): r[2] for r in rows}
        assert mi[1] == mi[4] and order.index(1) < order.index(4)

    def test_labels_with_commas_and_quotes_read_back(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 3))
        y = x[:, 0] + 0.1 * rng.normal(size=40)
        train = tmp_path / "labels.csv"
        with open(train, "w", newline="") as handle:
            handle.write('"850,0","say ""hi""",c,target\n')
            for row in np.column_stack([x, y]).tolist():
                handle.write(",".join(map(repr, row)) + "\n")
        d = load_csv(train)
        assert d.labels == ("850,0", 'say "hi"', "c")
        assert main(["estimate", "--train", str(train), "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r" / "custom" / "mi.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["variable", "label", "mi_nats"]
        mis, ranking = individual_mis(d), rank_by_individual_mi(d).indices
        assert [r[:2] for r in rows[1:]] == [[str(j), d.labels[j]] for j in ranking]
        assert [float(r[2]) for r in rows[1:]] == [mis[j] for j in ranking]

    def test_normalization_extends_the_table(self, csvs):
        assert main(["estimate", *_args(csvs), "--preprocessing", "spectrum-normalize"]) == 0
        lines = (csvs[2] / "custom" / "mi.csv").read_text().splitlines()
        assert len(lines) == 1 + 8  # row mean and row std join the variables


class TestSelect:
    def test_artifacts_and_stdout(self, csvs, capsys):
        assert main(["select", *_args(csvs)]) == 0
        printed = capsys.readouterr().out
        assert "variables selected" in printed
        doc = json.loads((csvs[2] / "custom" / "selection.json").read_text())
        assert doc["config"]["pool_size"] == 3
        assert doc["config"]["workers"] >= 1  # machine default filled in
        assert doc["selection"]["best"]["indices"]
        trace = json.loads((csvs[2] / "custom" / "trace.json").read_text())
        assert trace["steps"]

    def test_informative_variables_found(self, csvs, capsys):
        main(["select", *_args(csvs)])
        doc = json.loads((csvs[2] / "custom" / "selection.json").read_text())
        best = set(doc["selection"]["best"]["indices"])
        assert {0, 1} <= best


class TestTrainPredict:
    def test_train_writes_model_and_summary(self, csvs, capsys):
        assert main(["train", *_args(csvs), *_GRIDS, "--method", "12"]) == 0
        out = csvs[2] / "custom" / "method-12" / "seed-0"
        assert (out / "model.json").exists()
        summary = json.loads((out / "train.json").read_text())
        assert summary["kind"] == "mi+lssvm"
        assert set(summary["winner_params"]) == {"sigma", "gamma"}
        assert summary["mean_nmse_v"] < 0.2
        assert "winner" in capsys.readouterr().out

    def test_predict_to_stdout_drops_target_column(self, csvs, capsys):
        train, test, out = csvs
        main(["train", *_args(csvs), *_GRIDS, "--method", "13"])
        capsys.readouterr()  # discard the training summary
        model_path = out / "custom" / "method-13" / "seed-0" / "model.json"
        assert main(["predict", "--model", str(model_path), "--data", str(test)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "prediction"
        got = np.array([float(v) for v in lines[1:]])
        want = load_pipeline(model_path).predict(load_csv(test).X)
        assert np.array_equal(got, want)

    def test_predict_to_file_without_header(self, csvs, tmp_path):
        train, test, out = csvs
        main(["train", *_args(csvs), *_GRIDS, "--method", "13"])
        model_path = out / "custom" / "method-13" / "seed-0" / "model.json"
        raw = tmp_path / "raw.csv"  # headerless feature rows
        rows = load_csv(test).X
        raw.write_text("\n".join(",".join(repr(float(v)) for v in r) for r in rows) + "\n")
        dest = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", str(model_path), "--data", str(raw), "--out", str(dest),
        ]) == 0
        got = [float(v) for v in dest.read_text().splitlines()[1:]]
        assert len(got) == rows.shape[0]

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("0.1,nan,0.3,0.4,0.5,0.6", "row 1, column 1: non-finite value 'nan'"),
            ("0.1,0.2", "row 1: expected 6 columns, found 2"),
        ],
        ids=["nan", "ragged"],
    )
    def test_predict_rejects_bad_rows_as_data_error(self, csvs, tmp_path, capsys, bad_row, message):
        main(["train", *_args(csvs), *_GRIDS, "--method", "13"])
        model_path = csvs[2] / "custom" / "method-13" / "seed-0" / "model.json"
        rows = tmp_path / "rows.csv"
        rows.write_text("x0,x1,x2,x3,x4,x5\n0.1,0.2,0.3,0.4,0.5,0.6\n" + bad_row + "\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(rows)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("method", [13, 1], ids=["variables", "projection"])
    def test_predict_rejects_wrong_width_as_data_error(self, csvs, tmp_path, capsys, method):
        main(["train", *_args(csvs), *_GRIDS, "--method", str(method)])
        model_path = csvs[2] / "custom" / f"method-{method:02d}" / "seed-0" / "model.json"
        assert json.loads(model_path.read_text())["data"]["n_inputs"] == 6
        rows = tmp_path / "narrow.csv"
        rows.write_text("x0,x1\n0.1,0.2\n0.3,0.4\n")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(rows)]) == 3
        captured = capsys.readouterr()
        assert "trained on 6 input columns, rows have 2" in captured.err
        assert captured.out == ""

    def test_predict_keeps_the_first_row_after_a_byte_order_mark(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        rows = (data / "rows.csv").read_bytes().split(b"\n", 1)[1]  # drop the header
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + rows)
        model = data / "pipeline-mi-normalize.json"
        assert main(["predict", "--model", str(model), "--data", str(bom)]) == 0
        got = capsys.readouterr().out
        assert got == (data / "pipeline-mi-normalize.predictions.csv").read_text()
        assert len(got.splitlines()) == 1 + 5

    def test_predict_drops_a_positional_target(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        rows = (data / "rows.csv").read_text().splitlines()[1:]  # drop the header
        with_target = tmp_path / "with-target.csv"
        with_target.write_text("".join(f"0.0,{row}\n" for row in rows))
        model = data / "pipeline-mi-normalize.json"
        argv = ["predict", "--model", str(model), "--data", str(with_target)]
        assert main([*argv, "--target-column", "0"]) == 0
        assert capsys.readouterr().out == (data / "pipeline-mi-normalize.predictions.csv").read_text()
        assert main(argv) == 3  # without the flag every column is an input
        assert "trained on 3 input columns, rows have 4" in capsys.readouterr().err

    def test_train_and_predict_agree_on_a_positional_target(self, csvs, tmp_path, capsys):
        train, test, out = csvs
        headerless = []
        for src in (train, test):
            d = load_csv(src)
            path = tmp_path / f"headerless-{src.name}"
            path.write_text("".join(
                ",".join(map(repr, [t, *row])) + "\n" for t, row in zip(d.y.tolist(), d.X.tolist())
            ))
            headerless.append(path)
        assert main([
            "train", "--train", str(headerless[0]), "--test", str(headerless[1]),
            "--out", str(out), "--p", "3", "--folds", "3", *_GRIDS, "--method", "13",
            "--target-column", "0",
        ]) == 0
        model_path = out / "custom" / "method-13" / "seed-0" / "model.json"
        capsys.readouterr()
        assert main([
            "predict", "--model", str(model_path), "--data", str(headerless[1]),
            "--target-column", "0",
        ]) == 0
        got = np.array([float(v) for v in capsys.readouterr().out.splitlines()[1:]])
        want = load_pipeline(model_path).predict(load_csv(test).X)
        assert np.array_equal(got, want)

    def test_repeated_target_name_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,target,target\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        model = Path(__file__).parent / "data" / "pipeline-mi-normalize.json"
        assert main(["estimate", "--train", str(path), "--out", str(tmp_path / "r")]) == 3
        assert main(["predict", "--model", str(model), "--data", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("'target' appears more than once in the header, at columns 1, 2") == 2

    @pytest.mark.parametrize(
        "name, message",
        [
            ("pipeline-no-n-inputs", "model takes at least 2 input columns, rows have 1"),
            ("pipeline-pca-whiten", "model takes 3 input columns, rows have 1"),
            ("model-plain", "model takes 3 input columns, rows have 1"),
        ],
    )
    def test_narrow_rows_without_a_recorded_width_are_a_data_error(
        self, tmp_path, capsys, name, message
    ):
        doc = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
        doc["data"].pop("n_inputs", None)  # as written before the width was recorded
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc) + "\n")
        rows = tmp_path / "narrow.csv"
        rows.write_text("x0\n0.5\n1.5\n")
        assert main(["predict", "--model", str(model_path), "--data", str(rows)]) == 3
        captured = capsys.readouterr()
        assert f"data error: {message}" in captured.err
        assert captured.out == ""

    def test_normalizing_document_without_a_recorded_width_is_a_data_error(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        doc = json.loads((data / "pipeline-mi-normalize.json").read_text())
        del doc["data"]["n_inputs"]  # as written before the width was recorded
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc) + "\n")
        assert main(["predict", "--model", str(model_path), "--data", str(data / "rows.csv")]) == 3
        captured = capsys.readouterr()
        assert "data error: model records no n_inputs" in captured.err
        assert captured.out == ""

    def test_document_without_width_still_predicts(self, csvs, capsys):
        train, test, out = csvs
        main(["train", *_args(csvs), *_GRIDS, "--method", "13"])
        model_path = out / "custom" / "method-13" / "seed-0" / "model.json"
        want = load_pipeline(model_path).predict(load_csv(test).X)
        doc = json.loads(model_path.read_text())
        del doc["data"]["n_inputs"]  # as written before the width was recorded
        model_path.write_text(json.dumps(doc) + "\n")
        assert load_pipeline(model_path).n_inputs is None
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--data", str(test)]) == 0
        got = np.array([float(v) for v in capsys.readouterr().out.splitlines()[1:]])
        assert np.array_equal(got, want)


class TestRunMethod:
    def test_report_directory_layout(self, csvs, capsys):
        assert main(["run-method", *_args(csvs), *_GRIDS, "--method", "12"]) == 0
        out = csvs[2] / "custom" / "method-12" / "seed-0"
        assert sorted(p.name for p in out.iterdir()) == [
            "grid.csv", "model.json", "report.json", "trace.json",
        ]
        assert "NMSE_T" in capsys.readouterr().out

    def test_saved_model_reproduces_reported_score(self, csvs):
        train, test, out = csvs
        main(["run-method", *_args(csvs), *_GRIDS, "--method", "12"])
        base = out / "custom" / "method-12" / "seed-0"
        doc = json.loads((base / "report.json").read_text())
        report = doc["result"]["report"]
        model = load_pipeline(base / "model.json")
        d = load_csv(test)
        recomputed = nmse(model.predict(d.X), d.y, report["var_y"])
        assert recomputed == report["nmse_t"]

    def test_grid_csv_has_all_points(self, csvs):
        main(["run-method", *_args(csvs), *_GRIDS, "--method", "12"])
        lines = (csvs[2] / "custom" / "method-12" / "seed-0" / "grid.csv").read_text().splitlines()
        assert lines[0] == "grid_index,params,fold,nmse_l,nmse_v"
        assert len(lines) == 1 + 6 * 4 * 3  # sigma x gamma points, one row per fold

    def test_dry_run_counts_subsets_without_computing(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 20))
        train, test = tmp_path / "w_train.csv", tmp_path / "w_test.csv"
        save_csv(Dataset(x, rng.normal(size=30)), train)
        save_csv(Dataset(x[:8], rng.normal(size=8)), test)
        out = tmp_path / "r"
        assert main([
            "run-method", "--train", str(train), "--test", str(test),
            "--out", str(out), "--p", "16", "--method", "12", "--dry-run",
        ]) == 0
        plan = capsys.readouterr().out
        assert "65536 subsets (65535 non-empty)" in plan
        assert "pool of 16 variables, grown to a larger greedy subset's size up to 20," in plan
        assert "nothing computed" in plan
        assert not out.exists()


class TestDegenerateK:
    """With k = N - 1 every subset scores 0.0: the CLI says so, and writes what it always did."""

    @pytest.fixture()
    def seven(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 3))
        xt = rng.normal(size=(5, 3))
        train, test = tmp_path / "seven_train.csv", tmp_path / "seven_test.csv"
        save_csv(Dataset(x, x[:, 0] + 0.1 * rng.normal(size=7)), train)
        save_csv(Dataset(xt, xt[:, 0]), test)
        return train, test, tmp_path / "r"

    def test_select_warns_on_stderr(self, seven, capsys):
        train, _, out = seven
        args = ["select", "--train", str(train), "--out", str(out), "--p", "3"]
        assert main([*args, "--k", "6"]) == 0
        captured = capsys.readouterr()
        assert "warning" in captured.err and "k=6" in captured.err and "N=7" in captured.err
        assert "warning" not in captured.out
        doc = json.loads((out / "custom" / "selection.json").read_text())
        assert doc["selection"]["best_mi"]["value"] == 0.0
        assert doc["selection"]["best"]["indices"] == [0]  # the tie rule's pick
        assert main([*args, "--k", "2"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_estimate_warns_on_stderr(self, seven, capsys):
        train, _, out = seven
        args = ["estimate", "--train", str(train), "--out", str(out)]
        assert main([*args, "--k", "6"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("warning") == 1 and "k=6" in captured.err and "N=7" in captured.err
        assert "warning" not in captured.out
        rows = (out / "custom" / "mi.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.0"] * 3
        assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]  # the tie rule's order
        assert main([*args, "--k", "2"]) == 0
        assert "warning" not in capsys.readouterr().err

    def test_run_method_warns_on_stderr(self, seven, capsys):
        train, test, out = seven
        assert main([
            "run-method", "--train", str(train), "--test", str(test), "--out", str(out),
            "--p", "3", "--k", "6", "--folds", "2", "--method", "11", *_GRIDS,
        ]) == 0
        err = capsys.readouterr().err
        assert "warning" in err and "k=6" in err and "N=7" in err
        assert (out / "custom" / "method-11" / "seed-0" / "report.json").exists()

    @pytest.mark.parametrize("command", [["train", "--method", "12"], ["reproduce"]])
    def test_train_and_reproduce_warn_on_stderr(self, seven, capsys, command):
        train, test, out = seven
        assert main([
            *command, "--train", str(train), "--test", str(test), "--out", str(out),
            "--p", "3", "--k", "6", "--folds", "2", *_GRIDS,
        ]) == 0
        err = capsys.readouterr().err
        assert err.count("warning") == 1 and "k=6" in err and "N=7" in err


class TestReproduce:
    def test_benchmark_artifacts(self, csvs, capsys):
        assert main(["reproduce", *_args(csvs), *_GRIDS, "--seed", "2"]) == 0
        out = csvs[2] / "custom" / "seed-2"
        doc = json.loads((out / "benchmark.json").read_text())
        assert len(doc["methods"]) == 13
        assert len(doc["best"]) == 2
        assert doc["config"]["seed"] == 2
        for i in range(1, 14):
            assert (out / f"method-{i:02d}" / "report.json").exists()
        table = capsys.readouterr().out
        assert table.count("\n") >= 14  # header, rule, thirteen rows
        assert "*" in table  # best methods marked

    def test_each_report_encoded_once(self, csvs, monkeypatch):
        encoded = []
        inner = MethodResult.to_dict

        def counted(self, labels=None):
            encoded.append(self.method)
            return inner(self, labels)

        monkeypatch.setattr(MethodResult, "to_dict", counted)
        assert main(["reproduce", *_args(csvs), *_GRIDS, "--seed", "2"]) == 0
        out = csvs[2] / "custom" / "seed-2"
        methods = json.loads((out / "benchmark.json").read_text())["methods"]
        succeeded = [m["method"] for m in methods if "error" not in m]
        assert succeeded and sorted(encoded) == succeeded
        for doc in methods:
            if "error" not in doc:
                report = out / f"method-{doc['method']:02d}" / "report.json"
                assert json.loads(report.read_text())["result"] == doc

    def test_dry_run_plans_all_methods(self, csvs, capsys):
        assert main(["reproduce", *_args(csvs), "--dry-run"]) == 0
        plan = capsys.readouterr().out
        for i in range(1, 14):
            assert f"method {i} (" in plan
        assert "8 subsets (7 non-empty)" in plan  # pool of 3

    @pytest.mark.parametrize("method", range(1, 14))
    def test_dry_run_point_count_is_the_built_sweeps(self, csvs, capsys, method):
        argv = ["run-method", *_args(csvs), *_GRIDS, "--method", str(method), "--workers", "1"]
        assert main([*argv, "--dry-run"]) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith(f"method {method} (")
        )
        planned = int(re.findall(r"(\d+) points?\b", line)[-1])
        train = load_csv(csvs[0])
        cfg = ExperimentConfig(
            method=method, pool_size=3, folds=3, gamma_count=6, sigma_count=4, wsf_count=2,
            max_centroids=4,
        )
        sweep, _, _ = build_method_sweep(train, cfg, {}, pooled_target_variance(train))
        assert planned == len(sweep.grid)


@pytest.fixture()
def wide_test(tmp_path):
    """Train CSV with 5 inputs and a test CSV with one extra leading column (6 inputs)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(60, 5))
    xt = rng.normal(size=(20, 6))
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    save_csv(Dataset(x, x[:, 0] + x[:, 1] ** 2 + 0.05 * rng.normal(size=60)), train)
    save_csv(Dataset(xt, xt[:, 1] + xt[:, 2] ** 2), test)
    return train, test, tmp_path / "reports"


class TestTestSetWidth:
    """A test set must have the training set's width, whichever method scores it."""

    @pytest.mark.parametrize("method", ["11", "12", "13"])
    def test_run_method_on_selected_variables_is_a_data_error(self, wide_test, capsys, method):
        # The selected columns exist in the wider rows too; the width still decides.
        assert main(["run-method", *_args(wide_test), *_GRIDS, "--method", method]) == 3
        captured = capsys.readouterr()
        assert "data error: model was trained on 5 input columns, rows have 6" in captured.err
        assert "NMSE_T" not in captured.out
        assert not (wide_test[2] / "custom" / f"method-{int(method):02d}").exists()

    def test_reproduce_renders_every_method_failed(self, wide_test, capsys):
        assert main(["reproduce", *_args(wide_test), *_GRIDS]) == 3
        captured = capsys.readouterr()
        rows = captured.out.splitlines()[2:]
        assert len(rows) == 13
        assert all("failed: " in row and "rows have 6" in row for row in rows)
        assert "*" not in captured.out
        assert captured.err.count(") failed: ") == 13
        out = wide_test[2] / "custom" / "seed-0"
        doc = json.loads((out / "benchmark.json").read_text())
        assert doc["best"] == []
        assert [m["method"] for m in doc["methods"]] == list(range(1, 14))
        for m in doc["methods"]:
            assert sorted(m) == ["error", "label", "method"]
            assert "rows have 6" in m["error"]
        assert sorted(p.name for p in out.iterdir()) == ["benchmark.json"]


def _awkward_split(kind: str):
    """40 training and 12 test rows (x, y, xt, yt) of one awkward input, 4 variables wide."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(52, 4))
    y = x[:, 0] + x[:, 1] ** 2 + 0.1 * rng.normal(size=52)
    n = 40
    if kind == "constant-target":
        y = np.full(52, 0.1)
    elif kind == "duplicated-rows":
        x, y = np.repeat(x[:26], 2, axis=0), np.repeat(y[:26], 2)
    elif kind == "constant-column":
        x[:, 2] = 3.0
    elif kind == "one-variable":
        x = x[:, :1]
    elif kind == "8-training-rows":
        n = 8
    elif kind == "binary-target":
        y = (y > np.median(y)).astype(float)
    elif kind == "rounded-inputs":
        x = np.round(x, 1)
    elif kind == "nan-cell":
        x[2, 1] = np.nan
    elif kind == "x-1e150":
        x = x * 1e150
    elif kind == "x-1e-160":
        x = x * 1e-160
    elif kind == "y-1e200":
        y = y * 1e200
    return x[:n], y[:n], x[n:], y[n:]


def _write_rows(path: Path, x, y, header) -> None:
    rows = [",".join(map(repr, row)) for row in np.column_stack([x, y]).tolist()]
    path.write_text("\n".join([",".join(header), *rows]) + "\n")


_OK = (0, "wrote ")
# input -> (expected where the command estimates MI, expected where it does not),
# each an (exit code, stderr substring) pair
_AWKWARD = {
    "constant-target": ((3, "constant"), (3, "constant")),
    "duplicated-rows": (_OK, _OK),
    "constant-column": (_OK, _OK),
    "one-variable": (_OK, _OK),
    "8-training-rows": (_OK, _OK),
    "binary-target": (_OK, _OK),
    "rounded-inputs": (_OK, _OK),
    "nan-cell": ((3, "non-finite value 'nan'"), (3, "non-finite value 'nan'")),
    # The max norm lets inputs at 1e150 drown the target: no variable carries measurable MI.
    "x-1e150": ((0, "warning: the highest MI is 0.0 nats"), _OK),
    "x-1e-160": ((4, "underflow"), _OK),
    "y-1e200": ((4, "overflow"), (4, "the target's variance overflows")),
    "numeric-header": ((3, "no header row"), (3, "no header row")),
}
# command -> (argv, artifact written on success, whether it estimates MI)
_MATRIX_COMMANDS = {
    "estimate": (["estimate"], "mi.csv", True),
    "select": (["select"], "selection.json", True),
    **{
        f"run-method-{m}": (
            ["run-method", "--method", str(m), *_GRIDS],
            f"method-{m:02d}/seed-0/report.json",
            m == 12,
        )
        for m in (1, 3, 5, 12)
    },
}


class TestAwkwardInputs:
    """Legal but awkward inputs give an answer or a typed error, never a silent wrong number."""

    @pytest.mark.parametrize(
        "kind, command", list(itertools.product(_AWKWARD, _MATRIX_COMMANDS))
    )
    def test_exit_code_and_message(self, tmp_path, capsys, kind, command):
        x, y, xt, yt = _awkward_split(kind)
        header = [f"x{j}" for j in range(x.shape[1])] + ["target"]
        if kind == "numeric-header":
            header = [str(j) for j in range(len(header))]
        train, test, out = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "r"
        _write_rows(train, x, y, header)
        _write_rows(test, xt, yt, header)
        argv, artifact, estimates_mi = _MATRIX_COMMANDS[command]
        code, message = _AWKWARD[kind][0 if estimates_mi else 1]
        assert main([*argv, *_args((train, test, out)), "--workers", "1"]) == code
        assert message in capsys.readouterr().err
        assert (out / "custom" / artifact).exists() == (code == 0)


def _pipeline_document(**fields) -> dict:
    """A pipeline document around a two-input linear model, with ``fields`` set as given."""
    model = {"format": "mivarsel-model", "version": 1, "kind": "linear",
             "data": {"coefficients": [1.0, 2.0], "intercept": 0.0}}
    return {"format": "mivarsel-model", "version": 1, "kind": "pipeline",
            "data": {"model": model, **fields}}


class TestExitCodes:
    def test_bad_method_is_config_error(self, csvs):
        assert main(["run-method", *_args(csvs), "--method", "99"]) == 2

    def test_missing_file_is_data_error(self, csvs):
        assert main(["estimate", "--train", "/nonexistent.csv", "--out", str(csvs[2])]) == 3

    @pytest.mark.parametrize("command", ["run-method", "train"])
    def test_constant_target_whose_mean_rounds_is_data_error(self, tmp_path, capsys, command):
        # All-0.1 targets leave a variance of about 1e-33 from the rounding of their mean.
        rng = np.random.default_rng(0)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(Dataset(rng.normal(size=(60, 5)), np.full(60, 0.1)), train)
        save_csv(Dataset(rng.normal(size=(20, 5)), np.full(20, 0.1)), test)
        argv = [command, *_args((train, test, tmp_path / "r")), "--method", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "data error" in captured.err and "constant" in captured.err
        assert "NMSE_T" not in captured.out

    def test_missing_named_dataset_is_data_error(self, csvs, monkeypatch):
        monkeypatch.setenv("MIVARSEL_DATA_DIR", str(csvs[2] / "empty"))
        assert main(["estimate", "--dataset", "tecator", "--out", str(csvs[2])]) == 3

    def test_unknown_dataset_is_config_error(self, csvs):
        assert main(["estimate", "--dataset", "wine", "--out", str(csvs[2])]) == 2

    def test_no_data_is_config_error(self):
        assert main(["estimate"]) == 2

    def test_degenerate_inputs_are_numerical_error(self, tmp_path):
        ones = np.ones((30, 4))
        rng = np.random.default_rng(3)
        train, test = tmp_path / "c_train.csv", tmp_path / "c_test.csv"
        save_csv(Dataset(ones, rng.normal(size=30)), train)
        save_csv(Dataset(ones[:10], rng.normal(size=10)), test)
        rc = main([
            "run-method", "--train", str(train), "--test", str(test),
            "--out", str(tmp_path / "r"), "--method", "1", "--folds", "3",
        ])
        assert rc == 4

    def test_every_rbfn_cell_failing_is_numerical_error(self, csvs, capsys, monkeypatch):
        def failing(phi, y):
            raise NumericalError("planted least-squares failure")

        monkeypatch.setattr(evaluation, "_lstsq_with_bias", failing)
        argv = [*_args(csvs), *_GRIDS, "--workers", "1"]
        assert main(["run-method", *argv, "--method", "3"]) == 4
        assert "numerical failure: every grid point failed" in capsys.readouterr().err
        assert main(["reproduce", *argv]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        failed = {int(row[3:5]) for row in rows if "failed: every grid point failed" in row}
        assert failed == {3, 4, 7, 8, 11}  # the RBFN methods; the others still score

    def test_train_with_every_point_failing_names_the_reason(self, csvs, capsys, monkeypatch):
        def failing(self, learn, valid, var_y):
            raise NumericalError("planted fold failure")

        monkeypatch.setattr(evaluation.ComponentSweep, "evaluate_fold", failing)
        assert main(["train", *_args(csvs), "--method", "1", "--workers", "1"]) == 4
        err = capsys.readouterr().err
        assert "every grid point failed on at least one fold (" in err
        assert " points: planted fold failure)" in err

    def test_overflowing_distances_are_numerical_error(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        x[:, 1] *= 1e160
        train = tmp_path / "huge.csv"
        save_csv(Dataset(x, x[:, 0] + rng.normal(size=40)), train)
        rc = main(["estimate", "--train", str(train), "--out", str(tmp_path / "r")])
        assert rc == 4

    def test_invalid_config_file_is_config_error(self, csvs, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["select", *_args(csvs), "--config", str(bad)]) == 2
        bad.write_text(json.dumps({"method": 1, "bogus": True}))
        assert main(["select", *_args(csvs), "--config", str(bad)]) == 2
        # Each field takes only its own JSON type, and the error names the field.
        train, test, out = csvs
        capsys.readouterr()
        for field, value in [
            ("k", "6"), ("k", True), ("folds", 2.5), ("seed", 1.5), ("target_column", 12.7)
        ]:
            bad.write_text(json.dumps({field: value}))
            rc = main(["run-method", "--train", str(train), "--test", str(test),
                       "--out", str(out), "--config", str(bad)])
            assert rc == 2, field
            assert f"field '{field}'" in capsys.readouterr().err

    def test_negative_seed_is_config_error_before_the_data_is_read(self, csvs, tmp_path, capsys):
        # Continuous data: no tie draws jitter, so only the config check can reject the seed.
        assert main(["select", *_args(csvs), "--seed", "-1"]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv = ["select", "--config", str(cfg), "--train", str(tmp_path / "absent.csv")]
        assert main([*argv, "--out", str(csvs[2])]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_oversized_csv_field_is_data_error(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text('x0,target\n1.0,2.0\n"' + "1" * 200_000 + '",3.0\n')
        rc = main(["estimate", "--train", str(big), "--out", str(tmp_path / "r")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(big) in err and "line 3" in err and "field larger than field limit" in err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"format": "mivarsel-model", "version": 1, "kind": "pipeline", "data": {}}, "'model'"),
            ([1, 2], "not a model document"),
            (
                {"format": "mivarsel-model", "version": 1, "kind": "linear",
                 "data": {"coefficients": [1.0, 2.0]}},
                "'intercept'",
            ),
            (_pipeline_document(variables="02"), "'variables': expected a JSON list"),
            (_pipeline_document(n_inputs=3.7), "'n_inputs': expected a JSON integer"),
            (_pipeline_document(n_inputs=True), "'n_inputs': expected a JSON integer"),
        ],
        ids=[
            "empty-pipeline", "array", "linear-without-intercept",
            "variables-string", "n-inputs-float", "n-inputs-bool",
        ],
    )
    def test_malformed_model_document_is_config_error(self, csvs, tmp_path, capsys, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert main(["predict", "--model", str(path), "--data", str(csvs[1])]) == 2
        err = capsys.readouterr().err
        assert "invalid value" in err and message in err

    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestReadme:
    def test_command_line_examples_parse(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line)[1:] for line in block.splitlines() if line.startswith("mivarsel ")
        ]
        assert len(commands) >= 8
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: mivarsel {shlex.join(argv)}")


class TestConfigMerging:
    def test_flags_override_config_file(self, csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pool_size": 5, "folds": 3, "seed": 7}))
        assert main([
            "select", "--config", str(cfg), "--train", str(csvs[0]),
            "--out", str(csvs[2]), "--p", "2",
        ]) == 0
        doc = json.loads((csvs[2] / "custom" / "selection.json").read_text())
        assert doc["config"]["pool_size"] == 2  # flag wins
        assert doc["config"]["seed"] == 7  # file survives where no flag given


class TestFetchData:
    @pytest.fixture()
    def archive(self, tmp_path):
        rng = np.random.default_rng(5)
        records = rng.normal(size=(240, 125)).round(5)
        lines = ["Example spectrometric archive.", "Numbers follow the prose.", ""]
        for rec in records:
            for i in range(0, 125, 5):
                lines.append(" ".join(f"{v:.5f}" for v in rec[i : i + 5]))
        path = tmp_path / "archive.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fetch_then_use_named_dataset(self, archive, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("MIVARSEL_DATA_DIR", str(cache))
        assert main(["fetch-data", "--url", archive.as_uri()]) == 0
        train = load_csv(cache / "tecator_train.csv", "fat")
        test = load_csv(cache / "tecator_test.csv", "fat")
        assert train.X.shape == (172, 100) and test.X.shape == (43, 100)
        assert train.labels[0] == "850" and train.labels[-1] == "1048"
        out = tmp_path / "r"
        assert main(["estimate", "--dataset", "tecator", "--k", "3", "--out", str(out)]) == 0
        lines = (out / "tecator" / "mi.csv").read_text().splitlines()
        assert len(lines) == 1 + 100

    def test_unreachable_source_is_data_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIVARSEL_DATA_DIR", str(tmp_path / "cache"))
        missing = (tmp_path / "nope.txt").as_uri()
        assert main(["fetch-data", "--url", missing]) == 3


class TestStartUp:
    def test_cli_import_skips_the_network_and_process_pool_modules(self):
        src = str(Path(mivarsel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        heavy = [
            "urllib.request", "ssl", "http.client",
            "concurrent.futures.process", "multiprocessing",
        ]
        code = (
            "import sys, mivarsel.cli; "
            f"print(','.join(m for m in {heavy!r} if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestWorkersIndependence:
    def test_reports_identical_across_worker_counts(self, csvs):
        train, test, out = csvs
        docs = []
        for workers, tag in ((1, "a"), (3, "b")):
            assert main([
                "run-method", "--train", str(train), "--test", str(test),
                "--out", str(out / tag), "--p", "3", "--folds", "3", *_GRIDS,
                "--method", "11", "--workers", str(workers),
            ]) == 0
            path = out / tag / "custom" / "method-11" / "seed-0" / "report.json"
            doc = json.loads(path.read_text())
            # the only fields allowed to differ between the two runs
            doc["config"]["workers"] = None
            doc["config"]["out_dir"] = None
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_benchmark_identical_across_worker_counts(self, csvs):
        train, test, out = csvs
        runs = []
        for workers, tag in ((1, "a"), (3, "b")):
            assert main([
                "reproduce", "--train", str(train), "--test", str(test),
                "--out", str(out / tag), "--p", "3", "--folds", "3", *_GRIDS,
                "--workers", str(workers),
            ]) == 0
            run = out / tag / "custom" / "seed-0"
            paths = ["benchmark.json", *(f"method-{m:02d}/report.json" for m in range(1, 14))]
            docs = {p: json.loads((run / p).read_text()) for p in paths}
            for doc in docs.values():
                doc["config"]["workers"] = None
                doc["config"]["out_dir"] = None
            runs.append(docs)
        assert runs[0] == runs[1]


def _synth():
    """perfbench's seeded synthetic spectra, imported from the benchmark's own file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "synth.py"
    spec = importlib.util.spec_from_file_location("perfbench_synth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBlasThreads:
    def test_import_pins_one_thread(self):
        pin = mivarsel.blas_threads()
        if not pin["pinned"]:
            pytest.skip(f"numpy's BLAS ({pin['blas']}) has no OpenBLAS thread-count export")
        assert pin["threads"] == 1

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_run_one_thread(self, method, monkeypatch):
        if not mivarsel.blas_threads()["pinned"]:
            pytest.skip("numpy's BLAS has no OpenBLAS thread-count export")
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        # a spawned worker reads this before it imports numpy
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
            pin = pool.submit(mivarsel.blas_threads).result(timeout=120)
        assert pin["pinned"] and pin["threads"] == 1

    def test_reports_identical_across_blas_thread_counts(self, tmp_path):
        synth = _synth()
        x, y, xt, yt = synth.tecator_like(7)
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        save_csv(Dataset(x, y, synth.LABELS), train)
        save_csv(Dataset(xt, yt, synth.LABELS), test)
        src = str(Path(mivarsel.__file__).resolve().parents[1])
        argv = [
            sys.executable, "-m", "mivarsel.cli", "run-method",
            "--train", str(train), "--test", str(test), "--out", str(tmp_path / "r"),
            "--method", "5", "--preprocessing", "spectrum-normalize",
            "--sigma-count", "5", "--gamma-count", "10", "--workers", "1",
        ]
        report = tmp_path / "r" / "custom" / "method-05" / "seed-0" / "report.json"
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
