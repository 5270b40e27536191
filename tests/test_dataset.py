"""Dataset container, CSV IO, spectrum normalization, whitening."""

from __future__ import annotations

import csv
import io
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mivarsel import dataset
from mivarsel.baselines import fit_pca, transform
from mivarsel.dataset import (
    ColumnWhitener,
    Dataset,
    _parse_rows,
    _read_table,
    fit_column_whitener,
    load_csv,
    load_input_rows,
    normalize_spectra,
    normalize_spectrum_rows,
    parse_tecator,
    save_csv,
)
from mivarsel.errors import DataError
import oracles
from oracles import csv_module_save


class TestDataset:
    def test_basic_shape_and_immutability(self):
        d = Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, 2.0, 3.0]))
        assert d.n_samples == 3
        assert d.n_variables == 2
        assert not d.X.flags.writeable
        assert not d.y.flags.writeable

    def test_rejects_bad_shapes(self):
        with pytest.raises(DataError):
            Dataset(np.zeros(3), np.zeros(3))
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(DataError):
            Dataset(np.array([[1.0], [np.nan]]), np.zeros(2))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), np.array([1.0, np.inf]))

    def test_labels_checked_against_width(self):
        Dataset(np.zeros((2, 2)), np.zeros(2), labels=("a", "b"))
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), np.zeros(2), labels=("a",))

    def test_variable_labels_default_to_positions(self):
        assert Dataset(np.zeros((2, 3)), np.zeros(2)).variable_labels == ("x0", "x1", "x2")
        named = Dataset(np.zeros((2, 2)), np.zeros(2), labels=("a", "b"))
        assert named.variable_labels == ("a", "b")

    def test_take_rows_and_variables(self):
        d = Dataset(np.arange(12.0).reshape(4, 3), np.arange(4.0), ("a", "b", "c"))
        rows = d.take_rows([0, 2])
        assert rows.n_samples == 2
        assert rows.y.tolist() == [0.0, 2.0]
        cols = d.take_variables([2, 0])
        assert cols.labels == ("c", "a")
        assert cols.X[1].tolist() == [5.0, 3.0]

    @pytest.mark.parametrize("take, count", [("take_rows", 1000), ("take_variables", 100)])
    def test_taking_half_traces_one_copy(self, take, count):
        d = Dataset(np.random.default_rng(0).normal(size=(1000, 100)), np.zeros(1000))
        indices = np.arange(0, count, 2)
        tracemalloc.start()
        try:
            half = getattr(d, take)(indices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert half.X.nbytes == 400_000
        assert peak < 1.25 * (half.X.nbytes + half.y.nbytes)

    @pytest.mark.parametrize(
        "build",
        ["take_rows", "take_variables", "normalize_spectra", "whiten", "project", "load_csv"],
    )
    def test_a_matrix_the_package_builds_is_held_without_a_copy(self, build, monkeypatch, tmp_path):
        rng = np.random.default_rng(9)
        d = Dataset(rng.normal(size=(8, 3)), rng.normal(size=8))
        save_csv(d, tmp_path / "d.csv")
        builders = {
            "take_rows": partial(d.take_rows, [0, 2, 5]),
            "take_variables": partial(d.take_variables, [2, 0]),
            "normalize_spectra": partial(normalize_spectra, d),
            "whiten": partial(fit_column_whitener(d).apply, d),
            "project": partial(transform, fit_pca(d, 2), d),
            "load_csv": partial(load_csv, tmp_path / "d.csv"),
        }
        taken, frozen = [], dataset._frozen

        def spy(a):
            taken.append(a)
            return frozen(a)

        monkeypatch.setattr(dataset, "_frozen", spy)
        record = builders[build]()
        assert record.X is taken[0] and not record.X.flags.writeable


class TestCsvIo:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(5, 3)), rng.normal(size=5), ("a", "b", "c"))
        path = tmp_path / "d.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert np.array_equal(back.X, d.X)
        assert np.array_equal(back.y, d.y)
        assert back.labels == d.labels

    def test_save_is_byte_stable(self, tmp_path):
        d = Dataset(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([1.0, 2.0]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(d, p1)
        save_csv(d, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_target_by_name_anywhere(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("fat,x0,x1\n10.0,1.0,2.0\n20.0,3.0,4.0\n")
        d = load_csv(path, target_column="fat")
        assert d.y.tolist() == [10.0, 20.0]
        assert d.labels == ("x0", "x1")
        assert d.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_target_by_index_including_negative(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        d = load_csv(path, target_column=1)
        assert d.y.tolist() == [2.0, 5.0]
        d2 = load_csv(path, target_column=-1)
        assert d2.y.tolist() == [3.0, 6.0]

    def test_single_cell_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\n1.5,2.5\n")
        d = load_csv(path)
        assert d.n_samples == 1 and d.n_variables == 1

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\n1.0,2.0\n1.0,oops\n")
        with pytest.raises(DataError, match="row 1, column 1"):
            load_csv(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\nnan,2.0\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_missing_target_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(DataError, match="target"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_all_numeric_first_row_is_data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("850,852,854,0\n1.0,2.0,3.0,4.5\n")  # wavelengths, not a header
        d = load_csv(path, 3)
        assert d.labels is None
        assert d.X.tolist() == [[850.0, 852.0, 854.0], [1.0, 2.0, 3.0]]
        assert d.y.tolist() == [0.0, 4.5]

    def test_target_name_without_header_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("850,852,854,0\n1.0,2.0,3.0,4.5\n")
        with pytest.raises(DataError, match="has no header row"):
            load_csv(path, "target")


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel writes it, is not part of the first cell."""

    BOM = b"\xef\xbb\xbf"

    def test_headerless_file_keeps_its_first_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(self.BOM + b"0.5,1.5\n2.0,3.0\n4.0,5.0\n6.0,7.0\n")
        d = load_csv(path, -1)
        assert d.labels is None
        assert d.X.tolist() == [[0.5], [2.0], [4.0], [6.0]]
        assert d.y.tolist() == [1.5, 3.0, 5.0, 7.0]
        assert load_input_rows(path).tolist() == [[0.5, 1.5], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]

    def test_header_names_the_first_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(self.BOM + b"target,x0\n10.0,1.0\n20.0,3.0\n")
        d = load_csv(path, "target")
        assert d.labels == ("x0",)
        assert d.y.tolist() == [10.0, 20.0]
        assert load_input_rows(path, "target").tolist() == [[1.0], [3.0]]

    def test_quoted_file_takes_the_csv_module_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(self.BOM + b'"0.5",1.5\r\n2.0,3.0\r\n')
        assert load_input_rows(path).tolist() == [[0.5, 1.5], [2.0, 3.0]]


class TestCsvReader:
    """One reader for load_csv and load_input_rows, with a numpy fast path."""

    # Spellings float() and numpy may treat differently, plus non-numbers.
    ODD_CELLS = (
        " 7 ", "1_0", "+.5", "5.", "1e-400", "1e400", "nan", "inf", "-inf",
        "", " ", "#3", "0x10", "\u0661", "1e", "--1", "1.0\t", "\x0c2", "1e-310",
    )

    @staticmethod
    def _outcome(parse):
        try:
            matrix = parse()
        except DataError as exc:
            return "error", str(exc)
        return matrix.shape, matrix.tobytes()

    @pytest.mark.parametrize("seed", range(60))
    def test_fast_path_gives_the_cell_loops_matrix_or_error(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 4))
        lines = ["c0" + "".join(f",c{j}" for j in range(1, width))]
        for i in range(int(rng.integers(1, 5))):
            w = width + int(i > 0 and rng.random() < 0.1)
            lines.append(",".join(
                str(rng.choice(self.ODD_CELLS)) if rng.random() < 0.2 else repr(float(v))
                for v in rng.normal(size=w) * 10.0 ** rng.integers(-300, 300, size=w)
            ))
        path = tmp_path / "d.csv"
        path.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")
        header, width, rows = _read_table(path)
        assert isinstance(rows[0], str)  # plain text lines take the fast path
        fast = self._outcome(lambda: _parse_rows(rows, width))
        loop = self._outcome(lambda: _parse_rows([r.split(",") for r in rows], width))
        assert fast == loop

    def test_plain_numbers_skip_the_cell_loop(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-300, 300, size=(50, 7))
        path = tmp_path / "d.csv"
        save_csv(Dataset(x, rng.normal(size=50)), path)

        def refuse(text, row, column):
            raise AssertionError("the cell loop ran")

        monkeypatch.setattr(dataset, "_parse_cell", refuse)
        assert np.array_equal(load_csv(path).X, x)
        assert np.array_equal(load_input_rows(path), x)

    def test_quoted_cells_follow_csv_rules(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"a,1",target\n"1.5",2.0\n')
        d = load_csv(path)
        assert d.labels == ("a,1",) and d.X.tolist() == [[1.5]]
        path.write_text('x,target\n"1,5",2.0\n')
        with pytest.raises(DataError, match="row 0, column 0"):
            load_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "x0,x1\r\n1.0,2.0\r\n\r\n\r\n3.0,4.0\r\n\r\n",
            "x0,x1\n1.0,2.0\r\n3.0,4.0\n\r\n5.0,6.0",
            "x0,x1\r1.0,2.0\r\r3.0,4.0\r",
            "x0,x1\r\n1.0,2.0\r3.0,4.0\n",
            "x0,x1\r\r\n1.0,2.0\r\n",
            "\ufeffx0,x1\r\n1.0,\x0c2.0\r\n",
        ],
        ids=["crlf-blank-lines", "mixed-lf-crlf", "lone-cr", "lone-cr-among-crlf",
             "cr-before-crlf", "bom-form-feed"],
    )
    def test_line_endings_give_the_csv_modules_rows(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected = [row for row in csv.reader(io.StringIO(text.lstrip("\ufeff"), newline="")) if row]
        header, width, rows = _read_table(path)
        assert [header, *map(dataset._cells, rows)] == expected
        assert width == len(expected[1])

    def test_crlf_inside_a_quoted_label_round_trips(self, tmp_path):
        path = tmp_path / "d.csv"
        d = Dataset(np.array([[1.5, -2.0], [3.0, 0.25]]), np.array([7.0, 8.0]), ("a\r\nb", 'c,"d"'))
        save_csv(d, path)
        back = load_csv(path)
        assert back.labels == d.labels
        assert back.X.tobytes() == d.X.tobytes() and back.y.tobytes() == d.y.tobytes()
        assert load_input_rows(path).tobytes() == d.X.tobytes()

    def test_hash_is_a_bad_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,target\n1.0,2.0 # note\n")
        with pytest.raises(DataError, match="row 0, column 1"):
            load_csv(path)

    def test_input_rows_drop_a_named_target_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("fat,x0\n10.0,1.0\n\n20.0,3.0\n")
        assert load_input_rows(path, "fat").tolist() == [[1.0], [3.0]]
        assert load_input_rows(path, "protein").tolist() == [[10.0, 1.0], [20.0, 3.0]]
        path.write_text("10.0,1.0\n20.0,3.0\n")
        assert load_input_rows(path, "fat").tolist() == [[10.0, 1.0], [20.0, 3.0]]

    def test_input_rows_reject_non_finite_and_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,x1\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(DataError, match="row 1, column 1: non-finite"):
            load_input_rows(path)
        path.write_text("x0,x1\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="row 1: expected 2 columns, found 1"):
            load_input_rows(path)


class TestTargetColumn:
    """load_csv and load_input_rows find the target by one rule: name, then position."""

    @pytest.mark.parametrize(
        "target, dropped",
        [(0, 0), ("0", 0), (-1, 2), ("-3", 0), (2, 2)],
        ids=["int-0", "text-0", "int-minus-1", "text-minus-3", "int-2"],
    )
    def test_input_rows_drop_a_positional_target(self, tmp_path, target, dropped):
        path = tmp_path / "d.csv"
        path.write_text("10.0,1.0,2.0\n20.0,3.0,4.0\n")
        full = np.array([[10.0, 1.0, 2.0], [20.0, 3.0, 4.0]])
        got = load_input_rows(path, target)
        assert got.tolist() == np.delete(full, dropped, axis=1).tolist()
        assert got.tolist() == load_csv(path, target).X.tolist()

    @pytest.mark.parametrize("target", ["x", "0", "2", -1, "1"])
    def test_a_header_name_wins_over_a_position(self, tmp_path, target):
        path = tmp_path / "d.csv"
        path.write_text("x,0,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        d = load_csv(path, target)
        assert load_input_rows(path, target).tolist() == d.X.tolist()
        if target == "0":
            assert d.labels == ("x", "y") and d.y.tolist() == [2.0, 5.0]

    @pytest.mark.parametrize("target", [3, "-4"])
    def test_out_of_range_position_is_a_data_error(self, tmp_path, target):
        path = tmp_path / "d.csv"
        path.write_text("10.0,1.0,2.0\n20.0,3.0,4.0\n")
        for load in (load_csv, load_input_rows):
            with pytest.raises(DataError, match="out of range for 3 columns"):
                load(path, target)

    def test_repeated_target_name_is_a_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,target,target\n1.0,2.0,3.0\n")
        for load in (load_csv, load_input_rows):
            with pytest.raises(DataError, match=r"'target' appears more than once .* columns 1, 2"):
                load(path)
        assert load_input_rows(path, "a").tolist() == [[2.0, 3.0]]

    def test_save_rejects_a_variable_labelled_as_the_target(self, tmp_path):
        path = tmp_path / "d.csv"
        d = Dataset(np.ones((2, 2)), np.zeros(2), ("a", "target"))
        with pytest.raises(DataError, match="variable 1 is labelled 'target'"):
            save_csv(d, path)
        assert not path.exists()
        with pytest.raises(DataError, match="variable 0 is labelled 'x0'"):
            save_csv(Dataset(np.ones((2, 2)), np.zeros(2)), path, target_label="x0")
        save_csv(d, path, target_label="fat")
        assert load_csv(path, "fat").labels == ("a", "target")

    def test_save_rejects_a_header_that_reads_as_data(self, tmp_path):
        path = tmp_path / "d.csv"
        d = Dataset(np.array([[1.0, 3.0]]), np.array([2.0]), ("850", "852"))
        for target_label in ("0", "nan", "1e3"):
            with pytest.raises(DataError, match="would read back as a data row"):
                save_csv(d, path, target_label=target_label)
            assert not path.exists()
        save_csv(d, path, target_label="fat")
        back = load_csv(path, "fat")
        assert back.labels == ("850", "852") and back.y.tolist() == [2.0]

    @pytest.mark.parametrize(
        "labels, target_label, named",
        [((" a", "b"), "target", "variable 0 label ' a'"),
         (("a", "b\n"), "target", "variable 1 label 'b\\\\n'"),
         (("a", "b"), "target ", "target label 'target '")],
        ids=["leading-space", "trailing-newline", "target"],
    )
    def test_save_rejects_labels_the_reader_would_strip(self, tmp_path, labels, target_label, named):
        path = tmp_path / "d.csv"
        d = Dataset(np.ones((2, 2)), np.zeros(2), labels)
        with pytest.raises(DataError, match=f"{named} has surrounding whitespace"):
            save_csv(d, path, target_label=target_label)
        assert not path.exists()

    def test_hand_written_header_spaces_still_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a, b , target\n1.0,2.0,3.0\n")
        assert load_csv(path).labels == ("a", "b")


class TestCsvWriter:
    """save_csv writes in blocks the bytes the csv module writes row by row."""

    B = dataset._CSV_BLOCK_ROWS

    @staticmethod
    def _same_as_oracle(tmp_path, d, **kwargs):
        ours, oracle = tmp_path / "ours.csv", tmp_path / "oracle.csv"
        save_csv(d, ours, **kwargs)
        csv_module_save(d, oracle, **kwargs)
        assert ours.read_bytes() == oracle.read_bytes()
        return ours.read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_row_counts_around_the_block_size(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        d = Dataset(rng.normal(size=(rows, 3)), rng.normal(size=rows))
        written = self._same_as_oracle(tmp_path, d)
        assert written.count(b"\r\n") == 1 + rows

    def test_labels_that_need_quoting(self, tmp_path):
        d = Dataset(np.eye(3), np.arange(3.0), ("a,b", 'say "hi"', "\u03bb 850 nm"))
        written = self._same_as_oracle(tmp_path, d, target_label="fat, %")
        assert written.startswith('"a,b","say ""hi""",\u03bb 850 nm,"fat, %"\r\n'.encode())

    def test_extreme_and_integral_floats(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1.0, -3.0, 1e22, 2.0**53]
        x = np.array(values).reshape(-1, 1)
        d = Dataset(np.hstack([x, x[::-1]]), np.array(values[::-1]))
        written = self._same_as_oracle(tmp_path, d)
        assert b"\r\n-0.0,9007199254740992.0,9007199254740992.0\r\n" in written
        assert b"\r\n1.0,-5e-324,-5e-324\r\n" in written

    def test_no_labels_and_one_variable(self, tmp_path):
        d = Dataset(np.array([[0.5], [1.5]]), np.array([1.0, 2.0]))
        assert self._same_as_oracle(tmp_path, d) == b"x0,target\r\n0.5,1.0\r\n1.5,2.0\r\n"

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 4)),
        data=st.data(),
    )
    def test_round_trip_is_bit_exact(self, shape, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        x = data.draw(hnp.arrays(np.float64, shape, elements=finite))
        y = data.draw(hnp.arrays(np.float64, shape[0], elements=finite))
        label = st.text(alphabet="ab1,\" \u03bb\n", max_size=4).filter(lambda s: s != "target")
        labels = data.draw(st.none() | st.tuples(*[label] * shape[1]))
        d = Dataset(x, y, labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            if any(s != s.strip() for s in labels or ()):
                with pytest.raises(DataError, match="surrounding whitespace"):
                    save_csv(d, path)
                return
            save_csv(d, path)
            back = load_csv(path)
        assert back.X.tobytes() == d.X.tobytes()
        assert back.y.tobytes() == d.y.tobytes()
        assert back.labels == (d.labels or tuple(f"x{j}" for j in range(shape[1])))


class TestNormalizeSpectra:
    def test_worked_example(self):
        d = Dataset(np.array([[1.0, 2.0, 3.0]]), np.array([0.0]))
        out = normalize_spectra(d)
        assert out.X.tolist() == [[-1.0, 0.0, 1.0, 2.0, 1.0]]

    def test_second_worked_example(self):
        d = Dataset(np.array([[2.0, 4.0, 6.0]]), np.array([0.0]))
        out = normalize_spectra(d)
        assert out.X[0, :3].tolist() == [-1.0, 0.0, 1.0]
        assert out.X[0, 3] == 4.0
        assert out.X[0, 4] == 2.0

    def test_idempotent_on_shape_block(self):
        rng = np.random.default_rng(1)
        d = Dataset(rng.normal(size=(6, 9)), rng.normal(size=6))
        once = normalize_spectra(d)
        shape_block = Dataset(once.X[:, :9], once.y)
        twice = normalize_spectra(shape_block)
        assert np.allclose(twice.X[:, :9], once.X[:, :9], atol=1e-10)
        assert np.allclose(twice.X[:, 9], 0.0, atol=1e-10)
        assert np.allclose(twice.X[:, 10], 1.0, atol=1e-10)

    def test_labels_extended(self):
        d = Dataset(np.array([[1.0, 2.0]]), np.zeros(1), ("850", "852"))
        out = normalize_spectra(d)
        assert out.labels == ("850", "852", "row_mean", "row_std")

    def test_constant_row_rejected_by_number(self):
        d = Dataset(np.array([[1.0, 2.0], [5.0, 5.0]]), np.zeros(2))
        with pytest.raises(DataError, match="row 1"):
            normalize_spectra(d)

    def test_needs_two_variables(self):
        with pytest.raises(DataError):
            normalize_spectra(Dataset(np.ones((2, 1)), np.zeros(2)))

    @settings(max_examples=300, deadline=None)
    @given(
        n_rows=st.sampled_from([0, 1, 2, 3, 43, 300]),
        width=st.integers(2, 140),
        exponent=st.integers(-320, 308),
        offset=st.sampled_from([0.0, 1.0, -3e5, 1e200]),
        layout=st.sampled_from(["C", "F", "strided", "1-D"]),
        constant_row=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_one_pass_moments_have_numpys_bits(
        self, n_rows, width, exponent, offset, layout, constant_row, seed
    ):
        """The row moments from one set of row sums, written into one
        output, equal numpy's mean, std and hstack bit for bit, whatever
        the scale and the memory layout of the rows; both raise the same
        error on a constant row."""
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore", under="ignore"):
            x = rng.normal(size=(n_rows, 2 * width)) * 10.0**exponent + offset
        if constant_row and n_rows:
            x[rng.integers(n_rows)] = offset + 1.0
        x = {"C": x[:, :width], "F": np.asfortranarray(x[:, :width]), "strided": x[:, ::2],
             "1-D": x[0, :width] if n_rows else x[:, :width]}[layout]

        def outcome(normalize):
            try:
                with np.errstate(all="ignore"):
                    return normalize(x).tobytes()
            except DataError as exc:
                return str(exc)

        assert outcome(normalize_spectrum_rows) == outcome(oracles.normalize_spectrum_rows)

    def test_one_row_and_its_matrix_agree(self):
        row = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        matrix = normalize_spectrum_rows(row[None, :])
        assert normalize_spectrum_rows(row).tobytes() == matrix.tobytes()
        assert normalize_spectrum_rows(row).shape == (1, 7)

    @pytest.mark.parametrize("rows", [np.ones((1, 1)), np.ones(1), np.ones((3, 1))])
    def test_one_variable_rows_raise(self, rows):
        with pytest.raises(DataError, match="at least 2 variables"):
            normalize_spectrum_rows(rows)


class TestWhitening:
    def test_worked_example(self):
        train = Dataset(np.array([[1.0], [3.0]]), np.zeros(2))
        out = fit_column_whitener(train).apply(train)
        root_half = 1.0 / np.sqrt(2.0)
        assert np.allclose(out.X[:, 0], [-root_half, root_half])

    def test_training_statistics_applied_to_test(self):
        train = Dataset(np.array([[1.0], [3.0]]), np.zeros(2))
        test = Dataset(np.array([[2.0], [10.0]]), np.zeros(2))
        w = fit_column_whitener(train)
        out = w.apply(test)
        # (2-2)/sqrt(2) = 0, (10-2)/sqrt(2); test-fitted stats would center these
        assert out.X[0, 0] == 0.0
        assert np.isclose(out.X[1, 0], 8.0 / np.sqrt(2.0))
        assert abs(out.X[:, 0].mean()) > 1.0

    def test_zero_variance_column_named(self):
        train = Dataset(np.array([[1.0, 7.0], [2.0, 7.0]]), np.zeros(2))
        with pytest.raises(DataError, match="column 1"):
            fit_column_whitener(train)

    def test_width_mismatch(self):
        w = ColumnWhitener(np.zeros(2), np.ones(2))
        with pytest.raises(DataError):
            w.apply(Dataset(np.zeros((1, 3)), np.zeros(1)))


def _synthetic_tecator_archive(n_records: int = 216) -> str:
    rng = np.random.default_rng(9)
    lines = [
        "This is the Tecator data set.",
        "The task is to predict the fat content of a meat sample.",
        "",
    ]
    rows = []
    for i in range(n_records):
        rec = np.zeros(125)
        rec[:100] = 2.5 + 0.01 * np.sin(np.arange(100) / 7.0 + i) + 0.001 * rng.normal(size=100)
        rec[100:122] = rng.normal(size=22)
        rec[122] = 60.0 + i % 5
        rec[123] = float(10 + (i % 40))
        rec[124] = 15.0 + i % 3
        rows.append(rec)
    flat = np.concatenate(rows)
    # statlib wraps the numbers at a fixed count per line
    for start in range(0, flat.size, 5):
        chunk = flat[start : start + 5]
        lines.append(" ".join(f"{v:.5f}" for v in chunk))
    return "\n".join(lines)


class TestTecatorParsing:
    def test_shapes_and_target_mapping(self):
        train, test = parse_tecator(_synthetic_tecator_archive())
        assert train.X.shape == (172, 100)
        assert test.X.shape == (43, 100)
        assert train.labels[0] == "850"
        assert train.labels[-1] == "1048"
        # fat of record i is 10 + (i % 40)
        assert train.y[0] == 10.0
        assert train.y[41] == 11.0
        assert test.y[0] == 10.0 + (172 % 40)

    def test_prose_inside_data_rejected(self):
        raw = _synthetic_tecator_archive()
        broken = raw + "\nunexpected trailing prose"
        with pytest.raises(DataError):
            parse_tecator(broken)

    def test_truncated_archive_rejected(self):
        raw = _synthetic_tecator_archive()
        lines = raw.splitlines()
        with pytest.raises(DataError):
            parse_tecator("\n".join(lines[:-1]))

    def test_too_few_records_rejected(self):
        with pytest.raises(DataError):
            parse_tecator(_synthetic_tecator_archive(n_records=100))
