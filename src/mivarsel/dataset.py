"""Loading, validation and preprocessing of spectrometric datasets.

A :class:`Dataset` is an immutable (samples x variables) matrix plus a
scalar target per sample and one label per variable: the given ones
(wavelengths, header names), or else ``x0 ... x{M-1}``.
CSV is the canonical interchange format: comma separator, '.' decimal
point, UTF-8, with an optional first header row carrying the labels.
Rows containing any non-numeric cell abort the load; silently dropping
rows would corrupt train/test splits downstream.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

TECATOR_URL = "http://lib.stat.cmu.edu/datasets/tecator"

# save_csv formats and writes this many data rows per write call.
_CSV_BLOCK_ROWS = 512

# Statlib Tecator layout: 240 records of 125 numbers each
# (100 absorbances, 22 principal components, moisture, fat, protein).
_TECATOR_RECORD_LEN = 125
_TECATOR_N_CHANNELS = 100
_TECATOR_FAT_INDEX = 123
_TECATOR_N_TRAIN = 172
_TECATOR_N_TEST = 43
_TECATOR_WAVELENGTHS = [850.0 + 2.0 * i for i in range(_TECATOR_N_CHANNELS)]


def _frozen(a) -> np.ndarray:
    """``a`` as a read-only, C-ordered float64 array: the one way a record
    takes an array. One that already is such is shared; a writeable one, or
    a view of one, is copied, so a record never freezes its caller's array."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.flags.writeable and (out is a or out.base is not None):
        out = out.copy()
    out.flags.writeable = False
    return out


def _sealed(a) -> np.ndarray:
    """``a``, an array the package has just built, made read-only, so that
    :func:`_frozen` shares it instead of copying it again."""
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable regression dataset: X is (N, M), y is (N,).

    Safe to share across concurrent workers; the arrays are taken by
    :func:`_frozen`, so they are read-only and the caller's stay as they were.
    """

    X: np.ndarray
    y: np.ndarray
    labels: tuple[str, ...] | None = None  # None labels the columns x0, x1, ...

    def __post_init__(self) -> None:
        X = _frozen(self.X)
        y = _frozen(self.y)
        if X.ndim != 2:
            raise DataError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.ndim != 1:
            raise DataError(f"y must be 1-dimensional, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise DataError(
                f"row count mismatch: X has {X.shape[0]} rows, y has {y.shape[0]}"
            )
        if not np.all(np.isfinite(X)):
            raise DataError("X contains NaN or infinite entries")
        if not np.all(np.isfinite(y)):
            raise DataError("y contains NaN or infinite entries")
        labels = (
            tuple(f"x{j}" for j in range(X.shape[1])) if self.labels is None
            else tuple(str(tag) for tag in self.labels)
        )
        if len(labels) != X.shape[1]:
            raise DataError(f"{len(labels)} labels for {X.shape[1]} variables")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_variables(self) -> int:
        return self.X.shape[1]

    def take_rows(self, indices) -> "Dataset":
        """New Dataset restricted to the given sample rows."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(_sealed(self.X[idx]), _sealed(self.y[idx]), self.labels)

    def take_variables(self, indices) -> "Dataset":
        """New Dataset restricted to the given variable columns."""
        idx = np.asarray(indices, dtype=int)
        labels = tuple(self.labels[i] for i in idx)
        # take builds the columns in row order; X[:, idx] would need a second copy.
        return Dataset(_sealed(self.X.take(idx, axis=1)), self.y, labels)


def _parse_cell(text: str, row: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"row {row}, column {column}: could not parse {text!r} as a number"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"row {row}, column {column}: non-finite value {text!r}")
    return value


def _read_table(path: str | Path) -> tuple[list[str] | None, int, list]:
    """Header, width and data rows of a CSV file.

    The first row is a header when any of its cells fails to parse as a
    number; the header is None otherwise. Blank lines are skipped, and
    so is a leading UTF-8 byte-order mark (Excel writes one). A
    file with no quote whose lines all end alike, in LF or in CRLF,
    comes back as text lines, since for it the csv rules reduce to
    splitting each line at its commas; any other file comes back as the
    csv module's rows.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    crlf = "\r" in text
    # Counting CRs against LFs finds a bare LF once no CR stands alone.
    if '"' in text or re.search(r"\r(?!\n)", text) or crlf and text.count("\r") != text.count("\n"):
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise DataError(
                f"{path}: cannot read the CSV row ending at line {reader.line_num}: {exc}"
            ) from None
    else:
        rows = [line for line in text.split("\r\n" if crlf else "\n") if line]
    if not rows:
        raise DataError(f"{path} is empty")

    header: list[str] | None = None
    first = _cells(rows[0])
    if _is_header(first):
        header = [cell.strip() for cell in first]
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path} has a header but no data rows")

    width = len(_cells(rows[0]))
    if header is not None and len(header) != width:
        raise DataError(
            f"header has {len(header)} columns but data rows have {width}"
        )
    return header, width, rows


def _is_header(cells: list[str]) -> bool:
    """True when some cell fails to parse as a number, so the row is a header, not data."""
    try:
        list(map(float, cells))
    except ValueError:
        return True
    return False


def _cells(row: str | list[str]) -> list[str]:
    return row.split(",") if isinstance(row, str) else row


def _parse_rows(rows: list, width: int) -> np.ndarray:
    """The cells of ``rows`` as a float64 matrix; each must be a finite number.

    Text lines go to ``np.loadtxt`` first. It reads a number with the
    parser ``float`` uses but accepts fewer spellings, so its matrix is
    kept only when it has every row and only finite values. Otherwise
    each cell is parsed in turn, which names the first bad row and column.
    """
    if isinstance(rows[0], str):
        try:
            matrix = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if matrix.shape == (len(rows), width) and np.isfinite(matrix).all():
                return matrix
    matrix = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        cells = _cells(row)
        if len(cells) != width:
            raise DataError(
                f"row {i}: expected {width} columns, found {len(cells)}"
            )
        for j, cell in enumerate(cells):
            matrix[i, j] = _parse_cell(cell, i, j)
    return matrix


def _target_index(
    header: list[str] | None, width: int, target_column: str | int
) -> int | None:
    """0-based index of the target column, or None when nothing names it.

    A header name wins; otherwise ``target_column`` is read as an integer
    position, negative positions counting from the right. A repeated
    target name and an out-of-range position are errors.
    """
    if isinstance(target_column, str) and header is not None:
        at = [j for j, name in enumerate(header) if name == target_column]
        if len(at) > 1:
            raise DataError(
                f"target column {target_column!r} appears more than once in the header, "
                f"at columns {', '.join(map(str, at))}"
            )
        if at:
            return at[0]
    try:
        target_idx = int(target_column)
    except (TypeError, ValueError):
        return None
    if not -width <= target_idx < width:
        raise DataError(
            f"target column index {target_idx} out of range for {width} columns"
        )
    return target_idx % width


def load_csv(path: str | Path, target_column: str | int = "target") -> Dataset:
    """Load a Dataset from CSV.

    A first row whose cells all parse as numbers is data; a header needs
    at least one non-numeric cell, so a row of wavelengths such as
    ``850,852,854`` is a sample. ``target_column`` selects the target by
    header name or by 0-based column position.
    """
    header, width, rows = _read_table(path)
    target_idx = _target_index(header, width, target_column)
    if target_idx is None:
        where = "in header" if header is not None else (
            f"({path} has no header row: its first row is all numbers)"
        )
        raise DataError(f"target column {target_column!r} not found {where}")

    matrix = _parse_rows(rows, width)
    keep = [j for j in range(width) if j != target_idx]
    if not keep:
        raise DataError("dataset has no input variables besides the target")
    labels = None if header is None else tuple(header[j] for j in keep)
    return Dataset(_sealed(matrix.take(keep, axis=1)), matrix[:, target_idx], labels)


def load_input_rows(path: str | Path, target_column: str | int = "target") -> np.ndarray:
    """Input rows of a CSV read by :func:`load_csv`'s rules, for prediction.

    The target column is dropped when ``target_column`` names it in the
    header or gives its 0-based position; a value that does neither
    drops nothing, and every column is an input.
    """
    header, width, rows = _read_table(path)
    target_idx = _target_index(header, width, target_column)
    matrix = _parse_rows(rows, width)
    if target_idx is not None:
        matrix = np.delete(matrix, target_idx, axis=1)
    return matrix


def save_csv(d: Dataset, path: str | Path, target_label: str = "target") -> None:
    """Write a Dataset as CSV with a header row; target is the last column.

    The header goes through the csv module, so labels are quoted by its
    rules. Each number is written as its ``repr``, which reads back bit
    for bit, and each row ends with CRLF. Data rows are formatted and
    written in blocks of ``_CSV_BLOCK_ROWS``, so memory stays bounded by
    one block; the bytes are the ones ``csv.writer`` writes row by row.
    A header that would not read back as written is rejected: a label
    with surrounding whitespace, a variable labelled ``target_label``,
    or labels that all parse as numbers.
    """
    labels = d.labels
    header = [*labels, target_label]
    for j, label in enumerate(header):
        if label != label.strip():
            what = "target label" if j == len(labels) else f"variable {j} label"
            raise DataError(f"{what} {label!r} has surrounding whitespace, which load_csv strips")
    if target_label in labels:
        raise DataError(
            f"variable {labels.index(target_label)} is labelled {target_label!r}, "
            "the name of the target column"
        )
    if not _is_header(header):
        raise DataError(f"header {header} is all numbers, so it would read back as a data row")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, d.n_samples, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            block = np.column_stack([d.X[start:stop], d.y[start:stop]]).tolist()
            handle.write("".join(",".join(map(repr, row)) + "\r\n" for row in block))


def _as_rows(x) -> np.ndarray:
    """``x`` as a C-ordered float64 matrix of rows: a 1-D row is one row,
    and a C-ordered 2-D float64 array comes back as it is, with no copy.
    Other layouts are copied into row order, so a row's bits never depend
    on how the caller's array is laid out in memory."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    return x if x.ndim == 2 else np.atleast_2d(x)


def normalize_spectrum_rows(x: np.ndarray) -> np.ndarray:
    """Row-standardized matrix with the removed mean/std appended per row.

    Row ``i`` of the (rows, M + 2) result is ``(x[i] - mean) / std``
    followed by ``mean`` and ``std`` (sample convention, ``ddof=1``). The
    row sums are taken once and serve both the mean and the centring
    inside the variance, and everything is written into one output
    matrix; these are the ufuncs ``x.mean(axis=1)`` and
    ``x.std(axis=1, ddof=1)`` apply, in their order, so every value has
    their bits. A 1-D row is one row; a constant row raises DataError.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, m = x.shape
    if m < 2:
        raise DataError("spectrum normalization needs at least 2 variables per row")
    out = np.empty((n, m + 2))
    shape = out[:, :m]
    means = np.add.reduce(x, axis=1)
    means /= m
    mean_column = means[:, None]
    squares = x - mean_column
    np.multiply(squares, squares, out=squares)
    stds = np.add.reduce(squares, axis=1)
    stds /= m - 1
    np.sqrt(stds, out=stds)
    if np.count_nonzero(stds) < n:
        raise DataError(
            f"row {int(np.argmin(stds != 0.0))} has a constant spectrum (zero standard deviation)"
        )
    np.subtract(x, mean_column, out=shape)
    np.divide(shape, stds[:, None], out=shape)
    out[:, m] = means
    out[:, m + 1] = stds
    return out


def normalize_spectra(d: Dataset) -> Dataset:
    """Standardize each spectrum (row) to zero mean, unit variance.

    The removed row mean and row standard deviation are appended as two
    extra variables so no information is lost. Standard deviation uses
    the sample (N-1) convention.
    """
    out = normalize_spectrum_rows(d.X)
    return Dataset(_sealed(out), d.y, d.labels + ("row_mean", "row_std"))


@dataclass(frozen=True)
class ColumnWhitener:
    """Column-wise affine map fitted on training rows only."""

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        for name in ("means", "stds"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    def apply(self, d: Dataset) -> Dataset:
        if d.n_variables != self.means.shape[0]:
            raise DataError(
                f"whitener fitted on {self.means.shape[0]} variables, "
                f"dataset has {d.n_variables}"
            )
        return Dataset(_sealed((d.X - self.means) / self.stds), d.y, d.labels)


def fit_column_whitener(train: Dataset) -> ColumnWhitener:
    """Fit per-column zero-mean unit-variance scaling on training rows."""
    if train.n_samples < 2:
        raise DataError("column whitening needs at least 2 training rows")
    means = train.X.mean(axis=0)
    stds = train.X.std(axis=0, ddof=1)
    degenerate = np.flatnonzero(stds == 0.0)
    if degenerate.size:
        raise DataError(
            f"column {int(degenerate[0])} has zero variance on the training rows"
        )
    return ColumnWhitener(means, stds)


def parse_tecator(raw: str) -> tuple[Dataset, Dataset]:
    """Convert the statlib Tecator archive text into train/test Datasets.

    All numeric tokens after the prose header are concatenated and
    reshaped into 125-number records; the 100 absorbance channels become
    X and the fat content (percent) becomes y. Samples 1..172 are the
    training set, 173..215 the test set; the trailing extrapolation
    samples are dropped.
    """
    values: list[float] = []
    for line in raw.splitlines():
        tokens = line.split()
        if not tokens:
            continue
        try:
            parsed = [float(tok) for tok in tokens]
        except ValueError:
            if values:
                raise DataError(
                    f"non-numeric line inside Tecator data section: {line!r}"
                ) from None
            continue
        values.extend(parsed)
    if not values or len(values) % _TECATOR_RECORD_LEN != 0:
        raise DataError(
            f"Tecator data section has {len(values)} numbers, "
            f"not a multiple of {_TECATOR_RECORD_LEN}"
        )
    records = np.asarray(values, dtype=np.float64).reshape(-1, _TECATOR_RECORD_LEN)
    if records.shape[0] < _TECATOR_N_TRAIN + _TECATOR_N_TEST:
        raise DataError(
            f"Tecator archive has {records.shape[0]} samples, "
            f"expected at least {_TECATOR_N_TRAIN + _TECATOR_N_TEST}"
        )
    X = records[:, :_TECATOR_N_CHANNELS]
    fat = records[:, _TECATOR_FAT_INDEX]
    labels = tuple(f"{w:.0f}" for w in _TECATOR_WAVELENGTHS)
    train = Dataset(X[:_TECATOR_N_TRAIN], fat[:_TECATOR_N_TRAIN], labels)
    stop = _TECATOR_N_TRAIN + _TECATOR_N_TEST
    test = Dataset(X[_TECATOR_N_TRAIN:stop], fat[_TECATOR_N_TRAIN:stop], labels)
    return train, test


def fetch_tecator(dest_dir: str | Path, url: str = TECATOR_URL) -> tuple[Path, Path]:
    """Download the Tecator archive and write train/test CSV files.

    Returns the paths of the written files. Raises DataError when the
    archive cannot be downloaded (for example on machines without
    network access); in that case the CSVs can be produced elsewhere and
    copied into ``dest_dir``.
    """
    import urllib.request  # imported here: no other command needs the network stack

    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            raw = response.read().decode("utf-8", errors="replace")
    except Exception as exc:
        raise DataError(f"could not download Tecator archive from {url}: {exc}") from exc
    train, test = parse_tecator(raw)
    train_path = dest / "tecator_train.csv"
    test_path = dest / "tecator_test.csv"
    save_csv(train, train_path, target_label="fat")
    save_csv(test, test_path, target_label="fat")
    return train_path, test_path
