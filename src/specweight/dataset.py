"""Cohort container and the long-format cohort CSV contract.

One subject = one sample: a variable-length sequence of fixed-width visit
feature vectors plus a binary label. The CSV layout is long format, one row
per visit, so sequences of different lengths need no padding:

    subject_id,visit,y,f_<factor...>,x_0..x_<F-1>

`visit` is 0-based and contiguous per subject; `y` and all factor columns are
constant within a subject; rows are sorted by (subject_id, visit); UTF-8 with
"." as the decimal separator, a leading byte-order mark allowed. Factor
columns feed graph construction only and are never part of the model input.

Both readers go through `_read_cohort`: two walks over the subject blocks
with the same checks and results. The clean walk runs first. On a file with
no double quote, carriage return or NUL and no line over csv's field limit
(what `write_cohort_csv` writes for ids without those characters), it splits
each line at its commas and checks whole columns. On any other file, and on
any file where one of its checks or casts fails, the csv walk reads the file
again from its start with csv.reader: it is the reference, and every error
message is its own. Each walk checks each row's field count against the
header before it parses any cell, then parses the visit, label and factor
cells of every row. `read_cohort_csv` also converts the feature
cells; `read_factor_table` never does, so `specweight graph`, which uses
only the factors, accepts a cohort whose x_* cells are not finite numbers.
Every error the walks meet, the checks of `Subject` and `FactorTable`
included, is a DataError that begins with the file's path. Every other CSV
table (run files, groups.csv, graph and report outputs) is written by
`write_csv`; `read_table` reads those read back.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import DataError
from .factor_graph import FactorTable


@dataclass(frozen=True)
class Subject:
    subject_id: str
    visits: np.ndarray  # (n_visits, feature_width)
    label: int

    def __post_init__(self):
        visits = np.asarray(self.visits, dtype=np.float64)
        if visits.ndim != 2 or visits.shape[0] < 1:
            raise DataError(f"subject {self.subject_id}: needs at least one visit row")
        if not np.all(np.isfinite(visits)):
            raise DataError(f"subject {self.subject_id}: non-finite feature values")
        if self.label not in (0, 1):
            raise DataError(f"subject {self.subject_id}: label must be 0 or 1")
        object.__setattr__(self, "visits", visits)


@dataclass(frozen=True)
class CohortDataset:
    subjects: tuple[Subject, ...]

    def __post_init__(self):
        subjects = tuple(self.subjects)
        if not subjects:
            raise DataError("empty cohort")
        width = subjects[0].visits.shape[1]
        for s in subjects:
            if s.visits.shape[1] != width:
                raise DataError(
                    f"subject {s.subject_id}: feature width {s.visits.shape[1]} != {width}"
                )
        ids = [s.subject_id for s in subjects]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate subject ids")
        object.__setattr__(self, "subjects", subjects)

    @property
    def n_samples(self) -> int:
        return len(self.subjects)

    @property
    def feature_width(self) -> int:
        return self.subjects[0].visits.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.subjects], dtype=np.int64)

    @property
    def subject_ids(self) -> list[str]:
        return [s.subject_id for s in self.subjects]


def write_cohort_csv(path, data: CohortDataset, factors: FactorTable) -> None:
    if factors.n_samples != data.n_samples:
        raise DataError("factor table and cohort sample counts differ")
    header = (["subject_id", "visit", "y"]
              + [f"f_{name}" for name in factors.factor_names]
              + [f"x_{j}" for j in range(data.feature_width)])
    # writerow returns what the file's write returns: here the formatted line.
    # Its "\r\n" terminator is what makes csv quote a field holding a carriage
    # return or a newline; the file's lines end in "\n" alone.
    line = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\r\n").writerow
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(line(header)[:-2] + "\n")
        # One string per subject, byte-identical to a csv.writer row per
        # visit with the terminator above: the id, label and factor cells go through csv once per
        # subject, and a visit cell is str(float), which is the repr that
        # csv writes. csv writes a lone empty field as "" but an empty
        # first field of a longer row as nothing.
        for subject, fvals in zip(data.subjects, factors.values.tolist()):
            sid = line([subject.subject_id])[:-2] if subject.subject_id != "" else ""
            fixed = line([subject.label] + fvals)[:-2]
            fh.write("".join(f"{sid},{t},{fixed},{','.join(map(str, visit))}\n"
                             for t, visit in enumerate(subject.visits.tolist())))


@contextlib.contextmanager
def _open_for_reading(path):
    """`path` open as UTF-8 text, a leading byte-order mark dropped, for a
    CSV reader; a file that cannot be opened, a byte that is not UTF-8 or a
    field over csv's size limit, met anywhere in the `with` block, is a
    DataError naming the file."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _columns(header) -> tuple[list[str], int]:
    """Factor names and feature width of a cohort header row."""
    if header[:3] != ["subject_id", "visit", "y"]:
        raise DataError("header must start with subject_id,visit,y")
    factor_names = [c[2:] for c in header if c.startswith("f_")]
    feature_cols = [c for c in header if c.startswith("x_")]
    width = len(feature_cols)
    if width < 1:
        raise DataError("no feature columns (x_*)")
    if header[3:] != [f"f_{n}" for n in factor_names] + feature_cols:
        raise DataError("columns must be subject_id,visit,y,f_*,x_*")
    if feature_cols != [f"x_{j}" for j in range(width)]:
        raise DataError(f"feature columns must be x_0..x_{width - 1} in order")
    return factor_names, width


def _read_cohort(path, features: bool) -> tuple[list, FactorTable]:
    """(subjects, factor table) for both readers; a subject is a `Subject`
    when `features` is true, else its id. `_clean_walk` runs first; where it
    gives up, `_csv_walk` reads the file again from its start and decides.
    Every DataError met while reading names the file.
    """
    with _open_for_reading(path) as fh:
        try:
            walked = _clean_walk(fh, features)
            if walked is None:
                fh.seek(0)
                walked = _csv_walk(fh, features)
            subjects, factor_rows, factor_names = walked
            return subjects, FactorTable(np.array(factor_rows, dtype=np.float64),
                                         tuple(factor_names))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


def _csv_walk(fh, features: bool) -> tuple[list, list, list[str]]:
    """(subjects, factor rows, factor names) of an open cohort file, read by
    csv.reader one subject block at a time, never holding all rows.

    Each block must have no blank row, rows of the header's field count
    (checked before any cell is parsed), contiguous subject rows, visit
    indices 0..n-1, and a binary label and factor values that are constant
    across its visits. Feature cells are converted only when `features` is
    true.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise DataError("empty file")
    factor_names, _ = _columns(header)
    start = 3 + len(factor_names)

    def subject_id(row):
        if not row:
            raise DataError(f"line {reader.line_num}: blank row")
        return row[0]

    subjects: list = []
    factor_rows: list[list[float]] = []
    seen: set[str] = set()
    for sid, block in itertools.groupby(reader, key=subject_id):
        if sid in seen:
            raise DataError(f"rows for subject {sid} are not contiguous")
        seen.add(sid)
        block = list(block)
        if any(len(r) != len(header) for r in block):
            raise DataError(f"subject {sid}: wrong feature count")
        try:
            visits_idx = [int(r[1]) for r in block]
            labels = {int(r[2]) for r in block}
            fvals = [[float(v) for v in r[3:start]] for r in block]
            if visits_idx != list(range(len(block))):
                raise DataError(f"subject {sid}: visit indices must be 0..{len(block) - 1}")
            if len(labels) != 1:
                raise DataError(f"subject {sid}: label must be constant across visits")
            if any(fv != fvals[0] for fv in fvals[1:]):
                raise DataError(
                    f"subject {sid}: factor values must be constant across visits")
            label = labels.pop()
            if label not in (0, 1):
                raise DataError(f"subject {sid}: label must be 0 or 1")
            if features:
                visits = np.array([[float(v) for v in r[start:]] for r in block])
        except ValueError as exc:
            raise DataError(f"malformed row for subject {sid}: {exc}") from None
        subjects.append(Subject(sid, visits, label) if features else sid)
        factor_rows.append(fvals[0])
    if not subjects:
        raise DataError("no data rows")
    return subjects, factor_rows, factor_names


def _clean(text) -> bool:
    """True when `text` holds no double quote, carriage return or NUL, the
    characters that csv.reader reads as more than a cell's text."""
    return not ('"' in text or "\r" in text or "\0" in text)


def _clean_lines(fh, limit):
    """Lists of the lines left in a clean cohort file, without their "\\n", a
    bounded chunk at a time; ValueError where the file is not clean."""
    tail = ""
    while chunk := fh.read(1 << 16):
        lines = (tail + chunk).split("\n")
        tail = lines.pop()
        if not _clean(chunk) or len(tail) > limit or max(map(len, lines), default=0) > limit:
            raise ValueError("not a clean cohort file")
        yield lines
    if tail:
        yield [tail]


def _clean_walk(fh, features: bool) -> tuple[list, list, list[str]] | None:
    """What `_csv_walk` returns for an open cohort file, or None where it
    gives up: on a file that is not clean or that any check or cast rejects.

    A clean file has no double quote, carriage return or NUL and no line
    over csv's field size limit, so each of its lines is its csv row split
    at commas. A data line is split once, into its id, visit, label and
    factor cells and an unsplit tail of feature cells whose field count is
    its comma count. The walk holds one chunk of lines at a time plus the
    rows of the chunk's last subject, which may go on in the next chunk.
    """
    limit = csv.field_size_limit()
    subjects, factor_rows, seen, rows = [], [], set(), []
    try:
        header = fh.readline()
        if not header or not _clean(header) or len(header) > limit:
            return None
        factor_names, width = _columns(header.removesuffix("\n").split(","))
        cut = 3 + len(factor_names)
        for lines in _clean_lines(fh, limit):
            rows += [line.split(",", cut) for line in lines]
            last = len(rows) - 1
            while last > 0 and rows[last - 1][0] == rows[-1][0]:
                last -= 1
            if last > 0:
                _clean_blocks(rows[:last], cut, width, features, seen, subjects, factor_rows)
                del rows[:last]
        if rows:
            _clean_blocks(rows, cut, width, features, seen, subjects, factor_rows)
    except (ValueError, DataError):
        # A file that is not clean, a check or a cast that fails, a Subject
        # check, or a byte that is not UTF-8 (a UnicodeDecodeError): the csv
        # walk decides.
        return None
    return (subjects, factor_rows, factor_names) if subjects else None


def _clean_blocks(rows, cut, width, features, seen, subjects, factor_rows) -> None:
    """Check whole subject blocks of split clean rows column by column, with
    `_csv_walk`'s casts and checks, and add them to `seen`, `subjects` and
    `factor_rows`; ValueError, with nothing added, where a check fails."""
    if set(map(len, rows)) != {cut + 1}:
        raise ValueError("a row is too short")
    ids, visits, labels, *factor_cols, tails = zip(*rows)
    if set(map(str.count, tails, itertools.repeat(","))) != {width - 1}:
        raise ValueError("a row has the wrong feature count")
    visits = list(map(int, visits))
    labels = list(map(int, labels))
    factor_cols = [list(map(float, col)) for col in factor_cols]
    starts = [i for i, v in enumerate(visits) if v == 0]
    if not starts or starts[0] != 0:
        raise ValueError("the first row is not visit 0")
    lengths = [b - a for a, b in zip(starts, starts[1:] + [len(rows)])]

    def per_row(column):
        """Each block's first value of `column`, once per row of the block."""
        return list(itertools.chain.from_iterable(
            map(itertools.repeat, [column[i] for i in starts], lengths)))

    block_ids = [ids[i] for i in starts]
    block_labels = [labels[i] for i in starts]
    if (visits != list(itertools.chain.from_iterable(map(range, lengths)))
            or list(ids) != per_row(ids) or labels != per_row(labels)
            or any(col != per_row(col) for col in factor_cols)
            or not set(block_labels) <= {0, 1}
            or len(set(block_ids)) != len(block_ids) or not seen.isdisjoint(block_ids)):
        raise ValueError("a block check failed")
    if features:
        values = np.array(list(map(float, ",".join(tails).split(",")))).reshape(-1, width)
        new = [Subject(sid, values[i:i + n], label)
               for sid, i, n, label in zip(block_ids, starts, lengths, block_labels)]
    else:
        new = block_ids
    seen.update(block_ids)
    subjects += new
    factor_rows += [[col[i] for col in factor_cols] for i in starts]


def read_cohort_csv(path) -> tuple[CohortDataset, FactorTable]:
    """Cohort and factor table of a cohort CSV."""
    subjects, factors = _read_cohort(path, features=True)
    return CohortDataset(tuple(subjects)), factors


def read_factor_table(path) -> tuple[list[str], FactorTable]:
    """Subject ids and factor table of a cohort CSV, without the features.

    Runs every check of `read_cohort_csv` except those on feature cells:
    x_* cells are not converted to floats, so a non-numeric or non-finite
    feature value passes here.
    """
    return _read_cohort(path, features=False)


def write_csv(path, header, rows) -> None:
    """Write a CSV table other than the cohort: UTF-8, lines ending in "\\n",
    each Python float as repr(float), so a round trip keeps every bit."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path, casts_for, key) -> tuple[list[str], list[list]]:
    """(header, columns) of a CSV table other than the cohort, read in one
    pass. `casts_for(header)` returns one cast per column, or raises
    ValueError for a header it rejects; `key(row)` names what a cast row is
    about. A rejected header, a row with another field count, a field whose
    cast raises ValueError or a second row with one name is a DataError
    naming the file and, for a row, its line."""
    with _open_for_reading(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        try:
            casts = casts_for(header)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}") from None
        rows, names = [], set()
        for row in reader:
            try:
                if len(row) != len(casts):
                    raise ValueError(f"expected {len(casts)} fields, got {len(row)}")
                rows.append([cast(v) for cast, v in zip(casts, row)])
                name = key(rows[-1])
                if name in names:
                    raise ValueError(f"duplicate {name}")
                names.add(name)
            except ValueError as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    return header, [list(column) for column in zip(*rows)] if rows else [[] for _ in casts]


def fixed_header(expected, casts):
    """A `read_table` header rule that accepts the header `expected` alone."""
    def casts_for(header):
        if header != expected:
            raise ValueError(f"expected header {','.join(expected)}")
        return casts
    return casts_for


def by_subject(row) -> str:
    """A `read_table` key for tables with one row per subject id."""
    return f"subject {row[0]!r}"


def write_groups_csv(path, subject_ids, groups) -> None:
    """Ground-truth sidecar: subject_id, noise_group."""
    write_csv(path, ["subject_id", "noise_group"], zip(subject_ids, groups))


def read_groups_csv(path) -> dict[str, str]:
    """Noise group by subject id; read_table's checks, and no subject twice."""
    _, columns = read_table(path, fixed_header(["subject_id", "noise_group"], [str, str]),
                            key=by_subject)
    return dict(zip(*columns))
