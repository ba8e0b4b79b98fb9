import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specweight import dataset
from specweight.cli import main
from specweight.dataset import (
    CohortDataset,
    Subject,
    read_cohort_csv,
    read_factor_table,
    read_groups_csv,
    write_cohort_csv,
    write_groups_csv,
)
from specweight.errors import DataError
from specweight.factor_graph import FactorTable
from specweight.synth import SynthSpec, generate


def test_roundtrip_bit_exact(tmp_path, tiny_cohort):
    data, factors, _ = tiny_cohort
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, data, factors)
    data2, factors2 = read_cohort_csv(path)
    assert data2.subject_ids == data.subject_ids
    assert np.array_equal(data2.labels, data.labels)
    assert factors2.factor_names == factors.factor_names
    assert np.array_equal(factors2.values, factors.values)
    for s1, s2 in zip(data.subjects, data2.subjects):
        assert np.array_equal(s1.visits, s2.visits)


def test_write_is_deterministic(tmp_path, tiny_cohort):
    data, factors, _ = tiny_cohort
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_cohort_csv(a, data, factors)
    write_cohort_csv(b, data, factors)
    assert a.read_bytes() == b.read_bytes()


finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.1])


@settings(max_examples=30, deadline=None)
@given(visits=st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=1, max_size=3),
       factor_values=st.lists(finite_floats, min_size=2, max_size=2))
def test_every_written_cell_is_the_float_repr(visits, factor_values):
    """Visit and factor cells, -0.0, subnormals and 1e300 included, are
    written as repr(float(v))."""
    data = CohortDataset((Subject("S0", np.array(visits), 1),))
    factors = FactorTable(np.array([factor_values]), ("a", "b"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        write_cohort_csv(path, data, factors)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(visits)
    for t, row in enumerate(rows):
        assert row[:3] == ["S0", str(t), "1"]
        assert row[3:5] == [repr(float(v)) for v in factors.values[0]]
        assert row[5:] == [repr(float(v)) for v in data.subjects[0].visits[t]]


def reference_cohort_bytes(path, data, factors) -> bytes:
    """The cohort file as a csv.writer row per visit writes it, quoting a
    field that holds a carriage return or a newline, each line ending in "\n"."""
    rows = [["subject_id", "visit", "y"]
            + [f"f_{name}" for name in factors.factor_names]
            + [f"x_{j}" for j in range(data.feature_width)]]
    for subject, fvals in zip(data.subjects, factors.values.tolist()):
        for t, visit in enumerate(subject.visits.tolist()):
            rows.append([subject.subject_id, t, subject.label] + fvals + visit)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for row in rows:
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            fh.write(buf.getvalue()[:-2] + "\n")
    return Path(path).read_bytes()


@pytest.mark.parametrize("subject_id", ["", "a,b", 'q"q', " x", "x\ny", "x\ry"])
def test_writer_bytes_match_a_csv_row_per_visit(tmp_path, subject_id):
    """Ids that csv quotes or leaves empty, a numpy-integer label, and the
    values -0.0, 5e-324, 1e16 and 1e300: the same bytes as csv.writer, and
    read back bit-exactly."""
    values = [-0.0, 5e-324, 1e16, 1e300]
    data = CohortDataset((Subject(subject_id, np.array([values, values[::-1], [0.5] * 4]),
                                  np.int64(1)),
                          Subject("S1", np.array([values]), 0)))
    factors = FactorTable(np.array([[1e16, -0.0], [5e-324, 1e300]]), ("a", "b"))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, data, factors)
    assert path.read_bytes() == reference_cohort_bytes(tmp_path / "ref.csv", data, factors)

    data2, factors2 = read_cohort_csv(path)
    assert data2.subject_ids == [subject_id, "S1"]
    assert np.array_equal(data2.labels, [1, 0])
    assert factors2.values.tobytes() == factors.values.tobytes()
    for s1, s2 in zip(data.subjects, data2.subjects):
        assert s2.visits.tobytes() == s1.visits.tobytes()


def test_variable_length_sequences_roundtrip(tmp_path):
    subjects = (
        Subject("A", np.array([[1.0, 2.0]]), 0),
        Subject("B", np.array([[3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]), 1),
    )
    data = CohortDataset(subjects)
    factors = FactorTable(np.array([[0.0], [1.0]]), ("g",))
    path = tmp_path / "c.csv"
    write_cohort_csv(path, data, factors)
    data2, _ = read_cohort_csv(path)
    assert [s.visits.shape[0] for s in data2.subjects] == [1, 3]


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# Malformed cohort files whose defect is not in a feature cell.
MALFORMED = {
    "bad-header": "id,visit,y,x_0\nA,0,1,0.5\n",
    "non-contiguous-visits": "subject_id,visit,y,x_0\nA,0,1,0.5\nA,2,1,0.5\n",
    "inconsistent-label": "subject_id,visit,y,x_0\nA,0,1,0.5\nA,1,0,0.5\n",
    "inconsistent-factors": "subject_id,visit,y,f_g,x_0\nA,0,1,1.0,0.5\nA,1,1,2.0,0.5\n",
    "split-subject-blocks": "subject_id,visit,y,x_0\nA,0,1,0.5\nB,0,0,0.1\nA,1,1,0.5\n",
    "empty": "",
    "header-only": "subject_id,visit,y,x_0\n",
    "non-binary-label": "subject_id,visit,y,x_0\nA,0,2,0.5\n",
    "blank-row": "subject_id,visit,y,x_0\nA,0,1,0.5\n\nB,0,0,0.1\n",
    "short-row": "subject_id,visit,y,x_0\nA,0,1,0.5\nB,0\n",
    "no-feature-columns": "subject_id,visit,y,f_g\nA,0,1,1.0\n",
    "non-numeric-factor": "subject_id,visit,y,f_g,x_0\nA,0,1,high,0.5\n",
    "non-finite-factor": "subject_id,visit,y,f_g,x_0\nA,0,1,inf,0.5\n",
}


def test_rejects_bad_header(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["bad-header"]))


def test_rejects_non_contiguous_visits(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["non-contiguous-visits"]))


def test_rejects_inconsistent_label(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["inconsistent-label"]))


def test_rejects_inconsistent_factors(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["inconsistent-factors"]))


def test_rejects_split_subject_blocks(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["split-subject-blocks"]))


def test_rejects_non_numeric(tmp_path):
    p = _write(tmp_path / "x.csv", "subject_id,visit,y,x_0\nA,0,1,oops\n")
    with pytest.raises(DataError):
        read_cohort_csv(p)


def test_rejects_empty(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["empty"]))
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "y.csv", MALFORMED["header-only"]))


def test_rejects_non_binary_label(tmp_path):
    with pytest.raises(DataError):
        read_cohort_csv(_write(tmp_path / "x.csv", MALFORMED["non-binary-label"]))


@pytest.mark.parametrize("name", MALFORMED)
def test_factor_reader_raises_the_same_error(tmp_path, name):
    path = _write(tmp_path / "x.csv", MALFORMED[name])
    with pytest.raises(DataError) as full:
        read_cohort_csv(path)
    with pytest.raises(DataError) as factors_only:
        read_factor_table(path)
    assert str(factors_only.value) == str(full.value)


@pytest.mark.parametrize("row", ["A,1,1,0.5,0.5", "A,1,1,0.5", "A,1,1,0.5,0.5,0.5,0.5"],
                         ids=["missing-feature", "no-features", "extra-feature"])
def test_factor_reader_checks_field_count(tmp_path, row):
    path = _write(tmp_path / "x.csv",
                  f"subject_id,visit,y,f_g,x_0,x_1\nA,0,1,0.5,0.1,0.2\n{row}\n")
    for reader in (read_factor_table, read_cohort_csv):
        with pytest.raises(DataError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: subject A: wrong feature count"


def test_factor_reader_skips_feature_cells(tmp_path):
    """Scope of read_factor_table: feature cells are not converted."""
    path = _write(tmp_path / "x.csv",
                  "subject_id,visit,y,f_g,x_0\nA,0,1,0.5,oops\nB,0,0,1.5,inf\n")
    ids, factors = read_factor_table(path)
    assert ids == ["A", "B"]
    assert factors.values.tolist() == [[0.5], [1.5]]
    with pytest.raises(DataError, match="could not convert string to float: 'oops'"):
        read_cohort_csv(path)


_H = "subject_id,visit,y,f_g,f_h,x_0,x_1\n"
_B = "B,0,0,3.0,4.0,0.5,0.6\n"

# Cohorts whose visit, label or factor text is not the plain repeated form
# that write_cohort_csv writes, each with the exact error of both readers, or
# None where both accept it.
PINNED = {
    "visit-01": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,01,1,1.0,2.0,0.3,0.4\n" + _B, None),
    "label-plus-1": (_H + "A,0,+1,1.0,2.0,0.1,0.2\nA,1,+1,1.0,2.0,0.3,0.4\n" + _B, None),
    "label-plus-1-then-1": (_H + "A,0,+1,1.0,2.0,0.1,0.2\nA,1,1,1.0,2.0,0.3,0.4\n" + _B, None),
    "factor-1.0-then-1": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,1,1,2.0,0.3,0.4\n" + _B, None),
    "nan-repeated": (_H + "A,0,1,nan,2.0,0.1,0.2\nA,1,1,nan,2.0,0.3,0.4\n" + _B,
                     "{path}: subject A: factor values must be constant across visits"),
    "nan-one-visit": (_H + "A,0,1,nan,2.0,0.1,0.2\n" + _B,
                      "{path}: factor table contains missing or non-finite values"),
    "label-1.0": (_H + "A,0,1.0,1.0,2.0,0.1,0.2\nA,1,1.0,1.0,2.0,0.3,0.4\n" + _B,
                  "{path}: malformed row for subject A: invalid literal for int() with base 10: "
                  "'1.0'"),
    "label-2": (_H + "A,0,2,1.0,2.0,0.1,0.2\nA,1,2,1.0,2.0,0.3,0.4\n" + _B,
                "{path}: subject A: label must be 0 or 1"),
    "label-changes": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,0,1.0,2.0,0.3,0.4\n" + _B,
                      "{path}: subject A: label must be constant across visits"),
    "factor-changes": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,1,1.5,2.0,0.3,0.4\n" + _B,
                       "{path}: subject A: factor values must be constant across visits"),
    "factor-text": (_H + "A,0,1,high,2.0,0.1,0.2\nA,1,1,high,2.0,0.3,0.4\n" + _B,
                    "{path}: malformed row for subject A: could not convert string to float: "
                    "'high'"),
    "visit-from-1": (_H + "A,1,1,1.0,2.0,0.1,0.2\n" + _B,
                     "{path}: subject A: visit indices must be 0..0"),
    "short-row": (_H + "A,0,1,1.0,2.0,0.1,0.2\nB,0,0,3.0,4.0,0.5\n",
                  "{path}: subject B: wrong feature count"),
    "extra-field": (_H + "A,0,1,1.0,2.0,0.1,0.2\nB,0,0,3.0,4.0,0.5,0.6,0.7\n",
                    "{path}: subject B: wrong feature count"),
    "split-block": (_H + "A,0,1,1.0,2.0,0.1,0.2\n" + _B + "A,1,1,1.0,2.0,0.3,0.4\n",
                    "{path}: rows for subject A are not contiguous"),
    "blank-line": (_H + "A,0,1,1.0,2.0,0.1,0.2\n\n" + _B, "{path}: line 3: blank row"),
    "row-cut-before-factors": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,1\n" + _B,
                               "{path}: subject A: wrong feature count"),
    "row-cut-before-label": (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1\n" + _B,
                             "{path}: subject A: wrong feature count"),
}


@pytest.mark.parametrize("name", PINNED)
def test_readers_pin_each_message(tmp_path, capsys, name):
    """Both readers, and the graph and train commands that call them, which
    exit 2 with the message."""
    text, message = PINNED[name]
    path = _write(tmp_path / "x.csv", text)
    if message is None:
        data, factors = read_cohort_csv(path)
        ids, factors_only = read_factor_table(path)
        assert ids == data.subject_ids == ["A", "B"]
        assert data.labels.tolist() == [1, 0]
        assert [s.visits.shape[0] for s in data.subjects] == [2, 1]
        assert factors.values.tolist() == factors_only.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        return
    expected = message.format(path=path)
    for reader in (read_cohort_csv, read_factor_table):
        with pytest.raises(DataError) as caught:
            reader(path)
        assert str(caught.value) == expected
    for command in ("graph", "train"):
        code = main([command, "--cohort", str(path), "--out", str(tmp_path / command)])
        assert (code, capsys.readouterr().err) == (2, f"data error: {expected}\n")


def test_short_later_visit(tmp_path):
    """A short second visit is the same field-count error in both readers."""
    path = _write(tmp_path / "x.csv", _H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,1,1.0,2.0,0.3\n" + _B)
    for reader in (read_factor_table, read_cohort_csv):
        with pytest.raises(DataError) as caught:
            reader(path)
        assert str(caught.value) == f"{path}: subject A: wrong feature count"


def test_non_finite_feature_names_the_file(tmp_path, capsys):
    """A non-finite feature cell fails read_cohort_csv and train with the
    file's path; graph, which never converts feature cells, accepts it."""
    path = _write(tmp_path / "x.csv",
                  _H + "A,0,1,1.0,2.0,0.1,inf\n" + _B + "C,0,1,5.0,6.0,0.7,0.8\n")
    expected = f"{path}: subject A: non-finite feature values"
    with pytest.raises(DataError) as caught:
        read_cohort_csv(path)
    assert str(caught.value) == expected
    assert main(["train", "--cohort", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"data error: {expected}\n"
    assert read_factor_table(path)[0] == ["A", "B", "C"]
    assert main(["graph", "--cohort", str(path), "--out", str(tmp_path / "graph"), "--k", "1"]) == 0


@pytest.mark.parametrize("spec", [SynthSpec(n_subjects=60, feature_width=6, seed=11),
                                  SynthSpec(n_subjects=50, feature_width=3, max_visits=9,
                                            seed=5)], ids=["tiny", "long"])
def test_readers_agree_on_valid_cohorts(tmp_path, spec):
    data, factors, _ = generate(spec)
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, data, factors)
    full_data, full_factors = read_cohort_csv(path)
    ids, factors_only = read_factor_table(path)
    assert ids == full_data.subject_ids
    assert factors_only.factor_names == full_factors.factor_names
    assert factors_only.values.tobytes() == full_factors.values.tobytes()


def csv_walk(path, features):
    """What `_csv_walk` alone reads from `path`, the reference for both
    readers: (ids, labels, visits or None, factor table), or the text of the
    DataError it raises, which names the file as the readers' errors do."""
    try:
        with dataset._open_for_reading(path) as fh:
            try:
                subjects, factor_rows, names = dataset._csv_walk(fh, features)
                factors = FactorTable(np.array(factor_rows, dtype=np.float64), tuple(names))
            except DataError as exc:
                raise DataError(f"{path}: {exc}") from None
    except DataError as exc:
        return str(exc)
    if not features:
        return subjects, None, None, factors
    return ([s.subject_id for s in subjects], [s.label for s in subjects],
            [s.visits for s in subjects], factors)


def read_both(path):
    """read_cohort_csv and read_factor_table on `path`, each as `csv_walk`
    gives it."""
    found = []
    for reader in (read_cohort_csv, read_factor_table):
        try:
            first, factors = reader(path)
        except DataError as exc:
            found.append(str(exc))
            continue
        if reader is read_factor_table:
            found.append((first, None, None, factors))
        else:
            found.append((first.subject_ids, [s.label for s in first.subjects],
                          [s.visits for s in first.subjects], factors))
    return found


def assert_walks_agree(path):
    """Both readers return what the csv walk returns, compared bit for bit,
    or raise its exact DataError."""
    for got, features in zip(read_both(path), (True, False)):
        want = csv_walk(path, features)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            continue
        assert got[0] == want[0]
        assert got[1] == want[1]
        if features:
            assert [v.shape for v in got[2]] == [v.shape for v in want[2]]
            assert [v.tobytes() for v in got[2]] == [v.tobytes() for v in want[2]]
        assert got[3].factor_names == want[3].factor_names
        assert got[3].values.shape == want[3].values.shape
        assert got[3].values.tobytes() == want[3].values.tobytes()


_QUOTED_IDS = ["a,b", 'q"q', "x\ny", "x\ry"]


def _quoted_cohort_bytes(tmp_path) -> bytes:
    """A cohort written by write_cohort_csv whose ids csv must quote, each
    between plain ones."""
    ids = [sid for k, quoted in enumerate(_QUOTED_IDS) for sid in (f"P{k}", quoted)]
    rng = np.random.default_rng(3)
    data = CohortDataset(tuple(Subject(sid, rng.normal(size=(1 + i % 3, 2)), i % 2)
                               for i, sid in enumerate(ids + ["Z"])))
    factors = FactorTable(rng.normal(size=(data.n_samples, 2)), ("g", "h"))
    path = tmp_path / "quoted_source.csv"
    write_cohort_csv(path, data, factors)
    return path.read_bytes()


# Files beyond PINNED and MALFORMED that the clean walk must leave to the csv
# walk, or must read as it does.
WALK_CASES = {
    "quoted-ids": _quoted_cohort_bytes,
    "quoted-ids-crlf": lambda tmp: _quoted_cohort_bytes(tmp).replace(b"\n", b"\r\n"),
    "crlf": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,1,1,1.0,2.0,0.3,0.4\n" + _B)
    .replace("\n", "\r\n").encode(),
    "nul-in-feature": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.\x002\n" + _B).encode(),
    "feature-over-field-limit": lambda tmp: (
        _H + "A,0,1,1.0,2.0,0.1,0." + "1" * csv.field_size_limit() + "\n" + _B).encode(),
    "no-final-newline": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\n" + _B[:-1]).encode(),
    "trailing-blank-line": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\n" + _B + "\n").encode(),
    "byte-order-mark": lambda tmp: b"\xef\xbb\xbf" + (_H + "A,0,1,1.0,2.0,0.1,0.2\n" + _B).encode(),
    "not-utf8": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\n").encode() + b"B,0,0,3.0,4.0,\xff,0.6\n",
    "header-over-field-limit": lambda tmp: (
        _H.replace("f_h", "f_" + "h" * csv.field_size_limit()) + "A,0,1,1.0,2.0,0.1,0.2\n" + _B)
    .encode(),
    "id-changes-mid-block": lambda tmp: (
        _H + "A,0,1,1.0,2.0,0.1,0.2\nB,1,1,1.0,2.0,0.3,0.4\nC,0,0,3.0,4.0,0.5,0.6\n").encode(),
    "visits-restart": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\nA,0,1,1.0,2.0,0.3,0.4\n" + _B)
    .encode(),
    "block-repeats": lambda tmp: (_H + "A,0,1,1.0,2.0,0.1,0.2\n" + _B + "A,0,1,1.0,2.0,0.3,0.4\n")
    .encode(),
    "block-repeats-chunks-later": lambda tmp: (
        _H + "A,0,1,1.0,2.0,0.1,0.2\n"
        + "".join(f"S{i:05d},0,0,3.0,4.0,0.5,0.6\n" for i in range(5000))
        + "A,0,1,1.0,2.0,0.3,0.4\n").encode(),
}


@pytest.mark.parametrize("name", [f"pinned-{n}" for n in PINNED] + [f"malformed-{n}" for n in MALFORMED]
                         + list(WALK_CASES))
def test_both_walks_read_alike(tmp_path, name):
    """Every pinned, malformed and extra file: both readers equal the csv walk."""
    path = tmp_path / "x.csv"
    if name.startswith("pinned-"):
        path.write_text(PINNED[name.removeprefix("pinned-")][0], encoding="utf-8")
    elif name.startswith("malformed-"):
        path.write_text(MALFORMED[name.removeprefix("malformed-")], encoding="utf-8")
    else:
        path.write_bytes(WALK_CASES[name](tmp_path))
    assert_walks_agree(path)


def test_clean_walk_reads_a_written_cohort(tmp_path):
    """The clean walk accepts what write_cohort_csv writes for plain ids, and
    leaves quoted ids and CRLF line ends to the csv walk."""
    data, factors, _ = generate(SynthSpec(n_subjects=60, feature_width=6, seed=11))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, data, factors)
    quoted = tmp_path / "quoted.csv"
    quoted.write_bytes(_quoted_cohort_bytes(tmp_path))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for features in (False, True):
        with dataset._open_for_reading(path) as fh:
            subjects, _, names = dataset._clean_walk(fh, features)
        assert len(subjects) == 60 and names == list(factors.factor_names)
        for other in (quoted, crlf):
            with dataset._open_for_reading(other) as fh:
                assert dataset._clean_walk(fh, features) is None
        assert_walks_agree(crlf)


def test_clean_walk_carries_a_subject_across_chunks(tmp_path):
    """A cohort over several 64 KiB chunks, with a 600-visit subject whose
    rows span the first chunk boundary, reads as the csv walk reads it."""
    rng = np.random.default_rng(0)
    subjects = [Subject(f"S{i:03d}", rng.normal(size=(600 if i == 5 else 1 + i % 4, 8)), i % 2)
                for i in range(200)]
    data = CohortDataset(tuple(subjects))
    factors = FactorTable(rng.normal(size=(200, 3)), ("a", "b", "c"))
    path = tmp_path / "cohort.csv"
    write_cohort_csv(path, data, factors)
    lines = path.read_bytes().split(b"\n")
    first = [i for i, line in enumerate(lines) if line.startswith(b"S005,")]
    before = sum(len(line) + 1 for line in lines[:first[0]])
    assert before < 1 << 16 < before + sum(len(lines[i]) + 1 for i in first)
    assert path.stat().st_size > 2 * (1 << 16)
    with dataset._open_for_reading(path) as fh:
        assert dataset._clean_walk(fh, True) is not None
    assert_walks_agree(path)


@settings(max_examples=40, deadline=None)
@given(ids=st.lists(st.text(alphabet='ab,"\n\r', max_size=4), min_size=1, max_size=5, unique=True),
       seed=st.integers(0, 2**16))
def test_written_cohorts_read_alike(ids, seed):
    """write_cohort_csv, then both readers, over ids with the characters csv
    quotes: the subjects written, and what the csv walk reads."""
    rng = np.random.default_rng(seed)
    data = CohortDataset(tuple(Subject(sid, rng.normal(size=(1 + rng.integers(3), 2)), i % 2)
                               for i, sid in enumerate(ids)))
    factors = FactorTable(rng.normal(size=(len(ids), 2)), ("g", "h"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cohort.csv"
        write_cohort_csv(path, data, factors)
        assert_walks_agree(path)
        full, factors_read = read_cohort_csv(path)
        assert full.subject_ids == ids
        assert [s.visits.tobytes() for s in full.subjects] == [
            s.visits.tobytes() for s in data.subjects]
        assert factors_read.values.tobytes() == factors.values.tobytes()


def test_a_byte_order_mark_is_dropped(tmp_path, capsys):
    """A cohort that starts with a UTF-8 byte-order mark, as spreadsheet
    exports write, reads as the same file without it, and graph and train
    run on it."""
    data, factors, _ = generate(SynthSpec(n_subjects=40, feature_width=3, seed=2))
    plain = tmp_path / "plain.csv"
    write_cohort_csv(plain, data, factors)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for reader in (read_cohort_csv, read_factor_table):
        first, table = reader(marked)
        ids = first.subject_ids if reader is read_cohort_csv else first
        assert ids == data.subject_ids
        assert table.values.tobytes() == reader(plain)[1].values.tobytes()
    for command in ("graph", "train"):
        extra = ["--k", "5"] + (["--epochs", "1", "--folds", "2"] if command == "train" else [])
        assert main([command, "--cohort", str(marked), "--out", str(tmp_path / command), *extra]) == 0
    capsys.readouterr()


def test_subject_validation():
    with pytest.raises(DataError):
        Subject("A", np.zeros((0, 3)), 0)
    with pytest.raises(DataError):
        Subject("A", np.array([[np.inf, 0.0]]), 0)
    with pytest.raises(DataError):
        CohortDataset((Subject("A", np.zeros((1, 2)), 0), Subject("A", np.zeros((1, 2)), 1)))
    with pytest.raises(DataError):
        CohortDataset((Subject("A", np.zeros((1, 2)), 0), Subject("B", np.zeros((1, 3)), 1)))


def test_groups_roundtrip(tmp_path):
    data, _, groups = generate(SynthSpec(n_subjects=20, feature_width=4, seed=3))
    path = tmp_path / "groups.csv"
    write_groups_csv(path, data.subject_ids, groups)
    loaded = read_groups_csv(path)
    assert loaded == dict(zip(data.subject_ids, groups))


@pytest.mark.parametrize("raw, message", [
    (b"subject_id,noise_group\nS0000,low\nS0001\n", r"groups\.csv:3: expected 2 fields, got 1"),
    (b"subject_id,noise_group\nS0000,low\nS0001,high\nS0000,high\n",
     r"groups\.csv:4: duplicate subject 'S0000'"),
    (b"subject_id,noise_group\nS0000,l\xffow\n", r"cannot read .*groups\.csv: 'utf-8' codec"),
], ids=["short-row", "repeated-subject", "not-utf8"])
def test_bad_groups_file_is_data_error(tmp_path, raw, message):
    path = tmp_path / "groups.csv"
    path.write_bytes(raw)
    with pytest.raises(DataError, match=message):
        read_groups_csv(path)


def test_missing_groups_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match=r"cannot read .*absent\.csv: \[Errno 2\]"):
        read_groups_csv(tmp_path / "absent.csv")
