import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
