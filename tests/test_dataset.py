"""Loading and cleaning delimited numeric data."""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gradmine.dataset
from conftest import COURSE_NAMES, COURSE_ROWS, reference_clean, write_csv
from gradmine import Dataset, DatasetError, load_dataset, object_pair_count


def test_basic_load(course_csv):
    d = load_dataset(course_csv)
    assert d.attribute_names == COURSE_NAMES
    assert d.n == 4 and d.m == 3
    assert np.array_equal(d.values, np.array(COURSE_ROWS))


def test_no_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("1,2\n3,4\n", encoding="utf-8")
    d = load_dataset(path, has_header=False)
    assert d.attribute_names == ("col0", "col1")
    assert d.n == 2


def test_semicolon_and_tab_delimiters(tmp_path):
    semi = tmp_path / "semi.csv"
    semi.write_text("a;b\n1;2\n3;4\n", encoding="utf-8")
    assert load_dataset(semi, delimiter=";").m == 2
    tab = tmp_path / "tab.tsv"
    tab.write_text("a\tb\n1\t2\n3\t4\n", encoding="utf-8")
    assert load_dataset(tab, delimiter="\t").m == 2


def test_text_column_dropped(tmp_path):
    path = tmp_path / "named.csv"
    rows = [["ada", *row] for row in COURSE_ROWS]
    write_csv(path, ("name", *COURSE_NAMES), rows)
    d = load_dataset(path)
    assert d.attribute_names == COURSE_NAMES
    assert d.m == 3


def test_comma_decimal_rejected(tmp_path):
    # "1,5" style cells make the whole column non-numeric.
    path = tmp_path / "comma.csv"
    path.write_text('a,b,c\n"1,5",2,3\n"2,5",4,5\n', encoding="utf-8")
    d = load_dataset(path)
    assert d.attribute_names == ("b", "c")


def test_scientific_notation_accepted(tmp_path):
    path = tmp_path / "sci.csv"
    path.write_text("a,b\n1e-3,2\n2E2,4\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.values[0, 0] == pytest.approx(1e-3)
    assert d.values[1, 0] == pytest.approx(200.0)


def test_nonfinite_spellings_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("a,b,c\ninf,1,2\n3,4,5\n-inf,6,7\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.attribute_names == ("b", "c")


def test_timestamp_column_dropped(tmp_path):
    # Dates and times are text cells, so a column with any of them is
    # dropped, and survivors keep their order.
    path = tmp_path / "ts.csv"
    path.write_text(
        "when,a,b\n2024-01-02,1,2\n2024-01-03 10:20:30,3,4\n05/06/2024,5,6\n",
        encoding="utf-8",
    )
    d = load_dataset(path)
    assert d.attribute_names == ("a", "b")
    half = tmp_path / "half.csv"
    half.write_text("w,a,b\n2024-01-02,1,2\n7,3,4\n", encoding="utf-8")
    assert load_dataset(half).attribute_names == ("a", "b")


def test_missing_cell_drops_row(tmp_path):
    path = tmp_path / "gap.csv"
    rows = [list(r) for r in COURSE_ROWS]
    rows[1][2] = ""
    write_csv(path, COURSE_NAMES, rows)
    d = load_dataset(path)
    assert d.n == 3


def test_missing_tokens(tmp_path):
    path = tmp_path / "tok.csv"
    path.write_text("a,b\n1,2\nNaN,3\n?,4\nNA,5\n6,7\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.n == 2
    assert d.values[:, 0].tolist() == [1.0, 6.0]


def test_too_few_columns(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("a,b\n1,x\n2,y\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_too_few_rows(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_unreadable_file(tmp_path):
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "absent.csv")


def test_undecodable_or_oversized_file(unreadable_csv):
    with pytest.raises(DatasetError, match="cannot read"):
        load_dataset(unreadable_csv)


def test_each_cell_parsed_at_most_once(tmp_path, monkeypatch):
    calls = []
    real = gradmine.dataset._parse_number

    def counting(cell):
        calls.append(cell)
        return real(cell)

    monkeypatch.setattr(gradmine.dataset, "_parse_number", counting)
    path = tmp_path / "mixed.csv"
    path.write_text("a,b,c,d\n1,2,x,3\n4,,y,5\n6,7,z,8,99\n9,10\n", encoding="utf-8")
    d = load_dataset(path)
    assert d.attribute_names == ("a", "b", "d")
    assert d.values.tolist() == [[1.0, 2.0, 3.0], [6.0, 7.0, 8.0]]
    assert len(calls) <= 4 * 4  # data rows x header width


_FUZZ_TOKENS = (
    "", " ", "NaN", "nan", "?", "NA",  # missing spellings
    "NAN", "abc", "x y",  # text
    "1,5", "2,0",  # comma decimals
    "inf", "-inf", "Infinity", "1e999",  # non-finite
    "2024-01-02", "2024-01-02T10:20", "05/06/2024", "5/6/24 1:02",  # dates
    "1_000", "0x1A",  # underscores, hex
    "0", "1", "-2", "3.5", " 4 ", "+7", ".5", "1e3", "2E-2",  # numbers
)


@st.composite
def csv_rows(draw):
    """Rows of one width, some cut short or run long, with cells that are
    mostly numbers."""
    number = st.integers(-9, 9) | st.floats(-1e3, 1e3)
    cell = number.map(str) | st.sampled_from(_FUZZ_TOKENS)
    width = draw(st.integers(1, 5))
    row = st.lists(cell, min_size=width, max_size=width) | st.lists(cell, max_size=width + 1)
    return draw(st.lists(row, max_size=7))


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(rows=csv_rows(), delimiter=st.sampled_from((",", ";")), has_header=st.booleans())
def test_loader_matches_reference(tmp_path, rows, delimiter, has_header):
    path = tmp_path / "fuzz.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, delimiter=delimiter).writerows(rows)
    expected = reference_clean(path, delimiter, has_header)
    if expected is None:
        with pytest.raises(DatasetError):
            load_dataset(path, delimiter, has_header)
        return
    d = load_dataset(path, delimiter, has_header)
    assert d.attribute_names == expected[0]
    assert d.values.tolist() == expected[1]


def test_duplicate_names_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, ("a", "a", "b"), [[1, 2, 3], [4, 5, 6], [7, 9, 8]])
    with pytest.raises(DatasetError, match="duplicate attribute name 'a'"):
        load_dataset(path)
    # Only the surviving columns need distinct names.
    write_csv(path, ("a", "a", "b"), [["x", 2, 3], [4, 5, 6], [7, 9, 8]])
    assert load_dataset(path).attribute_names == ("a", "b")


def test_cleaning_idempotent(tmp_path, course_csv):
    d1 = load_dataset(course_csv)
    back = tmp_path / "clean.csv"
    write_csv(back, d1.attribute_names, d1.values.tolist())
    d2 = load_dataset(back)
    assert d2.attribute_names == d1.attribute_names
    assert np.array_equal(d2.values, d1.values)


class TestDatasetType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset(("a",), np.ones((3, 1)))  # m < 2
        with pytest.raises(ValueError):
            Dataset(("a", "b"), np.ones((1, 2)))  # n < 2
        with pytest.raises(ValueError):
            Dataset(("a",), np.ones((3, 2)))  # name count mismatch
        with pytest.raises(ValueError):
            Dataset(("a", "b"), np.array([[1.0, np.nan], [2.0, 3.0]]))
        with pytest.raises(DatasetError, match="duplicate attribute name 'b'"):
            Dataset(("b", "c", "b"), np.ones((2, 3)))

    def test_values_frozen_and_copied(self):
        source = np.ones((2, 2))
        d = Dataset(("a", "b"), source)
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0
        source[0, 0] = 9.0  # caller's array stays writable and detached
        assert d.values[0, 0] == 1.0


    def test_equal_by_names_and_values(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        d = Dataset(("a", "b"), values)
        assert d == Dataset(("a", "b"), values.copy())
        assert d != Dataset(("a", "b"), values + 1.0)
        assert d != Dataset(("a", "b"), values[:2])
        assert d != Dataset(("a", "c"), values)
        assert d != "a dataset"
        with pytest.raises(TypeError):
            hash(d)

    def test_equality_ignores_cached_index(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 0.0]])
        d, twin = Dataset(("a", "b"), values), Dataset(("a", "b"), values)
        index = d.index
        assert d == twin and twin == d
        assert d.index is index
        assert "index" not in twin.__dict__  # comparing built nothing


def test_object_pair_count(course_dataset):
    assert object_pair_count(course_dataset) == 6
    assert object_pair_count(Dataset(("a", "b"), np.array([[1.0, 2.0], [3.0, 4.0]]))) == 1
    rng = np.random.default_rng(0)
    assert object_pair_count(Dataset(("a", "b"), rng.random((10, 2)))) == 45
