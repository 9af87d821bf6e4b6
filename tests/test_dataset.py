import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sample_cov
from rcpca import build_blockset, dataset, from_matrix, load_block
from rcpca.dataset import Block, Preprocessing, _cell, _csv_table, _preprocess
from rcpca.errors import (
    DataError,
    DegenerateColumnError,
    DimensionError,
    ParseError,
)


def write_csv(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadBlock:
    def test_centering_only(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x\n3\n1\n")
        block = load_block(path)
        np.testing.assert_allclose(block.matrix[:, 0], [1.0, -1.0])
        np.testing.assert_allclose(block.preprocessing.means, [2.0])
        assert block.preprocessing.scales is None
        assert block.id == "a"

    def test_unit_variance_noop_when_var_is_one(self, tmp_path):
        # variance under the 1/n convention is already 1
        path = write_csv(tmp_path, "a.csv", "x\n3\n1\n")
        block = load_block(path, scale=True)
        np.testing.assert_allclose(block.matrix[:, 0], [1.0, -1.0])
        np.testing.assert_allclose(block.preprocessing.scales, [1.0])

    def test_constant_column_rejected_under_scaling(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x,y\n1,5\n2,5\n3,5\n")
        with pytest.raises(DegenerateColumnError, match="'y'"):
            load_block(path, scale=True)

    def test_constant_column_allowed_without_scaling(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x,y\n1,5\n2,5\n3,5\n")
        block = load_block(path)
        np.testing.assert_allclose(block.matrix[:, 1], 0.0)

    def test_non_numeric_cell_reports_location(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x,y\n1,2\n1,oops\n")
        with pytest.raises(ParseError, match=r"row 3.*'y'"):
            load_block(path)

    def test_missing_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x,y\n1,2\n1,\n")
        with pytest.raises(ParseError, match="missing"):
            load_block(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x,y\n1,2\n1\n")
        with pytest.raises(ParseError, match="fields"):
            load_block(path)

    def test_single_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "x\n1\n")
        with pytest.raises((ParseError, DimensionError)):
            load_block(path)

    def test_id_column_and_tab_delimiter(self, tmp_path):
        path = write_csv(tmp_path, "a.tsv", "id\tx\nr1\t3\nr2\t1\n")
        block = load_block(path, delimiter="\t", id_column=True)
        assert block.preprocessing.row_ids == ("r1", "r2")
        assert block.columns == ("x",)
        np.testing.assert_allclose(block.matrix[:, 0], [1.0, -1.0])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n1,2\n1,\n", "block 'a': missing value at row 3, column 'y'"),
            ("x,y\n1,2\n1, \n", "block 'a': missing value at row 3, column 'y'"),
            ("x,y\n1,2\n1,oops\n", "block 'a': non-numeric value 'oops' at row 3, column 'y'"),
            ("x,y\n1,2\nnan,1\n", "block 'a': non-finite value at row 3, column 'x'"),
            ("x,y\n1,2\n3,-inf\n", "block 'a': non-finite value at row 3, column 'y'"),
            ("x,y\n1,2\n1\n", "block 'a': row 3 has 1 fields, expected 2"),
            # the first fault in file order wins: the cell on row 3, not row 5
            ("x,y\n1,2\n1, zz \n3,4\n5\n",
             "block 'a': non-numeric value 'zz' at row 3, column 'y'"),
            ("x,y\n1,2\n1,2,3\n1,oops\n", "block 'a': row 3 has 3 fields, expected 2"),
            # rows are numbered as file lines, so skipped blank lines count
            ("x,y\n1,2\n\n1,oops\n", "block 'a': non-numeric value 'oops' at row 4, column 'y'"),
            ("x,y\r\n1,2\r\n\r\n1,oops\r\n",
             "block 'a': non-numeric value 'oops' at row 4, column 'y'"),
            ("x,y\n\n1,2\n , \n1\n", "block 'a': row 5 has 1 fields, expected 2"),
        ],
    )
    def test_parse_error_messages(self, tmp_path, text, message):
        path = write_csv(tmp_path, "a.csv", text)
        with pytest.raises(ParseError) as info:
            load_block(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,y\n1,2\n3," + "0" * 200_000 + "4\n5,6\n",
             "block 'a': row 3: field larger than field limit (131072)"),
            ("x," + "y" * 200_000 + "\n1,2\n3,4\n",
             "block 'a': row 1: field larger than field limit (131072)"),
        ],
        ids=["row", "header"],
    )
    def test_cell_over_the_csv_field_limit(self, tmp_path, text, message):
        path = write_csv(tmp_path, "a.csv", text)
        with pytest.raises(ParseError) as info:
            load_block(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "text, id_column, message",
        [
            ("", False, "block 'a': need a header row plus data rows"),
            ("x,y\n", False, "block 'a': need a header row plus data rows"),
            ("\n,\nx,y\n\n", False, "block 'a': need a header row plus data rows"),
            ("id\nr1\nr2\n", True, "block 'a': id column declared but only one column present"),
        ],
    )
    def test_table_shape_messages(self, tmp_path, text, id_column, message):
        path = write_csv(tmp_path, "a.csv", text)
        with pytest.raises(ParseError) as info:
            load_block(path, id_column=id_column)
        assert str(info.value) == message

    def test_quoted_numeric_cells(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", 'x,"y"\n"1.5",2\n0.5," 4 "\n')
        block = load_block(path)
        assert block.columns == ("x", "y")
        np.testing.assert_array_equal(block.preprocessing.means, [1.0, 3.0])

    def test_blank_and_empty_cell_rows_are_skipped(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "\nx,y\n\n1,2\n,\n,,\n \t, \n3,6\n\n")
        block = load_block(path)
        assert block.n == 2
        np.testing.assert_array_equal(block.matrix, [[-1.0, -2.0], [1.0, 2.0]])

    # \x1c is stripped by str.strip() but not by float()
    @pytest.mark.parametrize(
        "cell",
        [" 1 ", "\t2", "\xa03", "\x1c4", "1_000", "", " ", "nan", "-inf", "1e400", "0x10"],
    )
    def test_cells_read_as_cell_reads_them(self, cell):
        text = f"x,y\n1,{cell}\n1,{cell}\n"
        try:
            expected = _cell("a", 2, "y", cell)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                load_block(io.StringIO(text), id="a")
            assert str(info.value) == str(exc)
        else:
            # the mean of two equal values is that value, exactly
            block = load_block(io.StringIO(text), id="a")
            assert block.preprocessing.means[1] == expected

    def test_padded_cells_and_id_column_are_stripped(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", " id , x ,y\n r1 , 3 ,\t1e0\nr2,  1,-1 \n")
        block = load_block(path, id_column=True)
        assert block.preprocessing.row_ids == ("r1", "r2")
        assert block.columns == ("x", "y")
        np.testing.assert_allclose(block.preprocessing.means, [2.0, 0.0])
        np.testing.assert_allclose(block.matrix, [[1.0, 1.0], [-1.0, -1.0]])

    def test_lone_carriage_return_in_a_stream(self):
        # a path is read with universal newlines; a stream keeps a lone \r inside its line
        with pytest.raises(ParseError, match=r"^block 'block': row 3: a carriage return inside a row; "
                                             r"save the file with one line ending per row$"):
            load_block(io.StringIO("x,y\n1,2\n3\r,4\n5,6\n"))

    @pytest.mark.parametrize("text", [
        "a,b\n3,1\n1,2\n2,6\n",  # the numpy reader's table
        '"a","b"\n3,1\n1,"2"\n2,6\n',  # the csv reader's
    ], ids=["clean", "quoted"])
    @pytest.mark.parametrize("source", ["path", "stream"])
    def test_byte_order_mark_is_not_data(self, tmp_path, text, source):
        read = {"path": lambda t: load_block(write_csv(tmp_path, "a.csv", t)),
                "stream": lambda t: load_block(io.StringIO(t))}[source]
        got, expected = read("\ufeff" + text), read(text)
        assert got.columns == expected.columns == ("a", "b")
        np.testing.assert_array_equal(got.matrix, expected.matrix)

    def test_file_like_source(self):
        block = load_block(io.StringIO("x\n4\n0\n"), id="mem")
        np.testing.assert_allclose(block.matrix[:, 0], [2.0, -2.0])

    def test_huge_offsets_center_cleanly(self):
        rng = np.random.default_rng(0)
        block = from_matrix("big", 1e9 + rng.standard_normal((20, 3)))
        norms = np.linalg.norm(block.matrix, axis=0)
        assert np.all(np.abs(block.matrix.mean(axis=0)) <= 1e-12 * norms)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_columns_centered_after_load(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(loc=rng.uniform(-50, 50), scale=rng.uniform(0.1, 10),
                          size=(int(rng.integers(2, 30)), int(rng.integers(1, 6))))
        block = from_matrix("r", data, scale=bool(rng.integers(0, 2)))
        norms = np.linalg.norm(block.matrix, axis=0)
        assert np.all(np.abs(block.matrix.mean(axis=0)) <= 1e-12 * np.maximum(norms, 1.0))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_from_matrix_owns_a_read_only_matrix(self, order):
        data = np.asarray(np.arange(12.0).reshape(4, 3) ** 2, order=order)
        before = data.copy()
        for scale in (False, True):
            matrix = from_matrix("x", data, scale=scale).matrix
            assert not np.shares_memory(matrix, data)
            assert matrix.flags.c_contiguous and not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        np.testing.assert_array_equal(data, before)

    @pytest.mark.parametrize("names, message", [
        ({"columns": ["x"]}, "block 'a': 3 columns, names for 1"),
        ({"columns": ["x", "y", "z", "w"]}, "block 'a': 3 columns, names for 4"),
        ({"row_ids": ["r1", "r2"]}, "block 'a': 4 rows, row ids for 2"),
        ({"row_ids": [f"r{i}" for i in range(5)]}, "block 'a': 4 rows, row ids for 5"),
        # checked before scaling names the constant third column
        ({"columns": ["x"], "scale": True}, "block 'a': 3 columns, names for 1"),
    ], ids=["too_few_columns", "too_many_columns", "too_few_row_ids", "too_many_row_ids",
            "too_few_columns_scaled"])
    def test_names_must_match_the_shape(self, names, message):
        x = np.column_stack([np.arange(8.0).reshape(4, 2), np.ones(4)])
        with pytest.raises(DimensionError, match=message):
            from_matrix("a", x, **names)


# cells numpy's reader takes, and cells that send a table to the csv reader
FAST_CELLS = ["0", "-0", "-2.5", " 3e-4 ", "1e5 ", "\xa07", "\x1c4", "12345678.9"]
SLOW_CELLS = ["1_000", "١", "１", "nan", "-inf", "1e400", "", " ", '"5"', '" 6 "',
              "#1", "3\r", "0x10", "4\x00", "oops"]


@st.composite
def tables(draw):
    """A table text, its delimiter and id-column flag, and whether it is clean."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    id_column = draw(st.booleans())
    width = draw(st.integers(1, 3))
    names = ["id"] * id_column + [f" v{j}" for j in range(width)]
    fast = st.sampled_from(FAST_CELLS)
    cell = st.one_of(fast, fast, st.sampled_from(FAST_CELLS + SLOW_CELLS))
    lines = [""] * draw(st.integers(0, 1)) + [delimiter.join(names)]
    clean = True
    n_rows = draw(st.integers(0, 4))
    for i in range(n_rows):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        cells = ["r%d " % i] * id_column + [draw(cell) for _ in range(width)]
        if kind == "blank":
            cells = [draw(st.sampled_from(["", " "]))] * draw(st.integers(1, len(names)))
        elif kind == "ragged":
            cells = cells[:-1] if draw(st.booleans()) else cells + [draw(cell)]
        clean &= kind == "row" and all(c in FAST_CELLS for c in cells[id_column:])
        lines.append(delimiter.join(cells))
    clean &= n_rows >= 2
    # an empty last line is a row only when a newline ends it
    end = "\n" if lines[-1] == "" else draw(st.sampled_from(["", "\n"]))
    return "\n".join(lines) + end, delimiter, id_column, clean


def outcome(read):
    """What a reader returns: the block's bytes, names and ids, or its error."""
    try:
        block = read()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    pre = block.preprocessing
    return (block.matrix.tobytes(), block.matrix.shape, pre.means.tobytes(),
            pre.columns, pre.row_ids)


class TestReadersAgree:
    """load_block returns what the csv reader returns, whichever reader parsed."""

    @staticmethod
    def csv_block(lines, delimiter, id_column):
        columns, row_ids, raw = _csv_table(lines, "a", delimiter, id_column)
        return _preprocess(raw, "a", columns, row_ids, False)

    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_stream_matches_csv_reader(self, table):
        text, delimiter, id_column, clean = table
        expected = outcome(lambda: self.csv_block(io.StringIO(text), delimiter, id_column))
        spy = mock.patch.object(dataset, "_csv_table", wraps=_csv_table)
        with spy as csv_reader:
            got = outcome(lambda: load_block(
                io.StringIO(text), id="a", delimiter=delimiter, id_column=id_column))
        assert got == expected
        # a clean table never reaches the csv reader; every other one does
        assert csv_reader.called == (not clean)

    @settings(max_examples=100, deadline=None)
    @given(tables())
    def test_file_matches_csv_reader(self, tmp_path_factory, table):
        text, delimiter, id_column, _ = table
        path = tmp_path_factory.mktemp("tables") / "a.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with path.open(encoding="utf-8") as lines:
            expected = outcome(lambda: self.csv_block(lines, delimiter, id_column))
        got = outcome(lambda: load_block(path, delimiter=delimiter, id_column=id_column))
        assert got == expected

    @pytest.mark.parametrize(
        "text, parsed",
        [
            ('x,y\n1,2\n3,"4"\n', False),
            ("x,y\r\n1,2\r\n3,4\r\n", False),
            ("x\x00,y\n1,2\n3,4\n", False),
            ("x,y\n1,2\n\n3,4\n", False),
            ("x,y\n1,2\n3,4\n,\n ,\n", False),
            ("x,y\n1,2\n3,4,5\n", False),
            ("x,y\n1,2\n", False),
            ("x,y\n1,2\n3," + "0" * 200_000 + "4\n", False),
            ("x,y\n1,2\n3,1_000\n", True),
            ("x,y\n1,2\n3,nan\n", True),
        ],
        ids=["quote", "carriage-return", "nul", "blank-row", "empty-cell-rows", "wide-row",
             "single-row", "past-field-limit", "float-only-cell", "non-finite"],
    )
    def test_declined_tables_take_the_csv_reader(self, text, parsed):
        expected = outcome(lambda: self.csv_block(io.StringIO(text), ",", False))
        with (mock.patch.object(dataset, "_csv_table", wraps=_csv_table) as csv_reader,
              mock.patch.object(dataset.np, "loadtxt", wraps=np.loadtxt) as loadtxt):
            assert outcome(lambda: load_block(io.StringIO(text), id="a")) == expected
        assert csv_reader.called
        # only what np.loadtxt alone can judge is parsed twice
        assert loadtxt.called == parsed

    def test_clean_table_skips_the_csv_reader(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", "\n id ,x, y\n r1 ,3,-1e0\nr2, 1 ,\xa02\n")
        with mock.patch.object(dataset, "_csv_table", wraps=_csv_table) as csv_reader:
            block = load_block(path, id_column=True)
        assert not csv_reader.called
        assert block.columns == ("x", "y") and block.preprocessing.row_ids == ("r1", "r2")
        np.testing.assert_array_equal(block.preprocessing.means, [2.0, 0.5])

    def test_cell_fault_before_undecodable_bytes_is_reported(self, tmp_path):
        # the bad bytes sit past the text stream's first decoded chunk
        rows = "".join(f"{i},{i % 7}\n" for i in range(20000))
        path = tmp_path / "a.csv"
        path.write_bytes(b"x,y\n1,2\n1,oops\n" + rows.encode() + b"caf\xe9,3\n")
        with pytest.raises(ParseError) as info:
            load_block(path)
        assert str(info.value) == "block 'a': non-numeric value 'oops' at row 3, column 'y'"
        path.write_bytes(b"x,y\n1,2\n" + rows.encode() + b"caf\xe9,3\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            load_block(path)


class TestBuildBlockset:
    def test_concatenation_preserves_order(self):
        b1 = from_matrix("u", [[1.0], [-1.0]])
        b2 = from_matrix("v", [[1.0, 2.0], [3.0, 4.0]])
        bs = build_blockset([b1, b2])
        assert bs.superblock.shape == (2, 3)
        np.testing.assert_array_equal(bs.superblock[:, :1], b1.matrix)
        np.testing.assert_array_equal(bs.superblock[:, 1:], b2.matrix)
        assert bs.superblock_columns == ("u:v1", "v:v1", "v:v2")

    def test_single_block_superblock_is_the_block(self):
        rng = np.random.default_rng(0)
        b = from_matrix("solo", rng.standard_normal((4, 3)))
        bs = build_blockset([b])
        np.testing.assert_array_equal(bs.superblock, b.matrix)

    def test_row_count_mismatch(self):
        b1 = from_matrix("u", [[1.0], [-1.0]])
        b2 = from_matrix("v", [[1.0], [2.0], [3.0]])
        with pytest.raises(DimensionError):
            build_blockset([b1, b2])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            build_blockset([])

    def test_row_id_mismatch(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p1.write_text("id,x\nr1,1\nr2,2\n")
        p2 = tmp_path / "b.csv"
        p2.write_text("id,x\nr1,1\nr9,2\n")
        b1 = load_block(p1, id_column=True)
        b2 = load_block(p2, id_column=True)
        with pytest.raises(DataError, match="identifiers"):
            build_blockset([b1, b2])


class TestFromMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = np.arange(6.0).reshape(3, 2)
        x[1, 0] = bad
        with pytest.raises(DataError, match="block 'a': non-finite values are not supported"):
            from_matrix("a", x)

    def test_one_dimensional_input_is_one_column(self):
        b = from_matrix("a", [1.0, 2.0, 6.0])
        assert b.matrix.shape == (3, 1)
        np.testing.assert_allclose(b.matrix[:, 0], [-2.0, -1.0, 3.0])
        assert b.columns == ("v1",)


class TestBlock:
    """The Block constructor checks shapes itself, whatever built its matrix."""

    @staticmethod
    def preprocessing(j):
        return Preprocessing(means=np.zeros(j), scales=None,
                             columns=tuple(f"c{k}" for k in range(j)), row_ids=None)

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(DimensionError, match="block 'a': expected a 2-d matrix"):
            Block("a", np.zeros(3), self.preprocessing(1))

    def test_one_row_rejected(self):
        with pytest.raises(DimensionError, match="block 'a': need at least 2 rows, got 1"):
            Block("a", np.zeros((1, 2)), self.preprocessing(2))

    def test_column_name_count_checked(self):
        with pytest.raises(DimensionError, match="block 'a': 2 columns, names for 3"):
            Block("a", np.zeros((4, 2)), self.preprocessing(3))

    def test_no_column_rejected(self):
        with pytest.raises(DimensionError, match="^block 'a': need at least 1 column$"):
            from_matrix("a", np.zeros((5, 0)))


class TestSampleCov:
    def test_variance_of_centered_pair(self):
        assert sample_cov([1.0, -1.0], [1.0, -1.0]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert sample_cov([1.0, -1.0], [-1.0, 1.0]) == pytest.approx(-1.0)

    def test_zero_vector(self):
        assert sample_cov([0.0, 0.0], [1.0, -1.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            sample_cov([1.0, 2.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=20),
        st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=20),
        st.floats(-10, 10),
    )
    def test_symmetric_bilinear_nonnegative(self, xs, ys, alpha):
        k = min(len(xs), len(ys))
        x = np.array(xs[:k])
        y = np.array(ys[:k])
        assert sample_cov(x, y) == pytest.approx(sample_cov(y, x), abs=1e-9)
        assert sample_cov(alpha * x, y) == pytest.approx(
            alpha * sample_cov(x, y), rel=1e-9, abs=1e-7
        )
        assert sample_cov(x, x) >= 0.0
