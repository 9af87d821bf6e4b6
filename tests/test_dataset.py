import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcpca import build_blockset, from_matrix, load_block, sample_cov
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
        ],
    )
    def test_parse_error_messages(self, tmp_path, text, message):
        path = write_csv(tmp_path, "a.csv", text)
        with pytest.raises(ParseError) as info:
            load_block(path)
        assert str(info.value) == message

    def test_padded_cells_and_id_column_are_stripped(self, tmp_path):
        path = write_csv(tmp_path, "a.csv", " id , x ,y\n r1 , 3 ,\t1e0\nr2,  1,-1 \n")
        block = load_block(path, id_column=True)
        assert block.preprocessing.row_ids == ("r1", "r2")
        assert block.columns == ("x", "y")
        np.testing.assert_allclose(block.preprocessing.means, [2.0, 0.0])
        np.testing.assert_allclose(block.matrix, [[1.0, 1.0], [-1.0, -1.0]])

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
