"""CSV dataset and JSON parameter file round trips and error reporting."""

import json
import re
import stat
from pathlib import Path

import numpy as np
import pytest

from matnorm.io import (
    atomic_write_text,
    load_dataset,
    load_params,
    save_dataset,
    save_params,
)
from matnorm.missing import UnstructuredParams
from matnorm.model import MatrixNormalParams


def random_values(rng, n, p, q, miss=0.0):
    values = rng.standard_normal((n, p, q))
    if miss > 0:
        mask = rng.random((n, p, q)) < miss
        mask[:, 0, 0] = False
        values[mask] = np.nan
    return values


class TestDatasetRoundTrip:
    def test_unlabeled(self, tmp_path):
        rng = np.random.default_rng(0)
        values = random_values(rng, 7, 3, 4)
        path = str(tmp_path / "data.csv")
        save_dataset(path, values)
        loaded, labels = load_dataset(path)
        np.testing.assert_array_equal(loaded, values)
        assert labels is None

    def test_labeled_with_missing(self, tmp_path):
        rng = np.random.default_rng(1)
        values = random_values(rng, 9, 2, 5, miss=0.2)
        lab = rng.integers(1, 4, size=9)
        path = str(tmp_path / "data.csv")
        save_dataset(path, values, lab)
        loaded, labels = load_dataset(path)
        np.testing.assert_array_equal(np.isnan(loaded), np.isnan(values))
        ok = ~np.isnan(values)
        np.testing.assert_array_equal(loaded[ok], values[ok])
        np.testing.assert_array_equal(labels, lab)

    def test_header_is_column_major(self, tmp_path):
        path = str(tmp_path / "data.csv")
        save_dataset(path, np.zeros((1, 2, 3)))
        header = Path(path).read_text().splitlines()[0].strip()
        assert header == "x_r1_c1,x_r2_c1,x_r1_c2,x_r2_c2,x_r1_c3,x_r2_c3"

    def test_cell_coordinates_match_header_names(self, tmp_path):
        # the value under x_rR_cC must land at values[0, R-1, C-1]
        path = str(tmp_path / "data.csv")
        atomic_write_text(
            path, "x_r1_c1,x_r2_c1,x_r1_c2,x_r2_c2\n10,20,30,40\n"
        )
        values, _ = load_dataset(path)
        np.testing.assert_array_equal(values[0], [[10.0, 30.0], [20.0, 40.0]])

    def test_na_and_empty_both_mean_missing(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r2_c1\nNA,\n1.5,2.5\n")
        values, _ = load_dataset(path)
        assert np.isnan(values[0]).all()
        np.testing.assert_array_equal(values[1], [[1.5], [2.5]])

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1\n1.0\n\n2.0\n\n")
        values, _ = load_dataset(path)
        assert values.shape == (2, 1, 1)

    def test_save_rejects_bad_shapes(self, tmp_path):
        path = str(tmp_path / "data.csv")
        with pytest.raises(ValueError, match="shape"):
            save_dataset(path, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="labels"):
            save_dataset(path, np.zeros((3, 2, 2)), [1, 2])


class TestDatasetErrors:
    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "")
        with pytest.raises(ValueError, match="empty file"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r2_c1\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_dataset(path)

    def test_label_only_header(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "label\n1\n")
        with pytest.raises(ValueError, match="no value columns"):
            load_dataset(path)

    def test_unrecognized_column(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,value\n1,2\n")
        with pytest.raises(ValueError, match="value"):
            load_dataset(path)

    def test_row_major_order_rejected(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r1_c2,x_r2_c1,x_r2_c2\n1,2,3,4\n")
        with pytest.raises(ValueError, match="column-major"):
            load_dataset(path)

    def test_incomplete_grid_rejected(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r2_c1,x_r1_c2\n1,2,3\n")
        with pytest.raises(ValueError, match="column-major"):
            load_dataset(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r2_c1\n1,2\n3\n")
        with pytest.raises(ValueError, match="line 3: expected 2 fields, got 1"):
            load_dataset(path)

    def test_bad_number_names_line_and_column(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1,x_r2_c1\n1,two\n")
        with pytest.raises(ValueError, match="line 2, column x_r2_c1"):
            load_dataset(path)

    def test_non_finite_rejected(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "x_r1_c1\ninf\n")
        with pytest.raises(ValueError, match="finite"):
            load_dataset(path)

    def test_bad_label(self, tmp_path):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "label,x_r1_c1\na,1\n")
        with pytest.raises(ValueError, match="not an integer"):
            load_dataset(path)


class TestDatasetParsing:
    """Errors name the first bad field in file order; values load bit for bit."""

    @pytest.mark.parametrize(
        "body, message",
        [
            ("1,1.5,inf\n2,two,1\n", "line 3, column x_r2_c1: value must be finite"),
            ("1,1,two\n2,1.5,inf\n", "line 3, column x_r2_c1: cannot parse 'two'"),
            ("1,inf,two\n", "line 3, column x_r1_c1: value must be finite"),
            ("1,two,inf\n", "line 3, column x_r1_c1: cannot parse 'two'"),
            ("1,,nan\n2,1\n", "line 3, column x_r2_c1: value must be finite"),
            ("1,NA,1\nx,1,2\n", "line 4: label 'x' is not an integer"),
        ],
        ids=[
            "non-finite-line-first",
            "unparsable-line-first",
            "non-finite-field-first",
            "unparsable-field-first",
            "non-finite-before-ragged-line",
            "bad-label-after-holes",
        ],
    )
    def test_first_bad_field_in_file_order(self, tmp_path, body, message):
        # line 2 is good and holds a hole; the body starts at line 3
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, "label,x_r1_c1,x_r2_c1\n1,0.5,NA\n" + body)
        with pytest.raises(ValueError, match=message):
            load_dataset(path)

    @pytest.mark.parametrize("literal", ["nan", "inf", "-Infinity", "NaN", "1e999"])
    def test_non_finite_literals_name_line_and_column(self, tmp_path, literal):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, f"x_r1_c1,x_r2_c1\n1,\n2,NA\n3,{literal}\n")
        with pytest.raises(
            ValueError,
            match=(
                r"line 4, column x_r2_c1: value must be finite "
                r"\(encode missing entries as empty or NA\)"
            ),
        ):
            load_dataset(path)

    def test_padded_fields_read_as_stripped(self, tmp_path):
        # " NA " and an all-blank field are missing; " 1.5 " and a " 2"
        # label parse as their stripped text
        path = str(tmp_path / "data.csv")
        atomic_write_text(
            path,
            "label,x_r1_c1,x_r2_c1,x_r1_c2,x_r2_c2\n"
            " 2, NA ,  , 1.5 ,4\n"
            "1,0.5,NA,,-3\n",
        )
        values, labels = load_dataset(path)
        np.testing.assert_array_equal(labels, [2, 1])
        np.testing.assert_array_equal(values[0], [[np.nan, 1.5], [np.nan, 4.0]])
        np.testing.assert_array_equal(values[1], [[0.5, np.nan], [np.nan, -3.0]])

    @pytest.mark.parametrize(
        "line, message",
        [
            (" 1, NA , inf ", "line 3, column x_r2_c1: value must be finite"),
            (" 1,  , two ", "line 3, column x_r2_c1: cannot parse 'two'"),
            (" x , NA ,1", "line 3: label 'x' is not an integer"),
        ],
        ids=["non-finite-after-padded-na", "unparsable-after-blank", "padded-label"],
    )
    def test_padded_fields_report_stripped_text(self, tmp_path, line, message):
        path = str(tmp_path / "data.csv")
        atomic_write_text(path, f"label,x_r1_c1,x_r2_c1\n1,0.5, NA \n{line}\n")
        with pytest.raises(ValueError, match=message):
            load_dataset(path)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = random_values(rng, 40, 3, 5, miss=0.25)
        values[0, 1, 1] = -0.0
        values[1, 2, 3] = 5e-324
        values[2, 0, 4] = 1.7976931348623157e308
        values[3, 1, 0] = -1.7976931348623157e308
        path = str(tmp_path / "data.csv")
        save_dataset(path, values, np.arange(40) % 3 + 1)
        loaded, labels = load_dataset(path)
        assert loaded.shape == values.shape
        np.testing.assert_array_equal(loaded.view(np.uint64), values.view(np.uint64))
        np.testing.assert_array_equal(labels, np.arange(40) % 3 + 1)

    def test_save_rejects_non_whole_labels(self, tmp_path):
        # casting would write 1.5 as label 1 and 2.5 as label 2
        path = str(tmp_path / "data.csv")
        with pytest.raises(ValueError, match=r"label 1\.5 is not a whole number"):
            save_dataset(path, np.zeros((4, 1, 1)), [1.5, 1.5, 2.5, 2.5])
        assert not (tmp_path / "data.csv").exists()

    def test_save_writes_whole_float_labels_as_integers(self, tmp_path):
        path = str(tmp_path / "data.csv")
        save_dataset(path, np.zeros((2, 1, 1)), [1.0, 2.0])
        assert Path(path).read_text() == "label,x_r1_c1\n1,0.0\n2,0.0\n"
        np.testing.assert_array_equal(load_dataset(path)[1], [1, 2])


class TestParamsRoundTrip:
    def test_matrix_normal_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((3, 3))
        s = g @ g.T / 3 + 0.3 * np.eye(3)
        s /= s[0, 0]
        h = rng.standard_normal((4, 4))
        c = h @ h.T / 4 + 0.3 * np.eye(4)
        c /= c[0, 0]
        params = MatrixNormalParams(
            rng.standard_normal((3, 4)), s, c, 1.2345678901234567
        )
        path = str(tmp_path / "params.json")
        save_params(path, params, meta={"method": "em", "iterations": 12})
        loaded, meta = load_params(path)
        assert isinstance(loaded, MatrixNormalParams)
        np.testing.assert_array_equal(loaded.mean, params.mean)
        np.testing.assert_array_equal(loaded.row_cov, params.row_cov)
        np.testing.assert_array_equal(loaded.col_cov, params.col_cov)
        assert loaded.scale == params.scale
        assert meta == {"method": "em", "iterations": 12}

    def test_unstructured_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6))
        params = UnstructuredParams(
            p=2, q=3, mean=rng.standard_normal(6), cov=g @ g.T + np.eye(6)
        )
        path = str(tmp_path / "params.json")
        save_params(path, params)
        loaded, meta = load_params(path)
        assert isinstance(loaded, UnstructuredParams)
        assert (loaded.p, loaded.q) == (2, 3)
        np.testing.assert_array_equal(loaded.mean, params.mean)
        np.testing.assert_array_equal(loaded.cov, params.cov)
        assert meta == {}

    def test_payload_shape(self, tmp_path):
        params = MatrixNormalParams(np.zeros((2, 2)), np.eye(2), np.eye(2), 1.0)
        path = str(tmp_path / "params.json")
        save_params(path, params)
        payload = json.loads(Path(path).read_text())
        assert payload["format_version"] == 1
        assert payload["model"] == "matrix_normal"
        assert (payload["p"], payload["q"]) == (2, 2)
        assert payload["sigma_s"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["sigma2"] == 1.0

    def test_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_params(str(tmp_path / "p.json"), object())


class TestParamsErrors:
    def write_payload(self, tmp_path, payload):
        path = str(tmp_path / "params.json")
        atomic_write_text(path, json.dumps(payload))
        return path

    def base_payload(self):
        return {
            "format_version": 1,
            "model": "matrix_normal",
            "p": 2,
            "q": 2,
            "mu": [[0.0, 0.0], [0.0, 0.0]],
            "sigma_s": [[1.0, 0.0], [0.0, 1.0]],
            "sigma_c": [[1.0, 0.0], [0.0, 1.0]],
            "sigma2": 1.0,
            "meta": {},
        }

    def test_version_mismatch(self, tmp_path):
        payload = self.base_payload()
        payload["format_version"] = 2
        with pytest.raises(ValueError, match="format_version"):
            load_params(self.write_payload(tmp_path, payload))

    def test_unknown_model(self, tmp_path):
        payload = self.base_payload()
        payload["model"] = "wishart"
        with pytest.raises(ValueError, match="model"):
            load_params(self.write_payload(tmp_path, payload))

    def test_declared_shape_mismatch(self, tmp_path):
        payload = self.base_payload()
        payload["p"] = 3
        with pytest.raises(ValueError, match="declared shape"):
            load_params(self.write_payload(tmp_path, payload))

    @pytest.mark.parametrize(
        "model, key",
        [("matrix_normal", k) for k in ("p", "q", "mu", "sigma_s", "sigma_c", "sigma2")]
        + [("unstructured", k) for k in ("p", "q", "mean", "cov")]
        + [("list", None)],
    )
    def test_malformed_file_names_path_and_key(self, tmp_path, model, key):
        if model == "list":
            payload, message = [self.base_payload()], "expected a JSON object, got list"
        else:
            payload = self.base_payload()
            if model == "unstructured":
                for k in ("mu", "sigma_s", "sigma_c", "sigma2"):
                    del payload[k]
                payload.update(model=model, mean=[0.0] * 4, cov=np.eye(4).tolist())
            del payload[key]
            message = f"missing key {key!r}"
        path = self.write_payload(tmp_path, payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sigma2", float("inf"), "scale must be a positive finite number, got inf"),
            ("p", "two", "invalid literal for int()"),
            ("mu", [[0.0, 0.0], [0.0]], "setting an array element with a sequence"),
        ],
        ids=["infinite-scale", "word-for-p", "ragged-mean"],
    )
    def test_value_failing_its_check_names_path_and_key(self, tmp_path, key, value, message):
        payload = self.base_payload()
        payload[key] = value
        path = self.write_payload(tmp_path, payload)
        located = re.escape(f"{path}: key {key!r}: ") + ".*" + re.escape(message)
        with pytest.raises(ValueError, match=located):
            load_params(path)

    def test_factor_that_is_not_positive_definite_stays_a_linalg_error(self, tmp_path):
        payload = self.base_payload()
        payload["sigma_s"] = [[1.0, 2.0], [2.0, 1.0]]
        path = self.write_payload(tmp_path, payload)
        located = re.escape(f"{path}: key 'sigma_s': row_cov is not positive definite")
        with pytest.raises(np.linalg.LinAlgError, match=located):
            load_params(path)

    def test_unstructured_shape_mismatch(self, tmp_path):
        payload = {
            "format_version": 1,
            "model": "unstructured",
            "p": 2,
            "q": 2,
            "mean": [0.0, 0.0, 0.0],
            "cov": np.eye(3).tolist(),
            "meta": {},
        }
        with pytest.raises(ValueError):
            load_params(self.write_payload(tmp_path, payload))


class TestAtomicWrite:
    def test_overwrites_existing(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        assert Path(path).read_text() == "second"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.txt"), "content")
        assert sorted(f.name for f in tmp_path.iterdir()) == ["out.txt"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("content")
        atomic_write_text(str(tmp_path / "out.txt"), "content")
        plain = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == plain

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("first")
        path.chmod(0o640)
        atomic_write_text(str(path), "second")
        assert path.read_text() == "second"
        assert stat.S_IMODE(path.stat().st_mode) == 0o640

    def test_writes_through_a_symlink(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "target.txt"
        target.write_text("old")
        target.chmod(0o640)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        atomic_write_text(str(link), "new")
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text() == "new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert sorted(f.name for f in tmp_path.iterdir()) == ["link.txt", "real"]
        assert [f.name for f in (tmp_path / "real").iterdir()] == ["target.txt"]
