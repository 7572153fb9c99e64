import struct

import numpy as np
import pytest

from otce import FeatureSet, read_csv, read_feature_file, write_feature_file
from otce.errors import (
    InputError,
    LabelOutOfRange,
    MalformedHeader,
    NegativeLabel,
    NonFiniteValue,
    NonNumericField,
    RaggedRow,
)
from otce.fileio import FTRS_MAGIC

from conftest import make_set

HEADER = struct.Struct("<4sIQQII")


def _raw_file(path, n, d, classes, labels, feats, magic=b"FTRS", version=1, dtype=0):
    blob = HEADER.pack(magic, version, n, d, classes, dtype)
    blob += np.asarray(labels, dtype="<i4").tobytes()
    blob += np.asarray(feats, dtype="<f4").tobytes()
    path.write_bytes(blob)
    return path


class TestFtrsRoundTrip:
    def test_minimal_file(self, tmp_path):
        path = _raw_file(tmp_path / "min.ftrs", 1, 1, 1, [0], [0.0])
        fs = read_feature_file(path)
        assert (fs.n, fs.dim, fs.class_count) == (1, 1, 1)
        assert fs.features[0, 0] == 0.0 and fs.labels[0] == 0

    def test_write_then_read_bitwise(self, tmp_path, rng):
        # float32-representable payload: the on-disk format is 32-bit
        feats = rng.normal(size=(100, 16)).astype(np.float32).astype(np.float64)
        labels = rng.integers(0, 7, size=100)
        fs = make_set(feats, labels, classes=7)
        path = tmp_path / "rt.ftrs"
        write_feature_file(fs, path)
        back = read_feature_file(path)
        assert np.array_equal(back.features, fs.features)
        assert np.array_equal(back.labels, fs.labels)
        assert back.class_count == 7

    def test_read_then_write_bitwise(self, tmp_path, rng):
        first = _raw_file(
            tmp_path / "a.ftrs", 5, 3, 2,
            rng.integers(0, 2, size=5),
            rng.normal(size=(5, 3)).astype(np.float32),
        )
        fs = read_feature_file(first)
        second = tmp_path / "b.ftrs"
        write_feature_file(fs, second)
        assert first.read_bytes() == second.read_bytes()

    def test_magic_written(self, tmp_path):
        path = tmp_path / "m.ftrs"
        write_feature_file(make_set([[0.0]], [0]), path)
        assert path.read_bytes()[:4] == FTRS_MAGIC

    def test_file_size_arithmetic(self, tmp_path, rng):
        fs = make_set(
            rng.normal(size=(1000, 512)).astype(np.float32),
            rng.integers(0, 10, size=1000),
            classes=10,
        )
        path = tmp_path / "big.ftrs"
        write_feature_file(fs, path)
        assert path.stat().st_size == HEADER.size + 1000 * 4 + 1000 * 512 * 4

    def test_class_count_fits_int32_labels(self, tmp_path):
        widest = make_set([[0.0], [1.0]], [0, 2**31 - 1], classes=2**31)
        write_feature_file(widest, tmp_path / "ok.ftrs")
        assert read_feature_file(tmp_path / "ok.ftrs").labels.tolist() == [0, 2**31 - 1]
        # 2**31 + 1 classes wrapped their labels; 2**32 + 1 ended in struct.error.
        for classes in (2**31 + 1, 2**32 + 1):
            with pytest.raises(LabelOutOfRange, match=r"2\*\*31"):
                write_feature_file(make_set([[0.0]], [0], classes=classes), tmp_path / "x.ftrs")
        assert not (tmp_path / "x.ftrs").exists()

    def test_float32_overflow_rejected_before_write(self, tmp_path):
        fs = make_set([[1e300]], [0])  # valid float64, not representable in f32
        with pytest.raises(NonFiniteValue, match="record 0"):
            write_feature_file(fs, tmp_path / "x.ftrs")
        assert not (tmp_path / "x.ftrs").exists()


class TestFtrsValidation:
    def test_label_out_of_range_names_record(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 3, 1, 3, [0, 1, 5], [0.0, 1.0, 2.0])
        with pytest.raises(LabelOutOfRange, match="record 2"):
            read_feature_file(path)

    def test_bad_magic(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 1, 1, 1, [0], [0.0], magic=b"NOPE")
        with pytest.raises(MalformedHeader, match="byte 0"):
            read_feature_file(path)

    def test_bad_version(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 1, 1, 1, [0], [0.0], version=9)
        with pytest.raises(MalformedHeader, match="byte 4"):
            read_feature_file(path)

    def test_bad_dtype_code(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 1, 1, 1, [0], [0.0], dtype=3)
        with pytest.raises(MalformedHeader, match="byte 28"):
            read_feature_file(path)

    def test_class_count_beyond_int32_labels(self, tmp_path):
        # The writer refuses more than 2**31 classes, so the reader does too.
        path = _raw_file(tmp_path / "bad.ftrs", 1, 1, 2**31 + 1, [0], [0.0])
        with pytest.raises(MalformedHeader, match="byte 24"):
            read_feature_file(path)
        path = _raw_file(tmp_path / "widest.ftrs", 1, 1, 2**31, [0], [0.0])
        assert read_feature_file(path).class_count == 2**31

    def test_truncated_payload(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 2, 2, 1, [0, 0], np.zeros((2, 2)))
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(MalformedHeader, match="size"):
            read_feature_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "bad.ftrs"
        path.write_bytes(b"FTRS\x01")
        with pytest.raises(MalformedHeader):
            read_feature_file(path)

    def test_non_finite_feature(self, tmp_path):
        path = _raw_file(tmp_path / "bad.ftrs", 2, 1, 1, [0, 0], [0.0, np.inf])
        with pytest.raises(NonFiniteValue, match="record 1"):
            read_feature_file(path)

    def test_missing_file(self, tmp_path):
        from otce.errors import IoFailure

        with pytest.raises(IoFailure):
            read_feature_file(tmp_path / "absent.ftrs")

    def test_validation_is_total(self, tmp_path):
        # a failed load never returns a partially constructed set
        path = _raw_file(tmp_path / "bad.ftrs", 2, 1, 2, [0, 7], [0.0, 1.0])
        result = None
        try:
            result = read_feature_file(path)
        except LabelOutOfRange:
            pass
        assert result is None


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,1.5,2.5\n1,0.0,1.0\n")
        fs = read_csv(path)
        assert (fs.n, fs.dim, fs.class_count) == (2, 2, 2)
        assert fs.features[0].tolist() == [1.5, 2.5]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,x0\n0,1.0\n1,2.0\n")
        fs = read_csv(path, has_header=True)
        assert fs.n == 2

    def test_header_after_blank_line(self, tmp_path):
        # The header is the first non-blank row, wherever it stands.
        text = "label,x0,x1\n0,1.0,2.0\n1,3.0,4.0\n"
        plain, blank = tmp_path / "plain.csv", tmp_path / "blank.csv"
        plain.write_text(text)
        blank.write_text("\n  \n" + text)
        expected = read_csv(plain, has_header=True)
        fs = read_csv(blank, has_header=True)
        assert fs.features.tobytes() == expected.features.tobytes()
        assert fs.labels.tolist() == expected.labels.tolist() == [0, 1]

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(RaggedRow, match="record 1"):
            read_csv(path)

    def test_sparse_classes(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,1.0\n4,2.0\n")
        fs = read_csv(path)
        assert fs.class_count == 5
        assert fs.present_classes.tolist() == [0, 4]

    def test_negative_label(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("-1,1.0\n")
        with pytest.raises(NegativeLabel, match="record 0"):
            read_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("0,1.0\n1,abc\n")
        with pytest.raises(NonNumericField, match="'abc'"):
            read_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1.5,1.0\n")
        with pytest.raises(NonNumericField):
            read_csv(path)

    def test_nan_text_rejected(self, tmp_path):
        # float("nan") parses, so rejection happens at FeatureSet validation
        path = tmp_path / "a.csv"
        path.write_text("0,nan\n")
        with pytest.raises(NonFiniteValue):
            read_csv(path)

    @pytest.mark.parametrize("label", [2**63, 10**20])
    def test_label_wider_than_int64(self, tmp_path, label):
        path = tmp_path / "a.csv"
        path.write_text(f"0,1.0\n{label},2.0\n")
        with pytest.raises(LabelOutOfRange, match="record 1"):
            read_csv(path)

    def test_field_over_csv_limit(self, tmp_path):
        # csv refuses fields over 131072 characters.
        path = tmp_path / "long.csv"
        path.write_text("0," + "1" * 200_000 + "\n")
        with pytest.raises(InputError, match="long.csv"):
            read_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"0,1.0\n1,\xff2.0\n")
        with pytest.raises(InputError, match="latin.csv"):
            read_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("label,x0\n\n0,1.0\n  \n\n1,2.0\n")
        fs = read_csv(path, has_header=True)
        assert fs.features[:, 0].tolist() == [1.0, 2.0]
