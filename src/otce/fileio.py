"""Feature-file ingestion and serialization.

FTRS binary layout (little-endian):

    offset  size  field
    0       4     magic "FTRS"
    4       4     u32 version, currently 1
    8       8     u64 n (sample count)
    16      8     u64 d (feature dimension)
    24      4     u32 class_count, at most 2**31 (labels are i32)
    28      4     u32 dtype code (0 = 32-bit real)
    32      4*n   i32 labels
    32+4n   4*n*d f32 features, row-major

Floating payloads are 32-bit on disk and widened to float64 in memory;
writing casts back to float32, so write-then-read is bit-exact for any
payload that originated from 32-bit values.

CSV files are UTF-8, with rows ``label, x_0, ..., x_{d-1}`` and an
optional header line; the class count is inferred as max label + 1.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .data import FeatureSet, _adopt
from .errors import (
    DimensionMismatch,
    InputError,
    IoFailure,
    LabelOutOfRange,
    MalformedHeader,
    NegativeLabel,
    NonFiniteValue,
    NonNumericField,
    RaggedRow,
)

__all__ = ["read_feature_file", "write_feature_file", "read_csv", "FTRS_MAGIC"]

FTRS_MAGIC = b"FTRS"
FTRS_VERSION = 1
_HEADER = struct.Struct("<4sIQQII")
_DTYPE_F32 = 0


def read_feature_file(path: str | Path) -> FeatureSet:
    """Load and validate an FTRS file.

    Raises:
        MalformedHeader: bad magic, version, dtype code, or truncation;
            the message names the offending byte offset.
        LabelOutOfRange / NonFiniteValue: bad payload; the message names
            the record index.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc

    if len(raw) < _HEADER.size:
        raise MalformedHeader(
            f"{path}: file ends at byte {len(raw)}, header needs {_HEADER.size}"
        )
    magic, version, n, d, class_count, dtype_code = _HEADER.unpack_from(raw, 0)
    if magic != FTRS_MAGIC:
        raise MalformedHeader(f"{path}: bad magic {magic!r} at byte 0")
    if version != FTRS_VERSION:
        raise MalformedHeader(f"{path}: unsupported version {version} at byte 4")
    if dtype_code != _DTYPE_F32:
        raise MalformedHeader(f"{path}: unknown dtype code {dtype_code} at byte 28")
    if n < 1 or d < 1 or class_count < 1:
        raise MalformedHeader(
            f"{path}: header declares n={n}, d={d}, classes={class_count}"
        )
    if class_count > 2**31:
        raise MalformedHeader(f"{path}: class count {class_count} exceeds 2**31 at byte 24")

    expected = _HEADER.size + 4 * n + 4 * n * d
    if len(raw) != expected:
        raise MalformedHeader(
            f"{path}: size {len(raw)} != expected {expected} "
            f"(payload should end at byte {expected})"
        )

    off = _HEADER.size
    labels = np.frombuffer(raw, dtype="<i4", count=n, offset=off).astype(np.int64)
    off += 4 * n
    feats = (
        np.frombuffer(raw, dtype="<f4", count=n * d, offset=off)
        .reshape(n, d)
        .astype(np.float64)
    )
    # The arrays are the reader's own, fresh: adopted, not copied again.
    return _adopt(
        FeatureSet, features=feats, labels=labels, class_count=class_count, name=path.stem
    )


def write_feature_file(featureset: FeatureSet, path: str | Path) -> None:
    """Serialize a validated FeatureSet to an FTRS file.

    Features are cast to float32; the cast is checked for overflow to
    infinity (NonFiniteValue) so the file always re-validates on load.
    Labels are int32, so a class count above 2**31 raises LabelOutOfRange.
    """
    path = Path(path)
    if featureset.class_count > 2**31:
        raise LabelOutOfRange(
            f"{path}: class count {featureset.class_count} exceeds 2**31; FTRS labels are int32"
        )
    with np.errstate(over="ignore"):
        feats32 = featureset.features.astype("<f4")
    bad = ~np.isfinite(feats32)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteValue(
            f"feature at record {i}, column {j} does not fit 32-bit float"
        )
    header = _HEADER.pack(
        FTRS_MAGIC,
        FTRS_VERSION,
        featureset.n,
        featureset.dim,
        featureset.class_count,
        _DTYPE_F32,
    )
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(featureset.labels.astype("<i4").tobytes())
            fh.write(feats32.tobytes())
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def read_csv(path: str | Path, has_header: bool = False) -> FeatureSet:
    """Load ``label, x_0, ..., x_{d-1}`` rows into a FeatureSet.

    The field count of the first data row fixes d; the class count is
    max label + 1, so absent intermediate classes are permitted. With
    ``has_header``, the first non-blank row is a header and is skipped.
    """
    path = Path(path)
    labels: list[int] = []
    rows: list[list[float]] = []
    width: int | None = None
    lines = _csv_rows(path)
    if has_header:
        next(lines, None)
    for _, row in lines:
        record = len(rows)
        if width is None:
            width = len(row)
            if width < 2:
                raise RaggedRow(
                    f"{path}: record {record} has {width} fields, need >= 2"
                )
        elif len(row) != width:
            raise RaggedRow(
                f"{path}: record {record} has {len(row)} fields, expected {width}"
            )
        try:
            label = int(row[0])
        except ValueError as exc:
            raise NonNumericField(
                f"{path}: record {record}, label field {row[0]!r}"
            ) from exc
        if label < 0:
            raise NegativeLabel(f"{path}: record {record}, label {label}")
        if label >= 2**63:
            raise LabelOutOfRange(f"{path}: record {record}, label {label} does not fit int64")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            bad = next(v for v in row[1:] if not _is_float(v))
            raise NonNumericField(
                f"{path}: record {record}, field {bad!r}"
            ) from None
        labels.append(label)
        rows.append(values)

    if not rows:
        raise DimensionMismatch(f"{path}: no data rows")
    return _adopt(
        FeatureSet,
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        class_count=max(labels) + 1,
        name=path.stem,
    )


def _csv_rows(path: Path):
    """Yield ``(index, fields)`` for each non-blank row of a UTF-8 CSV file;
    the index counts blank rows too.

    A file that cannot be opened raises IoFailure, and one that is not
    UTF-8 or breaks the csv module's rules (such as its field-size limit)
    raises InputError; both name the file.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for idx, row in enumerate(csv.reader(fh)):
                if row and (len(row) > 1 or row[0].strip()):
                    yield idx, row
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: not a readable CSV file: {exc}") from exc


def _write_csv(path: str | Path, rows) -> None:
    """Write ``rows`` (the header first) to the CSV file ``path``; an
    OSError while opening, writing or closing it raises IoFailure."""
    try:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def _make_dir(path: str | Path) -> Path:
    """Create directory ``path`` and its parents unless it exists; an
    OSError, such as a file in its place, raises IoFailure."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    return path


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
