"""Labeled feature sets and their on-disk formats.

An :class:`EmbeddingSet` is an ordered, dimension-consistent collection of
feature vectors, each tagged with an identity, a camera, and a resolution.
Sets are immutable after construction and can be persisted either as CSV
(human-readable, 17 significant digits, lossless for float64) or as a
little-endian binary file (bit-exact round trip).

Binary layout: magic ``VPFA``, u32 version, u32 dim, u64 count, then per
record u32 identity, u16 camera, u8 resolution (0 = HR, otherwise the LR
rate), and dim float64 components, packed; the records are read and
written as one structured array.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError

BINARY_MAGIC = b"VPFA"
BINARY_VERSION = 1

_HEADER = struct.Struct("<4sIIQ")


@dataclass(frozen=True, order=True)
class Resolution:
    """Resolution tag: HR when ``rate == 0``, else downsampled by ``rate``."""

    rate: int = 0

    def __post_init__(self) -> None:
        if self.rate != 0 and self.rate < 2:
            raise ValueError(f"LR rate must be >= 2, got {self.rate}")
        if not 0 <= self.rate <= 255:
            raise ValueError(f"resolution rate out of range: {self.rate}")

    @property
    def is_hr(self) -> bool:
        return self.rate == 0

    @property
    def is_lr(self) -> bool:
        return self.rate != 0

    def __str__(self) -> str:
        return "HR" if self.rate == 0 else f"LRx{self.rate}"

    @classmethod
    def parse(cls, text: str) -> "Resolution":
        text = text.strip()
        if text == "HR":
            return cls(0)
        if text.startswith("LRx"):
            try:
                return cls(int(text[3:]))
            except ValueError:
                pass
        raise ValueError(f"unknown resolution tag {text!r}")


HR = Resolution(0)


@dataclass(frozen=True, eq=False)
class EmbeddingRecord:
    """One labeled vector.  Records are equal when every field, and every
    byte of the vector, is equal."""

    identity: int
    camera: int
    resolution: Resolution
    vector: np.ndarray

    def __post_init__(self) -> None:
        if self.identity < 0 or self.camera < 0:
            raise ValueError("identity and camera IDs must be non-negative")
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1:
            raise ValueError("record vector must be one-dimensional")
        if not np.all(np.isfinite(vec)):
            raise ValueError("record vector contains non-finite values")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    def _key(self) -> tuple:
        return self.identity, self.camera, self.resolution, self.vector.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EmbeddingRecord) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class EmbeddingSet:
    """Immutable ordered collection of labeled vectors sharing one dimension.

    Stored as four read-only arrays of N rows: ``matrix`` (N x dim float64),
    ``identity_array``, ``camera_array`` (int64) and ``rate_array`` (uint8,
    0 = HR, else the LR rate); ``records`` is a view built on first use.
    """

    def __init__(
        self, dim: int, records: Iterable[EmbeddingRecord] = (), source_label: str = ""
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        records = tuple(records)
        for i, rec in enumerate(records):
            if rec.vector.shape[0] != dim:
                raise ValueError(f"record {i} has dimension {rec.vector.shape[0]}, expected {dim}")
        self._set_arrays(np.array([r.vector for r in records]) if records else np.empty((0, dim)),
                         [r.identity for r in records], [r.camera for r in records],
                         [r.resolution.rate for r in records], source_label)

    @classmethod
    def from_arrays(cls, matrix, identity, camera, rate, source_label: str = "") -> "EmbeddingSet":
        """A set over an (N, dim) matrix and N identities, cameras and rates.  An
        array that owns its data in the stored dtype is kept and made read-only;
        any other argument is copied."""
        eset = cls.__new__(cls)
        eset._set_arrays(matrix, identity, camera, rate, source_label)
        return eset

    def _set_arrays(self, matrix, identity, camera, rate, source_label: str) -> None:
        matrix, identity, camera = (
            _column(matrix, np.float64), _column(identity, np.int64), _column(camera, np.int64))
        rate = np.asarray(rate)
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"matrix must be (N, dim) with dim >= 1, got shape {matrix.shape}")
        if not matrix.shape[0] == identity.shape[0] == camera.shape[0] == rate.shape[0]:
            raise ValueError("matrix, identity, camera and rate differ in length")
        for bad, message in (  # one vectorized pass per check
            (~np.isfinite(matrix).all(axis=1), "non-finite value in record {i}"),
            ((identity < 0) | (camera < 0),
             "record {i}: identity and camera IDs must be non-negative"),
            ((rate == 1) | (rate < 0) | (rate > 255),
             "record {i}: LR rate must be >= 2 and <= 255, got {r}"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(message.format(i=i, r=rate[i]))
        self.dim, self.source_label = int(matrix.shape[1]), source_label
        self.matrix, self.identity_array, self.camera_array = matrix, identity, camera
        self.rate_array = _column(rate, np.uint8)

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        return iter(self.records)

    @cached_property
    def records(self) -> tuple[EmbeddingRecord, ...]:
        """One record per row, in order; vectors are read-only rows of ``matrix``."""
        tags = {rate: Resolution(rate) for rate in np.unique(self.rate_array).tolist()}  # shared
        return tuple(map(EmbeddingRecord, self.identity_array.tolist(), self.camera_array.tolist(),
                         map(tags.__getitem__, self.rate_array.tolist()), self.matrix))

    def partition(self, keep) -> "EmbeddingSet":
        """New set of the rows where ``keep`` holds, order preserved.  ``keep``
        is a boolean mask of length N, or a predicate called on each record."""
        if callable(keep):
            keep = np.array([bool(keep(r)) for r in self.records], dtype=bool)
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (len(self),):
            raise ValueError(f"partition needs a predicate or a boolean mask of length {len(self)}")
        return EmbeddingSet.from_arrays(
            self.matrix[keep], self.identity_array[keep], self.camera_array[keep],
            self.rate_array[keep], self.source_label,
        )

    def identities(self) -> list[int]:
        """Sorted unique identity IDs."""
        return np.unique(self.identity_array).tolist()

    def records_of(self, identity: int, resolution: Resolution | None = None):
        """Records of one identity, optionally restricted to one resolution."""
        keep = self.identity_array == identity
        if resolution is not None:
            keep &= self.rate_array == resolution.rate
        return [self.records[i] for i in np.flatnonzero(keep)]


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-ordered ``dtype`` array that owns its data."""
    array = np.asarray(values, dtype=dtype)
    array = array if array.base is None and array.flags.c_contiguous else array.copy()
    array.setflags(write=False)
    return array


def half_split_identities(identities: Sequence[int]) -> tuple[list[int], list[int]]:
    """Deterministic half split: sorted IDs, first ceil(K/2) vs the rest."""
    ids = sorted(set(identities))
    cut = math.ceil(len(ids) / 2)
    return ids[:cut], ids[cut:]


def save_set(eset: EmbeddingSet, path: str | Path, format: str = "bin") -> None:
    """Write a set to ``path`` as ``csv`` or ``bin`` (binary is bit-exact)."""
    path = Path(path)
    if format == "bin":
        _save_binary(eset, path)
    elif format == "csv":
        _save_csv(eset, path)
    else:
        raise ValueError(f"unknown format {format!r}")


def load_set(path: str | Path, format: str = "bin") -> EmbeddingSet:
    """Read a set written by :func:`save_set`."""
    path = Path(path)
    if format == "bin":
        return _load_binary(path)
    if format == "csv":
        return _load_csv(path)
    raise ValueError(f"unknown format {format!r}")


def _record_dtype(dim: int) -> np.dtype:
    """One binary record: u32 identity, u16 camera, u8 rate, dim float64; packed."""
    return np.dtype([("identity", "<u4"), ("camera", "<u2"), ("rate", "u1"),
                     ("vector", "<f8", (dim,))])


def _save_binary(eset: EmbeddingSet, path: Path) -> None:
    # Checked before opening, so a set the record layout cannot hold leaves no file.
    for field, values, limit in (("identity", eset.identity_array, 2**32),
                                 ("camera", eset.camera_array, 2**16)):
        top = int(values.max(initial=0))
        if top >= limit:
            raise FormatError(f"{path}: {field} {top} exceeds the binary format's limit {limit - 1}")
    rows = np.rec.fromarrays([eset.identity_array, eset.camera_array, eset.rate_array, eset.matrix],
                             dtype=_record_dtype(eset.dim))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, eset.dim, len(eset)))
        fh.write(rows.data)  # the bytes of rows.tobytes(), without the copy


def _load_binary(path: Path) -> EmbeddingSet:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: file too short for a binary header")
    magic, version, dim, count = _HEADER.unpack_from(data, 0)
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, not a binary embedding file")
    if version != BINARY_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if dim < 1:
        raise FormatError(f"{path}: non-positive dimension {dim}")
    dtype = _record_dtype(dim)
    expected = _HEADER.size + count * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"{path}: size mismatch, expected {expected} bytes for {count} records, got {len(data)}"
        )
    rows = np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size)
    try:  # the set copies each field out of the file's bytes
        return EmbeddingSet.from_arrays(
            rows["vector"], rows["identity"], rows["camera"], rows["rate"], str(path))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _save_csv(eset: EmbeddingSet, path: Path) -> None:
    values = ",".join(["%.17g"] * eset.dim)  # the same digits as format(v, ".17g")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"dim={eset.dim}\n")
        for identity, camera, rate, row in zip(
            eset.identity_array.tolist(), eset.camera_array.tolist(),
            eset.rate_array.tolist(), eset.matrix.tolist(),
        ):
            fh.write(f"{identity},{camera},{Resolution(rate)},{values % tuple(row)}\n")


def _load_csv(path: Path) -> EmbeddingSet:
    try:
        lines = Path(path).read_text(encoding="ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a text file (binary data passed as csv?)") from exc
    if not lines or not lines[0].startswith("dim="):
        raise FormatError(f"{path}: line 1: expected header 'dim=<D>'")
    try:
        dim = int(lines[0][4:])
    except ValueError as exc:
        raise FormatError(f"{path}: line 1: malformed header {lines[0]!r}") from exc
    if dim < 1:
        raise FormatError(f"{path}: line 1: non-positive dimension {dim}")
    matrix, labels = None, []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise FormatError(
                f"{path}: line {lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        if matrix is None:  # sized by the text: only lines over 2 * dim characters hold a row
            matrix = np.empty((sum(len(text) > 2 * dim for text in lines), dim))
        try:
            identity, camera = int(parts[0]), int(parts[1])
            rate = Resolution.parse(parts[2]).rate
            matrix[len(labels)] = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(matrix[len(labels)]).all():
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        if not (0 <= identity < 2**63 and 0 <= camera < 2**63):
            raise FormatError(f"{path}: line {lineno}: identity and camera IDs must be "
                              "non-negative and below 2**63")
        labels.append((identity, camera, rate))
    columns = np.array(labels, dtype=np.int64).reshape(-1, 3).T
    matrix = np.empty((0, dim)) if matrix is None else matrix
    matrix.resize((len(labels), dim))  # in place, so the set keeps it without a copy
    return EmbeddingSet.from_arrays(matrix, *columns, str(path))
