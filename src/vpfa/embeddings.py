"""Labeled feature sets and their on-disk formats.

An :class:`EmbeddingSet` is an ordered, dimension-consistent collection of
feature vectors, each tagged with an identity, a camera, and a resolution.
Sets are immutable after construction and can be persisted either as CSV
(human-readable, 17 significant digits, lossless for float64) or as a
little-endian binary file (bit-exact round trip).

Binary layout: magic ``VPFA``, u32 version, u32 dim, u64 count, then per
record u32 identity, u16 camera, u8 resolution (0 = HR, otherwise the LR
rate), and dim float64 components.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import FormatError

BINARY_MAGIC = b"VPFA"
BINARY_VERSION = 1

_HEADER = struct.Struct("<4sIIQ")
_RECORD_META = struct.Struct("<IHB")


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


class EmbeddingSet:
    """Immutable ordered collection of records sharing one dimension."""

    def __init__(
        self,
        dim: int,
        records: Iterable[EmbeddingRecord] = (),
        source_label: str = "",
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = int(dim)
        self.records: tuple[EmbeddingRecord, ...] = tuple(records)
        self.source_label = source_label
        for i, rec in enumerate(self.records):
            if rec.vector.shape[0] != self.dim:
                raise ValueError(
                    f"record {i} has dimension {rec.vector.shape[0]}, expected {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def partition(self, predicate: Callable[[EmbeddingRecord], bool]) -> "EmbeddingSet":
        """New set with the records satisfying ``predicate``, order preserved."""
        return EmbeddingSet(
            self.dim, (r for r in self.records if predicate(r)), self.source_label
        )

    def identities(self) -> list[int]:
        """Sorted unique identity IDs."""
        return sorted({r.identity for r in self.records})

    def records_of(self, identity: int, resolution: Resolution | None = None):
        """Records of one identity, optionally restricted to one resolution."""
        return [
            r
            for r in self.records
            if r.identity == identity
            and (resolution is None or r.resolution == resolution)
        ]

    @cached_property
    def matrix(self) -> np.ndarray:
        """All vectors stacked into an (N, dim) read-only array."""
        if not self.records:
            out = np.empty((0, self.dim))
        else:
            out = np.stack([r.vector for r in self.records])
        out.setflags(write=False)
        return out

    @cached_property
    def identity_array(self) -> np.ndarray:
        out = np.array([r.identity for r in self.records], dtype=np.int64)
        out.setflags(write=False)
        return out

    @cached_property
    def camera_array(self) -> np.ndarray:
        out = np.array([r.camera for r in self.records], dtype=np.int64)
        out.setflags(write=False)
        return out


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


def _save_binary(eset: EmbeddingSet, path: Path) -> None:
    # Checked before opening, so a set the record layout cannot hold leaves no file.
    for field, limit in (("identity", 2**32), ("camera", 2**16)):
        top = max((getattr(rec, field) for rec in eset.records), default=0)
        if top >= limit:
            raise FormatError(f"{path}: {field} {top} exceeds the binary format's limit {limit - 1}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, eset.dim, len(eset)))
        for rec in eset.records:
            fh.write(_RECORD_META.pack(rec.identity, rec.camera, rec.resolution.rate))
            fh.write(rec.vector.astype("<f8", copy=False).tobytes())


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
    rec_size = _RECORD_META.size + 8 * dim
    expected = _HEADER.size + count * rec_size
    if len(data) != expected:
        raise FormatError(
            f"{path}: size mismatch, expected {expected} bytes for {count} records, got {len(data)}"
        )
    records = []
    offset = _HEADER.size
    for i in range(count):
        identity, camera, rate = _RECORD_META.unpack_from(data, offset)
        offset += _RECORD_META.size
        vec = np.frombuffer(data, dtype="<f8", count=dim, offset=offset).copy()
        offset += 8 * dim
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}: non-finite value in record {i}")
        try:
            resolution = Resolution(rate)
        except ValueError as exc:
            raise FormatError(f"{path}: record {i}: {exc}") from exc
        records.append(EmbeddingRecord(identity, camera, resolution, vec))
    return EmbeddingSet(dim, records, source_label=str(path))


def _save_csv(eset: EmbeddingSet, path: Path) -> None:
    values = ",".join(["%.17g"] * eset.dim)  # the same digits as format(v, ".17g")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"dim={eset.dim}\n")
        for rec in eset.records:
            row = values % tuple(rec.vector.tolist())
            fh.write(f"{rec.identity},{rec.camera},{rec.resolution},{row}\n")


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
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise FormatError(
                f"{path}: line {lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        try:
            identity = int(parts[0])
            camera = int(parts[1])
            resolution = Resolution.parse(parts[2])
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        try:
            vec = np.array([float(v) for v in parts[3:]], dtype=np.float64)
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.all(np.isfinite(vec)):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        try:
            records.append(EmbeddingRecord(identity, camera, resolution, vec))
        except ValueError as exc:  # a negative identity or camera
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
    return EmbeddingSet(dim, records, source_label=str(path))
