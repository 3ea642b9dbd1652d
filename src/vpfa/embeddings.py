"""Labeled feature sets and their on-disk formats.

An :class:`EmbeddingSet` is an ordered, dimension-consistent collection of
feature vectors, each tagged with an identity, a camera, and a resolution.
Sets are immutable after construction and can be persisted either as CSV
(human-readable, 17 significant digits, lossless for float64) or as a
little-endian binary file (bit-exact round trip).

Binary layout: magic ``VPFA``, u32 version, u32 dim, u64 count, then per
record u32 identity, u16 camera, u8 resolution (0 = HR, otherwise the LR
rate), and dim float64 components, packed; the records are read as one
structured array and written in blocks through one structured buffer.

A CSV set's rows are parsed and formatted in contiguous chunks, one per
usable CPU, in forked worker processes (see ``_in_chunks``); files and
errors are the same as with one chunk.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import FormatError

BINARY_MAGIC = b"VPFA"
BINARY_VERSION = 1

_HEADER = struct.Struct("<4sIIQ")

# A binary set is packed and written through one structured buffer of this many bytes.
BINARY_BLOCK_BYTES = 1 << 22
# CSV text per chunk, at least: a chunk's parse or format (about 36 ns a byte) must
# outweigh the fork and the pipe that carry it to another CPU.
CSV_CHUNK_BYTES = 1 << 20


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
        keep = self._mask(keep, "partition needs a predicate or")
        return EmbeddingSet.from_arrays(
            self.matrix[keep], self.identity_array[keep], self.camera_array[keep],
            self.rate_array[keep], self.source_label,
        )

    def identities(self) -> list[int]:
        """Sorted unique identity IDs."""
        return np.unique(self.identity_array).tolist()

    def rows_by_identity(self, mask=None) -> dict[int, np.ndarray]:
        """Row indices of each identity, in sorted identity order, over the rows
        where the boolean ``mask`` holds (all rows when None); rows stay in
        record order, so ``matrix[rows]`` lists an identity's vectors as
        ``records`` does."""
        rows = np.arange(len(self)) if mask is None else np.flatnonzero(
            self._mask(mask, "rows_by_identity needs"))
        rows = rows[np.argsort(self.identity_array[rows], kind="stable")]
        ids, starts = np.unique(self.identity_array[rows], return_index=True)
        return dict(zip(ids.tolist(), np.split(rows, starts[1:])))

    def _mask(self, mask, what: str) -> np.ndarray:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise ValueError(f"{what} a boolean mask of length {len(self)}")
        return mask


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
    dtype = _record_dtype(eset.dim)
    step = max(1, BINARY_BLOCK_BYTES // dtype.itemsize)
    block = np.empty(min(step, len(eset)), dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, eset.dim, len(eset)))
        for start in range(0, len(eset), step):
            rows = block[:min(step, len(eset) - start)]
            rows["identity"] = eset.identity_array[start:start + step]
            rows["camera"] = eset.camera_array[start:start + step]
            rows["rate"] = eset.rate_array[start:start + step]
            rows["vector"] = eset.matrix[start:start + step]
            fh.write(rows.data)


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_chunks(work, start: int, stop: int, nbytes: int) -> list:
    """``work(a, b)`` over contiguous ranges that split ``range(start, stop)``, in order.

    There is one range per usable CPU, each with at least ``CSV_CHUNK_BYTES`` of the
    ``nbytes`` of text on average, and one range when that allows no more or there is no
    ``os.fork``.  Ranges after the first run in forked children, which send their result or
    exception back through a pipe and always end with ``os._exit``; the caller runs the
    first range, reaps every child, and raises the first failure in range order.
    """
    count = stop - start
    chunks = max(1, min(_usable_cpus(), nbytes // CSV_CHUNK_BYTES, count))
    if not hasattr(os, "fork"):
        chunks = 1
    bounds = [start + count * k // chunks for k in range(chunks + 1)]
    workers = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for a, b in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child never returns into the caller's stack
                status = 1
                try:
                    os.close(read_fd)
                    try:
                        reply = (True, work(a, b))
                    except Exception as exc:  # re-raised by the caller, in range order
                        reply = (False, exc)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(reply, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            workers.append((pid, open(read_fd, "rb")))
        results = [work(bounds[0], bounds[1])]
        while workers:
            pid, pipe = workers[0]
            with pipe:
                reply = pipe.read()
            workers.pop(0)
            if os.waitpid(pid, 0)[1] != 0:
                raise OSError(f"CSV worker process {pid} ended without a result")
            done, value = pickle.loads(reply)  # written by our own child
            if not done:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _save_csv(eset: EmbeddingSet, path: Path) -> None:
    text_bytes = 20 * eset.matrix.size  # a %.17g value and its comma take about 20 characters
    parts = _in_chunks(partial(_format_rows, eset), 0, len(eset), text_bytes)
    with open(path, "wb") as fh:
        fh.write(f"dim={eset.dim}\n".encode("ascii"))
        fh.writelines(parts)


def _format_rows(eset: EmbeddingSet, start: int, stop: int) -> bytes:
    values = ",".join(["%.17g"] * eset.dim)  # the same digits as format(v, ".17g")
    return "".join(
        f"{identity},{camera},{Resolution(rate)},{values % tuple(row)}\n"
        for identity, camera, rate, row in zip(
            eset.identity_array[start:stop].tolist(), eset.camera_array[start:stop].tolist(),
            eset.rate_array[start:stop].tolist(), eset.matrix[start:stop].tolist(),
        )
    ).encode("ascii")


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
    parts = _in_chunks(partial(_parse_rows, path, lines, dim), 1, len(lines),
                       sum(map(len, lines)))
    del lines  # the parsed rows replace the text
    matrices, labels = zip(*parts)
    matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
    return EmbeddingSet.from_arrays(matrix, *np.concatenate(labels).T, str(path))


def _parse_rows(path: Path, lines: list[str], dim: int, start: int, stop: int):
    """The rows of ``lines[start:stop]``: an (N, dim) matrix and N (identity, camera, rate)."""
    matrix, labels = None, []
    for lineno, line in enumerate(lines[start:stop], start=start + 1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + dim:
            raise FormatError(
                f"{path}: line {lineno}: expected {3 + dim} fields, got {len(parts)}"
            )
        if matrix is None:  # sized by the text: only lines over 2 * dim characters hold a row
            matrix = np.empty((sum(len(text) > 2 * dim for text in lines[start:stop]), dim))
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
    matrix = np.empty((0, dim)) if matrix is None else matrix
    matrix.resize((len(labels), dim))  # in place, so the set keeps it without a copy
    return matrix, np.array(labels, dtype=np.int64).reshape(-1, 3)
