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
errors are the same as with one chunk.  A chunk's values are parsed by one
``np.loadtxt`` call; the per-line parser (``float()`` on each value) reads
a chunk again where numpy refuses it or could differ: it gives every error,
reads the forms only ``float()`` takes (``1_0``), and gets any chunk with an
empty value tail or a ``\x1f``, which numpy skips or strips and ``float()``
refuses.

A chunk's values are written with the bytes of ``format(v, ".17g")``: for
decimal exponents -11 to 14, exact integer digits computed with numpy from
the float64 bits (``_digits17``) and laid out through small tables
(``_format_block``); zero, subnormals and other exponents go through
Python's ``%`` one value at a time.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import struct
from functools import cache, partial
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import FormatError

BINARY_MAGIC = b"VPFA"
BINARY_VERSION = 1

_HEADER = struct.Struct("<4sIIQ")

# A binary set is packed and written through one structured buffer of this many bytes.
BINARY_BLOCK_BYTES = 1 << 22
# CSV text per chunk, at least: a chunk's parse (about 12 ns a byte) or format (about 7)
# must outweigh the fork and the pipe that carry it to another CPU (about 10 ms for 1 MiB
# back from a 220 MB process).  On 2 CPUs, two chunks loaded a 3 MiB set in 32 ms against
# 41 ms for one, and saved it in the same 25 ms.
CSV_CHUNK_BYTES = 1 << 20


def check_lr_rate(rate: int) -> int:
    """``rate`` if it is an LR rate, 2 to 255 (one byte in the binary format);
    a ValueError otherwise, worded as a set's record check words it."""
    if not 2 <= rate <= 255:
        raise ValueError(f"LR rate must be >= 2 and <= 255, got {rate}")
    return rate


def check_lr_rates(rates: Sequence[int]) -> list[int]:
    """``rates`` as a list if they are distinct LR rates; a ValueError otherwise."""
    rates = list(rates)
    if len(set(rates)) != len(rates):
        raise ValueError(f"LR rates must be distinct, got {rates}")
    return [check_lr_rate(rate) for rate in rates]


def rate_tag(rate: int) -> str:
    """The resolution tag of a rate, as CSV sets and reports write it: ``HR``
    for 0, ``LRx<rate>`` for an LR rate."""
    return "HR" if rate == 0 else f"LRx{rate}"


# Every tag ``rate_tag`` writes, and its rate: HR, LRx2 ... LRx255.
_TAG_RATES = {rate_tag(rate): rate for rate in (0, *range(2, 256))}


def _tag_rate(text: str) -> int:
    """The rate of a tag as ``rate_tag`` writes it, surrounding whitespace aside."""
    tag = text.strip()
    if tag not in _TAG_RATES:
        raise ValueError(f"unknown resolution tag {tag!r}")
    return _TAG_RATES[tag]


class EmbeddingSet:
    """Immutable ordered collection of labeled vectors sharing one dimension.

    Stored as four read-only arrays of N rows: ``matrix`` (N x dim float64),
    ``identity_array``, ``camera_array`` (int64) and ``rate_array`` (uint8,
    0 = HR, else the LR rate).  An argument that owns its data in the stored
    dtype is kept and made read-only; any other argument is copied.  The
    pairings of :meth:`paired_rows` are kept once built.
    """

    def __init__(self, matrix, identity, camera, rate) -> None:
        matrix = _column(matrix, np.float64)
        labels = identity, camera, rate = [np.asarray(a) for a in (identity, camera, rate)]
        if matrix.ndim != 2 or matrix.shape[1] < 1:
            raise ValueError(f"matrix must be (N, dim) with dim >= 1, got shape {matrix.shape}")
        if not matrix.shape[0] == identity.shape[0] == camera.shape[0] == rate.shape[0]:
            raise ValueError("matrix, identity, camera and rate differ in length")
        # min and max carry any NaN and show any infinity without an N x dim mask;
        # one is built only to name the first bad record (``initial``: an empty set passes)
        if not (math.isfinite(matrix.min(initial=0.0)) and math.isfinite(matrix.max(initial=0.0))):
            i = int(np.argmin(np.isfinite(matrix).all(axis=1)))
            raise ValueError(f"non-finite value in record {i}")
        # Float and object labels must hold integers: the cast would truncate 1.7 to 1, and
        # warn on NaN.
        fractional = [_not_integers(a) for a in labels if a.dtype.kind in "fO"]
        if fractional and (bad := np.logical_or.reduce(fractional)).any():
            i = int(bad.argmax())
            raise ValueError(f"record {i}: identity, camera and rate must be integers, "
                             f"got {identity[i]}, {camera[i]} and {rate[i]}")
        for bad, message in (  # one vectorized pass per check, before the casts
            ((identity < 0) | (camera < 0),
             "record {i}: identity and camera IDs must be non-negative"),
            # only float, unsigned and object (Python int) labels reach 2**63, which the
            # int64 cast would turn into a warning, a negative number or an OverflowError
            (np.logical_or.reduce([a >= 2**63 for a in (identity, camera) if a.dtype.kind in "fuO"]),
             "record {i}: identity and camera IDs must be below 2**63"),
            ((rate == 1) | (rate < 0) | (rate > 255),
             "record {i}: LR rate must be >= 2 and <= 255, got {r}"),
        ):
            if bad.any():
                i = int(bad.argmax())
                raise ValueError(message.format(i=i, r=rate[i]))
        identity, camera = _column(identity, np.int64), _column(camera, np.int64)
        self.dim = int(matrix.shape[1])
        self.matrix, self.identity_array, self.camera_array = matrix, identity, camera
        self.rate_array = _column(rate, np.uint8)
        self._pairings = {}  # paired_rows' memo, by checked rates

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def records(self) -> list[SimpleNamespace]:
        """Per row, in order, only ``resolution.is_hr`` and ``resolution.is_lr``, built on
        each call: its one reader is the benchmark's ``prod_shape`` output check."""
        return [SimpleNamespace(resolution=SimpleNamespace(is_hr=hr, is_lr=not hr))
                for hr in (self.rate_array == 0).tolist()]

    def partition(self, mask) -> "EmbeddingSet":
        """New set of the rows where the boolean ``mask`` of length N holds, order preserved."""
        keep = self._mask(mask, "partition needs")
        return EmbeddingSet(self.matrix[keep], self.identity_array[keep], self.camera_array[keep],
                            self.rate_array[keep])

    def identities(self) -> list[int]:
        """Sorted unique identity IDs."""
        return np.unique(self.identity_array).tolist()

    def rows_by_identity(self, mask=None) -> dict[int, np.ndarray]:
        """Row indices of each identity, in sorted identity order, over the rows
        where the boolean ``mask`` holds (all rows when None); rows stay in
        record order, so ``matrix[rows]`` lists an identity's vectors in set order."""
        rows = np.arange(len(self)) if mask is None else np.flatnonzero(
            self._mask(mask, "rows_by_identity needs"))
        rows = rows[np.argsort(self.identity_array[rows], kind="stable")]
        ids, starts = np.unique(self.identity_array[rows], return_index=True)
        return dict(zip(ids.tolist(), np.split(rows, starts[1:])))

    def paired_rows(self, rates: Sequence[int] | None = None) -> tuple[list[int], list, list]:
        """The HR/LR pairing of statistics and training: the sorted identities with
        at least one HR and one LR sample at ``rates`` (distinct LR rates; every
        LR rate when None), and each one's HR and LR row indices, in record order.

        Each pairing is built on first use and kept; its row arrays are read-only
        and every call returns new lists."""
        key = None if rates is None else tuple(check_lr_rates(rates))
        if key not in self._pairings:
            lr_mask = self.rate_array != 0 if key is None else np.isin(self.rate_array, key)
            hr, lr = self.rows_by_identity(self.rate_array == 0), self.rows_by_identity(lr_mask)
            ids = sorted(hr.keys() & lr.keys())
            hr, lr = [hr[i] for i in ids], [lr[i] for i in ids]
            for rows in hr + lr:
                rows.setflags(write=False)
            self._pairings[key] = ids, hr, lr
        return tuple(map(list, self._pairings[key]))

    def _mask(self, mask, what: str) -> np.ndarray:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != (len(self),):
            raise ValueError(f"{what} a boolean mask of length {len(self)}")
        return mask


def _not_integers(labels: np.ndarray) -> np.ndarray:
    """Where a float or object (Python int, float, ...) label array holds no integer."""
    if labels.dtype.kind == "f":
        return ~np.isfinite(labels) | (np.trunc(labels) != labels)
    flags = [not _is_integer(value) for value in labels.ravel().tolist()]
    return np.array(flags, dtype=bool).reshape(labels.shape)


def _is_integer(value) -> bool:
    try:  # int() truncates 1.5 to 1 and refuses NaN, infinities and non-numbers
        return bool(value == int(value))
    except (TypeError, ValueError, OverflowError):
        return False


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only C-ordered ``dtype`` array that owns its data."""
    array = np.asarray(values, dtype=dtype)
    array = array if array.base is None and array.flags.c_contiguous else array.copy()
    array.setflags(write=False)
    return array


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
    try:  # numpy holds a record's dimension and byte size in a C int
        dtype = _record_dtype(dim)
    except ValueError as exc:
        raise FormatError(f"{path}: dimension {dim} too large for a record: {exc}") from exc
    expected = _HEADER.size + count * dtype.itemsize
    if len(data) != expected:
        raise FormatError(
            f"{path}: size mismatch, expected {expected} bytes for {count} records, got {len(data)}"
        )
    rows = np.frombuffer(data, dtype=dtype, count=count, offset=_HEADER.size)
    try:  # the set copies each field out of the file's bytes
        return EmbeddingSet(rows["vector"], rows["identity"], rows["camera"], rows["rate"])
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
        fh.writelines(b for part in parts for b in part)


def _words(texts, width: int = 8) -> np.ndarray:
    """``texts`` NUL-padded to ``width`` bytes each, as little-endian uint64 words."""
    return np.frombuffer(b"".join(text.ljust(width, b"\0") for text in texts), dtype="<u8")


# CSV values are written as "%.17g" writes them, from exact integer arithmetic on the float64
# bits (``_digits17``), for decimal exponents X from _X_LO to _X_HI (_X_HI only by a carry).
# A value is laid out in 6 little-endian words, and the NUL bytes are dropped at the end: 6
# lead bytes (sign, and "0." and zeros for -4 <= X < 0), each of the 17 digits followed by a
# gap byte that holds the point or nothing, and a tail word (exponent, then the separator).
_X_LO, _X_HI = -11, 15
_XS = range(_X_LO, _X_HI + 1)
_POW5 = np.array([5**k for k in range(28)], np.uint64)  # 5**27 < 2**64 < 5**28
_LEAD_AT, _TAIL_AT = 10**4, 10**4 + 20 * len(_XS)


@cache
def _layout_tables():
    """The tables ``_format_block`` lays values out with, built at the first CSV write (a
    process that writes none holds none): ``table``, ``group_last``, ``point_gap`` and
    ``masks``."""
    groups = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10  # 4 digits each
    group_bytes = np.full((10**4, 8), 0xFF, np.uint8)  # gap bytes all ones: the mask sets them
    group_bytes[:, ::2] = 48 + groups
    # By index from 0, _LEAD_AT and _TAIL_AT: each 4-digit group, word 0 by sign, X and first
    # digit, and the tail word by X and column ("," or, in a row's last column, "\n").
    table = np.concatenate([
        group_bytes.view("<u8").ravel(),
        _words([(b"-" * neg + (b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"")).rjust(6, b"\0")
                + bytes([48 + digit, 0xFF]) for neg in (0, 1) for x in _XS for digit in range(10)]),
        _words([(b"e-%02d" % -x if x < -4 else b"").ljust(7, b"\0") + sep
                for x in _XS for sep in (b",", b"\n")]),
    ])
    # The last nonzero digit of a 4-digit group (0-3), or -99 for 0.
    group_last = np.where(groups != 0, np.arange(4), -99).max(axis=1)
    # The gap that takes the point, by X: after digit X (fixed), digit 0 (exponent), none (X < 0).
    point_gap = np.array([x if x >= 0 else 0 if x < -4 else 17 for x in _XS])
    # A value's byte mask by point gap and last digit written: the lead, digits 0 to last, the
    # point if a digit follows it, and the tail.
    masks = _words([(b"\xff" * 6 + b"".join(b"\xff" + (b"." if i == gap < last else b"\0")
                                            for i in range(last + 1))).ljust(40, b"\0")
                    + b"\xff" * 8 for gap in range(18) for last in range(17)], 48).reshape(-1, 6)
    return table, group_last, point_gap, masks


# Values formatted at a time: one block's arrays stay in the CPU caches.  Formatting 6000 x 256,
# 24000 x 64 or 400 x 3840 normal values took 0.24-0.29 s in blocks of 4096 to 16384 values,
# and up to 0.34 s in blocks of 32768 (and 0.37 s in blocks of 2048, on 6000 x 256).
_FORMAT_BLOCK_VALUES = 1 << 13


def _format_rows(eset: EmbeddingSet, start: int, stop: int) -> list[bytes]:
    """Rows ``start`` to ``stop`` as CSV lines, in parts of whole lines; each value has the
    bytes of ``b"%.17g" % v``."""
    dim = eset.dim
    step = max(1, _FORMAT_BLOCK_VALUES // dim)
    parts = []
    for a in range(start, stop, step):
        b = min(a + step, stop)
        words = np.empty((b - a, dim + 1, 6), "<u8")  # each row's labels, then its values
        words[:, 0] = _words([  # 19-digit IDs at most: a row's labels fit in 47 bytes
            f"{identity},{camera},{rate_tag(rate)},".encode("ascii")
            for identity, camera, rate in zip(eset.identity_array[a:b].tolist(),
                                              eset.camera_array[a:b].tolist(),
                                              eset.rate_array[a:b].tolist())
        ], 48).reshape(-1, 6)
        words[:, 1:] = _format_block(eset.matrix[a:b]).reshape(b - a, dim, 6)
        parts.append(words.tobytes().translate(None, b"\0"))
    return parts


def _format_block(block: np.ndarray) -> np.ndarray:
    """The 6 words of each value of ``block``, in row-major order, NULs not yet dropped."""
    values = block.ravel()
    x, digits, exact = _digits17(values)
    table, group_last, point_gap, masks = _layout_tables()
    index = np.empty((values.size, 6), np.intp)
    top, low = np.divmod(digits.astype(np.int64), 10**8)  # below 10**17
    top, index[:, 2] = np.divmod(top, 10**4)
    first, index[:, 1] = np.divmod(top, 10**4)
    index[:, 3], index[:, 4] = np.divmod(low, 10**4)
    index[:, 0] = _LEAD_AT + (np.signbit(values) * len(_XS) + x - _X_LO) * 10 + first
    last_column = np.arange(block.shape[1]) == block.shape[1] - 1
    index[:, 5] = (_TAIL_AT + 2 * (x - _X_LO).reshape(block.shape) + last_column).ravel()
    last = np.take(group_last, index[:, 4]) + 13  # the last nonzero digit
    for column, at in ((3, 9), (2, 5), (1, 1)):
        zero = np.flatnonzero(last < 0)  # the group after this one is 0
        if not zero.size:
            break
        last[zero] = np.take(group_last, index[zero, column]) + at
    last = np.maximum(np.maximum(last, x), 0)  # a fixed value's integer digits all stay
    words = np.take(table, index)
    words &= np.take(masks, np.take(point_gap, x - _X_LO) * 17 + last, axis=0)
    if not exact.all():  # at most 24 characters, "-2.2250738585072014e-308"
        rest = ~exact
        words[rest, :5] = _words([b"%.17g" % v for v in values[rest].tolist()], 40).reshape(-1, 5)
    return words


def _digits17(values: np.ndarray):
    """``values`` rounded to 17 significant digits: decimal exponents X and 17-digit integers
    D, with ``values = D * 10**(X - 16)`` rounded half to even, and where that is exact.

    A value ``m * 2**e`` (m below 2**53) gives ``m * 5**k`` for k = 16 - X, shifted right by
    ``-(e + k)``, which is 1 to 63 where 5**k fits in 64 bits; X is ``floor(log10|v|)``, moved
    by one where the digits come out short or long.  Zero, subnormals and any X outside
    [_X_LO, _X_HI - 1] are not exact: their X is 0 and their D is 10**16.
    """
    bits = values.view(np.uint64)
    biased = (bits >> 52).astype(np.int64) & 0x7FF
    mantissa = (bits & ((1 << 52) - 1)) | (1 << 52)
    x = np.floor(np.log10(np.maximum(np.abs(values), np.finfo(np.float64).tiny)))
    x = x.astype(np.int64)
    k = 16 - x
    shift = 1075 - biased - k
    exact = (biased > 0) & (k >= 2) & (k <= 27) & (shift >= 1) & (shift <= 63)
    digits, up = _scaled(mantissa, np.where(exact, shift, 1), np.where(exact, k, 2))
    off = np.flatnonzero(exact & ((digits < 10**16) | (digits >= 10**17)))
    if off.size:  # X was one off: scale again by one more or one less power of ten
        more = np.where(digits[off] < 10**16, 1, -1)
        k[off] += more
        shift[off] -= more
        x[off] -= more
        exact[off] = (k[off] <= 27) & (k[off] >= 2) & (shift[off] >= 1) & (shift[off] <= 63)
        off = off[exact[off]]
        digits[off], up[off] = _scaled(mantissa[off], shift[off], k[off])
        exact[off] = (digits[off] >= 10**16) & (digits[off] < 10**17)
    digits += up
    carry = digits == 10**17
    digits[carry] = 10**16
    x += carry
    x[~exact], digits[~exact] = 0, 10**16
    return x, digits, exact


def _scaled(mantissa: np.ndarray, shift: np.ndarray, k: np.ndarray):
    """``mantissa * 5**k >> shift``, exactly, and whether the bits shifted out round it up
    (above half, or half with an odd result); 128-bit products from 32-bit halves."""
    power = np.take(_POW5, k)
    m_lo, m_hi = mantissa & 0xFFFFFFFF, mantissa >> 32
    p_lo, p_hi = power & 0xFFFFFFFF, power >> 32
    low, cross1, cross2 = m_lo * p_lo, m_lo * p_hi, m_hi * p_lo
    middle = (low >> 32) + (cross1 & 0xFFFFFFFF) + (cross2 & 0xFFFFFFFF)
    low = (middle << 32) | (low & 0xFFFFFFFF)
    high = m_hi * p_hi + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)
    shift = shift.astype(np.uint64)
    result = (high << (64 - shift)) | (low >> shift)
    rest, half = low & ((np.uint64(1) << shift) - 1), np.uint64(1) << (shift - 1)
    return result, (rest > half) | ((rest == half) & (result & 1).astype(bool))


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
    return EmbeddingSet(matrix, *np.concatenate(labels).T)


def _id_field(text: str) -> int:
    """An identity or camera field as the writer emits it, surrounding whitespace aside."""
    field = text.strip()
    if str(value := int(field)) != field:  # a sign, an underscore or a leading zero
        raise ValueError(f"identity and camera IDs must be plain decimals, got {field!r}")
    if not 0 <= value < 2**63:
        raise ValueError("identity and camera IDs must be non-negative and below 2**63")
    return value


def _parse_rows(path: Path, lines: list[str], dim: int, start: int, stop: int):
    """The rows of ``lines[start:stop]``: an (N, dim) matrix and N (identity, camera, rate).

    ``_loadtxt_rows`` reads them; a chunk that it refuses or leaves to the per-line parser
    is read again by ``_parse_lines``, which words every error.
    """
    try:
        rows = _loadtxt_rows(lines[start:stop], dim)
    except Exception:  # whatever numpy or a label check refuses: the per-line parser decides
        rows = None
    return _parse_lines(path, lines, dim, start, stop) if rows is None else rows


def _loadtxt_rows(lines: list[str], dim: int):
    """The rows of ``lines`` as ``_parse_lines`` reads them, through numpy's text reader.

    Each non-blank line is split once, at its third comma, and its labels are checked; the
    value tails are parsed by one ``np.loadtxt`` call (a C tokenizer, and the correctly
    rounded conversion that ``float()`` uses too), so the matrix has the same bits.  None
    where the values come out in another shape or not finite, and where numpy and
    ``float()`` differ: numpy skips an empty tail and strips ``\x1f`` around a value.
    Text that either refuses (``1_0`` is only ``float()``'s) raises.
    """
    labels, tails = [], []
    for line in lines:
        if line.strip():
            identity, camera, tag, values = line.split(",", 3)
            labels.append((_id_field(identity), _id_field(camera), _tag_rate(tag)))
            tails.append(values)
    labels = np.array(labels, dtype=np.int64).reshape(-1, 3)
    if not tails or "" in tails or any("\x1f" in t for t in tails):
        return None
    matrix = np.loadtxt(tails, delimiter=",", dtype=np.float64, comments=None, quotechar=None,
                        ndmin=2, max_rows=len(tails))  # allocated once, at the row count
    if matrix.shape != (len(tails), dim) or not (
            math.isfinite(matrix.min()) and math.isfinite(matrix.max())):
        return None
    return matrix, labels


def _parse_lines(path: Path, lines: list[str], dim: int, start: int, stop: int):
    """``_parse_rows`` one line and one ``float()`` at a time, with the first bad line's error."""
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
            identity, camera = _id_field(parts[0]), _id_field(parts[1])
            rate = _tag_rate(parts[2])
            matrix[len(labels)] = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from exc
        if not np.isfinite(matrix[len(labels)]).all():
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        labels.append((identity, camera, rate))
    matrix = np.empty((0, dim)) if matrix is None else matrix
    matrix.resize((len(labels), dim))  # in place, so the set keeps it without a copy
    return matrix, np.array(labels, dtype=np.int64).reshape(-1, 3)
