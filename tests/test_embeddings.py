import os
import struct

import numpy as np
import pytest

from vpfa import embeddings
from vpfa.embeddings import (
    EmbeddingRecord,
    EmbeddingSet,
    Resolution,
    half_split_identities,
    load_set,
    save_set,
)
from vpfa.errors import FormatError

HEADER_BYTES = 20  # magic, version, dim, count


def make_set(num=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(num):
        res = Resolution(0) if i % 2 == 0 else Resolution(2 + i % 3)
        records.append(
            EmbeddingRecord(i // 2, i % 3, res, rng.standard_normal(dim))
        )
    return EmbeddingSet(dim, records, source_label="test")


def assert_sets_equal(a, b):
    assert a.dim == b.dim
    assert len(a) == len(b)
    for ra, rb in zip(a.records, b.records):
        assert ra.identity == rb.identity
        assert ra.camera == rb.camera
        assert ra.resolution == rb.resolution
        assert ra.vector.tobytes() == rb.vector.tobytes()


class TestResolution:
    def test_parse_and_format(self):
        assert str(Resolution(0)) == "HR"
        assert str(Resolution(4)) == "LRx4"
        assert Resolution.parse("HR") == Resolution(0)
        assert Resolution.parse("LRx7") == Resolution(7)

    def test_rate_below_two_rejected(self):
        with pytest.raises(ValueError):
            Resolution(1)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            Resolution.parse("SD")


class TestRecordInvariants:
    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingRecord(0, 0, Resolution(0), np.array([1.0, np.nan]))

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingRecord(-1, 0, Resolution(0), np.ones(2))

    def test_dimension_checked_by_set(self):
        rec = EmbeddingRecord(0, 0, Resolution(0), np.ones(3))
        with pytest.raises(ValueError, match="dimension"):
            EmbeddingSet(4, [rec])

    def test_vectors_are_read_only(self):
        rec = EmbeddingRecord(0, 0, Resolution(0), np.ones(3))
        with pytest.raises(ValueError):
            rec.vector[0] = 2.0


class TestCsvFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=3\n0,0,HR,1,2,3\n1,1,LRx2,-1,0.5,0\n")
        s = load_set(path, "csv")
        assert s.dim == 3
        assert len(s) == 2
        assert s.records[1].resolution == Resolution(2)
        np.testing.assert_array_equal(s.records[0].vector, [1.0, 2.0, 3.0])

    def test_empty_record_section(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=5\n")
        s = load_set(path, "csv")
        assert s.dim == 5 and len(s) == 0

    def test_nan_entry_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0,HR,1,2\n0,0,HR,NaN,2\n")
        with pytest.raises(FormatError, match="line 3"):
            load_set(path, "csv")

    def test_row_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=3\n0,0,HR,1,2\n")
        with pytest.raises(FormatError, match="line 2"):
            load_set(path, "csv")

    def test_unknown_resolution_tag_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0,MR,1,2\n")
        with pytest.raises(FormatError, match="resolution"):
            load_set(path, "csv")

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,0,HR,1,2\n")
        with pytest.raises(FormatError, match="line 1"):
            load_set(path, "csv")

    def test_round_trip_is_lossless(self, tmp_path):
        vec = np.array([0.1, -3.5e-8])
        s = EmbeddingSet(2, [EmbeddingRecord(0, 0, Resolution(0), vec)])
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        reloaded = load_set(path, "csv")
        assert reloaded.records[0].vector.tobytes() == vec.tobytes()

    def test_values_written_as_format_17g(self, tmp_path):
        values = [-0.0, 5e-324, np.finfo(float).max, 0.1, 1 / 3]
        s = EmbeddingSet(5, [EmbeddingRecord(3, 1, Resolution(2), np.array(values))])
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        expected = ",".join(format(v, ".17g") for v in values)
        assert path.read_text() == f"dim=5\n3,1,LRx2,{expected}\n"

    def test_negative_ids_report_path_and_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0,HR,1,2\n0,-1,HR,1,2\n")
        with pytest.raises(FormatError, match=r"s\.csv: line 3: .*non-negative"):
            load_set(path, "csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0,HR,1,2\n\n  \n1,1,LRx2,3,4\n\n")
        s = load_set(path, "csv")
        np.testing.assert_array_equal(s.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert s.identity_array.tolist() == [0, 1] and s.rate_array.tolist() == [0, 2]

    @pytest.mark.parametrize("dim", [10**12, 10**30])
    def test_header_dim_sizes_nothing_before_a_row_matches_it(self, tmp_path, dim):
        path = tmp_path / "s.csv"
        path.write_text(f"dim={dim}\n0,0,HR,1,2\n")
        with pytest.raises(FormatError, match=rf"s\.csv: line 2: expected {dim + 3} fields"):
            load_set(path, "csv")

    def test_id_beyond_int64_reports_path_and_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(f"dim=2\n0,0,HR,1,2\n{2**63},0,HR,1,2\n")
        with pytest.raises(FormatError, match=r"s\.csv: line 3: .*below 2\*\*63"):
            load_set(path, "csv")

    def test_round_trip_random_values(self, tmp_path):
        s = make_set(num=20, dim=6, seed=3)
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        assert_sets_equal(load_set(path, "csv"), s)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The calls of ``os.fork``, counted."""
    calls = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or real_fork())
    return calls


def force_chunks(monkeypatch, chunks):
    monkeypatch.setattr(embeddings, "CSV_CHUNK_BYTES", 1)
    monkeypatch.setattr(embeddings, "_usable_cpus", lambda: chunks)


def csv_text(dim=3, rows=12, seed=5):
    s = make_set(num=rows, dim=dim, seed=seed)
    return "".join(f"{r.identity},{r.camera},{r.resolution},"
                   + ",".join(format(v, ".17g") for v in r.vector) + "\n" for r in s.records)


class TestParallelCsv:
    """Twelve data lines (file lines 2-13) split into 2 chunks (lines 2-7, 8-13) or
    3 chunks (lines 2-5, 6-9, 10-13)."""

    @pytest.mark.parametrize("chunks", [2, 3])
    def test_save_and_load_equal_the_serial_path(self, tmp_path, forks, monkeypatch, chunks):
        s = make_set(num=13, dim=4, seed=8)
        save_set(s, tmp_path / "serial.csv", "csv")
        serial = load_set(tmp_path / "serial.csv", "csv")
        assert not forks
        force_chunks(monkeypatch, chunks)
        save_set(s, tmp_path / "parallel.csv", "csv")
        assert (tmp_path / "parallel.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
        assert_columns_equal(load_set(tmp_path / "parallel.csv", "csv"), serial)
        assert len(forks) == 2 * (chunks - 1)
        assert_no_child_left()

    @pytest.mark.parametrize("bad_lines", [[3], [7], [12], [13], [7, 12], [3, 12], [6, 7]])
    @pytest.mark.parametrize("fault", [
        lambda line: line.replace(",", ",NaN,", 1).rsplit(",", 1)[0],  # non-finite value
        lambda line: line + ",0",  # one field too many
        lambda line: line.replace("HR", "MR").replace("LRx", "XRx"),  # unknown tag
        lambda line: "-1" + line,  # negative identity
    ])
    @pytest.mark.parametrize("chunks", [2, 3])
    def test_the_first_bad_line_gives_the_serial_error(self, tmp_path, forks, monkeypatch,
                                                       chunks, bad_lines, fault):
        lines = ["dim=3", *csv_text().splitlines(), ""]
        for lineno in bad_lines:
            lines[lineno - 1] = fault(lines[lineno - 1])
        path = tmp_path / "s.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(FormatError) as serial:
            load_set(path, "csv")
        assert f"line {bad_lines[0]}:" in str(serial.value)
        force_chunks(monkeypatch, chunks)
        with pytest.raises(FormatError) as parallel:
            load_set(path, "csv")
        assert str(parallel.value) == str(serial.value)
        assert len(forks) == chunks - 1
        assert_no_child_left()

    @pytest.mark.parametrize("dim", [10**12, 10**30])
    def test_every_chunk_checks_fields_before_sizing_by_the_header(self, tmp_path, forks,
                                                                   monkeypatch, dim):
        path = tmp_path / "s.csv"
        path.write_text(f"dim={dim}\n" + "0,0,HR,1,2\n" * 12)
        force_chunks(monkeypatch, 3)
        with pytest.raises(FormatError, match=rf"s\.csv: line 2: expected {dim + 3} fields"):
            load_set(path, "csv")
        assert len(forks) == 2
        assert_no_child_left()

    def test_blank_lines_and_an_empty_chunk(self, tmp_path, forks, monkeypatch):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n\n\n  \n\n0,0,HR,1,2\n\n1,1,LRx2,3,4\n")
        force_chunks(monkeypatch, 3)
        s = load_set(path, "csv")
        np.testing.assert_array_equal(s.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert s.identity_array.tolist() == [0, 1] and s.rate_array.tolist() == [0, 2]
        assert len(forks) == 2
        assert_no_child_left()

    def test_serial_on_one_cpu_on_a_small_file_and_without_fork(self, tmp_path, forks,
                                                                monkeypatch):
        path = tmp_path / "s.csv"
        save_set(make_set(num=12, dim=3), path, "csv")
        load_set(path, "csv")  # below CSV_CHUNK_BYTES
        monkeypatch.setattr(embeddings, "CSV_CHUNK_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        load_set(path, "csv")  # one usable CPU
        assert not forks
        force_chunks(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        expected = path.read_bytes()
        save_set(load_set(path, "csv"), path, "csv")
        assert path.read_bytes() == expected

    def test_a_worker_that_dies_is_an_error(self, tmp_path, forks, monkeypatch):
        path = tmp_path / "s.csv"
        save_set(make_set(num=12, dim=3), path, "csv")
        force_chunks(monkeypatch, 2)
        real_parse = embeddings._parse_rows
        parent = os.getpid()

        def parse(path, lines, dim, start, stop):
            if os.getpid() != parent:
                os._exit(3)
            return real_parse(path, lines, dim, start, stop)

        monkeypatch.setattr(embeddings, "_parse_rows", parse)
        with pytest.raises(OSError, match="ended without a result"):
            load_set(path, "csv")
        assert_no_child_left()

    def test_a_caller_failure_reaps_every_worker(self, tmp_path, forks, monkeypatch):
        path = tmp_path / "s.csv"
        save_set(make_set(num=12, dim=3), path, "csv")
        force_chunks(monkeypatch, 3)
        real_parse = embeddings._parse_rows
        parent = os.getpid()

        def parse(path, lines, dim, start, stop):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real_parse(path, lines, dim, start, stop)

        monkeypatch.setattr(embeddings, "_parse_rows", parse)
        with pytest.raises(KeyboardInterrupt):
            load_set(path, "csv")
        assert_no_child_left()


class TestBinaryFormat:
    def test_round_trip_bitwise(self, tmp_path):
        s = make_set(num=100, dim=8, seed=1)
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        assert_sets_equal(load_set(path, "bin"), s)

    def test_save_is_deterministic(self, tmp_path):
        s = make_set(num=10, dim=4, seed=2)
        p1, p2 = tmp_path / "a.vpfa", tmp_path / "b.vpfa"
        save_set(s, p1, "bin")
        save_set(s, p2, "bin")
        assert p1.read_bytes() == p2.read_bytes()

    def test_binary_loaded_as_csv_fails(self, tmp_path):
        s = make_set()
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        with pytest.raises(FormatError):
            load_set(path, "csv")

    def test_csv_loaded_as_binary_fails(self, tmp_path):
        s = make_set()
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        with pytest.raises(FormatError, match="magic"):
            load_set(path, "bin")

    def test_truncated_file_rejected(self, tmp_path):
        s = make_set()
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="size mismatch"):
            load_set(path, "bin")

    @pytest.mark.parametrize("identity, camera, field", [
        (2**32, 0, "identity"), (0, 2**16, "camera"), (0, 70000, "camera"),
    ])
    def test_ids_beyond_record_fields_rejected_before_writing(
        self, tmp_path, identity, camera, field
    ):
        s = EmbeddingSet(2, [EmbeddingRecord(identity, camera, Resolution(0), np.ones(2))])
        path = tmp_path / "s.vpfa"
        with pytest.raises(FormatError, match=field):
            save_set(s, path, "bin")
        assert not path.exists()

    @pytest.mark.parametrize("num, dim", [(7, 1), (0, 3)])
    def test_edge_shapes_round_trip_bit_exact(self, tmp_path, num, dim):
        s = make_set(num=num, dim=dim, seed=9)
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        assert path.stat().st_size == HEADER_BYTES + num * (7 + 8 * dim)
        loaded = load_set(path, "bin")
        assert_columns_equal(loaded, s)
        save_set(loaded, tmp_path / "again.vpfa", "bin")
        assert (tmp_path / "again.vpfa").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("block_rows", [1, 3, 99, 100, 1000])
    def test_blocked_writer_equals_one_structured_array(self, tmp_path, monkeypatch, block_rows):
        s = make_set(num=100, dim=3, seed=7)
        itemsize = 7 + 8 * 3
        monkeypatch.setattr(embeddings, "BINARY_BLOCK_BYTES", block_rows * itemsize + itemsize - 1)
        save_set(s, tmp_path / "s.vpfa", "bin")
        rows = np.rec.fromarrays([s.identity_array, s.camera_array, s.rate_array, s.matrix],
                                 dtype=[("identity", "<u4"), ("camera", "<u2"), ("rate", "u1"),
                                        ("vector", "<f8", (3,))])
        header = struct.pack("<4sIIQ", b"VPFA", 1, 3, 100)
        assert (tmp_path / "s.vpfa").read_bytes() == header + rows.tobytes()

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_rate_one_reported_at_its_record(self, tmp_path, k):
        path = tmp_path / "s.vpfa"
        save_set(make_set(num=6, dim=2, seed=10), path, "bin")
        raw = bytearray(path.read_bytes())
        raw[HEADER_BYTES + k * (7 + 16) + 6] = 1  # the rate byte of record k
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"s\.vpfa: record {k}: LR rate must be >= 2"):
            load_set(path, "bin")

    @pytest.mark.parametrize("k", [0, 4, 5])
    def test_nan_reported_at_its_record(self, tmp_path, k):
        path = tmp_path / "s.vpfa"
        save_set(make_set(num=6, dim=2, seed=11), path, "bin")
        raw = bytearray(path.read_bytes())
        start = HEADER_BYTES + k * (7 + 16) + 7 + 8  # second component of record k
        raw[start:start + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=rf"s\.vpfa: non-finite value in record {k}$"):
            load_set(path, "bin")

    def test_largest_ids_round_trip(self, tmp_path):
        s = EmbeddingSet(2, [EmbeddingRecord(2**32 - 1, 2**16 - 1, Resolution(0), np.ones(2))])
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        assert_sets_equal(load_set(path, "bin"), s)


class TestPartition:
    def test_resolution_filter(self):
        s = make_set(num=10)
        hr = s.partition(lambda r: r.resolution.is_hr)
        assert len(hr) == 5
        assert all(r.resolution.is_hr for r in hr.records)

    def test_complement_preserves_multiset(self):
        s = make_set(num=30, dim=5, seed=4)
        pred = lambda r: r.identity % 2 == 0
        left = s.partition(pred)
        right = s.partition(lambda r: not pred(r))
        assert len(left) + len(right) == len(s)
        merged = sorted(
            [r.vector.tobytes() for r in left.records]
            + [r.vector.tobytes() for r in right.records]
        )
        assert merged == sorted(r.vector.tobytes() for r in s.records)

    def test_empty_partition_keeps_dim(self):
        s = make_set(dim=4)
        empty = s.partition(lambda r: False)
        assert empty.dim == 4 and len(empty) == 0

    def test_original_unchanged(self):
        s = make_set()
        before = [r.vector.tobytes() for r in s.records]
        s.partition(lambda r: r.camera == 0)
        assert [r.vector.tobytes() for r in s.records] == before

    def test_order_preserved(self):
        s = make_set(num=12)
        sub = s.partition(lambda r: r.camera != 1)
        positions = [s.records.index(r) for r in sub.records]
        assert positions == sorted(positions)


def walk_rows_by_identity(eset, keep):
    """Row indices per identity, one record at a time: the reference grouping."""
    groups = {}
    for row, rec in enumerate(eset.records):
        if keep(rec):
            groups.setdefault(rec.identity, []).append(row)
    return {i: groups[i] for i in sorted(groups)}


class TestRowsByIdentity:
    def setup_method(self):
        rng = np.random.default_rng(11)
        n = 60
        rates = rng.choice([0, 2, 3], size=n)
        self.set = EmbeddingSet.from_arrays(  # shuffled ids, uneven counts per resolution
            rng.standard_normal((n, 3)), rng.integers(0, 9, size=n) * 7, rng.integers(0, 3, size=n),
            rates)

    @pytest.mark.parametrize("mask, keep", [
        (None, lambda r: True),
        ("hr", lambda r: r.resolution.is_hr),
        ("rate3", lambda r: r.resolution.rate == 3),
        ("none", lambda r: False),
    ])
    def test_equals_the_record_walk(self, mask, keep):
        s = self.set
        mask = {None: None, "hr": s.rate_array == 0, "rate3": s.rate_array == 3,
                "none": np.zeros(len(s), dtype=bool)}[mask]
        got = s.rows_by_identity(mask)
        want = walk_rows_by_identity(s, keep)
        assert list(got) == list(want)  # sorted identity order
        assert {i: rows.tolist() for i, rows in got.items()} == want
        assert all(rows.dtype == np.intp for rows in got.values())

    def test_empty_mask_and_empty_set_give_no_groups(self):
        assert self.set.rows_by_identity(np.zeros(len(self.set), dtype=bool)) == {}
        assert EmbeddingSet(3).rows_by_identity() == {}

    @pytest.mark.parametrize("mask", [np.ones(5, dtype=bool), np.ones(60, dtype=int)])
    def test_rejects_a_mask_that_is_not_one_bool_per_row(self, mask):
        with pytest.raises(ValueError, match="boolean mask of length 60"):
            self.set.rows_by_identity(mask)


def columns(num=12, dim=5, seed=6):
    """Raw columns of a small set: vectors, identities, cameras, rates."""
    rng = np.random.default_rng(seed)
    rates = [(0, 2, 3, 255)[i % 4] for i in range(num)]
    return rng.standard_normal((num, dim)), [i // 3 for i in range(num)], [i % 2 for i in range(num)], rates


def assert_columns_equal(a, b):
    assert a.dim == b.dim
    for name in ("matrix", "identity_array", "camera_array", "rate_array"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


class TestColumnarStorage:
    def test_record_built_set_equals_array_built_twin(self):
        matrix, ids, cams, rates = columns()
        records = [EmbeddingRecord(i, c, Resolution(r), v)
                   for v, i, c, r in zip(matrix, ids, cams, rates)]
        from_records = EmbeddingSet(5, records, "x")
        twin = EmbeddingSet.from_arrays(matrix, ids, cams, rates, "x")
        assert_columns_equal(from_records, twin)
        assert twin.rate_array.dtype == np.uint8 and twin.matrix.dtype == np.float64
        assert twin.identity_array.dtype == twin.camera_array.dtype == np.int64

    def test_records_view_round_trips_and_shares_matrix(self):
        s = EmbeddingSet.from_arrays(*columns(), "x")
        assert s.records is s.records  # built once
        assert_columns_equal(EmbeddingSet(s.dim, s.records), s)
        for i, rec in enumerate(s.records):
            assert np.shares_memory(rec.vector, s.matrix)
            assert rec.vector.tobytes() == s.matrix[i].tobytes()
            assert (rec.identity, rec.camera, rec.resolution.rate) == (
                s.identity_array[i], s.camera_array[i], s.rate_array[i])
            assert type(rec.identity) is int and type(rec.camera) is int

    def test_records_compare_by_value(self):
        a, b = EmbeddingSet.from_arrays(*columns(), "x"), EmbeddingSet.from_arrays(*columns(), "y")
        assert a.records == b.records and len(set(a.records) | set(b.records)) == len(a)
        assert a.records[0] != a.records[1]

    def test_mask_and_predicate_partition_agree(self):
        s = make_set(num=30, dim=3, seed=12)
        for mask, pred in (
            (s.camera_array == 1, lambda r: r.camera == 1),
            (s.rate_array != 0, lambda r: r.resolution.is_lr),
            (np.zeros(len(s), dtype=bool), lambda r: False),
        ):
            assert_columns_equal(s.partition(mask), s.partition(pred))

    @pytest.mark.parametrize("mask", [[0, 1, 2], np.ones(5, dtype=bool), np.ones((6, 1), dtype=bool)])
    def test_partition_rejects_a_mask_that_is_not_one_bool_per_record(self, mask):
        with pytest.raises(ValueError, match="mask"):
            make_set(num=6).partition(mask)

    def test_every_array_is_read_only(self):
        matrix, ids, cams, rates = columns()
        given = np.array(matrix), np.array(ids), np.array(cams), np.array(rates)
        for s in (make_set(), EmbeddingSet.from_arrays(*given), EmbeddingSet.from_arrays(*columns())):
            for name in ("matrix", "identity_array", "camera_array", "rate_array"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, name)[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                s.records[0].vector[0] = 0.0

    def test_from_arrays_copies_views_and_keeps_owned_arrays(self):
        matrix, ids, cams, rates = (np.array(c) for c in columns())
        base = np.vstack([matrix, matrix])
        s = EmbeddingSet.from_arrays(base[:12], ids, cams, rates)
        base[0] = 7.0  # a write through the base of a view leaves the set as it was
        assert not np.shares_memory(s.matrix, base) and s.matrix[0].tolist() == matrix[0].tolist()
        assert base.flags.writeable
        owned = EmbeddingSet.from_arrays(matrix, ids, cams, rates)
        assert owned.matrix is matrix and owned.identity_array is ids
        assert not matrix.flags.writeable

    @pytest.mark.parametrize("column, value, message", [
        (0, np.inf, "non-finite value in record 4"),
        (1, -1, "record 4: identity and camera IDs must be non-negative"),
        (2, -2, "record 4: identity and camera IDs must be non-negative"),
        (3, 1, "record 4: LR rate must be >= 2"),
        (3, 256, "record 4: LR rate must be >= 2 and <= 255, got 256"),
    ])
    def test_from_arrays_reports_the_first_bad_record(self, column, value, message):
        cols = [np.array(c) for c in columns()]
        cols[column][4] = value
        cols[column][7] = value
        with pytest.raises(ValueError, match=message):
            EmbeddingSet.from_arrays(*cols)

    def test_from_arrays_rejects_mismatched_shapes(self):
        matrix, ids, cams, rates = columns(num=6)
        with pytest.raises(ValueError, match="length"):
            EmbeddingSet.from_arrays(matrix, ids[:5], cams, rates)
        with pytest.raises(ValueError, match="dim"):
            EmbeddingSet.from_arrays(matrix[:, :0], ids, cams, rates)


class TestHalfSplit:
    def test_ceil_rule(self):
        assert half_split_identities([3, 1, 5, 2, 4]) == ([1, 2, 3], [4, 5])
        assert half_split_identities([7, 7, 2]) == ([2], [7])

    def test_deterministic_half_split_of_set(self):
        s = make_set(num=10)
        first, second = half_split_identities(s.identities())
        assert first + second == s.identities()
