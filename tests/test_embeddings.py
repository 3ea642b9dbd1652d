import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from vpfa import embeddings
from vpfa.embeddings import (
    EmbeddingSet,
    check_lr_rate,
    check_lr_rates,
    load_set,
    rate_tag,
    save_set,
)
from vpfa.errors import FormatError
from vpfa.synthgen import SynthConfig, generate

HEADER_BYTES = 20  # magic, version, dim, count


def make_set(num=6, dim=4, seed=0):
    """Identities 0, 0, 1, 1, ...; cameras cycle 0-2; even rows HR, odd rows LRx(2 + i % 3)."""
    i = np.arange(num)
    return EmbeddingSet(np.random.default_rng(seed).standard_normal((num, dim)), i // 2, i % 3,
                        np.where(i % 2 == 0, 0, 2 + i % 3))


def one_row(identity, camera, rate, vector):
    return EmbeddingSet(np.array([vector], dtype=float), [identity], [camera], [rate])


def assert_columns_equal(a, b):
    assert a.dim == b.dim
    for name in ("matrix", "identity_array", "camera_array", "rate_array"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


class TestResolution:
    def test_parse_and_format(self):
        assert rate_tag(0) == "HR"
        assert rate_tag(4) == "LRx4"
        assert embeddings._tag_rate("HR") == 0
        assert embeddings._tag_rate("LRx7") == 7
        for rate in (0, *range(2, 256)):  # every tag the writer emits, padded or not
            assert embeddings._tag_rate(rate_tag(rate)) == rate
            assert embeddings._tag_rate(f" {rate_tag(rate)}\t") == rate

    @pytest.mark.parametrize("rate", [1, -1, 256])
    def test_rate_outside_lr_range_rejected(self, rate):
        with pytest.raises(ValueError, match=f"^LR rate must be >= 2 and <= 255, got {rate}$"):
            check_lr_rate(rate)

    @pytest.mark.parametrize("rates, message", [
        ([2, 3, 2], r"LR rates must be distinct, got \[2, 3, 2\]"),
        ((1, 1), r"LR rates must be distinct, got \[1, 1\]"),  # repeats are reported first
        ([3, 1], "LR rate must be >= 2 and <= 255, got 1"),
    ])
    def test_rate_lists_are_distinct_lr_rates(self, rates, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_lr_rates(rates)

    def test_rate_list_returned_as_a_list(self):
        assert check_lr_rates((4, 2)) == [4, 2] and check_lr_rates([]) == []

    @pytest.mark.parametrize("tag", ["SD", "hr", "LRx", "LRx0", "LRx1", "LRx02", "LRx+2",
                                     "LRx1_0", "LRx 2", "LRx2.0", "LRx-2", "LRx256"])
    def test_unknown_tag_rejected(self, tag):
        with pytest.raises(ValueError, match="unknown resolution tag"):
            embeddings._tag_rate(tag)


class TestRecordInvariants:
    def test_non_finite_vector_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            one_row(0, 0, 0, [1.0, np.nan])

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            one_row(-1, 0, 0, np.ones(2))

    def test_dimension_checked_by_set(self):
        with pytest.raises(ValueError, match=r"\(N, dim\)"):
            EmbeddingSet(np.ones(3), [0], [0], [0])

    def test_vectors_are_read_only(self):
        rec = one_row(0, 0, 0, np.ones(3)).records[0]
        with pytest.raises(ValueError):
            rec.vector[0] = 2.0


class TestCsvFormat:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=3\n0,0,HR,1,2,3\n1,1,LRx2,-1,0.5,0\n")
        s = load_set(path, "csv")
        assert s.dim == 3
        assert len(s) == 2
        assert s.records[1].resolution.rate == 2
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

    @pytest.mark.parametrize("tag", ["LRx0", "LRx1", "LRx02", "LRx+2", "LRx1_0", "LRx 2",
                                     "LRx256", "lrx2", "HR2"])
    def test_only_the_tags_the_writer_emits_load(self, tmp_path, tag):
        path = tmp_path / "s.csv"
        path.write_text(f"dim=2\n0,0,LRx2,1,2\n1,1,{tag},3,4\n")
        message = rf"s\.csv: line 3: unknown resolution tag '{re.escape(tag)}'$"
        with pytest.raises(FormatError, match=message):
            load_set(path, "csv")

    def test_tags_padded_with_whitespace_load(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0, HR ,1,2\n1,1,\tLRx12,3,4\n")
        assert load_set(path, "csv").rate_array.tolist() == [0, 12]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0,0,HR,1,2\n")
        with pytest.raises(FormatError, match="line 1"):
            load_set(path, "csv")

    def test_round_trip_is_lossless(self, tmp_path):
        vec = np.array([0.1, -3.5e-8])
        s = one_row(0, 0, 0, vec)
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        reloaded = load_set(path, "csv")
        assert reloaded.matrix[0].tobytes() == vec.tobytes()

    def test_values_written_as_format_17g(self, tmp_path):
        values = [-0.0, 5e-324, np.finfo(float).max, 0.1, 1 / 3]
        s = one_row(3, 1, 2, values)
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        expected = ",".join(format(v, ".17g") for v in values)
        assert path.read_text() == f"dim=5\n3,1,LRx2,{expected}\n"

    def test_negative_ids_report_path_and_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n0,0,HR,1,2\n0,-1,HR,1,2\n")
        with pytest.raises(FormatError, match=r"s\.csv: line 3: .*non-negative"):
            load_set(path, "csv")

    @pytest.mark.parametrize("field", ["1_0", "+1", "01", "-1", "00", "-0", "1.0", "1e1", "x", ""])
    @pytest.mark.parametrize("column", [0, 1])
    def test_only_the_ids_the_writer_emits_load(self, tmp_path, field, column):
        row = ["1", "1", "LRx2", "3", "4"]
        row[column] = field
        path = tmp_path / "s.csv"
        path.write_text(f"dim=2\n0,0,HR,1,2\n{','.join(row)}\n")
        with pytest.raises(FormatError, match=r"s\.csv: line 3: "):
            load_set(path, "csv")

    def test_ids_padded_with_whitespace_load(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("dim=2\n 7 ,\t0,HR,1,2\n3 , 12,LRx2,3,4\n")
        s = load_set(path, "csv")
        assert s.identity_array.tolist() == [7, 3] and s.camera_array.tolist() == [0, 12]

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
        assert_columns_equal(load_set(path, "csv"), s)


def percent_17g_text(eset):
    """A set's CSV text as ``"%.17g" % v`` writes each value: the reference for the writer."""
    return "".join(
        f"{identity},{camera},{rate_tag(rate)}," + ",".join("%.17g" % v for v in row) + "\n"
        for identity, camera, rate, row in zip(
            eset.identity_array.tolist(), eset.camera_array.tolist(),
            eset.rate_array.tolist(), eset.matrix.tolist()))


def powers_of_ten_and_neighbours():
    """The doubles nearest 1e-330 ... 1e308 (0.0 below the subnormals), and the doubles
    either side of each."""
    powers = np.array([float(f"1e{p}") for p in range(-330, 309)])
    return np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])


def exact_18_digit_ties(seed):
    """M / 2**j for odd M below 2**53 with exactly 18 significant digits, the last a 5: each
    lies halfway between two 17-digit decimals, so the writer must round half to even."""
    rng = np.random.default_rng(seed)
    ties = []
    for j in range(2, 26):
        low, high = -(-10**17 // 5**j), min(2**53, 10**18 // 5**j)  # M * 5**j has 18 digits
        for m in rng.integers(low, high - 1, 12).tolist():
            m |= 1
            assert len(str(m * 5**j)) == 18 and str(m * 5**j).endswith("5")
            ties += [m / 2**j, -m / 2**j]
    return np.array(ties)


def finite_bit_patterns(count, seed):
    """Doubles with uniformly random bits, infinities and NaNs dropped."""
    values = np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def gallery_values():
    """The values of four identities of the CSV gallery (``gen --dim 256 --rates 2,3,4``)."""
    cfg = SynthConfig(dim=256, num_identities=4, samples_per_res=5, rates=(2, 3, 4),
                      shift_magnitude={2: 2.0, 3: 3.0, 4: 4.0}, seed=7)
    return generate(cfg).matrix.ravel()


class TestCsvValueText:
    """The writer's integer path and its "%" fallback, byte for byte against "%.17g"."""

    def hard_values(self):
        tiny, top = np.finfo(float).tiny, np.finfo(float).max
        return np.concatenate([
            powers_of_ten_and_neighbours(), [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, top, -top],
            exact_18_digit_ties(seed=1), [560639462230231.125],
            finite_bit_patterns(20000, seed=2), gallery_values(),
        ])

    @pytest.mark.parametrize("dim", [1, 7, 256])
    def test_values_match_percent_17g(self, tmp_path, dim):
        values = self.hard_values()
        step = max(1, embeddings._FORMAT_BLOCK_VALUES // dim)  # rows formatted at a time
        rows = (values.size // (step * dim) + 1) * step + 5  # every value, and a short last block
        i = np.arange(rows)
        s = EmbeddingSet(np.resize(values, (rows, dim)), i, i % 3, np.where(i % 2, 2 + i % 254, 0))
        assert np.isin(values, s.matrix).all()  # every value is written
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        assert path.read_bytes() == f"dim={dim}\n{percent_17g_text(s)}".encode("ascii")

    def test_widest_labels_and_values(self, tmp_path):
        top, big = np.finfo(float).max, 2**63 - 1  # 19-digit IDs, 24-character values
        s = EmbeddingSet([[-top, -2.2250738585072014e-308, -4.9406564584124654e-324, -1.2345e-5]],
                         [big], [big], [255])
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        assert path.read_text() == f"dim=4\n{percent_17g_text(s)}"
        assert path.read_text().splitlines()[1].split(",")[:3] == [str(big), str(big), "LRx255"]


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


# Two-value data lines (file lines 2-7), canonical as the writer emits them; one chunk holds
# them all, 2 chunks split them into lines 2-4 and 5-7, 3 chunks into 2-3, 4-5 and 6-7.
DATA = ["0,0,HR,0.25,-1.5", "0,1,LRx2,3,4", "1,0,HR,5,6", "1,1,LRx2,7,8", "2,0,HR,9,10",
        "2,1,LRx3,11,12"]


def with_values(tails):
    """DATA with the value tails of some rows replaced: ``tails`` maps a 0-based row
    (row 3 is file line 5) to its new tail."""
    return [line.rsplit(",", 2)[0] + "," + tails[k] if k in tails else line
            for k, line in enumerate(DATA)]


def every(tail):
    return dict.fromkeys(range(len(DATA)), tail)


def cannot_convert(lineno, text):
    return f"line {lineno}: could not convert string to float: {text!r}"


# (dim, data lines, how the per-line parser reads them): "numpy" when numpy's reader alone
# loads them too, "float" when only the per-line parser's float() does, else its error.
READER_CASES = {
    "canonical": (2, DATA, "numpy"),
    "underscore": (2, with_values({3: "1_0,2"}), "float"),
    "space-padded": (2, with_values(every(" 1.5 ,  2")), "numpy"),
    "tab-padded": (2, with_values({0: "\t1.5,2\t", 4: "\t-1,\t 3 "}), "numpy"),
    "signs-and-dots": (2, with_values({1: "+1.5E3,.5", 3: "5.,-0"}), "numpy"),
    "underflow": (2, with_values(every("1e-400,4.9e-324")), "numpy"),
    "overflow": (2, with_values({3: "1e400,2"}), "line 5: non-finite value"),
    "nan": (2, with_values({3: "nan,2"}), "line 5: non-finite value"),
    "infinity": (2, with_values({3: "1,Infinity"}), "line 5: non-finite value"),
    "hex": (2, with_values({3: "0x10,2"}), cannot_convert(5, "0x10")),
    "empty-field": (2, with_values({3: "1,"}), cannot_convert(5, "")),
    "no-values": (2, DATA[:3] + ["1,1,LRx2"] + DATA[4:], "line 5: expected 5 fields, got 3"),
    "no-values-after-a-comma": (1, ["0,0,HR,1", "0,1,LRx2,", "1,0,HR,3"],
                                cannot_convert(3, "")),
    "every-line-one-field-short": (3, DATA, "line 2: expected 6 fields, got 5"),
    "comment": (2, with_values({3: "1#c,2"}), cannot_convert(5, "1#c")),
    "quoted": (2, with_values({3: '"1",2'}), cannot_convert(5, '"1"')),
    "space-inside": (2, with_values({3: "1 5,2"}), cannot_convert(5, "1 5")),
    "unit-separator": (2, with_values({3: "\x1f1.5,2"}), cannot_convert(5, "\x1f1.5")),
    "unit-separator-after": (2, with_values(every("1,1.5\x1f")), cannot_convert(2, "1.5\x1f")),
    "dim-1": (1, ["0,0,HR,1.5", "0,1,LRx2,-2", "1,0,HR,0.1", "1,1,LRx4,3e-5"], "numpy"),
}


def columns_or_error(path):
    """A loaded set's four arrays (dtype, shape, bytes), or the text of its FormatError."""
    try:
        s = load_set(path, "csv")
    except FormatError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (s.matrix, s.identity_array, s.camera_array, s.rate_array)]


def refuse(*args):
    raise AssertionError("the per-line parser was called")


class TestNumpyReader:
    """numpy's reader gives each chunk the per-line parser's matrix bits and labels, or
    leaves the chunk to it, so every error keeps its text."""

    @pytest.mark.parametrize("chunks", [1, 2, 3])
    @pytest.mark.parametrize("case", READER_CASES)
    def test_equals_the_per_line_parser(self, tmp_path, monkeypatch, recwarn, case, chunks):
        dim, lines, reads = READER_CASES[case]
        path = tmp_path / "s.csv"
        path.write_text(f"dim={dim}\n" + "\n".join(lines) + "\n")
        with monkeypatch.context() as only_per_line:
            only_per_line.setattr(embeddings, "_loadtxt_rows", lambda lines, dim: None)
            want = columns_or_error(path)
        if reads in ("numpy", "float"):
            assert not isinstance(want, str), want
        else:
            assert want == f"{path}: {reads}"
        if chunks > 1:
            force_chunks(monkeypatch, chunks)
        assert columns_or_error(path) == want
        if reads == "numpy":  # and without the per-line parser
            monkeypatch.setattr(embeddings, "_parse_lines", refuse)
            assert columns_or_error(path) == want
        assert not recwarn.list  # numpy warns of an empty line it is given

    def test_a_written_set_loads_without_the_per_line_parser(self, tmp_path, monkeypatch):
        s = make_set(num=40, dim=7, seed=2)
        extremes = [-0.0, 5e-324, np.finfo(float).max, -np.finfo(float).tiny, 0.1, 1 / 3, -1e300]
        s = EmbeddingSet(np.vstack([s.matrix, extremes]), [*s.identity_array, 2**63 - 1],
                         [*s.camera_array, 0], [*s.rate_array, 255])
        path = tmp_path / "s.csv"
        save_set(s, path, "csv")
        monkeypatch.setattr(embeddings, "_parse_lines", refuse)
        assert_columns_equal(load_set(path, "csv"), s)
        force_chunks(monkeypatch, 3)
        assert_columns_equal(load_set(path, "csv"), s)


class TestBinaryFormat:
    def test_round_trip_bitwise(self, tmp_path):
        s = make_set(num=100, dim=8, seed=1)
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        assert_columns_equal(load_set(path, "bin"), s)

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
        s = one_row(identity, camera, 0, np.ones(2))
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
        s = one_row(2**32 - 1, 2**16 - 1, 0, np.ones(2))
        path = tmp_path / "s.vpfa"
        save_set(s, path, "bin")
        assert_columns_equal(load_set(path, "bin"), s)


class TestPartition:
    def test_resolution_filter(self):
        s = make_set(num=10)
        hr = s.partition(s.rate_array == 0)
        assert len(hr) == 5
        assert all(r.resolution.is_hr for r in hr.records)

    def test_complement_preserves_multiset(self):
        s = make_set(num=30, dim=5, seed=4)
        even = s.identity_array % 2 == 0
        left = s.partition(even)
        right = s.partition(~even)
        assert len(left) + len(right) == len(s)
        merged = sorted(v.tobytes() for part in (left, right) for v in part.matrix)
        assert merged == sorted(v.tobytes() for v in s.matrix)

    def test_empty_partition_keeps_dim(self):
        s = make_set(dim=4)
        empty = s.partition(np.zeros(len(s), dtype=bool))
        assert empty.dim == 4 and len(empty) == 0

    def test_original_unchanged(self):
        s = make_set()
        before = [s.matrix.tobytes(), s.identity_array.tobytes(), s.rate_array.tobytes()]
        s.partition(s.camera_array == 0)
        assert [s.matrix.tobytes(), s.identity_array.tobytes(), s.rate_array.tobytes()] == before

    def test_order_preserved(self):
        s = make_set(num=12)
        sub = s.partition(s.camera_array != 1)
        positions = [s.matrix.tolist().index(v) for v in sub.matrix.tolist()]
        assert positions == sorted(positions) and len(positions) == 8


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
        self.set = EmbeddingSet(  # shuffled ids, uneven counts per resolution
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
        assert EmbeddingSet(np.empty((0, 3)), [], [], []).rows_by_identity() == {}

    @pytest.mark.parametrize("mask", [np.ones(5, dtype=bool), np.ones(60, dtype=int)])
    def test_rejects_a_mask_that_is_not_one_bool_per_row(self, mask):
        with pytest.raises(ValueError, match="boolean mask of length 60"):
            self.set.rows_by_identity(mask)


class TestPairedRows:
    def setup_method(self):
        rng = np.random.default_rng(12)
        n = 80
        rates = rng.choice([0, 2, 3, 4], size=n, p=[0.4, 0.3, 0.2, 0.1])
        ids = rng.integers(0, 12, size=n) * 5
        ids[rates == 0] %= 40  # 40, 45, 50 and 55 have LR samples only
        self.set = EmbeddingSet(  # shuffled ids, uneven counts per resolution
            rng.standard_normal((n, 3)), ids, rng.integers(0, 3, size=n), rates)

    @pytest.mark.parametrize("rates, lr_rates", [
        (None, {2, 3, 4}), ([3], {3}), ([4, 2], {2, 4}), ([2, 3, 4], {2, 3, 4}),
    ])
    def test_equals_the_record_walk(self, rates, lr_rates):
        s = self.set
        hr = walk_rows_by_identity(s, lambda r: r.resolution.is_hr)
        lr = walk_rows_by_identity(s, lambda r: r.resolution.rate in lr_rates)
        want = sorted(hr.keys() & lr.keys())
        ids, hr_rows, lr_rows = s.paired_rows(rates)
        assert ids == want and len(hr_rows) == len(lr_rows) == len(ids)
        assert [rows.tolist() for rows in hr_rows] == [hr[i] for i in ids]  # record order
        assert [rows.tolist() for rows in lr_rows] == [lr[i] for i in ids]

    def test_an_identity_missing_a_side_is_dropped(self):
        s = self.set
        ids = s.paired_rows()[0]
        assert ids == sorted(ids) and len(ids) < len(s.identities())
        for identity in s.identities():
            rates = s.rate_array[s.identity_array == identity]
            assert (identity in ids) == ((rates == 0).any() and (rates != 0).any())
        assert not set(ids) & {40, 45, 50, 55}
        assert len(s.paired_rows([4])[0]) < len(ids)

    def test_no_pair_gives_empty_lists(self):
        assert self.set.partition(self.set.rate_array == 0).paired_rows() == ([], [], [])
        assert EmbeddingSet(np.empty((0, 3)), [], [], []).paired_rows([2]) == ([], [], [])

    @pytest.mark.parametrize("rates, message", [
        ([0], "LR rate must be >= 2 and <= 255, got 0"),
        ([2, 256], "LR rate must be >= 2 and <= 255, got 256"),
        ([3, 3], "LR rates must be distinct, got [3, 3]"),
    ])
    def test_bad_rates_rejected(self, rates, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.set.paired_rows(rates)

    def test_bad_rates_rejected_after_a_kept_pairing(self):
        kept = self.set.paired_rows([2])
        with pytest.raises(ValueError, match=re.escape("LR rates must be distinct, got [2, 2]")):
            self.set.paired_rows([2, 2])
        assert self.set.paired_rows((2,)) == kept

    @pytest.mark.parametrize("rates", [None, [3], [4, 2]])
    def test_kept_pairing_is_built_once(self, rates, monkeypatch):
        first = self.set.paired_rows(rates)

        def rows_by_identity(*args):
            raise AssertionError("a kept pairing was built again")

        monkeypatch.setattr(self.set, "rows_by_identity", rows_by_identity)
        again = self.set.paired_rows(rates)
        assert again[0] == first[0]
        assert list(map(id, again[1] + again[2])) == list(map(id, first[1] + first[2]))

    def test_row_arrays_are_read_only(self):
        ids, hr_rows, lr_rows = self.set.paired_rows()
        for rows in hr_rows + lr_rows:
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0

    def test_a_caller_cannot_change_the_next_callers_pairing(self):
        ids, hr_rows, lr_rows = self.set.paired_rows([3])
        want = ids.copy(), list(map(id, hr_rows)), list(map(id, lr_rows))
        for side in (ids, hr_rows, lr_rows):
            side.append(side[0])
            side.reverse()
        ids, hr_rows, lr_rows = self.set.paired_rows([3])
        assert (ids, list(map(id, hr_rows)), list(map(id, lr_rows))) == want  # the kept arrays


def columns(num=12, dim=5, seed=6):
    """Raw columns of a small set: vectors, identities, cameras, rates."""
    rng = np.random.default_rng(seed)
    rates = [(0, 2, 3, 255)[i % 4] for i in range(num)]
    return rng.standard_normal((num, dim)), [i // 3 for i in range(num)], [i % 2 for i in range(num)], rates


class TestColumnarStorage:
    def test_list_built_set_equals_array_built_twin(self):
        matrix, ids, cams, rates = columns()
        from_lists = EmbeddingSet(matrix.tolist(), ids, cams, rates)
        twin = EmbeddingSet(matrix, np.array(ids, np.uint16), np.array(cams, np.int32),
                            np.array(rates, np.int64))
        assert_columns_equal(from_lists, twin)
        assert twin.rate_array.dtype == np.uint8 and twin.matrix.dtype == np.float64
        assert twin.identity_array.dtype == twin.camera_array.dtype == np.int64

    def test_records_view_round_trips_and_shares_matrix(self):
        s = EmbeddingSet(*columns())
        assert s.records is s.records  # built once
        rebuilt = EmbeddingSet([r.vector for r in s.records], [r.identity for r in s.records],
                               [r.camera for r in s.records],
                               [r.resolution.rate for r in s.records])
        assert_columns_equal(rebuilt, s)
        for i, rec in enumerate(s.records):
            assert np.shares_memory(rec.vector, s.matrix)
            assert rec.vector.tobytes() == s.matrix[i].tobytes()
            assert (rec.identity, rec.camera, rec.resolution.rate) == (
                s.identity_array[i], s.camera_array[i], s.rate_array[i])
            assert type(rec.identity) is int and type(rec.camera) is int

    def test_mask_partition_equals_the_record_filter(self):
        s = make_set(num=30, dim=3, seed=12)
        for mask, pred in (
            (s.camera_array == 1, lambda r: r.camera == 1),
            (s.rate_array != 0, lambda r: r.resolution.is_lr),
            (np.zeros(len(s), dtype=bool), lambda r: False),
        ):
            kept = [r for r in s.records if pred(r)]
            filtered = EmbeddingSet(np.array([r.vector for r in kept]).reshape(-1, s.dim),
                                    [r.identity for r in kept], [r.camera for r in kept],
                                    [r.resolution.rate for r in kept])
            assert_columns_equal(s.partition(mask), filtered)

    @pytest.mark.parametrize("mask", [[0, 1, 2], np.ones(5, dtype=bool), np.ones((6, 1), dtype=bool),
                                      lambda r: True])
    def test_partition_rejects_a_mask_that_is_not_one_bool_per_record(self, mask):
        with pytest.raises(ValueError, match="mask"):
            make_set(num=6).partition(mask)

    def test_every_array_is_read_only(self):
        matrix, ids, cams, rates = columns()
        given = np.array(matrix), np.array(ids), np.array(cams), np.array(rates)
        for s in (make_set(), EmbeddingSet(*given), EmbeddingSet(*columns())):
            for name in ("matrix", "identity_array", "camera_array", "rate_array"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(s, name)[0] = 0
            with pytest.raises(ValueError, match="read-only"):
                s.records[0].vector[0] = 0.0

    def test_constructor_copies_views_and_keeps_owned_arrays(self):
        matrix, ids, cams, rates = (np.array(c) for c in columns())
        base = np.vstack([matrix, matrix])
        s = EmbeddingSet(base[:12], ids, cams, rates)
        base[0] = 7.0  # a write through the base of a view leaves the set as it was
        assert not np.shares_memory(s.matrix, base) and s.matrix[0].tolist() == matrix[0].tolist()
        assert base.flags.writeable
        owned = EmbeddingSet(matrix, ids, cams, rates)
        assert owned.matrix is matrix and owned.identity_array is ids
        assert not matrix.flags.writeable

    @pytest.mark.parametrize("column, value, message", [
        (0, np.inf, "non-finite value in record 4"),
        (0, -np.inf, "non-finite value in record 4"),
        (0, np.nan, "non-finite value in record 4"),
        (1, -1, "record 4: identity and camera IDs must be non-negative"),
        (2, -2, "record 4: identity and camera IDs must be non-negative"),
        (3, 1, "record 4: LR rate must be >= 2"),
        (3, 256, "record 4: LR rate must be >= 2 and <= 255, got 256"),
    ])
    def test_constructor_reports_the_first_bad_record(self, column, value, message):
        cols = [np.array(c) for c in columns()]
        cols[column][4] = value
        cols[column][7] = value
        with pytest.raises(ValueError, match=message):
            EmbeddingSet(*cols)

    @pytest.mark.parametrize("column, value, got", [
        (1, 1.7, "got 1.7, 0 and 0"),
        (1, np.nan, "got nan, 0 and 0"),
        (1, np.inf, "got inf, 0 and 0"),
        (2, 0.5, "got 1, 0.5 and 0"),
        (3, 2.9, "got 1, 0 and 2.9"),
        (3, np.nan, "got 1, 0 and nan"),
    ])
    def test_constructor_refuses_labels_that_are_not_integers(self, column, value, got, recwarn):
        cols = [np.array(c) for c in columns()]
        cols[column] = cols[column].astype(float)
        cols[column][4] = value
        cols[column][7] = value
        with pytest.raises(ValueError, match=f"^record 4: identity, camera and rate must be "
                                             f"integers, {got}$"):
            EmbeddingSet(*cols)
        assert not recwarn.list  # no cast of a NaN or an infinity

    @pytest.mark.parametrize("label", [np.array([1.5, 3], dtype=object), [1.5, 2**64]],
                             ids=["object array", "list with 2**64"])
    @pytest.mark.parametrize("column", [1, 2, 3])
    def test_constructor_refuses_object_labels_that_are_not_integers(self, column, label, recwarn):
        cols = [np.ones((2, 2)), [0, 0], [0, 0], [0, 0]]
        cols[column] = label
        got = ["0", "0", "0"]
        got[column - 1] = "1.5"
        with pytest.raises(ValueError, match=f"^record 0: identity, camera and rate must be "
                                             f"integers, got {got[0]}, {got[1]} and {got[2]}$"):
            EmbeddingSet(*cols)
        assert not recwarn.list

    @pytest.mark.parametrize("label", [np.nan, np.inf, None, "3"], ids=str)
    def test_object_labels_that_are_not_numbers_are_refused(self, label, recwarn):
        identity = np.array([0, label], dtype=object)
        message = "^record 1: identity, camera and rate must be integers"
        with pytest.raises(ValueError, match=message):
            EmbeddingSet(np.ones((2, 2)), identity, [0, 0], [0, 0])
        assert not recwarn.list

    def test_integer_object_labels_load(self):
        labels = [np.array(a, dtype=object) for a in ([1, 2.0, np.int64(3)], [0, 1, 2**63 - 1],
                                                      [0, 2, 255])]
        s = EmbeddingSet(np.ones((3, 2)), *labels)
        assert s.identity_array.tolist() == [1, 2, 3]
        assert s.camera_array.tolist() == [0, 1, 2**63 - 1]
        assert s.rate_array.tolist() == [0, 2, 255]

    @pytest.mark.parametrize("label", [[1e19], [2.0**63], [2**63], np.array([2**63], np.uint64),
                                       [2**70]], ids=["1e19", "2.0**63", "2**63", "uint64", "2**70"])
    @pytest.mark.parametrize("column", ["identity", "camera"])
    def test_constructor_refuses_labels_from_2_63_up(self, column, label, recwarn):
        labels = {"identity": [0], "camera": [0], column: label}
        with pytest.raises(ValueError, match=r"^record 0: identity and camera IDs must be "
                                             r"below 2\*\*63$"):
            EmbeddingSet(np.ones((1, 2)), labels["identity"], labels["camera"], [0])
        assert not recwarn.list  # no cast warning, no OverflowError

    @pytest.mark.parametrize("label", [[-1e19], [-2**70]], ids=["-1e19", "-2**70"])
    def test_huge_negative_labels_are_refused_as_negative(self, label, recwarn):
        with pytest.raises(ValueError, match="^record 0: identity and camera IDs must be "
                                             "non-negative$"):
            EmbeddingSet(np.ones((1, 2)), label, [0], [0])
        assert not recwarn.list

    def test_first_huge_label_is_reported(self):
        cols = [np.array(c) for c in columns()]
        cols[2] = cols[2].astype(np.uint64)
        cols[2][[4, 7]] = 2**64 - 1
        with pytest.raises(ValueError, match=r"^record 4: .* below 2\*\*63$"):
            EmbeddingSet(*cols)

    def test_largest_int64_label_loads(self):
        s = EmbeddingSet(np.ones((2, 2)), [2**63 - 1, 0], [0, 2**63 - 1], [0, 0])
        assert s.identity_array.tolist() == [2**63 - 1, 0]
        assert s.camera_array.tolist() == [0, 2**63 - 1]

    def test_integer_valued_float_labels_keep_their_values(self):
        matrix, ids, cams, rates = columns()
        twin = EmbeddingSet(matrix, *(np.array(c, dtype=float) for c in (ids, cams, rates)))
        assert_columns_equal(twin, EmbeddingSet(matrix, ids, cams, rates))

    def test_finiteness_check_builds_no_mask_of_the_matrix(self):
        matrix = np.random.default_rng(7).standard_normal((2000, 64))
        labels = np.zeros(2000, np.int64)
        tracemalloc.start()
        try:
            EmbeddingSet(matrix, labels, labels, np.zeros(2000, np.uint8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < matrix.size // 8  # an N x dim bool mask takes matrix.size bytes

    def test_constructor_rejects_mismatched_shapes(self):
        matrix, ids, cams, rates = columns(num=6)
        with pytest.raises(ValueError, match="length"):
            EmbeddingSet(matrix, ids[:5], cams, rates)
        with pytest.raises(ValueError, match="dim"):
            EmbeddingSet(matrix[:, :0], ids, cams, rates)
