import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmspace import io as io_module
from mmspace import (
    FiniteMetricMeasureSpace,
    InvalidArgumentError,
    PointCloud,
    dump_json,
    k_means_exact,
    read_cloud_csv,
    read_matrix,
    read_matrix_bin,
    read_matrix_csv,
    read_space,
    solution_to_dict,
    write_cloud_csv,
    write_matrix_bin,
    write_matrix_csv,
    write_space,
)

from helpers import random_space, reference_matrix_csv


def tiny_matrix():
    return np.array([[0.0, 1.25, 2.5], [1.25, 0.0, 0.75], [2.5, 0.75, 0.0]])


class TestMatrixBin:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        _, pts = random_space(rng, 12)
        m = np.abs(rng.normal(size=(12, 12)))
        m = (m + m.T) / 2.0
        path = tmp_path / "m.bin"
        write_matrix_bin(path, m)
        assert np.array_equal(read_matrix_bin(path), m)

    def test_header(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, tiny_matrix())
        raw = path.read_bytes()
        assert raw[:4] == b"MMSP"
        assert int.from_bytes(raw[4:12], "little") == 3
        assert len(raw) == 12 + 8 * 9

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(InvalidArgumentError):
            read_matrix_bin(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix_bin(path, tiny_matrix())
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(InvalidArgumentError):
            read_matrix_bin(path)

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            write_matrix_bin(tmp_path / "m.bin", np.zeros((2, 3)))

    def test_empty_rejected(self, tmp_path):
        # the writer accepts a 0 x 0 matrix; the reader names it, as the CSV reader does
        path = tmp_path / "m.bin"
        write_matrix_bin(path, np.zeros((0, 0)))
        with pytest.raises(InvalidArgumentError, match=r"m\.bin: empty matrix file$"):
            read_matrix_bin(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"MMSP\x03\x00")
        with pytest.raises(InvalidArgumentError, match=r"m\.bin: truncated matrix header$"):
            read_matrix_bin(path)


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        labels = ["a", "b", "c"]
        write_matrix_csv(path, labels, tiny_matrix())
        got_labels, got = read_matrix_csv(path)
        assert got_labels == labels
        assert np.array_equal(got, tiny_matrix())

    def test_repr_floats_survive(self, tmp_path):
        # 0.1 has no finite binary expansion; repr round-trips it bit for bit
        m = np.array([[0.0, 0.1], [0.1, 0.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["x", "y"], m)
        _, got = read_matrix_csv(path)
        assert got[0, 1] == 0.1

    def test_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        with pytest.raises(InvalidArgumentError):
            write_matrix_csv(path, ["a"], tiny_matrix())
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            read_matrix_csv(path)
        path.write_text("a,b\n0.0,1.0\n")
        with pytest.raises(InvalidArgumentError):
            read_matrix_csv(path)
        path.write_text("a,b\n0.0,1.0\nfoo,0.0\n")
        with pytest.raises(InvalidArgumentError):
            read_matrix_csv(path)

    def test_dispatch_on_extension(self, tmp_path):
        m = tiny_matrix()
        write_matrix_bin(tmp_path / "m.bin", m)
        labels, got = read_matrix(tmp_path / "m.bin")
        assert labels == ["0", "1", "2"]
        assert np.array_equal(got, m)
        write_matrix_csv(tmp_path / "m.csv", ["a", "b", "c"], m)
        labels, got = read_matrix(tmp_path / "m.csv")
        assert labels == ["a", "b", "c"]


NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.int64).view(np.float64)[0]


def special_matrices():
    """Matrices whose CSV bytes are frozen: every special float, symmetric or not."""
    sym = np.array([
        [0.0, -0.0, np.nan, np.inf, 1e-5],
        [-0.0, -np.inf, 1e16, 5e-324, 0.1],
        [np.nan, 1e16, 0.1, 2.5, -1e-300],
        [np.inf, 5e-324, 2.5, NAN_PAYLOAD, 123456789.125],
        [1e-5, 0.1, -1e-300, 123456789.125, -0.0],
    ])
    signed_zero = sym.copy()
    signed_zero[0, 1] = 0.0  # +0.0 above the diagonal, -0.0 below
    payload = sym.copy()
    payload[3, 3] = np.nan
    payload[0, 2] = NAN_PAYLOAD  # NaN payloads differ across the diagonal
    asym = np.random.default_rng(0).normal(size=(6, 6))
    return {
        "special_sym": sym,
        "signed_zero": signed_zero,
        "nan_payload": payload,
        "asym": asym,
        "sym_random": (asym + asym.T) / 2,
        "one": np.array([[0.1]]),
        "empty": np.zeros((0, 0)),
    }


# sha256 of the write_matrix_csv bytes, frozen from the csv.writer of every entry
CSV_SHA256 = {
    "special_sym": "d159edc885e35ccc14c6809890222a49495aa9b846b19ae68d0b7f3aeef8ee81",
    "signed_zero": "31173aac474a2146604dc87f509aa51522a1b7c16987cc73fdb4132acb667f33",
    "nan_payload": "d159edc885e35ccc14c6809890222a49495aa9b846b19ae68d0b7f3aeef8ee81",
    "asym": "572366d9439c52f75d0af5fe7078339428149b0c92ea476622a748f44061f979",
    "sym_random": "de161f4a0dcb89703eaa964d42c8f25b3af5ed63808a055f861386525c6c5271",
    "one": "0564bec84eb70fd666be0318070e5df65a5c64e6b5288234b850f955aeb471ae",
    "empty": "7eb70257593da06f682a3ddda54a9d260d4fc514f645237f5ca74b08f8da61a6",
}


class TestMatrixCsvFrozen:
    @pytest.mark.parametrize("name", sorted(CSV_SHA256))
    def test_bytes_are_frozen(self, tmp_path, name):
        m = special_matrices()[name]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"p{i}" for i in range(m.shape[0])], m)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CSV_SHA256[name]

    def test_special_floats_spelled_out(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, ["a", "b"], np.array([[-0.0, np.nan], [np.nan, 5e-324]]))
        assert path.read_bytes() == b"a,b\r\n-0.0,nan\r\nnan,5e-324\r\n"
        write_matrix_csv(path, ["a", "b"], np.array([[0.0, 0.0], [-0.0, np.inf]]))
        assert path.read_bytes() == b"a,b\r\n0.0,0.0\r\n-0.0,inf\r\n"

    @pytest.mark.parametrize("name", ["special_sym", "signed_zero", "asym", "sym_random", "one"])
    def test_read_back_bit_for_bit(self, tmp_path, name):
        m = special_matrices()[name]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"p{i}" for i in range(m.shape[0])], m)
        _, got = read_matrix_csv(path)
        # a NaN is written as nan, so it reads back as the default NaN
        want = np.where(np.isnan(m), np.nan, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_parses_what_float_parses(self, tmp_path):
        tokens = ["1_0", " 1.5", "Infinity", "-nan", "1e500", "-1e-500", "\u0967\u0968", "\xa01.0"]
        path = tmp_path / "m.csv"
        path.write_text(",".join("abcdefgh") + "\n" + ("\n".join([",".join(tokens)] * 8)) + "\n", encoding="utf-8")
        _, got = read_matrix_csv(path)
        want = np.array([[float(v) for v in tokens]] * 8)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        for bad in ["0x1p3", "1__0", "", "1e"]:
            path.write_text(f'a\n"{bad}"\n')
            with pytest.raises(InvalidArgumentError, match=re.escape(f"non-numeric matrix entry (could not convert string to float: {bad!r})")):
                read_matrix_csv(path)

    @pytest.mark.parametrize("text", ["a,b\n0.0,1.0\n1.0\n", "a,b\n0.0,1.0\n1.0,2.0,3.0\n", "a,b\n0.0\nfoo,0.0\n"])
    def test_ragged_rows_are_named(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=r"m\.csv: ragged matrix rows$"):
            read_matrix_csv(path)

    def test_header_without_labels_is_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [], np.zeros((0, 0)))
        with pytest.raises(InvalidArgumentError, match=r"m\.csv: empty matrix file$"):
            read_matrix_csv(path)


def bits_float(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# floats whose repr is a corner: signed zeros, NaNs with distinct payloads
# (and a negative one), infinities, subnormals, magnitudes near 1e+-300, and
# the 24-character reprs that fill an S24 entry
SPECIAL_FLOATS = [
    0.0, -0.0, np.nan, NAN_PAYLOAD, bits_float(0x7FF0000000000001), bits_float(0xFFF8000000000000),
    np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e300, -1e-300, 1.7976931348623157e308, -1.2345678901234567e-300, 0.1, 1.0,
]
ENTRIES = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
LABEL_TEXT = st.text(alphabet='ab,"\' é\n', max_size=4)


@st.composite
def labeled_matrices(draw):
    """(labels, matrix): asymmetric, bit-symmetric, or bit-symmetric but for one
    entry below the diagonal, which gets a drawn special float (a NaN payload
    or a zero's sign that differs from its mirror, say)."""
    n = draw(st.integers(0, 12))
    m = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)), dtype=np.float64).reshape(n, n)
    kind = draw(st.sampled_from(["asymmetric", "symmetric", "one_off"]))
    if kind != "asymmetric":
        lower = np.tril_indices(n, -1)
        m[lower] = m.T[lower]
    if kind == "one_off" and n > 1:
        i = draw(st.integers(1, n - 1))
        m[i, draw(st.integers(0, i - 1))] = draw(st.sampled_from(SPECIAL_FLOATS))
    return draw(st.lists(LABEL_TEXT, min_size=n, max_size=n)), m


def traced(call, *args):
    """(call(*args), the traced peak of its allocations in bytes)."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixCsvWriter:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(labeled_matrices())
    def test_bytes_are_the_reference_writers_and_read_back(self, tmp_path_factory, case):
        labels, m = case
        tmp = tmp_path_factory.mktemp("w")
        write_matrix_csv(tmp / "m.csv", labels, m)
        reference_matrix_csv(tmp / "want.csv", labels, m)
        assert (tmp / "m.csv").read_bytes() == (tmp / "want.csv").read_bytes()
        if len(labels) == 0:
            return
        got_labels, got = read_matrix(tmp / "m.csv")
        assert got_labels == labels
        # a NaN is written as nan, so it reads back as the default NaN
        want = np.where(np.isnan(m), np.nan, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "asymmetric"])
    def test_peak_is_a_few_matrices(self, tmp_path, symmetric):
        # a byte table of S24 entries is 3 matrices; no Python object per entry
        n = 600
        m = np.random.default_rng(5).uniform(size=(n, n))
        if symmetric:
            m = np.minimum(m, m.T)
        _, peak = traced(write_matrix_csv, tmp_path / "m.csv", [f"p{i}" for i in range(n)], m)
        _, got = read_matrix_csv(tmp_path / "m.csv")
        assert np.array_equal(got, m)
        assert peak <= 4 * m.nbytes


def read_outcome(path):
    """(labels, shape, bytes) of a read, or (error type, message)."""
    try:
        labels, m = read_matrix_csv(path)
        return labels, m.shape, m.tobytes()
    except InvalidArgumentError as exc:
        return type(exc), str(exc)


def csv_reader_outcome(path, monkeypatch):
    """The outcome when every file takes the csv.reader path."""
    with monkeypatch.context() as mp:
        mp.setattr(io_module, "_crlf_line_count", lambda path, starts=None: None)
        return read_outcome(path)


# (bytes, whether numpy's reader gives the result); every result must be the
# csv.reader path's, bit for bit or message for message
READER_CASES = {
    "quoted_fields": (b'"a,1",b\r\n"1.0",2\r\n3,"4"\r\n', False),
    "quoted_number": (b'a,b\r\n"1.0",2\r\n3,4\r\n', False),
    "underscore": (b"a,b\r\n1_0,2\r\n3,4\r\n", False),
    "non_ascii_digits": ("a,b\r\n१२,2\r\n3,١\r\n".encode(), False),
    "blank_line_extra": (b"a,b\r\n1,2\r\n\r\n3,4\r\n", False),
    "blank_line_counted": (b"a,b\r\n\r\n1,2\r\n", False),
    "lf_only": (b"a,b\n0.5,1\n1,0.5\n", False),
    "no_final_newline": (b"a,b\r\n0.5,1\r\n1,0.5", False),
    "lone_cr": (b"a,b\r\n0.5,1\r1,0.5\r\n", False),
    "ragged_short": (b"a,b\r\n1\r\n3,4\r\n", False),
    "ragged_long": (b"a,b\r\n1,2,3\r\n3,4\r\n", False),
    "extra_row": (b"a,b\r\n0,1\r\n1,0\r\n2,2\r\n", False),
    "rows_too_wide": (b"a,b\r\n1,2,3\r\n4,5,6\r\n", False),
    "rows_too_narrow": (b"a,b\r\n1\r\n2\r\n", False),
    "one_label_wide_row": (b"a\r\n1,2\r\n", False),
    "empty_field": (b"a,b\r\n1,\r\n3,4\r\n", False),
    "file_separator": (b"a,b\r\n\x1c1,2\r\n3,4\r\n", False),
    "header_only": (b"a\r\n", False),
    "empty_header": (b"\r\n1\r\n", False),
    "space_padded": (b"a,b\r\n 1.5 , 2\t\r\n3,\xc2\xa04 \r\n", True),
    "nan_inf": (b"a,b,c\r\nnan,-inf,+inf\r\n-nan,Infinity,1e500\r\nNaN,-1e-500,5e-324\r\n", True),
    "one_point": (b"a\r\n0.5\r\n", True),
    "labels_with_spaces": (" a , bé \r\n0,1\r\n1,0\r\n".encode(), True),
}


class TestMatrixCsvReaders:
    @pytest.mark.parametrize("name", sorted(READER_CASES))
    def test_same_outcome_as_csv_reader(self, tmp_path, monkeypatch, name):
        raw, numpy_reads = READER_CASES[name]
        path = tmp_path / "m.csv"
        path.write_bytes(raw)
        want = csv_reader_outcome(path, monkeypatch)
        if numpy_reads:
            # the csv.reader path parses through _parse_floats, so it is not taken
            monkeypatch.setattr(io_module, "_parse_floats", None)
        assert read_outcome(path) == want

    def test_blank_line_is_a_missing_row(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(READER_CASES["blank_line_extra"][0])
        with pytest.raises(InvalidArgumentError, match=r"expected 2 data rows, found 3$"):
            read_matrix_csv(path)

    def test_written_files_take_numpy_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "m.csv"
        monkeypatch.setattr(io_module, "_parse_floats", None)
        for name in ("special_sym", "signed_zero", "asym", "sym_random", "one"):
            m = special_matrices()[name]
            write_matrix_csv(path, [f"p{i}" for i in range(m.shape[0])], m)
            _, got = read_matrix_csv(path)
            want = np.where(np.isnan(m), np.nan, m)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("scan", [1, 2, 3, 7])
    def test_scan_chunks_cut_anywhere(self, tmp_path, monkeypatch, scan):
        path = tmp_path / "m.csv"
        counts = {}
        for name, (raw, numpy_reads) in READER_CASES.items():
            path.write_bytes(raw)
            counts[name] = io_module._crlf_line_count(path)
            if numpy_reads:
                assert counts[name] == raw.count(b"\n")
        assert counts["blank_line_counted"] is counts["lone_cr"] is counts["quoted_number"] is None
        monkeypatch.setattr(io_module, "_SCAN_BYTES", scan)
        for name, (raw, _) in READER_CASES.items():
            path.write_bytes(raw)
            assert io_module._crlf_line_count(path) == counts[name]

    def test_read_holds_about_one_matrix(self, tmp_path):
        n = 300
        m = np.random.default_rng(3).uniform(size=(n, n))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, [f"p{i}" for i in range(n)], m)
        tracemalloc.start()
        try:
            _, got = read_matrix_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, m)
        assert peak < 3 * 8 * n * n


# (id, file text, the message its read gives); the csv.reader path reads every
# row before any message, so an earlier row's fault does not hide a later one
# of higher rank: empty file, row count, ragged rows, then non-numeric entries
EIGHT = ",".join(["0.5"] * 8)
FALLBACK_MESSAGES = [
    ("empty", "", "empty matrix file"),
    ("too_few_rows", "a,b\n0,1\n", "expected 2 data rows, found 1"),
    ("too_many_rows", "a,b\n0,1\n1,0\n2,2\n", "expected 2 data rows, found 3"),
    ("ragged", "a,b\n0,1\n1\n", "ragged matrix rows"),
    ("non_numeric", "a,b\n0,foo\n1,0\n", "non-numeric matrix entry (could not convert string to float: 'foo')"),
    ("first_non_numeric", "a,b\n0,1e\nbar,0\n", "non-numeric matrix entry (could not convert string to float: '1e')"),
    ("non_numeric_then_ragged",
     "\n".join(["a,b,c,d,e,f,g,h", EIGHT, "0.5,x" + ",0.5" * 6, *[EIGHT] * 4, "0.5,0.5", EIGHT]) + "\n",
     "ragged matrix rows"),
    ("ragged_and_short", "a,b\n1\n", "expected 2 data rows, found 1"),
    ("empty_header", "\n1\n", "expected 0 data rows, found 1"),
    ("blank_header_only", "\n", "empty matrix file"),
    ("many_labels_few_rows", ",".join(["a"] * 20_000) + "\n0\n", "expected 20000 data rows, found 1"),
]


class TestMatrixCsvFallback:
    @pytest.mark.parametrize("text, message", [c[1:] for c in FALLBACK_MESSAGES], ids=[c[0] for c in FALLBACK_MESSAGES])
    def test_messages(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            read_matrix_csv(path)

    def test_lf_copy_reads_the_same_bits_holding_one_row(self, tmp_path, monkeypatch):
        n = 300
        m = np.random.default_rng(4).uniform(size=(n, n))
        m = np.minimum(m, m.T)
        m[0, 1] = m[1, 0] = -0.0
        crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
        write_matrix_csv(crlf, [f"p{i}" for i in range(n)], m)
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        _, want = read_matrix_csv(crlf)
        calls = []
        read_rows = io_module._read_rows
        monkeypatch.setattr(io_module, "_read_rows", lambda path: calls.append(path) or read_rows(path))
        (labels, got), peak = traced(read_matrix_csv, lf)
        assert calls == [lf]
        assert labels == [f"p{i}" for i in range(n)]
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert peak <= 2 * m.nbytes


class TestSpaceJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        space, _ = random_space(rng, 7)
        path = tmp_path / "space.json"
        write_space(path, space)
        assert (tmp_path / "space.dist.bin").exists()
        back = read_space(path)
        assert back.labels == space.labels
        assert np.array_equal(back.dist, space.dist)
        assert np.allclose(back.weights, space.weights, atol=1e-15)

    def test_csv_dist_ref(self, tmp_path):
        rng = np.random.default_rng(2)
        space, _ = random_space(rng, 5)
        path = tmp_path / "space.json"
        write_space(path, space, dist_ref="d.csv")
        assert (tmp_path / "d.csv").exists()
        back = read_space(path)
        assert np.array_equal(back.dist, space.dist)

    def test_relative_resolution(self, tmp_path):
        rng = np.random.default_rng(3)
        space, _ = random_space(rng, 4)
        sub = tmp_path / "nested"
        sub.mkdir()
        write_space(sub / "s.json", space)
        # reading through a different cwd still finds the matrix
        back = read_space(sub / "s.json")
        assert back.n == 4

    def test_missing_pieces(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("not json")
        with pytest.raises(InvalidArgumentError):
            read_space(path)
        path.write_text(json.dumps({"labels": [], "weights": []}))
        with pytest.raises(InvalidArgumentError):
            read_space(path)
        path.write_text(
            json.dumps({"labels": ["a"], "weights": [1.0], "dist_ref": "gone.bin"})
        )
        with pytest.raises(InvalidArgumentError):
            read_space(path)


class TestCloudCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.normal(size=(9, 3)), 2)
        path = tmp_path / "cloud.csv"
        write_cloud_csv(path, cloud)
        back = read_cloud_csv(path, intrinsic_dim=2)
        assert np.array_equal(back.points, cloud.points)
        assert back.intrinsic_dim == 2

    def test_errors(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("")
        with pytest.raises(InvalidArgumentError):
            read_cloud_csv(path)
        path.write_text("1.0,foo\n")
        with pytest.raises(InvalidArgumentError):
            read_cloud_csv(path)

    @pytest.mark.parametrize("text", ["1.0,2.0\n3.0\n", "1.0\n2.0,3.0\n", "1.0,2.0\n\n3.0,4.0,foo\n"])
    def test_ragged_rows_are_named(self, tmp_path, text):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        with pytest.raises(InvalidArgumentError, match=r"cloud\.csv: ragged cloud rows$"):
            read_cloud_csv(path)


class TestSolutionDict:
    def test_fields(self):
        space = FiniteMetricMeasureSpace(
            ["a", "b", "c"],
            np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]]),
            np.array([0.25, 0.5, 0.25]),
        )
        sol = k_means_exact(space, 1, 2.0)
        doc = solution_to_dict(sol, labels=space.labels)
        assert doc["method"] == "exact"
        assert doc["minimizers"] == [[1]]
        assert doc["minimizer_labels"] == [["b"]]
        assert doc["objective"] == pytest.approx(sol.objective)
        plain = solution_to_dict(sol)
        assert "minimizer_labels" not in plain

    def test_dump_json_stable(self, tmp_path):
        doc = {"b": 1, "a": [1.5, 2.5]}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(p1, doc)
        dump_json(p2, {"a": [1.5, 2.5], "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text().endswith("\n")
