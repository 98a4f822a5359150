"""Serialization: distance matrices, spaces, point clouds, and solutions.

Matrices travel either as CSV with a header row of labels or as a compact
binary format: magic bytes "MMSP", little-endian u64 point count, then the
row-major float64 entries.  Spaces are JSON {labels, weights, dist_ref} with
dist_ref naming the matrix file, resolved relative to the JSON's directory.
All floats are written with repr, which round-trips exactly and keeps output
byte-stable.

Matrix CSV holds no Python object per entry.  write_matrix_csv keeps one
fixed-width byte string per upper-triangle entry of a symmetric matrix and
nothing else per entry; read_matrix_csv parses a file in the writer's layout,
with CRLF or bare LF line ends, with numpy's C reader, and any other file
through csv.reader, which holds one row of strings at a time.
"""
from __future__ import annotations

import csv
import json
import mmap
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ._fork import fork_join
from .cloud import PointCloud
from .errors import InvalidArgumentError
from .space import FiniteMetricMeasureSpace, KMeansSolution, _as_square

MAGIC = b"MMSP"
# read_matrix_csv scans a file for its layout in chunks of this many bytes
_SCAN_BYTES = 1 << 20
_FALLBACK_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# read_matrix_csv parses a file of at least this many bytes in forked row
# ranges (see _loadtxt_rows).  On a 2-vCPU x86 host, where a fork and join
# costs about 10 ms, two workers broke even near 2 MB (n = 330): 57 against
# 64 ms at n = 350, 100 against 125 ms at n = 500
_FORK_READ_BYTES = 2 << 20


@contextmanager
def _decoding(path):
    """Reports text in path that does not decode as InvalidArgumentError naming path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not {exc.encoding} text ({exc.reason})") from None


def _binary(path) -> bool:
    """Whether a matrix file is in the binary format: its name has the suffix .bin."""
    return Path(path).suffix == ".bin"


def _space_json(path) -> bool:
    """Whether a file is a space JSON (see read_space), not a matrix: its name has the suffix .json."""
    return Path(path).suffix == ".json"


def _write_matrix(path, labels, matrix: np.ndarray) -> None:
    """Write a matrix in the format read_matrix reads back from path."""
    if _binary(path):
        write_matrix_bin(path, matrix)
    else:
        write_matrix_csv(path, labels, matrix)


def write_matrix_bin(path, matrix: np.ndarray) -> None:
    """Write matrix in the binary format; a C-order little-endian float64
    matrix is written from its own buffer, with no copy.  The matrix is read
    by the square-matrix rule (space._as_square), so read_matrix_bin reads
    back every file this writes."""
    m = np.ascontiguousarray(_as_square(matrix, "matrix"), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", m.shape[0]))
        fh.write(memoryview(m))


def read_matrix_bin(path) -> np.ndarray:
    """The matrix of a binary file, read straight into the returned array.

    The file's size is checked against the header's n before anything is
    allocated, so a short file whose header claims a huge n is named as
    truncated rather than ending in MemoryError.  Bytes past the matrix
    are ignored.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise InvalidArgumentError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise InvalidArgumentError(f"{path}: truncated matrix header")
        (n,) = struct.unpack("<Q", header)
        if n == 0:
            raise InvalidArgumentError(f"{path}: empty matrix file")
        if os.fstat(fh.fileno()).st_size < 12 + 8 * n * n:
            raise InvalidArgumentError(f"{path}: truncated matrix payload")
        m = np.empty((n, n), dtype="<f8")
        # the file may have shrunk since the size check
        if fh.readinto(m) != m.nbytes:
            raise InvalidArgumentError(f"{path}: truncated matrix payload")
    return m.astype(np.float64, copy=False)


def write_matrix_csv(path, labels, matrix: np.ndarray) -> None:
    """Write labels and matrix as CSV: one header row, then one row of reprs per matrix row.

    No Python object outlives its row.  A bit-symmetric matrix (signed zeros
    and NaN payloads included) has each row's tail m[i, i:] formatted once
    into a fixed-width byte table, and its head, the entries (j, i) for
    j < i, read back from that table; repr of a float is ASCII and at most
    24 characters, as in -2.2250738585072014e-308, so an S24 entry holds it.
    Any other matrix is formatted row by row.  The matrix is read by the
    square-matrix rule (space._as_square), so no 0 x 0 file is written.
    """
    m = _as_square(matrix, "matrix")
    if len(labels) != m.shape[0]:
        raise InvalidArgumentError("label count must match matrix size")
    bits = m.view(np.int64)
    table = np.empty(m.shape, dtype="S24") if np.array_equal(bits, bits.T) else None
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([str(lab) for lab in labels])
        # repr never yields a character csv would quote
        for i, row in enumerate(m):
            if table is None:
                line = ",".join(map(repr, row.tolist()))
            else:
                tail = ",".join(map(repr, row[i:].tolist())).encode()
                table[i, i:] = tail.split(b",")
                line = b",".join([*table[:i, i].tolist(), tail]).decode()
            fh.write(line + "\r\n")


def _crlf_line_count(path, starts: list | None = None) -> int | None:
    """The line count of a file laid out as write_matrix_csv writes it, or as
    its copy with bare LF line ends, else None.

    That layout: every line nonempty and ended by CRLF, no other CR or LF,
    no quote, and none of the separators U+001C..U+001F, which numpy strips
    as whitespace around a number and float() does not.  The LF copy has
    every CRLF replaced by LF and no CR anywhere.  The file is scanned in
    chunks by memchr-based finds: no LF may be followed by a CR or an LF (a
    blank line), either every LF or none so far follows a CR (crlfs), and
    there must be as many CRs as CRLFs, so every CR comes right before an
    LF.  last is the byte before the chunk, a virtual LF before the file.  A
    starts list gets the byte offset of the line after each LF appended.
    """
    lines = crs = crlfs = pos = 0
    last = b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_SCAN_BYTES):
            if any(c in chunk for c in _FALLBACK_BYTES):
                return None
            if last == b"\n" and chunk[:1] in (b"\r", b"\n"):
                return None
            at = chunk.find(b"\n")
            while at >= 0:
                if chunk[at + 1:at + 2] in (b"\r", b"\n"):
                    return None
                crlfs += (chunk[at - 1:at] if at else last) == b"\r"
                lines += 1
                if crlfs not in (0, lines):
                    return None
                if starts is not None:
                    starts.append(pos + at + 1)
                at = chunk.find(b"\n", at + 1)
            at = chunk.find(b"\r")
            while at >= 0:
                crs += 1
                at = chunk.find(b"\r", at + 1)
            last = chunk[-1:]
            pos += len(chunk)
    return lines if crs == crlfs and last == b"\n" else None


def read_matrix_csv(path):
    """Returns (labels, matrix).

    A file in write_matrix_csv's layout (see _crlf_line_count) with n labels,
    n + 1 lines and room for n rows of n fields (see _may_hold) has its rows
    parsed by numpy's C reader, streamed from the file.  It and float() both
    parse through PyOS_string_to_double, so they give the same bits wherever
    both accept a field; on the fields loadtxt rejects and float() accepts
    (underscores, non-ASCII digits), and on any other file, the rows go
    through _read_rows, which gives every message.

    A file of at least _FORK_READ_BYTES bytes is read in equal row ranges
    by _fork.fork_join, at most MM_THREADS workers on Linux: each seeks to
    its first line, which the layout scan recorded, and parses its rows into
    one shared anonymous mmap.  A field is parsed alone, so the bits are the
    serial read's; any share that fails sends the whole file down the
    csv.reader path.
    """
    starts = []
    lines = _crlf_line_count(path, starts)
    if lines:
        with _decoding(path), open(path, newline="") as fh:
            labels = next(csv.reader([fh.readline()]))
        n = len(labels)
        if n and lines == n + 1 and _may_hold(path, n):
            m = _loadtxt_rows(path, starts, n)
            if m is not None:
                return labels, m
    return _read_rows(path)


def _may_hold(path, n: int) -> bool:
    """Whether the file at path is large enough to hold n rows of n fields,
    which take at least n * (n - 1) commas.  Neither reader allocates an
    n x n matrix for a file that is not."""
    return os.path.getsize(path) >= n * (n - 1)


def _read_rows(path):
    """read_matrix_csv through csv.reader, one row at a time into the matrix.

    Every row is read before any message, so the messages keep their order:
    an empty file, the row count, ragged rows, then the first non-numeric
    entry.  A file too small to hold n rows of n fields (see _may_hold)
    fails on its rows, and no matrix is allocated for it (a header of many
    labels over a few rows allocates nothing).
    """
    with _decoding(path), open(path, newline="") as fh:
        rows = csv.reader(fh)
        labels = next(rows, None)
        if labels is None:
            raise InvalidArgumentError(f"{path}: empty matrix file")
        n = len(labels)
        m = np.empty((n, n)) if _may_hold(path, n) else None
        found, ragged, bad = 0, False, None
        for i, row in enumerate(rows):
            found += 1
            if i >= n or ragged:
                continue
            if len(row) != n:
                ragged = True
            elif bad is None and m is not None:
                try:
                    m[i] = _parse_floats(row, f"{path}: non-numeric matrix entry")
                except InvalidArgumentError as exc:
                    bad = exc
    if found != n:
        raise InvalidArgumentError(f"{path}: expected {n} data rows, found {found}")
    if n == 0:
        raise InvalidArgumentError(f"{path}: empty matrix file")
    if ragged:
        raise InvalidArgumentError(f"{path}: ragged matrix rows")
    if bad is not None:
        raise bad
    return labels, m


def _loadtxt_rows(path, starts: list, n: int):
    """The n x n matrix numpy's reader parses from the lines at starts[:n], else None."""
    big = starts[n] >= _FORK_READ_BYTES
    # shared with the forked workers, which write their rows into it
    out = np.frombuffer(mmap.mmap(-1, 8 * n * n), dtype=np.float64).reshape(n, n) if big else None

    def share(j, workers):
        r0, r1 = j * n // workers, (j + 1) * n // workers
        with open(path, newline="") as fh:
            fh.seek(starts[r0])
            try:
                m = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2, max_rows=r1 - r0)
            except ValueError:
                return None
        if m.shape != (r1 - r0, n):
            return None
        if workers == 1:
            return m
        out[r0:r1] = m
        return True

    parts = fork_join(share, n, big)
    if any(part is None for part in parts):
        return None
    return parts[0] if len(parts) == 1 else out


def _parse_floats(rows, context: str) -> np.ndarray:
    """Strings, or equal-length rows of them, as a float64 array; numpy parses
    each string as float() does, so the bits and the accepted spellings agree."""
    try:
        return np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise InvalidArgumentError(f"{context} ({exc})")


def read_matrix(path):
    """Dispatch on the name (see _binary): binary with index labels, else CSV."""
    if _binary(path):
        m = read_matrix_bin(path)
        return [str(i) for i in range(m.shape[0])], m
    return read_matrix_csv(path)


def write_space(path, space: FiniteMetricMeasureSpace, dist_ref: str | None = None) -> None:
    """Write a space as JSON next to its matrix file.

    dist_ref defaults to '<json stem>.dist.bin'; the matrix is written there.
    """
    path = Path(path)
    if dist_ref is None:
        dist_ref = path.stem + ".dist.bin"
    _write_matrix(path.parent / dist_ref, space.labels, space.dist)
    doc = {
        "labels": [str(lab) for lab in space.labels],
        "weights": [float(w) for w in space.weights],
        "dist_ref": dist_ref,
    }
    dump_json(path, doc)


def read_space(path) -> FiniteMetricMeasureSpace:
    path = Path(path)
    try:
        with _decoding(path), open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path}: not valid JSON ({exc})")
    if not isinstance(doc, dict):
        raise InvalidArgumentError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key in ("labels", "weights", "dist_ref"):
        if key not in doc:
            raise InvalidArgumentError(f"{path}: missing key {key!r}")
    for key, kind in (("labels", list), ("dist_ref", str)):
        if not isinstance(doc[key], kind):
            raise InvalidArgumentError(f"{path}: {key} must be a JSON {'array' if kind is list else 'string'}")
    ref = path.parent / doc["dist_ref"]
    if not ref.exists():
        raise InvalidArgumentError(f"{path}: dist_ref {doc['dist_ref']!r} not found")
    _, matrix = read_matrix(ref)
    return FiniteMetricMeasureSpace(doc["labels"], matrix, doc["weights"])


def write_cloud_csv(path, cloud: PointCloud) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in cloud.points:
            writer.writerow([repr(float(v)) for v in row])


def read_cloud_csv(path, intrinsic_dim: int = 0) -> PointCloud:
    with _decoding(path), open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise InvalidArgumentError(f"{path}: empty cloud file")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InvalidArgumentError(f"{path}: ragged cloud rows")
    return PointCloud(_parse_floats(rows, f"{path}: non-numeric entry"), intrinsic_dim)


def solution_to_dict(solution: KMeansSolution, labels=None) -> dict:
    doc = {
        "objective": solution.objective,
        "method": solution.method,
        "tie_tolerance": solution.tie_tolerance,
        "minimizers": [list(m.indices) for m in solution.minimizers],
    }
    if labels is not None:
        doc["minimizer_labels"] = [
            [str(labels[i]) for i in m.indices] for m in solution.minimizers
        ]
    return doc


def dump_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
