"""On-disk formats: DMAT1 matrices, SKCH1 sketches, CSV matrices.

DMAT1: magic b"DMAT1\\0", rows and cols as little-endian uint64, then
rows*cols float64 values row-major.

SKCH1: magic b"SKCH1\\0", total rows m, columns n and block count B as
little-endian uint64, then per block: block rows as uint64, row_of as
n uint64, value_of as n float64, trainable_mask as n uint8. Round-trips
are bit-exact.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .linalg import as_matrix, require_finite
from .sketch import SketchBlock, SparseSketch

DMAT_MAGIC = b"DMAT1\x00"
SKCH_MAGIC = b"SKCH1\x00"


@contextlib.contextmanager
def atomic_open(path: str | os.PathLike, mode: str = "w", **kwargs):
    """open(path, mode) for writing, through a new file next to path that
    os.replace moves over path on success and that is removed on error."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_dmat(path: str | os.PathLike, a) -> None:
    a = as_matrix(a)
    require_finite(a, "matrix")
    with atomic_open(path, "wb") as fh:
        fh.write(DMAT_MAGIC)
        fh.write(np.asarray(a.shape, dtype="<u8").tobytes())
        fh.write(a.astype("<f8", copy=False).tobytes())


def _read(fh, count: int, dtype: str, path, what: str) -> np.ndarray:
    """Read `count` values, or raise if the file ends first."""
    size = count * np.dtype(dtype).itemsize
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ValueError(f"{path}: truncated {what}")
    return np.frombuffer(fh.read(size), dtype=dtype)


def _dmat_header(fh, path) -> tuple[int, int]:
    """(rows, cols) from the head of an open DMAT1 file."""
    if fh.read(len(DMAT_MAGIC)) != DMAT_MAGIC:
        raise ValueError(f"{path}: not a DMAT1 file")
    rows, cols = (int(x) for x in _read(fh, 2, "<u8", path, "DMAT1 header"))
    return rows, cols


def load_dmat(path: str | os.PathLike) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols = _dmat_header(fh, path)
        data = _read(fh, rows * cols, "<f8", path, "DMAT1 payload")
    a = data.reshape(rows, cols).astype(np.float64)
    return require_finite(a, f"{path}")


def load_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    """One matrix row per line, comma-separated decimal values."""
    rows = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: empty CSV matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{path}: ragged CSV rows")
    return require_finite(np.array(rows, dtype=np.float64), f"{path}")


def save_matrix_csv(path: str | os.PathLike, a) -> None:
    a = as_matrix(a)
    with atomic_open(path, "w", encoding="ascii") as fh:
        for row in a:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Dispatch on extension: .csv -> CSV loader, otherwise DMAT1."""
    if str(path).endswith(".csv"):
        return load_matrix_csv(path)
    return load_dmat(path)


def matrix_shape(path: str | os.PathLike) -> tuple[int, int]:
    """The shape of the matrix in a file, as load_matrix would read it: from a
    DMAT1 file's header alone, from a CSV file by loading it."""
    if str(path).endswith(".csv"):
        return load_matrix_csv(path).shape
    with open(path, "rb") as fh:
        return _dmat_header(fh, path)


def save_sketch(path: str | os.PathLike, s: SparseSketch) -> None:
    with atomic_open(path, "wb") as fh:
        fh.write(SKCH_MAGIC)
        fh.write(np.asarray([s.m, s.n, len(s.blocks)], dtype="<u8").tobytes())
        for b in s.blocks:
            fh.write(np.asarray([b.m], dtype="<u8").tobytes())
            fh.write(b.row_of.astype("<u8").tobytes())
            fh.write(b.value_of.astype("<f8", copy=False).tobytes())
            fh.write(b.trainable_mask.astype(np.uint8).tobytes())


def load_sketch(path: str | os.PathLike) -> SparseSketch:
    with open(path, "rb") as fh:
        magic = fh.read(len(SKCH_MAGIC))
        if magic != SKCH_MAGIC:
            raise ValueError(f"{path}: not a SKCH1 file")
        m_total, n, nblocks = (int(x) for x in _read(fh, 3, "<u8", path, "SKCH1 file"))
        blocks = []
        for _ in range(nblocks):
            (bm,) = _read(fh, 1, "<u8", path, "SKCH1 file")
            row_of = _read(fh, n, "<u8", path, "SKCH1 file").astype(np.int64)
            value_of = _read(fh, n, "<f8", path, "SKCH1 file").astype(np.float64)
            mask = _read(fh, n, "u1", path, "SKCH1 file").astype(bool)
            blocks.append(SketchBlock(int(bm), row_of, value_of, mask))
    s = SparseSketch(n, tuple(blocks))
    if s.m != m_total:
        raise ValueError(f"{path}: header m={m_total} does not match blocks")
    return s
