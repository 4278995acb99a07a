import os
from types import SimpleNamespace

import numpy as np
import pytest

from lrsketch.evalbench import write_xy_csv
from lrsketch.formats import (atomic_open, load_dmat, load_matrix, load_matrix_csv,
                              load_sketch, save_dmat, save_matrix_csv, save_sketch)
from lrsketch.sketch import concat_sketches, sketches_equal, sparse_random_sketch


class TestDmat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 3))
        p = tmp_path / "a.dmat"
        save_dmat(p, a)
        b = load_dmat(p)
        assert a.tobytes() == b.tobytes()

    def test_deterministic_bytes(self, tmp_path):
        a = np.random.default_rng(1).standard_normal((4, 4))
        p1, p2 = tmp_path / "x1.dmat", tmp_path / "x2.dmat"
        save_dmat(p1, a)
        save_dmat(p2, a)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.dmat"
        p.write_bytes(b"NOTDM1" + b"\x00" * 32)
        with pytest.raises(ValueError, match="not a DMAT1"):
            load_dmat(p)

    def test_truncated(self, tmp_path):
        a = np.random.default_rng(2).standard_normal((3, 3))
        p = tmp_path / "t.dmat"
        save_dmat(p, a)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_dmat(p)

    def test_rejects_non_finite_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            save_dmat(tmp_path / "n.dmat", np.array([[np.nan]]))


class TestCsvMatrix:
    def test_roundtrip(self, tmp_path):
        a = np.array([[1.5, -2.25], [0.0, 3.125]])
        p = tmp_path / "m.csv"
        save_matrix_csv(p, a)
        assert np.array_equal(load_matrix_csv(p), a)

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix_csv(p)

    def test_dispatch_by_extension(self, tmp_path):
        a = np.array([[2.0, 4.0]])
        save_matrix_csv(tmp_path / "m.csv", a)
        save_dmat(tmp_path / "m.dmat", a)
        assert np.array_equal(load_matrix(tmp_path / "m.csv"), a)
        assert np.array_equal(load_matrix(tmp_path / "m.dmat"), a)


class TestSkch:
    def test_roundtrip_single_block(self, tmp_path):
        s = sparse_random_sketch(4, 9, seed=3)
        p = tmp_path / "s.skch"
        save_sketch(p, s)
        assert sketches_equal(load_sketch(p), s)

    def test_roundtrip_multi_block_bit_exact(self, tmp_path):
        s = concat_sketches(sparse_random_sketch(2, 6, 1),
                            sparse_random_sketch(3, 6, 2))
        s = s.with_values(np.linspace(-1.7, 2.3, 12))  # non-trivial float payloads
        p = tmp_path / "mb.skch"
        save_sketch(p, s)
        loaded = load_sketch(p)
        assert sketches_equal(loaded, s)
        assert loaded.value_of.tobytes() == s.value_of.tobytes()
        p2 = tmp_path / "mb2.skch"
        save_sketch(p2, loaded)
        assert p.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.skch"
        p.write_bytes(b"XXXXX\x00" + b"\x00" * 24)
        with pytest.raises(ValueError, match="not a SKCH1"):
            load_sketch(p)

    def test_roundtrip_zero_row_sketch(self, tmp_path):
        from lrsketch.sketch import empty_sketch

        p = tmp_path / "empty.skch"
        save_sketch(p, empty_sketch(7))
        loaded = load_sketch(p)
        assert loaded.m == 0 and loaded.n == 7 and loaded.blocks == ()


def _patch(path, offset, raw):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(raw)] = raw
    path.write_bytes(bytes(data))


class TestCorruptInput:
    # SKCH1 offsets: header m at 6, the first block's row count at 30, its
    # row_of at 38 and its value_of at 38 + 8n; DMAT1 payload at 22
    @pytest.fixture
    def skch(self, tmp_path):
        p = tmp_path / "s.skch"
        save_sketch(p, concat_sketches(sparse_random_sketch(2, 6, 1),
                                       sparse_random_sketch(3, 6, 2)))
        return p

    def test_skch_truncated_mid_block(self, skch):
        skch.write_bytes(skch.read_bytes()[:38 + 8 * 6 + 20])
        with pytest.raises(ValueError, match="truncated"):
            load_sketch(skch)

    def test_skch_header_m_differs_from_blocks(self, skch):
        _patch(skch, 6, np.array([6], dtype="<u8").tobytes())
        with pytest.raises(ValueError, match="header m=6 does not match"):
            load_sketch(skch)

    def test_skch_row_index_out_of_block(self, skch):
        _patch(skch, 38, np.array([2], dtype="<u8").tobytes())
        with pytest.raises(ValueError, match="out of range"):
            load_sketch(skch)

    def test_skch_nan_value(self, skch):
        _patch(skch, 38 + 8 * 6, np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            load_sketch(skch)

    def test_dmat_inf_payload(self, tmp_path):
        p = tmp_path / "a.dmat"
        save_dmat(p, np.eye(3))
        _patch(p, 22 + 8 * 4, np.array([np.inf], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match="non-finite"):
            load_dmat(p)


class TestAtomicWrite:
    def test_error_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_open(tmp_path / "out.txt", "w") as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert os.listdir(tmp_path) == []

    def test_failed_csv_write_keeps_old_file(self, tmp_path):
        p = tmp_path / "plot.csv"
        write_xy_csv(p, [("a", 1, 2.0)])
        old = p.read_bytes()
        with pytest.raises(ValueError):  # the second row has no y
            write_xy_csv(p, [("a", 1, 3.0), ("b", 2)])
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["plot.csv"]

    def test_failed_sketch_write_keeps_old_file(self, tmp_path):
        p = tmp_path / "s.skch"
        s = sparse_random_sketch(3, 10, 1)
        save_sketch(p, s)
        old = p.read_bytes()
        # the second block's row count does not fit the header's uint64
        bad = SimpleNamespace(m=3, n=10, blocks=(s.blocks[0], SimpleNamespace(m=-1)))
        with pytest.raises(OverflowError):
            save_sketch(p, bad)
        assert p.read_bytes() == old
        assert os.listdir(tmp_path) == ["s.skch"]
