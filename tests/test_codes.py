import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdecode import codes
from lpdecode.codes import (LDPC_48_24, AlistFormatError, CodeError, ParityCheckMatrix,
                            UnknownCodeError, builtin_code, degree_profile,
                            from_dense, gallager, parse_alist, write_alist)
from lpdecode.channel import CostVector
from lpdecode.cli import main
from lpdecode.decoder import codewords, decode

from conftest import random_matrix


class TestFromDense:
    def test_paper_example(self):
        H = from_dense([[1, 1, 1, 0], [0, 1, 1, 1]])
        assert H.n == 4 and H.m == 2
        assert H.rows == ((0, 1, 2), (1, 2, 3))

    def test_minimal(self):
        H = from_dense([[1]])
        assert H.rows == ((0,),) and H.n == 1

    def test_support_readoff(self):
        H = from_dense([[1, 0], [1, 1]])
        assert H.rows == ((0,), (0, 1))

    def test_ragged_rows_rejected(self):
        with pytest.raises(CodeError):
            from_dense([[1, 1], [1]])

    def test_all_zero_row_rejected(self):
        with pytest.raises(CodeError):
            from_dense([[1, 1], [0, 0]])

    def test_non_binary_rejected(self):
        with pytest.raises(CodeError):
            from_dense([[1, 2]])

    def test_roundtrip_with_to_dense(self, rng):
        for _ in range(20):
            H = random_matrix(rng)
            assert from_dense(H.to_dense()) == H


class TestMatrixInvariants:
    def test_out_of_range_index(self):
        with pytest.raises(CodeError):
            ParityCheckMatrix(n=2, rows=((0, 2),))

    def test_duplicate_index(self):
        with pytest.raises(CodeError):
            ParityCheckMatrix(n=3, rows=((1, 1),))

    def test_empty_row(self):
        with pytest.raises(CodeError):
            ParityCheckMatrix(n=3, rows=((),))

    def test_list_rows_stored_as_tuples(self):
        listed = ParityCheckMatrix(n=3, rows=[[0, 1, 2]])
        tupled = ParityCheckMatrix(n=3, rows=((0, 1, 2),))
        assert listed.rows == ((0, 1, 2),)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert decode(listed, CostVector(gammas=[1.0, -1.0, 1.0])).integral

    def test_non_integer_index_rejected(self):
        with pytest.raises(CodeError):
            ParityCheckMatrix(n=3, rows=[[0, 1.0, 2]])

    @pytest.mark.parametrize("n", [3.0, "3", None])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(CodeError, match="n must be an integer"):
            ParityCheckMatrix(n=n, rows=[[0, 1, 2]])


class TestDegreeProfile:
    def test_paper_example(self):
        prof = degree_profile(builtin_code("paper-example"))
        assert prof.check_degrees == (3, 3)
        assert prof.variable_degrees == (1, 2, 2, 1)

    def test_identity(self):
        H = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert degree_profile(H).check_degrees == (1, 1, 1)

    def test_degree_sums_match_nonzeros(self, rng):
        for _ in range(30):
            H = random_matrix(rng)
            prof = degree_profile(H)
            nnz = sum(sum(row) for row in H.to_dense())
            assert sum(prof.check_degrees) == nnz
            assert sum(prof.variable_degrees) == nnz


class TestAlist:
    def test_paper_example_roundtrip(self):
        H = builtin_code("paper-example")
        assert parse_alist(write_alist(H)) == H

    def test_first_line_dimensions(self):
        assert write_alist(builtin_code("paper-example")).splitlines()[0] == "4 2"
        assert write_alist(from_dense([[1]])).splitlines()[0] == "1 1"

    def test_minimal_matrix(self):
        text = "1 1\n1 1\n1\n1\n1\n1\n"
        assert parse_alist(text).rows == ((0,),)

    def test_bytes_accepted(self):
        H = builtin_code("hamming-7-4")
        assert parse_alist(write_alist(H).encode()) == H

    def test_padding_zeros_stripped(self):
        # degree-1 entries padded to width 2 with zeros
        text = "2 2\n1 1\n1 1\n1 1\n1 0\n2 0\n1 0\n2 0\n"
        H = parse_alist(text)
        assert H.rows == ((0,), (1,))

    def test_index_out_of_range(self):
        text = "2 1\n1 2\n1 1\n2\n1\n1\n1 3\n"
        with pytest.raises(AlistFormatError):
            parse_alist(text)

    def test_truncated(self):
        H = builtin_code("hamming-7-4")
        lines = write_alist(H).splitlines()
        with pytest.raises(AlistFormatError):
            parse_alist("\n".join(lines[:-2]))

    def test_adjacency_mismatch(self):
        # variable side says variable 1 is in check 1 only; check 2 claims it too
        text = "2 2\n1 2\n1 1\n1 2\n1\n2\n1\n1 2\n"
        with pytest.raises(AlistFormatError):
            parse_alist(text)

    # all but the last break one rule of the valid 3-bit code with checks {1, 2} and {2, 3}:
    # "3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 3\n"
    @pytest.mark.parametrize("text", [
        pytest.param("3 2\n2 2\n1 2 1\n2 2\n3\n1 2\n2\n1 2\n2 3\n", id="variable-index-range"),
        pytest.param("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 2\n2 4\n", id="check-index-range"),
        pytest.param("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 1\n2 3\n", id="check-duplicate"),
        pytest.param("3 2\n2 2\n1 2 2\n2 2\n1\n1 2\n2\n1 2\n2 3\n", id="variable-degree"),
        pytest.param("3 2\n2 2\n1 2 1\n2 3\n1\n1 2\n2\n1 2\n2 3\n", id="check-degree"),
        pytest.param("3 2\n2 2\n1 2 1\n2 2\n1\n1 2\n2\n1 3\n2 3\n", id="check-lists-extra"),
        pytest.param("3 2\n2 2\n2 2 1\n2 2\n1 2\n1 2\n2\n1 2\n2 3\n", id="variable-lists-extra"),
        # variable 1 lists check 1 twice, the check side once
        pytest.param("3 1\n2 3\n2 1 1\n3\n1 1\n1\n1\n1 2 3\n", id="variable-duplicate"),
    ])
    def test_malformed_rejected(self, text, tmp_path):
        with pytest.raises(AlistFormatError):
            parse_alist(text)
        path = tmp_path / "bad.alist"
        path.write_text(text)
        assert main(["counts", "--code", str(path)]) == 2

    def test_roundtrip_random(self, rng):
        for _ in range(50):
            H = random_matrix(rng, min_degree=1)
            assert parse_alist(write_alist(H)) == H

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_roundtrip_property(self, data):
        n = data.draw(st.integers(1, 32))
        m = data.draw(st.integers(1, 8))
        rows = []
        for _ in range(m):
            d = data.draw(st.integers(1, n))
            support = data.draw(st.sets(st.integers(0, n - 1), min_size=d, max_size=d))
            rows.append(tuple(sorted(support)))
        H = ParityCheckMatrix(n=n, rows=tuple(rows))
        assert parse_alist(write_alist(H)) == H


class TestBuiltins:
    def test_paper_example(self):
        H = builtin_code("paper-example")
        assert H.to_dense() == [[1, 1, 1, 0], [0, 1, 1, 1]]

    def test_hamming_has_16_codewords(self):
        H = builtin_code("hamming-7-4")
        assert H.n == 7 and H.m == 3
        cws = {tuple(int(b) for b in c) for c in codewords(H)}
        assert len(cws) == 16
        for cw in cws:
            for row in H.rows:
                assert sum(cw[i] for i in row) % 2 == 0

    def test_ldpc_is_3_6_regular(self):
        H = builtin_code("ldpc-48-24")
        prof = degree_profile(H)
        assert H.n == 48 and H.m == 24
        assert set(prof.check_degrees) == {6}
        assert set(prof.variable_degrees) == {3}

    def test_ldpc_deterministic(self):
        a = builtin_code("ldpc-48-24")
        b = builtin_code("ldpc-48-24")
        assert a == b

    def test_unknown_name(self):
        with pytest.raises(UnknownCodeError):
            builtin_code("no-such-code")


class TestGallager:
    def test_ldpc_48_24_is_a_gallager_code(self):
        # the benchmark's digests are over this exact matrix: checks 0-7 are
        # consecutive sextuples, then two permuted copies of them.  The digest
        # is of the matrix built before `gallager` existed
        H = gallager(48, 3, 6, 20140901)
        assert H == LDPC_48_24
        assert H.rows[:2] == ((0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11))
        assert H.rows[8] == (3, 17, 19, 33, 39, 43) and H.rows[16] == (0, 7, 9, 16, 36, 38)
        assert hashlib.sha256(write_alist(H).encode()).hexdigest() == (
            "60a03906f7d8fccaa55496706396fa95a25fad37b8f55ab33e5bf5a835111f48")

    @pytest.mark.parametrize("n, dv, dc", [(204, 3, 6), (120, 3, 12), (10, 1, 5), (12, 4, 3)])
    def test_regular(self, n, dv, dc):
        H = gallager(n, dv, dc, 1)
        prof = degree_profile(H)
        assert H.n == n and H.m == dv * n // dc
        assert set(prof.check_degrees) == {dc} and set(prof.variable_degrees) == {dv}
        assert gallager(n, dv, dc, 1) == H

    @pytest.mark.parametrize("args", [(50, 3, 6, 1), (0, 3, 6, 1), (48, 0, 6, 1),
                                      (48, 3, 0, 1), (48, 3, 6, -1), (48.0, 3, 6, 1)])
    def test_invalid_rejected(self, args):
        with pytest.raises(CodeError):
            gallager(*args)

    def test_ones_past_max_entries_refused_unbuilt(self, monkeypatch):
        # 6e9 columns would take tens of GB to shuffle: refused before any is built
        with pytest.raises(CodeError, match="18000000000 ones exceeds MAX_ENTRIES"):
            gallager(6_000_000_000, 3, 6, 1)
        monkeypatch.setattr(codes, "MAX_ENTRIES", 24)
        assert gallager(8, 3, 4, 1).m == 6  # 24 ones: at the limit
        with pytest.raises(CodeError, match="27 ones exceeds MAX_ENTRIES = 24"):
            gallager(9, 3, 3, 1)
