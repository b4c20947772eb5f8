import itertools

import numpy as np
import pytest

from lpdecode import lpsolver
from lpdecode.codes import ParityCheckMatrix, builtin_code, degree_profile, from_dense
from lpdecode.decoder import codewords
from lpdecode.relaxation import (MAX_CELLS, DegreeTooLowError, RelaxationError,
                                 count_constraints, decompose, decomposed_system,
                                 feldman_system, odd_binomial_sum)

from conftest import random_matrix

PAPER_A = [
    [+1, -1, -1, 0],
    [-1, +1, -1, 0],
    [-1, -1, +1, 0],
    [+1, +1, +1, 0],
    [0, +1, -1, -1],
    [0, -1, +1, -1],
    [0, -1, -1, +1],
    [0, +1, +1, +1],
]
PAPER_B = [0, 0, 0, 2, 0, 0, 0, 2]


def odd_powerset(support):
    """Independent oracle: filter the full powerset by odd cardinality."""
    out = []
    for k in range(len(support) + 1):
        for S in itertools.combinations(sorted(support), k):
            if k % 2 == 1:
                out.append(S)
    return sorted(out, key=lambda s: (len(s), s))


def check_arrays(support):
    """(A, b) of the Feldman system of one check over columns 0..max(support)."""
    return feldman_system(ParityCheckMatrix(max(support) + 1, (support,))).arrays


def odd_sets(support):
    """The +1 positions of each row of one check's Feldman system, in row order."""
    A, _ = check_arrays(tuple(sorted(support)))
    return [tuple(np.flatnonzero(row > 0).tolist()) for row in A]


class TestOddSubsets:
    def test_degree3_order(self):
        assert odd_sets({1, 2, 3}) == [(1,), (2,), (3,), (1, 2, 3)]

    def test_singleton(self):
        assert odd_sets({5}) == [(5,)]

    def test_degree4(self):
        assert odd_sets({1, 2, 3, 4}) == [
            (1,), (2,), (3,), (4,),
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]

    def test_against_powerset_oracle(self):
        for d in range(1, 9):
            support = tuple(range(3, 3 + d))
            assert odd_sets(support) == odd_powerset(support)
            assert len(odd_sets(support)) == 2 ** (d - 1)


class TestFeldmanRows:
    def test_degree3(self):
        A, b = check_arrays((0, 1, 2))
        expected = [
            ([1, -1, -1], 0),
            ([-1, 1, -1], 0),
            ([-1, -1, 1], 0),
            ([1, 1, 1], 2),
        ]
        assert list(zip(A.tolist(), b.tolist())) == expected

    def test_degree1_forces_zero(self):
        A, b = check_arrays((0,))
        assert list(zip(A.tolist(), b.tolist())) == [([1], 0)]

    def test_degree2_equality_pair(self):
        A, b = check_arrays((0, 1))
        assert list(zip(A.tolist(), b.tolist())) == [([1, -1], 0), ([-1, 1], 0)]
        # x1 = x2 on 0/1 points: both parity-even points satisfy, both odd violate
        for x in itertools.product((0, 1), repeat=2):
            assert (A @ x <= b).all() == ((x[0] ^ x[1]) == 0)


class TestFeldmanSystem:
    def test_golden_paper_system(self):
        cs = feldman_system(builtin_code("paper-example"), include_boxes=False)
        A, b = cs.dense()
        assert A == [[float(v) for v in row] for row in PAPER_A]
        assert b == [float(v) for v in PAPER_B]
        assert cs.num_vars == 4

    def test_single_entry_matrix(self):
        cs = feldman_system(from_dense([[1]]), include_boxes=False)
        assert len(cs.rows) == 1
        assert cs.rows[0].coeffs == {0: 1} and cs.rows[0].rhs == 0

    def test_row_count_with_boxes(self, rng):
        for _ in range(30):
            H = random_matrix(rng)
            prof = degree_profile(H)
            cs = feldman_system(H, include_boxes=True)
            assert len(cs.rows) == sum(2 ** (d - 1) for d in prof.check_degrees) + 2 * H.n
            assert cs.dense() == oracle_dense(H.rows, H.n, range(H.n))

    def test_oversized_system_rejected(self):
        # one degree-40 check has 2^39 odd-subset rows; refuse before allocating
        H = ParityCheckMatrix(n=40, rows=(tuple(range(40)),))
        for boxes in (False, True):
            with pytest.raises(RelaxationError, match="exceeds"):
                feldman_system(H, include_boxes=boxes)
        # the (3,12)-regular n = 120 system, boxed, fits: 61,440 parity rows
        assert (30 * 2 ** 11 + 2 * 120) * 120 <= MAX_CELLS
        assert decomposed_system(decompose(H), H.n).arrays[0].shape == (4 * 38, 40 + 37)


def oracle_dense(supports, num_vars, boxed=()):
    """Dense (A, b) written out from odd_powerset: per support in order,
    +1 on S, -1 on the rest of the support, rhs |S|-1; then -x_i <= 0 and
    x_i <= 1 for each boxed i."""
    A, b = [], []
    for support in supports:
        for S in odd_powerset(support):
            row = [0.0] * num_vars
            for i in support:
                row[i] = 1.0 if i in S else -1.0
            A.append(row)
            b.append(len(S) - 1.0)
    for i in boxed:
        for sign, rhs in ((-1.0, 0.0), (1.0, 1.0)):
            A.append([sign if j == i else 0.0 for j in range(num_vars)])
            b.append(rhs)
    return A, b


def as_dense(row, num_vars):
    return [float(row.coeffs.get(i, 0)) for i in range(num_vars)], float(row.rhs)


class TestArrayBuilder:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_one_check_against_powerset_oracle(self, d):
        support = tuple(range(1, 2 * d, 2))
        cs = feldman_system(ParityCheckMatrix(n=2 * d, rows=(support,)))
        assert cs.dense() == oracle_dense([support], 2 * d)

    def test_chain_against_oracle(self):
        rng = np.random.default_rng(606)
        for _ in range(20):
            H = random_matrix(rng, min_degree=1)
            D = decompose(H)
            cs = decomposed_system(D, H.n)
            assert cs.dense() == oracle_dense(D.rows, D.n)

    def test_arrays_read_only_float64(self):
        H = builtin_code("hamming-7-4")
        for cs in (feldman_system(H, include_boxes=True), decomposed_system(decompose(H), H.n)):
            for v in cs.arrays:
                assert v.dtype == np.float64 and not v.flags.writeable

    def test_rows_view_agrees_with_dense(self):
        cs = feldman_system(builtin_code("hamming-7-4"), include_boxes=True)
        dense = list(zip(*cs.dense()))
        rows = cs.rows
        assert len(rows) == len(dense) == 24 + 14
        assert [as_dense(r, cs.num_vars) for r in rows] == dense
        assert as_dense(rows[-1], cs.num_vars) == dense[-1]
        assert [as_dense(r, cs.num_vars) for r in rows[-2:]] == dense[-2:]
        assert all(type(c) is int and c != 0 for r in rows for c in r.coeffs.values())
        with pytest.raises(IndexError):
            rows[len(dense)]

class TestDecompose:
    def test_degree3_identity(self):
        H = from_dense([[0, 1, 1, 1]])
        D = decompose(H)
        assert D.rows == ((1, 2, 3),)
        assert D.n - H.n == 0
        assert D.n == 4

    def test_degree4_chain(self):
        H = from_dense([[0, 1, 1, 1, 1]])
        D = decompose(H)
        z = 5
        assert D.rows == ((1, 2, z), (3, 4, z))
        assert D.n - H.n == 1

    def test_degree6_counts(self):
        H = from_dense([[1] * 6])
        D = decompose(H)
        assert D.rows == ((0, 1, 6), (2, 6, 7), (3, 7, 8), (4, 5, 8))
        assert D.n - H.n == 3

    def test_duplicate_checks_keep_their_triples(self):
        H = ParityCheckMatrix(n=5, rows=((0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 2, 4)))
        D = decompose(H)
        assert D.rows == ((0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 5), (2, 4, 5))

    @pytest.mark.parametrize("code", [4, 5, 6, 7, "paper-example", "hamming-7-4"])
    def test_parity_equivalence_truth_table(self, code):
        # oracle: extended 0/1 assignments satisfying every chain check by even
        # parity project onto the codewords of H, each from exactly one, so the
        # projections equal codewords(H) as a list, not only as a set
        H = from_dense([[1] * code]) if isinstance(code, int) else builtin_code(code)
        D = decompose(H)
        assert max(len(row) for row in D.rows) == 3
        projections = [bits[:H.n] for bits in itertools.product((0, 1), repeat=D.n)
                       if all(sum(bits[i] for i in row) % 2 == 0 for row in D.rows)]
        assert sorted(projections) == sorted(tuple(cw.tolist()) for cw in codewords(H))

    def test_lenient_passthrough(self):
        H = from_dense([[1, 1, 0], [1, 1, 1]])
        D = decompose(H)
        assert D.rows == ((0, 1, 2), (0, 1))
        assert D.n == H.n


class TestDecomposedSystem:
    def test_paper_example_counts(self):
        H = builtin_code("paper-example")
        D = decompose(H)
        cs = decomposed_system(D, H.n)
        assert len(cs.rows) == 8
        assert cs.num_vars == 4
        assert D.n - H.n == 0

    def test_single_degree5_check(self):
        H = from_dense([[1] * 5])
        D = decompose(H)
        cs = decomposed_system(D, H.n)
        assert len(cs.rows) == 12
        assert D.n - H.n == 2

    @pytest.mark.parametrize("n_original", [0, 11])
    def test_n_original_out_of_range(self, n_original):
        with pytest.raises(RelaxationError, match="n_original"):
            decomposed_system(decompose(builtin_code("hamming-7-4")), n_original)


class TestCounts:
    def test_paper_example(self):
        H = builtin_code("paper-example")
        counts = count_constraints(degree_profile(H), H.n)
        assert counts.feldman_parity_rows == 8
        assert counts.feldman_box_rows == 8
        assert counts.decomposed_rows == 8
        assert counts.aux_vars == 0
        assert counts.degree3_checks == 2

    def test_single_degree3_check(self):
        H = from_dense([[1, 1, 1]])
        counts = count_constraints(degree_profile(H), 3)
        assert counts.feldman_parity_rows == 4
        assert counts.feldman_box_rows == 6
        assert counts.decomposed_rows == 4

    def test_regular_3_6(self):
        H = builtin_code("ldpc-48-24")
        counts = count_constraints(degree_profile(H), H.n)
        assert counts.feldman_parity_rows == 24 * 32 == 768
        assert counts.decomposed_rows == 24 * 16 == 384
        assert counts.aux_vars == 72
        assert counts.degree3_checks == 96

    def test_rejects_low_degree(self):
        H = from_dense([[1, 1]])
        with pytest.raises(DegreeTooLowError):
            count_constraints(degree_profile(H), 2)

    def test_binomial_identity(self):
        for d in range(1, 31):
            assert odd_binomial_sum(d) == 2 ** (d - 1)

    def test_counts_match_generated_rows(self, rng):
        for _ in range(50):
            H = random_matrix(rng)
            prof = degree_profile(H)
            counts = count_constraints(prof, H.n)
            fs = feldman_system(H, include_boxes=True)
            D = decompose(H)
            ds = decomposed_system(D, H.n)
            assert len(fs.rows) == counts.feldman_parity_rows + counts.feldman_box_rows
            assert len(ds.rows) == counts.decomposed_rows
            assert D.n - H.n == counts.aux_vars
            assert degree_profile(D).check_degrees == (3,) * counts.degree3_checks


def chain_extend(D, bits):
    """Unique extension of bits to the chain code D: in chain order, each
    triple's one unset entry is set to the XOR of the other two."""
    values = list(bits) + [None] * (D.n - len(bits))
    for row in D.rows:
        unset = [i for i in row if values[i] is None]
        if unset:
            (u,) = unset
            values[u] = sum(values[i] for i in row if i != u) % 2
    return values


def satisfies(cs, x):
    A, b = cs.arrays
    return bool((A @ np.asarray(x, dtype=float) <= b).all())


class TestCodewordGeometry:
    @pytest.mark.parametrize("name", ["paper-example", "hamming-7-4"])
    def test_feasibility_and_exclusion(self, name):
        H = builtin_code(name)
        fs = feldman_system(H, include_boxes=True)
        D = decompose(H)
        ds = decomposed_system(D, H.n)
        for bits in itertools.product((0, 1), repeat=H.n):
            is_cw = all(sum(bits[i] for i in row) % 2 == 0 for row in H.rows)
            assert satisfies(fs, bits) == is_cw
            ext = chain_extend(D, bits)
            if is_cw:
                assert satisfies(ds, ext)
            else:
                assert not satisfies(ds, ext)

    def test_random_small_matrices(self, rng):
        for _ in range(20):
            H = random_matrix(rng, max_checks=4, max_degree=6)
            if H.n > 12:
                continue
            fs = feldman_system(H, include_boxes=True)
            D = decompose(H)
            ds = decomposed_system(D, H.n)
            for bits in itertools.product((0, 1), repeat=H.n):
                is_cw = all(sum(bits[i] for i in row) % 2 == 0 for row in H.rows)
                assert satisfies(fs, bits) == is_cw
                assert satisfies(ds, chain_extend(D, bits)) == is_cw


class TestBoxImplication:
    def test_triple_rows_imply_unit_box(self):
        # max/min each variable of a triple subject to only its 4 rows
        cs = feldman_system(from_dense([[1, 1, 1]]))
        wide = [(-10.0, 10.0)] * 3
        for v in range(3):
            for sign in (1.0, -1.0):
                c = [0.0] * 3
                c[v] = sign
                sol = lpsolver.solve(lpsolver.LinearProgram(c, cs, wide))
                assert sol.status == "optimal"
                assert -1e-9 <= sol.point[v] <= 1 + 1e-9
