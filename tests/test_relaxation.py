import itertools
import json

import numpy as np
import pytest

from lpdecode import lpsolver
from lpdecode.codes import ParityCheckMatrix, builtin_code, degree_profile, from_dense
from lpdecode.relaxation import (DegreeTooLowError, RelaxationError,
                                 count_constraints, decompose, decomposed_system,
                                 feldman_rows_for_check, feldman_system,
                                 odd_binomial_sum, odd_subsets)

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


def brute_odd_subsets(support):
    """Independent oracle: filter the full powerset by odd cardinality."""
    out = []
    for k in range(len(support) + 1):
        for S in itertools.combinations(sorted(support), k):
            if k % 2 == 1:
                out.append(S)
    return sorted(out, key=lambda s: (len(s), s))


class TestOddSubsets:
    def test_degree3_order(self):
        assert odd_subsets({1, 2, 3}) == [(1,), (2,), (3,), (1, 2, 3)]

    def test_singleton(self):
        assert odd_subsets({5}) == [(5,)]

    def test_degree4(self):
        assert odd_subsets({1, 2, 3, 4}) == [
            (1,), (2,), (3,), (4,),
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]

    def test_empty_rejected(self):
        with pytest.raises(RelaxationError):
            odd_subsets(set())

    def test_against_powerset_oracle(self):
        for d in range(1, 9):
            support = tuple(range(3, 3 + d))
            assert odd_subsets(support) == brute_odd_subsets(support)
            assert len(odd_subsets(support)) == 2 ** (d - 1)


class TestFeldmanRows:
    def test_degree3(self):
        rows = feldman_rows_for_check((0, 1, 2))
        expected = [
            ({0: 1, 1: -1, 2: -1}, 0),
            ({0: -1, 1: 1, 2: -1}, 0),
            ({0: -1, 1: -1, 2: 1}, 0),
            ({0: 1, 1: 1, 2: 1}, 2),
        ]
        assert [(r.coeffs, r.rhs) for r in rows] == expected

    def test_degree1_forces_zero(self):
        rows = feldman_rows_for_check((0,))
        assert [(r.coeffs, r.rhs) for r in rows] == [({0: 1}, 0)]

    def test_degree2_equality_pair(self):
        rows = feldman_rows_for_check((0, 1))
        assert [(r.coeffs, r.rhs) for r in rows] == [
            ({0: 1, 1: -1}, 0), ({0: -1, 1: 1}, 0)]
        # x1 = x2 on 0/1 points: both parity-even points satisfy, both odd violate
        for x in itertools.product((0, 1), repeat=2):
            sat = all(sum(c * x[i] for i, c in r.coeffs.items()) <= r.rhs for r in rows)
            assert sat == ((x[0] ^ x[1]) == 0)


class TestFeldmanSystem:
    def test_golden_paper_system(self):
        cs = feldman_system(builtin_code("paper-example"), include_boxes=False)
        A, b = cs.dense()
        assert A == [[float(v) for v in row] for row in PAPER_A]
        assert b == [float(v) for v in PAPER_B]
        assert cs.num_vars == 4
        assert not cs.box_rows_included

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
            assert cs.box_rows_included


def oracle_dense(supports, num_vars, boxed=()):
    """Dense (A, b) written out from brute_odd_subsets: per support in order,
    +1 on S, -1 on the rest of the support, rhs |S|-1; then -x_i <= 0 and
    x_i <= 1 for each boxed i."""
    A, b = [], []
    for support in supports:
        for S in brute_odd_subsets(support):
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

    @pytest.mark.parametrize("cover_boxes", [False, True])
    def test_chain_against_oracle(self, cover_boxes):
        rng = np.random.default_rng(606)
        for _ in range(20):
            H = random_matrix(rng, min_degree=1)
            D = decompose(H, strict=False)
            cs = decomposed_system(D, H.n, cover_boxes=cover_boxes)
            covered = {i for triple in D.checks3 for i in triple}
            boxed = [i for i in range(H.n) if i not in covered] if cover_boxes else []
            supports = D.checks3 + [support for _, support in D.passthrough]
            assert cs.dense() == oracle_dense(supports, D.extended_num_vars, boxed)
            assert cs.box_rows_included == bool(boxed)

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

    def test_empty_support_rejected(self):
        with pytest.raises(RelaxationError):
            feldman_rows_for_check(())


class TestDecompose:
    def test_degree3_identity(self):
        D = decompose(from_dense([[0, 1, 1, 1]]))
        assert D.checks3 == [(1, 2, 3)]
        assert D.aux_count == 0
        assert D.extended_num_vars == 4

    def test_degree4_chain(self):
        H = from_dense([[0, 1, 1, 1, 1]])
        D = decompose(H)
        z = 5
        assert D.checks3 == [(1, 2, z), (z, 3, 4)]
        assert D.aux_count == 1

    def test_degree6_counts(self):
        H = from_dense([[1] * 6])
        D = decompose(H)
        assert len(D.checks3) == 4
        assert D.aux_count == 3

    def test_provenance(self):
        H = builtin_code("hamming-7-4")
        D = decompose(H)
        assert len(D.provenance) == len(D.checks3)
        for j, triple in zip(D.provenance, D.checks3):
            originals = [i for i in triple if i < H.n]
            assert set(originals) <= set(H.rows[j])

    def test_provenance_keeps_duplicate_checks(self):
        H = ParityCheckMatrix(n=5, rows=((0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 2, 4)))
        D = decompose(H)
        assert D.checks3 == [(0, 1, 2), (0, 1, 2), (1, 2, 3), (0, 1, 5), (5, 2, 4)]
        assert D.provenance == [0, 1, 2, 3, 3]

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_parity_equivalence_truth_table(self, d):
        # oracle: extended 0/1 assignments satisfying all triples by even parity
        # project exactly onto the even-weight original assignments
        H = from_dense([[1] * d])
        D = decompose(H)
        n_ext = D.extended_num_vars
        projections = set()
        for bits in itertools.product((0, 1), repeat=n_ext):
            if all((bits[a] + bits[b] + bits[c]) % 2 == 0 for a, b, c in D.checks3):
                projections.add(bits[:d])
        even = {bits for bits in itertools.product((0, 1), repeat=d)
                if sum(bits) % 2 == 0}
        assert projections == even
        # each even original assignment extends uniquely
        count = sum(1 for bits in itertools.product((0, 1), repeat=n_ext)
                    if all((bits[a] + bits[b] + bits[c]) % 2 == 0
                           for a, b, c in D.checks3))
        assert count == len(even)

    def test_strict_rejects_low_degree(self):
        H = from_dense([[1, 1, 0], [1, 1, 1]])
        with pytest.raises(DegreeTooLowError):
            decompose(H, strict=True)

    def test_lenient_passthrough(self):
        H = from_dense([[1, 1, 0], [1, 1, 1]])
        D = decompose(H, strict=False)
        assert D.passthrough == [(0, (0, 1))]
        assert D.checks3 == [(0, 1, 2)]


class TestDecomposedSystem:
    def test_paper_example_counts(self):
        H = builtin_code("paper-example")
        D = decompose(H)
        cs = decomposed_system(D, H.n, cover_boxes=False)
        assert len(cs.rows) == 8
        assert cs.num_vars == 4
        assert D.aux_count == 0

    def test_single_degree5_check(self):
        H = from_dense([[1] * 5])
        D = decompose(H)
        cs = decomposed_system(D, H.n, cover_boxes=False)
        assert len(cs.rows) == 12
        assert D.aux_count == 2

    def test_isolated_column_gets_boxes(self):
        # column 3 participates in no check
        H = from_dense([[1, 1, 1, 0]])
        D = decompose(H)
        cs = decomposed_system(D, H.n, cover_boxes=True)
        assert len(cs.rows) == 4 + 2
        box = cs.rows[-2:]
        assert box[0].coeffs == {3: -1} and box[0].rhs == 0
        assert box[1].coeffs == {3: 1} and box[1].rhs == 1

    def test_covered_variables_get_no_boxes(self, rng):
        for _ in range(10):
            H = random_matrix(rng)
            D = decompose(H)
            cs = decomposed_system(D, H.n, cover_boxes=True)
            covered = {i for t in D.checks3 for i in t}
            boxed = {i for r in cs.rows if len(r.coeffs) == 1
                     for i in r.coeffs}
            assert not (boxed & covered)


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
            ds = decomposed_system(D, H.n, cover_boxes=False)
            assert len(fs.rows) == counts.feldman_parity_rows + counts.feldman_box_rows
            assert len(ds.rows) == counts.decomposed_rows
            assert D.aux_count == counts.aux_vars
            assert len(D.checks3) == counts.degree3_checks


def chain_extend(D, bits):
    """Unique auxiliary extension: each new chain variable is the XOR so far."""
    values = list(bits) + [None] * D.aux_count
    for a, b, c in D.checks3:
        if c >= D.n_original and values[c] is None:
            values[c] = values[a] ^ values[b]
    return values


def satisfies(cs, x):
    return all(sum(c * x[i] for i, c in row.coeffs.items()) <= row.rhs
               for row in cs.rows)


class TestCodewordGeometry:
    @pytest.mark.parametrize("name", ["paper-example", "hamming-7-4"])
    def test_feasibility_and_exclusion(self, name):
        H = builtin_code(name)
        fs = feldman_system(H, include_boxes=True)
        D = decompose(H)
        ds = decomposed_system(D, H.n, cover_boxes=False)
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
            ds = decomposed_system(D, H.n, cover_boxes=False)
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


class TestSerialization:
    def test_text_format(self):
        cs = feldman_system(builtin_code("paper-example"))
        lines = cs.to_text().splitlines()
        assert lines[0] == "+1*f_1 -1*f_2 -1*f_3 <= 0"
        assert lines[3] == "+1*f_1 +1*f_2 +1*f_3 <= 2"

    def test_json_roundtrippable(self):
        cs = feldman_system(builtin_code("hamming-7-4"), include_boxes=True)
        obj = json.loads(cs.to_json())
        assert obj["num_vars"] == 7
        assert len(obj["rows"]) == len(cs.rows)
        assert obj["rows"][0]["rhs"] == cs.rows[0].rhs

    def test_aux_names(self):
        H = from_dense([[1] * 5])
        D = decompose(H)
        cs = decomposed_system(D, H.n)
        assert cs.var_names[:5] == ["f_1", "f_2", "f_3", "f_4", "f_5"]
        assert cs.var_names[5:] == ["z_1_1", "z_1_2"]
