import itertools

import numpy as np
import pytest

from lpdecode import lpsolver
from lpdecode.channel import CostVector
from lpdecode.codes import ParityCheckMatrix, builtin_code, from_dense
from lpdecode.decoder import (DecodeError, WitnessSearchExhausted, brute_force_ml,
                              build_program, codewords, decode, fractional_witness,
                              gf2_nullspace_basis, is_codeword)
from lpdecode.relaxation import decompose, decomposed_system, feldman_system
from lpdecode.simulate import sample_gamma

from conftest import enumerate_vertices

PAPER = builtin_code("paper-example")
HAMMING = builtin_code("hamming-7-4")


def cost(*vals):
    return CostVector(gammas=tuple(float(v) for v in vals))


class TestCodewordEnumeration:
    def test_paper_codeword_set(self):
        # computed by GF(2) elimination: x1 = x4 = x2 xor x3
        cws = {tuple(int(b) for b in c) for c in codewords(PAPER)}
        assert cws == {(0, 0, 0, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0)}

    def test_every_codeword_satisfies_checks(self):
        for c in codewords(HAMMING):
            assert is_codeword(HAMMING, c)

    def test_nullspace_dimension(self):
        assert len(gf2_nullspace_basis(HAMMING)) == 4
        assert len(gf2_nullspace_basis(PAPER)) == 2

    def test_enumeration_guard(self):
        with pytest.raises(DecodeError):
            list(codewords(builtin_code("ldpc-48-24")))


class TestBruteForceMl:
    def test_positive_costs_zero_codeword(self):
        cw, obj = brute_force_ml(PAPER, cost(1, 1, 1, 1))
        assert cw == [0, 0, 0, 0] and obj == 0.0

    def test_negative_entry_pulls_bit(self):
        gamma = cost(0.1, 0.1, 0.1, 0.1, 0.1, 0.1, -10.0)
        cw, _ = brute_force_ml(HAMMING, gamma)
        assert cw[6] == 1

    def test_lexicographic_tie_break(self):
        # all-zero costs: every codeword ties at 0; lexicographic smallest wins
        cw, obj = brute_force_ml(PAPER, cost(0, 0, 0, 0))
        assert cw == [0, 0, 0, 0] and obj == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DecodeError):
            brute_force_ml(PAPER, cost(1, 1, 1))


class TestDecode:
    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_positive_costs(self, formulation):
        out = decode(PAPER, cost(1, 1, 1, 1), formulation)
        assert out.integral and out.ml_certified
        assert out.codeword == [0, 0, 0, 0]
        assert out.objective == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_all_negative_costs(self, formulation):
        gamma = cost(-1, -1, -1, -1)
        out = decode(PAPER, gamma, formulation)
        oracle_cw, oracle_obj = brute_force_ml(PAPER, gamma)
        assert out.integral
        assert out.objective == pytest.approx(oracle_obj, abs=1e-9)

    def test_unknown_formulation(self):
        with pytest.raises(DecodeError):
            decode(PAPER, cost(1, 1, 1, 1), "belief-propagation")

    def test_objective_matches_point(self):
        for t in range(20):
            gamma = sample_gamma(7, 99, t)
            out = decode(HAMMING, gamma, "feldman")
            assert out.objective == pytest.approx(
                float(np.dot(gamma.gammas, out.point)), abs=1e-9)

    def test_ml_certificate_on_hamming(self):
        for t in range(100):
            gamma = sample_gamma(7, 4242, t)
            out = decode(HAMMING, gamma, "feldman")
            if out.integral:
                oracle_cw, oracle_obj = brute_force_ml(HAMMING, gamma)
                assert out.codeword == oracle_cw
                assert out.objective == pytest.approx(oracle_obj, abs=1e-7)
                assert out.ml_certified

    @pytest.mark.parametrize("name", ["paper-example", "hamming-7-4"])
    def test_formulation_equivalence(self, name):
        H = builtin_code(name)
        for t in range(100):
            gamma = sample_gamma(H.n, 7, t)
            out_f = decode(H, gamma, "feldman")
            out_d = decode(H, gamma, "decomposed")
            assert abs(out_f.objective - out_d.objective) <= 1e-7
            if out_f.integral and out_d.integral:
                assert out_f.codeword == out_d.codeword

    def test_projection_soundness(self):
        # integral decomposed outcomes are codewords of the chain code, so
        # every auxiliary equals its chain XOR
        H = builtin_code("ldpc-48-24")
        D = decompose(H)
        found = 0
        for t in range(30):
            gamma = sample_gamma(H.n, 31, t)
            lp = build_program(H, gamma, "decomposed")
            sol = lpsolver.solve(lp)
            ok, rounded = lpsolver.is_integral(sol.point, 1e-6)
            if not ok:
                continue
            found += 1
            assert is_codeword(D, rounded)
        assert found > 0

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_system_compiled_once_per_code(self, formulation):
        H = builtin_code("ldpc-48-24")
        first = build_program(H, sample_gamma(H.n, 5, 0), formulation)
        again = build_program(ParityCheckMatrix(n=H.n, rows=H.rows),
                              sample_gamma(H.n, 5, 1), formulation)
        assert again.constraints is first.constraints
        assert not np.array_equal(again.objective, first.objective)
        # the shared system solves exactly like one built for this LP alone
        fresh = (feldman_system(H) if formulation == "feldman"
                 else decomposed_system(decompose(H), H.n))
        a = lpsolver.solve(again)
        b = lpsolver.solve(lpsolver.LinearProgram(again.objective, fresh))
        assert a.iterations == b.iterations
        assert np.array_equal(a.point, b.point)

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_cost_sequence_types_decode_alike(self, formulation):
        H = builtin_code("ldpc-48-24")
        vals = sample_gamma(H.n, 3, 0).gammas.tolist()
        first, *rest = [decode(H, CostVector(gammas=g), formulation)
                        for g in (tuple(vals), list(vals), np.array(vals))]
        assert first.iterations > 0
        for out in rest:
            assert out.objective.hex() == first.objective.hex()
            assert np.array_equal(out.point, first.point)
            assert out.iterations == first.iterations

    def test_json_serialization(self):
        out = decode(PAPER, cost(1, -1, 1, -1))
        d = out.to_json_dict()
        assert d["formulation"] == "feldman"
        assert isinstance(d["point"], list)
        assert set(d) >= {"objective", "integral", "codeword", "ml_certified",
                          "iterations", "wall_clock_ns"}


class TestFractionalWitness:
    def test_ldpc_has_witness(self):
        gamma, point = fractional_witness(builtin_code("ldpc-48-24"), seed=1)
        assert set(gamma.gammas) <= {-1.0, 1.0}
        out = decode(builtin_code("ldpc-48-24"), gamma, "feldman")
        assert not out.integral

    def test_paper_example_sign_patterns(self):
        # exhaustive over the 16 sign patterns of {-1,+1}^4.  The polytope's
        # fractional vertices are the pseudocodewords (1,.5,.5,0)/(0,.5,.5,1);
        # wherever one is optimal an integral vertex ties with it, so which of
        # the two decode returns is a matter of tie-breaking.  The objective,
        # the pseudocodewords and the patterns they are optimal for are not.
        A, b = feldman_system(PAPER, include_boxes=True).dense()
        vertices = enumerate_vertices(A, b)
        pseudocodewords = {(1.0, 0.5, 0.5, 0.0), (0.0, 0.5, 0.5, 1.0)}
        fractional = [v for v in vertices if not lpsolver.is_integral(v, 1e-6)[0]]
        assert {tuple(v) for v in fractional} == pseudocodewords
        pseudo_optimal = set()
        for signs in itertools.product((-1.0, 1.0), repeat=4):
            c = np.array(signs)
            best = min(float(c @ v) for v in vertices)
            out = decode(PAPER, CostVector(gammas=signs), "feldman")
            assert out.objective == pytest.approx(best, abs=1e-9)
            if not out.integral:
                assert tuple(round(v, 9) for v in out.point) in pseudocodewords
            if any(abs(float(c @ v) - best) <= 1e-9 for v in fractional):
                pseudo_optimal.add(signs)
        assert pseudo_optimal == {
            (-1.0, -1.0, -1.0, 1.0), (-1.0, -1.0, 1.0, 1.0),
            (-1.0, 1.0, -1.0, 1.0), (-1.0, 1.0, 1.0, 1.0),
            (1.0, -1.0, -1.0, -1.0), (1.0, -1.0, 1.0, -1.0),
            (1.0, 1.0, -1.0, -1.0), (1.0, 1.0, 1.0, -1.0),
        }

    def test_tree_code_exhausts(self):
        # tree Tanner graph (no cycles): LP is exact, no witness expected
        tree = from_dense([[1, 1, 1, 0, 0], [0, 0, 1, 1, 1]])
        with pytest.raises(WitnessSearchExhausted):
            fractional_witness(tree, seed=0, max_draws=200)
