import dataclasses
import itertools

import numpy as np
import pytest

from lpdecode import decoder, lpsolver
from lpdecode.channel import CostVector
from lpdecode.codes import BUILTINS, ParityCheckMatrix, builtin_code, from_dense
from lpdecode.decoder import (FORMULATIONS, ML_ENUM_LIMIT, DecodeError, WitnessSearchExhausted,
                              brute_force_ml, build_program, codewords, decode,
                              fractional_witness, gf2_nullspace_basis, is_codeword)
from lpdecode.relaxation import decompose, decomposed_system, feldman_system
from lpdecode.simulate import sample_gamma

from conftest import enumerate_vertices, random_matrix

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

    def test_is_codeword_on_every_word(self):
        # all 2^7 words, as a list and as uint8 and bool arrays; 16 are codewords
        found = 0
        for word in itertools.product((0, 1), repeat=HAMMING.n):
            expected = all(sum(word[i] for i in row) % 2 == 0 for row in HAMMING.rows)
            for bits in (list(word), np.array(word, dtype=np.uint8), np.array(word, dtype=bool)):
                assert is_codeword(HAMMING, bits) is expected
            found += expected
        assert found == 16

    @pytest.mark.parametrize("length", [3, 12])
    def test_is_codeword_wrong_length(self, length):
        # a longer word must not pass on its first n bits, nor a shorter one index past its end
        with pytest.raises(DecodeError, match=f"word length {length} != n 7"):
            is_codeword(HAMMING, [0] * 7 + [1] * 5 if length == 12 else [0] * length)

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

    def test_matches_direct_scan(self, rng):
        # all 2^n words, no elimination; +-1 costs make ties, broken by the smaller word
        for _ in range(50):
            H = random_matrix(rng, max_checks=6, min_degree=1, max_degree=5)
            gamma = CostVector(gammas=rng.integers(0, 2, H.n) * 2 - 1)
            best = min((float(gamma.gammas @ np.array(w)), list(w))
                       for w in itertools.product((0, 1), repeat=H.n) if is_codeword(H, w))
            assert brute_force_ml(H, gamma) == (best[1], best[0])


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

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("length", [3, 5])
    def test_cost_length_checked_before_hard_decision(self, formulation, length):
        # all-positive costs make the hard decision the zero word; the cost
        # length must be refused as such, not reach the codeword check
        with pytest.raises(DecodeError, match=f"cost length {length} != n 4"):
            decode(PAPER, cost(*[1] * length), formulation)

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
        b = lpsolver.solve(lpsolver.LinearProgram(again.objective, fresh, crash=again.crash))
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

    def test_pivot_path_pinned(self):
        # the pivot counts and objective bits of the solver as it stands; a
        # change to the pivot rules or the arithmetic order shows up here
        H = builtin_code("ldpc-48-24")
        outs = [[decode(H, sample_gamma(H.n, 1, t), f) for f in FORMULATIONS] for t in range(4)]
        assert [[o.iterations for o in row] for row in outs] == [
            [63, 128], [39, 85], [31, 68], [33, 67]]
        assert [[o.objective.hex() for o in row] for row in outs] == [
            ["-0x1.55b07d608cd78p+5", "-0x1.55b07d608cd79p+5"],
            ["-0x1.e1eb4a5093eebp+5", "-0x1.e1eb4a5093eeap+5"],
            ["-0x1.05782d5306ddap+6", "-0x1.05782d5306ddap+6"],
            ["-0x1.e100638bda1e1p+5", "-0x1.e100638bda1e2p+5"]]

    def test_json_serialization(self):
        # the field order is the decode JSON's key order, pinned by test_cli's golden test
        out = decode(PAPER, cost(1, -1, 1, -1))
        assert [f.name for f in dataclasses.fields(out)] == [
            "formulation", "point", "objective", "integral", "codeword", "ml_certified",
            "iterations", "wall_clock_ns"]
        assert out.formulation == "feldman"
        assert isinstance(out.point, np.ndarray)


class TestChainCrash:
    """A chain LP starts with the auxiliaries of each check with a one basic at their parity."""

    @staticmethod
    def auxiliaries(H):
        """Each check's auxiliary columns, numbered as `decompose` numbers them."""
        first = itertools.accumulate((max(len(r) - 3, 0) for r in H.rows), initial=H.n)
        return [set(range(a, a + max(len(r) - 3, 0))) for a, r in zip(first, H.rows)]

    @staticmethod
    def crashed_start(lp):
        """The tableau and active set a solve of lp starts its dual loop from, and
        the variables its crash made basic."""
        T, nonbasic, high = lpsolver._start(lp.objective, *lp.resolved_bounds())
        if lp.crash is not None:
            lpsolver._crash(T, nonbasic, high, lp.constraints, lp.objective, lp.crash)
        return T, nonbasic, np.flatnonzero(nonbasic != np.arange(nonbasic.size))

    def test_only_checks_with_a_one_are_crashed(self):
        H = builtin_code("ldpc-48-24")
        for j in (0, 17, 47):
            gammas = np.ones(H.n)
            gammas[j] = -1.0
            _, _, crashed = self.crashed_start(
                build_program(H, CostVector(gammas=gammas), "decomposed"))
            expected = set().union(*(aux for row, aux in zip(H.rows, self.auxiliaries(H))
                                     if j in row))
            assert set(crashed.tolist()) == expected and len(expected) == 3 * 3

    def test_all_zero_hard_decision_and_feldman_get_none(self):
        H = builtin_code("ldpc-48-24")
        lp = build_program(H, CostVector(gammas=np.ones(H.n)), "decomposed")
        T, nonbasic, crashed = self.crashed_start(lp)
        T0, nonbasic0, _ = lpsolver._start(lp.objective, *lp.resolved_bounds())
        assert lp.crash is not None and crashed.size == 0
        assert np.array_equal(T, T0) and np.array_equal(nonbasic, nonbasic0)
        assert build_program(H, sample_gamma(H.n, 1, 0), "feldman").crash is None
        assert build_program(HAMMING, sample_gamma(7, 1, 0), "feldman").crash is None

    @pytest.mark.parametrize("name", ["hamming-7-4", "ldpc-48-24"])
    def test_crash_starts_at_the_hard_decision(self, name):
        # the crash moves no original variable: every crashed auxiliary sits at
        # its parity, 0 or 1, on a tight row, and every other one stays at 0
        H = builtin_code(name)
        for t in range(5):
            gamma = sample_gamma(H.n, 8, t)
            lp = build_program(H, gamma, "decomposed")
            cs = lp.constraints
            T, nonbasic, crashed = self.crashed_start(lp)
            x = T[:-1, -1]
            assert crashed.size and (crashed >= H.n).all()
            assert np.array_equal(x[:H.n], gamma.gammas < 0)
            assert set(x[H.n:].tolist()) <= {0.0, 1.0}
            A, b = (np.asarray(v) for v in cs.dense())
            rows = nonbasic[crashed] - cs.num_vars
            assert np.array_equal(A[rows] @ x, b[rows])
            assert not x[np.setdiff1d(np.arange(H.n, cs.num_vars), crashed)].any()


class TestHardDecisionFastPath:
    """A hard decision that is a codeword is both LPs' optimum; no LP is solved for it."""

    @staticmethod
    def cases(rng):
        """(H, codeword, costs of its sign pattern with random magnitudes) triples."""
        codes = [builtin_code(name) for name in BUILTINS]
        codes += [random_matrix(rng, max_checks=8, max_degree=6) for _ in range(4)]
        for H in codes:
            basis = gf2_nullspace_basis(H)
            for _ in range(4):
                cw = np.zeros(H.n, dtype=np.uint8)
                for v, bit in zip(basis, rng.integers(0, 2, len(basis))):
                    if bit:
                        cw ^= v
                magnitudes = rng.uniform(0.1, 2.0, H.n)
                yield H, cw, np.where(cw == 1, -magnitudes, magnitudes)

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_codeword_hard_decision_skips_lp(self, rng, formulation):
        for H, cw, gammas in self.cases(rng):
            gamma = CostVector(gammas=gammas)
            out = decode(H, gamma, formulation)
            assert out.iterations == 0
            assert out.point.dtype == np.float64 and np.array_equal(out.point, cw)
            assert out.integral and out.ml_certified and out.codeword == cw.tolist()
            sol = lpsolver.solve(build_program(H, gamma, formulation))
            assert out.objective == pytest.approx(sol.objective_value, rel=1e-9)
            if H.n <= ML_ENUM_LIMIT:
                word, objective = brute_force_ml(H, gamma)
                assert word == out.codeword
                assert out.objective == pytest.approx(objective, rel=1e-9)

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_one_flipped_sign_takes_lp_path(self, rng, formulation):
        # flipping a checked bit's sign makes the hard decision a non-codeword,
        # which is infeasible for both LPs, so the solver must pivot
        for H, _, gammas in self.cases(rng):
            j = rng.choice(np.unique(np.concatenate(H.rows)))
            gammas[j] = -gammas[j]
            gamma = CostVector(gammas=gammas)
            assert not is_codeword(H, gamma.gammas < 0)
            out = decode(H, gamma, formulation)
            sol = lpsolver.solve(build_program(H, gamma, formulation))
            assert out.iterations == sol.iterations > 0
            assert out.objective == float(np.dot(gamma.gammas, sol.point[:H.n]))

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    def test_fast_path_assembles_no_lp(self, rng, monkeypatch, formulation):
        def refused(*args):
            raise AssertionError("build_program called on the fast path")

        monkeypatch.setattr(decoder, "build_program", refused)
        for H, cw, gammas in self.cases(rng):
            out = decode(H, CostVector(gammas=gammas), formulation)
            assert out.iterations == 0 and out.codeword == cw.tolist()
        with pytest.raises(AssertionError, match="on the fast path"):
            decode(HAMMING, cost(1, 1, 1, 1, 1, 1, -1), formulation)


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
