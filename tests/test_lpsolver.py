import numpy as np
import pytest

from lpdecode import lpsolver
from lpdecode.codes import builtin_code
from lpdecode.decoder import build_program
from lpdecode.lpsolver import (DimensionError, IterationLimitError, LinearProgram,
                               is_integral, solve)
from lpdecode.relaxation import (ConstraintSystem, Row, feldman_rows_for_check,
                                 feldman_system)
from lpdecode.simulate import sample_gamma

from conftest import enumerate_vertices


def make_cs(rows, num_vars):
    return ConstraintSystem(
        num_vars=num_vars,
        rows=[Row(coeffs=dict(c), rhs=r) for c, r in rows],
        var_names=[f"x{i}" for i in range(num_vars)],
    )


class TestBasics:
    def test_single_variable_corner(self):
        cs = make_cs([({0: 1}, 1)], 1)
        sol = solve(LinearProgram([-1.0], cs))
        assert sol.status == "optimal"
        assert sol.point[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_zero_codeword_optimal_under_positive_costs(self):
        cs = feldman_system(builtin_code("paper-example"))
        sol = solve(LinearProgram([1.0] * 4, cs))
        assert sol.status == "optimal"
        assert np.allclose(sol.point, 0.0, atol=1e-9)
        assert sol.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        cs = make_cs([({0: 1}, 1)], 1)
        with pytest.raises(DimensionError):
            solve(LinearProgram([1.0, 2.0], cs))

    def test_bad_bounds(self):
        cs = make_cs([({0: 1}, 1)], 1)
        with pytest.raises(DimensionError):
            solve(LinearProgram([1.0], cs, bounds=[(1.0, 0.0)]))

    def test_infeasible(self):
        # x <= -1 with x in [0, 1]
        cs = make_cs([({0: 1}, -1)], 1)
        sol = solve(LinearProgram([1.0], cs))
        assert sol.status == "infeasible"

    def test_unbounded(self):
        # min -x, x >= 0 unbounded above, only constraint -x <= 0
        cs = make_cs([({0: -1}, 0)], 1)
        sol = solve(LinearProgram([-1.0], cs, bounds=[(0.0, float("inf"))]))
        assert sol.status == "unbounded"

    def test_negative_lower_bound(self):
        # min x with x in [-3, 5], constraint x <= 4
        cs = make_cs([({0: 1}, 4)], 1)
        sol = solve(LinearProgram([1.0], cs, bounds=[(-3.0, 5.0)]))
        assert sol.status == "optimal"
        assert sol.point[0] == pytest.approx(-3.0, abs=1e-9)

    def test_phase1_needed(self):
        # x + y >= 1 (as -x - y <= -1), minimize x + y over the unit box
        cs = make_cs([({0: -1, 1: -1}, -1)], 2)
        sol = solve(LinearProgram([1.0, 1.0], cs))
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lpsolver, "MAX_ITER", 1)
        cs = feldman_system(builtin_code("hamming-7-4"))
        with pytest.raises(IterationLimitError):
            solve(LinearProgram([-1.0] * 7, cs))


class TestAgainstVertexOracle:
    def test_paper_polytope_random_costs(self, rng):
        cs = feldman_system(builtin_code("paper-example"), include_boxes=True)
        A, b = cs.dense()
        vertices = enumerate_vertices(A, b)
        assert vertices, "polytope has vertices"
        for _ in range(100):
            c = rng.uniform(-5, 5, 4)
            sol = solve(LinearProgram(list(c), cs))
            assert sol.status == "optimal"
            oracle = min(float(c @ v) for v in vertices)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)

    def test_small_general_lps(self, rng):
        # random 3-variable systems over the unit box
        for _ in range(50):
            nrows = int(rng.integers(1, 6))
            rows = []
            for _ in range(nrows):
                coeffs = {i: int(rng.integers(-2, 3)) for i in range(3)}
                coeffs = {i: v for i, v in coeffs.items() if v != 0}
                if not coeffs:
                    continue
                rows.append((coeffs, int(rng.integers(0, 4))))
            if not rows:
                continue
            cs = make_cs(rows, 3)
            A, b = cs.dense()
            A_full = np.vstack([A, -np.eye(3), np.eye(3)])
            b_full = np.concatenate([b, np.zeros(3), np.ones(3)])
            vertices = enumerate_vertices(A_full, b_full)
            c = rng.uniform(-3, 3, 3)
            sol = solve(LinearProgram(list(c), cs))
            assert sol.status == "optimal"
            oracle = min(float(c @ v) for v in vertices)
            assert sol.objective_value == pytest.approx(oracle, abs=1e-7)


class TestBoundedVariables:
    # each path is the shortest one: a variable that leaves at its upper bound
    # is complemented as it leaves, so no repair flip follows
    @pytest.mark.parametrize("c, rows, bounds, point, objective, events", [
        # min -2x + 2y, x - 2y <= 1, x in [0, 3], y in [0, 4]: x enters at the
        # row, then y enters and drives the basic x to its upper bound
        ([-2.0, 2.0], [({0: 1, 1: -2}, 1)], [(0.0, 3.0), (0.0, 4.0)],
         [3.0, 1.0], -4.0, ["at its upper bound"]),
        # min -x + y, -x - 2y <= 1, x in [-2, 2], y in [-2, 0]: needs phase 1;
        # y flips to its bound, x enters, then y enters and x leaves at its
        # upper bound
        ([-1.0, 1.0], [({0: -1, 1: -2}, 1)], [(-2.0, 2.0), (-2.0, 0.0)],
         [2.0, -1.5], -3.5, ["flips", "at its upper bound"]),
    ], ids=["phase2", "phase1-with-flip"])
    def test_basic_variable_leaves_at_upper_bound(self, capsys, c, rows, bounds,
                                                  point, objective, events):
        sol = solve(LinearProgram(c, make_cs(rows, 2), bounds), verbose=True)
        trace = capsys.readouterr().out
        for event in events:
            assert event in trace
        assert sol.iterations == len(events) + 1
        assert sol.status == "optimal"
        assert sol.point == pytest.approx(point, abs=1e-12)
        assert sol.objective_value == pytest.approx(objective, abs=1e-12)


class TestSharedArrays:
    def test_cached_arrays_are_read_only(self):
        cs = feldman_system(builtin_code("hamming-7-4"))
        A, b = cs.arrays
        assert cs.arrays[0] is A and cs.arrays[1] is b
        assert not A.flags.writeable and not b.flags.writeable
        assert A.tolist() == cs.dense()[0] and b.tolist() == cs.dense()[1]

    def test_phase1_solves_leave_the_system_intact(self):
        # with criterion 3's [-10, 10] bounds every shifted rhs of these rows
        # except the all-plus one is negative, so each solve runs phase 1
        cs = ConstraintSystem(num_vars=3, rows=feldman_rows_for_check((0, 1, 2)),
                              var_names=["a", "b", "c"])
        A0, b0 = (v.copy() for v in cs.arrays)
        lp = LinearProgram([1.0, -1.0, 0.5], cs, [(-10.0, 10.0)] * 3)
        first, second = solve(lp), solve(lp)
        assert first.status == second.status == "optimal"
        assert first.iterations == second.iterations > 0
        assert np.array_equal(first.point, second.point)
        assert np.array_equal(cs.arrays[0], A0) and np.array_equal(cs.arrays[1], b0)


class TestAgainstHighs:
    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_ldpc_decoding_lps(self, formulation):
        linprog = pytest.importorskip("scipy.optimize").linprog
        H = builtin_code("ldpc-48-24")
        for t in range(10):
            lp = build_program(H, sample_gamma(H.n, 3, t), formulation)
            A, b = (np.asarray(v) for v in lp.constraints.dense())
            ref = linprog(lp.objective, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
            sol = solve(lp)
            assert ref.status == 0 and sol.status == "optimal"
            assert abs(sol.objective_value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            assert np.all(A @ sol.point <= b + 1e-9)
            assert np.all(sol.point >= -1e-9) and np.all(sol.point <= 1 + 1e-9)


class TestFeasibilityOfOptimum:
    def test_constraints_hold_at_optimum(self, rng):
        cs = feldman_system(builtin_code("hamming-7-4"))
        A, b = cs.dense()
        A = np.asarray(A)
        b = np.asarray(b)
        for _ in range(25):
            c = rng.uniform(-5, 5, 7)
            sol = solve(LinearProgram(list(c), cs))
            assert sol.status == "optimal"
            assert np.all(A @ sol.point <= b + 1e-9)
            assert np.all(sol.point >= -1e-9) and np.all(sol.point <= 1 + 1e-9)


class TestDeterminism:
    def test_identical_inputs_identical_solutions(self, rng):
        cs = feldman_system(builtin_code("ldpc-48-24"))
        c = list(rng.uniform(-5, 5, 48))
        a = solve(LinearProgram(c, cs))
        b = solve(LinearProgram(c, cs))
        assert a.iterations == b.iterations
        assert a.objective_value == b.objective_value
        assert np.array_equal(a.point, b.point)


class TestIsIntegral:
    def test_exact(self):
        ok, rounded = is_integral((0.0, 1.0, 0.0), 1e-6)
        assert ok and rounded == [0, 1, 0]

    def test_half_fractional(self):
        ok, rounded = is_integral((0.5, 0.5, 0.5), 1e-6)
        assert not ok and rounded is None

    def test_within_tolerance(self):
        ok, rounded = is_integral((1e-8, 1 - 1e-8), 1e-6)
        assert ok and rounded == [0, 1]

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            is_integral((0.0,), 0.5)
