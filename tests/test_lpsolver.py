import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpdecode import lpsolver
from lpdecode.channel import Awgn, Bsc, llr_costs, transmit
from lpdecode.codes import ParityCheckMatrix, builtin_code, from_dense, gallager
from lpdecode.decoder import build_program
from lpdecode.lpsolver import (DimensionError, IterationLimitError, LinearProgram,
                               SolverError, is_integral, solve)
from lpdecode.relaxation import (ChainCrash, ConstraintSystem, RelaxationError,
                                 decomposed_system, feldman_system)
from lpdecode.simulate import sample_gamma

from conftest import enumerate_vertices, interleaved_code, random_matrix

INF = float("inf")
NAN = float("nan")


def make_cs(rows, num_vars):
    """The system of (coeffs dict, rhs) rows, in the given order."""
    entries = [sorted(coeffs.items()) for coeffs, _ in rows]
    return ConstraintSystem(
        num_vars=num_vars,
        indptr=np.cumsum([0] + [len(e) for e in entries]),
        cols=np.array([j for e in entries for j, _ in e], dtype=np.intp),
        vals=np.array([v for e in entries for _, v in e], dtype=float),
        b=np.array([rhs for _, rhs in rows], dtype=float),
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

    def test_objective_shape_reported(self):
        lp = build_program(builtin_code("ldpc-48-24"), sample_gamma(48, 1, 0), "feldman")
        with pytest.raises(DimensionError, match=r"objective shape \(48, 1\) != \(48,\)"):
            solve(LinearProgram(lp.objective.reshape(48, 1), lp.constraints))

    def test_bad_bounds(self):
        cs = make_cs([({0: 1}, 1)], 1)
        with pytest.raises(DimensionError):
            solve(LinearProgram([1.0], cs, bounds=[(1.0, 0.0)]))

    @pytest.mark.parametrize("c, bounds", [
        ([1.0], [(-INF, 5.0)]),
        ([1.0], [(NAN, 5.0)]),
        ([1.0], [(0.0, NAN)]),
        ([-1.0], [(0.0, INF)]),
        ([INF], None),
        ([NAN], None),
    ], ids=["infinite-lower", "nan-lower", "nan-upper", "infinite-upper", "infinite-cost",
            "nan-cost"])
    def test_non_finite_input_rejected(self, c, bounds):
        # the solve shifts lower bounds out, starts a negative-cost variable at
        # its upper bound and prices with the costs, so it rejects these; with
        # x in (-inf, 5] min x is unbounded
        cs = make_cs([({0: 1}, 4)], 1)
        with pytest.raises(DimensionError):
            solve(LinearProgram(c, cs, bounds))

    def test_infeasible(self):
        # x <= -1 with x in [0, 1]
        cs = make_cs([({0: 1}, -1)], 1)
        sol = solve(LinearProgram([1.0], cs))
        assert sol.status == "infeasible"

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
        # the hard decision of these costs, a single 1 in bit 6, is not a
        # codeword, so the solve needs more than one pivot
        c = [1.0] * 6 + [-1.0]
        cs = feldman_system(builtin_code("hamming-7-4"))
        assert solve(LinearProgram(c, cs)).iterations >= 2
        monkeypatch.setattr(lpsolver, "MAX_ITER", 1)
        with pytest.raises(IterationLimitError):
            solve(LinearProgram(c, cs))

    def test_negative_reduced_cost_raises(self, monkeypatch):
        # the dual loop keeps every reduced cost nonnegative, so a feasible
        # basis left with a negative one is a solver fault, not an optimum
        run = lpsolver._run_dual_simplex

        def spoiled(T, *args):
            result = run(T, *args)
            T[-1, 0] = -1.0
            return result

        monkeypatch.setattr(lpsolver, "_run_dual_simplex", spoiled)
        with pytest.raises(SolverError) as exc:
            solve(LinearProgram([1.0], make_cs([({0: 1}, 1)], 1)))
        assert type(exc.value) is SolverError


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
    # `events` is the whole dual path as (kind, entering, leaving), variables
    # numbered structural first, then one slack per row.  Both optima are
    # unique.
    @pytest.mark.parametrize("c, rows, bounds, point, objective, events", [
        # min -x - 2y, x + y <= 1, x in [0, 2], y in [0, 3]: the start puts x
        # at 2 and y at 3 (both held complemented); x enters the violated row,
        # but even x = 0 leaves it violated while y is 3, so x leaves at 0,
        # the upper bound of 2 - x, as y enters
        ([-1.0, -2.0], [({0: 1, 1: 1}, 1)], [(0.0, 2.0), (0.0, 3.0)],
         [0.0, 1.0], -2.0,
         [("pivot", 0, 2), ("leave-at-upper", 1, 0)]),
        # min -a + 2b - z, a - 2z <= 3, -b + z <= -1, a in [-2, 4], b in
        # [-1, 1], z in [-1, 0]: the start (4, -1, 0) violates both rows; z
        # and then b enter them, which leaves b above its upper bound of 1, so
        # it leaves there as a enters
        ([-1.0, 2.0, -1.0], [({0: 1, 2: -2}, 3), ({1: -1, 2: 1}, -1)],
         [(-2.0, 4.0), (-1.0, 1.0), (-1.0, 0.0)],
         [3.0, 1.0, 0.0], -1.0,
         [("pivot", 2, 4), ("pivot", 1, 3), ("leave-at-upper", 0, 1)]),
    ], ids=["one-row", "two-rows"])
    def test_basic_variable_leaves_at_upper_bound(self, c, rows, bounds,
                                                  point, objective, events):
        trace = []
        sol = solve(LinearProgram(c, make_cs(rows, len(c)), bounds), trace=trace.append)
        assert [(e.kind, e.entering, e.leaving) for e in trace] == events
        assert [e.iteration for e in trace] == list(range(len(events)))
        assert sol.iterations == len(events)
        assert sol.status == "optimal"
        assert sol.point == pytest.approx(point, abs=1e-12)
        assert sol.objective_value == pytest.approx(objective, abs=1e-12)


class TestDegenerateShapes:
    # shapes the decoding LPs never take; each expected point is the unique optimum
    @pytest.mark.parametrize("bounds, point", [
        (None, [0.0, 1.0, 0.0]),
        ([(-1.0, 2.0), (-3.0, 4.0), (0.5, 0.5)], [-1.0, 4.0, 0.5]),
    ], ids=["default", "explicit"])
    def test_no_rows(self, bounds, point):
        # nothing to repair: the box corner the costs favour, after 0 pivots
        cs = make_cs([], 3)
        sol = solve(LinearProgram([1.0, -2.0, 0.0], cs, bounds))
        assert sol.status == "optimal" and sol.iterations == 0
        assert sol.point.tolist() == point
        assert sol.objective_value == pytest.approx(np.dot([1.0, -2.0, 0.0], point), abs=1e-12)

    @pytest.mark.parametrize("bounds", [None, [(-1.0, 2.0), (-1.0, 2.0)]],
                             ids=["default", "explicit"])
    def test_zero_row_is_redundant(self, bounds):
        # min -2x - y with x + y <= 1, 0 <= 0.25, x <= 0.5: the zero row's
        # activity is 0, not the next row's first entry, which would cap x at 0.25
        cs = make_cs([({0: 1, 1: 1}, 1), ({}, 0.25), ({0: 1}, 0.5)], 2)
        sol = solve(LinearProgram([-2.0, -1.0], cs, bounds))
        assert sol.status == "optimal" and sol.iterations > 0
        assert sol.point == pytest.approx([0.5, 0.5], abs=1e-12)
        assert sol.objective_value == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("bounds", [None, [(-1.0, 2.0), (-1.0, 2.0)]],
                             ids=["default", "explicit"])
    @pytest.mark.parametrize("last", [False, True], ids=["middle", "last"])
    def test_zero_row_with_negative_rhs_is_infeasible(self, bounds, last):
        # 0 <= -1 holds for no x
        rows = [({0: 1, 1: 1}, 1), ({0: 1}, 0.5)]
        rows.insert(len(rows) if last else 1, ({}, -1))
        sol = solve(LinearProgram([-2.0, -1.0], make_cs(rows, 2), bounds))
        assert sol.status == "infeasible" and sol.point is None

    @pytest.mark.parametrize("c, rows, bounds, point", [
        # x fixed at 0 in the unit box: y takes what x + y <= 0.5 leaves
        ([-1.0, -1.0], [({0: 1, 1: 1}, 0.5)], [(0.0, 0.0), (0.0, 1.0)], [0.0, 0.5]),
        # x fixed at 2: x - y <= 1 forces y up to 1
        ([1.0, 1.0], [({0: 1, 1: -1}, 1)], [(2.0, 2.0), (-1.0, 3.0)], [2.0, 1.0]),
    ], ids=["unit-box", "wide-box"])
    def test_fixed_variable(self, c, rows, bounds, point):
        sol = solve(LinearProgram(c, make_cs(rows, 2), bounds))
        assert sol.status == "optimal" and sol.iterations > 0
        assert sol.point == pytest.approx(point, abs=1e-12)
        assert sol.point[0] == bounds[0][0]

    def test_fixed_variable_infeasible(self):
        # x fixed at 1 and x + y <= 0.5 with y >= 0
        sol = solve(LinearProgram([1.0, 1.0], make_cs([({0: 1, 1: 1}, 0.5)], 2),
                                  [(1.0, 1.0), (0.0, 1.0)]))
        assert sol.status == "infeasible"


def stored(cs):
    """The arrays a system stores, then those of the blocks its solves price."""
    return (cs.indptr, cs.cols, cs.vals, cs.b,
            *(v for block in cs.blocks for v in block if isinstance(v, np.ndarray)))


class TestSharedArrays:
    def test_cached_arrays_are_read_only(self):
        # one degree; degrees that alternate, so blocks index their rows, and
        # boxes; a system given as rows
        for other in (feldman_system(interleaved_code(), include_boxes=True),
                      make_cs([({0: 1, 1: -2}, 1), ({}, 0.5), ({1: 3}, 2)], 2)):
            assert all(not v.flags.writeable for v in stored(other))
        cs = feldman_system(builtin_code("hamming-7-4"))
        assert all(not v.flags.writeable for v in stored(cs))
        A, b = (np.asarray(v) for v in cs.dense())
        row_of = np.repeat(np.arange(b.size), np.diff(cs.indptr))
        assert np.array_equal(A[row_of, cs.cols], cs.vals)
        assert np.count_nonzero(A) == cs.vals.size and cs.b.tolist() == b.tolist()

    def test_phase1_solves_leave_the_system_intact(self):
        # with criterion 3's [-10, 10] bounds the start (-10, 10, -10) violates
        # these rows, so each solve pivots
        cs = feldman_system(from_dense([[1, 1, 1]]))
        before = [v.copy() for v in stored(cs)]
        lp = LinearProgram([1.0, -1.0, 0.5], cs, [(-10.0, 10.0)] * 3)
        first, second = solve(lp), solve(lp)
        assert first.status == second.status == "optimal"
        assert first.iterations == second.iterations > 0
        assert np.array_equal(first.point, second.point)
        assert all(np.array_equal(v, v0) for v, v0 in zip(stored(cs), before))

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_csr_copy_solves_like_the_built_system(self, formulation):
        # a system handed over as its rows derives the built system's blocks,
        # so it takes the same pivots to the same point and objective bits
        H = builtin_code("ldpc-48-24")
        for t in range(10):
            lp = build_program(H, sample_gamma(H.n, 5, t), formulation)
            cs = lp.constraints
            copy = ConstraintSystem(cs.num_vars, cs.indptr, cs.cols, cs.vals, cs.b)
            got = [solve(p) for p in (lp, dataclasses.replace(lp, constraints=copy))]
            assert got[0].iterations == got[1].iterations > 0
            assert got[0].point.tolist() == got[1].point.tolist()
            assert got[0].objective_value.hex() == got[1].objective_value.hex()


class TestPinnedResults:
    # pivots and objective bits of three AWGN decoding LPs per code, as the
    # entry-by-entry activity pass computed them before pricing went by block;
    # the chain's are those of its solve from the crash at the hard decision
    PINNED = {
        ("gallager-120-3-12", "feldman"): [(5, "0x0.0p+0"), (6, "0x0.0p+0"), (12, "0x0.0p+0")],
        ("gallager-120-3-12", "decomposed"): [(23, "0x0.0p+0"), (29, "0x0.0p+0"),
                                              (44, "0x0.0p+0")],
        ("gallager-204-3-6", "feldman"): [(63, "0x0.0p+0"), (90, "-0x1.2b964e8b3d00bp-48"),
                                          (65, "0x0.0p+0")],
        ("gallager-204-3-6", "decomposed"): [(131, "0x0.0p+0"), (203, "0x1.4745888f108ffp-49"),
                                             (163, "0x1.926722248ff3cp-54")],
        ("interleaved", "feldman"): [(30, "0x0.0p+0"), (42, "-0x1.2c48c3e4738b8p-54"),
                                     (156, "-0x1.77f377653a42ep-1")],
        ("interleaved", "decomposed"): [(92, "0x0.0p+0"), (109, "0x0.0p+0"),
                                        (387, "-0x1.77f377653a405p-1")],
    }
    CODES = {"gallager-120-3-12": (lambda: gallager(120, 3, 12, 1), 0.6),
             "gallager-204-3-6": (lambda: gallager(204, 3, 6, 1), 0.8),
             "interleaved": (interleaved_code, 0.8)}

    @pytest.mark.parametrize("code, formulation", list(PINNED))
    def test_pivots_and_objective_bits(self, code, formulation):
        make, sigma = self.CODES[code]
        H, ch = make(), Awgn(sigma)
        got = []
        for t in range(3):
            gamma = llr_costs(transmit(np.zeros(H.n, dtype=int), ch, t), ch)
            sol = solve(build_program(H, gamma, formulation))
            got.append((sol.iterations, sol.objective_value.hex()))
        assert got == self.PINNED[code, formulation]

    @pytest.mark.parametrize("rows, seed, pinned", [
        (((0, 2, 4, 5), (0, 1, 3, 5, 6, 8, 9), (4, 5, 6, 7, 8, 9), (0, 4, 5, 6, 7),
          (0, 4, 5, 6, 9), (0, 1, 2, 3, 5, 6, 9), (1,)), 34, (26, "-0x1.56088c6674582p+2")),
        (((1, 2, 3, 5, 8), (5,), (1, 3, 6), (4, 7, 8), (0, 3), (1, 2, 6, 7, 8, 10),
          (0, 2, 5, 6, 7, 8, 9), (4, 7, 10)), 36, (19, "-0x1.5c93053f68e53p+2")),
        (((0, 1, 2, 3, 4, 6, 9), (1, 2, 4), (0, 1, 2, 3, 4, 7), (2, 4, 5, 7, 8), (2,), (3, 7)),
         42, (29, "-0x1.7fb5441f36bc8p+3")),
    ], ids=["n10", "n11", "n10b"])
    def test_degrees_of_one_check(self, rows, seed, pinned):
        # a degree held by a single check prices one support, which BLAS's
        # gemv would sum out of order; wide bounds make the order show
        H = ParityCheckMatrix(n=max(map(max, rows)) + 1, rows=rows)
        lp = build_program(H, sample_gamma(H.n, 9, seed), "feldman")
        lp.bounds = [(-1.0 - j % 3, 1.0 + j % 2) for j in range(H.n)]
        sol = solve(lp)
        assert (sol.iterations, sol.objective_value.hex()) == pinned


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


    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_gallager_204_decoding_lps(self, formulation):
        # a 3264x204 odd-subset LP and a 1632x510 chain LP per trial
        linprog = pytest.importorskip("scipy.optimize").linprog
        H, ch = gallager(204, 3, 6, 1), Awgn(0.7)
        for s in range(3):
            gamma = llr_costs(transmit(np.zeros(H.n, dtype=int), ch, s), ch)
            lp = build_program(H, gamma, formulation)
            A, b = (np.asarray(v) for v in lp.constraints.dense())
            ref = linprog(lp.objective, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
            sol = solve(lp)
            assert ref.status == 0 and sol.status == "optimal"
            assert abs(sol.objective_value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            assert np.all(A @ sol.point <= b + 1e-9)


@st.composite
def general_lps(draw):
    """1-5 variables, 1-7 integer rows, bounds from -4 to +6, integer costs."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 7))
    A = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    b = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    lo = draw(st.lists(st.integers(-4, 2), min_size=n, max_size=n))
    width = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    c = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return (np.array(A, dtype=float), np.array(b, dtype=float),
            [(float(l), l + w) for l, w in zip(lo, width)], [float(v) for v in c])


def solve_dense(A, b, bounds, c, trace=None):
    rows = [({j: v for j, v in enumerate(row) if v}, rhs) for row, rhs in zip(A, b)]
    return solve(LinearProgram(c, make_cs(rows, len(c)), bounds), trace=trace)


class TestAgainstHighsGeneral:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(general_lps())
    def test_general_lps(self, lp):
        # every bound is finite, so each LP is optimal or infeasible
        linprog = pytest.importorskip("scipy.optimize").linprog
        A, b, bounds, c = lp
        ref = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        sol = solve_dense(A, b, bounds, c)
        assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
        if sol.status == "optimal":
            assert abs(sol.objective_value - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
            x = sol.point
            assert np.all(A @ x <= b + 1e-9)
            assert all(lo - 1e-9 <= v <= up + 1e-9 for v, (lo, up) in zip(x, bounds))


class TestAntiCycling:
    # STALL_LIMIT = 1 puts the dual loop on Bland's rule after any pivot that
    # does not move the objective

    def test_bland_rule_keeps_formulations_equal(self, monkeypatch):
        monkeypatch.setattr(lpsolver, "STALL_LIMIT", 1)
        for name, draws in (("paper-example", 100), ("hamming-7-4", 100), ("ldpc-48-24", 30)):
            H = builtin_code(name)
            for t in range(draws):
                gamma = sample_gamma(H.n, 404, t)  # criterion 4's costs
                f, d = (solve(build_program(H, gamma, form)) for form in ("feldman", "decomposed"))
                assert f.status == d.status == "optimal"
                assert abs(f.objective_value - d.objective_value) <= 1e-7

    def test_bland_rule_in_the_dual_loop(self, monkeypatch):
        # the dual loop under STALL_LIMIT = 1 must reach the same status and
        # objective as under the default limit, on a path of its own for some
        rng = np.random.default_rng(7)
        lps = []
        for _ in range(300):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            lo = rng.integers(-4, 1, n).astype(float)
            up = lo + rng.integers(0, 5, n)
            lps.append((rng.integers(-3, 4, (m, n)).astype(float),
                        rng.integers(-1, 5, m).astype(float),
                        list(zip(lo, up)), list(rng.integers(-3, 4, n).astype(float))))

        def traced(lp):
            trace = []
            return solve_dense(*lp, trace=trace.append), trace

        reference = [traced(lp) for lp in lps]
        monkeypatch.setattr(lpsolver, "STALL_LIMIT", 1)
        differ = 0
        for lp, (ref, ref_trace) in zip(lps, reference):
            sol, trace = traced(lp)
            differ += trace != ref_trace
            assert sol.status == ref.status
            if sol.status == "optimal":
                assert sol.objective_value == pytest.approx(ref.objective_value, abs=1e-9)
        assert differ > 0

    def test_dual_loop_on_beales_cycling_lp(self):
        # Beale's LP cycles under Dantzig's primal most-negative-cost rule; on
        # [0, 10] bounds the start puts a and c at 10, which violates only
        # c <= 1, and the dual loop reaches the optimum in two pivots
        rows = [({0: 0.25, 1: -8, 2: -1, 3: 9}, 0), ({0: 0.5, 1: -12, 2: -0.5, 3: 3}, 0),
                ({2: 1}, 1)]
        trace = []
        sol = solve(LinearProgram([-0.75, 20.0, -0.5, 6.0], make_cs(rows, 4), [(0.0, 10.0)] * 4),
                    trace=trace.append)
        assert [(e.kind, e.entering, e.leaving) for e in trace] == [
            ("pivot", 2, 6), ("pivot", 0, 5)]
        assert sol.status == "optimal"
        assert sol.point == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)
        assert sol.objective_value == pytest.approx(-1.25, abs=1e-12)


def textbook_pivot(T, r, k):
    """The dense pivot on (r, k): every cell T[i, j] - T[i, k] * (T[r, j] / T[r, k])."""
    piv = T[r, k]
    piv_row = T[r] / piv
    out = T - np.outer(T[:, k], piv_row)
    out[r] = piv_row
    out[:, k] = T[:, k] / -piv
    out[r, k] = 1.0 / piv
    return out


class TestPivot:
    @pytest.mark.parametrize("density", [0.2, 0.9], ids=["row-sparse", "dense"])
    def test_matches_textbook_pivot(self, density):
        # the pivot row is the entering constraint's slack, which the tableau
        # does not store: the result must be the textbook pivot of the tableau
        # with that row inserted, with the row then dropped.  np.array_equal
        # compares -0.0 equal to 0.0: the row-sparse update skips the rows
        # that would only have had a signed zero subtracted
        rng = np.random.default_rng(2005)
        n, k = 40, 4
        T = rng.uniform(-3.0, 3.0, (n + 1, n + 1)) * (rng.random((n + 1, n + 1)) < density)
        row = rng.uniform(-3.0, 3.0, n + 1)
        row[k] = -1.75
        assert (2 * np.count_nonzero(T[:, k]) < n + 1) == (density < 0.5)
        # x's n rows, then the objective row; n active slack columns, then the rhs
        expected = np.delete(textbook_pivot(np.insert(T, n, row, axis=0), n, k), n, axis=0)
        lpsolver._pivot(T, row, k)
        assert np.array_equal(T, expected)


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


def crash_by_pivots(T, nonbasic, cs, crash):
    """The crash as one `_pivot` per variable in level order, each row built as
    the dual loop builds it."""
    n = T.shape[0] - 1
    for variables, rows in crash:
        for z, r in zip(variables.tolist(), rows.tolist()):
            s, e = cs.indptr[r], cs.indptr[r + 1]
            row = cs.vals[s:e] @ T[cs.cols[s:e]]
            np.negative(row, out=row)
            row[-1] += cs.b[r]
            lpsolver._pivot(T, row, z)
            nonbasic[z] = n + r


def started(lp):
    """The tableau, the active set and the 0/1 point a solve of lp starts from,
    before its crash."""
    lo, up = lp.resolved_bounds()
    return lpsolver._start(np.asarray(lp.objective, dtype=float), lo, up)


def crash_levels(table, nonbasic):
    """The auxiliaries a crash made basic, with their rows, as levels of
    (variables, rows): an auxiliary's level is its count of Q, so the
    auxiliaries it needs basic first are on the levels below it."""
    n = nonbasic.size
    level = np.add.reduceat(table.signs < 0, table.starts)
    crashed = nonbasic[table.aux] != table.aux
    return tuple((table.aux[on], nonbasic[table.aux[on]] - n)
                 for on in (crashed & (level == q) for q in range(1, level.max(initial=0) + 1))
                 if on.any())


def crashed_start(lp):
    """The tableau and active set after lp's crash, and the crash as levels."""
    T, nonbasic, high = started(lp)
    lpsolver._crash(T, nonbasic, high, lp.constraints, lp.objective, lp.crash)
    return T, nonbasic, crash_levels(lp.crash, nonbasic)


def assert_crash_is_pivots(lp):
    """Check lp's crash against one `_pivot` per crashed variable, entry for entry;
    return its levels."""
    T, nonbasic, levels = crashed_start(lp)
    T_seq, nonbasic_seq, _ = started(lp)
    crash_by_pivots(T_seq, nonbasic_seq, lp.constraints, levels)
    assert np.array_equal(T, T_seq)
    assert np.array_equal(nonbasic, nonbasic_seq)
    return levels


class TestCrash:
    CODES = {"ldpc-48-24": lambda: builtin_code("ldpc-48-24"),
             "interleaved": interleaved_code,
             "gallager-120-3-12": lambda: gallager(120, 3, 12, 1),
             # one degree-40 check: 37 auxiliaries on 19 levels
             "gallager-40-1-40": lambda: gallager(40, 1, 40, 1),
             # short checks first, so the chain's supports are not where H's are
             "random-with-short-checks": lambda: ParityCheckMatrix(n=25, rows=(
                 (3,), (0, 7), *random_matrix(np.random.default_rng(3), 12, 4, 12).rows))}

    @pytest.mark.parametrize("code", list(CODES))
    def test_one_step_per_level_is_one_pivot_per_variable(self, code):
        H = self.CODES[code]()
        for t in range(3):
            levels = assert_crash_is_pivots(
                build_program(H, sample_gamma(H.n, 22, t), "decomposed"))
            assert levels
            if code == "gallager-40-1-40":
                assert len(levels) == 19 and sum(len(z) for z, _ in levels) == 37

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["uniform", "awgn", "bsc"]))
    def test_crash_keeps_the_optimum(self, seed, costs):
        H = random_matrix(np.random.default_rng(seed), max_checks=10, min_degree=1, max_degree=12)
        if costs == "uniform":
            gamma = sample_gamma(H.n, seed, 0)
        else:
            ch = Awgn(0.8) if costs == "awgn" else Bsc(0.1)
            gamma = llr_costs(transmit(np.zeros(H.n, dtype=int), ch, seed), ch)
        lp = build_program(H, gamma, "decomposed")
        if lp.crash is not None:
            assert_crash_is_pivots(lp)
        crashed = solve(lp)
        plain = solve(LinearProgram(lp.objective, lp.constraints))
        feldman = solve(build_program(H, gamma, "feldman"))
        assert crashed.status == plain.status == feldman.status == "optimal"
        assert abs(crashed.objective_value - plain.objective_value) <= 1e-9
        assert abs(crashed.objective_value - feldman.objective_value) <= 1e-7

    def test_iterations_count_only_the_dual_loop(self):
        H = builtin_code("ldpc-48-24")
        lp = build_program(H, sample_gamma(H.n, 1, 0), "decomposed")
        trace = []
        sol = solve(lp, trace=trace.append)
        assert [e.iteration for e in trace] == list(range(sol.iterations))
        assert sol.iterations < solve(LinearProgram(lp.objective, lp.constraints)).iterations

    @pytest.fixture
    def lp(self):
        H = builtin_code("ldpc-48-24")
        lp = build_program(H, sample_gamma(H.n, 1, 0), "decomposed")
        levels = crashed_start(lp)[2]
        assert len(levels) == 2 and all(len(z) > 1 for z, _ in levels)
        return lp

    def test_crash_variable_with_a_cost(self, lp):
        objective = lp.objective.copy()
        objective[crashed_start(lp)[2][1][0][0]] = 0.5  # a crashed variable of level 2
        costly = dataclasses.replace(lp, objective=objective)
        assert solve(lp).status == "optimal"
        for _ in range(2):  # checked on each solve
            with pytest.raises(SolverError, match="cost 0"):
                solve(costly)

    def test_chain_bits_rolled(self, lp):
        table = lp.crash
        d = table.first[1]  # the first check's degree
        for support in (np.roll(table.support, 1),  # across the checks
                        np.r_[np.roll(table.support[:d], 1), table.support[d:]],  # within one
                        # shifted by one place, still increasing
                        np.r_[table.support[:d - 1], table.support[d - 1] + 1, table.support[d:]]):
            with pytest.raises(RelaxationError):
                dataclasses.replace(table, support=support)

    def test_chain_bits_repeated(self):
        # the system holds this chain's triples (0,1,z1), (z1,0,z2), (z2,2,z3),
        # (z3,3,4), but z2's P would hold bit 0 twice, and its closed form
        # would not be its pivots'
        cs = decomposed_system(ParityCheckMatrix(n=8, rows=(
            (0, 1, 5), (0, 5, 6), (2, 6, 7), (3, 4, 7))), 5)
        with pytest.raises(RelaxationError, match="must increase"):
            ChainCrash(cs, np.array([0, 1, 0, 2, 3, 4]), np.array([0]), np.array([0]))

    def test_two_checks_auxiliaries_swapped(self, lp):
        # the auxiliaries are numbered check after check, so listing two checks
        # the other way round gives each the other's auxiliaries
        table = lp.crash
        d = table.first[1]
        support = np.r_[table.support[d:2 * d], table.support[:d], table.support[2 * d:]]
        triple = np.r_[table.triple[1], table.triple[0], table.triple[2:]]
        with pytest.raises(RelaxationError, match="four rows"):
            dataclasses.replace(table, support=support, triple=triple)
        # swapping the triples alone, or the bits alone, is refused as well
        for changes in ({"support": support}, {"triple": triple}):
            with pytest.raises(RelaxationError, match="four rows"):
                dataclasses.replace(table, **changes)

    def test_crash_row_without_its_variable(self, lp):
        # a triple start off by one points the chain at rows without its auxiliaries
        for step in (1, -1):
            triple = lp.crash.triple.copy()
            triple[1] += step
            with pytest.raises(RelaxationError, match="four rows"):
                dataclasses.replace(lp.crash, triple=triple)

    @pytest.mark.parametrize("changes", [
        {"first": np.array([1, 6])}, {"first": np.array([0, 3])},
        {"triple": np.array([0])}, {"support": np.arange(5)}])
    def test_crash_checks_malformed(self, lp, changes):
        with pytest.raises(RelaxationError, match="four or more bits"):
            dataclasses.replace(lp.crash, **{"first": lp.crash.first[:2],
                                             "triple": lp.crash.triple[:2],
                                             "support": lp.crash.support[:12], **changes})

    @pytest.mark.parametrize("bit, triple", [(-1, 0), (0, -1), (10 ** 6, 0), (0, 10 ** 6)])
    def test_crash_index_out_of_range(self, lp, bit, triple):
        # put the bit `bit` and the triple start `triple` in the first check's place
        support, triples = lp.crash.support.copy(), lp.crash.triple.copy()
        support[0], triples[0] = bit, triple
        with pytest.raises(RelaxationError, match="out of range"):
            dataclasses.replace(lp.crash, support=support, triple=triples)

    def test_crash_table_of_another_system(self, lp):
        # the table is checked again against any other system a solve hands it
        cs = lp.constraints
        same = ConstraintSystem(cs.num_vars, cs.indptr, cs.cols, cs.vals, cs.b)
        assert solve(dataclasses.replace(lp, constraints=same)).point.tolist() == \
            solve(lp).point.tolist()
        r = lp.crash.rows[0, 0, 0]
        b = cs.b.copy()
        b[r] += 1.0  # the first auxiliary's candidate row is no longer tight
        vals = cs.vals.copy()
        vals[cs.indptr[r]:cs.indptr[r + 1]] *= -1.0  # nor this one
        shorter = len(cs.indptr) - 1 - 4  # the last triple's rows dropped
        for other, match in (
                (ConstraintSystem(cs.num_vars, cs.indptr, cs.cols, cs.vals, b), "four rows"),
                (ConstraintSystem(cs.num_vars, cs.indptr, cs.cols, vals, cs.b), "four rows"),
                (ConstraintSystem(cs.num_vars, cs.indptr[:shorter + 1],
                                  cs.cols[:cs.indptr[shorter]], cs.vals[:cs.indptr[shorter]],
                                  cs.b[:shorter]), "out of range")):
            with pytest.raises(SolverError, match=match):
                solve(dataclasses.replace(lp, constraints=other))

    @pytest.mark.parametrize("order", [[3, 2, 1, 0], [4, 5, 6, 7, 0, 1, 2, 3]])
    def test_crash_on_permuted_triple_rows(self, lp, order):
        # the same constraints in another order: the table's rows are no longer
        # the triples' rows, so the solve refuses it
        cs = lp.constraints
        order = np.r_[order, len(order):cs.b.size]
        start, end = cs.indptr[order], cs.indptr[order + 1]
        at = np.concatenate([np.arange(s, e) for s, e in zip(start, end)])
        permuted = ConstraintSystem(cs.num_vars, np.r_[0, np.cumsum(end - start)],
                                    cs.cols[at], cs.vals[at], cs.b[order])
        assert solve(LinearProgram(lp.objective, permuted)).objective_value == \
            pytest.approx(solve(lp).objective_value, abs=1e-9)
        with pytest.raises(SolverError, match="four rows"):
            solve(dataclasses.replace(lp, constraints=permuted))

    @pytest.mark.parametrize("other", [lambda: gallager(48, 3, 6, 1),
                                       lambda: builtin_code("hamming-7-4"),
                                       lambda: gallager(120, 3, 12, 1)],
                             ids=["gallager-48-3-6", "hamming-7-4", "gallager-120-3-12"])
    def test_crash_table_of_another_code(self, lp, other):
        H = other()
        table = build_program(H, sample_gamma(H.n, 1, 0), "decomposed").crash
        with pytest.raises(SolverError, match="does not fit"):
            solve(dataclasses.replace(lp, crash=table))

    def test_crash_with_other_bounds(self, lp):
        # the crash's closed form assumes a 0/1 start
        n = lp.constraints.num_vars
        for bounds in ([(0.0, 1.0)] * n, [(-1.0, 1.0)] * n):
            with pytest.raises(SolverError, match="bounds"):
                solve(dataclasses.replace(lp, bounds=bounds))
