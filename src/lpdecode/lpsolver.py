"""Self-contained dual simplex on an active-set tableau.

Solves min c.x subject to A.x <= b with finite per-variable bounds
lo <= x <= up (default [0, 1]).  The rows of A and the two box rows of each
variable, -x_j <= -lo_j and x_j <= up_j, form one list of constraints, each
with a slack, its rhs minus its activity, that must not go negative.  A vertex
is n active constraints, whose slacks are zero.  The tableau is therefore
(n+1)x(n+1) however many constraints there are: row j writes x_j, and the
last row -z, as a rhs minus a combination of the active constraints' slacks,
one column each, with the rhs in the last column.  The objective row then
holds the reduced costs, which are the active constraints' dual values.

A solve starts at the box corner each cost favours: x_j at up_j if c_j < 0,
else at lo_j, with that box row active.  Every reduced cost is then |c_j|, so
the start is dual feasible (for a decoding LP it is the hard decision), and
Lemke's dual simplex only has to repair the constraints it violates.  An LP
may carry a crash (Bixby, 1992): levels of zero-cost variables, each to be
made basic through a given row of A in place of its box row.  `solve` makes
those exchanges first, one vectorised step per level, and checks that each is
a unit-column pivot by +-1, so the point, the objective row and dual
feasibility are unchanged.  A chain LP starts auxiliaries this way at the hard
decision's parities, so the dual loop spends no pivot on swapping their box
rows for rows of their triples.  Each dual pivot computes the violation of
every constraint, takes the most violated one and builds only that
constraint's tableau row.  The
ratio test picks the active constraint it replaces, and a rank-1 update of the
n+1 rows makes the exchange; it touches only the rows whose entry in the pivot
column is nonzero while fewer than half of them are.  The loop ends at an
optimum or proves the LP infeasible, and `solve` checks that no reduced cost
went negative on the way.

The dual loop falls back to Bland's rule after STALL_LIMIT pivots that make
no progress.  Remaining ties break by lowest index, so the result is
deterministic.  An optional trace callback receives one `TraceEvent` per
dual pivot; the crash sends none.

The rows of A are priced by `ConstraintSystem.blocks`: all the checks of one
degree share one sign pattern, so one gather of x over their supports and one
matrix product give their rows' activities, each summed over its support in
column order, as an entry-by-entry pass would.  The entering row is built from
A's stored nonzeros, or is +-T[j] for a box row; the crash reads its rows from
`ConstraintSystem.by_row`.  The system holds its arrays
read-only and shares them with every solve of it, and `solve` never writes
them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .relaxation import ConstraintSystem

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-11
MAX_ITER = 50_000


class SolverError(Exception):
    pass


class DimensionError(SolverError):
    pass


class IterationLimitError(SolverError):
    """Pivot count exceeded the hard cap."""


@dataclass
class LinearProgram:
    objective: np.ndarray | Sequence[float]  # one cost per variable
    constraints: ConstraintSystem
    bounds: list[tuple[float, float]] | None = None  # default (0, 1) per variable
    # levels of (variables, rows) that `solve` makes basic before its dual loop
    crash: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def resolved_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds as float arrays; (0, 1) per variable by default."""
        n = self.constraints.num_vars
        if self.bounds is None:
            return np.zeros(n), np.ones(n)
        if len(self.bounds) != n:
            raise DimensionError(f"{len(self.bounds)} bounds for {n} variables")
        lo, up = np.array(self.bounds, dtype=float).reshape(n, 2).T
        # NaN fails every test; the solve may start a variable at either
        # bound, so both must be finite
        bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(up) & (lo <= up)))
        if bad.size:
            i = bad[0]
            raise DimensionError(f"variable {i}: bounds ({lo[i]}, {up[i]}) must be finite, "
                                 "the lower no greater than the upper")
        return lo, up


@dataclass
class LpSolution:
    status: str  # optimal | infeasible
    point: np.ndarray | None
    objective_value: float | None
    iterations: int = 0


def _pivot(T: np.ndarray, row: np.ndarray, k: int) -> None:
    """Make the constraint whose slack `row` writes active in place of column k's.

    `row` is that slack as a tableau row, rhs last, with row[k] nonzero.  The
    rank-1 update touches only the rows whose entry in column k is nonzero when
    fewer than half are: the others would only have a zero subtracted.
    """
    col = T[:, k].copy()
    piv = row[k]
    piv_row = row / piv
    rows = col.nonzero()[0]
    if 2 * rows.size < col.size:
        T[rows] -= np.multiply.outer(col[rows], piv_row)
    else:
        T -= np.multiply.outer(col, piv_row)
    T[:, k] = col / -piv


def _start(c: np.ndarray, lo: np.ndarray,
           up: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tableau, the active constraint of each column and `at_up` at the start.

    Each x_j starts at the bound its cost favours, so no reduced cost is
    negative: x_j = lo_j + s_j with -x_j <= -lo_j active, or x_j = up_j - s_j
    with x_j <= up_j active; the objective row is -z = -c.x minus |c_j| s_j.
    """
    n = c.size
    high = c < 0.0
    x0 = np.where(high, up, lo)
    T = np.zeros((n + 1, n + 1))
    T.ravel()[:n * (n + 2):n + 2] = np.where(high, 1.0, -1.0)  # the diagonal of T[:n, :n]
    T[:n, -1] = x0
    T[-1, :n] = np.abs(c)
    T[-1, -1] = -(c @ x0)
    return T, np.arange(n), high


def _crash(T: np.ndarray, nonbasic: np.ndarray, cs: ConstraintSystem, c: np.ndarray,
           crash: tuple[tuple[np.ndarray, np.ndarray], ...]) -> None:
    """Make each crash variable basic through its row, one level at a time.

    A level (variables, rows) makes variables[i] basic in place of its box
    row, with the row of A rows[i] active instead.  That is what `_pivot` does
    with that row's slack, one variable after another, but in one step per
    level, because no pivot of a level can see another: each variable must
    cost 0 and keep the unit column it started with, which no earlier crash
    row reached, so only its own row changes; and each row must hold its own
    variable with coefficient +-1 and no other variable of its level.
    Anything else raises SolverError.
    """
    n = T.shape[0] - 1
    reached: set[int] = set()  # the columns earlier crash pivots changed
    for level_index, (variables, rows) in enumerate(crash, 1):
        z = np.asarray(variables, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        zl, rl = z.tolist(), rows.tolist()
        if z.ndim != 1 or rows.shape != z.shape or (zl and not (
                0 <= min(zl) and max(zl) < n and 0 <= min(rl) and max(rl) < cs.b.size)):
            raise SolverError("a crash level pairs each of its variables with a row of A")
        if not zl:
            continue
        level = set(zl)
        if len(level) < len(zl) or not reached.isdisjoint(level) or np.count_nonzero(c[z]):
            raise SolverError(f"crash variables {zl} must each appear once, cost 0 and keep "
                              "the unit column they start with")
        cols, vals = (a[rows] for a in cs.by_row)
        # each row's activity minus its rhs, in the active slacks: minus its
        # slack's tableau row, as the dual loop builds that
        act = (vals[:, None] @ T[cols])[:, 0]
        # on the level's unit columns it is minus each row's coefficients there
        block = act[:, z]
        pivots = -block.diagonal()
        if np.count_nonzero(block) != z.size or not set(pivots.tolist()) <= {1.0, -1.0}:
            raise SolverError("each crash row must hold its own variable with coefficient +-1 "
                              "and no other variable of its level")
        if level_index < len(crash):
            reached.update(cols.ravel().tolist())
        act[:, -1] -= cs.b[rows]
        # `_pivot`'s update: column z is -e_z, so only row z changes, by its
        # slack's row over the pivot, and its entry in column z becomes 1 /
        # pivot, which is the pivot; all of it exact
        act *= pivots[:, None]
        T[z] -= act
        T[z, z] = pivots
        nonbasic[z] = rows + n


STALL_LIMIT = 1000  # dual pivots without progress before switching to Bland's rule


@dataclass(frozen=True)
class TraceEvent:
    """One dual pivot, as passed to `solve`'s trace callback.

    Variables are numbered structural [0, n), then one slack per row of A.  A
    structural variable is nonbasic while one of its box rows is active, and a
    slack while its row is: `leaving` names the constraint that becomes active,
    and `entering` the one it replaces.
    """
    iteration: int  # counted from 0
    kind: str  # pivot | leave-at-upper (a structural variable leaves at its other bound)
    entering: int  # the variable that enters the basis
    leaving: int  # the variable that leaves the basis


TraceCallback = Callable[[TraceEvent], None]

def _run_dual_simplex(T: np.ndarray, nonbasic: np.ndarray, at_up: np.ndarray,
                      cs: ConstraintSystem, lo: np.ndarray, up: np.ndarray,
                      trace: TraceCallback | None = None) -> tuple[int, str]:
    """Pivot until no constraint is violated (Lemke's dual simplex).

    The constraint list is each variable's two box rows, -x_j <= -lo_j and
    x_j <= up_j, first, then the rows of `cs`.  `nonbasic[k]` is the variable
    of column k's active constraint, and `at_up[j]` says whether
    x_j's box row last active was its upper one.  Every reduced cost in the
    objective row must be nonnegative on entry, and the ratio test keeps it
    so.  The most violated constraint joins the active set, the first in the
    list on ties, which is the one of the lowest variable index; its variable
    leaves the basis.  A structural variable that leaves at the other bound
    than the one it last sat at is a leave-at-upper (the bounded simplex
    holds it complemented, and it leaves above its upper bound).  The entering column
    minimises max(reduced cost, 0) / -row[j] over the new constraint's
    tableau row entries row[j] < -1e-7 (or, if there are none, < -PIVOT_TOL);
    ties go to the largest |pivot| and then to the lowest variable index.  A
    row with no eligible entry proves the LP infeasible.  After STALL_LIMIT
    consecutive pivots without progress, Bland's rule takes over (the first
    violated constraint joins, the lowest tied variable index enters) until
    the objective moves.
    """
    n = T.shape[0] - 1
    indptr, cols, vals, b, blocks = cs.indptr, cs.cols, cs.vals, cs.b, cs.blocks
    x = T[:n, -1]  # a view: the pivots update it in place
    viol = np.empty(2 * n + b.size)  # each constraint's activity minus its rhs
    below, above, viol_a = viol[:2 * n:2], viol[1:2 * n:2], viol[2 * n:]
    it = 0
    stall = 0
    use_bland = False
    last_obj = T[-1, -1]
    while True:
        np.subtract(lo, x, out=below)
        np.subtract(x, up, out=above)
        for rows, supports, signs in blocks:
            g = x[supports]
            if len(g) > 1:  # a gemm, which sums each row over its support in order
                viol_a[rows] = (g @ signs).ravel()
            else:  # one support: NumPy would call gemv or dot, which may sum out of order
                viol_a[rows] = sum(g.T * signs, 0.0)
        viol_a -= b
        if use_bland:
            violated = (viol > FEAS_TOL).nonzero()[0]
            if violated.size == 0:
                return it, "feasible"
            r = violated[0]
        else:
            r = int(viol.argmax())
            if viol[r] <= FEAS_TOL:
                return it, "feasible"
        # the constraint's slack, rhs minus activity, written in the active slacks
        crossed = False  # a structural variable leaving at its other bound
        if r < 2 * n:  # up_j - x_j or x_j - lo_j
            leaving, upper = divmod(r, 2)
            row = -T[leaving] if upper else T[leaving].copy()
            row[-1] += up[leaving] if upper else -lo[leaving]
            crossed = upper != at_up[leaving]
            at_up[leaving] = upper
        else:
            i = r - 2 * n
            s, e = indptr[i], indptr[i + 1]
            row = vals[s:e] @ T[cols[s:e]]
            np.negative(row, out=row)
            row[-1] += b[i]
            leaving = r - n
        coef = row[:-1]
        cand = (coef < -1e-7).nonzero()[0]
        if cand.size == 0:
            cand = (coef < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return it, "infeasible"
        if cand.size > 1:
            size = coef[cand]
            ratios = np.maximum(T[-1, cand], 0.0)
            ratios /= size  # minus each ratio: the entries are negative
            tied = (ratios >= ratios.max() - FEAS_TOL).nonzero()[0]
            if tied.size > 1:
                cand, size = cand[tied], size[tied]
                if not use_bland:
                    cand = cand[size == size.min()]  # largest |pivot|
            else:
                cand = cand[tied]
        k = cand[nonbasic[cand].argmin()] if cand.size > 1 else cand[0]
        entering = nonbasic[k]
        if trace is not None:
            trace(TraceEvent(it, "leave-at-upper" if crossed else "pivot",
                             int(entering), int(leaving)))
        _pivot(T, row, k)
        nonbasic[k] = leaving
        it += 1
        if it > MAX_ITER:
            raise IterationLimitError(f"exceeded {MAX_ITER} pivots")
        obj = T[-1, -1]
        if obj < last_obj - FEAS_TOL * max(1.0, abs(last_obj)):
            # objective row stores -z, and a dual pivot can only raise z
            stall = 0
            use_bland = False
            last_obj = obj
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                use_bland = True


def solve(lp: LinearProgram, trace: TraceCallback | None = None) -> LpSolution:
    """Solve the program, returning an optimal vertex or infeasible.

    The LP's crash, if any, is applied first (see `_crash`; a bad one raises
    SolverError).  `iterations` and `trace`, which, if given, is called with a
    `TraceEvent` for every pivot, cover the dual loop's pivots only.
    """
    cs = lp.constraints
    n = cs.num_vars
    c = np.asarray(lp.objective, dtype=float)
    if c.shape != (n,):
        raise DimensionError(f"objective shape {c.shape} != ({n},)")
    if not np.isfinite(c).all():
        raise DimensionError("objective has a non-finite cost")
    lo, up = lp.resolved_bounds()
    T, nonbasic, high = _start(c, lo, up)
    if lp.crash:
        _crash(T, nonbasic, cs, c, lp.crash)

    iters, status = _run_dual_simplex(T, nonbasic, high, cs, lo, up, trace)
    if status == "infeasible":
        return LpSolution(status="infeasible", point=None,
                          objective_value=None, iterations=iters)
    if np.count_nonzero(T[-1, :-1] < -FEAS_TOL):
        # the dual ratio test keeps every reduced cost nonnegative, so the
        # feasible basis it ends on is optimal unless that invariant broke
        raise SolverError("the dual simplex ended with a negative reduced cost")
    x = T[:n, -1].copy()
    return LpSolution(status="optimal", point=x, objective_value=float(c @ x),
                      iterations=iters)


def is_integral(point, tol: float) -> tuple[bool, list[int] | None]:
    """True plus the rounded 0/1 vector iff every coordinate is within tol of 0 or 1."""
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tolerance must be in (0, 0.5), got {tol}")
    x = np.asarray(point, dtype=float)
    if not ((np.abs(x) <= tol) | (np.abs(x - 1.0) <= tol)).all():
        return False, None
    return True, (x > 0.5).astype(int).tolist()
