"""Self-contained dual-then-primal simplex on a condensed, bounded-variable tableau.

Solves min c.x subject to A.x <= b with per-variable bounds (default [0, 1]).
Lower bounds are shifted out and every row gets a slack.  The tableau is in
condensed (dictionary) form: one row per constraint plus the objective row,
and one column per nonbasic variable plus the rhs.  Finite upper bounds are
not rows; Dantzig's upper-bounding technique (Chvatal, Linear Programming,
1983) handles them.  A nonbasic variable at its upper bound is held
complemented (u - x), so every nonbasic variable sits at zero.

A solve starts with every variable at the bound its cost favours: a variable
with a negative cost is complemented to its upper bound.  That start is dual
feasible (for a decoding LP it is the hard decision), so Lemke's dual simplex
only has to repair the rows it violates; a basic variable above its upper
bound is complemented as it leaves.  A negative cost on an infinite upper
bound counts as 0 until the dual phase ends, and the primal simplex then
finishes from the feasible basis, where it can also find the LP unbounded.
In the primal loop an entering variable that reaches its own bound first
flips without a pivot, and a basic variable that leaves at its upper bound is
complemented as it leaves.

The primal loop runs on Bland's rule throughout (lowest index enters and
leaves), so it cannot cycle.  The dual loop falls back to Bland's rule after
STALL_LIMIT pivots that make no progress.  Remaining ties break by lowest
index, so the result is deterministic.  An optional trace callback receives
one `TraceEvent` per iteration of either loop.

The constraint matrix comes from `ConstraintSystem.arrays`, which the system
holds read-only and shares with every solve of it; `solve` copies it into its
own tableau and never writes it.
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

    def resolved_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds as float arrays; (0, 1) per variable by default."""
        n = self.constraints.num_vars
        if self.bounds is None:
            return np.zeros(n), np.ones(n)
        if len(self.bounds) != n:
            raise DimensionError(f"{len(self.bounds)} bounds for {n} variables")
        lo, up = np.array(self.bounds, dtype=float).reshape(n, 2).T
        # NaN fails both tests; an upper bound may be +inf, a lower bound
        # must be finite because the solve shifts it out
        bad = np.flatnonzero(~(np.isfinite(lo) & (lo <= up)))
        if bad.size:
            i = bad[0]
            raise DimensionError(f"variable {i}: bounds ({lo[i]}, {up[i]}) need a finite "
                                 "lower bound no greater than the upper bound")
        return lo, up


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    point: np.ndarray | None
    objective_value: float | None
    iterations: int = 0


def _pivot(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, r: int, k: int) -> None:
    """Exchange the basic variable of row r with the nonbasic variable of column k.

    T is column-major, so the rank-1 update is built as the transpose of a
    row-major outer product to match its layout.  While the tableau is young
    its pivot rows are sparse, and only their nonzero columns are updated.
    """
    col = T[:, k].copy()
    piv = col[r]
    piv_row = T[r] / piv
    nz = np.nonzero(piv_row)[0]
    if 2 * nz.size < piv_row.size:
        T[:, nz] -= np.outer(piv_row[nz], col).T
    else:
        T -= np.outer(piv_row, col).T
    T[r] = piv_row
    T[:, k] = col / -piv
    T[r, k] = 1.0 / piv
    basis[r], nonbasic[k] = nonbasic[k], basis[r]


def _complement(T: np.ndarray, k: int, u: float) -> None:
    """Substitute u - y for the nonbasic variable y of column k (a bound flip)."""
    T[:, -1] -= u * T[:, k]
    T[:, k] *= -1.0


STALL_LIMIT = 1000  # dual pivots without progress before switching to Bland's rule


@dataclass(frozen=True)
class TraceEvent:
    """One iteration of either loop, as passed to `solve`'s trace callback.

    Variables are numbered structural [0, n), then one slack per row.
    """
    loop: str  # dual | primal
    iteration: int  # counted from 0 across both loops
    kind: str  # pivot | flip | leave-at-upper
    entering: int  # the variable that enters the basis, or that flips
    leaving: int | None  # the variable that leaves the basis; None for a flip


TraceCallback = Callable[[TraceEvent], None]

def _run_dual_simplex(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                      upper: np.ndarray, flipped: np.ndarray,
                      trace: TraceCallback | None = None) -> tuple[int, str]:
    """Pivot until every basic variable lies within its bounds (Lemke's dual simplex).

    Every reduced cost in the objective row must be nonnegative on entry, and
    the ratio test keeps it so.  The row with the largest bound violation
    leaves; a basic variable above its upper bound is complemented as it
    leaves, so its row then holds a negative rhs like one below zero.  The
    entering column minimises max(reduced cost, 0) / -T[r, j] over entries
    T[r, j] < -1e-7 (or, if there are none, < -PIVOT_TOL); ties go to the
    largest |pivot| and then to the lowest variable index.  A row with no
    eligible entry proves the LP infeasible.  After STALL_LIMIT consecutive
    pivots without progress, Bland's rule takes over (the lowest basic index
    among the violated rows leaves, the lowest tied variable index enters)
    until the objective moves.  Work buffers are allocated once per call.
    """
    m = T.shape[0] - 1
    ub = upper[basis]  # upper bound of each row's basic variable, kept in step
    viol = np.empty(m)
    over = np.empty(m)
    ratios = np.empty(T.shape[1] - 1)
    scaled = np.empty_like(ratios)
    eligible = np.empty(ratios.size, dtype=bool)
    it = 0
    stall = 0
    use_bland = False
    last_obj = T[-1, -1]
    while True:
        rhs = T[:m, -1]
        np.subtract(rhs, ub, out=over)
        np.negative(rhs, out=viol)
        np.maximum(viol, over, out=viol)
        if use_bland:
            violated = np.nonzero(viol > FEAS_TOL)[0]
            if violated.size == 0:
                return it, "feasible"
            r = violated[np.argmin(basis[violated])]
        else:
            if viol.max(initial=0.0) <= FEAS_TOL:
                return it, "feasible"
            r = int(viol.argmax())
        leaving = basis[r]
        at_upper = over[r] > 0.0
        if at_upper:
            # substitute ub - y for the basic y: negate the row, add ub to its rhs
            T[r] *= -1.0
            T[r, -1] += ub[r]
            flipped[leaving] ^= True
        row = T[r, :-1]
        np.less(row, -1e-7, out=eligible)
        if not eligible.any():
            np.less(row, -PIVOT_TOL, out=eligible)
            if not eligible.any():
                return it, "infeasible"
        np.maximum(T[-1, :-1], 0.0, out=scaled)
        np.negative(scaled, out=scaled)
        ratios.fill(np.inf)
        np.divide(scaled, row, out=ratios, where=eligible)
        np.less_equal(ratios, ratios.min() + FEAS_TOL, out=eligible)
        tied = np.flatnonzero(eligible)
        if not use_bland:
            size = row[tied]
            tied = tied[size == size.min()]  # largest |pivot|: the entries are negative
        k = tied[np.argmin(nonbasic[tied])]
        entering = nonbasic[k]
        if trace is not None:
            trace(TraceEvent("dual", it, "leave-at-upper" if at_upper else "pivot",
                             int(entering), int(leaving)))
        _pivot(T, basis, nonbasic, r, k)
        ub[r] = upper[entering]
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


def _run_simplex(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                 upper: np.ndarray, flipped: np.ndarray, start_iter: int,
                 trace: TraceCallback | None = None) -> tuple[int, str]:
    """Iterate from a feasible basis by Bland's rule until no reduced cost is negative.

    Every nonbasic variable sits at zero (a variable at its upper bound is
    held complemented, see `flipped`), so a negative reduced cost in the
    objective row (last) means the column can improve the objective.  The
    lowest variable index among those columns enters; the ratio test lets a
    basic variable leave at either bound, and the lowest basic index among
    the tied rows leaves.  Bland's rule cannot cycle.  When the entering
    variable reaches its own upper bound first, it flips instead of pivoting,
    and the flip counts as an iteration.  On a basis the dual phase left
    optimal this returns at once.
    """
    m = T.shape[0] - 1
    it = start_iter
    while True:
        negs = np.nonzero(T[-1, :-1] < -FEAS_TOL)[0]
        if negs.size == 0:
            return it, "optimal"
        k = negs[np.argmin(nonbasic[negs])]
        col = T[:m, k]
        ub = upper[basis]
        rhs = np.minimum(np.maximum(T[:m, -1], 0.0), ub)  # clamp roundoff past a bound
        # a basic variable falls to 0 where col > 0 and rises to its upper
        # bound where col < 0 (never, for an infinite one).  Prefer
        # well-scaled pivot elements; fall back to tiny ones only if nothing
        # better exists (guards against roundoff blow-up)
        gap = np.where(col > 0.0, rhs, rhs - ub)
        ratios = np.divide(gap, col, out=np.full(m, np.inf), where=np.abs(col) > 1e-7)
        rmin = ratios.min(initial=np.inf)
        if rmin == np.inf:
            np.divide(gap, col, out=ratios, where=np.abs(col) > PIVOT_TOL)
            rmin = ratios.min(initial=np.inf)
        entering = nonbasic[k]
        if upper[entering] <= rmin:
            if upper[entering] == np.inf:
                return it, "unbounded"
            if trace is not None:
                trace(TraceEvent("primal", it, "flip", int(entering), None))
            _complement(T, k, upper[entering])
            flipped[entering] ^= True
        else:
            tied = np.nonzero(ratios <= rmin + FEAS_TOL)[0]
            r = tied[np.argmin(basis[tied])]
            leaving = basis[r]
            at_upper = col[r] < 0.0
            if trace is not None:
                trace(TraceEvent("primal", it, "leave-at-upper" if at_upper else "pivot",
                                 int(entering), int(leaving)))
            _pivot(T, basis, nonbasic, r, k)
            if at_upper:
                _complement(T, k, upper[leaving])
                flipped[leaving] ^= True
        it += 1
        if it > MAX_ITER:
            raise IterationLimitError(f"exceeded {MAX_ITER} pivots")


def solve(lp: LinearProgram, trace: TraceCallback | None = None) -> LpSolution:
    """Solve the program, returning an optimal vertex or infeasible/unbounded.

    `trace`, if given, is called with a `TraceEvent` for every iteration.
    """
    cs = lp.constraints
    n = cs.num_vars
    c = np.asarray(lp.objective, dtype=float)
    if c.shape != (n,):
        raise DimensionError(f"objective length {c.size} != num_vars {n}")
    if not np.isfinite(c).all():
        raise DimensionError("objective has a non-finite cost")
    lo, up = lp.resolved_bounds()

    A, b = cs.arrays  # shared and read-only; T below is the only copy written
    m = A.shape[0]
    # shift x = x' + lo so that 0 <= x' <= up - lo; each row gets a slack s >= 0.
    # Variables are numbered structural [0, n), slack [n, n+m); the slacks
    # start basic.
    offset = float(c @ lo)
    upper = np.concatenate([up - lo, np.full(m, np.inf)])
    flipped = np.zeros(n + m, dtype=bool)  # True: held as upper - value
    basis = n + np.arange(m)
    nonbasic = np.arange(n)
    T = np.zeros((m + 1, n + 1), order="F")
    T[:m, :n] = A
    T[:m, -1] = b - A @ lo
    T[-1, :n] = c

    # start at the bound each cost favours, so no reduced cost is negative: a
    # negative cost complements its variable to the upper bound, or counts as
    # 0 in the dual phase when that bound is infinite
    shifted = np.nonzero((c < 0.0) & (upper[:n] == np.inf))[0]
    high = np.nonzero((c < 0.0) & (upper[:n] < np.inf))[0]
    T[:, -1] -= T[:, high] @ upper[high]
    T[:, high] *= -1.0
    flipped[high] = True
    T[-1, shifted] = 0.0

    iters, status = _run_dual_simplex(T, basis, nonbasic, upper, flipped, trace)
    if status == "infeasible":
        return LpSolution(status="infeasible", point=None,
                          objective_value=None, iterations=iters)
    if shifted.size:
        # objective row from c, the basis and the complemented variables
        cost = np.zeros(upper.size)
        cost[:n] = c
        const = float(cost[flipped] @ upper[flipped])
        cost[flipped] *= -1.0
        cb = cost[basis]
        T[-1, :-1] = cost[nonbasic] - cb @ T[:m, :-1]
        T[-1, -1] = -(const + cb @ T[:m, -1])

    iters, status = _run_simplex(T, basis, nonbasic, upper, flipped, iters, trace)
    if status == "unbounded":
        return LpSolution(status="unbounded", point=None,
                          objective_value=None, iterations=iters)
    y = np.zeros(upper.size)
    y[basis] = T[:m, -1]
    x = np.where(flipped[:n], upper[:n] - y[:n], y[:n])
    return LpSolution(status="optimal", point=x + lo,
                      objective_value=float(c @ x) + offset, iterations=iters)


def is_integral(point, tol: float) -> tuple[bool, list[int] | None]:
    """True plus the rounded 0/1 vector iff every coordinate is within tol of 0 or 1."""
    if not 0.0 < tol < 0.5:
        raise ValueError(f"tolerance must be in (0, 0.5), got {tol}")
    x = np.asarray(point, dtype=float)
    if not ((np.abs(x) <= tol) | (np.abs(x - 1.0) <= tol)).all():
        return False, None
    return True, (x > 0.5).astype(int).tolist()
