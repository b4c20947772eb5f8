"""Self-contained dual simplex on a condensed, bounded-variable tableau.

Solves min c.x subject to A.x <= b with finite per-variable bounds (default
[0, 1]).  Lower bounds are shifted out and every row gets a slack.  The
tableau is in condensed (dictionary) form: one row per constraint plus the
objective row, and one column per nonbasic variable plus the rhs.  Upper
bounds are not rows; Dantzig's upper-bounding technique (Chvatal, Linear
Programming, 1983) handles them.  A nonbasic variable at its upper bound is
held complemented (u - x), so every nonbasic variable sits at zero.  The
tableau is row-major, and a pivot updates only the rows whose entry in the
pivot column is nonzero while fewer than half of them are.

A solve starts with every variable at the bound its cost favours: a variable
with a negative cost is complemented to its upper bound.  With every bound
finite that start is dual feasible (for a decoding LP it is the hard
decision), so Lemke's dual simplex only has to repair the rows it violates;
a basic variable above its upper bound is complemented as it leaves.  The
loop ends at an optimum or proves the LP infeasible, and `solve` checks that
no reduced cost went negative on the way.

The dual loop falls back to Bland's rule after STALL_LIMIT pivots that make
no progress.  Remaining ties break by lowest index, so the result is
deterministic.  An optional trace callback receives one `TraceEvent` per
pivot.

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
        # NaN fails every test; the solve shifts the lower bound out and may
        # start a variable at its upper bound, so both must be finite
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


def _pivot(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray, r: int, k: int) -> None:
    """Exchange the basic variable of row r with the nonbasic variable of column k.

    T is row-major, and the rank-1 update touches only the rows whose entry in
    the pivot column is nonzero when fewer than half are: the others would
    only have a zero subtracted.  The chain's tableau stays that sparse.
    """
    col = T[:, k].copy()
    piv = col[r]
    piv_row = T[r] / piv
    rows = col.nonzero()[0]
    if 2 * rows.size < col.size:
        T[rows] -= np.multiply.outer(col[rows], piv_row)
    else:
        T -= np.multiply.outer(col, piv_row)
    T[r] = piv_row
    T[:, k] = col / -piv
    T[r, k] = 1.0 / piv
    basis[r], nonbasic[k] = nonbasic[k], basis[r]


STALL_LIMIT = 1000  # dual pivots without progress before switching to Bland's rule


@dataclass(frozen=True)
class TraceEvent:
    """One dual pivot, as passed to `solve`'s trace callback.

    Variables are numbered structural [0, n), then one slack per row.
    """
    iteration: int  # counted from 0
    kind: str  # pivot | leave-at-upper (the leaving variable was above its upper bound)
    entering: int  # the variable that enters the basis
    leaving: int  # the variable that leaves the basis


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
    until the objective moves.  The ratio test computes only the eligible
    entries' ratios, and the tie-breaks run only when two or more tie.
    """
    m = T.shape[0] - 1
    ub = upper[basis]  # upper bound of each row's basic variable, kept in step
    viol = np.empty(m)
    over = np.empty(m)
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
        cand = (row < -1e-7).nonzero()[0]
        if cand.size == 0:
            cand = (row < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return it, "infeasible"
        if cand.size > 1:
            size = row[cand]
            ratios = -np.maximum(T[-1, cand], 0.0) / size
            tied = (ratios <= ratios.min() + FEAS_TOL).nonzero()[0]
            cand, size = cand[tied], size[tied]
            if cand.size > 1 and not use_bland:
                cand = cand[size == size.min()]  # largest |pivot|: the entries are negative
        k = cand[nonbasic[cand].argmin()] if cand.size > 1 else cand[0]
        entering = nonbasic[k]
        if trace is not None:
            trace(TraceEvent(it, "leave-at-upper" if at_upper else "pivot",
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


def solve(lp: LinearProgram, trace: TraceCallback | None = None) -> LpSolution:
    """Solve the program, returning an optimal vertex or infeasible.

    `trace`, if given, is called with a `TraceEvent` for every pivot.
    """
    cs = lp.constraints
    n = cs.num_vars
    c = np.asarray(lp.objective, dtype=float)
    if c.shape != (n,):
        raise DimensionError(f"objective shape {c.shape} != ({n},)")
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
    # start at the bound each cost favours, so no reduced cost is negative: a
    # negative cost complements its variable (column negated) to the upper bound
    high = c < 0.0
    sign = np.where(high, -1.0, 1.0)
    T = np.empty((m + 1, n + 1))
    np.multiply(A, sign, out=T[:m, :n])
    T[:m, -1] = b - A @ np.where(high, up, lo)
    T[-1, :n] = c * sign
    T[-1, -1] = -(c[high] @ upper[:n][high])
    flipped[:n] = high

    iters, status = _run_dual_simplex(T, basis, nonbasic, upper, flipped, trace)
    if status == "infeasible":
        return LpSolution(status="infeasible", point=None,
                          objective_value=None, iterations=iters)
    if (T[-1, :-1] < -FEAS_TOL).any():
        # the dual ratio test keeps every reduced cost nonnegative, so the
        # feasible basis it ends on is optimal unless that invariant broke
        raise SolverError("the dual simplex ended with a negative reduced cost")
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
