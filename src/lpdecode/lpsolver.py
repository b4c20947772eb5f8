"""Self-contained two-phase primal simplex on a condensed, bounded-variable tableau.

Solves min c.x subject to A.x <= b with per-variable bounds (default [0, 1]).
Lower bounds are shifted out and every row gets a slack.  The tableau is in
condensed (dictionary) form: one row per constraint plus the objective row,
and one column per nonbasic variable plus the rhs.  Finite upper bounds are
not rows; Dantzig's upper-bounding technique (Chvatal, Linear Programming,
1983) handles them.  A nonbasic variable at its upper bound is held
complemented (u - x), so every nonbasic variable sits at zero.  An entering
variable that reaches its own bound first flips without a pivot, and a basic
variable that leaves at its upper bound is complemented as it leaves.

Entering columns are priced by steepest edge over the most negative reduced
costs, with a fallback to Bland's rule after a run of pivots that make no
progress, so cycling cannot occur.  Remaining ties break by lowest index, so
the result is deterministic.

The constraint matrix comes from `ConstraintSystem.arrays`, which the system
computes once and shares read-only with every solve of it; `solve` copies it
into its own tableau and never writes it.
"""

from __future__ import annotations

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
    objective: list[float]
    constraints: ConstraintSystem
    bounds: list[tuple[float, float]] | None = None  # default (0, 1) per variable

    def resolved_bounds(self) -> list[tuple[float, float]]:
        n = self.constraints.num_vars
        if self.bounds is None:
            return [(0.0, 1.0)] * n
        if len(self.bounds) != n:
            raise DimensionError(f"{len(self.bounds)} bounds for {n} variables")
        for i, (lo, up) in enumerate(self.bounds):
            if lo > up:
                raise DimensionError(f"variable {i}: lower bound {lo} > upper bound {up}")
        return list(self.bounds)


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


STALL_LIMIT = 1000  # degenerate pivots before switching to Bland's rule
PRICE_CANDIDATES = 40  # columns kept for steepest-edge scoring per pivot


def _run_simplex(T: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                 upper: np.ndarray, flipped: np.ndarray, start_iter: int,
                 verbose: bool = False) -> tuple[int, str]:
    """Iterate until the objective row (last) has no negative reduced cost.

    Every nonbasic variable sits at zero (a variable at its upper bound is
    held complemented, see `flipped`), so a negative reduced cost means the
    column can improve the objective.  The entering column is chosen by
    steepest edge: the PRICE_CANDIDATES most negative reduced costs are each
    divided by the norm of their column, and the smallest score wins.  After
    STALL_LIMIT consecutive iterations without progress the rule falls back
    to Bland's (lowest variable index enters and leaves) until the objective
    moves, so cycling is impossible.  The ratio test lets a basic variable
    leave at either bound; when the entering variable reaches its own upper
    bound first, it flips instead of pivoting, and the flip counts as an
    iteration.  Remaining ties break by lowest index, so the path is
    deterministic.
    """
    m = T.shape[0] - 1
    it = start_iter
    stall = 0
    use_bland = False
    last_obj = T[-1, -1]
    while True:
        red = T[-1, :-1]
        negs = np.nonzero(red < -FEAS_TOL)[0]
        if negs.size == 0:
            return it, "optimal"
        if use_bland:
            k = negs[np.argmin(nonbasic[negs])]
        else:
            # steepest-edge pricing: normalize the reduced cost by the column
            # norm; scoring only the most negative candidates keeps it cheap
            if negs.size > PRICE_CANDIDATES:
                keep = np.argpartition(red[negs], PRICE_CANDIDATES)[:PRICE_CANDIDATES]
                negs = negs[keep]
            cols = T[:m, negs]
            scores = red[negs] / np.sqrt(1.0 + np.einsum("ij,ij->j", cols, cols))
            tied = negs[scores == scores.min()]
            k = tied[np.argmin(nonbasic[tied])]
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
            if verbose:
                print(f"iteration {it}: x{entering} flips to its bound {upper[entering]:.6g}")
            _complement(T, k, upper[entering])
            flipped[entering] ^= True
        else:
            tied = np.nonzero(ratios <= rmin + FEAS_TOL)[0]
            if use_bland:
                r = tied[np.argmin(basis[tied])]  # lowest-index basic variable leaves
            else:
                r = tied[np.argmax(np.abs(col[tied]))]  # largest pivot element for stability
            leaving = basis[r]
            at_upper = col[r] < 0.0
            if verbose:
                print(f"iteration {it}: enter x{entering}, leave row {r} (x{leaving}"
                      f"{' at its upper bound' if at_upper else ''}), ratio {rmin:.6g}")
            _pivot(T, basis, nonbasic, r, k)
            if at_upper:
                _complement(T, k, upper[leaving])
                flipped[leaving] ^= True
        it += 1
        if it > MAX_ITER:
            raise IterationLimitError(f"exceeded {MAX_ITER} pivots")
        obj = T[-1, -1]
        if obj > last_obj + FEAS_TOL * max(1.0, abs(last_obj)):
            # objective row stores -z, so an increase means real progress
            stall = 0
            use_bland = False
            last_obj = obj
        else:
            stall += 1
            if stall >= STALL_LIMIT:
                use_bland = True


def solve(lp: LinearProgram, verbose: bool = False) -> LpSolution:
    """Solve the program, returning an optimal vertex or infeasible/unbounded."""
    cs = lp.constraints
    n = cs.num_vars
    c = np.asarray(lp.objective, dtype=float)
    if c.shape != (n,):
        raise DimensionError(f"objective length {c.size} != num_vars {n}")
    bounds = lp.resolved_bounds()
    lo = np.array([b[0] for b in bounds], dtype=float)
    up = np.array([b[1] for b in bounds], dtype=float)

    A, b = cs.arrays  # shared and read-only; T below is the only copy written
    m = A.shape[0]
    # shift x = x' + lo so that 0 <= x' <= up - lo; each row gets a slack s >= 0
    b = b - A @ lo
    offset = float(c @ lo)

    # rows with negative rhs are negated so the tableau rhs is nonnegative;
    # each takes an artificial basic variable, and its slack (now with
    # coefficient -1) starts nonbasic.  Variables are numbered structural
    # [0, n), slack [n, n+m), artificial [n+m, n+m+n_art).
    neg = np.nonzero(b < 0)[0]
    n_art = neg.size
    b[neg] *= -1.0
    art = n + m
    upper = np.concatenate([up - lo, np.full(m + n_art, np.inf)])
    flipped = np.zeros(upper.size, dtype=bool)  # True: held as upper - value
    basis = n + np.arange(m)
    basis[neg] = art + np.arange(n_art)
    nonbasic = np.concatenate([np.arange(n), n + neg])
    T = np.zeros((m + 1, n + n_art + 1), order="F")
    T[:m, :n] = A
    T[neg, :n] *= -1.0
    T[neg, n + np.arange(n_art)] = -1.0
    T[:m, -1] = b

    if n_art:
        # phase 1: minimize the sum of the artificials
        T[-1] = -T[neg].sum(axis=0)
        iters, status = _run_simplex(T, basis, nonbasic, upper, flipped, 0, verbose)
        if status == "unbounded" or T[-1, -1] < -FEAS_TOL * max(1.0, abs(b).max()):
            return LpSolution(status="infeasible", point=None,
                              objective_value=None, iterations=iters)
        # pivot out any artificial still basic (at zero level); a row with no
        # other nonzero entry is redundant and dropped
        keep = np.ones(m + 1, dtype=bool)
        for r in np.nonzero(basis >= art)[0]:
            cand = np.nonzero((np.abs(T[r, :-1]) > PIVOT_TOL) & (nonbasic < art))[0]
            if cand.size:
                _pivot(T, basis, nonbasic, r, cand[np.argmin(nonbasic[cand])])
                iters += 1
            else:
                keep[r] = False
        cols = np.append(np.nonzero(nonbasic < art)[0], T.shape[1] - 1)
        T = np.asfortranarray(T[keep][:, cols])
        basis = basis[keep[:m]]
        nonbasic = nonbasic[cols[:-1]]
        m = basis.size
        # phase-2 objective row from c, the basis and the complemented variables
        cost = np.zeros(upper.size)
        cost[:n] = c
        const = float(cost[flipped] @ upper[flipped])
        cost[flipped] *= -1.0
        cb = cost[basis]
        T[-1, :-1] = cost[nonbasic] - cb @ T[:m, :-1]
        T[-1, -1] = -(const + cb @ T[:m, -1])
    else:
        iters = 0
        T[-1, :n] = c

    iters, status = _run_simplex(T, basis, nonbasic, upper, flipped, iters, verbose)
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
    rounded = []
    for v in point:
        if abs(v) <= tol:
            rounded.append(0)
        elif abs(v - 1.0) <= tol:
            rounded.append(1)
        else:
            return False, None
    return True, rounded
