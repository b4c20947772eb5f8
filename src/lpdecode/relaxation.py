"""Feldman odd-subset inequality generation and the degree-3 chain reformulation.

Each parity check with support N yields one inequality per odd-cardinality
subset S of N:

    sum_{i in S} f_i - sum_{i in N\\S} f_i <= |S| - 1

The chain reformulation is itself a code: `decompose` rewrites each degree-d
check (d >= 4) as d-2 degree-3 checks linked by d-3 auxiliary variables, and
the chain relaxation is Feldman's system of that code.  It needs only
4*(d-2) rows per check, and the 0/1 box bounds become implied for every
variable covered by a degree-3 check.  `chain_crash` stores each chain once,
per code, in the table from which a solve writes, in closed form, the tableau
rows of a chain LP's auxiliaries made basic at a 0/1 start's parities.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .codes import MAX_ENTRIES, DegreeProfile, ParityCheckMatrix


class RelaxationError(ValueError):
    pass


@dataclass(slots=True)
class Row:
    """One inequality sum_i coeffs[i] * x_i <= rhs; coefficients are exact ints."""

    coeffs: dict[int, int]
    rhs: int


class _Rows(Sequence):
    """Read-only view of a system's rows as `Row`s, each built from its nonzeros on access."""

    def __init__(self, cs: ConstraintSystem):
        self._cs = cs

    def __len__(self) -> int:
        return self._cs.b.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        cs = self._cs
        i = range(len(self))[i]
        s, e = cs.indptr[i], cs.indptr[i + 1]
        return Row(dict(zip(cs.cols[s:e].tolist(), cs.vals[s:e].astype(int).tolist())),
                   int(cs.b[i]))


@dataclass(eq=False)
class ConstraintSystem:
    """A.x <= b over num_vars variables, stored by row only:
    A[i, cols[k]] = vals[k] for k in [indptr[i], indptr[i + 1]), cols strictly
    increasing within each row.  The arrays are checked once, when the system
    is made, and made read-only, so every solve can share them.  `rows` views
    them as `Row`s, and `blocks` prices them.
    """

    num_vars: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        arrays = (self.indptr, self.cols, self.vals, self.b)
        if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in arrays):
            raise RelaxationError("a system's indptr, cols, vals and b must be 1-D arrays")
        indptr, cols, m = self.indptr, self.cols, self.b.size
        if self.num_vars < 1:
            raise RelaxationError(f"a system needs a variable, got num_vars = {self.num_vars}")
        if indptr.dtype.kind != "i" or cols.dtype.kind != "i":
            raise RelaxationError("indptr and cols must hold signed integers")
        if (indptr.size != m + 1 or indptr[0] != 0 or indptr[-1] != cols.size
                or self.vals.size != cols.size or (indptr[1:] < indptr[:-1]).any()):
            raise RelaxationError(f"indptr must rise from 0 to the {cols.size} entries of cols, "
                                  f"one step per row of b ({m}), and vals hold one per entry")
        step = cols[1:] - cols[:-1]  # each entry's column over the one before it
        starts = indptr[1:-1]
        step[starts[(starts > 0) & (starts < cols.size)] - 1] = 1  # where a row starts
        if (cols.min(initial=0) < 0 or cols.max(initial=-1) >= self.num_vars
                or step.min(initial=1) < 1):
            raise RelaxationError(f"cols must lie in [0, {self.num_vars}) and increase "
                                  "strictly within each row")
        if not (np.isfinite(self.vals).all() and np.isfinite(self.b).all()):
            raise RelaxationError("vals and b must be finite")
        for a in arrays:
            a.flags.writeable = False

    @cached_property
    def blocks(self) -> tuple[tuple[slice | np.ndarray, np.ndarray, np.ndarray], ...]:
        """The rows as the solver prices them, derived from the rows on first read.

        A support is a run of consecutive rows over the same columns, cut
        after each row whose vals repeat the run's last row: two equal checks
        in a row stay two supports, as do a degree-1 check on x_0 and the box
        rows of x_0 after it.  The supports whose rows hold the same d x p
        signs, vals by column, share one block `(rows, supports, signs)`: the
        activities of the rows `rows` of A (a slice where they are contiguous,
        else their indices) are, support-major, `x[supports] @ signs`, with
        `supports` k x d.  The blocks come in the order of their first rows,
        and their arrays are read-only.  For a system `feldman_system` builds,
        that is one block per check degree, and one for the box rows.
        """
        found = []
        lengths = np.diff(self.indptr)
        for d in np.flatnonzero(np.bincount(lengths)).tolist():
            # the rows of d entries, their cols and vals one row each
            rows = np.flatnonzero(lengths == d)
            s, e = self.indptr[rows[0]], self.indptr[rows[-1] + 1]
            if e - s == rows.size * d:  # their entries are contiguous
                cols = self.cols[s:e].reshape(rows.size, d)
                vals = self.vals[s:e].reshape(rows.size, d)
            else:
                at = self.indptr[rows][:, None] + np.arange(d)
                cols, vals = self.cols[at], self.vals[at]
            # the last row of each row's run of consecutive rows over the same columns
            new = np.ones(rows.size, dtype=bool)
            new[1:] = (np.diff(rows) > 1) | (cols[1:] != cols[:-1]).any(axis=1)
            last = np.append(np.flatnonzero(new)[1:] - 1, rows.size - 1)[np.cumsum(new) - 1]
            first = np.flatnonzero(np.r_[True, (vals == vals[last]).all(axis=1)[:-1]])
            size = np.diff(first, append=rows.size)
            for p in np.flatnonzero(np.bincount(size)).tolist():
                starts = first[size == p]
                signs = vals[starts[:, None] + np.arange(p)].reshape(starts.size, -1)
                if (signs == signs[0]).all():
                    groups = [starts]
                else:  # by their signs' bytes, each group's supports in row order
                    key = signs.view(np.dtype((np.void, signs.itemsize * signs.shape[1])))[:, 0]
                    order = np.argsort(key, kind="stable")
                    key = key[order]
                    groups = np.split(starts[order], np.flatnonzero(key[1:] != key[:-1]) + 1)
                for group in groups:
                    found.append((rows[(group[:, None] + np.arange(p)).ravel()], cols[group],
                                  np.ascontiguousarray(vals[group[0]:][:p].T)))
        found.sort(key=lambda block: block[0][0])
        blocks = []
        for where, supports, signs in found:
            if where[-1] - where[0] + 1 == where.size:
                where = slice(int(where[0]), int(where[-1]) + 1)
            for a in (where, supports, signs):
                if isinstance(a, np.ndarray):
                    a.flags.writeable = False
            blocks.append((where, supports, signs))
        return tuple(blocks)

    @property
    def rows(self) -> Sequence[Row]:
        return _Rows(self)

    def dense(self):
        """Dense (A, b) as float lists, for golden comparisons."""
        A = np.zeros((self.b.size, self.num_vars))
        A[np.repeat(np.arange(self.b.size), np.diff(self.indptr)), self.cols] = self.vals
        return A.tolist(), self.b.tolist()


@dataclass(frozen=True)
class ConstraintCounts:
    feldman_parity_rows: int
    feldman_box_rows: int
    decomposed_rows: int
    aux_vars: int
    degree3_checks: int


@lru_cache(maxsize=64)
def _check_pattern(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only signs (+1 on S, -1 elsewhere) and rhs |S|-1 of a degree-d check,
    one row per odd subset S of its d positions, ascending size then
    lexicographic."""
    signs = np.full((2 ** (d - 1), d), -1.0)
    subsets = (S for k in range(1, d + 1, 2) for S in itertools.combinations(range(d), k))
    for r, positions in enumerate(subsets):
        signs[r, positions] = 1.0
    rhs = (signs > 0).sum(axis=1) - 1.0
    for a in (signs, rhs):
        a.flags.writeable = False
    return signs, rhs


def feldman_system(H: ParityCheckMatrix, include_boxes: bool = False) -> ConstraintSystem:
    """Full odd-subset system: checks in order, each check's rows by ascending
    odd-subset size, then lexicographic; with include_boxes, then -x_i <= 0 and
    x_i <= 1 for each i.

    Raises RelaxationError rather than store more than MAX_ENTRIES nonzeros.
    """
    return _odd_subset_system(H, include_boxes, "odd-subset system")


def _odd_subset_system(H: ParityCheckMatrix, include_boxes: bool, name: str) -> ConstraintSystem:
    """`feldman_system`, naming the system `name` if it is refused."""
    degrees = [len(s) for s in H.rows]
    counts = [1 << (d - 1) for d in degrees]  # a degree-d check's rows, d entries each
    boxes = 2 * H.n if include_boxes else 0
    entries = sum(d * k for d, k in zip(degrees, counts)) + boxes
    if entries > MAX_ENTRIES:
        raise RelaxationError(f"{name} of {entries} entries exceeds MAX_ENTRIES = {MAX_ENTRIES}")
    indptr = np.cumsum(np.repeat([0, *degrees, 1], [1, *counts, boxes]))
    cols = np.empty(entries, dtype=np.intp)
    vals = np.empty(entries)
    b = np.empty(indptr.size - 1)
    # each run of consecutive checks of one degree fills consecutive rows, each
    # holding its check's whole support, in column order, under the degree's signs
    i = row = at = 0
    for d, run in itertools.groupby(degrees):
        k = len(list(run))
        signs, rhs = _check_pattern(d)
        b[row:row + k * rhs.size].reshape(k, -1)[:] = rhs
        cols[at:at + k * signs.size].reshape(k, *signs.shape)[:] = \
            np.array(H.rows[i:i + k], dtype=np.intp)[:, None]
        vals[at:at + k * signs.size].reshape(k, *signs.shape)[:] = signs
        i, row, at = i + k, row + k * rhs.size, at + k * signs.size
    if include_boxes:
        cols[at:].reshape(-1, 2)[:] = np.arange(H.n)[:, None]
        vals[at:].reshape(-1, 2)[:] = -1.0, 1.0
        b[row:].reshape(-1, 2)[:] = 0.0, 1.0
    return ConstraintSystem(H.n, indptr, cols, vals, b)


def _chains(supports, next_aux: int):
    """Each support of 3 or more bits as (it, its chain's ends).

    The ends of a support (i_1,...,i_d) are (i_1, z_1, ..., z_{d-3}, i_d), with
    the auxiliary columns z numbered from next_aux, support after support.
    Triple t of the chain is (ends[t], support[t+1], ends[t+1]).
    """
    for support in supports:
        d = len(support)
        if d >= 3:
            yield support, (support[0], *range(next_aux, next_aux + d - 3), support[-1])
            next_aux += d - 3


def decompose(H: ParityCheckMatrix) -> ParityCheckMatrix:
    """The chain code of H, whose checks all have degree at most 3.

    A degree-d support (i_1,...,i_d) becomes the triples {i_1,i_2,z_1},
    {z_1,i_3,z_2}, ..., {z_{d-3},i_{d-1},i_d}, linked by d-3 auxiliary columns
    z numbered from H.n, check-major then chain order; a degree-3 check is its
    own triple.  The rows are each check's triples, sorted, in check order, then
    the checks of degree 1 and 2 unchanged; two checks may yield the same row.
    Restricted to the first H.n columns, the chain code's codewords are exactly
    H's, and each extends in exactly one way.
    """
    triples = [tuple(sorted(t)) for support, ends in _chains(H.rows, H.n)
               for t in zip(ends, support[1:-1], ends[1:])]
    short = tuple(support for support in H.rows if len(support) < 3)
    n = H.n + sum(len(support) - 3 for support in H.rows if len(support) > 3)
    return ParityCheckMatrix(n=n, rows=(*triples, *short))


@dataclass(frozen=True, eq=False)
class ChainCrash:
    """How each auxiliary z of a chain LP enters the basis at a 0/1 start.

    The table stores only the chains: the bits of each check with auxiliaries,
    and its chain's first triple t0, whose triple t is the rows 4(t0+t)..4(t0+t)+3
    of the system.  A degree-d check's auxiliaries z_1..z_k, k = d-3, are
    numbered after every bit, as `decompose` numbers them.  With q <=
    ceil(k/2), z_q is crashed from the chain's first end: P is the check's
    bits 0..q, Q is z_1..z_q, and its triple is triple q-1.  Otherwise it is
    crashed from the last end: P is bits d-1..q+1, Q is z_k..z_q, and its
    triple is triple q.  At a start with every auxiliary at 0, z takes the
    parity p of P.  Making each auxiliary of Q basic in turn, through its
    triple's row that is tight there, leaves z's tableau row (a rhs minus
    coefficients times the active constraints' slacks) with 2p-1 in the
    columns of P, 1-2p in those of Q, p as its rhs and nothing else.

    What `start` reads is derived from the chains once, as read-only arrays:
    each auxiliary's `check`, variable `aux`, middle bit `middle` (the last
    of P) and `rows[a, z, m]`, its triple's row tight at those values; and P
    then Q of each in `cols`, with `starts`, `owner` (an index into `aux`)
    and `signs` (1 in P, -1 in Q).  `verify` checks the chains against
    `system` when the table is built, and against any other system a solve
    hands it.
    """

    system: ConstraintSystem  # the chain system it was built for
    support: np.ndarray  # the bits of each check with auxiliaries, check after check
    first: np.ndarray  # where each such check starts in `support`
    triple: np.ndarray  # the first triple of each such check's chain

    def __post_init__(self):
        for a in (self.support, self.first, self.triple):
            a.flags.writeable = False
        degree = np.diff(self.first, append=self.support.size)
        if (self.first.shape != self.triple.shape or degree.sum() != self.support.size
                or (degree < 4).any()):
            raise RelaxationError("each check of a crash table needs four or more bits "
                                  "and a first triple")
        n = self.system.num_vars - (degree - 3).sum()  # the first auxiliary
        chains = _chains([bits.tolist() for bits in np.split(self.support, self.first[1:])], n)
        # the rows and sorted columns of each triple, then the closed form's arrays
        trows, tcols, per_aux, rows, cols = [], [], [], [], []
        for c, ((bits, ends), t0) in enumerate(zip(chains, self.triple.tolist())):
            trows += range(4 * t0, 4 * (t0 + len(bits) - 2))
            tcols += map(sorted, zip(ends, bits[1:-1], ends[1:]))
            k = len(bits) - 3
            for q in range(1, k + 1):
                if q <= (k + 1) // 2:
                    t, e, P, Q = q - 1, ends[q - 1], bits[:q + 1], ends[1:q + 1]
                else:
                    t, e, P, Q = q, ends[q + 1], bits[:q:-1], ends[k:q - 1:-1]
                m, z, r = P[-1], ends[q], 4 * (t0 + t)
                # row r + i has +1 at the triple's i-th column (all three if i = 3); the
                # row tight at z, m, e = z xor m has +1 at z if z = 0, m if m = 1, e if e = 1
                rows.append(((r + (z > e) + (z > m), r + 3),
                             (r + (e > z) + (e > m), r + (m > z) + (m > e))))
                per_aux.append((c, m, len(cols)))
                cols += (*P, *Q)
        check, middle, starts = np.array(per_aux, dtype=np.intp).reshape(-1, 3).T.copy()
        cols = np.array(cols, dtype=np.intp)
        for name, a in (("_trows", np.array(trows, dtype=np.intp).reshape(-1, 4)),
                        ("_tcols", np.array(tcols, dtype=np.intp).reshape(-1, 1, 3)),
                        ("check", check), ("aux", np.arange(n, self.system.num_vars)),
                        ("middle", middle),
                        ("rows", np.array(rows, dtype=np.intp).reshape(-1, 2, 2)),
                        ("cols", cols), ("starts", starts),
                        ("owner", np.repeat(np.arange(check.size),
                                            np.diff(starts, append=cols.size))),
                        ("signs", np.where(cols < n, 1, -1))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        self.verify(self.system)

    def verify(self, cs: ConstraintSystem) -> None:
        """Raise RelaxationError unless the table fits the chain system cs: every
        index in range, each check's bits strictly increasing, and each triple
        of its chain at its four rows of cs, as `decomposed_system` writes them."""
        support, rows, n, m = self.support, self._trows, self.system.num_vars, cs.b.size
        if (support.min(initial=0) < 0 or support.max(initial=-1) >= n - self.aux.size
                or n > cs.num_vars or rows.min(initial=0) < 0 or rows.max(initial=-1) >= m):
            raise RelaxationError(f"crash table index out of range for {cs.num_vars} "
                                  f"variables and {m} rows")
        signs, rhs = _check_pattern(3)
        at = cs.indptr[rows][..., None] + np.arange(3)
        if ((np.delete(np.diff(support), self.first[1:] - 1) <= 0).any()
                or (np.diff(cs.indptr)[rows] != 3).any() or (cs.cols[at] != self._tcols).any()
                or (cs.vals[at] != signs).any() or (cs.b[rows] != rhs).any()):
            raise RelaxationError("each check's bits in a crash table must increase, and each "
                                  "triple of its chain sit at its four rows of the system")

    def start(self, x: np.ndarray):
        """The crash at the start x, a boolean per variable, with every auxiliary
        False: the auxiliaries of each check with a one in x, the row each
        enters through, its parity p, and the entries of their tableau rows,
        as (rows, columns) of the tableau and values."""
        x = x.view(np.int8)
        picked = np.logical_or.reduceat(x[self.support], self.first)[self.check]
        p = np.logical_xor.reduceat(x[self.cols], self.starts).view(np.int8)  # Q's are 0
        on = picked[self.owner]
        owner = self.owner[on]
        z, p_z = self.aux[picked], p[picked]
        return (z, self.rows[picked, p_z, x[self.middle[picked]]], p_z,
                (self.aux[owner], self.cols[on]), np.where(p, 1.0, -1.0)[owner] * self.signs[on])


def chain_crash(H: ParityCheckMatrix, cs: ConstraintSystem) -> ChainCrash:
    """The crash table of H's chain LP, whose system cs is Feldman's of decompose(H):
    each check of degree 4 or more, with the first triple of its chain."""
    starts = itertools.accumulate((max(len(s) - 2, 0) for s in H.rows), initial=0)
    chained = [(s, t) for s, t in zip(H.rows, starts) if len(s) > 3]
    degree = np.array([len(s) for s, _ in chained], dtype=np.intp)
    return ChainCrash(cs, np.array([i for s, _ in chained for i in s], dtype=np.intp),
                      np.cumsum(degree) - degree, np.array([t for _, t in chained], dtype=np.intp))


def decomposed_system(D: ParityCheckMatrix, n_original: int) -> ConstraintSystem:
    """Feldman's system of the chain code D = decompose(H), where n_original = H.n:
    4 rows per triple, then each degree-1/2 check's rows; no box rows.

    The box bounds of every variable inside a triple are implied by that
    triple's four inequalities.
    """
    if not 0 < n_original <= D.n:
        raise RelaxationError(f"n_original {n_original} outside [1, {D.n}]")
    return _odd_subset_system(D, False, "chain system")


def count_constraints(profile: DegreeProfile, n: int) -> ConstraintCounts:
    """Closed-form row/variable counts for both formulations, by `decompose`'s rule:
    a check of degree d >= 3 becomes d-2 triples of 4 rows each, linked by d-3
    auxiliaries, and a check of degree 1 or 2 keeps its 2^(d-1) rows."""
    degs = profile.check_degrees
    chained = [d for d in degs if d >= 3]
    return ConstraintCounts(
        feldman_parity_rows=sum(2 ** (d - 1) for d in degs),
        feldman_box_rows=2 * n,
        decomposed_rows=4 * sum(d - 2 for d in chained) + sum(2 ** (d - 1) for d in degs if d < 3),
        aux_vars=sum(d - 3 for d in chained),
        degree3_checks=sum(d - 2 for d in chained),
    )


def odd_binomial_sum(d: int) -> int:
    """Sum of C(d, 2i+1) over odd subset sizes; equals 2^(d-1)."""
    return sum(comb(d, 2 * i + 1) for i in range((d + 1) // 2))
