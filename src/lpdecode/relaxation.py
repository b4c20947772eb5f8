"""Feldman odd-subset inequality generation and the degree-3 chain reformulation.

Each parity check with support N yields one inequality per odd-cardinality
subset S of N:

    sum_{i in S} f_i - sum_{i in N\\S} f_i <= |S| - 1

The chain reformulation is itself a code: `decompose` rewrites each degree-d
check (d >= 4) as d-2 degree-3 checks linked by d-3 auxiliary variables, and
the chain relaxation is Feldman's system of that code.  It needs only
4*(d-2) rows per check, and the 0/1 box bounds become implied for every
variable covered by a degree-3 check.  `chain_crash` plans, once per code,
how a chain LP's auxiliaries enter the basis at a hard decision's parities.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .codes import DegreeProfile, ParityCheckMatrix


# most nonzeros a system stores (512 MiB of cols and vals, and up to 256 MiB
# more of supports and row indices in its blocks, 512 MiB if every check has
# degree 1), and most cells of a decode's dense tableau (256 MiB)
MAX_ENTRIES = 2 ** 25


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
    """A.x <= b over num_vars variables, with integer entries, stored by row:
    A[i, cols[k]] = vals[k] for k in [indptr[i], indptr[i + 1]), cols ascending.

    `blocks` are the rows as the solver prices them.  In a block
    `(rows, supports, signs)` each support's rows share one sign pattern, so
    the activities of the rows `rows` of A (a slice, or their indices) are,
    check-major, `x[supports] @ signs`, with `supports` k x d and `signs`
    d x p.  A system given no blocks gets one per row, with that row's `vals`
    as its signs.  The arrays are made read-only, so every solve can share
    them.  `rows` views them as `Row`s, and `by_row`, built on first use,
    holds each row's entries in one row of two arrays.
    """

    num_vars: int
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    b: np.ndarray
    blocks: tuple[tuple[slice | np.ndarray, np.ndarray, np.ndarray], ...] | None = None

    def __post_init__(self):
        for a in (self.indptr, self.cols, self.vals, self.b):
            a.flags.writeable = False
        if self.blocks is None:
            ends = self.indptr.tolist()
            self.blocks = tuple((slice(i, i + 1), self.cols[s:e][None], self.vals[s:e][:, None])
                                for i, (s, e) in enumerate(zip(ends, ends[1:])))

    @property
    def rows(self) -> Sequence[Row]:
        return _Rows(self)

    @cached_property
    def by_row(self) -> tuple[np.ndarray, np.ndarray]:
        """`cols` and `vals` as read-only m x w arrays, w the length of the
        longest row: row i's entries, then its last column again with value 0."""
        width = np.diff(self.indptr)
        w = int(width.max(initial=0))
        if w * width.size == self.vals.size:  # every row has w entries: views
            return self.cols.reshape(width.size, w), self.vals.reshape(width.size, w)
        last = np.maximum(self.indptr[1:, None] - 1, 0)
        at = np.minimum(self.indptr[:-1, None] + np.arange(w), last)
        cols, vals = self.cols[at], np.where(np.arange(w) < width[:, None], self.vals[at], 0.0)
        cols.flags.writeable = vals.flags.writeable = False
        return cols, vals

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
def _check_pattern(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only signs (+1 on S, -1 elsewhere) and rhs |S|-1 of a degree-d check,
    one row per odd subset S of its d positions, ascending size then
    lexicographic; then the signs again, transposed and contiguous, for pricing."""
    signs = np.full((2 ** (d - 1), d), -1.0)
    subsets = (S for k in range(1, d + 1, 2) for S in itertools.combinations(range(d), k))
    for r, positions in enumerate(subsets):
        signs[r, positions] = 1.0
    rhs = (signs > 0).sum(axis=1) - 1.0
    by_position = np.ascontiguousarray(signs.T)
    for a in (signs, rhs, by_position):
        a.flags.writeable = False
    return signs, rhs, by_position


_BOX_SIGNS = np.array([[-1.0, 1.0]])  # a variable's box rows -x_i <= 0 and x_i <= 1
_BOX_SIGNS.flags.writeable = False


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
    # the runs of consecutive checks of one degree, by degree: each run's
    # first check, length, first row and first entry
    runs: dict[int, list[tuple[int, int, int, int]]] = {}
    i = row = at = 0
    for d, run in itertools.groupby(degrees):
        k = len(list(run))
        runs.setdefault(d, []).append((i, k, row, at))
        i, row, at = i + k, row + (k << (d - 1)), at + d * (k << (d - 1))
    blocks = []
    for d, their in runs.items():
        signs, rhs, by_position = _check_pattern(d)
        supports = np.array([H.rows[j] for i, k, _, _ in their for j in range(i, i + k)],
                            dtype=np.intp)
        supports.flags.writeable = False
        # a run fills consecutive rows, each holding its check's whole support,
        # in column order, under the degree's signs
        s = 0
        for _, k, r, e in their:
            b[r:r + k * rhs.size].reshape(k, -1)[:] = rhs
            cols[e:e + k * signs.size].reshape(k, *signs.shape)[:] = supports[s:s + k, None]
            vals[e:e + k * signs.size].reshape(k, *signs.shape)[:] = signs
            s += k
        if len(their) == 1:
            rows = slice(their[0][2], their[0][2] + s * rhs.size)
        else:
            rows = np.concatenate([np.arange(r, r + k * rhs.size) for _, k, r, _ in their])
            rows.flags.writeable = False
        blocks.append((rows, supports, by_position))
    if include_boxes:
        cols[at:].reshape(-1, 2)[:] = np.arange(H.n)[:, None]
        vals[at:].reshape(-1, 2)[:] = -1.0, 1.0
        b[row:].reshape(-1, 2)[:] = 0.0, 1.0
        supports = np.arange(H.n)[:, None]
        supports.flags.writeable = False
        blocks.append((slice(row, row + boxes), supports, _BOX_SIGNS))
    return ConstraintSystem(H.n, indptr, cols, vals, b, tuple(blocks))


def _chains(H: ParityCheckMatrix):
    """Each check of degree d >= 3 as (its index, its support, its chain's ends).

    The ends of a support (i_1,...,i_d) are (i_1, z_1, ..., z_{d-3}, i_d), with
    the auxiliary columns z numbered from H.n, check-major then chain order.
    Triple t of the chain is (ends[t], support[t+1], ends[t+1]).
    """
    next_aux = H.n
    for j, support in enumerate(H.rows):
        d = len(support)
        if d >= 3:
            yield j, support, (support[0], *range(next_aux, next_aux + d - 3), support[-1])
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
    triples = [tuple(sorted(t)) for _, support, ends in _chains(H)
               for t in zip(ends, support[1:-1], ends[1:])]
    short = tuple(support for support in H.rows if len(support) < 3)
    n = H.n + sum(len(support) - 3 for support in H.rows if len(support) > 3)
    return ParityCheckMatrix(n=n, rows=(*triples, *short))


@dataclass(frozen=True)
class CrashLevel:
    """One level of a chain LP's crash plan: the auxiliaries it makes basic.

    Auxiliary i takes the parity of the bits `bits[i]` of its check, which
    end with its triple's middle bit m; the bits before m are its triple's
    end e, an original bit on level 1 and an auxiliary of the level below
    otherwise.  `rows[i, e, m]` is the row of that triple that is tight at
    those values of e and m.
    """

    check: np.ndarray  # each auxiliary's check
    aux: np.ndarray  # its variable
    bits: np.ndarray  # (A, level + 1) the original bits whose parity it takes, m last
    rows: np.ndarray  # (A, 2, 2) its crash row by the values of e and m


def chain_crash(H: ParityCheckMatrix) -> tuple[CrashLevel, ...]:
    """Where each auxiliary of decompose(H) enters the basis at a 0/1 word's parity point.

    A check of degree d has the auxiliaries z_1..z_k, k = d-3.  With q <=
    ceil(k/2), z_q takes the parity of the check's first q+1 bits and enters
    through triple q-1, on level q; otherwise it takes the parity of the last
    d-q-1 bits and enters through triple q, on level k-q+1.  Either way the
    triple is (end e, middle m, z) with z = e xor m, and its row that is tight
    there has S = {e if e = 1} + {m if m = 1} + {z if z = 0}.  A level reads
    only the rows of auxiliaries of the levels below it, and triple t is the
    rows 4t..4t+3 of the chain system.  Every check with auxiliaries has one on
    level 1.
    """
    signs = _check_pattern(3)[0]
    row_of = {frozenset(np.flatnonzero(r > 0).tolist()): i for i, r in enumerate(signs)}
    levels: dict[int, list] = {}
    triple = 0  # the check's first triple
    for j, support, ends in _chains(H):
        d = len(support)
        k = d - 3
        for q in range(1, k + 1):
            if q <= (k + 1) // 2:  # from the left: e holds bits 0..q-1, and m is bit q
                level, t, e, bits = q, q - 1, ends[q - 1], support[:q + 1]
            else:  # from the right: m is bit q+1, and e holds the bits after it
                level, t, e, bits = k - q + 1, q, ends[q + 1], (*support[q + 2:], support[q + 1])
            z, m = ends[q], bits[-1]
            order = sorted((ends[t], support[t + 1], ends[t + 1]))
            rows = [[0, 0], [0, 0]]
            for u, w in itertools.product((0, 1), repeat=2):
                S = [v for v, one in ((e, u), (m, w), (z, 1 - (u ^ w))) if one]
                rows[u][w] = 4 * (triple + t) + row_of[frozenset(map(order.index, S))]
            levels.setdefault(level, []).append((j, z, bits, rows))
        triple += d - 2
    plan = []
    for level in sorted(levels):
        check, aux, bits, rows = (np.array(c, dtype=np.intp) for c in zip(*levels[level]))
        for a in (check, aux, bits, rows):
            a.flags.writeable = False
        plan.append(CrashLevel(check, aux, bits, rows))
    return tuple(plan)


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
