"""Feldman odd-subset inequality generation and the degree-3 chain reformulation.

Each parity check with support N yields one inequality per odd-cardinality
subset S of N:

    sum_{i in S} f_i - sum_{i in N\\S} f_i <= |S| - 1

The chain reformulation is itself a code: `decompose` rewrites each degree-d
check (d >= 4) as d-2 degree-3 checks linked by d-3 auxiliary variables, and
the chain relaxation is Feldman's system of that code.  It needs only
4*(d-2) rows per check, and the 0/1 box bounds become implied for every
variable covered by a degree-3 check.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .codes import DegreeProfile, ParityCheckMatrix


MAX_CELLS = 2 ** 25  # largest dense A that feldman_system allocates: 256 MiB of float64


class RelaxationError(ValueError):
    pass


@dataclass(slots=True)
class Row:
    """One inequality sum_i coeffs[i] * x_i <= rhs; coefficients are exact ints."""

    coeffs: dict[int, int]
    rhs: int


class _Rows(Sequence):
    """Read-only view of (A, b) as `Row`s, each built from its row's nonzeros on access."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self._A, self._b = A, b

    def __len__(self) -> int:
        return self._A.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        row = self._A[i]
        nz = np.flatnonzero(row)
        return Row(dict(zip(nz.tolist(), row[nz].astype(int).tolist())), int(self._b[i]))


@dataclass(eq=False)
class ConstraintSystem:
    """A.x <= b over num_vars variables, with integer entries.

    `arrays` is the float64 (A, b); the builders below make both read-only, so
    every solve can share them.  `rows` views the same arrays as `Row`s, and
    `sparse_rows` holds the box rows and A's rows in compressed form.
    """

    num_vars: int
    arrays: tuple[np.ndarray, np.ndarray]

    @property
    def rows(self) -> Sequence[Row]:
        return _Rows(*self.arrays)

    def dense(self):
        """Dense (A, b) as float lists, for golden comparisons."""
        A, b = self.arrays
        return A.tolist(), b.tolist()

    @cached_property
    def sparse_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (indptr, rows, cols, vals) of the constraint list G.x <= h:
        each variable j's box rows -x_j <= -lo_j and x_j <= up_j, then A's rows.

        Entry e is G[rows[e], cols[e]] = vals[e], ordered by row and then by
        column, and row i's entries are [indptr[i], indptr[i + 1]).
        """
        A, _ = self.arrays
        n = self.num_vars
        r, c = A.nonzero()
        rows = np.concatenate([np.arange(2 * n), 2 * n + r])
        out = (np.searchsorted(rows, np.arange(2 * n + A.shape[0] + 1)), rows,
               np.concatenate([np.arange(n).repeat(2), c]),
               np.concatenate([np.tile([-1.0, 1.0], n), A[r, c]]))
        for a in out:
            a.flags.writeable = False
        return out


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
    one row per odd subset S of its d positions, ascending size then lexicographic."""
    signs = np.full((2 ** (d - 1), d), -1.0)
    subsets = (S for k in range(1, d + 1, 2) for S in itertools.combinations(range(d), k))
    for r, positions in enumerate(subsets):
        signs[r, positions] = 1.0
    rhs = (signs > 0).sum(axis=1) - 1.0
    signs.flags.writeable = rhs.flags.writeable = False
    return signs, rhs


def feldman_system(H: ParityCheckMatrix, include_boxes: bool = False) -> ConstraintSystem:
    """Full odd-subset system: checks in order, each check's rows by ascending
    odd-subset size, then lexicographic; with include_boxes, then -x_i <= 0 and
    x_i <= 1 for each i.

    Raises RelaxationError rather than allocate a dense A of more than
    MAX_CELLS entries.
    """
    m = sum(2 ** (len(s) - 1) for s in H.rows)
    rows = m + 2 * H.n if include_boxes else m
    if rows * H.n > MAX_CELLS:
        raise RelaxationError(f"odd-subset system of {rows} x {H.n} entries exceeds "
                              f"MAX_CELLS = {MAX_CELLS}")
    A = np.zeros((rows, H.n))
    b = np.zeros(rows)
    r = 0
    for support in H.rows:
        signs, rhs = _check_pattern(len(support))
        A[r:r + rhs.size, list(support)] = signs
        b[r:r + rhs.size] = rhs
        r += rhs.size
    if include_boxes:
        box, cols = m + 2 * np.arange(H.n), np.arange(H.n)
        A[box, cols] = -1.0
        A[box + 1, cols] = 1.0
        b[box + 1] = 1.0
    A.flags.writeable = b.flags.writeable = False
    return ConstraintSystem(num_vars=H.n, arrays=(A, b))


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
    triples: list[tuple[int, ...]] = []
    short: list[tuple[int, ...]] = []
    next_aux = H.n
    for support in H.rows:
        d = len(support)
        if d < 3:
            short.append(support)
            continue
        ends = [support[0], *range(next_aux, next_aux + d - 3), support[-1]]
        next_aux += d - 3
        triples.extend(tuple(sorted(t)) for t in zip(ends, support[1:-1], ends[1:]))
    return ParityCheckMatrix(n=next_aux, rows=tuple(triples + short))


def decomposed_system(D: ParityCheckMatrix, n_original: int) -> ConstraintSystem:
    """Feldman's system of the chain code D = decompose(H), where n_original = H.n:
    4 rows per triple, then each degree-1/2 check's rows; no box rows.

    The box bounds of every variable inside a triple are implied by that
    triple's four inequalities.
    """
    if not 0 < n_original <= D.n:
        raise RelaxationError(f"n_original {n_original} outside [1, {D.n}]")
    return feldman_system(D)


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
