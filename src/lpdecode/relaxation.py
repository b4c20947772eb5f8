"""Feldman odd-subset inequality generation and the degree-3 chain reformulation.

Each parity check with support N yields one inequality per odd-cardinality
subset S of N:

    sum_{i in S} f_i - sum_{i in N\\S} f_i <= |S| - 1

The chain reformulation rewrites a degree-d check (d >= 4) as d-2 degree-3
checks linked by d-3 auxiliary variables, so the relaxation needs only
4*(d-2) rows per check, and the 0/1 box bounds become implied for every
variable covered by a degree-3 block.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .codes import DegreeProfile, ParityCheckMatrix


class RelaxationError(ValueError):
    pass


class DegreeTooLowError(RelaxationError):
    """Check degree below 3, which the closed-form counts do not cover."""


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
    every solve can share them.  `rows` views the same arrays as `Row`s.
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


@dataclass
class DecompositionResult:
    """Chain decomposition of all checks into degree-3 triples.

    Auxiliary variables are appended after the n originals, check-major then
    chain order; two checks may yield the same triple.  ``passthrough`` holds
    the supports of degree-1/2 checks, kept undecomposed.
    """

    n_original: int
    extended_num_vars: int
    checks3: list[tuple[int, int, int]]
    aux_count: int
    passthrough: list[tuple[int, ...]]


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


def _stack(supports, num_vars: int, boxed=()) -> tuple[np.ndarray, np.ndarray]:
    """(A, b): each support's check pattern in its sorted columns, supports in
    order, then -x_i <= 0 and x_i <= 1 for each boxed index i."""
    m = sum(2 ** (len(s) - 1) for s in supports)
    boxed = np.asarray(boxed, dtype=int)
    A = np.zeros((m + 2 * boxed.size, num_vars))
    b = np.zeros(A.shape[0])
    r = 0
    for support in supports:
        signs, rhs = _check_pattern(len(support))
        A[r:r + rhs.size, sorted(support)] = signs
        b[r:r + rhs.size] = rhs
        r += rhs.size
    box = m + 2 * np.arange(boxed.size)
    A[box, boxed] = -1.0
    A[box + 1, boxed] = 1.0
    b[box + 1] = 1.0
    A.flags.writeable = b.flags.writeable = False
    return A, b


def feldman_system(H: ParityCheckMatrix, include_boxes: bool = False) -> ConstraintSystem:
    """Full odd-subset system: checks in order, each check's rows by ascending
    odd-subset size, then lexicographic."""
    boxed = range(H.n) if include_boxes else ()
    return ConstraintSystem(num_vars=H.n, arrays=_stack(H.rows, H.n, boxed))


def decompose(H: ParityCheckMatrix) -> DecompositionResult:
    """Rewrite each check of degree d >= 3 as a chain of d-2 degree-3 triples.

    A degree-d support (i_1,...,i_d) becomes (i_1,i_2,z_1), (z_1,i_3,z_2), ...,
    (z_{d-3}, i_{d-1}, i_d), introducing d-3 auxiliaries; a degree-3 check is
    its own triple.  Checks of degree 1 and 2 pass through undecomposed.
    """
    checks3: list[tuple[int, int, int]] = []
    passthrough: list[tuple[int, ...]] = []
    next_aux = H.n
    for support in H.rows:
        d = len(support)
        if d < 3:
            passthrough.append(support)
            continue
        aux = list(range(next_aux, next_aux + d - 3))
        next_aux += d - 3
        ends = [support[0], *aux, support[-1]]
        checks3.extend(zip(ends, support[1:-1], ends[1:]))
    return DecompositionResult(
        n_original=H.n,
        extended_num_vars=next_aux,
        checks3=checks3,
        aux_count=next_aux - H.n,
        passthrough=passthrough,
    )


def decomposed_system(D: DecompositionResult, n_original: int) -> ConstraintSystem:
    """4 rows per triple, then each passthrough check's odd-subset rows; no box rows.

    The box bounds of every variable inside a degree-3 block are implied by
    that block's four inequalities.
    """
    if n_original != D.n_original:
        raise RelaxationError(f"n_original mismatch: {n_original} != {D.n_original}")
    return ConstraintSystem(num_vars=D.extended_num_vars,
                            arrays=_stack(D.checks3 + D.passthrough, D.extended_num_vars))


def count_constraints(profile: DegreeProfile, n: int) -> ConstraintCounts:
    """Closed-form row/variable counts for both formulations; needs all d >= 3."""
    for j, d in enumerate(profile.check_degrees):
        if d < 3:
            raise DegreeTooLowError(f"check {j} has degree {d} < 3")
    degs = profile.check_degrees
    return ConstraintCounts(
        feldman_parity_rows=sum(2 ** (d - 1) for d in degs),
        feldman_box_rows=2 * n,
        decomposed_rows=4 * sum(d - 2 for d in degs),
        aux_vars=sum(d - 3 for d in degs),
        degree3_checks=sum(d - 2 for d in degs),
    )


def odd_binomial_sum(d: int) -> int:
    """Sum of C(d, 2i+1) over odd subset sizes; equals 2^(d-1)."""
    return sum(comb(d, 2 * i + 1) for i in range((d + 1) // 2))
