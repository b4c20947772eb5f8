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
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

import numpy as np

from .codes import DegreeProfile, ParityCheckMatrix


class RelaxationError(ValueError):
    pass


class DegreeTooLowError(RelaxationError):
    """Check degree below 3 in strict mode."""


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
    var_names: list[str]
    box_rows_included: bool = False

    @property
    def rows(self) -> Sequence[Row]:
        return _Rows(*self.arrays)

    def dense(self):
        """Dense (A, b) as float lists, for golden comparisons."""
        A, b = self.arrays
        return A.tolist(), b.tolist()

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            terms = " ".join(f"{c:+d}*{self.var_names[i]}"
                             for i, c in sorted(row.coeffs.items()))
            lines.append(f"{terms} <= {row.rhs}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "num_vars": self.num_vars,
            "var_names": self.var_names,
            "box_rows_included": self.box_rows_included,
            "rows": [
                {"coeffs": [[i, c] for i, c in sorted(row.coeffs.items())],
                 "rhs": row.rhs}
                for row in self.rows
            ],
        }
        return json.dumps(obj, indent=2)


@dataclass
class DecompositionResult:
    """Chain decomposition of all checks into degree-3 triples.

    Auxiliary variables are appended after the n originals, check-major then
    chain order.  ``provenance[k]`` is the index of the check that
    ``checks3[k]`` came from; two checks may yield the same triple.
    ``passthrough`` holds (check index, support) for degree-1/2 checks kept
    undecomposed in lenient mode.
    """

    n_original: int
    extended_num_vars: int
    checks3: list[tuple[int, int, int]]
    provenance: list[int]
    aux_count: int
    aux_names: list[str] = field(default_factory=list)
    passthrough: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)


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


def odd_subsets(support) -> list[tuple[int, ...]]:
    """All odd-cardinality subsets of support, ascending size then lexicographic."""
    support = sorted(support)
    if not support:
        raise RelaxationError("empty support")
    signs, _ = _check_pattern(len(support))
    return [tuple(i for i, s in zip(support, row) if s > 0) for row in signs.tolist()]


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


def _var_names(n: int) -> list[str]:
    return [f"f_{i + 1}" for i in range(n)]


def feldman_rows_for_check(support) -> Sequence[Row]:
    """One inequality per odd subset S: +1 on S, -1 on support\\S, rhs |S|-1."""
    support = tuple(sorted(support))
    if not support:
        raise RelaxationError("empty support")
    n = support[-1] + 1
    return ConstraintSystem(n, _stack([support], n), _var_names(n)).rows


def feldman_system(H: ParityCheckMatrix, include_boxes: bool = False) -> ConstraintSystem:
    """Full odd-subset system, checks in order, each check's rows in odd_subsets order."""
    boxed = range(H.n) if include_boxes else ()
    return ConstraintSystem(num_vars=H.n, arrays=_stack(H.rows, H.n, boxed),
                            var_names=_var_names(H.n), box_rows_included=include_boxes)


def decompose(H: ParityCheckMatrix, strict: bool = True) -> DecompositionResult:
    """Rewrite each check of degree d >= 3 as a chain of d-2 degree-3 triples.

    A degree-d support (i_1,...,i_d) becomes (i_1,i_2,z_1), (z_1,i_3,z_2), ...,
    (z_{d-3}, i_{d-1}, i_d), introducing d-3 auxiliaries; a degree-3 check is
    its own triple.  In strict mode degrees 1 and 2 are rejected; in lenient
    mode they pass through undecomposed.
    """
    checks3: list[tuple[int, int, int]] = []
    provenance: list[int] = []
    passthrough: list[tuple[int, tuple[int, ...]]] = []
    aux_names: list[str] = []
    next_aux = H.n
    for j, support in enumerate(H.rows):
        d = len(support)
        if d < 3:
            if strict:
                raise DegreeTooLowError(f"check {j} has degree {d} < 3")
            passthrough.append((j, support))
            continue
        aux = list(range(next_aux, next_aux + d - 3))
        next_aux += d - 3
        aux_names.extend(f"z_{j + 1}_{k + 1}" for k in range(d - 3))
        ends = [support[0], *aux, support[-1]]
        chain = list(zip(ends, support[1:-1], ends[1:]))
        checks3.extend(chain)
        provenance.extend([j] * len(chain))
    return DecompositionResult(
        n_original=H.n,
        extended_num_vars=next_aux,
        checks3=checks3,
        provenance=provenance,
        aux_count=next_aux - H.n,
        aux_names=aux_names,
        passthrough=passthrough,
    )


def decomposed_system(D: DecompositionResult, n_original: int,
                      cover_boxes: bool = False) -> ConstraintSystem:
    """4 rows per triple; box rows only for originals no triple covers.

    The box bounds of every variable inside a degree-3 block are implied by
    that block's four inequalities, so they are omitted.
    """
    if n_original != D.n_original:
        raise RelaxationError(f"n_original mismatch: {n_original} != {D.n_original}")
    covered = {i for triple in D.checks3 for i in triple}
    boxed = [i for i in range(n_original) if cover_boxes and i not in covered]
    supports = D.checks3 + [support for _, support in D.passthrough]
    names = _var_names(n_original) + list(D.aux_names)
    return ConstraintSystem(num_vars=D.extended_num_vars,
                            arrays=_stack(supports, D.extended_num_vars, boxed),
                            var_names=names, box_rows_included=bool(boxed))


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
