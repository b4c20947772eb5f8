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
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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


@dataclass
class ConstraintSystem:
    num_vars: int
    rows: list[Row]
    var_names: list[str]
    box_rows_included: bool = False

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense float64 (A, b), built on first use and shared by every later caller.

        Both arrays are read-only, so a solver that shares them cannot write
        them.  They are computed once, so the rows must not change afterwards.
        """
        A = np.zeros((len(self.rows), self.num_vars))
        for r, row in enumerate(self.rows):
            A[r, list(row.coeffs)] = list(row.coeffs.values())
        b = np.array([row.rhs for row in self.rows], dtype=float)
        A.flags.writeable = False
        b.flags.writeable = False
        return A, b

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
def _odd_position_subsets(d: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for k in range(1, d + 1, 2):
        out.extend(itertools.combinations(range(d), k))
    return tuple(out)


def odd_subsets(support) -> list[tuple[int, ...]]:
    """All odd-cardinality subsets of support, ascending size then lexicographic."""
    support = tuple(sorted(support))
    if not support:
        raise RelaxationError("empty support")
    return [tuple(support[p] for p in positions)
            for positions in _odd_position_subsets(len(support))]


def feldman_rows_for_check(support) -> list[Row]:
    """One inequality per odd subset S: +1 on S, -1 on support\\S, rhs |S|-1."""
    support = tuple(sorted(support))
    if not support:
        raise RelaxationError("empty support")
    base = {i: -1 for i in support}
    rows = []
    for positions in _odd_position_subsets(len(support)):
        coeffs = base.copy()
        for p in positions:
            coeffs[support[p]] = 1
        rows.append(Row(coeffs, len(positions) - 1))
    return rows


def _var_names(n: int) -> list[str]:
    return [f"f_{i + 1}" for i in range(n)]


def box_rows(indices) -> list[Row]:
    """-x_i <= 0 and x_i <= 1 for each index, in index order."""
    rows = []
    for i in indices:
        rows.append(Row({i: -1}, 0))
        rows.append(Row({i: 1}, 1))
    return rows


def feldman_system(H: ParityCheckMatrix, include_boxes: bool = False) -> ConstraintSystem:
    """Full odd-subset system, checks in order, each check's rows in odd_subsets order."""
    rows: list[Row] = []
    for support in H.rows:
        rows.extend(feldman_rows_for_check(support))
    if include_boxes:
        rows.extend(box_rows(range(H.n)))
    return ConstraintSystem(num_vars=H.n, rows=rows, var_names=_var_names(H.n),
                            box_rows_included=include_boxes)


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
        if d == 3:
            triple = (support[0], support[1], support[2])
            checks3.append(triple)
            provenance.append(j)
            continue
        aux = list(range(next_aux, next_aux + d - 3))
        next_aux += d - 3
        aux_names.extend(f"z_{j + 1}_{k + 1}" for k in range(d - 3))
        chain = [(support[0], support[1], aux[0])]
        for k in range(1, d - 3):
            chain.append((aux[k - 1], support[k + 1], aux[k]))
        chain.append((aux[-1], support[d - 2], support[d - 1]))
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
    rows: list[Row] = []
    covered: set[int] = set()
    for triple in D.checks3:
        rows.extend(feldman_rows_for_check(triple))
        covered.update(triple)
    for _, support in D.passthrough:
        rows.extend(feldman_rows_for_check(support))
    box_included = False
    if cover_boxes:
        uncovered = [i for i in range(n_original) if i not in covered]
        if uncovered:
            rows.extend(box_rows(uncovered))
            box_included = True
    names = _var_names(n_original) + list(D.aux_names)
    return ConstraintSystem(num_vars=D.extended_num_vars, rows=rows,
                            var_names=names, box_rows_included=box_included)


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
