"""Feldman odd-subset inequality generation and the degree-3 chain reformulation.

Each parity check with support N yields one inequality per odd-cardinality
subset S of N:

    sum_{i in S} f_i - sum_{i in N\\S} f_i <= |S| - 1

The chain reformulation is itself a code: `decompose` rewrites each degree-d
check (d >= 4) as d-2 degree-3 checks linked by d-3 auxiliary variables, and
the chain relaxation is Feldman's system of that code.  It needs only
4*(d-2) rows per check, and the 0/1 box bounds become implied for every
variable covered by a degree-3 check.  `chain_crash` builds, once per code,
the table from which a solve writes, in closed form, the tableau rows of a
chain LP's auxiliaries made basic at a 0/1 start's parities.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
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
    them.  `rows` views them as `Row`s.
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


# the coefficients of a triple's end e, middle m and auxiliary z in its row that
# is tight where z and m take the first two indices (and e = z xor m): the odd
# subset {e if e = 1} + {m if m = 1} + {z if z = 0}
_TIGHT = np.array([[[2 * (z ^ m) - 1, 2 * m - 1, 1 - 2 * z] for m in (0, 1)] for z in (0, 1)])
_TIGHT.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ChainCrash:
    """How each auxiliary z of a chain LP enters the basis at a 0/1 start.

    z is crashed from one end of its chain (see `chain_crash`): P are the bits
    from that end through its triple's middle bit m, and Q the auxiliaries
    from that end to z, z last.  At a start with every auxiliary at 0, z takes
    the parity p of P.  Making each auxiliary of Q basic in turn, through its
    triple's row that is tight there, leaves z's tableau row (a rhs minus
    coefficients times the active constraints' slacks) with 2p-1 in the
    columns of P, 1-2p in those of Q, p as its rhs and nothing else.

    The arrays are read-only.  `verify` checks the table against `system`
    when it is built, and against any other system a solve hands it.
    """

    system: ConstraintSystem  # the chain system it was built for
    support: np.ndarray  # the bits of each check with auxiliaries, check after check
    first: np.ndarray  # where each such check starts in `support`
    check: np.ndarray  # (A,) each auxiliary's check, numbered among those
    aux: np.ndarray  # (A,) its variable z
    end: np.ndarray  # (A,) its triple's end e
    middle: np.ndarray  # (A,) its triple's middle bit m, the last of P
    rows: np.ndarray  # (A, 2, 2) its triple's row tight where z and m take those values
    cols: np.ndarray  # P, then Q, of each auxiliary in turn
    starts: np.ndarray  # (A,) where each auxiliary's P starts in `cols`
    owner: np.ndarray  # each entry's auxiliary, an index into `aux`
    signs: np.ndarray  # each entry's sign, 1 in P and -1 in Q

    def __post_init__(self):
        for a in vars(self).values():
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        self.verify(self.system)

    def verify(self, cs: ConstraintSystem) -> None:
        """Raise RelaxationError unless the table fits the chain system cs: every
        index in range, no auxiliary listed twice, and each candidate row the
        row of its triple alone that is tight at its values."""
        n, m = cs.num_vars, cs.b.size
        if any(a.size and (a.min() < 0 or a.max() >= bound) for a, bound in (
                (self.support, n), (self.aux, n), (self.end, n), (self.middle, n),
                (self.cols, n), (self.rows, m))):
            raise RelaxationError(f"crash table index out of range for {n} variables "
                                  f"and {m} rows")
        # not np.unique, which imports numpy.ma: 1.7 MB of resident memory
        if np.bincount(self.aux).max(initial=0) > 1:
            raise RelaxationError("crash table lists an auxiliary twice")
        triple = np.stack([self.end, self.middle, self.aux], 1)
        order = np.argsort(triple, 1)[:, None, None]
        want = np.take_along_axis(np.broadcast_to(_TIGHT, (self.aux.size, 2, 2, 3)), order, 3)
        at = cs.indptr[self.rows][..., None] + np.arange(3)
        if ((np.diff(cs.indptr)[self.rows] != 3).any()
                or (cs.cols[at] != np.sort(triple, 1)[:, None, None]).any()
                or (cs.vals[at] != want).any() or (cs.b[self.rows] != (want > 0).sum(3) - 1).any()):
            raise RelaxationError("each crash row must hold its auxiliary with its triple's "
                                  "end and middle bit, tight at their values")

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
    """The crash table of H's chain LP, whose system cs is Feldman's of decompose(H).

    A check of degree d has the auxiliaries z_1..z_k, k = d-3.  With q <=
    ceil(k/2), z_q is crashed from the chain's first end: P is the check's
    bits 0..q, Q is z_1..z_q, and its triple is triple q-1.  Otherwise it is
    crashed from the last end: P is bits d-1..q+1, Q is z_k..z_q, and its
    triple is triple q.  Triple t of the chain is the rows 4t..4t+3 of cs.
    """
    row_of = {tuple(r): i for i, r in enumerate(_check_pattern(3)[0].tolist())}
    table = {f.name: [] for f in fields(ChainCrash)[1:]}  # all but `system`
    triple = 0  # the check's first triple
    for _, support, ends in _chains(H):
        k = len(support) - 3
        if k:
            table["first"].append(len(table["support"]))
            table["support"] += support
        for q in range(1, k + 1):
            if q <= (k + 1) // 2:
                t, e, P, Q = q - 1, ends[q - 1], support[:q + 1], ends[1:q + 1]
            else:
                t, e, P, Q = q, ends[q + 1], support[:q:-1], ends[k:q - 1:-1]
            order = np.argsort((e, P[-1], ends[q]))
            row = [[4 * (triple + t) + row_of[tuple(_TIGHT[z, m, order].tolist())]
                    for m in (0, 1)] for z in (0, 1)]
            for name, value in (("check", len(table["first"]) - 1), ("aux", ends[q]),
                                ("end", e), ("middle", P[-1]), ("rows", row),
                                ("starts", len(table["cols"]))):
                table[name].append(value)
            table["owner"] += [len(table["aux"]) - 1] * (len(P) + len(Q))
            table["signs"] += [1] * len(P) + [-1] * len(Q)
            table["cols"] += (*P, *Q)
        triple += k + 1
    arrays = {name: np.array(a, dtype=np.intp) for name, a in table.items()}
    arrays["rows"] = arrays["rows"].reshape(-1, 2, 2)
    return ChainCrash(cs, **arrays)


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
