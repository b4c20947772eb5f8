"""Binary parity-check matrices, the alist file format, and built-in test codes."""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass


class CodeError(ValueError):
    """Invalid parity-check matrix or code specification."""


class AlistFormatError(CodeError):
    """Malformed alist text."""


class UnknownCodeError(CodeError):
    """Requested built-in code name does not exist."""


@dataclass(frozen=True)
class ParityCheckMatrix:
    """Sparse binary m x n matrix over GF(2), stored as per-check column supports.

    ``rows[j]`` is the strictly increasing tuple of column indices where check j
    has a 1.  Indices are 0-based; rows given as lists are stored as tuples.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise CodeError(f"n must be an integer, got {self.n!r}") from None
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in self.rows)
        except TypeError as e:
            raise CodeError(f"check rows must be sequences of integer indices: {e}") from None
        object.__setattr__(self, "rows", rows)
        if self.n < 1:
            raise CodeError(f"need at least one column, got n={self.n}")
        if len(self.rows) < 1:
            raise CodeError("need at least one check row")
        for j, row in enumerate(self.rows):
            if len(row) == 0:
                raise CodeError(f"check {j} is empty")
            if any(map(operator.ge, row, row[1:])):
                raise CodeError(f"check {j} indices not strictly increasing: {row}")
            if row[0] < 0 or row[-1] >= self.n:
                raise CodeError(f"check {j} index out of range [0, {self.n}): {row}")

    @property
    def m(self) -> int:
        return len(self.rows)

    def to_dense(self) -> list[list[int]]:
        dense = []
        for row in self.rows:
            d = [0] * self.n
            for i in row:
                d[i] = 1
            dense.append(d)
        return dense


@dataclass(frozen=True)
class DegreeProfile:
    """Row and column weights of a parity-check matrix."""

    check_degrees: tuple[int, ...]
    variable_degrees: tuple[int, ...]


def from_dense(rows: list[list[int]]) -> ParityCheckMatrix:
    """Build a ParityCheckMatrix from dense 0/1 row vectors."""
    if not rows:
        raise CodeError("no rows given")
    n = len(rows[0])
    supports = []
    for j, row in enumerate(rows):
        if len(row) != n:
            raise CodeError(f"row {j} has length {len(row)}, expected {n}")
        support = []
        for i, v in enumerate(row):
            if v not in (0, 1):
                raise CodeError(f"non-binary entry {v!r} at row {j}, column {i}")
            if v == 1:
                support.append(i)
        if not support:
            raise CodeError(f"row {j} is all-zero")
        supports.append(tuple(support))
    return ParityCheckMatrix(n=n, rows=tuple(supports))


def degree_profile(H: ParityCheckMatrix) -> DegreeProfile:
    check_degrees = tuple(len(row) for row in H.rows)
    var_degrees = [0] * H.n
    for row in H.rows:
        for i in row:
            var_degrees[i] += 1
    return DegreeProfile(check_degrees=check_degrees, variable_degrees=tuple(var_degrees))


def _tokens(text: str) -> list[int]:
    toks = text.split()
    out = []
    for t in toks:
        try:
            out.append(int(t))
        except ValueError:
            raise AlistFormatError(f"non-integer token {t!r}") from None
    return out


def parse_alist(text: str | bytes) -> ParityCheckMatrix:
    """Parse MacKay alist text into a ParityCheckMatrix.

    Layout: "n m", max degrees, n variable degrees, m check degrees, then n
    variable-node lines of 1-based check indices and m check-node lines of
    1-based variable indices.  Zero entries are padding and are stripped.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii")
    # blank lines are only permitted as degree-0 adjacency lines, so keep them
    lines = text.splitlines()
    while lines and not lines[0].strip():
        lines.pop(0)
    if len(lines) < 4:
        raise AlistFormatError("truncated alist: fewer than 4 header lines")
    header = _tokens(lines[0])
    if len(header) != 2:
        raise AlistFormatError(f"first line must be 'n m', got {lines[0]!r}")
    n, m = header
    if n < 1 or m < 1:
        raise AlistFormatError(f"bad dimensions n={n}, m={m}")
    if len(lines) < 4 + n + m:
        raise AlistFormatError(f"truncated alist: expected {4 + n + m} lines, got {len(lines)}")
    var_degrees = _tokens(lines[2])
    check_degrees = _tokens(lines[3])
    if len(var_degrees) != n or len(check_degrees) != m:
        raise AlistFormatError("degree list lengths do not match n/m")

    var_adj: list[set[int]] = []
    for i in range(n):
        entries = [e for e in _tokens(lines[4 + i]) if e != 0]
        for e in entries:
            if not (1 <= e <= m):
                raise AlistFormatError(f"variable {i}: check index {e} out of range [1, {m}]")
        if len(entries) != var_degrees[i]:
            raise AlistFormatError(f"variable {i}: degree {var_degrees[i]} but {len(entries)} entries")
        var_adj.append({e - 1 for e in entries})

    supports = []
    for j in range(m):
        entries = [e for e in _tokens(lines[4 + n + j]) if e != 0]
        for e in entries:
            if not (1 <= e <= n):
                raise AlistFormatError(f"check {j}: variable index {e} out of range [1, {n}]")
        if len(entries) != check_degrees[j]:
            raise AlistFormatError(f"check {j}: degree {check_degrees[j]} but {len(entries)} entries")
        support = sorted(e - 1 for e in entries)
        for a, b in zip(support, support[1:]):
            if a == b:
                raise AlistFormatError(f"check {j}: duplicate variable index {a + 1}")
        for i in support:
            if j not in var_adj[i]:
                raise AlistFormatError(f"adjacency mismatch: check {j} lists variable {i + 1} "
                                       "but the variable side does not")
        supports.append(tuple(support))

    total_var = sum(len(s) for s in var_adj)
    total_check = sum(len(s) for s in supports)
    if total_var != total_check:
        raise AlistFormatError("variable-side and check-side entry counts differ")
    try:
        return ParityCheckMatrix(n=n, rows=tuple(supports))
    except CodeError as e:
        raise AlistFormatError(str(e)) from None


def write_alist(H: ParityCheckMatrix) -> str:
    """Serialize to alist text; parse_alist(write_alist(H)) == H."""
    prof = degree_profile(H)
    var_adj: list[list[int]] = [[] for _ in range(H.n)]
    for j, row in enumerate(H.rows):
        for i in row:
            var_adj[i].append(j)
    lines = [
        f"{H.n} {H.m}",
        f"{max(prof.variable_degrees)} {max(prof.check_degrees)}",
        " ".join(str(d) for d in prof.variable_degrees),
        " ".join(str(d) for d in prof.check_degrees),
    ]
    for adj in var_adj:
        lines.append(" ".join(str(j + 1) for j in adj) if adj else "0")
    for row in H.rows:
        lines.append(" ".join(str(i + 1) for i in row))
    return "\n".join(lines) + "\n"


PAPER_EXAMPLE = ParityCheckMatrix(n=4, rows=((0, 1, 2), (1, 2, 3)))

HAMMING_7_4 = from_dense([
    [1, 0, 1, 0, 1, 0, 1],
    [0, 1, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
])


def _ldpc_48_24() -> ParityCheckMatrix:
    # Gallager construction: three stacked 8x48 blocks, each covering every
    # column exactly once, blocks 2 and 3 column-permuted with a fixed seed.
    rng = random.Random(20140901)
    base = [list(range(6 * i, 6 * i + 6)) for i in range(8)]
    rows = [tuple(r) for r in base]
    for _ in range(2):
        perm = list(range(48))
        rng.shuffle(perm)
        rows += [tuple(sorted(perm[c] for c in r)) for r in base]
    return ParityCheckMatrix(n=48, rows=tuple(rows))


LDPC_48_24 = _ldpc_48_24()

_BUILTINS = {
    "paper-example": PAPER_EXAMPLE,
    "hamming-7-4": HAMMING_7_4,
    "ldpc-48-24": LDPC_48_24,
}


def builtin_code(name: str) -> ParityCheckMatrix:
    """Return a named built-in code: paper-example, hamming-7-4, or ldpc-48-24."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise UnknownCodeError(
            f"unknown code {name!r}; available: {', '.join(sorted(_BUILTINS))}") from None
