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


def _variable_checks(H: ParityCheckMatrix) -> list[list[int]]:
    """For each column of H, the increasing indices of the checks that contain it."""
    checks: list[list[int]] = [[] for _ in range(H.n)]
    for j, row in enumerate(H.rows):
        for i in row:
            checks[i].append(j)
    return checks


def degree_profile(H: ParityCheckMatrix) -> DegreeProfile:
    return DegreeProfile(check_degrees=tuple(len(row) for row in H.rows),
                         variable_degrees=tuple(map(len, _variable_checks(H))))


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
    The matrix is built from the check side; each variable line must then list
    exactly the checks that contain that variable.
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

    supports = []
    for j in range(m):
        entries = [e for e in _tokens(lines[4 + n + j]) if e != 0]
        if len(entries) != check_degrees[j]:
            raise AlistFormatError(
                f"check {j + 1}: degree {check_degrees[j]} but {len(entries)} entries")
        supports.append(sorted(e - 1 for e in entries))
    try:
        H = ParityCheckMatrix(n=n, rows=supports)
    except CodeError as e:
        raise AlistFormatError(f"check side, counted from 0: {e}") from None

    for i, checks in enumerate(_variable_checks(H)):
        listed = sorted(e - 1 for e in _tokens(lines[4 + i]) if e != 0)
        if (var_degrees[i], listed) != (len(checks), checks):
            raise AlistFormatError(
                f"variable {i + 1}: degree {var_degrees[i]} and checks {[e + 1 for e in listed]}, "
                f"but the check side puts it in checks {[j + 1 for j in checks]}")
    return H


def write_alist(H: ParityCheckMatrix) -> str:
    """Serialize to alist text; parse_alist(write_alist(H)) == H."""
    prof = degree_profile(H)
    lines = [
        f"{H.n} {H.m}",
        f"{max(prof.variable_degrees)} {max(prof.check_degrees)}",
        " ".join(str(d) for d in prof.variable_degrees),
        " ".join(str(d) for d in prof.check_degrees),
    ]
    for adj in _variable_checks(H):
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


def gallager(n: int, dv: int, dc: int, seed: int) -> ParityCheckMatrix:
    """Gallager's (dv, dc)-regular construction: dv stacked (n/dc) x n blocks,
    each covering every column exactly once.

    The first block's check i is columns [dc*i, dc*(i+1)); each further block
    is that one with its columns permuted by `random.Random(seed)`.  Two checks
    may coincide.
    """
    for name, v in (("n", n), ("dv", dv), ("dc", dc), ("seed", seed)):
        try:
            operator.index(v)
        except TypeError:
            raise CodeError(f"{name} must be an integer, got {v!r}") from None
    if min(n, dv, dc) < 1 or seed < 0:
        raise CodeError(f"need n, dv, dc >= 1 and seed >= 0, got ({n}, {dv}, {dc}, {seed})")
    if n % dc:
        raise CodeError(f"check degree {dc} does not divide n = {n}")
    rng = random.Random(seed)
    base = [range(dc * i, dc * (i + 1)) for i in range(n // dc)]
    rows = [tuple(r) for r in base]
    for _ in range(dv - 1):
        perm = list(range(n))
        rng.shuffle(perm)
        rows += [tuple(sorted(perm[c] for c in r)) for r in base]
    return ParityCheckMatrix(n=n, rows=tuple(rows))


LDPC_48_24 = gallager(48, 3, 6, 20140901)

BUILTINS = {
    "paper-example": PAPER_EXAMPLE,
    "hamming-7-4": HAMMING_7_4,
    "ldpc-48-24": LDPC_48_24,
}


def builtin_code(name: str) -> ParityCheckMatrix:
    """Return the built-in code of that name, one of the keys of `BUILTINS`."""
    try:
        return BUILTINS[name]
    except KeyError:
        raise UnknownCodeError(
            f"unknown code {name!r}; available: {', '.join(sorted(BUILTINS))}") from None
