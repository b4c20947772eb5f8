"""End-to-end LP decoding under either formulation, plus exhaustive ML oracles.

A code's decoding LP differs from decode to decode only in its costs, so each
(code, formulation) constraint system is compiled once per process, kept in a
bounded cache, and shared by every decode of that code.  A decode whose hard
decision already satisfies every check returns it without solving: it attains
the lower bound sum(min(gamma_i, 0)) of both relaxations, so it is their
optimum and the ML codeword.  Otherwise a chain LP carries a crash: the
auxiliaries of every check whose hard decision has a one start basic at their
parity (`relaxation.chain_crash` plans it once per code, `build_program`
picks its rows from the hard decision), so the solve still starts at the hard
decision, with fewer pivots to make.  A decode returns a plain
`DecodeOutcome`; `cli` writes it.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import lpsolver
from .channel import CostVector, trial_rng
from .codes import ParityCheckMatrix
from .relaxation import (MAX_ENTRIES, ConstraintSystem, RelaxationError, chain_crash,
                         decompose, decomposed_system, feldman_system)

INTEGRALITY_TOL = 1e-6
ML_ENUM_LIMIT = 28
COMPILED_CACHE_SIZE = 32  # (code, formulation) systems kept per process

FORMULATIONS = ("feldman", "decomposed")


class DecodeError(Exception):
    pass


@dataclass
class DecodeOutcome:
    formulation: str
    point: np.ndarray  # original variables only
    objective: float
    integral: bool
    codeword: list[int] | None
    ml_certified: bool
    iterations: int  # the solver's dual pivots; a chain LP's crash is not counted
    wall_clock_ns: int  # fields are in output order


def is_codeword(H: ParityCheckMatrix, bits) -> bool:
    """True iff the 0/1 sequence `bits`, of length H.n, satisfies every check of H."""
    if len(bits) != H.n:
        raise DecodeError(f"word length {len(bits)} != n {H.n}")
    return not np.count_nonzero(_check_ones(H, bits) % 2)


def _check_ones(H: ParityCheckMatrix, bits) -> np.ndarray:
    """How many ones the 0/1 sequence `bits` has on each check's support."""
    cols, starts = _check_supports(H)
    return np.add.reduceat(np.asarray(bits, dtype=np.intp)[cols], starts)


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _check_supports(H: ParityCheckMatrix) -> tuple[np.ndarray, np.ndarray]:
    """H's check supports concatenated, and where each check starts in them."""
    sizes = [len(row) for row in H.rows]
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
    return np.concatenate(H.rows).astype(np.intp), starts


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled_system(H: ParityCheckMatrix, formulation: str) -> ConstraintSystem:
    """The decoding constraint system of (H, formulation).

    The system depends only on the code, never on the costs, so it is built
    once per process, as read-only sparse rows, and shared by every decode.
    Callers must not modify the returned system.  Raises RelaxationError,
    before building it, if a solve's dense tableau would exceed MAX_ENTRIES.
    """
    code = H if formulation == "feldman" else decompose(H)
    cells = (code.n + 1) ** 2  # the solver's (num_vars+1) x (num_vars+1) tableau
    if cells > MAX_ENTRIES:
        raise RelaxationError(f"{formulation} tableau of {cells} entries exceeds "
                              f"MAX_ENTRIES = {MAX_ENTRIES}")
    if formulation == "feldman":
        return feldman_system(H, include_boxes=False)
    return decomposed_system(code, H.n)


def _checked_system(H: ParityCheckMatrix, gamma: CostVector,
                    formulation: str) -> ConstraintSystem:
    """The compiled system of (H, formulation), once the formulation and the cost
    length are known to be valid."""
    if formulation not in FORMULATIONS:
        raise DecodeError(f"unknown formulation {formulation!r}")
    if len(gamma) != H.n:
        raise DecodeError(f"cost length {len(gamma)} != n {H.n}")
    return _compiled_system(H, formulation)


# a chain LP's crash plan, built once per code, and only once a chain LP is assembled
_crash_plan = functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)(chain_crash)


def _chain_crash(H: ParityCheckMatrix, hard: np.ndarray,
                 ones: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The chain LP's crash at the hard decision `hard`, whose checks hold `ones` ones.

    Every auxiliary of a check with a one enters at its parity, level by
    level; a check with none keeps its auxiliaries at 0, which is their
    parity too.
    """
    bit = hard.view(np.int8)
    crash = []
    for level in _crash_plan(H):
        picked = ones[level.check].nonzero()[0]
        if not picked.size:
            break  # a level's checks all have auxiliaries on the level below
        values = bit[level.bits[picked]]  # the bits whose parity each one takes, m last
        # its triple's end e holds the parity of all but m, one bit on level 1
        e = values[:, 0] if values.shape[1] == 2 else values[:, :-1].sum(1) & 1
        crash.append((level.aux[picked], level.rows[picked, e, values[:, -1]]))
    return tuple(crash)


def build_program(H: ParityCheckMatrix, gamma: CostVector, formulation: str,
                  hard: tuple[np.ndarray, np.ndarray] | None = None) -> lpsolver.LinearProgram:
    """Attach the costs to the code's compiled system; auxiliary costs are 0.

    A chain LP also gets its crash at the hard decision (see `_chain_crash`).
    `hard`, the hard decision and each check's count of ones in it, saves
    computing them again.
    """
    cs = _checked_system(H, gamma, formulation)
    objective = np.concatenate([gamma.gammas, np.zeros(cs.num_vars - H.n)])
    crash = ()
    if cs.num_vars > H.n:  # a chain LP with auxiliaries
        if hard is None:
            bits = gamma.gammas < 0.0
            hard = bits, _check_ones(H, bits)
        crash = _chain_crash(H, *hard)
    return lpsolver.LinearProgram(objective=objective, constraints=cs, crash=crash)


def decode(H: ParityCheckMatrix, gamma: CostVector,
           formulation: str = "feldman") -> DecodeOutcome:
    """Solve min Gamma.F over the selected relaxation and classify the optimum.

    The hard decision (x_i = 1 iff gamma_i < 0) attains sum(min(gamma_i, 0)),
    a lower bound on both relaxations.  When it satisfies every check it is
    returned as the certified optimum without assembling or solving an LP:
    `iterations` is then 0 and `wall_clock_ns` times the check alone.
    Otherwise `wall_clock_ns` times the check, the LP's assembly and the solve.
    The system is compiled, and a code too large for it refused, either way.
    """
    _checked_system(H, gamma, formulation)
    t0 = time.monotonic_ns()
    hard = gamma.gammas < 0.0
    ones = _check_ones(H, hard)
    if not np.count_nonzero(ones % 2):
        elapsed = time.monotonic_ns() - t0
        point = hard.astype(float)
        return DecodeOutcome(
            formulation=formulation,
            point=point,
            objective=float(np.dot(gamma.gammas, point)),
            integral=True,
            codeword=hard.astype(int).tolist(),
            ml_certified=True,
            iterations=0,
            wall_clock_ns=elapsed,
        )
    lp = build_program(H, gamma, formulation, (hard, ones))
    sol = lpsolver.solve(lp)
    elapsed = time.monotonic_ns() - t0
    if sol.status != "optimal":
        # the all-zero point is always feasible, so this indicates a solver bug
        raise lpsolver.SolverError(f"solver returned {sol.status} on a valid decoding LP")
    point = sol.point[:H.n]
    integral, rounded = lpsolver.is_integral(point, INTEGRALITY_TOL)
    certified = bool(integral and is_codeword(H, rounded))
    return DecodeOutcome(
        formulation=formulation,
        point=point,
        objective=float(np.dot(gamma.gammas, point)),
        integral=integral,
        codeword=rounded if integral else None,
        ml_certified=certified,
        iterations=sol.iterations,
        wall_clock_ns=elapsed,
    )


def gf2_nullspace_basis(H: ParityCheckMatrix) -> list[np.ndarray]:
    """Basis of {x : H.x = 0 over GF(2)} via Gauss-Jordan elimination."""
    A = np.array(H.to_dense(), dtype=np.uint8)
    pivots: list[int] = []
    for col in range(H.n):
        r = len(pivots)
        below = np.flatnonzero(A[r:, col])
        if below.size == 0:
            continue
        A[[r, r + below[0]]] = A[[r + below[0], r]]
        others = A[:, col].astype(bool)
        others[r] = False
        A[others] ^= A[r]
        pivots.append(col)
    basis = []
    for fc in sorted(set(range(H.n)) - set(pivots)):
        v = np.zeros(H.n, dtype=np.uint8)
        v[fc] = 1
        v[pivots] = A[:len(pivots), fc]
        basis.append(v)
    return basis


def codewords(H: ParityCheckMatrix):
    """Iterate every codeword of H (all GF(2) combinations of the nullspace basis)."""
    if H.n > ML_ENUM_LIMIT:
        raise DecodeError(f"enumeration limited to n <= {ML_ENUM_LIMIT}, got n = {H.n}")
    basis = gf2_nullspace_basis(H)
    for combo in itertools.product((0, 1), repeat=len(basis)):
        cw = np.zeros(H.n, dtype=np.uint8)
        for bit, v in zip(combo, basis):
            if bit:
                cw ^= v
        yield cw


def brute_force_ml(H: ParityCheckMatrix, gamma: CostVector) -> tuple[list[int], float]:
    """Exhaustive argmin of Gamma.c over all codewords; lexicographic tie-break."""
    if len(gamma) != H.n:
        raise DecodeError(f"cost length {len(gamma)} != n {H.n}")
    objective, word = min((float(gamma.gammas @ cw), cw.tolist()) for cw in codewords(H))
    return word, objective


class WitnessSearchExhausted(Exception):
    """No fractional optimum found within the draw budget."""


def fractional_witness(H: ParityCheckMatrix, seed: int = 0,
                       max_draws: int = 10_000) -> tuple[CostVector, np.ndarray]:
    """Search signed unit cost vectors for one whose LP optimum is non-integral."""
    rng = trial_rng(seed)
    for _ in range(max_draws):
        signs = rng.integers(0, 2, H.n) * 2 - 1
        gamma = CostVector(gammas=signs)
        out = decode(H, gamma, "feldman")
        if not out.integral:
            return gamma, out.point
    raise WitnessSearchExhausted(f"no fractional optimum in {max_draws} draws")
