"""End-to-end LP decoding under either formulation, plus exhaustive ML oracles.

A code's decoding LP differs from decode to decode only in its costs, so each
(code, formulation) constraint system is compiled once per process, kept in a
bounded cache, and shared by every decode of that code.
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
from .relaxation import ConstraintSystem, decompose, decomposed_system, feldman_system

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
    iterations: int
    wall_clock_ns: int

    def to_json_dict(self) -> dict:
        return {
            "formulation": self.formulation,
            "point": self.point.tolist(),
            "objective": self.objective,
            "integral": self.integral,
            "codeword": self.codeword,
            "ml_certified": self.ml_certified,
            "iterations": self.iterations,
            "wall_clock_ns": self.wall_clock_ns,
        }


def is_codeword(H: ParityCheckMatrix, bits) -> bool:
    return all(sum(bits[i] for i in row) % 2 == 0 for row in H.rows)


@functools.lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compiled_system(H: ParityCheckMatrix, formulation: str) -> ConstraintSystem:
    """The decoding constraint system of (H, formulation).

    The system depends only on the code, never on the costs, so it is built
    once per process, with its read-only arrays, and shared by every decode.
    Callers must not modify the returned system.
    """
    if formulation == "feldman":
        return feldman_system(H, include_boxes=False)
    return decomposed_system(decompose(H), H.n)


def build_program(H: ParityCheckMatrix, gamma: CostVector,
                  formulation: str) -> lpsolver.LinearProgram:
    """Attach the costs to the code's compiled system; auxiliary costs are 0."""
    if formulation not in FORMULATIONS:
        raise DecodeError(f"unknown formulation {formulation!r}")
    if len(gamma) != H.n:
        raise DecodeError(f"cost length {len(gamma)} != n {H.n}")
    cs = _compiled_system(H, formulation)
    objective = np.concatenate([gamma.gammas, np.zeros(cs.num_vars - H.n)])
    return lpsolver.LinearProgram(objective=objective, constraints=cs)


def decode(H: ParityCheckMatrix, gamma: CostVector,
           formulation: str = "feldman") -> DecodeOutcome:
    """Solve min Gamma.F over the selected relaxation and classify the optimum."""
    lp = build_program(H, gamma, formulation)
    t0 = time.monotonic_ns()
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
    """Basis of {x : H.x = 0 over GF(2)} via Gaussian elimination."""
    A = np.array(H.to_dense(), dtype=np.uint8)
    m, n = A.shape
    pivots = []
    r = 0
    for col in range(n):
        rows = np.nonzero(A[r:, col])[0]
        if rows.size == 0:
            continue
        pr = r + rows[0]
        A[[r, pr]] = A[[pr, r]]
        for i in range(m):
            if i != r and A[i, col]:
                A[i] ^= A[r]
        pivots.append(col)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(n, dtype=np.uint8)
        v[fc] = 1
        for i, pc in enumerate(pivots):
            if A[i, fc]:
                v[pc] = 1
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
    g = gamma.gammas
    best = None
    best_obj = None
    for cw in codewords(H):
        obj = float(g @ cw)
        key = tuple(int(b) for b in cw)
        if best is None or obj < best_obj or (obj == best_obj and key < tuple(best)):
            best, best_obj = list(key), obj
    return best, best_obj


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
