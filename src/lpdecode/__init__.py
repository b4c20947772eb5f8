"""LP decoding toolkit: Feldman odd-subset relaxation and its degree-3 chain
reformulation, with a self-contained simplex solver and simulation harness."""

from .channel import Awgn, Bsc, CostVector, llr_costs, transmit
from .codes import (DegreeProfile, ParityCheckMatrix, builtin_code, degree_profile,
                    from_dense, parse_alist, write_alist)
from .decoder import DecodeOutcome, brute_force_ml, decode, fractional_witness
from .lpsolver import LinearProgram, LpSolution, is_integral, solve
from .relaxation import (ConstraintCounts, ConstraintSystem, count_constraints, decompose,
                         decomposed_system, feldman_system)

__all__ = [
    "Awgn", "Bsc", "CostVector", "llr_costs", "transmit",
    "DegreeProfile", "ParityCheckMatrix", "builtin_code", "degree_profile",
    "from_dense", "parse_alist", "write_alist",
    "DecodeOutcome", "brute_force_ml", "decode", "fractional_witness",
    "LinearProgram", "LpSolution", "is_integral", "solve",
    "ConstraintCounts", "ConstraintSystem",
    "count_constraints", "decompose", "decomposed_system", "feldman_system",
]

__version__ = "0.1.0"
