"""Comparison reports and Monte Carlo FER/BER simulation over the channel models.

Records and reports hold every field, timing included, and write nothing
themselves; `cli` turns them into JSON or CSV and applies `--timing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelModel, CostVector, channel_id, llr_costs, transmit, trial_rng
from .codes import ParityCheckMatrix, degree_profile
from .decoder import FORMULATIONS, DecodeOutcome, decode
# feldman_system is unused here; perfbench/spans.py::SITES wraps it in this module
from .relaxation import (ConstraintCounts, count_constraints, decompose, decomposed_system,
                         feldman_system)

SCHEMA_VERSION = 1


class CountsMismatchError(Exception):
    """The closed-form counts disagree with the generated chain system: a program fault."""


@dataclass
class TrialRecord:
    trial: int
    seed: int
    channel: str
    sent: str  # codeword id; always the all-zero word
    formulation: str
    integral: bool
    certified: bool
    bit_errors: int
    frame_error: bool
    iterations: int
    wall_clock_ns: int


@dataclass
class ComparisonReport:
    code: str
    n: int
    m: int
    counts: ConstraintCounts
    measured_feldman_rows: int
    measured_decomposed_rows: int
    measured_aux_vars: int
    num_gammas: int = 0
    seed: int | None = None
    max_objective_gap: float = 0.0
    mean_iterations: dict = field(default_factory=dict)
    mean_wall_clock_ns: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields in order after the schema, with `counts` flattened into its own fields."""
        d = {"schema": SCHEMA_VERSION, "code": self.code, "n": self.n, "m": self.m,
             **vars(self.counts), "measured_feldman_rows": self.measured_feldman_rows,
             "measured_decomposed_rows": self.measured_decomposed_rows,
             "measured_aux_vars": self.measured_aux_vars}
        if self.num_gammas:
            d.update({
                "num_gammas": self.num_gammas,
                "seed": self.seed,
                "max_objective_gap": self.max_objective_gap,
                "mean_iterations": self.mean_iterations,
                "mean_wall_clock_ns": self.mean_wall_clock_ns,
            })
        return d


def run_counts(H: ParityCheckMatrix, code_name: str = "") -> ComparisonReport:
    """Closed-form counts; the chain system is generated and cross-checked against them.

    Feldman's rows are reported as the closed form, which is what
    `feldman_system(H, include_boxes=True)` allocates by construction, so a
    check of any degree is counted without building its 2^(d-1) rows.
    """
    counts = count_constraints(degree_profile(H), H.n)
    D = decompose(H)
    measured_d = decomposed_system(D, H.n).b.size
    formula = (counts.decomposed_rows, counts.aux_vars, counts.degree3_checks)
    aux = D.n - H.n
    measured = (measured_d, aux, sum(len(row) == 3 for row in D.rows))
    if measured != formula:
        raise CountsMismatchError("(decomposed rows, aux vars, degree-3 checks): "
                                  f"{formula} by formula, {measured} in the generated system")
    return ComparisonReport(
        code=code_name, n=H.n, m=H.m, counts=counts,
        measured_feldman_rows=counts.feldman_parity_rows + counts.feldman_box_rows,
        measured_decomposed_rows=measured_d,
        measured_aux_vars=aux,
    )


def sample_gamma(n: int, seed: int, trial: int) -> CostVector:
    """Uniform costs in [-5, 5], drawn from the per-trial stream."""
    return CostVector(gammas=trial_rng(seed, trial).uniform(-5.0, 5.0, n))


def _decode_trials(H: ParityCheckMatrix, costs, trials: int, formulations: tuple[str, ...]):
    """Yield (t, {formulation: outcome}) for each t < trials, all decoding the costs costs(t)."""
    for t in range(trials):
        gamma = costs(t)
        yield t, {form: decode(H, gamma, form) for form in formulations}


def run_compare(H: ParityCheckMatrix, num_gammas: int, seed: int,
                code_name: str = "") -> ComparisonReport:
    """Solve every formulation on shared random costs; report the worst objective gap."""
    if num_gammas < 1:
        raise ValueError("num_gammas must be >= 1")
    report = run_counts(H, code_name)
    report.num_gammas = num_gammas
    report.seed = seed
    iters = dict.fromkeys(FORMULATIONS, 0)
    clocks = dict.fromkeys(FORMULATIONS, 0)
    for _, outcomes in _decode_trials(H, lambda t: sample_gamma(H.n, seed, t), num_gammas,
                                      FORMULATIONS):
        objectives = [out.objective for out in outcomes.values()]
        report.max_objective_gap = max(report.max_objective_gap, max(objectives) - min(objectives))
        for form, out in outcomes.items():
            iters[form] += out.iterations
            clocks[form] += out.wall_clock_ns
    report.mean_iterations = {form: total / num_gammas for form, total in iters.items()}
    report.mean_wall_clock_ns = {form: total / num_gammas for form, total in clocks.items()}
    return report


def wilson_interval(errors: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% confidence interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _trial_record(out: DecodeOutcome, trial: int, seed: int, channel: str) -> TrialRecord:
    bit_errors = int(np.count_nonzero(out.point > 0.5))  # against the all-zero word sent
    frame_error = (not out.integral) or bool(bit_errors)
    return TrialRecord(
        trial=trial, seed=seed, channel=channel, sent="zero",
        formulation=out.formulation, integral=out.integral,
        certified=out.ml_certified, bit_errors=bit_errors,
        frame_error=frame_error, iterations=out.iterations,
        wall_clock_ns=out.wall_clock_ns,
    )


def run_simulate(H: ParityCheckMatrix, ch: ChannelModel, trials: int, seed: int,
                 formulations: tuple[str, ...] = ("feldman",)) -> tuple[list[TrialRecord], dict]:
    """Monte Carlo trials with the all-zero codeword; returns records and a summary.

    Each trial is decoded under every formulation named, in that order.  The
    all-zero word suffices because both channels are output-symmetric and the
    relaxed polytopes are codeword-symmetric.  Trial t draws from the derived
    stream (seed, t), so results are independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sent = np.zeros(H.n, dtype=int)
    channel = channel_id(ch)
    records = [_trial_record(out, t, seed, channel)
               for t, outcomes in _decode_trials(
                   H, lambda t: llr_costs(transmit(sent, ch, seed, t), ch), trials, formulations)
               for out in outcomes.values()]
    summary = {"schema": SCHEMA_VERSION, "channel": channel,
               "trials": trials, "seed": seed, "n": H.n, "per_formulation": {}}
    for form in formulations:
        recs = [r for r in records if r.formulation == form]
        frame_errors = sum(r.frame_error for r in recs)
        bit_errors = sum(r.bit_errors for r in recs)
        lo, hi = wilson_interval(frame_errors, trials)
        summary["per_formulation"][form] = {
            "frame_errors": frame_errors,
            "fer": frame_errors / trials,
            "fer_wilson_95": [lo, hi],
            "ber": bit_errors / (trials * H.n),
            "certified_fraction": sum(r.certified for r in recs) / trials,
        }
    return records, summary
