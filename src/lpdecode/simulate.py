"""Comparison reports and Monte Carlo FER/BER simulation over the channel models."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import Bsc, ChannelModel, CostVector, llr_costs, transmit, trial_rng
from .codes import ParityCheckMatrix, degree_profile
from .decoder import FORMULATIONS, DecodeOutcome, decode
from .relaxation import (ConstraintCounts, count_constraints, decompose, decomposed_system,
                         feldman_system)

SCHEMA_VERSION = 1


class CountsMismatchError(Exception):
    """The closed-form counts disagree with the generated systems: a program fault."""


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

    CSV_FIELDS = ("trial", "seed", "channel", "sent", "formulation", "integral",
                  "certified", "bit_errors", "frame_error", "iterations")

    def csv_row(self, with_timing: bool = False) -> list:
        row = [self.trial, self.seed, self.channel, self.sent, self.formulation,
               int(self.integral), int(self.certified), self.bit_errors,
               int(self.frame_error), self.iterations]
        if with_timing:
            row.append(self.wall_clock_ns)
        return row


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

    def to_json_dict(self, with_timing: bool = True) -> dict:
        d = {
            "schema": SCHEMA_VERSION,
            "code": self.code,
            "n": self.n,
            "m": self.m,
            "feldman_parity_rows": self.counts.feldman_parity_rows,
            "feldman_box_rows": self.counts.feldman_box_rows,
            "decomposed_rows": self.counts.decomposed_rows,
            "aux_vars": self.counts.aux_vars,
            "degree3_checks": self.counts.degree3_checks,
            "measured_feldman_rows": self.measured_feldman_rows,
            "measured_decomposed_rows": self.measured_decomposed_rows,
            "measured_aux_vars": self.measured_aux_vars,
        }
        if self.num_gammas:
            d.update({
                "num_gammas": self.num_gammas,
                "seed": self.seed,
                "max_objective_gap": self.max_objective_gap,
                "mean_iterations": self.mean_iterations,
            })
            if with_timing:
                d["mean_wall_clock_ns"] = self.mean_wall_clock_ns
        return d


def run_counts(H: ParityCheckMatrix, code_name: str = "") -> ComparisonReport:
    """Formula counts cross-checked against actually generated systems."""
    counts = count_constraints(degree_profile(H), H.n)
    D = decompose(H)
    measured_f = feldman_system(H, include_boxes=True).arrays[0].shape[0]
    measured_d = decomposed_system(D, H.n).arrays[0].shape[0]
    formula = (counts.feldman_parity_rows + counts.feldman_box_rows, counts.decomposed_rows,
               counts.aux_vars, counts.degree3_checks)
    aux = D.n - H.n
    measured = (measured_f, measured_d, aux, sum(len(row) == 3 for row in D.rows))
    if measured != formula:
        raise CountsMismatchError("(feldman rows, decomposed rows, aux vars, degree-3 checks): "
                              f"{formula} by formula, {measured} in the generated systems")
    return ComparisonReport(
        code=code_name, n=H.n, m=H.m, counts=counts,
        measured_feldman_rows=measured_f,
        measured_decomposed_rows=measured_d,
        measured_aux_vars=aux,
    )


def sample_gamma(n: int, seed: int, trial: int, all_positive: bool = False) -> CostVector:
    """Uniform costs in [-5, 5] (or [0.1, 5] when forced positive), per-trial stream."""
    rng = trial_rng(seed, trial)
    if all_positive:
        vals = rng.uniform(0.1, 5.0, n)
    else:
        vals = rng.uniform(-5.0, 5.0, n)
    return CostVector(gammas=vals)


def _decode_trials(H: ParityCheckMatrix, costs, trials: int, formulations: tuple[str, ...]):
    """Yield (t, {formulation: outcome}) for each t < trials, all decoding the costs costs(t)."""
    for t in range(trials):
        gamma = costs(t)
        yield t, {form: decode(H, gamma, form) for form in formulations}


def run_compare(H: ParityCheckMatrix, num_gammas: int, seed: int,
                code_name: str = "", all_positive: bool = False) -> ComparisonReport:
    """Solve every formulation on shared random costs; report the worst objective gap."""
    if num_gammas < 1:
        raise ValueError("num_gammas must be >= 1")
    report = run_counts(H, code_name)
    report.num_gammas = num_gammas
    report.seed = seed
    iters = dict.fromkeys(FORMULATIONS, 0)
    clocks = dict.fromkeys(FORMULATIONS, 0)
    for _, outcomes in _decode_trials(H, lambda t: sample_gamma(H.n, seed, t, all_positive),
                                      num_gammas, FORMULATIONS):
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


def _channel_id(ch: ChannelModel) -> str:
    if isinstance(ch, Bsc):
        return f"bsc:{ch.p:g}"
    return f"awgn:{ch.sigma:g}"


def _trial_record(out: DecodeOutcome, trial: int, seed: int, ch: ChannelModel) -> TrialRecord:
    bit_errors = int(np.count_nonzero(out.point > 0.5))  # against the all-zero word sent
    frame_error = (not out.integral) or bool(bit_errors)
    return TrialRecord(
        trial=trial, seed=seed, channel=_channel_id(ch), sent="zero",
        formulation=out.formulation, integral=out.integral,
        certified=out.ml_certified, bit_errors=bit_errors,
        frame_error=frame_error, iterations=out.iterations,
        wall_clock_ns=out.wall_clock_ns,
    )


def run_simulate(H: ParityCheckMatrix, ch: ChannelModel, trials: int, seed: int,
                 formulation: str = "feldman") -> tuple[list[TrialRecord], dict]:
    """Monte Carlo trials with the all-zero codeword; returns records and a summary.

    The all-zero word suffices because both channels are output-symmetric and
    the relaxed polytopes are codeword-symmetric.  Trial t draws from the
    derived stream (seed, t), so results are independent of execution order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    formulations = FORMULATIONS if formulation == "both" else (formulation,)
    sent = np.zeros(H.n, dtype=int)
    records = [_trial_record(out, t, seed, ch)
               for t, outcomes in _decode_trials(
                   H, lambda t: llr_costs(transmit(sent, ch, seed, t), ch), trials, formulations)
               for out in outcomes.values()]
    summary = {"schema": SCHEMA_VERSION, "channel": _channel_id(ch),
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
