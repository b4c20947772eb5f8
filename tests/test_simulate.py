import dataclasses

import numpy as np
import pytest

from lpdecode import simulate
from lpdecode.channel import Awgn, Bsc, channel_id, parse_channel
from lpdecode.codes import builtin_code, gallager
from lpdecode.decoder import FORMULATIONS, decode
from lpdecode.simulate import (CountsMismatchError, run_compare, run_counts, run_simulate,
                               sample_gamma, wilson_interval)

HAMMING = builtin_code("hamming-7-4")
PAPER = builtin_code("paper-example")


class TestCounts:
    def test_paper_example(self):
        rep = run_counts(PAPER, "paper-example")
        assert rep.counts.feldman_parity_rows == 8
        assert rep.counts.feldman_box_rows == 8
        assert rep.counts.decomposed_rows == 8
        assert rep.measured_feldman_rows == 16
        assert rep.measured_decomposed_rows == 8

    def test_ldpc(self):
        H = builtin_code("ldpc-48-24")
        rep = run_counts(H)
        assert rep.measured_feldman_rows == 768 + 96
        assert rep.measured_decomposed_rows == 384
        assert rep.measured_aux_vars == 72

    @pytest.mark.parametrize("args, rows", [
        # (feldman parity, feldman box, decomposed, aux vars, degree-3 checks)
        ((504, 3, 6, 1), (252 * 32, 2 * 504, 252 * 4 * 4, 252 * 3, 252 * 4)),
        ((120, 3, 12, 1), (30 * 2048, 2 * 120, 30 * 4 * 10, 30 * 9, 30 * 10)),
    ])
    def test_gallager_closed_form(self, args, rows):
        rep = run_counts(gallager(*args))
        assert dataclasses.astuple(rep.counts) == rows
        assert rep.measured_feldman_rows == rows[0] + rows[1]
        assert (rep.measured_decomposed_rows, rep.measured_aux_vars) == (rows[2], rows[3])

    def test_formula_mismatch_raises(self, monkeypatch):
        # a plain check, not an assert, so it also holds under python -O
        count = simulate.count_constraints

        def overcount(*args):
            counts = count(*args)
            return dataclasses.replace(counts, decomposed_rows=counts.decomposed_rows + 1)

        monkeypatch.setattr(simulate, "count_constraints", overcount)
        with pytest.raises(CountsMismatchError, match="385.*384"):
            run_counts(builtin_code("ldpc-48-24"))

    def test_json_schema(self):
        d = run_counts(PAPER, "paper-example").to_json_dict()
        assert d["schema"] == 1
        assert d["feldman_parity_rows"] == 8


class TestCompare:
    def test_paper_example_gap(self):
        rep = run_compare(PAPER, 25, seed=5, code_name="paper-example")
        assert rep.max_objective_gap <= 1e-7
        assert rep.mean_iterations["feldman"] > 0

    @pytest.mark.parametrize("name", ["hamming-7-4", "ldpc-48-24"])
    def test_aggregates_match_direct_decodes(self, name):
        H = builtin_code(name)
        rep = run_compare(H, 5, seed=3)
        outs = [{form: decode(H, sample_gamma(H.n, 3, t), form) for form in FORMULATIONS}
                for t in range(5)]
        assert rep.mean_iterations == {
            form: sum(o[form].iterations for o in outs) / 5 for form in FORMULATIONS}
        assert rep.max_objective_gap == max(
            abs(o["feldman"].objective - o["decomposed"].objective) for o in outs)

    def test_bad_num_gammas(self):
        with pytest.raises(ValueError):
            run_compare(PAPER, 0, seed=0)


class TestSampleGamma:
    def test_deterministic(self):
        assert np.array_equal(sample_gamma(5, 1, 2).gammas, sample_gamma(5, 1, 2).gammas)

    def test_range(self):
        g = sample_gamma(200, 3, 0)
        assert all(-5 <= v <= 5 for v in g.gammas)


class TestWilson:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 100)
        assert lo < 0.1 < hi

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi < 0.15
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo > 0.85


class TestSimulate:
    def test_deterministic_records(self):
        ch = Bsc(p=0.05)
        recs1, sum1 = run_simulate(HAMMING, ch, 20, seed=9)
        recs2, sum2 = run_simulate(HAMMING, ch, 20, seed=9)
        untimed = [[dataclasses.replace(r, wall_clock_ns=0) for r in rs] for rs in (recs1, recs2)]
        assert untimed[0] == untimed[1]
        assert sum1 == sum2

    def test_summary_consistency(self):
        ch = Bsc(p=0.1)
        recs, summary = run_simulate(HAMMING, ch, 50, seed=2)
        stats = summary["per_formulation"]["feldman"]
        frame_errors = sum(r.frame_error for r in recs)
        bit_errors = sum(r.bit_errors for r in recs)
        assert stats["fer"] == frame_errors / 50
        assert stats["ber"] == bit_errors / (50 * 7)
        assert stats["frame_errors"] == frame_errors

    def test_frame_error_definition(self):
        ch = Bsc(p=0.1)
        recs, _ = run_simulate(HAMMING, ch, 50, seed=2)
        for r in recs:
            assert r.frame_error == ((not r.integral) or r.bit_errors > 0)

    def test_single_trial_no_error_at_tiny_p(self):
        recs, summary = run_simulate(HAMMING, Bsc(p=1e-9), 1, seed=0)
        assert len(recs) == 1
        assert not recs[0].frame_error

    def test_both_formulations_agree_per_trial(self):
        recs, _ = run_simulate(PAPER, Bsc(p=0.1), 30, seed=4, formulations=FORMULATIONS)
        by_trial = {}
        for r in recs:
            by_trial.setdefault(r.trial, []).append(r)
        for pair in by_trial.values():
            assert len(pair) == 2
            assert pair[0].integral == pair[1].integral
            assert pair[0].bit_errors == pair[1].bit_errors

    def test_paired_seed_monotonicity(self):
        fers = []
        for p in (0.01, 0.05):
            _, summary = run_simulate(PAPER, Bsc(p=p), 300, seed=77)
            fers.append(summary["per_formulation"]["feldman"]["fer"])
        assert fers[0] <= fers[1]

    @pytest.mark.parametrize("ch, cid", [(Bsc(p=0.05), "bsc:0.05"), (Awgn(sigma=0.7), "awgn:0.7"),
                                         (Bsc(p=1e-9), "bsc:1e-09"),
                                         (Awgn(sigma=0.1234567), "awgn:0.1234567"),
                                         (Bsc(p=1 / 3), "bsc:0.3333333333333333")])
    def test_channel_id_round_trips(self, ch, cid):
        # `:g` form wherever it parses back to the channel, the full repr elsewhere
        recs, summary = run_simulate(PAPER, ch, 1, seed=0)
        assert recs[0].channel == summary["channel"] == channel_id(ch) == cid
        assert parse_channel(cid) == ch

    def test_bad_trials(self):
        with pytest.raises(ValueError):
            run_simulate(PAPER, Bsc(p=0.1), 0, seed=0)
