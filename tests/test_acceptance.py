"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete)."""

import itertools
import time

import numpy as np
import pytest

from lpdecode.channel import Bsc
from lpdecode.cli import main
from lpdecode.codes import ParityCheckMatrix, builtin_code, degree_profile
from lpdecode.decoder import brute_force_ml, decode
from lpdecode.lpsolver import LinearProgram, solve
from lpdecode.relaxation import (ConstraintSystem, count_constraints, decompose,
                                 decomposed_system, feldman_system, odd_binomial_sum)
from lpdecode.simulate import run_compare, run_simulate, sample_gamma

from conftest import random_matrix
from test_relaxation import PAPER_A, PAPER_B, chain_extend, satisfies

ALL_CODES = ("paper-example", "hamming-7-4", "ldpc-48-24")


def report(num, label, elapsed, limit):
    print(f"ACCEPTANCE {num}: PASS  {label}  ({elapsed:.3f}s < {limit:g}s)")


def test_criterion_1_golden_system():
    H = builtin_code("paper-example")
    feldman_system(H)  # warm up
    t0 = time.perf_counter()
    cs = feldman_system(H, include_boxes=False)
    elapsed = time.perf_counter() - t0
    A, b = cs.dense()
    assert A == [[float(v) for v in row] for row in PAPER_A]
    assert b == [float(v) for v in PAPER_B]
    assert elapsed < 1e-3
    report(1, "worked 8x4 system reproduced bit-exactly", elapsed, 1e-3)


def test_criterion_2_counting_identities():
    rng = np.random.default_rng(2)
    matrices = [random_matrix(rng, max_checks=30, min_degree=3, max_degree=10)
                for _ in range(200)]
    t0 = time.perf_counter()
    for H in matrices:
        prof = degree_profile(H)
        counts = count_constraints(prof, H.n)
        fs = feldman_system(H, include_boxes=True)
        assert len(fs.rows) == sum(2 ** (d - 1) for d in prof.check_degrees) + 2 * H.n
        assert len(fs.rows) == counts.feldman_parity_rows + counts.feldman_box_rows
        D = decompose(H)
        ds = decomposed_system(D, H.n)
        assert len(ds.rows) == 4 * sum(d - 2 for d in prof.check_degrees)
        assert len(ds.rows) == counts.decomposed_rows
        assert D.n - H.n == sum(d - 3 for d in prof.check_degrees) == counts.aux_vars
        assert degree_profile(D).check_degrees == (3,) * sum(d - 2 for d in prof.check_degrees)
    for d in range(1, 31):
        assert odd_binomial_sum(d) == 2 ** (d - 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "row/aux counting formulas on 200 random matrices", elapsed, 1.0)


def test_criterion_3_box_implication():
    t0 = time.perf_counter()
    wide = [(-10.0, 10.0)] * 3
    for name in ALL_CODES:
        H = builtin_code(name)
        D = decompose(H)
        for triple in D.rows:
            # the triple's one-check system, with its columns in triple order
            check = ParityCheckMatrix(n=max(triple) + 1, rows=(triple,))
            A, b = feldman_system(check).arrays
            local = ConstraintSystem(num_vars=3, arrays=(A[:, list(triple)], b))
            for v in range(3):
                for sign in (1.0, -1.0):
                    c = [0.0, 0.0, 0.0]
                    c[v] = sign
                    sol = solve(LinearProgram(c, local, wide))
                    assert sol.status == "optimal"
                    assert -1e-9 <= sol.point[v] <= 1.0 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "triple rows imply the unit box for every builtin triple", elapsed, 1.0)


def test_criterion_4_formulation_equivalence():
    t0 = time.perf_counter()
    for name in ALL_CODES:
        H = builtin_code(name)
        for t in range(100):
            gamma = sample_gamma(H.n, 404, t)
            out_f = decode(H, gamma, "feldman")
            out_d = decode(H, gamma, "decomposed")
            assert abs(out_f.objective - out_d.objective) <= 1e-7
            if out_f.integral and out_d.integral:
                assert out_f.codeword == out_d.codeword
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(4, "objective equality over 3 codes x 100 costs", elapsed, 30.0)


def test_criterion_5_ml_certificate():
    t0 = time.perf_counter()
    H = builtin_code("hamming-7-4")
    integral_seen = 0
    for t in range(100):
        gamma = sample_gamma(H.n, 505, t)
        out = decode(H, gamma, "feldman")
        if out.integral:
            integral_seen += 1
            oracle_cw, oracle_obj = brute_force_ml(H, gamma)
            assert out.codeword == oracle_cw
            assert out.objective == pytest.approx(oracle_obj, abs=1e-7)
    assert integral_seen > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, f"{integral_seen}/100 integral decodes all match the ML oracle",
           elapsed, 10.0)


def test_criterion_6_feasibility_exclusion():
    t0 = time.perf_counter()
    for name in ("paper-example", "hamming-7-4"):
        H = builtin_code(name)
        fs = feldman_system(H, include_boxes=True)
        D = decompose(H)
        ds = decomposed_system(D, H.n)
        for bits in itertools.product((0, 1), repeat=H.n):
            is_cw = all(sum(bits[i] for i in row) % 2 == 0 for row in H.rows)
            assert satisfies(fs, bits) == is_cw
            assert satisfies(ds, chain_extend(D, bits)) == is_cw
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(6, "exhaustive 0/1 feasibility matches the codeword set", elapsed, 5.0)


def test_criterion_7_simulation_sanity(tmp_path):
    t0 = time.perf_counter()
    H = builtin_code("hamming-7-4")
    fers = []
    for p in (0.01, 0.03, 0.05):
        _, summary = run_simulate(H, Bsc(p=p), trials=2000, seed=2014)
        fers.append(summary["per_formulation"]["feldman"]["fer"])
    assert fers[0] <= fers[1] <= fers[2]
    args = ["simulate", "--code", "builtin:hamming-7-4", "--channel", "bsc:0.03",
            "--trials", "2000", "--seed", "2014"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(7, f"paired-seed FER monotone {fers} and reruns byte-identical",
           elapsed, 300.0)


def test_criterion_8_measured_comparison_report():
    # the source text claims no experiments; the complexity statement is
    # checked as exact counts (criterion 2) plus this reported, non-asserted
    # wall-clock comparison
    t0 = time.perf_counter()
    rep = run_compare(builtin_code("ldpc-48-24"), num_gammas=10, seed=8,
                      code_name="ldpc-48-24")
    d = rep.to_json_dict(with_timing=True)
    assert d["measured_feldman_rows"] == 768 + 96
    assert d["measured_decomposed_rows"] == 384
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE 8: PASS  counts 864 vs 384 rows; mean wall-clock ns "
          f"feldman={d['mean_wall_clock_ns']['feldman']:.0f} "
          f"decomposed={d['mean_wall_clock_ns']['decomposed']:.0f} "
          f"(reported, not asserted)  ({elapsed:.3f}s)")
