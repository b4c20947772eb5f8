import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lpdecode
from lpdecode import lpsolver, simulate
from lpdecode.cli import _counts_csv, main
from lpdecode.codes import ParityCheckMatrix, builtin_code, write_alist
from lpdecode.simulate import run_compare


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCounts:
    def test_builtin_json(self, capsys):
        code, out = run(capsys, "counts", "--code", "builtin:paper-example")
        assert code == 0
        d = json.loads(out)
        assert d["feldman_parity_rows"] == 8
        assert d["decomposed_rows"] == 8

    def test_csv_format(self, capsys):
        code, out = run(capsys, "counts", "--code", "builtin:ldpc-48-24",
                        "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "field,value"
        assert "feldman_parity_rows,768" in out

    def test_alist_file(self, tmp_path, capsys):
        path = tmp_path / "code.alist"
        path.write_text(write_alist(builtin_code("hamming-7-4")))
        code, out = run(capsys, "counts", "--code", str(path))
        assert code == 0
        assert json.loads(out)["n"] == 7

    def test_unknown_builtin(self, capsys):
        code, _ = run(capsys, "counts", "--code", "builtin:nope")
        assert code == 2

    def test_missing_file(self, capsys):
        code, _ = run(capsys, "counts", "--code", "/does/not/exist.alist")
        assert code == 2

    def test_degree2_check_counted(self, tmp_path, capsys):
        # the chain keeps a degree-2 check as it is: its 2 odd-subset rows, no auxiliaries
        path = tmp_path / "deg2.alist"
        path.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n")
        for argv in (("counts",), ("compare", "--num-gammas", "3")):
            code, out = run(capsys, *argv, "--code", str(path))
            assert code == 0
            d = json.loads(out)
            assert (d["decomposed_rows"], d["aux_vars"], d["degree3_checks"]) == (2, 0, 0)
            assert d["measured_decomposed_rows"] == 2

    def test_counts_mismatch_exit_code(self, capsys, monkeypatch):
        # formula and generated systems disagreeing is a program fault, not bad input
        count = simulate.count_constraints

        def overcount(*args):
            counts = count(*args)
            return dataclasses.replace(counts, aux_vars=counts.aux_vars + 1)

        monkeypatch.setattr(simulate, "count_constraints", overcount)
        code, out = run(capsys, "counts", "--code", "builtin:ldpc-48-24")
        assert code == 3 and out == ""

    def test_out_replaces_longer_file(self, tmp_path, capsys):
        _, out = run(capsys, "counts", "--code", "builtin:paper-example")
        path = tmp_path / "counts.json"
        path.write_text("x" * (2 * len(out)))
        assert main(["counts", "--code", "builtin:paper-example", "--out", str(path)]) == 0
        assert path.read_text() == out
        assert main(["counts", "--code", "builtin:paper-example", "--out", os.devnull]) == 0


class TestCompare:
    def test_small_compare(self, capsys):
        code, out = run(capsys, "compare", "--code", "builtin:paper-example",
                        "--num-gammas", "20", "--seed", "3")
        assert code == 0
        d = json.loads(out)
        assert d["max_objective_gap"] <= 1e-7
        assert d["num_gammas"] == 20
        assert "mean_wall_clock_ns" not in d  # timing off by default

    def test_timing_flag(self, capsys):
        code, out = run(capsys, "compare", "--code", "builtin:paper-example",
                        "--num-gammas", "2", "--timing")
        assert code == 0
        assert "mean_wall_clock_ns" in json.loads(out)


class TestCompareCsv:
    ARGS = ("compare", "--code", "builtin:hamming-7-4", "--num-gammas", "4", "--seed", "2")

    def test_csv_equals_json(self, capsys):
        # one report in both formats, since wall-clock means differ from run to run
        report = run_compare(builtin_code("hamming-7-4"), 4, 2, code_name="builtin:hamming-7-4")
        rows = list(csv.reader(io.StringIO(_counts_csv(report.to_json_dict()))))
        assert rows[0] == ["field", "value"]
        flat = {}
        for k, v in report.to_json_dict().items():
            if isinstance(v, dict):
                flat.update({f"{k}.{form}": str(x) for form, x in v.items()})
            else:
                flat[k] = str(v)
        assert dict(rows[1:]) == flat
        assert len(rows) == 1 + len(flat)
        for field in ("mean_iterations", "mean_wall_clock_ns"):
            assert {f"{field}.feldman", f"{field}.decomposed"} <= set(flat)
        _, out = run(capsys, *self.ARGS, "--format", "csv", "--timing")
        assert "\nmean_wall_clock_ns.decomposed," in out

    def test_no_timing_rows_and_byte_identical(self, capsys):
        _, first = run(capsys, *self.ARGS, "--format", "csv")
        _, second = run(capsys, *self.ARGS, "--format", "csv")
        assert first == second
        assert "mean_iterations.feldman," in first
        assert "mean_wall_clock_ns" not in first

    def test_counts_csv_unchanged(self, capsys):
        _, out = run(capsys, "counts", "--code", "builtin:paper-example", "--format", "csv")
        assert out == ("field,value\nschema,1\ncode,builtin:paper-example\nn,4\nm,2\n"
                       "feldman_parity_rows,8\nfeldman_box_rows,8\ndecomposed_rows,8\n"
                       "aux_vars,0\ndegree3_checks,2\nmeasured_feldman_rows,16\n"
                       "measured_decomposed_rows,8\nmeasured_aux_vars,0\n")


class TestGoldenOutput:
    """Exact output bytes and key order, pinned across refactors of the writers."""

    COMPARE_KEYS = ["schema", "code", "n", "m", "feldman_parity_rows", "feldman_box_rows",
                    "decomposed_rows", "aux_vars", "degree3_checks", "measured_feldman_rows",
                    "measured_decomposed_rows", "measured_aux_vars", "num_gammas", "seed",
                    "max_objective_gap", "mean_iterations"]

    def test_decode_json(self, capsys):
        code, out = run(capsys, "decode", "--code", "builtin:paper-example", "--gamma=1,-1,1,-1")
        assert code == 0
        assert out == ('{\n  "formulation": "feldman",\n  "point": [\n    1.0,\n    1.0,\n'
                       '    0.0,\n    1.0\n  ],\n  "objective": -1.0,\n  "integral": true,\n'
                       '  "codeword": [\n    1,\n    1,\n    0,\n    1\n  ],\n'
                       '  "ml_certified": true,\n  "iterations": 1\n}\n')
        _, timed = run(capsys, "decode", "--code", "builtin:paper-example", "--gamma=1,-1,1,-1",
                       "--timing")
        assert list(json.loads(timed)) == list(json.loads(out)) + ["wall_clock_ns"]

    def test_simulate_csv(self, capsys):
        args = ("simulate", "--code", "builtin:hamming-7-4", "--channel", "bsc:0.05",
                "--trials", "4", "--seed", "3", "--formulation", "both")
        header = ("trial,seed,channel,sent,formulation,integral,certified,bit_errors,"
                  "frame_error,iterations")
        code, out = run(capsys, *args)
        assert code == 0
        assert out == (header + "\n"
                       "0,3,bsc:0.05,zero,feldman,1,1,0,0,0\n"
                       "0,3,bsc:0.05,zero,decomposed,1,1,0,0,0\n"
                       "1,3,bsc:0.05,zero,feldman,1,1,0,0,0\n"
                       "1,3,bsc:0.05,zero,decomposed,1,1,0,0,0\n"
                       "2,3,bsc:0.05,zero,feldman,1,1,4,1,1\n"
                       "2,3,bsc:0.05,zero,decomposed,1,1,4,1,1\n"
                       "3,3,bsc:0.05,zero,feldman,1,1,0,0,0\n"
                       "3,3,bsc:0.05,zero,decomposed,1,1,0,0,0\n")
        _, timed = run(capsys, *args, "--timing")
        lines = timed.splitlines()
        assert lines[0] == header + ",wall_clock_ns"
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == out.splitlines()[1:]

    def test_simulate_hard_decision_codeword(self, capsys):
        # trial 8's hard decision is a nonzero codeword, 3 bits from the one
        # sent: both formulations return it without solving an LP
        code, out = run(capsys, "simulate", "--code", "builtin:hamming-7-4", "--channel",
                        "bsc:0.05", "--trials", "9", "--seed", "135", "--formulation", "both")
        assert code == 0
        assert out.splitlines()[-2:] == ["8,135,bsc:0.05,zero,feldman,1,1,3,1,0",
                                         "8,135,bsc:0.05,zero,decomposed,1,1,3,1,0"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_compare_key_order(self, capsys, fmt):
        args = ("compare", "--code", "builtin:paper-example", "--num-gammas", "2", "--seed", "1",
                "--format", fmt)

        def keys(out):
            if fmt == "json":
                return list(json.loads(out))
            return list(dict.fromkeys(row[0].split(".")[0] for row in csv.reader(io.StringIO(out))))

        _, plain = run(capsys, *args)
        _, timed = run(capsys, *args, "--timing")
        assert keys(plain) == (["field"] if fmt == "csv" else []) + self.COMPARE_KEYS
        assert keys(timed) == keys(plain) + ["mean_wall_clock_ns"]


class TestDecode:
    def test_inline_gamma(self, capsys):
        code, out = run(capsys, "decode", "--code", "builtin:paper-example",
                        "--gamma", "1,1,1,1")
        assert code == 0
        d = json.loads(out)
        assert d["codeword"] == [0, 0, 0, 0]
        assert d["ml_certified"] is True

    def test_gamma_file(self, tmp_path, capsys):
        gf = tmp_path / "gamma.txt"
        gf.write_text("-1 -1 -1 -1\n")
        code, out = run(capsys, "decode", "--code", "builtin:paper-example",
                        "--gamma", f"@{gf}", "--formulation", "decomposed")
        assert code == 0
        assert json.loads(out)["integral"] is True

    def test_wrong_length(self, capsys):
        code, _ = run(capsys, "decode", "--code", "builtin:paper-example",
                      "--gamma", "1,2")
        assert code == 2

    def test_non_numeric(self, capsys):
        code, _ = run(capsys, "decode", "--code", "builtin:paper-example",
                      "--gamma", "1,2,x,4")
        assert code == 2

    def test_non_finite_cost(self, capsys):
        code, _ = run(capsys, "decode", "--code", "builtin:paper-example",
                      "--gamma", "1,nan,1,inf")
        assert code == 2

    def test_csv_format_rejected(self, capsys):
        # decode writes JSON only, so argparse refuses csv
        with pytest.raises(SystemExit) as exc:
            main(["decode", "--code", "builtin:paper-example", "--gamma", "1,1,1,1",
                  "--format", "csv"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_iteration_cap_exit_code(self, capsys, monkeypatch):
        # the hard decision, a single 1 in bit 6, is not a codeword
        args = ("decode", "--code", "builtin:hamming-7-4", "--gamma=1,1,1,1,1,1,-1")
        code, out = run(capsys, *args)
        assert code == 0 and json.loads(out)["iterations"] >= 2
        monkeypatch.setattr(lpsolver, "MAX_ITER", 1)
        code, _ = run(capsys, *args)
        assert code == 3

    @pytest.mark.parametrize("fault", ["negative-reduced-cost", "infeasible"])
    def test_solver_fault_exit_code(self, capsys, monkeypatch, fault):
        # any solver fault, not only the iteration cap, exits 3 instead of escaping main
        run_dual = lpsolver._run_dual_simplex

        def spoiled(T, *args):
            iters, status = run_dual(T, *args)
            if fault == "infeasible":
                return iters, "infeasible"
            T[-1, 0] = -1.0
            return iters, status

        monkeypatch.setattr(lpsolver, "_run_dual_simplex", spoiled)
        code, out = run(capsys, "decode", "--code", "builtin:hamming-7-4",
                        "--gamma", "1,1,1,1,1,1,-1")
        assert code == 3 and out == ""


class TestOversizedSystem:
    """One degree-40 check: 2^39 odd-subset rows, but only 38 chain triples."""

    GAMMA = "--gamma=" + ",".join(["-1", "1"] * 20)

    @pytest.fixture
    def alist(self, tmp_path):
        path = tmp_path / "deg40.alist"
        path.write_text(write_alist(ParityCheckMatrix(n=40, rows=(tuple(range(40)),))))
        return str(path)

    def test_counts_without_odd_subset_system(self, capsys, alist):
        t0 = time.perf_counter()
        code, out = run(capsys, "counts", "--code", alist)
        elapsed = time.perf_counter() - t0
        assert code == 0 and elapsed < 0.1
        d = json.loads(out)
        assert d["feldman_parity_rows"] == 2 ** 39
        assert d["measured_feldman_rows"] == 2 ** 39 + 80
        assert (d["decomposed_rows"], d["aux_vars"]) == (152, 37)

    @pytest.mark.parametrize("argv", [("compare",), ("decode", GAMMA, "--formulation", "feldman")])
    def test_odd_subset_system_refused(self, capsys, alist, argv):
        code = main([argv[0], "--code", alist, *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "exceeds" in captured.err

    def test_chain_decodes(self, capsys, alist):
        code, out = run(capsys, "decode", "--code", alist, self.GAMMA,
                        "--formulation", "decomposed")
        assert code == 0
        d = json.loads(out)
        assert d["ml_certified"] is True
        assert d["codeword"] == [1, 0] * 20


class TestOversizedTableau:
    """gallager:8064,3,6,1 stores few entries, but a solve's dense tableau would
    have 8,065^2 cells under Feldman and 20,161^2 on the chain."""

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_decode_refused(self, capsys, formulation):
        code = main(["decode", "--code", "gallager:8064,3,6,1",
                     "--gamma=" + ",".join(["1"] * 8064), "--formulation", formulation])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"{formulation} tableau" in captured.err and "exceeds" in captured.err


class TestLargeCode:
    """gallager:2016,3,6,1: a 16,128 x 5,040 chain system, stored as its 48,384
    nonzeros; a dense A of it would exceed 2**25 cells."""

    SPEC = "gallager:2016,3,6,1"

    def test_counts(self, capsys):
        code, out = run(capsys, "counts", "--code", self.SPEC)
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["m"]) == (2016, 1008)
        assert d["decomposed_rows"] == d["measured_decomposed_rows"] == 4 * 1008 * (6 - 2)
        assert d["aux_vars"] == d["measured_aux_vars"] == 1008 * (6 - 3)

    @pytest.mark.parametrize("formulation", ["feldman", "decomposed"])
    def test_decode_compiles(self, capsys, formulation):
        # all-positive costs take the hard-decision path, after the system is compiled
        code, out = run(capsys, "decode", "--code", self.SPEC, "--gamma=" + ",".join(["1"] * 2016),
                        "--formulation", formulation)
        assert code == 0
        d = json.loads(out)
        assert d["codeword"] == [0] * 2016 and d["ml_certified"] is True
        assert d["iterations"] == 0


class TestGallagerSpec:
    def test_loads(self, capsys):
        code, out = run(capsys, "counts", "--code", "gallager:204,3,6,1")
        assert code == 0
        d = json.loads(out)
        assert (d["n"], d["m"], d["feldman_parity_rows"]) == (204, 102, 102 * 32)

    @pytest.mark.parametrize("spec", ["gallager:", "gallager:48,3,6", "gallager:48,3,6,1,2",
                                      "gallager:48,3,x,1", "gallager:48,3,6,1.5",
                                      "gallager:50,3,6,1", "gallager:48,3,0,1",
                                      "gallager:48,3,6,-1"])
    def test_bad_spec_exit_code(self, capsys, spec):
        code = main(["counts", "--code", spec])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", [["counts"], ["simulate", "--channel", "bsc:0.1",
                                                      "--trials", "1"]])
    def test_too_many_ones_exit_code(self, capsys, command):
        # 18e9 ones, past MAX_ENTRIES: refused before the code is built
        t0 = time.perf_counter()
        code = main([*command, "--code", "gallager:6000000000,3,6,1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: gallager code of 18000000000 ones exceeds "
                                "MAX_ENTRIES = 33554432\n")
        assert time.perf_counter() - t0 < 1.0


class TestSimulate:
    def test_csv_stream(self, capsys):
        code, out = run(capsys, "simulate", "--code", "builtin:paper-example",
                        "--channel", "bsc:0.05", "--trials", "10", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("trial,seed,channel,sent,formulation")
        assert len(lines) == 11

    def test_json_summary(self, capsys):
        code, out = run(capsys, "simulate", "--code", "builtin:paper-example",
                        "--channel", "bsc:0.05", "--trials", "10", "--seed", "1",
                        "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["schema"] == 1
        assert "feldman" in d["per_formulation"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--code", "builtin:hamming-7-4",
                "--channel", "bsc:0.03", "--trials", "25", "--seed", "8"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("code, channel", [("builtin:hamming-7-4", "bsc:0.05"),
                                               ("builtin:ldpc-48-24", "awgn:0.7"),
                                               # 9 auxiliaries per check
                                               ("gallager:120,3,12,1", "awgn:0.5")])
    def test_byte_identical_across_processes(self, tmp_path, code, channel):
        # two fresh interpreters compile the code's LPs themselves; the
        # in-process run reuses the systems a warm-up run compiled
        args = ["simulate", "--code", code, "--channel", channel,
                "--formulation", "both", "--trials", "4", "--seed", "11"]
        env = dict(os.environ)
        src = str(Path(lpdecode.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outputs = []
        for k in range(2):
            out = tmp_path / f"proc{k}.csv"
            subprocess.run([sys.executable, "-m", "lpdecode.cli", *args, "--out", str(out)],
                           env=env, check=True, timeout=120)
            outputs.append(out.read_bytes())
        warm = args[:-1] + ["12", "--out", str(tmp_path / "warm.csv")]
        assert main(warm) == 0
        out = tmp_path / "inproc.csv"
        assert main(args + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
        assert outputs[0].count(b"\n") == 1 + 2 * 4
        assert outputs[0] == outputs[1] == outputs[2]

    def test_awgn_channel(self, capsys):
        code, out = run(capsys, "simulate", "--code", "builtin:paper-example",
                        "--channel", "awgn:0.8", "--trials", "5", "--seed", "0",
                        "--formulation", "both", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert set(d["per_formulation"]) == {"feldman", "decomposed"}

    def test_bad_channel(self, capsys):
        code, _ = run(capsys, "simulate", "--code", "builtin:paper-example",
                      "--channel", "bsc:0.7", "--trials", "1")
        assert code == 2

    def test_non_finite_awgn_sigma(self, capsys):
        code = main(["simulate", "--code", "builtin:paper-example",
                     "--channel", "awgn:inf", "--trials", "1"])
        assert code == 2
        assert "AWGN sigma" in capsys.readouterr().err

    def test_unparsable_channel(self, capsys):
        code, _ = run(capsys, "simulate", "--code", "builtin:paper-example",
                      "--channel", "laser:9", "--trials", "1")
        assert code == 2


@pytest.mark.parametrize("argv, seed", [
    (("compare", "--code", "builtin:paper-example", "--seed", "-1"), -1),
    (("simulate", "--code", "builtin:paper-example", "--channel", "bsc:0.1", "--trials", "2",
      "--seed", "-3"), -3)])
def test_negative_seed(capsys, argv, seed):
    # an input error, with a message that names the seed
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"seed and trial must be non-negative, got seed {seed}, trial 0" in captured.err


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique and NumPy's other set routines import numpy.ma, 1.7 MB of
    # resident memory; no command needs it, the chain's crash table included
    script = f"""
import sys
from lpdecode.cli import main
from lpdecode.simulate import sample_gamma
gamma = ",".join(map(repr, map(float, sample_gamma(48, 1, 0).gammas)))
for argv in (["counts"], ["compare", "--num-gammas", "3"],
             ["decode", "--gamma=" + gamma, "--formulation", "feldman"],
             ["decode", "--gamma=" + gamma, "--formulation", "decomposed"],
             ["simulate", "--channel", "awgn:0.7", "--trials", "5", "--formulation", "both"]):
    assert main([*argv, "--code", "builtin:ldpc-48-24", "--out", {str(tmp_path / "out")!r}]) == 0
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ)
    src = str(Path(lpdecode.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout == "False\n"
