import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
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

    def test_degree2_strict_error(self, tmp_path, capsys):
        # degree-2 row: strict counting must refuse
        path = tmp_path / "deg2.alist"
        path.write_text("2 1\n1 2\n1 1\n2\n1\n1\n1 2\n")
        code, _ = run(capsys, "counts", "--code", str(path))
        assert code == 2

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

    def test_all_positive_zero_gap(self, capsys):
        code, out = run(capsys, "compare", "--code", "builtin:hamming-7-4",
                        "--num-gammas", "1", "--all-positive")
        assert code == 0
        assert json.loads(out)["max_objective_gap"] == 0.0

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
        rows = list(csv.reader(io.StringIO(_counts_csv(report, with_timing=True))))
        assert rows[0] == ["field", "value"]
        flat = {}
        for k, v in report.to_json_dict(with_timing=True).items():
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

    @pytest.mark.parametrize("argv", [("counts",), ("decode", GAMMA, "--formulation", "feldman")])
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
                                               ("builtin:ldpc-48-24", "awgn:0.7")])
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
