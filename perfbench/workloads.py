"""The benchmark's workloads: inputs made from a seed, the timed operation, and its checks.

A workload receives the imported program as a namespace of lpdecode modules, so
importing this file loads neither lpdecode nor NumPy.  Each operation is checked
right after it runs (untimed); `finish` runs the costlier checks once the timed
loop is over.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

FORMS = ("feldman", "decomposed")
OBJ_TOL = 1e-7  # the formulations' objectives must agree this closely
SCIPY_TOL = 1e-6  # agreement with HiGHS, relative to max(1, |objective|)
ML_TOL = 1e-7  # LP objective against the exhaustive ML objective
CSV_HEADER = ["trial", "seed", "channel", "sent", "formulation", "integral",
              "certified", "bit_errors", "frame_error", "iterations"]


@dataclass
class Checked:
    """What one operation produced, as the runner needs it."""

    material: bytes  # the op's output; repeated ops must reproduce it exactly
    errors: list[str] = field(default_factory=list)
    keep: object = None  # handed to finish() and exact()
    bytes_out: int = 0  # bytes the CLI wrote


def lp_shapes(m, H) -> dict:
    """Rows, variables, nonzeros and computed dense-tableau cells of both decoding LPs."""
    zero = m.channel.CostVector(gammas=(0.0,) * H.n)
    shapes = {}
    for form in FORMS:
        cs = m.decoder.build_program(H, zero, form).constraints
        rows, n = len(cs.rows), cs.num_vars
        t = rows + n  # constraint rows plus one upper-bound row per variable
        shapes[form] = {"rows": rows, "vars": n, "nnz": sum(len(r.coeffs) for r in cs.rows),
                        "tableau_cells_computed": (t + 1) * (n + t + 1)}
    return shapes


class CompareLdpc48:
    """One op decodes one uniform [-5, 5] cost vector under both formulations.

    These are the paper's equivalence inputs on ldpc-48-24; they make the solver
    pivot heavily, so lpsolver takes nearly all of the time.
    """

    name = "compare-ldpc48"
    tail_pct = 75.0
    work = "decodes"
    work_per_op = 2
    min_ops = 4  # exact counts cover these ops

    def __init__(self, m, seed: int, workdir: str):
        self.m, self.seed = m, seed
        self.H = m.codes.builtin_code("ldpc-48-24")

    def op(self, i: int):
        gamma = self.m.simulate.sample_gamma(self.H.n, self.seed, i)
        decode = self.m.decoder.decode
        return gamma, decode(self.H, gamma, "feldman"), decode(self.H, gamma, "decomposed")

    def check(self, i: int, raw) -> Checked:
        gamma, of, od = raw
        errors = []
        for out in (of, od):
            point = [float(v) for v in out.point]
            if not all(-1e-9 <= v <= 1 + 1e-9 for v in point):
                errors.append(f"{out.formulation}: point leaves the unit box")
            direct = math.fsum(g * v for g, v in zip(gamma.gammas, point))
            if abs(direct - out.objective) > 1e-9 * max(1.0, abs(direct)):
                errors.append(f"{out.formulation}: objective {out.objective!r} != gamma.point {direct!r}")
        gap = abs(of.objective - od.objective)
        if not gap <= OBJ_TOL:
            errors.append(f"formulation objectives differ by {gap:.3g}")
        material = (f"{of.objective.hex()} {of.iterations} {int(of.integral)} "
                    f"{od.objective.hex()} {od.iterations} {int(od.integral)}\n").encode()
        return Checked(material, errors, (gamma.gammas, of.objective, of.iterations, od.iterations))

    def finish(self, kept: dict) -> dict:
        """Cross-check every Feldman objective against scipy's HiGHS, where scipy imports."""
        try:
            import numpy as np
            from scipy.optimize import linprog
        except ImportError:
            return {}
        A, b = self.m.relaxation.feldman_system(self.H).dense()
        A, b = np.asarray(A), np.asarray(b)
        errors = {}
        for i, (gammas, objective, _, _) in kept.items():
            res = linprog(gammas, A_ub=A, b_ub=b, bounds=(0.0, 1.0), method="highs")
            if res.status != 0 or abs(res.fun - objective) > SCIPY_TOL * max(1.0, abs(objective)):
                errors[i] = [f"HiGHS objective {res.fun!r} (status {res.status}) != {objective!r}"]
        return errors

    def exact(self, kept: dict) -> dict:
        return {"pivots": [[kept[i][2], kept[i][3]] for i in range(self.min_ops)],
                "lp": lp_shapes(self.m, self.H)}


class _Simulate:
    """One op is `lpdecode simulate` run in-process on `trials` fresh trials."""

    work = "trials"
    code = channel = ""
    trials = 0
    deep_ops = 0  # leading ops re-decoded directly after the timed loop
    exact_ops = 0  # leading ops whose pivot counts must repeat bit-for-bit
    formulations_agree = False  # continuous costs: a unique optimum, so both LPs agree
    ml_oracle = False  # small codes: compare with the exhaustive ML objective

    def __init__(self, m, seed: int, workdir: str):
        self.m, self.seed = m, seed
        self.H = m.codes.builtin_code(self.code.removeprefix("builtin:"))
        kind, _, value = self.channel.partition(":")
        self.ch = m.channel.Bsc(float(value)) if kind == "bsc" else m.channel.Awgn(float(value))
        self.out = os.path.join(workdir, "trials.csv")
        self.work_per_op = self.trials
        self.min_ops = max(self.deep_ops, self.exact_ops)

    def trial_seed(self, i: int) -> int:
        return self.seed * 1_000_003 + i

    def op(self, i: int) -> int:
        return self.m.cli.main(["simulate", "--code", self.code, "--channel", self.channel,
                                "--formulation", "both", "--trials", str(self.trials),
                                "--seed", str(self.trial_seed(i)), "--out", self.out])

    def _rows(self, data: bytes) -> list[list[str]]:
        return list(csv.reader(io.StringIO(data.decode("ascii"))))[1:]

    def check(self, i: int, rc) -> Checked:
        with open(self.out, "rb") as f:
            data = f.read()
        errors = [] if rc == 0 else [f"exit code {rc}"]
        lines = list(csv.reader(io.StringIO(data.decode("ascii"))))
        if not lines or lines[0] != CSV_HEADER:
            errors.append("unexpected CSV header")
        body = lines[1:]
        if len(body) != 2 * self.trials:
            errors.append(f"{len(body)} records for {self.trials} trials x 2 formulations")
            return Checked(data, errors, None, len(data))
        head = [str(self.trial_seed(i)), self.channel, "zero"]
        for t in range(self.trials):
            pair = body[2 * t:2 * t + 2]
            for form, row in zip(FORMS, pair):
                integral, certified, bit_errors, frame_error = (int(v) for v in row[5:9])
                if row[:4] != [str(t), *head] or row[4] != form:
                    errors.append(f"trial {t}: record {row[:5]} out of place")
                elif frame_error != int(not integral or bit_errors > 0) or certified > integral:
                    errors.append(f"trial {t} {form}: inconsistent flags {row[5:9]}")
            # fractional optima often sit at 1/2, where rounding noise may flip a bit,
            # so bit errors are compared only for integral (codeword) outcomes
            f, d = pair
            if self.formulations_agree and (f[5:7] != d[5:7] or (f[5] == "1" and f[7] != d[7])):
                errors.append(f"trial {t}: formulations disagree {f[5:9]} vs {d[5:9]}")
        keep = data if i < self.min_ops else None
        return Checked(data, errors, keep, len(data))

    def finish(self, kept: dict) -> dict:
        """Re-decode the leading ops' trials directly and compare with the CLI records."""
        m, errors = self.m, {}
        zero = [0] * self.H.n
        for i in range(self.deep_ops):
            if kept.get(i) is None:
                continue
            rows = self._rows(kept[i])
            bad = []
            for t in range(self.trials):
                gamma = m.channel.llr_costs(m.channel.transmit(zero, self.ch, self.trial_seed(i), t),
                                            self.ch)
                ml_obj = m.decoder.brute_force_ml(self.H, gamma)[1] if self.ml_oracle else None
                for k, form in enumerate(FORMS):
                    out = m.decoder.decode(self.H, gamma, form)
                    row = rows[2 * t + k]
                    if [int(out.integral), int(out.ml_certified), out.iterations] != \
                            [int(row[5]), int(row[6]), int(row[9])]:
                        bad.append(f"trial {t} {form}: CLI record {row[5:]} != direct decode")
                    if ml_obj is None:
                        continue
                    if out.objective > ml_obj + ML_TOL:
                        bad.append(f"trial {t} {form}: LP objective {out.objective!r} above ML {ml_obj!r}")
                    if out.integral and abs(out.objective - ml_obj) > ML_TOL:
                        bad.append(f"trial {t} {form}: integral objective {out.objective!r} != ML {ml_obj!r}")
            if bad:
                errors[i] = bad
        return errors

    def exact(self, kept: dict) -> dict:
        pivots = [int(row[9]) for i in range(self.exact_ops) for row in self._rows(kept[i])]
        return {"pivots": pivots, "lp": lp_shapes(self.m, self.H)}


class SimulateLdpc48Awgn(_Simulate):
    """An FER-curve point in the waterfall (FER ~0.1), the user's real job.

    LLR costs keep pivot counts low, so LP assembly and tableau set-up weigh
    far more than in compare-ldpc48.
    """

    name = "simulate-ldpc48-awgn"
    code, channel, trials = "builtin:ldpc-48-24", "awgn:0.7", 10
    deep_ops, exact_ops = 2, 2
    tail_pct = 75.0
    formulations_agree = True


class SimulateHammingBsc(_Simulate):
    """Tiny LPs with a median of 0 pivots, so fixed per-call costs dominate.

    A change that adds fixed cost per solve shows here even when it wins on
    compare-ldpc48.
    """

    name = "simulate-hamming-bsc"
    code, channel, trials = "builtin:hamming-7-4", "bsc:0.05", 25
    deep_ops, exact_ops = 8, 4
    tail_pct = 98.0
    ml_oracle = True


class CountsHighdeg:
    """One op is `lpdecode counts` on a generated alist file with check degrees 3..12.

    No solver runs: alist parsing and odd-subset row generation do the work, so
    this is the only workload where relaxation dominates.
    """

    name = "counts-highdeg"
    tail_pct = 99.0
    work = "codes"
    work_per_op = 1
    n_cols = 40
    degrees = tuple(range(3, 13))  # every code has one check of each degree, so ops cost alike
    n_codes = 8
    min_ops = n_codes

    def __init__(self, m, seed: int, workdir: str):
        self.m = m
        rng = random.Random(seed)
        self.codes, self.files, self.expected = [], [], []
        for k in range(self.n_codes):
            degs = list(self.degrees)
            rng.shuffle(degs)
            H = m.codes.ParityCheckMatrix(
                n=self.n_cols, rows=tuple(tuple(sorted(rng.sample(range(self.n_cols), d))) for d in degs))
            name = f"code-{k}.alist"
            with open(os.path.join(workdir, name), "w") as f:
                f.write(m.codes.write_alist(H))
            self.codes.append(H)
            self.files.append(name)
            self.expected.append(self._closed_form(name, degs))
        self.out = os.path.join(workdir, "counts.json")
        self.first: dict[int, bytes] = {}

    def _closed_form(self, name: str, degs: list[int]) -> dict:
        parity = sum(2 ** (d - 1) for d in degs)
        chain = sum(d - 2 for d in degs)
        aux = sum(d - 3 for d in degs)
        return {"code": name, "n": self.n_cols, "m": len(degs),
                "feldman_parity_rows": parity, "feldman_box_rows": 2 * self.n_cols,
                "decomposed_rows": 4 * chain, "aux_vars": aux, "degree3_checks": chain,
                "measured_feldman_rows": parity + 2 * self.n_cols,
                "measured_decomposed_rows": 4 * chain, "measured_aux_vars": aux}

    def op(self, i: int) -> int:
        # the code path is relative to the working directory, so outputs match across checkouts
        return self.m.cli.main(["counts", "--code", self.files[i % self.n_codes], "--out", self.out])

    def check(self, i: int, rc) -> Checked:
        k = i % self.n_codes
        with open(self.out, "rb") as f:
            data = f.read()
        errors = [] if rc == 0 else [f"exit code {rc}"]
        got = json.loads(data)
        wrong = {key: got.get(key) for key, want in self.expected[k].items() if got.get(key) != want}
        if wrong:
            errors.append(f"counts differ from the closed form: {wrong}")
        if self.first.setdefault(k, data) != data:
            errors.append(f"output for {self.files[k]} differs from its first run")
        return Checked(data, errors, k, len(data))

    def finish(self, kept: dict) -> dict:
        """The program's own closed form must agree with the benchmark's."""
        m, bad_codes = self.m, set()
        for k, H in enumerate(self.codes):
            c = m.relaxation.count_constraints(m.codes.degree_profile(H), H.n)
            e = self.expected[k]
            if (c.feldman_parity_rows, c.feldman_box_rows, c.decomposed_rows, c.aux_vars,
                    c.degree3_checks) != (e["feldman_parity_rows"], e["feldman_box_rows"],
                                          e["decomposed_rows"], e["aux_vars"], e["degree3_checks"]):
                bad_codes.add(k)
        return {i: ["count_constraints disagrees with the closed form"]
                for i, k in kept.items() if k in bad_codes}

    def exact(self, kept: dict) -> dict:
        systems = []
        for H in self.codes:
            fs = self.m.relaxation.feldman_system(H, include_boxes=True)
            ds = self.m.relaxation.decomposed_system(self.m.relaxation.decompose(H), H.n)
            systems.append([len(fs.rows), sum(len(r.coeffs) for r in fs.rows),
                            len(ds.rows), sum(len(r.coeffs) for r in ds.rows)])
        return {"systems_rows_nnz": systems}


WORKLOADS = {w.name: w for w in (CompareLdpc48, SimulateLdpc48Awgn, SimulateHammingBsc,
                                 CountsHighdeg)}
