"""Command-line front end: counts, compare, decode, and simulate subcommands.

This is the only module that knows the output formats.  The library returns
plain records; they are written here as JSON or CSV in field order, and every
key or column whose name ends in `wall_clock_ns` is dropped unless `--timing`
is given, so default output is byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import operator
import os
import sys
from pathlib import Path

from . import lpsolver
from .channel import CostVector, parse_channel
from .codes import BUILTINS, ParityCheckMatrix, builtin_code, gallager, parse_alist
from .decoder import FORMULATIONS, DecodeError, decode
from .simulate import CountsMismatchError, TrialRecord, run_compare, run_counts, run_simulate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


class InputError(Exception):
    pass


def load_code(source: str) -> ParityCheckMatrix:
    """Load 'builtin:NAME', 'gallager:N,DV,DC,SEED' or an alist file path."""
    if source.startswith("builtin:"):
        return builtin_code(source[len("builtin:"):])
    if source.startswith("gallager:"):
        try:
            n, dv, dc, seed = map(int, source[len("gallager:"):].split(","))
        except ValueError:
            raise InputError(f"bad code spec {source!r}; expected gallager:N,DV,DC,SEED") from None
        return gallager(n, dv, dc, seed)
    path = Path(source)
    if not path.is_file():
        raise InputError(f"no such code file: {source}")
    return parse_alist(path.read_text())


def parse_gamma(spec: str) -> CostVector:
    """Comma-separated values, or @FILE with whitespace/comma-separated values."""
    if spec.startswith("@"):
        text = Path(spec[1:]).read_text().replace(",", " ")
        parts = text.split()
    else:
        parts = spec.split(",")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"non-numeric cost entry in {spec!r}") from None
    return CostVector(gammas=vals)


def _emit(text: str, out: str | None):
    if out:
        # overwrite in place, then cut to length: truncating on open makes ext4
        # flush the file on close, and the next run's truncation waits for that write
        with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.write(text)
            if os.path.isfile(out):
                f.truncate()
    else:
        sys.stdout.write(text)


def _shown(names, timing: bool) -> list[str]:
    """Every name with --timing; without it, every name but the *wall_clock_ns ones."""
    return [k for k in names if timing or not k.endswith("wall_clock_ns")]


def _counts_csv(d: dict) -> str:
    """(field, value) lines; a dict field gives one line per key, named field.key."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["field", "value"])
    for k, v in d.items():
        if isinstance(v, dict):
            w.writerows([f"{k}.{form}", x] for form, x in v.items())
        else:
            w.writerow([k, v])
    return buf.getvalue()


def _emit_dict(d: dict, args):
    """A result's shown keys, as indented JSON or as (field, value) CSV lines."""
    d = {k: d[k] for k in _shown(d, args.timing)}
    if args.format == "csv":
        _emit(_counts_csv(d), args.out)
    else:
        _emit(json.dumps(d, indent=2) + "\n", args.out)


def cmd_counts(args) -> int:
    H = load_code(args.code)
    _emit_dict(run_counts(H, code_name=args.code).to_json_dict(), args)
    return EXIT_OK


def cmd_compare(args) -> int:
    H = load_code(args.code)
    report = run_compare(H, args.num_gammas, args.seed, code_name=args.code)
    _emit_dict(report.to_json_dict(), args)
    return EXIT_OK


def cmd_decode(args) -> int:
    H = load_code(args.code)
    gamma = parse_gamma(args.gamma)
    outcome = decode(H, gamma, args.formulation)
    _emit_dict(dict(vars(outcome), point=outcome.point.tolist()), args)
    return EXIT_OK


def _records_csv(records: list[TrialRecord], timing: bool) -> str:
    """The shown fields as header, then one row per record, flags as 0/1."""
    header = _shown([f.name for f in dataclasses.fields(TrialRecord)], timing)
    shown = operator.attrgetter(*header)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows([int(v) if v.__class__ is bool else v for v in shown(r)] for r in records)
    return buf.getvalue()


def cmd_simulate(args) -> int:
    H = load_code(args.code)
    ch = parse_channel(args.channel)
    formulations = FORMULATIONS if args.formulation == "both" else (args.formulation,)
    records, summary = run_simulate(H, ch, args.trials, args.seed, formulations)
    if args.format == "json":
        _emit_dict(summary, args)
    else:
        _emit(_records_csv(records, args.timing), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="lpdecode",
                                description="LP decoding of binary linear codes: "
                                            "odd-subset relaxation vs degree-3 chain reformulation.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, default_format, formats=("csv", "json")):
        sp.add_argument("--code", required=True,
                        help="alist file path, gallager:N,DV,DC,SEED or "
                             f"builtin:{{{','.join(BUILTINS)}}}")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=formats, default=default_format)
        sp.add_argument("--timing", action="store_true",
                        help="include wall-clock fields (breaks byte-identical reruns)")

    sp = sub.add_parser("counts", help="constraint-count table for both formulations")
    add_common(sp, "json")
    sp.set_defaults(func=cmd_counts)

    sp = sub.add_parser("compare", help="solve both formulations on random costs")
    add_common(sp, "json")
    sp.add_argument("--num-gammas", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("decode", help="decode one cost vector")
    add_common(sp, "json", formats=("json",))
    sp.add_argument("--gamma", required=True, help="comma-separated costs or @FILE")
    sp.add_argument("--formulation", choices=FORMULATIONS, default="feldman")
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("simulate", help="Monte Carlo FER/BER trials")
    add_common(sp, "csv")
    sp.add_argument("--channel", required=True, help="bsc:p or awgn:sigma")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--formulation", choices=FORMULATIONS + ("both",), default="feldman")
    sp.set_defaults(func=cmd_simulate)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (lpsolver.SolverError, CountsMismatchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (InputError, DecodeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
