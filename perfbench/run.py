"""lpdecode benchmark: one workload (or all) in one process, checked, with metrics as JSON.

    python3 perfbench/run.py --workload compare-ldpc48 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports lpdecode from its `src`.
`--trace 0` measures the end-to-end metrics with no instrumentation.  `--trace 1`
runs every operation twice, once untraced and once with every layer's public
functions wrapped, and reports per-layer metrics and the tracing overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1 when any
operation failed its checks and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# at most two threads in any BLAS/OpenMP pool, unless the caller says otherwise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "2")

from spans import Tracer, layer_metrics  # noqa: E402
from stats import beyond, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
SETUP_PROBES = 5
PROGRAM_MODULES = ("channel", "cli", "codes", "decoder", "lpsolver", "relaxation", "simulate")

END_TO_END = {"op_ms_p50": "ms", "op_ms_tail": "ms", "throughput_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def import_program() -> SimpleNamespace:
    """Import lpdecode from this checkout's src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lpdecode
    where = Path(lpdecode.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"lpdecode imported from {where}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"lpdecode.{name}")
                              for name in PROGRAM_MODULES})


def setup_probe(workload: str, seed: int) -> float:
    """Import, code loading and input generation, timed from a fresh interpreter."""
    t0 = time.perf_counter()
    program = import_program()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        WORKLOADS[workload](program, seed, workdir)
        return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median of several set-up probes, each in its own interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--workload", workload,
                               "--seed", str(seed)], cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


@dataclass
class Pass:
    durations: list[int] = field(default_factory=list)  # ns per op
    material: list[bytes] = field(default_factory=list)
    errors: dict[int, list[str]] = field(default_factory=dict)
    kept: dict[int, object] = field(default_factory=dict)
    bytes_out: list[int] = field(default_factory=list)


@dataclass
class Lane:
    """One way of running the ops; `enter` and `leave` run outside the timed region."""

    op: Callable
    result: Pass = field(default_factory=Pass)
    enter: Callable = lambda: None
    leave: Callable = lambda: None


def run_one(wl, lane: Lane, i: int) -> None:
    p, clock = lane.result, time.perf_counter_ns
    t0 = clock()
    try:
        raw = lane.op(i)
        p.durations.append(clock() - t0)
        checked = wl.check(i, raw)
    except Exception:  # a failing op is counted and reported, and the run goes on
        if not p.errors:
            traceback.print_exc()
        if len(p.durations) == i:
            p.durations.append(clock() - t0)
        p.material.append(b"")
        p.errors[i] = ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]]
        return
    p.material.append(checked.material)
    p.bytes_out.append(checked.bytes_out)
    if checked.keep is not None:
        p.kept[i] = checked.keep
    if checked.errors:
        p.errors[i] = checked.errors


def run_loop(wl, lanes: list[Lane], seconds: float) -> None:
    """Run ops 0, 1, ... on every lane for `seconds`, and at least wl.min_ops of them.

    Lanes take turns op by op, first one way round and then the other, so a
    drift in machine speed affects them alike.  Every lane must reproduce the
    first lane's output of each op byte for byte.
    """
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    i = 0
    while i < wl.min_ops or time.perf_counter_ns() < deadline:
        for lane in (lanes if i % 2 == 0 else lanes[::-1]):
            lane.enter()
            try:
                run_one(wl, lane, i)
            finally:
                lane.leave()
        for lane in lanes[1:]:
            if lane.result.material[i] != lanes[0].result.material[i]:
                lane.result.errors.setdefault(i, []).append(
                    "output differs from the untraced run of the same op")
        i += 1


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def run_workload(program, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run and check one workload; returns its result record."""
    cls = WORKLOADS[name]
    setup_s = None if trace else setup_seconds(name, seed)
    tracer = Tracer() if trace else None
    WORK.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        os.chdir(workdir)  # the CLI workloads name their files relative to it
        try:
            if tracer:
                tracer.install(program)  # code loads during set-up count for codes.load_ms
            try:
                wl = cls(program, seed, workdir)
            finally:
                if tracer:
                    tracer.uninstall()
            try:
                wl.op(0)  # warm-up: lazy imports and caches fill before timing starts
            except Exception:  # the timed run of op 0 fails the same way and reports it
                pass
            lanes = [Lane(wl.op)]
            if tracer:
                lanes.append(Lane(tracer.wrap("bench.op", wl.op),
                                  enter=functools.partial(tracer.install, program),
                                  leave=tracer.uninstall))
            run_loop(wl, lanes, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            main = lanes[0].result
            errors = dict(main.errors)
            for i, errs in wl.finish(main.kept).items():
                errors.setdefault(i, []).extend(errs)
            try:
                exact = wl.exact(main.kept)
            except (KeyError, IndexError, ValueError) as e:  # ops it needs failed
                exact = {"unavailable": repr(e)}
        finally:
            os.chdir(cwd)
    try:
        WORK.rmdir()
    except OSError:
        pass

    n = len(main.durations)
    exact["output_digest"] = hashlib.sha256(b"".join(main.material[:wl.min_ops])).hexdigest()
    traced = lanes[1].result if tracer else Pass()
    attempted = n + len(traced.durations)
    failed = len(errors) + len(traced.errors)
    if tracer:
        metrics = layer_metrics(tracer.spans, traced.bytes_out, sum(main.durations),
                                sum(traced.durations))
    else:
        op_ms = [d / 1e6 for d in main.durations]
        metrics = {
            "op_ms_p50": percentile(op_ms, 50),
            "op_ms_tail": percentile(op_ms, wl.tail_pct),
            "throughput_per_s": n * wl.work_per_op / (sum(main.durations) / 1e9),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    first_errors = {str(i): errs for i, errs in sorted(errors.items())[:5]}
    first_errors.update((f"traced {i}", errs) for i, errs in sorted(traced.errors.items())[:5])
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "ops": n, "work_per_op": wl.work_per_op, "work": wl.work,
        "tail_pct": wl.tail_pct, "tail_beyond": beyond(n, wl.tail_pct),
        "attempted": attempted, "failed": failed, "ops_failed_frac": failed / attempted,
        "errors": first_errors, "exact": exact, "metrics": metrics,
    }


def report(rec: dict) -> None:
    """Human-readable lines: every metric with its unit, then the detail record."""
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"{rec['ops']} ops x {rec['work_per_op']} {rec['work']}  "
          f"tail = p{rec['tail_pct']:g} ({rec['tail_beyond']} samples beyond)")
    for name, (value, unit) in rec["metrics"].items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':<36} {rec['ops_failed_frac']:>14.6g} frac "
          f"({rec['failed']} of {rec['attempted']})")
    detail = {k: v for k, v in rec.items() if k != "metrics"}
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0
    try:
        program = import_program()
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(program, name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    env = environment()
    for rec in records:
        rec["env"] = env
        report(rec)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    prefix = len(records) > 1
    metrics = {(f"{r['workload']}:{k}" if prefix else k): {"value": v, "unit": u}
               for r in records for k, (v, u) in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
