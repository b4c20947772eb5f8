"""In-memory span tracer that wraps lpdecode's public functions at their import sites.

Spans are recorded from outside the program: each site below names a module (or
class) attribute through which one layer calls another, and the tracer swaps in
a wrapper for the duration of each traced operation.  A span belongs to the
layer whose module defines the wrapped function, whichever module calls it.
"""

from __future__ import annotations

import time

from stats import percentile, tail_pct

LAYERS = ("lpsolver", "relaxation", "decoder", "channel", "simulate", "cli", "codes")

# (object holding the attribute, attribute, layer).  The object is a module of
# the lpdecode package or "relaxation.ConstraintSystem" for the one method.
SITES = (
    ("cli", "main", "cli"),
    ("cli", "builtin_code", "codes"),
    ("cli", "parse_alist", "codes"),
    ("cli", "run_counts", "simulate"),
    ("cli", "run_simulate", "simulate"),
    ("codes", "builtin_code", "codes"),
    ("simulate", "sample_gamma", "simulate"),
    ("simulate", "run_counts", "simulate"),
    ("simulate", "degree_profile", "codes"),
    ("simulate", "trial_rng", "channel"),
    ("simulate", "transmit", "channel"),
    ("simulate", "llr_costs", "channel"),
    ("simulate", "decode", "decoder"),
    ("simulate", "count_constraints", "relaxation"),
    ("simulate", "feldman_system", "relaxation"),
    ("simulate", "decompose", "relaxation"),
    ("simulate", "decomposed_system", "relaxation"),
    ("decoder", "decode", "decoder"),
    ("decoder", "build_program", "decoder"),
    ("decoder", "is_codeword", "decoder"),
    ("decoder", "feldman_system", "relaxation"),
    ("decoder", "decompose", "relaxation"),
    ("decoder", "decomposed_system", "relaxation"),
    ("lpsolver", "solve", "lpsolver"),
    ("lpsolver", "is_integral", "lpsolver"),
    ("relaxation.ConstraintSystem", "dense", "relaxation"),
)

NNZ_SAMPLES = 64  # systems per span name whose nonzeros are counted (O(rows) each)

# span record fields
NAME, START, END, PARENT, INFO = range(5)


def _decode_info(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs.get("formulation", "feldman")


def _solve_info(args, kwargs, result):
    """(pivots, tableau cells) where cells are computed from the LP shape.

    The solver's dense tableau has one row per constraint, one per finite upper
    bound and the objective row, and one column per variable and per row plus
    the rhs.  Decoding LPs have a non-negative rhs, so no artificial columns.
    """
    lp = args[0] if args else kwargs["lp"]
    n = lp.constraints.num_vars
    ub = n if lp.bounds is None else sum(1 for lo, up in lp.bounds if up != float("inf"))
    m = len(lp.constraints.rows) + ub
    return result.iterations, (m + 1) * (n + m + 1)


class Tracer:
    """Records (name, start_ns, end_ns, parent index, info) for every wrapped call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._nnz_left: dict[str, int] = {}

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[INFO] = note(args, kwargs, result)
            return result

        return traced

    def _system_info(self, name):
        def note(args, kwargs, result):
            rows = len(result.rows)
            if self._nnz_left.get(name, NNZ_SAMPLES) <= 0:
                return rows, None
            self._nnz_left[name] = self._nnz_left.get(name, NNZ_SAMPLES) - 1
            return rows, sum(len(r.coeffs) for r in result.rows)
        return note

    def install(self, program) -> None:
        """Wrap every site in SITES; `program` maps module names to modules."""
        for owner_path, attr, layer in SITES:
            mod, _, cls = owner_path.partition(".")
            owner = getattr(program, mod)
            if cls:
                owner = getattr(owner, cls)
            name = f"{layer}.{attr}"
            note = None
            if name == "decoder.decode":
                note = _decode_info
            elif name == "lpsolver.solve":
                note = _solve_info
            elif name in ("relaxation.feldman_system", "relaxation.decomposed_system"):
                note = self._system_info(name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def layer_metrics(spans, bytes_out, untraced_ns: int, traced_ns: int) -> dict:
    """Per-layer metrics from one traced pass, keyed by metric name -> (value, unit).

    Shares and per-op figures use only spans under a "bench.op" root; per-call
    figures use every call, so code loads during set-up count for codes.load_ms.
    Metrics of a layer the workload never calls read 0.
    """
    selfs = self_times(spans)
    root: list[int] = []
    for i, s in enumerate(spans):
        root.append(i if s[PARENT] < 0 else root[s[PARENT]])
    in_op = [spans[r][NAME] == "bench.op" for r in root]
    ops = [i for i, s in enumerate(spans) if s[NAME] == "bench.op"]
    n_ops = max(len(ops), 1)
    op_ns = sum(spans[i][END] - spans[i][START] for i in ops) or 1
    layer_self = dict.fromkeys(LAYERS + ("bench",), 0)
    calls: dict[str, list[tuple]] = {}
    for i, s in enumerate(spans):
        if in_op[i]:
            layer_self[s[NAME].split(".")[0]] += selfs[i]
        calls.setdefault(s[NAME], []).append((s[END] - s[START], selfs[i], s[INFO]))

    def get(name):
        return calls.get(name, [])

    def p50_tail_ms(values):
        return (percentile(values, 50) / 1e6,
                percentile(values, tail_pct(len(values))) / 1e6)

    out = {f"{layer}.share": (layer_self[layer] / op_ns, "frac") for layer in LAYERS}

    solves = get("lpsolver.solve")
    solve_self = [c[1] for c in solves]
    pivots = [c[2][0] for c in solves]
    cells = [c[2][1] for c in solves]
    total_pivots = sum(pivots)
    p50, tail = p50_tail_ms(solve_self)
    out["lpsolver.solve_self_ms_p50"] = (p50, "ms")
    out["lpsolver.solve_self_ms_tail"] = (tail, "ms")
    out["lpsolver.pivots"] = (_mean(pivots), "count")
    out["lpsolver.ms_per_pivot"] = (sum(solve_self) / total_pivots / 1e6 if total_pivots else 0.0, "ms")
    out["lpsolver.tableau_cells"] = (_mean(cells), "count")
    # a dense pivot reads and writes every float64 cell of the tableau once
    out["lpsolver.computed_bytes_per_pivot"] = (
        16.0 * sum(p * c for p, c in zip(pivots, cells)) / total_pivots if total_pivots else 0.0, "B")

    systems = get("relaxation.feldman_system") + get("relaxation.decomposed_system")
    dense_self = [c[1] for c in get("relaxation.dense")]
    build_ns = layer_self["relaxation"] - sum(dense_self)
    out["relaxation.build_us"] = (build_ns / len(systems) / 1e3 if systems else 0.0, "us")
    out["relaxation.dense_us"] = (_mean(dense_self) / 1e3, "us")
    out["relaxation.rows"] = (_mean([c[2][0] for c in systems]), "count")
    out["relaxation.nnz"] = (_mean([c[2][1] for c in systems if c[2][1] is not None]), "count")

    decodes = get("decoder.decode")
    n_dec = len(decodes)
    classify_ns = sum(c[0] for c in get("lpsolver.is_integral") + get("decoder.is_codeword"))
    out["decoder.self_us"] = (layer_self["decoder"] / n_dec / 1e3 if n_dec else 0.0, "us")
    out["decoder.classify_us"] = (classify_ns / n_dec / 1e3 if n_dec else 0.0, "us")
    for form in ("feldman", "decomposed"):
        p50, tail = p50_tail_ms([c[0] for c in decodes if c[2] == form])
        out[f"decode_ms_p50.{form}"] = (p50, "ms")
        out[f"decode_ms_tail.{form}"] = (tail, "ms")

    out["channel.transmit_us"] = (_mean([c[0] for c in get("channel.transmit")]) / 1e3, "us")
    out["channel.llr_costs_us"] = (_mean([c[0] for c in get("channel.llr_costs")]) / 1e3, "us")
    out["simulate.self_ms"] = (layer_self["simulate"] / n_ops / 1e6, "ms")
    out["cli.self_ms"] = (layer_self["cli"] / n_ops / 1e6, "ms")
    out["cli.bytes_out"] = (_mean(bytes_out), "B")
    loads = get("codes.builtin_code") + get("codes.parse_alist")
    out["codes.load_ms"] = (_mean([c[0] for c in loads]) / 1e6, "ms")

    out["trace.overhead_frac"] = (traced_ns / untraced_ns - 1.0, "frac")
    out["trace.accounted_frac"] = (sum(layer_self[layer] for layer in LAYERS) / op_ns, "frac")
    out["trace.spans_per_op"] = (sum(in_op) / n_ops, "count")
    return out
