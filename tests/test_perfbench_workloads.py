import importlib
import math
from pathlib import Path
from types import SimpleNamespace

PROGRAM = SimpleNamespace(**{name: importlib.import_module(f"lpdecode.{name}") for name in
                             ("channel", "cli", "codes", "decoder", "lpsolver", "relaxation",
                              "simulate")})


def import_perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module(name)


def test_workloads_run_clean(monkeypatch, tmp_path):
    # each benchmark workload's leading ops, checks and exact counts run on this
    # tree without errors, so a change that breaks what the benchmark calls
    # fails here rather than only in a benchmark run
    workloads = import_perfbench(monkeypatch, "workloads")
    failures = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)  # counts-highdeg names its files relative to it
        wl = cls(PROGRAM, 1, str(workdir))
        kept, errors = {}, {}
        for i in range(wl.min_ops):
            checked = wl.check(i, wl.op(i))
            if checked.errors:
                errors[i] = checked.errors
            if checked.keep is not None:
                kept[i] = checked.keep
        errors.update(wl.finish(kept))
        if errors:
            failures[name] = errors
        assert isinstance(wl.exact(kept), dict)
    assert failures == {}


def test_workloads_run_traced(monkeypatch, tmp_path):
    # the traced pass wraps the program's call sites and reads what they return
    # (LP bounds, system rows and their coefficients), so run each workload's
    # leading ops under the tracer and derive its per-layer metrics
    workloads = import_perfbench(monkeypatch, "workloads")
    spans = import_perfbench(monkeypatch, "spans")
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        tracer = spans.Tracer()
        tracer.install(PROGRAM)
        try:
            wl = cls(PROGRAM, 1, str(workdir))
            op = tracer.wrap("bench.op", wl.op)
            checked = [wl.check(i, op(i)) for i in range(wl.min_ops)]
        finally:
            tracer.uninstall()
        assert [c.errors for c in checked] == [[]] * wl.min_ops, name
        metrics = spans.layer_metrics(tracer.spans, [c.bytes_out for c in checked], 1, 1)
        assert all(math.isfinite(v) for v, _ in metrics.values()), name
        assert metrics["trace.spans_per_op"][0] > 1, name
        built = "relaxation.rows" if name == "counts-highdeg" else "lpsolver.tableau_cells"
        assert metrics[built][0] > 0, name
