import importlib
from pathlib import Path
from types import SimpleNamespace

PROGRAM = SimpleNamespace(**{name: importlib.import_module(f"lpdecode.{name}") for name in
                             ("channel", "cli", "codes", "decoder", "lpsolver", "relaxation",
                              "simulate")})


def test_workloads_run_clean(monkeypatch, tmp_path):
    # each benchmark workload's leading ops, checks and exact counts run on this
    # tree without errors, so a change that breaks what the benchmark calls
    # fails here rather than only in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
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
