import importlib
from pathlib import Path


def test_wrapped_sites_exist(monkeypatch):
    # the benchmark's tracer swaps a wrapper into each of these attributes
    # through the owner's __dict__, so a module that stops importing a
    # wrapped name breaks the traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    for owner_path, attr, _ in spans.SITES:
        mod, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"lpdecode.{mod}")
        if cls:
            owner = getattr(owner, cls)
        assert attr in vars(owner), f"{owner_path}.{attr}"
