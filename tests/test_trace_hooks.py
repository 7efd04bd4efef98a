"""The benchmark's traced run patches entry points by name; every name it
patches must exist, so that renaming one fails here and not only in a
traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    spans = load_spans()
    hooks = [(module, attr) for _, module, attr, _ in spans.LAYERS]
    hooks.append(spans.INDEX_FN)
    for module, attr in hooks:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
