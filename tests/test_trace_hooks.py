"""The benchmark's traced run patches entry points by name, under the module
attribute where each caller looks it up. Every name it patches must exist,
and every patched name must still be reached through that attribute, so that
a rename or a bypass fails here and not only in a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

import wimax_il.cli
from wimax_il import reference
from wimax_il.burst import burst_sweep
from wimax_il.config import InterleaverConfig

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


def test_traced_pass_reaches_every_layer(tmp_path, capsys):
    spans = load_spans()
    triple = ["--ncbps", "32", "--d", "16", "--s", "1"]
    table = tmp_path / "t.csv"
    with spans.Tracer() as tracer:
        for engine in ("reference", "incremental"):
            for direction in ("interleave", "deinterleave"):
                argv = ["gen", *triple, "--engine", engine, "--dir", direction]
                assert wimax_il.cli.main([*argv, "--out", str(table)]) == 0
        assert wimax_il.cli.main(["verify", "--table", str(table)]) == 0
        assert wimax_il.cli.main(
            ["burst", *triple, "--sweep-max", "2",
             "--out", str(tmp_path / "b.csv"), "--json-out", str(tmp_path / "b.json")]
        ) == 0
        assert wimax_il.cli.main(["tradeoff", *triple]) == 0
        cfg = InterleaverConfig(32, 16, 1)
        dtab = reference.build_table(cfg, reference.Direction.DEINTERLEAVE)
        assert sorted(reference.apply_permutation(dtab, list(range(32)))) == list(range(32))
    recorded = {name for name, *_ in tracer.spans}
    assert recorded == {name for name, *_ in spans.LAYERS}
    assert tracer.index_calls == 0


def test_burst_sweep_is_one_traced_call_over_every_report(capsys):
    """burst --sweep-max makes one burst_sweep call, whose work is every
    report of the command: the benchmark's us_per_report rests on this."""
    spans = load_spans()
    with spans.Tracer() as tracer:
        assert wimax_il.cli.main(
            ["burst", "--ncbps", "32", "--d", "16", "--s", "1", "--sweep-max", "2"]
        ) == 0
    sweeps = [work for name, *_, work in tracer.spans if name == "burst.burst_sweep"]
    assert sweeps == [32 + 31]
    assert tracer.index_calls == 0
    # the swept lengths count the same work, so the tracer can count them instead
    result = burst_sweep(InterleaverConfig(32, 16, 1), 1, 2)
    assert len(result.reports) == sum(result.cfg.n_cbps - b + 1 for b in result.lengths) == 32 + 31
