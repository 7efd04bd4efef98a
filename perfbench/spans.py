"""Per-layer tracing from outside the program.

For a traced run each public function in LAYERS is replaced under the module
attribute where its caller looks it up, and restored afterwards. A wrapped
call records a span (name, start, end, parent span, work done). The spans stay
in memory until the run writes them out. deinterleave_index under burst_sweep
is called too often for a span per call, so it is only counted.
"""
from __future__ import annotations

import importlib
from time import perf_counter


def _one(args, result):
    return 1


def _cfg_bits(args, result):
    return args[0].n_cbps


def _table_rows(args, result):
    return len(args[0].map)


# (span name, module, attribute, work done by one call)
LAYERS = (
    ("cli.main", "wimax_il.cli", "main", _one),
    ("cli.cmd_burst", "wimax_il.cli", "cmd_burst", _one),
    ("generator.run", "wimax_il.generator", "run", _cfg_bits),
    ("reference.build_table", "wimax_il.cli", "build_table", _cfg_bits),
    ("reference.invert_table", "wimax_il.cli", "invert_table", _table_rows),
    ("reference.apply_permutation", "wimax_il.reference", "apply_permutation",
     lambda args, result: len(args[1])),
    ("tablefile.serialize_table", "wimax_il.cli", "serialize_table", _table_rows),
    ("tablefile.parse_table", "wimax_il.tablefile", "parse_table",
     lambda args, result: len(result.map)),
    ("burst.burst_sweep", "wimax_il.burst", "burst_sweep",
     lambda args, result: len(result.reports)),
    ("cost_model.compare_variants", "wimax_il.cli", "compare_variants", _one),
)
INDEX_FN = ("wimax_il.burst", "deinterleave_index")

# per-layer metric -> (span name, what it reports)
PER_LAYER = {
    "generator.run.us_per_addr": ("generator.run", "us_per_work"),
    "reference.build_table.us_per_addr": ("reference.build_table", "us_per_work"),
    "reference.invert_table.us_per_addr": ("reference.invert_table", "us_per_work"),
    "reference.apply_permutation.us_per_addr": ("reference.apply_permutation", "us_per_work"),
    "tablefile.serialize_table.us_per_addr": ("tablefile.serialize_table", "us_per_work"),
    "tablefile.parse_table.us_per_addr": ("tablefile.parse_table", "us_per_work"),
    "burst.burst_sweep.us_per_report": ("burst.burst_sweep", "us_per_work"),
    "cli.cmd_burst.self_ms": ("cli.cmd_burst", "self_ms_per_call"),
    "cli.main.self_ms": ("cli.main", "self_ms_per_call"),
    "cost_model.compare_variants.us_per_call": ("cost_model.compare_variants", "us_per_work"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.index_calls = 0
        self.run_cfgs: set = set()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module, attr, work in LAYERS:
            self._patch(module, attr, lambda fn, n=name, w=work: self._span(n, fn, w))
        self._patch(*INDEX_FN, self._count)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)  # a renamed entry point fails loudly here
        self._saved.append((mod, attr, fn))
        setattr(mod, attr, make(fn))

    def _span(self, name, fn, work):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, 0))
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                done = work(args, result) if result is not None else 0
                spans[idx] = (name, t0, t1, spans[idx][3], done)
            if name == "generator.run":
                self.run_cfgs.add(result.cfg)
            return result

        return traced

    def _count(self, fn):
        def counted(*args, **kwargs):
            self.index_calls += 1
            return fn(*args, **kwargs)

        return counted

    def totals(self, scale) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, work done.
        scale(t0, t1) gives the length of a span (see clock.Clock.scaled)."""
        took = [scale(t0, t1) for _, t0, t1, _, _ in self.spans]
        own = list(took)
        for (_, _, _, parent, _), length in zip(self.spans, took):
            if parent >= 0:
                own[parent] -= length
        out: dict[str, dict[str, float]] = {}
        for (name, _, _, _, work), length, self_s in zip(self.spans, took, own):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
            row["calls"] += 1
            row["total_s"] += length
            row["self_s"] += self_s
            row["work"] += work
        return out

    def census_ops_per_addr(self) -> float:
        """Datapath operations per address, from the OpCensus the benchmark
        passes to run for every block the traced calls generated. Call it
        after the with block, so that these calls are not traced themselves."""
        generator = importlib.import_module("wimax_il.generator")
        ops = addrs = 0
        for cfg in self.run_cfgs:
            census = generator.OpCensus()
            generator.run(cfg, census)
            ops += census.total()
            addrs += cfg.n_cbps
        return ops / addrs if addrs else 0.0


def layer_metrics(main: Tracer, fallback: Tracer, scale) -> dict[str, float]:
    """Per-layer figures from the workload's own calls; a layer the workload
    never reached takes its figure from the fallback tracer's calls."""
    a, b = main.totals(scale), fallback.totals(scale)
    out = {}
    for metric, (span, kind) in PER_LAYER.items():
        row = a.get(span) or b[span]
        if kind == "us_per_work":
            out[metric] = 1e6 * row["total_s"] / max(row["work"], 1)
        else:
            out[metric] = 1e3 * row["self_s"] / row["calls"]
    tracer, rows = (main, a) if "burst.burst_sweep" in a else (fallback, b)
    reports = rows.get("burst.burst_sweep", {}).get("work", 0)
    out["burst.index_calls_per_report"] = tracer.index_calls / reports if reports else 0.0
    tracer = main if main.run_cfgs else fallback
    out["generator.census_ops_per_addr"] = tracer.census_ops_per_addr()
    return out
