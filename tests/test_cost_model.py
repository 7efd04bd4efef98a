import math

import pytest

from wimax_il.config import InterleaverConfig
from wimax_il.cost_model import (
    PAPER_REFERENCE,
    DatapathGraph,
    NodeKind,
    TradeoffReport,
    Variant,
    build_datapath,
    compare_variants,
    estimate_cost,
    reduction_check,
    width_bits,
)
from wimax_il.errors import CyclicGraph, RangeError

from conftest import ACCEPTANCE_CONFIGS

CFG192 = InterleaverConfig(192, 16, 1)


def toy_graph(width=8):
    g = DatapathGraph(variant="custom", width_bits=width)
    return g


def test_single_adder_loop():
    g = toy_graph()
    g.add("acc", NodeKind.REGISTER, "add")
    g.add("inc", NodeKind.CONSTANT)
    g.add("add", NodeKind.ADDER, "acc", "inc")
    report = estimate_cost(g)
    assert report.register_count == 1
    assert report.critical_path_depth == 1
    assert report.adder_count == 1


def test_two_adders_in_series():
    g = toy_graph()
    g.add("a", NodeKind.REGISTER)
    g.add("b", NodeKind.REGISTER, "add2")
    g.add("one", NodeKind.CONSTANT)
    g.add("add1", NodeKind.ADDER, "a", "one")
    g.add("add2", NodeKind.ADDER, "add1", "one")
    assert estimate_cost(g).critical_path_depth == 2


def test_combinational_loop_is_rejected():
    g = toy_graph()
    g.add("x", NodeKind.ADDER, "y")
    g.add("y", NodeKind.ADDER, "x")
    with pytest.raises(CyclicGraph):
        estimate_cost(g)


def test_undefined_input_is_rejected():
    g = toy_graph()
    g.add("x", NodeKind.ADDER, "nowhere")
    with pytest.raises(RangeError):
        estimate_cost(g)


def test_width_bits():
    assert width_bits(CFG192) == math.ceil(math.log2(192 * 16))
    assert width_bits(InterleaverConfig(384, 16, 2)) == 13


def test_variant_orderings_hold_for_every_config():
    for cfg in ACCEPTANCE_CONFIGS:
        area = estimate_cost(build_datapath(cfg, Variant.AREA))
        speed = estimate_cost(build_datapath(cfg, Variant.SPEED))
        assert speed.critical_path_depth < area.critical_path_depth
        assert speed.register_count == area.register_count + 1
        assert speed.fmax_proxy_mhz > area.fmax_proxy_mhz


def test_every_node_feeds_addr_out():
    for cfg in ACCEPTANCE_CONFIGS:
        for variant in Variant:
            g = build_datapath(cfg, variant)
            live, frontier = set(), ["addr_out"]
            while frontier:
                name = frontier.pop()
                if name not in live:
                    live.add(name)
                    frontier.extend(g.preds[name])
            assert set(g.nodes) - live == set(), (cfg, variant)


def test_q_mod_s_trackers_advance_only_on_r_wrap():
    """v, dv, dv_lo and tv load only when r wraps: each reads, as its enable,
    the comparator that selects mux_q. The counts are those of the graph
    before the enables, which add edges and no nodes."""
    for variant, wrap, want in [
        (Variant.AREA, "cmp_shared", (8, 7, 4, 12, 7)),
        (Variant.SPEED, "cmp_r", (9, 10, 4, 8, 3)),
    ]:
        g = build_datapath(CFG192, variant)
        assert g.preds["mux_q"][-1] == wrap
        assert g.nodes[wrap] is NodeKind.COMPARATOR
        for reg in ("v", "dv", "dv_lo", "tv"):
            assert g.nodes[reg] is NodeKind.REGISTER
            assert g.preds[reg][1:] == (wrap,), (variant, reg)
        report = estimate_cost(g)
        got = (report.register_count, report.adder_count, report.comparator_count,
               report.mux_count, report.critical_path_depth)
        assert got == want, variant


def test_node_count_is_config_independent():
    small = build_datapath(InterleaverConfig(32, 16, 1), Variant.SPEED)
    large = build_datapath(InterleaverConfig(1152, 16, 3), Variant.SPEED)
    assert len(small.nodes) == len(large.nodes)
    assert small.width_bits < large.width_bits


def test_lut_equiv_weighting():
    g = toy_graph(width=10)
    g.add("r", NodeKind.REGISTER, "mux")
    g.add("c", NodeKind.CONSTANT)
    g.add("add", NodeKind.ADDER, "r", "c")
    g.add("cmp", NodeKind.COMPARATOR, "add", "c")
    g.add("mux", NodeKind.MUX, "add", "c", "cmp")
    report = estimate_cost(g)
    # adder 1/bit + comparator 1/bit + mux 0.5/bit, registers free
    assert report.lut_equiv == 10 + 10 + 5


def test_fmax_proxy_formula():
    g = toy_graph()
    g.add("a", NodeKind.REGISTER, "add2")
    g.add("one", NodeKind.CONSTANT)
    g.add("add1", NodeKind.ADDER, "a", "one")
    g.add("add2", NodeKind.ADDER, "add1", "one")
    assert estimate_cost(g, unit_delay_ns=1.0).fmax_proxy_mhz == 500.0
    assert estimate_cost(g, unit_delay_ns=2.5).fmax_proxy_mhz == 200.0
    with pytest.raises(RangeError):
        estimate_cost(g, unit_delay_ns=0.0)


def test_estimate_is_pure():
    g = build_datapath(CFG192, Variant.AREA)
    assert estimate_cost(g) == estimate_cost(g)


def test_compare_variants_report():
    report = compare_variants(CFG192)
    assert PAPER_REFERENCE.area_fmax_mhz == 107.41
    assert PAPER_REFERENCE.power_mw == 56
    assert report.deltas["fmax_proxy_pct"] > 0
    assert report.deltas["register_count_delta"] == 1
    # deltas must be recomputable from the embedded reports
    expected = 100.0 * (
        report.speed.fmax_proxy_mhz - report.area.fmax_proxy_mhz
    ) / report.area.fmax_proxy_mhz
    assert report.deltas["fmax_proxy_pct"] == pytest.approx(expected)


def test_report_derives_everything_from_its_estimates():
    report = compare_variants(CFG192)
    assert TradeoffReport._fields == ("cfg", "area", "speed", "unit_delay_ns")
    swapped = report._replace(area=report.speed, speed=report.area)
    assert swapped.deltas["register_count_delta"] == -1
    assert [ok for _, ok in swapped.ordering_checks] == [False, False]
    assert report.ok and not swapped.ok


def test_report_serialization_sections():
    payload = compare_variants(CFG192).as_dict()
    assert set(payload) == {"config", "model", "paper_reference", "comparison_check"}
    assert payload["paper_reference"]["area_fmax_mhz"] == 107.41
    assert payload["paper_reference"]["speed_fmax_mhz"] == 130.2
    assert "structural estimates" in payload["model"]["note"]
    assert "published" in payload["paper_reference"]["note"]


def test_report_text_rendering():
    text = compare_variants(CFG192).render_text()
    assert "107.41" in text
    assert "130.2" in text
    assert "not synthesis results" in text


def test_recomputed_reduction_percentages():
    got = {name: recomputed for name, recomputed, _, _ in reduction_check()}
    assert got["slices_pct"] == pytest.approx(-71.35, abs=0.01)
    assert got["ff_pct"] == pytest.approx(-69.4, abs=0.01)
    assert got["lut_pct"] == pytest.approx(-70.15, abs=0.01)
    assert got["fmax_pct"] == pytest.approx(6.91, abs=0.01)


def test_reduction_check_within_tolerance():
    rows = reduction_check()
    assert len(rows) == 4
    assert all(ok for *_, ok in rows)
    for _, recomputed, printed, _ in rows:
        assert abs(recomputed - printed) <= 0.1
