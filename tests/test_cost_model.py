import inspect
import math

import pytest

from wimax_il import cost_model
from wimax_il.config import InterleaverConfig
from wimax_il.cost_model import (
    COMPARISON_TOLERANCE,
    PAPER_REFERENCE,
    PRIMITIVES,
    STATE_INPUTS,
    DatapathGraph,
    NodeKind,
    TradeoffReport,
    Variant,
    build_datapath,
    compare_variants,
    estimate_cost,
    reduction_check,
    simulate,
    width_bits,
)
from wimax_il.errors import CyclicGraph, RangeError
from wimax_il.reference import Direction, build_table

from conftest import ACCEPTANCE_CONFIGS, all_valid_configs

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
    # n_cbps * d a power of two: 2**9 and 2**14 values need 9 and 14 bits
    assert width_bits(InterleaverConfig(32, 16, 1)) == 9
    assert width_bits(InterleaverConfig(1024, 16, 1)) == 14


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
                    frontier.extend(g.nodes[name].inputs)
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
        assert g.nodes["mux_q"].inputs[-1] == wrap
        assert g.nodes[wrap].kind is NodeKind.COMPARATOR
        for reg in ("v", "dv", "dv_lo", "tv"):
            assert g.nodes[reg].kind is NodeKind.REGISTER
            assert g.nodes[reg].inputs[1:] == (wrap,), (variant, reg)
        report = estimate_cost(g)
        got = (report.register_count, report.adder_count, report.comparator_count,
               report.mux_count, report.critical_path_depth)
        assert got == want, variant


@pytest.mark.parametrize(
    "cfg", sorted({*all_valid_configs(768), *ACCEPTANCE_CONFIGS}), ids=lambda cfg: cfg.as_text()
)
def test_speed_graph_is_the_counter_loop(cfg):
    """Run from reset, the speed graph emits the deinterleave map on cycles
    1..n_cbps: it is generator.run's circuit, u and q registered once. After
    the block its registers hold generator.run's end state, the state a
    second block must start from reset instead."""
    trace = list(simulate(build_datapath(cfg, Variant.SPEED), cfg.n_cbps + 1))
    assert [values["addr_out"] for values in trace[1:]] == list(build_table(cfg, Direction.DEINTERLEAVE).map)
    d, s = cfg.d, cfg.s
    v = d % s
    end = tuple(trace[-1][reg] for reg in ("r", "q", "v", "dv", "dv_lo", "tv", "s_phase"))
    assert end == (0, d, v, d * v, d * (v - s), s - v, 0)


@pytest.mark.parametrize("cfg", all_valid_configs(768), ids=lambda cfg: cfg.as_text())
def test_the_speed_graphs_wrap_subtractor_only_ever_gives_0(cfg):
    """Over two blocks, sub_r = r + d - n_cbps is 0 on every cycle where
    cmp_r selects it: d divides n_cbps, so r + d never passes n_cbps. mux_r
    could select const_zero, as the area sketch's mux_wr does, and drop one
    subtractor; that would move every tradeoff byte and the op census."""
    trace = simulate(build_datapath(cfg, Variant.SPEED), 2 * cfg.n_cbps)
    wraps = [values["sub_r"] for values in trace if values["cmp_r"]]
    assert wraps == [0] * (2 * cfg.d)


def test_area_graph_does_not_run():
    """Its operand muxes have no select; simulate names the first one."""
    with pytest.raises(RangeError, match="^mux 'mux_a1' has 2 inputs, not 3$"):
        next(simulate(build_datapath(CFG192, Variant.AREA), 1))


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


@pytest.mark.parametrize(
    "kind, count, costed",
    [
        (NodeKind.ADDER, 1, True),
        (NodeKind.COMPARATOR, 1, True),
        (NodeKind.MUX, 2, True),
        (NodeKind.SUBTRACTOR, 3, False),
        (NodeKind.MUX, 4, False),
        (NodeKind.ADDER, 0, False),
    ],
    ids=lambda x: x.value if isinstance(x, NodeKind) else str(x),
)
def test_a_primitive_runs_only_on_its_arity(kind, count, costed):
    """estimate_cost costs a primitive wired to 1..arity inputs, and simulate
    runs it only on exactly arity; each refusal is a RangeError naming the
    node, raised before the first cycle."""
    arity = PRIMITIVES[kind].arity
    g = toy_graph()
    g.add("c", NodeKind.CONSTANT, value=1)
    g.add("p", kind, *["c"] * count)
    g.add("r", NodeKind.REGISTER, "p")
    if costed:
        assert estimate_cost(g).critical_path_depth == 1
        message = f"^{kind.value} 'p' has {count} inputs, not {arity}$"
    else:
        message = f"^{kind.value} 'p' has {count} inputs, outside 1..{arity}$"
        with pytest.raises(RangeError, match=message):
            estimate_cost(g)
    with pytest.raises(RangeError, match=message):
        next(simulate(g, 1))


@pytest.mark.parametrize(
    "kind, count, costed, runs",
    [
        (NodeKind.REGISTER, 0, True, False),
        (NodeKind.REGISTER, 1, True, True),
        (NodeKind.REGISTER, 2, True, True),
        (NodeKind.REGISTER, 3, False, False),
        (NodeKind.CONSTANT, 0, True, True),
        (NodeKind.CONSTANT, 1, False, False),
        (NodeKind.CONSTANT, 2, False, False),
    ],
    ids=lambda x: x.value if isinstance(x, NodeKind) else str(x),
)
def test_registers_and_constants_are_wired_by_name(kind, count, costed, runs):
    """estimate_cost costs a register with up to two inputs (its source and
    enable) and a constant with none, and simulate runs a register only
    with a source; each refusal is a RangeError naming the kind, the node
    and the count, raised before the first cycle."""
    g = toy_graph()
    g.add("c", NodeKind.CONSTANT, value=1)
    g.add("x", kind, *["c"] * count)
    g.add("add", NodeKind.ADDER, "x", "c")
    if costed:
        assert estimate_cost(g).critical_path_depth == 1
    else:
        message = f"^{kind.value} 'x' has {count} inputs, outside 0..{STATE_INPUTS[kind]}$"
        with pytest.raises(RangeError, match=message):
            estimate_cost(g)
    if runs:
        assert next(simulate(g, 1))["add"] == g.nodes["x"].value + 1
    else:
        with pytest.raises(RangeError, match=f"^{kind.value} 'x' has {count} inputs"):
            next(simulate(g, 1))


@pytest.mark.parametrize("kind", ["latch", "Register", None, 3])
def test_an_unknown_kind_is_refused_by_name(kind):
    """add refuses a kind that is not a NodeKind value, naming the node and
    the kind, before the graph holds it."""
    g = toy_graph()
    with pytest.raises(RangeError, match=rf"^node 'x' has unknown kind {kind!r}$"):
        g.add("x", kind)
    assert g.nodes == {}


def test_a_kind_given_by_its_value_is_that_kind():
    """A counter wired with plain strings for its kinds runs like one wired
    with NodeKind members: the register loads on every cycle."""
    g = toy_graph()
    g.add("one", "constant", value=1)
    g.add("next", "adder", "acc", "one")
    g.add("acc", "register", "next")
    assert {node.kind for node in g.nodes.values()} == {NodeKind.CONSTANT, NodeKind.ADDER, NodeKind.REGISTER}
    assert [values["acc"] for values in simulate(g, 4)] == [0, 1, 2, 3]


def test_each_arity_is_its_rules_parameter_count():
    for kind, primitive in PRIMITIVES.items():
        assert primitive.arity == len(inspect.signature(primitive.rule).parameters), kind


def test_every_kind_is_a_primitive_a_register_or_a_constant():
    """Every reader of the graph takes a kind in PRIMITIVES as combinational;
    the rest are registers and constants, so a new kind cannot reach only
    part of the model."""
    assert set(NodeKind) == {*PRIMITIVES, NodeKind.REGISTER, NodeKind.CONSTANT}
    assert len(NodeKind) == len(PRIMITIVES) + 2


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


def test_a_graph_without_a_chain_has_depth_0():
    """With no combinational node, the empty graph included, there is no
    chain to time: depth 0 and an infinite fmax proxy."""
    g = toy_graph()
    assert estimate_cost(g)[-2:] == (0, math.inf)
    g.add("r", NodeKind.REGISTER, "c")
    g.add("c", NodeKind.CONSTANT, value=1)
    assert estimate_cost(g)[-2:] == (0, math.inf)


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
    # the depth ordering is strict: equal depths fail it
    speed = report.speed._replace(critical_path_depth=report.area.critical_path_depth)
    level = report._replace(speed=speed)
    assert dict(level.ordering_checks)["speed depth < area depth"] is False
    assert not level.ok


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


def test_reduction_check_tolerance_is_inclusive(monkeypatch):
    """A row exactly COMPARISON_TOLERANCE from its printed value passes."""
    edge = PAPER_REFERENCE._replace(upadhyaya_slices_pct=1.0, printed_slices_reduction_pct=COMPARISON_TOLERANCE)
    monkeypatch.setattr(cost_model, "PAPER_REFERENCE", edge)
    assert reduction_check()[0] == ("slices_pct", 0.0, COMPARISON_TOLERANCE, True)
