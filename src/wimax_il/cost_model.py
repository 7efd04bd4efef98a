"""Structural area-vs-speed estimator for the address-generator datapath.

Two datapath variants of the counter scheme in generator.py are modeled:

  area   one shared add/subtract unit, time-multiplexed round-robin over
         the three wide updates (the d*j remainder pair, the corrected
         residue u, and the output address), at the price of operand mux
         trees and a longer combinational chain;
  speed  dedicated adders per accumulator and a pipeline register between
         the correction stage and the output-address stage: one extra
         register, shorter critical path.

The published circuit was optimized with synthesis directives, not a
published micro-architecture, so both constructions here are modeling
choices; every report labels them as structural estimates and carries the
published synthesis figures separately. Absolute LUT counts are not
claimed to match the published ones; only the orderings (speed uses one
more register, area has the longer critical path) are asserted.

compare_variants returns a TradeoffReport of the two estimates. It derives
the deltas and ordering checks from them, renders them as text and JSON
next to the published figures (PAPER_REFERENCE, kept here, their only
reader) and reduction_check, and its ok flag is the tradeoff verdict.
"""
from __future__ import annotations

import enum
from collections import Counter
from typing import NamedTuple

from .config import DEFAULT_UNIT_DELAY_NS, InterleaverConfig
from .errors import CyclicGraph, RangeError

# Accepted unit delays. At the least, on the speed variant's depth-3 chain,
# the fmax proxy is 333333.33 MHz, which still fits the text report's columns.
MIN_UNIT_DELAY_NS = 0.001
MAX_UNIT_DELAY_NS = 1000.0
COMPARISON_TOLERANCE = 0.1


class PaperReference(NamedTuple):
    """Published synthesis figures for the deinterleaver address generator
    this library models (Xilinx ISE, Spartan-3 XC3S400/PQ208, speed -5).

    These are reported constants, loaded once and never computed. The
    published flip-flop utilization of 0.153% is in tension with the
    published absolute count (16 of 7168 is about 0.223%); both values are
    kept exactly as printed rather than reconciled.
    """

    # area-optimized vs speed-optimized synthesis of the same circuit
    area_fmax_mhz: float = 107.41
    speed_fmax_mhz: float = 130.2
    power_mw: float = 56.0
    area_ff: int = 15
    speed_ff: int = 16
    area_lut: int = 116
    speed_lut: int = 120
    slices: int = 65

    # comparison table: speed-optimized design vs prior techniques
    comparison_fmax_mhz: float = 130.24
    comparison_slices_pct: float = 1.0
    comparison_ff_pct: float = 0.153
    comparison_lut_pct: float = 1.0
    upadhyaya_fmax_mhz: float = 121.82
    upadhyaya_slices_pct: float = 3.49
    upadhyaya_ff_pct: float = 0.50
    upadhyaya_lut_pct: float = 3.35
    lut_method_fmax_mhz: float = 62.51

    # reduction percentages as printed in the comparison table
    printed_slices_reduction_pct: float = -71.34
    printed_ff_reduction_pct: float = -69.4
    printed_lut_reduction_pct: float = -70.14
    printed_fmax_increase_pct: float = 6.9

    # device metadata only; no synthesis is performed here
    fpga_family: str = "Spartan 3"
    fpga_device: str = "XC3S400"
    fpga_package: str = "PQ208"
    fpga_speed_grade: str = "-5"
    toolchain: str = "Xilinx ISE"


PAPER_REFERENCE = PaperReference()

# The published comparison table, one row per percentage:
# (name, our column, Upadhyaya et al.'s column, the printed percentage).
COMPARISON = (
    ("slices_pct", "comparison_slices_pct", "upadhyaya_slices_pct", "printed_slices_reduction_pct"),
    ("ff_pct", "comparison_ff_pct", "upadhyaya_ff_pct", "printed_ff_reduction_pct"),
    ("lut_pct", "comparison_lut_pct", "upadhyaya_lut_pct", "printed_lut_reduction_pct"),
    ("fmax_pct", "comparison_fmax_mhz", "upadhyaya_fmax_mhz", "printed_fmax_increase_pct"),
)


class NodeKind(str, enum.Enum):
    REGISTER = "register"
    ADDER = "adder"
    SUBTRACTOR = "subtractor"
    COMPARATOR = "comparator"
    MUX = "mux"
    CONSTANT = "constant"


# LUT-equivalent weights per bit of datapath width; declared arbitrary.
# Add/subtract units and comparators cost one LUT per bit, a 2:1 mux half.
# The keys are the combinational kinds; registers and constants cost
# nothing. Width is ceil(log2(n_cbps * d)), wide enough for every
# intermediate value.
LUT_PER_BIT = {
    NodeKind.ADDER: 1.0, NodeKind.SUBTRACTOR: 1.0, NodeKind.COMPARATOR: 1.0, NodeKind.MUX: 0.5,
}


class Variant(str, enum.Enum):
    AREA = "area"
    SPEED = "speed"


class DatapathGraph:
    """Directed primitive-level structure: nodes plus data-dependency edges.

    A register's inputs are the node producing its next value and,
    optionally, its enable: with one, it loads only in cycles where the
    enable is set. Cycles are legal only through registers. Inputs may
    name nodes added later: validate() checks them once the graph is
    complete.
    """

    def __init__(self, variant: str, width_bits: int) -> None:
        self.variant = variant
        self.width_bits = width_bits
        self.nodes: dict[str, NodeKind] = {}
        self.preds: dict[str, tuple[str, ...]] = {}

    def add(self, name: str, kind: NodeKind, *inputs: str) -> None:
        if name in self.nodes:
            raise RangeError(f"duplicate node {name!r}")
        self.nodes[name] = kind
        self.preds[name] = tuple(inputs)

    def validate(self) -> dict[str, int]:
        """Check every input in one walk and return, for each node, the
        longest combinational chain ending at it; registers and constants
        are depth 0. Raises RangeError on an undefined input or an
        input-less combinational node, CyclicGraph on a combinational loop.
        """
        depths: dict[str, int] = {}
        entered: set[str] = set()

        def walk(name: str) -> int:
            if name in depths:
                return depths[name]
            if name in entered:
                raise CyclicGraph(f"combinational loop through {name!r}")
            entered.add(name)
            inputs = self.preds[name]
            for src in inputs:
                if src not in self.nodes:
                    raise RangeError(f"node {name!r} reads undefined {src!r}")
            if self.nodes[name] not in LUT_PER_BIT:
                depths[name] = 0  # a chain starts here; its inputs are not followed
            elif not inputs:
                raise RangeError(f"combinational node {name!r} has no inputs")
            else:
                depths[name] = 1 + max(map(walk, inputs))
            return depths[name]

        for name in self.nodes:
            walk(name)
        return depths


class CostReport(NamedTuple):
    """Structural resource/timing estimate; not a synthesis result."""

    variant: str
    register_count: int
    adder_count: int  # add and subtract units together
    comparator_count: int
    mux_count: int
    lut_equiv: float
    critical_path_depth: int
    fmax_proxy_mhz: float


def width_bits(cfg: InterleaverConfig) -> int:
    """ceil(log2(n_cbps * d)): enough bits for every accumulator value."""
    return (cfg.n_cbps * cfg.d - 1).bit_length()


def _common_counters(g: DatapathGraph, wrap: str) -> None:
    """Constants, the narrow dedicated counters shared by both variants
    (q-mod-s trackers and the j-mod-s counter), and the dv/dv_lo
    correction select. Each register names its next-value source; the
    q-mod-s trackers are enabled by wrap, the variant's r-wrap comparator,
    so that they advance only when q does."""
    for const in ("const_d", "const_one", "const_s", "const_neg_sd", "const_n", "const_zero"):
        g.add(const, NodeKind.CONSTANT)

    # v = q mod s and its derived correction registers, reset when v wraps
    g.add("v", NodeKind.REGISTER, "mux_v", wrap)
    g.add("add_v", NodeKind.ADDER, "v", "const_one")
    g.add("cmp_v", NodeKind.COMPARATOR, "add_v", "const_s")
    g.add("mux_v", NodeKind.MUX, "add_v", "const_zero", "cmp_v")
    g.add("dv", NodeKind.REGISTER, "mux_dv", wrap)
    g.add("add_dv", NodeKind.ADDER, "dv", "const_d")
    g.add("mux_dv", NodeKind.MUX, "add_dv", "const_zero", "cmp_v")
    g.add("dv_lo", NodeKind.REGISTER, "mux_dvlo", wrap)
    g.add("add_dvlo", NodeKind.ADDER, "dv_lo", "const_d")
    g.add("mux_dvlo", NodeKind.MUX, "add_dvlo", "const_neg_sd", "cmp_v")
    g.add("tv", NodeKind.REGISTER, "mux_tv", wrap)
    g.add("sub_tv", NodeKind.SUBTRACTOR, "tv", "const_one")
    g.add("mux_tv", NodeKind.MUX, "sub_tv", "const_s", "cmp_v")

    # s_phase = j mod s
    g.add("s_phase", NodeKind.REGISTER, "mux_sphase")
    g.add("add_sphase", NodeKind.ADDER, "s_phase", "const_one")
    g.add("cmp_sphase", NodeKind.COMPARATOR, "add_sphase", "const_s")
    g.add("mux_sphase", NodeKind.MUX, "add_sphase", "const_zero", "cmp_sphase")

    # correction term: dv_lo once s_phase reaches tv, dv before
    g.add("cmp_de", NodeKind.COMPARATOR, "s_phase", "tv")
    g.add("mux_de", NodeKind.MUX, "dv", "dv_lo", "cmp_de")


def build_datapath(cfg: InterleaverConfig, variant: Variant | str) -> DatapathGraph:
    """Construct the structural graph for one optimization goal.

    Node count does not depend on cfg; only datapath width (and so the
    LUT-equivalent estimate) grows with log2(n_cbps * d).
    """
    variant = Variant(variant)
    g = DatapathGraph(variant=variant.value, width_bits=width_bits(cfg))

    if variant is Variant.SPEED:
        _common_counters(g, "cmp_r")
        # dedicated wide units; pipeline register after the corrected residue
        g.add("r", NodeKind.REGISTER, "mux_r")
        g.add("q", NodeKind.REGISTER, "mux_q")
        g.add("addr_out", NodeKind.REGISTER, "add_k")
        g.add("add_u", NodeKind.ADDER, "r", "mux_de")
        g.add("pipe_u", NodeKind.REGISTER, "add_u")
        g.add("add_k", NodeKind.ADDER, "pipe_u", "q")

        g.add("add_r", NodeKind.ADDER, "r", "const_d")
        g.add("sub_r", NodeKind.SUBTRACTOR, "add_r", "const_n")
        g.add("cmp_r", NodeKind.COMPARATOR, "add_r", "const_n")
        g.add("mux_r", NodeKind.MUX, "add_r", "sub_r", "cmp_r")
        g.add("add_q", NodeKind.ADDER, "q", "const_one")
        g.add("mux_q", NodeKind.MUX, "q", "add_q", "cmp_r")
    else:
        _common_counters(g, "cmp_shared")
        # one shared ALU behind operand mux trees; round-robin over the
        # r-update, the u computation, and the output address
        g.add("r", NodeKind.REGISTER, "mux_wr")
        g.add("q", NodeKind.REGISTER, "mux_q")
        g.add("addr_out", NodeKind.REGISTER, "mux_wr")
        g.add("mux_a1", NodeKind.MUX, "r", "q")
        g.add("mux_b1", NodeKind.MUX, "mux_de", "const_d")
        g.add("mux_b2", NodeKind.MUX, "mux_b1", "const_n")
        g.add("alu", NodeKind.ADDER, "mux_a1", "mux_b2")
        g.add("mux_thr", NodeKind.MUX, "const_n", "const_s")
        g.add("cmp_shared", NodeKind.COMPARATOR, "alu", "mux_thr")
        g.add("mux_wr", NodeKind.MUX, "alu", "const_zero", "cmp_shared")
        g.add("add_q", NodeKind.ADDER, "q", "const_one")
        g.add("mux_q", NodeKind.MUX, "q", "add_q", "cmp_shared")
    return g


def estimate_cost(
    g: DatapathGraph, unit_delay_ns: float = DEFAULT_UNIT_DELAY_NS
) -> CostReport:
    """Count primitives and the longest register-to-register chain.

    Pure function of the graph: the same graph always yields the same
    report. Raises CyclicGraph when combinational nodes form a loop, and
    RangeError unless MIN_UNIT_DELAY_NS <= unit_delay_ns <= MAX_UNIT_DELAY_NS
    (nan fails the comparison).
    """
    if not MIN_UNIT_DELAY_NS <= unit_delay_ns <= MAX_UNIT_DELAY_NS:
        raise RangeError(
            f"unit delay must be in [{MIN_UNIT_DELAY_NS}, {MAX_UNIT_DELAY_NS}] ns, "
            f"got {unit_delay_ns}"
        )
    depths = g.validate()
    counts = Counter(g.nodes.values())
    lut = sum(
        LUT_PER_BIT[kind] * g.width_bits
        for kind in g.nodes.values()
        if kind in LUT_PER_BIT
    )
    depth = max(depths.values(), default=0)
    fmax = 1000.0 / (depth * unit_delay_ns) if depth else float("inf")
    return CostReport(
        variant=g.variant,
        register_count=counts[NodeKind.REGISTER],
        adder_count=counts[NodeKind.ADDER] + counts[NodeKind.SUBTRACTOR],
        comparator_count=counts[NodeKind.COMPARATOR],
        mux_count=counts[NodeKind.MUX],
        lut_equiv=lut,
        critical_path_depth=depth,
        fmax_proxy_mhz=fmax,
    )


class TradeoffReport(NamedTuple):
    """The two estimates of one config at one unit delay; the rest of the
    report is derived from them, or read from PAPER_REFERENCE, when used."""

    cfg: InterleaverConfig
    area: CostReport
    speed: CostReport
    unit_delay_ns: float

    @property
    def deltas(self) -> dict:
        a, s = self.area, self.speed
        return {
            "fmax_proxy_pct": _pct(s.fmax_proxy_mhz, a.fmax_proxy_mhz),
            "lut_equiv_pct": _pct(s.lut_equiv, a.lut_equiv),
            "register_count_delta": s.register_count - a.register_count,
            "critical_path_depth_delta": s.critical_path_depth - a.critical_path_depth,
        }

    @property
    def ordering_checks(self) -> tuple[tuple[str, bool], ...]:
        a, s = self.area, self.speed
        return (
            ("speed depth < area depth", s.critical_path_depth < a.critical_path_depth),
            ("speed registers = area registers + 1", s.register_count == a.register_count + 1),
        )

    @property
    def ok(self) -> bool:
        """Every ordering check and every comparison row passes."""
        return all(row[-1] for row in (*self.ordering_checks, *reduction_check()))

    def as_dict(self) -> dict:
        return {
            "config": self.cfg.as_dict(),
            "model": {
                "note": (
                    "structural estimates from the datapath model; "
                    "not synthesis results"
                ),
                "unit_delay_ns": self.unit_delay_ns,
                "area": self.area._asdict(),
                "speed": self.speed._asdict(),
                "deltas": self.deltas,
            },
            "paper_reference": {
                "note": "published synthesis results, carried verbatim",
                **PAPER_REFERENCE._asdict(),
            },
            "comparison_check": [
                {"name": name, "recomputed": got, "printed": want, "pass": ok}
                for name, got, want, ok in reduction_check()
            ],
        }

    def render_json(self) -> str:
        import json  # only the JSON report needs it

        return json.dumps(self.as_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        a, s, p, deltas = self.area, self.speed, PAPER_REFERENCE, self.deltas
        lines = [
            f"trade-off report for ncbps={self.cfg.n_cbps} d={self.cfg.d} s={self.cfg.s}",
            "",
            f"model: structural estimates (unit delay {self.unit_delay_ns} ns), not synthesis results",
            f"  {'metric':<28}{'area':>10}{'speed':>10}",
            f"  {'registers':<28}{a.register_count:>10}{s.register_count:>10}",
            f"  {'adders/subtractors':<28}{a.adder_count:>10}{s.adder_count:>10}",
            f"  {'comparators':<28}{a.comparator_count:>10}{s.comparator_count:>10}",
            f"  {'muxes':<28}{a.mux_count:>10}{s.mux_count:>10}",
            f"  {'LUT-equivalent':<28}{a.lut_equiv:>10.1f}{s.lut_equiv:>10.1f}",
            f"  {'critical path depth':<28}{a.critical_path_depth:>10}{s.critical_path_depth:>10}",
            f"  {'fmax proxy (MHz)':<28}{a.fmax_proxy_mhz:>10.2f}{s.fmax_proxy_mhz:>10.2f}",
            "  deltas (speed vs area): "
            + f"fmax {deltas['fmax_proxy_pct']:+.1f}%, "
            + f"lut {deltas['lut_equiv_pct']:+.1f}%, "
            + f"registers {deltas['register_count_delta']:+d}, "
            + f"depth {deltas['critical_path_depth_delta']:+d}",
            "",
            "paper_reference: published synthesis results (Spartan-3 XC3S400, PQ208)",
            f"  {'metric':<28}{'area':>10}{'speed':>10}",
            f"  {'max frequency (MHz)':<28}{p.area_fmax_mhz:>10}{p.speed_fmax_mhz:>10}",
            f"  {'power (mW)':<28}{p.power_mw:>10}{p.power_mw:>10}",
            f"  {'slice flip-flops':<28}{p.area_ff:>10}{p.speed_ff:>10}",
            f"  {'4-input LUTs':<28}{p.area_lut:>10}{p.speed_lut:>10}",
            f"  {'slices':<28}{p.slices:>10}{p.slices:>10}",
            "",
            "model ordering checks",
        ]
        lines += [f"  {name}: {'PASS' if ok else 'FAIL'}" for name, ok in self.ordering_checks]
        lines.append(f"comparison-table arithmetic check (tolerance {COMPARISON_TOLERANCE})")
        lines += [
            f"  {name:<12} recomputed {got:+8.2f}  printed {want:+8.2f}  "
            f"{'PASS' if ok else 'FAIL'}"
            for name, got, want, ok in reduction_check()
        ]
        return "\n".join(lines)


def _pct(new: float, old: float) -> float:
    """Relative change of new against old, in percent."""
    return 100.0 * (new - old) / old


def compare_variants(
    cfg: InterleaverConfig, unit_delay_ns: float = DEFAULT_UNIT_DELAY_NS
) -> TradeoffReport:
    """Build and estimate both variants; the report derives its deltas and
    checks from the two estimates, so none is entered by hand."""
    return TradeoffReport(
        cfg,
        estimate_cost(build_datapath(cfg, Variant.AREA), unit_delay_ns),
        estimate_cost(build_datapath(cfg, Variant.SPEED), unit_delay_ns),
        unit_delay_ns,
    )


def reduction_check() -> list[tuple[str, float, float, bool]]:
    """Recompute each published comparison percentage, 100*(ours-theirs)/theirs,
    from the comparison table's own input columns, and check it against the
    printed one, within COMPARISON_TOLERANCE. PAPER_REFERENCE and
    COMPARISON_TOLERANCE are read when called, not when defined.
    Each row: (name, recomputed, printed, within tolerance)."""
    ref = PAPER_REFERENCE
    rows = []
    for name, ours, theirs, printed in COMPARISON:
        got, want = _pct(getattr(ref, ours), getattr(ref, theirs)), getattr(ref, printed)
        rows.append((name, got, want, abs(got - want) <= COMPARISON_TOLERANCE))
    return rows
