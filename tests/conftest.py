import ast
import inspect
from operator import add, eq, ge, sub

from wimax_il.config import InterleaverConfig
from wimax_il.cost_model import NodeKind, Variant, build_datapath

# Acceptance set: every exhaustive criterion runs over these.
ACCEPTANCE_CONFIGS = [
    InterleaverConfig(32, 16, 1),
    InterleaverConfig(192, 16, 1),
    InterleaverConfig(384, 16, 2),
    InterleaverConfig(576, 16, 3),
    InterleaverConfig(768, 16, 2),
    InterleaverConfig(1152, 16, 3),
]


def all_valid_configs(max_n: int = 2048) -> list[InterleaverConfig]:
    """Every (n_cbps, d, s) accepted by validation with n_cbps <= max_n."""
    out = []
    for d in (12, 16):
        for n in range(2 * d, max_n + 1, d):
            for s in (1, 2, 3):
                if (n // d) % s == 0:
                    out.append(InterleaverConfig(n, d, s))
    return out


def loop_div_mul(func) -> list[str]:
    """The names of the *, /, //, % and ** operators inside the one for loop
    of func's source; the loop of generator.run must have none."""
    tree = ast.parse(inspect.getsource(func))
    (loop,) = [node for node in ast.walk(tree) if isinstance(node, ast.For)]
    banned = (ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)
    return [
        type(node.op).__name__
        for node in ast.walk(loop)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, banned)
    ]


# What a datapath graph does not record, so that its evaluator takes it from
# here: the comparators that test equality (the others test >=), and the
# values of the constants and of the two registers that do not reset to 0.
# ROADMAP item 1 moves these into the graph once the package runs it.
EQUALITY_COMPARATORS = {"cmp_v", "cmp_sphase"}


def unrecorded_values(cfg: InterleaverConfig) -> dict[str, int]:
    n, d, s = cfg
    return {
        "const_d": d, "const_one": 1, "const_s": s, "const_neg_sd": -d * s,
        "const_n": n, "const_zero": 0, "tv": s, "dv_lo": -d * s,
    }


# each combinational kind's rule on its inputs; a mux reads (if false, if true, select)
RULES = {
    NodeKind.ADDER: add,
    NodeKind.SUBTRACTOR: sub,
    NodeKind.COMPARATOR: ge,
    NodeKind.MUX: lambda if_false, if_true, select: if_true if select else if_false,
}


def evaluate_graph(g, cfg: InterleaverConfig, node: str, cycles: int) -> list[int]:
    """The value of node on each of cycles clock cycles from reset. Each
    cycle evaluates the combinational nodes in validate()'s depth order, and
    then every register loads its source when its enable is set, or every
    cycle when it has none."""
    depths = g.validate()
    comb = [
        (name, eq if name in EQUALITY_COMPARATORS else RULES[g.nodes[name]], g.preds[name])
        for name in sorted(g.nodes, key=depths.__getitem__)
        if depths[name]
    ]
    registers = [(name, *g.preds[name]) for name, kind in g.nodes.items() if kind is NodeKind.REGISTER]
    values = dict.fromkeys(g.nodes, 0) | unrecorded_values(cfg)
    trace = []
    for _ in range(cycles):
        for name, rule, inputs in comb:
            values[name] = rule(*[values[x] for x in inputs])
        trace.append(values[node])
        values |= {
            name: values[source]
            for name, source, *enable in registers
            if not enable or values[enable[0]]
        }
    return trace


def speed_graph_addresses(cfg: InterleaverConfig) -> list[int]:
    """What the speed datapath emits on cycles 1..n_cbps: its two pipeline
    registers put each address one cycle after the loop step that makes it."""
    return evaluate_graph(build_datapath(cfg, Variant.SPEED), cfg, "addr_out", cfg.n_cbps + 1)[1:]
