import ast
import importlib.util
import inspect
from pathlib import Path

from wimax_il.config import InterleaverConfig
from wimax_il.cost_model import Variant, build_datapath, simulate

# Acceptance set: every exhaustive criterion runs over these.
ACCEPTANCE_CONFIGS = [
    InterleaverConfig(32, 16, 1),
    InterleaverConfig(192, 16, 1),
    InterleaverConfig(384, 16, 2),
    InterleaverConfig(576, 16, 3),
    InterleaverConfig(768, 16, 2),
    InterleaverConfig(1152, 16, 3),
]

ROOT = Path(__file__).resolve().parent.parent


def load_module(name: str, path: str):
    """The Python file at path, relative to the repository root, loaded as
    a module called name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the one list of admitted configs, and the one check that the engines agree
fullcheck = load_module("fullcheck", "tools/fullcheck.py")


def all_valid_configs(max_n: int = 2048) -> list[InterleaverConfig]:
    """Every (n_cbps, d, s) accepted by validation with n_cbps <= max_n."""
    return fullcheck.valid_configs(max_n)


def swap_first_two(table):
    a, b, *rest = table.map
    return table._replace(map=(b, a, *rest))


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


def speed_graph_addresses(cfg: InterleaverConfig) -> list[int]:
    """The speed datapath's output on cycles 1..n_cbps, one cycle after each loop step."""
    trace = simulate(build_datapath(cfg, Variant.SPEED), cfg.n_cbps + 1)
    return [values["addr_out"] for values in trace][1:]
