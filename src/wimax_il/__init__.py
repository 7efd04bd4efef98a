"""Bit-exact WiMAX (IEEE 802.16e) channel interleaver toolkit.

Address math, a divider-free incremental address generator, burst-error
dispersal analysis, and a structural area-vs-speed datapath cost model,
with a CLI front end (wimax-il).

The names below are imported from their submodules on first use (PEP 562),
so that importing one submodule, such as the CLI, loads no other.
"""
import importlib

_EXPORTS = {
    "burst": ("SweepResult", "burst_sweep"),
    "config": (
        "PAPER_REFERENCE",
        "PRESETS",
        "InterleaverConfig",
        "PaperReference",
        "preset",
        "validate_config",
    ),
    "cost_model": (
        "CostReport",
        "DatapathGraph",
        "NodeKind",
        "TradeoffReport",
        "Variant",
        "build_datapath",
        "compare_variants",
        "estimate_cost",
        "reduction_check",
    ),
    "errors": (
        "CyclicGraph",
        "DivisibilityError",
        "IndexOutOfRange",
        "InterleaverError",
        "LengthMismatch",
        "NotAPermutation",
        "RangeError",
        "TableFormatError",
    ),
    "generator": ("OpCensus", "run"),
    "reference": (
        "AddressTable",
        "Direction",
        "apply_permutation",
        "build_table",
        "deinterleave_index",
        "interleave_index",
        "invert_table",
    ),
    "tablefile": ("parse_table", "read_table", "serialize_table"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
