"""Bit-exact WiMAX (IEEE 802.16e) channel interleaver toolkit.

Address math, a divider-free incremental address generator, burst-error
dispersal analysis, and a structural area-vs-speed datapath cost model,
with a CLI front end (wimax-il).
"""
from .burst import (
    BurstReport,
    SweepResult,
    burst_sweep,
)
from .config import (
    PAPER_REFERENCE,
    PRESETS,
    InterleaverConfig,
    PaperReference,
    preset,
    validate_config,
)
from .cost_model import (
    CostReport,
    DatapathGraph,
    NodeKind,
    TradeoffReport,
    Variant,
    build_datapath,
    compare_variants,
    estimate_cost,
    reduction_check,
)
from .errors import (
    CyclicGraph,
    DivisibilityError,
    IndexOutOfRange,
    InterleaverError,
    LengthMismatch,
    NotAPermutation,
    RangeError,
    TableFormatError,
)
from .generator import OpCensus, run
from .reference import (
    AddressTable,
    Direction,
    apply_permutation,
    build_table,
    deinterleave_index,
    interleave_index,
    invert_table,
)
from .tablefile import parse_table, read_table, serialize_table

__version__ = "0.1.0"
