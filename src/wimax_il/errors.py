"""Exception hierarchy shared by all wimax_il modules."""


class InterleaverError(Exception):
    """Base class; the CLI maps these to exit code 2 (usage/config error)."""


class RangeError(InterleaverError, ValueError):
    """A parameter is outside its allowed domain."""


class DivisibilityError(InterleaverError, ValueError):
    """A divisibility constraint between block parameters is violated."""


class IndexOutOfRange(InterleaverError, IndexError):
    """A bit index lies outside [0, n_cbps)."""


class NotAPermutation(InterleaverError, ValueError):
    """An address table does not cover [0, n_cbps) exactly once."""


class LengthMismatch(InterleaverError, ValueError):
    """Block length does not match the configuration."""


class CyclicGraph(InterleaverError, ValueError):
    """A datapath graph contains a combinational cycle."""


class TableFormatError(InterleaverError, ValueError):
    """An address-table file does not follow the canonical format."""
