"""Interleaver parameter sets, validation, and published reference constants.

A block is described by the triple (n_cbps, d, s): n_cbps coded bits per
OFDM symbol, d interleaver columns (12 or 16, 16 preferred as a power of
two), and the constellation-significance parameter s (1 for QPSK, 2 for
16-QAM, 3 for 64-QAM).
"""
from __future__ import annotations

from typing import NamedTuple

from .errors import DivisibilityError, RangeError

ALLOWED_D = (12, 16)
ALLOWED_S = (1, 2, 3)
DEFAULT_D = 16

# Largest accepted block: a bound on the time and memory one command can ask
# for, far above the blocks in use (at most 2304 bits), not a PHY constant.
MAX_NCBPS = 65536

# The trade-off model's combinational unit delay; here so that the CLI's
# option default needs no cost model.
DEFAULT_UNIT_DELAY_NS = 1.0


class _Triple(NamedTuple):
    n_cbps: int
    d: int
    s: int


class InterleaverConfig(_Triple):
    """Validated (n_cbps, d, s) triple; an immutable named tuple.

    Invariants enforced at construction:
      d in {12, 16}; s in {1, 2, 3}; 2*d <= n_cbps <= MAX_NCBPS;
      d | n_cbps; s | (n_cbps / d).

    The last constraint keeps the mod-s significance groups aligned with
    the column structure; every standard configuration satisfies it.

    Raises RangeError for domain violations (d, s, n_cbps out of range) and
    DivisibilityError when d does not divide n_cbps or s does not divide
    the row count.
    """

    __slots__ = ()

    def __new__(cls, n_cbps: int, d: int, s: int) -> "InterleaverConfig":
        n = n_cbps
        if d not in ALLOWED_D:
            raise RangeError(f"d must be one of {ALLOWED_D}, got {d}")
        if s not in ALLOWED_S:
            raise RangeError(f"s must be one of {ALLOWED_S}, got {s}")
        if n < 2 * d:
            raise RangeError(f"n_cbps must be at least 2*d = {2 * d}, got {n}")
        if n > MAX_NCBPS:
            raise RangeError(f"n_cbps must be at most {MAX_NCBPS}, got {n}")
        if n % d != 0:
            raise DivisibilityError(f"d = {d} does not divide n_cbps = {n}")
        if (n // d) % s != 0:
            raise DivisibilityError(
                f"s = {s} does not divide the row count n_cbps/d = {n // d}"
            )
        return super().__new__(cls, n_cbps, d, s)

    @classmethod
    def _make(cls, iterable) -> "InterleaverConfig":
        return cls(*iterable)  # so that _replace checks the invariants too

    @property
    def rows(self) -> int:
        return self.n_cbps // self.d

    def as_text(self) -> str:
        """Plain-text triple "Ncbps,d,s"."""
        return f"{self.n_cbps},{self.d},{self.s}"

    def as_dict(self) -> dict:
        """The "config" object of the JSON reports."""
        return {"ncbps": self.n_cbps, "d": self.d, "s": self.s}


# Default block sizes per modulation, d=16. The address math is generic in
# n_cbps; these are conveniences drawn from the 802.16 OFDM PHY family.
PRESETS: dict[str, InterleaverConfig] = {
    "qpsk": InterleaverConfig(192, DEFAULT_D, 1),
    "qam16": InterleaverConfig(384, DEFAULT_D, 2),
    "qam64": InterleaverConfig(576, DEFAULT_D, 3),
}


def preset(name: str) -> InterleaverConfig:
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise RangeError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")


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
