"""Burst-error dispersal analysis for the deinterleaver.

A channel burst marks consecutive received positions erroneous; mapping
the marked positions back through the deinterleaver shows how far apart
they land in the original bit order. Runs of consecutive errors longer
than RS_MAX_CORRECTABLE_RUN are treated as uncorrectable.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .config import InterleaverConfig
from .errors import DomainMismatch, LengthMismatch, RangeError
from .reference import deinterleave_index

# Correction limit as reported for the WiMAX outer code: 8 consecutive
# erroneous *bits*. This is the published simplification; RS(255,239)
# actually corrects 8 symbols. Reports carry a note to that effect.
RS_MAX_CORRECTABLE_RUN = 8

RS_CRITERION_NOTE = (
    "correctable means max_run_length <= 8 consecutive bits; the outer "
    "RS code really corrects 8 symbols, the bit criterion is the "
    "published simplification"
)


class MaskDomain(str, enum.Enum):
    CHANNEL = "channel"  # post-interleave positions, as received
    ORIGINAL = "original"  # pre-interleave positions


@dataclass(frozen=True)
class ErrorMask:
    length: int
    positions: frozenset[int]
    domain: MaskDomain

    def __post_init__(self) -> None:
        if any(not 0 <= p < self.length for p in self.positions):
            raise RangeError("error positions outside [0, length)")


def inject_burst(n: int, start: int, b: int) -> ErrorMask:
    """Channel-domain mask with errors at {start, ..., start+b-1}.

    Bursts never wrap around the block boundary: a burst belongs to one
    transmitted symbol, so start + b must not exceed n.
    """
    if b < 1:
        raise RangeError(f"burst length must be >= 1, got {b}")
    if start < 0 or start + b > n:
        raise RangeError(
            f"burst [{start}, {start + b}) does not fit in a block of {n}"
        )
    return ErrorMask(n, frozenset(range(start, start + b)), MaskDomain.CHANNEL)


def deinterleave_errors(cfg: InterleaverConfig, mask: ErrorMask) -> ErrorMask:
    """Map channel-domain error positions back to original bit positions."""
    if mask.domain is not MaskDomain.CHANNEL:
        raise DomainMismatch("mask is already in the original domain")
    if mask.length != cfg.n_cbps:
        raise LengthMismatch(
            f"mask length {mask.length} does not match n_cbps {cfg.n_cbps}"
        )
    mapped = frozenset(deinterleave_index(cfg, j) for j in mask.positions)
    return ErrorMask(mask.length, mapped, MaskDomain.ORIGINAL)


def max_run_length(mask: ErrorMask) -> int:
    """Length of the longest run of consecutive indices; 0 when empty."""
    if not mask.positions:
        return 0
    ordered = sorted(mask.positions)
    best = cur = 1
    for prev, here in zip(ordered, ordered[1:]):
        cur = cur + 1 if here == prev + 1 else 1
        best = max(best, cur)
    return best


def min_pairwise_spacing(mask: ErrorMask) -> int:
    """Smallest gap between two distinct error positions; 0 when there are
    fewer than two positions (no pair to measure)."""
    if len(mask.positions) < 2:
        return 0
    ordered = sorted(mask.positions)
    return min(b - a for a, b in zip(ordered, ordered[1:]))


@dataclass(frozen=True)
class BurstReport:
    burst_length: int
    start_position: int
    max_run_length: int
    min_pairwise_spacing: int
    rs_correctable: bool

    def as_row(self) -> tuple[int, int, int, int, int]:
        return (
            self.start_position,
            self.burst_length,
            self.max_run_length,
            self.min_pairwise_spacing,
            int(self.rs_correctable),
        )


@dataclass(frozen=True)
class SweepResult:
    cfg: InterleaverConfig
    burst_length: int
    reports: tuple[BurstReport, ...]
    worst_max_run_length: int


def _report_for(cfg: InterleaverConfig, start: int, b: int) -> BurstReport:
    mapped = deinterleave_errors(cfg, inject_burst(cfg.n_cbps, start, b))
    run = max_run_length(mapped)
    return BurstReport(
        burst_length=b,
        start_position=start,
        max_run_length=run,
        min_pairwise_spacing=min_pairwise_spacing(mapped),
        rs_correctable=run <= RS_MAX_CORRECTABLE_RUN,
    )


def burst_sweep(cfg: InterleaverConfig, b: int) -> SweepResult:
    """One report per admissible start position (exhaustive).

    For s = 1 and b <= n_cbps/d the worst max_run_length is always 1: two
    channel positions land adjacent in the original order only if they are
    exactly n_cbps/d apart, and a burst shorter than n_cbps/d + 1 cannot
    contain such a pair. No closed-form bound is claimed for s in {2, 3};
    sweeps measure it.
    """
    if not 1 <= b <= cfg.n_cbps:
        raise RangeError(f"burst length must be in [1, {cfg.n_cbps}], got {b}")
    reports = tuple(
        _report_for(cfg, start, b) for start in range(cfg.n_cbps - b + 1)
    )
    return SweepResult(
        cfg=cfg,
        burst_length=b,
        reports=reports,
        worst_max_run_length=max(r.max_run_length for r in reports),
    )
