"""Burst-error dispersal analysis for the deinterleaver.

A channel burst marks b consecutive received positions erroneous. The
deinterleave map is tabulated once per sweep; the burst starting at
channel position start then lands on the original positions
dmap[start:start + b], and window_stats scores them in one pass over
their sorted order. Runs of consecutive errors longer than
RS_MAX_CORRECTABLE_RUN are treated as uncorrectable.
"""
from __future__ import annotations

from dataclasses import dataclass

from .config import InterleaverConfig
from .errors import RangeError
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


def window_stats(ordered: list[int]) -> tuple[int, int]:
    """(max_run_length, min_pairwise_spacing) of sorted, distinct, non-empty
    positions: the longest run of consecutive indices, and the smallest gap
    between neighbours (0 when there is only one position, no pair to
    measure)."""
    best = run = 1
    gap = ordered[-1] - ordered[0]  # no neighbour gap exceeds the span
    for prev, here in zip(ordered, ordered[1:]):
        step = here - prev
        if step == 1:
            run += 1
            if run > best:
                best = run
        else:
            run = 1
        if step < gap:
            gap = step
    return best, gap


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


def burst_sweep(cfg: InterleaverConfig, b: int) -> SweepResult:
    """One report per admissible start position (exhaustive).

    Bursts never wrap around the block boundary: a burst belongs to one
    transmitted symbol, so the starts are 0 .. n_cbps - b.

    For s = 1 and b <= n_cbps/d the worst max_run_length is always 1: two
    channel positions land adjacent in the original order only if they are
    exactly n_cbps/d apart, and a burst shorter than n_cbps/d + 1 cannot
    contain such a pair. No closed-form bound is claimed for s in {2, 3};
    sweeps measure it.
    """
    if not 1 <= b <= cfg.n_cbps:
        raise RangeError(f"burst length must be in [1, {cfg.n_cbps}], got {b}")
    dmap = [deinterleave_index(cfg, j) for j in range(cfg.n_cbps)]
    reports = []
    for start in range(cfg.n_cbps - b + 1):
        run, gap = window_stats(sorted(dmap[start:start + b]))
        reports.append(
            BurstReport(
                burst_length=b,
                start_position=start,
                max_run_length=run,
                min_pairwise_spacing=gap,
                rs_correctable=run <= RS_MAX_CORRECTABLE_RUN,
            )
        )
    return SweepResult(
        cfg=cfg,
        burst_length=b,
        reports=tuple(reports),
        worst_max_run_length=max(r.max_run_length for r in reports),
    )
