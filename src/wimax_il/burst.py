"""Burst-error dispersal analysis for the deinterleaver, and its report.

A channel burst marks b consecutive received positions erroneous. The
deinterleave map is tabulated once per sweep; the burst starting at
channel position start then lands on the original positions
dmap[start:start + b], and window_stats scores them in one pass over
their sorted order. Runs of consecutive errors longer than
RS_MAX_CORRECTABLE_RUN are treated as uncorrectable.

The report is written here too: summary_lines for stdout, render_csv and
render_json for the files. COLUMNS names the per-start fields once, in
BurstReport's field order, for the CSV header, its rows and the JSON keys.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

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

FORMAT_LINE = "# wimax-il burst report v1"
COLUMNS = ("start", "b", "max_run", "min_spacing", "rs_correctable")
_CSV_ROW = ",".join(["%d"] * len(COLUMNS))  # %d writes the bool as 1/0


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


class BurstReport(NamedTuple):
    """One burst start; the fields are in COLUMNS order."""

    start_position: int
    burst_length: int
    max_run_length: int
    min_pairwise_spacing: int
    rs_correctable: bool


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
        reports.append(BurstReport(start, b, run, gap, run <= RS_MAX_CORRECTABLE_RUN))
    return SweepResult(
        cfg=cfg,
        burst_length=b,
        reports=tuple(reports),
        worst_max_run_length=max(r.max_run_length for r in reports),
    )


def summary_lines(cfg: InterleaverConfig, sweeps: list[SweepResult]) -> list[str]:
    """The worst run per burst length, then the s=1 guarantee over the
    swept lengths it covers (b <= n_cbps/d)."""
    lines = []
    for sweep in sweeps:
        worst = sweep.worst_max_run_length
        lines.append(
            f"b={sweep.burst_length}: worst max_run_length={worst} over "
            f"{len(sweep.reports)} starts, "
            f"rs_correctable={'yes' if worst <= RS_MAX_CORRECTABLE_RUN else 'NO'}"
        )
    guarded = [s for s in sweeps if s.burst_length <= cfg.rows]
    if cfg.s == 1 and guarded:
        holds = all(s.worst_max_run_length == 1 for s in guarded)
        lines.append(
            f"s=1 dispersal guarantee (b <= {cfg.rows} scatters every "
            f"burst to isolated bits): {'holds' if holds else 'VIOLATED'}"
        )
    return lines


def render_csv(cfg: InterleaverConfig, sweeps: list[SweepResult]) -> str:
    lines = [
        FORMAT_LINE,
        f"# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}",
        f"# columns: {','.join(COLUMNS)}",
        f"# note: {RS_CRITERION_NOTE}",
    ]
    for sweep in sweeps:
        lines.extend(_CSV_ROW % r for r in sweep.reports)
    return "\n".join(lines) + "\n"


def render_json(cfg: InterleaverConfig, sweeps: list[SweepResult]) -> str:
    payload = {
        "config": cfg.as_dict(),
        "rs_criterion_note": RS_CRITERION_NOTE,
        "sweeps": [
            {
                "b": sweep.burst_length,
                "worst_max_run_length": sweep.worst_max_run_length,
                "reports": [dict(zip(COLUMNS, r)) for r in sweep.reports],
            }
            for sweep in sweeps
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
