"""Burst-error dispersal analysis for the deinterleaver, and its report.

A channel burst marks b consecutive received positions erroneous. The
deinterleave map is tabulated once per sweep; the burst starting at
channel position start then lands on the original positions
dmap[start:start + b]. window_stats scores the first window of each start
in one pass over its sorted order, and longer bursts from the same start
update that score one position at a time (see burst_sweep). Runs of
consecutive errors longer than RS_MAX_CORRECTABLE_RUN are treated as
uncorrectable.

The report is written here too: summary_lines for stdout, csv_chunks and
json_chunks for the files, one burst length per chunk. COLUMNS names the
per-start fields once, in BurstReport's field order, for the CSV header,
its rows and the JSON keys.
"""
from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import chain
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
# one element of the JSON "sweeps" and "reports" arrays, laid out as
# json.dumps(indent=2) lays them out; the flag, last in COLUMNS, is %s
_JSON_REPORT = "        {\n%s\n        }" % ",\n".join(
    f'          "{key}": %{"s" if key == COLUMNS[-1] else "d"}' for key in COLUMNS
)
_JSON_BOOL = ("false", "true")
_JSON_SWEEP = (
    '    {\n      "b": %d,\n      "worst_max_run_length": %d,\n'
    '      "reports": [\n%s\n      ]\n    }'
)

# Most reports one burst_sweep call may make: a bound on the time and memory
# one command can ask for. It admits a sweep of burst lengths 1..116 on the
# largest block in use (2304 bits), and of every length on up to 723 bits.
MAX_SWEEP_REPORTS = 1 << 18
# Most window positions one burst_sweep call may score: each start scores
# the b positions of its first window, then one more per longer length, so
# a call scores reports + (b - 1)(n_cbps - b + 1). From length 1 that is the
# report count; it bounds one long burst length, which makes few reports.
# It admits --b 8 on a MAX_NCBPS block (524,232 positions).
MAX_SWEEP_POSITIONS = 1 << 23


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


class SweepResult(NamedTuple):
    """Every report of one burst_sweep call, in CSV row order (by burst
    length, then start), and the worst run of each swept length."""

    cfg: InterleaverConfig
    lengths: range
    reports: tuple[BurstReport, ...]
    worst_runs: tuple[int, ...]

    @property
    def worst_max_run_length(self) -> int:
        """The worst run over every swept length."""
        return max(self.worst_runs)

    def per_length(self) -> Iterator[tuple[int, tuple[BurstReport, ...], int]]:
        """(b, the reports of length b, their worst run) for each swept b."""
        at = 0
        for b, worst in zip(self.lengths, self.worst_runs):
            count = self.cfg.n_cbps - b + 1
            yield b, self.reports[at:at + count], worst
            at += count


def burst_sweep(cfg: InterleaverConfig, b: int, last: int | None = None) -> SweepResult:
    """One report per admissible start position (exhaustive), for every burst
    length b..last (last defaults to b).

    Bursts never wrap around the block boundary: a burst belongs to one
    transmitted symbol, so the starts for length b are 0 .. n_cbps - b.

    For s = 1 and b <= n_cbps/d the worst max_run_length is always 1: two
    channel positions land adjacent in the original order only if they are
    exactly n_cbps/d apart, and a burst shorter than n_cbps/d + 1 cannot
    contain such a pair. No closed-form bound is claimed for s in {2, 3};
    sweeps measure it.

    All lengths are swept in one pass. Each start scores its first window
    with window_stats, then grows it one channel position x at a time,
    which adds one original position to the sorted window:
    - min_spacing can only fall. Every neighbour gap of the grown window is
      either a gap of the old one or one of the two gaps next to x, and a
      gap that x splits leaves two smaller gaps behind; so the new minimum
      is the least of the old one and the two gaps next to x.
    - max_run can only rise. Adding x breaks no run of consecutive
      positions; it only joins the run ending at x - 1, itself and the run
      starting at x + 1. The endpoints of every run map to each other, so
      that merged run is found from those of x - 1 and x + 1.
    """
    n = cfg.n_cbps
    last = b if last is None else last
    for length in (b, last):
        if not 1 <= length <= n:
            raise RangeError(f"burst length must be in [1, {n}], got {length}")
    if last < b:
        raise RangeError(f"last burst length {last} is below the first, {b}")
    count = (last - b + 1) * (2 * n + 2 - b - last) // 2
    if count > MAX_SWEEP_REPORTS:
        raise RangeError(
            f"burst lengths {b}..{last} on {n} bits make {count} reports, "
            f"more than the limit of {MAX_SWEEP_REPORTS}"
        )
    positions = count + (b - 1) * (n - b + 1)
    if positions > MAX_SWEEP_POSITIONS:
        raise RangeError(
            f"burst lengths {b}..{last} on {n} bits score {positions} window "
            f"positions, more than the limit of {MAX_SWEEP_POSITIONS}"
        )
    dmap = [deinterleave_index(cfg, j) for j in range(n)]
    rows: list[list[BurstReport]] = [[] for _ in range(b, last + 1)]
    appends = [length_rows.append for length_rows in rows]
    first_append, grow_appends = appends[0], appends[1:]
    make = tuple.__new__  # BurstReport(...) without the Python-level __new__
    limit = RS_MAX_CORRECTABLE_RUN
    for start in range(n - b + 1):
        window = sorted(dmap[start:start + b])
        run, gap = window_stats(window)
        first_append(make(BurstReport, (start, b, run, gap, run <= limit)))
        top = min(last, n - start)
        if top == b:
            continue
        if b == 1:
            gap = n  # no pair yet: the first pair sets the gap
        ends = {}  # the two endpoints of each run of the window, mapped to each other
        lo = prev = window[0]
        for x in window[1:]:
            if x != prev + 1:
                ends[lo], ends[prev] = prev, lo
                lo = x
            prev = x
        ends[lo], ends[prev] = prev, lo
        window = [-n, *window, 2 * n]  # sentinels: no gap to them is ever least
        pop = ends.pop
        grown = zip(range(b + 1, top + 1), dmap[start + b:start + top], grow_appends)
        for length, x, append in grown:
            k = bisect_left(window, x)
            if x - window[k - 1] < gap:
                gap = x - window[k - 1]
            if window[k] - x < gap:
                gap = window[k] - x
            window.insert(k, x)
            lo, hi = pop(x - 1, x), pop(x + 1, x)
            ends[lo], ends[hi] = hi, lo
            if hi - lo >= run:
                run = hi - lo + 1
            append(make(BurstReport, (start, length, run, gap, run <= limit)))
    return SweepResult(
        cfg=cfg,
        lengths=range(b, last + 1),
        reports=tuple(chain.from_iterable(rows)),
        worst_runs=tuple(max(r.max_run_length for r in length_rows) for length_rows in rows),
    )


def summary_lines(result: SweepResult) -> list[str]:
    """The worst run per burst length, then the s=1 guarantee over the
    swept lengths it covers (b <= n_cbps/d)."""
    cfg = result.cfg
    lines = [
        f"b={b}: worst max_run_length={worst} over {cfg.n_cbps - b + 1} starts, "
        f"rs_correctable={'yes' if worst <= RS_MAX_CORRECTABLE_RUN else 'NO'}"
        for b, worst in zip(result.lengths, result.worst_runs)
    ]
    guarded = [w for b, w in zip(result.lengths, result.worst_runs) if b <= cfg.rows]
    if cfg.s == 1 and guarded:
        holds = all(w == 1 for w in guarded)
        lines.append(
            f"s=1 dispersal guarantee (b <= {cfg.rows} scatters every "
            f"burst to isolated bits): {'holds' if holds else 'VIOLATED'}"
        )
    return lines


def csv_chunks(result: SweepResult) -> Iterator[str]:
    """The CSV report: its header, then the rows of one burst length per
    chunk, so that a writer holds one length's rows at a time."""
    cfg = result.cfg
    yield (
        f"{FORMAT_LINE}\n# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}\n"
        f"# columns: {','.join(COLUMNS)}\n# note: {RS_CRITERION_NOTE}\n"
    )
    for _, reports, _ in result.per_length():
        yield "\n".join([_CSV_ROW % r for r in reports]) + "\n"


def json_chunks(result: SweepResult) -> Iterator[str]:
    """The report as json.dumps(payload, indent=2) + "\\n" would write it,
    with payload = {"config", "rs_criterion_note", "sweeps": [{"b",
    "worst_max_run_length", "reports": [one COLUMNS object per report]}]},
    one sweep (burst length) per chunk. Only the header goes through
    json.dumps; indent makes it pure Python, so the sweeps are written from
    the fixed templates."""
    import json  # only the JSON report needs it

    header = json.dumps(
        {"config": result.cfg.as_dict(), "rs_criterion_note": RS_CRITERION_NOTE},
        indent=2,
    )
    # header[:-2] drops the closing "\n}" so that "sweeps" joins the object
    yield f'{header[:-2]},\n  "sweeps": [\n'
    separator = ""
    for b, reports, worst in result.per_length():
        yield separator + _JSON_SWEEP % (b, worst, ",\n".join([
            _JSON_REPORT % (start, length, run, gap, _JSON_BOOL[ok])
            for start, length, run, gap, ok in reports
        ]))
        separator = ",\n"
    yield "\n  ]\n}\n"


def render_json(result: SweepResult) -> str:
    """The whole JSON report as one string."""
    return "".join(json_chunks(result))
