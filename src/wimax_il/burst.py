"""Burst-error dispersal analysis for the deinterleaver, and its report.

A channel burst marks b consecutive received positions erroneous. A sweep
takes the deinterleave map dmap from build_table once; the burst starting
at channel position start then lands on the original positions
dmap[start:start + b]. window_stats scores the first length of each start
from its sorted window, and each longer length is scored from the one
before it (see burst_sweep). Column c + s of the channel block is column c
shifted by s original positions, dmap[j + s*rows] == dmap[j] + s, and runs
and gaps do not change under a shift, so every length's reports repeat with
period s*rows over the starts: a sweep scores one period, and its result
holds that period alone. Runs of consecutive errors longer than
RS_MAX_CORRECTABLE_RUN are treated as uncorrectable.

The report is written here too: summary_lines for stdout, csv_chunks and
json_chunks for the files, at most BLOCK_ROWS reports at a time. COLUMNS
names the per-start fields once, in order, for the CSV header, its rows
and the JSON keys. A row after its start column depends only on b,
max_run and min_spacing: each length formats the tails of its column once,
each distinct (max_run, min_spacing) pair once, and joins them, cycled over
every start, to start strings made once per report.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, cycle, islice, repeat
from operator import sub
from typing import NamedTuple

from .config import InterleaverConfig
from .errors import RangeError
# deinterleave_index is not called here: the benchmark's tracer patches
# burst.deinterleave_index by name and counts its calls
from .reference import Direction, build_table, deinterleave_index  # noqa: F401

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
# one report as a CSV row and as an element of a JSON "reports" array laid
# out as json.dumps(indent=2) lays it out, with a %s slot per column
_CSV_ROW = ",".join(["%s"] * len(COLUMNS)) + "\n"
_JSON_REPORT = "        {\n%s\n        }" % ",\n".join(
    f'          "{key}": %s' for key in COLUMNS
)
_JSON_BOOL = ("false", "true")
_JSON_SWEEP = '    {\n      "b": %d,\n      "worst_max_run_length": %d,\n      "reports": [\n'
# Most reports formatted at once: the writers hold one block's starts,
# tails and text, not a whole burst length's. A block of JSON reports is
# under 1 MB of text; on up to 4096 bits every burst length is one block.
BLOCK_ROWS = 4096

# Most reports one burst_sweep call may make: a bound on the time and memory
# one command can ask for. It admits a sweep of burst lengths 1..116 on the
# largest block in use (2304 bits), and of every length on up to 723 bits.
MAX_SWEEP_REPORTS = 1 << 18
# Most window positions one burst_sweep call may ask for, counted as if
# every start were scored: b positions for each start's first window, then
# one more per longer length, reports + (b - 1)(n_cbps - b + 1) in all. From
# length 1 that is the report count; it bounds one long burst length, which
# makes few reports. It admits --b 8 on a MAX_NCBPS block (524,232
# positions). A call scores only one column period of them, but the bound
# is on the request, so that which commands are admitted does not depend
# on how a sweep is computed.
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


class SweepResult(NamedTuple):
    """Every report of one burst_sweep call as columns: per swept length b,
    max_run_length and min_pairwise_spacing by start over one column period,
    the first min(s*rows, n_cbps - b + 1) starts, and the worst run. The
    report of any start is the column cycled: start j reads entry
    j % len(column) (see burst_sweep)."""

    cfg: InterleaverConfig
    lengths: range
    runs: tuple[tuple[int, ...], ...]
    gaps: tuple[tuple[int, ...], ...]
    worst_runs: tuple[int, ...]

    @property
    def reports(self) -> tuple[tuple[int, int, int, int, bool], ...]:
        """Every report as a COLUMNS-ordered tuple, in CSV row order (by
        burst length, then start), each column cycled over all n_cbps - b + 1
        starts. Only the benchmark's tracer counts them; this goes once it
        counts sum(n_cbps - b + 1) over the lengths (ROADMAP item 5)."""
        n = self.cfg.n_cbps
        return tuple(chain.from_iterable(
            zip(range(n - b + 1), repeat(b), cycle(runs), cycle(gaps),
                map(RS_MAX_CORRECTABLE_RUN.__ge__, cycle(runs)))
            for b, runs, gaps in zip(self.lengths, self.runs, self.gaps)
        ))


def burst_sweep(cfg: InterleaverConfig, b: int, last: int | None = None) -> SweepResult:
    """One report per admissible start position (exhaustive), for every burst
    length b..last (last defaults to b).

    Bursts never wrap around the block boundary: a burst belongs to one
    transmitted symbol, so the starts for length b are 0 .. n_cbps - b.

    First failing length: a burst holds original-adjacent bits k, k + 1 (a
    run of 2) exactly when it is longer than |pi(k + 1) - pi(k)| for the
    interleave map pi(k) = s*(m // s) + (m - c) % s, with c = k % d,
    m = rows*c + k // d and s | rows; so b* = 1 + min_k |pi(k + 1) - pi(k)|.
    In one row (c < d - 1) m gains rows. For s = 1 that is the distance and
    a row wrap is rows*(d - 1) - 1, so b* = rows + 1: every burst no longer
    than rows = n_cbps/d lands on isolated bits. For s = 2, 3 the offset in
    the s-group also turns back by one, so k, k + 1 are rows - 1 apart, or
    rows + s - 1 where it wraps, and a row wrap is farther: b* = rows.

    Burst limit: a burst holds the original bits k .. k + R exactly when it
    is longer than hi - lo, the distance between their farthest channel
    positions. So the longest burst that leaves no run longer than R is
    b_max(R) = min_k (hi - lo) = R*rows - (R mod s) for 1 <= R <= d - 2.
    In row a, since s | rows, bit c + i lands on
    rows*(c + i) + s*(a // s) + (a - c - i) % s: the offset e in the s-group
    turns back by one per bit, so a run in one row spans
    R*rows + (e - R) % s - e, least, R*rows - (R mod s), for e >= R mod s.
    A run across a row wrap holds column d - 1 of row a and column 0 of
    row a + 1, at least rows*(d - 1) - s apart, which is no less while
    R <= d - 2. R = 1 gives b* - 1 above; R = RS_MAX_CORRECTABLE_RUN = 8
    gives 8*rows, or 8*rows - 2 for s = 3.

    One call sweeps every length. window_stats scores each start's first
    length b from its sorted window; each longer length L follows from
    L - 1 in O(1) per start, since every pair and every run of consecutive
    original bits in the window [s, s + L - 1] avoids its last position,
    avoids its first, or spans both. So min_spacing(s, L) is the least of
    ms(s, L - 1), ms(s + 1, L - 1) and |dmap[s] - dmap[s + L - 1]|, and
    max_run(s, L) the greatest of mr(s, L - 1), mr(s + 1, L - 1) and
    spans[L][s], the longest run spanning exactly that window.

    Column period: dmap[j + P] == dmap[j] + s for P = s*rows and j < n - P,
    since position j = rows*c + p of column c holds bit d*r + c with
    r = s*(p // s) + (p + c) % s, which c + s leaves unchanged. Window
    stats do not change under a shift, so for every length L, runs[L] and
    gaps[L] repeat with period P. A call therefore scores the first
    min(n - b + 1, P + last - b) starts of length b (none for b = 1, whose
    run is 1 and gap 0); each longer length L keeps one start fewer, at
    least min(n - L + 1, P), and the result holds its first
    min(P, n - L + 1) entries: the report of start j is entry j % P. Spans
    are gathered only for the windows those starts cover.
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
    dmap = build_table(cfg, Direction.DEINTERLEAVE).map
    period = cfg.s * cfg.rows
    # length L needs its first min(n - L + 1, period) starts, and keeps one
    # start fewer than L - 1; every scored window ends below end
    scored = min(n - b + 1, period + last - b)
    end = scored + b - 1
    firsts = (
        [window_stats(sorted(dmap[start:start + b])) for start in range(scored)]
        if b > 1 else [(1, 0)] * scored  # a lone position: run 1, gap 0
    )
    runs, gaps = [run for run, _ in firsts], [gap for _, gap in firsts]
    all_runs, all_gaps = [runs], [gaps]
    if b == 1:
        gaps = [n] * scored  # no pair yet: the first pair sets the gap
    # spans[L][s] for b < L <= last and s + L <= end: each run of original
    # bits v, v + 1, ... grows one bit at a time until its channel positions
    # span over last or reach end
    pos = build_table(cfg, Direction.INTERLEAVE).map  # the inverse of dmap
    spans: list[dict[int, int]] = [{} for _ in range(last + 1)]
    for v in dmap[:end] if last > b else ():
        lo = hi = pos[v]
        for w, p in enumerate(pos[v + 1:v + last], 2):
            lo = p if p < lo else lo
            hi = p if p > hi else hi
            if hi - lo >= last or hi >= end:
                break
            if hi - lo >= b and spans[hi - lo + 1].get(lo, 0) < w:
                spans[hi - lo + 1][lo] = w
    for length in range(b + 1, last + 1):
        runs = [x if x > y else y for x, y in zip(runs, runs[1:])]
        for start, run in spans[length].items():
            runs[start] = max(runs[start], run)
        gaps = [x if x < y else y for x, y in zip(gaps, gaps[1:])]
        pairs = map(abs, map(sub, dmap, dmap[length - 1:end]))  # |dmap[s] - dmap[s + L - 1]|
        gaps = [x if x < y else y for x, y in zip(gaps, pairs)]
        all_runs.append(runs)
        all_gaps.append(gaps)
    runs, gaps = (tuple(tuple(c[:period]) for c in columns) for columns in (all_runs, all_gaps))
    return SweepResult(cfg, range(b, last + 1), runs, gaps, tuple(map(max, all_runs)))


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


def _first_starts(cfg: InterleaverConfig) -> list[str]:
    """The start column of a report's first block, shared by every length."""
    return list(map(str, range(min(cfg.n_cbps, BLOCK_ROWS))))


def _rows(
    result: SweepResult, i: int, template: str, separator: str, flag: tuple, starts: list[str]
) -> Iterator[str]:
    """The reports of result's i-th swept length in blocks of at most
    BLOCK_ROWS, each one join of separator + head, start and tail per row.
    The template splits at its start slot into the head and the tail;
    rs_correctable follows from max_run, so a tail depends on (max_run,
    min_spacing) alone: b baked in, then max_run, min_spacing,
    flag[correctable]. The tails of the column's rows are formatted once,
    each distinct pair once, and every block cycles them from its own
    offset lo mod len(column), over all n_cbps - b + 1 starts. starts holds
    the start strings of the first block; later blocks format theirs. Every
    row but the length's first begins with the separator, so that the
    blocks join to the length's rows."""
    b, runs, gaps = result.lengths[i], result.runs[i], result.gaps[i]
    count = result.cfg.n_cbps - b + 1
    head, tail = template.split("%s", 1)
    tail = tail % (b, "%d", "%d", "%s")
    pairs = list(zip(runs, gaps))
    tail_of = {pair: tail % (*pair, flag[pair[0] <= RS_MAX_CORRECTABLE_RUN]) for pair in set(pairs)}
    tails = list(map(tail_of.__getitem__, pairs))
    for lo in range(0, count, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, count)
        pieces = [separator + head, "", ""] * (hi - lo)
        pieces[1::3] = starts[:hi] if lo == 0 else map(str, range(lo, hi))
        pieces[2::3] = islice(cycle(tails), lo % len(tails), hi - lo + lo % len(tails))
        if lo == 0:
            pieces[0] = head
        yield "".join(pieces)


def csv_chunks(result: SweepResult) -> Iterator[str]:
    """The CSV report: its header, then the rows of each burst length in
    blocks of at most BLOCK_ROWS, so that a writer holds one block at a
    time."""
    cfg = result.cfg
    yield (
        f"{FORMAT_LINE}\n# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}\n"
        f"# columns: {','.join(COLUMNS)}\n# note: {RS_CRITERION_NOTE}\n"
    )
    starts = _first_starts(cfg)
    for i in range(len(result.lengths)):
        yield from _rows(result, i, _CSV_ROW, "", (0, 1), starts)


def json_chunks(result: SweepResult) -> Iterator[str]:
    """The report as json.dumps(payload, indent=2) + "\\n" would write it,
    with payload = {"config", "rs_criterion_note", "sweeps": [{"b",
    "worst_max_run_length", "reports": [one COLUMNS object per report]}]},
    at most BLOCK_ROWS reports at a time. Only the header goes through
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
    starts = _first_starts(result.cfg)
    for i, (b, worst) in enumerate(zip(result.lengths, result.worst_runs)):
        yield separator + _JSON_SWEEP % (b, worst)
        # apart from the sweep's frame, so that no block is copied
        yield from _rows(result, i, _JSON_REPORT, ",\n", _JSON_BOOL, starts)
        yield "\n      ]\n    }"
        separator = ",\n"
    yield "\n  ]\n}\n"
