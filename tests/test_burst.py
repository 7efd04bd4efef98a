import hashlib
import json
import textwrap
import tracemalloc
from functools import cache
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wimax_il import burst
from wimax_il.burst import (
    COLUMNS,
    FORMAT_LINE,
    RS_CRITERION_NOTE,
    RS_MAX_CORRECTABLE_RUN,
    burst_sweep,
    window_stats,
)
from wimax_il.cli import main
from wimax_il.config import InterleaverConfig, preset
from wimax_il.errors import RangeError
from wimax_il.reference import Direction, build_table, deinterleave_index, interleave_index

from conftest import all_valid_configs

CFG32 = InterleaverConfig(32, 16, 1)
CFG192 = InterleaverConfig(192, 16, 1)


@cache
def brute_force_rows(cfg, b):
    """Rows of a b-burst sweep, computed the long way: map each burst
    position back one at a time, then measure runs and gaps naively."""
    rows = []
    for start in range(cfg.n_cbps - b + 1):
        hit = sorted({deinterleave_index(cfg, j) for j in range(start, start + b)})
        longest = 0
        for i in range(len(hit)):
            length = 1
            while i + length < len(hit) and hit[i + length] == hit[i] + length:
                length += 1
            longest = max(longest, length)
        spacing = min((y - x for x, y in zip(hit, hit[1:])), default=0)
        rows.append((start, b, longest, spacing, int(longest <= RS_MAX_CORRECTABLE_RUN)))
    return rows


SWEEP_CASES = pytest.mark.parametrize(
    "cfg,max_b",
    [
        (CFG32, CFG32.n_cbps),
        (InterleaverConfig(144, 12, 1), 144),
        (preset("qpsk"), 16),
        (preset("qam16"), 16),
        (preset("qam64"), 16),
        (InterleaverConfig(768, 16, 2), 16),
    ],
    ids=["32_16_1", "144_12_1", "qpsk", "qam16", "qam64", "768_16_2"],
)


@SWEEP_CASES
def test_sweep_rows_equal_brute_force(cfg, max_b):
    for b in range(1, max_b + 1):
        rows = list(burst_sweep(cfg, b).reports)
        assert rows == brute_force_rows(cfg, b), (cfg, b)


def assert_one_call_matches_brute_force(cfg, first, last):
    result = burst_sweep(cfg, first, last)
    assert result.lengths == range(first, last + 1)
    want = [brute_force_rows(cfg, b) for b in result.lengths]
    assert list(result.reports) == [row for rows in want for row in rows]
    columns = zip(result.lengths, result.runs, result.gaps, result.worst_runs, strict=True)
    for (b, runs, gaps, worst), rows in zip(columns, want, strict=True):
        scored = min(cfg.s * cfg.rows, cfg.n_cbps - b + 1)  # one column period
        assert len(runs) == len(gaps) == scored, (cfg, b)
        assert [(row[2], row[3]) for row in rows[:scored]] == list(zip(runs, gaps)), (cfg, b)
        assert worst == max(row[2] for row in rows), (cfg, b)


@SWEEP_CASES
def test_one_call_sweeps_every_length(cfg, max_b):
    """One call over 1..max_b gives, per length, the reports of the long way."""
    assert_one_call_matches_brute_force(cfg, 1, max_b)


@pytest.mark.parametrize("first,last", [(5, 9), (3, 3)])
@pytest.mark.parametrize(
    "triple", [(32, 16, 1), (144, 12, 1), (384, 16, 2), (576, 16, 3)]
)
def test_one_call_sweeps_a_range_above_1(triple, first, last):
    assert_one_call_matches_brute_force(InterleaverConfig(*triple), first, last)


@pytest.mark.parametrize(
    "triple,first,last",
    [
        ((288, 12, 2), 1, 64),
        ((432, 12, 3), 1, 48),
        ((576, 16, 3), 30, 40),  # crosses rows = 36, where runs first appear
    ],
)
def test_one_call_matches_brute_force_on_s2_s3_blocks(triple, first, last):
    assert_one_call_matches_brute_force(InterleaverConfig(*triple), first, last)


@pytest.mark.parametrize(
    "triple,first,last",
    [
        ((144, 12, 1), 20, 26),  # first > s*rows = 12
        ((384, 16, 2), 50, 55),  # first > s*rows = 48
        ((144, 12, 1), 138, 144),  # n - L + 1 < s*rows up to L = n
        ((192, 16, 2), 180, 192),
        ((96, 16, 1), 2, 20),  # last - first > s*rows = 6
        ((192, 16, 3), 2, 45),  # last - first > s*rows = 36
        ((192, 16, 1), 5, 20),  # s = 1: the period is rows
        ((768, 16, 3), 1, 10),  # a block of the sweep benchmark
    ],
    ids=["first_past_period", "first_past_period_s2", "near_n", "near_n_s2",
         "span_past_period", "span_past_period_s3", "s1", "768_16_3"],
)
def test_one_call_matches_brute_force_where_tiling_could_slip(triple, first, last):
    """A sweep scores one column period of starts, and every start's report
    cycles it: past the period, where a length has fewer starts than the
    period, and where the lengths span more than it."""
    assert_one_call_matches_brute_force(InterleaverConfig(*triple), first, last)


@st.composite
def small_sweeps(draw):
    cfg = draw(st.sampled_from(all_valid_configs(192)))
    last = draw(st.integers(1, cfg.n_cbps))
    return cfg, draw(st.integers(1, last)), last


@settings(deadline=None, max_examples=25)  # the brute force is slow, not the sweep
@given(sweep=small_sweeps())
# lengths on both sides of n - L + 1 = s*rows, where a step stops reading
# start s*rows as start 0 and cuts the column instead
@example(sweep=(InterleaverConfig(96, 16, 1), 1, 96))  # the seam at L = 91
@example(sweep=(InterleaverConfig(192, 16, 3), 150, 165))  # the seam at L = 157
@example(sweep=(InterleaverConfig(144, 12, 2), 118, 124))  # the seam at L = 121
def test_one_call_matches_brute_force_on_any_small_block(sweep):
    assert_one_call_matches_brute_force(*sweep)


@pytest.mark.parametrize(
    "triple,first,last", [((32, 16, 1), 1, 32), ((32, 16, 1), 5, 9), ((576, 16, 3), 1, 40)]
)
def test_sweep_scores_each_start_once_and_maps_each_position_once(triple, first, last, monkeypatch):
    """Only the first length is scored from its window, whatever the last,
    and only at the starts its result keeps, min(n_cbps - first + 1,
    s*rows), none when it is 1; every longer length follows from the one
    before. The map comes from build_table, which calls no index function."""
    calls = {"window_stats": 0, "deinterleave_index": 0}

    def counted(name):
        fn = getattr(burst, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    for name in calls:
        monkeypatch.setattr(burst, name, counted(name))
    cfg = InterleaverConfig(*triple)
    result = burst_sweep(cfg, first, last)
    assert result.lengths == range(first, last + 1)
    scored = 0 if first == 1 else min(cfg.n_cbps - first + 1, cfg.s * cfg.rows)
    assert calls == {"window_stats": scored, "deinterleave_index": 0}


@pytest.mark.parametrize("first,last", [(8, 8), (1, 1), (8, 9)])
def test_only_a_sweep_of_several_lengths_builds_the_interleave_table(first, last, monkeypatch):
    """The interleave table serves only the spans of lengths past the first,
    so a single-length sweep such as burst --b 8 builds the deinterleave
    table alone."""
    built = []

    def recorded(cfg, direction):
        built.append(Direction(direction))
        return build_table(cfg, direction)

    monkeypatch.setattr(burst, "build_table", recorded)
    burst_sweep(preset("qpsk"), first, last)
    assert built == [Direction.DEINTERLEAVE] + [Direction.INTERLEAVE] * (last > first)


@pytest.mark.parametrize("cfg", all_valid_configs(1152), ids=lambda cfg: cfg.as_text())
def test_first_failing_length_law(cfg):
    """The first burst length that leaves two original-adjacent bits side by
    side is b* = 1 + min_k |pi(k + 1) - pi(k)|: rows + 1 for s = 1, rows for
    s = 2 and 3 (the proof sketch is in burst_sweep's docstring)."""
    pi = [interleave_index(cfg, k) for k in range(cfg.n_cbps)]
    first_failing = 1 + min(abs(q - p) for p, q in zip(pi, pi[1:]))
    assert first_failing == (cfg.rows + 1 if cfg.s == 1 else cfg.rows)
    worst = burst_sweep(cfg, first_failing - 1, first_failing).worst_runs
    assert worst[0] == 1
    assert worst[1] >= 2


@pytest.mark.parametrize("cfg", all_valid_configs(1152), ids=lambda cfg: cfg.as_text())
def test_burst_limit_law(cfg):
    """For 1 <= R <= d - 2 the longest burst that leaves no run longer than R
    is b_max(R) = R*rows - (R mod s): one less than the shortest burst that
    holds R + 1 consecutive original bits (the proof sketch is in
    burst_sweep's docstring)."""
    pi = [interleave_index(cfg, k) for k in range(cfg.n_cbps)]
    last = cfg.d - 2
    shortest = [cfg.n_cbps + 1] * (last + 1)  # by R, over every run k .. k + R
    for k in range(cfg.n_cbps - 1):
        lo = hi = pi[k]
        for r, p in enumerate(pi[k + 1:k + last + 1], 1):
            lo, hi = min(lo, p), max(hi, p)
            shortest[r] = min(shortest[r], hi - lo + 1)
    for r in range(1, last + 1):
        assert shortest[r] - 1 == r * cfg.rows - r % cfg.s, r


@pytest.mark.parametrize("cfg", all_valid_configs(384), ids=lambda cfg: cfg.as_text())
def test_burst_limit_one_below_d(cfg):
    """At R = d - 1, past the proof, b_max(R) is pinned as measured: one less
    than R*rows - (R mod s), except on three blocks where the law holds;
    (48,16,3) has rows = s too, yet the law overstates it. Worst runs grow
    with the burst, so the two lengths fix b_max."""
    r = cfg.d - 1
    b_max = r * cfg.rows - r % cfg.s - (tuple(cfg) not in {(24, 12, 2), (36, 12, 3), (32, 16, 2)})
    worst = burst_sweep(cfg, b_max, b_max + 1).worst_runs
    assert worst[0] <= r < worst[1]


@pytest.mark.parametrize("name,b_max", [("qpsk", 96), ("qam16", 192), ("qam64", 286)])
def test_burst_limit_at_the_rs_run_limit(name, b_max):
    """At R = 8 the worst run is 8 at b_max(8) and 9 one bit longer."""
    cfg = preset(name)
    assert b_max == 8 * cfg.rows - 8 % cfg.s
    assert burst_sweep(cfg, b_max, b_max + 1).worst_runs == (8, 9)


def test_deinterleave_errors_worked_values():
    # (32,16,1): channel errors at 0, 1, 2 land on original bits 0, 16, 1
    sweep = burst_sweep(CFG32, 2)
    assert (sweep.runs[0][0], sweep.gaps[0][0]) == (1, 16)
    assert burst_sweep(CFG32, 3).runs[0][0] == 2


def test_cardinality_is_preserved():
    # distinct channel bits land on distinct original bits: every gap >= 1
    for b in (2, 5, 17, 32):
        assert min(burst_sweep(CFG32, b).gaps[0]) >= 1


@pytest.mark.parametrize(
    "positions,expected",
    [([0, 16], 1), ([0, 1, 16], 2), ([0, 2, 4, 5], 2), ([5], 1), ([3, 4, 5, 9, 10], 3)],
)
def test_max_run_length(positions, expected):
    assert window_stats(positions)[0] == expected


def test_min_pairwise_spacing():
    assert window_stats([0, 16, 19])[1] == 3
    assert window_stats([7])[1] == 0


def test_sweep_dispersal_guarantee_s1():
    """s=1: any burst no longer than the row count scatters completely."""
    for cfg in [CFG32, CFG192, InterleaverConfig(384, 16, 1), InterleaverConfig(144, 12, 1)]:
        for b in range(1, cfg.rows + 1):
            sweep = burst_sweep(cfg, b)
            assert max(sweep.worst_runs) == 1, (cfg, b)
            assert len(sweep.reports) == cfg.n_cbps - b + 1


def test_sweep_32_burst3_breaks_guarantee():
    # one past the row count: pairs separated by exactly n/d now fit inside
    sweep = burst_sweep(CFG32, 3)
    assert max(sweep.worst_runs) == 2


@pytest.mark.parametrize(
    "cfg,first,last,guarantee",
    [
        (preset("qam16"), 1, 3, None),  # s = 2: no guarantee to state
        (CFG32, 3, 4, None),  # s = 1, but every length is past rows = 2
        (CFG32, 1, 3, "s=1 dispersal guarantee (b <= 2 scatters every burst to isolated bits): holds"),
    ],
)
def test_the_summary_states_the_s1_guarantee_only_where_it_applies(cfg, first, last, guarantee):
    lines = burst.summary_lines(burst_sweep(cfg, first, last))
    assert lines[last - first + 1:] == ([guarantee] if guarantee else [])
    assert all(line.startswith(f"b={b}: ") for b, line in zip(range(first, last + 1), lines))


@pytest.mark.parametrize(
    "cfg_triple,b,worst",
    [
        # measured by this implementation's exhaustive sweep at first
        # release; locked as regression values
        ((384, 16, 2), 2, 1),
        ((384, 16, 2), 8, 1),
        ((384, 16, 2), 24, 2),
        ((384, 16, 2), 25, 2),
        ((384, 16, 2), 48, 2),
        ((576, 16, 3), 3, 1),
        ((576, 16, 3), 8, 1),
        ((576, 16, 3), 36, 2),
        ((576, 16, 3), 37, 2),
        ((576, 16, 3), 72, 3),
    ],
)
def test_sweep_regression_values_s2_s3(cfg_triple, b, worst):
    cfg = InterleaverConfig(*cfg_triple)
    assert max(burst_sweep(cfg, b).worst_runs) == worst


def test_sweep_rejects_bad_lengths():
    with pytest.raises(RangeError):
        burst_sweep(CFG32, 0)
    with pytest.raises(RangeError):
        burst_sweep(CFG32, 33)
    with pytest.raises(RangeError):
        burst_sweep(CFG32, 1, 33)
    with pytest.raises(RangeError):
        burst_sweep(CFG32, 5, 4)


def test_sweep_report_cap_counts_every_length(monkeypatch):
    """The cap is on the reports of the whole call, checked before any work."""
    monkeypatch.setattr(burst, "MAX_SWEEP_REPORTS", 32 + 31 + 30)
    assert len(burst_sweep(CFG32, 1, 3).reports) == 32 + 31 + 30
    assert len(burst_sweep(CFG32, 2, 4).reports) == 31 + 30 + 29

    def no_work(*args):
        raise AssertionError("the sweep started before the cap was checked")

    monkeypatch.setattr(burst, "build_table", no_work)
    with pytest.raises(RangeError, match="make 122 reports, more than the limit of 93"):
        burst_sweep(CFG32, 1, 4)


def test_sweep_position_cap_admits_its_limit(monkeypatch):
    """Lengths 2..3 on 32 bits score 31 + 30 reports plus one more position
    for each of length 2's 31 starts, 92 in all: a cap of 92 admits them, and
    2..4 (121) is refused before any work."""
    monkeypatch.setattr(burst, "MAX_SWEEP_POSITIONS", 92)
    assert burst_sweep(CFG32, 2, 3).lengths == range(2, 4)
    monkeypatch.setattr(burst, "build_table", None)
    with pytest.raises(RangeError, match="score 121 window positions, more than the limit of 92"):
        burst_sweep(CFG32, 2, 4)


def test_column_period_law():
    """Column c + s of the channel block is column c shifted by s original
    positions: dmap[j + s*rows] == dmap[j] + s for every j < n_cbps - s*rows."""
    for cfg in all_valid_configs(2304):
        dmap = build_table(cfg, Direction.DEINTERLEAVE).map
        assert set(map(sub, dmap[cfg.s * cfg.rows:], dmap)) == {cfg.s}, cfg


# every config and depth the benchmark's sweep workload can draw
SWEEP_WORKLOAD = [
    (preset("qpsk"), 14), (preset("qam16"), 10), (preset("qam64"), 10),
    *((InterleaverConfig(768, d, s), 10) for d, s in [(12, 1), (12, 2), (16, 1), (16, 2), (16, 3)]),
]


@pytest.mark.parametrize(
    "cfg,last", SWEEP_WORKLOAD, ids=[f"{cfg.as_text()}-{last}" for cfg, last in SWEEP_WORKLOAD]
)
def test_sweep_repeats_with_the_column_period(cfg, last):
    """Window stats are translation-invariant, so by the column period law
    every length's window stats repeat with period s*rows over the starts:
    what lets a sweep hold one period of them."""
    dmap = build_table(cfg, Direction.DEINTERLEAVE).map
    period = cfg.s * cfg.rows
    for length in range(1, last + 1):
        stats = [window_stats(sorted(dmap[st:st + length])) for st in range(cfg.n_cbps - length + 1)]
        assert stats[period:] == stats[:len(stats) - period], length


@pytest.mark.parametrize(
    "triple,first,last,held",
    [((2304, 16, 3), 1, 116, 432), ((65536, 16, 1), 128, 128, 4096)],
    ids=["largest_admitted_sweep", "max_ncbps"],
)
def test_a_sweep_holds_one_column_period_per_length(triple, first, last, held):
    """Each column holds one period, s*rows entries, not one per start
    (2304 - L + 1 and 65,409), so a sweep's result does not grow with the
    block."""
    result = burst_sweep(InterleaverConfig(*triple), first, last)
    assert {len(column) for column in (*result.runs, *result.gaps)} == {held}


def test_rs_correctable_thresholds():
    assert RS_MAX_CORRECTABLE_RUN == 8
    # runs fed straight in, without a deinterleaver in between
    assert window_stats(list(range(8)))[0] <= RS_MAX_CORRECTABLE_RUN
    assert window_stats(list(range(9)))[0] > RS_MAX_CORRECTABLE_RUN


def test_reports_carry_rs_flag():
    sweep = burst_sweep(CFG192, 12)
    assert all(r[4] for r in sweep.reports)
    assert set(sweep.runs[0]) == {1}
    # scattered errors sit about one column stride apart
    assert min(sweep.gaps[0]) >= CFG192.d - 1


def assert_same_text(got, want):
    """got == want for two texts or byte strings. A mismatch reports both
    lengths and the first differing offset with 80 characters of context,
    where a bare == would have pytest diff whole multi-MB reports."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 40, 0)
    raise AssertionError(
        f"lengths {len(got)} and {len(want)}, first difference at offset {at}: "
        f"{got[lo:at + 40]!r} != {want[lo:at + 40]!r}"
    )


@pytest.mark.parametrize(
    "cfg,max_b",
    [
        (CFG32, 32),
        (preset("qpsk"), 10),
        (preset("qam16"), 10),
        (preset("qam64"), 10),
        (InterleaverConfig(768, 12, 2), 10),
        (InterleaverConfig(9216, 12, 1), 2),  # lengths of several blocks
    ],
    ids=["32_16_1", "qpsk", "qam16", "qam64", "768_12_2", "9216_12_1"],
)
def test_render_json_is_json_dumps_of_the_payload(cfg, max_b, tmp_path):
    """The templates write the bytes json.dumps(indent=2) writes for the
    report payload, built here from one single-length sweep per b; the CLI,
    which writes both reports one burst length at a time, writes those
    bytes and the CSV rows of the same reports."""
    sweeps = []
    for b in range(1, max_b + 1):
        reports = burst_sweep(cfg, b).reports
        sweeps.append({
            "b": b,
            "worst_max_run_length": max(r[2] for r in reports),
            "reports": [dict(zip(COLUMNS, r)) for r in reports],
        })
    payload = {
        "config": cfg.as_dict(),
        "rs_criterion_note": RS_CRITERION_NOTE,
        "sweeps": sweeps,
    }
    text = "".join(burst.json_chunks(burst_sweep(cfg, 1, max_b)))
    assert_same_text(text, json.dumps(payload, indent=2) + "\n")

    csv_path, json_path = tmp_path / "burst.csv", tmp_path / "burst.json"
    triple = ["--ncbps", str(cfg.n_cbps), "--d", str(cfg.d), "--s", str(cfg.s)]
    argv = ["burst", *triple, "--sweep-max", str(max_b),
            "--out", str(csv_path), "--json-out", str(json_path)]
    assert main(argv) == 0
    assert_same_text(json_path.read_bytes(), text.encode())
    header = [
        FORMAT_LINE,
        f"# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}",
        f"# columns: {','.join(COLUMNS)}",
        f"# note: {RS_CRITERION_NOTE}",
    ]
    rows = [",".join(str(int(v)) for v in r.values()) for s in sweeps for r in s["reports"]]
    assert_same_text(csv_path.read_bytes(), "".join(f"{line}\n" for line in [*header, *rows]).encode())
    if cfg == CFG32:  # b=1's spacing of 0, and uncorrectable rows, are covered
        flat = [r for sweep in sweeps for r in sweep["reports"]]
        assert any(r["min_spacing"] == 0 for r in flat)
        assert any(not r["rs_correctable"] for r in flat)


def test_report_writers_hold_one_block_of_rows_at_a_time():
    """A burst length with more starts than BLOCK_ROWS is written in blocks
    of at most BLOCK_ROWS reports, none longer than that many of the longest
    row (the bytes are pinned by the json.dumps test above); a length that
    fits in one block is one chunk."""
    result = burst_sweep(InterleaverConfig(9216, 12, 1), 3)  # 9214 starts
    reports = [dict(zip(COLUMNS, r)) for r in result.reports]
    chunks = list(burst.json_chunks(result))
    assert sum('"start"' in chunk for chunk in chunks) == 3
    longest = max(len(textwrap.indent(json.dumps(r, indent=2), " " * 8)) for r in reports)
    assert max(map(len, chunks)) <= burst.BLOCK_ROWS * (longest + len(",\n"))

    header, *blocks = burst.csv_chunks(result)
    assert len(blocks) == 3
    longest = max(len(",".join(str(int(v)) for v in r.values()) + "\n") for r in reports)
    assert max(map(len, blocks)) <= burst.BLOCK_ROWS * longest

    sweep = burst_sweep(InterleaverConfig(768, 16, 2), 1, 3)
    assert len(list(burst.csv_chunks(sweep))) == 1 + 3


def naive_csv(result):
    cfg = result.cfg
    text = (
        f"{FORMAT_LINE}\n# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}\n"
        f"# columns: {','.join(COLUMNS)}\n# note: {RS_CRITERION_NOTE}\n"
    )
    return text + "".join(
        f"{start},{b},{run},{gap},{int(ok)}\n" for start, b, run, gap, ok in result.reports
    )


def naive_json(result):
    # result.reports: every report, pinned to the brute force by
    # assert_one_call_matches_brute_force
    reports = result.reports
    payload = {
        "config": result.cfg.as_dict(),
        "rs_criterion_note": RS_CRITERION_NOTE,
        "sweeps": [
            {
                "b": b,
                "worst_max_run_length": worst,
                "reports": [dict(zip(COLUMNS, r)) for r in reports if r[1] == b],
            }
            for b, worst in zip(result.lengths, result.worst_runs)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(deadline=None, max_examples=60)
@given(
    cfg=st.sampled_from(all_valid_configs(384)),
    last=st.integers(1, 384),
    span=st.integers(0, 15),
    block_rows=st.integers(1, 9),
)
@example(cfg=CFG32, last=32, span=15, block_rows=7)  # runs up to 32 > 8
@example(cfg=CFG32, last=29, span=3, block_rows=4)  # 4 starts: a length ends at a block end
@example(cfg=CFG32, last=32, span=0, block_rows=1)  # one start
@example(cfg=CFG32, last=32, span=5, block_rows=9)  # first length 27: 6 of 9 first-block rows
def test_writers_match_a_naive_renderer(cfg, last, span, block_rows):
    """Both writers write what a row-at-a-time renderer writes, with blocks
    small enough that lengths span several, so that block seams, the later
    blocks' own start strings and (max_run, min_spacing) pairs that recur
    across blocks are all written."""
    last = min(last, cfg.n_cbps)
    first = max(1, last - span)
    result = burst_sweep(cfg, first, last)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burst, "BLOCK_ROWS", block_rows)
        csv_header, *csv_blocks = burst.csv_chunks(result)
        json_parts = list(burst.json_chunks(result))
    assert csv_header + "".join(csv_blocks) == naive_csv(result)
    assert "".join(json_parts) == naive_json(result)
    assert max(block.count("\n") for block in csv_blocks) <= block_rows
    assert max(part.count('"start"') for part in json_parts) <= block_rows


def test_writers_match_a_naive_renderer_across_real_block_seams():
    """On (9216,16,3) the column period, 1728 rows, does not divide
    BLOCK_ROWS, so every later block of a length starts its tails part way
    into the period."""
    result = burst_sweep(InterleaverConfig(9216, 16, 3), 1, 3)
    assert burst.BLOCK_ROWS % (3 * 9216 // 16) != 0
    assert_same_text("".join(burst.csv_chunks(result)), naive_csv(result))
    assert_same_text("".join(burst.json_chunks(result)), naive_json(result))


def test_report_writers_peak_under_3_mb():
    """Writing a 65,409-report length holds one block's tails, start
    strings and text at a time, not the length's: each writer peaks at no
    more than 3.0 MB of Python allocations (the JSON writer's peak when it
    formatted every value of a block)."""
    result = burst_sweep(InterleaverConfig(65536, 16, 1), 128)
    for writer in (burst.csv_chunks, burst.json_chunks):
        tracemalloc.start()
        try:
            for _ in writer(result):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000, (writer.__name__, peak)


def json_peak_and_longest(result, cold_starts=False):
    """The JSON writer's tracemalloc peak on result after a warm pass, and
    its longest chunk. cold_starts clears the cached first-block start
    strings after the warm pass, so that the traced pass makes them."""
    for _ in burst.json_chunks(result):
        pass
    if cold_starts:
        burst._first_starts.cache_clear()
    tracemalloc.start()
    try:
        longest = max(map(len, burst.json_chunks(result)))
        return tracemalloc.get_traced_memory()[1], longest
    finally:
        tracemalloc.stop()


def test_a_length_of_many_blocks_holds_one_block_at_a_time():
    """The JSON writer's peak on a 16-block length is within 0.3 of a
    block's text of its peak on a one-block length, where each traced pass
    makes one block's start strings: the one-block length makes its first
    block's, the cache cleared, and each later block of the 16-block length
    makes its own, its first block reading the cache. Holding a block's
    start strings through the next block's join adds ≈0.47."""
    many, longest = json_peak_and_longest(burst_sweep(InterleaverConfig(65536, 16, 1), 128))
    one, _ = json_peak_and_longest(burst_sweep(InterleaverConfig(4096, 16, 1), 1), cold_starts=True)
    assert many - one <= 0.3 * longest, (many, one, longest)


def test_a_one_block_length_holds_its_text_and_little_more():
    """With the start strings cached, the JSON writer on a one-block length
    (4096 rows) peaks within 1.25 of its text: it makes no string per row
    beyond the text. A head + start string per row adds ≈0.55 of it."""
    peak, longest = json_peak_and_longest(burst_sweep(InterleaverConfig(4096, 16, 1), 1))
    assert peak <= 1.25 * longest, (peak, longest)


# SHA-256 of the CSV and JSON reports of burst --sweep-max on the blocks of the
# sweep benchmark workload and one of several blocks a length, captured as
# tests/golden/README.md shows
REPORT_DIGESTS = {
    ("--preset", "qpsk", "--sweep-max", "14"): (
        "4d520a9f45818a7467639d6a6a476941bd8d45b17a72468de854fce5f046936f",
        "582172dfa7912c3770e8c46ecafe2749db8f423bcdd16ae57a2949cdc4fba769",
    ),
    ("--preset", "qam16", "--sweep-max", "10"): (
        "424070d340b4cf084edb45a1e945b205f9c1735fdfb1e00d324fc7fc64829bd2",
        "b48b9e883d5f728a8ce1000f9efc2c42ffc3da810a7c3f9827bb15adf94e7271",
    ),
    ("--preset", "qam64", "--sweep-max", "10"): (
        "45a1affa662aa8e9644badc47964bf0e024d382fe5b843a38b14e8cd1c2cc2ac",
        "01ae0dd91af46a2c9d38fe9b98e88e7e292a529727bcaeb8385efb694280e8a7",
    ),
    ("--ncbps", "768", "--d", "12", "--s", "2", "--sweep-max", "10"): (
        "8f0931f4ec82435ec8bd186f29fc6733e83a146030f89a623bbe5a1c9c61799d",
        "bc6698e3698a4943f2a869e8dd648ecf51b2fb6ba3b077ec5009416a9d6bc4b6",
    ),
    ("--ncbps", "768", "--d", "16", "--s", "3", "--sweep-max", "10"): (
        "c7ecafa2e81a4d0b65147ddb494f357c8f3784e3a7a32526dbf06b0a7fe17fc2",
        "dd34d55278f4d4dbefa965609bc4b68731686982db39532f8bb9dde89b845776",
    ),
    ("--ncbps", "9216", "--d", "12", "--s", "1", "--sweep-max", "3"): (  # 3 blocks a length
        "30c143e1ec8f68c005ec7414dae3cac9a0f9665c0357aa8a6ddd0d0f4250e68d",
        "063cdeb8a416c8082f1e3d7841752f5c289b1b84f906f1a8e2f1a1760aa2bb6c",
    ),
}


@pytest.mark.parametrize("args", REPORT_DIGESTS, ids=lambda args: "_".join(args[1:-2:2]))
def test_report_files_match_golden_digests(args, tmp_path, capsys):
    csv_path, json_path = tmp_path / "burst.csv", tmp_path / "burst.json"
    assert main(["burst", *args, "--out", str(csv_path), "--json-out", str(json_path)]) == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in (csv_path, json_path))
    assert digests == REPORT_DIGESTS[args]
