from collections import Counter

import pytest

from wimax_il.config import InterleaverConfig
from wimax_il.generator import OpCensus, run
from wimax_il.reference import Direction, build_table, deinterleave_index

from conftest import ACCEPTANCE_CONFIGS, all_valid_configs, loop_div_mul

CFG32 = InterleaverConfig(32, 16, 1)
CFG384 = InterleaverConfig(384, 16, 2)


def test_first_step_emits_zero():
    for cfg in ACCEPTANCE_CONFIGS:
        assert run(cfg).map[0] == 0


def test_first_four_addresses_32():
    assert list(run(CFG32).map[:4]) == [0, 16, 1, 17]


def test_address_at_j25_384():
    assert run(CFG384).map[25] == 1


def test_run_equals_reference_exhaustive():
    """Elementwise oracle equivalence for every valid config, n <= 2048."""
    for cfg in all_valid_configs():
        assert run(cfg).map == build_table(cfg, Direction.DEINTERLEAVE).map, cfg


def test_run_consumes_exactly_one_block():
    for cfg in ACCEPTANCE_CONFIGS:
        assert len(run(cfg).map) == cfg.n_cbps


def test_every_address_matches_reference_index():
    table = run(CFG384)
    for j in range(CFG384.n_cbps):
        assert table.map[j] == deinterleave_index(CFG384, j)


def test_step_source_has_no_division_or_multiplication():
    """Structural check: the per-address loop of run() contains no *, /,
    //, %, or **. The reset constant -(d*s) is computed before the loop."""
    assert loop_div_mul(run) == []


def test_census_no_division_no_multiplication():
    for cfg in ACCEPTANCE_CONFIGS:
        census = OpCensus()
        run(cfg, census)
        assert census["div"] == 0
        assert census["mul"] == 0
        assert census["generic_floor"] == 0
        assert census["add"] >= 1


def test_census_counts_four_kinds():
    census = OpCensus()
    run(CFG384, census)
    assert isinstance(census, Counter)
    assert sorted(census) == ["add", "compare", "select", "sub"]


@pytest.mark.parametrize(
    "triple,expected",
    [
        ((32, 16, 1), OpCensus(add=160, sub=16, compare=112, select=192)),
        ((192, 16, 1), OpCensus(add=800, sub=16, compare=592, select=832)),
        ((384, 16, 2), OpCensus(add=1584, sub=24, compare=1168, select=1600)),
        ((576, 16, 3), OpCensus(add=2358, sub=27, compare=1744, select=2368)),
        ((768, 16, 2), OpCensus(add=3120, sub=24, compare=2320, select=3136)),
        ((1152, 16, 3), OpCensus(add=4662, sub=27, compare=3472, select=4672)),
        ((144, 12, 1), OpCensus(add=600, sub=12, compare=444, select=624)),
        ((288, 12, 2), OpCensus(add=1188, sub=18, compare=876, select=1200)),
        ((864, 12, 3), OpCensus(add=3496, sub=20, compare=2604, select=3504)),
        ((2304, 16, 3), OpCensus(add=9270, sub=27, compare=6928, select=9280)),
    ],
)
def test_census_is_exact(triple, expected):
    """Whole-block op counts for every acceptance config and for d=12 and
    larger blocks, pinned exactly."""
    census = OpCensus()
    run(InterleaverConfig(*triple), census)
    assert census == expected


def test_census_accumulates_across_runs():
    census = OpCensus()
    run(CFG32, census)
    run(CFG32, census)
    assert census == OpCensus(add=320, sub=32, compare=224, select=384)


def test_census_follows_its_closed_form():
    """The census read off the speed graph is, per block, add 4n + 2w + 2a,
    sub w + a, compare 3n + w and select 4n + 4w, for n = n_cbps, w = d r
    wraps and a = d - d//s v advances: the per-cycle datapath, the wrap
    logic on r wraps, and the dv, dv_lo and tv updates on v advances."""
    for cfg in all_valid_configs(384):
        census = OpCensus()
        run(cfg, census)
        n, w, a = cfg.n_cbps, cfg.d, cfg.d - cfg.d // cfg.s
        assert census == OpCensus(
            add=4 * n + 2 * w + 2 * a, sub=w + a, compare=3 * n + w, select=4 * n + 4 * w
        ), cfg


def test_census_total_is_linear():
    """Whole-block op totals stay under a small constant per address."""
    census = OpCensus()
    run(CFG384, census)
    assert census.total() <= 12 * CFG384.n_cbps
    for cfg in ACCEPTANCE_CONFIGS:
        census = OpCensus()
        run(cfg, census)
        assert census.total() <= 16 * cfg.n_cbps, cfg


def test_two_runs_are_identical():
    assert run(CFG384).map == run(CFG384).map
