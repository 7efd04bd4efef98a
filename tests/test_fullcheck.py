"""The full check in tools/fullcheck.py, on a small range: it finds every
config the CLI admits, passes the engines as they are, and reports a broken
engine or a per-index oracle wrong at a column end. The full run is not
part of tier-1: it takes minutes."""
from conftest import all_valid_configs, fullcheck, swap_first_two
from wimax_il.config import InterleaverConfig
from wimax_il.reference import Direction, deinterleave_index, interleave_index

CFG = InterleaverConfig(576, 16, 3)


def test_the_full_check_runs_on_every_admitted_config():
    assert len(fullcheck.valid_configs()) == 17_518


def test_the_engines_pass_the_full_check():
    for cfg in all_valid_configs(384):
        assert fullcheck.check(cfg) == [], cfg


def test_a_wrong_engine_is_reported(monkeypatch):
    monkeypatch.setattr(fullcheck, "run", lambda cfg: swap_first_two(fullcheck.build_table(cfg, Direction.DEINTERLEAVE)))
    assert fullcheck.check(CFG) == [
        "576,16,3: generator.run differs from build_table",
        "576,16,3: invert_table differs from build_table",
    ]


def test_every_column_end_is_in_the_index_sample(monkeypatch):
    """An oracle wrong only at one end of one column is caught there, for
    each end of each column, in both layouts."""
    rows, s = CFG.rows, CFG.s
    for c in range(CFG.d):
        for r in (*range(s), *range(rows - s, rows)):
            j, k = rows * c + r, c + CFG.d * r
            monkeypatch.setattr(fullcheck, "deinterleave_index", lambda cfg, i, j=j: deinterleave_index(cfg, i) + (i == j))
            monkeypatch.setattr(fullcheck, "interleave_index", lambda cfg, i, k=k: interleave_index(cfg, i) + (i == k))
            assert sorted(fullcheck.check(CFG)) == [
                f"576,16,3: deinterleave_index({j}) differs from build_table",
                f"576,16,3: interleave_index({k}) differs from build_table",
            ]
