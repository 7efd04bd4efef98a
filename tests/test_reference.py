import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wimax_il import reference
from wimax_il.config import InterleaverConfig
from wimax_il.errors import IndexOutOfRange, LengthMismatch, NotAPermutation
from wimax_il.reference import (
    AddressTable,
    Direction,
    apply_permutation,
    build_table,
    deinterleave_index,
    interleave_index,
    invert_table,
)
from wimax_il.tablefile import read_table, serialize_table

from conftest import ACCEPTANCE_CONFIGS, all_valid_configs

CFG32 = InterleaverConfig(32, 16, 1)
CFG384 = InterleaverConfig(384, 16, 2)


@pytest.mark.parametrize(
    "cfg,k,expected",
    [
        (CFG32, 0, 0),
        (CFG32, 1, 2),
        (CFG32, 17, 3),
        (CFG384, 1, 25),
    ],
)
def test_interleave_index_worked_values(cfg, k, expected):
    assert interleave_index(cfg, k) == expected


@pytest.mark.parametrize(
    "cfg,j,expected",
    [
        (CFG32, 0, 0),
        (CFG32, 2, 1),
        (CFG32, 3, 17),
        (CFG384, 25, 1),
    ],
)
def test_deinterleave_index_worked_values(cfg, j, expected):
    assert deinterleave_index(cfg, j) == expected


@pytest.mark.parametrize("bad", [-1, 32, 1000])
def test_index_out_of_range(bad):
    with pytest.raises(IndexOutOfRange):
        interleave_index(CFG32, bad)
    with pytest.raises(IndexOutOfRange):
        deinterleave_index(CFG32, bad)


def test_table_prefixes():
    assert build_table(CFG32, Direction.DEINTERLEAVE).map[:4] == (0, 16, 1, 17)
    assert build_table(CFG32, Direction.INTERLEAVE).map[:3] == (0, 2, 4)


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.value)
def test_build_table_is_the_index_functions_tabulated(direction):
    """The sliced tables equal the per-index oracle on every valid config
    with n_cbps <= 2048."""
    fn = interleave_index if direction is Direction.INTERLEAVE else deinterleave_index
    for cfg in all_valid_configs():
        want = tuple(fn(cfg, i) for i in range(cfg.n_cbps))
        assert build_table(cfg, direction).map == want, cfg


def test_build_table_calls_no_index_function(monkeypatch):
    """Whole tables come from slices, not from one call per index."""
    calls = []
    for name in ("interleave_index", "deinterleave_index"):
        monkeypatch.setattr(reference, name, lambda *args, name=name: calls.append(name))
    for cfg in ACCEPTANCE_CONFIGS:
        for direction in Direction:
            assert build_table(cfg, direction).is_permutation()
    assert calls == []


def test_the_memo_holds_one_table_keyed_by_argument_types():
    """build_table keeps its last table. An argument equal to a key but of
    another type, a plain str direction or a plain tuple config, misses, so
    it gets what it would get without the memo."""
    build_table.cache_clear()
    itab = build_table(CFG32, Direction.INTERLEAVE)
    assert build_table(CFG32, Direction.INTERLEAVE) is itab
    plain = build_table(CFG32, "interleave")
    assert plain is not itab and plain.direction is Direction.INTERLEAVE
    with pytest.raises(AttributeError):
        build_table(tuple(CFG32), Direction.INTERLEAVE)
    assert build_table(CFG32, Direction.INTERLEAVE) is not itab
    assert build_table.cache_info().currsize == 1


@pytest.mark.parametrize("direction", Direction)
def test_a_plain_string_direction_builds_the_enum_table(direction):
    """A direction's plain value builds that direction's table and stores
    the Direction, so the table serializes and inverts as the enum call's
    does; any other value raises ValueError."""
    build_table.cache_clear()
    plain = build_table(CFG32, direction.value)
    table = build_table(CFG32, direction)
    assert plain == table and plain.direction is direction
    assert serialize_table(plain) == serialize_table(table)
    assert invert_table(plain) == invert_table(table)
    with pytest.raises(ValueError):
        build_table(CFG32, "sideways")
    with pytest.raises(ValueError):
        AddressTable(CFG32, "sideways", table.map)


def test_bijectivity_and_mutual_inverse_exhaustive():
    """Both tables are permutations and exact inverses for every valid
    config with n_cbps <= 2048."""
    for cfg in all_valid_configs():
        itab = build_table(cfg, Direction.INTERLEAVE)
        dtab = build_table(cfg, Direction.DEINTERLEAVE)
        assert itab.is_permutation(), cfg
        assert dtab.is_permutation(), cfg
        assert all(dtab.map[itab.map[k]] == k for k in range(cfg.n_cbps)), cfg


def test_first_stage_matches_row_column_block_oracle():
    """For s=1 the table must equal the classic write-row-wise /
    read-column-wise block permutation, coded independently with numpy."""
    for cfg in [CFG32, InterleaverConfig(192, 16, 1), InterleaverConfig(144, 12, 1)]:
        n, d, rows = cfg.n_cbps, cfg.d, cfg.rows
        # bit k sits at (row k//d, col k%d); column-wise readout position
        grid = np.arange(n).reshape(rows, d)
        readout = grid.flatten(order="F")  # original index read at each slot
        oracle = np.empty(n, dtype=int)
        for slot, k in enumerate(readout):
            oracle[k] = slot
        table = build_table(cfg, Direction.INTERLEAVE)
        assert list(table.map) == oracle.tolist()


def test_adjacent_inputs_never_adjacent_outputs():
    """s=1, at least two rows: adjacent coded bits land on non-adjacent
    outputs."""
    for cfg in [CFG32, InterleaverConfig(192, 16, 1), InterleaverConfig(2048, 16, 1)]:
        tab = build_table(cfg, Direction.INTERLEAVE).map
        gaps = [abs(tab[k + 1] - tab[k]) for k in range(cfg.n_cbps - 1)]
        assert min(gaps) >= 2


def test_invert_matches_deinterleave_table():
    """Inverting either direction's table gives the other direction's, on the
    acceptance configs and every valid config with n_cbps <= 2048."""
    for cfg in ACCEPTANCE_CONFIGS + all_valid_configs():
        itab = build_table(cfg, Direction.INTERLEAVE)
        dtab = build_table(cfg, Direction.DEINTERLEAVE)
        for table, other in [(itab, dtab), (dtab, itab)]:
            inv = invert_table(table)
            assert inv.direction is other.direction, cfg
            assert inv.map == other.map, cfg


def test_invert_identity_table():
    ident = AddressTable(CFG32, Direction.INTERLEAVE, tuple(range(32)))
    assert invert_table(ident).map == ident.map


@given(perm=st.permutations(list(range(32))))
def test_invert_is_an_involution(perm):
    table = AddressTable(CFG32, Direction.INTERLEAVE, tuple(perm))
    twice = invert_table(invert_table(table))
    assert twice.map == table.map
    assert twice.direction is table.direction


def test_invert_rejects_corrupt_table():
    broken = AddressTable(CFG32, Direction.INTERLEAVE, tuple([0] * 32))
    with pytest.raises(NotAPermutation):
        invert_table(broken)


def test_apply_identity_and_zeros():
    ident = AddressTable(CFG32, Direction.INTERLEAVE, tuple(range(32)))
    block = [1, 0] * 16
    assert apply_permutation(ident, block) == block
    table = build_table(CFG32, Direction.INTERLEAVE)
    assert apply_permutation(table, [0] * 32) == [0] * 32


def test_apply_uses_write_side_convention():
    table = build_table(CFG32, Direction.INTERLEAVE)
    block = list(range(32))  # distinct symbols expose the convention
    out = apply_permutation(table, block)
    assert all(out[table.map[i]] == block[i] for i in range(32))


def test_deinterleave_after_interleave_restores_block():
    rng = random.Random(0x802_16)
    for cfg in ACCEPTANCE_CONFIGS:
        itab = build_table(cfg, Direction.INTERLEAVE)
        dtab = build_table(cfg, Direction.DEINTERLEAVE)
        for _ in range(100):
            block = [rng.randint(0, 1) for _ in range(cfg.n_cbps)]
            assert apply_permutation(dtab, apply_permutation(itab, block)) == block


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: [-1] + m[1:],  # an address below the block
        lambda m: [m[1]] + m[1:],  # an address written twice, one never
        lambda m: [32] + m[1:],  # an address past the block
    ],
    ids=["negative", "duplicated", "past_the_end"],
)
def test_apply_rejects_a_table_file_that_is_not_a_permutation(corrupt, tmp_path):
    """A canonical file may hold any addresses; scattering through one that
    is not a permutation would drop a symbol, so it is refused."""
    good = build_table(CFG32, Direction.INTERLEAVE)
    path = tmp_path / "table.csv"
    path.write_text(serialize_table(good._replace(map=tuple(corrupt(list(good.map))))))
    table = read_table(str(path))
    with pytest.raises(NotAPermutation):
        apply_permutation(table, list(range(100, 132)))


def test_apply_rejects_length_mismatch():
    table = build_table(CFG32, Direction.INTERLEAVE)
    with pytest.raises(LengthMismatch):
        apply_permutation(table, [0] * 31)


def test_table_length_is_checked():
    with pytest.raises(LengthMismatch):
        AddressTable(CFG32, Direction.INTERLEAVE, (0, 1, 2))


def test_table_replace_checks_the_length():
    table = build_table(CFG32, Direction.INTERLEAVE)
    with pytest.raises(LengthMismatch):
        table._replace(map=(0, 1, 2))
    assert table._replace(direction=Direction.DEINTERLEAVE).map == table.map
