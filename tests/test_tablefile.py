from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wimax_il import (
    AddressTable,
    Direction,
    TableFormatError,
    build_table,
    run,
    validate_config,
)
from wimax_il.cli import _write
from wimax_il.tablefile import parse_table, read_table, serialize_table

GOLDEN_DIR = Path(__file__).parent / "golden"

CFG32 = validate_config(32, 16, 1)


def test_round_trip_equality():
    for direction in Direction:
        table = build_table(CFG32, direction)
        assert parse_table(serialize_table(table)) == table


def test_serialization_is_canonical():
    table = build_table(CFG32, Direction.DEINTERLEAVE)
    text = serialize_table(table)
    assert serialize_table(parse_table(text)) == text
    assert text.startswith(
        "# wimax-il address table v1\n# ncbps=32 d=16 s=1\n# direction=deinterleave\n0,0\n1,16\n"
    )
    assert text.endswith("\n")


def test_engines_serialize_identically():
    for triple in [(32, 16, 1), (384, 16, 2), (576, 16, 3)]:
        cfg = validate_config(*triple)
        reference = serialize_table(build_table(cfg, Direction.DEINTERLEAVE))
        incremental = serialize_table(run(cfg))
        assert reference == incremental


@pytest.mark.parametrize(
    "name,triple",
    [
        ("deinterleave_32_16_1.csv", (32, 16, 1)),
        ("deinterleave_192_16_1.csv", (192, 16, 1)),
        ("deinterleave_384_16_2.csv", (384, 16, 2)),
        ("deinterleave_576_16_3.csv", (576, 16, 3)),
    ],
)
def test_golden_vectors_are_locked(name, triple):
    """Committed tables must match the current build byte for byte."""
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    cfg = validate_config(*triple)
    assert serialize_table(build_table(cfg, Direction.DEINTERLEAVE)) == golden
    parsed = parse_table(golden)
    assert parsed.cfg == cfg
    assert parsed.is_permutation()


@given(perm=st.permutations(list(range(32))))
def test_round_trip_arbitrary_permutations(perm):
    table = AddressTable(CFG32, Direction.INTERLEAVE, tuple(perm))
    assert parse_table(serialize_table(table)) == table


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: "garbage\n" + t,
        lambda t: t.replace("v1", "v2"),
        lambda t: t.replace("ncbps=32", "ncbps=33"),
        lambda t: t.replace("direction=deinterleave", "direction=sideways"),
        lambda t: t.rsplit("\n", 2)[0] + "\n",  # drop the last row
        lambda t: t.replace("\n3,17\n", "\n3,x\n"),
        lambda t: t.replace("\n3,17\n", "\n4,17\n"),  # index out of order
        lambda t: "",
        lambda t: t.replace("\n3,17\n", "\n3,1_7\n"),  # underscore digit
        lambda t: t.replace("\n3,17\n", "\n3,+17\n"),  # + sign
        lambda t: t.replace("s=1\n", "s=1 extra=1\n"),  # extra header field
        lambda t: t.replace("ncbps=32", "ncbps=032"),  # leading zero in header
        lambda t: t.replace("\n", "\r\n"),  # CRLF line endings
        lambda t: t[:-1],  # missing final newline
        lambda t: t.replace("\n3,17\n", "\n3, 17\n"),  # space-padded value
    ],
)
def test_parse_rejects_malformed(mutation):
    text = serialize_table(build_table(CFG32, Direction.DEINTERLEAVE))
    with pytest.raises(TableFormatError):
        parse_table(mutation(text))


@given(data=st.data())
def test_parse_accepts_only_canonical_text(data):
    """One inserted, deleted or replaced character either makes the text
    fail to parse or leaves it canonical (values are not range-checked)."""
    text = serialize_table(build_table(CFG32, Direction.DEINTERLEAVE))
    edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
    at = data.draw(st.integers(0, len(text) - (edit != "insert")))
    char = data.draw(st.sampled_from("0123456789,#=_+- \n\r\t") | st.characters())
    tail = text[at + (edit != "insert"):]
    mutated = text[:at] + ("" if edit == "delete" else char) + tail
    try:
        table = parse_table(mutated)
    except TableFormatError:
        return
    assert serialize_table(table) == mutated


def test_file_round_trip(tmp_path):
    table = build_table(CFG32, Direction.INTERLEAVE)
    path = tmp_path / "table.csv"
    _write(str(path), serialize_table(table))
    assert read_table(str(path)) == table
