import io
import os
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_valid_configs, fullcheck, swap_first_two
from wimax_il import tablefile
from wimax_il.cli import _write
from wimax_il.config import ALLOWED_D, ALLOWED_S, MAX_NCBPS, InterleaverConfig
from wimax_il.errors import TableFormatError
from wimax_il.generator import run
from wimax_il.reference import (
    AddressTable,
    Direction,
    build_table,
    deinterleave_index,
    interleave_index,
    invert_table,
)
from wimax_il.tablefile import FORMAT_LINE, MAX_TABLE_CHARS, parse_table, read_table, serialize_table

GOLDEN_DIR = Path(__file__).parent / "golden"

CFG32 = InterleaverConfig(32, 16, 1)


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
        cfg = InterleaverConfig(*triple)
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
        ("interleave_192_16_1.csv", (192, 16, 1)),
        ("interleave_384_16_2.csv", (384, 16, 2)),
        ("interleave_576_16_3.csv", (576, 16, 3)),
    ],
)
def test_golden_vectors_are_locked(name, triple):
    """Committed tables must match the current build byte for byte."""
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    cfg = InterleaverConfig(*triple)
    direction = Direction(name.partition("_")[0])
    assert serialize_table(build_table(cfg, direction)) == golden
    parsed = parse_table(golden)
    assert parsed.cfg == cfg
    assert parsed.direction is direction
    assert parsed.is_permutation()


@given(perm=st.permutations(list(range(32))))
def test_round_trip_arbitrary_permutations(perm):
    table = AddressTable(CFG32, Direction.INTERLEAVE, tuple(perm))
    assert parse_table(serialize_table(table)) == table


@given(values=st.lists(st.integers() | st.booleans(), min_size=32, max_size=32))
def test_serialize_writes_what_fstring_rows_write(values):
    """The bulk row template formats any map as one f-string row per entry."""
    table = AddressTable(CFG32, Direction.DEINTERLEAVE, tuple(values))
    rows = "".join(f"{i},{a}\n" for i, a in enumerate(values))
    assert serialize_table(table).split("\n", 3)[3] == rows


def rejected(message, mutation):
    """Tag a text mutation with the exact TableFormatError message it gets."""
    mutation.message = message
    return mutation


MALFORMED = [
    rejected("unknown format line 'garbage'", lambda t: "garbage\n" + t),
    rejected(
        "unknown format line '# wimax-il address table v2'",
        lambda t: t.replace("v1", "v2"),
    ),
    rejected(
        "bad config header '# ncbps=33 d=16 s=1'",
        lambda t: t.replace("ncbps=32", "ncbps=33"),
    ),
    rejected(
        "unknown direction 'sideways'",
        lambda t: t.replace("direction=deinterleave", "direction=sideways"),
    ),
    rejected(  # drop the last row
        "expected 32 rows, found 31", lambda t: t.rsplit("\n", 2)[0] + "\n"
    ),
    rejected(
        "bad row address: invalid literal for int() with base 10: 'x'",
        lambda t: t.replace("\n3,17\n", "\n3,x\n"),
    ),
    rejected(  # index out of order
        r"line 7 is not canonical: '4,17\n', expected '3,17\n'",
        lambda t: t.replace("\n3,17\n", "\n4,17\n"),
    ),
    rejected("file too short to be an address table", lambda t: ""),
    rejected(  # underscore digit
        r"line 7 is not canonical: '3,1_7\n', expected '3,17\n'",
        lambda t: t.replace("\n3,17\n", "\n3,1_7\n"),
    ),
    rejected(  # + sign
        r"line 7 is not canonical: '3,+17\n', expected '3,17\n'",
        lambda t: t.replace("\n3,17\n", "\n3,+17\n"),
    ),
    rejected(  # extra header field
        r"line 2 is not canonical: '# ncbps=32 d=16 s=1 extra=1\n', "
        r"expected '# ncbps=32 d=16 s=1\n'",
        lambda t: t.replace("s=1\n", "s=1 extra=1\n"),
    ),
    rejected(  # leading zero in header
        r"line 2 is not canonical: '# ncbps=032 d=16 s=1\n', "
        r"expected '# ncbps=32 d=16 s=1\n'",
        lambda t: t.replace("ncbps=32", "ncbps=032"),
    ),
    rejected(  # CRLF line endings
        r"line 1 is not canonical: '# wimax-il address table v1\r\n', "
        r"expected '# wimax-il address table v1\n'",
        lambda t: t.replace("\n", "\r\n"),
    ),
    rejected(  # missing final newline
        r"line 35 is not canonical: '31,31', expected '31,31\n'",
        lambda t: t[:-1],
    ),
    rejected(  # space-padded value
        r"line 7 is not canonical: '3, 17\n', expected '3,17\n'",
        lambda t: t.replace("\n3,17\n", "\n3, 17\n"),
    ),
]


@pytest.mark.parametrize("mutation", MALFORMED)
def test_parse_rejects_malformed(mutation):
    """Each deviation fails with its own message, which verify --table prints."""
    text = serialize_table(build_table(CFG32, Direction.DEINTERLEAVE))
    with pytest.raises(TableFormatError) as excinfo:
        parse_table(mutation(text))
    assert str(excinfo.value) == mutation.message


def test_parse_gives_back_the_reference_table_or_the_one_that_differs():
    for cfg in all_valid_configs(768):
        for direction in Direction:
            reference = build_table(cfg, direction)
            assert parse_table(serialize_table(reference)) == reference, cfg
            swapped = swap_first_two(reference)
            assert parse_table(serialize_table(swapped)) == swapped, cfg
            assert swapped != reference, cfg


def test_a_valid_file_is_accepted_without_converting_a_row(monkeypatch):
    converted = []

    def spy(value):
        converted.append(value)
        return int(value)

    monkeypatch.setattr(tablefile, "int", spy, raising=False)
    reference = build_table(InterleaverConfig(576, 16, 3), Direction.DEINTERLEAVE)
    assert parse_table(serialize_table(reference)) == reference
    assert converted == ["576", "16", "3"]  # the header's fields only
    # a file with two swapped rows converts the header's fields and those rows only
    converted.clear()
    swapped = swap_first_two(reference)
    assert parse_table(serialize_table(swapped)) == swapped
    assert len(converted) == 5


def test_a_short_file_fails_on_its_row_count_before_a_table_is_built(monkeypatch):
    def no_build(*args):
        raise AssertionError("build_table was called")

    monkeypatch.setattr(tablefile, "build_table", no_build, raising=False)
    text = f"{FORMAT_LINE}\n# ncbps={MAX_NCBPS} d=16 s=1\n# direction=deinterleave\n0,0\n"
    with pytest.raises(TableFormatError) as excinfo:
        parse_table(text)
    assert str(excinfo.value) == f"expected {MAX_NCBPS} rows, found 1"


@pytest.mark.parametrize("mutation", MALFORMED)
def test_the_full_parse_stands_without_the_reference(monkeypatch, mutation):
    """With a reference table that matches none of these files (-1 in every
    row), the full parse alone accepts the valid text and gives each
    deviation its exact message."""
    monkeypatch.setattr(
        tablefile,
        "build_table",
        lambda cfg, direction: AddressTable(cfg, direction, (-1,) * cfg.n_cbps),
    )
    reference = build_table(CFG32, Direction.DEINTERLEAVE)
    text = serialize_table(reference)
    assert parse_table(text) == reference
    with pytest.raises(TableFormatError) as excinfo:
        parse_table(mutation(text))
    assert str(excinfo.value) == mutation.message


def admitted_blocks_above_2304() -> list:
    """For each (d, s), the largest block the CLI admits, id "d-s", and two
    admissible blocks drawn by a fixed seed between 2304 bits and that one,
    id "d-s-n_cbps"."""
    rng = random.Random(29)
    above = [cfg for cfg in fullcheck.valid_configs() if cfg.n_cbps > 2304]
    blocks = []
    for d in ALLOWED_D:
        for s in ALLOWED_S:
            ds = [cfg for cfg in above if (cfg.d, cfg.s) == (d, s)]
            blocks.append(pytest.param(ds[-1], id=f"{d}-{s}"))
            blocks += [pytest.param(cfg, id=f"{d}-{s}-{cfg.n_cbps}") for cfg in sorted(rng.sample(ds[:-1], 2))]
    return blocks


@pytest.mark.parametrize("cfg", admitted_blocks_above_2304())
def test_the_largest_admitted_blocks(tmp_path, cfg):
    """Blocks above 2304 bits, up to the largest the CLI admits: the engines
    pass tools/fullcheck.py's check, the inverse of the interleave table is
    the deinterleave table, the per-index oracle agrees with both tables on
    a seeded sample, and a file of the table with two rows swapped reads
    back as that table."""
    n, d, s = cfg
    assert fullcheck.check(cfg) == []
    deinterleave = build_table(cfg, Direction.DEINTERLEAVE)
    interleave = build_table(cfg, Direction.INTERLEAVE)
    assert invert_table(interleave) == deinterleave
    for i in random.Random(n * d + s).sample(range(n), 200):
        assert interleave.map[i] == interleave_index(cfg, i), (cfg, i)
        assert deinterleave.map[i] == deinterleave_index(cfg, i), (cfg, i)
    swapped = swap_first_two(deinterleave)
    path = tmp_path / "table.csv"
    _write(str(path), serialize_table(swapped))
    assert read_table(str(path)) == swapped


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


def test_read_table_reads_one_character_past_the_largest_table(monkeypatch):
    """An oversized file is refused after MAX_TABLE_CHARS + 1 characters,
    never read whole."""
    asked = []

    class Spy(io.StringIO):
        def read(self, size=-1):
            asked.append(size)
            return super().read(size)

    monkeypatch.setattr(tablefile, "open", lambda *args, **kwargs: Spy("x" * (MAX_TABLE_CHARS + 9)), raising=False)
    with pytest.raises(TableFormatError, match="longer than the largest table"):
        read_table("oversized.csv")
    assert asked == [MAX_TABLE_CHARS + 1]


def test_write_overwrites_an_existing_file_in_place(tmp_path):
    """_write does not truncate an existing file before it writes: while the
    chunks stream in, the file keeps its old size, and only the end of the
    write cuts it to the new length."""
    path = tmp_path / "report.csv"
    path.write_text("old\n" * 5000)
    seen = []

    def chunks():
        yield "new\n"
        seen.append(os.path.getsize(path))
        yield "tail\n"

    _write(str(path), chunks())
    assert seen == [20000]
    assert path.read_bytes() == b"new\ntail\n"


@pytest.mark.parametrize(
    "old_size", [8000, 4000, 10, 0], ids=["over-longer", "over-equal", "over-shorter", "over-empty"]
)
@pytest.mark.parametrize("chunked", [False, True], ids=["text", "chunks"])
def test_write_leaves_exactly_the_new_bytes(tmp_path, old_size, chunked):
    path = tmp_path / "table.csv"
    path.write_bytes(b"x" * old_size)
    text = "1,2\n" * 1000
    _write(str(path), [text[:1000], text[1000:]] if chunked else text)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("first", [5, 100_000], ids=["buffered", "written-through"])
def test_a_failed_write_leaves_a_prefix_of_the_new_text_only(tmp_path, first):
    """A chunk iterator that fails after its first chunk leaves that chunk
    and no byte of the longer file it was written over."""
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 200_000)

    def chunks():
        yield "a" * first
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        _write(str(path), chunks())
    assert path.read_bytes() == b"a" * first


def test_write_never_cuts_a_target_that_is_not_a_regular_file(monkeypatch):
    def no_cut(*args):
        raise AssertionError("a non-regular target was cut")

    monkeypatch.setattr(os, "ftruncate", no_cut)
    _write(os.devnull, ["some", " text\n"])


def naive_parse(text):
    """The plain parse that parse_table must agree with on every text:
    split the whole text with splitlines, check the header and the row
    count, then parse every row and round-trip it."""
    lines = text.splitlines()
    if len(lines) < 4:
        raise TableFormatError("file too short to be an address table")
    if lines[0] != FORMAT_LINE:
        raise TableFormatError(f"unknown format line {lines[0]!r}")
    fields = dict(part.partition("=")[::2] for part in lines[1].removeprefix("# ").split())
    try:
        cfg = InterleaverConfig(int(fields["ncbps"]), int(fields["d"]), int(fields["s"]))
    except (KeyError, ValueError) as exc:
        raise TableFormatError(f"bad config header {lines[1]!r}") from exc
    prefix, _, dirname = lines[2].partition("=")
    if prefix != "# direction":
        raise TableFormatError(f"bad direction header {lines[2]!r}")
    try:
        direction = Direction(dirname)
    except ValueError as exc:
        raise TableFormatError(f"unknown direction {dirname!r}") from exc
    rows = lines[3:]
    if len(rows) != cfg.n_cbps:
        raise TableFormatError(f"expected {cfg.n_cbps} rows, found {len(rows)}")
    try:
        table = AddressTable(cfg, direction, tuple(int(row.partition(",")[2]) for row in rows))
    except ValueError as exc:
        raise TableFormatError(f"bad row address: {exc}") from exc
    canonical = serialize_table(table)
    if canonical != text:
        pairs = zip(canonical.splitlines(True), text.splitlines(True))
        lineno, want, got = next((i, w, g) for i, (w, g) in enumerate(pairs, 1) if w != g)
        raise TableFormatError(f"line {lineno} is not canonical: {got!r}, expected {want!r}")
    return table


def outcome(parse, text):
    """What parse makes of text: the table it returns or the message it raises."""
    try:
        return parse(text)
    except TableFormatError as exc:
        return f"TableFormatError: {exc}"


# Every line boundary str.splitlines honours besides "\n"
OTHER_BREAKS = ["\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
CFG32_TEXT = serialize_table(build_table(CFG32, Direction.DEINTERLEAVE))


@pytest.mark.parametrize("mutation", [lambda t: t, *MALFORMED])
def test_parse_agrees_with_the_naive_parse_on_the_malformed_corpus(mutation):
    text = mutation(CFG32_TEXT)
    assert outcome(parse_table, text) == outcome(naive_parse, text)


@pytest.mark.parametrize(
    "place",
    [
        lambda t, b: t.replace("v1\n", f"v1{b}\n"),  # ending the format line
        lambda t, b: t.replace(" d=16", f"{b}d=16"),  # inside the config line
        lambda t, b: t.replace("deinterleave\n", f"deinterleave{b}"),  # ending the header
        lambda t, b: t.replace("\n3,17\n", f"\n3,1{b}7\n"),  # inside a row
        lambda t, b: t.replace("\n3,17\n", f"\n3,17{b}"),  # ending a row
        lambda t, b: t.replace("\n3,17\n", f"\n3,17{b}\n"),  # one more row, empty
        lambda t, b: t + b,  # at the end
        lambda t, b: t[:-1] + b,  # ending the last row
    ],
    ids=["format", "config", "header-end", "in-row", "row-end", "extra-row", "end", "last-row-end"],
)
@pytest.mark.parametrize("boundary", OTHER_BREAKS, ids=["+".join(f"U+{ord(c):04X}" for c in b) for b in OTHER_BREAKS])
def test_parse_agrees_with_the_naive_parse_on_every_other_line_boundary(place, boundary):
    text = place(CFG32_TEXT, boundary)
    assert text != CFG32_TEXT
    assert outcome(parse_table, text) == outcome(naive_parse, text)


def test_parse_agrees_with_the_naive_parse_on_short_texts():
    """The first one to five lines of a table, the first few of them ended
    by a newline and the rest by another boundary, with and without the
    last line's ending: a text of fewer than three newlines, or with
    nothing past the header, is too short exactly when it holds fewer than
    four lines."""
    head = CFG32_TEXT.splitlines()[:5]
    for k in range(1, 6):
        for newlines in range(k + 1):
            for boundary in OTHER_BREAKS:
                ends = ["\n"] * newlines + [boundary] * (k - newlines)
                text = "".join(map(str.__add__, head[:k], ends))
                for cut in (text, text.removesuffix(ends[-1])):
                    assert outcome(parse_table, cut) == outcome(naive_parse, cut), repr(cut)


@given(data=st.data())
def test_parse_agrees_with_the_naive_parse_on_edited_text(data):
    """One to three inserted, deleted or replaced characters, drawn mostly
    from the format's own and the line boundaries, get the same table or
    the same message from both parses."""
    text = CFG32_TEXT
    for _ in range(data.draw(st.integers(1, 3))):
        edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
        at = data.draw(st.integers(0, len(text) - (edit != "insert")))
        char = data.draw(st.sampled_from(["\n", ",", "#", "=", " ", "0", "1", "7", *OTHER_BREAKS]) | st.characters())
        text = text[:at] + ("" if edit == "delete" else char) + text[at + (edit != "insert"):]
    assert outcome(parse_table, text) == outcome(naive_parse, text)


REAL_SIZE_TEXTS = {
    (triple, direction): serialize_table(build_table(InterleaverConfig(*triple), direction))
    for triple in [(384, 16, 2), (2304, 16, 3)]
    for direction in Direction
}
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@given(data=st.data())
def test_parse_agrees_with_the_naive_parse_on_damaged_rows(data):
    """One to four rows of a real-size table replaced by a line that is
    nearly a row get the same table or the same message from both parses."""
    text = REAL_SIZE_TEXTS[data.draw(st.sampled_from(sorted(REAL_SIZE_TEXTS)))]
    lines = text.splitlines(True)
    n = len(lines) - 3
    for _ in range(data.draw(st.integers(1, 4))):
        i, other = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        value = lines[3 + i].rstrip("\n").partition(",")[2]
        damaged = data.draw(st.sampled_from([
            f"{i},{lines[3 + other].rstrip().partition(',')[2]}\n",  # another row's address
            f"{other},{value}\n",  # a wrong index
            f"{i},-{value}\n",
            f"{i},{n + other}\n",  # out of range
            f"{i},+{value}\n",
            f"{i},{value[:1]}_{value[1:]}\n",
            f"{i}, {value}\n",
            f"{i},0{value}\n",
            f"{i},{value.translate(ARABIC_INDIC)}\n",
            f"{i},{value}{data.draw(st.sampled_from(OTHER_BREAKS))}",
        ]))
        lines[3 + i] = damaged
    text = "".join(lines)
    assert outcome(parse_table, text) == outcome(naive_parse, text)


class Unsplittable(str):
    def splitlines(self, keepends=False):
        raise AssertionError("the text was split into lines")


def test_a_valid_file_is_accepted_without_being_split_into_lines():
    for cfg in (CFG32, InterleaverConfig(2304, 16, 3)):
        for direction in Direction:
            reference = build_table(cfg, direction)
            assert parse_table(Unsplittable(serialize_table(reference))) == reference
    # text that differs from its reference is split
    with pytest.raises(AssertionError, match="split into lines"):
        parse_table(Unsplittable(serialize_table(swap_first_two(reference))))
