"""Canonical on-disk form of an address table.

Comment header (three fixed lines) followed by one "index,address" row per
bit, in index order:

    # wimax-il address table v1
    # ncbps=32 d=16 s=1
    # direction=deinterleave
    0,0
    1,16
    ...

The format is canonical, and parse_table enforces it: text is accepted
only if the parsed table serializes back to exactly the same bytes, so
CRLF line endings, a missing final newline, signs, padding, underscores,
leading zeros and extra header fields are all rejected. The header is
read once, from the text's first three lines. A file equal to the text of
the reference table its header names is compared whole and accepted as
that table, never split into rows. Any other file is split into lines
once; its row count is checked before the reference is built, unless it
holds as many newlines as the reference text and was compared with it
first. Its lines are compared with the reference text's, and only the
lines that differ are parsed and checked. The same table always
serializes to the same bytes regardless of which engine produced it.
Values are not range-checked at parse time; verification (permutation
and reference checks) is the verify command's job.
"""
from __future__ import annotations

from itertools import compress, count
from operator import ne

from .config import InterleaverConfig
from .errors import TableFormatError
from .reference import AddressTable, Direction, build_table

FORMAT_LINE = "# wimax-il address table v1"
# One "index,address" row of the canonical text
ROW = "%s,%s\n"
# Length of a serialized MAX_NCBPS-bit deinterleave table with d=16, the
# longest canonical table; every longer file is rejected unparsed.
MAX_TABLE_CHARS = 764_288


def serialize_table(table: AddressTable) -> str:
    """The canonical text: the header, then every row from one % over the
    row template repeated. %s writes what an f-string writes, str(value)."""
    cfg = table.cfg
    n = len(table.map)
    flat = [0] * (2 * n)
    flat[::2] = range(n)
    flat[1::2] = table.map
    return (
        f"{FORMAT_LINE}\n# ncbps={cfg.n_cbps} d={cfg.d} s={cfg.s}\n"
        f"# direction={table.direction.value}\n"
    ) + ROW * n % tuple(flat)


def parse_table(text: str) -> AddressTable:
    """Strict parse of the canonical form; raises TableFormatError on any
    deviation (wrong header, bad row count, or any bytes that the parsed
    table would not serialize back to).

    The header is read once, as the str.splitlines lines of the text up to
    and including its third newline: since that prefix ends at a line
    boundary, they are the first lines of the whole text. Text equal to
    the serialized reference table of the header's config and direction
    is that table, since canonical text parses to the one map that
    serializes to it. The reference is built first only when the text
    holds as many newlines as that table's text, and such text is
    compared whole, so a valid file is never split into rows. Any other
    text is split with splitlines once, for its row count and for the
    line comparison; a reference not yet built is built after the row
    count, so no build exceeds the file's own size.
    The text's lines are compared with the reference text's, and only the
    lines that differ are parsed and checked: a line equal to its
    reference line is canonical and parses to the reference value. The
    result is the reference map with the differing rows replaced. Every
    differing row is converted, in line order, before a line is reported,
    so a bad row address is reported before a line that is not canonical,
    and the first line that would not serialize back is the one named."""
    end = 0  # just past the third "\n", or the text's end
    for _ in range(3):
        end = text.find("\n", end) + 1 or len(text)
    lines = text[:end].splitlines()
    if len(lines) + (end < len(text)) < 4:  # text past the prefix is one more line
        raise TableFormatError("file too short to be an address table")
    if lines[0] != FORMAT_LINE:
        raise TableFormatError(f"unknown format line {lines[0]!r}")

    fields = {}
    for part in lines[1].removeprefix("# ").split():
        key, _, value = part.partition("=")
        fields[key] = value
    try:
        cfg = InterleaverConfig(
            int(fields["ncbps"]), int(fields["d"]), int(fields["s"])
        )
    except (KeyError, ValueError) as exc:
        raise TableFormatError(f"bad config header {lines[1]!r}") from exc

    prefix, _, dirname = lines[2].partition("=")
    if prefix != "# direction":
        raise TableFormatError(f"bad direction header {lines[2]!r}")
    try:
        direction = Direction(dirname)
    except ValueError as exc:
        raise TableFormatError(f"unknown direction {dirname!r}") from exc

    reference = None
    if text.count("\n") == cfg.n_cbps + 3:
        reference = build_table(cfg, direction)
        reference_text = serialize_table(reference)
        if reference_text == text:
            return reference
        want = reference_text.splitlines(True)
        del reference_text  # so that no more than the two line lists are held
    got = text.splitlines(True)
    if len(got) != cfg.n_cbps + 3:
        raise TableFormatError(
            f"expected {cfg.n_cbps} rows, found {len(got) - 3}"
        )
    if reference is None:
        reference = build_table(cfg, direction)
        want = serialize_table(reference).splitlines(True)
    addresses = list(reference.map)
    first = None  # the first line that does not serialize back, and its canonical form
    try:
        for i in compress(count(), map(ne, want, got)):
            expected = want[i]
            if i > 2:  # a row, which int's message quotes without its line ending
                addresses[i - 3] = int(got[i].splitlines()[0].partition(",")[2])
                expected = ROW % (i - 3, addresses[i - 3])
            if first is None and got[i] != expected:
                first = i, expected
    except ValueError as exc:
        raise TableFormatError(f"bad row address: {exc}") from exc
    if first is not None:
        i, expected = first
        raise TableFormatError(
            f"line {i + 1} is not canonical: {got[i]!r}, expected {expected!r}"
        )
    del want, got  # freed before the result's tuple is built
    return AddressTable(cfg, direction, tuple(addresses))


def read_table(path: str) -> AddressTable:
    """Read and parse a table file. At most MAX_TABLE_CHARS + 1 characters
    are read, so an oversized file fails without being read whole; a file
    that is not UTF-8 text fails as a format error."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read(MAX_TABLE_CHARS + 1)
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"not UTF-8 text: {exc}") from exc
    if len(text) > MAX_TABLE_CHARS:
        raise TableFormatError(
            f"longer than the largest table ({MAX_TABLE_CHARS} characters)"
        )
    return parse_table(text)
