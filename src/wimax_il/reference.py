"""Ground-truth index math for the two-step channel interleaver.

Interleave (transmit side), for k in [0, n_cbps):

    m_k = (n_cbps/d) * (k mod d) + floor(k/d)
    j_k = s*floor(m_k/s) + (m_k + n_cbps - floor(d*m_k/n_cbps)) mod s

Deinterleave (receive side), for j in [0, n_cbps):

    m_j = s*floor(j/s) + (j + floor(d*j/n_cbps)) mod s
    k_j = d*m_j - (n_cbps - 1) * floor(d*m_j/n_cbps)

The first step spreads adjacent coded bits onto non-adjacent subcarriers;
the second alternates them across constellation bit significances. All
arithmetic is exact integer arithmetic; this module is the oracle the
incremental generator is checked against. build_table writes whole tables
as column transposes rotated inside groups of s, pinned to the per-index
functions on every valid config.
"""
from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .config import InterleaverConfig
from .errors import IndexOutOfRange, LengthMismatch, NotAPermutation


class Direction(str, enum.Enum):
    INTERLEAVE = "interleave"
    DEINTERLEAVE = "deinterleave"


def interleave_index(cfg: InterleaverConfig, k: int) -> int:
    """Channel position j_k of coded bit k."""
    n, d, s = cfg.n_cbps, cfg.d, cfg.s
    if not 0 <= k < n:
        raise IndexOutOfRange(f"k = {k} outside [0, {n})")
    m = (n // d) * (k % d) + k // d
    return s * (m // s) + (m + n - (d * m) // n) % s


def deinterleave_index(cfg: InterleaverConfig, j: int) -> int:
    """Original position k_j of the bit received at channel position j."""
    n, d, s = cfg.n_cbps, cfg.d, cfg.s
    if not 0 <= j < n:
        raise IndexOutOfRange(f"j = {j} outside [0, {n})")
    m = s * (j // s) + (j + (d * j) // n) % s
    return d * m - (n - 1) * ((d * m) // n)


class _Table(NamedTuple):
    cfg: InterleaverConfig
    direction: Direction
    map: tuple[int, ...]


class AddressTable(_Table):
    """map[i] is the output index of input index i, a full permutation of
    [0, n_cbps) that applies write-side: apply_permutation refuses any other.
    An immutable named tuple; the length is checked at construction, and the
    direction is stored as a Direction, so its plain value such as
    "interleave" is accepted and any other raises ValueError."""

    __slots__ = ()

    def __new__(
        cls, cfg: InterleaverConfig, direction: Direction | str, map: tuple[int, ...]
    ) -> "AddressTable":
        if len(map) != cfg.n_cbps:
            raise LengthMismatch(
                f"table has {len(map)} rows, config needs {cfg.n_cbps}"
            )
        return super().__new__(cls, cfg, Direction(direction), map)

    @classmethod
    def _make(cls, iterable) -> "AddressTable":
        return cls(*iterable)  # so that _replace checks the length too

    def is_permutation(self) -> bool:
        n = self.cfg.n_cbps
        seen = [False] * n
        for a in self.map:
            if not 0 <= a < n or seen[a]:
                return False
            seen[a] = True
        return True


@lru_cache(maxsize=1, typed=True)
def build_table(cfg: InterleaverConfig, direction: Direction | str) -> AddressTable:
    """The whole block of interleave_index or deinterleave_index, built by
    O(d*s) slice assignments rather than one call per index. direction is a
    Direction or its value; the table holds it as a Direction.

    The last table built is memoized, keyed by the arguments and their
    types, so the second of two calls for one table within a command costs
    nothing; callers can share it, since an AddressTable is immutable. The
    memo lives for one command: cli.main clears it when the command ends,
    and it never holds more than one table.

    Write bit k as k = r*d + c, with row r < rows = n_cbps/d and column
    c < d. Step 1 sends it to m = rows*c + r, so floor(d*m/n_cbps) = c.
    Since s divides rows, s*floor(m/s) = rows*c + s*floor(r/s) and
    (m + n_cbps - c) mod s = (r - c) mod s, so step 2 gives

        j = rows*c + s*floor(r/s) + (r - c) mod s.

    Column c is a transpose onto channel positions rows*c .. rows*(c+1) - 1,
    rotated by c inside every group of s. The rows r = t (mod s) of column c,
    that is k = c + d*t + s*d*g, land on j = rows*c + (t - c) mod s + s*g:
    one stepped slice each way. The per-index functions stay the oracle; the
    tests pin this table to them on every valid config.
    """
    n, d, s = cfg.n_cbps, cfg.d, cfg.s
    rows = n // d
    out = [0] * n
    for c in range(d):
        for t in range(s):
            u = (t - c) % s
            if direction == Direction.INTERLEAVE:
                out[c + d * t::s * d] = range(rows * c + u, rows * (c + 1), s)
            else:
                out[rows * c + u:rows * (c + 1):s] = range(c + d * t, n, s * d)
    return AddressTable(cfg, direction, tuple(out))


def invert_table(table: AddressTable) -> AddressTable:
    """Elementwise inverse, the identity scattered: result.map[table.map[i]] = i."""
    other = Direction.DEINTERLEAVE if table.direction is Direction.INTERLEAVE else Direction.INTERLEAVE
    return AddressTable(table.cfg, other, tuple(apply_permutation(table, range(len(table.map)))))


def apply_permutation(table: AddressTable, bits: Sequence[int]) -> list[int]:
    """Permute a block: output[table.map[i]] = bits[i].

    Both directions apply write-side; the deinterleave map is the inverse
    permutation, so scattering through it is the same as gathering the
    interleaved block back through the interleave map. Deinterleaving an
    interleaved block therefore restores the original order. A table that
    is not a permutation would drop a bit: it raises NotAPermutation.
    """
    if len(bits) != len(table.map):
        raise LengthMismatch(
            f"block of {len(bits)} bits against table of {len(table.map)}"
        )
    if not table.is_permutation():
        raise NotAPermutation("address table is not a permutation of its block")
    out = [0] * len(bits)
    for a, bit in zip(table.map, bits):
        out[a] = bit
    return out
