"""Divider-free, multiplier-free deinterleaver address generator.

Emits k_j for j = 0, 1, ... one address per step using only counters,
constant adders, and comparators: the software model of a hardware block
in which floor(d*j/n_cbps)-style divisions are not realizable.

Counter scheme (all updated by add/subtract/compare only):

    r, q        running remainder/quotient of d*j by n_cbps
                (r += d each step; one conditional subtract wraps r and
                bumps q, since d < n_cbps)
    s_phase     j mod s (compare-and-reset)
    v           q mod s, advanced when q bumps
    dv, dv_lo   d*v and d*(v - s), kept as registers so the second-stage
                correction d*(m_j - j) is always one of two ready values
    tv          s - v, the s_phase threshold at which the correction
                selects dv_lo instead of dv

Each step computes u = r + (dv_lo if s_phase >= tv else dv) and emits
k = u + q. Because s divides the row count n_cbps/d, u always lands in
[0, n_cbps) and q is exactly floor(d*m_j/n_cbps), so no further fix-up is
needed; this is asserted in debug runs and pinned by the exhaustive
oracle-equivalence tests against reference.build_table. Only input/output
equivalence with the modeled circuit is claimed, not its internal wiring.

Configuration-time constants (d, s, -d*s) are precomputed at reset;
the per-step datapath never divides or multiplies.

The op census is not kept inside the loop. The loop counts its three
branch events (r wraps, v resets, s_phase resets), and EVENT_OPS turns
those counts into operation totals: each row is the datapath work one
occurrence of that event costs.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, fields

from .config import InterleaverConfig
from .reference import AddressTable, Direction


@dataclass
class OpCensus:
    """Operation counts accumulated over generator steps.

    add/sub/compare/select cover the address-computation datapath,
    including the step counter increment. div, mul, and generic_floor are
    present so their absence is visible: the counter loop has none.
    """

    add: int = 0
    sub: int = 0
    compare: int = 0
    select: int = 0
    div: int = 0
    mul: int = 0
    generic_floor: int = 0

    def total(self) -> int:
        return sum(astuple(self))


# Datapath operations per occurrence of each event in run()'s loop.
EVENT_OPS = {
    # r + dv/dv_lo, u + q, r + d, s_phase + 1, step counter + 1 (add 5);
    # s_phase >= tv, r >= n_cbps, s_phase == s (compare 3);
    # the dv/dv_lo correction (select 1)
    "step": OpCensus(add=5, compare=3, select=1),
    # r - n_cbps (sub 1); q + 1, v + 1 (add 2); v == s (compare 1)
    "wrap": OpCensus(add=2, sub=1, compare=1),
    # v, dv, dv_lo, tv load their reset values (select 4)
    "v_reset": OpCensus(select=4),
    # dv + d, dv_lo + d (add 2); tv - 1 (sub 1)
    "v_advance": OpCensus(add=2, sub=1),
    # s_phase loads 0 (select 1)
    "s_reset": OpCensus(select=1),
}


def _tally(census: OpCensus, counts: dict[str, int]) -> None:
    """Add counts[event] times EVENT_OPS[event] to census, for every event."""
    for event, ops in EVENT_OPS.items():
        for f in fields(OpCensus):
            total = getattr(census, f.name) + counts[event] * getattr(ops, f.name)
            setattr(census, f.name, total)


def run(cfg: InterleaverConfig, census: OpCensus | None = None) -> AddressTable:
    """Drive the counter scheme over a whole block.

    The result is elementwise identical to
    reference.build_table(cfg, Direction.DEINTERLEAVE); exactly n_cbps
    steps are taken. The interleave direction, when needed, is obtained
    by inverting this table. When census is given, the block's operation
    counts are added to it.
    """
    n, d, s = cfg.n_cbps, cfg.d, cfg.s
    neg_ds = -(d * s)  # wired constant, the dv_lo reset value
    r = q = v = dv = s_phase = 0
    dv_lo, tv = neg_ds, s
    wraps = v_resets = s_resets = 0
    addresses = []
    emit = addresses.append
    for _ in range(n):
        # address for the current j: u = d*m_j mod n, q = floor(d*m_j / n)
        u = r + (dv_lo if s_phase >= tv else dv)
        assert 0 <= u < n, "correction term left [0, n_cbps); config invariants broken"
        emit(u + q)

        # advance the d*j remainder/quotient pair and the q-mod-s trackers
        r += d
        if r >= n:
            r -= n
            q += 1
            v += 1
            wraps += 1
            if v == s:
                v, dv, dv_lo, tv = 0, 0, neg_ds, s  # register resets
                v_resets += 1
            else:
                dv += d
                dv_lo += d
                tv -= 1

        # advance the j-mod-s counter
        s_phase += 1
        if s_phase == s:
            s_phase = 0
            s_resets += 1

    if census is not None:
        counts = {
            "step": n,
            "wrap": wraps,
            "v_reset": v_resets,
            "v_advance": wraps - v_resets,
            "s_reset": s_resets,
        }
        _tally(census, counts)
    return AddressTable(cfg, Direction.DEINTERLEAVE, tuple(addresses))
