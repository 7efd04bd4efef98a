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

The op census, a Counter of add, sub, compare and select, is not kept
inside the loop. A block's branch counts are fixed by (n_cbps, d, s): d r
wraps, d//s v resets and n_cbps/s s_phase resets. _add_block_census writes
the operation totals from them in closed form, and run() asserts the
end-of-block counter values that pin its loop to those counts. The tests
check the loop's source, not the census, for division and multiplication.
"""
from __future__ import annotations

from collections import Counter

from .config import InterleaverConfig
from .reference import AddressTable, Direction


class OpCensus(Counter):
    """Datapath operation counts by kind (add, sub, compare, select); others read 0."""


def _add_block_census(census: OpCensus, n: int, d: int, s: int) -> None:
    """Add one n_cbps-step block's datapath operation counts to census."""
    wraps = d  # r gains d per step, d*n_cbps in all, and ends the block at 0
    v_resets = d // s  # v counts the wraps and resets on every s-th one
    v_advances = wraps - v_resets  # every other wrap advances dv, dv_lo, tv
    s_resets = n // s  # s_phase resets on every s-th step; s divides n_cbps
    # add, per step: r + dv/dv_lo, u + q, r + d, s_phase + 1, step counter + 1;
    #   per wrap: q + 1, v + 1; per v advance: dv + d, dv_lo + d
    # sub, per wrap: r - n_cbps; per v advance: tv - 1
    # compare, per step: s_phase >= tv, r >= n_cbps, s_phase == s; per wrap: v == s
    # select, per step: the dv/dv_lo select; per v reset: v, dv, dv_lo, tv load
    #   their reset values; per s_phase reset: s_phase loads 0
    census.update(
        add=5 * n + 2 * wraps + 2 * v_advances, sub=wraps + v_advances,
        compare=3 * n + wraps, select=n + 4 * v_resets + s_resets,
    )


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
            if v == s:
                v, dv, dv_lo, tv = 0, 0, neg_ds, s  # register resets
            else:
                dv += d
                dv_lo += d
                tv -= 1

        # advance the j-mod-s counter
        s_phase += 1
        if s_phase == s:
            s_phase = 0

    # the end state that fixes the branch counts _add_block_census assumes
    assert r == 0 and q == d and v == d % s and s_phase == 0
    if census is not None:
        _add_block_census(census, n, d, s)
    return AddressTable(cfg, Direction.DEINTERLEAVE, tuple(addresses))
