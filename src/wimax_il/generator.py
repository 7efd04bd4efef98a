"""Divider-free, multiplier-free deinterleaver address generator.

Emits k_j for j = 0, 1, ... one address per step using only counters,
constant adders, and comparators: the software model of a hardware block
in which floor(d*j/n_cbps)-style divisions are not realizable.

Counter scheme (all updated by add/subtract/compare only). Step j, which
emits k_j, starts with these invariants, and each update keeps them for j + 1:

    r, q        r = d*j mod n_cbps and q = floor(d*j / n_cbps): r += d
                each step, and one conditional subtract wraps r and bumps
                q, since d < n_cbps
    v           v = q mod s, advanced when q bumps and reset when it
                reaches s
    dv, dv_lo   dv = d*v and dv_lo = dv - d*s = d*(v - s), advanced by d
                with v and reset with it; they are registers so that the
                second-stage correction d*(m_j - j) is always one of two
                ready values
    tv          tv = s - v, the s_phase threshold at which the correction
                selects dv_lo instead of dv; it steps down as v steps up
    s_phase     s_phase = j mod s (compare-and-reset)

Each step computes u = r + (dv_lo if s_phase >= tv else dv) and emits
k = u + q; u stays in [0, n_cbps). The argument: reference gives
m_j = s*floor(j/s) + (j + q) mod s, and j = s*floor(j/s) + s_phase, so
m_j - j = (s_phase + v) mod s - s_phase. That is v while s_phase < tv and
v - s from there on, so the selected term is d*(m_j - j), and
u = d*m_j - q*n_cbps. Since n_cbps = d*rows, floor(d*x / n_cbps) =
floor(x / rows). As s divides rows, the group of s positions holding j and
m_j lies inside one run of rows positions, so floor(d*m_j / n_cbps) =
floor(d*j / n_cbps) = q. Hence u = d*m_j mod n_cbps is in [0, n_cbps), and
k_j = d*m_j - (n_cbps - 1)*q = u + q, with no further fix-up. The per-step
assert checks the range in debug runs, and the exhaustive
oracle-equivalence tests against reference.build_table pin the output.
After the block, j = n_cbps, so the invariants give the end state
(r, q, v, s_phase) = (0, d, d mod s, 0), which run asserts. The speed
datapath graph in cost_model is this circuit, its registers end the block
in the same state, and its tests run it against the same oracle.

Configuration-time constants (d, s, -d*s) are precomputed at reset;
the per-step datapath never divides or multiplies.

The op census, a Counter of add, sub, compare and select, is not kept
inside the loop: cost_model.op_census reads it off the speed graph, by
counting the operations live on each cycle of one block. The tests check
the loop's source, not the census, for division and multiplication.
"""
from __future__ import annotations

from collections import Counter

from .config import InterleaverConfig
from .reference import AddressTable, Direction


class OpCensus(Counter):
    """Datapath operation counts by kind (add, sub, compare, select); others read 0."""


def run(cfg: InterleaverConfig, census: OpCensus | None = None) -> AddressTable:
    """Drive the counter scheme over a whole block.

    The result is elementwise identical to
    reference.build_table(cfg, Direction.DEINTERLEAVE); exactly n_cbps
    steps are taken. The interleave direction, when needed, is obtained
    by inverting this table. When census is given, the block's operation
    counts, read off the speed datapath graph, are added to it.
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

    # one block from reset leaves the counters here
    assert (r, q, v, s_phase) == (0, d, d % s, 0)
    if census is not None:
        from .cost_model import op_census  # only a census needs the datapath model

        census.update(op_census(cfg))
    return AddressTable(cfg, Direction.DEINTERLEAVE, tuple(addresses))
