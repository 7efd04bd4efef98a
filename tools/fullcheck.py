#!/usr/bin/env python3
"""Check every block the CLI admits, not a sample of them:

    python3 tools/fullcheck.py

On every valid config up to MAX_NCBPS (17,518 configs), generator.run must
give build_table's deinterleave map, and invert_table of it build_table's
interleave map. deinterleave_index and interleave_index, the per-index
oracle, must agree with those maps on a sample of indices per config: the
first and last s channel positions of each column (the ends of column c's
run rows*c .. rows*(c + 1) - 1), the first and last s bits of each column
(k = c + d*r at the first and last s rows r), and SAMPLE more indices drawn
by a generator seeded with the config. The whole run takes minutes, so it is
not part of tier-1, which checks the same engines up to 2304 bits and on the
largest admitted blocks. It prints each mismatch, then the configs,
addresses and seconds, and exits 1 on any mismatch.
"""
from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wimax_il.config import ALLOWED_D, ALLOWED_S, MAX_NCBPS, InterleaverConfig  # noqa: E402
from wimax_il.generator import run  # noqa: E402
from wimax_il.reference import (  # noqa: E402
    Direction,
    build_table,
    deinterleave_index,
    interleave_index,
    invert_table,
)

# seeded indices per config, on top of the column ends
SAMPLE = 32


def valid_configs(max_n: int = MAX_NCBPS) -> list[InterleaverConfig]:
    """Every (n_cbps, d, s) that InterleaverConfig accepts, n_cbps <= max_n."""
    return [
        InterleaverConfig(n, d, s)
        for d in ALLOWED_D
        for n in range(2 * d, max_n + 1, d)
        for s in ALLOWED_S
        if (n // d) % s == 0
    ]


def index_sample(cfg: InterleaverConfig) -> list[int]:
    """The indices the per-index oracle is asked for, sorted: each column's
    first and last s channel positions and bits, and SAMPLE seeded ones."""
    n, d, s, rows = cfg.n_cbps, cfg.d, cfg.s, cfg.rows
    ends = [*range(s), *range(rows - s, rows)]
    picked = {rows * c + r for c in range(d) for r in ends}
    picked |= {c + d * r for c in range(d) for r in ends}
    picked.update(random.Random(cfg.as_text()).sample(range(n), min(SAMPLE, n)))
    return sorted(picked)


def check(cfg: InterleaverConfig) -> list[str]:
    """What disagrees on cfg, one line each; empty when every engine agrees."""
    deinterleave = build_table(cfg, Direction.DEINTERLEAVE).map
    interleave = build_table(cfg, Direction.INTERLEAVE).map
    bad = []
    generated = run(cfg)
    if generated.map != deinterleave:
        bad.append(f"{cfg.as_text()}: generator.run differs from build_table")
    if invert_table(generated).map != interleave:
        bad.append(f"{cfg.as_text()}: invert_table differs from build_table")
    for i in index_sample(cfg):
        if deinterleave_index(cfg, i) != deinterleave[i]:
            bad.append(f"{cfg.as_text()}: deinterleave_index({i}) differs from build_table")
        if interleave_index(cfg, i) != interleave[i]:
            bad.append(f"{cfg.as_text()}: interleave_index({i}) differs from build_table")
    return bad


def main() -> int:
    start = time.perf_counter()
    configs = valid_configs()
    mismatches = 0
    for cfg in configs:
        for line in check(cfg):
            mismatches += 1
            print(line, flush=True)
    addresses = sum(cfg.n_cbps for cfg in configs)
    seconds = time.perf_counter() - start
    print(
        f"{len(configs)} configs, {addresses} addresses per engine, "
        f"{mismatches} mismatches, {seconds:.1f} s"
    )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
