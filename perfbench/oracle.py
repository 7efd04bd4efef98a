"""Independent model of the 802.16e channel interleaver, used to check outputs.

Nothing here imports wimax_il. The permutation comes straight from the
standard's two-step definition, the table text from the format the README
documents, and the burst figures from first principles, so a fault in one of
the program's engines cannot hide behind the same fault in its check.
"""
from __future__ import annotations

FORMAT_LINE = "# wimax-il address table v1"
RS_LIMIT = 8  # longest run of consecutive bit errors reported as correctable

PRESETS = {"qpsk": (192, 16, 1), "qam16": (384, 16, 2), "qam64": (576, 16, 3)}


def interleave_map(n: int, d: int, s: int) -> list[int]:
    """pi[k]: channel position of coded bit k.

    First step: bits are written row by row into d columns and read column by
    column. Second step: within each group of s consecutive positions the bits
    rotate by the column index, alternating constellation significances.
    """
    rows = n // d
    pi = []
    for k in range(n):
        m = rows * (k % d) + k // d
        pi.append(s * (m // s) + (m + n - m // rows) % s)
    if sorted(pi) != list(range(n)):
        raise ValueError(f"two-step map for ({n},{d},{s}) is not a permutation")
    return pi


def inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


def table_text(n: int, d: int, s: int, direction: str, mapping: list[int]) -> str:
    """Canonical table file: three header lines, then one "index,address" row
    per bit, every line ending in a single newline."""
    lines = [FORMAT_LINE, f"# ncbps={n} d={d} s={s}", f"# direction={direction}"]
    lines += [f"{i},{a}" for i, a in enumerate(mapping)]
    return "\n".join(lines) + "\n"


def scatter(mapping: list[int], bits: list[int]) -> list[int]:
    """Write-side application of a table: out[mapping[i]] = bits[i]."""
    out = [0] * len(bits)
    for i, a in enumerate(mapping):
        out[a] = bits[i]
    return out


def burst_rows(dmap: list[int], b: int) -> list[tuple[int, int, int, int, int]]:
    """(start, b, max_run, min_spacing, rs_correctable) for every burst of b
    consecutive channel bits that fits in the block, mapped back through the
    deinterleave map dmap (channel position -> original position)."""
    rows = []
    for start in range(len(dmap) - b + 1):
        hit = sorted(dmap[start:start + b])
        gaps = [y - x for x, y in zip(hit, hit[1:])]
        run = best = 1
        for g in gaps:
            run = run + 1 if g == 1 else 1
            best = max(best, run)
        rows.append((start, b, best, min(gaps, default=0), int(best <= RS_LIMIT)))
    return rows


def tradeoff_problems(payload: dict) -> list[str]:
    """Check a tradeoff JSON report: the model orderings, and the published
    comparison percentages recomputed from the report's own input columns."""
    problems = []
    area, speed = payload["model"]["area"], payload["model"]["speed"]
    if not speed["critical_path_depth"] < area["critical_path_depth"]:
        problems.append("speed depth is not below area depth")
    if speed["register_count"] != area["register_count"] + 1:
        problems.append("speed registers != area registers + 1")
    ref = payload["paper_reference"]
    pairs = {
        "slices_pct": ("comparison_slices_pct", "upadhyaya_slices_pct", "printed_slices_reduction_pct"),
        "ff_pct": ("comparison_ff_pct", "upadhyaya_ff_pct", "printed_ff_reduction_pct"),
        "lut_pct": ("comparison_lut_pct", "upadhyaya_lut_pct", "printed_lut_reduction_pct"),
        "fmax_pct": ("comparison_fmax_mhz", "upadhyaya_fmax_mhz", "printed_fmax_increase_pct"),
    }
    reported = {row["name"]: row for row in payload.get("comparison_check", [])}
    for name, (ours, theirs, printed) in pairs.items():
        got = 100.0 * (ref[ours] - ref[theirs]) / ref[theirs]
        if abs(got - ref[printed]) > 0.1:
            problems.append(f"{name}: recomputed {got:.3f} vs printed {ref[printed]}")
        row = reported.get(name)
        if row is None or abs(row["recomputed"] - got) > 1e-9 or row["pass"] is not True:
            problems.append(f"{name}: report's comparison_check row disagrees")
    return problems
