"""Command-line front end: gen, verify, burst, tradeoff.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Verification commands never exit 0 when any check fails.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from . import burst as burst_mod
from . import generator
from .config import PRESETS, InterleaverConfig, preset, validate_config
from .cost_model import DEFAULT_UNIT_DELAY_NS, compare_variants
from .errors import InterleaverError, RangeError, TableFormatError
from .reference import AddressTable, Direction, build_table, invert_table
from .tablefile import read_table, serialize_table


@dataclass
class CommandOutcome:
    exit_code: int
    summary: str


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _engine_table(
    cfg: InterleaverConfig, direction: Direction, engine: str
) -> AddressTable:
    if engine == "reference":
        return build_table(cfg, direction)
    table = generator.run(cfg)
    if direction is Direction.INTERLEAVE:
        table = invert_table(table)
    return table


def cmd_gen(
    cfg: InterleaverConfig,
    direction: Direction,
    engine: str,
    out: str | None,
) -> CommandOutcome:
    table = _engine_table(cfg, direction, engine)
    text = serialize_table(table)
    if out is None:
        return CommandOutcome(0, text.rstrip("\n"))
    _write(out, text)
    return CommandOutcome(
        0,
        f"wrote {cfg.n_cbps}-row {direction.value} table ({engine} engine) to {out}",
    )


def _verify_config(cfg: InterleaverConfig) -> tuple[str, bool]:
    """One row of the verification matrix."""
    itab = build_table(cfg, Direction.INTERLEAVE)
    dtab = build_table(cfg, Direction.DEINTERLEAVE)
    bijective = itab.is_permutation() and dtab.is_permutation()
    inverse_ok = sum(1 for k in range(cfg.n_cbps) if dtab.map[itab.map[k]] == k)
    incremental_ok = generator.run(cfg).map == dtab.map
    invert_ok = invert_table(itab).map == dtab.map
    ok = (
        bijective
        and inverse_ok == cfg.n_cbps
        and incremental_ok
        and invert_ok
    )
    row = (
        f"{cfg.as_text():<12} "
        f"bijective={'ok' if bijective else 'FAIL':<5} "
        f"inverse={inverse_ok}/{cfg.n_cbps} "
        f"incremental={'ok' if incremental_ok else 'FAIL':<5} "
        f"invert={'ok' if invert_ok else 'FAIL':<5} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return row, ok


def cmd_verify(
    cfgs: list[InterleaverConfig] | None = None,
    table_path: str | None = None,
) -> CommandOutcome:
    if table_path is not None:
        try:
            table = read_table(table_path)
        except (TableFormatError, OSError) as exc:
            return CommandOutcome(1, f"FAIL {table_path}: {exc}")
        checks = []
        perm_ok = table.is_permutation()
        checks.append(("permutation", perm_ok))
        if perm_ok:
            expected = build_table(table.cfg, table.direction)
            checks.append(("matches reference", table.map == expected.map))
        lines = [f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks]
        all_ok = all(ok for _, ok in checks)
        verdict = "PASS" if all_ok else "FAIL"
        summary = "\n".join(lines + [f"{verdict} {table_path}"])
        return CommandOutcome(0 if all_ok else 1, summary)

    assert cfgs
    rows, oks = [], []
    for cfg in cfgs:
        row, ok = _verify_config(cfg)
        rows.append(row)
        oks.append(ok)
    verdict = "PASS" if all(oks) else "FAIL"
    rows.append(f"{verdict}: {sum(oks)}/{len(oks)} configs clean")
    return CommandOutcome(0 if all(oks) else 1, "\n".join(rows))


def cmd_burst(
    cfg: InterleaverConfig,
    b: int | None,
    sweep_max: int | None,
    out: str | None = None,
    json_out: str | None = None,
) -> CommandOutcome:
    if (b is None) == (sweep_max is None):
        raise RangeError("give exactly one of --b and --sweep-max")
    if b is not None:
        result = burst_mod.burst_sweep(cfg, b)
    elif sweep_max < 1:
        raise RangeError("--sweep-max must be at least 1")
    else:
        result = burst_mod.burst_sweep(cfg, 1, sweep_max)
    lines = burst_mod.summary_lines(result)
    if out:
        _write(out, burst_mod.render_csv(result))
        lines.append(f"wrote CSV report to {out}")
    if json_out:
        _write(json_out, burst_mod.render_json(result))
        lines.append(f"wrote JSON report to {json_out}")
    return CommandOutcome(0, "\n".join(lines))


def cmd_tradeoff(
    cfg: InterleaverConfig,
    out: str | None = None,
    unit_delay_ns: float = DEFAULT_UNIT_DELAY_NS,
) -> CommandOutcome:
    report = compare_variants(cfg, unit_delay_ns)
    lines = [report.render_text()]
    if out:
        _write(out, report.render_json())
        lines.append(f"wrote JSON report to {out}")
    return CommandOutcome(0 if report.ok else 1, "\n".join(lines))


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ncbps", type=int, help="coded bits per OFDM symbol")
    p.add_argument("--d", type=int, default=None, help="column count (12 or 16; default 16)")
    p.add_argument("--s", type=int, help="significance parameter (1, 2, or 3)")
    p.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="named configuration instead of the explicit triple",
    )


def _resolve_config(args: argparse.Namespace) -> InterleaverConfig:
    explicit = [v for v in (args.ncbps, args.d, args.s) if v is not None]
    if args.preset is not None:
        if explicit:
            raise RangeError("give either --preset or --ncbps/--d/--s, not both")
        return preset(args.preset)
    if args.ncbps is None or args.s is None:
        raise RangeError("need --ncbps and --s (or --preset)")
    return validate_config(args.ncbps, args.d if args.d is not None else 16, args.s)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wimax-il",
        description=(
            "Bit-exact WiMAX (802.16e) interleaver/deinterleaver address "
            "tables, burst-dispersal reports, and datapath cost estimates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an address table file")
    _add_config_args(p_gen)
    p_gen.add_argument(
        "--dir",
        choices=[d.value for d in Direction],
        default=Direction.DEINTERLEAVE.value,
        help="permutation direction (default deinterleave)",
    )
    p_gen.add_argument(
        "--engine",
        choices=["reference", "incremental"],
        default="reference",
        help="index math (reference) or counter generator (incremental)",
    )
    p_gen.add_argument("--out", help="output path (stdout when omitted)")

    p_verify = sub.add_parser("verify", help="run invariant checks")
    _add_config_args(p_verify)
    p_verify.add_argument(
        "--all-presets", action="store_true", help="verify every shipped preset"
    )
    p_verify.add_argument("--table", help="verify a table file instead")

    p_burst = sub.add_parser("burst", help="burst-error dispersal sweep")
    _add_config_args(p_burst)
    p_burst.add_argument("--b", type=int, help="burst length to sweep")
    p_burst.add_argument(
        "--sweep-max", type=int, help="sweep every burst length 1..M"
    )
    p_burst.add_argument("--out", help="CSV report path")
    p_burst.add_argument("--json-out", help="JSON report path")

    p_trade = sub.add_parser("tradeoff", help="area-vs-speed datapath report")
    _add_config_args(p_trade)
    p_trade.add_argument("--out", help="JSON report path")
    p_trade.add_argument(
        "--unit-delay-ns",
        type=float,
        default=DEFAULT_UNIT_DELAY_NS,
        help=f"combinational unit delay (default {DEFAULT_UNIT_DELAY_NS})",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            outcome = cmd_gen(
                _resolve_config(args),
                Direction(args.dir),
                args.engine,
                args.out,
            )
        elif args.command == "verify":
            if args.table is not None:
                outcome = cmd_verify(table_path=args.table)
            elif args.all_presets:
                outcome = cmd_verify(cfgs=list(PRESETS.values()))
            else:
                outcome = cmd_verify(cfgs=[_resolve_config(args)])
        elif args.command == "burst":
            outcome = cmd_burst(
                _resolve_config(args),
                args.b,
                args.sweep_max,
                args.out,
                args.json_out,
            )
        else:
            outcome = cmd_tradeoff(
                _resolve_config(args), args.out, args.unit_delay_ns
            )
    except (InterleaverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(outcome.summary)
    return outcome.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
