"""Command-line front end: gen, verify, burst, tradeoff.

Exit codes: 0 success, 1 verification failure, 2 usage/config error.
Verification commands never exit 0 when any check fails.

Each command imports only what it runs: the generator, burst and cost-model
modules are imported inside the handlers that use them. COMMANDS describes
every option once. A well-formed argv (a subcommand, then full long flags of
it, none twice, each value not starting with "-" and of the option's type
and choices) is parsed from it directly. argparse is imported, and the
parser built from COMMANDS, only for any other argv: help, abbreviations,
--flag=value, negative numbers, "--", repeated flags, unknown tokens, bad
values and an empty argv. So argparse alone prints help, usage and errors.
"""
from __future__ import annotations

import os
import stat
import sys
from collections.abc import Iterable
from functools import cache
from types import SimpleNamespace

from . import reference
from .config import DEFAULT_D, DEFAULT_UNIT_DELAY_NS, PRESETS, InterleaverConfig, preset
from .errors import InterleaverError, RangeError, TableFormatError
from .reference import Direction, build_table, invert_table
from .tablefile import read_table, serialize_table


def _write(path: str, text: str | Iterable[str]) -> None:
    """Write a text, or its chunks one at a time, to path.

    An existing file is overwritten in place and then cut to the new length,
    not truncated first: truncating frees the file's blocks only to allocate
    them again. If a write fails, the file is cut at what was written before
    the error goes on, so it holds a prefix of the new text and no byte of
    the old file. Targets other than regular files (/dev/null, a FIFO) are
    never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="\n") as fh:
        try:
            fh.writelines([text] if isinstance(text, str) else text)
            fh.flush()
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _same_file(a: str, b: str) -> bool:
    """Whether two paths name one file: by device and inode when both exist,
    so that hard links match too, and otherwise by their resolved paths."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def compare_variants(cfg: InterleaverConfig, unit_delay_ns: float):
    """cost_model.compare_variants, imported on the first trade-off report."""
    from .cost_model import compare_variants

    return compare_variants(cfg, unit_delay_ns)


def _resolve_config(args: SimpleNamespace) -> InterleaverConfig:
    explicit = [v for v in (args.ncbps, args.d, args.s) if v is not None]
    if args.preset is not None:
        if explicit:
            raise RangeError("give either --preset or --ncbps/--d/--s, not both")
        return preset(args.preset)
    if args.ncbps is None or args.s is None:
        raise RangeError("need --ncbps and --s (or --preset)")
    return InterleaverConfig(args.ncbps, args.d if args.d is not None else DEFAULT_D, args.s)


def cmd_gen(args: SimpleNamespace) -> tuple[int, str]:
    from . import generator

    cfg, direction = _resolve_config(args), Direction(args.dir)
    if args.engine == "reference":
        table = build_table(cfg, direction)
    else:
        table = generator.run(cfg)
        if direction is Direction.INTERLEAVE:
            table = invert_table(table)
    text = serialize_table(table)
    if args.out is None:
        return 0, text.rstrip("\n")
    _write(args.out, text)
    return 0, (
        f"wrote {cfg.n_cbps}-row {direction.value} table "
        f"({args.engine} engine) to {args.out}"
    )


def _verify_config(cfg: InterleaverConfig) -> tuple[str, bool]:
    """One row of the verification matrix."""
    from . import generator

    itab = build_table(cfg, Direction.INTERLEAVE)
    dtab = build_table(cfg, Direction.DEINTERLEAVE)
    bijective = itab.is_permutation() and dtab.is_permutation()
    n = cfg.n_cbps  # an address outside [0, n) inverts nothing
    inverse_ok = sum(1 for k, j in enumerate(itab.map) if 0 <= j < n and dtab.map[j] == k)
    incremental_ok = generator.run(cfg).map == dtab.map
    invert_ok = bijective and invert_table(itab).map == dtab.map
    # invert_ok holds only when both tables are permutations and dtab is
    # itab's inverse, which makes inverse n/n; so it decides both of those
    ok = incremental_ok and invert_ok
    row = (
        f"{cfg.as_text():<12} "
        f"bijective={'ok' if bijective else 'FAIL':<5} "
        f"inverse={inverse_ok}/{cfg.n_cbps} "
        f"incremental={'ok' if incremental_ok else 'FAIL':<5} "
        f"invert={'ok' if invert_ok else 'FAIL':<5} "
        f"{'PASS' if ok else 'FAIL'}"
    )
    return row, ok


def _verify_table(path: str) -> tuple[int, str]:
    """Check a table file: a permutation, and the reference table it names."""
    try:
        table = read_table(path)
    except (TableFormatError, OSError) as exc:
        return 1, f"FAIL {path}: {exc}"
    # build_table always gives a permutation, so a match needs no check; the
    # reference comes from the memo, since parse_table built it for the file
    matches = table.map == build_table(table.cfg, table.direction).map
    perm_ok = matches or table.is_permutation()
    lines = [f"permutation: {'ok' if perm_ok else 'FAIL'}"]
    if perm_ok:
        lines.append(f"matches reference: {'ok' if matches else 'FAIL'}")
    # a file equal to its reference is a permutation, so the match is the verdict
    lines.append(f"{'PASS' if matches else 'FAIL'} {path}")
    return 0 if matches else 1, "\n".join(lines)


def cmd_verify(args: SimpleNamespace) -> tuple[int, str]:
    config_given = any(v is not None for v in (args.ncbps, args.d, args.s, args.preset))
    if (args.table is not None) + args.all_presets + config_given > 1:
        raise RangeError("give one of --table, --all-presets and a config, not more")
    if args.table is not None:
        return _verify_table(args.table)
    cfgs = list(PRESETS.values()) if args.all_presets else [_resolve_config(args)]
    rows, oks = zip(*map(_verify_config, cfgs))
    verdict = "PASS" if all(oks) else "FAIL"
    summary = f"{verdict}: {sum(oks)}/{len(oks)} configs clean"
    return 0 if all(oks) else 1, "\n".join([*rows, summary])


def cmd_burst(args: SimpleNamespace) -> tuple[int, str]:
    from . import burst

    cfg = _resolve_config(args)
    if (args.b is None) == (args.sweep_max is None):
        raise RangeError("give exactly one of --b and --sweep-max")
    if None not in (args.out, args.json_out) and _same_file(args.out, args.json_out):
        raise RangeError(f"--out and --json-out name the same file, {args.out}")
    if args.b is not None:
        result = burst.burst_sweep(cfg, args.b)
    elif args.sweep_max < 1:
        raise RangeError("--sweep-max must be at least 1")
    else:
        result = burst.burst_sweep(cfg, 1, args.sweep_max)
    lines = burst.summary_lines(result)
    if args.out is not None:
        _write(args.out, burst.csv_chunks(result))
        lines.append(f"wrote CSV report to {args.out}")
    if args.json_out is not None:
        _write(args.json_out, burst.json_chunks(result))
        lines.append(f"wrote JSON report to {args.json_out}")
    return 0, "\n".join(lines)


def cmd_tradeoff(args: SimpleNamespace) -> tuple[int, str]:
    report = compare_variants(_resolve_config(args), args.unit_delay_ns)
    lines = [report.render_text()]
    if args.out is not None:
        _write(args.out, report.render_json())
        lines.append(f"wrote JSON report to {args.out}")
    return 0 if report.ok else 1, "\n".join(lines)


# The program's options, described once: per subcommand its help and its
# options, flag by flag in order, each with its add_argument keyword
# arguments; the config options come first. build_parser adds them to
# argparse; _parse_exact reads them directly.
CONFIG_OPTIONS = {
    "--ncbps": {"type": int, "help": "coded bits per OFDM symbol"},
    "--d": {"type": int, "help": f"column count (12 or 16; default {DEFAULT_D})"},
    "--s": {"type": int, "help": "significance parameter (1, 2, or 3)"},
    "--preset": {"choices": sorted(PRESETS), "help": "named configuration instead of the explicit triple"},
}
COMMANDS = {
    "gen": ("generate an address table file", {
        **CONFIG_OPTIONS,
        "--dir": {
            "choices": [d.value for d in Direction],
            "default": Direction.DEINTERLEAVE.value,
            "help": "permutation direction (default deinterleave)",
        },
        "--engine": {
            "choices": ["reference", "incremental"],
            "default": "reference",
            "help": "index math (reference) or counter generator (incremental)",
        },
        "--out": {"help": "output path (stdout when omitted)"},
    }),
    "verify": ("run invariant checks", {
        **CONFIG_OPTIONS,
        "--all-presets": {"action": "store_true", "default": False, "help": "verify every shipped preset"},
        "--table": {"help": "verify a table file instead"},
    }),
    "burst": ("burst-error dispersal sweep", {
        **CONFIG_OPTIONS,
        "--b": {"type": int, "help": "burst length to sweep"},
        "--sweep-max": {"type": int, "help": "sweep every burst length 1..M"},
        "--out": {"help": "CSV report path"},
        "--json-out": {"help": "JSON report path"},
    }),
    "tradeoff": ("area-vs-speed datapath report", {
        **CONFIG_OPTIONS,
        "--out": {"help": "JSON report path"},
        "--unit-delay-ns": {
            "type": float,
            "default": DEFAULT_UNIT_DELAY_NS,
            "help": f"combinational unit delay (default {DEFAULT_UNIT_DELAY_NS})",
        },
    }),
}


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for argv, when argv is a subcommand
    followed by full long flags of it, none twice, each flag that takes a
    value followed by one that does not start with "-" and passes the
    option's type and choices. None for any other argv: argparse alone
    parses it, refuses it or answers it with help."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        kwargs = options.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a flag at the end has no value
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0])
    for flag, kwargs in options.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, kwargs.get("default")))
    return args


@cache
def build_parser():
    """The program's argparse parser, built from COMMANDS once per process
    and shared by every call, so callers do not change it. Only an argv
    that _parse_exact declines needs it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="wimax-il",
        description=(
            "Bit-exact WiMAX (802.16e) interleaver/deinterleaver address "
            "tables, burst-dispersal reports, and datapath cost estimates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help)
        for flag, kwargs in options.items():
            command.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv) or build_parser().parse_args(argv, namespace=SimpleNamespace())
    try:
        # the handler is looked up on every call, so a patched cmd_<name> runs
        code, text = globals()[f"cmd_{args.command}"](args)
        print(text)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except (InterleaverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            # what is still buffered goes nowhere at exit, instead of failing again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        # no table outlives its command; cleared through the module, since
        # a patched cli.build_table has no memo
        reference.build_table.cache_clear()
    return code


if __name__ == "__main__":
    sys.exit(main())
