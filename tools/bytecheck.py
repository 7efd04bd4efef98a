#!/usr/bin/env python3
"""Check that two commits write the same bytes, family by family:

    python3 tools/bytecheck.py PARENT CHANGE

Each commit is written with git archive to a temporary directory, as
tools/benchpairs.py writes it, and this file's corpus runs against each
tree's src/ in a fresh process, so that both trees run one corpus. Every
command goes through cli.main in an empty working directory; its argv,
exit code, stdout, stderr and each file it wrote, by name, feed its
family's SHA-256. The families, on every valid config of up to 768 bits
(203 configs; the tests pass a smaller bound):

- burst: burst --sweep-max min(10, n_cbps) with a CSV and a JSON report;
- blocks: the text of csv_chunks and json_chunks, called directly, on
  the sweeps of lengths 1..5, 3..9 and n_cbps - 2..n_cbps, with
  burst.BLOCK_ROWS set to 1, 2, 3, 7 and 64, on every config of up to 96
  bits (or the smaller bound);
- long: both reports of burst --sweep-max 3 on (9216,16,3) and (9216,12,1)
  and of burst --b 128 on (65536,16,1), lengths of several blocks;
- gen: gen in both directions with both engines, to a file, and the
  reference deinterleave table to stdout;
- verify: verify of each config;
- tradeoff: tradeoff --out of each config.

It prints one SHA-256 per family and tree, then the families that differ,
and exits 1 if any does. The tier-1 golden digests stay the contract; this
is the check that a change meant to keep every byte keeps them.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchpairs import ROOT, SIDES, archive  # noqa: E402

LONG = (
    ("--ncbps", "9216", "--d", "16", "--s", "3", "--sweep-max", "3"),
    ("--ncbps", "9216", "--d", "12", "--s", "1", "--sweep-max", "3"),
    ("--ncbps", "65536", "--d", "16", "--s", "1", "--b", "128"),
)
BLOCK_ROWS = (1, 2, 3, 7, 64)
REPORTS = ("--out", "r.csv", "--json-out", "r.json")


def valid_configs(max_n: int) -> list:
    """Every config the tree's InterleaverConfig accepts, n_cbps <= max_n."""
    from wimax_il.config import ALLOWED_D, ALLOWED_S, InterleaverConfig

    return [
        InterleaverConfig(n, d, s)
        for d in ALLOWED_D
        for n in range(2 * d, max_n + 1, d)
        for s in ALLOWED_S
        if (n // d) % s == 0
    ]


def digests(max_n: int) -> dict[str, str]:
    """Each family's SHA-256, run in the current directory against the
    wimax_il on sys.path."""
    from wimax_il import burst
    from wimax_il.cli import main

    hashes = {}

    def run(family: str, argv: list[str]) -> None:
        for name in os.listdir():
            os.remove(name)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        feed = hashes.setdefault(family, hashlib.sha256()).update
        feed(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
        for name in sorted(os.listdir()):
            feed(name.encode() + b"\0" + Path(name).read_bytes())

    configs = valid_configs(max_n)
    for cfg in configs:
        triple = ["--ncbps", str(cfg.n_cbps), "--d", str(cfg.d), "--s", str(cfg.s)]
        run("burst", ["burst", *triple, "--sweep-max", str(min(10, cfg.n_cbps)), *REPORTS])
        for direction in ("deinterleave", "interleave"):
            for engine in ("reference", "incremental"):
                run("gen", ["gen", *triple, "--dir", direction, "--engine", engine, "--out", "t.txt"])
        run("gen", ["gen", *triple])
        run("verify", ["verify", *triple])
        run("tradeoff", ["tradeoff", *triple, "--out", "t.json"])
    for argv in LONG:
        run("long", ["burst", *argv, *REPORTS])
    feed = hashes.setdefault("blocks", hashlib.sha256()).update
    kept = burst.BLOCK_ROWS
    try:
        for rows in BLOCK_ROWS:
            burst.BLOCK_ROWS = rows
            for cfg in valid_configs(min(max_n, 96)):
                n = cfg.n_cbps
                for first, last in ((1, 5), (3, 9), (n - 2, n)):
                    result = burst.burst_sweep(cfg, first, last)
                    for writer in (burst.csv_chunks, burst.json_chunks):
                        feed("".join(writer(result)).encode())
    finally:
        burst.BLOCK_ROWS = kept
    return {family: h.hexdigest() for family, h in sorted(hashes.items())}


def tree_digests(tree: Path, max_n: int) -> dict[str, str]:
    """digests(max_n) of tree's src/, in a fresh process and an empty
    directory."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="bytecheck-run-") as work:
        done = subprocess.run(
            [sys.executable, __file__, "--digests", str(max_n)],
            cwd=work, env=env, capture_output=True, text=True,
        )
    if done.returncode:
        raise SystemExit(f"the corpus failed in {tree.name}:\n{done.stderr}")
    return json.loads(done.stdout)


def bytecheck(repo: Path, parent: str, change: str, max_n: int = 768) -> int:
    """Print each family's digest, parent then change of repo, and the
    families that differ; 1 if any does, else 0."""
    with tempfile.TemporaryDirectory(prefix="bytecheck-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side, commit in zip(SIDES, (parent, change)):
            archive(repo, commit, trees[side])
        was, now = (tree_digests(trees[side], max_n) for side in SIDES)
    differ = [family for family in was.keys() | now.keys() if was.get(family) != now.get(family)]
    for family in sorted(was.keys() | now.keys()):
        print(f"{family}: {was.get(family)} -> {'same' if family not in differ else now.get(family)}")
    if differ:
        print(f"differ: {', '.join(sorted(differ))}")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--digests", type=int, metavar="N", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digests is not None:  # the child process, in its tree
        print(json.dumps(digests(args.digests)))
        return 0
    if args.change is None:
        parser.error("give PARENT and CHANGE")
    return bytecheck(ROOT, args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
