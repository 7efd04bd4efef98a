#!/usr/bin/env python3
"""Mutation sampler: does tier-1 notice when one token of the source changes?

    python3 tools/mutants.py src/wimax_il/tablefile.py --seed 0 --count 40

Each mutant changes one token of one source file: it flips a comparison
(< and <=, > and >=, == and !=), an arithmetic operator (+ and -, * to //,
// and / to *, % to //, ** to *, += and -=) or a boolean one (and and or),
or adds 1 to an int constant. Editing tokens in place, not rewriting the
syntax tree, keeps every comment and every other byte of the file; a flip
that would not parse (the * of *args, say) is never drawn. The seed draws
which of the sites the mutants are.

The whole run works on a copy of the tree, in a temporary directory that it
deletes at the end; the files in the tree are never written. It first runs
tier-1 on the unmutated copy, which must pass, then once per mutant:

    python -m pytest -x -q -p no:cacheprovider --hypothesis-seed=0 \
        --ignore=tests/test_mutants.py

A mutant is killed when that run fails or takes over three times as long as
the unmutated run (plus 30 s). A survivor listed in the allow-list file
(tools/mutants_allow.json: the known equivalent mutants, each with its
reason) is reported as known; the exit code is 1 when a survivor is new.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ALLOW = ROOT / "tools" / "mutants_allow.json"
# tier-1 without the sampler's own tests: they read the allow-listed lines as
# text, so they would fail on every mutant of such a line and kill it falsely
TIER1 = (
    "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
    "--ignore=tests/test_mutants.py",
)
# what building, testing and running leave in a tree; the copy needs none of it
SKIP = shutil.ignore_patterns(
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info", ".perfbench_out", "build"
)

FLIPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "*": "//", "//": "*", "/": "*", "%": "//", "**": "*",
    "+=": "-=", "-=": "+=", "and": "or", "or": "and",
}


class Mutant(NamedTuple):
    path: str  # relative to the tree's root
    row: int  # 1-based, as tokenize counts
    col: int
    old: str
    new: str


def apply(source: str, mutant: Mutant) -> str:
    """source with the mutant's one token replaced and every other byte kept."""
    lines = source.splitlines(True)
    line = lines[mutant.row - 1]
    end = mutant.col + len(mutant.old)
    if line[mutant.col:end] != mutant.old:
        raise ValueError(f"{mutant} does not match {line!r}")
    lines[mutant.row - 1] = line[:mutant.col] + mutant.new + line[end:]
    return "".join(lines)


def _replacement(token: tokenize.TokenInfo) -> str | None:
    if token.type in (tokenize.OP, tokenize.NAME) and token.string in FLIPS:
        return FLIPS[token.string]
    if token.type == tokenize.NUMBER:
        try:
            value = int(token.string, 0)
        except ValueError:  # a float or complex literal
            return None
        return str(value + 1)
    return None


def sites(source: str, path: str = "<fixture>") -> list[Mutant]:
    """Every mutant of source that still compiles, in source order."""
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        new = _replacement(token)
        if new is None:
            continue
        mutant = Mutant(path, *token.start, token.string, new)
        try:
            compile(apply(source, mutant), path, "exec", dont_inherit=True)
        except SyntaxError:
            continue
        found.append(mutant)
    return found


def key(source: str, mutant: Mutant) -> tuple[str, str, str]:
    """(path, line, mutated line), both lines stripped: how the allow-list
    names a mutant, so that it holds while other lines move."""
    before = source.splitlines()[mutant.row - 1]
    after = apply(source, mutant).splitlines()[mutant.row - 1]
    return mutant.path, before.strip(), after.strip()


def load_allowed() -> dict[tuple[str, str, str], str]:
    entries = json.loads(ALLOW.read_text(encoding="utf-8"))
    return {(e["path"], e["line"], e["mutant"]): e["reason"] for e in entries}


def draw(candidates: list[Mutant], seed: int, count: int) -> list[Mutant]:
    return random.Random(seed).sample(candidates, min(count, len(candidates)))


def run_tier1(tree: Path, timeout: float | None) -> tuple[bool, float]:
    """(passed, seconds) of tier-1 in tree; a run past timeout fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=tree, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files, relative to the repository root")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=40, help="mutants to draw (all sites if fewer)")
    args = parser.parse_args(argv)

    sources = {f: (ROOT / f).read_text(encoding="utf-8") for f in args.files}
    candidates = [m for f, source in sources.items() for m in sites(source, f)]
    chosen = draw(candidates, args.seed, args.count)
    allowed = load_allowed()
    print(f"{len(chosen)} of {len(candidates)} sites drawn with seed {args.seed}", flush=True)

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        passed, seconds = run_tier1(tree, None)
        if not passed:
            print("tier-1 fails on the unmutated copy; no mutant run")
            return 2
        timeout = 3 * seconds + 30
        killed, known, new = 0, 0, []
        for mutant in chosen:
            source = sources[mutant.path]
            (tree / mutant.path).write_text(apply(source, mutant), encoding="utf-8")
            try:
                survived, _ = run_tier1(tree, timeout)
            finally:
                (tree / mutant.path).write_text(source, encoding="utf-8")
            name = key(source, mutant)
            where = f"{mutant.path}:{mutant.row}: {name[1]}  ->  {name[2]}"
            if not survived:
                killed += 1
                print(f"killed    {where}", flush=True)
            elif name in allowed:
                known += 1
                print(f"known     {where}  ({allowed[name]})", flush=True)
            else:
                new.append(where)
                print(f"SURVIVED  {where}", flush=True)
    print(f"{len(chosen)} mutants: {killed} killed, {known} known equivalent, {len(new)} new survivors")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
