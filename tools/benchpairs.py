#!/usr/bin/env python3
"""Alternating benchmark pairs of two commits, written as one BENCH file:

    python3 tools/benchpairs.py PARENT CHANGE --pr N \\
        --pairs sweep=10 --pairs tables=3 --pairs cold=3 --first-seed 3401

Each commit is written with git archive to a temporary directory, so that a
run sees that commit's committed files alone. Both commits must hold the
same BENCHMARK.json and the same files under its paths, so that a change is
measured by its parent's benchmark: the tool refuses to run otherwise, and
reads the command, run_seconds and bounds from the parent's copy. The plan
is fixed before the first run: pair i of a workload has seed first-seed + i
(counting on across the workloads in the order given), and the parent goes
first in even pairs, the change in odd ones. Each run is the benchmark's own
command with --workload, --seed, --seconds run_seconds and --trace 0, in the
directory of its commit.

The output, BENCH_<pr>.json in the repository, holds the commits, Python
version, CPU count, the plan, every run's result line and, per workload and
end-to-end metric: the medians and quartiles of each side, the change's gain
over the parent (positive is better), the pairs in which the change reads
better, the median gap over the parent's interquartile range, whether that
shows a gain (at least ten pairs, better in nine tenths of them and a gap
over the range), the metric's bound, read from BENCHMARK.json and never
written, and a verdict. The verdict is unresolved when the parent's spread
is over the bound, unless every change run reads better than every parent
run; the spread is the width of the distribution-free confidence interval
of the parent's median, at least 95% where the pairs allow one and min to
max where they do not, over that median. pairs_needed_estimate then guesses
how many pairs would bring it under the bound at the same scatter, assuming
the interval narrows as one over the root of the pairs, an assumption this
tool does not check; it never names fewer than FEWEST_NARROWING_PAIRS, the
fewest runs whose interval is narrower than min to max. Otherwise the
verdict is crossed when the change's median is worse than the parent's by
more than the bound, and passed when it is not. The file is rewritten after
every run, so that a run cut short keeps what it measured.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def archive(repo: Path, commit: str, into: Path) -> None:
    """The committed files of commit, written under into."""
    into.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(repo), "archive", commit], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)


def plan(pairs: dict[str, int], first_seed: int) -> list[dict]:
    seeds = iter(range(first_seed, first_seed + sum(pairs.values())))
    return [
        {"workload": w, "pair": i, "seed": next(seeds), "first": SIDES[i % 2]}
        for w, count in pairs.items() for i in range(count)
    ]


def run_once(tree: Path, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree: its exit code and its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit": done.returncode, "result": result, "stderr": done.stderr[-2000:] if result is None else ""}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def median_interval(values: list[float]) -> tuple[float, float]:
    """The distribution-free confidence interval of the median, from order
    statistics: the narrowest [x_(k), x_(n - k + 1)] holding the median with
    probability at least 95%, or [min, max] when no k does."""
    ordered, n = sorted(values), len(values)
    k = 1
    while k < n // 2 and 1 - 2 * sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n >= 0.95:
        k += 1
    return ordered[k - 1], ordered[n - k]


# the fewest runs whose median interval is narrower than min to max
FEWEST_NARROWING_PAIRS = next(n for n in range(2, 100) if median_interval(list(range(n))) != (0, n - 1))


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The figures and the verdict of one metric over paired runs: parent[i]
    and change[i] are pair i."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    lo, hi = median_interval(parent)
    spread = (hi - lo) / abs(pm) if pm else math.inf
    gain = sign * (cm - pm) / abs(pm) if pm else None
    figures = {
        "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
        "change_median": cm, "change_q1": c1, "change_q3": c3,
        "gain": gain,
        "better_in_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
        "gain_over_parent_iqr": sign * (cm - pm) / (p3 - p1) if p3 > p1 else None,
        "bound": bound,
        "parent_spread": spread,
    }
    figures["gain_shown"] = (
        len(parent) >= 10 and figures["better_in_pairs"] >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
    )
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not every_run_better:
        figures["verdict"] = "unresolved"
        figures["pairs_needed_estimate"] = (
            max(FEWEST_NARROWING_PAIRS, math.ceil(len(parent) * (spread / bound) ** 2)) if spread < math.inf else None
        )
    else:
        figures["verdict"] = "crossed" if -gain > bound else "passed"
    return figures


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: whether every run was correct, the share of operations
    that failed on each side, and judge's figures for each metric, over the
    pairs that have both runs."""
    by_workload: dict[str, dict[int, dict]] = {}
    for run in runs:
        by_workload.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    summary = {}
    for workload, pairs in by_workload.items():
        done = [p for _, p in sorted(pairs.items()) if all(p.get(side) for side in SIDES)]
        results = [run["result"] for run in runs if run["workload"] == workload]
        entry = {
            "pairs": len(done),
            "correct": all(r is not None and r["correct"] for r in results),
            "failed_share": {
                side: sum(p[side]["failed"] for p in done) / max(1, sum(p[side]["attempted"] for p in done))
                for side in SIDES
            },
            "metrics": {},
        }
        for metric in metrics if done else ():
            name = metric["name"]
            parent, change = ([p[side]["metrics"][name]["value"] for p in done] for side in SIDES)
            entry["metrics"][name] = judge(parent, change, metric["better"], metric["bound"])
        summary[workload] = entry
    return summary


def bench_pairs(repo: Path, out: Path, parent: str, change: str, pairs: dict[str, int],
                first_seed: int, pr: int) -> dict:
    """Run pairs (workload -> pair count) of the commits parent and change of
    repo, writing their record to out after every run, and return it."""
    commits = {
        side: subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                             check=True, capture_output=True, text=True).stdout.strip()
        for side, rev in zip(SIDES, (parent, change))
    }
    with tempfile.TemporaryDirectory(prefix="benchpairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            archive(repo, commits[side], trees[side])
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        benchmark = ["BENCHMARK.json", *spec["paths"]]
        if subprocess.run(["git", "-C", str(repo), "diff", "--quiet", *commits.values(), "--", *benchmark]).returncode:
            raise SystemExit(f"refused: the commits differ in {', '.join(benchmark)}")
        seconds = spec["run_seconds"]
        record = {
            "pr": pr,
            "commits": commits,
            "python": sys.version.split()[0],
            "cpu_count": os.cpu_count(),
            "command": [*spec["command"], "--workload", "W", "--seed", "S", "--seconds", str(seconds), "--trace", "0"],
            "seconds": seconds,
            "plan": plan(pairs, first_seed),
            "runs": [],
            "summary": {},
        }
        for step in record["plan"]:
            order = SIDES if step["first"] == "parent" else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], spec["command"], step["workload"], step["seed"], seconds)
                record["runs"].append({"workload": step["workload"], "pair": step["pair"],
                                       "seed": step["seed"], "side": side, **run})
                record["summary"] = summarize(record["runs"], spec["end_to_end"])
                out.write_text(json.dumps(record, indent=1) + "\n")
                value = {m: v["value"] for m, v in (run["result"] or {}).get("metrics", {}).items()}
                print(f"{step['workload']} pair {step['pair']} seed {step['seed']} {side}: exit {run['exit']} {value}",
                      flush=True)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True, help="names the output, BENCH_<pr>.json")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args(argv)
    pairs = {w: int(n) for w, _, n in (p.partition("=") for p in args.pairs)}
    record = bench_pairs(ROOT, ROOT / f"BENCH_{args.pr}.json", args.parent, args.change, pairs,
                         args.first_seed, args.pr)
    for workload, entry in record["summary"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"better in {m['better_in_pairs']}/{m['pairs']} {m['verdict']}")
    return 0 if all(e["correct"] for e in record["summary"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
