"""The pairs runner in tools/benchpairs.py, against a stub perfbench/run.py
in a temporary git repository: the stub prints figures fixed by its commit
and its seed, and logs each run, so that no real benchmark runs here."""
import json
import subprocess
import textwrap

import pytest

from conftest import load_module

benchpairs = load_module("benchpairs", "tools/benchpairs.py")

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 30,
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.12},
        {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    ],
}

# each metric's value is its base, scaled by 1 + scatter * (a step in -1..1
# that the seed picks); the log line names the commit's tag and the seed.
# The figures live outside perfbench/, which both commits share.
STUB = '''\
import argparse, json, sys
from pathlib import Path

parser = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    parser.add_argument(flag)
args = parser.parse_args()
figures = json.loads(Path("figures.json").read_text())
step = (int(args.seed) * 7 % 5 - 2) / 2
with open(LOG, "a") as log:
    log.write(f"{figures['tag']} {args.workload} {args.seed} {args.trace}\\n")
if figures.get("broken"):
    sys.exit("no result")
metrics = {m: {"value": base * (1 + figures["scatter"] * step), "unit": "u"} for m, base in figures["base"].items()}
print("some line before the result")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}))
'''


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True, text=True).stdout.strip()


def make_repo(tmp_path, parent, change):
    """A repository of two commits, each's stub printing its figures: parent
    and change map tag, scatter and base to their values."""
    repo, log = tmp_path / "repo", tmp_path / "runs.log"
    (repo / "perfbench").mkdir(parents=True)
    git(repo, "init", "-q")
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (repo / "perfbench" / "run.py").write_text(f"LOG = {str(log)!r}\n" + STUB)
    hashes = []
    for figures in (parent, change):
        (repo / "figures.json").write_text(json.dumps(figures))
        git(repo, "add", "-A")
        git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", figures["tag"])
        hashes.append(git(repo, "rev-parse", "HEAD"))
    return repo, log, hashes


def figures(tag, scatter, ops, ms):
    return {"tag": tag, "scatter": scatter, "base": {"ops_per_s": ops, "op_ms": ms}}


def run(repo, tmp_path, pairs, first_seed):
    out = tmp_path / "BENCH_7.json"
    record = benchpairs.bench_pairs(repo, out, "HEAD~1", "HEAD", pairs, first_seed, 7)
    assert json.loads(out.read_text()) == record
    return record


def test_runs_alternate_on_seeds_fixed_before_the_first_run(tmp_path):
    repo, log, (parent, change) = make_repo(tmp_path, figures("p", 0.0, 100, 2), figures("c", 0.0, 100, 2))
    record = run(repo, tmp_path, {"a": 3, "b": 2}, 40)
    assert log.read_text().splitlines() == [
        "p a 40 0", "c a 40 0", "c a 41 0", "p a 41 0", "p a 42 0", "c a 42 0",
        "p b 43 0", "c b 43 0", "c b 44 0", "p b 44 0",
    ]
    assert record["commits"] == {"parent": parent, "change": change}
    assert record["pr"] == 7 and record["seconds"] == SPEC["run_seconds"]
    assert record["command"] == [*SPEC["command"], "--workload", "W", "--seed", "S", "--seconds", "30", "--trace", "0"]
    assert record["python"] and record["cpu_count"] >= 1
    assert [(s["workload"], s["pair"], s["seed"], s["first"]) for s in record["plan"]] == [
        ("a", 0, 40, "parent"), ("a", 1, 41, "change"), ("a", 2, 42, "parent"),
        ("b", 0, 43, "parent"), ("b", 1, 44, "change"),
    ]
    assert len(record["runs"]) == 10
    assert all(r["exit"] == 0 and r["result"]["correct"] for r in record["runs"])
    assert record["summary"]["a"]["pairs"] == 3 and record["summary"]["b"]["pairs"] == 2
    assert record["summary"]["a"]["failed_share"] == {"parent": 0.0, "change": 0.0}


def test_a_gain_passes_and_a_loss_past_its_bound_is_crossed(tmp_path):
    # ops_per_s 20% higher (better), op_ms 30% higher (worse, past 15%)
    repo, _, _ = make_repo(tmp_path, figures("p", 0.01, 100, 2), figures("c", 0.01, 120, 2.6))
    record = run(repo, tmp_path, {"a": 10}, 1)
    ops, ms = (record["summary"]["a"]["metrics"][m] for m in ("ops_per_s", "op_ms"))
    assert ops["verdict"] == "passed" and ops["better_in_pairs"] == 10 and ops["pairs"] == 10
    assert ops["gain"] == pytest.approx(0.2)
    assert ops["gain_over_parent_iqr"] > 1 and ops["gain_shown"]
    assert ms["verdict"] == "crossed" and ms["better_in_pairs"] == 0 and not ms["gain_shown"]
    assert ms["gain"] == pytest.approx(-0.3)
    # the bounds are BENCHMARK.json's, which stays as committed
    assert (ops["bound"], ms["bound"]) == (0.12, 0.15)
    assert json.loads((repo / "BENCHMARK.json").read_text()) == SPEC
    assert git(repo, "status", "--porcelain") == ""


def test_a_parent_spread_past_the_bound_is_unresolved(tmp_path):
    # seeds 1, 2, 3 read 100, 110 and 95: min to max is 15% of the median
    repo, _, _ = make_repo(tmp_path, figures("p", 0.1, 100, 2), figures("c", 0.1, 100, 2))
    record = run(repo, tmp_path, {"a": 3}, 1)
    ops = record["summary"]["a"]["metrics"]["ops_per_s"]
    assert ops["parent_spread"] == pytest.approx(0.15)
    assert ops["verdict"] == "unresolved"
    # 3 * (0.15 / 0.12) ** 2 = 4.69, but fewer than 9 runs cannot narrow it
    assert ops["pairs_needed_estimate"] == benchpairs.FEWEST_NARROWING_PAIRS == 9


def test_the_pairs_estimate_scales_a_narrowing_spread():
    parent = [100.0 + 3 * i for i in range(10)]  # interval 103..124, 18.5% of 113.5
    ops = benchpairs.judge(parent, parent, "higher", 0.12)
    assert ops["verdict"] == "unresolved"
    assert ops["pairs_needed_estimate"] == 24  # 10 * (0.185 / 0.12) ** 2 = 23.8


def test_a_wide_spread_is_resolved_when_every_change_run_reads_better():
    parent, change = [100, 110, 95], [120, 130, 115]  # spread 15% against 12%
    ops = benchpairs.judge(parent, change, "higher", 0.12)
    assert ops["parent_spread"] == pytest.approx(0.15)
    assert ops["verdict"] == "passed" and "pairs_needed_estimate" not in ops
    assert not ops["gain_shown"]  # better in 3 of 3 pairs, but a gain needs ten
    ms = benchpairs.judge(parent, [c - 40 for c in change], "lower", 0.12)  # 80, 90, 75
    assert ms["verdict"] == "passed" and ms["gain"] == pytest.approx(0.2)
    assert benchpairs.judge(parent, [96, 111, 120], "higher", 0.12)["verdict"] == "unresolved"


def test_the_median_interval_narrows_with_more_runs():
    values = list(range(1, 11))
    assert benchpairs.median_interval(values[:5]) == (1, 5)  # too few runs: min to max
    assert benchpairs.median_interval(values[:8]) == (1, 8)
    assert benchpairs.median_interval(values[:9]) == (2, 8)  # 96.1%
    assert benchpairs.median_interval(values) == (2, 9)  # 97.9% from the 2nd to the 9th
    assert benchpairs.median_interval(list(range(1, 21))) == (6, 15)


def test_a_run_without_a_result_line_is_not_correct(tmp_path):
    repo, _, _ = make_repo(tmp_path, figures("p", 0.0, 100, 2), {**figures("c", 0.0, 100, 2), "broken": True})
    record = run(repo, tmp_path, {"a": 1}, 1)
    change = next(r for r in record["runs"] if r["side"] == "change")
    assert change["exit"] == 1 and change["result"] is None and "no result" in change["stderr"]
    assert record["summary"]["a"] == {
        "pairs": 0, "correct": False, "failed_share": {"parent": 0.0, "change": 0.0}, "metrics": {},
    }


@pytest.mark.parametrize("edit, old, new", [
    ("BENCHMARK.json", "0.12", "0.5"),  # a looser bound
    ("perfbench/run.py", "import argparse", "import argparse  # edited"),
])
def test_a_change_to_the_benchmark_is_refused(tmp_path, edit, old, new):
    repo, log, _ = make_repo(tmp_path, figures("p", 0.0, 100, 2), figures("c", 0.0, 100, 2))
    path = repo / edit
    path.write_text(path.read_text().replace(old, new, 1))
    git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-am", "edit the benchmark")
    with pytest.raises(SystemExit, match="refused: the commits differ in BENCHMARK.json, perfbench"):
        run(repo, tmp_path, {"a": 1}, 1)
    assert not log.exists() and not (tmp_path / "BENCH_7.json").exists()


def test_the_command_line_names_commits_pairs_and_seeds_only(monkeypatch):
    calls = []
    monkeypatch.setattr(benchpairs, "bench_pairs", lambda *a: calls.append(a) or {"summary": {}})
    assert benchpairs.main(["p", "c", "--pr", "7", "--pairs", "a=3", "--pairs", "b=2", "--first-seed", "40"]) == 0
    assert calls == [(benchpairs.ROOT, benchpairs.ROOT / "BENCH_7.json", "p", "c", {"a": 3, "b": 2}, 40, 7)]
    for flag in ("--seconds", "--repo", "--out"):
        with pytest.raises(SystemExit):
            benchpairs.main(["p", "c", "--pr", "7", "--pairs", "a=1", "--first-seed", "1", flag, "1"])
    assert len(calls) == 1
