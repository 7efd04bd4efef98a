#!/usr/bin/env python3
"""Benchmark for wimax-il: three seeded workloads through the program's public
entry points, every output checked against an independent model.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1           # every workload, one child each

Run it from the repository root; nothing needs installing. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics, or with --trace 1 the per-layer ones.
perfbench/README.md says what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import spans
from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
WORKLOADS = ("tables", "sweep", "cold")

# set-up is a few fresh imports, so that one descheduling cannot decide it
SETUP_PROBES = 9
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wimax_il.cli; "
    "print(time.perf_counter() - t)"
)

# tables: one block per size; the seed draws d and s. The sizes are fixed so
# that the work in a round does not depend on the seed.
SIZES = (192, 288, 384, 576, 768, 1152, 1536, 2304)
NONCANONICAL_BLOCK = oracle.PRESETS["qam16"]

# sweep: depths past the RS limit of 8, and for qpsk past n_cbps/d = 12
SWEEP_DEPTH = 10
QPSK_SWEEP_DEPTH = 14
SWEEP_LARGE_NCBPS = 768

# traced runs call the layers a workload never reaches on the presets
COVERAGE_REPEATS = 3
COVERAGE_DEPTH = 10
TABLE_LAYERS = {
    "generator.run", "reference.build_table", "reference.invert_table",
    "reference.apply_permutation", "tablefile.serialize_table", "tablefile.parse_table",
}
BURST_LAYERS = {"burst.burst_sweep", "cli.cmd_burst"}

# the program's modules, bound by load_program
cli = reference = tablefile = errors = None


def load_program() -> None:
    global cli, reference, tablefile, errors
    if not (SRC / "wimax_il" / "cli.py").is_file():
        sys.exit(f"perfbench: no wimax_il sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from wimax_il import cli, errors, reference, tablefile


@dataclass
class Tally:
    """Operations attempted and failed, the intervals spent inside the
    program's calls, and the work those calls did. Every round makes the same
    operations in the same order, so an operation is known by its position
    in the round."""

    clock: Clock
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    work: dict[int, tuple[int, int]] = field(default_factory=dict)
    timed: list[tuple[float, float, bool, int, int]] = field(default_factory=list)
    position: int = 0
    rounds: int = 0

    def start_round(self) -> None:
        self.position = 0
        self.rounds += 1

    def record(self, problems, span, addresses, reports=1, command=True, known_fault=False):
        """span is the (start, end) of the program's call. known_fault marks
        the operations that fail because of a fault the README names; their
        failure leaves the run correct."""
        self.attempted += 1
        self.work[self.position] = (addresses, reports)
        self.timed.append((*span, command, self.position, self.rounds))
        self.position += 1
        if problems:
            self.failed += 1
            if not known_fault and len(self.problems) < 20:
                self.problems.extend(problems)
        self.clock.between_operations()

    def typical_round(self) -> tuple[float, int, int]:
        """Seconds, addresses and reports of a typical round: each operation
        in it takes its median time over the run's rounds, so that a stall
        in one round does not decide the figure."""
        times: dict[int, list[float]] = {}
        for t0, t1, _, pos, _ in self.timed:
            times.setdefault(pos, []).append(self.clock.scaled(t0, t1))
        seconds = sum(statistics.median(t) for t in times.values())
        return seconds, sum(a for a, _ in self.work.values()), sum(r for _, r in self.work.values())

    def cmd_ms(self) -> dict[int, list[float]]:
        """Scaled milliseconds of every command, by round."""
        by_round: dict[int, list[float]] = {}
        for t0, t1, command, _, rnd in self.timed:
            if command:
                by_round.setdefault(rnd, []).append(1e3 * self.clock.scaled(t0, t1))
        return by_round


def call_main(argv: list[str]) -> tuple[int, str, tuple[float, float]]:
    """One in-process command; only cli.main is inside the timed span."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        t1 = perf_counter()
    return code, out.getvalue(), (t0, t1)


def config_args(n: int, d: int, s: int) -> list[str]:
    return ["--ncbps", str(n), "--d", str(d), "--s", str(s)]


def digest(*parts: bytes) -> bytes:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
        h.update(b"\0")
    return h.digest()


# ---------------------------------------------------------------- tables


@dataclass
class Block:
    n: int
    d: int
    s: int
    files: dict  # (direction, engine) -> (path, expected bytes)
    corrupt: Path
    bits: list[int]
    interleaved: list[int]


def draw_s(rng: random.Random, n: int, d: int) -> int:
    """A significance parameter valid for the block: s must divide n/d."""
    return rng.choice([s for s in (1, 2, 3) if (n // d) % s == 0])


def make_block(rng: random.Random, work: Path, n: int, d: int, s: int) -> Block:
    pi = oracle.interleave_map(n, d, s)
    dmap = oracle.inverse(pi)
    files = {}
    for direction, mapping in (("deinterleave", dmap), ("interleave", pi)):
        text = oracle.table_text(n, d, s, direction, mapping).encode()
        for engine in ("reference", "incremental"):
            files[(direction, engine)] = (work / f"{n}_{d}_{s}_{direction}_{engine}.csv", text)
    i, j = rng.sample(range(n), 2)
    bad = list(dmap)
    bad[i], bad[j] = bad[j], bad[i]
    corrupt = work / f"{n}_{d}_{s}_corrupt.csv"
    corrupt.write_bytes(oracle.table_text(n, d, s, "deinterleave", bad).encode())
    bits = [rng.getrandbits(1) for _ in range(n)]
    return Block(n, d, s, files, corrupt, bits, oracle.scatter(pi, bits))


def write_noncanonical(work: Path) -> list[Path]:
    """Tables the README's canonical format rules out; verify must exit 1.
    The same five files in every run, whatever the seed."""
    n, d, s = NONCANONICAL_BLOCK
    text = oracle.table_text(n, d, s, "deinterleave", oracle.inverse(oracle.interleave_map(n, d, s)))
    lines = text.split("\n")
    row = next(i for i in range(4, len(lines)) if len(lines[i].split(",")[1]) >= 2)
    idx, addr = lines[row].split(",")
    variants = {
        "underscore": lines[:row] + [f"{idx},{addr[0]}_{addr[1:]}"] + lines[row + 1:],
        "plus": lines[:4] + [lines[4].replace(",", ",+")] + lines[5:],
        "extra_field": lines[:1] + [lines[1] + " extra=1"] + lines[2:],
    }
    texts = {name: "\n".join(v) for name, v in variants.items()}
    texts["crlf"] = text.replace("\n", "\r\n")
    texts["no_final_newline"] = text[:-1]
    paths = []
    for name, body in texts.items():
        path = work / f"noncanonical_{name}.csv"
        path.write_bytes(body.encode())
        paths.append(path)
    return paths


class Tables:
    """For each block: gen with both engines in both directions, verify
    --table on every file and on a corrupted copy, and an interleave ->
    deinterleave round trip of a bit block; then verify --table on each
    non-canonical file."""

    def __init__(self, blocks: list[Block], noncanonical: list[Path]) -> None:
        self.blocks = blocks
        self.noncanonical = noncanonical

    @classmethod
    def draw(cls, rng: random.Random, work: Path) -> "Tables":
        ds = [12, 16] * (len(SIZES) // 2)
        rng.shuffle(ds)
        blocks = [make_block(rng, work, n, d, draw_s(rng, n, d)) for n, d in zip(SIZES, ds)]
        return cls(blocks, write_noncanonical(work))

    def round(self, tally: Tally) -> None:
        for b in self.blocks:
            for (direction, engine), (path, expected) in b.files.items():
                code, _, span = call_main(
                    ["gen", *config_args(b.n, b.d, b.s), "--dir", direction,
                     "--engine", engine, "--out", str(path)]
                )
                ok = code == 0 and path.read_bytes() == expected
                tally.record([] if ok else [f"gen {path.name}: exit {code} or wrong bytes"], span, b.n)
            for path, _ in b.files.values():
                tally.record(*self.verify(path, 0), b.n)
            tally.record(*self.verify(b.corrupt, 1), b.n)
            tally.record(*self.round_trip(b), 2 * b.n, command=False)
        for path in self.noncanonical:
            tally.record(*self.verify(path, 1), NONCANONICAL_BLOCK[0], known_fault=True)

    @staticmethod
    def verify(path: Path, want: int) -> tuple[list[str], tuple[float, float]]:
        code, out, span = call_main(["verify", "--table", str(path)])
        verdict = out.rstrip("\n").rsplit("\n", 1)[-1]
        ok = code == want and verdict.startswith("PASS " if want == 0 else "FAIL ")
        return ([] if ok else [f"verify --table {path.name}: exit {code}, want {want}"]), span

    @staticmethod
    def round_trip(b: Block) -> tuple[list[str], tuple[float, float]]:
        ipath = b.files[("interleave", "reference")][0]
        dpath = b.files[("deinterleave", "reference")][0]
        t0 = perf_counter()
        try:
            itab = tablefile.read_table(str(ipath))
            dtab = tablefile.read_table(str(dpath))
            sent = reference.apply_permutation(itab, b.bits)
            back = reference.apply_permutation(dtab, sent)
        except errors.InterleaverError as exc:
            return [f"round trip {b.n},{b.d},{b.s}: {exc!r}"], (t0, perf_counter())
        t1 = perf_counter()
        ok = sent == b.interleaved and back == b.bits
        return ([] if ok else [f"round trip {b.n},{b.d},{b.s} does not restore the block"]), (t0, t1)


# ---------------------------------------------------------------- sweep


def burst_problems(n, d, s, depth, code, out, csv_text, json_text) -> list[str]:
    if code != 0:
        return [f"burst {n},{d},{s}: exit {code}"]
    dmap = oracle.inverse(oracle.interleave_map(n, d, s))
    want = [row for b in range(1, depth + 1) for row in oracle.burst_rows(dmap, b)]
    got = [tuple(map(int, line.split(","))) for line in csv_text.splitlines() if not line.startswith("#")]
    problems = [] if got == want else [f"burst {n},{d},{s}: CSV rows differ from the independent map"]
    doc = json.loads(json_text)
    from_json = [
        (r["start"], r["b"], r["max_run"], r["min_spacing"], int(r["rs_correctable"]))
        for sweep in doc["sweeps"] for r in sweep["reports"]
    ]
    if doc["config"] != {"ncbps": n, "d": d, "s": s} or from_json != got:
        problems.append(f"burst {n},{d},{s}: JSON disagrees with the CSV")
    for sweep in doc["sweeps"]:
        b, worst = sweep["b"], max(r[2] for r in want if r[1] == sweep["b"])
        line = f"b={b}: worst max_run_length={worst} over {n - b + 1} starts"
        if sweep["worst_max_run_length"] != worst or line not in out:
            problems.append(f"burst {n},{d},{s}: worst run for b={b} is not {worst}")
    if s == 1:
        # the s=1 guarantee: every burst no longer than n/d lands on isolated bits
        if any(r[2] != 1 for r in got if r[1] <= n // d) or "guarantee" not in out or "holds" not in out:
            problems.append(f"burst {n},{d},{s}: s=1 dispersal guarantee not shown")
    return problems


class Sweep:
    """burst --sweep-max through main() with CSV and JSON reports."""

    def __init__(self, blocks: list[tuple[int, int, int, int]], work: Path) -> None:
        self.blocks = blocks
        self.csv, self.json = work / "burst.csv", work / "burst.json"
        self.verified: dict[tuple, bytes] = {}

    @classmethod
    def draw(cls, rng: random.Random, work: Path) -> "Sweep":
        q, q16, q64 = (oracle.PRESETS[p] for p in ("qpsk", "qam16", "qam64"))
        blocks = [(*q, QPSK_SWEEP_DEPTH), (*q16, SWEEP_DEPTH), (*q64, SWEEP_DEPTH)]
        n = SWEEP_LARGE_NCBPS
        for d in (12, 16):
            blocks.append((n, d, draw_s(rng, n, d), SWEEP_DEPTH))
        rng.shuffle(blocks)
        return cls(blocks, work)

    def round(self, tally: Tally) -> None:
        for key in self.blocks:
            n, d, s, depth = key
            code, out, span = call_main(
                ["burst", *config_args(n, d, s), "--sweep-max", str(depth),
                 "--out", str(self.csv), "--json-out", str(self.json)]
            )
            csv_bytes, json_bytes = self.csv.read_bytes(), self.json.read_bytes()
            seen = digest(str(code).encode(), out.encode(), csv_bytes, json_bytes)
            problems = []
            if self.verified.get(key) != seen:
                problems = burst_problems(*key, code, out, csv_bytes.decode(), json_bytes.decode())
                if not problems:
                    self.verified[key] = seen
            reports = sum(n - b + 1 for b in range(1, depth + 1))
            positions = sum(b * (n - b + 1) for b in range(1, depth + 1))
            tally.record(problems, span, positions, reports)


# ---------------------------------------------------------------- cold


def cold_problems(kind, code, out, json_path, n=0, d=0, s=0) -> list[str]:
    tag = f"{kind} {n},{d},{s}" if n else kind
    if code != 0:
        return [f"{tag}: exit {code}"]
    if kind.startswith("gen"):
        direction = kind.split()[1]
        pi = oracle.interleave_map(n, d, s)
        mapping = pi if direction == "interleave" else oracle.inverse(pi)
        ok = out == oracle.table_text(n, d, s, direction, mapping)
    elif kind == "verify":
        rows = out.splitlines()
        ok = rows[-1] == f"PASS: {len(oracle.PRESETS)}/{len(oracle.PRESETS)} configs clean" and all(
            f"inverse={pn}/{pn}" in row and row.endswith("PASS")
            for (pn, _, _), row in zip(oracle.PRESETS.values(), rows)
        )
    elif kind == "tradeoff":
        problems = oracle.tradeoff_problems(json.loads(json_path.read_text()))
        if "FAIL" in out or out.count("PASS") != 6:
            problems.append("printed checks do not all pass")
        return [f"{tag}: {p}" for p in problems]
    else:  # burst --b 8
        dmap = oracle.inverse(oracle.interleave_map(n, d, s))
        worst = max(r[2] for r in oracle.burst_rows(dmap, 8))
        verdict = "yes" if worst <= oracle.RS_LIMIT else "NO"
        ok = out.startswith(f"b=8: worst max_run_length={worst} over {n - 7} starts, rs_correctable={verdict}\n")
        if s == 1:
            ok = ok and "holds" in out
    return [] if ok else [f"{tag}: output differs from the independent model"]


class Cold:
    """One fresh `python -m wimax_il.cli` process per command."""

    def __init__(self, commands: list[tuple]) -> None:
        self.commands = commands
        self.verified: dict[int, bytes] = {}

    @classmethod
    def draw(cls, rng: random.Random, work: Path) -> "Cold":
        total = sum(n for n, _, _ in oracle.PRESETS.values())
        commands = [("verify", (), ["verify", "--all-presets"], total)]
        for name, (n, d, s) in oracle.PRESETS.items():
            direction = rng.choice(("deinterleave", "interleave"))
            engine = rng.choice(("reference", "incremental"))
            out = work / f"tradeoff_{name}.json"
            commands += [
                (f"gen {direction}", (n, d, s), ["gen", "--preset", name, "--dir", direction, "--engine", engine], n),
                ("tradeoff", (n, d, s), ["tradeoff", "--preset", name, "--out", str(out)], 0),
                ("burst", (n, d, s), ["burst", "--preset", name, "--b", "8"], 8 * (n - 7)),
            ]
        rng.shuffle(commands)
        return cls(commands)

    def round(self, tally: Tally) -> None:
        for i, (kind, cfg, argv, addresses) in enumerate(self.commands):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "wimax_il.cli", *argv],
                cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=60,
            )
            t1 = perf_counter()
            json_path = Path(argv[-1]) if kind == "tradeoff" else None
            seen = digest(str(proc.returncode).encode(), proc.stdout.encode(),
                          json_path.read_bytes() if json_path else b"")
            problems = []
            if self.verified.get(i) != seen:
                problems = cold_problems(kind, proc.returncode, proc.stdout, json_path, *cfg)
                if not problems:
                    self.verified[i] = seen
            tally.record(problems, (t0, t1), addresses)


# ---------------------------------------------------------------- runs


def child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
        capture_output=True, text=True, check=True, timeout=60,
    )


def fresh_imports(clock: Clock, trace: bool) -> tuple[float, float]:
    """setup_s: the median time a fresh interpreter spends importing
    wimax_il.cli, measured inside the child. import.cli_ms (traced runs
    only): the median wall time of that child minus the median wall time of
    a child that imports nothing of the program."""
    inner, wall, bare = [], [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        took = float(child("-c", IMPORT_PROBE).stdout)
        t1 = perf_counter()
        clock.calibrate()
        inner.append(clock.scaled(t0, t1, took))
        wall.append(clock.scaled(t0, t1))
        if trace:
            t0 = perf_counter()
            child("-c", "import time")
            t1 = perf_counter()
            clock.calibrate()
            bare.append(clock.scaled(t0, t1))
    import_ms = 1e3 * (statistics.median(wall) - statistics.median(bare)) if trace else 0.0
    return statistics.median(inner), import_ms


def pin_to_one_cpu() -> None:
    """Keep this process and the children it starts on one CPU, so that the
    calibration kernel measures the CPU the children run on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not supported here: children may run on any CPU


def peak_rss_mb(name: str) -> float:
    """Peak resident memory of the process that ran the program: this one,
    or for cold the largest child (ru_maxrss is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if name == "cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(name: str, tally: Tally, setup_s: float) -> dict[str, float]:
    seconds, addresses, reports = tally.typical_round()
    # percentiles of a typical round: each round's, then the median over the
    # rounds, so that a burst of host slowness in a few rounds does not
    # decide them. The inclusive method puts a 10-command round's p90 near
    # its 9th command rather than at its slowest.
    per_round = [statistics.quantiles(ms, n=10, method="inclusive") for ms in tally.cmd_ms().values()]
    return {
        "addr_per_s": addresses / seconds,
        "reports_per_s": reports / seconds,
        "cmd_ms_p50": statistics.median(q[4] for q in per_round),
        "cmd_ms_p90": statistics.median(q[8] for q in per_round),
        "peak_rss_mb": peak_rss_mb(name),
        "setup_s": setup_s,
    }


def coverage_pass(work: Path, tally: Tally, missing: set[str]) -> None:
    """Reach, on the three presets, each layer the traced workload did not,
    so that every per-layer figure is measured. Its operations are checked
    like any other but are not counted as the workload's."""
    presets = list(oracle.PRESETS.values())
    rng = random.Random("coverage")
    tables = Tables([make_block(rng, work, *p) for p in presets], [])
    sweep = Sweep([(*p, COVERAGE_DEPTH) for p in presets], work)
    for _ in range(COVERAGE_REPEATS):
        tally.start_round()
        if missing & TABLE_LAYERS:
            tables.round(tally)
        if missing & BURST_LAYERS:
            sweep.round(tally)
        if "cost_model.compare_variants" in missing:
            for name, (n, d, s) in oracle.PRESETS.items():
                path = work / f"tradeoff_{name}.json"
                code, out, span = call_main(["tradeoff", "--preset", name, "--out", str(path)])
                tally.record(cold_problems("tradeoff", code, out, path, n, d, s), span, 0)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    rng = random.Random(f"{name}:{seed}")
    work = OUT / f"work-{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        clock = Clock()
        setup_s, import_ms = fresh_imports(clock, trace)
        workload = {"tables": Tables, "sweep": Sweep, "cold": Cold}[name].draw(rng, work)
        tally, tracer = Tally(clock), spans.Tracer()
        with tracer if trace else contextlib.nullcontext():
            t0 = perf_counter()
            while not tally.timed or perf_counter() - t0 < seconds:
                tally.start_round()
                workload.round(tally)
        clock.calibrate()
        figures = end_to_end(name, tally, setup_s)
        if trace:
            fallback, extra = spans.Tracer(), Tally(clock)
            missing = {layer for layer, *_ in spans.LAYERS} - {name for name, *_ in tracer.spans}
            with fallback:
                coverage_pass(work, extra, missing)
            clock.calibrate()
            tally.problems += extra.problems
            traced_figures = figures
            figures = spans.layer_metrics(tracer, fallback, clock.scaled)
            figures["import.cli_ms"] = import_ms
            for metric, value in traced_figures.items():
                print(f"{name} traced {metric} {value:.6g}")
            (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
                "workload": name, "seed": seed, "seconds": seconds,
                "traced_end_to_end": traced_figures, "per_layer": figures,
                "spans": tracer.spans, "coverage_spans": fallback.spans,
            }))
        print("{} calibration kernel ms: fastest {:.3f} median {:.3f}".format(name, *clock.kernel_ms()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in tally.problems:
        print(f"{name} WRONG {problem}", file=sys.stderr)
    return {"correct": not tally.problems, "attempted": tally.attempted,
            "failed": tally.failed, "figures": figures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.workload == "all":
        results, code = {}, 0
        for name in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            code = code or proc.returncode
        print(json.dumps(results))
        return code

    load_program()
    pin_to_one_cpu()
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    figures = result.pop("figures")
    if set(figures) != set(units):
        sys.exit(f"perfbench: metrics {sorted(figures)} do not match BENCHMARK.json")
    for metric, value in figures.items():
        print(f"{args.workload} {metric} {value:.6g} {units[metric]}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']}")
    result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in figures.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
