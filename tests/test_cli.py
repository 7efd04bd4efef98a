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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wimax_il
import wimax_il.cli
from wimax_il import burst, cost_model, generator
from wimax_il.cli import build_parser, main
from wimax_il.config import MAX_NCBPS, InterleaverConfig
from wimax_il.reference import Direction, build_table
from wimax_il.tablefile import MAX_TABLE_CHARS, read_table, serialize_table

ROOT = Path(__file__).resolve().parent.parent


def test_each_subcommand_options_defaults_and_handler(monkeypatch):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    config = [("--ncbps", None), ("--d", None), ("--s", None), ("--preset", None)]
    expected = {
        "gen": [("--dir", "deinterleave"), ("--engine", "reference"), ("--out", None)],
        "verify": [("--all-presets", False), ("--table", None)],
        "burst": [("--b", None), ("--sweep-max", None), ("--out", None), ("--json-out", None)],
        "tradeoff": [("--out", None), ("--unit-delay-ns", 1.0)],
    }
    assert list(subparsers.choices) == list(expected)
    for name, sub in subparsers.choices.items():
        options = [
            ("/".join(action.option_strings), action.default)
            for action in sub._actions
            if action.option_strings != ["-h", "--help"]
        ]
        assert options == config + expected[name], name

    # main looks each handler up by name on every call, through one cached
    # parser, so a handler patched after the parser was built still runs
    calls = []

    def stub_for(name):
        def stub(args):
            calls.append((name, args.command))
            return 0, ""

        return stub

    for name in expected:
        monkeypatch.setattr(wimax_il.cli, f"cmd_{name}", stub_for(name))
    for name in [*expected, *expected]:
        assert main([name]) == 0
        assert build_parser() is parser
    assert calls == [(name, name) for name in [*expected, *expected]]


def test_gen_writes_expected_prefix(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        [
            "gen",
            "--ncbps", "32", "--d", "16", "--s", "1",
            "--dir", "deinterleave",
            "--engine", "incremental",
            "--out", str(out),
        ]
    )
    assert code == 0
    table = read_table(str(out))
    assert table.map[:4] == (0, 16, 1, 17)


def test_gen_engines_are_byte_identical(tmp_path):
    ref, inc = tmp_path / "ref.csv", tmp_path / "inc.csv"
    for engine, path in [("reference", ref), ("incremental", inc)]:
        assert main(
            [
                "gen", "--preset", "qam16",
                "--dir", "deinterleave",
                "--engine", engine,
                "--out", str(path),
            ]
        ) == 0
    assert ref.read_bytes() == inc.read_bytes()


def test_gen_interleave_direction_via_inversion(tmp_path):
    ref, inc = tmp_path / "ref.csv", tmp_path / "inc.csv"
    for engine, path in [("reference", ref), ("incremental", inc)]:
        assert main(
            ["gen", "--preset", "qpsk", "--dir", "interleave",
             "--engine", engine, "--out", str(path)]
        ) == 0
    assert ref.read_bytes() == inc.read_bytes()


def test_gen_bad_config_exits_2(capsys):
    assert main(["gen", "--ncbps", "100", "--d", "16", "--s", "1"]) == 2
    assert "divide" in capsys.readouterr().err


def test_gen_oversized_block_exits_2_at_once(capsys):
    # validation refuses the block before any table is built
    assert main(["gen", "--ncbps", "1600000000", "--s", "1"]) == 2
    assert "at most" in capsys.readouterr().err


def test_gen_to_stdout(capsys):
    assert main(["gen", "--ncbps", "32", "--d", "16", "--s", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# wimax-il address table v1"
    assert lines[3] == "0,0"


def test_preset_conflicts_with_triple(capsys):
    assert main(["gen", "--preset", "qpsk", "--ncbps", "192"]) == 2


def test_missing_config_exits_2(capsys):
    assert main(["gen", "--ncbps", "192"]) == 2
    assert main(["verify"]) == 2


def test_verify_all_presets(capsys):
    assert main(["verify", "--all-presets"]) == 0
    out = capsys.readouterr().out
    assert "PASS: 3/3 configs clean" in out


def swap_first_two(table):
    a, b, *rest = table.map
    return table._replace(map=(b, a, *rest))


def duplicate_an_interleave_address(table):
    if table.direction is not Direction.INTERLEAVE:
        return table
    return table._replace(map=(table.map[1], *table.map[1:]))


def move_the_last_interleave_address(to):
    """A corruption that writes channel position to(n_cbps) where the
    interleave table sends a bit to the last one, n_cbps - 1: past the end,
    or -1, which Python indexing would read as that last position."""

    def corrupt(table):
        if table.direction is not Direction.INTERLEAVE:
            return table
        n = table.cfg.n_cbps
        return table._replace(map=tuple(to(n) if j == n - 1 else j for j in table.map))

    return corrupt


@pytest.mark.parametrize(
    "column,module,attr,corrupt",
    [
        ("incremental", generator, "run", swap_first_two),
        ("invert", wimax_il.cli, "invert_table", swap_first_two),
        ("bijective", wimax_il.cli, "build_table", duplicate_an_interleave_address),
        ("bijective", wimax_il.cli, "build_table", move_the_last_interleave_address(lambda n: n + 3)),
        ("bijective", wimax_il.cli, "build_table", move_the_last_interleave_address(lambda n: -1)),
    ],
    ids=["incremental", "invert", "bijective", "out_of_range", "negative"],
)
def test_verify_all_presets_fails_closed(monkeypatch, capsys, column, module, attr, corrupt):
    """A corrupted engine output is a FAIL row and exit 1 on every preset,
    also when the interleave table is no permutation and cannot be inverted."""
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: corrupt(original(*args)))
    assert main(["verify", "--all-presets"]) == 1
    *rows, summary = capsys.readouterr().out.splitlines()
    assert summary == "FAIL: 0/3 configs clean"
    assert len(rows) == 3
    for row in rows:
        assert f"{column}=FAIL" in row and row.endswith(" FAIL"), row
        n = row.split(",")[0]
        assert (f"inverse={n}/{n} " not in row) == (column == "bijective"), row


@pytest.mark.parametrize(
    "modes",
    [
        ["--all-presets", "--ncbps", "7", "--s", "9"],
        ["--all-presets", "--table", "t.csv"],
        ["--table", "t.csv", "--preset", "qpsk"],
    ],
    ids=["presets_and_config", "presets_and_table", "table_and_config"],
)
def test_verify_refuses_more_than_one_mode(tmp_path, capsys, modes):
    path = tmp_path / "t.csv"
    assert main(["gen", "--preset", "qpsk", "--out", str(path)]) == 0
    capsys.readouterr()
    argv = ["verify", *(str(path) if arg == "t.csv" else arg for arg in modes)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give one of --table, --all-presets and a config" in captured.err


def test_verify_single_config_counts(capsys):
    assert main(["verify", "--ncbps", "384", "--d", "16", "--s", "2"]) == 0
    assert "inverse=384/384" in capsys.readouterr().out


def test_verify_good_table_file(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["gen", "--ncbps", "32", "--d", "16", "--s", "1", "--out", str(path)])
    assert main(["verify", "--table", str(path)]) == 0


def test_verify_corrupted_table_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["gen", "--ncbps", "32", "--d", "16", "--s", "1", "--out", str(path)])
    text = path.read_text()
    # swap two addresses: still a permutation, no longer the right table
    text = text.replace("0,0\n1,16\n", "0,16\n1,0\n")
    path.write_text(text)
    assert main(["verify", "--table", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_duplicate_address_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["gen", "--ncbps", "32", "--d", "16", "--s", "1", "--out", str(path)])
    path.write_text(path.read_text().replace("\n2,1\n", "\n2,16\n"))
    assert main(["verify", "--table", str(path)]) == 1


def test_verify_crlf_table_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["gen", "--ncbps", "32", "--d", "16", "--s", "1", "--out", str(path)])
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert main(["verify", "--table", str(path)]) == 1
    assert "not canonical" in capsys.readouterr().out


def test_verify_oversized_header_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    main(["gen", "--ncbps", "32", "--d", "16", "--s", "1", "--out", str(path)])
    text = path.read_text().replace("# ncbps=32 ", "# ncbps=1600000000 ")
    path.write_text(text)
    assert main(["verify", "--table", str(path)]) == 1
    assert "bad config header" in capsys.readouterr().out


def test_verify_unreadable_table_exits_1(tmp_path):
    assert main(["verify", "--table", str(tmp_path / "missing.csv")]) == 1


def test_verify_non_utf8_table_exits_1(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"0,\xff")
    assert main(["verify", "--table", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {path}: not UTF-8")


def test_verify_table_over_the_size_bound_exits_1(tmp_path, capsys):
    # the largest canonical table passes; one character more is refused unparsed
    path = tmp_path / "t.csv"
    assert main(["gen", "--ncbps", str(MAX_NCBPS), "--s", "1", "--out", str(path)]) == 0
    assert path.stat().st_size == MAX_TABLE_CHARS
    assert main(["verify", "--table", str(path)]) == 0
    capsys.readouterr()
    with open(path, "a") as fh:
        fh.write("\n")
    assert main(["verify", "--table", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {path}: longer than the largest table")


def test_burst_exit_codes(capsys):
    assert main(["burst", "--ncbps", "192", "--d", "16", "--s", "1", "--b", "12"]) == 0
    out = capsys.readouterr().out
    assert "worst max_run_length=1" in out
    assert "holds" in out
    assert main(["burst", "--ncbps", "192", "--d", "16", "--s", "1", "--b", "0"]) == 2


def test_burst_sweep_reports(tmp_path, capsys):
    csv_path = tmp_path / "burst.csv"
    json_path = tmp_path / "burst.json"
    code = main(
        [
            "burst", "--ncbps", "32", "--d", "16", "--s", "1",
            "--sweep-max", "4",
            "--out", str(csv_path),
            "--json-out", str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    for b, worst in [(1, 1), (2, 1), (3, 2), (4, 2)]:
        assert f"b={b}: worst max_run_length={worst}" in out

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# wimax-il burst report v1"
    assert lines[2].startswith("# columns: start,b,max_run,min_spacing,rs_correctable")
    data_rows = [l for l in lines if not l.startswith("#")]
    assert len(data_rows) == 32 + 31 + 30 + 29
    assert data_rows[0] == "0,1,1,0,1"

    payload = json.loads(json_path.read_text())
    assert payload["config"] == {"ncbps": 32, "d": 16, "s": 1}
    assert [s["worst_max_run_length"] for s in payload["sweeps"]] == [1, 1, 2, 2]
    assert "8 symbols" in payload["rs_criterion_note"]

    columns = lines[2].removeprefix("# columns: ").split(",")
    reports = [r for s in payload["sweeps"] for r in s["reports"]]
    assert len(reports) == len(data_rows)
    for report, row in zip(reports, data_rows):
        assert list(report) == columns
        assert [int(v) for v in report.values()] == [int(v) for v in row.split(",")]


def test_burst_sweep_over_the_report_cap_exits_2_at_once(tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("the sweep started before the cap was checked")

    monkeypatch.setattr(burst, "build_table", no_work)
    csv_path, json_path = tmp_path / "burst.csv", tmp_path / "burst.json"
    for triple, depth in [(("65536", "16", "1"), "65536"), (("2304", "16", "3"), "117")]:
        code = main(
            [
                "burst", "--ncbps", triple[0], "--d", triple[1], "--s", triple[2],
                "--sweep-max", depth,
                "--out", str(csv_path),
                "--json-out", str(json_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"more than the limit of {burst.MAX_SWEEP_REPORTS}" in captured.err
        assert not csv_path.exists() and not json_path.exists()


def test_burst_over_the_position_cap_exits_2_at_once(tmp_path, monkeypatch, capsys):
    # one long burst length makes few reports but scores b positions per start
    def no_work(*args):
        raise AssertionError("the sweep started before the cap was checked")

    monkeypatch.setattr(burst, "build_table", no_work)
    csv_path, json_path = tmp_path / "burst.csv", tmp_path / "burst.json"
    for n, b, positions in [(9216, 4608, 4608 * 4609), (65536, 32768, 32768 * 32769),
                            (9216, 1024, 1024 * 8193)]:
        code = main(
            [
                "burst", "--ncbps", str(n), "--s", "1", "--b", str(b),
                "--out", str(csv_path), "--json-out", str(json_path),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"score {positions} window positions" in captured.err
        assert f"more than the limit of {burst.MAX_SWEEP_POSITIONS}" in captured.err
        assert not csv_path.exists() and not json_path.exists()


def test_burst_position_cap_admits_b8_on_the_largest_block(capsys):
    # 8 * 65529 = 524,232 window positions
    assert main(["burst", "--ncbps", str(MAX_NCBPS), "--s", "1", "--b", "8"]) == 0
    assert f"over {MAX_NCBPS - 7} starts" in capsys.readouterr().out


def test_burst_refuses_one_file_for_both_reports(tmp_path, monkeypatch, capsys):
    """The JSON report would overwrite the CSV one: refused before any work."""
    def no_work(*args):
        raise AssertionError("the sweep started before the paths were checked")

    monkeypatch.setattr(burst, "build_table", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to("r.txt")
    for csv_name, json_name in [("r.txt", "r.txt"), ("r.txt", "sub/../r.txt"),
                                ("r.txt", str(tmp_path / "r.txt")), ("link.txt", "r.txt")]:
        code = main(["burst", "--ncbps", "32", "--s", "1", "--b", "3",
                     "--out", csv_name, "--json-out", json_name])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out and --json-out name the same file, {csv_name}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "sub"]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--preset", "qpsk", "--out", ""],
        ["burst", "--preset", "qpsk", "--b", "2", "--out", ""],
        ["burst", "--preset", "qpsk", "--b", "2", "--json-out", ""],
        ["tradeoff", "--preset", "qpsk", "--out", ""],
    ],
    ids=["gen-out", "burst-out", "burst-json-out", "tradeoff-out"],
)
def test_an_empty_output_path_is_refused(argv, tmp_path, monkeypatch, capsys):
    """'' names no file: every output option passes it to the OS, which
    refuses it, so the command exits 2 and writes nothing."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"
    assert list(tmp_path.iterdir()) == []


def assert_cli_contract(argv, codes):
    """main(argv) exits with one of codes: an exit 2 prints nothing to
    stdout and, on stderr, one error: line or argparse's usage; exits 0 and
    1 print nothing to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the argv
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in codes, argv
    if code == 2:
        assert out == "", argv
        one_error = err.startswith("error: ") and err.count("\n") == 1
        usage = err.startswith(f"usage: wimax-il {argv[0]} ") and f"wimax-il {argv[0]}: error: " in err
        assert one_error or usage, (argv, err)
    else:
        assert err == "", argv


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_burst_cli_contract_on_edge_values(data):
    """burst exits 0 or 2 when up to three options of a valid argv take edge
    values or are left out: an exit 2 prints nothing to stdout and, on
    stderr, one error: line or argparse's usage; an exit 0 prints nothing to
    stderr. Every report path drawn is one the OS refuses, so no file is
    written."""
    n, d, s = data.draw(st.sampled_from([(32, 16, 1), (192, 16, 1), (384, 16, 2), (768, 12, 2)]))
    edges = [0, -1, 2 * d - 1, n, n + 1, MAX_NCBPS - 1, MAX_NCBPS + 1, 10**20]
    mode = data.draw(st.sampled_from(["--b", "--sweep-max"]))
    values = {"--ncbps": n, "--d": d, "--s": s, mode: n // d}
    with tempfile.TemporaryDirectory() as tmp:
        paths = ["", tmp, os.path.join(tmp, "missing", "report"), "/dev/full"]
        options = ["--ncbps", "--d", "--s", "--b", "--sweep-max", "--out", "--json-out"]
        for option in data.draw(st.sets(st.sampled_from(options), max_size=3)):
            drawn = st.sampled_from(paths if option.endswith("out") else edges)
            values[option] = data.draw(st.none() | drawn, label=option)
        argv = ["burst"]
        for option, value in values.items():
            argv += [] if value is None else [option, str(value)]
        assert_cli_contract(argv, (0, 2))


def table_files(tmp, cfg):
    """A valid deinterleave table file of cfg and its mutations, by name:
    truncated, duplicated, empty, NUL-filled and with a bad first line."""
    text = serialize_table(build_table(cfg, Direction.DEINTERLEAVE)).encode()
    contents = {
        "valid": text,
        "truncated": text[:len(text) // 2],
        "duplicated": text + text,
        "empty": b"",
        "nul": b"\0" * len(text),
        "bad_header": b"# not an address table\n" + text.split(b"\n", 1)[1],
    }
    for name, content in contents.items():
        Path(tmp, name).write_bytes(content)
    return [os.path.join(tmp, name) for name in contents]


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_gen_verify_tradeoff_cli_contract_on_edge_values(data):
    """gen, verify and tradeoff exit 0, 1 or 2 (gen never 1) when up to three
    options of a valid argv take edge values or are left out, under the
    contract of assert_cli_contract. verify starts from a config or from a
    table file, valid or damaged. Output paths are ones the OS refuses."""
    command = data.draw(st.sampled_from(["gen", "verify", "tradeoff"]))
    n, d, s = data.draw(st.sampled_from([(32, 16, 1), (192, 16, 1), (384, 16, 2), (768, 12, 2)]))
    edges = [0, -1, 2 * d - 1, n, n + 1, MAX_NCBPS - 1, MAX_NCBPS + 1, 10**20]
    delays = ["nan", "inf", "-inf", -1, 0, 1e-300, 0.001, 1000.0, 1000.0001]
    values = {"--ncbps": n, "--d": d, "--s": s}
    with tempfile.TemporaryDirectory() as tmp:
        paths = ["", tmp, os.path.join(tmp, "missing", "out"), "/dev/full"]
        drawn = {"--ncbps": edges, "--d": edges, "--s": edges}
        if command == "gen":
            drawn |= {"--out": paths, "--engine": ["reference", "incremental"],
                      "--dir": [direction.value for direction in Direction]}
        elif command == "verify":
            tables = table_files(tmp, InterleaverConfig(n, d, s))
            drawn |= {"--table": tables, "--all-presets": [True]}
            if data.draw(st.booleans(), label="verify a table file"):
                values = {"--table": data.draw(st.sampled_from(tables))}
        else:
            drawn |= {"--out": paths, "--unit-delay-ns": delays}
        for option in data.draw(st.sets(st.sampled_from(sorted(drawn)), max_size=3)):
            values[option] = data.draw(st.none() | st.sampled_from(drawn[option]), label=option)
        # option=value, so that argparse passes values such as -1 and -inf on
        argv = [command]
        for option, value in values.items():
            if value is not None:
                argv.append(option if option == "--all-presets" else f"{option}={value}")
        assert_cli_contract(argv, (0, 2) if command == "gen" else (0, 1, 2))


def test_burst_requires_exactly_one_mode():
    assert main(["burst", "--ncbps", "32", "--d", "16", "--s", "1"]) == 2
    assert main(
        ["burst", "--ncbps", "32", "--d", "16", "--s", "1", "--b", "2", "--sweep-max", "3"]
    ) == 2


def test_tradeoff_text_and_json(tmp_path, capsys):
    out = tmp_path / "tradeoff.json"
    assert main(["tradeoff", "--preset", "qpsk", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "107.41" in text
    assert "PASS" in text and "FAIL" not in text

    payload = json.loads(out.read_text())
    assert payload["paper_reference"]["area_fmax_mhz"] == 107.41
    assert payload["model"]["speed"]["register_count"] == (
        payload["model"]["area"]["register_count"] + 1
    )
    assert all(row["pass"] for row in payload["comparison_check"])


def test_tradeoff_failed_check_exits_1(monkeypatch, tmp_path, capsys):
    wrong = cost_model.PAPER_REFERENCE._replace(printed_ff_reduction_pct=0.0)
    monkeypatch.setattr(cost_model, "PAPER_REFERENCE", wrong)
    out = tmp_path / "tradeoff.json"
    assert main(["tradeoff", "--preset", "qpsk", "--out", str(out)]) == 1
    verdicts = {
        line.split()[0]: line.split()[-1]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("  ") and "recomputed" in line
    }
    assert verdicts == {"slices_pct": "PASS", "ff_pct": "FAIL", "lut_pct": "PASS", "fmax_pct": "PASS"}
    rows = {row["name"]: row["pass"] for row in json.loads(out.read_text())["comparison_check"]}
    assert rows == {"slices_pct": True, "ff_pct": False, "lut_pct": True, "fmax_pct": True}


def test_tradeoff_unit_delay_flag(tmp_path, capsys):
    assert main(["tradeoff", "--preset", "qpsk", "--unit-delay-ns", "2.0"]) == 0
    slowed = capsys.readouterr().out
    assert "unit delay 2.0 ns" in slowed

    width = {}
    for delay in ("1.0", "0.001", "1000"):
        assert main(["tradeoff", "--preset", "qpsk", "--unit-delay-ns", delay]) == 0
        rows = capsys.readouterr().out.split("paper_reference")[0].splitlines()
        width[delay] = [len(row) for row in rows if not row.startswith("model:")]
    assert width["0.001"] == width["1.0"] == width["1000"]

    for bad in ("0", "-1", "nan", "inf", "1e-320", "1e308", "1e-300", "1e4"):
        out = tmp_path / f"tradeoff_{bad}.json"
        code = main(["tradeoff", "--preset", "qpsk", "--unit-delay-ns", bad, "--out", str(out)])
        assert code == 2, bad
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err, bad
        assert not out.exists(), bad


# SHA-256 of `tradeoff` stdout without --out and of its --out JSON file, per
# config and unit delay; the capture command is in tests/golden/README.md.
TRADEOFF_DIGESTS = {
    (("--preset", "qpsk"), "1.0"): (
        "fb0020d2f537d9c4196e4e13b449a04a14b587c46f2c1a05f0b816995074fd59",
        "4f62915f5706882d7df010616343bb38781fd2258acb1e18fb25ca924926f85e",
    ),
    (("--preset", "qpsk"), "2.5"): (
        "621832c2e0340760cfdc0fd2ec83fc1e11e3f9ab5f938d9b4fcad1eb6790feda",
        "11bcf5bc9c6f49d9660a630db3b018caf7ca4743ed7960ad7e73fbecf361dd23",
    ),
    (("--preset", "qam16"), "1.0"): (
        "9b1f164f11eb7354004ac66d576f72bfdafd03dbdb6e456f8b9ab0daec8bb1fe",
        "b96384674fae64c2045bc04e847254c2822b33506b821c71e8e44928cb75ddad",
    ),
    (("--preset", "qam16"), "2.5"): (
        "999c168881b60fabd3dd70d691d40947442ea6de1175a0d0e4957952ff2f88ce",
        "3d83795361aee3ae7c2a615eecacf04bf8f1d58a8a164f829fe7423cfdf8be13",
    ),
    (("--preset", "qam64"), "1.0"): (
        "349beb471ae8859bd337bed07bd97f789fa20e03da48f273bdf20458a83e01e4",
        "54020b500512656f22df8ab502b647ffaba42d2579c7a54ab89d6230844d4c7a",
    ),
    (("--preset", "qam64"), "2.5"): (
        "dde9719b30f0f2f14ae3949cb11e21e7da216e96d290a3fd3b5ba9b1cb82f742",
        "fb3d3c167b70afa3e8c27d29cb68eb15e48a762363936402e17f0e6c74f3159e",
    ),
    (("--ncbps", "2304", "--d", "16", "--s", "3"), "1.0"): (
        "3f48548d275d30afad0f9af69e5c44c30d18dffa7952bc3586bca0fe174ac4b4",
        "0a8beaf52adaff3a4c599e9f2ddb96eb4942eb62524247d27edbb64384fccd35",
    ),
    (("--ncbps", "2304", "--d", "16", "--s", "3"), "2.5"): (
        "8fd00fabd00d04723d8b3793214837ce739df27f59bedf446d55107be236fe1f",
        "b8399b66b894e80e9a36bbf96d2a28ba1dd2192cad8ee2e84a70b21f1e946d1a",
    ),
}


@pytest.mark.parametrize(
    "config,delay", TRADEOFF_DIGESTS, ids=lambda v: v if isinstance(v, str) else "_".join(v[1::2])
)
def test_tradeoff_report_matches_golden_digests(config, delay, tmp_path, capsys):
    argv = ["tradeoff", *config, "--unit-delay-ns", delay]
    assert main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "tradeoff.json"
    assert main([*argv, "--out", str(out)]) == 0
    digests = (hashlib.sha256(text.encode()).hexdigest(), hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests == TRADEOFF_DIGESTS[config, delay]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_console_entry_point_subprocess(tmp_path):
    # run from the directory holding the package under test, so `-m` finds
    # it whether or not PYTHONPATH names that directory
    proc = subprocess.run(
        [sys.executable, "-m", "wimax_il.cli", "verify", "--ncbps", "32", "--d", "16", "--s", "1"],
        capture_output=True,
        text=True,
        cwd=Path(wimax_il.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_closed_stdout_exits_2_with_one_error_line():
    # the table is far larger than a pipe buffer, so the write meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "wimax_il.cli", "gen", "--ncbps", "65536", "--s", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=Path(wimax_il.__file__).parents[1],
    )
    assert proc.stdout.readline() == b"# wimax-il address table v1\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    lines = err.decode().splitlines()  # no traceback, no "Exception ignored" at exit
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_acceptance_script_prints_eight_pass_lines():
    proc = subprocess.run(
        [sys.executable, "tests/test_acceptance.py"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 8 and all(line.endswith(": PASS") for line in lines), lines
