"""Acceptance gate: one check per release criterion, exact tolerances.

Run under pytest (`pytest tests/test_acceptance.py -v`) or standalone
(`python tests/test_acceptance.py`), which prints one PASS/FAIL line per
criterion and exits non-zero on any failure.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from wimax_il.burst import burst_sweep
from wimax_il.cli import main as cli_main
from wimax_il.config import InterleaverConfig
from wimax_il.cost_model import compare_variants, reduction_check
from wimax_il.generator import run
from wimax_il.reference import (
    Direction,
    build_table,
    deinterleave_index,
    interleave_index,
)

from conftest import loop_div_mul

CONFIGS = [
    InterleaverConfig(32, 16, 1),
    InterleaverConfig(192, 16, 1),
    InterleaverConfig(384, 16, 2),
    InterleaverConfig(576, 16, 3),
    InterleaverConfig(768, 16, 2),
    InterleaverConfig(1152, 16, 3),
]

CFG32 = CONFIGS[0]
CFG384 = CONFIGS[2]


def check_1_mutual_inverse_exhaustive():
    for cfg in CONFIGS:
        for k in range(cfg.n_cbps):
            assert deinterleave_index(cfg, interleave_index(cfg, k)) == k, (cfg, k)


def check_2_bijectivity():
    for cfg in CONFIGS:
        for direction in Direction:
            table = build_table(cfg, direction)
            assert sorted(table.map) == list(range(cfg.n_cbps)), (cfg, direction)


def check_3_oracle_equivalence_and_loop_source():
    for cfg in CONFIGS:
        assert run(cfg).map == build_table(cfg, Direction.DEINTERLEAVE).map, cfg
    offenders = loop_div_mul(run)
    assert offenders == [], f"division or multiplication in the run() loop: {offenders}"


def check_4_worked_values():
    assert build_table(CFG32, Direction.DEINTERLEAVE).map[:4] == (0, 16, 1, 17)
    assert interleave_index(CFG384, 1) == 25
    assert deinterleave_index(CFG384, 25) == 1


def check_5_burst_dispersal():
    for cfg in (cfg for cfg in CONFIGS if cfg.s == 1):
        for b in range(1, cfg.rows + 1):
            assert max(burst_sweep(cfg, b).worst_runs) == 1, (cfg, b)
    assert max(burst_sweep(CFG32, 3).worst_runs) >= 2


def check_6_comparison_arithmetic():
    got = {name: recomputed for name, recomputed, _, _ in reduction_check()}
    for key, printed in [
        ("slices_pct", -71.34),
        ("ff_pct", -69.4),
        ("lut_pct", -70.14),
        ("fmax_pct", 6.9),
    ]:
        assert abs(got[key] - printed) <= 0.1, (key, got[key], printed)


def check_7_tradeoff_ordering():
    for cfg in CONFIGS:
        report = compare_variants(cfg)
        assert report.speed.critical_path_depth < report.area.critical_path_depth
        assert report.speed.register_count == report.area.register_count + 1
        payload = report.as_dict()["paper_reference"]
        assert payload["area_fmax_mhz"] == 107.41
        assert payload["speed_fmax_mhz"] == 130.2
        assert payload["power_mw"] == 56
        assert (payload["area_ff"], payload["speed_ff"]) == (15, 16)
        assert (payload["area_lut"], payload["speed_lut"]) == (116, 120)
        assert "107.41" in report.render_text()


def check_8_cli_contract(workdir: Path):
    table_path = workdir / "t32.csv"
    ref_path = workdir / "ref32.csv"

    # success paths
    assert cli_main(
        ["gen", "--ncbps", "32", "--d", "16", "--s", "1",
         "--engine", "incremental", "--out", str(table_path)]
    ) == 0
    assert cli_main(
        ["gen", "--ncbps", "32", "--d", "16", "--s", "1",
         "--engine", "reference", "--out", str(ref_path)]
    ) == 0
    assert table_path.read_bytes() == ref_path.read_bytes()
    assert cli_main(["verify", "--table", str(table_path)]) == 0
    assert cli_main(["verify", "--all-presets"]) == 0
    assert cli_main(["burst", "--ncbps", "32", "--d", "16", "--s", "1", "--b", "2"]) == 0
    out_json = workdir / "tradeoff.json"
    assert cli_main(["tradeoff", "--preset", "qam16", "--out", str(out_json)]) == 0
    assert json.loads(out_json.read_text())["paper_reference"]["slices"] == 65

    # round trip byte-identically through parse/serialize
    from wimax_il.tablefile import parse_table, serialize_table

    original = table_path.read_text()
    assert serialize_table(parse_table(original)) == original

    # corruption -> exit 1
    corrupt = workdir / "corrupt.csv"
    corrupt.write_text(original.replace("0,0\n1,16\n", "0,16\n1,0\n"))
    assert cli_main(["verify", "--table", str(corrupt)]) == 1

    # bad input -> exit 2
    assert cli_main(["gen", "--ncbps", "100", "--d", "16", "--s", "1"]) == 2
    assert cli_main(["burst", "--ncbps", "32", "--d", "16", "--s", "1", "--b", "0"]) == 2
    assert cli_main(["tradeoff", "--ncbps", "32", "--d", "16", "--s", "9"]) == 2


def test_criterion_1_mutual_inverse():
    check_1_mutual_inverse_exhaustive()
    print("criterion 1 (mutual inverse, exhaustive, exact): PASS")


def test_criterion_2_bijectivity():
    check_2_bijectivity()
    print("criterion 2 (bijectivity of every table, exact): PASS")


def test_criterion_3_oracle_equivalence():
    check_3_oracle_equivalence_and_loop_source()
    print("criterion 3 (incremental = reference, zero div/mul, exact): PASS")


def test_criterion_4_worked_values():
    check_4_worked_values()
    print("criterion 4 (worked address values, exact): PASS")


def test_criterion_5_burst_dispersal():
    check_5_burst_dispersal()
    print("criterion 5 (burst dispersal, exhaustive sweeps, exact): PASS")


def test_criterion_6_comparison_arithmetic():
    check_6_comparison_arithmetic()
    print("criterion 6 (published reduction percentages within 0.1): PASS")


def test_criterion_7_tradeoff_ordering():
    check_7_tradeoff_ordering()
    print("criterion 7 (structural ordering + verbatim constants): PASS")


def test_criterion_8_cli_contract(tmp_path):
    check_8_cli_contract(tmp_path)
    print("criterion 8 (CLI exit codes and byte-stable files): PASS")


def _main() -> int:
    checks = [
        ("criterion 1 (mutual inverse, exhaustive, exact)", check_1_mutual_inverse_exhaustive),
        ("criterion 2 (bijectivity of every table, exact)", check_2_bijectivity),
        ("criterion 3 (incremental = reference, zero div/mul, exact)", check_3_oracle_equivalence_and_loop_source),
        ("criterion 4 (worked address values, exact)", check_4_worked_values),
        ("criterion 5 (burst dispersal, exhaustive sweeps, exact)", check_5_burst_dispersal),
        ("criterion 6 (published reduction percentages within 0.1)", check_6_comparison_arithmetic),
        ("criterion 7 (structural ordering + verbatim constants)", check_7_tradeoff_ordering),
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"{name}: FAIL ({exc})")
        else:
            print(f"{name}: PASS")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            # the CLI prints its own summaries; keep the gate output clean
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                check_8_cli_contract(Path(tmp))
        except AssertionError as exc:
            failed += 1
            print(f"criterion 8 (CLI exit codes and byte-stable files): FAIL ({exc})")
        else:
            print("criterion 8 (CLI exit codes and byte-stable files): PASS")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(_main())
