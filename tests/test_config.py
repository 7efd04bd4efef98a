import numpy as np
import pytest

from wimax_il.config import (
    MAX_NCBPS,
    PRESETS,
    InterleaverConfig,
    preset,
)
from wimax_il.cost_model import PAPER_REFERENCE
from wimax_il.errors import DivisibilityError, RangeError


@pytest.mark.parametrize(
    "n,d,s,rows",
    [
        (384, 16, 2, 24), (32, 16, 1, 2), (576, 16, 3, 36), (192, 16, 1, 12), (144, 12, 2, 12),
        (MAX_NCBPS, 16, 1, MAX_NCBPS // 16),
    ],
)
def test_validate_accepts(n, d, s, rows):
    cfg = InterleaverConfig(n, d, s)
    assert cfg.rows == rows


def test_validate_rejects_non_divisible_n():
    with pytest.raises(DivisibilityError):
        InterleaverConfig(100, 16, 1)


def test_validate_rejects_non_divisible_rows():
    # 256/16 = 16 rows; 3 does not divide 16
    with pytest.raises(DivisibilityError):
        InterleaverConfig(256, 16, 3)


@pytest.mark.parametrize(
    "n,d,s",
    [
        (384, 10, 2), (384, 16, 4), (384, 16, 0), (16, 16, 1), (0, 16, 1),
        (MAX_NCBPS + 16, 16, 1), (1_600_000_000, 16, 1),
    ],
)
def test_validate_rejects_out_of_range(n, d, s):
    with pytest.raises(RangeError):
        InterleaverConfig(n, d, s)


@pytest.mark.parametrize(
    "args,name",
    [
        ((192, 16.0, 1), "d"), ((192.0, 16, 1), "n_cbps"), ((192, 16, 1.0), "s"),
        (("192", 16, 1), "n_cbps"), ((192, None, 1), "d"), ((192, 16, "1"), "s"),
    ],
)
def test_validate_rejects_non_integers(args, name):
    with pytest.raises(RangeError, match=f"^{name} must be an integer"):
        InterleaverConfig(*args)


def test_validate_stores_int_like_values_as_int():
    cfg = InterleaverConfig(np.int64(192), np.int64(16), np.int64(1))
    assert cfg == InterleaverConfig(192, 16, 1)
    assert [type(v) for v in cfg] == [int, int, int]


def test_config_is_immutable():
    cfg = InterleaverConfig(192, 16, 1)
    with pytest.raises(AttributeError):
        cfg.n_cbps = 384
    assert cfg.n_cbps == 192


def test_replace_checks_the_invariants():
    cfg = InterleaverConfig(32, 16, 1)
    assert cfg._replace(n_cbps=64) == InterleaverConfig(64, 16, 1)
    with pytest.raises(RangeError):
        cfg._replace(d=7)
    with pytest.raises(DivisibilityError):
        cfg._replace(s=3)


def test_validate_matches_invariants_exhaustively():
    """Acceptance iff every invariant holds, for all triples with n <= 2048."""
    for d in (12, 16):
        for s in (1, 2, 3):
            for n in range(1, 2049):
                should_pass = (
                    n >= 2 * d and n % d == 0 and (n // d) % s == 0
                )
                if should_pass:
                    InterleaverConfig(n, d, s)
                else:
                    with pytest.raises((RangeError, DivisibilityError)):
                        InterleaverConfig(n, d, s)


def test_presets():
    assert preset("qpsk").as_text() == "192,16,1"
    assert preset("qam16").as_text() == "384,16,2"
    assert preset("qam64").as_text() == "576,16,3"
    assert set(PRESETS) == {"qpsk", "qam16", "qam64"}
    with pytest.raises(RangeError):
        preset("bpsk")


def test_reference_constants_carried_verbatim():
    ref = PAPER_REFERENCE
    assert ref.area_fmax_mhz == 107.41
    assert ref.speed_fmax_mhz == 130.2
    assert ref.power_mw == 56
    assert (ref.area_ff, ref.speed_ff) == (15, 16)
    assert (ref.area_lut, ref.speed_lut) == (116, 120)
    assert ref.slices == 65
    assert ref.comparison_fmax_mhz == 130.24
    assert ref.upadhyaya_fmax_mhz == 121.82
    assert ref.lut_method_fmax_mhz == 62.51
    assert ref.upadhyaya_slices_pct == 3.49
    assert ref.upadhyaya_ff_pct == 0.50
    assert ref.upadhyaya_lut_pct == 3.35
    with pytest.raises(AttributeError):
        ref.power_mw = 0
    assert ref.power_mw == 56
