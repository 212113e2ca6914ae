"""Golden outputs: `lostructure suite all` at seed 0 under the calibrated
config must reproduce the checked-in CSV and JSON byte for byte.

The files were recorded with, from the repository root:

    PYTHONPATH=src python -m lostructure.cli suite all --seed 0 \
        --csv tests/golden/suite_all_seed0.csv \
        --out tests/golden/suite_all_seed0.json

(delete the CSV first: the report appends).  Regenerate them only when a
change to the reported results is intended, and say so in CHANGES.md.
The ratio_stability rows and the calibration block carry Monte Carlo
floats; they depend on numpy's random streams and float rounding, so a
mismatch there on another platform is recorded, not loosened.
"""

from __future__ import annotations

from pathlib import Path

from lostructure.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_suite_all_seed0_is_byte_identical(tmp_path, capsys):
    csv, out = tmp_path / "suite.csv", tmp_path / "suite.json"
    assert main(["suite", "all", "--seed", "0", "--csv", str(csv), "--out", str(out)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == (GOLDEN / "suite_all_seed0.csv").read_bytes()
    assert out.read_bytes() == (GOLDEN / "suite_all_seed0.json").read_bytes()
