"""Golden outputs: `lostructure suite all` at seed 0 and three `recover`
reports under the calibrated config must reproduce the checked-in files
in `tests/golden/` byte for byte.

Every golden file is rewritten, from the repository root, by

    PYTHONPATH=src python tests/test_golden.py

Regenerate them only when a change to the reported results is intended,
and say so in CHANGES.md.  The ratio_stability rows and the calibration
block carry Monte Carlo floats; they depend on numpy's random streams and
float rounding, so a mismatch there on another platform is recorded, not
loosened.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from lostructure.cli import main
from lostructure.config import calibrated_config
from lostructure.harness import (
    gen_planted,
    min_admissible_n_prime,
    product_coordinate_params,
    window_params_for_outliers,
)
from lostructure.recovery import recover, recover_multid

GOLDEN = Path(__file__).parent / "golden"


def test_suite_all_seed0_is_byte_identical(tmp_path, capsys):
    csv, out = tmp_path / "suite.csv", tmp_path / "suite.json"
    assert main(["suite", "all", "--seed", "0", "--csv", str(csv), "--out", str(out)]) == 0
    capsys.readouterr()
    assert csv.read_bytes() == (GOLDEN / "suite_all_seed0.csv").read_bytes()
    assert out.read_bytes() == (GOLDEN / "suite_all_seed0.json").read_bytes()


def recover_goldens() -> dict[str, bytes]:
    """The golden `recover` reports, by file name, as the test compares them
    and as `PYTHONPATH=src python tests/test_golden.py` writes them.

    - outliers: the recovery suite's instance shape at seed 0 with its
      certified window parameters.
    - outliers_rank0: the same instance at r = 0 and delta = kappa with the
      smallest admissible n', where the witness and the embedded
      progression both have rank 0.
    - product_d: `recover_multid` on the product-recovery suite's shape.
    """
    cfg = calibrated_config()
    inst = gen_planted("outliers", {"n_pad": 5948, "n_sig": 50, "n_out": 2}, seed=0)
    params = window_params_for_outliers(inst, cfg)
    rank0 = dataclasses.replace(params, r=0, delta=params.kappa)
    rank0 = dataclasses.replace(rank0, n_prime=min_admissible_n_prime(rank0))
    prod = gen_planted("product_d", {"d": 2, "n_pad": 11950, "n_sig": 48, "n_out": 2}, seed=0)
    prod_params = [product_coordinate_params(prod, j, cfg) for j in range(prod.weight.dim)]
    reports = {
        "recover_outliers_seed0.json": recover(inst.weight, inst.law, params, cfg),
        "recover_outliers_rank0_seed0.json": recover(inst.weight, inst.law, rank0, cfg),
        "recover_multid_product_d_seed0.json": recover_multid(prod.weight, prod.law, prod_params, cfg),
    }
    return {
        name: (json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n").encode()
        for name, rep in reports.items()
    }


def test_recover_reports_are_byte_identical():
    for name, data in recover_goldens().items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    csv = GOLDEN / "suite_all_seed0.csv"
    csv.unlink(missing_ok=True)  # the CSV report appends
    main(["suite", "all", "--seed", "0", "--csv", str(csv), "--out", str(GOLDEN / "suite_all_seed0.json")])
    for name, data in recover_goldens().items():
        (GOLDEN / name).write_bytes(data)
