"""Run configuration: hidden-constant knobs, enumeration budgets, MC sizes.

The inequalities implemented here hold with unspecified absolute constants.
Each constant is a named configuration value with default 1.0; `calibrate`
(see harness) measures the minimal value that makes the seeded suites pass
and freezes the result into a JSON config.  Tests about hidden constants are
ratio-stability tests; nothing in the package asserts a bare constant.
"""

from __future__ import annotations

import dataclasses
import json
from importlib import resources
from pathlib import Path


@dataclasses.dataclass(frozen=True)
class Constants:
    """The hidden absolute constants, each defaulting to 1.0."""

    c_cp: float = 1.0  # concentration bound for exp(alpha(What - 1)) laws
    c_sum: float = 1.0  # concentration bound for weighted sums via the cp bound
    c_window: float = 1.0  # truncation-window / size-budget constant in recovery
    c_size_bar: float = 1.0  # size growth allowance after the sandwich step (report only)
    c_size_proper: float = 1.0  # size growth allowance after proper embedding (report only)
    c_size_tilde: float = 1.0  # size growth allowance for the final progression (report only)
    c_dilate: float = 1.0  # dilation exponent base for the final-embedding step
    c_logrank: float = 1.0  # rank and residual budget constant of the log-rank construction
    c_esseen: float = 1.0  # constant of the characteristic-function upper bound

    def as_dict(self) -> dict[str, float]:
        return dataclasses.asdict(self)


CONSTANT_NAMES = tuple(f.name for f in dataclasses.fields(Constants))


@dataclasses.dataclass
class RunConfig:
    constants: Constants = dataclasses.field(default_factory=Constants)
    atom_cap: int = 10**6
    enum_cap: int = 10**6
    mc_samples: int = 10**5
    seed: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(d: dict) -> RunConfig:
    """A RunConfig from its as_dict form; a missing key keeps its default and
    an unknown key is ignored."""
    consts = {k: float(v) for k, v in d.get("constants", {}).items() if k in CONSTANT_NAMES}
    ints = [f.name for f in dataclasses.fields(RunConfig) if f.name != "constants"]
    return RunConfig(Constants(**consts), **{k: int(d[k]) for k in ints if k in d})


def load_config(path: str | Path) -> RunConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def calibrated_config() -> RunConfig:
    """The calibrated constants shipped with the package (written by the
    `calibrate` CLI verb; acceptance suites run against this)."""
    data = resources.files("lostructure").joinpath("data/calibrated.json").read_text()
    return config_from_dict(json.loads(data))
