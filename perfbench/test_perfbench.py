"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH = json.loads((W.ROOT / "BENCHMARK.json").read_text())


def _bound_functions() -> dict:
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "lostructure" or name.startswith("lostructure.")
        for attr, val in vars(mod).items()
        if callable(val)
    }


def _digest(workload: W.Workload, item, cfg) -> str:
    return W.output_digest(workload.to_json(workload.op(item, cfg)))


def test_wrappers_cover_every_binding_and_are_removed():
    gap, recovery = sys.modules["lostructure.gap"], sys.modules["lostructure.recovery"]
    before = _bound_functions()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # recovery imports coverage_count by name: both bindings are wrapped
        assert recovery.coverage_count is gap.coverage_count
        assert gap.coverage_count is not before[("lostructure.gap", "coverage_count")]
        # the package attribute `beta` is the function and is wrapped too
        assert W.L.beta is not before[("lostructure", "beta")]
    finally:
        tracer.uninstall()
    after = _bound_functions()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_and_untraced_outputs_are_identical():
    cfg = W.L.calibrated_config()
    cases = [
        (W.WORKLOADS["recover_1d"], W.WORKLOADS["recover_1d"].build(W.DEFAULT_SEED, cfg)[0]),
        (W.WORKLOADS["exact_law"], W.WORKLOADS["exact_law"].build(W.DEFAULT_SEED, cfg)[3]),
    ]
    plain = [_digest(w, item, cfg) for w, item in cases]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [_digest(w, item, cfg) for w, item in cases]
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"recovery.recover", "gap.coverage_count", "distributions.weighted_sum_law", "beta.beta"} <= names


def test_self_time_subtracts_child_spans():
    spans = [
        tracing.Span("recovery.recover", 0, -1, 0, 100),
        tracing.Span("gap.coverage_count", 0, 0, 10, 40, sizes={"queries": 6, "set_points": 5}),
        tracing.Span("harness.gen_planted", None, -1, 0, 50),
    ]
    m = tracing.layer_metrics(spans, ops=1, op_time_s=200e-9, setup_time_s=100e-9)
    assert m["recovery.recover.self_share"] == pytest.approx(0.35)
    assert m["gap.coverage_count.self_share"] == pytest.approx(0.15)
    assert m["gap.coverage_count.queries"] == 6
    assert m["harness.gen_planted.self_share"] == pytest.approx(0.5)
    assert m["gap.image.calls"] == 0


def test_tail_leaves_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 31)]) == (20.0, pytest.approx(200 / 3), 10)
    assert run.tail([float(x) for x in range(20)]) == (19.0, 100.0, 0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_short_run_reports_every_metric(workload, trace):
    """At the default seed the outputs are also checked against digests.json."""
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(W.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=W.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(W.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(W.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "recover_1d", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
