"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload recover_1d --seed 1 --seconds 20 --trace 0

The client is a closed loop: the next op starts only when the previous one
returned.  Set-up is the import of the library, calibrated_config() and
building the instance pool; it runs SETUP_REPEATS times, once in this
process and the rest in fresh child processes, and setup_s is the median.
The timed phase then runs ops for --seconds and checks each output after
its op; a raised exception or a failed check counts as a failed op and never
aborts the run.  ops_per_s is ops per second of op time, checks excluded.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the library's
public functions (tracing.py), runs the traced op loop for half of
--seconds, then replays the same ops untraced: the per-layer metrics come
from the traced half, trace_overhead_frac from the two halves' op time, and the two
halves must produce identical output digests.  Spans are written to
.perfbench_out/ at the root of the checkout.

The second-to-last line of stdout is a JSON report with provenance and
detail; the last line is the result object.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Optional  # noqa: E402

import workloads as W  # noqa: E402  (imports lostructure)

T_IMPORTED = time.perf_counter()

import tracing  # noqa: E402

SETUP_REPEATS = 3
# a fresh interpreter's set-up, timed from before the library import
SETUP_CHILD = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, sys.argv[1]); "
    "import workloads as W; W.WORKLOADS[sys.argv[2]].build(int(sys.argv[3]), W.L.calibrated_config()); "
    "print(time.perf_counter() - t)"
)
OUT_DIR = W.ROOT / ".perfbench_out"
_gap = importlib.import_module("lostructure.gap")


def check_op(workload: W.Workload, item, out, err: Optional[str], expected: Optional[str]):
    """(failure text or None, output digest) of one op."""
    if err is not None:
        return err, None
    try:
        failure = workload.check(item, out)
        digest = W.output_digest(workload.to_json(out))
    except Exception as exc:  # noqa: BLE001 - a failing check fails the op
        return f"check raised {type(exc).__name__}: {exc}", None
    if failure is None and expected is not None and digest != expected:
        failure = "output differs from the digest recorded at the seed commit"
    return failure, digest


def run_ops(workload: W.Workload, pool: list, cfg, seconds: float, expected: Optional[list],
            count: Optional[int] = None, tracer=None):
    """Closed loop over the pool for `seconds` (at least one op), or for
    exactly `count` ops.  The image cache starts empty, as for a new
    instance.  Each output is checked, outside its op's time, and dropped,
    so memory does not grow with the number of ops.  Returns per-op times,
    failures (None for an op that passed) and output digests."""
    times, failures, digests = [], [], []
    _gap._image_table.cache_clear()
    t0 = time.perf_counter()
    i = 0
    while i < count if count is not None else (i == 0 or time.perf_counter() - t0 < seconds):
        item = pool[i % len(pool)]
        if tracer is not None:
            tracer.op = i
        s = time.perf_counter()
        try:
            out, err = workload.op(item, cfg), None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - s)
        if tracer is not None:
            tracer.op = None
        failure, digest = check_op(workload, item, out, err, expected[i % len(pool)] if expected else None)
        failures.append(failure)
        digests.append(digest)
        i += 1
    return times, failures, digests


def tail(times: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    leaves at least ten samples beyond it.  Below 21 samples that
    percentile would lie under the median, so the maximum is reported."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, 10


def provenance(workload: W.Workload, seed: int, pool: list) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    revision = None
    if (W.ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=W.ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((W.ROOT / "src" / "lostructure").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(W.ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "workload_seed": seed,
        "instance_params": workload.params,
        "instances": [inst.id if isinstance(inst, W.L.Instance) else [i.id for i in inst] for inst, _ in pool],
    }


def child_setup_s(workload: W.Workload, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(W.ROOT / "perfbench"), workload.name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def build(workload: W.Workload, seed: int):
    t = time.perf_counter()
    cfg = W.L.calibrated_config()
    pool = workload.build(seed, cfg)
    return cfg, pool, time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    workload = W.WORKLOADS[args.workload]
    expected = W.recorded_digests()[workload.name] if args.seed == W.DEFAULT_SEED else None
    report = {}

    if args.trace == 0:
        setups = [child_setup_s(workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        cfg, pool, build_s = build(workload, args.seed)
        setups.append(T_IMPORTED - T_START + build_s)
        times, failures, _ = run_ops(workload, pool, cfg, args.seconds, expected)
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(times) / sum(times), "ops/s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        # The median op time is reported here, not as a bounded metric: on a
        # host whose speed flips between two states for tens of seconds it
        # follows whichever state held most of the run.
        report["op_p50_s"] = statistics.median(times)
        report["op_tail"] = {"percentile": tail_pct, "samples_beyond": beyond, "samples": len(times)}
        report["setup_repeats_s"] = setups
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            cfg, pool, setup_wall = build(workload, args.seed)
            times, failures, digests = run_ops(workload, pool, cfg, args.seconds / 2, expected, tracer=tracer)
            cache = _gap._image_table.cache_info()
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
        n = len(times)
        times_b, failures_b, digests_b = run_ops(workload, pool, cfg, 0, expected, count=n)
        failures += [
            f or ("traced and untraced outputs differ" if d != da else None)
            for f, d, da in zip(failures_b, digests_b, digests)
        ]
        units = dict(tracing.metric_names())
        values = tracing.layer_metrics(tracer.spans, n, sum(times), setup_wall)
        lookups = cache.hits + cache.misses
        values.update(
            {
                "gap.image_table.hits": cache.hits / n,
                "gap.image_table.misses": cache.misses / n,
                "gap.image_table.hit_ratio": cache.hits / lookups if lookups else 0.0,
                "trace_overhead_frac": 1 - sum(times_b) / sum(times),
            }
        )
        metrics = {k: (v, units[k]) for k, v in values.items()}
        report["traced_ops"] = n
        report["spans"] = len(tracer.spans)

    failed = sum(f is not None for f in failures)
    report.update(
        {
            "provenance": provenance(workload, args.seed, pool),
            "trace": args.trace,
            "seconds": args.seconds,
            "attempted": len(failures),
            "failed": failed,
            "ops_failed_frac": failed / len(failures),
            "failures": sorted({f for f in failures if f is not None}),
        }
    )
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
