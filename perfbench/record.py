"""Record the benchmark's reference data.

    python3 perfbench/record.py digests
        Writes perfbench/digests.json: the output digest of every pool item
        of every workload at the default workload seed.  Run it only at a
        commit whose outputs are the reference.

    python3 perfbench/record.py trajectory --runs 10 --first-seed 1 --out perfbench/BENCH_1.json
        Runs run.py --runs times per workload (seeds first-seed, ...) with
        tracing off and once with tracing on, and writes each end-to-end
        metric's median and quartiles, its spread (quartile distance over
        median), the same for the median op time, and the traced run's
        per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record_digests() -> None:
    import workloads as W

    out = {}
    for name, workload in W.WORKLOADS.items():
        cfg = W.L.calibrated_config()
        pool = workload.build(W.DEFAULT_SEED, cfg)
        digests = []
        for item in pool:
            res = workload.op(item, cfg)
            failure = workload.check(item, res)
            if failure is not None:
                raise SystemExit(f"{name}: {item[0].id} fails its check: {failure}")
            digests.append(W.output_digest(workload.to_json(res)))
        out[name] = digests
        print(name, len(digests), file=sys.stderr)
    W.DIGESTS_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def record_trajectory(runs: int, first_seed: int, out: Path) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"run_seconds": bench["run_seconds"], "seeds": list(range(first_seed, first_seed + runs)), "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        results, p50 = [], []
        for seed in result["seeds"]:
            report, res = run_once(name, seed, bench["run_seconds"], 0)
            results.append(res)
            p50.append(report["op_p50_s"])
            print(name, seed, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, file=sys.stderr, flush=True)
        trace_report, trace_res = run_once(name, first_seed, bench["run_seconds"], 1)
        result["provenance"] = {k: v for k, v in report["provenance"].items() if not k.startswith("workload") and k not in ("instances", "instance_params")}
        result["workloads"][name] = {
            "why": wl["why"],
            "instance_params": report["provenance"]["instance_params"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summarize([r["metrics"][m["name"]]["value"] for r in results])}
                for m in bench["end_to_end"]
            },
            "op_p50_s": summarize(p50),
            "per_layer": {k: v["value"] for k, v in trace_res["metrics"].items()},
            "traced": {"attempted": trace_res["attempted"], "failed": trace_res["failed"], "ops": trace_report["traced_ops"]},
        }
        for m, s in result["workloads"][name]["end_to_end"].items():
            print(f"{name:16s} {m:12s} median {s['median']:.4f} spread {s['spread']:.4f}", file=sys.stderr, flush=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Record the benchmark's reference data.")
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("digests")
    tr = sub.add_parser("trajectory")
    tr.add_argument("--runs", type=int, default=10)
    tr.add_argument("--first-seed", type=int, default=1)
    tr.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.cmd == "digests":
        record_digests()
    else:
        record_trajectory(args.runs, args.first_seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
