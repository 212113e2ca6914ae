"""Command-line front end.

Verbs: conc, gap, beta, check-bound, recover, gen, suite, calibrate.
Inputs are JSON files using the same schemas as the to_json_dict methods;
outputs are JSON on stdout or at --out.  --config points at a RunConfig
JSON (default: the calibrated constants shipped with the package).
An input file, --params or a rational flag (--tau, --t, --lam) that
cannot be read or parsed ends with a one-line message on stderr and exit
code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from .beta import append_bound_ledger, beta, check_cp_bound
from .concentration import conc_ball_mc, conc_interval, conc_zero
from .config import RunConfig, calibrated_config, load_config
from .distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    DiscreteDistribution,
    WeightVector,
)
from .gap import Cgap, Gap, SymmetricPolytope, dilate, image, is_proper, mahler_sandwich, embed_proper, size
from .harness import KINDS, SUITES, calibrate, gen_planted, report_csv, run_suite
from .rational import format_fraction, to_fraction
from .recovery import (
    RecoveryParams,
    log_rank_construct,
    recover,
    schedule_scaled_tau,
    schedule_zero_tau,
)


class _InputError(Exception):
    """Malformed input: reported as one line on stderr, exit code 2."""


@contextlib.contextmanager
def _parsing(source: str):
    """Turn a failure to read or parse `source` into an _InputError.  Wraps
    input parsing only, so an error in a computation still surfaces."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        detail = " ".join(str(exc).split())
        raise _InputError(f"{source}: {type(exc).__name__}: {detail}") from exc


def _flag(name: str, text: str) -> Fraction:
    """The value of the rational flag `name`; malformed text is an input error."""
    with _parsing(name):
        return to_fraction(text)


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load(cls, path: str):
    """cls.from_json_dict on the JSON file at path."""
    with _parsing(path):
        return cls.from_json_dict(_read_json(path))


def _emit(obj, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_cfg(args) -> RunConfig:
    if args.config:
        with _parsing(args.config):
            return load_config(args.config)
    try:
        return calibrated_config()
    except Exception:  # noqa: BLE001 - data file may be absent before calibration
        return RunConfig()


def _dist_sampler(F: DiscreteDistribution):
    vals = np.array([[float(c) for c in v] for v, _ in F.atoms])
    probs = np.array([float(m) for _, m in F.atoms], dtype=float)
    probs = probs / probs.sum()

    def sample(count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(vals), size=count, p=probs)
        picked = vals[idx]
        return picked[:, 0] if F.dim == 1 else picked

    return sample


def _cmd_conc(args) -> int:
    F = _load(DiscreteDistribution, args.distribution)
    tau = _flag("--tau", args.tau)
    if args.mode == "exact":
        if tau == 0:
            res = conc_zero(F)
        elif F.dim == 1:
            res = conc_interval(F, tau)
        else:
            print("exact tau > 0 needs dim 1; use --mode mc", file=sys.stderr)
            return 2
    else:
        res = conc_ball_mc(_dist_sampler(F), F.dim, float(tau), args.samples, args.seed)
    _emit(res.to_json_dict(), args.out)
    return 0


def _cmd_gap(args) -> int:
    cfg = _load_cfg(args)
    if args.verb == "sandwich":
        V = _load(SymmetricPolytope, args.object)
        P, t_star = mahler_sandwich(V, enum_cap=cfg.enum_cap)
        _emit({"gap": P.to_json_dict(), "t_star": t_star}, args.out)
        return 0
    P = _load(Gap, args.object)
    if args.verb == "image":
        # image() yields bare Fractions for dim 1 and tuples otherwise
        pts = [v if isinstance(v, tuple) else (v,) for v in sorted(image(P, cfg.enum_cap))]
        _emit({"size": len(pts), "image": [[format_fraction(c) for c in v] for v in pts]}, args.out)
    elif args.verb == "proper":
        _emit({"proper": is_proper(P, cfg.enum_cap), "size": size(P, cfg.enum_cap)}, args.out)
    elif args.verb == "dilate":
        Q = dilate(P, _flag("--t", args.t))
        _emit(Q.to_json_dict(), args.out)
    elif args.verb == "embed":
        res = embed_proper(P, _flag("--t", args.t), cfg.enum_cap)
        _emit(
            {
                "gap": res.gap.to_json_dict(),
                "size_ratio": format_fraction(res.size_ratio),
                "collapsed": res.collapsed,
            },
            args.out,
        )
    return 0


def _cmd_beta(args) -> int:
    W = _load(AtomicMeasure, args.measure)
    res = beta(W, _flag("--tau", args.tau), args.r, args.m, mode=args.mode)
    _emit(res.to_json_dict(), args.out)
    return 0


def _cmd_check_bound(args) -> int:
    cfg = _load_cfg(args)
    a = _load(WeightVector, args.weights)
    cp = CompoundPoissonSpec(a, float(_flag("--lam", args.lam)))
    rep = check_cp_bound(cp, _flag("--tau", args.tau), args.r, args.m, cfg)
    if args.ledger:
        append_bound_ledger(args.ledger, args.id, rep)
    _emit(rep.to_json_dict(), args.out)
    return 0 if rep.slack >= 1 else 1


def _schedule_json(schedules) -> list:
    out = []
    for s in schedules:
        out.append(
            {
                "index": s.index,
                "r": s.r,
                "n_prime": s.n_prime,
                "m": s.m,
                "flags": list(s.flags),
                "fallback_rank": s.fallback.rank if s.fallback is not None else None,
                "fallback_covers": s.fallback_covers,
            }
        )
    return out


def _cmd_recover(args) -> int:
    cfg = _load_cfg(args)
    with _parsing(args.instance):
        inst = _read_json(args.instance)
        a = WeightVector.from_json_dict(inst["weight"])
        F = DiscreteDistribution.from_json_dict(inst["law"])
        inst_id = inst.get("id", args.instance)
    with _parsing(args.params):
        p = _read_json(args.params)
        if args.mode == "full":
            params = RecoveryParams(
                to_fraction(p["q"]) if p.get("q") is not None else None,
                to_fraction(p["tau"]),
                to_fraction(p["kappa"]),
                to_fraction(p["delta"]),
                int(p["r"]),
                int(p["n_prime"]),
                a.n,
                to_fraction(p["p_val"]) if p.get("p_val") is not None else None,
                cfg.constants,
            )
        elif args.mode == "logrank":
            tau, kappa, delta = [to_fraction(p[k]) for k in ("tau", "kappa", "delta")]
        elif args.mode == "zero-tau":
            schedule = functools.partial(
                schedule_zero_tau,
                p["A"], p["theta"], p["eps1"], p["eps2"], p["b_n"],
                [to_fraction(x) for x in p["q_list"]], a.n, to_fraction(p["p_val"]), a, cfg,
            )
        else:  # scaled-tau
            schedule = functools.partial(
                schedule_scaled_tau,
                p["A"], p["B"], p["D"], p["theta"], p["eps"], p["b_n"],
                to_fraction(p["rho_n"]), to_fraction(p["p_val"]),
                [to_fraction(x) for x in p["q_list"]], a.n, a, cfg,
                tau_n=to_fraction(p["tau_n"]) if p.get("tau_n") is not None else None,
                kappa_n=to_fraction(p["kappa_n"]) if p.get("kappa_n") is not None else None,
            )
    if args.mode == "full":
        rep = recover(a, F, params, cfg)
        if args.csv:
            report_csv([("recover", inst_id, rep)], args.csv)
        _emit(rep.to_json_dict(), args.out)
        return 0 if not rep.flags else 1
    if args.mode == "logrank":
        P, rep = log_rank_construct(a, F, tau, kappa, delta, cfg)
        if args.csv:
            report_csv([("log_rank", inst_id, rep)], args.csv)
        _emit({"gap": P.to_json_dict(), "report": rep.to_json_dict()}, args.out)
        return 0
    _emit(_schedule_json(schedule()), args.out)
    return 0


def _cmd_gen(args) -> int:
    with _parsing("--params"):
        params = json.loads(args.params or "{}")
        if not isinstance(params, dict):
            raise TypeError(f"expected a JSON object, got {type(params).__name__}")
    inst = gen_planted(args.kind, params, args.seed)
    _emit(inst.to_json_dict(), args.out)
    return 0


def _cmd_suite(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    names = SUITES if args.name == "all" else (args.name,)
    ok = True
    reports = []
    for name in names:
        rep = run_suite(name, cfg)
        reports.append(rep)
        print(f"{name}: {rep.passes}/{rep.instances} pass", file=sys.stderr)
        for fid, reason in rep.failures:
            print(f"  FAIL {fid}: {reason}", file=sys.stderr)
        ok = ok and rep.passes == rep.instances
    if args.csv:
        report_csv(reports, args.csv)
    _emit([r.to_json_dict() for r in reports], args.out)
    return 0 if ok else 1


def _cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    blob = calibrate(cfg, args.out)
    if not args.out:
        print(json.dumps(blob, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="lostructure")
    ap.add_argument("--config", help="RunConfig JSON path", default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("conc", help="concentration of a discrete law")
    p.add_argument("distribution")
    p.add_argument("--tau", default="0")
    p.add_argument("--mode", choices=("exact", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_conc)

    p = sub.add_parser("gap", help="progression operations")
    p.add_argument("verb", choices=("image", "proper", "dilate", "sandwich", "embed"))
    p.add_argument("object", help="Gap JSON (polytope JSON for sandwich)")
    p.add_argument("--t", default="1", help="dilation factor for dilate/embed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gap)

    p = sub.add_parser("beta", help="least uncovered mass over witnesses")
    p.add_argument("measure")
    p.add_argument("--tau", default="0")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--mode", choices=("auto", "exact", "upper_bound"), default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_beta)

    p = sub.add_parser("check-bound", help="concentration bound for one compound law")
    p.add_argument("weights")
    p.add_argument("--lam", default="1")
    p.add_argument("--tau", default="0")
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--id", default="cli")
    p.add_argument("--ledger", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_check_bound)

    p = sub.add_parser("recover", help="structure recovery on one instance")
    p.add_argument("instance")
    p.add_argument("params")
    p.add_argument(
        "--mode", choices=("full", "logrank", "zero-tau", "scaled-tau"), default="full"
    )
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser("gen", help="generate a planted instance")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--params", default=None, help="JSON object literal")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", choices=SUITES + ("all",))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("calibrate", help="measure and freeze constants")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_calibrate)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"lostructure: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
