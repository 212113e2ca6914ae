"""Instance generation, verification suites, CSV reporting, calibration.

Every suite is deterministic given (seed, config): instance generators use
seeded PRNGs, Monte-Carlo estimators receive explicit seeds, and CSV rows
are sorted before writing with no timestamps, so a rerun produces
byte-identical rows.

Recovery-style suites avoid exact convolutions over thousands of summands:
the observed concentration q they feed into the window check is a certified
lower estimate assembled from independent blocks (a pad block whose partial
sums stay inside a quarter window with probability one, a small signal block
whose center mass is an exact binomial sum, and an even outlier block), which
is sound because the window hypotheses only ever use q from below.

A suite is a generator over its cases: it yields (id, reason, rows) per
case, where reason is None on a pass and rows are the case's CSV fields
past suite and id, and it returns its calibration dict.  `run_suite` alone
turns those cases into a SuiteReport.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from fractions import Fraction
from typing import Generator, Optional, Sequence

import numpy as np

from .beta import BoundReport, _covered_mass, append_csv, beta, check_cp_bound
from .concentration import conc_interval, esseen_upper, reduction_pair, regularity_factor
from .config import RunConfig
from .distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    DiscreteDistribution,
    WeightVector,
    from_scalar_atoms,
    rademacher,
    symmetrize,
    tail_mass,
    weights_1d,
)
from .errors import InvalidWindow, LostructureError
from .gap import Gap, dilate, gap_1d, image, is_proper, near, size, vol
from .rational import format_fraction, to_fraction
from .recovery import (
    LogRankReport,
    RecoveryParams,
    RecoveryReport,
    _product_gap,
    log_rank_construct,
    recover,
    recover_multid,
    select_m,
)

KINDS = ("ap", "gap2", "outliers", "dense_random", "product_d")

CSV_HEADER = "suite,id,n,d,r,m,tau,kappa,delta,lhs,rhs,slack,coverage,flags"


# ---------------------------------------------------------------------------
# Instances.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Instance:
    id: str
    weight: WeightVector
    law: DiscreteDistribution
    planted: Optional[dict]  # {"gap": Gap, "outliers": (idx,...), "delta0": Fraction}
    seed: int

    def __post_init__(self):
        if self.planted is None:
            return
        P = self.planted["gap"]
        outliers = set(self.planted.get("outliers", ()))
        delta0 = to_fraction(self.planted.get("delta0", 0))
        pts = tuple(sorted(image(P)))
        dim1 = self.weight.dim == 1
        entries = self.weight.entries
        if not all(0 <= k < len(entries) for k in outliers):
            raise ValueError("outlier index out of range")
        # multiplicity of each entry off the structure, less its outlier positions
        missed = {e: mult for e, mult in self.weight.counts if not near(pts, e[0] if dim1 else e, delta0)}
        for k in outliers:
            if entries[k] in missed:
                missed[entries[k]] -= 1
        if any(missed.values()):
            first = next(k for k, e in enumerate(entries) if k not in outliers and e in missed)
            raise ValueError(f"planted structure misses non-outlier entry {first}")

    def to_json_dict(self) -> dict:
        d = {
            "id": self.id,
            "weight": self.weight.to_json_dict(),
            "law": self.law.to_json_dict(),
            "seed": self.seed,
        }
        if self.planted is not None:
            d["planted"] = {
                "gap": self.planted["gap"].to_json_dict(),
                "outliers": list(self.planted.get("outliers", ())),
                "delta0": format_fraction(to_fraction(self.planted.get("delta0", 0))),
            }
        return d


def _pad_signal_outliers(
    rng: random.Random, p: dict, d: int, gs: Sequence[Fraction], Hs: Sequence[Fraction], defaults: tuple
) -> tuple[WeightVector, dict]:
    """Rows in dimension d = len(gs): n_pad rows of 2g/n_pad, n_sig rows of
    +-g with one seeded sign per coordinate and n_out rows of H, the counts
    read from p with the given defaults.  Planted on the product of the
    intervals {-g, 0, g}, with the H rows as outliers."""
    n_pad, n_sig, n_out = (int(p.get(k, v)) for k, v in zip(("n_pad", "n_sig", "n_out"), defaults))
    if d < 1 or len(gs) != d:
        raise ValueError(f"need d >= 1 and exactly d entries in gs, got d={d} and {len(gs)}")
    if min(n_pad, n_sig, n_out) < 0:
        raise ValueError(f"counts must be nonnegative, got n_pad={n_pad}, n_sig={n_sig}, n_out={n_out}")
    eps = tuple(2 * g / n_pad if n_pad else Fraction(0) for g in gs)
    signal = [(tuple(g * rng.choice((-1, 1)) for g in gs), 1) for _ in range(n_sig)]
    blocks = [(eps, n_pad), *signal, (tuple(Hs), n_out)]
    rows = tuple(row for row, k in blocks for _ in range(k))
    counts: dict[tuple, int] = {}  # the counts WeightVector would derive, block by block
    for row, k in blocks:
        if k:
            counts[row] = counts.get(row, 0) + k
    if not any(map(any, counts)):  # n = 0 or every row zero
        WeightVector(d, rows)  # raises the public constructor's ValueError
    planted = {
        "gap": _product_gap([gap_1d([1], [g]) for g in gs], d),
        "outliers": tuple(range(n_pad + n_sig, len(rows))),
        "delta0": max(eps),
    }
    return WeightVector._from_canonical(d, rows, tuple(counts.items())), planted


def gen_planted(kind: str, params: Optional[dict] = None, seed: int = 0) -> Instance:
    """Deterministic planted instance of the requested family.

    ap            multiples g, 2g, ..., ng in a seeded random order.
    gap2          balanced +-1/0 combinations of two generic generators.
    outliers      product_d's shape at d = 1, with its own rules for g and H:
                  tiny pad + signal entries +-g + a few huge entries; the
                  pad keeps the certified window estimate cheap.
    dense_random  unstructured rationals, no ground truth.
    product_d     pad, signal and outlier rows in dimension d >= 1; gs needs
                  exactly d entries.  A negative count is rejected.
    """
    p = dict(params or {})
    rng = random.Random(0xA5 * 1_000_003 + seed + (sum(map(ord, kind)) << 20))
    law = rademacher()
    if kind == "ap":
        g = to_fraction(p.get("g", 3))
        n = int(p.get("n", 50))
        mults = list(range(1, n + 1))
        rng.shuffle(mults)
        entries = [g * m for m in mults]
        planted = {
            "gap": Gap(1, 1, (Fraction(n),), ((g,),)),
            "outliers": (),
            "delta0": Fraction(0),
        }
        return Instance(f"ap-{seed}-n{n}", weights_1d(entries), law, planted, seed)
    if kind == "gap2":
        g1 = to_fraction(p.get("g1", 1))
        g2 = to_fraction(p.get("g2", 10))
        copies = int(p.get("copies", 5))
        combos = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)]
        vals = [c1 * g1 + c2 * g2 for c1, c2 in combos for _ in range(copies)]
        rng.shuffle(vals)
        planted = {
            "gap": Gap(1, 2, (Fraction(1), Fraction(1)), ((g1,), (g2,))),
            "outliers": (),
            "delta0": Fraction(0),
        }
        return Instance(f"gap2-{seed}-n{len(vals)}", weights_1d(vals), law, planted, seed)
    if kind == "outliers":
        g = to_fraction(p.get("g", 1)) * Fraction(1 + seed % 3, 1 + seed % 2)
        H = to_fraction(p.get("H", 10**5)) * g * (1 + Fraction(seed % 7, 101))
        weight, planted = _pad_signal_outliers(rng, p, 1, [g], [H], (0, 45, 5))
        return Instance(f"outliers-{seed}-n{weight.n}", weight, law, planted, seed)
    if kind == "dense_random":
        n = int(p.get("n", 24))
        entries = []
        while len(entries) < n:
            v = Fraction(rng.randint(-24, 24), rng.randint(1, 4))
            if v != 0:
                entries.append(v)
        return Instance(f"dense-{seed}-n{n}", weights_1d(entries), law, None, seed)
    if kind == "product_d":
        d = int(p.get("d", 2))
        gs = [to_fraction(x) for x in p.get("gs", [1 + j + seed % 3 for j in range(d)])]
        Hs = [g * (10**5 + 137 * (seed % 91)) for g in gs]
        weight, planted = _pad_signal_outliers(rng, p, d, gs, Hs, (60, 48, 2))
        return Instance(f"product-{seed}-d{d}-n{weight.n}", weight, law, planted, seed)
    raise ValueError(f"unknown instance kind {kind!r}; known: {', '.join(KINDS)}")


# ---------------------------------------------------------------------------
# Suite plumbing and CSV reporting.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    suite: str
    instances: int
    passes: int
    failures: tuple  # (id, reason) pairs
    calibration: dict
    rows: tuple = ()  # CSV-ready dicts, an emission convenience

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passes": self.passes,
            "failures": [list(f) for f in self.failures],
            "calibration": dict(self.calibration),
        }


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, Fraction):
        return format_fraction(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _row(suite, id, **kw) -> dict:
    base = {c: "" for c in CSV_HEADER.split(",")}
    base.update({"suite": suite, "id": id})
    base.update(kw)
    if isinstance(base.get("flags"), (list, tuple)):
        base["flags"] = ";".join(base["flags"])
    return base


def _fields(report) -> dict:
    """The CSV fields past suite and id of a bound, recovery or log-rank report."""
    if isinstance(report, BoundReport):
        p = report.params
        return dict(
            n=p.get("n", ""),
            r=p.get("r", ""),
            m=p.get("m", ""),
            tau=p.get("tau", ""),
            lhs=float(report.lhs.value),
            rhs=report.rhs,
            slack=report.slack,
            flags=list(report.flags),
        )
    if isinstance(report, RecoveryReport):
        pr = report.params
        return dict(
            n=pr.n,
            d=1,
            r=pr.r,
            m=report.m,
            tau=pr.tau,
            kappa=pr.kappa,
            delta=pr.delta,
            lhs=pr.q,
            coverage=report.coverage["K_star"],
            flags=list(report.flags),
        )
    if isinstance(report, LogRankReport):
        return dict(
            n=report.coverage + report.n_prime,
            d=1,
            r=report.r,
            lhs=report.q,
            rhs=report.rank_bound,
            coverage=report.coverage,
        )
    raise TypeError(f"cannot render {type(report).__name__} as CSV rows")


def report_csv(reports: Sequence, path: str) -> str:
    """Append rows for the given reports against the stable schema.

    Accepts SuiteReports, or (suite, id, report) triples for
    bound/recovery/log-rank reports.  Rows are sorted by (suite, id); the
    header is written once when the file is new.  No timestamps anywhere,
    so identical inputs yield identical rows.
    """
    rows = []
    for item in reports:
        if isinstance(item, SuiteReport):
            rows.extend(item.rows)
        elif isinstance(item, tuple) and len(item) == 3 and isinstance(item[0], str):
            rows.append(_row(item[0], item[1], **_fields(item[2])))
        else:
            raise TypeError(f"cannot render {type(item).__name__} as CSV rows")
    cols = CSV_HEADER.split(",")
    ordered = sorted(rows, key=lambda r: (str(r.get("suite", "")), str(r.get("id", ""))))
    append_csv(path, CSV_HEADER, [",".join(_fmt(r.get(c, "")) for c in cols) for r in ordered])
    return path


# ---------------------------------------------------------------------------
# Shared helpers for the window-based suites.
# ---------------------------------------------------------------------------


def binomial_center_mass(n: int, half_width: int) -> Fraction:
    """P(|2B - n| <= half_width) for B ~ Binomial(n, 1/2), exact."""
    num = sum(math.comb(n, k) for k in range(n + 1) if abs(2 * k - n) <= half_width)
    return Fraction(num, 2**n)


def central_atom_mass(n: int) -> Fraction:
    """Largest atom of a +-1 sum over n steps: C(n, floor(n/2)) / 2^n."""
    return Fraction(math.comb(n, n // 2), 2**n)


def min_admissible_n_prime(params: RecoveryParams) -> int:
    """Smallest n' accepted by the window check, by doubling then bisection."""

    def ok(k: int) -> bool:
        try:
            select_m(dataclasses.replace(params, n_prime=k))
            return True
        except InvalidWindow:
            return False

    n = params.n
    hi = 1
    while hi < n and not ok(hi):
        hi = min(2 * hi, n)
    if not ok(hi):
        raise InvalidWindow(f"no admissible n_prime up to n={n}")
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def window_params_for_outliers(inst: Instance, cfg: RunConfig) -> RecoveryParams:
    """Certified window parameters for the pad+signal+outliers family: the
    one-coordinate case of product_coordinate_params."""
    return product_coordinate_params(inst, 0, cfg)


def product_coordinate_params(inst: Instance, j: int, cfg: RunConfig) -> RecoveryParams:
    """Certified window parameters for coordinate j of the pad+signal+outliers
    shape (every coordinate projection of the product_d family has it).

    tau = kappa = 8g and delta = g/2; q is the exact probability that the
    signal block stays within two steps of center while the outlier block
    sits on its largest atom, and the pad block contributes at most a
    quarter window with certainty.  n' is the smallest admissible value.
    """
    g = inst.planted["gap"].generators[j][j]
    out_idx = set(inst.planted["outliers"])
    # multiplicity sums over the distinct entries, less the entries at the outlier positions
    rows = (*inst.weight.counts, *((inst.weight.entries[k], -1) for k in out_idx))
    n_sig = sum(mult for e, mult in rows if abs(e[j]) == g)
    pad_total = sum((mult * abs(e[j]) for e, mult in rows if abs(e[j]) != g), Fraction(0))
    tau = 8 * g
    if pad_total > tau / 4:
        raise ValueError("pad block too heavy for the certified window estimate")
    q = binomial_center_mass(n_sig, 2)
    if out_idx:
        q *= central_atom_mass(len(out_idx))
    p_val = tail_mass(symmetrize(inst.law), Fraction(1))  # tau/kappa = 1
    base = RecoveryParams(q, tau, tau, g / 2, 1, 1, inst.weight.n, p_val, cfg.constants)
    return dataclasses.replace(base, n_prime=min_admissible_n_prime(base))


# ---------------------------------------------------------------------------
# Individual suites.
# ---------------------------------------------------------------------------


Cases = Generator[tuple, None, dict]


def _random_distribution(rng: random.Random) -> DiscreteDistribution:
    npts = rng.randint(2, 5)
    vals = set()
    while len(vals) < npts:
        vals.add(Fraction(rng.randint(-16, 16), rng.randint(1, 8)))
    weights = [rng.randint(1, 9) for _ in vals]
    tot = sum(weights)
    return from_scalar_atoms([(v, Fraction(w, tot)) for v, w in zip(sorted(vals), weights)])


def _suite_regularity(cfg: RunConfig) -> Cases:
    rng = random.Random(cfg.seed + 11)
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]
    worst = 0.0
    for i in range(200):
        F = _random_distribution(rng)
        reason = None
        for mu in grid:
            for lam in grid:
                lhs, rhs = regularity_factor(F, mu, lam)
                if lhs > rhs:
                    reason = f"violated at mu={mu}, lambda={lam}"
                    break
                worst = max(worst, float(lhs / rhs))
            if reason:
                break
        yield f"reg-{i}", reason, [
            dict(n=F.support_size, d=1, flags=[] if reason is None else ["FAIL"])
        ]
    return {"max_ratio_to_bound": worst}


def _ratio_points(cfg: RunConfig, seed: int) -> list:
    pts = []
    for n in (8, 16, 32, 64):
        pair = reduction_pair(rademacher(), weights_1d([1] * n), 1, 1, cfg.mc_samples, seed)
        pts.append((n, pair.ratio))
    return pts


def _suite_ratio_stability(cfg: RunConfig) -> Cases:
    slopes, ratios_all = [], []
    for s in range(3):
        pts = _ratio_points(cfg, cfg.seed + 101 + s)
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        slope = float(np.polyfit(xs, ys, 1)[0])
        slopes.append(slope)
        ratios_all.extend(r for _, r in pts)
        yield f"seed-{s}", None, [
            dict(
                n=64,
                d=1,
                tau=Fraction(1),
                kappa=Fraction(1),
                lhs=pts[-1][1],
                slack=slope,
            )
        ]
    avg = sum(slopes) / len(slopes)
    agg_fail = None if avg <= 0.1 else f"mean log-log slope {avg:.4f} exceeds 0.1"
    yield "aggregate", agg_fail, [dict(slack=avg, flags=[] if agg_fail is None else ["FAIL"])]
    return {
        "mean_slope": avg,
        "max_ratio": max(ratios_all),
        "suggested_c_sum": max(1.0, max(ratios_all)),
    }


def _probe_miss_mass(vals, masses, tau: float, M: int, hs) -> np.ndarray:
    """Residual mass of each probe generator h, floats, fully vectorized."""
    w = vals[None, :]
    h = hs[:, None]
    nu = np.rint(w / h)
    best = np.full((len(hs), len(vals)), np.inf)
    for k in (-1.0, 0.0, 1.0):
        best = np.minimum(best, np.abs(w - np.clip(nu + k, -M, M) * h))
    return np.where(best > tau + 1e-9, masses[None, :], 0.0).sum(axis=1)


def _suite_beta_oracle(cfg: RunConfig) -> Cases:
    rng = random.Random(cfg.seed + 23)
    for i in range(200):
        natoms = rng.randint(4, 8)
        pts = set()
        while len(pts) < natoms:
            pts.add(rng.randint(-20, 20))
        atoms = [(Fraction(v), Fraction(rng.randint(1, 5))) for v in sorted(pts)]
        W = AtomicMeasure(1, tuple(((v,), mass) for v, mass in atoms))
        tau = [Fraction(0), Fraction(1, 2), Fraction(1)][i % 3]
        m = [3, 5, 7][(i // 3) % 3]
        res = beta(W, tau, 1, m)
        M = (m - 1) // 2
        vals = np.array([float(v) for v, _ in atoms])
        masses = np.array([float(mass) for _, mass in atoms])
        top = float(np.abs(vals).max()) + 1.0
        hs = np.random.default_rng(cfg.seed + 1000 + i).uniform(1e-3, top, 10**4)
        probe = _probe_miss_mass(vals, masses, float(tau), M, hs)
        reason = None
        for j in np.nonzero(probe < float(res.value) - 1e-9)[0]:
            if _covered_mass(atoms, Fraction(float(hs[j])), M, tau)[0] < res.value:
                reason = f"probe h={float(hs[j])} beats the candidate optimum"
                break
        yield f"beta-{i}", reason, [
            dict(
                n=natoms,
                d=1,
                r=1,
                m=m,
                tau=tau,
                lhs=res.value,
                flags=[] if reason is None else ["FAIL"],
            )
        ]
    return {}


def _random_gap(rng: random.Random) -> Gap:
    r = rng.randint(0, 3)
    dims = tuple(Fraction(rng.choice((1, 2, 3, 4, 5, 6)), 2) for _ in range(r))
    gens = tuple((Fraction(rng.randint(-12, 12), rng.randint(1, 4)),) for _ in range(r))
    return Gap(1, r, dims, gens)


def _suite_gap_laws(cfg: RunConfig) -> Cases:
    rng = random.Random(cfg.seed + 37)
    for i in range(500):
        P = _random_gap(rng)
        s, v, proper = size(P), vol(P), is_proper(P)
        reason = None
        if s > v:
            reason = "size exceeds volume"
        elif (s == v) != proper:
            reason = "properness does not match size == volume"
        flags = [] if reason is None else ["FAIL"]
        yield f"gapvol-{i}", reason, [dict(r=P.rank, lhs=s, rhs=v, flags=flags)] if i < 40 else []
    for i in range(200):
        P = _random_gap(rng)
        t = Fraction(rng.choice((1, 2, 3, 4, 6)), 2)
        Q = dilate(P, t)
        reason = None if size(Q) <= vol(Q) else "dilated size exceeds dilated volume"
        yield f"dilate-{i}", reason, []
    for i in range(1000):
        t = Fraction(rng.randint(1, 80), rng.randint(1, 20))
        L = Fraction(rng.randint(1, 80), rng.randint(1, 20))
        lhs = math.floor(2 * t * L) + 1
        rhs = (2 * t + 1) * (math.floor(2 * L) + 1)
        yield f"ident-{i}", None if lhs <= rhs else f"identity fails at t={t}, L={L}", []
    return {}


def _suite_recovery(cfg: RunConfig) -> Cases:
    cal = {
        "max_sandwich_dilation": 1.0,
        "max_size_ratio_bar": 0.0,
        "max_size_ratio_proper": 0.0,
        "max_size_ratio_tilde": 0.0,
    }
    for i in range(50):
        inst = gen_planted(
            "outliers", {"n_pad": 5948, "n_sig": 50, "n_out": 2}, seed=cfg.seed + i
        )
        reason = None
        try:
            params = window_params_for_outliers(inst, cfg)
            rep = recover(inst.weight, inst.law, params, cfg)
            n, npr = inst.weight.n, params.n_prime
            if n - 2 * npr <= 0:
                reason = "window degenerate: no nontrivial coverage guarantee"
            elif rep.coverage["K_star"] < n - 2 * npr:
                reason = "coverage below the guarantee"
            elif not all(rep.certifications.values()):
                bad = sorted(k for k, v in rep.certifications.items() if not v)
                reason = f"certification failed: {bad}"
            elif rep.flags:
                reason = f"flags: {rep.flags}"
            cal["max_sandwich_dilation"] = max(
                cal["max_sandwich_dilation"],
                float(rep.dilations["sandwich"]),
                float(rep.dilations["tilde_sandwich"]),
            )
            for key, name in (
                ("bar_P", "max_size_ratio_bar"),
                ("barbar_P", "max_size_ratio_proper"),
                ("tilde_P", "max_size_ratio_tilde"),
            ):
                cal[name] = max(cal[name], rep.sizes[key] / rep.m)
            rows = [_fields(rep)]
        except LostructureError as exc:  # suites record the package's own errors
            reason = f"{type(exc).__name__}: {exc}"
            rows = [dict(flags=["ERROR"])]
        yield inst.id, reason, rows
    return cal


def _suite_product_recovery(cfg: RunConfig) -> Cases:
    for i in range(12):
        inst = gen_planted(
            "product_d", {"d": 2, "n_pad": 11950, "n_sig": 48, "n_out": 2}, seed=cfg.seed + i
        )
        reason = None
        try:
            per = [product_coordinate_params(inst, j, cfg) for j in range(2)]
            rep = recover_multid(inst.weight, inst.law, per, cfg)
            n = inst.weight.n
            total_np = sum(pp.n_prime for pp in per)
            if n - 2 * total_np <= 0:
                reason = "window degenerate: no nontrivial joint guarantee"
            elif rep.joint_coverage["K_star"] < n - 2 * total_np:
                reason = "joint coverage below the guarantee"
            if reason is None:
                for P in (rep.bar_P, rep.barbar_P, rep.tilde_P):
                    for gvec in P.generators:
                        if sum(1 for c in gvec if c != 0) != 1:
                            reason = "a product generator is not single-coordinate"
            if reason is None:
                per_sizes = [r2.sizes["K_star"] for r2 in rep.reports if r2 is not None]
                if math.prod(per_sizes) != rep.sizes["K_star"]:
                    reason = "product size is not multiplicative"
                elif sum(r2.bar_P.rank for r2 in rep.reports if r2 is not None) != rep.bar_P.rank:
                    reason = "product rank is not additive"
            rows = [
                dict(
                    n=n,
                    d=2,
                    coverage=rep.joint_coverage["K_star"],
                    flags=list(rep.flags) if reason is None else list(rep.flags) + ["FAIL"],
                )
            ]
        except LostructureError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            rows = [dict(flags=["ERROR"])]
        yield inst.id, reason, rows
    return {}


def _suite_log_rank(cfg: RunConfig) -> Cases:
    worst_c = 0.0
    for i in range(20):
        inst = gen_planted("gap2", {"copies": 5}, seed=cfg.seed + i)
        reason = None
        try:
            P, rep = log_rank_construct(
                inst.weight, inst.law, Fraction(0), Fraction(1), Fraction(0), cfg
            )
            if rep.n_prime != 0:
                reason = "greedy did not reach full coverage"
            elif rep.r != inst.planted["gap"].rank:
                reason = f"recovered rank {rep.r} differs from planted {inst.planted['gap'].rank}"
            core = abs(math.log(float(rep.q))) + 1
            worst_c = max(worst_c, rep.r / core)
            if rep.p_val > 0:
                worst_c = max(worst_c, rep.n_prime * float(rep.p_val) / core**3)
            rows = [_fields(rep)]
        except LostructureError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            rows = [dict(flags=["ERROR"])]
        yield inst.id, reason, rows
    return {"suggested_c_logrank": max(worst_c, 1.0)}


_SUITE_FNS = {
    "regularity": _suite_regularity,
    "ratio_stability": _suite_ratio_stability,
    "beta_oracle": _suite_beta_oracle,
    "gap_laws": _suite_gap_laws,
    "recovery": _suite_recovery,
    "product_recovery": _suite_product_recovery,
    "log_rank": _suite_log_rank,
}
SUITES = tuple(_SUITE_FNS)


def run_suite(name: str, config: Optional[RunConfig] = None) -> SuiteReport:
    """Run one suite and report its cases in the order it yields them."""
    cfg = config or RunConfig()
    if name not in _SUITE_FNS:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    suite, cases = _SUITE_FNS[name](cfg), []
    try:
        while True:
            cases.append(next(suite))
    except StopIteration as done:
        calibration = done.value
    failures = tuple((cid, reason) for cid, reason, _ in cases if reason is not None)
    rows = tuple(_row(name, cid, **kw) for cid, _, fields in cases for kw in fields)
    return SuiteReport(name, len(cases), len(cases) - len(failures), failures, calibration, rows)


# ---------------------------------------------------------------------------
# Calibration.
# ---------------------------------------------------------------------------


def _calibrate_c_cp(cfg: RunConfig) -> float:
    """Smallest constant making the compound bound dominate on a mixed
    two-magnitude family; at r=0 the bound is linear in the constant."""
    worst = 1.0
    for n in (16, 32, 64):
        half = n // 2
        a = weights_1d([1] * half + [Fraction(99, 70)] * (n - half))
        rep = check_cp_bound(CompoundPoissonSpec(a, 1.0), Fraction(0), 0, 1, cfg)
        base = rep.rhs / cfg.constants.c_cp
        if math.isfinite(base) and base > 0:
            worst = max(worst, float(rep.lhs.value) / base)
    return worst


def _calibrate_c_esseen(cfg: RunConfig) -> float:
    rng = random.Random(cfg.seed + 77)
    worst = 1.0
    for _ in range(20):
        F = _random_distribution(rng)
        tau = Fraction(rng.choice((1, 2)), rng.choice((1, 2)))
        q = conc_interval(F, tau).value
        raw = esseen_upper(F.char_fn(), float(tau), constant=1.0)
        if raw > 0:
            worst = max(worst, float(q) / raw)
    return worst


def calibrate(config: Optional[RunConfig] = None, out_path: Optional[str] = None) -> dict:
    """Measure per-suite extremal ratios and freeze minimal constants.

    Upper-bound constants come from observed worst ratios in closed form
    (never below 1); the window constant stays at its configured value and
    is validated by the recovery suite passing outright.  c_sum, c_esseen
    and the c_size_* are written for the report only; nothing reads them.
    """
    cfg = config or RunConfig()
    ratio_rep = run_suite("ratio_stability", cfg)
    log_rep = run_suite("log_rank", cfg)
    rec_rep = run_suite("recovery", cfg)
    c = cfg.constants.as_dict()
    c["c_sum"] = round(ratio_rep.calibration["suggested_c_sum"] + 0.05, 2)
    c["c_logrank"] = round(log_rep.calibration["suggested_c_logrank"] + 0.05, 2)
    for name, key in (
        ("c_dilate", "max_sandwich_dilation"),
        ("c_size_bar", "max_size_ratio_bar"),
        ("c_size_proper", "max_size_ratio_proper"),
        ("c_size_tilde", "max_size_ratio_tilde"),
    ):
        c[name] = round(max(1.0, rec_rep.calibration[key] ** (2.0 / 3.0)) + 0.05, 2)
    c["c_cp"] = round(_calibrate_c_cp(cfg) + 0.05, 2)
    c["c_esseen"] = round(_calibrate_c_esseen(cfg) + 0.05, 2)
    blob = {**cfg.as_dict(), "constants": c}
    blob["calibration_sources"] = {
        "ratio_stability": ratio_rep.calibration,
        "log_rank": log_rep.calibration,
        "recovery": {k: float(v) for k, v in rec_rep.calibration.items()},
        "recovery_all_pass": rec_rep.passes == rec_rep.instances,
    }
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return blob
