"""The benchmark's workloads: how each builds its inputs, runs one op and
checks the op's output.

Every workload is a pool of (instance, parameters) items; op i runs on
pool item i mod len(pool).  Instance seeds are derived from the workload
seed, so the library only ever receives generated inputs.  Consecutive
instance seeds are used because the planted families vary their generators
and outlier heights with the instance seed modulo 2, 3 and 7; a run of
consecutive seeds meets each variant about equally often, which keeps the
op mix of one run close to that of another.

Why these workloads:

recover_1d       recover() on the recovery suite's outliers family.  The
                 progression images are tiny and are queried 6,000 times,
                 mostly with identical pad entries, so the coverage query
                 (gap) dominates and the law kernel is never called.
exact_law        weighted_sum_law, conc_interval/conc_zero, tail_mass and
                 beta at ranks 1 and 2 on small vectors of four families,
                 mixing repeated weights (where grouping pays) with distinct
                 ones (where it cannot); no coverage query over a large
                 weight vector.  One op is one pass over the four families:
                 their op times differ by up to 10x, so with one instance per
                 op the median op would fall on the boundary between two
                 families and jump from run to run.
recover_product  recover_multid() on the product-recovery suite's
                 product_d family: the only caller of joint_count and of the
                 vector-valued planted-instance check.  Not in
                 BENCHMARK.json: at about 4 s per op a run holds too few ops
                 to be steady within the driven run length; run it by hand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parents[1]
# measure the checkout's own source, never an installed copy
if not (ROOT / "src" / "lostructure").is_dir():
    raise ImportError(f"no lostructure source under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import lostructure as L  # noqa: E402
from lostructure import harness  # noqa: E402

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
# Op outputs at this workload seed are compared against digests recorded
# at the seed commit (digests.json).
DEFAULT_SEED = 0


def instance_seed(workload_seed: int, k: int) -> int:
    return 1000 * workload_seed + k


def output_digest(obj: Any) -> str:
    """sha256 of the sorted-key JSON of an op's exact output."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    params: dict  # instance family and parameters, reported as provenance
    build: Callable[[int, L.RunConfig], list]  # workload seed, config -> pool
    op: Callable[[Any, L.RunConfig], Any]  # pool item, config -> output
    check: Callable[[Any, Any], Optional[str]]  # pool item, output -> failure
    to_json: Callable[[Any], Any]  # output -> exact JSON form


# ---------------------------------------------------------------------------
# recover_1d
# ---------------------------------------------------------------------------

OUTLIERS = {"n_pad": 5948, "n_sig": 50, "n_out": 2}


def _build_recover_1d(seed: int, cfg: L.RunConfig) -> list:
    pool = []
    for k in range(6):
        inst = L.gen_planted("outliers", OUTLIERS, seed=instance_seed(seed, k))
        pool.append((inst, harness.window_params_for_outliers(inst, cfg)))
    return pool


def _op_recover_1d(item, cfg: L.RunConfig):
    inst, params = item
    return L.recover(inst.weight, inst.law, params, cfg)


def _check_recover_1d(item, rep) -> Optional[str]:
    """The recovery suite's pass criterion."""
    inst, params = item
    n, npr = inst.weight.n, params.n_prime
    if n - 2 * npr <= 0:
        return "window degenerate: no nontrivial coverage guarantee"
    if rep.coverage["K_star"] < n - 2 * npr:
        return "coverage below the guarantee"
    if not all(rep.certifications.values()):
        return f"certification failed: {sorted(k for k, v in rep.certifications.items() if not v)}"
    if rep.flags:
        return f"flags: {list(rep.flags)}"
    return None


# ---------------------------------------------------------------------------
# recover_product
# ---------------------------------------------------------------------------

PRODUCT = {"d": 2, "n_pad": 11950, "n_sig": 48, "n_out": 2}


def _build_recover_product(seed: int, cfg: L.RunConfig) -> list:
    pool = []
    for k in range(3):
        inst = L.gen_planted("product_d", PRODUCT, seed=instance_seed(seed, k))
        per = [harness.product_coordinate_params(inst, j, cfg) for j in range(PRODUCT["d"])]
        pool.append((inst, per))
    return pool


def _op_recover_product(item, cfg: L.RunConfig):
    inst, per = item
    return L.recover_multid(inst.weight, inst.law, per, cfg)


def _check_recover_product(item, rep) -> Optional[str]:
    """The product-recovery suite's pass criterion."""
    inst, per = item
    n = inst.weight.n
    total_np = sum(pp.n_prime for pp in per)
    if n - 2 * total_np <= 0:
        return "window degenerate: no nontrivial joint guarantee"
    if rep.joint_coverage["K_star"] < n - 2 * total_np:
        return "joint coverage below the guarantee"
    for P in (rep.bar_P, rep.barbar_P, rep.tilde_P):
        if any(sum(1 for c in g if c != 0) != 1 for g in P.generators):
            return "a product generator is not single-coordinate"
    coords = [r for r in rep.reports if r is not None]
    prod = 1
    for r in coords:
        prod *= r.sizes["K_star"]
    if prod != rep.sizes["K_star"]:
        return "product size is not multiplicative"
    if sum(r.bar_P.rank for r in coords) != rep.bar_P.rank:
        return "product rank is not additive"
    if rep.flags:
        return f"flags: {list(rep.flags)}"
    return None


# ---------------------------------------------------------------------------
# exact_law
# ---------------------------------------------------------------------------

LAW_FAMILIES = (
    ("ap", {"n": 24}),
    ("gap2", {"copies": 8}),
    ("dense_random", {"n": 20}),
    ("outliers", {"n_pad": 30, "n_sig": 30, "n_out": 2}),
)
BETA_TAU = Fraction(1, 2)
BETA_RANKS = ((1, 7), (2, 9))  # (r, m)


def _build_exact_law(seed: int, cfg: L.RunConfig) -> list:
    return [
        (tuple(L.gen_planted(kind, params, seed=instance_seed(seed, k)) for kind, params in LAW_FAMILIES), None)
        for k in range(6)
    ]


def _op_exact_law(item, cfg: L.RunConfig) -> list:
    out = []
    for inst in item[0]:
        law = L.weighted_sum_law(L.rademacher(), inst.weight, cfg.atom_cap)
        mstar = L.levy_measure_star(inst.weight)
        out.append(
            {
                "law": law,
                "conc_interval": L.conc_interval(law, 1),
                "conc_zero": L.conc_zero(law),
                "tail_mass": L.tail_mass(L.symmetrize(inst.law), 1),
                "beta": [L.beta(mstar, BETA_TAU, r, m) for r, m in BETA_RANKS],
            }
        )
    return out


def _check_exact_law(item, out: list) -> Optional[str]:
    for inst, res in zip(item[0], out):
        if not res["conc_zero"].value <= res["conc_interval"].value:
            return f"{inst.id}: conc_zero exceeds conc_interval"
        b1, b2 = res["beta"]
        if not b2.value <= b1.value:
            return f"{inst.id}: rank-2 beta exceeds rank-1 beta"
    return None


def _exact_law_json(out: list) -> list:
    return [
        {
            "law": res["law"].to_json_dict(),
            "conc_interval": res["conc_interval"].to_json_dict(),
            "conc_zero": res["conc_zero"].to_json_dict(),
            "tail_mass": str(res["tail_mass"]),
            "beta": [b.to_json_dict() for b in res["beta"]],
        }
        for res in out
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recover_1d",
            {"kind": "outliers", **OUTLIERS},
            _build_recover_1d,
            _op_recover_1d,
            _check_recover_1d,
            lambda rep: rep.to_json_dict(),
        ),
        Workload(
            "recover_product",
            {"kind": "product_d", **PRODUCT},
            _build_recover_product,
            _op_recover_product,
            _check_recover_product,
            lambda rep: rep.to_json_dict(),
        ),
        Workload(
            "exact_law",
            {"families": [{"kind": k, **p} for k, p in LAW_FAMILIES], "beta_tau": str(BETA_TAU), "beta_rm": BETA_RANKS},
            _build_exact_law,
            _op_exact_law,
            _check_exact_law,
            _exact_law_json,
        ),
    )
}


def recorded_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text())
