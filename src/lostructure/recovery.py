"""Structure recovery from observed concentration.

Given a weight vector whose weighted sum has concentration q, the pipeline
selects a lattice-size budget m, finds a residual-mass witness over the
symmetrized jump measure, and runs one truncate-and-sandwich step twice:
on the witness (K*, covered by bar_P) and on the box of bar_P's proper
embedding (K**, covered by tilde_P).  The step cuts by the norm slab
|<nu, h>| <= 2|a|/sqrt(n'), which a zero generator h makes vacuous, and
certifies every containment, properness claim and generator-norm bound.
Asymptotic schedules and a greedy logarithmic-rank construction reuse
the same machinery.

Everything downstream of the Monte-Carlo-free inputs is exact rational
arithmetic; irrational thresholds (norm over root-count) are compared via
squares, and slab bounds are snapped to the largest achieved rational
value, which provably keeps the same lattice points.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from .beta import BetaResult, beta
from .concentration import conc_interval, conc_zero
from .config import Constants, RunConfig
from .distributions import (
    DiscreteDistribution,
    WeightVector,
    levy_measure_star,
    symmetrize,
    tail_mass,
    weighted_sum_law,
)
from .errors import (
    FLAG_CERTIFICATION_FAILED,
    FLAG_NO_INFORMATION,
    FLAG_WINDOW_VIOLATED,
    InvalidSchedule,
    InvalidWindow,
    TrivialCase,
)
from .gap import (
    Cgap,
    Gap,
    ProductCgap,
    box_body,
    cgap_image,
    coverage_count,
    dilate,
    embed_proper,
    image,
    is_proper,
    mahler_sandwich,
    near,
    vol,
    zero_cgap,
    zero_gap,
)
from .rational import Vec, coerce_real, dot, floor_ratio_sqrt, format_fraction, to_fraction


# ---------------------------------------------------------------------------
# Parameters.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RecoveryParams:
    """Inputs of one single-coordinate run.

    q and p_val may be None and are then filled in from the instance by
    recover(); the window membership of n_prime is enforced by select_m,
    which every consumer calls first.
    """

    q: Optional[Fraction]
    tau: Fraction
    kappa: Fraction
    delta: Fraction
    r: int
    n_prime: int
    n: int
    p_val: Optional[Fraction] = None
    constants: Constants = dataclasses.field(default_factory=Constants)

    def __post_init__(self):
        for name in ("tau", "kappa", "delta"):
            object.__setattr__(self, name, to_fraction(getattr(self, name)))
        if self.q is not None:
            object.__setattr__(self, "q", coerce_real(self.q))
        if self.p_val is not None:
            object.__setattr__(self, "p_val", coerce_real(self.p_val))
        if self.tau < 0 or self.kappa <= 0 or self.delta < 0:
            raise ValueError("need tau >= 0, kappa > 0, delta >= 0")
        if self.delta > max(self.kappa, self.tau):
            raise ValueError("delta must not exceed max(kappa, tau)")
        if self.tau > 0 and self.delta == 0:
            raise ValueError("the tau > 0 branch needs delta > 0")
        if self.r < 0:
            raise ValueError("r must be nonnegative")
        if not (1 <= self.n_prime <= self.n):
            raise ValueError("need 1 <= n_prime <= n")
        if self.q is not None and not (0 < self.q <= 1):
            raise ValueError("q must lie in (0, 1]")

    def with_observations(self, q, p_val) -> "RecoveryParams":
        return dataclasses.replace(self, q=q, p_val=p_val)


def make_params(
    a: WeightVector,
    F: DiscreteDistribution,
    tau,
    kappa,
    delta,
    r: int,
    n_prime: int,
    config: Optional[RunConfig] = None,
) -> RecoveryParams:
    """Params with q and p_val computed exactly from the instance."""
    cfg = config or RunConfig()
    params = RecoveryParams(None, tau, kappa, delta, r, n_prime, a.n, None, cfg.constants)
    return params.with_observations(*_observe(a, F, params.tau, params.kappa, cfg.atom_cap))


def _observe(
    a: WeightVector, F: DiscreteDistribution, tau: Fraction, kappa: Fraction, atom_cap: int
) -> tuple[Fraction, Fraction]:
    """(q, p_val): the exact concentration of the weighted sum at tau (its
    largest atom at tau = 0) and the tail mass of sym(F) at tau / kappa."""
    law = weighted_sum_law(F, a, atom_cap)
    q = (conc_interval(law, tau) if tau > 0 else conc_zero(law)).value
    return q, tail_mass(symmetrize(F), tau / kappa)


def _window_floor_sq(params: RecoveryParams) -> Fraction:
    """Exact square of the window's lower-bound expression.

    n' is admissible iff (n' * p)^(r+1) >= this value; the square clears
    the (r+1)-th root and the half-integer power of (r+1) so the test is
    rational and scale-invariant.
    """
    c = Fraction(params.constants.c_window)
    r = params.r
    base = 4 * c ** (2 * (r + 1)) * Fraction(r + 1) ** (5 * r) / params.q**2
    if params.tau > 0:
        base *= (params.kappa / params.delta) ** 2
    return base


def select_m(params: RecoveryParams) -> int:
    """Lattice-size budget: floor of the target ratio plus one.

    Exact evaluation through integer square roots keeps the result
    invariant under scaling every length in the instance.
    """
    if params.q is None or params.p_val is None:
        raise ValueError("params must carry observed q and p_val")
    if params.p_val == 0:
        raise TrivialCase("the symmetrization puts no mass away from zero")
    pn = params.p_val * params.n_prime
    if pn ** (params.r + 1) < _window_floor_sq(params) or params.n_prime > params.n:
        raise InvalidWindow(
            f"n'={params.n_prime} outside the admissible window at r={params.r}"
        )
    c = Fraction(params.constants.c_window)
    num = 2 * c ** (params.r + 1) / params.q
    if params.tau > 0:
        num *= params.kappa / params.delta
    return floor_ratio_sqrt(num, pn) + 1


# ---------------------------------------------------------------------------
# Single-coordinate recovery.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RecoveryReport:
    m: int
    K_star: Cgap
    K_star_star: Cgap
    bar_P: Gap
    barbar_P: Gap
    tilde_P: Gap
    coverage: dict
    generator_norm_bound_sq: Fraction  # exact square of 2r|a|/sqrt(n')
    sizes: dict
    flags: tuple[str, ...]
    params: RecoveryParams
    witness: BetaResult
    certifications: dict
    dilations: dict

    @property
    def generator_norm_bound(self) -> float:
        return math.sqrt(float(self.generator_norm_bound_sq))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "K_star": self.K_star.to_json_dict(),
            "K_star_star": self.K_star_star.to_json_dict(),
            "bar_P": self.bar_P.to_json_dict(),
            "barbar_P": self.barbar_P.to_json_dict(),
            "tilde_P": self.tilde_P.to_json_dict(),
            "coverage": dict(self.coverage),
            "generator_norm_bound": self.generator_norm_bound,
            "generator_norm_bound_sq": format_fraction(self.generator_norm_bound_sq),
            "sizes": dict(self.sizes),
            "flags": list(self.flags),
            "certifications": dict(self.certifications),
            "dilations": {k: str(v) for k, v in self.dilations.items()},
        }


def _snap_slab_bound(values, bound_sq: Fraction) -> Fraction:
    """Largest achieved |value| within the true (irrational) slab bound.

    Using it as the rational constraint bound keeps exactly the same
    lattice points: no admissible point exceeds it, and shrinking below
    the bound cannot exclude an admissible point.
    """
    inside = [abs(v) for v in values if v * v <= bound_sq]
    outside = [abs(v) for v in values if v * v > bound_sq]
    top = max(inside, default=Fraction(0))
    if top > 0:
        return top
    if outside:
        return min(outside) / 2
    return Fraction(1)


def _phi_gap(P: Gap, t_factor: Fraction, h: Sequence[Fraction]) -> Gap:
    """One-dimensional image of a lattice progression dilated by t_factor
    under the pairing with h."""
    if P.rank == 0:
        return zero_gap(1)
    gens = tuple((dot(g, h),) for g in P.generators)
    dims = tuple(t_factor * L for L in P.dims)
    return Gap(1, P.rank, dims, gens)


def _truncate_and_sandwich(K: Cgap, bound_sq: Fraction, enum_cap: int) -> tuple[Cgap, Gap, int]:
    """Cut K by the slab |<nu, h>| <= sqrt(bound_sq) (none when h = 0) and
    sandwich the cut body.  Returns the cut K, the sandwich's progression
    dilated by t and paired with h (a cover of the cut K's image), and t."""
    if any(K.h):
        K = Cgap(K.rank, K.h, K.body.with_constraint(K.h, _snap_slab_bound(cgap_image(K, enum_cap), bound_sq)))
    P_Z, t = mahler_sandwich(K.body, cap_t=enum_cap, enum_cap=enum_cap)
    return K, _phi_gap(P_Z, Fraction(t), K.h), t


def _cap_dilation(P: Gap, t: Fraction, enum_cap: int) -> Fraction:
    """Shrink the dilation until the dilated volume fits the budget."""
    while t > 1 and vol(dilate(P, t)) > enum_cap:
        t = max(Fraction(1), t / 2)
    return t


def recover(
    a: WeightVector,
    F: DiscreteDistribution,
    params: RecoveryParams,
    config: Optional[RunConfig] = None,
) -> RecoveryReport:
    """Run the full truncate-sandwich-embed pipeline on one coordinate.

    One truncate-and-sandwich step runs twice: on the witness it gives K*
    and its cover bar_P (properized to barbar_P); on the box of a dilated
    proper embedding of bar_P it gives K** and its proper cover tilde_P.
    A zero generator means no slab.  Every containment, properness claim
    and generator-norm bound is re-checked by explicit enumeration, and
    check failures surface as flags, never silently.
    """
    cfg = config or RunConfig()
    if a.dim != 1:
        raise ValueError("recover works on one-dimensional weight vectors")
    if params.q is None or params.p_val is None:
        q, p_val = _observe(a, F, params.tau, params.kappa, cfg.atom_cap)
        params = params.with_observations(
            q if params.q is None else params.q, p_val if params.p_val is None else params.p_val
        )
    m = select_m(params)
    n, n_prime, r, delta = a.n, params.n_prime, params.r, params.delta
    flags: list[str] = []
    if n - 2 * n_prime <= 0:
        flags.append(FLAG_NO_INFORMATION)

    mstar = levy_measure_star(a)
    wit = beta(mstar, delta, r, m, mode="auto")
    if wit.value > n_prime:
        flags.append(FLAG_WINDOW_VIOLATED)

    norm_sq = a.norm_sq
    bound_sq = 4 * norm_sq / n_prime  # (2|a|/sqrt(n'))^2
    gen_bound_sq = Fraction(4 * r * r) * norm_sq / n_prime
    certs: dict[str, bool] = {}
    dilations: dict[str, object] = {}

    if delta * delta * n_prime > norm_sq:
        # every surviving element is already delta-small
        K_star = zero_cgap()
        K_star_star = zero_cgap()
        bar_P = zero_gap(1)
        barbar_P = zero_gap(1)
        tilde_P = zero_gap(1)
        dilations = {"sandwich": 1, "embed": 1, "tilde_sandwich": 1}
    else:
        K_star, bar_P, dilations["sandwich"] = _truncate_and_sandwich(wit.witness, bound_sq, cfg.enum_cap)
        barbar_P = embed_proper(bar_P, 1, cfg.enum_cap).gap
        exponent = (cfg.constants.c_dilate * r) ** (1.5 * r) if r > 0 else 1.0
        t_big = max(Fraction(1), Fraction(exponent))
        t_big = _cap_dilation(bar_P, t_big, cfg.enum_cap)
        dilations["embed"] = t_big
        big = embed_proper(bar_P, t_big, cfg.enum_cap).gap
        box = Cgap(big.rank, tuple(g[0] for g in big.generators), box_body(big.dims))
        K_star_star, tilde_P, dilations["tilde_sandwich"] = _truncate_and_sandwich(box, bound_sq, cfg.enum_cap)

    img_star = cgap_image(K_star, cfg.enum_cap)
    img_ss = cgap_image(K_star_star, cfg.enum_cap)
    img_bar = image(bar_P, cfg.enum_cap)
    img_bb = image(barbar_P, cfg.enum_cap)
    img_tilde = image(tilde_P, cfg.enum_cap)

    certs["K_star_in_bar_P"] = img_star <= img_bar
    certs["K_star_in_barbar_P"] = img_star <= img_bb
    certs["K_star_star_in_tilde_P"] = img_ss <= img_tilde
    certs["barbar_P_proper"] = is_proper(barbar_P, cfg.enum_cap)
    certs["tilde_P_proper"] = is_proper(tilde_P, cfg.enum_cap)
    certs["bar_P_generator_norms"] = all(g[0] * g[0] <= gen_bound_sq for g in bar_P.generators)
    certs["tilde_P_generator_norms"] = all(g[0] * g[0] <= gen_bound_sq for g in tilde_P.generators)
    if not all(certs.values()):
        flags.append(FLAG_CERTIFICATION_FAILED)

    coverage = {
        "K_star": coverage_count(img_star, delta, a),
        "K_star_star": coverage_count(img_ss, delta, a),
        "bar_P": coverage_count(img_bar, delta, a),
        "barbar_P": coverage_count(img_bb, delta, a),
        "tilde_P": coverage_count(img_tilde, delta, a),
    }
    sizes = {
        "m": m,
        "K_star": len(img_star),
        "K_star_star": len(img_ss),
        "bar_P": len(img_bar),
        "barbar_P": len(img_bb),
        "tilde_P": len(img_tilde),
        "K_star_lattice": K_star.lattice_size(cfg.enum_cap),
        "K_star_star_lattice": K_star_star.lattice_size(cfg.enum_cap),
    }
    return RecoveryReport(
        m,
        K_star,
        K_star_star,
        bar_P,
        barbar_P,
        tilde_P,
        coverage,
        gen_bound_sq,
        sizes,
        tuple(flags),
        params,
        wit,
        certs,
        dilations,
    )


# ---------------------------------------------------------------------------
# Multi-coordinate product recovery.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ProductRecoveryReport:
    reports: tuple  # per-coordinate RecoveryReport or None for a zero coordinate
    K_star: ProductCgap
    K_star_star: ProductCgap
    bar_P: Gap
    barbar_P: Gap
    tilde_P: Gap
    block_boundaries: tuple[int, ...]
    joint_coverage: dict
    sizes: dict
    flags: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "coordinates": [r.to_json_dict() if r else None for r in self.reports],
            "block_boundaries": list(self.block_boundaries),
            "joint_coverage": dict(self.joint_coverage),
            "sizes": dict(self.sizes),
            "flags": list(self.flags),
        }


def _product_gap(parts: Sequence[Gap], d: int) -> Gap:
    """Block-diagonal product: each generator nonzero in one coordinate."""
    dims: list[Fraction] = []
    gens: list[Vec] = []
    for j, P in enumerate(parts):
        for L, g in zip(P.dims, P.generators):
            dims.append(L)
            vec = [Fraction(0)] * d
            vec[j] = g[0]
            gens.append(tuple(vec))
    return Gap(d, len(gens), tuple(dims), tuple(gens))


def recover_multid(
    a: WeightVector,
    F: DiscreteDistribution,
    per_coordinate_params: Sequence[Optional[RecoveryParams]],
    config: Optional[RunConfig] = None,
) -> ProductRecoveryReport:
    """Coordinate-wise recovery assembled into product structures.

    A coordinate whose weights are all zero is handled by the trivial
    single-point progression; joint coverage demands closeness in every
    coordinate simultaneously.
    """
    cfg = config or RunConfig()
    d = a.dim
    if len(per_coordinate_params) != d:
        raise ValueError("need one params entry per coordinate")
    reports: list[Optional[RecoveryReport]] = []
    records = []
    zero = (zero_cgap(), zero_cgap(), zero_gap(1), zero_gap(1), zero_gap(1))
    for j, pj in enumerate(per_coordinate_params):
        if a.coordinate_is_zero(j):
            reports.append(None)
            records.append(zero)
            continue
        if pj is None:
            raise ValueError(f"coordinate {j} carries weight but has no params")
        rep = recover(a.coordinate(j), F.marginal(j) if F.dim > 1 else F, pj, cfg)
        reports.append(rep)
        records.append((rep.K_star, rep.K_star_star, rep.bar_P, rep.barbar_P, rep.tilde_P))
    factors_star, factors_ss, bars, bbars, tildes = zip(*records)
    deltas = [pj.delta if pj else Fraction(0) for pj in per_coordinate_params]
    flags = {f for rep in reports if rep for f in rep.flags}

    K_star = ProductCgap(factors_star)
    K_ss = ProductCgap(factors_ss)
    bar_P = _product_gap(bars, d)
    barbar_P = _product_gap(bbars, d)
    tilde_P = _product_gap(tildes, d)
    boundaries = tuple(itertools.accumulate(P.rank for P in bars))

    per_images_star = [cgap_image(k, cfg.enum_cap) for k in factors_star]
    per_images_ss = [cgap_image(k, cfg.enum_cap) for k in factors_ss]

    def joint_count(per_images) -> int:
        pts = [tuple(sorted(img)) for img in per_images]
        return sum(mult for e, mult in a.counts if all(near(pts[j], e[j], deltas[j]) for j in range(d)))

    joint = {"K_star": joint_count(per_images_star), "K_star_star": joint_count(per_images_ss)}
    sizes = {
        "K_star": math.prod(len(im) for im in per_images_star),
        "K_star_star": math.prod(len(im) for im in per_images_ss),
        "rank_bar_P": bar_P.rank,
        "rank_tilde_P": tilde_P.rank,
    }
    return ProductRecoveryReport(
        tuple(reports),
        K_star,
        K_ss,
        bar_P,
        barbar_P,
        tilde_P,
        boundaries,
        joint,
        sizes,
        tuple(sorted(flags)),
    )


# ---------------------------------------------------------------------------
# Asymptotic schedules.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CoordinateSchedule:
    index: int
    r: int
    n_prime: int
    params: Optional[RecoveryParams]  # None whenever the window failed
    m: Optional[int]
    fallback: Optional[Gap]
    fallback_covers: Optional[int]
    flags: tuple[str, ...] = ()


def _fallback_gap(a: Optional[WeightVector], j: int, n: int, n_prime: int) -> tuple[Optional[Gap], Optional[int]]:
    """Sign-combination progression on the n - n' smallest weights."""
    if a is None:
        return None, None
    vals = [e[j] for e in a.entries] if a.dim > 1 else [e[0] for e in a.entries]
    order = sorted(range(n), key=lambda k: (-abs(vals[k]), k))
    tailed = [vals[k] for k in order[n_prime:]]
    if not tailed:
        return zero_gap(1), 0
    P = Gap(1, len(tailed), tuple(Fraction(1) for _ in tailed), tuple((v,) for v in tailed))
    return P, len(tailed)


def _coordinate_schedules(
    q_list: Sequence,
    floor_q: float,
    base: Optional[RecoveryParams],
    r: int,
    n_prime: int,
    n: int,
    a: Optional[WeightVector],
) -> list[CoordinateSchedule]:
    """Per-coordinate loop of both schedules: the concentration floor, then
    base's window with q filled in, or the fallback progression when the
    window cannot hold (base is None)."""
    out = []
    for j, qj in enumerate(q_list):
        qj = coerce_real(qj)
        if float(qj) < floor_q:
            raise ValueError(f"q[{j}] violates the schedule's concentration floor")
        if base is not None:
            params = dataclasses.replace(base, q=qj)
            out.append(CoordinateSchedule(j, r, n_prime, params, select_m(params), None, None))
        else:
            n_fb = min(n_prime, n)
            P, covers = _fallback_gap(a, j, n, n_fb)
            out.append(CoordinateSchedule(j, r, n_fb, None, None, P, covers, (FLAG_NO_INFORMATION,)))
    return out


def schedule_zero_tau(
    A: float,
    theta: float,
    eps1: float,
    eps2: float,
    b_n: float,
    q_list: Sequence,
    n: int,
    p_val,
    a: Optional[WeightVector] = None,
    config: Optional[RunConfig] = None,
) -> list[CoordinateSchedule]:
    """Schedule for the unscaled (tau = 0) regime.

    Picks the minimal admissible rank from the growth exponents, targets
    n' at the prescribed power of b_n, and falls back to the explicit
    tail-progression when the window cannot hold.
    """
    if theta <= 0 or b_n <= 1 or eps1 <= 0 or eps2 <= 0:
        raise ValueError("need theta > 0, b_n > 1, positive epsilons")
    cfg = config or RunConfig()
    p = coerce_real(p_val)
    if p == 0:
        raise TrivialCase("the symmetrization puts no mass away from zero")
    r = 0
    while not (A < theta * (r + 1) / 2):
        r += 1
    floor_q = eps1 * b_n ** (-A)
    c4 = cfg.constants.c_window
    middle = (2 * c4 ** (r + 1) * (r + 1) ** (2.5 * r) / eps1 * b_n**A) ** (2 / (r + 1)) / float(p)
    target = eps2 * b_n**theta
    n_prime = max(1, math.ceil(target))
    window_ok = middle <= target and n_prime <= n
    base = RecoveryParams(None, 0, 1, 0, r, n_prime, n, p, cfg.constants) if window_ok else None
    return _coordinate_schedules(q_list, floor_q, base, r, n_prime, n, a)


def schedule_scaled_tau(
    A: float,
    B: float,
    D: float,
    theta: float,
    eps: dict,
    b_n: float,
    rho_n,
    p_val,
    q_list: Sequence,
    n: int,
    a: Optional[WeightVector] = None,
    config: Optional[RunConfig] = None,
    tau_n=None,
    kappa_n=None,
) -> list[CoordinateSchedule]:
    """Schedule for the scaled-window regime (tau > 0, delta = rho * kappa).

    eps maps names eps1..eps4 to the floor constants.  The rank is the
    minimal positive integer compatible with the exponent gap theta - D.
    """
    if theta <= D:
        raise InvalidSchedule("need theta > D")
    cfg = config or RunConfig()
    rho = to_fraction(rho_n)
    p = coerce_real(p_val)
    if p == 0:
        raise TrivialCase("the symmetrization puts no mass away from zero")
    if rho <= 0:
        raise ValueError("rho must be positive")
    e1, e2, e3, e4 = (float(eps[k]) for k in ("eps1", "eps2", "eps3", "eps4"))
    if float(rho) < e4 * b_n ** (-B) or float(p) < e3 * b_n ** (-D):
        raise ValueError("rho or p violates its schedule floor")
    r = 1
    while not (A + B < (theta - D) * (r + 1) / 2):
        r += 1
    c4 = cfg.constants.c_window
    middle = (2 * c4 ** (r + 1) * (r + 1) ** (2.5 * r) / (e1 * e4) * b_n ** (A + B)) ** (2 / (r + 1)) / (
        e3 * b_n ** (-D)
    )
    target = e2 * b_n**theta
    n_prime = max(1, math.ceil(target))
    window_ok = middle <= target and n_prime <= n
    kappa = to_fraction(kappa_n) if kappa_n is not None else Fraction(1)
    tau = to_fraction(tau_n) if tau_n is not None else kappa
    base = RecoveryParams(None, tau, kappa, rho * kappa, r, n_prime, n, p, cfg.constants) if window_ok else None
    return _coordinate_schedules(q_list, e1 * b_n ** (-A), base, r, n_prime, n, a)


# ---------------------------------------------------------------------------
# Greedy logarithmic-rank construction.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LogRankReport:
    r: int
    n_prime: int
    q: Fraction
    p_val: Fraction
    rank_bound: float
    residual_bound: float
    rank_within_bound: bool
    residual_within_bound: bool
    coverage: int

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "n_prime": self.n_prime,
            "q": format_fraction(self.q),
            "p_val": format_fraction(self.p_val),
            "rank_bound": self.rank_bound,
            "residual_bound": self.residual_bound,
            "rank_within_bound": self.rank_within_bound,
            "residual_within_bound": self.residual_within_bound,
            "coverage": self.coverage,
        }


def _greedy_candidates(uncovered: Sequence[Fraction], img: set[Fraction], delta: Fraction) -> list[Fraction]:
    cand = set()
    for w in uncovered:
        for y in img:
            base = abs(w - y)
            cand.add(base)
            cand.add(abs(base - delta))
            cand.add(base + delta)
    cand.discard(Fraction(0))
    return sorted(cand)


def log_rank_construct(
    a: WeightVector,
    F: DiscreteDistribution,
    tau,
    kappa,
    delta,
    config: Optional[RunConfig] = None,
    rank_budget: int = 12,
) -> tuple[Gap, LogRankReport]:
    """Greedy sign-combination progression (all dims 1) covering a.

    Each round scores candidate generators, harvested from the witness
    machinery's interval endpoints on the uncovered residual, by how many
    residual weights the grown image newly covers; ties prefer the
    smallest generator.  The rank and residual bounds are evaluated with
    the configured constant and reported, never enforced.
    """
    cfg = config or RunConfig()
    if a.dim != 1:
        raise ValueError("single-coordinate construction; use the product variant")
    t = to_fraction(tau)
    k = to_fraction(kappa)
    d = to_fraction(delta)
    if not (0 <= d <= k) or k <= 0:
        raise ValueError("need 0 <= delta <= kappa")
    q, p_val = _observe(a, F, t, k, cfg.atom_cap)

    weights = [(e[0], mult) for e, mult in a.counts]
    img: set[Fraction] = {Fraction(0)}
    gens: list[Fraction] = []

    def uncovered() -> list[tuple[Fraction, int]]:
        pts = tuple(sorted(img))
        return [(w, mult) for w, mult in weights if not near(pts, w, d)]

    rank_budget = min(rank_budget, int(math.log(cfg.enum_cap, 3)))
    residual = uncovered()
    while residual and len(gens) < rank_budget:
        best = None
        for g in _greedy_candidates([w for w, _ in residual], img, d):
            grown = img | {y + g for y in img} | {y - g for y in img}
            pts = tuple(sorted(grown))
            score = sum(mult for w, mult in residual if near(pts, w, d))
            key = (-score, g)
            if best is None or key < best[0]:
                best = (key, g, grown)
        if best is None or -best[0][0] == 0:
            break
        _, g, grown = best
        gens.append(g)
        img = grown
        residual = uncovered()

    P = Gap(1, len(gens), tuple(Fraction(1) for _ in gens), tuple((g,) for g in gens)) if gens else zero_gap(1)
    n_prime = sum(mult for _, mult in residual)
    c8 = cfg.constants.c_logrank
    logq = abs(math.log(float(q)))
    if t > 0:
        if d == 0:
            core = math.inf
        else:
            core = logq + math.log(float(k / d)) + 1
    else:
        core = logq + 1
    rank_bound = c8 * core
    residual_bound = math.inf if p_val == 0 else c8 / float(p_val) * core**3
    report = LogRankReport(
        len(gens),
        n_prime,
        q,
        p_val,
        rank_bound,
        residual_bound,
        len(gens) <= rank_bound,
        n_prime <= residual_bound,
        a.n - n_prime,
    )
    return P, report


def log_rank_construct_multid(
    a: WeightVector,
    F: DiscreteDistribution,
    taus: Sequence,
    kappas: Sequence,
    deltas: Sequence,
    config: Optional[RunConfig] = None,
) -> tuple[Gap, list[LogRankReport]]:
    """Product of per-coordinate greedy constructions, block generators."""
    cfg = config or RunConfig()
    parts: list[Gap] = []
    reports: list[LogRankReport] = []
    for j in range(a.dim):
        if a.coordinate_is_zero(j):
            parts.append(zero_gap(1))
            continue
        Fj = F.marginal(j) if F.dim > 1 else F
        Pj, rep = log_rank_construct(a.coordinate(j), Fj, taus[j], kappas[j], deltas[j], cfg)
        parts.append(Pj)
        reports.append(rep)
    return _product_gap(parts, a.dim), reports
