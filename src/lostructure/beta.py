"""Residual-mass functional over convex progressions, and the two
right-hand-side bound evaluators that consume it.

beta(W, tau, r, m) searches for a convex progression of rank r and lattice
size at most m whose closed tau-neighborhood misses as little W-mass as
possible.  For r <= 1 the search is exact over a provably sufficient finite
candidate set; for r = 2 a beam over candidate pairs, scored on an integer
grid, yields a certified upper bound (the winner's witness is explicit and
its objective is recomputed in Fractions; only optimality is unproven).
"""

from __future__ import annotations

import dataclasses
import math
import os
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .concentration import (
    MODE_EXACT,
    MODE_MC,
    ConcentrationResult,
    empirical_window_max,
)
from .config import RunConfig
from .distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    h_point_mass_zero,
    sample_H_lambda,
)
from .errors import FLAG_DEGENERATE_BETA, UnsupportedRank
from .gap import Cgap, box_body, cgap_image, interval_body, near, zero_cgap
from .rational import common_grid, format_fraction, to_fraction

EXACT = "exact"
UPPER_BOUND = "upper_bound"


@dataclasses.dataclass(frozen=True)
class BetaResult:
    value: Fraction
    witness: Cgap
    exactness: str  # "exact" only when the candidate family is exhaustive
    candidates_searched: int

    def to_json_dict(self) -> dict:
        return {
            "value": format_fraction(self.value),
            "witness": self.witness.to_json_dict(),
            "exactness": self.exactness,
            "candidates_searched": self.candidates_searched,
        }


def mass_outside(W: AtomicMeasure, Kimg: Iterable[Fraction], tau) -> Fraction:
    """W-mass strictly farther than tau from the finite set Kimg; W on the line."""
    t = to_fraction(tau)
    pts = tuple(sorted(Kimg))
    return sum((mass for w, mass in W.scalar_atoms() if not near(pts, w, t)), Fraction(0))


def _interval_dim(M: int) -> Fraction:
    return Fraction(M) if M >= 1 else Fraction(1, 2)


def _covers(W: int, H: int, T: int, M: int) -> bool:
    """|w - c*h| <= tau for some integer |c| <= M, with w, h and tau given
    as the integers W, H and T on one grid.  The best c is the clamp of
    floor(w/h) or of the next integer."""
    if H == 0:
        return abs(W) <= T
    f = W // H
    return any(abs(W - max(-M, min(M, c)) * H) <= T for c in (f, f + 1))


def _covered_mass(atoms, h: Fraction, M: int, tau: Fraction) -> tuple[Fraction, list]:
    """(missed mass, missed atoms) against the multiples {nu*h : |nu| <= M},
    decided on the integer grid of the atoms, h and tau."""
    _, (H, T, *ws) = common_grid([h, tau, *(w for w, _ in atoms)])
    missed = [atom for W, atom in zip(ws, atoms) if not _covers(W, H, T, M)]
    return sum((mass for _, mass in missed), Fraction(0)), missed


def _rank1_grid(atoms, tau: Fraction, M: int) -> tuple[int, int, list]:
    """(S, T, grid): the atoms and tau on one integer grid of scale
    S = G * lcm(1..M), G the lcm of their denominators, on which every
    rank-1 candidate with multiplier at most M is an integer.  grid holds
    (w*S, mass as an integer over the common mass denominator, atom)."""
    lcm_M = math.lcm(*range(1, M + 1))
    G, (T, *ws) = common_grid([tau, *(w for w, _ in atoms)])
    _, masses = common_grid(mass for _, mass in atoms)
    return G * lcm_M, T * lcm_M, [(W * lcm_M, mi, atom) for W, mi, atom in zip(ws, masses, atoms)]


def _candidate_keys(grid, T: int, M: int) -> list[int]:
    # coverage of w by nu*h is |w - nu*h| <= tau: an interval in h whose
    # endpoints are (|w| +- tau)/nu; the objective is constant in between,
    # so the endpoints plus h=0 are exhaustive.  The exact hits |w|/nu add
    # nothing to the optimum but stay in the list, whose length is reported
    # as candidates_searched and whose order breaks ties in _rank1_scan.
    # On the grid of _rank1_grid every candidate is an integer key.
    keys = {0}
    for W, _, _ in grid:
        aw = abs(W)
        for nu in range(1, M + 1):
            keys.add((aw + T) // nu)
            keys.add(abs(aw - T) // nu)
            keys.add(aw // nu)
    return sorted(keys)


def _rank1_candidates(atoms, tau: Fraction, M: int) -> list[Fraction]:
    """The sorted exhaustive rank-1 candidates h: computed as integer keys
    on the grid of _rank1_grid, returned as Fractions."""
    S, T, grid = _rank1_grid(atoms, tau, M)
    return [Fraction(k, S) for k in _candidate_keys(grid, T, M)]


def _grid_scan(grid, T: int, M: int, S: int):
    """(h, missed grid entries, searched): the best candidate on the grid.

    An atom with |w| <= tau is covered at every h.  Any other atom is
    covered at h exactly when h lies in one of the closed intervals
    [(|w| - tau)/c, (|w| + tau)/c], c = 1..M.  One sweep over the sorted
    candidate keys keeps a count of active intervals per atom and the
    missed mass as an integer; the first candidate with the least miss
    wins, and _covers lists the misses there.  Every comparison is on
    integers; the winner becomes a Fraction once.
    """
    keys = _candidate_keys(grid, T, M)
    far = [(abs(W), mi) for W, mi, _ in grid if abs(W) > T]
    starts = sorted(((aw - T) // c, i) for i, (aw, _) in enumerate(far) for c in range(1, M + 1))
    ends = sorted(((aw + T) // c, i) for i, (aw, _) in enumerate(far) for c in range(1, M + 1))
    active = [0] * len(far)
    miss = sum(mi for _, mi in far)
    best_miss, best_key = None, None
    si = ei = 0
    for key in keys:
        while si < len(starts) and starts[si][0] <= key:
            i = starts[si][1]
            if not active[i]:
                miss -= far[i][1]
            active[i] += 1
            si += 1
        while ei < len(ends) and ends[ei][0] < key:
            i = ends[ei][1]
            active[i] -= 1
            if not active[i]:
                miss += far[i][1]
            ei += 1
        if best_miss is None or miss < best_miss:
            best_miss, best_key = miss, key
    missed = [g for g in grid if not _covers(g[0], best_key, T, M)]
    return Fraction(best_key, S), missed, len(keys)


def _rank1_scan(atoms, tau: Fraction, M: int):
    """Best (miss, h, missed-atoms, searched) over the exhaustive candidates,
    swept on the integer grid of _rank1_grid (see _grid_scan)."""
    S, T, grid = _rank1_grid(atoms, tau, M)
    h, missed, searched = _grid_scan(grid, T, M, S)
    missed = [atom for _, _, atom in missed]
    return sum((mass for _, mass in missed), Fraction(0)), h, missed, searched


def beta(W: AtomicMeasure, tau, r: int, m: int) -> BetaResult:
    """Least W-mass left outside the closed tau-neighborhood of a symmetric
    convex progression with rank r and at most m lattice points.

    r=0 fixes the progression to {0}.  r=1 is exact; the witness body is
    the interval [-L, L] with L maximal for the size budget.  r=2 runs a
    beam over pairs of rank-1 candidates and is labeled upper_bound.
    """
    if r < 0 or r >= 3:
        raise UnsupportedRank(f"beta implemented for ranks 0..2, got {r}")
    if m < 1:
        raise ValueError("m must be >= 1")
    t = to_fraction(tau)
    if t < 0:
        raise ValueError("tau must be nonnegative")
    atoms = W.scalar_atoms()

    if r == 0:
        witness = zero_cgap()
        val = mass_outside(W, {Fraction(0)}, t)
        res = BetaResult(val, witness, EXACT, 1)
    elif r == 1:
        M = (m - 1) // 2
        miss, h, _, searched = _rank1_scan(atoms, t, M)
        witness = Cgap(1, (h,), interval_body(_interval_dim(M)))
        res = BetaResult(miss, witness, EXACT, searched)
    else:
        res = _beta_rank2(atoms, t, m)

    check = mass_outside(W, cgap_image(res.witness), t)
    if check != res.value:
        raise AssertionError("witness objective does not reproduce the reported value")
    return res


def _pair_miss(grid, H1: int, H2: int, M1: int, M2: int, T: int) -> int:
    """Integer mass of the grid entries farther than T from {a*H1 + b*H2 : |a| <= M1, |b| <= M2}."""
    img = sorted({a * H1 + b * H2 for a in range(-M1, M1 + 1) for b in range(-M2, M2 + 1)})
    return sum(mi for W, mi, _ in grid if not near(img, W, T))


def _beta_rank2(atoms, tau: Fraction, m: int) -> BetaResult:
    """The beam over (M1, M2, h2) pairs, each scored by _pair_miss on the scans'
    integer grid (H = h*S, masses over D); beta re-checks the winner in Fractions."""
    searched, best = 0, None  # best: (key, h1, h2, M1, M2)
    M_max = (m - 1) // 2
    # one grid for every scan: M1 and M2 never exceed M_max, and the
    # residual atoms are a subset of the atoms
    S, T, grid = _rank1_grid(atoms, tau, M_max)
    D, _ = common_grid(mass for _, mass in atoms)
    for M1 in range(0, M_max + 1):
        h1, missed, s1 = _grid_scan(grid, T, M1, S)
        searched += s1
        for M2 in range(0, (m // (2 * M1 + 1) - 1) // 2 + 1):
            h2_pool = {Fraction(0)}  # beam: the stage-one pick and a residual re-scan
            if missed:
                h2_best, _, s2 = _grid_scan(missed, T, M2, S)
                searched += s2
                h2_pool.add(h2_best)
            for h2 in sorted(h2_pool):
                H1, H2 = int(h1 * S), int(h2 * S)
                # only atoms the multiples of h1 miss can be missed
                miss = _pair_miss(missed, H1, H2, M1, M2, T)
                key = (miss, abs(H1) + abs(H2), (H1, H2))
                if best is None or key < best[0]:
                    best = (key, h1, h2, M1, M2)
    (miss, _, _), h1, h2, M1, M2 = best
    witness = Cgap(2, (h1, h2), box_body([_interval_dim(M1), _interval_dim(M2)]))
    return BetaResult(Fraction(miss, D), witness, UPPER_BOUND, searched)


# ---------------------------------------------------------------------------
# Bound right-hand sides.
# ---------------------------------------------------------------------------


def cp_bound_rhs(alpha: float, beta_val: float, r: int, m: int, c: float = 1.0) -> float:
    """Concentration bound for a compound law with rate alpha and jump
    residual beta_val; +inf when beta_val = 0 (vacuous, caller flags it)."""
    if alpha <= 0 or beta_val < 0:
        raise ValueError("need alpha > 0 and beta_val >= 0")
    if beta_val == 0:
        return math.inf
    ab = alpha * beta_val
    return c ** (r + 1) * (1.0 / (m * math.sqrt(ab)) + (r + 1) ** (2.5 * r) / ab ** ((r + 1) / 2))


def weighted_sum_bound_rhs(
    *,
    kappa=None,
    delta=None,
    tau,
    p_val: float,
    r: int,
    m: int,
    beta_val: float,
    c: float = 1.0,
) -> float:
    """Bound for the weighted-sum reduction: the compound form evaluated at
    p_val * beta_val, times the window-refinement factor when tau > 0."""
    t = to_fraction(tau)
    if p_val < 0:
        raise ValueError("p_val must be nonnegative")
    if p_val == 0 or beta_val == 0:
        return math.inf
    core = cp_bound_rhs(p_val, beta_val, r, m, c)
    if t == 0:
        return core
    if kappa is None or delta is None:
        raise ValueError("tau > 0 requires kappa and delta")
    k = to_fraction(kappa)
    d = to_fraction(delta)
    if k <= 0 or d <= 0:
        raise ValueError("kappa and delta must be positive")
    return (1 + math.floor(k / d)) * core


# ---------------------------------------------------------------------------
# End-to-end check on a compound family instance.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BoundReport:
    lhs: ConcentrationResult
    rhs: float
    constants_used: dict
    slack: float  # rhs / lhs, recorded even when < 1
    flags: tuple[str, ...] = ()
    params: dict = dataclasses.field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "lhs": self.lhs.to_json_dict(),
            "rhs": self.rhs,
            "constants_used": dict(self.constants_used),
            "slack": self.slack,
            "flags": list(self.flags),
            "params": dict(self.params),
        }


def check_cp_bound(cp: CompoundPoissonSpec, tau, r: int, m: int, config: Optional[RunConfig] = None) -> BoundReport:
    """Estimate the window concentration of the compound law and compare it
    with the evaluated bound; beta runs on the normalized jump law."""
    cfg = config or RunConfig()
    if cp.weight.dim != 1:
        raise ValueError("bound check implemented on the line")
    t = to_fraction(tau)
    c = cfg.constants.c_cp
    b = beta(cp.normalized_jump_law(), t, r, m)
    rhs = cp_bound_rhs(float(cp.alpha), float(b.value), r, m, c)
    flags = (FLAG_DEGENERATE_BETA,) if b.value == 0 else ()
    if t == 0:
        mass = h_point_mass_zero(cp.weight, float(cp.lam))
        lhs = ConcentrationResult(max(mass, 1e-300), MODE_EXACT, witness=(0.0,), ci_halfwidth=1e-12)
    else:
        draws = sample_H_lambda(cp, cfg.mc_samples, cfg.seed)
        frac, center = empirical_window_max(draws, float(t))
        lhs = ConcentrationResult(frac, MODE_MC, witness=(center,))
    slack = rhs / lhs.value if lhs.value > 0 else math.inf
    return BoundReport(
        lhs,
        rhs,
        {"c_cp": c},
        slack,
        flags,
        {
            "alpha": float(cp.alpha),
            "beta": format_fraction(b.value),
            "r": r,
            "m": m,
            "tau": format_fraction(t),
            "n": cp.weight.n,
            "exactness": b.exactness,
        },
    )


BOUND_LEDGER_HEADER = "instance-id,n,r,m,tau,lhs,rhs,slack,constants"


def append_csv(path, header: str, lines: Sequence[str]) -> None:
    """Append CSV lines to path, writing the header first when the file is
    new or empty."""
    new = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", encoding="utf-8") as fh:
        if new:
            fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def append_bound_ledger(path, instance_id: str, report: BoundReport) -> None:
    """Append one report row, writing the header on first touch."""
    consts = ";".join(f"{k}={v}" for k, v in sorted(report.constants_used.items()))
    p = report.params
    row = ",".join(
        [
            instance_id,
            str(p.get("n", "")),
            str(p.get("r", "")),
            str(p.get("m", "")),
            str(p.get("tau", "")),
            repr(report.lhs.value),
            repr(report.rhs),
            repr(report.slack),
            consts,
        ]
    )
    append_csv(path, BOUND_LEDGER_HEADER, [row])
