"""Concentration functions: exact window sweeps, the regularity law,
characteristic-function upper bounds, and the reduction to the
compound-Poisson family.

Q(F, tau) is the supremum over centers x of the F-mass of the closed ball
of diameter tau around x.  For one-dimensional discrete laws the supremum
is attained on a finite sweep and is computed exactly; for d > 1 and
tau > 0 only the Monte-Carlo estimator is offered.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .distributions import (
    CompoundPoissonSpec,
    DiscreteDistribution,
    WeightVector,
    h_point_mass_zero,
    symmetrize,
    tail_mass,
    weighted_sum_law,
)
from .errors import QuadratureFailure
from .rational import common_grid, format_fraction, to_fraction

MODE_EXACT = "exact"
MODE_MC = "monte_carlo"


@dataclasses.dataclass(frozen=True)
class ConcentrationResult:
    value: Fraction | float
    mode: str
    witness: Optional[tuple] = None  # center achieving the value (exact mode)
    ci_halfwidth: Optional[float] = None

    def __post_init__(self):
        if not (0 < self.value <= 1):
            raise ValueError(f"concentration value must be in (0, 1], got {self.value}")

    def as_float(self) -> float:
        return float(self.value)

    def to_json_dict(self) -> dict:
        val = format_fraction(self.value) if isinstance(self.value, Fraction) else self.value
        wit = None
        if self.witness is not None:
            wit = [format_fraction(c) if isinstance(c, Fraction) else c for c in self.witness]
        return {"value": val, "mode": self.mode, "witness": wit, "ci_halfwidth": self.ci_halfwidth}


def conc_zero(F: DiscreteDistribution) -> ConcentrationResult:
    """Largest atom mass, any dimension; witness is the smallest such atom."""
    best_v, best_m = None, Fraction(0)
    for v, m in F.atoms:  # atoms sorted, so first maximum has smallest value
        if m > best_m:
            best_v, best_m = v, m
    return ConcentrationResult(best_m, MODE_EXACT, witness=best_v)


def conc_interval(F: DiscreteDistribution, tau) -> ConcentrationResult:
    """Exact sup_x F[x - tau/2, x + tau/2] for a one-dimensional law.

    The optimum window can be slid so its left endpoint sits on an atom,
    so a single left-anchored sweep over sorted atoms is exhaustive.  Among
    maximizing windows the one with the smallest center wins.

    The sweep runs on integers: the values and tau on their common grid,
    the prefix masses over D, the lcm of the mass denominators.  Fractions
    are made once, for the returned mass and center.
    """
    if F.dim != 1:
        raise ValueError("conc_interval requires dim=1")
    t = to_fraction(tau)
    if t < 0:
        raise ValueError("tau must be >= 0")
    pairs = F.scalar_atoms()  # sorted ascending
    _, (T, *values) = common_grid([t, *(v for v, _ in pairs)])
    D, masses = common_grid(m for _, m in pairs)
    prefix = [0, *itertools.accumulate(masses)]
    best_mass, best_i = 0, None
    j = 0
    for i, v in enumerate(values):
        hi = v + T
        if j < i:
            j = i
        while j + 1 < len(values) and values[j + 1] <= hi:
            j += 1
        mass = prefix[j + 1] - prefix[i]
        if mass > best_mass:
            best_mass, best_i = mass, i
    center = pairs[best_i][0] + t / 2
    return ConcentrationResult(Fraction(best_mass, D), MODE_EXACT, witness=(center,))


def empirical_window_max(samples: np.ndarray, width: float) -> tuple[float, float]:
    """Max fraction of samples in a closed window [s, s+width] anchored at a
    sample; returns (fraction, window center)."""
    xs = np.sort(np.asarray(samples, dtype=float))
    hi = np.searchsorted(xs, xs + width, side="right")
    counts = hi - np.arange(len(xs))
    best = int(np.argmax(counts))
    return float(counts[best]) / len(xs), float(xs[best] + width / 2.0)


def conc_ball_mc(sampler: Callable[[int, int], np.ndarray], d: int, tau: float, count: int, seed: int) -> ConcentrationResult:
    """Monte-Carlo estimate of sup_x P(|Y - x| <= tau/2), Euclidean norm.

    Scans balls anchored at the samples themselves (for d=1 also windows
    whose left edge is a sample, which is where the discrete optimum
    lives).  The scan underestimates the true supremum while the empirical
    mass of the selected ball overestimates its probability; the bootstrap
    halfwidth quantifies the second effect only.
    """
    if count < 1000:
        raise ValueError("count must be >= 1000")
    samples = np.asarray(sampler(count, seed), dtype=float)
    rng = np.random.default_rng(seed + 0x5EED)
    if d == 1:
        flat = samples.reshape(-1)
        est, center = empirical_window_max(flat, tau)
        in_window = (flat >= center - tau / 2.0 - 1e-15) & (flat <= center + tau / 2.0 + 1e-15)
        witness = (center,)
    else:
        pts = samples.reshape(-1, d)
        n_centers = min(len(pts), 512)
        centers = pts[np.linspace(0, len(pts) - 1, n_centers).astype(int)]
        best_count, best_idx = -1, 0
        for i, c in enumerate(centers):
            cnt = int(np.sum(np.sum((pts - c) ** 2, axis=1) <= (tau / 2.0) ** 2))
            if cnt > best_count:
                best_count, best_idx = cnt, i
        c = centers[best_idx]
        in_window = np.sum((pts - c) ** 2, axis=1) <= (tau / 2.0) ** 2
        est = best_count / len(pts)
        witness = tuple(float(x) for x in c)
    boot = rng.choice(in_window.astype(float), size=(200, len(in_window)), replace=True).mean(axis=1)
    hw = 4.0 * float(np.std(boot))
    return ConcentrationResult(max(est, 1e-300), MODE_MC, witness=witness, ci_halfwidth=hw)


def regularity_factor(F: DiscreteDistribution, mu, lam) -> tuple[Fraction, Fraction]:
    """Exact pair (Q(F,mu), (1+floor(mu/lam))^d * Q(F,lam)).

    The first is never larger than the second; both are returned so the
    caller owns the assertion.  mu = lam = 0 degenerates to the point-mass
    comparison with factor 1.
    """
    m, l = to_fraction(mu), to_fraction(lam)
    if m == 0 and l == 0:
        q = conc_zero(F).value
        return q, q
    if m < 0 or l <= 0:
        raise ValueError("need mu >= 0 and lam > 0 (or both zero)")
    if F.dim != 1:
        raise ValueError("exact mode requires dim=1")
    lhs = conc_interval(F, m).value
    factor = (1 + (m / l).__floor__()) ** F.dim
    rhs = factor * conc_interval(F, l).value
    return lhs, rhs


def esseen_upper(char_fn: Callable[[float], complex], tau: float, constant: float = 1.0) -> float:
    """constant * tau * integral of |char_fn| over [-1/tau, 1/tau].

    Adaptive quadrature at absolute tolerance 1e-9; the constant is a
    calibration knob, not a claimed sharp value.
    """
    from scipy.integrate import quad

    if tau <= 0:
        raise ValueError("tau must be > 0")
    lim = 1.0 / float(tau)
    val, abserr = quad(lambda t: abs(char_fn(t)), -lim, lim, epsabs=1e-9, epsrel=1e-9, limit=500)
    if abserr > 1e-6 * max(1.0, abs(val)):
        raise QuadratureFailure(f"quadrature error estimate {abserr} too large")
    return constant * float(tau) * val


@dataclasses.dataclass(frozen=True)
class ReductionPair:
    """Exact weighted-sum concentration vs. its compound-Poisson majorant."""

    lhs: ConcentrationResult
    rhs_mc: float
    rhs_esseen: float
    p_val: Fraction
    factor: Fraction

    @property
    def ratio(self) -> float:
        return self.lhs.as_float() / (self.factor * self.rhs_mc) if self.rhs_mc > 0 else math.inf


def reduction_pair(
    F: DiscreteDistribution,
    a: WeightVector,
    tau,
    kappa,
    mc_samples: int = 10**5,
    seed: int = 0,
    delta=None,
) -> ReductionPair:
    """Exact Q(F_a, tau) against the estimated Q(H^p, kappa) it reduces to.

    With delta supplied, the right side is evaluated at window delta and
    multiplied by the regularity factor (1 + floor(kappa/delta))^d.
    """
    t, k = to_fraction(tau), to_fraction(kappa)
    if t < 0 or k <= 0:
        raise ValueError("need tau >= 0 and kappa > 0")
    law = weighted_sum_law(F, a)
    if law.dim != 1:
        raise ValueError("exact left side requires dim=1")
    lhs = conc_interval(law, t)
    p = tail_mass(symmetrize(F), t / k)
    width, factor = k, Fraction(1)
    if delta is not None:
        dl = to_fraction(delta)
        if dl <= 0:
            raise ValueError("delta must be > 0 when supplied")
        width, factor = dl, (1 + (k / dl).__floor__()) ** a.dim
    if p == 0:
        return ReductionPair(lhs, 1.0, 1.0, p, factor)
    spec = CompoundPoissonSpec(a, float(p))
    est, _ = empirical_window_max(spec.sample(mc_samples, seed), float(width))
    ess = esseen_upper(lambda u: spec.char_fn([u]), float(width))
    return ReductionPair(lhs, est, min(ess, 1.0), p, factor)


def zero_tau_pair(F: DiscreteDistribution, a: WeightVector) -> tuple[Fraction, float]:
    """tau = 0 limit: exact Q(F_a, 0) against the exact point mass of the
    compound-Poisson law at rate p(0) (truncated expansion, tail < 1e-12)."""
    law = weighted_sum_law(F, a)
    lhs = conc_zero(law).value
    g = symmetrize(F)
    p0 = 1 - g.mass_at((Fraction(0),) * g.dim)
    rhs = h_point_mass_zero(a, float(p0))
    return lhs, rhs
