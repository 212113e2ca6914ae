"""Finitely supported laws in exact rational arithmetic.

Houses finite atomic measures (a law is one of total mass exactly 1), the
discrete law of a single summand, its symmetrization and tail functional,
weight vectors with exact norm bookkeeping, the exact law of the weighted
sum, and the symmetric compound-Poisson family built from a weight vector
(characteristic function, Levy-type atom measure, and a Poisson-difference
sampler).

Values are tuples of Fractions of length ``dim``; masses are Fractions.
Everything downstream (window sweeps, properness, witness searches) relies
on the exactness of equality and ordering here.  Fractions are the API
boundary: the law kernel puts values and masses on integer grids
(``rational.common_grid``), computes on integers, and makes Fractions only
for the law it returns.  Grid vectors lie on one packed integer axis
(Kronecker substitution): v is keyed by sum_i v_i * R^(dim-1-i), with
balanced digits, R = 2B + 1 and B the largest coordinate any partial sum
reaches, so keys add like the vectors and sort like their tuples.

Public constructors validate everything they are given.  Laws, measures and
weight vectors the library builds are canonical by construction and are not
re-validated: they go through the private ``_from_canonical`` constructors.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .errors import AtomCapExceeded
from .rational import Vec, common_grid, format_fraction, max_norm, to_fraction, to_vec

DEFAULT_ATOM_CAP = 10**6
_H_MASS_TOL = 1e-12  # mass h_point_mass_zero may drop from its truncated pmfs


def _canonical_atoms(pairs: Iterable, dim: int) -> tuple[tuple[Vec, Fraction], ...]:
    seen: dict[Vec, Fraction] = {}
    for value, mass in pairs:
        v = to_vec(value, dim)
        m = to_fraction(mass)
        if v in seen:
            raise ValueError(f"duplicate atom value {v}")
        if m <= 0:
            raise ValueError(f"atom mass must be positive, got {m}")
        seen[v] = m
    return tuple(sorted(seen.items()))


@dataclasses.dataclass(frozen=True)
class AtomicMeasure:
    """A finite positive atomic measure on R^dim: rational atoms with
    rational masses, in canonical (sorted, duplicate-free) order."""

    dim: int
    atoms: tuple[tuple[Vec, Fraction], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms, self.dim))

    @classmethod
    def _from_canonical(cls, dim: int, atoms: tuple[tuple[Vec, Fraction], ...]):
        """Atoms already canonical: sorted distinct Vec values, positive
        Fraction masses (of total 1 for a law)."""
        obj = object.__new__(cls)
        obj.__dict__.update(dim=dim, atoms=atoms)
        return obj

    @property
    def total(self) -> Fraction:
        return sum((m for _, m in self.atoms), Fraction(0))

    def scalar_atoms(self) -> list[tuple[Fraction, Fraction]]:
        """(value, mass) pairs with scalar values; dim must be 1."""
        if self.dim != 1:
            raise ValueError("scalar_atoms requires dim=1")
        return [(v[0], m) for v, m in self.atoms]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [[[format_fraction(c) for c in v], format_fraction(m)] for v, m in self.atoms],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "AtomicMeasure":
        return cls(int(d["dim"]), tuple((tuple(v), m) for v, m in d["atoms"]))


@dataclasses.dataclass(frozen=True)
class DiscreteDistribution(AtomicMeasure):
    """A probability law: an atomic measure of total mass exactly 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.total != 1:
            raise ValueError(f"masses must sum to exactly 1, got {self.total}")

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    def mass_at(self, value) -> Fraction:
        v = to_vec(value, self.dim)
        for val, m in self.atoms:
            if val == v:
                return m
        return Fraction(0)

    def marginal(self, j: int) -> "DiscreteDistribution":
        """Law of coordinate j (0-based)."""
        acc: dict[Vec, Fraction] = {}
        for v, m in self.atoms:
            key = (v[j],)
            acc[key] = acc.get(key, Fraction(0)) + m
        return DiscreteDistribution._from_canonical(1, tuple(sorted(acc.items())))

    def is_symmetric(self) -> bool:
        table = dict(self.atoms)
        return all(table.get(tuple(-c for c in v)) == m for v, m in self.atoms)

    def char_fn(self) -> Callable[[np.ndarray], complex]:
        """Characteristic function as a float-valued callable (dim=1)."""
        if self.dim != 1:
            raise ValueError("char_fn helper provided for dim=1 only")
        vals = np.array([float(v[0]) for v, _ in self.atoms])
        masses = np.array([float(m) for _, m in self.atoms])
        return lambda t: np.sum(masses * np.exp(1j * np.asarray(t)[..., None] * vals), axis=-1)


def from_scalar_atoms(pairs: Iterable) -> DiscreteDistribution:
    return DiscreteDistribution(1, tuple(pairs))


def rademacher() -> DiscreteDistribution:
    return from_scalar_atoms([(1, Fraction(1, 2)), (-1, Fraction(1, 2))])


def point_mass(value, dim: int = 1) -> DiscreteDistribution:
    return DiscreteDistribution(dim, ((value, 1),))


def uniform_on(values) -> DiscreteDistribution:
    vals = [to_vec(v, None) for v in values]
    m = Fraction(1, len(vals))
    return DiscreteDistribution(len(vals[0]), tuple((v, m) for v in vals))


@dataclasses.dataclass(frozen=True)
class WeightVector:
    """The coefficient vector a = (a_1, ..., a_n), a_k in R^dim, a != 0.

    ``counts`` is the multiplicity table of the entries: each distinct entry
    once, in order of first occurrence, with the number of k holding it.  It
    is derived in ``__post_init__`` and takes no part in equality, hashing,
    ``repr`` or the JSON form.  Every computation that depends on the
    entries only as a multiset walks ``counts`` instead of ``entries``.
    """

    dim: int
    entries: tuple[Vec, ...]
    counts: tuple[tuple[Vec, int], ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        object.__setattr__(self, "entries", tuple(to_vec(e, self.dim) for e in self.entries))
        if len(self.entries) < 1:
            raise ValueError("need n >= 1 entries")
        object.__setattr__(self, "counts", tuple(Counter(self.entries).items()))
        if all(all(c == 0 for c in e) for e, _ in self.counts):
            raise ValueError("weight vector must not be identically zero")

    @classmethod
    def _from_canonical(cls, dim: int, entries: tuple[Vec, ...], counts: tuple[tuple[Vec, int], ...]) -> "WeightVector":
        """Vec entries, not all zero, and the counts __post_init__ would derive."""
        obj = object.__new__(cls)
        obj.__dict__.update(dim=dim, entries=entries, counts=counts)
        return obj

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def norm_sq(self) -> Fraction:
        return sum((k * sum((c * c for c in e), Fraction(0)) for e, k in self.counts), Fraction(0))

    def coordinate(self, j: int) -> "WeightVector":
        """Projection a^(j) as a one-dimensional weight vector (0-based j)."""
        if self.coordinate_is_zero(j):
            raise ValueError("weight vector must not be identically zero")
        counts: dict[Vec, int] = {}
        for e, k in self.counts:
            counts[(e[j],)] = counts.get((e[j],), 0) + k
        return WeightVector._from_canonical(1, tuple((e[j],) for e in self.entries), tuple(counts.items()))

    def coordinate_is_zero(self, j: int) -> bool:
        return all(e[j] == 0 for e, _ in self.counts)

    def scale(self, factor) -> "WeightVector":
        f = to_fraction(factor)
        if f == 0:
            raise ValueError("scale factor must be nonzero")
        return WeightVector(self.dim, tuple(tuple(f * c for c in e) for e in self.entries))

    def scalar_entries(self) -> list[Fraction]:
        if self.dim != 1:
            raise ValueError("scalar_entries requires dim=1")
        return [e[0] for e in self.entries]

    def as_float_array(self) -> np.ndarray:
        return np.array([[float(c) for c in e] for e in self.entries])

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "entries": [[format_fraction(c) for c in e] for e in self.entries]}

    @staticmethod
    def from_json_dict(d: dict) -> "WeightVector":
        return WeightVector(int(d["dim"]), tuple(tuple(e) for e in d["entries"]))


def weights_1d(values) -> WeightVector:
    return WeightVector(1, tuple((v,) for v in values))


_PLUS_MINUS_ONE = weights_1d((1, -1))  # symmetrize's weight vector


@dataclasses.dataclass(frozen=True)
class CompoundPoissonSpec:
    """The symmetric compound-Poisson family built on a weight vector.

    The characteristic function is exp(-lam/2 * sum_k (1 - cos<t, a_k>)),
    equivalently a compound Poisson law whose jump measure puts mass lam/4
    at each of +-a_k.  lam = 0 degenerates to the point mass at zero.
    """

    weight: WeightVector
    lam: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")

    @property
    def alpha(self) -> float:
        """Exponent scale when written as exp(alpha*(What - 1)) with What the
        characteristic function of the normalized atom measure."""
        return self.lam * self.weight.n / 2.0

    def normalized_jump_law(self) -> DiscreteDistribution:
        """The probability measure W with What as above: star measure / 2n."""
        star = levy_measure_star(self.weight)
        n2 = Fraction(2 * self.weight.n)
        return DiscreteDistribution._from_canonical(star.dim, tuple((v, m / n2) for v, m in star.atoms))

    def char_fn(self, t) -> float:
        return char_fn_H(self.weight, t, self.lam)

    def sample(self, count: int, seed: int) -> np.ndarray:
        return sample_H_lambda(self, count, seed)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def symmetrize(F: DiscreteDistribution) -> DiscreteDistribution:
    """Law of X1 - X2 for X1, X2 i.i.d. with law F: the weighted sum with
    entries 1 and -1.  F must be one-dimensional (ValueError otherwise),
    and a support above DEFAULT_ATOM_CAP raises AtomCapExceeded."""
    return weighted_sum_law(F, _PLUS_MINUS_ONE)


def tail_mass(G: DiscreteDistribution, delta) -> Fraction:
    """Mass of {z : |z| > delta} in max-norm, strict inequality."""
    d = to_fraction(delta)
    if d < 0:
        raise ValueError("delta must be >= 0")
    if not G.is_symmetric():
        warnings.warn("tail_mass called on an asymmetric law; the tail functional is defined for symmetrized laws")
    return sum((m for v, m in G.atoms if max_norm(v) > d), Fraction(0))


def _pack_groups(cs: list[int], dim: int, reach: list[int]) -> tuple[int, list[int]]:
    """(R, each group entry's packed key) for entries cs of dim integers each,
    a partial sum holding entry g at most reach[g] times in absolute value."""
    R = 2 * max(sum(r * abs(cs[g * dim + i]) for g, r in enumerate(reach)) for i in range(dim)) + 1
    entries = (cs[g * dim : (g + 1) * dim] for g in range(len(reach)))
    return R, [sum(c * R ** (dim - 1 - i) for i, c in enumerate(e)) for e in entries]


def _convolve(A: dict[int, int], B: dict[int, int], atom_cap: int) -> dict[int, int]:
    """Product of two laws keyed on the packed axis; the cap is checked after
    each row, so an oversized product raises once it passes the cap, not after it is built."""
    out: dict[int, int] = {}
    rows = list(B.items())
    for ka, ma in A.items():
        for kb, mb in rows:
            k = ka + kb
            out[k] = out.get(k, 0) + ma * mb
        if len(out) > atom_cap:
            raise AtomCapExceeded(f"support grew to {len(out)} atoms (cap {atom_cap})")
    return out


def _convolution_power(law: dict[int, int], k: int, atom_cap: int) -> dict[int, int]:
    """law^(*k), k >= 1, by repeated squaring."""
    result = None
    while True:
        if k & 1:
            result = law if result is None else _convolve(result, law, atom_cap)
        k >>= 1
        if not k:
            return result
        law = _convolve(law, law, atom_cap)


def weighted_sum_law(F: DiscreteDistribution, a: WeightVector, atom_cap: int = DEFAULT_ATOM_CAP) -> DiscreteDistribution:
    """Exact law of sum_k X_k a_k, with X_k i.i.d. scalar with law F.

    Integer kernel: the atoms x of F sit on their common grid of scale Gx,
    the entry coordinates c on theirs of scale Gc, so every product x * c
    is an integer on the grid of scale G = Gx * Gc, and every mass of F is
    an integer over D, the lcm of its mass denominators.  On the one packed
    integer axis, a group of equal entries e is keyed by x * pack(e), and
    its law is a convolution power by repeated squaring; the groups are
    then convolved in order of first occurrence.  Only the sorted final
    keys are unpacked, and Fractions appear only in the returned law, whose
    atoms are those of the iterated convolution exactly.

    The merged support is capped to keep blow-up loud instead of slow.  It
    is checked while each product grows; every partial law is the law of a
    sub-sum, whose support never exceeds the full sum's, so this raises
    exactly when the full support exceeds the cap.
    """
    if F.dim != 1:
        raise ValueError("summand law must be one-dimensional")
    scalars = F.scalar_atoms()
    groups = [(e, mult) for e, mult in a.counts if any(e)]
    Gx, xs = common_grid(x for x, _ in scalars)
    Gc, cs = common_grid(c for e, _ in groups for c in e)
    D, ms = common_grid(m for _, m in scalars)
    G, dim = Gx * Gc, a.dim
    R, packs = _pack_groups(cs, dim, [mult * max(map(abs, xs)) for _, mult in groups])
    acc = {0: 1}
    for p, (_, mult) in zip(packs, groups):
        # e != 0, so distinct atoms of F give distinct values x * e
        law = {x * p: m for x, m in zip(xs, ms)}
        acc = _convolve(acc, _convolution_power(law, mult, atom_cap), atom_cap)
    total = D ** sum(mult for _, mult in groups)
    if sum(acc.values()) != total:
        raise ValueError("masses must sum to exactly 1")
    # unpack in base R (shifted digits 0..R-1); sorted keys are sorted vectors, over G > 0 too
    B, powers = R // 2, [R**i for i in reversed(range(dim))]
    shift = B * sum(powers)
    vecs = ((tuple(Fraction((k + shift) // q % R - B, G) for q in powers), m) for k, m in sorted(acc.items()))
    return DiscreteDistribution._from_canonical(dim, tuple((v, Fraction(m, total)) for v, m in vecs))


def levy_measure_star(a: WeightVector) -> AtomicMeasure:
    """Atom measure with unit mass at each of +-a_k; total 2n."""
    acc: dict[Vec, int] = {}
    for e, mult in a.counts:
        for v in (e, tuple(-c for c in e)):
            acc[v] = acc.get(v, 0) + mult
    return AtomicMeasure._from_canonical(a.dim, tuple((v, Fraction(m)) for v, m in sorted(acc.items())))


def levy_measure_plain(a: WeightVector) -> AtomicMeasure:
    """Atom measure with unit mass at each a_k (no reflection); total n."""
    return AtomicMeasure._from_canonical(a.dim, tuple((e, Fraction(k)) for e, k in sorted(a.counts)))


def char_fn_H(a: WeightVector, t, lam: float) -> float:
    """exp(-lam/2 * sum_k (1 - cos<t, a_k>)); always in (0, 1]."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    tv = np.atleast_1d(np.asarray(t, dtype=float))
    if tv.shape != (a.dim,):
        raise ValueError(f"t must have shape ({a.dim},)")
    ent = a.as_float_array()
    return float(np.exp(-lam / 2.0 * np.sum(1.0 - np.cos(ent @ tv))))


def sample_H_lambda(spec: CompoundPoissonSpec, count: int, seed: int) -> np.ndarray:
    """i.i.d. samples of sum_k (N_k+ - N_k-) a_k, N_k+- ~ Poisson(lam/4).

    Entries equal as vectors share a pooled Poisson rate (sums of
    independent symmetric Poisson differences merge exactly).  Returns an
    array of shape (count,) for dim=1, else (count, dim).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    a = spec.weight
    out = np.zeros((count, a.dim))
    if spec.lam > 0:
        for e, mult in a.counts:  # first-occurrence order: deterministic
            ev = np.array([float(c) for c in e])
            if not ev.any():
                continue
            rate = mult * spec.lam / 4.0
            diff = rng.poisson(rate, count).astype(float) - rng.poisson(rate, count).astype(float)
            out += diff[:, None] * ev[None, :]
    return out[:, 0] if a.dim == 1 else out


def h_point_mass_zero(a: WeightVector, lam: float) -> float:
    """P(H^lam = {0 vector}) via truncated symmetric Poisson-difference pmfs.

    Entries of equal magnitude pool their rates; each pooled difference
    count is truncated once its two-sided pmf captures all but its share of
    _H_MASS_TOL, so the returned value underestimates by at most that in
    total.  The pmfs are built first, as their lengths fix the radix of the
    one packed integer axis, then folded by `_convolve` in the same order;
    AtomCapExceeded when the support outgrows DEFAULT_ATOM_CAP.
    """
    if not 0 <= lam < math.inf:
        raise ValueError(f"lambda must be finite and >= 0, got {lam}")
    if lam == 0:
        return 1.0
    groups: dict[Vec, int] = {}
    for e, mult in a.counts:
        if any(e):
            key = min(e, tuple(-c for c in e))  # +-v generate the same jump law
            groups[key] = groups.get(key, 0) + mult
    if not groups:
        return 1.0
    from scipy.stats import skellam

    per_group_tol = _H_MASS_TOL / len(groups)
    pooled = sorted(groups.items())
    _, cs = common_grid(c for e, _ in pooled for c in e)
    pmfs = []  # P(D = j) for j = 0, 1, ..., the same as P(D = -j)
    for _, mult in pooled:
        mu = mult * lam / 4.0
        pmf = [float(skellam.pmf(0, mu, mu))]
        covered = pmf[0]
        while covered < 1.0 - per_group_tol:
            pmf.append(float(skellam.pmf(len(pmf), mu, mu)))
            covered += 2.0 * pmf[-1]
        pmfs.append(pmf)
    _, packs = _pack_groups(cs, a.dim, [len(pmf) - 1 for pmf in pmfs])
    acc = {0: 1.0}
    for p, pmf in zip(packs, pmfs):  # keys 0, p, -p, 2p, -2p, ...
        acc = _convolve(acc, {s * j * p: pj for j, pj in enumerate(pmf) for s in (1, -1)}, DEFAULT_ATOM_CAP)
    return acc.get(0, 0.0)
