"""Generalized arithmetic progressions, their convex images, and the two
certified searches (lattice sandwich, proper embedding).

A progression is a structural triple (dims, generators, rank), never
identified with its image: two progressions with equal images are equal
only when their triples are.  All properness and inclusion claims produced
here are certified by explicit finite enumeration before being returned.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .distributions import WeightVector
from .errors import (
    EmbeddingNotFound,
    EnumerationCapExceeded,
    SandwichNotFound,
    UnsupportedRank,
)
from .rational import (
    Vec,
    _echelon,
    coerce_real,
    common_grid,
    dot,
    format_fraction,
    hnf_basis,
    lattice_coefficients,
    max_norm,
    rank_over_q,
    reduce_basis,
    to_fraction,
    to_vec,
)

DEFAULT_ENUM_CAP = 10**6


# ---------------------------------------------------------------------------
# Symmetric polytopes: the concrete "convex symmetric body".
# ---------------------------------------------------------------------------


def _within(rows, x, factor=1) -> bool:
    """|<U, x>| <= factor * B on every integer constraint row (U, B)."""
    return all(abs(sum(map(mul, U, x))) <= factor * B for U, B in rows)


def _box(bounds: Sequence, enum_cap: int, what: str):
    """The integer m with |m_j| <= floor(bound_j), in sorted (product) order;
    raises EnumerationCapExceeded at the call when they exceed enum_cap."""
    lims = [math.floor(b) for b in bounds]
    count = math.prod(2 * lim + 1 for lim in lims)
    if count > enum_cap:
        raise EnumerationCapExceeded(f"{what} box size {count} exceeds cap {enum_cap}")
    return itertools.product(*(range(-lim, lim + 1) for lim in lims))


def _vertex_bound(rank: int, rows) -> tuple[Fraction, ...]:
    """Outer bounding box from vertex enumeration.

    A symmetric polytope |<U_i, x>| <= B_i is bounded iff the normals span
    R^rank; then every coordinate extreme is attained at an intersection of
    rank constraint hyperplanes, each eliminated fraction-free on [U | +-B]
    to integer numerators X over the determinant on every row's diagonal.
    """
    if rank == 0:
        return ()
    if len(_echelon([U for U, _ in rows])[1]) < rank:
        raise ValueError("polytope is unbounded (constraint normals do not span)")
    solves = math.comb(len(rows), rank) * 2 ** (rank - 1)
    if solves > DEFAULT_ENUM_CAP:
        raise EnumerationCapExceeded(f"vertex enumeration needs {solves} solves (cap {DEFAULT_ENUM_CAP})")
    best = [Fraction(0)] * rank
    for subset in itertools.combinations(rows, rank):
        for signs in itertools.product((1, -1), repeat=rank - 1):
            mat, pivots = _echelon([[*U, s * B] for (U, B), s in zip(subset, (1, *signs))])
            if pivots != list(range(rank)):
                continue
            det, X = abs(mat[0][0]), [r[rank] for r in mat]
            if _within(rows, X, det):
                best = [max(bj, Fraction(abs(xj), det)) for bj, xj in zip(best, X)]
    return tuple(best)


@dataclasses.dataclass(frozen=True)
class SymmetricPolytope:
    """{x in R^rank : |<u_i, x>| <= b_i for all i}, with b_i > 0.  Queries
    read the integer rows (U, B) = G * (u, b), G > 0 the row's common grid."""

    rank: int
    constraints: tuple[tuple[Vec, Fraction], ...]
    rows: tuple[tuple[tuple[int, ...], int], ...] = dataclasses.field(init=False, repr=False, compare=False)
    bounding_box: tuple[Fraction, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        cons = []
        for u, b in self.constraints:
            uv = to_vec(u, self.rank)
            bv = to_fraction(b)
            if bv <= 0:
                raise ValueError("constraint bounds must be positive")
            if all(c == 0 for c in uv):
                raise ValueError("constraint normal must be nonzero")
            cons.append((uv, bv))
        object.__setattr__(self, "constraints", tuple(cons))
        if self.rank > 0 and not cons:
            raise ValueError("a positive-rank polytope needs constraints to be bounded")
        grids = (common_grid([*u, b])[1] for u, b in cons)
        object.__setattr__(self, "rows", tuple((tuple(U), B) for *U, B in grids))
        object.__setattr__(self, "bounding_box", _vertex_bound(self.rank, self.rows))

    def contains(self, x: Sequence[Fraction]) -> bool:
        return self.contains_scaled(x, 1)

    def contains_scaled(self, x: Sequence[Fraction], factor) -> bool:
        """Membership in factor * V."""
        if len(x) != self.rank:
            raise ValueError(f"expected a point of dimension {self.rank}, got {len(x)}")
        return _within(self.rows, x, to_fraction(factor))

    def with_constraint(self, normal, bound) -> "SymmetricPolytope":
        return SymmetricPolytope(self.rank, self.constraints + ((to_vec(normal, self.rank), to_fraction(bound)),))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "constraints": [
                {"u": [format_fraction(c) for c in u], "b": format_fraction(b)} for u, b in self.constraints
            ],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SymmetricPolytope":
        return SymmetricPolytope(
            int(d["rank"]), tuple((tuple(c["u"]), c["b"]) for c in d.get("constraints", ()))
        )


def interval_body(L) -> SymmetricPolytope:
    """The rank-1 body [-L, L]."""
    return box_body([L])


def box_body(bounds: Sequence) -> SymmetricPolytope:
    r = len(bounds)
    return SymmetricPolytope(r, tuple((tuple(int(i == j) for i in range(r)), b) for j, b in enumerate(bounds)))


def lattice_points(V: SymmetricPolytope, basis: Optional[Sequence[Sequence]] = None, enum_cap: int = DEFAULT_ENUM_CAP):
    """Points of the lattice inside V (closed constraints), sorted.

    With basis=None the lattice is Z^rank and integer tuples are returned
    in the box's product order.  With a basis (list of rank rational
    vectors) the constraints are pulled back to coefficient space,
    enumerated there, and mapped forward; rational tuples are returned.
    """
    if basis is None:
        return [pt for pt in _box(V.bounding_box, enum_cap, "lattice") if _within(V.rows, pt)]
    B = [to_vec(v, V.rank) for v in basis]
    if len(B) != V.rank:
        raise ValueError("basis must have exactly rank vectors")
    # pulled-back normal components: <u, B m> = sum_j m_j <u, B_j>
    pulled = SymmetricPolytope(
        V.rank, tuple((tuple(dot(u, B[j]) for j in range(V.rank)), b) for u, b in V.constraints)
    )
    coeffs = lattice_points(pulled, None, enum_cap)
    return sorted(tuple(dot(m, col) for col in zip(*B)) for m in coeffs)


# ---------------------------------------------------------------------------
# Progressions.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Gap:
    """A progression (dims, generators, rank) in R^dim.

    The image is the set of integer combinations sum m_j g_j with
    |m_j| <= dims_j; rank 0 has image {0}.  Equality is structural.
    """

    dim: int
    rank: int
    dims: tuple[Fraction, ...]
    generators: tuple[Vec, ...]

    def __post_init__(self):
        if self.dim < 1 or self.rank < 0:
            raise ValueError("need dim >= 1 and rank >= 0")
        dims = tuple(coerce_real(L) for L in self.dims)
        gens = tuple(to_vec(g, self.dim) for g in self.generators)
        if len(dims) != self.rank or len(gens) != self.rank:
            raise ValueError("rank must match the number of dims and generators")
        if any(L <= 0 for L in dims):
            raise ValueError("dims must be positive")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "generators", gens)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rank": self.rank,
            "dims": [format_fraction(L) for L in self.dims],
            "generators": [[format_fraction(c) for c in g] for g in self.generators],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Gap":
        return Gap(int(d["dim"]), int(d["rank"]), tuple(d["dims"]), tuple(tuple(g) for g in d["generators"]))


def gap_1d(dims: Sequence, generators: Sequence) -> Gap:
    return Gap(1, len(dims), tuple(dims), tuple((g,) for g in generators))


def zero_gap(dim: int = 1) -> Gap:
    return Gap(dim, 0, (), ())


def vol(P: Gap) -> int:
    out = 1
    for L in P.dims:
        out *= 2 * math.floor(L) + 1
    return out


def dilate(P: Gap, t) -> Gap:
    tf = coerce_real(t)
    if tf <= 0:
        raise ValueError("dilation factor must be positive")
    return Gap(P.dim, P.rank, tuple(tf * L for L in P.dims), P.generators)


@lru_cache(maxsize=64)
def _image_table(P: Gap, enum_cap: int):
    """Map from scaled-integer image point to the first box witness, plus
    the first collision found (None when injective on the box).

    Generator coordinates are put on their common grid so enumeration runs
    on int tuples.
    """
    box = _box(P.dims, enum_cap, "progression")
    den, flat = common_grid(c for g in P.generators for c in g)
    gens = [flat[k : k + P.dim] for k in range(0, len(flat), P.dim)]
    table: dict[tuple[int, ...], tuple[int, ...]] = {}
    collision = None
    for m in box:
        pt = tuple(sum(m[j] * gens[j][i] for j in range(P.rank)) for i in range(P.dim))
        if pt in table:
            if collision is None:
                collision = (table[pt], m)
        else:
            table[pt] = m
    return den, table, collision


def image(P: Gap, enum_cap: int = DEFAULT_ENUM_CAP):
    """The image point set.  Returns a set of Fractions for dim=1, else a
    set of Fraction tuples."""
    den, table, _ = _image_table(P, enum_cap)
    if P.dim == 1:
        return {Fraction(k[0], den) for k in table}
    return {tuple(Fraction(c, den) for c in k) for k in table}


def size(P: Gap, enum_cap: int = DEFAULT_ENUM_CAP) -> int:
    _, table, _ = _image_table(P, enum_cap)
    return len(table)


def is_proper(P: Gap, enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    """True iff the box-to-image map is injective (explicit collision scan)."""
    _, _, collision = _image_table(P, enum_cap)
    return collision is None


def is_infinitely_proper(P: Gap) -> bool:
    """Injectivity over all of Z^rank: generators linearly independent over
    the rationals (decided exactly on the cleared-denominator matrix)."""
    if P.rank == 0:
        return True
    return rank_over_q(P.generators) == P.rank


def is_t_proper(P: Gap, t, enum_cap: int = DEFAULT_ENUM_CAP) -> bool:
    if is_infinitely_proper(P):
        return True
    return is_proper(dilate(P, t), enum_cap)


# ---------------------------------------------------------------------------
# Convex progressions.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Cgap:
    """K = {<nu, h> : nu in Z^rank intersected with the body}, a subset of R."""

    rank: int
    h: tuple[Fraction, ...]
    body: SymmetricPolytope

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(to_fraction(c) for c in self.h))
        if len(self.h) != self.rank:
            raise ValueError("h must have length rank")
        if self.body.rank != self.rank:
            raise ValueError("body rank must match")

    def lattice_size(self, enum_cap: int = DEFAULT_ENUM_CAP) -> int:
        return len(lattice_points(self.body, None, enum_cap))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "h": [format_fraction(c) for c in self.h],
            "constraints": self.body.to_json_dict()["constraints"],
        }

    @staticmethod
    def from_json_dict(d: dict) -> "Cgap":
        return Cgap(int(d["rank"]), tuple(d["h"]), SymmetricPolytope.from_json_dict(d))


def zero_cgap() -> Cgap:
    return Cgap(0, (), SymmetricPolytope(0, ()))


def cgap_image(K: Cgap, enum_cap: int = DEFAULT_ENUM_CAP) -> set[Fraction]:
    pts = lattice_points(K.body, None, enum_cap)
    return {dot(nu, K.h) for nu in pts}


@dataclasses.dataclass(frozen=True)
class ProductCgap:
    """Coordinate-wise product of one-dimensional convex progressions."""

    factors: tuple[Cgap, ...]

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def rank(self) -> int:
        return sum(k.rank for k in self.factors)

    def lattice_size(self, enum_cap: int = DEFAULT_ENUM_CAP) -> int:
        out = 1
        for k in self.factors:
            out *= k.lattice_size(enum_cap)
        return out

    def image(self, enum_cap: int = DEFAULT_ENUM_CAP) -> set[tuple[Fraction, ...]]:
        per = [sorted(cgap_image(k, enum_cap)) for k in self.factors]
        count = 1
        for p in per:
            count *= len(p)
            if count > enum_cap:
                raise EnumerationCapExceeded("product image exceeds cap")
        return set(itertools.product(*per))


# ---------------------------------------------------------------------------
# Coverage.
# ---------------------------------------------------------------------------


def near(pts: Sequence, x, delta: Fraction) -> bool:
    """Closed max-norm test: is x within delta of the sorted point tuple pts?

    Scalar points: the first point >= x - delta decides.  Tuple points:
    bisect on the first coordinate, then compare in full only the run whose
    first coordinate lies within delta of x's.
    """
    if not isinstance(x, tuple):
        i = bisect.bisect_left(pts, x - delta)
        return i < len(pts) and pts[i] <= x + delta
    i = bisect.bisect_left(pts, (x[0] - delta,))
    while i < len(pts) and pts[i][0] <= x[0] + delta:
        if max_norm(tuple(a - b for a, b in zip(x, pts[i]))) <= delta:
            return True
        i += 1
    return False


def _scalar_points(pts: Sequence, dim: int) -> bool:
    """Whether the nonempty points pts are scalars (1-vectors) rather than
    tuples; raises ValueError unless they are dim-vectors."""
    scalar = isinstance(pts[0], Fraction)
    if dim != (1 if scalar else len(pts[0])):
        raise ValueError("dimension mismatch between set and point")
    return scalar


def neighborhood_contains(Kimg, delta, x) -> bool:
    """Closed max-norm test: is x within delta of the finite set Kimg?  A
    scalar and a 1-vector are the same point, whichever form Kimg uses."""
    d, pts, xv = to_fraction(delta), tuple(sorted(Kimg)), to_vec(x)
    if not pts:
        return False
    return near(pts, xv[0] if _scalar_points(pts, len(xv)) else xv, d)


def coverage_count(Kimg, delta, a: WeightVector) -> int:
    """#{k : a_k within max-norm delta of Kimg}, one query per distinct a_k.
    Raises ValueError when Kimg's points and a's entries differ in dimension."""
    d, pts = to_fraction(delta), tuple(sorted(Kimg))
    if not pts:
        return 0
    scalar = _scalar_points(pts, a.dim)
    return sum(mult for e, mult in a.counts if near(pts, e[0] if scalar else e, d))


# ---------------------------------------------------------------------------
# Certified sandwich search.
# ---------------------------------------------------------------------------


def _canonical_sign(v: tuple[int, ...]) -> tuple[int, ...]:
    for c in v:
        if c != 0:
            return v if c > 0 else tuple(-x for x in v)
    return v


def _max_multiple(g: tuple[int, ...], S: set) -> int:
    lo = 1
    while tuple(c * (lo + 1) for c in g) in S:
        lo += 1
    return lo


def _shrink_dims(gens: list[tuple[int, ...]], dims: list[Fraction], S: set, enum_cap: int):
    """Trim dims until the image of (dims, gens) sits inside S.

    Terminates because every dim is eventually 1/2, whose image {0, +-g or
    nothing} is inside S by construction of the candidates."""
    r = len(gens[0]) if gens else 0
    while True:
        P = Gap(max(r, 1), len(gens), tuple(dims), tuple(tuple(Fraction(c) for c in g) for g in gens))
        if vol(P) > enum_cap:
            # trim the widest coordinate and retry
            j = max(range(len(dims)), key=lambda i: (dims[i], i))
            if dims[j] <= Fraction(1, 2):
                raise EnumerationCapExceeded("sandwich candidate image exceeds cap")
            dims[j] = max(dims[j] - 1, Fraction(1, 2))
            continue
        # each point keeps its first witness in (lexicographic) product order
        violation = min((m for pt, m in _image_table(P, enum_cap)[1].items() if pt not in S), default=None)
        if violation is None:
            return dims
        j = max(range(len(gens)), key=lambda i: (abs(violation[i]), dims[i], i))
        new_dim = Fraction(abs(violation[j]) - 1)
        dims[j] = new_dim if new_dim >= 1 else Fraction(1, 2)


def mahler_sandwich(V: SymmetricPolytope, cap_t: float = 64.0, enum_cap: int = DEFAULT_ENUM_CAP) -> tuple[Gap, int]:
    """A progression squeezed between the lattice points of V and a bounded
    dilation of itself.

    Returns (P, t*) with integer-vector generators, Image(P) a subset of
    the integer points of V, every integer point of V inside Image(P^t*),
    t* minimal among tested integer dilations and at most cap_t, and every
    generator inside rank*V.  Search: short lattice vectors ranked by
    length, refined by pairwise swaps; every returned inclusion is
    re-checked by explicit enumeration.  Raises SandwichNotFound when no
    candidate certifies within cap_t.
    """
    r = V.rank
    if r > 3:
        raise UnsupportedRank("sandwich search implemented for rank <= 3")
    pts = lattice_points(V, None, enum_cap)
    S = set(pts)
    nonzero = [p for p in pts if any(p)]
    if not nonzero:
        return Gap(max(r, 1), 0, (), ()), 1
    full = hnf_basis(nonzero, r)
    l = len(full)
    reduced = reduce_basis(full)

    def nsq(v):
        return sum(c * c for c in v)

    pool = sorted({_canonical_sign(p) for p in nonzero}, key=lambda p: (nsq(p), p))[:8]
    pool += [v for v in dict.fromkeys(map(_canonical_sign, reduced)) if v not in pool]

    def valid_basis(cand: Sequence[tuple[int, ...]]) -> bool:
        # generating the full point lattice (rank l) forces independence;
        # every generator must also sit inside rank*V
        if any(lattice_coefficients(cand, b) is None for b in full):
            return False
        return all(V.contains_scaled(g, max(r, 1)) for g in cand)

    def evaluate(cand):
        """(t*, -size, generators, P), ranked by its first three, or None
        when cand does not certify within cap_t."""
        gens = tuple(sorted(cand, key=lambda g: (nsq(g), g)))
        dims = [Fraction(_max_multiple(g, S)) if g in S else Fraction(1, 2) for g in gens]
        dims = _shrink_dims(list(gens), dims, S, enum_cap)
        # exact minimal integer dilation via unique coefficients
        tstar = 1
        for s in nonzero:
            coef = lattice_coefficients(gens, s)
            if coef is None:
                return None
            for c, L in zip(coef, dims):
                tstar = max(tstar, math.ceil(abs(c) / L))
        if tstar > cap_t:
            return None
        P = Gap(max(r, 1), l, tuple(dims), gens)
        return tstar, -size(P, enum_cap), gens, P

    first = itertools.islice(filter(valid_basis, itertools.combinations(pool, l)), 40)
    scored = [res for res in map(evaluate, first) if res is not None]
    if not scored:
        raise SandwichNotFound(f"no certified sandwich within dilation cap {cap_t}")
    # local swaps: perturb the first phase's winner by +-neighbors
    base = min(scored, key=lambda res: res[:3])[2]
    for (i, j), sgn in itertools.product(itertools.permutations(range(l), 2), (1, -1)):
        cand = list(base)
        cand[i] = _canonical_sign(tuple(a + sgn * b for a, b in zip(base[i], base[j])))
        if len(set(cand)) == l and valid_basis(cand):
            res = evaluate(cand)
            if res is not None:
                scored.append(res)
    tstar, _, _, P = min(scored, key=lambda res: res[:3])
    # final certification by explicit enumeration, both directions; the
    # generators are integer vectors, so the image tables' keys are the points
    if not _image_table(P, enum_cap)[1].keys() <= S:
        raise SandwichNotFound("certification failed: image escapes the body")
    if not S <= _image_table(dilate(P, tstar), enum_cap)[1].keys():
        raise SandwichNotFound("certification failed: dilation does not cover the lattice points")
    return P, tstar


# ---------------------------------------------------------------------------
# Certified proper embedding (one-dimensional, rank <= 2).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EmbeddingResult:
    gap: Gap
    size_ratio: Fraction  # size(Q) / size(P), reported for growth-law checks
    collapsed: bool


def embed_proper(P: Gap, t=1, enum_cap: int = DEFAULT_ENUM_CAP) -> EmbeddingResult:
    """A t-proper symmetric progression Q with Image(P) inside Image(Q) and
    rank(Q) <= rank(P).

    If P is already t-proper it is returned unchanged.  Otherwise the two
    generators satisfy an integer relation (one-dimensional rational
    generators always do); the relation collapses them onto the common
    refinement generator gamma with g1 = p*gamma, g2 = q*gamma, and the new
    single dim floor(L1)|p| + floor(L2)|q| makes the image a superset.
    Inclusion and t-properness are certified by enumeration.
    """
    if P.dim != 1:
        raise ValueError("embedding implemented for one-dimensional progressions")
    if P.rank > 2:
        raise UnsupportedRank("embedding search implemented for rank <= 2")
    tf = coerce_real(t)
    if tf < 1:
        raise ValueError("t must be >= 1")

    def certified(Q: Gap, collapsed: bool) -> EmbeddingResult:
        if not is_t_proper(Q, tf, enum_cap):
            raise EmbeddingNotFound("candidate is not t-proper")
        if not image(P, enum_cap) <= image(Q, enum_cap):
            raise EmbeddingNotFound("candidate does not contain the image")
        return EmbeddingResult(Q, Fraction(size(Q, enum_cap), size(P, enum_cap)), collapsed)

    if is_t_proper(P, tf, enum_cap):
        return certified(P, False)
    # drop generators that contribute nothing (zero, or dim below 1)
    live = [(L, g) for L, g in zip(P.dims, P.generators) if g[0] != 0 and math.floor(L) >= 1]
    if not live:
        return certified(zero_gap(1), True)
    if len(live) == 1:
        L, g = live[0]
        return certified(Gap(1, 1, (Fraction(math.floor(L)),), (g,)), True)
    (L1, g1), (L2, g2) = live
    ratio = g1[0] / g2[0]
    p, q = ratio.numerator, ratio.denominator  # g1*q == g2*p, gcd(p,q)=1
    gamma = g1[0] / p
    newdim = Fraction(math.floor(L1) * abs(p) + math.floor(L2) * abs(q))
    return certified(Gap(1, 1, (newdim,), ((gamma,),)), True)
