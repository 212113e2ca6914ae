"""Progressions and convex progressions: enumeration laws, properness,
the certified sandwich search, and proper embedding.

Structural equality matters here: two progressions with the same image are
different objects unless their triples match, and several tests rely on
that to pin down what an operation returned.
"""

import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from lostructure import gap
from lostructure.errors import EnumerationCapExceeded, LostructureError, SandwichNotFound, UnsupportedRank
from lostructure.gap import (
    _canonical_sign,
    _image_table,
    _max_multiple,
    _shrink_dims,
    Cgap,
    EmbeddingResult,
    Gap,
    ProductCgap,
    SymmetricPolytope,
    box_body,
    cgap_image,
    coverage_count,
    dilate,
    embed_proper,
    gap_1d,
    image,
    interval_body,
    is_infinitely_proper,
    is_proper,
    is_t_proper,
    lattice_points,
    mahler_sandwich,
    near,
    neighborhood_contains,
    size,
    vol,
    zero_cgap,
    zero_gap,
)
from lostructure.distributions import WeightVector, weights_1d
from lostructure.rational import (
    dot,
    hnf_basis,
    lattice_coefficients,
    rank_over_q,
    reduce_basis,
    solve_square,
    to_fraction,
    to_vec,
)
from strategies import coords, repeated_weight_vectors, vectors

rationals = st.fractions(min_value=Fraction(1, 4), max_value=Fraction(9, 2)).filter(lambda x: x > 0)


def small_gaps(max_rank=2):
    def build(rank, dims, gens):
        return gap_1d(dims[:rank], gens[:rank])

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_rank),
        st.lists(rationals, min_size=max_rank, max_size=max_rank),
        st.lists(st.integers(min_value=-6, max_value=6).filter(bool), min_size=max_rank, max_size=max_rank),
    )


class TestGapBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Gap(1, 1, (1, 2), ((1,),))  # dims/rank mismatch
        with pytest.raises(ValueError):
            gap_1d((0,), (1,))  # dims must be positive
        with pytest.raises(ValueError):
            Gap(0, 0, (), ())

    def test_zero_gap_image(self):
        assert image(zero_gap(1)) == {Fraction(0)}
        assert size(zero_gap(1)) == 1
        assert vol(zero_gap(1)) == 1
        assert is_proper(zero_gap(1))

    def test_vol(self):
        assert vol(gap_1d((Fraction(5, 2), 1), (1, 10))) == 15
        assert vol(gap_1d((Fraction(2, 5),), (7,))) == 1

    def test_proper_two_generator(self):
        P = gap_1d((Fraction(5, 2), 1), (1, 10))
        assert size(P) == 15
        assert is_proper(P)
        assert image(P) == {Fraction(i + 10 * j) for i in range(-2, 3) for j in range(-1, 2)}

    def test_improper_collision(self):
        P = gap_1d((1, 1), (1, 1))
        assert vol(P) == 9
        assert size(P) == 5
        assert not is_proper(P)
        assert image(P) == {Fraction(k) for k in range(-2, 3)}

    def test_fractional_dim_below_one(self):
        P = gap_1d((Fraction(2, 5),), (7,))
        assert image(P) == {Fraction(0)}

    def test_json_round_trip(self):
        P = gap_1d((Fraction(5, 2), 1), (Fraction(1, 3), 10))
        assert Gap.from_json_dict(P.to_json_dict()) == P


class TestDilation:
    def test_identity(self):
        P = gap_1d((2, 1), (1, 5))
        assert dilate(P, 1) == P

    def test_fractional_dim_growth(self):
        P = gap_1d((Fraction(2, 5),), (1,))
        Q = dilate(P, 3)
        assert vol(Q) == 3
        assert image(Q) == {Fraction(-1), Fraction(0), Fraction(1)}

    def test_associativity(self):
        P = gap_1d((Fraction(7, 3),), (2,))
        assert dilate(dilate(P, 2), 3) == dilate(P, 6)

    def test_positive_factor_required(self):
        with pytest.raises(ValueError):
            dilate(gap_1d((1,), (1,)), 0)

    @given(rationals, st.integers(min_value=1, max_value=5))
    def test_floor_dilation_identity(self, L, t):
        lhs = 2 * math.floor(2 * t * L) + 1
        rhs = (2 * t + 1) * (2 * math.floor(2 * L) + 1)
        assert lhs <= rhs

    @given(small_gaps(), st.integers(min_value=1, max_value=4))
    def test_volume_growth_bound(self, P, t):
        assert vol(dilate(P, t)) <= (2 * t + 1) ** P.rank * vol(P)


class TestProperness:
    @given(small_gaps())
    def test_size_at_most_vol(self, P):
        s, v = size(P), vol(P)
        assert s <= v
        assert (s == v) == is_proper(P)

    def test_t_proper_threshold(self):
        # 13*8 = 8*13 forces the first collision at box radius >= 13/2
        P = gap_1d((2, 2), (13, 8))
        assert is_proper(P)
        assert is_t_proper(P, 3)
        assert not is_t_proper(P, 4)

    def test_large_coprime_generators(self):
        P = gap_1d((5, 5), (1393, 985))
        assert not is_infinitely_proper(P)
        assert is_t_proper(P, 2)

    def test_rank_one_rational_always_proper(self):
        P = gap_1d((100,), (Fraction(22, 7),))
        assert is_infinitely_proper(P)
        # short-circuits, no enumeration of the dilated box
        assert is_t_proper(P, 10**9)

    def test_independent_generators(self):
        P = Gap(2, 2, (3, 3), ((1, 0), (0, 1)))
        assert is_infinitely_proper(P)

    def test_small_coprime(self):
        assert is_t_proper(gap_1d((1, 1), (1, 3)), 1)

    def test_enum_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            size(gap_1d((1000, 1000), (1, 10**7)), enum_cap=100)


class TestLatticePoints:
    def test_box(self):
        assert len(lattice_points(box_body([2, 2]))) == 25

    def test_slab_cut(self):
        V = SymmetricPolytope(2, (((1, 0), 2), ((0, 1), 2), ((1, 1), 1)))
        pts = lattice_points(V)
        assert len(pts) == 13
        assert all(abs(x + y) <= 1 for x, y in pts)

    def test_cross_polytope(self):
        V = SymmetricPolytope(2, (((1, 0), 2), ((0, 1), 2), ((1, 1), 1), ((1, -1), 1)))
        assert lattice_points(V) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_negation_closure(self):
        V = SymmetricPolytope(2, (((2, 1), 3), ((1, -1), 2)))
        pts = set(lattice_points(V))
        assert {(-x, -y) for x, y in pts} == pts

    def test_with_basis(self):
        pts = lattice_points(interval_body(5), basis=[(2,)])
        assert pts == [(Fraction(-4),), (Fraction(-2),), (Fraction(0),), (Fraction(2),), (Fraction(4),)]

    def test_rank_zero(self):
        assert lattice_points(SymmetricPolytope(0, ())) == [()]

    def test_unbounded_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPolytope(2, (((1, 0), 1),))

    def test_enum_cap(self):
        with pytest.raises(EnumerationCapExceeded):
            lattice_points(box_body([1000, 1000]), enum_cap=100)

    def test_bounding_box_is_derived(self):
        with pytest.raises(TypeError):
            SymmetricPolytope(1, (((1,), 5),), bounding_box=(1,))
        assert len(lattice_points(SymmetricPolytope(1, (((1,), 5),)))) == 11

    def test_polytope_json_round_trip(self):
        V = SymmetricPolytope(2, (((1, Fraction(1, 2)), 2), ((0, 1), 3)))
        assert SymmetricPolytope.from_json_dict(V.to_json_dict()) == V


class TestCgap:
    def test_rank_one_image(self):
        K = Cgap(1, (Fraction(1, 3),), interval_body(2))
        assert cgap_image(K) == {Fraction(k, 3) for k in range(-2, 3)}
        assert K.lattice_size() == 5

    def test_cross_body_collapses_values(self):
        body = SymmetricPolytope(2, (((1, 0), 2), ((0, 1), 2), ((1, 1), 1), ((1, -1), 1)))
        K = Cgap(2, (1, 1), body)
        assert K.lattice_size() == 5
        assert cgap_image(K) == {Fraction(-1), Fraction(0), Fraction(1)}

    def test_zero_cgap(self):
        assert cgap_image(zero_cgap()) == {Fraction(0)}
        assert zero_cgap().lattice_size() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Cgap(2, (1,), box_body([1, 1]))
        with pytest.raises(ValueError):
            Cgap(1, (1,), box_body([1, 1]))

    def test_json_round_trip(self):
        K = Cgap(1, (Fraction(2, 7),), interval_body(3))
        assert Cgap.from_json_dict(K.to_json_dict()) == K

    def test_product(self):
        K = ProductCgap((Cgap(1, (1,), interval_body(1)), Cgap(1, (10,), interval_body(1))))
        assert K.dim == 2 and K.rank == 2
        assert K.lattice_size() == 9
        img = K.image()
        assert len(img) == 9
        assert (Fraction(1), Fraction(-10)) in img


_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_deltas = st.fractions(min_value=0, max_value=2, max_denominator=3)
_scalar_case = st.tuples(st.frozensets(_small, max_size=8), _small)
_pair_case = st.tuples(st.frozensets(st.tuples(_small, _small), max_size=8), st.tuples(_small, _small))


def _brute_dist(pts, x):
    """Min max-norm distance from x to pts by full scan; None when empty."""
    if isinstance(x, tuple):
        return min((max(abs(a - b) for a, b in zip(x, y)) for y in pts), default=None)
    return min((abs(x - y) for y in pts), default=None)


class TestCoverage:
    def test_neighborhood_contains(self):
        img = {Fraction(0), Fraction(3)}
        assert neighborhood_contains(img, 1, Fraction(4))  # closed boundary
        assert not neighborhood_contains(img, 1, Fraction(5))
        assert not neighborhood_contains(set(), 1, Fraction(0))

    def test_neighborhood_contains_one_vectors(self):
        """A scalar point against 1-tuple points (a dim-1 ProductCgap's image)
        and a 1-vector against scalar points are the same query; any other
        dimension mismatch is an error."""
        img = ProductCgap((Cgap(1, (3,), interval_body(1)),)).image()
        assert img == {(Fraction(-3),), (Fraction(0),), (Fraction(3),)}
        assert neighborhood_contains(img, 1, Fraction(4))
        assert not neighborhood_contains(img, 1, Fraction(5))
        assert neighborhood_contains({(Fraction(1),)}, 0, Fraction(1))
        assert neighborhood_contains({(Fraction(1),)}, 0, 1)
        assert neighborhood_contains({Fraction(1)}, 0, (Fraction(1),))
        with pytest.raises(ValueError, match="dimension mismatch"):
            neighborhood_contains({(Fraction(1), Fraction(2))}, 0, Fraction(1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            neighborhood_contains({Fraction(1)}, 0, (Fraction(1), Fraction(2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            neighborhood_contains({(Fraction(1), Fraction(2))}, 0, (Fraction(1), Fraction(2), Fraction(7)))

    def test_coverage_count(self):
        a = weights_1d([Fraction(1, 2), 2, -1])
        assert coverage_count({Fraction(0)}, 1, a) == 2
        assert coverage_count({Fraction(0)}, 2, a) == 3
        assert coverage_count({Fraction(0)}, Fraction(1, 4), a) == 0

    def test_coverage_vector_entries(self):
        from lostructure.distributions import WeightVector

        a = WeightVector(2, ((1, 1), (5, 0)))
        assert coverage_count({(Fraction(1), Fraction(1))}, 0, a) == 1

    def test_coverage_count_dimension_mismatch(self):
        """1-D weights count against scalar or 1-tuple points, and any set
        counts nothing when empty; every other mismatch is an error."""
        one, two = weights_1d([1, 4]), WeightVector(2, ((1, 7),))
        assert coverage_count({(Fraction(1),)}, 0, one) == 1
        assert coverage_count(ProductCgap((Cgap(1, (3,), interval_body(1)),)).image(), 1, one) == 2
        assert coverage_count(set(), 1, one) == 0
        assert coverage_count(set(), 1, two) == 0
        for img, a in [({(1, 7)}, one), ({(Fraction(1),)}, two), ({Fraction(1)}, two)]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                coverage_count(img, 0, a)

    @given(st.one_of(_scalar_case, _pair_case), _deltas)
    @example((frozenset(), Fraction(0)), Fraction(1))
    @example((frozenset({Fraction(0), Fraction(3)}), Fraction(4)), Fraction(1))
    @example((frozenset({(Fraction(0), Fraction(3))}), (Fraction(1), Fraction(2))), Fraction(1))
    @example(
        (frozenset({(Fraction(0), Fraction(5)), (Fraction(1, 2), Fraction(0))}), (Fraction(0), Fraction(0))),
        Fraction(1),
    )
    @example((frozenset({Fraction(1, 3)}), Fraction(1, 3)), Fraction(0))
    @example((frozenset({(Fraction(1), Fraction(2))}), (Fraction(1), Fraction(3))), Fraction(0))
    def test_near_matches_brute_force(self, case, delta):
        """Pinned examples: the empty set, a point at exactly delta (the test
        is closed), a hit past the first point of the bisected run, and
        delta = 0."""
        pts, x = case
        dist = _brute_dist(pts, x)
        want = dist is not None and dist <= delta
        assert near(tuple(sorted(pts)), x, delta) == want
        assert neighborhood_contains(pts, delta, x) == want

    @given(st.lists(st.tuples(_small, st.integers(1, 400)), min_size=1, max_size=6), _deltas)
    def test_coverage_count_with_multiplicities(self, blocks, delta):
        entries = [v for v, mult in blocks for _ in range(mult)]
        assume(any(entries))
        a = weights_1d(entries)
        img = {Fraction(0), Fraction(3, 2), Fraction(-2)}
        want = sum(1 for w in entries if _brute_dist(img, w) <= delta)
        assert coverage_count(img, delta, a) == want


class TestMahlerSandwich:
    def test_box_is_its_own_sandwich(self):
        V = box_body([3, 3])
        P, t = mahler_sandwich(V)
        assert t == 1
        assert size(P) == 49
        pts = {tuple(int(c) for c in p) for p in image(P)}
        assert pts == set(lattice_points(V))

    def test_slab_contract(self):
        V = SymmetricPolytope(2, (((1, 0), 4), ((1, -2), 1)))
        S = set(lattice_points(V))
        assert len(S) == 13
        P, t = mahler_sandwich(V)
        assert t <= 3
        inner = {tuple(int(c) for c in p) for p in image(P)}
        assert inner <= S
        outer = {tuple(int(c) for c in p) for p in image(dilate(P, t))}
        assert S <= outer
        for g in P.generators:
            assert V.contains_scaled(g, 2)

    def test_origin_only(self):
        P, t = mahler_sandwich(box_body([Fraction(1, 2), Fraction(1, 2)]))
        assert P.rank == 0
        assert t == 1

    def test_rank_cap(self):
        with pytest.raises(UnsupportedRank):
            mahler_sandwich(box_body([1, 1, 1, 1]))

    def test_interval(self):
        P, t = mahler_sandwich(interval_body(Fraction(7, 2)))
        assert t == 1
        assert image(P) == {Fraction(k) for k in range(-3, 4)}

    def test_dilation_cap(self):
        V = SymmetricPolytope(2, (((1, 0), 4), ((1, -2), 1)))
        assert mahler_sandwich(V)[1] == 2
        with pytest.raises(SandwichNotFound, match="no certified sandwich within dilation cap 1"):
            mahler_sandwich(V, cap_t=1)


def reference_sandwich(V: SymmetricPolytope, cap_t: float = 64.0, enum_cap: int = 10**6):
    """mahler_sandwich as it scored its candidates in two sorted lists and
    certified on Fraction images (oracle)."""
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

    pool: list[tuple[int, ...]] = []
    seen = set()
    for v in sorted({_canonical_sign(p) for p in nonzero}, key=lambda p: (nsq(p), p))[:8]:
        if v not in seen:
            pool.append(v)
            seen.add(v)
    for v in reduced:
        cv = _canonical_sign(v)
        if cv not in seen:
            pool.append(cv)
            seen.add(cv)

    def valid_basis(cand):
        if rank_over_q([tuple(Fraction(c) for c in g) for g in cand]) != l:
            return False
        if any(lattice_coefficients(cand, b) is None for b in full):
            return False
        return all(V.contains_scaled(g, max(r, 1)) for g in cand)

    candidates = []
    for combo in itertools.combinations(pool, l):
        if valid_basis(combo):
            candidates.append(tuple(sorted(combo, key=lambda g: (nsq(g), g))))
        if len(candidates) >= 40:
            break

    def evaluate(cand):
        gens = list(cand)
        dims = [Fraction(_max_multiple(g, S)) if g in S else Fraction(1, 2) for g in gens]
        dims = _shrink_dims(gens, dims, S, enum_cap)
        tstar = 1
        for s in nonzero:
            coef = lattice_coefficients(gens, s)
            if coef is None:
                return None
            for c, L in zip(coef, dims):
                need = math.ceil(Fraction(abs(c)) / L)
                if need > tstar:
                    tstar = need
        if tstar > cap_t:
            return None
        P = Gap(max(r, 1), len(gens), tuple(dims), tuple(tuple(Fraction(c) for c in g) for g in gens))
        return P, tstar

    best = None
    scored = []
    for cand in candidates:
        res = evaluate(cand)
        if res is not None:
            P, tstar = res
            scored.append((tstar, -size(P, enum_cap), P.generators, P, tstar))
    if scored:
        scored.sort(key=lambda x: (x[0], x[1], x[2]))
        base_int = [tuple(int(c) for c in g) for g in scored[0][3].generators]
        for i in range(len(base_int)):
            for j in range(len(base_int)):
                if i == j:
                    continue
                for sgn in (1, -1):
                    cand = list(base_int)
                    cand[i] = _canonical_sign(tuple(a + sgn * b for a, b in zip(cand[i], cand[j])))
                    cand_t = tuple(sorted(cand, key=lambda g: (nsq(g), g)))
                    if len(set(cand_t)) == l and valid_basis(cand_t):
                        res = evaluate(cand_t)
                        if res is not None:
                            P, tstar = res
                            scored.append((tstar, -size(P, enum_cap), P.generators, P, tstar))
        scored.sort(key=lambda x: (x[0], x[1], x[2]))
        best = (scored[0][3], scored[0][4])
    if best is None:
        raise SandwichNotFound(f"no certified sandwich within dilation cap {cap_t}")
    P, tstar = best
    img_pts = {tuple(int(c) for c in (p if isinstance(p, tuple) else (p,))) for p in image(P, enum_cap)}
    if not img_pts <= S:
        raise SandwichNotFound("certification failed: image escapes the body")
    big_pts = {tuple(int(c) for c in (p if isinstance(p, tuple) else (p,))) for p in image(dilate(P, tstar), enum_cap)}
    if not S <= big_pts:
        raise SandwichNotFound("certification failed: dilation does not cover the lattice points")
    return P, tstar


@st.composite
def sandwich_bodies(draw):
    """A unit-normal box of half-widths k/2 at rank 1-3, cut by up to three
    constraints with small integer normals."""
    r = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 12 if r < 3 else 5), min_size=r, max_size=r))
    cons = [(tuple(int(i == j) for i in range(r)), Fraction(k, 2)) for j, k in enumerate(widths)]
    normals = st.tuples(*[st.integers(-3, 3)] * r).filter(any)
    bounds = st.builds(Fraction, st.integers(1, 12), st.integers(1, 4))
    cons += draw(st.lists(st.tuples(normals, bounds), max_size=3))
    return SymmetricPolytope(r, tuple(cons))


def sandwich_outcome(search, V, cap_t):
    """The JSON form of (P, t*), or the error's type and message."""
    try:
        P, t = search(V, cap_t=cap_t, enum_cap=10**5)
    except LostructureError as err:
        return type(err), str(err)
    return P.to_json_dict(), t


class TestSandwichReference:
    @given(sandwich_bodies(), st.sampled_from([1, 2, 4, 16, 64]))
    @example(SymmetricPolytope(2, (((1, 0), 4), ((1, -2), 1))), 1)
    @example(SymmetricPolytope(2, (((1, 0), 4), ((1, -2), 1))), 64)
    @example(
        SymmetricPolytope(2, (((1, 0), Fraction(5, 2)), ((0, 1), 4), ((-1, -3), 6), ((-3, -2), Fraction(5, 2)))),
        64,
    )
    @example(
        SymmetricPolytope(
            3,
            (
                ((1, 0, 0), Fraction(5, 2)),
                ((0, 1, 0), 1),
                ((0, 0, 1), Fraction(5, 2)),
                ((-1, -3, 0), 4),
                ((-2, -2, 3), Fraction(7, 3)),
            ),
        ),
        4,
    )
    def test_matches_reference(self, V, cap_t):
        """Pinned examples: the slab whose t* = 2, past and inside the cap; a
        body whose winner is decided by size among equal t*; and one whose
        result depends on the 40th valid basis of the first phase."""
        assert sandwich_outcome(mahler_sandwich, V, cap_t) == sandwich_outcome(reference_sandwich, V, cap_t)


def reference_shrink_dims(gens, dims, S, enum_cap):
    """_shrink_dims as it found its violation with its own product loop
    (oracle)."""
    r = len(gens[0]) if gens else 0
    while True:
        P = Gap(max(r, 1), len(gens), tuple(dims), tuple(tuple(Fraction(c) for c in g) for g in gens))
        if vol(P) > enum_cap:
            j = max(range(len(dims)), key=lambda i: (dims[i], i))
            if dims[j] <= Fraction(1, 2):
                raise EnumerationCapExceeded("sandwich candidate image exceeds cap")
            dims[j] = max(dims[j] - 1, Fraction(1, 2))
            continue
        violation = None
        ranges = [range(-math.floor(L), math.floor(L) + 1) for L in dims]
        for m in itertools.product(*ranges):
            pt = tuple(sum(m[j] * gens[j][i] for j in range(len(gens))) for i in range(r))
            if pt not in S:
                violation = m
                break
        if violation is None:
            return dims
        j = max(range(len(gens)), key=lambda i: (abs(violation[i]), dims[i], i))
        new_dim = Fraction(abs(violation[j]) - 1)
        dims[j] = new_dim if new_dim >= 1 else Fraction(1, 2)


@st.composite
def shrink_inputs(draw):
    """1-3 integer generators in dimension 1-3, starting dims of 1/2 or a
    small integer, and a point set that holds the origin (so that all dims
    at 1/2 fit) plus some of the box's image and some strays."""
    r, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    gens = [tuple(draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))) for _ in range(k)]
    dims = [draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)])) for _ in range(k)]
    box = list(itertools.product(*[range(-math.floor(L), math.floor(L) + 1) for L in dims]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    keep = rng.sample(box, rng.randint(0, len(box)))
    S = {tuple(sum(m[j] * gens[j][i] for j in range(k)) for i in range(r)) for m in keep}
    S |= set(draw(st.lists(st.tuples(*[st.integers(-6, 6)] * r), max_size=6)))
    S.add((0,) * r)
    return gens, dims, S, draw(st.sampled_from([5, 30, 10**4]))


def shrink_outcome(shrink, gens, dims, S, enum_cap):
    try:
        return shrink(list(gens), list(dims), S, enum_cap)
    except EnumerationCapExceeded as err:
        return type(err), str(err)


class TestShrinkDimsReference:
    @given(shrink_inputs())
    @example(([(-2,), (1,)], [Fraction(1), Fraction(1)], {(-2,), (-1,), (0,), (1,)}, 10**4))
    def test_matches_reference(self, inputs):
        """The same trimmed dims, or the same cap error, as the product loop.
        Pinned: a box with two points outside S, where only the first in
        product order gives the reference's dims."""
        assert shrink_outcome(_shrink_dims, *inputs) == shrink_outcome(reference_shrink_dims, *inputs)


class TestEmbedProper:
    def test_already_proper_unchanged(self):
        P = gap_1d((2,), (3,))
        res = embed_proper(P)
        assert res.gap == P
        assert res.size_ratio == 1
        assert not res.collapsed

    def test_equal_generators_collapse(self):
        res = embed_proper(gap_1d((1, 1), (1, 1)))
        assert res.collapsed
        assert res.gap == gap_1d((2,), (1,))
        assert res.size_ratio == 1

    def test_commensurable_collapse(self):
        P = gap_1d((3, 2), (2, 3))
        assert not is_proper(P)
        res = embed_proper(P)
        assert res.collapsed
        assert res.gap == gap_1d((12,), (1,))
        assert is_proper(res.gap)
        assert image(P) <= image(res.gap)

    def test_zero_generator_dropped(self):
        res = embed_proper(gap_1d((1, 1), (0, 1)))
        assert res.collapsed
        assert res.gap == gap_1d((1,), (1,))

    def test_all_generators_dead(self):
        res = embed_proper(gap_1d((1,), (0,)))
        assert res.collapsed
        assert res.gap == zero_gap(1)
        assert res.size_ratio == 1

    def test_t_parameter(self):
        res = embed_proper(gap_1d((2, 2), (1, 1)), t=3)
        assert is_t_proper(res.gap, 3)
        assert image(gap_1d((2, 2), (1, 1))) <= image(res.gap)

    def test_validation(self):
        with pytest.raises(ValueError):
            embed_proper(gap_1d((1,), (1,)), t=Fraction(1, 2))
        with pytest.raises(UnsupportedRank):
            embed_proper(gap_1d((1, 1, 1), (1, 2, 4)))
        with pytest.raises(ValueError):
            embed_proper(Gap(2, 1, (1,), ((1, 0),)))

    @given(small_gaps())
    def test_contract(self, P):
        res = embed_proper(P)
        assert isinstance(res, EmbeddingResult)
        assert is_proper(res.gap)
        assert image(P) <= image(res.gap)
        assert res.gap.rank <= P.rank


def coverage_count_per_entry(Kimg, delta, a):
    """coverage_count as it counted the entries afresh on each call (oracle)."""
    d = to_fraction(delta)
    pts = tuple(sorted(Kimg))
    scalar = a.dim == 1 and bool(pts) and isinstance(pts[0], Fraction)
    return sum(mult for e, mult in Counter(a.entries).items() if near(pts, e[0] if scalar else e, d))


class TestCoverageFromCounts:
    @given(repeated_weight_vectors(), st.data(), _deltas)
    def test_matches_per_entry_count(self, a, data, delta):
        pts = coords if a.dim == 1 else vectors(a.dim)
        img = data.draw(st.frozensets(pts, max_size=6))
        assert coverage_count(img, delta, a) == coverage_count_per_entry(img, delta, a)


@st.composite
def gaps(draw):
    dim = draw(st.sampled_from([1, 2]))
    rank = draw(st.integers(0, 3))
    dims = draw(st.lists(rationals, min_size=rank, max_size=rank))
    gens = draw(st.lists(vectors(dim), min_size=rank, max_size=rank))
    return Gap(dim, rank, tuple(dims), tuple(gens))


class TestGapJsonRoundTrip:
    @given(gaps())
    def test_round_trip(self, P):
        assert Gap.from_json_dict(json.loads(json.dumps(P.to_json_dict()))) == P


def reference_vertex_bound(rank, constraints):
    """_vertex_bound as it solved each vertex with solve_square on Fraction
    rows and tested every constraint in Fractions (oracle)."""
    if rank == 0:
        return ()
    if rank_over_q([u for u, _ in constraints]) < rank:
        raise ValueError("polytope is unbounded (constraint normals do not span)")
    best = [Fraction(0)] * rank
    for subset in itertools.combinations(range(len(constraints)), rank):
        rows = [constraints[i][0] for i in subset]
        for signs in itertools.product((1, -1), repeat=rank - 1):
            rhs = [constraints[subset[0]][1]] + [s * constraints[subset[k + 1]][1] for k, s in enumerate(signs)]
            x = solve_square(rows, rhs)
            if x is None:
                continue
            if all(abs(dot(u, x)) <= b for u, b in constraints):
                for j in range(rank):
                    best[j] = max(best[j], abs(x[j]))
    return tuple(best)


def reference_contains_scaled(V, x, factor=1):
    """contains / contains_scaled as a Fraction dot product per constraint
    (oracle)."""
    return all(abs(dot(u, x)) <= to_fraction(factor) * b for u, b in V.constraints)


def reference_lattice_points(V, enum_cap):
    """lattice_points(V) (basis=None) as a box loop with its own cap check
    over the reference bounding box (oracle)."""
    if V.rank == 0:
        return [()]
    counts = 1
    ranges = []
    for b in reference_vertex_bound(V.rank, V.constraints):
        lo = math.floor(b)
        ranges.append(range(-lo, lo + 1))
        counts *= 2 * lo + 1
        if counts > enum_cap:
            raise EnumerationCapExceeded(f"bounding box holds {counts}+ integer points (cap {enum_cap})")
    return sorted(pt for pt in itertools.product(*ranges) if reference_contains_scaled(V, pt))


def reference_image_table(P, enum_cap):
    """_image_table with its own volume check and product loop, uncached
    (oracle)."""
    if vol(P) > enum_cap:
        raise EnumerationCapExceeded(f"progression volume {vol(P)} exceeds cap {enum_cap}")
    den = math.lcm(*(c.denominator for g in P.generators for c in g))
    gens = [[int(c * den) for c in g] for g in P.generators]
    table, collision = {}, None
    for m in itertools.product(*[range(-math.floor(L), math.floor(L) + 1) for L in P.dims]):
        pt = tuple(sum(m[j] * gens[j][i] for j in range(P.rank)) for i in range(P.dim))
        if pt in table:
            if collision is None:
                collision = (table[pt], m)
        else:
            table[pt] = m
    return den, table, collision


_normal_coords = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polytope_cases(draw):
    """(rank, constraints) at rank 1-3 with 1-5 constraints: normals with
    negative and fractional coordinates, some parallel to the first (so the
    normals may not span), and bounds b with b * G an integer or not, G the
    normal's grid."""
    r = draw(st.integers(1, 3))
    normals = []
    for _ in range(draw(st.integers(1, 5))):
        if normals and draw(st.integers(0, 3)) == 0:
            normals.append(tuple(draw(st.sampled_from([-2, Fraction(1, 2), 3])) * c for c in normals[0]))
        else:
            normals.append(draw(st.tuples(*[_normal_coords] * r).filter(any)))
    cons = []
    for u in normals:
        G = math.lcm(*(c.denominator for c in u))
        k = draw(st.integers(1, 9))
        cons.append((u, Fraction(k, G) if draw(st.booleans()) else Fraction(k, draw(st.integers(1, 5)))))
    return r, tuple(cons)


def _box_count(box):
    return math.prod(2 * math.floor(b) + 1 for b in box)


class TestPolytopeReference:
    """The integer constraint rows, their vertex elimination and the shared
    box enumerator against the Fraction code they replaced."""

    @given(polytope_cases())
    @example((2, (((1, 0), 1),)))
    @example((2, (((1, Fraction(-1, 2)), Fraction(3, 2)), ((Fraction(2, 3), 1), Fraction(5, 3)))))
    @example((3, (((1, 1, 0), 2), ((0, 1, 1), 2), ((1, 0, 1), 2), ((1, -1, 1), Fraction(1, 2)))))
    def test_bounding_box_and_lattice_points(self, case):
        """Pinned: a rank-2 body with one constraint (unbounded), a body
        with fractional normals and bounds on their grid, and a rank-3 body
        with four constraints."""
        rank, cons = case
        try:
            want = reference_vertex_bound(rank, tuple((to_vec(u), to_fraction(b)) for u, b in cons))
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                SymmetricPolytope(rank, cons)
            return
        V = SymmetricPolytope(rank, cons)
        assert V.bounding_box == want
        count = _box_count(want)
        for f in (lattice_points, reference_lattice_points):
            with pytest.raises(EnumerationCapExceeded):
                f(V, enum_cap=count - 1)
        if count <= 4000:
            assert lattice_points(V, enum_cap=count) == reference_lattice_points(V, count)

    @given(polytope_cases(), st.data())
    @example((2, (((1, Fraction(1, 2)), Fraction(3, 2)), ((0, 1), 4))), None)
    def test_contains(self, case, data):
        """Integer and rational points on, inside and outside a face, at
        factors 1, 2 and 3/2.  Pinned: the integer point (1, 1) on the face
        x + y/2 = 3/2."""
        rank, cons = case
        # unit normals make every drawn body bounded
        cons += tuple((tuple(int(i == j) for i in range(rank)), 9) for j in range(rank))
        V = SymmetricPolytope(rank, cons)
        if data is None:
            m, x, eps = (1, 1), (Fraction(1), Fraction(1)), Fraction(1)
        else:
            m = data.draw(st.tuples(*[st.integers(-6, 6)] * rank))
            x = data.draw(st.tuples(*[_normal_coords] * rank))
            eps = data.draw(st.fractions(min_value=Fraction(1, 100), max_value=1))
        points = [m, x]
        for u, b in V.constraints:
            # x moved along u onto the face <u, y> = b, then just inside and outside it
            y = tuple(c + (b - dot(u, x)) / dot(u, u) * uc for c, uc in zip(x, u))
            points += [y, tuple(c - eps * uc for c, uc in zip(y, u)), tuple(c + eps * uc for c, uc in zip(y, u))]
        for pt in points:
            assert V.contains(pt) == reference_contains_scaled(V, pt)
            for factor in (1, 2, Fraction(3, 2)):
                assert V.contains_scaled(pt, factor) == reference_contains_scaled(V, pt, factor)

    @given(gaps())
    def test_image_table(self, P):
        count = vol(P)
        assert _image_table(P, count) == reference_image_table(P, count)
        for f in (_image_table, reference_image_table):
            with pytest.raises(EnumerationCapExceeded):
                f(P, count - 1)

    def test_one_cap_message(self):
        """Both enumerators raise on the full box count, the rank-0 box of
        one point included."""
        with pytest.raises(EnumerationCapExceeded, match="^lattice box size 4004001 exceeds cap 100$"):
            lattice_points(box_body([1000, 1000]), enum_cap=100)
        with pytest.raises(EnumerationCapExceeded, match="^progression box size 4004001 exceeds cap 100$"):
            size(gap_1d((1000, 1000), (1, 10**7)), enum_cap=100)
        with pytest.raises(EnumerationCapExceeded, match="^lattice box size 1 exceeds cap 0$"):
            lattice_points(SymmetricPolytope(0, ()), enum_cap=0)
        assert lattice_points(SymmetricPolytope(0, ()), enum_cap=1) == [()]

    def test_vertex_enumeration_is_capped(self, monkeypatch):
        """C(k, rank) * 2^(rank - 1) vertex solves are checked against the
        enumeration cap before the first one."""
        monkeypatch.setattr(gap, "DEFAULT_ENUM_CAP", 100)
        with pytest.raises(EnumerationCapExceeded, match="110 solves"):
            SymmetricPolytope(2, tuple(((1, i), 5) for i in range(11)))
        assert SymmetricPolytope(2, tuple(((1, i), 5) for i in range(10))).bounding_box
