"""Discrete laws, weight vectors, and the compound-Poisson family.

Reference values for the Poisson-difference mass at zero come from the
closed form exp(-2*mu) * I0(2*mu), evaluated independently with mpmath.
"""

import json
import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lostructure import distributions
from lostructure.distributions import (
    AtomicMeasure,
    CompoundPoissonSpec,
    DiscreteDistribution,
    WeightVector,
    char_fn_H,
    from_scalar_atoms,
    h_point_mass_zero,
    levy_measure_plain,
    levy_measure_star,
    point_mass,
    rademacher,
    sample_H_lambda,
    symmetrize,
    tail_mass,
    uniform_on,
    weighted_sum_law,
    weights_1d,
)
from lostructure.errors import AtomCapExceeded
from strategies import repeated_weight_vectors, vectors


def skellam_pmf(j: int, mu: float) -> float:
    """P(N1 - N2 = j) for independent Poisson(mu) counts."""
    return float(mpmath.exp(-2 * mu) * mpmath.besseli(abs(j), 2 * mu))


def skellam_zero(mu: float) -> float:
    return skellam_pmf(0, mu)


class TestDiscreteDistribution:
    def test_rademacher(self):
        F = rademacher()
        assert F.support_size == 2
        assert F.mass_at(1) == Fraction(1, 2)
        assert F.mass_at(-1) == Fraction(1, 2)
        assert F.is_symmetric()

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            from_scalar_atoms([(0, Fraction(1, 2))])

    def test_duplicate_atom_rejected(self):
        with pytest.raises(ValueError):
            from_scalar_atoms([(1, Fraction(1, 2)), (1, Fraction(1, 2))])

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            from_scalar_atoms([(0, Fraction(0)), (1, Fraction(1))])

    def test_marginal(self):
        F = uniform_on([(0, 0), (0, 1), (1, 1), (1, 2)])
        m0 = F.marginal(0)
        assert m0.mass_at(0) == Fraction(1, 2)
        assert m0.mass_at(1) == Fraction(1, 2)
        m1 = F.marginal(1)
        assert m1.mass_at(1) == Fraction(1, 2)

    def test_char_fn_is_cosine_for_rademacher(self):
        phi = rademacher().char_fn()
        for t in (0.0, 0.3, 2.0):
            assert abs(phi(t) - math.cos(t)) < 1e-12

    def test_json_round_trip(self):
        F = uniform_on([0, 1, 2])
        assert DiscreteDistribution.from_json_dict(F.to_json_dict()) == F


class TestWeightVector:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            weights_1d([0, 0])

    def test_single_zero_entry_allowed(self):
        a = weights_1d([0, 1])
        assert a.n == 2

    def test_norm_sq(self):
        assert weights_1d([1, 2, 3]).norm_sq == 14

    def test_scale(self):
        a = weights_1d([1, 2]).scale(Fraction(1, 2))
        assert a.scalar_entries() == [Fraction(1, 2), Fraction(1)]
        with pytest.raises(ValueError):
            weights_1d([1]).scale(0)

    def test_coordinate_projection(self):
        a = WeightVector(2, ((1, 5), (2, 0)))
        assert a.coordinate(1).scalar_entries() == [Fraction(5), Fraction(0)]
        assert not a.coordinate_is_zero(0)
        assert not a.coordinate_is_zero(1)

    def test_coordinate_is_zero(self):
        a = WeightVector(2, ((1, 0), (-2, 0), (1, 0)))
        assert a.coordinate_is_zero(1)
        assert not a.coordinate_is_zero(0)

    def test_json_round_trip(self):
        a = WeightVector(2, ((Fraction(1, 3), 2), (0, -1)))
        assert WeightVector.from_json_dict(a.to_json_dict()) == a


class TestSymmetrization:
    def test_rademacher(self):
        G = symmetrize(rademacher())
        assert G.mass_at(-2) == Fraction(1, 4)
        assert G.mass_at(0) == Fraction(1, 2)
        assert G.mass_at(2) == Fraction(1, 4)

    def test_uniform_three_point(self):
        G = symmetrize(uniform_on([0, 1, 2]))
        expected = {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}
        for v, num in expected.items():
            assert G.mass_at(v) == Fraction(num, 9)

    def test_point_mass_degenerates(self):
        G = symmetrize(point_mass(5))
        assert G == point_mass(0)

    def test_tail_mass_strict(self):
        G = symmetrize(rademacher())
        assert tail_mass(G, 1) == Fraction(1, 2)
        assert tail_mass(G, 2) == 0  # boundary atoms excluded
        assert tail_mass(G, 0) == Fraction(1, 2)

    def test_tail_mass_warns_on_asymmetric_input(self):
        with pytest.warns(UserWarning):
            tail_mass(uniform_on([0, 1]), 0)

    def test_tail_mass_negative_delta(self):
        with pytest.raises(ValueError):
            tail_mass(symmetrize(rademacher()), -1)


class TestWeightedSumLaw:
    def test_two_equal_weights(self):
        law = weighted_sum_law(rademacher(), weights_1d([1, 1]))
        assert law.support_size == 3
        assert law.mass_at(0) == Fraction(1, 2)
        assert law.mass_at(2) == Fraction(1, 4)

    def test_two_distinct_weights(self):
        law = weighted_sum_law(rademacher(), weights_1d([1, 2]))
        assert law.support_size == 4
        for v in (-3, -1, 1, 3):
            assert law.mass_at(v) == Fraction(1, 4)

    def test_vector_weights(self):
        law = weighted_sum_law(rademacher(), WeightVector(2, ((1, 0), (0, 1))))
        assert law.dim == 2
        assert law.mass_at((1, 1)) == Fraction(1, 4)

    def test_atom_cap(self):
        with pytest.raises(AtomCapExceeded):
            weighted_sum_law(rademacher(), weights_1d([1, 2, 4, 8]), atom_cap=7)

    def test_requires_scalar_summand(self):
        F2 = uniform_on([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            weighted_sum_law(F2, weights_1d([1]))

    def test_cap_raises_before_the_product_is_built(self):
        # 2^40 atoms in full; the cap must stop the growth, not the result
        start = time.perf_counter()
        with pytest.raises(AtomCapExceeded):
            weighted_sum_law(rademacher(), weights_1d([2**k for k in range(40)]), atom_cap=10**4)
        assert time.perf_counter() - start < 1.0

    def test_cap_stops_a_product_of_two_large_laws(self):
        # two 3,000-atom laws whose product has 9e6 distinct atoms
        F = uniform_on(range(3000))
        start = time.perf_counter()
        with pytest.raises(AtomCapExceeded):
            weighted_sum_law(F, weights_1d([1, 3000]), atom_cap=6000)
        assert time.perf_counter() - start < 1.0


def iterated_convolution_law(F, a, atom_cap=10**6):
    """Oracle: the direct form of weighted_sum_law, one Fraction
    convolution per entry."""
    if F.dim != 1:
        raise ValueError("summand law must be one-dimensional")
    scalars = F.scalar_atoms()
    acc = {(Fraction(0),) * a.dim: Fraction(1)}
    for e in a.entries:
        nxt = {}
        for v, m in acc.items():
            for x, mx in scalars:
                key = tuple(c + x * ec for c, ec in zip(v, e))
                prev = nxt.get(key)
                nxt[key] = m * mx if prev is None else prev + m * mx
        if len(nxt) > atom_cap:
            raise AtomCapExceeded(f"support grew to {len(nxt)} atoms (cap {atom_cap})")
        acc = nxt
    return DiscreteDistribution(a.dim, tuple(acc.items()))


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5]))


@st.composite
def summand_laws(draw):
    values = draw(st.lists(small_fractions, min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    return from_scalar_atoms([(v, Fraction(w, sum(weights))) for v, w in zip(values, weights)])


@st.composite
def weight_vectors(draw):
    dim = draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(st.tuples(*[small_fractions] * dim), min_size=1, max_size=3))
    entries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=7))
    if all(all(c == 0 for c in e) for e in entries):
        entries.append((Fraction(1),) * dim)
    return WeightVector(dim, tuple(entries))


def law_or_cap(fn, F, a, cap):
    try:
        return fn(F, a, cap)
    except AtomCapExceeded:
        return "cap"


class TestWeightedSumLawOracle:
    @given(summand_laws(), weight_vectors(), st.one_of(st.just(10**6), st.integers(1, 80)))
    @example(uniform_on([0, 1, 3]), weights_1d([2, -1, 0, 2, 2, Fraction(1, 3)]), 10**6)
    @example(rademacher(), WeightVector(2, ((1, 0), (0, -1), (1, 0), (0, 0), (1, 1))), 10**6)
    @example(rademacher(), weights_1d([1, 2, 4, 8]), 15)
    @example(rademacher(), weights_1d([1, 2, 4, 8]), 16)
    def test_matches_iterated_convolution(self, F, a, cap):
        assert law_or_cap(weighted_sum_law, F, a, cap) == law_or_cap(iterated_convolution_law, F, a, cap)


# An asymmetric law with mixed denominators that holds both +-3/2, so the
# sum of same-sign entries reaches +-B, the packing bound, on every coordinate.
EXTREMES = from_scalar_atoms(
    [(Fraction(-3, 2), Fraction(1, 6)), (Fraction(1, 3), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 3))]
)


class TestPackedKeysAtTheRadixBound:
    @pytest.mark.parametrize(
        "a, corner",
        [
            (WeightVector(3, ((1, 2, 3), (3, 2, 1), (1, 2, 3), (2, 2, 2), (3, 2, 1))), 15),
            (WeightVector(2, ((-1, -2), (Fraction(-3, 2), Fraction(-3, 2)), (-2, -1))), Fraction(27, 4)),
        ],
    )
    def test_matches_oracle_and_public_constructor(self, a, corner):
        got = weighted_sum_law(EXTREMES, a)
        assert got.atoms[0][0] == (-corner,) * a.dim
        assert got.atoms[-1][0] == (corner,) * a.dim
        assert got == iterated_convolution_law(EXTREMES, a)
        public = DiscreteDistribution(a.dim, got.atoms)
        assert got == public and repr(got) == repr(public)
        assert json.dumps(got.to_json_dict()) == json.dumps(public.to_json_dict())


class TestJumpMeasures:
    def test_star_pools_signs(self):
        M = levy_measure_star(weights_1d([1, 1, 1]))
        assert M.total == 6
        assert dict(M.scalar_atoms()) == {Fraction(1): Fraction(3), Fraction(-1): Fraction(3)}

    def test_star_zero_entry(self):
        M = levy_measure_star(weights_1d([0, 1]))
        assert M.total == 4
        assert dict(M.scalar_atoms()) == {
            Fraction(0): Fraction(2),
            Fraction(1): Fraction(1),
            Fraction(-1): Fraction(1),
        }

    def test_star_single_entry(self):
        M = levy_measure_star(weights_1d([2]))
        assert dict(M.scalar_atoms()) == {Fraction(2): Fraction(1), Fraction(-2): Fraction(1)}

    def test_plain_measure(self):
        M = levy_measure_plain(weights_1d([1, 1, -1]))
        assert M.total == 3
        assert dict(M.scalar_atoms()) == {Fraction(1): Fraction(2), Fraction(-1): Fraction(1)}

    def test_json_round_trip(self):
        M = levy_measure_star(weights_1d([1, 2]))
        assert AtomicMeasure.from_json_dict(M.to_json_dict()) == M


class TestCompoundPoisson:
    def test_char_fn_at_zero(self):
        assert char_fn_H(weights_1d([1, 2, 3]), [0], 7.0) == 1.0

    def test_char_fn_single_weight(self):
        # exp(-lam/2 * (1 - cos(pi))) = exp(-lam)
        val = char_fn_H(weights_1d([1]), [math.pi], 1.0)
        assert abs(val - math.exp(-1.0)) < 1e-12

    def test_char_fn_lam_zero(self):
        assert char_fn_H(weights_1d([5]), [0.37], 0.0) == 1.0

    def test_char_fn_range(self):
        a = weights_1d([1, 3])
        for t in np.linspace(-5, 5, 17):
            v = char_fn_H(a, [float(t)], 2.0)
            assert 0 < v <= 1

    def test_char_fn_validation(self):
        with pytest.raises(ValueError):
            char_fn_H(weights_1d([1]), [0], -1.0)
        with pytest.raises(ValueError):
            char_fn_H(weights_1d([1]), [0, 0], 1.0)

    def test_spec_alpha(self):
        spec = CompoundPoissonSpec(weights_1d([1, 2, 3]), 4.0)
        assert spec.alpha == 6.0

    def test_normalized_jump_law(self):
        spec = CompoundPoissonSpec(weights_1d([1, 1]), 1.0)
        W = spec.normalized_jump_law()
        assert W.mass_at(1) == Fraction(1, 2)
        assert W.is_symmetric()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(weights_1d([1]), -0.1)

    def test_sampler_lam_zero(self):
        out = sample_H_lambda(CompoundPoissonSpec(weights_1d([1, 2]), 0.0), 1000, 0)
        assert out.shape == (1000,)
        assert not out.any()

    def test_sampler_deterministic(self):
        spec = CompoundPoissonSpec(weights_1d([1, 3]), 2.0)
        x = spec.sample(2000, seed=7)
        y = spec.sample(2000, seed=7)
        assert np.array_equal(x, y)
        assert not np.array_equal(x, spec.sample(2000, seed=8))

    def test_sampler_shapes(self):
        with pytest.raises(ValueError):
            sample_H_lambda(CompoundPoissonSpec(weights_1d([1]), 1.0), 0, 0)
        spec2 = CompoundPoissonSpec(WeightVector(2, ((1, 0), (0, 1))), 1.0)
        assert spec2.sample(1500, 0).shape == (1500, 2)

    def test_sampler_zero_fraction_matches_closed_form(self):
        # single unit weight at lam=4: each sign has rate 1
        spec = CompoundPoissonSpec(weights_1d([1]), 4.0)
        draws = spec.sample(10**5, seed=3)
        frac = float(np.mean(draws == 0))
        target = skellam_zero(1.0)
        se = math.sqrt(target * (1 - target) / 10**5)
        assert abs(frac - target) < 3 * se


class TestPointMassAtZero:
    def test_lam_zero(self):
        assert h_point_mass_zero(weights_1d([1]), 0.0) == 1.0

    def test_single_weight_closed_form(self):
        got = h_point_mass_zero(weights_1d([1]), 4.0)
        assert abs(got - skellam_zero(1.0)) < 1e-9

    def test_two_weight_cross_sum(self):
        # zero total needs the jump-1 count to cancel 3x the jump-3 count
        got = h_point_mass_zero(weights_1d([1, 3]), 2.0)
        want = sum(skellam_pmf(-3 * k, 0.5) * skellam_pmf(k, 0.5) for k in range(-40, 41))
        assert abs(got - want) < 1e-9

    def test_opposite_signs_pool(self):
        same = h_point_mass_zero(weights_1d([1, 1]), 2.0)
        flipped = h_point_mass_zero(weights_1d([1, -1]), 2.0)
        assert same == flipped
        assert abs(same - skellam_zero(1.0)) < 1e-9

    def test_zero_entries_ignored(self):
        assert abs(h_point_mass_zero(weights_1d([0, 5]), 2.0) - h_point_mass_zero(weights_1d([5]), 2.0)) < 1e-15

    def test_cancellation_across_groups(self):
        # jumps of size 1 and 2 can cancel: mass at zero exceeds the
        # independent product of per-group zero masses
        got = h_point_mass_zero(weights_1d([1, 2]), 4.0)
        floor = skellam_zero(1.0) ** 2
        assert got > floor

    def test_cap_raises_before_a_group_product_is_built(self, monkeypatch):
        # about 211 x 211 entries for the second group; the cap is 1,000
        import scipy.stats  # noqa: F401 - keep the import out of the measurement

        monkeypatch.setattr(distributions, "DEFAULT_ATOM_CAP", 1000)
        a = weights_1d([1, 1000, 10**6])
        tracemalloc.start()
        try:
            with pytest.raises(AtomCapExceeded):
                h_point_mass_zero(a, 400.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# ---------------------------------------------------------------------------
# Multiplicity table: the per-entry implementations it replaced, kept as
# oracles, must agree with the versions that walk WeightVector.counts.
# ---------------------------------------------------------------------------


def norm_sq_per_entry(a):
    return sum((sum((c * c for c in e), Fraction(0)) for e in a.entries), Fraction(0))


def levy_measure_star_per_entry(a):
    """Atom measure with unit mass at each of +-a_k; total 2n."""
    acc = {}
    for e in a.entries:
        for v in (e, tuple(-c for c in e)):
            acc[v] = acc.get(v, Fraction(0)) + 1
    return AtomicMeasure(a.dim, tuple(acc.items()))


def levy_measure_plain_per_entry(a):
    """Atom measure with unit mass at each a_k (no reflection); total n."""
    acc = {}
    for e in a.entries:
        acc[e] = acc.get(e, Fraction(0)) + 1
    return AtomicMeasure(a.dim, tuple(acc.items()))


def sample_H_lambda_per_entry(spec, count, seed):
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    a = spec.weight
    out = np.zeros((count, a.dim))
    if spec.lam > 0:
        groups = {}
        for e in a.entries:
            groups[e] = groups.get(e, 0) + 1
        for e, mult in groups.items():  # first-occurrence order: deterministic
            ev = np.array([float(c) for c in e])
            if not ev.any():
                continue
            rate = mult * spec.lam / 4.0
            diff = rng.poisson(rate, count).astype(float) - rng.poisson(rate, count).astype(float)
            out += diff[:, None] * ev[None, :]
    return out[:, 0] if a.dim == 1 else out


_PINNED = WeightVector(2, ((1, 0), (0, 0), (-1, 0), (1, 0), (0, 0), (Fraction(1, 2), -3)))


class TestMultiplicityTable:
    @given(repeated_weight_vectors(), st.sampled_from([0.0, 0.5, 3.0]), st.integers(0, 2**16))
    @example(_PINNED, 2.0, 0)
    def test_matches_per_entry_oracles(self, a, lam, seed):
        """counts against a brute-force count in first-occurrence order, and
        every caller against the per-entry version it replaced; the sampler
        must make the same draws."""
        first = []
        for e in a.entries:
            if e not in first:
                first.append(e)
        assert a.counts == tuple((e, a.entries.count(e)) for e in first)
        assert a.norm_sq == norm_sq_per_entry(a)
        assert levy_measure_star(a) == levy_measure_star_per_entry(a)
        assert levy_measure_plain(a) == levy_measure_plain_per_entry(a)
        spec = CompoundPoissonSpec(a, lam)
        assert np.array_equal(sample_H_lambda(spec, 64, seed), sample_H_lambda_per_entry(spec, 64, seed))

    def test_counts_pinned(self):
        zero = (Fraction(0), Fraction(0))
        assert _PINNED.counts == (
            ((Fraction(1), Fraction(0)), 2),
            (zero, 2),
            ((Fraction(-1), Fraction(0)), 1),
            ((Fraction(1, 2), Fraction(-3)), 1),
        )

    def test_counts_is_derived(self):
        with pytest.raises(TypeError):
            WeightVector(1, ((1,),), counts=(((Fraction(1),), 1),))


# ---------------------------------------------------------------------------
# One convolution kernel: symmetrize and h_point_mass_zero as they were
# before both ran on _convolve, kept as oracles.
# ---------------------------------------------------------------------------


def symmetrize_double_loop(F):
    """Law of X1 - X2 for X1, X2 i.i.d. with law F."""
    acc = {}
    for v1, m1 in F.atoms:
        for v2, m2 in F.atoms:
            key = tuple(c1 - c2 for c1, c2 in zip(v1, v2))
            acc[key] = acc.get(key, Fraction(0)) + m1 * m2
    return DiscreteDistribution(F.dim, tuple(acc.items()))


def h_point_mass_zero_fraction_keys(a, lam):
    """P(H^lam = 0) with one Fraction-keyed loop per pooled group."""
    from scipy.stats import skellam

    cap = distributions.DEFAULT_ATOM_CAP
    if lam == 0:
        return 1.0
    groups = {}
    for e, mult in a.counts:
        if all(c == 0 for c in e):
            continue
        key = min(e, tuple(-c for c in e))
        groups[key] = groups.get(key, 0) + mult
    if not groups:
        return 1.0
    per_group_tol = distributions._H_MASS_TOL / len(groups)
    acc = {(Fraction(0),) * a.dim: 1.0}
    for e, mult in sorted(groups.items()):
        mu = mult * lam / 4.0
        pmf = [(0, float(skellam.pmf(0, mu, mu)))]
        covered = pmf[0][1]
        j = 1
        while covered < 1.0 - per_group_tol:
            pj = float(skellam.pmf(j, mu, mu))
            pmf.append((j, pj))
            pmf.append((-j, pj))
            covered += 2.0 * pj
            j += 1
        nxt = {}
        for v, p in acc.items():
            for k, pk in pmf:
                key = tuple(c + k * ec for c, ec in zip(v, e))
                nxt[key] = nxt.get(key, 0.0) + p * pk
            if len(nxt) > cap:
                raise AtomCapExceeded(f"truncated support grew to {len(nxt)} (cap {cap})")
        acc = nxt
    return acc.get((Fraction(0),) * a.dim, 0.0)


mixed_fractions = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 7]))


@st.composite
def mixed_laws(draw):
    """One-dimensional laws whose values and masses have mixed denominators;
    one atom gives a point mass, equal weights give tied atoms."""
    values = draw(st.lists(mixed_fractions, min_size=1, max_size=6, unique=True))
    weights = st.one_of(st.just(Fraction(1)), st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7))
    ws = draw(st.lists(weights, min_size=len(values), max_size=len(values)))
    return from_scalar_atoms([(v, w / sum(ws)) for v, w in zip(values, ws)])


def h_or_cap(fn, a, lam):
    try:
        return fn(a, lam)
    except AtomCapExceeded:
        return "cap"


class TestOneConvolutionKernel:
    @given(mixed_laws())
    @example(point_mass(Fraction(2, 3)))
    @example(uniform_on([0, 1, 2, Fraction(7, 5)]))
    @example(from_scalar_atoms([(Fraction(-1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(5, 7))]))
    def test_symmetrize_matches_double_loop(self, F):
        got = symmetrize(F)
        assert json.dumps(got.to_json_dict()) == json.dumps(symmetrize_double_loop(F).to_json_dict())

    def test_symmetrize_requires_a_scalar_law(self):
        with pytest.raises(ValueError):
            symmetrize(uniform_on([(0, 0), (1, 1)]))

    @given(
        repeated_weight_vectors(max_values=3, max_mult=3),
        st.sampled_from([0.0, 0.3, 2.0, 12.0]),
        st.one_of(st.just(10**4), st.integers(1, 60)),
    )
    @example(_PINNED, 2.0, 10**4)
    @example(weights_1d([1, -1, 3, 0, Fraction(1, 2)]), 12.0, 10**4)
    @example(weights_1d([1, 1000, 10**6]), 40.0, 1000)
    def test_h_point_mass_zero_matches_fraction_keys(self, a, lam, cap):
        """Bit-identical floats: _convolve adds the same products in the
        same order; the cap raises iff the oracle's does."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "DEFAULT_ATOM_CAP", cap)
            assert h_or_cap(h_point_mass_zero, a, lam) == h_or_cap(h_point_mass_zero_fraction_keys, a, lam)

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf, -math.inf])
    def test_h_point_mass_zero_rejects_lambda(self, lam):
        with pytest.raises(ValueError):
            h_point_mass_zero(weights_1d([1, 2]), lam)


# ---------------------------------------------------------------------------
# JSON round trips.
# ---------------------------------------------------------------------------


def json_round_trip(obj):
    return type(obj).from_json_dict(json.loads(json.dumps(obj.to_json_dict())))


@st.composite
def laws(draw):
    dim = draw(st.sampled_from([1, 2]))
    values = draw(st.lists(vectors(dim), min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return DiscreteDistribution(dim, tuple((v, Fraction(w, sum(weights))) for v, w in zip(values, weights)))


@st.composite
def atomic_measures(draw):
    dim = draw(st.sampled_from([1, 2]))
    values = draw(st.lists(vectors(dim), max_size=6, unique=True))
    masses = st.fractions(min_value=Fraction(1, 8), max_value=10, max_denominator=8)
    return AtomicMeasure(dim, tuple((v, draw(masses)) for v in values))


class TestOneMeasureType:
    def test_law_is_an_atomic_measure(self):
        F = rademacher()
        assert isinstance(F, AtomicMeasure)
        assert F.total == 1
        assert F.scalar_atoms() == [(Fraction(-1), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]

    def test_law_json_is_unchanged(self):
        assert rademacher().to_json_dict() == {"dim": 1, "atoms": [[["-1"], "1/2"], [["1"], "1/2"]]}

    def test_measure_json_has_no_total(self):
        M = levy_measure_star(weights_1d([1, 2]))
        assert set(M.to_json_dict()) == {"dim", "atoms"}

    def test_measure_json_with_total_loads(self):
        d = {"dim": 1, "atoms": [[["-1"], "2"], [["1"], "2"]], "total": "4"}
        assert AtomicMeasure.from_json_dict(d) == levy_measure_star(weights_1d([1, 1]))

    def test_from_json_keeps_the_type(self):
        d = rademacher().to_json_dict()
        assert type(DiscreteDistribution.from_json_dict(d)) is DiscreteDistribution
        assert type(AtomicMeasure.from_json_dict(d)) is AtomicMeasure
        with pytest.raises(ValueError):
            DiscreteDistribution.from_json_dict(levy_measure_star(weights_1d([1])).to_json_dict())

    def test_dim_checked(self):
        with pytest.raises(ValueError):
            AtomicMeasure(0, ())


class TestJsonRoundTrip:
    @given(repeated_weight_vectors(max_mult=5))
    @example(_PINNED)
    def test_weight_vector(self, a):
        d = a.to_json_dict()
        assert set(d) == {"dim", "entries"}
        b = json_round_trip(a)
        assert b == a and hash(b) == hash(a)
        assert b.entries == a.entries and b.counts == a.counts
        # the table takes no part in equality or hashing
        object.__setattr__(b, "counts", ())
        assert b == a and hash(b) == hash(a)
        assert "counts" not in repr(a)

    @given(laws())
    def test_discrete_distribution(self, F):
        assert json_round_trip(F) == F

    @given(atomic_measures())
    def test_atomic_measure(self, W):
        assert json_round_trip(W) == W


# ---------------------------------------------------------------------------
# Validate once, at the boundary: the library's own laws, measures and
# weight vectors take the trusted constructors and must be exactly what the
# validating constructors would make of the same input.
# ---------------------------------------------------------------------------


def assert_identical(got, want):
    assert type(got) is type(want)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert got.to_json_dict() == want.to_json_dict()


def revalidated(M):
    """M rebuilt by its public constructor from its atoms in reverse order."""
    return type(M)(M.dim, tuple(reversed(M.atoms)))


@st.composite
def canonical_measures(draw):
    """(cls, dim, canonical atoms, the same atoms shuffled with int, string
    and Fraction coordinates), dim 1-2, zero values, mixed denominators."""
    cls = draw(st.sampled_from([AtomicMeasure, DiscreteDistribution]))
    dim = draw(st.sampled_from([1, 2]))
    values = draw(st.lists(vectors(dim), min_size=1, max_size=6, unique=True))
    if draw(st.booleans()) and (Fraction(0),) * dim not in values:
        values.append((Fraction(0),) * dim)
    masses = draw(st.lists(st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
                           min_size=len(values), max_size=len(values)))
    if cls is DiscreteDistribution:
        masses = [m / sum(masses) for m in masses]
    canonical = tuple(sorted(zip(values, masses)))
    spelled = [(tuple(int(c) if c.denominator == 1 else str(c) for c in v), str(m)) for v, m in canonical]
    return cls, dim, canonical, tuple(draw(st.permutations(spelled)))


class TestTrustedConstructors:
    @given(canonical_measures())
    def test_measure_paths_agree(self, case):
        cls, dim, canonical, raw = case
        assert_identical(cls._from_canonical(dim, canonical), cls(dim, raw))

    @given(repeated_weight_vectors(max_mult=4))
    @example(_PINNED)
    def test_weight_vector_paths_agree(self, a):
        trusted = WeightVector._from_canonical(a.dim, a.entries, a.counts)
        assert_identical(trusted, WeightVector(a.dim, a.entries))
        assert trusted.counts == a.counts
        for j in range(a.dim):
            if a.coordinate_is_zero(j):
                continue
            got, want = a.coordinate(j), WeightVector(1, tuple((e[j],) for e in a.entries))
            assert_identical(got, want)
            assert got.counts == want.counts

    @given(summand_laws(), weight_vectors())
    @example(rademacher(), _PINNED)
    def test_library_builders_are_canonical(self, F, a):
        """Each builder's output equals its own atoms revalidated, so the
        trusted path hands out sorted atoms with Fraction masses."""
        law = weighted_sum_law(F, a)
        built = [law, symmetrize(F), levy_measure_star(a), levy_measure_plain(a),
                 CompoundPoissonSpec(a, 1.0).normalized_jump_law()]
        built += [law.marginal(j) for j in range(law.dim)]
        for M in built:
            assert_identical(M, revalidated(M))

    def test_hot_paths_skip_revalidation(self, monkeypatch):
        F = uniform_on([0, 1, Fraction(5, 2)])
        a = WeightVector(2, ((1, 0), (Fraction(1, 3), 2), (1, 0), (0, 0), (-1, 2)))
        law = weighted_sum_law(F, a)
        calls = [
            lambda: weighted_sum_law(F, a),
            lambda: symmetrize(F),
            lambda: levy_measure_star(a),
            lambda: law.marginal(1),
            lambda: a.coordinate(0),
            lambda: a.coordinate(1),
        ]
        want = [call() for call in calls]

        def refuse(*args):
            raise AssertionError("re-validated a library-built object")

        with monkeypatch.context() as mp:
            mp.setattr(distributions, "_canonical_atoms", refuse)
            mp.setattr(distributions, "to_vec", refuse)
            for call, w in zip(calls, want):
                assert_identical(call(), w)
            with pytest.raises(AssertionError, match="re-validated"):
                DiscreteDistribution(1, (((0,), 1),))  # the public path still validates
        with pytest.raises(ValueError, match="duplicate"):
            DiscreteDistribution(1, ((0, Fraction(1, 2)), ((0,), Fraction(1, 2))))
        with pytest.raises(ValueError, match="sum to exactly 1"):
            DiscreteDistribution(1, ((0, Fraction(1, 2)), (1, Fraction(1, 3))))

    def test_coordinate_rejects_an_all_zero_projection(self):
        a = WeightVector(2, ((1, 0), (-2, 0), (1, 0)))
        assert a.coordinate(0).counts == (((Fraction(1),), 2), ((Fraction(-2),), 1))
        with pytest.raises(ValueError, match="identically zero"):
            a.coordinate(1)
