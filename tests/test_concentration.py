"""Window concentration: exact sweeps, the regularity law, upper bounds,
and the reduction pairs feeding the ratio-stability suite."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lostructure.concentration import (
    MODE_EXACT,
    MODE_MC,
    ConcentrationResult,
    conc_ball_mc,
    conc_interval,
    conc_zero,
    empirical_window_max,
    esseen_upper,
    reduction_pair,
    regularity_factor,
    zero_tau_pair,
)
from lostructure.distributions import (
    CompoundPoissonSpec,
    from_scalar_atoms,
    point_mass,
    rademacher,
    uniform_on,
    weighted_sum_law,
    weights_1d,
)


def three_atom_law():
    return from_scalar_atoms(
        [(0, Fraction(1, 2)), (Fraction(2, 5), Fraction(1, 5)), (1, Fraction(3, 10))]
    )


class TestConcZero:
    def test_binomial_center(self):
        law = weighted_sum_law(rademacher(), weights_1d([1, 1, 1, 1]))
        res = conc_zero(law)
        assert res.value == Fraction(6, 16)
        assert res.witness == (Fraction(0),)
        assert res.mode == MODE_EXACT

    def test_point_mass(self):
        res = conc_zero(point_mass(7))
        assert res.value == 1
        assert res.witness == (Fraction(7),)

    def test_uniform(self):
        res = conc_zero(uniform_on(range(10)))
        assert res.value == Fraction(1, 10)
        assert res.witness == (Fraction(0),)  # smallest maximizing atom


class TestConcInterval:
    def test_window_captures_two_atoms(self):
        res = conc_interval(three_atom_law(), Fraction(1, 2))
        assert res.value == Fraction(7, 10)
        assert res.witness == (Fraction(1, 4),)

    def test_window_covering_support(self):
        assert conc_interval(three_atom_law(), 1).value == 1

    def test_zero_window_matches_conc_zero(self):
        F = three_atom_law()
        assert conc_interval(F, 0).value == conc_zero(F).value

    def test_smallest_center_tie_break(self):
        F = uniform_on([0, 1])
        assert conc_interval(F, 0).witness == (Fraction(0),)
        assert conc_interval(F, 1).witness == (Fraction(1, 2),)

    def test_validation(self):
        with pytest.raises(ValueError):
            conc_interval(three_atom_law(), -1)
        with pytest.raises(ValueError):
            conc_interval(uniform_on([(0, 0), (1, 1)]), 1)


class TestMonteCarlo:
    def test_empirical_window_max(self):
        frac, center = empirical_window_max(np.array([0.0, 1.0, 2.0, 3.0]), 1.0)
        assert frac == 0.5
        assert center == 0.5

    def test_point_mass_sampler(self):
        res = conc_ball_mc(lambda c, s: np.zeros(c), 1, 0.5, 2000, seed=1)
        assert res.value == 1.0
        assert res.mode == MODE_MC

    def test_two_dim_point_mass(self):
        res = conc_ball_mc(lambda c, s: np.zeros((c, 2)), 2, 0.5, 2000, seed=1)
        assert res.value == 1.0
        assert len(res.witness) == 2

    def test_count_floor(self):
        with pytest.raises(ValueError):
            conc_ball_mc(lambda c, s: np.zeros(c), 1, 0.5, 999, seed=1)

    def test_deterministic(self):
        def sampler(count, seed):
            rng = np.random.default_rng(seed)
            return rng.integers(0, 5, count).astype(float)

        a = conc_ball_mc(sampler, 1, 1.0, 5000, seed=2)
        b = conc_ball_mc(sampler, 1, 1.0, 5000, seed=2)
        assert a.value == b.value and a.ci_halfwidth == b.ci_halfwidth

    def test_tracks_exact_value_on_discrete_law(self):
        F = three_atom_law()
        vals = np.array([0.0, 0.4, 1.0])
        probs = np.array([0.5, 0.2, 0.3])

        def sampler(count, seed):
            rng = np.random.default_rng(seed)
            return rng.choice(vals, size=count, p=probs)

        res = conc_ball_mc(sampler, 1, 0.5, 10**4, seed=5)
        exact = float(conc_interval(F, Fraction(1, 2)).value)
        assert abs(res.value - exact) <= max(res.ci_halfwidth, 0.02)


class TestRegularity:
    def test_uniform_four_point(self):
        lhs, rhs = regularity_factor(uniform_on([0, 1, 2, 3]), 2, 1)
        assert lhs == Fraction(3, 4)
        assert rhs == Fraction(3, 2)

    def test_equal_windows_factor_two(self):
        F = three_atom_law()
        lhs, rhs = regularity_factor(F, 1, 1)
        assert rhs == 2 * conc_interval(F, 1).value
        assert lhs <= rhs

    def test_degenerate_pair(self):
        F = three_atom_law()
        q = conc_zero(F).value
        assert regularity_factor(F, 0, 0) == (q, q)

    def test_validation(self):
        with pytest.raises(ValueError):
            regularity_factor(three_atom_law(), 1, 0)
        with pytest.raises(ValueError):
            regularity_factor(three_atom_law(), -1, 1)


class TestEsseenUpper:
    def test_constant_char_fn(self):
        # integral of 1 over [-1/tau, 1/tau] times tau is 2 for any tau
        assert abs(esseen_upper(lambda t: 1.0 + 0j, 0.5) - 2.0) < 1e-8
        assert abs(esseen_upper(lambda t: 1.0 + 0j, 2.0) - 2.0) < 1e-8
        assert abs(esseen_upper(lambda t: 1.0 + 0j, 0.5, constant=3.0) - 6.0) < 1e-7

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            esseen_upper(lambda t: 1.0, 0)

    def test_compound_poisson_decay_rate(self):
        # the bound scales like lam**-0.5: doubling sqrt(lam) halves it
        vals = {}
        for lam in (4.0, 16.0, 64.0):
            spec = CompoundPoissonSpec(weights_1d([1]), lam)
            vals[lam] = esseen_upper(lambda u: spec.char_fn([u]), 1.0)
        assert abs(vals[4.0] / vals[16.0] - 2.0) < 0.4
        assert abs(vals[16.0] / vals[64.0] - 2.0) < 0.4

    def test_dominates_exact_concentration(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = rng.integers(2, 5)
            vals = sorted(rng.choice(np.arange(-6, 7), size=k, replace=False).tolist())
            masses = rng.integers(1, 6, size=k)
            F = from_scalar_atoms(
                [(int(v), Fraction(int(m), int(masses.sum()))) for v, m in zip(vals, masses)]
            )
            tau = Fraction(rng.integers(1, 4))
            exact = float(conc_interval(F, tau).value)
            bound = esseen_upper(lambda t: complex(F.char_fn()(t)), float(tau))
            assert bound >= exact - 1e-9


class TestReductionPairs:
    def test_small_instance_fields(self):
        pair = reduction_pair(rademacher(), weights_1d([1, 1, 1, 1]), tau=1, kappa=2, mc_samples=10**4)
        assert pair.lhs.value == Fraction(6, 16)
        assert pair.p_val == Fraction(1, 2)
        assert pair.factor == 1
        assert 0 < pair.rhs_mc <= 1
        assert 0 < pair.rhs_esseen <= 1
        assert pair.ratio == pytest.approx(float(pair.lhs.value) / pair.rhs_mc)

    def test_delta_refinement_factor(self):
        pair = reduction_pair(
            rademacher(), weights_1d([1, 1]), tau=1, kappa=2, delta=1, mc_samples=10**4
        )
        assert pair.factor == 3  # 1 + floor(kappa/delta)

    def test_degenerate_tail(self):
        # tau/kappa = 2 exceeds every symmetrized atom: p = 0
        pair = reduction_pair(rademacher(), weights_1d([1, 1]), tau=4, kappa=2)
        assert pair.p_val == 0
        assert pair.rhs_mc == 1.0 and pair.rhs_esseen == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            reduction_pair(rademacher(), weights_1d([1]), tau=-1, kappa=1)
        with pytest.raises(ValueError):
            reduction_pair(rademacher(), weights_1d([1]), tau=0, kappa=0)
        with pytest.raises(ValueError):
            reduction_pair(rademacher(), weights_1d([1]), tau=1, kappa=2, delta=0)

    def test_zero_tau_pair_single_weight(self):
        lhs, rhs = zero_tau_pair(rademacher(), weights_1d([1]))
        assert lhs == Fraction(1, 2)
        # symmetrized tail 1/2 splits into sign rates 1/8
        want = float(mpmath.exp(-0.25) * mpmath.besseli(0, 0.25))
        assert abs(rhs - want) < 1e-9
        assert float(lhs) <= rhs

    def test_zero_tau_pair_four_weights(self):
        lhs, rhs = zero_tau_pair(rademacher(), weights_1d([1, 1, 1, 1]))
        assert lhs == Fraction(6, 16)
        want = float(mpmath.exp(-1) * mpmath.besseli(0, 1))
        assert abs(rhs - want) < 1e-9
        assert float(lhs) <= rhs


class TestConcentrationResult:
    def test_value_range(self):
        with pytest.raises(ValueError):
            ConcentrationResult(Fraction(0), MODE_EXACT)
        with pytest.raises(ValueError):
            ConcentrationResult(Fraction(3, 2), MODE_EXACT)

    def test_json(self):
        d = conc_zero(point_mass(Fraction(1, 3))).to_json_dict()
        assert d == {"value": "1", "mode": "exact", "witness": ["1/3"], "ci_halfwidth": None}


def fraction_conc_interval(F, tau):
    """Oracle: the window sweep in Fraction arithmetic, (mass, center)."""
    pairs = F.scalar_atoms()
    values = [v for v, _ in pairs]
    prefix = [Fraction(0)]
    for _, m in pairs:
        prefix.append(prefix[-1] + m)
    best_mass, best_center = Fraction(0), None
    j = 0
    for i, v in enumerate(values):
        hi = v + tau
        if j < i:
            j = i
        while j + 1 < len(values) and values[j + 1] <= hi:
            j += 1
        mass = prefix[j + 1] - prefix[i]
        if mass > best_mass:
            best_mass, best_center = mass, v + tau / 2
    return best_mass, (best_center,)


@st.composite
def mixed_grid_laws(draw):
    """Distinct values with denominators 1..6 and masses with mixed
    denominators; equal weights on equally spaced values make ties."""
    values = draw(
        st.lists(st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6])), min_size=1, max_size=9, unique=True)
    )
    if draw(st.booleans()):
        return uniform_on(values)
    raw = draw(
        st.lists(
            st.builds(Fraction, st.integers(1, 9), st.sampled_from([1, 2, 5, 7])), min_size=len(values), max_size=len(values)
        )
    )
    total = sum(raw)
    return from_scalar_atoms([(v, m / total) for v, m in zip(values, raw)])


class TestConcIntervalOracle:
    # tau on and off the law's grid (denominators 5, 7, 11), and zero
    @given(
        mixed_grid_laws(),
        st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2, 5), Fraction(3, 7), Fraction(13, 11), Fraction(4)]),
    )
    @example(point_mass(Fraction(3, 7)), Fraction(2, 5))
    @example(uniform_on([0, 1, 2, 3]), Fraction(1))
    @example(uniform_on([Fraction(1, 4), Fraction(2, 3), Fraction(3, 2)]), Fraction(2, 5))
    @example(uniform_on([Fraction(-1, 3), Fraction(1, 2), Fraction(4, 3)]), Fraction(5, 6))
    @example(from_scalar_atoms([(0, Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 6)), (1, Fraction(1, 2))]), Fraction(1, 2))
    @example(from_scalar_atoms([(0, Fraction(1, 3)), (Fraction(2, 5), Fraction(1, 6)), (1, Fraction(1, 2))]), Fraction(3, 5))
    def test_matches_fraction_sweep(self, F, tau):
        res = conc_interval(F, tau)
        assert (res.value, res.witness) == fraction_conc_interval(F, tau)
        assert isinstance(res.value, Fraction) and isinstance(res.witness[0], Fraction)

    def test_tied_windows_pick_smallest_center(self):
        # windows [0, 1], [1, 2] and [2, 3] all hold 2/4
        res = conc_interval(uniform_on([0, 1, 2, 3]), 1)
        assert (res.value, res.witness) == (Fraction(1, 2), (Fraction(1, 2),))

    def test_window_edge_is_closed_off_grid(self):
        # atoms at 0 and 3/7 are exactly tau = 3/7 apart
        F = from_scalar_atoms([(0, Fraction(1, 3)), (Fraction(3, 7), Fraction(1, 3)), (1, Fraction(1, 3))])
        assert conc_interval(F, Fraction(3, 7)).value == Fraction(2, 3)
        assert conc_interval(F, Fraction(2, 7)).value == Fraction(1, 3)
        # 1/4 and 2/3 are 5/12 apart, just over tau = 2/5 = 4.8/12
        F = uniform_on([Fraction(1, 4), Fraction(2, 3)])
        assert conc_interval(F, Fraction(2, 5)).value == Fraction(1, 2)
        assert conc_interval(F, Fraction(5, 12)).value == 1
        # tau's denominator 7 shares nothing with the values' grid 1/3
        assert conc_interval(uniform_on([0, Fraction(1, 3)]), Fraction(3, 7)).value == 1
