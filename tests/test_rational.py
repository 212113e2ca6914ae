"""Exact-arithmetic helpers: coercion, square-root comparisons, lattice algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lostructure.rational import (
    coerce_real,
    common_grid,
    dot,
    floor_ratio_sqrt,
    format_fraction,
    hnf_basis,
    lattice_coefficients,
    le_sqrt,
    lt_sqrt,
    max_norm,
    norm_sq,
    rank_over_q,
    reduce_basis,
    solve_square,
    sqrt_le,
    to_fraction,
    to_vec,
)


class TestCoercion:
    def test_int_and_fraction_pass_through(self):
        assert to_fraction(3) == Fraction(3)
        x = Fraction(2, 5)
        assert to_fraction(x) is x

    def test_string_ratio(self):
        assert to_fraction("3/7") == Fraction(3, 7)
        assert to_fraction("  9/12 ") == Fraction(3, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            to_fraction(0.5)

    def test_coerce_real_admits_floats_exactly(self):
        assert coerce_real(0.5) == Fraction(1, 2)
        # exact binary value, not the decimal it prints as
        assert coerce_real(0.1) == Fraction(0.1)
        assert coerce_real(0.1) != Fraction(1, 10)
        assert coerce_real(7) == Fraction(7)

    def test_coerce_real_rejects_non_finite(self):
        with pytest.raises(ValueError):
            coerce_real(float("nan"))
        with pytest.raises(ValueError):
            coerce_real(float("inf"))

    def test_format_fraction(self):
        assert format_fraction(Fraction(3)) == "3"
        assert format_fraction(Fraction(-3, 7)) == "-3/7"

    def test_to_vec(self):
        assert to_vec(2) == (Fraction(2),)
        assert to_vec((1, "1/2")) == (Fraction(1), Fraction(1, 2))
        with pytest.raises(ValueError):
            to_vec((1, 2), dim=3)


class TestNorms:
    def test_max_norm(self):
        assert max_norm((Fraction(-3), Fraction(2))) == 3
        assert max_norm(Fraction(-5)) == 5
        assert max_norm(()) == 0

    def test_norm_sq(self):
        assert norm_sq((Fraction(1), Fraction(2))) == 5
        assert norm_sq(Fraction(3)) == 9

    def test_dot_strict_lengths(self):
        assert dot((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))) == 11
        with pytest.raises(ValueError):
            dot((Fraction(1),), (Fraction(1), Fraction(2)))


class TestSqrtComparisons:
    def test_le_sqrt_boundary_exact(self):
        assert le_sqrt(Fraction(3), Fraction(9))
        assert not le_sqrt(Fraction(3), Fraction(8))
        assert le_sqrt(Fraction(-1), Fraction(0))

    def test_lt_sqrt(self):
        assert not lt_sqrt(Fraction(3), Fraction(9))
        assert lt_sqrt(Fraction(3), Fraction(10))
        assert lt_sqrt(Fraction(-1), Fraction(0))

    def test_sqrt_le(self):
        assert sqrt_le(Fraction(9), Fraction(3))
        assert not sqrt_le(Fraction(10), Fraction(3))
        assert sqrt_le(Fraction(0), Fraction(0))
        assert not sqrt_le(Fraction(1), Fraction(-1))

    def test_floor_ratio_sqrt_values(self):
        assert floor_ratio_sqrt(Fraction(10), Fraction(4)) == 5
        assert floor_ratio_sqrt(Fraction(10), Fraction(3)) == 5
        assert floor_ratio_sqrt(Fraction(1), Fraction(2)) == 0
        assert floor_ratio_sqrt(Fraction(2), Fraction(4)) == 1
        assert floor_ratio_sqrt(Fraction(6), Fraction(9)) == 2
        assert floor_ratio_sqrt(Fraction(0), Fraction(7)) == 0

    def test_floor_ratio_sqrt_domain(self):
        with pytest.raises(ValueError):
            floor_ratio_sqrt(Fraction(-1), Fraction(2))
        with pytest.raises(ValueError):
            floor_ratio_sqrt(Fraction(1), Fraction(0))

    @given(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_floor_ratio_sqrt_is_exact(self, an, bn, ad, bd):
        a, b = Fraction(an, ad), Fraction(bn, bd)
        k = floor_ratio_sqrt(a, b)
        # k <= a/sqrt(b) < k+1, squared to stay rational
        assert Fraction(k) ** 2 * b <= a * a
        assert Fraction(k + 1) ** 2 * b > a * a


class TestLinearAlgebra:
    def test_rank(self):
        one = Fraction(1)
        assert rank_over_q([[one, 2 * one], [2 * one, 4 * one]]) == 1
        assert rank_over_q([[one, 0 * one], [0 * one, one]]) == 2
        assert rank_over_q([]) == 0
        assert rank_over_q([[0 * one, 0 * one]]) == 0

    def test_solve_square(self):
        sol = solve_square([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]], [Fraction(1), Fraction(2)])
        assert sol == (Fraction(1, 2), Fraction(1, 2))
        assert solve_square([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [Fraction(0), Fraction(1)]) is None

    def test_hnf_gcd_in_rank_one(self):
        assert hnf_basis([(4,), (6,)], 1) == [(2,)]
        assert hnf_basis([(0, 0)], 2) == []

    def test_hnf_generates_same_lattice(self):
        gens = [(2, 0), (0, 3), (1, 1)]
        basis = hnf_basis(gens, 2)
        assert len(basis) == 2
        for g in gens:
            assert lattice_coefficients(basis, g) is not None
        # this particular set generates all of Z^2
        assert lattice_coefficients(basis, (1, 0)) is not None
        assert lattice_coefficients(basis, (0, 1)) is not None

    def test_reduce_basis_shortens(self):
        assert reduce_basis([(5, 3), (2, 1)]) == [(-1, 0), (0, 1)]

    def test_reduce_basis_preserves_lattice(self):
        original = [(7, 2), (3, 1)]
        reduced = reduce_basis(original)
        for v in original:
            assert lattice_coefficients(reduced, v) is not None
        for v in reduced:
            assert lattice_coefficients(original, v) is not None

    def test_lattice_coefficients(self):
        assert lattice_coefficients([(2, 0), (0, 3)], (4, 3)) == (2, 1)
        assert lattice_coefficients([(2, 0), (0, 3)], (1, 0)) is None
        assert lattice_coefficients([], (0, 0)) == ()
        assert lattice_coefficients([], (1,)) is None
        # target outside the span is refused even if the Gram system solves
        assert lattice_coefficients([(1, 0)], (0, 1)) is None


class TestCommonGrid:
    @given(st.lists(st.fractions(max_denominator=60), max_size=8))
    def test_integers_on_the_lcm_grid(self, xs):
        G, ints = common_grid(xs)
        assert G == math.lcm(*(x.denominator for x in xs))
        assert [Fraction(k, G) for k in ints] == xs

    def test_empty_and_integers(self):
        assert common_grid([]) == (1, [])
        assert common_grid([Fraction(-3), 4]) == (1, [-3, 4])
        assert common_grid(iter([Fraction(1, 6), Fraction(-3, 4)])) == (12, [2, -9])
