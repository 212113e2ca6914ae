"""Exact-arithmetic helpers: coercion, square-root comparisons, lattice algebra."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lostructure.rational import (
    coerce_real,
    common_grid,
    dot,
    floor_ratio_sqrt,
    format_fraction,
    hnf_basis,
    lattice_coefficients,
    max_norm,
    rank_over_q,
    reduce_basis,
    solve_square,
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

    def test_dot_strict_lengths(self):
        assert dot((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))) == 11
        with pytest.raises(ValueError):
            dot((Fraction(1),), (Fraction(1), Fraction(2)))


class TestSqrtComparisons:
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


# ---------------------------------------------------------------------------
# Reference copies: the Fraction eliminations and the Gram-matrix lattice
# test that the fraction-free elimination replaced (oracles).
# ---------------------------------------------------------------------------


def reference_rank_over_q(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(rank + 1, len(mat)):
            if mat[i][col] != 0:
                f = mat[i][col] / pv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def reference_solve_square(rows, rhs):
    n = len(rows)
    mat = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[col])]
    return tuple(mat[i][n] for i in range(n))


def reference_lattice_coefficients(basis, target):
    k = len(basis)
    if k == 0:
        return () if not any(target) else None
    gram = [[Fraction(sum(a * b for a, b in zip(basis[i], basis[j]))) for j in range(k)] for i in range(k)]
    rhs = [Fraction(sum(a * b for a, b in zip(basis[i], target))) for i in range(k)]
    sol = reference_solve_square(gram, rhs)
    if sol is None:
        return None
    if any(c.denominator != 1 for c in sol):
        return None
    coef = tuple(int(c) for c in sol)
    recon = [sum(coef[j] * basis[j][i] for j in range(k)) for i in range(len(target))]
    if list(target) != recon:
        return None
    return coef


small_rats = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(Fraction), st.fractions(-3, 3, max_denominator=5))


@st.composite
def degenerate_matrices(draw, square=False):
    """Up to 4 x 4 rational matrices, some rows zeroed, copied at a scale
    or made a combination of two others, and some columns zeroed, so that
    the elimination must skip columns and meet dependent rows."""
    m = draw(st.integers(0, 4))
    n = m if square else draw(st.integers(1, 4))
    rows = [draw(st.lists(small_rats, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 2))):
        if m == 0:
            break
        i, j, l = (draw(st.integers(0, m - 1)) for _ in range(3))
        a, b = draw(small_rats), draw(small_rats)
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    for c in draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else ():
        for r in rows:
            r[c] = Fraction(0)
    return rows


@st.composite
def lattice_queries(draw):
    """(basis, target) with k <= 3 integer vectors in dimension 1-4: the
    target an integer or half-integer combination, zero, or arbitrary, and
    the basis sometimes made dependent."""
    d, k = draw(st.integers(1, 4)), draw(st.integers(0, 3))
    basis = [draw(st.lists(st.integers(-4, 4), min_size=d, max_size=d)) for _ in range(k)]
    if k >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        basis[0] = [a * x + b * y for x, y in zip(basis[1], basis[-1])]
    kind = draw(st.sampled_from(["integer", "half", "zero", "any"]))
    if kind == "any" or k == 0:
        target = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    else:
        scale = 2 if kind == "half" else 1
        coef = [Fraction(draw(st.integers(-4, 4)), scale) for _ in range(k)] if kind != "zero" else [0] * k
        target = [sum(c * b[i] for c, b in zip(coef, basis)) for i in range(d)]
        assume(all(Fraction(t).denominator == 1 for t in target))
        target = [int(t) for t in target]
    return basis, target


class TestEliminationReference:
    @given(degenerate_matrices())
    def test_rank_matches_reference(self, rows):
        assert rank_over_q(rows) == reference_rank_over_q(rows)

    @given(degenerate_matrices(square=True), st.data())
    def test_solve_matches_reference(self, rows, data):
        """Consistent right-hand sides (A x) and arbitrary ones, on singular
        and on regular systems."""
        n = len(rows)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(small_rats, min_size=n, max_size=n))
            rhs = [sum((a * c for a, c in zip(r, x)), Fraction(0)) for r in rows]
        else:
            rhs = data.draw(st.lists(small_rats, min_size=n, max_size=n))
        assert solve_square(rows, rhs) == reference_solve_square(rows, rhs)

    @given(lattice_queries())
    def test_lattice_coefficients_match_reference(self, query):
        basis, target = query
        got = lattice_coefficients(basis, target)
        assert got == reference_lattice_coefficients(basis, target)
        assert got is None or all(type(c) is int for c in got)

    def test_empty_cases(self):
        assert rank_over_q([]) == reference_rank_over_q([]) == 0
        assert rank_over_q([[]]) == reference_rank_over_q([[]]) == 0
        assert solve_square([], []) == reference_solve_square([], []) == ()
        assert lattice_coefficients([], ()) == reference_lattice_coefficients([], ()) == ()
        assert lattice_coefficients([], (0, 0)) == reference_lattice_coefficients([], (0, 0)) == ()
        assert lattice_coefficients([], (0, 1)) is reference_lattice_coefficients([], (0, 1)) is None

    def test_singular_systems(self):
        """A singular matrix gives None whatever the right-hand side, and
        string and float entries are still accepted."""
        rows = [[1, 2], [2, 4]]
        assert solve_square(rows, [1, 2]) is None
        assert solve_square(rows, [1, 3]) is None
        assert solve_square([["1/2", 0], [0, 0.25]], [1, 1]) == (Fraction(2), Fraction(4))
        assert rank_over_q([["1/2", "1/3"], [3, 2]]) == 1
