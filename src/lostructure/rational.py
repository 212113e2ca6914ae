"""Exact rational utilities: parsing, square-root comparisons, small
integer linear algebra.

All discrete laws, progressions, and witnesses in this package are kept in
``fractions.Fraction`` arithmetic so that "proper", "covered", and "equal"
are decided exactly; the hot kernels put their Fractions on one integer
grid (``common_grid``) and compute on integers, which is just as exact.
Square roots of rationals (vector norms, window formulas) are never
evaluated as floats on a decision path; the helpers here compare against
the square instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings. Floats are rejected so a
    decimal never sneaks into an exact computation by accident."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"expected int, Fraction, or 'p/q' string, got {type(x).__name__}")


def coerce_real(x) -> Fraction:
    """to_fraction, but floats are admitted at their exact binary value.
    For measured quantities (estimates, dilation factors) where a float
    input is legitimate; decision paths stay exact afterwards."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot coerce non-finite float {x!r}")
        return Fraction(x)
    return to_fraction(x)


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def common_grid(xs: Iterable[Fraction]) -> tuple[int, list[int]]:
    """(G, [x * G for x in xs]) with G the lcm of the denominators: the
    values as integers on their common grid.  The exact kernels compute on
    such grids and make Fractions only at the API boundary."""
    xs = list(xs)
    G = math.lcm(*(x.denominator for x in xs))
    return G, [x.numerator * (G // x.denominator) for x in xs]


def to_vec(entry, dim: int | None = None) -> Vec:
    """Coerce a scalar or a sequence into a value tuple."""
    if isinstance(entry, (int, Fraction, str)):
        v = (to_fraction(entry),)
    else:
        v = tuple(to_fraction(c) for c in entry)
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a vector of dimension {dim}, got {len(v)}")
    return v


def max_norm(v) -> Fraction:
    if isinstance(v, Fraction):
        return abs(v)
    return max((abs(c) for c in v), default=Fraction(0))


def norm_sq(v) -> Fraction:
    if isinstance(v, Fraction):
        return v * v
    return sum((c * c for c in v), Fraction(0))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def le_sqrt(x: Fraction, s: Fraction) -> bool:
    """Exact test x <= sqrt(s) for s >= 0."""
    if x <= 0:
        return True
    return x * x <= s


def lt_sqrt(x: Fraction, s: Fraction) -> bool:
    """Exact test x < sqrt(s) for s >= 0."""
    if x < 0:
        return True
    return x * x < s


def sqrt_le(s: Fraction, x: Fraction) -> bool:
    """Exact test sqrt(s) <= x for s >= 0."""
    if x < 0:
        return False
    return s <= x * x


def floor_ratio_sqrt(a: Fraction, b: Fraction) -> int:
    """floor(a / sqrt(b)) computed exactly, for a >= 0, b > 0.

    k <= a/sqrt(b)  iff  k*k <= a*a/b, so the answer is isqrt(floor(a^2/b)).
    """
    if a < 0 or b <= 0:
        raise ValueError("floor_ratio_sqrt needs a >= 0, b > 0")
    q = (a * a) / b
    return math.isqrt(q.numerator // q.denominator)


# ---------------------------------------------------------------------------
# Small exact linear algebra.  Ranks here never exceed three, so plain
# fraction Gaussian elimination and gcd row reduction are entirely adequate.
# ---------------------------------------------------------------------------


def rank_over_q(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix with rational entries."""
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


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve an n x n rational system; None when singular."""
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


def hnf_basis(vectors: Iterable[Sequence[int]], dim: int) -> list[tuple[int, ...]]:
    """Row basis (echelon, Hermite-style) of the integer lattice generated
    by the given integer vectors."""
    rows: list[list[int]] = []
    for v in vectors:
        rows.append(list(v))
    # Integer row echelon via gcd steps, column by column.
    basis: list[list[int]] = []
    work = rows
    col = 0
    while col < dim and work:
        nz = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nz:
            work = rest
            col += 1
            continue
        # Reduce all rows with nonzero entry in this column to a single one.
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            a = nz[0]
            reduced = [a]
            for r in nz[1:]:
                q = r[col] // a[col]
                rr = [x - q * y for x, y in zip(r, a)]
                if rr[col] != 0:
                    reduced.append(rr)
                elif any(rr):
                    rest.append(rr)
            nz = reduced
        head = nz[0]
        if head[col] < 0:
            head = [-x for x in head]
        basis.append(head)
        work = rest
        col += 1
    return [tuple(r) for r in basis]


def reduce_basis(basis: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Greedy pairwise size reduction of a short integer basis (rank <= 3).

    Repeatedly replaces b_i by b_i - round(<b_i,b_j>/<b_j,b_j>) b_j while it
    shrinks.  At these ranks the result is short enough for sandwich search.
    """
    vecs = [list(v) for v in basis]

    def nsq(v):
        return sum(x * x for x in v)

    changed = True
    guard = 0
    while changed and guard < 256:
        changed = False
        guard += 1
        vecs.sort(key=nsq)
        for i in range(len(vecs)):
            for j in range(len(vecs)):
                if i == j:
                    continue
                denom = nsq(vecs[j])
                if denom == 0:
                    continue
                num = sum(a * b for a, b in zip(vecs[i], vecs[j]))
                q = (2 * num + denom) // (2 * denom)  # nearest integer to num/denom
                if q != 0:
                    cand = [a - q * b for a, b in zip(vecs[i], vecs[j])]
                    if nsq(cand) < nsq(vecs[i]):
                        vecs[i] = cand
                        changed = True
    vecs.sort(key=lambda v: (nsq(v), v))
    return [tuple(v) for v in vecs]


def lattice_coefficients(basis: Sequence[Sequence[int]], target: Sequence[int]):
    """Integer coefficients c with sum c_j * basis_j == target, or None.

    Solves the Gram system exactly, then verifies integrality and the
    reconstruction (the target may sit outside the lattice's span).
    """
    k = len(basis)
    if k == 0:
        return () if not any(target) else None
    gram = [[Fraction(sum(a * b for a, b in zip(basis[i], basis[j]))) for j in range(k)] for i in range(k)]
    rhs = [Fraction(sum(a * b for a, b in zip(basis[i], target))) for i in range(k)]
    sol = solve_square(gram, rhs)
    if sol is None:
        return None
    if any(c.denominator != 1 for c in sol):
        return None
    coef = tuple(int(c) for c in sol)
    recon = [sum(coef[j] * basis[j][i] for j in range(k)) for i in range(len(target))]
    if list(target) != recon:
        return None
    return coef
