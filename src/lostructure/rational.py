"""Exact rational utilities: parsing, an exact floor of a ratio to a
square root, small integer linear algebra.

All discrete laws, progressions, and witnesses in this package are kept in
``fractions.Fraction`` arithmetic so that "proper", "covered", and "equal"
are decided exactly; the hot kernels put their Fractions on one integer
grid (``common_grid``) and compute on integers, which is just as exact.
Square roots of rationals (vector norms, window formulas) are never
evaluated as floats on a decision path; ``floor_ratio_sqrt`` compares
against the square instead.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def floor_ratio_sqrt(a: Fraction, b: Fraction) -> int:
    """floor(a / sqrt(b)) computed exactly, for a >= 0, b > 0.

    k <= a/sqrt(b)  iff  k*k <= a*a/b, so the answer is isqrt(floor(a^2/b)).
    """
    if a < 0 or b <= 0:
        raise ValueError("floor_ratio_sqrt needs a >= 0, b > 0")
    q = (a * a) / b
    return math.isqrt(q.numerator // q.denominator)


# ---------------------------------------------------------------------------
# Small exact linear algebra.  Ranks here never exceed three.  Rank, square
# solves and lattice membership share one fraction-free elimination on
# integer rows; hnf_basis keeps its gcd row steps, which stay unimodular.
# ---------------------------------------------------------------------------


def _echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss, 1968) reduced row echelon form of integer rows:
    the rows and each leading row's pivot column.  Entries stay minors, so
    each update divides exactly by the previous pivot, and every leading
    row ends with the last pivot (the pivot block's determinant) on its
    diagonal."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        top = len(pivots)
        p = next((i for i in range(top, len(mat)) if mat[i][col]), None)
        if p is None:
            continue
        mat[top], mat[p] = mat[p], mat[top]
        head = mat[top]
        for i in range(len(mat)):
            if i != top:
                f = mat[i][col]
                mat[i] = [(head[col] * x - f * y) // prev for x, y in zip(mat[i], head)]
        prev = head[col]
        pivots.append(col)
    return mat, pivots


def rank_over_q(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix with rational entries."""
    return len(_echelon([common_grid(map(Fraction, r))[1] for r in rows])[1])


def solve_square(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Solve an n x n rational system; None when singular."""
    n = len(rows)
    mat, pivots = _echelon([common_grid(map(Fraction, [*rows[i], rhs[i]]))[1] for i in range(n)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(Fraction(r[n], r[i]) for i, r in enumerate(mat))


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

    Eliminates [basis^T | target] on integers: pivots other than 0..k-1
    mean a dependent basis or a target outside the span, and row i then
    reads det * c_i == its last entry, which must divide exactly.
    """
    k = len(basis)
    mat, pivots = _echelon([[*col, t] for *col, t in zip(*basis, target)])
    if pivots != list(range(k)) or any(r[k] % r[i] for i, r in enumerate(mat[:k])):
        return None
    return tuple(r[k] // r[i] for i, r in enumerate(mat[:k]))
