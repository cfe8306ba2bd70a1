"""Exact integer and rational linear algebra.

Everything here operates on plain Python ints and fractions.Fraction;
no floating point enters any decision. Matrices are lists of row
tuples/lists. `rref` is the one rational elimination: the rank of a
matrix is its pivot count, `integer_kernel` reads the null space from
its free columns, and `solve_unique` reduces a system once for all its
right-hand sides. These back the kernel of a presentation's coefficient
matrix and the pinned orbit systems of harmonic heights; the
lattice-span check of periodic graphs is an integer reduction
(`lattice_index`). All of them are small (at most a few dozen rows), so
clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple


def rref(rows: Sequence[Sequence[Fraction]]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over Q. Returns (rref_rows, pivot_columns)."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = None
        for r in range(row, nrows):
            if m[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[row], m[pivot_row] = m[pivot_row], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                # The pivot rows of sparse systems (graph Laplacians) are
                # mostly zero; skip those entries.
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def _primitive(vec: Sequence[int]) -> Tuple[int, ...]:
    """Divide by the gcd and make the first non-zero entry positive."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g > 1:
        vec = [x // g for x in vec]
    else:
        vec = list(vec)
    for x in vec:
        if x != 0:
            if x < 0:
                vec = [-y for y in vec]
            break
    return tuple(vec)


def integer_kernel(rows: Sequence[Sequence[int]], ncols: int) -> List[Tuple[int, ...]]:
    """Primitive integer basis of the rational null space of an integer matrix.

    One basis vector per free column of the RREF, in increasing free-column
    order (the lexicographic-minimal echelon ordering). Each vector is
    scaled to integers with gcd 1 and positive leading entry.
    """
    if ncols == 0:
        return []
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: List[Tuple[int, ...]] = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for prow, pcol in zip(reduced, pivots):
            vec[pcol] = -prow[fc]
        denom_lcm = 1
        for x in vec:
            denom_lcm = denom_lcm * x.denominator // gcd(denom_lcm, x.denominator)
        ints = [int(x * denom_lcm) for x in vec]
        basis.append(_primitive(ints))
    return basis


def lattice_index(vectors: Sequence[Sequence[int]], d: int) -> int:
    """Index of the lattice the integer vectors span in Z^d; 0 if its rank is < d.

    Integer row reduction: each vector is folded into an echelon basis
    (one row per pivot column) by Euclid's algorithm on the pivot
    column, which keeps the spanned lattice. The diagonal of the
    result is that of the Hermite normal form, and the index is the
    product of its pivots. The work is polynomial in the input: at most
    len(vectors) * d Euclid reductions.
    """
    basis: List[List[int]] = [[] for _ in range(d)]
    for vec in vectors:
        v = list(vec)
        for i in range(d):
            if v[i] == 0:
                continue
            b = basis[i]
            if not b:
                basis[i] = v if v[i] > 0 else [-x for x in v]
                break
            while v[i]:
                q = b[i] // v[i]
                b, v = v, [x - q * y for x, y in zip(b, v)]
            basis[i] = b if b[i] > 0 else [-x for x in b]
    index = 1
    for i, b in enumerate(basis):
        if not b:
            return 0
        index *= b[i]
    return index


class InconsistentSystem(ValueError):
    """Raised when a linear system A x = b has no solution."""


def solve_unique(
    a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]
) -> List[List[Fraction]]:
    """Solve A X = B over Q, requiring a unique solution.

    B holds one row of right-hand sides per row of A, and X one row per
    column of A: column k of X solves A x = column k of B. One reduction
    of [A | B] serves every right-hand side. Raises InconsistentSystem if
    some column has no solution, ValueError if the solution is not unique
    (the harmonic systems we feed in are pinned to full column rank, so
    non-uniqueness signals a caller bug).
    """
    ncols = len(a[0]) if a else 0
    reduced, pivots = rref([list(row) + list(rhs) for row, rhs in zip(a, b)])
    if pivots and pivots[-1] >= ncols:
        raise InconsistentSystem("no solution")
    if len(pivots) < ncols:
        raise ValueError("solution not unique")
    return [prow[ncols:] for prow in reduced[:ncols]]


def iroot_floor(value: int, n: int) -> int:
    """Largest integer r with r**n <= value, for value >= 0, n >= 1."""
    if value < 0 or n < 1:
        raise ValueError("iroot_floor requires value >= 0 and n >= 1")
    if value in (0, 1) or n == 1:
        return value
    # Newton iteration on integers, seeded from the bit length.
    r = 1 << ((value.bit_length() + n - 1) // n)
    while True:
        nr = ((n - 1) * r + value // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > value:
        r -= 1
    while (r + 1) ** n <= value:
        r += 1
    return r


def nth_root_decimal(value: int, n: int, digits: int, round_up: bool) -> str:
    """Render value**(1/n) as a decimal string with `digits` fractional digits.

    round_up=False truncates toward zero (safe for lower bounds);
    round_up=True rounds away from zero (safe for upper bounds).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scaled = value * 10 ** (digits * n)
    r = iroot_floor(scaled, n)
    if round_up and r ** n < scaled:
        r += 1
    s = str(r).rjust(digits + 1, "0")
    return s[:-digits] + "." + s[-digits:]


def root_compare(a_base: int, a_n: int, b_base: int, b_n: int) -> int:
    """Exact comparison of a_base**(1/a_n) vs b_base**(1/b_n).

    Returns -1, 0, or 1. Uses cross powers, so no rounding is involved.
    """
    lhs = a_base ** b_n
    rhs = b_base ** a_n
    return (lhs > rhs) - (lhs < rhs)
