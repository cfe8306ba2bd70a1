"""Exact linear algebra: cross-checked against sympy (exact) and
bracketing identities for integer roots."""

from fractions import Fraction
from math import gcd

import numpy
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import oracles
from sawlab._linalg import (
    InconsistentSystem,
    integer_kernel,
    iroot_floor,
    lattice_index,
    nth_root_decimal,
    rref,
    root_compare,
    solve_unique,
)

small_int = st.integers(min_value=-9, max_value=9)


def rank(rows):
    """Rank over Q: the pivot count of the reduced row echelon form."""
    return len(rref(rows)[1])


def matrices(max_dim=6):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r,
                max_size=r,
            )
        )
    )


@settings(max_examples=500, deadline=None)
@given(matrices())
def test_rank_matches_sympy(rows):
    assert rank(rows) == sympy.Matrix(rows).rank()


def small_matrices(max_dim=5, bound=4):
    entry = st.integers(-bound, bound)
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


@settings(max_examples=500, deadline=None)
@given(small_matrices())
def test_rank_matches_float_estimate(rows):
    # SVD rank is reliable at these sizes and entry bounds
    assert rank(rows) == numpy.linalg.matrix_rank(numpy.array(rows, dtype=float))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_matches_sympy(rows):
    got_rows, got_pivots = rref(rows)
    expected, pivots = sympy.Matrix(rows).rref()
    assert list(got_pivots) == list(pivots)
    for i in range(len(rows)):
        for j in range(len(rows[0])):
            assert got_rows[i][j] == Fraction(int(expected[i, j].p), int(expected[i, j].q))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_integer_kernel_properties(rows):
    ncols = len(rows[0])
    basis = integer_kernel(rows, ncols)
    assert len(basis) == ncols - rank(rows)
    for vec in basis:
        # in the kernel
        for row in rows:
            assert sum(r * v for r, v in zip(row, vec)) == 0
        # primitive with positive leading entry
        nonzero = [abs(x) for x in vec if x]
        assert nonzero, "kernel vector must be non-zero"
        g = 0
        for x in nonzero:
            g = gcd(g, x)
        assert g == 1
        first = next(x for x in vec if x)
        assert first > 0
    # linear independence via stacked rank
    if basis:
        assert rank([list(v) for v in basis]) == len(basis)


def test_kernel_deterministic_order():
    rows = [[1, 0, -1, 0], [0, 1, 0, -1]]
    assert integer_kernel(rows, 4) == [(1, 0, 1, 0), (0, 1, 0, 1)]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(st.lists(small_int, min_size=k, max_size=k), min_size=n, max_size=n),
            )
        )
    )
)
def test_solve_unique_matches_sympy(data):
    # One to three right-hand-side columns, solved by one reduction.
    rows, rhs = data
    m = sympy.Matrix(rows)
    if m.rank() < len(rows):
        aug_rank = sympy.Matrix([row + b for row, b in zip(rows, rhs)]).rank()
        if aug_rank > m.rank():
            with pytest.raises(InconsistentSystem):
                solve_unique(rows, rhs)
        else:
            with pytest.raises(ValueError):
                solve_unique(rows, rhs)
        return
    got = solve_unique(rows, rhs)
    expected = m.solve(sympy.Matrix(rhs))
    assert len(got) == len(rows)
    for i, row in enumerate(got):
        assert row == [Fraction(int(e.p), int(e.q)) for e in expected.row(i)]


def vector_lists(max_dim=4, max_count=7):
    return st.integers(0, max_dim).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.lists(st.lists(small_int, min_size=d, max_size=d), max_size=max_count),
        )
    )


@settings(max_examples=400, deadline=None)
@given(vector_lists())
def test_lattice_index_matches_gcd_of_minors(data):
    d, vectors = data
    assert lattice_index(vectors, d) == oracles.minors_lattice_index(vectors, d)


def test_lattice_index_examples():
    assert lattice_index([(2, 0), (0, 3)], 2) == 6
    assert lattice_index([(2, 0), (0, 3), (1, 1)], 2) == 1
    assert lattice_index([(1, 2), (2, 4)], 2) == 0
    assert lattice_index([], 1) == 0
    assert lattice_index([], 0) == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**40), st.integers(1, 12))
def test_iroot_floor_brackets(value, n):
    r = iroot_floor(value, n)
    assert r**n <= value < (r + 1) ** n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**24), st.integers(1, 10), st.integers(1, 12))
def test_nth_root_decimal_brackets(value, n, digits):
    lo = Fraction(nth_root_decimal(value, n, digits, round_up=False))
    hi = Fraction(nth_root_decimal(value, n, digits, round_up=True))
    assert lo**n <= value <= hi**n
    assert hi - lo <= Fraction(1, 10**digits)


def test_nth_root_decimal_exact_powers():
    assert nth_root_decimal(1024, 10, 10, round_up=False) == "2.0000000000"
    assert nth_root_decimal(1024, 10, 10, round_up=True) == "2.0000000000"
    assert nth_root_decimal(0, 3, 4, round_up=True) == "0.0000"
    assert nth_root_decimal(2, 1, 3, round_up=False) == "2.000"


def test_known_root_values():
    # sigma_10 = 1536 on the 3-regular tree: 1536^(1/10) = 2.0827594879...
    assert nth_root_decimal(1536, 10, 10, round_up=True) == "2.0827594880"
    assert nth_root_decimal(1536, 10, 10, round_up=False) == "2.0827594879"
    assert nth_root_decimal(2, 2, 10, round_up=False) == "1.4142135623"


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10**12), st.integers(1, 10), st.integers(1, 10**12), st.integers(1, 10))
def test_root_compare_matches_cross_powers(a, an, b, bn):
    got = root_compare(a, an, b, bn)
    lhs, rhs = a**bn, b**an
    expected = (lhs > rhs) - (lhs < rhs)
    assert got == expected


def test_root_compare_equal_values():
    assert root_compare(8, 3, 4, 2) == 0
    assert root_compare(27, 3, 9, 2) == 0
    assert root_compare(5, 1, 25, 2) == 0
