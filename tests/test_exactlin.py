"""Exact linear algebra: frozen examples plus algebraic property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkoszul.errors import InputFormatError
from grkoszul.exactlin import (
    FieldSpec,
    MatrixExact,
    QQ,
    Subspace,
    echelon,
    in_span,
    intersect_spaces,
    rank_kernel,
    reduce_vector,
    row_space,
    solve,
    span_coordinates,
)

try:  # sympy is an optional, independent elimination oracle
    from sympy import GF
    from sympy import QQ as SYMPY_QQ
    from sympy.polys.matrices import DomainMatrix
except ImportError:
    DomainMatrix = None

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_field_spec_rejects_composite_characteristic():
    with pytest.raises(InputFormatError):
        FieldSpec(6)


def test_rank_kernel_rational_frozen():
    m = MatrixExact(QQ, [[1, 1], [1, 1]])
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert kernel.rows == [[Fraction(1), Fraction(-1)]]


def test_rank_kernel_mod2_frozen():
    m = MatrixExact(F2, [[1, 1], [1, 1]])
    rank, kernel = rank_kernel(m)
    assert rank == 1
    assert kernel.rows == [[1, 1]]


def test_solve_diagonal_frozen():
    a = MatrixExact(QQ, [[2, 0], [0, 3]])
    assert solve(a, [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]


def test_solve_inconsistent_returns_none():
    a = MatrixExact(QQ, [[1, 1], [1, 1]])
    assert solve(a, [0, 1]) is None


def test_solve_shape_mismatch_is_input_error():
    a = MatrixExact(QQ, [[1, 0], [0, 1]])
    with pytest.raises(InputFormatError):
        solve(a, [1, 1, 1])


def test_echelon_is_canonical_rref():
    m = MatrixExact(QQ, [[0, 1, 2], [1, 0, 3], [1, 1, 5]])
    red, pivots = echelon(m)
    assert pivots == (0, 1)
    assert red.rows == [
        [Fraction(1), Fraction(0), Fraction(3)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]


def test_identity_and_mul():
    m = MatrixExact(F5, [[1, 2], [3, 4]])
    assert MatrixExact.identity(F5, 2).mul(m).rows == m.rows
    assert m.mul(MatrixExact.identity(F5, 2)).rows == m.rows


def test_span_utilities():
    rows, pivots = row_space(QQ, [[1, 1, 0], [0, 0, 1]], 3)
    assert in_span(QQ, rows, pivots, [2, 2, 7])
    assert not in_span(QQ, rows, pivots, [1, 0, 0])
    assert span_coordinates(QQ, rows, pivots, [3, 3, 1]) == [Fraction(3), Fraction(1)]
    meet = intersect_spaces(QQ, [[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [0, 0, 1]], 3)
    assert meet == [[Fraction(0), Fraction(1), Fraction(0)]]


entry = st.integers(min_value=-6, max_value=6)


def matrices(field):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n
            ).map(lambda rows: MatrixExact(field, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F5]).flatmap(matrices))
def test_rank_nullity_and_kernel_annihilation(m):
    rank, kernel = rank_kernel(m)
    assert rank + kernel.nrows == m.ncols
    if kernel.nrows:
        assert m.mul(kernel.transpose()).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F5]).flatmap(matrices))
def test_rank_equals_transpose_rank(m):
    assert rank_kernel(m)[0] == rank_kernel(m.transpose())[0]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F5]).flatmap(matrices))
def test_echelon_idempotent(m):
    red, _ = echelon(m)
    red2, _ = echelon(red)
    assert red.rows == red2.rows


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([QQ, F2, F5]).flatmap(
        lambda f: matrices(f).flatmap(
            lambda m: st.lists(entry, min_size=m.ncols, max_size=m.ncols).map(
                lambda x: (m, x)
            )
        )
    )
)
def test_solve_recovers_consistent_systems(case):
    m, x = case
    b = m.apply(x)
    got = solve(m, b)
    assert got is not None
    assert m.apply(got) == b


def test_determinant_frozen():
    from grkoszul.exactlin import determinant

    assert determinant(MatrixExact(QQ, [[1, 2], [3, 4]])) == Fraction(-2)
    assert determinant(MatrixExact(QQ, [[1, 2], [2, 4]])) == 0
    assert determinant(MatrixExact(F5, [[2, 0], [0, 3]])) == 1
    with pytest.raises(InputFormatError):
        determinant(MatrixExact(QQ, [[1, 2, 3]], 3))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_determinant_zero_iff_singular(rows):
    from grkoszul.exactlin import determinant

    m = MatrixExact(QQ, rows)
    rank, _ = rank_kernel(m)
    if rank == m.nrows:
        assert determinant(m) != 0
    else:
        assert determinant(m) == 0


# -- canonical scalars -------------------------------------------------------------


def test_coerce_returns_canonical_scalars_unchanged():
    x = Fraction(3, 7)
    assert QQ.coerce(x) is x
    assert F5.coerce(4) == 4 and type(F5.coerce(4)) is int


def test_coerce_still_converts_other_input():
    assert QQ.coerce(2) == 2 and type(QQ.coerce(2)) is Fraction
    assert type(QQ.coerce(True)) is Fraction
    assert F5.coerce(7) == 2
    assert F5.coerce(-1) == 4
    assert F5.coerce(True) == 1 and type(F5.coerce(True)) is int
    assert F5.coerce(Fraction(1, 2)) == 3
    assert F5.coerce(Fraction(10, 2)) == 0
    with pytest.raises(InputFormatError):
        F5.coerce(Fraction(1, 5))


# -- incremental subspaces ---------------------------------------------------------


def spans(field):
    """(field, ambient, spanning vectors, probe vectors)."""
    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(field),
            st.just(n),
            st.lists(st.lists(entry, min_size=n, max_size=n), max_size=5),
            st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3),
        )
    )


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(spans))
def test_subspace_agrees_with_row_space_and_span_queries(case):
    f, n, vectors, probes = case
    space = Subspace(f, n)
    for k, vec in enumerate(vectors):
        grew = space.add(vec)
        assert grew == (not in_span(f, *row_space(f, vectors[:k], n), vec))
        rows, pivots = row_space(f, vectors[: k + 1], n)
        assert (space.rows, tuple(space.pivots)) == (rows, pivots)
    rows, pivots = row_space(f, vectors, n)
    assert Subspace(f, n, vectors).rows == rows
    combination = [sum(col) for col in zip(*vectors)] if vectors else [0] * n
    for vec in probes + vectors + [combination]:
        assert space.contains(vec) == in_span(f, rows, pivots, vec)
        assert space.coords(vec) == span_coordinates(f, rows, pivots, vec)
        assert space.reduce(vec) == reduce_vector(f, rows, pivots, vec)
    assert space.coords(combination) is not None


@pytest.mark.skipif(DomainMatrix is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(spans))
def test_subspace_matches_sympy_rref(case):
    f, n, vectors, _ = case
    space = Subspace(f, n, vectors)
    if not vectors:
        assert space.rows == [] and space.pivots == []
        return
    red, pivots = DomainMatrix.from_list(vectors, GF(f.char) if f.char else SYMPY_QQ).rref()
    rows = red.to_list()[: len(pivots)]
    if f.char:
        expected = [[int(x) % f.char for x in row] for row in rows]
    else:
        expected = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    assert (space.rows, tuple(space.pivots)) == (expected, tuple(pivots))


def test_subspace_rejects_wrong_length():
    space = Subspace(QQ, 3, [[1, 0, 0]])
    with pytest.raises(InputFormatError):
        space.add([1, 0])
    with pytest.raises(InputFormatError):
        space.coords([1, 0, 0, 0])
