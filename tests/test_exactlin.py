"""Exact linear algebra: frozen examples plus algebraic property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkoszul.errors import InputFormatError, InternalCheckError
from grkoszul.exactlin import (
    FieldSpec,
    MatrixExact,
    QQ,
    Subspace,
    echelon,
    intersect_spaces,
    rank_kernel,
    row_space,
    _sparse_row,
)

from dense_oracle import (DenseSubspace, add, apply, dense_rank_kernel, determinant, identity,
                          invert, is_zero, kernel_matrix, mul, scale, solve, transpose, zero)

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
    rank, kernel = kernel_matrix(m)
    assert rank == 1
    assert kernel.rows == [[Fraction(1), Fraction(-1)]]


def test_rank_kernel_mod2_frozen():
    m = MatrixExact(F2, [[1, 1], [1, 1]])
    rank, kernel = kernel_matrix(m)
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
    assert mul(identity(F5, 2), m).rows == m.rows
    assert mul(m, identity(F5, 2)).rows == m.rows


def test_span_utilities():
    space = row_space(QQ, [[1, 1, 0], [0, 0, 1]], 3)
    assert space.contains([2, 2, 7])
    assert not space.contains([1, 0, 0])
    assert space.coords([3, 3, 1]) == [Fraction(3), Fraction(1)]
    meet = intersect_spaces(row_space(QQ, [[1, 0, 0], [0, 1, 0]], 3),
                            row_space(QQ, [[0, 1, 0], [0, 0, 1]], 3))
    assert meet.rows == [[Fraction(0), Fraction(1), Fraction(0)]] and meet.pivots == [1]


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
    rank, kernel = kernel_matrix(m)
    assert rank + kernel.nrows == m.ncols
    if kernel.nrows:
        assert is_zero(mul(m, transpose(kernel)))


def _two_echelon_kernel(m):
    """Reference for `rank_kernel`: eliminate left to right, read a kernel
    vector off each free column, then echelon those vectors again."""
    f = m.field
    red, pivots = echelon(m)
    kernel_rows = []
    for free in (j for j in range(m.ncols) if j not in pivots):
        vec = [f.zero] * m.ncols
        vec[free] = f.one
        for row, pcol in zip(red.rows, pivots):
            if row[free]:
                vec[pcol] = f.neg(row[free])
        kernel_rows.append(vec)
    return len(pivots), echelon(MatrixExact(f, kernel_rows, m.ncols))[0]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(
    lambda f: st.tuples(st.just(f), raw_matrices(f))))
def test_one_sided_kernel_matches_the_two_echelon_construction(case):
    f, rows = case
    m = MatrixExact(f, rows)
    rank, kernel = kernel_matrix(m)
    assert (rank, kernel) == _two_echelon_kernel(m)
    assert kernel.rows == Subspace(f, m.ncols, kernel.rows).rows
    assert canonical_rows(f, kernel.rows)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F5]).flatmap(matrices))
def test_rank_equals_transpose_rank(m):
    assert kernel_matrix(m)[0] == kernel_matrix(transpose(m))[0]


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
    b = apply(m, x)
    got = solve(m, b)
    assert got is not None
    assert apply(m, got) == b


def square_matrices(field):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        .map(lambda rows: MatrixExact(field, rows)))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F2, F5]).flatmap(square_matrices))
def test_invert_is_a_two_sided_inverse_or_none_when_singular(m):
    # oracle: one solve per unit vector, the columns of the inverse
    inv = invert(m)
    ident = identity(m.field, m.nrows)
    columns = [solve(m, unit) for unit in ident.rows]
    if kernel_matrix(m)[0] < m.nrows:
        assert inv is None
        return
    assert mul(m, inv) == ident and mul(inv, m) == ident
    assert inv == transpose(MatrixExact(m.field, columns))
    if m.field == QQ:
        assert all_canonical(inv.rows)


def test_invert_rejects_a_non_square_matrix():
    with pytest.raises(InputFormatError):
        invert(MatrixExact(QQ, [[1, 2, 3]]))


def test_determinant_frozen():
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
    m = MatrixExact(QQ, rows)
    rank, _ = kernel_matrix(m)
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
    assert QQ.coerce(2) == 2 and type(QQ.coerce(2)) is int
    assert QQ.coerce(True) == 1 and type(QQ.coerce(True)) is int
    assert QQ.coerce(Fraction(6, 3)) == 2 and type(QQ.coerce(Fraction(6, 3))) is int
    assert QQ.coerce("3/4") == Fraction(3, 4)
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
        assert grew == (not row_space(f, vectors[:k], n).contains(vec))
        grown = row_space(f, vectors[: k + 1], n)
        assert (space.rows, space.pivots) == (grown.rows, grown.pivots)
    assert Subspace(f, n, vectors) == space
    # the RREF rows are independent, so a solution of (rows)^T x = vec is
    # unique: it is the coordinate vector, found by elimination of the
    # augmented matrix instead of reduction against the rows
    basis = transpose(MatrixExact(f, space.rows, n))
    combination = [sum(col) for col in zip(*vectors)] if vectors else [0] * n
    for vec in probes + vectors + [combination]:
        coords = solve(basis, vec)
        assert space.contains(vec) == (coords is not None)
        assert space.coords(vec) == coords
        residual = space.reduce(vec)
        assert not any(residual[j] for j in space.pivots)
        assert space.contains([f.sub(a, b) for a, b in zip(f.coerce_row(vec), residual)])
    assert space.coords(combination) is not None


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(spans), st.data())
def test_subspace_equality_is_mutual_containment(case, data):
    f, n, vectors, probes = case
    others = probes + (vectors if data.draw(st.booleans()) else [])
    a, b = Subspace(f, n, vectors), Subspace(f, n, others)
    mutual = all(b.contains(v) for v in vectors) and all(a.contains(v) for v in others)
    assert (a == b) == mutual == (b == a)
    # consecutive sums and the last vector, in reverse order, span the same space
    same = [[x + y for x, y in zip(v, w)] for v, w in zip(vectors, vectors[1:])] + vectors[-1:]
    assert Subspace(f, n, same[::-1]) == a
    assert a == a.copy() and a != Subspace(f, n + 1) and a != a.rows
    assert Subspace(f, n, [[1] + [0] * (n - 1)]) != Subspace(F5, n, [[1] + [0] * (n - 1)])


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


# -- the scalar contract: ints when integral, Fractions otherwise ------------------

rational = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


def rational_matrices(min_dim=1):
    return st.integers(min_value=min_dim, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(rational, min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def is_canonical_q(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def all_canonical(rows):
    return all(is_canonical_q(x) for row in rows for x in row)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_q_outputs_hold_only_ints_and_proper_fractions(rows, data):
    m = MatrixExact(QQ, rows)
    assert all_canonical(m.rows)
    assert all_canonical(echelon(m)[0].rows)
    assert all_canonical(kernel_matrix(m)[1].rows)
    assert all_canonical(transpose(m).rows)
    assert all_canonical(mul(m, transpose(m)).rows)
    b = data.draw(st.lists(rational, min_size=m.nrows, max_size=m.nrows))
    x = solve(m, b)
    assert x is None or all_canonical([x])
    x = solve(m, apply(m, [1] * m.ncols))
    assert x is not None and all_canonical([x])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=1, max_size=4))
def test_integer_input_forms_agree(rows):
    forms = [
        rows,
        [[Fraction(x) for x in row] for row in rows],
        [[QQ.parse_scalar(str(x)) for x in row] for row in rows],
        [[QQ.parse_scalar("%d/1" % x) for x in row] for row in rows],
    ]
    reduced = [echelon(MatrixExact(QQ, form))[0].rows for form in forms]
    texts = [[[QQ.format_scalar(x) for x in row] for row in red] for red in reduced]
    assert all(red == reduced[0] for red in reduced)
    assert all(text == texts[0] for text in texts)
    assert all(MatrixExact(QQ, form).rows == rows for form in forms)


@pytest.mark.skipif(DomainMatrix is None, reason="sympy is not installed")
@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_echelon_with_non_unit_pivots_matches_sympy(rows):
    red, pivots = echelon(MatrixExact(QQ, rows))
    sym_red, sym_pivots = DomainMatrix.from_list(rows, SYMPY_QQ).rref()
    expected = [
        [QQ.coerce(Fraction(int(x.numerator), int(x.denominator))) for x in row]
        for row in sym_red.to_list()[: len(sym_pivots)]
    ]
    assert (red.rows, pivots) == (expected, tuple(sym_pivots))


def test_integral_results_of_fraction_arithmetic_become_ints():
    half = Fraction(1, 2)
    red, _ = echelon(MatrixExact(QQ, [[1, half], [0, 1]]))
    assert red.rows == [[1, 0], [0, 1]] and all_canonical(red.rows)
    space = Subspace(QQ, 3, [[2, 1, 0], [0, half, 3]])
    assert all_canonical(space.rows)
    assert space.rows == [[1, 0, -3], [0, 1, 6]]
    residual = space.reduce([half, 1, half])
    assert residual == [0, 0, -4] and all_canonical([residual])
    assert space.coords([2, 3, 12]) == [2, 3]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.lists(rational, min_size=3, max_size=3), max_size=4),
       st.lists(rational, min_size=3, max_size=3))
def test_subspace_queries_over_q_return_canonical_scalars(vectors, probe):
    space = Subspace(QQ, 3, vectors)
    assert all_canonical(space.rows)
    assert all_canonical([space.reduce(probe)])
    member = [sum(col) for col in zip(*vectors)] if vectors else [0, 0, 0]
    assert all_canonical([space.coords(member)])


def test_q_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert QQ.inv(Fraction(1, 3)) == 3 and type(QQ.inv(Fraction(1, 3))) is int
    assert QQ.mul(3, QQ.inv(6)) == Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_q_arithmetic_returns_canonical_scalars():
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int
    assert type(QQ.sub(Fraction(3, 2), half)) is int
    assert type(QQ.mul(2, half)) is int
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int


def _coerce_or_error(field, x):
    try:
        return field.coerce(x)
    except InputFormatError:
        return InputFormatError


scalar_input = st.one_of(
    st.booleans(),
    st.integers(-20, 20),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.integers(-6, 6).map(Fraction),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, F2, F3]), st.lists(scalar_input, max_size=6))
def test_coerce_row_agrees_with_coerce(f, row):
    expected = [_coerce_or_error(f, x) for x in row]
    if InputFormatError in expected:
        with pytest.raises(InputFormatError):
            f.coerce_row(row)
        return
    got = f.coerce_row(row)
    assert got == expected and got is not row
    assert [type(x) for x in got] == [type(x) for x in expected]


@pytest.mark.parametrize("f", [F2, F3])
def test_coerce_row_rejects_denominators_divisible_by_p(f):
    with pytest.raises(InputFormatError):
        f.coerce_row([1, Fraction(1, f.char)])
    with pytest.raises(InputFormatError):
        f.coerce_row([Fraction(5, 2 * f.char)])
    assert f.coerce_row([True, -1, f.char, f.char + 1]) == [1, f.char - 1, 0, 1]


def _kernel_meet(f, rows_a, rows_b, n):
    """Test-only intersection oracle: combinations sum c_a a = -sum c_b b read
    off the right kernel of the stacked spanning rows."""
    _, kernel = kernel_matrix(transpose(MatrixExact(f, list(rows_a) + list(rows_b), n)))
    vectors = [
        [sum(c * a for c, a in zip(coeffs, col)) for col in zip(*rows_a)]
        for coeffs in (row[: len(rows_a)] for row in kernel.rows)
    ]
    return row_space(f, vectors, n)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(spans), st.data())
def test_intersect_spaces_matches_kernel_oracle(case, data):
    f, n, vectors, _ = case
    others = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    both = Subspace(f, n, vectors), Subspace(f, n, others)
    meet = intersect_spaces(*both)
    if vectors and others:
        assert meet == _kernel_meet(f, vectors, others, n)
    else:
        assert meet == Subspace(f, n)
    again = row_space(f, meet.rows, n)
    assert (meet.rows, meet.pivots) == (again.rows, again.pivots)
    assert meet.pivots == [row.index(1) for row in meet.rows]
    assert all(space.contains(v) for v in meet.rows for space in both)


# -- canonical output of the trusted producers --------------------------------------
#
# echelon and rank_kernel, and the oracles zero, identity, transpose, mul,
# add and scale, build their matrices without a coercion pass
# (`MatrixExact.trusted`); these tests are the check that what they build is
# canonical all the same.


def is_canonical(field, x):
    """Over Q an int or a Fraction with denominator > 1; over F_p an int in [0, p)."""
    if field.char == 0:
        return is_canonical_q(x)
    return type(x) is int and 0 <= x < field.char


def canonical_rows(field, rows):
    return all(is_canonical(field, x) for row in rows for x in row)


def raw_entries(field):
    """Scalars as a caller may pass them: bools, negatives, values >= p and,
    over Q, integral and proper Fractions."""
    if field.char == 0:
        return scalar_input
    return st.one_of(st.booleans(), st.integers(-20, 20))


def raw_matrices(field, entries=raw_entries):
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.integers(min_value=1, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(entries(field), min_size=m, max_size=m), min_size=n, max_size=n
            )
        )
    )


def caller_entries(field):
    """raw_entries plus integral Fractions, which every field accepts."""
    return st.one_of(raw_entries(field), st.integers(-20, 20).map(Fraction))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, F2, F3, F5]).flatmap(
    lambda f: st.tuples(st.just(f), raw_matrices(f), raw_entries(f))))
def test_trusted_producers_return_canonical_scalars(case):
    f, rows, scalar = case
    m = MatrixExact(f, rows)
    assert canonical_rows(f, m.rows)
    t = transpose(m)
    assert (t.nrows, t.ncols) == (m.ncols, m.nrows) and transpose(t) == m
    produced = {
        "zero": zero(f, m.nrows, m.ncols),
        "identity": identity(f, m.ncols),
        "transpose": t,
        "mul": mul(m, t),
        "mul-t": mul(t, m),
        "add": add(m, m),
        "scale": scale(m, scalar),
        "echelon": echelon(m)[0],
        "kernel": kernel_matrix(m)[1],
        "kernel-t": kernel_matrix(t)[1],
    }
    for name, out in produced.items():
        assert canonical_rows(f, out.rows), name
        assert all(len(row) == out.ncols for row in out.rows) and len(out.rows) == out.nrows
    # a trusted product owns fresh rows: writing to it leaves its inputs alone
    before = [list(row) for row in m.rows]
    for out in produced.values():
        for row in out.rows:
            row[:] = [f.zero] * len(row)
    assert m.rows == before


def test_trusted_transpose_keeps_empty_shapes():
    def shape(m):
        return (m.nrows, m.ncols)

    empty = MatrixExact(QQ, [], 3)
    assert shape(transpose(empty)) == (3, 0)
    assert shape(transpose(transpose(empty))) == (0, 3)
    assert shape(transpose(zero(F2, 2, 0))) == (0, 2)


def test_public_constructor_still_canonicalises():
    m = MatrixExact(QQ, [[Fraction(6, 3), True, Fraction(1, 2), -4]])
    assert m.rows == [[2, 1, Fraction(1, 2), -4]]
    assert [type(x) for x in m.rows[0]] == [int, int, Fraction, int]
    for f in (F2, F3, F5):
        m = MatrixExact(f, [[-1, f.char, f.char + 1, True, Fraction(f.char + 1, 1)]])
        assert m.rows == [[f.char - 1, 0, 1, 1, 1]]
        assert all(type(x) is int for x in m.rows[0])
    with pytest.raises(InputFormatError):
        MatrixExact(QQ, [[1, 2], [3]])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(spans))
def test_subspace_from_rref_equals_the_eliminated_subspace(case):
    f, n, vectors, probes = case
    built = Subspace(f, n, vectors)
    rows, pivots = list(built.rows), list(built.pivots)
    given_rows, given_pivots = list(rows), list(pivots)
    taken = Subspace.from_rref(f, n, rows, pivots)
    assert (taken.rows, taken.pivots) == (built.rows, built.pivots)
    assert canonical_rows(f, taken.rows)
    for vec in probes:
        assert taken.contains(vec) == built.contains(vec)
        assert taken.coords(vec) == built.coords(vec)
        assert taken.add(vec) == built.add(vec)
        assert (taken.rows, taken.pivots) == (built.rows, built.pivots)
    # growing the taken space leaves the lists it was given alone
    assert (rows, pivots) == (given_rows, given_pivots)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(
    lambda f: st.tuples(st.just(f), raw_matrices(f, caller_entries), st.data())))
def test_public_subspace_path_coerces_every_input_form(case):
    """Bools, values >= p, negatives and integral or proper Fractions reach
    the same RREF and the same answers through the public path as their
    canonical forms do through the trusted one."""
    f, rows, data = case
    n = len(rows[0])
    canon = [f.coerce_row(row) for row in rows]
    trusted = Subspace(f, n)
    for row in canon:
        trusted.add(_sparse_row(row))
    built = Subspace(f, n, rows)
    assert built == trusted == row_space(f, rows, n) == Subspace(f, n, canon)
    assert canonical_rows(f, built.rows)
    for probe in data.draw(st.lists(st.lists(caller_entries(f), min_size=n, max_size=n),
                                    min_size=1, max_size=3)) + rows:
        probe_canon = f.coerce_row(probe)
        assert built.contains(probe) == built.contains(probe_canon)
        assert built.coords(probe) == built.coords(probe_canon) \
            == trusted.coords(_sparse_row(probe_canon))
        assert built.reduce(probe) == built.reduce(probe_canon)
        assert canonical_rows(f, [built.reduce(probe)])


def test_subspace_from_rref_reads_the_leading_columns():
    built = Subspace(F3, 4, [[0, 2, 1, 0], [1, 1, 0, 0], [0, 0, 0, 2]])
    taken = Subspace.from_rref(F3, 4, built.rows)
    assert (taken.rows, taken.pivots) == (built.rows, built.pivots) == (built.rows, [0, 1, 3])
    assert Subspace.from_rref(QQ, 3, []).pivots == []


# -- apply and mul without an input coercion pass ------------------------------------


def apply_inputs(field):
    """(canonical matrix, a vector in caller form): integral Fractions, bools,
    negatives and values >= p, never a proper fraction over F_p."""
    if field.char == 0:
        entry = scalar_input
    else:
        entry = st.one_of(st.booleans(), st.integers(-20, 20),
                          st.integers(-20, 20).map(lambda n: Fraction(n, 1)))
    return raw_matrices(field).flatmap(lambda rows: st.tuples(
        st.just(MatrixExact(field, rows)),
        st.lists(entry, min_size=len(rows[0]), max_size=len(rows[0]))))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(
    lambda f: st.tuples(st.just(f), apply_inputs(f))))
def test_apply_without_coercion_matches_canonical_input(case):
    f, (m, vec) = case
    out = apply(m, vec)
    assert out == apply(m, f.coerce_row(vec))
    assert canonical_rows(f, [out])
    # the definition, entry by entry on the canonical vector
    canon = f.coerce_row(vec)
    expected = []
    for row in m.rows:
        s = f.zero
        for a, x in zip(row, canon):
            s = f.add(s, f.mul(a, x))
        expected.append(s)
    assert out == expected


def test_apply_on_the_listed_caller_forms():
    m = MatrixExact(QQ, [[1, Fraction(1, 2)], [3, 0]])
    assert apply(m, [Fraction(2, 1), True]) == apply(m, [2, 1]) == [Fraction(5, 2), 6]
    assert [type(x) for x in apply(m, [Fraction(4, 1), -6])] == [int, int]
    for f in (F2, F3):
        m = MatrixExact(f, [[1, 1], [0, 1]])
        p = f.char
        assert apply(m, [Fraction(p + 1, 1), -1]) == apply(m, [1, p - 1]) == [0, p - 1]
        assert apply(m, [True, p]) == apply(m, [1, 0]) == [1, 0]


def naive_product(a, b):
    f = a.field
    return [[_dot(f, row, [brow[j] for brow in b.rows]) for j in range(b.ncols)]
            for row in a.rows]


def _dot(f, xs, ys):
    s = f.zero
    for x, y in zip(xs, ys):
        s = f.add(s, f.mul(x, y))
    return s


def product_pairs(field):
    """Raw (a, b) with a of shape n x k and b of shape k x m."""
    def sized(n, k, m):
        return st.tuples(
            st.lists(st.lists(raw_entries(field), min_size=k, max_size=k), min_size=n, max_size=n),
            st.lists(st.lists(raw_entries(field), min_size=m, max_size=m), min_size=k, max_size=k))
    dims = st.integers(min_value=1, max_value=4)
    return st.tuples(dims, dims, dims).flatmap(lambda nkm: sized(*nkm))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, F2, F3, F5]).flatmap(
    lambda f: st.tuples(st.just(f), product_pairs(f))))
def test_mul_matches_the_entrywise_definition(case):
    f, (rows_a, rows_b) = case
    a, b = MatrixExact(f, rows_a), MatrixExact(f, rows_b)
    product = mul(a, b)
    assert (product.nrows, product.ncols) == (a.nrows, b.ncols)
    assert product.rows == naive_product(a, b)
    assert canonical_rows(f, product.rows)


# -- the sparse RREF against the dense oracle ------------------------------------------


def oracle_vectors(field, n):
    """Vectors as callers pass them: dense, or zero but for one or two
    entries; entries are bools, negatives, values >= p and Fractions."""
    entries = caller_entries(field)
    dense = st.lists(entries, min_size=n, max_size=n)
    sparse = st.dictionaries(st.integers(0, n - 1), entries, max_size=2).map(
        lambda d: [d.get(j, 0) for j in range(n)])
    return st.one_of(sparse, dense)


def oracle_cases(field):
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(st.just(field), st.just(n),
                            st.lists(oracle_vectors(field, n), max_size=7),
                            st.lists(oracle_vectors(field, n), min_size=1, max_size=4)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(oracle_cases))
def test_sparse_subspace_matches_the_dense_oracle(case):
    f, n, vectors, probes = case
    space, oracle = Subspace(f, n), DenseSubspace(f, n)
    for vec in vectors:
        assert space.add(vec) == oracle.add(vec)
        # the dense view is read after every add, so a stale one shows
        assert (space.rows, space.pivots, len(space)) == (oracle.rows, oracle.pivots, len(oracle))
        assert canonical_rows(f, space.rows)
    grown = space.copy()
    for vec in probes + vectors:
        assert space.contains(vec) == oracle.contains(vec)
        assert space.coords(vec) == oracle.coords(vec)
        assert space.reduce(vec) == oracle.reduce(vec)
        canon = f.coerce_row(vec)
        assert space.coords(_sparse_row(canon)) == space.coords(canon) == oracle.coords(vec)
    other = Subspace(f, n, probes)
    assert (space == other) == (oracle == DenseSubspace(f, n, probes)) == (other == space)
    # a copy grows on its own; sparse canonical rows reach the same RREF
    for vec in probes:
        grown.add(vec)
    assert grown.rows == DenseSubspace(f, n, vectors + probes).rows
    assert (space.rows, space.pivots) == (oracle.rows, oracle.pivots)
    trusted = Subspace(f, n)
    for vec in vectors:
        trusted.add(_sparse_row(f.coerce_row(vec)))
    assert trusted == space


def kernel_cases(field):
    """(n, rows, full): up to six rows of n columns, dense or zero but for one
    or two entries (so zero rows too), with proper Fractions over Q; no rows
    at all gives the empty matrix, and full asks for the unit rows of every
    column to be added, for a matrix of full rank."""
    return st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(oracle_vectors(field, n), max_size=6),
                            st.booleans()))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(
    lambda f: st.tuples(st.just(f), kernel_cases(f))))
def test_rank_kernel_matches_the_dense_oracle(case):
    """The one kernel routine, on sparse rows, against the dense mirrored
    elimination: the same rank and the same RREF rows of the kernel."""
    f, (n, rows, full) = case
    m = MatrixExact(f, rows + (identity(f, n).rows if full else []), n)
    rank, kernel = rank_kernel(f, [_sparse_row(row) for row in m.rows], n)
    expected_rank, expected = dense_rank_kernel(m)
    assert (rank, kernel) == (expected_rank, [_sparse_row(row) for row in expected.rows])
    assert canonical_rows(f, [list(vec.values()) for vec in kernel])
    assert not full or (rank, kernel) == (n, [])
    assert rank_kernel(f, [], 0) == (0, [])
    red, pivots = echelon(m)
    oracle = DenseSubspace(f, m.ncols, m.rows)
    assert (red.rows, list(pivots)) == (oracle.rows, oracle.pivots)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, F3]).flatmap(
    lambda f: st.tuples(st.just(f), st.integers(2, 6).flatmap(
        lambda n: st.tuples(st.just(n), st.dictionaries(
            st.integers(0, n - 1), st.integers(1, 20).map(f.coerce).filter(bool),
            min_size=2, max_size=n))))))
def test_rank_kernel_refuses_a_changed_kernel_vector(case):
    """One row with two or more nonzero entries: its elimination stores one
    RREF row, and raising an entry of that row off its pivot by one changes
    one entry of one kernel vector, which the A*k = 0 check refuses."""
    f, (n, row) = case
    real = Subspace.add

    def perturbed(space, vec):
        added = real(space, vec)
        if added:
            stored = dict(space.rref[space.pivots[0]])
            j = max(stored)  # the pivot is the least column, so j is off it
            stored[j] = f.add(stored[j], f.one)
            if not stored[j]:
                del stored[j]
            space.rref[space.pivots[0]] = stored
        return added

    assert rank_kernel(f, [row], n)[0] == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Subspace, "add", perturbed)
        with pytest.raises(InternalCheckError, match="kernel basis fails A\\*k = 0"):
            rank_kernel(f, [row], n)
