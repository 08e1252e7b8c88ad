"""Quiver presentations, basis enumeration, gradings, gr, opposites, subalgebras.

Frozen values below were derived by hand from the stated conventions
(paths left to right, product p*q = p then q) before the implementation
was run on them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_element, dense_multiply, kernel_matrix
from test_qha_engine import a1_chain_with_duality
from test_rep_homology import monomial_quiver_algebra
from grkoszul.errors import InputFormatError, PreconditionError
from grkoszul.exactlin import QQ, FieldSpec, MatrixExact, echelon, row_space, _push, _sparse_row
from grkoszul.algebra_core import (
    QuiverPresentation,
    build_algebra,
    gr_algebra,
    grades_from_arrow_degrees,
    opposite_algebra,
    radical_generation_check,
    subalgebra_from_generators,
    tight_grading_check,
    tight_subalgebra_check,
)

F2 = FieldSpec(2)


def two_vertex_cycle(field=QQ, duality=None):
    """Vertices 1, 2; a: 1 -> 2, b: 2 -> 1; relation b*a = 0.

    Basis: e_1, e_2, a, b, a*b.  Radical layers have dims 2, 1.
    """
    return QuiverPresentation(
        field=field,
        vertices=["1", "2"],
        arrows=[("a", "1", "2"), ("b", "2", "1")],
        relations=[[(1, ("b", "a"))]],
        duality=duality,
    )


def truncated_polynomial(power, field=QQ):
    """K[x]/(x^power) as a one-vertex quiver with a loop."""
    return QuiverPresentation(
        field=field,
        vertices=["1"],
        arrows=[("x", "1", "1")],
        relations=[[(1, ("x",) * power)]],
    )


# -- basis enumeration -------------------------------------------------------------


def test_two_vertex_cycle_basis_frozen():
    alg = build_algebra(two_vertex_cycle())
    assert alg.dim == 5
    assert [p.label() for p in alg.basis] == ["e_1", "e_2", "a", "b", "a*b"]
    assert alg.graded_dims() == [2, 2, 1]
    assert alg.radical_length == 3
    assert alg.grades() == [0, 0, 1, 1, 2]


def test_two_vertex_cycle_multiplication_frozen():
    alg = build_algebra(two_vertex_cycle())
    ia, ib = alg.index[("1", ("a",))], alg.index[("2", ("b",))]
    iab = alg.index[("1", ("a", "b"))]
    unit = alg.basis_vector
    # a then b survives, b then a is the relation
    assert alg.multiply(unit(ia), unit(ib)) == unit(iab) == {iab: 1}
    assert alg.multiply(unit(ib), unit(ia)) == {}


def test_truncated_polynomial_dims():
    alg = build_algebra(truncated_polynomial(3))
    assert alg.dim == 3
    assert alg.graded_dims() == [1, 1, 1]
    assert build_algebra(truncated_polynomial(2)).dim == 2


def test_commuting_loops_truncation():
    # x^2 = y^2 = 0 and yx = xy: basis e, x, y, x*y
    pres = QuiverPresentation(
        field=QQ,
        vertices=["1"],
        arrows=[("x", "1", "1"), ("y", "1", "1")],
        relations=[
            [(1, ("x", "x"))],
            [(1, ("y", "y"))],
            [(1, ("y", "x")), (-1, ("x", "y"))],
        ],
    )
    alg = build_algebra(pres)
    assert alg.dim == 4
    assert [p.label() for p in alg.basis] == ["e_1", "x", "y", "x*y"]


def test_completion_discovers_consequence():
    # x^2 = y^2 = 0 and xyx = yx force yx = 0; only completion sees it.
    pres = QuiverPresentation(
        field=QQ,
        vertices=["1"],
        arrows=[("x", "1", "1"), ("y", "1", "1")],
        relations=[
            [(1, ("x", "x"))],
            [(1, ("y", "y"))],
            [(1, ("x", "y", "x")), (-1, ("y", "x"))],
        ],
    )
    alg = build_algebra(pres)
    assert alg.dim == 4
    assert [p.label() for p in alg.basis] == ["e_1", "x", "y", "x*y"]


def test_infinite_dimensional_rejected():
    with pytest.raises(InputFormatError):
        build_algebra(QuiverPresentation(QQ, ["1"], [("x", "1", "1")], []))


def test_non_admissible_relation_rejected():
    # x^2 = x^3 makes the arrow ideal non-nilpotent
    pres = QuiverPresentation(
        QQ, ["1"], [("x", "1", "1")], [[(1, ("x", "x")), (-1, ("x", "x", "x"))]]
    )
    with pytest.raises(InputFormatError):
        build_algebra(pres)


def test_presentation_validation():
    with pytest.raises(InputFormatError):
        # relation of length 1 is not admissible
        QuiverPresentation(QQ, ["1"], [("x", "1", "1")], [[(1, ("x",))]])
    with pytest.raises(InputFormatError):
        # non-composable path
        QuiverPresentation(
            QQ,
            ["1", "2"],
            [("a", "1", "2"), ("b", "1", "2")],
            [[(1, ("a", "b"))]],
        )
    with pytest.raises(InputFormatError):
        # terms with different endpoints in one relation
        QuiverPresentation(
            QQ,
            ["1", "2"],
            [("a", "1", "2"), ("b", "2", "1")],
            [[(1, ("a", "b")), (1, ("b", "a"))]],
        )
    with pytest.raises(InputFormatError):
        QuiverPresentation(QQ, ["1", "1"], [], [])
    with pytest.raises(InputFormatError):
        QuiverPresentation(QQ, ["1"], [("x", "1", "3")], [])


# -- gradings ----------------------------------------------------------------------


def test_tight_grading_two_vertex_cycle():
    alg = build_algebra(two_vertex_cycle())
    report = tight_grading_check(alg)
    assert report.passed
    assert report.failures == []


def nonhomogeneous_presentation():
    """A path of length 2 equal to a parallel path of length 3.

    a: 1 -> 2, b: 2 -> 3 and c: 1 -> 4, d: 4 -> 5, e: 5 -> 3 with cde = ab.
    Path length is not a grading: a*b sits in radical power 3.
    """
    return QuiverPresentation(
        field=QQ,
        vertices=["1", "2", "3", "4", "5"],
        arrows=[
            ("a", "1", "2"),
            ("b", "2", "3"),
            ("c", "1", "4"),
            ("d", "4", "5"),
            ("e", "5", "3"),
        ],
        relations=[[(1, ("c", "d", "e")), (-1, ("a", "b"))]],
    )


def test_nonhomogeneous_length_grading_fails():
    alg = build_algebra(nonhomogeneous_presentation())
    assert alg.dim == 13
    assert alg.graded_dims() == [5, 5, 2, 1]
    assert grades_from_arrow_degrees(alg) == [len(bp.arrows) for bp in alg.basis]
    report = tight_grading_check(alg)
    assert not report.multiplicative
    assert not report.passed


# -- gr construction ---------------------------------------------------------------


def test_gr_of_tightly_graded_algebra_is_itself():
    alg = build_algebra(two_vertex_cycle())
    graded = gr_algebra(alg)
    assert graded.graded_dims() == [2, 2, 1]
    assert [p.label() for p in graded.algebra.basis] == [p.label() for p in alg.basis]
    # identical structure constants in the matched basis
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert graded.algebra.mult_basis(i, j) == alg.mult_basis(i, j)


def test_gr_degenerates_nonhomogeneous_relation():
    alg = build_algebra(nonhomogeneous_presentation())
    graded = gr_algebra(alg)
    assert graded.graded_dims() == alg.graded_dims()
    labels = {p.label() for p in graded.algebra.basis}
    # the short path dies in gr, the long one survives
    assert "c*d*e" in labels
    assert "a*b" not in labels
    rels = graded.algebra.presentation.relations
    assert [[(QQ.one, ("a", "b"))]] == [
        [(c, p) for c, p in rel] for rel in rels
    ]
    # gr is tightly graded by construction
    assert tight_grading_check(graded.algebra).passed


def test_gr_arrow_representatives_lift_correctly():
    alg = build_algebra(two_vertex_cycle())
    graded = gr_algebra(alg)
    for name, vec in graded.arrow_reps.items():
        i = next(
            k
            for k, p in enumerate(alg.basis)
            if len(p.arrows) == 1 and p.arrows[0] == name
        )
        assert vec == {i: QQ.one}


# -- opposite algebra --------------------------------------------------------------


def test_opposite_two_vertex_cycle():
    alg = build_algebra(two_vertex_cycle())
    op, to_op, from_op = opposite_algebra(alg)
    assert op.dim == 5
    assert [p.label() for p in op.basis] == ["e_1", "e_2", "b", "a", "b*a"]
    assert to_op == [{0: 1}, {1: 1}, {3: 1}, {2: 1}, {4: 1}]
    for i in range(5):
        assert _push(0, from_op, to_op[i]) == {i: 1}


# -- subalgebras -------------------------------------------------------------------


def test_subalgebra_of_truncated_polynomial():
    alg = build_algebra(truncated_polynomial(3))
    xsq = {2: QQ.one}
    emb = subalgebra_from_generators(alg, [xsq])
    assert emb.dim == 2
    assert emb.radical().sparse_rows == [xsq]
    assert emb.is_normal()
    report = radical_generation_check(emb)
    assert not report.generates
    assert report.per_power == [False, False, True]
    verdict, grades, failures = tight_subalgebra_check(emb)
    assert grades == [0, 2]
    assert not verdict
    assert failures == ["subalgebra grade 2 is not (grade 1)^2"]


def test_subalgebra_generated_by_arrow_recovers_radical():
    alg = build_algebra(truncated_polynomial(3))
    x = {1: QQ.one}
    emb = subalgebra_from_generators(alg, [x])
    assert emb.dim == 3
    report = radical_generation_check(emb)
    assert report.generates
    assert report.per_power == [True, True, True]
    verdict, grades, _ = tight_subalgebra_check(emb)
    assert verdict
    assert grades == [0, 1, 2]


def test_non_normal_subalgebra_detected():
    alg = build_algebra(two_vertex_cycle())
    a_vec = {2: QQ.one}
    emb = subalgebra_from_generators(alg, [a_vec])
    assert emb.dim == 2
    assert not emb.is_normal()


def test_subalgebra_radical_is_its_meet_with_the_ambient_radical():
    alg = build_algebra(truncated_polynomial(3))
    x = {1: QQ.one}
    emb = subalgebra_from_generators(alg, [x])
    assert len(emb.radical()) == 2 and emb.radical() == alg.radical()


def test_embedded_algebra_is_built_once_per_embedding():
    alg = build_algebra(truncated_polynomial(3))
    xsq = {2: QQ.one}
    emb = subalgebra_from_generators(alg, [xsq])
    first = emb.as_algebra()
    sub_alg, classes, arrows = first
    assert emb.as_algebra() is first
    other = subalgebra_from_generators(alg, [xsq])
    assert other.as_algebra() is not first and other == emb
    assert classes == {"1": ["1"]}
    assert sub_alg.dim == 2
    assert list(arrows.values()) == [xsq]


def test_gr_algebra_and_the_embedding_checks_are_built_once():
    alg = build_algebra(two_vertex_cycle())
    graded = gr_algebra(alg)
    assert gr_algebra(alg) is graded
    emb = subalgebra_from_generators(alg, [alg.basis_vector(2)])
    radgen, tight = radical_generation_check(emb), tight_subalgebra_check(emb)
    assert radical_generation_check(emb) is radgen
    assert tight_subalgebra_check(emb) is tight
    other = subalgebra_from_generators(alg, [alg.basis_vector(2)])
    assert other == emb and radical_generation_check(other) is not radgen
    assert radical_generation_check(other) == radgen and tight_subalgebra_check(other) == tight


def test_embedded_algebra_glues_vertices_no_element_separates():
    alg = build_algebra(two_vertex_cycle())
    arrows = [alg.basis_vector(alg.arrow_index[name]) for name in ("a", "b")]
    glued = subalgebra_from_generators(alg, arrows)
    sub_alg, classes, _ = glued.as_algebra()
    assert classes == {"1+2": ["1", "2"]}
    assert sub_alg.presentation.vertices == ["1+2"]
    assert sub_alg.dim == glued.dim == 4


# -- duality data ------------------------------------------------------------------


def test_duality_swap_accepted():
    alg = build_algebra(two_vertex_cycle(duality=[("a", 1, "b"), ("b", 1, "a")]))
    assert alg.dim == 5


def test_duality_bad_endpoints_rejected():
    with pytest.raises(InputFormatError):
        build_algebra(two_vertex_cycle(duality=[("a", 1, "a"), ("b", 1, "b")]))


def test_duality_must_preserve_relations():
    # a <-> b swap on the commuting-loops algebra with only x^2 = 0 would
    # need y^2 = 0 as well; omitting it breaks the relation ideal.
    pres = QuiverPresentation(
        field=QQ,
        vertices=["1"],
        arrows=[("x", "1", "1"), ("y", "1", "1")],
        relations=[[(1, ("x", "x"))], [(1, ("y", "x"))], [(1, ("y", "y", "y"))]],
        duality=[("x", 1, "y"), ("y", 1, "x")],
    )
    with pytest.raises(InputFormatError):
        build_algebra(pres)


# -- characteristic-0 radical oracle -----------------------------------------------


def radical_from_trace_form(field, dim, multiply):
    """Radical of an associative algebra from the trace bilinear form.

    Valid in characteristic 0 only (raises otherwise): the radical is the
    kernel of (x, y) -> trace(L_x L_y) on the regular representation.
    """
    if field.char != 0:
        raise PreconditionError("trace-form radical is only valid in characteristic 0")
    basis = [{i: field.one} for i in range(dim)]

    def left_matrix(x):
        cols = [multiply(x, basis[j]) for j in range(dim)]
        return [[cols[j].get(i, field.zero) for j in range(dim)] for i in range(dim)]

    mats = [left_matrix(b) for b in basis]
    gram = []
    for i in range(dim):
        row = []
        for j in range(dim):
            # trace(L_i L_j)
            t = field.zero
            for r in range(dim):
                for s in range(dim):
                    t = field.add(t, field.mul(mats[i][r][s], mats[j][s][r]))
            row.append(t)
        gram.append(row)
    _, kernel = kernel_matrix(MatrixExact(field, gram, dim))
    return kernel.rows


def test_trace_form_radical_matches_arrow_ideal():
    alg = build_algebra(two_vertex_cycle())
    rows = radical_from_trace_form(QQ, alg.dim, alg.multiply)
    assert len(rows) == len(alg.radical())
    assert all(alg.radical().contains(r) for r in rows)


def test_trace_form_requires_characteristic_zero():
    alg = build_algebra(two_vertex_cycle(field=F2))
    with pytest.raises(PreconditionError):
        radical_from_trace_form(F2, alg.dim, alg.multiply)


def re_echelon_subalgebra(algebra, generators):
    """Test oracle: the span of the unit and the generators, eliminated again
    together with all products of its basis on every round until its
    dimension stops growing."""
    f, n = algebra.field, algebra.dim
    rows = echelon(MatrixExact(f, [dense_element(algebra, algebra.unit_vector())] + generators,
                               n))[0].rows
    while True:
        products = [dense_multiply(algebra, x, y) for x in rows for y in rows]
        grown = echelon(MatrixExact(f, rows + products, n))[0].rows
        if len(grown) == len(rows):
            return grown
        rows = grown


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, F2, FieldSpec(3)]), st.sampled_from(["cycle", "x^4", "loops"]),
       st.data())
def test_subalgebra_from_generators_matches_the_re_echelon_loop(field, kind, data):
    presentation = {
        "cycle": two_vertex_cycle,
        "x^4": lambda field: truncated_polynomial(4, field),
        "loops": lambda field: QuiverPresentation(
            field, ["1"], [("x", "1", "1"), ("y", "1", "1")],
            [[(1, p)] for p in [("x", "x"), ("y", "y"), ("x", "y", "x"), ("y", "x", "y")]]),
    }[kind](field)
    alg = build_algebra(presentation)
    vector = st.lists(st.integers(min_value=-2, max_value=2), min_size=alg.dim,
                      max_size=alg.dim)
    generators = data.draw(st.lists(vector, max_size=3))
    emb = subalgebra_from_generators(alg, [_sparse_row(field.coerce_row(g)) for g in generators])
    assert emb.space.rows == re_echelon_subalgebra(alg, generators)
    assert emb.space == row_space(field, emb.space.rows, alg.dim)


# -- property tests over random monomial algebras ----------------------------------


@st.composite
def monomial_two_loop_algebra(draw):
    """One vertex, loops x and y, all cubes zero, random quadratic monomials."""
    length2 = [("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")]
    chosen = draw(st.sets(st.sampled_from(length2), max_size=4))
    field = draw(st.sampled_from([QQ, F2]))
    cubes = [(a, b, c) for a in "xy" for b in "xy" for c in "xy"]
    relations = [[(1, p)] for p in cubes] + [[(1, p)] for p in sorted(chosen)]
    pres = QuiverPresentation(field, ["1"], [("x", "1", "1"), ("y", "1", "1")], relations)
    return build_algebra(pres)


@settings(max_examples=25, deadline=None)
@given(monomial_two_loop_algebra())
def test_multiplication_is_associative(alg):
    unit = alg.basis_vector
    for i in range(alg.dim):
        for j in range(alg.dim):
            ij = alg.multiply(unit(i), unit(j))
            for k in range(alg.dim):
                lhs = alg.multiply(ij, unit(k))
                rhs = alg.multiply(unit(i), alg.multiply(unit(j), unit(k)))
                assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(monomial_two_loop_algebra())
def test_monomial_algebras_are_tightly_graded(alg):
    assert sum(alg.graded_dims()) == alg.dim
    assert tight_grading_check(alg).passed
    graded = gr_algebra(alg)
    assert graded.graded_dims() == alg.graded_dims()


@settings(max_examples=15, deadline=None)
@given(monomial_two_loop_algebra())
def test_opposite_preserves_radical_layer_dims(alg):
    op, to_op, from_op = opposite_algebra(alg)
    assert op.graded_dims() == alg.graded_dims()
    # from_op and to_op are inverse on every basis element of either side
    char = alg.field.char
    for i in range(alg.dim):
        assert _push(char, from_op, to_op[i]) == alg.basis_vector(i)
        assert _push(char, to_op, from_op[i]) == op.basis_vector(i)


def chain_algebra(n, field):
    return build_algebra(a1_chain_with_duality(n, field))


def quiver_algebras():
    """The random monomial quiver algebras of the module tests, and the A1
    chains n = 2, 3, 4, over Q, F_2 and F_3."""
    chains = st.builds(chain_algebra, st.integers(2, 4), st.sampled_from([QQ, F2, FieldSpec(3)]))
    return st.one_of(monomial_quiver_algebra(), chains)


@settings(max_examples=80, deadline=None)
@given(quiver_algebras(), st.data())
def test_sparse_multiply_matches_the_dense_oracle(alg, data):
    """multiply on sparse elements against the dense product loop, on random
    elements with entries in -3..3 (zero, sparse and full ones): the same
    product, with canonical nonzero entries only."""
    f = alg.field
    element = st.lists(st.integers(-3, 3).map(f.coerce), min_size=alg.dim, max_size=alg.dim)
    for x, y in data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=4)):
        product = alg.multiply(_sparse_row(x), _sparse_row(y))
        assert product == _sparse_row(dense_multiply(alg, x, y))
        assert all(c and type(c) is type(f.coerce(c)) and c == f.coerce(c)
                   for c in product.values())
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.multiply(alg.basis_vector(i), alg.basis_vector(j)) \
                == alg.mult_basis(i, j) \
                == _sparse_row(dense_multiply(alg, dense_element(alg, {i: 1}),
                                              dense_element(alg, {j: 1})))
