"""Representations: filtrations, gr, covers, resolutions, Ext, Koszulity.

Frozen values below were derived by hand from the right-module conventions
(arrow a: u -> v acts by a (dims[v] x dims[u]) matrix, paths act left to
right) before the implementation was run on them.  The two-vertex cycle
with b*a = 0 has P(1) uniserial with layers L1, L2, L1 and P(2) = [L2; L1];
the standard modules for the order 1 < 2 are Delta(1) = L(1) and
Delta(2) = P(2), and the costandard ones are Nabla(1) = L(1) and
Nabla(2) = P(1)/rad^2.
"""

import hashlib
from fractions import Fraction
from functools import cache
from itertools import combinations
from itertools import product as iter_product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dense_oracle import _ext_groups as hom_complex_ext_groups
from dense_oracle import (DenseSubspace, add, apply, block, columns_of, dense_hom_space,
                          dense_map, determinant, element_total, embed, identity, invert,
                          invertible_by_determinant_grid, is_zero, kernel_matrix, mul,
                          path_total, relation_failure, resolution_maps, scale, total_action,
                          transpose, zero)
from grkoszul import rep_homology
from grkoszul.errors import (
    GrkoszulError,
    InputFormatError,
    InternalCheckError,
    PreconditionError,
    check,
)
from grkoszul.exactlin import (QQ, FieldSpec, MatrixExact, Subspace, row_space, _dense_row,
                               _push, _sparse_row)
from grkoszul.algebra_core import (
    FiniteDimAlgebra,
    QuiverPresentation,
    build_algebra,
    gr_algebra,
    opposite_algebra,
    radical_generation_check,
    subalgebra_from_generators,
    tight_grading_check,
    tight_subalgebra_check,
)
from grkoszul.rep_homology import (
    GradedRepresentation,
    Representation,
    RestrictionReport,
    _invertible_combination,
    direct_sum,
    dual_rep,
    ext_groups,
    ext_table,
    filtration_slice,
    gr_ext1_compare,
    gr_of_surjection,
    gr_rep,
    gr_sharp,
    grade_zero_graded,
    graded_hom_space,
    graded_is_isomorphic,
    graded_minimal_resolution,
    head_multiplicities,
    hom_space,
    is_isomorphic,
    koszul_check,
    layer_dims,
    make_representation,
    minimal_resolution,
    projective_cover,
    projective_rep,
    quotient_rep,
    radical_series,
    radical_space,
    restrict_iso_check,
    restrict_rep,
    restricts_projectively,
    simple_rep,
    socle_series,
    sub_rep,
    zero_rep,
)

F2 = FieldSpec(2)


def two_vertex_cycle(field=QQ):
    return QuiverPresentation(
        field=field,
        vertices=["1", "2"],
        arrows=[("a", "1", "2"), ("b", "2", "1")],
        relations=[[(1, ("b", "a"))]],
    )


def truncated_polynomial(power, field=QQ):
    return QuiverPresentation(
        field=field,
        vertices=["1"],
        arrows=[("x", "1", "1")],
        relations=[[(1, ("x",) * power)]],
    )


@pytest.fixture(scope="module")
def cycle():
    return build_algebra(two_vertex_cycle())


@pytest.fixture(scope="module")
def cycle_mods(cycle):
    return {
        "P1": projective_rep(cycle, "1"),
        "P2": projective_rep(cycle, "2"),
        "L1": simple_rep(cycle, "1"),
        "L2": simple_rep(cycle, "2"),
    }


def nabla2(cycle, cycle_mods):
    """P(1)/rad^2: head L1, socle L2."""
    return filtration_slice(cycle_mods["P1"], 0, 2)


# -- construction and validation ------------------------------------------------------


def test_projective_layers_frozen(cycle_mods):
    p1, p2 = cycle_mods["P1"], cycle_mods["P2"]
    assert p1.dims == {"1": 2, "2": 1}
    assert layer_dims(p1) == [{"1": 1, "2": 0}, {"1": 0, "2": 1}, {"1": 1, "2": 0}]
    assert p2.dims == {"1": 1, "2": 1}
    assert layer_dims(p2) == [{"1": 0, "2": 1}, {"1": 1, "2": 0}]
    assert head_multiplicities(p1) == {"1": 1, "2": 0}


def test_make_representation_validates(cycle):
    good = projective_rep(cycle, "1")
    rebuilt = make_representation(cycle, good.dims, good.columns)
    assert rebuilt.total_dim == 3
    with pytest.raises(InputFormatError):
        make_representation(cycle, {"1": 1}, {})
    # a: 1 -> 2 needs one column per coordinate at 1, with rows below dims["2"] = 1
    for bad in ([{}], [{1: 1}, {}], [{-1: 1}, {}]):
        with pytest.raises(InputFormatError, match="arrow 'a' needs shape"):
            make_representation(cycle, good.dims, dict(good.columns, a=bad))
    # b then a must act by zero; make it not do so on a 1+1 dimensional module
    viol = {
        "a": MatrixExact(QQ, [[QQ.one]], 1),
        "b": MatrixExact(QQ, [[QQ.one]], 1),
    }
    with pytest.raises(InputFormatError):
        make_representation(cycle, {"1": 1, "2": 1}, columns_of(viol))


def test_zero_and_simple(cycle):
    z = zero_rep(cycle)
    assert z.total_dim == 0
    assert layer_dims(z) == []
    l1 = simple_rep(cycle, "1")
    assert layer_dims(l1) == [{"1": 1, "2": 0}]
    with pytest.raises(InputFormatError):
        simple_rep(cycle, "7")


def test_submodule_closure_enforced(cycle_mods):
    p1 = cycle_mods["P1"]
    # the line through e_1 is not action-closed (e_1 . a = a)
    e1_row = embed(p1, "1", [1, 0])
    with pytest.raises(InputFormatError):
        sub_rep(p1, [e1_row])
    with pytest.raises(InputFormatError):
        quotient_rep(p1, [e1_row])


def test_filtration_slice_bounds(cycle_mods):
    p1 = cycle_mods["P1"]
    with pytest.raises(PreconditionError):
        filtration_slice(p1, 2, 1)
    with pytest.raises(PreconditionError):
        filtration_slice(p1, -1)
    rad = filtration_slice(p1, 1)
    assert layer_dims(rad) == [{"1": 0, "2": 1}, {"1": 1, "2": 0}]
    top = filtration_slice(p1, 0, 1)
    assert layer_dims(top) == [{"1": 1, "2": 0}]


def socle_sub(rep, i):
    """soc_i M as a representation (i = 1 is the socle); test-only."""
    series = socle_series(rep)
    sub, _ = sub_rep(rep, series[min(i, len(series) - 1)])
    return sub


def test_socle_of_uniserial(cycle_mods):
    p1 = cycle_mods["P1"]
    soc = socle_sub(p1, 1)
    assert soc.dims == {"1": 1, "2": 0}
    assert socle_sub(p1, 3).total_dim == 3


def test_direct_sum_and_dual(cycle, cycle_mods):
    p1, l2 = cycle_mods["P1"], cycle_mods["L2"]
    s = direct_sum(p1, l2)
    assert s.dims == {"1": 2, "2": 2}
    assert head_multiplicities(s) == {"1": 1, "2": 1}
    op, _, _ = opposite_algebra(cycle)
    d = dual_rep(p1, op)
    # P(1) is uniserial L1, L2, L1, self-dual as a layer pattern
    assert layer_dims(d) == [{"1": 1, "2": 0}, {"1": 0, "2": 1}, {"1": 1, "2": 0}]


# -- hom spaces and isomorphism --------------------------------------------------------


def test_hom_dims_match_path_spaces(cycle_mods):
    p1, p2 = cycle_mods["P1"], cycle_mods["P2"]
    # Hom(P(u), M) has the dimension of the u-block of M
    assert len(hom_space(p1, p1)) == 2
    assert len(hom_space(p1, p2)) == 1
    assert len(hom_space(p2, p1)) == 1
    assert len(hom_space(p2, p2)) == 1
    assert len(hom_space(cycle_mods["L1"], cycle_mods["L2"])) == 0


def test_uniserial_vs_semisimple_not_isomorphic(cycle, cycle_mods):
    uni = nabla2(cycle, cycle_mods)
    ss = direct_sum(cycle_mods["L1"], cycle_mods["L2"])
    ok, witness = is_isomorphic(uni, ss)
    assert not ok and witness is None


def test_isomorphism_finds_witness_across_basis_change(cycle, cycle_mods):
    p1 = cycle_mods["P1"]
    scaled = make_representation(
        cycle,
        p1.dims,
        columns_of({"a": scale(p1.action["a"], 3), "b": p1.action["b"]}),
    )
    ok, witness = is_isomorphic(p1, scaled)
    assert ok
    dense = dense_map(QQ, witness, p1.total_dim)
    for name in p1.columns:
        lhs = mul(dense, total_action(p1, name))
        rhs = mul(total_action(scaled, name), dense)
        assert lhs == rhs


def test_semisimple_isomorphism_is_immediate(cycle_mods):
    l1, l2 = cycle_mods["L1"], cycle_mods["L2"]
    big_a = direct_sum(*([l1] * 4 + [l2] * 4))
    big_b = direct_sum(*([l2] * 4 + [l1] * 4))
    ok, witness = is_isomorphic(big_a, big_b)
    assert ok and witness is not None


def test_isomorphism_over_f2_enumerates_field(cycle_mods):
    alg2 = build_algebra(two_vertex_cycle(field=F2))
    pa = projective_rep(alg2, "1")
    pb = projective_rep(alg2, "1")
    ok, _ = is_isomorphic(pa, pb)
    assert ok


def test_invertible_combination_cap_and_completeness():
    # the matrix units E_11 and E_12 as their sparse columns
    e11 = [{0: QQ.one}, {}]
    e12 = [{}, {0: QQ.one}]
    # End(M) and End(N) as large as the two-map Hom space refute nothing,
    # so each search below reaches its grid
    unrefuted = lambda: (2, 2)
    # no invertible combination exists; the full grid proves it
    assert _invertible_combination(QQ, [e11, e12], 2, unrefuted) is None
    # det(a h1 + b h2) = ab(a - b): neither map nor their sum is invertible,
    # and the grid finds h1 + 2 h2, as the determinant grid does
    h1 = [{0: 1}, {}, {2: 1}]
    h2 = [{}, {1: 1}, {2: -1}]
    witness = _invertible_combination(QQ, [h1, h2], 3, unrefuted)
    assert witness == [{0: 1}, {1: 2}, {2: -1}]
    assert dense_map(QQ, witness, 3) == invertible_by_determinant_grid(
        QQ, [dense_map(QQ, h, 3) for h in (h1, h2)], 3, rep_homology.ISO_SEARCH_CAP)
    import grkoszul.rep_homology as rh

    old = rh.ISO_SEARCH_CAP
    rh.ISO_SEARCH_CAP = 2
    try:
        with pytest.raises(PreconditionError):
            _invertible_combination(QQ, [e11, e12], 2, unrefuted)
    finally:
        rh.ISO_SEARCH_CAP = old


def test_hom_dimensions_refute_an_isomorphism_before_the_grid(monkeypatch):
    """M_0 + L and M_1 + L over k<x,y>/(x,y)^2, with M_t spanned by u and
    u.x = w, u.y = t w, agree in their vertex and layer dimensions (and, in
    the grading u in 0, w and L in 1, in their graded pieces), and no single
    hom or the sum of the basis homs is invertible.  dim Hom(M, N) = 4 and
    dim End(M) = 5 (graded: 2 and 3) refute an isomorphism with no search,
    which a cap of 0 determinants would refuse."""
    alg = build_algebra(QuiverPresentation(
        QQ, ["1"], [("x", "1", "1"), ("y", "1", "1")],
        [[(1, p)] for p in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y"))]))

    def m(t):
        return direct_sum(make_representation(
            alg, {"1": 2}, columns_of({"x": MatrixExact(QQ, [[0, 0], [1, 0]]),
                                       "y": MatrixExact(QQ, [[0, 0], [t, 0]])})),
            simple_rep(alg, "1"))

    m0, m1 = m(0), m(1)
    assert layer_dims(m0) == layer_dims(m1)
    assert (len(hom_space(m0, m1)), len(hom_space(m0, m0))) == (4, 5)
    monkeypatch.setattr(rep_homology, "ISO_SEARCH_CAP", 0)
    assert is_isomorphic(m0, m1) == (False, None)
    g0, g1 = (GradedRepresentation(x, {"1": [0, 1, 1]}) for x in (m0, m1))
    assert (len(graded_hom_space(g0, g1).get(0, [])),
            len(graded_hom_space(g0, g0).get(0, []))) == (2, 3)
    assert not graded_is_isomorphic(g0, g1)
    # an isomorphic pair still finds its witness
    assert is_isomorphic(m1, m(1))[0]


# -- gr of modules ----------------------------------------------------------------------


def test_gr_of_projective_frozen(cycle, cycle_mods):
    graded = gr_algebra(cycle)
    g = gr_rep(cycle_mods["P1"], graded)
    assert g.grades == {"1": [0, 2], "2": [1]}
    assert g.piece_dims() == {
        0: {"1": 1, "2": 0},
        1: {"1": 0, "2": 1},
        2: {"1": 1, "2": 0},
    }
    back = make_representation(cycle, g.rep.dims, g.rep.columns)
    ok, _ = is_isomorphic(cycle_mods["P1"], back)
    assert ok


def test_gr_of_semisimple_sits_in_grade_zero(cycle, cycle_mods):
    graded = gr_algebra(cycle)
    ss = direct_sum(cycle_mods["L1"], cycle_mods["L2"])
    g = gr_rep(ss, graded)
    assert g.grades == {"1": [0], "2": [0]}
    assert grade_zero_graded(ss).grades == g.grades


def test_gr_sharp_of_socle_concentrates_deep(cycle, cycle_mods):
    graded = gr_algebra(cycle)
    p1 = cycle_mods["P1"]
    soc_rows = radical_series(p1)[2].rows
    g = gr_sharp(p1, soc_rows, graded)
    # the socle line meets rad^0, rad^1, rad^2 all in the same line
    assert g.grades == {"1": [2], "2": []}


def test_gr_preserves_surjections(cycle, cycle_mods):
    graded = gr_algebra(cycle)
    p1 = cycle_mods["P1"]
    for cut in (1, 2):
        quot, proj = quotient_rep(p1, radical_series(p1)[cut])
        gm, gn, mat, surjective = gr_of_surjection(p1, quot, proj, graded)
        assert surjective
        assert gm.piece_dims()[0] == gn.piece_dims()[0]
    zero_map = [{} for _ in range(p1.total_dim)]
    with pytest.raises(InputFormatError):
        gr_of_surjection(p1, p1, zero_map, graded)


def test_gr_of_surjection_refuses_exactly_the_non_homomorphisms(cycle, cycle_mods):
    """The check proj(x.a) = proj(x).a on every basis vector x against the
    dense proj T_a = T_a proj of the oracle, on every one-entry change of
    the quotient maps of P(1)."""
    graded = gr_algebra(cycle)
    p1 = cycle_mods["P1"]
    for cut in (1, 2):
        quot, proj = quotient_rep(p1, radical_series(p1)[cut])
        for i, j in iter_product(range(quot.total_dim), range(p1.total_dim)):
            cols = [dict(col) for col in proj]
            cols[j][i] = cols[j].get(i, 0) + 1
            if not cols[j][i]:
                del cols[j][i]
            changed = dense_map(QQ, cols, quot.total_dim)
            is_map = all(mul(changed, total_action(p1, a)) == mul(total_action(quot, a), changed)
                         for a in p1.columns)
            got = outcome(lambda: gr_of_surjection(p1, quot, cols, graded))
            assert ("not a module homomorphism" not in got) == is_map


def test_graded_hom_space_degrees(cycle, cycle_mods):
    graded = gr_algebra(cycle)
    g1 = gr_rep(cycle_mods["P1"], graded)
    split = graded_hom_space(g1, g1)
    assert len(split.get(0, [])) == 1
    assert len(split.get(2, [])) == 1
    assert len(split.get(1, [])) == 0
    assert graded_is_isomorphic(g1, g1)
    assert not graded_is_isomorphic(g1, g1.shift(1))
    assert graded_is_isomorphic(g1.shift(3), g1, shift=3)


def test_graded_hom_space_rejects_an_inhomogeneous_basis_hom(monkeypatch, cycle, cycle_mods):
    """A hom basis holding the sum of the degree-0 and degree-2 endomorphisms
    of gr P(1) cannot be split by degree."""
    g1 = gr_rep(cycle_mods["P1"], gr_algebra(cycle))
    real = rep_homology.hom_space
    homs = real(g1.rep, g1.rep)
    assert sorted(graded_hom_space(g1, g1)) == [0, 2] and len(homs) == 2
    mixed = rep_homology._combination(QQ.char, homs, {0: 1, 1: 1}, g1.rep.total_dim)
    monkeypatch.setattr(rep_homology, "hom_space", lambda m, n: [mixed])
    with pytest.raises(InternalCheckError, match="not homogeneous"):
        graded_hom_space(g1, g1)


# -- covers and resolutions -------------------------------------------------------------


def test_projective_cover_of_simple(cycle_mods):
    cov = projective_cover(cycle_mods["L1"])
    assert cov.head == {"1": 1, "2": 0}
    assert cov.summands == ["1"]
    assert cov.projective.total_dim == 3
    assert cov.syzygy.total_dim == 2
    assert head_multiplicities(cov.syzygy) == {"1": 0, "2": 1}


def test_cover_of_truncation_and_of_projective(cycle, cycle_mods):
    uni = nabla2(cycle, cycle_mods)
    cov = projective_cover(uni)
    assert cov.summands == ["1"]
    ok, _ = is_isomorphic(cov.syzygy, cycle_mods["L1"])
    assert ok
    cov_p = projective_cover(cycle_mods["P2"])
    assert cov_p.syzygy.total_dim == 0


def test_minimal_resolutions_frozen(cycle_mods):
    res1 = minimal_resolution(cycle_mods["L1"], 5)
    assert res1.summand_vertices == [["1"], ["2"]]
    assert res1.finite and res1.projective_dimension == 1
    res2 = minimal_resolution(cycle_mods["L2"], 5)
    assert res2.summand_vertices == [["2"], ["1"], ["2"]]
    assert res2.finite and res2.projective_dimension == 2
    res_p = minimal_resolution(cycle_mods["P1"], 5)
    assert res_p.projective_dimension == 0


def test_resolution_minimality_heads(cycle_mods):
    res = minimal_resolution(cycle_mods["L2"], 5)
    for i in range(1, len(res.terms)):
        assert head_multiplicities(res.terms[i]) == head_multiplicities(res.syzygies[i - 1])


def test_euler_characteristic(cycle_mods):
    for name in ("L1", "L2"):
        res = minimal_resolution(cycle_mods[name], 5)
        assert res.finite
        euler = sum((-1) ** i * t.total_dim for i, t in enumerate(res.terms))
        assert euler == cycle_mods[name].total_dim


def test_periodic_resolution_over_dual_numbers():
    alg = build_algebra(truncated_polynomial(2))
    k = simple_rep(alg, "1")
    res = minimal_resolution(k, 4)
    assert not res.finite
    assert res.projective_dimension is None
    assert [t.total_dim for t in res.terms] == [2, 2, 2, 2, 2]


# -- resolutions and Ext memoised on the algebra ----------------------------------------


def _counting(monkeypatch, name):
    """Wrap the rep_homology builder `name` so that its calls are counted."""
    calls = []
    real = getattr(rep_homology, name)
    monkeypatch.setattr(rep_homology, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _x_module(alg, entry):
    """The 2-dimensional module of k[x]/(x^3) with x sending e_0 to entry * e_1."""
    return make_representation(alg, {"1": 2},
                               columns_of({"x": MatrixExact(alg.field, [[0, 0], [entry, 0]])}))


def test_equal_modules_share_one_resolution_and_ext(monkeypatch):
    alg = build_algebra(truncated_polynomial(3))
    covers = _counting(monkeypatch, "projective_cover")
    homs = _counting(monkeypatch, "hom_space")
    a, b = _x_module(alg, 1), _x_module(alg, Fraction(2, 2))
    assert a is not b
    res_a, res_b = minimal_resolution(a, 3), minimal_resolution(b, 3)
    assert len(res_a.covers) == 4
    assert all(x is y for x, y in zip(res_a.covers, res_b.covers, strict=True))
    assert resolution_maps(res_a) == resolution_maps(res_b)
    assert ext_groups(a, simple_rep(alg, "1"), 2) == ext_groups(b, simple_rep(alg, "1"), 2)
    ga, gb = (GradedRepresentation(m, {"1": [0, 1]}) for m in (a, b))
    assert graded_minimal_resolution(ga, 3).heads == graded_minimal_resolution(gb, 3).heads
    # the second syzygy x P has a's content, so the chain repeats a's cover and
    # two covers serve four terms; ext and the graded resolutions read a's
    # resolution, which the first call made.  Ext to degree 2 reads Hom from
    # a, x^2 P and x P into the simple: x^2 P is the simple and x P has a's
    # content, so two Hom solves serve a and b
    assert res_a.covers[2] is res_a.covers[0] and res_a.covers[3] is res_a.covers[1]
    assert len(covers) == 2
    assert [rep_homology._content(m) for m, _ in homs] \
        == [rep_homology._content(m) for m in (a, simple_rep(alg, "1"))]
    # a returned Ext list is the caller's own
    ext_groups(a, simple_rep(alg, "1"), 2).append(7)
    assert ext_groups(b, simple_rep(alg, "1"), 2) == [1, 1, 1]


def test_graded_and_ungraded_resolutions_share_their_covers(monkeypatch):
    """A graded resolution grades the covers of the ungraded one of an equal
    module at the same bound: no cover is built again."""
    alg = build_algebra(truncated_polynomial(3))
    covers = _counting(monkeypatch, "projective_cover")
    a, b = _x_module(alg, 1), _x_module(alg, Fraction(2, 2))
    res = minimal_resolution(a, 2)
    built = len(covers)
    gres = graded_minimal_resolution(GradedRepresentation(b, {"1": [0, 1]}), 2)
    # the third cover is the first again: the second syzygy has a's content
    assert len(covers) == built == len({id(c) for c in res.covers}) == 2
    assert all(g is c for g, c in zip(minimal_resolution(b, 2).covers, res.covers, strict=True))
    assert all(g.rep is t for g, t in zip(gres.terms + gres.syzygies, res.terms + res.syzygies))
    # the syzygies are x^2 P in grade 2, then x P(2) + x^2 P(2) from grade 3
    assert gres.heads == [[("1", 0)], [("1", 2)], [("1", 3)]]


def test_different_modules_do_not_share_a_resolution(monkeypatch):
    alg = build_algebra(truncated_polynomial(3))
    covers = _counting(monkeypatch, "projective_cover")
    homs = _counting(monkeypatch, "hom_space")
    a, c = _x_module(alg, 1), _x_module(alg, 2)  # isomorphic, one action entry apart
    other = build_algebra(truncated_polynomial(3))
    d = _x_module(other, 1)  # the same content over another algebra object
    results = [minimal_resolution(m, 3) for m in (a, c, d)]
    # a and d two covers each, c one of its own: its first syzygy has the
    # content of a's
    assert len(covers) == 5
    assert results[0].covers[0] is not results[1].covers[0]
    assert results[1].covers[1] is results[0].covers[1]
    assert resolution_maps(results[0]) != resolution_maps(results[1])
    assert results[0].summand_vertices == results[1].summand_vertices
    assert results[2].terms[0].algebra is other
    assert results[2].covers[0] is not results[0].covers[0]
    # a lower bound reads a prefix of the chain and builds no cover
    lower = minimal_resolution(a, 2)
    assert len(covers) == 5
    assert all(x is y for x, y in zip(lower.covers, results[0].covers[:3], strict=True))
    assert resolution_maps(lower) == resolution_maps(results[0])[:3]
    # Ext to degree 1 reads Hom from each module and its first syzygy into
    # the simple: a and c solve their own, and share the one from the syzygy
    for m in (a, c):
        ext_groups(m, simple_rep(alg, "1"), 1)
    assert [m for m, _ in homs] == [a, results[0].syzygies[0], c]
    with pytest.raises(PreconditionError):
        ext_groups(a, simple_rep(other, "1"), 1)


def _resolution_facts(res):
    return (res.summand_vertices, resolution_maps(res), res.finite, res.projective_dimension,
            [rep_homology._content(m) for m in res.terms + res.syzygies])


def _fresh_resolution(m, bound):
    """`minimal_resolution` with every memo disabled: built from scratch."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteDimAlgebra, "memoized", lambda self, key, build: build())
        return minimal_resolution(m, bound)


def _grown_in_every_order(m, top, shuffled):
    """Ask for m's resolution at the bounds 0..top in ascending, descending
    and shuffled order, each time over a new copy of the algebra, so from an
    empty memo.  Every answer equals a fresh build at its bound, and its
    covers are a prefix of the covers at the top bound."""
    fresh = [_resolution_facts(_fresh_resolution(m, b)) for b in range(top + 1)]
    for order in (range(top + 1), range(top, -1, -1), shuffled):
        copy = make_representation(build_algebra(m.algebra.presentation), m.dims, m.columns)
        results = {b: minimal_resolution(copy, b) for b in order}
        for b, res in results.items():
            assert _resolution_facts(res) == fresh[b]
            assert all(x is y for x, y in zip(res.covers, results[top].covers[:b + 1],
                                              strict=True))


@pytest.mark.parametrize("field", [QQ, F2, FieldSpec(3), FieldSpec(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_grown_resolutions_match_fresh_builds_on_the_battery(field):
    """A resolution is a prefix of one chain grown on demand, so the order in
    which bounds are asked for must not show in any answer."""
    for pres, top, shuffled in ((two_vertex_cycle(field), 4, [2, 0, 4, 1, 3]),
                                (truncated_polynomial(3, field), 4, [3, 1, 4, 0, 2]),
                                (all_cubes(field), 3, [1, 3, 0, 2])):
        for _, m in truncations(build_algebra(pres)):
            _grown_in_every_order(m, top, shuffled)


def test_rep_homology_holds_no_module_level_dict():
    assert not [name for name, value in vars(rep_homology).items()
                if isinstance(value, dict) and not name.startswith("__")]


# -- Ext ---------------------------------------------------------------------------------


def test_ext_between_simples_frozen(cycle_mods):
    l1, l2 = cycle_mods["L1"], cycle_mods["L2"]
    assert ext_groups(l1, l1, 2) == [1, 0, 0]
    assert ext_groups(l1, l2, 2) == [0, 1, 0]
    assert ext_groups(l2, l1, 2) == [0, 1, 0]
    assert ext_groups(l2, l2, 2) == [1, 0, 1]


def test_standard_costandard_orthogonality(cycle, cycle_mods):
    deltas = {"1": cycle_mods["L1"], "2": cycle_mods["P2"]}
    nablas = {"1": cycle_mods["L1"], "2": nabla2(cycle, cycle_mods)}
    for lam, d in deltas.items():
        for mu, nb in nablas.items():
            expected = [1 if lam == mu else 0, 0, 0]
            assert ext_groups(d, nb, 2) == expected


def test_ext_self_extensions_of_dual_numbers_simple():
    alg = build_algebra(truncated_polynomial(2))
    k = simple_rep(alg, "1")
    assert ext_groups(k, k, 4) == [1, 1, 1, 1, 1]


def test_ext_table_ungraded(cycle_mods):
    t = ext_table(cycle_mods["L2"], 2)
    assert t.entries == {
        ("1", 0): 0,
        ("2", 0): 1,
        ("1", 1): 1,
        ("2", 1): 0,
        ("1", 2): 0,
        ("2", 2): 1,
    }
    assert t.graded_entries is None
    assert t.finite and t.projective_dimension == 2


def test_ext_table_graded_refines_ungraded(cycle_mods):
    plain = ext_table(cycle_mods["L2"], 2)
    t = ext_table(cycle_mods["L2"], 2, graded=True)
    assert t.entries == plain.entries
    assert t.graded_entries == {
        ("2", 0, 0): 1,
        ("1", 1, 1): 1,
        ("2", 2, 2): 1,
    }


def test_ext_table_checks_the_graded_refinement_against_the_resolution(monkeypatch, cycle_mods):
    """The ungraded entries come from M's own resolution, so a graded
    resolution that lost a head no longer sums to them."""
    real = rep_homology.graded_minimal_resolution

    def dropped(grep, n_max):
        res = real(grep, n_max)
        res.heads[1].pop()
        return res

    monkeypatch.setattr(rep_homology, "graded_minimal_resolution", dropped)
    with pytest.raises(InternalCheckError, match="graded refinement does not sum"):
        ext_table(cycle_mods["L2"], 2, graded=True)


def test_ext_table_refuses_before_it_resolves(monkeypatch, cycle_mods):
    """The tightness and gradability errors come before any resolution."""
    covers = _counting(monkeypatch, "projective_cover")
    monkeypatch.setattr(rep_homology, "is_isomorphic", lambda m, n: (False, None))
    with pytest.raises(InputFormatError, match="admits no grading"):
        ext_table(cycle_mods["L2"], 2, graded=True)
    monkeypatch.setattr(rep_homology, "tight_grading_check",
                        lambda alg: type("Report", (), {"passed": False})())
    with pytest.raises(InputFormatError, match="tightly graded"):
        ext_table(cycle_mods["L2"], 2, graded=True)
    assert covers == []


def test_ext_table_graded_needs_tight_algebra():
    pres = QuiverPresentation(
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
    alg = build_algebra(pres)
    with pytest.raises(InputFormatError):
        ext_table(simple_rep(alg, "1"), 1, graded=True)


# -- brute-force Ext^1 oracle ------------------------------------------------------------
#
# Test-only: Ext^1 by classifying extensions on the structure constants of
# any unital basis, a second route independent of projective covers.


def structure_table(algebra):
    f = algebra.field
    table = []
    for i in range(algebra.dim):
        row = []
        for j in range(algebra.dim):
            dense = [f.zero] * algebra.dim
            for k, c in algebra.mult_basis(i, j).items():
                dense[k] = c
            row.append(dense)
        table.append(row)
    return table


def restrict_action(rep, emb):
    """Action matrices of the subalgebra basis on the restricted module, in
    the module's flat coordinates."""
    return [element_total(rep, b) for b in emb.space.sparse_rows]


def delta0(field, act_m, act_n):
    """The map F -> (F R_M(b_i) - R_N(b_i) F)_i on matrices F: M -> N.

    Row r*dim_m + c is the image of the matrix unit E_(r, c), flattened at
    position (i*dim_n + r)*dim_m + c.  Its left kernel is Hom(M, N) over the
    acting basis and its row space the coboundaries B^1.
    """
    k = len(act_m)
    dim_m = act_m[0].ncols if act_m else 0
    dim_n = act_n[0].ncols if act_n else 0
    width = k * dim_n * dim_m

    def pos(i, r, c):
        return (i * dim_n + r) * dim_m + c

    rows = []
    for r0 in range(dim_n):
        for c0 in range(dim_m):
            vec = [field.zero] * width
            for i in range(k):
                for t in range(dim_m):
                    val = act_m[i].rows[c0][t]
                    if val:
                        idx = pos(i, r0, t)
                        vec[idx] = field.add(vec[idx], val)
                for t in range(dim_n):
                    val = act_n[i].rows[t][r0]
                    if val:
                        idx = pos(i, t, c0)
                        vec[idx] = field.sub(vec[idx], val)
            rows.append(vec)
    return MatrixExact(field, rows, width)


def cocycle_data(field, table, act_m, act_n):
    """Bases of Z^1 and B^1 for extensions 0 -> N -> E -> M -> 0.

    A cocycle assigns each basis element b_i a matrix C_i: M -> N subject to
    C(b_i b_j) = R_N(b_j) C_i + C_j R_M(b_i); coboundaries are F R_M - R_N F.
    Flat layout: position (i, r, c) = (i*dim_n + r)*dim_m + c.
    """
    k = len(table)
    dim_m = act_m[0].ncols if act_m else 0
    dim_n = act_n[0].ncols if act_n else 0
    width = k * dim_n * dim_m
    if width == 0:
        return [], [], 0

    def pos(i, r, c):
        return (i * dim_n + r) * dim_m + c

    rows = []
    for i in range(k):
        for j in range(k):
            coeffs = table[i][j]
            for r in range(dim_n):
                for c in range(dim_m):
                    row = [field.zero] * width
                    for s, coeff in enumerate(coeffs):
                        if coeff:
                            idx = pos(s, r, c)
                            row[idx] = field.add(row[idx], coeff)
                    for t in range(dim_n):
                        val = act_n[j].rows[r][t]
                        if val:
                            idx = pos(i, t, c)
                            row[idx] = field.sub(row[idx], val)
                    for t in range(dim_m):
                        val = act_m[i].rows[t][c]
                        if val:
                            idx = pos(j, r, t)
                            row[idx] = field.sub(row[idx], val)
                    if any(x != field.zero for x in row):
                        rows.append(row)
    if rows:
        _, kernel = kernel_matrix(MatrixExact(field, rows, width))
        z_basis = list(kernel.rows)
    else:
        z_basis = identity(field, width).rows
    b_basis = row_space(field, delta0(field, act_m, act_n).rows, width).rows
    return z_basis, b_basis, width


def ext1_bruteforce(field, table, act_m, act_n):
    """dim Ext^1 by classifying extensions directly on the structure constants."""
    z_basis, b_basis, width = cocycle_data(field, table, act_m, act_n)
    if width == 0:
        return 0
    assert len(z_basis) >= len(b_basis)
    return len(z_basis) - len(b_basis)


def ext1_pullback_rank(field, table, act_m, act_n, act_s, incl):
    """Rank data of the map Ext^1(M, N) -> Ext^1(S, N) induced by S -> M.

    incl has shape (dim M x dim S).  Returns (dim Ext^1(M, N),
    dim Ext^1(S, N), rank of the induced map).
    """
    z_m, b_m, width_m = cocycle_data(field, table, act_m, act_n)
    z_s, b_s, width_s = cocycle_data(field, table, act_s, act_n)
    ext_m = len(z_m) - len(b_m) if width_m else 0
    ext_s = len(z_s) - len(b_s) if width_s else 0
    if width_m == 0 or width_s == 0:
        return ext_m, ext_s, 0
    k = len(table)
    dim_m = act_m[0].ncols
    dim_n = act_n[0].ncols
    dim_s = act_s[0].ncols

    def pull(flat):
        out = [field.zero] * width_s
        for i in range(k):
            block = MatrixExact(
                field,
                [[flat[(i * dim_n + r) * dim_m + c] for c in range(dim_m)]
                 for r in range(dim_n)],
                dim_m,
            )
            pulled = mul(block, incl)
            for r in range(dim_n):
                for c in range(dim_s):
                    out[(i * dim_n + r) * dim_s + c] = pulled.rows[r][c]
        return out

    images = [pull(z) for z in z_m]
    base = row_space(field, list(b_s), width_s)
    stacked = row_space(field, list(b_s) + images, width_s)
    return ext_m, ext_s, len(stacked) - len(base)


def all_pairs_ext1_agree(alg, modules):
    table = structure_table(alg)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    simples = [simple_rep(alg, v) for v in alg.presentation.vertices]
    for m in modules:
        act_m = [element_total(m, b) for b in basis]
        for s in simples:
            act_s = [element_total(s, b) for b in basis]
            bf = ext1_bruteforce(alg.field, table, act_m, act_s)
            assert bf == ext_groups(m, s, 1)[1]


def test_bruteforce_ext1_agrees_on_cycle(cycle, cycle_mods):
    mods = list(cycle_mods.values()) + [nabla2(cycle, cycle_mods)]
    all_pairs_ext1_agree(cycle, mods)


def test_bruteforce_ext1_agrees_on_truncated_polynomials():
    for power in (2, 3):
        alg = build_algebra(truncated_polynomial(power))
        reg = projective_rep(alg, "1")
        mods = [simple_rep(alg, "1"), reg, filtration_slice(reg, 0, 2)]
        all_pairs_ext1_agree(alg, mods)


def test_bruteforce_ext1_agrees_on_commuting_loops():
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
    reg = projective_rep(alg, "1")
    all_pairs_ext1_agree(alg, [simple_rep(alg, "1"), reg, filtration_slice(reg, 0, 2)])


# -- the gr Ext^1 comparison ---------------------------------------------------------------


def test_gr_ext1_compare_radical_truncation():
    alg = build_algebra(truncated_polynomial(3))
    reg = projective_rep(alg, "1")
    m = filtration_slice(reg, 0, 2)
    report = gr_ext1_compare(m)
    assert [(r.dim_ambient, r.dim_graded) for r in report.rows] == [(1, 1)]
    assert report.all_equal
    assert report.quotient_of_projective
    assert report.pullback == (1, 1, 1)
    assert report.pullback_injective


def test_gr_ext1_compare_with_subalgebra(cycle, cycle_mods):
    uni = nabla2(cycle, cycle_mods)
    units = [cycle.basis_vector(i) for i in range(5)]
    whole = subalgebra_from_generators(cycle, [units[0], units[2], units[3]])
    assert whole.dim == 5
    report = gr_ext1_compare(uni, sub=whole)
    assert report.all_equal
    for row in report.rows:
        assert row.dim_sub == row.dim_ambient


def test_gr_ext1_compare_rejects_nongenerating_subalgebra():
    alg = build_algebra(truncated_polynomial(3))
    xsq = {2: QQ.one}
    emb = subalgebra_from_generators(alg, [xsq])
    with pytest.raises(PreconditionError):
        gr_ext1_compare(simple_rep(alg, "1"), sub=emb)


# -- restriction to subalgebras --------------------------------------------------------------


def test_restrict_to_whole_algebra(cycle, cycle_mods):
    units = [cycle.basis_vector(i) for i in range(5)]
    whole = subalgebra_from_generators(cycle, [units[0], units[2], units[3]])
    report = restrict_iso_check(cycle_mods["P1"], whole)
    assert report.filtration_agrees
    assert report.restriction_iso_gr
    assert report.restricts_projectively
    assert report.n_characters == 2


def test_restrict_detects_a_disagreeing_layer(cycle, cycle_mods, monkeypatch):
    # Same layer sizes, different layer 2: the ambient series of P(1) is
    # replaced by one whose second radical layer is another line in P(1);
    # the series of the restriction stays the real one.
    units = [cycle.basis_vector(i) for i in range(5)]
    whole = subalgebra_from_generators(cycle, [units[0], units[2], units[3]])
    real = rep_homology.radical_series

    def moved(module):
        series = real(module)
        if module is not cycle_mods["P1"]:
            return series
        return series[:2] + [Subspace(QQ, 3, [[QQ.zero, QQ.zero, QQ.one]])] + series[3:]

    assert real(cycle_mods["P1"])[2].rows == [[QQ.zero, QQ.one, QQ.zero]]
    monkeypatch.setattr(rep_homology, "radical_series", moved)
    assert not restrict_iso_check(cycle_mods["P1"], whole).filtration_agrees


def test_restrict_to_glued_idempotent_subalgebra(cycle, cycle_mods):
    # span{1, a, b, a*b}: both vertex idempotents glued into the unit
    units = [cycle.basis_vector(i) for i in range(5)]
    glued = subalgebra_from_generators(cycle, [units[2], units[3]])
    assert glued.dim == 4
    report = restrict_iso_check(cycle_mods["P1"], glued)
    assert report.filtration_agrees
    assert report.restriction_iso_gr
    assert not report.restricts_projectively
    assert report.n_characters == 1


def test_restrict_detects_a_nongradable_restriction():
    # k^3 over the cube algebra with x: e1 -> e2 -> e3 and y: e1 -> e3: y
    # jumps two radical layers, so gr kills it and M|a is not gr(M|a)
    alg = build_algebra(all_cubes(QQ))
    zero, one = QQ.zero, QQ.one
    x = MatrixExact(QQ, [[zero, zero, zero], [one, zero, zero], [zero, one, zero]], 3)
    y = MatrixExact(QQ, [[zero, zero, zero], [zero, zero, zero], [one, zero, zero]], 3)
    m = make_representation(alg, {"1": 3}, columns_of({"x": x, "y": y}))
    report = restrict_iso_check(m, whole_algebra(alg))
    assert repr(report) == ("RestrictionReport(filtration_agrees=True, "
                            "restriction_iso_gr=False, restricts_projectively=False, "
                            "n_characters=1)")


def test_restrict_rejects_nongenerating_subalgebra():
    alg = build_algebra(truncated_polynomial(3))
    xsq = {2: QQ.one}
    emb = subalgebra_from_generators(alg, [xsq])
    with pytest.raises(PreconditionError):
        restrict_iso_check(simple_rep(alg, "1"), emb)


def test_restricts_projectively_over_the_whole_algebra(cycle, cycle_mods):
    # over the whole algebra every simple is a character: projective exactly
    # when Ext^1 into each simple vanishes, and L(1) fails only at L(2)
    whole = whole_algebra(cycle)
    simples = [cycle_mods["L1"], cycle_mods["L2"]]
    for m in list(cycle_mods.values()) + [nabla2(cycle, cycle_mods)]:
        expected = all(ext_groups(m, s, 1)[1] == 0 for s in simples)
        assert restricts_projectively(m, whole) is expected
    assert [ext_groups(cycle_mods["L1"], s, 1)[1] for s in simples] == [0, 1]


def test_restrict_to_the_scalars_keeps_the_identity_witness():
    # a = k.1 acts on k^3 by scalars, so M|a is semisimple; the identity is
    # the isomorphism M|a = gr(M|a), found without searching all 3x3 matrices
    alg = build_algebra(QuiverPresentation(QQ, ["v"], [], []))
    m = direct_sum(*[simple_rep(alg, "v")] * 3)
    scalars = subalgebra_from_generators(alg, [])
    assert scalars.dim == 1 and m.total_dim == 3
    report = restrict_iso_check(m, scalars)
    assert report.restriction_iso_gr
    assert report.filtration_agrees and report.restricts_projectively


def commuting_loops(field):
    return QuiverPresentation(
        field, ["1"], [("x", "1", "1"), ("y", "1", "1")],
        [[(1, ("x", "x"))], [(1, ("y", "y"))], [(1, ("y", "x")), (-1, ("x", "y"))]],
    )


@st.composite
def modules_over_q_or_f2(draw):
    """(algebra, M, N) with M and N drawn from the simples, projectives,
    radical powers and truncations of a small algebra over Q or F_2; M is
    sometimes a sum of two of them."""
    field = draw(st.sampled_from([QQ, F2]))
    maker = draw(st.sampled_from([two_vertex_cycle, commuting_loops,
                                  lambda f: truncated_polynomial(3, f)]))
    alg = build_algebra(maker(field))
    mods = []
    for v in alg.presentation.vertices:
        proj = projective_rep(alg, v)
        loewy = len(radical_series(proj)) - 1
        mods += [simple_rep(alg, v), proj]
        mods += [filtration_slice(proj, r) for r in range(1, loewy)]
        mods += [filtration_slice(proj, 0, r) for r in range(2, loewy)]
    m = draw(st.sampled_from(mods))
    if draw(st.booleans()):
        m = direct_sum(m, draw(st.sampled_from(mods)))
    return alg, m, draw(st.sampled_from(mods))


def whole_algebra(alg):
    return subalgebra_from_generators(alg, [alg.basis_vector(i) for i in range(alg.dim)])


@settings(max_examples=30, deadline=None)
@given(modules_over_q_or_f2())
def test_delta0_kernel_is_hom_over_the_whole_algebra(case):
    alg, m, n = case
    whole = whole_algebra(alg)
    delta = delta0(alg.field, restrict_action(m, whole), restrict_action(n, whole))
    _, kernel = kernel_matrix(transpose(delta))
    homs = hom_space(m, n)
    assert kernel.nrows == len(homs)
    # the same space, not only the same dimension: F flattened row by row
    flat = [[x for row in dense_map(alg.field, h, n.total_dim).rows for x in row] for h in homs]
    assert kernel.rows == row_space(alg.field, flat, n.total_dim * m.total_dim).rows


@settings(max_examples=20, deadline=None)
@given(modules_over_q_or_f2())
def test_series_of_the_radical_rows_is_the_radical_series(case):
    alg, m, _ = case
    mats = [element_total(m, r) for r in whole_algebra(alg).radical().sparse_rows]
    assert radical_row_series(alg.field, mats, m.total_dim) == radical_series(m)


def truncations(alg):
    """(name, module) for the simples, the projectives and every P/rad^r P
    with 0 < r < Loewy length of P."""
    modules = [(f"L{v}", simple_rep(alg, v)) for v in alg.presentation.vertices]
    for v in alg.presentation.vertices:
        proj = projective_rep(alg, v)
        modules.append((f"P{v}", proj))
        for r in range(1, len(radical_series(proj)) - 1):
            modules.append((f"P{v}/rad^{r}", filtration_slice(proj, 0, r)))
    return modules


def restriction_battery():
    """One line per (field, algebra, module, subalgebra, call): the result's
    repr, or the error class and message.

    Modules are the simples, the projectives and every P/rad^r P with
    0 < r < Loewy length of P; subalgebras are all those generated by at
    most two basis vectors (none gives k.1).
    """
    lines = []
    for field in (QQ, F2):
        for alg_name, pres in (("cycle", two_vertex_cycle(field)),
                               ("x^3", truncated_polynomial(3, field))):
            alg = build_algebra(pres)
            modules = truncations(alg)
            units = [alg.basis_vector(i) for i in range(alg.dim)]
            for k in range(3):
                for gens in combinations(range(alg.dim), k):
                    emb = subalgebra_from_generators(alg, [units[i] for i in gens])
                    for mod_name, m in modules:
                        for call_name, call in (
                            ("restrict", lambda: restrict_iso_check(m, emb)),
                            ("grcompare", lambda: gr_ext1_compare(m, sub=emb)),
                        ):
                            try:
                                out = repr(call())
                            except GrkoszulError as exc:
                                out = f"{type(exc).__name__}: {exc}"
                            lines.append(f"{field.char} {alg_name} {gens} {mod_name}"
                                         f" {call_name} {out}")
    return lines


def test_restriction_battery_digest():
    # recorded before the restriction moved onto the shared module code
    lines = restriction_battery()
    assert len(lines) == RESTRICTION_BATTERY_SIZE
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RESTRICTION_BATTERY_DIGEST


RESTRICTION_BATTERY_SIZE = 560
RESTRICTION_BATTERY_DIGEST = (
    "acfb107f50ecb9dbedfb24304e472d24929c2366174c1f71b073b25f3c30da7f"
)


def all_cubes(field):
    """k<x,y>/(all eight cubes)."""
    cubes = [(a, b, c) for a in "xy" for b in "xy" for c in "xy"]
    return QuiverPresentation(field, ["1"], [("x", "1", "1"), ("y", "1", "1")],
                              [[(1, p)] for p in cubes])


def resolution_battery():
    """One line per resolution fact: the reprs of every map, syzygy action
    and syzygy inclusion of `minimal_resolution`, with the summand vertices,
    over the two-vertex cycle, k[x]/(x^3) and the cube algebra."""
    lines = []
    for field in (QQ, F2, FieldSpec(3)):
        for alg_name, pres, degree in (("cycle", two_vertex_cycle(field), 4),
                                       ("x^3", truncated_polynomial(3, field), 4),
                                       ("cubes", all_cubes(field), 3)):
            alg = build_algebra(pres)
            for mod_name, m in truncations(alg):
                res = minimal_resolution(m, degree)
                head = f"{field.char} {alg_name} {mod_name}"
                lines.append(f"{head} {res.summand_vertices} {res.finite}"
                             f" {res.projective_dimension}")
                # each map and inclusion printed as the dense matrix of its columns
                lines += [f"{head} map {i} {dense_map(field, cols, target.total_dim)!r}"
                          for i, (cols, target) in enumerate(zip(resolution_maps(res), [m] + res.terms))]
                for i, (source, syz) in enumerate(zip([m] + res.syzygies, res.syzygies)):
                    lines.append(f"{head} syzygy {i} {syz.dims} {syz.action!r}")
                    cov = projective_cover(source)
                    incl = dense_map(field, cov.syzygy_inclusion, cov.projective.total_dim)
                    lines.append(f"{head} inclusion {i} {incl!r}")
    return lines


def test_resolution_battery_digest():
    # recorded before the cover step handed its RREFs on
    lines = resolution_battery()
    assert len(lines) == RESOLUTION_BATTERY_SIZE
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == RESOLUTION_BATTERY_DIGEST


RESOLUTION_BATTERY_SIZE = 441
RESOLUTION_BATTERY_DIGEST = (
    "65f370ca8fae4eff724e83f0f1374c5a1c5e5861307e62b0728f473a806ceec5"
)


@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
def test_cube_simple_resolves_to_degree_6_with_the_monomial_counts(field):
    # k<x,y>/(all eight cubes) is a monomial algebra, so the terms of the
    # minimal resolution of its simple have the summand counts of Anick and
    # Green-Happel-Zacharia, the same in every characteristic
    res = minimal_resolution(simple_rep(build_algebra(all_cubes(field)), "1"), 6)
    assert [len(summands) for summands in res.summand_vertices] == [1, 2, 8, 16, 64, 128, 512]
    assert not res.finite


# -- Koszulity --------------------------------------------------------------------------------


def test_cycle_algebra_is_koszul(cycle):
    report = koszul_check(cycle, bound=8)
    assert report.verdict is True
    assert report.exact
    assert report.per_simple["1"] == [[0], [1]]
    assert report.per_simple["2"] == [[0], [1], [2]]


def test_dual_numbers_koszul_via_periodicity():
    alg = build_algebra(truncated_polynomial(2))
    report = koszul_check(alg, bound=6)
    assert report.verdict is True
    assert report.exact
    assert report.per_simple["1"] == [[i] for i in range(7)]


def test_cubic_truncation_not_koszul():
    alg = build_algebra(truncated_polynomial(3))
    report = koszul_check(alg, bound=6)
    assert report.verdict is False
    assert report.exact
    assert "grade 3" in report.witness


def test_koszul_needs_tight_grading():
    pres = QuiverPresentation(
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
    alg = build_algebra(pres)
    with pytest.raises(PreconditionError):
        koszul_check(alg)


def test_graded_resolution_generation_grades(cycle_mods):
    graded = grade_zero_graded(cycle_mods["L2"])
    res = graded_minimal_resolution(graded, 5)
    assert res.generation == [[0], [1], [2]]
    assert res.finite and res.projective_dimension == 2


def test_graded_resolution_records_the_cover_heads(cycle, cycle_mods):
    res = graded_minimal_resolution(grade_zero_graded(cycle_mods["L2"]), 5)
    assert res.heads == [[("2", 0)], [("1", 1)], [("2", 2)]]
    res = graded_minimal_resolution(gr_rep(cycle_mods["P1"], gr_algebra(cycle)), 3)
    assert res.heads == [[("1", 0)]]
    for heads, term in zip(res.heads, res.terms):
        counts = {v: sum(u == v for u, _ in heads) for v in term.rep.vertices}
        assert head_multiplicities(term.rep) == counts
    # gr P(1) + L(1) with L(1) in grade 3: the second generator at vertex 1
    # is its third coordinate, after the radical vector a*b of grade 2
    gp1 = gr_rep(cycle_mods["P1"], gr_algebra(cycle))
    summed = direct_sum(gp1.rep, simple_rep(gp1.rep.algebra, "1"))
    graded = GradedRepresentation(summed, {"1": gp1.grades["1"] + [3], "2": gp1.grades["2"]})
    assert graded_minimal_resolution(graded, 0).heads == [[("1", 0), ("1", 3)]]


# -- property tests over random monomial algebras ----------------------------------------------


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


@settings(max_examples=12, deadline=None)
@given(monomial_two_loop_algebra())
def test_regular_module_is_gradable(alg):
    reg = projective_rep(alg, "1")
    graded = gr_algebra(alg)
    g = gr_rep(reg, graded)
    back = make_representation(alg, g.rep.dims, g.rep.columns)
    ok, _ = is_isomorphic(reg, back)
    assert ok


@settings(max_examples=12, deadline=None)
@given(monomial_two_loop_algebra())
def test_resolution_invariants_hold(alg):
    k = simple_rep(alg, "1")
    res = minimal_resolution(k, 3)
    # exactness is asserted internally; check minimality and the truncated
    # Euler identity dim M = sum (-1)^i dim P_i + (-1)^(n+1) dim Omega_n here
    for i in range(1, len(res.terms)):
        assert head_multiplicities(res.terms[i]) == head_multiplicities(res.syzygies[i - 1])
    euler = sum((-1) ** i * t.total_dim for i, t in enumerate(res.terms))
    tail = res.syzygies[-1].total_dim if res.syzygies else 0
    assert euler + ((-1) ** len(res.terms)) * tail == k.total_dim


@st.composite
def monomial_two_vertex_algebra(draw):
    """Arrows a: 1 -> 2, b: 2 -> 1 and a loop c at 1; every path of length 3
    is zero and so is a random set of the length-2 paths."""
    arrows = [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")]
    ends = {name: (src, dst) for name, src, dst in arrows}

    def paths(length):
        return [
            p for p in iter_product(ends, repeat=length)
            if all(ends[x][1] == ends[y][0] for x, y in zip(p, p[1:]))
        ]

    chosen = draw(st.sets(st.sampled_from(paths(2))))
    field = draw(st.sampled_from([QQ, F2, FieldSpec(3)]))
    relations = [[(1, p)] for p in paths(3) + sorted(chosen)]
    return build_algebra(QuiverPresentation(field, ["1", "2"], arrows, relations))


@settings(max_examples=10, deadline=None)
@given(st.one_of(monomial_two_loop_algebra(), monomial_two_vertex_algebra()))
def test_head_is_the_top_radical_layer(alg):
    for v in alg.presentation.vertices:
        res = minimal_resolution(simple_rep(alg, v), 2)
        for m in res.terms + res.syzygies:
            layers = layer_dims(m)
            top = layers[0] if layers else {u: 0 for u in m.vertices}
            assert head_multiplicities(m) == top


@settings(max_examples=10, deadline=None)
@given(monomial_two_loop_algebra())
def test_bruteforce_ext1_matches_resolution_ext1(alg):
    k = simple_rep(alg, "1")
    table = structure_table(alg)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    act = [element_total(k, b) for b in basis]
    assert ext1_bruteforce(alg.field, table, act, act) == ext_groups(k, k, 1)[1]


@settings(max_examples=10, deadline=None)
@given(monomial_two_loop_algebra())
def test_gr_of_canonical_quotients_stays_surjective(alg):
    reg = projective_rep(alg, "1")
    series = radical_series(reg)
    graded = gr_algebra(alg)
    for cut in range(1, len(series)):
        quot, proj = quotient_rep(reg, series[cut])
        _, _, _, surjective = gr_of_surjection(reg, quot, proj, graded)
        assert surjective


# -- the vertex split and the canonical cover path ------------------------------------


def split_by_contains(rep, rows):
    """Test-only oracle: the vertex split as decided before the single-block
    RREF test, by asking `Subspace.contains` for every blockwise truncation
    of every RREF row and eliminating each block again."""
    f = rep.algebra.field
    span = Subspace(f, rep.total_dim, rows)
    out = {}
    for v in rep.vertices:
        block_rows = []
        for r in span.rows:
            blocked = [f.zero] * rep.total_dim
            start = rep.offset(v)
            blocked[start : start + rep.dims[v]] = r[start : start + rep.dims[v]]
            if any(x != f.zero for x in blocked):
                if not span.contains(blocked):
                    raise InputFormatError(
                        "rows are not closed under the vertex idempotents"
                    )
                block_rows.append(block(rep, blocked, v))
        out[v] = Subspace(f, rep.dims[v], block_rows)
    return out


def three_vertex_line(field):
    return QuiverPresentation(field, ["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [])


def blank_module(pres, dims):
    """A module with the given vertex dimensions on which every arrow acts by 0."""
    alg = build_algebra(pres)
    action = {name: zero(alg.field, dims[dst], dims[src])
              for name, src, dst in pres.arrows}
    return make_representation(alg, dims, columns_of(action))


def raw_scalars(field):
    if field.char == 0:
        return st.one_of(st.integers(-3, 3),
                         st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return st.integers(-4, 4)


@st.composite
def split_cases(draw):
    """(module, rows, closed): when closed is True the rows are vectors
    supported in one vertex block and sums of them, in random order, so
    their span is idempotent-closed; otherwise they are arbitrary
    total-space vectors."""
    field = draw(st.sampled_from([QQ, F2, FieldSpec(3)]))
    pres = draw(st.sampled_from([two_vertex_cycle, three_vertex_line]))(field)
    dims = {v: draw(st.integers(0, 3)) for v in pres.vertices}
    m = blank_module(pres, dims)
    n = m.total_dim
    scalars = raw_scalars(field)
    closed = draw(st.booleans())
    if not closed or n == 0:
        rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), max_size=5))
        return m, rows, closed
    filled = [v for v in m.vertices if dims[v]]
    block_vectors = [
        embed(m, v, draw(st.lists(scalars, min_size=dims[v], max_size=dims[v])))
        for v in draw(st.lists(st.sampled_from(filled), max_size=5))
    ]
    sums = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(scalars, min_size=len(block_vectors),
                               max_size=len(block_vectors)))
        sums.append([sum((c * vec[j] for c, vec in zip(coeffs, block_vectors)), 0)
                     for j in range(n)])
    return m, draw(st.permutations(block_vectors + sums)), closed


def split_outcome(split, m, rows):
    try:
        out = split(m, rows)
    except InputFormatError as exc:
        return "error", str(exc)
    return "split", {v: (space.rows, space.pivots) for v, space in out.items()}


@settings(max_examples=200, deadline=None)
@given(split_cases())
def test_vertex_split_agrees_with_the_contains_oracle(case):
    m, rows, closed = case
    got = split_outcome(rep_homology._split_rows_by_vertex, m, rows)
    assert got == split_outcome(split_by_contains, m, rows)
    if closed:
        assert got[0] == "split"


def test_vertex_split_rejects_a_row_across_two_blocks():
    m = blank_module(two_vertex_cycle(FieldSpec(3)), {"1": 1, "2": 2})
    for split in (rep_homology._split_rows_by_vertex, split_by_contains):
        with pytest.raises(InputFormatError, match="closed under the vertex idempotents"):
            split(m, [[1, 0, 2]])
    # the same row with its block parts also in the span is fine
    out = rep_homology._split_rows_by_vertex(m, [[1, 0, 2], [0, 0, 1]])
    assert {v: (s.rows, s.pivots) for v, s in out.items()} == \
        {"1": ([[1]], [0]), "2": ([[0, 1]], [1])}


def is_canonical(field, x):
    if field.char == 0:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.char


def assert_canonical(field, rows, what):
    assert all(is_canonical(field, x) for row in rows for x in row), what


def fractional_module():
    """A 2-dimensional module over the commuting loops on which x acts by 3/2."""
    alg = build_algebra(commuting_loops(QQ))
    action = {"x": MatrixExact(QQ, [[0, 0], [Fraction(3, 2), 0]]),
              "y": MatrixExact(QQ, [[0, 0], [1, 0]])}
    return make_representation(alg, {"1": 2}, columns_of(action))


def assert_canonical_columns(field, columns, nrows, what):
    """Sparse columns of canonical nonzero scalars, every row index below nrows."""
    assert_canonical(field, [list(col.values()) for col in columns], what)
    assert all(all(col.values()) for col in columns), what
    assert all(0 <= i < nrows for col in columns for i in col), what


def assert_cover_path_canonical(m):
    f = m.algebra.field
    for rows in radical_series(m):
        for v, space in rep_homology._split_rows_by_vertex(m, rows).items():
            assert_canonical(f, space.rows, "block rows")
            assert (space.rows, space.pivots) == \
                (Subspace(f, m.dims[v], space.rows).rows, list(space.pivots))
        sub, incl = sub_rep(m, rows)
        assert_canonical_columns(f, incl, m.total_dim, "inclusion")
        assert len(incl) == sub.total_dim
        for name, mat in sub.action.items():
            assert_canonical(f, mat.rows, "sub action " + name)
    cov = projective_cover(m)
    assert_canonical_columns(f, cov.map, m.total_dim, "cover map")
    assert_canonical_columns(f, cov.syzygy_inclusion, cov.projective.total_dim,
                             "syzygy inclusion")
    for part in (cov.projective, cov.syzygy):
        for name, mat in part.action.items():
            assert_canonical(f, mat.rows, "cover action " + name)
            assert_canonical(f, total_action(part, name).rows, "total action " + name)


@settings(max_examples=15, deadline=None)
@given(st.one_of(monomial_two_loop_algebra(), monomial_two_vertex_algebra()))
def test_cover_path_outputs_are_canonical(alg):
    for v in alg.presentation.vertices:
        res = minimal_resolution(simple_rep(alg, v), 2)
        for m in res.terms + res.syzygies:
            assert_cover_path_canonical(m)
        assert all(is_canonical(alg.field, x) for cols in resolution_maps(res)
                   for col in cols for x in col.values())


def test_cover_path_keeps_proper_fractions():
    m = fractional_module()
    assert_cover_path_canonical(m)
    cov = projective_cover(m)
    assert Fraction(3, 2) in [x for col in cov.map for x in col.values()]


# -- one elimination per matrix on the cover step ---------------------------------------


def path_totals(rep):
    """`path_total` of rep for a path's arrows, each built on first use and
    then kept, so one module never multiplies out the same path twice."""
    return cache(lambda arrows: path_total(rep, arrows))


def cover_columns_by_path_total(rep, generators, totals):
    """Test-only oracle: the cover columns as built before the arrow-block
    walker, by applying the dense total-space matrix of every basis path
    (`totals`, from `path_totals`) to each generator, in the direct-sum
    layout."""
    f = rep.algebra.field
    # each generator's unit vector, built once
    units = [embed(rep, v, [f.one if k == j else f.zero for k in range(rep.dims[v])])
             for v, j in generators]
    cols = []
    for u in rep.vertices:
        for (v, _), gen in zip(generators, units):
            for bp in rep.algebra.basis:
                if bp.src != v or bp.dst != u:
                    continue
                cols.append(apply(totals(bp.arrows), gen) if bp.arrows else gen)
    return cols


@st.composite
def monomial_quiver_algebra(draw, fields=(QQ, F2, FieldSpec(3))):
    """Two or three vertices and one to four arrows between random ends
    (loops allowed) over one of the fields; every path of length 3 is zero
    and so is a random set of the length-2 paths."""
    field = draw(st.sampled_from(fields))
    vertices = ["1", "2", "3"][: draw(st.integers(2, 3))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices), st.sampled_from(vertices)),
                         min_size=1, max_size=4))
    arrows = [(f"a{i}", src, dst) for i, (src, dst) in enumerate(ends)]

    def paths(length):
        return [p for p in iter_product([a for a, _, _ in arrows], repeat=length)
                if all(arrows[int(x[1:])][2] == arrows[int(y[1:])][1] for x, y in zip(p, p[1:]))]

    chosen = draw(st.sets(st.sampled_from(paths(2)))) if paths(2) else set()
    relations = [[(1, p)] for p in paths(3) + sorted(chosen)]
    return build_algebra(QuiverPresentation(field, vertices, arrows, relations))


def cover_path_modules(alg, degree=2):
    """Projectives, simples and the terms and syzygies of their resolutions."""
    out = []
    for v in alg.presentation.vertices:
        res = minimal_resolution(simple_rep(alg, v), degree)
        out += [projective_rep(alg, v), simple_rep(alg, v)] + res.terms + res.syzygies
    return out


@settings(max_examples=40, deadline=None)
@given(monomial_quiver_algebra(fields=(QQ, F2, FieldSpec(3), FieldSpec(5))), st.data())
def test_grown_resolutions_match_fresh_builds_on_random_quivers(alg, data):
    for v in alg.presentation.vertices:
        shuffled = data.draw(st.permutations(range(4)))
        for m in (simple_rep(alg, v), filtration_slice(projective_rep(alg, v), 0, 2)):
            _grown_in_every_order(m, 3, shuffled)


def sub_rep_by_dense_oracle(m, rows):
    """(dims in vertex order, inclusion, total action per arrow) of the
    submodule the rows span, by dense elimination and total-action products,
    or None when their span is not closed under the idempotents and arrows."""
    f, n = m.algebra.field, m.total_dim
    span = DenseSubspace(f, n, rows)
    for row in span.rows:
        if not all(span.contains(embed(m, v, block(m, row, v))) for v in m.vertices):
            return None
        if not all(span.contains(apply(total_action(m, a), row)) for a in m.action):
            return None
    dims = [sum(1 for p in span.pivots if m.offset(v) <= p < m.offset(v) + m.dims[v])
            for v in m.vertices]
    incl = [_sparse_row(row) for row in span.rows]
    actions = {a: transpose(MatrixExact(f, [span.coords(apply(total_action(m, a), row))
                                            for row in span.rows], len(span)))
               if span.rows else zero(f, 0, 0) for a in m.action}
    return dims, incl, actions


@settings(max_examples=80, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_sub_rep_matches_the_dense_oracle(alg, data):
    """Spans of random vectors (whole, or cut to one vertex block), and the
    submodules they generate, against the dense oracle: sub_rep and
    quotient_rep refuse exactly the spans that are not submodules."""
    f = alg.field
    m = data.draw(st.sampled_from([x for x in cover_path_modules(alg, degree=1) if x.total_dim]))
    # rescale every basis vector, so that the actions hold more than 0 and 1
    units = st.integers(1, 7).map(f.coerce).filter(bool)
    scale = {v: data.draw(st.lists(units, min_size=m.dims[v], max_size=m.dims[v]))
             for v in m.vertices}
    m = make_representation(alg, m.dims, columns_of({
        a: MatrixExact(f, [[f.mul(f.mul(scale[dst][i], x), f.inv(scale[src][j]))
                            for j, x in enumerate(row)] for i, row in enumerate(m.action[a].rows)],
                       m.dims[src])
        for a, src, dst in alg.presentation.arrows}))
    entries = st.integers(-3, 3).map(f.coerce)
    vectors = data.draw(st.lists(st.lists(entries, min_size=m.total_dim, max_size=m.total_dim),
                                 max_size=3))
    vectors = [embed(m, v, block(m, vec, v)) if data.draw(st.booleans()) else vec
               for vec in vectors for v in [data.draw(st.sampled_from(m.vertices))]]
    for vec in vectors:  # one arrow step on sparse blocks, against the dense action
        for a, src, dst in alg.presentation.arrows:
            assert m.act(a, _sparse_row(block(m, vec, src))) == \
                _sparse_row(block(m, apply(total_action(m, a), vec), dst))
    if data.draw(st.booleans()):
        vectors = [apply(element_total(m, alg.basis_vector(i)), vec)
                   for vec in vectors for i in range(alg.dim)]
    expected = sub_rep_by_dense_oracle(m, vectors)
    if expected is None:
        for build in (sub_rep, quotient_rep):
            with pytest.raises(InputFormatError):
                build(m, vectors)
        return
    dims, incl, actions = expected
    for rows in (vectors, Subspace(f, m.total_dim, vectors)):
        sub, got_incl = sub_rep(m, rows)
        assert ([sub.dims[v] for v in m.vertices], got_incl) == (dims, incl)
        assert {a: total_action(sub, a) for a in m.action} == actions
    assert quotient_rep(m, vectors)[0].total_dim == m.total_dim - sum(dims)


def test_radical_series_is_kept_on_the_module_and_handed_out_as_a_fresh_list(cycle):
    p1 = projective_rep(cycle, "1")
    first = radical_series(p1)
    first.append(None)
    second = radical_series(p1)
    assert second[-1] is not None and second[0] is first[0]
    assert second == radical_series(make_representation(cycle, p1.dims, p1.columns))


@settings(max_examples=200, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_cover_columns_match_the_path_total_oracle(alg, data):
    f = alg.field
    for m in cover_path_modules(alg):
        cov = projective_cover(m)
        totals = path_totals(m)
        cols = cover_columns_by_path_total(m, cov.generators, totals)
        assert cov.map == [_sparse_row(col) for col in cols]
        # the walker on an arbitrary vector of one block, not only on units
        filled = [v for v in m.vertices if m.dims[v]]
        if not filled:
            continue
        v = data.draw(st.sampled_from(filled))
        vec = data.draw(st.lists(st.integers(-3, 3), min_size=m.dims[v],
                                 max_size=m.dims[v]).map(f.coerce_row))
        images = m.path_images(v, _sparse_row(vec))
        assert list(images) == [i for i, bp in enumerate(alg.basis) if bp.src == v]
        for i, img in images.items():
            bp = alg.basis[i]
            whole = apply(totals(bp.arrows), embed(m, v, vec)) if bp.arrows \
                else embed(m, v, vec)
            assert img == _sparse_row(block(m, whole, bp.dst))
            assert embed(m, bp.dst, _dense_row(img, m.dims[bp.dst])) == whole


@settings(max_examples=30, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_head_of_a_direct_sum_is_the_sum_of_the_heads(alg, data):
    modules = cover_path_modules(alg, degree=1)
    picked = data.draw(st.lists(st.sampled_from(modules), min_size=1, max_size=3))
    heads = [head_multiplicities(m) for m in picked]
    assert head_multiplicities(direct_sum(*picked)) == \
        {v: sum(h[v] for h in heads) for v in alg.presentation.vertices}


def small_modules(alg):
    """The modules of `cover_path_modules` at degree 1, the tops P/rad^2 P
    of the projectives, and the sums of two of these, of total dimension at
    most 5."""
    tops = [filtration_slice(projective_rep(alg, v), 0, 2) for v in alg.presentation.vertices]
    small = [m for m in cover_path_modules(alg, degree=1) + tops if m.total_dim <= 5]
    return small + [direct_sum(a, b) for a, b in combinations(small, 2)
                    if a.total_dim + b.total_dim <= 5]


def change_of_basis(m, data):
    """M in another basis: each vertex block moved by a random invertible
    upper triangular matrix g_v, so arrow a: u -> v acts by g_v A g_u^-1."""
    f = m.algebra.field
    units = st.sampled_from([x for x in map(f.coerce, range(1, 8)) if x])
    g = {v: MatrixExact(f, [[data.draw(units) if i == j else
                             data.draw(st.integers(-2, 2).map(f.coerce)) if i < j else 0
                             for j in range(m.dims[v])] for i in range(m.dims[v])], m.dims[v])
         for v in m.vertices}
    return make_representation(m.algebra, m.dims, columns_of({
        a: mul(mul(g[dst], m.action[a]), invert(g[src])) if m.dims[src] and m.dims[dst]
        else m.action[a] for a, src, dst in m.algebra.presentation.arrows}))


def flat_hom(h):
    """A hom given by sparse columns as one sparse vector, entry (r, c) at
    r * len(h) + c, the order of `dense_hom_space`."""
    return {r * len(h) + c: x for c, col in enumerate(h) for r, x in col.items()}


ISO_TEST_CAP = 1000  # grid points per isomorphism search in the test below


@settings(max_examples=150, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_sparse_homs_match_the_dense_oracle(alg, data):
    """hom_space(M, N) against `dense_hom_space`: every hom keeps the vertex
    blocks and commutes with every arrow on unit vectors (through `_push`
    and `act`), and the homs are a basis of the dense kernel.  With N M in
    another basis, or a module of M's dimension, or any,
    `_invertible_combination` and `is_isomorphic` agree with the
    determinant grid, and a witness is invertible."""
    f = alg.field
    char, one = f.char, f.one
    modules = small_modules(alg)
    m = data.draw(st.sampled_from(modules))
    how = data.draw(st.sampled_from(["basis", "dimension", "any"]))
    if how == "basis":
        n = change_of_basis(m, data)
    else:
        n = data.draw(st.sampled_from([x for x in modules
                                       if how == "any" or x.total_dim == m.total_dim]))
    homs = hom_space(m, n)
    for h in homs:
        assert len(h) == m.total_dim
        for v in m.vertices:
            for j in range(m.dims[v]):
                image = _push(char, h, m.place(v, {j: one}))
                assert n.place(v, n.block(image, v)) == image
        for a, src, dst in alg.presentation.arrows:
            for j in range(m.dims[src]):
                lhs = _push(char, h, m.place(dst, m.act(a, {j: one})))
                image = n.block(_push(char, h, m.place(src, {j: one})), src)
                assert lhs == n.place(dst, n.act(a, image))
    width = m.total_dim * n.total_dim
    dense = dense_hom_space(m, n)
    span = Subspace(f, width, [flat_hom(h) for h in homs])
    assert len(span) == len(homs) == len(dense)
    assert span == Subspace(f, width, [[x for row in d.rows for x in row] for d in dense])
    if m.total_dim != n.total_dim:
        return
    size = m.total_dim
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rep_homology, "ISO_SEARCH_CAP", ISO_TEST_CAP)
        expected = outcome(lambda: invertible_by_determinant_grid(
            f, dense, size, ISO_TEST_CAP,
            lambda: (len(dense_hom_space(m, m)), len(dense_hom_space(n, n)))) is not None)
        assert outcome(lambda: _invertible_combination(
            f, homs, size, lambda: (len(hom_space(m, m)), len(hom_space(n, n)))) is not None) \
            == expected
        try:
            ok, witness = is_isomorphic(m, n)
        except PreconditionError as exc:  # the grid would pass the cap
            assert expected == f"PreconditionError: {exc}"
            return
    assert expected not in ("True", "False") or repr(ok) == expected
    if ok:
        w = dense_map(f, witness, size)
        assert size == 0 or determinant(w) != f.zero
        for a in m.columns:
            assert mul(w, total_action(m, a)) == mul(total_action(n, a), w)
    else:
        assert witness is None


@settings(max_examples=100, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_ext_by_dimension_shifting_matches_the_hom_complex_oracle(alg, data):
    """ext_groups against the Hom-complex oracle `_ext_groups` at bounds 0
    to 3, for M and N any of `small_modules` (terms and syzygies of the
    simples' resolutions, tops of the projectives and sums, of dimension at
    most 5): a lower bound reads a prefix of a higher one."""
    modules = small_modules(alg)
    m = data.draw(st.sampled_from(modules))
    n = data.draw(st.sampled_from(modules))
    # the oracle solves Hom from every term of M's resolution to degree 4, and
    # a term of thousands of dimensions costs it seconds
    assume(sum(p.total_dim for p in minimal_resolution(m, 4).terms) <= 1000)
    top = ext_groups(m, n, 3)
    assert top == hom_complex_ext_groups(m, n, 3)
    for bound in range(3):
        assert ext_groups(m, n, bound) == hom_complex_ext_groups(m, n, bound) == top[:bound + 1]


def test_ext_refuses_a_hom_from_a_module_beyond_hom_from_its_cover(monkeypatch):
    """Hom(M, N) embeds in Hom(P_0, N), P_0 the cover of M: one Hom solve
    from M inflated to two homs trips that check, though no Ext it would
    give is negative (Ext^1 = 1 - 1 + 2)."""
    alg = build_algebra(truncated_polynomial(3))
    a = _x_module(alg, 1)
    real = rep_homology.hom_space
    monkeypatch.setattr(rep_homology, "hom_space",
                        lambda m, n: real(m, n) * (2 if m is a else 1))
    with pytest.raises(InternalCheckError, match="exceeds hom from its cover"):
        ext_groups(a, simple_rep(alg, "1"), 2)


@settings(max_examples=80, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_graded_homs_are_homogeneous_and_split_the_homs(alg, data):
    """M and N in their radical-layer gradings (gr M and gr N, read back
    over the radically graded algebra): each graded hom of degree d sends
    grade g into grade g + d and is a hom, the graded homs of each degree
    are independent, and their counts over all degrees add up to
    dim Hom(M, N)."""
    f = alg.field
    assume(tight_grading_check(alg).passed)
    graded = gr_algebra(alg)
    modules = small_modules(alg)
    gm, gn = (GradedRepresentation(make_representation(alg, g.rep.dims, g.rep.columns), g.grades)
              for g in (gr_rep(data.draw(st.sampled_from(modules)), graded) for _ in "mn"))
    flat_m, flat_n = ([x for v in alg.presentation.vertices for x in g.grades[v]]
                      for g in (gm, gn))
    width = len(flat_m) * len(flat_n)
    homs = Subspace(f, width, [flat_hom(h) for h in hom_space(gm.rep, gn.rep)])
    top = max(flat_m + flat_n + [0])
    count = 0
    split = graded_hom_space(gm, gn)
    for d in range(-top, top + 1):
        degree_d = split.get(d, [])
        for h in degree_d:
            assert all(flat_n[r] == flat_m[c] + d for c, col in enumerate(h) for r in col)
            assert homs.contains(flat_hom(h))
        assert len(Subspace(f, width, [flat_hom(h) for h in degree_d])) \
            == len(degree_d)
        count += len(degree_d)
    assert count == len(homs) and set(split) <= set(range(-top, top + 1))


def test_projectives_and_heads_are_memoised_on_the_algebra():
    alg = build_algebra(two_vertex_cycle())
    first = rep_homology._projective_with_head(alg, "1")
    assert rep_homology._projective_with_head(alg, "1") is first
    assert first[1] == {"1": 1, "2": 0}
    other = build_algebra(two_vertex_cycle())
    assert rep_homology._projective_with_head(other, "1") is not first
    # a cover hands out a fresh direct sum, never the memoised P(v) itself
    assert projective_cover(simple_rep(alg, "1")).projective is not first[0]
    assert not [name for name, value in vars(rep_homology).items()
                if isinstance(value, dict) and not name.startswith("__")]


def test_cover_with_a_missing_generator_fails_surjectivity(monkeypatch):
    alg = build_algebra(two_vertex_cycle())
    m = direct_sum(simple_rep(alg, "1"), simple_rep(alg, "2"))
    real = rep_homology.radical_space

    def swollen(rep):
        # the radical of m with its first head vector added, so that the
        # cover leaves that generator out
        space = real(rep)
        if rep is m:
            space.add(embed(m, "1", [1]))
        return space

    monkeypatch.setattr(rep_homology, "radical_space", swollen)
    with pytest.raises(InternalCheckError, match="cover map is not surjective"):
        projective_cover(m)


def test_tampered_memoised_head_fails_the_head_check():
    alg = build_algebra(two_vertex_cycle())
    projective_cover(simple_rep(alg, "1"))
    _, head = rep_homology._projective_with_head(alg, "1")
    head["2"] = 1
    with pytest.raises(InternalCheckError, match="head isomorphism"):
        projective_cover(simple_rep(alg, "1"))
    # a cover that does not use P(1) is untouched
    assert projective_cover(simple_rep(alg, "2")).head == {"1": 0, "2": 1}


def perturb_cover(monkeypatch, index, attribute, how):
    """Make the index-th cover of every later resolution hand out a changed
    map or syzygy inclusion: entry (0, 0), row 0 of column 0, set to zero
    (its key deleted) or raised by one."""
    covers = []
    real = rep_homology.projective_cover

    def perturbed(rep):
        cov = real(rep)
        if len(covers) == index:
            cols = [dict(col) for col in getattr(cov, attribute)]
            if how == "zero":
                cols[0].pop(0, None)
            else:
                cols[0][0] = cols[0].get(0, 0) + 1
            setattr(cov, attribute, cols)
        covers.append(cov)
        return cov

    monkeypatch.setattr(rep_homology, "projective_cover", perturbed)


EXACTNESS_PERTURBATIONS = [
    (0, "map", "zero", "not exact at the target"),
    (0, "syzygy_inclusion", "add", "do not compose to zero"),
    (1, "map", "zero", "not exact at an interior term"),
]


@pytest.mark.parametrize("index, attribute, how, message", EXACTNESS_PERTURBATIONS)
def test_perturbed_cover_fails_exactness(monkeypatch, index, attribute, how, message):
    alg = build_algebra(all_cubes(QQ))
    perturb_cover(monkeypatch, index, attribute, how)
    with pytest.raises(InternalCheckError, match=message):
        minimal_resolution(simple_rep(alg, "1"), 3)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("attribute, how, extension, message", [
    ("map", "zero", 1, "not exact at an interior term"),
    ("syzygy_inclusion", "add", 2, "do not compose to zero"),
])
def test_perturbed_cover_fails_exactness_when_a_memoised_resolution_grows(
        monkeypatch, degree, attribute, how, extension, message):
    """A resolution memoised to one bound and then extended checks each new
    degree: a cover perturbed at degree + 1 fails the check of the degree
    that reads it (its own map, or the next map through its syzygy
    inclusion), that degree never joins the chain, and the memoised prefix
    still reads as before."""
    alg = build_algebra(all_cubes(QQ))
    simple = simple_rep(alg, "1")
    before = _resolution_facts(minimal_resolution(simple, degree))
    perturb_cover(monkeypatch, 0, attribute, how)
    for _ in range(2):
        with pytest.raises(InternalCheckError, match=message):
            minimal_resolution(simple, degree + extension)
    assert _resolution_facts(minimal_resolution(simple, degree)) == before


@pytest.mark.parametrize("index, attribute, how, message", EXACTNESS_PERTURBATIONS)
def test_perturbed_cover_fails_exactness_of_a_graded_resolution(monkeypatch, index, attribute,
                                                                how, message):
    """A graded resolution grades the checked ungraded one, so it inherits
    the exactness certificate."""
    alg = build_algebra(all_cubes(QQ))
    perturb_cover(monkeypatch, index, attribute, how)
    with pytest.raises(InternalCheckError, match=message):
        graded_minimal_resolution(grade_zero_graded(simple_rep(alg, "1")), 3)


# -- Ext^1 over a subalgebra from the cover of the restriction ------------------------


def character_simple(emb, vertex):
    """The simple of the vertex's class as an a-module: the scalars by which
    the basis of a acts on L(vertex)."""
    idx = emb.ambient.vertex_index[vertex]
    return [MatrixExact(emb.ambient.field, [[b[idx]]], 1) for b in emb.space.rows]


def ext1_over_sub_by_oracle(m, emb):
    """{vertex class: dim Ext^1_a(M|a, simple)} from the cocycle equations."""
    table = [[_dense_row(c, emb.dim) for c in row] for row in emb.structure_constants()]
    acts = restrict_action(m, emb)
    return {c: ext1_bruteforce(emb.ambient.field, table, acts, character_simple(emb, members[0]))
            for c, members in emb.as_algebra()[1].items()}


def ext1_over_sub(m, emb):
    return head_multiplicities(projective_cover(restrict_rep(m, emb)).syzygy)


# -- the action-list reference for the restriction check ----------------------------
#
# Test-only: M|a as one dense matrix per basis element of a, in M's flat
# coordinates, with Hom over that acting basis as the left kernel of delta0.


def radical_row_series(field, mats, n):
    """[V, VJ, VJ^2, ..., 0] in field^n, J the span of the acting matrices;
    every term a canonical RREF."""
    series = [Subspace.whole(field, n)]
    while series[-1]:
        current = series[-1]
        vectors = []
        for mat in mats:
            for r in current.rows:
                vec = apply(mat, r)
                if any(x != field.zero for x in vec):
                    vectors.append(vec)
        nxt = row_space(field, vectors, n)
        check(len(nxt) < len(current), "radical series stalled: action not nilpotent")
        series.append(nxt)
    return series


def restrict_iso_check_by_oracle(m, emb):
    """`restrict_iso_check` on action lists: the radical rows of a generate
    the series, a basis element of grade g_b sends slice g to slice g + g_b,
    and M|a = gr(M|a) needs an invertible matrix in the kernel of delta0."""
    f = m.algebra.field
    if not radical_generation_check(emb).generates:
        raise PreconditionError("the restriction check needs (rad a)A = rad A")
    tight, sub_grades, fails = tight_subalgebra_check(emb)
    if not tight:
        raise PreconditionError(
            "the restriction check needs a tightly graded subalgebra basis: "
            + "; ".join(fails)
        )
    acts = restrict_action(m, emb)
    rad_coords = [emb.space.coords(rv) for rv in emb.radical().rows]
    n = m.total_dim

    def radical_actions(basis_acts):
        # the radical rows of a, acting through the actions of the a-basis
        out = []
        for coords in rad_coords:
            mat = zero(f, n, n)
            for c, a in zip(coords, basis_acts):
                if c:
                    mat = add(mat, scale(a, c))
            out.append(mat)
        return out

    def has_invertible_hom(act_m, act_n):
        delta = delta0(f, act_m, act_n)
        if is_zero(delta):
            # every b acts on both sides by one scalar: the identity is a witness
            return True
        _, kernel = kernel_matrix(transpose(delta))
        homs = [MatrixExact(f, [vec[r * n : (r + 1) * n] for r in range(n)], n)
                for vec in kernel.rows]
        return invertible_by_determinant_grid(f, homs, n, rep_homology.ISO_SEARCH_CAP) is not None

    sub_series = radical_row_series(f, radical_actions(acts), n)
    agrees = radical_series(m) == sub_series
    slices = rep_homology._Slices(f, n, sub_series)
    gr_acts = [
        dense_map(f, [slices.vector(g + g_b, _sparse_row(apply(act, _dense_row(row, n))))
                      for g, row in slices.pieces], n)
        for act, g_b in zip(acts, sub_grades)
    ]
    gr_series = radical_row_series(f, radical_actions(gr_acts), n)
    iso = ([len(t) for t in sub_series] == [len(t) for t in gr_series]
           and has_invertible_hom(acts, gr_acts))
    projective = restricts_projectively(m, emb)
    return RestrictionReport(agrees, iso, projective, len(emb.as_algebra()[1]))


def outcome(call):
    """The result's repr, or the error class and message."""
    try:
        return repr(call())
    except GrkoszulError as exc:
        return f"{type(exc).__name__}: {exc}"


def combination(field, coeffs, rows, width):
    """sum_i coeffs[i] * rows[i] in field^width."""
    if not rows:
        return [field.zero] * width
    return mul(MatrixExact(field, [coeffs], len(rows)), MatrixExact(field, rows, width)).rows[0]


def quotient_by_element(proj, u):
    """P/uA for u in P: the quotient by the submodule u generates, spanned
    by u.p over the basis paths p."""
    basis = proj.algebra.basis
    rows = [embed(proj, basis[i].dst, _dense_row(img, proj.dims[basis[i].dst]))
            for w in proj.vertices
            for i, img in proj.path_images(w, _sparse_row(block(proj, u, w))).items()]
    return quotient_rep(proj, rows)[0]


@st.composite
def modules_and_subalgebras(draw):
    """(M, a) over a small algebra over Q, F_2 or F_3.  M is a quotient
    P(v)/uA for a random u in rad P(v) (often not gradable), a truncation,
    or a sum of two truncations.  a is the whole algebra, or generated by
    at most three vectors, each a basis vector or a random combination of
    the radical basis paths, which may mix path lengths."""
    field = draw(st.sampled_from([QQ, F2, FieldSpec(3)]))
    maker = draw(st.sampled_from([two_vertex_cycle, commuting_loops, all_cubes,
                                  lambda f: truncated_polynomial(3, f)]))
    alg = build_algebra(maker(field))
    scalars = st.integers(-2, 2).map(field.coerce)
    units = identity(field, alg.dim).rows
    radical = [units[i] for i, bp in enumerate(alg.basis) if bp.arrows]
    mixed = st.lists(scalars, min_size=len(radical), max_size=len(radical)).map(
        lambda cs: combination(field, cs, radical, alg.dim))
    gens = draw(st.one_of(st.lists(st.one_of(st.sampled_from(units), mixed), max_size=3),
                          st.just(units)))
    if draw(st.booleans()):
        # never summed: proving that no invertible map from a non-gradable
        # sum to its gr exists can take 2^17 determinants (`ISO_SEARCH_CAP`)
        proj = projective_rep(alg, draw(st.sampled_from(alg.presentation.vertices)))
        rad = radical_space(proj).rows
        coeffs = draw(st.lists(scalars, min_size=len(rad), max_size=len(rad)))
        m = quotient_by_element(proj, combination(field, coeffs, rad, proj.total_dim))
    else:
        modules = [m for _, m in truncations(alg)]
        m = draw(st.sampled_from(modules))
        if draw(st.booleans()):
            m = direct_sum(m, draw(st.sampled_from(modules)))
    return m, subalgebra_from_generators(alg, [_sparse_row(g) for g in gens])


@settings(max_examples=100, deadline=None)
@given(modules_and_subalgebras(), st.data())
def test_sparse_module_path_matches_the_dense_oracle(case, data):
    """make_representation, act_element, the dense `action` view and the
    memo key against the dense total-space oracle, on M's own arrow blocks
    with a few entries redrawn, which often breaks a relation."""
    m, emb = case
    alg, f, n = m.algebra, m.algebra.field, m.total_dim
    scalars = st.integers(-2, 2).map(f.coerce)
    blocks = {name: [list(row) for row in mat.rows] for name, mat in m.action.items()}
    for name, src, dst in alg.presentation.arrows:
        if m.dims[src] and m.dims[dst]:
            for _ in range(data.draw(st.integers(0, 2))):
                i = data.draw(st.integers(0, m.dims[dst] - 1))
                blocks[name][i][data.draw(st.integers(0, m.dims[src] - 1))] = data.draw(scalars)
    blocks = {name: MatrixExact(f, rows, m.dims[src])
              for (name, src, _), rows in zip(alg.presentation.arrows, blocks.values())}
    unchecked = Representation(alg, m.dims, columns_of(blocks))
    expected = relation_failure(unchecked)
    try:
        rep = make_representation(alg, m.dims, columns_of(blocks))
        assert expected is None
    except InputFormatError as exc:
        assert str(exc) == expected
        rep = unchecked
    assert rep.action == blocks
    # equal modules give equal memo keys, whatever the order of their entries
    reordered = {name: [dict(reversed(col.items())) for col in cols]
                 for name, cols in rep.columns.items()}
    assert rep_homology._content(rep) == \
        rep_homology._content(Representation(alg, m.dims, reordered))
    elements = emb.space.sparse_rows + [
        _sparse_row(data.draw(st.lists(scalars, min_size=alg.dim, max_size=alg.dim)))]
    vectors = [identity(f, n).rows[k] for k in range(n)] + [
        data.draw(st.lists(scalars, min_size=n, max_size=n))]
    for coords in elements:
        dense = element_total(rep, coords)
        for vec in vectors:
            assert _dense_row(rep.act_element(coords, _sparse_row(vec)), n) == apply(dense, vec)


@settings(max_examples=100, deadline=None)
@given(modules_and_subalgebras())
def test_restrict_iso_check_matches_the_action_list_oracle(case):
    m, emb = case
    expected = outcome(lambda: restrict_iso_check_by_oracle(m, emb))
    assert outcome(lambda: restrict_iso_check(m, emb)) == expected


@settings(max_examples=100, deadline=None)
@given(modules_and_subalgebras())
def test_ext1_over_a_subalgebra_matches_the_cocycle_oracle(case):
    m, emb = case
    ext1 = ext1_over_sub(m, emb)
    assert ext1 == ext1_over_sub_by_oracle(m, emb)
    assert restricts_projectively(m, emb) is not any(ext1.values())


@settings(max_examples=20, deadline=None)
@given(monomial_quiver_algebra(), st.data())
def test_ext1_over_random_quiver_subalgebras_matches_the_cocycle_oracle(alg, data):
    units = [alg.basis_vector(i) for i in range(alg.dim)]
    gens = data.draw(st.lists(st.integers(0, alg.dim - 1), max_size=3, unique=True))
    emb = subalgebra_from_generators(alg, [units[i] for i in gens])
    for _, m in truncations(alg):
        assert ext1_over_sub(m, emb) == ext1_over_sub_by_oracle(m, emb)


@pytest.mark.parametrize("field", [QQ, F2, FieldSpec(3)], ids=["Q", "F2", "F3"])
@pytest.mark.parametrize("maker", [two_vertex_cycle, commuting_loops, all_cubes,
                                   lambda f: truncated_polynomial(3, f)],
                         ids=["cycle", "loops", "cubes", "x^3"])
def test_pullback_rank_matches_the_cocycle_oracle(maker, field):
    # the long exact sequence count in gr_ext1_compare against the rank of
    # the pulled-back cocycles, summed over the simples
    alg = build_algebra(maker(field))
    table = structure_table(alg)
    basis = [alg.basis_vector(i) for i in range(alg.dim)]
    simples = [[element_total(simple_rep(alg, v), b) for b in basis]
               for v in alg.presentation.vertices]
    for name, m in truncations(alg):
        series = radical_series(m)
        last, cols = sub_rep(m, series[-2])
        incl = dense_map(field, cols, m.total_dim)
        act_m = [element_total(m, b) for b in basis]
        act_s = [element_total(last, b) for b in basis]
        per_simple = [ext1_pullback_rank(field, table, act_m, act_l, act_s, incl)
                      for act_l in simples]
        expected = tuple(sum(col) for col in zip(*per_simple))
        assert gr_ext1_compare(m).pullback == expected, name


def test_restriction_needs_the_vertex_class_idempotents():
    # span{1, e1 + a} in k(1 -> 2) separates the two vertices on idempotent
    # coordinates but contains neither e1 nor e2
    alg = build_algebra(QuiverPresentation(QQ, ["1", "2"], [("a", "1", "2")], []))
    e1 = alg.basis_vector(alg.vertex_index["1"])
    a = alg.basis_vector(alg.arrow_index["a"])
    emb = subalgebra_from_generators(alg, [{**e1, **a}])
    assert emb.dim == 2
    for _, m in truncations(alg):
        with pytest.raises(PreconditionError,
                           match="subalgebra does not contain its vertex class idempotents"):
            restricts_projectively(m, emb)


def test_restriction_concatenates_the_blocks_of_a_vertex_class(cycle, cycle_mods):
    # span{1, a, b, a*b}: one vertex class {1, 2} with two loops
    units = [cycle.basis_vector(i) for i in range(5)]
    glued = subalgebra_from_generators(cycle, [units[2], units[3]])
    restricted = restrict_rep(cycle_mods["P1"], glued)
    assert restricted.dims == {"1+2": 3}
    assert len(restricted.action) == 2
    assert head_multiplicities(restricted) == {"1+2": 1}
    # over the whole algebra the restriction keeps every radical layer
    whole = whole_algebra(cycle)
    for m in list(cycle_mods.values()) + [nabla2(cycle, cycle_mods)]:
        assert layer_dims(restrict_rep(m, whole)) == layer_dims(m)


def test_restriction_checks_the_relations():
    # x acting by 1 + x breaks x^3 = 0, so the restricted action is refused
    alg = build_algebra(truncated_polynomial(3))
    whole = whole_algebra(alg)
    _, _, arrows = whole.as_algebra()
    (name,) = arrows
    arrows[name] = {**arrows[name], **alg.unit_vector()}  # x + 1: disjoint supports
    with pytest.raises(InputFormatError, match="does not satisfy a defining relation"):
        restrict_rep(projective_rep(alg, "1"), whole)


# -- the A1 chain family -----------------------------------------------------------------


def a1_chain(n, field=QQ):
    """The Auslander algebra of k[x]/(x^n): the double chain 1 <-> ... <-> n
    with a_i: i -> i+1, b_i: i+1 -> i, a1*b1 = 0 and a_i*b_i = b_(i-1)*a_(i-1);
    its dimension is n(n+1)(2n+1)/6."""
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    arrows += [(f"b{i}", str(i + 1), str(i)) for i in range(1, n)]
    relations = [[(1, ("a1", "b1"))]]
    relations += [[(1, (f"a{i}", f"b{i}")), (-1, (f"b{i - 1}", f"a{i - 1}"))]
                  for i in range(2, n)]
    return build_algebra(QuiverPresentation(field, vertices, arrows, relations))


@pytest.mark.parametrize("n, dim", [(3, 14), (4, 30), (5, 55)])
def test_a1_chain_restricts_projectively_over_the_whole_algebra(n, dim):
    alg = a1_chain(n)
    assert alg.dim == dim
    whole = whole_algebra(alg)
    vertices = alg.presentation.vertices
    projectives = [projective_rep(alg, v) for v in vertices]
    assert all(restricts_projectively(p, whole) for p in projectives)
    assert restricts_projectively(direct_sum(*projectives), whole)
    assert not any(restricts_projectively(simple_rep(alg, v), whole) for v in vertices)


def test_a1_chain_ext1_matches_the_cocycle_oracle():
    alg = a1_chain(3)
    whole = whole_algebra(alg)
    vertices = alg.presentation.vertices
    for v in vertices:
        for m in (projective_rep(alg, v), simple_rep(alg, v)):
            ext1 = ext1_over_sub(m, whole)
            assert ext1 == ext1_over_sub_by_oracle(m, whole)
            assert ext1 == {u: ext_groups(m, simple_rep(alg, u), 1)[1] for u in vertices}


@pytest.fixture(scope="module")
def chain3():
    return a1_chain(3)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(0, 13), max_size=3, unique=True))
def test_ext1_over_a1_chain_subalgebras_matches_the_cocycle_oracle(chain3, gens):
    units = [chain3.basis_vector(i) for i in range(chain3.dim)]
    emb = subalgebra_from_generators(chain3, [units[i] for i in gens])
    for v in chain3.presentation.vertices:
        for m in (projective_rep(chain3, v), simple_rep(chain3, v)):
            assert ext1_over_sub(m, emb) == ext1_over_sub_by_oracle(m, emb)

