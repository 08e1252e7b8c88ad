"""Highest weight structure: standards, quasi-heredity, truncation, parity.

Frozen values derived by hand before running the code.  Over the two-vertex
cycle with ba = 0 and order 1 < 2: Delta(1) = L(1), Delta(2) = P(2) = [L2; L1],
Nabla(1) = L(1), Nabla(2) = P(1)/rad^2; the algebra is quasi-hereditary with
trace ideals of dimensions 4 then 5 and global dimension exactly 2; with the
lengths l = (0, 1) every parity check passes and with l = (0, 0) they all
fail; the Ext polynomials are constant 1 on the three pairs nu <= lam and
absent otherwise; the Yoneda dual has total dimension 5 in degrees (2, 2, 1).
With the order reversed (2 < 1) the largest quotient definition makes
Delta(1) all of P(1), which contains L(1) twice, so quasi-heredity fails.
The graded reciprocity entry [Q(1) : Nabla(2) shifted -1] = 1 matches the
grade-1 piece L(1) of the graded Delta(2).

The three-weight cycle 1 <-> 2 <-> 3 with all length-two relations through a
repeated vertex killed has dimension 9, standard dimensions (1, 2, 2), trace
ideal dimensions (4, 8, 9) and global dimension exactly 4; truncating to the
ideal {1, 2} reproduces the two-vertex cycle (dimension 5, graded dimensions
2, 2, 1).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import dense_map, identity, mul, resolution_maps
from grkoszul.errors import InputFormatError, InternalCheckError, PreconditionError
from grkoszul.exactlin import QQ, _push
from grkoszul.algebra_core import (
    QuiverPresentation,
    build_algebra,
    gr_algebra,
    subalgebra_from_generators,
)
from grkoszul.rep_homology import (
    ext_groups,
    filtration_slice,
    gr_rep,
    is_isomorphic,
    projective_rep,
    simple_rep,
    _global_dimension,
)
from grkoszul.qha_engine import (
    HighestWeightStructure,
    WeightPosetIdeal,
    category_kl_and_dual,
    duality_matrix_from_presentation,
    dualize,
    orthogonality_reciprocity_check,
    parity_checks,
    pipeline_checks,
    qha_check,
    standard_modules,
    truncate,
)


def two_vertex_cycle(with_duality=True):
    return QuiverPresentation(
        field=QQ,
        vertices=["1", "2"],
        arrows=[("a", "1", "2"), ("b", "2", "1")],
        relations=[[(1, ("b", "a"))]],
        duality=[("a", 1, "b"), ("b", 1, "a")] if with_duality else [],
    )


def three_weight_cycle():
    return QuiverPresentation(
        field=QQ,
        vertices=["1", "2", "3"],
        arrows=[("a1", "1", "2"), ("b1", "2", "1"),
                ("a2", "2", "3"), ("b2", "3", "2")],
        relations=[[(1, ("a1", "a2"))], [(1, ("b2", "b1"))],
                   [(1, ("b1", "a1"))], [(1, ("b2", "a2"))]],
        duality=[("a1", 1, "b1"), ("b1", 1, "a1"),
                 ("a2", 1, "b2"), ("b2", 1, "a2")],
    )


def truncated_polynomial(power):
    return QuiverPresentation(
        field=QQ,
        vertices=["v"],
        arrows=[("x", "v", "v")],
        relations=[[(1, ("x",) * power)]],
    )


def whole_algebra_embedding(algebra):
    return subalgebra_from_generators(
        algebra, [algebra.basis_vector(i) for i in range(algebra.dim)]
    )


@pytest.fixture(scope="module")
def cycle():
    return build_algebra(two_vertex_cycle())


@pytest.fixture(scope="module")
def cycle_poset():
    return WeightPosetIdeal(["1", "2"], [("1", "2")], {"1": 0, "2": 1})


@pytest.fixture(scope="module")
def cycle_hw(cycle, cycle_poset):
    return standard_modules(
        cycle, cycle_poset, duality=duality_matrix_from_presentation(cycle)
    )


@pytest.fixture(scope="module")
def weight3():
    return build_algebra(three_weight_cycle())


@pytest.fixture(scope="module")
def weight3_hw(weight3):
    poset = WeightPosetIdeal(
        ["1", "2", "3"], [("1", "2"), ("2", "3")], {"1": 0, "2": 1, "3": 2}
    )
    return standard_modules(
        weight3, poset, duality=duality_matrix_from_presentation(weight3)
    )


# -- weight posets -----------------------------------------------------------------


def test_poset_validation():
    with pytest.raises(InputFormatError):
        WeightPosetIdeal(["a", "a"], [])
    with pytest.raises(InputFormatError):
        WeightPosetIdeal(["a"], [("a", "z")])
    with pytest.raises(InputFormatError):
        WeightPosetIdeal(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(InputFormatError):
        WeightPosetIdeal(["a", "b"], [], {"a": 0})
    with pytest.raises(InputFormatError):
        WeightPosetIdeal(["a"], [], {"a": 0, "z": 1})


def test_poset_closure_and_ideals():
    poset = WeightPosetIdeal(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert poset.lt("a", "c") and not poset.lt("c", "a")
    assert poset.leq("b", "b")
    assert poset.maximal_in(["a", "b", "c"]) == ["c"]
    assert poset.maximal_in(["b", "a"]) == ["b"]
    assert poset.is_ideal(["a", "b"]) and not poset.is_ideal(["b"])
    sub = poset.restrict(["a", "b"])
    assert sub.elements == ["a", "b"] and sub.lt("a", "b")


@st.composite
def random_poset(draw):
    labels = ["a", "b", "c", "d"]
    pairs = [(x, y) for i, x in enumerate(labels) for y in labels[i + 1:]]
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=6))
    return WeightPosetIdeal(labels, sorted(chosen))


@settings(max_examples=25, deadline=None)
@given(random_poset(), st.sets(st.sampled_from(["a", "b", "c", "d"]), min_size=1))
def test_poset_properties(poset, subset):
    sub = sorted(subset)
    # strictness and transitivity of the closure
    for x in poset.elements:
        assert not poset.lt(x, x)
        for y in poset.elements:
            for z in poset.elements:
                if poset.lt(x, y) and poset.lt(y, z):
                    assert poset.lt(x, z)
    maxima = poset.maximal_in(sub)
    assert maxima and all(m in sub for m in maxima)
    # downward closing any subset yields an ideal, and restriction keeps order
    closure = sorted({y for x in sub for y in poset.elements if poset.lt(y, x)} | set(sub))
    assert poset.is_ideal(closure)
    restricted = poset.restrict(closure)
    for x in closure:
        for y in closure:
            assert restricted.lt(x, y) == poset.lt(x, y)


# -- standard and costandard modules -------------------------------------------------


def test_standard_modules_frozen(cycle, cycle_hw):
    h = cycle_hw
    assert {v: h.standards[v].total_dim for v in "12"} == {"1": 1, "2": 2}
    assert {v: h.costandards[v].total_dim for v in "12"} == {"1": 1, "2": 2}
    assert is_isomorphic(h.standards["2"], projective_rep(cycle, "2"))[0]
    assert is_isomorphic(h.standards["1"], simple_rep(cycle, "1"))[0]
    assert is_isomorphic(h.costandards["1"], simple_rep(cycle, "1"))[0]
    nabla2 = filtration_slice(projective_rep(cycle, "1"), 0, 2)
    assert is_isomorphic(h.costandards["2"], nabla2)[0]
    assert h.injectives["1"].total_dim == 3
    assert h.injectives["2"].total_dim == 2


def test_standard_modules_rejects_foreign_poset(cycle):
    with pytest.raises(InputFormatError):
        standard_modules(cycle, WeightPosetIdeal(["1", "3"], []))


def test_reversed_order_gives_largest_quotients(cycle):
    h = standard_modules(cycle, WeightPosetIdeal(["1", "2"], [("2", "1")]))
    # with 2 below 1 nothing is killed in P(1), so Delta(1) is all of it
    assert h.standards["1"].total_dim == 3
    assert h.standards["2"].total_dim == 1
    report = qha_check(h)
    assert not report.passed
    assert any("contains its simple 2 times" in f for f in report.failures)


def test_duality_matrix_is_antiinvolution(cycle, cycle_hw):
    d = duality_matrix_from_presentation(cycle)
    # the columns square to the identity, pushed and as dense matrices
    assert [_push(0, d, col) for col in d] == [cycle.basis_vector(i) for i in range(cycle.dim)]
    dense = dense_map(QQ, d, cycle.dim)
    assert mul(dense, dense) == identity(QQ, cycle.dim)
    for v in "12":
        assert is_isomorphic(dualize(cycle_hw, cycle_hw.standards[v]),
                             cycle_hw.costandards[v])[0]
        assert is_isomorphic(dualize(cycle_hw, cycle_hw.simples[v]),
                             cycle_hw.simples[v])[0]


def test_duality_validation(cycle, cycle_poset):
    # the identity's columns with the entry (2, 2) zeroed
    broken = [cycle.basis_vector(i) for i in range(cycle.dim)]
    broken[2] = {}
    with pytest.raises(InputFormatError):
        standard_modules(cycle, cycle_poset, duality=broken)
    # the identity fixes idempotents and squares to itself but does not
    # reverse products on a noncommutative algebra
    with pytest.raises(InputFormatError):
        standard_modules(cycle, cycle_poset,
                         duality=[cycle.basis_vector(i) for i in range(cycle.dim)])
    # a -> 2b, b -> a, a*b -> 2 a*b fixes the idempotents and reverses
    # products, but its square doubles a
    assert [p.label() for p in cycle.basis] == ["e_1", "e_2", "a", "b", "a*b"]
    with pytest.raises(InputFormatError, match="square to the identity"):
        standard_modules(cycle, cycle_poset,
                         duality=[{0: 1}, {1: 1}, {3: 2}, {2: 1}, {4: 2}])
    # columns of integral Fractions and explicit zeros are held canonical
    d = duality_matrix_from_presentation(cycle)
    loose = [{k: Fraction(x) for k, x in col.items()} for col in d]
    loose[0] = {**loose[0], 1: 0}
    held = standard_modules(cycle, cycle_poset, duality=loose).duality
    assert held == d and all(type(x) is int for col in held for x in col.values())


def test_dualize_needs_duality(cycle, cycle_poset):
    bare = standard_modules(cycle, cycle_poset)
    with pytest.raises(PreconditionError):
        dualize(bare, bare.simples["1"])


# -- quasi-heredity ----------------------------------------------------------------


def test_qha_check_cycle_frozen(cycle_hw):
    report = qha_check(cycle_hw)
    assert report.passed
    assert report.filtrations == {"1": ["1", "2"], "2": ["2"]}
    assert [(s.weight, s.ideal_dim) for s in report.heredity_chain] == [("2", 4), ("1", 5)]


def test_qha_check_three_weight_frozen(weight3, weight3_hw):
    assert weight3.dim == 9
    h = weight3_hw
    assert {v: h.standards[v].total_dim for v in "123"} == {"1": 1, "2": 2, "3": 2}
    report = qha_check(h)
    assert report.passed
    assert report.filtrations == {"1": ["1", "2"], "2": ["2", "3"], "3": ["3"]}
    assert [(s.weight, s.ideal_dim) for s in report.heredity_chain] == \
        [("3", 4), ("2", 8), ("1", 9)]


def test_qha_check_local_algebras_fail():
    for power in (2, 3):
        alg = build_algebra(truncated_polynomial(power))
        h = standard_modules(alg, WeightPosetIdeal(["v"], [], {"v": 0}))
        report = qha_check(h)
        assert not report.passed
        assert any("contains its simple" in f for f in report.failures)


def test_qha_check_semisimple():
    alg = build_algebra(QuiverPresentation(field=QQ, vertices=["p", "q"], arrows=[]))
    h = standard_modules(alg, WeightPosetIdeal(["p", "q"], [], {"p": 0, "q": 0}))
    report = qha_check(h)
    assert report.passed
    assert [(s.weight, s.ideal_dim) for s in report.heredity_chain] == [("p", 1), ("q", 2)]
    parity = parity_checks(h, {"p": 0, "q": 0})
    assert parity.kl and parity.skl_prime and parity.graded_kl


@pytest.mark.parametrize("maker, labels, order, expect", [
    (two_vertex_cycle, ["1", "2"], [("1", "2")], True),
    (three_weight_cycle, ["1", "2", "3"], [("1", "2"), ("2", "3")], True),
    (lambda: truncated_polynomial(3), ["v"], [], False),
    (lambda: truncated_polynomial(2), ["v"], [], False),
])
def test_qha_implies_finite_global_dimension(maker, labels, order, expect):
    alg = build_algebra(maker())
    h = standard_modules(alg, WeightPosetIdeal(labels, order))
    passed = qha_check(h).passed
    assert passed is expect
    if passed:
        assert _global_dimension(alg)[1]


# -- truncation --------------------------------------------------------------------


def test_truncate_cycle_to_field(cycle_hw):
    hb = truncate(cycle_hw, ["1"])
    assert hb.algebra.dim == 1
    assert hb.algebra.presentation.vertices == ["1"]
    assert hb.algebra.presentation.arrows == []
    assert qha_check(hb).passed


def test_truncate_full_ideal_is_identity(cycle_hw):
    assert truncate(cycle_hw, ["1", "2"]) is cycle_hw


def test_truncate_rejects_bad_subsets(cycle_hw):
    with pytest.raises(InputFormatError):
        truncate(cycle_hw, [])
    with pytest.raises(InputFormatError):
        truncate(cycle_hw, ["2"])  # not downward closed
    with pytest.raises(InputFormatError):
        truncate(cycle_hw, ["1", "7"])


def test_truncate_three_weight_reproduces_cycle(weight3_hw):
    hb = truncate(weight3_hw, ["1", "2"])
    assert hb.algebra.dim == 5
    assert hb.algebra.graded_dims() == [2, 2, 1]
    assert {v: hb.standards[v].total_dim for v in "12"} == {"1": 1, "2": 2}
    assert qha_check(hb).passed
    # Ext between surviving simples is unchanged (also asserted internally)
    for lam in "12":
        for mu in "12":
            assert ext_groups(hb.simples[lam], hb.simples[mu], 4) == \
                ext_groups(weight3_hw.simples[lam], weight3_hw.simples[mu], 4)


def test_truncate_linear_quiver_to_field():
    lin = build_algebra(QuiverPresentation(
        field=QQ, vertices=["1", "2"], arrows=[("a", "1", "2")], relations=[],
    ))
    h = standard_modules(lin, WeightPosetIdeal(["1", "2"], [("1", "2")]))
    assert qha_check(h).passed
    hb = truncate(h, ["1"])
    assert hb.algebra.dim == 1 and hb.algebra.presentation.arrows == []


# -- orthogonality and reciprocity ----------------------------------------------------


def test_orthogonality_cycle(cycle_hw):
    report = orthogonality_reciprocity_check(cycle_hw)
    assert report.orthogonality_ok
    assert (report.bound, report.exact_bound) == (2, True)
    assert report.graded_checked and report.reciprocity_ok
    assert report.failures == []


def test_reciprocity_entries_frozen(cycle_hw):
    report = orthogonality_reciprocity_check(cycle_hw)
    entries = {(m, t, s): n for m, t, s, n in report.reciprocity}
    # the injective at 1 contains the costandard at 2 once, shifted by -1,
    # matching the grade-1 piece L(1) of the graded standard at 2
    assert entries[("1", "2", -1)] == 1
    assert entries[("1", "2", 0)] == 0
    assert entries[("2", "2", 0)] == 1
    assert entries[("1", "1", 0)] == 1
    assert entries[("2", "1", 0)] == 0


def test_orthogonality_three_weight(weight3_hw):
    report = orthogonality_reciprocity_check(weight3_hw)
    assert report.orthogonality_ok
    assert (report.bound, report.exact_bound) == (4, True)
    assert report.reciprocity_ok


# -- parity ------------------------------------------------------------------------


def test_parity_cycle_frozen(cycle_hw):
    report = parity_checks(cycle_hw, {"1": 0, "2": 1})
    assert report.kl and report.skl_prime and report.graded_kl
    assert report.duality_used
    assert report.failures == []
    flat = parity_checks(cycle_hw, {"1": 0, "2": 0})
    assert not flat.kl and not flat.skl_prime and flat.graded_kl is False
    assert flat.failures


def test_parity_without_duality_matches(cycle, cycle_poset, cycle_hw):
    bare = standard_modules(cycle, cycle_poset)
    report = parity_checks(bare, {"1": 0, "2": 1})
    assert not report.duality_used
    assert report.kl and report.skl_prime and report.graded_kl


def test_parity_rejects_partial_lengths(cycle_hw):
    with pytest.raises(InputFormatError):
        parity_checks(cycle_hw, {"1": 0})


def test_parity_strong_implies_plain(cycle_hw, weight3_hw):
    for h, lengths in (
        (cycle_hw, {"1": 0, "2": 1}),
        (cycle_hw, {"1": 0, "2": 0}),
        (weight3_hw, {"1": 0, "2": 1, "3": 2}),
        (weight3_hw, {"1": 0, "2": 0, "3": 0}),
    ):
        report = parity_checks(h, lengths)
        assert report.kl or not report.skl_prime


# -- Ext polynomials and the Yoneda dual ----------------------------------------------


def test_category_polynomials_cycle(cycle_hw):
    report = category_kl_and_dual(cycle_hw, {"1": 0, "2": 1})
    assert report.polynomials == {
        ("1", "1"): {0: 1}, ("1", "2"): {0: 1}, ("2", "2"): {0: 1},
    }
    assert report.dual_total_dim == 5
    assert report.dual_degree_dims == [2, 2, 1]
    assert report.gr_dual_degree_dims == [2, 2, 1]
    assert report.duals_match and report.exact_bound


def test_category_polynomials_three_weight(weight3_hw):
    report = category_kl_and_dual(weight3_hw, {"1": 0, "2": 1, "3": 2})
    assert report.polynomials == {
        ("1", "1"): {0: 1}, ("1", "2"): {0: 1}, ("1", "3"): {0: 1},
        ("2", "2"): {0: 1}, ("2", "3"): {0: 1}, ("3", "3"): {0: 1},
    }
    assert report.duals_match


# -- the full pipeline -------------------------------------------------------------


def test_pipeline_cycle_all_green(cycle, cycle_hw):
    report = pipeline_checks(cycle_hw, whole_algebra_embedding(cycle))
    assert report.pair.passed
    assert report.restriction.passed and report.restriction.bound == 2
    assert report.graded_structure.implied and report.graded_structure.holds
    assert report.graded_structure.standards_restrict_iso == {"1": True, "2": True}
    assert report.parity_transfer.implied and report.parity_transfer.holds
    assert report.graded_transfer.implied and report.graded_transfer.holds
    assert report.graded_transfer.standards_linear
    assert report.graded_transfer.polynomials_match
    assert report.koszul_pipeline.implied and report.koszul_pipeline.gr_koszul
    assert report.notes == []


def test_pipeline_cubic_truncation_fails_koszul_clause():
    alg = build_algebra(truncated_polynomial(3))
    h = standard_modules(alg, WeightPosetIdeal(["v"], [], {"v": 0}))
    report = pipeline_checks(h, whole_algebra_embedding(alg))
    assert report.koszul_pipeline.truncation_sub_koszul is False
    assert not report.koszul_pipeline.implied
    assert report.koszul_pipeline.gr_koszul is False
    assert not report.pair.passed  # not quasi-hereditary either
    assert not report.parity_transfer.implied


def test_pipeline_three_weight_proper_ideal(weight3, weight3_hw):
    report = pipeline_checks(
        weight3_hw, whole_algebra_embedding(weight3), ["1", "2"]
    )
    assert report.pair.passed
    assert report.restriction.passed
    assert report.graded_structure.implied and report.graded_structure.holds
    assert report.parity_transfer.implied and report.parity_transfer.holds
    assert report.graded_transfer.holds
    assert report.koszul_pipeline.implied and report.koszul_pipeline.gr_koszul


def a1_chain_with_duality(n, field=QQ):
    """The double chain 1 <-> ... <-> n of the A1 family (a_i: i -> i+1,
    b_i: i+1 -> i, a1*b1 = 0, a_i*b_i = b_(i-1)*a_(i-1)) with the duality
    a_i <-> b_i, over the given field."""
    arrows = [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)]
    arrows += [(f"b{i}", str(i + 1), str(i)) for i in range(1, n)]
    relations = [[(1, ("a1", "b1"))]]
    relations += [[(1, (f"a{i}", f"b{i}")), (-1, (f"b{i - 1}", f"a{i - 1}"))]
                  for i in range(2, n)]
    duality = [(f"{x}{i}", 1, f"{y}{i}") for i in range(1, n) for x, y in ("ab", "ba")]
    return QuiverPresentation(field, [str(i) for i in range(1, n + 1)], arrows,
                              relations, duality=duality)


def test_pipeline_a1_chain_parity_subalgebra():
    """n = 3 with the subalgebra generated by e1 + e3, e2, a1 + a2 and
    b1 + b2: the pair hypotheses hold, P(3) does not restrict projectively,
    and every Koszul and graded clause still holds."""
    alg = build_algebra(a1_chain_with_duality(3))
    poset = WeightPosetIdeal(["1", "2", "3"], [("2", "1"), ("3", "2")],
                             {"1": 2, "2": 1, "3": 0})
    h = standard_modules(alg, poset, duality=duality_matrix_from_presentation(alg))

    def element(*names):
        return {alg.vertex_index[name] if name.isdigit() else alg.arrow_index[name]: 1
                for name in names}

    emb = subalgebra_from_generators(
        alg, [element("1", "3"), element("2"), element("a1", "a2"), element("b1", "b2")])
    assert emb.dim == 13
    report = pipeline_checks(h, emb, ["3", "2"])
    assert report.pair.passed
    assert not report.restriction.passed
    k = report.koszul_pipeline
    assert (k.truncation_sub_koszul, k.radical_generation, k.regular_restricts, k.implied,
            k.gr_koszul) == (True, True, True, True, True)
    g = report.graded_structure
    assert (g.implied, g.gr_qha, g.standards_match, g.standards_restrict_iso, g.holds) \
        == (False, True, True, {"2": True, "3": True}, True)
    assert report.notes == []


def _module_content(rep):
    return rep.dims, {name: mat.rows for name, mat in rep.action.items()}


def test_pipeline_leaves_its_memoised_resolutions_as_built(monkeypatch):
    """Every cover, resolution chain and Hom dimension that pipeline_checks
    memoised, and so shared between its callers (a resolution is a prefix of
    one chain of memoised covers, graded resolutions grade them, and Ext
    reads the Hom dimensions), still equals a computation with no memo at
    all afterwards: no caller changed a shared result."""
    import grkoszul.rep_homology as rh
    from grkoszul.algebra_core import FiniteDimAlgebra

    built = []

    def recording(name, real):
        def call(*args):
            out = real(*args)
            built.append((name, args, out))
            return out
        return call

    for name in ("projective_cover", "hom_space"):
        monkeypatch.setattr(rh, name, recording(name, getattr(rh, name)))
    weight3 = build_algebra(three_weight_cycle())
    hw = standard_modules(weight3, WeightPosetIdeal(
        ["1", "2", "3"], [("1", "2"), ("2", "3")], {"1": 0, "2": 1, "3": 2}),
        duality=duality_matrix_from_presentation(weight3))
    assert pipeline_checks(hw, whole_algebra_embedding(weight3), ["1", "2"]).pair.passed
    monkeypatch.undo()
    assert {name for name, _, _ in built} == {"projective_cover", "hom_space"}
    # each memoised chain, the (cover, map, rank) of each degree, with a module
    # of its content: the chain's first cover was built for one; each memoised
    # Hom dimension with a pair of modules of its contents, solved for it
    covered = {(id(args[0].algebra), rh._content(args[0])): args[0]
               for name, args, _ in built if name == "projective_cover"}
    solved = {(id(args[0].algebra), rh._content(args[0]), rh._content(args[1])): args
              for name, args, _ in built if name == "hom_space"}
    algebras = {id(args[0].algebra): args[0].algebra for _, args, _ in built}
    chains = [(covered[id(alg), key[1]], steps) for alg in algebras.values()
              for key, steps in alg._memo.items() if key[0] == "resolution" and steps]
    hom_dims = [(solved[(id(alg),) + key[1:]], dim) for alg in algebras.values()
                for key, dim in alg._memo.items() if key[0] == "hom dim"]
    assert chains and hom_dims
    monkeypatch.setattr(FiniteDimAlgebra, "memoized", lambda self, key, build: build())
    for name, args, kept in built:
        if name == "projective_cover":
            fresh = rh.projective_cover(*args)
            assert (kept.generators, kept.map, kept.syzygy_inclusion, kept.head) \
                == (fresh.generators, fresh.map, fresh.syzygy_inclusion, fresh.head)
            assert [_module_content(m) for m in (kept.projective, kept.syzygy)] \
                == [_module_content(m) for m in (fresh.projective, fresh.syzygy)]
    for m, steps in chains:
        fresh = rh.minimal_resolution(m, len(steps) - 1)
        assert [(cov.summands, cols) for cov, cols, _ in steps] \
            == list(zip(fresh.summand_vertices, resolution_maps(fresh), strict=True))
        assert [_module_content(cov.syzygy) for cov, _, _ in steps] \
            == [_module_content(syz) for syz in fresh.syzygies]
    for (m, n), dim in hom_dims:
        assert dim == len(rh.hom_space(m, n))


def test_pipeline_needs_lengths(cycle, cycle_poset):
    bare = standard_modules(cycle, WeightPosetIdeal(["1", "2"], [("1", "2")]))
    with pytest.raises(PreconditionError):
        pipeline_checks(bare, whole_algebra_embedding(cycle))


def test_pipeline_rejects_non_ideal(cycle, cycle_hw):
    with pytest.raises(InputFormatError):
        pipeline_checks(cycle_hw, whole_algebra_embedding(cycle), ["2"])


# -- gr standards match standards over gr ---------------------------------------------


def test_gr_standards_agree_with_standards_over_gr(cycle, cycle_poset, cycle_hw):
    graded = gr_algebra(cycle)
    h_gr = standard_modules(graded.algebra, cycle_poset)
    for lam in "12":
        transported = gr_rep(cycle_hw.standards[lam], graded)
        assert is_isomorphic(h_gr.standards[lam], transported.rep)[0]
