"""Root data, linkage folding, weight ideals, fattening, bound battery.

Frozen values derived by hand before running the code.  Positive root counts
and Coxeter numbers: A1 (1, 2), A2 (3, 3), A3 (6, 4), B2 (4, 4), B3 (9, 6),
C3 (9, 6), D4 (12, 6), F4 (24, 12), G2 (6, 6), E6 (36, 12), E7 (63, 18),
E8 (120, 30).  In B2 the maximal short root is alpha_1 + alpha_2 with coroot
(2, 1); in G2 it is 2 alpha_1 + alpha_2 with coroot (2, 3).

Type A1 at e = 5, one coordinate: lam = 3 folds through (4) -> (-4), so the
antidominant representative is -5 at length 1; lam = 5 folds (6) -> (-6) ->
(-4), representative -5 at length 2; lam = 7 folds (8) -> (-8) -> (-2),
representative -3 at length 2 and depth floor(8/5) = 1; lam = 4 is singular
on the wall (x, alpha^v) = 5, shifted point (5) -> (-5), representative -6,
facet ((1,), 1), strict length 1.  The fattening map sends c to
8 - (c mod 5) + 5 floor(c/5): images of 3 and 7 are 5 and 11.  The
restricted ideal is {0..4} with a1 = 0; one fattening step of the regular
restricted ideal {0, 1, 2, 3} gives {0, 1, 2, 3, 5, 6, 7, 8} with a1 = 1,
operationally fat but not literally fat (the literal test needs the
singular weight 4).  For the regular ideal {0, 1, 2, 3, 5, 6, 7, 8} at
p = 5: Jantzen bound 25 holds everywhere, a1 values (1, 2), extension
vanishing 1 < 4, cover condition 3 < 8, depths 0 on 0..3 and 1 on 5..8 so
the global dimension bound is 2, the growth row at m = 0 is 2 < 3 strict,
and the restricted-ideal threshold at m = -1 fails (1 < 1 is false), which
is why that bound is only asserted for subsets of the restricted ideal.

Type A2: mu = 0 precedes lam = (1, 1) although no intermediate step is
dominant, so closure must pass through non-dominant states; the closure of
(2, 2) is the five weights (0,0), (1,1), (0,3), (3,0), (2,2).  At e = 3 the
weight (1, 1) has shifted pairings (2, 2, 4), crossing walls m = 0 of both
simple roots and m = 0, 1 of the highest root: length 4, depth 1.
"""

import dataclasses
import re
from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkoszul.errors import InputFormatError, InternalCheckError, PreconditionError
from grkoszul.alcove import (
    AffineWeylElement,
    Weight,
    WeightIdealSet,
    a1_value,
    bounds_report,
    dominance_and_regularity,
    dominant_conjugate,
    fatten,
    fe_image,
    gamma_res,
    gamma_res_reg,
    _affine_product,
    _closure_set,
    _fraction_inverse,
    _mat_vec,
    hyperplane_length,
    ideal_closure,
    identity_element,
    is_regular,
    left_descent_walls,
    linkage,
    partition_translate,
    restricted_weights,
    root_datum_build,
    wall_reflections,
    weyl_orbit,
)


@pytest.fixture(scope="module")
def a1():
    return root_datum_build("A", 1)


@pytest.fixture(scope="module")
def a2():
    return root_datum_build("A", 2)


def w(*coords):
    return Weight(tuple(coords))


# -- test-only helpers: dominance order, products, inverses, the Jantzen region ------


def dominance_leq(rd, lower, upper):
    """Whether lower <= upper: the difference is in Z>=0 . simple roots."""
    coords = rd.to_root_coords(upper - lower)
    return all(c.denominator == 1 and c >= 0 for c in coords)


def base_interior_point(rd, e):
    """A rho-shifted point interior to the base (antidominant) cell."""
    return tuple(Fraction(-e, rd.coxeter_number) for _ in range(rd.rank))


def compose(rd, e, a, b):
    """a after b, with the length recomputed from hyperplane counts."""
    mat, trans = _affine_product((a.finite_part, a.translation), (b.finite_part, b.translation))
    return AffineWeylElement(mat, trans, hyperplane_length(rd, e, mat, trans))


def element_inverse(rd, e, a):
    inv_rows = _fraction_inverse([list(row) for row in a.finite_part])
    assert all(x.denominator == 1 for row in inv_rows for x in row), \
        "finite part must be integrally invertible"
    mat = tuple(tuple(int(x) for x in row) for row in inv_rows)
    trans = tuple(-x for x in _mat_vec(mat, a.translation))
    return AffineWeylElement(mat, trans, hyperplane_length(rd, e, mat, trans))


def jantzen_region(rd, p):
    """Dominant weights with (x + rho, alpha_0^v) <= p(p - h + 2)."""
    bound = p * (p - rd.coxeter_number + 2)
    cv = rd.coroot(rd.max_short_root)
    rho_pairing = sum(cv)
    if bound < rho_pairing:
        return WeightIdealSet(rd, p, ())
    ranges = [range((bound - rho_pairing) // cv[i] + 1) for i in range(rd.rank)]
    weights = [Weight(v) for v in product(*ranges)
               if sum((x + 1) * c for x, c in zip(v, cv)) <= bound]
    return WeightIdealSet(rd, p, tuple(weights))


class TestRootData:
    @pytest.mark.parametrize("lie_type,rank,roots,h", [
        ("A", 1, 1, 2), ("A", 2, 3, 3), ("A", 3, 6, 4),
        ("B", 2, 4, 4), ("B", 3, 9, 6), ("C", 3, 9, 6),
        ("D", 4, 12, 6), ("F", 4, 24, 12), ("G", 2, 6, 6),
        ("E", 6, 36, 12), ("E", 7, 63, 18), ("E", 8, 120, 30),
    ])
    def test_root_counts_and_coxeter_numbers(self, lie_type, rank, roots, h):
        rd = root_datum_build(lie_type, rank)
        assert len(rd.positive_roots) == roots
        assert rd.coxeter_number == h

    def test_unsupported_types_are_input_errors(self):
        for lie_type, rank in [("H", 3), ("A", 0), ("B", 1), ("D", 3), ("E", 9)]:
            with pytest.raises(InputFormatError):
                root_datum_build(lie_type, rank)

    def test_b2_max_short_root(self):
        rd = root_datum_build("B", 2)
        assert rd.max_short_root == (1, 1)
        assert rd.coroot((1, 1)) == (2, 1)

    def test_g2_max_short_root(self):
        rd = root_datum_build("G", 2)
        assert rd.max_short_root == (2, 1)
        assert rd.coroot((2, 1)) == (2, 3)

    def test_a2_star_swaps_coordinates(self, a2):
        assert a2.star(w(2, 0)) == w(0, 2)
        assert a2.w0(a2.rho) == w(-1, -1)

    def test_a1_simple_root_and_pairing(self, a1):
        assert a1.simple_root(0) == w(2)
        assert a1.pairing(w(3), (1,)) == 3
        assert a1.to_root_coords(w(2)) == (Fraction(1),)

    def test_inner_product_symmetry(self, a2):
        x, y = w(1, 2), w(3, 1)
        def inner(a, b):
            return a2.root_inner(a2.to_root_coords(a), b)

        assert inner(x, y) == inner(y, x)
        # (rho, rho) in A2 is 2 (each simple root has squared length 2).
        assert inner(a2.rho, a2.rho) == 2


class TestDominanceAndRegularity:
    def test_a1_dominance(self, a1):
        assert dominance_leq(a1, w(5), w(7))
        assert not dominance_leq(a1, w(5), w(6))
        assert not dominance_leq(a1, w(7), w(5))

    def test_a2_zero_below_rho(self, a2):
        assert dominance_leq(a2, w(0, 0), w(1, 1))
        assert not dominance_leq(a2, w(1, 1), w(0, 0))

    def test_a1_regularity_report(self, a1):
        rep = dominance_and_regularity(a1, 5, w(4))
        assert rep.dominant and not rep.regular
        rep = dominance_and_regularity(a1, 5, w(9))
        assert not rep.regular
        assert rep.restricted_part == w(4)
        assert rep.quotient_part == w(1)
        assert not rep.restricted
        assert dominance_and_regularity(a1, 5, w(7)).regular
        assert dominance_and_regularity(a1, 5, w(3)).restricted

    def test_star_in_report(self, a2):
        rep = dominance_and_regularity(a2, 3, w(2, 0))
        assert rep.star == w(0, 2)

    @given(a=st.integers(-3, 3), b=st.integers(-3, 3),
           c=st.integers(-3, 3), d=st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_dominance_antisymmetry(self, a, b, c, d):
        rd = root_datum_build("A", 2)
        x, y = w(a, b), w(c, d)
        if dominance_leq(rd, x, y) and dominance_leq(rd, y, x):
            assert x == y

    def test_dominant_conjugate(self, a2):
        assert dominant_conjugate(a2, w(-1, 1)) == w(1, 0)
        assert dominant_conjugate(a2, w(2, 1)) == w(2, 1)

    def test_weyl_orbit_sizes(self, a1, a2):
        assert weyl_orbit(a1, w(3)) == (w(-3), w(3))
        assert len(weyl_orbit(a2, w(1, 0))) == 3
        assert weyl_orbit(a2, w(0, 0)) == (w(0, 0),)
        assert len(weyl_orbit(root_datum_build("G", 2), w(1, 1))) == 12


class TestAffineElements:
    def test_wall_reflections_have_length_one(self, a2):
        for refl in wall_reflections(a2, 3):
            assert refl.separation_length(a2, 3) == 1

    def test_identity_has_length_zero(self, a1):
        e = identity_element(1)
        assert e.separation_length(a1, 5) == 0

    def test_compose_and_inverse(self, a2):
        s = wall_reflections(a2, 3)
        x = compose(a2, 3, s[0], compose(a2, 3, s[2], s[1]))
        assert x.separation_length(a2, 3) == x.length
        inv = element_inverse(a2, 3, x)
        assert compose(a2, 3, inv, x) == identity_element(2)
        assert inv.length == x.length

    def test_affine_wall_translation_is_in_e_root_lattice(self, a1):
        s_aff = wall_reflections(a1, 5)[1]
        assert s_aff.translation == (-10,)
        assert s_aff.dot(a1, w(-7)) == w(-5)
        assert s_aff.dot(a1, w(-6)) == w(-6)

    def test_length_subadditivity(self, a2):
        s = wall_reflections(a2, 3)
        x = compose(a2, 3, s[0], s[2])
        y = compose(a2, 3, s[1], x)
        assert y.length <= x.length + 1

    @given(word=st.lists(st.integers(0, 2), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_separation_recount_matches_cached_length(self, word):
        rd = root_datum_build("A", 2)
        walls = wall_reflections(rd, 3)
        elem = identity_element(2)
        for i in word:
            elem = compose(rd, 3, elem, walls[i])
        assert elem.separation_length(rd, 3) == elem.length

    def test_badly_cached_length_is_caught(self, a1):
        fake = AffineWeylElement(((1,),), (0,), 7)
        with pytest.raises(InternalCheckError):
            fake.separation_length(a1, 5)

    def test_translation_outside_lattice_rejected(self, a1):
        stray = AffineWeylElement(((1,),), (3,), 0)
        with pytest.raises(PreconditionError):
            stray.separation_length(a1, 5)


class TestLinkage:
    def test_a1_regular_weights(self, a1):
        res = linkage(a1, 5, w(3))
        assert res.lambda_minus == w(-5)
        assert res.length == 1
        assert res.regular and res.facet == ()

        res = linkage(a1, 5, w(5))
        assert res.lambda_minus == w(-5)
        assert res.length == 2

        res = linkage(a1, 5, w(7))
        assert res.lambda_minus == w(-3)
        assert res.length == 2
        assert res.depth == 1

    def test_a1_singular_weight(self, a1):
        res = linkage(a1, 5, w(4))
        assert not res.regular
        assert res.lambda_minus == w(-6)
        assert res.facet == (((1,), 1),)
        assert res.length == 1
        assert res.depth is None
        assert res.w.dot(a1, res.lambda_minus) == w(4)

    def test_same_orbit_weights_share_representative(self, a1):
        assert linkage(a1, 5, w(3)).lambda_minus == linkage(a1, 5, w(5)).lambda_minus
        assert linkage(a1, 5, w(7)).lambda_minus == linkage(a1, 5, w(1)).lambda_minus

    def test_a2_length_and_depth(self, a2):
        res = linkage(a2, 3, w(1, 1))
        assert res.length == 4
        assert res.depth == 1
        assert res.w.separation_length(a2, 3) == 4
        assert res.w.dot(a2, res.lambda_minus) == w(1, 1)

    def test_linkage_result_is_frozen(self, a1):
        with pytest.raises(dataclasses.FrozenInstanceError):
            linkage(a1, 5, w(3)).length = 0

    def test_antidominant_weights_have_length_zero(self, a2):
        res = linkage(a2, 3, w(-1, -1))
        assert res.length == 0
        assert res.lambda_minus == w(-1, -1)

    @given(a=st.integers(0, 9))
    @settings(max_examples=30, deadline=None)
    def test_a1_carrier_roundtrip(self, a):
        rd = root_datum_build("A", 1)
        res = linkage(rd, 5, w(a))
        assert res.w.dot(rd, res.lambda_minus) == w(a)
        assert res.w.separation_length(rd, 5) == res.length

    @given(a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_a2_depth_matches_length_parity_free_recount(self, a, b):
        # Depth counts hyperplanes below the weight (positive side), length
        # counts hyperplanes separating from the base cell; for dominant
        # regular weights both count the same walls of type m >= 1, and
        # length additionally counts the m = 0 walls.
        rd = root_datum_build("A", 2)
        res = linkage(rd, 3, w(a, b))
        if res.regular:
            assert res.length == res.depth + len(rd.positive_roots)


@pytest.fixture(scope="module")
def shared_data():
    """One datum per type for a whole property run, so its memos fill up
    across examples."""
    return {kind: root_datum_build(*kind) for kind in (("A", 1), ("A", 2), ("B", 2))}


class TestPerDatumMemos:
    @given(kind=st.sampled_from([("A", 1), ("A", 2), ("B", 2)]), e=st.integers(2, 7),
           coords=st.tuples(st.integers(-4, 12), st.integers(-4, 12)))
    @settings(max_examples=80, deadline=None)
    def test_cached_results_match_a_fresh_datum(self, shared_data, kind, e, coords):
        rd, fresh = shared_data[kind], root_datum_build(*kind)
        lam = Weight(coords[:rd.rank])
        assert linkage(rd, e, lam) is linkage(rd, e, lam)
        assert linkage(rd, e, lam) == linkage(fresh, e, lam)
        if lam.is_dominant:
            assert fe_image(rd, e, lam) is fe_image(rd, e, lam)
            assert fe_image(rd, e, lam) == fe_image(fresh, e, lam)

    def test_memos_are_kept_on_the_datum_not_the_module(self):
        import grkoszul.alcove as alcove

        rd, other = root_datum_build("A", 2), root_datum_build("A", 2)
        assert linkage(other, 3, w(1, 1)) is not linkage(rd, 3, w(1, 1))
        assert fe_image(other, 3, w(1, 1)) is not fe_image(rd, 3, w(1, 1))
        assert not [name for name, value in vars(alcove).items()
                    if isinstance(value, dict) and not name.startswith("__")]


class TestIdealsAndClosure:
    def test_a2_closure_passes_through_nondominant_states(self, a2):
        ideal = ideal_closure(a2, 3, [w(1, 1)])
        assert ideal.weights == (w(0, 0), w(1, 1))

    def test_a2_closure_of_two_two(self, a2):
        ideal = ideal_closure(a2, 3, [w(2, 2)])
        assert ideal.weights == (w(0, 0), w(0, 3), w(1, 1), w(2, 2), w(3, 0))

    def test_closure_idempotent(self, a2):
        ideal = ideal_closure(a2, 3, [w(2, 2)])
        again = ideal_closure(a2, 3, ideal.weights)
        assert again.weights == ideal.weights

    def test_every_construction_verifies_closure(self, a1):
        with pytest.raises(InputFormatError, match="not an order ideal"):
            WeightIdealSet(a1, 5, (w(2),))
        with pytest.raises(InputFormatError, match="not an order ideal"):
            WeightIdealSet(a1, 5, (w(8),), regular_only=True)
        ok = WeightIdealSet(a1, 5, (w(2), w(1), w(0)))
        assert w(2) in ok and ok.weights == (w(0), w(1), w(2))

    def test_regular_only_rejects_singular_members(self, a1):
        with pytest.raises(InputFormatError):
            WeightIdealSet(a1, 5, (w(4),), regular_only=True)

    def test_nondominant_weights_rejected(self, a1):
        with pytest.raises(InputFormatError):
            WeightIdealSet(a1, 5, (w(-1),))
        with pytest.raises(InputFormatError):
            ideal_closure(a1, 5, [w(-2)])

    def test_restricted_ideals_a1(self, a1):
        assert [x.coordinates for x in restricted_weights(a1, 5)] == [
            (0,), (1,), (2,), (3,), (4,)]
        assert gamma_res(a1, 5).weights == (w(0), w(1), w(2), w(3), w(4))
        assert gamma_res_reg(a1, 5).weights == (w(0), w(1), w(2), w(3))

    def test_jantzen_region_a1(self, a1):
        region = jantzen_region(a1, 5)
        assert len(region) == 25
        assert w(24) in region and w(25) not in region

    @given(coords=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                           min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_closure_idempotence_property(self, coords):
        rd = root_datum_build("A", 2)
        ideal = ideal_closure(rd, 3, [Weight(c) for c in coords])
        assert ideal_closure(rd, 3, ideal.weights).weights == ideal.weights


class TestFattening:
    def test_a1_fattening_images(self, a1):
        assert fe_image(a1, 5, w(3)) == w(5)
        assert fe_image(a1, 5, w(7)) == w(11)
        assert fe_image(a1, 5, w(0)) == w(8)

    def test_fe_rejects_nondominant(self, a1):
        with pytest.raises(PreconditionError):
            fe_image(a1, 5, w(-1))

    def test_a1_restricted_a1_values(self, a1):
        assert a1_value(a1, 5, gamma_res(a1, 5).weights) == 0
        report = fatten(a1, 5, gamma_res(a1, 5), 0)
        assert report.a1_values == (0, 1)
        assert report.stages[1].weights == tuple(w(c) for c in range(9))

    def test_a1_regular_restricted_fattening(self, a1):
        report = fatten(a1, 5, gamma_res_reg(a1, 5), 0)
        assert report.stages[0].weights == (w(0), w(1), w(2), w(3))
        assert report.stages[1].weights == tuple(
            w(c) for c in (0, 1, 2, 3, 5, 6, 7, 8))
        assert report.a1_values == (0, 1)
        assert report.efat_operational
        assert not report.efat_literal

    def test_fatten_depth_minus_one_is_plain_closure(self, a1):
        report = fatten(a1, 5, gamma_res(a1, 5), -1)
        assert len(report.stages) == 1

    @given(a=st.integers(0, 6), b=st.integers(0, 6), regular=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_fatten_starts_from_a_closed_ideal_itself(self, a, b, regular):
        rd = root_datum_build("A", 2)
        if regular and not is_regular(rd, 5, w(a, b)):
            return
        psi = ideal_closure(rd, 5, [w(a, b)], regular_only=regular)
        again = WeightIdealSet(rd, 5, psi.weights + (w(a, b),), regular_only=regular)
        stage = fatten(rd, 5, psi, -1).stages[0]
        assert stage is psi
        assert fatten(rd, 5, again, -1).stages[0] == psi
        assert stage == ideal_closure(rd, 5, psi.weights, regular_only=regular)

    def test_restricted_ideals_are_kept_per_datum(self):
        rd, other = root_datum_build("A", 2), root_datum_build("A", 2)
        assert gamma_res(rd, 5) is gamma_res(rd, 5)
        assert gamma_res_reg(rd, 5) is gamma_res_reg(rd, 5)
        assert gamma_res(rd, 5) is not gamma_res_reg(rd, 5)
        assert gamma_res(rd, 5) is not gamma_res(rd, 4)
        assert gamma_res(other, 5) is not gamma_res(rd, 5)
        assert gamma_res(other, 5) == gamma_res(rd, 5)
        assert gamma_res(rd, 4) == ideal_closure(rd, 4, restricted_weights(rd, 4))

    @given(a=st.integers(0, 8), b=st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_fattening_preserves_regularity(self, a, b):
        rd = root_datum_build("A", 2)
        lam = w(a, b)
        if is_regular(rd, 3, lam):
            assert is_regular(rd, 3, fe_image(rd, 3, lam))


class TestBounds:
    def test_a1_regular_ideal_battery(self, a1):
        gamma = WeightIdealSet(a1, 5, tuple(w(c) for c in (0, 1, 2, 3, 5, 6, 7, 8)),
                               regular_only=True)
        report = bounds_report(a1, 5, gamma)
        assert report.jantzen_bound == 25
        assert all(ok for _, ok in report.jantzen_membership)
        assert report.a1_values == (1, 2)
        assert report.ext_vanishing == (1, 4, True)
        assert report.cover_condition == (3, 8, True)
        assert dict(report.depth_values) == {
            w(0): 0, w(1): 0, w(2): 0, w(3): 0,
            w(5): 1, w(6): 1, w(7): 1, w(8): 1}
        assert report.max_depth == 1
        assert report.global_dim_bound == 2
        assert report.growth_rows == ((0, 2, 3, True),)
        assert not report.restricted_subset
        assert report.threshold_rows == ((-1, 1, 1, False), (0, 2, 3, True))
        assert report.pair_rows == ((0, True, 3, 8, True),)
        assert dict(report.thresholds) == {"2h-2": 2, "4h-5": 3, "2N(h-1)-1": 3}

    def test_a1_restricted_ideal_battery(self, a1):
        report = bounds_report(a1, 5, gamma_res(a1, 5))
        assert report.a1_values == (0, 1)
        assert report.restricted_subset
        assert report.threshold_rows == ((-1, 0, 1, True), (0, 1, 3, True))
        assert report.growth_rows == ((0, 1, 2, True),)
        assert report.pair_rows == ((0, True, 1, 8, True),)
        assert report.ext_vanishing == (0, 4, True)
        assert report.cover_condition == (1, 8, True)
        assert report.max_depth == 0 and report.global_dim_bound == 0

    def test_supplied_n_overrides_threshold_table(self, a1):
        report = bounds_report(a1, 5, gamma_res(a1, 5), supplied_n=3)
        assert dict(report.thresholds)["2N(h-1)-1"] == 5

    def test_a2_regular_restricted_battery_runs(self):
        rd = root_datum_build("A", 2)
        report = bounds_report(rd, 7, gamma_res_reg(rd, 7), m_max=1)
        assert report.restricted_subset
        assert len(report.growth_rows) == 2
        assert len(report.threshold_rows) == 3
        assert all(ok for _, _, _, ok in report.threshold_rows)

    def test_mismatched_e_rejected(self, a1):
        with pytest.raises(PreconditionError):
            bounds_report(a1, 7, gamma_res(a1, 5))


class TestPartitions:
    def test_two_row_examples(self):
        assert partition_translate(2, 2, [2, 0], 5) == (w(2), True)
        assert partition_translate(2, 2, [1, 1], 5)[0] == w(0)
        weight, chamber = partition_translate(2, 5, [5, 0], 5)
        assert weight == w(5) and chamber

    def test_chamber_regularity_failure(self):
        # Residues of parts (5, 0) mod 3 are 5 - 1 = 1 and 0 - 2 = 1: they
        # collide, so the chamber flag drops; for (3, 0) they are 2 and 1.
        assert not partition_translate(2, 5, [5, 0], 3)[1]
        assert partition_translate(2, 3, [3, 0], 3)[1]

    def test_three_rows(self):
        weight, _ = partition_translate(3, 6, [3, 2, 1], 5)
        assert weight == w(1, 1)

    def test_invalid_partitions(self):
        with pytest.raises(InputFormatError):
            partition_translate(2, 3, [1, 2], 5)
        with pytest.raises(InputFormatError):
            partition_translate(2, 4, [2, 1], 5)
        with pytest.raises(InputFormatError):
            partition_translate(2, 6, [3, 2, 1], 5)
        with pytest.raises(InputFormatError):
            partition_translate(1, 2, [2], 5)
        with pytest.raises(InputFormatError):
            partition_translate(2, 2, [2, -1, 1], 5)


class TestInteriorPoint:
    def test_base_point_is_interior(self, a2):
        point = base_interior_point(a2, 3)
        for root in a2.positive_roots:
            value = a2.shifted_pairing(point, root)
            assert -3 < value < 0

    def test_hyperplane_length_of_translation(self, a1):
        # Translation by e alpha moves the base cell across 2 hyperplanes
        # for the single positive root: levels m = 0 and m = 1... the
        # shifted interior point sits at -5/2, its image at 15/2, crossing
        # m = 0 and m = 1: exactly 2.
        assert hyperplane_length(a1, 5, ((1,),), (10,)) == 2


# -- differential tests against the unscaled Fraction geometry ----------------------------

_DATA = {name: root_datum_build(name[0], int(name[1:]))
         for name in ("A1", "A2", "B2", "G2", "A3")}


def _reference_between(lo, hi, e):
    if lo > hi:
        lo, hi = hi, lo
    return max(0, (ceil(Fraction(hi) / e) - 1) - (floor(Fraction(lo) / e) + 1) + 1)


def _reference_length(rd, e, finite_part, translation):
    """Hyperplane count in the unscaled rho-shifted space, in Fractions."""
    u = base_interior_point(rd, e)
    v = tuple(sum(Fraction(m) * x for m, x in zip(row, u)) + t
              for row, t in zip(finite_part, translation))
    return sum(_reference_between(rd.shifted_pairing(u, root),
                                  rd.shifted_pairing(v, root), e)
               for root in rd.positive_roots)


class TestIntegerGeometry:
    @given(name=st.sampled_from(sorted(_DATA)), e=st.integers(1, 7),
           word=st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_length_matches_fraction_reference(self, name, e, word):
        rd = _DATA[name]
        walls = wall_reflections(rd, e)
        elem = identity_element(rd.rank)
        for letter in word:
            elem = compose(rd, e, elem, walls[letter % len(walls)])
        assert elem.length == _reference_length(rd, e, elem.finite_part, elem.translation)
        assert elem.length <= len(word) and (len(word) - elem.length) % 2 == 0

    @given(name=st.sampled_from(sorted(_DATA)), e=st.integers(1, 7),
           word=st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_reduced_growth_matches_word_length(self, name, e, word):
        rd = _DATA[name]
        walls = wall_reflections(rd, e)
        elem = identity_element(rd.rank)
        grown = 0
        for letter in word:
            s = letter % len(walls)
            if s not in left_descent_walls(rd, e, elem.finite_part, elem.translation):
                elem = compose(rd, e, walls[s], elem)
                grown += 1
        assert elem.length == grown
        assert elem.length == _reference_length(rd, e, elem.finite_part, elem.translation)

    @given(name=st.sampled_from(sorted(_DATA)), e=st.integers(1, 7),
           coords=st.lists(st.integers(-4, 12), min_size=3, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_linkage_matches_fraction_reference(self, name, e, coords):
        rd = _DATA[name]
        weight = Weight(tuple(coords[:rd.rank]))
        res = linkage(rd, e, weight)
        shifted = tuple(c + 1 for c in weight.coordinates)
        u = base_interior_point(rd, e)
        strict = sum(_reference_between(rd.shifted_pairing(u, root),
                                        rd.shifted_pairing(shifted, root), e)
                     for root in rd.positive_roots)
        assert res.length == strict
        if res.regular:
            assert res.depth == sum(floor(Fraction(rd.shifted_pairing(shifted, root), e))
                                    for root in rd.positive_roots)


def _brute_below(rd, gen, regular):
    """Every dominant weight below gen (the 5-regular ones when regular), by
    testing dominance on the whole box the maximal short coroot bounds."""
    bound = rd.pairing(gen, rd.max_short_root)
    return {Weight(v) for v in product(range(bound + 1), repeat=rd.rank)
            if dominance_leq(rd, Weight(v), gen)
            and (not regular or is_regular(rd, 5, Weight(v)))}


_small_gens = st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=4)


class TestClosureOracles:
    @given(name=st.sampled_from(["A1", "A2", "B2", "G2"]),
           coords=st.lists(st.integers(0, 4), min_size=2, max_size=2),
           regular=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_brute_force(self, name, coords, regular):
        rd = _DATA[name]
        gen = Weight(tuple(coords[:rd.rank]))
        brute = sorted(_brute_below(rd, gen, regular), key=lambda x: x.coordinates)
        assert sorted(_closure_set(rd, 5, gen, regular), key=lambda x: x.coordinates) == brute

    @given(name=st.sampled_from(["A1", "A2", "B2", "G2"]),
           queries=st.lists(st.tuples(_small_gens, st.booleans()), min_size=1, max_size=6),
           bad=st.lists(st.integers(-3, 2), min_size=2, max_size=2),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_interned_closure_matches_brute_force(self, name, queries, bad, data):
        """Many closures on one fresh datum, in any order and with duplicate,
        nested and no generators, each equal to the union of the brute-force
        ideals below its generators; a query whose generators differ but
        whose ideal is the same gets the same interned object."""
        rd = root_datum_build(name[0], int(name[1:]))
        bad = tuple(bad[:rd.rank])
        bad = Weight(bad if min(bad) < 0 else (-1,) * rd.rank)
        for coords, regular in queries:
            gens = [Weight(tuple(c[:rd.rank])) for c in coords]
            if gens:  # repeat some generators
                gens += data.draw(st.lists(st.sampled_from(gens), max_size=3))
            gens = data.draw(st.permutations(gens))
            expected = set().union(*(_brute_below(rd, g, regular) for g in gens))
            ideal = ideal_closure(rd, 5, gens, regular_only=regular)
            assert (ideal.datum, ideal.e, ideal.regular_only) == (rd, 5, regular)
            assert set(ideal.weights) == expected
            assert list(ideal.weights) == sorted(expected, key=lambda x: x.coordinates)
            nested = data.draw(st.permutations(list(ideal.weights) + gens))
            assert ideal_closure(rd, 5, nested, regular_only=regular) is ideal
            # a non-dominant generator after dominant ones names itself
            with pytest.raises(InputFormatError, match=re.escape(
                    f"ideal generators must be dominant, got {bad.coordinates}")):
                ideal_closure(rd, 5, gens + [bad, Weight((-2,) * rd.rank)],
                              regular_only=regular)

    def test_closed_check_rejects_one_missing_weight(self):
        rd = _DATA["B2"]
        ideal = ideal_closure(rd, 5, [w(3, 2)])
        assert len(ideal) > 2
        for drop in ideal.weights:
            if drop == w(3, 2):
                continue
            kept = tuple(x for x in ideal.weights if x != drop)
            with pytest.raises(InputFormatError, match=re.escape(str(drop.coordinates))):
                WeightIdealSet(rd, 5, kept)

    def test_closed_check_rejects_one_missing_regular_weight(self):
        rd = _DATA["A2"]
        assert is_regular(rd, 5, w(3, 2))
        ideal = ideal_closure(rd, 5, [w(3, 2)], regular_only=True)
        assert len(ideal) > 2
        for drop in ideal.weights:
            if drop == w(3, 2):
                continue
            kept = tuple(x for x in ideal.weights if x != drop)
            with pytest.raises(InputFormatError, match=re.escape(str(drop.coordinates))):
                WeightIdealSet(rd, 5, kept, regular_only=True)
        # the regular ideal skips the singular weights below (3, 2)
        assert all(is_regular(rd, 5, x) for x in ideal.weights)
        assert len(ideal) < len(ideal_closure(rd, 5, [w(3, 2)]))
