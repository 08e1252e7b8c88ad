"""KL tables, inversion, layer predictions and the character formula.

Frozen values derived by hand before running the code.  The affine group in
type A1 is infinite dihedral: one element of length 0 and two per positive
length, every KL and inverse polynomial equal to 1, and Bruhat order given
by length alone, so the lower set of a length L element has 2L members.
The affine A2 shell counts follow from the Poincare series
(1 + 2q + 2q^2 + q^3) / ((1 - q)(1 - q^2)): 1, 3, 6, 9, 12, 15, 18, giving
64 elements up to length 6.  KL polynomials restricted to the finite
parabolic (translation 0) agree with the symmetric group S3, where all are
constant 1.

Type A1 at e = 5: the carrier of lam = 5 has length 2 over the
representative -5, with weight polynomials P = Q = 1 against nu = 3; the
pair (1, 5) lands in different linkage classes (-3 against -5), so both
polynomials vanish.  Layer prediction for lam = 5 is 5 in layer 0 and 3 in
layer 1; for the singular weight 4 the table is a single semisimple layer.
The character formula at lam = 5 gives the Weyl characters of 5 minus 3,
dimension 6 - 4 = 2, supported on the orbit of 5; at e = 3 and lam = 3 it
gives dimension 4 - 2 = 2.  In type A2 at e = 7 the weight (6, 6) is
maximally singular, its carrier is the pure translation of length 4, and
the formula degenerates to the single Weyl character of dimension 343;
(1, 1) sits in the lowest cell so its character equals the Weyl character.

Freudenthal checks: the adjoint character of A2 has dominant multiplicities
{(1,1): 1, (0,0): 2} and dimension 8; V(2, 1) has dominant multiplicities
{(2,1): 1, (0,2): 1, (1,0): 2} and dimension 15.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grkoszul import klpoly
from grkoszul.errors import InternalCheckError, PreconditionError
from grkoszul.alcove import (
    Weight,
    _mat_mul,
    _mat_vec,
    gamma_res_reg,
    ideal_closure,
    linkage,
    root_datum_build,
    wall_reflections,
)
from grkoszul.klpoly import (
    CharacterVector,
    coxeter_enumerate,
    kl_and_inverse_tables,
    lcf_character,
    load_or_build_tables,
    predict_layers,
    verify_inversion,
    weight_polynomials,
    weyl_character,
)
from test_alcove import compose, element_inverse


def dump_lines(tables):
    """One line per Bruhat pair: x, w and the dense coefficients of P and Q."""
    return ["x=%s w=%s p=%s q=%s" % row for row in tables.pair_rows()]


@pytest.fixture(scope="module")
def a1():
    return root_datum_build("A", 1)


@pytest.fixture(scope="module")
def a2():
    return root_datum_build("A", 2)


@pytest.fixture(scope="module")
def a1_tables(a1):
    return kl_and_inverse_tables(coxeter_enumerate(a1, 5, 8))


@pytest.fixture(scope="module")
def a2_tables(a2):
    return kl_and_inverse_tables(coxeter_enumerate(a2, 3, 6))


def w(*coords):
    return Weight(tuple(coords))


def _padd(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
        if out[e] == 0:
            del out[e]
    return out


def _pmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _pscale(a, factor):
    return {} if factor == 0 else {e: factor * c for e, c in a.items()}


_classical = st.dictionaries(st.integers(-3, 6), st.integers(-4, 4).filter(bool), max_size=5)


class TestFusedAccumulate:
    @given(acc=_classical, terms=st.lists(st.tuples(_classical, _classical,
                                                    st.sampled_from([1, -1])), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_add_scale_multiply_composition(self, acc, terms):
        # oracle: acc + sign * a * b one allocation at a time, zeros dropped
        # after every step
        expected = dict(acc)
        fused = dict(acc)
        for a, b, sign in terms:
            expected = _padd(expected, _pscale(_pmul(a, b), sign))
            klpoly._pmac(fused, a, b, sign)
        assert klpoly._nonzero(fused) == expected


class TestEnumeration:
    def test_a1_shell_counts(self, a1_tables):
        assert a1_tables.table.element_count_by_length() == (
            1, 2, 2, 2, 2, 2, 2, 2, 2)

    def test_a2_shell_counts(self, a2_tables):
        assert a2_tables.table.element_count_by_length() == (1, 3, 6, 9, 12, 15, 18)
        assert len(a2_tables.table.elements) == 64

    def test_identity_has_no_descents(self, a1_tables):
        table = a1_tables.table
        zero = table.index[table.elements[0]]
        assert table.elements[0].length == 0
        assert table.left_descents[zero] == frozenset()
        assert table.right_descents[zero] == frozenset()

    def test_every_nonidentity_element_has_descents(self, a2_tables):
        table = a2_tables.table
        for i, elem in enumerate(table.elements):
            if elem.length > 0:
                assert table.left_descents[i] and table.right_descents[i]

    def test_words_are_reduced(self, a2_tables):
        table = a2_tables.table
        for i, elem in enumerate(table.elements):
            assert len(table.words[i]) == elem.length

    def test_dihedral_lower_sets_are_length_initial(self, a1_tables):
        table = a1_tables.table
        for i, elem in enumerate(table.elements):
            if elem.length > 0:
                assert len(table.lower_sets[i]) == 2 * elem.length

    def test_bruhat_refines_length(self, a2_tables):
        table = a2_tables.table
        for i in range(len(table.elements)):
            for j in table.lower_sets[i]:
                assert (table.elements[j].length < table.elements[i].length
                        or i == j)

    def test_s_below_sts(self, a1_tables):
        table = a1_tables.table
        by_word = {table.words[i]: i for i in range(len(table.elements))}
        s, sts = by_word[(0,)], by_word[(0, 1, 0)]
        assert s in table.lower_sets[sts]
        assert by_word[(1,)] in table.lower_sets[sts]

    @given(wi=st.integers(0, 18), xi=st.integers(0, 18))
    @settings(max_examples=60, deadline=None)
    def test_bruhat_matches_subword_oracle(self, wi, xi):
        table = _small_a2_table(root_datum_build("A", 2))
        if wi >= len(table.elements) or xi >= len(table.elements):
            return
        claimed = xi in table.lower_sets[wi]
        assert claimed == _subword_reachable(table, xi, wi)


_SMALL_TABLE = {}


def _small_a2_table(rd):
    if "t" not in _SMALL_TABLE:
        _SMALL_TABLE["t"] = coxeter_enumerate(rd, 3, 3)
    return _SMALL_TABLE["t"]


def _subword_reachable(table, xi, wi):
    from grkoszul.alcove import identity_element

    rd, e = table.datum, table.e
    walls = wall_reflections(rd, e)
    word = table.words[wi]
    target = table.elements[xi]
    for mask in range(1 << len(word)):
        elem = identity_element(rd.rank)
        for pos, letter in enumerate(word):
            if mask & (1 << pos):
                elem = compose(rd, e, elem, walls[letter])
        if elem == target:
            return True
    return False


class TestKlPolynomials:
    def test_a1_all_polynomials_are_one(self, a1_tables):
        table = a1_tables.table
        one = {0: 1}
        for wi in range(len(table.elements)):
            for xi in table.lower_sets[wi]:
                assert a1_tables.kl[(xi, wi)] == one
                assert a1_tables.inverse[(xi, wi)] == one

    def test_a2_finite_parabolic_is_trivial(self, a2_tables):
        table = a2_tables.table
        finite = [i for i, elem in enumerate(table.elements)
                  if elem.translation == (0, 0)]
        assert len(finite) == 6
        for wi in finite:
            for xi in table.lower_sets[wi]:
                if xi in finite:
                    assert a2_tables.kl[(xi, wi)] == {0: 1}

    def test_inversion_verified_on_every_interval(self, a2_tables):
        pairs = sum(len(a2_tables.table.lower_sets[i])
                    for i in range(len(a2_tables.table.elements)))
        assert a2_tables.intervals_verified == pairs
        assert verify_inversion(a2_tables) == pairs

    @pytest.mark.parametrize("store", ["kl", "inverse"])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_tampered_table_in_memory_fails_verification(self, a2, store, delta):
        tables = kl_and_inverse_tables(coxeter_enumerate(a2, 3, 4))
        polys = getattr(tables, store)
        for pair in (min(polys), max(polys), sorted(polys)[len(polys) // 2]):
            exponent = max(polys[pair])
            polys[pair][exponent] += delta
            with pytest.raises(InternalCheckError):
                verify_inversion(tables)
            polys[pair][exponent] -= delta
        assert verify_inversion(tables) == tables.intervals_verified

    def test_degree_bound_and_constant_term(self, a2_tables):
        lengths = [elem.length for elem in a2_tables.table.elements]
        for (xi, wi), poly in a2_tables.kl.items():
            assert poly[0] == 1
            if xi != wi:
                assert 2 * max(poly) <= lengths[wi] - lengths[xi] - 1
        for (xi, wi), poly in a2_tables.inverse.items():
            assert poly[0] == 1
            if xi != wi:
                assert 2 * max(poly) <= lengths[wi] - lengths[xi] - 1

    def test_public_polys_are_even_in_t(self, a2_tables):
        # the accessors hand out the stored classical dicts; integral
        # q-exponents are the even t-exponents the reports print
        table = a2_tables.table
        top = len(table.elements) - 1
        for xi in (0, 1, top):
            x, wdx = table.elements[xi], table.elements[top]
            p = a2_tables.kl_polynomial(x, wdx)
            q = a2_tables.inverse_polynomial(x, wdx)
            assert p is a2_tables.kl[(xi, top)] and q is a2_tables.inverse[(xi, top)]
            assert all(type(k) is int and k >= 0 for k in (*p, *q))
        outside = next(i for i in range(top) if i not in table.lower_sets[1])
        assert a2_tables.kl_polynomial(table.elements[outside], table.elements[1]) == {}

    def test_dump_lines_are_deterministic(self, a1_tables):
        lines = dump_lines(a1_tables)
        assert lines == dump_lines(a1_tables)
        assert lines[0] == "x=e w=e p=1 q=1"
        assert all(" p=" in line and " q=" in line for line in lines)


def _is_reflection(rd, elem):
    """Order-2 elements whose finite part fixes a hyperplane are exactly the
    reflections in arrangement hyperplanes (roots are primitive, so the
    translation part of an involution is an integer multiple of the root)."""
    m = elem.finite_part
    if _mat_mul(m, m) != tuple(tuple(1 if i == j else 0 for j in range(rd.rank))
                               for i in range(rd.rank)):
        return False
    if sum(m[i][i] for i in range(rd.rank)) != rd.rank - 2:
        return False
    doubled = tuple(x + t for x, t in zip(_mat_vec(m, elem.translation), elem.translation))
    return all(x == 0 for x in doubled)


def _reflection_cover_lower_sets(table):
    """Bruhat order as the transitive closure of reflection covers: x is
    covered by w when w x^-1 is a reflection and l(x) = l(w) - 1."""
    rd, e = table.datum, table.e
    inverses = [element_inverse(rd, e, elem) for elem in table.elements]
    lower, by_length = [], {}
    for i, elem in enumerate(table.elements):
        below = {i}
        for xi in by_length.get(elem.length - 1, []):
            if _is_reflection(rd, compose(rd, e, elem, inverses[xi])):
                below.update(lower[xi])
        lower.append(frozenset(below))
        by_length.setdefault(elem.length, []).append(i)
    return lower


_ORACLE_TABLES = [("A", 1, 5, 8), ("A", 2, 3, 6), ("B", 2, 5, 5), ("G", 2, 7, 5)]


class TestTableOracles:
    @pytest.mark.parametrize("kind,rank,e,bound", _ORACLE_TABLES)
    def test_lifting_lower_sets_match_reflection_covers(self, kind, rank, e, bound):
        table = coxeter_enumerate(root_datum_build(kind, rank), e, bound)
        assert list(table.lower_sets) == _reflection_cover_lower_sets(table)

    @pytest.mark.parametrize("kind,rank,e,bound", _ORACLE_TABLES)
    def test_multiplication_table_matches_compose(self, kind, rank, e, bound):
        rd = root_datum_build(kind, rank)
        table = coxeter_enumerate(rd, e, bound)
        walls = wall_reflections(rd, e)
        for i, elem in enumerate(table.elements):
            for s, wall in enumerate(walls):
                for product, mult, descents in (
                        (compose(rd, e, wall, elem), table.left_mult, table.left_descents),
                        (compose(rd, e, elem, wall), table.right_mult, table.right_descents)):
                    j = mult[i][s]
                    if product.length <= bound:
                        assert table.elements[j] == product
                    else:
                        assert j == -1
                    assert (s in descents[i]) == (product.length < elem.length)

    @pytest.mark.parametrize("kind,rank,e,bound", _ORACLE_TABLES)
    def test_wall_products_are_involutive(self, kind, rank, e, bound):
        table = coxeter_enumerate(root_datum_build(kind, rank), e, bound)
        checked = 0
        for mult in (table.left_mult, table.right_mult):
            for i, row in enumerate(mult):
                for s, j in enumerate(row):
                    if j >= 0:
                        assert mult[j][s] == i
                        checked += 1
        assert checked > len(table.elements)


def fresh_a1():
    return root_datum_build("A", 1)


class TestCaching:
    """Tables live on the datum that built them and nowhere else."""

    def test_tables_are_kept_on_the_datum(self):
        rd = fresh_a1()
        first = load_or_build_tables(rd, 5, 4)
        assert load_or_build_tables(rd, 5, 4) is first
        assert load_or_build_tables(rd, 5, 3) is not first
        assert load_or_build_tables(fresh_a1(), 5, 4) is not first

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GRKOSZUL_CACHE_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        load_or_build_tables(fresh_a1(), 5, 2)
        assert list(tmp_path.iterdir()) == []


class TestWeightPolynomials:
    def test_same_class_pair(self, a1, a1_tables):
        report = weight_polynomials(a1, 5, w(3), w(5), tables=a1_tables)
        assert report.same_class
        assert report.nu_length == 1 and report.lam_length == 2
        assert report.p_poly == {0: 1}
        assert report.q_poly == {0: 1}

    def test_cross_class_pair_vanishes(self, a1, a1_tables):
        report = weight_polynomials(a1, 5, w(1), w(5), tables=a1_tables)
        assert not report.same_class
        assert report.p_poly == {} and report.q_poly == {}

    def test_diagonal(self, a1, a1_tables):
        report = weight_polynomials(a1, 5, w(5), w(5), tables=a1_tables)
        assert report.p_poly == {0: 1}

    def test_linkage_length_matches_table_length(self, a1, a1_tables):
        # Cross-module invariant: the carrier found by folding is an element
        # of the enumerated table and its cached hyperplane length is its
        # Coxeter length there.
        for lam in (w(0), w(3), w(5), w(7), w(8)):
            link = linkage(a1, 5, lam)
            wi = a1_tables.table.index[link.w]
            assert a1_tables.table.elements[wi].length == link.length


class TestLayerPrediction:
    def test_a1_two_layer_table(self, a1, a1_tables):
        pred = predict_layers(a1, 5, w(5), tables=a1_tables)
        assert pred.carrier_length == 2
        assert not pred.singular
        assert pred.support == (w(3), w(5))
        assert pred.layers == (((w(5), 1),), ((w(3), 1),))

    def test_a1_lowest_cell_single_layer(self, a1, a1_tables):
        pred = predict_layers(a1, 5, w(3), tables=a1_tables)
        assert pred.layers == (((w(3), 1),),)

    def test_a1_second_cell_weight(self, a1, a1_tables):
        pred = predict_layers(a1, 5, w(7), tables=a1_tables)
        assert pred.layers == (((w(7), 1),), ((w(1), 1),))

    def test_a1_singular_weight_is_semisimple(self, a1, a1_tables):
        pred = predict_layers(a1, 5, w(4), tables=a1_tables)
        assert pred.singular
        assert pred.layers == (((w(4), 1),),)

    def test_gamma_context_membership(self, a1, a1_tables):
        gamma = ideal_closure(a1, 5, [w(5)])
        pred = predict_layers(a1, 5, w(5), gamma=gamma, tables=a1_tables)
        assert pred.support == (w(3), w(5))
        with pytest.raises(PreconditionError):
            predict_layers(a1, 5, w(7), gamma=gamma, tables=a1_tables)

    def test_a2_regular_prediction_is_consistent(self, a2, a2_tables):
        lam = w(1, 1)
        pred = predict_layers(a2, 3, lam, tables=a2_tables)
        assert pred.layers[0] == ((lam, 1),)
        total = sum(m for layer in pred.layers for _, m in layer)
        assert total >= len(pred.support)

    def test_nondominant_weight_rejected(self, a1, a1_tables):
        with pytest.raises(PreconditionError):
            predict_layers(a1, 5, w(-2), tables=a1_tables)


def _inner_fractions(rd, a, b):
    """(a, b) = sum_ij a_i b_j (alpha_i, alpha_j) over the simple-root
    coordinates of both weights, with (alpha_i, alpha_j) = s_i C_ij."""
    ca, cb = rd.to_root_coords(a), rd.to_root_coords(b)
    return sum(ca[i] * cb[j] * rd.symmetrizer[i] * rd.cartan[i][j]
               for i in range(rd.rank) for j in range(rd.rank))


def _freudenthal_fractions(rd, lam):
    """Reference for `klpoly._freudenthal`: the same recursion with every
    pairing taken as a double sum on Fractions and the denominator as a
    difference of norms.  Returns the dominant multiplicities."""
    from fractions import Fraction

    from grkoszul.alcove import _closure_set, dominant_conjugate

    domain = _closure_set(rd, 1, lam, False)
    order = sorted(domain, key=lambda x: (sum(rd.to_root_coords(x)), x.coordinates),
                   reverse=True)
    lam_rho = lam + rd.rho
    top_norm = _inner_fractions(rd, lam_rho, lam_rho)
    root_weights = [rd.root_weight(root) for root in rd.positive_roots]
    mults = {lam.coordinates: 1}
    for mu in order:
        if mu == lam:
            continue
        total = Fraction(0)
        for alpha in root_weights:
            k = 1
            while True:
                shifted = Weight(tuple(m + k * a for m, a in
                                       zip(mu.coordinates, alpha.coordinates)))
                m_up = mults.get(dominant_conjugate(rd, shifted).coordinates)
                if m_up is None:
                    break
                total += m_up * _inner_fractions(rd, shifted, alpha)
                k += 1
        mu_rho = mu + rd.rho
        value = 2 * total / (top_norm - _inner_fractions(rd, mu_rho, mu_rho))
        assert value.denominator == 1 and value > 0
        mults[mu.coordinates] = int(value)
    return tuple(sorted(((Weight(c), m) for c, m in mults.items()),
                        key=lambda kv: kv[0].coordinates))


class TestWeylCharacters:
    def test_a1_string(self, a1):
        ch = weyl_character(a1, w(3))
        assert ch.dimension == 4
        assert ch.multiplicity(w(3)) == 1
        assert ch.multiplicity(w(-1)) == 1
        assert ch.multiplicity(w(2)) == 0

    def test_a2_adjoint(self, a2):
        ch = weyl_character(a2, w(1, 1))
        assert dict((x.coordinates, m) for x, m in ch.dominant_multiplicities) == {
            (1, 1): 1, (0, 0): 2}
        assert ch.dimension == 8

    def test_a2_fifteen(self, a2):
        ch = weyl_character(a2, w(2, 1))
        assert dict((x.coordinates, m) for x, m in ch.dominant_multiplicities) == {
            (2, 1): 1, (0, 2): 1, (1, 0): 2}
        assert ch.dimension == 15

    def test_b2_spin_like(self):
        rd = root_datum_build("B", 2)
        assert weyl_character(rd, w(1, 0)).dimension == 5
        assert weyl_character(rd, w(0, 1)).dimension == 4

    def test_characters_are_kept_on_the_datum_not_the_module(self):
        import grkoszul.klpoly as klpoly

        rd, other = root_datum_build("A", 2), root_datum_build("A", 2)
        assert weyl_character(rd, w(2, 1)) is weyl_character(rd, w(2, 1))
        assert weyl_character(other, w(2, 1)) is not weyl_character(rd, w(2, 1))
        assert (weyl_character(other, w(2, 1)).dominant_multiplicities
                == weyl_character(rd, w(2, 1)).dominant_multiplicities)
        assert not [name for name, value in vars(klpoly).items()
                    if isinstance(value, dict) and not name.startswith("__")]

    @pytest.mark.parametrize("cartan_type,rank,weights", [
        ("A", 1, [(0,), (1,), (4,), (7,)]),
        ("A", 2, [(0, 0), (1, 1), (2, 1), (3, 0), (2, 3)]),
        ("B", 2, [(1, 0), (0, 1), (2, 1), (1, 3)]),
        ("G", 2, [(1, 0), (0, 1), (1, 1), (2, 0)]),
        ("C", 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1)]),
    ])
    def test_integer_freudenthal_matches_the_fraction_oracle(self, cartan_type, rank, weights):
        rd = root_datum_build(cartan_type, rank)
        for coords in weights:
            got = klpoly._freudenthal(rd, w(*coords))
            assert got.dominant_multiplicities == _freudenthal_fractions(rd, w(*coords))
            assert rd.root_inner(rd.to_root_coords(w(*coords)), rd.rho) \
                == _inner_fractions(rd, w(*coords), rd.rho)

    @given(a=st.integers(0, 3), b=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_dimension_positive(self, a, b):
        rd = root_datum_build("A", 2)
        assert weyl_character(rd, w(a, b)).dimension >= 1


class TestCharacterFormula:
    def test_a1_e5_second_cell(self, a1, a1_tables):
        report = lcf_character(a1, 5, w(5), tables=a1_tables)
        assert report.dimension == 2
        assert len(report.terms) == 2
        assert report.character.multiplicity(w(5)) == 1
        assert report.character.multiplicity(w(3)) == 0
        assert report.character.multiplicity(w(1)) == 0
        assert report.non_negative and report.negative_entries == ()

    def test_a1_e5_lowest_cell_equals_weyl(self, a1, a1_tables):
        report = lcf_character(a1, 5, w(3), tables=a1_tables)
        assert len(report.terms) == 1
        assert (report.character.dominant_multiplicities
                == weyl_character(a1, w(3)).dominant_multiplicities)

    def test_a1_e3(self, a1):
        report = lcf_character(a1, 3, w(3))
        assert report.dimension == 2
        assert report.character.multiplicity(w(3)) == 1
        assert report.character.multiplicity(w(1)) == 0

    def test_a1_e5_steinberg_like_singular(self, a1, a1_tables):
        report = lcf_character(a1, 5, w(4), tables=a1_tables)
        assert report.singular
        assert report.dimension == 5
        assert (report.character.dominant_multiplicities
                == weyl_character(a1, w(4)).dominant_multiplicities)

    def test_a2_e7_steinberg(self, a2):
        report = lcf_character(a2, 7, w(6, 6))
        assert report.singular
        assert len(report.terms) == 1
        assert report.dimension == 343

    def test_a2_e7_lowest_cell(self, a2):
        report = lcf_character(a2, 7, w(1, 1))
        assert (report.character.dominant_multiplicities
                == weyl_character(a2, w(1, 1)).dominant_multiplicities)

    def test_a2_e7_sample_non_negative(self, a2):
        report = lcf_character(a2, 7, w(5, 5))
        assert report.non_negative
        assert 0 < report.dimension < weyl_character(a2, w(5, 5)).dimension

    def test_virtual_character_vector_folds(self, a2):
        ch = CharacterVector(datum=a2, dominant_multiplicities=((w(1, 0), -2),))
        assert ch.multiplicity(w(-1, 1)) == -2
        assert ch.dimension == -6
