"""Kazhdan-Lusztig tables on the affine Weyl group and layer predictions.

Conventions.  Every polynomial is a classical {exponent: coefficient} dict
in q with zero coefficients dropped ({} is zero); only the report printer
writes it in t = q^(1/2), as t^(2k).  Group elements come from the alcove
module; their lengths are always hyperplane counts, never word lengths, and
reduced words are only carried along as labels.  The recursion works with
left descents; inverse polynomials come from inverting the sign-twisted
triangular matrix of KL polynomials, and the defining identity is reverified
on every Bruhat interval after the fact.
Radical-layer predictions read the coefficient of q^((l(lam) - l(nu) - n)/2)
in the inverse polynomial of the pair of minimal carriers; character formulas
alternate Weyl characters of the dominant dot-images against KL values at 1.
Tables are kept on the root datum, one per (e, length bound), for the life
of the datum; nothing is written to disk, so no earlier run can change a
result.
"""

from dataclasses import dataclass

from .errors import check, require
from .alcove import (
    AffineWeylElement,
    RootDatum,
    Weight,
    WeightIdealSet,
    _affine_product,
    _closure_set,
    dominant_conjugate,
    identity_element,
    left_descent_walls,
    linkage,
    wall_reflections,
    weyl_orbit,
)

def _pmac(acc: dict, a: dict, b: dict, sign: int = 1) -> None:
    """acc += sign * a * b in place; zero coefficients stay until _nonzero."""
    for e1, c1 in a.items():
        c1 *= sign
        for e2, c2 in b.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2


def _nonzero(acc: dict) -> dict:
    return {e: c for e, c in acc.items() if c}


@dataclass(eq=False)
class CoxeterTable:
    """Shelled enumeration of W ltimes eZPhi up to a length bound.

    elements is sorted by (length, matrix, translation); left_mult[i][s]
    and right_mult[i][s] are the indices of s*w and w*s for w = elements[i],
    or -1 past the length bound.  The rest is read off these tables: the
    left and right descent sets; words, one reduced word per element over
    wall indices (simple walls 0..rank-1, the affine wall last) in
    composition order, first letter applied last, the first one found
    shell by shell along right multiplication; and lower_sets[i], the
    indices Bruhat-below elements[i], by the lifting property: for a right
    descent s of w, [e, w] = [e, ws] united with [e, ws]*s.
    """

    datum: RootDatum
    e: int
    max_length: int
    elements: tuple[AffineWeylElement, ...]
    left_mult: tuple[tuple[int, ...], ...]
    right_mult: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        self.index = {elem: i for i, elem in enumerate(self.elements)}
        lengths = [elem.length for elem in self.elements]

        def descents(mult):
            return tuple(frozenset(s for s, j in enumerate(row)
                                   if j >= 0 and lengths[j] < lengths[i])
                         for i, row in enumerate(mult))

        self.left_descents = descents(self.left_mult)
        self.right_descents = descents(self.right_mult)
        words: list = [()] + [None] * (len(lengths) - 1)
        lower = [frozenset({0})]
        for wi, row in enumerate(self.right_mult):  # sorted by length: shells in order
            if wi:
                check(self.right_descents[wi],
                      "every non-identity element must have a right descent")
                s = min(self.right_descents[wi])
                below = lower[row[s]]
                lower.append(below | frozenset(self.right_mult[x][s] for x in below))
            for s, x in enumerate(row):
                if x >= 0 and words[x] is None:
                    words[x] = words[wi] + (s,)
        self.words = tuple(words)
        self.lower_sets = tuple(lower)

    def element_count_by_length(self) -> tuple[int, ...]:
        counts = [0] * (self.max_length + 1)
        for elem in self.elements:
            counts[elem.length] += 1
        return tuple(counts)

    def word_label(self, i: int) -> str:
        word = self.words[i]
        return ".".join(str(k) for k in word) if word else "e"


def coxeter_enumerate(rd: RootDatum, e: int, max_length: int) -> CoxeterTable:
    """Enumerate all elements up to the length bound with descents and
    Bruhat order.

    Elements are grown shell by shell by left multiplication with the wall
    reflections, the length going up or down by the sign of one wall
    pairing (left_descent_walls).  Every element's length is then verified
    by a hyperplane count, and every product with a wall on either side is
    checked to change the length by exactly one and to be in the table
    whenever the bound allows, so the set is closed on both sides.
    """
    require(e >= 1, "e must be a positive integer")
    require(max_length >= 0, "the length bound must be non-negative")
    walls = [(s.finite_part, s.translation) for s in wall_reflections(rd, e)]
    start = (identity_element(rd.rank).finite_part, (0,) * rd.rank)
    length_of = {start: 0}
    shell = [start]
    for length in range(max_length):
        grown = []
        for key in shell:
            down = left_descent_walls(rd, e, *key)
            for s, wall in enumerate(walls):
                if s not in down:
                    cand = _affine_product(wall, key)
                    if cand not in length_of:
                        length_of[cand] = length + 1
                        grown.append(cand)
        shell = grown

    keys = sorted(length_of, key=lambda k: (length_of[k], k))
    index = {key: i for i, key in enumerate(keys)}
    elements = tuple(AffineWeylElement(*key, length_of[key]) for key in keys)
    lengths = [elem.length for elem in elements]
    left_mult, right_mult = [], []
    for key, elem in zip(keys, elements):
        length = elem.separation_length(rd, e)
        down = left_descent_walls(rd, e, *key)
        left, right = [], []
        for s, wall in enumerate(walls):
            expected = length - 1 if s in down else length + 1
            j = index.get(_affine_product(wall, key), -1)
            check(expected > max_length if j < 0 else lengths[j] == expected,
                  "a left wall reflection must change length by exactly one")
            left.append(j)
            j = index.get(_affine_product(key, wall), -1)
            check(length == max_length if j < 0 else abs(lengths[j] - length) == 1,
                  "a right wall reflection must change length by exactly one")
            right.append(j)
        left_mult.append(tuple(left))
        right_mult.append(tuple(right))

    return CoxeterTable(
        datum=rd,
        e=e,
        max_length=max_length,
        elements=elements,
        left_mult=tuple(left_mult),
        right_mult=tuple(right_mult),
    )


@dataclass(eq=False)
class KlTables:
    """KL polynomials and their inverses over one CoxeterTable.

    kl and inverse map element index pairs (x, w) with x Bruhat-below w to
    classical coefficient dicts in q; the accessors return the stored dict
    ({} off the Bruhat order), which callers must not mutate.
    intervals_verified counts the Bruhat intervals on which the inversion
    identity was checked.
    """

    table: CoxeterTable
    kl: dict[tuple[int, int], dict[int, int]]
    inverse: dict[tuple[int, int], dict[int, int]]
    intervals_verified: int

    def kl_polynomial(self, x: AffineWeylElement, w: AffineWeylElement) -> dict[int, int]:
        xi, wi = self.table.index.get(x), self.table.index.get(w)
        require(xi is not None and wi is not None, "elements must be in the table")
        return self.kl.get((xi, wi), {})

    def inverse_polynomial(self, x: AffineWeylElement, w: AffineWeylElement) -> dict[int, int]:
        xi, wi = self.table.index.get(x), self.table.index.get(w)
        require(xi is not None and wi is not None, "elements must be in the table")
        return self.inverse.get((xi, wi), {})

    def pair_rows(self) -> list[tuple[str, str, str, str]]:
        """(x word, w word, dense P, dense Q) per pair x <= w, sorted by
        (length, word); the dense strings list classical coefficients
        ascending from degree 0."""
        t = self.table
        key = lambda i: (t.elements[i].length, t.words[i])
        rows = []
        for wi in sorted(range(len(t.elements)), key=key):
            for xi in sorted(t.lower_sets[wi], key=key):
                rows.append((t.word_label(xi), t.word_label(wi),
                             _dense_coeffs(self.kl[(xi, wi)]),
                             _dense_coeffs(self.inverse[(xi, wi)])))
        return rows


def _dense_coeffs(classical: dict) -> str:
    if not classical:
        return "0"
    top = max(classical)
    return ",".join(str(classical.get(k, 0)) for k in range(top + 1))


def _mu(classical: dict, lw: int, lz: int) -> int:
    if (lw - lz) % 2 == 0:
        return 0
    return classical.get((lw - lz - 1) // 2, 0)


def _check_shape(poly: dict, gap: int, name: str) -> None:
    """Constant term 1 and degree below half the length gap (the diagonal,
    gap 0, is exactly 1)."""
    check(poly.get(0) == 1, "%s polynomials must have constant term 1" % name)
    check(max(poly) * 2 <= gap - 1 if gap else poly == {0: 1},
          "%s polynomial degree must respect the length gap" % name)


def kl_and_inverse_tables(table: CoxeterTable) -> KlTables:
    """Fill the KL polynomials by the left-descent recursion, invert the
    sign-twisted matrix, and verify the inversion identity on every interval."""
    elements = table.elements
    left_mult = table.left_mult
    lengths = [elem.length for elem in elements]

    kl: dict[tuple[int, int], dict[int, int]] = {}
    for wi in range(len(elements)):
        if lengths[wi] == 0:
            kl[(wi, wi)] = {0: 1}
            continue
        s = min(table.left_descents[wi])
        vi = left_mult[wi][s]
        z_corrections = []
        for zi in table.lower_sets[vi]:
            if s in table.left_descents[zi]:
                mu = _mu(kl[(zi, vi)], lengths[vi], lengths[zi])
                if mu != 0:
                    z_corrections.append((zi, {(lengths[wi] - lengths[zi]) // 2: -mu}))
        for xi in table.lower_sets[wi]:
            if xi == wi:
                kl[(xi, wi)] = {0: 1}
                continue
            sxi = left_mult[xi][s]
            c = 1 if lengths[sxi] < lengths[xi] else 0
            # q^(1-c) P(sx, v) + q^c P(x, v) - sum of mu(z, v) q^((l(w)-l(z))/2) P(x, z)
            value: dict[int, int] = {}
            _pmac(value, {1 - c: 1}, kl.get((sxi, vi), {}))
            _pmac(value, {c: 1}, kl.get((xi, vi), {}))
            for zi, correction in z_corrections:
                _pmac(value, correction, kl.get((xi, zi), {}))
            value = _nonzero(value)
            _check_shape(value, lengths[wi] - lengths[xi], "KL")
            kl[(xi, wi)] = value

    inverse: dict[tuple[int, int], dict[int, int]] = {}
    for wi in range(len(elements)):
        for xi in table.lower_sets[wi]:
            if xi == wi:
                inverse[(xi, wi)] = {0: 1}
                continue
            # the negated alternating sum over x <= v < w
            value: dict[int, int] = {}
            for vi in table.lower_sets[wi]:
                if vi != wi and xi in table.lower_sets[vi]:
                    _pmac(value, inverse[(xi, vi)], kl[(vi, wi)],
                          1 if (lengths[wi] - lengths[vi]) % 2 else -1)
            value = _nonzero(value)
            _check_shape(value, lengths[wi] - lengths[xi], "inverse")
            inverse[(xi, wi)] = value

    tables = KlTables(table=table, kl=kl, inverse=inverse, intervals_verified=0)
    tables.intervals_verified = verify_inversion(tables)
    return tables


def verify_inversion(tables: KlTables) -> int:
    """Assert sum_v (-1)^(l(v)-l(x)) P(x, v) Q(v, w) = delta(x, w) on every
    Bruhat interval and KL descent invariance; return the interval count.
    The sums are the entries of K.Q for square unitriangular K, Q on a finite
    Bruhat-closed set, so K.Q = I makes Q two-sided; each entry enters as +-1."""
    table = tables.table
    lengths = [elem.length for elem in table.elements]
    count = 0
    for wi in range(len(table.elements)):
        for xi in table.lower_sets[wi]:
            right: dict[int, int] = {}
            for vi in table.lower_sets[wi]:
                if xi in table.lower_sets[vi]:
                    _pmac(right, tables.kl[(xi, vi)], tables.inverse[(vi, wi)],
                          -1 if (lengths[vi] - lengths[xi]) % 2 else 1)
            check(_nonzero(right) == ({0: 1} if xi == wi else {}),
                  "inversion identity must hold on every interval")
            count += 1

    for wi in range(len(table.elements)):
        for s in table.left_descents[wi]:
            for xi in table.lower_sets[wi]:
                sxi = table.left_mult[xi][s]
                check(sxi >= 0, "left wall products below w must be in the table")
                if lengths[sxi] > lengths[xi]:
                    check(tables.kl.get((sxi, wi), {}) == tables.kl[(xi, wi)],
                          "KL polynomials must be invariant under left descents")
    return count


def load_or_build_tables(rd: RootDatum, e: int, max_length: int) -> KlTables:
    """Tables kept on the datum: one per (e, length bound)."""
    return rd.memoized(("kl_tables", e, max_length),
                       lambda: kl_and_inverse_tables(coxeter_enumerate(rd, e, max_length)))


@dataclass
class WeightPolyReport:
    nu: Weight
    lam: Weight
    same_class: bool
    nu_length: int
    lam_length: int
    p_poly: dict[int, int]
    q_poly: dict[int, int]


def weight_polynomials(rd: RootDatum, e: int, nu: Weight, lam: Weight) -> WeightPolyReport:
    """KL and inverse polynomials attached to a pair of weights: the pair of
    minimal carriers when both weights fold to the same antidominant
    representative, zero otherwise."""
    link_nu = linkage(rd, e, nu)
    link_lam = linkage(rd, e, lam)
    same = link_nu.lambda_minus == link_lam.lambda_minus
    if not same:
        return WeightPolyReport(nu=nu, lam=lam, same_class=False,
                                nu_length=link_nu.length, lam_length=link_lam.length,
                                p_poly={}, q_poly={})
    tables = load_or_build_tables(rd, e, max(link_nu.length, link_lam.length))
    return WeightPolyReport(
        nu=nu, lam=lam, same_class=True,
        nu_length=link_nu.length, lam_length=link_lam.length,
        p_poly=tables.kl_polynomial(link_nu.w, link_lam.w),
        q_poly=tables.inverse_polynomial(link_nu.w, link_lam.w))


@dataclass
class LayerPrediction:
    """Predicted radical-layer multiplicity table of a standard object.

    layers[n] lists (weight, multiplicity) pairs for layer n; layer 0 is
    always the weight itself with multiplicity 1.  For singular weights the
    same table is read through the translated semisimple-series semantics,
    flagged by singular.  polynomials records the inverse polynomial behind
    each support weight.
    """

    weight: Weight
    lambda_minus: Weight
    carrier_length: int
    singular: bool
    support: tuple[Weight, ...]
    layers: tuple[tuple[tuple[Weight, int], ...], ...]
    polynomials: tuple[tuple[Weight, dict[int, int]], ...]


def predict_layers(rd: RootDatum, e: int, lam: Weight,
                   gamma: WeightIdealSet | None = None) -> LayerPrediction:
    """Predict layer multiplicities from inverse KL polynomials.

    The multiplicity of nu in layer n is the coefficient of
    q^((l(lam) - l(nu) - n)/2) in the inverse polynomial of the minimal
    carriers.  Support weights are the dominant dot-images of elements
    Bruhat-below the carrier of lam; each one's entries in the finished
    layer table are read back into a polynomial and asserted equal to the
    stored inverse polynomial.
    """
    require(lam.is_dominant, "layer predictions are for dominant weights")
    link = linkage(rd, e, lam)
    tables = load_or_build_tables(rd, e, link.length)
    table = tables.table
    wi = table.index[link.w]

    if gamma is not None:
        require(gamma.datum == rd and gamma.e == e,
                "ideal set must match the root datum and e")
        require(lam in gamma, "weight must belong to the supplied ideal")

    support: dict[tuple[int, ...], Weight] = {}
    for yi in table.lower_sets[wi]:
        nu = table.elements[yi].dot(rd, link.lambda_minus)
        if nu.is_dominant:
            support[nu.coordinates] = nu

    layer_maps: dict[int, dict[Weight, int]] = {}
    polynomials = []
    gaps: dict[Weight, int] = {}
    for coords in sorted(support):
        nu = support[coords]
        link_nu = linkage(rd, e, nu)
        check(link_nu.lambda_minus == link.lambda_minus,
              "support weights must share the antidominant representative")
        wni = table.index[link_nu.w]
        check(wni in table.lower_sets[wi],
              "minimal carriers of support weights must sit below the carrier")
        q_poly = tables.inverse.get((wni, wi), {})
        polynomials.append((nu, q_poly))
        gaps[nu] = link.length - link_nu.length
        for k, coeff in q_poly.items():
            n = gaps[nu] - 2 * k
            check(n >= 0, "layer indices must be non-negative")
            check(coeff >= 0, "layer multiplicities must be non-negative")
            layer_maps.setdefault(n, {})[nu] = coeff
        if gamma is not None:
            check(nu in gamma, "closed ideals must contain the predicted support")

    depth = max(layer_maps) if layer_maps else 0
    layers = tuple(
        tuple(sorted(layer_maps.get(n, {}).items(), key=lambda kv: kv[0].coordinates))
        for n in range(depth + 1))
    check(layers[0] == ((lam, 1),), "layer 0 must be the weight itself, once")
    read_back: dict[Weight, dict[int, int]] = {}
    for n, layer in enumerate(layers):
        for nu, m in layer:
            k, odd = divmod(gaps[nu] - n, 2)
            check(not odd, "a layer index must have the parity of its length gap")
            read_back.setdefault(nu, {})[k] = m
    check(all(read_back.get(nu) == q_poly for nu, q_poly in polynomials),
          "the layer table must encode every support weight's inverse polynomial")
    return LayerPrediction(
        weight=lam,
        lambda_minus=link.lambda_minus,
        carrier_length=link.length,
        singular=not link.regular,
        support=tuple(support[c] for c in sorted(support)),
        layers=layers,
        polynomials=tuple(polynomials),
    )


@dataclass
class CharacterVector:
    """Formal character, stored by dominant orbit representatives; values
    may be negative for virtual characters."""

    datum: RootDatum
    dominant_multiplicities: tuple[tuple[Weight, int], ...]

    def multiplicity(self, weight: Weight) -> int:
        rep = dominant_conjugate(self.datum, weight)
        for w, m in self.dominant_multiplicities:
            if w == rep:
                return m
        return 0

    @property
    def dimension(self) -> int:
        return sum(m * len(weyl_orbit(self.datum, w))
                   for w, m in self.dominant_multiplicities)


def weyl_character(rd: RootDatum, lam: Weight) -> CharacterVector:
    """Weight multiplicities of the Weyl character by Freudenthal's formula,
    cross-checked against the Weyl dimension product; kept on the datum."""
    require(lam.is_dominant, "Weyl characters are indexed by dominant weights")
    return rd.memoized(("weyl_character", lam.coordinates), lambda: _freudenthal(rd, lam))


def _freudenthal(rd: RootDatum, lam: Weight) -> CharacterVector:
    """Freudenthal on integers: (lam+rho)^2 - (mu+rho)^2 = (lam-mu, lam+mu+2rho)
    is taken d times, from the d-scaled root coordinates of lam - mu."""
    d = rd._root_lattice[0]
    domain = _closure_set(rd, 1, lam, False)
    order = sorted(domain, key=lambda w: (sum(rd.scaled_root_coords(w)), w.coordinates),
                   reverse=True)
    lam_rho = lam + rd.rho
    mults: dict[tuple[int, ...], int] = {lam.coordinates: 1}
    for mu in order:
        if mu == lam:
            continue
        total = 0
        for root, alpha in zip(rd.positive_roots, rd._root_weights):
            k = 1
            while True:
                shifted = Weight(tuple(m + k * a for m, a in zip(mu.coordinates, alpha)))
                m_up = mults.get(dominant_conjugate(rd, shifted).coordinates)
                if m_up is None:
                    break
                total += m_up * rd.root_inner(root, shifted)
                k += 1
        denom = rd.root_inner(rd.scaled_root_coords(lam - mu), lam_rho + mu + rd.rho)
        check(denom > 0, "Freudenthal denominator must be positive below the top")
        value, rest = divmod(2 * d * total, denom)
        check(rest == 0 and value > 0, "weight multiplicities must be positive integers")
        mults[mu.coordinates] = value

    vector = CharacterVector(
        datum=rd,
        dominant_multiplicities=tuple(sorted(
            ((Weight(c), m) for c, m in mults.items()),
            key=lambda kv: kv[0].coordinates)))
    top = bottom = 1
    for root in rd.positive_roots:
        top *= rd.pairing(lam_rho, root)
        bottom *= rd.pairing(rd.rho, root)
    check(vector.dimension * bottom == top,
          "Freudenthal dimension must match the Weyl product formula")
    return vector


@dataclass
class LcfReport:
    """Alternating character formula output.

    terms lists (dominant dot-image, sign, KL value at 1) for the carrier
    elements whose dot-image is dominant; character is the resulting virtual
    character, with any negative orbit multiplicities surfaced (never
    clamped) in negative_entries.
    """

    weight: Weight
    lambda_minus: Weight
    carrier_length: int
    singular: bool
    terms: tuple[tuple[Weight, int, int], ...]
    character: CharacterVector
    dimension: int
    non_negative: bool
    negative_entries: tuple[tuple[Weight, int], ...]


def lcf_character(rd: RootDatum, e: int, lam: Weight) -> LcfReport:
    """Alternating sum of Weyl characters against KL values at 1 over the
    elements below the carrier with dominant dot-image."""
    require(lam.is_dominant, "the character formula is for dominant weights")
    link = linkage(rd, e, lam)
    tables = load_or_build_tables(rd, e, link.length)
    table = tables.table
    wi = table.index[link.w]

    terms = []
    combined: dict[tuple[int, ...], int] = {}
    for yi in sorted(table.lower_sets[wi],
                     key=lambda i: (table.elements[i].length, i)):
        nu = table.elements[yi].dot(rd, link.lambda_minus)
        if not nu.is_dominant:
            continue
        sign = -1 if (link.length - table.elements[yi].length) % 2 else 1
        value = sum(tables.kl[(yi, wi)].values())
        terms.append((nu, sign, value))
        for mu, m in weyl_character(rd, nu).dominant_multiplicities:
            coords = mu.coordinates
            combined[coords] = combined.get(coords, 0) + sign * value * m

    character = CharacterVector(
        datum=rd,
        dominant_multiplicities=tuple(sorted(
            ((Weight(c), m) for c, m in combined.items() if m != 0),
            key=lambda kv: kv[0].coordinates)))
    negative = tuple((w, m) for w, m in character.dominant_multiplicities if m < 0)
    return LcfReport(
        weight=lam,
        lambda_minus=link.lambda_minus,
        carrier_length=link.length,
        singular=not link.regular,
        terms=tuple(terms),
        character=character,
        dimension=character.dimension,
        non_negative=not negative,
        negative_entries=negative,
    )
