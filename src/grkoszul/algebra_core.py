"""Basic finite-dimensional algebras presented by quivers with relations.

Conventions, fixed once for the whole package:

* Paths are written left-to-right: in the path (a, b) the arrow a is traversed
  first, so the path runs src(a) -> dst(a) = src(b) -> dst(b).
* The product p * q of composable paths is "p then q".  Modules are quiver
  representations: an arrow a: u -> v acts by a matrix of shape
  (dim_v x dim_u), and a path acts by composing its arrow matrices in
  traversal order.  With these two choices the action m . (p * q) = (m . p) . q
  is associative and the projective cover of the simple at v is spanned by the
  normal paths starting at v.
* Relation reduction uses the length-then-lexicographic order on arrow-name
  tuples; the leading term of a relation is its largest path.  Completion of
  the rewriting system (noncommutative Groebner) runs with a hard cap on the
  leading-term length, the constant PATH_CAP = 32.
* An algebra element is a sparse {basis index: scalar} dict of its nonzero
  canonical scalars.  One routine, `multiply`, takes products, over the
  basis products `mult_basis` of a based or a concrete algebra; a linear
  map between algebras is the list of its sparse columns, the image of
  each basis element, applied by `exactlin._push`.

Only admissible-style presentations are accepted: every path occurring in a
relation has length >= 2, so the arrow-ideal span is the radical once the
arrow ideal is checked nilpotent (this is asserted, not assumed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import InputFormatError, InternalCheckError, check, require
from .exactlin import FieldSpec, Subspace, intersect_spaces, _add_multiple, _push

PATH_CAP = 32


@dataclass
class QuiverPresentation:
    """A quiver with relations plus the optional weight-theoretic decorations.

    relations: list of relations; each relation is a list of
    (coefficient, path) terms with path a tuple of arrow names, and denotes
    the element sum(c * p) = 0.  order_pairs are covers `a < b` on vertex
    labels; lengths and weights decorate vertices for the combinatorial
    cross-checks and may be absent.
    """

    field: FieldSpec
    vertices: list[str]
    arrows: list[tuple[str, str, str]]  # (name, src, dst)
    relations: list[list[tuple[object, tuple[str, ...]]]] = dc_field(default_factory=list)
    order_pairs: list[tuple[str, str]] = dc_field(default_factory=list)
    lengths: dict[str, int] = dc_field(default_factory=dict)
    weights: dict[str, tuple[int, ...]] = dc_field(default_factory=dict)
    duality: list[tuple[str, int, str]] = dc_field(default_factory=list)  # (arrow, sign, arrow)

    def __post_init__(self) -> None:
        if len(set(self.vertices)) != len(self.vertices):
            raise InputFormatError("duplicate vertex labels")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise InputFormatError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise InputFormatError("arrow names must not clash with vertex labels")
        vset = set(self.vertices)
        self._arrow_map = {}
        for name, src, dst in self.arrows:
            if src not in vset or dst not in vset:
                raise InputFormatError(f"arrow {name}: unknown endpoint {src}->{dst}")
            self._arrow_map[name] = (src, dst)
        for rel in self.relations:
            self._validate_relation(rel)
        for a, b in self.order_pairs:
            if a not in vset or b not in vset:
                raise InputFormatError(f"order pair references unknown vertex: {a} < {b}")
        for label in itertools.chain(self.lengths, self.weights):
            if label not in vset:
                raise InputFormatError(f"decoration on unknown vertex {label}")

    def _validate_relation(self, rel) -> None:
        if not rel:
            raise InputFormatError("empty relation")
        endpoints = set()
        for coeff, path in rel:
            if len(path) < 2:
                raise InputFormatError(
                    "relation paths must have length >= 2 (admissible presentation)"
                )
            for a, b in zip(path, path[1:]):
                if a not in self._arrow_map or b not in self._arrow_map:
                    raise InputFormatError(f"relation uses unknown arrow in path {path}")
                if self._arrow_map[a][1] != self._arrow_map[b][0]:
                    raise InputFormatError(f"non-composable path {path}")
            if path[0] not in self._arrow_map:
                raise InputFormatError(f"relation uses unknown arrow in path {path}")
            endpoints.add((self._arrow_map[path[0]][0], self._arrow_map[path[-1]][1]))
            if not self.field.coerce(coeff):
                raise InputFormatError(f"zero coefficient in relation on path {path}")
        if len(endpoints) != 1:
            raise InputFormatError("relation not homogeneous in (source, target)")

    def arrow_endpoints(self, name: str) -> tuple[str, str]:
        return self._arrow_map[name]

    def path_endpoints(self, path: tuple[str, ...]) -> tuple[str, str]:
        return (self._arrow_map[path[0]][0], self._arrow_map[path[-1]][1])


def _path_key(path: tuple[str, ...]):
    return (len(path), path)


class RewriteSystem:
    """Rewriting rules leading-term -> lower terms, completed to confluence."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.rules: dict[tuple[str, ...], dict[tuple[str, ...], object]] = {}

    def _reduce_once(self, poly: dict) -> dict | None:
        for mono in sorted(poly, key=_path_key, reverse=True):
            coeff = poly[mono]
            for lead, rest in self.rules.items():
                ll = len(lead)
                for start in range(len(mono) - ll + 1):
                    if mono[start : start + ll] == lead:
                        left, right = mono[:start], mono[start + ll :]
                        out = dict(poly)
                        del out[mono]
                        for rpath, rc in rest.items():
                            new = left + rpath + right
                            val = self.field.add(
                                out.get(new, self.field.zero), self.field.mul(coeff, rc)
                            )
                            if val:
                                out[new] = val
                            else:
                                out.pop(new, None)
                        return out
        return None

    def normal_form(self, poly: dict) -> dict:
        while True:
            nxt = self._reduce_once(poly)
            if nxt is None:
                return poly
            poly = nxt

    def add_polynomial(self, poly: dict) -> bool:
        poly = self.normal_form(dict(poly))
        if not poly:
            return False
        lead = max(poly, key=_path_key)
        if len(lead) > PATH_CAP:
            raise InputFormatError(
                f"relation completion exceeded the path-length cap {PATH_CAP}"
            )
        inv = self.field.inv(poly[lead])
        rest = {
            p: self.field.neg(self.field.mul(inv, c))
            for p, c in poly.items()
            if p != lead
        }
        self.rules[lead] = rest
        return True

    def complete(self) -> None:
        f = self.field
        changed = True
        while changed:
            changed = False
            leads = sorted(self.rules, key=_path_key)
            pairs = []
            for l1 in leads:
                for l2 in leads:
                    # proper overlap: a suffix of l1 equals a prefix of l2
                    for k in range(1, min(len(l1), len(l2))):
                        if l1[len(l1) - k :] == l2[:k]:
                            pairs.append(("overlap", l1, l2, k))
                    # containment: l2 strictly inside l1
                    if l1 != l2 and len(l2) < len(l1):
                        for start in range(len(l1) - len(l2) + 1):
                            if l1[start : start + len(l2)] == l2:
                                pairs.append(("contain", l1, l2, start))
            for kind, l1, l2, pos in pairs:
                if l1 not in self.rules or l2 not in self.rules:
                    continue
                if kind == "overlap":
                    # superposition l1[:-pos] + l2
                    left = l1[: len(l1) - pos]
                    right = l2[pos:]
                    s1 = {}
                    for p, c in self.rules[l1].items():
                        s1[p + right] = f.add(s1.get(p + right, f.zero), c)
                    s2 = {}
                    for p, c in self.rules[l2].items():
                        s2[left + p] = f.add(s2.get(left + p, f.zero), c)
                else:
                    left, right = l1[:pos], l1[pos + len(l2) :]
                    s1 = dict(self.rules[l1])
                    s2 = {}
                    for p, c in self.rules[l2].items():
                        s2[left + p + right] = f.add(
                            s2.get(left + p + right, f.zero), c
                        )
                diff = dict(s1)
                for p, c in s2.items():
                    val = f.sub(diff.get(p, f.zero), c)
                    if val:
                        diff[p] = val
                    else:
                        diff.pop(p, None)
                if self.add_polynomial(diff):
                    changed = True


@dataclass(frozen=True)
class BasisPath:
    src: str
    dst: str
    arrows: tuple[str, ...]

    def label(self) -> str:
        return "*".join(self.arrows) if self.arrows else f"e_{self.src}"

    def __len__(self) -> int:
        return len(self.arrows)


class _Memoized:
    """Results computed once per key for the life of the object, kept in its
    `_memo` dict."""

    def memoized(self, key, build):
        """build(), computed once per key; for results that depend on the
        object and the key alone."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]


class _SparseAlgebra:
    """An algebra on a numbered basis whose elements are sparse
    {basis index: scalar} dicts of canonical scalars; `mult_basis(i, j)` is
    the product of basis elements i and j, one such dict."""

    def multiply(self, x: dict, y: dict) -> dict:
        """x * y over the basis products of the nonzero entries of x and y."""
        char, mult_basis, out = self.field.char, self.mult_basis, {}
        for i, a in x.items():
            for j, b in y.items():
                prod = mult_basis(i, j)
                if prod:
                    _add_multiple(char, out, a * b, prod)
        return out


class FiniteDimAlgebra(_Memoized, _SparseAlgebra):
    """Quotient of a path algebra by an admissible relation ideal.

    The basis consists of the relation-irreducible ("normal") paths, vertex
    idempotents included.  Elements are sparse {basis index: scalar} dicts
    of canonical scalars, with no zero entries.
    """

    def __init__(self, presentation: QuiverPresentation, rewrite: RewriteSystem,
                 basis: list[BasisPath]):
        self.presentation = presentation
        self.field = presentation.field
        self.rewrite = rewrite
        self.basis = basis
        self.dim = len(basis)
        self.index = {(b.src, b.arrows): i for i, b in enumerate(basis)}
        self.vertex_index = {
            b.src: i for i, b in enumerate(basis) if not b.arrows
        }
        check(
            set(self.vertex_index) == set(presentation.vertices),
            "missing vertex idempotent in basis",
        )
        self.arrow_index = {
            b.arrows[0]: i for i, b in enumerate(basis) if len(b.arrows) == 1
        }
        self._mult: dict[tuple[int, int], dict] = {}
        self._memo: dict = {}

    # -- elements -------------------------------------------------------------

    def unit_vector(self) -> dict:
        return {i: self.field.one for i in self.vertex_index.values()}

    def basis_vector(self, i: int) -> dict:
        return {i: self.field.one}

    def path_to_vector(self, src: str, arrows: tuple[str, ...]) -> dict:
        """Normal form of the path as an element."""
        poly = self.rewrite.normal_form({arrows: self.field.one})
        return {self.index[(src, p)]: c for p, c in poly.items()}

    # -- multiplication --------------------------------------------------------

    def mult_basis(self, i: int, j: int) -> dict:
        """The product of basis elements i and j, its terms in path order;
        computed once and shared, so read-only."""
        got = self._mult.get((i, j))
        if got is not None:
            return got
        bi, bj = self.basis[i], self.basis[j]
        if bi.dst != bj.src:
            out = {}
        else:
            poly = self.rewrite.normal_form(
                {bi.arrows + bj.arrows: self.field.one}
            )
            out = {self.index[(bi.src, p)]: c for p, c in sorted(poly.items())}
        self._mult[(i, j)] = out
        return out

    # -- radical ----------------------------------------------------------------

    def radical_chain(self) -> list[Subspace]:
        """[rad^0, rad^1, ...] down to the zero space."""
        return self.memoized("radical chain", self._radical_chain)

    def _radical_chain(self) -> list[Subspace]:
        f = self.field
        arrows = [i for i, b in enumerate(self.basis) if b.arrows]
        # The arrow-ideal span: relations only involve paths of length >= 2,
        # so normal forms of length >= 1 paths stay in this coordinate span.
        chain = [Subspace.whole(f, self.dim),
                 Subspace.from_rref(f, self.dim, [{i: f.one} for i in arrows], arrows)]
        # J^(k+1) = J^k J is spanned by J^k times the arrows: a path of length
        # k + 1 or more is one of length k or more followed by its last arrow
        while chain[-1]:
            prev = chain[-1]
            nxt = Subspace(f, self.dim, (self.multiply(row, {a: f.one})
                                         for row in prev.rref.values() for a in arrows))
            if len(nxt) == len(prev):
                raise InputFormatError(
                    "arrow ideal is not nilpotent: presentation is not admissible"
                )
            chain.append(nxt)
            if len(chain) > self.dim + 2:
                raise InternalCheckError("radical chain failed to terminate")
        return chain

    def radical(self, power: int = 1) -> Subspace:
        """rad^power A; the zero space from the radical length on."""
        chain = self.radical_chain()
        return chain[min(power, len(chain) - 1)]

    @property
    def radical_length(self) -> int:
        """Least r with rad^r = 0."""
        return len(self.radical_chain()) - 1

    def grade_of(self, vec: dict) -> int:
        """The largest g with vec in rad^g among the nonzero powers."""
        chain = self.radical_chain()
        g = 0
        while chain[g + 1] and chain[g + 1].contains(vec):
            g += 1
        return g

    def grades(self) -> list[int]:
        """grade(b) = max g with b in rad^g, for each basis element."""
        return self.memoized("grades", lambda: [self.grade_of(self.basis_vector(i))
                                                for i in range(self.dim)])

    def graded_dims(self) -> list[int]:
        chain = self.radical_chain()
        return [
            len(chain[i]) - len(chain[i + 1]) for i in range(len(chain) - 1)
        ]

    def describe(self) -> str:
        return (
            f"dim {self.dim} algebra over {self.field.describe()} on "
            f"{len(self.presentation.vertices)} vertices"
        )


def build_algebra(presentation: QuiverPresentation) -> FiniteDimAlgebra:
    """Construct the algebra: complete relations, enumerate normal paths."""
    rewrite = RewriteSystem(presentation.field)
    for rel in presentation.relations:
        poly: dict[tuple[str, ...], object] = {}
        f = presentation.field
        for coeff, path in rel:
            c = f.coerce(coeff)
            val = f.add(poly.get(path, f.zero), c)
            if val:
                poly[path] = val
            else:
                poly.pop(path, None)
        rewrite.add_polynomial(poly)
    rewrite.complete()

    basis: list[BasisPath] = []
    frontier = [BasisPath(v, v, ()) for v in presentation.vertices]
    length = 0
    while frontier:
        basis.extend(frontier)
        length += 1
        if length > PATH_CAP:
            raise InputFormatError(
                f"path enumeration exceeded cap {PATH_CAP}: "
                "the presented algebra is infinite-dimensional or too large"
            )
        new_frontier = []
        for bp in frontier:
            for name, src, dst in presentation.arrows:
                if src != bp.dst:
                    continue
                arrows = bp.arrows + (name,)
                # prior prefixes are normal, so any forbidden subword ends at
                # the new arrow; checking suffixes is enough
                ok = True
                for lead in rewrite.rules:
                    if len(lead) <= len(arrows) and arrows[-len(lead):] == lead:
                        ok = False
                        break
                if ok:
                    new_frontier.append(BasisPath(bp.src, dst, arrows))
        frontier = new_frontier

    algebra = FiniteDimAlgebra(presentation, rewrite, basis)
    _validate_duality(algebra)
    algebra.radical_chain()  # asserts admissibility eagerly
    return algebra


def _validate_duality(algebra: FiniteDimAlgebra) -> None:
    spec = algebra.presentation.duality
    if not spec:
        return
    mapping = {}
    for name, sign, image in spec:
        if name in mapping:
            raise InputFormatError(f"duplicate duality entry for arrow {name}")
        if name not in algebra.arrow_index or image not in algebra.arrow_index:
            raise InputFormatError(f"duality references unknown arrow {name}:{image}")
        mapping[name] = (sign, image)
    arrows = {a[0] for a in algebra.presentation.arrows}
    if set(mapping) != arrows:
        raise InputFormatError("duality must cover every arrow")
    pres = algebra.presentation
    for name, (sign, image) in mapping.items():
        src, dst = pres.arrow_endpoints(name)
        isrc, idst = pres.arrow_endpoints(image)
        if (isrc, idst) != (dst, src):
            raise InputFormatError(
                f"duality image of {name} must reverse its endpoints"
            )
        sign2, image2 = mapping[image]
        if image2 != name or sign2 != sign:
            raise InputFormatError("duality is not an involution on arrows")
    # anti-automorphism must preserve the relation ideal
    f = algebra.field
    for rel in pres.relations:
        vec = {}
        for coeff, path in rel:
            total_sign, image_path = apply_duality_to_path(pres, path)
            src = pres.arrow_endpoints(image_path[0])[0]
            c = f.mul(f.coerce(coeff), f.coerce(total_sign))
            _add_multiple(f.char, vec, c, algebra.path_to_vector(src, image_path))
        if vec:
            raise InputFormatError("duality does not preserve the relation ideal")


def apply_duality_to_path(pres: QuiverPresentation, path: tuple[str, ...]):
    """Image (sign, arrows) of a path under the declared anti-involution."""
    mapping = {name: (sign, image) for name, sign, image in pres.duality}
    total = 1
    out = []
    for a in reversed(path):
        s, img = mapping[a]
        total *= s
        out.append(img)
    return total, tuple(out)


# -- gradings ------------------------------------------------------------------


@dataclass
class TightGradingReport:
    multiplicative: bool
    degree_zero_semisimple: bool
    positive_part_is_radical: bool
    tight: bool
    failures: list[str]

    @property
    def passed(self) -> bool:
        return (
            self.multiplicative
            and self.degree_zero_semisimple
            and self.positive_part_is_radical
            and self.tight
        )


def grades_from_arrow_degrees(algebra: FiniteDimAlgebra) -> list[int]:
    """Grade of each basis path as the sum of its arrow degrees, each 1:
    the path-length grading."""
    return [len(bp.arrows) for bp in algebra.basis]


def tight_grading_check(algebra: FiniteDimAlgebra) -> TightGradingReport:
    """Check that the path-length grading makes the algebra tightly graded.

    Clauses: the grading is multiplicative; the degree-0 part is semisimple;
    the positive part equals the radical; and grade n equals (grade 1)^n.
    Under path length the middle two hold by construction; they stay as
    self-checks.
    """
    f = algebra.field
    grades = grades_from_arrow_degrees(algebra)
    failures: list[str] = []
    by_grade: dict[int, list[int]] = {}
    for i, g in enumerate(grades):
        by_grade.setdefault(g, []).append(i)
    top = max(by_grade)

    def grade_rows(g):
        return [algebra.basis_vector(i) for i in by_grade.get(g, [])]

    multiplicative = True
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            prod = algebra.mult_basis(i, j)
            target = grades[i] + grades[j]
            for k in prod:
                if grades[k] != target:
                    multiplicative = False
                    failures.append(
                        f"product {algebra.basis[i].label()}*{algebra.basis[j].label()} "
                        f"leaves grade {target}"
                    )
    # degree-0 semisimple: for a basic algebra this means A_0 meets the
    # radical trivially and has one dimension per vertex
    zero_rows = grade_rows(0)
    stacked = algebra.radical().copy()
    meet_dim = sum(not stacked.add(row) for row in zero_rows)
    nverts = len(algebra.presentation.vertices)
    degree_zero_semisimple = meet_dim == 0 and len(zero_rows) == nverts
    if not degree_zero_semisimple:
        failures.append(
            f"degree-0 part has dim {len(zero_rows)} (expected {nverts}) "
            f"with radical intersection dim {meet_dim}"
        )
    # positive part equals radical
    pos_rows = [v for g in by_grade if g > 0 for v in grade_rows(g)]
    # canonical RREFs are equal exactly when the spans are
    positive_part_is_radical = Subspace(f, algebra.dim, pos_rows) == algebra.radical()
    if not positive_part_is_radical:
        failures.append("positive part does not equal the radical")
    # tightness: A_n = (A_1)^n
    tight = True
    power_rows = grade_rows(1)
    for n in range(2, top + 1):
        power = Subspace(f, algebra.dim, [algebra.multiply(row, one) for row in power_rows
                                          for one in grade_rows(1)])
        expected = Subspace(f, algebra.dim, grade_rows(n))
        if power != expected:
            tight = False
            failures.append(
                f"grade {n} has dim {len(expected)} but (grade 1)^{n} has "
                f"dim {len(power)}"
            )
        power_rows = power.sparse_rows
    return TightGradingReport(
        multiplicative, degree_zero_semisimple, positive_part_is_radical, tight,
        failures,
    )


# -- reconstruction of presentations from concrete algebras --------------------


@dataclass
class ConcreteAlgebra(_SparseAlgebra):
    """An algebra given by coordinates: the products of its basis elements
    plus the idempotent and radical data needed to rebuild a quiver
    presentation.  Elements are sparse, as in FiniteDimAlgebra."""

    field: FieldSpec
    dim: int
    products: list[list[dict]]  # [i][j] -> basis element i times basis element j
    vertex_idempotents: dict[str, dict]  # label -> orthogonal idempotent
    radical_rows: list[dict]

    def mult_basis(self, i: int, j: int) -> dict:
        return self.products[i][j]


def _block_project(conc: ConcreteAlgebra, u: str, v: str, vec: dict) -> dict:
    eu = conc.vertex_idempotents[u]
    ev = conc.vertex_idempotents[v]
    return conc.multiply(eu, conc.multiply(vec, ev))


def presentation_from_concrete(
    conc: ConcreteAlgebra,
    vertex_order: list[str],
    preferred_arrows: list[tuple[str, str, str, dict]] | None = None,
) -> tuple[QuiverPresentation, FiniteDimAlgebra, list[dict], dict[str, dict]]:
    """Rebuild a quiver presentation of a concrete basic algebra.

    preferred_arrows: candidate (name, src, dst, element) generators tried
    first when choosing arrow representatives.  Returns the presentation, the
    rebuilt algebra, the concrete element of every normal path (aligned with
    the rebuilt basis), and the chosen arrow representatives.

    The linear map sending each normal path to its concrete vector is checked
    to be a bijective algebra homomorphism.
    """
    f = conc.field
    preferred = preferred_arrows or []
    rad = Subspace(f, conc.dim, conc.radical_rows)
    rad2 = Subspace(f, conc.dim, [conc.multiply(x, y) for x in rad.sparse_rows
                                  for y in rad.sparse_rows])

    # choose arrow representatives block by block
    arrows: list[tuple[str, str, str]] = []
    arrow_vectors: dict[str, dict] = {}
    counter = itertools.count()
    for u in vertex_order:
        for v in vertex_order:
            chosen = rad2.copy()
            for name, src, dst, vec in preferred:
                if (src, dst) != (u, v):
                    continue
                bvec = _block_project(conc, u, v, vec)
                if chosen.add(bvec):
                    arrows.append((name, u, v))
                    arrow_vectors[name] = bvec
            block = Subspace(f, conc.dim, [_block_project(conc, u, v, r) for r in rad.sparse_rows])
            for vec in block.sparse_rows:
                if chosen.add(vec):
                    name = f"q{next(counter)}"
                    arrows.append((name, u, v))
                    arrow_vectors[name] = vec

    check(
        len(rad) - len(rad2) == len(arrows),
        "arrow selection does not span rad/rad^2",
    )

    # Discover relations by greedily keeping a path basis; every dependent
    # path becomes a rewrite rule (its tail may mix lengths, which is fine:
    # the new path is always the largest term in the length-lex order).
    relations: list[list[tuple[object, tuple[str, ...]]]] = []
    dead: set[tuple[str, ...]] = set()
    arrow_ends = {name: (src, dst) for name, src, dst in arrows}
    kept_paths: list[tuple[tuple[str, ...], str, str]] = []
    kept_vectors: list[dict] = []
    kept_index = {}
    # each kept vector beside its unit tag: a vector in their span reduces to
    # (0 | minus its coordinates in the kept vectors), which are independent
    n = conc.dim
    tagged = Subspace(f, 2 * n)

    def keep(path, src, dst, vec):
        tagged.add({**vec, n + len(kept_paths): f.one})
        kept_index[path] = len(kept_paths)
        kept_paths.append((path, src, dst))
        kept_vectors.append(vec)

    for name, src, dst in arrows:
        keep((name,), src, dst, arrow_vectors[name])
    frontier = list(kept_paths)
    length = 1
    while frontier:
        length += 1
        if length > PATH_CAP:
            raise InternalCheckError("presentation reconstruction exceeded cap")
        candidates = []
        for path, src, dst in frontier:
            for name in sorted(arrow_ends):
                asrc, adst = arrow_ends[name]
                if asrc != dst:
                    continue
                new_path = path + (name,)
                if any(
                    new_path[s : s + len(d)] == d
                    for d in dead
                    for s in range(len(new_path) - len(d) + 1)
                ):
                    continue
                vec = conc.multiply(kept_vectors[kept_index[path]], arrow_vectors[name])
                candidates.append((new_path, src, adst, vec))
        candidates.sort(key=lambda c: c[0])
        new_frontier = []
        for new_path, src, dst, vec in candidates:
            residual = tagged.reduce(vec)
            if any(k < n for k in residual):
                keep(new_path, src, dst, vec)
                new_frontier.append((new_path, src, dst))
            else:
                relations.append([(f.one, new_path)] + [
                    (c, kept_paths[k - n][0]) for k, c in sorted(residual.items())])
                dead.add(new_path)
        frontier = new_frontier

    pres = QuiverPresentation(
        field=f, vertices=list(vertex_order), arrows=arrows, relations=relations
    )
    rebuilt = build_algebra(pres)
    check(rebuilt.dim == conc.dim, "rebuilt presentation has wrong dimension")

    # evaluate every normal path in the concrete algebra and verify the
    # correspondence is a bijective homomorphism
    path_vectors = []
    for bp in rebuilt.basis:
        if not bp.arrows:
            path_vectors.append(conc.vertex_idempotents[bp.src])
        else:
            vec = arrow_vectors[bp.arrows[0]]
            for name in bp.arrows[1:]:
                vec = conc.multiply(vec, arrow_vectors[name])
            path_vectors.append(vec)
    # the path elements span, so the map is bijective (the dimensions agree)
    check(len(Subspace(f, conc.dim, path_vectors)) == conc.dim,
          "path evaluation map is not bijective")
    # structure constants must agree
    for i in range(rebuilt.dim):
        for j in range(rebuilt.dim):
            lhs = conc.multiply(path_vectors[i], path_vectors[j])
            rhs = _push(f.char, path_vectors, rebuilt.mult_basis(i, j))
            check(lhs == rhs, "rebuilt multiplication disagrees with concrete algebra")
    return pres, rebuilt, path_vectors, arrow_vectors


# -- the associated graded algebra ----------------------------------------------


@dataclass
class GradedAlgebra:
    """A tightly graded algebra: the rebuilt quiver algebra, basis grades
    (path lengths after rebuild), and the link back to the filtered source."""

    algebra: FiniteDimAlgebra
    grades: list[int]
    source: FiniteDimAlgebra
    arrow_reps: dict[str, dict]  # gr-arrow name -> representative in the source
    adapted_basis: list[tuple[int, dict]]  # (grade, element of the source)

    def graded_dims(self) -> list[int]:
        top = max(self.grades) if self.grades else 0
        out = [0] * (top + 1)
        for g in self.grades:
            out[g] += 1
        return out


def gr_algebra(algebra: FiniteDimAlgebra) -> GradedAlgebra:
    """The associated graded algebra of the radical filtration, built once per
    algebra.

    An adapted basis of the source is chosen (vertex idempotents in grade 0,
    unit basis paths preferred in higher grades), the graded multiplication is
    the source multiplication followed by projection to the expected grade,
    and a fresh quiver presentation of the result is reconstructed; path
    length is then the grade.
    """
    return algebra.memoized("gr", lambda: _gr_algebra(algebra))


def _coordinates_in(field: FieldSpec, basis: list[dict]) -> list[dict] | None:
    """The map sending an element of field^n to its coordinates in `basis`
    (n sparse vectors), as sparse columns: the coordinates of each unit
    vector; None when `basis` is not a basis.  One elimination of the tagged
    rows (basis_k | e_k), as in `presentation_from_concrete`: their canonical
    RREF is (I | C) exactly for a basis, and row i of C holds the coordinates
    of e_i."""
    n = len(basis)
    tagged = Subspace(field, 2 * n, ({**vec, n + k: field.one} for k, vec in enumerate(basis)))
    if tagged.pivots != list(range(n)):
        return None
    return [{j - n: x for j, x in tagged.rref[i].items() if j >= n} for i in range(n)]


def _gr_algebra(algebra: FiniteDimAlgebra) -> GradedAlgebra:
    f = algebra.field
    chain = algebra.radical_chain()
    grades = algebra.grades()
    adapted: list[tuple[int, dict]] = []
    for power in range(len(chain) - 1):
        chosen = chain[power + 1].copy()
        if power == 0:
            candidates = [
                algebra.basis_vector(algebra.vertex_index[v])
                for v in algebra.presentation.vertices
            ]
        else:
            candidates = [
                algebra.basis_vector(i)
                for i in range(algebra.dim)
                if grades[i] == power
            ]
        for vec in candidates:
            if chosen.add(vec):
                adapted.append((power, vec))
        for vec in chain[power].sparse_rows:
            if chosen.add(vec):
                adapted.append((power, vec))
    check(len(adapted) == algebra.dim, "adapted basis has wrong size")

    # the adapted coordinates of an element v are its image under to_adapted
    source = [vec for _, vec in adapted]
    to_adapted = _coordinates_in(f, source)
    check(to_adapted is not None, "adapted vectors are not a basis")
    # the graded product of two adapted basis elements: their product in the
    # source, in adapted coordinates, keeping only the expected grade
    products = [[{k: c for k, c in _push(f.char, to_adapted, algebra.multiply(x, y)).items()
                  if adapted[k][0] == gx + gy} for gy, y in adapted]
                for gx, x in adapted]

    idempotents = {}
    for v in algebra.presentation.vertices:
        target = algebra.basis_vector(algebra.vertex_index[v])
        vec = {k: f.one for k, (g, avec) in enumerate(adapted) if g == 0 and avec == target}
        check(bool(vec), "vertex idempotent missing from adapted basis")
        idempotents[v] = vec
    rad_rows = [{i: f.one} for i, (g, _) in enumerate(adapted) if g > 0]
    conc = ConcreteAlgebra(f, algebra.dim, products, idempotents, rad_rows)
    preferred = []
    for name, src, dst in algebra.presentation.arrows:
        idx = algebra.arrow_index.get(name)
        if idx is None:
            continue
        target = algebra.basis_vector(idx)
        vec = {k: f.one for k, (g, avec) in enumerate(adapted) if g == 1 and avec == target}
        if vec:
            preferred.append((name, src, dst, vec))
    pres, rebuilt, path_vectors, arrow_vecs = presentation_from_concrete(
        conc, list(algebra.presentation.vertices), preferred
    )
    # carry decorations over; relations were recomputed
    pres.order_pairs = list(algebra.presentation.order_pairs)
    pres.lengths = dict(algebra.presentation.lengths)
    pres.weights = dict(algebra.presentation.weights)
    new_grades = [len(bp.arrows) for bp in rebuilt.basis]
    # arrow representative back in source coordinates
    arrow_reps = {name: _push(f.char, source, vec) for name, vec in arrow_vecs.items()}
    report = tight_grading_check(rebuilt)
    check(report.passed, f"gr algebra is not tightly graded: {report.failures}")
    check(
        rebuilt.graded_dims() == algebra.graded_dims(),
        "gr algebra graded dimensions disagree with the radical filtration",
    )
    return GradedAlgebra(rebuilt, new_grades, algebra, arrow_reps, adapted)


# -- opposite algebra ------------------------------------------------------------


def opposite_algebra(algebra: FiniteDimAlgebra) -> tuple[FiniteDimAlgebra, list[dict], list[dict]]:
    """The opposite algebra, presented on the reversed quiver.

    Returns (A_op, to_op, from_op) where to_op maps elements of A to
    elements of A_op realizing the canonical anti-isomorphism (reverse
    every path), and from_op is its inverse, both as sparse columns: the
    image of each basis element.
    """
    pres = algebra.presentation
    arrows = [(name, dst, src) for name, src, dst in pres.arrows]
    relations = [
        [(coeff, tuple(reversed(path))) for coeff, path in rel]
        for rel in pres.relations
    ]
    duality = list(pres.duality) if pres.duality else None
    op_pres = QuiverPresentation(
        field=pres.field,
        vertices=list(pres.vertices),
        arrows=arrows,
        relations=relations,
        order_pairs=list(pres.order_pairs),
        lengths=dict(pres.lengths),
        weights=dict(pres.weights),
        duality=duality,
    )
    op = build_algebra(op_pres)
    check(op.dim == algebra.dim, "opposite algebra dimension mismatch")
    f = algebra.field
    to_op = []
    for bp in algebra.basis:
        if not bp.arrows:
            to_op.append(op.basis_vector(op.vertex_index[bp.src]))
        else:
            to_op.append(op.path_to_vector(bp.dst, tuple(reversed(bp.arrows))))
    from_op = _coordinates_in(f, to_op)
    check(from_op is not None, "path reversal is not a linear isomorphism")
    # anti-multiplicativity check on all basis pairs
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            lhs = _push(f.char, to_op, algebra.mult_basis(i, j))
            rhs = op.multiply(to_op[j], to_op[i])
            check(lhs == rhs, "path reversal is not anti-multiplicative")
    return op, to_op, from_op


# -- subalgebras -------------------------------------------------------------------


@dataclass
class SubalgebraEmbedding(_Memoized):
    """A unital subalgebra, held as the subspace it spans in the ambient algebra.

    radical() is a ∩ rad A: the ambient algebra is basic, so a/(a ∩ rad A)
    embeds in a product of copies of the base field and is semisimple over
    the perfect fields Q and F_p; no separate radical algorithm is needed.
    The basis of the subalgebra is the canonical RREF of `space`.
    """

    ambient: FiniteDimAlgebra
    space: Subspace
    _memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.space)

    def as_algebra(self) -> tuple[FiniteDimAlgebra, dict[str, list[str]], dict[str, dict]]:
        """The subalgebra as a based algebra in its own right, built once per
        embedding: (algebra, vertex classes, arrow vectors).

        Its vertices are classes of ambient vertices that no subalgebra element
        separates on idempotent coordinates, labelled by their '+'-joined
        members; the class indicator sums must lie in the subalgebra, which
        holds whenever the degree-0 part sits inside the span of the ambient
        idempotents.  Each arrow's vector is its representative, an element
        of the ambient algebra.
        """
        return self.memoized("algebra", self._build_algebra)

    def coords(self, vec: dict) -> dict | None:
        """The coordinates of an ambient element in the basis of the
        subalgebra, as a sparse element of it, or None when it lies outside."""
        entries = self.space.pivot_entries(vec)
        if entries is None:
            return None
        position = self.memoized("positions",
                                 lambda: {p: k for k, p in enumerate(self.space.pivots)})
        return {position[p]: x for p, x in sorted(entries.items())}

    def _build_algebra(self):
        ambient = self.ambient
        f = ambient.field
        basis = self.space.sparse_rows
        classes: list[list[str]] = []
        for v in ambient.presentation.vertices:
            pos = ambient.vertex_index[v]
            for cls in classes:
                ref = ambient.vertex_index[cls[0]]
                if all(row.get(pos) == row.get(ref) for row in basis):
                    cls.append(v)
                    break
            else:
                classes.append([v])

        idem = {}
        for cls in classes:
            coords = self.coords({ambient.vertex_index[v]: f.one for v in cls})
            require(coords is not None,
                    "subalgebra does not contain its vertex class idempotents")
            idem["+".join(cls)] = coords
        rad_coords = []
        for r in self.radical().sparse_rows:
            coords = self.coords(r)
            check(coords is not None, "subalgebra radical escaped the subalgebra")
            rad_coords.append(coords)
        conc = ConcreteAlgebra(f, self.dim, self.structure_constants(), idem, rad_coords)
        _, rebuilt, _, sub_arrows = presentation_from_concrete(conc, list(idem))
        arrows = {name: _push(f.char, basis, coords) for name, coords in sub_arrows.items()}
        return rebuilt, dict(zip(idem, classes)), arrows

    def radical(self) -> Subspace:
        return intersect_spaces(self.space, self.ambient.radical())

    def structure_constants(self) -> list[list[dict]]:
        """Multiplication table in the subalgebra basis: [i][j] is basis
        element i times basis element j, in sparse coordinates; built once
        per embedding, so callers must not change it."""
        return self.memoized("structure constants", self._structure_constants)

    def _structure_constants(self) -> list[list[dict]]:
        table = []
        for x in self.space.sparse_rows:
            row = []
            for y in self.space.sparse_rows:
                coords = self.coords(self.ambient.multiply(x, y))
                check(coords is not None, "subalgebra not closed under product")
                row.append(coords)
            table.append(row)
        return table

    def is_normal(self) -> bool:
        """Whether a+ A = A a+ as subspaces, for the augmentation ideal
        a+ = rad a."""
        f = self.ambient.field
        aug = self.radical().sparse_rows
        ambient_basis = [
            self.ambient.basis_vector(i) for i in range(self.ambient.dim)
        ]
        left = [self.ambient.multiply(x, b) for x in aug for b in ambient_basis]
        right = [self.ambient.multiply(b, x) for x in aug for b in ambient_basis]
        return (Subspace(f, self.ambient.dim, left)
                == Subspace(f, self.ambient.dim, right))

    def grades(self) -> list[int]:
        """Grades of the subalgebra basis from the ambient radical filtration;
        they grade the subalgebra only if products respect them, which
        tight_subalgebra_check decides."""
        return [self.ambient.grade_of(vec) for vec in self.space.sparse_rows]


def subalgebra_from_generators(algebra: FiniteDimAlgebra,
                               generators: list[dict]) -> SubalgebraEmbedding:
    """Smallest unital subalgebra containing the generators, elements of the
    algebra: their span with the unit, grown by the products of its basis
    until none is new."""
    space = Subspace(algebra.field, algebra.dim, [algebra.unit_vector()] + list(generators))
    grown = True
    while grown:
        basis = space.sparse_rows
        # a list, not a generator: every product is added in this round
        grown = any([space.add(algebra.multiply(x, y)) for x in basis for y in basis])
    return SubalgebraEmbedding(algebra, space)


@dataclass
class RadicalGenerationReport:
    generates: bool
    per_power: list[bool]  # rad^n A == (rad a)^n A for each n >= 1

    @property
    def passed(self) -> bool:
        return self.generates and all(self.per_power)


def radical_generation_check(emb: SubalgebraEmbedding) -> RadicalGenerationReport:
    """Does (rad a) A = rad A?  Also verifies rad^n A = (rad a)^n A for all n.
    Decided once per embedding."""
    return emb.memoized("radical generation", lambda: _radical_generation(emb))


def _radical_generation(emb: SubalgebraEmbedding) -> RadicalGenerationReport:
    algebra = emb.ambient
    f = algebra.field
    sub_rad = emb.radical().sparse_rows
    ambient_basis = [algebra.basis_vector(i) for i in range(algebra.dim)]
    per_power = []
    left = sub_rad  # (rad a)^n as spanning rows
    for power in range(1, algebra.radical_length + 1):
        prods = [algebra.multiply(x, b) for x in left for b in ambient_basis]
        per_power.append(Subspace(f, algebra.dim, prods) == algebra.radical(power))
        nxt = [algebra.multiply(x, y) for x in left for y in sub_rad]
        left = Subspace(f, algebra.dim, nxt).sparse_rows
    generates = per_power[0] if per_power else True
    return RadicalGenerationReport(generates, per_power)


def tight_subalgebra_check(emb: SubalgebraEmbedding) -> tuple[bool, list[int] | None, list[str]]:
    """Is the embedded subalgebra tightly graded by the ambient filtration?

    Uses the grade assignment a_i = (chosen basis graded by ambient rad
    powers); requires the basis to decompose the subalgebra multiplicatively.
    Returns (verdict, grades, failures), decided once per embedding.
    """
    return emb.memoized("tight", lambda: _tight_subalgebra(emb))


def _tight_subalgebra(emb: SubalgebraEmbedding) -> tuple[bool, list[int], list[str]]:
    f = emb.ambient.field
    grades = emb.grades()
    failures: list[str] = []
    # group basis and check multiplicativity inside the subalgebra
    table = emb.structure_constants()
    for i, gi in enumerate(grades):
        for j, gj in enumerate(grades):
            for k in table[i][j]:
                if grades[k] != gi + gj:
                    failures.append(
                        f"sub product of grades {gi},{gj} meets grade {grades[k]}"
                    )
    by_grade: dict[int, list[int]] = {}
    for i, g in enumerate(grades):
        by_grade.setdefault(g, []).append(i)
    # a_0 semisimple: a_0 must meet rad A trivially (then it embeds into K^n)
    rows = emb.space.sparse_rows
    stacked = emb.ambient.radical().copy()
    if not all(stacked.add(rows[i]) for i in by_grade.get(0, [])):
        failures.append("degree-0 part of subalgebra meets the radical")
    # tight: a_n = a_1^n, as spans of ambient elements (the coordinates of
    # the subalgebra basis carry one span to the other)
    ambient = emb.ambient
    top = max(grades) if grades else 0
    ones = [rows[i] for i in by_grade.get(1, [])]
    cur = ones
    for n in range(2, top + 1):
        power = Subspace(f, ambient.dim, [ambient.multiply(x, y) for x in cur for y in ones])
        if power != Subspace(f, ambient.dim, [rows[i] for i in by_grade.get(n, [])]):
            failures.append(f"subalgebra grade {n} is not (grade 1)^{n}")
        cur = power.sparse_rows
    return (not failures, grades, failures)
