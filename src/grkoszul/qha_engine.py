"""Highest weight structure over a based algebra: standard and costandard
modules against a weight poset, quasi-heredity testing, truncation to a
weight ideal, and the homological cross-checks built on them (orthogonality,
graded reciprocity, parity of Ext degrees, Koszulity transfer along gr).

Conventions.  Weights are the vertex labels of the algebra and modules are
right modules throughout.  The standard module at a weight is the largest
quotient of the projective cover whose composition factors are bounded by
that weight; costandard modules are duals of the standards over the opposite
algebra.  Algebra elements are sparse {basis index: scalar} dicts, as in
algebra_core, and a map between algebras is the list of its sparse
columns, the image of each basis element.  A duality is an anti-involution
of the algebra fixing every vertex idempotent, given by such columns; it is
validated, never assumed.  Every "check" here recomputes both sides of an
identity from independent routes and raises InternalCheckError on
disagreement.
"""

from dataclasses import dataclass

from .errors import InputFormatError, check, require
from .exactlin import Subspace, _push
from .algebra_core import (
    ConcreteAlgebra,
    FiniteDimAlgebra,
    SubalgebraEmbedding,
    apply_duality_to_path,
    gr_algebra,
    opposite_algebra,
    presentation_from_concrete,
    radical_generation_check,
    tight_grading_check,
    tight_subalgebra_check,
    _coordinates_in,
)
from .rep_homology import (
    GradedRepresentation,
    Representation,
    direct_sum,
    dual_rep,
    ext_groups,
    filtration_slice,
    gr_rep,
    graded_hom_space,
    graded_minimal_resolution,
    head_multiplicities,
    is_isomorphic,
    koszul_check,
    make_representation,
    minimal_resolution,
    projective_rep,
    quotient_rep,
    radical_series,
    restrict_iso_check,
    restricts_projectively,
    simple_rep,
    socle_series,
    sub_rep,
    _global_dimension,
    _sparse_rows,
)


# -- weight posets -----------------------------------------------------------------


@dataclass
class WeightPosetIdeal:
    """A finite poset of weight labels, stored as its strict order closure.

    order lists generating pairs (a, b) meaning a < b; the transitive
    closure is taken and must stay irreflexive.  length optionally assigns
    the integer used by the parity checks to every weight.
    """

    elements: list[str]
    order: list[tuple[str, str]]
    length: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if len(set(self.elements)) != len(self.elements):
            raise InputFormatError("duplicate weight labels")
        universe = set(self.elements)
        less = set()
        for a, b in self.order:
            if a not in universe or b not in universe:
                raise InputFormatError(f"order pair on unknown weights: {a} < {b}")
            less.add((a, b))
        changed = True
        while changed:
            changed = False
            for a, b in list(less):
                for c, d in list(less):
                    if b == c and (a, d) not in less:
                        less.add((a, d))
                        changed = True
        for x in universe:
            if (x, x) in less:
                raise InputFormatError(f"weight order has a cycle through {x!r}")
        if self.length is not None:
            missing = [x for x in self.elements if x not in self.length]
            if missing:
                raise InputFormatError(f"length function missing weights: {missing}")
            stray = sorted(set(self.length) - universe)
            if stray:
                raise InputFormatError(f"length function on unknown weights: {stray}")
        self._less = less

    def lt(self, a: str, b: str) -> bool:
        return (a, b) in self._less

    def leq(self, a: str, b: str) -> bool:
        return a == b or (a, b) in self._less

    def maximal_in(self, subset: list[str]) -> list[str]:
        """Maximal elements of the subset, in the subset's own order."""
        return [x for x in subset if not any(self.lt(x, y) for y in subset)]

    def is_ideal(self, subset: list[str]) -> bool:
        """Is the subset downward closed?"""
        sset = set(subset)
        return all(
            y in sset for x in subset for y in self.elements if self.lt(y, x)
        )

    def restrict(self, subset: list[str]) -> "WeightPosetIdeal":
        sset = set(subset)
        kept = [v for v in self.elements if v in sset]
        pairs = sorted((a, b) for a, b in self._less if a in sset and b in sset)
        length = None
        if self.length is not None:
            length = {v: self.length[v] for v in kept}
        return WeightPosetIdeal(kept, pairs, length)


# -- standard modules --------------------------------------------------------------


@dataclass(eq=False)
class HighestWeightStructure:
    """The module families attached to an algebra with a weight poset.

    costandards and injectives are duals of the opposite-side standards and
    projectives, so both sides of every statement stay available; op_algebra
    and the coordinate anti-isomorphisms are kept for graded constructions.
    """

    algebra: FiniteDimAlgebra
    poset: WeightPosetIdeal
    simples: dict[str, Representation]
    projectives: dict[str, Representation]
    standards: dict[str, Representation]
    costandards: dict[str, Representation]
    injectives: dict[str, Representation]
    duality: list[dict] | None  # sparse columns
    op_algebra: FiniteDimAlgebra
    op_standards: dict[str, Representation]
    op_projectives: dict[str, Representation]


def _validate_duality_matrix(algebra: FiniteDimAlgebra, d: list[dict]) -> list[dict]:
    """The duality's sparse columns with canonical scalars, once they pass:
    d fixes the idempotents, d(d(b)) = b and d(b * c) = d(c) * d(b) for all
    basis elements b and c."""
    f, n = algebra.field, algebra.dim
    if len(d) != n or any(k not in range(n) for col in d for k in col):
        raise InputFormatError("duality matrix has the wrong shape")
    d = [{k: x for k, x in zip(col, map(f.coerce, col.values())) if x} for col in d]
    for v, i in algebra.vertex_index.items():
        if d[i] != algebra.basis_vector(i):
            raise InputFormatError(f"duality must fix the idempotent at {v!r}")
    if any(_push(f.char, d, col) != algebra.basis_vector(i) for i, col in enumerate(d)):
        raise InputFormatError("duality must square to the identity")
    for i in range(n):
        for j in range(n):
            lhs = _push(f.char, d, algebra.mult_basis(i, j))
            rhs = algebra.multiply(d[j], d[i])
            if lhs != rhs:
                raise InputFormatError("duality must reverse products")
    return d


def duality_matrix_from_presentation(algebra: FiniteDimAlgebra) -> list[dict]:
    """The duality declared on the presentation, as the sparse columns of its
    basis-coordinates matrix: the image of each basis element."""
    pres = algebra.presentation
    require(bool(pres.duality), "the presentation declares no duality")
    f = algebra.field
    cols = []
    for bp in algebra.basis:
        if not bp.arrows:
            cols.append(algebra.basis_vector(algebra.vertex_index[bp.src]))
            continue
        sign, image = apply_duality_to_path(pres, bp.arrows)
        src = pres.path_endpoints(image)[0]
        vec = algebra.path_to_vector(src, image)
        cols.append({k: f.mul(f.coerce(sign), c) for k, c in vec.items()})
    return cols


def _trace(m: Representation, vertices: list[str]) -> Subspace:
    """The trace in M of the projectives at the vertices, the sum of the
    images of all maps from them: by Yoneda the submodule generated by M's
    blocks at the vertices, spanned by the path images of their units."""
    one, basis = m.algebra.field.one, m.algebra.basis
    return Subspace(m.algebra.field, m.total_dim, (
        m.place(basis[i].dst, block) for mu in vertices for k in range(m.dims[mu])
        for i, block in m.path_images(mu, {k: one}).items()))


def _standard_family(algebra: FiniteDimAlgebra, poset: WeightPosetIdeal,
                     projectives: dict[str, Representation]) -> dict[str, Representation]:
    """Largest quotients of the projectives with factors bounded by the weight.

    The kernel killed in P(lam) is the sum of the images of all maps from
    P(mu) with mu not below lam; its factors are exactly the L(mu) violating
    the bound, so the quotient is the standard module.
    """
    out = {}
    for lam in poset.elements:
        p = projectives[lam]
        delta, _ = quotient_rep(p, _trace(p, [mu for mu in poset.elements
                                              if not poset.leq(mu, lam)]))
        check(
            head_multiplicities(delta) == {v: 1 if v == lam else 0 for v in delta.vertices},
            f"standard module at {lam!r} lost its simple head",
        )
        check(
            all(poset.leq(v, lam) for v in delta.vertices if delta.dims[v]),
            f"standard module at {lam!r} has a factor above its weight",
        )
        out[lam] = delta
    return out


def standard_modules(algebra: FiniteDimAlgebra, poset: WeightPosetIdeal,
                     duality: list[dict] | None = None) -> HighestWeightStructure:
    """Simples, projectives, standards and their duals for a weight poset.

    The poset labels must coincide with the vertex set.  A supplied duality,
    given by the sparse columns of its matrix, is validated as an
    anti-involution fixing the idempotents.
    """
    if sorted(poset.elements) != sorted(algebra.presentation.vertices):
        raise InputFormatError("weight poset labels differ from the vertex set")
    if duality is not None:
        duality = _validate_duality_matrix(algebra, duality)
    simples = {v: simple_rep(algebra, v) for v in poset.elements}
    projectives = {v: projective_rep(algebra, v) for v in poset.elements}
    standards = _standard_family(algebra, poset, projectives)
    op, _, _ = opposite_algebra(algebra)
    op_projectives = {v: projective_rep(op, v) for v in poset.elements}
    op_standards = _standard_family(op, poset, op_projectives)
    costandards = {v: dual_rep(op_standards[v], algebra) for v in poset.elements}
    injectives = {v: dual_rep(op_projectives[v], algebra) for v in poset.elements}
    for lam in poset.elements:
        soc, _ = sub_rep(costandards[lam], socle_series(costandards[lam])[1])
        check(
            soc.dims == {v: 1 if v == lam else 0 for v in soc.vertices},
            f"costandard module at {lam!r} lost its simple socle",
        )
    return HighestWeightStructure(
        algebra, poset, simples, projectives, standards, costandards,
        injectives, duality, op, op_standards, op_projectives,
    )


def dualize(h: HighestWeightStructure, rep: Representation) -> Representation:
    """The contravariant self-duality: M* with a acting through duality(a)."""
    require(h.duality is not None, "no duality is attached to this structure")
    algebra = h.algebra
    one = algebra.field.one
    dims = dict(rep.dims)
    columns = {}
    for name, u, v in algebra.presentation.arrows:
        # duality(a) runs from v to u; a acts on M* by its transpose, whose
        # columns are the rows of duality(a)'s block, assembled by columns
        img = h.duality[algebra.arrow_index[name]]
        by_columns = [rep.block(rep.act_element(img, rep.place(v, {j: one})), u)
                      for j in range(dims[v])]
        columns[name] = _sparse_rows(by_columns, dims[u])
    return make_representation(algebra, dims, columns)


# -- quasi-heredity ----------------------------------------------------------------


@dataclass
class HeredityStep:
    weight: str
    ideal_dim: int
    ideal: Subspace


@dataclass
class QhaReport:
    passed: bool
    filtrations: dict[str, list[str] | None]  # top-down section weights
    failures: list[str]
    heredity_chain: list[HeredityStep] | None


def _delta_filtration(h: HighestWeightStructure, m: Representation) -> list[str] | None:
    """Section weights of a filtration by standard modules, top-down, or None.

    Peels sums of standards off the bottom: when mu is maximal in the
    support, every vector of weight mu lies in a standard section, so the
    submodule generated by the mu component must be a sum of dims[mu] copies
    of the standard at mu.  All maximal weights are tried (backtracking).
    """
    if m.total_dim == 0:
        return []
    support = [v for v in h.poset.elements if m.dims[v]]
    for mu in h.poset.maximal_in(support):
        delta = h.standards[mu]
        if delta.dims[mu] != 1:
            continue
        count = m.dims[mu]
        span = _trace(m, [mu])
        bottom, _ = sub_rep(m, span)
        if bottom.total_dim != count * delta.total_dim:
            continue
        ok, _ = is_isomorphic(bottom, direct_sum(*([delta] * count)))
        if not ok:
            continue
        rest = _delta_filtration(h, quotient_rep(m, span)[0])
        if rest is not None:
            return rest + [mu] * count
    return None


def _trace_ideal(algebra: FiniteDimAlgebra, vertices: set[str] | list[str]) -> Subspace:
    """The two-sided ideal generated by the idempotents at the vertices,
    spanned by products (basis path into one) * (basis path out of it)
    because rewriting can move interior vertices of a path."""
    basis = algebra.basis
    return Subspace(algebra.field, algebra.dim, (
        algebra.mult_basis(i, j) for i, bi in enumerate(basis) if bi.dst in vertices
        for j, bj in enumerate(basis) if bj.src == bi.dst))


def _heredity_chain(h: HighestWeightStructure) -> list[HeredityStep]:
    """Ascending chain of trace ideals of the projectives, one weight at a time.

    Each step adjoins a maximal remaining weight mu and records the two-sided
    ideal generated by its idempotent together with the previous step.  The
    ideals are spanned by products (basis through e_mu) and idempotency
    I * I = I is re-verified from the spans.
    """
    algebra = h.algebra
    f = algebra.field
    remaining = list(h.poset.elements)
    absorbed: set[str] = set()
    steps = []
    while remaining:
        mu = h.poset.maximal_in(remaining)[0]
        remaining.remove(mu)
        absorbed.add(mu)
        ideal = _trace_ideal(algebra, absorbed)
        rows = ideal.sparse_rows
        squares = [algebra.multiply(x, y) for x in rows for y in rows]
        check(Subspace(f, algebra.dim, squares) == ideal,
              f"trace ideal at {mu!r} is not idempotent")
        steps.append(HeredityStep(mu, len(ideal), ideal))
    return steps


def qha_check(h: HighestWeightStructure) -> QhaReport:
    """Does every projective admit a filtration by standard modules?

    Requires the top section of P(lam) to be the standard at lam, appearing
    exactly once, with all other sections strictly above lam.  On success the
    heredity chain of trace ideals is returned as a certificate.
    """
    filtrations: dict[str, list[str] | None] = {}
    failures: list[str] = []
    for lam in h.poset.elements:
        mult = h.standards[lam].dims[lam]
        if mult != 1:
            failures.append(
                f"standard module at {lam!r} contains its simple {mult} times"
            )
        flt = _delta_filtration(h, h.projectives[lam])
        filtrations[lam] = flt
        if flt is None:
            failures.append(f"projective at {lam!r} has no filtration by standard modules")
            continue
        if flt[0] != lam:
            failures.append(f"top section of the projective at {lam!r} is {flt[0]!r}")
        if flt.count(lam) != 1:
            failures.append(
                f"projective at {lam!r} contains its standard module {flt.count(lam)} times"
            )
        for mu in flt:
            if mu != lam and not h.poset.lt(lam, mu):
                failures.append(
                    f"projective at {lam!r} has a section at {mu!r} not above {lam!r}"
                )
    passed = not failures
    chain = _heredity_chain(h) if passed else None
    return QhaReport(passed, filtrations, failures, chain)


# -- truncation to a weight ideal ----------------------------------------------------


@dataclass(eq=False)
class _Truncation:
    structure: HighestWeightStructure
    kept: list[str]
    proj_coords: list[dict]  # the projection's columns: ambient basis index -> element
    full: bool


def _inflate(rep_b: Representation, h: HighestWeightStructure, kept: list[str],
             proj_coords: list[dict]) -> Representation:
    """Pull a module over the truncation back to the ambient algebra.

    Dropped weights act by zero; a surviving arrow acts through the image of
    its ambient basis vector in the truncation.
    """
    algebra = h.algebra
    one = algebra.field.one
    kept_set = set(kept)
    dims = {
        v: (rep_b.dims[v] if v in kept_set else 0)
        for v in algebra.presentation.vertices
    }
    columns = {}
    for name, u, v in algebra.presentation.arrows:
        if u in kept_set and v in kept_set and dims[u] and dims[v]:
            coords = proj_coords[algebra.arrow_index[name]]
            columns[name] = [rep_b.block(rep_b.act_element(coords, rep_b.place(u, {j: one})), v)
                             for j in range(dims[u])]
        else:
            columns[name] = [{} for _ in range(dims[u])]
    return make_representation(algebra, dims, columns)


def _verify_truncation(h: HighestWeightStructure, hb: HighestWeightStructure,
                       kept: list[str], proj_coords: list[dict]) -> None:
    # the embedding of the truncated category must not change standard
    # modules, and Ext between surviving simples is sampled on both sides
    bound = 2 * len(kept)
    for lam in kept:
        inflated = _inflate(hb.standards[lam], h, kept, proj_coords)
        ok, _ = is_isomorphic(inflated, h.standards[lam])
        check(ok, f"standard module at {lam!r} changed under truncation")
        for mu in kept:
            ea = ext_groups(h.simples[lam], h.simples[mu], bound)
            eb = ext_groups(hb.simples[lam], hb.simples[mu], bound)
            check(
                ea == eb,
                f"Ext between the simples at ({lam!r}, {mu!r}) changed under truncation",
            )


def _truncation(h: HighestWeightStructure, gamma: list[str]) -> _Truncation:
    poset, algebra = h.poset, h.algebra
    f = algebra.field
    kept_set = set(gamma)
    if not kept_set:
        raise InputFormatError("the weight ideal is empty")
    unknown = sorted(kept_set - set(poset.elements))
    if unknown:
        raise InputFormatError(f"unknown weights in the ideal: {unknown}")
    kept = [v for v in poset.elements if v in kept_set]
    if not poset.is_ideal(kept):
        raise InputFormatError("the weight subset is not downward closed")
    if len(kept) == len(poset.elements):
        ident = [algebra.basis_vector(i) for i in range(algebra.dim)]
        return _Truncation(h, kept, ident, True)

    dropped = [v for v in poset.elements if v not in kept_set]
    ideal = _trace_ideal(algebra, dropped)
    # A/J has the basis of the ambient positions off the ideal's pivots
    keep_pos = [k for k in range(algebra.dim) if k not in ideal.rref]
    position = {k: i for i, k in enumerate(keep_pos)}
    dim_b = len(keep_pos)

    def project(vec: dict) -> dict:
        # the residual modulo the ideal is zero at every pivot of its RREF
        return {position[k]: x for k, x in ideal.reduce(vec).items()}

    def lift(vec: dict) -> dict:
        return {keep_pos[i]: x for i, x in vec.items()}

    idem = {}
    for v in kept:
        pv = project(algebra.basis_vector(algebra.vertex_index[v]))
        require(bool(pv), f"the trace ideal swallows the surviving weight {v!r}")
        idem[v] = pv
    for mu in dropped:
        gone = project(algebra.basis_vector(algebra.vertex_index[mu]))
        check(not gone, f"dropped idempotent at {mu!r} survived its own trace ideal")

    # rad(A/J) is the image of rad(A) for any ideal J of a f.d. algebra
    rad_b = [project(r) for r in algebra.radical().sparse_rows]
    preferred = []
    for name, u, v in algebra.presentation.arrows:
        if u in kept_set and v in kept_set:
            vec = project(algebra.basis_vector(algebra.arrow_index[name]))
            if vec:
                preferred.append((name, u, v, vec))
    # the product of two basis elements of A/J is that of their lifts, projected
    table_b = [[project(algebra.mult_basis(i, j)) for j in keep_pos] for i in keep_pos]
    conc = ConcreteAlgebra(f, dim_b, table_b, idem, rad_b)
    _, rebuilt, path_vectors, _ = presentation_from_concrete(conc, kept, preferred)

    to_rebuilt = _coordinates_in(f, path_vectors)
    check(to_rebuilt is not None, "the rebuilt paths are not a basis of the quotient")

    proj_coords = [
        _push(f.char, to_rebuilt, project(algebra.basis_vector(i))) for i in range(algebra.dim)
    ]
    duality_b = None
    if h.duality is not None:
        # the duality fixes idempotents, hence preserves the trace ideal and
        # descends; transport it through compatible lifts
        duality_b = [_push(f.char, to_rebuilt, project(_push(f.char, h.duality, lift(vec))))
                     for vec in path_vectors]
    hb = standard_modules(rebuilt, poset.restrict(kept), duality=duality_b)
    _verify_truncation(h, hb, kept, proj_coords)
    return _Truncation(hb, kept, proj_coords, False)


def truncate(h: HighestWeightStructure, gamma: list[str]) -> HighestWeightStructure:
    """The structure on A / (trace ideal of the weights outside gamma).

    gamma must be a non-empty downward closed subset of the weight poset.
    Standard modules at surviving weights and Ext between surviving simples
    are verified to agree with the ambient ones.
    """
    return _truncation(h, gamma).structure


# -- orthogonality and graded reciprocity ---------------------------------------------


def _graded_projective(algebra: FiniteDimAlgebra, vertex: str) -> GradedRepresentation:
    # valid only when basis-path length is a grading of the algebra
    p = projective_rep(algebra, vertex)
    grades = {
        u: [len(bp.arrows) for bp in algebra.basis if bp.src == vertex and bp.dst == u]
        for u in p.vertices
    }
    return GradedRepresentation(p, grades)


@dataclass
class OrthogonalityReport:
    orthogonality_ok: bool
    bound: int
    exact_bound: bool
    failures: list[str]
    graded_checked: bool
    reciprocity_ok: bool | None
    reciprocity: list[tuple[str, str, int, int]]  # (socle weight, standard weight, shift, count)


def orthogonality_reciprocity_check(h: HighestWeightStructure) -> OrthogonalityReport:
    """Ext(standard, costandard) = scalars on the diagonal in degree 0, and
    the graded multiplicity of a shifted costandard in an injective equals
    the matching graded composition multiplicity of the standard.

    The reciprocity side needs a tightly graded algebra; injectives are
    graded with socle in grade 0, so [Q(mu) : costandard(tau) shifted by s]
    is the dimension of the degree-0 graded homs out of the shifted graded
    standard, compared against the grade (-s) piece of it at mu; one split
    of the homs out of the standard by degree gives every shift.
    """
    bound, exact = _global_dimension(h.algebra)
    failures: list[str] = []
    for lam in h.poset.elements:
        for mu in h.poset.elements:
            got = ext_groups(h.standards[lam], h.costandards[mu], bound)
            want = [1 if (n == 0 and lam == mu) else 0 for n in range(bound + 1)]
            if got != want:
                failures.append(
                    f"Ext(standard {lam!r}, costandard {mu!r}) = {got}"
                )
    graded_checked = tight_grading_check(h.algebra).passed
    reciprocity: list[tuple[str, str, int, int]] = []
    reciprocity_ok = None
    if graded_checked:
        reciprocity_ok = True
        ga = gr_algebra(h.algebra)
        gop, _, _ = opposite_algebra(ga.algebra)
        gdeltas = {v: gr_rep(h.standards[v], ga) for v in h.poset.elements}
        for mu in h.poset.elements:
            gp = _graded_projective(gop, mu)
            injective = GradedRepresentation(
                dual_rep(gp.rep, ga.algebra),
                {v: [-g for g in gs] for v, gs in gp.grades.items()},
            )
            for tau in h.poset.elements:
                gd = gdeltas[tau]
                top = max(g for gs in gd.grades.values() for g in gs)
                # the degree-0 homs out of gd.shift(s) are the degree-s homs out of gd
                homs = graded_hom_space(gd, injective)
                for s in range(-top - 1, 2):
                    found = len(homs.get(s, []))
                    expected = gd.piece_dims().get(-s, {}).get(mu, 0)
                    if found != expected:
                        reciprocity_ok = False
                        failures.append(
                            f"[injective {mu!r} : costandard {tau!r} shifted {s}] = "
                            f"{found}, graded multiplicity gives {expected}"
                        )
                    reciprocity.append((mu, tau, s, found))
    return OrthogonalityReport(
        not any(f.startswith("Ext(") for f in failures),
        bound, exact, failures, graded_checked, reciprocity_ok, reciprocity,
    )


# -- parity of Ext degrees -------------------------------------------------------------


@dataclass
class ParityReport:
    kl: bool
    skl_prime: bool
    graded_kl: bool | None
    bound: int
    exact_bound: bool
    duality_used: bool
    failures: list[str]


def parity_checks(h: HighestWeightStructure, lengths: dict[str, int]) -> ParityReport:
    """Parity of Ext degrees against a length function on the weights.

    kl: nonzero Ext^n between a standard at lam (or a simple) and a simple
    at mu (or a costandard) forces n = l(lam) - l(mu) mod 2.  skl_prime:
    the same with the standard replaced by any radical submodule rad^i and
    the costandard by any socle quotient, with parity shifted by i.  The
    graded variant reads the minimal graded resolutions of the standards
    over gr A on both sides of the algebra: every degree-n term must be
    generated in grade n with the matching parity.
    """
    missing = [v for v in h.poset.elements if v not in lengths]
    if missing:
        raise InputFormatError(f"length function missing weights: {missing}")
    bound, exact = _global_dimension(h.algebra)
    failures: list[str] = []
    kl = True
    skl = True
    duality_used = h.duality is not None
    if duality_used:
        # sampled symmetry: the duality swaps arguments without moving Ext
        for lam in h.poset.elements:
            for mu in h.poset.elements:
                direct = ext_groups(h.standards[lam], h.simples[mu], bound)
                swapped = ext_groups(
                    dualize(h, h.simples[mu]), dualize(h, h.standards[lam]), bound
                )
                check(direct == swapped, "duality does not preserve Ext dimensions")

    def record(n: int, lam: str, mu: str, i: int, what: str) -> None:
        nonlocal kl, skl
        skl = False
        if i == 0:
            kl = False
        failures.append(
            f"Ext^{n}({what}) breaks parity: expected "
            f"{(lengths[lam] - lengths[mu] + i) % 2} mod 2"
        )

    for lam in h.poset.elements:
        delta = h.standards[lam]
        series = radical_series(delta)
        for i in range(len(series) - 1):
            layer = delta if i == 0 else filtration_slice(delta, i)
            for mu in h.poset.elements:
                for n, d in enumerate(ext_groups(layer, h.simples[mu], bound)):
                    if d and (n - lengths[lam] + lengths[mu] - i) % 2:
                        record(n, lam, mu, i, f"rad^{i} standard {lam!r}, simple {mu!r}")
        nabla = h.costandards[lam]
        socs = socle_series(nabla)
        for i in range(len(socs) - 1):
            piece = nabla if i == 0 else quotient_rep(nabla, socs[i])[0]
            for mu in h.poset.elements:
                for n, d in enumerate(ext_groups(h.simples[mu], piece, bound)):
                    if d and (n - lengths[lam] + lengths[mu] - i) % 2:
                        record(n, lam, mu, i, f"simple {mu!r}, costandard {lam!r} mod soc_{i}")

    graded_kl: bool | None = None
    if not tight_grading_check(h.algebra).passed:
        failures.append("graded parity skipped: the algebra is not tightly graded")
    else:
        graded_kl = True
        sides = (
            (gr_algebra(h.algebra), h.standards, "standard"),
            (gr_algebra(h.op_algebra), h.op_standards, "opposite standard"),
        )
        for ga, standards, label in sides:
            for lam in h.poset.elements:
                res = graded_minimal_resolution(gr_rep(standards[lam], ga), bound)
                for n, heads in enumerate(res.heads):
                    for mu, g in heads:
                        if g != n or (n - lengths[lam] + lengths[mu]) % 2:
                            graded_kl = False
                            failures.append(
                                f"graded resolution of the {label} at {lam!r}: "
                                f"degree-{n} summand at {mu!r} generated in grade {g}"
                            )
    check(kl or not skl, "strong parity cannot hold where plain parity fails")
    return ParityReport(kl, skl, graded_kl, bound, exact, duality_used, failures)


# -- category polynomials and the Yoneda dual ------------------------------------------


def _category_polys(standards: dict[str, Representation],
                    simples: dict[str, Representation],
                    lengths: dict[str, int], bound: int) -> dict:
    """Polynomials (as exponent -> coefficient maps) recording Ext from the
    standards into the simples, centered so degree 0 carries Ext^(l(lam)-l(nu))."""
    polys = {}
    for nu in standards:
        for lam in simples:
            groups = ext_groups(standards[nu], simples[lam], bound)
            entries = {
                lengths[lam] - lengths[nu] - n: d for n, d in enumerate(groups) if d
            }
            if entries:
                polys[(nu, lam)] = entries
    return polys


@dataclass
class KlDualReport:
    polynomials: dict[tuple[str, str], dict[int, int]]
    dual_total_dim: int
    dual_degree_dims: list[int]
    gr_dual_degree_dims: list[int]
    duals_match: bool
    bound: int
    exact_bound: bool


def category_kl_and_dual(h: HighestWeightStructure, lengths: dict[str, int]) -> KlDualReport:
    """Ext polynomials of the standards and the Yoneda algebra dimensions.

    The Yoneda dual dimensions count Ext^n summed over all pairs of simples;
    the same count over gr A is reported next to it, with duals_match set
    when the two graded dimension vectors agree degree by degree.
    """
    missing = [v for v in h.poset.elements if v not in lengths]
    if missing:
        raise InputFormatError(f"length function missing weights: {missing}")
    bound, exact = _global_dimension(h.algebra)
    polys = _category_polys(h.standards, h.simples, lengths, bound)

    def degree_dims(algebra: FiniteDimAlgebra, cap: int) -> list[int]:
        simples = {v: simple_rep(algebra, v) for v in algebra.presentation.vertices}
        out = [0] * (cap + 1)
        for lam in simples:
            for mu in simples:
                for n, d in enumerate(ext_groups(simples[lam], simples[mu], cap)):
                    out[n] += d
        while out and not out[-1]:
            out.pop()
        return out

    dual_dims = degree_dims(h.algebra, bound)
    ga = gr_algebra(h.algebra)
    gr_bound, gr_exact = _global_dimension(ga.algebra)
    gr_dual_dims = degree_dims(ga.algebra, gr_bound)
    return KlDualReport(
        polys, sum(dual_dims), dual_dims, gr_dual_dims,
        dual_dims == gr_dual_dims, bound, exact and gr_exact,
    )


# -- the hypothesis-to-conclusion pipeline ---------------------------------------------


@dataclass
class PairHypothesisReport:
    ambient_qha: bool
    sub_tight: bool
    sub_normal: bool
    radical_generation: bool
    degree_zero_semisimple: bool
    passed: bool


@dataclass
class RestrictionHypothesisReport:
    projectives_restrict: dict[str, bool]
    resolution_terms_restrict: dict[str, bool]
    bound: int
    exact_bound: bool
    passed: bool


@dataclass
class GradedQuasiHereditaryReport:
    implied: bool
    gr_qha: bool
    standards_match: bool
    standards_restrict_iso: dict[str, bool] | None
    holds: bool


@dataclass
class ParityTransferReport:
    implied: bool
    duality_available: bool
    sub_koszul: bool | None
    kl: bool
    skl_prime: bool
    holds: bool


@dataclass
class GradedTransferReport:
    implied: bool
    graded_kl: bool | None
    gr_koszul: bool | None
    standards_linear: bool
    polynomials_match: bool
    holds: bool | None


@dataclass
class KoszulPipelineReport:
    truncation_sub_koszul: bool | None  # the subalgebra's image in the truncation
    radical_generation: bool
    regular_restricts: bool
    implied: bool
    gr_koszul: bool | None


@dataclass
class PipelineReport:
    pair: PairHypothesisReport
    restriction: RestrictionHypothesisReport
    graded_structure: GradedQuasiHereditaryReport
    parity_transfer: ParityTransferReport
    graded_transfer: GradedTransferReport
    koszul_pipeline: KoszulPipelineReport
    notes: list[str]


def _tight_with_idempotent_degree_zero(emb: SubalgebraEmbedding) -> bool:
    """Is the subalgebra tightly graded with its degree-0 part inside the span
    of the ambient vertex idempotents (so semisimple)?"""
    tight, grades, _ = tight_subalgebra_check(emb)
    ambient = emb.ambient
    idempotents = Subspace(ambient.field, ambient.dim, [
        ambient.basis_vector(i) for i in ambient.vertex_index.values()])
    return tight and all(idempotents.contains(row)
                         for row, g in zip(emb.space.sparse_rows, grades) if g == 0)


def _sub_koszul_verdict(emb: SubalgebraEmbedding, notes: list[str],
                        where: str) -> bool | None:
    if not _tight_with_idempotent_degree_zero(emb):
        notes.append(
            f"Koszulity of the subalgebra {where} not evaluated: no tight "
            "grading with semisimple degree 0"
        )
        return None
    return koszul_check(emb.as_algebra()[0]).verdict


def pipeline_checks(h: HighestWeightStructure, sub: SubalgebraEmbedding,
                    gamma: list[str] | None = None) -> PipelineReport:
    """Verify the hypotheses and the conclusions of the transfer results on a
    concrete instance: the pair (algebra, subalgebra), its truncation to the
    weight ideal gamma, the graded quasi-heredity of gr, the parity and
    Koszulity transfers.  Each conclusion is tested directly; when its
    hypotheses hold and the conclusion fails, an InternalCheckError is
    raised, since that would be a counterexample, not a report entry.
    """
    require(h.poset.length is not None,
            "pipeline checks need a length function on the weight poset")
    require(sub.ambient is h.algebra,
            "the subalgebra must embed into the structure's algebra")
    algebra = h.algebra
    f = algebra.field
    notes: list[str] = []
    trunc = _truncation(h, list(h.poset.elements) if gamma is None else gamma)
    hb = trunc.structure
    kept = trunc.kept
    lengths = {v: h.poset.length[v] for v in kept}

    # hypotheses on the pair (ambient algebra, subalgebra)
    ambient_qha = qha_check(h).passed
    sub_tight, _, tight_failures = tight_subalgebra_check(sub)
    notes.extend(tight_failures)
    sub_normal = sub.is_normal()
    radgen = radical_generation_check(sub).generates
    degree_zero = _tight_with_idempotent_degree_zero(sub)
    pair = PairHypothesisReport(
        ambient_qha, sub_tight, sub_normal, radgen, degree_zero,
        passed=ambient_qha and sub_tight and sub_normal and radgen and degree_zero,
    )

    # projectivity over the subalgebra, for the covers and resolution terms
    bound, exact = _global_dimension(hb.algebra)
    if not exact:
        notes.append(
            f"global dimension of the truncation not reached within {bound}; "
            "homological sweeps are bounded"
        )
    projectives_restrict = {v: restricts_projectively(h.projectives[v], sub) for v in kept}
    resolution_restrict = {}
    for nu in kept:
        if bound <= 1:
            resolution_restrict[nu] = True
            continue
        res = minimal_resolution(h.simples[nu], bound - 2)
        needed = sorted({w for vs in res.summand_vertices for w in vs})
        resolution_restrict[nu] = all(restricts_projectively(h.projectives[w], sub)
                                      for w in needed)
    restriction = RestrictionHypothesisReport(
        projectives_restrict, resolution_restrict, bound, exact,
        passed=pair.passed
        and all(projectives_restrict.values())
        and all(resolution_restrict.values()),
    )

    sub_koszul = _sub_koszul_verdict(sub, notes, "of the ambient algebra")

    # graded quasi-heredity of the truncation
    gb = gr_algebra(hb.algebra)
    h_grb = standard_modules(gb.algebra, hb.poset)
    gr_qha = qha_check(h_grb).passed
    standards_match = True
    for lam in kept:
        expected = gr_rep(hb.standards[lam], gb)
        ok, _ = is_isomorphic(h_grb.standards[lam], expected.rep)
        if not ok:
            standards_match = False
            notes.append(f"gr standard at {lam!r} differs from the standard over gr")
    restrict_iso = None
    if pair.passed:
        restrict_iso = {
            lam: restrict_iso_check(h.standards[lam], sub).restriction_iso_gr
            for lam in kept
        }
    gq_implied = pair.passed and all(projectives_restrict.values())
    graded_structure = GradedQuasiHereditaryReport(
        gq_implied, gr_qha, standards_match, restrict_iso,
        holds=gr_qha and standards_match,
    )
    if gq_implied:
        check(graded_structure.holds,
              "graded quasi-heredity fails although its hypotheses hold")
        check(restrict_iso is not None and all(restrict_iso.values()),
              "a standard module restriction is not gradable although the "
              "hypotheses hold")

    # parity transfer to the truncation
    par_b = parity_checks(hb, lengths)
    duality_available = hb.duality is not None or h.duality is not None
    pt_implied = (restriction.passed and duality_available
                  and sub_koszul is True and par_b.kl)
    parity_transfer = ParityTransferReport(
        pt_implied, duality_available, sub_koszul, par_b.kl, par_b.skl_prime,
        holds=par_b.skl_prime,
    )
    if pt_implied:
        check(par_b.skl_prime,
              "strong parity fails although the transfer hypotheses hold")

    # graded consequences over gr of the truncation
    par_grb = parity_checks(h_grb, lengths)
    gr_koszul = koszul_check(gb.algebra).verdict
    standards_linear = True
    for lam in kept:
        res = graded_minimal_resolution(gr_rep(hb.standards[lam], gb), bound)
        for n, gens in enumerate(res.generation):
            if any(g != n for g in gens):
                standards_linear = False
    polys_b = _category_polys(hb.standards, hb.simples, lengths, bound)
    polys_gr = _category_polys(h_grb.standards, h_grb.simples, lengths, bound)
    polynomials_match = polys_b == polys_gr
    parts_ok = (par_grb.graded_kl is True) and standards_linear and polynomials_match
    if gr_koszul is None and parts_ok:
        gt_holds: bool | None = None
        notes.append("gr Koszulity verdict open within the search bound")
    else:
        gt_holds = parts_ok and gr_koszul is True
    graded_transfer = GradedTransferReport(
        pt_implied, par_grb.graded_kl, gr_koszul, standards_linear,
        polynomials_match, gt_holds,
    )
    if pt_implied:
        check(gt_holds is not False,
              "graded consequences fail although the transfer hypotheses hold")

    # the elementary Koszulity pipeline over the truncation
    if trunc.full:
        bsub = sub
        bsub_koszul = sub_koszul
    else:
        image = [_push(f.char, trunc.proj_coords, row) for row in sub.space.sparse_rows]
        bsub = SubalgebraEmbedding(hb.algebra, Subspace(f, hb.algebra.dim, image))
        bsub_koszul = _sub_koszul_verdict(bsub, notes, "of the truncation")
    radgen_b = radical_generation_check(bsub).generates
    regular = direct_sum(*[hb.projectives[v] for v in kept])
    regular_restricts = restricts_projectively(regular, bsub)
    kp_implied = bsub_koszul is True and radgen_b and regular_restricts
    koszul_pipeline = KoszulPipelineReport(
        bsub_koszul, radgen_b, regular_restricts, kp_implied, gr_koszul,
    )
    if kp_implied:
        check(gr_koszul is not False,
              "gr of the truncation is not Koszul although the elementary "
              "pipeline hypotheses hold")
    return PipelineReport(
        pair, restriction, graded_structure, parity_transfer,
        graded_transfer, koszul_pipeline, notes,
    )
