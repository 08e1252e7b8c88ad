"""Quiver representations: filtrations, gr, covers, resolutions, Ext.

Modules are right modules matching the path conventions of algebra_core:
an arrow a: u -> v acts by sparse columns, one per basis vector of the
vertex-u block, each its image in the vertex-v block as a {row: scalar}
dict of nonzero entries (read as a matrix, shape dims[v] x dims[u]), and
a path acts by applying its arrows in traversal order, so m.(p*q) =
(m.p).q.  Vectors live in a flat total space with blocks ordered by the
algebra's vertex list, sparse ones as {coordinate: scalar} dicts; inside
P(v) the basis paths keep the algebra's basis order.

A module map (cover, syzygy inclusion, quotient projection, resolution map,
homomorphism) is its sparse columns: the image of each source basis vector
in the target.

Module gradings are recorded as one grade per coordinate of each vertex
block.  gr M is graded by radical layers with the head in grade 0; the
shift M(r) has M(r)_n = M_{n-r}, so it adds r to every grade.
"""

from dataclasses import dataclass
from itertools import islice, product as iter_product

from .errors import InputFormatError, PreconditionError, check, require
from .exactlin import (
    FieldSpec,
    MatrixExact,
    Subspace,
    echelon,
    intersect_spaces,
    rank_kernel,
    row_space,
    _add_multiple,
    _dense_row,
    _push,
)
from .algebra_core import (
    FiniteDimAlgebra,
    GradedAlgebra,
    SubalgebraEmbedding,
    gr_algebra,
    radical_generation_check,
    tight_grading_check,
    tight_subalgebra_check,
)

# Hard ceiling on the number of determinant evaluations (each a rank test,
# see `_invertible_combination`) one isomorphism search may spend; beyond it
# the instance is not desk-scale.
ISO_SEARCH_CAP = 200_000


@dataclass(eq=False)
class Representation:
    """A right module over a path algebra, stored blockwise by vertex.

    columns[a] lists, for an arrow a: u -> v, the image x.a of each basis
    vector x of the vertex-u block, as a sparse vector {row: scalar} of the
    nonzero entries in the vertex-v block.  Columns are never changed after
    construction, so modules may share them.
    """

    algebra: FiniteDimAlgebra
    dims: dict[str, int]
    columns: dict[str, list[dict]]

    def __post_init__(self):
        self._cache: dict = {}
        # the block layout; dims is never changed after construction
        self._offsets: dict[str, int] = {}
        total = 0
        for v in self.vertices:
            self._offsets[v] = total
            total += self.dims[v]
        self.total_dim = total

    @property
    def vertices(self) -> list[str]:
        return self.algebra.presentation.vertices

    @property
    def action(self) -> dict[str, MatrixExact]:
        """Each arrow's block as a dense matrix of shape (dims[v] x dims[u]),
        built from `columns` on each read: a view, never stored."""
        f, dims = self.algebra.field, self.dims
        return {name: MatrixExact.trusted(f, [_dense_row(row, dims[src]) for row
                                              in _sparse_rows(self.columns[name], dims[dst])],
                                          dims[src])
                for name, src, dst in self.algebra.presentation.arrows}

    def offset(self, vertex: str) -> int:
        try:
            return self._offsets[vertex]
        except KeyError:
            raise InputFormatError(f"unknown vertex {vertex!r}") from None

    def place(self, vertex: str, block: dict) -> dict:
        """The sparse total-space vector with the sparse block at the vertex."""
        start = self.offset(vertex)
        return {start + j: x for j, x in block.items()} if start else block

    def block(self, vec: dict, vertex: str) -> dict:
        """The sparse block at the vertex of a sparse total-space vector."""
        start = self.offset(vertex)
        end = start + self.dims[vertex]
        return {j - start: x for j, x in vec.items() if start <= j < end}

    def act(self, name: str, vec: dict) -> dict:
        """x.a for a sparse block vector x at the arrow's source, a sparse
        block vector at its target."""
        return _push(self.algebra.field.char, self.columns[name], vec)

    def act_element(self, element: dict, vec: dict) -> dict:
        """x.c for a sparse total-space vector x and a sparse algebra element
        c ({basis index: scalar}): the idempotent e_v keeps the block of v,
        and a path walks `act` from its source block to its target block."""
        char, basis, out, blocks = self.algebra.field.char, self.algebra.basis, {}, {}
        for i, c in element.items():
            bp = basis[i]
            if bp.src not in blocks:
                blocks[bp.src] = self.block(vec, bp.src)
            img = blocks[bp.src]
            for name in bp.arrows:
                img = self.act(name, img)
            _add_multiple(char, out, c, self.place(bp.dst, img))
        return out

    def path_images(self, vertex: str, block_vec: dict) -> dict[int, dict]:
        """x.p for x = block_vec, a sparse block vector at the vertex, and
        every basis path p from it, as {basis index: sparse block vector at
        the end of p}, in basis order.  The basis lists each path's prefix
        before it (`build_algebra` grows it by length), so each image is one
        `act` step from the prefix's by the last arrow."""
        images, out = {}, {}
        for i, bp in enumerate(self.algebra.basis):
            if bp.src == vertex:
                p = bp.arrows
                out[i] = images[p] = self.act(p[-1], images[p[:-1]]) if p else block_vec
        return out


def _sparse_rows(columns: list[dict], nrows: int) -> list[dict]:
    """The sparse rows of the matrix with these sparse columns: its
    transpose, by columns."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return rows


def make_representation(algebra: FiniteDimAlgebra, dims: dict[str, int],
                        columns: dict[str, list[dict]]) -> Representation:
    """Validate shapes and relations, then build the representation.

    columns[a] holds one sparse column {row: scalar} per coordinate of the
    source block of a (see `Representation`); its scalars are canonicalised
    here.  A relation holds when each basis vector of its source block,
    walked along the relation's paths by `act`, sums to zero.
    """
    pres = algebra.presentation
    f = algebra.field
    full_dims = {}
    for v in pres.vertices:
        d = dims.get(v, 0)
        if d < 0:
            raise InputFormatError(f"negative dimension at vertex {v!r}")
        full_dims[v] = d
    checked = {}
    for name, src, dst in pres.arrows:
        cols = columns.get(name)
        if cols is None:
            raise InputFormatError(f"missing action matrix for arrow {name!r}")
        rows = range(full_dims[dst])
        bad = next((i for col in cols for i in col if i not in rows), None)
        if len(cols) != full_dims[src] or bad is not None:
            got = f"{len(cols)} columns" if len(cols) != full_dims[src] else f"row index {bad!r}"
            raise InputFormatError(
                f"arrow {name!r} needs shape ({full_dims[dst]}, {full_dims[src]}), got {got}")
        checked[name] = [{i: x for i, x in zip(col, map(f.coerce, col.values())) if x}
                         for col in cols]
    rep = Representation(algebra, full_dims, checked)
    for rel in pres.relations:
        terms = [(f.coerce(c), path) for c, path in rel]
        for j in range(full_dims[pres.path_endpoints(rel[0][1])[0]]):
            acc = {}
            for c, path in terms:
                img = {j: f.one}
                for name in path:
                    img = rep.act(name, img)
                _add_multiple(f.char, acc, c, img)
            if acc:
                raise InputFormatError("action does not satisfy a defining relation")
    return rep


def zero_rep(algebra: FiniteDimAlgebra) -> Representation:
    dims = {v: 0 for v in algebra.presentation.vertices}
    return Representation(algebra, dims, {name: [] for name, _, _ in algebra.presentation.arrows})


def simple_rep(algebra: FiniteDimAlgebra, vertex: str) -> Representation:
    if vertex not in algebra.presentation.vertices:
        raise InputFormatError(f"unknown vertex {vertex!r}")
    dims = {v: 1 if v == vertex else 0 for v in algebra.presentation.vertices}
    columns = {name: [{} for _ in range(dims[src])]
               for name, src, _ in algebra.presentation.arrows}
    return Representation(algebra, dims, columns)


def projective_rep(algebra: FiniteDimAlgebra, vertex: str) -> Representation:
    """P(vertex): basis is the normal paths starting at the vertex."""
    if vertex not in algebra.presentation.vertices:
        raise InputFormatError(f"unknown vertex {vertex!r}")
    per_vertex: dict[str, list[int]] = {v: [] for v in algebra.presentation.vertices}
    for i, bp in enumerate(algebra.basis):
        if bp.src == vertex:
            per_vertex[bp.dst].append(i)
    dims = {v: len(per_vertex[v]) for v in algebra.presentation.vertices}
    columns = {}
    for name, src, dst in algebra.presentation.arrows:
        # column i is the product of basis path i with the arrow
        arrow_idx = algebra.arrow_index[name]
        position = {k: r for r, k in enumerate(per_vertex[dst])}
        columns[name] = [{position[k]: c for k, c in algebra.mult_basis(i, arrow_idx).items()}
                         for i in per_vertex[src]]
    return Representation(algebra, dims, columns)


def direct_sum(*reps: Representation) -> Representation:
    require(len(reps) >= 1, "direct sum needs at least one summand")
    algebra = reps[0].algebra
    for r in reps:
        require(r.algebra is algebra, "direct sum needs modules over one algebra")
    dims = {v: sum(r.dims[v] for r in reps) for v in algebra.presentation.vertices}
    columns = {}
    for name, _, dst in algebra.presentation.arrows:
        # the summands' columns, each moved down by the blocks before it
        ro = 0
        columns[name] = []
        for r in reps:
            columns[name] += [{ro + i: x for i, x in col.items()} for col in r.columns[name]]
            ro += r.dims[dst]
    return Representation(algebra, dims, columns)


def dual_rep(rep: Representation, op_algebra: FiniteDimAlgebra) -> Representation:
    """The dual space as a module over the opposite algebra.

    op_algebra must present the reversed quiver with the same arrow names
    (the opposite_algebra output); each arrow then acts by the transpose,
    whose columns are the sparse rows of the arrow's block.
    """
    columns = {name: _sparse_rows(rep.columns[name], rep.dims[dst])
               for name, _, dst in rep.algebra.presentation.arrows}
    return make_representation(op_algebra, dict(rep.dims), columns)


# -- submodules and quotients ---------------------------------------------------------


def _split_rows_by_vertex(rep: Representation, rows) -> dict[str, Subspace]:
    """Split a subspace's spanning rows into per-vertex block subspaces.

    rows is a list of spanning rows, eliminated here once, or a `Subspace`
    that already holds their canonical RREF, taken as it is.

    The span W must be closed under the vertex idempotents e_v, which holds
    exactly when every row of its canonical RREF lies inside one vertex block:
    - if W is closed, it is the direct sum of the W e_v, and the union of
      their RREFs is a reduced echelon basis of W (rows of different blocks
      share no column), so by uniqueness it is the RREF of W;
    - if every RREF row lies in one block, w e_v is the combination of the
      block-v rows with w's coefficients, so it lies in W.
    A row lies in the block of its pivot iff it is zero past that block's
    end; cut to the block, those rows are the canonical RREF of W e_v.
    """
    f = rep.algebra.field
    span = rows if isinstance(rows, Subspace) else Subspace(f, rep.total_dim, rows)
    out: dict[str, Subspace] = {}
    pivots, at = span.pivots, 0  # RREF rows are sorted by pivot, blocks by vertex
    for v in rep.vertices:
        start = rep.offset(v)
        end = start + rep.dims[v]
        block_rows, block_pivots = [], []
        while at < len(pivots) and pivots[at] < end:
            row = span.rref[pivots[at]]
            if max(row) >= end:
                raise InputFormatError("rows are not closed under the vertex idempotents")
            block_rows.append({j - start: x for j, x in row.items()} if start else row)
            block_pivots.append(pivots[at] - start)
            at += 1
        out[v] = Subspace.from_rref(f, rep.dims[v], block_rows, block_pivots)
    return out


def sub_rep(rep: Representation, rows) -> tuple[Representation, list[dict]]:
    """The submodule spanned by the given total-space rows (or `Subspace`,
    see `_split_rows_by_vertex`).

    Returns (S, incl) with incl the columns (dim M rows, one per basis
    vector of S) embedding the chosen basis of S back into M.  Rows not
    closed under the action are an input error.
    """
    per_vertex = _split_rows_by_vertex(rep, rows)
    dims = {v: len(per_vertex[v]) for v in rep.vertices}
    columns = {}
    for name, src, dst in rep.algebra.presentation.arrows:
        # each block basis is an RREF, so its pivot entries also prove membership
        basis, target = per_vertex[src], per_vertex[dst]
        position = {p: i for i, p in enumerate(target.pivots)}
        columns[name] = cols = []
        for p in basis.pivots:
            coords = target.pivot_entries(rep.act(name, basis.rref[p]))
            if coords is None:
                raise InputFormatError("rows do not span an action-closed subspace")
            cols.append({position[q]: x for q, x in coords.items()})
    sub = Representation(rep.algebra, dims, columns)
    return sub, [rep.place(v, per_vertex[v].rref[p]) for v in rep.vertices
                 for p in per_vertex[v].pivots]


def quotient_rep(rep: Representation, rows) -> tuple[Representation, list[dict]]:
    """The quotient by the submodule spanned by rows, dense lists or sparse
    dicts (or a `Subspace`, see `_split_rows_by_vertex`).

    Returns (Q, proj) with proj the columns (dim Q rows, one per basis
    vector of M) of the projection.
    """
    f = rep.algebra.field
    per_vertex = _split_rows_by_vertex(rep, rows)
    for name, src, dst in rep.algebra.presentation.arrows:
        for row in per_vertex[src].rref.values():
            if per_vertex[dst].pivot_entries(rep.act(name, row)) is None:
                raise InputFormatError("rows do not span an action-closed subspace")
    free = {
        v: [j for j in range(rep.dims[v]) if j not in per_vertex[v].pivots]
        for v in rep.vertices
    }
    qdims = {v: len(free[v]) for v in rep.vertices}

    position = {v: {j: k for k, j in enumerate(free[v])} for v in rep.vertices}

    def project(v, block_vec):
        """The quotient coordinates of a sparse block vector at v, sparse:
        its residual is 0 at every pivot, so it lives on free[v]."""
        return {position[v][j]: x for j, x in per_vertex[v].reduce(block_vec).items()}

    # the quotient basis at src is the images of the units at free[src]
    columns = {name: [project(dst, rep.columns[name][j]) for j in free[src]]
               for name, src, dst in rep.algebra.presentation.arrows}
    quot = Representation(rep.algebra, qdims, columns)
    return quot, [quot.place(v, project(v, {j: f.one}))
                  for v in rep.vertices for j in range(rep.dims[v])]


# -- radical and socle filtrations ----------------------------------------------------


def radical_space(rep: Representation) -> Subspace:
    """M rad A, the sum of the arrow images, as the canonical RREF."""
    return Subspace(rep.algebra.field, rep.total_dim, (
        rep.place(dst, col) for name, _, dst in rep.algebra.presentation.arrows
        for col in rep.columns[name]))


def radical_series(rep: Representation) -> list[Subspace]:
    """[M, rad M, rad^2 M, ..., 0].

    Every term is a canonical RREF, so two chains are equal exactly when
    their terms are.  Kept in the module's `_cache`: each call returns a new
    list of the same terms, which callers must not grow (grow a `copy`).
    """
    if "radical series" in rep._cache:
        return list(rep._cache["radical series"])
    series = [Subspace.whole(rep.algebra.field, rep.total_dim)]
    while series[-1]:
        # rad^(k+1) M is spanned by the arrow images of rad^k M, as x.a.p =
        # (x.a.p').b for a path p = p'b
        current, split = series[-1], _split_rows_by_vertex(rep, series[-1])
        nxt = Subspace(rep.algebra.field, rep.total_dim, (
            rep.place(dst, rep.act(name, row)) for name, src, dst in rep.algebra.presentation.arrows
            for row in split[src].rref.values()))
        check(len(nxt) < len(current), "radical series stalled: action not nilpotent")
        series.append(nxt)
    rep._cache["radical series"] = series
    return list(series)


def socle_series(rep: Representation) -> list[Subspace]:
    """[0, soc M, soc_2 M, ..., M]."""
    f = rep.algebra.field
    n = rep.total_dim
    series = [Subspace(f, n)]
    while len(series[-1]) < n:
        current = series[-1]
        # rows of the maps x -> (x.a mod current term), stacked over arrows a;
        # the image of the unit at coordinate j of the source block is column
        # j of a's block, and the units of the other blocks map to zero
        stacked = []
        for name, src, dst in rep.algebra.presentation.arrows:
            cols = [{} for _ in range(n)]
            for j, col in enumerate(rep.columns[name], rep.offset(src)):
                cols[j] = current.reduce(rep.place(dst, col))
            stacked += _sparse_rows(cols, n)
        # the kernel rows of rank_kernel are already its canonical RREF (with
        # no rows, the unit vectors of the whole space)
        nxt = Subspace.from_rref(f, n, rank_kernel(f, stacked, n)[1])
        check(len(nxt) > len(current), "socle series stalled: action not nilpotent")
        series.append(nxt)
    return series


def layer_dims(rep: Representation) -> list[dict[str, int]]:
    """Per-vertex dimensions of the layers rad^n M / rad^(n+1) M."""
    series = radical_series(rep)
    out = []
    for top, bot in zip(series, series[1:]):
        split_top = _split_rows_by_vertex(rep, top)
        split_bot = _split_rows_by_vertex(rep, bot)
        out.append({v: len(split_top[v]) - len(split_bot[v]) for v in rep.vertices})
    return out


def head_multiplicities(rep: Representation) -> dict[str, int]:
    """Per-vertex dimensions of the head M / M rad A (the top layer only)."""
    rad = _split_rows_by_vertex(rep, radical_space(rep))
    return {v: rep.dims[v] - len(rad[v]) for v in rep.vertices}


def filtration_slice(rep: Representation, r: int, s: int | None = None) -> Representation:
    """rad^r M / rad^s M; s = None means rad^r M itself."""
    require(r >= 0, "filtration needs r >= 0")
    require(s is None or s >= r, "filtration needs r <= s")
    series = radical_series(rep)

    def term(k):
        return series[min(k, len(series) - 1)]

    sub, _ = sub_rep(rep, term(r))
    if s is None or not term(s):
        return sub
    # re-express the lower power inside the sub coordinates: the basis of sub
    # is the RREF of rad^r M split by vertex, so in the order of its pivots
    position = {p: k for k, p in enumerate(term(r).pivots)}
    inner = []
    for p in term(s).pivots:
        coords = term(r).pivot_entries(term(s).rref[p])
        check(coords is not None, "radical powers are not nested")
        inner.append({position[q]: x for q, x in coords.items()})
    quot, _ = quotient_rep(sub, inner)
    return quot


# -- graded modules -------------------------------------------------------------------


@dataclass(eq=False)
class GradedRepresentation:
    """A representation with one grade per coordinate of each vertex block."""

    rep: Representation
    grades: dict[str, list[int]]

    def __post_init__(self):
        for v in self.rep.vertices:
            if len(self.grades.get(v, [])) != self.rep.dims[v]:
                raise InputFormatError(f"grade list at vertex {v!r} has wrong length")
        for name, src, dst in self.rep.algebra.presentation.arrows:
            for j, col in enumerate(self.rep.columns[name]):
                if any(self.grades[dst][i] != self.grades[src][j] + 1 for i in col):
                    raise InputFormatError(f"arrow {name!r} does not raise grades by one")

    def piece_dims(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {}
        for v in self.rep.vertices:
            for g in self.grades[v]:
                out.setdefault(g, {u: 0 for u in self.rep.vertices})[v] += 1
        return out

    def shift(self, r: int) -> "GradedRepresentation":
        return GradedRepresentation(
            self.rep, {v: [g + r for g in gs] for v, gs in self.grades.items()}
        )


def grade_zero_graded(rep: Representation) -> GradedRepresentation:
    """The trivial grading; valid only when no arrow acts (semisimple M)."""
    return GradedRepresentation(rep, {v: [0] * rep.dims[v] for v in rep.vertices})


class _Slices:
    """Graded coordinates for a chain V_0 >= V_1 >= ... >= V_L = 0 in field^n.

    `pieces` lists (g, row) in flat order, grade by grade: the sparse rows
    of V_g that complete V_(g+1) to it (shared with the chain: read only).
    vector(g, vec) writes a sparse vector of V_g by its slice-g coordinates
    modulo V_(g+1), sparse too, placed at their flat positions; one
    reduction against V_(g+1) and the slice rows finds them, each slice row
    carrying a unit tag that collects its coefficient.
    """

    def __init__(self, field: FieldSpec, n: int, chain: list[Subspace]):
        self.field = field
        self.n = n
        self.pieces: list[tuple[int, dict]] = []
        self._starts: list[int] = []
        self._tagged: list[Subspace] = []
        for g in range(len(chain) - 1):
            below = chain[g + 1]
            grown = below.copy()
            rows = [cand for cand in chain[g].sparse_rows if grown.add(cand)]
            self._starts.append(len(self.pieces))
            self.pieces += [(g, r) for r in rows]
            # V_(g+1), its sparse rows read in the wider space, is already in
            # RREF; the rows join it, each tagged with a unit of its own
            tagged = Subspace.from_rref(field, n + len(rows), below.sparse_rows, below.pivots)
            for k, r in enumerate(rows):
                tagged.add({**r, n + k: field.one})
            self._tagged.append(tagged)
        self.grades = [g for g, _ in self.pieces]

    def vector(self, g: int, vec: dict) -> dict:
        if g >= len(self._tagged):
            check(not vec, "filtration image escaped the expected layer")
            return {}
        n, neg = self.n, self.field.neg
        red = self._tagged[g].reduce(vec)
        check(min(red, default=n) >= n, "filtration image escaped the expected layer")
        start = self._starts[g] - n
        return {start + j: neg(x) for j, x in red.items()}


def _slice_data(rep: Representation, series: list[Subspace]) -> dict[str, _Slices]:
    """Graded coordinates of each vertex block for a decreasing chain of submodules."""
    f = rep.algebra.field
    splits = [_split_rows_by_vertex(rep, term) for term in series]
    return {v: _Slices(f, rep.dims[v], [s[v] for s in splits]) for v in rep.vertices}


def _gr_from_series(rep: Representation, target: FiniteDimAlgebra, lift,
                    series: list[Subspace]) -> GradedRepresentation:
    """gr of rep along a decreasing chain of submodules, as a module over
    target; make_representation checks target's relations.

    lift(name, x) is x times a lift of target's arrow, for sparse vectors
    of rep's total space; the lift sends slice g into slice g + 1.
    """
    check(
        target.presentation.vertices == rep.algebra.presentation.vertices,
        "graded algebra has a different vertex set",
    )
    slices = _slice_data(rep, series)
    dims = {v: len(slices[v].pieces) for v in rep.vertices}
    columns = {}
    for name, src, dst in target.presentation.arrows:
        columns[name] = []
        for g, brow in slices[src].pieces:
            img = rep.block(lift(name, rep.place(src, brow)), dst)
            columns[name].append(slices[dst].vector(g + 1, img))
    out = make_representation(target, dims, columns)
    return GradedRepresentation(out, {v: slices[v].grades for v in rep.vertices})


def _lift(rep: Representation, graded: GradedAlgebra):
    """A gr arrow's action through its representative in the filtered algebra."""
    return lambda name, vec: rep.act_element(graded.arrow_reps[name], vec)


def gr_rep(rep: Representation, graded: GradedAlgebra) -> GradedRepresentation:
    """gr M = sum of rad^n M / rad^(n+1) M over the associated graded algebra."""
    return _gr_from_series(rep, graded.algebra, _lift(rep, graded), radical_series(rep))


def gr_sharp(rep: Representation, sub_rows: list[list],
             graded: GradedAlgebra) -> GradedRepresentation:
    """gr# L for a submodule L of M: pieces (L n rad^s M)/(L n rad^(s+1) M)."""
    lspace = row_space(rep.algebra.field, sub_rows, rep.total_dim)
    sub_rep(rep, lspace)  # validates closure under the action
    series = [intersect_spaces(lspace, term) for term in radical_series(rep)]
    # drop trailing repeats so the chain is strictly decreasing to zero
    while len(series) >= 2 and len(series[-1]) == len(series[-2]):
        series.pop()
    return _gr_from_series(rep, graded.algebra, _lift(rep, graded), series)


def gr_of_surjection(m: Representation, n: Representation, proj: list[dict],
                     graded: GradedAlgebra | None = None):
    """Apply gr to a surjective module map M ->> N, given by its sparse
    columns (dim N rows, one per basis vector of M, as `quotient_rep`
    returns them).

    Returns (gr M, gr N, gr proj, surjective flag) with gr proj as its
    sparse columns, in the flat coordinates of the two graded modules.
    """
    require(m.algebra is n.algebra, "the map must connect modules over one algebra")
    f = m.algebra.field
    if len(proj) != m.total_dim or any(i not in range(n.total_dim) for col in proj for i in col):
        raise InputFormatError("map matrix has the wrong shape")
    images = [{i: x for i, x in zip(col, map(f.coerce, col.values())) if x} for col in proj]
    # proj(x.a) = proj(x).a for every arrow a and basis vector x of M
    for name in m.columns:
        arrow = m.algebra.basis_vector(m.algebra.arrow_index[name])
        for k in range(m.total_dim):
            image = _push(f.char, images, m.act_element(arrow, {k: f.one}))
            if image != n.act_element(arrow, images[k]):
                raise InputFormatError("matrix is not a module homomorphism")
    if len(Subspace(f, n.total_dim, images)) != n.total_dim:
        raise InputFormatError("map is not surjective")
    if graded is None:
        graded = gr_algebra(m.algebra)
    gm = gr_rep(m, graded)
    gn = gr_rep(n, graded)
    n_slices = _slice_data(n, radical_series(n))
    m_slices = _slice_data(m, radical_series(m))
    cols = []
    for v in m.vertices:
        for g, brow in m_slices[v].pieces:
            img = _push(f.char, images, m.place(v, brow))
            col = {}
            for u in n.vertices:
                col.update(gn.rep.place(u, n_slices[u].vector(g, n.block(img, u))))
            cols.append(col)
    return gm, gn, cols, len(Subspace(f, gn.rep.total_dim, cols)) == gn.rep.total_dim


# -- hom spaces and isomorphism -------------------------------------------------------


def hom_space(m: Representation, n: Representation) -> list[list[dict]]:
    """Basis of the module homomorphisms M -> N, each as its sparse columns
    (dim N rows, one per basis vector of M)."""
    require(m.algebra is n.algebra, "hom needs modules over the same algebra")
    f = m.algebra.field
    pos = {}
    where = []  # (row in N, column in M) of each unknown
    for v in m.vertices:
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                pos[(v, i, j)] = len(where)
                where.append((n.offset(v) + i, m.offset(v) + j))
    rows = []
    for name, src, dst in m.algebra.presentation.arrows:
        a_m = m.columns[name]
        a_n = _sparse_rows(n.columns[name], n.dims[dst])
        # F_dst a_m - a_n F_src = 0, one row per entry (i, j), over the
        # nonzero entries of column j of a_m and of row i of a_n
        for i in range(n.dims[dst]):
            for j in range(m.dims[src]):
                row = {pos[(dst, i, k)]: x for k, x in a_m[j].items()}
                _add_multiple(f.char, row, f.neg(f.one),
                              {pos[(src, k, j)]: x for k, x in a_n[i].items()})
                if row:
                    rows.append(row)
    _, sols = rank_kernel(f, rows, len(where))
    out = []
    for sol in sols:
        cols = [{} for _ in range(m.total_dim)]
        for idx, x in sol.items():
            r, c = where[idx]
            cols[c][r] = x
        out.append(cols)
    return out


def _combination(char: int, maps: list[list[dict]], coeffs: dict, width: int) -> list[dict]:
    """sum_k coeffs[k] * maps[k] for maps given by `width` sparse columns
    each and sparse coefficients {k: scalar}, over Q (char 0) or F_char."""
    return [_push(char, [h[j] for h in maps], coeffs) for j in range(width)]


def graded_hom_space(m: GradedRepresentation,
                     n: GradedRepresentation) -> dict[int, list[list[dict]]]:
    """The basis of `hom_space` split by degree, {d: the basis maps sending
    grade g into grade g + d}, as sparse columns.

    Each basis map is homogeneous: the equation of entry (i, j) of
    F a_M - a_N F involves only unknowns of degree grade_N(i) - grade_M(j) - 1,
    as arrows raise grades by one, so the system is block-diagonal by degree
    and its canonical RREF, and so `rank_kernel`'s kernel basis, is a union
    of per-degree bases.
    """
    flat_m, flat_n = ([g for v in x.rep.vertices for g in x.grades[v]] for x in (m, n))
    out: dict[int, list[list[dict]]] = {}
    for h in hom_space(m.rep, n.rep):
        degrees = {flat_n[r] - flat_m[c] for c, col in enumerate(h) for r in col}
        check(len(degrees) == 1, "hom basis vector is not homogeneous")
        out.setdefault(degrees.pop(), []).append(h)
    return out


def _invertible_combination(field: FieldSpec, homs: list[list[dict]], n: int,
                            endomorphisms):
    """Search the span of homs, maps of n sparse columns each into an
    n-dimensional space, for an invertible one; exact both ways.

    A combination is invertible when its columns span the whole space,
    which is det != 0.  det of a combination has degree <= n in each
    coefficient, so over Q a grid of n+1 integer values per coefficient
    decides whether it vanishes identically; over F_p the whole span is
    enumerated.  Either way a returned witness (its columns) is invertible
    and absence is a proof.

    endomorphisms() gives (dim End(M), dim End(N)) for homs a basis of
    Hom(M, N): M and N isomorphic forces both to be len(homs), so a
    difference refutes an isomorphism before the grid.
    """
    if n == 0:
        return []
    if not homs:
        return None
    k = len(homs)

    def invertible(cols):
        return len(Subspace(field, n, cols)) == n

    # cheap pre-pass: single basis maps, then the all-ones combination
    for cand in homs:
        if invertible(cand):
            return cand
    acc = _combination(field.char, homs, dict.fromkeys(range(k), field.one), n)
    if invertible(acc):
        return acc
    if any(d != k for d in endomorphisms()):
        return None
    if field.char == 0:
        values = range(n + 1)
        total = (n + 1) ** k
    else:
        values = range(field.char)
        total = field.char ** k
    require(
        total <= ISO_SEARCH_CAP,
        f"isomorphism search needs {total} determinant evaluations,"
        f" beyond the desk-scale cap {ISO_SEARCH_CAP}",
    )
    for coeffs in iter_product(values, repeat=k):
        if not any(coeffs):
            continue
        cand = _combination(field.char, homs, {i: c for i, c in enumerate(coeffs) if c}, n)
        if invertible(cand):
            return cand
    return None


def is_isomorphic(m: Representation, n: Representation) -> tuple[bool, list[dict] | None]:
    """Exact isomorphism test; returns an invertible witness, as its sparse
    columns, on success."""
    require(m.algebra is n.algebra, "isomorphism test needs one algebra")
    f = m.algebra.field
    identity = [{j: f.one} for j in range(m.total_dim)]
    if m is n:
        return True, identity
    if any(m.dims[v] != n.dims[v] for v in m.vertices):
        return False, None
    layers = layer_dims(m)
    if layers != layer_dims(n):
        return False, None
    if len(layers) <= 1:
        # both semisimple with matching vertex dimensions
        return True, identity
    homs = hom_space(m, n)
    witness = _invertible_combination(
        f, homs, m.total_dim, lambda: (_hom_dim(m, m), _hom_dim(n, n)))
    return (witness is not None), witness


def graded_is_isomorphic(m: GradedRepresentation, n: GradedRepresentation,
                         shift: int = 0) -> bool:
    """Is m isomorphic to n(shift) as graded modules?"""
    shifted = n.shift(shift)
    if m.piece_dims() != shifted.piece_dims():
        return False
    def ends():
        return tuple(len(graded_hom_space(x, x).get(0, [])) for x in (m, shifted))

    homs = graded_hom_space(m, shifted).get(0, [])
    return _invertible_combination(m.rep.algebra.field, homs, m.rep.total_dim, ends) is not None


# -- projective covers and minimal resolutions -----------------------------------------


@dataclass
class Cover:
    projective: Representation
    map: list[dict]  # columns: dim M rows, one per basis vector of P
    syzygy: Representation
    syzygy_inclusion: list[dict]  # columns: dim P rows, one per basis vector of Omega
    head: dict[str, int]
    generators: list[tuple[str, int]]  # (vertex, index in M) per summand, in order

    @property
    def summands(self) -> list[str]:
        """Cover-summand vertices, in order."""
        return [v for v, _ in self.generators]


def _projective_with_head(algebra: FiniteDimAlgebra, vertex: str):
    """(P(vertex), head_multiplicities(P(vertex))), built once per algebra."""
    def build():
        proj = projective_rep(algebra, vertex)
        return proj, head_multiplicities(proj)
    return algebra.memoized(("projective with head", vertex), build)


def projective_cover(rep: Representation) -> Cover:
    """P -> M with P the sum of P(v) over a head basis, kernel the syzygy.

    Surjectivity is read from the rank of the map, whose kernel (a canonical
    RREF) is the syzygy.  The head check compares sum_i head P(v_i), which
    is head P since rad P = sum_i rad P(v_i), with the head of M.
    """
    f = rep.algebra.field
    # (vertex, index) of a head basis chosen from unit vectors, vertex-major:
    # each unit outside the radical plus the units chosen before it
    grown = radical_space(rep)
    generators = [(v, j) for v in rep.vertices for j in range(rep.dims[v])
                  if grown.add(rep.place(v, {j: f.one}))]
    summands = [v for v, _ in generators]
    head = {v: summands.count(v) for v in rep.vertices}
    parts = [_projective_with_head(rep.algebra, v) for v in summands]
    proj = direct_sum(*(p for p, _ in parts)) if parts else zero_rep(rep.algebra)
    # columns follow the direct-sum layout: vertex blocks outermost, then
    # summands, then each summand's basis paths in algebra order
    images = [rep.path_images(v, {j: f.one}) for v, j in generators]
    basis, n = rep.algebra.basis, rep.total_dim
    nu = [rep.place(u, block) for u in rep.vertices for img in images
          for i, block in img.items() if basis[i].dst == u]
    rank, kernel = rank_kernel(f, _sparse_rows(nu, n), len(nu))
    check(rank == rep.total_dim, "cover map is not surjective")
    omega, incl = sub_rep(proj, Subspace.from_rref(f, proj.total_dim, kernel))
    check({v: sum(h[v] for _, h in parts) for v in rep.vertices} == head,
          "cover does not induce a head isomorphism")
    return Cover(proj, nu, omega, incl, head, generators)


@dataclass
class ResolutionData:
    """A minimal projective resolution up to a homological degree bound:
    covers[0] covers M and covers[i] the syzygy of covers[i - 1]; the terms,
    syzygies and summand vertices are read off them."""

    covers: list[Cover]
    finite: bool
    projective_dimension: int | None

    @property
    def terms(self) -> list[Representation]:
        return [c.projective for c in self.covers]

    @property
    def syzygies(self) -> list[Representation]:
        return [c.syzygy for c in self.covers]

    @property
    def summand_vertices(self) -> list[list[str]]:
        return [c.summands for c in self.covers]


def _content(rep: Representation) -> tuple:
    """The memo key of a module: dims by vertex, then the sorted entries of
    each column by arrow, so equal modules give equal keys.  Built once and
    kept in the module's `_cache`, as its dims and columns never change."""
    if "content" not in rep._cache:
        rep._cache["content"] = (tuple(rep.dims[v] for v in rep.vertices), tuple(
            tuple(tuple(sorted(col.items())) for col in rep.columns[a])
            for a, _, _ in rep.algebra.presentation.arrows))
    return rep._cache["content"]


def _cover(rep: Representation) -> Cover:
    """`projective_cover`, built and checked once per module content on the
    algebra; every cover the package reads comes from here."""
    return rep.algebra.memoized(("cover", _content(rep)), lambda: projective_cover(rep))


def minimal_resolution(rep: Representation, n_max: int) -> ResolutionData:
    """The first n_max + 1 terms of M's minimal resolution, fewer when a
    syzygy vanishes sooner; finite when the last syzygy read (M's own, with
    no term) is zero.

    Each module content has one chain on the algebra, the (memoised cover,
    map, rank of the map) of each degree, grown on demand, so every bound
    reads a prefix of it; a degree joins once checked exact.  Out of memory,
    the error names the degree and the dimension of the module being covered.
    """
    require(n_max >= 0, "resolution bound must be non-negative")
    steps = rep.algebra.memoized(("resolution", _content(rep)), list)
    while len(steps) <= n_max:
        current = steps[-1][0].syzygy if steps else rep
        if current.total_dim == 0:
            break
        try:
            cov = _cover(current)
            # each cover column pushed through the previous syzygy's inclusion
            new = [_push(rep.algebra.field.char, steps[-1][0].syzygy_inclusion, col)
                   for col in cov.map] if steps else cov.map
            steps.append((cov, new, _check_exactness(rep, steps, new)))
        except MemoryError:
            raise MemoryError(f"minimal resolution, degree {len(steps)}, "
                              f"module dimension {current.total_dim}") from None
    covers = [cov for cov, _, _ in steps[:n_max + 1]]
    finite = (covers[-1].syzygy if covers else rep).total_dim == 0
    return ResolutionData(covers, finite, len(covers) - 1 if finite else None)


def _check_exactness(rep: Representation, steps: list[tuple], new: list[dict]) -> int:
    """The rank of `new`, checked to extend the resolution in `steps`
    exactly: maps[0] is onto M, and at each interior term the maps compose
    to zero with rank(in) + rank(out) = dim, so image = kernel.  Exactness
    at P_(i-1) reads only maps[i - 1], its rank and maps[i], so each degree
    is checked once, as it joins.  The rank of maps[0] (dim M rows) is its
    pivot count under `echelon`, the elimination the benchmark's tracer
    counts, once per module; each later rank is the size of a `Subspace`
    grown from the map's columns, and each composite pushes every column of
    maps[i] through maps[i - 1]."""
    f = rep.algebra.field
    if not steps:
        n = rep.total_dim
        rank = len(echelon(MatrixExact.trusted(f, [_dense_row(c, n) for c in new], n))[1])
        check(rank == n, "resolution is not exact at the target")
        return rank
    cov, last, last_rank = steps[-1]
    rank = len(Subspace(f, cov.projective.total_dim, new))
    check(not any(_push(f.char, last, col) for col in new),
          "consecutive resolution maps do not compose to zero")
    check(rank + last_rank == cov.projective.total_dim,
          "resolution is not exact at an interior term")
    return rank


def _global_dimension(algebra: FiniteDimAlgebra) -> tuple[int, bool]:
    """(bound, exact): the global dimension when every simple has finite
    projective dimension within dim + 1 steps, else the cap with exact False."""
    cap = algebra.dim + 1
    dims = [minimal_resolution(simple_rep(algebra, v), cap).projective_dimension
            for v in algebra.presentation.vertices]
    return (cap, False) if None in dims else (max([0, *dims]), True)


def _hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N), solved once per pair of module contents on the algebra:
    the only memo that Ext reads, so every bound reads the same numbers."""
    return m.algebra.memoized(("hom dim", _content(m), _content(n)),
                              lambda: len(hom_space(m, n)))


def ext_groups(m: Representation, n: Representation, n_max: int) -> list[int]:
    """dim Ext^i(M, N) for 0 <= i <= n_max, by dimension shifting along the
    minimal resolution of M to degree n_max - 1.

    With Omega^0 = M, the sequence 0 -> Omega^i -> P_(i-1) -> Omega^(i-1) -> 0
    and Ext^1(P_(i-1), N) = 0 give dim Ext^i(M, N) = hom(Omega^i, N) -
    hom(P_(i-1), N) + hom(Omega^(i-1), N) for i >= 1, where hom(P(v), N) is
    dims[v] of N by Yoneda; past a vanishing syzygy every Ext is zero.
    """
    require(n_max >= 0, "ext needs a non-negative bound")
    require(m.algebra is n.algebra, "ext needs modules over the same algebra")
    covers = minimal_resolution(m, n_max - 1).covers if n_max else []
    homs = [_hom_dim(x, n) for x in [m] + [cov.syzygy for cov in covers]]
    out = homs[:1]
    for i, cov in enumerate(covers, 1):
        hom_p = sum(n.dims[v] for v in cov.summands)
        # Hom(Omega^(i-1), N) embeds in Hom(P_(i-1), N): P_(i-1) maps onto Omega^(i-1)
        check(homs[i - 1] <= hom_p, "hom from a module exceeds hom from its cover")
        out.append(homs[i] - hom_p + homs[i - 1])
    out += [0] * (n_max + 1 - len(out))
    check(all(x >= 0 for x in out), "negative ext dimension")
    return out


# -- graded covers and resolutions ------------------------------------------------------


def _graded_cover(grep: GradedRepresentation, cov: Cover):
    """The projective cover in the graded category, from `cov`, the cover of
    a module equal to grep's.

    Each summand P(v) is shifted so its generator sits at the grade of the
    head vector it covers; the syzygy inherits a grading, with every basis
    vector checked to be homogeneous.  Returns (heads, P, syzygy) with
    heads the (vertex, grade) of each summand's generator.
    """
    rep = grep.rep
    alg = rep.algebra
    heads = [(v, grep.grades[v][j]) for v, j in cov.generators]
    alg_grades = alg.grades()
    grades: dict[str, list[int]] = {v: [] for v in rep.vertices}
    for u in rep.vertices:
        for v, g in heads:
            for i, bp in enumerate(alg.basis):
                if bp.src == v and bp.dst == u:
                    grades[u].append(g + alg_grades[i])
    gproj = GradedRepresentation(cov.projective, grades)
    flat = [g for u in rep.vertices for g in grades[u]]
    incl_cols = iter(cov.syzygy_inclusion)
    syz_grades: dict[str, list[int]] = {v: [] for v in rep.vertices}
    for v in rep.vertices:
        for vec in islice(incl_cols, cov.syzygy.dims[v]):
            gset = {flat[k] for k in vec}
            check(len(gset) == 1, "syzygy basis vector is not homogeneous")
            syz_grades[v].append(gset.pop())
    gsyz = GradedRepresentation(cov.syzygy, syz_grades)
    return heads, gproj, gsyz


@dataclass
class GradedResolution:
    terms: list[GradedRepresentation]
    syzygies: list[GradedRepresentation]
    heads: list[list[tuple[str, int]]]  # (vertex, grade) per summand of each term
    finite: bool
    projective_dimension: int | None

    @property
    def generation(self) -> list[list[int]]:
        """The sorted head grades of each term."""
        return [sorted(g for _, g in hs) for hs in self.heads]


def graded_minimal_resolution(grep: GradedRepresentation, n_max: int) -> GradedResolution:
    """The grading that grep's grades induce, cover by cover, on
    `minimal_resolution(grep.rep, n_max)`, which is memoised and checked
    exact there; the graded terms and syzygies share its modules."""
    res = minimal_resolution(grep.rep, n_max)
    terms, syzygies, heads = [], [], []
    current = grep
    for cov in res.covers:
        term_heads, gproj, current = _graded_cover(current, cov)
        terms.append(gproj)
        syzygies.append(current)
        heads.append(term_heads)
    return GradedResolution(terms, syzygies, heads, res.finite, res.projective_dimension)


# -- Ext tables --------------------------------------------------------------------------


@dataclass
class ExtTable:
    """dim Ext^n(M, L_v) per simple and degree, with optional graded refinement.

    entries[(v, n)] counts P(v) summands of the n-th minimal term;
    graded_entries[(v, n, r)] refines by the summand's generation grade,
    matching the decomposition of Ext against the shifted simples L_v(r).
    """

    entries: dict[tuple[str, int], int]
    graded_entries: dict[tuple[str, int, int], int] | None
    finite: bool
    projective_dimension: int | None


def ext_table(m: Representation, n_max: int, graded: bool = False) -> ExtTable:
    """The entries come from the minimal resolution of M itself; the graded
    refinement from the graded resolution of gr M read over the algebra,
    isomorphic to M, and checked to sum to them."""
    require(n_max >= 0, "ext table needs a non-negative bound")
    graded_entries = None
    if graded:
        if not tight_grading_check(m.algebra).passed:
            raise InputFormatError("graded ext table needs a tightly graded algebra")
        gm = gr_rep(m, gr_algebra(m.algebra))
        regraded = make_representation(m.algebra, gm.rep.dims, gm.rep.columns)
        gradable, _ = is_isomorphic(m, regraded)
        if not gradable:
            raise InputFormatError(
                "module admits no grading: it is not isomorphic to its gr"
            )
        gres = graded_minimal_resolution(GradedRepresentation(regraded, gm.grades), n_max)
        graded_entries = {}
        for i, heads in enumerate(gres.heads):
            for v, g in heads:
                graded_entries[(v, i, g)] = graded_entries.get((v, i, g), 0) + 1
    res = minimal_resolution(m, n_max)
    summands = res.summand_vertices + [[]] * (n_max + 1 - len(res.covers))
    entries = {(v, i): summands[i].count(v) for i in range(n_max + 1) for v in m.vertices}
    if graded_entries is not None:
        sums = dict.fromkeys(entries, 0)
        for (v, i, _), d in graded_entries.items():
            sums[(v, i)] += d
        check(sums == entries, "graded refinement does not sum to the ungraded entry")
    return ExtTable(entries, graded_entries, res.finite, res.projective_dimension)


# -- the gr-construction Ext^1 comparison -----------------------------------------------


@dataclass
class Ext1Row:
    vertex: str
    dim_ambient: int
    dim_graded: int
    equal: bool
    dim_sub: int | None  # None without a subalgebra


@dataclass
class GrExt1Report:
    rows: list[Ext1Row]
    all_equal: bool
    quotient_of_projective: bool
    pullback: tuple[int, int, int] | None  # (dim from M, dim from rad^(r-1) M, rank)
    pullback_injective: bool | None


def _head_and_ext1(rep: Representation) -> tuple[dict[str, int], dict[str, int]]:
    """(h, e) with h[v] = dim Hom(M, L_v), the head multiplicity of M, and
    e[v] = dim Ext^1(M, L_v), that of its syzygy: the cover is minimal."""
    cov = _cover(rep)
    return cov.head, head_multiplicities(cov.syzygy)


def gr_ext1_compare(m: Representation, sub: SubalgebraEmbedding | None = None,
                    graded: GradedAlgebra | None = None) -> GrExt1Report:
    """Compare Ext^1 over the algebra with Ext^1 of gr M over gr A, per simple.

    The graded dimension always dominates (the comparison map is injective);
    equality certifies the gr-construction loses nothing here, and is
    asserted when M is a radical truncation P/rad^r P of its projective
    cover P, r its Loewy length: M is a quotient of P/rad^r P, so equal to it
    exactly when dim M = dim P - dim rad^r P.  For
    truncations the pullback of Ext^1 to the last radical layer is asserted
    injective as a rank condition.  With a subalgebra whose radical generates
    the ambient radical, dim Ext^1_A(M, L) <= dim Ext^1_a(M, L) is asserted
    per simple.  Every Ext^1 is read off the head of a minimal cover's
    syzygy; over a, off the cover of the restriction `restrict_rep`.
    """
    if graded is None:
        graded = gr_algebra(m.algebra)
    gm = gr_rep(m, graded)
    cov = _cover(m)
    amb = head_multiplicities(cov.syzygy)
    grd = _head_and_ext1(gm.rep)[1]
    sub_dims: dict[str, int] = {}
    if sub is not None:
        if not radical_generation_check(sub).generates:
            raise PreconditionError(
                "the subalgebra comparison needs (rad a)A = rad A"
            )
        # the simple L_v restricts to the simple at the vertex class of v
        ext_sub = _head_and_ext1(restrict_rep(m, sub))[1]
        sub_dims = {v: ext_sub[c] for c, members in sub.as_algebra()[1].items()
                    for v in members}
    rows = []
    for v in m.vertices:
        da, dg = amb[v], grd[v]
        check(da <= dg, "gr-construction comparison lost an extension")
        row = Ext1Row(v, da, dg, da == dg, sub_dims.get(v))
        if sub is not None:
            check(da <= sub_dims[v], "restriction to the subalgebra lost an extension")
        rows.append(row)
    all_equal = all(r.equal for r in rows)
    # is M the radical truncation P/rad^r P of its projective cover?  M is a
    # quotient of P with rad^r M = 0, so of P/rad^r P: equal dimensions decide
    series = radical_series(m)
    r = len(series) - 1
    truncation = bool(m.total_dim) and (
        m.total_dim == cov.projective.total_dim - len(radical_series(cov.projective)[r]))
    pullback = None
    pb_injective = None
    if m.total_dim and r >= 1:
        # rank(Ext^1(M, L_v) -> Ext^1(S, L_v)) for S = rad^(r-1) M, from the
        # long exact sequence of 0 -> S -> M -> M/S -> 0 in Hom(-, L_v) and
        # Ext^1(-, L_v): e(M) - e(M/S) + h(S) - h(M) + h(M/S), with h and e
        # as in _head_and_ext1
        h_s, e_s = _head_and_ext1(sub_rep(m, series[r - 1])[0])
        h_q, e_q = _head_and_ext1(quotient_rep(m, series[r - 1])[0])
        ranks = {v: amb[v] - e_q[v] + h_s[v] - cov.head[v] + h_q[v] for v in m.vertices}
        check(all(0 <= ranks[v] <= min(amb[v], e_s[v]) for v in m.vertices),
              "pullback rank exceeds its Ext^1 dimensions")
        pullback = (sum(amb.values()), sum(e_s.values()), sum(ranks.values()))
        pb_injective = pullback[2] == pullback[0]
        if truncation:
            check(all_equal, "gr comparison must be an isomorphism for P/rad^r P")
            check(pb_injective, "pullback to the last radical layer must be injective")
    return GrExt1Report(rows, all_equal, truncation, pullback, pb_injective)


# -- restriction to a subalgebra ---------------------------------------------------------


def _class_coords(m: Representation, classes: dict[str, list[str]]) -> dict[str, list[int]]:
    """M's flat coordinates of each vertex class block of M|a: the blocks of
    the class's member vertices, concatenated."""
    return {c: [m.offset(v) + k for v in members for k in range(m.dims[v])]
            for c, members in classes.items()}


def restrict_rep(m: Representation, emb: SubalgebraEmbedding) -> Representation:
    """M|a as a module over the subalgebra's own quiver algebra (`as_algebra`).

    A vertex class's block is the concatenation of M's blocks at its
    vertices, and an arrow acts by the class-block slice of the action of
    its ambient vector; make_representation checks the relations.
    """
    require(m.algebra is emb.ambient, "restriction needs a module over the ambient algebra")
    sub_algebra, classes, arrow_vectors = emb.as_algebra()
    coords = _class_coords(m, classes)
    one = m.algebra.field.one
    columns = {}
    for name, src, dst in sub_algebra.presentation.arrows:
        position = {k: i for i, k in enumerate(coords[dst])}
        columns[name] = [
            {position[k]: x for k, x in m.act_element(arrow_vectors[name], {j: one}).items()
             if k in position}
            for j in coords[src]]
    return make_representation(sub_algebra, {c: len(ks) for c, ks in coords.items()}, columns)


def restricts_projectively(m: Representation, emb: SubalgebraEmbedding) -> bool:
    """Is the restriction M|a projective?  Exactly when the syzygy of its
    minimal cover vanishes, that is when Ext^1_a into every simple of a, one
    per vertex of `as_algebra`, vanishes."""
    return _cover(restrict_rep(m, emb)).syzygy.total_dim == 0


@dataclass
class RestrictionReport:
    filtration_agrees: bool  # subalgebra radical series of M = ambient series
    restriction_iso_gr: bool  # M|a isomorphic to gr(M|a) as a-modules
    restricts_projectively: bool  # Ext^1_a(M|a, simple) = 0 for all a-simples
    n_characters: int  # the simples of a: vertices of its quiver (`as_algebra`)


def restrict_iso_check(m: Representation, emb: SubalgebraEmbedding) -> RestrictionReport:
    """Restrict M to the subalgebra and compare with gr of the restriction.

    Needs (rad a)A = rad A, and a basis of the subalgebra homogeneous and
    multiplicative for the ambient-filtration grades; the subalgebra is then
    its own associated graded algebra and gr(M|a) is again an a-module.
    Both are representations of `as_algebra`, and gr(M|a) lives on the
    radical layers of `restrict_rep`.
    """
    f = m.algebra.field
    if not radical_generation_check(emb).generates:
        raise PreconditionError("the restriction check needs (rad a)A = rad A")
    tight, sub_grades, fails = tight_subalgebra_check(emb)
    if not tight:
        raise PreconditionError(
            "the restriction check needs a tightly graded subalgebra basis: "
            + "; ".join(fails)
        )
    sub_algebra, classes, arrow_vectors = emb.as_algebra()
    # for a tight basis the grade-0 rows are the class idempotents, so the
    # block parts of the radical rows are homogeneous and as_algebra's
    # arrows, chosen off (rad a)^2 = grades >= 2, have grade 1: each arrow's
    # own action on M|a sends radical layer g into layer g + 1
    check(all(sub_grades[k] == 1 for vec in arrow_vectors.values() for k in emb.coords(vec)),
          "a subalgebra arrow is not homogeneous of grade 1")
    res = restrict_rep(m, emb)
    n = res.total_dim
    coords = _class_coords(m, classes)
    # coordinate j of M|a is coordinate order[j] of M
    order = [i for c in res.vertices for i in coords[c]]

    def in_m(row):
        return {order[j]: x for j, x in row.items()}

    series = radical_series(res)
    agrees = radical_series(m) == [Subspace(f, n, [in_m(r) for r in term.sparse_rows])
                                   for term in series]
    arrows = {name: sub_algebra.basis_vector(sub_algebra.arrow_index[name])
              for name, _, _ in sub_algebra.presentation.arrows}
    gr = _gr_from_series(res, sub_algebra, lambda name, vec: res.act_element(arrows[name], vec),
                         series)
    iso, _ = is_isomorphic(res, gr.rep)
    return RestrictionReport(agrees, iso, _cover(res).syzygy.total_dim == 0, len(classes))


# -- Koszulity ----------------------------------------------------------------------------


@dataclass
class KoszulReport:
    verdict: bool | None  # None = only decided up to the bound
    exact: bool
    bound: int
    witness: str | None
    per_simple: dict[str, list[list[int]]]  # vertex -> generation grades per degree


def koszul_check(algebra: FiniteDimAlgebra, bound: int = 12) -> KoszulReport:
    """Is the (tightly graded) algebra Koszul?

    Each simple, placed in grade 0, must have a graded minimal resolution
    whose n-th term is generated in grade n.  A terminating resolution gives
    an exact verdict; otherwise a repeat Omega_i = Omega_j(i-j) up to graded
    isomorphism certifies that the linear pattern continues forever.  If
    neither happens within the bound, the verdict stays open ("Koszul up to
    the bound").
    """
    require(bound >= 1, "degree bound must be at least 1")
    if not tight_grading_check(algebra).passed:
        raise PreconditionError("Koszulity needs a tightly graded algebra")
    per_simple: dict[str, list[list[int]]] = {}
    all_exact = True
    for v in algebra.presentation.vertices:
        simple = grade_zero_graded(simple_rep(algebra, v))
        res = graded_minimal_resolution(simple, bound)
        per_simple[v] = res.generation
        for i, gens in enumerate(res.generation):
            bad = next((g for g in gens if g != i), None)
            if bad is not None:
                return KoszulReport(
                    False,
                    True,
                    bound,
                    f"resolution of the simple at {v!r} has its degree-{i} term "
                    f"generated in grade {bad}",
                    per_simple,
                )
        if res.finite:
            continue
        periodic = any(
            graded_is_isomorphic(res.syzygies[i], res.syzygies[j], shift=i - j)
            for i in range(len(res.syzygies))
            for j in range(i)
        )
        if not periodic:
            all_exact = False
    if all_exact:
        return KoszulReport(True, True, bound, None, per_simple)
    return KoszulReport(
        None, False, bound,
        f"all syzygies linear up to homological degree {bound}", per_simple,
    )
