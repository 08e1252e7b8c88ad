"""Dense reference code that the package ran before it went sparse, kept as
test oracles.

- `DenseSubspace` and `dense_rank_kernel`: the dense-row `Subspace` and
  `rank_kernel` of `grkoszul.exactlin` before it kept its RREF sparse.
  Every vector is a full list of scalars; each `add` clears the new vector
  at every pivot in turn, normalises it and clears its lead column from the
  rows kept so far.
- `is_zero`: the zero test of a dense matrix, from before the resolution
  maps became sparse columns.
- `zero`, `identity`, `transpose`, `add` and `scale`: the dense matrix
  builders that `MatrixExact` had as methods, from before module
  homomorphisms became sparse columns.
- `determinant`, `invertible_by_determinant_grid` and `dense_hom_space`:
  the determinant by exact elimination, the isomorphism search over the
  span of dense homs that decided invertibility by it, and Hom(M, N) as
  the dense solutions F of F T = T' F for every arrow and idempotent.
- `kernel_matrix`: `rank_kernel` on a dense matrix, its kernel read back
  as a dense matrix; `dense_map` is the dense matrix of a module map given
  by sparse columns.
- `solve`: one solution of a dense linear system by echelon form.
- `apply`, `mul` and `invert`: a dense matrix times a dense vector, the
  product of two dense matrices and the inverse of a square one, from
  before every map outside module homomorphisms became sparse columns.
- `dense_multiply`: the product of two algebra elements as dense coordinate
  lists, from before algebra elements became sparse dicts; `dense_element`
  writes a sparse element out densely.
- `total_action`, `path_total`, `element_total` (of a sparse algebra
  element) and `relation_failure`: a module's action as dense total-space
  matrices, and the relation check of `make_representation` as a sum of
  path matrices, from before a module stored only its sparse columns.
  `embed` and `block` move dense vectors between a vertex block and the
  total space; `columns_of` turns dense arrow blocks into the sparse
  columns `make_representation` takes.
- `_ext_groups`: dim Ext^i(M, N) as the cohomology of the Hom complex
  Hom(P_., N) of M's minimal resolution, each differential's rank the span
  of every basis hom composed with a resolution map, from before Ext went
  by dimension shifting along the syzygies.
- `resolution_maps`: the maps of a minimal resolution as sparse columns,
  maps[0]: P_0 -> M and maps[i]: P_i -> P_(i-1), rebuilt from its covers,
  from before `ResolutionData` stopped keeping them.
- `delta_filtration_by_search` and `truncation_by_search`: the standard
  filtration of `qha_engine._delta_filtration` and the radical truncation
  flag of `gr_ext1_compare`, each isomorphism decided by `is_isomorphic`'s
  hom solve and determinant-grid search, from before both compared
  dimension vectors.

The tests hold the sparse implementation to these results on the same
inputs.
"""

from bisect import bisect_left
from itertools import compress

from itertools import product as iter_product

from grkoszul.errors import InputFormatError, check, require
from grkoszul.exactlin import (FieldSpec, MatrixExact, Subspace, _dense_row, _push, _sparse_row,
                               echelon, rank_kernel)
from grkoszul.qha_engine import _trace
from grkoszul.rep_homology import (_cover, direct_sum, hom_space, is_isomorphic,
                                   minimal_resolution, quotient_rep, radical_series, sub_rep)


def _minus_multiple(char: int, vec: list, c, row: list) -> list:
    """vec - c*row over Q (char 0) or F_char, skipping zero entries of row;
    over Q it may hold integral Fractions until `coerce_row` is applied."""
    if char:
        return [(a - c * b) % char if b else a for a, b in zip(vec, row)]
    return [a - c * b if b else a for a, b in zip(vec, row)]


def _eliminate(field: FieldSpec, rows: list[list], pivots, vec: list, coeffs=None) -> list:
    """Clear vec at each pivot column with that pivot's row, in order, and
    return the residual (not yet canonical over Q).  The multipliers used
    are appended to coeffs when it is a list."""
    char = field.char
    for row, col in zip(rows, pivots):
        c = vec[col]
        if coeffs is not None:
            coeffs.append(c)
        if c:
            vec = _minus_multiple(char, vec, c, row)
    return vec


class DenseSubspace:
    """A subspace of field^ambient as its canonical RREF in dense rows."""

    def __init__(self, field: FieldSpec, ambient: int, vectors=()):
        self.field = field
        self.ambient = ambient
        self.rows: list[list] = []
        self.pivots: list[int] = []
        for vec in vectors:
            self.add(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DenseSubspace) and self.field == other.field
                and self.ambient == other.ambient and self.rows == other.rows)

    def _residual(self, vec: list, coeffs=None) -> list:
        if len(vec) != self.ambient:
            raise InputFormatError("vector length does not match the ambient dimension")
        return _eliminate(self.field, self.rows, self.pivots, vec, coeffs)

    def reduce(self, vec: list) -> list:
        return self.field.coerce_row(self._residual(self.field.coerce_row(vec)))

    def contains(self, vec: list) -> bool:
        return not any(self._residual(self.field.coerce_row(vec)))

    def coords(self, vec: list) -> list | None:
        coeffs = []
        if any(self._residual(self.field.coerce_row(vec), coeffs)):
            return None
        return self.field.coerce_row(coeffs)

    def add(self, vec: list) -> bool:
        f = self.field
        res = f.coerce_row(self._residual(f.coerce_row(vec)))
        lead = next((j for j, a in enumerate(res) if a), None)
        if lead is None:
            return False
        if res[lead] != 1:
            inv = f.inv(res[lead])
            res = [f.mul(inv, a) if a else a for a in res]
        for i, row in enumerate(self.rows):
            if row[lead]:
                self.rows[i] = f.coerce_row(_minus_multiple(f.char, row, row[lead], res))
        at = bisect_left(self.pivots, lead)
        self.rows.insert(at, res)
        self.pivots.insert(at, lead)
        return True


def is_zero(m: MatrixExact) -> bool:
    return not any(map(any, m.rows))


def zero(field: FieldSpec, nrows: int, ncols: int) -> MatrixExact:
    return MatrixExact.trusted(field, [[field.zero] * ncols for _ in range(nrows)], ncols)


def identity(field: FieldSpec, n: int) -> MatrixExact:
    one, nought = field.one, field.zero
    return MatrixExact.trusted(field, [[one if i == j else nought for j in range(n)]
                                       for i in range(n)], n)


def transpose(m: MatrixExact) -> MatrixExact:
    if not m.nrows:
        return zero(m.field, m.ncols, 0)
    return MatrixExact.trusted(m.field, [list(col) for col in zip(*m.rows)], m.nrows)


def add(a: MatrixExact, b: MatrixExact) -> MatrixExact:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise InputFormatError("shape mismatch in sum")
    f = a.field
    return MatrixExact.trusted(f, [[f.add(x, y) for x, y in zip(r1, r2)]
                                   for r1, r2 in zip(a.rows, b.rows)], a.ncols)


def scale(m: MatrixExact, scalar) -> MatrixExact:
    f = m.field
    c = f.coerce(scalar)
    return MatrixExact.trusted(f, [[f.mul(c, x) for x in row] for row in m.rows], m.ncols)


def determinant(m: MatrixExact):
    """Determinant by exact Gaussian elimination."""
    if m.nrows != m.ncols:
        raise InputFormatError(f"determinant needs a square matrix, got {m.nrows}x{m.ncols}")
    f = m.field
    n = m.nrows
    rows = [list(r) for r in m.rows]
    det = f.one
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if rows[r][col] != f.zero), None)
        if pivot_row is None:
            return f.zero
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = f.neg(det)
        pivot = rows[col][col]
        det = f.mul(det, pivot)
        for r in range(col + 1, n):
            if rows[r][col] != f.zero:
                factor = f.mul(rows[r][col], f.inv(pivot))
                rows[r] = [f.sub(a, f.mul(factor, b)) for a, b in zip(rows[r], rows[col])]
    return det


def invertible_by_determinant_grid(field: FieldSpec, homs: list[MatrixExact], n: int, cap: int,
                                   endomorphisms=None):
    """An invertible matrix in the span of dense n x n homs, or None: single
    homs, their sum, then (after the dimension refutation of
    `endomorphisms()`, as in `rep_homology._invertible_combination`) a grid
    of n+1 integer values per coefficient over Q, or the whole span over
    F_p, each candidate judged by its determinant; at most cap of them."""
    if n == 0:
        return zero(field, 0, 0)
    if not homs:
        return None
    k = len(homs)
    for cand in homs:
        if determinant(cand) != field.zero:
            return cand
    acc = zero(field, n, n)
    for h in homs:
        acc = add(acc, h)
    if determinant(acc) != field.zero:
        return acc
    if endomorphisms is not None and any(d != k for d in endomorphisms()):
        return None
    values = range(n + 1) if field.char == 0 else range(field.char)
    total = len(values) ** k
    require(total <= cap, f"isomorphism search needs {total} determinant evaluations,"
            f" beyond the desk-scale cap {cap}")
    for coeffs in iter_product(values, repeat=k):
        if not any(coeffs):
            continue
        cand = zero(field, n, n)
        for c, h in zip(coeffs, homs):
            if c:
                cand = add(cand, scale(h, c))
        if determinant(cand) != field.zero:
            return cand
    return None


def dense_hom_space(m, n) -> list[MatrixExact]:
    """Basis of Hom(M, N) as dense dim N x dim M matrices F: the dense
    kernel of F T_a(M) - T_a(N) F = 0 for every arrow a and F E_v(M) -
    E_v(N) F = 0 for every vertex v, E_v the projection onto the block of v,
    in the unknowns F[r][c] at position r * dim M + c."""
    f = m.algebra.field
    rows_n, cols_m = n.total_dim, m.total_dim
    width = rows_n * cols_m
    if not width:
        return []

    def projection(rep, v):
        mat = zero(f, rep.total_dim, rep.total_dim)
        for k in range(rep.offset(v), rep.offset(v) + rep.dims[v]):
            mat.rows[k][k] = f.one
        return mat

    pairs = [(total_action(m, a), total_action(n, a)) for a, _, _ in m.algebra.presentation.arrows]
    pairs += [(projection(m, v), projection(n, v)) for v in m.vertices]
    equations = []
    for t_m, t_n in pairs:
        for r in range(rows_n):
            for c in range(cols_m):
                eq = [f.zero] * width
                for k in range(cols_m):  # (F T_m)[r][c]
                    eq[r * cols_m + k] = f.add(eq[r * cols_m + k], t_m.rows[k][c])
                for k in range(rows_n):  # - (T_n F)[r][c]
                    eq[k * cols_m + c] = f.sub(eq[k * cols_m + c], t_n.rows[r][k])
                equations.append(eq)
    _, kernel = dense_rank_kernel(MatrixExact.trusted(f, equations, width))
    return [MatrixExact.trusted(f, [vec[r * cols_m:(r + 1) * cols_m] for r in range(rows_n)],
                                cols_m) for vec in kernel.rows]


def kernel_matrix(m: MatrixExact) -> tuple[int, MatrixExact]:
    """`rank_kernel` of a dense matrix: its rank and the kernel RREF as a
    dense matrix."""
    rank, kernel = rank_kernel(m.field, [_sparse_row(row) for row in m.rows], m.ncols)
    return rank, MatrixExact.trusted(m.field, [_dense_row(k, m.ncols) for k in kernel], m.ncols)


def dense_map(field: FieldSpec, columns: list[dict], nrows: int) -> MatrixExact:
    """The dense matrix, nrows x len(columns), of a map given by sparse columns."""
    rows = [[field.zero] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            rows[i][j] = x
    return MatrixExact.trusted(field, rows, len(columns))


def dense_rank_kernel(m: MatrixExact) -> tuple[int, MatrixExact]:
    """Rank and the canonical RREF of the right kernel, by one elimination
    of the mirrored rows."""
    f, n = m.field, m.ncols
    mirrored = DenseSubspace(f, n, [row[::-1] for row in m.rows])
    pivot_rows = {n - 1 - c: row[::-1] for row, c in zip(mirrored.rows, mirrored.pivots)}
    kernel_rows = []
    for free in (j for j in range(n) if j not in pivot_rows):
        vec = [f.zero] * n
        vec[free] = f.one
        for pcol, row in pivot_rows.items():
            if row[free]:
                vec[pcol] = f.neg(row[free])
        kernel_rows.append(vec)
    check(all(not f.coerce(sum(a * b for a, b in zip(row, vec)))
              for row in m.rows for vec in kernel_rows), "kernel basis fails A*k = 0")
    return len(pivot_rows), MatrixExact.trusted(f, kernel_rows, n)


def solve(a: MatrixExact, b: list) -> list | None:
    """One exact solution of a*x = b (free variables set to 0), or None."""
    if len(b) != a.nrows:
        raise InputFormatError("right-hand side length does not match row count")
    f = a.field
    aug_rows = [row + [f.coerce(x)] for row, x in zip(a.rows, b)]
    aug = MatrixExact.trusted(f, aug_rows, a.ncols + 1)
    red, pivots = echelon(aug)
    if a.ncols in pivots:
        return None
    x = [f.zero] * a.ncols
    for rowidx, pcol in enumerate(pivots):
        x[pcol] = red.rows[rowidx][a.ncols]
    check(apply(a, x) == f.coerce_row(b), "solve produced a non-solution")
    return x


def apply(m: MatrixExact, vec: list) -> list:
    """m * vec for a dense vector taken as it is, the output canonical."""
    if len(vec) != m.ncols:
        raise InputFormatError("vector length does not match column count")
    support = [(j, x) for j, x in enumerate(vec) if x]
    out = []
    for row in m.rows:
        s = 0
        for j, x in support:
            if row[j]:
                s += row[j] * x
        out.append(s)
    return m.field.coerce_row(out)


def mul(a: MatrixExact, b: MatrixExact) -> MatrixExact:
    """a * b; row i of the product combines the rows of b over row i's
    nonzero entries, each over its own nonzero entries."""
    if a.ncols != b.nrows:
        raise InputFormatError(f"shape mismatch in product: {a.nrows}x{a.ncols}"
                               f" * {b.nrows}x{b.ncols}")
    f, char, n = a.field, a.field.char, b.ncols
    supports = [list(compress(range(n), brow)) for brow in b.rows]
    rows = []
    for row in a.rows:
        acc = [0] * n
        for j in compress(range(a.ncols), row):
            x, brow = row[j], b.rows[j]
            for k in supports[j]:
                acc[k] += x * brow[k]
        rows.append([s % char for s in acc] if char else f.coerce_row(acc))
    return MatrixExact.trusted(f, rows, n)


def invert(m: MatrixExact) -> MatrixExact | None:
    """The inverse of a square matrix, or None when it is singular: one
    elimination of (m | I), which reduces to (I | m^-1) exactly when its
    pivots are the columns 0..n-1."""
    n, f = m.nrows, m.field
    if m.ncols != n:
        raise InputFormatError(f"only a square matrix has an inverse, got {m.nrows}x{m.ncols}")
    joint = DenseSubspace(f, 2 * n, [row + unit for row, unit
                                     in zip(m.rows, identity(f, n).rows)])
    if joint.pivots != list(range(n)):
        return None
    return MatrixExact.trusted(f, [row[n:] for row in joint.rows], n)


# -- dense algebra elements -----------------------------------------------------


def dense_element(algebra, element: dict) -> list:
    """A sparse algebra element as its dense coordinate list."""
    return _dense_row(element, algebra.dim)


def dense_multiply(algebra, x: list, y: list) -> list:
    """x * y for dense coordinate lists, over the basis products of the
    nonzero entries of x and y."""
    f = algebra.field
    out = [f.zero] * algebra.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if a:
            for j, b in ys:
                for k, c in algebra.mult_basis(i, j).items():
                    out[k] = f.add(out[k], f.mul(f.mul(a, b), c))
    return out


# -- dense module actions -----------------------------------------------------


def columns_of(action: dict[str, MatrixExact]) -> dict[str, list[dict]]:
    """Dense arrow blocks as sparse columns, {row: scalar} per column."""
    return {name: [_sparse_row(col) for col in zip(*mat.rows)] if mat.nrows
            else [{} for _ in range(mat.ncols)] for name, mat in action.items()}


def embed(rep, vertex: str, block_vec: list) -> list:
    """The dense total-space vector with block_vec at the vertex, zero elsewhere."""
    vec = [rep.algebra.field.zero] * rep.total_dim
    start = rep.offset(vertex)
    vec[start : start + rep.dims[vertex]] = block_vec
    return vec


def block(rep, vec: list, vertex: str) -> list:
    """The dense block at the vertex of a dense total-space vector."""
    start = rep.offset(vertex)
    return vec[start : start + rep.dims[vertex]]


def total_action(rep, name: str) -> MatrixExact:
    """The arrow's action on the full space (other blocks mapped to 0),
    written from that arrow's sparse columns alone."""
    f = rep.algebra.field
    n = rep.total_dim
    src, dst = rep.algebra.presentation.arrow_endpoints(name)
    mat = [[f.zero] * n for _ in range(n)]
    ro, co = rep.offset(dst), rep.offset(src)
    for j, col in enumerate(rep.columns[name], co):
        for i, x in col.items():
            mat[ro + i][j] = x
    return MatrixExact.trusted(f, mat, n)


def path_total(rep, path: tuple[str, ...]) -> MatrixExact:
    """Action of a nonempty path, first arrow applied first."""
    out = None
    for name in path:
        step = total_action(rep, name)
        out = step if out is None else mul(step, out)
    check(out is not None, "empty path has no total action")
    return out


def element_total(rep, element: dict) -> MatrixExact:
    """Action of a sparse algebra element, {basis index: scalar}."""
    f = rep.algebra.field
    n = rep.total_dim
    out = zero(f, n, n)
    for i, c in element.items():
        bp = rep.algebra.basis[i]
        if bp.arrows:
            out = add(out, scale(path_total(rep, bp.arrows), c))
            continue
        start = rep.offset(bp.src)  # e_v acts as the projection to its block
        for k in range(start, start + rep.dims[bp.src]):
            out.rows[k][k] = f.add(out.rows[k][k], f.coerce(c))
    return out


def relation_failure(rep) -> str | None:
    """The message `make_representation` gives when rep's action breaks a
    defining relation, by summing the relation's path matrices; else None."""
    f = rep.algebra.field
    for rel in rep.algebra.presentation.relations:
        acc = zero(f, rep.total_dim, rep.total_dim)
        for coeff, path in rel:
            acc = add(acc, scale(path_total(rep, tuple(path)), f.coerce(coeff)))
        if not is_zero(acc):
            return "action does not satisfy a defining relation"
    return None


def resolution_maps(res) -> list[list[dict]]:
    """maps[0] is covers[0].map; maps[i] is covers[i].map pushed through
    covers[i - 1].syzygy_inclusion."""
    maps = []
    for i, cov in enumerate(res.covers):
        if i == 0:
            maps.append(cov.map)
        else:
            incl = res.covers[i - 1].syzygy_inclusion
            maps.append([_push(cov.projective.algebra.field.char, incl, col) for col in cov.map])
    return maps


def _ext_groups(m, n, n_max: int) -> list[int]:
    res = minimal_resolution(m, n_max + 1)
    maps = resolution_maps(res)
    f = m.algebra.field
    terms = res.terms
    hom_bases = [hom_space(p, n) for p in terms]

    def flat(h):
        """A map into N as one sparse vector, column after column."""
        return {j * n.total_dim + r: x for j, col in enumerate(h) for r, x in col.items()}

    ranks = []
    for i in range(1, len(terms)):
        basis_prev = hom_bases[i - 1]
        basis_cur = hom_bases[i]
        if not basis_prev or not basis_cur:
            ranks.append(0)
            continue
        width = terms[i].total_dim * n.total_dim
        cur = Subspace(f, width, map(flat, basis_cur))
        images = []
        for h in basis_prev:
            # h composed with maps[i]: each column of maps[i] pushed through h
            image = flat([_push(f.char, h, col) for col in maps[i]])
            check(cur.contains(image), "hom image left the hom space")
            images.append(image)
        # the rank of the composition map is the size of the images' span
        ranks.append(len(Subspace(f, width, images)))
    out = []
    for i in range(n_max + 1):
        dim_h = len(hom_bases[i]) if i < len(hom_bases) else 0
        r_in = ranks[i - 1] if 1 <= i <= len(ranks) else 0
        r_out = ranks[i] if i < len(ranks) else 0
        out.append(dim_h - r_in - r_out)
    check(all(x >= 0 for x in out), "negative ext dimension")
    return out


def delta_filtration_by_search(h, m) -> list[str] | None:
    """Section weights of a filtration of M by standard modules, top-down,
    or None: the submodule generated by the block of a maximal weight mu of
    the support must be isomorphic to dims[mu] copies of the standard at mu,
    tried for every maximal mu (backtracking).  Raises PreconditionError
    where the search exceeds its cap."""
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
        if not is_isomorphic(bottom, direct_sum(*([delta] * count)))[0]:
            continue
        rest = delta_filtration_by_search(h, quotient_rep(m, span)[0])
        if rest is not None:
            return rest + [mu] * count
    return None


def truncation_by_search(m) -> bool:
    """Is M isomorphic to P/rad^r P, for P its projective cover and r its
    Loewy length?  False for M = 0.  Raises PreconditionError where the
    search exceeds its cap."""
    if not m.total_dim:
        return False
    r = len(radical_series(m)) - 1
    projective = _cover(m).projective
    p_series = radical_series(projective)
    candidate, _ = quotient_rep(projective, p_series[r] if r < len(p_series) else [])
    return is_isomorphic(m, candidate)[0]
