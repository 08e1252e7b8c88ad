"""Exact linear algebra over Q and over prime fields F_p.

Scalars over Q are plain ints when integral and `fractions.Fraction`
instances with denominator > 1 otherwise, so 0/1 matrices never leave machine
integers; over F_p they are ints reduced to [0, p).  No floats anywhere.
A `MatrixExact` is a list of dense rows, left for the file parsers, the
dense `Representation.action` view and `echelon`; every linear map, of
modules or of algebras, module homomorphisms included, is the list of its
sparse columns, {row: scalar} dicts that `_push` combines.
A `Subspace` keeps its RREF sparse, one {column: scalar} dict of nonzero
entries per pivot (`_sparse_row`, `_dense_row` convert), so eliminating a
vector touches only its nonzero entries and the rows of the pivots among
them.

Pivoting rule: echelon reduction (`Subspace.add`, which `row_space` and
`echelon` run row by row, and `rank_kernel` on its sparse rows) always
selects the leftmost nonzero entry of the reduced row (no magnitude
heuristics), then removes that column from the rows kept so far.
The reduced row echelon form is fully normalized (pivots 1, pivot columns
cleared, rows sorted by pivot column), hence canonical for the row space.

Every span is a `Subspace`, which holds the canonical RREF of its vectors:
`row_space` builds one, `intersect_spaces` meets two, and membership,
coordinates and residues are its methods.  Two spans are equal exactly when
their RREFs are, which `Subspace.__eq__` compares.

Scalars are canonicalised at the boundary only: the public `MatrixExact(...)`
constructor, the scalar parsers and every dense vector given to a public
`Subspace` method run `coerce_row`, while a sparse dict given to one is taken
as canonical.  A dense matrix that is canonical by construction (`echelon`'s
RREF, the `action` view) is built with `MatrixExact.trusted`; rows already
in canonical RREF, dense or sparse, become a `Subspace` through
`Subspace.from_rref`, and other canonical vectors, as sparse dicts, enter
one through `add`, `coords` and `pivot_entries`, with no coercion pass.

`rank_kernel` takes a matrix as sparse rows of canonical scalars and
eliminates them once, with the columns reversed, so each pivot is its row's
last nonzero entry; the kernel vector of each free column j is then 1 at j
and 0 at every other free column and left of j: together these vectors
already are the canonical RREF of the kernel, which it returns sparse.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt

from .errors import InputFormatError, check


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def _integral_as_int(x):
    """A rational as a canonical Q scalar: an integral Fraction becomes its int."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: char == 0 means Q, otherwise F_char."""

    char: int = 0

    def __post_init__(self) -> None:
        if self.char != 0 and not _is_prime(self.char):
            raise InputFormatError(f"field characteristic {self.char} is not prime")

    # -- scalar construction ------------------------------------------------

    def coerce(self, value) -> object:
        """The canonical scalar equal to value: over Q an int when value is
        integral and otherwise a Fraction with denominator > 1, over F_p an
        int in [0, p).  A value already in that form is returned as is."""
        if self.char == 0:
            if type(value) is int:
                return value
            return _integral_as_int(value if type(value) is Fraction else Fraction(value))
        if type(value) is int and 0 <= value < self.char:
            return value
        if isinstance(value, Fraction):
            num = value.numerator % self.char
            den = value.denominator % self.char
            if den == 0:
                raise InputFormatError(f"denominator divisible by {self.char}")
            return num * pow(den, -1, self.char) % self.char
        return int(value) % self.char

    def coerce_row(self, row) -> list:
        """[coerce(x) for x in row] as a new list.  A row of canonical ints is
        recognised by C-level scans; coerce runs only on the other entries."""
        p = self.char
        if _INT_ONLY.issuperset(map(type, row)) and (
            not p or not row or (min(row) >= 0 and max(row) < p)
        ):
            return list(row)
        coerce = self.coerce
        if p:
            return [x if type(x) is int and 0 <= x < p else coerce(x) for x in row]
        return [x if type(x) is int else coerce(x) for x in row]

    zero = 0
    one = 1

    # -- arithmetic (results are canonical scalars) ---------------------------

    def add(self, a, b):
        return (a + b) % self.char if self.char else _integral_as_int(a + b)

    def sub(self, a, b):
        return (a - b) % self.char if self.char else _integral_as_int(a - b)

    def mul(self, a, b):
        return (a * b) % self.char if self.char else _integral_as_int(a * b)

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        return pow(a, -1, self.char) if self.char else _integral_as_int(1 / Fraction(a))

    # -- text form (used by .qrep files and reports) -------------------------

    def parse_scalar(self, token: str):
        token = token.strip()
        try:
            if self.char == 0:
                return self.coerce(Fraction(token))
            if "/" in token:
                num, den = token.split("/", 1)
                return self.coerce(Fraction(int(num), int(den)))
            return int(token) % self.char
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"bad scalar {token!r}: {exc}") from exc

    def format_scalar(self, value) -> str:
        return str(value)

    def describe(self) -> str:
        return "Q" if self.char == 0 else f"F{self.char}"


QQ = FieldSpec(0)
_INT_ONLY = frozenset((int,))


class MatrixExact:
    """Dense exact matrix; rows is a list of equal-length scalar lists."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows: list[list], ncols: int | None = None):
        self.field = field
        self.rows = [field.coerce_row(row) for row in rows]
        self.nrows = len(self.rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise InputFormatError("ragged matrix rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise InputFormatError("declared column count does not match rows")
        else:
            self.ncols = 0 if ncols is None else ncols

    @classmethod
    def trusted(cls, field: FieldSpec, rows: list[list], ncols: int) -> "MatrixExact":
        """The matrix of rows of canonical scalars, each of length ncols, that
        it then owns: no coercion and no copy, for internal producers only."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixExact)
            and self.field == other.field
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"MatrixExact({self.field.describe()}, {self.rows})"


def _sparse_row(row: list) -> dict:
    """The nonzero entries of a dense row, {column: scalar}; a C-level scan finds them."""
    return {j: row[j] for j in compress(range(len(row)), row)}


def _dense_row(vec: dict, n: int) -> list:
    """The dense row of length n with the entries of the sparse vec."""
    row = [0] * n
    for j, x in vec.items():
        row[j] = x
    return row


def _add_multiple(char: int, vec: dict, c, row: dict) -> None:
    """vec += c * row in place over Q (char 0) or F_char for sparse vectors
    of canonical scalars and c != 0; an entry that cancels is dropped."""
    get = vec.get
    for j, b in row.items():
        x = get(j, 0) + c * b
        if char:
            x %= char
        elif type(x) is not int and x.denominator == 1:
            x = x.numerator
        if x:
            vec[j] = x
        else:
            del vec[j]


def _push(char: int, columns, vec: dict) -> dict:
    """The image of a sparse vector under the map with these sparse columns,
    over Q (char 0) or F_char: the columns combined with vec's entries."""
    out = {}
    for j, x in vec.items():
        _add_multiple(char, out, x, columns[j])
    return out


class Subspace:
    """A subspace of field^ambient grown one vector at a time.

    `rref` maps each pivot column of the canonical RREF of the vectors added
    so far to its row, a dict {column: scalar} of the nonzero entries, and
    `pivots` lists the pivot columns in increasing order.  The rows are fully
    reduced, so a member's coordinates are its entries at the pivots.  An
    `add` replaces the rows it alters, never changing one in place, so a
    `copy` shares them.  `rows` is the dense view, built on demand.
    """

    __slots__ = ("field", "ambient", "rref", "pivots", "_dense")

    def __init__(self, field: FieldSpec, ambient: int, vectors=()):
        """The span of vectors, dense lists (coerced) or sparse dicts of
        canonical scalars (taken as they are), each given to `add`."""
        self.field = field
        self.ambient = ambient
        self.rref: dict[int, dict] = {}
        self.pivots: list[int] = []
        self._dense = None
        for vec in vectors:
            self.add(vec)

    @classmethod
    def from_rref(cls, field: FieldSpec, ambient: int, rows: list,
                  pivots=None) -> "Subspace":
        """The span of rows, all dense lists or all sparse dicts, that already
        form a canonical RREF with these pivot columns (by default each row's
        leading column); takes them as they are, with no elimination."""
        space = cls(field, ambient)
        if rows and type(rows[0]) is not dict:
            rows = [_sparse_row(row) for row in rows]
        space.pivots = list(pivots) if pivots is not None else [min(row) for row in rows]
        space.rref = dict(zip(space.pivots, rows))
        return space

    @classmethod
    def whole(cls, field: FieldSpec, ambient: int) -> "Subspace":
        """field^ambient itself, with the unit vectors as its RREF."""
        return cls.from_rref(field, ambient, [{j: field.one} for j in range(ambient)],
                             range(ambient))

    def copy(self) -> "Subspace":
        """The same span, to grow on its own without eliminating again."""
        return Subspace.from_rref(self.field, self.ambient, self.sparse_rows, self.pivots)

    @property
    def rows(self) -> list[list]:
        """The dense RREF rows in pivot order; read-only, rebuilt after an `add`."""
        if self._dense is None:
            self._dense = [_dense_row(self.rref[p], self.ambient) for p in self.pivots]
        return self._dense

    @property
    def sparse_rows(self) -> list[dict]:
        """The sparse RREF rows in pivot order; read-only."""
        return [self.rref[p] for p in self.pivots]

    def __len__(self) -> int:
        return len(self.pivots)

    def __eq__(self, other) -> bool:
        """Canonical RREFs are equal exactly when the spans are."""
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.rref == other.rref)

    def _sparse(self, vec) -> dict:
        """A vector of this ambient space as its sparse canonical entries: a
        dense list is checked and canonicalised, and a sparse dict of
        canonical scalars is taken as it is."""
        if type(vec) is dict:
            return vec
        if len(vec) != self.ambient:
            raise InputFormatError("vector length does not match the ambient dimension")
        return _sparse_row(self.field.coerce_row(vec))

    def _residual(self, vec: dict) -> dict:
        """vec minus its entry at each pivot times that pivot's row (vec
        itself when it meets no pivot); empty exactly for a member."""
        rref = self.rref
        hits = [(p, vec[p]) for p in vec if p in rref]
        if not hits:
            return vec
        res = dict(vec)
        for p, c in hits:
            _add_multiple(self.field.char, res, -c, rref[p])
        return res

    def reduce(self, vec):
        """Residual of vec, a dense list or a sparse dict, after clearing its
        entries at the pivot columns, in vec's own form (a sparse vec that
        meets no pivot is returned itself)."""
        res = self._residual(self._sparse(vec))
        return res if type(vec) is dict else _dense_row(res, self.ambient)

    def contains(self, vec) -> bool:
        return not self._residual(self._sparse(vec))

    def coords(self, vec) -> list | None:
        """Coordinates of vec, a dense list (coerced) or a sparse dict of
        canonical scalars (taken as it is), in `rows`, or None when vec is
        outside."""
        entries = self.pivot_entries(self._sparse(vec))
        return None if entries is None else [entries.get(p, 0) for p in self.pivots]

    def pivot_entries(self, vec: dict) -> dict | None:
        """The coordinates of a sparse vector of canonical scalars keyed by
        pivot column, {pivot: coefficient of its row}, or None when vec is
        outside: a member's coordinates are its entries at the pivots."""
        if self._residual(vec):
            return None
        rref = self.rref
        return {p: x for p, x in vec.items() if p in rref}

    def add(self, vec) -> bool:
        """Extend the span by vec, a dense list (coerced) or a sparse dict of
        canonical scalars (taken as it is, not kept); False (and no change)
        if it is inside."""
        vec = self._sparse(vec)
        res = self._residual(vec)
        if not res:
            return False
        f = self.field
        lead = min(res)
        if res[lead] != 1:
            inv = f.inv(res[lead])
            res = {j: f.mul(inv, a) for j, a in res.items()}
        elif res is vec:
            res = dict(vec)
        rref = self.rref
        for p, row in rref.items():
            c = row.get(lead)
            if c:
                row = dict(row)
                _add_multiple(f.char, row, -c, res)
                rref[p] = row
        rref[lead] = res
        insort(self.pivots, lead)
        self._dense = None
        return True


def echelon(m: MatrixExact) -> tuple[MatrixExact, tuple[int, ...]]:
    """Canonical reduced row echelon form and its pivot columns."""
    space = Subspace(m.field, m.ncols, m.rows)
    return MatrixExact.trusted(m.field, space.rows, m.ncols), tuple(space.pivots)


def rank_kernel(field: FieldSpec, rows: list[dict], n: int) -> tuple[int, list[dict]]:
    """Rank of the matrix with these sparse rows ({column: scalar} of its
    nonzero entries, canonical scalars, n columns) and the canonical RREF of
    its right kernel, as sparse rows in pivot order."""
    mirrored = Subspace(field, n, ({n - 1 - j: x for j, x in row.items()} for row in rows))
    # the kernel vector of free column j: 1 at j, and minus row[j] at the
    # pivot of each RREF row; a fully reduced row is 0 at every other pivot
    pivots = {n - 1 - p for p in mirrored.pivots}
    kernel = {j: {j: field.one} for j in range(n) if j not in pivots}
    for p, row in mirrored.rref.items():
        for j, x in row.items():
            if j != p:
                kernel[n - 1 - j][n - 1 - p] = field.neg(x)
    basis = [kernel[j] for j in sorted(kernel)]
    # A*k = 0: each row times each kernel vector over their common support,
    # summed through holding[j] = {t: entry j of kernel vector t}
    holding = [{} for _ in range(n)]
    for t, vec in enumerate(basis):
        for j, x in vec.items():
            holding[j][t] = x
    check(not any(_push(field.char, holding, row) for row in rows), "kernel basis fails A*k = 0")
    check(len(pivots) + len(kernel) == n, "rank-nullity violated")
    return len(pivots), basis


def row_space(field: FieldSpec, vectors: list[list], ambient: int) -> Subspace:
    """The span of `vectors` in field^ambient, held as its canonical RREF."""
    return Subspace(field, ambient, vectors)


def intersect_spaces(a: Subspace, b: Subspace) -> Subspace:
    """The meet of two spans in one ambient space (Zassenhaus): in the RREF of
    the rows (a | a) and (b | 0), the rows with a pivot in the right half are
    0 on the left and their right halves are the RREF of the meet."""
    n = a.ambient
    joint = Subspace(a.field, 2 * n, [{**r, **{n + j: x for j, x in r.items()}}
                                      for r in a.sparse_rows] + b.sparse_rows)
    meet = [p for p in joint.pivots if p >= n]
    return Subspace.from_rref(a.field, n, [{j - n: x for j, x in joint.rref[p].items()}
                                           for p in meet], [p - n for p in meet])
