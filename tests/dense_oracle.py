"""The dense-row `Subspace` and `rank_kernel` that `grkoszul.exactlin` ran
before it kept its RREF sparse, kept as a test oracle.

Every vector is a full list of scalars; each `add` clears the new vector at
every pivot in turn, normalises it and clears its lead column from the rows
kept so far.  The tests hold the sparse implementation to these results on
the same inputs.
"""

from bisect import bisect_left

from grkoszul.errors import InputFormatError, check
from grkoszul.exactlin import FieldSpec, MatrixExact


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
