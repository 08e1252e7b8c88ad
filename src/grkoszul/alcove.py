"""Root data and affine Weyl combinatorics on the weight lattice.

Conventions.  Weights carry integer coordinates in the fundamental-weight
basis, so dominance of a single weight is coordinatewise non-negativity,
while the order relation "mu <= lam iff lam - mu is a non-negative integral
combination of simple roots" goes through the inverse Cartan matrix.  The
Cartan matrix is stored with cartan[i][j] equal to the pairing of the j-th
simple root against the i-th simple coroot; column j therefore holds the
fundamental-weight coordinates of the j-th simple root.  Short roots are
normalised to squared length 2.

The affine Weyl group W ltimes eZPhi acts on the rho-shifted space: an
element is a pair (matrix, translation) sending x to matrix*x + translation,
and its dot action on a weight is lam -> element(lam + rho) - rho.  The base
cell is the antidominant one, bounded by the walls (x, alpha_i^v) = 0 for
simple alpha_i and (x, alpha_0^v) = -e for the maximal short root alpha_0;
lengths are counts of arrangement hyperplanes (x, alpha^v) = e*m strictly
separating a point from the interior of the base cell.

Integer coordinates.  Geometry runs in the rho-shifted space scaled by the
Coxeter number h: the interior point (-e/h, ..., -e/h) of the base cell
becomes (-e, ..., -e), an element sends a scaled point X to
finite_part*X + h*translation, and the hyperplane (x, alpha^v) = e*m becomes
(X, alpha^v) = e*h*m, so every pairing and every hyperplane count is integer
floor division.  Simple-root coordinates of weights are carried as integers
scaled by the least common denominator of the inverse Cartan matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product
from math import lcm

from .errors import InputFormatError, check, require


@dataclass(frozen=True)
class Weight:
    """Integer vector in the fundamental-weight basis.

    Instances are immutable and hashable; arithmetic stays in the weight
    lattice.  Sorting for deterministic output uses the coordinate tuple
    explicitly (never a comparison operator, which could be mistaken for
    the dominance order).
    """

    coordinates: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coordinates)
        for c in coords:
            if not isinstance(c, int):
                raise InputFormatError(f"weight coordinates must be integers, got {c!r}")
        object.__setattr__(self, "coordinates", coords)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coordinates)

    def __add__(self, other: "Weight") -> "Weight":
        require(len(self.coordinates) == len(other.coordinates), "rank mismatch")
        return Weight(tuple(a + b for a, b in zip(self.coordinates, other.coordinates)))

    def __sub__(self, other: "Weight") -> "Weight":
        require(len(self.coordinates) == len(other.coordinates), "rank mismatch")
        return Weight(tuple(a - b for a, b in zip(self.coordinates, other.coordinates)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coordinates))

    def __mul__(self, scalar: int) -> "Weight":
        require(isinstance(scalar, int), "weights scale by integers only")
        return Weight(tuple(scalar * a for a in self.coordinates))

    __rmul__ = __mul__


def _chain_cartan(rank: int) -> list[list[int]]:
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        cartan[i][i + 1] = -1
        cartan[i + 1][i] = -1
    return cartan


def _cartan_data(cartan_type: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """Cartan matrix and symmetrizer (half squared lengths, short = 1)."""
    if cartan_type == "A" and rank >= 1:
        return _chain_cartan(rank), [1] * rank
    if cartan_type == "B" and rank >= 2:
        cartan = _chain_cartan(rank)
        cartan[rank - 1][rank - 2] = -2
        return cartan, [2] * (rank - 1) + [1]
    if cartan_type == "C" and rank >= 2:
        cartan = _chain_cartan(rank)
        cartan[rank - 2][rank - 1] = -2
        return cartan, [1] * (rank - 1) + [2]
    if cartan_type == "D" and rank >= 4:
        cartan = _chain_cartan(rank)
        # Fork: the last node hangs off node rank-3 instead of rank-2.
        cartan[rank - 1][rank - 2] = 0
        cartan[rank - 2][rank - 1] = 0
        cartan[rank - 1][rank - 3] = -1
        cartan[rank - 3][rank - 1] = -1
        return cartan, [1] * rank
    if cartan_type == "E" and rank in (6, 7, 8):
        cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if rank >= 7:
            edges.append((5, 6))
        if rank == 8:
            edges.append((6, 7))
        for i, j in edges:
            cartan[i][j] = -1
            cartan[j][i] = -1
        return cartan, [1] * rank
    if cartan_type == "F" and rank == 4:
        cartan = _chain_cartan(4)
        cartan[2][1] = -2
        return cartan, [2, 2, 1, 1]
    if cartan_type == "G" and rank == 2:
        return [[2, -3], [-1, 2]], [1, 3]
    raise InputFormatError(f"unsupported Cartan type {cartan_type}{rank}")


def _root_string_neighbors(cartan: list[list[int]], roots: set[tuple[int, ...]],
                           beta: tuple[int, ...], i: int) -> bool:
    """Whether beta + alpha_i is a root, by the root-string count q = p - pairing."""
    rank = len(cartan)
    pairing = sum(beta[j] * cartan[i][j] for j in range(rank))
    down = list(beta)
    p = 0
    while True:
        down[i] -= 1
        if tuple(down) in roots:
            p += 1
        else:
            break
    return p - pairing >= 1


def _positive_roots(cartan: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    rank = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots: set[tuple[int, ...]] = set(simples)
    frontier = list(simples)
    while frontier:
        grown: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(rank):
                if _root_string_neighbors(cartan, roots, beta, i):
                    up = list(beta)
                    up[i] += 1
                    candidate = tuple(up)
                    if candidate not in roots:
                        roots.add(candidate)
                        grown.append(candidate)
        frontier = grown
    return tuple(sorted(roots, key=lambda r: (sum(r), r)))


def _fraction_inverse(matrix: list[list[int]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(matrix)
    work = [[Fraction(matrix[i][j]) for j in range(n)]
            + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


@dataclass(frozen=True)
class RootDatum:
    """Irreducible root datum with all derived constants precomputed.

    positive_roots and max_short_root are in simple-root coordinates;
    fundamental_weights holds each such weight in simple-root coordinates
    (column of the inverse Cartan matrix); w0_matrix acts on
    fundamental-weight coordinates.
    """

    cartan_type: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[tuple[int, ...], ...]
    fundamental_weights: tuple[tuple[Fraction, ...], ...]
    rho: Weight
    coxeter_number: int
    max_short_root: tuple[int, ...]
    w0_matrix: tuple[tuple[int, ...], ...]

    @cached_property
    def _memo(self) -> dict:
        return {}

    def memoized(self, key, build):
        """build(), computed once per key for the life of this datum; for
        results that depend on the datum and the key alone and that no
        caller changes."""
        memo = self._memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    @cached_property
    def inverse_cartan(self) -> tuple[tuple[Fraction, ...], ...]:
        return _fraction_inverse([list(row) for row in self.cartan])

    @cached_property
    def _coroot_table(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return {root: self._coroot(root) for root in self.positive_roots}

    @cached_property
    def _coroot_heights(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(coroot, height) per positive root; the scaled base point
        (-e, ..., -e) pairs to -e*height against the coroot."""
        return tuple((cv, sum(cv)) for cv in map(self._coroot_table.get, self.positive_roots))

    @cached_property
    def _root_lattice(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(d, d * inverse Cartan) with d the least common denominator of the
        inverse Cartan matrix: simple-root coordinates times d, as integers."""
        inv = self.inverse_cartan
        d = lcm(*(x.denominator for row in inv for x in row))
        return d, tuple(tuple(int(x * d) for x in row) for row in inv)

    def scaled_root_coords(self, weight: Weight) -> tuple[int, ...]:
        """Simple-root coordinates of weight times d (see _root_lattice)."""
        return tuple(sum(a * x for a, x in zip(row, weight.coordinates))
                     for row in self._root_lattice[1])

    @cached_property
    def _root_weights(self) -> tuple[tuple[int, ...], ...]:
        """Positive roots in fundamental-weight coordinates."""
        return tuple(self.root_weight(root).coordinates for root in self.positive_roots)

    def root_norm(self, root: tuple[int, ...]) -> int:
        total = 0
        for i in range(self.rank):
            if root[i] == 0:
                continue
            for j in range(self.rank):
                total += root[i] * root[j] * self.symmetrizer[i] * self.cartan[i][j]
        return total

    def _coroot(self, root: tuple[int, ...]) -> tuple[int, ...]:
        norm = self.root_norm(root)
        coords = []
        for j in range(self.rank):
            num = 2 * root[j] * self.symmetrizer[j]
            check(num % norm == 0, "coroot coordinates must be integral")
            coords.append(num // norm)
        return tuple(coords)

    def coroot(self, root: tuple[int, ...]) -> tuple[int, ...]:
        cached = self._coroot_table.get(root)
        return cached if cached is not None else self._coroot(root)

    def pairing(self, weight: Weight, root: tuple[int, ...]) -> int:
        cv = self.coroot(root)
        return sum(c * x for c, x in zip(cv, weight.coordinates))

    def shifted_pairing(self, point: tuple, root: tuple[int, ...]):
        cv = self.coroot(root)
        return sum(c * x for c, x in zip(cv, point))

    def root_weight(self, root: tuple[int, ...]) -> Weight:
        coords = tuple(sum(self.cartan[k][j] * root[j] for j in range(self.rank))
                       for k in range(self.rank))
        return Weight(coords)

    def simple_root(self, i: int) -> Weight:
        require(0 <= i < self.rank, "simple root index out of range")
        return Weight(tuple(self.cartan[k][i] for k in range(self.rank)))

    def to_root_coords(self, weight: Weight) -> tuple[Fraction, ...]:
        inv = self.inverse_cartan
        return tuple(sum(inv[i][k] * weight.coordinates[k] for k in range(self.rank))
                     for i in range(self.rank))

    def root_inner(self, root: tuple, weight: Weight) -> int | Fraction:
        """(root, weight), root in simple-root coordinates: (alpha_i, nu) = s_i nu_i."""
        return sum(r * s * x for r, s, x in zip(root, self.symmetrizer, weight.coordinates))

    def w0(self, weight: Weight) -> Weight:
        return Weight(tuple(sum(row[j] * weight.coordinates[j] for j in range(self.rank))
                            for row in self.w0_matrix))

    def star(self, weight: Weight) -> Weight:
        return -self.w0(weight)


def _simple_reflection_matrix(cartan: tuple[tuple[int, ...], ...], i: int) -> list[list[int]]:
    rank = len(cartan)
    mat = [[1 if r == c else 0 for c in range(rank)] for r in range(rank)]
    for k in range(rank):
        mat[k][i] -= cartan[k][i]
    return mat


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _affine_product(a, b):
    """(finite part, translation) of a after b, both given as such pairs."""
    (ma, ta), (mb, tb) = a, b
    return _mat_mul(ma, mb), tuple(x + t for x, t in zip(_mat_vec(ma, tb), ta))


def _identity_matrix(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))


def root_datum_build(cartan_type: str, rank: int) -> RootDatum:
    """Build the root datum for an irreducible Cartan type.

    Supported: A (rank >= 1), B and C (rank >= 2), D (rank >= 4),
    E (rank 6, 7, 8), F (rank 4), G (rank 2).  Anything else is an input
    error.  Derived data are validated on the spot: symmetrizability,
    closure of the positive roots under root strings, the maximal short
    root dominating every short root, and the longest-element matrix
    squaring to the identity and negating rho.
    """
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise InputFormatError("rank must be an integer")
    cartan_list, symmetrizer = _cartan_data(cartan_type, rank)
    for i in range(rank):
        for j in range(rank):
            check(symmetrizer[i] * cartan_list[i][j] == symmetrizer[j] * cartan_list[j][i],
                  "Cartan matrix must be symmetrizable")
    cartan = tuple(tuple(row) for row in cartan_list)
    roots = _positive_roots(cartan_list)
    root_set = set(roots)
    for beta in roots:
        for i in range(rank):
            up = list(beta)
            up[i] += 1
            in_set = tuple(up) in root_set
            check(in_set == _root_string_neighbors(cartan_list, root_set, beta, i),
                  "positive roots must be closed under root strings")

    inv = _fraction_inverse(cartan_list)
    fundamental = tuple(tuple(inv[i][k] for i in range(rank)) for k in range(rank))
    rho = Weight((1,) * rank)

    datum = RootDatum(
        cartan_type=cartan_type,
        rank=rank,
        cartan=cartan,
        symmetrizer=tuple(symmetrizer),
        positive_roots=roots,
        fundamental_weights=fundamental,
        rho=rho,
        coxeter_number=0,
        max_short_root=(0,) * rank,
        w0_matrix=_identity_matrix(rank),
    )

    norms = [datum.root_norm(r) for r in roots]
    check(min(norms) == 2, "short roots must be normalised to squared length 2")
    shorts = [r for r, nm in zip(roots, norms) if nm == 2]
    alpha0 = tuple(max(r[j] for r in shorts) for j in range(rank))
    check(alpha0 in root_set, "coordinatewise maximum of short roots must be a root")
    for r in shorts:
        check(all(a >= b for a, b in zip(alpha0, r)),
              "maximal short root must dominate all short roots")
    object.__setattr__(datum, "max_short_root", alpha0)
    object.__setattr__(datum, "coxeter_number", datum.pairing(rho, alpha0) + 1)

    # rho really is the sum of the fundamental weights, in both bases.
    rho_roots = datum.to_root_coords(rho)
    for i in range(rank):
        check(rho_roots[i] == sum(fundamental[k][i] for k in range(rank)),
              "rho must equal the sum of the fundamental weights")

    # Longest element: fold rho to the antidominant chamber, composing the
    # simple reflections; the walk crosses each positive wall exactly once.
    point = list(rho.coordinates)
    w0 = _identity_matrix(rank)
    for _ in range(len(roots) + 1):
        i = next((k for k in range(rank) if point[k] > 0), None)
        if i is None:
            break
        refl = tuple(tuple(row) for row in _simple_reflection_matrix(cartan, i))
        point = list(_mat_vec(refl, point))
        w0 = _mat_mul(refl, w0)
    check(all(c <= 0 for c in point), "longest-element fold must terminate")
    check(_mat_mul(w0, w0) == _identity_matrix(rank), "w0 must be an involution")
    check(_mat_vec(w0, rho.coordinates) == tuple(-1 for _ in range(rank)),
          "w0 must negate rho")
    object.__setattr__(datum, "w0_matrix", w0)
    return datum


def dominant_conjugate(rd: RootDatum, weight: Weight) -> Weight:
    """The dominant representative of the finite Weyl group orbit."""
    point = list(weight.coordinates)
    for _ in range(len(rd.positive_roots) + 1):
        i = next((k for k in range(rd.rank) if point[k] < 0), None)
        if i is None:
            return Weight(tuple(point))
        coeff = point[i]
        for k in range(rd.rank):
            point[k] -= coeff * rd.cartan[k][i]
    check(False, "dominant fold must terminate within the length of w0")


def weyl_orbit(rd: RootDatum, weight: Weight) -> tuple[Weight, ...]:
    """The finite Weyl group orbit, sorted by coordinates."""
    seen = {weight.coordinates}
    frontier = [weight.coordinates]
    while frontier:
        grown = []
        for v in frontier:
            for i in range(rd.rank):
                image = tuple(v[k] - v[i] * rd.cartan[k][i] for k in range(rd.rank))
                if image not in seen:
                    seen.add(image)
                    grown.append(image)
        frontier = grown
    return tuple(Weight(v) for v in sorted(seen))


def is_regular(rd: RootDatum, e: int, weight: Weight) -> bool:
    """e-regularity: no pairing of weight + rho with a coroot is divisible by e."""
    require(e >= 1, "e must be a positive integer")
    shifted = [c + 1 for c in weight.coordinates]
    return all(sum(c * x for c, x in zip(cv, shifted)) % e != 0 for cv, _ in rd._coroot_heights)


@dataclass
class WeightReport:
    weight: Weight
    dominant: bool
    regular: bool
    restricted: bool
    restricted_part: Weight
    quotient_part: Weight
    star: Weight


def dominance_and_regularity(rd: RootDatum, e: int, weight: Weight) -> WeightReport:
    """Flags and the e-adic decomposition weight = restricted + e * quotient.

    The restricted part always has coordinates in [0, e); the quotient part
    is dominant exactly when the weight is.  The star involution is
    lam -> -w0(lam).
    """
    require(e >= 1, "e must be a positive integer")
    coords = weight.coordinates
    restricted_part = Weight(tuple(c % e for c in coords))
    quotient_part = Weight(tuple(c // e for c in coords))
    dominant = weight.is_dominant
    return WeightReport(
        weight=weight,
        dominant=dominant,
        regular=is_regular(rd, e, weight),
        restricted=dominant and all(c < e for c in coords),
        restricted_part=restricted_part,
        quotient_part=quotient_part,
        star=rd.star(weight),
    )


def _multiples_strictly_between(lo: int, hi: int, step: int) -> int:
    if lo > hi:
        lo, hi = hi, lo
    return max(0, -(-hi // step) - lo // step - 1)


def _scaled_base_image(rd: RootDatum, e: int, finite_part, translation) -> tuple[int, ...]:
    """Image of the scaled base point (-e, ..., -e)."""
    h = rd.coxeter_number
    return tuple(h * t - e * sum(row) for row, t in zip(finite_part, translation))


def hyperplane_length(rd: RootDatum, e: int,
                      finite_part: tuple[tuple[int, ...], ...],
                      translation: tuple[int, ...]) -> int:
    """Number of hyperplanes (x, alpha^v) = e*m separating the base cell
    from its image under x -> finite_part*x + translation."""
    require(e >= 1, "e must be a positive integer")
    image = _scaled_base_image(rd, e, finite_part, translation)
    step = e * rd.coxeter_number
    total = 0
    for cv, height in rd._coroot_heights:
        total += _multiples_strictly_between(-e * height,
                                             sum(c * x for c, x in zip(cv, image)), step)
    return total


def left_descent_walls(rd: RootDatum, e: int, finite_part, translation) -> frozenset[int]:
    """Walls of the base cell (indexed as in wall_reflections) separating it
    from the image cell: exactly the walls whose reflection, applied after
    the element, lowers its length by one (all others raise it by one)."""
    image = _scaled_base_image(rd, e, finite_part, translation)
    walls = {i for i, x in enumerate(image) if x > 0}
    cv = rd.coroot(rd.max_short_root)
    if sum(c * x for c, x in zip(cv, image)) < -e * rd.coxeter_number:
        walls.add(rd.rank)
    return frozenset(walls)


@dataclass(frozen=True)
class AffineWeylElement:
    """Element of W ltimes eZPhi as x -> finite_part*x + translation on the
    rho-shifted space, with its hyperplane-count length cached."""

    finite_part: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]
    length: int

    def apply_shifted(self, point: tuple) -> tuple:
        return tuple(x + t for x, t in zip(_mat_vec(self.finite_part, point),
                                           self.translation))

    def dot(self, rd: RootDatum, weight: Weight) -> Weight:
        shifted = tuple(c + 1 for c in weight.coordinates)
        image = self.apply_shifted(shifted)
        return Weight(tuple(x - 1 for x in image))

    def separation_length(self, rd: RootDatum, e: int) -> int:
        """Recount the separating hyperplanes and assert the cached length."""
        d, adjugate = rd._root_lattice
        require(all(sum(a * t for a, t in zip(row, self.translation)) % (d * e) == 0
                    for row in adjugate),
                "translation must lie in e times the root lattice")
        count = hyperplane_length(rd, e, self.finite_part, self.translation)
        check(count == self.length, "cached length must match the hyperplane count")
        return count


def identity_element(rank: int) -> AffineWeylElement:
    return AffineWeylElement(_identity_matrix(rank), (0,) * rank, 0)


def wall_reflections(rd: RootDatum, e: int) -> tuple[AffineWeylElement, ...]:
    """Reflections in the walls of the base cell: the rank simple walls,
    then the affine wall (x, alpha_0^v) = -e.  Each has length 1."""
    require(e >= 1, "e must be a positive integer")
    rank = rd.rank
    out = []
    for i in range(rank):
        mat = tuple(tuple(row) for row in _simple_reflection_matrix(rd.cartan, i))
        out.append(AffineWeylElement(mat, (0,) * rank, 1))
    alpha0 = rd.root_weight(rd.max_short_root).coordinates
    cv = rd.coroot(rd.max_short_root)
    mat = tuple(tuple((1 if k == j else 0) - alpha0[k] * cv[j] for j in range(rank))
                for k in range(rank))
    out.append(AffineWeylElement(mat, tuple(-e * a for a in alpha0), 1))
    return tuple(out)


@dataclass(frozen=True)
class LinkageResult:
    """Antidominant representative and minimal carrier of a weight.

    w is the minimal-length element with w . lambda_minus = weight (minimal
    coset representative when the weight is singular); length is its
    hyperplane count; depth is the total hyperplane depth sum over positive
    roots (None for singular weights, where the defining strict inequalities
    fail); facet lists the arrangement hyperplanes (root, m) containing
    weight + rho, empty exactly when the weight is e-regular.
    """

    weight: Weight
    lambda_minus: Weight
    w: AffineWeylElement
    length: int
    depth: int | None
    regular: bool
    facet: tuple[tuple[tuple[int, ...], int], ...]


def linkage(rd: RootDatum, e: int, weight: Weight) -> LinkageResult:
    """Fold a weight into the closed antidominant cell under the dot action.

    The fold reflects through strictly violated walls of the base cell only,
    so it crosses each strictly separating hyperplane exactly once; the
    accumulated element is therefore minimal in its coset even on a facet.
    Kept on the datum, so each weight is folded and checked once.
    """
    require(e >= 1, "e must be a positive integer")
    return rd.memoized(("linkage", e, weight.coordinates), lambda: _linkage(rd, e, weight))


def _linkage(rd: RootDatum, e: int, weight: Weight) -> LinkageResult:
    rank = rd.rank
    shifted = tuple(c + 1 for c in weight.coordinates)

    facet = []
    for root in rd.positive_roots:
        value = rd.shifted_pairing(shifted, root)
        if value % e == 0:
            facet.append((root, value // e))
    facet.sort()
    regular = not facet

    h = rd.coxeter_number
    strict = 0
    for cv, height in rd._coroot_heights:
        strict += _multiples_strictly_between(
            -e * height, h * sum(c * x for c, x in zip(cv, shifted)), e * h)

    walls = wall_reflections(rd, e)
    alpha0 = rd.max_short_root
    point = shifted
    w_mat = _identity_matrix(rank)
    w_trans = (0,) * rank
    steps = 0
    for _ in range(strict + 1):
        i = next((k for k in range(rank) if point[k] > 0), None)
        if i is not None:
            refl = walls[i]
        elif rd.shifted_pairing(point, alpha0) < -e:
            refl = walls[rank]
        else:
            break
        point = refl.apply_shifted(point)
        # w = w o refl accumulates the inverse of the fold (reflections are
        # involutions), so w carries lambda_minus back to the weight.
        w_mat, w_trans = _affine_product((w_mat, w_trans), (refl.finite_part, refl.translation))
        steps += 1
    check(all(c <= 0 for c in point), "fold must land in the closed base cell")
    check(rd.shifted_pairing(point, alpha0) >= -e, "fold must land in the closed base cell")
    check(steps == strict, "fold must cross each strict separator exactly once")

    lambda_minus = Weight(tuple(c - 1 for c in point))
    w = AffineWeylElement(w_mat, w_trans, strict)
    check(w.dot(rd, lambda_minus) == weight, "carrier must map the representative back")

    depth = None
    if regular:
        depth = sum(sum(c * x for c, x in zip(cv, shifted)) // e
                    for cv, _ in rd._coroot_heights)
    return LinkageResult(
        weight=weight,
        lambda_minus=lambda_minus,
        w=w,
        length=strict,
        depth=depth,
        regular=regular,
        facet=tuple(facet),
    )


def _closure_set(rd: RootDatum, e: int, gen: Weight, regular_only: bool) -> frozenset[Weight]:
    """All dominant weights below a generator (its e-regular ones when
    regular_only): breadth-first subtraction of simple roots, pruning states
    with a negative simple-root coordinate (every path to a dominant weight
    keeps those coordinates non-negative).  Simple-root coordinates are
    carried scaled by d (see _root_lattice)."""
    if not gen.is_dominant:
        raise InputFormatError(f"ideal generators must be dominant, got {gen.coordinates}")
    d = rd._root_lattice[0]
    simple = [rd.simple_root(i).coordinates for i in range(rd.rank)]
    seen = {gen.coordinates}
    frontier = [(gen.coordinates, rd.scaled_root_coords(gen))]
    for v, c in frontier:  # breadth-first: the list grows while it is walked
        for i, alpha in enumerate(simple):
            if c[i] >= d:
                image = tuple(x - a for x, a in zip(v, alpha))
                if image not in seen:
                    seen.add(image)
                    frontier.append((image, c[:i] + (c[i] - d,) + c[i + 1:]))
    collected = (Weight(v) for v in seen if min(v) >= 0)
    return frozenset(w for w in collected if not regular_only or is_regular(rd, e, w))


def _positive_root_closure(rd: RootDatum, weights) -> set[tuple[int, ...]]:
    """Dominant weights reachable by subtracting positive roots while staying
    dominant.  By Stembridge (The partial order of dominant weights, Adv.
    Math. 136, 1998) covers between dominant weights differ by a positive
    root, so this is the order ideal generated, found independently of the
    simple-root walk in _closure_set."""
    seen = {w.coordinates for w in weights}
    frontier = list(seen)
    for v in frontier:  # breadth-first: the list grows while it is walked
        for beta in rd._root_weights:
            image = tuple(x - b for x, b in zip(v, beta))
            if min(image) >= 0 and image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


@dataclass(frozen=True)
class WeightIdealSet:
    """Explicit finite set of dominant weights for one root datum and one e.

    regular_only marks sets living inside the e-regular weights (order
    ideals are then taken within that universe).  The closed flag claims
    downward closure and is verified on construction.
    """

    datum: RootDatum
    e: int
    weights: tuple[Weight, ...]
    closed: bool
    regular_only: bool = False

    def __post_init__(self) -> None:
        require(self.e >= 1, "e must be a positive integer")
        normalized = tuple(sorted(set(self.weights), key=lambda w: w.coordinates))
        object.__setattr__(self, "weights", normalized)
        for w in normalized:
            if not w.is_dominant:
                raise InputFormatError(f"weights must be dominant, got {w.coordinates}")
            if self.regular_only and not is_regular(self.datum, self.e, w):
                raise InputFormatError(
                    f"weight {w.coordinates} is singular in a regular-only set")
        if self.closed:
            present = {w.coordinates for w in normalized}
            missing = sorted(
                v for v in _positive_root_closure(self.datum, normalized) - present
                if not self.regular_only or is_regular(self.datum, self.e, Weight(v)))
            if missing:
                raise InputFormatError(
                    f"set marked closed is not an order ideal; missing {missing}")

    @cached_property
    def _index(self) -> frozenset:
        return frozenset(self.weights)

    @cached_property
    def _a1(self) -> int:
        return a1_value(self.datum, self.e, self.weights)

    def __contains__(self, weight: Weight) -> bool:
        return weight in self._index

    def __len__(self) -> int:
        return len(self.weights)


def ideal_closure(rd: RootDatum, e: int, generators,
                  regular_only: bool = False) -> WeightIdealSet:
    """The order ideal generated by the given dominant weights: the union of
    the principal ideals below them, each walked once per datum, skipping a
    generator the union already holds.  The ideal is interned on the datum
    by content, so each distinct one is sorted and verified once."""
    union: set[Weight] = set()
    for gen in generators:
        if gen not in union:  # an order ideal holding gen holds all below it
            union.update(rd.memoized(("principal", e, regular_only, gen.coordinates),
                                     lambda: _closure_set(rd, e, gen, regular_only)))
    content = frozenset(union)
    return rd.memoized(("ideal", e, regular_only, content), lambda: WeightIdealSet(
        rd, e, tuple(content), closed=True, regular_only=regular_only))


def restricted_weights(rd: RootDatum, e: int) -> tuple[Weight, ...]:
    """The e-restricted box: all coordinates in [0, e)."""
    require(e >= 1, "e must be a positive integer")
    return tuple(Weight(v) for v in iter_product(range(e), repeat=rd.rank))


def gamma_res(rd: RootDatum, e: int) -> WeightIdealSet:
    """Order ideal generated by the e-restricted weights."""
    return rd.memoized(("gamma_res", e),
                       lambda: ideal_closure(rd, e, restricted_weights(rd, e)))


def gamma_res_reg(rd: RootDatum, e: int) -> WeightIdealSet:
    """e-regular members of the restricted-generated ideal, as an ideal in
    the regular universe."""
    return rd.memoized(("gamma_res_reg", e), lambda: ideal_closure(
        rd, e, restricted_weights(rd, e), regular_only=True))


def fe_image(rd: RootDatum, e: int, xi: Weight) -> Weight:
    """The fattening map: 2(e-1)rho + w0(restricted part) + e * quotient part;
    kept on the datum."""
    require(e >= 1, "e must be a positive integer")
    require(xi.is_dominant, "the fattening map takes dominant weights")

    def build() -> Weight:
        xi0 = Weight(tuple(c % e for c in xi.coordinates))
        xi1 = Weight(tuple(c // e for c in xi.coordinates))
        image = 2 * (e - 1) * rd.rho + rd.w0(xi0) + e * xi1
        check(image.is_dominant, "fattening image must be dominant")
        return image

    return rd.memoized(("fe_image", e, xi.coordinates), build)


def a1_value(rd: RootDatum, e: int, weights) -> int:
    """max over the set of the pairing of the e-adic quotient part against
    the maximal short coroot."""
    cv = rd.coroot(rd.max_short_root)
    values = [sum(c * (x // e) for c, x in zip(cv, w.coordinates)) for w in weights]
    require(values, "a1 of an empty set is undefined")
    return max(values)


@dataclass
class FattenReport:
    """stages[k] is the k-1 times fattened ideal (stages[0] is the plain
    closure of the input); a1_values aligns with stages.  The two fatness
    verdicts judge the final stage: literal membership of the shifted
    regular restricted weights, and membership of their fattening images.
    Passing n = -1 therefore judges the input ideal itself."""

    stages: tuple[WeightIdealSet, ...]
    a1_values: tuple[int, ...]

    @cached_property
    def efat_literal(self) -> bool:
        """Computed on first read, like `efat_operational`, from the final
        stage's datum and e."""
        final = self.stages[-1]
        rd, e = final.datum, final.e
        shift = (e - 1) * rd.rho
        return all((lam + shift) in final for lam in gamma_res_reg(rd, e).weights)

    @cached_property
    def efat_operational(self) -> bool:
        final = self.stages[-1]
        rd, e = final.datum, final.e
        return all(fe_image(rd, e, lam) in final for lam in gamma_res_reg(rd, e).weights)


def fatten(rd: RootDatum, e: int, psi: WeightIdealSet, n: int) -> FattenReport:
    """Iterated fattening: stage -1 is the ideal closure of psi (psi itself
    when it is closed, which its construction verified), stage k the ideal
    generated by the fattening images of stage k-1."""
    require(n >= -1, "fattening depth must be at least -1")
    require(psi.datum == rd and psi.e == e, "ideal set must match the root datum and e")
    require(len(psi.weights) > 0, "fattening is defined for nonempty sets")
    stage = psi if psi.closed else ideal_closure(rd, e, psi.weights, psi.regular_only)
    stages = [stage]
    for _ in range(n + 1):
        gens = []
        for xi in stage.weights:
            image = fe_image(rd, e, xi)
            if is_regular(rd, e, xi):
                check(is_regular(rd, e, image),
                      "fattening must preserve e-regularity")
            gens.append(image)
        stage = ideal_closure(rd, e, gens, psi.regular_only)
        stages.append(stage)

    return FattenReport(
        stages=tuple(stages),
        a1_values=tuple(s._a1 for s in stages),
    )


@dataclass
class BoundsReport:
    """Numerical bound battery for one ideal at one prime.

    a1_values[m + 1] is a1 of the m times fattened ideal, m = -1 .. m_max.
    growth_rows hold (m, a1(m), a1(-1) + 2(m+1)(h-1)); the inequality is
    asserted (strict for m >= 0).  threshold_rows hold
    (m, a1(m), (2m+3)(h-1), holds); it is asserted only when the ideal sits
    inside the restricted-generated ideal, where it is a theorem.
    pair_rows hold (m, hypothesis p >= (2m+3)(h-1), a1(m-1) + a1(m),
    2p - 2h + 2, holds).
    """

    prime: int
    coxeter_number: int
    jantzen_bound: int
    jantzen_membership: tuple[tuple[Weight, bool], ...]
    a1_values: tuple[int, ...]
    ext_vanishing: tuple[int, int, bool]
    cover_condition: tuple[int, int, bool]
    depth_values: tuple[tuple[Weight, int], ...]
    max_depth: int | None
    global_dim_bound: int | None
    growth_rows: tuple[tuple[int, int, int, bool], ...]
    threshold_rows: tuple[tuple[int, int, int, bool], ...]
    pair_rows: tuple[tuple[int, bool, int, int, bool], ...]
    restricted_subset: bool
    thresholds: tuple[tuple[str, int | None], ...]
    supplied_n: int | None


def bounds_report(rd: RootDatum, p: int, gamma: WeightIdealSet, m_max: int = 0,
                  supplied_n: int | None = None) -> BoundsReport:
    """Evaluate the whole numerical bound battery on one weight ideal.

    All quantities are computed on the ideal closure of gamma.  The Jantzen
    bound is p(p - h + 2) on (x + rho, alpha_0^v); the extension-vanishing
    condition is a1 < p - h + 1 and the cover condition
    a1 + a1(0) < 2p - 2h + 2; the global dimension bound is twice the
    maximal hyperplane depth over the e-regular members.
    """
    require(p >= 1, "p must be a positive integer")
    require(m_max >= 0, "m_max must be non-negative")
    require(gamma.datum == rd and gamma.e == p, "ideal set must match the root datum and p")
    h = rd.coxeter_number

    fattened = fatten(rd, p, gamma, m_max)
    base = fattened.stages[0]
    a1s = fattened.a1_values

    jantzen_bound = p * (p - h + 2)
    membership = tuple((w, rd.pairing(w + rd.rho, rd.max_short_root) <= jantzen_bound)
                       for w in base.weights)

    ext_lhs = a1s[0]
    ext_rhs = p - h + 1
    cover_lhs = a1s[0] + a1s[1]
    cover_rhs = 2 * p - 2 * h + 2

    depth_values = []
    for w in base.weights:
        link = linkage(rd, p, w)
        if link.regular:
            depth_values.append((w, link.depth))
    max_depth = max((d for _, d in depth_values), default=None)
    global_dim_bound = None if max_depth is None else 2 * max_depth

    growth_rows = []
    for m in range(0, m_max + 1):
        lhs = a1s[m + 1]
        rhs = a1s[0] + 2 * (m + 1) * (h - 1)
        ok = lhs < rhs
        check(ok, f"fattening growth bound must be strict at m={m}")
        growth_rows.append((m, lhs, rhs, ok))

    res_ideal = gamma_res(rd, p)
    restricted_subset = all(w in res_ideal for w in base.weights)
    threshold_rows = []
    for m in range(-1, m_max + 1):
        lhs = a1s[m + 1]
        rhs = (2 * m + 3) * (h - 1)
        ok = lhs < rhs
        if restricted_subset:
            check(ok, f"restricted-ideal threshold bound must hold at m={m}")
        threshold_rows.append((m, lhs, rhs, ok))

    pair_rows = []
    for m in range(0, m_max + 1):
        hypothesis = p >= (2 * m + 3) * (h - 1)
        lhs = a1s[m] + a1s[m + 1]
        ok = lhs < cover_rhs
        if restricted_subset and hypothesis:
            check(ok, f"paired fattening bound must hold at m={m}")
        pair_rows.append((m, hypothesis, lhs, cover_rhs, ok))

    n_for_table = supplied_n if supplied_n is not None else global_dim_bound
    thresholds = (
        ("2h-2", 2 * h - 2),
        ("4h-5", 4 * h - 5),
        ("2N(h-1)-1", None if n_for_table is None else 2 * n_for_table * (h - 1) - 1),
    )
    return BoundsReport(
        prime=p,
        coxeter_number=h,
        jantzen_bound=jantzen_bound,
        jantzen_membership=membership,
        a1_values=a1s,
        ext_vanishing=(ext_lhs, ext_rhs, ext_lhs < ext_rhs),
        cover_condition=(cover_lhs, cover_rhs, cover_lhs < cover_rhs),
        depth_values=tuple(depth_values),
        max_depth=max_depth,
        global_dim_bound=global_dim_bound,
        growth_rows=tuple(growth_rows),
        threshold_rows=tuple(threshold_rows),
        pair_rows=tuple(pair_rows),
        restricted_subset=restricted_subset,
        thresholds=thresholds,
        supplied_n=supplied_n,
    )


def partition_translate(n: int, r: int, parts, e: int) -> tuple[Weight, bool]:
    """Translate a partition of r with at most n parts to a rank n-1 weight
    by consecutive differences, and test chamber e-regularity
    (parts[i] - i pairwise distinct mod e, 1-based)."""
    require(e >= 1, "e must be a positive integer")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise InputFormatError("n must be an integer >= 2")
    parts = list(parts)
    for x in parts:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise InputFormatError(f"partition parts must be non-negative integers, got {x!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise InputFormatError("partition parts must be non-increasing")
    if len(parts) > n:
        raise InputFormatError(f"partition has {len(parts)} parts, more than n={n}")
    if sum(parts) != r:
        raise InputFormatError(f"partition sums to {sum(parts)}, expected r={r}")
    padded = parts + [0] * (n - len(parts))
    weight = Weight(tuple(padded[i] - padded[i + 1] for i in range(n - 1)))
    residues = [(padded[i] - (i + 1)) % e for i in range(n)]
    chamber = len(set(residues)) == n
    return weight, chamber
