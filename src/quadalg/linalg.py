"""Exact rational linear algebra: matrices, canonical subspaces, kernels.

Everything is computed over the rationals with `fractions.Fraction`; there is
no floating point anywhere in this package.  Subspaces are stored through
their reduced row-echelon basis, which is unique, so subspace equality is
plain equality of basis matrices and every operation that returns a subspace
returns a canonical object.

Row reduction is performed fraction-free on sparse integer rows internally
(rows are scaled by the lcm of their denominators and kept gcd-reduced);
results are normalised back to Fractions with pivot entries equal to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

Scalar = Fraction
Vec = tuple[Fraction, ...]
RowLike = Union[Sequence, Mapping[int, object]]

ZERO = Fraction(0)
ONE = Fraction(1)


def unit_vector(n: int, i: int) -> Vec:
    """The i-th standard basis vector of length n."""
    return tuple(ONE if j == i else ZERO for j in range(n))


class LinAlgError(ValueError):
    """Dimension mismatch, singular solve, or malformed input."""


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed; indicates a bug."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured coordinate-word cap."""


@dataclass(frozen=True)
class Limits:
    """Resource guard for tensor-degree computations.

    ``max_words`` caps the number of coordinate words n**degree that any
    single graded component is allowed to have.
    """

    max_words: int = 10 ** 6

    def check_words(self, ambient: int, degree: int) -> None:
        if ambient ** degree > self.max_words:
            raise ResourceLimitError(
                f"{ambient}^{degree} coordinate words exceed the cap of "
                f"{self.max_words}")


DEFAULT_LIMITS = Limits()


# ---------------------------------------------------------------------------
# sparse integer elimination core
# ---------------------------------------------------------------------------

def _to_int_row(row: RowLike) -> dict[int, int]:
    """Scale a rational row to a content-free integer row."""
    if isinstance(row, Mapping):
        items = [(c, Fraction(v)) for c, v in row.items() if v]
    else:
        items = [(c, Fraction(v)) for c, v in enumerate(row) if v]
    if not items:
        return {}
    den = reduce(lcm, (v.denominator for _, v in items), 1)
    out = {c: int(v * den) for c, v in items}
    g = reduce(gcd, (abs(v) for v in out.values()))
    if g > 1:
        out = {c: v // g for c, v in out.items()}
    return out


def _strip(row: dict[int, int]) -> dict[int, int]:
    g = reduce(gcd, (abs(v) for v in row.values()))
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _axpy(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a*row - b*other with zero entries dropped."""
    out = {c: a * v for c, v in row.items()} if a != 1 else dict(row)
    for c, v in other.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _forward_reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]):
    """Reduce ``row`` against the pivot rows; return (lead, row) or (None, {})."""
    while row:
        lead = min(row)
        p = pivots.get(lead)
        if p is None:
            if row[lead] < 0:
                row = {c: -v for c, v in row.items()}
            return lead, _strip(row)
        a, b = p[lead], row[lead]
        g = gcd(a, b)
        row = _axpy(a // g, row, b // g, p)
        if row:
            row = _strip(row)
    return None, {}


def _rref_int(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Full reduced row echelon form; returns {pivot column: integer row}.

    Pivot entries are positive and every pivot column is cleared from all
    other rows; rows are content-free.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        lead, red = _forward_reduce(dict(r), pivots)
        if lead is not None:
            pivots[lead] = red
    for pc in sorted(pivots, reverse=True):
        prow = pivots[pc]
        b = prow[pc]
        for qc in list(pivots):
            if qc >= pc:
                continue
            qrow = pivots[qc]
            a = qrow.get(pc)
            if a:
                g = gcd(a, b)
                pivots[qc] = _strip(_axpy(b // g, qrow, a // g, prow))
    return pivots


def _rank_int(rows: Iterable[dict[int, int]]) -> int:
    """Rank by forward elimination only (no back substitution)."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        lead, red = _forward_reduce(dict(r), pivots)
        if lead is not None:
            pivots[lead] = red
    return len(pivots)


def _pivots_to_fraction_rows(pivots: dict[int, dict[int, int]], ncols: int) -> tuple[Vec, ...]:
    out = []
    for pc in sorted(pivots):
        r = pivots[pc]
        pv = r[pc]
        dense = [ZERO] * ncols
        for c, v in r.items():
            dense[c] = Fraction(v, pv)
        out.append(tuple(dense))
    return tuple(out)


# ---------------------------------------------------------------------------
# dense rational matrices
# ---------------------------------------------------------------------------

class RrefResult(NamedTuple):
    matrix: "Matrix"
    pivots: tuple[int, ...]
    rank: int


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals (rows of Fractions)."""

    entries: tuple[Vec, ...]
    cols: int

    @staticmethod
    def from_rows(rows: Iterable[Sequence], cols: int | None = None) -> "Matrix":
        ent = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if cols is None:
            if not ent:
                raise LinAlgError("column count required for an empty matrix")
            cols = len(ent[0])
        for row in ent:
            if len(row) != cols:
                raise LinAlgError("ragged rows in matrix constructor")
        return Matrix(ent, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(unit_vector(n, i) for i in range(n)), n)

    @staticmethod
    def zero(r: int, c: int) -> "Matrix":
        return Matrix(tuple(tuple(ZERO for _ in range(c)) for _ in range(r)), c)

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        vals = [Fraction(v) for v in values]
        n = len(vals)
        return Matrix(tuple(tuple(vals[i] if i == j else ZERO for j in range(n))
                            for i in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)), self.rows)

    def scale(self, k) -> "Matrix":
        k = Fraction(k)
        return Matrix(tuple(tuple(k * v for v in row) for row in self.entries),
                      self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise LinAlgError("shape mismatch in addition")
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.entries, other.entries)),
                      self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in multiplication")
        ot = other.transpose()
        return Matrix(tuple(tuple(sum((a * b for a, b in zip(row, col)), ZERO)
                                  for col in ot.entries)
                            for row in self.entries), other.cols)

    def mul_row(self, v: Sequence) -> Vec:
        """Row vector times matrix: v . self."""
        if len(v) != self.rows:
            raise LinAlgError("length mismatch in row multiplication")
        return tuple(sum((Fraction(v[i]) * self.entries[i][j] for i in range(self.rows)),
                         ZERO) for j in range(self.cols))

    def mul_col(self, v: Sequence) -> Vec:
        """Matrix times column vector, returned as a flat tuple."""
        if len(v) != self.cols:
            raise LinAlgError("length mismatch in column multiplication")
        return tuple(sum((row[j] * Fraction(v[j]) for j in range(self.cols)), ZERO)
                     for row in self.entries)

    def is_zero(self) -> bool:
        return all(not v for row in self.entries for v in row)

    def is_identity(self) -> bool:
        return (self.rows == self.cols and
                all(self.entries[i][j] == (ONE if i == j else ZERO)
                    for i in range(self.rows) for j in range(self.cols)))

    def rref(self) -> RrefResult:
        piv = _rref_int(_to_int_row(r) for r in self.entries)
        rows = _pivots_to_fraction_rows(piv, self.cols)
        return RrefResult(Matrix(rows, self.cols), tuple(sorted(piv)), len(piv))

    def rank(self) -> int:
        return _rank_int(_to_int_row(r) for r in self.entries)

    def kernel(self) -> "Subspace":
        """Right kernel {v : self . v = 0} as a canonical subspace."""
        red, piv, rank = self.rref()
        free = [c for c in range(self.cols) if c not in set(piv)]
        rows = []
        for cf in free:
            v = [ZERO] * self.cols
            v[cf] = ONE
            for i, p in enumerate(piv):
                v[p] = -red.entries[i][cf]
            rows.append(tuple(v))
        return Subspace.from_spanning(rows, self.cols)

    def solve(self, b: Sequence) -> Vec | None:
        """A particular solution x of self . x = b, or None if inconsistent."""
        if len(b) != self.rows:
            raise LinAlgError("length mismatch in solve")
        aug = Matrix.from_rows(
            [tuple(row) + (Fraction(b[i]),) for i, row in enumerate(self.entries)],
            self.cols + 1)
        red, piv, rank = aug.rref()
        if self.cols in piv:
            return None
        x = [ZERO] * self.cols
        for i, p in enumerate(piv):
            x[p] = red.entries[i][self.cols]
        return tuple(x)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise LinAlgError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix.from_rows(
            [tuple(row) + unit_vector(n, i) for i, row in enumerate(self.entries)],
            2 * n)
        red, piv, rank = aug.rref()
        if piv[:n] != tuple(range(n)) or rank != n:
            raise LinAlgError("matrix is singular")
        return Matrix(tuple(row[n:] for row in red.entries), n)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q**ambient held by its unique RREF basis."""

    ambient: int
    basis: Matrix
    pivots: tuple[int, ...]

    @staticmethod
    def from_spanning(rows: Iterable[RowLike], ambient: int) -> "Subspace":
        piv = _rref_int(_to_int_row(r) for r in rows)
        if piv and max(piv) >= ambient:
            raise LinAlgError("spanning row longer than the ambient dimension")
        dense = _pivots_to_fraction_rows(piv, ambient)
        return Subspace(ambient, Matrix(dense, ambient), tuple(sorted(piv)))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix((), ambient), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, Matrix.identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def basis_rows(self) -> tuple[Vec, ...]:
        return self.basis.entries

    @cached_property
    def sparse_rows(self) -> list[tuple[int, dict[int, Fraction]]]:
        """Each basis row as (pivot column, {column: nonzero entry})."""
        out = []
        for p, row in zip(self.pivots, self.basis.entries):
            out.append((p, {c: v for c, v in enumerate(row) if v}))
        return out

    def reduce(self, vec: Sequence) -> Vec:
        """Canonical residue of vec modulo this subspace.

        The residue is zero exactly on the pivot columns of the basis, so it
        is the canonical representative of the class of vec.
        """
        if len(vec) != self.ambient:
            raise LinAlgError("vector length does not match the ambient dimension")
        v = [Fraction(x) for x in vec]
        for pivot, row in self.sparse_rows:
            c = v[pivot]
            if c:
                for col, val in row.items():
                    v[col] -= c * val
        return tuple(v)

    def reduce_sparse(self, vec: Mapping[int, object]) -> dict[int, Fraction]:
        v = {c: Fraction(x) for c, x in vec.items() if x}
        for pivot, row in self.sparse_rows:
            c = v.get(pivot)
            if c:
                for col, val in row.items():
                    nv = v.get(col, ZERO) - c * val
                    if nv:
                        v[col] = nv
                    else:
                        v.pop(col, None)
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)

    def coordinates(self, vec: Sequence) -> Vec | None:
        """Coordinates of vec in the RREF basis, or None if not a member."""
        if not self.contains(vec):
            return None
        return tuple(Fraction(vec[p]) for p in self.pivots)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise LinAlgError("ambient mismatch in subspace sum")
        return Subspace.from_spanning(
            list(self.basis.entries) + list(other.basis.entries), self.ambient)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace, in dual coordinates."""
        if self.dim == 0:
            return Subspace.full(self.ambient)
        return self.basis.kernel()

    def kron(self, other: "Subspace") -> "Subspace":
        """Tensor (Kronecker) product subspace.

        The Kronecker products of two RREF bases, taken in row-major order,
        already form an RREF basis, so no elimination is needed.
        """
        amb = self.ambient * other.ambient
        rows = []
        pivots = []
        for pu, u in zip(self.pivots, self.basis.entries):
            for pv, v in zip(other.pivots, other.basis.entries):
                dense = [ZERO] * amb
                for i, a in enumerate(u):
                    if a:
                        base = i * other.ambient
                        for j, b in enumerate(v):
                            if b:
                                dense[base + j] = a * b
                rows.append(tuple(dense))
                pivots.append(pu * other.ambient + pv)
        return Subspace(amb, Matrix(tuple(rows), amb), tuple(pivots))
