"""Exact rational linear algebra: matrices, canonical subspaces, kernels.

Everything is computed exactly over the rationals; there is no floating
point anywhere in this package.  Subspaces are stored through the nonzero
entries of their reduced row-echelon basis, which is unique, so subspace
equality is plain equality of pivots and sparse rows and every operation
that returns a subspace returns a canonical object.

Row reduction is performed fraction-free on sparse integer rows: a row of
ints is only gcd-reduced, and any other row is read in Fractions and
scaled by the lcm of its denominators first.  A Subspace stores each basis
row as a content-free integer row with a positive pivot entry
(`int_rows`) and normalises it to `Fraction`s, pivot entry 1, only when
`rows` is first read.  Hot callers stay in integers throughout: they take
kernels with `int_kernel`, which eliminates once, with the columns
numbered from the last one down, and returns the kernel's canonical
basis; a caller that writes its rows in that numbering to begin with (the
Koszul components) calls `flipped_int_kernel` and skips the flip.  A
subspace built from those rows (an annihilator, a Koszul component) needs
no second elimination.  The elimination takes over the rows it is given
(`_echelon_int`), so callers hand it fresh ones.  Membership is that forward pass
against a subspace's own integer rows.

A vector indexed by coordinate words has one form, a sparse {coordinate:
value} map or its (coordinate, value) pairs; only the small dense Matrix
(rows of Fractions) is dense.  Every system with right-hand sides is
solved by `solve` from its augmented rows, and the X of A X = B for a
square A by `solve_square`; there is no matrix inverse.  Fractions remain
only at the edges: the rows a caller hands in, `Subspace.rows`, the
solutions of `solve` and the entries of a Matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

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
    """A computation would exceed the fixed cap on coordinate words."""


# ---------------------------------------------------------------------------
# sparse integer elimination core
# ---------------------------------------------------------------------------

def _to_int_row(row: RowLike) -> dict[int, int]:
    """Scale a rational row to a content-free integer row.

    A row of ints is only gcd-stripped; a row of ints and Fractions is
    scaled by the lcm of its denominators.  Any other value, a float or a
    bool included, raises LinAlgError: it has no exact rational meaning
    here.
    """
    # dict first: the Mapping check alone goes through the slow ABC hook
    pairs = row.items() if isinstance(row, (dict, Mapping)) else enumerate(row)
    out = {c: v for c, v in pairs if v}
    if not all(type(v) is int for v in out.values()):
        if not set(map(type, out.values())) <= {int, Fraction}:
            raise LinAlgError("row entries must be int or Fraction")
        den = lcm(*[v.denominator for v in out.values()])
        out = {c: v.numerator * (den // v.denominator) for c, v in out.items()}
    return _strip(out)


def _strip(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _axpy(a: int, row: dict[int, int], b: int, other: dict[int, int]) -> dict[int, int]:
    """a*row - b*other with zero entries dropped; row is the caller's own
    and is updated in place when a is 1."""
    out = {c: a * v for c, v in row.items()} if a != 1 else row
    for c, v in other.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def _forward_reduce(row: dict[int, int], pivots: dict[int, dict[int, int]]):
    """Reduce ``row`` against the pivot rows; return (lead, row) or (None, {}).

    Only a row that is kept is gcd-stripped; the steps before do not strip.
    """
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
    return None, {}


def _echelon_int(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Row echelon form by forward elimination only; returns {pivot column:
    integer row}, pivot entries positive, rows content-free.

    Each row is a dict with no zero entry, and it is the caller's to give
    away: it is updated in place and may be kept as a pivot row, so a
    caller hands in fresh rows (from _to_int_row, a comprehension, or an
    echelon it owns) and reads none of them afterwards."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        lead, red = _forward_reduce(r, pivots)
        if lead is not None:
            pivots[lead] = red
    return pivots


def _reduced_echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Full reduced row echelon form; returns {pivot column: integer row}.

    Pivot entries are positive and every pivot column is cleared from all
    other rows; rows are content-free.  The rows are given away as to
    _echelon_int.
    """
    pivots = _echelon_int(rows)
    # back substitution from the last row up: the rows below are already
    # reduced, so clearing the pivot columns a row holds brings in no others
    for qc in sorted(pivots, reverse=True):
        qrow = pivots[qc]
        for pc in [c for c in qrow if c != qc and c in pivots]:
            prow = pivots[pc]
            a, b = qrow[pc], prow[pc]
            g = gcd(a, b)
            qrow = _strip(_axpy(b // g, qrow, a // g, prow))
        pivots[qc] = qrow
    return pivots


def solve(rows: Iterable[RowLike],
          n: int) -> tuple[dict[int, dict[int, Fraction]], bool]:
    """Solve A X = B from the augmented rows [A | B].

    Columns below n hold the unknowns and column n + j holds right-hand side
    j; rows are rational, sparse maps or dense sequences.  Returns
    ({pivot unknown p: {j: x_p of solution j}}, consistent), zeros left
    out and every free unknown zero; there are rank A pivot unknowns, and
    consistent says that every right-hand side is attained.  The rows that
    keep a pivot below n after the forward pass are back-substituted among
    themselves, so a consistent system gets exactly its reduced echelon
    solution.
    """
    echelon = _echelon_int(_to_int_row(r) for r in rows)
    kept = [r for p, r in echelon.items() if p < n]
    out = {}
    for p, row in _reduced_echelon(kept).items():
        pv = row[p]
        out[p] = {c - n: Fraction(v, pv) for c, v in row.items() if c >= n}
    return out, len(kept) == len(echelon)


def int_kernel(rows: Iterable[Mapping[int, int]], ambient: int) -> list[dict[int, int]]:
    """The canonical basis of {x : r . x = 0 for every given row r}.

    The rows are integer rows given by their entries, zeros allowed.  The
    result is the kernel's reduced echelon basis in pivot order, each row
    content-free with a positive pivot entry: the `int_rows` of the
    kernel's Subspace, found in one elimination.

    The rows are reduced with the columns numbered from the last one down.
    In that numbering a reduced row r_p leads at its pivot p and is
    nonzero elsewhere only at free columns after p.  For each free column
    f the kernel holds L e_f - sum_p (L r_p[f] / r_p[p]) e_p, L the lcm of
    the pivot entries r_p[p] of the rows with r_p[f] != 0; it is nonzero
    only at f and at pivots before f.  Read in the original order, f is
    its leading column, L > 0 its leading entry, and no other kernel row
    is nonzero at f, which is a free column.  So after a gcd strip these
    rows are the reduced echelon basis, with pivots the free columns.
    """
    top = ambient - 1
    return flipped_int_kernel(({top - c: v for c, v in r.items() if v}
                               for r in rows), ambient)


def flipped_int_kernel(rows: Iterable[dict[int, int]],
                       ambient: int) -> list[dict[int, int]]:
    """int_kernel of rows already written in its numbering, column c at
    ambient - 1 - c, with no zero entry; the rows are given away as to
    _echelon_int, and the kernel rows come back in the original columns."""
    top = ambient - 1
    pivots = _reduced_echelon(rows)
    by_col: dict[int, list[tuple[int, int, int]]] = {}
    for p, r in pivots.items():
        pv = r[p]
        for c, v in r.items():
            if c != p:
                by_col.setdefault(c, []).append((p, pv, v))
    out = []
    for f in range(top, -1, -1):
        if f in pivots:
            continue
        terms = by_col.get(f, ())
        big = lcm(*[pv for _, pv, _ in terms])
        row = {top - f: big}
        for p, pv, v in terms:
            row[top - p] = -(big // pv) * v
        out.append(_strip(row))
    return out


SparseRow = tuple[tuple[int, Fraction], ...]
IntRow = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# dense rational matrices
# ---------------------------------------------------------------------------

def _entry(v) -> Fraction:
    """An int or a Fraction as a Matrix entry; any other value, a float or a
    bool included, raises LinAlgError, as it does for a row."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    raise LinAlgError("matrix entries must be int or Fraction")


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals (rows of Fractions)."""

    entries: tuple[Vec, ...]
    cols: int

    @staticmethod
    def from_rows(rows: Iterable[Sequence], cols: int) -> "Matrix":
        ent = tuple(tuple(v if type(v) is Fraction else _entry(v) for v in row)
                    for row in rows)
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

    @property
    def rows(self) -> int:
        return len(self.entries)

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "Matrix":
        return Matrix(tuple(tuple(self.entries[i][j] for i in range(self.rows))
                            for j in range(self.cols)), self.rows)

    def scale(self, k) -> "Matrix":
        k = _entry(k)
        return Matrix(tuple(tuple(k * v for v in row) for row in self.entries),
                      self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in multiplication")
        out = []
        for row in self.entries:
            acc = [ZERO] * other.cols
            for a, orow in zip(row, other.entries):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(tuple(out), other.cols)

    def mul_col(self, v: Sequence) -> Vec:
        """Matrix times column vector, returned as a flat tuple."""
        if len(v) != self.cols:
            raise LinAlgError("length mismatch in column multiplication")
        return self.mul_sparse_col([(j, Fraction(x)) for j, x in enumerate(v) if x])

    def mul_sparse_col(self, pairs) -> Vec:
        """Matrix times a column vector given by its nonzero (index, value)
        pairs: the sum of those columns, scaled."""
        return tuple(sum((row[j] * x for j, x in pairs), ZERO) for row in self.entries)

    def rank(self) -> int:
        return len(_echelon_int(_to_int_row(r) for r in self.entries))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def solve_square(a: Matrix, b: Matrix) -> Matrix | None:
    """The X with a @ X = b, from one `solve` on the augmented rows [a | b],
    or None when a is not square and invertible."""
    n = a.rows
    if a.cols != n:
        return None
    if b.rows != n:
        raise LinAlgError("shape mismatch in solve")
    sol, _ = solve(map(tuple.__add__, a.entries, b.entries), n)
    if len(sol) < n:
        return None
    return Matrix(tuple(tuple(sol[p].get(j, ZERO) for j in range(b.cols))
                        for p in range(n)), b.cols)


# ---------------------------------------------------------------------------
# canonical subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q**ambient held by its unique RREF basis.

    Row t of the basis has its leading entry in column pivots[t];
    int_rows[t] lists its nonzero entries as (column, integer) pairs in
    column order, scaled so that the pivot entry is positive and the
    entries have gcd 1.  Zero entries are never stored.  The Fraction rows,
    with leading 1, are only built on request; there is no dense basis.
    Vectors of Q**ambient are handed in as sparse {coordinate: value} maps.
    """

    ambient: int
    pivots: tuple[int, ...]
    int_rows: tuple[IntRow, ...]

    @staticmethod
    def from_spanning(rows: Iterable[RowLike], ambient: int) -> "Subspace":
        rows = [_to_int_row(r) for r in rows]
        if not all(type(c) is int and 0 <= c < ambient
                   for row in rows for c in row):
            raise LinAlgError("spanning row longer than the ambient dimension")
        pivots = _reduced_echelon(rows)
        order = sorted(pivots)
        return Subspace(ambient, tuple(order),
                        tuple(tuple(sorted(pivots[p].items())) for p in order))

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(range(ambient)),
                        tuple(((i, 1),) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @cached_property
    def rows(self) -> tuple[SparseRow, ...]:
        """The RREF basis rows as (column, Fraction) pairs, leading 1."""
        out = []
        for row in self.int_rows:
            pv = row[0][1]
            out.append(tuple((c, Fraction(v, pv)) for c, v in row))
        return tuple(out)

    @cached_property
    def _pivot_rows(self) -> dict[int, dict[int, int]]:
        """The integer rows as _forward_reduce takes them: {pivot: row}."""
        return {p: dict(r) for p, r in zip(self.pivots, self.int_rows)}

    def contains(self, vec: Mapping[int, object]) -> bool:
        """Whether vec reduces to zero against the integer rows."""
        return _forward_reduce(_to_int_row(vec), self._pivot_rows)[0] is None

    def coordinates(self, vec: Mapping[int, object]) -> Vec | None:
        """Coordinates of vec in the RREF basis, or None if not a member."""
        if not self.contains(vec):
            return None
        return tuple(Fraction(vec.get(p, 0)) for p in self.pivots)

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on this subspace, in dual coordinates: the
        kernel of the integer rows, whose int_kernel rows are already its
        canonical basis."""
        rows = int_kernel((dict(r) for r in self.int_rows), self.ambient)
        return Subspace(self.ambient, tuple(min(r) for r in rows),
                        tuple(tuple(sorted(r.items())) for r in rows))

    def kron(self, other: "Subspace") -> "Subspace":
        """Tensor (Kronecker) product subspace.

        The Kronecker products of two RREF bases, taken in row-major order,
        already form an RREF basis, so no elimination is needed.
        """
        m = other.ambient
        rows = []
        pivots = []
        for pu, u in zip(self.pivots, self.int_rows):
            for pv, v in zip(other.pivots, other.int_rows):
                rows.append(tuple((i * m + j, a * b) for i, a in u for j, b in v))
                pivots.append(pu * m + pv)
        return Subspace(self.ambient * m, tuple(pivots), tuple(rows))
