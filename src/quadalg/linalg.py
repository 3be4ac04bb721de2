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
Koszul components) hands their forward echelon form to
`flipped_int_kernel` and skips the flip.  A
subspace built from those rows (an annihilator, a Koszul component) needs
no second elimination.  The elimination takes over the rows it is given
(`_echelon_int`), so callers hand it fresh ones.  Membership is that forward pass
against a copy of a subspace's own integer rows.

The forward pass is one loop per row, lead by lead, with no helper call
per reduction step.  A pivot row of one entry clears its column by
deleting the entry; any other pivot row by one integer axpy on the two
leads over their gcd.  A kept row of one entry is stored as {lead: 1}
with no gcd; any other kept row is gcd-stripped once, its lead made
positive.  Back substitution (`_reduced_echelon`) runs on the forward
pass's output and clears one-entry pivot rows the same way.  Each step
only rescales a row and subtracts pivot rows, so every row comes out as
the canonical multiple of one vector, the same for any order of scaling.

A vector indexed by coordinate words has one form, a sparse {coordinate:
value} map or its (coordinate, value) pairs.  A matrix has one form too, a
Matrix: small, dense and immutable, integer rows over one positive
denominator, content-free, so that equality is structural and the hash is
computed once; a column of coordinates is a one-column Matrix.  Sums,
differences and products (`@`) stay in integers.  Its columns
(`Matrix.columns`) are the nonzero integer entries over that
denominator, the form in which a slot map is applied to word vectors, and
its Fraction rows (`Matrix.entries`) are only built where a report prints
them.  Every system with right-hand sides is solved by `int_solve` from
its augmented integer rows, each solution read as integers over its pivot
entry (`solution_matrix`), and the X of A X = B for a square A by
`solve_square`; there is no matrix inverse.  Fractions remain only at
the edges: the rows a caller hands in, `Subspace.rows` and
`Matrix.entries`.
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


def _echelon_int(rows: Iterable[dict[int, int]],
                 pivots: dict[int, dict[int, int]] | None = None
                 ) -> dict[int, dict[int, int]]:
    """Row echelon form by forward elimination only; returns {pivot column:
    integer row}, pivot entries positive, rows content-free, in the order
    the rows that gave them came in.  Given pivots, an echelon form of
    this kind, the rows are reduced against it and it is extended in
    place.

    Each row is reduced in one loop, lead by lead.  Against a pivot row of
    one entry the lead is deleted; against any other, a * row - b * pivot
    with a, b the two leads over their gcd, and no strip in between.  A
    row that keeps a lead is gcd-stripped and made positive there, and a
    row of one entry is kept as {lead: 1}.  Every step scales the row by a
    nonzero number and subtracts pivot rows, so each kept row is the
    canonical multiple of the same vector that any order of scaling
    gives.

    Each row is a dict with no zero entry, and it is the caller's to give
    away: it is updated in place and may be kept as a pivot row, so a
    caller hands in fresh rows (from _to_int_row, a comprehension, or an
    echelon it owns) and reads none of them afterwards.  The pivot rows
    are only read."""
    if pivots is None:
        pivots = {}
    get = pivots.get
    for row in rows:
        while row:
            lead = min(row)
            p = get(lead)
            if p is None:
                if len(row) == 1:
                    pivots[lead] = {lead: 1}
                else:
                    g = gcd(*row.values())
                    if row[lead] < 0:
                        g = -g
                    pivots[lead] = (row if g == 1
                                    else {c: v // g for c, v in row.items()})
                break
            if len(p) == 1:
                del row[lead]
                continue
            a, b = p[lead], row[lead]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            # the lead cancels with the rest
            for c, v in p.items():
                nv = row.get(c, 0) - b * v
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return pivots


def _reduced_echelon(pivots: dict[int, dict[int, int]]
                     ) -> dict[int, dict[int, int]]:
    """The full reduced row echelon form of an echelon form from
    _echelon_int, in place: every pivot column is cleared from all other
    rows, each row content-free with a positive pivot entry.

    Back substitution runs from the last row up: the rows below are
    already reduced, so clearing the pivot columns a row holds brings in
    no others, and they may be cleared in any order.  A pivot row of one
    entry is cleared by deleting the entry; a row that took any step is
    stripped once at the end.
    """
    for qc in sorted(pivots, reverse=True):
        qrow = pivots[qc]
        hits = qrow.keys() & pivots.keys()
        hits.discard(qc)
        if not hits:
            continue
        for pc in hits:
            prow = pivots[pc]
            if len(prow) == 1:
                del qrow[pc]
                continue
            a, b = qrow[pc], prow[pc]
            g = gcd(a, b)
            if g != 1:
                a //= g
                b //= g
            if b != 1:
                qrow = {c: b * v for c, v in qrow.items()}
            for c, v in prow.items():
                nv = qrow.get(c, 0) - a * v
                if nv:
                    qrow[c] = nv
                else:
                    del qrow[c]
        pivots[qc] = _strip(qrow)
    return pivots


def int_solve(rows: Iterable[dict[int, int]], n: int
              ) -> tuple[dict[int, tuple[int, dict[int, int]]], bool]:
    """Solve A X = B from the augmented integer rows [A | B].

    Columns below n hold the unknowns and column n + j holds right-hand
    side j; the rows are integer rows with no zero entry, given away as to
    _echelon_int.  Returns ({pivot unknown p: (pivot entry, {j: int})},
    consistent): x_p of solution j is the int at j over the pivot entry,
    which is positive, zeros left out and every free unknown zero; there
    are rank A pivot unknowns, and consistent says that every right-hand
    side is attained.  The rows that keep a pivot below n after the
    forward pass are back-substituted among themselves, so a consistent
    system gets exactly its reduced echelon solution.
    """
    echelon = _echelon_int(rows)
    kept = {p: r for p, r in echelon.items() if p < n}
    out = {}
    for p, row in _reduced_echelon(kept).items():
        out[p] = (row[p], {c - n: v for c, v in row.items() if c >= n})
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
    return flipped_int_kernel(_echelon_int(
        {top - c: v for c, v in r.items() if v} for r in rows), ambient)


def flipped_int_kernel(echelon: dict[int, dict[int, int]],
                       ambient: int) -> list[dict[int, int]]:
    """int_kernel of rows already written in its numbering, column c at
    ambient - 1 - c, given as the forward echelon form _echelon_int made of
    them; it is finished in place, and the kernel rows come back in the
    original columns."""
    top = ambient - 1
    pivots = _reduced_echelon(echelon)
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
        terms = by_col.get(f)
        if terms is None:
            # a free column no pivot row reaches: the unit vector
            out.append({top - f: 1})
            continue
        big = lcm(*[pv for _, pv, _ in terms])
        row = {top - f: big}
        for p, pv, v in terms:
            row[top - p] = -(big // pv) * v
        out.append(_strip(row))
    return out


SparseRow = tuple[tuple[int, Fraction], ...]
IntRow = tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# integer matrices over a denominator
# ---------------------------------------------------------------------------

class Matrix:
    """An immutable matrix over the rationals: integer rows num over one
    positive denominator den, entry (i, j) being num[i][j] / den.

    The pair is content-free, the gcd of den and every entry being 1, so
    den is the lcm of the denominators of the entries in lowest terms, two
    matrices are equal exactly when their (num, den, cols) are, and the
    hash of that triple is computed once, when the matrix is made.  A
    degree-one map is a Matrix in column convention: column j holds the
    image of letter j.
    """

    def __init__(self, num: tuple[tuple[int, ...], ...], den: int, cols: int):
        """num a tuple of int tuples of length cols and den a positive int,
        both divided by their gcd."""
        g = gcd(den, *[gcd(*row) for row in num])
        if g != 1:
            num = tuple(tuple(v // g for v in row) for row in num)
            den //= g
        self.__dict__.update(num=num, den=den, cols=cols,
                             _hash=hash((num, den, cols)))

    @staticmethod
    def _of(num: tuple[tuple[int, ...], ...], den: int, cols: int) -> "Matrix":
        """The Matrix of num over den, which are content-free already: no
        gcd is taken."""
        m = object.__new__(Matrix)
        m.__dict__.update(num=num, den=den, cols=cols,
                          _hash=hash((num, den, cols)))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("a Matrix is immutable")

    def __eq__(self, other):
        if type(other) is not Matrix:
            return NotImplemented
        return (self._hash == other._hash and self.num == other.num
                and self.den == other.den and self.cols == other.cols)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.num!r}, {self.den!r}, {self.cols!r})"

    @staticmethod
    def from_rows(rows: Iterable[Sequence], cols: int) -> "Matrix":
        """The matrix of rational rows; an entry that is not an int or a
        Fraction, a float or a bool included, raises LinAlgError, as it
        does in a subspace row."""
        rows = [tuple(row) for row in rows]
        if any(len(row) != cols for row in rows):
            raise LinAlgError("ragged rows in matrix constructor")
        if not all(type(v) is int or type(v) is Fraction
                   for row in rows for v in row):
            raise LinAlgError("matrix entries must be int or Fraction")
        # over the lcm of the denominators in lowest terms the rows are
        # content-free: a prime of den divides the denominator of an entry
        # as often as den, so not that entry's numerator
        den = lcm(*[v.denominator for row in rows for v in row])
        return Matrix._of(tuple(tuple(v.numerator * (den // v.denominator)
                                      for v in row) for row in rows), den, cols)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(tuple((0,) * i + (1,) + (0,) * (n - 1 - i)
                                for i in range(n)), 1, n)

    @property
    def rows(self) -> int:
        return len(self.num)

    @property
    def entries(self) -> tuple[Vec, ...]:
        """The rows as Fractions, the form reports print."""
        return tuple(tuple(Fraction(v, self.den) for v in row)
                     for row in self.num)

    @cached_property
    def columns(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The nonzero (row, int) entries of each column, over den: the form
        in which apply_slot_columns reads a slot's map."""
        return tuple(tuple((i, v) for i, v in enumerate(col) if v)
                     for col in self.transpose().num)

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self.num)) if self.num else ((),) * self.cols
        return Matrix._of(num, self.den, self.rows)

    def __neg__(self) -> "Matrix":
        return Matrix._of(tuple(tuple(-v for v in row) for row in self.num),
                          self.den, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise LinAlgError("shape mismatch in multiplication")
        cols = other.transpose().num
        return Matrix(tuple(tuple(sum(a * b for a, b in zip(row, col) if a)
                                  for col in cols) for row in self.num),
                      self.den * other.den, other.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in addition")
        a, b = other.den, self.den
        return Matrix(tuple(tuple(a * x + b * y for x, y in zip(r, s))
                            for r, s in zip(self.num, other.num)),
                      a * b, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def block_sum(self, other: "Matrix") -> "Matrix":
        """The block diagonal matrix with self above and other below."""
        a, b = other.den, self.den
        return Matrix(tuple(tuple(a * v for v in row) + (0,) * other.cols
                            for row in self.num)
                      + tuple((0,) * self.cols + tuple(b * v for v in row)
                              for row in other.num),
                      a * b, self.cols + other.cols)

    def rank(self) -> int:
        return len(_echelon_int({c: v for c, v in enumerate(row) if v}
                                for row in self.num))


def solve_square(a: Matrix, b: Matrix) -> Matrix | None:
    """The X with a @ X = b, or None when a is not square and invertible.

    One `int_solve` on the augmented integer rows [a | b], both brought
    over the lcm of their denominators, which have the solutions of a X =
    b; row p of X is solution row p, its ints over its pivot entry."""
    n = a.rows
    if a.cols != n:
        return None
    if b.rows != n:
        raise LinAlgError("shape mismatch in solve")
    common = lcm(a.den, b.den)
    left, right = (m.num if m.den == common
                   else [[common // m.den * v for v in row] for row in m.num]
                   for m in (a, b))
    sol, _ = int_solve(({c: v for c, v in enumerate([*ra, *rb]) if v}
                        for ra, rb in zip(left, right)), n)
    return solution_matrix(sol, n, b.cols) if len(sol) == n else None


def solution_matrix(sol: dict[int, tuple[int, dict[int, int]]], rows: int,
                    cols: int) -> Matrix:
    """The rows x cols Matrix whose row p is solution row p of an
    `int_solve` answer, its ints over its pivot entry, and zero where the
    answer has no row p; over the lcm of the pivot entries."""
    den = lcm(*[pv for pv, _ in sol.values()])
    num = [[0] * cols for _ in range(rows)]
    for p, (pv, vals) in sol.items():
        for j, v in vals.items():
            num[p][j] = v * (den // pv)
    return Matrix(tuple(map(tuple, num)), den, cols)


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
        pivots = _reduced_echelon(_echelon_int(rows))
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
        """The integer rows as _echelon_int takes them: {pivot: row}."""
        return {p: dict(r) for p, r in zip(self.pivots, self.int_rows)}

    def contains(self, vec: Mapping[int, object]) -> bool:
        """Whether vec reduces to zero against the integer rows: the
        forward pass on a copy of them keeps no new pivot."""
        return len(_echelon_int([_to_int_row(vec)],
                                dict(self._pivot_rows))) == self.dim

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
