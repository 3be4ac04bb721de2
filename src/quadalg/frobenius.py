"""Finite-dimensional graded algebras: Frobenius pairings, Nakayama maps,
graded symmetry, and the trivial extension of an algebra by its own copy
shifted up one degree, as a twisted bimodule.

An algebra is its graded dimensions and its nonzero structure constants,
checked to be unital and associative when built; basis elements are known
only by their degree and index.  The constants are given and held in one
form only: integer cells over one positive denominator (`int_mult` over
`den`), which is how quadratic.TruncatedAlgebra and the trivial extension
here hand them over and how the Frobenius pairings and the trivial
extension read them.  A degree-preserving map of an algebra is a tuple of
matrices (linalg.Matrix), one per degree, in column convention; as a twist
of the trivial extension it is read by the integer columns of those
matrices.  The top graded piece is required to be one-dimensional whenever
Frobenius data is extracted, and the distinguished functional is
"coefficient of the top basis element", read straight off a top structure
cell.

The Frobenius data is the algebra's own, integer matrices kept on it as
cached properties: its pairings, each G_i read off the top cells over
den, and its Nakayama blocks, the solve_square solutions of
G_i X = G_{d-i}^T, solved on first read.  frobenius_structure checks each
pairing nondegenerate by one rank and solves nothing; the blocks are read
by is_graded_symmetric, which runs both of its routes on them and takes
no rank, and by pbw's Nakayama compatibility test.  The trivial extension
takes its right twist as matrices, the form TruncatedAlgebra.automorphism
builds, and reads their integer columns, and writes its left twist, the
sign of the degree, inline, so the Calabi-Yau path builds and tests its
model with no Fraction in between.

The builders hand the constructor its final form, tuple rows of tuple
cells, which its shape pass checks cell by cell and keeps; products are
read off those cells, and there is no product of coordinate vectors.  The
associativity check runs on the algebra's generators (generators, which
pbw's curved axioms read too) and visits every (a, b, s) triple it needs;
where both products it reads are single-term cells, the most common case,
the two sides are compared cell against cell with no dict built.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

from .linalg import (ConsistencyError, LinAlgError, Matrix, _echelon_int,
                     solve_square)


class NotFrobenius(Exception):
    """Raised when an algebra has no nondegenerate top-degree pairing."""

    def __init__(self, witness_degree: int, reason: str):
        super().__init__(f"degree {witness_degree}: {reason}")
        self.witness_degree = witness_degree
        self.reason = reason


# the reason given for a pairing that is not perfect
DEGENERATE = "degenerate pairing against the complementary degree"


class GradedFDAlgebra:
    """A finite-dimensional graded algebra given by structure constants.

    dims[i] is the dimension of the degree-i component, a non-negative
    int (a float or a bool is refused, not rounded).  The table is held
    in integers over one positive denominator den: int_mult[(i, j)][a][b]
    is den times the product of the a-th degree-i and b-th degree-j basis
    elements inside degree i+j, its nonzero entries as (coordinate, int)
    pairs in increasing coordinate order.  Degree 0 must be spanned by the
    unit.

    GradedFDAlgebra(dims, int_mult, den) takes the table in that form, with
    every block (i, j), i + j <= length, given; blocks past the top degree
    are ignored.  One pass checks the table's shape and cells, then the
    unit and associativity are checked.
    Associativity is checked on generators, by a lemma that needs only a
    unital bilinear product: if S generates the algebra under that product
    and (ab)s = a(bs) for all basis elements a, b and all s in S, the
    product is associative.  Indeed the c with (ab)c = a(bc) for all a, b
    form a subspace T that contains 1 and is closed under products, since
    (ab)(cc') = ((ab)c)c' = (a(bc))c' = a((bc)c') = a(b(cc')) for c, c' in
    T; so S in T gives T = A.
    """

    def __init__(self, dims, int_mult, den):
        dims = tuple(dims)
        if not all(type(x) is int and x >= 0 for x in dims):
            raise LinAlgError("dimensions must be non-negative integers")
        if not dims or dims[0] != 1:
            raise LinAlgError("degree zero must be spanned by the unit")
        if type(den) is not int or den <= 0:
            raise LinAlgError(
                "the table denominator must be a positive integer")
        d = len(dims) - 1
        table: dict[tuple[int, int], tuple] = {}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                block = int_mult.get((i, j))
                # a block of tuple rows of tuple cells, as the package's
                # builders hand it over, is kept as given
                tuples = True
                if block is not None and type(block) is not tuple:
                    block = tuple(tuple(map(tuple, row)) for row in block)
                width = dims[j]
                if (block is None or len(block) != dims[i]
                        or any(len(row) != width for row in block)):
                    raise LinAlgError(f"bad structure block at degrees {(i, j)}")
                top = dims[i + j]
                for row in block:
                    if type(row) is not tuple:
                        tuples = False
                    for cell in row:
                        if type(cell) is not tuple:
                            tuples = False
                        if not cell:
                            continue
                        last = -1
                        for c, w in cell:
                            if not (last < c < top and type(w) is int and w):
                                raise LinAlgError(
                                    f"bad structure cell at degrees {(i, j)}: "
                                    f"coordinates must increase within range "
                                    f"and values be nonzero")
                            last = c
                if not tuples:
                    block = tuple(tuple(map(tuple, row)) for row in block)
                table[(i, j)] = block
        self.__dict__.update(dims=dims, int_mult=table, den=den)
        self._validate_unit()
        self._validate_associativity()

    def __setattr__(self, name, value):
        raise AttributeError(f"a {type(self).__name__} is immutable")

    @property
    def length(self) -> int:
        return len(self.dims) - 1

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def dim(self, i: int) -> int:
        return self.dims[i] if 0 <= i <= self.length else 0

    def epsilon(self, k: int) -> tuple[Matrix, ...]:
        """The sign automorphism acting by (-1)^(i*k) in degree i."""
        return tuple(-Matrix.identity(m) if i * k % 2 else Matrix.identity(m)
                     for i, m in enumerate(self.dims))

    def _validate_unit(self) -> None:
        for j in range(self.length + 1):
            for b in range(self.dims[j]):
                unit = ((b, self.den),)
                if self.int_mult[(0, j)][0][b] != unit:
                    raise LinAlgError(f"left unit fails on degree {j} index {b}")
                if self.int_mult[(j, 0)][b][0] != unit:
                    raise LinAlgError(f"right unit fails on degree {j} index {b}")

    @cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        """A generating set S, as the indices of its basis elements in each
        degree, the unit left out: the degree-1 basis and, in each degree
        k >= 2, the basis elements at the non-pivot columns of an echelon
        form of D_k, the span of the products A_i A_j with i + j = k and
        i, j >= 1; none once D_k has rank dims[k].  They complement D_k, so
        by induction on the degree S generates the algebra under this
        table's own product, whatever the table holds.
        """
        dims, mult = self.dims, self.int_mult
        gens = [()]
        for k in range(1, self.length + 1):
            pivots: dict[int, dict[int, int]] = {}
            # no product is reduced once D_k has rank dims[k]
            _echelon_int((dict(cell) for i in range(1, k)
                          for row in mult[(i, k - i)] for cell in row
                          if cell and len(pivots) < dims[k]), pivots)
            gens.append(tuple(c for c in range(dims[k]) if c not in pivots))
        return tuple(gens)

    @cached_property
    def pairings(self) -> tuple[Matrix, ...]:
        """The pairing matrices G_i, one per degree: entry (a, b) of G_i is
        the top coefficient of the product of the a-th degree-i and b-th
        degree-(d-i) basis elements.  The top degree must be
        one-dimensional, so each top cell is () or ((0, v),) and G_i is
        those v over den; NotFrobenius at the first degree where the
        dimensions cannot pair.  Nondegeneracy is not checked here
        (frobenius_structure checks it).
        """
        d = self.length
        if self.dims[d] != 1:
            raise NotFrobenius(d, f"top degree has dimension {self.dims[d]}, "
                                  f"not 1")
        for i in range(d // 2 + 1):
            if self.dims[i] != self.dims[d - i]:
                raise NotFrobenius(i, f"dim mismatch {self.dims[i]} vs "
                                      f"{self.dims[d - i]} between degrees "
                                      f"{i} and {d - i}")
        return tuple(
            Matrix(tuple(tuple(cell[0][1] if cell else 0 for cell in row)
                         for row in self.int_mult[(i, d - i)]),
                   self.den, self.dims[d - i]) for i in range(d + 1))

    @cached_property
    def nakayama(self) -> tuple[Matrix, ...]:
        """The Nakayama map, one block per degree, in column convention:
        <a, b> = <b, nak(a)> pins it, G_i nak[d-i] = G_{d-i}^T, one
        solve_square per degree.  A degenerate pairing met there raises
        NotFrobenius at its degree.
        """
        pairings = self.pairings
        d = self.length
        nakayama = [None] * (d + 1)
        for i in range(d + 1):
            nak = solve_square(pairings[i], pairings[d - i].transpose())
            if nak is None:
                raise NotFrobenius(i, DEGENERATE)
            nakayama[d - i] = nak
        return tuple(nakayama)

    def _validate_associativity(self) -> None:
        """(e_a e_b) s = e_a (e_b s) for basis elements e_a, e_b of positive
        degree and every s in the generating set S (generators), which is
        associativity by the lemma in the class docstring.  Triples with a
        factor of degree 0 follow from the unit check, so below length 3
        there is nothing to check and S is not built.

        The check reads int_mult, den times the true table.  Both sides are
        summed over its nonzero constants only.  Each side comes
        out as den^2 times the true product, so the comparison is still
        exact.  Zeros are dropped from the two sums only when they differ,
        since a coordinate of one side may cancel to zero where the other
        side has no entry.
        """
        d, dims, mult = self.length, self.dims, self.int_mult
        if d < 3:
            return
        gens = self.generators
        for i in range(1, d + 1):
            for j in range(1, d + 1 - i):
                ij = mult[(i, j)]
                for k in range(1, d + 1 - i - j):
                    gk = gens[k]
                    if not gk:
                        continue
                    jk = mult[(j, k)]
                    i_jk = mult[(i, j + k)]
                    ij_k = mult[(i + j, k)]
                    # the column of (i+j, k) cells at each generator c
                    cols = [(c, [row[c] for row in ij_k]) for c in gk]
                    for a in range(dims[i]):
                        ij_a = ij[a]
                        i_jk_a = i_jk[a]
                        for b in range(dims[j]):
                            ab = ij_a[b]
                            jk_b = jk[b]
                            small = len(ab) < 2
                            for c, col in cols:
                                # (e_a e_b) e_c and e_a (e_b e_c)
                                bc = jk_b[c]
                                if small and len(bc) < 2:
                                    # x e_t e_c against y e_a e_s, or zero:
                                    # two cells compared entry by entry
                                    lc = col[ab[0][0]] if ab else ()
                                    rc = i_jk_a[bc[0][0]] if bc else ()
                                    ok = len(lc) == len(rc)
                                    if ok and lc:
                                        x, y = ab[0][1], bc[0][1]
                                        if len(lc) == 1:
                                            (e, w), = lc
                                            (f, v), = rc
                                            ok = e == f and x * w == y * v
                                        else:
                                            ok = all(e == f and x * w == y * v
                                                     for (e, w), (f, v)
                                                     in zip(lc, rc))
                                else:
                                    left: dict[int, int] = {}
                                    for t, x in ab:
                                        for e, w in col[t]:
                                            left[e] = left.get(e, 0) + x * w
                                    right: dict[int, int] = {}
                                    for t, x in bc:
                                        for e, w in i_jk_a[t]:
                                            right[e] = right.get(e, 0) + x * w
                                    ok = left == right or (
                                        {e: v for e, v in left.items() if v}
                                        == {e: v for e, v in right.items()
                                            if v})
                                if not ok:
                                    raise LinAlgError(
                                        f"associativity fails at degrees "
                                        f"{(i, j, k)} indices {(a, b, c)}")


def frobenius_structure(alg: GradedFDAlgebra) -> tuple[Matrix, ...]:
    """The algebra's pairings (GradedFDAlgebra.pairings), each checked
    nondegenerate by one rank, or NotFrobenius at the first degree that
    fails.  No Nakayama block is solved here: a reader of
    GradedFDAlgebra.nakayama solves them.
    """
    pairings = alg.pairings
    for i, g in enumerate(pairings):
        if g.rank() < g.rows:
            raise NotFrobenius(i, DEGENERATE)
    return pairings


def is_graded_symmetric(alg: GradedFDAlgebra):
    """Sign-symmetry of the pairing; returns (verdict, witness).

    Checked two ways on the algebra's own pairings and Nakayama blocks:
    entrywise, G_i against the signed transpose of G_{d-i}, and through the
    Nakayama map being the expected sign scalar, (-1)^((d-1) i) on degree
    i, which is epsilon(d - 1).  The blocks' solves, on their first read,
    are the only eliminations, and a degenerate pairing raises NotFrobenius
    there, so no rank is taken first.  The witness is (degree, row, col) of
    the first failing pairing entry, or None.
    """
    pairings = alg.pairings
    d = alg.length
    witness = None
    for i, (gi, gdi) in enumerate(zip(pairings, reversed(pairings))):
        signed = -gdi.transpose() if i * (d - i) % 2 else gdi.transpose()
        if gi != signed:
            # the first entry that differs, each side over its own den
            witness = next((i, a, b) for a, (row, other)
                           in enumerate(zip(gi.num, signed.num))
                           for b, (v, w) in enumerate(zip(row, other))
                           if v * signed.den != w * gi.den)
            break
    ok_pairings = witness is None
    if ok_pairings != (alg.nakayama == alg.epsilon(d - 1)):
        raise ConsistencyError("pairing symmetry and Nakayama sign test disagree")
    return ok_pairings, witness


# ---------------------------------------------------------------------------
# trivial extension
# ---------------------------------------------------------------------------

def twisted_module_trivial_extension(alg: GradedFDAlgebra,
                                     right: tuple[Matrix, ...]
                                     ) -> GradedFDAlgebra:
    """Extend by a copy of the algebra itself, shifted up by one degree, as
    a bimodule twisted by the sign (-1)^i on E_i on the left and by `right`
    on the right.

    Degree i of the result is E_i followed by the module copy of E_{i-1},
    so the result has length one more than E.  right is a graded map of
    E, one matrix per degree; the actions are a.(m) = (-1)^i (a m) for a
    in E_i and (m).b = (m right(b)), products of two module elements
    vanish.  The integer columns of right are brought to L, the lcm of
    their denominators, so the result is built in integers over L times
    E's den, one block row at a time, each handed over in the final tuple
    form.  A row of E_i holds E's own products, its cells times L, then
    the left-action cells, the same products times (-1)^i L shifted past
    E_{i+j}; a module row holds the right-action cells, then empty cells.
    A right-action cell is the twisted combination of E's own integer
    cells, shifted past E_{i+j}.
    """
    d = alg.length
    scale = lcm(*[m.den for m in right])
    rcols = _columns_over(right, scale, alg.dims)
    # dim[i] is dim E_i, zero outside 0..d, also at index -1
    dim = alg.dims + (0, 0)
    dims = [dim[i] + dim[i - 1] for i in range(d + 2)]
    mult = {}
    for i in range(d + 2):
        sign = -scale if i % 2 else scale
        for j in range(d + 2 - i):
            aj, copy_j, off = dim[j], dim[j - 1], dim[i + j]
            inner = alg.int_mult.get((i, j))
            # E_i on the copy of E_{j-1}, and the copy of E_{i-1} on E_j
            on_copy = alg.int_mult.get((i, j - 1))
            copy_on = alg.int_mult.get((i - 1, j))
            block = []
            for a in range(dim[i]):
                row = inner[a] if inner else ((),) * aj
                if scale != 1:
                    row = tuple([tuple([(c, scale * w) for c, w in cell])
                                 if cell else () for cell in row])
                if copy_j:
                    row += tuple([tuple([(off + c, sign * w) for c, w in cell])
                                  if cell else () for cell in on_copy[a]])
                block.append(row)
            empty = ((),) * copy_j
            for a in range(dim[i - 1]):
                cells = copy_on[a]
                block.append(tuple([
                    _sparse_sum([(x, cells[t]) for t, x in col], off)
                    for col in rcols[j]]) + empty)
            mult[(i, j)] = tuple(block)
    return GradedFDAlgebra(dims, mult, alg.den * scale)


def _columns_over(twist, scale: int, dims):
    """The integer columns of the twist's matrices brought to scale, a
    multiple of each den; a twist of the wrong shape raises LinAlgError."""
    if (len(twist) != len(dims)
            or any(m.rows != k or m.cols != k for m, k in zip(twist, dims))):
        raise LinAlgError("a twist needs one column per basis element")
    return [m.columns if m.den == scale
            else [[(t, scale // m.den * x) for t, x in col]
                  for col in m.columns] for m in twist]


def _sparse_sum(terms, off: int) -> tuple:
    """sum x * cell over a list of (x, sparse cell) terms, as a sparse cell
    with every coordinate shifted up by off; one term, the common case of a
    monomial twist, is just scaled."""
    if len(terms) == 1:
        x, cell = terms[0]
        return tuple([(off + c, x * w) for c, w in cell]) if cell else ()
    acc: dict[int, int] = {}
    for x, cell in terms:
        for c, w in cell:
            acc[c] = acc.get(c, 0) + x * w
    return tuple([(off + c, v) for c, v in sorted(acc.items()) if v])
