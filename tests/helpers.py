"""Shared test utilities: seeded generators and independent oracles."""

import argparse
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
import importlib
import json
from math import gcd, lcm
import pkgutil
import random
import re

import quadalg
from quadalg import (Cdga, GradedFDAlgebra, Matrix, QuadraticAlgebra,
                     SkewExtension, Subspace, as_regular_certificate,
                     contract_left, contract_right, index_to_word,
                     word_to_index)
from quadalg.cli import COMMANDS
from quadalg.io import ValidationError, parse_description
from quadalg.linalg import (LinAlgError, ZERO, _strip, _to_int_row, int_solve)
from quadalg.quadratic import MAX_WORDS, koszul_component, truncated_structure

AS_REGULAR = ("kxy", "quantum_plane_q2", "quantum_plane_q3",
              "quantum_plane_qm1", "jordan_plane", "poly3", "quantum3")
DIM2 = AS_REGULAR[:5]
CORPUS_DIR = resources.files("quadalg") / "corpus"
CORPUS = tuple(sorted(p.name[:-5] for p in CORPUS_DIR.iterdir()
                      if p.name.endswith(".json")))

# A twist of each AS-regular corpus entry that is neither the identity nor
# its Nakayama map, non-diagonal where the relations allow one: the quantum
# planes xy = q yx with q = 2, 3 have only diagonal automorphisms.
OTHER_TWIST = {
    "kxy": ((1, 1), (0, 1)),
    "quantum_plane_q2": ((2, 0), (0, 3)),
    "quantum_plane_q3": ((2, 0), (0, -1)),
    "quantum_plane_qm1": ((0, 2), (1, 0)),
    "jordan_plane": ((2, 3), (0, 2)),
    "poly3": ((1, 1, 0), (0, 1, 2), (0, 0, 1)),
    "quantum3": ((0, 0, 2), (1, 0, 0), (0, 3, 0)),
}


# the argparse parser quadalg.cli parsed its command line with before it
# read its grammar directly, kept as the oracle of that parse
REFERENCE_PARSER = argparse.ArgumentParser(
    prog="quadalg",
    description="exact computations on quadratic algebras")
REFERENCE_PARSER.add_argument("command", choices=sorted(COMMANDS))
REFERENCE_PARSER.add_argument("file", help="JSON description, or - for stdin")
REFERENCE_PARSER.add_argument("--max-degree", type=int, default=5,
                              help="bound for all degree-limited certificates")
REFERENCE_PARSER.add_argument("--sigma", choices=["id", "nakayama", "file"],
                              default="nakayama",
                              help="twist selection for skew/extiso/cy")
REFERENCE_PARSER.add_argument("--exit-zero", action="store_true",
                              help="exit 0 even on verdict failures")


def package_caches():
    """Every functools cache that a quadalg module defines, as
    {"module.name": cache}."""
    out = {}
    for info in pkgutil.iter_modules(quadalg.__path__):
        mod = importlib.import_module(f"quadalg.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out[f"{info.name}.{name}"] = obj
    return out


def cache_sizes():
    """{"module.name": the number of entries} of every package cache."""
    return {name: cache.cache_info().currsize
            for name, cache in package_caches().items()}


def description_of(name):
    """The bundled corpus document quadalg/corpus/<name>.json, parsed."""
    return parse_description((CORPUS_DIR / f"{name}.json").read_bytes())


def oracle_parse_fraction(s, path):
    """io._parse_fraction as it was before it read plain integers and
    quotients by one match: every string through the checks and Fraction."""
    if not isinstance(s, str):
        raise ValidationError("rationals must be strings", path)
    if "e" in s.lower():
        reason = "exponent notation is not accepted"
    elif any(len(run.replace("_", "")) > 4300
             for run in re.findall(r"[\d_]+", s)):
        reason = "a run of more than 4300 digits is not accepted"
    elif not s.isascii() or "_" in s or re.search(r"\s", s.strip()):
        reason = ("underscores, inner whitespace and non-ASCII characters "
                  "are not accepted")
    else:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            reason = str(exc)
    shown = repr(s)
    if len(s) > 40:
        shown = f"{s[:20]!r}... ({len(s)} characters)"
        reason = reason.removesuffix(f": {s!r}")
        if len(reason) > 160:
            reason = reason[:160] + "..."
    raise ValidationError(f"bad rational {shown}: {reason}", path)


def algebra_of(name):
    return description_of(name).algebra


def cert_of(name):
    # certification is cached on the algebra value, so this stays cheap
    return as_regular_certificate(algebra_of(name), 5)


def _term(coeff, word):
    return {"coeff": str(Fraction(coeff)), "word": list(word)}


def skew_description(n, q):
    """The skew polynomial ring x_i x_j = q x_j x_i for i < j on the
    letters a, b, c, ..., as a JSON document."""
    names = [chr(ord("a") + i) for i in range(n)]
    rels = [[_term(1, (names[i], names[j])), _term(-q, (names[j], names[i]))]
            for i in range(n) for j in range(i + 1, n)]
    return {"generators": names, "relations": rels}


def sklyanin_description(a, b, c):
    """The 3-dimensional Sklyanin algebra S(a, b, c): the relations
    a yz + b zy + c xx, cyclically in (x, y, z), as a JSON document."""
    names = ("x", "y", "z")
    rels = []
    for i in range(3):
        x, y, z = names[i], names[(i + 1) % 3], names[(i + 2) % 3]
        rels.append([_term(v, w) for v, w in ((a, (y, z)), (b, (z, y)),
                                             (c, (x, x))) if v])
    return {"generators": list(names), "relations": rels}


def algebra_of_description(doc):
    return parse_description(json.dumps(doc)).algebra


def skew_ring(n, q):
    return algebra_of_description(skew_description(n, q))


def sklyanin(a, b, c):
    return algebra_of_description(sklyanin_description(a, b, c))


def sparse_table(dims, mult):
    """A dense table as sparse cells: each cell of block (i, j) lists all
    dims[i + j] coordinates of a product, zeros included, and becomes its
    nonzero (coordinate, value) pairs.  Blocks past the top degree are
    dropped."""
    table = {}
    for (i, j), block in mult.items():
        if not (i >= 0 and j >= 0 and i + j < len(dims)):
            continue
        if any(len(cell) != dims[i + j] for row in block for cell in row):
            raise LinAlgError(f"bad structure block at degrees {(i, j)}")
        table[(i, j)] = tuple(
            tuple(tuple((c, w) for c, w in enumerate(map(Fraction, cell)) if w)
                  for cell in row)
            for row in block)
    return table


def rational_algebra(dims, cells):
    """GradedFDAlgebra from sparse cells of rational (coordinate, value)
    pairs: every value is scaled by den, the lcm of all their denominators,
    into the integer cells over den that the constructor takes."""
    den = lcm(*[w.denominator for block in cells.values() for row in block
                for cell in row for _, w in cell])
    return GradedFDAlgebra(dims, {ij: [[[(c, int(w * den)) for c, w in cell]
                                        for cell in row] for row in block]
                                  for ij, block in cells.items()}, den)


def fraction_table(alg):
    """The structure table of alg with Fraction values, int_mult over den:
    the form rational_algebra reads."""
    den = alg.den
    return {ij: tuple(tuple(tuple((c, Fraction(v, den)) for c, v in cell)
                            for cell in row) for row in block)
            for ij, block in alg.int_mult.items()}


def dense_algebra(dims, mult):
    """GradedFDAlgebra from a dense table (see sparse_table)."""
    return rational_algebra(dims, sparse_table(dims, mult))


def dense_rref(rows, ambient):
    """Gauss-Jordan elimination on dense Fraction rows: (pivots, basis rows)
    of the reduced row echelon form, nonzero rows only.  Shares no code with
    quadalg.linalg, so it is the reference for the sparse Subspace."""
    mat = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    for col in range(ambient):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        lead = mat[rank][col]
        mat[rank] = [v / lead for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return tuple(pivots), tuple(tuple(r) for r in mat[:len(pivots)])


def dense_rank(rows, ambient):
    """The rank of dense rows, by dense_rref."""
    return len(dense_rref(rows, ambient)[0])


# the dense matrix of Fraction rows that the package used before its
# matrices became integers over a denominator, kept as their oracle; its
# rank is read off dense_rref, so it shares no code with quadalg.linalg

def _entry(v) -> Fraction:
    """An int or a Fraction as a FractionMatrix entry; any other value, a
    float or a bool included, raises LinAlgError, as it does for a row."""
    if type(v) is Fraction:
        return v
    if type(v) is int:
        return Fraction(v)
    raise LinAlgError("matrix entries must be int or Fraction")


@dataclass(frozen=True)
class FractionMatrix:
    """Immutable dense matrix over the rationals (rows of Fractions)."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    @staticmethod
    def from_rows(rows, cols: int) -> "FractionMatrix":
        ent = tuple(tuple(v if type(v) is Fraction else _entry(v) for v in row)
                    for row in rows)
        for row in ent:
            if len(row) != cols:
                raise LinAlgError("ragged rows in matrix constructor")
        return FractionMatrix(ent, cols)

    @staticmethod
    def identity(n: int) -> "FractionMatrix":
        return FractionMatrix(tuple(unit_vector(n, i) for i in range(n)), n)

    @staticmethod
    def zero(r: int, c: int) -> "FractionMatrix":
        return FractionMatrix(tuple(tuple(ZERO for _ in range(c))
                                    for _ in range(r)), c)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def col(self, j: int):
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "FractionMatrix":
        return FractionMatrix(tuple(tuple(self.entries[i][j]
                                          for i in range(self.rows))
                                    for j in range(self.cols)), self.rows)

    def scale(self, k) -> "FractionMatrix":
        k = _entry(k)
        return FractionMatrix(tuple(tuple(k * v for v in row)
                                    for row in self.entries), self.cols)

    def __matmul__(self, other: "FractionMatrix") -> "FractionMatrix":
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
        return FractionMatrix(tuple(out), other.cols)

    def mul_col(self, v):
        """Matrix times column vector, returned as a flat tuple; an entry
        that is not an int or a Fraction raises LinAlgError, as in
        from_rows."""
        if len(v) != self.cols:
            raise LinAlgError("length mismatch in column multiplication")
        pairs = [(j, x) for j, x in enumerate(map(_entry, v)) if x]
        return tuple(sum((row[j] * x for j, x in pairs), ZERO)
                     for row in self.entries)

    def rank(self) -> int:
        return dense_rank(self.entries, self.cols)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def fraction_matrix(m) -> FractionMatrix:
    """A matrix as the oracle's Fraction rows: the package's integer Matrix
    through its Fraction view, a FractionMatrix as it is."""
    if isinstance(m, FractionMatrix):
        return m
    return FractionMatrix.from_rows(m.entries, m.cols)


def package_matrix(m) -> Matrix:
    """A matrix as the package's integer Matrix."""
    if isinstance(m, Matrix):
        return m
    return Matrix.from_rows(m.entries, m.cols)


def dense_right_inverse(mat) -> FractionMatrix | None:
    """S with mat @ S the identity, or None unless mat is onto: the dense
    reduced echelon form of [mat | I] read with every free unknown zero."""
    mat = fraction_matrix(mat)
    r, c = mat.rows, mat.cols
    pivots, rows = dense_rref([list(row) + [int(j == i) for j in range(r)]
                               for i, row in enumerate(mat.entries)], c + r)
    if pivots and pivots[-1] >= c:
        return None
    out = [[Fraction(0)] * r for _ in range(c)]
    for p, row in zip(pivots, rows):
        out[p] = row[c:]
    return FractionMatrix.from_rows(out, r)


def dense_inverse(mat) -> FractionMatrix | None:
    """The inverse of a square matrix, by dense_right_inverse, or None when
    it is singular or not square."""
    if mat.rows != mat.cols:
        return None
    return dense_right_inverse(mat)


def dense_rows(space):
    """The RREF basis rows of a Subspace as dense Fraction tuples: the dense
    view that the dense oracles above are compared against."""
    out = []
    for row in space.rows:
        vec = [Fraction(0)] * space.ambient
        for c, v in row:
            vec[c] = v
        out.append(tuple(vec))
    return tuple(out)


def dense_kernel_rows(rows, ambient):
    """A spanning set of {v : r . v = 0 for every row r}, one vector per
    free column of the dense reduced row echelon form."""
    pivots, basis = dense_rref(rows, ambient)
    out = []
    for f in range(ambient):
        if f in pivots:
            continue
        v = [Fraction(0)] * ambient
        v[f] = Fraction(1)
        for p, row in zip(pivots, basis):
            v[p] = -row[f]
        out.append(tuple(v))
    return out


def unit_vector(n, i):
    """The i-th standard basis vector of length n, in Fractions."""
    return tuple(Fraction(int(j == i)) for j in range(n))


def column(m):
    """A one-column Matrix as the tuple of its Fraction entries."""
    return tuple(v for (v,) in m.entries)


def multiply(alg, i, u, j, v):
    """The product of homogeneous coordinate vectors u of degree i and v of
    degree j of alg, in Fractions, in degree i + j: the Fraction product
    that GradedFDAlgebra kept before its readers moved to the integer
    cells."""
    if len(u) != alg.dim(i) or len(v) != alg.dim(j):
        raise LinAlgError("coordinate length mismatch in product")
    out = [ZERO] * alg.dim(i + j)
    if out:
        block = alg.int_mult[(i, j)]
        for a, ua in enumerate(u):
            for b, vb in enumerate(v):
                if ua and vb:
                    for c, w in block[a][b]:
                        out[c] += ua * vb * w
    return tuple(x / alg.den for x in out)


def multiply_basis(alg, i, a, j, b):
    """The product of the a-th degree-i and the b-th degree-j basis elements
    of alg as a dense coordinate vector; () past the top degree."""
    if i + j > alg.length:
        return ()
    out = [ZERO] * alg.dims[i + j]
    for c, w in alg.int_mult[(i, j)][a][b]:
        out[c] = Fraction(w, alg.den)
    return tuple(out)


def residue(space, vec):
    """The canonical residue of a sparse vector modulo space, reduced in
    Fractions against its RREF rows: zero on every pivot column, zeros
    dropped."""
    v = {c: Fraction(x) for c, x in vec.items() if x}
    for pivot, row in zip(space.pivots, space.rows):
        c = v.get(pivot)
        if c:
            for col, val in row:
                nv = v.get(col, ZERO) - c * val
                if nv:
                    v[col] = nv
                else:
                    v.pop(col, None)
    return v


def word_vector(n, terms):
    """The sparse {word index: value} map of (word tuple, coefficient) pairs
    over n letters; repeated words add up and zero sums are dropped."""
    vec = {}
    for word, c in terms:
        idx = word_to_index(word, n)
        vec[idx] = vec.get(idx, 0) + Fraction(c)
    return {idx: c for idx, c in vec.items() if c}


def word_terms(vec, n, d):
    """A vector of length-d words over n letters as {word tuple: value}."""
    return {index_to_word(idx, n, d): c for idx, c in vec.items()}


def quadratic_algebra(names, relations):
    """The quadratic algebra on names whose relations are lists of (word
    tuple, coefficient) pairs."""
    n = len(names)
    rows = [word_vector(n, terms) for terms in relations]
    return QuadraticAlgebra(tuple(names), Subspace.from_spanning(rows, n * n))


# A word-tuple oracle for quadalg.tensors: the same operations on {word
# tuple: value} maps, written from their definitions on words.

def oracle_apply_slotwise(maps, terms):
    """Per-slot degree-one maps (column j the image of letter j, None the
    identity) applied to every word."""
    maps = [None if m is None else fraction_matrix(m) for m in maps]
    out = {}
    for word, c in terms.items():
        partial = {(): c}
        for letter, m in zip(word, maps):
            step = {}
            for w, v in partial.items():
                if m is None:
                    step[w + (letter,)] = v
                    continue
                for i in range(m.rows):
                    if m[i, letter]:
                        step[w + (i,)] = v * m[i, letter]
            partial = step
        for w, v in partial.items():
            out[w] = out.get(w, 0) + v
    return {w: v for w, v in out.items() if v}


def oracle_slotwise(maps, vec, n):
    """oracle_apply_slotwise on a sparse {word index: value} vector of words
    of length len(maps) over n letters."""
    return word_vector(n, oracle_apply_slotwise(
        maps, word_terms(vec, n, len(maps))).items())


def oracle_tau(terms, k):
    """The first letter of every word moved behind position k."""
    return {w[1:k + 1] + (w[0],) + w[k + 1:]: c for w, c in terms.items()}


def oracle_contract_left(terms, letter):
    return {w[1:]: c for w, c in terms.items() if w[0] == letter}


def oracle_contract_right(terms, letter):
    return {w[:-1]: c for w, c in terms.items() if w[-1] == letter}


def twisted_cyclic_space(n, d, sigma):
    """Exact solution space of w = (-1)^(d-1) rot(sigma on first slot)(w).

    Independent of the extraction code path: assembled directly from the
    one-word images of the word-tuple oracle.
    """
    rows = []
    amb = n ** d
    sign = Fraction((-1) ** (d - 1))
    for idx in range(amb):
        word = index_to_word(idx, n, d)
        img = oracle_tau(oracle_apply_slotwise([sigma] + [None] * (d - 1),
                                               {word: Fraction(1)}), d - 1)
        vec = list(unit_vector(amb, idx))
        for w, c in img.items():
            vec[word_to_index(w, n)] -= sign * c
        rows.append(tuple(vec))
    # w solves it exactly when sum_idx w[idx] rows[idx] = 0
    return Subspace.from_spanning(zip(*rows), amb).annihilator()


# The Fraction superpotential route, which the certificate took before it
# computed in integers, kept as the oracle of the integer one.

def coordinates(space, vec):
    """The coordinates of vec in the RREF basis of space, as Fractions, or
    None when vec is not a member: its values at the pivot columns (the
    Subspace.coordinates that the route read)."""
    if not space.contains(vec):
        return None
    return tuple(Fraction(vec.get(p, 0)) for p in space.pivots)


def oracle_superpotential(cert):
    """(w, twist) by the Fraction route: w the Fraction row of the top
    Koszul component, the contraction matrices L (row i the coordinates of
    the left contraction by letter i) and R^T (row j those of the right
    one by letter j) read off coordinates in K_{d-1}, and the twist
    (-1)^(d+1) R^T L^{-1} by dense_inverse, as a package Matrix."""
    d, alg = cert.gldim, cert.algebra
    n = alg.n
    top = koszul_component(alg, d)
    assert top.dim == 1
    w = dict(top.rows[0])
    sub = koszul_component(alg, d - 1)
    left, right_t = (FractionMatrix.from_rows(
        [coordinates(sub, contract(i)) for i in range(n)], sub.dim)
        for contract in (lambda i: contract_left(w, i, d, n),
                         lambda j: contract_right(w, j, n)))
    twist = (right_t @ dense_inverse(left)).scale((-1) ** (d + 1))
    return w, package_matrix(twist)


def oracle_is_twisted_superpotential(w, d, sigma):
    """The twisted-cyclicity test in Fractions on word tuples: sigma's
    Fraction entries on the first letter, that letter rotated to the end,
    compared with (-1)^(d-1) w; zero entries of w are ignored."""
    n = sigma.cols
    terms = {word: Fraction(c) for word, c in word_terms(w, n, d).items()
             if c}
    rotated = oracle_tau(oracle_apply_slotwise([sigma] + [None] * (d - 1),
                                               terms), d - 1)
    sign = (-1) ** (d - 1)
    return {word: sign * c for word, c in rotated.items()} == terms


def oracle_symmetrize(w, d, sigma):
    """symmetrize in Fractions on word tuples: the sum over i of (-1)^i
    times the new letter n moved behind the first i letters of w, each of
    which the twist extended by 1 on the new letter is applied to."""
    n = sigma.cols
    ext = FractionMatrix.from_rows(
        [row + (ZERO,) for row in sigma.entries]
        + [(ZERO,) * n + (Fraction(1),)], n + 1)
    base = {(n,) + word: Fraction(c)
            for word, c in word_terms(w, n, d).items()}
    acc = {}
    for i in range(d + 1):
        moved = oracle_tau(oracle_apply_slotwise(
            [None] + [ext] * i + [None] * (d - i), base), i)
        for word, c in moved.items():
            acc[word] = acc.get(word, 0) + (-1) ** i * c
    return word_vector(n + 1, acc.items())


def oracle_derivation_relations(w, order, n):
    """The relation space of D(w) by the word-tuple route: the span of the
    degree-two tails of w grouped by their length-order prefix."""
    grouped = {}
    for word, c in word_terms(w, n, order + 2).items():
        grouped.setdefault(word[:order], []).append((word[order:], c))
    return Subspace.from_spanning(
        [word_vector(n, terms) for terms in grouped.values()], n * n)


def oracle_coupling(cert, w):
    """The coupling matrix of a Fraction w by the Fraction route: its
    coordinates in R (x) K_{d-2}, cut into one row per relation, as a
    FractionMatrix, whose rank is read densely."""
    alg = cert.algebra
    lower = koszul_component(alg, cert.gldim - 2)
    coords = coordinates(alg.relations.kron(lower), w)
    m = lower.dim
    return FractionMatrix.from_rows([coords[a * m:(a + 1) * m]
                                     for a in range(alg.relations.dim)], m)


def random_member(space, rng, lo=-4, hi=4):
    """A random rational combination of a subspace basis, as a sparse
    {coordinate: value} map, never zero unless the space is."""
    if space.dim == 0:
        return None
    coeffs = [Fraction(rng.randrange(lo, hi + 1)) for _ in range(space.dim)]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    vec = {}
    for c, row in zip(coeffs, space.rows):
        if c:
            for t, v in row:
                vec[t] = vec.get(t, 0) + c * v
    return vec


def twist_pool():
    """Corpus-derived degree-one twists: Nakayama maps plus +-identity."""
    pool = []
    for name in AS_REGULAR:
        cert = cert_of(name)
        n = cert.algebra.n
        pool.append((n, cert.nakayama))
        pool.append((n, Matrix.identity(n)))
        pool.append((n, -Matrix.identity(n)))
    return pool


def random_nu_theta(rng, cert, lo=-3, hi=3):
    """PBWDeformation fields after cert: the canonical relation rows, a
    random nu row per relation and a random theta."""
    n = cert.algebra.n
    rows = tuple(dict(r) for r in cert.algebra.relations.rows)
    nu = tuple({t: v for t in range(n)
                if (v := Fraction(rng.randrange(lo, hi + 1)))}
               for _ in rows)
    theta = tuple(Fraction(rng.randrange(lo, hi + 1)) for _ in rows)
    return rows, nu, theta


def potential_deformation(rng, symmetric=True, lo=-2, hi=2):
    """A seeded deformation D(w + w_2 + w_1) of D(w) on the letters x, y,
    z, after Berger-Taillefer (J. Noncommut. Geom. 1, 2007), as (names,
    rows, nu, theta): row i is the derivative d_i w, nu_i = -d_i w_2 and
    theta_i = -d_i w_1.

    w is a seeded integer combination, coefficients in lo..hi, of the
    basis of the cyclic vectors of words of length 3 (twisted_cyclic_space
    with the identity twist), so its left and right derivatives agree.
    w_2 is a seeded form on V with entries in lo..hi, symmetric (cyclic in
    degree 2, the known-answer case) or, as a control, antisymmetric;
    w_1 is a seeded vector.  The rows span the relations of D(w) when they
    are independent; the caller certifies D(w)."""
    w = random_member(twisted_cyclic_space(3, 3, Matrix.identity(3)), rng,
                      lo, hi)
    rows = tuple(contract_left(w, i, 3, 3) for i in range(3))
    w2 = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(a, 3):
            v = rng.randrange(lo, hi + 1) if symmetric or a < b else 0
            w2[a][b], w2[b][a] = v, v if symmetric else -v
    w1 = [rng.randrange(lo, hi + 1) for _ in range(3)]
    nu = tuple({b: Fraction(-w2[i][b]) for b in range(3) if w2[i][b]}
               for i in range(3))
    theta = tuple(Fraction(-w1[i]) for i in range(3))
    return ("x", "y", "z"), rows, nu, theta


def scalar_twist(alg_fd, k, c):
    """epsilon^k composed with the automorphism induced by multiplying every
    generator by c: degree i matrix is ((-1)^k c)^i times the identity."""
    mats = []
    for i in range(alg_fd.length + 1):
        factor = (Fraction(-1) ** (k * i)) * (Fraction(c) ** i)
        mats.append(FractionMatrix.identity(alg_fd.dims[i]).scale(factor))
    return tuple(mats)


def block_nakayama_oracle(alg_fd, sigma, n_ext):
    """Expected trivial-extension Nakayama: sigma^{-1} on the algebra block,
    sigma-transpose on the dual block, per degree."""
    mats = []
    for i in range(n_ext + 1):
        di = alg_fd.dim(i)
        dni = alg_fd.dim(n_ext - i)
        rows = [[Fraction(0)] * (di + dni) for _ in range(di + dni)]
        if di:
            inv = dense_inverse(sigma[i])
            for a in range(di):
                for b in range(di):
                    rows[a][b] = inv[a, b]
        if dni:
            t = sigma[n_ext - i].transpose()
            for a in range(dni):
                for b in range(dni):
                    rows[di + a][di + b] = t[a, b]
        mats.append(FractionMatrix.from_rows([tuple(r) for r in rows],
                                             di + dni))
    return tuple(mats)


def seeded(seed):
    return random.Random(seed)


def cdg_underlying_trivial_extension(alg: GradedFDAlgebra) -> GradedFDAlgebra:
    """Dual trivial extension with the sign rule written out literally.

    The left action carries the sign (-1)^((d+1)i) * (-1)^(i(|g|+|m|)) where
    |g| and |m| are the cohomological degrees of the dual element and of the
    test element; the right action is unsigned.  This is an independent
    construction kept for cross-checking against the twisted form.
    """
    d = alg.length
    n = d + 1
    dims = [alg.dim(i) + alg.dim(n - i) for i in range(n + 1)]
    mult = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            ai, aj, aij = alg.dim(i), alg.dim(j), alg.dim(i + j)
            mij = alg.dim(n - i - j)
            block = []
            for a in range(dims[i]):
                row = []
                for b in range(dims[j]):
                    out = [ZERO] * dims[i + j]
                    if a < ai and b < aj:
                        prod = multiply_basis(alg, i, a, j, b)
                        for c, v in enumerate(prod):
                            out[c] = v
                    elif a < ai and b >= aj:
                        bb = b - aj
                        g_deg = -(n - j)
                        m_deg = n - i - j
                        sign = Fraction((-1) ** (n * i) *
                                        (-1) ** (i * (g_deg + m_deg)))
                        for c in range(mij):
                            prod = multiply(alg, n - i - j,
                                            unit_vector(mij, c), i,
                                            unit_vector(ai, a))
                            out[aij + c] = sign * prod[bb]
                    elif a >= ai and b < aj:
                        aa = a - ai
                        for c in range(mij):
                            prod = multiply(alg, j, unit_vector(aj, b),
                                            n - i - j, unit_vector(mij, c))
                            out[aij + c] = prod[aa]
                    row.append(tuple(out))
                block.append(tuple(row))
            mult[(i, j)] = tuple(block)
    return dense_algebra(dims, mult)


def identity_maps(alg: GradedFDAlgebra) -> tuple[FractionMatrix, ...]:
    """The identity of alg as a graded map, one matrix per degree."""
    return tuple(FractionMatrix.identity(m) for m in alg.dims)


def dual_trivial_extension(alg: GradedFDAlgebra, left, right,
                           n: int) -> GradedFDAlgebra:
    """Trivial extension by the dual bimodule, twisted by `left`/`right`
    and shifted to top n, from its definition.

    Degree i is A_i followed by the dual of A_{n-i}, in the dual basis;
    n must exceed the length of A, so that degree zero stays the unit
    alone.  left and right are graded maps of A, one matrix per degree, and
    the actions are (a.g)(m) = g(m * left(a)) and (g.b)(m) = g(right(b) * m),
    each read off one dense product per basis element m; products of two
    dual elements vanish.  This is the trivial extension A ⋉ A^* in which
    the paper states its theorem; the package builds the Ext model of a
    skew extension as the isomorphic shifted copy of A instead
    (twisted_module_trivial_extension).
    """
    if n <= alg.length:
        raise LinAlgError("the shift must exceed the algebra length")
    dims = [alg.dim(i) + alg.dim(n - i) for i in range(n + 1)]
    mult = {}
    for i in range(n + 1):
        for j in range(n + 1 - i):
            ai, aj, aij = alg.dim(i), alg.dim(j), alg.dim(i + j)
            k = n - i - j
            units = [unit_vector(alg.dim(k), c) for c in range(alg.dim(k))]
            block = []
            for a in range(dims[i]):
                row = []
                for b in range(dims[j]):
                    out = [ZERO] * dims[i + j]
                    if a < ai and b < aj:
                        out[:aij] = multiply_basis(alg, i, a, j, b)
                    elif a < ai:
                        la = left[i].col(a)
                        for c, m in enumerate(units):
                            out[aij + c] = multiply(alg, k, m, i, la)[b - aj]
                    elif b < aj:
                        rb = right[j].col(b)
                        for c, m in enumerate(units):
                            out[aij + c] = multiply(alg, j, rb, k, m)[a - ai]
                    row.append(tuple(out))
                block.append(tuple(row))
            mult[(i, j)] = tuple(block)
    return dense_algebra(dims, mult)


def relation_degree_subspace(alg, k):
    """Span of all degree-k words containing a relation in adjacent slots.

    Built from every placement of every relation row on n^k coordinates:
    the route to the graded pieces that the Koszul components replace, kept
    as an independent oracle for small n and k.
    """
    n = alg.n
    if k < 2:
        return Subspace.from_spanning([], n ** k)
    rows = []
    for row in alg.relations.rows:
        for i in range(k - 1):
            stride = n ** (k - i - 2)
            for u in range(n ** i):
                for v in range(stride):
                    rows.append({(u * n * n + c) * stride + v: val
                                 for c, val in row})
    return Subspace.from_spanning(rows, n ** k)


def oracle_truncation(alg, bound):
    """T(V)/(R) up to the bound read off the relation spans, with its basis
    words degree by degree.  Each span is reduced with the word order
    reversed, from the last word: the degree-k basis is the words off its
    leading words, in increasing order, and the product of two basis words
    the residue of their concatenation modulo the span in that order.  The
    words off a span's leading words from the last are the leading words of
    its annihilator from the first: a free word w has the annihilator row
    w - sum_p r_p[w] p, over the span's reduced rows r_p, each 1 at its
    leading word p, and r_p[w] is zero unless p > w.  So these are the
    pivot words of K_k of the dual."""
    n = alg.n
    # the span of degree k with the word w at coordinate n^k - 1 - w
    spans = [Subspace.from_spanning(
                 [{n ** k - 1 - c: v for c, v in row}
                  for row in relation_degree_subspace(alg, k).int_rows],
                 n ** k)
             for k in range(bound + 1)]
    words = []
    for k, span in enumerate(spans):
        lead = {n ** k - 1 - p for p in span.pivots}
        words.append([w for w in range(n ** k) if w not in lead])

    def product(i, a, j, b):
        top = n ** (i + j) - 1
        word = words[i][a] * n ** j + words[j][b]
        res = residue(spans[i + j], {top - word: 1})
        return tuple(res.get(top - w, ZERO) for w in words[i + j])

    mult = {(i, j): tuple(tuple(product(i, a, j, b) for b in range(len(words[j])))
                          for a in range(len(words[i])))
            for i in range(bound + 1) for j in range(bound + 1 - i)}
    return (dense_algebra([len(ws) for ws in words], mult),
            tuple(tuple(ws) for ws in words))


def structure_equal(a: GradedFDAlgebra, b: GradedFDAlgebra) -> bool:
    """Same graded dimensions and the same structure constants."""
    return a.dims == b.dims and fraction_table(a) == fraction_table(b)


def is_multiplicative(auto, alg: GradedFDAlgebra) -> bool:
    """Whether auto, one matrix per degree, is a unital graded algebra
    automorphism of alg, checked on every product of two basis elements."""
    if len(auto) != alg.length + 1:
        return False
    if not all(m.is_invertible() for m in auto):
        return False
    if auto[0] != FractionMatrix.identity(1):
        return False
    d = alg.length
    for i in range(d + 1):
        for j in range(d + 1 - i):
            for a in range(alg.dims[i]):
                fa = auto[i].col(a)
                for b in range(alg.dims[j]):
                    fb = auto[j].col(b)
                    lhs = auto[i + j].mul_col(multiply_basis(alg, i, a, j, b))
                    if lhs != multiply(alg, i, fa, j, fb):
                        return False
    return True


def trivial_extension(alg: GradedFDAlgebra, sigma, n: int) -> GradedFDAlgebra:
    """Trivial extension by the dual twisted by sigma on the right only."""
    return dual_trivial_extension(alg, identity_maps(alg), sigma, n)


def cdg_trivial_extension(c: Cdga) -> Cdga:
    """Extend the curved structure to the dual-sided trivial extension.

    Algebra elements keep their differential; a dual element in dual degree
    j maps to its precomposition with the differential, with sign
    (-1)^(d+j); the curvature embeds into the algebra part.
    """
    alg = c.algebra
    d = alg.length
    gamma = dual_trivial_extension(alg, twist_matrices(alg.epsilon(d)),
                                   identity_maps(alg), d + 1)
    delta = []
    for i in range(d + 1):
        # degree i is A_i followed by the dual of A_j
        j = d + 1 - i
        dual_part = fraction_matrix(c.delta[j - 1]).transpose().scale(
            (-1) ** (d + j))
        delta.append(package_matrix(block_diagonal(
            fraction_matrix(c.delta[i]), dual_part)))
    delta.append(Matrix.from_rows((), gamma.dims[d + 1]))
    curv = column(c.curvature) + (ZERO,) * alg.dim(d - 1)
    return Cdga(gamma, tuple(delta),
                Matrix.from_rows([(v,) for v in curv], 1))


def block_diagonal(top: FractionMatrix,
                    bottom: FractionMatrix) -> FractionMatrix:
    rows = [row + (ZERO,) * bottom.cols for row in top.entries]
    rows += [(ZERO,) * top.cols + row for row in bottom.entries]
    return FractionMatrix.from_rows(rows, top.cols + bottom.cols)


def rescaled_nakayama_shift(cert, c: Cdga, s) -> tuple:
    """The Nakayama shift of a deformation with curved dual c, read after
    rescaling the top class by s: entry i is the top coefficient of the
    differential on s times the element that pairs to 1 against the i-th
    dual generator, divided by s.  Independent of s for s nonzero."""
    s = Fraction(s)
    d = cert.gldim
    omega_cols = dense_inverse(cert.dual_fd.pairings[1]).scale(s)
    delta = fraction_matrix(c.delta[d - 1])
    return tuple(delta.mul_col(omega_cols.col(i))[0] / s
                 for i in range(cert.algebra.n))


def zero_action_model(cert):
    """The dual extended by its shifted copy with every element of positive
    degree acting by zero: not generated in degree 1, as the copy of the
    dual's degree 1 is no product."""
    dual = cert.dual_fd
    unit_only = tuple(Matrix.identity(1) if i == 0
                      else Matrix.from_rows([[0] * m] * m, m)
                      for i, m in enumerate(dual.dims))
    return twisted_extension(dual, unit_only, unit_only)


def twisted_extension(alg: GradedFDAlgebra, left, right) -> GradedFDAlgebra:
    """The shifted-copy trivial extension of the algebra twisted by any
    graded maps `left` and `right` (package Matrix tuples), built by the
    cell loop of oracle_trivial_extension_table: the package builds only
    the model's, whose left twist is the sign of the degree."""
    return GradedFDAlgebra(*oracle_trivial_extension_table(
        alg, twist_matrices(left), twist_matrices(right)))


def with_model(ext, model):
    """A copy of the extension whose model is the given one: seeded where
    the cached property keeps it, so the copy never builds its own."""
    copy = SkewExtension(ext.cert, ext.sigma, ext.algebra, ext.sigma_inverse)
    copy.__dict__["model"] = model
    return copy


def oracle_stacked_relations(ext):
    """The relation rows of A[z; sigma] in Fractions, stacked as skew_extend
    stacked them before it wrote the canonical rows itself: the base's
    canonical rows embedded in the (n+1)^2 words of the extension, then
    the mixed relation z (x) sigma^{-1}(x_i) - x_i (x) z of each letter x_i,
    sigma^{-1} the dense inverse of ext.sigma."""
    n = ext.cert.algebra.n
    m = n + 1
    rows = [{(c // n) * m + c % n: v for c, v in row}
            for row in ext.cert.algebra.relations.rows]
    pinv = dense_inverse(ext.sigma)
    for i in range(n):
        mixed = {n * m + j: pinv[j, i] for j in range(n) if pinv[j, i]}
        mixed[i * m + n] = Fraction(-1)
        rows.append(mixed)
    return tuple(rows)


def oracle_cdga_axioms(c: Cdga):
    """(leibniz failures, curvature closed, square failures) of
    check_cdga_axioms by the all-pairs loops it replaced, in Fractions:
    Leibniz on every pair (x, y) of basis elements whose product lies
    below the top degree, listed as (|x|, |y|, x, y), and the curved square
    on every basis element x below the top, listed as (|x|, x)."""
    alg = c.algebra
    length = alg.length
    delta = [fraction_matrix(m) for m in c.delta]
    curvature = column(c.curvature)
    leibniz = []
    for i in range(length + 1):
        for j in range(length - i):
            for a in range(alg.dims[i]):
                ua = unit_vector(alg.dims[i], a)
                da = delta[i].col(a)
                for b in range(alg.dims[j]):
                    ub = unit_vector(alg.dims[j], b)
                    lhs = delta[i + j].mul_col(multiply(alg, i, ua, j, ub))
                    first = multiply(alg, i + 1, da, j, ub)
                    second = multiply(alg, i, ua, j + 1, delta[j].col(b))
                    rhs = tuple(x + (-1) ** i * y
                                for x, y in zip(first, second))
                    if lhs != rhs:
                        leibniz.append((i, j, a, b))
    closed = not any(delta[2].mul_col(curvature))
    squares = []
    for j in range(length):
        square = delta[j + 1] @ delta[j]
        for a in range(alg.dims[j]):
            ua = unit_vector(alg.dims[j], a)
            left = multiply(alg, 2, curvature, j, ua)
            right = multiply(alg, j, ua, 2, curvature)
            if square.mul_col(ua) != tuple(x - y for x, y in zip(left, right)):
                squares.append((j, a))
    return tuple(leibniz), closed, tuple(squares)


def associativity_failure(dims, mult):
    """The first triple of basis elements, as ((i, j, k), (a, b, c)), with
    (e_a e_b) e_c != e_a (e_b e_c) in a sparse structure table, or None.

    Every triple is compared, in Fractions, degree-0 factors included: the
    reference for GradedFDAlgebra's check on generators.
    """
    def combine(coeffs, cells):
        acc = {}
        for t, x in coeffs:
            for c, w in cells[t]:
                acc[c] = acc.get(c, 0) + x * w
        return {c: v for c, v in acc.items() if v}

    d = len(dims) - 1
    for i in range(d + 1):
        for j in range(d + 1 - i):
            for k in range(d + 1 - i - j):
                ij_k = mult[(i + j, k)]
                i_jk = mult[(i, j + k)]
                for a in range(dims[i]):
                    for b in range(dims[j]):
                        ab = mult[(i, j)][a][b]
                        for c in range(dims[k]):
                            left = combine(ab, [row[c] for row in ij_k])
                            right = combine(mult[(j, k)][b][c], i_jk[a])
                            if left != right:
                                return (i, j, k), (a, b, c)
    return None


def generator_associativity_failure(dims, mult):
    """The triple ((i, j, k), (a, b, c)) that GradedFDAlgebra's check on
    generators names for a sparse structure table, or None: the first one,
    with i, j, k >= 1 in that order and then a, b, c, at which (e_a e_b) e_c
    != e_a (e_b e_c), with c running over the degree-k generators.  Those
    are the basis elements at the non-pivot columns of the dense reduced
    echelon form of every product of two positive degrees landing in
    degree k.  Each side is summed in full, with no single-term path.
    """
    def combine(coeffs, cells):
        acc = {}
        for t, x in coeffs:
            for c, w in cells[t]:
                acc[c] = acc.get(c, 0) + x * w
        return {c: v for c, v in acc.items() if v}

    d = len(dims) - 1
    gens = [()]
    for k in range(1, d + 1):
        products = []
        for i in range(1, k):
            for row in mult[(i, k - i)]:
                for cell in row:
                    dense = [0] * dims[k]
                    for c, w in cell:
                        dense[c] = w
                    products.append(dense)
        pivots = dense_rref(products, dims[k])[0]
        gens.append(tuple(c for c in range(dims[k]) if c not in pivots))
    for i in range(1, d + 1):
        for j in range(1, d + 1 - i):
            for k in range(1, d + 1 - i - j):
                ij_k = mult[(i + j, k)]
                i_jk = mult[(i, j + k)]
                for a in range(dims[i]):
                    for b in range(dims[j]):
                        ab = mult[(i, j)][a][b]
                        for c in gens[k]:
                            left = combine(ab, [row[c] for row in ij_k])
                            right = combine(mult[(j, k)][b][c], i_jk[a])
                            if left != right:
                                return (i, j, k), (a, b, c)
    return None


def model_map_multiplicative(gamma: GradedFDAlgebra,
                             ext_dual: GradedFDAlgebra) -> bool:
    """Whether the degreewise map of verify_ext_algebra_isomorphism, from
    the model gamma to the truncated dual of the extension, preserves the
    product of every pair of basis elements.

    The map is rebuilt as there: the identity in degrees 0 and 1, and in
    degree k the solution of f(x s) = f(x) f(s) over degree-(k-1) basis
    elements x and degree-1 basis elements s; False if it has none.
    """
    if gamma.dims[:2] != ext_dual.dims[:2]:
        return False
    maps = [FractionMatrix.identity(gamma.dims[0]),
            FractionMatrix.identity(gamma.dims[1])]
    for k in range(2, gamma.length + 1):
        pcols, qcols = [], []
        for a in range(gamma.dims[k - 1]):
            for b in range(gamma.dims[1]):
                pcols.append(multiply_basis(gamma, k - 1, a, 1, b))
                qcols.append(multiply(ext_dual, k - 1, maps[k - 1].col(a),
                                      1, maps[1].col(b)))
        smat = dense_right_inverse(FractionMatrix.from_rows(zip(*pcols),
                                                            len(pcols)))
        if smat is None:
            return False
        maps.append(FractionMatrix.from_rows(zip(*qcols), len(qcols)) @ smat)
    d = gamma.length
    for i in range(d + 1):
        for j in range(d + 1 - i):
            for a in range(gamma.dims[i]):
                fa = maps[i].col(a)
                for b in range(gamma.dims[j]):
                    lhs = maps[i + j].mul_col(multiply_basis(gamma, i, a, j, b))
                    if lhs != multiply(ext_dual, i, fa, j, maps[j].col(b)):
                        return False
    return True


def ext_iso_oracle(ext):
    """The four verdicts of skew.verify_ext_algebra_isomorphism on the
    extension, as (generated_ok, bijective, left_identity_ok,
    right_identity_ok), by the dense route it replaced.

    In degree k the model products of every pair of a degree-(k-1) and a
    degree-1 basis element are the columns of P, their honest images the
    columns of Q; f_k is Q times the right inverse of P (dense_right_inverse),
    generated_ok needs the right inverse to exist and f_k P = Q, and
    bijective needs it to exist and f_k to be invertible.  The mixed relation
    classes are solved one at a time, from the Fraction rows of
    oracle_stacked_relations; the right identity combines them by the
    inverse twist the extension carries, from which its model is built.
    The model is the extension's own (ext.model), so a test can seed a
    wrong one on a copy; the honest dual is truncated here, not read off
    the extension.
    """
    cert = ext.cert
    alg = cert.algebra
    n = alg.n
    gamma = ext.model
    ebd = truncated_structure(ext.algebra.dual, cert.gldim + 1)
    generated_ok = True
    bijective = True
    maps = [FractionMatrix.identity(1), FractionMatrix.identity(n + 1)]
    for k in range(2, cert.gldim + 2):
        pcols = []
        qcols = []
        for a in range(gamma.dims[k - 1]):
            fa = maps[k - 1].col(a)
            for b in range(gamma.dims[1]):
                pcols.append(multiply_basis(gamma, k - 1, a, 1, b))
                qcols.append(multiply(ebd, k - 1, fa, 1, maps[1].col(b)))
        pmat = FractionMatrix.from_rows(zip(*pcols), len(pcols))
        qmat = FractionMatrix.from_rows(zip(*qcols), len(qcols))
        smat = dense_right_inverse(pmat)
        if smat is None:
            generated_ok = False
            bijective = False
            maps.append(FractionMatrix.zero(ebd.dims[k], gamma.dims[k]))
            continue
        fk = qmat @ smat
        if fk @ pmat != qmat:
            generated_ok = False
        if gamma.dims[k] != ebd.dims[k] or not fk.is_invertible():
            bijective = False
        maps.append(fk)
    nrel = alg.relations.dim
    rt_classes = [oracle_class_from_pairings(
        ebd, 2, oracle_stacked_relations(ext),
        [unit_vector(nrel + n, nrel + i)])[0] for i in range(n)]
    pinv = fraction_matrix(ext.sigma_inverse)
    left_ok = True
    right_ok = True
    for i in range(n):
        xi_zs = multiply(ebd, 1, unit_vector(n + 1, i),
                         1, unit_vector(n + 1, n))
        if xi_zs != tuple(-v for v in rt_classes[i]):
            left_ok = False
        zs_xi = multiply(ebd, 1, unit_vector(n + 1, n),
                         1, unit_vector(n + 1, i))
        expect = [ZERO] * ebd.dims[2]
        for j in range(n):
            for t, v in enumerate(rt_classes[j]):
                expect[t] += pinv[i, j] * v
        if zs_xi != tuple(expect):
            right_ok = False
    return generated_ok, bijective, left_ok, right_ok


# The Fraction routes of the Calabi-Yau path that the package replaced by
# integer ones, kept as oracles for them.

def solve(rows, n):
    """int_solve on rational rows, with Fraction solutions: the Fraction
    solver the package kept before every caller moved to int_solve.

    Columns below n hold the unknowns and column n + j holds right-hand side
    j; rows are rational, sparse maps or dense sequences.  Returns
    ({pivot unknown p: {j: x_p of solution j}}, consistent), zeros left
    out and every free unknown zero.  The rows are scaled to integers and
    solved by `int_solve`.
    """
    sol, consistent = int_solve((_to_int_row(r) for r in rows), n)
    return ({p: {j: Fraction(v, pv) for j, v in vals.items()}
             for p, (pv, vals) in sol.items()}, consistent)


def oracle_class_from_pairings(trunc, k, rows, value_vectors):
    """TruncatedAlgebra.class_from_pairings by the Fraction route: the
    Fraction rows read on the basis words, the values appended, one
    Fraction `solve`."""
    rows = [dict(r) for r in rows]
    if not all(trunc.components[k].contains(r) for r in rows):
        raise LinAlgError("pairing values are not class functions")
    dim = trunc.dims[k]
    aug = []
    for i, r in enumerate(rows):
        row = {t: r[w] for t, w in enumerate(trunc.words[k]) if w in r}
        for j, values in enumerate(value_vectors):
            row[dim + j] = values[i]
        aug.append(row)
    sol, consistent = solve(aug, dim)
    if not consistent:
        raise LinAlgError("no element attains the prescribed pairings")
    return [tuple(sol.get(t, {}).get(j, ZERO) for t in range(dim))
            for j in range(len(value_vectors))]


def class_from_pairings(trunc, k, rows, value_vectors):
    """TruncatedAlgebra.int_class_from_pairings with each class as its
    Fraction coordinates: the Fraction view the package kept before its
    readers moved to the integer classes."""
    sol = trunc.int_class_from_pairings(k, rows, value_vectors)
    return [tuple(Fraction(sol[t][1].get(j, 0), sol[t][0]) if t in sol
                  else ZERO for t in range(trunc.dims[k]))
            for j in range(len(value_vectors))]


def reduce_sparse(trunc, k, sparse):
    """The Fraction class coordinates of a sparse word vector of degree k,
    read off the integer class cells of a TruncatedAlgebra."""
    out = [ZERO] * trunc.dims[k]
    for w, c in sparse.items():
        if c:
            for t, v in trunc.classes[k].get(w, ()):
                out[t] += c * v
    return tuple(x / trunc.den for x in out)


def lift_sparse(trunc, k, coords):
    """The word vector on the degree-k basis words with these coordinates."""
    return {w: Fraction(c) for w, c in zip(trunc.words[k], coords) if c}


def oracle_preserves_subspace(phi, space) -> bool:
    """Whether phi (x) phi maps a subspace of the degree-two words into
    itself, each Fraction basis row mapped by oracle_slotwise."""
    return all(space.contains(oracle_slotwise([phi, phi], dict(row), phi.cols))
               for row in space.rows)


def oracle_automorphism(trunc, phi) -> tuple[FractionMatrix, ...]:
    """TruncatedAlgebra.automorphism by the Fraction route: every basis word
    mapped by oracle_slotwise and reduced to its class by reduce_sparse."""
    if not oracle_preserves_subspace(phi, trunc.algebra.relations):
        raise LinAlgError("map does not preserve the relation subspace")
    n = trunc.algebra.n
    mats = []
    for k in range(trunc.length + 1):
        cols = [reduce_sparse(trunc, k, oracle_slotwise([phi] * k,
                                                        {w: Fraction(1)}, n))
                for w in trunc.words[k]]
        mats.append(FractionMatrix.from_rows(cols, trunc.dims[k]).transpose())
    return tuple(mats)


def oracle_frobenius(alg: GradedFDAlgebra):
    """(pairings, nakayama) of a Frobenius algebra as Fraction matrices:
    G_i read off multiply_basis, and nak[d-i] = G_i^{-1} G_{d-i}^T by
    dense_inverse, the solution of G_i nak[d-i] = G_{d-i}^T."""
    d = alg.length
    dims = alg.dims
    pairings = [FractionMatrix.from_rows(
                    [[multiply_basis(alg, i, a, d - i, b)[0]
                      for b in range(dims[d - i])]
                     for a in range(dims[i])], dims[d - i])
                for i in range(d + 1)]
    nakayama = [None] * (d + 1)
    for i in range(d + 1):
        nakayama[d - i] = dense_inverse(pairings[i]) @ pairings[d - i].transpose()
    return tuple(pairings), tuple(nakayama)


def oracle_graded_symmetry(alg: GradedFDAlgebra):
    """(pairing verdict, witness, Nakayama verdict) of is_graded_symmetric
    by the Fraction-matrix comparison, on the matrices of oracle_frobenius:
    the witness is the first (degree, row, col) with G_i[a, b] unequal to
    the signed G_{d-i}[b, a], and the Nakayama verdict asks every nak[i] to
    be (-1)^((d-1) i) times the identity."""
    pairings, nakayama = oracle_frobenius(alg)
    d = alg.length
    witness = next(((i, a, b) for i in range(d + 1)
                    for a in range(pairings[i].rows)
                    for b in range(pairings[i].cols)
                    if pairings[i][a, b] != (-1) ** (i * (d - i))
                    * pairings[d - i][b, a]), None)
    ok_nakayama = all(
        nakayama[i] == FractionMatrix.identity(alg.dims[i]).scale(
            (-1) ** ((d - 1) * i))
        for i in range(d + 1))
    return witness is None, witness, ok_nakayama


def oracle_trivial_extension_table(alg: GradedFDAlgebra, left, right):
    """(dims, int_mult, den) of twisted_module_trivial_extension by the
    cell-by-cell loop it replaced: every cell of every block is chosen by
    its position, an E-cell rescaled one at a time, and an action cell
    summed from the twist entries read in Fractions and scaled by L, the
    lcm of their denominators."""
    d = alg.length
    scale = lcm(*[v.denominator for maps in (left, right) for m in maps
                  for row in m.entries for v in row])

    def action(terms):
        acc = {}
        for x, cell in terms:
            for c, w in cell:
                acc[c] = acc.get(c, 0) + int(x * scale) * w
        return [(c, v) for c, v in sorted(acc.items()) if v]

    dims = [alg.dim(i) + alg.dim(i - 1) for i in range(d + 2)]
    mult = {}
    for i in range(d + 2):
        for j in range(d + 2 - i):
            ai, aj, off = alg.dim(i), alg.dim(j), alg.dim(i + j)
            inner = alg.int_mult.get((i, j))
            on_copy = alg.int_mult.get((i, j - 1))
            copy_on = alg.int_mult.get((i - 1, j))
            block = []
            for a in range(dims[i]):
                row = []
                for b in range(dims[j]):
                    if a < ai and b < aj:
                        cell = inner[a][b] if inner else ()
                        row.append(tuple((c, scale * w) for c, w in cell))
                        continue
                    if a < ai:
                        cell = action([(left[i][t, a], on_copy[t][b - aj])
                                       for t in range(ai) if left[i][t, a]])
                    elif b < aj:
                        cell = action([(right[j][t, b], copy_on[a - ai][t])
                                       for t in range(aj) if right[j][t, b]])
                    else:
                        cell = ()
                    row.append(tuple((off + c, v) for c, v in cell))
                block.append(tuple(row))
            mult[(i, j)] = tuple(block)
    return tuple(dims), mult, alg.den * scale


def int_twist(mats) -> tuple[Matrix, ...]:
    """A graded map given by one matrix per degree as the package takes a
    twist: one integer Matrix per degree."""
    return tuple(package_matrix(m) for m in mats)


def twist_matrices(twist) -> tuple[FractionMatrix, ...]:
    """A graded map given by one matrix per degree as the oracles read it:
    one FractionMatrix per degree."""
    return tuple(fraction_matrix(m) for m in twist)


# ---------------------------------------------------------------------------
# the elimination core and Koszul builder as they were before the one-loop
# elimination: a reduction step is an _axpy call, every kept row is
# gcd-stripped, and the equation builder hands on every row it writes
# ---------------------------------------------------------------------------

def _oracle_axpy(a, row, b, other):
    """a*row - b*other with zero entries dropped; row is updated in place
    when a is 1."""
    out = {c: a * v for c, v in row.items()} if a != 1 else row
    for c, v in other.items():
        nv = out.get(c, 0) - b * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return out


def oracle_forward_reduce(row, pivots):
    """Reduce row against the pivot rows; (lead, kept row) or (None, {})."""
    while row:
        lead = min(row)
        p = pivots.get(lead)
        if p is None:
            if row[lead] < 0:
                row = {c: -v for c, v in row.items()}
            return lead, _strip(row)
        a, b = p[lead], row[lead]
        g = gcd(a, b)
        row = _oracle_axpy(a // g, row, b // g, p)
    return None, {}


def oracle_echelon_int(rows):
    """{pivot column: integer row} of the forward pass, in the order the
    rows that gave them came in."""
    pivots = {}
    for r in rows:
        lead, red = oracle_forward_reduce(r, pivots)
        if lead is not None:
            pivots[lead] = red
    return pivots


def oracle_reduced_echelon(rows):
    """The reduced echelon form of rows: the forward pass, then back
    substitution from the last row up, stripping after every step."""
    pivots = oracle_echelon_int(rows)
    for qc in sorted(pivots, reverse=True):
        qrow = pivots[qc]
        for pc in [c for c in qrow if c != qc and c in pivots]:
            prow = pivots[pc]
            a, b = qrow[pc], prow[pc]
            g = gcd(a, b)
            qrow = _strip(_oracle_axpy(b // g, qrow, a // g, prow))
        pivots[qc] = qrow
    return pivots


def oracle_int_solve(rows, n):
    """int_solve on the oracle core: ({pivot: (pivot entry, {j: int})},
    consistent)."""
    echelon = oracle_echelon_int(rows)
    kept = [r for p, r in echelon.items() if p < n]
    out = {}
    for p, row in oracle_reduced_echelon(kept).items():
        out[p] = (row[p], {c - n: v for c, v in row.items() if c >= n})
    return out, len(kept) == len(echelon)


def oracle_flipped_int_kernel(rows, ambient):
    """flipped_int_kernel on the oracle core."""
    top = ambient - 1
    pivots = oracle_reduced_echelon(rows)
    by_col = {}
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


def oracle_koszul_equations(alg, prev_space, before):
    """Every equation row at the pivot words of K_{m-2}, in the numbering
    of flipped_int_kernel, one-entry repeats included."""
    n = alg.n
    prev = prev_space.int_rows
    top = len(prev) * n - 1
    perp_rows = alg.dual.relations.int_rows
    perp = [[] for _ in range(n)]
    for fi, f in enumerate(perp_rows):
        for c, v in f:
            a, l = divmod(c, n)
            perp[a].append((fi, l, v))
    eqs = {u: [{} for _ in perp_rows] for u in before.pivots}
    for s, b in enumerate(prev):
        col = top - s * n
        for w, val in b:
            u, a = divmod(w, n)
            at_u = eqs.get(u)
            if at_u is None:
                continue
            for fi, l, v in perp[a]:
                eq = at_u[fi]
                c = col - l
                nv = eq.get(c, 0) + val * v
                if nv:
                    eq[c] = nv
                else:
                    del eq[c]
    return [eq for at_u in eqs.values() for eq in at_u if eq]


def oracle_koszul_data(alg, top):
    """([K_0, ..., K_k], [dim K_0, ..., dim K_k]) of alg by the oracle
    core: each K_m, m > 2, the canonical kernel over K_{m-1} (x) V expanded
    into words, and each dimension the unknowns less the rank of the
    equations.  It stops at the top degree, at the word cap, or after the
    first zero component from degree 3 on."""
    n = alg.n
    comps = [Subspace.full(1), Subspace.full(n), alg.relations]
    dims = [c.dim for c in comps]
    for m in range(3, top + 1):
        prev, before = comps[-1], comps[-2]
        if not prev.dim or n ** m > MAX_WORDS:
            break
        eqs = oracle_koszul_equations(alg, prev, before)
        unknowns = prev.dim * n
        dims.append(unknowns - len(oracle_echelon_int(
            [dict(eq) for eq in eqs])))
        pivots = []
        rows = []
        for c in oracle_flipped_int_kernel(eqs, unknowns):
            x = {}
            for j, cj in c.items():
                s, l = divmod(j, n)
                for w, val in prev.int_rows[s]:
                    x[w * n + l] = x.get(w * n + l, 0) + cj * val
            s, l = divmod(min(c), n)
            pivots.append(prev.pivots[s] * n + l)
            rows.append(tuple(sorted(_strip({w: v for w, v in x.items()
                                             if v}).items())))
        comps.append(Subspace(n ** m, tuple(pivots), tuple(rows)))
    return comps[:top + 1], dims[:top + 1]
