"""Quadratic algebras T(V)/(R): duals, graded dimensions, Koszul data,
and truncated multiplication tables.

An algebra is a tuple of generator names plus a canonical subspace R of the
degree-two word coordinates, spanned by relation rows (sparse {word index:
value} maps): QuadraticAlgebra(names, Subspace.from_spanning(rows, n * n)).
Degreewise data comes from the Koszul components K_k, kept on the
presentation (_koszul_store) and built in order of degree, each from the
two below it: the degree-k piece of T(V)/(R) is the linear dual of K_k
of the quadratic dual (Polishchuk-Positselski, Quadratic Algebras, Ch. 1).
Where only a dimension is asked for, it is counted instead whenever R has
a PBW basis of normal words (see graded_dims): then no K_k is built beyond
degree CHECKED_DEGREES.

K_k is computed in integers, as an integer kernel over K_{k-1} (x) V with
one block of equations per pivot word of K_{k-2}; an equation of one entry
is handed on only the first time its column comes up, as any later one is
a multiple of it.  The kernel rows come out canonical, and so do their
expansions into words, so no elimination runs on the n^k word coordinates
of K_k.  The elimination clears such one-entry rows from the others by
deleting an entry (linalg's module docstring).  A truncation of T(V)/(R) is one
object, a TruncatedAlgebra: the GradedFDAlgebra whose sparse structure
cells are read off the class coordinates of product words, together with
those classes and its basis words (`words`), the only names its basis
elements have: the pivot words of each K_k of the dual, whose own rows
give the classes, so that a truncation runs no elimination of its own.
The class of an integer word vector is read off the
integer class cells (int_class) by the automorphism, which extends a
degree-one map to every degree, one integer Matrix each, and by pbw's
differentials; the classes a deformation fixes by pairings come from one
int_solve (int_class_from_pairings).  No component is built on more than
MAX_WORDS = 10^6 coordinate words: asking for one raises
ResourceLimitError, unless K_{k-1} is zero, when K_k is the zero subspace
at any number of words, answered fresh and not stored; the two rules
bound what an algebra keeps (_KoszulStore).

graded_dims and numeric_koszul_certificate read only dimensions, and the
highest degree each reads is never built: dim K_m is the number of
unknowns over K_{m-1} (x) V less the rank of the equations that cut K_m
out (Polishchuk-Positselski, Ch. 1), a forward elimination with no kernel
basis and no word expansion (_koszul_dim).  Every lower degree is built
in full, as the next degree's equations are written over it.  Both paths
apply the zero-K_{k-1} rule and the word cap in one order and take their
equations from one builder (_koszul_equations), so they agree and stop at
the same degrees.  A counted degree keeps its forward echelon form, which
building that degree finishes with no second elimination.  Their answers
are not kept here: each call reads them off the kept eliminations and runs
its cross-checks again.  A caller that has counted a sequence hands it to
koszul_numerics, the checks of numeric_koszul_certificate, instead of
counting it twice; the regularity certificate keeps the record that
returns, three tuples of bound + 1 ints.
shared_presentation hands out one presentation per algebra value, to the
documents io reads and to the skew extensions skew builds.
"""

from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from .frobenius import GradedFDAlgebra
from .linalg import (ConsistencyError, LinAlgError, Matrix, ResourceLimitError,
                     Subspace, _echelon_int, _strip, _to_int_row,
                     flipped_int_kernel, int_solve)
from .tensors import apply_slot_columns, preserves_subspace

# the most coordinate words n**m a Koszul component may have
MAX_WORDS = 10 ** 6
# graded_dims reads degrees up to this one off K_k(A^!) on every input, and
# checks the normal-word count against them wherever that count is used
CHECKED_DEGREES = 4


class QuadraticAlgebra:
    """A quadratic presentation: generator names and the relation subspace.
    Immutable, and equal and hashed by (names, relations)."""

    def __init__(self, names: tuple[str, ...], relations: Subspace):
        n = len(names)
        if n == 0:
            raise LinAlgError("at least one generator is required")
        if relations.ambient != n * n:
            raise LinAlgError("relation subspace must live in degree-two words")
        self.__dict__.update(names=names, relations=relations)

    def __setattr__(self, name, value):
        raise AttributeError("a QuadraticAlgebra is immutable")

    def __eq__(self, other):
        if type(other) is not QuadraticAlgebra:
            return NotImplemented
        return self.names == other.names and self.relations == other.relations

    def __hash__(self) -> int:
        return hash((self.names, self.relations))

    def __repr__(self) -> str:
        return f"QuadraticAlgebra({self.names!r}, {self.relations!r})"

    @property
    def n(self) -> int:
        return len(self.names)

    @cached_property
    def dual(self) -> "QuadraticAlgebra":
        """The quadratic algebra on the dual space with relations R-perp,
        computed once per presentation object; its own dual is this object
        whenever the names dual back, since R-perp-perp is R.

        Dual coordinates pair with word coordinates by the plain dot
        product, slot by slot with no sign.
        """
        dual = QuadraticAlgebra(dual_names(self.names),
                                self.relations.annihilator())
        if dual_names(dual.names) == self.names:
            dual.__dict__["dual"] = self
        return dual

    @cached_property
    def _letter_graph(self) -> tuple[tuple[int, ...], ...]:
        """For each letter b, the letters a with ab not a leading word of
        R: the edges a -> b of _normal_word_counts' walk."""
        n = self.n
        lead = set(self.relations.pivots)
        return tuple(tuple(a for a in range(n) if a * n + b not in lead)
                     for b in range(n))

    @cached_property
    def _koszul_store(self) -> "_KoszulStore":
        """The Koszul data of this presentation, freed with it."""
        return _KoszulStore([], {})


class _KoszulStore(NamedTuple):
    """What a presentation keeps of its Koszul data, its eliminations and
    no answer read off them: the components built so far, [K_0, ..., K_k],
    filled by koszul_component; and the degree counted by rank and not
    built yet, {m: the forward echelon form of the equations of K_m},
    filled by _koszul_dim for m = k + 1 only and taken over by
    koszul_component when it builds that degree.

    Bounded by the word cap: a zero K_k ends the store, and no K_k on more
    than MAX_WORDS words is built or counted, so for n >= 2 it holds at
    most floor(log_n MAX_WORDS) + 1 components and one counted form.  For
    n = 1 only k[x]/(x^2) never vanishes, one component per degree asked
    for: at most cli.MAX_DEGREE + 1 from the command line."""

    built: list[Subspace]
    counted: dict[int, dict[int, dict[int, int]]]


# bounded at over twice the 12 presentations of one corpus sweep: the 7
# algebras its 10 documents present and 5 of the 7 skew extensions, since
# kxy's extension is poly3's algebra and quantum_plane_qm1's is quantum3's
@lru_cache(maxsize=32)
def shared_presentation(names: tuple[str, ...], relations: Subspace, /
                        ) -> QuadraticAlgebra:
    """The QuadraticAlgebra of the names and relation subspace, one object
    per value: documents and skew extensions that present one algebra
    share it, and with it its dual and the Koszul data kept on it."""
    return QuadraticAlgebra(names, relations)


def dual_names(names) -> tuple[str, ...]:
    out = tuple(s[:-1] if s.endswith("*") else s + "*" for s in names)
    if len(set(out)) != len(out):
        out = tuple(s + "*" for s in names)
    return out


def graded_dims(alg: QuadraticAlgebra, bound: int) -> tuple[int, ...]:
    """Dimensions of the graded components of T(V)/(R) up to the bound.

    Up to degree CHECKED_DEGREES the degree-k piece is read off the Koszul
    component K_k of the dual, its linear dual.  Beyond it, degree k is the
    number of normal words of length k whenever R has a PBW basis in the
    order of _normal_word_counts, and is read off K_k otherwise.

    The PBW test is Bergman's diamond lemma in degree 3 (Bergman, "The
    diamond lemma for ring theory", 1978; Polishchuk-Positselski, Quadratic
    Algebras, Ch. 4).  The normal words of length k span A_k: a word that
    contains a leading word w of R rewrites, modulo R in those two slots,
    as a combination of words that are smaller in the deglex order, and
    words of one length are finitely many.  They are a basis in every
    degree exactly when they are one in degree 3, where the only overlaps
    of two leading words live; as they span, that is when their number
    equals dim A_3.  When the test passes, the counts and the
    K_k dimensions of degrees up to CHECKED_DEGREES are two routes to one
    answer, and a disagreement raises ConsistencyError.

    The test runs before the top degree is chosen, so that no degree is
    eliminated twice.  The top degree read (CHECKED_DEGREES, or the bound
    if lower, on a PBW input; the bound otherwise) is counted by rank and
    never built (module docstring); the degrees below it are built, since
    each is the ground of the next one's equations.  Those eliminations
    are kept on the dual, the answer is not: each call counts again and
    compares again, from the kept components.
    """
    dual = alg.dual
    pbw = False
    if bound >= 3:
        counts = _normal_word_counts(alg, bound)
        # K_3 in full when a higher degree is built over it, else counted
        pbw = counts[3] == (koszul_component(dual, 3).dim if bound > 3
                            else _koszul_dim(dual, 3))
    # not PBW in this order: every degree from its Koszul component
    top = min(bound, CHECKED_DEGREES) if pbw else bound
    checked = _component_dims(dual, top)
    if pbw and counts[:top + 1] != checked:
        raise ConsistencyError(
            f"normal-word counts {counts[:top + 1]} disagree with the "
            f"Koszul component dimensions {checked} of a PBW algebra")
    return counts if pbw else checked


def _normal_word_counts(alg: QuadraticAlgebra, bound: int) -> tuple[int, ...]:
    """The number of normal words of each length up to the bound.

    Order words of one length lexicographically with x_1 > ... > x_n.  A
    smaller word index is then a larger word, so the pivots of R's reduced
    echelon form, which lead its rows from the smallest index, are the
    leading words of R, one per dimension.  A normal word contains no
    leading word in two adjacent slots: a walk in the graph on the letters
    with an edge a -> b for every two-letter word ab that is not a leading
    word, kept on the presentation (QuadraticAlgebra._letter_graph).
    """
    # ends[b]: normal words of the current length that end in letter b
    ends = [1] * alg.n
    counts = [1, alg.n]
    for _ in range(2, bound + 1):
        ends = [sum(map(ends.__getitem__, before))
                for before in alg._letter_graph]
        counts.append(sum(ends))
    return tuple(counts)


def _koszul_equations(alg: QuadraticAlgebra, prev_space: Subspace,
                      before: Subspace) -> list[dict[int, int]]:
    """The equations that cut K_m, m > 2, out of K_{m-1} (x) V, given
    K_{m-1} (prev_space) and K_{m-2} (before).

    With b_s the basis rows of K_{m-1} and d their number, the coefficient
    of b_s (x) e_l sits in column d n - 1 - (s n + l): the rows are written
    in int_kernel's numbering from the last column down, with no zero
    entry, and are fresh, the caller's to give to the elimination.

    A row of one entry is handed on only the first time its column comes
    up: the equations at several (u, f) often pin one coefficient alone
    (K_4 of the 5-letter skew extension writes 120 rows, 60 of them
    distinct up to scale, and its one-entry rows hit 30 columns 90 times).
    A later row proportional to an earlier one reduces to zero in the
    forward pass and leaves every pivot row as it was, so the echelon
    form, the rank and the kernel are those of all the rows.
    """
    n = alg.n
    # all arithmetic below is on content-free integer rows; rescaling the
    # basis of K_{m-1} or of R-perp does not change the span computed
    prev = prev_space.int_rows
    top = len(prev) * n - 1
    perp_rows = alg.dual.relations.int_rows
    # the entries f[a, l] of the R-perp basis, grouped by their first letter a
    perp = [[] for _ in range(n)]
    for fi, f in enumerate(perp_rows):
        for c, v in f:
            a, l = divmod(c, n)
            perp[a].append((fi, l, v))
    # the equations at the pivot words u of K_{m-2} span all of them
    # (koszul_component's docstring), so only those are written: one row
    # per u and per f in R-perp
    eqs = {u: [{} for _ in perp_rows] for u in before.pivots}
    # x = sum c[s, l] b_s (x) e_l lies in V^{m-2} (x) R exactly when it
    # pairs to zero with u (x) f for every word u of length m-2 and every
    # f in R-perp
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
    out = []
    pinned = set()
    for at_u in eqs.values():
        for eq in at_u:
            if len(eq) == 1:
                (c,) = eq
                if c in pinned:
                    continue
                pinned.add(c)
            if eq:
                out.append(eq)
    return out


def _check_words(n: int, m: int) -> None:
    if n ** m > MAX_WORDS:
        raise ResourceLimitError(
            f"{n}^{m} coordinate words exceed the cap of {MAX_WORDS}")


def _koszul_dim(alg: QuadraticAlgebra, m: int) -> int:
    """dim K_m: the unknowns over K_{m-1} (x) V less the rank of the
    equations, from the forward elimination alone; no kernel basis and no
    word expansion.  The echelon form is stored with the components, for
    koszul_component to finish; a degree already built, or one up to 2,
    which needs no equations, is read off its component."""
    built, counted = alg._koszul_store
    if m <= 2 or m < len(built):
        return koszul_component(alg, m).dim
    if m not in counted:
        prev_space = koszul_component(alg, m - 1)
        if not prev_space.dim:
            return 0
        _check_words(alg.n, m)
        counted[m] = _echelon_int(_koszul_equations(alg, prev_space,
                                                    built[m - 2]))
    return built[m - 1].dim * alg.n - len(counted[m])


def _component_dims(alg: QuadraticAlgebra, top: int) -> tuple[int, ...]:
    """dim K_0, ..., dim K_top.  Every degree below the top is built in
    full, since the equations of the next degree are written over it; the
    top degree is only counted, by _koszul_dim."""
    return (tuple(koszul_component(alg, k).dim for k in range(top))
            + (_koszul_dim(alg, top),))


def koszul_component(alg: QuadraticAlgebra, m: int) -> Subspace:
    """The degree-m piece of the Koszul complex: all words landing in R
    at every adjacent slot pair, as a kernel over K_{m-1} (x) V.  It is
    zero when K_{m-1} is, and is returned as such at any number of words;
    otherwise it raises ResourceLimitError beyond MAX_WORDS coordinate
    words.

    The kernel is cut out by one equation per word u of length m-2 and
    per f in R-perp: x = sum c[s, l] b_s (x) e_l, over the basis b_s of
    K_{m-1}, pairs to zero with u (x) f.  Only the u at the pivot words
    of K_{m-2} are needed.  Since K_{m-1} lies in K_{m-2} (x) V, for each
    s and letter a the slice y[u] = b_s[u a] is an element of K_{m-2}.
    An element of K_{m-2} is the combination of its reduced echelon rows
    r_t with coefficients its values at their pivot words p_t, so
    b_s[u a] = sum_t r_t[u] b_s[p_t a].  The equation at (u, f) is
    linear in these slices with coefficients that do not depend on u,
    hence it is sum_t r_t[u] times the equation at (p_t, f).

    No second elimination on the n^m word coordinates is needed.  The
    vectors b_s (x) e_l are a reduced echelon basis of K_{m-1} (x) V,
    with pivots p_s n + l increasing in the order of (s, l), since the
    b_s are one with pivots p_s.  The kernel rows c from int_kernel are
    the canonical basis over the (s, l) coordinates: c leads at some
    (s, l), positively, and is zero at the leading (s', l') of every
    other kernel row.  Then x = sum c[s, l] b_s (x) e_l leads at
    p_s n + l, where its entry is c[s, l] times the positive pivot
    entry of b_s, and it is zero at the pivot word of every other x.  So
    the x are the reduced echelon basis of K_m, canonical after a gcd
    strip.

    This is the full component, for readers of its rows.  A reader of its
    dimension only (graded_dims, numeric_koszul_certificate) gets the same
    number by _koszul_dim, from the same equations, without the kernel.
    """
    if m < 0:
        raise LinAlgError(f"degree {m} is negative")
    n = alg.n
    built = alg._koszul_store.built
    while len(built) <= m:
        k = len(built)
        if k > 2 and not built[-1].dim:
            # K_k lies in K_{k-1} (x) V: zero from here on, and not stored
            return Subspace(n ** m, (), ())
        _check_words(n, k)
        if k <= 2:
            built.append(alg.relations if k == 2 else Subspace.full(n ** k))
            continue
        prev, prev_pivots = built[-1].int_rows, built[-1].pivots
        # the forward echelon form of a counted degree is finished, not
        # written and eliminated again
        echelon = alg._koszul_store.counted.pop(k, None)
        if echelon is None:
            echelon = _echelon_int(_koszul_equations(alg, built[-1],
                                                     built[-2]))
        # the kernel rows come in canonical form, and so do their
        # expansions (docstring above): no second elimination
        pivots = []
        rows = []
        for c in flipped_int_kernel(echelon, len(prev) * n):
            s, l = divmod(min(c), n)
            pivots.append(prev_pivots[s] * n + l)
            if len(c) == 1:
                # c is {(s, l): 1}, and b_s (x) e_l is content-free already
                rows.append(tuple([(w * n + l, val) for w, val in prev[s]]))
                continue
            x: dict[int, int] = {}
            for j, cj in c.items():
                s, l = divmod(j, n)
                for w, val in prev[s]:
                    x[w * n + l] = x.get(w * n + l, 0) + cj * val
            rows.append(tuple(sorted(_strip({w: v for w, v in x.items()
                                             if v}).items())))
        built.append(Subspace(n ** k, tuple(pivots), tuple(rows)))
    return built[m]


class KoszulCertificate(NamedTuple):
    """Outcome of the degree-bounded numeric Koszulness checks.

    This is evidence up to the bound, not a proof: both checks compare
    finitely many graded dimensions.
    """

    bound: int
    dims: tuple[int, ...]
    dual_dims: tuple[int, ...]
    component_dims: tuple[int, ...]
    component_mismatches: tuple[int, ...]
    euler_failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.component_mismatches and not self.euler_failures


def numeric_koszul_certificate(alg: QuadraticAlgebra, bound: int) -> KoszulCertificate:
    """Check Koszul-type numerics up to the bound.

    Two families of identities: the dimension of the degree-m Koszul
    component must equal the degree-m dimension of the dual algebra, and the
    Hilbert series of algebra and dual must multiply to 1 after the sign
    flip, i.e. the alternating convolution of the two dimension sequences
    vanishes in every positive degree up to the bound.  The first holds for
    every quadratic algebra by duality.  Up to degree CHECKED_DEGREES, and
    in every degree when the dual fails the PBW test of graded_dims, both
    sides read the same K_m, so there it is only a self-check.  On
    a PBW dual beyond that degree dual_dims are normal-word counts and
    component_dims the dimensions of K_m, two routes to one number.  Like
    graded_dims, component_dims counts its top degree by rank and builds
    the ones below.  The certificate is not kept: each call reads the
    kept components again and checks both identities again.
    """
    return koszul_numerics(alg, graded_dims(alg, bound),
                           graded_dims(alg.dual, bound))


def koszul_numerics(alg: QuadraticAlgebra, dims: tuple[int, ...],
                    dual_dims: tuple[int, ...]) -> KoszulCertificate:
    """The checks of numeric_koszul_certificate on dimension sequences
    already counted: dims of the algebra and dual_dims of its dual, by
    graded_dims up to one bound, their common last degree.  A caller that
    has counted either one hands it here rather than count it again."""
    bound = len(dims) - 1
    component_dims = _component_dims(alg, bound)
    mism = tuple(m for m in range(bound + 1) if component_dims[m] != dual_dims[m])
    return KoszulCertificate(bound, dims, dual_dims, component_dims, mism,
                             _euler_failures(dims, dual_dims))


def _euler_failures(dims, dual_dims) -> tuple[int, ...]:
    """The degrees k >= 1 up to the common length of the two sequences in
    which sum_j (-1)^j dims[k - j] dual_dims[j] is not zero.

    Only products of two nonzero terms are summed, so the time is the
    product of the two supports: linear in the length when either side is
    finite, as the dual of a regular algebra is."""
    bound = len(dims) - 1
    support = [(i, v) for i, v in enumerate(dims) if v]
    totals: dict[int, int] = {}
    for j, u in enumerate(dual_dims):
        if u:
            signed = -u if j % 2 else u
            for i, v in support:
                if i + j > bound:
                    break
                totals[i + j] = totals.get(i + j, 0) + signed * v
    return tuple(k for k in sorted(totals) if k > 0 and totals[k])


class TruncatedAlgebra(GradedFDAlgebra):
    """T(V)/(R) up to a degree bound, as the GradedFDAlgebra it truncates to.

    The degree-k piece is paired with the Koszul component K_k of the dual,
    its linear dual inside the degree-k word coordinates.  K_k is held in
    its reduced echelon form, one row per pivot word: those words are the
    degree-k basis, and row t read on any word, divided by its pivot
    entry, is coordinate t of that word's class, since the row is zero at
    every other pivot word.  So the rows K_k was built with are read as
    they are, with no elimination.  The structure table follows cell by
    cell: the product of basis words w_a and w_b is the word w_a w_b,
    whose class is read off directly.

    Everything stays in integers.  classes[k] maps each word to its class
    coordinates times den, the lcm of the pivot entries of all degrees,
    and the structure table is those integer cells over den.  Unit and
    associativity are checked as for any GradedFDAlgebra.
    """

    def __init__(self, alg: QuadraticAlgebra, bound: int):
        n = alg.n
        components = tuple(koszul_component(alg.dual, k)
                           for k in range(bound + 1))
        den = lcm(*[row[0][1] for comp in components for row in comp.int_rows])
        words = tuple(comp.pivots for comp in components)
        classes = []
        for comp in components:
            # word -> ((t, den times coordinate t of its class), ...)
            cls: dict[int, tuple[tuple[int, int], ...]] = {}
            get = cls.get
            for t, row in enumerate(comp.int_rows):
                f = den // row[0][1]
                for w, v in row:
                    cls[w] = get(w, ()) + ((t, v * f),)
            classes.append(cls)
        self.__dict__.update(algebra=alg, components=components, words=words,
                             classes=tuple(classes))
        mult = {}
        for i in range(bound + 1):
            for j in range(bound + 1 - i):
                stride = n ** j
                cls = classes[i + j]
                mult[(i, j)] = tuple([
                    tuple([cls.get(wa * stride + wb, ()) for wb in words[j]])
                    for wa in words[i]])
        super().__init__([len(w) for w in words], mult, den)

    def int_class(self, k: int, vec) -> tuple[int, ...]:
        """The class of a degree-k word vector of ints, a sparse {word
        index: int} map: its coordinates times den, summed from the
        integer class cells of its words."""
        out = [0] * self.dims[k]
        cls = self.classes[k]
        for w, x in vec.items():
            for t, v in cls.get(w, ()):
                out[t] += x * v
        return tuple(out)

    def int_class_from_pairings(self, k: int, rows, value_vectors
                                ) -> dict[int, tuple[int, dict[int, int]]]:
        """The degree-k classes pairing as prescribed against given rows
        (sparse word maps or their pairs), one class per vector of one value
        per row, for pbw.PBWDeformation.cdga; as `int_solve` returns them,
        {t: (pivot entry, {j: int})}, coordinate t of class j the int at j
        over it.

        The pairing is the coordinate dot product, through the basis words.
        The rows must lie in the Koszul component paired with this degree,
        so that the values only depend on the class: one forward pass
        against it (Subspace.contains_all).  All vectors are then solved by
        one `int_solve`, the values appended to the rows as right-hand sides.
        """
        rows = [dict(r) for r in rows]
        if not self.components[k].contains_all(rows):
            raise LinAlgError("pairing values are not class functions")
        if any(len(values) != len(rows) for values in value_vectors):
            raise LinAlgError("one pairing value per row is needed")
        dim = self.dims[k]
        aug = []
        for i, r in enumerate(rows):
            row = {t: r[w] for t, w in enumerate(self.words[k]) if w in r}
            for j, values in enumerate(value_vectors):
                row[dim + j] = values[i]
            aug.append(_to_int_row(row))
        sol, consistent = int_solve(aug, dim)
        if not consistent:
            raise LinAlgError("no element attains the prescribed pairings")
        return sol

    def automorphism(self, phi: Matrix) -> tuple[Matrix, ...]:
        """Extend a relation-preserving degree-one map to every degree, one
        matrix per degree, the twist the trivial extension reads.

        Column w of the degree-k matrix is the class (int_class) of the
        image of the basis word w under apply_slot_columns, through phi's
        integer columns.  It comes out over den * phi.den^k.
        """
        if not preserves_subspace(phi, self.algebra.relations):
            raise LinAlgError("map does not preserve the relation subspace")
        n = self.algebra.n
        cols = phi.columns
        mats = []
        for k, words in enumerate(self.words):
            den = self.den * phi.den ** k
            images = [self.int_class(k, apply_slot_columns([cols] * k,
                                                           {w: 1}, n))
                      for w in words]
            mats.append(Matrix(tuple(images), den, len(words)).transpose())
        return tuple(mats)


# bounded at over twice the 12 truncations of one corpus sweep
@lru_cache(maxsize=32)
def truncated_structure(alg: QuadraticAlgebra, bound: int, /) -> TruncatedAlgebra:
    """alg up to the degree bound as a TruncatedAlgebra, built once per
    algebra and bound."""
    return TruncatedAlgebra(alg, bound)
