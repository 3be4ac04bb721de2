"""Graded algebra containers, Frobenius structure, trivial extensions."""

import inspect
import itertools
import json
import re
from fractions import Fraction

import pytest

from helpers import (AS_REGULAR, CORPUS, FractionMatrix, algebra_of,
                     associativity_failure, block_nakayama_oracle, cert_of,
                     dense_inverse, cdg_underlying_trivial_extension,
                     dense_algebra, dual_trivial_extension, fraction_matrix,
                     fraction_table, generator_associativity_failure,
                     identity_maps, int_twist, is_multiplicative, multiply,
                     multiply_basis, oracle_slotwise, rational_algebra,
                     scalar_twist, seeded, skew_ring, sklyanin, sparse_table,
                     quadratic_algebra, structure_equal, trivial_extension,
                     twist_matrices)
from quadalg import frobenius
from quadalg import (GradedFDAlgebra, Matrix, NotFrobenius, QuadraticAlgebra,
                     Subspace, as_regular_certificate,
                     is_graded_symmetric, skew_extend,
                     truncated_structure, twisted_module_trivial_extension,
                     word_to_index)
from quadalg.io import parse_description
from quadalg.linalg import LinAlgError

F = Fraction


def _fd(name):
    return cert_of(name).dual_fd


def test_unit_and_dims_validation():
    with pytest.raises(LinAlgError):
        GradedFDAlgebra((2, 1), {}, 1)
    # unit must really be a two-sided identity
    bad_mult = {(0, 1): (((F(0), F(0)),), ((F(0), F(0)),))}
    with pytest.raises(LinAlgError):
        dense_algebra((1, 2), bad_mult)


def test_absent_block_is_rejected():
    # every block up to the top degree must be given, a square-zero block
    # as its cells of no entries; blocks past the top are ignored
    unit = {(0, 0): ((((0, 1),),),), (0, 1): ((((0, 1),), ((1, 1),)),),
            (1, 0): ((((0, 1),),), (((1, 1),),)), (0, 2): ((((0, 1),),),),
            (2, 0): ((((0, 1),),),)}
    with pytest.raises(LinAlgError, match=re.escape(
            "bad structure block at degrees (1, 1)")):
        GradedFDAlgebra((1, 2, 1), unit, 1)
    alg = GradedFDAlgebra((1, 2, 1), {**unit, (1, 1): (((), ()), ((), ())),
                                      (2, 2): ()}, 1)
    assert multiply_basis(alg, 1, 0, 1, 1) == (F(0),)
    assert multiply_basis(alg, 0, 0, 1, 1) == (F(0), F(1))
    assert multiply_basis(alg, 2, 0, 2, 0) == ()


def test_epsilon_and_identity():
    alg = _fd("kxy")
    assert alg.epsilon(1) == int_twist(scalar_twist(alg, 1, 1))
    assert alg.epsilon(2) == int_twist(scalar_twist(alg, 2, 1))
    eps = twist_matrices(alg.epsilon(1))
    assert eps[1].entries == ((F(-1), F(0)), (F(0), F(-1)))
    assert eps[2].entries == ((F(1),),)
    identities = tuple(FractionMatrix.identity(m) for m in alg.dims)
    assert tuple(m @ m for m in eps) == identities
    assert is_multiplicative(eps, alg)


def test_frobenius_goldens_quantum_plane():
    dual = cert_of("quantum_plane_q2").dual_fd
    # the top degree pairs with K_2 = R, spanned by xy - 2 yx alone, so the
    # top basis word is its pivot word x*y*, and y*x* is -2 x*y* there
    assert dual.words[2] == (word_to_index((0, 1), 2),)
    assert dual.pairings[1].entries == ((F(0), F(1)), (F(-2), F(0)))
    assert dual.nakayama[1].entries == (
        (F(-1, 2), F(0)), (F(0), F(-2)))
    ok, witness = is_graded_symmetric(_fd("quantum_plane_q2"))
    assert not ok and witness is not None


def test_frobenius_goldens_jordan():
    dual = cert_of("jordan_plane").dual_fd
    assert dual.pairings[1].entries == ((F(1), F(-1)), (F(1), F(0)))
    assert dual.nakayama[1].entries == ((F(-1), F(0)), (F(-2), F(-1)))
    # its diagonal is the sign that symmetry asks for and only the entry
    # off it fails, so the Nakayama route must read off-diagonal entries to
    # agree with the pairing route
    ok, witness = is_graded_symmetric(_fd("jordan_plane"))
    assert not ok and witness == (1, 0, 0)


def test_commutative_dual_is_graded_symmetric_odd_top():
    # length 2: symmetric means pairing[1] antisymmetric; exterior algebra is.
    # Its top basis word is x*y*, the pivot word of K_2, spanned by xy - yx
    alg = _fd("kxy")
    assert alg.words[2] == (word_to_index((0, 1), 2),)
    pairings = alg.pairings
    assert pairings[1].entries == ((F(0), F(1)), (F(-1), F(0)))
    ok, witness = is_graded_symmetric(alg)
    assert ok and witness is None


def test_poly3_dual_graded_symmetric():
    ok, _ = is_graded_symmetric(_fd("poly3"))
    assert ok


def _monomial_xy_algebra():
    return quadratic_algebra(("x", "y"), [[((0, 1), 1)]])


def test_not_frobenius_degenerate():
    # T(x,y)/(xy) dual, cut at length 2: the degree-1 pairing is singular.
    # Reading the pairings is the whole Frobenius check, so its rank
    # refuses it there, and the cached property keeps nothing of the read
    dual = _monomial_xy_algebra().dual
    fd = truncated_structure(dual, 2)
    with pytest.raises(NotFrobenius) as info:
        fd.pairings
    assert info.value.witness_degree == 1
    assert info.value.reason == frobenius.DEGENERATE
    assert "pairings" not in vars(fd)
    # cut at length 3 instead, the zero top is hit first
    fd3 = truncated_structure(dual, 3)
    with pytest.raises(NotFrobenius) as info3:
        fd3.pairings
    assert info3.value.witness_degree == 3
    # T(x,y)/(xy, yx, y^2) cut at length 3 has dims (1, 2, 1, 1): a nonzero
    # top, but degrees 1 and 2 cannot pair perfectly
    mono = quadratic_algebra(("x", "y"), [[((0, 1), 1)], [((1, 0), 1)],
                                          [((1, 1), 1)]])
    fd_mono = truncated_structure(mono, 3)
    assert fd_mono.dims == (1, 2, 1, 1)
    with pytest.raises(NotFrobenius) as info_mono:
        fd_mono.pairings
    assert info_mono.value.witness_degree == 1
    assert info_mono.value.reason == "dim mismatch 2 vs 1 between degrees 1 and 2"


def test_the_symmetry_test_meets_a_degenerate_pairing_in_the_pairings():
    # is_graded_symmetric reads the pairings first, which refuse the
    # degenerate degree-1 pairing before any Nakayama block is solved
    fd = truncated_structure(_monomial_xy_algebra().dual, 2)
    with pytest.raises(NotFrobenius) as info:
        is_graded_symmetric(fd)
    assert info.value.witness_degree == 1
    assert info.value.reason == ("degenerate pairing against the "
                                 "complementary degree")
    assert "nakayama" not in vars(fd)


@pytest.mark.parametrize("name", ("kxy", "jordan_plane", "poly3"))
def test_the_structure_ranks_and_the_symmetry_test_solves(monkeypatch,
                                                          name):
    # reading the pairings checks each by one rank and solves nothing; the
    # symmetry test then solves each Nakayama block once, takes no rank, and
    # is what reads the blocks.  Each algebra is a copy of the table that
    # nothing has been read from, as both are kept on the algebra
    solves, ranks = [], []
    solve, rank = frobenius.solve_square, Matrix.rank
    monkeypatch.setattr(frobenius, "solve_square",
                        lambda a, b: solves.append(a) or solve(a, b))
    monkeypatch.setattr(Matrix, "rank",
                        lambda m: ranks.append(m) or rank(m))
    ext = skew_extend(cert_of(name), cert_of(name).nakayama)
    for seen in (cert_of(name).dual_fd, ext.model, ext.honest_dual):
        alg = GradedFDAlgebra(seen.dims, seen.int_mult, seen.den)
        del solves[:], ranks[:]
        pairings = alg.pairings
        assert (len(solves), len(ranks)) == (0, alg.length + 1)
        assert list(pairings) == ranks
        del ranks[:]
        is_graded_symmetric(alg)
        assert (len(solves), len(ranks)) == (alg.length + 1, 0)


@pytest.mark.parametrize("name", ("kxy", "jordan_plane", "poly3"))
def test_an_algebra_builds_its_pairings_once_and_solves_its_blocks_once(
        monkeypatch, name):
    # the pairings and the Nakayama blocks are the algebra's own: in every
    # order of reading them through the pairings, the symmetry test twice
    # and the blocks, one pairings object is read and each block is solved
    # once, against those pairings.  Each algebra is a copy of the table
    # that nothing has been read from
    solves = []
    solve = frobenius.solve_square
    monkeypatch.setattr(frobenius, "solve_square",
                        lambda a, b: solves.append(a) or solve(a, b))
    reads = {"structure": lambda alg: alg.pairings,
             "symmetry": is_graded_symmetric,
             "nakayama": lambda alg: alg.nakayama}
    orders = sorted(set(itertools.permutations(
        ("structure", "symmetry", "symmetry", "nakayama"))))
    ext = skew_extend(cert_of(name), cert_of(name).nakayama)
    for seen in (cert_of(name).dual_fd, ext.model, ext.honest_dual):
        for order in orders:
            alg = GradedFDAlgebra(seen.dims, seen.int_mult, seen.den)
            del solves[:]
            results = {}
            pairings = []
            for read in order:
                results.setdefault(read, []).append(reads[read](alg))
                pairings.append(alg.pairings)
            assert all(p is pairings[0] for p in pairings), order
            assert results["structure"][0] is pairings[0], order
            first, second = results["symmetry"]
            assert first == second, order
            assert results["nakayama"][0] is alg.nakayama, order
            assert ([id(a) for a in solves]
                    == [id(g) for g in pairings[0]]), order


def test_nakayama_blocks_match_the_dense_inverse():
    # each block solves G_i X = G_{d-i}^T; the dense oracle inverts G_i
    # and multiplies, on every AS-regular dual, its Ext model and the
    # honest dual of its extension, twisted by the Nakayama map and by the
    # identity.  A Sklyanin algebra in changed coordinates has pairings
    # with no zero entry off degrees 0 and 3
    skl = sklyanin(1, 2, 3)
    g = Matrix.from_rows([[1, 1, 0], [0, 1, 2], [1, 0, 1]], 3)
    changed = QuadraticAlgebra(skl.names, Subspace.from_spanning(
        [oracle_slotwise((g, g), dict(r), 3) for r in skl.relations.rows], 9))
    certs = [cert_of(name) for name in AS_REGULAR]
    certs.append(as_regular_certificate(changed, 5))
    algs = []
    for cert in certs:
        algs.append(cert.dual_fd)
        xi = cert.nakayama
        for sigma in (xi, Matrix.identity(xi.rows)):
            ext = skew_extend(cert, sigma)
            algs += [ext.model, ext.honest_dual]
    for alg in algs:
        pairings = alg.pairings
        d = alg.length
        for i in range(d + 1):
            expect = (dense_inverse(pairings[i])
                      @ pairings[d - i].transpose())
            assert fraction_matrix(alg.nakayama[d - i]) == expect
            assert pairings[i] == Matrix.from_rows(
                [[multiply_basis(alg, i, a, d - i, b)[0]
                  for b in range(alg.dims[d - i])]
                 for a in range(alg.dims[i])], alg.dims[d - i])


def test_automorphism_multiplicative_check_catches_junk():
    alg = _fd("kxy")
    mats = [FractionMatrix.identity(alg.dims[i]) for i in range(3)]
    mats[2] = mats[2].scale(F(7))  # breaks products into degree 2
    assert not is_multiplicative(tuple(mats), alg)


def test_trivial_extension_products_and_pairing():
    E = _fd("quantum_plane_q2")
    sig = twist_matrices(E.epsilon(1))
    n_ext = 3
    gamma = trivial_extension(E, sig, n_ext)
    # dual part squares to zero
    d1 = E.dim(1)
    f = tuple([F(0)] * d1) + (F(1),) + tuple([F(0)] * (gamma.dims[1] - d1 - 1))
    prod = multiply(gamma, 1, f, 1, f)
    # f is (top)*; its square lands in degree 2 and must vanish on the dual
    # block; it has no algebra component either
    assert all(v == 0 for v in prod)
    pairings = gamma.pairings
    # unit pairs with the top copy of the unit functional
    assert pairings[0].entries[0][0] == F(1)
    # algebra times dual-block is plain evaluation here (left action is the
    # identity in this construction): x_a . (x_b)* = delta_ab times the top
    d1 = E.dim(1)
    for a in range(d1):
        for b in range(d1):
            u = tuple(F(1) if t == a else F(0) for t in range(gamma.dims[1]))
            v = tuple(F(1) if t == E.dim(2) + b else F(0)
                      for t in range(gamma.dims[2]))
            got = multiply(gamma, 1, u, 2, v)
            assert got[0] == (F(1) if a == b else F(0))


def test_trivial_extension_nakayama_block_oracle():
    rng = seeded(1117)
    names = list(AS_REGULAR)
    for trial in range(12):
        name = names[trial % len(names)]
        E = _fd(name)
        k = rng.randrange(0, 4)
        c = F(rng.choice([1, 2, 3, -1, -2]))
        sig = scalar_twist(E, k, c)
        n_ext = E.length + rng.choice([1, 2])
        gamma = trivial_extension(E, sig, n_ext)
        gamma.pairings
        oracle = block_nakayama_oracle(E, sig, n_ext)
        for i in range(n_ext + 1):
            assert fraction_matrix(gamma.nakayama[i]) == oracle[i], (
                name, k, str(c), i)


def test_trivial_extension_symmetry_rule():
    # sigma = epsilon^(n-1) forces graded symmetry
    for name in ("kxy", "quantum_plane_q2", "jordan_plane"):
        E = _fd(name)
        n_ext = E.length + 1
        gamma = trivial_extension(E, twist_matrices(E.epsilon(n_ext - 1)),
                                  n_ext)
        ok, _ = is_graded_symmetric(gamma)
        assert ok, name


def test_trivial_extension_needs_room():
    E = _fd("kxy")
    with pytest.raises(LinAlgError):
        trivial_extension(E, identity_maps(E), E.length - 1)


def test_twisted_module_extension_shape():
    E = _fd("quantum_plane_q2")
    ext = twisted_module_trivial_extension(E, int_twist(identity_maps(E)))
    assert ext.dims == (1, E.dim(1) + E.dim(0), E.dim(2) + E.dim(1), E.dim(2))
    d1 = E.dim(1)
    m0 = tuple([F(0)] * d1) + (F(1),)
    assert all(v == 0 for v in multiply(ext, 1, m0, 1, m0))


def test_extension_guards_reject_a_second_degree_zero_element():
    # a dual block ending at the algebra's own top would put a second
    # element next to the unit in degree zero; the module copy is always
    # shifted up by one, so it never does
    E = _fd("poly3")
    ident = identity_maps(E)
    for n in (E.length - 1, E.length):
        with pytest.raises(LinAlgError, match="must exceed the algebra length"):
            dual_trivial_extension(E, ident, ident, n)
    assert dual_trivial_extension(E, ident, ident, E.length + 1).dims[0] == 1
    ext = twisted_module_trivial_extension(E, int_twist(ident))
    assert ext.dims[0] == 1 and ext.length == E.length + 1


def test_cdg_underlying_matches_dual_extension():
    # independently signed construction agrees with the generic one
    for name in AS_REGULAR:
        E = _fd(name)
        a = cdg_underlying_trivial_extension(E)
        b = dual_trivial_extension(E, twist_matrices(E.epsilon(E.length)),
                                   identity_maps(E), E.length + 1)
        assert structure_equal(a, b), name


def test_dual_extension_dual_block_annihilates():
    E = _fd("jordan_plane")
    gamma = dual_trivial_extension(E, identity_maps(E), identity_maps(E), 3)
    d1 = E.dim(1)
    f = tuple([F(0)] * d1) + (F(1),)
    assert all(v == 0 for v in multiply(gamma, 1, f, 1, f))


def test_structure_equal_detects_difference():
    E = _fd("kxy")
    a = trivial_extension(E, identity_maps(E), 3)
    b = trivial_extension(E, twist_matrices(E.epsilon(1)), 3)
    assert not structure_equal(a, b)
    assert structure_equal(a, a)


def _dense_table(alg):
    return {(i, j): tuple(tuple(multiply_basis(alg, i, a, j, b)
                                for b in range(alg.dims[j]))
                          for a in range(alg.dims[i]))
            for i in range(alg.length + 1) for j in range(alg.length + 1 - i)}


def _add_to_cell(mult, key, a, b, coord, value):
    """Copy of a dense table with value added to one coordinate of one cell."""
    mult = dict(mult)
    block = [list(row) for row in mult[key]]
    cell = list(block[a][b])
    cell[coord] += value
    block[a][b] = tuple(cell)
    mult[key] = tuple(tuple(row) for row in block)
    return mult


@pytest.mark.parametrize("bound", [4, 6])
def test_corrupted_structure_constant_fails_associativity(bound):
    # k[x, y, z] truncated at degree 4 (total dimension 35) and 6 (84): the
    # check must run on both sides of the old 64 cut-off
    alg = truncated_structure(algebra_of("poly3"), bound)
    assert (alg.total_dim > 64) == (bound == 6)
    mult = _dense_table(alg)
    assert structure_equal(dense_algebra(alg.dims, mult), alg)

    def index(word):
        return alg.words[len(word)].index(word_to_index(word, 3))

    # x * x := xx + yy breaks (x x) z = x (x z)
    bad = _add_to_cell(mult, (1, 1), 0, 0, index((1, 1)), 1)
    with pytest.raises(LinAlgError, match="associativity fails"):
        dense_algebra(alg.dims, bad)
    # xx * yy := xxyy + zzzz: a product of two non-generators, reached only
    # through (xx y) y = xx (y y)
    bad = _add_to_cell(mult, (2, 2), index((0, 0)), index((1, 1)),
                       index((2, 2, 2, 2)), 1)
    with pytest.raises(LinAlgError, match="associativity fails"):
        dense_algebra(alg.dims, bad)


def test_below_length_three_associativity_builds_no_generators():
    # no triple of positive degrees fits under a length-2 top, so the check
    # returns before the generating set is built; it stays a lazy read
    fd = _fd("kxy")
    alg = dense_algebra(fd.dims, _dense_table(fd))
    assert alg.length == 2 and "generators" not in vars(alg)
    assert alg.generators == ((), (0, 1), ())
    # at length 3 the check still runs: x * x := xx + yy breaks
    # (x x) z = x (x z) in k[x, y, z] truncated at degree 3
    poly = truncated_structure(algebra_of("poly3"), 3)
    mult = _dense_table(poly)
    yy = poly.words[2].index(word_to_index((1, 1), 3))
    with pytest.raises(LinAlgError, match="associativity fails"):
        dense_algebra(poly.dims, _add_to_cell(mult, (1, 1), 0, 0, yy, 1))


def _single_term_corruption_targets():
    """{case: algebra} of tables built by the package whose products are
    mostly single-term cells: the Ext models of the skew rings in 3 and 4
    letters, the honest dual of the 3-letter ring's extension, and a corpus
    truncation."""
    out = {}
    for n in (3, 4):
        cert = as_regular_certificate(skew_ring(n, F(-2, 3)), 5)
        ext = skew_extend(cert, cert.nakayama)
        out[f"gamma-skew{n}"] = ext.model
        if n == 3:
            out["ext-dual-skew3"] = ext.honest_dual
    out["poly3-truncated"] = truncated_structure(algebra_of("poly3"), 4)
    return out


CORRUPTION_TARGETS = _single_term_corruption_targets()


@pytest.mark.parametrize("how", ("move", "rescale", "empty"))
@pytest.mark.parametrize("case", sorted(CORRUPTION_TARGETS))
def test_a_corrupted_single_term_cell_fails_associativity(case, how):
    # the first single-entry cell of the degree-(1, 1) block, which the
    # comparison of single-term products reads, moved to the next
    # coordinate, rescaled or emptied: the check must still fail, at the
    # triple that the full comparison on generators names first
    alg = CORRUPTION_TARGETS[case]
    block = [list(row) for row in alg.int_mult[(1, 1)]]
    a, b = next((a, b) for a, row in enumerate(block)
                for b, cell in enumerate(row) if len(cell) == 1)
    ((c, w),) = block[a][b]
    block[a][b] = {"move": (((c + 1) % alg.dims[2], w),),
                   "rescale": ((c, 3 * w),), "empty": ()}[how]
    mult = dict(alg.int_mult)
    mult[(1, 1)] = tuple(map(tuple, block))
    failure = generator_associativity_failure(alg.dims, mult)
    assert failure is not None and failure[0][:2] == (1, 1)
    (ijk, abc) = failure
    with pytest.raises(LinAlgError, match=re.escape(
            f"associativity fails at degrees {ijk} indices {abc}")):
        GradedFDAlgebra(alg.dims, mult, alg.den)
    assert generator_associativity_failure(alg.dims, alg.int_mult) is None


def _weighted_polynomial_table():
    """k[x, y] with deg x = 1 and deg y = 2, truncated at degree 5, as a
    dense table; degree k has basis x^(k-2q) y^q for q = 0, 1, ..."""
    basis = [[(k - 2 * q, q) for q in range(k // 2 + 1)] for k in range(6)]
    dims = [len(b) for b in basis]
    mult = {}
    for i in range(6):
        for j in range(6 - i):
            mult[(i, j)] = tuple(
                tuple(tuple(F(int(m == (p + r, q + s))) for m in basis[i + j])
                      for r, s in basis[j])
                for p, q in basis[i])
    return dims, mult


def test_associativity_needs_a_generator_beyond_degree_one():
    # products with a degree-1 third factor never reach x * y^2; the
    # complement generator y of degree 2 does, through (x y) y = x (y y)
    dims, mult = _weighted_polynomial_table()
    assert dense_algebra(dims, mult).dims == (1, 1, 2, 2, 3, 3)
    # x * y^2 := x y^2 + x^5
    bad = _add_to_cell(mult, (1, 4), 0, 2, 0, 1)
    with pytest.raises(LinAlgError, match=re.escape(
            "associativity fails at degrees (1, 2, 2) indices (0, 1, 1)")):
        dense_algebra(dims, bad)


def _valid_tables():
    # every corpus dual, and for each AS-regular algebra the model of its
    # Nakayama-twisted extension and the honest dual of that extension
    for name in CORPUS:
        yield truncated_structure(algebra_of(name).dual, 4)
    for name in AS_REGULAR:
        cert = cert_of(name)
        sigma = cert.nakayama
        ext = skew_extend(cert, sigma)
        yield ext.model
        yield truncated_structure(ext.algebra.dual, cert.gldim + 1)


def _check_agrees_with_all_triples(dims, dense):
    """Whether the table is associative, by the all-triples oracle, after
    checking that the constructor's verdict on generators agrees."""
    table = sparse_table(dims, dense)
    associative = associativity_failure(dims, table) is None
    try:
        rational_algebra(dims, table)
    except LinAlgError as exc:
        assert str(exc).startswith("associativity fails")
        assert not associative
    else:
        assert associative
    return associative


def _random_constant(rng):
    return F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))


def test_associativity_on_generators_agrees_with_all_triples():
    rng = seeded(20261018)
    verdicts = set()
    for alg in _valid_tables():
        assert associativity_failure(alg.dims, fraction_table(alg)) is None
        dense = _dense_table(alg)
        keys = [(i, j) for (i, j) in dense
                if i and j and alg.dims[i] and alg.dims[j] and alg.dims[i + j]]
        for _ in range(4):
            # one constant changed in a product of positive degrees, so the
            # unit stays intact
            i, j = rng.choice(keys)
            bad = _add_to_cell(dense, (i, j), rng.randrange(alg.dims[i]),
                               rng.randrange(alg.dims[j]),
                               rng.randrange(alg.dims[i + j]),
                               _random_constant(rng))
            verdicts.add(_check_agrees_with_all_triples(alg.dims, bad))
    # some changes stay associative (a product into the top degree only
    # meets the unit), the others must be caught
    assert verdicts == {True, False}
    # the models A^! + A^![-1] of the Nakayama-twisted extensions: one
    # constant changed in a product of an A^! element and a module element
    # of positive degrees, the cells that twisted_module_trivial_extension
    # builds from the twisted actions
    rng = seeded(20261019)
    verdicts = set()
    for name in AS_REGULAR:
        cert = cert_of(name)
        dual = cert.dual_fd
        gamma = skew_extend(cert, cert.nakayama).model
        dense = _dense_table(gamma)
        cells = [(i, j, a, b) for (i, j) in dense if i and j and gamma.dims[i + j]
                 for a in range(gamma.dims[i]) for b in range(gamma.dims[j])
                 if (a < dual.dim(i)) != (b < dual.dim(j))]
        for _ in range(8):
            i, j, a, b = rng.choice(cells)
            bad = _add_to_cell(dense, (i, j), a, b,
                               rng.randrange(gamma.dims[i + j]),
                               _random_constant(rng))
            verdicts.add(_check_agrees_with_all_triples(gamma.dims, bad))
    assert False in verdicts


def _unit_blocks(dims):
    def unit(n, i):
        return tuple(F(int(c == i)) for c in range(n))
    mult = {}
    for j, n in enumerate(dims):
        mult[(0, j)] = (tuple(unit(n, b) for b in range(n)),)
        mult[(j, 0)] = tuple((unit(n, b),) for b in range(n))
    return mult


def test_denominator_met_inside_a_cell():
    # k[x, y] up to degree 3, with degree-2 basis p = xy - yy, q = xx,
    # r = 2yy and degree 3 in the monomial basis xxx, xxy, xyy, yyy.  The
    # first denominator of the table sits in the second entry of the cell
    # x y = p + r/2, after an integer one, which must be rescaled with it
    h = F(1, 2)
    mult = _unit_blocks((1, 2, 3, 4))
    mult[(1, 1)] = (((0, 1, 0), (1, 0, h)),
                    ((1, 0, h), (0, 0, h)))
    xp, yp = (0, 1, -1, 0), (0, 0, 1, -1)
    mult[(1, 2)] = ((xp, (1, 0, 0, 0), (0, 0, 2, 0)),
                    (yp, (0, 1, 0, 0), (0, 0, 0, 2)))
    mult[(2, 1)] = tuple(zip(*mult[(1, 2)]))
    alg = dense_algebra((1, 2, 3, 4), mult)
    assert multiply_basis(alg, 1, 0, 1, 1) == (1, 0, h)
    assert alg.den == 2
    assert associativity_failure(alg.dims, fraction_table(alg)) is None
    # y x := p + r/2 + q breaks (x y) x = x (y x)
    bad = _add_to_cell(mult, (1, 1), 1, 0, 1, 1)
    with pytest.raises(LinAlgError, match="associativity fails"):
        dense_algebra((1, 2, 3, 4), bad)


def test_terms_that_cancel_are_not_a_failure():
    # degrees 1, 2, 3 with bases {x}, {p, q}, {r} and x x = p + q.  With
    # p x = r and q x = -r, the coordinate r of (x x) x cancels to zero
    # while x (x x) has no entry there; with x p = r and x q = -r instead
    # it is the other way round.  Both tables are associative.
    one, zero = F(1), F(0)
    unit = {(0, 0): (((one,),),), (0, 1): (((one,),),),
            (1, 0): (((one,),),), (0, 2): (((one, zero), (zero, one)),),
            (2, 0): (((one, zero),), ((zero, one),)), (0, 3): (((one,),),),
            (3, 0): (((one,),),), (1, 1): (((one, one),),)}
    acts = (((F(1),),), ((F(-1),),))
    no_acts = (((zero,),), ((zero,),))
    for right, left in ((acts, no_acts), (no_acts, acts)):
        mult = dict(unit)
        mult[(2, 1)] = right
        mult[(1, 2)] = (tuple(cell[0] for cell in left),)
        alg = dense_algebra((1, 1, 2, 1), mult)
        assert multiply_basis(alg, 1, 0, 1, 0) == (one, one)
    # the same table with q x = r is not associative
    mult = dict(unit)
    mult[(2, 1)] = (((one,),), ((one,),))
    mult[(1, 2)] = (((zero,), (zero,)),)
    with pytest.raises(LinAlgError, match=re.escape(
            "associativity fails at degrees (1, 1, 1) indices (0, 0, 0)")):
        dense_algebra((1, 1, 2, 1), mult)


def test_sparse_and_dense_construction_agree():
    # every AS-regular dual, the model of its Nakayama-twisted extension and
    # the honest dual of that extension
    for name in AS_REGULAR:
        cert = cert_of(name)
        sigma = cert.nakayama
        ext = skew_extend(cert, sigma)
        honest = truncated_structure(ext.algebra.dual, cert.gldim + 1)
        for alg in (cert.dual_fd, ext.model, honest):
            dense = dense_algebra(alg.dims, _dense_table(alg))
            sparse = rational_algebra(alg.dims, fraction_table(alg))
            assert structure_equal(dense, alg), name
            assert structure_equal(sparse, alg), name


def test_malformed_sparse_table_is_rejected():
    alg = _fd("quantum_plane_q2")
    den = alg.den
    x_y = alg.int_mult[(1, 1)][0][1]
    assert x_y

    def with_cell(cell):
        mult = dict(alg.int_mult)
        block = [list(row) for row in mult[(1, 1)]]
        block[0][1] = cell
        mult[(1, 1)] = tuple(map(tuple, block))
        return mult

    top, value = alg.dims[2], x_y[0][1]
    bad_cells = [((top, value),),                    # coordinate out of range
                 ((-1, value),),                     # negative coordinate
                 ((top - 1, 0),),                    # stored zero
                 ((top - 1, value), (0, value)),     # coordinates not increasing
                 x_y + x_y]                          # coordinate repeated
    for cell in bad_cells:
        with pytest.raises(LinAlgError, match=re.escape(
                "bad structure cell at degrees (1, 1)")):
            GradedFDAlgebra(alg.dims, with_cell(cell), den)
    assert structure_equal(GradedFDAlgebra(alg.dims, with_cell(x_y), den), alg)
    xy_block = alg.int_mult[(1, 1)]
    for block in (xy_block[:1],                          # one row too few
                  xy_block + xy_block[:1],               # one row too many
                  tuple(row[:1] for row in xy_block),    # rows a cell short
                  None):                                 # block left out
        mult = {**alg.int_mult, (1, 1): block}
        if block is None:
            del mult[(1, 1)]
        with pytest.raises(LinAlgError, match=re.escape(
                "bad structure block at degrees (1, 1)")):
            GradedFDAlgebra(alg.dims, mult, den)


def test_a_table_not_of_tuples_is_refused():
    # the constructor takes one form, tuple blocks of tuple rows of tuple
    # cells, and rebuilds no other: the same (1, 1) block with the block, a
    # row or a cell given as a list is refused
    alg = _fd("quantum_plane_q2")
    block = alg.int_mult[(1, 1)]
    assert block[0][1]
    for bad in (list(block),
                (list(block[0]),) + block[1:],
                ((block[0][0], list(block[0][1])),) + block[1:]):
        with pytest.raises(LinAlgError, match=re.escape(
                "bad structure block at degrees (1, 1)")):
            GradedFDAlgebra(alg.dims, {**alg.int_mult, (1, 1): bad}, alg.den)
    assert structure_equal(
        GradedFDAlgebra(alg.dims, {**alg.int_mult, (1, 1): block}, alg.den),
        alg)


def test_corrupted_constant_fails_associativity_with_mixed_denominators():
    # the dual of the skew ring x_i x_j = (2/3) x_j x_i in three letters:
    # its constants have several denominators, so the integer check scales
    # the whole table before comparing
    desc = {"generators": ["x", "y", "z"],
            "relations": [[{"coeff": "1", "word": [a, b]},
                           {"coeff": "-2/3", "word": [b, a]}]
                          for a, b in (("x", "y"), ("x", "z"), ("y", "z"))]}
    dual = parse_description(json.dumps(desc)).algebra.dual
    alg = truncated_structure(dual, 3)
    dens = {w.denominator for block in fraction_table(alg).values()
            for row in block for cell in row for _, w in cell}
    assert len(dens - {1}) >= 2
    mult = _dense_table(alg)
    assert structure_equal(dense_algebra(alg.dims, mult), alg)
    # add 1/2 to the first constant of x*y: breaks (x y) z = x (y z)
    xy = list(mult[(1, 1)][0][1])
    c = next(i for i, w in enumerate(xy) if w)
    xy[c] += F(1, 2)
    block = [list(row) for row in mult[(1, 1)]]
    block[0][1] = tuple(xy)
    mult[(1, 1)] = tuple(tuple(row) for row in block)
    with pytest.raises(LinAlgError, match="associativity fails"):
        dense_algebra(alg.dims, mult)


def _table_forms():
    # every AS-regular dual, and the Ext model and the honest dual of its
    # extension twisted by the Nakayama map and by the identity
    for name in AS_REGULAR:
        cert = cert_of(name)
        yield name, cert.dual_fd
        xi = cert.nakayama
        for sigma in (xi, Matrix.identity(xi.rows)):
            ext = skew_extend(cert, sigma)
            yield name, ext.model
            yield name, ext.honest_dual


def test_tables_are_integer_cells_over_one_denominator():
    for name, alg in _table_forms():
        assert type(alg.den) is int and alg.den > 0, name
        assert all(type(v) is int and v for block in alg.int_mult.values()
                   for row in block for cell in row for _, v in cell), name
        # the table rebuilds the same algebra, and so do the same constants
        # over another denominator
        assert structure_equal(
            GradedFDAlgebra(alg.dims, alg.int_mult, alg.den), alg), name
        tripled = {ij: tuple(tuple(tuple((c, 3 * v) for c, v in cell)
                                   for cell in row) for row in block)
                   for ij, block in alg.int_mult.items()}
        assert structure_equal(
            GradedFDAlgebra(alg.dims, tripled, 3 * alg.den), alg), name


def test_cy_builds_no_fraction_table():
    # an algebra is its integer cells over den and nothing else: there is
    # no Fraction view of the table and no rational constructor form
    assert not hasattr(GradedFDAlgebra, "mult")
    assert not hasattr(frobenius, "_over_common_denominator")
    den = inspect.signature(GradedFDAlgebra).parameters["den"]
    assert den.default is inspect.Parameter.empty


@pytest.mark.parametrize("dims", [(1.9,), (1, 2.0), (True,), (1, True),
                                  (1, -1), (1, "2"), (1, None)],
                         ids=["float", "whole_float", "bool", "bool_degree",
                              "negative", "str", "none"])
def test_dimension_that_is_not_a_non_negative_int_is_refused(dims):
    # int(x) would truncate 1.9 to 1 and read True as 1 without a word;
    # the dimensions are checked before the table is read
    with pytest.raises(LinAlgError, match=re.escape(
            "dimensions must be non-negative integers")):
        GradedFDAlgebra(dims, {}, 1)
    assert GradedFDAlgebra((1,), {(0, 0): ((((0, 1),),),)}, 1).dims == (1,)


def test_malformed_integer_table_is_rejected():
    alg = _fd("quantum_plane_q2")
    den = alg.den
    x_y = alg.int_mult[(1, 1)][0][1]

    def message(*args):
        with pytest.raises(LinAlgError) as info:
            GradedFDAlgebra(*args)
        return str(info.value)

    # a cell value must be an int: no Fraction, no float standing for an
    # integer or a binary fraction, no bool
    for value in (F(1, 2), F(1), 0.1, 1.0, True, "1"):
        mult = dict(alg.int_mult)
        block = [list(row) for row in mult[(1, 1)]]
        block[0][1] = ((x_y[0][0], value),)
        mult[(1, 1)] = tuple(map(tuple, block))
        assert message(alg.dims, mult, den).startswith(
            "bad structure cell at degrees (1, 1)"), value
    for bad_den in (0, -den, F(den), float(den), True, None):
        assert (message(alg.dims, alg.int_mult, bad_den)
                == "the table denominator must be a positive integer")
