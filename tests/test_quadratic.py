"""Quadratic algebras: duals, graded dimensions, Koszul numerics,
truncations."""

import gc
import re
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (AS_REGULAR, CORPUS, algebra_of, cert_of,
                     class_from_pairings, dense_inverse, int_twist,
                     is_multiplicative, lift_sparse, multiply,
                     oracle_automorphism, oracle_koszul_data,
                     oracle_truncation, package_matrix, quadratic_algebra,
                     reduce_sparse, relation_degree_subspace, seeded,
                     skew_ring, sklyanin, structure_equal, twist_matrices,
                     word_vector)
from quadalg import (Matrix, QuadraticAlgebra, as_regular_certificate,
                     quadratic, graded_dims, koszul_component,
                     numeric_koszul_certificate,
                     preserves_subspace, skew_extend, truncated_structure,
                     word_to_index)
from quadalg.linalg import (ConsistencyError, LinAlgError, ResourceLimitError,
                            Subspace, flipped_int_kernel)

F = Fraction


XX = quadratic_algebra(("x", "y"), [[((0, 0), 1)]])
XY = quadratic_algebra(("x", "y"), [[((0, 1), 1)]])
# smallest Euler failure we found by search: relations yy - zy, yz, zx
NONKOSZUL = quadratic_algebra(("x", "y", "z"),
                              [[((1, 1), 1), ((2, 1), -1)],
                               [((1, 2), 1)],
                               [((2, 0), 1)]])
# Sklyanin algebras S(a, b, c): three regular ones, PBW in no generator
# order, and three of the four degenerate points over Q, PBW in every order
SKLYANIN_POINTS = ((1, 2, 3), (2, -1, 1), (3, 5, -7),
                   (1, 1, 1), (1, 0, 0), (0, 0, 1))


def test_dual_of_commutative_plane():
    alg = algebra_of("kxy")
    dual = alg.dual
    assert dual.names == ("x*", "y*")
    assert dual.relations.dim == 3
    # xx, yy and the symmetric mix annihilate xy - yx
    assert dual.relations.contains(word_vector(2, [((0, 0), F(1))]))
    mix = word_vector(2, [((0, 1), F(1)), ((1, 0), F(1))])
    assert dual.relations.contains(mix)
    assert graded_dims(dual, 5) == (1, 2, 1, 0, 0, 0)


def test_dual_pivots_quantum_plane():
    dual = algebra_of("quantum_plane_q2").dual
    assert dual.relations.pivots == (0, 1, 3)
    # the mixed dual relation carries the inverted coefficient
    row = dual.relations.rows[1]
    assert row == ((1, F(1)), (2, F(1, 2)))


def test_double_dual_returns_relations():
    for name in AS_REGULAR:
        alg = algebra_of(name)
        assert alg.dual.dual.relations == alg.relations


def test_dual_of_the_dual_is_the_algebra_itself():
    # (A^!)^! is A as an object, so R-perp-perp is never eliminated; also on
    # the extensions by the Nakayama map and by the identity
    algs = [algebra_of(name) for name in CORPUS]
    for name in AS_REGULAR:
        cert = cert_of(name)
        algs += [skew_extend(cert, s).algebra
                 for s in (cert.nakayama, Matrix.identity(cert.algebra.n))]
    for alg in algs:
        assert alg.dual.dual is alg, alg.names
        assert alg.dual.dual.dual is alg.dual, alg.names


def test_dual_name_collision():
    alg = quadratic_algebra(("x", "x*"), [[((0, 1), 1)]])
    dual = alg.dual
    assert len(set(dual.names)) == 2
    # a and a** would both dual to a*: every name gains a star instead, and
    # those names dual back, so the double dual is the algebra itself
    alg = quadratic_algebra(("a", "a**"), [[((0, 1), 1)]])
    assert alg.dual.names == ("a*", "a***")
    assert alg.dual.dual is alg


def test_graded_dims_monomial():
    assert graded_dims(XX, 4) == (1, 2, 3, 5, 8)
    assert graded_dims(XY, 5) == (1, 2, 3, 4, 5, 6)


def test_near_free_hilbert_series_stays_small():
    # one relation xy in three letters: dim A_k = 3 dim A_{k-1} - dim A_{k-2}.
    # Its dual has 8 relations, so K_7 of the dual is 987 rows in 3^7
    # coordinates: dense rows would hold over two million entries.  No
    # other test uses this algebra, so its Koszul components are not cached.
    # graded_dims counts normal words past degree 4 here, so K_7 is asked
    # for directly.
    alg = quadratic_algebra(("x", "y", "z"), [[((0, 1), 1)]])
    tracemalloc.start()
    try:
        top = koszul_component(alg.dual, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert top.dim == 987
    assert graded_dims(alg, 7) == (1, 3, 8, 21, 55, 144, 377, 987)
    assert peak < 8 * 2 ** 20


def test_normal_word_dims_match_koszul_components():
    # the K_k-only route in every degree, against graded_dims, which counts
    # normal words past degree 4 on PBW inputs
    algs = [algebra_of(name) for name in CORPUS]
    algs += [a.dual for a in algs]
    algs += [sklyanin(*p) for p in SKLYANIN_POINTS]
    algs += [skew_ring(n, F(-2, 3)) for n in range(2, 6)]
    for alg in algs:
        want = tuple(koszul_component(alg.dual, k).dim for k in range(8))
        assert graded_dims(alg, 7) == want, alg.names


def test_koszul_components_are_canonical_without_a_second_elimination():
    # K_m is assembled from the canonical kernel rows over K_{m-1} (x) V
    # with no elimination on its n^m word coordinates; eliminating its rows
    # again must give the same canonical subspace
    algs = [algebra_of(name) for name in CORPUS]
    algs += [a.dual for a in algs]
    algs += [sklyanin(*p) for p in SKLYANIN_POINTS]
    algs += [skew_ring(n, F(-2, 3)) for n in range(2, 6)]
    for alg in algs:
        for m in range(7):
            comp = koszul_component(alg, m)
            again = Subspace.from_spanning([dict(r) for r in comp.int_rows],
                                           alg.n ** m)
            assert comp == again, (alg.names, m)


def _fresh(alg):
    # the same presentation as a new object, with no Koszul component
    # built: algebra_of and skew_ring share theirs through the parse cache
    return QuadraticAlgebra(alg.names, alg.relations)


def test_koszul_component_answers_any_degree_on_a_cold_cache():
    # the components are built in a loop, degree by degree, so a direct
    # call on a fresh algebra far past the recursion limit answers: K_m of
    # k[x]/(x^2) is x^m in every degree, and kxy's vanish from degree 3 on
    square = quadratic_algebra(("x",), [[((0, 0), 1)]])
    for alg, dim in ((square, 1), (_fresh(algebra_of("kxy")), 0)):
        comp = koszul_component(alg, 3000)
        assert comp.dim == dim
        assert comp.ambient == alg.n ** 3000
    assert koszul_component(square, 3000).int_rows == (((0, 1),),)


def test_a_vanished_degree_ends_the_store():
    # K_3(k[x, y]) is zero, so K_4, ..., K_10000 are answered as fresh
    # zeros and only K_0, ..., K_3 are kept
    kxy = _fresh(algebra_of("kxy"))
    comp = koszul_component(kxy, 10 ** 4)
    assert comp.dim == 0 and comp.ambient == 2 ** 10 ** 4
    store = kxy._koszul_store
    assert [k.dim for k in store.built] == [1, 2, 1, 0]
    assert store.counted == {}
    assert koszul_component(kxy, 10 ** 4) is not comp


def test_a_dropped_algebra_frees_its_components():
    # the components live on the presentation and nowhere else: the
    # algebra and its dual link each other, so the cyclic collector frees
    # the pair, their components with it, once the caches let go
    alg = _fresh(skew_ring(3, F(-2, 3)))
    as_regular_certificate(alg, 4)
    truncated_structure(alg, 4)
    refs = [weakref.ref(x) for x in (alg, alg.dual)]
    refs += [weakref.ref(k) for a in (alg, alg.dual)
             for k in a._koszul_store[0][3:]]
    assert len(refs) > 2
    del alg
    as_regular_certificate.cache_clear()
    truncated_structure.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def _dense_algebra(seed, nrel):
    # nrel relations on three letters, each with every degree-two word and
    # integer coefficients in [-3, 3]
    rng = seeded(seed)
    rows = [[rng.randint(-3, 3) for _ in range(9)] for _ in range(nrel)]
    return QuadraticAlgebra(("a", "b", "c"), Subspace.from_spanning(rows, 9))


def test_component_dimension_by_rank_matches_the_full_component():
    # dim K_m = (unknowns over K_{m-1} (x) V) - rank(equations), read off
    # the forward elimination alone, against the dimension of the component
    # built in full, in every degree up to 6 (at most 6^6 coordinate words)
    algs = [algebra_of(name) for name in CORPUS]
    algs += [a.dual for a in algs]
    for n in (3, 4, 5):
        base = skew_ring(n, F(-2, 3))
        cert = as_regular_certificate(base, n + 1)
        algs += [base, skew_extend(cert, cert.nakayama).algebra]
    algs += [_dense_algebra(seed, nrel)
             for seed, nrel in ((0, 3), (1, 4), (2, 5))]
    # and the duals of the skew rings, extensions and dense algebras
    algs += [a.dual for a in algs[2 * len(CORPUS):]]
    for alg in map(_fresh, algs):
        for m in range(7):
            # counted before it is built
            assert len(alg._koszul_store[0]) <= m
            dim = quadratic._koszul_dim(alg, m)
            assert dim == koszul_component(alg, m).dim, (alg.names, m)


def _koszul_pin_inputs():
    """{name: presentation}: every corpus algebra and its dual, the
    extension of each AS-regular one by its Nakayama map xi and that
    extension's dual, and the skew rings in 3 to 5 letters and S(1, 2, 3),
    each with its dual."""
    out = {}
    for name in CORPUS:
        alg = algebra_of(name)
        out[name] = alg
        out[f"{name}-dual"] = alg.dual
    for name in AS_REGULAR:
        cert = cert_of(name)
        ext = skew_extend(cert, cert.nakayama).algebra
        out[f"{name}-ext"] = ext
        out[f"{name}-ext-dual"] = ext.dual
    rings = {f"skew{n}": skew_ring(n, F(-2, 3)) for n in (3, 4, 5)}
    rings["sklyanin-1-2-3"] = sklyanin(1, 2, 3)
    for name, alg in rings.items():
        out[name] = alg
        out[f"{name}-dual"] = alg.dual
    return out


KOSZUL_PIN_INPUTS = _koszul_pin_inputs()


@pytest.mark.parametrize("name", sorted(KOSZUL_PIN_INPUTS))
def test_koszul_data_matches_the_oracle_core(name):
    # every component up to degree 6, within the word cap, is the Subspace
    # that the axpy core and the equation builder that handed on every row
    # gave (same pivots and int_rows), and every count by rank, each on a
    # fresh presentation, is the oracle core's rank count
    alg = KOSZUL_PIN_INPUTS[name]
    comps, dims = oracle_koszul_data(_fresh(alg), 6)
    built = _fresh(alg)
    for m, comp in enumerate(comps):
        assert koszul_component(built, m) == comp, m
    for m, dim in enumerate(dims):
        assert quadratic._koszul_dim(_fresh(alg), m) == dim, m
    if len(comps) < 7 and not comps[-1].dim:
        # the oracle stopped at a zero component: so does the package
        assert koszul_component(built, len(comps)).dim == 0


def test_component_dimension_stops_where_the_full_component_does():
    # both paths share one equation builder, so the word cap and the
    # vanishing rule hold at the same degrees: the dual of the free algebra
    # on 32 letters has K_4 on 32^4 > 10^6 words, and K_m(k[x, y]) is zero
    # from degree 3 on, past the cap too
    # (each path on a fresh algebra)
    for count in (graded_dims, lambda a, m: quadratic._koszul_dim(a.dual, m),
                  lambda a, m: koszul_component(a.dual, m)):
        free = QuadraticAlgebra(tuple(f"a{i}" for i in range(32)),
                                Subspace.from_spanning([], 32 * 32))
        with pytest.raises(ResourceLimitError, match=re.escape(
                "32^4 coordinate words exceed the cap of 1000000")):
            count(free, 4)
    kxy = algebra_of("kxy")
    assert quadratic._koszul_dim(_fresh(kxy), 20) == 0
    assert koszul_component(_fresh(kxy), 20).dim == 0


def test_graded_dims_builds_no_component_it_only_counts(monkeypatch):
    # the top degree graded_dims reads is counted, not built: degree 4 on
    # a PBW input (the dual of the 4-letter skew ring passes the test), the
    # bound itself on a non-PBW one (the Jordan plane), with every degree
    # below it built because the next one's equations are written over it
    kernels = []

    def counted(*args):
        kernels.append(args)
        return flipped_int_kernel(*args)

    monkeypatch.setattr(quadratic, "flipped_int_kernel", counted)
    for alg, bound, top in ((skew_ring(4, F(-2, 3)).dual, 5, 4),
                            (algebra_of("jordan_plane"), 6, 6)):
        alg = _fresh(alg)
        dims = graded_dims(alg, bound)
        built, counted = alg.dual._koszul_store[:2]
        assert len(built) == top
        # the forward echelon form of the top degree, kept for building it
        assert counted.keys() == {top}
        assert quadratic._koszul_dim(alg.dual, top) == dims[top]
        # so asking for the top component builds it alone, over every
        # degree below it
        kernels.clear()
        assert koszul_component(alg.dual, top).dim == dims[top]
        assert len(kernels) == 1 and len(built) == top + 1
        assert counted == {}


def test_dims_and_certificates_are_kept_per_presentation_and_bound():
    # graded_dims and numeric_koszul_certificate answer once per
    # presentation and bound; an equal presentation keeps its own answers
    alg = _fresh(algebra_of("quantum3"))
    cert = numeric_koszul_certificate(alg, 5)
    assert numeric_koszul_certificate(alg, 5) is cert
    assert graded_dims(alg, 5) is cert.dims
    assert alg.dual._koszul_store.dims == {5: cert.dual_dims}
    assert numeric_koszul_certificate(alg, 4) is not cert
    assert _fresh(alg)._koszul_store.certificates == {}


def test_sklyanin_points_pbw_or_not():
    # every point has three leading words and the same normal-word counts;
    # they are the dimensions only at the degenerate points, as the regular
    # ones have the Hilbert series of k[x, y, z]
    counts = (1, 3, 6, 12, 24, 48, 96, 192)
    for i, p in enumerate(SKLYANIN_POINTS):
        alg = sklyanin(*p)
        assert quadratic._normal_word_counts(alg, 7) == counts, p
        want = (1, 3, 6, 10, 15, 21, 28, 36) if i < 3 else counts
        assert graded_dims(alg, 7) == want, p


def test_jordan_plane_dims_come_from_koszul_components():
    # xy - yx - xx has leading word xx: the normal words avoid xx and are
    # counted by Fibonacci numbers, which overcount from degree 3 on, so
    # no degree is read off them
    alg = algebra_of("jordan_plane")
    assert quadratic._normal_word_counts(alg, 7) == (1, 2, 3, 5, 8, 13, 21, 34)
    assert graded_dims(alg, 7) == (1, 2, 3, 4, 5, 6, 7, 8)


def test_normal_word_count_disagreement_raises(monkeypatch):
    count = quadratic._normal_word_counts

    def off_in_degree_four(alg, bound):
        counts = list(count(alg, bound))
        counts[4] += 1
        return tuple(counts)

    monkeypatch.setattr(quadratic, "_normal_word_counts", off_in_degree_four)
    # on a fresh presentation: the shared one may hold its dims already
    poly3 = _fresh(algebra_of("poly3"))
    with pytest.raises(ConsistencyError, match="normal-word counts"):
        graded_dims(poly3, 6)
    # and a raise stores nothing
    assert poly3._koszul_store.dims == {}
    # the check guards the PBW route only; the Jordan plane is not PBW here
    assert graded_dims(algebra_of("jordan_plane"), 6) == (1, 2, 3, 4, 5, 6, 7)


def test_relation_degree_dimension_identity():
    for k in (2, 3, 4):
        sub = relation_degree_subspace(XX, k)
        assert graded_dims(XX, k)[k] == 2 ** k - sub.dim


def test_koszul_component_matches_dual_dims():
    # K_m is the annihilator of the dual's relation span in degree m; this
    # is a plain duality fact, so it holds for the non-Koszul example too
    for alg in (XX, XY, NONKOSZUL, algebra_of("jordan_plane")):
        dual = alg.dual
        for m in range(2, 5):
            span = relation_degree_subspace(dual, m)
            comp = koszul_component(alg, m)
            assert comp.dim == dual.n ** m - span.dim, m
            assert comp == span.annihilator(), m


def test_pivot_word_equations_match_relation_span_oracle():
    # from degree 4 on, K_m is cut out by the equations at the pivot words
    # of K_{m-2} only: on the non-PBW Jordan plane and S(1, 2, 3), on the
    # degenerate, PBW S(1, 1, 1), and on the dual of each
    for base in (algebra_of("jordan_plane"), sklyanin(1, 2, 3),
                 sklyanin(1, 1, 1)):
        for alg in (base, base.dual):
            for m in range(4, 7):
                span = relation_degree_subspace(alg.dual, m)
                assert koszul_component(alg, m) == span.annihilator(), m


def test_numeric_koszul_corpus_passes():
    for name in AS_REGULAR:
        cert = numeric_koszul_certificate(algebra_of(name), 5)
        assert cert.passed, name
        assert cert.component_mismatches == ()
        assert cert.euler_failures == ()


def test_numeric_koszul_monomial_passes():
    cert = numeric_koszul_certificate(XX, 5)
    assert cert.passed
    assert cert.dims == (1, 2, 3, 5, 8, 13)
    assert cert.dual_dims == (1, 2, 1, 1, 1, 1)


def test_numeric_koszul_refutation():
    cert = numeric_koszul_certificate(NONKOSZUL, 4)
    assert not cert.passed
    assert cert.euler_failures == (4,)
    assert cert.dims == (1, 3, 6, 11, 21)
    assert cert.dual_dims == (1, 3, 3, 2, 1)
    # the component/dual equality is structural and must still hold
    assert cert.component_mismatches == ()


def _full_convolution_failures(dims, dual_dims):
    """The Euler identity summed over every pair of terms, as a test oracle."""
    return tuple(k for k in range(1, len(dims))
                 if sum((-1) ** j * dims[k - j] * dual_dims[j]
                        for j in range(k + 1)))


# dimension sequences of one length, mostly zero so that the supports vary
_dim_terms = st.one_of(st.just(0), st.just(0), st.integers(1, 40))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 24).flatmap(lambda k: st.tuples(
    st.lists(_dim_terms, min_size=k + 1, max_size=k + 1),
    st.lists(_dim_terms, min_size=k + 1, max_size=k + 1))))
def test_euler_failures_match_the_full_convolution(pair):
    dims, dual_dims = pair
    assert (quadratic._euler_failures(tuple(dims), tuple(dual_dims))
            == _full_convolution_failures(dims, dual_dims))


def test_euler_identity_is_linear_in_a_finite_support():
    # k[x]/(x^2): dims 1, 1, 0, ... and a dual k[x] of dimension 1 in every
    # degree.  The full convolution took over a minute at this bound
    xx = quadratic_algebra(("x",), [[((0, 0), 1)]])
    started = time.perf_counter()
    cert = numeric_koszul_certificate(xx, 20000)
    assert time.perf_counter() - started < 10
    assert cert.passed
    assert cert.dims == (1, 1) + (0,) * 19999
    assert cert.dual_dims == (1,) * 20001


def _dual_automorphism(cert, phi):
    """The automorphism of the dual induced by phi: the transpose, extended
    to every degree of the truncated dual, as an integer twist."""
    return cert.dual_fd.automorphism(phi.transpose())


def test_dual_automorphism_contravariant():
    # both maps preserve the commutative plane's relations
    cert = cert_of("kxy")
    phi = Matrix.from_rows([(F(2), F(0)), (F(0), F(1, 2))], 2)
    psi = Matrix.from_rows([(F(1), F(0)), (F(1), F(1))], 2)
    a = _dual_automorphism(cert, phi @ psi)
    b = twist_matrices(_dual_automorphism(cert, psi))
    c = twist_matrices(_dual_automorphism(cert, phi))
    assert a == int_twist(tuple(m @ n for m, n in zip(b, c)))
    assert is_multiplicative(twist_matrices(a), cert.dual_fd)


def test_dual_automorphism_requires_preservation():
    cert = cert_of("quantum_plane_q2")
    shear = Matrix.from_rows([(F(1), F(1)), (F(0), F(1))], 2)
    assert not preserves_subspace(shear, cert.algebra.relations)
    with pytest.raises(LinAlgError, match="does not preserve"):
        _dual_automorphism(cert, shear)


def _degree_one(trunc, **coeffs):
    """Coordinates of a combination of generators, by generator name."""
    names = trunc.algebra.names
    return tuple(F(coeffs.get(names[w], 0)) for w in trunc.words[1])


def test_truncated_multiply_matches_tensor_reduction():
    trunc = truncated_structure(algebra_of("quantum_plane_q2"), 4)
    # x * y = 2 y x in the quotient: the class of the word xy is 2 yx
    xy = multiply(trunc, 1, _degree_one(trunc, x=1),
                  1, _degree_one(trunc, y=1))
    assert lift_sparse(trunc, 2, xy) == {word_to_index((1, 0), 2): F(2)}
    assert xy == reduce_sparse(trunc, 2, {word_to_index((0, 1), 2): 1})


def test_truncated_associativity_spot():
    alg = truncated_structure(algebra_of("jordan_plane"), 4)
    u = _degree_one(alg, x=1, y=2)
    v = _degree_one(alg, y=1)
    w = _degree_one(alg, x=1)
    left = multiply(alg, 2, multiply(alg, 1, u, 1, v), 1, w)
    right = multiply(alg, 1, u, 2, multiply(alg, 1, v, 1, w))
    assert left == right


def test_class_from_pairings_errors():
    cert = cert_of("quantum_plane_q2")
    trunc = cert.dual_fd
    rel = cert.algebra.relations
    # pairing values that are not constant on classes must be rejected:
    # pair against a row inside the dual's own relation span
    dead = relation_degree_subspace(cert.algebra.dual, 2).rows[0]
    from quadalg.linalg import Subspace
    bad_space = Subspace.from_spanning([dict(dead)], rel.ambient)
    with pytest.raises(LinAlgError):
        class_from_pairings(trunc, 2, bad_space.rows, [[F(1)]])
    # legitimate pairing solves exactly
    [got] = class_from_pairings(trunc, 2, rel.rows, [[F(1)]])
    rep = lift_sparse(trunc, 2, got)
    val = sum(rep.get(i, F(0)) * v for i, v in rel.rows[0])
    assert val == F(1)


def test_class_from_pairings_solves_vectors_together():
    # several value vectors in one call give the classes of one call each,
    # and each class pairs to its values
    for name in AS_REGULAR:
        cert = cert_of(name)
        trunc = cert.dual_fd
        rows = cert.algebra.relations.rows
        nrel = len(rows)
        vectors = [[F(int(i == j)) for j in range(nrel)] for i in range(nrel)]
        vectors.append([F(j + 1, 3) for j in range(nrel)])
        got = class_from_pairings(trunc, 2, rows, vectors)
        assert got == [class_from_pairings(trunc, 2, rows, [v])[0]
                       for v in vectors], name
        for cls, values in zip(got, vectors):
            rep = lift_sparse(trunc, 2, cls)
            assert [sum(rep.get(i, F(0)) * v for i, v in row)
                    for row in rows] == values, name
    # one unattainable vector among attainable ones is rejected: a repeated
    # row with a different value
    cert = cert_of("quantum_plane_q2")
    rows = cert.algebra.relations.rows * 2
    with pytest.raises(LinAlgError):
        class_from_pairings(cert.dual_fd, 2, rows,
                            [[F(1), F(1)], [F(1), F(0)]])
    assert class_from_pairings(cert.dual_fd, 2, rows, [[F(1), F(1)]])
    with pytest.raises(LinAlgError):
        class_from_pairings(cert.dual_fd, 2, rows, [[F(1)]])


def test_dual_truncation_matches_relation_span_oracle():
    # the Koszul-component truncation against the relation-span route, on
    # every AS-regular dual and on the dual of its Nakayama-twisted extension
    for name in AS_REGULAR:
        cert = cert_of(name)
        ext = skew_extend(cert, cert.nakayama)
        for dual, bound in ((cert.algebra.dual, cert.gldim),
                            (ext.algebra.dual, cert.gldim + 1)):
            got = truncated_structure(dual, bound)
            want, words = oracle_truncation(dual, bound)
            assert structure_equal(got, want), name
            assert got.words == words, name


def test_truncated_automorphism_preservation():
    cert = cert_of("quantum_plane_q2")
    xi = cert.nakayama
    phi = package_matrix(dense_inverse(xi).transpose())
    auto = cert.dual_fd.automorphism(phi)
    assert auto == int_twist(oracle_automorphism(cert.dual_fd, phi))
    assert is_multiplicative(twist_matrices(auto), cert.dual_fd)


@st.composite
def quadratic_algebras(draw):
    n = draw(st.integers(min_value=2, max_value=3))
    nrel = draw(st.integers(min_value=1, max_value=3))
    relations = []
    for _ in range(nrel):
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            w = (draw(st.integers(min_value=0, max_value=n - 1)),
                 draw(st.integers(min_value=0, max_value=n - 1)))
            c = draw(st.integers(min_value=-2, max_value=2))
            if c:
                terms.append((w, F(c)))
        if terms:
            relations.append(terms)
    return quadratic_algebra("abcd"[:n], relations)


@settings(max_examples=25, deadline=None)
@given(quadratic_algebras())
def test_component_dual_dim_identity_random(alg):
    # up to degree 6: the pivot-word restriction removes equations from 4 on
    dual = alg.dual
    for m in range(2, 7):
        span = relation_degree_subspace(dual, m)
        assert koszul_component(alg, m) == span.annihilator()


@settings(max_examples=25, deadline=None)
@given(quadratic_algebras())
def test_dims_add_up_random(alg):
    n = alg.n
    dims = graded_dims(alg, 3)
    for k in (2, 3):
        assert dims[k] == n ** k - relation_degree_subspace(alg, k).dim
