"""One-letter twisted extensions A[z;sigma] and their Calabi-Yau verdicts."""

from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (AS_REGULAR, DIM2, algebra_of, cert_of, dense_inverse,
                     dual_trivial_extension, ext_iso_oracle, identity_maps,
                     model_map_multiplicative, word_vector)
from quadalg import (Matrix, cy_check_with,
                     ext_algebra_of_skew, fresh_letter, graded_dims,
                     nakayama_of_algebra, regularity_data, skew,
                     skew_extend, twisted_module_trivial_extension,
                     verify_ext_algebra_isomorphism,
                     verify_extended_presentation)
from quadalg.linalg import ConsistencyError

F = Fraction


def test_fresh_letter():
    assert fresh_letter(("x", "y")) == "z"
    assert fresh_letter(("x", "y", "z")) == "w"
    assert fresh_letter(tuple("zwvuts")) == "z'"
    assert fresh_letter(tuple("zwvuts") + ("z'",)) == "z''"


def test_skew_extension_shape():
    alg = algebra_of("quantum_plane_q2")
    xi = nakayama_of_algebra(cert_of("quantum_plane_q2"))
    ext = skew_extend(alg, xi)
    assert ext.algebra.names == ("x", "y", "z")
    assert ext.algebra.names[-1] == "z"
    assert ext.algebra.relations.dim == 3
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)


def test_mixed_relations_formula():
    # new relations read z (x) sigma^{-1}(letter) - letter (x) z
    alg = algebra_of("quantum_plane_q2")
    xi = nakayama_of_algebra(cert_of("quantum_plane_q2"))
    ext = skew_extend(alg, xi)
    inv = dense_inverse(xi)
    n = alg.n
    mixed = ext.stacked_relations[alg.relations.dim:]
    assert len(mixed) == n
    for i, row in enumerate(mixed):
        col = inv.col(i)
        expect = word_vector(n + 1, [((n, j), col[j]) for j in range(n)]
                                    + [((i, n), F(-1))])
        assert row == expect, i


def test_identity_twist_gives_commuting_letter():
    ext = skew_extend(algebra_of("kxy"), Matrix.identity(2))
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)
    want = word_vector(3, [((2, 0), F(1)), ((0, 2), F(-1))])
    # the first mixed relation follows the one base relation
    assert ext.stacked_relations[1] == want


def test_dim3_extension_hilbert():
    xi = nakayama_of_algebra(cert_of("poly3"))
    ext = skew_extend(algebra_of("poly3"), xi)
    assert graded_dims(ext.algebra, 4) == (1, 4, 10, 20, 35)


def test_ext_model_matches_honest_dual():
    for name in AS_REGULAR:
        cert = cert_of(name)
        xi = nakayama_of_algebra(cert)
        rep = verify_ext_algebra_isomorphism(cert, xi)
        assert rep.passed, name
        assert rep.left_identity_ok and rep.right_identity_ok


def test_ext_model_matches_for_identity_twist_too():
    # the model matches the honest dual for any invertible twist; only the
    # symmetry verdict depends on the choice
    for name in ("quantum_plane_q2", "jordan_plane"):
        cert = cert_of(name)
        rep = verify_ext_algebra_isomorphism(
            cert, Matrix.identity(cert.algebra.n))
        assert rep.passed, name


def test_model_is_the_papers_trivial_extension():
    # the paper's theorem: E(A[z; xi]) is the trivial extension of E = E(A)
    # by its dual, E ⋉ E^*(d+1) with the sign twist on the left.  The model
    # maps onto it multiplicatively for the Nakayama twist xi, and for the
    # identity twist exactly where xi is not the identity
    unmatched = []
    for name in AS_REGULAR:
        cert = cert_of(name)
        dual = cert.dual_fd
        d = cert.gldim
        paper = dual_trivial_extension(dual, dual.epsilon(d),
                                       identity_maps(dual), d + 1)
        xi = nakayama_of_algebra(cert)
        assert model_map_multiplicative(ext_algebra_of_skew(cert, xi),
                                        paper), name
        ident = Matrix.identity(cert.algebra.n)
        if not model_map_multiplicative(ext_algebra_of_skew(cert, ident),
                                        paper):
            unmatched.append(name)
        assert (name in unmatched) == (xi != ident), name
    assert unmatched == ["quantum_plane_q2", "quantum_plane_q3",
                         "quantum_plane_qm1", "jordan_plane"]


def test_model_dims():
    cert = cert_of("quantum_plane_q2")
    gamma = ext_algebra_of_skew(cert, nakayama_of_algebra(cert))
    assert gamma.dims == (1, 3, 3, 1)


def test_cy_with_nakayama_twist():
    for name in AS_REGULAR:
        cert = cert_of(name)
        rep = cy_check_with(cert, nakayama_of_algebra(cert))
        assert rep.is_CY, name
        assert rep.dimension == cert.gldim + 1
        assert rep.witness is None


def test_cy_fails_with_identity_twist_on_q2():
    cert = cert_of("quantum_plane_q2")
    rep = cy_check_with(cert, Matrix.identity(2))
    assert not rep.is_CY
    assert rep.witness == (1, 0, 2)


def test_cy_identity_twist_on_kxy_still_works():
    # trivial Nakayama: the identity is the right twist there
    rep = cy_check_with(cert_of("kxy"), Matrix.identity(2))
    assert rep.is_CY


def test_extended_presentation_matches():
    for name in AS_REGULAR:
        assert verify_extended_presentation(cert_of(name)), name


def test_iterated_extension_stays_cy():
    # extend a dimension-2 base, certify the result, extend again
    for name in ("kxy", "quantum_plane_q2"):
        cert = cert_of(name)
        ext = skew_extend(cert.algebra, nakayama_of_algebra(cert))
        cert_b = regularity_data(ext.algebra, 3, 4)
        rep = cy_check_with(cert_b, nakayama_of_algebra(cert_b))
        assert rep.is_CY, name
        assert rep.dimension == 4


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


def _twists(name):
    cert = cert_of(name)
    n = cert.algebra.n
    return (nakayama_of_algebra(cert), Matrix.identity(n),
            Matrix.from_rows(OTHER_TWIST[name], n))


def _fields(rep):
    return (rep.generated_ok, rep.bijective, rep.left_identity_ok,
            rep.right_identity_ok)


def test_iso_check_agrees_with_dense_oracle():
    for name in AS_REGULAR:
        cert = cert_of(name)
        for sigma in _twists(name):
            rep = verify_ext_algebra_isomorphism(cert, sigma)
            assert _fields(rep) == ext_iso_oracle(cert, sigma), name
            assert rep.passed, name


def _zero_action_model(cert, sigma):
    """The dual extended by its shifted copy with every element of positive
    degree acting by zero: not generated in degree 1, as the copy of the
    dual's degree 1 is no product."""
    dual = cert.dual_fd
    unit_only = tuple(Matrix.identity(1) if i == 0 else Matrix.zero(m, m)
                      for i, m in enumerate(dual.dims))
    return twisted_module_trivial_extension(dual, unit_only, unit_only)


def _collapsing_model(cert, sigma):
    """On kxy, whose dual is the exterior algebra on x, y: the shifted copy
    with x acting on the left as x and y as 0, and with x and y swapped on
    the right.  Then x z and z x are independent, as are their images
    under the solved map, x z and z x in the honest dual, which are
    dependent there."""
    dual = cert.dual_fd
    left = dual.automorphism(Matrix.from_rows(((1, 0), (0, 0)), 2))
    right = dual.automorphism(Matrix.from_rows(((0, 1), (1, 0)), 2))
    return twisted_module_trivial_extension(dual, left, right)


def _doubled_mixed_relations(base, sigma):
    """The extension with its mixed relation rows handed on doubled, so
    that the mixed relation classes come out halved."""
    ext = skew_extend(base, sigma)
    nrel = base.relations.dim
    rows = ext.stacked_relations
    doubled = tuple({c: 2 * v for c, v in row.items()} for row in rows[nrel:])
    return replace(ext, stacked_relations=rows[:nrel] + doubled)


def _check_against_oracle(cert, sigma, seen):
    rep = verify_ext_algebra_isomorphism(cert, sigma)
    fields = _fields(rep)
    assert fields == ext_iso_oracle(cert, sigma)
    seen.add(fields)
    if not rep.passed:
        with pytest.raises(ConsistencyError):
            cy_check_with(cert, sigma)
    return fields


@pytest.fixture
def swap(monkeypatch):
    """Replace an attribute of skew, emptying the cache of
    verify_ext_algebra_isomorphism: it keeps the report of whatever model
    was in place when it was filled.  Emptied once more after the test."""
    def swap_in(attr, value):
        monkeypatch.setattr(skew, attr, value)
        skew.verify_ext_algebra_isomorphism.cache_clear()
    yield swap_in
    skew.verify_ext_algebra_isomorphism.cache_clear()


def test_iso_check_fails_on_a_mismatched_model(swap):
    # the model of one twist against the honest dual of the extension by
    # another, and models that are no twist at all; the dense route must
    # give the same four verdicts
    real = skew.ext_algebra_of_skew
    seen = set()
    zero_action = set()
    for name in AS_REGULAR:
        cert = cert_of(name)
        twists = _twists(name)
        models = [lambda c, s, m=m: real(c, m) for m in twists]
        for sigma in twists:
            for model in models:
                swap("ext_algebra_of_skew", model)
                _check_against_oracle(cert, sigma, seen)
            swap("ext_algebra_of_skew", _zero_action_model)
            zero_action.add(_check_against_oracle(cert, sigma, seen))
    # products that do not span: neither generated nor bijective
    assert zero_action == {(False, False, True, True)}
    swap("ext_algebra_of_skew", _collapsing_model)
    for sigma in _twists("kxy"):
        _check_against_oracle(cert_of("kxy"), sigma, seen)
    swap("ext_algebra_of_skew", real)
    swap("skew_extend", _doubled_mixed_relations)
    for name in AS_REGULAR:
        _check_against_oracle(cert_of(name), _twists(name)[0], seen)
    assert (True, True, True, True) in seen
    # the map fails: a model product not generated, or a relation of the
    # model that the honest dual lacks
    assert (False, True, True, True) in seen
    # the map solved from the earliest independent products is singular
    assert (False, False, True, True) in seen
    # the mixed relation classes do not match the honest products
    assert (True, True, False, False) in seen
