"""One-letter twisted extensions A[z;sigma] and their Calabi-Yau verdicts."""

from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (AS_REGULAR, cert_of, dense_inverse,
                     dual_trivial_extension, ext_iso_oracle, identity_maps,
                     model_map_multiplicative, twist_matrices, with_model,
                     word_vector, zero_action_model)
from quadalg import (Matrix, cy_check_with, fresh_letter, graded_dims,
                     regularity_data, skew, skew_extend,
                     twisted_module_trivial_extension,
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
    cert = cert_of("quantum_plane_q2")
    ext = skew_extend(cert, cert.nakayama)
    assert ext.algebra.names == ("x", "y", "z")
    assert ext.algebra.names[-1] == "z"
    assert ext.algebra.relations.dim == 3
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)


def test_mixed_relations_formula():
    # new relations read z (x) sigma^{-1}(letter) - letter (x) z
    cert = cert_of("quantum_plane_q2")
    alg = cert.algebra
    xi = cert.nakayama
    ext = skew_extend(cert, xi)
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
    ext = skew_extend(cert_of("kxy"), Matrix.identity(2))
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)
    want = word_vector(3, [((2, 0), F(1)), ((0, 2), F(-1))])
    # the first mixed relation follows the one base relation
    assert ext.stacked_relations[1] == want


def test_dim3_extension_hilbert():
    cert = cert_of("poly3")
    ext = skew_extend(cert, cert.nakayama)
    assert graded_dims(ext.algebra, 4) == (1, 4, 10, 20, 35)


def test_ext_model_matches_honest_dual():
    for name in AS_REGULAR:
        cert = cert_of(name)
        xi = cert.nakayama
        rep = skew_extend(cert, xi).iso
        assert rep.passed, name
        assert rep.left_identity_ok and rep.right_identity_ok


def test_ext_model_matches_for_identity_twist_too():
    # the model matches the honest dual for any invertible twist; only the
    # symmetry verdict depends on the choice
    for name in ("quantum_plane_q2", "jordan_plane"):
        cert = cert_of(name)
        rep = skew_extend(cert, Matrix.identity(cert.algebra.n)).iso
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
        paper = dual_trivial_extension(dual,
                                       twist_matrices(dual.epsilon(d)),
                                       identity_maps(dual), d + 1)
        xi = cert.nakayama
        assert model_map_multiplicative(skew_extend(cert, xi).model,
                                        paper), name
        ident = Matrix.identity(cert.algebra.n)
        if not model_map_multiplicative(skew_extend(cert, ident).model,
                                        paper):
            unmatched.append(name)
        assert (name in unmatched) == (xi != ident), name
    assert unmatched == ["quantum_plane_q2", "quantum_plane_q3",
                         "quantum_plane_qm1", "jordan_plane"]


def test_model_dims():
    cert = cert_of("quantum_plane_q2")
    gamma = skew_extend(cert, cert.nakayama).model
    assert gamma.dims == (1, 3, 3, 1)


def test_cy_with_nakayama_twist():
    for name in AS_REGULAR:
        cert = cert_of(name)
        rep = cy_check_with(cert, cert.nakayama)
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
        ext = skew_extend(cert, cert.nakayama)
        cert_b = regularity_data(ext.algebra, 3, 4)
        rep = cy_check_with(cert_b, cert_b.nakayama)
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
    return (cert.nakayama, Matrix.identity(n),
            Matrix.from_rows(OTHER_TWIST[name], n))


def _fields(rep):
    return (rep.generated_ok, rep.bijective, rep.left_identity_ok,
            rep.right_identity_ok)


def test_iso_check_agrees_with_dense_oracle():
    for name in AS_REGULAR:
        cert = cert_of(name)
        for sigma in _twists(name):
            ext = skew_extend(cert, sigma)
            assert _fields(ext.iso) == ext_iso_oracle(ext), name
            assert ext.iso.passed, name


def _collapsing_model(cert):
    """On kxy, whose dual is the exterior algebra on x, y: the shifted copy
    with x acting on the left as x and y as 0, and with x and y swapped on
    the right.  Then x z and z x are independent, as are their images
    under the solved map, x z and z x in the honest dual, which are
    dependent there."""
    dual = cert.dual_fd
    left = dual.automorphism(Matrix.from_rows(((1, 0), (0, 0)), 2))
    right = dual.automorphism(Matrix.from_rows(((0, 1), (1, 0)), 2))
    return twisted_module_trivial_extension(dual, left, right)


def _doubled_mixed_relations(ext):
    """A copy of the extension with its mixed relation rows doubled, so
    that the mixed relation classes come out halved."""
    nrel = ext.cert.algebra.relations.dim
    rows = ext.stacked_relations
    doubled = tuple({c: 2 * v for c, v in row.items()} for row in rows[nrel:])
    return replace(ext, stacked_relations=rows[:nrel] + doubled)


def _check_against_oracle(monkeypatch, ext, seen):
    rep = verify_ext_algebra_isomorphism(ext)
    fields = _fields(rep)
    assert fields == ext_iso_oracle(ext)
    seen.add(fields)
    if not rep.passed:
        # cy_check_with refuses the copy when skew_extend hands it out
        with monkeypatch.context() as m, pytest.raises(ConsistencyError):
            m.setattr(skew, "skew_extend", lambda cert, sigma, /: ext)
            cy_check_with(ext.cert, ext.sigma)
    return fields


def test_iso_check_fails_on_a_mismatched_model(monkeypatch):
    # the model of one twist against the honest dual of the extension by
    # another, and models that are no twist at all; the dense route must
    # give the same four verdicts
    seen = set()
    zero_action = set()
    for name in AS_REGULAR:
        cert = cert_of(name)
        twists = _twists(name)
        models = [skew_extend(cert, m).model for m in twists]
        for sigma in twists:
            ext = skew_extend(cert, sigma)
            for model in models:
                _check_against_oracle(monkeypatch, with_model(ext, model),
                                      seen)
            zero_action.add(_check_against_oracle(
                monkeypatch, with_model(ext, zero_action_model(cert)), seen))
    # products that do not span: neither generated nor bijective
    assert zero_action == {(False, False, True, True)}
    cert = cert_of("kxy")
    for sigma in _twists("kxy"):
        _check_against_oracle(monkeypatch, with_model(
            skew_extend(cert, sigma), _collapsing_model(cert)), seen)
    for name in AS_REGULAR:
        cert = cert_of(name)
        _check_against_oracle(monkeypatch, _doubled_mixed_relations(
            skew_extend(cert, cert.nakayama)), seen)
    assert (True, True, True, True) in seen
    # the map fails: a model product not generated, or a relation of the
    # model that the honest dual lacks
    assert (False, True, True, True) in seen
    # the map solved from the earliest independent products is singular
    assert (False, False, True, True) in seen
    # the mixed relation classes do not match the honest products
    assert (True, True, False, False) in seen
    # the copies leave the cached extensions as they were
    for name in AS_REGULAR:
        cert = cert_of(name)
        for sigma in _twists(name):
            assert skew_extend(cert, sigma).iso.passed, name
