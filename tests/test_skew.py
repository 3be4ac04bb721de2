"""One-letter twisted extensions A[z;sigma] and their Calabi-Yau verdicts."""

from fractions import Fraction
from math import gcd

import pytest

from helpers import (AS_REGULAR, OTHER_TWIST, algebra_of, cache_sizes,
                     cert_of, dense_inverse, package_caches,
                     dual_trivial_extension, ext_iso_oracle, identity_maps,
                     model_map_multiplicative, twist_matrices,
                     twisted_extension, with_model, word_vector,
                     zero_action_model)
from quadalg import (GradedFDAlgebra, Matrix, RegularityCertificate,
                     as_regular_certificate,
                     SkewExtension, fresh_letter, graded_dims,
                     regularity_data, skew, skew_extend,
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


def test_an_extension_off_the_partial_sums_is_refused(monkeypatch):
    # skew_extend reads the dims of base and extension on every call, as
    # nothing keeps them: an extension dim off the partial sums of the
    # base's is refused each time, and leaves no cache entry behind
    cert = cert_of("poly3")
    twist = Matrix.identity(3)
    skew_extend(cert, twist)

    def off_in_degree_three(alg, bound):
        dims = graded_dims(alg, bound)
        if alg is cert.algebra:
            return dims
        return dims[:3] + (dims[3] + 1,) + dims[4:]

    monkeypatch.setattr(skew, "graded_dims", off_in_degree_three)
    sizes = cache_sizes()
    for _ in range(2):
        # a certificate of the same data that skew_extend has not seen
        fresh = RegularityCertificate(cert.algebra, cert.koszul, cert.dual_fd)
        with pytest.raises(ConsistencyError, match=(
                "^extension dimension 21 at degree 3 is not the partial "
                "sum 20 of the base dimensions$")):
            skew_extend(fresh, twist)
    assert cache_sizes() == sizes


def test_mixed_relations_formula():
    # the relation row that leads at letter (x) z is the canonical multiple
    # of z (x) sigma^{-1}(letter) - letter (x) z: content-free, with a
    # positive entry at letter (x) z
    cert = cert_of("quantum_plane_q2")
    alg = cert.algebra
    xi = cert.nakayama
    ext = skew_extend(cert, xi)
    inv = dense_inverse(xi)
    n = alg.n
    rels = ext.algebra.relations
    assert rels.dim == alg.relations.dim + n
    rows = dict(zip(rels.pivots, rels.int_rows))
    for i in range(n):
        row = rows[i * (n + 1) + n]
        pivot = row[0][1]
        assert pivot > 0 and gcd(*[v for _, v in row]) == 1, i
        col = inv.col(i)
        expect = word_vector(n + 1, [((n, j), col[j]) for j in range(n)]
                                    + [((i, n), F(-1))])
        assert {c: F(-v, pivot) for c, v in row} == expect, i
    # sigma^{-1} = diag(1/2, 2): 2 x z - z x and y z - 2 z y
    assert rels.int_rows[1:] == (((2, 2), (6, -1)), ((5, 1), (7, -2)))


def test_identity_twist_gives_commuting_letter():
    ext = skew_extend(cert_of("kxy"), Matrix.identity(2))
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)
    want = word_vector(3, [((0, 2), F(1)), ((2, 0), F(-1))])
    # the first mixed relation follows the one base relation
    assert dict(ext.algebra.relations.int_rows[1]) == want


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
        ext = skew_extend(cert, cert.nakayama)
        is_cy, witness = ext.symmetry
        assert is_cy, name
        # the extension's dual is one-dimensional in degree gldim + 1, the
        # dimension the cy report prints
        assert ext.honest_dual.dims[cert.gldim + 1] == 1, name
        assert witness is None


def test_cy_fails_with_identity_twist_on_q2():
    cert = cert_of("quantum_plane_q2")
    is_cy, witness = skew_extend(cert, Matrix.identity(2)).symmetry
    assert not is_cy
    assert witness == (1, 0, 2)


def test_cy_identity_twist_on_kxy_still_works():
    # trivial Nakayama: the identity is the right twist there
    is_cy, _ = skew_extend(cert_of("kxy"), Matrix.identity(2)).symmetry
    assert is_cy


# the bases whose identity-twisted extension is not graded symmetric
NOT_SYMMETRIC_BY_ID = ("quantum_plane_q2", "quantum_plane_q3",
                       "quantum_plane_qm1", "jordan_plane")


def test_a_symmetric_honest_dual_fails_the_model_s_symmetry_verdict():
    for name in NOT_SYMMETRIC_BY_ID:
        cert = cert_of(name)
        ext = skew_extend(cert, Matrix.identity(cert.algebra.n))
        copy = SkewExtension(ext.cert, ext.sigma, ext.algebra,
                             ext.sigma_inverse)
        # the dual of the Nakayama-twisted extension, which is symmetric,
        # seeded where the cached property keeps the honest dual
        copy.__dict__["honest_dual"] = skew_extend(
            cert, cert.nakayama).honest_dual
        # and the real extension's passing iso report, so that the read
        # gets past the model's check to the symmetry cross-check
        copy.__dict__["iso"] = ext.iso
        with pytest.raises(ConsistencyError) as exc:
            copy.symmetry
        assert str(exc.value) == ("symmetry verdict differs between the "
                                  "model and the honest dual"), name
        assert "symmetry" not in vars(copy), name


def test_a_wrong_nakayama_sign_fails_the_pairing_symmetry_test():
    # a symmetric model given a Nakayama map that is not the sign
    # epsilon(d - 1), and a model that is not symmetric given that sign
    for name in NOT_SYMMETRIC_BY_ID:
        cert = cert_of(name)
        for sigma, symmetric in ((cert.nakayama, True),
                                 (Matrix.identity(cert.algebra.n), False)):
            ext = skew_extend(cert, sigma)
            model = ext.model
            fresh = GradedFDAlgebra(model.dims, model.int_mult, model.den)
            d = model.length
            fresh.__dict__["nakayama"] = model.epsilon(
                d if symmetric else d - 1)
            assert fresh.nakayama != model.nakayama, name
            copy = with_model(ext, fresh)
            with pytest.raises(ConsistencyError) as exc:
                copy.symmetry
            assert str(exc.value) == ("pairing symmetry and Nakayama sign "
                                      "test disagree"), name
            assert "symmetry" not in vars(copy), name


def test_extended_presentation_matches():
    for name in AS_REGULAR:
        assert verify_extended_presentation(cert_of(name)), name


def test_iterated_extension_stays_cy():
    # extend a dimension-2 base, certify the result, extend again
    for name in ("kxy", "quantum_plane_q2"):
        cert = cert_of(name)
        ext = skew_extend(cert, cert.nakayama)
        cert_b = regularity_data(ext.algebra, 3, 4)
        is_cy, _ = skew_extend(cert_b, cert_b.nakayama).symmetry
        assert is_cy, name
        assert cert_b.gldim + 1 == 4


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
    return twisted_extension(dual, left, right)


def _doubled_inverse_twist(ext):
    """A copy of the extension that carries 2 sigma^{-1} as the inverse of
    its twist, against which the right identity is checked, and keeps the
    extension's own model."""
    copy = with_model(ext, ext.model)
    copy.__dict__["sigma_inverse"] = ext.sigma_inverse + ext.sigma_inverse
    return copy


def _check_against_oracle(monkeypatch, ext, seen):
    rep = ext.iso
    fields = _fields(rep)
    assert fields == ext_iso_oracle(ext)
    seen.add(fields)
    if not rep.passed:
        # the copy's CY verdict is refused, when skew_extend hands it out,
        # before either symmetry route runs, and nothing is kept
        with monkeypatch.context() as m:
            m.setattr(skew, "skew_extend", lambda cert, sigma, /: ext)
            with pytest.raises(ConsistencyError) as exc:
                skew.skew_extend(ext.cert, ext.sigma).symmetry
        assert str(exc.value) == ("cohomology model does not match the dual "
                                  "of the extension")
        assert "symmetry" not in vars(ext)
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
        _check_against_oracle(monkeypatch, _doubled_inverse_twist(
            skew_extend(cert, cert.nakayama)), seen)
    assert (True, True, True, True) in seen
    # the map fails: a model product not generated, or a relation of the
    # model that the honest dual lacks
    assert (False, True, True, True) in seen
    # the map solved from the earliest independent products is singular
    assert (False, False, True, True) in seen
    # z times a letter is not the inverse-twist combination of the mixed
    # relation classes; x_i z is always their basis element e(x_i z), so the
    # left identity holds on every copy of an extension skew_extend built
    assert (True, True, True, False) in seen
    assert all(fields[2] for fields in seen)
    # the copies leave the cached extensions as they were
    for name in AS_REGULAR:
        cert = cert_of(name)
        for sigma in _twists(name):
            assert skew_extend(cert, sigma).iso.passed, name


@pytest.mark.parametrize("name", AS_REGULAR)
def test_a_cold_extension_path_builds_no_fraction(monkeypatch, name):
    # the relations of A[z; sigma] are written as integer rows and the mixed
    # relation classes are read off the honest dual's basis: once the
    # certificate is built, extending it by its Nakayama map and by the
    # identity, checking the model and reading the symmetry verdict
    # construct no Fraction
    for cache in package_caches().values():
        cache.cache_clear()
    cert = as_regular_certificate(algebra_of(name), 5)
    twists = (cert.nakayama, Matrix.identity(cert.algebra.n))
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    for sigma in twists:
        ext = skew_extend(cert, sigma)
        passed = ext.iso.passed
        ext.symmetry
    monkeypatch.undo()
    assert passed
    assert made == []
