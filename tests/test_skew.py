"""One-letter twisted extensions A[z;sigma] and their Calabi-Yau verdicts."""

from fractions import Fraction

from helpers import AS_REGULAR, DIM2, algebra_of, cert_of
from quadalg import (Matrix, Tensor, cy_check_with,
                     ext_algebra_of_skew, fresh_letter, graded_dims,
                     nakayama_of_algebra, regularity_data, skew_extend,
                     verify_ext_algebra_isomorphism,
                     verify_extended_presentation)

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
    inv = xi.inverse()
    n = alg.n
    mixed = ext.stacked_relations[alg.relations.dim:]
    assert len(mixed) == n
    for i, row in enumerate(mixed):
        col = inv.col(i)
        expect = Tensor.make(2, n + 1,
                             [((n, j), col[j]) for j in range(n)]
                             + [((i, n), F(-1))])
        assert row == expect.to_sparse_map(), i


def test_identity_twist_gives_commuting_letter():
    ext = skew_extend(algebra_of("kxy"), Matrix.identity(2))
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)
    want = Tensor.make(2, 3, [((2, 0), F(1)), ((0, 2), F(-1))])
    # the first mixed relation follows the one base relation
    assert ext.stacked_relations[1] == want.to_sparse_map()


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
