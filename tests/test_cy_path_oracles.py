"""The integer routes of the Calabi-Yau path against the Fraction routes
they replaced: the degree-one twists of the dual (automorphism and the
relation check), the trivial extension model, the Frobenius data and the
symmetry test, and the isomorphism of the model onto the honest dual with
its mixed relation classes.

Inputs: every AS-regular corpus certificate twisted by its Nakayama map xi
and by the identity, a dense invertible twist of poly3, and the skew
polynomial rings in 3 and 4 letters for each q that the skew_cy benchmark
draws from.
"""

from fractions import Fraction

import pytest

from helpers import (AS_REGULAR, cert_of, class_from_pairings, ext_iso_oracle,
                     int_twist, oracle_automorphism,
                     oracle_class_from_pairings,
                     oracle_frobenius, oracle_graded_symmetry,
                     oracle_preserves_subspace, oracle_trivial_extension_table,
                     skew_ring, twist_matrices)
from quadalg import (Matrix, as_regular_certificate, frobenius_structure,
                     is_graded_symmetric, preserves_subspace, skew_extend,
                     truncated_structure, twisted_module_trivial_extension,
                     verify_ext_algebra_isomorphism)

F = Fraction

# the q of the skew polynomial rings of the skew_cy benchmark workload
SKEW_Q = (F(2, 3), F(-2, 3), F(3, 2), F(-3, 2))

CASES = ([(name, "xi") for name in AS_REGULAR]
         + [(name, "id") for name in AS_REGULAR]
         + [("poly3", "dense")]
         + [(f"skew{n}:{q}", twist) for n in (3, 4) for q in SKEW_Q
            for twist in ("xi", "id")])

# invertible (determinant 5/3), with entries of three denominators; poly3
# is commutative, so every invertible map preserves its relations
DENSE = Matrix.from_rows([[2, F(1, 2), 0], [0, 1, F(-2, 3)], [1, 0, 1]], 3)


def _cert_and_twist(case):
    name, twist = case
    if name.startswith("skew"):
        n, q = name[4:].split(":")
        cert = as_regular_certificate(skew_ring(int(n), F(q)), 5)
    else:
        cert = cert_of(name)
    if twist == "xi":
        sigma = cert.nakayama
    elif twist == "id":
        sigma = Matrix.identity(cert.algebra.n)
    else:
        sigma = DENSE
    return cert, sigma


def _ids(case):
    return f"{case[0]}-{case[1]}"


def test_the_inputs_hold_a_non_diagonal_twist():
    # jordan_plane's xi is the one non-diagonal corpus twist
    _, sigma = _cert_and_twist(("jordan_plane", "xi"))
    assert sigma == Matrix.from_rows([[1, -2], [0, 1]], 2)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_relation_check_and_automorphism_match_the_fraction_route(case):
    cert, sigma = _cert_and_twist(case)
    n = cert.algebra.n
    shear = Matrix.from_rows([[1 if j in (i, i + 1) else 0 for j in range(n)]
                              for i in range(n)], n)
    for phi in (sigma, shear):
        assert (preserves_subspace(phi, cert.algebra.relations)
                == oracle_preserves_subspace(phi, cert.algebra.relations))
    dual = cert.dual_fd
    pinv = skew_extend(cert, sigma).sigma_inverse
    # the twist of the model, and the transpose of sigma, which preserves
    # the dual relations too
    for phi in (pinv.transpose(), sigma.transpose()):
        twist = dual.automorphism(phi)
        assert twist == int_twist(oracle_automorphism(dual, phi))
        assert twist_matrices(twist) == oracle_automorphism(dual, phi)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_trivial_extension_matches_the_cell_loop(case):
    cert, sigma = _cert_and_twist(case)
    dual = cert.dual_fd
    psi = dual.automorphism(skew_extend(cert, sigma).sigma_inverse
                            .transpose())
    # the model's twists, and psi on both sides, which sums several cells
    # into one wherever psi is not monomial
    for left, right in ((dual.epsilon(1), psi), (psi, psi)):
        ext = twisted_module_trivial_extension(dual, left, right)
        assert ((ext.dims, ext.int_mult, ext.den)
                == oracle_trivial_extension_table(
                    dual, twist_matrices(left), twist_matrices(right)))


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_frobenius_data_and_symmetry_match_the_fraction_comparison(case):
    cert, sigma = _cert_and_twist(case)
    ext = skew_extend(cert, sigma)
    for alg in (cert.dual_fd, ext.model, ext.honest_dual):
        pairings, nakayama = map(int_twist, oracle_frobenius(alg))
        assert frobenius_structure(alg) == pairings
        assert alg.nakayama == nakayama
        ok, witness, ok_nakayama = oracle_graded_symmetry(alg)
        assert ok_nakayama == ok
        assert is_graded_symmetric(alg) == (ok, witness)


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_iso_report_matches_the_dense_route(case):
    cert, sigma = _cert_and_twist(case)
    ext = skew_extend(cert, sigma)
    rep = verify_ext_algebra_isomorphism(ext)
    assert ((rep.generated_ok, rep.bijective, rep.left_identity_ok,
             rep.right_identity_ok) == ext_iso_oracle(ext))
    assert rep.passed


@pytest.mark.parametrize("case", CASES, ids=_ids)
def test_mixed_relation_classes_match_the_fraction_solve(case):
    # the integer classes that the isomorphism check compares with the
    # (1, 1) cells, over their pivot entries, are the Fraction classes
    cert, sigma = _cert_and_twist(case)
    n = cert.algebra.n
    nrel = cert.algebra.relations.dim
    ext = skew_extend(cert, sigma)
    ebd = truncated_structure(ext.algebra.dual, cert.gldim + 1)
    rows = ext.stacked_relations
    vectors = Matrix.identity(nrel + n).num[nrel:]
    classes = ebd.int_class_from_pairings(2, rows, vectors)
    assert all(pv > 0 and all(vals.values())
               for pv, vals in classes.values())
    got = [tuple(F(classes[t][1].get(i, 0), classes[t][0]) if t in classes
                 else F(0) for t in range(ebd.dims[2])) for i in range(n)]
    expect = oracle_class_from_pairings(ebd, 2, rows, vectors)
    assert got == expect
    assert class_from_pairings(ebd, 2, rows, vectors) == expect


def test_a_non_symmetric_model_gives_the_oracle_witness():
    # skew3 with q = 2/3 twisted by the identity: the model is no
    # Calabi-Yau algebra, so a pairing entry fails and is named
    cert, sigma = _cert_and_twist(("skew3:2/3", "id"))
    gamma = skew_extend(cert, sigma).model
    ok, witness = is_graded_symmetric(gamma)
    assert not ok and witness is not None
    assert oracle_graded_symmetry(gamma) == (False, witness, False)
