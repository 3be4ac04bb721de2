"""The integer routes of the Calabi-Yau path against the Fraction routes
they replaced: the degree-one twists of the dual (automorphism and the
relation check), the trivial extension model, the Frobenius data and the
symmetry test, the isomorphism of the model onto the honest dual with
its mixed relation classes, and the canonical relation rows of the
extension against the span of the rows once stacked for it.

Inputs: every AS-regular corpus certificate twisted by its Nakayama map xi
and by the identity, a dense invertible twist of poly3, and the skew
polynomial rings in 3 and 4 letters for each q that the skew_cy benchmark
draws from; the relation rows also on the inputs of
_extension_inputs.
"""

from fractions import Fraction

import pytest

from helpers import (AS_REGULAR, OTHER_TWIST, algebra_of_description, cert_of,
                     class_from_pairings, ext_iso_oracle, int_twist,
                     oracle_automorphism, oracle_class_from_pairings,
                     oracle_frobenius, oracle_graded_symmetry,
                     oracle_preserves_subspace, oracle_stacked_relations,
                     oracle_trivial_extension_table, skew_ring,
                     twist_matrices)
from quadalg import (Matrix, Subspace, as_regular_certificate,
                     frobenius_structure, is_graded_symmetric,
                     preserves_subspace, skew_extend,
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
    # the model's twists: the sign on the left, and psi on the right, which
    # sums several cells into one wherever psi is not monomial
    ext = twisted_module_trivial_extension(dual, psi)
    assert ((ext.dims, ext.int_mult, ext.den)
            == oracle_trivial_extension_table(
                dual, twist_matrices(dual.epsilon(1)), twist_matrices(psi)))


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
    # the classes dual to the mixed relations z (x) sigma^{-1}(x_i) - x_i (x) z
    # among the stacked Fraction rows, solved in integers and in Fractions,
    # are the basis elements -e(x_i z) that the isomorphism check reads off
    # the honest dual
    cert, sigma = _cert_and_twist(case)
    n = cert.algebra.n
    nrel = cert.algebra.relations.dim
    ext = skew_extend(cert, sigma)
    ebd = truncated_structure(ext.algebra.dual, cert.gldim + 1)
    rows = oracle_stacked_relations(ext)
    vectors = Matrix.identity(nrel + n).num[nrel:]
    classes = ebd.int_class_from_pairings(2, rows, vectors)
    assert all(pv > 0 and all(vals.values())
               for pv, vals in classes.values())
    got = [tuple(F(classes[t][1].get(i, 0), classes[t][0]) if t in classes
                 else F(0) for t in range(ebd.dims[2])) for i in range(n)]
    expect = oracle_class_from_pairings(ebd, 2, rows, vectors)
    assert got == expect
    assert class_from_pairings(ebd, 2, rows, vectors) == expect
    words = ebd.words[2]
    assert expect == [tuple(F(-(w == i * (n + 1) + n)) for w in words)
                      for i in range(n)]


def _extension_inputs():
    """(label, certificate, twist): every AS-regular corpus certificate
    twisted by its Nakayama map xi, the identity and OTHER_TWIST, and by xi
    times 5/7; the skew rings in 3 and 4 letters for each q of the skew_cy
    benchmark, twisted by xi and the identity; and the 3-letter skew ring in
    the letters of a unipotent phi that the report grid runs, by both."""
    for name in AS_REGULAR:
        cert = cert_of(name)
        n = cert.algebra.n
        xi = cert.nakayama
        yield from ((f"{name}:xi", cert, xi),
                    (f"{name}:id", cert, Matrix.identity(n)),
                    (f"{name}:other", cert,
                     Matrix.from_rows(OTHER_TWIST[name], n)),
                    (f"{name}:5/7 xi", cert,
                     Matrix(tuple(tuple(5 * v for v in row) for row in xi.num),
                            7 * xi.den, n)))
    skew = [(f"skew{n}:{q}", skew_ring(n, q)) for n in (3, 4) for q in SKEW_Q]
    skew.append(("skew3_phi", algebra_of_description({
        "generators": ["a", "b", "c"],
        "relations": [[{"coeff": str(v), "word": list(w)} for w, v in row]
                      for row in SKEW3_PHI]})))
    for label, alg in skew:
        cert = as_regular_certificate(alg, 5)
        yield (f"{label}:xi", cert, cert.nakayama)
        yield (f"{label}:id", cert, Matrix.identity(alg.n))


# the 3-letter skew ring x_i x_j = -2/3 x_j x_i (i < j) in the letters
# (a, b, c) = phi (x_1, x_2, x_3), phi = ((1, 1, 0), (0, 1, 1), (0, 0, 1)),
# as the report grid writes it
SKEW3_PHI = (
    (("ab", 3), ("ac", -3), ("ba", 2), ("bb", -5), ("bc", 5), ("ca", -2),
     ("cb", 5), ("cc", -5)),
    (("ac", 3), ("bc", -3), ("ca", 2), ("cb", -2), ("cc", 5)),
    (("bc", 3), ("cb", 2), ("cc", -5)),
)


def test_the_extension_relations_are_the_stacked_rows_canonical_form():
    # skew_extend writes the canonical rows of A[z; sigma] directly; they
    # are those of the span of the Fraction rows it stacked before, the
    # base relations and one mixed relation per letter
    seen = 0
    for label, cert, sigma in _extension_inputs():
        ext = skew_extend(cert, sigma)
        m = cert.algebra.n + 1
        assert ext.algebra.relations == Subspace.from_spanning(
            oracle_stacked_relations(ext), m * m), label
        seen += 1
    assert seen == 4 * len(AS_REGULAR) + 2 * (2 * len(SKEW_Q) + 1)


def test_a_non_symmetric_model_gives_the_oracle_witness():
    # skew3 with q = 2/3 twisted by the identity: the model is no
    # Calabi-Yau algebra, so a pairing entry fails and is named
    cert, sigma = _cert_and_twist(("skew3:2/3", "id"))
    gamma = skew_extend(cert, sigma).model
    ok, witness = is_graded_symmetric(gamma)
    assert not ok and witness is not None
    assert oracle_graded_symmetry(gamma) == (False, witness, False)
