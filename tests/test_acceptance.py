"""Acceptance suite: nine exact criteria, one test function each.

Run with -v to get one pass/fail line per criterion.  Everything is exact
rational arithmetic (zero tolerance) at the default certificate bound 5,
and each criterion finishes in seconds.
"""

from fractions import Fraction

from helpers import (AS_REGULAR, CORPUS, DIM2, FractionMatrix,
                     block_nakayama_oracle, cert_of,
                     cdg_underlying_trivial_extension, column, dense_inverse,
                     description_of, dual_trivial_extension, fraction_matrix,
                     identity_maps,
                     model_map_multiplicative, random_member, random_nu_theta,
                     scalar_twist, seeded, structure_equal, trivial_extension,
                     twist_matrices, twist_pool, twisted_cyclic_space,
                     word_terms)
from quadalg import (Matrix, PBWDeformation, cy_check_with,
                     cy_criterion_deformed, cy_equivalence_dim2,
                     derivation_quotient, dim2_matrix_form, dual_cdga,
                     frobenius_structure, graded_dims, is_graded_symmetric,
                     is_twisted_superpotential, nakayama_shift,
                     numeric_koszul_certificate,
                     regularity_data, skew_extend, symmetrize, tau,
                     verify_ext_algebra_isomorphism,
                     verify_extended_presentation,
                     verify_superpotential_presentation)
from quadalg.io import description_deformation

F = Fraction

EXPECTED_NAKAYAMA = {
    "kxy": ((F(1), F(0)), (F(0), F(1))),
    "quantum_plane_q2": ((F(2), F(0)), (F(0), F(1, 2))),
    "quantum_plane_q3": ((F(3), F(0)), (F(0), F(1, 3))),
    "quantum_plane_qm1": ((F(-1), F(0)), (F(0), F(-1))),
    "jordan_plane": ((F(1), F(-2)), (F(0), F(1))),
}


def test_criterion_1_nakayama_two_route_agreement():
    for name in DIM2:
        cert = cert_of(name)
        d = cert.gldim
        # route one: sign-adjusted transposed inverse of the dual algebra's
        # degree-one Nakayama block
        phi1 = cert.frobenius.nakayama[1]
        route_a = dense_inverse(phi1).transpose().scale(F((-1) ** (d + 1)))
        # route two: -M^t M^{-1} from the relation coefficient matrix
        m = fraction_matrix(dim2_matrix_form(cert)[0])
        route_b = (m.transpose() @ dense_inverse(m)).scale(F(-1))
        assert route_a == route_b, name
        assert route_a == fraction_matrix(cert.nakayama), name
        if name in EXPECTED_NAKAYAMA:
            assert route_a == FractionMatrix.from_rows(
                EXPECTED_NAKAYAMA[name], 2), name
    print("criterion 1 (two-route Nakayama agreement, d=2): PASS")


def test_criterion_2_nakayama_twisted_extension_is_cy():
    for name in AS_REGULAR:
        cert = cert_of(name)
        rep = cy_check_with(cert, cert.nakayama)
        assert rep.is_CY, name
        assert rep.dimension == cert.gldim + 1, name
    # skew-built dimension-3 bases, extended once more
    for name in ("kxy", "quantum_plane_q2"):
        cert = cert_of(name)
        ext = skew_extend(cert, cert.nakayama)
        cert_b = regularity_data(ext.algebra, 3, 4)
        rep = cy_check_with(cert_b, cert_b.nakayama)
        assert rep.is_CY, name
    # wrong twist must fail with a concrete witness pairing entry
    rep = cy_check_with(cert_of("quantum_plane_q2"), Matrix.identity(2))
    assert not rep.is_CY
    assert rep.witness == (1, 0, 2)
    print("criterion 2 (CY verdicts for Nakayama-twisted extensions): PASS")


def test_criterion_3_ext_algebra_oracle_equivalence():
    for name in AS_REGULAR:
        cert = cert_of(name)
        n = cert.algebra.n
        for sigma in (cert.nakayama, Matrix.identity(n)):
            ext = skew_extend(cert, sigma)
            rep = verify_ext_algebra_isomorphism(ext)
            assert rep.generated_ok, name
            # generated_ok is read off the degree-1 products; every product
            # of two basis elements must agree with it
            assert model_map_multiplicative(
                ext.model, ext.honest_dual) == rep.generated_ok, name
            assert rep.bijective, name
            # the two mixed-relation product identities
            assert rep.left_identity_ok, name
            assert rep.right_identity_ok, name
    print("criterion 3 (extension cohomology model vs honest dual): PASS")


def test_criterion_4_superpotential_presentations():
    for name in AS_REGULAR:
        cert = cert_of(name)
        data = cert.superpotential
        dq = derivation_quotient(data.w, cert.gldim - 2, cert.algebra.names)
        assert dq.relations == cert.algebra.relations, name
        assert verify_superpotential_presentation(cert).passed, name
        assert verify_extended_presentation(cert), name
    data = cert_of("kxy").superpotential
    hat = symmetrize(data.w, 2, data.twist)
    assert word_terms(hat, 3, 3) == {
        (0, 1, 2): F(1), (0, 2, 1): F(-1), (1, 0, 2): F(-1),
        (1, 2, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(-1)}
    print("criterion 4 (derivation-quotient presentations): PASS")


def test_criterion_5_random_twisted_superpotentials_and_rotations():
    rng = seeded(20260817)
    pool = twist_pool()
    done = 0
    tries = 0
    while done < 100:
        tries += 1
        assert tries < 500, "random twisted superpotential pool exhausted"
        n, sigma = pool[rng.randrange(len(pool))]
        d = rng.choice((2, 3, 4))
        space = twisted_cyclic_space(n, d, sigma)
        if space.dim == 0:
            continue
        w = {idx: c for idx, c in random_member(space, rng).items() if c}
        if not w:
            continue
        assert is_twisted_superpotential(w, d, sigma)
        hat = symmetrize(w, d, sigma)
        assert is_twisted_superpotential(hat, d + 1, Matrix.identity(n + 1))
        done += 1
    # full rotation has order d on words
    for d in range(2, 7):
        for idx in range(2 ** d):
            out = t = {idx: F(1)}
            for _ in range(d):
                out = tau(out, d, d - 1, 2)
            assert out == t, (d, idx)
    print("criterion 5 (100 random symmetrizations + rotation order): PASS")


def test_criterion_6_random_trivial_extensions():
    rng = seeded(1105)
    duals = [cert_of(name).dual_fd for name in AS_REGULAR]
    for _ in range(50):
        alg_fd = duals[rng.randrange(len(duals))]
        k = rng.randrange(4)
        c = F(rng.choice((1, -1, 2, 3, -2)), rng.choice((1, 2)))
        n_ext = alg_fd.length + rng.choice((1, 2))
        sigma = scalar_twist(alg_fd, k, c)
        gamma = trivial_extension(alg_fd, sigma, n_ext)
        fs = frobenius_structure(gamma)
        assert twist_matrices(fs.nakayama) == block_nakayama_oracle(
            alg_fd, sigma, n_ext)
    # parity twist at the top makes the extension graded symmetric
    for alg_fd in duals:
        n_ext = alg_fd.length + 1
        sigma = scalar_twist(alg_fd, n_ext - 1, 1)
        ok, _ = is_graded_symmetric(trivial_extension(alg_fd, sigma, n_ext))
        assert ok
    print("criterion 6 (50 random trivial extensions, Nakayama oracle): PASS")


def test_criterion_7_three_way_equivalence():
    rng = seeded(31415)
    for name in DIM2:
        cert = cert_of(name)
        for _ in range(50):
            rep = cy_equivalence_dim2(
                PBWDeformation(cert, *random_nu_theta(rng, cert)))
            assert rep.cond_i == rep.cond_ii == rep.cond_iii, name
            assert rep.equivalent, name
    weyl = _corpus_deformation("quantum_weyl", 2)
    rep = cy_equivalence_dim2(weyl)
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (True, True, True)
    noncy = _corpus_deformation("deformed_qp_noncy", 2)
    rep = cy_equivalence_dim2(noncy)
    assert (rep.cond_i, rep.cond_ii, rep.cond_iii) == (False, False, False)
    lam = nakayama_shift(noncy.cert, dual_cdga(noncy))
    assert column(lam) == (F(0), F(-1, 2))
    m, _ = dim2_matrix_form(noncy.cert)
    left = column(m.transpose() @ lam)
    right = column(-(m @ lam))
    assert left == (F(1), F(0))
    assert right == (F(1, 2), F(0))
    assert left != right
    print("criterion 7 (250 random three-way equivalences, d=2): PASS")


def test_criterion_8_deformations_of_commutative_plane():
    rng = seeded(4242)
    cert = cert_of("kxy")
    for _ in range(50):
        defm = PBWDeformation(cert, *random_nu_theta(rng, cert))
        rep = cy_criterion_deformed(defm, dual_cdga(defm))
        assert rep.is_CY
        assert rep.converse_definitive
    # xy - yx deformed by nu = x: the affine Nakayama map fixes x and
    # shifts y.  The differential route pins the shift sign: applying the
    # dual differential to the degree-one coelements gives (0, -1), the
    # same lambda convention every other criterion uses, so zeta(y) = y - 1.
    defm = PBWDeformation(cert, (dict(cert.algebra.relations.rows[0]),),
                          ({0: F(1)},), (F(0),))
    c = dual_cdga(defm)
    assert cert.nakayama == Matrix.identity(2)
    shift = column(nakayama_shift(cert, c))
    assert shift == (F(0), F(-1))
    assert shift != (F(0), F(1))
    assert cy_criterion_deformed(defm, c).is_CY
    print("criterion 8 (random deformations of the commutative plane): PASS")


def test_criterion_9_hilbert_koszul_sanity():
    cert = cert_of("quantum_plane_q2")
    ext = skew_extend(cert, cert.nakayama)
    assert graded_dims(ext.algebra, 4) == (1, 3, 6, 10, 15)
    for name in CORPUS:
        alg = description_of(name).algebra
        assert numeric_koszul_certificate(alg, 5).passed, name
    for name in AS_REGULAR:
        alg_fd = cert_of(name).dual_fd
        d = alg_fd.length
        signed = cdg_underlying_trivial_extension(alg_fd)
        twisted = dual_trivial_extension(alg_fd,
                                         twist_matrices(alg_fd.epsilon(d)),
                                         identity_maps(alg_fd), d + 1)
        assert structure_equal(signed, twisted), name
    print("criterion 9 (Hilbert dims, Koszul certificates, sign rule): PASS")


def _corpus_deformation(name, gldim, bound=5):
    desc = description_of(name)
    cert = regularity_data(desc.algebra, gldim, bound)
    return description_deformation(desc, cert)
