"""Superpotential extraction, twisted-cyclic checks, derivation quotients."""

from fractions import Fraction
from random import Random

from helpers import (AS_REGULAR, algebra_of, cert_of, random_member,
                     twisted_cyclic_space, word_terms, word_vector)
from quadalg import (Matrix, derivation_quotient,
                     extract_superpotential, is_twisted_superpotential,
                     nakayama_of_algebra, symmetrize,
                     verify_superpotential_presentation)

F = Fraction


def test_superpotential_dim2_goldens():
    w = extract_superpotential(cert_of("kxy")).w
    assert word_terms(w, 2, 2) == {(0, 1): F(1), (1, 0): F(-1)}
    w = extract_superpotential(cert_of("quantum_plane_q2")).w
    assert word_terms(w, 2, 2) == {(0, 1): F(1), (1, 0): F(-2)}
    w = extract_superpotential(cert_of("jordan_plane")).w
    assert word_terms(w, 2, 2) == {(0, 0): F(1), (0, 1): F(-1), (1, 0): F(1)}


def test_superpotential_twist_is_nakayama():
    for name in AS_REGULAR:
        cert = cert_of(name)
        data = extract_superpotential(cert)
        assert data.twist == nakayama_of_algebra(cert), name
        assert is_twisted_superpotential(data.w, cert.gldim, data.twist), name


def test_twist_defect_nonzero_for_wrong_twist():
    data = extract_superpotential(cert_of("quantum_plane_q2"))
    ident = Matrix.identity(2)
    assert not is_twisted_superpotential(data.w, 2, ident)


def test_zero_entries_of_w_are_ignored():
    # a zero entry is no entry: the answer is that of w without it, under
    # the twist that makes w cyclic and under one that does not.  w is
    # x y - 2 y x, so the words x x and y y, indices 0 and 3, are free
    data = extract_superpotential(cert_of("quantum_plane_q2"))
    ident = Matrix.identity(2)
    padded = {**data.w, 0: F(0), 3: F(0)}
    assert is_twisted_superpotential(padded, 2, data.twist)
    assert not is_twisted_superpotential(padded, 2, ident)


def test_symmetrize_goldens():
    # hat(w) spreads w over all rotations with alternating sign and twist
    data = extract_superpotential(cert_of("kxy"))
    hat = symmetrize(data.w, 2, data.twist)
    assert word_terms(hat, 3, 3) == {
        (0, 1, 2): F(1), (0, 2, 1): F(-1), (1, 0, 2): F(-1),
        (1, 2, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(-1)}
    data = extract_superpotential(cert_of("quantum_plane_q2"))
    hat = symmetrize(data.w, 2, data.twist)
    assert word_terms(hat, 3, 3) == {
        (0, 1, 2): F(1), (0, 2, 1): F(-2), (1, 0, 2): F(-2),
        (1, 2, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(-2)}


def test_symmetrized_is_plain_cyclic():
    # raising by one letter removes the twist: the output is cyclic for the
    # identity on the enlarged alphabet
    for name in ("kxy", "jordan_plane", "quantum_plane_q3"):
        data = extract_superpotential(cert_of(name))
        hat = symmetrize(data.w, 2, data.twist)
        # every word of the output carries the new letter 2 exactly once
        assert all(word.count(2) == 1 for word in word_terms(hat, 3, 3)), name
        assert is_twisted_superpotential(hat, 3, Matrix.identity(3)), name


def test_symmetrize_non_cyclic_input_stays_non_cyclic():
    # the consistency check only fires for cyclic inputs; a non-cyclic one
    # passes through and its raise is visibly non-cyclic too
    bad = word_vector(2, [((0, 0), F(1)), ((0, 1), F(1))])
    assert not is_twisted_superpotential(bad, 2, Matrix.identity(2))
    out = symmetrize(bad, 2, Matrix.identity(2))
    assert not is_twisted_superpotential(out, 3, Matrix.identity(3))


def test_derivation_quotient_roundtrip():
    for name in AS_REGULAR:
        cert = cert_of(name)
        data = extract_superpotential(cert)
        dq = derivation_quotient(data.w, cert.gldim - 2, cert.algebra.names)
        assert dq.relations == cert.algebra.relations, name


def test_derivation_quotient_dim3():
    w = extract_superpotential(cert_of("poly3")).w
    dq = derivation_quotient(w, 1, ("x", "y", "z"))
    assert dq.relations == algebra_of("poly3").relations


def test_presentation_reports():
    for name in AS_REGULAR:
        cert = cert_of(name)
        rep = verify_superpotential_presentation(cert,
                                                 extract_superpotential(cert))
        assert rep.passed, name
        assert rep.coupling_invertible


def test_scaled_superpotential_same_quotient():
    data = extract_superpotential(cert_of("quantum_plane_q2"))
    for s in (F(3), F(-1, 2)):
        scaled = {idx: s * c for idx, c in data.w.items()}
        dq = derivation_quotient(scaled, 0, ("x", "y"))
        assert dq.relations == algebra_of("quantum_plane_q2").relations
        assert is_twisted_superpotential(scaled, 2, data.twist)


def test_twisted_cyclic_space_membership():
    # some (twist, degree) combinations give the zero space; skip those but
    # insist a healthy number of nonzero samples got checked
    rng = Random(7)
    checked = 0
    for name in ("kxy", "quantum_plane_q2", "jordan_plane"):
        xi = nakayama_of_algebra(cert_of(name))
        for d in (2, 3, 4):
            space = twisted_cyclic_space(2, d, xi)
            if space.dim == 0:
                continue
            for _ in range(3):
                w = {idx: c for idx, c in random_member(space, rng).items() if c}
                if not w:
                    continue
                assert is_twisted_superpotential(w, d, xi), (name, d)
                checked += 1
    assert checked >= 12


def test_twisted_cyclic_space_contains_extracted():
    for name in AS_REGULAR:
        cert = cert_of(name)
        data = extract_superpotential(cert)
        space = twisted_cyclic_space(cert.algebra.n, cert.gldim, data.twist)
        assert space.contains(data.w), name
