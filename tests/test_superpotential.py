"""Superpotential extraction, twisted-cyclic checks, derivation quotients."""

from fractions import Fraction
from random import Random

from helpers import (AS_REGULAR, algebra_of, cert_of, oracle_coupling,
                     oracle_derivation_relations,
                     oracle_is_twisted_superpotential, oracle_superpotential,
                     oracle_symmetrize, potential_deformation, random_member,
                     seeded, skew_ring, twisted_cyclic_space, word_terms,
                     word_vector)
from quadalg import (Matrix, NotRegular, QuadraticAlgebra, Subspace,
                     as_regular_certificate, derivation_quotient,
                     is_twisted_superpotential, symmetrize)

F = Fraction


def test_superpotential_dim2_goldens():
    w = cert_of("kxy").superpotential
    assert word_terms(w, 2, 2) == {(0, 1): F(1), (1, 0): F(-1)}
    w = cert_of("quantum_plane_q2").superpotential
    assert word_terms(w, 2, 2) == {(0, 1): F(1), (1, 0): F(-2)}
    w = cert_of("jordan_plane").superpotential
    assert word_terms(w, 2, 2) == {(0, 0): F(1), (0, 1): F(-1), (1, 0): F(1)}


def test_superpotential_twist_is_nakayama():
    for name in AS_REGULAR:
        cert = cert_of(name)
        # the contraction twist, by the Fraction route
        _, twist = oracle_superpotential(cert)
        assert twist == cert.nakayama, name
        assert is_twisted_superpotential(cert.superpotential, cert.gldim,
                                         cert.nakayama), name


def test_twist_defect_nonzero_for_wrong_twist():
    w = cert_of("quantum_plane_q2").superpotential
    ident = Matrix.identity(2)
    assert not is_twisted_superpotential(w, 2, ident)


def test_zero_entries_of_w_are_ignored():
    # a zero entry is no entry: the answer is that of w without it, under
    # the twist that makes w cyclic and under one that does not.  w is
    # x y - 2 y x, so the words x x and y y, indices 0 and 3, are free
    cert = cert_of("quantum_plane_q2")
    ident = Matrix.identity(2)
    padded = {**cert.superpotential, 0: F(0), 3: F(0)}
    assert is_twisted_superpotential(padded, 2, cert.nakayama)
    assert not is_twisted_superpotential(padded, 2, ident)


def test_symmetrize_goldens():
    # hat(w) spreads w over all rotations with alternating sign and twist
    cert = cert_of("kxy")
    hat = symmetrize(cert.superpotential, 2, cert.nakayama)
    assert word_terms(hat, 3, 3) == {
        (0, 1, 2): F(1), (0, 2, 1): F(-1), (1, 0, 2): F(-1),
        (1, 2, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(-1)}
    cert = cert_of("quantum_plane_q2")
    hat = symmetrize(cert.superpotential, 2, cert.nakayama)
    assert word_terms(hat, 3, 3) == {
        (0, 1, 2): F(1), (0, 2, 1): F(-2), (1, 0, 2): F(-2),
        (1, 2, 0): F(1), (2, 0, 1): F(1), (2, 1, 0): F(-2)}


def test_symmetrized_is_plain_cyclic():
    # raising by one letter removes the twist: the output is cyclic for the
    # identity on the enlarged alphabet
    for name in ("kxy", "jordan_plane", "quantum_plane_q3"):
        cert = cert_of(name)
        hat = symmetrize(cert.superpotential, 2, cert.nakayama)
        # every word of the output carries the new letter 2 exactly once
        assert all(word.count(2) == 1 for word in word_terms(hat, 3, 3)), name
        assert is_twisted_superpotential(hat, 3, Matrix.identity(3)), name


def test_symmetrize_non_cyclic_input_stays_non_cyclic():
    # symmetrize tests nothing: a non-cyclic input passes through, and its
    # raise is visibly non-cyclic too
    bad = word_vector(2, [((0, 0), F(1)), ((0, 1), F(1))])
    assert not is_twisted_superpotential(bad, 2, Matrix.identity(2))
    out = symmetrize(bad, 2, Matrix.identity(2))
    assert not is_twisted_superpotential(out, 3, Matrix.identity(3))


def test_derivation_quotient_roundtrip():
    for name in AS_REGULAR:
        cert = cert_of(name)
        dq = derivation_quotient(cert.superpotential, cert.gldim - 2,
                                 cert.algebra.names)
        assert dq.relations == cert.algebra.relations, name


def test_derivation_quotient_dim3():
    w = cert_of("poly3").superpotential
    dq = derivation_quotient(w, 1, ("x", "y", "z"))
    assert dq.relations == algebra_of("poly3").relations


def test_presentation_reports():
    for name in AS_REGULAR:
        cert = cert_of(name)
        rep = cert.presentation
        assert rep.passed, name
        assert rep.coupling_invertible
        # the certificate keeps the one report that commands read
        assert cert.presentation is rep, name


def test_certificate_keeps_the_symmetrized_superpotential_and_its_quotient():
    for name in AS_REGULAR:
        cert = cert_of(name)
        w = cert.superpotential
        hat = cert.symmetrized
        assert hat == symmetrize(w, cert.gldim, cert.nakayama), name
        assert is_twisted_superpotential(hat, cert.gldim + 1,
                                         Matrix.identity(cert.algebra.n + 1))
        assert cert.symmetrized is hat, name
        dq = derivation_quotient(w, cert.gldim - 2, cert.algebra.names)
        assert cert.quotient == dq and cert.quotient is cert.quotient, name


def test_scaled_superpotential_same_quotient():
    cert = cert_of("quantum_plane_q2")
    for s in (F(3), F(-1, 2)):
        scaled = {idx: s * c for idx, c in cert.superpotential.items()}
        dq = derivation_quotient(scaled, 0, ("x", "y"))
        assert dq.relations == algebra_of("quantum_plane_q2").relations
        assert is_twisted_superpotential(scaled, 2, cert.nakayama)


def test_twisted_cyclic_space_membership():
    # some (twist, degree) combinations give the zero space; skip those but
    # insist a healthy number of nonzero samples got checked
    rng = Random(7)
    checked = 0
    for name in ("kxy", "quantum_plane_q2", "jordan_plane"):
        xi = cert_of(name).nakayama
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
        space = twisted_cyclic_space(cert.algebra.n, cert.gldim,
                                     cert.nakayama)
        assert space.contains(cert.superpotential), name


def _certified_bases():
    """(label, certificate) of every AS-regular corpus base, of skew3 to
    skew5 at a seeded q, and of the certified D(w) of seeded
    potential_deformation draws."""
    rng = seeded(38)
    out = [(name, cert_of(name)) for name in AS_REGULAR]
    for n in (3, 4, 5):
        q = F(rng.choice((-3, -2, -1, 2, 3, 5)), rng.choice((1, 2, 3, 7)))
        out.append((f"skew{n}", as_regular_certificate(skew_ring(n, q),
                                                       n + 1)))
    for k in range(12):
        names, rows, _, _ = potential_deformation(rng)
        space = Subspace.from_spanning(rows, 9)
        if space.dim != 3:
            continue
        try:
            cert = as_regular_certificate(QuadraticAlgebra(names, space), 5)
        except NotRegular:
            continue
        out.append((f"potential{k}", cert))
    return out


def test_the_integer_route_matches_the_fraction_route():
    # w, its twist, the symmetrization, D(w) and the coupling matrix, each
    # against the Fraction route the certificate took before it computed
    # in integers
    bases = _certified_bases()
    assert sum(label.startswith("potential") for label, _ in bases) >= 8
    for label, cert in bases:
        d, n = cert.gldim, cert.algebra.n
        w, twist = oracle_superpotential(cert)
        assert dict(cert.superpotential) == w, label
        assert cert.nakayama == twist, label
        assert all(type(c) is F for c in cert.superpotential.values()), label
        assert oracle_is_twisted_superpotential(w, d, twist), label
        hat = oracle_symmetrize(w, d, twist)
        assert dict(cert.symmetrized) == hat, label
        assert all(type(c) is F for c in cert.symmetrized.values()), label
        assert oracle_is_twisted_superpotential(hat, d + 1,
                                                Matrix.identity(n + 1))
        assert (cert.quotient.relations
                == oracle_derivation_relations(w, d - 2, n)
                == cert.algebra.relations), label
        coupling = oracle_coupling(cert, w)
        assert coupling.is_invertible(), label
        assert cert.presentation.coupling_invertible, label


def test_symmetrize_and_the_cyclicity_test_match_the_fraction_route():
    # seeded word vectors over several denominators, each under a seeded
    # twist, its own twist when it has one, and the identity: the integer
    # sums give the Fraction route's values and verdicts, cyclic or not
    rng = seeded(3801)
    dens = (1, 2, 3, 5)
    verdicts = {True: 0, False: 0}
    for _ in range(60):
        n, d = rng.choice(((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)))
        w = {idx: F(rng.randint(-4, 4), rng.choice(dens))
             for idx in rng.sample(range(n ** d), rng.randint(0, n ** d))}
        sigma = Matrix.from_rows(
            [[F(rng.choice((0, 0, 1, -1, 2)), rng.choice(dens))
              for _ in range(n)] for _ in range(n)], n)
        space = twisted_cyclic_space(n, d, sigma)
        cyclic = random_member(space, rng)
        for vec in (w, cyclic or {}):
            for twist in (sigma, Matrix.identity(n)):
                got = is_twisted_superpotential(vec, d, twist)
                assert got == oracle_is_twisted_superpotential(vec, d, twist)
                verdicts[got] += 1
                assert symmetrize(vec, d, twist) == oracle_symmetrize(
                    vec, d, twist)
    assert min(verdicts.values()) >= 20
