"""Bounded regularity certificates and Nakayama extraction."""

from fractions import Fraction
import gc
from itertools import combinations, product
from math import prod
import weakref

import pytest

from helpers import (AS_REGULAR, algebra_of, cache_sizes, cert_of,
                     dense_inverse, fraction_matrix, oracle_slotwise,
                     oracle_superpotential, quadratic_algebra, residue,
                     seeded)
from quadalg import (Matrix, NotRegular, QuadraticAlgebra,
                     RegularityCertificate, Subspace, as_regular_certificate,
                     dim2_matrix_form, numeric_koszul_certificate, regular,
                     regularity_data, truncated_structure)
from quadalg.linalg import ConsistencyError, LinAlgError
from quadalg.quadratic import koszul_numerics

F = Fraction

GLDIMS = {"kxy": 2, "quantum_plane_q2": 2, "quantum_plane_q3": 2,
          "quantum_plane_qm1": 2, "jordan_plane": 2,
          "poly3": 3, "quantum3": 3}

# frozen Nakayama matrices (column convention: column j = image of letter j)
NAKAYAMA = {
    "kxy": ((1, 0), (0, 1)),
    "quantum_plane_q2": ((2, 0), (0, F(1, 2))),
    "quantum_plane_q3": ((3, 0), (0, F(1, 3))),
    "quantum_plane_qm1": ((-1, 0), (0, -1)),
    "jordan_plane": ((1, -2), (0, 1)),
    "poly3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "quantum3": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
}

# frozen single-relation coefficient matrices, w = sum M[a][b] x_a x_b
RELATION_M = {
    "kxy": ((0, 1), (-1, 0)),
    "quantum_plane_q2": ((0, 1), (-2, 0)),
    "jordan_plane": ((1, -1), (1, 0)),
}


def _mat(rows):
    return Matrix.from_rows(tuple(tuple(F(v) for v in r) for r in rows),
                            len(rows[0]))


def test_certificates_and_gldims():
    for name, d in GLDIMS.items():
        cert = cert_of(name)
        assert cert.gldim == d, name
        assert cert.koszul.dual_dims[d] == 1
        assert all(v == 0 for v in cert.koszul.dual_dims[d + 1:])
        kos = numeric_koszul_certificate(cert.algebra, cert.koszul.bound)
        assert kos.passed and kos == cert.koszul


def test_dual_dims_shapes():
    assert cert_of("kxy").koszul.dual_dims == (1, 2, 1, 0, 0, 0)
    assert cert_of("poly3").koszul.dual_dims == (1, 3, 3, 1, 0, 0)
    assert cert_of("quantum3").koszul.dual_dims == (1, 3, 3, 1, 0, 0)


def test_not_regular_single_monomial_xx():
    alg = quadratic_algebra(("x", "y"), [[((0, 0), F(1))]])
    with pytest.raises(NotRegular) as exc:
        as_regular_certificate(alg, 5)
    # dual dims stay (1,2,1,1,1,...): never terminates inside the bound
    assert exc.value.witness_degree == 5


def test_not_regular_xy():
    alg = quadratic_algebra(("x", "y"), [[((0, 1), F(1))]])
    with pytest.raises(NotRegular) as exc:
        as_regular_certificate(alg, 5)
    # dual terminates (dims 1,2,1,0,..) but the pairing into the top is
    # degenerate, so the Frobenius step refuses
    assert "Frobenius" in exc.value.reason
    assert exc.value.witness_degree == 1


def test_nakayama_frozen_values():
    for name, rows in NAKAYAMA.items():
        xi = cert_of(name).nakayama
        assert xi == _mat(rows), name


def test_nakayama_preserves_relations():
    for name in AS_REGULAR:
        cert = cert_of(name)
        xi = cert.nakayama
        img = [residue(cert.algebra.relations,
                       oracle_slotwise((xi, xi), dict(row), cert.algebra.n))
               for row in cert.algebra.relations.rows]
        assert all(all(v == 0 for v in r.values()) for r in img), name


def test_certificate_data_is_freed_with_its_certificate():
    # xi, w, the symmetrized w, D(w) and the presentation report are kept
    # on the certificate and nowhere else: once the certificate cache lets
    # a certificate go, nothing holds it or them.  The certificate and D(w)
    # can be weakly referenced and show it; the records cannot
    as_regular_certificate.cache_clear()
    refs = []
    for name in AS_REGULAR:
        cert = as_regular_certificate(algebra_of(name), 5)
        assert cert.superpotential, name
        # the contraction twist, by the Fraction route, is xi
        assert oracle_superpotential(cert)[1] == cert.nakayama, name
        assert cert.symmetrized and cert.presentation.passed, name
        refs += [weakref.ref(cert), weakref.ref(cert.quotient)]
    del cert
    as_regular_certificate.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def _refuse(*args):
    raise LinAlgError("refused")


def _failing_koszul_numerics(alg, dims, dual_dims):
    """The Koszul certificate on the dims with a mismatch at degree 4 and
    Euler failures at degrees 3 and 5: it fails, first at degree 3."""
    return koszul_numerics(alg, dims, dual_dims)._replace(
        component_mismatches=(4,), euler_failures=(3, 5))


def test_failing_koszul_numerics_refute_regularity(monkeypatch):
    # the certificate reads the Koszul numerics on every call, as nothing
    # keeps them, so a failing one refutes each time, at the lowest failing
    # degree, and the refusal leaves no cache entry behind
    poly3 = algebra_of("poly3")
    monkeypatch.setattr(regular, "koszul_numerics", _failing_koszul_numerics)
    as_regular_certificate.cache_clear()
    # the dual's truncation, which the certificate reads first, is cached
    truncated_structure(poly3.dual, 3)
    sizes = cache_sizes()
    for _ in range(2):
        with pytest.raises(NotRegular) as info:
            as_regular_certificate(poly3, 5)
        assert str(info.value) == "degree 3: Koszul numerics fail"
        assert info.value.witness_degree == 3
    assert cache_sizes() == sizes


def test_regularity_data_refusals():
    # a bound that cannot see degree gldim + 1 of the dual, and a certified
    # dimension other than the expected one, are refused each time with no
    # cache entry left behind
    poly3 = algebra_of("poly3")
    assert as_regular_certificate(poly3, 5).gldim == 3
    sizes = cache_sizes()
    for _ in range(2):
        with pytest.raises(LinAlgError, match=(
                "^bound too small to see the dual terminate$")):
            regularity_data(poly3, 3, 3)
        with pytest.raises(ConsistencyError, match=(
                "^certified dimension 3 does not match the expected 2$")):
            regularity_data(poly3, 2, 5)
    assert cache_sizes() == sizes


def _fresh(cert):
    """The same data on a certificate nothing has been read from."""
    return RegularityCertificate(cert.algebra, cert.koszul, cert.dual_fd)


@pytest.mark.parametrize("prop,check", [
    ("nakayama", "preserves_subspace"),
    ("superpotential", "is_twisted_superpotential"),
])
def test_a_read_that_raises_stores_nothing(monkeypatch, prop, check):
    for name in AS_REGULAR:
        cert = _fresh(cert_of(name))
        monkeypatch.setattr(regular, check, lambda *args: False)
        with pytest.raises(ConsistencyError):
            getattr(cert, prop)
        assert prop not in vars(cert), name
        monkeypatch.undo()
        assert getattr(cert, prop) == getattr(cert_of(name), prop), name


@pytest.mark.parametrize("prop,check,refusal", [
    ("symmetrized", "is_twisted_superpotential", lambda *args: False),
    ("quotient", "derivation_quotient", _refuse),
    ("presentation", "derivation_quotient", _refuse),
])
def test_a_derived_read_that_raises_stores_nothing(monkeypatch, prop, check,
                                                   refusal):
    for name in AS_REGULAR:
        cert = _fresh(cert_of(name))
        # w itself is read first, so only the derived datum's own step fails
        cert.superpotential
        monkeypatch.setattr(regular, check, refusal)
        with pytest.raises((ConsistencyError, LinAlgError)):
            getattr(cert, prop)
        assert {prop, "quotient"}.isdisjoint(vars(cert)), name
        monkeypatch.undo()
        assert getattr(cert, prop) == getattr(cert_of(name), prop), name


@pytest.mark.parametrize("names,read,message", [
    (AS_REGULAR, lambda cert: cert.superpotential,
     "contraction twist disagrees with the pairing route"),
    (tuple(RELATION_M), dim2_matrix_form,
     "matrix-form Nakayama disagrees with the pairing route"),
], ids=["superpotential", "dim2_matrix_form"])
def test_a_wrong_nakayama_map_fails_the_second_route(names, read, message):
    for name in names:
        cert = _fresh(cert_of(name))
        # minus the true xi, seeded where the cached property keeps it
        cert.__dict__["nakayama"] = -cert_of(name).nakayama
        with pytest.raises(ConsistencyError) as exc:
            read(cert)
        assert str(exc.value) == message, name
        assert vars(cert).keys() == {"algebra", "koszul", "dual_fd",
                                     "nakayama"}, name


def test_dim2_matrix_form_goldens():
    for name, rows in RELATION_M.items():
        cert = cert_of(name)
        assert dim2_matrix_form(cert) == _mat(rows), name
        # xi = -M^t M^{-1} for a single relation in two letters
        m = fraction_matrix(_mat(rows))
        expect = (m.transpose() @ dense_inverse(m)).scale(F(-1))
        assert fraction_matrix(cert.nakayama) == expect, name


def test_dim2_criterion_on_every_small_relation():
    # one relation x^T M x on two letters presents an AS-regular algebra of
    # dimension 2 exactly when det M != 0; on all 624 nonzero M with
    # entries in {-2, ..., 2}, and the matrix route returns M up to a
    # scalar and the Nakayama map -M^T M^{-1} on every regular one
    regular_count = 0
    for entries in product(range(-2, 3), repeat=4):
        if not any(entries):
            continue
        m = fraction_matrix(_mat((entries[:2], entries[2:])))
        alg = QuadraticAlgebra(("x", "y"),
                               Subspace.from_spanning([entries], 4))
        if entries[0] * entries[3] == entries[1] * entries[2]:
            with pytest.raises(NotRegular):
                as_regular_certificate(alg, 5)
            continue
        regular_count += 1
        cert = as_regular_certificate(alg, 5)
        assert cert.gldim == 2, entries
        form = dim2_matrix_form(cert)
        lead = next(k for k, v in enumerate(entries) if v)
        scale = F(entries[lead]) / form.entries[lead // 2][lead % 2]
        assert fraction_matrix(form).scale(scale) == m, entries
        assert (fraction_matrix(cert.nakayama)
                == (m.transpose() @ dense_inverse(m)).scale(F(-1))), entries
    # of the 624, 496 are invertible
    assert regular_count == 496


def test_multiparameter_skew_ring_nakayama():
    # x_j x_i = q_ij x_i x_j for i < j, with q_ji = 1/q_ij, on n = 2, 3, 4
    # letters and seeded parameters: the Nakayama map is
    # diag(prod_{j != i} q_ji)
    rng = seeded(10)
    for n in (2, 3, 4):
        for _ in range(4):
            q = {}
            for i, j in combinations(range(n), 2):
                q[i, j] = F(rng.choice((-1, 1)) * rng.randint(1, 5),
                            rng.randint(1, 5))
                q[j, i] = 1 / q[i, j]
            alg = quadratic_algebra(
                tuple(f"x{i}" for i in range(n)),
                [[((j, i), 1), ((i, j), -q[i, j])]
                 for i, j in combinations(range(n), 2)])
            cert = as_regular_certificate(alg, n + 1)
            assert cert.gldim == n
            diag = [prod(q[j, i] for j in range(n) if j != i)
                    for i in range(n)]
            assert cert.nakayama == _mat(
                [[diag[i] if i == k else 0 for k in range(n)]
                 for i in range(n)]), q


def test_dim2_matrix_form_rejects_dim3():
    with pytest.raises(LinAlgError):
        dim2_matrix_form(cert_of("poly3"))


def test_regularity_data_checks_expected_dimension():
    alg = algebra_of("kxy")
    with pytest.raises(ConsistencyError):
        regularity_data(alg, 3, 5)
    cert = regularity_data(alg, 2, 5)
    assert cert.gldim == 2


def test_regularity_data_bound_guard():
    with pytest.raises(LinAlgError):
        regularity_data(algebra_of("poly3"), 3, 3)


def test_certificate_cache_stability():
    a = cert_of("quantum_plane_q2")
    b = cert_of("quantum_plane_q2")
    assert a is b
