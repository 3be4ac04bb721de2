"""The contracts of the package's immutable types.

Records, which hold verdicts and nothing derived, are NamedTuples: equal by
value and printed with their field names.  Every other type is a plain
class in linalg.Matrix's idiom, its fields in its __dict__ and assignment
refused: the value types are equal and hashed by their fields, so that
equal presentations share cache entries, and the certificate, the skew
extension, the parsed document, the deformation and the finite-dimensional
algebras by identity.  The plain classes can be weakly referenced, as the
tests that check what a cache frees do.
"""

import weakref

import pytest

from helpers import description_of
from quadalg import (AlgebraDescription, GradedFDAlgebra, PBWDeformation,
                     PresentationReport, QuadraticAlgebra,
                     RegularityCertificate, SkewExtension, Subspace,
                     TruncatedAlgebra, check_cdga_axioms, cy_check_with,
                     cy_equivalence_dim2, numeric_koszul_certificate,
                     regularity_data, skew_extend)
from quadalg.io import description_deformation
from quadalg.quadratic import truncated_structure

RECORDS = ("KoszulCertificate", "PresentationReport", "IsoReport",
           "CYReport", "Cdga", "CdgaAxiomReport", "DeformedCYReport",
           "EquivalenceReport")
# each plain class with the names of its fields
VALUE_FIELDS = {
    Subspace: ("ambient", "pivots", "int_rows"),
    QuadraticAlgebra: ("names", "relations"),
}
IDENTITY_FIELDS = {
    RegularityCertificate: ("algebra", "koszul", "dual_fd"),
    SkewExtension: ("cert", "sigma", "algebra", "sigma_inverse"),
    AlgebraDescription: ("generators", "relations", "sigma", "nu", "theta",
                         "domain"),
    PBWDeformation: ("cert", "rows", "nu", "theta", "domain"),
    GradedFDAlgebra: ("dims", "int_mult", "den"),
}
# the truncation, equal only to itself like the types above, but built from
# a presentation and a bound rather than from its fields; truncated_structure
# shares it across a session
BUILT_FIELDS = {
    TruncatedAlgebra: ("algebra", "components", "words", "classes", "dims",
                       "int_mult", "den"),
}


def _deformation():
    """quantum_weyl's deformation, on a base of dimension 2."""
    desc = description_of("quantum_weyl")
    return description_deformation(desc, regularity_data(desc.algebra, 2, 5))


def _records():
    """One instance of each record, by name."""
    defm = _deformation()
    cert = defm.cert
    found = [numeric_koszul_certificate(cert.algebra, 4),
             cert.presentation, skew_extend(cert, cert.nakayama).iso,
             cy_check_with(cert, cert.nakayama), defm.cdga,
             check_cdga_axioms(defm.cdga), defm.cy_report,
             cy_equivalence_dim2(defm)]
    return {type(r).__name__: r for r in found}


def _plain():
    """One instance of each plain class, by class."""
    defm = _deformation()
    cert = defm.cert
    return {Subspace: cert.algebra.relations, QuadraticAlgebra: cert.algebra,
            RegularityCertificate: cert,
            SkewExtension: skew_extend(cert, cert.nakayama),
            AlgebraDescription: description_of("quantum_weyl"),
            PBWDeformation: defm,
            GradedFDAlgebra: skew_extend(cert, cert.nakayama).model,
            TruncatedAlgebra: cert.dual_fd}


def _copy(obj, fields):
    """A second instance built from obj's fields."""
    return type(obj)(*[getattr(obj, f) for f in fields])


def test_every_type_refuses_assignment_to_a_field():
    records = _records()
    assert sorted(records) == sorted(RECORDS)
    for rec in records.values():
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
    for cls, obj in _plain().items():
        fields = {**VALUE_FIELDS, **IDENTITY_FIELDS, **BUILT_FIELDS}[cls]
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(obj, field))
        # and nothing else can be set on it either
        with pytest.raises(AttributeError):
            obj.extra = None
        assert "extra" not in vars(obj)


def test_a_record_is_a_named_tuple_whose_repr_names_its_fields():
    for name, rec in _records().items():
        assert isinstance(rec, tuple) and rec == tuple(rec), name
        text = repr(rec)
        assert text.startswith(f"{name}("), name
        assert all(f"{f}=" in text for f in rec._fields), name
    assert PresentationReport(True, False) != PresentationReport(True, True)


def test_value_types_are_equal_and_hash_equal_across_instances():
    plain = _plain()
    for cls, fields in VALUE_FIELDS.items():
        obj = plain[cls]
        other = _copy(obj, fields)
        assert other is not obj and other == obj, cls
        assert hash(other) == hash(obj), cls
        assert other != object(), cls
    assert Subspace.full(4) != Subspace.from_spanning([], 4)


def test_equal_presentations_share_one_truncated_structure():
    rows = [{0: 1, 3: -1}, {1: 1, 2: -2}, {1: 3, 2: -6, 0: 1, 3: -1}]
    permuted = [{1: 2, 2: -4}, rows[0], {0: -2, 3: 2}]
    a = QuadraticAlgebra(("x", "y"), Subspace.from_spanning(rows, 4))
    b = QuadraticAlgebra(("x", "y"), Subspace.from_spanning(permuted, 4))
    assert a is not b and a.relations is not b.relations
    assert a == b and hash(a) == hash(b)
    before = truncated_structure.cache_info()
    assert truncated_structure(a, 3) is truncated_structure(b, 3)
    after = truncated_structure.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 1)


def test_identity_types_are_equal_only_to_themselves():
    plain = _plain()
    for cls, fields in IDENTITY_FIELDS.items():
        obj = plain[cls]
        other = _copy(obj, fields)
        assert obj == obj and other == other, cls
        assert other != obj and hash(other) != hash(obj), cls


def test_every_plain_class_can_be_weakly_referenced():
    for cls, obj in _plain().items():
        assert weakref.ref(obj)() is obj, cls

