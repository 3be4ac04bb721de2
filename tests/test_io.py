"""JSON descriptions: parsing, validation, and the deformation section."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CORPUS_DIR, description_of, oracle_parse_fraction
from quadalg import (Matrix, QuadraticAlgebra, Subspace, cy_criterion_deformed,
                     dual_cdga, regularity_data)
from quadalg.io import (ValidationError, _parse_fraction,
                        description_deformation, dumps_report,
                        matrix_to_strings, parse_description)

F = Fraction


def test_minimal_document():
    desc = parse_description(json.dumps({
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": "-1", "word": ["y", "x"]}]],
    }))
    assert desc.generators == ("x", "y")
    alg = desc.algebra
    assert alg.relations.dim == 1


def test_sigma_row_convention():
    # file rows give images of generators as row vectors; internally the
    # matrix acts on coordinate columns, so parse transposes
    doc = {"generators": ["x", "y"],
           "relations": [[{"coeff": "1", "word": ["x", "y"]}]],
           "sigma": [["0", "1"], ["-1", "0"]]}
    desc = parse_description(json.dumps(doc))
    assert desc.sigma == Matrix.from_rows(
        [(F(0), F(-1)), (F(1), F(0))], 2)
    # serialization transposes back
    assert matrix_to_strings(desc.sigma) == [["0", "1"], ["-1", "0"]]


@pytest.mark.parametrize("doc,path_hint", [
    ({"generators": ["x", "x"], "relations": []}, "generators"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y", "x"]}]]}, "quadratic"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y"]}, {"coeff": "-1", "word": ["x", "y"]}]]}, "zero"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1/0",
        "word": ["x", "y"]}]]}, "rational"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": 0.5,
        "word": ["x", "y"]}]]}, "strings"),
    ({"generators": ["x", "y"], "relations": [], "extra": 1}, "unknown"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "q"]}]]}, "undeclared"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y"]}]], "sigma": [["1", "0"]]}, "sigma"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y"]}]],
      "deformation": {"nu": [], "theta": ["0"]}}, "nu"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y"]}]],
      "deformation": {"nu": [[]], "theta": []}}, "theta"),
    ({"generators": ["x", "y"], "relations": [[{"coeff": "1",
        "word": ["x", "y"]}]],
      "deformation": {"nu": [[]], "theta": ["0"], "domain": "yes"}}, "domain"),
])
def test_validation_errors(doc, path_hint):
    with pytest.raises(ValidationError) as exc:
        parse_description(json.dumps(doc))
    assert path_hint.lower() in str(exc.value).lower()


def _two_term_relation(coeff):
    return json.dumps({"generators": ["x", "y"],
                       "relations": [[{"coeff": "1", "word": ["x", "y"]},
                                      {"coeff": coeff, "word": ["y", "x"]}]]})


def test_exponent_notation_is_rejected():
    # an exponent lets a few bytes name a number of any size; the integer,
    # n/d and plain decimal forms stay accepted
    for coeff, value in (("-3", F(-3)), ("2/3", F(2, 3)), ("-7/14", F(-1, 2)),
                         ("1.25", F(5, 4)), (".5", F(1, 2))):
        desc = parse_description(_two_term_relation(coeff))
        # each relation is read into its {word index: value} row: xy, yx
        assert desc.relations[0] == {1: F(1), 2: value}
    for coeff in ("1e1000000", "2E3", "-1.5e-2", "3/4e1"):
        with pytest.raises(ValidationError) as exc:
            parse_description(_two_term_relation(coeff))
        assert exc.value.path == "relations[0][1].coeff"
        assert str(exc.value) == (f"relations[0][1].coeff: bad rational "
                                  f"{coeff!r}: exponent notation is not "
                                  f"accepted")


def test_one_document_is_parsed_once():
    # the cache is keyed on the raw document by value: the same bytes, or
    # the same str, give the same description object
    raw = (CORPUS_DIR / "heisenberg.json").read_bytes()
    desc = parse_description(raw)
    assert parse_description(bytes(bytearray(raw))) is desc
    text = raw.decode()
    assert parse_description(text) is parse_description(raw.decode())
    # a description is equal only to itself; the str parses to the same
    # fields as the bytes
    other = parse_description(text)
    assert other != desc
    attrs = ("generators", "relations", "sigma", "nu", "theta", "domain")
    assert [getattr(other, a) for a in attrs] == [getattr(desc, a)
                                                  for a in attrs]
    assert parse_description.cache_info().maxsize == 32


def test_shared_rows_are_read_only():
    desc = description_of("heisenberg")
    for rows in (desc.relations, desc.nu):
        with pytest.raises(TypeError):
            rows[0][0] = F(1)
        with pytest.raises(TypeError):
            del rows[0][next(iter(rows[0]))]
    assert description_of("heisenberg") is desc


def test_a_refused_document_is_not_stored():
    bad = _two_term_relation("2E3")
    parse_description.cache_clear()
    for _ in range(3):
        with pytest.raises(ValidationError) as exc:
            parse_description(bad)
        assert "exponent notation" in str(exc.value)
        assert parse_description.cache_info().currsize == 0
    parse_description(_two_term_relation("2"))
    assert parse_description.cache_info().currsize == 1


def test_the_algebra_is_built_once_per_description():
    for name in ("kxy", "quantum3", "heisenberg"):
        desc = description_of(name)
        assert desc.algebra is desc.algebra
        # and with it one dual
        assert desc.algebra.dual is desc.algebra.dual
        n = len(desc.generators)
        assert desc.algebra == QuadraticAlgebra(
            desc.generators, Subspace.from_spanning(desc.relations, n * n))
    # documents that present one algebra share one presentation, and with
    # it its dual and its Koszul data
    for names in (("deformed_qp_noncy", "quantum_plane_q2", "quantum_weyl"),
                  ("heisenberg", "poly3")):
        algs = [description_of(name).algebra for name in names]
        assert all(alg is algs[0] for alg in algs), names


def test_invalid_json():
    with pytest.raises(ValidationError):
        parse_description("{nope")
    with pytest.raises(ValidationError):
        parse_description("[1, 2]")


def test_deformation_canonicalization_is_basis_independent():
    # the same deformation written on two bases of the same relation space
    # reads as the same curved structure and the same deformed CY report
    base = {"generators": ["x", "y", "z"],
            "relations": [
                [{"coeff": "1", "word": ["x", "y"]},
                 {"coeff": "-1", "word": ["y", "x"]}],
                [{"coeff": "1", "word": ["x", "z"]},
                 {"coeff": "-1", "word": ["z", "x"]}],
                [{"coeff": "1", "word": ["y", "z"]},
                 {"coeff": "-1", "word": ["z", "y"]}]],
            "deformation": {
                "nu": [[{"coeff": "1", "word": ["z"]}], [], []],
                "theta": ["0", "0", "0"]}}
    mixed = {"generators": ["x", "y", "z"],
             "relations": [
                 [{"coeff": "1", "word": ["x", "y"]},
                  {"coeff": "-1", "word": ["y", "x"]},
                  {"coeff": "2", "word": ["x", "z"]},
                  {"coeff": "-2", "word": ["z", "x"]}],
                 [{"coeff": "1", "word": ["x", "z"]},
                  {"coeff": "-1", "word": ["z", "x"]}],
                 [{"coeff": "1", "word": ["y", "z"]},
                  {"coeff": "-1", "word": ["z", "y"]}]],
             "deformation": {
                 "nu": [[{"coeff": "1", "word": ["z"]}], [], []],
                 "theta": ["0", "0", "0"]}}
    da = parse_description(json.dumps(base))
    db = parse_description(json.dumps(mixed))
    alg = da.algebra
    assert db.algebra.relations == alg.relations
    cert = regularity_data(alg, 3, 5)
    fa = description_deformation(da, cert)
    fb = description_deformation(db, cert)
    # r1' = r1 + 2 r2 and nu(r2) = 0, so both writings define the same map
    # on the relation space
    assert fa.rows != fb.rows
    ca, cb = dual_cdga(fa), dual_cdga(fb)
    assert (ca.delta, ca.curvature) == (cb.delta, cb.curvature)
    assert cy_criterion_deformed(fa, ca) == cy_criterion_deformed(fb, cb)


def test_deformation_rejects_dependent_relations():
    doc = {"generators": ["x", "y"],
           "relations": [
               [{"coeff": "1", "word": ["x", "y"]},
                {"coeff": "-1", "word": ["y", "x"]}],
               [{"coeff": "2", "word": ["x", "y"]},
                {"coeff": "-2", "word": ["y", "x"]}]],
           "deformation": {"nu": [[], []], "theta": ["0", "0"]}}
    desc = parse_description(json.dumps(doc))
    alg = desc.algebra
    cert = regularity_data(alg, 2, 5)
    stored = description_deformation.cache_info().currsize
    with pytest.raises(ValidationError):
        description_deformation(desc, cert)
    # a refused deformation is not stored
    assert description_deformation.cache_info().currsize == stored


def test_one_deformation_per_description_and_certificate():
    # the two documents deform one algebra, whose certificate they share,
    # in different ways: a deformation is kept per description, which is
    # keyed by identity, and each keeps its own curved data and verdict
    da = description_of("deformed_qp_noncy")
    db = description_of("quantum_weyl")
    assert da.algebra == db.algebra and da != db
    cert = regularity_data(da.algebra, 2, 5)
    assert regularity_data(db.algebra, 2, 5) is cert
    fa = description_deformation(da, cert)
    fb = description_deformation(db, cert)
    assert description_deformation(da, cert) is fa
    assert fb is not fa
    assert fa.cdga is fa.cdga
    assert not fa.cy_report.is_CY and fb.cy_report.is_CY
    assert description_deformation.cache_info().maxsize == 8


def test_deformation_missing_section():
    desc = description_of("kxy")
    cert = regularity_data(desc.algebra, 2, 5)
    with pytest.raises(ValidationError):
        description_deformation(desc, cert)


def test_domain_flag_propagates():
    desc = description_of("heisenberg")
    assert desc.domain is True
    cert = regularity_data(desc.algebra, 3, 5)
    defm = description_deformation(desc, cert)
    assert defm.effective_domain


# the values a report carries: str, int (past 64 bits too), bool and None,
# nested in lists and in dicts with str keys; text covers non-ASCII and
# control characters
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.text()
    | st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=8), inner, max_size=5),
    max_leaves=40)


@settings(max_examples=150, deadline=None)
@given(REPORT_VALUES)
@example({"": [], "a": {}, "b": [True, 1, False, 0, None]})
@example(["\x00\x1f\x7f\"\\/", "\u00e9\u2028\U0001f600\ud800",
          2 ** 64, -2 ** 64 - 1])
def test_report_writer_matches_json_dumps(value):
    assert dumps_report(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5, (1, 2), {1: "x"}, {"a": [{"b": 0.0}]}, ["a", ("b",)],
    {"a": 1, 2: "b"}, {"a": {None: 1}}, Fraction(1, 2)])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        dumps_report(value)


_DIGITS = "0123456789"


@st.composite
def _digit_runs(draw):
    """A run of ASCII digits: short, led by zeros, or 4290 to 4310 long."""
    kind = draw(st.sampled_from(("short", "zeros", "long")))
    if kind == "short":
        return draw(st.text(_DIGITS, max_size=6))
    if kind == "zeros":
        return "0" * draw(st.integers(1, 3)) + draw(st.text(_DIGITS,
                                                            max_size=3))
    return draw(st.sampled_from("123456789")) + "7" * draw(
        st.integers(4289, 4309))


@st.composite
def _rational_strings(draw):
    """Signed digit runs, maybe over a second run (or over 0), half of
    them with a stray character put somewhere, and whitespace maybe
    around."""
    s = draw(st.sampled_from(("", "", "-", "-", "+", "--"))) + draw(
        _digit_runs())
    if draw(st.booleans()):
        s += draw(st.sampled_from(("/", "/", "/", "/-", "/ ", "//"))) + draw(
            st.one_of(st.just("0"), st.just("00"), _digit_runs()))
    if draw(st.booleans()):
        # a third of the strays are digits outside ASCII
        stray = draw(st.sampled_from(("\u0661", "\u0663", "\uff11",
                                      "\u0966", "_", "e", "E", " ", "\t",
                                      ".", "x", "\u00e9", "\u2007")))
        at = draw(st.integers(0, len(s)))
        s = s[:at] + stray + s[at:]
    pad = st.sampled_from(("", "", "", "", "", " ", "\n", "\u00a0"))
    return draw(pad) + s + draw(pad)


def _parse_or_reason(parse, s):
    try:
        value = parse(s, "x")
    except ValidationError as exc:
        return "refused", str(exc), exc.path
    return "read", type(value), value


@settings(max_examples=400, deadline=None)
@given(_rational_strings())
@example("1/0")
@example("-0")
@example("007")
@example("0/5")
@example("+1")
@example(" 1 ")
@example("1\u06612")
@example("1/-2")
def test_the_plain_rational_match_reads_as_fraction_did(s):
    # one compiled match reads -digits and -digits/digits; every other
    # string goes through the checks as before, with the same message
    assert (_parse_or_reason(_parse_fraction, s)
            == _parse_or_reason(oracle_parse_fraction, s))


def test_plain_rationals_pinned():
    for s, value in (("-0", 0), ("007", 7), ("0/5", 0), ("+1", 1),
                     (" 1 ", 1), ("-12/8", Fraction(-3, 2))):
        assert _parse_fraction(s, "x") == value
    with pytest.raises(ValidationError) as exc:
        _parse_fraction("1/0", "x")
    assert str(exc.value) == "x: bad rational '1/0': Fraction(1, 0)"
