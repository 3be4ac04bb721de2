"""JSON ingestion of algebra descriptions, and the serialization of the
matrices and word vectors that reports carry, and of reports themselves.

Input documents carry generators, quadratic relations as coeff/word term
lists, an optional degree-one twist matrix (row-vector convention: v maps
to v.S), and an optional deformation section with a degree-one part per
input relation plus a scalar part; the deformation is held on the input
relation rows as written.  All rationals travel as strings: an
integer, n/d or a plain decimal, never exponent notation, and with no run
of more than 4300 digits, no underscore, no inner whitespace and no
character outside ASCII.  A term list is read into its sparse {word
index: value} row once, repeated words adding up; reports write such a
vector back as terms in word order.

A document is parsed once per session: parse_description is a bounded
cache keyed on the raw document, the bytes a command reads or a str, and a
document it refuses raises and is not stored.  The description it hands
out is shared by every caller of the same document, so its rows are
read-only views (MappingProxyType), and it reads its algebra once, on
first use (AlgebraDescription.algebra), from quadratic's
shared_presentation, a bounded cache keyed on the names and the relation
subspace: every command on one document, every document that presents
one algebra and every skew extension that equals it reads one
QuadraticAlgebra, and with it one dual and the Koszul data kept on it.
A description is keyed by identity, as a certificate is here and in
skew.skew_extend, and description_deformation holds one deformation per
description and certificate, so that `pbw` and `thm5` on one document
read one curved structure and one deformed Calabi-Yau report.

A success report is written by dumps_report, in one pass, as
json.dumps(report, indent=2, sort_keys=True) writes it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import cached_property, lru_cache
from json.encoder import encode_basestring_ascii
from types import MappingProxyType

from .linalg import Matrix, Subspace, Vec
from .quadratic import QuadraticAlgebra, shared_presentation
from .regular import RegularityCertificate
from .pbw import PBWDeformation
from .tensors import add_into, index_to_word, word_to_index


class ValidationError(ValueError):
    """Raised for structurally invalid input documents."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


Row = MappingProxyType[int, Fraction]


class AlgebraDescription:
    """A parsed document; each relation and each degree-one part of the
    deformation is its sparse {word index: value} row, read-only since
    one description is shared by every caller of its document.  It is
    immutable, and equal and hashed by identity: its rows are not
    hashable, and two documents with one algebra keep their own
    deformations."""

    def __init__(self, generators: tuple[str, ...], relations: tuple[Row, ...],
                 sigma: Matrix | None, nu: tuple[Row, ...] | None,
                 theta: Vec | None, domain: bool | None):
        self.__dict__.update(generators=generators, relations=relations,
                             sigma=sigma, nu=nu, theta=theta, domain=domain)

    def __setattr__(self, name, value):
        raise AttributeError("an AlgebraDescription is immutable")

    @property
    def has_deformation(self) -> bool:
        return self.nu is not None

    @cached_property
    def algebra(self) -> QuadraticAlgebra:
        """The shared_presentation of the names and
        Subspace.from_spanning(rows, n * n), read on first use, so that a
        relation error is raised by the command that reads the algebra,
        and once per description."""
        n = len(self.generators)
        return shared_presentation(
            self.generators, Subspace.from_spanning(self.relations, n * n))


# an integer or a quotient of two, each a run of at most 4300 ASCII digits
# and only the first signed: the strings documents carry, read by one match
_PLAIN_RATIONAL = re.compile(r"(-?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


def _parse_fraction(s, path):
    if not isinstance(s, str):
        raise ValidationError("rationals must be strings", path)
    plain = _PLAIN_RATIONAL.fullmatch(s)
    if plain:
        num, den = plain.groups()
        den = int(den or 1)
        if den:
            return Fraction(int(num), den)
    # any other string, or a zero denominator, goes through the checks and
    # Fraction.  An exponent makes a short string name a number of any
    # size; a long run of digits is refused here, before the interpreter's
    # own integer limit (worded differently by each Python version) can
    # refuse it
    if "e" in s.lower():
        reason = "exponent notation is not accepted"
    elif any(len(run.replace("_", "")) > 4300 for run in re.findall(r"[\d_]+", s)):
        reason = "a run of more than 4300 digits is not accepted"
    elif not s.isascii() or "_" in s or re.search(r"\s", s.strip()):
        # each of these is read by some Python versions' Fraction and not by
        # others: refused here, so that every version gives one answer
        reason = ("underscores, inner whitespace and non-ASCII characters "
                  "are not accepted")
    else:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            reason = str(exc)
    shown = repr(s)
    if len(s) > 40:
        # a long string is quoted by its first characters and its length;
        # Fraction's reason may end in a copy of it or hold a huge numerator
        shown = f"{s[:20]!r}... ({len(s)} characters)"
        reason = reason.removesuffix(f": {s!r}")
        if len(reason) > 160:
            reason = reason[:160] + "..."
    raise ValidationError(f"bad rational {shown}: {reason}", path)


def _parse_term(obj, pos, degree, path):
    if not isinstance(obj, dict) or set(obj) != {"coeff", "word"}:
        raise ValidationError("term must be an object with coeff and word", path)
    coeff = _parse_fraction(obj["coeff"], path + ".coeff")
    word = obj["word"]
    if not isinstance(word, list) or not all(isinstance(w, str) for w in word):
        raise ValidationError("word must be a list of generator names", path + ".word")
    if len(word) != degree:
        kind = "quadratic" if degree == 2 else f"of degree {degree}"
        raise ValidationError(f"relations must be {kind}", path + ".word")
    for w in word:
        if w not in pos:
            raise ValidationError(f"undeclared generator {w!r}", path + ".word")
    return coeff, word_to_index([pos[w] for w in word], len(pos))


def _parse_row(obj, pos, degree, path) -> Row:
    """A term list as its read-only sparse row; repeated words add up."""
    if not isinstance(obj, list):
        raise ValidationError("expected a list of terms", path)
    row: dict[int, Fraction] = {}
    for i, t in enumerate(obj):
        coeff, idx = _parse_term(t, pos, degree, f"{path}[{i}]")
        add_into(row, idx, coeff)
    return MappingProxyType(row)


# bounded at over twice the 10 documents of one corpus sweep
@lru_cache(maxsize=32)
def parse_description(text, /) -> AlgebraDescription:
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        doc = json.loads(text)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    allowed = {"generators", "relations", "sigma", "deformation"}
    extra = set(doc) - allowed
    if extra:
        raise ValidationError(f"unknown fields {sorted(extra)}")
    gens = doc.get("generators")
    if (not isinstance(gens, list) or not gens
            or not all(isinstance(g, str) and g for g in gens)):
        raise ValidationError("generators must be a non-empty list of names",
                              "generators")
    if len(set(gens)) != len(gens):
        raise ValidationError("duplicate generator names", "generators")
    names = tuple(gens)
    pos = {name: i for i, name in enumerate(names)}
    rels_doc = doc.get("relations")
    if not isinstance(rels_doc, list):
        raise ValidationError("relations must be a list", "relations")
    relations = []
    for i, rel in enumerate(rels_doc):
        row = _parse_row(rel, pos, 2, f"relations[{i}]")
        if not rel:
            raise ValidationError("relation has no terms", f"relations[{i}]")
        if not row:
            raise ValidationError("relation is identically zero", f"relations[{i}]")
        relations.append(row)
    sigma = None
    if "sigma" in doc:
        mat = doc["sigma"]
        n = len(names)
        if (not isinstance(mat, list) or len(mat) != n
                or not all(isinstance(r, list) and len(r) == n for r in mat)):
            raise ValidationError("sigma must be a square matrix over the "
                                  "generators", "sigma")
        rows = [tuple(_parse_fraction(v, f"sigma[{i}][{j}]")
                      for j, v in enumerate(row)) for i, row in enumerate(mat)]
        # row-vector convention in files; columns act on letters internally
        sigma = Matrix.from_rows(rows, n).transpose()
    nu = None
    theta = None
    domain = None
    if "deformation" in doc:
        dd = doc["deformation"]
        if not isinstance(dd, dict) or set(dd) - {"nu", "theta", "domain"}:
            raise ValidationError("deformation carries nu, theta and an "
                                  "optional domain flag", "deformation")
        nu_doc = dd.get("nu")
        if not isinstance(nu_doc, list) or len(nu_doc) != len(relations):
            raise ValidationError("nu needs one term list per relation",
                                  "deformation.nu")
        nu = tuple(_parse_row(t, pos, 1, f"deformation.nu[{i}]")
                   for i, t in enumerate(nu_doc))
        th_doc = dd.get("theta")
        if not isinstance(th_doc, list) or len(th_doc) != len(relations):
            raise ValidationError("theta needs one scalar per relation",
                                  "deformation.theta")
        theta = tuple(_parse_fraction(v, f"deformation.theta[{i}]")
                      for i, v in enumerate(th_doc))
        if "domain" in dd:
            if not isinstance(dd["domain"], bool):
                raise ValidationError("domain must be a boolean",
                                      "deformation.domain")
            domain = dd["domain"]
    return AlgebraDescription(names, tuple(relations), sigma, nu, theta, domain)


def matrix_to_strings(mat: Matrix):
    """Serialize a column-convention degree-one matrix in the row-vector
    convention used by input files and reports."""
    t = mat.transpose()
    return [[str(v) for v in row] for row in t.entries]


# bounded at over twice the 3 deformations of one corpus sweep; keyed on the
# description and the certificate, both by identity
@lru_cache(maxsize=8)
def description_deformation(desc: AlgebraDescription,
                            cert: RegularityCertificate, /) -> PBWDeformation:
    """The document's deformation of cert's algebra, held on the document's
    relation rows, independent exactly when they number dim R, their span;
    PBWDeformation refuses rows that do not span cert's relation space.
    Built once per description and certificate, and a refused one is not
    stored."""
    if not desc.has_deformation:
        raise ValidationError("document has no deformation section")
    rows = desc.relations
    if len(rows) != cert.algebra.relations.dim:
        raise ValidationError("input relations are linearly dependent",
                              "relations")
    return PBWDeformation(cert, rows, desc.nu, desc.theta, desc.domain)


def vector_to_terms(vec, degree: int, names):
    """Serialize a vector of length-degree words, a sparse map or its pairs,
    as coeff/word term objects in word order."""
    n = len(names)
    return [{"coeff": str(c),
             "word": [names[i] for i in index_to_word(idx, n, degree)]}
            for idx, c in sorted(dict(vec).items())]


def dumps_report(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True), byte for byte, in one
    pass over the types a report carries: dicts with str keys, lists,
    str, int, bool and None.  Any other type, a tuple or a float among
    them, raises TypeError.  Below Python 3.13 json.dumps encodes with
    an indent in pure Python, several times slower than this."""
    out: list[str] = []
    _write_json(report, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value's indented JSON to out; newline is the line break and
    indent that close value's own brackets."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not "
                                f"{type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report carries no {kind.__name__}")
