"""Command line driver: exit codes, verdict payloads, determinism."""

import importlib
import importlib.util
import json
import pkgutil
import re
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cached_property
from importlib import resources
from pathlib import Path

import pytest

import quadalg
from helpers import (AS_REGULAR, package_caches, skew_description,
                     sklyanin_description)
from quadalg import cli, frobenius, io, linalg, quadratic, regular, skew
from quadalg.cli import main
from quadalg.io import parse_description
from quadalg.linalg import Matrix
from quadalg.quadratic import graded_dims
from quadalg.frobenius import (is_graded_symmetric,
                               twisted_module_trivial_extension)
from quadalg.pbw import PBWDeformation, nakayama_shift
from quadalg.regular import RegularityCertificate, as_regular_certificate
from quadalg.skew import SkewExtension, skew_extend
from quadalg.superpotential import derivation_quotient, symmetrize
from quadalg.tensors import is_twisted_superpotential

CORPUS = resources.files("quadalg") / "corpus"


def _path(name):
    return str(CORPUS / f"{name}.json")


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_nakayama_quantum_plane(capsys):
    code, rep = _run(capsys, "nakayama", _path("quantum_plane_q2"))
    assert code == 0
    assert rep["status"] == "pass"
    assert rep["verdict"]["matrix"] == [["2", "0"], ["0", "1/2"]]
    assert rep["verdict"]["gldim"] == 2
    assert rep["command"] == "nakayama"
    assert rep["max_degree"] == 5


def test_cy_commutative_plane(capsys):
    code, rep = _run(capsys, "cy", _path("kxy"))
    assert code == 0
    v = rep["verdict"]
    assert v["is_CY"] is True
    assert v["dimension"] == 3
    assert v["koszul_bound"] == 5
    assert "witness" not in v


def test_cy_identity_sigma_fails(capsys):
    code, rep = _run(capsys, "cy", _path("quantum_plane_q2"), "--sigma", "id")
    assert code == 1
    assert rep["status"] == "fail"
    assert rep["verdict"]["is_CY"] is False
    assert rep["verdict"]["witness"]


def test_cy_exit_zero_flag(capsys):
    code, rep = _run(capsys, "cy", _path("quantum_plane_q2"),
                     "--sigma", "id", "--exit-zero")
    assert code == 0
    assert rep["status"] == "fail"


def test_sigma_file(tmp_path, capsys):
    doc = json.loads((CORPUS / "quantum_plane_q2.json").read_text())
    doc["sigma"] = [["2", "0"], ["0", "1/2"]]
    p = tmp_path / "with_sigma.json"
    p.write_text(json.dumps(doc))
    code, rep = _run(capsys, "cy", str(p), "--sigma", "file")
    assert code == 0
    assert rep["verdict"]["is_CY"] is True


def test_sigma_file_missing(tmp_path, capsys):
    p = tmp_path / "plain.json"
    p.write_text((CORPUS / "quantum_plane_q2.json").read_text())
    code, rep = _run(capsys, "cy", str(p), "--sigma", "file")
    assert code == 2
    assert rep["status"] == "error"


def test_thm5_all_false_is_pass(capsys):
    code, rep = _run(capsys, "thm5", _path("deformed_qp_noncy"))
    assert code == 0
    v = rep["verdict"]
    assert v["cond_i"] is False
    assert v["cond_ii"] is False
    assert v["cond_iii"] is False
    assert v["equivalent"] is True


def test_pbw_noncy_fails(capsys):
    code, rep = _run(capsys, "pbw", _path("deformed_qp_noncy"))
    assert code == 1
    v = rep["verdict"]
    assert v["axioms_pass"] is True
    assert v["is_CY"] is False
    assert v["witness"] == "y"


def test_pbw_weyl_passes(capsys):
    code, rep = _run(capsys, "pbw", _path("quantum_weyl"))
    assert code == 0
    assert rep["verdict"]["is_CY"] is True
    assert rep["verdict"]["dimension"] == 3


def test_thm5_inapplicable_dim3(capsys):
    code, rep = _run(capsys, "thm5", _path("heisenberg"))
    assert code == 2
    assert rep["status"] == "error"


def test_pbw_missing_deformation(capsys):
    code, rep = _run(capsys, "pbw", _path("kxy"))
    assert code == 2


def test_regular_refutation(tmp_path, capsys):
    p = tmp_path / "xx.json"
    p.write_text(json.dumps({
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "x"]}]]}))
    code, rep = _run(capsys, "regular", str(p))
    assert code == 1
    assert rep["verdict"]["regular"] is False
    assert rep["verdict"]["witness_degree"] == 5


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    code, rep = _run(capsys, "hilbert", str(p))
    assert code == 2
    assert rep["status"] == "error"


def _error_line(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("raw,error", [
    (b"\xff", "input is not UTF-8: 'utf-8' codec can't decode byte 0xff "
              "in position 0: invalid start byte"),
    (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: nested too deeply"),
], ids=["not_utf8", "nested_too_deep"])
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, raw, error):
    p = tmp_path / "bad.json"
    p.write_bytes(raw)
    code, out = _error_line(capsys, "hilbert", str(p))
    assert code == 2
    assert out == json.dumps({"command": "hilbert", "error": error,
                              "status": "error"}, sort_keys=True) + "\n"


def test_missing_file(capsys):
    code, out = _error_line(capsys, "hilbert", "/nonexistent/path.json")
    assert code == 2
    assert json.loads(out) == {
        "command": "hilbert", "status": "error",
        "error": "[Errno 2] No such file or directory: '/nonexistent/path.json'"}
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_max_degree_guard(capsys):
    code, out = _error_line(capsys, "hilbert", _path("kxy"), "--max-degree", "1")
    assert code == 2
    assert json.loads(out) == {"command": "hilbert", "status": "error",
                               "error": "--max-degree must be at least 2"}
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_a_failed_cross_check_exits_2_with_its_prefix(capsys, monkeypatch):
    # the two routes of the cy verdict, the model and the honest dual, made
    # to disagree: the ConsistencyError of SkewExtension.symmetry is
    # reported as a failed internal cross-check, by the prefix that
    # perfbench's checks read, with exit 2
    real = skew.is_graded_symmetric

    def honest_route_flipped(alg):
        ok, witness = real(alg)
        return ok != isinstance(alg, quadratic.TruncatedAlgebra), witness

    monkeypatch.setattr(skew, "is_graded_symmetric", honest_route_flipped)
    _clear_package_caches()
    code, out = _error_line(capsys, "cy", _path("poly3"))
    assert code == 2
    assert out == json.dumps({
        "command": "cy", "status": "error",
        "error": "internal cross-check failed: symmetry verdict differs "
                 "between the model and the honest dual"},
        sort_keys=True) + "\n"


def test_exponent_notation_is_a_parse_error(tmp_path, capsys):
    # a coefficient like 1e1000000 would make a 100-byte input run for
    # minutes; it is refused while parsing
    p = tmp_path / "exponent.json"
    p.write_text(json.dumps({
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": "1e100", "word": ["y", "x"]}]]}))
    code, out = _error_line(capsys, "hilbert", str(p))
    assert code == 2
    assert out == json.dumps({
        "command": "hilbert", "status": "error",
        "error": "relations[0][1].coeff: bad rational '1e100': exponent "
                 "notation is not accepted"}, sort_keys=True) + "\n"


@pytest.mark.parametrize("coeff,reason", [
    ("1" * 200_001, "a run of more than 4300 digits is not accepted"),
    ("?" * 200_001, "Invalid literal for Fraction"),
], ids=["200001_digits", "200001_non_numeric"])
def test_long_rational_error_quotes_a_bounded_prefix(tmp_path, capsys, coeff,
                                                     reason):
    # the error line names a long coefficient by its first 20 characters and
    # its length, and Fraction's reason does not repeat it
    p = tmp_path / "long.json"
    p.write_text(json.dumps({
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": coeff, "word": ["y", "x"]}]]}))
    code, out = _error_line(capsys, "hilbert", str(p))
    assert code == 2
    assert out == json.dumps({
        "command": "hilbert", "status": "error",
        "error": f"relations[0][1].coeff: bad rational {coeff[:20]!r}... "
                 f"(200001 characters): {reason}"}, sort_keys=True) + "\n"


_XY = {"coeff": "1", "word": ["x", "y"]}
_LONG_ZERO_DIVISION = "1" * 200 + "/0"


@pytest.mark.parametrize("doc,error", [
    ({"generators": ["x", "y"], "relations": [["xy"]]},
     "relations[0][0]: term must be an object with coeff and word"),
    ({"generators": ["x", "y"],
      "relations": [[{"coeff": "1", "word": "xy"}]]},
     "relations[0][0].word: word must be a list of generator names"),
    ({"generators": ["x", "y"], "relations": [_XY]},
     "relations[0]: expected a list of terms"),
    ({"generators": [], "relations": []},
     "generators: generators must be a non-empty list of names"),
    ({"generators": ["x", "y"], "relations": {}},
     "relations: relations must be a list"),
    ({"generators": ["x", "y"], "relations": [[_XY], []]},
     "relations[1]: relation has no terms"),
    ({"generators": ["x", "y"], "relations": [[_XY]],
      "deformation": {"nu": [[]], "theta": ["0"], "shift": []}},
     "deformation: deformation carries nu, theta and an optional domain "
     "flag"),
    # Fraction's reason holds the whole numerator: it is cut at 160
    # characters
    ({"generators": ["x", "y"],
      "relations": [[_XY, {"coeff": _LONG_ZERO_DIVISION,
                           "word": ["y", "x"]}]]},
     "relations[0][1].coeff: bad rational '11111111111111111111'... "
     "(202 characters): " + f"Fraction({'1' * 200}, 0)"[:160] + "..."),
], ids=["term_not_an_object", "word_not_a_list", "terms_not_a_list",
        "no_generators", "relations_not_a_list", "relation_without_terms",
        "deformation_extra_key", "long_fraction_reason"])
def test_malformed_document_is_a_parse_error(tmp_path, capsys, doc, error):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out = _error_line(capsys, "hilbert", str(p))
    assert code == 2
    assert out == json.dumps({"command": "hilbert", "error": error,
                              "status": "error"}, sort_keys=True) + "\n"


def test_resource_guard_exit_code(tmp_path, capsys):
    # the free algebra on 32 letters: its dual has every degree-two word as
    # a relation, so K_4 of the dual is all of the 32^4 > 10^6 coordinate
    # words and the guard must stop there
    names = [f"a{i}" for i in range(32)]
    p = tmp_path / "free32.json"
    p.write_text(json.dumps({"generators": names, "relations": []}))
    code, rep = _run(capsys, "hilbert", str(p), "--max-degree", "4")
    assert code == 3
    assert rep == {"command": "hilbert", "status": "error",
                   "error": "32^4 coordinate words exceed the cap of 1000000"}
    # k + V: every degree-two word is a relation, so the dual is free and
    # its Koszul components vanish from degree 2 on, past the cap too
    p = tmp_path / "trivial32.json"
    p.write_text(json.dumps({
        "generators": names,
        "relations": [[{"coeff": "1", "word": [a, b]}]
                      for a in names for b in names]}))
    code, rep = _run(capsys, "hilbert", str(p), "--max-degree", "4")
    assert code == 0
    assert rep["verdict"]["dims"] == [1, 32, 0, 0, 0]


@pytest.mark.parametrize("degree", [cli.MAX_DEGREE + 1, 99999999999])
def test_a_degree_above_the_cap_trips_the_resource_guard(tmp_path, capsys,
                                                         degree):
    # k[x]/(x^2): one letter never trips the word cap, so without the cap
    # hilbert would loop over every degree up to the bound
    p = tmp_path / "dual_numbers.json"
    p.write_text(json.dumps({
        "generators": ["x"],
        "relations": [[{"coeff": "1", "word": ["x", "x"]}]]}))
    started = time.perf_counter()
    code, rep = _run(capsys, "hilbert", str(p), "--max-degree", str(degree))
    assert time.perf_counter() - started < 1
    assert code == 3
    assert rep == {"command": "hilbert", "status": "error",
                   "error": f"--max-degree must be at most {cli.MAX_DEGREE}"}


@pytest.mark.parametrize("coeff", ["2 / 3", "1_000", "\u0663"],
                         ids=["inner_spaces", "underscore", "arabic_indic_digit"])
def test_coefficient_grammar_does_not_depend_on_the_interpreter(tmp_path,
                                                                 capsys, coeff):
    # Fraction reads "2 / 3" from Python 3.12 on, "1_000" from 3.11 on and
    # a non-ASCII digit on every version; all three are refused on every one
    p = tmp_path / "coeff.json"
    p.write_text(json.dumps({
        "generators": ["x", "y"],
        "relations": [[{"coeff": "1", "word": ["x", "y"]},
                       {"coeff": coeff, "word": ["y", "x"]}]]}))
    code, out = _error_line(capsys, "hilbert", str(p))
    assert code == 2
    assert out == json.dumps({
        "command": "hilbert", "status": "error",
        "error": f"relations[0][1].coeff: bad rational {coeff!r}: underscores, "
                 f"inner whitespace and non-ASCII characters are not accepted"},
        sort_keys=True) + "\n"


@pytest.mark.parametrize("command,key,value", [
    ("regular", "dual_dims", [1, 2, 1] + [0] * 18),
    ("koszul", "component_dims", [1, 2, 1] + [0] * 18),
    ("cy", "is_CY", True),
])
def test_vanishing_components_answer_past_the_word_cap(capsys, command, key,
                                                       value):
    # K_m(k[x, y]) = 0 for m >= 3, so degree 20, with 2^20 > 10^6 coordinate
    # words, still answers
    code, rep = _run(capsys, command, _path("kxy"), "--max-degree", "20")
    assert code == 0, rep
    assert rep["verdict"][key] == value


def test_caches_are_bounded_and_keep_a_corpus_sweep_warm(capsys):
    # one sweep of every command over the corpus, with the caches emptied
    # once: each cache holds under half its bound, evicts nothing, and
    # serves the hits of an unbounded cache
    caches = {"quadratic.shared_presentation": quadratic.shared_presentation,
              "io.parse_description": io.parse_description,
              "quadratic.truncated_structure": quadratic.truncated_structure,
              "regular.as_regular_certificate": regular.as_regular_certificate,
              "skew.skew_extend": skew.skew_extend,
              "io.description_deformation": io.description_deformation}
    assert package_caches() == caches
    for cache in caches.values():
        cache.cache_clear()
    for path in sorted(CORPUS.iterdir(), key=lambda p: p.name):
        for cmd in cli.COMMANDS:
            main([cmd, str(path), "--max-degree", "5"])
    capsys.readouterr()
    bounds = {"quadratic.shared_presentation": 32,
              "io.parse_description": 32,
              "quadratic.truncated_structure": 32,
              "regular.as_regular_certificate": 32,
              "skew.skew_extend": 16,
              "io.description_deformation": 8}
    # 10 documents present 7 algebras, and 2 of the 7 skew extensions equal
    # one of them: kxy's is poly3's algebra, quantum_plane_qm1's quantum3's
    hits = {"quadratic.shared_presentation": 5,
            "io.parse_description": 120,
            "quadratic.truncated_structure": 4,
            "regular.as_regular_certificate": 80,
            "skew.skew_extend": 26,
            "io.description_deformation": 3}
    for name, cache in caches.items():
        info = cache.cache_info()
        assert info.maxsize == bounds[name], name
        assert 2 * info.currsize <= info.maxsize, name
        assert info.currsize == info.misses, name
        assert info.hits == hits[name], name


def test_report_grid_lists_each_package_cache_once():
    # report_grid.py empties every cache before each run, and run_corpus.py
    # prints one line per cache it lists: each cache once, found in the
    # module that defines it and not again where another module imports it
    path = Path(__file__).resolve().parent.parent / "scripts" / "report_grid.py"
    spec = importlib.util.spec_from_file_location("report_grid", path)
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    listed = [id(cache) for cache in grid.caches()]
    assert sorted(listed) == sorted(map(id, package_caches().values()))


def test_hilbert_counts_pbw_degrees_past_the_word_cap(tmp_path, capsys):
    # 6^8 coordinate words exceed the cap, but the 6-letter skew ring is PBW:
    # degrees past 4 are normal-word counts and no K_8 is built
    p = tmp_path / "skew6.json"
    p.write_text(json.dumps(skew_description(6, Fraction(-2, 3))))
    code, rep = _run(capsys, "hilbert", str(p), "--max-degree", "8")
    assert code == 0
    assert rep["verdict"]["dims"] == [1, 6, 21, 56, 126, 252, 462, 792, 1287]


def test_memory_error_is_a_resource_failure(capsys, monkeypatch):
    def exhausted(desc, args):
        raise MemoryError()

    monkeypatch.setitem(cli.COMMANDS, "koszul", exhausted)
    code, rep = _run(capsys, "koszul", _path("kxy"))
    assert code == 3
    assert rep["status"] == "error"
    assert rep["command"] == "koszul"
    assert rep["error"]


def test_stdin_input(capsys, monkeypatch):
    raw = (CORPUS / "kxy.json").read_text().encode()

    class FakeStdin:
        class buffer:
            @staticmethod
            def read():
                return raw

    monkeypatch.setattr(sys, "stdin", FakeStdin)
    code, rep = _run(capsys, "hilbert", "-")
    assert code == 0
    assert rep["verdict"]["dims"] == [1, 2, 3, 4, 5, 6]


def test_hilbert_max_degree(capsys):
    code, rep = _run(capsys, "hilbert", _path("quantum3"), "--max-degree", "4")
    assert code == 0
    assert rep["verdict"]["dims"] == [1, 3, 6, 10, 15]
    assert rep["max_degree"] == 4


def test_dual_payload(capsys):
    code, rep = _run(capsys, "dual", _path("quantum_plane_q2"))
    assert code == 0
    v = rep["verdict"]
    assert v["generators"] == ["x*", "y*"]
    assert v["dims"] == [1, 2, 1, 0, 0, 0]


def test_skew_payload(capsys):
    code, rep = _run(capsys, "skew", _path("quantum_plane_q2"))
    assert code == 0
    v = rep["verdict"]
    assert v["generator"] == "z"
    assert v["generators"] == ["x", "y", "z"]
    assert v["dims"] == [1, 3, 6, 10, 15, 21]


def test_verdict_determinism(capsys):
    code1, rep1 = _run(capsys, "cy", _path("jordan_plane"))
    code2, rep2 = _run(capsys, "cy", _path("jordan_plane"))
    assert code1 == code2 == 0
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert rep1 == rep2


def test_digest_tracks_input(tmp_path, capsys):
    _, rep1 = _run(capsys, "hilbert", _path("kxy"))
    p = tmp_path / "kxy2.json"
    p.write_text((CORPUS / "kxy.json").read_text() + "\n")
    _, rep2 = _run(capsys, "hilbert", str(p))
    assert rep1["input_digest"] != rep2["input_digest"]
    assert rep1["verdict"] == rep2["verdict"]


def test_all_commands_run_on_quantum_plane(capsys):
    for cmd in ("dual", "hilbert", "koszul", "regular", "nakayama", "skew",
                "superpotential", "symmetrize", "derivquot", "extiso", "cy"):
        code, rep = _run(capsys, cmd, _path("quantum_plane_q2"))
        assert code == 0, cmd
        assert rep["status"] == "pass", cmd


def test_non_regular_input_is_inapplicable(tmp_path, capsys):
    # k[x]/(x^2) has a free dual, so no finite-length certificate exists;
    # commands that need a regular algebra refuse it with exit 2
    p = tmp_path / "xx.json"
    p.write_text(json.dumps({"generators": ["x"], "relations": [
        [{"coeff": "1", "word": ["x", "x"]}]]}))
    for cmd in ("nakayama", "cy", "superpotential", "extiso"):
        code, rep = _run(capsys, cmd, str(p))
        assert code == 2, cmd
        assert rep["status"] == "error" and rep["command"] == cmd
        assert "dual algebra is still nonzero" in rep["error"]
    code, rep = _run(capsys, "regular", str(p))
    assert code == 1 and rep["verdict"]["regular"] is False


@pytest.mark.parametrize("point", [(1, 2, 3), (2, -1, 1), (3, 5, -7)])
def test_regular_sklyanin_verdicts(tmp_path, capsys, point):
    # three regular points of the Sklyanin family: AS-regular of dimension
    # 3 with the Hilbert series of k[x, y, z], identity Nakayama map, so the
    # untwisted extension is Calabi-Yau of dimension 4
    p = tmp_path / "sklyanin.json"
    p.write_text(json.dumps(sklyanin_description(*point)))
    code, rep = _run(capsys, "regular", str(p))
    assert code == 0
    assert rep["verdict"] == {"dual_dims": [1, 3, 3, 1, 0, 0], "gldim": 3,
                              "koszul_bound": 5, "regular": True}
    code, rep = _run(capsys, "nakayama", str(p))
    assert code == 0
    assert rep["verdict"]["matrix"] == [["1", "0", "0"], ["0", "1", "0"],
                                        ["0", "0", "1"]]
    for flags in ((), ("--sigma", "id")):
        code, rep = _run(capsys, "cy", str(p), *flags)
        assert code == 0, flags
        assert rep["verdict"] == {"dimension": 4, "is_CY": True,
                                  "koszul_bound": 5}, flags


@pytest.mark.parametrize("point", [(1, 1, 1), (1, 0, 0), (0, 0, 1)])
def test_degenerate_sklyanin_verdicts(tmp_path, capsys, point):
    # degenerate points: the dual never vanishes, so regular is refused and
    # the commands that need a regular algebra exit 2
    reason = ("degree 5: dual algebra is still nonzero at the degree bound, "
              "no finite length is visible")
    p = tmp_path / "sklyanin.json"
    p.write_text(json.dumps(sklyanin_description(*point)))
    code, rep = _run(capsys, "regular", str(p))
    assert code == 1
    assert rep["verdict"]["regular"] is False
    assert rep["verdict"]["reason"] == reason
    for argv in (("nakayama",), ("cy",), ("cy", "--sigma", "id")):
        code, rep = _run(capsys, argv[0], str(p), *argv[1:])
        assert code == 2, argv
        assert rep == {"command": argv[0], "error": reason,
                       "status": "error"}, argv


def test_dimension_one_base(tmp_path, capsys):
    # k[x] is regular of dimension 1: it has no superpotential relations to
    # recover and no degree-2 relations to deform, so those commands refuse
    # it with exit 2, while the commands that apply still pass
    p = tmp_path / "kx.json"
    p.write_text(json.dumps({"generators": ["x"], "relations": [],
                             "deformation": {"nu": [], "theta": []}}))
    order = ("contraction order must be nonnegative and leave degree-two "
             "relations")
    for cmd, error in (("superpotential", order), ("derivquot", order),
                       ("pbw", "a deformation needs a base of dimension at "
                               "least 2")):
        code, rep = _run(capsys, cmd, str(p))
        assert code == 2, cmd
        assert rep == {"command": cmd, "error": error, "status": "error"}, cmd
    for cmd in ("regular", "symmetrize", "cy"):
        code, rep = _run(capsys, cmd, str(p))
        assert code == 0, cmd
        assert rep["status"] == "pass", cmd


def _two_letter_input(q, sigma):
    """k<x, y>/(xy - q yx) with a sigma section, as a document."""
    return {"generators": ["x", "y"],
            "relations": [[{"coeff": "1", "word": ["x", "y"]},
                           {"coeff": str(-q), "word": ["y", "x"]}]],
            "sigma": sigma}


@pytest.mark.parametrize("doc,error", [
    (_two_letter_input(1, [["1", "1"], ["1", "1"]]),
     "twist must be invertible"),
    (_two_letter_input(2, [["0", "1"], ["1", "0"]]),
     "twist does not preserve the relations"),
], ids=["singular", "not-preserving"])
def test_bad_twist_is_refused(tmp_path, capsys, doc, error):
    # the swap sends xy - 2yx to yx - 2xy, outside the span of the relation
    p = tmp_path / "twist.json"
    p.write_text(json.dumps(doc))
    for cmd in ("skew", "extiso", "cy"):
        code, rep = _run(capsys, cmd, str(p), "--sigma", "file")
        assert code == 2, cmd
        assert rep == {"command": cmd, "error": error, "status": "error"}, cmd


@pytest.mark.parametrize("relations,reason", [
    ([], "top degree has dimension 3, not 1"),
    ([[{"coeff": "1", "word": ["x", "z"]}]],
     "degenerate pairing against the complementary degree"),
], ids=["free", "xz"])
def test_regular_refuted_by_non_frobenius_dual(tmp_path, capsys, relations,
                                               reason):
    # both duals are finite (dims (1, 3) and (1, 3, 1)) but not Frobenius:
    # a 3-dimensional top, then a degenerate pairing into a 1-dimensional one
    p = tmp_path / "xyz.json"
    p.write_text(json.dumps({"generators": ["x", "y", "z"],
                             "relations": relations}))
    code, rep = _run(capsys, "regular", str(p))
    assert code == 1
    assert rep["verdict"] == {
        "reason": f"degree 1: dual algebra is not Frobenius: {reason}",
        "regular": False, "witness_degree": 1}


def _count_calls(monkeypatch, fn):
    """Wrap fn at every quadalg module that binds it, the way perfbench's
    tracer does, and return the list that records one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "quadalg" or name.startswith("quadalg."):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def _count_computations(monkeypatch, owner, name):
    """Replace the cached property owner.<name> by one that records each
    object it computes for, and return that record."""
    compute = vars(owner)[name].func
    calls = []

    def counted(obj):
        calls.append((obj,))
        return compute(obj)

    prop = cached_property(counted)
    prop.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, prop)
    return calls


@pytest.mark.parametrize("command,fn,names,per_run", [
    # the input deformation's curved dual, and the transported one's; a
    # cached property named by its owner and its name
    ("pbw", (PBWDeformation, "cdga"),
     ("deformed_qp_noncy", "quantum_weyl", "heisenberg"), 2),
    ("thm5", (PBWDeformation, "cdga"), ("deformed_qp_noncy", "quantum_weyl"),
     2),
    ("pbw", nakayama_shift, ("deformed_qp_noncy", "quantum_weyl", "heisenberg"),
     1),
    ("thm5", nakayama_shift, ("deformed_qp_noncy", "quantum_weyl"), 1),
    ("superpotential", (RegularityCertificate, "superpotential"), AS_REGULAR,
     1),
], ids=["pbw-cdga", "thm5-cdga", "pbw-nakayama_shift",
        "thm5-nakayama_shift", "superpotential-superpotential"])
def test_each_object_is_built_once_per_run(capsys, monkeypatch, command, fn,
                                           names, per_run):
    calls = (_count_computations(monkeypatch, *fn) if isinstance(fn, tuple)
             else _count_calls(monkeypatch, fn))
    for name in names:
        calls.clear()
        # each run cold, as a fresh process runs it: a certificate left
        # from an earlier run has its properties computed already
        _clear_package_caches()
        code = main([command, _path(name)])
        capsys.readouterr()
        assert code in (0, 1), name
        assert len(calls) == per_run, name


def _clear_package_caches():
    for cache in package_caches().values():
        cache.cache_clear()


def _corpus_sweep(capsys, cold, clear=True):
    """Every corpus file through every command, caches emptied once, or
    not at all unless clear, or, if cold, before every case: (case, exit
    code, report minus timing_ms)."""
    if clear:
        _clear_package_caches()
    out = []
    for path in sorted(CORPUS.iterdir(), key=lambda p: p.name):
        for cmd in cli.COMMANDS:
            if cold:
                _clear_package_caches()
            code = main([cmd, str(path)])
            report = re.sub(r'"timing_ms": \d+', "", capsys.readouterr().out)
            out.append((path.name, cmd, code, report))
    return out


def test_a_second_koszul_run_eliminates_nothing(capsys, monkeypatch):
    # the Koszul components and the counted top degrees are kept on the
    # algebra, which the parse cache hands to every run on one document:
    # a second run reads them all, with no kernel and no rank computed
    calls = {fn.__name__: _count_calls(monkeypatch, fn)
             for fn in (linalg.flipped_int_kernel, linalg._echelon_int)}
    for name in AS_REGULAR:
        _clear_package_caches()
        _, first = _run(capsys, "koszul", _path(name))
        assert all(calls.values()), name
        for record in calls.values():
            record.clear()
        _, second = _run(capsys, "koszul", _path(name))
        assert second["verdict"] == first["verdict"], name
        assert calls == {"flipped_int_kernel": [], "_echelon_int": []}, name


def test_a_corpus_sweep_writes_each_koszul_system_once(capsys, monkeypatch):
    # the 10 documents present 7 algebras, one presentation each, and the
    # skew extensions of kxy and quantum_plane_qm1 are the algebras of poly3
    # and quantum3; a presentation keeps its Koszul eliminations, not the
    # answers read off them: in one sweep with the caches emptied once, the
    # equations of each degree of each algebra value are written once, 43
    # systems in all, however often graded_dims and the Koszul certificate
    # are asked again
    equations = quadratic._koszul_equations
    keys = Counter()

    def counted(alg, prev_space, before):
        # K_m is written over K_0, ..., K_{m-1}, kept on alg
        keys[alg.names, alg.relations, len(alg._koszul_store.built)] += 1
        return equations(alg, prev_space, before)

    monkeypatch.setattr(quadratic, "_koszul_equations", counted)
    _corpus_sweep(capsys, cold=False)
    assert len(keys) == 43 and set(keys.values()) == {1}
    presentations = {id(parse_description(path.read_bytes()).algebra)
                     for path in CORPUS.iterdir()}
    assert len(presentations) == 7


def test_failing_koszul_numerics_in_the_regular_commands(capsys,
                                                         monkeypatch):
    # as_regular_certificate reads the Koszul numerics on every run: with
    # failing ones, regular reports the refutation at its lowest failing
    # degree and exits 1, each time, and nakayama, which needs the
    # certificate, exits 2; no run leaves a certificate cached
    def failing(alg, dims, dual_dims):
        return quadratic.koszul_numerics(alg, dims, dual_dims)._replace(
            component_mismatches=(4,), euler_failures=(3, 5))

    monkeypatch.setattr(regular, "koszul_numerics", failing)
    _clear_package_caches()
    for _ in range(2):
        code, rep = _run(capsys, "regular", _path("poly3"))
        assert code == 1 and rep["status"] == "fail"
        assert rep["verdict"] == {"regular": False,
                                  "reason": "degree 3: Koszul numerics fail",
                                  "witness_degree": 3}
    code, rep = _run(capsys, "nakayama", _path("poly3"))
    assert code == 2
    assert rep == {"status": "error", "command": "nakayama",
                   "error": "degree 3: Koszul numerics fail"}
    assert as_regular_certificate.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["regular", "skew", "cy", "extiso"])
def test_a_cold_command_counts_the_duals_dims_once(capsys, monkeypatch,
                                                   command):
    # the certificate counts the dual's dims for its termination check and
    # hands them to the Koszul numerics, and the reports read the counted
    # sequences off the certificate's Koszul record: wherever graded_dims
    # is read, a cold regular, skew, cy or extiso on poly3 asks it for the
    # dual once
    poly3 = parse_description(Path(_path("poly3")).read_bytes()).algebra
    bounds = []

    def counted(alg, bound):
        if alg == poly3.dual:
            bounds.append(bound)
        return graded_dims(alg, bound)

    for module in (quadratic, regular, cli, skew):
        monkeypatch.setattr(module, "graded_dims", counted)
    _clear_package_caches()
    code, rep = _run(capsys, command, _path("poly3"))
    assert code == 0 and rep["status"] == "pass"
    assert bounds == [5]


def test_regular_refutes_by_termination_before_the_word_cap(tmp_path,
                                                           capsys):
    # on the exterior algebra on 16 letters the dual, the polynomial ring,
    # is nonzero at the bound; the certificate checks that before the
    # Koszul numerics, whose K_5 would have 16^5 words, past the word cap,
    # so regular refutes (exit 1) rather than trip the resource guard
    # (exit 3)
    names = [chr(ord("a") + i) for i in range(16)]
    rels = [[{"coeff": "1", "word": [a, a]}] for a in names]
    rels += [[{"coeff": "1", "word": [a, b]}, {"coeff": "1", "word": [b, a]}]
             for i, a in enumerate(names) for b in names[i + 1:]]
    path = tmp_path / "exterior16.json"
    path.write_text(json.dumps({"generators": names, "relations": rels}))
    code, rep = _run(capsys, "regular", str(path))
    assert code == 1 and rep["status"] == "fail"
    assert rep["verdict"] == {
        "regular": False,
        "reason": "degree 5: dual algebra is still nonzero at the degree "
                  "bound, no finite length is visible",
        "witness_degree": 5}


def test_warm_caches_answer_as_cold_ones(capsys):
    # a session reuses certificates, Nakayama maps, superpotentials and
    # verified models across commands; each report must be the one a fresh
    # process prints
    warm = _corpus_sweep(capsys, cold=False)
    cold = _corpus_sweep(capsys, cold=True)
    assert len(warm) == 10 * len(cli.COMMANDS)
    assert warm == cold


def test_a_warm_second_sweep_prints_the_first_sweeps_reports(capsys):
    # two sweeps in one session with no cache emptied between them: the
    # second reads every description, algebra and certificate that the
    # first left in the caches, so a shared object that a command mutated
    # would move a report
    first = _corpus_sweep(capsys, cold=False)
    hits = io.parse_description.cache_info().hits
    second = _corpus_sweep(capsys, cold=False, clear=False)
    assert second == first
    # every document of the second sweep came from the cache
    assert io.parse_description.cache_info().hits == hits + len(second)


def test_skew_dims_are_the_extensions_graded_dims(tmp_path, capsys):
    # skew reports the partial sums of the base's dims; the extension's own
    # graded_dims are a second route to them
    files = [str(p) for p in sorted(CORPUS.iterdir(), key=lambda p: p.name)]
    for n in (3, 4):
        path = tmp_path / f"skew{n}.json"
        path.write_text(json.dumps(skew_description(n, Fraction(-2, 3))))
        files.append(str(path))
    for path in files:
        for sigma in ("nakayama", "id"):
            for bound in (5, 6):
                code, rep = _run(capsys, "skew", path, "--sigma", sigma,
                                 "--max-degree", str(bound))
                assert code == 0, path
                alg = parse_description(Path(path).read_bytes()).algebra
                cert = as_regular_certificate(alg, bound)
                twist = (cert.nakayama if sigma == "nakayama"
                         else Matrix.identity(alg.n))
                ext = skew_extend(cert, twist).algebra
                assert rep["verdict"]["dims"] == list(graded_dims(ext, bound))


def test_certificate_data_is_computed_once_per_session(capsys, monkeypatch):
    # one corpus sweep, caches emptied once: the Nakayama map and the
    # superpotential are computed once per certificate, the verified model
    # once per certificate and twist, however often the commands ask for
    # them.  The deformation files deform the algebras of quantum_plane_q2
    # and poly3, so there are the 7 certificates of AS_REGULAR, each with
    # its Nakayama map as the one twist.
    computed = {name: _count_computations(monkeypatch, RegularityCertificate,
                                          name)
                for name in ("nakayama", "superpotential")}
    calls = _count_computations(monkeypatch, SkewExtension, "iso")
    _corpus_sweep(capsys, cold=False)
    for name, certs in computed.items():
        assert len(certs) == len(AS_REGULAR), name
        assert len({id(cert) for cert, in certs}) == len(certs), name
    # one report per extension, kept on it: certificates by identity,
    # twists by value, as skew_extend keys them
    assert len(calls) == len(AS_REGULAR)
    assert len({(id(ext.cert), ext.sigma) for ext, in calls}) == len(calls)


def test_derived_data_is_computed_once_per_session(capsys, monkeypatch):
    # one corpus sweep, caches emptied once, counted as computations: each
    # of the 7 AS-regular certificates tests w for twisted cyclicity and
    # w-hat for plain cyclicity, builds w-hat and D(w) once, and its one
    # extension builds its model once, read by extiso, cy and pbw, and runs
    # the symmetry test once on each route; each of
    # the 3 deformation documents builds its curved structure and the
    # transported deformation's, and its deformed criterion, once, for pbw
    # and thm5 both
    fns = (is_twisted_superpotential, derivation_quotient, symmetrize,
           twisted_module_trivial_extension, is_graded_symmetric)
    calls = {fn.__name__: _count_calls(monkeypatch, fn) for fn in fns}
    calls.update({name: _count_computations(monkeypatch, PBWDeformation, name)
                  for name in ("cdga", "cy_report")})
    _corpus_sweep(capsys, cold=False)
    regular_certs, deformations = len(AS_REGULAR), 3
    assert {name: len(record) for name, record in calls.items()} == {
        "is_twisted_superpotential": 2 * regular_certs,
        "derivation_quotient": regular_certs,
        "symmetrize": regular_certs,
        "twisted_module_trivial_extension": regular_certs,
        "is_graded_symmetric": 2 * regular_certs,
        "cdga": 2 * deformations,
        "cy_report": deformations}


@pytest.mark.parametrize("argv,code", [
    (("cy",), 0), (("cy", "--sigma", "id"), 1), (("extiso",), 0)])
def test_a_cold_twisted_run_looks_its_extension_up_once(tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        code):
    # the extension owns its model, honest dual, report and symmetry
    # verdict, so a cold run on skew4 makes one lookup keyed on the twist;
    # the twist is an integer matrix whose hash was computed when it was
    # made, and no Fraction is hashed anywhere in the run
    path = tmp_path / "skew4.json"
    path.write_text(json.dumps(skew_description(4, Fraction(-2, 3))))
    hashes = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashes.append(self)
        return fraction_hash(self)

    _clear_package_caches()
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__hash__", counted)
        assert main([argv[0], str(path), *argv[1:]]) == code
    capsys.readouterr()
    info = skew.skew_extend.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert hashes == []


def _counted_solves(monkeypatch):
    """Replace solve_square in every package module that binds it by a
    wrapper that records each call; returns the list of calls."""
    calls = []
    solve = linalg.solve_square

    def counted(a, b):
        calls.append(a.rows)
        return solve(a, b)

    for info in pkgutil.iter_modules(quadalg.__path__):
        mod = importlib.import_module(f"quadalg.{info.name}")
        if getattr(mod, "solve_square", None) is solve:
            monkeypatch.setattr(mod, "solve_square", counted)
    return calls


@pytest.mark.parametrize("name", AS_REGULAR)
def test_a_cold_regular_run_solves_no_nakayama_block(capsys, monkeypatch,
                                                      name):
    # the certificate checks each pairing by a rank; the Nakayama blocks
    # are solved only where they are read
    calls = _counted_solves(monkeypatch)
    _clear_package_caches()
    assert main(["regular", _path(name)]) == 0
    capsys.readouterr()
    assert calls == []


@pytest.mark.parametrize("name", AS_REGULAR)
def test_a_cold_nakayama_run_makes_one_solve(capsys, monkeypatch, name):
    # xi is read off one solve against the pairings
    calls = _counted_solves(monkeypatch)
    _clear_package_caches()
    assert main(["nakayama", _path(name)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_cold_cy_run_solves_each_nakayama_block_once(tmp_path, capsys,
                                                       monkeypatch):
    # the symmetry test reads the Nakayama blocks of the model and of the
    # honest dual, each the algebra's own: on skew3 every block of the two
    # is solved once, against that algebra's own pairings, and reading the
    # verdict again solves nothing
    path = tmp_path / "skew3.json"
    path.write_text(json.dumps(skew_description(3, Fraction(-2, 3))))
    solves = []
    solve = frobenius.solve_square
    monkeypatch.setattr(frobenius, "solve_square",
                        lambda a, b: solves.append(a) or solve(a, b))
    _clear_package_caches()
    assert main(["cy", str(path)]) == 0
    capsys.readouterr()
    cert = as_regular_certificate(
        parse_description(path.read_bytes()).algebra, 5)
    ext = skew_extend(cert, cert.nakayama)
    assert (skew.skew_extend.cache_info().hits,
            regular.as_regular_certificate.cache_info().hits) == (1, 1)
    blocks = [*ext.model.pairings, *ext.honest_dual.pairings]
    assert sorted(map(id, solves)) == sorted(map(id, blocks))
    for alg in (ext.model, ext.honest_dual):
        is_graded_symmetric(alg)
    assert len(solves) == len(blocks)


def test_the_superpotential_path_does_no_fraction_arithmetic(monkeypatch):
    # w, its twist, the cyclicity tests and the symmetrization run on
    # integer word vectors; the only Fractions are the two views, built
    # from integers over their denominators
    _clear_package_caches()
    cert = as_regular_certificate(parse_description(
        Path(_path("poly3")).read_bytes()).algebra, 5)
    ops = []
    for op in ("add", "sub", "mul", "truediv"):
        for name in (f"__{op}__", f"__r{op}__"):
            real = getattr(Fraction, name)

            def counted(self, other, real=real, name=name):
                ops.append(name)
                return real(self, other)

            monkeypatch.setattr(Fraction, name, counted)
    w = cert.superpotential
    hat = cert.symmetrized
    monkeypatch.undo()
    assert ops == []
    assert w and hat
    assert all(type(c) is Fraction for c in (*w.values(), *hat.values()))


def test_a_cold_pbw_run_looks_its_extension_up_once(capsys):
    # the deformed criterion reads the model on the extension it looked up
    # and hands that extension on to the transported deformation
    _clear_package_caches()
    assert main(["pbw", _path("quantum_weyl")]) == 0
    capsys.readouterr()
    info = skew.skew_extend.cache_info()
    assert (info.hits, info.misses) == (0, 1)


@pytest.mark.parametrize("argv,systems", [
    (("cy",), 10), (("extiso",), 10), (("skew",), 7), (("regular",), 5),
    (("koszul",), 5)])
def test_a_cold_run_eliminates_each_koszul_system_once(tmp_path, capsys,
                                                       monkeypatch, argv,
                                                       systems):
    # a degree counted by rank keeps its forward echelon form, and building
    # it in full finishes that form: on skew4, K_4 of the base is counted
    # first and built later, and its equations are written once
    path = tmp_path / "skew4.json"
    path.write_text(json.dumps(skew_description(4, Fraction(-2, 3))))
    written = []
    equations = quadratic._koszul_equations

    def recorded(*args):
        eqs = equations(*args)
        written.append(tuple(tuple(sorted(eq.items())) for eq in eqs))
        return eqs

    monkeypatch.setattr(quadratic, "_koszul_equations", recorded)
    _clear_package_caches()
    assert main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert len(written) == len(set(written)) == systems


def test_a_cold_symmetrize_run_tests_cyclicity_twice(capsys, monkeypatch):
    # w, twisted, when the certificate reads its superpotential, and w-hat,
    # plainly and one degree up, when it symmetrizes it; neither symmetrize
    # nor the command tests again
    calls = _count_calls(monkeypatch, is_twisted_superpotential)
    for name in AS_REGULAR:
        calls.clear()
        _clear_package_caches()
        assert main(["symmetrize", _path(name)]) == 0
        capsys.readouterr()
        assert len(calls) == 2, name
        assert calls[1][1] == calls[0][1] + 1, name


@pytest.mark.parametrize("command,name,code", [
    # the twist, whose inverse builds the extension
    ("cy", "poly3", 0),
    ("extiso", "poly3", 0),
    # and the degree-one pairing, for the sections of the deformed criterion
    ("pbw", "deformed_qp_noncy", 1),
    # and the relation coefficient matrix of the dimension-2 form
    ("thm5", "deformed_qp_noncy", 0),
])
def test_no_matrix_inverse_per_cold_case(capsys, command, name, code):
    # every inverse these cases need is read off one solve on [A | B]
    assert not hasattr(Matrix, "inverse")
    _clear_package_caches()
    assert main([command, _path(name)]) == code
    capsys.readouterr()
