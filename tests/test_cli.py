"""Command line driver: exit codes, verdict payloads, determinism."""

import importlib.util
import json
import re
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from helpers import (AS_REGULAR, package_caches, skew_description,
                     sklyanin_description)
from quadalg import cli, quadratic, regular, skew, superpotential
from quadalg.cli import main
from quadalg.linalg import Matrix
from quadalg.pbw import dual_cdga, nakayama_shift
from quadalg.regular import nakayama_of_algebra
from quadalg.skew import verify_ext_algebra_isomorphism
from quadalg.superpotential import extract_superpotential

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
    caches = {"quadratic._koszul_component": quadratic._koszul_component,
              "quadratic._koszul_dim": quadratic._koszul_dim,
              "quadratic.truncated_structure": quadratic.truncated_structure,
              "regular.as_regular_certificate": regular.as_regular_certificate,
              "regular.nakayama_of_algebra": regular.nakayama_of_algebra,
              "superpotential.extract_superpotential":
                  superpotential.extract_superpotential,
              "skew.skew_extend": skew.skew_extend,
              "skew.verify_ext_algebra_isomorphism":
                  skew.verify_ext_algebra_isomorphism}
    assert package_caches() == caches
    for cache in caches.values():
        cache.cache_clear()
    for path in sorted(CORPUS.iterdir(), key=lambda p: p.name):
        for cmd in cli.COMMANDS:
            main([cmd, str(path), "--max-degree", "5"])
    capsys.readouterr()
    bounds = {"quadratic._koszul_component": 256, "quadratic._koszul_dim": 64,
              "quadratic.truncated_structure": 32,
              "regular.as_regular_certificate": 32,
              "regular.nakayama_of_algebra": 16,
              "superpotential.extract_superpotential": 16,
              "skew.skew_extend": 16,
              "skew.verify_ext_algebra_isomorphism": 16}
    hits = {"quadratic._koszul_component": 630, "quadratic._koszul_dim": 79,
            "quadratic.truncated_structure": 4,
            "regular.as_regular_certificate": 82,
            "regular.nakayama_of_algebra": 50,
            "superpotential.extract_superpotential": 23,
            "skew.skew_extend": 27,
            "skew.verify_ext_algebra_isomorphism": 13}
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


@pytest.mark.parametrize("command,fn,names,per_run", [
    # the input deformation's curved dual, and the transported one's
    ("pbw", dual_cdga, ("deformed_qp_noncy", "quantum_weyl", "heisenberg"), 2),
    ("thm5", dual_cdga, ("deformed_qp_noncy", "quantum_weyl"), 2),
    ("pbw", nakayama_shift, ("deformed_qp_noncy", "quantum_weyl", "heisenberg"),
     1),
    ("thm5", nakayama_shift, ("deformed_qp_noncy", "quantum_weyl"), 1),
    ("superpotential", extract_superpotential, AS_REGULAR, 1),
], ids=["pbw-dual_cdga", "thm5-dual_cdga", "pbw-nakayama_shift",
        "thm5-nakayama_shift", "superpotential-extract_superpotential"])
def test_each_object_is_built_once_per_run(capsys, monkeypatch, command, fn,
                                           names, per_run):
    calls = _count_calls(monkeypatch, fn)
    for name in names:
        calls.clear()
        code = main([command, _path(name)])
        capsys.readouterr()
        assert code in (0, 1), name
        assert len(calls) == per_run, name


def _clear_package_caches():
    for cache in package_caches().values():
        cache.cache_clear()


def _corpus_sweep(capsys, cold):
    """Every corpus file through every command, caches emptied once or,
    if cold, before every case: (case, exit code, report minus timing_ms)."""
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


def test_warm_caches_answer_as_cold_ones(capsys):
    # a session reuses certificates, Nakayama maps, superpotentials and
    # verified models across commands; each report must be the one a fresh
    # process prints
    warm = _corpus_sweep(capsys, cold=False)
    cold = _corpus_sweep(capsys, cold=True)
    assert len(warm) == 10 * len(cli.COMMANDS)
    assert warm == cold


def test_certificate_data_is_computed_once_per_session(capsys, monkeypatch):
    # one corpus sweep, caches emptied once: the Nakayama map and the
    # superpotential are computed once per certificate, the verified model
    # once per certificate and twist, however often the commands ask for
    # them.  The deformation files deform the algebras of quantum_plane_q2
    # and poly3, so there are the 7 certificates of AS_REGULAR, each with
    # its Nakayama map as the one twist.
    memos = (nakayama_of_algebra, extract_superpotential,
             verify_ext_algebra_isomorphism)
    # emptied here: once counted, they are no longer found by the sweep's
    # package_caches(), which sees only the counting wrappers
    for memo in memos:
        memo.cache_clear()
    calls = {memo: _count_calls(monkeypatch, memo) for memo in memos}
    _corpus_sweep(capsys, cold=False)
    for memo in memos:
        # certificates by identity, twists by value, as the memos key them
        keys = {(id(args[0]),) + args[1:] for args in calls[memo]}
        assert len(keys) == len(AS_REGULAR), memo.__name__
        assert memo.cache_info().misses == len(keys), memo.__name__
        assert len(calls[memo]) > len(keys), memo.__name__


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
