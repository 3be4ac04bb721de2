"""Command line front end.

Reads a JSON algebra description (file path or '-' for stdin), runs one
subcommand, prints a deterministic JSON report on stdout.  Exit codes:
0 pass, 1 verdict fail, 2 usage or parse error or inapplicable input (such
as a non-regular algebra), 3 resource guard or out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .io import (ValidationError, description_deformation,
                 description_to_algebra, matrix_to_strings, parse_description,
                 vector_to_terms)
from .linalg import ConsistencyError, LinAlgError, Matrix, ResourceLimitError
from .pbw import (check_cdga_axioms, cy_criterion_deformed, cy_equivalence_dim2,
                  dual_cdga)
from .quadratic import graded_dims, numeric_koszul_certificate
from .regular import (NotRegular, as_regular_certificate, nakayama_of_algebra)
from .skew import (cy_check_with, fresh_letter, skew_extend,
                   verify_ext_algebra_isomorphism)
from .superpotential import (derivation_quotient, extract_superpotential,
                             is_twisted_superpotential, symmetrize,
                             verify_superpotential_presentation)


def _certificate(desc, args):
    alg = description_to_algebra(desc)
    return as_regular_certificate(alg, args.max_degree)


def _resolve_sigma(desc, cert, mode):
    if mode == "id":
        return Matrix.identity(cert.algebra.n)
    if mode == "nakayama":
        return nakayama_of_algebra(cert)
    if mode == "file":
        if desc.sigma is None:
            raise ValidationError("--sigma file requires a sigma section", "sigma")
        return desc.sigma
    raise ValidationError(f"unknown sigma mode {mode!r}")


def _cmd_dual(desc, args):
    alg = description_to_algebra(desc)
    dual = alg.dual
    verdict = {
        "generators": list(dual.names),
        "relations": [vector_to_terms(r, 2, dual.names)
                      for r in dual.relations.rows],
        "dims": list(graded_dims(dual, args.max_degree)),
    }
    return verdict, True


def _cmd_hilbert(desc, args):
    alg = description_to_algebra(desc)
    verdict = {"dims": list(graded_dims(alg, args.max_degree))}
    return verdict, True


def _cmd_koszul(desc, args):
    alg = description_to_algebra(desc)
    cert = numeric_koszul_certificate(alg, args.max_degree)
    verdict = {
        "passed": cert.passed,
        "bound": cert.bound,
        "dims": list(cert.dims),
        "dual_dims": list(cert.dual_dims),
        "component_dims": list(cert.component_dims),
        "component_mismatches": list(cert.component_mismatches),
        "euler_failures": list(cert.euler_failures),
    }
    return verdict, cert.passed


def _cmd_regular(desc, args):
    alg = description_to_algebra(desc)
    try:
        cert = as_regular_certificate(alg, args.max_degree)
    except NotRegular as exc:
        return {"regular": False, "reason": str(exc),
                "witness_degree": exc.witness_degree}, False
    return {"regular": True, "gldim": cert.gldim,
            "dual_dims": list(cert.dual_dims),
            "koszul_bound": cert.bound}, True


def _cmd_nakayama(desc, args):
    cert = _certificate(desc, args)
    xi = nakayama_of_algebra(cert)
    return {"matrix": matrix_to_strings(xi), "gldim": cert.gldim}, True


def _cmd_skew(desc, args):
    cert = _certificate(desc, args)
    sigma = _resolve_sigma(desc, cert, args.sigma)
    ext = skew_extend(cert.algebra, sigma)
    verdict = {
        "generator": ext.algebra.names[-1],
        "generators": list(ext.algebra.names),
        "relations": [vector_to_terms(r, 2, ext.algebra.names)
                      for r in ext.algebra.relations.rows],
        "dims": list(graded_dims(ext.algebra, args.max_degree)),
    }
    return verdict, True


def _cmd_superpotential(desc, args):
    cert = _certificate(desc, args)
    data = extract_superpotential(cert)
    report = verify_superpotential_presentation(cert, data)
    verdict = {
        "terms": vector_to_terms(data.w, cert.gldim, cert.algebra.names),
        "twist": matrix_to_strings(data.twist),
        "presentation_matches": report.matches_relations,
        "coupling_invertible": report.coupling_invertible,
    }
    return verdict, report.passed


def _cmd_symmetrize(desc, args):
    cert = _certificate(desc, args)
    data = extract_superpotential(cert)
    d = cert.gldim
    what = symmetrize(data.w, d, data.twist)
    fresh = fresh_letter(cert.algebra.names)
    names = cert.algebra.names + (fresh,)
    cyclic = is_twisted_superpotential(what, d + 1,
                                       Matrix.identity(cert.algebra.n + 1))
    verdict = {
        "generator": fresh,
        "terms": vector_to_terms(what, d + 1, names),
        "cyclic": cyclic,
    }
    return verdict, cyclic


def _cmd_derivquot(desc, args):
    cert = _certificate(desc, args)
    data = extract_superpotential(cert)
    quotient = derivation_quotient(data.w, cert.gldim - 2, cert.algebra.names)
    same = quotient.relations == cert.algebra.relations
    verdict = {
        "relations": [vector_to_terms(r, 2, quotient.names)
                      for r in quotient.relations.rows],
        "matches_input": same,
    }
    return verdict, same


def _cmd_extiso(desc, args):
    cert = _certificate(desc, args)
    sigma = _resolve_sigma(desc, cert, args.sigma)
    report = verify_ext_algebra_isomorphism(cert, sigma)
    verdict = {
        "generated": report.generated_ok,
        # the same verdict (see verify_ext_algebra_isomorphism)
        "structure_constants_equal": report.generated_ok,
        "bijective": report.bijective,
        "left_identity": report.left_identity_ok,
        "right_identity": report.right_identity_ok,
    }
    return verdict, report.passed


def _cmd_cy(desc, args):
    cert = _certificate(desc, args)
    report = cy_check_with(cert, _resolve_sigma(desc, cert, args.sigma))
    verdict = {
        "is_CY": report.is_CY,
        "dimension": report.dimension,
        "koszul_bound": report.koszul_bound,
    }
    if not report.is_CY and report.witness is not None:
        verdict["witness"] = list(report.witness)
    return verdict, report.is_CY


def _cmd_pbw(desc, args):
    if not desc.has_deformation:
        raise ValidationError("pbw requires a deformation section", "deformation")
    cert = _certificate(desc, args)
    defm = description_deformation(desc, cert)
    c = dual_cdga(defm)
    axioms = check_cdga_axioms(c)
    crit = cy_criterion_deformed(defm, c)
    verdict = {
        "axioms_pass": axioms.passed,
        "is_CY": crit.is_CY,
        "dimension": crit.dimension,
        "shift": [str(v) for v in crit.shift],
        "twisted_shift": [str(v) for v in crit.twisted_shift],
        "zeta_linear": matrix_to_strings(nakayama_of_algebra(cert)),
        "converse_definitive": crit.converse_definitive,
    }
    if crit.witness is not None:
        verdict["witness"] = crit.witness
    return verdict, axioms.passed and crit.is_CY


def _cmd_thm5(desc, args):
    if not desc.has_deformation:
        raise ValidationError("thm5 requires a deformation section", "deformation")
    cert = _certificate(desc, args)
    defm = description_deformation(desc, cert)
    report = cy_equivalence_dim2(defm)
    verdict = {
        "cond_i": report.cond_i,
        "cond_ii": report.cond_ii,
        "cond_iii": report.cond_iii,
        "equivalent": report.equivalent,
        "shift": [str(v) for v in report.shift],
    }
    return verdict, report.equivalent


COMMANDS = {
    "dual": _cmd_dual,
    "hilbert": _cmd_hilbert,
    "koszul": _cmd_koszul,
    "regular": _cmd_regular,
    "nakayama": _cmd_nakayama,
    "skew": _cmd_skew,
    "superpotential": _cmd_superpotential,
    "symmetrize": _cmd_symmetrize,
    "derivquot": _cmd_derivquot,
    "extiso": _cmd_extiso,
    "cy": _cmd_cy,
    "pbw": _cmd_pbw,
    "thm5": _cmd_thm5,
}


# built once: every main() call, in one process, parses with the same parser
PARSER = argparse.ArgumentParser(
    prog="quadalg",
    description="exact computations on quadratic algebras")
PARSER.add_argument("command", choices=sorted(COMMANDS))
PARSER.add_argument("file", help="JSON description, or - for stdin")
PARSER.add_argument("--max-degree", type=int, default=5,
                    help="bound for all degree-limited certificates")
PARSER.add_argument("--sigma", choices=["id", "nakayama", "file"],
                    default="nakayama",
                    help="twist selection for skew/extiso/cy")
PARSER.add_argument("--exit-zero", action="store_true",
                    help="exit 0 even on verdict failures")


def _error(args, message: str, code: int) -> int:
    """Print the error report of a failed run and return its exit code."""
    print(json.dumps({"status": "error", "error": message,
                      "command": args.command}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    if args.max_degree < 2:
        return _error(args, "--max-degree must be at least 2", 2)
    try:
        if args.file == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.file, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        return _error(args, str(exc), 2)
    digest = hashlib.sha256(raw).hexdigest()
    started = time.perf_counter()
    try:
        desc = parse_description(raw)
        verdict, passed = COMMANDS[args.command](desc, args)
    except (ValidationError, LinAlgError, NotRegular) as exc:
        return _error(args, str(exc), 2)
    except (ResourceLimitError, MemoryError) as exc:
        return _error(args, str(exc) or "out of memory", 3)
    except ConsistencyError as exc:
        return _error(args, f"internal cross-check failed: {exc}", 2)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    report = {
        "command": args.command,
        "input_digest": digest,
        "max_degree": args.max_degree,
        "sigma_mode": args.sigma,
        "status": "pass" if passed else "fail",
        "verdict": verdict,
        "timing_ms": elapsed_ms,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if passed or args.exit_zero:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
