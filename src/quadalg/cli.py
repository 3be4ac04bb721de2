"""Command line front end.

    quadalg <command> <file|-> [--max-degree N] [--sigma id|nakayama|file]
            [--exit-zero]

Reads a JSON algebra description (file path or '-' for stdin), runs one
subcommand, prints a deterministic JSON report on stdout.  The grammar is
parsed directly (_parse_args), as argparse parsed it before: options go
before, between or after the positionals, as `--opt value` or
`--opt=value`, and a unique prefix names a long option.

Exit codes: 0 pass; 1 verdict fail; 2 usage error (the usage and the
reason on stderr, nothing on stdout), parse error or inapplicable input
(such as a non-regular algebra); 3 resource guard (a --max-degree above
MAX_DEGREE, or a Koszul component past the word cap) or out of memory.
-h/--help prints the help on stdout and exits 0.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time
from itertools import accumulate
from typing import NamedTuple

from .io import (ValidationError, description_deformation, dumps_report,
                 matrix_to_strings, parse_description, vector_to_terms)
from .linalg import ConsistencyError, LinAlgError, Matrix, ResourceLimitError
from .pbw import check_cdga_axioms, cy_equivalence_dim2
from .quadratic import graded_dims, numeric_koszul_certificate
from .regular import NotRegular, as_regular_certificate
from .skew import cy_check_with, fresh_letter, skew_extend


def _certificate(desc, args):
    return as_regular_certificate(desc.algebra, args.max_degree)


def _resolve_sigma(desc, cert, mode):
    if mode == "id":
        return Matrix.identity(cert.algebra.n)
    if mode == "nakayama":
        return cert.nakayama
    if mode == "file":
        if desc.sigma is None:
            raise ValidationError("--sigma file requires a sigma section", "sigma")
        return desc.sigma
    raise ValidationError(f"unknown sigma mode {mode!r}")


def _cmd_dual(desc, args):
    dual = desc.algebra.dual
    verdict = {
        "generators": list(dual.names),
        "relations": [vector_to_terms(r, 2, dual.names)
                      for r in dual.relations.rows],
        "dims": list(graded_dims(dual, args.max_degree)),
    }
    return verdict, True


def _cmd_hilbert(desc, args):
    verdict = {"dims": list(graded_dims(desc.algebra, args.max_degree))}
    return verdict, True


def _cmd_koszul(desc, args):
    cert = numeric_koszul_certificate(desc.algebra, args.max_degree)
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
    try:
        cert = as_regular_certificate(desc.algebra, args.max_degree)
    except NotRegular as exc:
        return {"regular": False, "reason": str(exc),
                "witness_degree": exc.witness_degree}, False
    return {"regular": True, "gldim": cert.gldim,
            "dual_dims": list(cert.dual_dims),
            "koszul_bound": cert.bound}, True


def _cmd_nakayama(desc, args):
    cert = _certificate(desc, args)
    xi = cert.nakayama
    return {"matrix": matrix_to_strings(xi), "gldim": cert.gldim}, True


def _cmd_skew(desc, args):
    cert = _certificate(desc, args)
    sigma = _resolve_sigma(desc, cert, args.sigma)
    ext = skew_extend(cert, sigma)
    # A[z; sigma] is free over A on the powers of z, so its dims are the
    # partial sums of A's; skew_extend checks that up to degree 4
    verdict = {
        "generator": ext.algebra.names[-1],
        "generators": list(ext.algebra.names),
        "relations": [vector_to_terms(r, 2, ext.algebra.names)
                      for r in ext.algebra.relations.rows],
        "dims": list(accumulate(graded_dims(cert.algebra, args.max_degree))),
    }
    return verdict, True


def _cmd_superpotential(desc, args):
    cert = _certificate(desc, args)
    data = cert.superpotential
    report = cert.presentation
    verdict = {
        "terms": vector_to_terms(data.w, cert.gldim, cert.algebra.names),
        "twist": matrix_to_strings(data.twist),
        "presentation_matches": report.matches_relations,
        "coupling_invertible": report.coupling_invertible,
    }
    return verdict, report.passed


def _cmd_symmetrize(desc, args):
    cert = _certificate(desc, args)
    fresh = fresh_letter(cert.algebra.names)
    names = cert.algebra.names + (fresh,)
    verdict = {
        "generator": fresh,
        "terms": vector_to_terms(cert.symmetrized, cert.gldim + 1, names),
        # cert.symmetrized raises unless it is cyclic for the identity
        "cyclic": True,
    }
    return verdict, True


def _cmd_derivquot(desc, args):
    cert = _certificate(desc, args)
    quotient = cert.quotient
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
    report = skew_extend(cert, sigma).iso
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
    axioms = check_cdga_axioms(defm.cdga)
    crit = defm.cy_report
    verdict = {
        "axioms_pass": axioms.passed,
        "is_CY": crit.is_CY,
        "dimension": crit.dimension,
        "shift": [str(v) for (v,) in crit.shift.entries],
        "twisted_shift": [str(v) for (v,) in crit.twisted_shift.entries],
        "zeta_linear": matrix_to_strings(cert.nakayama),
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
        "shift": [str(v) for (v,) in report.shift.entries],
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


USAGE = ("usage: quadalg <command> <file|-> [--max-degree N] "
         "[--sigma id|nakayama|file] [--exit-zero]")
SIGMA_MODES = ("id", "nakayama", "file")
# the largest --max-degree a command is run at: above it the resource guard
# refuses the run before the input is read, since on k[x]/(x^2), whose one
# letter never trips the word cap, a command loops over every degree up to
# the bound.  koszul there answers at this degree in under a second
MAX_DEGREE = 20000
OPTIONS = ("--help", "--max-degree", "--sigma", "--exit-zero")
HELP = "\n".join([
    USAGE, "", "exact computations on quadratic algebras", "",
    f"  <command>                 one of {', '.join(sorted(COMMANDS))}",
    "  <file|->                  JSON description, or - for stdin",
    "  --max-degree N            bound for all degree-limited certificates"
    f" (default 5, at most {MAX_DEGREE})",
    "  --sigma id|nakayama|file  twist selection for skew/extiso/cy"
    " (default nakayama)",
    "  --exit-zero               exit 0 even on verdict failures",
    "  -h, --help                print this help and exit"])
# an argument that names no option and reads as a negative number is a
# value, as argparse reads it
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class Args(NamedTuple):
    """The parsed command line."""

    command: str
    file: str
    max_degree: int
    sigma: str
    exit_zero: bool


def _usage_error(reason: str):
    sys.stderr.write(f"{USAGE}\nquadalg: error: {reason}\n")
    raise SystemExit(2)


def _option(arg: str):
    """(option, explicit value or None) for an argument that names an
    option, (None, None) for an unknown option, None for a positional.

    As argparse reads it: `--opt=value`, a unique prefix of a long option,
    and -h followed by more h's; a negative number, a lone '-' and an
    argument with a space that names no option are positionals."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in OPTIONS or arg == "-h":
        return arg, None
    head, eq, value = arg.partition("=")
    if arg[1] == "-":
        found = [o for o in OPTIONS if o.startswith(head)]
        if len(found) > 1:
            _usage_error(f"ambiguous option: {arg} could match "
                         f"{', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif arg.startswith("-h"):
        # -hh... is -h given twice; anything else after -h is refused
        tail = value if head == "-h" else arg[2:]
        return "-h", None if set(tail) == {"h"} else tail
    if NEGATIVE.match(arg) or " " in arg:
        return None
    return None, None


def _parse_args(argv) -> Args:
    """Parse `<command> <file|-> [--max-degree N] [--sigma MODE]
    [--exit-zero]`, options anywhere, as argparse parses it: the last of a
    repeated option wins, arguments after the first `--` are positionals,
    and -h/--help prints the help on stdout and exits 0 unless an earlier
    argument is refused.  Any other argv prints the usage and the reason on
    stderr and raises SystemExit(2)."""
    argv = list(argv)
    positionals, extras = [], []
    max_degree, sigma, exit_zero = 5, "nakayama", False
    literal = False
    # the index just past the last positional read
    after_positional = 0
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if literal:
            found = None
        elif arg == "--":
            literal = True
            # argparse hands the `--` to a positional read next to it; one
            # that follows an option after both positionals is left over
            if len(positionals) == 2 and after_positional != i - 1:
                extras.append(arg)
            continue
        else:
            found = _option(arg)
        if found is None:
            if not positionals and arg not in COMMANDS:
                _usage_error(f"invalid command {arg!r} (choose from "
                             f"{', '.join(sorted(COMMANDS))})")
            (positionals if len(positionals) < 2 else extras).append(arg)
            after_positional = i
            continue
        option, value = found
        if option is None:
            extras.append(arg)
        elif option in ("-h", "--help", "--exit-zero"):
            if value is not None:
                _usage_error(f"{option}: ignored explicit argument {value!r}")
            if option == "--exit-zero":
                exit_zero = True
                continue
            # argparse refuses an ambiguous option before it reads any
            for later in argv[i:]:
                if later == "--":
                    break
                _option(later)
            sys.stdout.write(HELP + "\n")
            raise SystemExit(0)
        else:
            if value is None:
                if i == len(argv) or argv[i] == "--" or _option(argv[i]):
                    _usage_error(f"{option}: expected one argument")
                value = argv[i]
                i += 1
            if option == "--sigma":
                if value not in SIGMA_MODES:
                    _usage_error(f"--sigma: invalid choice {value!r} (choose "
                                 f"from {', '.join(SIGMA_MODES)})")
                sigma = value
            else:
                try:
                    max_degree = int(value)
                except ValueError:
                    _usage_error(f"--max-degree: invalid int value {value!r}")
    if len(positionals) < 2:
        _usage_error("the following arguments are required: "
                     + ", ".join(("command", "file")[len(positionals):]))
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return Args(*positionals, max_degree, sigma, exit_zero)


def _error(args, message: str, code: int) -> int:
    """Print the error report of a failed run and return its exit code."""
    print(json.dumps({"status": "error", "error": message,
                      "command": args.command}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.max_degree < 2:
        return _error(args, "--max-degree must be at least 2", 2)
    if args.max_degree > MAX_DEGREE:
        return _error(args, f"--max-degree must be at most {MAX_DEGREE}", 3)
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
    print(dumps_report(report))
    if passed or args.exit_zero:
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
