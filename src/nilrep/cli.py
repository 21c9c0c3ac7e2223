"""Command-line interface.

    nilrep analyze --group "H3" --target "SL2" [--json]
    nilrep poincare --group "Z^2" --target "Sp4"
    nilrep pi1 --group "H3" --target "GL2"
    nilrep connectivity --group "F(2,3)" --target "Sp4"
    nilrep homcount --group "H3" [--finite q8]
    nilrep bound --m 3
    nilrep selftest

Exit codes: 0 success, 2 parse error, 3 unsupported or too large; 1,
without a traceback, when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import NilrepError, ParseError
from .finitehom import (central_image_order_bound, connectivity_verdict,
                        cyclic, dihedral, enumerate_homs, q8)
from .groups import AbelianInvariants, abelianize
from .invariants import poincare_char_variety, poincare_hom_component
from .parsing import parse_group_spec, parse_reductive_spec
from .report import analyze
from .rootdata import build_root_datum, pi1_G, pi1_G_ab
from . import selftest as _selftest


def _emit(payload: dict, args) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))


def _positive(option: str, value: int) -> int:
    if value < 1:
        raise ParseError("%s must be at least 1, got %d" % (option, value), 0,
                         ("integer >= 1",))
    return value


def _finite_target(name: str):
    if name == "q8":
        return q8()
    size = 0
    if name[1:].isdecimal():
        try:
            size = int(name[1:])
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("finite group order has too many digits", 1,
                             ("integer",)) from None
    if name.startswith("c") and size >= 1:
        return cyclic(size)
    if name.startswith("d") and size >= 1:
        return dihedral(size)
    raise ParseError("unknown finite group %r" % name, 0,
                     ("q8", "cN", "dN with N >= 1"))


def _cmd_analyze(args) -> int:
    report = analyze(parse_group_spec(args.group),
                     parse_reductive_spec(args.target))
    if args.json:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    else:
        print(report.to_text())
    return 0


def _cmd_poincare(args) -> int:
    g = parse_group_spec(args.group)
    spec = parse_reductive_spec(args.target)
    rd = build_root_datum(spec)
    r = abelianize(g).rank
    hom = poincare_hom_component(rd, r)
    char = poincare_char_variety(rd, r)
    _emit({"group": str(g), "target": str(spec), "r": r,
           "poincare_hom": list(hom.coefficients) if args.json else str(hom),
           "poincare_char": list(char.coefficients) if args.json else str(char)},
          args)
    return 0


def _cmd_pi1(args) -> int:
    g = parse_group_spec(args.group)
    spec = parse_reductive_spec(args.target)
    rd = build_root_datum(spec)
    r = abelianize(g).rank
    hom = pi1_G(rd).self_power(r)
    char_rank = pi1_G_ab(rd) * r
    if args.json:
        _emit({"group": str(g), "target": str(spec), "r": r,
               "pi1_hom": {"rank": hom.rank, "torsion": list(hom.torsion)},
               "pi1_char": {"rank": char_rank, "torsion": []}}, args)
    else:
        print("pi_1 of Hom(%s, %s)_1: %s" % (g, spec, hom))
        print("pi_1 of the character variety: %s"
              % AbelianInvariants(char_rank))
    return 0


def _cmd_connectivity(args) -> int:
    g = parse_group_spec(args.group)
    spec = parse_reductive_spec(args.target)
    verdict = connectivity_verdict(g, spec)
    payload = {"group": str(g), "target": str(spec),
               "status": verdict.status, "reason": verdict.reason}
    if args.json:   # as in the analyze report
        payload["reason_code"] = verdict.reason_code
    if verdict.witness is not None:
        labels = q8().labels
        payload["witness"] = [labels[i] for i in verdict.witness]
    _emit(payload, args)
    return 0


def _cmd_homcount(args) -> int:
    g = parse_group_spec(args.group)
    target = _finite_target(args.finite)
    result = enumerate_homs(g, target)
    payload = {"group": str(g), "finite_target": target.name,
               "total": result.total, "surjective": result.surjective}
    if result.witness is not None:
        names = result.presentation.generator_names()
        payload["witness"] = ["%s -> %s" % (names[k], target.labels[v])
                              for k, v in enumerate(result.witness)]
    _emit(payload, args)
    return 0


def _cmd_bound(args) -> int:
    m = _positive("--m", args.m)
    _emit({"m": m, "bound": central_image_order_bound(m)}, args)
    return 0


def _cmd_selftest(args) -> int:
    return _selftest.run()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves no state in it, so in-process callers of main() do not
    rebuild it each time; the commands read this module's functions
    (parse_group_spec, analyze, ...) when they run, not when it is built.
    """
    parser = argparse.ArgumentParser(
        prog="nilrep",
        description="Topology of representation and character varieties of "
                    "finitely generated nilpotent groups in reductive groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, target=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True,
                       help="group DSL, e.g. 'H3', 'F(2,3)', 'Z^2', "
                            "'<x,y | [x,y]>'")
        if target:
            p.add_argument("--target", required=True,
                           help="reductive DSL, e.g. 'SL2', 'GL3 x T2'")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=fn)
        return p

    add("analyze", _cmd_analyze, "full report for one pair")
    add("poincare", _cmd_poincare, "the two Poincare polynomials")
    add("pi1", _cmd_pi1, "fundamental groups of both spaces")
    add("connectivity", _cmd_connectivity, "connectivity verdict")
    p = add("homcount", _cmd_homcount,
            "count homomorphisms into a finite group", target=False)
    p.add_argument("--finite", default="q8", metavar="F",
                   help="finite target: q8, cN (cyclic), dN (dihedral)")
    p = sub.add_parser("bound", help="explicit central-image order bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)
    p = sub.add_parser("selftest", help="run the built-in sanity checks")
    p.set_defaults(func=_cmd_selftest, json=False)
    return parser


def main(argv=None) -> int:
    try:
        code = _run(build_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe early (`nilrep ... | head`); send
        # the rest, and the flush at interpreter exit, to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(args) -> int:
    try:
        return args.func(args)
    except ParseError as exc:
        _report_error(args, "parse", exc)
        return 2
    except NilrepError as exc:
        _report_error(args, type(exc).__name__, exc)
        return 3


def _report_error(args, kind, exc) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": {"type": kind, "message": str(exc)}},
                         sort_keys=True, indent=2))
    else:
        print("error (%s): %s" % (kind, exc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
