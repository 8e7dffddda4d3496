"""Command-line frontend.

Every subcommand prints the canonical text form of its result on
stdout.  Exit codes: 0 success, 2 malformed input, 3 precondition
violation, 4 budget exceeded.  Timing goes to stderr so stdout stays
byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .counting import BUDGET_ENV, enumerate_points
from .cyclic import (IdealPresentation, PointedRep, ideal_to_triple,
                     require_cyclic, stabilizer_is_trivial, triple_to_ideal,
                     triples_equivalent)
from .divpow import gamma_n, parse_dp_expr
from .errors import BudgetExceededError, ParseError, PreconditionError
from .fields import QQ, GF, field_from_header
from .ncpoly import parse_nc_poly
from .normpoints import cycle_extract, det_point, hc_point, law_coefficients
from .repvariety import (AlgebraPresentation, RepPoint, invariant_table,
                         is_representation, matrix_row_text, parse_point_body,
                         rep_ideal)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4


def _read_input(value):
    "File contents when `value` names a file, else the literal text; `|` splits lines."
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value.replace("|", "\n")


def _field_of(args):
    if args.field is None:
        return QQ
    label = args.field.strip()
    if label in ("Q", "q"):
        return QQ
    if label.upper().startswith("F"):
        try:
            return GF(int(label[1:]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return field_from_header("field " + label)


def _presentation(args):
    if args.presentation is None:
        raise ParseError("this command needs --presentation")
    return AlgebraPresentation.from_text(_read_input(args.presentation))


def _checked_point(text, pres):
    "(RepPoint, vec or None) from a point block, validated against pres."
    fld, mats, vec = parse_point_body(text)
    if fld != pres.field:
        raise PreconditionError("point and presentation use different fields")
    if len(mats) != pres.m:
        raise PreconditionError(
            f"point has {len(mats)} matrices but the presentation has {pres.m} generators")
    if not is_representation(pres, mats):
        raise PreconditionError("matrices do not satisfy the relations")
    return RepPoint(fld, mats), vec


def _first_point_text(args):
    if not args.point:
        raise ParseError("this command needs --point")
    return _read_input(args.point[0])


def _rep_arg(args, pres):
    rep, _vec = _checked_point(_first_point_text(args), pres)
    return rep


def _pointed_arg(args, pres, text=None):
    rep, vec = _checked_point(text or _first_point_text(args), pres)
    if vec is None:
        raise ParseError("this command needs a point with a vec line")
    return PointedRep(rep, vec)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.handler(args)
        if out:
            sys.stdout.write(out)
        return EXIT_OK
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


@functools.cache
def _build_parser():
    "The argument parser, built on first use and shared by every `main` call."
    parser = argparse.ArgumentParser(
        prog="hilbchow",
        description="exact computations on representation schemes, "
                    "Hilbert-scheme points and their norm images")
    sub = parser.add_subparsers(required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--presentation", help="presentation file or inline text")
        p.add_argument("--point", action="append", default=[],
                       help="point file or inline text (repeatable)")
        p.add_argument("--field", help="base field: Q or F<p> (default Q)")
        p.add_argument("--n", type=int, help="matrix dimension")
        p.add_argument("--max-len", type=int, dest="max_len",
                       help="word-length bound for tables")
        p.add_argument("--budget", type=int,
                       help=f"candidate budget (default ${BUDGET_ENV} or 2^30)")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--expr", help="polynomial or divided-power expression")
        p.add_argument("--args", dest="law_args",
                       help="semicolon-separated argument polynomials")
        p.set_defaults(handler=handler)
        return p

    add("rep-ideal", _cmd_rep_ideal, "defining ideal of the representation scheme")
    add("check-rep", _cmd_check_rep, "test whether matrices satisfy the relations")
    add("cyclic", _cmd_cyclic, "assert that the marked vector is cyclic")
    add("triple-to-ideal", _cmd_triple_to_ideal,
        "left-ideal presentation of a cyclic point")
    add("ideal-to-triple", _cmd_ideal_to_triple,
        "pointed representation carried by an ideal presentation")
    add("equiv", _cmd_equiv, "intertwiner between two pointed representations")
    add("stab", _cmd_stab, "check that the stabilizer of a cyclic point is trivial")
    add("invariants", _cmd_invariants, "trace-word table of a representation point")
    add("gamma", _cmd_gamma, "divided power of a free-algebra element")
    add("dp-normalize", _cmd_dp_normalize, "normal form of a divided-power expression")
    add("law-coeffs", _cmd_law_coeffs, "coefficient table of det on given arguments")
    add("hc", _cmd_hc, "norm image of a Hilbert-scheme point")
    add("det-point", _cmd_det_point, "norm image of a representation point")
    add("cycle", _cmd_cycle, "0-cycle of a commuting split representation")
    add("enumerate", _cmd_enumerate, "full point count over a prime field")
    return parser


def _require_n(args):
    if args.n is None:
        raise ParseError("this command needs --n")
    if args.n < 1:
        raise PreconditionError("dimension must be at least 1")
    return args.n


def _cmd_rep_ideal(args):
    pres = _presentation(args)
    return rep_ideal(pres, _require_n(args)).to_text()


def _cmd_check_rep(args):
    pres = _presentation(args)
    if not args.point:
        raise ParseError("this command needs --point")
    fld, mats, _vec = parse_point_body(_read_input(args.point[0]))
    if fld != pres.field:
        raise PreconditionError("point and presentation use different fields")
    ok = is_representation(pres, mats)
    return f"is-representation {'true' if ok else 'false'}\n"


def _cmd_cyclic(args):
    pres = _presentation(args)
    pt = _pointed_arg(args, pres)
    return f"cyclic true\nspan-dim {len(require_cyclic(pt)[0])}\n"


def _cmd_triple_to_ideal(args):
    pres = _presentation(args)
    return triple_to_ideal(_pointed_arg(args, pres)).to_text()


def _cmd_ideal_to_triple(args):
    if not args.point:
        raise ParseError("this command needs --point with an ideal presentation")
    ip = IdealPresentation.from_text(_read_input(args.point[0]))
    pt = ideal_to_triple(ip)
    if args.presentation:
        pres = _presentation(args)
        if not is_representation(pres, pt.rep.mats):
            raise PreconditionError(
                "action matrices do not satisfy the presentation relations")
    return pt.to_text()


def _cmd_equiv(args):
    pres = _presentation(args)
    if len(args.point) != 2:
        raise ParseError("equiv needs --point twice")
    p1 = _pointed_arg(args, pres, _read_input(args.point[0]))
    p2 = _pointed_arg(args, pres, _read_input(args.point[1]))
    g = triples_equivalent(p1, p2)
    if g is None:
        return "equivalent none\n"
    return "equivalent\ng " + matrix_row_text(pres.field, g) + "\n"


def _cmd_stab(args):
    pres = _presentation(args)
    ok = stabilizer_is_trivial(_pointed_arg(args, pres))
    return f"stabilizer-trivial {'true' if ok else 'false'}\n"


def _cmd_invariants(args):
    pres = _presentation(args)
    return invariant_table(_rep_arg(args, pres), args.max_len).to_text()


def _cmd_gamma(args):
    if args.expr is None:
        raise ParseError("gamma needs --expr")
    n = _require_n(args)
    fld = _field_of(args)
    poly = parse_nc_poly(args.expr, fld)
    return gamma_n(poly, n).to_text()


def _cmd_dp_normalize(args):
    if args.expr is None:
        raise ParseError("dp-normalize needs --expr")
    fld = _field_of(args)
    return parse_dp_expr(args.expr, fld).to_text()


def _cmd_law_coeffs(args):
    pres = _presentation(args)
    rep = _rep_arg(args, pres)
    if args.law_args:
        polys = [parse_nc_poly(tok.strip(), pres.field, pres.m)
                 for tok in args.law_args.split(";")]
    else:
        polys = [pres.generator(k) for k in range(pres.m)]
    return law_coefficients(rep, polys).to_text()


def _cmd_hc(args):
    pres = _presentation(args)
    return hc_point(_pointed_arg(args, pres), args.max_len).to_text()


def _cmd_det_point(args):
    pres = _presentation(args)
    return det_point(_rep_arg(args, pres), args.max_len).to_text()


def _cmd_cycle(args):
    pres = _presentation(args)
    if not pres.is_commutative:
        raise PreconditionError(
            "cycle extraction needs a commutative presentation")
    return cycle_extract(_rep_arg(args, pres)).to_text()


def _cmd_enumerate(args):
    pres = _presentation(args)
    report = enumerate_points(pres, _require_n(args), budget=args.budget,
                              workers=args.workers)
    print(f"elapsed {report.elapsed_ms} ms", file=sys.stderr)
    return report.to_text(include_elapsed=False)


if __name__ == "__main__":
    sys.exit(main())
