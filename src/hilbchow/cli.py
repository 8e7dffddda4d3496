"""Command-line frontend.

Each subcommand takes only the options `COMMANDS` lists for it, and
`_OPTIONS` declares each option once.  Results print in canonical text
form on stdout and timing on stderr, so stdout stays byte-stable.  Exit
codes: 0 success, 2 malformed input or arguments, 3 precondition
violation, 4 budget exceeded; each error is one `error: ` line on stderr.
A request is parsed by its subcommand's own parser; the top-level parser
only sees an argv that does not start with a command.
Loading this module loads only `errors` and `fields`; each handler
imports what it calls, so a process loads the modules its command runs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import BUDGET_ENV, BudgetExceededError, ParseError, PreconditionError
from .fields import field_from_header, parse_int


def _read_input(value):
    "File contents when `value` names a file, else the literal text; `|` splits lines."
    if os.path.exists(value):
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    return value.replace("|", "\n")


def _field_of(args):
    "The --field label, Q (the default) or F<p>, read as a `field` header."
    label = "Q" if args.field is None else args.field.strip().upper()
    if label.startswith("F"):
        label = "F " + label[1:]
    return field_from_header("field " + label)


def _presentation(args):
    from .repvariety import AlgebraPresentation
    return AlgebraPresentation.from_text(_read_input(args.presentation))


def _point(args, pres, k=0, pointed=False):
    """The k-th --point, validated against pres: a RepPoint, or with
    `pointed` a PointedRep, which needs a vec line."""
    from .cyclic import PointedRep
    from .repvariety import RepPoint, is_representation, parse_point_body
    fld, mats, vec = parse_point_body(_read_input(args.point[k]))
    if fld != pres.field:
        raise PreconditionError("point and presentation use different fields")
    if not is_representation(pres, mats):
        raise PreconditionError("matrices do not satisfy the relations")
    rep = RepPoint(fld, mats)
    if not pointed:
        return rep
    if vec is None:
        raise ParseError("this command needs a point with a vec line")
    return PointedRep(rep, vec)


class _Parser(argparse.ArgumentParser):
    "An argument parser whose errors are ParseErrors, so `main` prints one line."

    def error(self, message):
        raise ParseError(message)


def _glue_values(argv):
    "`--opt -x1` as `--opt=-x1`: argparse would take -x1 for an option."
    out = []
    for tok in sys.argv[1:] if argv is None else argv:
        if (tok[:1] == "-" and tok[1:2] != "-" and out
                and out[-1][:2] == "--" and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None):
    try:
        argv, parser = _glue_values(argv), _build_parser()
        sub = parser.commands.get(argv[0]) if argv else None
        args = sub.parse_args(argv[1:]) if sub else parser.parse_args(argv)
        if args.points and len(args.point) != args.points:
            raise ParseError(f"{args.command} needs --point "
                             f"{'once' if args.points == 1 else 'twice'}")
        sys.stdout.write(args.handler(args))
        return 0
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ParseError, PreconditionError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (4 if isinstance(exc, BudgetExceededError) else
                3 if isinstance(exc, PreconditionError) else 2)


@functools.cache
def _build_parser():
    "The parser, built on first use; `commands` maps each subcommand to its own."
    parser = _Parser(prog="hilbchow",
                     description="exact computations on representation schemes, "
                                 "Hilbert-scheme points and their norm images")
    sub = parser.add_subparsers(required=True, metavar="command", dest="command")
    for name, (handler, options, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.register("type", int, parse_int)  # `type=int` reads ASCII 0-9 only
        options = options.split()
        for opt in dict.fromkeys(options):
            key = opt.strip("[]")
            required = opt == key and _OPTIONS[key].get("required", False)
            p.add_argument("--" + key, **{**_OPTIONS[key], "required": required})
        p.set_defaults(command=name, handler=handler, points=options.count("point"))
    parser.commands = sub.choices
    return parser


def _cmd_rep_ideal(args):
    from .repvariety import rep_ideal
    return rep_ideal(_presentation(args), args.n).to_text()


def _cmd_check_rep(args):
    from .repvariety import is_representation, parse_point_body
    pres = _presentation(args)
    fld, mats, _vec = parse_point_body(_read_input(args.point[0]))
    if fld != pres.field:
        raise PreconditionError("point and presentation use different fields")
    ok = is_representation(pres, mats)
    return f"is-representation {'true' if ok else 'false'}\n"


def _cmd_cyclic(args):
    from .cyclic import require_cyclic
    pt = _point(args, _presentation(args), pointed=True)
    return f"cyclic true\nspan-dim {len(require_cyclic(pt)[0])}\n"


def _cmd_triple_to_ideal(args):
    from .cyclic import triple_to_ideal
    return triple_to_ideal(_point(args, _presentation(args), pointed=True)).to_text()


def _cmd_ideal_to_triple(args):
    from .cyclic import IdealPresentation, ideal_to_triple
    from .repvariety import is_representation
    pt = ideal_to_triple(IdealPresentation.from_text(_read_input(args.point[0])))
    if args.presentation and not is_representation(_presentation(args), pt.rep.mats):
        raise PreconditionError(
            "action matrices do not satisfy the presentation relations")
    return pt.to_text()


def _cmd_equiv(args):
    from .cyclic import triples_equivalent
    from .repvariety import matrix_row_text
    pres = _presentation(args)
    g = triples_equivalent(_point(args, pres, 0, pointed=True),
                           _point(args, pres, 1, pointed=True))
    if g is None:
        return "equivalent none\n"
    return "equivalent\ng " + matrix_row_text(pres.field, g) + "\n"


def _cmd_stab(args):
    from .cyclic import stabilizer_is_trivial
    ok = stabilizer_is_trivial(_point(args, _presentation(args), pointed=True))
    return f"stabilizer-trivial {'true' if ok else 'false'}\n"


def _cmd_invariants(args):
    from .repvariety import invariant_table
    return invariant_table(_point(args, _presentation(args)), args.max_len).to_text()


def _cmd_gamma(args):
    from .divpow import gamma_n
    from .ncpoly import parse_nc_poly
    return gamma_n(parse_nc_poly(args.expr, _field_of(args)), args.n).to_text()


def _cmd_dp_normalize(args):
    from .divpow import parse_dp_expr
    return parse_dp_expr(args.expr, _field_of(args)).to_text()


def _cmd_law_coeffs(args):
    from .ncpoly import parse_nc_poly
    from .normpoints import law_coefficients
    pres = _presentation(args)
    rep = _point(args, pres)
    if args.law_args is not None:
        polys = [parse_nc_poly(tok.strip(), pres.field, pres.m)
                 for tok in args.law_args.split(";")]
    else:
        polys = [pres.generator(k) for k in range(pres.m)]
    return law_coefficients(rep, polys).to_text()


def _cmd_hc(args):
    from .normpoints import hc_point
    pt = _point(args, _presentation(args), pointed=True)
    return hc_point(pt, args.max_len).to_text()


def _cmd_det_point(args):
    from .normpoints import det_point
    return det_point(_point(args, _presentation(args)), args.max_len).to_text()


def _cmd_cycle(args):
    from .normpoints import cycle_extract
    pres = _presentation(args)
    if not pres.is_commutative:
        raise PreconditionError("cycle extraction needs a commutative presentation")
    return cycle_extract(_point(args, pres)).to_text()


def _cmd_enumerate(args):
    from .counting import enumerate_points
    report = enumerate_points(_presentation(args), args.n, budget=args.budget,
                              workers=args.workers)
    print(f"elapsed {report.elapsed_ms} ms", file=sys.stderr)
    return report.to_text(include_elapsed=False)


# each option's argparse spec; a command that lists a required option in
# brackets takes it as optional
_OPTIONS = {
    "presentation": dict(required=True, help="presentation file or inline text"),
    "point": dict(required=True, action="append",
                  help="point file or inline text (twice for equiv)"),
    "field": dict(help="base field: Q or F<p> (default Q)"),
    "n": dict(type=int, required=True, help="matrix dimension or degree"),
    "max-len": dict(type=int, help="word-length bound for tables"),
    "budget": dict(type=int, help=f"candidate budget (default ${BUDGET_ENV} or 2^30)"),
    "workers": dict(type=int, default=1, help="worker processes (default 1)"),
    "expr": dict(required=True, help="polynomial or divided-power expression"),
    "args": dict(dest="law_args", help="semicolon-separated argument polynomials"),
}


# subcommand -> (handler, the options it reads, help line); `--point` must be
# given exactly as often as `point` is listed, so twice for equiv only
COMMANDS = {
    "rep-ideal": (_cmd_rep_ideal, "presentation n",
                  "defining ideal of the representation scheme"),
    "check-rep": (_cmd_check_rep, "presentation point",
                  "test whether matrices satisfy the relations"),
    "cyclic": (_cmd_cyclic, "presentation point",
               "assert that the marked vector is cyclic"),
    "triple-to-ideal": (_cmd_triple_to_ideal, "presentation point",
                        "left-ideal presentation of a cyclic point"),
    "ideal-to-triple": (_cmd_ideal_to_triple, "point [presentation]",
                        "pointed representation carried by an ideal presentation"),
    "equiv": (_cmd_equiv, "presentation point point",
              "intertwiner between two pointed representations"),
    "stab": (_cmd_stab, "presentation point",
             "check that the stabilizer of a cyclic point is trivial"),
    "invariants": (_cmd_invariants, "presentation point max-len",
                   "trace-word table of a representation point"),
    "gamma": (_cmd_gamma, "expr n field", "divided power of a free-algebra element"),
    "dp-normalize": (_cmd_dp_normalize, "expr field",
                     "normal form of a divided-power expression"),
    "law-coeffs": (_cmd_law_coeffs, "presentation point args",
                   "coefficient table of det on given arguments"),
    "hc": (_cmd_hc, "presentation point max-len",
           "norm image of a Hilbert-scheme point"),
    "det-point": (_cmd_det_point, "presentation point max-len",
                  "norm image of a representation point"),
    "cycle": (_cmd_cycle, "presentation point",
              "0-cycle of a commuting split representation"),
    "enumerate": (_cmd_enumerate, "presentation n budget workers",
                  "full point count over a prime field"),
}


if __name__ == "__main__":
    sys.exit(main())
