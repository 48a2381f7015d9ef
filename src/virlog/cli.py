"""Command-line front end.

Exit codes: 0 success, 1 bad input or a computation that raises one of the
package's own error types, 2 a failing fixture under `fixture` or `report`.
All numeric flags take exact rationals ("p/q" or an integer literal);
decimals are rejected at parse time.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from .errors import DomainError, VirlogError
from .fusion import (
    MAX_LEVEL,
    EulerOperator,
    LogSeries,
    determine_b,
    fusion_indicial,
    ope_level2_coefficient,
    solve_euler,
)
from .modules import (
    JordanVermaModule,
    _hom_certificate,
    partitions,
    radical_dimension,
    shapovalov_determinant,
    shapovalov_matrix,
    singular_vectors,
)
from .rational import parse_rational
from .serialize import serialize
from .wlog import _COCYCLES, CENTRAL, _cocycle_fn, check_jacobi, vacuum_expectation, wlog_bracket

# Largest accepted sizes.  A level basis holds --jordan times the
# partition count of --level vectors, and the Jacobi scan visits about
# (2 * bound + 1)^6 / 6 generator triples.  The residue cocycle's integers
# grow with the log indices and modes of its generators, and a vacuum
# expectation's work grows about fivefold per factor of its word: the
# slowest words found by a local search take 0.5 s at 7 factors, 2 s at 8
# and 10 s at 9 (shared 2-core x86-64 host, Python 3.11).  A symbolic
# determinant's time grows steeply with its row count: at 15 rows level 7
# takes about 6 s, 22 rows (level 6, jordan 2) about 39 s.  An euler-solve
# operator's largest derivative order is the degree of its indicial
# polynomial: the slowest root finding found, on the close rational roots
# (10^12 + k)/(10^6 + 1), k = 1..n, takes 0.18 s at degree 32 (also the
# whole euler-solve) and 1.7 s at 64.  The solve's work grows with the rhs
# log power: x^(1/2) log(x)^64 on a degree-32 operator takes 0.3-0.5 s
# with roots 1..32 or k/7, but 9.6 s with the close roots, whose result
# is then too long to print (2-core x86-64, Python 3.11).  Its
# coefficients need no cap of their own: the parser refuses an int
# literal above the interpreter's 4,300-digit limit (see
# rational.parse_rational), and root finding grows
# about quadratically in the digits, so (s - N)(s - N - 1) with a
# 4,299-digit constant term, near the largest, takes about 0.8 s.  The cap
# on --level is fusion.MAX_LEVEL.
MAX_JORDAN = 4
MAX_SYMBOLIC_DET_ROWS = 15  # on --jordan times the partition count of --level
MAX_JACOBI_LEVEL = 4
MAX_WLOG_INDEX = 64  # on |i| and |m| of a generator i:m
MAX_VEV_WORD = 8
MAX_EULER_ORDER = 32  # on the largest dorder of an euler-solve operator
MAX_LOG_POWER = 64  # on the largest logpower of an euler-solve rhs


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let negative rationals like -1/8 and generator tokens like -1:-2
        # pass as values instead of being read as option names
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+|:-?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _rational(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except VirlogError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _generator(token: str):
    """Generator token: "i:m" for t^(i)(m), or "b" for the central element."""
    if token == "b":
        return CENTRAL
    head, sep, tail = token.partition(":")
    if sep:
        try:
            return (int(head), int(tail))
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(
        f"expected i:m with integer index and mode, or b, got {token!r}"
    )


def _finish_verb(sub, handler, **defaults):
    """Add the output flags every verb takes, last, and the verb's handler
    and defaults: the verb's parser holds its whole namespace."""
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument("--out", metavar="FILE", help="write the document to FILE")
    sub.set_defaults(handler=handler, **defaults)


def _add_module_flags(sub, symbolic: bool):
    sub.add_argument("--level", type=int, required=True)
    sub.add_argument("--jordan", type=int, default=1)
    sub.add_argument("--c", type=_rational)
    sub.add_argument("--h", type=_rational)
    if symbolic:
        sub.add_argument("--symbolic", action="store_true")


def _check_cap(flag: str, value, cap: int) -> None:
    if value is not None and value > cap:
        raise DomainError(f"{flag} {value} is above the limit {cap}")


def _check_generators(gens) -> None:
    for gen in gens:
        if gen != CENTRAL:
            i, m = gen
            _check_cap("log index |i|", abs(i), MAX_WLOG_INDEX)
            _check_cap("mode |m|", abs(m), MAX_WLOG_INDEX)


def _module_from_args(args, max_symbolic_rows=None) -> JordanVermaModule:
    _check_cap("--level", args.level, MAX_LEVEL)
    _check_cap("--jordan", args.jordan, MAX_JORDAN)
    if getattr(args, "symbolic", False):
        if args.c is not None or args.h is not None:
            raise DomainError("--symbolic excludes numeric --c/--h")
        if max_symbolic_rows is not None:
            rows = args.jordan * len(partitions(args.level))
            _check_cap("symbolic rows", rows, max_symbolic_rows)
        return JordanVermaModule("c", "h", args.jordan)
    if args.c is None or args.h is None:
        raise DomainError("need both --c and --h, or --symbolic")
    return JordanVermaModule(args.c, args.h, args.jordan)


# -- verb handlers: return (payload, exit code) -----------------------------


def _cmd_shapovalov(args):
    return shapovalov_matrix(_module_from_args(args), args.level), 0


def _cmd_det(args):
    mod = _module_from_args(args, MAX_SYMBOLIC_DET_ROWS)
    return shapovalov_determinant(mod, args.level), 0


def _cmd_singular(args):
    return singular_vectors(_module_from_args(args), args.level), 0


def _cmd_radical(args):
    return radical_dimension(_module_from_args(args), args.level), 0


def _cmd_hom_check(args):
    mod = _module_from_args(args)
    if mod.jordan > 2:
        # refused up front, so the answer does not depend on the weight
        raise DomainError("homomorphism certificate needs a jordan-size-2 target")
    certified, dimension = _hom_certificate(mod, args.level)
    return {"certified": certified, "singular-dimension": dimension}, 0


def _cmd_fusion(args):
    _check_cap("--level", args.level, MAX_LEVEL)
    data = fusion_indicial(args.c, args.h1, args.h2, level=args.level)
    return data, 0


def _cmd_euler_solve(args):
    try:
        if args.input == "-":
            raw = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
        op = EulerOperator.from_json(doc["op"])
        rhs = LogSeries.from_json(doc["rhs"])
    except OSError as exc:
        raise DomainError(f"cannot read euler-solve input: {exc}") from None
    except (ValueError, KeyError, TypeError) as exc:
        # ValueError covers JSONDecodeError, undecodable bytes and an int
        # literal above the interpreter's digit limit
        raise DomainError(f"malformed euler-solve input: {exc}")
    _check_cap("dorder", max((j for _k, j in op.terms), default=0), MAX_EULER_ORDER)
    _check_cap("logpower", max((p for _r, p in rhs.terms), default=0), MAX_LOG_POWER)
    particular, homogeneous = solve_euler(op, rhs)
    return {"particular": particular, "homogeneous": homogeneous}, 0


def _cmd_ope_coeff(args):
    return ope_level2_coefficient(args.c, args.h), 0


def _cmd_determine_b(args):
    return determine_b(args.h), 0


def _cmd_fixture(args):
    from .fixtures import fixture_ids, report_table, run_fixture

    if args.id is None:
        ids = fixture_ids()
        return (ids if args.json else "\n".join(ids)), 0
    result = run_fixture(args.id)
    code = 2 if result.status == "fail" else 0
    if args.json:
        return result.to_json(), code
    return report_table([result]), code


def _cmd_report(args):
    from .fixtures import report_exit_code, report_table, run_all

    results = run_all()
    code = report_exit_code(results)
    if args.json:
        return [r.to_json() for r in results], code
    return report_table(results), code


def _cmd_wlog_bracket(args):
    _check_generators((args.left, args.right))
    return wlog_bracket(args.left, args.right, args.cocycle), 0


def _cmd_wlog_cocycle(args):
    _check_generators((args.left, args.right))
    return _cocycle_fn(args.cocycle)(args.left, args.right), 0


def _cmd_wlog_vev(args):
    _check_cap("vev word length", len(args.word), MAX_VEV_WORD)
    _check_generators(args.word)
    return vacuum_expectation(list(args.word), args.cocycle), 0


def _cmd_wlog_jacobi(args):
    _check_cap("--level", args.level, MAX_JACOBI_LEVEL)
    return check_jacobi(args.level, args.cocycle), 0


# -- parser wiring ----------------------------------------------------------


# the module verbs that differ only in help, --symbolic and handler
_MODULE_VERBS = (
    ("shapovalov", "Gram matrix of the level pairing", True, _cmd_shapovalov),
    ("det", "determinant of the level pairing", True, _cmd_det),
    ("singular", "basis of the singular vectors at a level", False, _cmd_singular),
    ("radical", "dimension of the pairing radical at a level", False, _cmd_radical),
)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="virlog", description=__doc__)
    subs = parser.add_subparsers(required=True, metavar="VERB")
    parser.verbs = subs.choices  # verb name -> its parser

    for verb, summary, symbolic, handler in _MODULE_VERBS:
        sub = subs.add_parser(verb, help=summary)
        _add_module_flags(sub, symbolic)
        _finish_verb(sub, handler)

    sub = subs.add_parser(
        "hom-check", help="certify a Jordan pair of singular vectors at a level"
    )
    _add_module_flags(sub, symbolic=False)
    _finish_verb(sub, _cmd_hom_check, jordan=2)

    sub = subs.add_parser("fusion", help="indicial data for a weight pair")
    sub.add_argument("--c", type=_rational, required=True)
    sub.add_argument("--h1", type=_rational, required=True)
    sub.add_argument("--h2", type=_rational, required=True)
    sub.add_argument("--level", type=int, default=None)
    _finish_verb(sub, _cmd_fusion, json=True)

    sub = subs.add_parser(
        "euler-solve",
        help='solve an Euler operator against a log series; input JSON {"op": ..., "rhs": ...}',
    )
    sub.add_argument("--input", metavar="FILE", default="-", help="JSON file, - for stdin")
    _finish_verb(sub, _cmd_euler_solve, json=True)

    sub = subs.add_parser("ope-coeff", help="level-2 descent coefficient 2h/c")
    sub.add_argument("--c", type=_rational, required=True)
    sub.add_argument("--h", type=_rational, required=True)
    _finish_verb(sub, _cmd_ope_coeff)

    sub = subs.add_parser("determine-b", help="two-point normalization from a weight")
    sub.add_argument("--h", type=_rational, required=True)
    _finish_verb(sub, _cmd_determine_b)

    sub = subs.add_parser("fixture", help="run one pinned fixture, or list them all")
    sub.add_argument("id", nargs="?", default=None)
    _finish_verb(sub, _cmd_fixture)

    sub = subs.add_parser("report", help="run every fixture and print the table")
    _finish_verb(sub, _cmd_report)

    wlog = subs.add_parser("wlog", help="logarithmic Witt algebra operations")
    wsubs = wlog.add_subparsers(required=True, metavar="OP")

    for op, summary, cocycle, handler in (
        ("bracket", "bracket of two generators i:m", "none", _cmd_wlog_bracket),
        ("cocycle", "cocycle value on two generators i:m", "residue", _cmd_wlog_cocycle),
    ):
        sub = wsubs.add_parser(op, help=summary)
        sub.add_argument("left", type=_generator)
        sub.add_argument("right", type=_generator)
        sub.add_argument("--cocycle", choices=list(_COCYCLES), default=cocycle)
        _finish_verb(sub, handler)

    sub = wsubs.add_parser(
        "vev", help="vacuum expectation of a word of generators (and b factors)"
    )
    sub.add_argument("word", nargs="*", type=_generator)
    sub.add_argument("--cocycle", choices=list(_COCYCLES), default="residue")
    _finish_verb(sub, _cmd_wlog_vev)

    sub = wsubs.add_parser("jacobi", help="scan the Jacobi identity up to a bound")
    sub.add_argument("--level", type=int, default=2, help="bound on |i| and |m|")
    sub.add_argument("--cocycle", choices=list(_COCYCLES), default="none")
    _finish_verb(sub, _cmd_wlog_jacobi)

    return parser


def _emit(document: str, out) -> None:
    if not document.endswith("\n"):
        document += "\n"
    if out is None:
        sys.stdout.write(document)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            raise DomainError(f"cannot write --out file: {exc}") from None


def _parse_args(argv):
    """The namespace of _build_parser().parse_args(argv), with the same
    output and exit on a usage error.  A verb-led argv goes straight to the
    verb's parser, whose namespace is the one the top parser would return:
    the top parser's pass over it would only hand it on.  Every other argv
    (help, no verb, an unknown verb, a leading option or `--`) is the top
    parser's."""
    parser = _build_parser()
    sub = parser.verbs.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    try:
        payload, code = args.handler(args)
        _emit(serialize(payload, "json" if args.json else "text"), args.out)
    except VirlogError as exc:
        sys.stderr.write(f"virlog: error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
