"""Command-line front end.

Subcommands: dims, nodes, eval, poly, verify.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 I/O failure.  Floats are printed
with %.17g, except `verify`'s errors and tolerances (%.3e); `poly` gives
each coefficient as exact num/den ints.  Identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from . import lattice
from .chebyshev import cheb_poly, poly_to_json_dict
from .cubature import RULE_KINDS, make_rule, rule_to_csv, rule_to_json
from .gentrig import TrigFamily
from .jsonio import dumps as json_dumps, format_float
from .sturm import WeightParams, eigen_poly, jacobi_poly
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _join_negative_values(argv) -> list:
    """argv with each token that starts with - and a digit or a point joined
    to the long option before it, `--x -1e3` as `--x=-1e3`: argparse reads
    only -5 and -0.5 as numbers, and -1e3 as an option name."""
    out = []
    for token in argv:
        if out and re.match(r"-[\d.]", token) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _write(text: str, out) -> int:
    """Write text to the file out, or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_dims(args) -> int:
    print("n dim_pi_star cc sc cs ss")
    for n in range(1, args.n + 1):
        sizes = [len(lattice.enum_gamma(f, n)) for f in TrigFamily]
        print(f"{n} {lattice.dim_pi_star(n)} " + " ".join(str(s) for s in sizes))
    return EXIT_OK


def cmd_nodes(args) -> int:
    rule = make_rule(args.rule, args.n)
    text = rule_to_json(rule) + "\n" if args.format == "json" else rule_to_csv(rule)
    return _write(text, args.out)


def cmd_eval(args) -> int:
    """Print the value of one family polynomial at (x, y): the exact sum
    of the exact member at the floats x and y, rounded once, where the
    member at general parameters is the one at their binary values;
    ValueError from `format_float`, with nothing printed, where that is
    beyond the float range."""
    p, k = WeightParams(args.alpha, args.beta), (args.k1, args.k2)
    poly = cheb_poly(p, k) if p.family is not None else eigen_poly(WeightParams(*p.key()), k)
    print(format_float(poly.exact_value(args.x, args.y)))
    return EXIT_OK


def cmd_poly(args) -> int:
    p, k = WeightParams(args.alpha, args.beta), (args.k1, args.k2)
    poly = (cheb_poly if p.family is not None else jacobi_poly)(p, k)
    text = json_dumps(poly_to_json_dict(p, k, poly)) + "\n"
    return _write(text, args.out)


def cmd_verify(args) -> int:
    checks = run_suite(args.suite, n=args.n, tol=args.tol)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name} max_error={check.max_error:.3e} tol={check.tol:.3e} {status}")
    failed = not all(c.passed for c in checks)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="g2cub",
        description="Triangle trigonometric transforms, Chebyshev-type "
        "polynomials and cubature rules on the deltoid domain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dims = sub.add_parser("dims", help="dimension and index-set size table")
    p_dims.add_argument("--n", type=int, required=True, help="largest degree")
    p_dims.set_defaults(fn=cmd_dims)

    p_nodes = sub.add_parser("nodes", help="export a cubature rule")
    p_nodes.add_argument("--rule", choices=RULE_KINDS, required=True)
    p_nodes.add_argument("--n", type=int, required=True)
    p_nodes.add_argument("--format", choices=("json", "csv"), default="json")
    p_nodes.add_argument("--out", default=None)
    p_nodes.set_defaults(fn=cmd_nodes)

    member = argparse.ArgumentParser(add_help=False)  # the member of `eval` and `poly`
    member.add_argument("--alpha", type=_finite_float, required=True)
    member.add_argument("--beta", type=_finite_float, required=True)
    member.add_argument("--k1", type=int, required=True)
    member.add_argument("--k2", type=int, required=True)

    p_eval = sub.add_parser("eval", parents=[member], help="evaluate one family polynomial")
    p_eval.add_argument("--x", type=_finite_float, required=True)
    p_eval.add_argument("--y", type=_finite_float, required=True)
    p_eval.set_defaults(fn=cmd_eval)

    p_poly = sub.add_parser("poly", parents=[member], help="emit one polynomial as JSON")
    p_poly.add_argument("--out", default=None)
    p_poly.set_defaults(fn=cmd_poly)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--tol", type=_finite_float, default=None)
    p_verify.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    if getattr(args, "n", None) is not None and args.n < 1:
        print("error: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
