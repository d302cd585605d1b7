"""Command line interface.

Subcommands: verify (fixture certification), order (order certificate or
a chosen multiple of the marked point), jinv (discriminant and
j-invariant), scan (finite-field enumeration), irred (irreducibility
mod p).  Exit codes: 0 success or all checks pass, 1 mathematical
verification failure, 2 input or usage error, 3 work-budget or print-length refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

from .curves import CurveError, scalar_mul, tate_curve, verify_order
from .fields import FieldDescriptor, FieldError
from .fixtures import (
    FixtureError,
    field_certificate,
    load_fixture,
    report_record,
    shipped_fixture_paths,
    verify_fixtures,
)
from .polys import is_irreducible_mod_p
from .scan import DEFAULT_GONALITIES, BudgetError, _hit_lines, summary_record


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="x1torsion",
        description="Certify torsion orders on Tate curves over explicit fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify fixtures end to end")
    p_verify.add_argument("--fixtures", help="fixture file or directory (default: shipped)")
    p_verify.add_argument("--report", help="write the full report to this path")
    p_verify.set_defaults(func=cmd_verify)

    p_order = sub.add_parser("order", help="order certificate, or [k]P with --k")
    p_order.add_argument("--fixture", required=True)
    p_order.add_argument("--k", type=int, default=None)
    p_order.set_defaults(func=cmd_order)

    p_jinv = sub.add_parser("jinv", help="print disc and j for a fixture")
    p_jinv.add_argument("--fixture", required=True)
    p_jinv.set_defaults(func=cmd_jinv)

    p_scan = sub.add_parser("scan", help="enumerate (b, c) hits over F_{p^d}")
    p_scan.add_argument("--p", type=int, required=True)
    p_scan.add_argument("--ext", type=int, default=1, help="extension degree d")
    p_scan.add_argument("--order", type=int, required=True)
    p_scan.add_argument("--out", help="write hit records here instead of stdout")
    p_scan.set_defaults(func=cmd_scan)

    p_irred = sub.add_parser("irred", help="test irreducibility over F_p")
    p_irred.add_argument("--minpoly", required=True,
                         help="comma-separated integer coefficients, constant first")
    p_irred.add_argument("--p", type=int, required=True)
    p_irred.set_defaults(func=cmd_irred)

    parser.commands = sub.choices  # {name: subparser}, for main's one parse
    return parser


def _collect_fixture_paths(arg):
    if arg is None:
        paths = shipped_fixture_paths()
        if not paths:
            raise FixtureError("no shipped fixtures found")
        return paths
    path = Path(arg)
    if path.is_dir():
        found = sorted(path.glob("*.json"))
        if not found:
            raise FixtureError(f"no *.json fixtures in {path}")
        return found
    return [path]


def _check_output_path(path):  # called before any work and any output
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise ValueError(f"cannot write {path}: not a file path in an existing directory")


def _to_text(name, *xs):
    """to_text() of each x, joined by ", "; refused past sys.get_int_max_str_digits()."""
    try:
        return ", ".join(str(x.to_text()) for x in xs)
    except ValueError:
        raise BudgetError(f"{name} has more than {sys.get_int_max_str_digits()} digits, "
                          "the int to str conversion limit") from None


def cmd_verify(args):
    _check_output_path(args.report)
    fixtures = [load_fixture(p) for p in _collect_fixture_paths(args.fixtures)]
    report = verify_fixtures(fixtures)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        extra = ""
        if check.below_gonality is not None:
            rel = "<" if check.below_gonality else ">="
            extra = f" [degree {check.degree} {rel} gonality {check.gonality}]"
        print(f"{check.label}: {status} ({check.reason}){extra}")
    print(f"{report.pass_count} passed, {report.fail_count} failed")
    if args.report:
        Path(args.report).write_text(
            json.dumps(report_record(report), indent=2) + "\n", encoding="utf-8")
    return 0 if report.all_passed else 1


def _fixture_curve(path):
    fixture = load_fixture(path)
    return fixture, tate_curve(fixture.b, fixture.c)


def cmd_order(args):
    fixture, e = _fixture_curve(args.fixture)
    if field_certificate(fixture.b, fixture.c) is None:
        raise FieldError(f"Q(b, c) not certified as a field of degree {fixture.degree}")
    zero = fixture.b.descriptor.zero()
    point = e.point(zero, zero)
    n, k = fixture.expected_order, args.k
    # past n, [k]P is computed as [k mod n]P, once P is certified to have order n
    cert = verify_order(e, point, n) if k is None or abs(k) > n else None
    if k is None:
        print(cert)
        return 0 if cert.passed else 1
    if cert is not None and not cert.passed:
        raise BudgetError(f"[{k}]P has |k| > N = {n}, and P is not certified to have order {n} "
                          f"({cert.reason})")
    if cert is None and abs(k) > 4:
        # heights grow like k^2 (AEC VIII.9): the bits of [k]P's largest int lie
        # near the line in k^2 through [2]P's and [4]P's.  Past twice the print
        # limit (its default when it is off) refuse before the work; _to_text
        # refuses the rest of the unprintable
        two = scalar_mul(e, 2, point)
        bits2, bits4 = (0 if q.is_infinity else
                        max(v.bit_length() for z in (q.x, q.y) for v in (*z.flat, z.den))
                        for q in (two, scalar_mul(e, 2, two)))
        digits = (bits2 + (k * k - 4) * (bits4 - bits2) / 12) * math.log10(2)
        limit = sys.get_int_max_str_digits()
        budget = limit or sys.int_info.default_max_str_digits
        if digits > 2 * budget:
            raise BudgetError(f"[{k}]P would have about {digits:.0f} digits (extrapolated from "
                              f"[2]P and [4]P), past twice the int to str limit of {budget}"
                              + ("" if limit else " by default (the limit is off)"))
    m = scalar_mul(e, k if cert is None else k % n, point)
    print(f"[{k}]P = " + ("infinity" if m.is_infinity else f"({_to_text(f'[{k}]P', m.x, m.y)})"))
    return 0


def cmd_jinv(args):
    inv = _fixture_curve(args.fixture)[1].invariants
    disc = _to_text("disc", inv.disc)
    if inv.j is not None:
        j = _to_text("j", inv.j)
    elif inv.disc.is_zero():
        j = "undefined (disc = 0)"
    else:
        j = "undefined (disc is a zero divisor: the generators do not cut out a field)"
    print(f"disc = {disc}\nj = {j}")
    return 0


def cmd_scan(args):
    t0 = time.monotonic()
    _check_output_path(args.out)
    lines = _hit_lines(args.p, args.ext, args.order)  # low_degree_filter's rule, on ints
    if args.order not in DEFAULT_GONALITIES:
        print(f"note: no gonality bound for N={args.order}; output is unfiltered",
              file=sys.stderr)
    text = "".join(line + "\n" for line in lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    summary = summary_record(args.p, args.ext, lines, time.monotonic() - t0)
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_irred(args):
    try:
        coeffs = [int(part) for part in args.minpoly.split(",")]
    except ValueError:
        raise ValueError(f"minpoly must be comma-separated integers, got {args.minpoly!r}")
    p = FieldDescriptor.prime_field(args.p).base  # rejects a p that is not prime
    f = [v % p for v in coeffs]
    while f and not f[-1]:
        f.pop()
    if len(f) < 2:
        raise ValueError("polynomial must be monic of degree >= 1")
    inv = pow(f[-1], -1, p)
    verdict = is_irreducible_mod_p([v * inv % p for v in f], p)
    print(f"{args.minpoly} mod {args.p}: {'irreducible' if verdict else 'reducible'}")
    return 0


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        # a call parses with its subcommand's parser alone, as the top parse would;
        # the top parser words the rest: no or an unknown command, a top-level -h
        # and, by parsing again, arguments left over
        args, rest = (None, True) if sub is None else sub.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (FixtureError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CurveError, FieldError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
