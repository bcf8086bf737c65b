"""Command-line entry point: one dispatcher over all the modules.

JSON in, JSON out (or aligned tables with --output table); exact values
are printed as rational strings, never decimals.  The layers return
dataclasses, Fractions and characteristics; _plain alone turns them into
JSON data, once per handler, and _emit prints that in either format.
Exit codes: 0 success, 1 computation/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import amplitude as amp
from . import boundary as bnd
from . import picard as pic
from .characteristics import (
    Characteristic,
    CharSystem,
    difference_rank,
    enumerate_fundamental_systems,
    enumerate_gopel_systems,
    enumerate_syzygetic_tetrads,
    quartic_coordinate_check,
)
from .symplectic import arf, enumerate_forms
from .theta import PeriodMatrix, Tolerance, theta_report
from .verify import run_acceptance


# The largest genus `picard` and `boundary` take, checked before any work.
# Both reports grow with g (picard's classes list about g/2 boundary
# symbols, boundary's degrees report g/2 + 1 pairs of 2g-bit integers):
# at g = 1000 the largest takes about 10 ms and prints under 1 MB, while
# g = 10^11 would allocate until the process is killed.  picard's frozen
# reports stop at g = 31.
GENUS_CAP = 1000


def _genus_cap(g: int, what: str = "g") -> None:
    if g > GENUS_CAP:
        raise ValueError(f"need {what} <= {GENUS_CAP}, got {g}")


def _load_json(text: str, what: str):
    """One JSON input; nesting too deep for the parser is an input error like any other."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} JSON is nested too deeply") from None


def _parse_entry(x) -> complex:
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return complex(x)
    if (
        isinstance(x, list)
        and len(x) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in x)
    ):
        return complex(x[0], x[1])
    raise ValueError(f"entries are numbers or [re, im] pairs, got {x!r}")


def parse_period_matrix(text: str, g: int) -> PeriodMatrix:
    """Parse a g x g complex matrix from JSON rows of numbers/[re, im] pairs."""
    data = _load_json(text, "tau")
    if not isinstance(data, list) or len(data) != g:
        raise ValueError(f"tau must be a JSON list of {g} rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError(f"tau rows must be JSON lists, got {row!r}")
        if len(row) == g:
            rows.append([_parse_entry(x) for x in row])
        elif g == 1 and len(row) == 2:
            # a bare [re, im] row for the 1x1 case
            rows.append([_parse_entry(row)])
        else:
            raise ValueError(f"tau row has {len(row)} entries, expected {g}")
    return PeriodMatrix(rows)


def parse_z(text: str, g: int) -> list[complex]:
    data = _load_json(text, "z")
    if not isinstance(data, list) or len(data) != g:
        raise ValueError(f"z must be a JSON list of {g} entries")
    return [_parse_entry(x) for x in data]


def _characteristic(c: Characteristic) -> dict:
    """The quadric's two blocks in hex, most significant digit first, and its parity."""
    w = (c.g + 3) // 4
    return {"eps": f"{c.eps:0{w}x}", "delta": f"{c.delta:0{w}x}", "parity": c.parity}


def _plain(value):
    """A report value as JSON data: the one place that knows the printed forms.

    A system prints with its characteristics and difference rank, a
    divisor class over its whole basis, a Fraction as its rational string,
    and any other dataclass as its fields in order.
    """
    if isinstance(value, (str, int, float)):  # the most common case first
        return value
    if isinstance(value, CharSystem):  # next: a listing holds thousands
        members = [_characteristic(c) for c in value.members]
        return {"genus": value.g, "cardinality": len(members), "members": members,
                "difference_rank": difference_rank(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, Characteristic):
        return _characteristic(value)
    if isinstance(value, pic.DivClass):
        coeffs = {s: str(value.coeff(s)) for s in pic.basis_symbols(value.space, value.g)}
        return {"space": value.space, "g": value.g, "coeffs": coeffs}
    if isinstance(value, Fraction):
        return str(value)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2))
        return
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        rendered = value if isinstance(value, (str, int, bool, float)) else json.dumps(value)
        print(f"{key:<{width}}  {rendered}")


def _cmd_forms(args) -> int:
    forms = enumerate_forms(args.genus, args.parity)
    if args.count:
        print(len(forms))
        return 0
    listed = []
    for q in forms:
        blocks = _characteristic(q)
        listed.append({"qe": blocks["eps"], "qf": blocks["delta"], "arf": arf(q)})
    _emit(
        {"genus": args.genus, "parity": args.parity, "count": len(forms), "forms": listed},
        args.output,
    )
    return 0


def _cmd_systems(args) -> int:
    g = args.genus
    if args.kind == "aronhold":
        if g != 3:
            raise ValueError("the aronhold census is a genus-3 computation; use --genus 3")
        census = quartic_coordinate_check()
        if args.count:
            print(census["azygetic_odd_7set_count"])
            return 0
        _emit(census, args.output)
        return 0
    if args.kind == "tetrads":
        systems = [CharSystem(g, t) for t in enumerate_syzygetic_tetrads(g)]
    elif args.kind == "fundamental":
        systems = enumerate_fundamental_systems(g)
    else:
        systems = enumerate_gopel_systems(g)
    if args.count:
        print(len(systems))
        return 0
    _emit(
        {
            "genus": g,
            "kind": args.kind,
            "count": len(systems),
            "systems": _plain(systems),
        },
        args.output,
    )
    return 0


def _cmd_theta(args) -> int:
    tol = Tolerance(args.tol)
    char = Characteristic.from_string(args.char)
    if char.g != args.genus:
        raise ValueError(f"characteristic has genus {char.g}, --genus says {args.genus}")
    tau = parse_period_matrix(args.tau, args.genus)
    z = parse_z(args.z, args.genus) if args.z else None
    report = theta_report(tau, z, char, tol)
    report["tolerance"] = tol.abs_tol
    _emit(report, args.output)
    return 0


def _cmd_amplitude(args) -> int:
    tol = Tolerance(args.tol)
    if args.mode == "check-factorization":
        amp._check_split(args.g, args.k)
        tau1 = parse_period_matrix(args.tau1, args.k)
        tau2 = parse_period_matrix(args.tau2, args.g - args.k)
        residual = amp.factorization_residual(tau1, tau2, tol)
        _emit(
            {"g": args.g, "k": args.k, "residual": residual, "tolerance": tol.abs_tol},
            args.output,
        )
        return 0
    if args.genus is None or args.tau is None:
        raise ValueError("amplitude needs --genus and --tau")
    amp._check_genus(args.genus)
    tau = parse_period_matrix(args.tau, args.genus)
    xi = amp.xi_g(tau, args.genus, tol)
    terms = [amp.P_i_g(tau, args.genus, i, tol) for i in range(args.genus + 1)]
    _emit(
        {
            "genus": args.genus,
            "xi_re": xi.real,
            "xi_im": xi.imag,
            "per_i": [{"i": i, "re": p.real, "im": p.imag} for i, p in enumerate(terms)],
            "tolerance": tol.abs_tol,
        },
        args.output,
    )
    return 0


def _cmd_boundary(args) -> int:
    with open(args.graph, encoding="utf-8") as fh:
        graph = bnd.DualGraph.from_json_dict(_load_json(fh.read(), "graph"))
    for v in graph.vertices:
        _genus_cap(v.genus, f"the genus of vertex {v.id!r}")
    _, g = bnd.betti_and_genus(graph)
    _genus_cap(g, "total genus")
    if args.report == "components":
        _emit(_plain(bnd.th_components(graph)), args.output)
        return 0
    degrees = []
    for i in range(g // 2 + 1):
        deg_a, deg_b = bnd.boundary_degrees_odd(g, i)
        degrees.append({"i": i, "deg_A": deg_a, "deg_B": deg_b})
    _emit({"genus": g, "degrees": degrees}, args.output)
    return 0


def _cmd_picard(args) -> int:
    space = pic.resolve_space(args.space)
    g = args.genus
    _genus_cap(g)
    if args.report == "verdict":
        print(pic.general_type_test(g, space))
        return 0
    if args.report == "slope":
        _emit(_plain(pic.slope_combination(g, space)), args.output)
        return 0
    pic.basis_symbols(space, g)  # the least genus of a class report
    theta_name = "Z_odd" if space == "Sbar_minus" else "ThetaNull"
    classes = {}
    if g >= pic.CLASS_MIN_GENUS[theta_name]:
        classes[theta_name] = _plain(pic.named_class(g, theta_name))
    if g >= pic.CANONICAL_MIN_GENUS:
        classes["canonical"] = _plain(pic.canonical_class(g, space))
    if g >= pic.CLASS_MIN_GENUS["BN_normalized"]:
        bn = pic.named_class(g, "BN_normalized")
        classes["BN_normalized"] = _plain(bn)
        classes["BN_pullback"] = _plain(pic.pullback(bn, space))
    _emit(
        {
            "space": space,
            "genus": g,
            "bn_applicable": pic.bn_applicable(g),
            "classes": classes,
        },
        args.output,
    )
    return 0


def _cmd_verify(args) -> int:
    report = run_acceptance(seed=args.seed, only=args.only)
    results = report.results
    if args.output == "json":
        _emit({"seed": report.seed, "criteria": _plain(results), "passed": report.passed}, "json")
    else:  # one line per criterion, then the overall verdict
        for r in results:
            print(f"[{r.index:2d}] {'PASS' if r.passed else 'FAIL'}  {r.name}: {r.details}")
        good = sum(r.passed for r in results)
        overall = "PASS" if report.passed else "FAIL"
        print(f"overall: {overall} ({good}/{len(results)} criteria, seed {report.seed})")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    # The shared flags go on the main parser and on every subparser, so they
    # are accepted before and after the subcommand.  SUPPRESS keeps an absent
    # flag out of the namespace, so it never clobbers a value parsed earlier;
    # when both positions are given, the later (inner) parser wins.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--output", choices=("json", "table"), help="report format (default json)")
    tol = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    tol.add_argument("--tol", type=float, help="absolute truncation tolerance")

    parser = argparse.ArgumentParser(
        prog="thetachar",
        description="Theta characteristics: enumeration, numerics, and moduli slopes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "forms", parents=[common], help="enumerate quadratic forms / characteristics"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--parity", choices=("even", "odd", "all"), default="all")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(handler=_cmd_forms)

    p = sub.add_parser("systems", parents=[common], help="enumerate characteristic systems")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--kind",
        choices=("tetrads", "fundamental", "gopel", "aronhold"),
        required=True,
    )
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(handler=_cmd_systems)

    p = sub.add_parser(
        "theta", parents=[common, tol], help="evaluate a theta function with characteristic"
    )
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--tau", required=True, help="period matrix as JSON rows of [re, im]")
    p.add_argument("--char", required=True, help="characteristic 'epsbits;deltabits'")
    p.add_argument("--z", help="argument vector as JSON (default 0)")
    p.set_defaults(handler=_cmd_theta)

    p = sub.add_parser(
        "amplitude", parents=[common, tol], help="subspace sums and the Xi combination"
    )
    p.add_argument("--genus", type=int)
    p.add_argument("--tau", help="period matrix as JSON rows of [re, im]")
    p.set_defaults(handler=_cmd_amplitude, mode=None)
    q = p.add_subparsers(dest="mode").add_parser(
        "check-factorization",
        parents=[common, tol],
        help="residual of Xi(diag) against the product",
    )
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--tau1", required=True)
    q.add_argument("--tau2", required=True)
    q.set_defaults(handler=_cmd_amplitude, mode="check-factorization")

    p = sub.add_parser("boundary", parents=[common], help="dual-graph fibre reports")
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.add_argument("--report", choices=("components", "degrees"), default="components")
    p.set_defaults(handler=_cmd_boundary)

    p = sub.add_parser("picard", parents=[common], help="divisor classes, slopes, verdicts")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument(
        "--space", choices=("odd", "even", "Sbar_minus", "Sbar_plus"), required=True
    )
    p.add_argument("--report", choices=("classes", "slope", "verdict"), default="slope")
    p.set_defaults(handler=_cmd_picard)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument(
        "--only",
        type=int,
        nargs="+",
        metavar="N",
        help="run only these 1-based criteria",
    )
    p.set_defaults(handler=_cmd_verify, only=None)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    # The shared flags' defaults go in the starting namespace, not in
    # set_defaults: the parsers share one action object per flag, so
    # set_defaults on any of them would replace SUPPRESS on all of them.
    try:
        args = parser.parse_args(argv, argparse.Namespace(output="json", tol=Tolerance().abs_tol))
        if getattr(args, "mode", None) and (args.genus, args.tau) != (None, None):
            # amplitude's own flags, given before its subcommand, go unread
            parser.error("check-factorization reads neither --genus nor --tau")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
