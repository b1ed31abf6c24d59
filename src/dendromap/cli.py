"""Command-line front end.

Subcommands: ``verify`` runs named suites and emits a canonical JSON
report; ``eval`` prints exact map values; ``orbit`` traces a point with
cover-cell membership; ``witness`` produces a forward-verified reach
record; ``render`` draws a finite skeleton as SVG.

Exit codes: 0 pass, 1 fail, 2 usage error, 3 inconclusive.
"""

import argparse
import sys
from typing import Optional

from .dynamics import RhoContext
from .errors import BudgetExceeded, DendromapError, DomainError, PrecisionError
from .plmap import base_forward
from .rationals import as_fraction, format_rational
from .render import render_svg
from .reports import canonical_json, exit_code, make_report
from .space import EndPoint, cut, end, point_to_json
from .suites import SUITE_NAMES, SuiteConfig, run_suites
from .words import as_word, format_bits, parse_bits

#: Largest skeleton ``render`` draws; layout time grows with the arc count.
MAX_RENDER_ARCS = 4096


class UsageError(Exception):
    pass


def parse_word(text: str) -> tuple:
    text = text.strip()
    return as_word(text.split(",")) if text else ()


def parse_point(text: str):
    """Compact point syntax: ``cut:[letters],t`` or ``end:[letters]``."""
    kind, sep, rest = text.partition(":")
    if not sep or kind not in ("cut", "end") or not rest.startswith("["):
        raise UsageError(
            f"point syntax is cut:[letters],t or end:[letters], got {text!r}"
        )
    close = rest.find("]")
    if close < 0:
        raise UsageError(f"unclosed letter list in {text!r}")
    word = parse_word(rest[1:close])
    tail = rest[close + 1 :]
    if kind == "end":
        if tail:
            raise UsageError("end points take no parameter")
        return end(word)
    if not tail.startswith(","):
        raise UsageError("cut points need ,t after the letter list")
    return cut(word, tail[1:])


def format_point(x) -> str:
    """The compact syntax :func:`parse_point` reads."""
    if isinstance(x, EndPoint):
        return "end:[{}]".format(",".join(format_rational(a) for a in x.prefix))
    letters = ",".join(format_rational(a) for a in x.word)
    return f"cut:[{letters}],{format_rational(x.t)}"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require_format(args, allowed: str) -> None:
    if args.format and args.format != allowed:
        raise UsageError(f"this command only writes {allowed}")


def _context(args) -> RhoContext:
    if args.budget < 1:
        raise UsageError("--budget must be at least 1")
    return RhoContext(tau0_rounds=args.budget)


def cmd_verify(args) -> int:
    _require_format(args, "json")
    names = SUITE_NAMES if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()
    ]
    if not names or not set(names) <= set(SUITE_NAMES):
        raise UsageError(f"--suite takes 'all' or names from {', '.join(SUITE_NAMES)}")
    overrides = {
        key: getattr(args, key)
        for key in ("depth", "horizon", "budget", "samples", "seed", "m")
        if getattr(args, key) is not None
    }
    config = SuiteConfig(**overrides)  # a bad flag raises DomainError: exit 2
    # Flags are all checked by now, so a domain error inside the run is a fault.
    try:
        entries = run_suites(names, config)
    except DomainError as exc:
        raise DendromapError(str(exc)) from exc
    report = make_report(config.to_json(), entries)
    _emit(canonical_json(report), args.out)
    return exit_code(report)


def cmd_eval(args) -> int:
    chosen = [
        name
        for name in ("phi0", "tau0", "rho", "point")
        if getattr(args, name) is not None
    ]
    if len(chosen) != 1:
        raise UsageError("pick exactly one of --phi0, --tau0, --rho, --point")
    mode = chosen[0]
    ctx = _context(args)
    if mode == "phi0":
        value = base_forward(as_fraction(args.phi0))
        _emit(format_rational(value) + "\n", args.out)
        return 0
    if mode == "tau0":
        value = ctx.xi(args.tau0)
        _emit(format_rational(value) + "\n", args.out)
        return 0
    if mode == "rho":
        image = ctx.rho(parse_word(args.rho))
        _emit(",".join(format_rational(a) for a in image) + "\n", args.out)
        return 0
    image = ctx.apply_F(parse_point(args.point))
    _emit(format_point(image) + "\n", args.out)
    return 0


def _require_orbit_length(args) -> None:
    if args.n < 0 or args.m < 1:
        raise UsageError("--n must be nonnegative and --m at least 1")


def cmd_orbit(args) -> int:
    _require_orbit_length(args)
    ctx = _context(args)
    x = parse_point(args.start)
    visited = []  # (point, cell label) per step
    note = None
    for step in range(args.n + 1):
        try:
            gamma = ctx.cell_of(x, args.m)
        except PrecisionError as exc:
            note = str(exc)
            break
        visited.append((x, format_bits(gamma) if gamma is not None else "-"))
        if step == args.n:
            break
        try:
            x = ctx.apply_F(x)
        except (PrecisionError, BudgetExceeded) as exc:
            note = str(exc)
            break
    if args.format == "json":
        rows = [
            {"step": step, "point": point_to_json(x), "cell": cell}
            for step, (x, cell) in enumerate(visited)
        ]
        payload = {"m": args.m, "steps": rows}
        if note:
            payload["stopped"] = note
        _emit(canonical_json(payload), args.out)
    else:
        lines = [
            f"{step}\t{format_point(x)}\t{cell}"
            for step, (x, cell) in enumerate(visited)
        ]
        if note:
            lines.append(f"# stopped early: {note}")
        _emit("\n".join(lines) + "\n", args.out)
    return 3 if note else 0


def cmd_witness(args) -> int:
    _require_format(args, "json")
    ctx = _context(args)
    alpha = parse_word(args.alpha)
    delta = parse_bits(args.delta)
    # Errors reach main: malformed input exits 2, a spent budget 3, and only
    # a record that fails forward verification 1.
    rec = ctx.transitivity_witness(alpha, args.target, delta)
    payload = {
        "alpha": [format_rational(a) for a in rec.alpha],
        "target": format_rational(rec.s),
        "delta": list(rec.delta),
        "steps": rec.n,
        "carry": rec.c,
        "letter": format_rational(rec.u),
        "profile": list(rec.profile),
        "levels": len(rec.levels),
    }
    _emit(canonical_json(payload), args.out)
    return 0


def cmd_render(args) -> int:
    _require_format(args, "svg")
    if not 1 <= args.m <= 4:
        raise UsageError("--m must be between 1 and 4 for rendering")
    _require_orbit_length(args)
    # The skeleton has sum over i <= m of (2^letters - 1)^i arcs.
    if not 0 <= args.letters <= 12 or sum(
        ((1 << args.letters) - 1) ** i for i in range(args.m + 1)
    ) > MAX_RENDER_ARCS:
        raise UsageError(f"--letters must keep the skeleton to {MAX_RENDER_ARCS} arcs")
    ctx = _context(args)
    orbit = []
    if args.start:
        x = parse_point(args.start)
        for _ in range(args.n + 1):
            orbit.append(x)
            try:
                x = ctx.apply_F(x)
            except (PrecisionError, BudgetExceeded):
                break
    svg = render_svg(
        ctx.length_table(), args.m, letter_exponent=args.letters, orbit=orbit
    )
    _emit(svg, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dendromap",
        description="exact verification suites and artifacts for the dendrite map",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default=None):
        p.add_argument("--budget", type=int, default=512, help="backward engine round budget")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "svg"), default=fmt_default)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all", help="'all' or comma-separated suite names")
    p.add_argument("--m", type=int, default=None, help="restrict cover depth, 1 to 4")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p, "json")
    p.set_defaults(func=cmd_verify, budget=None)

    p = sub.add_parser("eval", help="print exact values of the coded maps")
    p.add_argument("--phi0", help="base arc parameter")
    p.add_argument("--tau0", help="letter whose forward value to print")
    p.add_argument("--rho", help="comma-separated word for one shift step")
    p.add_argument("--point", help="point for one application of the map")
    common(p, "json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("orbit", help="trace an orbit with cover-cell labels")
    p.add_argument("--start", required=True, help="cut:[letters],t or end:[letters]")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--m", type=int, default=2, help="cover depth for cell labels")
    common(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("witness", help="forward-verified reach certificate")
    p.add_argument("--alpha", required=True, help="start word, comma-separated")
    p.add_argument("--target", required=True, help="target letter")
    p.add_argument("--delta", required=True, help="parity target, e.g. 01")
    common(p, "json")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("render", help="draw a finite skeleton as SVG")
    p.add_argument("--m", type=int, required=True, help="skeleton depth, at most 4")
    p.add_argument("--letters", type=int, default=2, help="letter grid exponent, at most 4096 arcs")
    p.add_argument("--start", help="optional orbit overlay start point")
    p.add_argument("--n", type=int, default=8, help="overlay orbit length")
    common(p, "svg")
    # Deep skeletons keep a small default budget so unsettleable arcs fail
    # fast and fall back to the depth bound instead of grinding.
    p.set_defaults(func=cmd_render, budget=64)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (PrecisionError, BudgetExceeded) as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 3
    except DendromapError as exc:
        sys.stderr.write(f"fail: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
