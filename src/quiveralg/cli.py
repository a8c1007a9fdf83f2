"""Command line: validation, conversion, isomorphism, cuts, check suites, DOT.

Exit codes: 0 for success or a true property, 1 for a property that is
false or a suite with failures, 2 for unusable input.  All output is
deterministic byte for byte for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path as FilePath

from . import brauer, cut, quiver, ssb, suites, surface, trivext
from .errors import ParseError, QuiverAlgError, ValidationError
from .gentle import gentle_algebra, validate_gentle

OK, PROPERTY_FALSE, INPUT_ERROR = 0, 1, 2


def _read(path: str) -> str:
    try:
        return FilePath(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out:
        FilePath(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_ssb(path: str) -> ssb.SSBPresentation:
    return ssb.ssb_presentation(quiver.parse_presentation(_read(path)))


def _valid_brauer_graph(text: str) -> brauer.BrauerGraph:
    g = brauer.parse_brauer_graph(text)
    problems = brauer.validate_brauer_graph(g)
    if problems:
        raise ValidationError(problems)
    return g


def cmd_validate(args) -> int:
    text = _read(args.file)
    if args.kind == "bg":
        problems = brauer.validate_brauer_graph(brauer.parse_brauer_graph(text))
    elif args.kind == "tri":
        problems = surface.validate_triangulation(surface.parse_triangulation(text))
    elif args.kind == "gentle":
        problems = validate_gentle(quiver.parse_presentation(text)).problems
    elif args.kind == "ssb":
        problems = ssb.validate_ssb(quiver.parse_presentation(text)).problems
    else:  # plain presentation: parsing already checks the invariants
        quiver.parse_presentation(text)
        problems = []
    if problems:
        for p in problems:
            print(p)
        return INPUT_ERROR
    print("ok")
    return OK


def cmd_convert(args) -> int:
    mode = args.mode
    if mode == "bg-to-alg":
        g = _valid_brauer_graph(_read(args.file))
        pres = brauer.algebra_of(g).presentation
        text = quiver.presentation_dot(pres) if args.dot else quiver.serialize_presentation(pres)
    elif mode == "alg-to-bg":
        g = ssb.graph_of_ssb(_load_ssb(args.file))
        text = brauer.brauer_graph_dot(g) if args.dot else brauer.serialize_brauer_graph(g)
    elif mode == "trivext":
        algebra = gentle_algebra(quiver.parse_presentation(_read(args.file)))
        pres = trivext.trivial_extension(algebra).presentation
        text = quiver.presentation_dot(pres) if args.dot else quiver.serialize_presentation(pres)
    elif mode == "tri-to-jacobian":
        t = surface.parse_triangulation(_read(args.file))
        pres = surface.jacobian_algebra(t, args.arrow_convention).presentation
        text = quiver.presentation_dot(pres) if args.dot else quiver.serialize_presentation(pres)
    else:  # tri-to-bg
        g = surface.brauer_graph_of_triangulation(surface.parse_triangulation(_read(args.file)))
        text = brauer.brauer_graph_dot(g) if args.dot else brauer.serialize_brauer_graph(g)
    _emit(text, args.out)
    return OK


def cmd_iso(args) -> int:
    if args.kind == "bg":
        graphs = [_valid_brauer_graph(_read(path)) for path in (args.file1, args.file2)]
        mapping = brauer.find_isomorphism(graphs[0], graphs[1])
        if mapping is None:
            print("not isomorphic")
            inv1, inv2 = (
                sorted(g.valency(v) for v in g.multiplicities) for g in graphs
            )
            if inv1 != inv2:
                print(f"valency multisets differ: {inv1} != {inv2}")
            else:
                print("canonical forms differ")
            return PROPERTY_FALSE
        print("isomorphic")
        for h, image in sorted(mapping.items()):
            print(f"half-edge {h} -> {image}")
        return OK
    a, b = _load_ssb(args.file1), _load_ssb(args.file2)
    witness = ssb.find_ssb_isomorphism(a, b)
    if witness is None:
        print("not isomorphic")
        print(ssb.distinguishing_invariant(a, b))
        return PROPERTY_FALSE
    vmap, amap = witness
    print("isomorphic")
    for v, image in sorted(vmap.items()):
        print(f"vertex {v} -> {image}")
    for name, image in sorted(amap.items()):
        print(f"arrow {name} -> {image}")
    return OK


def cmd_cuts(args) -> int:
    algebra = _load_ssb(args.file)
    if args.cut:
        chosen = cut.CuttingSet(args.cut.split(","))
        gentle = cut.admissible_cut(algebra, chosen)
        if args.dot:
            dashed = frozenset(chosen.arrows)
            _emit(quiver.presentation_dot(algebra.presentation, dashed), args.out)
        else:
            _emit(quiver.serialize_presentation(gentle.presentation), args.out)
        if args.verify:
            ok = cut.verify_roundtrip(algebra, gentle)
            print(f"roundtrip: {'true' if ok else 'false'}")
            return OK if ok else PROPERTY_FALSE
        return OK
    sets = cut.enumerate_cutting_sets(algebra)
    all_ok = True
    lines = []
    for c in sets:
        if args.verify:
            ok = cut.verify_roundtrip(algebra, cut.admissible_cut(algebra, c))
            all_ok = all_ok and ok
            lines.append(f"{','.join(c.arrows)} roundtrip={'true' if ok else 'false'}")
        else:
            lines.append(",".join(c.arrows))
    _emit("\n".join(lines) + "\n", args.out)
    return OK if all_ok else PROPERTY_FALSE


def cmd_check(args) -> int:
    bounds = suites.Bounds(
        max_edges=args.max_edges,
        max_mult=args.max_mult,
        max_vertices=args.max_vertices,
        max_arrows=args.max_arrows,
        seed=args.seed,
    )
    try:
        report = suites.run_suite(args.suite, bounds)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return INPUT_ERROR
    _emit(report.format(), args.out)
    return OK if report.ok else PROPERTY_FALSE


def cmd_dot(args) -> int:
    text = _read(args.file)
    if args.kind == "bg":
        out = brauer.brauer_graph_dot(_valid_brauer_graph(text))
    elif args.kind == "tri":
        out = surface.triangulation_dot(surface.parse_triangulation(text))
    else:
        out = quiver.presentation_dot(quiver.parse_presentation(text))
    _emit(out, args.out)
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiveralg",
        description="Gentle algebras, Brauer graphs, trivial extensions and admissible cuts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an input file")
    p.add_argument("--kind", choices=["alg", "gentle", "ssb", "bg", "tri"], required=True)
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert between the object kinds")
    p.add_argument(
        "--mode",
        choices=["bg-to-alg", "alg-to-bg", "trivext", "tri-to-jacobian", "tri-to-bg"],
        required=True,
    )
    p.add_argument("--dot", action="store_true", help="emit Graphviz DOT instead of text")
    p.add_argument("--out")
    p.add_argument(
        "--arrow-convention",
        choices=["successor", "predecessor"],
        default="successor",
        help="direction of triangulation arrows at shared corners",
    )
    p.add_argument("file")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("iso", help="test two files for isomorphism")
    p.add_argument("--kind", choices=["bg", "alg"], required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("cuts", help="admissible cuts of a Brauer graph algebra")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--cut", help="comma-separated arrows of one cutting set")
    group.add_argument("--enumerate", action="store_true", help="list all cutting sets")
    p.add_argument("--verify", action="store_true", help="check the extension roundtrip")
    p.add_argument("--dot", action="store_true", help="render the algebra with the cut dashed")
    p.add_argument("--out")
    p.add_argument("file")
    p.set_defaults(func=cmd_cuts)

    p = sub.add_parser("check", help="run a verification suite over enumerated instances")
    p.add_argument("--suite", required=True)
    p.add_argument("--max-edges", type=int, default=4)
    p.add_argument("--max-mult", type=int, default=3)
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--max-arrows", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dot", help="Graphviz DOT for an input file")
    p.add_argument("--kind", choices=["alg", "bg", "tri"], required=True)
    p.add_argument("--out")
    p.add_argument("file")
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return INPUT_ERROR
    except ValidationError as exc:
        for p in exc.problems:
            print(p, file=sys.stderr)
        return INPUT_ERROR
    except QuiverAlgError as exc:
        print(exc, file=sys.stderr)
        return INPUT_ERROR


def entrypoint() -> None:  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
