"""Command-line front end: analyze digraphs, build Cayley/quotient digraphs,
run single checks, run surveys.

Exit codes: 0 = all pass or not applicable, 1 = some check failed, is
incomplete or (in a survey) raised an error, or an analysis ran out of
search budget, 2 = usage, file-format or file-access problem.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import construct, symmetry, verify
from .digraph import from_text, to_text
from .errors import (
    BadParameter,
    DigsymError,
    NotNormal,
    NotStronglyConnected,
    ParseError,
    SearchBudgetExceeded,
)
from .groups import PermGroup
from .perm import read_permutations

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_digraph(path: str):
    return from_text(construct.read_text(path))


def _load_group(path: str) -> PermGroup:
    degree, perms = read_permutations(construct.read_text(path))
    return PermGroup(perms, degree)


def _exit_code(statuses) -> int:
    """EXIT_FAIL when any result failed, is incomplete or is an error, else EXIT_OK."""
    bad = (verify.FAIL, verify.INCOMPLETE, verify.ERROR)
    return EXIT_FAIL if any(status in bad for status in statuses) else EXIT_OK


def _print_check_results(results) -> int:
    for r in results:
        line = f"{r.check_id}: {r.status}"
        if r.witness is not None:
            line += f" witness={json.dumps(r.witness, sort_keys=True)}"
        if r.notes:
            line += f" ({r.notes})"
        print(line)
    return _exit_code(r.status for r in results)


def cmd_analyze(args) -> int:
    g = _load_digraph(args.digraph)
    name = args.digraph
    print(f"n={g.n}")
    print(f"arcs={len(g.arcs)}")
    print(f"symmetry_class={g.symmetry_class}")
    valency, girth = g.valency(), g.girth()
    print(f"valency={valency if valency is not None else 'none'}")
    print(f"girth={girth if girth is not None else 'none'}")
    strongly = g.is_strongly_connected()
    print(f"strongly_connected={str(strongly).lower()}")
    if not strongly:
        print("diameter=n/a")
        return EXIT_OK
    print(f"diameter={g.diameter()}")
    if g.symmetry_class != "directed":
        aut = symmetry.automorphism_group(g)
        print(f"aut_order={aut.order()}")
        print("transitivity=n/a (not directed class)")
        return EXIT_OK
    report = symmetry.transitivity_report(g, name=name)
    print(f"aut_order={report.group_order}")
    sys.stdout.write(report.to_text())
    return EXIT_OK


def cmd_cayley(args) -> int:
    table = construct.parse_group_spec(args.group)
    conn = []
    for part in args.conn.replace(",", " ").split():
        try:
            conn.append(int(part))
        except ValueError:
            raise BadParameter(f"connection element {part!r} is not an integer") from None
    spec = construct.cayley_spec(table, conn)
    g = construct.cayley_digraph(spec)
    if args.analyze:
        print(f"group={args.group}")
        print(f"conn={','.join(map(str, sorted(spec.conn)))}")
        print(f"generates={str(spec.generates).lower()}")
        report = symmetry.transitivity_report(g, name=f"cayley:{args.group}")
        sys.stdout.write(report.to_text())
        return EXIT_OK
    text = to_text(g)
    if args.emit in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_quotient(args) -> int:
    g = _load_digraph(args.digraph)
    group = _load_group(args.group)
    normal = _load_group(args.normal)
    symmetry.check_is_automorphism_group(g, group)
    if not group.is_normal(normal):
        raise NotNormal("subgroup is not normal in the given group")
    result = construct.quotient_digraph(g, normal.orbit_partition())
    prefix = args.out_prefix or args.digraph
    quotient_path = f"{prefix}.quotient"
    blocks_path = f"{prefix}.blocks"
    with open(quotient_path, "w", encoding="utf-8") as fh:
        fh.write(to_text(result.quotient))
    with open(blocks_path, "w", encoding="utf-8") as fh:
        for v, b in enumerate(result.block_map):
            fh.write(f"{v} {b}\n")
    print(f"symmetry_class={result.quotient.symmetry_class}")
    print(f"orbits={result.num_blocks}")
    print(f"internal_arcs={str(result.internal_arcs).lower()}")
    print(f"wrote {quotient_path} and {blocks_path}")
    return EXIT_OK


def cmd_check(args) -> int:
    verify.resolve_check_id(args.id, args.normal)  # usage errors before any file is read
    g = _load_digraph(args.digraph)
    try:
        group = _load_group(args.group) if args.group else symmetry.automorphism_group(g)
    except SearchBudgetExceeded as exc:
        results = verify.uniform_results([args.id], verify.INCOMPLETE, str(exc))
    else:
        normal = _load_group(args.normal) if args.normal else None
        results = verify.run_check(verify.InstanceFacts(g, group), args.id, normal)
    return _print_check_results(results)


def cmd_survey(args) -> int:
    if args.config == "default":
        config = verify.default_config()
    else:
        data = json.loads(construct.read_text(args.config))
        config = verify.SurveyConfig.from_dict(data)
    report = verify.run_survey(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    sys.stdout.write(report.summary_text())
    return _exit_code(r["status"] for r in report.records)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digsym",
        description="digraph symmetry toolkit: analysis, constructions, checks, surveys",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="transitivity report for a digraph file")
    p.add_argument("digraph")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cayley", help="build a Cayley digraph")
    p.add_argument("--group", required=True, help="cyclic:N | abelian:AxB | dihedral:N | table:FILE")
    p.add_argument("--conn", required=True, help="comma-separated connection elements")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--emit", metavar="FILE", help="digraph file to write (- for stdout)")
    mode.add_argument("--analyze", action="store_true", help="analyze instead of emitting")
    p.set_defaults(fn=cmd_cayley)

    p = sub.add_parser("quotient", help="quotient a digraph by a normal subgroup")
    p.add_argument("digraph")
    p.add_argument("group", help="permutation file for the acting group")
    p.add_argument("normal", help="permutation file for the normal subgroup")
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("check", help="run one statement check")
    p.add_argument("--id", required=True, help="record id, e.g. T1.4i, L2.1, L4.1, T1.1")
    p.add_argument("digraph")
    p.add_argument("--group", default=None, help="permutation file (default: full Aut)")
    p.add_argument(
        "--normal", help=f"normal subgroup file ({', '.join(verify.SUBGROUP_CHECK_IDS)} only)"
    )
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("survey", help="run a corpus survey")
    p.add_argument("--config", default="default", help="JSON config path or 'default'")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(fn=cmd_survey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SearchBudgetExceeded as exc:
        # Only an analysis gets here: checks and surveys record it themselves.
        print(f"incomplete ({exc})")
        return EXIT_FAIL
    except (ParseError, OSError, NotStronglyConnected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DigsymError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
