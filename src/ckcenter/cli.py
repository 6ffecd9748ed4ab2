"""Command-line interface.

Subcommands cover the full analysis pipeline: structural graph facts,
hereditary and annihilator machinery for a chosen vertex set, arrival
paths, the center report, symbolic normal forms and centrality checks on
elements given in the text grammar, and the brute-force cross-check.

Every subcommand reads a graph as JSON from a file path or from stdin
("-"), prints a human summary by default and a JSON document under
--json, and exits 0 on success, 1 when a size guard stops the analysis,
2 on malformed input and 3 on an internal failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import (
    DEFAULT_ORACLE_BOUND,
    format_element,
    is_central,
    normal_form,
    parse_element,
)
from .center import _cycle_label, _set_label, compute_center, cross_check_center
from .graphs import (
    Graph,
    GraphError,
    Path,
    SizeLimitError,
    cycles,
    graph_to_json_dict,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    is_simple_graph,
    ne_cycles,
    parse_graph,
    saturation,
    sinks,
)
from .hereditary import (
    DEFAULT_MAX_VERTICES,
    annihilator,
    arrival_paths,
    double_annihilator,
    finitary_annihilator_lattice,
    is_finitary,
)


def _read_graph(location: str) -> Graph:
    if location == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(location, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {location!r}: {exc}") from exc
    return parse_graph(text)


def _parse_set(g: Graph, text: str) -> frozenset[str]:
    members = [t for t in (tok.strip() for tok in text.split(",")) if t]
    unknown = [m for m in members if m not in g.vertex_set]
    if unknown:
        raise GraphError(f"unknown vertex {unknown[0]!r} in --set")
    return frozenset(members)


def _fmt_path(p: Path) -> str:
    return "*".join(p.edges) if p.edges else p.source


def _emit(payload: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_analyze(g: Graph, args) -> int:
    simple = is_simple_graph(g)
    report = compute_center(g, max_vertices=args.max_vertices)
    lattice = finitary_annihilator_lattice(g, max_vertices=args.max_vertices)
    cyc = cycles(g)
    nec = ne_cycles(g)
    if args.json:
        payload = {
            "graph": graph_to_json_dict(g),
            "sinks": sorted(sinks(g)),
            "cycles": [list(c.edges) for c in cyc],
            "ne_cycles": [list(c.edges) for c in nec],
            "simple": _simple_payload(simple),
            "lattice": {
                "elements": [sorted(w) for w in lattice.elements],
                "atoms": [sorted(a) for a in lattice.atoms],
            },
            "center": report.to_json_dict(),
        }
        _emit(payload, [], True)
        return 0
    lines = [
        f"vertices: {len(g.vertices)}, edges: {len(g.edges)}",
        f"sinks: {_set_label(sinks(g))}",
        f"cycles: {', '.join(_cycle_label(c) for c in cyc) if cyc else 'none'}",
        f"NE-cycles: {', '.join(_cycle_label(c) for c in nec) if nec else 'none'}",
        _simple_line(simple),
        "lattice elements: " + ", ".join(_set_label(w) for w in lattice.elements),
        "lattice atoms: " + ", ".join(_set_label(a) for a in lattice.atoms),
    ]
    _emit({}, lines + _center_lines(report), False)
    return 0


def _center_lines(report) -> list[str]:
    lines = [f"center: {report.summand_description()}"]
    for atom in report.atoms:
        tail = f"  cycle {_cycle_label(atom.cycle)}" if atom.cycle else ""
        lines.append(f"  atom {_set_label(atom.vertices)}  type {atom.kind}{tail}")
    lines.append("generators:")
    for label, el in zip(report.generator_labels, report.generators):
        lines.append(f"  {label} = {format_element(el)}")
    lines.append(f"verified: {'yes' if report.verified else 'no'}")
    return lines


def _cmd_center(g: Graph, args) -> int:
    report = compute_center(g, max_vertices=args.max_vertices)
    payload, lines = (report.to_json_dict(), []) if args.json else ({}, _center_lines(report))
    _emit(payload, lines, args.json)
    return 0


def _cmd_hereditary(g: Graph, args) -> int:
    w = _parse_set(g, args.set)
    hereditary = is_hereditary(g, w)
    closure = hereditary_closure(g, w)
    sat = saturation(g, closure)
    ann = annihilator(g, w)
    dann = double_annihilator(g, w)
    finitary = is_finitary(g, w) if hereditary and w else None
    payload = {
        "set": sorted(w),
        "hereditary": hereditary,
        "saturated": is_saturated(g, w) if hereditary else None,
        "closure": sorted(closure),
        "saturation_of_closure": sorted(sat),
        "annihilator": sorted(ann),
        "double_annihilator": sorted(dann),
        "finitary": finitary,
    }
    lines = [
        f"set: {_set_label(w)}",
        f"hereditary: {'yes' if hereditary else 'no'}",
    ]
    if hereditary:
        lines.append(f"saturated: {'yes' if payload['saturated'] else 'no'}")
    lines.extend(
        [
            f"closure: {_set_label(closure)}",
            f"saturation of closure: {_set_label(sat)}",
            f"annihilator: {_set_label(ann)}",
            f"double annihilator: {_set_label(dann)}",
        ]
    )
    if finitary is not None:
        lines.append(f"finitary: {'yes' if finitary else 'no'}")
    _emit(payload, lines, args.json)
    return 0


def _cmd_arrivals(g: Graph, args) -> int:
    w = _parse_set(g, args.set)
    arr = arrival_paths(g, w)
    if arr.is_finite:
        payload = {
            "finite": True,
            "paths": [{"source": p.source, "edges": list(p.edges)} for p in arr.paths],
        }
        lines = [f"Finite: {len(arr.paths)} arrival paths"]
        lines.extend(f"  {_fmt_path(p)}" for p in arr.paths)
    else:
        payload = {"finite": False, "witness": list(arr.witness.edges)}
        lines = [f"Infinite: witness cycle {_cycle_label(arr.witness)}"]
    _emit(payload, lines, args.json)
    return 0


def _cmd_ne_cycles(g: Graph, args) -> int:
    found = ne_cycles(g)
    rows = []
    for c in found:
        rows.append(
            {
                "edges": list(c.edges),
                "vertices": sorted(c.vertex_set(g)),
                "finitary": is_finitary(g, c.vertex_set(g)),
            }
        )
    payload = {"ne_cycles": rows}
    lines = [f"NE-cycles: {len(found)}"]
    for c, row in zip(found, rows):
        lines.append(f"  {_cycle_label(c)}  finitary: {'yes' if row['finitary'] else 'no'}")
    _emit(payload, lines, args.json)
    return 0


def _simple_payload(report) -> dict:
    return {
        "simple": report.simple,
        "witness_subset": sorted(report.witness_subset) if report.witness_subset else None,
        "witness_cycle": list(report.witness_cycle.edges) if report.witness_cycle else None,
    }


def _simple_line(report) -> str:
    if report.simple:
        return "simple: yes"
    if report.witness_subset is not None:
        return f"simple: no (witness subset: {_set_label(report.witness_subset)})"
    return f"simple: no (witness cycle: {_cycle_label(report.witness_cycle)})"


def _cmd_simple(g: Graph, args) -> int:
    report = is_simple_graph(g)
    _emit(_simple_payload(report), [_simple_line(report)], args.json)
    return 0


def _cmd_normal_form(g: Graph, args) -> int:
    el = parse_element(g, args.element)
    nf = normal_form(el)
    payload = {"input": args.element, "normal_form": format_element(nf)}
    _emit(payload, [format_element(nf)], args.json)
    return 0


def _cmd_check_central(g: Graph, args) -> int:
    el = parse_element(g, args.element)
    central, witness = is_central(el)
    payload = {"central": central, "witness": witness}
    line = "central: yes" if central else f"central: no (witness generator: {witness})"
    _emit(payload, [line], args.json)
    return 0


def _cmd_cross_check(g: Graph, args) -> int:
    result = cross_check_center(
        g,
        args.degree,
        oracle_bound=args.oracle_bound,
        max_vertices=args.max_vertices,
    )
    payload = result.to_json_dict()
    lines = [
        f"degree: {result.degree}",
        f"candidate monomials: {result.candidate_count}",
        f"kernel dimension: {result.kernel_dim}",
        f"predicted dimension: {result.predicted_dim}",
        f"predicted in kernel: {'yes' if result.predicted_in_kernel else 'no'}",
        f"dimensions match: {'yes' if result.dims_match else 'no'}",
        f"agrees: {'yes' if result.agrees else 'no'}",
    ]
    _emit(payload, lines, args.json)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckcenter",
        description="Center of the Cuntz-Krieger algebra of a finite directed graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    guarded = {"analyze", "center", "cross-check"}

    def add(name: str, handler, help_: str, *, needs_set=False, needs_element=False, degree=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("graph", help="graph JSON file, or - for stdin")
        if needs_set:
            p.add_argument("--set", required=True, help="comma-separated vertex ids")
        if needs_element:
            p.add_argument("element", help="element in the text grammar")
        if degree:
            p.add_argument("--degree", type=int, default=2, help="monomial length bound (default 2)")
            p.add_argument(
                "--oracle-bound",
                type=int,
                default=DEFAULT_ORACLE_BOUND,
                help=f"candidate monomial guard (default {DEFAULT_ORACLE_BOUND})",
            )
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if name in guarded:
            p.add_argument(
                "--max-vertices",
                type=int,
                default=DEFAULT_MAX_VERTICES,
                help=(
                    "vertex guard on the lattice, whose element list can reach 2^|V| sets "
                    f"(default {DEFAULT_MAX_VERTICES})"
                ),
            )
        p.set_defaults(handler=handler)
        return p

    add("analyze", _cmd_analyze, "full structural and center report")
    add("center", _cmd_center, "center isomorphism type and generators")
    add("hereditary", _cmd_hereditary, "hereditary/annihilator facts for one vertex set", needs_set=True)
    add("arrivals", _cmd_arrivals, "arrival paths of a hereditary vertex set", needs_set=True)
    add("ne-cycles", _cmd_ne_cycles, "cycles without exits, with finitariness")
    add("simple", _cmd_simple, "simplicity criterion with witness")
    add("normal-form", _cmd_normal_form, "rewrite an element to its normal form", needs_element=True)
    add("check-central", _cmd_check_central, "test centrality of an element", needs_element=True)
    add("cross-check", _cmd_cross_check, "compare the center against the degree-bounded solver", degree=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        g = _read_graph(args.graph)
        return args.handler(g, args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # SizeLimitError is a RuntimeError, so this clause comes after its own
        print(f"error: internal failure: {exc!r}", file=sys.stderr)
        return 3


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
