"""Command line interface: burn graphs, build complexes, compute homology.

Graphs are given either as a file in the edge-list text format, as inline
edge-list text, or as a builder expression like `path:5`, `bipartite:2,3`,
`cube`, or `sum:3,path:2` (three detached copies).  Output is plain text by
default or JSON with --format json; vertex labels are 0-based unless
--one-based is passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .burning import (
    Burning,
    BurningError,
    IncompleteBurning,
    SizeGuardExceeded,
    SourceOutOfRange,
    SourceTooEarly,
    burning_count,
    burning_number,
    iter_burnings,
    validate_burning,
)
from .complexes import configuration_space
from .graphs import Graph, GraphError, build_named, iterated_sum, parse_graph_text
from .homology import homology, homology_to_record, parse_coeff

SCHEMA = 1


class UsageError(Exception):
    pass


def load_graph(spec: str) -> Graph:
    """File path, builder expression, or inline edge-list text."""
    if os.path.isfile(spec):
        with open(spec) as fh:
            return parse_graph_text(fh.read())
    head = spec.split(":", 1)[0].strip()
    if head == "sum":
        count_text, comma, inner = spec.partition(":")[2].partition(",")
        if not (comma and count_text.strip().isdecimal()):
            raise UsageError(f"bad sum {spec!r}; expected sum:<count>,<graph>")
        return iterated_sum(int(count_text), load_graph(inner))
    if head.isalpha() or head == "complete_bipartite":
        parts = spec.split(":", 1)
        texts = parts[1].split(",") if len(parts) == 2 else []
        try:
            params = [int(x) for x in texts if x.strip()]
        except ValueError:
            raise UsageError(f"bad graph {spec!r}; expected <family>:<int>,...") from None
        try:
            return build_named(head, *params)
        except GraphError as exc:
            raise UsageError(str(exc)) from None
    try:
        return parse_graph_text(spec)
    except GraphError as exc:
        raise UsageError(f"cannot read graph {spec!r}: {exc}") from None


def parse_sources(text: str, one_based: bool) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad source sequence {text!r}; expected e.g. 0,3") from None
    if one_based:
        values = tuple(v - 1 for v in values)
    return values


def shift(values, one_based: bool):
    delta = 1 if one_based else 0
    return [v + delta for v in values]


def _validate(args) -> Burning:
    """The burning of the graph by the sources; its errors name the user's labels."""
    g = load_graph(args.graph)
    try:
        return validate_burning(g, parse_sources(args.sources, args.one_based))
    except SourceTooEarly as exc:
        raise SourceTooEarly(exc.step, *shift([exc.vertex], args.one_based)) from None
    except SourceOutOfRange as exc:
        raise SourceOutOfRange(*shift([exc.vertex], args.one_based)) from None
    except IncompleteBurning as exc:
        raise IncompleteBurning(shift(exc.unburned, args.one_based)) from None


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        record["schema"] = SCHEMA
        print(json.dumps(record, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _burning_record(b, one_based: bool) -> dict:
    rec = b.to_record()
    rec["sources"] = shift(rec["sources"], one_based)
    return rec


# ---------------------------------------------------------------------------
# Subcommands


def cmd_burnings(args) -> int:
    """Stream the listing: each burning is written as the walk yields it.

    JSON records are written from each burning's fields, bytes pinned to
    `json.dumps(record, sort_keys=True)` on the whole record; times and labels
    read one table of strings.  `iter_burnings` refuses before any write.
    """
    g = load_graph(args.graph)
    burnings = iter_burnings(g)
    write = sys.stdout.write
    label = [str(v) for v in range(g.vertex_count + 2)]
    source_label = label[1:] if args.one_based else label
    if args.format == "json":
        write('{"burnings": [')
        separator = ""
        for b in burnings:
            write(f'{separator}{{"end_time": {b.end_time}, "is_homomorphism": '
                  f'{"true" if b.is_homomorphism else "false"}, '
                  f'"lambda": [{", ".join([label[t] for t in b.times])}], '
                  f'"sources": [{", ".join([source_label[v] for v in b.sources])}]}}')
            separator = ", "
        write(f'], "schema": {SCHEMA}, "vertex_count": {g.vertex_count}}}\n')
    else:
        for b in burnings:
            hom = " hom" if b.is_homomorphism else ""
            write(f"sources {','.join([source_label[v] for v in b.sources])} "
                  f"end_time {b.end_time}{hom}\n")
        write(f"total {burning_count(g)}\n")
    return 0


def cmd_burning_number(args) -> int:
    g = load_graph(args.graph)
    number = burning_number(g)
    _emit(args, {"burning_number": number}, [str(number)])
    return 0


def cmd_validate(args) -> int:
    try:
        b = _validate(args)
    except BurningError as exc:
        _emit(args, {"valid": False, "reason": str(exc)}, [f"invalid: {exc}"])
        return 1
    rec = _burning_record(b, args.one_based)
    rec["valid"] = True
    lines = [f"valid, end_time {b.end_time}",
             f"lambda {','.join(map(str, b.times))}"]
    if rec["is_homomorphism"]:
        lines.append("burning map is a homomorphism")
    _emit(args, rec, lines)
    return 0


def cmd_complex(args) -> int:
    g = load_graph(args.graph)
    c = configuration_space(g)
    rec = c.to_record()
    rec["facets"] = [shift(f, args.one_based) for f in rec["facets"]]
    rec["dimension"] = c.dimension
    lines = [f"vertices {c.vertex_count} dimension {c.dimension}"]
    lines += ["facet " + ",".join(map(str, f)) for f in rec["facets"]]
    _emit(args, rec, lines)
    return 0


def cmd_homology(args) -> int:
    try:
        p = parse_coeff(args.coeff)  # before the search, which can take seconds
    except ValueError as exc:
        raise UsageError(f"bad --coeff: {exc}") from None
    g = load_graph(args.graph)
    c = configuration_space(g)
    groups = homology(c, reduced=args.reduced, coeff=args.coeff)
    record = {"reduced": args.reduced, "coefficients": args.coeff,
              "groups": homology_to_record(groups, args.coeff)}
    prefix = "H~" if args.reduced else "H"
    # Over a field a group is free: Q^r or F<p>^r, written as Z^r is.
    ring = "Z" if p is None else "Q" if p == 0 else f"F{p}"
    lines = [f"{prefix}_{q} = {str(grp).replace('Z', ring)}"
             for q, grp in enumerate(groups)]
    _emit(args, record, lines)
    return 0


def cmd_minimal_subgraphs(args) -> int:
    from .morphisms import minimal_b_burned_subgraphs  # off the pipeline's import, as in cmd_verify
    try:
        b = _validate(args)
    except BurningError as exc:
        raise UsageError(f"not a burning sequence: {exc}") from None
    subgraphs = minimal_b_burned_subgraphs(b)
    record = {"sources": shift(b.sources, args.one_based),
              "minimal_subgraphs": [
                  {"vertices": shift(h.vertices, args.one_based),
                   "edges": [shift(e, args.one_based) for e in sorted(h.edges)]}
                  for h in subgraphs]}
    lines = [f"vertices {','.join(map(str, h['vertices']))} edges "
             + " ".join(f"{a}-{b}" for a, b in h["edges"])
             for h in record["minimal_subgraphs"]] + [f"total {len(subgraphs)}"]
    _emit(args, record, lines)
    return 0


def cmd_witness(args) -> int:
    from .morphisms import extremal_path_report  # off the pipeline's import, as in cmd_verify
    report = extremal_path_report(args.kind, args.param)
    record = {"kind": report.kind, "param": report.param, "n": report.n,
              "witness": shift(report.witness, args.one_based),
              "end_time": report.burning.end_time}
    lines = [f"n {report.n}",
             f"witness {','.join(map(str, shift(report.witness, args.one_based)))}",
             f"end_time {report.burning.end_time}"]
    _emit(args, record, lines)
    return 0


def cmd_verify(args) -> int:
    # Imported here: every other command would otherwise compile the checks.
    from .verify import run_checks
    report = run_checks(args.checks or None)
    record = report.to_record()
    lines = []
    for c in report.checks:
        lines.append(f"{c.status.upper():4s} {c.check_id}: {c.statement}")
        if c.status != "pass" and not args.quiet:
            lines.append(f"     details: {json.dumps(c.details, sort_keys=True)}")
    lines.append("all checks passed" if report.all_passed
                 else "some checks FAILED")
    _emit(args, record, lines)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The whole grammar, for help and usage errors: `parse_args` reads a plain argv itself."""
    def flags(p):  # before or after the command; SUPPRESS keeps a value given up front
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
        p.add_argument("--one-based", action="store_true", default=argparse.SUPPRESS,
                       help="read and print vertex labels 1-based")
        return p

    parser = flags(argparse.ArgumentParser(
        prog="graphburn", description="Graph burnings, configuration complexes, burning homology."))
    parser.set_defaults(format="text", one_based=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, graph=True):
        p = flags(sub.add_parser(name, help=help))
        if graph:
            p.add_argument("graph", help="file, builder expression, or edge-list text")
        p.set_defaults(fn=fn)  # read now, so that a patched handler is called
        return p

    add("burnings", cmd_burnings, "list every burning of a graph")
    add("burning-number", cmd_burning_number, "minimum end time over all burnings")
    add("validate", cmd_validate, "check a source sequence and print its time function"
        ).add_argument("sources", help="comma-separated source sequence, e.g. 0,3")
    add("complex", cmd_complex, "facets of the burning configuration space")
    p = add("homology", cmd_homology, "homology of the burning configuration space")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--coeff", default="z", metavar="z|q|p:N", help="coefficients: z "
                   "(integers), q (rationals), p:N (integers mod N; N must be prime)")
    add("minimal-subgraphs", cmd_minimal_subgraphs,
        "minimal subgraphs burned compatibly with a burning").add_argument("sources")
    from .morphisms import _EXTREMAL_N
    p = add("witness", cmd_witness, "extremal path lengths with witnesses", graph=False)
    p.add_argument("kind", choices=tuple(_EXTREMAL_N))
    p.add_argument("param", type=int)
    p = add("verify", cmd_verify, "run the built-in verification checks", graph=False)
    p.add_argument("checks", nargs="*",
                   help="check ids (default all); an unknown id lists the known ones")
    p.add_argument("--quiet", action="store_true", help="omit failure details in text output")
    return parser


# The positionals of each graph command that `parse_args` reads without a parser.
_PLAIN = {"burnings": ("graph",), "burning-number": ("graph",), "validate": ("graph", "sources"),
          "complex": ("graph",), "homology": ("graph",), "minimal-subgraphs": ("graph", "sources")}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, read with no parser when argv is plain:
    a command of `_PLAIN`, its positionals, `--format text|json` and `--one-based`
    anywhere, and homology's `--reduced` and `--coeff VALUE` after it, each flag
    in full and apart from its value.  argparse reads the rest and words every error."""
    argv = sys.argv[1:] if argv is None else argv
    values, command, words, tokens = {"format": "text", "one_based": False}, None, [], iter(argv)
    for token in tokens:
        if token == "--one-based" or token == "--reduced" and command == "homology":
            values[token[2:].replace("-", "_")] = True
        elif token == "--format" or token == "--coeff" and command == "homology":
            values[token[2:]] = value = next(tokens, "-")
            if value.startswith("-") or token == "--format" and value not in ("text", "json"):
                break
        elif token.startswith("-") or command is None and token not in _PLAIN:
            break
        elif command is None:
            command = token
        else:
            words.append(token)
    else:
        if command and len(words) == len(_PLAIN[command]):
            if command == "homology":
                values = {"reduced": False, "coeff": "z", **values}
            # The handler is read now, so that a patched one is called.
            return argparse.Namespace(**values, **dict(zip(_PLAIN[command], words)),
                                      command=command,
                                      fn=globals()["cmd_" + command.replace("-", "_")])
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # The reader left (`graphburn burnings ... | head`): end quietly, with
        # stdout on devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, SizeGuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
