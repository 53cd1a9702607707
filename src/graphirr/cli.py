"""Command-line front end: compute, rank, generate, spectrum, verify.

Exit codes: 0 success, 1 parse or domain errors, 2 failed verification claims.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .enumeration import _CLAIMS, _MAX_ORDER, CLAIM_IDS, _check_request, verify_claim
from .generators import FAMILIES, family
from .graphs import Graph, degree_sequence
from .io import GRAPH6_MAX_N, FormatError, emit_edgelist, emit_graph6, parse_edgelist, parse_graph6
from .measures import (
    CSV_COLUMNS,
    MeasureReport,
    _quantum,
    compute_all,
    format_value,
    nk_spectrum,
    round_half_away,
)
from .spectral import ConvergenceError, DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE

MEASURE_NAMES = CSV_COLUMNS + ("disc",)
SPECTRAL_MEASURES = ("cs", "rho")


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; 2 is reserved for failed claims here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_input_flags(sub):
    sub.add_argument("paths", nargs="+", metavar="PATH",
                     help="input file, or - for stdin")
    sub.add_argument("--format", choices=("graph6", "edgelist"), default="graph6",
                     help="input format (graph6: one graph per line; edgelist: one graph per file)")


def _add_power_iteration_flags(sub):
    sub.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                     help="power-iteration convergence tolerance")
    sub.add_argument("--max-iterations", type=int, default=DEFAULT_MAX_ITERATIONS,
                     help="power-iteration cap")


def build_parser() -> _Parser:
    parser = _Parser(prog="graphirr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    compute = sub.add_parser("compute", help="compute irregularity measures for input graphs")
    _add_input_flags(compute)
    compute.add_argument("--measures", default="all",
                         help="comma-separated measure names, or all "
                              f"(choices: {', '.join(MEASURE_NAMES)})")
    compute.add_argument("--output", choices=("text", "csv", "json"), default="text")
    compute.add_argument("--decimals", type=int, default=3,
                         help="decimal places for floating output, 0..15")
    _add_power_iteration_flags(compute)
    compute.add_argument("--no-spectral", dest="spectral", action="store_false",
                         help="skip spectral measures; cs and rho print empty")

    rank = sub.add_parser("rank", help="rank graphs by one measure, descending")
    _add_input_flags(rank)
    rank.add_argument("--by", default="ira", metavar="MEASURE",
                      help=f"measure to rank by (choices: {', '.join(MEASURE_NAMES)})")
    rank.add_argument("--output", choices=("text", "csv", "json"), default="text")
    rank.add_argument("--decimals", type=int, default=3,
                      help="decimal places for floating output, 0..15")
    _add_power_iteration_flags(rank)

    generate = sub.add_parser("generate", help="emit one graph from a named family")
    generate.add_argument("--family", required=True, choices=FAMILIES)
    generate.add_argument("--n", required=True, type=int, help="vertex count")
    generate.add_argument("--k", type=int, help="clique size (complete_split)")
    generate.add_argument("--p", type=float, help="edge probability (gnp)")
    generate.add_argument("--seed", type=int, help="random seed (gnp)")
    generate.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

    spectrum = sub.add_parser("spectrum", help="print degree-difference pair counts per graph")
    _add_input_flags(spectrum)
    spectrum.add_argument("--output", choices=("text", "csv", "json"), default="text")

    verify = sub.add_parser("verify", help="exhaustively verify extremal claims at small n")
    verify.add_argument("--claims", default="all",
                        help="comma-separated claim ids, all, or table_rows "
                             f"(claims: {', '.join(CLAIM_IDS)})")
    verify.add_argument("--n", default="3", metavar="SPEC",
                        help="vertex counts: N, A-B, or comma combinations (e.g. 3,5-7)")
    verify.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _parse_names(text: str, kind: str, choices, everything) -> list[str]:
    """A comma-separated selection from choices, or everything for 'all'."""
    if text.strip() == "all":
        return list(everything)
    names = [token.strip() for token in text.split(",") if token.strip()]
    if not names:
        raise ValueError(f"empty {kind} selection")
    for name in names:
        if name not in choices:
            raise ValueError(f"unknown {kind} {name!r}; choices: {', '.join(choices)}")
    return names


def _parse_n_spec(text: str) -> list[int]:
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_text, dash, hi_text = part.partition("-")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dash else lo
        except ValueError:
            raise ValueError(f"bad vertex counts {part!r}; expected N or A-B") from None
        if lo > hi:
            raise ValueError(f"empty range {part!r}")
        # one count past _MAX_ORDER fails as any larger one would
        values.update(range(lo, min(hi, max(lo, _MAX_ORDER + 1)) + 1))
    if not values:
        raise ValueError(f"no vertex counts in {text!r}")
    return sorted(values)


def _read_graphs(paths, fmt: str) -> list[tuple[str, Graph]]:
    loaded: list[tuple[str, Graph]] = []
    for path in paths:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
        if fmt == "graph6":
            for line in text.splitlines():
                line = line.strip()
                if line:
                    loaded.append((line, parse_graph6(line)))
        else:
            loaded.append(("<stdin>" if path == "-" else path, parse_edgelist(text)))
    if not loaded:
        raise FormatError("no input graphs")
    return loaded


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _cell(value, decimals: int) -> str:
    text = format_value(value, decimals)
    return text if text else "-"


def _json_value(value, decimals: int):
    return round_half_away(value, decimals) if isinstance(value, float) else value


def _cmd_compute(args) -> int:
    measures = _parse_names(args.measures, "measure", MEASURE_NAMES, CSV_COLUMNS)
    _quantum(args.decimals)  # reject a bad --decimals before reading input
    graphs = _read_graphs(args.paths, args.format)
    results = [
        (label, compute_all(g, args.tolerance, spectral=args.spectral,
                            max_iterations=args.max_iterations))
        for label, g in graphs
    ]
    if args.output == "csv":
        print(MeasureReport.csv_header(measures))
        for _, report in results:
            print(report.csv_row(args.decimals, measures))
    elif args.output == "json":
        payload = [{"input": label, **{m: _json_value(report.value(m), args.decimals)
                                       for m in measures}}
                   for label, report in results]
        print(json.dumps(payload, indent=2))
    else:
        rows = [[label] + [_cell(report.value(m), args.decimals) for m in measures]
                for label, report in results]
        _print_table(["input"] + list(measures), rows)
    return 0


def _cmd_rank(args) -> int:
    if args.by not in MEASURE_NAMES:
        raise ValueError(f"unknown measure {args.by!r}; choices: {', '.join(MEASURE_NAMES)}")
    _quantum(args.decimals)
    graphs = _read_graphs(args.paths, args.format)
    scored = []
    for label, g in graphs:
        report = compute_all(g, args.tolerance, spectral=args.by in SPECTRAL_MEASURES,
                             max_iterations=args.max_iterations)
        value = report.value(args.by)
        if value is None:
            raise ValueError(f"measure {args.by} is undefined for input {label}")
        scored.append((label, value))
    scored.sort(key=lambda item: -item[1])  # stable, so ties keep input order
    ranks: list[int] = []
    for pos, (_, value) in enumerate(scored):
        ranks.append(ranks[-1] if pos and value == scored[pos - 1][1] else pos + 1)
    tie_sizes = Counter(ranks)
    entries = [{"rank": rank, "input": label, args.by: value, "tie": tie_sizes[rank] > 1}
               for rank, (label, value) in zip(ranks, scored)]
    if args.output == "csv":
        print(f"rank,{args.by},tie,input")
        for e in entries:
            print(f"{e['rank']},{format_value(e[args.by], args.decimals)},"
                  f"{str(e['tie']).lower()},{e['input']}")
    elif args.output == "json":
        payload = [{**e, args.by: _json_value(e[args.by], args.decimals)} for e in entries]
        print(json.dumps(payload, indent=2))
    else:
        rows = [[str(e["rank"]), _cell(e[args.by], args.decimals),
                 "tie" if e["tie"] else "", e["input"]] for e in entries]
        _print_table(["rank", args.by, "", "input"], rows)
        for pos, e in enumerate(entries):
            if e["tie"] and (pos == 0 or entries[pos - 1]["rank"] != e["rank"]):
                print(f"tie at rank {e['rank']}: {tie_sizes[e['rank']]} graphs share "
                      f"{args.by} = {format_value(e[args.by], args.decimals)}")
    return 0


def _cmd_generate(args) -> int:
    if args.format == "graph6" and args.n > GRAPH6_MAX_N:  # before building the graph
        raise FormatError(f"graph6 output supports n <= {GRAPH6_MAX_N}, got n={args.n}")
    g = family(args.family, args.n, k=args.k, p=args.p, seed=args.seed)
    if args.format == "graph6":
        print(emit_graph6(g))
    else:
        sys.stdout.write(emit_edgelist(g))
    return 0


def _cmd_spectrum(args) -> int:
    graphs = _read_graphs(args.paths, args.format)
    spectra = [(label, nk_spectrum(degree_sequence(g))) for label, g in graphs]
    if args.output == "json":
        payload = [
            {"input": label, "n": spec.n,
             "counts": {str(k): spec.counts[k] for k in sorted(spec.counts)},
             "total_pairs": spec.total_pairs, "weighted_sum": spec.weighted_sum}
            for label, spec in spectra
        ]
        print(json.dumps(payload, indent=2))
    elif args.output == "csv":
        print("input,k,count")
        for label, spec in spectra:
            for k in sorted(spec.counts):
                print(f"{label},{k},{spec.counts[k]}")
    else:
        for label, spec in spectra:
            pairs = " ".join(f"{k}:{spec.counts[k]}" for k in sorted(spec.counts))
            print(f"{label}  {pairs}")
    return 0


def _cmd_verify(args) -> int:
    claims = _parse_names(args.claims, "claim", tuple(_CLAIMS), CLAIM_IDS)
    ns = _parse_n_spec(args.n)
    for claim_id in claims:  # the whole request, before the first scan
        for n in ns:
            _check_request(claim_id, n)
    reports = [verify_claim(claim_id, n) for claim_id in claims for n in ns]
    failed = sum(1 for r in reports if not r.passed)
    if args.output == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.format_text())
        print(f"{len(reports) - failed} of {len(reports)} claim runs passed")
    return 2 if failed else 0


_DISPATCH = {
    "compute": _cmd_compute,
    "rank": _cmd_rank,
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except (FormatError, ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
