"""Traced in-process run of one workload, plus the graphs and spectral replays.

Run as ``python3 bench/traced.py SPEC.json`` with graphirr importable; run.py
writes the spec and reads the result.  The CLI's output goes to the file the
spec names, so it can be checked like an untraced run.  The result is a JSON
object with the CLI's exit code and the per-layer metrics.  An expected span
that records no call is an error: a refactor that renames an entry point must
not read as 0 s.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time

import graphirr.cli
import graphirr.enumeration
from graphirr.graphs import Graph, degree_sequence, is_connected
from graphirr.spectral import lambda1

from corpus import build_corpus
from oracles import CLAIMS
from spans import SpanRecorder

# span name -> workload kinds that must record at least one call of it
EXPECTED_SPANS = {
    "enumeration.verify_claim": ("verify",),
    "enumeration.is_isomorphic_to": ("verify",),
    "io.emit_graph6": ("verify",),
    "io.parse_graph6": ("compute", "rank"),
    "measures.compute_all": ("compute", "rank"),
}
GRAPHS_REPLAYS = ("from_pair_mask", "degree_sequence", "is_connected", "adjacency_matrix")


def _rank(values: list[int], q: float) -> int:
    """Nearest-rank percentile; 0 without values."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _us(samples_ns: list[int], q: float) -> float:
    return _rank(samples_ns, q) / 1e3


def _timed(fn, *args) -> tuple[int, object]:
    start = time.perf_counter_ns()
    result = fn(*args)
    return time.perf_counter_ns() - start, result


def traced_cli(argv: list[str], output: str) -> tuple[int, SpanRecorder]:
    rec = SpanRecorder()
    rec.patch(graphirr.cli, "parse_graph6", "io.parse_graph6")
    rec.patch(graphirr.cli, "compute_all", "measures.compute_all")
    rec.patch(graphirr.cli, "verify_claim", "enumeration.verify_claim",
              key=lambda claim_id, n: (claim_id, n))
    rec.patch(graphirr.enumeration, "is_isomorphic_to", "enumeration.is_isomorphic_to")
    rec.patch(graphirr.enumeration, "emit_graph6", "io.emit_graph6")
    main = rec.wrap("cli.main", graphirr.cli.main)
    with open(output, "w") as out, contextlib.redirect_stdout(out):
        code = main(argv)
    return code, rec


def layer_metrics(rec: SpanRecorder, kind: str, ns: list[int]) -> dict[str, float]:
    for name, kinds in EXPECTED_SPANS.items():
        if kind in kinds and not rec.durations_ns(name):
            raise RuntimeError(f"span {name} recorded no call on a {kind} workload")

    def total_s(name, where=None):
        return sum(rec.durations_ns(name, where)) / 1e9

    metrics: dict[str, float] = {}
    top = max(ns) if kind == "verify" else None
    claim_s = 0.0
    for claim in CLAIMS:
        seconds = total_s("enumeration.verify_claim", lambda key, c=claim: key == (c, top))
        metrics[f"enumeration.verify_claim.{claim}.s"] = seconds
        claim_s += seconds
    metrics["enumeration.small_n.s"] = total_s(
        "enumeration.verify_claim", lambda key: key[1] != top)
    metrics["enumeration.claim_masks_per_s"] = (
        len(CLAIMS) * 2 ** math.comb(top, 2) / claim_s if claim_s else 0.0)
    metrics["enumeration.self_s"] = rec.self_ns("enumeration.verify_claim") / 1e9
    for name in ("enumeration.is_isomorphic_to", "io.emit_graph6"):
        metrics[f"{name}.calls"] = len(rec.durations_ns(name))
        metrics[f"{name}.s"] = total_s(name)
    for name in ("io.parse_graph6", "measures.compute_all"):
        samples = rec.durations_ns(name)
        metrics[f"{name}.calls"] = len(samples)
        metrics[f"{name}.s"] = sum(samples) / 1e9
        metrics[f"{name}.us_p50"] = _us(samples, 0.50)
        metrics[f"{name}.us_p99"] = _us(samples, 0.99)
    metrics["cli.self_s"] = rec.self_ns("cli.main") / 1e9
    metrics["cli.main.s"] = total_s("cli.main")
    return metrics


def replay_metrics(seed: int, size: int, spectral: bool) -> dict[str, float]:
    """Time the graphs entry points, and lambda1 when spectral is set, graph by graph."""
    samples: dict[str, list[int]] = {name: [] for name in GRAPHS_REPLAYS}
    lambda_ns: list[int] = []
    iterations: list[int] = []
    for cg in build_corpus(seed, size):
        elapsed, g = _timed(Graph.from_pair_mask, cg.n, cg.pair_mask())
        samples["from_pair_mask"].append(elapsed)
        samples["degree_sequence"].append(_timed(degree_sequence, g)[0])
        elapsed, connected = _timed(is_connected, g)
        samples["is_connected"].append(elapsed)
        samples["adjacency_matrix"].append(_timed(g.adjacency_matrix)[0])
        if spectral and connected:
            elapsed, result = _timed(lambda1, g)
            lambda_ns.append(elapsed)
            iterations.append(result.iterations)
    if spectral and not lambda_ns:
        raise RuntimeError("the spectral replay found no connected graph")
    metrics = {f"graphs.{name}.us_p50": _us(samples[name], 0.50) for name in GRAPHS_REPLAYS}
    metrics["spectral.lambda1.s"] = sum(lambda_ns) / 1e9
    metrics["spectral.lambda1.us_p50"] = _us(lambda_ns, 0.50)
    metrics["spectral.lambda1.us_p99"] = _us(lambda_ns, 0.99)
    metrics["spectral.iterations_total"] = sum(iterations)
    metrics["spectral.iterations_p99"] = _rank(iterations, 0.99)
    return metrics


def main(spec_path: str) -> None:
    with open(spec_path) as f:
        spec = json.load(f)
    code, rec = traced_cli(spec["argv"], spec["output"])
    metrics = layer_metrics(rec, spec["kind"], spec["ns"])
    metrics.update(replay_metrics(spec["seed"], spec["corpus_size"], spec["kind"] == "compute"))
    with open(spec["result"], "w") as f:
        json.dump({"cli_exit_code": code, "metrics": metrics}, f)


if __name__ == "__main__":
    main(sys.argv[1])
