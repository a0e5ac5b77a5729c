"""Traced replay of ``analyze --all --json`` and ``verify`` through the
library's public functions, one span around every call into a layer.

The analysis replay runs the stage sequence of ``stabledec.cli`` (load,
enumerate, grow, sinks, rings, decompositions, certificates, D-structures,
convergence) without rendering, so the untraced ``analyze`` time minus the
replayed stages is what the command line layer itself costs.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from stabledec import (
    DEFAULT_LIMIT,
    LimitExceeded,
    StabledecError,
    all_stable_decompositions,
    check_stable_decomposition,
    converges_to_stability,
    d_structures,
    enumerate_structures,
    grow_graph,
    protection_certificates,
    ring_components_of,
    sink_components,
    successors,
)
from stabledec.cli import load_game, parse_decomposition


class Tracer:
    """Spans and per-layer counters, kept in memory for the whole run.

    A span is ``{id, parent, request, name, start, end}``; the spans of one
    operation share its request id and hang under one root span.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str, request: str, parent: int | None = None):
        record = {"id": len(self.spans), "parent": parent, "request": request, "name": name}
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record["id"]
        finally:
            record["end"] = time.perf_counter()

    def busy(self) -> Counter:
        """Summed duration of the child spans, by layer call."""
        out: Counter = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                out[s["name"]] += s["end"] - s["start"]
        return out

    def stage_time(self, root_name: str) -> float:
        """Summed duration of the children of every ``root_name`` span."""
        roots = {s["id"] for s in self.spans if s["name"] == root_name}
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] in roots)


def replay_analyze(tr: Tracer, text: str, request: str, rng, samples: int) -> str | None:
    """Replay one analysis under spans and count each layer's work.

    Returns a reason when the grown graph disagrees with the
    ``successors()`` reference on ``samples`` seeded nodes. A library error
    ends the replay where it ends the command.
    """
    counts = tr.counts
    with tr.span("analyze", request) as root:
        try:
            with tr.span("core.load", request, root):
                g = load_game(text)
            with tr.span("structures.enumerate", request, root):
                structs = list(enumerate_structures(g, limit=DEFAULT_LIMIT))
            with tr.span("dynamics.grow", request, root):
                graph = grow_graph(g, structs, limit=DEFAULT_LIMIT)
            with tr.span("absorbing.sinks", request, root):
                sinks = sink_components(graph)
            nontrivial = [a for a in sinks if not a.trivial]
            with tr.span("rings.extract", request, root):
                rings = [ring_components_of(g, a, graph) for a in nontrivial]
            with tr.span("decomposition.build", request, root):
                decs = all_stable_decompositions(g, graph=graph)
            with tr.span("decomposition.certificates", request, root):
                for d in decs:
                    protection_certificates(g, d)
            with tr.span("decomposition.d_structures", request, root):
                for d in decs:
                    d_structures(g, d)
            with tr.span("applications.converge", request, root):
                converges_to_stability(g, graph=graph)
        except StabledecError:
            return None
    k = len(g.permissible)
    counts["core.permissible"] += k
    counts["structures.count"] += len(structs)
    counts["dynamics.nodes"] += len(graph)
    counts["dynamics.edges"] += graph.edge_count()
    counts["dynamics.block_tests"] += len(graph) * k
    counts["absorbing.sccs"] += len(graph.sccs())
    counts["absorbing.nontrivial"] += len(nontrivial)
    counts["absorbing.nontrivial_structures"] += sum(len(a) for a in nontrivial)
    # ring extraction runs one breadth-first search per edge inside a sink
    counts["rings.cycle_searches"] += sum(
        len(graph.adj[graph.node_id(pi)]) for a in nontrivial for pi in a.members
    )
    counts["rings.components"] += sum(len(r) for r in rings)
    counts["decomposition.count"] += len(decs)
    for v in rng.sample(range(len(graph)), min(samples, len(graph))):
        expected = sorted((e.target, e.via) for e in successors(g, graph.nodes[v]))
        if sorted((graph.nodes[w], via) for w, via in graph.adj[v]) != expected:
            return "graph edges differ from successors() on a sampled node"
    return None


def replay_verify(
    tr: Tracer, text: str, decomposition: str, limit: int, request: str
) -> tuple[int, bool | None, str]:
    """Replay one ``verify`` as ``(exit code, verdict, error message)``, with
    the exit codes of the command line."""
    with tr.span("verify", request) as root:
        try:
            with tr.span("core.load", request, root):
                g = load_game(text)
            D = parse_decomposition(g, decomposition)
            with tr.span("decomposition.verify", request, root):
                return 0, not check_stable_decomposition(g, D, limit=limit), ""
        except LimitExceeded as exc:
            tr.counts["decomposition.verify_limit_hits"] += 1
            return 1, None, str(exc)
        except StabledecError as exc:
            return 2, None, str(exc)
