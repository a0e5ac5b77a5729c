"""Absorbing sets of the domination dynamics.

An absorbing set is a set of structures closed under transitive domination
whose members all transitively dominate each other; equivalently, a sink
strongly connected component of the domination graph. Trivial (size-1)
absorbing sets are exactly the stable structures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .core import Game
from .errors import VerificationFailed
from .structures import DEFAULT_LIMIT, enumerate_structures, structure_key
from .dynamics import DominationEdge, DominationGraph, _grow, grow_graph


@dataclass(frozen=True)
class AbsorbingSet:
    members: tuple[tuple[int, ...], ...]

    @property
    def trivial(self) -> bool:
        return len(self.members) == 1

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pi) -> bool:
        return pi in self.members


def full_domination_graph(g: Game, limit: int = DEFAULT_LIMIT) -> DominationGraph:
    """The domination graph over every coalition structure of the game.

    Structures stream in lazily; domination never leaves the structure
    space, so seeding growth with all of them yields the complete graph.
    Enumeration already yields each valid structure once, canonical and in
    ``structure_key`` order, so the seeds skip ``grow_graph``'s validation
    and sort; nodes and edges come out the same.
    """
    return _grow(g, enumerate_structures(g, limit=limit), limit)


def sink_components(G: DominationGraph) -> list[AbsorbingSet]:
    """Sink SCCs of the graph as absorbing sets, canonically ordered.

    Computed once per graph and memoized on it; each call returns a new
    list.
    """
    if G._sinks is None:
        G._sinks = _scan_sinks(G)
    return list(G._sinks)


def _scan_sinks(G: DominationGraph) -> list[AbsorbingSet]:
    comps = G.sccs()
    comp_of = G._comp_of
    has_out = [False] * len(comps)
    for v, out in enumerate(G.adj):
        cv = comp_of[v]
        if has_out[cv]:
            continue
        for w, _ in out:
            if comp_of[w] != cv:
                has_out[cv] = True
                break
    sets = []
    for ci, comp in enumerate(comps):
        if has_out[ci]:
            continue
        structures = sorted((G.nodes[v] for v in comp), key=structure_key)
        sets.append(AbsorbingSet(tuple(structures)))
    return sorted(sets, key=lambda a: structure_key(a.members[0]))


def absorbing_sets(g: Game, limit: int = DEFAULT_LIMIT) -> list[AbsorbingSet]:
    """All absorbing sets of the game."""
    return sink_components(full_domination_graph(g, limit=limit))


def reaches_absorbing(
    g: Game, pi, limit: int = DEFAULT_LIMIT
) -> tuple[AbsorbingSet, list[DominationEdge]]:
    """An absorbing set reachable from ``pi`` plus a witness domination path.

    The path is empty when ``pi`` already belongs to the returned set.
    Breadth-first search over the closure of ``pi`` keeps the witness
    shortest and the choice deterministic.
    """
    G = grow_graph(g, [pi], limit=limit)
    start = G.seeds[0]
    sinks = sink_components(G)
    sink_of: dict[int, AbsorbingSet] = {}
    for a in sinks:
        for m in a.members:
            sink_of[G.node_id(m)] = a
    parent: dict[int, tuple[int, int] | None] = {start: None}
    order = deque([start])
    while order:
        v = order.popleft()
        if v in sink_of:
            path: list[DominationEdge] = []
            cur = v
            while parent[cur] is not None:
                prev, via = parent[cur]
                path.append(DominationEdge(G.nodes[prev], G.nodes[cur], via))
                cur = prev
            path.reverse()
            return sink_of[v], path
        for w, via in G.adj[v]:
            if w not in parent:
                parent[w] = (v, via)
                order.append(w)
    raise VerificationFailed("no absorbing set reachable; the graph is finite, so this is a bug")
